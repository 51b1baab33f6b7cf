#include "harness/recovery.hpp"

#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "workloads/hpl.hpp"
#include "workloads/microbench.hpp"
#include "workloads/motifminer.hpp"

namespace gbc::harness {
namespace {

ClusterPreset small_cluster(int n) {
  ClusterPreset p = icpp07_cluster();
  p.nranks = n;
  return p;
}

WorkloadFactory microbench_factory(int comm_group, std::uint64_t iters) {
  workloads::CommGroupBenchConfig cfg;
  cfg.comm_group_size = comm_group;
  cfg.compute_per_iter = 100 * sim::kMillisecond;
  cfg.iterations = iters;
  cfg.footprint_mib = 64.0;
  return [cfg](int n) {
    return std::make_unique<workloads::CommGroupBench>(n, cfg);
  };
}

TEST(Recovery, RestartFromGroupCheckpointReproducesExactResult) {
  auto preset = small_cluster(8);
  auto factory = microbench_factory(4, 150);
  ckpt::CkptConfig cc;
  cc.group_size = 4;

  RunResult clean = run_experiment(preset, factory, cc);
  std::vector<CkptRequest> reqs;
  reqs.push_back(
      CkptRequest{sim::from_seconds(5), ckpt::Protocol::kGroupBased});
  auto rec = run_with_failure(preset, factory, cc, reqs,
                              sim::from_seconds(12));
  EXPECT_TRUE(rec.used_checkpoint);
  EXPECT_GT(rec.rollback_iteration, 0u);
  EXPECT_EQ(rec.final_hashes, clean.final_hashes);
  EXPECT_EQ(rec.final_iterations, clean.final_iterations);
}

TEST(Recovery, ColdRestartWhenNoCheckpointCompleted) {
  auto preset = small_cluster(4);
  auto factory = microbench_factory(2, 80);
  ckpt::CkptConfig cc;
  cc.group_size = 2;
  RunResult clean = run_experiment(preset, factory, cc);
  // Failure before any checkpoint was even requested.
  auto rec = run_with_failure(preset, factory, cc, {}, sim::from_seconds(3));
  EXPECT_FALSE(rec.used_checkpoint);
  EXPECT_EQ(rec.rollback_iteration, 0u);
  EXPECT_EQ(rec.final_hashes, clean.final_hashes);
}

TEST(Recovery, CheckpointShortensTimeToSolution) {
  auto preset = small_cluster(8);
  auto factory = microbench_factory(4, 200);  // ~20s clean runtime
  ckpt::CkptConfig cc;
  cc.group_size = 4;
  std::vector<CkptRequest> reqs;
  reqs.push_back(
      CkptRequest{sim::from_seconds(4), ckpt::Protocol::kGroupBased});
  auto with_ckpt =
      run_with_failure(preset, factory, cc, reqs, sim::from_seconds(15));
  auto cold = run_with_failure(preset, factory, cc, {}, sim::from_seconds(15));
  EXPECT_TRUE(with_ckpt.used_checkpoint);
  EXPECT_FALSE(cold.used_checkpoint);
  EXPECT_LT(with_ckpt.total_seconds, cold.total_seconds);
  EXPECT_EQ(with_ckpt.final_hashes, cold.final_hashes);
}

TEST(Recovery, RestartPaysStorageReadCost) {
  auto preset = small_cluster(8);
  auto factory = microbench_factory(4, 120);
  ckpt::CkptConfig cc;
  cc.group_size = 4;
  std::vector<CkptRequest> reqs;
  reqs.push_back(
      CkptRequest{sim::from_seconds(3), ckpt::Protocol::kGroupBased});
  auto rec = run_with_failure(preset, factory, cc, reqs,
                              sim::from_seconds(10));
  // 8 ranks x 64MB read back from ~140MB/s shared storage: seconds.
  EXPECT_GT(rec.restart_read_seconds, 1.0);
}

TEST(Recovery, BlockingCoordinatedCheckpointAlsoRecovers) {
  auto preset = small_cluster(4);
  auto factory = microbench_factory(2, 100);
  ckpt::CkptConfig cc;
  RunResult clean = run_experiment(preset, factory, cc);
  std::vector<CkptRequest> reqs;
  reqs.push_back(
      CkptRequest{sim::from_seconds(2), ckpt::Protocol::kBlockingCoordinated});
  auto rec =
      run_with_failure(preset, factory, cc, reqs, sim::from_seconds(9));
  EXPECT_TRUE(rec.used_checkpoint);
  EXPECT_EQ(rec.final_hashes, clean.final_hashes);
}

TEST(Recovery, LaterOfTwoCheckpointsIsUsed) {
  auto preset = small_cluster(4);
  auto factory = microbench_factory(2, 150);
  ckpt::CkptConfig cc;
  cc.group_size = 2;
  std::vector<CkptRequest> reqs;
  reqs.push_back(
      CkptRequest{sim::from_seconds(2), ckpt::Protocol::kGroupBased});
  reqs.push_back(
      CkptRequest{sim::from_seconds(8), ckpt::Protocol::kGroupBased});
  auto rec =
      run_with_failure(preset, factory, cc, reqs, sim::from_seconds(14));
  EXPECT_TRUE(rec.used_checkpoint);
  // Rollback point must come from the 8s checkpoint, not the 2s one.
  EXPECT_GT(rec.rollback_iteration, 40u);
}

TEST(Recovery, HplSurvivesMidFactorizationFailure) {
  auto preset = small_cluster(8);
  workloads::HplConfig hc;
  hc.grid_p = 4;
  hc.grid_q = 2;
  // Large enough that the job outlasts the fault (clean run ~17 s): at
  // n = 6000 the job finished before it and the fault never fired.
  hc.n = 9000;
  hc.nb = 200;
  hc.base_footprint_mib = 32.0;
  WorkloadFactory factory = [hc](int n) {
    return std::make_unique<workloads::HplSim>(n, hc);
  };
  ckpt::CkptConfig cc;
  cc.group_size = 2;
  RunResult clean = run_experiment(preset, factory, cc);
  std::vector<CkptRequest> reqs;
  reqs.push_back(
      CkptRequest{sim::from_seconds(clean.completion_seconds() * 0.3),
                  ckpt::Protocol::kGroupBased});
  // Leave enough time for the 4-group cycle (~4s of storage writes) to
  // complete before the failure strikes.
  auto rec = run_with_failure(
      preset, factory, cc, reqs,
      sim::from_seconds(clean.completion_seconds() * 0.3 + 6.0));
  EXPECT_EQ(rec.failures, 1);
  EXPECT_TRUE(rec.used_checkpoint);
  EXPECT_EQ(rec.final_hashes, clean.final_hashes);
}

TEST(Recovery, MotifMinerSurvivesFailure) {
  auto preset = small_cluster(8);
  workloads::MotifMinerConfig mc;
  mc.iterations = 16;
  mc.mean_compute_seconds = 0.5;
  mc.peak_candidates_mib = 16.0;
  mc.base_footprint_mib = 48.0;
  WorkloadFactory factory = [mc](int n) {
    return std::make_unique<workloads::MotifMinerSim>(n, mc);
  };
  ckpt::CkptConfig cc;
  cc.group_size = 4;
  RunResult clean = run_experiment(preset, factory, cc);
  std::vector<CkptRequest> reqs;
  reqs.push_back(
      CkptRequest{sim::from_seconds(3), ckpt::Protocol::kGroupBased});
  auto rec =
      run_with_failure(preset, factory, cc, reqs, sim::from_seconds(7));
  EXPECT_TRUE(rec.used_checkpoint);
  EXPECT_EQ(rec.final_hashes, clean.final_hashes);
}

}  // namespace
}  // namespace gbc::harness
