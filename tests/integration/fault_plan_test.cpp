// FaultPlan replay loop: multiple injected failures in one run. Each fault
// interrupts its own attempt, the dead-node set accumulates, and the final
// re-execution must still reproduce the clean run bit-for-bit.
#include "harness/recovery.hpp"

#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "workloads/microbench.hpp"

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

TEST(FaultPlan, TwoFailuresOnDifferentNodesRecoverToCleanResult) {
  auto preset = small_cluster(8);
  auto factory = microbench_factory(4, 150);
  ckpt::CkptConfig cc;
  cc.group_size = 4;

  RunResult clean = run_experiment(preset, factory, cc);
  std::vector<CkptRequest> reqs;
  reqs.push_back(
      CkptRequest{sim::from_seconds(5), ckpt::Protocol::kGroupBased});

  FaultPlan plan;
  plan.faults.push_back(FaultEvent{sim::from_seconds(12), 1});
  plan.faults.push_back(FaultEvent{sim::from_seconds(4), 5});
  auto rec = run_with_faults(preset, factory, cc, reqs, plan);

  EXPECT_EQ(rec.failures, 2);
  EXPECT_TRUE(rec.used_checkpoint);
  EXPECT_GT(rec.rollback_iteration, 0u);
  EXPECT_EQ(rec.final_hashes, clean.final_hashes);
  EXPECT_EQ(rec.final_iterations, clean.final_iterations);
  // Each fault's lost work plus the final rerun: strictly worse than one
  // failure at the same first instant.
  FaultPlan one;
  one.faults.push_back(FaultEvent{sim::from_seconds(12), 1});
  auto single = run_with_faults(preset, factory, cc, reqs, one);
  EXPECT_GT(rec.total_seconds, single.total_seconds);
}

TEST(FaultPlan, SingleFaultPlanMatchesClassicRunWithFailure) {
  auto preset = small_cluster(8);
  auto factory = microbench_factory(4, 120);
  ckpt::CkptConfig cc;
  cc.group_size = 4;
  std::vector<CkptRequest> reqs;
  reqs.push_back(
      CkptRequest{sim::from_seconds(3), ckpt::Protocol::kGroupBased});

  FaultPlan plan;
  plan.faults.push_back(FaultEvent{sim::from_seconds(10), 2});
  auto a = run_with_faults(preset, factory, cc, reqs, plan);
  auto b = run_with_failure(preset, factory, cc, reqs, sim::from_seconds(10),
                            2);
  EXPECT_EQ(a.used_checkpoint, b.used_checkpoint);
  EXPECT_EQ(a.rollback_iteration, b.rollback_iteration);
  EXPECT_DOUBLE_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.final_hashes, b.final_hashes);
}

TEST(FaultPlan, NoFaultsDegeneratesToCleanRun) {
  auto preset = small_cluster(4);
  auto factory = microbench_factory(2, 80);
  ckpt::CkptConfig cc;
  cc.group_size = 2;
  RunResult clean = run_experiment(preset, factory, cc);
  auto rec = run_with_faults(preset, factory, cc, {}, FaultPlan{});
  EXPECT_EQ(rec.failures, 0);
  EXPECT_FALSE(rec.used_checkpoint);
  EXPECT_EQ(rec.final_hashes, clean.final_hashes);
  EXPECT_DOUBLE_EQ(rec.total_seconds, clean.completion_seconds());
}

TEST(FaultPlan, SecondFailureWithTierLosesMoreImages) {
  auto preset = small_cluster(8);
  preset.tier.enabled = true;
  preset.tier.replicate = true;
  preset.tier.drain_mbps = 0.0;  // images never reach the PFS
  auto factory = microbench_factory(4, 150);
  ckpt::CkptConfig cc;
  cc.group_size = 4;
  RunResult clean = run_experiment(preset, factory, cc);
  std::vector<CkptRequest> reqs;
  reqs.push_back(
      CkptRequest{sim::from_seconds(5), ckpt::Protocol::kGroupBased});

  // Node 1 dies, then — during the restarted attempt — its replica partner
  // dies too. With draining disabled the checkpoint is now unrecoverable
  // for rank 1, so the second recovery must degrade to a cold restart
  // while still reproducing the clean result.
  FaultPlan plan;
  plan.faults.push_back(FaultEvent{sim::from_seconds(12), 1});
  plan.faults.push_back(
      FaultEvent{sim::from_seconds(2), (1 + preset.tier.replica_offset) % 8});
  auto rec = run_with_faults(preset, factory, cc, reqs, plan);
  EXPECT_EQ(rec.failures, 2);
  EXPECT_GE(rec.checkpoints_skipped, 1);
  EXPECT_EQ(rec.final_hashes, clean.final_hashes);
}

// A fault planned after the job has finished never fires: the job
// completes in about 7 s, so a fault at 1000 s must not count as a failure,
// roll anything back or add its 1000 s to the time to solution.
TEST(FaultPlan, FaultAfterCompletionNeverFires) {
  auto preset = small_cluster(8);
  auto factory = microbench_factory(4, 50);
  ckpt::CkptConfig cc;
  cc.group_size = 4;
  std::vector<CkptRequest> reqs;
  reqs.push_back(
      CkptRequest{sim::from_seconds(2), ckpt::Protocol::kGroupBased});
  const auto undisturbed = run_with_faults(preset, factory, cc, reqs, {});

  FaultPlan plan;
  plan.faults.push_back(FaultEvent{sim::from_seconds(1000), 3});
  auto rec = run_with_faults(preset, factory, cc, reqs, plan);
  EXPECT_EQ(rec.failures, 0);
  EXPECT_FALSE(rec.used_checkpoint);
  EXPECT_EQ(rec.rollback_iteration, 0u);
  EXPECT_LT(undisturbed.total_seconds, 20.0);
  EXPECT_DOUBLE_EQ(rec.total_seconds, undisturbed.total_seconds);
  EXPECT_EQ(rec.final_hashes, undisturbed.final_hashes);
  EXPECT_EQ(rec.final_iterations, undisturbed.final_iterations);
}

// The same holds for a later attempt: the restart after the first fault
// finishes before the second fault's time, so only one fault counts and
// the outcome is the one-fault plan's.
TEST(FaultPlan, FaultAfterRestartCompletesIsNotCounted) {
  auto preset = small_cluster(8);
  auto factory = microbench_factory(4, 50);
  ckpt::CkptConfig cc;
  cc.group_size = 4;
  std::vector<CkptRequest> reqs;
  reqs.push_back(
      CkptRequest{sim::from_seconds(2), ckpt::Protocol::kGroupBased});
  FaultPlan one;
  one.faults.push_back(FaultEvent{sim::from_seconds(5), 1});
  const auto single = run_with_faults(preset, factory, cc, reqs, one);

  FaultPlan two = one;
  two.faults.push_back(FaultEvent{sim::from_seconds(1000), 6});
  auto rec = run_with_faults(preset, factory, cc, reqs, two);
  EXPECT_EQ(single.failures, 1);
  EXPECT_EQ(rec.failures, 1);
  EXPECT_EQ(rec.failure_at, sim::from_seconds(5));
  EXPECT_EQ(rec.used_checkpoint, single.used_checkpoint);
  EXPECT_EQ(rec.rollback_iteration, single.rollback_iteration);
  EXPECT_DOUBLE_EQ(rec.total_seconds, single.total_seconds);
  EXPECT_EQ(rec.final_hashes, single.final_hashes);
}

}  // namespace
}  // namespace gbc::harness
