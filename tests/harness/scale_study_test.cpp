// Witnesses for the group-size study at scale (bench/scale_groupsize): the
// full protocol stack on a sharded SimCluster, with the PFS grown the way the
// bench grows it (max(4, n/64) servers at 35 MB/s each).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/sweep.hpp"
#include "harness/thread_budget.hpp"
#include "net/topology.hpp"
#include "workloads/microbench.hpp"

namespace gbc::harness {
namespace {

struct ScalePoint {
  ClusterPreset preset;
  WorkloadFactory factory;
  ckpt::CkptConfig ckpt;
  std::vector<CkptRequest> requests;

  RunResult run() const {
    return run_experiment(preset, factory, ckpt, requests);
  }
};

ScalePoint scale_point(int nranks, const char* topology, int comm_group,
                       std::uint64_t iterations, double footprint_mib,
                       int ckpt_group, double issuance_ms) {
  ScalePoint p;
  p.preset = icpp07_cluster();
  p.preset.nranks = nranks;
  p.preset.net.topology = *net::parse_topology(topology);
  p.preset.storage.num_servers = std::max(4, nranks / 64);
  p.preset.storage.aggregate_cap_mbps = 35.0 * p.preset.storage.num_servers;
  workloads::CommGroupBenchConfig wcfg;
  wcfg.comm_group_size = comm_group;
  wcfg.iterations = iterations;
  wcfg.footprint_mib = footprint_mib;
  p.factory = [wcfg](int n) {
    return std::make_unique<workloads::CommGroupBench>(n, wcfg);
  };
  p.ckpt.group_size = ckpt_group;
  p.requests = {{sim::from_milliseconds(issuance_ms),
                 ckpt::Protocol::kGroupBased}};
  return p;
}

ScalePoint small_point() {
  return scale_point(64, "fat-tree:8", 8, 4, 4.0, 16, 200);
}

double total_seconds(const RunResult& r) {
  return sim::to_seconds(r.checkpoints.at(0).total_checkpoint_time());
}

double individual_seconds(const RunResult& r) {
  return sim::to_seconds(r.checkpoints.at(0).max_individual_time());
}

// Shard count only partitions the event set, it never changes the
// simulation. 7 shards makes the rank blocks uneven on purpose.
TEST(ScaleModel, StateInvariantAcrossShardCounts) {
  auto p = small_point();
  p.preset.shards = 1;
  p.preset.threads = 1;
  const auto serial = p.run();
  ASSERT_GT(serial.events_processed, 0u);
  ASSERT_EQ(serial.checkpoints.size(), 1u);
  for (int shards : {4, 7}) {
    p.preset.shards = shards;
    const auto r = p.run();
    EXPECT_EQ(r.state_digest(), serial.state_digest()) << shards << " shards";
    EXPECT_EQ(r.final_hashes, serial.final_hashes) << shards << " shards";
    EXPECT_EQ(r.completion, serial.completion) << shards << " shards";
    ASSERT_EQ(r.checkpoints.size(), 1u) << shards << " shards";
    EXPECT_EQ(r.checkpoints[0].total_checkpoint_time(),
              serial.checkpoints[0].total_checkpoint_time());
    EXPECT_EQ(r.checkpoints[0].max_individual_time(),
              serial.checkpoints[0].max_individual_time());
  }
}

TEST(ScaleModel, StateInvariantAcrossThreadCounts) {
  ThreadBudget::shared().set_capacity_for_test(4);
  auto p = small_point();
  p.preset.shards = 4;
  p.preset.threads = 1;
  const auto inline_run = p.run();
  p.preset.threads = 4;
  const auto threaded = p.run();
  ThreadBudget::shared().set_capacity_for_test(0);

  EXPECT_EQ(threaded.state_digest(), inline_run.state_digest());
  EXPECT_EQ(threaded.final_hashes, inline_run.final_hashes);
  EXPECT_EQ(threaded.completion, inline_run.completion);
  EXPECT_EQ(threaded.events_processed, inline_run.events_processed);
  ASSERT_EQ(threaded.checkpoints.size(), 1u);
  ASSERT_EQ(inline_run.checkpoints.size(), 1u);
  EXPECT_EQ(threaded.checkpoints[0].total_checkpoint_time(),
            inline_run.checkpoints[0].total_checkpoint_time());
}

TEST(ScaleModel, BaseRunHasNoCheckpointCost) {
  auto p = small_point();
  p.requests.clear();
  const auto r = p.run();
  EXPECT_GT(r.completion_seconds(), 0.0);
  EXPECT_TRUE(r.checkpoints.empty());
  EXPECT_EQ(r.storage_peak_concurrency, 0);
  for (auto it : r.final_iterations) EXPECT_EQ(it, 4u);
}

TEST(ScaleModel, CheckpointExtendsCompletion) {
  auto p = small_point();
  const auto requests = p.requests;
  p.requests.clear();
  const auto base = p.run();
  p.requests = requests;
  const auto ck = p.run();
  ASSERT_EQ(ck.checkpoints.size(), 1u);
  EXPECT_GT(ck.completion_seconds(), base.completion_seconds());
  EXPECT_GT(total_seconds(ck), 0.0);
  EXPECT_GT(individual_seconds(ck), 0.0);
  // Checkpointing changes when ranks finish, never what they compute.
  EXPECT_EQ(ck.final_hashes, base.final_hashes);
}

// A >= 4k-rank run of the full stack completes (shards > 1, fat-tree) in CI
// time. Sized small in sim-time, full size in rank count.
TEST(ScaleModel, FourThousandRankSmoke) {
  auto p = scale_point(4096, "fat-tree:32", 16, 2, 1.0, 1024, 50);
  p.preset.shards = 4;
  const auto r = p.run();
  EXPECT_GT(r.events_processed, 40000u);
  EXPECT_GT(r.completion_seconds(), 0.0);
  ASSERT_EQ(r.checkpoints.size(), 1u);
  EXPECT_EQ(r.checkpoints[0].plan.size(), 4);
  EXPECT_GT(total_seconds(r), 0.0);
  EXPECT_EQ(r.final_iterations.size(), 4096u);
  for (auto it : r.final_iterations) EXPECT_EQ(it, 2u);
}

// Sweep x shards composition: sharded points inside a sweep lease their
// shard workers from the same budget as the sweep pool, so the process never
// holds more helper threads than the capacity allows (pinned to 4 -> at most
// 3 leased at any instant), and every point still simulates the same run
// whatever width it was granted.
TEST(ScaleModel, SweepTimesShardsRespectsThreadBudget) {
  auto& budget = ThreadBudget::shared();
  budget.set_capacity_for_test(4);  // also resets the peak
  auto point = small_point();
  point.preset.shards = 4;

  SweepRunner runner(4);
  const auto runs = runner.map<RunResult>(3, [&](std::size_t) {
    ScalePoint p = point;
    p.preset.threads = budget.acquire(p.preset.shards);
    RunResult r = p.run();
    budget.release(p.preset.threads);
    return r;
  });
  const int peak = budget.peak_leased();
  const int leaked = budget.leased();
  budget.set_capacity_for_test(0);

  EXPECT_EQ(leaked, 0);
  EXPECT_LE(peak, 3);  // capacity - 1: the submitter's thread is free
  ASSERT_EQ(runs.size(), 3u);
  ASSERT_EQ(runs[0].checkpoints.size(), 1u);
  for (const RunResult& r : runs) {
    EXPECT_EQ(r.completion, runs[0].completion);
    EXPECT_EQ(r.state_digest(), runs[0].state_digest());
  }
}

}  // namespace
}  // namespace gbc::harness
