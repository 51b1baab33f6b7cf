// Property-based tests: randomized (but fully deterministic, seed-driven)
// workloads and checkpoint schedules, validated against the invariants that
// make group-based checkpointing correct:
//
//  P1. Recovery-line consistency: no message crosses any cycle's line in one
//      direction only (no orphans, no lost in-transit messages).
//  P2. Restart equivalence: recovering from any checkpoint reproduces the
//      uninterrupted run's final state bit-for-bit.
//  P3. Buffer conservation: after the run drains, no bytes remain parked.
//  P4. Metric sanity: Individual <= Total per cycle, storage dominates.
//  P5. Group plans are partitions of the ranks for arbitrary traffic.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ckpt/consistency.hpp"
#include "ckpt/group_formation.hpp"
#include "harness/recovery.hpp"
#include "harness/sim_cluster.hpp"
#include "sim/random.hpp"
#include "workloads/workload.hpp"

namespace gbc {
namespace {

using harness::CkptRequest;
using harness::ClusterPreset;
using harness::RunResult;

/// Deterministic chaos workload: every iteration each rank computes a random
/// slice, then exchanges a random-size message with an XOR-partner that
/// changes per iteration, and occasionally the whole world allreduces.
/// n must be a power of two so the XOR pairing is a perfect matching.
class ChaosWorkload : public workloads::Workload {
 public:
  ChaosWorkload(int nranks, std::uint64_t seed, std::uint64_t iters)
      : Workload(nranks), seed_(seed), iters_(iters) {
    for (int r = 0; r < nranks; ++r) {
      set_footprint(r, storage::mib(40.0 + (seed % 50)));
    }
  }

  using Workload::run_rank;
  sim::Task<void> run_rank(mpi::RankCtx& r,
                           workloads::WorkloadState from) override {
    const int me = r.world_rank();
    set_state(me, from);
    const mpi::Comm& wc = r.mpi().world();
    const int n = r.nranks();
    for (std::uint64_t it = from.iteration; it < iters_; ++it) {
      sim::Rng iter_rng = sim::Rng(seed_).fork(it);
      sim::Rng rank_rng = sim::Rng(seed_).fork(it * 131071 + me);
      co_await r.compute(
          sim::from_milliseconds(rank_rng.uniform(20.0, 160.0)));
      const std::uint64_t mode = iter_rng.next_u64() % 8;
      if (mode == 0) {
        // Global synchronization.
        (void)co_await r.allreduce(wc, mpi::Op::kSum, mpi::vec(1.0));
      } else {
        const int partner =
            me ^ static_cast<int>(1 + iter_rng.next_u64() % (n - 1));
        // Mix eager and rendezvous sizes.
        const storage::Bytes bytes =
            iter_rng.next_u64() % 2 == 0 ? 2048 : storage::mib(1);
        (void)co_await r.sendrecv(wc, partner, static_cast<mpi::Tag>(it),
                                  bytes, nullptr, partner,
                                  static_cast<mpi::Tag>(it));
      }
      commit_iteration(me, (static_cast<std::uint64_t>(me) << 32) | it);
    }
  }

 private:
  std::uint64_t seed_;
  std::uint64_t iters_;
};

ClusterPreset chaos_cluster(int n) {
  ClusterPreset p = harness::icpp07_cluster();
  p.nranks = n;
  p.mpi.record_messages = true;
  return p;
}

harness::WorkloadFactory chaos_factory(std::uint64_t seed,
                                       std::uint64_t iters) {
  return [seed, iters](int n) {
    return std::make_unique<ChaosWorkload>(n, seed, iters);
  };
}

// ---------------------------------------------------------------------------
// P1 + P3 + P4: consistency, buffer conservation, metric sanity across a
// randomized sweep of seeds and group sizes.
// ---------------------------------------------------------------------------

// gtest prints each parameter's raw bytes into its ctest name, so the
// struct must have no padding: padding bytes are left uninitialized and
// would make the names differ from build to build.
struct SweepCase {
  std::uint64_t seed;
  std::int64_t group_size;
};
static_assert(sizeof(SweepCase) == 16, "SweepCase must have no padding");

class ConsistencySweep : public ::testing::TestWithParam<SweepCase> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConsistencySweep,
    ::testing::Values(SweepCase{1, 1}, SweepCase{2, 2}, SweepCase{3, 4},
                      SweepCase{4, 2}, SweepCase{5, 4}, SweepCase{6, 1},
                      SweepCase{7, 3}, SweepCase{8, 2}, SweepCase{9, 4},
                      SweepCase{10, 3}, SweepCase{11, 8}, SweepCase{12, 8}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_g" +
             std::to_string(info.param.group_size);
    });

TEST_P(ConsistencySweep, RecoveryLinesAreConsistentAndBuffersDrain) {
  const auto param = GetParam();
  auto preset = chaos_cluster(8);
  ckpt::CkptConfig cc;
  cc.group_size = static_cast<int>(param.group_size);
  // Checkpoint times scattered through the run, derived from the seed.
  sim::Rng rng(param.seed * 7919);
  std::vector<CkptRequest> reqs;
  for (int i = 0; i < 2; ++i) {
    reqs.push_back(CkptRequest{
        sim::from_seconds(1.0 + rng.uniform(0.0, 5.0) + i * 15.0),
        ckpt::Protocol::kGroupBased});
  }
  RunResult res = harness::run_experiment(
      preset, chaos_factory(param.seed, 220), cc, reqs);

  ASSERT_EQ(res.checkpoints.size(), 2u);
  // (P1, the recovery-line check against the message trace, runs in the
  // MessageTraceNeverCrossesALine variant below, which drives the world
  // directly and therefore has access to the per-run message records.)
  // P4: metric sanity.
  for (const auto& gc : res.checkpoints) {
    EXPECT_LE(gc.max_individual_time(), gc.total_checkpoint_time());
    EXPECT_GT(gc.storage_fraction(), 0.5);
    EXPECT_LE(gc.storage_fraction(), 1.0);
    for (const auto& s : gc.snapshots) {
      EXPECT_GE(s.freeze_begin, gc.requested_at);
      EXPECT_GE(s.taken_at, s.freeze_begin);
      EXPECT_GE(s.resume_at, s.taken_at);
      EXPECT_LE(s.resume_at, gc.completed_at);
      EXPECT_GT(s.image_bytes, 0);
    }
  }
  // All ranks completed every iteration.
  for (auto it : res.final_iterations) EXPECT_EQ(it, 220u);
}

// The consistency check needs access to the run's message records, so this
// variant drives the world directly instead of via run_experiment.
TEST_P(ConsistencySweep, MessageTraceNeverCrossesALine) {
  const auto param = GetParam();
  harness::ClusterPreset preset;
  preset.nranks = 8;
  preset.mpi.record_messages = true;
  ckpt::CkptConfig cc;
  cc.group_size = static_cast<int>(param.group_size);
  harness::SimCluster cluster(preset, cc);
  sim::Engine& eng = cluster.engine();
  mpi::MiniMPI& mpi = cluster.mpi();
  ckpt::CheckpointService& svc = cluster.checkpoints();
  ChaosWorkload wl(8, param.seed, 220);
  wl.attach(svc);
  sim::Rng rng(param.seed * 104729);
  svc.request_at(sim::from_seconds(1.0 + rng.uniform(0.0, 6.0)),
                 ckpt::Protocol::kGroupBased);
  svc.request_at(sim::from_seconds(18.0 + rng.uniform(0.0, 6.0)),
                 ckpt::Protocol::kGroupBased);
  for (int r = 0; r < 8; ++r) eng.spawn(wl.run_rank(mpi.rank(r)));
  eng.run();

  ASSERT_EQ(svc.history().size(), 2u);
  for (const auto& gc : svc.history()) {
    auto report = ckpt::check_recovery_line(mpi.message_records(), gc);
    EXPECT_GT(report.checked, 50);
    EXPECT_EQ(report.violations, 0)
        << "seed=" << param.seed << " g=" << param.group_size << ": "
        << (report.details.empty() ? "" : report.details.front());
  }
  // P3: per-rank message buffers fully drained.
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(mpi.rank(r).message_buffer_bytes(), 0) << "rank " << r;
  }
}

// ---------------------------------------------------------------------------
// P2: restart equivalence across random failure points.
// ---------------------------------------------------------------------------

class RestartSweep : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RestartSweep,
                         ::testing::Values(21, 22, 23, 24, 25, 26));

TEST_P(RestartSweep, RecoveredRunMatchesCleanRunExactly) {
  const std::uint64_t seed = GetParam();
  auto preset = chaos_cluster(8);
  auto factory = chaos_factory(seed, 160);
  ckpt::CkptConfig cc;
  cc.group_size = static_cast<int>(1 + seed % 4);

  RunResult clean = harness::run_experiment(preset, factory, cc);
  sim::Rng rng(seed * 31337);
  const double ckpt_at = 2.0 + rng.uniform(0.0, 4.0);
  const double fail_at =
      clean.completion_seconds() * (0.55 + rng.uniform(0.0, 0.35));
  std::vector<CkptRequest> reqs;
  reqs.push_back(CkptRequest{sim::from_seconds(ckpt_at),
                             ckpt::Protocol::kGroupBased});
  auto rec = harness::run_with_failure(preset, factory, cc, reqs,
                                       sim::from_seconds(fail_at));
  EXPECT_EQ(rec.final_hashes, clean.final_hashes) << "seed " << seed;
  EXPECT_EQ(rec.final_iterations, clean.final_iterations);
}

// ---------------------------------------------------------------------------
// P5: dynamic group plans are partitions for arbitrary traffic matrices.
// ---------------------------------------------------------------------------

class PlanSweep : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, PlanSweep,
                         ::testing::Values(31, 32, 33, 34, 35, 36, 37, 38));

TEST_P(PlanSweep, DynamicPlanIsAlwaysAPartition) {
  const std::uint64_t seed = GetParam();
  sim::Rng rng(seed);
  const int n = static_cast<int>(4 + rng.next_u64() % 29);  // 4..32
  std::vector<std::int64_t> traffic(static_cast<std::size_t>(n) * n, 0);
  const int edges = static_cast<int>(rng.next_u64() % (n * 2));
  for (int e = 0; e < edges; ++e) {
    int a = static_cast<int>(rng.next_u64() % n);
    int b = static_cast<int>(rng.next_u64() % n);
    if (a == b) continue;
    auto bytes = static_cast<std::int64_t>(rng.next_u64() % (1 << 22));
    traffic[static_cast<std::size_t>(a) * n + b] += bytes;
    traffic[static_cast<std::size_t>(b) * n + a] += bytes;
  }
  const int max_group = static_cast<int>(1 + rng.next_u64() % 8);
  auto plan = ckpt::dynamic_plan(traffic, n, max_group);
  std::vector<int> seen(n, 0);
  for (const auto& g : plan.groups) {
    EXPECT_FALSE(g.empty());
    if (plan.used_dynamic) {
      EXPECT_LE(static_cast<int>(g.size()), max_group);
    }
    for (int m : g) {
      ASSERT_GE(m, 0);
      ASSERT_LT(m, n);
      ++seen[m];
    }
  }
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(seen[r], 1) << "rank " << r << " seed " << seed;
  }
}

}  // namespace
}  // namespace gbc
