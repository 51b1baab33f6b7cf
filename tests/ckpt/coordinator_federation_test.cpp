// Coordinator federation (DESIGN.md §15): the group-based cycle runs as a
// federation of LPs — a thin root on the service LP that only sequences
// groups and commits the ledger, plus one coordinator LP per group (the
// home LP of the group's lowest rank) running that group's phase machine.
// Three properties pin the decomposition down:
//
//  1. the inter-group schedule is identical to the monolithic (--shards 1)
//     run at any shard/thread layout, including non-divisible rank blocks;
//  2. a group whose coordinator's node dies right after the dispatch
//     reaches it is recovered by the root LP running that group itself,
//     and the cycle still completes for every rank;
//  3. the LpBus settle buckets, fed both at send time (same shard) and at
//     the round barrier (from another shard's outbox), preserve canonical
//     (origin, sequence) delivery order under a randomized send/RPC
//     interleaving stress.
#include <gtest/gtest.h>

#include <utility>
#include <vector>
#include <random>

#include "ckpt/checkpoint.hpp"
#include "harness/preset.hpp"
#include "harness/sim_cluster.hpp"
#include "sim/lp_bus.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace gbc::ckpt {
namespace {

harness::ClusterPreset sharded_preset(int n, int shards, int threads) {
  harness::ClusterPreset p = harness::icpp07_cluster();
  p.nranks = n;
  p.shards = shards;
  p.threads = threads;
  return p;
}

/// Long chunked compute so ranks are busy (but responsive) while the cycle
/// runs — same shape as checkpoint_test.cpp's computer.
sim::Task<void> computer(mpi::RankCtx* r, sim::Time total) {
  const sim::Time chunk = 100 * sim::kMillisecond;
  for (sim::Time left = total; left > 0;) {
    const sim::Time step = left < chunk ? left : chunk;
    co_await r->compute(step);
    left -= step;
  }
}

/// One group-based cycle over n computing ranks at the given layout.
/// fail_coord >= 0 arms the one-shot coordinator-failure hook for that
/// rank's coordinator LP before the cycle starts.
GlobalCheckpoint run_cycle(int n, int shards, int threads, int group_size,
                           int fail_coord = -1) {
  CkptConfig cc;
  cc.group_size = group_size;
  harness::SimCluster cluster(sharded_preset(n, shards, threads), cc);
  if (fail_coord >= 0) {
    cluster.checkpoints().fail_coordinator_once(fail_coord);
  }
  cluster.checkpoints().request_at(sim::from_seconds(1),
                                   Protocol::kGroupBased);
  cluster.spawn_ranks([&](mpi::RankCtx& r) {
    return computer(&r, sim::from_seconds(120));
  });
  cluster.run();
  const auto& hist = cluster.checkpoints().history();
  EXPECT_EQ(hist.size(), 1u);
  return hist.empty() ? GlobalCheckpoint{} : hist.front();
}

/// Groups must finish strictly one after another, in plan order.
void expect_sequential(const GlobalCheckpoint& gc) {
  sim::Time prev_end = -1;
  for (const auto& group : gc.plan.groups) {
    sim::Time begin = sim::from_seconds(1e12), end = 0;
    for (int m : group) {
      begin = std::min(begin, gc.snapshots[m].freeze_begin);
      end = std::max(end, gc.snapshots[m].resume_at);
    }
    EXPECT_LE(prev_end, begin + sim::kMillisecond);
    prev_end = end;
  }
}

void expect_same_schedule(const GlobalCheckpoint& a,
                          const GlobalCheckpoint& b) {
  ASSERT_EQ(a.plan.groups, b.plan.groups);
  ASSERT_EQ(a.snapshots.size(), b.snapshots.size());
  EXPECT_EQ(a.completed_at, b.completed_at);
  for (std::size_t r = 0; r < a.snapshots.size(); ++r) {
    EXPECT_EQ(a.snapshots[r].freeze_begin, b.snapshots[r].freeze_begin)
        << "rank " << r;
    EXPECT_EQ(a.snapshots[r].taken_at, b.snapshots[r].taken_at)
        << "rank " << r;
    EXPECT_EQ(a.snapshots[r].resume_at, b.snapshots[r].resume_at)
        << "rank " << r;
  }
}

TEST(CoordinatorFederation, InterGroupSequencingMatchesMonolithicOrder) {
  // 16 ranks in 4 groups: coordinators anchor at ranks 0/4/8/12, which land
  // on different shards at S=4 and straddle block boundaries at S=3 (blocks
  // of 6/5/5). The dispatched schedule must be time-identical to the
  // monolithic run, not merely "some valid order".
  const GlobalCheckpoint mono = run_cycle(16, 1, 1, 4);
  const GlobalCheckpoint four = run_cycle(16, 4, 4, 4);
  const GlobalCheckpoint three = run_cycle(16, 3, 3, 4);
  ASSERT_EQ(mono.plan.size(), 4);
  expect_sequential(mono);
  expect_same_schedule(mono, four);
  expect_same_schedule(mono, three);
}

TEST(CoordinatorFederation, DeadCoordinatorIsRecoveredByRootLp) {
  // Rank 4 anchors group {4..7}'s coordinator and lives on shard 1 at
  // S=4 — the hook kills it right after the root's dispatch reaches it,
  // before any member is touched. The root must detect the abandoned
  // dispatch and run the group's phase machine itself; every rank still
  // gets a snapshot and the groups still run strictly in plan order.
  const GlobalCheckpoint clean = run_cycle(16, 4, 2, 4);
  const GlobalCheckpoint failed = run_cycle(16, 4, 2, 4, /*fail_coord=*/4);
  ASSERT_EQ(failed.plan.groups, clean.plan.groups);
  ASSERT_EQ(failed.snapshots.size(), 16u);
  EXPECT_GT(failed.completed_at, failed.requested_at);
  for (int r = 0; r < 16; ++r) {
    EXPECT_GE(failed.snapshots[r].taken_at, 0) << "rank " << r;
    EXPECT_GE(failed.snapshots[r].freeze_begin, 0) << "rank " << r;
    EXPECT_GT(failed.snapshots[r].resume_at,
              failed.snapshots[r].freeze_begin)
        << "rank " << r;
  }
  expect_sequential(failed);
  // Groups before the dead coordinator's are untouched by the recovery:
  // their schedule matches the clean cycle exactly.
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(failed.snapshots[r].freeze_begin,
              clean.snapshots[r].freeze_begin)
        << "rank " << r;
    EXPECT_EQ(failed.snapshots[r].resume_at, clean.snapshots[r].resume_at)
        << "rank " << r;
  }
}

// --- same-shard fast-path ordering stress -------------------------------

/// Per-destination delivery log: (origin, origin-local sequence) in the
/// order the bus executed the deliveries at that LP.
using DeliveryLog = std::vector<std::vector<std::pair<int, int>>>;

sim::Task<void> record_rpc(DeliveryLog* log, int dst, int origin, int seq) {
  (*log)[dst].push_back({origin, seq});
  co_return;
}

/// Each rank fires a seeded-random mix of one-way bus sends and bus RPCs at
/// random destinations, biased so half the traffic targets a same-shard
/// partner — forcing same-shard (pushed into the settle bucket at send
/// time) and cross-shard (moved there from the bus's outbox at the round
/// barrier) deliveries to interleave at every receiver —
/// with random compute gaps so bucket boundaries shift between ops.
sim::Task<void> stress_rank(mpi::RankCtx* r, sim::LpBus* bus,
                            DeliveryLog* log, int n) {
  const int me = r->world_rank();
  // Partner under the 4-shard block map (shard = rank*4/n) — chosen from a
  // *fixed* reference layout so every run executes the identical program
  // regardless of its actual shard count. At S=4 the partner is genuinely
  // same-shard (the fast path); at other layouts the same pair may cross
  // shards, and the delivery order must not care.
  int mate = me;
  for (int p = 0; p < n; ++p) {
    if (p != me && p * 4 / n == me * 4 / n) {
      mate = p;
      break;
    }
  }
  std::mt19937 rng(0x9e3779b9u + static_cast<unsigned>(me) * 1000003u);
  std::uniform_int_distribution<int> pick_dst(0, n - 1);
  std::uniform_int_distribution<int> pick_op(0, 3);
  std::uniform_int_distribution<int> pick_gap(0, 400);
  int seq = 0;
  for (int i = 0; i < 200; ++i) {
    const int op = pick_op(rng);
    const int dst = (op == 0 || op == 2) ? mate : pick_dst(rng);
    const int s = seq++;
    if (op < 2) {
      co_await bus->call(me, dst, [log, dst, me, s] {
        return record_rpc(log, dst, me, s);
      });
    } else {
      bus->send(me, dst,
                [log, dst, me, s] { (*log)[dst].push_back({me, s}); });
    }
    if (const int gap = pick_gap(rng); gap > 0) {
      co_await r->compute(gap * sim::kMicrosecond);
    }
  }
}

DeliveryLog run_stress(int n, int shards, int threads) {
  harness::SimCluster cluster(sharded_preset(n, shards, threads));
  DeliveryLog log(static_cast<std::size_t>(n));
  cluster.spawn_ranks([&](mpi::RankCtx& r) {
    return stress_rank(&r, &cluster.bus(), &log, n);
  });
  cluster.run();
  return log;
}

TEST(CoordinatorFederation, SameShardFastPathKeepsCanonicalOrderUnderStress) {
  const int n = 8;
  const DeliveryLog serial = run_stress(n, 1, 1);
  // Every delivery arrived, and per (destination, origin) the origin-local
  // sequence is strictly increasing: the fast path never reorders one
  // sender's stream.
  std::size_t total = 0;
  for (int dst = 0; dst < n; ++dst) {
    total += serial[dst].size();
    std::vector<int> last(n, -1);
    for (const auto& [origin, seq] : serial[dst]) {
      EXPECT_GT(seq, last[origin]) << "dst " << dst << " origin " << origin;
      last[origin] = seq;
    }
  }
  EXPECT_EQ(total, static_cast<std::size_t>(n) * 200);

  // And the full interleaving — not just per-origin order — is identical
  // to the serial run at both an even (4x2-rank) and a non-divisible
  // (3-shard) layout, multi-threaded.
  EXPECT_EQ(serial, run_stress(n, 4, 4));
  EXPECT_EQ(serial, run_stress(n, 3, 3));
}

}  // namespace
}  // namespace gbc::ckpt
