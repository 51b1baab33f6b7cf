// Full-stack runs under DES sharding: each MPI rank is a logical process on
// its home shard (matching, send pump, NIC state), with shard 0 hosting only
// the service LP (sim::LpBus, DESIGN.md §13). Every observable — completion
// time, per-rank state hashes, checkpoint history — must match the serial
// run exactly, including when checkpoint groups span shard boundaries, when
// rank counts don't divide evenly, and when FaultPlan replays several
// failures mid-run.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/recovery.hpp"
#include "harness/sim_cluster.hpp"
#include "sim/pool.hpp"
#include "workloads/microbench.hpp"

namespace gbc::harness {
namespace {

ClusterPreset sharded_cluster(int n, int shards, int threads) {
  ClusterPreset p = icpp07_cluster();
  p.nranks = n;
  p.shards = shards;
  p.threads = threads;
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

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_EQ(a.final_hashes, b.final_hashes);
  EXPECT_EQ(a.final_iterations, b.final_iterations);
  ASSERT_EQ(a.checkpoints.size(), b.checkpoints.size());
  for (std::size_t i = 0; i < a.checkpoints.size(); ++i) {
    EXPECT_EQ(a.checkpoints[i].requested_at, b.checkpoints[i].requested_at);
    EXPECT_EQ(a.checkpoints[i].completed_at, b.checkpoints[i].completed_at);
  }
}

TEST(ShardFullStack, GroupsSpanningShardBoundariesMatchSerial) {
  // 16 ranks over 4 shards = blocks of 4; comm groups of 8 and one global
  // checkpoint group both straddle every block boundary.
  auto factory = microbench_factory(8, 80);
  ckpt::CkptConfig cc;
  cc.group_size = 0;  // all ranks in one group
  std::vector<CkptRequest> reqs;
  reqs.push_back(CkptRequest{sim::from_seconds(3), ckpt::Protocol::kGroupBased});

  RunResult serial =
      run_experiment(sharded_cluster(16, 1, 1), factory, cc, reqs);
  RunResult sharded =
      run_experiment(sharded_cluster(16, 4, 2), factory, cc, reqs);
  expect_identical(serial, sharded);
  ASSERT_EQ(sharded.checkpoints.size(), 1u);
  EXPECT_GE(sharded.checkpoints[0].completed_at, 0);
}

TEST(ShardFullStack, NonPowerOfTwoRanksAndShardsMatchSerial) {
  // 13 ranks over 3 shards: uneven rank blocks (5/4/4 by the block map),
  // a comm group that wraps the remainder ranks, grouped checkpoints.
  auto factory = microbench_factory(5, 60);
  ckpt::CkptConfig cc;
  cc.group_size = 4;
  std::vector<CkptRequest> reqs;
  reqs.push_back(CkptRequest{sim::from_seconds(2), ckpt::Protocol::kGroupBased});

  RunResult serial =
      run_experiment(sharded_cluster(13, 1, 1), factory, cc, reqs);
  RunResult sharded =
      run_experiment(sharded_cluster(13, 3, 3), factory, cc, reqs);
  expect_identical(serial, sharded);
}

TEST(ShardFullStack, AllProtocolsMatchSerialUnderSharding) {
  auto factory = microbench_factory(4, 50);
  ckpt::CkptConfig cc;
  cc.group_size = 4;
  for (auto proto :
       {ckpt::Protocol::kGroupBased, ckpt::Protocol::kBlockingCoordinated,
        ckpt::Protocol::kChandyLamport}) {
    std::vector<CkptRequest> reqs;
    reqs.push_back(CkptRequest{sim::from_seconds(2), proto});
    RunResult serial =
        run_experiment(sharded_cluster(8, 1, 1), factory, cc, reqs);
    RunResult sharded =
        run_experiment(sharded_cluster(8, 8, 2), factory, cc, reqs);
    expect_identical(serial, sharded);
  }
}

TEST(ShardFullStack, FaultPlanMultiFailureReplayMatchesSerial) {
  // Two failures, recovery re-executions and all, under shards=4: the
  // replayed attempts run sharded too, so the recovered run must land on
  // the same final state as both the serial fault run and the clean run.
  auto factory = microbench_factory(4, 150);
  ckpt::CkptConfig cc;
  cc.group_size = 4;
  std::vector<CkptRequest> reqs;
  reqs.push_back(CkptRequest{sim::from_seconds(5), ckpt::Protocol::kGroupBased});

  FaultPlan plan;
  plan.faults.push_back(FaultEvent{sim::from_seconds(12), 1});
  plan.faults.push_back(FaultEvent{sim::from_seconds(4), 5});

  auto serial = run_with_faults(sharded_cluster(8, 1, 1), factory, cc, reqs,
                                plan);
  auto sharded = run_with_faults(sharded_cluster(8, 4, 2), factory, cc, reqs,
                                 plan);
  EXPECT_EQ(sharded.failures, 2);
  EXPECT_EQ(sharded.failures, serial.failures);
  EXPECT_EQ(sharded.used_checkpoint, serial.used_checkpoint);
  EXPECT_EQ(sharded.rollback_iteration, serial.rollback_iteration);
  EXPECT_DOUBLE_EQ(sharded.total_seconds, serial.total_seconds);
  EXPECT_EQ(sharded.final_hashes, serial.final_hashes);

  RunResult clean = run_experiment(sharded_cluster(8, 1, 1), factory, cc);
  EXPECT_EQ(sharded.final_hashes, clean.final_hashes);
}

// Runs `program(rank_ctx)` on every rank of an n-rank/S-shard cluster and
// returns each rank's completion time (per-rank slots, max-folded by the
// caller as needed).
template <typename Program>
std::vector<sim::Time> run_program(int n, int shards, int threads,
                                   Program program) {
  ClusterPreset p = sharded_cluster(n, shards, threads);
  SimCluster cluster(p);
  std::vector<sim::Time> done(n, -1);
  cluster.spawn_ranks([&](mpi::RankCtx& rank) {
    return [](Program* prog, mpi::RankCtx* rk,
              sim::Time* slot) -> sim::Task<void> {
      co_await (*prog)(*rk);
      *slot = rk->engine().now();
    }(&program, &rank, &done[rank.world_rank()]);
  });
  cluster.run();
  return done;
}

TEST(ShardFullStack, CrossShardWildcardRecvMatchesSerial) {
  // 8 ranks over 4 shards: rank 0 posts kAnySource/kAnyTag receives while
  // the senders live on three other shards. The wildcard match order is
  // arrival order at rank 0's LP, which the bus delivers canonically — so
  // the matched sources and the completion times must be shard-invariant.
  auto program = [](mpi::RankCtx& r) -> sim::Task<void> {
    const mpi::Comm& wc = r.mpi().world();
    const int n = wc.size();
    if (r.world_rank() == 0) {
      std::vector<int> sources;
      for (int i = 0; i < n - 1; ++i) {
        mpi::RecvInfo info =
            co_await r.recv(wc, mpi::kAnySource, mpi::kAnyTag);
        sources.push_back(info.source);
      }
      EXPECT_EQ(static_cast<int>(sources.size()), n - 1);
    } else {
      // Stagger sends so arrival order is a pure function of the model.
      co_await r.compute(r.world_rank() * sim::kMillisecond);
      co_await r.send(wc, 0, /*tag=*/r.world_rank(), 4 * storage::kKiB);
    }
  };
  std::vector<sim::Time> serial = run_program(8, 1, 1, program);
  std::vector<sim::Time> sharded = run_program(8, 4, 2, program);
  EXPECT_EQ(serial, sharded);
}

TEST(ShardFullStack, CrossShardRendezvousParkedRtsMatchesSerial) {
  // Rendezvous across a shard boundary with the RTS arriving *before* the
  // receive is posted: the RTS parks in the destination matcher (on the
  // destination rank's shard) until the late recv posts there, then the
  // CTS/RDMA/FIN exchange crosses shards again. Completion times must be
  // byte-identical to the serial run.
  const storage::Bytes big = 256 * storage::kKiB;  // >> eager_threshold
  auto program = [big](mpi::RankCtx& r) -> sim::Task<void> {
    const mpi::Comm& wc = r.mpi().world();
    const int n = wc.size();
    const int peer = r.world_rank() < n / 2 ? r.world_rank() + n / 2
                                            : r.world_rank() - n / 2;
    if (r.world_rank() < n / 2) {
      co_await r.send(wc, peer, 7, big);  // RTS leaves immediately
    } else {
      // Post the receive long after the RTS has been parked cross-shard.
      co_await r.compute(50 * sim::kMillisecond);
      mpi::RecvInfo info = co_await r.recv(wc, peer, 7);
      EXPECT_EQ(info.bytes, big);
      EXPECT_EQ(info.source, peer);
    }
  };
  std::vector<sim::Time> serial = run_program(8, 1, 1, program);
  std::vector<sim::Time> sharded = run_program(8, 4, 4, program);
  EXPECT_EQ(serial, sharded);

  // Non-divisible split of the same exchange: 6 ranks over 4 shards.
  std::vector<sim::Time> serial6 = run_program(6, 1, 1, program);
  std::vector<sim::Time> sharded6 = run_program(6, 4, 2, program);
  EXPECT_EQ(serial6, sharded6);
}

// Many open rendezvous per rank: message i of rank `src` in round `round`
// goes to src+3, src+4 or src+5 (mod 8) — another shard at both the 3- and
// the 4-shard layout — with its own size and tag.
constexpr int kSlotRanks = 8;
constexpr int kOpenPerRank = 12;
constexpr int kSlotRounds = 2;

int slot_dst(int src, int i) { return (src + 3 + i % 3) % kSlotRanks; }
int slot_src(int dst, int i) {
  return (dst + 2 * kSlotRanks - 3 - i % 3) % kSlotRanks;
}
mpi::Tag slot_tag(int round, int src, int i) {
  return 1000 * round + 100 * src + i;
}
storage::Bytes slot_bytes(int round, int src, int i) {
  return 64 * storage::kKiB +
         ((round * kSlotRanks + src) * kOpenPerRank + i) * storage::kKiB;
}

struct Got {
  int source;
  mpi::Tag tag;
  storage::Bytes bytes;
  bool operator==(const Got&) const = default;
};

// Every rank opens 12 rendezvous sends at once, then posts its 12 receives
// in reverse order: the first half before any RTS can arrive, the second
// after a compute phase long enough for their RTS to park as unexpected.
// Every fourth receive matches by kAnySource. Each rank appends its
// receives' RecvInfo, in message order, to its own slot of `got`.
auto slot_program(std::vector<std::vector<Got>>* got) {
  return [got](mpi::RankCtx& r) -> sim::Task<void> {
    const mpi::Comm& wc = r.mpi().world();
    const int me = r.world_rank();
    for (int round = 0; round < kSlotRounds; ++round) {
      std::vector<mpi::Request> sends;
      for (int i = 0; i < kOpenPerRank; ++i) {
        sends.push_back(r.isend(wc, slot_dst(me, i), slot_tag(round, me, i),
                                slot_bytes(round, me, i)));
      }
      std::vector<mpi::Request> recvs(kOpenPerRank);
      for (int i = kOpenPerRank - 1; i >= 0; --i) {
        if (i == kOpenPerRank / 2 - 1) {
          co_await r.compute(50 * sim::kMillisecond);
        }
        const int src = slot_src(me, i);
        recvs[i] = r.irecv(wc, i % 4 == 0 ? mpi::kAnySource : src,
                           slot_tag(round, src, i));
      }
      co_await r.wait_all(recvs);
      for (const mpi::Request& req : recvs) {
        (*got)[me].push_back(
            Got{req->info.source, req->info.tag, req->info.bytes});
      }
      co_await r.wait_all(sends);
    }
  };
}

TEST(ShardFullStack, ManyOpenRendezvousReuseSlotsMatchSerial) {
  // Up to 24 rendezvous requests per rank are open at once (12 sends
  // awaiting FIN, 12 receives awaiting data), and the second round reuses
  // the slots the first one freed. A request found under the wrong slot
  // completes the wrong receive, so every RecvInfo is checked, and the
  // completion times must match the serial run.
  std::vector<Got> want_per_rank[kSlotRanks];
  for (int me = 0; me < kSlotRanks; ++me) {
    for (int round = 0; round < kSlotRounds; ++round) {
      for (int i = 0; i < kOpenPerRank; ++i) {
        const int src = slot_src(me, i);
        want_per_rank[me].push_back(
            Got{src, slot_tag(round, src, i), slot_bytes(round, src, i)});
      }
    }
  }
  std::vector<std::vector<Got>> got_serial(kSlotRanks);
  std::vector<std::vector<Got>> got_3x2(kSlotRanks);
  std::vector<std::vector<Got>> got_4x4(kSlotRanks);
  const std::vector<sim::Time> serial =
      run_program(kSlotRanks, 1, 1, slot_program(&got_serial));
  const std::vector<sim::Time> sharded_3x2 =
      run_program(kSlotRanks, 3, 2, slot_program(&got_3x2));
  const std::vector<sim::Time> sharded_4x4 =
      run_program(kSlotRanks, 4, 4, slot_program(&got_4x4));
  for (int me = 0; me < kSlotRanks; ++me) {
    EXPECT_EQ(got_serial[me], want_per_rank[me]) << "rank " << me;
    EXPECT_EQ(got_3x2[me], want_per_rank[me]) << "rank " << me;
    EXPECT_EQ(got_4x4[me], want_per_rank[me]) << "rank " << me;
    EXPECT_GT(serial[me], 0) << "rank " << me;
  }
  EXPECT_EQ(sharded_3x2, serial);
  EXPECT_EQ(sharded_4x4, serial);
}

TEST(ShardFullStack, PooledFlightPathRecyclesUnderSharding) {
  // The sharded wire path must stay zero-allocation in steady state:
  // in-flight packets ride pooled FlightRecs, and records freed on the
  // destination's shard return home via the per-shard return stacks. With
  // the pools live (not in ASan passthrough) a traffic-heavy sharded run
  // must serve the bulk of its flights from recycled storage.
  ClusterPreset p = sharded_cluster(8, 4, 2);
  SimCluster cluster(p);
  std::unique_ptr<workloads::Workload> wl =
      microbench_factory(4, 120)(p.nranks);
  wl->setup(cluster.mpi());
  cluster.spawn_ranks([&](mpi::RankCtx& rank) {
    return wl->run_rank(rank, {});
  });
  cluster.run();

  const std::int64_t packets = cluster.fabric().packets_sent();
  EXPECT_GT(packets, 1000);
#if !GBC_POOLS_PASSTHROUGH
  // Far more packets than pool capacity flowed: recycling must dominate.
  EXPECT_GT(cluster.fabric().flight_recs_reused(),
            static_cast<std::uint64_t>(packets) / 2);
#endif
  // ~SimCluster/~Fabric sweep the return stacks; the pool destructors
  // assert no record leaked.
}

TEST(ShardFullStack, ShardCountOutsideRankRangeIsRejected) {
  auto factory = microbench_factory(2, 10);
  ckpt::CkptConfig cc;
  EXPECT_THROW(run_experiment(sharded_cluster(4, 5, 1), factory, cc),
               std::invalid_argument);
  EXPECT_THROW(run_experiment(sharded_cluster(4, 0, 1), factory, cc),
               std::invalid_argument);
}

}  // namespace
}  // namespace gbc::harness
