#include "sim/shard_engine.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/lp_bus.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace gbc::sim {
namespace {

// A single-shard ShardedEngine is exactly the serial engine: same events,
// same order.
TEST(ShardedEngine, SingleShardMatchesSerialEngine) {
  auto script = [](Engine& eng, std::vector<int>& log) {
    eng.schedule_at(5, [&] { log.push_back(1); });
    eng.schedule_at(5, [&] { log.push_back(2); });  // FIFO at equal t
    eng.schedule_at(2, [&eng, &log] {
      log.push_back(0);
      eng.schedule_at(7, [&log] { log.push_back(3); });
    });
  };

  Engine serial;
  std::vector<int> serial_log;
  script(serial, serial_log);
  serial.run();

  ShardedEngine::Options opts;
  opts.shards = 1;
  ShardedEngine se(opts);
  std::vector<int> sharded_log;
  script(se.shard(0), sharded_log);
  se.run();

  EXPECT_EQ(serial_log, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sharded_log, serial_log);
}

// Cross-shard traffic rides an LpBus with one LP per shard (LP s lives on
// shard s) and a floor equal to the engine's lookahead.
ShardedEngine::Options sharded(int shards, Time lookahead, int threads = 1) {
  ShardedEngine::Options opts;
  opts.shards = shards;
  opts.lookahead = lookahead;
  opts.threads = threads;
  return opts;
}

// Messages from one source must arrive at the destination in send
// (sequence) order even when they carry the same timestamp, and same-time
// messages from different sources deliver in origin order — the settle
// sweep's (dst, origin, oseq) key.
TEST(ShardedEngine, SameTimeCrossPostsMergeBySrcThenSeq) {
  // LP 0 sends at now=1 for t=10, so the floor may be at most 9.
  ShardedEngine se(sharded(3, 9));
  LpBus bus(se, 3, 9);
  std::vector<std::string> dst_log;  // only shard 2 appends

  // Both sends from LP 1 are issued before LP 0's (shard 1's seed event
  // fires first), yet LP 0's message must still deliver first.
  se.shard(1).schedule_at(0, [&] {
    bus.send_at(1, 2, 10, [&dst_log] { dst_log.push_back("s1:a"); });
    bus.send_at(1, 2, 10, [&dst_log] { dst_log.push_back("s1:b"); });
  });
  se.shard(0).schedule_at(1, [&] {
    bus.send_at(0, 2, 10, [&dst_log] { dst_log.push_back("s0:a"); });
  });
  se.run();

  EXPECT_EQ(dst_log, (std::vector<std::string>{"s0:a", "s1:a", "s1:b"}));
}

// The conservative horizons assume every cross-shard message takes at
// least the lookahead, so a bus whose floor is shorter is refused.
TEST(ShardedEngine, BusFloorBelowLookaheadIsRejected) {
  ShardedEngine se(sharded(2, 10));
  EXPECT_THROW(LpBus(se, 2, 9), std::invalid_argument);
  LpBus at_floor(se, 2, 10);
  EXPECT_EQ(at_floor.floor(), 10);
}

// Ring of cross-shard hops. The per-shard delivery logs — and the window
// count — must be identical whether the shards run inline on one thread or
// on one thread each. (Each log is appended only by its own shard, so the
// logs are race-free even in the threaded run.)
struct ChainCtx {
  LpBus* bus = nullptr;
  std::vector<std::vector<int>> logs;
};

void hop(ChainCtx* c, int s, int n) {
  c->logs[static_cast<std::size_t>(s)].push_back(n);
  if (n == 0) return;
  const int dst = (s + 1) % c->bus->shards();
  c->bus->send(s, dst, [c, dst, n] { hop(c, dst, n - 1); });
}

ChainCtx run_ring(int threads) {
  ShardedEngine se(sharded(4, 7, threads));
  LpBus bus(se, 4, 7);
  ChainCtx ctx;
  ctx.bus = &bus;
  ctx.logs.resize(4);
  for (int s = 0; s < 4; ++s) {
    se.shard(s).schedule_at(s, [&ctx, s] { hop(&ctx, s, 40); });
  }
  se.run();
  ctx.bus = nullptr;
  return ctx;
}

TEST(ShardedEngine, RingDeliveryIndependentOfThreadCount) {
  const ChainCtx serial = run_ring(1);
  const ChainCtx threaded = run_ring(4);
  EXPECT_EQ(serial.logs, threaded.logs);
  // 4 chains x 41 hops, distributed round-robin over the ring.
  std::size_t total = 0;
  for (const auto& l : serial.logs) total += l.size();
  EXPECT_EQ(total, 4u * 41u);
}

TEST(ShardedEngine, WindowsCountMergesOnlyAndStatsAccount) {
  ShardedEngine se(sharded(2, 5));
  LpBus bus(se, 2, 5);
  int delivered = 0;
  se.shard(0).schedule_at(0, [&] {
    bus.send(0, 1, [&] {
      ++delivered;
      bus.send(1, 0, [&] { ++delivered; });
    });
  });
  se.run();
  EXPECT_EQ(delivered, 2);
  // Exactly two cross-shard messages were exchanged, in two different
  // rounds, so exactly two windows — rounds without traffic fuse and are
  // never counted as windows.
  EXPECT_EQ(se.windows(), 2u);
  EXPECT_GE(se.rounds(), se.windows());
  EXPECT_EQ(se.cross_events(), 2u);
  EXPECT_EQ(se.total_events(),
            se.stats(0).events + se.stats(1).events);
}

// Shard-local workloads never merge: a run with zero cross-shard posts is
// zero windows no matter how many events or how far apart they sit. Every
// shard holds the same three event times, so each round runs all of them
// to the next time: one round per distinct event time.
TEST(ShardedEngine, LocalOnlyWorkloadFusesToZeroWindows) {
  ShardedEngine::Options opts;
  opts.shards = 3;
  opts.lookahead = 2;
  ShardedEngine se(opts);
  int fired = 0;
  for (int s = 0; s < 3; ++s) {
    for (Time t : {Time{0}, Time{1000}, Time{50000}}) {
      se.shard(s).schedule_at(t, [&] { ++fired; });
    }
  }
  se.run();
  EXPECT_EQ(fired, 9);
  EXPECT_EQ(se.windows(), 0u);
  EXPECT_EQ(se.cross_events(), 0u);
  EXPECT_EQ(se.rounds(), 3u);
}

// The self-round-trip term of the horizon: with shard 1 idle, shard 0 is
// bounded only by its own shortest cycle, 2L = 10. Its events at 0 and 7
// share the first round and 12 takes the second. A one-hop bound (L) would
// split 0 | 7 | 12 into three rounds; no bound at all would take one.
TEST(ShardedEngine, IdlePeerBoundsShardByItsRoundTrip) {
  ShardedEngine::Options opts;
  opts.shards = 2;
  opts.lookahead = 5;
  ShardedEngine se(opts);
  std::vector<Time> fired;
  for (Time t : {Time{0}, Time{7}, Time{12}}) {
    se.shard(0).schedule_at(t, [&] { fired.push_back(se.shard(0).now()); });
  }
  se.run();
  EXPECT_EQ(fired, (std::vector<Time>{0, 7, 12}));
  EXPECT_EQ(se.rounds(), 2u);
  EXPECT_EQ(se.windows(), 0u);
}

// LPs 0-2 send 600 same-time messages each to LP 3 in one round, in
// parallel at threads = 4. LP 3 must see them in (origin, oseq) order —
// every send of LP 0, then 1, then 2, each in send order — exactly as the
// inline threads = 1 run does.
std::vector<std::pair<int, int>> fan_in_log(int threads) {
  constexpr int kPosts = 600;
  ShardedEngine se(sharded(4, 10, threads));
  LpBus bus(se, 4, 10);
  std::vector<std::pair<int, int>> log;  // appended only by shard 3
  for (int s = 0; s < 3; ++s) {
    se.shard(s).schedule_at(0, [&bus, &log, s] {
      for (int i = 0; i < kPosts; ++i) {
        bus.send(s, 3, [&log, s, i] { log.emplace_back(s, i); });
      }
    });
  }
  se.run();
  EXPECT_EQ(se.cross_events(), 3u * kPosts);
  EXPECT_EQ(se.windows(), 1u);
  return log;
}

TEST(ShardedEngine, ParallelFanInMergesBySrcThenSeq) {
  const auto threaded = fan_in_log(4);
  std::vector<std::pair<int, int>> expected;
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 600; ++i) expected.emplace_back(s, i);
  }
  EXPECT_EQ(threaded, expected);
  EXPECT_EQ(threaded, fan_in_log(1));
}

// run_until stops at the cap, leaves later work pending, advances every
// shard clock to the cap, and a follow-up run() finishes the job.
TEST(ShardedEngine, RunUntilCapsAndResumesAcrossShards) {
  ShardedEngine se(sharded(2, 4));
  LpBus bus(se, 2, 4);
  std::vector<Time> fired;
  se.shard(0).schedule_at(2, [&] {
    fired.push_back(se.shard(0).now());
    bus.send_at(0, 1, 100, [&] { fired.push_back(se.shard(1).now()); });
  });
  se.run_until(50);
  EXPECT_EQ(fired, (std::vector<Time>{2}));
  EXPECT_EQ(se.shard(0).now(), 50);
  EXPECT_EQ(se.shard(1).now(), 50);
  se.run();
  EXPECT_EQ(fired, (std::vector<Time>{2, 100}));
}

// Teardown of an aborted run: abort_all drops the engines' queues and the
// bus's clear() drops its traffic — both the message already exchanged into
// shard 1's settle bucket and the one still staged in shard 0's outbox — so
// neither is ever delivered.
TEST(ShardedEngine, AbortAllDiscardsInFlightCrossTraffic) {
  ShardedEngine se(sharded(2, 4));
  LpBus bus(se, 2, 4);
  int delivered = 0;
  se.shard(0).schedule_at(0, [&] {
    bus.send_at(0, 1, 500, [&] { ++delivered; });
  });
  se.run_until(10);
  bus.send_at(0, 1, 600, [&] { ++delivered; });  // staged, not exchanged
  se.abort_all();
  bus.clear();
  se.run();  // nothing left anywhere
  EXPECT_EQ(delivered, 0);
  EXPECT_TRUE(se.shard(1).queue_empty());
  EXPECT_EQ(se.cross_events(), 1u);
}

// Non-power-of-two shard and thread counts partition and merge correctly,
// and results are independent of the thread count.
TEST(ShardedEngine, NonPowerOfTwoShardAndThreadCounts) {
  auto run_all_pairs = [](int shards, int threads) {
    ShardedEngine se(sharded(shards, 3, threads));
    LpBus bus(se, shards, 3);
    std::vector<std::vector<int>> logs(
        static_cast<std::size_t>(shards));  // each shard appends only its own
    for (int s = 0; s < shards; ++s) {
      se.shard(s).schedule_at(s, [&bus, &logs, s, shards] {
        for (int d = 0; d < shards; ++d) {
          if (d == s) continue;
          bus.send(s, d, [&logs, d, s] {
            logs[static_cast<std::size_t>(d)].push_back(s);
          });
        }
      });
    }
    se.run();
    return logs;
  };
  const auto serial = run_all_pairs(5, 1);
  const auto threaded = run_all_pairs(5, 3);
  EXPECT_EQ(serial, threaded);
  for (const auto& l : serial) {
    EXPECT_EQ(l.size(), 4u);
  }
}

// The round barrier under both of its waits. Each phase is a long
// single-shard stretch on shard 0 (every round runs it inline, so the
// workers run out of spin and park) followed by an all-shard burst: four
// ring chains hop in lockstep, so every round runs all four shards on the
// pool, and one hop on shard 3 (never the coordinator's) outlasts the
// coordinator's spin so it parks too. Logs and engine counters must not
// depend on the thread count.
struct BarrierCtx {
  LpBus* bus = nullptr;
  std::vector<std::vector<std::pair<Time, int>>> logs;  // per shard
};

constexpr int kPhases = 6;
constexpr int kStretchTicks = 300;
constexpr int kBurstHops = 8;  // a multiple of 4: shard 0's chain ends home

void stretch(BarrierCtx* c, Engine* eng, int phase, int k);

void burst_hop(BarrierCtx* c, int s, int phase, int n) {
  Engine& eng = c->bus->engine_of(s);
  c->logs[static_cast<std::size_t>(s)].emplace_back(eng.now(),
                                                    -(phase * 100 + n));
  if (s == 3 && n == kBurstHops / 2) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  if (n == 0) {
    if (s == 0 && phase + 1 < kPhases) {
      eng.schedule_after(3, [c, e = &eng, phase] {
        stretch(c, e, phase + 1, kStretchTicks);
      });
    }
    return;
  }
  const int dst = (s + 1) % 4;
  c->bus->send(s, dst, [c, dst, phase, n] { burst_hop(c, dst, phase, n - 1); });
}

void stretch(BarrierCtx* c, Engine* eng, int phase, int k) {
  c->logs[0].emplace_back(eng->now(), phase * 1000 + k);
  if (k % 64 == 0) std::this_thread::sleep_for(std::chrono::microseconds(20));
  if (k > 0) {
    eng->schedule_after(15, [c, eng, phase, k] {
      stretch(c, eng, phase, k - 1);
    });
    return;
  }
  for (int s = 0; s < 4; ++s) {
    c->bus->send(0, s, [c, s, phase] { burst_hop(c, s, phase, kBurstHops); });
  }
}

struct BarrierRun {
  std::vector<std::vector<std::pair<Time, int>>> logs;
  std::uint64_t rounds = 0;
  std::uint64_t windows = 0;
  std::uint64_t cross_events = 0;
};

BarrierRun run_barrier_phases(int threads) {
  ShardedEngine se(sharded(4, 10, threads));
  LpBus bus(se, 4, 10);
  BarrierCtx ctx;
  ctx.bus = &bus;
  ctx.logs.resize(4);
  Engine* e0 = &se.shard(0);
  e0->schedule_at(0, [&ctx, e0] { stretch(&ctx, e0, 0, kStretchTicks); });
  se.run();
  return {std::move(ctx.logs), se.rounds(), se.windows(), se.cross_events()};
}

TEST(ShardedEngine, BarrierParksAndWakesAcrossSingleShardStretches) {
  const BarrierRun inline_run = run_barrier_phases(1);
  for (int threads : {2, 4}) {
    SCOPED_TRACE(threads);
    const BarrierRun pooled = run_barrier_phases(threads);
    EXPECT_EQ(pooled.logs, inline_run.logs);
    EXPECT_EQ(pooled.rounds, inline_run.rounds);
    EXPECT_EQ(pooled.windows, inline_run.windows);
    EXPECT_EQ(pooled.cross_events, inline_run.cross_events);
  }
  // Every tick and hop ran: the four chains visit each shard
  // kBurstHops + 1 times per phase. Shard 0's sends to itself stay off the
  // exchange, so a phase moves 3 + 4 * kBurstHops cross-shard messages.
  const auto hops = static_cast<std::size_t>(kPhases * (kBurstHops + 1));
  EXPECT_EQ(inline_run.logs[0].size(),
            static_cast<std::size_t>(kPhases * (kStretchTicks + 1)) + hops);
  for (int s = 1; s < 4; ++s) {
    EXPECT_EQ(inline_run.logs[static_cast<std::size_t>(s)].size(), hops);
  }
  EXPECT_GT(inline_run.rounds,
            static_cast<std::uint64_t>(kPhases * kStretchTicks / 2));
  EXPECT_EQ(inline_run.cross_events,
            static_cast<std::uint64_t>(kPhases * (3 + 4 * kBurstHops)));
}

// A simulated process on shard 3, which only a pool worker runs at 2 or 4
// threads, throws in the middle of an all-shard round. run() must rethrow
// it on the caller once the round's barrier completes, stop the pool, and
// leave an engine that destroys cleanly with the other shards' traffic
// still pending.
Task<void> failing_process(Engine& eng) {
  co_await eng.delay(55);
  throw std::runtime_error("shard 3 failed");
}

TEST(ShardedEngine, WorkerShardErrorIsRethrown) {
  for (int threads : {2, 4}) {
    SCOPED_TRACE(threads);
    ShardedEngine se(sharded(4, 10, threads));
    LpBus bus(se, 4, 10);
    ChainCtx ctx;
    ctx.bus = &bus;
    ctx.logs.resize(4);
    for (int s = 0; s < 4; ++s) {
      se.shard(s).schedule_at(0, [&ctx, s] { hop(&ctx, s, 1000); });
    }
    se.shard(3).spawn(failing_process(se.shard(3)));
    try {
      se.run();
      ADD_FAILURE() << "run() returned without rethrowing";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard 3 failed");
    }
    // The error surfaced in the round that threw (t = 55 lies in the
    // sixth), long before the rings drained; their next hops stay staged
    // in the bus and are dropped with it.
    EXPECT_EQ(se.rounds(), 6u);
    EXPECT_LT(se.cross_events(), 4u * 1000u);
  }
}

}  // namespace
}  // namespace gbc::sim
