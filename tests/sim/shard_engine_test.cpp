#include "sim/shard_engine.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
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

// Messages from one source shard must arrive at the destination in send
// (sequence) order even when they carry the same timestamp, and same-time
// messages from different sources must merge in src-shard order — the
// (t, src, seq) contract.
TEST(ShardedEngine, SameTimeCrossPostsMergeBySrcThenSeq) {
  ShardedEngine::Options opts;
  opts.shards = 3;
  // Shard 0 posts at now=1 for t=10, so the lookahead may be at most 9
  // (post() asserts t >= now + L).
  opts.lookahead = 9;
  opts.threads = 1;
  ShardedEngine se(opts);
  std::vector<std::string> dst_log;  // only shard 2 appends

  // Both posts from shard 1 are issued before shard 0's (shard 1's seed
  // event fires first), yet shard 0's message must still deliver first.
  se.shard(1).schedule_at(0, [&] {
    se.post(1, 2, 10, [&dst_log] { dst_log.push_back("s1:a"); });
    se.post(1, 2, 10, [&dst_log] { dst_log.push_back("s1:b"); });
  });
  se.shard(0).schedule_at(1, [&] {
    se.post(0, 2, 10, [&dst_log] { dst_log.push_back("s0:a"); });
  });
  se.run();

  EXPECT_EQ(dst_log, (std::vector<std::string>{"s0:a", "s1:a", "s1:b"}));
}

// post() with src == dst degrades to a plain schedule_at, so model code can
// route every send through post() without special-casing locality (and
// without the lookahead restriction for same-shard traffic).
TEST(ShardedEngine, SameShardPostIgnoresLookahead) {
  ShardedEngine::Options opts;
  opts.shards = 2;
  opts.lookahead = 100;
  ShardedEngine se(opts);
  std::vector<Time> fired;
  se.shard(0).schedule_at(0, [&] {
    se.post(0, 0, 3, [&] { fired.push_back(se.shard(0).now()); });
  });
  se.run();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 3);
}

// Ring of cross-shard hops. The per-shard delivery logs — and the window
// count — must be identical whether the shards run inline on one thread or
// on one thread each. (Each log is appended only by its own shard, so the
// logs are race-free even in the threaded run.)
struct ChainCtx {
  ShardedEngine* se = nullptr;
  std::vector<std::vector<int>> logs;
  Time lookahead = 0;
};

void hop(ChainCtx* c, int s, int n) {
  c->logs[static_cast<std::size_t>(s)].push_back(n);
  if (n == 0) return;
  const int dst = (s + 1) % c->se->shards();
  const Time t = c->se->shard(s).now() + c->lookahead;
  c->se->post(s, dst, t, [c, dst, n] { hop(c, dst, n - 1); });
}

ChainCtx run_ring(int threads) {
  ShardedEngine::Options opts;
  opts.shards = 4;
  opts.lookahead = 7;
  opts.threads = threads;
  ShardedEngine se(opts);
  ChainCtx ctx;
  ctx.se = &se;
  ctx.logs.resize(4);
  ctx.lookahead = opts.lookahead;
  for (int s = 0; s < 4; ++s) {
    se.shard(s).schedule_at(s, [&ctx, s] { hop(&ctx, s, 40); });
  }
  se.run();
  ctx.se = nullptr;
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
  ShardedEngine::Options opts;
  opts.shards = 2;
  opts.lookahead = 5;
  ShardedEngine se(opts);
  int delivered = 0;
  se.shard(0).schedule_at(0, [&] {
    se.post(0, 1, 5, [&] {
      ++delivered;
      se.post(1, 0, 10, [&] { ++delivered; });
    });
  });
  se.run();
  EXPECT_EQ(delivered, 2);
  // Exactly two cross-shard messages were merged, so exactly two windows —
  // rounds without traffic fuse and are never counted as windows.
  EXPECT_EQ(se.windows(), 2u);
  EXPECT_GE(se.rounds(), se.windows());
  EXPECT_EQ(se.cross_events(), 2u);
  EXPECT_EQ(se.total_events(),
            se.stats(0).events + se.stats(1).events);
  EXPECT_EQ(se.stats(0).cross_sent, 1u);
  EXPECT_EQ(se.stats(1).cross_sent, 1u);
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

// Shards 0-2 post 600 same-time events each to shard 3 in one round, in
// parallel at threads = 4. Shard 3 must see them in (src, seq) order —
// every post of shard 0, then 1, then 2, each in post order — exactly as
// the inline threads = 1 run does.
std::vector<std::pair<int, int>> fan_in_log(int threads) {
  constexpr int kPosts = 600;
  ShardedEngine::Options opts;
  opts.shards = 4;
  opts.lookahead = 10;
  opts.threads = threads;
  ShardedEngine se(opts);
  std::vector<std::pair<int, int>> log;  // appended only by shard 3
  for (int s = 0; s < 3; ++s) {
    se.shard(s).schedule_at(0, [&se, &log, s] {
      for (int i = 0; i < kPosts; ++i) {
        se.post(s, 3, 10, [&log, s, i] { log.emplace_back(s, i); });
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
// shard clock to the cap, and a follow-up run() finishes the job. abort_all
// after run_until discards in-flight cross traffic without delivering it.
TEST(ShardedEngine, RunUntilCapsAndResumesAcrossShards) {
  ShardedEngine::Options opts;
  opts.shards = 2;
  opts.lookahead = 4;
  ShardedEngine se(opts);
  std::vector<Time> fired;
  se.shard(0).schedule_at(2, [&] {
    fired.push_back(se.shard(0).now());
    se.post(0, 1, 100, [&] { fired.push_back(se.shard(1).now()); });
  });
  se.run_until(50);
  EXPECT_EQ(fired, (std::vector<Time>{2}));
  EXPECT_EQ(se.shard(0).now(), 50);
  EXPECT_EQ(se.shard(1).now(), 50);
  se.run();
  EXPECT_EQ(fired, (std::vector<Time>{2, 100}));
}

TEST(ShardedEngine, AbortAllDiscardsInFlightCrossTraffic) {
  ShardedEngine::Options opts;
  opts.shards = 2;
  opts.lookahead = 4;
  ShardedEngine se(opts);
  int delivered = 0;
  se.shard(0).schedule_at(0, [&] {
    se.post(0, 1, 500, [&] { ++delivered; });
  });
  se.run_until(10);
  se.abort_all();
  se.run();  // nothing left anywhere
  EXPECT_EQ(delivered, 0);
  EXPECT_TRUE(se.shard(1).queue_empty());
}

// Non-power-of-two shard and thread counts partition and merge correctly,
// and results are independent of the thread count.
TEST(ShardedEngine, NonPowerOfTwoShardAndThreadCounts) {
  auto run_all_pairs = [](int shards, int threads) {
    ShardedEngine::Options opts;
    opts.shards = shards;
    opts.lookahead = 3;
    opts.threads = threads;
    ShardedEngine se(opts);
    std::vector<std::vector<int>> logs(
        static_cast<std::size_t>(shards));  // each shard appends only its own
    for (int s = 0; s < shards; ++s) {
      se.shard(s).schedule_at(s, [&se, &logs, s, shards] {
        for (int d = 0; d < shards; ++d) {
          if (d == s) continue;
          se.post(s, d, se.shard(s).now() + 3,
                  [&logs, d, s] { logs[static_cast<std::size_t>(d)]
                                      .push_back(s); });
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

}  // namespace
}  // namespace gbc::sim
