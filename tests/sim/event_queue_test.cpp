#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace gbc::sim {
namespace {

// A timestamp past 2^48 ns (~78 simulated hours): far-future events must
// order exactly like near ones.
constexpr Time kFar = Time{1} << 48;

// Pops everything at or below `limit`, returning (t, seq) pairs in delivery
// order.
std::vector<std::pair<Time, std::uint64_t>> drain(EventQueue& q, Time limit) {
  std::vector<std::pair<Time, std::uint64_t>> out;
  QueuedEvent ev;
  while (q.pop(limit, ev)) out.emplace_back(ev.t, ev.seq);
  return out;
}

// Offsets from the current time: near, slot-boundary-sized, far, and past
// 2^48 ns.
Time random_offset(std::mt19937& rng) {
  switch (rng() % 5) {
    case 0: return static_cast<Time>(rng() % 4);
    case 1: return static_cast<Time>(rng() % 256);
    case 2: return static_cast<Time>(rng() % (1 << 20));
    case 3: return static_cast<Time>(rng() % (1ull << 40));
    default: return kFar + static_cast<Time>(rng() % 100);
  }
}

TEST(TimingWheel, PopsInTimeOrder) {
  EventQueue q;
  std::uint64_t seq = 0;
  for (Time t : {30, 10, 20, 25, 5}) q.push(QueuedEvent{t, seq++, 0});
  const auto got = drain(q, std::numeric_limits<Time>::max());
  const std::vector<std::pair<Time, std::uint64_t>> want{
      {5, 4}, {10, 1}, {20, 2}, {25, 3}, {30, 0}};
  EXPECT_EQ(got, want);
  EXPECT_TRUE(q.empty());
}

TEST(TimingWheel, EqualTimestampsPopInSeqOrder) {
  EventQueue q;
  for (std::uint64_t s = 0; s < 32; ++s) q.push(QueuedEvent{7, s, 0});
  const auto got = drain(q, 7);
  ASSERT_EQ(got.size(), 32u);
  for (std::uint64_t s = 0; s < 32; ++s) {
    EXPECT_EQ(got[s].first, 7);
    EXPECT_EQ(got[s].second, s);
  }
}

// Equal-timestamp FIFO must hold when same-time events are pushed on both
// sides of an earlier event's pop.
TEST(TimingWheel, EqualTimestampFifoAcrossCascadeAndDirectInsert) {
  EventQueue q;
  q.push(QueuedEvent{100, 1, 0});
  q.push(QueuedEvent{70, 2, 0});
  q.push(QueuedEvent{100, 3, 0});
  QueuedEvent ev;
  ASSERT_TRUE(q.pop(70, ev));
  EXPECT_EQ(ev.t, 70);
  EXPECT_EQ(ev.seq, 2u);
  q.push(QueuedEvent{100, 4, 0});
  const auto got = drain(q, 100);
  const std::vector<std::pair<Time, std::uint64_t>> want{
      {100, 1}, {100, 3}, {100, 4}};
  EXPECT_EQ(got, want);
}

// An earlier event pushed after two same-time events must not disturb their
// schedule order.
TEST(TimingWheel, DisplacedRegisterKeepsEqualTimestampFifo) {
  EventQueue q;
  q.push(QueuedEvent{100, 1, 0});
  q.push(QueuedEvent{100, 2, 0});
  q.push(QueuedEvent{50, 3, 0});
  const auto got = drain(q, std::numeric_limits<Time>::max());
  const std::vector<std::pair<Time, std::uint64_t>> want{
      {50, 3}, {100, 1}, {100, 2}};
  EXPECT_EQ(got, want);
}

TEST(TimingWheel, PopRespectsLimitAndKeepsEventQueued) {
  EventQueue q;
  q.push(QueuedEvent{50, 0, 0});
  QueuedEvent ev;
  EXPECT_FALSE(q.pop(49, ev));
  EXPECT_EQ(q.size(), 1u);
  ASSERT_TRUE(q.pop(50, ev));
  EXPECT_EQ(ev.t, 50);
  EXPECT_TRUE(q.empty());
}

TEST(TimingWheel, FarFutureEventsMigrateFromOverflow) {
  EventQueue q;
  const Time far = kFar + 5;
  const Time farther = 2 * kFar + 11;
  q.push(QueuedEvent{far, 0, 0});
  q.push(QueuedEvent{far, 1, 0});
  q.push(QueuedEvent{farther, 2, 0});
  q.push(QueuedEvent{10, 3, 0});
  EXPECT_EQ(q.size(), 4u);
  const auto got = drain(q, std::numeric_limits<Time>::max());
  const std::vector<std::pair<Time, std::uint64_t>> want{
      {10, 3}, {far, 0}, {far, 1}, {farther, 2}};
  EXPECT_EQ(got, want);
}

TEST(TimingWheel, OverflowRespectsPopLimit) {
  EventQueue q;
  const Time far = kFar + 123;
  q.push(QueuedEvent{far, 0, 0});
  QueuedEvent ev;
  EXPECT_FALSE(q.pop(far - 1, ev));
  EXPECT_EQ(q.size(), 1u);
  ASSERT_TRUE(q.pop(far, ev));
  EXPECT_EQ(ev.t, far);
}

TEST(TimingWheel, ClearDropsEverything) {
  EventQueue q;
  for (Time t : {Time{1}, Time{100}, Time{10000}, kFar + 1}) {
    q.push(QueuedEvent{t, static_cast<std::uint64_t>(t), 0});
  }
  q.clear();
  EXPECT_TRUE(q.empty());
  QueuedEvent ev;
  EXPECT_FALSE(q.pop(std::numeric_limits<Time>::max(), ev));
  // Reusable after a clear.
  q.push(QueuedEvent{5, 0, 0});
  ASSERT_TRUE(q.pop(5, ev));
  EXPECT_EQ(ev.t, 5);
}

// Randomized push/pop interleavings against a sort-by-(t, seq) reference:
// the queue must deliver the exact (t, seq) order the engine's determinism
// contract requires.
TEST(TimingWheel, RandomScheduleMatchesReferenceOrder) {
  std::mt19937 rng(20070814);
  EventQueue q;
  std::vector<std::pair<Time, std::uint64_t>> pending;
  std::vector<std::pair<Time, std::uint64_t>> delivered;
  std::uint64_t seq = 0;
  Time now = 0;
  for (int round = 0; round < 400; ++round) {
    const int pushes = static_cast<int>(rng() % 8);
    for (int i = 0; i < pushes; ++i) {
      const Time t = now + random_offset(rng);
      q.push(QueuedEvent{t, seq, 0});
      pending.emplace_back(t, seq);
      ++seq;
    }
    const int pops = static_cast<int>(rng() % 8);
    for (int i = 0; i < pops && !pending.empty(); ++i) {
      QueuedEvent ev;
      ASSERT_TRUE(q.pop(std::numeric_limits<Time>::max(), ev));
      delivered.emplace_back(ev.t, ev.seq);
      now = ev.t;
      pending.erase(std::find(pending.begin(), pending.end(),
                              std::make_pair(ev.t, ev.seq)));
    }
  }
  QueuedEvent ev;
  while (q.pop(std::numeric_limits<Time>::max(), ev)) {
    delivered.emplace_back(ev.t, ev.seq);
  }
  auto want = delivered;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(delivered, want) << "delivery deviated from (t, seq) order";
  EXPECT_TRUE(q.empty());
}

// The same interleavings with Engine::kBackBand set on a random third of the
// keys, pushes often landing at the instant just popped: every pop must be
// the minimum (t, key) still pending.
TEST(EventQueue, BackBandKeysAlwaysPopPendingMinimum) {
  std::mt19937 rng(20070814);
  EventQueue q;
  std::set<std::pair<Time, std::uint64_t>> pending;
  std::uint64_t seq = 0;
  Time now = 0;
  int misordered = 0;
  auto pop_one = [&] {
    QueuedEvent ev;
    if (!q.pop(std::numeric_limits<Time>::max(), ev)) return false;
    const auto key = std::make_pair(ev.t, ev.seq);
    if (key != *pending.begin()) ++misordered;
    pending.erase(key);
    now = ev.t;
    return true;
  };
  for (int round = 0; round < 400; ++round) {
    const int pushes = static_cast<int>(rng() % 8);
    for (int i = 0; i < pushes; ++i) {
      const Time t = now + random_offset(rng);
      const bool back = rng() % 3 == 0;
      const std::uint64_t key = seq++ | (back ? Engine::kBackBand : 0);
      q.push(QueuedEvent{t, key, 0});
      pending.emplace(t, key);
    }
    const int pops = static_cast<int>(rng() % 8);
    for (int i = 0; i < pops && !pending.empty(); ++i) ASSERT_TRUE(pop_one());
  }
  while (!pending.empty()) ASSERT_TRUE(pop_one());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(misordered, 0) << "pops that were not the pending (t, key) minimum";
}

// ---------------------------------------------------------------------------
// Engine-level semantics that ride on the queue
// ---------------------------------------------------------------------------

TEST(EngineWheel, RunUntilBoundaryThenScheduleJustAfter) {
  Engine eng;
  std::vector<Time> fired;
  eng.schedule_at(10, [&] { fired.push_back(eng.now()); });
  eng.schedule_at(30, [&] { fired.push_back(eng.now()); });
  eng.run_until(20);
  EXPECT_EQ(eng.now(), 20);
  // The clock parked at the boundary must accept events between the boundary
  // and the still-queued t=30 event.
  eng.schedule_at(21, [&] { fired.push_back(eng.now()); });
  eng.run();
  EXPECT_EQ(fired, (std::vector<Time>{10, 21, 30}));
}

TEST(EngineWheel, DelayChainAcrossWheelLevels) {
  Engine eng;
  std::vector<Time> waypoints;
  eng.spawn([](Engine& e, std::vector<Time>& wp) -> Task<void> {
    for (Time d : {Time{1}, Time{63}, Time{64}, Time{4096}, Time{1} << 30,
                   kFar + 7}) {
      co_await e.delay(d);
      wp.push_back(e.now());
    }
  }(eng, waypoints));
  eng.run();
  ASSERT_EQ(waypoints.size(), 6u);
  Time expect = 0;
  std::size_t i = 0;
  for (Time d : {Time{1}, Time{63}, Time{64}, Time{4096}, Time{1} << 30,
                 kFar + 7}) {
    expect += d;
    EXPECT_EQ(waypoints[i++], expect);
  }
}

}  // namespace
}  // namespace gbc::sim
