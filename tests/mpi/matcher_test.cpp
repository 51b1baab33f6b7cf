// Unit tests for the per-rank matching engine extracted from MiniMPI: MPI
// matching rules (communicator, source/tag wildcards), post-order and
// arrival-order preference, and the posted/unexpected queue lifecycles —
// exercised in isolation, with no fabric or progress engine attached. The
// RequestPool tests cover the handles it queues: counting, comparison, and
// a record's way home when a frame holding its last handle aborts.
#include "mpi/matcher.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace gbc::mpi {
namespace {

constexpr std::uint64_t kComm = 7;

Envelope env(int src, Tag tag, std::uint64_t comm = kComm, Bytes bytes = 64) {
  Envelope e;
  e.comm_id = comm;
  e.src_world = src;
  e.dst_world = 0;
  e.tag = tag;
  e.bytes = bytes;
  return e;
}

struct MatcherTest : ::testing::Test {
  sim::Engine eng;
  RequestPool reqs{eng};
  Matcher m;

  Request make_recv(int match_src, Tag match_tag,
                    std::uint64_t comm = kComm) {
    Request r = reqs.make();
    r->is_recv = true;
    r->comm_id = comm;
    r->match_src = match_src;
    r->match_tag = match_tag;
    return r;
  }
};

TEST_F(MatcherTest, ExactMatchRemovesThePostedReceive) {
  Request r = make_recv(3, 11);
  m.post(r);
  EXPECT_EQ(m.posted_count(), 1u);
  EXPECT_EQ(m.match_posted(env(3, 11)), r);
  EXPECT_EQ(m.posted_count(), 0u);
  EXPECT_EQ(m.match_posted(env(3, 11)), nullptr);  // consumed
}

TEST_F(MatcherTest, MismatchedCommSourceOrTagDoesNotMatch) {
  m.post(make_recv(3, 11));
  EXPECT_EQ(m.match_posted(env(3, 11, kComm + 1)), nullptr);  // wrong comm
  EXPECT_EQ(m.match_posted(env(4, 11)), nullptr);             // wrong source
  EXPECT_EQ(m.match_posted(env(3, 12)), nullptr);             // wrong tag
  EXPECT_EQ(m.posted_count(), 1u);
}

TEST_F(MatcherTest, WildcardsMatchAnySourceAndTag) {
  Request any_src = make_recv(kAnySource, 5);
  Request any_tag = make_recv(2, kAnyTag);
  m.post(any_src);
  m.post(any_tag);
  EXPECT_EQ(m.match_posted(env(9, 5)), any_src);
  EXPECT_EQ(m.match_posted(env(2, 99)), any_tag);
}

TEST_F(MatcherTest, OldestPostWinsWhenSeveralMatch) {
  Request first = make_recv(kAnySource, kAnyTag);
  Request second = make_recv(1, 0);
  m.post(first);
  m.post(second);
  // Both match; MPI requires the earlier post.
  EXPECT_EQ(m.match_posted(env(1, 0)), first);
  EXPECT_EQ(m.match_posted(env(1, 0)), second);
}

TEST_F(MatcherTest, UnexpectedQueuePreservesArrivalOrder) {
  m.push_unexpected(env(1, 0, kComm, 100), false);
  m.push_unexpected(env(2, 0, kComm, 200), true);
  m.push_unexpected(env(1, 0, kComm, 300), false);
  EXPECT_EQ(m.unexpected_count(), 3u);

  // Wildcard take drains in arrival order.
  auto a = m.take_unexpected(kComm, kAnySource, kAnyTag);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->env.bytes, 100);
  EXPECT_FALSE(a->rndv);

  // Specific source skips over non-matching earlier arrivals.
  auto b = m.take_unexpected(kComm, 2, 0);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->env.bytes, 200);
  EXPECT_TRUE(b->rndv);  // rendezvous flag rides along

  auto c = m.take_unexpected(kComm, 2, 0);
  EXPECT_FALSE(c.has_value());
  EXPECT_EQ(m.unexpected_count(), 1u);
}

TEST_F(MatcherTest, ProbeIsNonDestructive) {
  EXPECT_FALSE(m.probe(kComm, kAnySource, kAnyTag));
  m.push_unexpected(env(4, 9), false);
  EXPECT_TRUE(m.probe(kComm, 4, 9));
  EXPECT_TRUE(m.probe(kComm, kAnySource, kAnyTag));
  EXPECT_FALSE(m.probe(kComm, 5, 9));
  EXPECT_EQ(m.unexpected_count(), 1u);  // probe never removes
}

TEST_F(MatcherTest, PostedAndUnexpectedAreIndependentPerCommunicator) {
  m.post(make_recv(kAnySource, kAnyTag, kComm));
  m.push_unexpected(env(0, 0, kComm + 1), false);
  // The parked message belongs to another communicator: the posted receive
  // must not see it, and vice versa.
  EXPECT_EQ(m.match_posted(env(0, 0, kComm + 1)), nullptr);
  EXPECT_FALSE(m.take_unexpected(kComm, kAnySource, kAnyTag).has_value());
  EXPECT_EQ(m.posted_count(), 1u);
  EXPECT_EQ(m.unexpected_count(), 1u);
}

// A deep unexpected queue (masterworker's any-source receives see one at
// the master): wildcard receives take it front first, in arrival order.
TEST_F(MatcherTest, DeepUnexpectedQueueDrainsInArrivalOrderToWildcards) {
  constexpr int kDepth = 4096;
  for (int i = 0; i < kDepth; ++i) {
    m.push_unexpected(env(i % 61, i % 7, kComm, i), i % 3 == 0);
  }
  EXPECT_EQ(m.unexpected_count(), static_cast<std::size_t>(kDepth));
  for (int i = 0; i < kDepth; ++i) {
    // Alternate any-source and any-tag receives; each must see the oldest
    // message first.
    const bool any_src = i % 2 == 0;
    auto um = m.take_unexpected(kComm, any_src ? kAnySource : i % 61,
                                any_src ? i % 7 : kAnyTag);
    ASSERT_TRUE(um.has_value()) << i;
    ASSERT_EQ(um->env.bytes, i);
    ASSERT_EQ(um->rndv, i % 3 == 0);
  }
  EXPECT_EQ(m.unexpected_count(), 0u);
  EXPECT_FALSE(m.take_unexpected(kComm, kAnySource, kAnyTag).has_value());
}

// Selective matches remove from the front half, the back half and the
// middle of the queue; the rest still leaves in arrival order, and the
// queue refills after draining.
TEST_F(MatcherTest, SelectiveTakesKeepTheRestInArrivalOrder) {
  constexpr int kDepth = 64;
  for (int i = 0; i < kDepth; ++i) {
    m.push_unexpected(env(i, 0, kComm, i), false);
  }
  for (int src : {5, 60, 31, 0, 63, 32}) {
    auto um = m.take_unexpected(kComm, src, 0);
    ASSERT_TRUE(um.has_value());
    EXPECT_EQ(um->env.src_world, src);
  }
  m.push_unexpected(env(100, 0, kComm, 100), false);
  int last = -1;
  std::size_t left = 0;
  while (auto um = m.take_unexpected(kComm, kAnySource, kAnyTag)) {
    EXPECT_GT(um->env.bytes, last);
    EXPECT_NE(um->env.src_world, 5);
    EXPECT_NE(um->env.src_world, 31);
    last = static_cast<int>(um->env.bytes);
    ++left;
  }
  EXPECT_EQ(left, static_cast<std::size_t>(kDepth - 6 + 1));
  m.push_unexpected(env(1, 0, kComm, 7), false);
  auto again = m.take_unexpected(kComm, 1, 0);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->env.bytes, 7);
}

// Arrivals interleaved with wildcard and selective takes, against a plain
// vector model of the queue: the queue reuses its consumed prefix and
// compacts while it grows, and the order must survive both.
TEST_F(MatcherTest, InterleavedArrivalsAndTakesMatchAModelQueue) {
  std::vector<std::pair<int, Bytes>> model;  // (src, bytes), arrival order
  std::uint32_t lcg = 12345;
  auto next = [&lcg](std::uint32_t n) {
    lcg = lcg * 1664525u + 1013904223u;
    return (lcg >> 8) % n;
  };
  Bytes serial = 0;
  for (int step = 0; step < 20000; ++step) {
    const std::uint32_t op = next(10);
    if (op < 5 || model.empty()) {
      const int src = static_cast<int>(next(8));
      m.push_unexpected(env(src, 0, kComm, serial), false);
      model.emplace_back(src, serial++);
    } else if (op < 7) {
      auto um = m.take_unexpected(kComm, kAnySource, kAnyTag);
      ASSERT_TRUE(um.has_value());
      ASSERT_EQ(um->env.bytes, model.front().second);
      model.erase(model.begin());
    } else {
      const int src = static_cast<int>(next(8));
      auto um = m.take_unexpected(kComm, src, 0);
      auto it = std::find_if(model.begin(), model.end(),
                             [src](const auto& e) { return e.first == src; });
      ASSERT_EQ(um.has_value(), it != model.end());
      if (it == model.end()) continue;
      ASSERT_EQ(um->env.bytes, it->second);
      model.erase(it);
    }
    ASSERT_EQ(m.unexpected_count(), model.size());
  }
}

// A frame that holds the last handle to a request and waits on its
// condition unwinds once at abort: the waiter leaves the record's queue
// before the frame drops the handle and the record goes home.
TEST(RequestPool, FrameHoldingTheLastHandleReleasesItAtAbort) {
  sim::Engine eng;
  RequestPool reqs(eng);
  struct Unwound {
    int* n;
    ~Unwound() { ++*n; }
  };
  int unwound = 0;
  eng.spawn([](Request req, int& n) -> sim::Task<void> {
    Unwound u{&n};
    while (!req->done) co_await req->cv.wait();
  }(reqs.make(), unwound));
  eng.run_until(10);
  EXPECT_EQ(reqs.outstanding(), 1u);
  eng.abort_all();
  EXPECT_EQ(unwound, 1);
  EXPECT_EQ(eng.live_processes(), 0);
  EXPECT_EQ(reqs.outstanding(), 0u);
  // The recycled record comes back fresh.
  Request again = reqs.make();
  EXPECT_FALSE(again->done);
  EXPECT_EQ(reqs.outstanding(), 1u);
}

TEST(RequestPool, HandlesCountReferencesAndCompareByRecord) {
  sim::Engine eng;
  RequestPool reqs(eng);
  Request a = reqs.make();
  Request b = a;
  Request none;
  EXPECT_TRUE(a);
  EXPECT_FALSE(none);
  EXPECT_EQ(a, b);
  EXPECT_EQ(none, nullptr);
  EXPECT_NE(a, reqs.make());
  a = nullptr;
  EXPECT_EQ(reqs.outstanding(), 1u);  // b still holds it
  b = std::move(none);
  EXPECT_EQ(reqs.outstanding(), 0u);
}

}  // namespace
}  // namespace gbc::mpi
