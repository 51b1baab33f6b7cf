// Unit tests for the per-rank matching engine extracted from MiniMPI: MPI
// matching rules (communicator, source/tag wildcards), post-order and
// arrival-order preference, and the posted/unexpected queue lifecycles —
// exercised in isolation, with no fabric or progress engine attached. The
// RequestPool tests cover the handles it queues: counting, comparison, and
// a record's way home when a frame holding its last handle aborts.
#include "mpi/matcher.hpp"

#include <gtest/gtest.h>

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
