#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "mpi_test_util.hpp"
#include "sim/time.hpp"
#include "storage/storage.hpp"

namespace gbc::mpi {
namespace {

using storage::mib;
using testing::MpiWorld;

/// Test gate: blocks the configured unordered pairs.
class PairGate : public CommGate {
 public:
  explicit PairGate(sim::Engine& eng) : cv_(eng) {}
  bool allowed(int a, int b) const override {
    return blocked_.count(key(a, b)) == 0;
  }
  sim::Condition& changed(int /*src_world*/) override { return cv_; }
  void block(int a, int b) {
    blocked_.insert(key(a, b));
    cv_.notify_all();
  }
  void unblock(int a, int b) {
    blocked_.erase(key(a, b));
    cv_.notify_all();
  }
  void unblock_all() {
    blocked_.clear();
    cv_.notify_all();
  }

 private:
  static std::pair<int, int> key(int a, int b) {
    return a < b ? std::pair{a, b} : std::pair{b, a};
  }
  sim::Condition cv_;
  std::set<std::pair<int, int>> blocked_;
};

TEST(Gate, EagerSendReturnsImmediatelyWhileGated) {
  MpiWorld w(2);
  PairGate gate(w.eng);
  gate.block(0, 1);
  w.mpi.set_gate(&gate);
  sim::Time send_done = -1, recv_done = -1;
  w.eng.schedule_at(sim::from_seconds(1), [&] { gate.unblock_all(); });
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    if (r.world_rank() == 0) {
      co_await r.send(wc, 1, 0, 512);  // message buffering: local completion
      send_done = w.eng.now();
    } else {
      co_await r.recv(wc, 0, 0);
      recv_done = w.eng.now();
    }
  });
  EXPECT_LT(send_done, sim::from_milliseconds(1));
  EXPECT_GE(recv_done, sim::from_seconds(1));  // delivery deferred by gate
}

TEST(Gate, MessageBufferingCountsBytesAndDrains) {
  MpiWorld w(2);
  PairGate gate(w.eng);
  gate.block(0, 1);
  w.mpi.set_gate(&gate);
  w.eng.schedule_at(sim::from_seconds(1), [&] {
    // While gated, the bytes are parked in rank 0's message buffer.
    EXPECT_EQ(w.mpi.rank(0).message_buffer_bytes(), 3 * 512);
    gate.unblock_all();
  });
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    if (r.world_rank() == 0) {
      for (int i = 0; i < 3; ++i) co_await r.send(wc, 1, i, 512);
    } else {
      for (int i = 0; i < 3; ++i) co_await r.recv(wc, 0, i);
    }
  });
  EXPECT_EQ(w.mpi.stats().messages_buffered, 3);
  EXPECT_EQ(w.mpi.stats().message_buffered_bytes, 3 * 512);
  EXPECT_EQ(w.mpi.stats().peak_message_buffer, 3 * 512);
  EXPECT_EQ(w.mpi.rank(0).message_buffer_bytes(), 0);  // drained after flush
}

TEST(Gate, RendezvousBecomesBufferedRequest) {
  MpiWorld w(2);
  PairGate gate(w.eng);
  gate.block(0, 1);
  w.mpi.set_gate(&gate);
  sim::Time send_done = -1;
  w.eng.schedule_at(sim::from_seconds(1), [&] { gate.unblock_all(); });
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    if (r.world_rank() == 0) {
      co_await r.send(wc, 1, 0, mib(4));  // request buffering: stays open
      send_done = w.eng.now();
    } else {
      co_await r.recv(wc, 0, 0);
    }
  });
  EXPECT_GE(send_done, sim::from_seconds(1));
  EXPECT_GE(w.mpi.stats().requests_buffered, 1);
  EXPECT_GE(w.mpi.stats().request_buffered_bytes, mib(4));
  // Request buffering holds no payload copy.
  EXPECT_EQ(w.mpi.stats().message_buffered_bytes, 0);
}

TEST(Gate, UnrelatedPairsFlowFreely) {
  MpiWorld w(4);
  PairGate gate(w.eng);
  gate.block(0, 1);
  w.mpi.set_gate(&gate);
  sim::Time pair23_done = -1;
  w.eng.schedule_at(sim::from_seconds(5), [&] { gate.unblock_all(); });
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    switch (r.world_rank()) {
      case 0:
        co_await r.send(wc, 1, 0, mib(1));
        break;
      case 1:
        co_await r.recv(wc, 0, 0);
        break;
      case 2:
        co_await r.send(wc, 3, 0, mib(1));
        break;
      case 3:
        co_await r.recv(wc, 2, 0);
        pair23_done = w.eng.now();
        break;
    }
  });
  EXPECT_LT(pair23_done, sim::from_seconds(1));
}

TEST(Gate, ReopeningFlushesInFifoOrder) {
  MpiWorld w(2);
  PairGate gate(w.eng);
  gate.block(0, 1);
  w.mpi.set_gate(&gate);
  std::vector<double> order;
  w.eng.schedule_at(sim::from_milliseconds(100), [&] { gate.unblock_all(); });
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    if (r.world_rank() == 0) {
      for (int i = 0; i < 4; ++i) {
        co_await r.send(wc, 1, 0, 64, make_payload(static_cast<double>(i)));
      }
    } else {
      for (int i = 0; i < 4; ++i) {
        auto info = co_await r.recv(wc, 0, 0);
        order.push_back(info.data->at(0));
      }
    }
  });
  EXPECT_EQ(order, (std::vector<double>{0, 1, 2, 3}));
}

TEST(Gate, RemovingGateReleasesEverything) {
  MpiWorld w(2);
  PairGate gate(w.eng);
  gate.block(0, 1);
  w.mpi.set_gate(&gate);
  bool done = false;
  w.eng.schedule_at(sim::from_milliseconds(10), [&] {
    w.mpi.set_gate(nullptr);
  });
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    if (r.world_rank() == 0) {
      co_await r.send(wc, 1, 0, mib(1));
    } else {
      co_await r.recv(wc, 0, 0);
      done = true;
    }
  });
  EXPECT_TRUE(done);
}

TEST(Gate, GateClosingMidStreamDefersTail) {
  MpiWorld w(2);
  PairGate gate(w.eng);
  w.mpi.set_gate(&gate);
  std::vector<sim::Time> arrivals;
  // Give the first message time to cross (connection setup is ~1.2ms);
  // anything not yet on the wire when the gate closes must be deferred.
  w.eng.schedule_at(sim::from_milliseconds(5), [&] { gate.block(0, 1); });
  w.eng.schedule_at(sim::from_seconds(2), [&] { gate.unblock_all(); });
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    if (r.world_rank() == 0) {
      co_await r.send(wc, 1, 0, 64);
      co_await r.compute(sim::from_milliseconds(10));
      co_await r.send(wc, 1, 0, 64);  // sent after the gate closed
    } else {
      for (int i = 0; i < 2; ++i) {
        co_await r.recv(wc, 0, 0);
        arrivals.push_back(w.eng.now());
      }
    }
  });
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_LT(arrivals[0], sim::from_milliseconds(5));
  EXPECT_GE(arrivals[1], sim::from_seconds(2));
}

TEST(Gate, FrozenRankDefersDeliveryUntilThaw) {
  MpiWorld w(2);
  sim::Time recv_done = -1;
  // Freeze rank 1 before the message can arrive; connection establishment
  // toward a frozen endpoint stalls, so delivery waits for the thaw.
  w.mpi.rank(1).freeze();
  w.eng.schedule_at(sim::from_seconds(3), [&] { w.mpi.rank(1).thaw(); });
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    if (r.world_rank() == 0) {
      co_await r.send(wc, 1, 0, mib(1));
    } else {
      co_await r.recv(wc, 0, 0);
      recv_done = w.eng.now();
    }
  });
  EXPECT_GE(recv_done, sim::from_seconds(3));
}

TEST(Gate, FreezeDuringComputePausesRank) {
  MpiWorld w(1);
  sim::Time done_at = -1;
  w.eng.schedule_at(sim::from_seconds(1), [&] { w.mpi.rank(0).freeze(); });
  w.eng.schedule_at(sim::from_seconds(4), [&] { w.mpi.rank(0).thaw(); });
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    co_await r.compute(sim::from_seconds(2));
    done_at = w.eng.now();
  });
  EXPECT_EQ(done_at, sim::from_seconds(5));  // 2s work + 3s frozen
}

// Lanes and peer records live in flat vectors that grow on first contact.
// Rank 0's pump toward rank 1 parks on the closed gate, and its pump toward
// rank 2 parks in the connection waiter, while rank 0 opens lanes to 63
// more new peers in the same instant: both vectors grow under the two
// suspended frames. Every peer must still get its items in FIFO order.
TEST(Gate, LanesGrowUnderParkedPumpsAndKeepFifoOrder) {
  constexpr int kNew = 64;  // ranks 2..65: lanes opened behind the parked pump
  constexpr int kRounds = 3;
  constexpr int kGated = 5;  // items queued toward rank 1
  MpiWorld w(2 + kNew);
  PairGate gate(w.eng);
  gate.block(0, 1);
  w.mpi.set_gate(&gate);
  w.eng.schedule_at(sim::from_seconds(1), [&] { gate.unblock_all(); });
  std::vector<std::vector<Tag>> got(2 + kNew);
  sim::Time gated_first = -1;
  w.run_all([&](RankCtx& r) -> sim::Task<void> {
    const Comm& wc = w.mpi.world();
    const int me = r.world_rank();
    if (me == 0) {
      for (int t = 0; t < 3; ++t) co_await r.send(wc, 1, t, 512);
      for (int k = 0; k < kRounds; ++k) {
        for (int dst = 2; dst < 2 + kNew; ++dst) {
          co_await r.send(wc, dst, k, 512);
        }
      }
      for (int t = 3; t < kGated; ++t) co_await r.send(wc, 1, t, 512);
      co_return;
    }
    const int n = me == 1 ? kGated : kRounds;
    for (int i = 0; i < n; ++i) {
      const RecvInfo info = co_await r.recv(wc, 0, kAnyTag);
      if (me == 1 && i == 0) gated_first = w.eng.now();
      got[me].push_back(info.tag);
    }
  });
  EXPECT_GE(gated_first, sim::from_seconds(1));
  for (int rank = 1; rank < 2 + kNew; ++rank) {
    const int n = rank == 1 ? kGated : kRounds;
    ASSERT_EQ(got[rank].size(), static_cast<std::size_t>(n)) << rank;
    for (int i = 0; i < n; ++i) EXPECT_EQ(got[rank][i], i) << rank;
  }
  EXPECT_EQ(w.mpi.rank(0).message_buffer_bytes(), 0);
}

}  // namespace
}  // namespace gbc::mpi
