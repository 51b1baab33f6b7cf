// Second wave of fabric tests: timing details, lock interactions, drains
// under cross traffic, accounting.
#include <gtest/gtest.h>

#include <vector>

#include "net/fabric.hpp"
#include "net_test_util.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "storage/storage.hpp"

namespace gbc::net {
namespace {

using sim::Task;
using sim::Time;

using World = testing::NetWorld;

Task<void> connect(Fabric& f, int a, int b) {
  return f.connections().ensure_connected(a, b);
}

TEST(Fabric2, TransferTimeScalesLinearlyWithSize) {
  World w(2);
  std::vector<Time> arrivals;
  w.fabric.set_receiver(1, [&](Packet&) { arrivals.push_back(w.eng.now()); });
  w.eng.spawn([](World& w) -> Task<void> {
    co_await connect(w.fabric, 0, 1);
    const Time t0 = w.eng.now();
    w.fabric.transmit(Packet{0, 1, storage::mib(1), PacketKind::kRdmaData, 0,
                             nullptr});
    (void)t0;
  }(w));
  w.eng.run();
  ASSERT_EQ(arrivals.size(), 1u);
  const Time setup = w.cfg.oob_exchange + w.cfg.qp_transition;
  const double xfer_s = 1.0 / 1250.0;  // 1MiB at 1250 MB/s
  const Time expect = setup + w.cfg.per_message_overhead +
                      sim::from_seconds(xfer_s) + w.cfg.wire_latency;
  EXPECT_NEAR(static_cast<double>(arrivals[0]), static_cast<double>(expect),
              1e4);
}

TEST(Fabric2, LockDoesNotDisturbEstablishedConnections) {
  World w(2);
  bool got = false;
  w.fabric.set_receiver(1, [&](Packet&) { got = true; });
  w.eng.spawn([](World& w, bool& g) -> Task<void> {
    co_await connect(w.fabric, 0, 1);
    // Locking an endpoint blocks *new establishment*, not existing traffic.
    w.fabric.connections().lock_endpoint(1);
    w.fabric.transmit(Packet{0, 1, 512, PacketKind::kEager, 0, nullptr});
    co_await w.fabric.connections().drain(0, 1);
    EXPECT_TRUE(g);
    w.fabric.connections().unlock_endpoint(1);
  }(w, got));
  w.eng.run();
  EXPECT_TRUE(got);
}

TEST(Fabric2, DrainOnIdleConnectionReturnsImmediately) {
  World w(2);
  Time drained_at = -1;
  w.eng.spawn([](World& w, Time& at) -> Task<void> {
    co_await connect(w.fabric, 0, 1);
    co_await w.fabric.connections().drain(0, 1);
    at = w.eng.now();
  }(w, drained_at));
  w.eng.run();
  // Idle drain still costs the two endpoint round trips (one RPC per side,
  // request + reply legs each): 4 bus floors on top of the setup.
  EXPECT_EQ(drained_at, w.cfg.oob_exchange + w.cfg.qp_transition +
                            4 * w.cfg.floor_hop());
}

TEST(Fabric2, ConcurrentDisconnectsResolveOnce) {
  World w(2);
  w.fabric.set_receiver(1, [](Packet&) {});
  int done = 0;
  w.eng.spawn([](World& w, int& d) -> Task<void> {
    co_await connect(w.fabric, 0, 1);
    w.eng.spawn([](World& w2, int& d2) -> Task<void> {
      co_await w2.fabric.connections().disconnect(0, 1);
      ++d2;
    }(w, d));
    co_await w.fabric.connections().disconnect(0, 1);
    ++d;
  }(w, done));
  w.eng.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(w.fabric.connections().total_teardowns(), 1);
  EXPECT_EQ(w.fabric.connections().state(0, 1), ConnState::kDisconnected);
}

TEST(Fabric2, ReconnectRaceAfterDisconnectSettlesConnected) {
  World w(2);
  w.eng.spawn([](World& w) -> Task<void> {
    co_await connect(w.fabric, 0, 1);
    // Start a disconnect and immediately request reconnection.
    w.eng.spawn([](World& w2) -> Task<void> {
      co_await w2.fabric.connections().disconnect(0, 1);
    }(w));
    co_await w.fabric.connections().ensure_connected(0, 1);
  }(w));
  w.eng.run();
  EXPECT_EQ(w.fabric.connections().state(0, 1), ConnState::kConnected);
  EXPECT_EQ(w.fabric.connections().total_setups(), 2);
}

TEST(Fabric2, PacketCountAndByteAccounting) {
  World w(3);
  w.fabric.set_receiver(1, [](Packet&) {});
  w.fabric.set_receiver(2, [](Packet&) {});
  w.eng.spawn([](World& w) -> Task<void> {
    co_await connect(w.fabric, 0, 1);
    co_await connect(w.fabric, 0, 2);
    w.fabric.transmit(Packet{0, 1, 100, PacketKind::kEager, 0, nullptr});
    w.fabric.transmit(Packet{0, 2, 200, PacketKind::kEager, 1, nullptr});
  }(w));
  w.eng.run();
  EXPECT_EQ(w.fabric.packets_sent(), 2);
  EXPECT_EQ(w.fabric.bytes_sent(), 300);
}

TEST(Fabric2, ManyPairsEstablishIndependently) {
  const int n = 16;
  World w(n);
  int established = 0;
  for (int r = 0; r < n; r += 2) {
    w.eng.spawn([](World& w, int a, int& c) -> Task<void> {
      co_await connect(w.fabric, a, a + 1);
      ++c;
    }(w, r, established));
  }
  w.eng.run();
  EXPECT_EQ(established, n / 2);
  EXPECT_EQ(w.fabric.connections().established_count(), n / 2);
  // All establishments overlap: total time = one setup, not n/2. The final
  // event is the endpoint-mirror update, one bus floor after the setup.
  EXPECT_EQ(w.eng.now(), w.cfg.oob_exchange + w.cfg.qp_transition +
                             w.cfg.floor_hop());
}

}  // namespace
}  // namespace gbc::net
