#include "net/fabric.hpp"
#include "net_test_util.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace gbc::net {
namespace {

using sim::Task;
using sim::Time;

using World = testing::NetWorld;

Task<void> connect(Fabric& f, int a, int b) {
  return f.connections().ensure_connected(a, b);
}

TEST(ConnectionManager, EstablishTakesOobPlusQpTime) {
  World w(4);
  Time done_at = -1;
  w.eng.spawn([](World& w, Time& at) -> Task<void> {
    co_await connect(w.fabric, 0, 1);
    at = w.eng.now();
  }(w, done_at));
  w.eng.run();
  EXPECT_EQ(done_at, w.cfg.oob_exchange + w.cfg.qp_transition);
  EXPECT_EQ(w.fabric.connections().state(0, 1), ConnState::kConnected);
  EXPECT_EQ(w.fabric.connections().total_setups(), 1);
}

TEST(ConnectionManager, EnsureConnectedIsIdempotent) {
  World w(4);
  w.eng.spawn([](World& w) -> Task<void> {
    co_await connect(w.fabric, 0, 1);
    Time t = w.eng.now();
    co_await connect(w.fabric, 0, 1);
    EXPECT_EQ(w.eng.now(), t);  // second call is free
  }(w));
  w.eng.run();
  EXPECT_EQ(w.fabric.connections().total_setups(), 1);
}

TEST(ConnectionManager, ConcurrentEstablishersShareOneSetup) {
  World w(4);
  int completed = 0;
  for (int i = 0; i < 3; ++i) {
    w.eng.spawn([](World& w, int& n) -> Task<void> {
      co_await connect(w.fabric, 2, 3);
      ++n;
    }(w, completed));
  }
  w.eng.run();
  EXPECT_EQ(completed, 3);
  EXPECT_EQ(w.fabric.connections().total_setups(), 1);
}

TEST(ConnectionManager, SymmetricKeyMeansEitherSideSeesSameConnection) {
  World w(4);
  w.eng.spawn([](World& w) -> Task<void> {
    co_await connect(w.fabric, 1, 0);
  }(w));
  w.eng.run();
  EXPECT_TRUE(w.fabric.connections().connected(0, 1));
  EXPECT_TRUE(w.fabric.connections().connected(1, 0));
}

TEST(ConnectionManager, DisconnectTearsDownAndCounts) {
  World w(4);
  w.eng.spawn([](World& w) -> Task<void> {
    co_await connect(w.fabric, 0, 1);
    co_await w.fabric.connections().disconnect(0, 1);
  }(w));
  w.eng.run();
  EXPECT_EQ(w.fabric.connections().state(0, 1), ConnState::kDisconnected);
  EXPECT_EQ(w.fabric.connections().total_teardowns(), 1);
}

TEST(ConnectionManager, DisconnectOnDisconnectedIsNoop) {
  World w(4);
  w.eng.spawn([](World& w) -> Task<void> {
    co_await w.fabric.connections().disconnect(0, 1);
  }(w));
  w.eng.run();
  EXPECT_EQ(w.fabric.connections().total_teardowns(), 0);
}

TEST(ConnectionManager, ReconnectAfterDisconnectWorks) {
  World w(4);
  w.eng.spawn([](World& w) -> Task<void> {
    co_await connect(w.fabric, 0, 1);
    co_await w.fabric.connections().disconnect(0, 1);
    co_await connect(w.fabric, 0, 1);
  }(w));
  w.eng.run();
  EXPECT_TRUE(w.fabric.connections().connected(0, 1));
  EXPECT_EQ(w.fabric.connections().total_setups(), 2);
}

TEST(ConnectionManager, LockedEndpointBlocksEstablishment) {
  World w(4);
  w.fabric.connections().lock_endpoint(1);
  Time done_at = -1;
  w.eng.spawn([](World& w, Time& at) -> Task<void> {
    co_await connect(w.fabric, 0, 1);
    at = w.eng.now();
  }(w, done_at));
  w.eng.schedule_at(sim::from_milliseconds(50),
                    [&] { w.fabric.connections().unlock_endpoint(1); });
  w.eng.run();
  EXPECT_EQ(done_at, sim::from_milliseconds(50) + w.cfg.oob_exchange +
                         w.cfg.qp_transition);
}

TEST(ConnectionManager, ConnectedPeersListsEstablishedNeighbours) {
  World w(5);
  w.eng.spawn([](World& w) -> Task<void> {
    co_await connect(w.fabric, 2, 0);
    co_await connect(w.fabric, 2, 4);
    co_await connect(w.fabric, 1, 3);
  }(w));
  w.eng.run();
  EXPECT_EQ(w.fabric.connections().connected_peers(2),
            (std::vector<int>{0, 4}));
  EXPECT_EQ(w.fabric.connections().established_count(), 3);
}

TEST(Fabric, EagerPacketArrivesAfterOverheadTransferAndLatency) {
  World w(2);
  Time arrived_at = -1;
  Bytes got = 0;
  w.fabric.set_receiver(1, [&](Packet& p) {
    arrived_at = w.eng.now();
    got = p.bytes;
  });
  w.eng.spawn([](World& w) -> Task<void> {
    co_await connect(w.fabric, 0, 1);
    w.fabric.transmit(
        Packet{0, 1, 1024, PacketKind::kEager, 7, nullptr});
  }(w));
  w.eng.run();
  const double bps = w.cfg.link_bandwidth_mbps * 1024.0 * 1024.0;
  const Time expect =
      w.cfg.oob_exchange + w.cfg.qp_transition + w.cfg.per_message_overhead +
      static_cast<Time>(1024.0 / bps * 1e9) + w.cfg.wire_latency;
  EXPECT_NEAR(static_cast<double>(arrived_at), static_cast<double>(expect), 2);
  EXPECT_EQ(got, 1024);
}

TEST(Fabric, NicSerializesBackToBackTransfers) {
  World w(2);
  std::vector<Time> arrivals;
  w.fabric.set_receiver(1, [&](Packet&) { arrivals.push_back(w.eng.now()); });
  w.eng.spawn([](World& w) -> Task<void> {
    co_await connect(w.fabric, 0, 1);
    for (int i = 0; i < 3; ++i) {
      w.fabric.transmit(Packet{0, 1, storage::mib(1), PacketKind::kRdmaData,
                               static_cast<std::uint64_t>(i), nullptr});
    }
  }(w));
  w.eng.run();
  ASSERT_EQ(arrivals.size(), 3u);
  // Each 1MiB transfer at 1250 MB/s takes 800us on the NIC; arrivals are
  // spaced by at least that.
  const Time gap = arrivals[1] - arrivals[0];
  EXPECT_NEAR(static_cast<double>(gap),
              1.0 / 1250.0 * 1e9 + static_cast<double>(w.cfg.per_message_overhead),
              1000.0);
  EXPECT_NEAR(static_cast<double>(arrivals[2] - arrivals[1]),
              static_cast<double>(gap), 1000.0);
}

TEST(Fabric, IndependentSendersDoNotSerializeWithEachOther) {
  World w(3);
  std::vector<Time> arrivals;
  w.fabric.set_receiver(2, [&](Packet&) { arrivals.push_back(w.eng.now()); });
  w.eng.spawn([](World& w) -> Task<void> {
    co_await connect(w.fabric, 0, 2);
    co_await connect(w.fabric, 1, 2);
    w.fabric.transmit(Packet{0, 2, storage::mib(8), PacketKind::kRdmaData, 0,
                             nullptr});
    w.fabric.transmit(Packet{1, 2, storage::mib(8), PacketKind::kRdmaData, 1,
                             nullptr});
  }(w));
  w.eng.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // Different source NICs: both arrive ~simultaneously.
  EXPECT_LT(arrivals[1] - arrivals[0], sim::from_microseconds(10));
}

TEST(Fabric, DrainWaitsForInFlightPackets) {
  World w(2);
  w.fabric.set_receiver(1, [](Packet&) {});
  Time drained_at = -1;
  w.eng.spawn([](World& w, Time& at) -> Task<void> {
    co_await connect(w.fabric, 0, 1);
    w.fabric.transmit(Packet{0, 1, storage::mib(4), PacketKind::kRdmaData, 0,
                             nullptr});
    Time sent = w.eng.now();
    co_await w.fabric.connections().drain(0, 1);
    at = w.eng.now();
    EXPECT_GT(at, sent);
  }(w, drained_at));
  w.eng.run();
  EXPECT_GT(drained_at, 0);
}

TEST(Fabric, DisconnectDrainsBeforeTeardown) {
  World w(2);
  Time delivered_at = -1;
  w.fabric.set_receiver(1, [&](Packet&) { delivered_at = w.eng.now(); });
  Time disconnected_at = -1;
  w.eng.spawn([](World& w, Time& at) -> Task<void> {
    co_await connect(w.fabric, 0, 1);
    w.fabric.transmit(Packet{0, 1, storage::mib(16), PacketKind::kRdmaData, 0,
                             nullptr});
    co_await w.fabric.connections().disconnect(0, 1);
    at = w.eng.now();
  }(w, disconnected_at));
  w.eng.run();
  EXPECT_GT(delivered_at, 0);
  EXPECT_GE(disconnected_at, delivered_at + w.cfg.teardown_cost);
}

Task<void> drain_from_zero(World& w, int peer, Time start, Time& done) {
  co_await w.eng.delay_until(start);
  co_await w.fabric.connections().drain(0, peer);
  done = w.eng.now();
}

// A drain ends exactly when the sender's last packet toward that peer has
// arrived. Each drain(0, p) is two RPCs from the service LP, one per
// endpoint, and every request and reply is one floor hop; peer p never sent
// anything, so its half is a bare round trip. Two drains from rank 0 run at
// once toward peers with different last arrivals. A third reaches rank 0 at
// the very instant a 0-byte packet lands (arrival = now + floor, the same
// instant as the drain request), which counts as arrived.
TEST(Fabric, DrainEndsAtEachPeersLastArrival) {
  World w(4);
  for (int r = 0; r < 4; ++r) w.fabric.set_receiver(r, [](Packet&) {});
  const NetConfig& c = w.cfg;
  const Time hop = c.floor_hop();
  const auto xfer = [&c](Bytes b) {
    const double bps =
        c.link_bandwidth_mbps * static_cast<double>(storage::kMiB);
    return static_cast<Time>(static_cast<double>(b) / bps *
                             static_cast<double>(sim::kSecond));
  };
  // Rank 0's NIC serializes A (to 1), B (to 2) and C (to 1) from t = 0.
  const Bytes a = storage::mib(1);
  const Bytes b = storage::mib(2);
  const Bytes cb = 4096;
  const Time done_a = c.per_message_overhead + xfer(a);
  const Time done_b = done_a + c.per_message_overhead + xfer(b);
  const Time done_c = done_b + c.per_message_overhead + xfer(cb);
  const Time last_to_1 = done_c + c.wire_latency;
  const Time last_to_2 = done_b + c.wire_latency;
  ASSERT_LT(last_to_2, last_to_1);
  ASSERT_GT(last_to_2, hop);  // still in flight when the requests land

  w.fabric.transmit(Packet{0, 1, a, PacketKind::kRdmaData, 0, nullptr});
  w.fabric.transmit(Packet{0, 2, b, PacketKind::kRdmaData, 1, nullptr});
  w.fabric.transmit(Packet{0, 1, cb, PacketKind::kEager, 2, nullptr});

  // The 0-byte packet leaves an idle NIC at t3, with the third drain.
  const Time t3 = sim::from_milliseconds(10);
  ASSERT_GT(t3, last_to_1 + 3 * hop);
  w.eng.schedule_at(t3, [&w] {
    w.fabric.transmit(Packet{0, 3, 0, PacketKind::kEager, 3, nullptr});
  });

  Time drained_1 = -1;
  Time drained_2 = -1;
  Time drained_3 = -1;
  w.eng.spawn(drain_from_zero(w, 1, 0, drained_1));
  w.eng.spawn(drain_from_zero(w, 2, 0, drained_2));
  w.eng.spawn(drain_from_zero(w, 3, t3, drained_3));
  w.eng.run();

  EXPECT_EQ(drained_2, last_to_2 + 3 * hop);
  EXPECT_EQ(drained_1, last_to_1 + 3 * hop);
  EXPECT_EQ(drained_3, t3 + 4 * hop);
}

TEST(Fabric, TrafficMatrixIsSymmetricAndCountsDataPlaneOnly) {
  World w(3);
  w.fabric.set_receiver(1, [](Packet&) {});
  w.fabric.set_receiver(2, [](Packet&) {});
  w.eng.spawn([](World& w) -> Task<void> {
    co_await connect(w.fabric, 0, 1);
    w.fabric.transmit(Packet{0, 1, 1000, PacketKind::kEager, 0, nullptr});
    w.fabric.transmit(Packet{0, 1, 500, PacketKind::kEager, 1, nullptr});
  }(w));
  w.eng.run();
  EXPECT_EQ(w.fabric.bytes_between(0, 1), 1500);
  EXPECT_EQ(w.fabric.bytes_between(1, 0), 1500);
  EXPECT_EQ(w.fabric.messages_between(0, 1), 2);
}

// Per-pair accounting lives in each sender's sparse per-peer records; the
// pair, row and matrix views must read exactly the traffic sent, with zeros
// for every pair that never exchanged data-plane packets.
TEST(Fabric, PerPeerTrafficMatchesFixedSendPattern) {
  World w(4);
  for (int r = 0; r < 4; ++r) w.fabric.set_receiver(r, [](Packet&) {});
  w.fabric.transmit(Packet{0, 1, 1000, PacketKind::kEager, 0, nullptr});
  w.fabric.transmit(Packet{0, 1, 500, PacketKind::kRts, 1, nullptr});
  w.fabric.transmit(Packet{1, 0, 200, PacketKind::kCts, 2, nullptr});
  w.fabric.transmit(Packet{2, 3, 4096, PacketKind::kRdmaData, 3, nullptr});
  w.fabric.transmit(Packet{3, 1, 64, PacketKind::kFin, 4, nullptr});
  w.eng.run();

  EXPECT_EQ(w.fabric.bytes_between(0, 1), 1700);
  EXPECT_EQ(w.fabric.bytes_between(1, 0), 1700);
  EXPECT_EQ(w.fabric.messages_between(0, 1), 3);
  EXPECT_EQ(w.fabric.bytes_between(2, 3), 4096);
  EXPECT_EQ(w.fabric.messages_between(3, 2), 1);
  EXPECT_EQ(w.fabric.bytes_between(1, 3), 64);
  EXPECT_EQ(w.fabric.messages_between(1, 3), 1);
  EXPECT_EQ(w.fabric.bytes_between(0, 3), 0);  // never talked
  EXPECT_EQ(w.fabric.messages_between(0, 3), 0);

  using Row = std::vector<std::int64_t>;
  EXPECT_EQ(w.fabric.copy_traffic_row(0), (Row{0, 1500, 0, 0}));
  EXPECT_EQ(w.fabric.copy_traffic_row(1), (Row{200, 0, 0, 0}));
  EXPECT_EQ(w.fabric.copy_traffic_row(2), (Row{0, 0, 0, 4096}));
  EXPECT_EQ(w.fabric.copy_traffic_row(3), (Row{0, 64, 0, 0}));
  EXPECT_EQ(w.fabric.traffic_matrix(), (Row{0, 1700, 0, 0,       //
                                            1700, 0, 0, 64,      //
                                            0, 0, 0, 4096,       //
                                            0, 64, 4096, 0}));
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      EXPECT_TRUE(w.fabric.outbound_drained(a, b)) << a << "->" << b;
    }
  }
}

// No per-pair state is dense: a 16k-endpoint fabric builds without the
// 4 GiB n x n matrices and still accounts a send exactly.
TEST(Fabric, SixteenKEndpointFabricCountsOneSend) {
  constexpr int kN = 16384;
  World w(kN);
  w.fabric.set_receiver(kN - 1, [](Packet&) {});
  w.fabric.transmit(Packet{0, kN - 1, 4096, PacketKind::kEager, 0, nullptr});
  w.eng.run();
  EXPECT_EQ(w.fabric.bytes_between(0, kN - 1), 4096);
  EXPECT_EQ(w.fabric.messages_between(kN - 1, 0), 1);
  EXPECT_EQ(w.fabric.bytes_between(1, 2), 0);
  const std::vector<std::int64_t> row = w.fabric.copy_traffic_row(0);
  ASSERT_EQ(row.size(), static_cast<std::size_t>(kN));
  EXPECT_EQ(row[kN - 1], 4096);
  EXPECT_EQ(std::count(row.begin(), row.end(), 0), kN - 1);
}

TEST(Fabric, PayloadBodyTravelsIntact) {
  World w(2);
  WireBody received;
  w.fabric.set_receiver(1, [&](Packet& p) { received = std::move(p.body); });
  WireBody body = WireBody::make<std::vector<int>>(std::vector<int>{1, 2, 3});
  w.eng.spawn([](World& w, WireBody b) -> Task<void> {
    co_await connect(w.fabric, 0, 1);
    w.fabric.transmit(Packet{0, 1, 12, PacketKind::kEager, 0, std::move(b)});
  }(w, std::move(body)));
  w.eng.run();
  ASSERT_FALSE(received.empty());
  EXPECT_EQ(received.get<std::vector<int>>(), (std::vector<int>{1, 2, 3}));
}

}  // namespace
}  // namespace gbc::net
