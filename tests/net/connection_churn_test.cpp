// Connection-manager churn: the checkpoint protocols continuously tear
// down and rebuild specific connections while application traffic keeps
// flowing, so the state machine has to survive disconnects racing half-open
// establishments, duplicate establishment attempts, and repeated churn.
#include <gtest/gtest.h>

#include <vector>

#include "net/fabric.hpp"
#include "net_test_util.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace gbc::net {
namespace {

using sim::Task;
using sim::Time;

struct World : testing::NetWorld {
  using NetWorld::NetWorld;
  ConnectionManager& cm() { return fabric.connections(); }
};

TEST(ConnectionChurn, DisconnectWaitsOutInFlightEstablishment) {
  World w(2);
  Time connected_at = -1;
  Time disconnected_at = -1;
  w.eng.spawn([](World& w, Time& at) -> Task<void> {
    co_await w.cm().ensure_connected(0, 1);
    at = w.eng.now();
  }(w, connected_at));
  // Fired at t=0 too: observes kConnecting and must neither cancel the
  // establishment nor return early — it waits for kConnected, then drains
  // and tears down.
  w.eng.spawn([](World& w, Time& at) -> Task<void> {
    co_await w.cm().disconnect(0, 1);
    at = w.eng.now();
  }(w, disconnected_at));
  w.eng.run();
  const Time setup = w.cfg.oob_exchange + w.cfg.qp_transition;
  EXPECT_EQ(connected_at, setup);
  // The teardown is preceded by the pre-teardown drain: one RPC round trip
  // per endpoint (4 bus floors).
  EXPECT_EQ(disconnected_at,
            setup + 4 * w.cfg.floor_hop() + w.cfg.teardown_cost);
  EXPECT_EQ(w.cm().state(0, 1), ConnState::kDisconnected);
  EXPECT_EQ(w.cm().total_setups(), 1);
  EXPECT_EQ(w.cm().total_teardowns(), 1);
}

TEST(ConnectionChurn, SimultaneousEstablishmentsPerformOneSetup) {
  World w(2);
  std::vector<Time> done;
  // Both endpoints race ensure_connected on the same pair (client/server
  // crossing): exactly one pays for the establishment, the other joins it.
  for (int i = 0; i < 2; ++i) {
    w.eng.spawn([](World& w, std::vector<Time>& done) -> Task<void> {
      co_await w.cm().ensure_connected(0, 1);
      done.push_back(w.eng.now());
    }(w, done));
  }
  w.eng.run();
  const Time setup = w.cfg.oob_exchange + w.cfg.qp_transition;
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], setup);
  EXPECT_EQ(done[1], setup);
  EXPECT_EQ(w.cm().total_setups(), 1);
  EXPECT_TRUE(w.cm().connected(0, 1));
}

TEST(ConnectionChurn, EstablishmentDuringTeardownReconnects) {
  World w(2);
  bool reconnected = false;
  w.eng.spawn([](World& w, bool& re) -> Task<void> {
    co_await w.cm().ensure_connected(0, 1);
    // Start the teardown, then immediately ask for the connection again:
    // the request must wait out kDraining and re-establish from scratch.
    sim::Task<void> disc = w.cm().disconnect(0, 1);
    w.eng.spawn(std::move(disc));
    co_await w.cm().ensure_connected(0, 1);
    re = true;
  }(w, reconnected));
  w.eng.run();
  EXPECT_TRUE(reconnected);
  EXPECT_TRUE(w.cm().connected(0, 1));
  EXPECT_EQ(w.cm().total_setups(), 2);
  EXPECT_EQ(w.cm().total_teardowns(), 1);
}

TEST(ConnectionChurn, ConnectedPeersTrackChurn) {
  World w(4);
  w.eng.spawn([](World& w) -> Task<void> {
    co_await w.cm().ensure_connected(0, 1);
    co_await w.cm().ensure_connected(0, 2);
    co_await w.cm().ensure_connected(3, 0);  // order of endpoints irrelevant
    EXPECT_EQ(w.cm().connected_peers(0), (std::vector<int>{1, 2, 3}));
    co_await w.cm().disconnect(0, 2);
    EXPECT_EQ(w.cm().connected_peers(0), (std::vector<int>{1, 3}));
    co_await w.cm().ensure_connected(0, 2);  // rebuild after teardown
    co_await w.cm().disconnect(0, 3);
    EXPECT_EQ(w.cm().connected_peers(0), (std::vector<int>{1, 2}));
    EXPECT_EQ(w.cm().connected_peers(3), (std::vector<int>{}));
  }(w));
  w.eng.run();
  EXPECT_EQ(w.cm().established_count(), 2);
  EXPECT_EQ(w.cm().total_setups(), 4);
  EXPECT_EQ(w.cm().total_teardowns(), 2);
}

}  // namespace
}  // namespace gbc::net
