#include "storage/tiers.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "storage/storage.hpp"
#include "tier_world.hpp"

namespace gbc::storage {
namespace {

using sim::Engine;
using sim::Task;
using sim::Time;
using Fixture = testing::TierWorld;

TierConfig tier_config() {
  TierConfig tc;
  tc.enabled = true;
  tc.local_write_mbps = 400.0;
  tc.local_read_mbps = 600.0;
  tc.drain_mbps = 50.0;
  tc.drain_chunk_mib = 16.0;
  return tc;
}

/// Runs `tier.snapshot(node, bytes)` and the engine to completion — which
/// includes any background drain it started — and returns (id, seconds).
std::pair<std::uint64_t, double> timed_snapshot(Fixture& f, int node,
                                                Bytes bytes) {
  std::uint64_t id = 0;
  Time done_at = -1;
  f.eng.spawn([](TieredStore& t, int n, Bytes b, Engine& e, std::uint64_t& out,
                 Time& at) -> Task<void> {
    out = co_await t.snapshot(n, b);
    at = e.now();
  }(f.tier, node, bytes, f.eng, id, done_at));
  f.eng.run();
  return {id, sim::to_seconds(done_at)};
}

TEST(TieredStore, LocalWriteTakesLocalBandwidthTime) {
  auto tc = tier_config();
  tc.drain_mbps = 0;  // isolate the foreground write
  Fixture f(tc, 4);
  auto [id, secs] = timed_snapshot(f, 0, mib(400));
  // 400 MiB at 400 MB/s = 1 s, far below any PFS write time.
  EXPECT_NEAR(secs, 1.0, 1e-6);
  const auto* img = f.tier.find(id);
  ASSERT_NE(img, nullptr);
  EXPECT_TRUE(TieredStore::local_available(*img));
  EXPECT_FALSE(TieredStore::pfs_durable(*img));
  EXPECT_EQ(f.tier.local_used(0), mib(400));
}

TEST(TieredStore, ConcurrentNodesDoNotContend) {
  auto tc = tier_config();
  tc.drain_mbps = 0;
  Fixture f(tc, 4);
  std::vector<Time> done(4, -1);
  for (int n = 0; n < 4; ++n) {
    f.eng.spawn([](TieredStore& t, int node, Engine& e,
                   Time& at) -> Task<void> {
      co_await t.snapshot(node, mib(400));
      at = e.now();
    }(f.tier, n, f.eng, done[n]));
  }
  f.eng.run();
  // Each node has its own disk: all four finish at the 1-client time.
  for (int n = 0; n < 4; ++n) {
    EXPECT_NEAR(sim::to_seconds(done[n]), 1.0, 1e-6) << "node " << n;
  }
}

TEST(TieredStore, SameNodeWritesSerializeOnTheLocalDisk) {
  auto tc = tier_config();
  tc.drain_mbps = 0;
  Fixture f(tc, 2);
  Time done = -1;
  for (int i = 0; i < 2; ++i) {
    f.eng.spawn([](TieredStore& t, Engine& e, Time& at) -> Task<void> {
      co_await t.snapshot(0, mib(400));
      at = e.now();
    }(f.tier, f.eng, done));
  }
  f.eng.run();
  EXPECT_NEAR(sim::to_seconds(done), 2.0, 1e-6);
}

TEST(TieredStore, DrainPacedByDrainRateWhenPfsIsFaster) {
  auto tc = tier_config();
  tc.drain_mbps = 16.0;  // well under the 108 MB/s single-client PFS share
  Fixture f(tc, 2);
  auto [id, write_secs] = timed_snapshot(f, 0, mib(64));
  (void)write_secs;
  ASSERT_EQ(f.tier.images_drained(), 1);
  const Time drained_at = f.tier.find(id)->drained_at;
  // 64 MiB at 16 MB/s = 4 s of draining after the 0.16 s local write.
  EXPECT_NEAR(sim::to_seconds(drained_at), 0.16 + 4.0, 0.05);
  EXPECT_TRUE(TieredStore::pfs_durable(*f.tier.find(id)));
}

TEST(TieredStore, DrainLimitedByPfsFairShareWhenRateIsHigher) {
  auto tc = tier_config();
  tc.drain_mbps = 10000.0;  // ask for more than the PFS can give
  Fixture f(tc, 2);
  const std::uint64_t id = timed_snapshot(f, 0, mib(108)).first;
  const Time drained_at = f.tier.find(id)->drained_at;
  // 108 MiB through the PFS at the 108 MB/s single-client cap: ~1 s after
  // the local write, no faster no matter what drain rate was requested.
  EXPECT_NEAR(sim::to_seconds(drained_at), 0.27 + 1.0, 0.05);
}

TEST(TieredStore, CapacityEvictsOnlyDrainedImages) {
  auto tc = tier_config();
  tc.local_capacity_mib = 100.0;
  tc.drain_mbps = 50.0;
  Fixture f(tc, 2);
  // The run lets the first image finish draining (64 MiB / 50 MBps =
  // 1.28 s).
  auto [id1, s1] = timed_snapshot(f, 0, mib(64));
  ASSERT_TRUE(TieredStore::pfs_durable(*f.tier.find(id1)));
  // The second image needs the space: the drained one is evicted.
  auto [id2, s2] = timed_snapshot(f, 0, mib(64));
  EXPECT_TRUE(f.tier.find(id1)->evicted);
  EXPECT_FALSE(TieredStore::local_available(*f.tier.find(id1)));
  EXPECT_TRUE(TieredStore::local_available(*f.tier.find(id2)));
  EXPECT_EQ(f.tier.images_evicted(), 1);
  EXPECT_EQ(f.tier.local_used(0), mib(64));
}

TEST(TieredStore, FullOfUndrainedImagesWritesThroughToPfs) {
  auto tc = tier_config();
  tc.local_capacity_mib = 100.0;
  tc.drain_mbps = 0;  // nothing ever becomes evictable
  Fixture f(tc, 2);
  timed_snapshot(f, 0, mib(64));
  auto [id2, s2] = timed_snapshot(f, 0, mib(64));
  const auto* img2 = f.tier.find(id2);
  EXPECT_FALSE(img2->local);
  EXPECT_TRUE(TieredStore::pfs_durable(*img2));  // it went straight to PFS
  EXPECT_EQ(f.tier.write_throughs(), 1);
  // PFS write of 64 MiB at 108 MB/s is much slower than the local 0.16 s.
  EXPECT_GT(s2, 0.5);
}

TEST(TieredStore, ReplicationUsesInstalledTransport) {
  auto tc = tier_config();
  tc.drain_mbps = 0;
  tc.replicate = true;
  tc.replica_offset = 1;
  int calls = 0, got_src = -1, got_dst = -1;
  Bytes got_bytes = 0;
  Engine* eng = nullptr;  // the transport runs only after f is built
  Fixture f(tc, 4, [&](int src, int dst, Bytes b) -> Task<void> {
    ++calls;
    got_src = src;
    got_dst = dst;
    got_bytes = b;
    co_await eng->delay(2 * sim::kSecond);
  });
  eng = &f.eng;
  auto [id, secs] = timed_snapshot(f, 1, mib(64));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(got_src, 1);
  EXPECT_EQ(got_dst, 2);
  EXPECT_EQ(got_bytes, mib(64));
  const auto* img = f.tier.find(id);
  EXPECT_EQ(img->partner, 2);
  EXPECT_TRUE(TieredStore::replica_available(*img, /*failed_node=*/1));
  EXPECT_FALSE(TieredStore::replica_available(*img, /*failed_node=*/2));
  EXPECT_EQ(f.tier.replicas_made(), 1);
  // Snapshot completion waits for the replica: 0.16 s write + 2 s copy.
  EXPECT_NEAR(secs, 2.16, 0.01);
}

TEST(TieredStore, PauseStallsDrainUntilResume) {
  auto tc = tier_config();
  tc.drain_mbps = 64.0;
  tc.drain_chunk_mib = 64.0;  // single chunk: pause acts at the start
  Fixture f(tc, 2);
  f.tier.pause_drain(0);
  const std::uint64_t id = timed_snapshot(f, 0, mib(64)).first;
  EXPECT_EQ(f.tier.images_drained(), 0);
  EXPECT_EQ(f.tier.drain_backlog(), 1);
  f.eng.spawn([](TieredStore& t, Engine& e) -> Task<void> {
    co_await e.delay(10 * sim::kSecond);
    t.resume_drain(0);
  }(f.tier, f.eng));
  f.eng.run();
  EXPECT_EQ(f.tier.images_drained(), 1);
  // Resume fires 10 s after the 0.16 s local write; drain then takes 1 s.
  EXPECT_NEAR(sim::to_seconds(f.tier.find(id)->drained_at), 11.16, 0.05);
}

// Running the cluster to quiescence drains every node's queue.
TEST(TieredStore, QuiesceDrainsAllNodes) {
  auto tc = tier_config();
  tc.drain_mbps = 50.0;
  Fixture f(tc, 4);
  for (int n = 0; n < 4; ++n) {
    const std::uint64_t id = timed_snapshot(f, n, mib(32)).first;
    EXPECT_TRUE(TieredStore::pfs_durable(*f.tier.find(id))) << "node " << n;
  }
  EXPECT_EQ(f.tier.images_drained(), 4);
  EXPECT_EQ(f.tier.drain_backlog(), 0);
  EXPECT_EQ(f.tier.drain_tasks_running(), 0);
}

}  // namespace
}  // namespace gbc::storage
