// Erasure tier unit tests: config validation, parity-group placement
// policy, the encode/decode cost model, the protect() scatter, and the
// decodability predicate the recovery path queries through the ledger.
#include "storage/erasure.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "storage/storage.hpp"
#include "storage/tiers.hpp"
#include "tier_world.hpp"

namespace gbc::storage {
namespace {

using testing::TierWorld;

using sim::Engine;
using sim::Task;
using sim::Time;

ErasureConfig rs42() {
  ErasureConfig cfg;
  cfg.enabled = true;
  cfg.k = 4;
  cfg.m = 2;
  return cfg;
}

TEST(ErasureValidate, RejectsUnusableConfigs) {
  auto bad_k = rs42();
  bad_k.k = 0;
  EXPECT_THROW(ErasureTier(bad_k, 16, 1), std::invalid_argument);
  auto bad_m = rs42();
  bad_m.m = -1;
  EXPECT_THROW(ErasureTier(bad_m, 16, 1), std::invalid_argument);
  auto bad_stride = rs42();
  bad_stride.group_stride = 0;
  EXPECT_THROW(ErasureTier(bad_stride, 16, 1), std::invalid_argument);
  auto bad_xor = rs42();
  bad_xor.codec = ErasureCodec::kXor;  // m == 2: xor cannot cover it
  EXPECT_THROW(ErasureTier(bad_xor, 16, 1), std::invalid_argument);
  auto too_wide = rs42();
  too_wide.k = 200;
  too_wide.m = 100;  // k+m > 256 GF symbols
  EXPECT_THROW(ErasureTier(too_wide, 512, 1), std::invalid_argument);
  // k+m = 6 needs 7 nodes (home node excluded): 6 nodes must be rejected,
  // 7 accepted.
  EXPECT_THROW(ErasureTier(rs42(), 6, 1), std::invalid_argument);
  EXPECT_NO_THROW(ErasureTier(rs42(), 7, 1));
}

TEST(ErasurePlacement, GroupExcludesHomeNodeAndReplicaPartner) {
  ErasureTier tier(rs42(), 16, /*replica_offset=*/1);
  for (int node = 0; node < 16; ++node) {
    const auto group = tier.parity_group(node);
    ASSERT_EQ(group.size(), 6u) << "node " << node;
    const std::set<int> uniq(group.begin(), group.end());
    EXPECT_EQ(uniq.size(), group.size()) << "node " << node;
    EXPECT_EQ(uniq.count(node), 0u) << "home node in its own group";
    EXPECT_EQ(uniq.count((node + 1) % 16), 0u)
        << "replica partner holds a chunk for node " << node;
    for (int holder : group) {
      EXPECT_GE(holder, 0);
      EXPECT_LT(holder, 16);
    }
  }
}

TEST(ErasurePlacement, PartnerAdmittedOnlyWhenClusterTooSmall) {
  // 7 nodes, k+m = 6: the group needs every node but the home one, so the
  // partner must be admitted (second pass).
  ErasureTier tight(rs42(), 7, 1);
  const auto group = tight.parity_group(0);
  ASSERT_EQ(group.size(), 6u);
  EXPECT_NE(std::find(group.begin(), group.end(), 1), group.end());
  // 8 nodes: one node of slack — the partner is skipped again.
  ErasureTier loose(rs42(), 8, 1);
  const auto group8 = loose.parity_group(0);
  ASSERT_EQ(group8.size(), 6u);
  EXPECT_EQ(std::find(group8.begin(), group8.end(), 1), group8.end());
}

TEST(ErasurePlacement, NonCoprimeStrideStillFillsTheGroup) {
  auto cfg = rs42();
  cfg.group_stride = 4;  // gcd(4, 16) = 4: the stride ring alone only
                         // reaches 3 other nodes; the linear sweep must
                         // supply the rest.
  ErasureTier tier(cfg, 16, 1);
  const auto group = tier.parity_group(0);
  ASSERT_EQ(group.size(), 6u);
  const std::set<int> uniq(group.begin(), group.end());
  EXPECT_EQ(uniq.size(), 6u);
  EXPECT_EQ(uniq.count(0), 0u);
  // The stride ring members come first (failure-domain spreading).
  EXPECT_EQ(group[0], 4);
  EXPECT_EQ(group[1], 8);
  EXPECT_EQ(group[2], 12);
}

TEST(ErasureCost, EncodeTimeFollowsTheCodecModel) {
  auto cfg = rs42();
  // RS: one full-image pass per parity chunk. 64 MiB * 2 / 2400 MB/s.
  EXPECT_NEAR(sim::to_seconds(ErasureTier::encode_time(cfg, mib(64))),
              128.0 / 2400.0, 1e-6);
  cfg.m = 1;
  cfg.codec = ErasureCodec::kXor;
  // XOR: one pass at xor_mbps regardless of image split.
  EXPECT_NEAR(sim::to_seconds(ErasureTier::encode_time(cfg, mib(64))),
              64.0 / 4000.0, 1e-6);
}

TEST(ErasureCost, DecodeFreeWithoutDataErasuresPricedDegraded) {
  const auto cfg = rs42();
  EXPECT_EQ(ErasureTier::decode_time(cfg, mib(64), 0), 0);
  EXPECT_EQ(ErasureTier::decode_time(cfg, mib(64), -3), 0);
  // Degraded read: rebuilt bytes = chunk * erasures * k, plus the ~k^3
  // GF-op inversion. chunk = 16 MiB, 2 erasures -> 128 MiB at 1600 MB/s.
  const double invert_s = 4.0 * 4.0 * 4.0 * cfg.invert_ns_per_gf_op * 1e-9;
  EXPECT_NEAR(sim::to_seconds(ErasureTier::decode_time(cfg, mib(64), 2)),
              128.0 / 1600.0 + invert_s, 1e-6);
  // Strictly monotonic in the number of erased data chunks.
  EXPECT_LT(ErasureTier::decode_time(cfg, mib(64), 1),
            ErasureTier::decode_time(cfg, mib(64), 2));
}

TEST(ErasureProtect, ScattersOneChunkToEachGroupMember) {
  Engine eng;
  ErasureTier tier(rs42(), 16, 1);
  ErasureChunks ec;
  std::vector<std::pair<int, int>> sends;  // (src, dst)
  Bytes sent_bytes = 0;
  const ErasureTier::Transport transport = [&](int src, int dst,
                                               Bytes b) -> Task<void> {
    sends.emplace_back(src, dst);
    sent_bytes += b;
    co_await eng.delay(sim::kSecond);
  };
  eng.spawn([](Engine& e, ErasureTier& t, ErasureChunks& out,
               const ErasureTier::Transport& tr) -> Task<void> {
    co_await t.protect(e, 5, mib(64), 1, &out, tr);
  }(eng, tier, ec, transport));
  eng.run();

  ASSERT_TRUE(ec.active());
  EXPECT_EQ(ec.k, 4);
  EXPECT_EQ(ec.m, 2);
  EXPECT_EQ(ec.chunk_bytes, mib(16));
  EXPECT_EQ(ec.nodes, tier.parity_group(5));
  ASSERT_EQ(sends.size(), 6u);
  for (std::size_t c = 0; c < sends.size(); ++c) {
    EXPECT_EQ(sends[c].first, 5);
    EXPECT_EQ(sends[c].second, ec.nodes[c]);
    EXPECT_GE(ec.done_at[c], 0);
  }
  EXPECT_EQ(sent_bytes, 6 * mib(16));
  // Encode happens first, then the 1 s scatters run in parallel.
  const auto encode = tier.encode_time(mib(64));
  EXPECT_EQ(ec.encoded_at, encode + sim::kSecond);
  EXPECT_EQ(tier.images_encoded(), 1);
  EXPECT_EQ(tier.chunks_placed(), 6);
  EXPECT_EQ(tier.chunk_bytes_sent(), 6 * mib(16));
}

TEST(ErasureLedger, DecodableWhileAtLeastKChunksSurvive) {
  TierConfig tc;
  tc.enabled = true;
  tc.drain_mbps = 0;
  tc.erasure = rs42();
  TierWorld w(tc, 16);
  TieredStore& store = w.tier;
  ASSERT_NE(store.erasure(), nullptr);
  std::uint64_t id = 0;
  w.eng.spawn([](TieredStore& t, std::uint64_t& out) -> Task<void> {
    out = co_await t.snapshot(1, mib(64));
  }(store, id));
  w.eng.run();
  const auto* img = store.find(id);
  ASSERT_NE(img, nullptr);
  ASSERT_TRUE(img->ec.active());
  EXPECT_GE(img->ec.encoded_at, 0);

  std::vector<char> failed(16, 0);
  EXPECT_TRUE(TieredStore::erasure_decodable(*img, failed));
  // Losing any m = 2 chunk holders still leaves k = 4 survivors...
  failed[static_cast<std::size_t>(img->ec.nodes[0])] = 1;
  failed[static_cast<std::size_t>(img->ec.nodes[3])] = 1;
  EXPECT_TRUE(TieredStore::erasure_decodable(*img, failed));
  // ...the home node dying changes nothing (it holds no chunk)...
  failed[1] = 1;
  EXPECT_TRUE(TieredStore::erasure_decodable(*img, failed));
  // ...but a third chunk loss drops the stripe below k.
  failed[static_cast<std::size_t>(img->ec.nodes[5])] = 1;
  EXPECT_FALSE(TieredStore::erasure_decodable(*img, failed));

  // Replica predicate stays consistent across both overloads.
  EXPECT_FALSE(TieredStore::replica_available(*img, failed));
  EXPECT_FALSE(TieredStore::replica_available(*img, /*failed_node=*/2));
}

TEST(ErasureLedger, DisabledErasureLeavesImagesUnprotected) {
  TierConfig tc;
  tc.enabled = true;
  tc.drain_mbps = 0;
  TierWorld w(tc, 16);
  TieredStore& store = w.tier;
  EXPECT_EQ(store.erasure(), nullptr);
  std::uint64_t id = 0;
  w.eng.spawn([](TieredStore& t, std::uint64_t& out) -> Task<void> {
    out = co_await t.snapshot(0, mib(64));
  }(store, id));
  w.eng.run();
  const auto* img = store.find(id);
  ASSERT_NE(img, nullptr);
  EXPECT_FALSE(img->ec.active());
  EXPECT_FALSE(TieredStore::erasure_decodable(*img, std::vector<char>(16, 0)));
  EXPECT_EQ(store.images_encoded(), 0);
  EXPECT_EQ(store.ec_chunks_placed(), 0);
}

}  // namespace
}  // namespace gbc::storage
