#include "storage/erasure.hpp"

#include <stdexcept>
#include <string>

#include "sim/join.hpp"
#include "storage/tiers.hpp"

namespace gbc::storage {

const char* erasure_codec_name(ErasureCodec c) {
  return c == ErasureCodec::kXor ? "xor" : "rs";
}

void ErasureTier::validate(const ErasureConfig& cfg, int nnodes) {
  if (cfg.k < 1) throw std::invalid_argument("erasure: k must be >= 1");
  if (cfg.m < 0) throw std::invalid_argument("erasure: m must be >= 0");
  if (cfg.group_stride < 1) {
    throw std::invalid_argument("erasure: group_stride must be >= 1");
  }
  if (cfg.k + cfg.m > 256) {
    throw std::invalid_argument(
        "erasure: k+m must be <= 256 (GF(256) symbol limit)");
  }
  if (cfg.codec == ErasureCodec::kXor && cfg.m != 1) {
    throw std::invalid_argument("erasure: the xor codec requires m == 1");
  }
  if (cfg.k + cfg.m > nnodes - 1) {
    throw std::invalid_argument(
        "erasure: k+m chunks need k+m distinct nodes besides the home node "
        "(k+m <= nnodes-1); got k+m=" +
        std::to_string(cfg.k + cfg.m) + " with " + std::to_string(nnodes) +
        " nodes");
  }
}

ErasureTier::ErasureTier(ErasureConfig cfg, int nnodes, int replica_offset)
    : cfg_(cfg), nnodes_(nnodes), replica_offset_(replica_offset) {
  validate(cfg_, nnodes_);
  stats_.resize(static_cast<std::size_t>(nnodes_));
}

std::vector<int> ErasureTier::parity_group(int node) const {
  const int n = nnodes_;
  const int want = cfg_.k + cfg_.m;
  const int partner = (node + replica_offset_) % n;
  std::vector<int> group;
  group.reserve(static_cast<std::size_t>(want));
  std::vector<char> taken(static_cast<std::size_t>(n), 0);
  taken[static_cast<std::size_t>(node)] = 1;  // never the home node
  // Two passes over the candidate walk: first skipping the replica
  // partner, then (only if the cluster is too small to afford that)
  // admitting it. The walk itself is the stride ring followed by a linear
  // sweep, so non-coprime strides still cover every node.
  for (int pass = 0; pass < 2 && static_cast<int>(group.size()) < want;
       ++pass) {
    auto consider = [&](int cand) {
      if (static_cast<int>(group.size()) >= want) return;
      if (taken[static_cast<std::size_t>(cand)]) return;
      if (pass == 0 && cand == partner && n - 2 >= want) return;
      taken[static_cast<std::size_t>(cand)] = 1;
      group.push_back(cand);
    };
    for (int s = 1; s < n; ++s) consider((node + s * cfg_.group_stride) % n);
    for (int s = 1; s < n; ++s) consider((node + s) % n);
  }
  return group;
}

sim::Time ErasureTier::encode_time(const ErasureConfig& cfg, Bytes image) {
  if (cfg.codec == ErasureCodec::kXor) {
    return transfer_time(image, cfg.xor_mbps);
  }
  return transfer_time(image * cfg.m, cfg.encode_mbps);
}

sim::Time ErasureTier::decode_time(const ErasureConfig& cfg, Bytes image,
                                   int data_erasures) {
  if (data_erasures <= 0) return 0;
  const Bytes chunk = (image + cfg.k - 1) / cfg.k;
  const Bytes rebuilt = chunk * data_erasures * cfg.k;
  if (cfg.codec == ErasureCodec::kXor) {
    return transfer_time(rebuilt, cfg.xor_mbps);
  }
  const double k3 = static_cast<double>(cfg.k) * cfg.k * cfg.k;
  const auto invert = static_cast<sim::Time>(k3 * cfg.invert_ns_per_gf_op *
                                             (sim::kMicrosecond / 1000.0));
  return invert + transfer_time(rebuilt, cfg.decode_mbps);
}

sim::Task<void> ErasureTier::place_chunk(sim::Engine& eng, int node, int dst,
                                         Bytes bytes, std::uint64_t image_id,
                                         int chunk, ErasureChunks* out,
                                         const Transport& transport) {
  co_await transport(node, dst, bytes);
  out->done_at[static_cast<std::size_t>(chunk)] = eng.now();
  NodeStats& st = stats_[static_cast<std::size_t>(node)];
  ++st.chunks_placed;
  st.chunk_bytes_sent += bytes;
  if (trace_) {
    trace_->add(eng.now(), node, "ec-chunk",
                "img=" + std::to_string(image_id) + " c=" +
                    std::to_string(chunk) + " to=" + std::to_string(dst));
  }
}

sim::Task<void> ErasureTier::protect(sim::Engine& eng, int node, Bytes image,
                                     std::uint64_t image_id,
                                     ErasureChunks* out,
                                     const Transport& transport) {
  out->k = cfg_.k;
  out->m = cfg_.m;
  out->chunk_bytes = chunk_bytes(image);
  out->nodes = parity_group(node);
  out->done_at.assign(out->nodes.size(), -1);
  if (trace_) {
    trace_->add(eng.now(), node, "ec-encode",
                "begin img=" + std::to_string(image_id) + " " +
                    erasure_codec_name(cfg_.codec) + "(" +
                    std::to_string(cfg_.k) + "," + std::to_string(cfg_.m) +
                    ")");
  }
  // The frozen rank computes the parity chunks...
  co_await eng.delay(encode_time(image));
  // ...then the stripe fans out to the parity group concurrently; the home
  // node's single staging lane serializes the actual wire occupancy.
  sim::JoinSet scatter(eng);
  for (std::size_t c = 0; c < out->nodes.size(); ++c) {
    scatter.launch(place_chunk(eng, node, out->nodes[c], out->chunk_bytes,
                               image_id, static_cast<int>(c), out,
                               transport));
  }
  co_await scatter.join();
  out->encoded_at = eng.now();
  ++stats_[static_cast<std::size_t>(node)].images_encoded;
  if (trace_) {
    trace_->add(eng.now(), node, "ec-encode",
                "end img=" + std::to_string(image_id));
  }
}

}  // namespace gbc::storage
