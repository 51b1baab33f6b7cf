#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"
#include "storage/storage.hpp"

namespace gbc::storage {

/// Which code protects the scattered chunks.
enum class ErasureCodec : std::uint8_t {
  /// GF(256) Reed-Solomon with a systematic Cauchy generator (gf256.hpp):
  /// survives any m concurrent chunk losses.
  kRs,
  /// Single XOR parity — the cheap path, only valid for m == 1.
  kXor,
};

const char* erasure_codec_name(ErasureCodec c);

/// Diskless erasure-coded memory tier (ReStore-style), layered on the
/// node-local staging tier: each checkpoint image is split into k data
/// chunks, encoded into m parity chunks, and the k+m chunk stripe is
/// scattered across a parity group of distinct remote nodes. Recovery then
/// needs no PFS read at all and survives m concurrent node losses.
/// Disabled by default: every existing experiment is bit-identical.
struct ErasureConfig {
  bool enabled = false;
  int k = 4;  ///< data chunks per image
  int m = 2;  ///< parity chunks (erasures survivable)
  ErasureCodec codec = ErasureCodec::kRs;
  /// Node spacing when walking the ring to pick the parity group; > 1
  /// spreads a group across racks/failure domains in stride steps.
  int group_stride = 1;

  // --- cost model (DESIGN.md §14) ---
  /// GF(256) multiply-accumulate throughput of one node's encoder (MB/s of
  /// parity produced per full-image pass); each parity chunk costs one
  /// pass, so RS encode time = image_bytes * m / encode_mbps.
  double encode_mbps = 2400.0;
  /// Plain-XOR throughput for the m=1 path (one pass over the image).
  double xor_mbps = 4000.0;
  /// Reconstruction throughput of a degraded read: each rebuilt byte is a
  /// k-term GF dot product, so decode time =
  /// chunk_bytes * data_erasures * k / decode_mbps.
  double decode_mbps = 1600.0;
  /// Cost of one GF op in the k x k Gauss-Jordan inversion that precedes
  /// reconstruction (~k^3 ops, nanoseconds each — priced, not rounded away).
  double invert_ns_per_gf_op = 4.0;

  /// Memory overhead of the stripe relative to the plain image.
  double overhead() const {
    return k > 0 ? static_cast<double>(k + m) / static_cast<double>(k) : 0.0;
  }
};

/// Per-image chunk ledger record: where each of the k+m chunks went and
/// when it landed. Lives inside TieredStore::ImageInfo so a detached
/// TierLedger can answer "still decodable given this dead-node set" after
/// the failed run is torn down.
struct ErasureChunks {
  int k = 0;  ///< 0 = image not erasure-coded
  int m = 0;
  Bytes chunk_bytes = 0;
  std::vector<int> nodes;          ///< holder of chunk i (size k+m)
  std::vector<sim::Time> done_at;  ///< chunk i landed, -1 in flight
  sim::Time encoded_at = -1;       ///< whole stripe placed

  bool active() const noexcept { return k > 0; }
};

/// The encode/placement half of the erasure tier. Owned by TieredStore; each
/// node protects its own images on its home shard's engine, and chunk
/// scatters ride the same fabric bulk lanes as partner replication, so
/// sharded runs stay event-for-event identical to serial ones
/// (DESIGN.md §14).
class ErasureTier {
 public:
  /// Same shape as TieredStore::Transport (fabric bulk_transfer).
  using Transport = std::function<sim::Task<void>(int src, int dst,
                                                  Bytes bytes)>;

  /// Throws std::invalid_argument on an unusable config (validate()).
  ErasureTier(ErasureConfig cfg, int nnodes, int replica_offset);
  /// The former signature, whose engine was never used. perfbench's
  /// fault-plan generator still builds a tier this way; remove this
  /// overload together with that call site.
  ErasureTier(sim::Engine&, ErasureConfig cfg, int nnodes, int replica_offset)
      : ErasureTier(cfg, nnodes, replica_offset) {}

  /// Config sanity: k >= 1, m >= 0, stride >= 1, k+m <= 256 (GF(256)
  /// symbol limit), XOR only for m == 1, and k+m <= nnodes-1 so a parity
  /// group never needs the home node. Throws std::invalid_argument.
  static void validate(const ErasureConfig& cfg, int nnodes);

  const ErasureConfig& config() const noexcept { return cfg_; }
  int nnodes() const noexcept { return nnodes_; }

  /// The k+m chunk holders for images written on `node`, in chunk order:
  /// a stride walk of the ring that never lands on the home node, and
  /// avoids the would-be replica partner (node + replica_offset) whenever
  /// enough other nodes exist — losing the partner pair must not cost both
  /// the replica and a chunk.
  std::vector<int> parity_group(int node) const;

  Bytes chunk_bytes(Bytes image) const {
    return (image + cfg_.k - 1) / cfg_.k;
  }

  sim::Time encode_time(Bytes image) const {
    return encode_time(cfg_, image);
  }
  static sim::Time encode_time(const ErasureConfig& cfg, Bytes image);
  /// Degraded-read compute cost: Gauss-Jordan inversion of the k x k
  /// submatrix plus reconstruction of `data_erasures` missing data chunks.
  /// Zero when every data chunk survived (pass-through systematic read).
  static sim::Time decode_time(const ErasureConfig& cfg, Bytes image,
                               int data_erasures);

  void set_trace(sim::Trace* trace) { trace_ = trace; }

  /// Encodes `image` bytes on `node` (GF or XOR compute time on the
  /// simulation clock), then scatters the k+m chunks to the parity group in
  /// parallel over `transport`, recording per-chunk placement/completion
  /// into `out`. Resolves when the whole stripe is placed. `eng` is the home
  /// node's engine — in a partitioned TieredStore each node protects its
  /// own images on its home shard, so all bookkeeping lands in that node's
  /// stat slot.
  sim::Task<void> protect(sim::Engine& eng, int node, Bytes image,
                          std::uint64_t image_id, ErasureChunks* out,
                          const Transport& transport);

  // --- stats (per-node slots, summed at quiescence) ---
  std::int64_t images_encoded() const noexcept {
    std::int64_t n = 0;
    for (const auto& s : stats_) n += s.images_encoded;
    return n;
  }
  std::int64_t chunks_placed() const noexcept {
    std::int64_t n = 0;
    for (const auto& s : stats_) n += s.chunks_placed;
    return n;
  }
  Bytes chunk_bytes_sent() const noexcept {
    Bytes n = 0;
    for (const auto& s : stats_) n += s.chunk_bytes_sent;
    return n;
  }

 private:
  /// Written only from the owning node's engine; aligned so two nodes'
  /// counters never share a cache line across shard threads.
  struct alignas(64) NodeStats {
    std::int64_t images_encoded = 0;
    std::int64_t chunks_placed = 0;
    Bytes chunk_bytes_sent = 0;
  };

  sim::Task<void> place_chunk(sim::Engine& eng, int node, int dst,
                              Bytes bytes, std::uint64_t image_id, int chunk,
                              ErasureChunks* out, const Transport& transport);

  ErasureConfig cfg_;
  int nnodes_;
  int replica_offset_;
  sim::Trace* trace_ = nullptr;
  std::vector<NodeStats> stats_;
};

}  // namespace gbc::storage
