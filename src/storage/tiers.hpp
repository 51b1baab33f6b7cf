#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "sim/condition.hpp"
#include "sim/engine.hpp"
#include "sim/lp_bus.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"
#include "storage/erasure.hpp"
#include "storage/storage.hpp"

namespace gbc::storage {

class TierLedger;

/// Multi-level checkpoint staging knobs (FTI-style storage hierarchy in
/// front of the shared PFS). Disabled by default so every existing
/// experiment is bit-identical to the single-tier model.
struct TierConfig {
  bool enabled = false;

  /// Node-local tier (SSD/ramdisk): dedicated per-node bandwidth, no
  /// cross-node contention. Foreground snapshot writes land here.
  double local_write_mbps = 400.0;
  double local_read_mbps = 600.0;
  /// Per-node capacity (MiB). 0 = unbounded. Only images that finished
  /// draining to the PFS may be evicted to make room; when even eviction
  /// cannot free enough space, the write falls through to the PFS directly
  /// (paying the full shared-storage contention).
  double local_capacity_mib = 0.0;

  /// Background drain rate per node (MB/s) at which local images trickle to
  /// the shared PFS while computation continues. The actual rate is
  /// min(drain_mbps, this node's fair share of the PFS) since drain traffic
  /// moves through the real StorageSystem. 0 disables draining entirely
  /// (images stay local-only).
  double drain_mbps = 50.0;
  /// Drain granularity: each chunk is one PFS write, so foreground PFS
  /// traffic and the drain contend at chunk boundaries.
  double drain_chunk_mib = 16.0;

  /// Partner replication: each image is also copied to a buddy node over
  /// the fabric, so a single node loss cannot destroy the only copy.
  bool replicate = false;
  int replica_offset = 1;  ///< partner = (node + offset) % nnodes

  /// Diskless erasure coding: each image is additionally split into k data
  /// + m parity chunks scattered across a parity group of remote nodes
  /// (storage/erasure.hpp). Off by default.
  ErasureConfig erasure;
};

/// Duration of moving `bytes` at `mbps` (binary MB/s), in simulated time.
inline sim::Time transfer_time(Bytes bytes, double mbps) {
  if (mbps <= 0) return 0;
  return static_cast<sim::Time>(static_cast<double>(bytes) /
                                (mbps * static_cast<double>(kMiB)) *
                                static_cast<double>(sim::kSecond));
}

/// Node-local checkpoint tier in front of the shared StorageSystem, with a
/// background drain service per node and optional partner replication.
///
/// Every snapshot becomes a ledger entry (ImageInfo) recording where the
/// image lives and when each durability level was reached:
///   written_at     local copy complete (survives a job abort, not the node)
///   replicated_at  partner copy complete (survives losing the home node)
///   drained_at     PFS copy complete (survives anything)
/// Recovery reads this ledger to decide which checkpoint is restorable
/// after a node loss (harness/recovery.cpp; DESIGN.md §10).
///
/// The store is *partitioned by node* (DESIGN.md §15): each node owns its
/// ledger shard, staging-disk schedule, drain queue, and stat slots, and all
/// of a node's tier work (foreground write, drain pacing, replica/erasure
/// scatter) runs on that node's home shard engine. Only the shared PFS
/// stays central: every PFS leg is routed to the service LP by message, so
/// PFS arbitration order is canonical at any shard count.
class TieredStore {
 public:
  /// Copies `bytes` from node `src` to node `dst` over the interconnect.
  using Transport = std::function<sim::Task<void>(int src, int dst,
                                                  Bytes bytes)>;

  struct ImageInfo {
    std::uint64_t id = 0;  ///< node-encoded ledger id; 0 means "no image"
    int node = -1;
    Bytes bytes = 0;
    bool local = false;    ///< written to the local tier (vs PFS write-through)
    bool evicted = false;  ///< local copy dropped to make room
    int partner = -1;      ///< replica node, -1 when not replicated
    sim::Time written_at = -1;     ///< local (or write-through) completion
    sim::Time replicated_at = -1;  ///< partner copy completion, -1 pending
    sim::Time drained_at = -1;     ///< PFS durability instant, -1 pending
    ErasureChunks ec;              ///< chunk placement, inactive when k == 0
  };

  /// Node i's partition lives on LP i's home shard of `bus` (node ids and
  /// rank LP ids coincide in the harness), and PFS legs are RPCs to the
  /// service LP, where `pfs` lives. Replica and erasure-chunk copies go
  /// through `transport` (the harness passes the fabric's bulk_transfer).
  TieredStore(StorageSystem& pfs, TierConfig cfg, int nnodes,
              sim::LpBus& bus, Transport transport);
  TieredStore(const TieredStore&) = delete;
  TieredStore& operator=(const TieredStore&) = delete;

  bool enabled() const noexcept { return cfg_.enabled; }
  const TierConfig& config() const noexcept { return cfg_; }
  int nnodes() const noexcept { return static_cast<int>(nodes_.size()); }

  void set_trace(sim::Trace* trace) {
    trace_ = trace;
    if (erasure_) erasure_->set_trace(trace);
  }
  /// Non-null iff the erasure knob set is enabled (and the tier is).
  ErasureTier* erasure() const noexcept { return erasure_.get(); }

  /// Foreground snapshot write from `node`: local-tier write (plus partner
  /// replication when enabled), falling through to a direct PFS write when
  /// the local tier cannot make room. Resolves when the image is durable at
  /// checkpoint-completion level (local [+replica], or PFS for
  /// write-through); the drain to the PFS continues in the background.
  /// Returns the ledger id. Must be called on `node`'s engine (rank LP).
  sim::Task<std::uint64_t> snapshot(int node, Bytes bytes);

  /// Pauses / resumes node's background drain (between chunks). Pure state
  /// flips on node-owned slots: callers route them to the node's shard.
  /// Running the cluster to quiescence drains every unpaused queue.
  void pause_drain(int node);
  void resume_drain(int node);

  // --- ledger / durability queries (recovery) ---
  /// Ledger ids encode (node, per-node sequence): the partitioned shards
  /// stay independently appendable on their home engines while ids remain
  /// globally resolvable. 0 stays "no image".
  static constexpr int kIdNodeShift = 40;
  static int node_of_id(std::uint64_t id) noexcept {
    return static_cast<int>(id >> kIdNodeShift) - 1;
  }
  static std::uint64_t seq_of_id(std::uint64_t id) noexcept {
    return id & ((std::uint64_t{1} << kIdNodeShift) - 1);
  }
  /// Resolves an id against the owning node's partition; nullptr for 0 /
  /// unknown. Safe from any engine once that image's writer has synced with
  /// the reader (recovery reads after the run; cycle code reads its own).
  const ImageInfo* find(std::uint64_t id) const {
    const int node = node_of_id(id);
    if (node < 0 || node >= nnodes()) return nullptr;
    const std::uint64_t seq = seq_of_id(id);
    const auto& part = nodes_[node].images;
    return seq >= 1 && seq <= part.size() ? &part[seq - 1] : nullptr;
  }
  /// Detached copy of the ledger that outlives the store (recovery keeps
  /// one after the failed simulation is torn down). Gathers the per-node
  /// partitions in node order; only call when the run is quiescent.
  TierLedger ledger() const;
  static bool local_available(const ImageInfo& img) {
    return img.local && !img.evicted;
  }
  static bool pfs_durable(const ImageInfo& img) { return img.drained_at >= 0; }
  /// Shared aliveness predicate for every remote-durability check below:
  /// nodes outside the set (or unset, -1) count as alive.
  static bool node_failed(int node, const std::vector<char>& failed_nodes) {
    return node >= 0 && node < static_cast<int>(failed_nodes.size()) &&
           failed_nodes[node];
  }
  /// Replica survives a set of dead nodes (multi-failure recovery) only if
  /// the partner node is not in the set.
  static bool replica_available(const ImageInfo& img,
                                const std::vector<char>& failed_nodes) {
    return img.replicated_at >= 0 && !node_failed(img.partner, failed_nodes);
  }
  static bool replica_available(const ImageInfo& img, int failed_node) {
    std::vector<char> failed(
        failed_node >= 0 ? static_cast<std::size_t>(failed_node) + 1 : 0, 0);
    if (failed_node >= 0) failed[static_cast<std::size_t>(failed_node)] = 1;
    return replica_available(img, failed);
  }
  /// The erasure stripe is decodable when at least k placed chunks sit on
  /// nodes outside the dead set (same predicate as replica_available).
  static bool erasure_decodable(const ImageInfo& img,
                                const std::vector<char>& failed_nodes) {
    if (!img.ec.active()) return false;
    int alive = 0;
    for (std::size_t c = 0; c < img.ec.nodes.size(); ++c) {
      if (img.ec.done_at[c] >= 0 &&
          !node_failed(img.ec.nodes[c], failed_nodes)) {
        ++alive;
      }
    }
    return alive >= img.ec.k;
  }

  // --- stats (per-node slots, summed at quiescence) ---
  Bytes local_used(int node) const { return nodes_[node].used; }
  std::int64_t write_throughs() const noexcept {
    return sum_nodes(&NodeState::write_throughs);
  }
  std::int64_t images_drained() const noexcept {
    return sum_nodes(&NodeState::images_drained);
  }
  std::int64_t images_evicted() const noexcept {
    return sum_nodes(&NodeState::images_evicted);
  }
  std::int64_t replicas_made() const noexcept {
    return sum_nodes(&NodeState::replicas_made);
  }
  std::int64_t images_encoded() const noexcept {
    return erasure_ ? erasure_->images_encoded() : 0;
  }
  std::int64_t ec_chunks_placed() const noexcept {
    return erasure_ ? erasure_->chunks_placed() : 0;
  }
  /// Images still waiting for (or in) the drain across all nodes.
  int drain_backlog() const;
  /// Drain service coroutines currently alive (detached engine processes).
  int drain_tasks_running() const;

 private:
  /// One node's partition of the store: ledger shard, staging-disk
  /// schedule, drain queue, and stat slots, all owned by the node's home
  /// shard engine. Cache-line aligned so two nodes' hot counters never
  /// share a line across shard threads.
  struct alignas(64) NodeState {
    explicit NodeState(sim::Engine& eng) : cv(eng) {}
    Bytes used = 0;               // resident (non-evicted) local image bytes
    sim::Time disk_busy_until = 0;
    std::deque<std::uint64_t> drain_queue;
    std::uint64_t draining = 0;  // image currently being drained, 0 if none
    bool drain_running = false;
    bool paused = false;
    sim::Condition cv;  // pause/resume wakeups (on the node's engine)
    std::deque<ImageInfo> images;  // ledger shard; stable refs across waits
    std::uint64_t next_seq = 0;    // per-node id sequence (1-based)
    std::int64_t write_throughs = 0;
    std::int64_t images_drained = 0;
    std::int64_t images_evicted = 0;
    std::int64_t replicas_made = 0;
  };

  sim::Engine& engine_of(int node) const { return bus_.engine_of(node); }
  /// The one shared resource: PFS writes are arbitrated on the service LP,
  /// so their interleaving is canonical at any shard count.
  sim::Task<void> pfs_write_from(int node, Bytes bytes);
  ImageInfo* find_mut(std::uint64_t id) {
    return const_cast<ImageInfo*>(find(id));
  }
  std::int64_t sum_nodes(std::int64_t NodeState::* slot) const {
    std::int64_t n = 0;
    for (const auto& st : nodes_) n += st.*slot;
    return n;
  }

  sim::Task<void> drain_service(int node);
  sim::Task<void> replicate_image(std::uint64_t id);
  /// Frees drained images until `need` more bytes fit; false if impossible.
  bool make_room(int node, Bytes need);
  Bytes capacity() const {
    return cfg_.local_capacity_mib > 0 ? mib(cfg_.local_capacity_mib) : 0;
  }
  Bytes chunk_bytes() const {
    const Bytes c = mib(cfg_.drain_chunk_mib);
    return c > 0 ? c : kMiB;
  }
  void trace_event(int node, const char* category, std::string detail);

  StorageSystem& pfs_;
  TierConfig cfg_;
  sim::LpBus& bus_;
  Transport transport_;
  std::unique_ptr<ErasureTier> erasure_;
  sim::Trace* trace_ = nullptr;
  std::deque<NodeState> nodes_;  // deque: Condition is immovable
};

/// Value-type snapshot of a TieredStore's durability ledger. Recovery holds
/// one across simulations: the failed run's store (and engine) are gone by
/// the time restore sources are chosen, and under multiple failures the
/// same ledger is re-queried with a growing set of dead nodes. The images
/// sit flat in (node, per-node sequence) order — the gather of the per-node
/// partitions — and lookups resolve node-encoded ids by scan.
class TierLedger {
 public:
  TierLedger() = default;
  explicit TierLedger(std::deque<TieredStore::ImageInfo> images)
      : images_(std::move(images)) {}

  bool empty() const noexcept { return images_.empty(); }
  std::size_t size() const noexcept { return images_.size(); }
  const std::deque<TieredStore::ImageInfo>& images() const noexcept {
    return images_;
  }
  const TieredStore::ImageInfo* find(std::uint64_t id) const {
    if (id == 0) return nullptr;
    for (const auto& img : images_) {
      if (img.id == id) return &img;
    }
    return nullptr;
  }

 private:
  std::deque<TieredStore::ImageInfo> images_;
};

inline TierLedger TieredStore::ledger() const {
  std::deque<ImageInfo> flat;
  for (const auto& st : nodes_) {
    flat.insert(flat.end(), st.images.begin(), st.images.end());
  }
  return TierLedger(std::move(flat));
}

}  // namespace gbc::storage
