#include "storage/tiers.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace gbc::storage {

TieredStore::TieredStore(StorageSystem& pfs, TierConfig cfg, int nnodes,
                         sim::LpBus& bus, Transport transport)
    : pfs_(pfs), cfg_(cfg), bus_(bus), transport_(std::move(transport)) {
  assert(transport_ && "TieredStore needs a replica/chunk transport");
  // Each node's condition variable lives on the node's home engine so that
  // pause/resume wakeups stay shard-local.
  for (int i = 0; i < nnodes; ++i) nodes_.emplace_back(engine_of(i));
  if (cfg_.enabled && cfg_.erasure.enabled) {
    erasure_ = std::make_unique<ErasureTier>(cfg_.erasure, nnodes,
                                             cfg_.replica_offset);
  }
}

void TieredStore::trace_event(int node, const char* category,
                              std::string detail) {
  if (trace_) trace_->add(engine_of(node).now(), node, category,
                          std::move(detail));
}

sim::Task<void> TieredStore::pfs_write_from(int node, Bytes bytes) {
  // The PFS is the one shared resource left in the partitioned store: every
  // write is an RPC to the service LP, so the arbitration order the
  // StorageSystem sees is the bus's canonical delivery order — identical at
  // any shard count.
  StorageSystem* pfs = &pfs_;
  co_await bus_.call(node, bus_.svc_lp(),
                     [pfs, bytes] { return pfs->write(bytes); });
}

bool TieredStore::make_room(int node, Bytes need) {
  const Bytes cap = capacity();
  if (cap <= 0) return true;  // unbounded
  if (need > cap) return false;
  NodeState& st = nodes_[node];
  if (st.used + need <= cap) return true;
  // Evict oldest fully-drained images first; undrained images are pinned
  // (dropping them would lose the only copy before it reached the PFS).
  for (auto& img : st.images) {
    if (st.used + need <= cap) break;
    if (!local_available(img) || !pfs_durable(img)) continue;
    img.evicted = true;
    st.used -= img.bytes;
    ++st.images_evicted;
    trace_event(node, "tier-evict", "img=" + std::to_string(img.id));
  }
  return st.used + need <= cap;
}

sim::Task<std::uint64_t> TieredStore::snapshot(int node, Bytes bytes) {
  sim::Engine& eng = engine_of(node);
  NodeState& st = nodes_[node];
  st.images.push_back(ImageInfo{});
  ImageInfo& img = st.images.back();
  img.id = (static_cast<std::uint64_t>(node) + 1) << kIdNodeShift |
           ++st.next_seq;
  img.node = node;
  img.bytes = bytes;

  if (!make_room(node, bytes)) {
    // Local tier full of not-yet-durable images: fall through to the shared
    // PFS, paying the storage bottleneck this subsystem exists to avoid.
    ++st.write_throughs;
    trace_event(node, "pfs-write", "begin img=" + std::to_string(img.id));
    co_await pfs_write_from(node, bytes);
    img.written_at = eng.now();
    img.drained_at = eng.now();  // already on the PFS
    trace_event(node, "pfs-write", "end img=" + std::to_string(img.id));
    co_return img.id;
  }

  // Local write: dedicated per-node bandwidth, serialized on this node's
  // disk, no cross-node contention.
  img.local = true;
  st.used += bytes;
  const sim::Time start = std::max(eng.now(), st.disk_busy_until);
  const sim::Time done = start + transfer_time(bytes, cfg_.local_write_mbps);
  st.disk_busy_until = done;
  trace_event(node, "local-write", "begin img=" + std::to_string(img.id));
  co_await eng.delay_until(done);
  img.written_at = eng.now();
  trace_event(node, "local-write", "end img=" + std::to_string(img.id));

  // Hand the image to the background drain before replicating, so the PFS
  // copy makes progress while the partner copy is in flight.
  if (cfg_.drain_mbps > 0) {
    st.drain_queue.push_back(img.id);
    if (!st.drain_running) {
      st.drain_running = true;
      eng.spawn(drain_service(node));
    }
  }

  if (cfg_.replicate && nnodes() > 1) co_await replicate_image(img.id);
  // Erasure protection runs after replication so the stripe scatter and the
  // partner copy never interleave on the home node's staging lane in a
  // schedule-dependent order. The write-through PFS path above skips this:
  // those images are already durable against any node loss.
  if (erasure_) {
    co_await erasure_->protect(eng, node, bytes, img.id, &img.ec,
                               transport_);
  }
  co_return img.id;
}

sim::Task<void> TieredStore::replicate_image(std::uint64_t id) {
  ImageInfo& img = *find_mut(id);
  sim::Engine& eng = engine_of(img.node);
  img.partner = (img.node + cfg_.replica_offset) % nnodes();
  trace_event(img.node, "replicate",
              "begin img=" + std::to_string(id) + " to=" +
                  std::to_string(img.partner));
  co_await transport_(img.node, img.partner, img.bytes);
  img.replicated_at = eng.now();
  ++nodes_[img.node].replicas_made;
  trace_event(img.node, "replicate", "end img=" + std::to_string(id));
}

sim::Task<void> TieredStore::drain_service(int node) {
  sim::Engine& eng = engine_of(node);
  NodeState& st = nodes_[node];
  while (!st.drain_queue.empty()) {
    while (st.paused) co_await st.cv.wait();
    const std::uint64_t id = st.drain_queue.front();
    st.drain_queue.pop_front();
    st.draining = id;
    ImageInfo& img = st.images[seq_of_id(id) - 1];
    trace_event(node, "drain", "begin img=" + std::to_string(id));
    Bytes remaining = img.bytes;
    const Bytes chunk = chunk_bytes();
    while (remaining > 0) {
      while (st.paused) co_await st.cv.wait();
      const Bytes piece = std::min(chunk, remaining);
      // Each chunk is a real PFS write, so the drain contends with
      // foreground flows; pacing tops the rate out at drain_mbps.
      const sim::Time t0 = eng.now();
      co_await pfs_write_from(node, piece);
      const sim::Time target = transfer_time(piece, cfg_.drain_mbps);
      const sim::Time elapsed = eng.now() - t0;
      if (elapsed < target) co_await eng.delay(target - elapsed);
      remaining -= piece;
    }
    img.drained_at = eng.now();
    st.draining = 0;
    ++st.images_drained;
    trace_event(node, "drain", "end img=" + std::to_string(id));
  }
  st.drain_running = false;
}

void TieredStore::pause_drain(int node) { nodes_[node].paused = true; }

void TieredStore::resume_drain(int node) {
  NodeState& st = nodes_[node];
  st.paused = false;
  st.cv.notify_all();
}

int TieredStore::drain_tasks_running() const {
  int n = 0;
  for (const auto& st : nodes_) {
    if (st.drain_running) ++n;
  }
  return n;
}

int TieredStore::drain_backlog() const {
  int n = 0;
  for (const auto& st : nodes_) {
    n += static_cast<int>(st.drain_queue.size());
    if (st.draining != 0) ++n;  // the image currently in flight
  }
  return n;
}

}  // namespace gbc::storage
