#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/peer_records.hpp"
#include "net/topology.hpp"
#include "sim/condition.hpp"
#include "sim/engine.hpp"
#include "sim/lp_bus.hpp"
#include "sim/pool.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "storage/storage.hpp"

namespace gbc::net {

using Bytes = storage::Bytes;

/// Timing parameters of the interconnect. Defaults approximate the paper's
/// testbed: Mellanox DDR HCAs (high bandwidth, microsecond latency) where
/// connection management runs over a slow out-of-band channel and is
/// therefore ~three orders of magnitude more expensive than a message.
struct NetConfig {
  double link_bandwidth_mbps = 1250.0;  ///< per-NIC injection bandwidth, MB/s
  sim::Time wire_latency = sim::from_microseconds(1.5);
  sim::Time per_message_overhead = sim::from_microseconds(0.5);
  /// Out-of-band connection parameter exchange (paper Sec. 2.2: much more
  /// costly than TCP/IP connection setup).
  sim::Time oob_exchange = sim::from_microseconds(800);
  sim::Time qp_transition = sim::from_microseconds(200);  ///< RESET→RTS etc.
  sim::Time teardown_cost = sim::from_microseconds(300);
  /// Interconnect shape. The flat default reproduces the paper-scale
  /// crossbar exactly; `fat-tree:<radix>` makes end-to-end latency
  /// hop-counted (wire_latency per switch hop).
  TopologySpec topology;

  /// The cheapest cross-LP interaction the model ever posts: NIC overhead
  /// plus the minimum propagation delay. This is the LpBus floor and the
  /// sharded engine's uniform conservative lookahead.
  sim::Time floor_hop() const {
    return per_message_overhead +
           wire_latency * std::max(1, topology.min_hops());
  }
};

/// Classification of a transfer; the meaning of ids is owned by the MPI
/// layer, the fabric only accounts for them.
enum class PacketKind : std::uint8_t {
  kEager,     // small message, payload travels immediately
  kRts,       // rendezvous request-to-send
  kCts,       // rendezvous clear-to-send
  kRdmaData,  // rendezvous zero-copy bulk data
  kFin,       // rendezvous completion notification
};

/// Opaque by-value payload carried across shards inside a packet. A
/// WireBody owns its contents inline: created on the sender's shard,
/// destroyed on the receiver's, with no refcount, pool or other shared
/// bookkeeping in between.
class WireBody {
 public:
  static constexpr std::size_t kInline = 64;

  WireBody() = default;
  WireBody(std::nullptr_t) noexcept {}  // NOLINT: empty-body literal
  WireBody(WireBody&& o) noexcept : ops_(std::exchange(o.ops_, nullptr)) {
    if (ops_) ops_->relocate(buf_, o.buf_);
  }
  WireBody& operator=(WireBody&& o) noexcept {
    if (this != &o) {
      reset();
      ops_ = std::exchange(o.ops_, nullptr);
      if (ops_) ops_->relocate(buf_, o.buf_);
    }
    return *this;
  }
  WireBody(const WireBody&) = delete;
  WireBody& operator=(const WireBody&) = delete;
  ~WireBody() { reset(); }

  template <typename T, typename... Args>
  static WireBody make(Args&&... args) {
    static_assert(sizeof(T) <= kInline && alignof(T) <= alignof(std::max_align_t),
                  "WireBody payload must fit the inline buffer");
    static_assert(std::is_nothrow_move_constructible_v<T>);
    WireBody b;
    ::new (static_cast<void*>(b.buf_)) T(std::forward<Args>(args)...);
    b.ops_ = &ops_for<T>;
    return b;
  }

  bool empty() const noexcept { return ops_ == nullptr; }

  template <typename T>
  T& get() {
    assert(ops_ == &ops_for<T> && "WireBody type mismatch");
    return *std::launder(reinterpret_cast<T*>(buf_));
  }

 private:
  struct Ops {
    void (*relocate)(std::byte* dst, std::byte* src) noexcept;
    void (*destroy)(std::byte* p) noexcept;
  };
  template <typename T>
  static constexpr Ops ops_for{
      [](std::byte* dst, std::byte* src) noexcept {
        T* s = std::launder(reinterpret_cast<T*>(src));
        ::new (static_cast<void*>(dst)) T(std::move(*s));
        s->~T();
      },
      [](std::byte* p) noexcept {
        std::launder(reinterpret_cast<T*>(p))->~T();
      }};

  void reset() noexcept {
    if (ops_) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte buf_[kInline];
  const Ops* ops_ = nullptr;
};

struct Packet {
  int src = -1;
  int dst = -1;
  Bytes bytes = 0;
  PacketKind kind = PacketKind::kEager;
  std::uint64_t id = 0;
  /// Opaque payload owned by the MPI layer, carried by value so a flight
  /// can cross shards without touching sender-side pools.
  WireBody body;
};

enum class ConnState : std::uint8_t {
  kDisconnected,
  kConnecting,
  kConnected,
  kDraining,
};

class Fabric;

/// Per-connection management (paper Sec. 4.2): the checkpoint protocols need
/// to tear down and rebuild *specific* connections rather than all of them,
/// and either endpoint may initiate (client/server, active/passive). A rank
/// that is frozen for a snapshot locks its endpoint; establishment toward it
/// blocks until it thaws.
///
/// The state machine is owned by the service LP (shard 0). Every transition
/// is mirrored to both endpoints with a one-hop message (see
/// Fabric::mirror_state), so rank-side code — the MPI send pump — consults
/// its local mirror and never reads this object directly. All methods here
/// must run on the service LP's engine.
class ConnectionManager {
 public:
  ConnectionManager(sim::Engine& eng, Fabric& fabric, int n, NetConfig cfg);

  /// Establishes (or waits for) the connection a<->b. Counts one setup when
  /// this call performed the establishment. Blocks while either endpoint is
  /// locked by a checkpoint freeze.
  sim::Task<void> ensure_connected(int a, int b);

  /// Drains in-flight traffic on a<->b and tears the connection down.
  /// No-op if already disconnected.
  sim::Task<void> disconnect(int a, int b);

  /// Waits until no packet is in flight on a<->b (channel flush). Asks
  /// each endpoint, by message, to wait out its own outbound lane.
  sim::Task<void> drain(int a, int b);

  ConnState state(int a, int b) const;
  bool connected(int a, int b) const {
    return state(a, b) == ConnState::kConnected;
  }

  /// Freeze-locks an endpoint: new establishments touching it stall.
  void lock_endpoint(int ep);
  void unlock_endpoint(int ep);

  /// Every currently-connected peer of `ep`, ascending.
  std::vector<int> connected_peers(int ep) const;

  // --- accounting ---
  std::int64_t total_setups() const noexcept { return setups_; }
  std::int64_t total_teardowns() const noexcept { return teardowns_; }
  int established_count() const;

 private:
  struct Conn {
    explicit Conn(sim::Engine& eng) : cv(eng) {}
    ConnState state = ConnState::kDisconnected;
    sim::Condition cv;  // state changes
  };
  using Key = std::pair<int, int>;
  static Key key(int a, int b) {
    return a < b ? Key{a, b} : Key{b, a};
  }
  Conn& conn(int a, int b);
  const Conn* find(int a, int b) const;
  /// Transition + mirror fan-out to both endpoints.
  void set_state(Conn& c, int a, int b, ConnState s);

  sim::Engine& eng_;
  Fabric& fab_;
  NetConfig cfg_;
  int n_;
  std::map<Key, Conn> conns_;
  /// Per-endpoint index into conns_: every peer `ep` ever had a connection
  /// record with, ascending. conns_ never erases and map nodes are stable,
  /// so connected_peers() walks one endpoint's degree, not every pair.
  std::vector<std::vector<std::pair<int, const Conn*>>> peers_;
  std::vector<bool> locked_;
  sim::Condition unlock_cv_;
  std::int64_t setups_ = 0;
  std::int64_t teardowns_ = 0;
};

/// The wire: per-endpoint serializing injection engine (LogGP-style: each
/// transfer occupies the sender NIC for overhead + bytes/bandwidth, then
/// arrives wire_latency later). Delivery invokes the receiver callback
/// registered by the MPI layer. Per-pair byte counts feed dynamic group
/// formation (paper Sec. 4.1).
///
/// ## Per-rank ownership (DESIGN.md §13)
///
/// Every piece of mutable per-rank state — the NIC busy horizon and one
/// flat per-peer record holding the connection mirror, the last arrival
/// instant and the traffic sent — is owned by the rank's home shard;
/// transmit() must run there. A packet is moved once, into a pooled
/// FlightRec that rides one ordinary LpBus send to the destination rank's
/// settle bucket, so the order among same-instant arrivals is canonical at
/// any shard count; the receiver handles it in place. Each packet costs one
/// bus delivery: nothing runs on the sender's side when it lands. Records
/// recycle to their home shard's pool over a lock-free return stack,
/// keeping the hot path allocation-free in sharded runs too.
class Fabric {
 public:
  /// Receiver callback: handles the packet in place inside its flight
  /// record; the body is dropped when it returns.
  using Deliver = std::function<void(Packet&)>;

  /// `bus` connects the fabric to the cluster's LP topology: rank state
  /// lives on each rank's home shard, the connection manager on the
  /// service LP's.
  Fabric(NetConfig cfg, int n_endpoints, sim::LpBus& bus);
  ~Fabric();

  int size() const noexcept { return n_; }
  const NetConfig& config() const noexcept { return cfg_; }
  sim::Engine& engine() noexcept { return eng_; }
  ConnectionManager& connections() noexcept { return *conn_mgr_; }
  sim::LpBus& bus() noexcept { return bus_; }

  /// End-to-end propagation delay src -> dst: wire_latency on a crossbar,
  /// wire_latency per switch hop on a fat-tree.
  sim::Time latency(int src, int dst) const;

  void set_receiver(int ep, Deliver d) { receivers_[ep] = std::move(d); }

  /// Queues a packet on src's NIC (call on src's shard). The MPI layer's
  /// send pump checks the sender-side connection mirror before calling.
  void transmit(Packet&& p);

  /// Sender-side connection mirror check (the pump's fast path). Call on
  /// src's shard.
  bool mirror_connected(int src, int dst) const {
    const RankNet::Peer* p = record(src, dst);
    return p != nullptr && p->mirror == ConnState::kConnected;
  }

  /// Rank-side establish-or-wait: consults src's local connection mirror,
  /// requesting establishment from the service LP when disconnected, and
  /// resumes once the mirror shows kConnected. Call on src's shard.
  sim::Task<void> ensure_connected_from(int src, int dst);

  /// Rank-side channel flush: waits until src's last packet toward dst has
  /// arrived. Reached only by bus RPC, so it runs inside a settle sweep;
  /// while packets are in flight it parks on one settle_at callback at the
  /// last arrival instant, which wakes it in that instant's pre-lane. Call
  /// on src's shard.
  sim::Task<void> drain_outbound(int src, int dst);

  /// Sends a freeze-lock/unlock request for `ep` to the connection manager
  /// (one control hop). Call on ep's shard.
  void request_lock(int ep);
  void request_unlock(int ep);

  /// Awaitable bulk copy src -> dst over the interconnect (checkpoint
  /// staging traffic: partner replication, replica fetch on restart). Runs
  /// on the service LP: staging uses a dedicated per-node staging lane, so
  /// it serializes against other staging traffic from the same node but not
  /// against the application NIC.
  sim::Task<void> bulk_transfer(int src, int dst, Bytes bytes);

  // --- accounting (aggregate reads are for quiescent points) ---
  std::int64_t packets_sent() const noexcept;
  Bytes bytes_sent() const noexcept;
  /// Flight-record pool acquisitions served from a free list, across all
  /// per-shard pools (quiescent read) — the allocation-counter evidence
  /// that the steady-state wire path is heap-allocation-free (always 0
  /// with pools in ASan passthrough).
  std::uint64_t flight_recs_reused() const noexcept;
  /// Data-plane bytes / messages exchanged by a and b, both directions.
  Bytes bytes_between(int a, int b) const;
  std::int64_t messages_between(int a, int b) const;
  /// Data-plane traffic matrix (bytes), indexed [a*n+b], symmetrized from
  /// the per-sender records (zero diagonal). Only valid at quiescent
  /// points; during a run use copy_traffic_row() from each rank's own shard.
  std::vector<std::int64_t> traffic_matrix() const;
  /// Copies src's outbound traffic row (bytes to each peer, zero for ranks
  /// it never sent to). Call on src's shard; this is the race-free gather
  /// primitive dynamic group formation uses mid-run.
  std::vector<std::int64_t> copy_traffic_row(int src) const;

  /// Applies a connection-state mirror update at endpoint `ep` for `peer`
  /// (invoked via the bus by the ConnectionManager; runs on ep's shard).
  void mirror_state(int ep, int peer, ConnState s);
  /// True when no packet src -> dst is in flight past src's now: src never
  /// sent to dst, or the last arrival is not in the future. Inside a settle
  /// sweep an arrival at `now` has landed (rank-owned; read on src's shard).
  bool outbound_drained(int src, int dst) const;

 private:
  friend class ConnectionManager;

  /// One pooled wire flight: the packet and its way home.
  struct FlightRec {
    Packet pkt;
    Fabric* fab = nullptr;
    int home_shard = 0;
    FlightRec* free_next = nullptr;
  };

  /// Lock-free return stack: receivers push finished FlightRecs, the
  /// owning shard reclaims them in batch on its next acquire.
  struct alignas(64) ReturnStack {
    std::atomic<FlightRec*> head{nullptr};
    void push(FlightRec* r) noexcept {
      r->free_next = head.load(std::memory_order_relaxed);
      while (!head.compare_exchange_weak(r->free_next, r,
                                         std::memory_order_release,
                                         std::memory_order_relaxed)) {
      }
    }
    /// A plain load first: the stack is empty for every rank-local flight
    /// (all of a one-shard run), and a push it misses is taken next time.
    FlightRec* take_all() noexcept {
      if (head.load(std::memory_order_relaxed) == nullptr) return nullptr;
      return head.exchange(nullptr, std::memory_order_acquire);
    }
  };

  /// Hands rec->pkt to the receiver by reference, then drops the body and
  /// recycles the record. rec is cleared only after delivery, so the
  /// destructor still recycles it if the receiver throws.
  struct FlightDeliver {
    FlightRec* rec;
    explicit FlightDeliver(FlightRec* r) noexcept : rec(r) {}
    FlightDeliver(FlightDeliver&& o) noexcept
        : rec(std::exchange(o.rec, nullptr)) {}
    FlightDeliver& operator=(FlightDeliver&&) = delete;
    ~FlightDeliver() {
      if (rec) rec->fab->recycle_remote(rec);
    }
    void operator()();
  };

  /// Mutable state owned by one rank's shard.
  struct RankNet {
    explicit RankNet(sim::Engine& eng) : conn_cv(eng), out_cv(eng) {}
    sim::Time nic_busy = 0;
    std::int64_t packets = 0;
    Bytes bytes = 0;
    /// One record per peer this rank has met, as sender or as a mirrored
    /// connection endpoint. The connection mirror is the last state flip
    /// received from the manager, plus whether an establishment request is
    /// outstanding. The outbound side is the arrival instant of the last
    /// packet sent (drain waits for it) and the data-plane traffic sent
    /// (group formation reads it); all zero until the first transmit.
    /// Arrivals per pair strictly increase — the NIC serializes with a
    /// positive per-message overhead and latency(src, dst) is fixed — so
    /// the last arrival is the latest one.
    struct Peer {
      ConnState mirror = ConnState::kDisconnected;
      bool requested = false;
      sim::Time last_arrival = 0;
      Bytes bytes = 0;
      std::int64_t messages = 0;
    };
    PeerRecords<Peer> peers;
    sim::Condition conn_cv;
    sim::Condition out_cv;
  };

  /// src's record for dst, or null if src never met dst.
  const RankNet::Peer* record(int src, int dst) const {
    return rank_net_[src]->peers.get(dst);
  }
  FlightRec* acquire_rec(int shard);
  void recycle_local(FlightRec* rec, int caller_shard);
  void recycle_remote(FlightRec* rec);
  void reclaim(int shard);

  sim::Engine& eng_;
  NetConfig cfg_;
  int n_;
  std::optional<FatTree> tree_;  // engaged when topology is fat-tree
  sim::LpBus& bus_;
  std::vector<Deliver> receivers_;
  std::vector<std::unique_ptr<RankNet>> rank_net_;
  // Flight pools: one per shard, owned by that shard's worker; the return
  // stacks carry cross-shard frees home.
  std::vector<std::unique_ptr<sim::Pool<FlightRec>>> flight_pool_;
  std::unique_ptr<ReturnStack[]> return_stack_;
  std::unique_ptr<ConnectionManager> conn_mgr_;
  // Staging lanes, src-row ownership: node src's bulk transfers (replica /
  // erasure / restore staging) run on src's shard and serialize on src's
  // lane; counters are summed at quiescence by packets_sent()/bytes_sent().
  struct alignas(64) StagingLane {
    sim::Time busy_until = 0;
    std::int64_t packets = 0;
    Bytes bytes = 0;
  };
  std::vector<StagingLane> staging_;
};

}  // namespace gbc::net
