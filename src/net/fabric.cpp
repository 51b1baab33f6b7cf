#include "net/fabric.hpp"

#include <algorithm>

namespace gbc::net {

// ---------------------------------------------------------------------------
// ConnectionManager
// ---------------------------------------------------------------------------

ConnectionManager::ConnectionManager(sim::Engine& eng, Fabric& fabric, int n,
                                     NetConfig cfg)
    : eng_(eng),
      fab_(fabric),
      cfg_(cfg),
      n_(n),
      locked_(n, false),
      unlock_cv_(eng) {}

ConnectionManager::Conn& ConnectionManager::conn(int a, int b) {
  return conns_.try_emplace(key(a, b), eng_).first->second;
}

const ConnectionManager::Conn* ConnectionManager::find(int a, int b) const {
  auto it = conns_.find(key(a, b));
  return it == conns_.end() ? nullptr : &it->second;
}

ConnState ConnectionManager::state(int a, int b) const {
  const Conn* c = find(a, b);
  return c ? c->state : ConnState::kDisconnected;
}

void ConnectionManager::set_state(Conn& c, int a, int b, ConnState s) {
  c.state = s;
  c.cv.notify_all();
  // Mirror the transition to both endpoints' shards: the rank-side send
  // pumps gate on their local mirror, never on this object.
  sim::LpBus& bus = fab_.bus();
  Fabric* f = &fab_;
  bus.send(bus.svc_lp(), a, [f, a, b, s] { f->mirror_state(a, b, s); });
  bus.send(bus.svc_lp(), b, [f, b, a, s] { f->mirror_state(b, a, s); });
}

sim::Task<void> ConnectionManager::ensure_connected(int a, int b) {
  assert(a != b);
  for (;;) {
    // Establishment requires both endpoints available (not frozen).
    while (locked_[a] || locked_[b]) co_await unlock_cv_.wait();
    Conn& c = conn(a, b);
    switch (c.state) {
      case ConnState::kConnected:
        co_return;
      case ConnState::kConnecting:
      case ConnState::kDraining:
        co_await c.cv.wait();
        continue;  // re-evaluate from scratch (locks may have changed)
      case ConnState::kDisconnected: {
        set_state(c, a, b, ConnState::kConnecting);
        // Out-of-band parameter exchange + QP transitions on both sides.
        co_await eng_.delay(cfg_.oob_exchange + cfg_.qp_transition);
        Conn& c2 = conn(a, b);  // iterator-stable (std::map), but be explicit
        set_state(c2, a, b, ConnState::kConnected);
        ++setups_;
        co_return;
      }
    }
  }
}

sim::Task<void> ConnectionManager::drain(int a, int b) {
  // Outbound records are sender-owned: ask each endpoint, on its own shard,
  // to report back once its outbound lane toward the peer is empty.
  sim::LpBus& bus = fab_.bus();
  Fabric* f = &fab_;
  co_await bus.call(bus.svc_lp(), a,
                    [f, a, b] { return f->drain_outbound(a, b); });
  co_await bus.call(bus.svc_lp(), b,
                    [f, a, b] { return f->drain_outbound(b, a); });
}

sim::Task<void> ConnectionManager::disconnect(int a, int b) {
  for (;;) {
    Conn& c = conn(a, b);
    switch (c.state) {
      case ConnState::kDisconnected:
        co_return;
      case ConnState::kConnecting:
      case ConnState::kDraining:
        co_await c.cv.wait();
        continue;
      case ConnState::kConnected: {
        set_state(c, a, b, ConnState::kDraining);
        co_await drain(a, b);
        co_await eng_.delay(cfg_.teardown_cost);
        Conn& c2 = conn(a, b);
        set_state(c2, a, b, ConnState::kDisconnected);
        ++teardowns_;
        co_return;
      }
    }
  }
}

void ConnectionManager::lock_endpoint(int ep) { locked_[ep] = true; }

void ConnectionManager::unlock_endpoint(int ep) {
  locked_[ep] = false;
  unlock_cv_.notify_all();
}

std::vector<int> ConnectionManager::connected_peers(int ep) const {
  std::vector<int> peers;
  for (const auto& [k, c] : conns_) {
    if (c.state != ConnState::kConnected) continue;
    if (k.first == ep) peers.push_back(k.second);
    if (k.second == ep) peers.push_back(k.first);
  }
  std::sort(peers.begin(), peers.end());
  return peers;
}

int ConnectionManager::established_count() const {
  int n = 0;
  for (const auto& [k, c] : conns_) {
    (void)k;
    if (c.state == ConnState::kConnected) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Fabric
// ---------------------------------------------------------------------------

Fabric::Fabric(NetConfig cfg, int n_endpoints, sim::LpBus& bus)
    : eng_(bus.engine_of(bus.svc_lp())),
      cfg_(cfg),
      n_(n_endpoints),
      bus_(bus),
      receivers_(n_endpoints),
      staging_(static_cast<std::size_t>(n_endpoints)) {
  if (!cfg_.topology.flat()) tree_.emplace(cfg_.topology);
  rank_net_.reserve(n_);
  for (int r = 0; r < n_; ++r) {
    rank_net_.push_back(std::make_unique<RankNet>(bus_.engine_of(r)));
  }
  const int shards = bus_.shards();
  flight_pool_.reserve(shards);
  for (int s = 0; s < shards; ++s) {
    flight_pool_.push_back(std::make_unique<sim::Pool<FlightRec>>(256));
  }
  return_stack_ = std::make_unique<ReturnStack[]>(shards);
  conn_mgr_ =
      std::make_unique<ConnectionManager>(eng_, *this, n_endpoints, cfg);
}

Fabric::~Fabric() {
  // The owner aborts the engines and clears the bus before the fabric is
  // destroyed, so every in-flight record has been pushed onto its return
  // stack by now. Sweep them home so the pools' liveness assert holds.
  for (int s = 0; s < bus_.shards(); ++s) reclaim(s);
}

sim::Time Fabric::latency(int src, int dst) const {
  if (!tree_ || src == dst) return cfg_.wire_latency;
  return cfg_.wire_latency * tree_->hops(src, dst);
}

void Fabric::transmit(Packet&& p) {
  assert(p.src >= 0 && p.src < n_ && p.dst >= 0 && p.dst < n_);
  const int src = p.src;
  const int dst = p.dst;
  RankNet& rn = *rank_net_[src];
  sim::Engine& src_eng = bus_.engine_of(src);
  ++rn.packets;
  rn.bytes += p.bytes;
  // Sender-side ownership: only src's shard touches src's outbound records.
  RankNet::Outbound& out = rn.out[dst];
  out.bytes += p.bytes;
  ++out.messages;
  // Serialize on the sender NIC.
  const double bps =
      cfg_.link_bandwidth_mbps * static_cast<double>(storage::kMiB);
  const auto xfer = static_cast<sim::Time>(
      static_cast<double>(p.bytes) / bps * static_cast<double>(sim::kSecond));
  const sim::Time start = std::max(src_eng.now(), rn.nic_busy);
  const sim::Time done = start + cfg_.per_message_overhead + xfer;
  rn.nic_busy = done;
  const sim::Time arrival = done + latency(src, dst);
  assert(arrival > out.last_arrival && "per-pair arrivals must increase");
  out.last_arrival = arrival;
  const int home = bus_.shard_of(src);
  FlightRec* rec = acquire_rec(home);
  rec->pkt = std::move(p);
  rec->fab = this;
  rec->home_shard = home;
  // arrival >= now + per_message_overhead + minimum latency = now + floor,
  // so send_at's floor clamp never moves a flight.
  assert(arrival >= src_eng.now() + bus_.floor() &&
         "wire flight inside the bus floor");
  bus_.send_at(src, dst, arrival, FlightDeliver{rec});
}

void Fabric::FlightDeliver::operator()() {
  Fabric* f = rec->fab;
  Packet& p = rec->pkt;
  auto& rx = f->receivers_[p.dst];
  assert(rx && "no receiver registered");
  rx(p);
  // Drop the body here, on the receiver's shard, before the record heads
  // home: payload references never outlive the delivery.
  p.body = nullptr;
  FlightRec* r = std::exchange(rec, nullptr);
  f->recycle_local(r, f->bus_.shard_of(r->pkt.dst));
}

Fabric::FlightRec* Fabric::acquire_rec(int shard) {
  reclaim(shard);
  return flight_pool_[shard]->acquire();
}

void Fabric::recycle_local(FlightRec* rec, int caller_shard) {
  if (caller_shard == rec->home_shard) {
    flight_pool_[rec->home_shard]->release(rec);
  } else {
    return_stack_[rec->home_shard].push(rec);
  }
}

void Fabric::recycle_remote(FlightRec* rec) {
  return_stack_[rec->home_shard].push(rec);
}

void Fabric::reclaim(int shard) {
  FlightRec* r = return_stack_[shard].take_all();
  while (r != nullptr) {
    FlightRec* next = r->free_next;
    flight_pool_[shard]->release(r);
    r = next;
  }
}

sim::Task<void> Fabric::ensure_connected_from(int src, int dst) {
  RankNet& rn = *rank_net_[src];
  RankNet::Link& link = rn.links[dst];
  while (link.mirror != ConnState::kConnected) {
    if (link.mirror == ConnState::kDisconnected && !link.requested) {
      link.requested = true;
      bus_.send(src, bus_.svc_lp(), [this, src, dst] {
        eng_.spawn(conn_mgr_->ensure_connected(src, dst));
      });
    }
    co_await rn.conn_cv.wait();
  }
}

void Fabric::mirror_state(int ep, int peer, ConnState s) {
  RankNet& rn = *rank_net_[ep];
  RankNet::Link& link = rn.links[peer];
  link.mirror = s;
  link.requested = false;
  rn.conn_cv.notify_all();
}

sim::Task<void> Fabric::drain_outbound(int src, int dst) {
  RankNet& rn = *rank_net_[src];
  // Runs inside a settle sweep (bus RPC), after this instant's pre-lane:
  // the wake registered here fires in the pre-lane at the last arrival
  // instant, and a packet sent meanwhile moves that instant on.
  while (!outbound_drained(src, dst)) {
    bus_.settle_at(src, outbound(src, dst)->last_arrival,
                   [&rn] { rn.out_cv.notify_all(); });
    co_await rn.out_cv.wait();
  }
}

bool Fabric::outbound_drained(int src, int dst) const {
  const RankNet::Outbound* o = outbound(src, dst);
  return o == nullptr || o->last_arrival <= bus_.engine_of(src).now();
}

void Fabric::request_lock(int ep) {
  bus_.send(ep, bus_.svc_lp(), [this, ep] { conn_mgr_->lock_endpoint(ep); });
}

void Fabric::request_unlock(int ep) {
  bus_.send(ep, bus_.svc_lp(),
            [this, ep] { conn_mgr_->unlock_endpoint(ep); });
}

sim::Task<void> Fabric::bulk_transfer(int src, int dst, Bytes bytes) {
  assert(src >= 0 && src < n_ && dst >= 0 && dst < n_ && src != dst);
  // Runs on src's home engine: callers (replica copies, erasure scatters,
  // restore staging) are routed to the source node's LP, so the lane state
  // below is only ever touched from src's shard.
  sim::Engine& eng = bus_.engine_of(src);
  StagingLane& lane = staging_[static_cast<std::size_t>(src)];
  ++lane.packets;
  lane.bytes += bytes;
  const double bps =
      cfg_.link_bandwidth_mbps * static_cast<double>(storage::kMiB);
  const auto xfer = static_cast<sim::Time>(
      static_cast<double>(bytes) / bps * static_cast<double>(sim::kSecond));
  const sim::Time start = std::max(eng.now(), lane.busy_until);
  const sim::Time done = start + cfg_.per_message_overhead + xfer;
  lane.busy_until = done;
  co_await eng.delay_until(done + latency(src, dst));
}

std::int64_t Fabric::packets_sent() const noexcept {
  std::int64_t total = 0;
  for (const auto& lane : staging_) total += lane.packets;
  for (const auto& rn : rank_net_) total += rn->packets;
  return total;
}

Bytes Fabric::bytes_sent() const noexcept {
  Bytes total = 0;
  for (const auto& lane : staging_) total += lane.bytes;
  for (const auto& rn : rank_net_) total += rn->bytes;
  return total;
}

std::uint64_t Fabric::flight_recs_reused() const noexcept {
  std::uint64_t total = 0;
  for (const auto& p : flight_pool_) total += p->reused();
  return total;
}

const Fabric::RankNet::Outbound* Fabric::outbound(int src, int dst) const {
  return rank_net_[src]->out.find(dst);
}

Bytes Fabric::bytes_between(int a, int b) const {
  Bytes sum = 0;
  if (const auto* o = outbound(a, b)) sum += o->bytes;
  if (const auto* o = outbound(b, a)) sum += o->bytes;
  return sum;
}

std::int64_t Fabric::messages_between(int a, int b) const {
  std::int64_t sum = 0;
  if (const auto* o = outbound(a, b)) sum += o->messages;
  if (const auto* o = outbound(b, a)) sum += o->messages;
  return sum;
}

std::vector<std::int64_t> Fabric::traffic_matrix() const {
  std::vector<std::int64_t> m(static_cast<std::size_t>(n_) * n_, 0);
  for (int a = 0; a < n_; ++a) {
    for (const auto& [b, o] : rank_net_[a]->out) {
      if (b == a) continue;
      m[static_cast<std::size_t>(a) * n_ + b] += o.bytes;
      m[static_cast<std::size_t>(b) * n_ + a] += o.bytes;
    }
  }
  return m;
}

std::vector<std::int64_t> Fabric::copy_traffic_row(int src) const {
  std::vector<std::int64_t> row(static_cast<std::size_t>(n_), 0);
  for (const auto& [dst, o] : rank_net_[src]->out) row[dst] = o.bytes;
  return row;
}

}  // namespace gbc::net
