#include "mpi/minimpi.hpp"

#include <algorithm>
#include <cassert>
#include <map>

namespace gbc::mpi {

namespace {
/// Wire size of control packets (headers, RTS/CTS/FIN).
constexpr Bytes kCtrlBytes = 64;
}  // namespace

// ---------------------------------------------------------------------------
// MiniMPI
// ---------------------------------------------------------------------------

MiniMPI::MiniMPI(sim::Engine& eng, net::Fabric& fabric, MpiConfig cfg)
    : eng_(eng), fabric_(fabric), cfg_(cfg) {
  const int n = fabric.size();
  ranks_.reserve(n);
  hook_of_.assign(n, nullptr);
  std::vector<int> world_members;
  world_members.reserve(n);
  for (int r = 0; r < n; ++r) {
    ranks_.push_back(std::make_unique<RankCtx>(*this, r));
    world_members.push_back(r);
    // The receiver callback fires on rank r's shard (the fabric terminates
    // flights at the destination's home shard), so it may touch RankCtx
    // state directly.
    fabric_.set_receiver(
        r, [ctx = ranks_.back().get()](net::Packet& p) { ctx->on_packet(p); });
  }
  comms_.push_back(std::make_unique<Comm>(0, world_members));
}

const Comm& MiniMPI::create_comm(std::vector<int> members) {
  // A comm's id is its index in comms_ (find_comm relies on it).
  comms_.push_back(std::make_unique<Comm>(comms_.size(), std::move(members)));
  return *comms_.back();
}

std::vector<const Comm*> MiniMPI::split(const Comm& parent,
                                        const std::vector<int>& colors) {
  assert(static_cast<int>(colors.size()) == parent.size());
  std::map<int, std::vector<int>> by_color;
  for (int cr = 0; cr < parent.size(); ++cr) {
    by_color[colors[cr]].push_back(parent.world_rank(cr));
  }
  std::vector<const Comm*> result;
  result.reserve(by_color.size());
  for (auto& [color, members] : by_color) {
    (void)color;
    result.push_back(&create_comm(std::move(members)));
  }
  return result;
}

const Comm* MiniMPI::find_comm(std::uint64_t id) const {
  return id < comms_.size() ? comms_[id].get() : nullptr;
}

void MiniMPI::set_gate(CommGate* gate) {
  CommGate* old = gate_;
  gate_ = gate;
  // Dropping or swapping a gate can unblock parked pumps.
  if (old) {
    for (int r = 0; r < nranks(); ++r) old->changed(r).notify_all();
  }
}

MiniMPI::Stats MiniMPI::stats() const {
  Stats total;
  for (const auto& rc : ranks_) {
    const MpiStats& s = rc->stats_;
    total.sends += s.sends;
    total.recvs += s.recvs;
    total.message_buffered_bytes += s.message_buffered_bytes;
    total.request_buffered_bytes += s.request_buffered_bytes;
    total.messages_buffered += s.messages_buffered;
    total.requests_buffered += s.requests_buffered;
    total.peak_message_buffer =
        std::max(total.peak_message_buffer, s.peak_message_buffer);
  }
  return total;
}

std::vector<MessageRecord> MiniMPI::message_records() const {
  struct Item {
    std::uint64_t id;
    MessageRecord rec;
  };
  // Ids are job-wide unique, so one id-sorted arrival list serves every
  // receiver.
  std::vector<std::pair<std::uint64_t, sim::Time>> arrivals;
  for (const auto& rc : ranks_) {
    arrivals.insert(arrivals.end(), rc->arrivals_.begin(),
                    rc->arrivals_.end());
  }
  std::sort(arrivals.begin(), arrivals.end());
  std::vector<Item> items;
  for (const auto& rc : ranks_) {
    for (const auto& [id, rec] : rc->records_) {
      MessageRecord m = rec;
      auto it = std::lower_bound(
          arrivals.begin(), arrivals.end(), id,
          [](const auto& a, std::uint64_t key) { return a.first < key; });
      if (it != arrivals.end() && it->first == id) m.arrival_time = it->second;
      items.push_back(Item{id, m});
    }
  }
  // (transmit time, id) is a total order independent of the shard layout:
  // ids embed the sender rank and per-sender issue order.
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    return a.rec.transmit_time != b.rec.transmit_time
               ? a.rec.transmit_time < b.rec.transmit_time
               : a.id < b.id;
  });
  std::vector<MessageRecord> out;
  out.reserve(items.size());
  for (auto& it : items) out.push_back(it.rec);
  return out;
}

// ---------------------------------------------------------------------------
// RankCtx: construction and helpers
// ---------------------------------------------------------------------------

RankCtx::RankCtx(MiniMPI& mpi, int world_rank)
    : mpi_(mpi),
      rank_(world_rank),
      eng_(mpi.fabric().bus().engine_of(world_rank)),
      exec_(std::make_unique<sim::Pausable>(eng_)),
      reqs_(eng_),
      any_complete_(eng_) {}

int RankCtx::nranks() const noexcept { return mpi_.nranks(); }

MpiHooks* RankCtx::hooks() const noexcept { return mpi_.hook_of_[rank_]; }

void RankCtx::record_transmit(std::uint64_t id, int dst, Bytes b) {
  if (!mpi_.cfg_.record_messages) return;
  records_.emplace_back(id, MessageRecord{rank_, dst, b, eng_.now(), -1});
}

void RankCtx::record_arrival(std::uint64_t id) {
  if (!mpi_.cfg_.record_messages) return;
  arrivals_.emplace_back(id, eng_.now());
}

Request RankCtx::make_request(bool is_recv) {
  Request req = reqs_.make();
  req->is_recv = is_recv;
  return req;
}

std::uint32_t RankCtx::park(Request req) {
  if (free_slots_.empty()) {
    rndv_slots_.push_back(std::move(req));
    return static_cast<std::uint32_t>(rndv_slots_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  rndv_slots_[slot] = std::move(req);
  return slot;
}

Request RankCtx::unpark(std::uint32_t slot) {
  assert(slot < rndv_slots_.size() && rndv_slots_[slot] &&
         "rendezvous packet for an empty slot");
  free_slots_.push_back(slot);
  return std::move(rndv_slots_[slot]);
}

void RankCtx::complete(const Request& req) {
  req->done = true;
  // Deliveries run in a top-level event (the settle sweep or a self-send in
  // the application's own frame), so the waiter can resume inline — no
  // schedule_now hop between a message landing and its recv returning.
  req->cv.notify_all_inline();
  any_complete_.notify_all();
  exec_->mark_progress();
}

RecvInfo RankCtx::fill_info(const Envelope& env) const {
  RecvInfo info;
  const Comm* c = mpi_.find_comm(env.comm_id);
  info.source = c ? c->comm_rank(env.src_world) : env.src_world;
  info.tag = env.tag;
  info.bytes = env.bytes;
  info.data = env.data;
  return info;
}

Tag RankCtx::begin_collective(const Comm& c) {
  const auto id = static_cast<std::size_t>(c.id());
  if (id >= coll_seq_.size()) coll_seq_.resize(id + 1, 0);
  const std::uint64_t seq = coll_seq_[id]++;
  return kCollectiveTagBase + static_cast<Tag>(seq << 16);
}

// ---------------------------------------------------------------------------
// RankCtx: outbound pipeline
// ---------------------------------------------------------------------------

net::Packet RankCtx::to_packet(OutItem&& item) {
  net::Packet p;
  p.id = item.env.id;
  switch (item.kind) {
    case OutItem::Kind::kEager:
      p.src = item.env.src_world;
      p.dst = item.env.dst_world;
      p.bytes = item.env.bytes + kCtrlBytes;
      p.kind = net::PacketKind::kEager;
      break;
    case OutItem::Kind::kRts:
      p.src = item.env.src_world;
      p.dst = item.env.dst_world;
      p.bytes = kCtrlBytes;
      p.kind = net::PacketKind::kRts;
      break;
    case OutItem::Kind::kCts:
      p.src = item.env.dst_world;  // receiver -> sender
      p.dst = item.env.src_world;
      p.bytes = kCtrlBytes;
      p.kind = net::PacketKind::kCts;
      break;
    case OutItem::Kind::kRdma:
      p.src = item.env.src_world;
      p.dst = item.env.dst_world;
      p.bytes = item.env.bytes;
      p.kind = net::PacketKind::kRdmaData;
      break;
    case OutItem::Kind::kFin:
      p.src = item.env.dst_world;  // receiver -> sender
      p.dst = item.env.src_world;
      p.bytes = kCtrlBytes;
      p.kind = net::PacketKind::kFin;
      break;
  }
  // The envelope crosses shards by value inside the packet body; the
  // payload shared_ptr has an atomic refcount, so handing it over is
  // shard-safe.
  p.body = net::WireBody::make<Envelope>(std::move(item.env));
  return p;
}

void RankCtx::account_buffered(OutItem& item) {
  if (item.counted) return;
  item.counted = true;
  MpiStats& st = stats_;
  if (item.kind == OutItem::Kind::kEager) {
    // Message buffering: payload already copied, held unsent.
    msg_buffer_cur_ += item.env.bytes;
    st.message_buffered_bytes += item.env.bytes;
    ++st.messages_buffered;
    st.peak_message_buffer = std::max(st.peak_message_buffer, msg_buffer_cur_);
  } else if (item.kind == OutItem::Kind::kRts ||
             item.kind == OutItem::Kind::kCts) {
    // Request buffering: the transfer stays incomplete, no copy held.
    st.request_buffered_bytes += item.env.bytes;
    ++st.requests_buffered;
  }
}

void RankCtx::push_out(int dst, OutItem item) {
  assert(dst != rank_);
  const std::uint32_t slot = lanes_.slot(dst);
  Lane& lane = lanes_.at(slot);
  CommGate* gate = mpi_.gate_;
  const bool deferred = item.gated && gate && !gate->allowed(rank_, dst);
  // Fast path: lane idle, gate open, link up, and no sender-side tax to
  // pay — transmit right here instead of parking the item and spinning up
  // a pump frame. The pump would run exactly this with no suspension.
  if (!lane.pump_running && lane.q.empty() && !deferred &&
      mpi_.fabric_.mirror_connected(rank_, dst)) {
    const bool payload = item.kind == OutItem::Kind::kEager ||
                         item.kind == OutItem::Kind::kRdma;
    if (hooks() == nullptr || !payload) {
      if (payload) record_transmit(item.env.id, dst, item.env.bytes);
      mpi_.fabric_.transmit(to_packet(std::move(item)));
      return;
    }
  }
  if (deferred) {
    account_buffered(item);  // parked immediately: the pair is deferred
  }
  lane.q.push_back(std::move(item));
  if (!lane.pump_running) engine().spawn(pump(dst, slot));
}

sim::Task<void> RankCtx::pump(int dst, std::uint32_t slot) {
  lanes_.at(slot).pump_running = true;
  auto& fab = mpi_.fabric_;
  for (;;) {
    // Re-fetched every pass: a first contact while this frame was
    // suspended may have moved the lanes.
    Lane& lane = lanes_.at(slot);
    if (lane.q.empty()) break;
    OutItem& head = lane.q.front();

    // 1. Checkpoint deferral gate (message / request buffering).
    CommGate* gate = mpi_.gate_;
    if (head.gated && gate && !gate->allowed(rank_, dst)) {
      // Everything queued behind a deferred head is deferred too.
      for (OutItem& queued : lane.q) {
        if (queued.gated) account_buffered(queued);
      }
      co_await gate->changed(rank_).wait();
      continue;
    }

    // 2. Connection (re)establishment, driven off this rank's local mirror;
    // the actual state machine runs on the service LP and blocks while the
    // peer is frozen.
    if (!fab.mirror_connected(rank_, dst)) {
      co_await fab.ensure_connected_from(rank_, dst);
      continue;  // the gate may have closed while we were connecting
    }

    // 3. Sender-side taxes: logging hook and forced staging copies.
    if (!head.taxed) {
      head.taxed = true;
      sim::Time tax = 0;
      MpiHooks* hk = hooks();
      const bool payload = head.kind == OutItem::Kind::kEager ||
                           head.kind == OutItem::Kind::kRdma;
      if (hk && payload) {
        tax += hk->send_tax(rank_, dst, head.env.bytes);
        if (head.kind == OutItem::Kind::kRdma && hk->disable_zero_copy()) {
          const double bps =
              mpi_.cfg_.mem_copy_mbps * static_cast<double>(storage::kMiB);
          tax += static_cast<sim::Time>(static_cast<double>(head.env.bytes) /
                                        bps *
                                        static_cast<double>(sim::kSecond));
        }
      }
      if (tax > 0) {
        co_await engine().delay(tax);
        continue;  // re-check gate and connection after the delay
      }
    }

    // 4. Transmit.
    OutItem item = lane.q.pop_front();
    if (item.counted && item.kind == OutItem::Kind::kEager) {
      msg_buffer_cur_ -= item.env.bytes;
    }
    if (item.kind == OutItem::Kind::kEager ||
        item.kind == OutItem::Kind::kRdma) {
      record_transmit(item.env.id, dst, item.env.bytes);
    }
    fab.transmit(to_packet(std::move(item)));
  }
  lanes_.at(slot).pump_running = false;
}

// ---------------------------------------------------------------------------
// RankCtx: point-to-point
// ---------------------------------------------------------------------------

sim::Task<void> RankCtx::send(const Comm& c, int dst, Tag tag, Bytes bytes,
                              Payload data) {
  co_await exec_->freeze_point();
  ++stats_.sends;
  const int dst_world = c.world_rank(dst);
  Envelope env{c.id(), rank_, dst_world, tag, bytes, std::move(data),
               next_id()};
  if (dst_world == rank_) {
    deliver_eager(std::move(env));  // self-send: local copy
    co_return;
  }
  if (bytes <= mpi_.cfg_.eager_threshold) {
    // Eager: the payload is copied into a library buffer, so the blocking
    // send completes locally; the pump transmits (or defers) it.
    push_out(dst_world,
             OutItem{OutItem::Kind::kEager, std::move(env), true});
    exec_->mark_progress();
    co_return;
  }
  // Rendezvous: request stays open until the FIN returns.
  auto req = make_request(/*is_recv=*/false);
  env.send_slot = park(req);
  push_out(dst_world, OutItem{OutItem::Kind::kRts, std::move(env), true});
  co_await wait(req);
}

Request RankCtx::isend(const Comm& c, int dst, Tag tag, Bytes bytes,
                       Payload data) {
  ++stats_.sends;
  const int dst_world = c.world_rank(dst);
  Envelope env{c.id(), rank_, dst_world, tag, bytes, std::move(data),
               next_id()};
  auto req = make_request(/*is_recv=*/false);
  if (dst_world == rank_) {
    deliver_eager(std::move(env));
    req->done = true;
    return req;
  }
  if (bytes <= mpi_.cfg_.eager_threshold) {
    push_out(dst_world,
             OutItem{OutItem::Kind::kEager, std::move(env), true});
    req->done = true;  // buffered: locally complete
    return req;
  }
  env.send_slot = park(req);
  push_out(dst_world, OutItem{OutItem::Kind::kRts, std::move(env), true});
  return req;
}

sim::Task<RecvInfo> RankCtx::recv(const Comm& c, int src, Tag tag) {
  // wait(req) inlined: saves a nested task frame on the hot path.
  Request req = irecv(c, src, tag);
  co_await exec_->freeze_point();
  while (!req->done) co_await req->cv.wait();
  co_await exec_->freeze_point();
  exec_->mark_progress();
  co_return req->info;
}

Request RankCtx::irecv(const Comm& c, int src, Tag tag) {
  ++stats_.recvs;
  auto req = make_request(/*is_recv=*/true);
  req->comm_id = c.id();
  req->match_src = src == kAnySource ? kAnySource : c.world_rank(src);
  req->match_tag = tag;
  // First look at already-arrived unexpected messages, in arrival order.
  if (auto um = matcher_.take_unexpected(req->comm_id, req->match_src,
                                         req->match_tag)) {
    if (um->rndv) {
      start_rndv_receive(std::move(um->env), req);
    } else {
      req->info = fill_info(um->env);
      req->done = true;
    }
    return req;
  }
  matcher_.post(req);
  return req;
}

sim::Task<void> RankCtx::wait(Request req) {
  co_await exec_->freeze_point();
  while (!req->done) co_await req->cv.wait();
  // A request can complete while this process is frozen for a snapshot
  // (in-flight data drained into library buffers); the application itself
  // must not run until the thaw.
  co_await exec_->freeze_point();
  exec_->mark_progress();
}

sim::Task<void> RankCtx::wait_all(std::vector<Request> reqs) {
  for (auto& r : reqs) co_await wait(r);
}

sim::Task<std::size_t> RankCtx::wait_any(std::vector<Request> reqs) {
  co_await exec_->freeze_point();
  assert(!reqs.empty());
  for (;;) {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (reqs[i]->done) {
        co_await exec_->freeze_point();
        exec_->mark_progress();
        co_return i;
      }
    }
    co_await any_complete_.wait();
  }
}

bool RankCtx::iprobe(const Comm& c, int src, Tag tag) {
  exec_->mark_progress();  // a library entry: passive requests get serviced
  const int match_src = src == kAnySource ? kAnySource : c.world_rank(src);
  return matcher_.probe(c.id(), match_src, tag);
}

// ---------------------------------------------------------------------------
// RankCtx: delivery path
// ---------------------------------------------------------------------------

void RankCtx::deliver_eager(Envelope env) {
  if (MpiHooks* hk = hooks()) {
    hk->on_deliver(env.src_world, rank_, env.bytes);
  }
  record_arrival(env.id);
  if (Request req = matcher_.match_posted(env)) {
    req->info = fill_info(env);
    complete(req);
    return;
  }
  matcher_.push_unexpected(std::move(env), /*rndv=*/false);
}

void RankCtx::start_rndv_receive(Envelope env, const Request& req) {
  env.recv_slot = park(req);
  const int sender = env.src_world;
  push_out(sender, OutItem{OutItem::Kind::kCts, std::move(env), true});
}

void RankCtx::deliver_rts(Envelope env) {
  if (Request req = matcher_.match_posted(env)) {
    start_rndv_receive(std::move(env), req);
    return;
  }
  matcher_.push_unexpected(std::move(env), /*rndv=*/true);
}

void RankCtx::on_packet(net::Packet& p) {
  assert(!p.body.empty() && "packet without an envelope");
  // The body is dropped once this returns, so the envelope is moved on
  // wherever it travels further.
  Envelope& env = p.body.get<Envelope>();
  switch (p.kind) {
    case net::PacketKind::kEager:
      deliver_eager(std::move(env));
      break;
    case net::PacketKind::kRts:
      deliver_rts(std::move(env));
      break;
    case net::PacketKind::kCts: {
      // We are the original sender: stream the data.
      const int receiver = env.dst_world;
      push_out(receiver, OutItem{OutItem::Kind::kRdma, std::move(env), true});
      break;
    }
    case net::PacketKind::kRdmaData: {
      Request req = unpark(env.recv_slot);
      if (MpiHooks* hk = hooks()) {
        hk->on_deliver(env.src_world, rank_, env.bytes);
      }
      record_arrival(env.id);
      req->info = fill_info(env);
      complete(req);
      const int sender = env.src_world;
      push_out(sender, OutItem{OutItem::Kind::kFin, std::move(env), true});
      break;
    }
    case net::PacketKind::kFin:
      complete(unpark(env.send_slot));
      break;
  }
}

// ---------------------------------------------------------------------------
// RankCtx: checkpoint control surface
// ---------------------------------------------------------------------------

void RankCtx::freeze() {
  exec_->pause();
  // The endpoint lock lives on the service LP; one control hop away.
  mpi_.fabric_.request_lock(rank_);
}

void RankCtx::thaw() {
  mpi_.fabric_.request_unlock(rank_);
  exec_->resume();
}

}  // namespace gbc::mpi
