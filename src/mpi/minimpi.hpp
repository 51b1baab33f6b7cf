#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mpi/comm.hpp"
#include "mpi/matcher.hpp"
#include "mpi/types.hpp"
#include "net/fabric.hpp"
#include "net/peer_records.hpp"
#include "sim/condition.hpp"
#include "sim/engine.hpp"
#include "sim/fifo.hpp"
#include "sim/pausable.hpp"
#include "sim/task.hpp"

namespace gbc::mpi {

class MiniMPI;

/// Deferral policy installed by the checkpoint layer (paper Sec. 3.2/4.3):
/// while a global checkpoint is in progress, data-plane traffic between a
/// group that has taken its snapshot and one that has not must be held back.
/// Small already-copied messages wait in the sender's message buffer; large
/// transfers stay as incomplete requests (request buffering).
///
/// Both methods are invoked from the *sender's* shard, so an implementation
/// shared across shards must keep per-shard state (the checkpoint service's
/// gate mirrors its decision data per shard) and hand back a condition that
/// lives on the querying rank's engine.
class CommGate {
 public:
  virtual ~CommGate() = default;
  /// May data flow between these two world ranks right now? Called on
  /// src_world's shard.
  virtual bool allowed(int src_world, int dst_world) const = 0;
  /// Notified whenever the answer to allowed() may have changed; must
  /// return a condition on src_world's engine.
  virtual sim::Condition& changed(int src_world) = 0;
};

/// Interposition hooks below the send/receive paths, used by the logging
/// baselines (pessimistic sender-based logging; Chandy-Lamport channel
/// logging) to charge costs and account volumes. send_tax runs on the
/// sender's shard, on_deliver on the receiver's — implementations keep
/// per-rank slots (see logging_hooks.hpp).
class MpiHooks {
 public:
  virtual ~MpiHooks() = default;
  /// Extra sender-side delay charged before a payload transmit (e.g. the
  /// staging copy + log write of sender-based logging). Also the point where
  /// a logger accounts the bytes.
  virtual sim::Time send_tax(int /*src*/, int /*dst*/, Bytes /*b*/) {
    return 0;
  }
  /// Does this configuration forbid zero-copy rendezvous? (Message logging
  /// must see the payload, so large sends are staged through copies.)
  virtual bool disable_zero_copy() const { return false; }
  /// Called when a payload message enters the receiver's library.
  virtual void on_deliver(int /*src*/, int /*dst*/, Bytes /*b*/) {}
};

struct MpiConfig {
  Bytes eager_threshold = 8 * storage::kKiB;
  /// Host memory copy bandwidth (MB/s) for staging copies when zero-copy is
  /// disabled by a logging hook. 2007-era DDR2 node.
  double mem_copy_mbps = 1800.0;
  /// Record MessageRecords for consistency analysis (tests; small runs).
  bool record_messages = false;
};

/// Job-wide communication statistics. Counters accumulate per rank (each on
/// its own shard) and are merged at read time — see MiniMPI::stats().
struct MpiStats {
  std::int64_t sends = 0;
  std::int64_t recvs = 0;
  Bytes message_buffered_bytes = 0;  ///< eager payloads held by the gate
  Bytes request_buffered_bytes = 0;  ///< large transfers held by the gate
  std::int64_t messages_buffered = 0;
  std::int64_t requests_buffered = 0;
  Bytes peak_message_buffer = 0;  ///< max bytes parked at once on any rank
};

/// Per-process view of the library: the object a rank's program uses for all
/// communication, plus the control surface the checkpoint layer drives
/// (freeze/thaw, buffered-state queries).
///
/// Every mutable member lives on the rank's home shard (the engine the
/// cluster's LpBus assigns to this world rank); all methods below must run
/// there. The checkpoint service reaches this state only by bus message.
class RankCtx {
 public:
  RankCtx(MiniMPI& mpi, int world_rank);
  RankCtx(const RankCtx&) = delete;
  RankCtx& operator=(const RankCtx&) = delete;

  int world_rank() const noexcept { return rank_; }
  int nranks() const noexcept;
  /// This rank's home engine (its shard's engine in a sharded run).
  sim::Engine& engine() noexcept { return eng_; }
  sim::Pausable& exec() noexcept { return *exec_; }
  MiniMPI& mpi() noexcept { return mpi_; }

  /// Burns CPU time; pausable by a checkpoint freeze.
  sim::Task<void> compute(sim::Time d) { return exec_->compute(d); }

  /// A bare library entry (MPI_Test/MPI_Iprobe with no outstanding request):
  /// lets the progress engine service passive coordination requests.
  sim::Task<void> progress() {
    co_await exec_->freeze_point();
    exec_->mark_progress();
  }

  // --- point-to-point ---
  sim::Task<void> send(const Comm& c, int dst, Tag tag, Bytes bytes,
                       Payload data = nullptr);
  sim::Task<RecvInfo> recv(const Comm& c, int src, Tag tag);
  Request isend(const Comm& c, int dst, Tag tag, Bytes bytes,
                Payload data = nullptr);
  Request irecv(const Comm& c, int src, Tag tag);
  sim::Task<void> wait(Request req);
  sim::Task<void> wait_all(std::vector<Request> reqs);
  /// Completes when any request in the set does; returns its index
  /// (MPI_Waitany).
  sim::Task<std::size_t> wait_any(std::vector<Request> reqs);
  bool test(const Request& req) const { return req->done; }
  /// Non-destructively checks for a matching unexpected message
  /// (MPI_Iprobe). Counts as a library entry for passive coordination.
  bool iprobe(const Comm& c, int src, Tag tag);

  // --- collectives (implemented over p2p; see collectives.cpp) ---
  sim::Task<void> barrier(const Comm& c);
  sim::Task<Payload> bcast(const Comm& c, int root, Bytes bytes, Payload data);
  /// Pipelined ring broadcast (HPL's "increasing-ring" variant, bytes only):
  /// each rank returns as soon as its own copy arrives and forwards
  /// asynchronously, so a stalled member blocks only the ranks downstream of
  /// it — the slack that lets other process rows run ahead of a
  /// checkpointing group.
  sim::Task<void> ring_bcast(const Comm& c, int root, Bytes bytes);
  sim::Task<std::vector<double>> reduce(const Comm& c, int root, Op op,
                                        std::vector<double> contrib);
  sim::Task<std::vector<double>> allreduce(const Comm& c, Op op,
                                           std::vector<double> contrib);
  /// Gathers each rank's block; result is the concatenation by comm rank.
  /// `block_bytes` is the wire size of one block.
  sim::Task<std::vector<double>> allgather(const Comm& c, Bytes block_bytes,
                                           std::vector<double> block);
  sim::Task<std::vector<double>> gather(const Comm& c, int root,
                                        Bytes block_bytes,
                                        std::vector<double> block);
  sim::Task<std::vector<double>> scatter(const Comm& c, int root,
                                         Bytes block_bytes,
                                         std::vector<double> all_blocks);
  sim::Task<void> alltoall(const Comm& c, Bytes block_bytes);
  /// Combined send+receive with a single partner pair (MPI_Sendrecv):
  /// deadlock-free even when every rank calls it simultaneously.
  sim::Task<RecvInfo> sendrecv(const Comm& c, int dst, Tag send_tag,
                               Bytes send_bytes, Payload send_data, int src,
                               Tag recv_tag);
  /// Inclusive prefix reduction (MPI_Scan): rank r receives op applied over
  /// the contributions of comm ranks 0..r.
  sim::Task<std::vector<double>> scan(const Comm& c, Op op,
                                      std::vector<double> contrib);
  /// Reduce + scatter of equal blocks (MPI_Reduce_scatter_block): every rank
  /// gets its own block of the element-wise reduction of all contributions,
  /// where contribution i's block r belongs to comm rank r.
  sim::Task<std::vector<double>> reduce_scatter_block(
      const Comm& c, Op op, std::vector<double> contrib);

  // --- non-blocking collectives ---
  // The returned request completes when this rank's participation in the
  // collective finishes; overlap it with computation and wait() on it.
  // All member ranks must start their non-blocking collectives in the same
  // order (the MPI rule), which keeps the internal tags aligned.
  Request ibarrier(const Comm& c);
  Request ibcast(const Comm& c, int root, Bytes bytes);
  Request iallgather(const Comm& c, Bytes block_bytes);

  // --- checkpoint control surface ---
  /// Freezes this process for a snapshot: pauses compute, blocks library
  /// entries, and (by message) locks the endpoint against connection
  /// establishment. Call on this rank's shard.
  void freeze();
  void thaw();
  bool frozen() const { return exec_->paused(); }
  /// Bytes currently parked in the eager message buffer by the gate.
  Bytes message_buffer_bytes() const noexcept { return msg_buffer_cur_; }

  // --- internal: called by the fabric's delivery path (on this shard) ---
  /// Handles one arrived packet in place: the fabric lends the packet
  /// inside its flight record and drops the body once this returns.
  void on_packet(net::Packet& p);

  /// Marks a request complete and wakes its waiters (used by the
  /// non-blocking collective drivers).
  void finish_request(const Request& req) { complete(req); }

  /// Rank-unique message/transfer id (the rank id is folded into the high
  /// bits so id spaces never collide across shards).
  std::uint64_t next_id() {
    return (static_cast<std::uint64_t>(rank_ + 1) << 40) | ++id_counter_;
  }

 private:
  friend class MiniMPI;

  struct OutItem {
    enum class Kind : std::uint8_t { kEager, kRts, kCts, kRdma, kFin };
    Kind kind;
    Envelope env;
    bool gated = false;   // subject to the checkpoint deferral gate
    bool counted = false; // buffering stats recorded already
    bool taxed = false;   // sender-side tax (logging/staging) already paid
  };
  /// The outbound lane toward one destination: items held back by the
  /// gate, the connection or a sender-side tax, oldest first, and whether
  /// a pump frame is draining them.
  struct Lane {
    sim::Fifo<OutItem> q;
    bool pump_running = false;
  };

  void push_out(int dst, OutItem item);
  void account_buffered(OutItem& item);
  /// Drains the lane in `slot` (toward dst). Holds the slot, not the lane:
  /// lanes to new peers may be added while it is suspended.
  sim::Task<void> pump(int dst, std::uint32_t slot);
  /// Builds the wire packet, moving the envelope out of the consumed item.
  static net::Packet to_packet(OutItem&& item);
  Request make_request(bool is_recv);
  void complete(const Request& req);
  /// Parks an open rendezvous request in the slot table; returns its slot.
  std::uint32_t park(Request req);
  /// Takes the request out of `slot` and frees the slot for reuse.
  Request unpark(std::uint32_t slot);
  void deliver_eager(Envelope env);
  void deliver_rts(Envelope env);
  void start_rndv_receive(Envelope env, const Request& req);
  RecvInfo fill_info(const Envelope& env) const;
  /// Allocates the tag base for one collective operation on `c`; all member
  /// ranks call collectives in the same order, so bases agree.
  Tag begin_collective(const Comm& c);
  void record_transmit(std::uint64_t id, int dst, Bytes b);
  void record_arrival(std::uint64_t id);
  MpiHooks* hooks() const noexcept;

  MiniMPI& mpi_;
  int rank_;
  sim::Engine& eng_;  // this rank's home engine
  std::unique_ptr<sim::Pausable> exec_;
  // Declared before every member that holds a Request, so it outlives them.
  RequestPool reqs_;
  Matcher matcher_;
  // One lane per destination, in first-contact order.
  net::PeerRecords<Lane> lanes_;
  // Open rendezvous requests (sends awaiting FIN, receives awaiting RDMA
  // data), indexed by the slot the envelope carries; freed slots are reused
  // last-in first-out.
  std::vector<Request> rndv_slots_;
  std::vector<std::uint32_t> free_slots_;
  // Collective sequence numbers, indexed by comm id (ids are dense creation
  // indexes; see MiniMPI::find_comm).
  std::vector<std::uint64_t> coll_seq_;
  sim::Condition any_complete_;  // wakes wait_any
  Bytes msg_buffer_cur_ = 0;
  std::uint64_t id_counter_ = 0;
  MpiStats stats_;
  // Consistency-analysis records: transmits this rank originated and
  // arrivals here, each with its transfer id. Joined job-wide at read time.
  std::vector<std::pair<std::uint64_t, MessageRecord>> records_;
  std::vector<std::pair<std::uint64_t, sim::Time>> arrivals_;
};

/// Whole-job library instance: owns the per-rank contexts, the communicator
/// registry, deferral gate and hooks, and merged statistics. The per-rank
/// contexts live on their home shards; everything MiniMPI itself owns
/// (communicators, gate/hook pointers) is immutable during a run or updated
/// only at quiescent points / by per-rank message.
class MiniMPI {
 public:
  MiniMPI(sim::Engine& eng, net::Fabric& fabric, MpiConfig cfg = {});

  int nranks() const noexcept { return static_cast<int>(ranks_.size()); }
  /// The service engine (shard 0) — NOT where rank code runs; use
  /// RankCtx::engine() for per-rank work.
  sim::Engine& engine() noexcept { return eng_; }
  net::Fabric& fabric() noexcept { return fabric_; }
  const MpiConfig& config() const noexcept { return cfg_; }

  RankCtx& rank(int r) { return *ranks_.at(r); }
  const Comm& world() const { return *comms_.front(); }
  /// Registers a communicator over the given world ranks. Quiescent points
  /// only (setup / collectively ordered): the registry is read lock-free
  /// from every shard.
  const Comm& create_comm(std::vector<int> members);
  /// Splits `parent` by color: ranks with equal color (indexed by comm rank)
  /// end up in one communicator, ordered by parent comm rank.
  std::vector<const Comm*> split(const Comm& parent,
                                 const std::vector<int>& colors);
  /// The communicator with this id, or null. Ids count up from 0 (world)
  /// in creation order, so this is an index.
  const Comm* find_comm(std::uint64_t id) const;

  void set_gate(CommGate* gate);
  CommGate* gate() const noexcept { return gate_; }
  /// Installs `hooks` on every rank. Quiescent points only — for a mid-run
  /// swap, message each rank's shard via set_rank_hooks.
  void set_hooks(MpiHooks* hooks) {
    for (auto& h : hook_of_) h = hooks;
  }
  MpiHooks* hooks() const noexcept { return hook_of_[0]; }
  /// Per-rank hook slot; access only from rank r's shard (or quiescent).
  void set_rank_hooks(int r, MpiHooks* hooks) { hook_of_[r] = hooks; }
  MpiHooks* rank_hooks(int r) const { return hook_of_[r]; }

  // --- statistics ---
  using Stats = MpiStats;
  /// Merged job-wide statistics. Aggregate read: call at quiescent points
  /// (end of run, or from a test driving a single engine).
  Stats stats() const;

  // --- message records for consistency analysis ---
  /// Merged job-wide transmit/arrival records, ordered by (transmit time,
  /// id) — canonical at any shard count. Aggregate read: quiescent only.
  std::vector<MessageRecord> message_records() const;

 private:
  friend class RankCtx;

  sim::Engine& eng_;
  net::Fabric& fabric_;
  MpiConfig cfg_;
  std::vector<std::unique_ptr<RankCtx>> ranks_;
  std::vector<std::unique_ptr<Comm>> comms_;
  CommGate* gate_ = nullptr;
  std::vector<MpiHooks*> hook_of_;
};

}  // namespace gbc::mpi
