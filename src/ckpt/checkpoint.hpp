#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ckpt/group_formation.hpp"
#include "mpi/minimpi.hpp"
#include "sim/condition.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "storage/storage.hpp"

namespace gbc::storage {
class TieredStore;
}

namespace gbc::ckpt {

using Bytes = storage::Bytes;

/// Which checkpointing protocol drives a cycle.
enum class Protocol : std::uint8_t {
  /// All processes snapshot at once (Gao et al. ICPP'06; the paper's
  /// "regular coordinated checkpointing" baseline).
  kBlockingCoordinated,
  /// The paper's contribution: groups snapshot one after another, other
  /// groups keep computing, cross-line traffic is deferred via
  /// message/request buffering.
  kGroupBased,
  /// Non-blocking Chandy-Lamport: everyone snapshots on marker receipt and
  /// logs channel messages — no global schedule, so the storage bottleneck
  /// remains, plus logging volume (paper Sec. 2.1 / 7).
  kChandyLamport,
  /// Uncoordinated: each rank snapshots independently; consistency would
  /// come from (always-on) sender-based message logging.
  kUncoordinatedLogging,
};

const char* protocol_name(Protocol p);

/// Tunables of the C/R framework.
struct CkptConfig {
  /// Static checkpoint group size (0 = one group with every rank).
  int group_size = 0;
  /// Use dynamic group formation from the observed traffic matrix; falls
  /// back to static blocks when the app communicates globally.
  bool dynamic_formation = false;
  /// Asynchronous progress (paper Sec. 4.4): a helper thread bounds how long
  /// a computing process takes to service passive coordination requests.
  bool async_progress = true;
  sim::Time helper_interval = 100 * sim::kMillisecond;
  /// Rebuild a group's connections right after its snapshot (vs. lazily on
  /// next use).
  bool eager_rebuild = true;
  /// Per-rank stagger for uncoordinated checkpointing.
  sim::Time uncoordinated_stagger = 500 * sim::kMillisecond;
  /// Cost of one control-plane message (coordination RPC).
  sim::Time control_latency = 5 * sim::kMicrosecond;

  // --- Incremental checkpointing (paper Sec. 7/8 future work; TICK-style
  // kernel-level dirty-page tracking). The first snapshot of a rank is
  // always full; later ones write only the pages dirtied since the previous
  // snapshot, modelled as floor + rate * elapsed (capped at the footprint).
  bool incremental = false;
  double dirty_floor = 0.15;            ///< fraction dirtied immediately
  double dirty_rate_per_second = 0.02;  ///< extra fraction per second

  // --- Multi-level staging (storage::TieredStore; DESIGN.md §10). When a
  // tier is attached and use_tier is set, snapshots land on the node-local
  // tier (and optionally a partner replica) instead of the shared PFS; the
  // background drain makes them PFS-durable later.
  bool use_tier = true;
  /// Pause the node's background drain while its foreground snapshot writes
  /// to the local disk (the two compete for the same device).
  bool pause_drain_during_snapshot = true;
};

/// Where a rank's snapshot image lived when its checkpoint completed.
enum class ImagePlacement : std::uint8_t {
  kPfs,              ///< written straight to the shared PFS (no tier)
  kLocal,            ///< node-local tier only (lost with the node)
  kLocalReplicated,  ///< node-local tier + partner replica
  kLocalErasure,     ///< node-local tier + erasure stripe across parity group
};

/// One rank's snapshot (what BLCR would write).
struct RankSnapshot {
  int rank = -1;
  Bytes image_bytes = 0;
  std::vector<std::uint64_t> app_state;  ///< workload resume blob
  sim::Time taken_at = -1;          ///< logical snapshot instant
  sim::Time freeze_begin = -1;
  sim::Time resume_at = -1;         ///< thawed (downtime = resume - freeze)
  sim::Time storage_time = 0;       ///< portion spent writing the image

  // --- staging (set only when a TieredStore handled the write) ---
  std::uint64_t image_id = 0;  ///< TieredStore ledger id (0 = direct PFS)
  ImagePlacement placement = ImagePlacement::kPfs;
  int replica_node = -1;  ///< partner holding the replica, -1 if none
};

/// Result of one global checkpoint cycle.
struct GlobalCheckpoint {
  Protocol protocol{};
  GroupPlan plan;
  sim::Time requested_at = -1;
  sim::Time completed_at = -1;
  std::vector<RankSnapshot> snapshots;  // indexed by rank
  Bytes logged_bytes = 0;               // channel/message logging volume

  sim::Time total_checkpoint_time() const {
    return completed_at - requested_at;
  }
  /// Downtime observed by one process (paper: Individual Checkpoint Time).
  sim::Time individual_time(int rank) const {
    const auto& s = snapshots[rank];
    return s.resume_at - s.freeze_begin;
  }
  sim::Time max_individual_time() const;
  double mean_individual_time() const;
  /// Fraction of mean downtime spent on storage (paper reports >95%).
  double storage_fraction() const;
};

/// The C/R framework: a global coordinator plus the per-rank control surface
/// (freeze/thaw, deferral gate, connection churn, BLCR-style image writes).
/// The protocols themselves live behind the ProtocolRunner registry
/// (protocol.hpp); checkpoint() looks the requested one up and hands it a
/// CycleContext scoped to the cycle.
class CheckpointService {
 public:
  CheckpointService(mpi::MiniMPI& mpi, storage::StorageSystem& fs,
                    CkptConfig cfg = {});
  ~CheckpointService();

  CkptConfig& config() noexcept { return cfg_; }

  /// How big rank r's process image is right now (bytes). Workloads update
  /// this as their memory footprint evolves.
  void set_footprint_provider(std::function<Bytes(int)> f) {
    footprint_ = std::move(f);
  }
  /// Opaque workload state captured in each snapshot (resume token).
  void set_state_capture(std::function<std::vector<std::uint64_t>(int)> f) {
    capture_ = std::move(f);
  }

  /// Runs one full checkpoint cycle; resolves when the global checkpoint is
  /// complete. If a cycle is already active, waits for it to finish first
  /// (requests serialize, they are never dropped).
  sim::Task<GlobalCheckpoint> checkpoint(Protocol protocol);

  /// Fire-and-forget request at an absolute time (records into history()).
  void request_at(sim::Time t, Protocol protocol);

  /// Periodic checkpointing: one request every `interval`, starting at
  /// `first`, for the rest of the run.
  void request_every(sim::Time first, sim::Time interval, Protocol protocol);

  const std::vector<GlobalCheckpoint>& history() const { return history_; }
  bool cycle_active() const noexcept { return cycle_active_; }

  /// The plan the next group-based cycle would use (for tests/benches).
  GroupPlan plan_groups() const;

  /// Optional structured trace of protocol events (cycle/group/freeze/
  /// snapshot/resume), for debugging and schedule visualisation.
  void set_trace(sim::Trace* trace) { trace_ = trace; }

  /// Attaches a node-local staging tier: snapshot writes go to it instead
  /// of the shared PFS (when cfg_.use_tier; see DESIGN.md §10).
  void set_tier(storage::TieredStore* tier) { tier_ = tier; }

  /// Rank-process liveness, reported by the harness (SimCluster::
  /// spawn_ranks): rank mains run on other shards' engines, so the service
  /// engine's live_processes() does not see them. started is called at
  /// setup (quiescent); finished arrives by bus message when a rank's main
  /// returns. The periodic driver stops once no rank is live.
  void note_rank_started() { ++live_ranks_; }
  void note_rank_finished() { --live_ranks_; }
  int live_ranks() const noexcept { return live_ranks_; }

  /// Test hook (coordinator federation): arms a one-shot failure of the
  /// group coordinator anchored at `rank` — its next dispatch aborts before
  /// any member is touched (the coordinator's node "died" right after the
  /// fan-out reached it) and the root LP runs that group itself. Arm at
  /// quiescence, before the cycle.
  void fail_coordinator_once(int rank) { abandon_coordinator_ = rank; }

 private:
  /// The consistency rule, evaluated on the *sender's* shard: each shard
  /// owns a mirror (ShardView) of the recovery-line state, anchored at its
  /// first rank LP and updated only by service→shard bus messages. allowed()
  /// and changed() touch nothing but the caller's own view, so the gate is
  /// queried from every shard without shared mutable state; the one-hop lag
  /// of a view update is harmless because the deferral hazard window opens
  /// at thaw, milliseconds after the line flips (DESIGN.md §13).
  class DeferralGate : public mpi::CommGate {
   public:
    explicit DeferralGate(CheckpointService& svc);
    bool allowed(int a, int b) const override;
    sim::Condition& changed(int src) override;
    /// Service-side: broadcast a fresh copy of (defer_active_, done_) to
    /// every shard's view, waking that shard's blocked senders on arrival.
    void notify();

   private:
    struct ShardView {
      std::vector<char> done;
      bool defer = false;
      std::unique_ptr<sim::Condition> cv;  // on the view's shard engine
    };
    CheckpointService& svc_;
    std::vector<ShardView> views_;
  };

  /// The per-cycle façade protocol runners act through (protocol.hpp).
  friend class CycleContext;

  /// Routes the image write to `rank`'s own LP (the partitioned storage
  /// server for its node) from the anchor LP `self_lp` (-1 = service LP).
  sim::Task<void> snapshot_rank(int rank, GlobalCheckpoint& gc, int self_lp);
  /// The write itself: runs on `rank`'s home engine — footprint/capture
  /// callbacks read rank-owned workload slots, the tier write lands in the
  /// node's partition, and only the shared-PFS legs leave the shard.
  sim::Task<void> write_snapshot(int rank, GlobalCheckpoint& gc);
  Bytes footprint(int rank) const {
    return footprint_ ? footprint_(rank) : storage::mib(64);
  }
  /// Bytes actually written for this snapshot (full or incremental), given
  /// the writing engine's current time.
  Bytes image_bytes_for(int rank, sim::Time now) const;

  sim::Engine& eng_;
  mpi::MiniMPI& mpi_;
  storage::StorageSystem& fs_;
  storage::TieredStore* tier_ = nullptr;
  CkptConfig cfg_;
  std::function<Bytes(int)> footprint_;
  std::function<std::vector<std::uint64_t>(int)> capture_;
  std::unique_ptr<DeferralGate> gate_;
  std::vector<int> group_of_;   // valid during a cycle
  std::vector<char> done_;      // per-rank: group snapshot complete
  bool cycle_active_ = false;
  bool defer_active_ = false;   // gate enforces the done/not-done rule
  sim::Condition cycle_done_;
  int live_ranks_ = 0;
  int abandon_coordinator_ = -1;  // one-shot test hook, see above
  sim::Trace* trace_ = nullptr;
  std::vector<sim::Time> last_snapshot_at_;  // -1: no snapshot yet
  std::vector<GlobalCheckpoint> history_;
};

}  // namespace gbc::ckpt
