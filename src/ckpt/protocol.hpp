#pragma once

#include <cstdint>
#include <vector>

#include "ckpt/group_formation.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "storage/storage.hpp"

namespace gbc::sim {
class Engine;
}
namespace gbc::mpi {
class MiniMPI;
}
namespace gbc::storage {
class StorageSystem;
}

namespace gbc::ckpt {

class CheckpointService;
struct CkptConfig;
struct GlobalCheckpoint;
enum class Protocol : std::uint8_t;

/// The named coordination phases every checkpoint protocol is built from
/// (DESIGN.md §11). A protocol runs them per group, per rank, or globally —
/// but the vocabulary is shared, so traces, docs and tests speak one
/// language across protocols.
enum class Phase : std::uint8_t {
  kQuiesce,   ///< fan-out + freeze: members stop wherever they are
  kDrain,     ///< flush in-transit messages on the members' connections
  kTeardown,  ///< release IB connections (QPs cannot survive a restart)
  kSnapshot,  ///< write the process images
  kRebuild,   ///< re-establish the torn-down connections
  kResume,    ///< thaw the members
};

const char* phase_name(Phase p);

/// Per-cycle façade handed to a ProtocolRunner: everything a protocol may
/// do during one global checkpoint, and nothing else. Wraps the service's
/// internals (deferral gate, trace, tier-aware snapshot writes) so protocol
/// TUs cannot reach into CheckpointService state directly.
///
/// A context is anchored at an LP (`self_lp`): the service LP by default,
/// or — via fork_for() — a per-group checkpoint coordinator LP, which runs
/// the group phase machine on its own home shard (DESIGN.md §15). Every
/// control-plane primitive below uses self_lp as its bus source, and the
/// ones that touch root-owned state (connection manager, recovery line,
/// shared PFS) route there by message when anchored away from the root.
class CycleContext {
 public:
  CycleContext(CheckpointService& svc, GlobalCheckpoint& gc)
      : svc_(svc), gc_(gc) {}

  /// A copy of this context anchored at `self_lp` (a group coordinator).
  /// The fork shares the cycle and service; only the anchor differs.
  CycleContext fork_for(int self_lp) const {
    CycleContext c(svc_, gc_);
    c.self_lp_ = self_lp;
    return c;
  }
  /// The LP this context runs on (resolves the root anchor to the bus's
  /// service LP id).
  int self_lp() const noexcept;
  bool at_root() const noexcept { return self_lp_ < 0; }

  /// The anchor's engine: the service engine at root, the coordinator's
  /// home shard engine in a fork.
  sim::Engine& engine() noexcept;
  mpi::MiniMPI& mpi() noexcept;
  storage::StorageSystem& shared_fs() noexcept;
  const CkptConfig& config() const noexcept;
  GlobalCheckpoint& cycle() noexcept { return gc_; }
  int nranks() const noexcept;

  /// In-cycle plan formation: gathers each rank's traffic row from its own
  /// shard by RPC (the rows are rank-owned under the sharding discipline),
  /// then runs the planner service-side.
  sim::Task<GroupPlan> gather_plan();

  // --- consistency rule (drives the service's DeferralGate) ---
  /// Installs the plan's rank→group map and clears the recovery-line state.
  void assign_groups(const GroupPlan& plan);
  /// Enables/disables traffic deferral across the recovery line.
  /// Root-anchored contexts only (the flag is root-owned).
  void set_defer_active(bool on);
  /// Wakes senders blocked on the gate after the line moved. Root only.
  void notify_gate();
  /// Flips a whole group onto the new side of the line (traced) and wakes
  /// the gate, as ONE message to the root LP (which owns the line and the
  /// gate fan-out). Works from any anchor.
  sim::Task<void> mark_group_on_recovery_line(const std::vector<int>& group);

  // --- per-rank BLCR-style control (all traced) ---
  /// Freezes `rank` by RPC to its shard; resolves once the pause landed
  /// (freeze_begin is stamped with the pause instant, one bus hop after the
  /// request). Launch a JoinSet of these to freeze a group simultaneously.
  sim::Task<void> freeze(int rank);
  /// Thaws `rank` with a one-way message; resume_at is the arrival instant.
  void thaw(int rank);
  /// Writes one rank's image (tier-aware) and stamps its RankSnapshot.
  sim::Task<void> snapshot_rank(int rank);

  // --- connection churn with passive-peer service points ---
  /// Rank m's currently-connected peers. The connection manager is
  /// root-owned: a forked context fetches the list by RPC.
  sim::Task<std::vector<int>> connected_peers(int m);
  sim::Task<void> teardown_one(int m, int peer, bool peer_passive);
  sim::Task<void> rebuild_one(int m, int peer, bool peer_passive);

  /// Test hook: true exactly once for the group coordinator `coord` after
  /// CheckpointService::fail_coordinator_once(coord) armed it — the
  /// coordinator then abandons its dispatch (its node "died" right after
  /// the fan-out reached it) and the root LP recovers the group.
  bool take_coordinator_failure(int coord);

  /// Latency of a binomial-tree control fan-out over `width` endpoints.
  sim::Time fanout_latency(int width) const;

  // --- named-phase trace spans (chrome://tracing 'B'/'E' pairs) ---
  void phase_begin(Phase p, int actor = -1);
  void phase_end(Phase p, int actor = -1);

 private:
  CheckpointService& svc_;
  GlobalCheckpoint& gc_;
  int self_lp_ = -1;  ///< -1 = the root (service) LP
};

/// One checkpoint protocol: runs a full cycle phase by phase. Implementations
/// live one-per-TU (protocol_blocking.cpp, protocol_group.cpp,
/// protocol_chandy_lamport.cpp, protocol_uncoordinated.cpp) and are looked up
/// through protocol_runner(). Runners are stateless: all per-cycle state
/// lives in the CycleContext and the GlobalCheckpoint it wraps.
class ProtocolRunner {
 public:
  virtual ~ProtocolRunner() = default;
  virtual const char* name() const = 0;
  /// Executes one cycle: must set gc.plan and fill every RankSnapshot's
  /// freeze/snapshot/resume timestamps before returning.
  virtual sim::Task<void> run(CycleContext& ctx) const = 0;
};

/// Registry keyed by Protocol (explicit table, no static-initializer
/// tricks — safe inside a static library).
const ProtocolRunner& protocol_runner(Protocol p);

}  // namespace gbc::ckpt
