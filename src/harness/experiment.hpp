#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "harness/preset.hpp"
#include "workloads/workload.hpp"

namespace gbc::harness {

/// Builds the workload for a job of the given size. Factories are invoked
/// once per simulated run (base run, checkpointed run, recovery phases), so
/// they must produce identically-configured instances each time.
using WorkloadFactory =
    std::function<std::unique_ptr<workloads::Workload>(int nranks)>;

struct CkptRequest {
  sim::Time at;
  ckpt::Protocol protocol = ckpt::Protocol::kGroupBased;
};

struct RunResult {
  sim::Time completion = -1;  ///< when the last rank finished
  std::vector<ckpt::GlobalCheckpoint> checkpoints;
  mpi::MiniMPI::Stats mpi_stats;
  int storage_peak_concurrency = 0;
  std::int64_t connection_setups = 0;
  std::int64_t connection_teardowns = 0;
  std::vector<std::uint64_t> final_iterations;
  std::vector<std::uint64_t> final_hashes;
  std::uint64_t events_processed = 0;  ///< engine events this run dispatched

  // --- staging-tier stats (zero when preset.tier is disabled) ---
  std::int64_t tier_images_drained = 0;
  std::int64_t tier_write_throughs = 0;  ///< capacity fallbacks to the PFS
  std::int64_t tier_replicas = 0;
  std::int64_t tier_images_encoded = 0;  ///< erasure stripes placed

  double completion_seconds() const { return sim::to_seconds(completion); }
  /// Order-sensitive FNV-1a digest of the final per-rank state hashes: any
  /// event-order divergence (e.g. between shard layouts) lands here.
  std::uint64_t state_digest() const {
    std::uint64_t d = 1469598103934665603ull;
    for (std::uint64_t h : final_hashes) {
      d ^= h;
      d *= 1099511628211ull;
    }
    return d;
  }
};

/// Runs one deterministic simulation of `make(n)` on the preset cluster,
/// optionally taking checkpoints at the requested times. When `trace` is
/// given, checkpoint/staging protocol events are recorded into it (enable
/// it first; see sim/trace_chrome.hpp for the chrome://tracing export).
RunResult run_experiment(const ClusterPreset& preset,
                         const WorkloadFactory& make,
                         const ckpt::CkptConfig& ckpt_cfg,
                         const std::vector<CkptRequest>& requests = {},
                         mpi::MpiHooks* hooks = nullptr,
                         sim::Trace* trace = nullptr);

/// Effective Checkpoint Delay (paper Sec. 5): the increase in application
/// running time caused by taking one checkpoint, measured exactly as
/// defined — the same deterministic run with and without the checkpoint.
struct DelayMeasurement {
  double base_seconds = 0;
  double with_ckpt_seconds = 0;
  ckpt::GlobalCheckpoint checkpoint;

  double effective_delay_seconds() const {
    return with_ckpt_seconds - base_seconds;
  }
  double individual_seconds() const {
    return sim::to_seconds(checkpoint.max_individual_time());
  }
  double total_seconds() const {
    return sim::to_seconds(checkpoint.total_checkpoint_time());
  }
};

DelayMeasurement measure_effective_delay(
    const ClusterPreset& preset, const WorkloadFactory& make,
    const ckpt::CkptConfig& ckpt_cfg, sim::Time issuance,
    ckpt::Protocol protocol = ckpt::Protocol::kGroupBased);

/// Same, reusing an already-measured base completion time (saves the extra
/// base run when sweeping many parameters over one workload).
DelayMeasurement measure_effective_delay_with_base(
    const ClusterPreset& preset, const WorkloadFactory& make,
    const ckpt::CkptConfig& ckpt_cfg, sim::Time issuance,
    ckpt::Protocol protocol, double base_seconds);

}  // namespace gbc::harness
