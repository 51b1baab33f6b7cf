#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <list>
#include <memory>
#include <vector>

#include "sim/condition.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace gbc::storage {

using Bytes = std::int64_t;

inline constexpr Bytes kKiB = 1024;
inline constexpr Bytes kMiB = 1024 * kKiB;
inline constexpr Bytes kGiB = 1024 * kMiB;

/// Converts a megabyte count to Bytes (binary megabytes, as used for
/// checkpoint image sizes throughout the paper's evaluation).
constexpr Bytes mib(double m) { return static_cast<Bytes>(m * kMiB); }

/// Parameters of the shared parallel file system (PVFS2 over IPoIB in the
/// paper's testbed). Calibrated so the model reproduces Figure 1: a single
/// client is limited by its own NIC/IPoIB stack, the servers saturate around
/// `aggregate_cap_mbps`, and aggregate throughput droops mildly once many
/// more clients than servers contend.
struct StorageConfig {
  int num_servers = 4;
  double per_client_cap_mbps = 108.0;  ///< one client's max write bandwidth
  double aggregate_cap_mbps = 140.0;   ///< server-side saturation throughput
  double congestion_alpha = 0.002;     ///< droop per client beyond the knee
  int congestion_knee = 4;             ///< clients before congestion starts
  double read_factor = 1.15;           ///< restore reads are a bit faster

  /// Per-file striping model. 0 (default) uses the pooled fair-share model;
  /// 1..num_servers stripes each file over that many servers (assigned
  /// round-robin), with per-server capacities and max-min fair (progressive
  /// filling) rate allocation — hotspots form when stripe_count <
  /// num_servers, as on a real PVFS2 deployment.
  int stripe_count = 0;

  /// Aggregate deliverable throughput (MB/s) with n concurrent clients.
  double aggregate_mbps(int n) const {
    if (n <= 0) return 0.0;
    double ramp = std::min(n * per_client_cap_mbps, aggregate_cap_mbps);
    double extra = n > congestion_knee ? n - congestion_knee : 0;
    return ramp / (1.0 + congestion_alpha * extra);
  }

  /// Fair share (MB/s) each of n concurrent clients obtains.
  double per_client_mbps(int n) const {
    return n <= 0 ? 0.0 : aggregate_mbps(n) / n;
  }
};

/// Central storage system with processor-sharing bandwidth allocation:
/// all in-flight transfers progress simultaneously at the current fair-share
/// rate, and rates are recomputed exactly at every arrival and departure.
/// This is the "storage bottleneck" of the paper: with N writers each gets
/// ~aggregate/N, so a full-job checkpoint takes ~N*S/aggregate.
class StorageSystem {
 public:
  StorageSystem(sim::Engine& eng, StorageConfig cfg);
  StorageSystem(const StorageSystem&) = delete;
  StorageSystem& operator=(const StorageSystem&) = delete;

  /// Writes `size` bytes (a checkpoint image); completes when fully stored.
  sim::Task<void> write(Bytes size) { return transfer(size, /*read=*/false); }
  /// Reads `size` bytes (a restart image).
  sim::Task<void> read(Bytes size) { return transfer(size, /*read=*/true); }

  const StorageConfig& config() const noexcept { return cfg_; }
  int active_flows() const noexcept { return static_cast<int>(flows_.size()); }
  int peak_concurrency() const noexcept { return peak_concurrency_; }
  std::int64_t completed_flows() const noexcept { return completed_flows_; }
  Bytes bytes_transferred() const noexcept { return bytes_transferred_; }
  /// Simulated time during which at least one flow was active.
  sim::Time busy_time() const noexcept;

 private:
  struct Flow {
    double remaining;  // bytes left to move
    bool read;
    bool done = false;
    double rate_bps = 0;       // current allocation
    std::vector<int> servers;  // stripe targets (striped model only)
    sim::Condition cv;
    explicit Flow(sim::Engine& e, double bytes, bool rd)
        : remaining(bytes), read(rd), cv(e) {}
  };

  sim::Task<void> transfer(Bytes size, bool read);
  /// Applies progress since last_update_ to every flow at the current rate.
  void advance();
  /// Recomputes per-flow rates (pooled fair share, or max-min waterfilling
  /// over the stripe topology) and (re)schedules the next completion event.
  void reschedule();
  void recompute_rates();
  void on_completion_event(std::uint64_t generation);
  bool striped() const {
    return cfg_.stripe_count > 0 && cfg_.stripe_count < cfg_.num_servers;
  }

  sim::Engine& eng_;
  StorageConfig cfg_;
  std::list<std::shared_ptr<Flow>> flows_;
  int next_stripe_offset_ = 0;
  sim::Time last_update_ = 0;
  std::uint64_t generation_ = 0;  // invalidates stale completion events
  int peak_concurrency_ = 0;
  std::int64_t completed_flows_ = 0;
  Bytes bytes_transferred_ = 0;
  sim::Time busy_accum_ = 0;
  sim::Time busy_since_ = 0;
};

}  // namespace gbc::storage
