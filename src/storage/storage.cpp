#include "storage/storage.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace gbc::storage {

namespace {
// Bandwidths are quoted in "MB/s" like the paper; internally one MB is one
// MiB so checkpoint-image sizes and rates use the same unit.
constexpr double kBytesPerMb = static_cast<double>(kMiB);
}  // namespace

StorageSystem::StorageSystem(sim::Engine& eng, StorageConfig cfg)
    : eng_(eng), cfg_(cfg) {}

sim::Time StorageSystem::busy_time() const noexcept {
  return busy_accum_ + (flows_.empty() ? 0 : eng_.now() - busy_since_);
}

void StorageSystem::recompute_rates() {
  const int n = active_flows();
  if (n == 0) return;
  if (!striped()) {
    // Pooled model: symmetric fair share of the aggregate.
    const double share = cfg_.per_client_mbps(n) * kBytesPerMb;
    for (auto& f : flows_) {
      f->rate_bps = share * (f->read ? cfg_.read_factor : 1.0);
    }
    return;
  }
  // Striped model: max-min fair allocation (progressive filling) subject to
  // per-server capacities and the per-client cap. A flow spreads its rate
  // evenly over its stripe servers.
  const double total = cfg_.aggregate_mbps(n) * kBytesPerMb;
  const double server_cap = total / cfg_.num_servers;
  std::vector<double> server_load(cfg_.num_servers, 0.0);
  std::vector<Flow*> unfrozen;
  unfrozen.reserve(flows_.size());
  for (auto& f : flows_) {
    f->rate_bps = 0;
    unfrozen.push_back(f.get());
  }
  constexpr double kEps = 1e-6;
  while (!unfrozen.empty()) {
    std::vector<double> slope(cfg_.num_servers, 0.0);
    for (Flow* f : unfrozen) {
      for (int s : f->servers) {
        slope[s] += 1.0 / static_cast<double>(f->servers.size());
      }
    }
    double step = std::numeric_limits<double>::infinity();
    for (int s = 0; s < cfg_.num_servers; ++s) {
      if (slope[s] > 0) {
        step = std::min(step, (server_cap - server_load[s]) / slope[s]);
      }
    }
    for (Flow* f : unfrozen) {
      const double cap =
          cfg_.per_client_cap_mbps * kBytesPerMb *
          (f->read ? cfg_.read_factor : 1.0);
      step = std::min(step, cap - f->rate_bps);
    }
    if (!std::isfinite(step) || step < 0) break;
    for (Flow* f : unfrozen) {
      f->rate_bps += step;
      for (int s : f->servers) {
        server_load[s] += step / static_cast<double>(f->servers.size());
      }
    }
    // Freeze flows at their client cap or touching a saturated server.
    std::vector<Flow*> still;
    for (Flow* f : unfrozen) {
      const double cap =
          cfg_.per_client_cap_mbps * kBytesPerMb *
          (f->read ? cfg_.read_factor : 1.0);
      bool frozen = f->rate_bps >= cap - kEps;
      for (int s : f->servers) {
        if (server_load[s] >= server_cap - kEps) frozen = true;
      }
      if (!frozen) still.push_back(f);
    }
    if (still.size() == unfrozen.size()) break;  // numerical safety
    unfrozen.swap(still);
  }
}

void StorageSystem::advance() {
  const sim::Time now = eng_.now();
  const sim::Time dt = now - last_update_;
  last_update_ = now;
  if (dt <= 0 || flows_.empty()) return;
  const double seconds = sim::to_seconds(dt);
  for (auto& f : flows_) f->remaining -= f->rate_bps * seconds;
}

void StorageSystem::reschedule() {
  ++generation_;
  if (flows_.empty()) return;
  recompute_rates();
  double earliest_s = -1.0;
  for (const auto& f : flows_) {
    const double left = std::max(f->remaining, 0.0);
    const double secs = f->rate_bps > 0 ? left / f->rate_bps : 0.0;
    if (earliest_s < 0 || secs < earliest_s) earliest_s = secs;
  }
  const auto dt = static_cast<sim::Time>(
      std::ceil(earliest_s * static_cast<double>(sim::kSecond)));
  const std::uint64_t gen = generation_;
  eng_.schedule_after(std::max<sim::Time>(dt, 0),
                      [this, gen] { on_completion_event(gen); });
}

void StorageSystem::on_completion_event(std::uint64_t generation) {
  if (generation != generation_) return;  // superseded by a set change
  advance();
  bool removed = false;
  for (auto it = flows_.begin(); it != flows_.end();) {
    auto& f = **it;
    if (f.remaining <= 0.5) {
      f.done = true;
      f.cv.notify_all();
      ++completed_flows_;
      it = flows_.erase(it);
      removed = true;
    } else {
      ++it;
    }
  }
  if (removed && flows_.empty()) busy_accum_ += eng_.now() - busy_since_;
  reschedule();
}

sim::Task<void> StorageSystem::transfer(Bytes size, bool read) {
  if (size <= 0) co_return;
  bytes_transferred_ += size;
  advance();
  auto flow = std::make_shared<Flow>(eng_, static_cast<double>(size), read);
  if (striped()) {
    for (int k = 0; k < cfg_.stripe_count; ++k) {
      flow->servers.push_back((next_stripe_offset_ + k) % cfg_.num_servers);
    }
    next_stripe_offset_ = (next_stripe_offset_ + 1) % cfg_.num_servers;
  }
  if (flows_.empty()) busy_since_ = eng_.now();
  flows_.push_back(flow);
  peak_concurrency_ = std::max(peak_concurrency_, active_flows());
  reschedule();
  while (!flow->done) co_await flow->cv.wait();
}

}  // namespace gbc::storage
