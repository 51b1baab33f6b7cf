#include "harness/experiment.hpp"

#include <algorithm>

#include "harness/sim_cluster.hpp"
#include "harness/sweep.hpp"
#include "storage/tiers.hpp"

namespace gbc::harness {

namespace {

sim::Task<void> rank_program(workloads::Workload* wl, mpi::RankCtx* rank,
                             workloads::WorkloadState from) {
  co_await wl->run_rank(*rank, from);
}

}  // namespace

RunResult run_experiment(const ClusterPreset& preset,
                         const WorkloadFactory& make,
                         const ckpt::CkptConfig& ckpt_cfg,
                         const std::vector<CkptRequest>& requests,
                         mpi::MpiHooks* hooks, sim::Trace* trace) {
  SimCluster cluster(preset, ckpt_cfg, {.trace = trace, .hooks = hooks});

  std::unique_ptr<workloads::Workload> wl = make(preset.nranks);
  wl->setup(cluster.mpi());
  wl->attach(cluster.checkpoints());

  for (const auto& req : requests) {
    cluster.checkpoints().request_at(req.at, req.protocol);
  }

  // Completion stamps are per-rank slots (each written from its own shard);
  // the max is folded after the run, at quiescence.
  std::vector<sim::Time> done_at(preset.nranks, 0);
  cluster.spawn_ranks([&](mpi::RankCtx& rank) {
    return [](workloads::Workload* w, mpi::RankCtx* rk,
              sim::Time* done) -> sim::Task<void> {
      co_await rank_program(w, rk, {});
      *done = rk->engine().now();
    }(wl.get(), &rank, &done_at[rank.world_rank()]);
  });
  cluster.run();

  RunResult res;
  res.completion = 0;
  for (sim::Time t : done_at) res.completion = std::max(res.completion, t);
  res.checkpoints = cluster.checkpoints().history();
  res.mpi_stats = cluster.mpi().stats();
  res.storage_peak_concurrency = cluster.shared_fs().peak_concurrency();
  res.connection_setups = cluster.connections().total_setups();
  res.connection_teardowns = cluster.connections().total_teardowns();
  for (int r = 0; r < preset.nranks; ++r) {
    res.final_iterations.push_back(wl->state(r).iteration);
    res.final_hashes.push_back(wl->state(r).hash);
  }
  if (auto* tier = cluster.tier()) {
    res.tier_images_drained = tier->images_drained();
    res.tier_write_throughs = tier->write_throughs();
    res.tier_replicas = tier->replicas_made();
    res.tier_images_encoded = tier->images_encoded();
  }
  res.events_processed = cluster.sharded().total_events();
  return res;
}

DelayMeasurement measure_effective_delay(const ClusterPreset& preset,
                                         const WorkloadFactory& make,
                                         const ckpt::CkptConfig& ckpt_cfg,
                                         sim::Time issuance,
                                         ckpt::Protocol protocol) {
  // The base and checkpointed runs are independent deterministic
  // simulations; run the pair through the sweep pool.
  std::vector<ExperimentPoint> pts(2);
  pts[0].preset = preset;
  pts[0].factory = make;
  pts[0].ckpt_cfg = ckpt_cfg;
  pts[1].preset = preset;
  pts[1].factory = make;
  pts[1].ckpt_cfg = ckpt_cfg;
  pts[1].requests.push_back(CkptRequest{issuance, protocol});
  auto runs = run_experiments(pts);
  return to_delay_measurement(runs[1], runs[0].completion_seconds());
}

DelayMeasurement measure_effective_delay_with_base(
    const ClusterPreset& preset, const WorkloadFactory& make,
    const ckpt::CkptConfig& ckpt_cfg, sim::Time issuance,
    ckpt::Protocol protocol, double base_seconds) {
  const std::vector<CkptRequest> reqs{CkptRequest{issuance, protocol}};
  return to_delay_measurement(run_experiment(preset, make, ckpt_cfg, reqs),
                              base_seconds);
}

}  // namespace gbc::harness
