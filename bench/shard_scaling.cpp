// Shard-scaling benchmark: the full protocol stack (the `gbcsim run`
// configuration: MiniMPI + Fabric + two group-based checkpoints) run at 1, 2
// and 4 shards, each on up to one worker thread per shard leased from the
// shared ThreadBudget. Each row reports host events/s, the per-shard
// processed-event split and shard 0's share — the number the per-rank LP
// partition (DESIGN.md §13) is supposed to drive from ~100% down to the
// service traffic — plus the engine's rounds, windows and cross-shard
// events, which depend only on the horizon rule and the shard count, so two
// builds' rows diff to zero when their horizons agree. State hashes are
// printed so a scaling run doubles as a determinism check: every row must
// agree.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "harness/cli.hpp"
#include "harness/experiment.hpp"
#include "harness/sim_cluster.hpp"
#include "harness/thread_budget.hpp"
#include "workloads/microbench.hpp"

namespace {

using namespace gbc;

// One full-stack run at a given shard/thread split. Mirrors
// harness::run_experiment but keeps the cluster in scope so the per-shard
// event counters survive the run.
struct FullstackRow {
  int threads_used = 1;
  double wall = 0;
  sim::Time completion = 0;
  std::uint64_t events = 0;
  std::uint64_t rounds = 0;
  std::uint64_t windows = 0;
  std::uint64_t cross_events = 0;
  std::vector<std::uint64_t> shard_events;
  double shard0_share = 0;
  // Per-LP delivery split from the bus (rank LPs 0..n-1, then the root
  // service LP): the decomposition metric. service_shard0_share is the
  // root LP's fraction of all bus deliveries — what remains of the old
  // monolithic service LP after coordinators and storage servers moved out.
  std::vector<std::uint64_t> lp_delivered;
  double service_shard0_share = 0;
  std::uint64_t hash = 0;
};

FullstackRow run_fullstack(int nranks, int shards, int threads,
                           std::uint64_t iterations) {
  harness::ClusterPreset p = harness::icpp07_cluster();
  p.nranks = nranks;
  p.shards = shards;
  p.threads = threads;

  ckpt::CkptConfig cc;
  cc.group_size = std::max(1, nranks / 4);

  workloads::CommGroupBenchConfig wcfg;
  wcfg.comm_group_size = std::max(2, nranks / 4);
  wcfg.compute_per_iter = 50 * sim::kMillisecond;
  wcfg.iterations = iterations;
  wcfg.footprint_mib = 64.0;

  const auto start = std::chrono::steady_clock::now();
  harness::SimCluster cluster(p, cc);
  auto wl = std::make_unique<workloads::CommGroupBench>(nranks, wcfg);
  wl->setup(cluster.mpi());
  wl->attach(cluster.checkpoints());
  // Two checkpoint cycles landing mid-run, whatever the iteration count, so
  // the service LP carries realistic coordination + storage traffic.
  const sim::Time span =
      static_cast<sim::Time>(iterations) * wcfg.compute_per_iter;
  cluster.checkpoints().request_at(span / 3, ckpt::Protocol::kGroupBased);
  cluster.checkpoints().request_at(2 * span / 3, ckpt::Protocol::kGroupBased);

  std::vector<sim::Time> done(nranks, 0);
  cluster.spawn_ranks([&](mpi::RankCtx& rank) {
    return [](workloads::Workload* w, mpi::RankCtx* rk,
              sim::Time* slot) -> sim::Task<void> {
      co_await w->run_rank(*rk, {});
      *slot = rk->engine().now();
    }(wl.get(), &rank, &done[rank.world_rank()]);
  });
  cluster.run();

  FullstackRow row;
  row.wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
  row.threads_used = cluster.sharded().threads();
  row.completion = *std::max_element(done.begin(), done.end());
  row.events = cluster.sharded().total_events();
  row.rounds = cluster.sharded().rounds();
  row.windows = cluster.sharded().windows();
  row.cross_events = cluster.sharded().cross_events();
  for (int s = 0; s < shards; ++s) {
    row.shard_events.push_back(cluster.sharded().stats(s).events);
  }
  row.shard0_share =
      row.events > 0
          ? static_cast<double>(row.shard_events[0]) / row.events
          : 0.0;
  const sim::LpBus& bus = cluster.bus();
  std::uint64_t delivered_total = 0;
  for (int lp = 0; lp <= nranks; ++lp) {
    row.lp_delivered.push_back(bus.delivered(lp));
    delivered_total += bus.delivered(lp);
  }
  row.service_shard0_share =
      delivered_total > 0
          ? static_cast<double>(row.lp_delivered.back()) / delivered_total
          : 0.0;
  // Fold completion + per-rank state into one comparable digest.
  std::uint64_t h = static_cast<std::uint64_t>(row.completion);
  for (int r = 0; r < nranks; ++r) {
    h = h * 1000003 + wl->state(r).hash;
  }
  row.hash = h;
  return row;
}

void append_fullstack_record(int ranks, int shards, const FullstackRow& r) {
  const char* json = std::getenv("GBC_BENCH_JSON");
  if (!json || !*json) return;
  std::FILE* f = std::fopen(json, "a");
  if (!f) return;
  const char* sha = std::getenv("GBC_GIT_SHA");
  const double ev = static_cast<double>(r.events);
  std::fprintf(f,
               "{\"sweep\":\"shard_scaling_fullstack/%d\",\"git_sha\":\"%s\","
               "\"mode\":\"fullstack\",\"ranks\":%d,\"shards\":%d,"
               "\"threads\":%d,\"points\":1,\"wall_seconds\":%.6f,"
               "\"events\":%llu,\"events_per_second\":%.0f,"
               "\"rounds\":%llu,\"windows\":%llu,\"cross_events\":%llu,"
               "\"shard0_events\":%llu,\"shard0_share\":%.4f,"
               "\"service_shard0_share\":%.4f,"
               "\"shard_events\":[",
               shards, sha && *sha ? sha : "unknown", ranks, shards,
               r.threads_used, r.wall, static_cast<unsigned long long>(r.events),
               r.wall > 0 ? ev / r.wall : 0.0,
               static_cast<unsigned long long>(r.rounds),
               static_cast<unsigned long long>(r.windows),
               static_cast<unsigned long long>(r.cross_events),
               static_cast<unsigned long long>(r.shard_events[0]),
               r.shard0_share, r.service_shard0_share);
  for (std::size_t s = 0; s < r.shard_events.size(); ++s) {
    std::fprintf(f, "%s%llu", s ? "," : "",
                 static_cast<unsigned long long>(r.shard_events[s]));
  }
  // The full per-LP delivery split (rank LPs 0..n-1, then the service LP):
  // which *logical process* the traffic lands on, independent of how LPs are
  // packed onto shards.
  std::fprintf(f, "],\"lp_delivered\":[");
  for (std::size_t lp = 0; lp < r.lp_delivered.size(); ++lp) {
    std::fprintf(f, "%s%llu", lp ? "," : "",
                 static_cast<unsigned long long>(r.lp_delivered[lp]));
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

int run_fullstack_sweep(int ranks, std::uint64_t iterations) {
  bench::banner("shard scaling, full protocol stack (events/s vs DES shards)",
                "per-rank LP sharding, DESIGN.md 13");
  harness::Table t({"shards", "threads", "wall_s", "completion_s", "events",
                    "kev_per_s", "rounds", "windows", "cross_events",
                    "shard0_share", "svc_share", "hash"});
  std::FILE* csv =
      std::fopen(bench::csv_path("shard_scaling_fullstack").c_str(), "w");
  if (csv) {
    std::fprintf(csv,
                 "shards,threads,wall_seconds,completion_seconds,events,"
                 "events_per_second,rounds,windows,cross_events,"
                 "shard0_events,shard0_share,service_shard0_share,hash\n");
  }
  std::uint64_t first_hash = 0;
  bool hashes_agree = true;
  for (int shards : {1, 2, 4}) {
    if (shards > ranks) continue;
    // Workers leased from the shared budget, as `gbcsim run --threads 0`
    // does: up to one per shard, fewer when the host is busy.
    const int threads = harness::ThreadBudget::shared().acquire(shards);
    const FullstackRow r = run_fullstack(ranks, shards, threads, iterations);
    harness::ThreadBudget::shared().release(threads);
    if (shards == 1) first_hash = r.hash;
    hashes_agree = hashes_agree && r.hash == first_hash;
    char hash[32];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(r.hash));
    t.add_row({std::to_string(shards), std::to_string(r.threads_used),
               harness::Table::num(r.wall),
               harness::Table::num(sim::to_seconds(r.completion)),
               std::to_string(r.events),
               harness::Table::num(static_cast<double>(r.events) / r.wall /
                                   1e3),
               std::to_string(r.rounds), std::to_string(r.windows),
               std::to_string(r.cross_events),
               harness::Table::num(r.shard0_share),
               harness::Table::num(r.service_shard0_share), hash});
    if (csv) {
      std::fprintf(csv,
                   "%d,%d,%.6f,%.6f,%llu,%.0f,%llu,%llu,%llu,%llu,%.4f,%.4f,"
                   "%016llx\n",
                   shards, r.threads_used, r.wall,
                   sim::to_seconds(r.completion),
                   static_cast<unsigned long long>(r.events),
                   r.wall > 0 ? static_cast<double>(r.events) / r.wall : 0.0,
                   static_cast<unsigned long long>(r.rounds),
                   static_cast<unsigned long long>(r.windows),
                   static_cast<unsigned long long>(r.cross_events),
                   static_cast<unsigned long long>(r.shard_events[0]),
                   r.shard0_share, r.service_shard0_share,
                   static_cast<unsigned long long>(r.hash));
    }
    append_fullstack_record(ranks, shards, r);
  }
  if (csv) std::fclose(csv);
  t.print();
  std::printf("\nstate hashes %s across shard counts\n",
              hashes_agree ? "IDENTICAL" : "DIVERGED");
  return hashes_agree ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  harness::FlagSet flags("shard_scaling");
  flags.add_int("ranks", 32, "simulated MPI processes");
  flags.add_int("iterations", 240, "compute iterations per rank");
  if (!flags.parse(argc - 1, argv + 1)) {
    if (flags.help_requested()) {
      std::fputs(flags.usage().c_str(), stdout);
      return 0;
    }
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(),
                 flags.usage().c_str());
    return 2;
  }
  if (flags.get_int("ranks") < 1 || flags.get_int("iterations") < 1) {
    std::fprintf(stderr, "--ranks and --iterations must be >= 1\n");
    return 2;
  }
  return run_fullstack_sweep(
      flags.get_int("ranks"),
      static_cast<std::uint64_t>(flags.get_int("iterations")));
}
