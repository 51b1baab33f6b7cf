// Figure-3-shaped experiment pushed past the paper's 32 ranks: effective
// checkpoint delay vs checkpoint-group size at 1k/4k/16k ranks, run on the
// full protocol stack (harness::SimCluster) sharded across DES shards. Each
// rank-count point does one base (checkpoint-free) run plus one run per
// group size {All, n/4, n/16, n/64}; points run sequentially so the sharded
// engine gets the whole thread budget. The PFS grows with the job — the
// paper's 35 MB/s PVFS2 servers, max(4, n/64) of them — and the per-rank
// footprint is scaled down from the paper's 180 MiB so a 16k-rank point
// stays a CI-sized job: the group-size *curve*, not the absolute seconds, is
// the object of study.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "harness/cli.hpp"
#include "harness/thread_budget.hpp"
#include "net/topology.hpp"

namespace {

using namespace gbc;

harness::ClusterPreset scaled_cluster(int nranks, const net::TopologySpec& topo,
                                      int shards, int threads) {
  harness::ClusterPreset p = harness::icpp07_cluster();
  p.nranks = nranks;
  p.shards = shards;
  p.threads = threads;
  p.net.topology = topo;
  p.storage.num_servers = std::max(4, nranks / 64);
  p.storage.aggregate_cap_mbps = 35.0 * p.storage.num_servers;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  harness::FlagSet flags("scale_groupsize");
  flags.add_int("ranks", 0, "rank count; 0 sweeps 1024, 4096, 16384");
  flags.add_int("shards", 4, "DES shards");
  flags.add_string("topology", "fat-tree:32", "flat | fat-tree:<radix>");
  flags.add_int("iterations", 12, "compute iterations per rank");
  flags.add_double("footprint-mib", 16.0, "checkpoint image per rank (MiB)");
  flags.add_double("issuance", 0.4, "checkpoint issuance time (s)");
  if (!flags.parse(argc - 1, argv + 1)) {
    if (flags.help_requested()) {
      std::fputs(flags.usage().c_str(), stdout);
      return 0;
    }
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(),
                 flags.usage().c_str());
    return 2;
  }
  const auto topo = net::parse_topology(flags.get_string("topology"));
  if (!topo) {
    std::fprintf(stderr, "invalid --topology '%s'\n",
                 flags.get_string("topology").c_str());
    return 2;
  }

  std::vector<int> rank_points;
  if (flags.get_int("ranks") > 0) {
    rank_points.push_back(flags.get_int("ranks"));
  } else {
    rank_points = {1024, 4096, 16384};
  }
  const int shards = flags.get_int("shards");
  if (shards < 1 || shards > rank_points.front()) {
    std::fprintf(stderr, "--shards must be in [1, --ranks]\n");
    return 2;
  }

  bench::banner("group size at scale (1k-16k ranks, sharded full stack)",
                "the group-size study of Fig. 3 beyond paper scale");

  harness::Table t({"ranks", "group", "base_s", "eff_delay_s", "indiv_s",
                    "total_s", "events"});
  std::FILE* csv = std::fopen(bench::csv_path("scale_groupsize").c_str(), "w");
  // The CSV carries only simulation-derived values (no event counts, which
  // include the shard layout's cross-shard wrappers, and no host-side
  // stats), so the shards-mode determinism check can require it
  // byte-identical at any --shards and any leased worker count.
  if (csv) {
    std::fprintf(csv,
                 "ranks,ckpt_group,base_seconds,effective_delay_seconds,"
                 "individual_seconds,total_seconds,state_digest\n");
  }

  const int threads = harness::ThreadBudget::shared().acquire(shards);

  workloads::CommGroupBenchConfig wcfg;
  wcfg.comm_group_size = 16;
  wcfg.iterations = static_cast<std::uint64_t>(flags.get_int("iterations"));
  wcfg.footprint_mib = flags.get_double("footprint-mib");
  const harness::WorkloadFactory factory = [wcfg](int n) {
    return std::make_unique<workloads::CommGroupBench>(n, wcfg);
  };
  const std::vector<harness::CkptRequest> request = {
      {sim::from_seconds(flags.get_double("issuance")),
       ckpt::Protocol::kGroupBased}};

  const auto wall_start = std::chrono::steady_clock::now();
  harness::SweepStats stats;
  stats.threads = threads;
  for (int nranks : rank_points) {
    const auto preset = scaled_cluster(nranks, *topo, shards, threads);
    ckpt::CkptConfig cc;
    const auto base = harness::run_experiment(preset, factory, cc);
    stats.points.push_back({.events_processed = base.events_processed});
    for (int group : {0, nranks / 4, nranks / 16, nranks / 64}) {
      cc.group_size = group;
      const auto r = harness::run_experiment(preset, factory, cc, request);
      stats.points.push_back({.events_processed = r.events_processed});
      const auto m =
          harness::to_delay_measurement(r, base.completion_seconds());
      t.add_row({std::to_string(nranks), bench::group_label(nranks, group),
                 harness::Table::num(m.base_seconds),
                 harness::Table::num(m.effective_delay_seconds()),
                 harness::Table::num(m.individual_seconds()),
                 harness::Table::num(m.total_seconds()),
                 std::to_string(r.events_processed)});
      if (csv) {
        std::fprintf(csv, "%d,%d,%.6f,%.6f,%.6f,%.6f,%016llx\n", nranks, group,
                     m.base_seconds, m.effective_delay_seconds(),
                     m.individual_seconds(), m.total_seconds(),
                     static_cast<unsigned long long>(r.state_digest()));
      }
    }
  }
  harness::ThreadBudget::shared().release(threads);
  if (csv) std::fclose(csv);
  t.print();

  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  const std::string sweep_name =
      "scale_groupsize_fullstack/" +
      (flags.get_int("ranks") > 0 ? std::to_string(flags.get_int("ranks"))
                                  : std::string("sweep"));
  bench::report_sweep(sweep_name, stats);
  return 0;
}
