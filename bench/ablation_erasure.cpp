// Ablation: durability vs memory overhead across erasure-code geometries.
// Each (k,m) row pays (k+m)/k memory for its stripe and survives exactly m
// concurrent chunk losses. The within-budget column kills rank 1 together
// with m holders of its parity group — its newest image must come back as
// a genuinely degraded read (m erased data chunks, matrix-inversion decode
// cost, zero PFS reads, nothing skipped). The over-budget column kills one
// more holder: the stripe drops below k survivors, and with the drain
// disabled nothing is PFS-durable, so the job restarts cold. Partner
// replication is the m=1-shaped baseline at 2x memory (its over-budget
// kill is the victim+partner pair); PFS-only is the paper's model. Exits
// non-zero if the RS(4,2) acceptance row breaks (a PFS read, a skipped
// checkpoint, or a time-to-solution not strictly better than PFS-only
// under the same dead-node set).
#include "bench_util.hpp"
#include "harness/recovery.hpp"
#include "storage/erasure.hpp"

namespace {

using namespace gbc;

constexpr int kRanks = 16;
constexpr int kVictim = 1;  // rank whose parity group the faults target

struct Geometry {
  const char* name;
  bool tier;
  bool replicate;
  int k = 0;  // 0 = no erasure
  int m = 0;
};

harness::ClusterPreset geometry_preset(const Geometry& g) {
  harness::ClusterPreset p = harness::icpp07_cluster();
  p.nranks = kRanks;
  p.tier.enabled = g.tier;
  p.tier.local_write_mbps = 400.0;
  p.tier.drain_mbps = 0.0;  // diskless: nothing ever reaches the PFS
  p.tier.replicate = g.replicate;
  if (g.k > 0) {
    p.tier.erasure.enabled = true;
    p.tier.erasure.k = g.k;
    p.tier.erasure.m = g.m;
    p.tier.erasure.codec =
        g.m == 1 ? storage::ErasureCodec::kXor : storage::ErasureCodec::kRs;
  }
  return p;
}

/// The nodes an erasure geometry scatters rank kVictim's chunks to —
/// recomputed with the placement policy itself so the fault plan always
/// hits real chunk holders.
std::vector<int> victim_group(const harness::ClusterPreset& p) {
  storage::ErasureTier tier(p.tier.erasure, p.nranks, p.tier.replica_offset);
  return tier.parity_group(kVictim);
}

/// One correlated fault: the victim dies together with holders of its
/// redundancy. Within budget (over=false) the erasure rows lose m chunks
/// (the stripe still decodes, fully degraded); over budget they lose m+1
/// (stripe gone). The replica row's over-budget kill is the partner pair;
/// PFS-only just loses a second unrelated node.
harness::FaultPlan geometry_faults(const harness::ClusterPreset& p, bool over,
                                   sim::Time at) {
  std::vector<int> also;
  if (p.tier.erasure.enabled) {
    const auto group = victim_group(p);
    const int n = p.tier.erasure.m + (over ? 1 : 0);
    also.assign(group.begin(), group.begin() + n);
  } else if (p.tier.replicate) {
    const int partner = (kVictim + p.tier.replica_offset) % p.nranks;
    also.push_back(over ? partner : (partner + 1) % p.nranks);
  } else {
    also.push_back(kVictim + 2);
  }
  harness::FaultPlan plan;
  plan.faults.push_back(harness::FaultEvent{at, kVictim, std::move(also)});
  return plan;
}

}  // namespace

int main() {
  bench::banner("erasure geometry: durability vs memory overhead",
                "extension Figure 9 ablation (erasure-coded tier)");

  workloads::CommGroupBenchConfig wcfg;
  wcfg.comm_group_size = 4;
  wcfg.compute_per_iter = 100 * sim::kMillisecond;
  wcfg.iterations = 600;
  wcfg.footprint_mib = 64.0;
  const harness::WorkloadFactory factory = [wcfg](int n) {
    return std::make_unique<workloads::CommGroupBench>(n, wcfg);
  };

  const std::vector<Geometry> geoms{
      {"pfs-only", false, false},
      {"replica", true, true},
      {"xor(2,1)", true, false, 2, 1},
      {"xor(4,1)", true, false, 4, 1},
      {"rs(4,2)", true, false, 4, 2},
      {"rs(8,2)", true, false, 8, 2},
      {"rs(4,3)", true, false, 4, 3},
  };
  std::vector<harness::CkptRequest> reqs;
  for (double at : {10.0, 22.0, 34.0}) {
    reqs.push_back(harness::CkptRequest{sim::from_seconds(at),
                                        ckpt::Protocol::kGroupBased});
  }
  ckpt::CkptConfig cc;
  cc.group_size = 8;
  const sim::Time failure_at = sim::from_seconds(44);

  // Phase 1 (sweep pool): no-fault checkpointed runs — the events/s record
  // the BENCH snapshot gates, plus each geometry's checkpoint overhead.
  std::vector<harness::ExperimentPoint> pts;
  for (const Geometry& g : geoms) {
    harness::ExperimentPoint p;
    p.preset = geometry_preset(g);
    p.factory = factory;
    p.ckpt_cfg = cc;
    p.requests = reqs;
    pts.push_back(std::move(p));
  }
  harness::SweepStats clean_stats;
  auto cleans = harness::run_experiments(pts, &clean_stats);

  // Phase 2 (sweep pool): per geometry, kill m nodes of the victim's
  // parity group (within the budget), then m+1 (past it). The baselines
  // use m=1-shaped budgets: replica survives one loss iff it misses the
  // partner, PFS-only survives anything.
  harness::SweepStats rec_stats;
  auto recs = harness::SweepRunner::shared().map<harness::RecoveryResult>(
      geoms.size() * 2,
      [&](std::size_t i) {
        const Geometry& g = geoms[i / 2];
        const auto preset = geometry_preset(g);
        return harness::run_with_faults(
            preset, factory, cc, reqs,
            geometry_faults(preset, /*over=*/i % 2 != 0, failure_at));
      },
      &rec_stats);

  harness::Table t({"geometry", "overhead_x", "dead", "tts_s",
                    "ckpts_skipped", "erasure", "pfs", "cold_restart"});
  bool rs42_ok = true;
  double pfs_only_tts_m2 = 0;
  double rs42_tts = 0;
  for (std::size_t gi = 0; gi < geoms.size(); ++gi) {
    const Geometry& g = geoms[gi];
    const double overhead =
        g.k > 0 ? geometry_preset(g).tier.erasure.overhead()
                : (g.replicate ? 2.0 : 1.0);
    for (int over = 0; over < 2; ++over) {
      const auto& rec = recs[gi * 2 + over];
      const int dead =
          1 + (g.k > 0 ? g.m + over : 1);  // victim + redundancy holders
      t.add_row({g.name, harness::Table::num(overhead),
                 std::to_string(dead),
                 harness::Table::num(rec.total_seconds),
                 std::to_string(rec.checkpoints_skipped),
                 std::to_string(rec.ranks_restored_erasure),
                 std::to_string(rec.ranks_restored_pfs),
                 rec.used_checkpoint ? "no" : "yes"});
    }
  }
  t.print();
  t.write_csv(bench::csv_path("ablation_erasure"));
  const auto rs_preset = geometry_preset(geoms[4]);
  bench::report_sweep("ablation_erasure", clean_stats, &rs_preset);
  bench::report_sweep("ablation_erasure_recovery", rec_stats, &rs_preset);

  // Acceptance gate: RS(4,2) with m=2 concurrent in-group node losses must
  // decode the newest checkpoint (nothing skipped, zero PFS reads) and
  // beat a PFS-only restart after the *same* two losses.
  {
    const auto pfs_preset = geometry_preset(geoms[0]);
    const auto rs = recs[4 * 2];  // rs(4,2), within budget
    // PFS-only under the exact same dead-node set (victim + 2 group nodes).
    const auto pfs2 = harness::run_with_faults(
        pfs_preset, factory, cc, reqs,
        geometry_faults(rs_preset, /*over=*/false, failure_at));
    pfs_only_tts_m2 = pfs2.total_seconds;
    rs42_tts = rs.total_seconds;
    rs42_ok = rs.used_checkpoint && rs.checkpoints_skipped == 0 &&
              rs.ranks_restored_pfs == 0 && rs.ranks_restored_erasure > 0 &&
              rs.total_seconds < pfs2.total_seconds;
    std::printf(
        "\nRS(4,2), 2 concurrent in-group losses: tts %.2fs vs %.2fs "
        "PFS-only, %d erasure decodes, %d PFS reads, %d skipped -> %s\n",
        rs42_tts, pfs_only_tts_m2, rs.ranks_restored_erasure,
        rs.ranks_restored_pfs, rs.checkpoints_skipped,
        rs42_ok ? "PASS" : "FAIL");
  }
  std::printf(
      "\nExpected shape: each geometry recovers the newest checkpoint while\n"
      "losses stay within its parity budget m (zero PFS traffic — the\n"
      "drain is disabled, the tier is diskless) and restarts cold one loss\n"
      "past it. Overhead (k+m)/k buys that budget: xor(4,1) protects at\n"
      "1.25x where replication pays 2x, rs(4,2) survives double faults at\n"
      "1.5x.\n");
  return rs42_ok ? 0 : 1;
}
