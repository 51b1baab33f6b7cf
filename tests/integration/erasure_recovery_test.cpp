// Diskless erasure tier end-to-end: the drain is off, so after a node loss
// the *only* way back to the newest checkpoint is decoding the parity
// stripe. A correlated failure of exactly m parity-group members must
// recover with zero PFS reads and the same final state as a fault-free
// run; one more loss pushes the stripe below k survivors and the job
// restarts cold.
#include <gtest/gtest.h>

#include <vector>

#include "harness/experiment.hpp"
#include "harness/recovery.hpp"
#include "sim/engine.hpp"
#include "storage/erasure.hpp"
#include "workloads/microbench.hpp"

namespace gbc::harness {
namespace {

constexpr int kVictim = 1;

ClusterPreset erasure_cluster(int k, int m) {
  ClusterPreset p = icpp07_cluster();
  p.nranks = 16;
  p.tier.enabled = true;
  p.tier.local_write_mbps = 400.0;
  p.tier.drain_mbps = 0;  // diskless: the PFS never sees an image
  p.tier.erasure.enabled = true;
  p.tier.erasure.k = k;
  p.tier.erasure.m = m;
  return p;
}

WorkloadFactory microbench_factory(std::uint64_t iters) {
  workloads::CommGroupBenchConfig cfg;
  cfg.comm_group_size = 4;
  cfg.compute_per_iter = 100 * sim::kMillisecond;
  cfg.iterations = iters;
  cfg.footprint_mib = 64.0;
  return [cfg](int n) {
    return std::make_unique<workloads::CommGroupBench>(n, cfg);
  };
}

/// The victim's chunk holders, recomputed with the real placement policy so
/// the fault plan provably hits nodes that hold stripe chunks.
std::vector<int> victim_group(const ClusterPreset& p) {
  storage::ErasureTier tier(p.tier.erasure, p.nranks, p.tier.replica_offset);
  return tier.parity_group(kVictim);
}

/// Kills the victim plus its first `nholders` parity-group members in one
/// correlated event.
FaultPlan group_fault(const ClusterPreset& p, int nholders, sim::Time at) {
  const auto group = victim_group(p);
  FaultPlan plan;
  plan.faults.push_back(FaultEvent{
      at, kVictim, std::vector<int>(group.begin(), group.begin() + nholders)});
  return plan;
}

TEST(ErasureRecovery, DecodesNewestCheckpointAfterMInGroupLosses) {
  const auto preset = erasure_cluster(4, 2);
  const auto factory = microbench_factory(150);
  ckpt::CkptConfig cc;
  cc.group_size = 8;
  RunResult clean = run_experiment(preset, factory, cc);
  std::vector<CkptRequest> reqs;
  reqs.push_back(
      CkptRequest{sim::from_seconds(5), ckpt::Protocol::kGroupBased});
  auto rec = run_with_faults(preset, factory, cc, reqs,
                             group_fault(preset, /*nholders=*/2,
                                         sim::from_seconds(12)));
  EXPECT_TRUE(rec.used_checkpoint);
  EXPECT_EQ(rec.checkpoints_skipped, 0);  // the newest checkpoint survived
  EXPECT_EQ(rec.ranks_restored_pfs, 0);   // no PFS read anywhere
  // The three dead nodes (victim + 2 holders) decode their images from the
  // surviving stripe chunks; everyone else restores in place.
  EXPECT_EQ(rec.ranks_restored_erasure, 3);
  EXPECT_EQ(rec.ranks_restored_local, 13);
  EXPECT_EQ(rec.ranks_restored_replica, 0);
  EXPECT_GT(rec.rollback_iteration, 0u);
  EXPECT_EQ(rec.final_hashes, clean.final_hashes);
  EXPECT_EQ(rec.final_iterations, clean.final_iterations);
}

TEST(ErasureRecovery, SingleLossIsAPassThroughSystematicRead) {
  // Only the victim dies: its data chunks are all alive, so the decode is
  // a systematic pass-through read — still an erasure restore, still no
  // PFS, and healthy ranks never leave their local tier.
  const auto preset = erasure_cluster(4, 2);
  const auto factory = microbench_factory(150);
  ckpt::CkptConfig cc;
  cc.group_size = 8;
  RunResult clean = run_experiment(preset, factory, cc);
  std::vector<CkptRequest> reqs;
  reqs.push_back(
      CkptRequest{sim::from_seconds(5), ckpt::Protocol::kGroupBased});
  auto rec = run_with_faults(preset, factory, cc, reqs,
                             group_fault(preset, /*nholders=*/0,
                                         sim::from_seconds(12)));
  EXPECT_TRUE(rec.used_checkpoint);
  EXPECT_EQ(rec.checkpoints_skipped, 0);
  EXPECT_EQ(rec.ranks_restored_erasure, 1);
  EXPECT_EQ(rec.ranks_restored_local, 15);
  EXPECT_EQ(rec.ranks_restored_pfs, 0);
  EXPECT_EQ(rec.final_hashes, clean.final_hashes);
}

TEST(ErasureRecovery, OverBudgetLossesForceAColdRestart) {
  // m + 1 chunk holders die with the victim: fewer than k chunks survive,
  // nothing is on the PFS (drain off), so there is no checkpoint to
  // restore — the job restarts from iteration 0 and still finishes with
  // the fault-free final state.
  const auto preset = erasure_cluster(4, 2);
  const auto factory = microbench_factory(150);
  ckpt::CkptConfig cc;
  cc.group_size = 8;
  RunResult clean = run_experiment(preset, factory, cc);
  std::vector<CkptRequest> reqs;
  reqs.push_back(
      CkptRequest{sim::from_seconds(5), ckpt::Protocol::kGroupBased});
  auto rec = run_with_faults(preset, factory, cc, reqs,
                             group_fault(preset, /*nholders=*/3,
                                         sim::from_seconds(12)));
  EXPECT_FALSE(rec.used_checkpoint);
  EXPECT_EQ(rec.ranks_restored_erasure, 0);
  EXPECT_EQ(rec.ranks_restored_pfs, 0);
  EXPECT_EQ(rec.final_hashes, clean.final_hashes);
  EXPECT_EQ(rec.final_iterations, clean.final_iterations);
}

TEST(ErasureRecovery, ReplicaAndErasureCompose) {
  // Both protections on: recovery prefers the cheaper partner replica and
  // only falls back to decoding when the partner died too.
  auto preset = erasure_cluster(4, 2);
  preset.tier.replicate = true;
  const auto factory = microbench_factory(150);
  ckpt::CkptConfig cc;
  cc.group_size = 8;
  RunResult clean = run_experiment(preset, factory, cc);
  std::vector<CkptRequest> reqs;
  reqs.push_back(
      CkptRequest{sim::from_seconds(5), ckpt::Protocol::kGroupBased});
  // Victim alone: partner replica wins.
  auto rep = run_with_faults(
      preset, factory, cc, reqs,
      group_fault(preset, /*nholders=*/0, sim::from_seconds(12)));
  EXPECT_EQ(rep.ranks_restored_replica, 1);
  EXPECT_EQ(rep.ranks_restored_erasure, 0);
  EXPECT_EQ(rep.final_hashes, clean.final_hashes);
  // Victim + its partner (the parity group avoids the partner, so the
  // stripe is intact): the replica is gone, the stripe decodes.
  FaultPlan pair;
  const int partner = (kVictim + preset.tier.replica_offset) % preset.nranks;
  pair.faults.push_back(
      FaultEvent{sim::from_seconds(12), kVictim, {partner}});
  auto ec = run_with_faults(preset, factory, cc, reqs, pair);
  EXPECT_TRUE(ec.used_checkpoint);
  EXPECT_EQ(ec.checkpoints_skipped, 0);
  EXPECT_GE(ec.ranks_restored_erasure, 1);
  EXPECT_EQ(ec.ranks_restored_pfs, 0);
  EXPECT_EQ(ec.final_hashes, clean.final_hashes);
}

}  // namespace
}  // namespace gbc::harness
