// The MPI message path allocates nothing once warm: a request comes from
// its rank's free list, and every wait parks a suspension record held in
// the waiting frame. This binary replaces the global operator new to count
// allocations while 8 ranks on 2 shards (so flights and bus messages cross
// shards) run a ring of irecv + 64 KiB rendezvous send + wait + compute,
// driven through RankCtx with no workload or hash history attached.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "harness/preset.hpp"
#include "harness/sim_cluster.hpp"
#include "mpi/minimpi.hpp"
#include "sim/pool.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

// Out of line: inlined into a new-expression's cleanup path, the free()
// below trips GCC's -Wmismatched-new-delete, which cannot see that the
// replacement operator new allocates with malloc.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }

namespace gbc::mpi {
namespace {

constexpr int kRanks = 8;
constexpr int kWarmup = 16;    // connections up, free lists and caches grown
constexpr int kMeasured = 32;  // iterations whose allocations are counted
constexpr int kTail = 4;       // keeps every rank busy past the window
constexpr storage::Bytes kMsg = 64 * storage::kKiB;  // > eager threshold

struct Window {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  int finished = 0;
};

sim::Task<void> ring(RankCtx& r, Window* w) {
  const Comm& wc = r.mpi().world();
  const int me = r.world_rank();
  const int left = (me + kRanks - 1) % kRanks;
  const int right = (me + 1) % kRanks;
  for (int it = 0; it < kWarmup + kMeasured + kTail; ++it) {
    // Rank 0 takes the readings; the ring keeps every other rank within an
    // iteration or two of it.
    if (me == 0 && it == kWarmup) w->start = g_allocs.load();
    if (me == 0 && it == kWarmup + kMeasured) w->end = g_allocs.load();
    Request rq = r.irecv(wc, left, it);
    co_await r.send(wc, right, it, kMsg);
    co_await r.wait(rq);
    co_await r.compute(sim::kMillisecond);
  }
  ++w->finished;
}

TEST(WaitPathAlloc, WarmRendezvousRingAllocatesNothing) {
  harness::ClusterPreset p = harness::icpp07_cluster();
  p.nranks = kRanks;
  p.shards = 2;
  p.threads = 1;
  harness::SimCluster cluster(p);
  Window w;
  cluster.spawn_ranks([&w](RankCtx& r) { return ring(r, &w); });
  cluster.run();

  EXPECT_EQ(w.finished, kRanks);
  EXPECT_GT(cluster.sharded().cross_events(), 0u);
#if GBC_POOLS_PASSTHROUGH
  // The ring above still ran for the sanitizers; the count cannot hold.
  GTEST_SKIP() << "frames and request records are plain new/delete here";
#endif
  // kMeasured iterations move kRanks rendezvous messages each.
  EXPECT_EQ(w.end - w.start, 0u)
      << (w.end - w.start) / double(kMeasured * kRanks) << " per message";
}

}  // namespace
}  // namespace gbc::mpi
