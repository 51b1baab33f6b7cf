// A cross-shard LpBus send waits in its source shard's outbox and moves
// into the destination's settle bucket at the round barrier, with no wrapper
// event or wrapper allocation in between. This binary replaces the global
// operator new to count allocations: once the outbox, bucket and engine
// vectors have grown, a wave of cross-shard messages allocates nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/lp_bus.hpp"
#include "sim/shard_engine.hpp"
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

namespace gbc::sim {
namespace {

constexpr int kMessages = 1000;

TEST(LpBusAlloc, WarmCrossShardWaveAllocatesNothing) {
  ShardedEngine::Options opts;
  opts.shards = 2;
  opts.lookahead = 5;
  opts.threads = 1;
  ShardedEngine se(opts);
  LpBus bus(se, 2, 5);  // LP 0 lives on shard 0, LP 1 on shard 1
  int delivered = 0;
  // One event on LP 0 sends kMessages one-pointer messages to LP 1, then
  // the engine runs to completion.
  auto wave = [&](Time at) {
    se.shard(0).schedule_at(at, [&bus, &delivered] {
      for (int i = 0; i < kMessages; ++i) {
        bus.send(0, 1, [&delivered] { ++delivered; });
      }
    });
    se.run();
  };

  wave(0);
  const std::uint64_t before = g_allocs.load();
  wave(100);
  const std::uint64_t second_wave = g_allocs.load() - before;

  EXPECT_EQ(delivered, 2 * kMessages);
  EXPECT_EQ(second_wave, 0u);
  EXPECT_EQ(se.cross_events(), 2u * kMessages);
}

}  // namespace
}  // namespace gbc::sim
