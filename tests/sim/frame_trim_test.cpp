// FramePool keeps freed coroutine frames on per-thread free lists. A
// ShardedEngine with worker threads hands the destroying thread's cached
// frames back to the allocator (frames its workers allocated pile up there
// otherwise); a single-threaded one keeps them warm. This binary replaces
// the global operator new/delete so it can see one cached block leave.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "sim/pool.hpp"
#include "sim/shard_engine.hpp"

namespace {

std::atomic<void*> g_watched{nullptr};
std::atomic<bool> g_watched_freed{false};

void release(void* p) noexcept {
  if (p != nullptr && p == g_watched.load()) g_watched_freed = true;
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }

namespace gbc::sim {
namespace {

constexpr std::size_t kFrameBytes = 256;

/// Frees one frame-sized block into this thread's FramePool cache and
/// starts watching it.
void cache_watched_block() {
  void* block = FramePool::allocate(kFrameBytes);
  g_watched = block;
  g_watched_freed = false;
  FramePool::deallocate(block, kFrameBytes);
}

ShardedEngine::Options two_shards(int threads) {
  ShardedEngine::Options opts;
  opts.shards = 2;
  opts.lookahead = 1;
  opts.threads = threads;
  return opts;
}

TEST(FramePoolTrim, ThreadedShardedEngineFreesCallersCache) {
#if GBC_POOLS_PASSTHROUGH
  GTEST_SKIP() << "FramePool is plain new/delete in this build";
#endif
  cache_watched_block();
  { ShardedEngine se(two_shards(2)); }
  EXPECT_TRUE(g_watched_freed);
}

TEST(FramePoolTrim, SingleThreadedShardedEngineKeepsCache) {
#if GBC_POOLS_PASSTHROUGH
  GTEST_SKIP() << "FramePool is plain new/delete in this build";
#endif
  cache_watched_block();
  { ShardedEngine se(two_shards(1)); }
  EXPECT_FALSE(g_watched_freed);
  // Still cached: the next frame of that size class reuses it.
  void* again = FramePool::allocate(kFrameBytes);
  EXPECT_EQ(again, g_watched.load());
  FramePool::deallocate(again, kFrameBytes);
}

}  // namespace
}  // namespace gbc::sim
