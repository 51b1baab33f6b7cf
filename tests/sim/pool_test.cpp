#include "sim/pool.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace gbc::sim {
namespace {

struct Tracked {
  explicit Tracked(int* counter, int value = 0)
      : counter(counter), value(value) {
    ++*counter;
  }
  ~Tracked() { --*counter; }
  int* counter;
  int value;
};

#if !GBC_POOLS_PASSTHROUGH
TEST(Pool, RecyclesFreedStorage) {
  Pool<Tracked> pool;
  int live = 0;
  Tracked* a = pool.acquire(&live, 1);
  void* addr = a;
  EXPECT_EQ(live, 1);
  EXPECT_EQ(pool.outstanding(), 1u);
  pool.release(a);
  EXPECT_EQ(live, 0);
  EXPECT_EQ(pool.outstanding(), 0u);
  // The very next acquire must come off the free list, reusing the node.
  Tracked* b = pool.acquire(&live, 2);
  EXPECT_EQ(static_cast<void*>(b), addr);
  EXPECT_EQ(pool.reused(), 1u);
  EXPECT_EQ(b->value, 2);
  pool.release(b);
}
#endif

TEST(Pool, GrowsAcrossSlabs) {
  Pool<Tracked> pool(8);  // small slabs so growth happens quickly
  int live = 0;
  std::vector<Tracked*> objs;
  std::set<void*> addrs;
  for (int i = 0; i < 100; ++i) {
    objs.push_back(pool.acquire(&live, i));
    addrs.insert(objs.back());
  }
  EXPECT_EQ(live, 100);
  EXPECT_EQ(addrs.size(), 100u);  // all distinct while live
  EXPECT_EQ(pool.outstanding(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(objs[i]->value, i);
  for (Tracked* p : objs) pool.release(p);
  EXPECT_EQ(live, 0);
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(Arena, SharedPtrKeepsCoreAliveAfterOwnerDrops) {
  auto core = std::make_shared<ArenaCore>();
  std::weak_ptr<ArenaCore> watch = core;
  auto obj =
      std::allocate_shared<std::string>(ArenaAlloc<std::string>(core), "hi");
  // The control block copied the allocator, so dropping our handle must not
  // destroy the arena while the object (and its storage) are alive.
  core.reset();
  EXPECT_FALSE(watch.expired());
  EXPECT_EQ(*obj, "hi");
  {
    std::weak_ptr<std::string> weak_obj = obj;
    obj.reset();
    EXPECT_TRUE(weak_obj.expired());
    // weak_obj still pins the control block, and with it the arena.
    EXPECT_FALSE(watch.expired());
  }
  // Last weak reference gone -> control block freed -> arena torn down.
  EXPECT_TRUE(watch.expired());
}

#if !GBC_POOLS_PASSTHROUGH
TEST(Arena, RecyclesSameSizeClass) {
  auto core = std::make_shared<ArenaCore>();
  auto a = std::allocate_shared<std::uint64_t>(
      ArenaAlloc<std::uint64_t>(core), 7);
  a.reset();
  auto b = std::allocate_shared<std::uint64_t>(
      ArenaAlloc<std::uint64_t>(core), 9);
  EXPECT_EQ(core->reused(), 1u);
  EXPECT_EQ(*b, 9u);
}
#endif

#if !GBC_POOLS_PASSTHROUGH
TEST(FramePoolTest, RecyclesSameSizeClass) {
  void* a = FramePool::allocate(200);
  FramePool::deallocate(a, 200);
  // Same size class (200 and 250 both round up to 256 bytes): the freed
  // block must come straight back off this thread's free list.
  void* b = FramePool::allocate(250);
  EXPECT_EQ(b, a);
  FramePool::deallocate(b, 250);
}
#endif

}  // namespace
}  // namespace gbc::sim
