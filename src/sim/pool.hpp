#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

// The two recyclers on the simulation hot path. Each stays because switching
// it off made the failure-recovery benchmark slower (EXPERIMENTS.md, "Two
// recyclers"); suspension and request records, whose size-class arena did
// not pay, are plain make_shared allocations.
//
//  - Pool<T>: typed slab allocator, no locking. The fabric keeps one per
//    shard for its flight records and hands cross-shard releases home
//    through its own return stacks. With both recyclers off the benchmark's
//    wall time rose 17%, with FramePool alone off 10%.
//  - FramePool: thread-local free lists for coroutine frames. In a sharded
//    run with worker threads, frames allocated on a worker are often freed
//    on the coordinator thread, so blocks migrate between threads' caches;
//    a multi-threaded ShardedEngine trims its destroying thread's cache so
//    that migration cannot pile up.
//
// Defining GBC_POOLS_PASSTHROUGH=1 (automatic under AddressSanitizer) turns
// both into plain new/delete, so recycling cannot mask use-after-free bugs.
#if defined(__SANITIZE_ADDRESS__)
#define GBC_POOLS_PASSTHROUGH 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GBC_POOLS_PASSTHROUGH 1
#endif
#endif
#ifndef GBC_POOLS_PASSTHROUGH
#define GBC_POOLS_PASSTHROUGH 0
#endif

namespace gbc::sim {

/// Typed slab allocator. Objects are carved out of fixed-size slabs and
/// recycled through an intrusive free list (the link lives in the freed
/// node's own storage), so steady-state acquire/release touches no heap.
template <typename T>
class Pool {
 public:
  explicit Pool(std::size_t nodes_per_slab = 64)
      : per_slab_(nodes_per_slab ? nodes_per_slab : 1) {}
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;
  ~Pool() { assert(outstanding_ == 0 && "Pool destroyed with live objects"); }

  /// Constructs a T in recycled (or freshly-slabbed) storage.
  template <typename... Args>
  T* acquire(Args&&... args) {
#if GBC_POOLS_PASSTHROUGH
    ++outstanding_;
    return new T(std::forward<Args>(args)...);
#else
    Slot* s = free_;
    if (s != nullptr) {
      free_ = s->next;
      ++reused_;
    } else {
      s = grow();
    }
    ++outstanding_;
    return ::new (static_cast<void*>(s->raw)) T(std::forward<Args>(args)...);
#endif
  }

  /// Destroys *p and returns its storage to the free list.
  void release(T* p) noexcept {
    assert(outstanding_ > 0);
    --outstanding_;
#if GBC_POOLS_PASSTHROUGH
    delete p;
#else
    p->~T();
    Slot* s = reinterpret_cast<Slot*>(p);
    s->next = free_;
    free_ = s;
#endif
  }

  std::size_t outstanding() const noexcept { return outstanding_; }
  /// Acquisitions served from the free list (i.e. recycled storage).
  std::uint64_t reused() const noexcept { return reused_; }

 private:
  union Slot {
    Slot* next;
    alignas(alignof(T)) std::byte raw[sizeof(T)];
  };

  Slot* grow() {
    slabs_.push_back(std::make_unique<Slot[]>(per_slab_));
    Slot* base = slabs_.back().get();
    // Hand out the first node; chain the rest onto the free list in address
    // order so reuse patterns stay deterministic.
    for (std::size_t i = per_slab_; i-- > 1;) {
      base[i].next = free_;
      free_ = &base[i];
    }
    return base;
  }

  std::size_t per_slab_;
  std::vector<std::unique_ptr<Slot[]>> slabs_;
  Slot* free_ = nullptr;
  std::size_t outstanding_ = 0;
  std::uint64_t reused_ = 0;
};

/// Thread-local size-class recycler for coroutine frames. Frames for
/// send/recv/wait/pump/checkpoint coroutines are created and destroyed at
/// event rate; this keeps the storage on a per-thread free list. Blocks come
/// from plain ::operator new, so a frame freed on a different thread than it
/// was allocated on just joins the freeing thread's cache. That happens
/// whenever a sharded run's worker threads allocate frames the coordinator
/// thread later frees; trim() is how such a cache gives the blocks back.
class FramePool {
 public:
  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kClasses = 32;  // frames up to 2 KiB recycled

  static void* allocate(std::size_t n) {
    const std::size_t cls = (n + kGranularity - 1) / kGranularity;
    if (GBC_POOLS_PASSTHROUGH || cls == 0 || cls > kClasses) {
      return ::operator new(n);
    }
    void*& head = cache().free[cls - 1];
    if (head != nullptr) {
      void* p = head;
      head = *static_cast<void**>(p);
      return p;
    }
    return ::operator new(cls * kGranularity);
  }

  static void deallocate(void* p, std::size_t n) noexcept {
    const std::size_t cls = (n + kGranularity - 1) / kGranularity;
    if (GBC_POOLS_PASSTHROUGH || cls == 0 || cls > kClasses) {
      ::operator delete(p);
      return;
    }
    void*& head = cache().free[cls - 1];
    *static_cast<void**>(p) = head;
    head = p;
  }

  /// Frees every block cached on the calling thread.
  static void trim() noexcept { cache().release(); }

 private:
  struct Cache {
    void* free[kClasses] = {};
    void release() noexcept {
      for (void*& head : free) {
        while (head != nullptr) {
          void* next = *static_cast<void**>(head);
          ::operator delete(head);
          head = next;
        }
      }
    }
    ~Cache() { release(); }
  };
  static Cache& cache() {
    static thread_local Cache c;
    return c;
  }
};

/// Mixin for coroutine promise types: routes the coroutine frame through
/// FramePool. C++20 looks the operators up on the promise, so inheriting
/// this is all a promise type needs.
struct PooledFrame {
  static void* operator new(std::size_t n) { return FramePool::allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    FramePool::deallocate(p, n);
  }
};

}  // namespace gbc::sim
