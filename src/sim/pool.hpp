#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

// Memory pools for the simulation hot path. Every simulated send, buffered
// message, suspension and coroutine frame used to be a fresh heap allocation;
// at millions of events per sweep point the allocator dominates. The pools
// here trade a little slab bookkeeping for steady-state allocation-free
// operation. All of them are single-threaded by design: a pool belongs to one
// Engine, and the sweep runner confines each Engine to one worker thread
// (DESIGN.md §8), so no atomics are needed.
//
// Under AddressSanitizer the pools degrade to plain new/delete so recycling
// cannot mask use-after-free bugs in the code they serve.
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

/// Size-class free lists backing ArenaAlloc. Built for std::allocate_shared:
/// the allocator (holding a shared_ptr to this core) is copied into every
/// control block it creates, so outstanding shared/weak_ptrs keep the core
/// alive even after its owning object is destroyed — no destruction-order
/// hazards between e.g. an Engine's suspension registry and the arena that
/// allocated the suspension records.
class ArenaCore {
 public:
  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kClasses = 16;  // blocks up to 1 KiB recycled

  ArenaCore() = default;
  ArenaCore(const ArenaCore&) = delete;
  ArenaCore& operator=(const ArenaCore&) = delete;
  ~ArenaCore() {
    for (void* head : free_) {
      while (head != nullptr) {
        void* next = *static_cast<void**>(head);
        ::operator delete(head);
        head = next;
      }
    }
  }

  void* allocate(std::size_t bytes) {
    const std::size_t cls = (bytes + kGranularity - 1) / kGranularity;
    if (GBC_POOLS_PASSTHROUGH || cls == 0 || cls > kClasses) {
      return ::operator new(bytes);
    }
    void*& head = free_[cls - 1];
    if (head != nullptr) {
      void* p = head;
      head = *static_cast<void**>(p);
      ++reused_;
      return p;
    }
    return ::operator new(cls * kGranularity);
  }

  void deallocate(void* p, std::size_t bytes) noexcept {
    const std::size_t cls = (bytes + kGranularity - 1) / kGranularity;
    if (GBC_POOLS_PASSTHROUGH || cls == 0 || cls > kClasses) {
      ::operator delete(p);
      return;
    }
    *static_cast<void**>(p) = free_[cls - 1];
    free_[cls - 1] = p;
  }

  /// Allocations served from a free list (recycled storage).
  std::uint64_t reused() const noexcept { return reused_; }

 private:
  void* free_[kClasses] = {};
  std::uint64_t reused_ = 0;
};

/// Allocator adapter over a shared ArenaCore, for std::allocate_shared.
template <typename T>
class ArenaAlloc {
 public:
  using value_type = T;

  explicit ArenaAlloc(std::shared_ptr<ArenaCore> core)
      : core_(std::move(core)) {}
  template <typename U>
  ArenaAlloc(const ArenaAlloc<U>& other) noexcept  // NOLINT: allocator rebind
      : core_(other.core()) {}

  T* allocate(std::size_t n) {
    if (n != 1) return static_cast<T*>(::operator new(n * sizeof(T)));
    return static_cast<T*>(core_->allocate(sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (n != 1) {
      ::operator delete(p);
      return;
    }
    core_->deallocate(p, sizeof(T));
  }

  const std::shared_ptr<ArenaCore>& core() const noexcept { return core_; }

  friend bool operator==(const ArenaAlloc& a, const ArenaAlloc& b) noexcept {
    return a.core_ == b.core_;
  }

 private:
  std::shared_ptr<ArenaCore> core_;
};

/// Thread-local size-class recycler for coroutine frames. Frames for
/// send/recv/wait/pump/checkpoint coroutines are created and destroyed at
/// event rate; this keeps the storage on a per-thread free list. Blocks come
/// from plain ::operator new, so a frame freed on a different thread than it
/// was allocated on (the sweep pool moves engines between workers across
/// batches, never concurrently) just migrates to that thread's cache.
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

 private:
  struct Cache {
    void* free[kClasses] = {};
    ~Cache() {
      for (void* head : free) {
        while (head != nullptr) {
          void* next = *static_cast<void**>(head);
          ::operator delete(head);
          head = next;
        }
      }
    }
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
