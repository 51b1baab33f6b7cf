#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace gbc::sim {

/// Move-only callable with a large inline buffer. The event loop schedules
/// millions of tiny lambdas (a pointer or a shared_ptr or two); with
/// std::function every one of them heap-allocates, because libstdc++ only
/// stores trivially-copyable targets locally. InlineFn keeps any callable of
/// up to kCapacity bytes (and nothrow-move-constructible, so moves stay
/// noexcept) in the object itself and falls back to the heap beyond that.
class InlineFn {
 public:
  /// Holds the common hot-path callables inline: the fabric sends a
  /// one-pointer FlightDeliver record, an engine wake captures one
  /// shared_ptr, and bus messages capture a few pointers. A bus send stores
  /// its InlineFn by value in a settle bucket or outbox entry and never
  /// wraps it, so no hot path nests one InlineFn inside another.
  static constexpr std::size_t kCapacity = 64;

  InlineFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                     // std::function at every schedule_* call site
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kCapacity &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      Fn* p = new Fn(std::forward<F>(f));
      std::memcpy(buf_, &p, sizeof(p));
      ops_ = &heap_ops<Fn>;
    }
  }

  InlineFn(InlineFn&& other) noexcept { move_from(other); }
  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;
  ~InlineFn() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    /// Move-constructs dst's storage from src's and destroys src's target.
    void (*relocate)(void* src_buf, void* dst_buf) noexcept;
    void (*destroy)(void* buf) noexcept;
  };

  template <typename Fn>
  static constexpr Ops inline_ops = {
      [](void* buf) { (*std::launder(reinterpret_cast<Fn*>(buf)))(); },
      [](void* src, void* dst) noexcept {
        Fn* f = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*f));
        f->~Fn();
      },
      [](void* buf) noexcept {
        std::launder(reinterpret_cast<Fn*>(buf))->~Fn();
      }};

  // The heap pointer is stored in and loaded from buf_ via memcpy so the
  // access stays strict-aliasing clean regardless of the buffer's type.
  template <typename Fn>
  static constexpr Ops heap_ops = {
      [](void* buf) {
        Fn* p;
        std::memcpy(&p, buf, sizeof(p));
        (*p)();
      },
      [](void* src, void* dst) noexcept { std::memcpy(dst, src, sizeof(Fn*)); },
      [](void* buf) noexcept {
        Fn* p;
        std::memcpy(&p, buf, sizeof(p));
        delete p;
      }};

  void move_from(InlineFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_) ops_->relocate(other.buf_, buf_);
    other.ops_ = nullptr;
  }
  void reset() noexcept {
    if (ops_) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kCapacity];
};

}  // namespace gbc::sim
