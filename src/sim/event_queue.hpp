#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace gbc::sim {

/// One scheduled engine event: fire the callable stored in slot `slot` at
/// simulated time `t`. `seq` is the engine's schedule counter, with
/// Engine::kBackBand set for end-of-instant events; it breaks timestamp ties,
/// so (t, seq) totally orders every pending event.
struct QueuedEvent {
  Time t;
  std::uint64_t seq;
  std::uint32_t slot;
};

/// The engine's event queue: a binary min-heap on (t, seq) in one
/// std::vector, maintained by std::push_heap/std::pop_heap. Events pop in
/// strictly ascending (t, seq) order whatever order they were pushed in —
/// the one ordering rule the engine's determinism rests on.
class EventQueue {
 public:
  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  void push(const QueuedEvent& ev) {
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Pops the earliest pending event into `out` if its timestamp is <=
  /// limit; returns false otherwise (leaving the event queued).
  bool pop(Time limit, QueuedEvent& out) {
    if (heap_.empty() || heap_.front().t > limit) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    out = heap_.back();
    heap_.pop_back();
    return true;
  }

  /// The earliest pending event. Requires !empty().
  const QueuedEvent& peek() const noexcept { return heap_.front(); }

  /// Drops every pending event; the vector keeps its capacity.
  void clear() noexcept { heap_.clear(); }

 private:
  // The std heap algorithms build a max-heap, so order by "fires later" to
  // keep the (t, seq) minimum at the front.
  struct Later {
    bool operator()(const QueuedEvent& a, const QueuedEvent& b) const noexcept {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };

  std::vector<QueuedEvent> heap_;
};

}  // namespace gbc::sim
