#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace gbc::sim {

/// A FIFO in one vector with a head index: items [head, size) are queued,
/// oldest first. Taking the front only advances the head, so it is O(1);
/// the consumed prefix is reclaimed when the queue empties (the storage is
/// then reused as is) or when a full vector is at least half consumed.
/// take(i) removes a mid-queue item and keeps the rest in arrival order.
///
/// Items in the consumed prefix are moved-from shells until the next
/// reclaim, so T should hold nothing once moved from.
template <typename T>
class Fifo {
 public:
  bool empty() const noexcept { return head_ == items_.size(); }
  std::size_t size() const noexcept { return items_.size() - head_; }

  T& front() {
    assert(!empty());
    return items_[head_];
  }

  void push_back(T v) {
    if (head_ > 0 && items_.size() == items_.capacity() &&
        2 * head_ >= items_.size()) {
      items_.erase(items_.begin(), items_.begin() + head_);
      head_ = 0;
    }
    items_.push_back(std::move(v));
  }

  T pop_front() {
    assert(!empty());
    T v = std::move(items_[head_++]);
    if (empty()) clear();
    return v;
  }

  /// Removes and returns the i-th queued item (0 = front). Like a deque,
  /// it shifts whichever side of the item is shorter.
  T take(std::size_t i) {
    assert(i < size());
    const auto at = static_cast<std::ptrdiff_t>(head_ + i);
    T v = std::move(items_[at]);
    if (i < size() / 2) {
      std::move_backward(items_.begin() + static_cast<std::ptrdiff_t>(head_),
                         items_.begin() + at, items_.begin() + at + 1);
      ++head_;
    } else {
      items_.erase(items_.begin() + at);
    }
    if (empty()) clear();
    return v;
  }

  /// The queued items, oldest first.
  auto begin() noexcept {
    return items_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  auto end() noexcept { return items_.end(); }
  auto begin() const noexcept {
    return items_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  auto end() const noexcept { return items_.end(); }

 private:
  void clear() noexcept {
    items_.clear();
    head_ = 0;
  }

  std::vector<T> items_;
  std::size_t head_ = 0;
};

}  // namespace gbc::sim
