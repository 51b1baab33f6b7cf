#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace gbc::mpi {

/// A communicator: an ordered set of world ranks. Comm rank i is
/// `members()[i]`. Communicators are created centrally (see
/// MiniMPI::create_comm) which mirrors the collective nature of
/// MPI_Comm_split while keeping the simulation simple.
class Comm {
 public:
  Comm(std::uint64_t id, std::vector<int> members)
      : id_(id), members_(std::move(members)) {
    for (int i = 0; i < size(); ++i) {
      if (members_[i] != members_[0] + i) {
        contiguous_ = false;
        break;
      }
    }
    if (contiguous_) return;
    by_world_.reserve(members_.size());
    for (int i = 0; i < size(); ++i) by_world_.push_back({members_[i], i});
    std::sort(by_world_.begin(), by_world_.end(),
              [](const Entry& a, const Entry& b) { return a.world < b.world; });
  }

  std::uint64_t id() const noexcept { return id_; }
  int size() const noexcept { return static_cast<int>(members_.size()); }
  const std::vector<int>& members() const noexcept { return members_; }

  /// World rank of the given comm rank.
  int world_rank(int comm_rank) const {
    assert(comm_rank >= 0 && comm_rank < size());
    return members_[comm_rank];
  }

  /// Comm rank of the given world rank, or -1 if not a member. Runs once
  /// per completed receive: O(1) when the members are one ascending run of
  /// world ranks (the world comm, a block split), else a binary search
  /// over a flat index.
  int comm_rank(int world_rank) const {
    if (contiguous_) {
      const std::int64_t i =
          static_cast<std::int64_t>(world_rank) - (size() ? members_[0] : 0);
      return i >= 0 && i < size() ? static_cast<int>(i) : -1;
    }
    auto it = std::lower_bound(
        by_world_.begin(), by_world_.end(), world_rank,
        [](const Entry& e, int w) { return e.world < w; });
    return it != by_world_.end() && it->world == world_rank ? it->rank : -1;
  }

  bool contains(int world_rank) const { return comm_rank(world_rank) >= 0; }

 private:
  struct Entry {
    int world;
    int rank;
  };

  std::uint64_t id_;
  std::vector<int> members_;
  // The members are one ascending run: members_[i] == members_[0] + i.
  bool contiguous_ = true;
  // (world rank, comm rank), by world rank; empty when contiguous_.
  std::vector<Entry> by_world_;
};

}  // namespace gbc::mpi
