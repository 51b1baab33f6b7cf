#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace gbc::net {

/// One rank's per-partner records, flat and built lazily. Nothing is
/// allocated until the rank first contacts a partner; from then on each
/// partner's record is appended in first-contact order, and its index in
/// that order is its slot for the rest of the run. A sorted (peer, slot)
/// index finds a record in O(log d) for a rank with d partners: the same
/// path serves a ring neighbour's 2 partners and an alltoall's 1023.
///
/// The records share one vector, so a first contact may move all of them.
/// Code that suspends holds a slot, never a reference, and re-fetches the
/// record with at() after every resume.
template <typename Rec>
class PeerRecords {
 public:
  /// peer's slot, appending a default record on the first contact.
  std::uint32_t slot(int peer) {
    const auto it = lower(peer);
    if (it != index_.end() && it->peer == peer) return it->slot;
    if (recs_.empty()) {
      // Most ranks talk to a handful of partners: one allocation each for
      // the records and the index covers them.
      recs_.reserve(kFirstCapacity);
      index_.reserve(kFirstCapacity);
    }
    const auto s = static_cast<std::uint32_t>(recs_.size());
    recs_.emplace_back();
    index_.insert(lower(peer), Entry{peer, s});
    return s;
  }

  Rec& at(std::uint32_t slot) { return recs_[slot]; }

  /// peer's record, or null before the first contact.
  const Rec* get(int peer) const {
    const auto it = lower(peer);
    return it != index_.end() && it->peer == peer ? &recs_[it->slot]
                                                  : nullptr;
  }

  /// Calls f(peer, record) for every partner, by ascending peer.
  template <typename F>
  void for_each(F&& f) const {
    for (const Entry& e : index_) f(e.peer, recs_[e.slot]);
  }

 private:
  static constexpr std::size_t kFirstCapacity = 4;

  struct Entry {
    int peer;
    std::uint32_t slot;
  };

  typename std::vector<Entry>::const_iterator lower(int peer) const {
    return std::lower_bound(
        index_.begin(), index_.end(), peer,
        [](const Entry& e, int p) { return e.peer < p; });
  }

  std::vector<Rec> recs_;     // first-contact order; index = slot
  std::vector<Entry> index_;  // (peer, slot), ascending peer
};

}  // namespace gbc::net
