#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "mpi/types.hpp"
#include "sim/fifo.hpp"

namespace gbc::mpi {

/// Per-endpoint MPI matching engine: the posted-receive list and the
/// unexpected-message queue, with the MPI matching rules (communicator,
/// source wildcard, tag wildcard) applied in post/arrival order.
///
/// A Matcher is owned by exactly one rank LP and only ever touched from that
/// rank's shard — it is the piece of MiniMPI state the per-rank sharding
/// discipline (DESIGN.md §13) moves off shard 0. It holds no engine or
/// fabric references, so it is unit-testable in isolation.
class Matcher {
 public:
  struct Unexpected {
    Envelope env;
    bool rndv = false;  // true: an RTS awaiting a matching recv
  };

  static bool envelope_matches(const Envelope& env, std::uint64_t comm_id,
                               int match_src, Tag match_tag) {
    return env.comm_id == comm_id &&
           (match_src == kAnySource || match_src == env.src_world) &&
           (match_tag == kAnyTag || match_tag == env.tag);
  }

  /// Registers a posted receive. Call only after take_unexpected() found no
  /// already-arrived match (the MPI library ordering rule).
  void post(Request req) { posted_.push_back(std::move(req)); }

  /// Matches an arrived envelope against posted receives, oldest post first;
  /// removes and returns the match, or nullptr.
  Request match_posted(const Envelope& env) {
    for (auto it = posted_.begin(); it != posted_.end(); ++it) {
      const ReqState& req = **it;
      if (envelope_matches(env, req.comm_id, req.match_src, req.match_tag)) {
        Request r = std::move(*it);
        posted_.erase(it);
        return r;
      }
    }
    return nullptr;
  }

  /// Takes the first unexpected message matching (comm, src, tag) in
  /// arrival order, or nullopt. A match at the front (every wildcard
  /// receive) is O(1); a selective match further back removes it in place
  /// and keeps the rest in arrival order.
  std::optional<Unexpected> take_unexpected(std::uint64_t comm_id,
                                            int match_src, Tag match_tag) {
    std::size_t i = 0;
    for (const Unexpected& um : unexpected_) {
      if (envelope_matches(um.env, comm_id, match_src, match_tag)) {
        return unexpected_.take(i);
      }
      ++i;
    }
    return std::nullopt;
  }

  /// Non-destructive unexpected-queue check (MPI_Iprobe).
  bool probe(std::uint64_t comm_id, int match_src, Tag match_tag) const {
    for (const auto& um : unexpected_) {
      if (envelope_matches(um.env, comm_id, match_src, match_tag)) {
        return true;
      }
    }
    return false;
  }

  /// Parks an arrived envelope no posted receive matched.
  void push_unexpected(Envelope env, bool rndv) {
    unexpected_.push_back(Unexpected{std::move(env), rndv});
  }

  std::size_t posted_count() const noexcept { return posted_.size(); }
  std::size_t unexpected_count() const noexcept { return unexpected_.size(); }

 private:
  std::vector<Request> posted_;
  sim::Fifo<Unexpected> unexpected_;
};

}  // namespace gbc::mpi
