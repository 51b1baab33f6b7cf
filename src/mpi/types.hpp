#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/condition.hpp"
#include "sim/time.hpp"
#include "storage/storage.hpp"

namespace gbc::mpi {

using Bytes = storage::Bytes;
using Tag = std::int64_t;

inline constexpr int kAnySource = -1;
inline constexpr Tag kAnyTag = -1;
/// Tags at or above this value are reserved for collective implementations.
inline constexpr Tag kCollectiveTagBase = Tag{1} << 32;

/// Optional semantic content of a message. Most simulated traffic carries
/// only a byte count, but collectives and correctness tests move real values.
using Payload = std::shared_ptr<const std::vector<double>>;

inline Payload make_payload(std::vector<double> v) {
  return std::make_shared<const std::vector<double>>(std::move(v));
}

/// Variadic convenience: make_payload(1.0, 2.0). Building the vector inside
/// the callee also sidesteps a GCC 12 bug where a braced initializer-list
/// temporary inside a co_await expression fails to be placed in the frame
/// ("array used as initializer").
template <typename... Ds>
Payload make_payload(double first, Ds... rest) {
  std::vector<double> v{first, static_cast<double>(rest)...};
  return std::make_shared<const std::vector<double>>(std::move(v));
}

/// Same workaround for APIs taking std::vector<double> by value: use
/// vec(1.0, 2.0) instead of {1.0, 2.0} at call sites inside coroutines.
template <typename... Ds>
std::vector<double> vec(Ds... ds) {
  return std::vector<double>{static_cast<double>(ds)...};
}

/// Completion information of a receive.
struct RecvInfo {
  int source = kAnySource;  ///< comm rank of the sender
  Tag tag = kAnyTag;
  Bytes bytes = 0;
  Payload data;
};

/// Message envelope as it travels through the library (world-rank addressed).
struct Envelope {
  std::uint64_t comm_id = 0;
  int src_world = -1;
  int dst_world = -1;
  Tag tag = 0;
  Bytes bytes = 0;
  Payload data;
  std::uint64_t id = 0;  ///< unique per message/transfer
  /// Rendezvous slots: where each end parked the open request. The sender
  /// stamps send_slot on the RTS, the receiver recv_slot on the CTS; RDMA
  /// data and FIN carry both back, so each end finds its request by index.
  std::uint32_t send_slot = 0;
  std::uint32_t recv_slot = 0;
};

/// Request state shared between the app coroutine and the progress engine.
/// Requests are created at message rate, so the condition variable is a
/// direct member (one allocation instead of two) and the whole record is
/// placed by allocate_shared into the library's request arena.
struct ReqState {
  explicit ReqState(sim::Engine& eng) : cv(eng) {}
  bool done = false;
  bool is_recv = false;
  // Matching criteria for posted receives (world-rank source or kAnySource).
  std::uint64_t comm_id = 0;
  int match_src = kAnySource;
  Tag match_tag = kAnyTag;
  RecvInfo info;
  sim::Condition cv;
};

using Request = std::shared_ptr<ReqState>;

/// Reduction operators for reduce/allreduce.
enum class Op : std::uint8_t { kSum, kMax, kMin, kProd };

inline double apply_op(Op op, double a, double b) {
  switch (op) {
    case Op::kSum: return a + b;
    case Op::kMax: return a > b ? a : b;
    case Op::kMin: return a < b ? a : b;
    case Op::kProd: return a * b;
  }
  return a;
}

/// Record of one data-plane message used by consistency checking: a recovery
/// line is consistent iff for every message, "transmitted after the sender's
/// snapshot" equals "arrived after the receiver's snapshot" (see DESIGN.md).
struct MessageRecord {
  int src = -1;
  int dst = -1;
  Bytes bytes = 0;
  sim::Time transmit_time = -1;  ///< left the sender's library buffer
  sim::Time arrival_time = -1;   ///< entered the receiver's library
};

}  // namespace gbc::mpi
