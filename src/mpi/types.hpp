#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "sim/condition.hpp"
#include "sim/pool.hpp"
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

class RequestPool;

/// Request state shared between the app coroutine and the progress engine.
/// A record is created, waited on and completed on its rank's shard only,
/// so its reference count is a plain integer (see Request).
struct ReqState {
  ReqState(sim::Engine& eng, RequestPool* home) : cv(eng), home_(home) {}
  bool done = false;
  bool is_recv = false;
  // Matching criteria for posted receives (world-rank source or kAnySource).
  std::uint64_t comm_id = 0;
  int match_src = kAnySource;
  Tag match_tag = kAnyTag;
  RecvInfo info;
  sim::Condition cv;

 private:
  friend class Request;
  RequestPool* home_;  // where the record goes when its last handle dies
  std::uint32_t refs_ = 0;
};

/// Shard-local counted handle to a ReqState, with the surface of a
/// shared_ptr: ->, copy, bool, nullptr. Dropping the last handle hands the
/// record back to the RequestPool that made it. Handles must stay on the
/// record's shard; nothing on the message path copies one across shards.
class Request {
 public:
  Request() noexcept = default;
  Request(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)
  Request(const Request& o) noexcept : s_(o.s_) {
    if (s_ != nullptr) ++s_->refs_;
  }
  Request(Request&& o) noexcept : s_(std::exchange(o.s_, nullptr)) {}
  Request& operator=(Request o) noexcept {
    std::swap(s_, o.s_);
    return *this;
  }
  inline ~Request();

  ReqState* operator->() const noexcept { return s_; }
  ReqState& operator*() const noexcept { return *s_; }
  explicit operator bool() const noexcept { return s_ != nullptr; }
  friend bool operator==(const Request&, const Request&) = default;
  friend bool operator==(const Request& r, std::nullptr_t) noexcept {
    return r.s_ == nullptr;
  }

 private:
  friend class RequestPool;
  explicit Request(ReqState* s) noexcept : s_(s) { ++s_->refs_; }
  ReqState* s_ = nullptr;
};

/// Recycles one rank's request records: an exact-size free list, filled as
/// records come home and freed with the pool. It belongs to the rank (so it
/// lives on that rank's shard) and must outlive every handle it made that
/// will still be dropped. With GBC_POOLS_PASSTHROUGH each record is a plain
/// new/delete, like the other recyclers.
class RequestPool {
 public:
  explicit RequestPool(sim::Engine& eng) : eng_(&eng) {}
  RequestPool(const RequestPool&) = delete;
  RequestPool& operator=(const RequestPool&) = delete;
  ~RequestPool() {
    while (Slot* s = free_) {
      free_ = s->next;
      delete s;
    }
  }

  /// A fresh record (done = false, no waiters) bound to the pool's engine.
  Request make() {
#if GBC_POOLS_PASSTHROUGH
    ReqState* r = new ReqState(*eng_, this);
#else
    Slot* s = free_;
    if (s != nullptr) {
      free_ = s->next;
    } else {
      s = new Slot;
    }
    ReqState* r = ::new (static_cast<void*>(s->raw)) ReqState(*eng_, this);
#endif
    ++outstanding_;
    return Request(r);
  }

  /// Records made and not yet handed back.
  std::size_t outstanding() const noexcept { return outstanding_; }

 private:
  friend class Request;
  union Slot {
    Slot* next;
    alignas(ReqState) std::byte raw[sizeof(ReqState)];
  };

  void release(ReqState* r) noexcept {
    --outstanding_;
#if GBC_POOLS_PASSTHROUGH
    delete r;
#else
    r->~ReqState();
    Slot* s = reinterpret_cast<Slot*>(r);
    s->next = free_;
    free_ = s;
#endif
  }

  sim::Engine* eng_;
  Slot* free_ = nullptr;
  std::size_t outstanding_ = 0;
};

inline Request::~Request() {
  if (s_ != nullptr && --s_->refs_ == 0) s_->home_->release(s_);
}

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
