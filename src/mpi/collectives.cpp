#include <cassert>

#include "mpi/minimpi.hpp"

// Collective operations implemented over the point-to-point layer with the
// textbook algorithms MPI implementations use at these scales: dissemination
// barrier, binomial broadcast/reduce, ring allgather, pairwise all-to-all.
// Implementing them on p2p (rather than as magic timed events) matters here:
// a checkpoint freeze of one member visibly stalls its partners exactly as
// the paper's micro-benchmarks rely on.
namespace gbc::mpi {

namespace {
constexpr Bytes kBarrierBytes = 4;

std::vector<double> combine(Op op, std::vector<double> a,
                            const std::vector<double>& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  assert(a.size() == b.size() && "reduce contributions must be same length");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = apply_op(op, a[i], b[i]);
  return a;
}

Bytes vec_bytes(const std::vector<double>& v) {
  return static_cast<Bytes>(v.size() * sizeof(double));
}
}  // namespace

sim::Task<void> RankCtx::barrier(const Comm& c) {
  co_await exec_->freeze_point();
  const int p = c.size();
  if (p <= 1) co_return;
  const int r = c.comm_rank(rank_);
  assert(r >= 0 && "barrier on a comm this rank is not part of");
  const Tag base = begin_collective(c);
  int round = 0;
  for (int step = 1; step < p; step <<= 1, ++round) {
    const int to = (r + step) % p;
    const int from = (r - step + p) % p;
    Request rq = irecv(c, from, base + round);
    co_await send(c, to, base + round, kBarrierBytes);
    co_await wait(rq);
  }
}

sim::Task<Payload> RankCtx::bcast(const Comm& c, int root, Bytes bytes,
                                  Payload data) {
  co_await exec_->freeze_point();
  const int p = c.size();
  const int r = c.comm_rank(rank_);
  assert(r >= 0);
  if (p <= 1) co_return data;
  const Tag t = begin_collective(c);
  const int vr = (r - root + p) % p;

  int mask = 1;
  if (vr == 0) {
    while (mask < p) mask <<= 1;
  } else {
    while (!(vr & mask)) mask <<= 1;
    // Receive from the parent in the binomial tree.
    const int parent_vr = vr - mask;
    RecvInfo info = co_await recv(c, (parent_vr + root) % p, t);
    data = info.data;
    bytes = info.bytes;
  }
  // Forward to children at smaller bit positions.
  std::vector<Request> sends;
  for (int m = mask >> 1; m > 0; m >>= 1) {
    if (vr + m < p) {
      sends.push_back(isend(c, (vr + m + root) % p, t, bytes, data));
    }
  }
  co_await wait_all(std::move(sends));
  co_return data;
}

sim::Task<void> RankCtx::ring_bcast(const Comm& c, int root, Bytes bytes) {
  co_await exec_->freeze_point();
  const int p = c.size();
  if (p <= 1) co_return;
  const int r = c.comm_rank(rank_);
  assert(r >= 0);
  const Tag t = begin_collective(c);
  const int vr = (r - root + p) % p;  // position along the ring
  const int next = (r + 1) % p;
  if (vr != 0) {
    co_await recv(c, (r - 1 + p) % p, t);
  }
  if (vr != p - 1) {
    // Forward without waiting: the isend completes in the background, so
    // this rank proceeds even if its successor is frozen or deferred.
    (void)isend(c, next, t, bytes);
  }
}

sim::Task<std::vector<double>> RankCtx::reduce(const Comm& c, int root, Op op,
                                               std::vector<double> contrib) {
  co_await exec_->freeze_point();
  const int p = c.size();
  const int r = c.comm_rank(rank_);
  assert(r >= 0);
  if (p <= 1) co_return contrib;
  const Tag t = begin_collective(c);
  const int vr = (r - root + p) % p;
  const Bytes bytes = vec_bytes(contrib);

  std::vector<double> acc = std::move(contrib);
  for (int mask = 1; mask < p; mask <<= 1) {
    if ((vr & mask) == 0) {
      const int child_vr = vr | mask;
      if (child_vr < p) {
        RecvInfo info = co_await recv(c, (child_vr + root) % p, t);
        acc = combine(op, std::move(acc),
                      info.data ? *info.data : std::vector<double>{});
      }
    } else {
      const int parent_vr = vr - mask;
      co_await send(c, (parent_vr + root) % p, t, bytes,
                    make_payload(std::move(acc)));
      co_return std::vector<double>{};  // only the root holds the result
    }
  }
  co_return acc;
}

sim::Task<std::vector<double>> RankCtx::allreduce(const Comm& c, Op op,
                                                  std::vector<double> contrib) {
  const Bytes bytes = vec_bytes(contrib);
  std::vector<double> reduced = co_await reduce(c, 0, op, std::move(contrib));
  // Hoisted out of the bcast call: GCC 12 destroys mixed-arm conditional
  // temporaries inside co_await expressions too early.
  Payload root_data;
  if (c.comm_rank(rank_) == 0) root_data = make_payload(std::move(reduced));
  Payload result = co_await bcast(c, 0, bytes, std::move(root_data));
  if (!result) co_return std::vector<double>{};
  co_return *result;
}

sim::Task<std::vector<double>> RankCtx::allgather(const Comm& c,
                                                  Bytes block_bytes,
                                                  std::vector<double> block) {
  co_await exec_->freeze_point();
  const int p = c.size();
  const int r = c.comm_rank(rank_);
  assert(r >= 0);
  std::vector<std::vector<double>> parts(p);
  parts[r] = std::move(block);
  if (p > 1) {
    // Ring: at step s, pass along the block that arrived at step s-1.
    const int right = (r + 1) % p;
    const int left = (r - 1 + p) % p;
    const Tag base = begin_collective(c);
    int send_idx = r;
    for (int step = 0; step < p - 1; ++step) {
      Request rq = irecv(c, left, base + step);
      Payload outgoing;  // hoisted: see GCC 12 note in allreduce
      if (!parts[send_idx].empty()) outgoing = make_payload(parts[send_idx]);
      co_await send(c, right, base + step, block_bytes, std::move(outgoing));
      co_await wait(rq);
      const int recv_idx = (r - step - 1 + p) % p;
      if (rq->info.data) parts[recv_idx] = *rq->info.data;
      send_idx = recv_idx;
    }
  }
  std::vector<double> result;
  for (const auto& part : parts) {
    result.insert(result.end(), part.begin(), part.end());
  }
  co_return result;
}

sim::Task<std::vector<double>> RankCtx::gather(const Comm& c, int root,
                                               Bytes block_bytes,
                                               std::vector<double> block) {
  co_await exec_->freeze_point();
  const int p = c.size();
  const int r = c.comm_rank(rank_);
  assert(r >= 0);
  const Tag t = begin_collective(c);
  if (r != root) {
    Payload outgoing;  // hoisted: see GCC 12 note in allreduce
    if (!block.empty()) outgoing = make_payload(std::move(block));
    co_await send(c, root, t, block_bytes, std::move(outgoing));
    co_return std::vector<double>{};
  }
  std::vector<std::vector<double>> parts(p);
  parts[root] = std::move(block);
  std::vector<Request> reqs;
  for (int src = 0; src < p; ++src) {
    if (src != root) reqs.push_back(irecv(c, src, t));
  }
  co_await wait_all(reqs);
  std::size_t qi = 0;
  for (int src = 0; src < p; ++src) {
    if (src == root) continue;
    const Request& rq = reqs[qi++];
    // irecv was posted per specific source, so info.source == src.
    if (rq->info.data) parts[src] = *rq->info.data;
  }
  std::vector<double> result;
  for (const auto& part : parts) {
    result.insert(result.end(), part.begin(), part.end());
  }
  co_return result;
}

sim::Task<std::vector<double>> RankCtx::scatter(const Comm& c, int root,
                                                Bytes block_bytes,
                                                std::vector<double> all) {
  co_await exec_->freeze_point();
  const int p = c.size();
  const int r = c.comm_rank(rank_);
  assert(r >= 0);
  const Tag t = begin_collective(c);
  if (r == root) {
    const std::size_t stride = all.empty() ? 0 : all.size() / p;
    std::vector<Request> sends;
    for (int dst = 0; dst < p; ++dst) {
      if (dst == root) continue;
      Payload chunk;
      if (stride > 0) {
        chunk = make_payload(std::vector<double>(
            all.begin() + dst * stride, all.begin() + (dst + 1) * stride));
      }
      sends.push_back(isend(c, dst, t, block_bytes, std::move(chunk)));
    }
    co_await wait_all(std::move(sends));
    if (stride == 0) co_return std::vector<double>{};
    co_return std::vector<double>(all.begin() + root * stride,
                                  all.begin() + (root + 1) * stride);
  }
  RecvInfo info = co_await recv(c, root, t);
  co_return info.data ? *info.data : std::vector<double>{};
}

namespace {
// Driver for non-blocking collectives: runs the blocking algorithm in a
// background coroutine and completes the handed-out request at the end.
sim::Task<void> drive_collective(sim::Task<void> body, Request req,
                                 RankCtx* self) {
  co_await std::move(body);
  self->finish_request(req);
}

sim::Task<void> discard_payload(sim::Task<Payload> body) {
  (void)co_await std::move(body);
}

sim::Task<void> discard_vector(sim::Task<std::vector<double>> body) {
  (void)co_await std::move(body);
}
}  // namespace

Request RankCtx::ibarrier(const Comm& c) {
  auto req = make_request(/*is_recv=*/false);
  engine().spawn(drive_collective(barrier(c), req, this));
  return req;
}

Request RankCtx::ibcast(const Comm& c, int root, Bytes bytes) {
  auto req = make_request(/*is_recv=*/false);
  engine().spawn(drive_collective(discard_payload(bcast(c, root, bytes, nullptr)),
                                  req, this));
  return req;
}

Request RankCtx::iallgather(const Comm& c, Bytes block_bytes) {
  auto req = make_request(/*is_recv=*/false);
  std::vector<double> empty;
  engine().spawn(drive_collective(
      discard_vector(allgather(c, block_bytes, std::move(empty))), req, this));
  return req;
}

sim::Task<RecvInfo> RankCtx::sendrecv(const Comm& c, int dst, Tag send_tag,
                                      Bytes send_bytes, Payload send_data,
                                      int src, Tag recv_tag) {
  co_await exec_->freeze_point();
  Request rq = irecv(c, src, recv_tag);
  co_await send(c, dst, send_tag, send_bytes, std::move(send_data));
  co_await wait(rq);
  co_return rq->info;
}

sim::Task<std::vector<double>> RankCtx::scan(const Comm& c, Op op,
                                             std::vector<double> contrib) {
  co_await exec_->freeze_point();
  const int p = c.size();
  const int r = c.comm_rank(rank_);
  assert(r >= 0);
  if (p <= 1) co_return contrib;
  const Tag t = begin_collective(c);
  const Bytes bytes = vec_bytes(contrib);
  // Hillis-Steele inclusive scan: log2(p) rounds of distance-doubling;
  // partial results flow upward (rank r sends to r+dist, hears from r-dist).
  std::vector<double> acc = std::move(contrib);
  int round = 0;
  for (int dist = 1; dist < p; dist <<= 1, ++round) {
    Request in;
    if (r - dist >= 0) in = irecv(c, r - dist, t + round);
    if (r + dist < p) {
      Payload out = make_payload(acc);
      co_await send(c, r + dist, t + round, bytes, std::move(out));
    }
    if (in) {
      co_await wait(in);
      acc = combine(op, std::move(acc),
                    in->info.data ? *in->info.data : std::vector<double>{});
    }
  }
  co_return acc;
}

sim::Task<std::vector<double>> RankCtx::reduce_scatter_block(
    const Comm& c, Op op, std::vector<double> contrib) {
  co_await exec_->freeze_point();
  const int p = c.size();
  assert(c.comm_rank(rank_) >= 0);
  if (p <= 1) co_return contrib;
  assert(contrib.size() % static_cast<std::size_t>(p) == 0 &&
         "contribution must split into p equal blocks");
  // Reduce at root 0, then scatter the blocks — simple and correct for all
  // sizes; a ring reduce-scatter would halve the traffic but the timing
  // difference is irrelevant at these message sizes.
  const std::size_t stride = contrib.size() / static_cast<std::size_t>(p);
  const Bytes block_bytes = static_cast<Bytes>(stride * sizeof(double));
  std::vector<double> reduced = co_await reduce(c, 0, op, std::move(contrib));
  co_return co_await scatter(c, 0, block_bytes, std::move(reduced));
}

sim::Task<void> RankCtx::alltoall(const Comm& c, Bytes block_bytes) {
  co_await exec_->freeze_point();
  const int p = c.size();
  const int r = c.comm_rank(rank_);
  assert(r >= 0);
  if (p <= 1) co_return;
  const Tag base = begin_collective(c);
  for (int step = 1; step < p; ++step) {
    const int dst = (r + step) % p;
    const int src = (r - step + p) % p;
    Request rq = irecv(c, src, base + step);
    co_await send(c, dst, base + step, block_bytes);
    co_await wait(rq);
  }
}

}  // namespace gbc::mpi
