// perfbench driver: runs one benchmark workload of the gbckpt simulator
// against the public harness API (SimCluster, run_with_faults,
// run_with_poisson_failures), checks every simulated output, and prints the
// metrics as one JSON object on the last line of stdout.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-out FILE] [--git-sha SHA] [--source-digest HEX]
//                    [--max-points N] [--corrupt-check]
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// runs the same passes untraced and then traced (host-time spans around
// every call into a layer, kept in memory and written to --trace-out at
// exit) and prints the per-layer metrics plus the tracing overhead.
// --max-points caps a pass (smoke tests only); --corrupt-check flips one
// expected hash so the self-test can prove a wrong output is counted as a
// failure. README.md in this directory documents workloads and metrics.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness/interval.hpp"
#include "harness/recovery.hpp"
#include "harness/sim_cluster.hpp"
#include "sim/random.hpp"
#include "storage/erasure.hpp"
#include "workloads/hpl.hpp"
#include "workloads/microbench.hpp"
#include "workloads/motifminer.hpp"
#include "workloads/stencil.hpp"

#ifndef GBC_PERFBENCH_BUILD_TYPE
#define GBC_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace gbc;

// ---------------------------------------------------------------------------
// Host clocks and memory.
// ---------------------------------------------------------------------------

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of the whole process (every thread).
double cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double rss_mib() {
  long pages = 0, resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// The number of CPUs this process may run on (what `nproc` prints).
int host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
}

// ---------------------------------------------------------------------------
// Host speed probe.
// ---------------------------------------------------------------------------

/// Times fixed slices of simulator-like host work, written here and sharing
/// no code with src/. Host slowdowns on the shared machine this was built on
/// hit allocation- and pointer-heavy code harder than arithmetic, so a slice
/// allocates as it goes, like the simulator; a variant that allocated
/// nothing tracked them less well (README.md).
class HostProbe {
 public:
  /// Times slices until they have taken kShare of `point_wall` seconds (at
  /// least one) and returns their median time over the reference host's:
  /// how many times slower than there the host runs at the moment. With
  /// `threads` > 1, each timing runs that many slices at once, one per
  /// thread, and takes the slowest, as a barrier-synchronised engine round
  /// waits for its slowest shard.
  double sample(double point_wall, int threads) {
    std::vector<double> times;
    double spent = 0;
    do {
      const double dt = timed(std::max(threads, 1));
      times.push_back(dt);
      spent += dt;
    } while (spent < kShare * point_wall);
    std::sort(times.begin(), times.end());
    return times[times.size() / 2] / kRefSeconds;
  }

 private:
  static constexpr std::uint32_t kLps = 4096;
  static constexpr int kEvents = 8000;
  /// Probe time after each point, as a share of the point's own time.
  static constexpr double kShare = 0.05;
  /// Median slice time on the reference host (4-CPU x86-64 Linux, the host
  /// this benchmark was built on, in a quiet spell).
  static constexpr double kRefSeconds = 0.00195;

  /// The slowest of `threads` concurrent slices, in seconds.
  double timed(int threads) {
    std::vector<double> dts(static_cast<std::size_t>(threads));
    std::vector<std::uint64_t> sums(dts.size());
    auto one = [&dts, &sums](std::size_t t) {
      try {
        const double t0 = wall_now();
        sums[t] = slice();
        dts[t] = wall_now() - t0;
      } catch (const std::exception&) {
        dts[t] = -1;  // reported below, on the driver's thread
      }
    };
    {
      std::vector<std::jthread> others;
      for (std::size_t t = 1; t < dts.size(); ++t) others.emplace_back(one, t);
      one(0);
    }
    if (*std::min_element(dts.begin(), dts.end()) < 0) {
      throw std::runtime_error("host probe slice failed");
    }
    for (std::uint64_t h : sums) {
      if (checksum_ == 0) checksum_ = h;
      if (h != checksum_) throw std::logic_error("host probe checksum changed");
    }
    return *std::max_element(dts.begin(), dts.end());
  }

  /// A binary-heap event loop over 4096 logical processes whose handlers
  /// mix a per-LP state word, append to small per-LP vectors and insert
  /// into or erase from a hash map. Returns the same checksum every time.
  static std::uint64_t slice() {
    struct Ev {
      std::uint64_t t;
      std::uint32_t lp;
      bool operator>(const Ev& o) const {
        return t != o.t ? t > o.t : lp > o.lp;
      }
    };
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    std::priority_queue<Ev, std::vector<Ev>, std::greater<>> queue;
    std::vector<std::uint64_t> state(kLps);
    std::vector<std::vector<std::uint32_t>> inbox(kLps);
    std::unordered_map<std::uint64_t, int> flights;
    for (std::uint32_t lp = 0; lp < kLps; ++lp) {
      queue.push(Ev{next() % 1000, lp});
    }
    std::uint64_t h = 1469598103934665603ull;
    for (int i = 0; i < kEvents; ++i) {
      const Ev e = queue.top();
      queue.pop();
      std::uint64_t& s = state[e.lp];
      s = (s ^ e.t) * 1099511628211ull;
      const auto dst = static_cast<std::uint32_t>(next() % kLps);
      inbox[dst].push_back(e.lp);
      if (inbox[e.lp].size() > 4) {
        for (std::uint32_t from : inbox[e.lp]) s += from;
        inbox[e.lp].clear();
      }
      const std::uint64_t key = (std::uint64_t{e.lp} << 32) | (dst & 0xFF);
      if (auto it = flights.find(key); it != flights.end()) {
        h ^= static_cast<std::uint64_t>(it->second);
        flights.erase(it);
      } else {
        flights.emplace(key, i);
      }
      h = (h ^ s) * 1099511628211ull;
      queue.push(Ev{e.t + 1 + next() % 1000, dst});
    }
    return h;
  }

  std::uint64_t checksum_ = 0;  ///< every slice's checksum (0: none run yet)
};

// ---------------------------------------------------------------------------
// Spans: one record per call into a layer, kept in memory, written at exit.
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  struct Span {
    const char* name;
    int parent;  ///< index of the enclosing span, -1 for the root
    int point;   ///< experiment the span belongs to, -1 outside any point
    double t0;
    double t1;
  };

  int open(const char* name, int point) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(
        Span{name, stack_.empty() ? -1 : stack_.back(), point, wall_now(), -1});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].t1 = wall_now();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration of every span called `name`.
  double total(std::string_view name) const {
    double s = 0;
    for (const Span& sp : spans_) {
      if (name == sp.name) s += sp.t1 - sp.t0;
    }
    return s;
  }

  /// Per-span self time: duration minus the time its children cover.
  std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].t1 - spans_[i].t0;
    }
    for (const Span& sp : spans_) {
      if (sp.parent >= 0) {
        self[static_cast<std::size_t>(sp.parent)] -= sp.t1 - sp.t0;
      }
    }
    return self;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Opens a span for its lifetime; a null log records nothing.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, int point)
      : log_(log), id_(log ? log->open(name, point) : -1) {}
  ~Scope() {
    if (log_) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// ---------------------------------------------------------------------------
// JSON output.
// ---------------------------------------------------------------------------

std::string num(double v) {
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// Benchmark inputs: experiments ("points") generated from the seed.
// ---------------------------------------------------------------------------

enum class Kind : std::uint8_t {
  kDelay,      ///< base run + checkpointed run (Effective Checkpoint Delay)
  kFaultPlan,  ///< clean run + checkpointed run + FaultPlan replay
  kMtbf,       ///< clean run + Poisson-failure run with periodic checkpoints
};

struct Point {
  Kind kind = Kind::kDelay;
  std::string label;
  harness::ClusterPreset preset;
  harness::WorkloadFactory factory;
  ckpt::CkptConfig cc;
  std::vector<harness::CkptRequest> requests;
  harness::FaultPlan plan;             // kFaultPlan
  harness::FailureModel failures;      // kMtbf
  sim::Time interval = 0;              // kMtbf
  ckpt::Protocol protocol = ckpt::Protocol::kGroupBased;  // kMtbf
};

struct Bench {
  std::string name;
  std::vector<Point> pass;  ///< one pass; the measured phase repeats it
};

bool coordinated(ckpt::Protocol p) {
  return p == ckpt::Protocol::kBlockingCoordinated ||
         p == ckpt::Protocol::kGroupBased;
}

harness::WorkloadFactory comm_group_bench(int comm_group, std::uint64_t iters,
                                          double footprint_mib) {
  workloads::CommGroupBenchConfig cfg;
  cfg.comm_group_size = comm_group;
  cfg.iterations = iters;
  cfg.footprint_mib = footprint_mib;
  return [cfg](int n) {
    return std::make_unique<workloads::CommGroupBench>(n, cfg);
  };
}

/// fullstack-*: 1024-rank experiments (base + group-based checkpoint),
/// comm group 8, checkpoint group 8, 180 MiB images. A pass is eight of
/// them, the seed drawing each one's issuance time within its eighth of
/// 3-5 s.
Bench fullstack(std::uint64_t seed, int shards, int threads) {
  constexpr int kPoints = 8;
  sim::Rng rng(seed ^ 0xF011574C4ULL);
  Bench w;
  w.name = shards == 1 ? "fullstack-serial" : "fullstack-sharded";
  for (int i = 0; i < kPoints; ++i) {
    Point p;
    p.preset = harness::icpp07_cluster();
    p.preset.nranks = 1024;
    p.preset.shards = shards;
    p.preset.threads = threads;
    p.factory = comm_group_bench(8, 100, 180.0);
    p.cc.group_size = 8;
    const double issuance = 3.0 + 2.0 * (i + rng.uniform()) / kPoints;
    p.requests.push_back(harness::CkptRequest{sim::from_seconds(issuance),
                                              ckpt::Protocol::kGroupBased});
    p.label = w.name + " ranks=1024 issuance=" + num(issuance);
    w.pass.push_back(std::move(p));
  }
  return w;
}

/// Seeded Fisher-Yates shuffle.
template <typename T>
std::vector<T> shuffled(std::vector<T> xs, sim::Rng& rng) {
  for (std::size_t i = xs.size(); i > 1; --i) {
    std::swap(xs[i - 1], xs[rng.uniform_int(i)]);
  }
  return xs;
}

/// paper-sweep: a balanced sample of the paper's 32-rank experiments. Every
/// (app, protocol) cell gets six points: each checkpoint group size once,
/// each comm group size once (8, the paper's, twice), three incremental and
/// three full, and one issuance time in each sixth of 10-60% of the app's
/// runtime; the seed shuffles how they pair up and draws each issuance
/// within its sixth. The pass then costs about the same for every seed.
Bench paper_sweep(std::uint64_t seed) {
  const char* apps[] = {"microbench", "barrier", "hpl", "motifminer",
                        "stencil"};
  const ckpt::Protocol protocols[] = {
      ckpt::Protocol::kGroupBased, ckpt::Protocol::kBlockingCoordinated,
      ckpt::Protocol::kChandyLamport, ckpt::Protocol::kUncoordinatedLogging};
  sim::Rng rng(seed ^ 0x5EEDFACEULL);
  Bench w;
  w.name = "paper-sweep";
  for (const char* app : apps) {
    for (ckpt::Protocol proto : protocols) {
      const auto ckpt_groups = shuffled<int>({0, 16, 8, 4, 2, 1}, rng);
      const auto comm_groups = shuffled<int>({1, 2, 4, 8, 16, 8}, rng);
      const auto incremental = shuffled<int>({0, 0, 0, 1, 1, 1}, rng);
      const auto strata = shuffled<int>({0, 1, 2, 3, 4, 5}, rng);
      for (std::size_t k = 0; k < ckpt_groups.size(); ++k) {
        Point p;
        p.preset = harness::icpp07_cluster();
        const std::string a = app;
        const int comm = comm_groups[k];
        double runtime = 0;
        if (a == "microbench") {
          p.factory = comm_group_bench(comm, 150, 180.0);
          runtime = 15.0;
        } else if (a == "barrier") {
          workloads::BarrierBenchConfig cfg;
          cfg.comm_group_size = comm;
          cfg.barrier_period = 10 * sim::kSecond;
          cfg.iterations = 250;
          p.factory = [cfg](int n) {
            return std::make_unique<workloads::BarrierBench>(n, cfg);
          };
          runtime = 25.0;
        } else if (a == "hpl") {
          workloads::HplConfig cfg;
          cfg.n = 30000;
          runtime = workloads::HplSim(32, cfg).estimated_runtime_seconds();
          p.factory = [cfg](int n) {
            return std::make_unique<workloads::HplSim>(n, cfg);
          };
        } else if (a == "motifminer") {
          workloads::MotifMinerConfig cfg;
          cfg.iterations = 7;
          runtime = workloads::MotifMinerSim(32, cfg).estimated_runtime_seconds();
          p.factory = [cfg](int n) {
            return std::make_unique<workloads::MotifMinerSim>(n, cfg);
          };
        } else {
          workloads::StencilConfig cfg;
          cfg.iterations = 60;
          runtime = workloads::StencilSim(32, cfg).estimated_runtime_seconds();
          p.factory = [cfg](int n) {
            return std::make_unique<workloads::StencilSim>(n, cfg);
          };
        }
        p.cc.group_size = ckpt_groups[k];
        p.cc.incremental = incremental[k] == 1;
        const double issuance =
            runtime * (0.1 + 0.5 * (strata[k] + rng.uniform()) / 6);
        p.requests.push_back(
            harness::CkptRequest{sim::from_seconds(issuance), proto});
        if (p.cc.incremental) {
          // The second snapshot is the incremental one.
          p.requests.push_back(harness::CkptRequest{
              sim::from_seconds(issuance + runtime * 0.3), proto});
        }
        p.label = "paper-sweep app=" + a +
                  " protocol=" + ckpt::protocol_name(proto) +
                  " comm=" + std::to_string(comm) +
                  " ckpt_group=" + std::to_string(p.cc.group_size) +
                  " incremental=" + std::to_string(p.cc.incremental) +
                  " issuance=" + num(issuance);
        w.pass.push_back(std::move(p));
      }
    }
  }
  // Seeded run order: each app's points spread over the whole pass, so no
  // app's cost rests on one stretch of host time.
  w.pass = shuffled(std::move(w.pass), rng);
  return w;
}

/// failure-recovery: alternating FaultPlan replays (tier + partner replica
/// + RS(4,2) erasure; single, correlated in-parity-group, replica-pair and
/// repeated faults; both recovery styles) and Poisson-MTBF runs with
/// periodic checkpoints on the PFS.
Bench failure_recovery(std::uint64_t seed) {
  constexpr int kPoints = 120;
  sim::Rng rng(seed ^ 0xFA17ED0ULL);
  Bench w;
  w.name = "failure-recovery";
  for (int i = 0; i < kPoints; ++i) {
    Point p;
    p.preset = harness::icpp07_cluster();
    const int j = i / 2;  // index within the point's kind
    const int comm = (j / 8) % 2 == 0 ? 4 : 8;
    p.factory = comm_group_bench(comm, 150, 64.0);
    p.cc.group_size = 8;
    if (i % 2 == 0) {
      p.kind = Kind::kFaultPlan;
      p.preset.tier.enabled = true;
      p.preset.tier.drain_mbps = (j / 16) % 2 == 0 ? 0.0 : 50.0;
      p.preset.tier.replicate = true;
      p.preset.tier.erasure.enabled = true;
      p.preset.tier.erasure.k = 4;
      p.preset.tier.erasure.m = 2;
      p.preset.tier.erasure.codec = storage::ErasureCodec::kRs;
      for (double lo : {2.0, 6.0}) {
        p.requests.push_back(harness::CkptRequest{
            sim::from_seconds(rng.uniform(lo, lo + 2.0)),
            ckpt::Protocol::kGroupBased});
      }
      const int victim = static_cast<int>(rng.uniform_int(32));
      const sim::Time at = sim::from_seconds(rng.uniform(9.0, 13.0));
      const int shape = j % 4;
      std::vector<int> also;
      if (shape == 1) {
        // Correlated loss inside the victim's parity group (m = 2 chunks).
        sim::Engine eng;
        storage::ErasureTier placement(eng, p.preset.tier.erasure, 32,
                                       p.preset.tier.replica_offset);
        const auto group = placement.parity_group(victim);
        also.assign(group.begin(), group.begin() + 2);
      } else if (shape == 2) {
        also.push_back((victim + p.preset.tier.replica_offset) % 32);
      }
      p.plan.faults.push_back(harness::FaultEvent{at, victim, also});
      if (shape == 3) {
        p.plan.faults.push_back(harness::FaultEvent{
            sim::from_seconds(rng.uniform(2.0, 5.0)),
            static_cast<int>(rng.uniform_int(32))});
      }
      p.plan.style = (j / 4) % 2 == 0 ? harness::RecoveryStyle::kFullRestart
                                      : harness::RecoveryStyle::kJobPause;
      p.label = "failure-recovery faultplan shape=" + std::to_string(shape) +
                " victim=" + std::to_string(victim) +
                " style=" + std::to_string(static_cast<int>(p.plan.style));
    } else {
      p.kind = Kind::kMtbf;
      // Small images: a blocking checkpoint of the whole job through the
      // PFS stays well under the checkpoint interval.
      p.factory = comm_group_bench(comm, 150, 16.0);
      p.protocol = j % 2 == 0 ? ckpt::Protocol::kGroupBased
                              : ckpt::Protocol::kBlockingCoordinated;
      // Stratified over the pass, so every seed covers the same range.
      p.interval = sim::from_seconds(3.0 + 3.0 * ((j % 6) + rng.uniform()) / 6);
      p.failures.mtbf_seconds = 10.0 + 10.0 * ((j % 10) + rng.uniform()) / 10;
      p.failures.seed = rng.next_u64();
      p.label = "failure-recovery mtbf=" + num(p.failures.mtbf_seconds) +
                " protocol=" + ckpt::protocol_name(p.protocol) +
                " seed=" + std::to_string(p.failures.seed);
    }
    w.pass.push_back(std::move(p));
  }
  return w;
}

std::optional<Bench> make_bench(const std::string& name,
                                std::uint64_t seed) {
  if (name == "fullstack-serial") return fullstack(seed, 1, 1);
  if (name == "fullstack-sharded") return fullstack(seed, 4, 4);
  if (name == "paper-sweep") return paper_sweep(seed);
  if (name == "failure-recovery") return failure_recovery(seed);
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Per-layer accumulators, read from each cluster at quiescence.
// ---------------------------------------------------------------------------

struct Layers {
  // harness
  std::int64_t clusters = 0;  ///< SimClusters built (one per factory call)
  std::int64_t restart_attempts = 0;
  // sim
  std::uint64_t events = 0, rounds = 0, windows = 0, cross_events = 0;
  std::uint64_t bus_deliveries = 0, bus_svc = 0;
  double drive_cpu = 0, drive_thread_wall = 0;  ///< engine-driving calls
  // net
  std::int64_t packets = 0, bytes = 0, conn_setups = 0, conn_teardowns = 0;
  std::uint64_t flights_reused = 0;
  // mpi
  std::int64_t sends = 0, recvs = 0, base_sends = 0;
  std::int64_t msgs_buffered = 0, reqs_buffered = 0, peak_msg_buffer = 0;
  // ckpt
  std::int64_t cycles = 0, groups = 0;
  double overhead_host = 0;
  // storage
  std::int64_t pfs_flows = 0, pfs_bytes = 0, pfs_peak = 0;
  std::int64_t tier_drained = 0, tier_replicas = 0, ec_images = 0,
               ec_chunks = 0, write_throughs = 0, tier_snapshots = 0;
  std::int64_t restores_local = 0, restores_replica = 0, restores_erasure = 0,
               restores_pfs = 0, ckpts_skipped = 0;
};

/// Everything one phase (untraced or traced) accumulates.
struct Phase {
  SpanLog* spans = nullptr;  ///< null: untraced
  Layers layers;
  int point = -1;  ///< index of the experiment in flight
  HostProbe probe;  ///< timed after every point of the phase
};

struct RunOut {
  sim::Time completion = 0;
  std::vector<std::uint64_t> hashes;
  std::vector<std::uint64_t> iterations;
  std::vector<ckpt::GlobalCheckpoint> history;
  ckpt::GroupPlan planned;
  double setup_s = 0;
  double drive_s = 0;
};

/// The cycle windows of a checkpointed run: [requested_at, completed_at].
using Windows = std::vector<std::pair<sim::Time, sim::Time>>;

void read_counters(harness::SimCluster& cl, Layers& L, bool base) {
  sim::ShardedEngine& se = cl.sharded();
  L.events += se.total_events();
  L.rounds += se.rounds();
  L.windows += se.windows();
  L.cross_events += se.cross_events();
  L.bus_deliveries += cl.bus().delivered_total();
  L.bus_svc += cl.bus().delivered(cl.bus().svc_lp());
  net::Fabric& fab = cl.fabric();
  L.packets += fab.packets_sent();
  L.bytes += fab.bytes_sent();
  L.flights_reused += fab.flight_recs_reused();
  L.conn_setups += cl.connections().total_setups();
  L.conn_teardowns += cl.connections().total_teardowns();
  const mpi::MpiStats st = cl.mpi().stats();
  L.sends += st.sends;
  L.recvs += st.recvs;
  if (base) L.base_sends += st.sends;
  L.msgs_buffered += st.messages_buffered;
  L.reqs_buffered += st.requests_buffered;
  L.peak_msg_buffer = std::max<std::int64_t>(L.peak_msg_buffer,
                                             st.peak_message_buffer);
  storage::StorageSystem& fs = cl.shared_fs();
  L.pfs_flows += fs.completed_flows();
  L.pfs_bytes += fs.bytes_transferred();
  L.pfs_peak = std::max<std::int64_t>(L.pfs_peak, fs.peak_concurrency());
  for (const auto& gc : cl.checkpoints().history()) {
    ++L.cycles;
    L.groups += gc.plan.size();
  }
  if (storage::TieredStore* tier = cl.tier()) {
    L.tier_drained += tier->images_drained();
    L.tier_replicas += tier->replicas_made();
    L.ec_images += tier->images_encoded();
    L.ec_chunks += tier->ec_chunks_placed();
    L.write_throughs += tier->write_throughs();
    for (const auto& gc : cl.checkpoints().history()) {
      L.tier_snapshots += static_cast<std::int64_t>(gc.snapshots.size());
    }
  }
}

/// Drives one simulation of `pt` on a SimCluster built here, the way
/// harness::run_experiment does. With `windows` (traced runs), the engine is
/// advanced with run_until to each cycle's request and completion instants
/// so the host time inside checkpoint cycles gets its own span.
RunOut drive(const Point& pt, bool checkpointed, Phase& ph,
             const Windows* windows) {
  RunOut out;
  const double t0 = wall_now();
  std::optional<harness::SimCluster> cl;
  std::unique_ptr<workloads::Workload> wl;
  std::vector<sim::Time> done_at(static_cast<std::size_t>(pt.preset.nranks), 0);
  {
    Scope s(ph.spans, "harness.setup", ph.point);
    cl.emplace(pt.preset, pt.cc);
    wl = pt.factory(pt.preset.nranks);
    wl->setup(cl->mpi());
    wl->attach(cl->checkpoints());
    if (checkpointed) {
      for (const auto& req : pt.requests) {
        cl->checkpoints().request_at(req.at, req.protocol);
      }
    }
    workloads::Workload* w = wl.get();
    cl->spawn_ranks([&](mpi::RankCtx& rank) {
      return [](workloads::Workload* wk, mpi::RankCtx* rk,
                sim::Time* done) -> sim::Task<void> {
        co_await wk->run_rank(*rk, {});
        *done = rk->engine().now();
      }(w, &rank, &done_at[static_cast<std::size_t>(rank.world_rank())]);
    });
  }
  out.setup_s = wall_now() - t0;
  ++ph.layers.clusters;
  if (checkpointed) {
    Scope s(ph.spans, "ckpt.plan", ph.point);
    out.planned = cl->checkpoints().plan_groups();
  }

  const double d0 = wall_now();
  const double c0 = ph.spans ? cpu_now() : 0.0;
  if (!checkpointed) {
    Scope s(ph.spans, "mpi.app", ph.point);
    cl->run();
  } else if (windows == nullptr) {
    Scope s(ph.spans, "sim.run", ph.point);
    cl->run();
  } else {
    sim::Time reached = 0;
    for (const auto& [from, to] : *windows) {
      if (from > reached) {
        Scope s(ph.spans, "sim.run", ph.point);
        cl->run_until(from);
        reached = from;
      }
      if (to > reached) {
        Scope s(ph.spans, "ckpt.window", ph.point);
        cl->run_until(to);
        reached = to;
      }
    }
    Scope s(ph.spans, "sim.run", ph.point);
    cl->run();
  }
  out.drive_s = wall_now() - d0;
  if (ph.spans) {
    ph.layers.drive_cpu += cpu_now() - c0;
    ph.layers.drive_thread_wall +=
        out.drive_s * std::clamp(pt.preset.threads, 1, pt.preset.shards);
  }

  for (sim::Time t : done_at) out.completion = std::max(out.completion, t);
  for (int r = 0; r < pt.preset.nranks; ++r) {
    out.hashes.push_back(wl->state(r).hash);
    out.iterations.push_back(wl->state(r).iteration);
  }
  out.history = cl->checkpoints().history();
  read_counters(*cl, ph.layers, !checkpointed);
  return out;
}

/// Order-sensitive FNV-1a digest of everything a point simulated.
struct Digest {
  std::uint64_t v = 1469598103934665603ull;
  void add(std::uint64_t x) {
    v ^= x;
    v *= 1099511628211ull;
  }
  void add(const std::vector<std::uint64_t>& xs) {
    for (std::uint64_t x : xs) add(x);
  }
};

struct PointOut {
  bool ok = true;
  std::string why;
  std::uint64_t digest = 0;
  Windows windows;
  double wall_s = 0;
  double cpu_s = 0;
  double setup_s = 0;
  double slowdown = 1;  ///< HostProbe::sample right after the point
};

struct Checker {
  PointOut& out;
  void expect(bool cond, const std::string& what) {
    if (!cond && out.ok) {
      out.ok = false;
      out.why = what;
    }
  }
};

/// The point's workload factory, counting the clusters the harness's
/// recovery loops build (each builds one per factory call).
harness::WorkloadFactory counted_factory(const Point& pt, Layers& L) {
  return [&pt, &L](int n) {
    ++L.clusters;
    return pt.factory(n);
  };
}

/// Runs one experiment end to end and checks its outputs. `corrupt` flips
/// one bit of the clean run's hashes before they are compared (self-test).
PointOut run_point(const Point& pt, Phase& ph, bool corrupt,
                   const Windows* windows) {
  PointOut out;
  Checker check{out};
  Scope point_span(ph.spans, "point", ph.point);
  RunOut base = drive(pt, false, ph, nullptr);
  if (corrupt && !base.hashes.empty()) base.hashes[0] ^= 1;
  out.setup_s += base.setup_s;
  Digest d;
  d.add(static_cast<std::uint64_t>(base.completion));
  d.add(base.hashes);

  if (pt.kind == Kind::kMtbf) {
    harness::MtbfRunResult m;
    {
      Scope s(ph.spans, "harness.restart", ph.point);
      m = harness::run_with_poisson_failures(
          pt.preset, counted_factory(pt, ph.layers), pt.cc, pt.protocol,
          pt.interval, pt.failures);
    }
    ph.layers.restart_attempts += m.failures;
    check.expect(m.final_hashes == base.hashes,
                 "MTBF run's final hashes differ from the clean run");
    check.expect(m.final_iterations == base.iterations,
                 "MTBF run's final iterations differ from the clean run");
    d.add(static_cast<std::uint64_t>(m.failures));
    d.add(static_cast<std::uint64_t>(m.checkpoints_completed));
    d.add(static_cast<std::uint64_t>(m.total_seconds * 1e9));
    d.add(m.final_hashes);
    out.digest = d.v;
    return out;
  }

  RunOut ck = drive(pt, true, ph, windows);
  out.setup_s += ck.setup_s;
  if (ph.spans) ph.layers.overhead_host += ck.drive_s - base.drive_s;
  check.expect(ck.hashes == base.hashes,
               "checkpointed run's final hashes differ from the clean run");
  check.expect(ck.iterations == base.iterations,
               "checkpointed run's final iterations differ from the clean run");
  check.expect(ck.history.size() == pt.requests.size(),
               "not every requested checkpoint completed");
  d.add(static_cast<std::uint64_t>(ck.completion));
  d.add(ck.hashes);
  for (const auto& gc : ck.history) {
    check.expect(gc.completed_at >= gc.requested_at,
                 "checkpoint completed before it was requested");
    d.add(static_cast<std::uint64_t>(gc.requested_at));
    d.add(static_cast<std::uint64_t>(gc.completed_at));
    d.add(static_cast<std::uint64_t>(gc.max_individual_time()));
    out.windows.emplace_back(gc.requested_at, gc.completed_at);
  }
  if (ck.history.size() == 1 && coordinated(pt.requests.front().protocol)) {
    // The paper's ordering: Individual <= Effective <= Total. A rank that
    // was already blocked on a message when frozen loses a few control hops
    // less than its downtime, so Individual may exceed Effective by that
    // much (tens of microseconds against checkpoints of seconds).
    constexpr sim::Time kSlack = sim::kMillisecond;
    const auto& gc = ck.history.front();
    const sim::Time effective = ck.completion - base.completion;
    const std::string times =
        " (individual " + num(sim::to_seconds(gc.max_individual_time())) +
        " s, effective " + num(sim::to_seconds(effective)) + " s, total " +
        num(sim::to_seconds(gc.total_checkpoint_time())) + " s)";
    check.expect(gc.max_individual_time() <= effective + kSlack,
                 "Individual Checkpoint Time exceeds the Effective Delay" +
                     times);
    check.expect(effective <= gc.total_checkpoint_time(),
                 "Effective Delay exceeds the Total Checkpoint Time" + times);
  }
  if (!ck.history.empty() &&
      ck.history.front().protocol == ckpt::Protocol::kGroupBased) {
    check.expect(ck.history.front().plan.groups == ck.planned.groups,
                 "cycle used a different group plan than plan_groups()");
  }

  if (pt.kind == Kind::kFaultPlan) {
    harness::RecoveryResult rec;
    {
      Scope s(ph.spans, "harness.restart", ph.point);
      rec = harness::run_with_faults(pt.preset, counted_factory(pt, ph.layers),
                                     pt.cc, pt.requests, pt.plan);
    }
    Layers& L = ph.layers;
    L.restart_attempts += rec.failures;
    L.restores_local += rec.ranks_restored_local;
    L.restores_replica += rec.ranks_restored_replica;
    L.restores_erasure += rec.ranks_restored_erasure;
    L.restores_pfs += rec.ranks_restored_pfs;
    L.ckpts_skipped += rec.checkpoints_skipped;
    // Every fault here stays within the tier's redundancy, so each one is
    // recovered from a checkpoint without the PFS: a full restart reloads
    // every rank, a job pause the failed rank only. A fault that also kills
    // the victim's replica partner leaves erasure decoding as its source.
    int want_restores = 0;
    bool partner_lost = false;
    for (const harness::FaultEvent& f : pt.plan.faults) {
      want_restores += pt.plan.style == harness::RecoveryStyle::kFullRestart
                           ? pt.preset.nranks
                           : 1;
      const int partner =
          (f.rank + pt.preset.tier.replica_offset) % pt.preset.nranks;
      partner_lost = partner_lost ||
                     std::count(f.also_ranks.begin(), f.also_ranks.end(),
                                partner) > 0;
    }
    const int restores = rec.ranks_restored_local + rec.ranks_restored_replica +
                         rec.ranks_restored_erasure + rec.ranks_restored_pfs;
    check.expect(rec.used_checkpoint && restores == want_restores,
                 "FaultPlan replay restored " + std::to_string(restores) +
                     " ranks from checkpoints, expected " +
                     std::to_string(want_restores));
    check.expect(rec.ranks_restored_pfs == 0,
                 "an in-budget fault fell back to the PFS");
    check.expect(!partner_lost || rec.ranks_restored_erasure > 0,
                 "lost replica pair recovered without erasure decoding");
    check.expect(rec.final_hashes == base.hashes,
                 "recovered final hashes differ from the clean run");
    check.expect(rec.final_iterations == base.iterations,
                 "recovered final iterations differ from the clean run");
    d.add(static_cast<std::uint64_t>(rec.total_seconds * 1e9));
    d.add(static_cast<std::uint64_t>(rec.rollback_iteration));
    d.add(static_cast<std::uint64_t>(rec.ranks_restored_erasure));
    d.add(rec.final_hashes);
  }
  out.digest = d.v;
  return out;
}

/// Wraps run_point with host timing and exception capture.
PointOut timed_point(const Point& pt, Phase& ph, bool corrupt,
                     const Windows* windows) {
  const double w0 = wall_now();
  const double c0 = cpu_now();
  PointOut out;
  try {
    out = run_point(pt, ph, corrupt, windows);
  } catch (const std::exception& e) {
    out.ok = false;
    out.why = std::string("exception: ") + e.what();
  }
  out.wall_s = wall_now() - w0;
  out.cpu_s = cpu_now() - c0;
  return out;
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile (q in [0,1]) of a non-empty sample.
double quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  std::size_t max_points = 0;
  bool corrupt_check = false;
};

[[noreturn]] void usage(const std::string& err) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "{fullstack-serial|fullstack-sharded|paper-sweep|"
               "failure-recovery} --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--git-sha SHA] [--source-digest HEX] "
               "[--max-points N] [--corrupt-check]\n",
               err.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--corrupt-check") {
      o.corrupt_check = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        o.trace = std::stoi(v);
      } else if (a == "--trace-out") {
        o.trace_out = v;
      } else if (a == "--git-sha") {
        o.git_sha = v;
      } else if (a == "--source-digest") {
        o.source_digest = v;
      } else if (a == "--max-points") {
        o.max_points = std::stoul(v);
      } else {
        usage("unknown flag " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be > 0");
  if (o.trace != 0 && o.trace != 1) usage("--trace must be 0 or 1");
  return o;
}

struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  void add(const PointOut& p, const std::string& label) {
    ++attempted;
    if (!p.ok) {
      ++failed;
      std::fprintf(stderr, "FAILED %s: %s\n", label.c_str(), p.why.c_str());
    }
  }
};

/// One measured phase: whole passes over the workload until `seconds` of
/// wall time have elapsed (at least one pass), or — when replaying — exactly
/// the passes of the phase being replayed.
struct PhaseResult {
  std::size_t passes = 0;
  std::vector<PointOut> points;  ///< pass-major: points[pass * P + i]
  double wall = 0;
};

/// Each pass point's median `field` across passes: its cost with
/// host-noise bursts filtered out.
std::vector<double> point_medians(const PhaseResult& r, std::size_t per_pass,
                                  double PointOut::*field) {
  std::vector<double> medians;
  for (std::size_t i = 0; i < per_pass; ++i) {
    std::vector<double> xs;
    for (std::size_t k = i; k < r.points.size(); k += per_pass) {
      xs.push_back(r.points[k].*field);
    }
    medians.push_back(quantile(xs, 0.5));
  }
  return medians;
}

/// The points with their host times scaled to the reference host: each
/// divided by its pass's median host slowdown. A host that runs everything
/// k times slower for minutes leaves these unchanged.
PhaseResult normalised(PhaseResult r, std::size_t per_pass) {
  for (std::size_t k = 0; k < r.points.size(); k += per_pass) {
    std::vector<double> slowdowns;
    for (std::size_t i = k; i < k + per_pass; ++i) {
      slowdowns.push_back(r.points[i].slowdown);
    }
    const double scale = 1.0 / quantile(slowdowns, 0.5);
    for (std::size_t i = k; i < k + per_pass; ++i) {
      r.points[i].wall_s *= scale;
      r.points[i].cpu_s *= scale;
      r.points[i].setup_s *= scale;
    }
  }
  return r;
}

/// Median host slowdown over a phase's points.
double slowdown_median(const PhaseResult& r) {
  std::vector<double> xs;
  for (const PointOut& p : r.points) xs.push_back(p.slowdown);
  return quantile(xs, 0.5);
}

double sum(const std::vector<double>& xs) {
  double s = 0;
  for (double x : xs) s += x;
  return s;
}

/// Digests the runs of each pass point must reproduce (`std::nullopt`: not
/// known yet). The first run of a point that passes its own checks sets
/// its entry; a sharded workload fills every entry from serial runs first.
using References = std::vector<std::optional<std::uint64_t>>;

/// Runs whole passes until `seconds` of wall time have elapsed (at least
/// one pass), or, when replaying, exactly the passes of the replayed phase,
/// whose digests each traced run must then reproduce.
PhaseResult run_phase(const Bench& w, Phase& ph, double seconds,
                      const PhaseResult* replay, References& refs,
                      Tally& tally, bool corrupt) {
  PhaseResult r;
  const double start = wall_now();
  for (std::size_t pass = 0;; ++pass) {
    if (replay ? pass == replay->passes
               : pass > 0 && wall_now() - start >= seconds) {
      break;
    }
    for (std::size_t i = 0; i < w.pass.size(); ++i) {
      const std::size_t idx = r.points.size();
      ph.point = static_cast<int>(idx);
      const Windows* windows =
          replay ? &replay->points[idx].windows : nullptr;
      PointOut p = timed_point(w.pass[i], ph, corrupt && idx == 0, windows);
      p.slowdown = ph.probe.sample(p.wall_s, w.pass[i].preset.threads);
      std::optional<std::uint64_t> want = refs[i];
      if (replay) {
        const PointOut& untraced = replay->points[idx];
        want = untraced.ok ? std::optional(untraced.digest) : std::nullopt;
      }
      if (p.ok && want && p.digest != *want) {
        p.ok = false;
        p.why = replay ? "traced run simulated different outputs than the "
                         "untraced run"
                       : "run simulated different outputs than the reference "
                         "run of the same experiment";
      }
      if (p.ok && !refs[i]) refs[i] = p.digest;
      tally.add(p, w.pass[i].label);
      r.points.push_back(std::move(p));
    }
    ++r.passes;
  }
  ph.point = -1;
  r.wall = wall_now() - start;
  return r;
}

bool write_trace(const std::string& path, const SpanLog& log) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const auto& spans = log.spans();
  const auto self = log.self_times();
  const double origin = spans.empty() ? 0.0 : spans.front().t0;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%s,\"dur\":%s,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"point\":%d,\"self_us\":%s}}\n",
                 i ? "," : "", quoted(s.name).c_str(),
                 num((s.t0 - origin) * 1e6).c_str(),
                 num((s.t1 - s.t0) * 1e6).c_str(), i, s.parent, s.point,
                 num(self[i] * 1e6).c_str());
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(const Tally& t, const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += t.failed == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(t.attempted);
  s += ", \"failed\": " + std::to_string(t.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    s += (i ? ", " : "") + quoted(metrics[i].name) + ": {\"value\": " +
         num(metrics[i].value) + ", \"unit\": " + quoted(metrics[i].unit) +
         "}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

std::vector<Metric> layer_metrics(const Layers& L, const SpanLog& log,
                                  double setup_rss, double warmup_s,
                                  double overhead_frac, double host_wall_s,
                                  double slowdown) {
  const double run_s =
      log.total("mpi.app") + log.total("sim.run") + log.total("ckpt.window");
  const double app_s = log.total("mpi.app");
  return {
      {"harness.setup_s", log.total("harness.setup"), "s"},
      {"harness.clusters", static_cast<double>(L.clusters), "count"},
      {"harness.setup_rss_mib", setup_rss, "MiB"},
      {"harness.warmup_s", warmup_s, "s"},
      {"harness.restart_attempts", static_cast<double>(L.restart_attempts),
       "count"},
      {"harness.restart_host_s", log.total("harness.restart"), "s"},
      {"sim.events", static_cast<double>(L.events), "count"},
      {"sim.run_s", run_s, "s"},
      {"sim.events_per_s", ratio(static_cast<double>(L.events), run_s), "1/s"},
      {"sim.rounds", static_cast<double>(L.rounds), "count"},
      {"sim.windows", static_cast<double>(L.windows), "count"},
      {"sim.window_ratio", ratio(static_cast<double>(L.windows),
                                 static_cast<double>(L.rounds)), "ratio"},
      {"sim.cross_events", static_cast<double>(L.cross_events), "count"},
      {"sim.cross_ratio", ratio(static_cast<double>(L.cross_events),
                                static_cast<double>(L.events)), "ratio"},
      {"sim.bus_deliveries", static_cast<double>(L.bus_deliveries), "count"},
      {"sim.svc_share", ratio(static_cast<double>(L.bus_svc),
                              static_cast<double>(L.bus_deliveries)), "ratio"},
      {"sim.idle_frac", 1.0 - ratio(L.drive_cpu, L.drive_thread_wall),
       "ratio"},
      {"net.packets", static_cast<double>(L.packets), "count"},
      {"net.bytes", static_cast<double>(L.bytes), "B"},
      {"net.conn_setups", static_cast<double>(L.conn_setups), "count"},
      {"net.conn_teardowns", static_cast<double>(L.conn_teardowns), "count"},
      {"net.flight_reuse_ratio", ratio(static_cast<double>(L.flights_reused),
                                       static_cast<double>(L.packets)), "ratio"},
      {"mpi.sends", static_cast<double>(L.sends), "count"},
      {"mpi.recvs", static_cast<double>(L.recvs), "count"},
      {"mpi.app_host_s", app_s, "s"},
      {"mpi.host_ns_per_msg",
       ratio(app_s * 1e9, static_cast<double>(L.base_sends)), "ns"},
      {"mpi.msgs_buffered", static_cast<double>(L.msgs_buffered), "count"},
      {"mpi.reqs_buffered", static_cast<double>(L.reqs_buffered), "count"},
      {"mpi.peak_msg_buffer_bytes", static_cast<double>(L.peak_msg_buffer),
       "B"},
      {"ckpt.cycles", static_cast<double>(L.cycles), "count"},
      {"ckpt.groups", static_cast<double>(L.groups), "count"},
      {"ckpt.plan_s", log.total("ckpt.plan"), "s"},
      {"ckpt.window_host_s", log.total("ckpt.window"), "s"},
      {"ckpt.overhead_host_s", L.overhead_host, "s"},
      {"storage.pfs_flows", static_cast<double>(L.pfs_flows), "count"},
      {"storage.pfs_bytes", static_cast<double>(L.pfs_bytes), "B"},
      {"storage.pfs_peak_concurrency", static_cast<double>(L.pfs_peak),
       "count"},
      {"storage.tier_drained", static_cast<double>(L.tier_drained), "count"},
      {"storage.tier_replicas", static_cast<double>(L.tier_replicas), "count"},
      {"storage.ec_images", static_cast<double>(L.ec_images), "count"},
      {"storage.ec_chunks", static_cast<double>(L.ec_chunks), "count"},
      {"storage.write_through_ratio",
       ratio(static_cast<double>(L.write_throughs),
             static_cast<double>(L.tier_snapshots)), "ratio"},
      {"storage.restores_local", static_cast<double>(L.restores_local),
       "count"},
      {"storage.restores_replica", static_cast<double>(L.restores_replica),
       "count"},
      {"storage.restores_erasure", static_cast<double>(L.restores_erasure),
       "count"},
      {"storage.restores_pfs", static_cast<double>(L.restores_pfs), "count"},
      {"storage.ckpts_skipped", static_cast<double>(L.ckpts_skipped), "count"},
      {"host.wall_s", host_wall_s, "s"},
      {"host.slowdown", slowdown, "ratio"},
      {"trace.overhead_frac", overhead_frac, "ratio"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  std::optional<Bench> bench = make_bench(opt.workload, opt.seed);
  if (!bench) usage("unknown workload " + opt.workload);
  if (opt.max_points > 0 && bench->pass.size() > opt.max_points) {
    bench->pass.resize(opt.max_points);
  }

  const harness::ClusterPreset& layout = bench->pass.front().preset;
  std::printf(
      "{\"provenance\": {\"workload\": %s, \"seed\": %llu, \"host_cpus\": %d, "
      "\"shards\": %d, \"threads\": %d, \"build_type\": %s, \"git_sha\": %s, "
      "\"source_sha256\": %s, \"points_per_pass\": %zu}}\n",
      quoted(bench->name).c_str(), static_cast<unsigned long long>(opt.seed),
      host_cpus(), layout.shards, layout.threads,
      quoted(GBC_PERFBENCH_BUILD_TYPE).c_str(), quoted(opt.git_sha).c_str(),
      quoted(opt.source_digest).c_str(), bench->pass.size());

  Tally tally;

  // Warm-up: one untimed run of the first experiment, so allocator arenas,
  // page mappings and worker threads exist before the measured phase. Its
  // time is reported on its own (harness.warmup_s), never in setup_s.
  const double rss0 = rss_mib();
  const double wu0 = wall_now();
  Phase warm;
  PointOut warmup = timed_point(bench->pass.front(), warm, false, nullptr);
  const double warmup_s = wall_now() - wu0;
  const double setup_rss = std::max(0.0, rss_mib() - rss0);

  References refs(bench->pass.size());
  if (layout.shards > 1) {
    // Every pass point once on one shard: each sharded run must reproduce
    // its serial digest exactly.
    for (std::size_t i = 0; i < bench->pass.size(); ++i) {
      Point serial = bench->pass[i];
      serial.preset.shards = 1;
      serial.preset.threads = 1;
      const PointOut s = timed_point(serial, warm, false, nullptr);
      if (s.ok) refs[i] = s.digest;
      tally.add(s, "serial reference " + serial.label);
    }
  }
  if (warmup.ok && refs[0] && warmup.digest != *refs[0]) {
    warmup.ok = false;
    warmup.why = "sharded digest differs from the serial run's";
  }
  if (warmup.ok && !refs[0]) refs[0] = warmup.digest;
  tally.add(warmup, "warm-up " + bench->pass.front().label);

  // Phase 1, untraced: the end-to-end numbers.
  Phase plain;
  const double budget = opt.trace == 1 ? opt.seconds / 2 : opt.seconds;
  PhaseResult untraced = run_phase(*bench, plain, budget, nullptr, refs, tally,
                                   opt.corrupt_check);

  const std::size_t P = bench->pass.size();
  if (opt.trace == 0) {
    const PhaseResult norm = normalised(untraced, P);
    const std::vector<double> walls = point_medians(norm, P, &PointOut::wall_s);
    const std::vector<double> raw =
        point_medians(untraced, P, &PointOut::wall_s);
    std::fprintf(stderr,
                 "%s: %zu passes, %zu points, warmup %.3f s, raw wall %.4f s, "
                 "host slowdown %.4f, failed_frac %g (%lld/%lld)\n",
                 bench->name.c_str(), untraced.passes,
                 untraced.points.size(), warmup_s, sum(raw),
                 slowdown_median(untraced),
                 ratio(static_cast<double>(tally.failed),
                       static_cast<double>(tally.attempted)),
                 static_cast<long long>(tally.failed),
                 static_cast<long long>(tally.attempted));
    print_result(
        tally,
        {
            {"wall_s", sum(walls), "s"},
            {"cpu_s", sum(point_medians(norm, P, &PointOut::cpu_s)), "s"},
            {"setup_s", sum(point_medians(norm, P, &PointOut::setup_s)), "s"},
            {"point_p50_s", quantile(walls, 0.5), "s"},
            {"point_p90_s", quantile(walls, 0.9), "s"},
            {"peak_rss_mib", peak_rss_mib(), "MiB"},
        });
    return 0;
  }

  // Phase 2, traced: the same passes again, with spans and cycle windows.
  SpanLog log;
  Phase traced;
  traced.spans = &log;
  PhaseResult tr;
  {
    Scope root(&log, "workload", -1);
    tr = run_phase(*bench, traced, 0.0, &untraced, refs, tally, false);
  }
  const double overhead = ratio(tr.wall, untraced.wall) - 1.0;
  if (!opt.trace_out.empty() && !write_trace(opt.trace_out, log)) {
    std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "%s traced: %zu points, untraced %.3f s, traced %.3f s, "
               "failed_frac %g\n",
               bench->name.c_str(), tr.points.size(), untraced.wall, tr.wall,
               ratio(static_cast<double>(tally.failed),
                     static_cast<double>(tally.attempted)));
  print_result(
      tally,
      layer_metrics(traced.layers, log, setup_rss, warmup_s, overhead,
                    sum(point_medians(untraced, P, &PointOut::wall_s)),
                    slowdown_median(untraced)));
  return 0;
}
