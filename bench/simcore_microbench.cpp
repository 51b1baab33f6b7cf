// google-benchmark micro-benchmarks of the simulator substrate itself:
// event-queue throughput, coroutine task chaining, storage processor-sharing
// re-rating, MPI p2p and collective message handling, and full checkpoint
// cycles. These guard the simulator's performance so the figure sweeps
// (hundreds of simulated runs) stay fast.
#include <benchmark/benchmark.h>

#include <memory>

#include "ckpt/checkpoint.hpp"
#include "harness/preset.hpp"
#include "harness/sweep.hpp"
#include "mpi/minimpi.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/lp_bus.hpp"
#include "sim/shard_engine.hpp"
#include "storage/storage.hpp"
#include "workloads/microbench.hpp"

namespace {

using namespace gbc;

// Fabric + MiniMPI on a single-shard LP topology, wired the way
// harness::SimCluster wires the full stack with one shard.
struct MpiStack {
  explicit MpiStack(int n)
      : eng(sharded.shard(0)),
        bus(sharded, n, net::NetConfig{}.floor_hop()),
        fabric({}, n, bus),
        mpi(eng, fabric, {}) {}
  ~MpiStack() { bus.clear(); }
  MpiStack(const MpiStack&) = delete;
  MpiStack& operator=(const MpiStack&) = delete;

  sim::ShardedEngine sharded{sim::ShardedEngine::Options{}};
  sim::Engine& eng;
  sim::LpBus bus;
  net::Fabric fabric;
  mpi::MiniMPI mpi;
};

void BM_EngineScheduleDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      eng.schedule_at(i, [&fired] { ++fired; });
    }
    eng.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineScheduleDispatch);

// Far-future scheduling: timestamps doubling from 1 ns up to 2^52 ns, so
// the event heap holds times spread over many orders of magnitude rather
// than the dense one-per-nanosecond band the other benchmarks schedule.
void BM_ScheduleFar(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    int fired = 0;
    sim::Time t = 1;
    for (int i = 0; i < 1000; ++i) {
      eng.schedule_at(t, [&fired] { ++fired; });
      t = t * 2 > t + 1 ? t * 2 : t + 1;
      if (t > (sim::Time{1} << 52)) t = 1 + fired;
    }
    eng.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ScheduleFar);

sim::Task<void> chained_sleeper(sim::Engine& eng, int hops) {
  for (int i = 0; i < hops; ++i) co_await eng.delay(1);
}

void BM_CoroutineDelayChain(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    eng.spawn(chained_sleeper(eng, 1000));
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CoroutineDelayChain);

// Events/sec through the dispatch loop with the wake-shaped callback (a
// captured shared_ptr): the exact allocation pattern the InlineFn
// small-buffer optimization targets. Tracked via events_processed().
void BM_EventThroughput(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Engine eng;
    auto token = std::make_shared<std::uint64_t>(0);
    for (int i = 0; i < 1000; ++i) {
      eng.schedule_at(i, [token] { ++*token; });
    }
    eng.run();
    benchmark::DoNotOptimize(*token);
    events += eng.events_processed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["sim_events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventThroughput);

void BM_StorageRebalance(benchmark::State& state) {
  const int writers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    storage::StorageSystem fs(eng, storage::StorageConfig{});
    for (int i = 0; i < writers; ++i) {
      // Staggered arrivals force a re-rate per arrival and per completion.
      eng.schedule_at(i * sim::kMillisecond, [&fs, &eng, i] {
        eng.spawn([](storage::StorageSystem& s,
                     storage::Bytes b) -> sim::Task<void> {
          co_await s.write(b);
        }(fs, storage::mib(1) + i));
      });
    }
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * writers);
}
BENCHMARK(BM_StorageRebalance)->Arg(8)->Arg(64);

void BM_MpiPingPong(benchmark::State& state) {
  const int msgs = 200;
  for (auto _ : state) {
    MpiStack s(2);
    for (int r = 0; r < 2; ++r) {
      s.eng.spawn([](mpi::MiniMPI& m, int me, int n) -> sim::Task<void> {
        auto& rk = m.rank(me);
        const mpi::Comm& wc = m.world();
        for (int i = 0; i < n; ++i) {
          if (me == 0) {
            co_await rk.send(wc, 1, 0, 4096);
            co_await rk.recv(wc, 1, 1);
          } else {
            co_await rk.recv(wc, 0, 0);
            co_await rk.send(wc, 0, 1, 4096);
          }
        }
      }(s.mpi, r, msgs));
    }
    s.eng.run();
  }
  state.SetItemsProcessed(state.iterations() * msgs * 2);
}
BENCHMARK(BM_MpiPingPong);

// Per-message allocation churn in isolation, as the MPI layer pays it: the
// envelope copied into a by-value wire body (RankCtx::to_packet) plus one
// make_shared request record (RankCtx::make_request). The wire body is
// inline storage, so the request record is the one heap allocation per
// message and this times the global allocator. The BENCH_pr*.json
// snapshots timed an arena-recycled record instead and do not compare.
void BM_MsgAlloc(benchmark::State& state) {
  sim::Engine eng;
  mpi::Envelope env{0, 0, 1, 0, 4096, nullptr, 0};
  benchmark::DoNotOptimize(env);  // opaque input: no constant folding
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      net::WireBody body = net::WireBody::make<mpi::Envelope>(env);
      auto req = std::make_shared<mpi::ReqState>(eng);
      req->is_recv = false;
      benchmark::DoNotOptimize(body.get<mpi::Envelope>().id);
      benchmark::DoNotOptimize(req->done);
    }
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MsgAlloc);

void BM_Allreduce(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    MpiStack s(n);
    for (int r = 0; r < n; ++r) {
      s.eng.spawn([](mpi::MiniMPI& m, int me) -> sim::Task<void> {
        auto& rk = m.rank(me);
        for (int i = 0; i < 10; ++i) {
          (void)co_await rk.allreduce(m.world(), mpi::Op::kSum,
                                      mpi::vec(1.0));
        }
      }(s.mpi, r));
    }
    s.eng.run();
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_Allreduce)->Arg(8)->Arg(32);

void BM_GroupCheckpointCycle(benchmark::State& state) {
  const int group = static_cast<int>(state.range(0));
  for (auto _ : state) {
    MpiStack s(32);
    storage::StorageSystem fs(s.eng, storage::StorageConfig{});
    ckpt::CkptConfig cc;
    cc.group_size = group;
    ckpt::CheckpointService svc(s.mpi, fs, cc);
    svc.set_footprint_provider([](int) { return storage::mib(16); });
    svc.request_at(0, ckpt::Protocol::kGroupBased);
    s.eng.run();
    benchmark::DoNotOptimize(svc.history().size());
  }
}
BENCHMARK(BM_GroupCheckpointCycle)->Arg(0)->Arg(8)->Arg(1);

// Wall-clock scaling of a sweep of independent simulations across the
// SweepRunner pool; Arg = thread count. The per-thread work is fixed-shape
// (16 identical micro-runs), so ideal scaling halves the time per doubling.
// Registered last on purpose: spawning the pool's worker threads permanently
// switches glibc malloc off its single-threaded fast path for the rest of
// the process, which would depress every allocation-heavy single-threaded
// benchmark running after it.
void BM_SweepRunnerScaling(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  harness::SweepRunner runner(threads);
  harness::ClusterPreset preset = harness::icpp07_cluster();
  preset.nranks = 8;
  workloads::CommGroupBenchConfig cfg;
  cfg.comm_group_size = 4;
  cfg.compute_per_iter = 100 * sim::kMillisecond;
  cfg.iterations = 40;
  cfg.footprint_mib = 32.0;
  harness::WorkloadFactory factory = [cfg](int n) {
    return std::make_unique<workloads::CommGroupBench>(n, cfg);
  };
  std::vector<harness::ExperimentPoint> pts(16);
  for (auto& p : pts) {
    p.preset = preset;
    p.factory = factory;
  }
  std::uint64_t events = 0;
  for (auto _ : state) {
    harness::SweepStats stats;
    auto runs = harness::run_experiments(runner, pts, &stats);
    benchmark::DoNotOptimize(runs.front().completion);
    events += stats.total_events();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pts.size()));
  state.counters["sim_events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SweepRunnerScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
