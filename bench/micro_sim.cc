// Micro-benchmarks for the simulation engine: event throughput, coroutine
// switch cost, fair-share recomputation — bounds on experiment wall time.
#include <benchmark/benchmark.h>

#include "net/rpc.h"
#include "sim/flow.h"
#include "sim/simulation.h"
#include "sim/sync.h"

namespace {

using namespace evostore;
using sim::CoTask;
using sim::Simulation;

void BM_EventLoopCallbacks(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_callback(static_cast<double>(i), [&sink] { ++sink; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventLoopCallbacks);

CoTask<void> yielder(Simulation& sim, int n) {
  for (int i = 0; i < n; ++i) co_await sim.yield();
}

void BM_CoroutineYield(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    sim.run_until_complete(yielder(sim, 1000));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CoroutineYield);

CoTask<void> chain_spawn(Simulation& sim, int depth) {
  if (depth == 0) co_return;
  co_await sim.spawn(chain_spawn(sim, depth - 1));
}

void BM_SpawnJoin(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    sim.run_until_complete(chain_spawn(sim, 500));
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_SpawnJoin);

void BM_FairShareChurn(benchmark::State& state) {
  // N overlapping flows on one port: each add/finish triggers recomputation.
  int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulation sim;
    sim::FlowScheduler fs(sim);
    auto port = fs.add_port(1e9);
    std::vector<sim::Future<void>> futures;
    for (int i = 0; i < flows; ++i) {
      std::vector<sim::PortId> path{port};
      futures.push_back(
          sim.spawn(fs.transfer(std::move(path), 1000.0 * (i + 1))));
    }
    sim.run();
    benchmark::DoNotOptimize(futures.size());
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FairShareChurn)->Arg(16)->Arg(128)->Arg(512);

void BM_RpcRoundTrip(benchmark::State& state) {
  Simulation sim;
  net::Fabric fabric(sim);
  net::RpcSystem rpc(fabric);
  auto a = fabric.add_node(25e9, 25e9);
  auto b = fabric.add_node(25e9, 25e9);
  rpc.register_handler(b, "echo", [](common::Bytes req) -> CoTask<common::Bytes> {
    co_return req;
  });
  auto do_call = [&]() -> CoTask<void> {
    auto r = co_await rpc.call(a, b, "echo", common::Bytes(64));
    benchmark::DoNotOptimize(r.ok());
  };
  for (auto _ : state) {
    sim.run_until_complete(do_call());
  }
}
BENCHMARK(BM_RpcRoundTrip);

// Sequential round trips with a 1 s deadline each. Every call cancels its
// deadline timer, which stays queued until its simulated second passes, so
// up to range(0) timers are pending while the loop runs: the cost of
// cancelling one must not grow with them.
void BM_RpcRoundTripDeadlinesPending(benchmark::State& state) {
  const int64_t calls = state.range(0);
  for (auto _ : state) {
    Simulation sim;
    net::Fabric fabric(sim);
    net::RpcSystem rpc(fabric);
    rpc.set_default_timeout(1.0);
    auto a = fabric.add_node(25e9, 25e9);
    auto b = fabric.add_node(25e9, 25e9);
    rpc.register_handler(b, "echo",
                         [](common::Bytes req) -> CoTask<common::Bytes> {
                           co_return req;
                         });
    auto loop = [&]() -> CoTask<void> {
      for (int64_t i = 0; i < calls; ++i) {
        auto r = co_await rpc.call(a, b, "echo", common::Bytes(64));
        benchmark::DoNotOptimize(r.ok());
      }
    };
    sim.run_until_complete(loop());
  }
  state.SetItemsProcessed(state.iterations() * calls);
}
BENCHMARK(BM_RpcRoundTripDeadlinesPending)->Arg(1000)->Arg(10000);

void BM_SemaphoreHandoff(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    sim::Semaphore sem(sim, 1);
    auto worker = [&](int n) -> CoTask<void> {
      for (int i = 0; i < n; ++i) {
        co_await sem.acquire();
        co_await sim.yield();
        sem.release();
      }
    };
    auto f1 = sim.spawn(worker(200));
    auto f2 = sim.spawn(worker(200));
    sim.run();
    benchmark::DoNotOptimize(f1.done() && f2.done());
  }
  state.SetItemsProcessed(state.iterations() * 400);
}
BENCHMARK(BM_SemaphoreHandoff);

}  // namespace
