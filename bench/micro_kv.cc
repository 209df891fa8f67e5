// Micro-benchmarks for the KV store backends (MemKv vs LogKv), plus the
// observability primitives the data path leans on.
#include <benchmark/benchmark.h>

#include <filesystem>

#include "obs/events.h"
#include "obs/metrics.h"
#include "storage/log_kv.h"
#include "storage/mem_kv.h"

namespace {

using namespace evostore;
using common::Buffer;

void BM_MemKvPut(benchmark::State& state) {
  storage::MemKv kv;
  size_t value_size = static_cast<size_t>(state.range(0));
  uint64_t i = 0;
  for (auto _ : state) {
    // i++ and i in sibling arguments are indeterminately sequenced; the
    // payload seed must not depend on argument evaluation order.
    const uint64_t k = i++;
    auto st = kv.put("key" + std::to_string(k % 4096),
                     Buffer::synthetic(value_size, k + 1));
    benchmark::DoNotOptimize(st.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(value_size));
}
BENCHMARK(BM_MemKvPut)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_MemKvGet(benchmark::State& state) {
  storage::MemKv kv;
  for (int i = 0; i < 4096; ++i) {
    (void)kv.put("key" + std::to_string(i), Buffer::synthetic(1024, i));
  }
  uint64_t i = 0;
  for (auto _ : state) {
    auto r = kv.get("key" + std::to_string(i++ % 4096));
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_MemKvGet);

void BM_LogKvPut(benchmark::State& state) {
  auto dir = std::filesystem::temp_directory_path() / "evostore_bench_logkv";
  std::filesystem::remove_all(dir);
  auto kv = std::move(storage::LogKv::open(dir).value());
  size_t value_size = static_cast<size_t>(state.range(0));
  uint64_t i = 0;
  for (auto _ : state) {
    const uint64_t k = i++;
    auto st = kv->put("key" + std::to_string(k % 4096),
                      Buffer::synthetic(value_size, k + 1));
    benchmark::DoNotOptimize(st.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(value_size));
  kv.reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_LogKvPut)->Arg(64)->Arg(4096);

void BM_LogKvGet(benchmark::State& state) {
  auto dir = std::filesystem::temp_directory_path() / "evostore_bench_logkv_g";
  std::filesystem::remove_all(dir);
  auto kv = std::move(storage::LogKv::open(dir).value());
  for (int i = 0; i < 1024; ++i) {
    (void)kv->put("key" + std::to_string(i), Buffer::synthetic(1024, i));
  }
  uint64_t i = 0;
  for (auto _ : state) {
    auto r = kv->get("key" + std::to_string(i++ % 1024));
    benchmark::DoNotOptimize(r.ok());
  }
  kv.reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_LogKvGet);

// One put and one erase of the same key: the tombstone's cost on top of a
// fresh put.
void BM_LogKvErase(benchmark::State& state) {
  auto dir = std::filesystem::temp_directory_path() / "evostore_bench_logkv_e";
  std::filesystem::remove_all(dir);
  auto kv = std::move(storage::LogKv::open(dir).value());
  uint64_t i = 0;
  for (auto _ : state) {
    const uint64_t k = i++;
    const std::string key = "key" + std::to_string(k % 4096);
    auto put = kv->put(key, Buffer::synthetic(64, k + 1));
    auto erase = kv->erase(key);
    benchmark::DoNotOptimize(put.ok() && erase.ok());
  }
  kv.reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_LogKvErase);

// Reopening a log whose 1k keys were each written four times and half
// erased: the rebuild scan replays every overwrite and tombstone.
void BM_LogKvReopen(benchmark::State& state) {
  auto dir = std::filesystem::temp_directory_path() / "evostore_bench_logkv_r";
  std::filesystem::remove_all(dir);
  storage::LogKvOptions options;
  options.compact_on_open_ratio = 0;  // every open replays the same log
  {
    auto kv = std::move(storage::LogKv::open(dir, options).value());
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 1024; ++i) {
        (void)kv->put("key" + std::to_string(i),
                      Buffer::synthetic(512, round * 1024 + i));
      }
    }
    for (int i = 0; i < 1024; i += 2) (void)kv->erase("key" + std::to_string(i));
  }
  for (auto _ : state) {
    auto kv = storage::LogKv::open(dir, options);
    benchmark::DoNotOptimize(kv.ok());
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_LogKvReopen);

void BM_LogKvCompact(benchmark::State& state) {
  auto dir = std::filesystem::temp_directory_path() / "evostore_bench_logkv_c";
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    auto kv = std::move(storage::LogKv::open(dir).value());
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 256; ++i) {
        (void)kv->put("key" + std::to_string(i), Buffer::synthetic(512, i));
      }
    }
    state.ResumeTiming();
    auto r = kv->compact();
    benchmark::DoNotOptimize(r.ok());
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_LogKvCompact);

void BM_BufferSyntheticRead(benchmark::State& state) {
  Buffer b = Buffer::synthetic(static_cast<size_t>(state.range(0)), 7);
  common::Bytes out(b.size());
  for (auto _ : state) {
    b.read(0, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BufferSyntheticRead)->Arg(4096)->Arg(1 << 20);

void BM_BufferContentHash(benchmark::State& state) {
  // Cache-defeating: fresh buffer per iteration.
  size_t n = static_cast<size_t>(state.range(0));
  uint64_t seed = 0;
  for (auto _ : state) {
    Buffer b = Buffer::synthetic(n, ++seed);
    benchmark::DoNotOptimize(b.content_hash());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BufferContentHash)->Arg(4096)->Arg(1 << 20);

// The per-operation cost of the two ways to bump a counter. Instrumented
// hot paths must cache the Counter* at attach time (the idiom everywhere in
// src/) — the by-name variant re-hashes the metric name per operation and
// exists here as the anti-pattern to measure against, not to copy.
void BM_MetricsCounterByName(benchmark::State& state) {
  obs::MetricsRegistry registry;
  for (auto _ : state) {
    registry.counter("provider.put_count")->add();
  }
  benchmark::DoNotOptimize(registry.counter("provider.put_count")->value());
}
BENCHMARK(BM_MetricsCounterByName);

void BM_MetricsCounterCached(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.counter("provider.put_count");
  for (auto _ : state) {
    c->add();
  }
  benchmark::DoNotOptimize(c->value());
}
BENCHMARK(BM_MetricsCounterCached);

// Flight-recorder append: one branch + ring write + attr string copies.
// This is the cost every instrumented call site pays when --events-out is
// active (and a single null-check when it is not).
void BM_EventLogRecord(benchmark::State& state) {
  obs::EventLog log;
  double t = 0;
  for (auto _ : state) {
    t += 1e-6;
    log.record(t, "hint.recorded", 3,
               {{"count", "1"}, {"target", "2"}});
  }
  benchmark::DoNotOptimize(log.recorded());
}
BENCHMARK(BM_EventLogRecord);

}  // namespace
