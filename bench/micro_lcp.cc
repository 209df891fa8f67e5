// Micro-benchmarks for Algorithm 1 (LCP) — the provider-side inner loop of
// every collective metadata query — and for the catalog prefix index
// (DESIGN.md §16) that replaces the scan at catalog scale.
//
// `--index` is shorthand for `--benchmark_filter=Index`: it runs just the
// scan-vs-index pair (build, lookup, and the same-catalog scan baseline)
// whose output lands in bench/data/micro_lcp_index.txt.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/lcp.h"
#include "core/prefix_index.h"
#include "tests/core/test_env.h"
#include "workload/deepspace.h"

namespace {

using namespace evostore;
using core::testing::chain_graph;
using core::testing::widths_graph;

void BM_LcpIdenticalChain(benchmark::State& state) {
  auto g = chain_graph(static_cast<int>(state.range(0)), 64);
  core::LcpWorkspace ws;
  for (auto _ : state) {
    auto r = ws.run(g, g, nullptr);
    benchmark::DoNotOptimize(r.matches.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LcpIdenticalChain)->Arg(10)->Arg(100)->Arg(1000);

void BM_LcpRootMismatch(benchmark::State& state) {
  // The dominant case in large catalog scans: rejected at the root.
  auto g = chain_graph(100, 64);
  auto a = chain_graph(100, 48);
  core::LcpWorkspace ws;
  for (auto _ : state) {
    auto r = ws.run(g, a, nullptr);
    benchmark::DoNotOptimize(r.matches.data());
  }
}
BENCHMARK(BM_LcpRootMismatch);

void BM_LcpHalfPrefix(benchmark::State& state) {
  int layers = static_cast<int>(state.range(0));
  auto g = chain_graph(layers, 64);
  auto a = chain_graph(layers, 64, layers / 2);
  core::LcpWorkspace ws;
  for (auto _ : state) {
    auto r = ws.run(g, a, nullptr);
    benchmark::DoNotOptimize(r.matches.data());
  }
}
BENCHMARK(BM_LcpHalfPrefix)->Arg(20)->Arg(100);

void BM_LcpDeepSpacePair(benchmark::State& state) {
  // Realistic branchy/nested graphs, mutated pairs (the Fig. 5 workload).
  workload::DeepSpace space;
  common::Xoshiro256 rng(1);
  std::vector<std::pair<model::ArchGraph, model::ArchGraph>> pairs;
  for (int i = 0; i < 64; ++i) {
    auto s = space.random(rng);
    pairs.emplace_back(space.decode_graph(space.mutate(s, rng)),
                       space.decode_graph(s));
  }
  core::LcpWorkspace ws;
  size_t i = 0;
  for (auto _ : state) {
    auto& [g, a] = pairs[i++ % pairs.size()];
    auto r = ws.run(g, a, nullptr);
    benchmark::DoNotOptimize(r.matches.data());
  }
}
BENCHMARK(BM_LcpDeepSpacePair);

void BM_LcpCatalogScan(benchmark::State& state) {
  // One full provider-side scan: a query graph against N stored graphs.
  workload::DeepSpace space;
  common::Xoshiro256 rng(2);
  std::vector<model::ArchGraph> catalog;
  for (int64_t i = 0; i < state.range(0); ++i) {
    catalog.push_back(space.decode_graph(space.random(rng)));
  }
  auto query = space.decode_graph(space.random(rng));
  core::LcpWorkspace ws;
  for (auto _ : state) {
    size_t best = 0;
    for (const auto& a : catalog) {
      best = std::max(best, ws.run(query, a, nullptr).length());
    }
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LcpCatalogScan)->Arg(100)->Arg(1000)->Arg(10000);

// ---- catalog prefix index (scan-vs-index microcosts) ----------------------

// Fine-tune families of linear chains: 64 members per family sharing a
// spine, tails mutated — the ablation_lcp_index chains catalog shape.
std::vector<model::ArchGraph> family_catalog(int64_t n) {
  std::vector<model::ArchGraph> catalog;
  catalog.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    uint64_t family = static_cast<uint64_t>(i) / 64;
    common::Xoshiro256 rng(0x5eedULL + family * 0x9e3779b97f4a7c15ULL);
    size_t len = 6 + rng.below(7);
    std::vector<int64_t> w(len);
    w[0] = 8 + static_cast<int64_t>(family % 61);
    for (size_t j = 1; j < len; ++j) {
      w[j] = 16 + 8 * static_cast<int64_t>(rng.below(4));
    }
    if (i % 64 != 0) {
      common::Xoshiro256 mrng(static_cast<uint64_t>(i) * 0xda942042e4dd58b5ULL);
      for (size_t j = len - 1 - mrng.below(2); j < len; ++j) {
        w[j] = 17 + 8 * static_cast<int64_t>(mrng.below(4));
      }
    }
    catalog.push_back(widths_graph(w));
  }
  return catalog;
}

void BM_LcpIndexBuild(benchmark::State& state) {
  auto catalog = family_catalog(state.range(0));
  for (auto _ : state) {
    core::PrefixIndex idx;
    for (size_t i = 0; i < catalog.size(); ++i) {
      idx.insert(common::ModelId{i + 1}, 0.5, catalog[i]);
    }
    benchmark::DoNotOptimize(idx.node_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LcpIndexBuild)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_LcpIndexLookup(benchmark::State& state) {
  auto catalog = family_catalog(state.range(0));
  core::PrefixIndex idx;
  for (size_t i = 0; i < catalog.size(); ++i) {
    idx.insert(common::ModelId{i + 1}, 0.5, catalog[i]);
  }
  // Queries cycle through stored members: full-depth walks, realistic hits.
  size_t q = 0;
  for (auto _ : state) {
    auto hit = idx.lookup(catalog[(q += 17) % catalog.size()]);
    benchmark::DoNotOptimize(hit.best);
  }
}
BENCHMARK(BM_LcpIndexLookup)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_LcpIndexScanBaseline(benchmark::State& state) {
  // The cost the index replaces: a full Algorithm 1 scan of the SAME
  // family catalog (compare against BM_LcpIndexLookup at equal Arg).
  auto catalog = family_catalog(state.range(0));
  core::LcpWorkspace ws;
  size_t q = 0;
  for (auto _ : state) {
    const auto& query = catalog[(q += 17) % catalog.size()];
    size_t best = 0;
    for (const auto& a : catalog) {
      best = std::max(best, ws.run(query, a, nullptr).length());
    }
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LcpIndexScanBaseline)->Arg(1000)->Arg(10000);

// Branchy DeepSpace architectures in perfbench lcp_catalog's narrow space,
// queried with one-cell mutations of members — the ablation_lcp_index
// deepspace catalog shape. Members are generated on demand so the lookup
// benchmark's resident set is the index itself.
workload::DeepSpace narrow_space() {
  workload::DeepSpaceConfig cfg;
  cfg.input_dim = 8;
  cfg.widths = {8, 16, 24, 32};
  return workload::DeepSpace(cfg);
}

workload::DeepSpaceSeq deepspace_member(const workload::DeepSpace& space,
                                        int64_t i) {
  common::Xoshiro256 rng(0xdee95ULL +
                         static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ULL);
  return space.random(rng);
}

std::vector<model::ArchGraph> deepspace_queries(
    const workload::DeepSpace& space, int64_t n) {
  std::vector<model::ArchGraph> queries;
  common::Xoshiro256 rng(0x9e7ULL);
  for (int q = 0; q < 64; ++q) {
    auto member = static_cast<int64_t>(rng.below(static_cast<uint64_t>(n)));
    queries.push_back(
        space.decode_graph(space.mutate(deepspace_member(space, member), rng)));
  }
  return queries;
}

void BM_LcpIndexBuildDeepSpace(benchmark::State& state) {
  auto space = narrow_space();
  std::vector<model::ArchGraph> catalog;
  for (int64_t i = 0; i < state.range(0); ++i) {
    catalog.push_back(space.decode_graph(deepspace_member(space, i)));
  }
  for (auto _ : state) {
    core::PrefixIndex idx;
    for (size_t i = 0; i < catalog.size(); ++i) {
      idx.insert(common::ModelId{i + 1}, 0.5, catalog[i]);
    }
    benchmark::DoNotOptimize(idx.node_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LcpIndexBuildDeepSpace)->Arg(1000)->Arg(10000);

void BM_LcpIndexLookupDeepSpace(benchmark::State& state) {
  auto space = narrow_space();
  core::PrefixIndex idx;
  for (int64_t i = 0; i < state.range(0); ++i) {
    idx.insert(common::ModelId{static_cast<uint64_t>(i) + 1}, 0.5,
               space.decode_graph(deepspace_member(space, i)));
  }
  auto queries = deepspace_queries(space, state.range(0));
  size_t q = 0;
  for (auto _ : state) {
    auto hit = idx.lookup(queries[q++ % queries.size()]);
    benchmark::DoNotOptimize(hit.best);
  }
}
BENCHMARK(BM_LcpIndexLookupDeepSpace)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_LcpIndexScanBaselineDeepSpace(benchmark::State& state) {
  // The cost the index replaces on the same DeepSpace catalog.
  auto space = narrow_space();
  std::vector<model::ArchGraph> catalog;
  for (int64_t i = 0; i < state.range(0); ++i) {
    catalog.push_back(space.decode_graph(deepspace_member(space, i)));
  }
  auto queries = deepspace_queries(space, state.range(0));
  core::LcpWorkspace ws;
  size_t q = 0;
  for (auto _ : state) {
    const auto& query = queries[q++ % queries.size()];
    size_t best = 0;
    for (const auto& a : catalog) {
      best = std::max(best, ws.run(query, a, nullptr).length());
    }
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LcpIndexScanBaselineDeepSpace)->Arg(1000)->Arg(10000);

void BM_LcpWorkspaceVsFresh(benchmark::State& state) {
  auto g = chain_graph(50, 64);
  auto a = chain_graph(50, 64, 10);
  if (state.range(0) == 0) {
    core::LcpWorkspace ws;
    for (auto _ : state) {
      benchmark::DoNotOptimize(ws.run(g, a, nullptr).length());
    }
  } else {
    for (auto _ : state) {
      benchmark::DoNotOptimize(core::longest_common_prefix(g, a).length());
    }
  }
}
BENCHMARK(BM_LcpWorkspaceVsFresh)->Arg(0)->Arg(1);

}  // namespace

// Custom main so `--index` maps onto the benchmark filter; everything else
// passes straight through to google-benchmark (our definition wins over the
// one in benchmark_main, which the linker only pulls when main is
// undefined).
int main(int argc, char** argv) {
  std::string filter = "--benchmark_filter=Index";
  std::vector<char*> args(argv, argv + argc);
  for (char*& arg : args) {
    if (std::string(arg) == "--index") arg = filter.data();
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
