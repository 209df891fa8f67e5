// Ablation — client-side cooperative segment cache (DESIGN.md §14).
//
// NAS and fine-tune sweeps re-read the same hot backbones thousands of
// times while their bytes never change. This harness quantifies what the
// client cache buys on that pattern, in three tiers:
//
//   uncached   capacity 0 — every read pulls full payloads (the baseline).
//   validate   trust 0 — every read still asks the owning providers, but a
//              version match answers NotModified: metadata round trip, no
//              payload bytes.
//   trusted    a trust window — repeat reads inside the window are served
//              locally with no RPC at all.
//
// Sweep 1 (repeat-read) stores M models and reads each R times, reporting
// bytes-on-wire for the read phase, the reduction vs. uncached (must be
// >= 5x for the cached tiers once R >= 6 — the acceptance bar), and p50/p99
// read latency. Sweep 2 (shared backbone) has one client pull a model and
// N-1 more clients read it afterwards: the providers answer with redirect
// hints and the peers serve the payload (ScaleStore-style cooperative
// caching), offloading provider egress. Sweep 3 retires a cached model and
// checks the cache drops every entry rather than resurrecting stale bytes.
//
// --verify reads every model back against an in-memory copy and requires
// bit-identical content in every tier (exit 1 on any mismatch).
//
// Flags:
//   --gpus N         cluster size; providers = ceil(N/4)      (default 16)
//   --models N       models in the repeat-read sweep          (default 6)
//   --repeats N      reads per model                          (default 8)
//   --layers N       dense layers per model                   (default 10)
//   --width N        layer width                              (default 64)
//   --readers N      clients in the shared-backbone sweep     (default 4)
//   --capacity-mb N  per-client cache budget                  (default 64)
//   --trust S        trust window of the `trusted` tier       (default 3600)
//   --verify         bit-identical read-back in every tier
//   --metrics-out FILE  JSON metrics snapshot (client.cache.* counters)
//   --events-out FILE   flight-recorder event log over all sweeps
//                       (cache.trusted / cache.lookup / cache.peer /
//                       cache.peer_serve / gc.* lifecycle events)
//   --trace-out FILE    Chrome trace of the first sweep
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "bench/nas_bench.h"
#include "model/layer.h"

using namespace evostore;

namespace {

struct SweepResult {
  double read_bulk_bytes = 0;  // bytes-on-wire during the read phase
  double p50 = 0;
  double p99 = 0;
  cache::CacheStats cache;
  uint64_t not_modified = 0;
  int mismatches = 0;
};

model::ArchGraph build_chain(int layers, int64_t width, int64_t salt) {
  std::vector<model::LayerDef> defs;
  defs.push_back(model::make_input(width));
  for (int i = 0; i < layers; ++i) {
    int64_t w = (i == layers - 1) ? width + salt : width;
    defs.push_back(model::make_dense(width, w));
  }
  auto g = model::ArchGraph::flatten(model::make_chain(std::move(defs)));
  return std::move(g).value();
}

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0;
  size_t i = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[i];
}

}  // namespace

int main(int argc, char** argv) {
  int gpus = bench::arg_int(argc, argv, "--gpus", 16);
  int models = bench::arg_int(argc, argv, "--models", 6);
  int repeats = bench::arg_int(argc, argv, "--repeats", 8);
  int layers = bench::arg_int(argc, argv, "--layers", 10);
  int64_t width = bench::arg_int(argc, argv, "--width", 64);
  int readers = bench::arg_int(argc, argv, "--readers", 4);
  int capacity_mb = bench::arg_int(argc, argv, "--capacity-mb", 64);
  int trust = bench::arg_int(argc, argv, "--trust", 3600);
  bool verify = bench::arg_flag(argc, argv, "--verify");
  bench::Observability obs = bench::Observability::from_args(argc, argv);

  bench::print_header("Cache ablation",
                      "client-side cooperative segment cache");
  std::printf("%d GPU(s), %d model(s) x %d read(s), %d x %lld dense, "
              "cache %d MB, trust %ds%s\n\n",
              gpus, models, repeats, layers, static_cast<long long>(width),
              capacity_mb, trust, verify ? ", VERIFY" : "");

  const uint64_t capacity = static_cast<uint64_t>(capacity_mb) << 20;

  // ---- Sweep 1: repeat reads under the three cache tiers -----------------
  auto sweep = [&](cache::CacheConfig ccache) -> SweepResult {
    SweepResult out;
    bench::Cluster cluster(gpus);
    obs.attach(cluster);
    core::ClientConfig ccfg;
    ccfg.cache = ccache;
    core::EvoStoreRepository repo(cluster.rpc, cluster.provider_nodes,
                                  core::ProviderConfig{}, {}, ccfg);
    core::Client& cli = repo.client(cluster.workers[0]);

    std::vector<model::Model> stored;
    auto fill = [&]() -> sim::CoTask<int> {
      for (int i = 0; i < models; ++i) {
        auto m = model::Model::random(repo.allocate_id(),
                                      build_chain(layers, width, i),
                                      /*seed=*/100 + static_cast<uint64_t>(i));
        m.set_quality(0.5);
        auto st = co_await cli.put_model(m, nullptr);
        if (!st.ok()) co_return 1;
        stored.push_back(std::move(m));
      }
      co_return 0;
    };
    if (cluster.sim.run_until_complete(fill()) != 0) {
      std::printf("FATAL: store phase failed\n");
      std::exit(1);
    }

    double bulk_before = cluster.rpc.stats().bulk_bytes;
    std::vector<double> latencies;
    auto read_all = [&]() -> sim::CoTask<int> {
      int bad = 0;
      for (int r = 0; r < repeats; ++r) {
        for (const model::Model& want : stored) {
          double t0 = cluster.sim.now();
          auto got = co_await cli.get_model(want.id());
          latencies.push_back(cluster.sim.now() - t0);
          if (!got.ok()) {
            ++bad;
            continue;
          }
          if (verify) {
            for (size_t v = 0; v < want.vertex_count(); ++v) {
              auto vid = static_cast<common::VertexId>(v);
              if (!got->segment(vid).content_equals(want.segment(vid))) {
                std::printf("verify: %s vertex %zu MISMATCH\n",
                            want.id().to_string().c_str(), v);
                ++bad;
                break;
              }
            }
          }
        }
      }
      co_return bad;
    };
    out.mismatches = cluster.sim.run_until_complete(read_all());
    out.read_bulk_bytes = cluster.rpc.stats().bulk_bytes - bulk_before;
    std::sort(latencies.begin(), latencies.end());
    out.p50 = percentile(latencies, 0.50);
    out.p99 = percentile(latencies, 0.99);
    if (cli.segment_cache() != nullptr) out.cache = cli.segment_cache()->stats();
    auto stats = cluster.sim.run_until_complete(cli.collect_stats());
    if (stats.ok()) {
      out.not_modified = stats->totals.provider.not_modified_reads;
    }
    obs.detach(cluster);
    return out;
  };

  cache::CacheConfig off;  // capacity 0
  cache::CacheConfig validate;
  validate.capacity_bytes = capacity;
  cache::CacheConfig trusted = validate;
  trusted.trust_seconds = trust;

  SweepResult r_off = sweep(off);
  SweepResult r_val = sweep(validate);
  SweepResult r_tru = sweep(trusted);

  auto reduction = [&](const SweepResult& r) {
    return r.read_bulk_bytes == 0
               ? 0.0
               : r_off.read_bulk_bytes / r.read_bulk_bytes;
  };
  std::printf("%-10s %16s %10s %11s %11s %12s %12s\n", "tier",
              "read bytes", "reduction", "p50 read", "p99 read",
              "revalidated", "local hits");
  auto row = [&](const char* name, const SweepResult& r) {
    std::printf("%-10s %16.0f %9.1fx %9.2fus %9.2fus %12" PRIu64
                " %12" PRIu64 "\n",
                name, r.read_bulk_bytes, reduction(r), r.p50 * 1e6,
                r.p99 * 1e6, r.cache.revalidations, r.cache.hits);
  };
  row("uncached", r_off);
  row("validate", r_val);
  row("trusted", r_tru);

  bool ok = r_off.mismatches + r_val.mismatches + r_tru.mismatches == 0;
  // Acceptance bar: with R repeats the payload moves once instead of R
  // times, so both cached tiers must cut bytes-on-wire >= 5x once R >= 6.
  if (repeats >= 6) {
    if (reduction(r_val) < 5.0 || reduction(r_tru) < 5.0) {
      std::printf("!! FAIL: cached tiers below the 5x bytes-on-wire bar\n");
      ok = false;
    }
  }
  if (r_val.not_modified == 0 || r_tru.cache.hits == 0) {
    std::printf("!! FAIL: validation/trust paths never engaged\n");
    ok = false;
  }

  // ---- Sweep 2: shared backbone served by peer caches --------------------
  {
    bench::Cluster cluster(gpus);
    obs.attach(cluster);
    core::ClientConfig ccfg;
    ccfg.cache = validate;
    core::EvoStoreRepository repo(cluster.rpc, cluster.provider_nodes,
                                  core::ProviderConfig{}, {}, ccfg);
    int n_readers = std::min<int>(readers,
                                  static_cast<int>(cluster.nodes.size()));
    auto backbone = model::Model::random(repo.allocate_id(),
                                         build_chain(layers, width, 0), 7);
    backbone.set_quality(0.5);
    uint64_t peer_hits = 0, peer_misses = 0;
    int bad = 0;
    auto run = [&]() -> sim::CoTask<int> {
      auto st = co_await repo.client(cluster.nodes[0]).put_model(backbone,
                                                                 nullptr);
      if (!st.ok()) co_return -1;
      for (int i = 0; i < n_readers; ++i) {
        core::Client& cli = repo.client(cluster.nodes[static_cast<size_t>(i)]);
        auto got = co_await cli.get_model(backbone.id());
        if (!got.ok()) {
          ++bad;
          continue;
        }
        if (verify) {
          for (size_t v = 0; v < backbone.vertex_count(); ++v) {
            auto vid = static_cast<common::VertexId>(v);
            if (!got->segment(vid).content_equals(backbone.segment(vid))) {
              ++bad;
              break;
            }
          }
        }
        peer_hits += cli.segment_cache()->stats().peer_hits;
        peer_misses += cli.segment_cache()->stats().peer_misses;
      }
      co_return 0;
    };
    if (cluster.sim.run_until_complete(run()) != 0) {
      std::printf("FATAL: shared-backbone sweep failed\n");
      return 1;
    }
    auto stats = cluster.sim.run_until_complete(
        repo.client(cluster.nodes[0]).collect_stats());
    uint64_t redirects =
        stats.ok() ? stats->totals.provider.redirects_issued : 0;
    uint64_t total = static_cast<uint64_t>(n_readers - 1) *
                     backbone.vertex_count();
    std::printf("\nshared backbone, %d reader(s): %" PRIu64
                " redirect(s) issued, %" PRIu64 "/%" PRIu64
                " segment(s) served by peers, %" PRIu64 " fallback(s)\n",
                n_readers, redirects, peer_hits, total, peer_misses);
    if (n_readers > 1 && peer_hits == 0) {
      std::printf("!! FAIL: no segment was ever served by a peer cache\n");
      ok = false;
    }
    ok = ok && bad == 0;
    obs.detach(cluster);
  }

  // ---- Sweep 3: retire must invalidate, never resurrect ------------------
  {
    bench::Cluster cluster(gpus);
    obs.attach(cluster);
    core::ClientConfig ccfg;
    ccfg.cache = trusted;  // the most caching-aggressive tier
    core::EvoStoreRepository repo(cluster.rpc, cluster.provider_nodes,
                                  core::ProviderConfig{}, {}, ccfg);
    core::Client& cli = repo.client(cluster.workers[0]);
    auto m = model::Model::random(repo.allocate_id(),
                                  build_chain(layers, width, 0), 7);
    m.set_quality(0.5);
    auto run = [&]() -> sim::CoTask<int> {
      if (!(co_await cli.put_model(m, nullptr)).ok()) co_return 1;
      if (!(co_await cli.get_model(m.id())).ok()) co_return 2;
      if (!(co_await cli.retire(m.id())).ok()) co_return 3;
      auto gone = co_await cli.get_model(m.id());
      co_return gone.status().code() == common::ErrorCode::kNotFound ? 0 : 4;
    };
    int rc = cluster.sim.run_until_complete(run());
    const auto& cs = cli.segment_cache()->stats();
    std::printf("retire invalidation: %" PRIu64 " entr(ies) dropped, "
                "re-read after retire -> %s\n",
                cs.invalidations, rc == 0 ? "NotFound" : "UNEXPECTED");
    if (rc != 0 || cs.invalidations != m.vertex_count() ||
        cli.segment_cache()->entry_count() != 0) {
      std::printf("!! FAIL: retire left cached entries behind (rc %d)\n", rc);
      ok = false;
    }
    obs.detach(cluster);
  }

  if (verify) {
    std::printf("verify: all tiers read back bit-identical content\n");
  }
  obs.finish();
  std::printf("overall: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
