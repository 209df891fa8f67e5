// Ablation — sublinear LCP serving via the catalog prefix index
// (DESIGN.md §16; ROADMAP "Sublinear LCP" item).
//
// Sweeps catalog size and answers one question: when does the O(prefix
// depth) trie walk beat the O(catalog) Algorithm 1 scan, and by how much —
// with byte-identical answers? Two legs per size:
//
//  * cluster mode (size <= --cluster-max): two full simulated clusters —
//    one scan-only, one with `lcp_index` (and `lcp_index_verify` under
//    --verify) — run the same metadata-only catalog, the same query storm,
//    and a retire + drain churn step; every response is compared field by
//    field and folded into a digest. Latency quantiles come from the
//    provider-side `lcp.seconds` histogram via the stats fan-out, index
//    footprint from the new StatsResponse fields.
//  * direct mode (larger sizes, up to 1M+): in-process PrefixIndex vs. the
//    catalog scan, with graphs regenerated on demand so memory stays
//    bounded by the index itself. The scan side uses an exact shortcut —
//    only models sharing the query's root signature can score (Algorithm 1
//    rejects all others at the root for exactly one vertex visit), so it
//    scans the root-signature bucket and charges 1 visit per model outside
//    it. Reported latencies are the provider cost model's (deterministic:
//    kLcpPerModelSeconds * catalog + kLcpVisitSeconds * visits for the
//    scan; visits only for the index), so reruns are byte-identical.
//
// Catalogs are fine-tune families: linear chains sharing a family spine
// with members mutated in the last layers — the regime the index serves
// (see prefix_index.h for why branchy graphs fall back to the scan).
//
// --verify additionally requires zero per-query mismatches and zero
// provider-side oracle mismatches, and exits non-zero otherwise; CI runs
// the bench twice and `cmp`s the outputs. Defaults keep CI fast; pass
// --sizes 1000,10000,100000,1000000 for the full sweep recorded in
// EXPERIMENTS.md.
#include <cinttypes>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/lcp.h"
#include "core/prefix_index.h"
#include "obs/metrics.h"
#include "tests/core/test_env.h"

using namespace evostore;
using bench::Cluster;
using common::ModelId;
using core::testing::widths_graph;

namespace {

constexpr int kMembersPerFamily = 64;
constexpr int kRootWidthSpread = 61;  // distinct root signatures in the mix

// Deterministic member spec -> widths. Member 0 is the family base; other
// members re-draw the last one or two layers (fine-tune-style tail
// mutations), so a family shares its spine in the trie.
std::vector<int64_t> member_widths(uint64_t family, uint64_t member) {
  common::Xoshiro256 rng(0x5eedULL + family * 0x9e3779b97f4a7c15ULL);
  size_t len = 6 + rng.below(7);  // 6..12 layers
  std::vector<int64_t> w(len);
  w[0] = 8 + static_cast<int64_t>(family % kRootWidthSpread);
  for (size_t j = 1; j < len; ++j) {
    w[j] = 16 + 8 * static_cast<int64_t>(rng.below(4));
  }
  if (member != 0) {
    common::Xoshiro256 mrng(member * 0xda942042e4dd58b5ULL + family);
    size_t cut = len - 1 - mrng.below(2);
    for (size_t j = cut; j < len; ++j) {
      w[j] = 17 + 8 * static_cast<int64_t>(mrng.below(4));
    }
  }
  return w;
}

model::ArchGraph catalog_graph(uint64_t i) {
  return widths_graph(
      member_widths(i / kMembersPerFamily, i % kMembersPerFamily));
}

double catalog_quality(uint64_t i) {
  // Coarse buckets so equal-depth quality and id tie-breaks fire often.
  return 0.25 * static_cast<double>(i % 4);
}

// Query q targets some family with a fresh (never stored) tail mutation.
model::ArchGraph query_graph(uint64_t q, uint64_t families) {
  uint64_t family = (q * 2654435761ULL) % families;
  return widths_graph(member_widths(family, 1000000 + q));
}

struct Answer {
  bool found = false;
  ModelId ancestor = ModelId::invalid();
  double quality = 0;
  std::vector<std::pair<common::VertexId, common::VertexId>> matches;
};

void fold_answer(common::Hasher128& digest, const Answer& a) {
  digest.u64(a.found ? 1 : 0);
  digest.u64(a.ancestor.value);
  uint64_t qbits = 0;
  static_assert(sizeof(qbits) == sizeof(a.quality));
  std::memcpy(&qbits, &a.quality, sizeof(qbits));
  digest.u64(qbits);
  digest.u64(a.matches.size());
  for (const auto& [gv, av] : a.matches) {
    digest.u64(gv);
    digest.u64(av);
  }
}

bool same_answer(const Answer& a, const Answer& b) {
  return a.found == b.found && a.ancestor == b.ancestor &&
         a.quality == b.quality && a.matches == b.matches;
}

struct LegResult {
  double p50_scan = 0, p99_scan = 0;
  double p50_index = 0, p99_index = 0;
  uint64_t index_nodes = 0;
  uint64_t index_bytes = 0;
  uint64_t fallbacks = 0;
  uint64_t oracle_mismatches = 0;  // cluster mode only
  size_t mismatches = 0;           // per-query answer disagreements
  common::Hash128 digest_scan{};
  common::Hash128 digest_index{};
};

// ---- direct mode ----------------------------------------------------------

LegResult run_direct(uint64_t size, int query_count, bool verify) {
  LegResult out;
  core::PrefixIndex idx;
  // Root-signature buckets: model indices by root width. Regenerating
  // graphs on demand keeps resident memory at the index plus one bucket of
  // 4-byte indices per root width.
  std::vector<std::vector<uint32_t>> buckets(kRootWidthSpread);
  for (uint64_t i = 0; i < size; ++i) {
    idx.insert(ModelId{i + 1}, catalog_quality(i), catalog_graph(i));
    buckets[(i / kMembersPerFamily) % kRootWidthSpread].push_back(
        static_cast<uint32_t>(i));
  }
  out.index_nodes = idx.node_count();
  out.index_bytes = idx.memory_bytes();

  uint64_t families = (size + kMembersPerFamily - 1) / kMembersPerFamily;
  obs::Histogram scan_hist;
  obs::Histogram index_hist;
  common::Hasher128 scan_digest(1);
  common::Hasher128 index_digest(1);
  core::LcpWorkspace ws;
  for (int q = 0; q < query_count; ++q) {
    uint64_t family = (static_cast<uint64_t>(q) * 2654435761ULL) % families;
    model::ArchGraph query = query_graph(static_cast<uint64_t>(q), families);
    uint64_t root_bucket = family % kRootWidthSpread;

    // Scan side: exact answer from the root bucket; everything else is a
    // one-visit root reject.
    Answer scan;
    core::LcpCost scan_cost;
    for (uint32_t i : buckets[root_bucket]) {
      model::ArchGraph stored = catalog_graph(i);
      core::LcpResult r = ws.run(query, stored, &scan_cost);
      if (r.length() == 0) continue;
      ModelId id{static_cast<uint64_t>(i) + 1};
      double quality = catalog_quality(i);
      bool better = false;
      if (!scan.found) {
        better = true;
      } else if (r.length() != scan.matches.size()) {
        better = r.length() > scan.matches.size();
      } else if (quality != scan.quality) {
        better = quality > scan.quality;
      } else {
        better = id < scan.ancestor;
      }
      if (better) {
        scan.found = true;
        scan.ancestor = id;
        scan.quality = quality;
        scan.matches = std::move(r.matches);
      }
    }
    scan_cost.vertex_visits += size - buckets[root_bucket].size();
    double scan_seconds =
        core::Provider::kLcpPerModelSeconds * static_cast<double>(size) +
        core::Provider::kLcpVisitSeconds *
            static_cast<double>(scan_cost.vertex_visits);
    scan_hist.add(scan_seconds);
    fold_answer(scan_digest, scan);

    // Index side: the provider's serving path (all catalogs here are
    // linear, so the gate is open by construction).
    Answer indexed;
    core::LcpCost index_cost;
    auto tokens = core::prefix_tokens(query);
    auto hit = idx.lookup(tokens);
    index_cost.vertex_visits += tokens.size() + hit.nodes_visited;
    bool fell_back = false;
    if (hit.found) {
      model::ArchGraph stored = catalog_graph(hit.best.value - 1);
      core::LcpResult r = ws.run(query, stored, &index_cost);
      if (r.length() != hit.depth) {
        fell_back = true;  // outside the exactness family: serve the scan
      } else {
        indexed.found = true;
        indexed.ancestor = hit.best;
        indexed.quality = catalog_quality(hit.best.value - 1);
        indexed.matches = std::move(r.matches);
      }
    }
    if (fell_back) {
      ++out.fallbacks;
      indexed = scan;
      index_hist.add(scan_seconds);
    } else {
      index_hist.add(core::Provider::kLcpVisitSeconds *
                     static_cast<double>(index_cost.vertex_visits));
    }
    fold_answer(index_digest, indexed);
    if (verify && !same_answer(scan, indexed)) ++out.mismatches;
  }
  out.p50_scan = scan_hist.quantile(0.5);
  out.p99_scan = scan_hist.quantile(0.99);
  out.p50_index = index_hist.quantile(0.5);
  out.p99_index = index_hist.quantile(0.99);
  out.digest_scan = scan_digest.finish();
  out.digest_index = index_digest.finish();
  return out;
}

// ---- cluster mode ---------------------------------------------------------

struct ClusterRun {
  std::vector<Answer> answers;
  double p50 = 0, p99 = 0;
  uint64_t index_nodes = 0;
  uint64_t index_bytes = 0;
  uint64_t fallbacks = 0;
  uint64_t oracle_mismatches = 0;
  common::Hash128 digest{};
};

ClusterRun run_cluster_one(uint64_t size, int query_count, int gpus,
                           bool use_index, bool verify) {
  Cluster cluster(gpus);
  core::ProviderConfig pcfg;
  pcfg.pool_bandwidth = 0;  // metadata-only: this ablation is about the scan
  pcfg.lcp_index = use_index;
  pcfg.lcp_index_verify = use_index && verify;
  core::EvoStoreRepository repo(cluster.rpc, cluster.provider_nodes, pcfg, {},
                                {});

  uint64_t families = (size + kMembersPerFamily - 1) / kMembersPerFamily;
  std::vector<ModelId> ids;
  auto populate = [&]() -> sim::CoTask<void> {
    auto& client = repo.client(cluster.workers[0]);
    for (uint64_t i = 0; i < size; ++i) {
      model::Model m(repo.allocate_id(), catalog_graph(i));
      m.set_quality(catalog_quality(i));
      ids.push_back(m.id());
      auto st = co_await client.put_model(m, nullptr);
      if (!st.ok()) std::printf("!! populate: %s\n", st.to_string().c_str());
    }
  };
  cluster.sim.run_until_complete(populate());

  ClusterRun out;
  common::Hasher128 digest(1);
  auto storm = [&]() -> sim::CoTask<void> {
    auto& client = repo.client(cluster.workers[0]);
    for (int q = 0; q < query_count; ++q) {
      auto r = co_await client.query_lcp(
          query_graph(static_cast<uint64_t>(q), families));
      Answer a;
      if (r.ok() && r->found) {
        a.found = true;
        a.ancestor = r->ancestor;
        a.quality = r->quality;
        a.matches = r->matches;
      }
      out.answers.push_back(std::move(a));
    }
  };
  cluster.sim.run_until_complete(storm());

  // Churn: retire a slice of the catalog, then drain one provider (its
  // models replicate-install elsewhere), then re-answer the same storm —
  // the incremental-maintenance paths must keep answers equal to the
  // scan's.
  auto churn = [&]() -> sim::CoTask<void> {
    auto& client = repo.client(cluster.workers[0]);
    for (size_t i = 0; i < ids.size(); i += 7) {
      auto st = co_await client.retire(ids[i]);
      if (!st.ok()) std::printf("!! retire: %s\n", st.to_string().c_str());
    }
  };
  cluster.sim.run_until_complete(churn());
  if (repo.provider_count() > 1) {
    auto st = cluster.sim.run_until_complete(repo.drain_provider(1));
    if (!st.ok()) std::printf("!! drain: %s\n", st.to_string().c_str());
  }
  cluster.sim.run_until_complete(storm());

  for (const Answer& a : out.answers) fold_answer(digest, a);
  out.digest = digest.finish();

  auto stats = cluster.sim.run_until_complete(
      repo.client(cluster.workers[0]).collect_stats());
  if (stats.ok()) {
    for (const auto& h : stats->totals.histograms) {
      if (h.name == "lcp.seconds") {
        out.p50 = h.p50;
        out.p99 = h.p99;
      }
    }
    out.index_nodes = stats->totals.lcp_index_nodes;
    out.index_bytes = stats->totals.lcp_index_bytes;
    out.fallbacks = stats->totals.lcp_index_fallback_scans;
  }
  for (size_t p = 0; p < repo.provider_count(); ++p) {
    out.oracle_mismatches +=
        repo.provider(p).stats().lcp_index_verify_mismatches;
  }
  return out;
}

LegResult run_cluster(uint64_t size, int query_count, int gpus, bool verify) {
  ClusterRun scan = run_cluster_one(size, query_count, gpus, false, verify);
  ClusterRun indexed = run_cluster_one(size, query_count, gpus, true, verify);
  LegResult out;
  out.p50_scan = scan.p50;
  out.p99_scan = scan.p99;
  out.p50_index = indexed.p50;
  out.p99_index = indexed.p99;
  out.index_nodes = indexed.index_nodes;
  out.index_bytes = indexed.index_bytes;
  out.fallbacks = indexed.fallbacks;
  out.oracle_mismatches = indexed.oracle_mismatches;
  out.digest_scan = scan.digest;
  out.digest_index = indexed.digest;
  for (size_t i = 0;
       i < scan.answers.size() && i < indexed.answers.size(); ++i) {
    if (!same_answer(scan.answers[i], indexed.answers[i])) ++out.mismatches;
  }
  if (scan.answers.size() != indexed.answers.size()) ++out.mismatches;
  return out;
}

std::vector<uint64_t> parse_sizes(const std::string& csv) {
  std::vector<uint64_t> sizes;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    sizes.push_back(std::strtoull(csv.substr(pos, comma - pos).c_str(),
                                  nullptr, 10));
    pos = comma + 1;
  }
  return sizes;
}

}  // namespace

int main(int argc, char** argv) {
  std::string sizes_csv =
      bench::arg_str(argc, argv, "--sizes", "1000,10000,100000");
  int query_count = bench::arg_int(argc, argv, "--queries", 64);
  int cluster_max = bench::arg_int(argc, argv, "--cluster-max", 10000);
  int gpus = bench::arg_int(argc, argv, "--gpus", 8);
  bool verify = bench::arg_flag(argc, argv, "--verify");

  bench::print_header(
      "Ablation — LCP prefix index",
      "catalog scan vs. trie-indexed find_ancestor (DESIGN.md §16)");
  std::printf("queries/size: %d, cluster legs up to %d models, %s\n\n",
              query_count, cluster_max,
              verify ? "verify ON (scan oracle per query)" : "verify OFF");
  std::printf("%-9s %-8s %12s %12s %12s %12s %9s %10s %9s %s\n", "catalog",
              "mode", "scan p50us", "scan p99us", "index p50us", "index p99us",
              "speedup", "idx nodes", "idx MiB", "answers");

  bool failed = false;
  for (uint64_t size : parse_sizes(sizes_csv)) {
    bool cluster_leg = size <= static_cast<uint64_t>(cluster_max);
    LegResult r = cluster_leg
                      ? run_cluster(size, query_count, gpus, verify)
                      : run_direct(size, query_count, verify);
    bool identical = r.digest_scan == r.digest_index && r.mismatches == 0 &&
                     r.oracle_mismatches == 0;
    double speedup = r.p50_index > 0 ? r.p50_scan / r.p50_index : 0;
    std::printf("%-9" PRIu64 " %-8s %12.3f %12.3f %12.3f %12.3f %8.1fx "
                "%10" PRIu64 " %9.2f %s\n",
                size, cluster_leg ? "cluster" : "direct", r.p50_scan * 1e6,
                r.p99_scan * 1e6, r.p50_index * 1e6, r.p99_index * 1e6,
                speedup, r.index_nodes,
                static_cast<double>(r.index_bytes) / (1024.0 * 1024.0),
                identical ? "identical" : "MISMATCH");
    if (r.fallbacks > 0) {
      std::printf("          (%" PRIu64 " fallback scans)\n", r.fallbacks);
    }
    if (!identical) {
      failed = true;
      std::printf("!! %zu per-query mismatches, %" PRIu64
                  " oracle mismatches, digests %s\n",
                  r.mismatches, r.oracle_mismatches,
                  r.digest_scan == r.digest_index ? "equal" : "DIFFER");
    }
  }
  std::printf("\nanswer digests compare the full (found, ancestor, quality, "
              "matches) tuple per query; index latency must stay flat as the "
              "scan grows linearly.\n");
  if (failed) {
    std::printf("FAILED: index answers diverged from the scan\n");
    return 1;
  }
  return 0;
}
