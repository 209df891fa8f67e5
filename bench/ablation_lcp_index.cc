// Ablation — sublinear LCP serving via the catalog prefix index
// (DESIGN.md §16; ROADMAP "Sublinear LCP" item).
//
// Sweeps catalog size and answers one question: when does the ancestry-hash
// index beat the O(catalog) Algorithm 1 scan, and by how much — with
// byte-identical answers? Each size runs two catalog shapes: fine-tune
// families of linear chains sharing a family spine with members mutated in
// the last layers, and branchy DeepSpace architectures (perfbench
// lcp_catalog's narrow space) queried with one-cell mutations of members.
// Two legs per size and shape:
//
//  * cluster mode (size <= --cluster-max): two full simulated clusters —
//    one scan-only, one with `lcp_index` (and `lcp_index_verify` under
//    --verify) — run the same metadata-only catalog, the same query storm,
//    and a retire + drain churn step; every response is compared field by
//    field and folded into a digest. Latency quantiles come from the
//    provider-side `lcp.seconds` histograms, merged exactly by the stats
//    fan-out; index footprint from the StatsResponse fields.
//  * direct mode (larger sizes, up to 1M+): in-process PrefixIndex vs. the
//    catalog scan, with graphs regenerated on demand so memory stays
//    bounded by the index itself. One pass over the catalog builds the
//    index and runs every query's scan against each member. Reported
//    latencies are the provider cost model's (deterministic:
//    kLcpPerModelSeconds * catalog + kLcpVisitSeconds * visits for the
//    scan; visits only for the index), so reruns are byte-identical.
//
// --verify additionally requires zero per-query mismatches and zero
// provider-side oracle mismatches, and exits non-zero otherwise; CI runs
// the bench twice and `cmp`s the outputs. Defaults keep CI fast; pass
// --sizes 1000,10000,100000,1000000 for the full sweep recorded in
// EXPERIMENTS.md.
#include <cinttypes>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/lcp.h"
#include "core/prefix_index.h"
#include "obs/metrics.h"
#include "tests/core/test_env.h"
#include "workload/deepspace.h"

using namespace evostore;
using bench::Cluster;
using common::ModelId;
using core::testing::widths_graph;

namespace {

constexpr int kMembersPerFamily = 64;
constexpr int kRootWidthSpread = 61;  // distinct root signatures in the mix

// Deterministic member spec -> widths. Member 0 is the family base; other
// members re-draw the last one or two layers (fine-tune-style tail
// mutations), so a family shares its spine.
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

double catalog_quality(uint64_t i) {
  // Coarse buckets so equal-depth quality and id tie-breaks fire often.
  return 0.25 * static_cast<double>(i % 4);
}

/// A catalog shape: member i's graph and query q's graph at one size.
struct Shape {
  const char* name;
  std::function<model::ArchGraph(uint64_t)> member;
  std::function<model::ArchGraph(uint64_t)> query;
};

Shape chain_shape(uint64_t size) {
  uint64_t families = (size + kMembersPerFamily - 1) / kMembersPerFamily;
  return Shape{
      "chains",
      [](uint64_t i) {
        return widths_graph(
            member_widths(i / kMembersPerFamily, i % kMembersPerFamily));
      },
      // Query q targets some family with a fresh (never stored) tail
      // mutation.
      [families](uint64_t q) {
        uint64_t family = (q * 2654435761ULL) % families;
        return widths_graph(member_widths(family, 1000000 + q));
      }};
}

Shape deepspace_shape(uint64_t size) {
  workload::DeepSpaceConfig cfg;
  cfg.input_dim = 8;
  cfg.widths = {8, 16, 24, 32};
  workload::DeepSpace space(cfg);
  // Member i's choice vector, drawn from its own seed.
  auto seq = [space](uint64_t i) {
    common::Xoshiro256 rng(0xdee95ULL + i * 0x9e3779b97f4a7c15ULL);
    return space.random(rng);
  };
  return Shape{
      "deepspace",
      [space, seq](uint64_t i) { return space.decode_graph(seq(i)); },
      // Query q mutates one cell of some member.
      [space, seq, size](uint64_t q) {
        common::Xoshiro256 rng(0x9e7ULL + q * 0xda942042e4dd58b5ULL);
        return space.decode_graph(
            space.mutate(seq((q * 2654435761ULL) % size), rng));
      }};
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

LegResult run_direct(const Shape& shape, uint64_t size, int query_count,
                     bool verify) {
  LegResult out;
  std::vector<model::ArchGraph> queries;
  for (int q = 0; q < query_count; ++q) {
    queries.push_back(shape.query(static_cast<uint64_t>(q)));
  }
  // One pass over the catalog: index each member and run every query's
  // scan against it, so only one member graph is resident at a time.
  core::PrefixIndex idx;
  core::LcpWorkspace ws;
  std::vector<core::wire::LcpQueryResponse> scans(queries.size());
  std::vector<core::LcpCost> scan_costs(queries.size());
  for (uint64_t i = 0; i < size; ++i) {
    model::ArchGraph stored = shape.member(i);
    idx.insert(ModelId{i + 1}, catalog_quality(i), stored);
    for (size_t q = 0; q < queries.size(); ++q) {
      core::LcpResult r = ws.run(queries[q], stored, &scan_costs[q]);
      if (r.length() != 0) {
        scans[q].offer(ModelId{i + 1}, catalog_quality(i),
                       std::move(r.matches));
      }
    }
  }
  out.index_nodes = idx.node_count();
  out.index_bytes = idx.memory_bytes();

  obs::Histogram scan_hist;
  obs::Histogram index_hist;
  common::Hasher128 scan_digest(1);
  common::Hasher128 index_digest(1);
  model::ArchGraph best;  // the one member the index path re-reads
  for (size_t q = 0; q < queries.size(); ++q) {
    Answer scan{scans[q].found, scans[q].ancestor, scans[q].quality,
                scans[q].matches};
    double scan_seconds =
        core::Provider::kLcpPerModelSeconds * static_cast<double>(size) +
        core::Provider::kLcpVisitSeconds *
            static_cast<double>(scan_costs[q].vertex_visits);
    scan_hist.add(scan_seconds);
    fold_answer(scan_digest, scan);

    // Index side: the provider's serving branch.
    core::LcpCost index_cost;
    core::PrefixIndex::Answer hit = idx.answer(
        queries[q],
        [&](ModelId id) {
          best = shape.member(id.value - 1);
          return &best;
        },
        ws, index_cost);
    Answer indexed;
    if (hit.needs_scan()) {
      ++out.fallbacks;
      indexed = scan;
      index_hist.add(scan_seconds);
    } else {
      indexed = Answer{hit.found, hit.ancestor, hit.quality,
                       std::move(hit.matches)};
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

ClusterRun run_cluster_one(const Shape& shape, uint64_t size, int query_count,
                           int gpus, bool use_index, bool verify) {
  Cluster cluster(gpus);
  core::ProviderConfig pcfg;
  pcfg.pool_bandwidth = 0;  // metadata-only: this ablation is about the scan
  pcfg.lcp_index = use_index;
  pcfg.lcp_index_verify = use_index && verify;
  core::EvoStoreRepository repo(cluster.rpc, cluster.provider_nodes, pcfg, {},
                                {});

  std::vector<ModelId> ids;
  auto populate = [&]() -> sim::CoTask<void> {
    auto& client = repo.client(cluster.workers[0]);
    for (uint64_t i = 0; i < size; ++i) {
      model::Model m(repo.allocate_id(), shape.member(i));
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
      auto r = co_await client.query_lcp(shape.query(static_cast<uint64_t>(q)));
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
    const auto& hists = stats->totals.histograms;
    if (auto it = hists.find("lcp.seconds"); it != hists.end()) {
      out.p50 = it->second.quantile(0.5);
      out.p99 = it->second.quantile(0.99);
    }
    out.index_nodes = stats->totals.lcp_index_nodes;
    out.index_bytes = stats->totals.lcp_index_bytes;
    out.fallbacks = stats->totals.provider.lcp_index_fallback_scans;
  }
  for (size_t p = 0; p < repo.provider_count(); ++p) {
    out.oracle_mismatches +=
        repo.provider(p).stats().lcp_index_verify_mismatches;
  }
  return out;
}

LegResult run_cluster(const Shape& shape, uint64_t size, int query_count,
                      int gpus, bool verify) {
  ClusterRun scan =
      run_cluster_one(shape, size, query_count, gpus, false, verify);
  ClusterRun indexed =
      run_cluster_one(shape, size, query_count, gpus, true, verify);
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
      "catalog scan vs. ancestry-indexed find_ancestor (DESIGN.md §16)");
  std::printf("queries/size: %d, cluster legs up to %d models, %s\n\n",
              query_count, cluster_max,
              verify ? "verify ON (scan oracle per query)" : "verify OFF");
  std::printf("%-9s %-9s %-8s %12s %12s %12s %12s %9s %10s %9s %s\n",
              "catalog", "shape", "mode", "scan p50us", "scan p99us",
              "index p50us", "index p99us", "speedup", "idx hashes",
              "idx MiB", "answers");

  bool failed = false;
  for (uint64_t size : parse_sizes(sizes_csv)) {
    bool cluster_leg = size <= static_cast<uint64_t>(cluster_max);
    for (const Shape& shape : {chain_shape(size), deepspace_shape(size)}) {
      LegResult r = cluster_leg
                        ? run_cluster(shape, size, query_count, gpus, verify)
                        : run_direct(shape, size, query_count, verify);
      bool identical = r.digest_scan == r.digest_index && r.mismatches == 0 &&
                       r.oracle_mismatches == 0;
      double speedup = r.p50_index > 0 ? r.p50_scan / r.p50_index : 0;
      std::printf("%-9" PRIu64 " %-9s %-8s %12.3f %12.3f %12.3f %12.3f %8.1fx "
                  "%10" PRIu64 " %9.2f %s\n",
                  size, shape.name, cluster_leg ? "cluster" : "direct",
                  r.p50_scan * 1e6, r.p99_scan * 1e6, r.p50_index * 1e6,
                  r.p99_index * 1e6, speedup, r.index_nodes,
                  static_cast<double>(r.index_bytes) / (1024.0 * 1024.0),
                  identical ? "identical" : "MISMATCH");
      if (r.fallbacks > 0) {
        std::printf("                    (%" PRIu64 " fallback scans)\n",
                    r.fallbacks);
      }
      if (!identical) {
        failed = true;
        std::printf("!! %zu per-query mismatches, %" PRIu64
                    " oracle mismatches, digests %s\n",
                    r.mismatches, r.oracle_mismatches,
                    r.digest_scan == r.digest_index ? "equal" : "DIFFER");
      }
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
