// Prefix-index answer equivalence (DESIGN.md §16): the indexed serving
// path must produce exactly the answer the LcpWorkspace catalog scan
// produces — on randomized chain families and on branchy DeepSpace graphs,
// both clean, where the fallback guard must never fire. Cluster-level
// tests then hold the invariant on chain and DeepSpace catalogs through
// every incremental-maintenance path: put, retire, drain, restart-rebuild,
// and anti-entropy repair; and the clean gate closes and re-arms with an
// unclean stored model. The LcpShare tests hold the
// scan-once rule of the replicated collective query (DESIGN.md §15): each
// model is scanned by one provider per query, and no answer is lost to a
// crashed or drained provider.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/lcp.h"
#include "core/placement.h"
#include "core/prefix_index.h"
#include "net/fault.h"
#include "storage/mem_kv.h"
#include "tests/core/test_env.h"
#include "workload/deepspace.h"

namespace evostore::core {
namespace {

using common::ModelId;
using common::ProviderId;
using common::VertexId;
using model::ArchGraph;
using testing::ClusterEnv;
using testing::chain_graph;
using testing::widths_graph;

struct CatalogEntry {
  ModelId id;
  double quality;
  ArchGraph graph;
};

struct Answer {
  bool found = false;
  ModelId ancestor = ModelId::invalid();
  double quality = 0;
  std::vector<std::pair<VertexId, VertexId>> matches;

  friend bool operator==(const Answer&, const Answer&) = default;
};

// The provider's scan: best by (prefix length, quality, lower id).
Answer scan_answer(const std::vector<CatalogEntry>& catalog,
                   const ArchGraph& q) {
  LcpWorkspace ws;
  Answer out;
  for (const auto& e : catalog) {
    LcpResult r = ws.run(q, e.graph, nullptr);
    if (r.length() == 0) continue;
    bool better = false;
    if (!out.found) {
      better = true;
    } else if (r.length() != out.matches.size()) {
      better = r.length() > out.matches.size();
    } else if (e.quality != out.quality) {
      better = e.quality > out.quality;
    } else {
      better = e.id < out.ancestor;
    }
    if (better) {
      out.found = true;
      out.ancestor = e.id;
      out.quality = e.quality;
      out.matches = std::move(r.matches);
    }
  }
  return out;
}

// The provider's index path: PrefixIndex::answer (the clean gate, the
// ancestry walk and one confirming run), then the scan when it hands the
// query over.
Answer index_answer(const PrefixIndex& idx,
                    const std::vector<CatalogEntry>& catalog,
                    const ArchGraph& q, bool* fell_back) {
  LcpWorkspace ws;
  LcpCost cost;
  PrefixIndex::Answer hit = idx.answer(
      q,
      [&](ModelId id) -> const ArchGraph* {
        for (const CatalogEntry& e : catalog) {
          if (e.id == id) return &e.graph;
        }
        return nullptr;
      },
      ws, cost);
  *fell_back = hit.needs_scan();
  if (*fell_back) return scan_answer(catalog, q);
  Answer out;
  out.found = hit.found;
  out.ancestor = hit.ancestor;
  out.quality = hit.quality;
  out.matches = std::move(hit.matches);
  return out;
}

std::vector<int64_t> random_widths(common::Xoshiro256& rng) {
  static constexpr int64_t kWidths[] = {8, 16, 24, 32};
  size_t len = 4 + rng.below(9);  // 4..12 layers
  std::vector<int64_t> w(len);
  for (auto& x : w) x = kWidths[rng.below(4)];
  return w;
}

TEST(LcpIndexProperty, ChainFamiliesMatchScanWithoutFallback) {
  common::Xoshiro256 rng(1234);
  for (int round = 0; round < 8; ++round) {
    // A few fine-tune families: base widths plus point-mutated members.
    std::vector<CatalogEntry> catalog;
    PrefixIndex idx;
    uint64_t next_id = 1;
    std::vector<std::vector<int64_t>> bases;
    for (int f = 0; f < 4; ++f) bases.push_back(random_widths(rng));
    for (const auto& base : bases) {
      for (int member = 0; member < 10; ++member) {
        std::vector<int64_t> w = base;
        // Mutate 0..2 positions (0 = exact duplicate architecture, which
        // exercises equal-depth quality/id tie-breaks).
        size_t muts = rng.below(3);
        for (size_t m = 0; m < muts; ++m) {
          w[1 + rng.below(w.size() - 1)] += 1 + static_cast<int64_t>(rng.below(5));
        }
        // Coarse qualities force ties often.
        double quality = 0.25 * static_cast<double>(rng.below(4));
        CatalogEntry e{ModelId{next_id++}, quality, widths_graph(w)};
        idx.insert(e.id, e.quality, e.graph);
        catalog.push_back(std::move(e));
      }
    }
    size_t found = 0;
    for (int qi = 0; qi < 60; ++qi) {
      std::vector<int64_t> w = random_widths(rng);
      if (rng.below(4) != 0) {
        // Mostly query near a family (realistic find_ancestor traffic).
        w = bases[rng.below(bases.size())];
        w[1 + rng.below(w.size() - 1)] += 1 + static_cast<int64_t>(rng.below(5));
      }
      ArchGraph q = widths_graph(w);
      bool fell_back = false;
      Answer via_index = index_answer(idx, catalog, q, &fell_back);
      Answer via_scan = scan_answer(catalog, q);
      ASSERT_EQ(via_index, via_scan)
          << "round " << round << " query " << qi;
      // Chains are inside the exactness contract: the guard never fires.
      EXPECT_FALSE(fell_back) << "round " << round << " query " << qi;
      if (via_scan.found) ++found;
    }
    EXPECT_GT(found, 0u) << "round " << round;
  }
}

TEST(LcpIndexProperty, DeepSpaceGraphsMatchScanViaGuard) {
  workload::DeepSpace space;
  common::Xoshiro256 rng(77);
  std::vector<workload::DeepSpaceSeq> seqs;
  std::vector<CatalogEntry> catalog;
  PrefixIndex idx;
  for (uint64_t i = 0; i < 80; ++i) {
    auto s = space.random(rng);
    CatalogEntry e{ModelId{i + 1}, 0.25 * static_cast<double>(rng.below(4)),
                   space.decode_graph(s)};
    idx.insert(e.id, e.quality, e.graph);
    seqs.push_back(std::move(s));
    catalog.push_back(std::move(e));
  }
  size_t found = 0;
  for (int qi = 0; qi < 120; ++qi) {
    const auto& parent = seqs[rng.below(seqs.size())];
    ArchGraph q = space.decode_graph(space.mutate(parent, rng));
    bool fell_back = false;
    Answer via_index = index_answer(idx, catalog, q, &fell_back);
    Answer via_scan = scan_answer(catalog, q);
    // DeepSpace graphs are clean and its mutated queries have one maximal
    // found vertex: the index answers every one, with the scan's answer.
    ASSERT_EQ(via_index, via_scan) << "query " << qi;
    EXPECT_FALSE(fell_back) << "query " << qi;
    if (via_scan.found) ++found;
  }
  EXPECT_GT(found, 0u);
}

// ---- cluster-level incremental maintenance --------------------------------

ProviderConfig indexed_config() {
  ProviderConfig cfg;
  cfg.pool_bandwidth = 0;  // metadata-only: these tests exercise the catalog
  cfg.lcp_index = true;
  cfg.lcp_index_verify = true;  // every query double-checked by the oracle
  return cfg;
}

ProviderConfig scan_config() {
  ProviderConfig cfg;
  cfg.pool_bandwidth = 0;
  return cfg;
}

uint64_t total_verify_mismatches(EvoStoreRepository& repo) {
  uint64_t n = 0;
  for (size_t p = 0; p < repo.provider_count(); ++p) {
    n += repo.provider(p).stats().lcp_index_verify_mismatches;
  }
  return n;
}

uint64_t total_index_answers(EvoStoreRepository& repo) {
  uint64_t n = 0;
  for (size_t p = 0; p < repo.provider_count(); ++p) {
    n += repo.provider(p).stats().lcp_index_answers;
  }
  return n;
}

void expect_index_mirrors_catalog(EvoStoreRepository& repo) {
  for (size_t p = 0; p < repo.provider_count(); ++p) {
    EXPECT_EQ(repo.provider(p).prefix_index().model_count(),
              repo.provider(p).model_count())
        << "provider " << p;
  }
}

// Chain catalog: three families of six members, mutated tails.
std::vector<ArchGraph> chain_catalog() {
  std::vector<ArchGraph> graphs;
  for (int f = 0; f < 3; ++f) {
    for (int member = 0; member < 6; ++member) {
      graphs.push_back(chain_graph(8, 16 + 8 * f, member % 4, 3 + member));
    }
  }
  return graphs;
}

std::vector<ArchGraph> chain_queries() {
  std::vector<ArchGraph> qs;
  for (int f = 0; f < 3; ++f) {
    for (int t = 0; t < 4; ++t) {
      qs.push_back(chain_graph(8, 16 + 8 * f, t % 3, 40 + t));
    }
  }
  qs.push_back(chain_graph(8, 80));  // no family: found == false
  return qs;
}

// DeepSpace catalog in perfbench lcp_catalog's narrow space: six random
// bases, each with two mutated members; queries mutate members, plus one
// unrelated architecture.
struct DeepSpaceCatalog {
  std::vector<ArchGraph> graphs;
  std::vector<ArchGraph> queries;
};

DeepSpaceCatalog deepspace_catalog() {
  workload::DeepSpaceConfig cfg;
  cfg.input_dim = 8;
  cfg.widths = {8, 16, 24, 32};
  workload::DeepSpace space(cfg);
  common::Xoshiro256 rng(91);
  DeepSpaceCatalog out;
  std::vector<workload::DeepSpaceSeq> seqs;
  for (int base = 0; base < 6; ++base) {
    seqs.push_back(space.random(rng));
    seqs.push_back(space.mutate(seqs.back(), rng));
    seqs.push_back(space.mutate(seqs.back(), rng));
  }
  for (const auto& s : seqs) out.graphs.push_back(space.decode_graph(s));
  for (int q = 0; q < 12; ++q) {
    out.queries.push_back(
        space.decode_graph(space.mutate(seqs[rng.below(seqs.size())], rng)));
  }
  out.queries.push_back(space.decode_graph(space.random(rng)));
  return out;
}

template <typename Env>
std::vector<ModelId> put_all(Env& env, const std::vector<ArchGraph>& graphs) {
  std::vector<ModelId> ids;
  auto task = [&]() -> sim::CoTask<void> {
    for (const auto& g : graphs) {
      model::Model m(env.repo->allocate_id(), g);
      m.set_quality(0.25 * static_cast<double>(m.id().value % 4));
      ids.push_back(m.id());
      auto st = co_await env.repo->client(env.worker).put_model(m, nullptr);
      EXPECT_TRUE(st.ok()) << st.to_string();
    }
  };
  env.run(task());
  return ids;
}

template <typename Env>
std::vector<wire::LcpQueryResponse> query_all(
    Env& env, const std::vector<ArchGraph>& queries) {
  std::vector<wire::LcpQueryResponse> out;
  for (const auto& g : queries) {
    auto r = env.run(env.repo->client(env.worker).query_lcp(g));
    EXPECT_TRUE(r.ok());
    out.push_back(r.ok() ? *r : wire::LcpQueryResponse{});
  }
  return out;
}

void expect_same_answers(const std::vector<wire::LcpQueryResponse>& a,
                         const std::vector<wire::LcpQueryResponse>& b,
                         const char* phase) {
  ASSERT_EQ(a.size(), b.size()) << phase;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].found, b[i].found) << phase << " query " << i;
    EXPECT_EQ(a[i].ancestor, b[i].ancestor) << phase << " query " << i;
    EXPECT_EQ(a[i].quality, b[i].quality) << phase << " query " << i;
    EXPECT_EQ(a[i].matches, b[i].matches) << phase << " query " << i;
  }
}

// Run the same workload against an indexed cluster and a scan-only cluster
// and require identical LCP responses at every step, across put, retire,
// and drain.
void put_retire_drain_matches_scan(const std::vector<ArchGraph>& graphs,
                                   const std::vector<ArchGraph>& queries) {
  ClusterEnv indexed(4, indexed_config());
  ClusterEnv scan(4, scan_config());
  std::vector<ModelId> indexed_ids = put_all(indexed, graphs);
  std::vector<ModelId> scan_ids = put_all(scan, graphs);
  ASSERT_EQ(indexed_ids, scan_ids);  // identical id streams => comparable
  expect_index_mirrors_catalog(*indexed.repo);
  expect_same_answers(query_all(indexed, queries), query_all(scan, queries),
                      "initial");

  // Retire a third of the catalog (same models in both clusters): the
  // index must drop them incrementally, no rebuild.
  for (size_t i = 0; i < indexed_ids.size(); i += 3) {
    ASSERT_TRUE(
        indexed.run(indexed.repo->retire(indexed.worker, indexed_ids[i])).ok());
    ASSERT_TRUE(scan.run(scan.repo->retire(scan.worker, scan_ids[i])).ok());
  }
  expect_index_mirrors_catalog(*indexed.repo);
  expect_same_answers(query_all(indexed, queries), query_all(scan, queries),
                      "post-retire");

  // Drain one provider: its catalog migrates to peers (replicate installs
  // must index incrementally on the receivers; the drained provider's index
  // must empty with its catalog).
  ASSERT_TRUE(indexed.run(indexed.repo->drain_provider(1)).ok());
  ASSERT_TRUE(scan.run(scan.repo->drain_provider(1)).ok());
  EXPECT_EQ(indexed.repo->provider(1).prefix_index().model_count(), 0u);
  EXPECT_EQ(indexed.repo->provider(1).prefix_index().node_count(), 0u);
  expect_index_mirrors_catalog(*indexed.repo);
  expect_same_answers(query_all(indexed, queries), query_all(scan, queries),
                      "post-drain");

  EXPECT_GT(total_index_answers(*indexed.repo), 0u);
  EXPECT_EQ(total_verify_mismatches(*indexed.repo), 0u);
  EXPECT_EQ(total_index_answers(*scan.repo), 0u);  // flag off => pure scan
}

TEST(LcpIndexMaintenance, PutRetireDrainKeepAnswersIdenticalToScan) {
  put_retire_drain_matches_scan(chain_catalog(), chain_queries());
}

TEST(LcpIndexMaintenance, DeepSpacePutRetireDrainKeepAnswersIdenticalToScan) {
  DeepSpaceCatalog cat = deepspace_catalog();
  put_retire_drain_matches_scan(cat.graphs, cat.queries);
}

// Backed cluster with a fault injector: crash-restart must REBUILD the
// index from the restored catalog, and anti-entropy repair must index the
// replicate-installed models on the rebuilt provider.
struct BackedEnv {
  std::vector<std::unique_ptr<storage::MemKv>> backends;
  sim::Simulation sim;
  net::Fabric fabric;
  net::RpcSystem rpc;
  net::FaultInjector injector;
  std::vector<common::NodeId> provider_nodes;
  common::NodeId worker;
  std::unique_ptr<EvoStoreRepository> repo;

  explicit BackedEnv(int providers, ProviderConfig config)
      : fabric(sim,
               net::FabricConfig{.latency = 1.5e-6, .local_latency = 2e-7}),
        rpc(fabric),
        injector(sim, net::FaultConfig{.seed = 11,
                                       .loss_detect_seconds = 0.005}) {
    rpc.set_fault_injector(&injector);
    std::vector<storage::KvStore*> raw;
    for (int i = 0; i < providers; ++i) {
      provider_nodes.push_back(fabric.add_node(25e9, 25e9));
      backends.push_back(std::make_unique<storage::MemKv>());
      raw.push_back(backends.back().get());
    }
    worker = fabric.add_node(25e9, 25e9);
    ClientConfig cc;
    cc.rpc_timeout = 0.02;
    cc.retry.max_attempts = 2;
    cc.retry.initial_backoff = 0.005;
    cc.retry.max_backoff = 0.01;
    repo = std::make_unique<EvoStoreRepository>(rpc, provider_nodes, config,
                                                raw, cc);
  }

  template <typename T>
  T run(sim::CoTask<T> task) {
    return sim.run_until_complete(std::move(task));
  }

  void settle(double seconds) {
    auto idle = [this, seconds]() -> sim::CoTask<void> {
      co_await sim.delay(seconds);
    };
    run(idle());
  }
};

// Answers before a crash-restart, after it, and after a wiped provider is
// repaired must all equal a scan-only cluster's.
void restart_and_repair_match_scan(const std::vector<ArchGraph>& graphs,
                                   const std::vector<ArchGraph>& queries) {
  BackedEnv env(3, indexed_config());
  BackedEnv scan(3, scan_config());
  ASSERT_EQ(put_all(env, graphs), put_all(scan, graphs));
  expect_index_mirrors_catalog(*env.repo);
  const auto reference = query_all(scan, queries);
  expect_same_answers(query_all(env, queries), reference, "initial");

  // Crash + restart with the backend intact: the catalog restores and the
  // index is REBUILT from it (it is never persisted).
  env.injector.crash_node(env.provider_nodes[1]);
  env.injector.restart_node(env.provider_nodes[1]);
  env.settle(2.0);
  EXPECT_GE(env.repo->provider(1).stats().restarts, 1u);
  expect_index_mirrors_catalog(*env.repo);
  expect_same_answers(query_all(env, queries), reference, "post-restart");

  // Permanent loss: wipe the backend, restart empty, repair from peers.
  // The replicate-install path must feed the index on the rebuilt provider.
  constexpr ProviderId kLost = 0;
  env.injector.crash_node(env.provider_nodes[kLost]);
  for (const std::string& key : env.backends[kLost]->keys()) {
    ASSERT_TRUE(env.backends[kLost]->erase(key).ok());
  }
  env.injector.restart_node(env.provider_nodes[kLost]);
  env.settle(0.1);
  ASSERT_EQ(env.repo->provider(kLost).model_count(), 0u);
  EXPECT_EQ(env.repo->provider(kLost).prefix_index().model_count(), 0u);

  ASSERT_TRUE(env.run(env.repo->repair_provider(kLost)).ok());
  EXPECT_GT(env.repo->provider(kLost).model_count(), 0u);
  expect_index_mirrors_catalog(*env.repo);
  expect_same_answers(query_all(env, queries), reference, "post-repair");
  EXPECT_EQ(total_verify_mismatches(*env.repo), 0u);
  EXPECT_GT(total_index_answers(*env.repo), 0u);
}

TEST(LcpIndexMaintenance, RestartRebuildsAndRepairReindexes) {
  std::vector<ArchGraph> graphs;
  for (int member = 0; member < 8; ++member) {
    graphs.push_back(chain_graph(8, 16, 1 + member % 4, 3 + member));
  }
  restart_and_repair_match_scan(graphs, graphs);
}

TEST(LcpIndexMaintenance, DeepSpaceRestartRebuildsAndRepairReindexes) {
  DeepSpaceCatalog cat = deepspace_catalog();
  restart_and_repair_match_scan(cat.graphs, cat.queries);
}

uint64_t total_fallback_scans(EvoStoreRepository& repo) {
  uint64_t n = 0;
  for (size_t p = 0; p < repo.provider_count(); ++p) {
    n += repo.provider(p).stats().lcp_index_fallback_scans;
  }
  return n;
}

// One stored model with twins closes the clean gate: every query goes to
// the scan until it retires, and then the index answers again.
TEST(LcpIndexMaintenance, TwinModelClosesGateUntilRetired) {
  // Two providers at replication 2: each stores every model.
  ClusterEnv env(2, indexed_config());
  const std::vector<ArchGraph> chains = {
      chain_graph(6, 16), chain_graph(6, 16, 2, 5), chain_graph(6, 24)};
  const std::vector<ModelId> ids = put_all(env, chains);
  std::vector<model::LayerDef> defs;
  defs.push_back(model::make_input(16));
  defs.push_back(model::make_dense(16, 16));
  defs.push_back(model::make_dense(16, 16));
  defs.push_back(model::make_dense(16, 8));
  auto twins = ArchGraph::from_parts(std::move(defs),
                                     {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  ASSERT_TRUE(twins.ok());
  const ModelId twin = put_all(env, {twins.value()})[0];
  for (size_t p = 0; p < env.repo->provider_count(); ++p) {
    EXPECT_FALSE(env.repo->provider(p).prefix_index().all_clean()) << p;
  }

  auto query_each = [&](uint64_t index_answers, uint64_t scans) {
    for (size_t i = 0; i < chains.size(); ++i) {
      const uint64_t answers0 = total_index_answers(*env.repo);
      const uint64_t scans0 = total_fallback_scans(*env.repo);
      auto r = env.run(env.client().query_lcp(chains[i]));
      ASSERT_TRUE(r.ok()) << i;
      EXPECT_EQ(r->ancestor, ids[i]) << i;
      EXPECT_EQ(total_index_answers(*env.repo) - answers0, index_answers) << i;
      EXPECT_EQ(total_fallback_scans(*env.repo) - scans0, scans) << i;
    }
  };
  query_each(0, 2);  // both providers scan
  ASSERT_TRUE(env.run(env.repo->retire(env.worker, twin)).ok());
  expect_index_mirrors_catalog(*env.repo);
  query_each(2, 0);  // both providers answer from the index
  EXPECT_EQ(total_verify_mismatches(*env.repo), 0u);
}

// ---- scan-once collective LCP under replication ---------------------------

// 30 pairwise distinct chains of one length: each graph's own model is its
// unique full-length answer.
std::vector<ArchGraph> thirty_chains() {
  std::vector<ArchGraph> out;
  for (int i = 0; i < 30; ++i) {
    out.push_back(chain_graph(6, 16, 1 + i % 6, 3 + i));
  }
  return out;
}

std::vector<ModelId> populate(BackedEnv& env,
                              const std::vector<ArchGraph>& graphs) {
  std::vector<ModelId> ids;
  auto task = [&]() -> sim::CoTask<void> {
    for (const auto& g : graphs) {
      model::Model m(env.repo->allocate_id(), g);
      m.set_quality(0.5);
      ids.push_back(m.id());
      auto st = co_await env.repo->client(env.worker).put_model(m, nullptr);
      EXPECT_TRUE(st.ok()) << st.to_string();
    }
  };
  env.run(task());
  return ids;
}

uint64_t total_models_scanned(EvoStoreRepository& repo) {
  uint64_t n = 0;
  for (size_t p = 0; p < repo.provider_count(); ++p) {
    n += repo.provider(p).stats().lcp_models_scanned;
  }
  return n;
}

// The provider that is first replica of the most models.
ProviderId busiest_primary(const std::vector<ModelId>& ids, size_t providers) {
  std::vector<size_t> count(providers, 0);
  for (ModelId id : ids) ++count[provider_for(id, providers)];
  return static_cast<ProviderId>(
      std::max_element(count.begin(), count.end()) - count.begin());
}

// Query every graph; each answer must be complete, and each query must scan
// every stored model exactly once cluster-wide.
std::vector<wire::LcpQueryResponse> query_each_scanning_once(
    BackedEnv& env, const std::vector<ArchGraph>& graphs, size_t catalog,
    const char* phase) {
  std::vector<wire::LcpQueryResponse> out;
  for (size_t i = 0; i < graphs.size(); ++i) {
    const uint64_t before = total_models_scanned(*env.repo);
    auto r = env.run(env.repo->client(env.worker).query_lcp(graphs[i]));
    EXPECT_TRUE(r.ok()) << phase << " query " << i;
    EXPECT_EQ(total_models_scanned(*env.repo) - before, catalog)
        << phase << " query " << i;
    out.push_back(r.ok() ? *r : wire::LcpQueryResponse{});
  }
  return out;
}

TEST(LcpShare, CrashedProviderShareIsCoveredBySurvivors) {
  BackedEnv env(5, scan_config());
  const auto graphs = thirty_chains();
  const auto ids = populate(env, graphs);
  auto healthy = query_each_scanning_once(env, graphs, ids.size(), "healthy");
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(healthy[i].ancestor, ids[i]) << i;
    EXPECT_FALSE(healthy[i].partial) << i;
  }

  // Crash the first replica of the most models and leave it down: round 1
  // misses its share, and the cover round has the next replicas scan it.
  const ProviderId down = busiest_primary(ids, 5);
  env.injector.crash_node(env.provider_nodes[down]);
  auto degraded = query_each_scanning_once(env, graphs, ids.size(), "crashed");
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_TRUE(degraded[i].found) << i;
    EXPECT_EQ(degraded[i].ancestor, ids[i]) << i;
    EXPECT_EQ(degraded[i].matches, healthy[i].matches) << i;
    EXPECT_TRUE(degraded[i].partial) << i;  // a provider was unreachable
  }
}

TEST(LcpShare, DrainKeepsEveryAnswerAndScansOnce) {
  BackedEnv env(5, scan_config());
  const auto graphs = thirty_chains();
  const auto ids = populate(env, graphs);
  auto before = query_each_scanning_once(env, graphs, ids.size(), "before");

  // After the drain, each of the drained provider's models has a new first
  // replica that already held it.
  ASSERT_TRUE(env.run(env.repo->drain_provider(busiest_primary(ids, 5))).ok());
  auto after = query_each_scanning_once(env, graphs, ids.size(), "drained");
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(before[i].ancestor, ids[i]) << i;
    EXPECT_EQ(after[i].found, before[i].found) << i;
    EXPECT_EQ(after[i].ancestor, before[i].ancestor) << i;
    EXPECT_EQ(after[i].quality, before[i].quality) << i;
    EXPECT_EQ(after[i].matches, before[i].matches) << i;
    EXPECT_FALSE(after[i].partial) << i;
  }
}

}  // namespace
}  // namespace evostore::core
