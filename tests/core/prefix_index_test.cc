// Unit tests for the catalog prefix index (DESIGN.md §16): ancestry
// hashes, the clean gate, the Bound and Exact lemmas over randomized graph
// families, the serving branch's outcomes, insert/remove/clear
// maintenance, memory accounting, and insertion-order independence.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/lcp.h"
#include "core/prefix_index.h"
#include "core/wire.h"
#include "model/layer.h"
#include "nas/attn_space.h"
#include "tests/core/test_env.h"
#include "workload/deepspace.h"

namespace evostore::core {
namespace {

using common::Hash128;
using common::ModelId;
using common::VertexId;
using model::ArchGraph;
using testing::chain_graph;
using testing::widths_graph;

ArchGraph from_parts(std::vector<model::LayerDef> defs,
                     std::vector<std::pair<VertexId, VertexId>> edges) {
  auto g = ArchGraph::from_parts(std::move(defs), std::move(edges));
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

bool clean(const ArchGraph& g) {
  bool ok = false;
  (void)ancestry_hashes(g, &ok);
  return ok;
}

size_t shared_hashes(const ArchGraph& a, const ArchGraph& b) {
  auto ha = ancestry_hashes(a);
  auto hb = ancestry_hashes(b);
  std::set<Hash128> held(hb.begin(), hb.end());
  return static_cast<size_t>(std::count_if(
      ha.begin(), ha.end(), [&](const Hash128& h) { return held.count(h); }));
}

// 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, with 1 and 2 the same layer.
ArchGraph diamond() {
  std::vector<model::LayerDef> defs;
  defs.push_back(model::make_input(8));
  defs.push_back(model::make_dense(8, 8));
  defs.push_back(model::make_dense(8, 8));
  defs.push_back(model::make_dense(16, 8));
  return from_parts(std::move(defs), {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
}

// The serving branch over an in-memory catalog.
PrefixIndex::Answer serve(const PrefixIndex& idx,
                          const std::vector<std::pair<ModelId, ArchGraph>>& cat,
                          const ArchGraph& q) {
  LcpWorkspace ws;
  LcpCost cost;
  return idx.answer(
      q,
      [&](ModelId id) -> const ArchGraph* {
        for (const auto& [mid, g] : cat) {
          if (mid == id) return &g;
        }
        return nullptr;
      },
      ws, cost);
}

TEST(AncestryHash, ChainHashesCoverEveryVertex) {
  auto g = chain_graph(6, 16);
  auto h = ancestry_hashes(g);
  ASSERT_EQ(h.size(), g.size());
  EXPECT_TRUE(std::none_of(h.begin(), h.end(),
                           [](const Hash128& x) { return x.is_zero(); }));
  EXPECT_TRUE(clean(g));
  EXPECT_TRUE(ancestry_hashes(ArchGraph{}).empty());
}

TEST(AncestryHash, ChainsShareHashesExactlyToDivergence) {
  auto base = widths_graph({8, 16, 16, 16, 16});
  // Mutate at layer 3 (vertex 3): shares vertices 0..2, and every vertex
  // below the mutation inherits it through its ancestry.
  EXPECT_EQ(shared_hashes(base, widths_graph({8, 16, 16, 24, 16})), 3u);
  // Different root width: not even H(0) in common.
  EXPECT_EQ(shared_hashes(base, widths_graph({9, 16, 16, 16, 16})), 0u);
  // Identical graphs built independently share everything.
  EXPECT_EQ(shared_hashes(base, widths_graph({8, 16, 16, 16, 16})),
            base.size());
}

// The hash ignores vertex ids: a DAG whose ids are not a topological
// order, and the same DAG renumbered, hash to the same multiset.
TEST(AncestryHash, IgnoresVertexIds) {
  std::vector<model::LayerDef> defs;
  defs.push_back(model::make_input(8));
  defs.push_back(model::make_dense(8, 8));
  defs.push_back(model::make_dense(8, 16));
  defs.push_back(model::make_dense(16, 8));
  // 0 -> 1, 0 -> 2, 2 -> 3, 3 -> 1: vertex 1 has predecessor 3 > 1.
  auto g = from_parts(defs, {{0, 1}, {0, 2}, {2, 3}, {3, 1}});
  EXPECT_TRUE(clean(g));
  // Renumber 1 <-> 3 (ids now topological).
  std::swap(defs[1], defs[3]);
  auto renumbered = from_parts(defs, {{0, 3}, {0, 2}, {2, 1}, {1, 3}});
  auto a = ancestry_hashes(g);
  auto b = ancestry_hashes(renumbered);
  EXPECT_EQ(a[1], b[3]);
  EXPECT_EQ(a[3], b[1]);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(AncestryHash, DiamondHasTwinsAndIsNotClean) {
  auto g = diamond();
  auto h = ancestry_hashes(g);
  EXPECT_EQ(h[1], h[2]);  // same layer, same ancestry: twins
  EXPECT_FALSE(h[3].is_zero());
  EXPECT_FALSE(clean(g));
}

TEST(AncestryHash, UncleanShapes) {
  auto layers = [](size_t n) {
    std::vector<model::LayerDef> defs;
    defs.push_back(model::make_input(8));
    for (size_t i = 1; i < n; ++i) {
      defs.push_back(model::make_dense(8, 8 * static_cast<int64_t>(i + 1)));
    }
    return defs;
  };
  // A cycle below vertex 0: 1 and 2 never become hashable.
  auto cycle = from_parts(layers(3), {{0, 1}, {1, 2}, {2, 1}});
  EXPECT_FALSE(clean(cycle));
  EXPECT_TRUE(ancestry_hashes(cycle)[2].is_zero());
  // A second source.
  EXPECT_FALSE(clean(from_parts(layers(3), {{0, 1}, {2, 1}})));
  // A duplicate edge.
  EXPECT_FALSE(clean(from_parts(layers(2), {{0, 1}, {0, 1}})));
  // Vertex 0 with a predecessor.
  EXPECT_FALSE(clean(from_parts(layers(2), {{0, 1}, {1, 0}})));
  EXPECT_TRUE(clean(from_parts(layers(2), {{0, 1}})));
}

// ---- the two lemmas over randomized graph families ------------------------

// Bound: every pair Algorithm 1 binds has equal hashes. Exact: on clean
// pairs the bound set is M_a, the query vertices whose hash `a` holds.
// Returns whether the pair was clean.
bool check_lemmas(const ArchGraph& g, const ArchGraph& a) {
  bool g_clean = false;
  bool a_clean = false;
  auto hg = ancestry_hashes(g, &g_clean);
  auto ha = ancestry_hashes(a, &a_clean);
  LcpResult r = longest_common_prefix(g, a);
  for (auto [v, w] : r.matches) {
    EXPECT_FALSE(hg[v].is_zero()) << "bound vertex " << v << " unhashed";
    EXPECT_EQ(hg[v], ha[w]) << "bound pair (" << v << ", " << w << ")";
  }
  if (!g_clean || !a_clean) return false;
  std::set<Hash128> held(ha.begin(), ha.end());
  std::vector<VertexId> m_a;
  for (VertexId v = 0; v < g.size(); ++v) {
    if (held.count(hg[v]) != 0) m_a.push_back(v);
  }
  std::vector<VertexId> bound;
  for (auto [v, w] : r.matches) bound.push_back(v);
  EXPECT_EQ(bound, m_a);
  return true;
}

template <typename Space, typename Decode>
void deep_pairs(const Space& space, Decode decode, uint64_t seed, int pairs,
                size_t* clean_pairs) {
  common::Xoshiro256 rng(seed);
  for (int i = 0; i < pairs; ++i) {
    auto s = space.random(rng);
    ArchGraph a = decode(s);
    // Mostly related pairs (a mutated query), some unrelated ones.
    ArchGraph g = rng.below(4) != 0 ? decode(space.mutate(s, rng))
                                    : decode(space.random(rng));
    if (check_lemmas(g, a)) ++*clean_pairs;
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(AncestryLemmas, DeepSpaceDefaultAndCatalogConfigs) {
  workload::DeepSpaceConfig narrow;  // perfbench lcp_catalog's space
  narrow.input_dim = 8;
  narrow.widths = {8, 16, 24, 32};
  for (const auto& cfg : {workload::DeepSpaceConfig{}, narrow}) {
    workload::DeepSpace space(cfg);
    size_t clean_pairs = 0;
    deep_pairs(
        space, [&](const auto& s) { return space.decode_graph(s); }, 41, 400,
        &clean_pairs);
    // DeepSpace graphs have no twins: every pair is clean.
    EXPECT_EQ(clean_pairs, 400u);
  }
}

TEST(AncestryLemmas, CandleAttn) {
  nas::AttnSearchSpace space;
  size_t clean_pairs = 0;
  deep_pairs(
      space, [&](const auto& s) { return space.decode(s); }, 43, 300,
      &clean_pairs);
  EXPECT_EQ(clean_pairs, 300u);
}

TEST(AncestryLemmas, ChainFamilies) {
  common::Xoshiro256 rng(45);
  for (int i = 0; i < 400; ++i) {
    std::vector<int64_t> w(3 + rng.below(8));
    for (auto& x : w) x = 8 * static_cast<int64_t>(1 + rng.below(3));
    std::vector<int64_t> q = w;
    q[rng.below(q.size())] += 8;
    if (rng.below(3) == 0) q.resize(1 + rng.below(q.size()));
    EXPECT_TRUE(check_lemmas(widths_graph(q), widths_graph(w)));
  }
}

// Small random DAGs over two layer kinds, so twins are common: vertex v > 0
// takes 1..3 distinct predecessors among lower ids.
ArchGraph random_dag(common::Xoshiro256& rng) {
  size_t n = 2 + rng.below(8);
  std::vector<model::LayerDef> defs;
  defs.push_back(model::make_input(8));
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 1; v < n; ++v) {
    defs.push_back(model::make_dense(8, 8 + 8 * static_cast<int64_t>(
                                                   rng.below(2))));
    std::set<VertexId> preds;
    size_t k = 1 + rng.below(std::min<size_t>(3, v));
    while (preds.size() < k) preds.insert(static_cast<VertexId>(rng.below(v)));
    for (VertexId p : preds) edges.emplace_back(p, v);
  }
  return from_parts(std::move(defs), std::move(edges));
}

TEST(AncestryLemmas, RandomDagsWithTwins) {
  common::Xoshiro256 rng(47);
  size_t clean_pairs = 0;
  size_t unclean_graphs = 0;
  for (int i = 0; i < 3000; ++i) {
    ArchGraph a = random_dag(rng);
    ArchGraph g = random_dag(rng);
    if (!clean(a)) ++unclean_graphs;
    if (check_lemmas(g, a)) ++clean_pairs;
    ASSERT_FALSE(HasFailure()) << "pair " << i;
  }
  // Both branches of the check ran many times.
  EXPECT_GT(clean_pairs, 300u);
  EXPECT_GT(unclean_graphs, 300u);
}

// ---- the serving branch ----------------------------------------------------

// With parallel branches, Algorithm 1 can match a deeper prefix through
// one branch while the other diverges right after the root. The ancestry
// walk finds exactly that prefix and answers it with no scan.
TEST(PrefixIndex, BranchyLcpAnsweredAtFullLength) {
  auto make = [](int64_t branch_x_width) {
    std::vector<model::LayerDef> defs;
    defs.push_back(model::make_input(8));
    defs.push_back(model::make_dense(branch_x_width, 8));  // branch X
    defs.push_back(model::make_dense(12, 8));              // branch Y
    defs.push_back(model::make_dense(12, 12));             // Y's tail
    return from_parts(std::move(defs), {{0, 1}, {0, 2}, {2, 3}});
  };
  std::vector<std::pair<ModelId, ArchGraph>> cat;
  cat.emplace_back(ModelId{1}, make(10));
  auto q = make(11);  // branch X mutated; branch Y identical
  PrefixIndex idx;
  idx.insert(cat[0].first, 0.5, cat[0].second);
  auto ans = serve(idx, cat, q);
  EXPECT_EQ(ans.outcome, IndexOutcome::kIndex);
  EXPECT_EQ(ans.lookup.depth, 3u);
  EXPECT_EQ(ans.lookup.maximal, 1u);
  ASSERT_TRUE(ans.found);
  EXPECT_EQ(ans.ancestor, ModelId{1});
  EXPECT_EQ(ans.matches.size(), 3u);
  LcpWorkspace ws;
  EXPECT_EQ(ws.run(q, cat[0].second, nullptr).matches, ans.matches);
}

// Why several maximal vertices must scan: query r->A->A2 plus r->B->B2
// against m1 = r->A->A2, m2 = r->B->B2 and m3 = r->A plus r->B. All three
// tie at length 3; m3 wins on quality, yet holds neither maximal hash.
TEST(PrefixIndex, SeveralMaximalVerticesFallBackToScan) {
  const auto r = model::make_input(8);
  const auto A = model::make_dense(8, 16);
  const auto A2 = model::make_dense(16, 24);
  const auto B = model::make_dense(8, 32);
  const auto B2 = model::make_dense(32, 40);
  auto q = from_parts({r, A, B, A2, B2}, {{0, 1}, {0, 2}, {1, 3}, {2, 4}});
  std::vector<std::pair<ModelId, ArchGraph>> cat;
  cat.emplace_back(ModelId{1}, from_parts({r, A, A2}, {{0, 1}, {1, 2}}));
  cat.emplace_back(ModelId{2}, from_parts({r, B, B2}, {{0, 1}, {1, 2}}));
  cat.emplace_back(ModelId{3}, from_parts({r, A, B}, {{0, 1}, {0, 2}}));
  PrefixIndex idx;
  idx.insert(ModelId{1}, 0.5, cat[0].second);
  idx.insert(ModelId{2}, 0.5, cat[1].second);
  idx.insert(ModelId{3}, 0.9, cat[2].second);
  EXPECT_TRUE(idx.all_clean());

  auto ans = serve(idx, cat, q);
  EXPECT_EQ(ans.outcome, IndexOutcome::kBranchyScan);
  EXPECT_EQ(ans.lookup.depth, 5u);
  EXPECT_EQ(ans.lookup.maximal, 2u);
  EXPECT_FALSE(ans.found);

  // The scan the caller then serves picks m3.
  wire::LcpQueryResponse scan;
  LcpWorkspace ws;
  for (const auto& [id, g] : cat) {
    LcpResult lcp = ws.run(q, g, nullptr);
    EXPECT_EQ(lcp.length(), 3u);
    scan.offer(id, id == ModelId{3} ? 0.9 : 0.5, std::move(lcp.matches));
  }
  EXPECT_EQ(scan.ancestor, ModelId{3});
}

TEST(PrefixIndex, CleanGateTracking) {
  std::vector<std::pair<ModelId, ArchGraph>> cat;
  cat.emplace_back(ModelId{1}, chain_graph(4, 16));
  PrefixIndex idx;
  EXPECT_TRUE(idx.all_clean());
  idx.insert(ModelId{1}, 0.5, cat[0].second);
  EXPECT_TRUE(idx.all_clean());
  EXPECT_EQ(serve(idx, cat, chain_graph(4, 16)).outcome, IndexOutcome::kIndex);

  idx.insert(ModelId{2}, 0.5, diamond());
  EXPECT_FALSE(idx.all_clean());
  // Unclean models are still counted (the catalog mirror stays exact)...
  EXPECT_EQ(idx.model_count(), 2u);
  // ...every query goes to the scan while one is present...
  EXPECT_EQ(serve(idx, cat, chain_graph(4, 16)).outcome,
            IndexOutcome::kUncleanScan);
  // ...and the index re-arms once the last one leaves.
  ASSERT_TRUE(idx.remove(ModelId{2}, diamond()));
  EXPECT_FALSE(idx.remove(ModelId{2}, diamond()));
  EXPECT_TRUE(idx.all_clean());
  EXPECT_EQ(serve(idx, cat, chain_graph(4, 16)).outcome, IndexOutcome::kIndex);
  idx.insert(ModelId{3}, 0.5, diamond());
  EXPECT_FALSE(idx.all_clean());
  idx.clear();
  EXPECT_TRUE(idx.all_clean());

  // An unclean query scans too, once its walk reaches the twins.
  idx.insert(ModelId{4}, 0.5, chain_graph(4, 16));
  std::vector<model::LayerDef> defs;
  defs.push_back(model::make_input(16));
  defs.push_back(model::make_dense(16, 16));
  defs.push_back(model::make_dense(16, 16));
  auto twins = from_parts(std::move(defs), {{0, 1}, {0, 2}});
  EXPECT_EQ(serve(idx, cat, twins).outcome, IndexOutcome::kUncleanScan);
}

TEST(PrefixIndex, LookupPicksDeepestThenQualityThenId) {
  PrefixIndex idx;
  auto shallow = widths_graph({8, 16, 24});        // shares 2 with query
  auto deep_a = widths_graph({8, 16, 16, 32});     // shares 3
  auto deep_b = widths_graph({8, 16, 16, 33});     // shares 3
  idx.insert(ModelId{1}, 0.9, shallow);
  idx.insert(ModelId{2}, 0.5, deep_a);
  idx.insert(ModelId{3}, 0.8, deep_b);
  EXPECT_EQ(idx.model_count(), 3u);

  auto query = widths_graph({8, 16, 16, 34});
  auto hit = idx.lookup(query);
  ASSERT_TRUE(hit.found);
  EXPECT_EQ(hit.depth, 3u);  // vertices 0..2 shared with the deep pair
  EXPECT_EQ(hit.candidates, 2u);
  // Depth beats quality (model 1 has 0.9 but only depth 2), then quality
  // picks model 3 over model 2.
  EXPECT_EQ(hit.best, ModelId{3});
  EXPECT_DOUBLE_EQ(hit.best_quality, 0.8);
  EXPECT_GT(hit.visits, 0u);

  // Equal quality at equal depth: lowest id wins.
  idx.insert(ModelId{9}, 0.8, widths_graph({8, 16, 16, 35}));
  EXPECT_EQ(idx.lookup(query).best, ModelId{3});
  idx.insert(ModelId{1}, 0.8, widths_graph({8, 16, 16, 36}));
  EXPECT_EQ(idx.lookup(query).best, ModelId{1});
}

TEST(PrefixIndex, LookupMissesUnknownRoot) {
  PrefixIndex idx;
  idx.insert(ModelId{1}, 0.5, widths_graph({8, 16}));
  auto hit = idx.lookup(widths_graph({9, 16}));
  EXPECT_FALSE(hit.found);
  EXPECT_EQ(hit.depth, 0u);
}

TEST(PrefixIndex, RemoveRecomputesAggregatesAndPrunes) {
  PrefixIndex idx;
  auto a = widths_graph({8, 16, 16, 16});
  auto b = widths_graph({8, 16, 24, 24});
  idx.insert(ModelId{1}, 0.9, a);
  idx.insert(ModelId{2}, 0.4, b);
  size_t nodes_both = idx.node_count();
  // Both paths share vertices 0..1 then split: 2 + 2 + 2 nodes.
  EXPECT_EQ(nodes_both, 6u);

  auto query = widths_graph({8, 16, 16, 16});
  EXPECT_EQ(idx.lookup(query).best, ModelId{1});

  // Removing the best along the query path re-aggregates down to model 2
  // at the shared depth, and prunes model 1's divergent tail nodes.
  ASSERT_TRUE(idx.remove(ModelId{1}, a));
  EXPECT_EQ(idx.model_count(), 1u);
  EXPECT_EQ(idx.node_count(), 4u);
  auto hit = idx.lookup(query);
  ASSERT_TRUE(hit.found);
  EXPECT_EQ(hit.depth, 2u);
  EXPECT_EQ(hit.best, ModelId{2});

  // Unknown id / wrong graph: refused, nothing changes.
  EXPECT_FALSE(idx.remove(ModelId{1}, a));
  EXPECT_FALSE(idx.remove(ModelId{2}, a));
  EXPECT_EQ(idx.model_count(), 1u);

  ASSERT_TRUE(idx.remove(ModelId{2}, b));
  EXPECT_EQ(idx.model_count(), 0u);
  EXPECT_EQ(idx.node_count(), 0u);
  EXPECT_FALSE(idx.lookup(query).found);
}

// Removal keeps the table intact: after random removals every lookup
// equals the one an index built from the survivors alone gives.
TEST(PrefixIndex, RandomRemovalsMatchRebuild) {
  workload::DeepSpaceConfig cfg;
  cfg.input_dim = 8;
  cfg.widths = {8, 16, 24, 32};
  workload::DeepSpace space(cfg);
  common::Xoshiro256 rng(53);
  std::vector<workload::DeepSpaceSeq> seqs;
  std::vector<ArchGraph> graphs;
  PrefixIndex churned;
  for (uint64_t i = 0; i < 300; ++i) {
    seqs.push_back(i % 3 == 0 || seqs.empty()
                       ? space.random(rng)
                       : space.mutate(seqs[rng.below(seqs.size())], rng));
    graphs.push_back(space.decode_graph(seqs.back()));
    churned.insert(ModelId{i + 1}, 0.25 * static_cast<double>(i % 4),
                   graphs.back());
  }
  PrefixIndex rebuilt;
  for (uint64_t i = 0; i < graphs.size(); ++i) {
    if (rng.below(2) == 0) {
      ASSERT_TRUE(churned.remove(ModelId{i + 1}, graphs[i])) << i;
    } else {
      rebuilt.insert(ModelId{i + 1}, 0.25 * static_cast<double>(i % 4),
                     graphs[i]);
    }
  }
  EXPECT_EQ(churned.model_count(), rebuilt.model_count());
  EXPECT_EQ(churned.node_count(), rebuilt.node_count());
  for (int q = 0; q < 200; ++q) {
    ArchGraph query =
        space.decode_graph(space.mutate(seqs[rng.below(seqs.size())], rng));
    auto a = churned.lookup(query);
    auto b = rebuilt.lookup(query);
    EXPECT_EQ(a.depth, b.depth) << q;
    EXPECT_EQ(a.maximal, b.maximal) << q;
    EXPECT_EQ(a.best, b.best) << q;
    EXPECT_EQ(a.candidates, b.candidates) << q;
  }
}

TEST(PrefixIndex, ClearAndMemoryAccounting) {
  PrefixIndex idx;
  size_t empty_bytes = idx.memory_bytes();
  idx.insert(ModelId{1}, 0.5, chain_graph(8, 16));
  idx.insert(ModelId{2}, 0.5, chain_graph(8, 16, 2, 5));
  EXPECT_GT(idx.memory_bytes(), empty_bytes);
  size_t two_bytes = idx.memory_bytes();
  idx.insert(ModelId{3}, 0.5, chain_graph(8, 16, 4, 9));
  EXPECT_GT(idx.memory_bytes(), two_bytes);
  idx.clear();
  EXPECT_EQ(idx.model_count(), 0u);
  EXPECT_EQ(idx.node_count(), 0u);
  EXPECT_EQ(idx.memory_bytes(), empty_bytes);
  EXPECT_FALSE(idx.lookup(chain_graph(8, 16)).found);
}

TEST(PrefixIndex, InsertionOrderDoesNotMatter) {
  std::vector<std::pair<ModelId, model::ArchGraph>> models;
  for (uint64_t i = 0; i < 12; ++i) {
    // Distinct per-model mutated tails (varying length AND salt) so every
    // graph's last vertex has a hash no other model holds.
    models.emplace_back(
        ModelId{i + 1},
        chain_graph(10, 16, 1 + static_cast<int>(i % 5),
                    3 + static_cast<int64_t>(i)));
  }
  PrefixIndex fwd;
  PrefixIndex rev;
  for (const auto& [id, g] : models) fwd.insert(id, 0.5, g);
  for (auto it = models.rbegin(); it != models.rend(); ++it) {
    rev.insert(it->first, 0.5, it->second);
  }
  EXPECT_EQ(fwd.node_count(), rev.node_count());
  EXPECT_EQ(fwd.memory_bytes(), rev.memory_bytes());
  for (const auto& [id, g] : models) {
    auto a = fwd.lookup(g);
    auto b = rev.lookup(g);
    EXPECT_EQ(a.depth, b.depth);
    EXPECT_EQ(a.best, b.best);
    EXPECT_EQ(a.candidates, b.candidates);
    EXPECT_EQ(a.best, id) << "self-lookup must find the model itself";
    EXPECT_EQ(a.depth, g.size());
  }
}

}  // namespace
}  // namespace evostore::core
