#include "core/client.h"

#include <gtest/gtest.h>

#include "tests/core/test_env.h"

namespace evostore::core {
namespace {

using common::ModelId;
using common::VertexId;
using testing::ClusterEnv;
using testing::chain_graph;

sim::CoTask<common::Status> store(Client& cli, const model::Model& m,
                                  const TransferContext* tc = nullptr) {
  co_return co_await cli.put_model(m, tc);
}

TEST(Client, AllocateIdsAreUniqueAndValid) {
  ClusterEnv env;
  auto& cli = env.client();
  std::set<uint64_t> seen;
  for (int i = 0; i < 100; ++i) {
    ModelId id = cli.allocate_id();
    EXPECT_TRUE(id.valid());
    EXPECT_TRUE(seen.insert(id.value).second);
  }
}

TEST(Client, StoreAndLoadRoundTripAcrossProviders) {
  ClusterEnv env(4);
  auto g = chain_graph(12, 32);
  auto m = model::Model::random(env.repo->allocate_id(), g, 5);
  m.set_quality(0.66);
  ASSERT_TRUE(env.run(store(env.client(), m)).ok());

  auto loaded = env.run(env.client().get_model(m.id()));
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->id(), m.id());
  EXPECT_DOUBLE_EQ(loaded->quality(), 0.66);
  EXPECT_EQ(loaded->graph().graph_hash(), g.graph_hash());
  for (VertexId v = 0; v < g.size(); ++v) {
    EXPECT_TRUE(loaded->segment(v).content_equals(m.segment(v))) << v;
  }
}

TEST(Client, LoadMissingModel) {
  ClusterEnv env;
  auto r = env.run(env.client().get_model(ModelId::make(0, 77)));
  EXPECT_EQ(r.status().code(), common::ErrorCode::kNotFound);
}

TEST(Client, PrepareTransferOnEmptyRepositoryIsNoAncestor) {
  ClusterEnv env;
  auto r = env.run(env.client().prepare_transfer(chain_graph(3, 8), true));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->has_value());
}

TEST(Client, PrepareTransferFindsAncestorAndPayload) {
  ClusterEnv env;
  auto base_g = chain_graph(8, 16);
  auto base = model::Model::random(env.repo->allocate_id(), base_g, 1);
  base.set_quality(0.8);
  ASSERT_TRUE(env.run(store(env.client(), base)).ok());

  auto derived_g = chain_graph(8, 16, /*mutated_tail=*/2);
  auto r = env.run(env.client().prepare_transfer(derived_g, true));
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->has_value());
  auto& tc = r->value();
  EXPECT_EQ(tc.ancestor, base.id());
  EXPECT_DOUBLE_EQ(tc.ancestor_quality, 0.8);
  EXPECT_EQ(tc.lcp_len(), 7u);  // input + 6 unchanged layers
  ASSERT_EQ(tc.prefix_segments.size(), 7u);
  // Prefix payloads equal the ancestor's segments at matched vertices.
  for (size_t i = 0; i < tc.matches.size(); ++i) {
    EXPECT_TRUE(
        tc.prefix_segments[i].content_equals(base.segment(tc.matches[i].second)));
  }
}

TEST(Client, PrepareTransferWithoutPayload) {
  ClusterEnv env;
  auto base = model::Model::random(env.repo->allocate_id(), chain_graph(4, 8), 1);
  ASSERT_TRUE(env.run(store(env.client(), base)).ok());
  auto r = env.run(env.client().prepare_transfer(chain_graph(4, 8), false));
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->has_value());
  EXPECT_TRUE(r->value().prefix_segments.empty());
  EXPECT_EQ(r->value().lcp_len(), 5u);
}

TEST(Client, DerivedModelStoresOnlyNewSegments) {
  ClusterEnv env(3);
  auto base_g = chain_graph(10, 16);
  auto base = model::Model::random(env.repo->allocate_id(), base_g, 1);
  ASSERT_TRUE(env.run(store(env.client(), base)).ok());
  size_t base_bytes = env.repo->stored_payload_bytes();

  auto derived_g = chain_graph(10, 16, /*mutated_tail=*/3);
  auto prep = env.run(env.client().prepare_transfer(derived_g, true));
  ASSERT_TRUE(prep.ok() && prep->has_value());
  auto& tc = prep->value();

  auto derived = model::Model::random(env.repo->allocate_id(), derived_g, 2);
  for (size_t i = 0; i < tc.matches.size(); ++i) {
    derived.segment(tc.matches[i].first) = tc.prefix_segments[i];
  }
  ASSERT_TRUE(env.run(store(env.client(), derived, &tc)).ok());

  size_t after = env.repo->stored_payload_bytes();
  size_t added = after - base_bytes;
  // Exactly the 3 mutated segments were added, once per replica (the
  // cluster-wide sum counts every copy; k-way placement stores each
  // self-owned segment on its owner's whole replica set).
  const size_t k = env.repo->membership().replication();
  size_t expected = 0;
  for (VertexId v = static_cast<VertexId>(derived_g.size() - 3);
       v < derived_g.size(); ++v) {
    expected += derived.segment(v).nbytes();
  }
  EXPECT_LT(added, k * derived.total_bytes());  // incremental, not full
  EXPECT_EQ(added, k * expected);

  // And the derived model still loads completely.
  auto loaded = env.run(env.client().get_model(derived.id()));
  ASSERT_TRUE(loaded.ok());
  for (VertexId v = 0; v < derived_g.size(); ++v) {
    EXPECT_TRUE(loaded->segment(v).content_equals(derived.segment(v))) << v;
  }
}

TEST(Client, ReadSegmentsSubsetInRequestedOrder) {
  ClusterEnv env;
  auto g = chain_graph(6, 8);
  auto m = model::Model::random(env.repo->allocate_id(), g, 3);
  ASSERT_TRUE(env.run(store(env.client(), m)).ok());
  auto meta = env.run(env.client().get_meta(m.id()));
  ASSERT_TRUE(meta.ok());
  std::vector<VertexId> want{5, 0, 3};
  auto segs = env.run(env.client().read_segments(&meta->owners, want));
  ASSERT_TRUE(segs.ok());
  ASSERT_EQ(segs->size(), 3u);
  EXPECT_TRUE((*segs)[0].content_equals(m.segment(5)));
  EXPECT_TRUE((*segs)[1].content_equals(m.segment(0)));
  EXPECT_TRUE((*segs)[2].content_equals(m.segment(3)));
}

TEST(Client, QueryLcpReducesAcrossProviders) {
  // Store enough models that several providers hold candidates; the reduce
  // must pick the global best.
  ClusterEnv env(4);
  auto& cli = env.client();
  ModelId best_id;
  for (int tail = 5; tail >= 1; --tail) {
    auto g = chain_graph(8, 16, tail);
    auto m = model::Model::random(env.repo->allocate_id(), g, tail);
    if (tail == 1) best_id = m.id();
    ASSERT_TRUE(env.run(store(cli, m)).ok());
  }
  // Ensure models actually spread over multiple providers.
  int providers_used = 0;
  for (size_t i = 0; i < env.repo->provider_count(); ++i) {
    if (env.repo->provider(i).model_count() > 0) ++providers_used;
  }
  EXPECT_GT(providers_used, 1);

  auto r = env.run(cli.query_lcp(chain_graph(8, 16)));
  ASSERT_TRUE(r.ok() && r->found);
  EXPECT_EQ(r->ancestor, best_id);
  EXPECT_EQ(r->lcp_len(), 8u);  // input + 7 unchanged
}

TEST(Client, ConcurrentWritersDifferentModels) {
  ClusterEnv env(4);
  auto g = chain_graph(6, 16);
  constexpr int kWriters = 8;
  std::vector<common::NodeId> nodes;
  for (int i = 0; i < kWriters; ++i) {
    nodes.push_back(env.fabric.add_node(25e9, 25e9));
  }
  auto write_one = [&](common::NodeId node, int i) -> sim::CoTask<bool> {
    auto& cli = env.repo->client(node);
    auto m = model::Model::random(cli.allocate_id(), g, 100 + i);
    auto st = co_await cli.put_model(m, nullptr);
    co_return st.ok();
  };
  std::vector<sim::Future<bool>> fs;
  for (int i = 0; i < kWriters; ++i) {
    fs.push_back(env.sim.spawn(write_one(nodes[i], i)));
  }
  env.sim.run();
  for (auto& f : fs) EXPECT_TRUE(f.get());
  // Every model's metadata lands on its full replica set.
  EXPECT_EQ(env.repo->total_models(),
            env.repo->membership().replication() * static_cast<size_t>(kWriters));
}

TEST(Client, TransferAfterAncestorRetiredFallsBackToScratch) {
  ClusterEnv env;
  auto base = model::Model::random(env.repo->allocate_id(), chain_graph(4, 8), 1);
  ASSERT_TRUE(env.run(store(env.client(), base)).ok());
  ASSERT_TRUE(env.run(env.client().retire(base.id())).ok());
  auto r = env.run(env.client().prepare_transfer(chain_graph(4, 8), true));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->has_value());  // catalog empty again
}

TEST(Client, QueryLcpTieOnLengthAndQualityPicksLowerId) {
  // One replica per model: each provider's scan answers with its own model,
  // so only the client reduce sees both answers. They tie on prefix length
  // and quality, and the reduce sees the higher id's answer first.
  ClientConfig one_replica;
  one_replica.replication = 1;
  ClusterEnv env(4, ProviderConfig{}, one_replica);
  const Membership& ring = env.repo->membership();
  std::vector<ModelId> ids;
  for (int i = 0; i < 32; ++i) ids.push_back(env.repo->allocate_id());
  ModelId low;
  ModelId high;
  for (size_t a = 0; a < ids.size() && !high.valid(); ++a) {
    for (size_t b = a + 1; b < ids.size() && !high.valid(); ++b) {
      if (ring.replicas(ids[b]).front() < ring.replicas(ids[a]).front()) {
        low = ids[a];
        high = ids[b];
      }
    }
  }
  ASSERT_TRUE(high.valid());
  ASSERT_LT(low, high);

  auto g = chain_graph(6, 16);
  for (ModelId id : {high, low}) {
    auto m = model::Model::random(id, g, id.value);
    m.set_quality(0.5);
    ASSERT_TRUE(env.run(store(env.client(), m)).ok());
  }
  EXPECT_FALSE(env.repo->provider(ring.replicas(high).front()).has_model(low));

  auto r = env.run(env.client().query_lcp(g));
  ASSERT_TRUE(r.ok() && r->found);
  EXPECT_EQ(r->ancestor, low);
  EXPECT_EQ(r->lcp_len(), g.size());
  EXPECT_DOUBLE_EQ(r->quality, 0.5);
}

}  // namespace
}  // namespace evostore::core
