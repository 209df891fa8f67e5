#include "baseline/redis_queries.h"

#include <gtest/gtest.h>

#include "tests/core/test_env.h"

namespace evostore::baseline {
namespace {

using common::NodeId;
using core::testing::chain_graph;
using sim::CoTask;

struct RedisEnv {
  sim::Simulation sim;
  net::Fabric fabric;
  net::RpcSystem rpc;
  NodeId server_node;
  NodeId client_node;
  std::unique_ptr<RedisQueries> redis;

  RedisEnv() : fabric(sim, net::FabricConfig{}), rpc(fabric) {
    server_node = fabric.add_node(25e9, 25e9, "redis");
    client_node = fabric.add_node(25e9, 25e9, "client");
    redis = std::make_unique<RedisQueries>(rpc, server_node);
  }

  template <typename T>
  T run(CoTask<T> t) {
    return sim.run_until_complete(std::move(t));
  }

  CoTask<bool> add(ModelId id, model::ArchGraph g, double quality) {
    auto r = co_await redis->begin_add(client_node, id, g, quality);
    if (!r.status.ok()) co_return false;
    if (r.need_weights) {
      // (weights write happens here in the real flow)
      auto f = co_await redis->finish_add(client_node, id);
      co_return f.ok();
    }
    co_return true;
  }
};

TEST(RedisQueries, AddPublishesAndCounts) {
  RedisEnv env;
  auto g = chain_graph(4, 8);
  EXPECT_TRUE(env.run(env.add(ModelId::make(1, 1), g, 0.5)));
  EXPECT_EQ(env.redis->published_count(), 1u);
  EXPECT_EQ(env.redis->stats().adds, 1u);
}

TEST(RedisQueries, QueryFindsBestMatch) {
  RedisEnv env;
  ASSERT_TRUE(env.run(env.add(ModelId::make(1, 1), chain_graph(6, 8, 3), 0.5)));
  ASSERT_TRUE(env.run(env.add(ModelId::make(1, 2), chain_graph(6, 8, 1), 0.6)));
  auto r = env.run(env.redis->query(env.client_node, chain_graph(6, 8)));
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->found);
  EXPECT_EQ(r->ancestor, ModelId::make(1, 2));
  EXPECT_EQ(r->lcp_len(), 6u);
  // Winner is pinned; unpin releases it.
  auto unpin = env.run(env.redis->unpin(env.client_node, r->ancestor));
  EXPECT_TRUE(unpin.status.ok());
  EXPECT_FALSE(unpin.remove_weights);
}

TEST(RedisQueries, QueryOnEmptyCatalog) {
  RedisEnv env;
  auto r = env.run(env.redis->query(env.client_node, chain_graph(3, 8)));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->found);
}

TEST(RedisQueries, RetireUnpublishesAndSignalsFileRemoval) {
  RedisEnv env;
  ModelId id = ModelId::make(1, 1);
  ASSERT_TRUE(env.run(env.add(id, chain_graph(4, 8), 0.5)));
  auto r = env.run(env.redis->retire(env.client_node, id));
  EXPECT_TRUE(r.status.ok());
  EXPECT_TRUE(r.remove_weights);
  EXPECT_EQ(env.redis->published_count(), 0u);
}

TEST(RedisQueries, RetireUnknownModelFails) {
  RedisEnv env;
  auto r = env.run(env.redis->retire(env.client_node, ModelId::make(9, 9)));
  EXPECT_EQ(r.status.code(), common::ErrorCode::kNotFound);
}

TEST(RedisQueries, PinPreventsRemovalUntilUnpin) {
  RedisEnv env;
  ModelId id = ModelId::make(1, 1);
  auto g = chain_graph(4, 8);
  ASSERT_TRUE(env.run(env.add(id, g, 0.5)));

  auto q = env.run(env.redis->query(env.client_node, g));
  ASSERT_TRUE(q.ok() && q->found);

  // Retire while pinned: refcount 2 -> 1, weights survive.
  auto r = env.run(env.redis->retire(env.client_node, id));
  EXPECT_TRUE(r.status.ok());
  EXPECT_FALSE(r.remove_weights);

  // Unpin drops the last reference: now the caller deletes the file.
  auto u = env.run(env.redis->unpin(env.client_node, id));
  EXPECT_TRUE(u.status.ok());
  EXPECT_TRUE(u.remove_weights);
  EXPECT_EQ(env.redis->published_count(), 0u);
}

TEST(RedisQueries, DuplicateArchitectureSkipsWeightWrite) {
  RedisEnv env;
  ModelId id = ModelId::make(1, 1);
  auto g = chain_graph(4, 8);
  ASSERT_TRUE(env.run(env.add(id, g, 0.5)));
  // Re-adding the same model id: already registered, refcount bumped, no
  // weight write requested.
  auto r = env.run(env.redis->begin_add(env.client_node, id, g, 0.6));
  EXPECT_TRUE(r.status.ok());
  EXPECT_FALSE(r.need_weights);
  // Two retires now needed to free it.
  auto r1 = env.run(env.redis->retire(env.client_node, id));
  EXPECT_FALSE(r1.remove_weights);
  auto r2 = env.run(env.redis->retire(env.client_node, id));
  EXPECT_TRUE(r2.remove_weights);
}

TEST(RedisQueries, QueriesSerializeOnSingleCpu) {
  RedisEnv env;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(env.run(
        env.add(ModelId::make(1, static_cast<uint32_t>(i + 1)),
                chain_graph(6, 8, (i % 5) + 1, 7 + i), 0.5)));
  }
  double t0 = env.sim.now();
  // One query to measure the single-query latency.
  auto q = env.run(env.redis->query(env.client_node, chain_graph(6, 8)));
  ASSERT_TRUE(q.ok());
  double single = env.sim.now() - t0;
  ASSERT_GT(single, 0.0);

  // 8 concurrent queries: single CPU means ~8x the latency, not ~1x.
  double t1 = env.sim.now();
  auto issue = [&]() -> CoTask<void> {
    auto r = co_await env.redis->query(env.client_node, chain_graph(6, 8));
    EXPECT_TRUE(r.ok());
  };
  std::vector<sim::Future<void>> fs;
  for (int i = 0; i < 8; ++i) fs.push_back(env.sim.spawn(issue()));
  env.sim.run();
  double batch = env.sim.now() - t1;
  EXPECT_GT(batch, 6.0 * single);
}

TEST(RedisQueries, AddBlocksQueriesViaMetadataLock) {
  // A writer holding the global metadata lock delays readers (the paper's
  // coordination cost). We interleave: start a query storm and an add.
  RedisEnv env;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(env.run(env.add(ModelId::make(1, static_cast<uint32_t>(i + 1)),
                                chain_graph(5, 8, (i % 4) + 1, 3 + i), 0.5)));
  }
  int completed = 0;
  auto query_loop = [&]() -> CoTask<void> {
    for (int i = 0; i < 5; ++i) {
      auto r = co_await env.redis->query(env.client_node, chain_graph(5, 8));
      EXPECT_TRUE(r.ok());
      ++completed;
    }
  };
  auto adder = [&]() -> CoTask<void> {
    bool ok = co_await env.add(ModelId::make(2, 1), chain_graph(5, 8, 2, 99), 0.4);
    EXPECT_TRUE(ok);
  };
  auto f1 = env.sim.spawn(query_loop());
  auto f2 = env.sim.spawn(adder());
  env.sim.run();
  (void)f1; (void)f2;
  EXPECT_EQ(completed, 5);
  EXPECT_EQ(env.redis->published_count(), 21u);
}

TEST(RedisQueries, StatsAccounting) {
  RedisEnv env;
  ASSERT_TRUE(env.run(env.add(ModelId::make(1, 1), chain_graph(3, 8), 0.5)));
  (void)env.run(env.redis->query(env.client_node, chain_graph(3, 8)));
  (void)env.run(env.redis->query(env.client_node, chain_graph(3, 8)));
  EXPECT_EQ(env.redis->stats().queries, 2u);
  EXPECT_EQ(env.redis->stats().entries_scanned, 2u);
}

TEST(RedisQueries, QueryBreaksLengthTieOnQualityThenLowerId) {
  RedisEnv env;
  // The best quality, but a shorter prefix: length is compared first.
  ASSERT_TRUE(env.run(env.add(ModelId::make(1, 1), chain_graph(6, 8, 3), 0.9)));
  // Four full-length matches: 0.6 loses on quality, and of the three 0.7s
  // the lowest id wins whatever order the catalog scan visits them in.
  ASSERT_TRUE(env.run(env.add(ModelId::make(1, 5), chain_graph(6, 8), 0.7)));
  ASSERT_TRUE(env.run(env.add(ModelId::make(1, 2), chain_graph(6, 8), 0.6)));
  ASSERT_TRUE(env.run(env.add(ModelId::make(1, 3), chain_graph(6, 8), 0.7)));
  ASSERT_TRUE(env.run(env.add(ModelId::make(1, 4), chain_graph(6, 8), 0.7)));
  auto r = env.run(env.redis->query(env.client_node, chain_graph(6, 8)));
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->found);
  EXPECT_EQ(r->ancestor, ModelId::make(1, 3));
  EXPECT_DOUBLE_EQ(r->quality, 0.7);
  EXPECT_EQ(r->lcp_len(), 7u);
}

}  // namespace
}  // namespace evostore::baseline
