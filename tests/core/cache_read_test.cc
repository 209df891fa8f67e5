// Client-side cooperative segment cache (DESIGN.md §14): repeat reads move
// no payload bytes, provider validation keeps cached bytes correct across
// retire, peer redirects serve from other clients' caches, and faulted runs
// stay deterministic.
#include <gtest/gtest.h>

#include "net/fault.h"
#include "tests/core/test_env.h"

namespace evostore::core {
namespace {

using common::ModelId;
using common::NodeId;
using common::VertexId;
using testing::ClusterEnv;
using testing::chain_graph;

ClientConfig cached_config(uint64_t capacity_bytes, double trust_seconds = 0) {
  ClientConfig c;
  c.cache.capacity_bytes = capacity_bytes;
  c.cache.trust_seconds = trust_seconds;
  return c;
}

struct CacheReadTest : ::testing::Test {
  model::Model make_and_store(ClusterEnv& env, int layers = 6,
                              int64_t width = 32) {
    auto g = chain_graph(layers, width);
    auto m = model::Model::random(env.repo->allocate_id(), g, 42);
    m.set_quality(0.5);
    auto task = [&]() -> sim::CoTask<common::Status> {
      co_return co_await env.client().put_model(m, nullptr);
    };
    EXPECT_TRUE(env.run(task()).ok());
    return m;
  }

  void expect_identical(const Result<model::Model>& r, const model::Model& m) {
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    for (VertexId v = 0; v < m.vertex_count(); ++v) {
      EXPECT_TRUE(r->segment(v).content_equals(m.segment(v))) << v;
    }
  }

  uint64_t totals_not_modified(ClusterEnv& env) {
    auto stats = env.run(env.client().collect_stats());
    EXPECT_TRUE(stats.ok());
    return stats->totals.provider.not_modified_reads;
  }
};

TEST_F(CacheReadTest, RepeatReadRevalidatesWithoutPayload) {
  ClusterEnv env{4, ProviderConfig{}, cached_config(1 << 20)};
  auto m = make_and_store(env);
  const size_t vertices = m.vertex_count();

  double b0 = env.rpc.stats().bulk_bytes;
  expect_identical(env.run(env.client().get_model(m.id())), m);
  double first_read_bytes = env.rpc.stats().bulk_bytes - b0;
  EXPECT_GT(first_read_bytes, 0);

  // Strict validation (trust 0): the second read still asks every owning
  // provider, but a matching version answers NotModified — zero payload
  // bytes on the wire.
  double b1 = env.rpc.stats().bulk_bytes;
  expect_identical(env.run(env.client().get_model(m.id())), m);
  EXPECT_EQ(env.rpc.stats().bulk_bytes - b1, 0.0);

  const auto& cs = env.client().segment_cache()->stats();
  EXPECT_EQ(cs.misses, vertices);
  EXPECT_EQ(cs.revalidations, vertices);
  EXPECT_EQ(cs.hits, 0u);
  EXPECT_GT(cs.bytes_saved, 0u);
  EXPECT_EQ(totals_not_modified(env), vertices);
}

TEST_F(CacheReadTest, TrustedReadSkipsProvidersEntirely) {
  ClusterEnv env{4, ProviderConfig{}, cached_config(1 << 20, /*trust=*/3600)};
  auto m = make_and_store(env);
  const size_t vertices = m.vertex_count();

  expect_identical(env.run(env.client().get_model(m.id())), m);
  double b1 = env.rpc.stats().bulk_bytes;
  expect_identical(env.run(env.client().get_model(m.id())), m);
  EXPECT_EQ(env.rpc.stats().bulk_bytes - b1, 0.0);

  const auto& cs = env.client().segment_cache()->stats();
  EXPECT_EQ(cs.hits, vertices);
  EXPECT_EQ(cs.revalidations, 0u);
  // Segments were served before any provider round trip happened.
  EXPECT_EQ(totals_not_modified(env), 0u);
}

TEST_F(CacheReadTest, RetireInvalidatesCachedEntries) {
  ClusterEnv env{4, ProviderConfig{}, cached_config(1 << 20)};
  auto m = make_and_store(env);
  const size_t vertices = m.vertex_count();

  expect_identical(env.run(env.client().get_model(m.id())), m);
  EXPECT_EQ(env.client().segment_cache()->entry_count(), vertices);

  ASSERT_TRUE(env.run(env.client().retire(m.id())).ok());
  EXPECT_EQ(env.client().segment_cache()->entry_count(), 0u);
  EXPECT_EQ(env.client().segment_cache()->stats().invalidations, vertices);
  EXPECT_EQ(env.run(env.client().get_model(m.id())).status().code(),
            common::ErrorCode::kNotFound);
}

TEST_F(CacheReadTest, PeerRedirectServesFromAnotherClientsCache) {
  ClusterEnv env{4, ProviderConfig{}, cached_config(1 << 20)};
  auto m = make_and_store(env);
  const size_t vertices = m.vertex_count();

  // Client A fills its cache; the providers record A as a known holder.
  expect_identical(env.run(env.client().get_model(m.id())), m);

  // Client B's first read gets redirect hints and pulls the envelopes from
  // A's cache instead of the providers.
  NodeId node_b = env.fabric.add_node(25e9, 25e9);
  Client& cli_b = env.repo->client(node_b);
  expect_identical(env.run(cli_b.get_model(m.id())), m);

  const auto& bs = cli_b.segment_cache()->stats();
  EXPECT_EQ(bs.peer_hits, vertices);
  EXPECT_EQ(bs.peer_misses, 0u);
  auto stats = env.run(env.client().collect_stats());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->totals.provider.redirects_issued, vertices);

  // B's copy is now first-class: a repeat read revalidates locally.
  double b1 = env.rpc.stats().bulk_bytes;
  expect_identical(env.run(cli_b.get_model(m.id())), m);
  EXPECT_EQ(env.rpc.stats().bulk_bytes - b1, 0.0);
}

TEST_F(CacheReadTest, CrashedPeerFallsBackToProvider) {
  ClusterEnv env{4, ProviderConfig{}, cached_config(1 << 20)};
  net::FaultInjector injector(env.sim);
  env.rpc.set_fault_injector(&injector);

  auto m = make_and_store(env);
  expect_identical(env.run(env.client().get_model(m.id())), m);

  // A goes down for good. The providers notice the dead peer the moment a
  // redirect would name it, drop the stale directory entry, and serve the
  // bytes themselves — B must see identical payloads WITHOUT ever being
  // pointed at the corpse (regression: redirect-to-dead-peer used to cost
  // every read a doomed peer round trip).
  injector.schedule_crash(env.worker, env.sim.now(), /*downtime=*/1e9);
  NodeId node_b = env.fabric.add_node(25e9, 25e9);
  Client& cli_b = env.repo->client(node_b);
  expect_identical(env.run(cli_b.get_model(m.id())), m);

  const auto& bs = cli_b.segment_cache()->stats();
  EXPECT_EQ(bs.peer_hits, 0u);
  EXPECT_EQ(bs.peer_misses, 0u);
  EXPECT_EQ(bs.misses, m.vertex_count());
  auto stats = env.run(cli_b.collect_stats());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->totals.provider.redirects_issued, 0u);
}

TEST_F(CacheReadTest, FaultedRunIsDeterministicAcrossReplays) {
  struct Digest {
    double bulk_bytes = 0;
    double end_time = 0;
    uint64_t peer_hits = 0;
    uint64_t peer_misses = 0;
    uint64_t revalidations = 0;
    uint64_t not_modified = 0;
    uint64_t redirects = 0;

    bool operator==(const Digest&) const = default;
  };
  auto run_once = [&]() -> Digest {
    ClusterEnv env{4, ProviderConfig{}, cached_config(1 << 20)};
    net::FaultInjector injector(env.sim);
    env.rpc.set_fault_injector(&injector);
    auto m = make_and_store(env);
    expect_identical(env.run(env.client().get_model(m.id())), m);
    injector.schedule_crash(env.worker, env.sim.now() + 1e-4, 0.5);
    NodeId node_b = env.fabric.add_node(25e9, 25e9);
    Client& cli_b = env.repo->client(node_b);
    expect_identical(env.run(cli_b.get_model(m.id())), m);
    expect_identical(env.run(cli_b.get_model(m.id())), m);
    auto stats = env.run(cli_b.collect_stats());
    EXPECT_TRUE(stats.ok());
    const auto& bs = cli_b.segment_cache()->stats();
    return Digest{env.rpc.stats().bulk_bytes,
                  env.sim.now(),
                  bs.peer_hits,
                  bs.peer_misses,
                  bs.revalidations,
                  stats->totals.provider.not_modified_reads,
                  stats->totals.provider.redirects_issued};
  };
  Digest first = run_once();
  Digest second = run_once();
  EXPECT_EQ(first, second);
}

TEST_F(CacheReadTest, DisabledCacheKeepsWireTrafficIdentical) {
  auto traffic = [&](ClientConfig config) {
    ClusterEnv env{4, ProviderConfig{}, config};
    auto m = make_and_store(env);
    expect_identical(env.run(env.client().get_model(m.id())), m);
    return env.rpc.stats().bulk_bytes;
  };
  // capacity_bytes == 0 must be byte-identical to the pre-cache client; a
  // cold cache changes nothing about the first read either.
  EXPECT_EQ(traffic(ClientConfig{}), traffic(cached_config(1 << 20)));
}

TEST_F(CacheReadTest, FallbackRoundFailsOverPastCrashedReplica) {
  // Room for exactly one model's envelopes: reading a second model of the
  // same shape evicts the first.
  const auto g = chain_graph(6, 32);
  uint64_t one_model = 0;
  auto probe = model::Model::random(ModelId::make(9, 9), g, 1);
  for (VertexId v = 0; v < probe.vertex_count(); ++v) {
    one_model += probe.segment(v).nbytes();
  }
  ClusterEnv env{4, ProviderConfig{}, cached_config(one_model)};
  net::FaultInjector injector(env.sim);
  env.rpc.set_fault_injector(&injector);

  auto m = make_and_store(env);
  auto other = model::Model::random(env.repo->allocate_id(), g, 7);
  auto put_other = [&]() -> sim::CoTask<common::Status> {
    co_return co_await env.client().put_model(other, nullptr);
  };
  ASSERT_TRUE(env.run(put_other()).ok());
  const size_t n = m.vertex_count();

  // The first replica of M stays down for the whole test. Every read runs
  // in one task: each env.run drains the event queue, restart included.
  auto reps = env.repo->membership().replicas(m.id());
  ASSERT_EQ(reps.size(), 2u);
  injector.schedule_crash(env.provider_nodes[reps[0]], env.sim.now(),
                          /*downtime=*/1e9);
  Client& cli_a = env.client();
  NodeId node_b = env.fabric.add_node(25e9, 25e9);
  Client& cli_b = env.repo->client(node_b);
  uint64_t a_evictions = 0;
  auto reads = [&]() -> sim::CoTask<void> {
    // Every segment of M is served by the second replica (a key striped to
    // the crashed one fails over to it), which records A as a holder of
    // every segment; reading the other model then evicts M from A's cache.
    auto a_m = co_await cli_a.get_model(m.id());
    expect_identical(a_m, m);
    auto a_other = co_await cli_a.get_model(other.id());
    expect_identical(a_other, other);
    a_evictions = cli_a.segment_cache()->stats().evictions;
    // Client B is redirected to A, whose cache misses. The fallback round
    // starts each key again at its stripe replica, so the keys striped to
    // the crashed one fail over to the live one a second time.
    auto b_m = co_await cli_b.get_model(m.id());
    expect_identical(b_m, m);
  };
  env.run(reads());
  ASSERT_EQ(a_evictions, n);

  const auto& bs = cli_b.segment_cache()->stats();
  EXPECT_EQ(bs.peer_hits, 0u);
  EXPECT_EQ(bs.peer_misses, n);
  EXPECT_EQ(bs.misses, n);
  // One metadata failover, then one per key striped to the crashed replica
  // in the validated round and one more per such key in the fallback round.
  // A key's first replica is (vertex mod |R|), and the crashed one is R[0].
  size_t on_crashed = 0;
  for (VertexId v = 0; v < n; ++v) on_crashed += v % reps.size() == 0 ? 1 : 0;
  ASSERT_GT(on_crashed, 0u);
  ASSERT_LT(on_crashed, n);
  EXPECT_EQ(cli_b.fault_stats().read_failovers, 1 + 2 * on_crashed);
}

}  // namespace
}  // namespace evostore::core
