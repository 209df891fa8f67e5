#include "core/provider.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/redis_queries.h"
#include "core/placement.h"
#include "tests/core/test_env.h"

namespace evostore::core {
namespace {

using common::ModelId;
using common::SegmentKey;
using testing::ClusterEnv;
using testing::chain_graph;

// Single-provider environment so placement is trivial and we can poke the
// provider's introspection API directly.
struct SingleEnv : ClusterEnv {
  SingleEnv() : ClusterEnv(1) {}
  Provider& provider() { return repo->provider(0); }
};

sim::CoTask<common::Status> store_model(Client& cli, model::Model m,
                                        const TransferContext* tc = nullptr) {
  co_return co_await cli.put_model(m, tc);
}

TEST(Provider, PutStoresMetadataAndSegments) {
  SingleEnv env;
  auto g = chain_graph(4, 16);
  auto m = model::Model::random(env.repo->allocate_id(), g, 1);
  m.set_quality(0.5);
  auto st = env.run(store_model(env.client(), m));
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(env.provider().model_count(), 1u);
  EXPECT_EQ(env.provider().segment_count(), g.size());
  EXPECT_EQ(env.provider().stored_payload_bytes(), m.total_bytes());
  EXPECT_TRUE(env.provider().has_model(m.id()));
  for (common::VertexId v = 0; v < g.size(); ++v) {
    EXPECT_EQ(env.provider().refcount(SegmentKey{m.id(), v}), 1);
  }
}

TEST(Provider, DuplicatePutRejected) {
  SingleEnv env;
  auto g = chain_graph(2, 8);
  auto m = model::Model::random(env.repo->allocate_id(), g, 1);
  ASSERT_TRUE(env.run(store_model(env.client(), m)).ok());
  auto st = env.run(store_model(env.client(), m));
  EXPECT_EQ(st.code(), common::ErrorCode::kAlreadyExists);
}

TEST(Provider, GetMetaReturnsStoredState) {
  SingleEnv env;
  auto g = chain_graph(3, 8);
  auto m = model::Model::random(env.repo->allocate_id(), g, 2);
  m.set_quality(0.77);
  ASSERT_TRUE(env.run(store_model(env.client(), m)).ok());
  auto meta = env.run(env.client().get_meta(m.id()));
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->graph.graph_hash(), g.graph_hash());
  EXPECT_DOUBLE_EQ(meta->quality, 0.77);
  EXPECT_FALSE(meta->ancestor.valid());
  EXPECT_EQ(meta->owners.size(), g.size());
  EXPECT_GT(meta->store_seq, 0u);
}

TEST(Provider, GetMetaMissingModel) {
  SingleEnv env;
  auto meta = env.run(env.client().get_meta(ModelId::make(0, 99)));
  EXPECT_EQ(meta.status().code(), common::ErrorCode::kNotFound);
}

TEST(Provider, ReadSegmentsMissingKeyFails) {
  SingleEnv env;
  OwnerMap fake = OwnerMap::self_owned(ModelId::make(0, 123), 2);
  auto task = [&]() -> sim::CoTask<bool> {
    std::vector<common::VertexId> all{0, 1};
    auto r = co_await env.client().read_segments(&fake, all);
    co_return r.ok();
  };
  EXPECT_FALSE(env.run(task()));
}

TEST(Provider, LcpQueryFindsBestByLength) {
  SingleEnv env;
  auto g_short = chain_graph(6, 16, /*mutated_tail=*/4);  // shares 3 vertices
  auto g_long = chain_graph(6, 16, /*mutated_tail=*/1);   // shares 6 vertices
  auto m1 = model::Model::random(env.repo->allocate_id(), g_short, 1);
  auto m2 = model::Model::random(env.repo->allocate_id(), g_long, 2);
  ASSERT_TRUE(env.run(store_model(env.client(), m1)).ok());
  ASSERT_TRUE(env.run(store_model(env.client(), m2)).ok());

  auto query = chain_graph(6, 16);  // un-mutated chain
  auto r = env.run(env.client().query_lcp(query));
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->found);
  EXPECT_EQ(r->ancestor, m2.id());
  EXPECT_EQ(r->lcp_len(), 6u);
}

TEST(Provider, LcpQueryTieBreaksOnQuality) {
  SingleEnv env;
  auto g = chain_graph(4, 16);
  auto weak = model::Model::random(env.repo->allocate_id(), g, 1);
  weak.set_quality(0.3);
  auto strong = model::Model::random(env.repo->allocate_id(), g, 2);
  strong.set_quality(0.9);
  ASSERT_TRUE(env.run(store_model(env.client(), weak)).ok());
  ASSERT_TRUE(env.run(store_model(env.client(), strong)).ok());
  auto r = env.run(env.client().query_lcp(g));
  ASSERT_TRUE(r.ok() && r->found);
  EXPECT_EQ(r->ancestor, strong.id());
  EXPECT_DOUBLE_EQ(r->quality, 0.9);
}

TEST(Provider, LcpQueryEmptyCatalog) {
  SingleEnv env;
  auto r = env.run(env.client().query_lcp(chain_graph(3, 8)));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->found);
}

TEST(Provider, LcpQueryNoSharedRoot) {
  SingleEnv env;
  auto m = model::Model::random(env.repo->allocate_id(), chain_graph(3, 8), 1);
  ASSERT_TRUE(env.run(store_model(env.client(), m)).ok());
  auto r = env.run(env.client().query_lcp(chain_graph(3, 24)));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->found);
}

TEST(Provider, RetireRemovesMetadataEagerly) {
  SingleEnv env;
  auto g = chain_graph(3, 8);
  auto m = model::Model::random(env.repo->allocate_id(), g, 1);
  ASSERT_TRUE(env.run(store_model(env.client(), m)).ok());
  ASSERT_TRUE(env.run(env.client().retire(m.id())).ok());
  EXPECT_EQ(env.provider().model_count(), 0u);
  EXPECT_EQ(env.provider().segment_count(), 0u);
  EXPECT_EQ(env.provider().stored_payload_bytes(), 0u);
}

TEST(Provider, RetireMissingModelFails) {
  SingleEnv env;
  auto st = env.run(env.client().retire(ModelId::make(0, 42)));
  EXPECT_EQ(st.code(), common::ErrorCode::kNotFound);
}

TEST(Provider, StatsTrackOperations) {
  SingleEnv env;
  auto g = chain_graph(3, 8);
  auto m = model::Model::random(env.repo->allocate_id(), g, 1);
  ASSERT_TRUE(env.run(store_model(env.client(), m)).ok());
  (void)env.run(env.client().query_lcp(g));
  (void)env.run(env.client().get_model(m.id()));
  const auto& stats = env.provider().stats();
  EXPECT_EQ(stats.puts, 1u);
  EXPECT_EQ(stats.lcp_queries, 1u);
  EXPECT_GE(stats.meta_gets, 1u);
  EXPECT_GE(stats.segment_reads, 1u);
  EXPECT_GT(stats.lcp_vertex_visits, 0u);
}

// The ring view on an LCP request arrives from outside the program: a view
// that does not name this provider as live, or cover ids outside the view,
// select nothing to scan. Valid views select the primary share.
TEST(Provider, LcpRingViewSelectsShareAndRejectsBadViews) {
  ClusterEnv env(2);  // replication 2: provider 1 holds every model
  auto g = chain_graph(3, 8);
  std::vector<ModelId> ids;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto m = model::Model::random(env.repo->allocate_id(), g, seed);
    ASSERT_TRUE(env.run(store_model(env.client(), m)).ok());
    ids.push_back(m.id());
  }
  Provider& provider = env.repo->provider(1);
  ASSERT_EQ(provider.model_count(), ids.size());
  const auto primary = static_cast<uint64_t>(
      std::count_if(ids.begin(), ids.end(),
                    [](ModelId id) { return provider_for(id, 2) == 1; }));
  ASSERT_GT(primary, 0u);
  ASSERT_LT(primary, ids.size());
  auto scanned = [&](std::vector<uint8_t> live,
                     std::vector<common::ProviderId> cover) {
    const uint64_t before = provider.stats().lcp_models_scanned;
    auto r = env.run(net::typed_call<wire::LcpQueryResponse>(
        &env.rpc, env.worker, env.provider_nodes[1], Provider::kLcpQuery,
        wire::LcpQueryRequest{g, std::move(live), std::move(cover)}));
    const uint64_t n = provider.stats().lcp_models_scanned - before;
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.ok() && r->found, n > 0);
    return n;
  };
  EXPECT_EQ(scanned({1, 1}, {}), primary);
  EXPECT_EQ(scanned({0, 1}, {}), ids.size());  // the only live replica
  EXPECT_EQ(scanned({0, 1}, {0}), ids.size() - primary);  // covers 0's share
  EXPECT_EQ(scanned({}, {}), 0u);
  EXPECT_EQ(scanned({1}, {}), 0u);  // too short to name provider 1
  EXPECT_EQ(scanned({1, 0}, {}), 0u);  // names provider 1 as not live
  EXPECT_EQ(scanned({0, 1}, {2}), 0u);  // cover id outside the view
  EXPECT_EQ(scanned({0, 1}, {0xffffffff}), 0u);
  EXPECT_EQ(scanned({1, 1}, {}), primary);  // recomputed for the first view
}

TEST(Provider, MetadataBytesScaleWithModels) {
  SingleEnv env;
  EXPECT_EQ(env.provider().metadata_bytes(), 0u);
  auto m = model::Model::random(env.repo->allocate_id(), chain_graph(10, 8), 1);
  ASSERT_TRUE(env.run(store_model(env.client(), m)).ok());
  size_t one = env.provider().metadata_bytes();
  EXPECT_GT(one, 0u);
  auto m2 = model::Model::random(env.repo->allocate_id(), chain_graph(10, 8, 1), 2);
  ASSERT_TRUE(env.run(store_model(env.client(), m2)).ok());
  EXPECT_GT(env.provider().metadata_bytes(), one);
}

TEST(Provider, ModelIdsSorted) {
  SingleEnv env;
  auto g = chain_graph(2, 8);
  std::vector<ModelId> ids;
  for (int i = 0; i < 3; ++i) {
    auto m = model::Model::random(env.repo->allocate_id(), g, i);
    if (i > 0) {
      // distinct graphs not required; duplicate-arch models are allowed
      m.set_quality(0.1 * i);
    }
    ids.push_back(m.id());
    ASSERT_TRUE(env.run(store_model(env.client(), m)).ok());
  }
  auto listed = env.provider().model_ids();
  ASSERT_EQ(listed.size(), 3u);
  EXPECT_TRUE(std::is_sorted(listed.begin(), listed.end()));
}


// A retried retire or modify_refs is answered from the idempotency cache
// with exactly the bytes the first delivery got: re-applying would answer
// NotFound instead, so equal bytes prove the replay.
TEST(Provider, TokenReplaysAreByteIdentical) {
  SingleEnv env;
  auto m = model::Model::random(env.repo->allocate_id(), chain_graph(2, 8), 1);
  ASSERT_TRUE(env.run(store_model(env.client(), m)).ok());
  const common::NodeId node = env.provider_nodes[0];
  auto deliver = [&](const char* method, const auto& req) {
    auto r = env.run(env.rpc.call(env.worker, node, method, wire::encode(req)));
    EXPECT_TRUE(r.ok()) << method;
    return r.ok() ? std::move(r).value() : common::Bytes{};
  };
  wire::ModifyRefsRequest release;
  release.keys = {SegmentKey{m.id(), 1}};
  release.increment = false;
  release.token = 0x0001000000000011ULL;
  const common::Bytes freed = deliver(Provider::kModifyRefs, release);
  EXPECT_EQ(deliver(Provider::kModifyRefs, release), freed);
  const wire::RetireRequest retire{m.id(), 0x0001000000000012ULL};
  const common::Bytes retired = deliver(Provider::kRetire, retire);
  EXPECT_EQ(deliver(Provider::kRetire, retire), retired);
  EXPECT_EQ(env.provider().stats().deduped_replays, 2u);
  auto first = wire::decode<wire::RetireResponse>(retired);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->status.ok());
  EXPECT_EQ(first->owners.size(), 3u);
}

// A read that fails delivers none of its entries, so it must not name its
// reader in the redirect directory: a later reader of a key the failed read
// reached first is served, not sent to a peer that never cached it.
TEST(Provider, FailedReadLeavesNoRedirect) {
  SingleEnv env;
  auto m = model::Model::random(env.repo->allocate_id(), chain_graph(2, 8), 1);
  ASSERT_TRUE(env.run(store_model(env.client(), m)).ok());
  const common::NodeId node = env.provider_nodes[0];
  const common::NodeId reader_a = env.worker;
  const common::NodeId reader_b = env.fabric.add_node(25e9, 25e9);
  const SegmentKey held{m.id(), 0};
  const SegmentKey missing{ModelId::make(0, 999), 0};
  auto read = [&](common::NodeId reader, std::vector<SegmentKey> keys,
                  bool accept_redirect) {
    wire::ReadSegmentsRequest req;
    req.keys = std::move(keys);
    req.reader_node = reader;
    req.caching = true;
    req.accept_redirect = accept_redirect;
    auto raw = env.run(env.rpc.call(reader, node, Provider::kReadSegments,
                                    wire::encode(req)));
    EXPECT_TRUE(raw.ok()) << raw.status().to_string();
    auto resp = wire::decode<wire::ReadSegmentsResponse>(
        raw.ok() ? raw.value() : common::Bytes{});
    EXPECT_TRUE(resp.ok()) << resp.status().to_string();
    return resp.ok() ? std::move(resp).value() : wire::ReadSegmentsResponse{};
  };

  auto failed = read(reader_a, {held, missing}, false);
  EXPECT_EQ(failed.status.code(), common::ErrorCode::kNotFound);
  auto served = read(reader_b, {held}, true);
  ASSERT_TRUE(served.status.ok()) << served.status.to_string();
  ASSERT_EQ(served.info.size(), 1u);
  EXPECT_EQ(served.info[0].state, wire::ReadEntryState::kFresh);

  // A read that succeeds does name its reader: the next one is redirected.
  ASSERT_TRUE(read(reader_a, {held}, false).status.ok());
  auto redirected = read(reader_b, {held}, true);
  ASSERT_EQ(redirected.info.size(), 1u);
  EXPECT_EQ(redirected.info[0].state, wire::ReadEntryState::kRedirect);
  EXPECT_EQ(redirected.info[0].redirect, reader_a);
}

// ---- malformed requests ---------------------------------------------------

constexpr double kOpSeconds = 1.0;  // per-op cost: any charged op would show

// Sends `req` with its last byte cut off — a prefix that cannot decode —
// checks the answer came back at once (no op cost charged), and returns it.
template <typename Request>
common::Bytes send_truncated(ClusterEnv& env, common::NodeId from,
                             common::NodeId to, const char* method,
                             const Request& req) {
  common::Bytes bytes = wire::encode(req);
  bytes.pop_back();
  common::Deserializer probe(bytes);
  (void)Request::deserialize(probe);
  EXPECT_FALSE(probe.ok()) << method << ": truncation still decodes";
  double t0 = env.sim.now();
  auto r = env.run(env.rpc.call(from, to, method, std::move(bytes)));
  EXPECT_LT(env.sim.now() - t0, kOpSeconds) << method;
  EXPECT_TRUE(r.ok()) << method << ": " << r.status().to_string();
  return r.ok() ? std::move(r).value() : common::Bytes{};
}

// The one answer to a malformed request: the decode status where the
// response has a status, else the default response, byte for byte.
template <typename Response, typename Request>
void expect_rejected(ClusterEnv& env, common::NodeId from, common::NodeId to,
                     const char* method, const Request& req) {
  common::Bytes answer = send_truncated(env, from, to, method, req);
  auto resp = wire::decode<Response>(answer);
  ASSERT_TRUE(resp.ok()) << method << ": " << resp.status().to_string();
  if constexpr (requires { resp->status; }) {
    EXPECT_EQ(resp->status.code(), common::ErrorCode::kCorruption) << method;
  } else {
    EXPECT_EQ(answer, wire::encode(Response{})) << method;
  }
}

// Every typed method — the provider's twelve, the client's peer read, and
// the Redis baseline's five — answers a request that does not decode at
// once, with that one answer, and touches no state.
TEST(Provider, MalformedRequestsAnswerAtOnceAndTouchNothing) {
  ProviderConfig config;
  config.op_seconds = kOpSeconds;
  ClientConfig client_config;
  client_config.cache.capacity_bytes = 1 << 20;
  ClusterEnv env(1, config, client_config);
  Provider& provider = env.repo->provider(0);
  const common::NodeId node = env.provider_nodes[0];
  const common::NodeId from = env.worker;
  auto g = chain_graph(2, 8);
  auto m = model::Model::random(env.repo->allocate_id(), g, 1);
  ASSERT_TRUE(env.run(store_model(env.client(), m)).ok());
  const ProviderStats stats_before = provider.stats();
  const std::vector<ModelId> models_before = provider.model_ids();
  const size_t segments_before = provider.segment_count();
  const size_t bytes_before = provider.stored_payload_bytes();

  const SegmentKey key{m.id(), 1};
  wire::PutModelRequest put;
  put.id = env.repo->allocate_id();
  put.graph = g;
  put.owners = OwnerMap::self_owned(put.id, g.size());
  wire::ReadSegmentsRequest read;
  read.keys = {key};
  wire::ModifyRefsRequest refs;
  refs.keys = {key};
  refs.increment = false;
  refs.token = 9;
  wire::ReplicateRequest replicate;
  replicate.has_meta = true;
  replicate.id = put.id;
  replicate.graph = g;
  replicate.owners = put.owners;
  const wire::HintRecord hint{
      0, Provider::kRetire, wire::encode(wire::RetireRequest{m.id(), 7})};
  expect_rejected<wire::PutModelResponse>(env, from, node, Provider::kPutModel,
                                          put);
  expect_rejected<wire::GetMetaResponse>(env, from, node, Provider::kGetMeta,
                                         wire::GetMetaRequest{m.id()});
  expect_rejected<wire::ReadSegmentsResponse>(env, from, node,
                                              Provider::kReadSegments, read);
  expect_rejected<wire::ModifyRefsResponse>(env, from, node,
                                            Provider::kModifyRefs, refs);
  expect_rejected<wire::RetireResponse>(env, from, node, Provider::kRetire,
                                        wire::RetireRequest{m.id(), 7});
  expect_rejected<wire::LcpQueryResponse>(env, from, node, Provider::kLcpQuery,
                                          wire::LcpQueryRequest{g});
  expect_rejected<wire::StoreHintResponse>(env, from, node,
                                           Provider::kStoreHint,
                                           wire::StoreHintRequest{hint});
  expect_rejected<wire::ReplicateResponse>(env, from, node,
                                           Provider::kReplicate, replicate);
  expect_rejected<wire::FetchChunksResponse>(
      env, from, node, Provider::kFetchChunks,
      wire::FetchChunksRequest{{{1, 2}}});
  expect_rejected<wire::DrainResponse>(env, from, node, Provider::kDrain,
                                       wire::DrainRequest{1, {node}, {1}});
  expect_rejected<wire::RepairResponse>(
      env, from, node, Provider::kRepairPeer,
      wire::RepairRequest{0, 1, {node}, {1}});
  // get_stats takes an empty request: no prefix of it can be malformed.
  EXPECT_TRUE(wire::encode(wire::StatsRequest{}).empty());

  EXPECT_EQ(provider.stats(), stats_before);
  EXPECT_EQ(provider.model_ids(), models_before);
  EXPECT_EQ(provider.segment_count(), segments_before);
  EXPECT_EQ(provider.stored_payload_bytes(), bytes_before);
  EXPECT_EQ(provider.hint_count(), 0u);
  EXPECT_EQ(provider.refcount(key), 1);
  EXPECT_FALSE(provider.drained());

  // The client's cooperative-cache endpoint.
  expect_rejected<wire::PeerReadResponse>(env, node, env.worker,
                                          Client::kPeerRead,
                                          wire::PeerReadRequest{{key}, {1}});

  // The Redis baseline's endpoints. Their BoolResp leads with its status;
  // a cut-off model id decodes as none of their requests.
  baseline::RedisConfig redis_config;
  redis_config.op_seconds = kOpSeconds;
  const common::NodeId redis_node = env.fabric.add_node(25e9, 25e9);
  baseline::RedisQueries redis(env.rpc, redis_node, redis_config);
  ASSERT_TRUE(env.run(redis.begin_add(from, m.id(), g, 0.5)).status.ok());
  ASSERT_TRUE(env.run(redis.finish_add(from, m.id())).ok());
  const baseline::RedisStats redis_before = redis.stats();
  for (const char* method : {"redis.begin_add", "redis.finish_add",
                             "redis.unpin", "redis.retire"}) {
    auto answer = send_truncated(env, from, redis_node, method,
                                 wire::GetMetaRequest{m.id()});
    common::Deserializer d(answer);
    EXPECT_EQ(wire::deserialize_status(d).code(),
              common::ErrorCode::kCorruption)
        << method;
  }
  expect_rejected<wire::LcpQueryResponse>(env, from, redis_node, "redis.query",
                                          wire::LcpQueryRequest{g});
  EXPECT_EQ(redis.stats(), redis_before);
  EXPECT_EQ(redis.published_count(), 1u);
}

// A query whose shape does not decode (an index past its signature table,
// an edge past its vertices, counts past the input, ...) is answered at
// once with the default answer, by a provider and by the Redis baseline,
// and is never counted as a query.
TEST(Provider, MalformedQueryShapesAnswerAtOnce) {
  ProviderConfig config;
  config.op_seconds = kOpSeconds;
  ClusterEnv env(1, config);
  auto g = chain_graph(2, 8);
  auto m = model::Model::random(env.repo->allocate_id(), g, 1);
  ASSERT_TRUE(env.run(store_model(env.client(), m)).ok());
  baseline::RedisConfig redis_config;
  redis_config.op_seconds = kOpSeconds;
  const common::NodeId redis_node = env.fabric.add_node(25e9, 25e9);
  baseline::RedisQueries redis(env.rpc, redis_node, redis_config);
  const uint64_t queries_before = env.repo->provider(0).stats().lcp_queries;
  for (const auto& [what, shape] : testing::malformed_query_shapes()) {
    // The shape, then a one-provider ring view and no cover list.
    common::Serializer s;
    s.raw(shape);
    s.u64(1);
    s.u8(1);
    s.u64(0);
    for (common::NodeId node : {env.provider_nodes[0], redis_node}) {
      const double t0 = env.sim.now();
      auto r = env.run(env.rpc.call(
          env.worker, node,
          node == redis_node ? "redis.query" : Provider::kLcpQuery, s.data()));
      EXPECT_LT(env.sim.now() - t0, kOpSeconds) << what;
      ASSERT_TRUE(r.ok()) << what << ": " << r.status().to_string();
      EXPECT_EQ(r.value(), wire::encode(wire::LcpQueryResponse{})) << what;
    }
  }
  EXPECT_EQ(env.repo->provider(0).stats().lcp_queries, queries_before);
  EXPECT_EQ(redis.stats().queries, 0u);
}

}  // namespace
}  // namespace evostore::core
