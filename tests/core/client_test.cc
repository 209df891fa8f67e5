#include "core/client.h"

#include <gtest/gtest.h>

#include <map>

#include "core/placement.h"
#include "net/fault.h"
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

// ---- one encoding per logical request (DESIGN.md §7) ----------------------

// Stub provider nodes: raw handlers that record every request's bytes, per
// node and method, and answer a fixed response. A node the fault injector
// holds down answers nothing: its legs fail Unavailable.
struct StubNodes {
  sim::Simulation sim;
  net::Fabric fabric;
  net::RpcSystem rpc;
  net::FaultInjector faults;
  std::vector<common::NodeId> nodes;
  common::NodeId worker;
  std::map<std::pair<common::NodeId, std::string>, std::vector<common::Bytes>>
      seen;

  explicit StubNodes(size_t providers)
      : fabric(sim,
               net::FabricConfig{.latency = 1.5e-6, .local_latency = 2e-7}),
        rpc(fabric),
        faults(sim) {
    for (size_t i = 0; i < providers; ++i) {
      nodes.push_back(fabric.add_node(25e9, 25e9));
    }
    worker = fabric.add_node(25e9, 25e9);
    rpc.set_fault_injector(&faults);
  }

  void serve(common::NodeId node, const std::string& method,
             common::Bytes response) {
    rpc.register_handler(
        node, method,
        [log = &seen[{node, method}],
         response](common::Bytes request) -> sim::CoTask<common::Bytes> {
          log->push_back(std::move(request));
          co_return response;
        });
  }
  const std::vector<common::Bytes>& requests(common::NodeId node,
                                             const std::string& method) {
    return seen[{node, method}];
  }
};

TEST(EncodeOnce, LcpRoundsSendOneEncodingEach) {
  StubNodes env(3);
  for (common::NodeId node : env.nodes) {
    env.serve(node, Provider::kLcpQuery,
              wire::encode(wire::LcpQueryResponse{}));
  }
  env.faults.crash_node(env.nodes[1]);  // its round-1 leg fails
  ClientConfig cfg;
  cfg.retry.max_attempts = 2;
  Client client(env.rpc, env.worker, 1, env.nodes, cfg);
  const model::ArchGraph g = chain_graph(6, 16);
  auto r = env.sim.run_until_complete(client.query_lcp(g));
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_FALSE(r->found);
  EXPECT_TRUE(r->partial);

  // Round 1 asks every provider with the client's full ring view; the cover
  // round asks the responders to cover provider 1's share.
  const common::Bytes round1 =
      wire::encode(wire::LcpQueryRequest{g, {1, 1, 1}, {}});
  const common::Bytes round2 =
      wire::encode(wire::LcpQueryRequest{g, {1, 0, 1}, {1}});
  for (common::NodeId node : {env.nodes[0], env.nodes[2]}) {
    const auto& seen = env.requests(node, Provider::kLcpQuery);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], round1);
    EXPECT_EQ(seen[1], round2);
    auto cover = wire::decode<wire::LcpQueryRequest>(seen[1]);
    ASSERT_TRUE(cover.ok());
    EXPECT_EQ(cover->graph.shape(), g);
    EXPECT_EQ(cover->live, (std::vector<uint8_t>{1, 0, 1}));
    EXPECT_EQ(cover->cover, (std::vector<common::ProviderId>{1}));
  }
  EXPECT_TRUE(env.requests(env.nodes[1], Provider::kLcpQuery).empty());
}

TEST(EncodeOnce, PutLegsRetriesAndHintShareOneEncoding) {
  StubNodes env(3);
  const model::ArchGraph g = chain_graph(4, 16);
  const ModelId id = ModelId::make(1, 1);  // the client's first id
  const std::vector<common::ProviderId> reps = Membership(3, 2).replicas(id);
  ASSERT_EQ(reps.size(), 2u);
  // The first replica commits; the second answers Unavailable until its
  // leg runs out of attempts, and its hint is parked on the first.
  const common::NodeId committer = env.nodes[reps[0]];
  const common::NodeId refuser = env.nodes[reps[1]];
  env.serve(committer, Provider::kPutModel,
            wire::encode(wire::PutModelResponse{common::Status::Ok(), 1}));
  env.serve(refuser, Provider::kPutModel,
            wire::encode(wire::PutModelResponse{
                common::Status::Unavailable("stub"), 0}));
  env.serve(committer, Provider::kStoreHint,
            wire::encode(wire::StoreHintResponse{common::Status::Ok()}));
  ClientConfig cfg;
  cfg.retry.max_attempts = 3;
  cfg.retry.initial_backoff = 0.001;
  Client client(env.rpc, env.worker, 1, env.nodes, cfg);
  ASSERT_EQ(client.allocate_id(), id);
  auto m = model::Model::random(id, g, 3);
  EXPECT_TRUE(env.sim.run_until_complete(client.put_model(m, nullptr)).ok());

  const auto& committed = env.requests(committer, Provider::kPutModel);
  const auto& refused = env.requests(refuser, Provider::kPutModel);
  ASSERT_EQ(committed.size(), 1u);
  ASSERT_EQ(refused.size(), 3u);  // every attempt of the failing leg
  for (const common::Bytes& bytes : refused) EXPECT_EQ(bytes, committed[0]);
  auto put = wire::decode<wire::PutModelRequest>(committed[0]);
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(put->id, id);
  EXPECT_EQ(put->graph.graph_hash(), g.graph_hash());

  const auto& hints = env.requests(committer, Provider::kStoreHint);
  ASSERT_EQ(hints.size(), 1u);
  auto hint = wire::decode<wire::StoreHintRequest>(hints[0]);
  ASSERT_TRUE(hint.ok());
  EXPECT_EQ(hint->hint.target, reps[1]);
  EXPECT_EQ(hint->hint.method, Provider::kPutModel);
  EXPECT_EQ(hint->hint.payload, committed[0]);
  EXPECT_EQ(client.fault_stats().hints_sent, 1u);
}

// ---- the attempt loop behind every RPC leg ---------------------------------

using Tags = std::vector<std::pair<std::string, std::string>>;

// The tags of every span named `name`, in the order the spans began.
std::vector<Tags> span_tags(const obs::Tracer& tracer, const std::string& name) {
  std::vector<Tags> out;
  for (const obs::SpanRecord& r : tracer.records()) {
    if (r.name == name) out.push_back(r.tags);
  }
  return out;
}

// Checks one attempt span: its leading tags, then its outcome, then (on an
// attempt that is retried) a positive backoff.
void expect_attempt(const Tags& tags, const Tags& lead,
                    const std::string& outcome, bool backoff) {
  Tags expected = lead;
  expected.emplace_back("outcome", outcome);
  ASSERT_EQ(tags.size(), expected.size() + (backoff ? 1 : 0));
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(tags[i], expected[i]) << i;
  }
  if (backoff) {
    EXPECT_EQ(tags.back().first, "backoff_seconds");
    EXPECT_GT(std::stod(tags.back().second), 0.0);
  }
}

ClientConfig retrying_config(int max_attempts) {
  ClientConfig cfg;
  cfg.replication = 1;
  cfg.retry.max_attempts = max_attempts;
  cfg.retry.initial_backoff = 0.001;
  return cfg;
}

TEST(AttemptLoop, CallLegRetriesThenExhausts) {
  StubNodes env(1);
  env.serve(env.nodes[0], Provider::kGetMeta,
            wire::encode(wire::GetMetaResponse{}));
  env.faults.crash_node(env.nodes[0]);
  obs::Tracer tracer(env.sim);
  env.rpc.set_tracer(&tracer);
  Client client(env.rpc, env.worker, 1, env.nodes, retrying_config(3));
  auto r = env.sim.run_until_complete(client.get_meta(ModelId::make(1, 1)));
  ASSERT_EQ(r.status().code(), common::ErrorCode::kUnavailable);
  const std::string error = r.status().to_string();

  EXPECT_EQ(client.fault_stats().retries, 2u);
  EXPECT_EQ(client.fault_stats().exhausted, 1u);
  const std::vector<Tags> spans = span_tags(tracer, "attempt");
  ASSERT_EQ(spans.size(), 3u);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Tags lead = {{"method", Provider::kGetMeta},
                       {"attempt", std::to_string(i + 1)}};
    const bool last = i + 1 == spans.size();
    expect_attempt(spans[i], lead, last ? "exhausted: " + error : error,
                   !last);
  }
}

// A put leg against a replica that answers Unavailable: `leg_attempts` is
// RetryPolicy::write_leg_attempts, so the leg runs `rounds` rounds of
// `per_round` attempts each.
void put_leg_retries(int leg_attempts, size_t rounds, size_t per_round) {
  StubNodes env(1);
  env.serve(env.nodes[0], Provider::kPutModel,
            wire::encode(wire::PutModelResponse{
                common::Status::Unavailable("stub"), 0}));
  obs::Tracer tracer(env.sim);
  env.rpc.set_tracer(&tracer);
  ClientConfig cfg = retrying_config(3);
  cfg.retry.write_leg_attempts = leg_attempts;
  Client client(env.rpc, env.worker, 1, env.nodes, cfg);
  auto m = model::Model::random(client.allocate_id(), chain_graph(4, 16), 3);
  common::Status st = env.sim.run_until_complete(client.put_model(m, nullptr));
  ASSERT_EQ(st.code(), common::ErrorCode::kUnavailable);
  const std::string error = st.to_string();

  EXPECT_EQ(env.requests(env.nodes[0], Provider::kPutModel).size(),
            rounds * per_round);
  // One retry per non-final attempt of each round, one per later round.
  EXPECT_EQ(client.fault_stats().retries,
            rounds * (per_round - 1) + (rounds - 1));
  EXPECT_EQ(client.fault_stats().exhausted, 1u);
  const std::vector<Tags> spans = span_tags(tracer, "put_attempt");
  ASSERT_EQ(spans.size(), rounds * per_round);
  ASSERT_EQ(spans[0].size(), 4u);
  const std::string payload = spans[0][1].second;
  EXPECT_EQ(spans[0][1].first, "payload_bytes");
  EXPECT_GT(std::stoull(payload), 0u);
  for (size_t i = 0; i < spans.size(); ++i) {
    const size_t attempt = i % per_round + 1;
    const Tags lead = {{"attempt", std::to_string(attempt)},
                       {"payload_bytes", payload}};
    const bool last = attempt == per_round;
    expect_attempt(spans[i], lead, last ? "leg exhausted: " + error : error,
                   !last);
  }
}

TEST(AttemptLoop, PutLegRetriesThenExhaustsItsBudget) {
  put_leg_retries(/*leg_attempts=*/0, /*rounds=*/1, /*per_round=*/3);
}

TEST(AttemptLoop, CappedPutLegRetriesEveryRound) {
  put_leg_retries(/*leg_attempts=*/2, /*rounds=*/3, /*per_round=*/2);
}

// A put leg against a replica that answers `answers` in turn (the last one
// repeats); returns the put's status and its attempt spans' tags.
std::pair<common::Status, std::vector<Tags>> put_against(
    std::vector<common::Status> answers) {
  StubNodes env(1);
  size_t calls = 0;
  env.rpc.register_handler(
      env.nodes[0], Provider::kPutModel,
      [answers, calls = &calls](common::Bytes) -> sim::CoTask<common::Bytes> {
        const size_t i = std::min((*calls)++, answers.size() - 1);
        co_return wire::encode(wire::PutModelResponse{answers[i], 0});
      });
  obs::Tracer tracer(env.sim);
  env.rpc.set_tracer(&tracer);
  Client client(env.rpc, env.worker, 1, env.nodes, retrying_config(3));
  auto m = model::Model::random(client.allocate_id(), chain_graph(4, 16), 3);
  common::Status st = env.sim.run_until_complete(client.put_model(m, nullptr));
  EXPECT_EQ(client.fault_stats().retries, calls - 1);
  EXPECT_EQ(client.fault_stats().exhausted, 0u);
  return {st, span_tags(tracer, "put_attempt")};
}

// AlreadyExists on a retry can only mean an earlier attempt committed and
// its answer was lost: the leg lands. On a first attempt it is an error.
TEST(AttemptLoop, PutLegRetryFindingItsModelCommittedLands) {
  auto [st, spans] = put_against({common::Status::Unavailable("lost"),
                                  common::Status::AlreadyExists("dup")});
  EXPECT_TRUE(st.ok()) << st.to_string();
  ASSERT_EQ(spans.size(), 2u);
  const std::string payload = spans[0][1].second;
  expect_attempt(spans[0], {{"attempt", "1"}, {"payload_bytes", payload}},
                 common::Status::Unavailable("lost").to_string(), true);
  expect_attempt(spans[1], {{"attempt", "2"}, {"payload_bytes", payload}},
                 "committed-by-earlier-attempt", false);

  auto [first, first_spans] =
      put_against({common::Status::AlreadyExists("dup")});
  EXPECT_EQ(first.code(), common::ErrorCode::kAlreadyExists);
  ASSERT_EQ(first_spans.size(), 1u);
  expect_attempt(first_spans[0],
                 {{"attempt", "1"}, {"payload_bytes", payload}},
                 common::Status::AlreadyExists("dup").to_string(), false);
}

TEST(AttemptLoop, ReadLegRetriesThenExhausts) {
  StubNodes env(1);
  wire::ReadSegmentsResponse refused;
  refused.status = common::Status::Unavailable("stub");
  env.serve(env.nodes[0], Provider::kReadSegments, wire::encode(refused));
  obs::Tracer tracer(env.sim);
  env.rpc.set_tracer(&tracer);
  Client client(env.rpc, env.worker, 1, env.nodes, retrying_config(3));
  const OwnerMap owners = OwnerMap::self_owned(ModelId::make(1, 1), 4);
  auto r = env.sim.run_until_complete(
      client.read_segments(&owners, std::vector<VertexId>{0, 2}));
  ASSERT_EQ(r.status().code(), common::ErrorCode::kUnavailable);
  const std::string error = r.status().to_string();

  EXPECT_EQ(env.requests(env.nodes[0], Provider::kReadSegments).size(), 3u);
  EXPECT_EQ(client.fault_stats().retries, 2u);
  EXPECT_EQ(client.fault_stats().exhausted, 1u);
  const std::vector<Tags> spans = span_tags(tracer, "read_attempt");
  ASSERT_EQ(spans.size(), 3u);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Tags lead = {{"attempt", std::to_string(i + 1)}, {"keys", "2"}};
    const bool last = i + 1 == spans.size();
    expect_attempt(spans[i], lead, last ? "exhausted: " + error : error,
                   !last);
  }
}

}  // namespace
}  // namespace evostore::core
