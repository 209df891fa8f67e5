// K-way replication fault model (DESIGN.md §15): hinted handoff parked on a
// surviving replica while a peer is down and replayed exactly-once on its
// recovery; anti-entropy repair rebuilding a permanently-lost provider from
// its replica peers (pulling content-addressed chunk bodies from whichever
// peer has them); drain migrating a provider's catalog to its successor
// replicas; and the whole handoff cycle surviving a network partition whose
// heal re-delivers held messages in a reordered order. Reads stripe a
// model's segment keys across its replica set and fail over past a crashed
// or lagging stripe replica. The replicated-write branches: a retire and
// its refs group hinting a crashed replica leg by leg, writes that reach no
// replica, and a put riding out its own writer's outage in later rounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>

#include "core/records.h"
#include "net/fault.h"
#include "storage/mem_kv.h"
#include "tests/core/test_env.h"

namespace evostore::core {
namespace {

using common::ModelId;
using common::NodeId;
using common::ProviderId;
using common::SegmentKey;
using common::VertexId;
using testing::chain_graph;

// Simulation-scale chunking (see dedup_gc_test.cc): compact sim payloads
// never reach the deployment-scale 4 KiB threshold.
ProviderConfig chunked_config() {
  ProviderConfig cfg;
  cfg.chunker = compress::ChunkerConfig{/*min_bytes=*/32, /*avg_bytes=*/64,
                                        /*max_bytes=*/256};
  return cfg;
}

// Short client retries: a write aimed at a down replica must give up
// quickly and park a hint instead of riding out the outage.
ClientConfig short_retries() {
  ClientConfig cc;
  cc.rpc_timeout = 0.02;
  cc.retry.max_attempts = 2;
  cc.retry.initial_backoff = 0.005;
  cc.retry.max_backoff = 0.01;
  return cc;
}

// Two-tier write budget (RetryPolicy::write_leg_attempts): one attempt per
// put leg and round, `rounds` rounds.
ClientConfig one_attempt_legs(int rounds) {
  ClientConfig cc = short_retries();
  cc.retry.max_attempts = rounds;
  cc.retry.write_leg_attempts = 1;
  return cc;
}

// Multi-provider cluster with per-provider MemKv backends and a fault
// injector attached BEFORE repository construction (so restart hooks —
// recovery + hint replay — are registered).
struct ReplEnv {
  std::vector<std::unique_ptr<storage::MemKv>> backends;
  sim::Simulation sim;
  net::Fabric fabric;
  net::RpcSystem rpc;
  net::FaultInjector injector;
  std::vector<NodeId> provider_nodes;
  NodeId worker;
  std::unique_ptr<EvoStoreRepository> repo;

  explicit ReplEnv(int providers, ProviderConfig config = {},
                   net::FaultConfig faults = {.seed = 11,
                                              .loss_detect_seconds = 0.005},
                   ClientConfig client_config = short_retries())
      : fabric(sim,
               net::FabricConfig{.latency = 1.5e-6, .local_latency = 2e-7}),
        rpc(fabric),
        injector(sim, faults) {
    rpc.set_fault_injector(&injector);
    std::vector<storage::KvStore*> raw;
    for (int i = 0; i < providers; ++i) {
      provider_nodes.push_back(fabric.add_node(25e9, 25e9));
      backends.push_back(std::make_unique<storage::MemKv>());
      raw.push_back(backends.back().get());
    }
    worker = fabric.add_node(25e9, 25e9);
    repo = std::make_unique<EvoStoreRepository>(rpc, provider_nodes, config,
                                                raw, client_config);
  }

  Client& client() { return repo->client(worker); }

  template <typename T>
  T run(sim::CoTask<T> task) {
    return sim.run_until_complete(std::move(task));
  }

  /// Advance simulated time (drives detached replay / repair coroutines).
  void settle(double seconds) {
    auto idle = [this, seconds]() -> sim::CoTask<void> {
      co_await sim.delay(seconds);
    };
    run(idle());
  }

  model::Model make_model(const model::ArchGraph& g, uint64_t seed) {
    auto m = model::Model::random(repo->allocate_id(), g, seed);
    m.set_quality(0.6);
    return m;
  }

  sim::CoTask<common::Status> put(const model::Model& m) {
    co_return co_await client().put_model(m, nullptr);
  }

  void expect_reads_back(const model::Model& want) {
    auto got = run(client().get_model(want.id()));
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    for (VertexId v = 0; v < want.vertex_count(); ++v) {
      EXPECT_TRUE(got->segment(v).content_equals(want.segment(v)))
          << "vertex " << v;
    }
  }
};

// The striped-read rule (DESIGN.md §15): a key's first replica is
// R[vertex mod |R|], R its owner's replica set.
ProviderId stripe_replica(const std::vector<ProviderId>& reps, VertexId v) {
  return reps[v % reps.size()];
}

// ReadSegments requests each provider has served so far.
std::vector<uint64_t> segment_reads(EvoStoreRepository& repo) {
  std::vector<uint64_t> reads;
  for (size_t p = 0; p < repo.provider_count(); ++p) {
    reads.push_back(repo.provider(p).stats().segment_reads);
  }
  return reads;
}

// An 8-segment model (input + 7 dense layers) with its replica set.
struct StripedModel {
  model::Model m;
  std::vector<ProviderId> reps;
};
StripedModel put_eight_segment_model(ReplEnv& env) {
  StripedModel s{env.make_model(chain_graph(7, 16), 1), {}};
  EXPECT_EQ(s.m.vertex_count(), 8u);
  EXPECT_TRUE(env.run(env.put(s.m)).ok());
  s.reps = env.repo->membership().replicas(s.m.id());
  EXPECT_EQ(s.reps.size(), 2u);
  return s;
}

// The hints parked in `backend`, in arrival order (its hint/ records).
std::vector<wire::HintRecord> parked_hints(const storage::MemKv& backend) {
  std::vector<wire::HintRecord> hints;
  for (const std::string& key : backend.keys()) {
    if (!key.starts_with("hint/")) continue;
    auto value = backend.get(key);
    EXPECT_TRUE(value.ok()) << key;
    if (!value.ok()) continue;
    auto hint = records::decode<wire::HintRecord>(*value);
    EXPECT_TRUE(hint.ok()) << key;
    if (hint.ok()) hints.push_back(std::move(hint).value());
  }
  return hints;
}

// The one provider outside `reps` in a three-provider cluster.
ProviderId outsider(const std::vector<ProviderId>& reps) {
  ProviderId p = 0;
  while (std::find(reps.begin(), reps.end(), p) != reps.end()) ++p;
  return p;
}

size_t keys_striped_to(const StripedModel& s, ProviderId p) {
  size_t n = 0;
  for (VertexId v = 0; v < s.m.vertex_count(); ++v) {
    n += stripe_replica(s.reps, v) == p ? 1 : 0;
  }
  return n;
}

TEST(Replication, ReadStripesKeysAcrossReplicas) {
  ReplEnv env(4);
  auto [m, reps] = put_eight_segment_model(env);
  ASSERT_EQ(reps.size(), 2u);

  // One read of the whole model: each replica serves one ReadSegments.
  auto before = segment_reads(*env.repo);
  env.expect_reads_back(m);
  auto after = segment_reads(*env.repo);
  for (size_t p = 0; p < after.size(); ++p) {
    const bool replica = std::find(reps.begin(), reps.end(), p) != reps.end();
    EXPECT_EQ(after[p] - before[p], replica ? 1u : 0u) << "provider " << p;
  }

  // Key by key: reading vertex v alone reaches replica v mod 2 only.
  const OwnerMap owners = OwnerMap::self_owned(m.id(), m.vertex_count());
  for (VertexId v = 0; v < m.vertex_count(); ++v) {
    before = segment_reads(*env.repo);
    auto got = env.run(env.client().read_segments(&owners, {v}));
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    EXPECT_TRUE(got->front().content_equals(m.segment(v))) << "vertex " << v;
    after = segment_reads(*env.repo);
    for (size_t p = 0; p < after.size(); ++p) {
      EXPECT_EQ(after[p] - before[p], p == stripe_replica(reps, v) ? 1u : 0u)
          << "vertex " << v << " provider " << p;
    }
  }
  EXPECT_EQ(env.repo->total_client_fault_stats().read_failovers, 0u);
}

TEST(Replication, ReadFailsOverKeysStripedToCrashedReplica) {
  ReplEnv env(4);
  StripedModel s = put_eight_segment_model(env);
  ASSERT_EQ(s.reps.size(), 2u);
  const ProviderId down = s.reps[1];
  env.injector.crash_node(env.provider_nodes[down]);

  // Metadata stays primary-first (no failover); each key striped to the
  // crashed replica fails over once.
  env.expect_reads_back(s.m);
  ASSERT_EQ(keys_striped_to(s, down), 4u);
  EXPECT_EQ(env.repo->total_client_fault_stats().read_failovers,
            keys_striped_to(s, down));
  // The read succeeded, so no operation gave up.
  EXPECT_EQ(env.repo->total_client_fault_stats().exhausted, 0u);
}

TEST(Replication, ReadFailsOverPastLaggingStripeReplica) {
  // Every message leg between two nodes waits an extra 2 ms; legs within a
  // node never spike. The writer sits on the first replica's node, so that
  // put leg lands at once, while the leg to the second replica (bulk, then
  // publish) lands 4 ms later. The reader sits on the second replica's
  // node: its reads there are local and arrive inside that window.
  ReplEnv env(4, {},
              {.seed = 11,
               .spike_probability = 1,
               .spike_seconds = 0.002,
               .loss_detect_seconds = 0.005});
  auto m = env.make_model(chain_graph(7, 16), 1);
  const StripedModel s{m, env.repo->membership().replicas(m.id())};
  ASSERT_EQ(s.reps.size(), 2u);
  Client& writer = env.repo->client(env.provider_nodes[s.reps[0]]);
  Client& reader = env.repo->client(env.provider_nodes[s.reps[1]]);
  const OwnerMap owners = OwnerMap::self_owned(m.id(), m.vertex_count());
  std::vector<VertexId> all(m.vertex_count());
  std::iota(all.begin(), all.end(), VertexId{0});

  bool in_window = false;
  std::optional<common::Result<std::vector<model::Segment>>> got;
  common::Status put_status = common::Status::Internal("put never ran");
  auto driver = [&]() -> sim::CoTask<void> {
    auto put = env.sim.spawn(writer.put_model(m, nullptr));
    co_await env.sim.delay(0.001);
    in_window = env.repo->provider(s.reps[0]).has_model(m.id()) &&
                !env.repo->provider(s.reps[1]).has_model(m.id());
    got.emplace(co_await reader.read_segments(&owners, all));
    put_status = co_await put;
  };
  env.run(driver());

  ASSERT_TRUE(in_window);
  ASSERT_TRUE(put_status.ok()) << put_status.to_string();
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok()) << got->status().to_string();
  for (VertexId v = 0; v < m.vertex_count(); ++v) {
    EXPECT_TRUE((**got)[v].content_equals(m.segment(v))) << "vertex " << v;
  }
  // The lagging replica answered NotFound for its stripe; those keys alone
  // failed over to the replica that held them.
  EXPECT_EQ(reader.fault_stats().read_failovers, keys_striped_to(s, s.reps[1]));
  EXPECT_TRUE(env.repo->provider(s.reps[1]).has_model(m.id()));
}

TEST(Replication, CachedReadRevalidatesEachKeyAtItsStripeReplica) {
  ClientConfig cc;
  cc.cache.capacity_bytes = 1 << 20;
  cc.cache.trust_seconds = 0;
  testing::ClusterEnv env{4, ProviderConfig{}, cc};
  auto m = model::Model::random(env.repo->allocate_id(), chain_graph(7, 16), 1);
  m.set_quality(0.6);
  auto put = [&]() -> sim::CoTask<common::Status> {
    co_return co_await env.client().put_model(m, nullptr);
  };
  ASSERT_TRUE(env.run(put()).ok());
  const StripedModel s{m, env.repo->membership().replicas(m.id())};
  ASSERT_EQ(s.reps.size(), 2u);
  auto read_back = [&]() {
    auto got = env.run(env.client().get_model(m.id()));
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    for (VertexId v = 0; v < m.vertex_count(); ++v) {
      EXPECT_TRUE(got->segment(v).content_equals(m.segment(v))) << v;
    }
  };
  read_back();

  // The second read validates every key at the replica that served it the
  // first time, so every key answers kNotModified and no payload moves.
  std::vector<uint64_t> nm_before;
  for (size_t p = 0; p < env.repo->provider_count(); ++p) {
    nm_before.push_back(env.repo->provider(p).stats().not_modified_reads);
  }
  const double bulk_before = env.rpc.stats().bulk_bytes;
  read_back();
  EXPECT_EQ(env.rpc.stats().bulk_bytes, bulk_before);
  uint64_t not_modified = 0;
  for (size_t p = 0; p < env.repo->provider_count(); ++p) {
    const uint64_t nm =
        env.repo->provider(p).stats().not_modified_reads - nm_before[p];
    EXPECT_EQ(nm, keys_striped_to(s, static_cast<ProviderId>(p)))
        << "provider " << p;
    not_modified += nm;
  }
  EXPECT_EQ(not_modified, m.vertex_count());
}

TEST(Replication, EveryReplicaHoldsEveryModel) {
  ReplEnv env(4);
  auto g = chain_graph(5, 16);
  std::vector<model::Model> models;
  for (uint64_t s = 1; s <= 6; ++s) models.push_back(env.make_model(g, s));
  for (const auto& m : models) ASSERT_TRUE(env.run(env.put(m)).ok());

  const Membership& membership = env.repo->membership();
  ASSERT_EQ(membership.replication(), 2u);
  for (const auto& m : models) {
    auto reps = membership.replicas(m.id());
    ASSERT_EQ(reps.size(), 2u);
    for (ProviderId p : reps) {
      EXPECT_TRUE(env.repo->provider(p).has_model(m.id()));
      for (VertexId v = 0; v < m.vertex_count(); ++v) {
        SegmentKey key{m.id(), v};
        EXPECT_TRUE(env.repo->provider(p).has_segment(key));
        // The replica-group refcount invariant: every replica sees the same
        // logical ±1 stream, so counts march in lockstep.
        EXPECT_EQ(env.repo->provider(p).refcount(key),
                  env.repo->provider(reps[0]).refcount(key));
      }
    }
    // Non-replicas hold nothing for this model.
    for (size_t p = 0; p < env.repo->provider_count(); ++p) {
      if (std::find(reps.begin(), reps.end(), static_cast<ProviderId>(p)) !=
          reps.end()) {
        continue;
      }
      EXPECT_FALSE(env.repo->provider(p).has_model(m.id()));
    }
  }
}

TEST(Replication, WriteDuringOutageParksHintAndReplaysOnRestart) {
  ReplEnv env(3);
  auto g = chain_graph(6, 16);
  auto m1 = env.make_model(g, 1);
  ASSERT_TRUE(env.run(env.put(m1)).ok());

  auto m2 = env.make_model(chain_graph(6, 16, 1, 3), 2);
  auto reps = env.repo->membership().replicas(m2.id());
  ASSERT_EQ(reps.size(), 2u);
  // Crash the PRIMARY replica: the write must commit on the survivor with a
  // hint parked, and reads must fail over past the dead primary.
  ProviderId down = reps[0];
  env.injector.crash_node(env.provider_nodes[down]);

  ASSERT_TRUE(env.run(env.put(m2)).ok());
  EXPECT_GE(env.repo->total_client_fault_stats().hints_sent, 1u);
  EXPECT_GE(env.repo->total_hints(), 1u);
  EXPECT_FALSE(env.repo->provider(down).has_model(m2.id()));

  env.expect_reads_back(m2);  // served by the surviving replica
  EXPECT_GT(env.repo->total_client_fault_stats().read_failovers, 0u);

  // Recovery: the restart hook reloads the backend (m1 intact) and every
  // peer replays its parked hints — the missed put arrives now.
  env.injector.restart_node(env.provider_nodes[down]);
  env.settle(2.0);

  EXPECT_EQ(env.repo->total_hints(), 0u);
  EXPECT_TRUE(env.repo->provider(down).has_model(m2.id()));
  EXPECT_GT(env.repo->provider(reps[1]).stats().hints_replayed, 0u);
  for (VertexId v = 0; v < m2.vertex_count(); ++v) {
    SegmentKey key{m2.id(), v};
    EXPECT_EQ(env.repo->provider(down).refcount(key),
              env.repo->provider(reps[1]).refcount(key));
  }
  env.expect_reads_back(m1);
  env.expect_reads_back(m2);
}

TEST(Replication, RetireDuringOutageHintsEachFailedLegWithItsOwnRequest) {
  ReplEnv env(3);
  auto m = env.make_model(chain_graph(4, 16), 1);
  ASSERT_TRUE(env.run(env.put(m)).ok());
  const auto reps = env.repo->membership().replicas(m.id());
  ASSERT_EQ(reps.size(), 2u);
  const ProviderId down = reps[0];
  const ProviderId survivor = reps[1];
  env.injector.crash_node(env.provider_nodes[down]);

  // The retire and its refs group both land on the survivor, so neither
  // hands an error to its caller.
  ASSERT_TRUE(env.run(env.client().retire(m.id())).ok());
  EXPECT_EQ(env.repo->total_client_fault_stats().exhausted, 0u);
  EXPECT_EQ(env.repo->total_client_fault_stats().hints_sent, 2u);
  EXPECT_FALSE(env.repo->provider(survivor).has_model(m.id()));

  // One hint per failed leg, in arrival order, each carrying its own leg's
  // request: the retire's legs share one token, and the refs group draws one
  // per leg in replica order, so the crashed primary's is the first.
  auto hints = parked_hints(*env.backends[survivor]);
  ASSERT_EQ(hints.size(), 2u);
  for (const auto& hint : hints) EXPECT_EQ(hint.target, down);
  ASSERT_EQ(hints[0].method, Provider::kRetire);
  ASSERT_EQ(hints[1].method, Provider::kModifyRefs);
  auto retire = wire::decode<wire::RetireRequest>(hints[0].payload);
  auto refs = wire::decode<wire::ModifyRefsRequest>(hints[1].payload);
  ASSERT_TRUE(retire.ok());
  ASSERT_TRUE(refs.ok());
  EXPECT_EQ(retire->id, m.id());
  EXPECT_EQ(refs->token, retire->token + 1);
  EXPECT_FALSE(refs->increment);
  EXPECT_EQ(refs->keys.size(), m.vertex_count());

  // The restarted replica reloads the model from its backend; the replay
  // then removes the metadata and frees the segments there.
  env.injector.restart_node(env.provider_nodes[down]);
  EXPECT_TRUE(env.repo->provider(down).has_model(m.id()));
  env.settle(2.0);
  EXPECT_EQ(env.repo->total_hints(), 0u);
  for (ProviderId p : reps) {
    EXPECT_FALSE(env.repo->provider(p).has_model(m.id())) << "provider " << p;
    for (VertexId v = 0; v < m.vertex_count(); ++v) {
      EXPECT_FALSE(env.repo->provider(p).has_segment({m.id(), v}))
          << "provider " << p << " vertex " << v;
    }
  }
}

TEST(Replication, WriteThatReachesNoReplicaFailsAndParksNoHint) {
  ReplEnv env(3);
  auto m = env.make_model(chain_graph(4, 16), 1);
  ASSERT_TRUE(env.run(env.put(m)).ok());
  for (ProviderId p : env.repo->membership().replicas(m.id())) {
    env.injector.crash_node(env.provider_nodes[p]);
  }
  const uint64_t calls_before = env.rpc.stats().calls;

  // A retire: neither replica answers, so there is no owner map to release.
  common::Status st = env.run(env.client().retire(m.id()));
  EXPECT_TRUE(common::is_retryable(st.code())) << st.to_string();
  // A refs group: releasing a transfer pin on two of m's segments reaches
  // neither replica.
  TransferContext tc;
  tc.ancestor = m.id();
  tc.ancestor_owners = OwnerMap::self_owned(m.id(), m.vertex_count());
  tc.matches = {{0, 0}, {1, 1}};
  tc.pinned = true;
  st = env.run(env.client().abandon_transfer(tc));
  EXPECT_TRUE(common::is_retryable(st.code())) << st.to_string();

  // Four legs of two attempts each and nothing else: no hint was parked, or
  // even tried.
  EXPECT_EQ(env.rpc.stats().calls - calls_before, 8u);
  EXPECT_EQ(env.repo->total_client_fault_stats().hints_sent, 0u);
  EXPECT_EQ(env.repo->total_hints(), 0u);
}

TEST(Replication, PutRidesOutItsWritersOutageInALaterRound) {
  ReplEnv env(3, {}, {.seed = 11, .loss_detect_seconds = 0.005},
              one_attempt_legs(/*rounds=*/20));
  auto m = env.make_model(chain_graph(4, 16), 1);
  const auto reps = env.repo->membership().replicas(m.id());
  ASSERT_EQ(reps.size(), 2u);
  // The writer shares a node with the provider outside m's replica set, and
  // that node is down for the put's first rounds: no bulk send can leave
  // it, so every leg of round 1 fails.
  const NodeId home = env.provider_nodes[outsider(reps)];
  Client& writer = env.repo->client(home);
  env.injector.schedule_crash(home, env.sim.now(), /*downtime=*/0.03);

  common::Status st = env.run(writer.put_model(m, nullptr));
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_GT(writer.fault_stats().retries, 0u);
  EXPECT_EQ(writer.fault_stats().exhausted, 0u);
  EXPECT_EQ(writer.fault_stats().hints_sent, 0u);
  for (ProviderId p : reps) {
    EXPECT_TRUE(env.repo->provider(p).has_model(m.id())) << "provider " << p;
    // Only the committing round's leg reached the replica.
    EXPECT_EQ(env.repo->provider(p).stats().puts, 1u) << "provider " << p;
  }

  // Every round re-sent the put's one tokened request, so the writer's next
  // token is its second: the one its retire parks with a crashed replica's
  // hint.
  env.injector.crash_node(env.provider_nodes[reps[0]]);
  ASSERT_TRUE(env.run(writer.retire(m.id())).ok());
  auto hints = parked_hints(*env.backends[reps[1]]);
  ASSERT_FALSE(hints.empty());
  ASSERT_EQ(hints[0].method, Provider::kRetire);
  auto retire = wire::decode<wire::RetireRequest>(hints[0].payload);
  ASSERT_TRUE(retire.ok());
  EXPECT_EQ(retire->token & 0xffffffffu, 2u);
}

TEST(Replication, PutThatNoRoundCommitsFailsOnceAndParksNoHint) {
  constexpr int kRounds = 4;
  ReplEnv env(3, {}, {.seed = 11, .loss_detect_seconds = 0.005},
              one_attempt_legs(kRounds));
  auto m = env.make_model(chain_graph(4, 16), 1);
  for (ProviderId p : env.repo->membership().replicas(m.id())) {
    env.injector.crash_node(env.provider_nodes[p]);
  }

  common::Status st = env.run(env.put(m));
  EXPECT_TRUE(common::is_retryable(st.code())) << st.to_string();
  const ClientFaultStats& fs = env.client().fault_stats();
  // One attempt per leg and round, so each retry is one more round.
  EXPECT_EQ(fs.retries, static_cast<uint64_t>(kRounds - 1));
  EXPECT_EQ(fs.exhausted, 1u);
  EXPECT_EQ(fs.hints_sent, 0u);
  EXPECT_EQ(env.repo->total_hints(), 0u);
}

TEST(Replication, HintReplayIsIdempotentAcrossReincarnation) {
  // The ambiguity hinted handoff must absorb: the target APPLIED the write,
  // then crashed before anyone saw the response. The parked hint replays on
  // recovery and the embedded idempotency token — whose dedup record the
  // target recovered from its backend — makes the replay a no-op.
  ReplEnv env(3);
  auto g = chain_graph(4, 16);
  auto m = env.make_model(g, 1);
  ASSERT_TRUE(env.run(env.put(m)).ok());
  auto reps = env.repo->membership().replicas(m.id());
  ASSERT_EQ(reps.size(), 2u);
  ProviderId target = reps[0];
  ProviderId custodian = reps[1];
  SegmentKey key{m.id(), 1};
  ASSERT_EQ(env.repo->provider(target).refcount(key), 1);

  wire::ModifyRefsRequest req;
  req.increment = true;
  req.keys.push_back(key);
  req.token = 0x5151000200000007ULL;
  // Applied on the target for real...
  auto deliver = [&]() -> sim::CoTask<common::Status> {
    auto r = co_await net::typed_call<wire::ModifyRefsResponse>(
        &env.rpc, env.worker, env.provider_nodes[target], Provider::kModifyRefs,
        req);
    co_return r.ok() ? r->status : r.status();
  };
  ASSERT_TRUE(env.run(deliver()).ok());
  ASSERT_EQ(env.repo->provider(target).refcount(key), 2);

  // ...but the client never saw the response, so the SAME request was parked
  // as a hint on the custodian.
  common::Serializer s;
  req.serialize(s);
  wire::StoreHintRequest hreq;
  hreq.hint.target = target;
  hreq.hint.method = Provider::kModifyRefs;
  hreq.hint.payload = std::move(s).take();
  auto park = [&]() -> sim::CoTask<common::Status> {
    auto r = co_await net::typed_call<wire::StoreHintResponse>(
        &env.rpc, env.worker, env.provider_nodes[custodian],
        Provider::kStoreHint, hreq);
    co_return r.ok() ? r->status : r.status();
  };
  ASSERT_TRUE(env.run(park()).ok());
  ASSERT_EQ(env.repo->provider(custodian).hint_count_for(target), 1u);

  // Reincarnation: crash, then restart (state + token dedup cache recovered
  // from the backend); the restart hook replays the hint.
  env.injector.crash_node(env.provider_nodes[target]);
  env.injector.restart_node(env.provider_nodes[target]);
  env.settle(2.0);

  EXPECT_EQ(env.repo->provider(custodian).hint_count_for(target), 0u);
  EXPECT_EQ(env.repo->provider(target).refcount(key), 2);  // applied ONCE
  EXPECT_EQ(env.repo->provider(target).stats().deduped_replays, 1u);
}

TEST(Replication, RepairRebuildsWipedProviderFromPeers) {
  ReplEnv env(3, chunked_config());
  auto g = chain_graph(8, 48);
  std::vector<model::Model> models;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    models.push_back(env.make_model(g, seed));
    ASSERT_TRUE(env.run(env.put(models.back())).ok());
  }

  // Permanent loss: the provider dies AND its backend is wiped, so the
  // restart comes back empty — only anti-entropy repair can rebuild it.
  constexpr ProviderId kLost = 0;
  env.injector.crash_node(env.provider_nodes[kLost]);
  for (const std::string& key : env.backends[kLost]->keys()) {
    ASSERT_TRUE(env.backends[kLost]->erase(key).ok());
  }
  env.injector.restart_node(env.provider_nodes[kLost]);
  env.settle(0.1);
  ASSERT_EQ(env.repo->provider(kLost).model_count(), 0u);

  ASSERT_TRUE(env.run(env.repo->repair_provider(kLost)).ok());

  // Every model whose replica set includes the lost provider is back, with
  // envelopes (chunk manifests included) and refcounts matching its peer.
  size_t rebuilt = 0;
  for (const auto& m : models) {
    auto reps = env.repo->membership().replicas(m.id());
    if (std::find(reps.begin(), reps.end(), kLost) == reps.end()) continue;
    ++rebuilt;
    ProviderId peer = reps[0] == kLost ? reps[1] : reps[0];
    EXPECT_TRUE(env.repo->provider(kLost).has_model(m.id()));
    for (VertexId v = 0; v < m.vertex_count(); ++v) {
      SegmentKey key{m.id(), v};
      const auto* mine = env.repo->provider(kLost).segment_envelope(key);
      const auto* theirs = env.repo->provider(peer).segment_envelope(key);
      ASSERT_NE(mine, nullptr) << "vertex " << v;
      ASSERT_NE(theirs, nullptr) << "vertex " << v;
      EXPECT_EQ(*mine, *theirs) << "vertex " << v;
      EXPECT_EQ(env.repo->provider(kLost).refcount(key),
                env.repo->provider(peer).refcount(key));
    }
    env.expect_reads_back(m);
  }
  EXPECT_GT(rebuilt, 0u);
  // The rebuild was chunk-aware: manifests travelled and the missing bodies
  // were pulled content-addressed from peers, not re-uploaded by clients.
  EXPECT_GT(env.repo->provider(kLost).stats().replica_chunks_fetched, 0u);
  EXPECT_EQ(env.repo->total_hints(), 0u);
}

TEST(Replication, ReplicateInstallPullsChunksFromAnyLivePeer) {
  // The pushing provider is only the FIRST chunk source: when it cannot
  // serve (it died mid-push), the installer falls back to the other replica
  // peers — whoever holds the content-addressed body serves it.
  ReplEnv env(3, chunked_config());
  auto g = chain_graph(8, 48);
  auto m = env.make_model(g, 1);
  ASSERT_TRUE(env.run(env.put(m)).ok());
  auto reps = env.repo->membership().replicas(m.id());
  ASSERT_EQ(reps.size(), 2u);
  ProviderId third = 0;
  for (size_t p = 0; p < env.repo->provider_count(); ++p) {
    if (std::find(reps.begin(), reps.end(), static_cast<ProviderId>(p)) ==
        reps.end()) {
      third = static_cast<ProviderId>(p);
    }
  }

  // A chunked envelope as stored on a replica.
  SegmentKey key{m.id(), 1};
  const auto* env_stored = env.repo->provider(reps[0]).segment_envelope(key);
  ASSERT_NE(env_stored, nullptr);
  ASSERT_EQ(env_stored->kind, compress::EnvelopeKind::kChunked);

  wire::ReplicateRequest req;
  req.has_meta = false;
  req.id = m.id();
  req.segments.push_back({key, *env_stored, /*refs=*/1});
  // Source: a replica that just died. Peer list: the surviving replica.
  req.source_node = env.provider_nodes[reps[0]];
  req.peer_nodes = {env.provider_nodes[reps[1]]};
  env.injector.crash_node(env.provider_nodes[reps[0]]);

  auto push = [&]() -> sim::CoTask<wire::ReplicateResponse> {
    auto r = co_await net::typed_call<wire::ReplicateResponse>(
        &env.rpc, env.worker, env.provider_nodes[third], Provider::kReplicate,
        req);
    EXPECT_TRUE(r.ok()) << r.status().to_string();
    co_return r.ok() ? *r : wire::ReplicateResponse{};
  };
  auto resp = env.run(push());
  EXPECT_TRUE(resp.status.ok()) << resp.status.to_string();
  EXPECT_EQ(resp.installed_segments, 1u);
  EXPECT_GT(resp.fetched_chunks, 0u);

  const auto* installed = env.repo->provider(third).segment_envelope(key);
  ASSERT_NE(installed, nullptr);
  EXPECT_EQ(*installed, *env_stored);
  EXPECT_GT(env.repo->provider(third).stats().replica_chunks_fetched, 0u);
}

TEST(Replication, DrainMigratesCatalogUnderOngoingMembershipView) {
  ReplEnv env(4);
  auto g = chain_graph(6, 16);
  std::vector<model::Model> models;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    models.push_back(env.make_model(g, seed));
    ASSERT_TRUE(env.run(env.put(models.back())).ok());
  }

  constexpr ProviderId kLeaving = 1;
  ASSERT_TRUE(env.run(env.repo->drain_provider(kLeaving)).ok());

  // The provider left the ring empty and refuses new work.
  EXPECT_TRUE(env.repo->provider(kLeaving).drained());
  EXPECT_EQ(env.repo->provider(kLeaving).model_count(), 0u);
  EXPECT_EQ(env.repo->provider(kLeaving).segment_count(), 0u);
  EXPECT_FALSE(env.repo->membership().is_live(kLeaving));
  EXPECT_GT(env.repo->provider(kLeaving).stats().drain_models_moved, 0u);

  // Every model is still at full replication strength on the survivors and
  // reads back bit-identical.
  for (const auto& m : models) {
    auto reps = env.repo->membership().replicas(m.id());
    ASSERT_EQ(reps.size(), 2u);
    for (ProviderId p : reps) {
      EXPECT_NE(p, kLeaving);
      EXPECT_TRUE(env.repo->provider(p).has_model(m.id()));
    }
    env.expect_reads_back(m);
  }

  // New writes place on the survivors only.
  auto late = env.make_model(g, 99);
  ASSERT_TRUE(env.run(env.put(late)).ok());
  EXPECT_FALSE(env.repo->provider(kLeaving).has_model(late.id()));
  env.expect_reads_back(late);
}

TEST(Replication, HandoffReplaySurvivesPartitionWithReorderedHeal) {
  // The replica crashes, writes park as hints, and it restarts INSIDE a
  // network partition: the replayed hints are held by the partition and
  // delivered after the heal, smeared in a seeded reordered order — which
  // the hints' embedded idempotency tokens must absorb.
  ReplEnv env(3);
  auto g = chain_graph(6, 16);
  auto m1 = env.make_model(g, 1);
  ASSERT_TRUE(env.run(env.put(m1)).ok());

  std::vector<model::Model> missed;
  for (uint64_t seed = 2; seed <= 4; ++seed) {
    missed.push_back(env.make_model(chain_graph(6, 16, 1, 2 + seed), seed));
  }
  // All three writes target the same down replica only if their replica
  // sets agree; instead just crash ONE provider and keep the writes whose
  // replica sets include it (every write still succeeds on its survivor).
  constexpr ProviderId kVictim = 0;

  auto driver = [&]() -> sim::CoTask<void> {
    double now = env.sim.now();
    env.injector.schedule_crash(env.provider_nodes[kVictim], now + 1e-6,
                                /*downtime=*/0.2);
    env.injector.schedule_partition({env.provider_nodes[kVictim]}, now + 0.1,
                                    now + 0.35);
    co_await env.sim.delay(1e-4);
    for (const auto& m : missed) {
      auto st = co_await env.client().put_model(m, nullptr);
      EXPECT_TRUE(st.ok()) << st.to_string();
    }
    // Ride past restart (t+0.2, inside the partition), the heal (t+0.35),
    // and the reorder spread.
    co_await env.sim.delay(1.5);
  };
  env.run(driver());

  EXPECT_GT(env.injector.stats().partitioned_messages, 0u);
  EXPECT_EQ(env.repo->total_hints(), 0u);
  size_t victim_writes = 0;
  for (const auto& m : missed) {
    auto reps = env.repo->membership().replicas(m.id());
    if (std::find(reps.begin(), reps.end(), kVictim) == reps.end()) continue;
    ++victim_writes;
    EXPECT_TRUE(env.repo->provider(kVictim).has_model(m.id()));
    env.expect_reads_back(m);
  }
  EXPECT_GT(victim_writes, 0u);
  uint64_t replayed = 0;
  for (size_t p = 0; p < env.repo->provider_count(); ++p) {
    replayed += env.repo->provider(p).stats().hints_replayed;
  }
  EXPECT_GT(replayed, 0u);
}

}  // namespace
}  // namespace evostore::core
