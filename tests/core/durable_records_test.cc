// Durable records: the exact bytes every record kind writes to a provider's
// KV backend, the order of the whole backend write stream across a
// replicated lifecycle, and the restore branches a crash exercises (parked
// hints, manifests whose chunk record is gone, orphan chunk records,
// malformed keys).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/serde.h"
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

std::string hex(std::span<const std::byte> bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (std::byte b : bytes) {
    out += kDigits[std::to_integer<int>(b) >> 4];
    out += kDigits[std::to_integer<int>(b) & 15];
  }
  return out;
}

// Simulation-scale chunking: compact sim payloads never reach the
// deployment-scale thresholds of the default ProviderConfig.
ProviderConfig chunked_config() {
  ProviderConfig cfg;
  cfg.chunker = compress::ChunkerConfig{/*min_bytes=*/32, /*avg_bytes=*/64,
                                        /*max_bytes=*/256};
  return cfg;
}

/// One backend mutation: which backend, put or erase, key, value (hex).
struct WriteOp {
  size_t backend = 0;
  std::string op;
  std::string key;
  std::string value;
};

/// A MemKv that appends every put and erase, in call order, to a log shared
/// by all backends of one deployment.
class RecordingKv final : public storage::KvStore {
 public:
  RecordingKv(size_t id, std::vector<WriteOp>* log) : id_(id), log_(log) {}

  common::Status put(std::string_view key, common::Buffer value) override {
    log_->push_back(WriteOp{id_, "put", std::string(key),
                            hex(value.materialize().dense_span())});
    return inner_.put(key, std::move(value));
  }
  common::Result<common::Buffer> get(std::string_view key) const override {
    return inner_.get(key);
  }
  common::Status erase(std::string_view key) override {
    log_->push_back(WriteOp{id_, "erase", std::string(key), ""});
    return inner_.erase(key);
  }
  bool contains(std::string_view key) const override {
    return inner_.contains(key);
  }
  size_t size() const override { return inner_.size(); }
  std::vector<std::string> keys() const override { return inner_.keys(); }
  size_t value_bytes() const override { return inner_.value_bytes(); }
  size_t logical_value_bytes() const override {
    return inner_.logical_value_bytes();
  }

 private:
  size_t id_;
  std::vector<WriteOp>* log_;
  storage::MemKv inner_;
};

/// A replicated deployment over per-provider backends of type `Kv`. With
/// `faults`, a fault injector is attached before the repository is built, so
/// crash/restart hooks (recovery + hint replay) are registered.
template <typename Kv>
struct Deployment {
  std::vector<std::unique_ptr<Kv>> backends;
  sim::Simulation sim;
  net::Fabric fabric;
  net::RpcSystem rpc;
  net::FaultInjector injector;
  std::vector<NodeId> provider_nodes;
  NodeId worker = 0;
  std::unique_ptr<EvoStoreRepository> repo;

  template <typename MakeKv>
  Deployment(int providers, ClientConfig cc, bool faults, MakeKv make_kv)
      : fabric(sim,
               net::FabricConfig{.latency = 1.5e-6, .local_latency = 2e-7}),
        rpc(fabric),
        injector(sim, net::FaultConfig{.seed = 11,
                                       .loss_detect_seconds = 0.005}) {
    if (faults) rpc.set_fault_injector(&injector);
    std::vector<storage::KvStore*> raw;
    for (int i = 0; i < providers; ++i) {
      provider_nodes.push_back(fabric.add_node(25e9, 25e9));
      backends.push_back(make_kv(static_cast<size_t>(i)));
      raw.push_back(backends.back().get());
    }
    worker = fabric.add_node(25e9, 25e9);
    repo = std::make_unique<EvoStoreRepository>(rpc, provider_nodes,
                                                chunked_config(), raw, cc);
  }

  Client& client() { return repo->client(worker); }

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

  common::Status put(const model::Model& m, const TransferContext* tc) {
    auto task = [this](const model::Model* m, const TransferContext* tc)
        -> sim::CoTask<common::Status> {
      co_return co_await client().put_model(*m, tc);
    };
    return run(task(&m, tc));
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

ClientConfig fast_retry_config() {
  ClientConfig cc;
  cc.rpc_timeout = 0.02;
  cc.retry.max_attempts = 2;
  cc.retry.initial_backoff = 0.005;
  cc.retry.max_backoff = 0.01;
  return cc;
}

TEST(DurableRecords, BackendWriteStreamIsPinned) {
  std::vector<WriteOp> log;
  ClientConfig cc;
  cc.put_codec = compress::CodecId::kDeltaVsAncestor;
  Deployment<RecordingKv> env(3, cc, /*faults=*/false, [&](size_t i) {
    return std::make_unique<RecordingKv>(i, &log);
  });
  auto& cli = env.client();

  // 1. A base model, chunked on each of its two replicas.
  auto base =
      model::Model::random(env.repo->allocate_id(), chain_graph(6, 48), 1);
  base.set_quality(0.5);
  ASSERT_TRUE(env.put(base, nullptr).ok());

  // 2. prepare_transfer pins the shared prefix.
  auto g = chain_graph(6, 48, /*mutated_tail=*/2);
  auto prep = env.run(cli.prepare_transfer(g, true));
  ASSERT_TRUE(prep.ok() && prep->has_value());
  auto tc = std::move(prep->value());
  ASSERT_TRUE(tc.pinned);

  // 3. A derived model with one fine-tuned (delta-encoded) vertex consumes
  // the pin.
  constexpr VertexId kFt = 2;
  auto child = model::Model::random(env.repo->allocate_id(), g, 100);
  for (size_t i = 0; i < tc.matches.size(); ++i) {
    child.segment(tc.matches[i].first) = tc.prefix_segments[i];
  }
  tc.finetuned.push_back(kFt);
  model::Segment ft = child.segment(kFt);
  ft.tensors.back() =
      model::Tensor::random(ft.tensors.back().spec(), /*seed=*/9001);
  child.segment(kFt) = std::move(ft);
  child.set_quality(0.6);
  ASSERT_TRUE(env.put(child, &tc).ok());

  // 4. A tokened retire of the child's metadata on one replica, delivered
  // twice: the second delivery replays the cached answer.
  auto child_reps = env.repo->membership().replicas(child.id());
  ASSERT_EQ(child_reps.size(), 2u);
  wire::RetireRequest retire{child.id(), 0x0001ffff00000001ULL};
  auto deliver = [&]() -> sim::CoTask<common::Bytes> {
    auto r = co_await net::typed_call<wire::RetireResponse>(
        &env.rpc, env.worker, env.provider_nodes[child_reps[0]],
        Provider::kRetire, retire);
    EXPECT_TRUE(r.ok() && r->status.ok());
    co_return r.ok() ? wire::encode(*r) : common::Bytes{};
  };
  common::Bytes first = env.run(deliver());
  common::Bytes second = env.run(deliver());
  EXPECT_EQ(first, second);
  EXPECT_EQ(env.repo->provider(child_reps[0]).stats().deduped_replays, 1u);

  // 5. A hint parked on provider 2 for provider 1 (a retire of an id no one
  // stores: harmless whenever it is replayed).
  wire::StoreHintRequest hreq;
  hreq.hint.target = 1;
  hreq.hint.method = Provider::kRetire;
  hreq.hint.payload = wire::encode(wire::RetireRequest{ModelId{77}, 0});
  auto park = [&]() -> sim::CoTask<common::Status> {
    auto r = co_await net::typed_call<wire::StoreHintResponse>(
        &env.rpc, env.worker, env.provider_nodes[2], Provider::kStoreHint,
        hreq);
    co_return r.ok() ? r->status : r.status();
  };
  ASSERT_TRUE(env.run(park()).ok());

  // 6. The custodian restarts from its backend, hint included.
  env.repo->provider(2).restart();
  EXPECT_EQ(env.repo->provider(2).hint_count_for(1), 1u);

  // 7. It is drained: catalog pushed to the joiners, the hint handed to the
  // lowest live provider, every local record erased.
  ASSERT_TRUE(env.run(env.repo->drain_provider(2)).ok());
  EXPECT_EQ(env.repo->provider(0).hint_count_for(1), 1u);

  // 8. Retiring both models frees everything.
  ASSERT_TRUE(env.run(cli.retire(base.id())).ok());
  ASSERT_TRUE(env.run(cli.retire(child.id())).ok());
  EXPECT_EQ(env.repo->total_models(), 0u);
  EXPECT_EQ(env.repo->total_segments(), 0u);
  EXPECT_EQ(env.repo->total_chunks(), 0u);

  // One record of each kind the wire golden tests do not already pin
  // (meta/ and seg/ are in WireGolden.ProviderDurableRecords): the first
  // put of each key.
  struct Pinned {
    std::string key;
    const char* value;
  };
  const Pinned pinned[] = {
      {"pin/1/1/0", "01"},
      {"tok/" + std::to_string(retire.token),
       "03110000070100010102020103010402050206"},
      {"hint/00000000000000000001", "010f65766f73746f72652e726574697265024d00"},
      {"chunk/1",
       "f8dafb8a819ee7bc52e1dcbdfcf0d38dc223c04921020002606001e996b8fee9f8aee0"
       "f801804800016001a1aef2a3b7ddd59e72c001"},
      {"repo/epoch", "01"},
  };
  for (const Pinned& p : pinned) {
    auto w = std::find_if(log.begin(), log.end(), [&](const WriteOp& op) {
      return op.op == "put" && op.key == p.key;
    });
    ASSERT_NE(w, log.end()) << p.key;
    EXPECT_EQ(w->value, p.value) << p.key;
  }

  common::Hasher128 h;
  for (const WriteOp& w : log) {
    h.u64(w.backend).str(w.op).str(w.key).str(w.value);
  }
  EXPECT_EQ(log.size(), 174u);
  // The stream carries simulated times (a meta/ record's store_time), so a
  // change to the bytes any earlier message moves re-pins it: the LCP query
  // shape encoding stored the child 6 ns sooner, and nothing else changed.
  EXPECT_EQ(h.finish().hex(), "0c49d5aae46d5531ab94beca1c120b88");
}

TEST(DurableRecords, CustodianRestartKeepsParkedHintsAndReplaysOnce) {
  Deployment<storage::MemKv> env(3, fast_retry_config(), /*faults=*/true,
                                 [](size_t) {
                                   return std::make_unique<storage::MemKv>();
                                 });
  auto m1 = model::Model::random(env.repo->allocate_id(), chain_graph(6, 16),
                                 1);
  ASSERT_TRUE(env.put(m1, nullptr).ok());
  auto m2 = model::Model::random(env.repo->allocate_id(),
                                 chain_graph(6, 16, 1, 3), 2);
  auto reps = env.repo->membership().replicas(m2.id());
  ASSERT_EQ(reps.size(), 2u);
  const ProviderId target = reps[0];
  const ProviderId custodian = reps[1];

  // The write to the down target parks as hints on the custodian.
  env.injector.crash_node(env.provider_nodes[target]);
  ASSERT_TRUE(env.put(m2, nullptr).ok());
  const size_t parked = env.repo->provider(custodian).hint_count_for(target);
  ASSERT_GE(parked, 1u);

  // The custodian crashes and restarts while the target is still down: its
  // parked hints come back from its hint/ records.
  env.injector.crash_node(env.provider_nodes[custodian]);
  env.injector.restart_node(env.provider_nodes[custodian]);
  EXPECT_EQ(env.repo->provider(custodian).stats().restarts, 1u);
  EXPECT_EQ(env.repo->provider(custodian).hint_count_for(target), parked);
  EXPECT_EQ(env.repo->provider(custodian).stats().hints_replayed, 0u);

  // The target recovers: every restored hint is replayed to it, once.
  env.injector.restart_node(env.provider_nodes[target]);
  env.settle(2.0);
  EXPECT_EQ(env.repo->provider(custodian).hint_count_for(target), 0u);
  EXPECT_EQ(env.repo->provider(custodian).stats().hints_replayed, parked);
  EXPECT_TRUE(env.repo->provider(target).has_model(m2.id()));
  for (VertexId v = 0; v < m2.vertex_count(); ++v) {
    SegmentKey key{m2.id(), v};
    EXPECT_EQ(env.repo->provider(target).refcount(key), 1) << v;
    EXPECT_EQ(env.repo->provider(custodian).refcount(key), 1) << v;
  }

  // Replayed hints were erased from the custodian's backend: another
  // restart of either side replays nothing.
  env.injector.crash_node(env.provider_nodes[custodian]);
  env.injector.restart_node(env.provider_nodes[custodian]);
  EXPECT_EQ(env.repo->provider(custodian).hint_count_for(target), 0u);
  env.injector.crash_node(env.provider_nodes[target]);
  env.injector.restart_node(env.provider_nodes[target]);
  env.settle(2.0);
  EXPECT_EQ(env.repo->provider(custodian).stats().hints_replayed, parked);
  env.expect_reads_back(m1);
  env.expect_reads_back(m2);
}

/// Backend key of a segment record (the seg/<owner>/<vertex> layout).
std::string seg_record(const SegmentKey& key) {
  return "seg/" + std::to_string(key.owner.value) + "/" +
         std::to_string(key.vertex);
}

struct RestoreBranches : ::testing::Test {
  Deployment<storage::MemKv> env{3, ClientConfig{}, /*faults=*/false,
                                 [](size_t) {
                                   return std::make_unique<storage::MemKv>();
                                 }};
  model::Model m;
  ProviderId primary = 0;
  ProviderId secondary = 0;

  void SetUp() override {
    m = model::Model::random(env.repo->allocate_id(), chain_graph(6, 48), 5);
    m.set_quality(0.5);
    ASSERT_TRUE(env.put(m, nullptr).ok());
    auto reps = env.repo->membership().replicas(m.id());
    ASSERT_EQ(reps.size(), 2u);
    primary = reps[0];
    secondary = reps[1];
    ASSERT_GT(env.repo->provider(primary).chunk_store().chunk_count(), 0u);
  }

  Provider& provider(ProviderId p) { return env.repo->provider(p); }
  storage::MemKv& backend(ProviderId p) { return *env.backends[p]; }
};

TEST_F(RestoreBranches, ManifestWithMissingChunkIsDroppedAndFailsOver) {
  // Remove the backend record of one chunk a stored manifest references.
  // The manifest is taken from a segment whose stripe replica (vertex mod
  // |R|, R = {primary, secondary}) is the primary: its read starts there,
  // so it must fail over once the restore drops it.
  const compress::CompressedSegment* env0 = nullptr;
  for (VertexId v = 0; v < m.vertex_count() && env0 == nullptr; v += 2) {
    const auto* e = provider(primary).segment_envelope(SegmentKey{m.id(), v});
    if (e != nullptr && e->kind == compress::EnvelopeKind::kChunked) env0 = e;
  }
  ASSERT_NE(env0, nullptr) << "no chunked segment stored";
  const common::Hash128 lost = env0->chunks.front().digest;
  const auto* chunk = provider(primary).chunk_store().find(lost);
  ASSERT_NE(chunk, nullptr);
  ASSERT_TRUE(backend(primary)
                  .erase(storage::ChunkStore::record_key(chunk->record_seq))
                  .ok());
  std::vector<SegmentKey> doomed, kept;
  for (VertexId v = 0; v < m.vertex_count(); ++v) {
    SegmentKey key{m.id(), v};
    const auto* e = provider(primary).segment_envelope(key);
    ASSERT_NE(e, nullptr);
    bool refs = std::any_of(e->chunks.begin(), e->chunks.end(),
                            [&](const auto& c) { return c.digest == lost; });
    (refs ? doomed : kept).push_back(key);
  }
  ASSERT_FALSE(doomed.empty());

  provider(primary).restart();
  for (const SegmentKey& key : doomed) {
    EXPECT_FALSE(provider(primary).has_segment(key)) << key.to_string();
    EXPECT_FALSE(backend(primary).contains(seg_record(key))) << key.to_string();
  }
  for (const SegmentKey& key : kept) {
    EXPECT_TRUE(provider(primary).has_segment(key)) << key.to_string();
    EXPECT_TRUE(backend(primary).contains(seg_record(key))) << key.to_string();
  }
  EXPECT_EQ(provider(primary).chunk_store().find(lost), nullptr);
  EXPECT_EQ(provider(secondary).segment_count(), m.vertex_count());

  // The reads of the dropped segments fail over to the other replica.
  env.expect_reads_back(m);
  EXPECT_GT(env.repo->total_client_fault_stats().read_failovers, 0u);
}

TEST_F(RestoreBranches, UnreferencedChunkRecordIsSwept) {
  const size_t chunks = provider(primary).chunk_store().chunk_count();
  const uint64_t physical = provider(primary).stored_physical_bytes();
  // A chunk record no manifest names (its put persisted the chunk, then the
  // crash lost the segment).
  const common::Hash128 orphan{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  common::Serializer s;
  s.u64(orphan.hi);
  s.u64(orphan.lo);
  s.u64(4096);
  s.bytes(common::Bytes(40, std::byte{7}));
  const std::string key = storage::ChunkStore::record_key(1000000);
  ASSERT_TRUE(backend(primary)
                  .put(key, common::Buffer::dense(std::move(s).take()))
                  .ok());

  provider(primary).restart();
  EXPECT_FALSE(backend(primary).contains(key));
  EXPECT_EQ(provider(primary).chunk_store().find(orphan), nullptr);
  EXPECT_EQ(provider(primary).chunk_store().chunk_count(), chunks);
  EXPECT_EQ(provider(primary).stored_physical_bytes(), physical);
  env.expect_reads_back(m);
  EXPECT_EQ(env.repo->total_client_fault_stats().read_failovers, 0u);
}

TEST_F(RestoreBranches, MalformedPinAndSegmentKeysAreSkipped) {
  // The model is untouched; this one only owns the pin ledger state.
  auto g = chain_graph(6, 48, /*mutated_tail=*/2);
  auto prep = env.run(env.client().prepare_transfer(g, false));
  ASSERT_TRUE(prep.ok() && prep->has_value());
  provider(primary).restart();
  const size_t pins = provider(primary).pin_ledger_size();
  const size_t models = provider(primary).model_count();
  const size_t segments = provider(primary).segment_count();
  const uint64_t physical = provider(primary).stored_physical_bytes();
  ASSERT_GT(pins, 0u);

  common::Serializer count;
  count.u64(1);
  ASSERT_TRUE(
      backend(primary)
          .put("pin/7/x", common::Buffer::dense(std::move(count).take()))
          .ok());
  auto seg = backend(primary).get(seg_record(SegmentKey{m.id(), 1}));
  ASSERT_TRUE(seg.ok());
  ASSERT_TRUE(backend(primary).put("seg/1", seg.value()).ok());

  provider(primary).restart();
  EXPECT_EQ(provider(primary).pin_ledger_size(), pins);
  EXPECT_EQ(provider(primary).model_count(), models);
  EXPECT_EQ(provider(primary).segment_count(), segments);
  EXPECT_EQ(provider(primary).stored_physical_bytes(), physical);
  EXPECT_EQ(provider(primary).pinned_count(SegmentKey{ModelId{7}, 0}), 0u);
  // Skipped, not repaired: the records stay for an operator to inspect.
  EXPECT_TRUE(backend(primary).contains("pin/7/x"));
  EXPECT_TRUE(backend(primary).contains("seg/1"));
  ASSERT_TRUE(env.run(env.client().abandon_transfer(prep->value())).ok());
}

}  // namespace
}  // namespace evostore::core
