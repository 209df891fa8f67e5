// Shared harness of the standing benchmark: the fixed deployment, the two
// clocks, per-op sample collection, and the outside-in probes every
// workload uses (a timing ModelRepository decorator, a counting KvStore
// decorator, span self times, and direct-call replays of single layers).
//
// Nothing here reaches into src/ internals: every number is read through a
// public API (Client, ModelRepository, KvStore, RpcSystem::stats(),
// Provider::stats(), the metrics registry, the tracer) or timed around a
// public call.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/repository.h"
#include "net/fabric.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/stats.h"
#include "storage/chunk_store.h"
#include "storage/kv_store.h"

namespace perfbench {

using namespace evostore;  // NOLINT(google-build-using-namespace)

// ---- clocks ----------------------------------------------------------------

/// Host CPU time of the whole process (CLOCK_PROCESS_CPUTIME_ID): time the
/// scheduler gives to other tenants of the box does not count.
double cpu_seconds();
/// Host wall time (steady clock): only bounds how long a run repeats trials.
double wall_seconds();
/// Peak resident set of the process so far, MiB.
double peak_rss_mb();
/// Median of `v` (0 when empty).
double median(std::vector<double> v);

// ---- deployment ------------------------------------------------------------

/// A Polaris-like slice: `gpus` workers, 4 per node, one provider per node,
/// 25 GB/s NICs, 1.5 us fabric latency; the controller has its own node.
struct Cluster {
  sim::Simulation sim;
  net::Fabric fabric;
  net::RpcSystem rpc;
  common::NodeId controller = 0;
  std::vector<common::NodeId> nodes;           // one per compute node
  std::vector<common::NodeId> workers;         // one entry per GPU
  std::vector<common::NodeId> provider_nodes;  // co-located, one per node

  explicit Cluster(int gpus);
};

/// The deployment all workloads share: replication 2 (library default),
/// delta-vs-ancestor puts, the catalog prefix index, simulation-scale chunk
/// dedup. Workloads adjust only what their description says.
core::ProviderConfig deployment_provider_config();
core::ClientConfig deployment_client_config();

// ---- per-trial results -----------------------------------------------------

enum class Op { kPut = 0, kTransfer, kRead, kLcp, kRetire };
inline constexpr int kOpCount = 5;
const char* op_name(Op op);

/// One execution of a workload (set-up + timed phase + checks) for one
/// seed. Everything except `layer` and the `host_*` fields is read from the
/// simulated clock or counted, so it must repeat bit-identically.
struct Trial {
  /// Simulated latency samples (seconds) of the ops the harness timed.
  sim::Samples lat[kOpCount];
  /// Registry digests over the timed phase: `client.lcp_query_seconds`
  /// (every LCP broadcast, including those inside prepare_transfer),
  /// `rpc.call_seconds` and `fabric.transfer_seconds`.
  obs::HistogramSummary lcp;
  obs::HistogramSummary rpc_call;
  obs::HistogramSummary fabric_transfer;
  uint64_t ops = 0;     // harness-issued ops in the timed phase
  uint64_t failed = 0;  // failed ops + correctness mismatches
  std::vector<std::string> errors;  // first few failure descriptions
  double sim_seconds = 0;           // simulated span of the timed phase
  net::RpcStats rpc;                // timed-phase delta
  uint64_t steps = 0;               // DES events in the timed phase
  double stored_physical = 0;       // at the end of the timed phase
  double stored_logical = 0;
  /// Workload-specific notes printed with the result (sizes, policies).
  std::vector<std::string> notes;
  /// Per-layer metrics (traced trials only).
  std::map<std::string, double> layer;
  /// Digest of every simulated value above (determinism self-check).
  common::Hash128 fingerprint;

  double host_setup_s = 0;  // CPU time: inputs, cluster build, preload
  double host_timed_cpu_s = 0;

  void record(Op op, double seconds, bool ok);
  void fail(std::string what);
  /// Seal the simulated fields into `fingerprint` (before any quantile).
  void seal();
  /// Sum of every timed op's simulated latency.
  double total_latency() const;
};

/// Snapshots taken around the timed phase.
class TimedPhase {
 public:
  /// Attaches `registry` to the rpc system and fabric (so `rpc.call_seconds`
  /// and `fabric.transfer_seconds` cover this phase only) and, when given,
  /// the tracer. Clients created after this point bind the registry too.
  void begin(Cluster& c, obs::MetricsRegistry* registry, obs::Tracer* tracer);
  /// Fills the trial's simulated span, rpc delta, event count, CPU time and
  /// registry digests; detaches registry and tracer.
  void end(Cluster& c, const obs::MetricsRegistry& registry, Trial& t);

 private:
  net::RpcStats rpc0_;
  uint64_t steps0_ = 0;
  double sim0_ = 0;
  double cpu0_ = 0;
};

// ---- outside-in probes -----------------------------------------------------

/// Segment identities of a model, vertex order.
std::vector<common::Hash128> identities_of(const model::Model& m);

/// ModelRepository decorator: times every call on the simulated clock and
/// records stored models' segment identities so reads can be checked.
class TimedRepository final : public core::ModelRepository {
 public:
  TimedRepository(core::EvoStoreRepository& inner, sim::Simulation& sim,
                  Trial& trial)
      : inner_(&inner), sim_(&sim), trial_(&trial) {}

  std::string name() const override { return inner_->name(); }
  common::ModelId allocate_id() override { return inner_->allocate_id(); }
  sim::CoTask<common::Result<std::optional<core::TransferContext>>>
  prepare_transfer(common::NodeId client, const model::ArchGraph& g,
                   bool fetch_payload) override;
  sim::CoTask<common::Status> store(common::NodeId client,
                                    const model::Model& m,
                                    const core::TransferContext* tc) override;
  sim::CoTask<common::Result<model::Model>> load(common::NodeId client,
                                                 common::ModelId id) override;
  sim::CoTask<common::Status> retire(common::NodeId client,
                                     common::ModelId id) override;
  size_t stored_payload_bytes() const override {
    return inner_->stored_payload_bytes();
  }

  /// Graphs and qualities of stored models, store order (replay inputs).
  const std::vector<model::ArchGraph>& stored_graphs() const {
    return graphs_;
  }
  const std::vector<double>& stored_quality() const { return quality_; }
  /// The first few stored models (wire serde replay inputs).
  const std::vector<model::Model>& sample_models() const { return sample_; }

 private:
  core::EvoStoreRepository* inner_;
  sim::Simulation* sim_;
  Trial* trial_;
  std::unordered_map<common::ModelId, std::vector<common::Hash128>>
      identities_;
  std::vector<model::ArchGraph> graphs_;
  std::vector<double> quality_;
  std::vector<model::Model> sample_;
};

/// KvStore decorator: counts each provider's backend operations and times
/// them on the host CPU clock.
class CountingKv final : public storage::KvStore {
 public:
  explicit CountingKv(storage::KvStore& inner) : inner_(&inner) {}

  storage::Status put(std::string_view key, common::Buffer value) override;
  storage::Result<common::Buffer> get(std::string_view key) const override;
  storage::Status erase(std::string_view key) override;
  bool contains(std::string_view key) const override {
    return inner_->contains(key);
  }
  size_t size() const override { return inner_->size(); }
  std::vector<std::string> keys() const override { return inner_->keys(); }
  size_t value_bytes() const override { return inner_->value_bytes(); }
  size_t logical_value_bytes() const override {
    return inner_->logical_value_bytes();
  }

  struct Counts {
    uint64_t puts = 0, gets = 0, erases = 0;
    double put_s = 0, get_s = 0, erase_s = 0;
  };
  const Counts& counts() const { return counts_; }

 private:
  storage::KvStore* inner_;
  mutable Counts counts_;
};

/// Inputs recorded from the timed phase for the per-layer replays.
struct ReplayInputs {
  std::vector<model::ArchGraph> catalog;  // stored graphs (LCP scan, index)
  std::vector<double> catalog_quality;
  std::vector<model::ArchGraph> queries;  // LCP query sample
  std::vector<model::Model> models;       // stored models (wire serde)
  std::vector<common::SegmentKey> read_keys;  // cache key stream
  std::vector<uint64_t> read_key_bytes;       // physical bytes per key
  uint64_t cache_capacity = 0;  // 0: an eighth of the distinct key bytes
};

/// Per-provider counters, for timed-phase deltas.
std::vector<core::ProviderStats> provider_stats(
    const core::EvoStoreRepository& repo);
std::vector<storage::ChunkStoreStats> chunk_stats(
    const core::EvoStoreRepository& repo);

/// Per-layer metrics every workload derives the same way (README.md):
/// provider.*, lcp.models_scanned/vertex_visits, prefix_index.answer_ratio
/// and bytes, codec.*, chunk.*, cache.* counters, client.retries and
/// read_failovers, and span.* self times. `clients` are the nodes whose
/// clients issued the timed ops; `before`/`chunks0` the provider counters
/// at the start of the timed phase.
void common_layer_metrics(core::EvoStoreRepository& repo,
                          const std::vector<common::NodeId>& clients,
                          const obs::Tracer& tracer,
                          const std::vector<core::ProviderStats>& before,
                          const std::vector<storage::ChunkStoreStats>& chunks0,
                          Trial& t, std::map<std::string, double>& out);

/// Host-side replays of single layers on recorded inputs: the LCP scan
/// (LcpWorkspace::run), PrefixIndex::lookup, wire serde round trips, and
/// SegmentCache lookup/insert.
void replay_layers(const ReplayInputs& in, std::map<std::string, double>& out);

/// Storage-layer metrics from the counting decorators (zeros when none).
void storage_layer_metrics(const std::vector<const CountingKv*>& kvs,
                           double dead_bytes, double disk_bytes, uint64_t ops,
                           std::map<std::string, double>& out);

/// One-at-a-time client replays: mean host CPU microseconds per op, each op
/// driven to completion on the quiescent simulation of `c`. `put_models`
/// are stored and then retired (timing both); transfers are abandoned.
struct ClientReplay {
  std::vector<model::ArchGraph> queries;  // lcp + transfer inputs
  std::vector<common::ModelId> reads;     // live models to read
  std::vector<model::Model> put_models;   // fresh models to put + retire
};
void replay_client(Cluster& c, core::Client& client, const ClientReplay& in,
                   std::map<std::string, double>& out);

/// Segment keys and physical sizes a full read of `id` touches.
void read_keys_of(const core::EvoStoreRepository& repo, common::ModelId id,
                  std::vector<common::SegmentKey>* keys,
                  std::vector<uint64_t>* bytes);

/// Fresh directory for one trial's persistent backends, under the run's
/// scratch root; removed by the destructor.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::filesystem::path& path() const { return path_; }

  /// Root under which trials create their directories (from --scratch).
  static void set_root(std::filesystem::path root);

 private:
  std::filesystem::path path_;
};

// ---- workloads -------------------------------------------------------------

/// One trial of a workload for `seed`. `traced` attaches the tracer and the
/// KV decorators, runs the replays and fills Trial::layer.
Trial run_nas_evolve(uint64_t seed, bool traced);
Trial run_lcp_catalog(uint64_t seed, bool traced);
Trial run_hub_zipf(uint64_t seed, bool traced);

}  // namespace perfbench
