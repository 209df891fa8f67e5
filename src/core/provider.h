// EvoStore provider: the combined data + metadata server (paper §4.1).
//
// Each provider stores, for the models hashed to it: the compact architecture
// graph, the owner map, the quality metric — and, for every vertex the model
// *owns*, the consolidated parameter segment with its reference count.
// Because metadata and data are co-located, one provider answers both the
// owner-map lookup and the bulk read for locally-owned tensors, and the
// provider fleet collectively answers LCP queries by scanning only local
// catalogs (map) followed by a client-side reduce.
//
// Garbage collection: a segment is created with refcount 1 (its owner's own
// owner-map reference). Deriving a model increments every inherited
// segment's count; retiring decrements every owner-map entry. Payloads are
// freed at zero; model metadata is removed eagerly on retire (§4.1).
//
// Persistence: each mutation writes its records through `records_`
// (core/records.h) where it happens; the k*Record members declare each
// kind once, and restore_from_backend() is one walk over them (DESIGN.md
// §17).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <unordered_map>

#include "compress/chunker.h"
#include "compress/codec.h"
#include "compress/compressed_segment.h"
#include "core/prefix_index.h"
#include "core/provider_stats.h"
#include "core/records.h"
#include "core/wire.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/chunk_store.h"
#include "storage/kv_store.h"

namespace evostore::core {

struct ProviderConfig {
  /// Local KV bookkeeping cost per put/get/retire operation.
  double op_seconds = 2e-6;
  /// Bandwidth of the in-memory KV pool (synchronized memory pool memcpy);
  /// put/read payload bytes flow through a per-provider fair-share port.
  /// 0 disables pool modelling (metadata-only deployments).
  double pool_bandwidth = 7e9;
  /// Content-defined chunk dedup (DESIGN.md §13). When enabled, an incoming
  /// inline payload of at least `chunker.min_bytes` is split into
  /// content-defined chunks stored once per provider (deduplicating identical
  /// content across *unrelated* models, which the delta codec's
  /// ancestor-only scope cannot reach); the segment keeps a chunk manifest
  /// and reads reassemble transparently. The default parameters are
  /// real-deployment chunk sizes, so compact simulation payloads stay inline
  /// unless a harness opts into simulation-scale parameters.
  bool chunking = true;
  compress::ChunkerConfig chunker;
  /// Sublinear LCP serving (DESIGN.md §16): maintain the catalog prefix
  /// index and answer `evostore.lcp_query` from it with work proportional
  /// to what the query shares with the catalog instead of scanning
  /// O(catalog) models. The serving path verifies each index answer with
  /// one exact Algorithm 1 run against the chosen candidate and falls back
  /// to the scan when the index cannot prove its answer, so answers always
  /// match the scan's. Off by default: the scan is the reference path at
  /// paper scale.
  bool lcp_index = false;
  /// Oracle mode (testing): with the index on, ALSO run the full catalog
  /// scan on every query and compare answers field-for-field. Mismatches
  /// are counted, logged, and the scan's answer is served. Latency is
  /// charged for the index path only, so verified runs keep index-shaped
  /// timing.
  bool lcp_index_verify = false;
};

/// Full metadata of a stored model: what `Client::get_meta` returns and,
/// byte for byte, the provider's durable meta/<id> record.
struct ModelMeta {
  model::ArchGraph graph;
  OwnerMap owners;
  double quality = 0;
  common::ModelId ancestor;
  double store_time = 0;
  uint64_t store_seq = 0;

  static auto fields(auto& m) { return wire::meta_fields(m); }
};

class Provider {
 public:
  /// Constructs the provider and registers its RPC handlers on `node`.
  /// `backend` (optional, non-owning) is the provider's persistent KV store
  /// (paper §4.3: "in-memory [or] persistently using underlying backends
  /// such as ... RocksDB"): metadata, segments, and reference counts are
  /// written through to it, and a provider constructed over a non-empty
  /// backend recovers its full state from it (restart/crash recovery).
  Provider(net::RpcSystem& rpc, common::NodeId node, common::ProviderId id,
           ProviderConfig config = {}, storage::KvStore* backend = nullptr);

  common::NodeId node() const { return node_; }
  common::ProviderId id() const { return id_; }

  // -- Introspection (same-process access for tests, benches, GC audits) --
  size_t model_count() const { return models_.size(); }
  size_t segment_count() const { return segments_.size(); }
  /// Logical payload bytes of all live segments (decoded tensor content).
  size_t stored_payload_bytes() const { return payload_bytes_; }
  /// Physical payload bytes actually occupied: post-compression inline
  /// envelopes plus each deduplicated chunk once. Equal to
  /// stored_pre_dedup_physical_bytes() when chunking never triggered.
  size_t stored_physical_bytes() const {
    return inline_physical_bytes_ + chunk_store_.physical_bytes();
  }
  /// Physical bytes the same live segments would occupy without chunk dedup
  /// (the delta codec alone): the sum of envelope physical_bytes.
  size_t stored_pre_dedup_physical_bytes() const { return physical_bytes_; }
  /// The provider's content-addressed chunk store (hit/miss/refcount
  /// introspection for tests and GC audits).
  const storage::ChunkStore& chunk_store() const { return chunk_store_; }
  /// Owner-map + graph metadata footprint estimate.
  size_t metadata_bytes() const;
  bool has_model(common::ModelId id) const {
    return models_.find(id) != models_.end();
  }
  /// Stored owner map for `id` (nullptr when absent): lets harnesses walk a
  /// model's composition for replica-convergence audits.
  const OwnerMap* owner_map(common::ModelId id) const {
    auto it = models_.find(id);
    return it == models_.end() ? nullptr : &it->second.owners;
  }
  bool has_segment(const common::SegmentKey& key) const {
    return segments_.find(key) != segments_.end();
  }
  /// At-rest envelope stored for `key` (nullptr when absent): lets tests and
  /// GC audits inspect the stored encoding (inline vs chunked manifest).
  const compress::CompressedSegment* segment_envelope(
      const common::SegmentKey& key) const {
    auto it = segments_.find(key);
    return it == segments_.end() ? nullptr : &it->second.segment;
  }
  int refcount(const common::SegmentKey& key) const;
  /// Outstanding transfer pins recorded for `key` across all epochs.
  uint64_t pinned_count(const common::SegmentKey& key) const;
  /// Total (epoch, key) records in the pin ledger.
  size_t pin_ledger_size() const { return pins_.size(); }
  const ProviderStats& stats() const { return stats_; }
  std::vector<common::ModelId> model_ids() const;
  /// The catalog prefix index (empty unless config.lcp_index): hash/model
  /// counts and the memory-footprint model for tests, benches, and stats.
  const PrefixIndex& prefix_index() const { return lcp_index_; }

  /// Crash-recovery entry point (wired to FaultInjector::on_restart by the
  /// repository): drop all volatile state — catalogs, segments, refcounts,
  /// the idempotency cache — and reconstruct everything from the persistent
  /// backend. A provider without a backend restarts empty (data loss), which
  /// is the honest model for an in-memory-only deployment. Cumulative
  /// operation counters survive (they model external monitoring).
  void restart();

  // ---- replication fault model (DESIGN.md §15) ----
  /// True once evostore.drain migrated this provider's catalog away: it no
  /// longer accepts puts, hints, or replicate pushes, and serves nothing
  /// (clients route around it via the shared Membership).
  bool drained() const { return drained_; }
  /// Hinted-handoff records currently parked here (all targets).
  size_t hint_count() const { return hints_.size(); }
  /// Hints parked here for one specific target replica.
  size_t hint_count_for(common::ProviderId target) const;
  /// Replay every parked hint aimed at `target` (now back up at
  /// `target_node`) in original arrival order, erasing each on delivery.
  /// Stops at the first transport failure (the target died again) and keeps
  /// the remainder for the next recovery. Spawned by the repository's
  /// restart hook on every surviving peer. Returns the number replayed.
  sim::CoTask<uint64_t> replay_hints(common::ProviderId target,
                                     common::NodeId target_node);
  /// Drop every parked hint aimed at `target` without replaying: a full
  /// repair push just rebuilt the target from live replica state (which
  /// already contains the hinted writes), and the target's idempotency
  /// cache was lost with its backend — replaying now would double-apply.
  uint64_t discard_hints_for(common::ProviderId target);

  static constexpr const char* kPutModel = "evostore.put_model";
  static constexpr const char* kGetMeta = "evostore.get_meta";
  static constexpr const char* kReadSegments = "evostore.read_segments";
  static constexpr const char* kModifyRefs = "evostore.modify_refs";
  static constexpr const char* kRetire = "evostore.retire";
  static constexpr const char* kLcpQuery = "evostore.lcp_query";
  static constexpr const char* kGetStats = "evostore.get_stats";
  static constexpr const char* kStoreHint = "evostore.store_hint";
  static constexpr const char* kReplicate = "evostore.replicate";
  static constexpr const char* kFetchChunks = "evostore.fetch_chunks";
  static constexpr const char* kDrain = "evostore.drain";
  static constexpr const char* kRepairPeer = "evostore.repair_peer";

  /// CPU cost per vertex visit in the local LCP scan (Algorithm 1).
  static constexpr double kLcpVisitSeconds = 15e-9;
  /// Fixed CPU cost per locally stored model considered in a scan (a root
  /// signature compare on the compact in-memory graph).
  static constexpr double kLcpPerModelSeconds = 8e-9;
  /// Cost per segment touched (insert/lookup/free), on top of op_seconds.
  static constexpr double kPerSegmentSeconds = 200e-9;
  /// Deadline on provider-to-provider RPCs (hint replay, replicate pushes,
  /// chunk fetches): a down peer must fail the call, not hang the drain or
  /// repair pass.
  static constexpr double kPeerRpcTimeout = 1.0;

 private:
  /// Most recent idempotency tokens whose responses are cached for replay
  /// (FIFO-evicted). Must exceed the number of tokened requests a client can
  /// have in flight across one retry horizon.
  static constexpr size_t kDedupWindow = 1 << 16;

  struct SegEntry {
    compress::CompressedSegment segment;
    int32_t refs = 0;
    /// Version clients validate cached copies against: the store sequence
    /// of the put that created this segment. Strictly monotonic per
    /// provider, so a freed-then-recreated key always carries a newer
    /// version and a stale cache entry can never validate.
    uint64_t version = 0;

    static auto fields(auto& m) {
      return std::tie(m.refs, m.version, m.segment);
    }
  };
  /// A pin ledger entry's key: (client epoch, pinned segment).
  using PinKey = std::pair<uint64_t, common::SegmentKey>;

  // ---- durable record kinds (DESIGN.md §17) ----
  template <typename K, typename V>
  using Kind = records::Kind<K, V>;
  static constexpr Kind<common::ModelId, ModelMeta> kMetaRecord{"meta/"};
  static constexpr Kind<common::SegmentKey, SegEntry> kSegRecord{"seg/"};
  /// Outstanding pin count (a count of 0 erases the record).
  static constexpr Kind<PinKey, uint64_t> kPinRecord{"pin/"};
  /// (dedup sequence, cached response): the sequence rebuilds the FIFO.
  static constexpr Kind<uint64_t, std::pair<uint64_t, common::Bytes>>
      kTokenRecord{"tok/"};
  /// Keyed by arrival sequence, zero-padded so key order is arrival order.
  static constexpr Kind<uint64_t, wire::HintRecord> kHintRecord{"hint/", 20};

  void register_handlers(net::RpcSystem& rpc);
  // Charge `bytes` through the provider's memory-pool port (no-op when pool
  // modelling is disabled).
  sim::CoTask<void> charge_pool(double bytes);
  /// Add (`dir` = +1) or remove (-1) one stored envelope from the live
  /// logical/physical byte totals and the per-codec usage table.
  void account_stored(const compress::CompressedSegment& env, int dir);

  // ---- chunk dedup (DESIGN.md §13) ----
  /// Split an inline envelope's payload into content-defined chunks, add
  /// one chunk-store reference per chunk, and rewrite the envelope to a
  /// kChunked manifest. No-op when chunking is disabled or the payload is
  /// below the chunking threshold.
  void maybe_chunk(compress::CompressedSegment& env);
  /// Resolve a kChunked envelope's manifest back to an inline envelope
  /// (identity for kInline). Corruption if a referenced chunk is gone.
  common::Result<compress::CompressedSegment> reassemble(
      const compress::CompressedSegment& env) const;
  /// Release the chunk references a freed kChunked envelope held.
  void release_chunks(const compress::CompressedSegment& env);
  /// Take one chunk-store reference per chunk of a kChunked manifest, all or
  /// nothing. A chunk not stored here is stored from `fetched` (null: local
  /// chunks only); one found in neither rolls back the references already
  /// taken and returns false (the segment is unservable here).
  bool reference_chunks(
      const compress::CompressedSegment& env,
      const std::map<common::Hash128, wire::ChunkBodyEntry>* fetched);

  // ---- GC core ----
  /// Decrement one reference on `key`. At zero the envelope is freed:
  /// chunk references released, byte accounting reversed, the backend
  /// record erased, and the delta base it referenced (if any) appended to
  /// `freed_bases` for the caller to decrement next. Returns false when the
  /// key is not stored here.
  bool release_ref(const common::SegmentKey& key, uint64_t* freed_bytes,
                   std::vector<common::SegmentKey>* freed_bases);

  // ---- pin ledger (DESIGN.md §14: crash-proof transfer pins) ----
  /// Note the client incarnation epoch carried by `token` (high 16 bits).
  /// The first token from a strictly newer epoch reaps every pin recorded
  /// under older epochs — those clients are gone; their pins leaked.
  void observe_epoch(uint64_t token);
  void reap_stale_pins(uint64_t current_epoch);
  void pin_add(uint64_t epoch, const common::SegmentKey& key);
  /// Remove one pin record (no-op when absent — e.g. rollback of an
  /// increment the provider never saw).
  void pin_remove(uint64_t epoch, const common::SegmentKey& key);

  // ---- persistence ----
  /// Rebuild every durable structure from one walk over the backend's
  /// records (construction and restart()).
  void restore_from_backend();
  /// Commit a new model record (put, replicate install): the next store
  /// sequence, the backend record, the catalog, the prefix index and the
  /// LCP share. Returns the store sequence.
  uint64_t install_model(common::ModelId id, model::ArchGraph graph,
                         OwnerMap owners, double quality,
                         common::ModelId ancestor, double store_time);

  // ---- LCP share (DESIGN.md §15) ----
  using CatalogEntry = std::pair<const common::ModelId, ModelMeta>;
  /// The catalog entries Algorithm 1 scans for `req`: the models this
  /// provider is the first live replica of under req.live, or in a cover
  /// round, those of them whose round-1 first replica is in req.cover.
  /// Round-1 shares come from share_; cover rounds are built in `buffer`.
  /// A view that does not name this provider, or cover ids outside it,
  /// select nothing.
  const std::vector<const CatalogEntry*>& lcp_share(
      const wire::LcpQueryRequest& req,
      std::vector<const CatalogEntry*>& buffer);

  // ---- idempotency dedup (exactly-once for tokened mutations) ----
  /// Cached response for `token`, or nullopt. Counts a replay on hit.
  template <typename Response>
  std::optional<Response> dedup_lookup(uint64_t token);
  /// Cache `response` under `token` (no-op for token 0), write it through to
  /// the backend, and FIFO-evict past the window.
  void dedup_store(uint64_t token, common::Bytes response);

  sim::CoTask<wire::PutModelResponse> handle_put(wire::PutModelRequest req,
                                                 net::HandlerContext ctx);
  sim::CoTask<wire::GetMetaView<ModelMeta>> handle_get_meta(
      wire::GetMetaRequest req, net::HandlerContext ctx);
  sim::CoTask<wire::ReadSegmentsResponse> handle_read_segments(
      wire::ReadSegmentsRequest req, net::HandlerContext ctx);
  sim::CoTask<wire::ModifyRefsResponse> handle_modify_refs(
      wire::ModifyRefsRequest req, net::HandlerContext ctx);
  sim::CoTask<wire::RetireResponse> handle_retire(wire::RetireRequest req,
                                                  net::HandlerContext ctx);
  sim::CoTask<wire::LcpQueryResponse> handle_lcp_query(
      wire::LcpQueryRequest req, net::HandlerContext ctx);
  sim::CoTask<wire::StatsResponse> handle_get_stats(wire::StatsRequest req,
                                                    net::HandlerContext ctx);
  sim::CoTask<wire::StoreHintResponse> handle_store_hint(
      wire::StoreHintRequest req, net::HandlerContext ctx);
  sim::CoTask<wire::ReplicateResponse> handle_replicate(
      wire::ReplicateRequest req, net::HandlerContext ctx);
  sim::CoTask<wire::FetchChunksResponse> handle_fetch_chunks(
      wire::FetchChunksRequest req, net::HandlerContext ctx);
  sim::CoTask<wire::DrainResponse> handle_drain(wire::DrainRequest req,
                                                net::HandlerContext ctx);
  sim::CoTask<wire::RepairResponse> handle_repair(wire::RepairRequest req,
                                                  net::HandlerContext ctx);

  // ---- replication fault model internals (DESIGN.md §15) ----
  /// Durably park one hint; returns its sequence number.
  uint64_t record_hint(wire::HintRecord hint);
  void erase_hint(uint64_t seq);
  /// The answer to a write (put, hint, replicate push) once drained.
  common::Status drained_status() const;
  /// One owner id's local state, as a drain or repair pass pushes it.
  struct OwnerPush {
    common::ModelId id;
    bool with_meta = false;  // a stored model: push its metadata too
    std::vector<common::VertexId> vertices;  // its local segments, ascending
  };
  /// Every owner id with local state, in push order for drain and repair:
  /// models first, then orphan segment owners (meta retired, payloads alive
  /// through inherited references). One walk over the segments groups them
  /// by owner for the whole pass.
  std::vector<OwnerPush> owner_pushes() const;
  /// Push one owner id's local state (metadata when `with_meta`, plus each
  /// of its segments still stored: an earlier push of the pass may have
  /// awaited while a decrement freed some) to each provider in `targets` via
  /// evostore.replicate. `peer_nodes` names where missing chunk bodies can
  /// be fetched besides this provider. Returns segments pushed (counted once
  /// whatever the fan-out, for drain/repair reporting).
  /// `parent` parents the replicate RPC spans under the caller's drain /
  /// repair serve span (invalid roots them, matching the untraced path).
  sim::CoTask<uint64_t> push_owner(OwnerPush owner,
                                   std::vector<common::ProviderId> targets,
                                   std::vector<common::NodeId> provider_nodes,
                                   std::vector<common::NodeId> peer_nodes,
                                   obs::TraceContext parent = {});

  /// The attached tracer, if any (provider-side child spans: segment
  /// writes, KV commits, LCP scans).
  obs::Tracer* tracer() { return rpc_->tracer(); }
  /// The attached flight recorder, if any (replication lifecycle events:
  /// hints, drain, repair, replica installs, dedup and GC activity).
  obs::EventLog* events() { return rpc_->events(); }

  sim::Simulation* sim_;
  net::RpcSystem* rpc_;
  sim::FlowScheduler* flows_;
  common::NodeId node_;
  common::ProviderId id_;
  ProviderConfig config_;
  records::Records records_;
  sim::PortId pool_port_ = 0;
  bool pool_enabled_ = false;
  uint64_t seq_ = 0;

  std::unordered_map<common::ModelId, ModelMeta> models_;
  std::unordered_map<common::SegmentKey, SegEntry> segments_;
  /// Cache directory: last client node known to cache each segment
  /// (volatile — a stale hint only costs a peer miss + provider fallback,
  /// so it is deliberately not persisted).
  std::unordered_map<common::SegmentKey, common::NodeId> cache_dir_;
  /// Durable pin ledger: (epoch, key) -> outstanding pin count, keyed like
  /// its pin/ records. Ordered so reaping walks epochs, then keys, in a
  /// deterministic order.
  std::map<PinKey, uint32_t> pins_;
  /// Highest client incarnation epoch seen in an idempotency token.
  uint64_t last_pin_epoch_ = 0;
  // Idempotency cache: token -> packed response, FIFO order for eviction.
  // `dedup_seq_` orders entries in the backend so restore rebuilds the FIFO.
  std::unordered_map<uint64_t, common::Bytes> dedup_;
  std::deque<uint64_t> dedup_order_;
  uint64_t dedup_seq_ = 0;
  /// Hinted-handoff parking lot: arrival seq -> record, ordered so replay
  /// preserves per-key write order (all hints for one key land on the same
  /// peer while membership is stable). Durable as kHintRecord records.
  std::map<uint64_t, wire::HintRecord> hints_;
  uint64_t hint_seq_ = 0;
  /// Set by evostore.drain after the catalog migrated away.
  bool drained_ = false;
  size_t payload_bytes_ = 0;   // logical (decoded) bytes of live segments
  size_t physical_bytes_ = 0;  // post-compression bytes of live segments
                               // (pre-dedup: counts duplicated chunks fully)
  size_t inline_physical_bytes_ = 0;  // the kInline subset of physical_bytes_
  storage::ChunkStore chunk_store_;
  compress::CodecUsageTable codec_usage_{};
  /// Catalog prefix index (DESIGN.md §16), maintained on every catalog
  /// mutation when config.lcp_index is set; rebuilt (not restored) on
  /// restart, like the chunk store. Empty when the flag is off.
  PrefixIndex lcp_index_;
  /// Algorithm 1's scratch space, shared by every LCP query this provider
  /// serves. A query uses it only before its first suspension, so queries
  /// interleaving in sim time never meet inside it.
  LcpWorkspace lcp_ws_;
  /// This provider's primary share of the catalog under `view`, the ring
  /// view of the last round-1 LCP query (empty: none cached yet). Derived
  /// state like the prefix index: never persisted. install_model and
  /// retire keep it current, restart and drain drop it, and a query with
  /// another view recomputes it. The entries point into models_, whose
  /// nodes stay put until erased.
  struct LcpShare {
    std::vector<uint8_t> view;
    std::vector<bool> live;
    std::vector<const CatalogEntry*> models;
  } share_;
  ProviderStats stats_;

  // Local per-operation histograms (sim-time seconds / payload bytes), fed
  // unconditionally: every value is simulation-derived, so the registry's
  // contents — exported whole over the wire and merged exactly by
  // Client::collect_stats — are deterministic.
  obs::MetricsRegistry metrics_;
  obs::Histogram* hist_put_seconds_;
  obs::Histogram* hist_put_bytes_;
  obs::Histogram* hist_read_seconds_;
  obs::Histogram* hist_read_bytes_;
  obs::Histogram* hist_lcp_seconds_;
  obs::Histogram* hist_refs_seconds_;
  // Chunk dedup observability: payload size of every chunk an ingest
  // produced (hit/miss counts live in the chunk store's stats).
  obs::Histogram* hist_chunk_bytes_;
};

}  // namespace evostore::core
