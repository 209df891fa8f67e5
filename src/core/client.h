// EvoStore client library (paper §4.3): the side applications link against.
//
// The client interprets owner maps, talks to a model's replica set for
// metadata (preferred replica first, failing over down the rendezvous order
// on faults), fans bulk reads out in parallel with each segment striped to
// one replica of its owner (replica vertex mod k first, the next ones on
// faults), broadcasts LCP queries and reduces the replies, and drives the
// distributed reference-count updates for put/retire. Each RPC leg runs
// under one attempt loop and each fan-out spawns through one helper; puts,
// refcount updates and retires share one write path on top: one leg per
// replica of the write's set, and one hint step that, once any leg has
// landed, parks each leg that stayed unreachable through its retry budget
// as a hinted handoff on a surviving peer (DESIGN.md §15).
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cache/segment_cache.h"
#include "common/rng.h"
#include "compress/codec.h"
#include "compress/compressed_segment.h"
#include "core/owner_map.h"
#include "core/placement.h"
#include "core/provider.h"
#include "core/wire.h"
#include "net/rpc.h"
#include "obs/trace.h"

namespace evostore::core {

using common::ModelId;
using common::NodeId;
using common::Result;
using common::Status;
using model::ArchGraph;
using model::Model;
using model::Segment;

/// Capped-exponential-backoff retry for RPC legs that fail with a retryable
/// code (Unavailable, DeadlineExceeded), applied to every leg by the
/// client's one attempt loop. The default (`max_attempts == 1`) sends each
/// leg once.
struct RetryPolicy {
  /// Growth of the backoff from one retry to the next.
  static constexpr double kBackoffMultiplier = 2.0;
  /// Backoff is scaled by a factor drawn uniformly from
  /// [1 - jitter, 1 + jitter] (seeded RNG — deterministic per client).
  static constexpr double kJitterFraction = 0.1;

  int max_attempts = 1;
  double initial_backoff = 0.05;
  double max_backoff = 2.0;
  /// Two-tier budget for puts. 0 (default): one round, in which each
  /// replica leg retries up to `max_attempts` before the caller parks a
  /// hinted handoff. A positive value caps each leg at that many attempts
  /// per round — a write whose target is down parks its hint after ~a
  /// second instead of riding the whole budget — and put_model runs up to
  /// `max_attempts` rounds that re-fan the SAME tokened request to every
  /// replica while none has committed (idempotent), so a client whose own
  /// egress is down (co-located node outage) still rides through long
  /// outages instead of failing fast.
  int write_leg_attempts = 0;
};

struct ClientConfig {
  /// Codec applied to self-owned segments on put. `kDeltaVsAncestor`
  /// delta-encodes fine-tuned vertices against the TransferContext's prefix
  /// payloads (anything without a usable base falls back to Raw). The
  /// default keeps the wire and storage behavior byte-identical to an
  /// uncompressed deployment.
  compress::CodecId put_codec = compress::CodecId::kRaw;
  /// Retry behavior for retryable RPC failures.
  RetryPolicy retry;
  /// Per-call deadline in simulated seconds. 0 inherits the RpcSystem's
  /// default (normally "no deadline"); negative disables deadlines for this
  /// client even when the RpcSystem has a default.
  double rpc_timeout = 0;
  /// Seed for the retry-jitter RNG (combined with the client id so every
  /// client draws an independent, reproducible stream).
  uint64_t fault_seed = 0x5eedf00d;
  /// Incarnation epoch mixed into idempotency tokens (high 16 bits).
  /// EvoStoreRepository sets this from a counter persisted in the provider
  /// backends so that a fresh repository over an old backend can never mint
  /// tokens colliding with dedup records a previous incarnation left there.
  /// Providers also reap transfer pins recorded under older epochs when they
  /// first see a token from this one (crashed clients cannot leak pins).
  uint64_t token_epoch = 1;
  /// Client-local cooperative segment cache (DESIGN.md §14).
  /// `cache.capacity_bytes == 0` (the default) disables it entirely: the
  /// read path and the wire traffic stay byte-identical to an uncached
  /// deployment.
  cache::CacheConfig cache;
  /// Replicas per key (k-way rendezvous placement, DESIGN.md §15). Clamped
  /// to the live provider count, so single-provider deployments behave
  /// exactly as unreplicated ones regardless of this value.
  size_t replication = 2;
  /// Shared ring-membership view. Null builds a private fully-live view
  /// over the client's provider list (fine for a fixed cluster); an
  /// EvoStoreRepository installs one shared instance across its clients so
  /// a drain is visible to everyone at the same instant.
  std::shared_ptr<Membership> membership;
};

/// Fault-path counters for one client (all zero in a fault-free run).
struct ClientFaultStats {
  /// Individual RPC attempts that failed retryably and were retried.
  uint64_t retries = 0;
  /// Logical operations that ran out of retry budget: each one that handed
  /// a retryable error to its caller counts once. A leg that failed over
  /// or was hinted away is not one.
  uint64_t exhausted = 0;
  /// LCP broadcasts reduced over a strict subset of providers.
  uint64_t partial_lcp_queries = 0;
  /// prepare_transfer calls that degraded to "train from scratch" because
  /// the pin could not be completed under faults.
  uint64_t degraded_transfers = 0;
  /// Reads (metadata reads, or segment keys one by one) sent on to a later
  /// replica after an earlier one failed or answered not-found.
  uint64_t read_failovers = 0;
  /// Hinted handoffs parked on a surviving replica for an unreachable one.
  uint64_t hints_sent = 0;
};

/// Everything needed to perform one transfer-learning operation: produced by
/// `prepare_transfer`, consumed by training (prefix segments) and by
/// `put_model` (owner-map derivation + ref increments).
struct TransferContext {
  ModelId ancestor;
  double ancestor_quality = 0;
  /// (child vertex, ancestor vertex) pairs of the LCP.
  std::vector<std::pair<common::VertexId, common::VertexId>> matches;
  OwnerMap ancestor_owners;
  /// Prefix segments, in `matches` order (filled by prepare_transfer when
  /// fetch_payload is requested).
  std::vector<Segment> prefix_segments;
  /// True when prepare_transfer already incremented the refcount of every
  /// inherited segment (a *pin*, protecting the transfer against concurrent
  /// retirement of the ancestor). put_model turns the pin into the stored
  /// model's reference; abandon_transfer releases it.
  bool pinned = false;
  /// Child vertices among `matches` whose weights training modified
  /// (fine-tuned). They are stored self-owned — delta-encoded against the
  /// ancestor's segment when the client's codec allows — instead of
  /// inherited by reference. Must be sorted ascending.
  std::vector<common::VertexId> finetuned;

  size_t lcp_len() const { return matches.size(); }
};

class Client {
 public:
  /// RPC method peers answer segment-cache reads on (registered on this
  /// client's node when the cache is enabled).
  static constexpr const char* kPeerRead = "evostore.peer_read";

  /// `provider_nodes[i]` is the fabric node hosting provider i.
  Client(net::RpcSystem& rpc, NodeId self, uint32_t client_id,
         std::vector<NodeId> provider_nodes, ClientConfig config = {});

  NodeId node() const { return self_; }
  const ClientConfig& config() const { return config_; }
  /// Per-codec encode/decode counters and timings for this client.
  const compress::CodecStatsTable& codec_stats() const { return codec_stats_; }
  /// Retry/degradation counters (all zero in a fault-free run).
  const ClientFaultStats& fault_stats() const { return fault_stats_; }
  /// The local segment cache, or nullptr when disabled (hit/miss counters,
  /// charged bytes — see cache::SegmentCache::stats()).
  const cache::SegmentCache* segment_cache() const { return cache_.get(); }

  /// Allocate a fresh globally-unique model id.
  ModelId allocate_id() { return ModelId::make(client_id_, ++id_seq_); }

  /// Broadcast an LCP query to all providers and reduce to the global best
  /// (longest prefix; ties by quality, then lower id). `found == false`
  /// means no stored model shares even the input layer. Degrades gracefully
  /// under faults: providers that stay unreachable after retries are left
  /// out of the reduce and the response is tagged `partial` (all providers
  /// unreachable => `found == false`, still `partial`). Non-retryable
  /// failures propagate as errors.
  ///
  /// `parent` (here and on the other entry points) is the caller's trace
  /// context; the default starts a new trace when a tracer is attached and
  /// is inert otherwise.
  sim::CoTask<Result<wire::LcpQueryResponse>> query_lcp(
      const ArchGraph& g, obs::TraceContext parent = {});

  /// query_lcp + fetch the ancestor's owner map, PIN the prefix segments
  /// (refcount +1, so a concurrent retire cannot free them mid-transfer),
  /// and read the prefix payloads when `fetch_payload`. Returns nullopt
  /// (inside the Result) if no ancestor exists or it vanished while racing a
  /// retire. The pin is consumed by put_model or released by
  /// abandon_transfer.
  sim::CoTask<Result<std::optional<TransferContext>>> prepare_transfer(
      const ArchGraph& g, bool fetch_payload = true);

  /// Release a pinned transfer without storing a derived model.
  sim::CoTask<Status> abandon_transfer(const TransferContext& tc);

  /// Store a model. For derived models pass the TransferContext so that only
  /// self-owned segments travel; inherited segments get their refcounts
  /// incremented on their owners' providers.
  sim::CoTask<Status> put_model(const Model& m, const TransferContext* tc);

  /// Fetch metadata (graph, owner map, quality, lineage pointer).
  sim::CoTask<Result<ModelMeta>> get_meta(ModelId id,
                                          obs::TraceContext parent = {});

  /// Reconstruct a full model: one owner-map lookup + parallel bulk reads
  /// from every owning provider.
  sim::CoTask<Result<Model>> get_model(ModelId id);

  /// ABLATION BASELINE (paper §4.1's "simple solution"): reconstruct by
  /// walking the ancestor chain level by level — one metadata round trip
  /// plus one read round per ancestor, instead of consulting a single owner
  /// map. Read cost grows with chain length; `bench/ablation_chain_reads`
  /// quantifies the gap that motivates owner maps. Fails if any ancestor on
  /// the chain was already retired.
  sim::CoTask<Result<Model>> get_model_via_chain(ModelId id);

  /// Read the segments for an arbitrary vertex subset (in `vertices` order)
  /// by following `owners`. `owners` is a pointer because the map is read
  /// again after suspension points: it must outlive the returned task
  /// (every caller owns it across the co_await); `vertices` is copied into
  /// the frame for the same reason (EVO-CORO-003).
  sim::CoTask<Result<std::vector<Segment>>> read_segments(
      const OwnerMap* owners, std::vector<common::VertexId> vertices,
      obs::TraceContext parent = {});

  /// Retire a model: metadata removed eagerly; every owner-map entry's
  /// refcount decremented (parallel fan-out); payloads freed at zero.
  sim::CoTask<Status> retire(ModelId id);

  /// Fetch one provider's operation counters and live stored volume
  /// (logical/physical bytes, per-codec breakdown).
  sim::CoTask<Result<wire::StatsResponse>> provider_stats(
      common::ProviderId provider);

  /// Cluster-wide stats: one parallel GetStats fan-out over every provider.
  /// `per_provider` is in provider-id order; `totals` sums the counters and
  /// merges the per-provider histogram digests by name (see
  /// wire::merge_stats).
  struct ClusterStats {
    std::vector<wire::StatsResponse> per_provider;
    wire::StatsResponse totals;
  };
  sim::CoTask<Result<ClusterStats>> collect_stats();

  // ---- Provenance queries (paper §4.1 "owner maps as a foundation") ----

  /// Ancestor chain id, parent, grandparent, ... (stops at a from-scratch
  /// model or at the first retired ancestor whose metadata is gone).
  sim::CoTask<Result<std::vector<ModelId>>> lineage(ModelId id);

  /// Contributors to a model's composition with the vertex sets they own,
  /// ordered by recency (store time descending) — directly from one owner
  /// map plus the contributors' store timestamps.
  struct Contribution {
    ModelId owner;
    std::vector<common::VertexId> vertices;
    double store_time = 0;
  };
  sim::CoTask<Result<std::vector<Contribution>>> contributions(ModelId id);

  /// Most recent common ancestor of two models: the common owner-map
  /// contributor with the latest store time. NotFound if none.
  sim::CoTask<Result<ModelId>> most_recent_common_ancestor(ModelId a,
                                                           ModelId b);

 private:
  NodeId provider_node(common::ProviderId p) const {
    return provider_nodes_[p];
  }
  /// The replica set for `id`, preference order (rendezvous top-k over the
  /// live membership).
  std::vector<common::ProviderId> replicas_of(ModelId id) const {
    return membership_->replicas(id);
  }
  /// Fresh idempotency token, never 0: incarnation epoch (16 bits) | client
  /// id (16 bits) | sequence (32 bits). One token covers one logical
  /// mutation across all its retries. Unique as long as a deployment stays
  /// under 2^16 clients per epoch and 2^32 tokened mutations per client.
  uint64_t next_token() {
    return (config_.token_epoch & 0xffff) << 48 |
           static_cast<uint64_t>(client_id_ & 0xffff) << 32 | ++token_seq_;
  }
  /// Backoff before retry number `attempt` (1-based), capped and jittered.
  double backoff_delay(int attempt);
  /// An operation's final status. A retryable one means the operation ran
  /// out of retry budget, counted once in fault_stats_.exhausted.
  Status finish_op(Status st) {
    if (common::is_retryable(st.code())) ++fault_stats_.exhausted;
    return st;
  }

  /// The attached tracer, if any (client-side root + attempt spans).
  obs::Tracer* tracer() { return rpc_->tracer(); }
  /// The attached flight recorder, if any (write-leg / failover / cache
  /// lifecycle events). Null when detached: call sites pay one branch.
  obs::EventLog* events() { return rpc_->events(); }

  /// A request encoded once (DESIGN.md §7): the legs of a fan-out, the
  /// attempts of a leg, the rounds of a put and a parked hint all send
  /// these bytes instead of encoding the request again. Shared, so a spawned
  /// leg owns what it sends.
  using Encoded = std::shared_ptr<const common::Bytes>;
  template <typename Request>
  static Encoded encode_once(const Request& request) {
    return std::make_shared<const common::Bytes>(wire::encode(request));
  }

  // ---- The attempt loop (RetryPolicy) ----
  // Every RPC leg runs here. Attempt n is `once(n, &span)`, the leg's
  // one-try body, which tags the span's leading tags and sends the attempt;
  // the span is a child of `parent` named `name`. A landed or non-retryable
  // outcome ends the leg, tagged; a retryable one at attempt `cap` ends it
  // tagged `exhausted` + the error, and an earlier one is tagged with the
  // error and its backoff, counted in fault_stats_.retries, and retried
  // after that backoff. A body that tags its own outcome ends the span
  // first (an ended span drops tags). `once` and its by-value captures live
  // in this frame for every attempt; the span outlives each body.
  template <typename Outcome, typename Once>
  sim::CoTask<Outcome> attempt_loop(const char* name, int cap,
                                    const char* exhausted,
                                    obs::TraceContext parent, Once once) {
    for (int attempt = 1;; ++attempt) {
      obs::Span span = obs::Tracer::maybe_begin(tracer(), name, self_, parent);
      Outcome out = co_await once(attempt, &span);
      const Status& st = leg_status(out);
      if (st.ok() || !common::is_retryable(st.code())) {
        span.tag("outcome", st.ok() ? "ok" : st.to_string());
        co_return out;
      }
      if (attempt >= cap) {
        span.tag("outcome", exhausted + st.to_string());
        co_return out;
      }
      ++fault_stats_.retries;
      double backoff = backoff_delay(attempt);
      span.tag("outcome", st.to_string());
      span.tag_f64("backoff_seconds", backoff);
      span.end();
      co_await rpc_->simulation().delay(backoff);
    }
  }
  // How a leg ended: Ok once it landed (its target answered, its bulk
  // payload crossed, and a put leg's replica committed the model).
  static const Status& leg_status(const Status& st) { return st; }
  template <typename Response>
  static const Status& leg_status(const Result<Response>& r) {
    return r.status();
  }

  /// A call leg: typed_call with the client's deadline under the attempt
  /// loop. Every attempt sends the request's one encoding, so an embedded
  /// idempotency token stays stable for the logical operation. Only a
  /// failed call is retried; a response travels back as it is.
  template <typename Response>
  sim::CoTask<Result<Response>> call_encoded(NodeId to, const char* method,
                                             Encoded request,
                                             obs::TraceContext parent = {}) {
    return attempt_loop<Result<Response>>(
        "attempt", config_.retry.max_attempts, "exhausted: ", parent,
        [this, to, method, request = std::move(request)](int attempt,
                                                          obs::Span* span) {
          span->tag("method", method);
          span->tag_u64("attempt", static_cast<uint64_t>(attempt));
          return net::typed_call_encoded<Response>(
              rpc_, self_, to, method, *request,
              net::CallOptions{config_.rpc_timeout, span->context()});
        });
  }

  // ---- Fan-out ----
  // Every parallel fan-out is one leg per target (a provider, or a peer's
  // node). spawn_legs starts them in target order (`leg(t)` is target t's
  // task); `co_await std::move(legs.futures[i])` moves leg i's outcome out
  // as it lands (each leg has one consumer), and await_legs returns every
  // outcome in target order.
  template <typename Outcome, typename Target = common::ProviderId>
  struct Legs {
    std::vector<Target> targets;
    std::vector<sim::Future<Outcome>> futures;
  };
  template <typename Outcome, typename Target, typename Leg>
  Legs<Outcome, Target> spawn_legs(std::vector<Target> targets, Leg leg) {
    Legs<Outcome, Target> legs{std::move(targets), {}};
    legs.futures.reserve(legs.targets.size());
    for (const Target& t : legs.targets) {
      legs.futures.push_back(rpc_->simulation().spawn(leg(t)));
    }
    return legs;
  }
  template <typename Outcome, typename Target>
  static sim::CoTask<std::vector<Outcome>> await_legs(
      Legs<Outcome, Target> legs) {
    std::vector<Outcome> outcomes;
    for (auto& f : legs.futures) outcomes.push_back(co_await std::move(f));
    co_return outcomes;
  }

  // Legs and leg bodies. They take their request BY VALUE or as a shared
  // encoding: a lazily-started frame holding a reference to a loop-local
  // request would dangle. The trace context is likewise by value.
  // One LCP broadcast leg: a call leg under its own `lcp_leg` span.
  sim::CoTask<Result<wire::LcpQueryResponse>> lcp_one(
      NodeId to, Encoded request, obs::TraceContext parent);
  // One try of a put leg: the bulk payload, then the publish. `prior_rounds`
  // says an earlier round sent this request too.
  sim::CoTask<Status> put_one(NodeId home, Encoded request,
                              size_t payload_bytes, int attempt,
                              bool prior_rounds, obs::Span* span);
  // One try of a read leg: the call, then the bulk pull of its payload.
  sim::CoTask<Result<wire::ReadSegmentsResponse>> read_one(
      NodeId to, Encoded request, size_t keys, int attempt, obs::Span* span);
  // Park a hinted handoff for `target` (a replica that stayed unreachable
  // through a write's retry budget) on the first other live member of
  // `replicas` that accepts it. `payload` is the serialized original
  // request — token included, so the eventual replay deduplicates exactly
  // like a retry.
  sim::CoTask<Status> send_hint(common::ProviderId target, std::string method,
                                common::Bytes payload,
                                std::vector<common::ProviderId> replicas,
                                obs::TraceContext parent);

  // ---- The replicated write (DESIGN.md §15) ----
  // put_model, modify_refs and retire fan a write out as one leg per
  // replica (spawn_legs, await_legs) and keep only their own decisions.
  // This is their hint step: once any leg has landed, park a hint for each
  // leg that failed retryably and whose replica is still a member, on
  // another live replica of the set. `request(i)` is the encoding leg i
  // sent. Returns Ok, or the first hint that could not be parked.
  template <typename Outcome, typename Request>
  sim::CoTask<Status> hint_failed_legs(
      std::string method, std::vector<common::ProviderId> replicas,
      const std::vector<Outcome>* outcomes, Request request,
      obs::TraceContext parent) {
    Status status;
    if (std::none_of(outcomes->begin(), outcomes->end(),
                     [](const Outcome& o) { return leg_status(o).ok(); })) {
      co_return status;
    }
    for (size_t i = 0; i < replicas.size(); ++i) {
      if (!common::is_retryable(leg_status((*outcomes)[i]).code()) ||
          !membership_->is_live(replicas[i])) {
        continue;
      }
      Status hinted = co_await send_hint(replicas[i], method, *request(i),
                                         replicas, parent);
      status = combine(status, hinted);
    }
    co_return status;
  }
  // One peer-cache fetch after a provider redirect hint. Single attempt —
  // a dead or cold peer is not worth a retry budget; the caller falls back
  // to the provider (with redirects disabled, guaranteeing termination).
  sim::CoTask<Result<wire::PeerReadResponse>> peer_one(
      NodeId to, wire::PeerReadRequest req, obs::TraceContext parent);
  // Serves kPeerRead: answers from the local cache, exact-version matches
  // only (anything else could resurrect bytes the provider replaced). The
  // handler context parents the serve-side span under the RPC span.
  sim::CoTask<wire::PeerReadResponse> handle_peer_read(
      wire::PeerReadRequest req, net::HandlerContext ctx);

  // Apply ±1 to the refcount of every key in `keys`: the keys group by
  // their owner's replica set, and each group is one replicated write
  // whose legs carry their own tokened request. Returns the number of keys
  // the providers reported missing via `missing_out` (optional). When a
  // decrement frees delta envelopes, the base references they held are
  // released too — the rounds loop until the cascade is drained. Keys whose
  // first-round request was acknowledged by a replica are appended to
  // `applied_out` (optional) — under faults a caller can roll back exactly
  // the increments that are known to have landed.
  // `pin_epoch` / `pin_consume` ride on the FIRST round only (they describe
  // the caller's keys, not the cascaded bases) — see
  // wire::ModifyRefsRequest::pin_epoch.
  sim::CoTask<Status> modify_refs(std::vector<common::SegmentKey> keys,
                                  bool increment, uint32_t* missing_out,
                                  std::vector<common::SegmentKey>* applied_out =
                                      nullptr,
                                  obs::TraceContext parent = {},
                                  uint64_t pin_epoch = 0,
                                  bool pin_consume = false);
  // What fetch_envelopes' validated provider round carries: the cached
  // version sent per key (cache on), and the keys it leaves to the peer
  // phase (`redirects`) and to the fallback round (`fallback`).
  struct ValidatedRound {
    std::unordered_map<common::SegmentKey, uint64_t> versions;
    std::map<NodeId, wire::PeerReadRequest> redirects;
    std::vector<common::SegmentKey> fallback;
  };
  // Read `keys` into `out` with striped replicas and failover: a key starts
  // at replica (vertex mod |R|) of its owner's set R, one read leg goes to
  // each replica group per round, and a failed or NotFound group moves each
  // key on to its next replica. With `validation` the requests carry cached
  // versions and accept redirects, and the keys the round cannot settle
  // land in it; without it (the fallback round) providers answer fresh
  // envelopes only.
  sim::CoTask<Status> read_rounds(
      std::vector<common::SegmentKey> keys, ValidatedRound* validation,
      std::unordered_map<common::SegmentKey, compress::CompressedSegment>* out,
      obs::TraceContext parent);
  // Fetch the envelopes for `keys` (skipping ones already in `out`),
  // grouped by provider, charging bulk transfers at physical size.
  sim::CoTask<Status> fetch_envelopes(
      const std::vector<common::SegmentKey>& keys,
      std::unordered_map<common::SegmentKey, compress::CompressedSegment>* out,
      obs::TraceContext parent = {});

  net::RpcSystem* rpc_;
  NodeId self_;
  uint32_t client_id_;
  uint32_t id_seq_ = 0;
  uint32_t token_seq_ = 0;
  std::vector<NodeId> provider_nodes_;
  ClientConfig config_;
  std::shared_ptr<Membership> membership_;
  compress::CodecStatsTable codec_stats_{};
  ClientFaultStats fault_stats_{};
  common::Xoshiro256 retry_rng_;
  // Null when config_.cache.capacity_bytes == 0 (caching disabled).
  std::unique_ptr<cache::SegmentCache> cache_;

  // Client-side end-to-end latency histograms in the RpcSystem's shared
  // registry (null when no registry is attached — one branch per op).
  obs::Histogram* hist_put_seconds_ = nullptr;
  obs::Histogram* hist_lcp_seconds_ = nullptr;
  obs::Histogram* hist_read_seconds_ = nullptr;
};

}  // namespace evostore::core
