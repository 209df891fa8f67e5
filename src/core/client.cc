#include "core/client.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <unordered_set>

namespace evostore::core {

using common::VertexId;
using compress::CompressedSegment;

namespace {

// Comma-joined provider list for flight-recorder attrs (e.g. "0,2,3").
std::string id_list(const std::vector<common::ProviderId>& ids) {
  std::string out;
  for (common::ProviderId p : ids) {
    if (!out.empty()) out += ",";
    out += std::to_string(p);
  }
  return out;
}

// The targets of a fan-out's per-target requests, in target order.
template <typename Target, typename Request>
std::vector<Target> targets_of(const std::map<Target, Request>& requests) {
  std::vector<Target> targets;
  targets.reserve(requests.size());
  for (const auto& [target, request] : requests) targets.push_back(target);
  return targets;
}

}  // namespace

Client::Client(net::RpcSystem& rpc, NodeId self, uint32_t client_id,
               std::vector<NodeId> provider_nodes, ClientConfig config)
    : rpc_(&rpc),
      self_(self),
      client_id_(client_id),
      provider_nodes_(std::move(provider_nodes)),
      config_(config),
      retry_rng_(common::hash_combine(config.fault_seed, client_id)) {
  assert(!provider_nodes_.empty());
  // Shared membership when the repository installed one (drains propagate
  // to every client at once); otherwise a private fully-live view.
  membership_ = config_.membership != nullptr
                    ? config_.membership
                    : std::make_shared<Membership>(provider_nodes_.size(),
                                                   config_.replication);
  // Client-side end-to-end latencies land in the cluster registry when one
  // is attached to the RpcSystem (pointers stay null otherwise, so the
  // unattached hot path pays one branch per operation).
  if (obs::MetricsRegistry* shared = rpc.metrics()) {
    hist_put_seconds_ = shared->histogram("client.put_model_seconds");
    hist_lcp_seconds_ = shared->histogram("client.lcp_query_seconds");
    hist_read_seconds_ = shared->histogram("client.read_segments_seconds");
  }
  if (config_.cache.capacity_bytes > 0) {
    cache_ = std::make_unique<cache::SegmentCache>(config_.cache);
    if (obs::MetricsRegistry* shared = rpc.metrics()) {
      // All clients bind the same prefix on purpose: the registry counters
      // aggregate cluster-wide, which is what --metrics-out wants.
      cache_->bind_metrics(shared, "client.cache");
    }
    // Every caching client serves its peers (ScaleStore-style "cache
    // anywhere"). Context-aware registration: the serve-side span parents
    // under the RPC serve span, so a redirected read's trace shows the peer
    // leg.
    net::register_typed_handler(rpc, self_, kPeerRead, this,
                                &Client::handle_peer_read);
  }
}

double Client::backoff_delay(int attempt) {
  const RetryPolicy& rp = config_.retry;
  double b = rp.initial_backoff *
             std::pow(RetryPolicy::kBackoffMultiplier, attempt - 1);
  b = std::min(b, rp.max_backoff);
  b *= 1.0 + RetryPolicy::kJitterFraction * (2.0 * retry_rng_.uniform() - 1.0);
  return b;
}

// ---- LCP query: broadcast + reduce ---------------------------------------

sim::CoTask<Result<wire::LcpQueryResponse>> Client::lcp_one(
    NodeId to, Encoded request, obs::TraceContext parent) {
  // One span per fan-out leg, so the trace shows the broadcast shape (and
  // which leg a slow or retried attempt belonged to).
  obs::Span leg = obs::Tracer::maybe_begin(tracer(), "lcp_leg", self_, parent);
  leg.tag_u64("provider_node", to);
  co_return co_await call_encoded<wire::LcpQueryResponse>(
      to, Provider::kLcpQuery, std::move(request), leg.context());
}

sim::CoTask<Result<wire::LcpQueryResponse>> Client::query_lcp(
    // NOLINTNEXTLINE(cppcoreguidelines-avoid-reference-coroutine-parameters)
    const ArchGraph& g, obs::TraceContext parent) {
  obs::Span span =
      obs::Tracer::maybe_begin(tracer(), "lcp_query", self_, parent);
  double t0 = rpc_->simulation().now();
  // The query's one copy of `g`'s shape (its layers stay behind): every
  // round encodes from it.
  wire::LcpQueryRequest req;
  req.graph = g;
  req.live = membership_->live_bytes();
  std::vector<common::ProviderId> asked;
  for (size_t p = 0; p < provider_nodes_.size(); ++p) {
    // Drained providers hold no catalog; broadcasting to them would only
    // burn the retry budget and mark the reduce partial.
    if (!membership_->is_live(static_cast<common::ProviderId>(p))) continue;
    asked.push_back(static_cast<common::ProviderId>(p));
  }
  wire::LcpQueryResponse best;
  size_t unreachable = 0;
  // Round 1 asks every live provider to scan its primary share. If some
  // stay unreachable, one cover round asks the responders to scan the
  // failed providers' shares, which their next live replicas hold
  // (DESIGN.md §15).
  for (int round = 1; round <= 2 && !asked.empty(); ++round) {
    // One encoding per round: every leg and every retry sends these bytes.
    const Encoded request = encode_once(req);
    auto legs = spawn_legs<Result<wire::LcpQueryResponse>>(
        asked, [&](common::ProviderId p) {
          return lcp_one(provider_nodes_[p], request, span.context());
        });
    std::vector<common::ProviderId> answered;
    std::vector<common::ProviderId> failed;
    for (size_t i = 0; i < asked.size(); ++i) {
      auto r = co_await std::move(legs.futures[i]);
      if (!r.ok()) {
        // Graceful degradation: a provider that stayed unreachable through
        // the retry budget is left out of the reduce, and the answer is
        // tagged partial. Without a cover round, or when a cover leg fails
        // too, it may be shorter than the true global LCP — the NAS then
        // trains a longer prefix from scratch, which is slower but
        // correct. Non-retryable failures still propagate: they signal
        // bugs, not faults.
        if (common::is_retryable(r.status().code())) {
          failed.push_back(asked[i]);
          continue;
        }
        co_return r.status();
      }
      answered.push_back(asked[i]);
      auto& resp = r.value();
      if (resp.found) {
        best.offer(resp.ancestor, resp.quality, std::move(resp.matches));
      }
    }
    unreachable += failed.size();
    if (failed.empty() || round == 2) break;
    for (common::ProviderId p : failed) req.live[p] = 0;
    req.cover = std::move(failed);
    asked = std::move(answered);
  }
  if (unreachable > 0) {
    best.partial = true;
    ++fault_stats_.partial_lcp_queries;
  }
  span.tag("found", best.found ? "true" : "false");
  span.tag_u64("lcp_len", best.lcp_len());
  span.tag_u64("unreachable", unreachable);
  if (hist_lcp_seconds_ != nullptr) {
    hist_lcp_seconds_->add(rpc_->simulation().now() - t0);
  }
  co_return best;
}

// ---- put -----------------------------------------------------------------

sim::CoTask<Status> Client::put_one(NodeId home, Encoded request,
                                    size_t payload_bytes, int attempt,
                                    bool prior_rounds, obs::Span* span) {
  // Data plane first: the consolidated new tensors cross via bulk RDMA,
  // then the (small) metadata RPC publishes the model. The attempt loop
  // retries both as one unit — a lost publish re-sends the (idempotent)
  // payload too.
  span->tag_u64("attempt", static_cast<uint64_t>(attempt));
  span->tag_u64("payload_bytes", payload_bytes);
  Status st = co_await rpc_->bulk(
      self_, home, common::Buffer::synthetic(payload_bytes, 0));
  if (st.ok()) {
    auto r = co_await net::typed_call_encoded<wire::PutModelResponse>(
        rpc_, self_, home, Provider::kPutModel, *request,
        net::CallOptions{config_.rpc_timeout, span->context()});
    st = r.ok() ? r->status : r.status();
  }
  // Model ids are globally unique, so AlreadyExists on a RETRY (including
  // an earlier outer round) can only mean an earlier attempt committed and
  // its response was lost.
  if ((attempt > 1 || prior_rounds) &&
      st.code() == common::ErrorCode::kAlreadyExists) {
    span->tag("outcome", "committed-by-earlier-attempt");
    span->end();
    co_return Status::Ok();
  }
  co_return st;
}

sim::CoTask<Status> Client::modify_refs(
    std::vector<common::SegmentKey> keys, bool increment,
    uint32_t* missing_out, std::vector<common::SegmentKey>* applied_out,
    obs::TraceContext parent, uint64_t pin_epoch, bool pin_consume) {
  Status status;
  uint32_t missing = 0;
  std::vector<common::SegmentKey> pending = std::move(keys);
  bool first_round = true;
  // Decrements can free delta envelopes, releasing the reference each held
  // on its base; those bases come back as freed_bases and are decremented in
  // the next round (the cascade drains down the delta chain). Increments
  // never free, so they always finish in one round.
  while (!pending.empty()) {
    // Group keys by their (identical) replica set: every replica of a key
    // must see the same logical ±1. Each replica gets its own tokened copy
    // of the group's request — the token makes retries AND hint replays
    // exactly-once per replica.
    std::map<std::vector<common::ProviderId>, std::vector<common::SegmentKey>>
        groups;
    for (const auto& key : pending) {
      groups[replicas_of(key.owner)].push_back(key);
    }
    pending.clear();
    struct Group {
      std::vector<common::SegmentKey> keys;
      std::vector<Encoded> requests;  // leg i's
      Legs<Result<wire::ModifyRefsResponse>> legs;
    };
    std::vector<Group> states;
    states.reserve(groups.size());
    for (auto& [reps, group_keys] : groups) {
      Group& g = states.emplace_back();
      g.keys = std::move(group_keys);
      g.legs = spawn_legs<Result<wire::ModifyRefsResponse>>(
          reps, [&](common::ProviderId p) {
            wire::ModifyRefsRequest req;
            req.increment = first_round && increment;
            req.token = next_token();
            // Pin-ledger bookkeeping describes the caller's keys only; the
            // cascaded base releases of later rounds are plain
            // delta-dependency references, never pins.
            if (first_round) {
              req.pin_epoch = pin_epoch;
              req.pin_consume = pin_consume;
            }
            req.keys = g.keys;
            g.requests.push_back(encode_once(req));
            return call_encoded<wire::ModifyRefsResponse>(
                provider_node(p), Provider::kModifyRefs, g.requests.back(),
                parent);
          });
    }
    for (Group& g : states) {
      std::vector<Result<wire::ModifyRefsResponse>> outcomes =
          co_await await_legs(g.legs);
      // The delta must land on every still-member replica eventually or
      // the copies diverge, so a hint that cannot be parked is an error.
      auto request = [&g](size_t i) -> const Encoded& {
        return g.requests[i];
      };
      Status hinted = co_await hint_failed_legs(
          Provider::kModifyRefs, g.legs.targets, &outcomes, request, parent);
      status = combine(status, hinted);
      // Replicas hold identical copies and each logical ±1 reaches every
      // replica exactly once, so their refcounts move in lockstep: any ONE
      // successful response is authoritative for the cascade. Prefer the one
      // that found the most keys (a freshly rebuilt replica may briefly lag).
      std::optional<wire::ModifyRefsResponse> authoritative;
      std::map<common::SegmentKey, size_t> missing_votes;
      size_t successes = 0;
      Status group_status;
      for (auto& r : outcomes) {
        if (!r.ok()) {
          group_status = combine(group_status, r.status());
          continue;
        }
        wire::ModifyRefsResponse resp = std::move(r).value();
        ++successes;
        for (const auto& mk : resp.missing_keys) ++missing_votes[mk];
        if (!authoritative.has_value() ||
            resp.missing < authoritative->missing) {
          authoritative.emplace(std::move(resp));
        }
      }
      if (successes == 0) {
        // Every replica unreachable: the delta is lost, not parked — a hint
        // needs at least one live custodian that applied it.
        status = combine(status, group_status);
        continue;
      }
      // A key is only globally missing when EVERY responding replica
      // reported it missing (one lagging rebuild must not look like a lost
      // segment).
      uint32_t group_missing = 0;
      for (const auto& [mk, votes] : missing_votes) {
        (void)mk;
        if (votes == successes) ++group_missing;
      }
      if (first_round) {
        if (applied_out != nullptr) {
          applied_out->insert(applied_out->end(), g.keys.begin(),
                              g.keys.end());
        }
        missing += group_missing;
        if (group_missing > 0 && missing_out == nullptr) {
          // Caller treats missing keys as an error.
          status = combine(
              status, Status::NotFound(std::to_string(group_missing) +
                                       " segment(s) not found"));
        }
      } else if (group_missing > 0) {
        // A cascaded base release hit an already-freed key — the delta
        // dependency held a reference, so this should be impossible.
        status = combine(status,
                         Status::NotFound("cascaded base release missed"));
      }
      pending.insert(pending.end(), authoritative->freed_bases.begin(),
                     authoritative->freed_bases.end());
    }
    first_round = false;
  }
  if (missing_out != nullptr) *missing_out = missing;
  co_return status;
}

sim::CoTask<Status> Client::send_hint(common::ProviderId target,
                                      std::string method, common::Bytes payload,
                                      std::vector<common::ProviderId> replicas,
                                      obs::TraceContext parent) {
  wire::StoreHintRequest req;
  req.hint.target = target;
  req.hint.method = std::move(method);
  req.hint.payload = std::move(payload);
  const Encoded request = encode_once(req);
  Status last = Status::Unavailable("no live custodian for hint");
  for (common::ProviderId custodian : replicas) {
    if (custodian == target || !membership_->is_live(custodian)) continue;
    auto r = co_await call_encoded<wire::StoreHintResponse>(
        provider_node(custodian), Provider::kStoreHint, request, parent);
    Status st = r.ok() ? r->status : r.status();
    if (st.ok()) {
      ++fault_stats_.hints_sent;
      co_return st;
    }
    last = st;
  }
  co_return last;
}

// NOLINTNEXTLINE(cppcoreguidelines-avoid-reference-coroutine-parameters)
sim::CoTask<Status> Client::put_model(const Model& m, const TransferContext* tc) {
  obs::Span span = obs::Tracer::maybe_begin(tracer(), "put_model", self_);
  span.tag("model", m.id().to_string());
  double t0 = rpc_->simulation().now();
  size_t n = m.vertex_count();
  bool use_delta = config_.put_codec == compress::CodecId::kDeltaVsAncestor;

  // Per fine-tuned child vertex: the ancestor segment it can delta against
  // (prefix payload, when fetched) and the key that segment is stored under.
  struct BaseRef {
    const Segment* segment = nullptr;
    common::SegmentKey key;
  };
  std::unordered_map<VertexId, BaseRef> bases;
  OwnerMap owners;
  if (tc == nullptr) {
    owners = OwnerMap::self_owned(m.id(), n);
  } else if (tc->finetuned.empty()) {
    owners = OwnerMap::derive(m.id(), n, tc->ancestor_owners, tc->matches);
  } else {
    // Fine-tuned vertices were modified by training: they are stored
    // self-owned even though the LCP matched them.
    std::vector<std::pair<VertexId, VertexId>> inherited;
    inherited.reserve(tc->matches.size());
    for (size_t i = 0; i < tc->matches.size(); ++i) {
      auto [gv, av] = tc->matches[i];
      if (!std::binary_search(tc->finetuned.begin(), tc->finetuned.end(),
                              gv)) {
        inherited.push_back(tc->matches[i]);
        continue;
      }
      BaseRef base;
      base.key = tc->ancestor_owners.entry(av);
      if (i < tc->prefix_segments.size()) {
        base.segment = &tc->prefix_segments[i];
      }
      bases.emplace(gv, base);
    }
    owners = OwnerMap::derive(m.id(), n, tc->ancestor_owners, inherited);
  }

  wire::PutModelRequest req;
  req.id = m.id();
  req.ancestor = tc != nullptr ? tc->ancestor : ModelId::invalid();
  req.token = next_token();
  req.quality = m.quality();
  req.graph = m.graph();
  req.owners = owners;
  uint64_t payload = 0;
  // Pinned fine-tuned matches whose envelope kept no base dependency must
  // release their pin (nothing references the ancestor segment anymore);
  // conversely, envelopes that DID keep a base reference it like an
  // inherited entry: un-pinned ones need a +1 on it, pinned ones consume
  // the pin in place (it becomes the delta-base reference) — only the
  // ledger entry goes.
  std::vector<common::SegmentKey> release_keys;
  std::vector<common::SegmentKey> base_keys;
  obs::Span encode =
      obs::Tracer::maybe_begin(tracer(), "encode", self_, span.context());
  for (VertexId v : owners.vertices_owned_by(m.id())) {
    const Segment* base = nullptr;
    const common::SegmentKey* base_key = nullptr;
    auto it = bases.find(v);
    if (use_delta && it != bases.end() && it->second.segment != nullptr) {
      base = it->second.segment;
      base_key = &it->second.key;
    }
    auto env = compress::compress_segment(m.segment(v), config_.put_codec,
                                          base, base_key, &codec_stats_);
    if (!env.ok()) co_return env.status();
    payload += env->physical_bytes;
    if (it != bases.end()) {
      if (env->has_base) {
        base_keys.push_back(it->second.key);
      } else if (tc->pinned) {
        release_keys.push_back(it->second.key);
      }
    }
    req.new_segments.emplace_back(v, std::move(env).value());
  }
  encode.tag_u64("segments", req.new_segments.size());
  encode.tag_u64("physical_bytes", payload);
  encode.end();
  // One encoding for the whole write: every leg, every round and the parked
  // hint send these bytes.
  const Encoded put_request = encode_once(req);

  auto& sim = rpc_->simulation();
  // The model write fans out to every replica in its rendezvous set (same
  // request, same token — providers deduplicate, so a replica reached twice
  // commits once) while the inherited-segment ref updates proceed in
  // parallel.
  //
  // Two-tier retry budget (RetryPolicy::write_leg_attempts): each leg gets a
  // short per-round cap, and rounds below re-fan the same tokened request to
  // every replica while none has committed. One replica down → its leg
  // exhausts fast and becomes a hinted handoff; the client's own egress
  // down → every leg fails fast but the rounds ride out the outage. A leg
  // that exhausts its cap is no operation failure (it may be hinted away or
  // re-fanned), so only the put's final status counts as exhausted.
  std::vector<common::ProviderId> put_reps = replicas_of(m.id());
  const int leg_cap =
      config_.retry.write_leg_attempts > 0
          ? std::min(config_.retry.write_leg_attempts,
                     config_.retry.max_attempts)
          : config_.retry.max_attempts;
  const int put_rounds =
      config_.retry.write_leg_attempts > 0 ? config_.retry.max_attempts : 1;
  auto put_legs = [&](bool prior_rounds) {
    return spawn_legs<Status>(put_reps, [&](common::ProviderId p) {
      return attempt_loop<Status>(
          "put_attempt", leg_cap, "leg exhausted: ", span.context(),
          [this, home = provider_node(p), put_request, payload, prior_rounds](
              int attempt, obs::Span* attempt_span) {
            return put_one(home, put_request, payload, attempt, prior_rounds,
                           attempt_span);
          });
    });
  };
  Legs<Status> legs = put_legs(/*prior_rounds=*/false);
  // Every inherited entry and every kept delta base (base_keys) needs this
  // model's reference. Without a pin, each gets its +1 here. A pinned
  // transfer already holds it: the pins prepare_transfer recorded become
  // these references, so only their pin-ledger entries are removed —
  // otherwise a later client incarnation would reap the "pins" and free
  // segments the stored model still references.
  const bool pinned = tc != nullptr && tc->pinned;
  std::vector<common::SegmentKey> ref_keys;
  for (const auto& entry : owners.entries()) {
    if (entry.owner != m.id()) ref_keys.push_back(entry);
  }
  ref_keys.insert(ref_keys.end(), base_keys.begin(), base_keys.end());
  Status ref_status = co_await modify_refs(
      std::move(ref_keys), /*increment=*/!pinned, nullptr, nullptr,
      span.context(), pinned ? config_.token_epoch : 0,
      /*pin_consume=*/pinned);
  if (!release_keys.empty()) {
    // release_keys only exist on pinned transfers: the decrement releases
    // the pinned reference AND its ledger entry.
    ref_status = combine(
        ref_status,
        co_await modify_refs(std::move(release_keys), /*increment=*/false,
                             nullptr, nullptr, span.context(),
                             config_.token_epoch));
  }
  // The put commits once ANY replica holds the model (degraded-but-correct:
  // reads fail over, repair restores full replication).
  std::vector<Status> outcomes;
  for (int round = 1;; ++round) {
    outcomes = co_await await_legs(legs);
    // Stop as soon as anything committed (stragglers become hints), on a
    // non-retryable error (a bug, not a fault), or when the round budget is
    // spent. Otherwise every leg failed retryably — likely our own egress is
    // down — so back off and re-fan the same tokened request.
    const bool settled = std::any_of(
        outcomes.begin(), outcomes.end(),
        [](const Status& st) { return !common::is_retryable(st.code()); });
    if (settled || round >= put_rounds) break;
    ++fault_stats_.retries;
    co_await sim.delay(backoff_delay(round));
    legs = put_legs(/*prior_rounds=*/true);
  }
  Status put_status;
  if (std::none_of(outcomes.begin(), outcomes.end(),
                   [](const Status& st) { return st.ok(); })) {
    for (const Status& st : outcomes) put_status = combine(put_status, st);
  }
  if (obs::EventLog* ev = events()) {
    // One event per fan-out leg: which replicas committed the write and
    // which exhausted their budget (the latter become hinted handoffs).
    for (size_t i = 0; i < put_reps.size(); ++i) {
      if (outcomes[i].ok()) {
        ev->record(sim.now(), "write.leg_committed", self_,
                   {{"model", req.id.to_string()},
                    {"replica", obs::EventLog::u64(put_reps[i])}});
      } else {
        ev->record(sim.now(), "write.leg_exhausted", self_,
                   {{"model", req.id.to_string()},
                    {"replica", obs::EventLog::u64(put_reps[i])},
                    {"error", outcomes[i].to_string()}});
      }
    }
  }
  // Best-effort: a failed hint only delays convergence until the next
  // anti-entropy repair, it never loses the committed write.
  (void)co_await hint_failed_legs(
      Provider::kPutModel, put_reps, &outcomes,
      [&put_request](size_t) -> const Encoded& { return put_request; },
      span.context());
  Status final_status = finish_op(combine(put_status, ref_status));
  span.tag("outcome", final_status.ok() ? "ok" : final_status.to_string());
  if (hist_put_seconds_ != nullptr) {
    hist_put_seconds_->add(rpc_->simulation().now() - t0);
  }
  co_return final_status;
}

// ---- reads ---------------------------------------------------------------

sim::CoTask<Result<ModelMeta>> Client::get_meta(ModelId id,
                                                obs::TraceContext parent) {
  // One encoding for every replica the read fails over to.
  const Encoded request = encode_once(wire::GetMetaRequest{id});
  std::vector<common::ProviderId> reps = replicas_of(id);
  Status last = Status::NotFound("model " + id.to_string());
  for (size_t i = 0; i < reps.size(); ++i) {
    if (i > 0) {
      ++fault_stats_.read_failovers;
      if (obs::EventLog* ev = events()) {
        ev->record(rpc_->simulation().now(), "read.failover", self_,
                   {{"model", id.to_string()},
                    {"from", obs::EventLog::u64(reps[i - 1])},
                    {"to", obs::EventLog::u64(reps[i])}});
      }
    }
    auto r = co_await call_encoded<wire::GetMetaResponse>(
        provider_node(reps[i]), Provider::kGetMeta, request, parent);
    if (!r.ok()) {
      // Exhausted retries on this replica: the next one may still answer.
      // Non-retryable failures signal bugs, not faults, and propagate.
      if (!common::is_retryable(r.status().code())) co_return r.status();
      last = r.status();
      continue;
    }
    if (!r->found) {
      // Keep probing: this replica may have been rebuilt after data loss
      // (or be lagging a repair) — "gone" is only believable when every
      // reachable replica agrees.
      last = Status::NotFound("model " + id.to_string());
      continue;
    }
    ModelMeta meta;
    wire::move_meta(meta, r.value());
    if (obs::EventLog* ev = events()) {
      // `replicas` lets the analyzer assert no read was ever served by a
      // node outside the model's replica set (a placement-routing bug).
      ev->record(rpc_->simulation().now(), "read.served", self_,
                 {{"model", id.to_string()},
                  {"provider", obs::EventLog::u64(reps[i])},
                  {"rank", obs::EventLog::u64(i)},
                  {"replicas", id_list(reps)}});
    }
    co_return meta;
  }
  co_return finish_op(last);
}

sim::CoTask<Result<wire::ReadSegmentsResponse>> Client::read_one(
    NodeId to, Encoded request, size_t keys, int attempt, obs::Span* span) {
  // Reads are naturally idempotent, so the attempt loop retries the RPC and
  // the payload pull as one unit, without tokens.
  span->tag_u64("attempt", static_cast<uint64_t>(attempt));
  span->tag_u64("keys", keys);
  auto r = co_await net::typed_call_encoded<wire::ReadSegmentsResponse>(
      rpc_, self_, to, Provider::kReadSegments, *request,
      net::CallOptions{config_.rpc_timeout, span->context()});
  Status st = r.ok() ? r->status : r.status();
  if (st.ok()) {
    // RDMA-style payload pull: charge the bulk bytes provider -> client
    // (post-compression — reading a delta chain moves only the deltas).
    st = co_await rpc_->bulk(to, self_,
                             common::Buffer::synthetic(r->payload_bytes, 0));
  }
  if (!st.ok()) co_return st;
  span->tag("outcome", "ok");
  span->tag_u64("payload_bytes", r->payload_bytes);
  span->end();
  co_return std::move(r).value();
}

sim::CoTask<Result<wire::PeerReadResponse>> Client::peer_one(
    NodeId to, wire::PeerReadRequest req, obs::TraceContext parent) {
  obs::Span span =
      obs::Tracer::maybe_begin(tracer(), "peer_read", self_, parent);
  span.tag_u64("peer_node", to);
  span.tag_u64("keys", req.keys.size());
  auto r = co_await net::typed_call<wire::PeerReadResponse>(
      rpc_, self_, to, kPeerRead, req,
      net::CallOptions{config_.rpc_timeout, span.context()});
  Status st = r.ok() ? r->status : r.status();
  if (r.ok() && st.ok() && r->payload_bytes > 0) {
    st = co_await rpc_->bulk(to, self_,
                             common::Buffer::synthetic(r->payload_bytes, 0));
  }
  if (!st.ok()) {
    span.tag("outcome", st.to_string());
    co_return st;
  }
  span.tag("outcome", "ok");
  span.tag_u64("payload_bytes", r->payload_bytes);
  co_return std::move(r).value();
}

sim::CoTask<wire::PeerReadResponse> Client::handle_peer_read(
    wire::PeerReadRequest req, net::HandlerContext ctx) {
  obs::Span span =
      obs::Tracer::maybe_begin(tracer(), "peer_serve", self_, ctx.trace);
  wire::PeerReadResponse resp;
  uint64_t served = 0;
  resp.found.reserve(req.keys.size());
  for (size_t i = 0; i < req.keys.size(); ++i) {
    const uint64_t want = i < req.versions.size() ? req.versions[i] : 0;
    const cache::SegmentCache::Entry* e =
        cache_ != nullptr ? cache_->lookup(req.keys[i]) : nullptr;
    if (e != nullptr && want != 0 && e->version == want) {
      resp.found.push_back(1);
      resp.payload_bytes += e->envelope.physical_bytes;
      resp.segments.push_back(e->envelope);
      ++served;
    } else {
      resp.found.push_back(0);
    }
  }
  resp.status = Status::Ok();
  span.tag("outcome", "ok");
  span.tag_u64("served", served);
  span.tag_u64("missed", req.keys.size() - served);
  if (obs::EventLog* ev = events()) {
    ev->record(rpc_->simulation().now(), "cache.peer_serve", self_,
               {{"served", obs::EventLog::u64(served)},
                {"missed", obs::EventLog::u64(req.keys.size() - served)}});
  }
  co_return resp;
}

sim::CoTask<Status> Client::fetch_envelopes(
    // NOLINTNEXTLINE(cppcoreguidelines-avoid-reference-coroutine-parameters)
    const std::vector<common::SegmentKey>& keys,
    std::unordered_map<common::SegmentKey, CompressedSegment>* out,
    obs::TraceContext parent) {
  const double now = rpc_->simulation().now();
  auto& sim = rpc_->simulation();
  // Phase 1 — serve trusted cache entries locally; everything else goes to
  // the providers. A cached-but-untrusted entry travels as its version: the
  // provider can then answer kNotModified instead of shipping payload.
  std::vector<common::SegmentKey> todo;
  ValidatedRound round;
  uint64_t trusted_hits = 0;
  for (const auto& key : keys) {
    if (out->count(key) != 0) continue;
    const cache::SegmentCache::Entry* e =
        cache_ != nullptr ? cache_->lookup(key) : nullptr;
    if (e != nullptr && cache_->trusted(*e, now)) {
      cache_->count_hit(e->envelope.physical_bytes);
      ++trusted_hits;
      out->emplace(key, e->envelope);
      continue;
    }
    if (cache_ != nullptr) {
      round.versions.emplace(key, e != nullptr ? e->version : 0);
    }
    todo.push_back(key);
  }
  if (trusted_hits > 0) {
    if (obs::EventLog* ev = events()) {
      ev->record(now, "cache.trusted", self_,
                 {{"hits", obs::EventLog::u64(trusted_hits)}});
    }
  }
  // Phase 2 — the validated provider round: fresh envelopes fill the cache,
  // NotModified serves the revalidated cached copy, redirects queue a peer
  // fetch.
  Status st = co_await read_rounds(std::move(todo), &round, out, parent);
  if (!st.ok()) co_return st;
  // Phase 3 — chase redirect hints to peer caches. The hint is best-effort:
  // a crashed, cold, or version-skewed peer demotes the key to the provider
  // fallback. A peer-served envelope is provider-validated transitively (the
  // redirect named its exact current version and the peer matched it).
  if (!round.redirects.empty()) {
    auto legs = spawn_legs<Result<wire::PeerReadResponse>>(
        targets_of(round.redirects), [&](NodeId peer) {
          return peer_one(peer, round.redirects[peer], parent);
        });
    for (size_t i = 0; i < legs.targets.size(); ++i) {
      auto r = co_await std::move(legs.futures[i]);
      const wire::PeerReadRequest& preq = round.redirects[legs.targets[i]];
      uint64_t peer_hits = 0;
      uint64_t peer_misses = 0;
      if (!r.ok() || !r->status.ok() ||
          r->found.size() != preq.keys.size()) {
        for (const auto& key : preq.keys) {
          cache_->count_peer_miss();
          ++peer_misses;
          round.fallback.push_back(key);
        }
      } else {
        size_t seg_idx = 0;
        for (size_t j = 0; j < preq.keys.size(); ++j) {
          if (r->found[j] != 0 && seg_idx < r->segments.size()) {
            CompressedSegment env = std::move(r->segments[seg_idx++]);
            cache_->count_peer_hit();
            ++peer_hits;
            cache_->insert(preq.keys[j], env, preq.versions[j], sim.now());
            out->emplace(preq.keys[j], std::move(env));
          } else {
            cache_->count_peer_miss();
            ++peer_misses;
            round.fallback.push_back(preq.keys[j]);
          }
        }
      }
      if (obs::EventLog* ev = events()) {
        ev->record(sim.now(), "cache.peer", self_,
                   {{"peer", obs::EventLog::u64(legs.targets[i])},
                    {"hits", obs::EventLog::u64(peer_hits)},
                    {"misses", obs::EventLog::u64(peer_misses)}});
      }
    }
  }
  // Phase 4 — provider re-fetch for everything the optimistic paths missed
  // (evicted cache entries, cold or dead redirect peers): the same round
  // without cached versions or redirects, so providers answer kFresh only.
  // It still fails over down each key's replica set, so a redirect that
  // named a now-dead peer never strands the read on an equally dead owner.
  co_return co_await read_rounds(std::move(round.fallback), nullptr, out,
                                 parent);
}

sim::CoTask<Status> Client::read_rounds(
    std::vector<common::SegmentKey> keys, ValidatedRound* validation,
    std::unordered_map<common::SegmentKey, CompressedSegment>* out,
    obs::TraceContext parent) {
  auto& sim = rpc_->simulation();
  const bool validated = validation != nullptr;
  // Reads are striped: attempt `a` of a key goes to replica
  // (vertex + a) mod |R| of its owner's replica set R, so a model's segments
  // come out of every replica's pool at once. The choice is a pure function
  // of the key and the membership view, so a client always validates a key
  // at the same replica (cache versions are per-provider; DESIGN.md §15).
  std::unordered_map<common::SegmentKey, size_t> attempt;
  std::vector<common::SegmentKey> todo;
  for (const auto& key : keys) {
    if (attempt.emplace(key, 0).second) todo.push_back(key);
  }
  // Keys group by their current replica choice. A group whose replica
  // fails retryably — or answers NotFound, which a freshly rebuilt replica
  // briefly does — requeues its keys at each key's NEXT replica; only a key
  // that exhausts its whole replica set fails the read.
  while (!todo.empty()) {
    std::map<common::ProviderId, wire::ReadSegmentsRequest> groups;
    for (const auto& key : todo) {
      const std::vector<common::ProviderId> reps = replicas_of(key.owner);
      auto& req = groups[reps[(key.vertex + attempt[key]) % reps.size()]];
      req.keys.push_back(key);
      if (validated && cache_ != nullptr) {
        req.cached_versions.push_back(validation->versions[key]);
      }
    }
    todo.clear();
    // One read leg per group: the attempt loop over read_one, every attempt
    // sending the group's one encoding.
    auto legs = spawn_legs<Result<wire::ReadSegmentsResponse>>(
        targets_of(groups), [&](common::ProviderId provider) {
          wire::ReadSegmentsRequest& req = groups[provider];
          if (cache_ != nullptr) {
            req.reader_node = self_;
            req.caching = true;
            req.accept_redirect = validated;
          }
          return attempt_loop<Result<wire::ReadSegmentsResponse>>(
              "read_attempt", config_.retry.max_attempts, "exhausted: ",
              parent,
              [this, to = provider_node(provider), request = encode_once(req),
               keys = req.keys.size()](int n, obs::Span* span) {
                return read_one(to, request, keys, n, span);
              });
        });
    for (size_t i = 0; i < legs.targets.size(); ++i) {
      auto r = co_await std::move(legs.futures[i]);
      const common::ProviderId provider = legs.targets[i];
      const std::vector<common::SegmentKey>& group = groups[provider].keys;
      if (!r.ok()) {
        // Drop the group's cache entries — they may be the reason the
        // answer is gone — then fail the keys over to their next replicas.
        if (cache_ != nullptr) {
          for (const auto& key : group) cache_->invalidate(key);
        }
        Status st = r.status();
        if (!common::is_retryable(st.code()) &&
            st.code() != common::ErrorCode::kNotFound) {
          co_return st;
        }
        if (obs::EventLog* ev = events()) {
          // Aggregated: one event per failed group, not per key, so a large
          // fan-out can never flood the ring with identical failovers.
          ev->record(sim.now(), "read.failover", self_,
                     {{"from", obs::EventLog::u64(provider)},
                      {"keys", obs::EventLog::u64(group.size())},
                      {"error", st.to_string()}});
        }
        for (const auto& key : group) {
          size_t next = ++attempt[key];
          if (next >= replicas_of(key.owner).size()) co_return st;
          ++fault_stats_.read_failovers;
          // Versions are per-provider store sequences: the next replica
          // cannot validate this one's.
          if (validated) validation->versions[key] = 0;
          todo.push_back(key);
        }
        continue;
      }
      auto& resp = r.value();
      if (resp.info.size() != group.size()) {
        co_return Status::Internal("info count mismatch in read fan-out");
      }
      uint64_t nm_count = 0;
      uint64_t redirect_count = 0;
      size_t fresh_idx = 0;
      for (size_t j = 0; j < group.size(); ++j) {
        const common::SegmentKey& key = group[j];
        const wire::ReadEntryInfo& info = resp.info[j];
        if (!validated && info.state != wire::ReadEntryState::kFresh) {
          co_return Status::Internal("non-fresh entry in read fallback");
        }
        switch (info.state) {
          case wire::ReadEntryState::kFresh: {
            if (fresh_idx >= resp.segments.size()) {
              co_return Status::Internal(
                  "segment count mismatch in read fan-out");
            }
            CompressedSegment env = std::move(resp.segments[fresh_idx++]);
            if (cache_ != nullptr) {
              cache_->count_miss();
              cache_->insert(key, env, info.version, sim.now());
            }
            out->emplace(key, std::move(env));
            break;
          }
          case wire::ReadEntryState::kNotModified: {
            ++nm_count;
            const cache::SegmentCache::Entry* e =
                cache_ != nullptr ? cache_->lookup(key) : nullptr;
            if (e != nullptr &&
                cache_->revalidate(key, info.version, sim.now())) {
              cache_->count_revalidation(e->envelope.physical_bytes);
              out->emplace(key, e->envelope);
            } else {
              validation->fallback.push_back(key);
            }
            break;
          }
          case wire::ReadEntryState::kRedirect: {
            ++redirect_count;
            auto& preq = validation->redirects[info.redirect];
            preq.keys.push_back(key);
            preq.versions.push_back(info.version);
            break;
          }
        }
      }
      // The fallback round validates nothing, so it has no lookup to report.
      obs::EventLog* ev = validated ? events() : nullptr;
      if (ev != nullptr) {
        ev->record(sim.now(), "cache.lookup", self_,
                   {{"provider", obs::EventLog::u64(provider)},
                    {"fresh", obs::EventLog::u64(fresh_idx)},
                    {"not_modified", obs::EventLog::u64(nm_count)},
                    {"redirect", obs::EventLog::u64(redirect_count)}});
      }
    }
  }
  co_return Status::Ok();
}

sim::CoTask<Result<std::vector<Segment>>> Client::read_segments(
    const OwnerMap* owners, std::vector<VertexId> vertices,
    obs::TraceContext parent) {
  obs::Span span =
      obs::Tracer::maybe_begin(tracer(), "read_segments", self_, parent);
  span.tag_u64("vertices", vertices.size());
  double t0 = rpc_->simulation().now();
  std::vector<common::SegmentKey> roots;
  roots.reserve(vertices.size());
  for (VertexId v : vertices) roots.push_back(owners->entry(v));

  // Fetch the requested envelopes, then chase unresolved delta bases round
  // by round: each round is one parallel fan-out, so a chain of depth k
  // costs k rounds, not k round trips per segment.
  std::unordered_map<common::SegmentKey, CompressedSegment> envelopes;
  std::vector<common::SegmentKey> frontier = roots;
  while (!frontier.empty()) {
    Status st = co_await fetch_envelopes(frontier, &envelopes, span.context());
    if (!st.ok()) co_return finish_op(st);
    std::unordered_set<common::SegmentKey> next;
    for (const auto& [key, env] : envelopes) {
      if (env.has_base && envelopes.count(env.base) == 0) {
        next.insert(env.base);
      }
    }
    frontier.assign(next.begin(), next.end());
  }

  // Decode memoized, resolving each envelope's base first via an explicit
  // stack (delta chains can be deep; no recursion).
  obs::Span decode =
      obs::Tracer::maybe_begin(tracer(), "decode", self_, span.context());
  std::unordered_map<common::SegmentKey, Segment> decoded;
  for (const auto& root : roots) {
    std::vector<common::SegmentKey> stack{root};
    while (!stack.empty()) {
      if (stack.size() > envelopes.size() + 1) {
        co_return Status::Corruption("delta dependency cycle");
      }
      common::SegmentKey key = stack.back();
      if (decoded.count(key) != 0) {
        stack.pop_back();
        continue;
      }
      const auto& env = envelopes.at(key);
      if (env.has_base && decoded.count(env.base) == 0) {
        stack.push_back(env.base);
        continue;
      }
      const Segment* base = env.has_base ? &decoded.at(env.base) : nullptr;
      auto seg = compress::decompress_segment(env, base, &codec_stats_);
      if (!seg.ok()) co_return seg.status();
      decoded.emplace(key, std::move(seg).value());
      stack.pop_back();
    }
  }

  decode.tag_u64("envelopes", envelopes.size());
  decode.tag_u64("decoded", decoded.size());
  decode.end();

  std::vector<Segment> out;
  out.reserve(vertices.size());
  for (VertexId v : vertices) out.push_back(decoded.at(owners->entry(v)));
  if (hist_read_seconds_ != nullptr) {
    hist_read_seconds_->add(rpc_->simulation().now() - t0);
  }
  co_return out;
}

sim::CoTask<Result<Model>> Client::get_model(ModelId id) {
  obs::Span span = obs::Tracer::maybe_begin(tracer(), "get_model", self_);
  span.tag("model", id.to_string());
  auto meta = co_await get_meta(id, span.context());
  if (!meta.ok()) co_return meta.status();
  std::vector<VertexId> all(meta->graph.size());
  for (VertexId v = 0; v < all.size(); ++v) all[v] = v;
  auto segments =
      co_await read_segments(&meta->owners, all, span.context());
  if (!segments.ok()) co_return segments.status();
  Model m(id, std::move(meta->graph));
  m.set_quality(meta->quality);
  for (VertexId v = 0; v < all.size(); ++v) {
    m.segment(v) = std::move(segments.value()[v]);
  }
  co_return m;
}

sim::CoTask<Result<Model>> Client::get_model_via_chain(ModelId id) {
  auto meta = co_await get_meta(id);
  if (!meta.ok()) co_return meta.status();
  Model m(id, meta->graph);
  m.set_quality(meta->quality);
  // The leaf's owner map stands in for the per-level diff records a
  // chain-based design would store; what this path deliberately does NOT do
  // is exploit it for one-shot parallel reads — each lineage level costs its
  // own metadata round trip and its own read round, as in the naive scheme.
  const OwnerMap& owners = meta->owners;
  ModelId cur = id;
  size_t remaining = m.vertex_count();
  while (cur.valid() && remaining > 0) {
    ModelMeta level;
    if (cur == id) {
      level = *meta;
    } else {
      auto r = co_await get_meta(cur);
      if (!r.ok()) co_return r.status();
      level = std::move(r).value();
    }
    std::vector<common::VertexId> mine;
    for (common::VertexId v = 0; v < owners.size(); ++v) {
      if (owners.entry(v).owner == cur) mine.push_back(v);
    }
    if (!mine.empty()) {
      auto segs = co_await read_segments(&owners, mine);
      if (!segs.ok()) co_return segs.status();
      for (size_t i = 0; i < mine.size(); ++i) {
        m.segment(mine[i]) = std::move(segs.value()[i]);
      }
      remaining -= mine.size();
    }
    cur = level.ancestor;
  }
  if (remaining > 0) {
    co_return Status::NotFound(
        "chain reconstruction incomplete: an ancestor was retired");
  }
  co_return m;
}

sim::CoTask<Result<std::optional<TransferContext>>> Client::prepare_transfer(
    // NOLINTNEXTLINE(cppcoreguidelines-avoid-reference-coroutine-parameters)
    const ArchGraph& g, bool fetch_payload) {
  obs::Span span =
      obs::Tracer::maybe_begin(tracer(), "prepare_transfer", self_);
  auto q = co_await query_lcp(g, span.context());
  if (!q.ok()) co_return q.status();
  if (!q->found) co_return std::optional<TransferContext>{};
  auto meta = co_await get_meta(q->ancestor, span.context());
  if (!meta.ok()) {
    if (meta.status().code() == common::ErrorCode::kNotFound) {
      // The ancestor was retired between the query and the read; treat as
      // "no ancestor" (the caller trains from scratch).
      co_return std::optional<TransferContext>{};
    }
    co_return meta.status();
  }
  TransferContext tc;
  tc.ancestor = q->ancestor;
  tc.ancestor_quality = q->quality;
  tc.matches = std::move(q->matches);
  tc.ancestor_owners = std::move(meta->owners);

  // Pin the prefix segments so a concurrent retirement of the ancestor (or
  // of the original owners along its lineage) cannot free them while this
  // transfer trains. The pin later becomes the derived model's reference.
  std::vector<common::SegmentKey> pin_keys;
  pin_keys.reserve(tc.matches.size());
  for (auto [gv, av] : tc.matches) {
    (void)gv;
    pin_keys.push_back(tc.ancestor_owners.entry(av));
  }
  uint32_t missing = 0;
  std::vector<common::SegmentKey> applied;
  Status pin_status = co_await modify_refs(pin_keys, /*increment=*/true,
                                           &missing, &applied, span.context(),
                                           config_.token_epoch);
  if (!pin_status.ok() || missing > 0) {
    // Either lost the race with a retire mid-pin (missing > 0), or a
    // provider stayed unreachable through the retry budget. Roll back only
    // the increments that were ACKNOWLEDGED — unacked groups were
    // deduplicated provider-side and never double-apply, but decrementing
    // them here would underflow a count we never raised. Then degrade to
    // training from scratch (correct, just slower). Non-retryable pin
    // failures still propagate: they signal bugs, not faults.
    if (!pin_status.ok() && !common::is_retryable(pin_status.code())) {
      co_return pin_status;
    }
    if (!applied.empty()) {
      uint32_t rollback_missing = 0;
      (void)co_await modify_refs(std::move(applied), /*increment=*/false,
                                 &rollback_missing, nullptr, span.context(),
                                 config_.token_epoch);
    }
    if (!pin_status.ok()) ++fault_stats_.degraded_transfers;
    co_return std::optional<TransferContext>{};
  }
  tc.pinned = true;

  if (fetch_payload) {
    std::vector<VertexId> ancestor_vertices;
    ancestor_vertices.reserve(tc.matches.size());
    for (auto [gv, av] : tc.matches) {
      (void)gv;
      ancestor_vertices.push_back(av);
    }
    auto segs = co_await read_segments(&tc.ancestor_owners,
                                       std::move(ancestor_vertices),
                                       span.context());
    if (!segs.ok()) {
      (void)co_await modify_refs(std::move(pin_keys), /*increment=*/false,
                                 &missing, nullptr, span.context(),
                                 config_.token_epoch);
      co_return segs.status();
    }
    tc.prefix_segments = std::move(segs).value();
  }
  co_return std::optional<TransferContext>(std::move(tc));
}

// NOLINTNEXTLINE(cppcoreguidelines-avoid-reference-coroutine-parameters)
sim::CoTask<Status> Client::abandon_transfer(const TransferContext& tc) {
  if (!tc.pinned) co_return Status::Ok();
  std::vector<common::SegmentKey> keys;
  keys.reserve(tc.matches.size());
  for (auto [gv, av] : tc.matches) {
    (void)gv;
    keys.push_back(tc.ancestor_owners.entry(av));
  }
  co_return finish_op(co_await modify_refs(std::move(keys),
                                           /*increment=*/false, nullptr,
                                           nullptr, {}, config_.token_epoch));
}

// ---- retire ----------------------------------------------------------------

sim::CoTask<Status> Client::retire(ModelId id) {
  obs::Span span = obs::Tracer::maybe_begin(tracer(), "retire", self_);
  span.tag("model", id.to_string());
  // Tokened: a retry whose first delivery already removed the model replays
  // the cached owner map instead of answering NotFound (which would leak
  // every refcount the fan-out below is about to release). The same token
  // fans to every replica — each removes its copy of the metadata once.
  const Encoded request = encode_once(wire::RetireRequest{id, next_token()});
  Legs<Result<wire::RetireResponse>> legs =
      spawn_legs<Result<wire::RetireResponse>>(
          replicas_of(id), [&](common::ProviderId p) {
            return call_encoded<wire::RetireResponse>(
                provider_node(p), Provider::kRetire, request, span.context());
          });
  std::vector<Result<wire::RetireResponse>> outcomes =
      co_await await_legs(legs);
  std::optional<OwnerMap> owners;
  Status status;
  uint64_t missed = 0;
  for (auto& r : outcomes) {
    Status st = r.ok() ? r->status : r.status();
    if (r.ok() && st.ok()) {
      // Any replica's owner map will do — they hold identical copies.
      if (!owners.has_value()) owners.emplace(std::move(r->owners));
      continue;
    }
    status = combine(status, st);
    if (!r.ok() && common::is_retryable(r.status().code())) ++missed;
    // A NotFound from one replica is tolerated as long as another found the
    // model (a rebuilt replica may briefly lag its peers).
  }
  if (!owners.has_value()) co_return finish_op(status);
  if (obs::EventLog* ev = events()) {
    ev->record(rpc_->simulation().now(), "gc.retire", self_,
               {{"model", id.to_string()},
                {"missed", obs::EventLog::u64(missed)}});
  }
  // Park the retire on a custodian for each unreachable replica: its copy
  // of the metadata must eventually go, or a failover read would resurrect
  // a retired model. Best-effort, like a put's hint.
  (void)co_await hint_failed_legs(
      Provider::kRetire, legs.targets, &outcomes,
      [&request](size_t) -> const Encoded& { return request; },
      span.context());
  // Drop every cached segment the retired model contributed — the bytes may
  // be freed the moment the decrements below land, and a later model reusing
  // the key must never be answered from this copy.
  if (cache_ != nullptr) {
    for (const auto& entry : owners->entries()) cache_->invalidate(entry);
  }
  // Decrement every tensor the retired model referenced — its own segments
  // and the inherited ones alike (O(k), k = leaf layers). modify_refs fans
  // each logical decrement to every replica internally.
  co_return finish_op(co_await modify_refs(owners->entries(),
                                           /*increment=*/false, nullptr,
                                           nullptr, span.context()));
}

// ---- stats -----------------------------------------------------------------

sim::CoTask<Result<Client::ClusterStats>> Client::collect_stats() {
  const Encoded request = encode_once(wire::StatsRequest{});
  auto legs = spawn_legs<Result<wire::StatsResponse>>(
      provider_nodes_, [&](NodeId node) {
        return call_encoded<wire::StatsResponse>(node, Provider::kGetStats,
                                                 request);
      });
  ClusterStats out;
  out.per_provider.reserve(legs.futures.size());
  for (auto& f : legs.futures) {
    auto r = co_await std::move(f);
    if (!r.ok()) co_return finish_op(r.status());
    if (!r->status.ok()) co_return r->status;
    out.per_provider.push_back(std::move(r).value());
  }
  out.totals = wire::merge_stats(out.per_provider);
  co_return out;
}

// ---- provenance ------------------------------------------------------------

sim::CoTask<Result<std::vector<ModelId>>> Client::lineage(ModelId id) {
  std::vector<ModelId> chain;
  ModelId cur = id;
  while (cur.valid()) {
    auto meta = co_await get_meta(cur);
    if (!meta.ok()) {
      if (!chain.empty() &&
          meta.status().code() == common::ErrorCode::kNotFound) {
        break;  // ancestor already retired; chain ends here
      }
      co_return meta.status();
    }
    chain.push_back(cur);
    cur = meta->ancestor;
  }
  co_return chain;
}

sim::CoTask<Result<std::vector<Client::Contribution>>> Client::contributions(
    ModelId id) {
  auto meta = co_await get_meta(id);
  if (!meta.ok()) co_return meta.status();
  std::vector<Contribution> out;
  for (auto& [owner, pairs] : meta->owners.by_owner()) {
    Contribution c;
    c.owner = owner;
    for (auto [local_v, owner_v] : pairs) {
      (void)owner_v;
      c.vertices.push_back(local_v);
    }
    if (owner == id) {
      c.store_time = meta->store_time;
    } else {
      auto owner_meta = co_await get_meta(owner);
      c.store_time = owner_meta.ok() ? owner_meta->store_time : 0.0;
    }
    out.push_back(std::move(c));
  }
  std::sort(out.begin(), out.end(), [](const Contribution& a,
                                       const Contribution& b) {
    if (a.store_time != b.store_time) return a.store_time > b.store_time;
    return a.owner < b.owner;
  });
  co_return out;
}

sim::CoTask<Result<ModelId>> Client::most_recent_common_ancestor(ModelId a,
                                                                 ModelId b) {
  auto meta_a = co_await get_meta(a);
  if (!meta_a.ok()) co_return meta_a.status();
  auto meta_b = co_await get_meta(b);
  if (!meta_b.ok()) co_return meta_b.status();
  auto ca = meta_a->owners.contributors();
  auto cb = meta_b->owners.contributors();
  std::sort(ca.begin(), ca.end());
  std::sort(cb.begin(), cb.end());
  std::vector<ModelId> common_owners;
  std::set_intersection(ca.begin(), ca.end(), cb.begin(), cb.end(),
                        std::back_inserter(common_owners));
  if (common_owners.empty()) {
    co_return Status::NotFound("no common ancestor");
  }
  ModelId best;
  double best_time = -1;
  for (ModelId c : common_owners) {
    double t = 0.0;
    if (c == a) {
      t = meta_a->store_time;
    } else if (c == b) {
      t = meta_b->store_time;
    } else {
      auto meta_c = co_await get_meta(c);
      t = meta_c.ok() ? meta_c->store_time : 0.0;
    }
    if (t > best_time || (t == best_time && c < best)) {
      best = c;
      best_time = t;
    }
  }
  co_return best;
}

}  // namespace evostore::core
