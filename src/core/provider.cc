#include "core/provider.h"

#include <algorithm>

#include "common/log.h"
#include "core/lcp.h"
#include "core/placement.h"

namespace evostore::core {

using common::Bytes;
using common::ModelId;
using common::Status;

namespace {

// The first `n` entries of a wire ring view (1 = live) as a placement mask.
std::vector<bool> live_mask(const std::vector<uint8_t>& view, size_t n) {
  std::vector<bool> live(n, false);
  for (size_t i = 0; i < n; ++i) live[i] = view[i] != 0;
  return live;
}

}  // namespace

Provider::Provider(net::RpcSystem& rpc, common::NodeId node,
                   common::ProviderId id, ProviderConfig config,
                   storage::KvStore* backend)
    : sim_(&rpc.simulation()),
      rpc_(&rpc),
      flows_(&rpc.fabric().flows()),
      node_(node),
      id_(id),
      config_(config),
      records_(backend),
      chunk_store_(backend) {
  if (config_.pool_bandwidth > 0) {
    pool_port_ = flows_->add_port(config_.pool_bandwidth,
                                  "pool" + std::to_string(id));
    pool_enabled_ = true;
  }
  hist_put_seconds_ = metrics_.histogram("put.seconds");
  hist_put_bytes_ = metrics_.histogram("put.physical_bytes");
  hist_read_seconds_ = metrics_.histogram("read.seconds");
  hist_read_bytes_ = metrics_.histogram("read.physical_bytes");
  hist_lcp_seconds_ = metrics_.histogram("lcp.seconds");
  hist_refs_seconds_ = metrics_.histogram("refs.seconds");
  hist_chunk_bytes_ = metrics_.histogram("chunk.payload_bytes");
  if (records_.attached()) restore_from_backend();
  register_handlers(rpc);
}

void Provider::pin_add(uint64_t epoch, const common::SegmentKey& key) {
  PinKey pin{epoch, key};
  uint32_t count = ++pins_[pin];
  ++stats_.pins_recorded;
  records_.put(kPinRecord, pin, count);
}

void Provider::pin_remove(uint64_t epoch, const common::SegmentKey& key) {
  auto it = pins_.find(PinKey{epoch, key});
  if (it == pins_.end()) return;
  if (--it->second > 0) {
    records_.put(kPinRecord, it->first, it->second);
    return;
  }
  records_.erase(kPinRecord, it->first);
  pins_.erase(it);
}

void Provider::account_stored(const compress::CompressedSegment& env,
                              int dir) {
  size_t idx = compress::codec_index(env.codec);
  // The per-codec table and physical_bytes_ charge the envelope's full
  // codec-output size whatever its storage kind — the pre-dedup view that
  // isolates what compression achieved. Only inline_physical_bytes_ splits
  // by kind: chunked envelopes' at-rest cost lives in the chunk store.
  bool is_inline = env.kind == compress::EnvelopeKind::kInline;
  if (dir > 0) {
    payload_bytes_ += env.logical_bytes;
    physical_bytes_ += env.physical_bytes;
    if (is_inline) inline_physical_bytes_ += env.physical_bytes;
    ++codec_usage_[idx].segments;
    codec_usage_[idx].logical_bytes += env.logical_bytes;
    codec_usage_[idx].physical_bytes += env.physical_bytes;
  } else {
    payload_bytes_ -= env.logical_bytes;
    physical_bytes_ -= env.physical_bytes;
    if (is_inline) inline_physical_bytes_ -= env.physical_bytes;
    --codec_usage_[idx].segments;
    codec_usage_[idx].logical_bytes -= env.logical_bytes;
    codec_usage_[idx].physical_bytes -= env.physical_bytes;
  }
}

// ---- chunk dedup (DESIGN.md §13) ----------------------------------------

void Provider::maybe_chunk(compress::CompressedSegment& env) {
  if (!config_.chunking || !config_.chunker.valid()) return;
  if (env.kind != compress::EnvelopeKind::kInline) return;
  if (env.payload.size() < config_.chunker.min_bytes) return;
  std::span<const std::byte> payload(env.payload);
  std::vector<size_t> ends =
      compress::chunk_boundaries(payload, config_.chunker);
  const uint64_t physical = env.physical_bytes;
  const uint64_t total = payload.size();
  env.chunks.reserve(ends.size());
  size_t start = 0;
  uint64_t dedup_hits = 0;
  for (size_t end : ends) {
    std::span<const std::byte> piece = payload.subspan(start, end - start);
    common::Hash128 digest = common::hash128_bytes(piece);
    // Proportional share of the envelope's modeled physical cost; the
    // telescoping floors make per-envelope chunk costs sum to exactly
    // env.physical_bytes, so dedup-free accounting is unchanged.
    uint64_t cost = physical * end / total - physical * start / total;
    if (!chunk_store_.add_ref(digest, piece, cost)) ++dedup_hits;
    hist_chunk_bytes_->add(static_cast<double>(piece.size()));
    env.chunks.push_back(
        compress::ChunkRef{digest, static_cast<uint32_t>(piece.size())});
    start = end;
  }
  if (dedup_hits > 0) {
    if (obs::EventLog* ev = events()) {
      // Aggregated per envelope, not per chunk, to bound event volume.
      ev->record(sim_->now(), "dedup.hit", node_,
                 {{"chunks", obs::EventLog::u64(dedup_hits)},
                  {"of", obs::EventLog::u64(ends.size())}});
    }
  }
  env.kind = compress::EnvelopeKind::kChunked;
  env.payload.clear();
  env.payload.shrink_to_fit();
}

common::Result<compress::CompressedSegment> Provider::reassemble(
    const compress::CompressedSegment& env) const {
  if (env.kind == compress::EnvelopeKind::kInline) return env;
  compress::CompressedSegment out = env;
  out.kind = compress::EnvelopeKind::kInline;
  out.chunks.clear();
  out.payload.reserve(env.manifest_bytes());
  for (const compress::ChunkRef& c : env.chunks) {
    const storage::ChunkStore::Chunk* chunk = chunk_store_.find(c.digest);
    if (chunk == nullptr || chunk->bytes.size() != c.bytes) {
      return Status::Corruption("chunk " + c.digest.hex() +
                                " missing or resized");
    }
    out.payload.insert(out.payload.end(), chunk->bytes.begin(),
                       chunk->bytes.end());
  }
  return out;
}

void Provider::release_chunks(const compress::CompressedSegment& env) {
  for (const compress::ChunkRef& c : env.chunks) {
    chunk_store_.release(c.digest);
  }
}

bool Provider::reference_chunks(
    const compress::CompressedSegment& env,
    const std::map<common::Hash128, wire::ChunkBodyEntry>* fetched) {
  size_t taken = 0;
  for (const compress::ChunkRef& c : env.chunks) {
    if (!chunk_store_.add_ref_existing(c.digest)) {
      if (fetched == nullptr) break;
      auto fit = fetched->find(c.digest);
      if (fit == fetched->end()) break;
      std::span<const std::byte> body(fit->second.bytes);
      chunk_store_.add_ref(c.digest, body, fit->second.cost);
    }
    ++taken;
  }
  if (taken == env.chunks.size()) return true;
  for (size_t i = 0; i < taken; ++i) chunk_store_.release(env.chunks[i].digest);
  return false;
}

bool Provider::release_ref(const common::SegmentKey& key,
                           uint64_t* freed_bytes,
                           std::vector<common::SegmentKey>* freed_bases) {
  auto it = segments_.find(key);
  if (it == segments_.end()) return false;
  ++stats_.refs_removed;
  if (--it->second.refs <= 0) {
    const auto& env = it->second.segment;
    *freed_bytes += env.logical_bytes;
    // A freed delta envelope releases the reference it held on its base;
    // the caller decrements that key next (cascading down the chain).
    if (env.has_base) freed_bases->push_back(env.base);
    // A freed chunked envelope releases its manifest's chunk references;
    // each chunk dies only when no other segment's manifest names it.
    release_chunks(env);
    account_stored(env, -1);
    segments_.erase(it);
    records_.erase(kSegRecord, key);
    cache_dir_.erase(key);
    ++stats_.segments_freed;
  } else {
    records_.put(kSegRecord, key, it->second);
  }
  return true;
}

// ---- pin ledger (DESIGN.md §14) -----------------------------------------

void Provider::observe_epoch(uint64_t token) {
  if (token == 0) return;
  uint64_t epoch = token >> 48;
  if (epoch <= last_pin_epoch_) return;
  last_pin_epoch_ = epoch;
  reap_stale_pins(epoch);
}

void Provider::reap_stale_pins(uint64_t current_epoch) {
  uint64_t reaped = 0;
  for (auto it = pins_.begin();
       it != pins_.end() && it->first.first < current_epoch;
       it = pins_.erase(it)) {
    // Release the leaked pins, cascading through locally stored delta
    // bases. A base living on another provider can't be reached from here;
    // its own pin record (if the transfer pinned it) is reaped by that
    // provider when it observes the epoch bump.
    std::vector<common::SegmentKey> frontier(it->second, it->first.second);
    while (!frontier.empty()) {
      common::SegmentKey k = frontier.back();
      frontier.pop_back();
      uint64_t bytes = 0;
      std::vector<common::SegmentKey> bases;
      if (!release_ref(k, &bytes, &bases)) {
        EVO_WARN << "pin reap: segment " << k.to_string()
                 << " not stored locally; skipped";
        continue;
      }
      for (const auto& b : bases) frontier.push_back(b);
    }
    reaped += it->second;
    records_.erase(kPinRecord, it->first);
  }
  if (reaped > 0) {
    stats_.pins_reaped += reaped;
    EVO_INFO << "provider " << id_ << " reaped " << reaped
             << " stale pin(s) from epochs < " << current_epoch;
  }
}

uint64_t Provider::pinned_count(const common::SegmentKey& key) const {
  uint64_t n = 0;
  for (const auto& [pin, count] : pins_) {
    if (pin.second == key) n += count;
  }
  return n;
}

template <typename Response>
std::optional<Response> Provider::dedup_lookup(uint64_t token) {
  if (token == 0) return std::nullopt;
  auto it = dedup_.find(token);
  if (it == dedup_.end()) return std::nullopt;
  ++stats_.deduped_replays;
  // The typed handler re-encodes the decoded response byte for byte.
  common::Deserializer d(it->second);
  Response cached = Response::deserialize(d);
  if (!d.ok()) cached.status = d.status();
  return cached;
}

void Provider::dedup_store(uint64_t token, Bytes response) {
  if (token == 0) return;
  auto [it, fresh] = dedup_.try_emplace(token);
  if (!fresh) return;  // already cached
  dedup_order_.push_back(token);
  std::pair<uint64_t, Bytes> record{++dedup_seq_, std::move(response)};
  records_.put(kTokenRecord, token, record);
  it->second = std::move(record.second);
  while (dedup_order_.size() > kDedupWindow) {
    uint64_t evict = dedup_order_.front();
    dedup_order_.pop_front();
    dedup_.erase(evict);
    records_.erase(kTokenRecord, evict);
  }
}

void Provider::restart() {
  ++stats_.restarts;
  models_.clear();
  lcp_index_.clear();
  share_ = {};
  segments_.clear();
  cache_dir_.clear();
  pins_.clear();
  last_pin_epoch_ = 0;
  dedup_.clear();
  dedup_order_.clear();
  hints_.clear();
  hint_seq_ = 0;
  payload_bytes_ = 0;
  physical_bytes_ = 0;
  inline_physical_bytes_ = 0;
  chunk_store_.clear();
  codec_usage_ = {};
  seq_ = 0;
  dedup_seq_ = 0;
  if (records_.attached()) restore_from_backend();
  if (obs::EventLog* ev = events()) {
    ev->record(sim_->now(), "provider.recover", node_,
               {{"models", obs::EventLog::u64(models_.size())},
                {"segments", obs::EventLog::u64(segments_.size())},
                {"hints", obs::EventLog::u64(hints_.size())}});
  }
  EVO_INFO << "provider " << id_ << " restarted: " << models_.size()
           << " models, " << segments_.size() << " segments recovered";
}

void Provider::restore_from_backend() {
  std::vector<std::string> keys = records_.keys();
  // Chunks first, at zero references: the segment manifests restored below
  // re-reference them. The chunk store takes its records out of `keys`.
  chunk_store_.restore(&keys);
  // (dedup seq, token, cached response), sorted below to rebuild the FIFO.
  std::vector<std::tuple<uint64_t, uint64_t, Bytes>> tokens;
  records_.restore(
      keys,
      // Parked hinted handoffs survive this provider's own crashes: the
      // guarantee is "replayed once the target recovers", not "replayed
      // unless the custodian also crashed in between".
      records::on(kHintRecord, [&](uint64_t seq, wire::HintRecord hint) {
        hint_seq_ = std::max(hint_seq_, seq);
        hints_.emplace(seq, std::move(hint));
        return Status::Ok();
      }),
      records::on(kMetaRecord, [&](ModelId id, ModelMeta meta) {
        seq_ = std::max(seq_, meta.store_seq);
        models_.emplace(id, std::move(meta));
        return Status::Ok();
      }),
      // The ledger survives provider crashes so a client-incarnation bump
      // can still reap pins recorded before the crash.
      records::on(kPinRecord, [&](const PinKey& pin, uint64_t count) {
        if (count == 0) return Status::Corruption("zero pin count");
        pins_[pin] = static_cast<uint32_t>(count);
        return Status::Ok();
      }),
      records::on(kSegRecord, [&](const common::SegmentKey& key,
                                  SegEntry entry) {
        if (compress::codec_for(entry.segment.codec) == nullptr) {
          return Status::Corruption("unknown codec");
        }
        // Versions share the store sequence; segments can outlive their
        // model's metadata (retired model, still-referenced segments), so
        // the sequence restores from both.
        seq_ = std::max(seq_, entry.version);
        // Re-take the manifest's chunk references. A manifest pointing at a
        // chunk whose record did not survive is unreadable: drop it (and its
        // record) rather than restore a segment no read can serve.
        if (entry.segment.kind == compress::EnvelopeKind::kChunked &&
            !reference_chunks(entry.segment, nullptr)) {
          records_.erase(kSegRecord, key);
          return Status::Corruption("references missing chunks; dropped");
        }
        account_stored(entry.segment, +1);
        segments_.emplace(key, std::move(entry));
        return Status::Ok();
      }),
      records::on(kTokenRecord,
                  [&](uint64_t token, std::pair<uint64_t, Bytes> record) {
                    tokens.emplace_back(record.first, token,
                                        std::move(record.second));
                    return Status::Ok();
                  }));
  // Rebuild the idempotency cache in its original FIFO order so a retry
  // arriving after a crash still replays instead of re-applying.
  std::sort(tokens.begin(), tokens.end(),
            [](const auto& a, const auto& b) {
              return std::get<0>(a) < std::get<0>(b);
            });
  for (auto& [at, token, resp] : tokens) {
    dedup_seq_ = std::max(dedup_seq_, at);
    if (dedup_.emplace(token, std::move(resp)).second) {
      dedup_order_.push_back(token);
    }
  }
  // Chunk records whose every referencing manifest died with the crash (the
  // put persisted its chunks but not yet its segment) are orphans: sweep
  // them so the store and the backend reflect only reachable chunks.
  size_t orphans = chunk_store_.drop_unreferenced();
  if (orphans > 0) {
    EVO_INFO << "restore: dropped " << orphans << " orphaned chunk(s)";
  }
  // Rebuild the prefix index from the restored catalog. Like the chunk
  // store it is derived state — never persisted, always reconstructed.
  // model_ids() sorts, so the rebuild inserts in deterministic order.
  if (config_.lcp_index) {
    lcp_index_.clear();
    for (ModelId id : model_ids()) {
      const ModelMeta& meta = models_.at(id);
      lcp_index_.insert(id, meta.quality, meta.graph);
    }
  }
}

sim::CoTask<void> Provider::charge_pool(double bytes) {
  if (!pool_enabled_ || bytes <= 0) co_return;
  std::vector<sim::PortId> path;
  path.push_back(pool_port_);
  co_await flows_->transfer(std::move(path), bytes);
}

void Provider::register_handlers(net::RpcSystem& rpc) {
  using net::register_typed_handler;
  register_typed_handler(rpc, node_, kPutModel, this, &Provider::handle_put);
  register_typed_handler(rpc, node_, kGetMeta, this,
                         &Provider::handle_get_meta);
  register_typed_handler(rpc, node_, kReadSegments, this,
                         &Provider::handle_read_segments);
  register_typed_handler(rpc, node_, kModifyRefs, this,
                         &Provider::handle_modify_refs);
  register_typed_handler(rpc, node_, kRetire, this, &Provider::handle_retire);
  register_typed_handler(rpc, node_, kLcpQuery, this,
                         &Provider::handle_lcp_query);
  register_typed_handler(rpc, node_, kGetStats, this,
                         &Provider::handle_get_stats);
  register_typed_handler(rpc, node_, kStoreHint, this,
                         &Provider::handle_store_hint);
  register_typed_handler(rpc, node_, kReplicate, this,
                         &Provider::handle_replicate);
  register_typed_handler(rpc, node_, kFetchChunks, this,
                         &Provider::handle_fetch_chunks);
  register_typed_handler(rpc, node_, kDrain, this, &Provider::handle_drain);
  register_typed_handler(rpc, node_, kRepairPeer, this,
                         &Provider::handle_repair);
}

int Provider::refcount(const common::SegmentKey& key) const {
  auto it = segments_.find(key);
  return it == segments_.end() ? 0 : it->second.refs;
}

size_t Provider::metadata_bytes() const {
  size_t n = 0;
  for (const auto& [id, meta] : models_) {
    n += meta.owners.metadata_bytes();
    // Compact graph: per vertex, a signature (16B) plus edge list entries.
    n += meta.graph.size() * 16 + meta.graph.edge_count() * 4;
  }
  return n;
}

std::vector<ModelId> Provider::model_ids() const {
  std::vector<ModelId> out;
  out.reserve(models_.size());
  for (const auto& [id, meta] : models_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

uint64_t Provider::install_model(common::ModelId id, model::ArchGraph graph,
                                 OwnerMap owners, double quality,
                                 common::ModelId ancestor, double store_time) {
  ModelMeta meta;
  meta.graph = std::move(graph);
  meta.owners = std::move(owners);
  meta.quality = quality;
  meta.ancestor = ancestor;
  meta.store_time = store_time;
  meta.store_seq = ++seq_;
  records_.put(kMetaRecord, id, meta);
  auto [it, inserted] = models_.emplace(id, std::move(meta));
  if (config_.lcp_index && inserted) {
    lcp_index_.insert(id, it->second.quality, it->second.graph);
  }
  if (inserted && !share_.view.empty() &&
      provider_for(id, share_.live.size(), share_.live) == id_) {
    share_.models.push_back(&*it);
  }
  return seq_;
}

sim::CoTask<wire::PutModelResponse> Provider::handle_put(
    wire::PutModelRequest req, net::HandlerContext ctx) {
  double t0 = sim_->now();
  wire::PutModelResponse resp;
  ++stats_.puts;
  if (drained_) {
    resp.status = drained_status();
    co_return resp;
  }
  // A token minted by a newer client incarnation proves the older ones are
  // gone — reap the transfer pins they leaked (DESIGN.md §14).
  observe_epoch(req.token);
  co_await sim_->delay(config_.op_seconds +
                       kPerSegmentSeconds *
                           static_cast<double>(req.new_segments.size()));
  if (models_.find(req.id) != models_.end()) {
    resp.status = Status::AlreadyExists("model " + req.id.to_string());
    co_return resp;
  }
  uint64_t physical = 0;
  for (const auto& [v, env] : req.new_segments) {
    if (compress::codec_for(env.codec) == nullptr) {
      resp.status = Status::InvalidArgument("unknown codec in put");
      co_return resp;
    }
    // Manifests are provider-local (they index this provider's chunk
    // store); a client can only ever submit inline envelopes.
    if (env.kind != compress::EnvelopeKind::kInline) {
      resp.status = Status::InvalidArgument("chunked envelope on the wire");
      co_return resp;
    }
    physical += env.physical_bytes;
  }
  {
    // The pool moves what is actually stored: post-compression bytes.
    obs::Span write = obs::Tracer::maybe_begin(tracer(), "segment_write",
                                               node_, ctx.trace);
    write.tag_u64("segments", req.new_segments.size());
    write.tag_u64("physical_bytes", physical);
    co_await charge_pool(static_cast<double>(physical));
  }
  // Re-check after the await: a drain may have started (committing into a
  // catalog the drain already migrated would strand the model) ...
  if (drained_) {
    resp.status = drained_status();
    co_return resp;
  }
  // ... and a deadline-driven retry of this same put may have landed while
  // the pool transfer ran (model ids are globally unique, so AlreadyExists
  // here can only mean an earlier attempt succeeded).
  if (models_.find(req.id) != models_.end()) {
    resp.status = Status::AlreadyExists("model " + req.id.to_string());
    co_return resp;
  }
  {
    // Commit metadata + segments to the catalog and (when backed) the
    // persistent KV. Instantaneous in sim time — the span exists for its
    // parent/child link under the put, not its duration.
    obs::Span commit =
        obs::Tracer::maybe_begin(tracer(), "kv_commit", node_, ctx.trace);
    commit.tag_u64("segments", req.new_segments.size());
    commit.tag("backed", records_.attached() ? "true" : "false");
    resp.store_seq =
        install_model(req.id, std::move(req.graph), std::move(req.owners),
                      req.quality, req.ancestor, sim_->now());
    for (auto& [v, env] : req.new_segments) {
      common::SegmentKey key{req.id, v};
      stats_.logical_bytes_ingested += env.logical_bytes;
      stats_.physical_bytes_ingested += env.physical_bytes;
      // Storage decision, after the wire cost is paid: large payloads are
      // split into deduplicated chunks and the envelope keeps a manifest.
      maybe_chunk(env);
      account_stored(env, +1);
      // The segment's cache-validation version is the put's store sequence:
      // monotonic, so re-created keys always look newer than stale copies.
      SegEntry& entry = segments_[key];
      entry = SegEntry{std::move(env), 1, resp.store_seq};
      records_.put(kSegRecord, key, entry);
    }
  }
  hist_put_seconds_->add(sim_->now() - t0);
  hist_put_bytes_->add(static_cast<double>(physical));
  resp.status = Status::Ok();
  co_return resp;
}

sim::CoTask<wire::GetMetaView<ModelMeta>> Provider::handle_get_meta(
    wire::GetMetaRequest req, net::HandlerContext) {
  ++stats_.meta_gets;
  co_await sim_->delay(config_.op_seconds);
  auto it = models_.find(req.id);
  // The found branch encodes from the stored record itself: the handler's
  // task ends here and the response is encoded before anything else runs.
  co_return wire::GetMetaView<ModelMeta>{it != models_.end() ? &it->second
                                                              : nullptr};
}

sim::CoTask<wire::ReadSegmentsResponse> Provider::handle_read_segments(
    wire::ReadSegmentsRequest req, net::HandlerContext ctx) {
  double t0 = sim_->now();
  wire::ReadSegmentsResponse resp;
  ++stats_.segment_reads;
  co_await sim_->delay(config_.op_seconds +
                       kPerSegmentSeconds *
                           static_cast<double>(req.keys.size()));
  resp.info.reserve(req.keys.size());
  for (size_t i = 0; i < req.keys.size(); ++i) {
    const auto& key = req.keys[i];
    auto it = segments_.find(key);
    if (it == segments_.end()) {
      resp.info.clear();
      resp.segments.clear();
      resp.payload_bytes = 0;
      resp.status = Status::NotFound("segment " + key.to_string());
      co_return resp;
    }
    const uint64_t version = it->second.version;
    // Validation handshake (DESIGN.md §14): the client's cached copy is
    // current iff its version matches — answer kNotModified and move no
    // payload. Version 0 (or no vector) means "not cached".
    uint64_t cached = i < req.cached_versions.size()
                          ? req.cached_versions[i]
                          : 0;
    if (cached != 0 && cached == version) {
      resp.info.push_back(
          {wire::ReadEntryState::kNotModified, version, 0});
      ++stats_.not_modified_reads;
      continue;
    }
    // Redirect hint: point the reader at the last client known to cache
    // this segment (ScaleStore-style cooperative caching). The hint is
    // best-effort — a cold or crashed peer makes the reader fall back here
    // with accept_redirect off.
    if (req.accept_redirect) {
      auto dir = cache_dir_.find(key);
      if (dir != cache_dir_.end()) {
        // Never bounce a reader at a peer this provider can observe dead —
        // the injector stands in for the deployment's failure detector. A
        // stale hint at a crashed client would cost every reader a full
        // peer timeout per key until the entry is overwritten; drop it.
        net::FaultInjector* injector = rpc_->fault_injector();
        if (injector != nullptr && !injector->node_up(dir->second)) {
          cache_dir_.erase(dir);
        } else if (dir->second != req.reader_node) {
          resp.info.push_back(
              {wire::ReadEntryState::kRedirect, version, dir->second});
          ++stats_.redirects_issued;
          continue;
        }
      }
    }
    // Chunked envelopes resolve back to inline here: the manifest only
    // means something to this provider's chunk store, and the wire cost of
    // a read is the full post-compression payload either way.
    auto env = reassemble(it->second.segment);
    if (!env.ok()) {
      resp.info.clear();
      resp.segments.clear();
      resp.payload_bytes = 0;
      resp.status = env.status();
      co_return resp;
    }
    resp.info.push_back({wire::ReadEntryState::kFresh, version, 0});
    resp.payload_bytes += env->physical_bytes;
    resp.segments.push_back(std::move(*env));
  }
  // The reader caches every entry it was not redirected for. Only a
  // response that succeeds names it: a failed one delivers no entry.
  for (size_t i = 0; req.caching && i < req.keys.size(); ++i) {
    if (resp.info[i].state != wire::ReadEntryState::kRedirect) {
      cache_dir_[req.keys[i]] = req.reader_node;
    }
  }
  {
    obs::Span fetch = obs::Tracer::maybe_begin(tracer(), "segment_read",
                                               node_, ctx.trace);
    fetch.tag_u64("segments", req.keys.size());
    fetch.tag_u64("physical_bytes", resp.payload_bytes);
    co_await charge_pool(static_cast<double>(resp.payload_bytes));
  }
  hist_read_seconds_->add(sim_->now() - t0);
  hist_read_bytes_->add(static_cast<double>(resp.payload_bytes));
  resp.status = Status::Ok();
  co_return resp;
}

sim::CoTask<wire::ModifyRefsResponse> Provider::handle_modify_refs(
    wire::ModifyRefsRequest req, net::HandlerContext ctx) {
  double t0 = sim_->now();
  wire::ModifyRefsResponse resp;
  obs::Span span =
      obs::Tracer::maybe_begin(tracer(), "modify_refs", node_, ctx.trace);
  span.tag_u64("keys", req.keys.size());
  span.tag("increment", req.increment ? "true" : "false");
  co_await sim_->delay(kPerSegmentSeconds *
                       static_cast<double>(req.keys.size()));
  // Retry of an already-applied request: replay the cached response instead
  // of double-applying the deltas (the first delivery's response was lost).
  if (auto cached = dedup_lookup<wire::ModifyRefsResponse>(req.token)) {
    co_return std::move(*cached);
  }
  // A token from a newer client incarnation proves every older incarnation
  // is gone: reap their leaked pins before applying this request.
  observe_epoch(req.token);
  if (req.pin_consume && req.pin_epoch != 0) {
    // The pin became a stored model's permanent reference at put time:
    // clear the ledger entries, leave the refcounts alone.
    for (const auto& key : req.keys) pin_remove(req.pin_epoch, key);
    resp.status = Status::Ok();
    span.tag("pin_consume", "true");
    hist_refs_seconds_->add(sim_->now() - t0);
    dedup_store(req.token, wire::encode(resp));
    co_return resp;
  }
  for (const auto& key : req.keys) {
    if (req.increment) {
      auto it = segments_.find(key);
      if (it == segments_.end()) {
        ++resp.missing;
        resp.missing_keys.push_back(key);
        continue;
      }
      ++it->second.refs;
      ++stats_.refs_added;
      records_.put(kSegRecord, key, it->second);
      if (req.pin_epoch != 0) pin_add(req.pin_epoch, key);
    } else {
      // Pinned decrements clear their ledger entry whether or not the
      // segment still exists (rollback may race a concurrent free).
      if (req.pin_epoch != 0) pin_remove(req.pin_epoch, key);
      if (!release_ref(key, &resp.freed_bytes, &resp.freed_bases)) {
        ++resp.missing;
        resp.missing_keys.push_back(key);
      }
    }
  }
  resp.status = resp.missing == 0
                    ? Status::Ok()
                    : Status::NotFound(std::to_string(resp.missing) +
                                       " segment(s) missing");
  span.tag_u64("freed_bases", resp.freed_bases.size());
  if (resp.freed_bytes > 0) {
    if (obs::EventLog* ev = events()) {
      // Aggregated per request: how many logical bytes this decrement batch
      // actually freed (refcounts that hit zero), for GC-rate time-series.
      ev->record(sim_->now(), "gc.segment_freed", node_,
                 {{"bytes", obs::EventLog::u64(resp.freed_bytes)},
                  {"cascade_bases",
                   obs::EventLog::u64(resp.freed_bases.size())}});
    }
  }
  hist_refs_seconds_->add(sim_->now() - t0);
  dedup_store(req.token, wire::encode(resp));
  co_return resp;
}

sim::CoTask<wire::RetireResponse> Provider::handle_retire(
    wire::RetireRequest req, net::HandlerContext) {
  wire::RetireResponse resp;
  ++stats_.retires;
  co_await sim_->delay(config_.op_seconds);
  // A retried retire whose first delivery applied must replay the original
  // response (with the owner map) — a fresh lookup would answer NotFound and
  // the caller could never run the reference decrements.
  if (auto cached = dedup_lookup<wire::RetireResponse>(req.token)) {
    co_return std::move(*cached);
  }
  observe_epoch(req.token);
  auto it = models_.find(req.id);
  if (it == models_.end()) {
    resp.status = Status::NotFound("model " + req.id.to_string());
    co_return resp;
  }
  resp.owners = std::move(it->second.owners);
  // Metadata is removed eagerly; segment payloads survive until their
  // reference counts (decremented by the client fan-out) reach zero.
  if (config_.lcp_index) (void)lcp_index_.remove(req.id, it->second.graph);
  std::erase(share_.models, &*it);
  models_.erase(it);
  records_.erase(kMetaRecord, req.id);
  resp.status = Status::Ok();
  dedup_store(req.token, wire::encode(resp));
  co_return resp;
}

const std::vector<const Provider::CatalogEntry*>& Provider::lcp_share(
    const wire::LcpQueryRequest& req,
    std::vector<const CatalogEntry*>& buffer) {
  buffer.clear();
  // The ring view arrives from outside: it must name this provider, and
  // every covered provider must lie inside it.
  const size_t n = req.live.size();
  if (n <= id_ || req.live[id_] == 0 ||
      std::any_of(req.cover.begin(), req.cover.end(),
                  [n](common::ProviderId p) { return p >= n; })) {
    return buffer;
  }
  if (req.cover.empty()) {
    if (req.live != share_.view) {
      share_.view = req.live;
      share_.live = live_mask(req.live, n);
      share_.models.clear();
      for (const CatalogEntry& entry : models_) {
        if (provider_for(entry.first, n, share_.live) == id_) {
          share_.models.push_back(&entry);
        }
      }
    }
    return share_.models;
  }
  // Cover round: the covered providers were live in round 1.
  const std::vector<bool> live = live_mask(req.live, n);
  std::vector<bool> round1 = live;
  for (common::ProviderId p : req.cover) round1[p] = true;
  for (const CatalogEntry& entry : models_) {
    if (provider_for(entry.first, n, live) != id_) continue;
    common::ProviderId first = provider_for(entry.first, n, round1);
    if (std::find(req.cover.begin(), req.cover.end(), first) !=
        req.cover.end()) {
      buffer.push_back(&entry);
    }
  }
  return buffer;
}

sim::CoTask<wire::LcpQueryResponse> Provider::handle_lcp_query(
    wire::LcpQueryRequest req, net::HandlerContext ctx) {
  double t0 = sim_->now();
  wire::LcpQueryResponse resp;
  obs::Span span = obs::Tracer::maybe_begin(
      tracer(), config_.lcp_index ? "lcp_index" : "lcp_scan", node_,
      ctx.trace);
  ++stats_.lcp_queries;
  LcpCost cost;
  const model::GraphShape& query = req.graph.shape();
  // Run Algorithm 1 against one stored model, keeping the best answer in
  // LcpQueryResponse::offer's order: the body of the share scan, of the
  // index path's fallback and of the verify oracle below.
  auto scan_model = [&](wire::LcpQueryResponse& out, LcpCost* c,
                        const CatalogEntry& entry) {
    LcpResult r = lcp_ws_.run(query, entry.second.graph, c);
    if (r.length() != 0) {
      out.offer(entry.first, entry.second.quality, std::move(r.matches));
    }
  };
  bool scan_needed = !config_.lcp_index;
  PrefixIndex::Answer hit;
  if (config_.lcp_index) {
    // Index path (DESIGN.md §16): walk the query's ancestry hashes through
    // the index, then confirm the best holder with ONE exact Algorithm 1
    // run. An unclean query or catalog, several maximal vertices, or a
    // confirm-run mismatch hands the query to the scan.
    hit = lcp_index_.answer(
        query,
        [this](ModelId id) -> const model::GraphShape* {
          auto it = models_.find(id);
          return it == models_.end() ? nullptr : &it->second.graph;
        },
        lcp_ws_, cost);
    if (hit.needs_scan()) {
      ++stats_.lcp_index_fallback_scans;
      scan_needed = true;
    } else {
      ++stats_.lcp_index_answers;
      resp.found = hit.found;
      resp.ancestor = hit.ancestor;
      resp.quality = hit.quality;
      resp.matches = std::move(hit.matches);
    }
  }
  // The scan covers this provider's share only: every model is scanned
  // once cluster-wide, by its first live replica (DESIGN.md §15). The index
  // path above answers from the whole local index.
  size_t scanned = 0;
  if (scan_needed) {
    resp = wire::LcpQueryResponse{};
    std::vector<const CatalogEntry*> buffer;
    const std::vector<const CatalogEntry*>& share = lcp_share(req, buffer);
    for (const CatalogEntry* entry : share) scan_model(resp, &cost, *entry);
    scanned = share.size();
    stats_.lcp_models_scanned += scanned;
  }
  stats_.lcp_vertex_visits += cost.vertex_visits;
  // Verify oracle: re-answer from a scan of the whole local catalog and
  // compare. The oracle's work is charged to a separate cost so verified
  // runs keep index-shaped timing and counters; the scan's answer wins a
  // disagreement.
  if (config_.lcp_index && config_.lcp_index_verify && !scan_needed) {
    wire::LcpQueryResponse oracle;
    LcpCost oracle_cost;
    for (const CatalogEntry& entry : models_) {
      scan_model(oracle, &oracle_cost, entry);
    }
    bool same = oracle.found == resp.found &&
                oracle.ancestor == resp.ancestor &&
                oracle.quality == resp.quality && oracle.matches == resp.matches;
    if (!same) {
      ++stats_.lcp_index_verify_mismatches;
      EVO_WARN << "lcp_index verify mismatch on provider " << id_
               << ": index answered model "
               << (resp.found ? resp.ancestor.to_string() : "<none>")
               << " depth " << resp.matches.size() << ", scan answered "
               << (oracle.found ? oracle.ancestor.to_string() : "<none>")
               << " depth " << oracle.matches.size();
      resp = std::move(oracle);
    }
  }
  // Charge the CPU time of whichever path served (the map step of the
  // collective query): the scan pays a per-model term, the index does not.
  co_await sim_->delay(
      kLcpPerModelSeconds * static_cast<double>(scanned) +
      kLcpVisitSeconds * static_cast<double>(cost.vertex_visits));
  if (scan_needed) span.tag_u64("models_scanned", scanned);
  span.tag_u64("vertex_visits", cost.vertex_visits);
  span.tag("found", resp.found ? "true" : "false");
  if (config_.lcp_index) {
    span.tag_u64("index_depth", hit.lookup.depth);
    span.tag_u64("index_candidates", hit.lookup.candidates);
    span.tag("index_outcome", outcome_name(hit.outcome));
    if (obs::EventLog* ev = events()) {
      // One flight-recorder record per indexed query: how many query
      // vertices the walk found, how many catalog models hold the answer's
      // hash, what the whole answer cost, and whether the exactness guard
      // bailed to the scan. obsq time-series over these shows the index
      // staying catalog-size independent.
      ev->record(sim_->now(), "lcp.index", node_,
                 {{"depth", obs::EventLog::u64(hit.lookup.depth)},
                  {"candidates", obs::EventLog::u64(hit.lookup.candidates)},
                  {"visits", obs::EventLog::u64(cost.vertex_visits)},
                  {"fallback", hit.needs_scan() ? "1" : "0"}});
    }
  }
  hist_lcp_seconds_->add(sim_->now() - t0);
  co_return resp;
}

// ---- replication fault model (DESIGN.md §15) ----------------------------

Status Provider::drained_status() const {
  return Status::Unavailable("provider " + std::to_string(id_) + " drained");
}

std::vector<Provider::OwnerPush> Provider::owner_pushes() const {
  std::map<ModelId, std::vector<common::VertexId>> local;
  for (const auto& [key, entry] : segments_) {
    local[key.owner].push_back(key.vertex);
  }
  std::vector<OwnerPush> out;
  out.reserve(models_.size() + local.size());
  auto add = [&](ModelId id, bool with_meta) {
    OwnerPush& push = out.emplace_back(OwnerPush{id, with_meta, {}});
    auto it = local.find(id);
    if (it == local.end()) return;
    // segments_ is hashed: sort for a deterministic push order.
    push.vertices = std::move(it->second);
    std::sort(push.vertices.begin(), push.vertices.end());
  };
  for (ModelId id : model_ids()) add(id, true);
  for (const auto& [owner, vertices] : local) {
    if (models_.find(owner) == models_.end()) add(owner, false);
  }
  return out;
}

uint64_t Provider::record_hint(wire::HintRecord hint) {
  uint64_t seq = ++hint_seq_;
  records_.put(kHintRecord, seq, hint);
  common::ProviderId target = hint.target;
  hints_.emplace(seq, std::move(hint));
  ++stats_.hints_recorded;
  if (obs::EventLog* ev = events()) {
    // The analyzer balances hint lifecycles: every `hint.recorded` count
    // must eventually be matched by a replay, a supersede (repair made the
    // hint moot), or a move (drain re-parked it — the refuge re-records it,
    // so a moved hint contributes to both sides consistently).
    ev->record(sim_->now(), "hint.recorded", node_,
               {{"count", "1"}, {"target", obs::EventLog::u64(target)}});
  }
  return seq;
}

void Provider::erase_hint(uint64_t seq) {
  hints_.erase(seq);
  records_.erase(kHintRecord, seq);
}

size_t Provider::hint_count_for(common::ProviderId target) const {
  size_t n = 0;
  for (const auto& [seq, hint] : hints_) {
    if (hint.target == target) ++n;
  }
  return n;
}

sim::CoTask<uint64_t> Provider::replay_hints(common::ProviderId target,
                                             common::NodeId target_node) {
  // Snapshot the matching sequence numbers first: hints_ can gain or lose
  // entries while this coroutine is suspended (a concurrent store_hint, a
  // racing discard after repair) and no iterator may be held across a
  // co_await.
  std::vector<uint64_t> seqs;
  for (const auto& [seq, hint] : hints_) {
    if (hint.target == target) seqs.push_back(seq);
  }
  // Roots its own trace: replay is triggered by a restart hook, not an RPC.
  obs::Span span =
      obs::Tracer::maybe_begin(tracer(), "replay_hints", node_);
  span.tag_u64("target", target);
  span.tag_u64("parked", seqs.size());
  uint64_t replayed = 0;
  for (uint64_t seq : seqs) {
    auto it = hints_.find(seq);
    if (it == hints_.end()) continue;  // discarded while we were replaying
    // Copies, not references: the map entry must not be touched across the
    // suspension below.
    std::string method = it->second.method;
    Bytes payload = it->second.payload;
    net::CallOptions opts;
    opts.timeout = kPeerRpcTimeout;
    opts.parent = span.context();
    auto r = co_await rpc_->call(node_, target_node, method,
                                 std::move(payload), opts);
    if (!r.ok()) break;  // target went down again; keep the rest parked
    // Re-check after the suspension: a repair that finished while this
    // call was in flight already discarded (and accounted) the hint —
    // counting it replayed too would double-resolve it.
    if (hints_.find(seq) == hints_.end()) continue;
    // The response itself is method-specific and belongs to a client that
    // has long since given up on it; transport delivery is what matters —
    // the original idempotency token inside the payload made the apply
    // exactly-once.
    ++stats_.hints_replayed;
    erase_hint(seq);
    ++replayed;
  }
  span.tag_u64("replayed", replayed);
  span.tag("outcome", replayed == seqs.size() ? "ok" : "interrupted");
  if (replayed > 0) {
    if (obs::EventLog* ev = events()) {
      ev->record(sim_->now(), "hint.replayed", node_,
                 {{"count", obs::EventLog::u64(replayed)},
                  {"target", obs::EventLog::u64(target)}});
    }
    EVO_INFO << "provider " << id_ << " replayed " << replayed
             << " hint(s) to recovered provider " << target;
  }
  co_return replayed;
}

uint64_t Provider::discard_hints_for(common::ProviderId target) {
  uint64_t discarded = 0;
  for (auto it = hints_.begin(); it != hints_.end();) {
    if (it->second.target == target) {
      records_.erase(kHintRecord, it->first);
      it = hints_.erase(it);
      ++discarded;
    } else {
      ++it;
    }
  }
  stats_.hints_discarded += discarded;
  if (discarded > 0) {
    if (obs::EventLog* ev = events()) {
      ev->record(sim_->now(), "hint.superseded", node_,
                 {{"count", obs::EventLog::u64(discarded)},
                  {"target", obs::EventLog::u64(target)}});
    }
  }
  return discarded;
}

sim::CoTask<wire::StoreHintResponse> Provider::handle_store_hint(
    wire::StoreHintRequest req, net::HandlerContext) {
  wire::StoreHintResponse resp;
  co_await sim_->delay(config_.op_seconds);
  if (drained_) {
    resp.status = drained_status();
    co_return resp;
  }
  record_hint(std::move(req.hint));
  resp.status = Status::Ok();
  co_return resp;
}

sim::CoTask<wire::FetchChunksResponse> Provider::handle_fetch_chunks(
    wire::FetchChunksRequest req, net::HandlerContext ctx) {
  wire::FetchChunksResponse resp;
  co_await sim_->delay(config_.op_seconds +
                       kPerSegmentSeconds *
                           static_cast<double>(req.digests.size()));
  for (const auto& digest : req.digests) {
    const storage::ChunkStore::Chunk* chunk = chunk_store_.find(digest);
    if (chunk == nullptr) continue;  // requester retries elsewhere
    resp.chunks.push_back(wire::ChunkBodyEntry{digest, chunk->bytes,
                                               chunk->cost});
    resp.payload_bytes += chunk->cost;
  }
  {
    obs::Span fetch = obs::Tracer::maybe_begin(tracer(), "chunk_serve",
                                               node_, ctx.trace);
    fetch.tag_u64("chunks", resp.chunks.size());
    fetch.tag_u64("physical_bytes", resp.payload_bytes);
    co_await charge_pool(static_cast<double>(resp.payload_bytes));
  }
  // Ok even when some digests were absent: the requester falls back to the
  // next peer for the remainder.
  resp.status = Status::Ok();
  co_return resp;
}

sim::CoTask<wire::ReplicateResponse> Provider::handle_replicate(
    wire::ReplicateRequest req, net::HandlerContext ctx) {
  obs::Span span =
      obs::Tracer::maybe_begin(tracer(), "replicate_serve", node_, ctx.trace);
  wire::ReplicateResponse resp;
  co_await sim_->delay(config_.op_seconds +
                       kPerSegmentSeconds *
                           static_cast<double>(req.segments.size()));
  if (drained_) {
    resp.status = drained_status();
    span.tag("outcome", resp.status.to_string());
    co_return resp;
  }
  // Install-if-absent throughout: an entry already here is being actively
  // maintained by client traffic (its refcount is live GC state) and must
  // never be overwritten by an anti-entropy copy.
  if (req.has_meta && models_.find(req.id) == models_.end()) {
    (void)install_model(req.id, std::move(req.graph), std::move(req.owners),
                        req.quality, req.ancestor, req.store_time);
    resp.installed_meta = true;
    ++stats_.replica_installed_models;
  }
  // Manifests travel as-is on this path: collect the chunk bodies the local
  // store is missing before touching any catalog state.
  std::vector<common::Hash128> missing;
  for (const auto& seg : req.segments) {
    if (segments_.find(seg.key) != segments_.end()) continue;
    if (seg.segment.kind != compress::EnvelopeKind::kChunked) continue;
    for (const compress::ChunkRef& c : seg.segment.chunks) {
      if (chunk_store_.find(c.digest) == nullptr) missing.push_back(c.digest);
    }
  }
  std::sort(missing.begin(), missing.end());
  missing.erase(std::unique(missing.begin(), missing.end()), missing.end());
  // Pull the bodies content-addressed: the pushing provider first, then any
  // other replica peer — whoever holds a digest serves it.
  std::map<common::Hash128, wire::ChunkBodyEntry> fetched;
  if (!missing.empty()) {
    std::vector<common::NodeId> sources;
    sources.push_back(req.source_node);
    for (common::NodeId n : req.peer_nodes) {
      if (n != node_ && n != req.source_node) sources.push_back(n);
    }
    for (common::NodeId source : sources) {
      if (fetched.size() == missing.size()) break;
      wire::FetchChunksRequest freq;
      for (const auto& digest : missing) {
        if (fetched.find(digest) == fetched.end()) freq.digests.push_back(digest);
      }
      net::CallOptions opts;
      opts.timeout = kPeerRpcTimeout;
      // Parent the chunk-pull leg under the replicate serve span so a trace
      // shows which repair/drain push paid for which body transfers.
      opts.parent = span.context();
      auto r = co_await net::typed_call<wire::FetchChunksResponse>(
          rpc_, node_, source, kFetchChunks, freq, opts);
      if (!r.ok() || !r->status.ok()) continue;
      // The bodies move over the bulk path at their modeled physical cost.
      if (r->payload_bytes > 0) {
        (void)co_await rpc_->bulk(
            source, node_, common::Buffer::synthetic(r->payload_bytes, 0));
      }
      for (auto& c : r->chunks) {
        ++resp.fetched_chunks;
        ++stats_.replica_chunks_fetched;
        fetched.emplace(c.digest, std::move(c));
      }
    }
  }
  // Install the absent segments. No suspension below this point: catalog
  // mutation and its accounting commit atomically in sim time.
  uint64_t installed_physical = 0;
  for (auto& seg : req.segments) {
    if (segments_.find(seg.key) != segments_.end()) continue;
    compress::CompressedSegment env = std::move(seg.segment);
    if (compress::codec_for(env.codec) == nullptr) continue;
    // Re-reference chunks already here; store fetched bodies fresh. An
    // unfetchable body makes the segment unservable — skip it whole (a later
    // repair pass retries).
    if (env.kind == compress::EnvelopeKind::kChunked &&
        !reference_chunks(env, &fetched)) {
      continue;
    }
    // The refcount travels: replication copies GC state, so the symmetric
    // decrements that arrive later balance on every replica. The version is
    // a fresh local sequence — the safe direction for cache validation (a
    // mismatch costs one extra fetch, never a stale read).
    SegEntry entry;
    entry.segment = std::move(env);
    entry.refs = static_cast<int32_t>(seg.refs);
    entry.version = ++seq_;
    installed_physical += entry.segment.physical_bytes;
    account_stored(entry.segment, +1);
    SegEntry& stored = segments_[seg.key];
    stored = std::move(entry);
    records_.put(kSegRecord, seg.key, stored);
    ++resp.installed_segments;
    ++stats_.replica_installed_segments;
  }
  co_await charge_pool(static_cast<double>(installed_physical));
  span.tag_u64("installed_segments", resp.installed_segments);
  span.tag_u64("fetched_chunks", resp.fetched_chunks);
  span.tag("installed_meta", resp.installed_meta ? "1" : "0");
  span.tag("outcome", "ok");
  if (obs::EventLog* ev = events()) {
    ev->record(sim_->now(), "replicate.install", node_,
               {{"model", req.id.to_string()},
                {"meta", resp.installed_meta ? "1" : "0"},
                {"segments", obs::EventLog::u64(resp.installed_segments)},
                {"chunks_fetched", obs::EventLog::u64(resp.fetched_chunks)}});
  }
  resp.status = Status::Ok();
  co_return resp;
}

sim::CoTask<uint64_t> Provider::push_owner(
    OwnerPush owner, std::vector<common::ProviderId> targets,
    std::vector<common::NodeId> provider_nodes,
    std::vector<common::NodeId> peer_nodes, obs::TraceContext parent) {
  wire::ReplicateRequest rr;
  rr.id = owner.id;
  auto mit = models_.find(owner.id);
  if (owner.with_meta && mit != models_.end()) {
    rr.has_meta = true;
    rr.graph = mit->second.graph;
    rr.owners = mit->second.owners;
    rr.quality = mit->second.quality;
    rr.ancestor = mit->second.ancestor;
    rr.store_time = mit->second.store_time;
  }
  for (common::VertexId v : owner.vertices) {
    auto it = segments_.find(common::SegmentKey{owner.id, v});
    if (it == segments_.end()) continue;  // freed since the pass began
    rr.segments.push_back(wire::ReplicateSegment{
        it->first, it->second.segment,
        static_cast<uint32_t>(std::max(it->second.refs, 0))});
  }
  rr.source_node = node_;
  rr.peer_nodes = std::move(peer_nodes);
  const uint64_t pushed = rr.segments.size();
  const common::Bytes request = wire::encode(rr);
  for (common::ProviderId target : targets) {
    if (target >= provider_nodes.size()) continue;
    net::CallOptions opts;
    opts.timeout = kPeerRpcTimeout;
    opts.parent = parent;
    // Best effort: a joiner that is down right now is rebuilt by the next
    // repair pass; the surviving replicas still hold everything.
    (void)co_await net::typed_call_encoded<wire::ReplicateResponse>(
        rpc_, node_, provider_nodes[target], kReplicate, request, opts);
  }
  co_return pushed;
}

sim::CoTask<wire::DrainResponse> Provider::handle_drain(
    wire::DrainRequest req, net::HandlerContext ctx) {
  wire::DrainResponse resp;
  co_await sim_->delay(config_.op_seconds);
  if (drained_) {  // idempotent: the catalog is already gone
    resp.status = Status::Ok();
    co_return resp;
  }
  const size_t n = req.provider_nodes.size();
  if (n <= id_ || req.live.size() < n) {
    resp.status = Status::InvalidArgument("drain ring view too small");
    co_return resp;
  }
  obs::Span span =
      obs::Tracer::maybe_begin(tracer(), "drain_serve", node_, ctx.trace);
  if (obs::EventLog* ev = events()) {
    ev->record(sim_->now(), "drain.begin", node_,
               {{"models", obs::EventLog::u64(models_.size())},
                {"segments", obs::EventLog::u64(segments_.size())},
                {"hints", obs::EventLog::u64(hints_.size())}});
  }
  // Refuse new state from here on: a put or replicate landing mid-migration
  // would commit into a catalog about to be wiped. Reads keep working off
  // the intact catalog until the wipe (in-flight readers), after which the
  // natural NotFound routes them to the surviving replicas.
  drained_ = true;
  const size_t k = req.replication == 0 ? 1 : req.replication;
  std::vector<bool> new_live = live_mask(req.live, n);
  new_live[id_] = false;  // this provider is leaving, whatever the view says
  std::vector<bool> old_live = new_live;
  old_live[id_] = true;
  // HRW's minimal-movement property does the routing: each key's new
  // replica set differs from the old one only by the joiner(s) replacing
  // this provider, so only those targets need a push.
  auto joiners_of = [&](ModelId id) {
    std::vector<common::ProviderId> joiners;
    auto old_set = replicas_for(id, n, k, old_live);
    auto new_set = replicas_for(id, n, k, new_live);
    for (common::ProviderId p : new_set) {
      if (std::find(old_set.begin(), old_set.end(), p) == old_set.end()) {
        joiners.push_back(p);
      }
    }
    std::vector<common::NodeId> peers;
    for (common::ProviderId p : old_set) {
      if (p != id_ && p < n) peers.push_back(req.provider_nodes[p]);
    }
    return std::make_pair(joiners, peers);
  };
  std::vector<OwnerPush> owners = owner_pushes();
  for (OwnerPush& owner : owners) {
    const bool with_meta = owner.with_meta;
    auto [joiners, peers] = joiners_of(owner.id);
    uint64_t segs = co_await push_owner(std::move(owner), joiners,
                                        req.provider_nodes, peers,
                                        span.context());
    if (with_meta) {
      ++resp.models_moved;
      ++stats_.drain_models_moved;
    }
    resp.segments_moved += segs;
    stats_.drain_segments_moved += segs;
  }
  // Hand the parked hints to the lowest-id surviving provider: their
  // targets may still recover and expect a replay.
  if (!hints_.empty()) {
    common::ProviderId refuge = static_cast<common::ProviderId>(n);
    for (size_t i = 0; i < n; ++i) {
      if (new_live[i]) {
        refuge = static_cast<common::ProviderId>(i);
        break;
      }
    }
    if (refuge < n) {
      std::vector<uint64_t> seqs;
      for (const auto& [seq, hint] : hints_) seqs.push_back(seq);
      const common::NodeId refuge_node = req.provider_nodes[refuge];
      for (uint64_t seq : seqs) {
        auto it = hints_.find(seq);
        if (it == hints_.end()) continue;
        wire::StoreHintRequest hreq;
        hreq.hint = it->second;  // copy: no map access across the await
        net::CallOptions opts;
        opts.timeout = kPeerRpcTimeout;
        auto r = co_await net::typed_call<wire::StoreHintResponse>(
            rpc_, node_, refuge_node, kStoreHint, hreq, opts);
        if (!r.ok() || !r->status.ok()) continue;
        erase_hint(seq);
        ++resp.hints_moved;
      }
      if (resp.hints_moved > 0) {
        if (obs::EventLog* ev = events()) {
          ev->record(sim_->now(), "hint.moved", node_,
                     {{"count", obs::EventLog::u64(resp.hints_moved)},
                      {"refuge", obs::EventLog::u64(refuge)}});
        }
      }
    }
  }
  // Wipe the local catalog and its durable records. The idempotency cache
  // survives: a client retry of a pre-drain mutation must still replay its
  // original response instead of hitting the drained gate.
  for (auto& [key, entry] : segments_) {
    release_chunks(entry.segment);
    account_stored(entry.segment, -1);
    records_.erase(kSegRecord, key);
  }
  segments_.clear();
  for (auto& [id, meta] : models_) records_.erase(kMetaRecord, id);
  models_.clear();
  lcp_index_.clear();
  share_ = {};
  cache_dir_.clear();
  for (const auto& [pin, count] : pins_) records_.erase(kPinRecord, pin);
  pins_.clear();
  (void)chunk_store_.drop_unreferenced();
  EVO_INFO << "provider " << id_ << " drained: " << resp.models_moved
           << " models, " << resp.segments_moved << " segments moved";
  span.tag_u64("models_moved", resp.models_moved);
  span.tag_u64("segments_moved", resp.segments_moved);
  span.tag_u64("hints_moved", resp.hints_moved);
  span.tag("outcome", "ok");
  if (obs::EventLog* ev = events()) {
    // The analyzer asserts every drain.begin has a drain.end whose *_left
    // counts are all zero: nothing may remain placed on a drained node.
    ev->record(sim_->now(), "drain.end", node_,
               {{"models_left", obs::EventLog::u64(models_.size())},
                {"segments_left", obs::EventLog::u64(segments_.size())},
                {"hints_left", obs::EventLog::u64(hints_.size())},
                {"models_moved", obs::EventLog::u64(resp.models_moved)},
                {"segments_moved", obs::EventLog::u64(resp.segments_moved)},
                {"hints_moved", obs::EventLog::u64(resp.hints_moved)}});
  }
  resp.status = Status::Ok();
  co_return resp;
}

sim::CoTask<wire::RepairResponse> Provider::handle_repair(
    wire::RepairRequest req, net::HandlerContext ctx) {
  wire::RepairResponse resp;
  co_await sim_->delay(config_.op_seconds);
  const size_t n = req.provider_nodes.size();
  if (drained_ || req.target == id_ || n <= req.target ||
      req.live.size() < n) {
    resp.status = Status::Ok();  // nothing this provider can contribute
    co_return resp;
  }
  obs::Span span =
      obs::Tracer::maybe_begin(tracer(), "repair_serve", node_, ctx.trace);
  span.tag_u64("target", req.target);
  const size_t k = req.replication == 0 ? 1 : req.replication;
  const std::vector<bool> live = live_mask(req.live, n);
  // Responsibility rule: for each owner id whose replica set contains the
  // target, the FIRST live member of the set that is not the target pushes.
  // Every peer evaluates the same deterministic rule, so the target gets
  // each model exactly once with no coordination.
  auto responsible = [&](ModelId id) {
    auto set = replicas_for(id, n, k, live);
    if (std::find(set.begin(), set.end(), req.target) == set.end()) {
      return false;
    }
    for (common::ProviderId p : set) {
      if (p != req.target) return p == id_;
    }
    return false;
  };
  auto peers_of = [&](ModelId id) {
    std::vector<common::NodeId> peers;
    for (common::ProviderId p : replicas_for(id, n, k, live)) {
      if (p != id_ && p != req.target && p < n) {
        peers.push_back(req.provider_nodes[p]);
      }
    }
    return peers;
  };
  const std::vector<common::ProviderId> target_only{req.target};
  std::vector<OwnerPush> owners = owner_pushes();
  for (OwnerPush& owner : owners) {
    if (!responsible(owner.id)) continue;
    const bool with_meta = owner.with_meta;
    std::vector<common::NodeId> peers = peers_of(owner.id);
    uint64_t segs =
        co_await push_owner(std::move(owner), target_only, req.provider_nodes,
                            std::move(peers), span.context());
    if (with_meta) ++resp.models_pushed;
    resp.segments_pushed += segs;
  }
  span.tag_u64("models_pushed", resp.models_pushed);
  span.tag_u64("segments_pushed", resp.segments_pushed);
  span.tag("outcome", "ok");
  if (obs::EventLog* ev = events()) {
    ev->record(sim_->now(), "repair.peer_push", node_,
               {{"target", obs::EventLog::u64(req.target)},
                {"models", obs::EventLog::u64(resp.models_pushed)},
                {"segments", obs::EventLog::u64(resp.segments_pushed)}});
  }
  resp.status = Status::Ok();
  co_return resp;
}

sim::CoTask<wire::StatsResponse> Provider::handle_get_stats(
    wire::StatsRequest, net::HandlerContext) {
  ++stats_.stat_gets;
  co_await sim_->delay(config_.op_seconds);
  wire::StatsResponse resp{
      .status = Status::Ok(),
      .provider = stats_,
      .chunks = chunk_store_.stats(),
      .codecs = codec_usage_,
      .live_models = models_.size(),
      .live_segments = segments_.size(),
      .logical_bytes = payload_bytes_,
      .physical_bytes = stored_physical_bytes(),
      .pre_dedup_physical_bytes = physical_bytes_,
      .live_chunks = chunk_store_.chunk_count(),
      .chunk_physical_bytes = chunk_store_.physical_bytes(),
      .lcp_index_nodes = lcp_index_.node_count(),
      .lcp_index_bytes = config_.lcp_index ? lcp_index_.memory_bytes() : 0,
      .histograms = {},
  };
  for (const auto& [name, hist] : metrics_.histograms()) {
    resp.histograms.emplace(name, *hist);
  }
  co_return resp;
}

}  // namespace evostore::core
