#include "baseline/redis_queries.h"

#include "core/lcp.h"

namespace evostore::baseline {

using core::wire::LcpQueryRequest;
using core::wire::LcpQueryResponse;
using net::HandlerContext;

namespace {

constexpr const char* kBeginAdd = "redis.begin_add";
constexpr const char* kFinishAdd = "redis.finish_add";
constexpr const char* kQuery = "redis.query";
constexpr const char* kUnpin = "redis.unpin";
constexpr const char* kRetire = "redis.retire";

}  // namespace

struct RedisQueries::BeginAddReq {
  ModelId id;
  double quality = 0;
  ArchGraph graph;

  static auto fields(auto& m) { return std::tie(m.id, m.quality, m.graph); }
  EVOSTORE_WIRE_SERDE(BeginAddReq)
};

struct RedisQueries::BoolResp {
  Status status;
  bool flag = false;

  static auto fields(auto& m) { return std::tie(m.status, m.flag); }
  EVOSTORE_WIRE_SERDE(BoolResp)
};

struct RedisQueries::IdReq {
  ModelId id;

  static auto fields(auto& m) { return std::tie(m.id); }
  EVOSTORE_WIRE_SERDE(IdReq)
};

RedisQueries::RedisQueries(net::RpcSystem& rpc, NodeId node,
                           RedisConfig config)
    : rpc_(&rpc), sim_(&rpc.simulation()), node_(node), config_(config) {
  metadata_lock_ = std::make_unique<sim::RwLock>(*sim_);
  cpu_ = std::make_unique<sim::Semaphore>(*sim_, 1);
  using net::register_typed_handler;
  register_typed_handler(rpc, node_, kBeginAdd, this,
                         &RedisQueries::handle_begin_add);
  register_typed_handler(rpc, node_, kFinishAdd, this,
                         &RedisQueries::handle_finish_add);
  register_typed_handler(rpc, node_, kQuery, this, &RedisQueries::handle_query);
  register_typed_handler(rpc, node_, kUnpin, this, &RedisQueries::handle_unpin);
  register_typed_handler(rpc, node_, kRetire, this,
                         &RedisQueries::handle_retire);
}

sim::CoTask<void> RedisQueries::charge_op(double extra_cpu_seconds) {
  ++in_flight_;
  double cost = config_.op_seconds +
                config_.conn_poll_seconds * static_cast<double>(in_flight_) +
                extra_cpu_seconds;
  co_await sim_->delay(cost);
  --in_flight_;
}

size_t RedisQueries::published_count() const {
  size_t n = 0;
  for (const auto& [id, e] : entries_) {
    if (e.published) ++n;
  }
  return n;
}

// ---- server-side handlers -------------------------------------------------

sim::CoTask<RedisQueries::BoolResp> RedisQueries::handle_begin_add(
    BeginAddReq req, HandlerContext) {
  BoolResp resp;
  ++stats_.adds;
  co_await charge_op(0);
  co_await metadata_lock_->lock_exclusive();
  auto it = entries_.find(req.id);
  if (it == entries_.end()) {
    Entry e;
    e.id = req.id;
    e.graph = std::move(req.graph);
    e.quality = req.quality;
    e.arch_lock = std::make_unique<sim::Mutex>(*sim_);
    it = entries_.emplace(req.id, std::move(e)).first;
  }
  Entry& entry = it->second;
  // "attempt to acquire the architecture-specific writer lock"
  bool got_arch_lock = !entry.published && entry.arch_lock->locked() == false;
  ++entry.refcount;
  if (got_arch_lock) {
    // Hold the arch lock across the client's PFS weight write; released by
    // finish_add.
    bool ok = entry.arch_lock->try_lock_now();
    (void)ok;
    resp.flag = true;  // caller must write weights, then finish_add
  } else {
    resp.flag = false;  // already registered (or being registered)
  }
  metadata_lock_->unlock_exclusive();
  resp.status = Status::Ok();
  co_return resp;
}

sim::CoTask<RedisQueries::BoolResp> RedisQueries::handle_finish_add(
    IdReq req, HandlerContext) {
  BoolResp resp;
  co_await charge_op(0);
  co_await metadata_lock_->lock_exclusive();
  auto it = entries_.find(req.id);
  if (it == entries_.end()) {
    metadata_lock_->unlock_exclusive();
    resp.status = Status::NotFound("model " + req.id.to_string());
    co_return resp;
  }
  it->second.published = true;
  metadata_lock_->unlock_exclusive();
  it->second.arch_lock->unlock();
  resp.status = Status::Ok();
  co_return resp;
}

sim::CoTask<LcpQueryResponse> RedisQueries::handle_query(LcpQueryRequest req,
                                                        HandlerContext) {
  LcpQueryResponse resp;
  ++stats_.queries;
  co_await charge_op(0);
  co_await metadata_lock_->lock_shared();
  // Redis is single-threaded: the catalog scan serializes on the one CPU
  // even while the reader lock admits concurrent queries.
  co_await cpu_->acquire();
  core::LcpCost cost;
  core::LcpWorkspace ws;
  const model::GraphShape& query = req.graph.shape();
  Entry* best = nullptr;
  size_t scanned = 0;
  for (auto& [id, entry] : entries_) {
    if (!entry.published) continue;
    ++scanned;
    core::LcpResult r = ws.run(query, entry.graph, &cost);
    if (r.length() != 0 &&
        resp.offer(id, entry.quality, std::move(r.matches))) {
      best = &entry;
    }
  }
  stats_.entries_scanned += scanned;
  co_await sim_->delay(
      config_.scan_entry_seconds * static_cast<double>(scanned) +
      config_.lcp_visit_seconds * static_cast<double>(cost.vertex_visits));
  cpu_->release();
  // Pin the winner so a concurrent retire cannot free its weights while the
  // client reads them.
  if (best != nullptr) ++best->refcount;
  metadata_lock_->unlock_shared();
  co_return resp;
}

namespace {
struct DecOutcome {
  bool found = false;
  bool remove_weights = false;
};
}  // namespace

sim::CoTask<RedisQueries::BoolResp> RedisQueries::handle_unpin(
    IdReq req, HandlerContext) {
  BoolResp resp;
  co_await charge_op(0);
  co_await metadata_lock_->lock_exclusive();
  auto it = entries_.find(req.id);
  if (it == entries_.end()) {
    metadata_lock_->unlock_exclusive();
    resp.status = Status::NotFound("model " + req.id.to_string());
    co_return resp;
  }
  Entry& entry = it->second;
  if (--entry.refcount <= 0) {
    // Deferred retirement: take the arch lock, unpublish, free metadata
    // lock; the caller frees the storage, then the arch lock clears.
    co_await entry.arch_lock->lock();
    entry.published = false;
    metadata_lock_->unlock_exclusive();
    entry.arch_lock->unlock();
    resp.flag = true;
  } else {
    metadata_lock_->unlock_exclusive();
  }
  resp.status = Status::Ok();
  co_return resp;
}

sim::CoTask<RedisQueries::BoolResp> RedisQueries::handle_retire(
    IdReq req, HandlerContext ctx) {
  ++stats_.retires;
  co_return co_await handle_unpin(req, ctx);
}

// ---- client-side wrappers ---------------------------------------------------

sim::CoTask<RedisQueries::AddResult> RedisQueries::begin_add(
    // NOLINTNEXTLINE(cppcoreguidelines-avoid-reference-coroutine-parameters)
    NodeId client, ModelId id, const ArchGraph& graph, double quality) {
  BeginAddReq req;
  req.id = id;
  req.quality = quality;
  req.graph = graph;
  auto r = co_await net::typed_call<BoolResp>(rpc_, client, node_, kBeginAdd, req);
  AddResult out;
  if (!r.ok()) {
    out.status = r.status();
  } else {
    out.status = r->status;
    out.need_weights = r->flag;
  }
  co_return out;
}

sim::CoTask<Status> RedisQueries::finish_add(NodeId client, ModelId id) {
  IdReq req{id};
  auto r = co_await net::typed_call<BoolResp>(rpc_, client, node_, kFinishAdd, req);
  if (!r.ok()) co_return r.status();
  co_return r->status;
}

sim::CoTask<Result<LcpQueryResponse>> RedisQueries::query(
    // NOLINTNEXTLINE(cppcoreguidelines-avoid-reference-coroutine-parameters)
    NodeId client, const ArchGraph& graph) {
  LcpQueryRequest req;
  req.graph = graph;
  co_return co_await net::typed_call<LcpQueryResponse>(rpc_, client, node_,
                                                       kQuery, req);
}

sim::CoTask<RedisQueries::UnpinResult> RedisQueries::unpin(NodeId client,
                                                           ModelId id) {
  IdReq req{id};
  auto r = co_await net::typed_call<BoolResp>(rpc_, client, node_, kUnpin, req);
  UnpinResult out;
  if (!r.ok()) {
    out.status = r.status();
  } else {
    out.status = r->status;
    out.remove_weights = r->flag;
  }
  co_return out;
}

sim::CoTask<RedisQueries::RetireResult> RedisQueries::retire(NodeId client,
                                                             ModelId id) {
  IdReq req{id};
  auto r = co_await net::typed_call<BoolResp>(rpc_, client, node_, kRetire, req);
  RetireResult out;
  if (!r.ok()) {
    out.status = r.status();
  } else {
    out.status = r->status;
    out.remove_weights = r->flag;
  }
  co_return out;
}

}  // namespace evostore::baseline
