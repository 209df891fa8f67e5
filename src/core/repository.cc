#include "core/repository.h"

#include <algorithm>

#include "core/records.h"

namespace evostore::core {

namespace {

/// The client incarnation counter, one per backend.
constexpr records::Kind<std::tuple<>, uint64_t> kEpochRecord{"repo/epoch"};

// Read-modify-write the incarnation counter persisted in `backend`.
uint64_t bump_epoch(storage::KvStore& backend) {
  records::Records records(&backend);
  uint64_t epoch = records.get(kEpochRecord, {}).value_or(0) + 1;
  records.put(kEpochRecord, {}, epoch);
  return epoch;
}

}  // namespace

EvoStoreRepository::EvoStoreRepository(net::RpcSystem& rpc,
                                       std::vector<NodeId> provider_nodes,
                                       ProviderConfig config,
                                       std::vector<storage::KvStore*> backends,
                                       ClientConfig client_config)
    : rpc_(&rpc),
      provider_nodes_(std::move(provider_nodes)),
      client_config_(client_config) {
  uint64_t epoch = 1;
  for (storage::KvStore* backend : backends) {
    if (backend != nullptr) epoch = std::max(epoch, bump_epoch(*backend));
  }
  client_config_.token_epoch = epoch;
  // One membership view shared by every client this repository creates: a
  // drain flips liveness once and every placement decision sees it.
  membership_ = std::make_shared<Membership>(provider_nodes_.size(),
                                             client_config_.replication);
  client_config_.membership = membership_;
  providers_.reserve(provider_nodes_.size());
  for (size_t i = 0; i < provider_nodes_.size(); ++i) {
    storage::KvStore* backend = i < backends.size() ? backends[i] : nullptr;
    providers_.push_back(std::make_unique<Provider>(
        rpc, provider_nodes_[i], static_cast<common::ProviderId>(i), config,
        backend));
    if (rpc.fault_injector() != nullptr) {
      rpc.fault_injector()->on_restart(
          provider_nodes_[i], [this, i] {
            providers_[i]->restart();
            // Hinted-handoff replay: every surviving peer that parked writes
            // for this provider pushes them now, in arrival order. The spawn
            // detaches — replay proceeds concurrently with resumed traffic,
            // exactly-once thanks to the replayed requests' own tokens.
            common::ProviderId target = providers_[i]->id();
            for (auto& peer : providers_) {
              if (peer->id() == target) continue;
              if (peer->hint_count_for(target) == 0) continue;
              rpc_->simulation().spawn(
                  peer->replay_hints(target, provider_nodes_[i]));
            }
          });
    }
  }
}

Client& EvoStoreRepository::client(NodeId node) {
  auto it = clients_.find(node);
  if (it == clients_.end()) {
    it = clients_
             .emplace(node, std::make_unique<Client>(*rpc_, node,
                                                     next_client_id_++,
                                                     provider_nodes_,
                                                     client_config_))
             .first;
  }
  return *it->second;
}

sim::CoTask<Result<std::optional<TransferContext>>>
// NOLINTNEXTLINE(cppcoreguidelines-avoid-reference-coroutine-parameters)
EvoStoreRepository::prepare_transfer(NodeId node, const ArchGraph& g,
                                     bool fetch_payload) {
  co_return co_await client(node).prepare_transfer(g, fetch_payload);
}

// NOLINTNEXTLINE(cppcoreguidelines-avoid-reference-coroutine-parameters)
sim::CoTask<Status> EvoStoreRepository::store(NodeId node, const Model& m,
                                              const TransferContext* tc) {
  co_return co_await client(node).put_model(m, tc);
}

sim::CoTask<Result<Model>> EvoStoreRepository::load(NodeId node, ModelId id) {
  co_return co_await client(node).get_model(id);
}

sim::CoTask<Status> EvoStoreRepository::retire(NodeId node, ModelId id) {
  co_return co_await client(node).retire(id);
}

sim::CoTask<Result<Client::ClusterStats>> EvoStoreRepository::collect_stats(
    NodeId node) {
  co_return co_await client(node).collect_stats();
}

size_t EvoStoreRepository::stored_payload_bytes() const {
  size_t n = 0;
  for (const auto& p : providers_) n += p->stored_payload_bytes();
  return n;
}

size_t EvoStoreRepository::stored_physical_bytes() const {
  size_t n = 0;
  for (const auto& p : providers_) n += p->stored_physical_bytes();
  return n;
}

size_t EvoStoreRepository::stored_pre_dedup_physical_bytes() const {
  size_t n = 0;
  for (const auto& p : providers_) n += p->stored_pre_dedup_physical_bytes();
  return n;
}

size_t EvoStoreRepository::total_chunks() const {
  size_t n = 0;
  for (const auto& p : providers_) n += p->chunk_store().chunk_count();
  return n;
}

uint64_t EvoStoreRepository::total_dedup_saved_bytes() const {
  uint64_t n = 0;
  for (const auto& p : providers_) n += p->chunk_store().stats().saved_bytes;
  return n;
}

size_t EvoStoreRepository::total_models() const {
  size_t n = 0;
  for (const auto& p : providers_) n += p->model_count();
  return n;
}

size_t EvoStoreRepository::total_segments() const {
  size_t n = 0;
  for (const auto& p : providers_) n += p->segment_count();
  return n;
}

size_t EvoStoreRepository::total_metadata_bytes() const {
  size_t n = 0;
  for (const auto& p : providers_) n += p->metadata_bytes();
  return n;
}

ClientFaultStats EvoStoreRepository::total_client_fault_stats() const {
  ClientFaultStats total;
  for (const auto& [node, c] : clients_) {
    const ClientFaultStats& s = c->fault_stats();
    total.retries += s.retries;
    total.exhausted += s.exhausted;
    total.partial_lcp_queries += s.partial_lcp_queries;
    total.degraded_transfers += s.degraded_transfers;
    total.read_failovers += s.read_failovers;
    total.hints_sent += s.hints_sent;
  }
  return total;
}

size_t EvoStoreRepository::total_hints() const {
  size_t n = 0;
  for (const auto& p : providers_) n += p->hint_count();
  return n;
}

sim::CoTask<Status> EvoStoreRepository::drain_provider(common::ProviderId p) {
  if (p >= providers_.size()) {
    co_return Status::InvalidArgument("no such provider");
  }
  // Membership flips BEFORE the migration starts: a put landing after this
  // line already targets the post-drain replica set, so nothing new can
  // strand on the leaving provider (it refuses writes once drained anyway).
  membership_->retire_provider(p);
  wire::DrainRequest req;
  req.replication = static_cast<uint32_t>(membership_->replication());
  req.provider_nodes = provider_nodes_;
  req.live = membership_->live_bytes();
  // Intra-node, no deadline: a drain moves a whole catalog and its duration
  // scales with stored volume, not with an RPC budget.
  net::CallOptions opts;
  opts.timeout = -1;
  auto r = co_await net::typed_call<wire::DrainResponse>(
      rpc_, provider_nodes_[p], provider_nodes_[p], Provider::kDrain, req,
      opts);
  if (!r.ok()) co_return r.status();
  co_return r->status;
}

sim::CoTask<Status> EvoStoreRepository::repair_provider(common::ProviderId p) {
  if (p >= providers_.size()) {
    co_return Status::InvalidArgument("no such provider");
  }
  if (obs::EventLog* ev = rpc_->events()) {
    ev->record(rpc_->simulation().now(), "repair.begin", provider_nodes_[p],
               {{"target", obs::EventLog::u64(p)}});
  }
  wire::RepairRequest req;
  req.target = p;
  req.replication = static_cast<uint32_t>(membership_->replication());
  req.provider_nodes = provider_nodes_;
  req.live = membership_->live_bytes();
  Status status;
  for (size_t i = 0; i < providers_.size(); ++i) {
    if (i == p || !membership_->is_live(static_cast<common::ProviderId>(i))) {
      continue;
    }
    net::CallOptions opts;
    opts.timeout = -1;
    auto r = co_await net::typed_call<wire::RepairResponse>(
        rpc_, provider_nodes_[i], provider_nodes_[i], Provider::kRepairPeer,
        req, opts);
    status = combine(status, r.ok() ? r->status : r.status());
  }
  if (status.ok()) {
    // The pushes rebuilt the target from live replica state, which already
    // contains every parked hint's effect; the target's dedup records died
    // with its backend, so replaying those hints would double-apply them.
    for (auto& peer : providers_) {
      if (peer->id() != p) (void)peer->discard_hints_for(p);
    }
  }
  if (obs::EventLog* ev = rpc_->events()) {
    // The analyzer asserts every repair.begin is closed by a repair.end and
    // that the outcome was ok (an interrupted repair is a coverage hole).
    ev->record(rpc_->simulation().now(), "repair.end", provider_nodes_[p],
               {{"target", obs::EventLog::u64(p)},
                {"outcome", status.ok() ? "ok" : status.to_string()}});
  }
  co_return status;
}

uint64_t EvoStoreRepository::total_provider_restarts() const {
  uint64_t n = 0;
  for (const auto& p : providers_) n += p->stats().restarts;
  return n;
}

uint64_t EvoStoreRepository::total_deduped_replays() const {
  uint64_t n = 0;
  for (const auto& p : providers_) n += p->stats().deduped_replays;
  return n;
}

}  // namespace evostore::core
