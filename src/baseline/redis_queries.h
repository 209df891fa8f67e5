// Redis-Queries baseline (paper §5.2): a centralized DL-model metadata
// server with LCP query support, reimplemented faithfully — including the
// exact lock protocol the paper describes.
//
//  add:    global writer metadata lock -> try per-architecture writer lock;
//          on success increment the refcount, drop the metadata lock, let
//          the CLIENT write the weights to the PFS, then re-acquire the
//          metadata writer lock and publish the architecture. If the
//          per-architecture lock is already taken/registered, only the
//          refcount is incremented (no weight write).
//  retire: writer metadata lock; decrement refcount; at zero take the
//          per-architecture lock, unpublish, free storage, unlock.
//  query:  reader metadata lock; iterate over ALL published architectures
//          computing the LCP and retaining the best; increment the winner's
//          refcount (pin) before releasing; the client unpins after the
//          weight transfer, which may trigger deferred retirement.
//
// Performance model: the server runs on one node; LCP scans execute on a
// single-threaded CPU (Redis event loop) and every operation pays a
// per-connection polling overhead that grows with the number of in-flight
// clients — which is what bends the throughput curve down and eventually
// flat-lines it beyond a few dozen concurrent workers (paper Fig. 5).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "core/wire.h"
#include "net/rpc.h"
#include "sim/sync.h"

namespace evostore::baseline {

using common::Hash128;
using common::ModelId;
using common::NodeId;
using common::Result;
using common::Status;
using model::ArchGraph;

struct RedisConfig {
  /// Catalog iteration cost per stored architecture per query (Redis API
  /// fetch + JSON parse; much slower than EvoStore's in-memory compact
  /// graphs).
  double scan_entry_seconds = 1.6e-6;
  /// LCP compute per vertex visit (same algorithm, run client-code-style on
  /// the deserialized form).
  double lcp_visit_seconds = 60e-9;
  /// Fixed cost per server op (command dispatch).
  double op_seconds = 4e-6;
  /// Event-loop polling overhead charged per op per concurrent in-flight op.
  double conn_poll_seconds = 1.2e-6;
};

struct RedisStats {
  uint64_t adds = 0;
  uint64_t queries = 0;
  uint64_t retires = 0;
  uint64_t entries_scanned = 0;

  friend bool operator==(const RedisStats&, const RedisStats&) = default;
};

class RedisQueries {
 public:
  RedisQueries(net::RpcSystem& rpc, NodeId node, RedisConfig config = {});

  NodeId node() const { return node_; }

  // ---- Client-side operations (issue RPCs to the server node) ----

  struct AddResult {
    Status status;
    /// True if this architecture was new and the caller must write the
    /// weights then call finish_add.
    bool need_weights = false;
  };
  sim::CoTask<AddResult> begin_add(NodeId client, ModelId id,
                                   const ArchGraph& graph, double quality);
  sim::CoTask<Status> finish_add(NodeId client, ModelId id);

  /// LCP query over the whole published catalog. On success the winner is
  /// pinned (refcount incremented); call unpin(ancestor) after the weights
  /// have been transferred.
  sim::CoTask<Result<core::wire::LcpQueryResponse>> query(
      NodeId client, const ArchGraph& graph);

  struct UnpinResult {
    Status status;
    /// True when the unpin dropped the last reference and the caller must
    /// delete the weights file.
    bool remove_weights = false;
  };
  sim::CoTask<UnpinResult> unpin(NodeId client, ModelId id);

  /// Retire a model (refcount decrement; unpublish + storage free at zero).
  struct RetireResult {
    Status status;
    bool remove_weights = false;
  };
  sim::CoTask<RetireResult> retire(NodeId client, ModelId id);

  // ---- Introspection ----
  size_t published_count() const;
  const RedisStats& stats() const { return stats_; }
  /// Key under which a model's weights file lives on the PFS.
  static std::string weights_path(ModelId id) {
    return "/repo/" + id.to_string() + ".h5";
  }

 private:
  struct Entry {
    ModelId id;
    ArchGraph graph;
    double quality = 0;
    int32_t refcount = 0;
    bool published = false;
    std::unique_ptr<sim::Mutex> arch_lock;
  };

  // Wire messages (defined with their field lists in the .cc).
  struct BeginAddReq;
  struct BoolResp;
  struct IdReq;

  // Server-side handler bodies (invoked via RPC on node_).
  sim::CoTask<BoolResp> handle_begin_add(BeginAddReq req,
                                         net::HandlerContext ctx);
  sim::CoTask<BoolResp> handle_finish_add(IdReq req, net::HandlerContext ctx);
  sim::CoTask<core::wire::LcpQueryResponse> handle_query(
      core::wire::LcpQueryRequest req, net::HandlerContext ctx);
  sim::CoTask<BoolResp> handle_unpin(IdReq req, net::HandlerContext ctx);
  sim::CoTask<BoolResp> handle_retire(IdReq req, net::HandlerContext ctx);

  sim::CoTask<void> charge_op(double extra_cpu_seconds);

  net::RpcSystem* rpc_;
  sim::Simulation* sim_;
  NodeId node_;
  RedisConfig config_;

  std::unique_ptr<sim::RwLock> metadata_lock_;
  std::unique_ptr<sim::Semaphore> cpu_;  // single-threaded event loop
  std::unordered_map<ModelId, Entry> entries_;
  int in_flight_ = 0;
  RedisStats stats_;
};

}  // namespace evostore::baseline
