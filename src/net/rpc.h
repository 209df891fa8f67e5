// RPC + bulk-transfer layer over the simulated fabric.
//
// Mirrors the Mochi/Thallium split the paper relies on:
//  - `call` is a classic request/response RPC: the (small) serialized request
//    travels to the target node, a registered handler coroutine runs there,
//    and the serialized response travels back.
//  - `bulk` is an RDMA-style transfer: payload bytes cross the NICs without
//    invoking any handler, so providers stay "mostly idle" during data
//    movement (the property §4.1 exploits for collective metadata queries).
//
// Handlers may optionally be gated by a per-node execution semaphore to model
// a bounded service pool (used by the Redis baseline, where the single
// server's CPU is the bottleneck).
//
// Fault semantics (when a FaultInjector is attached, see net/fault.h):
//  - a down destination refuses both RPCs and bulks with Unavailable after a
//    connection-refusal round trip;
//  - a dropped request or response leg surfaces as Unavailable after
//    `loss_detect_seconds` (or as DeadlineExceeded if a sooner deadline is
//    set on the call);
//  - a node that crashes while a handler runs still commits the handler's
//    effects ("crash after commit"), but the response is lost.
// Without an injector and without a deadline the code path is byte-for-byte
// the pre-fault one: no RNG draws, no extra events.
//
// Observability (see obs/trace.h): when a tracer is attached, every call
// opens a client-side span and the server side opens a `serve:` span as its
// remote child. The span context is handed to the server leg in process, as
// an argument, never on the wire: traced and untraced runs move the same
// bytes at the same simulated times. Handlers registered with the
// context-aware signature receive the server span's context so they can
// parent their own spans (e.g. a provider's KV commit) under the RPC.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/buffer.h"
#include "common/serde.h"
#include "common/status.h"
#include "common/types.h"
#include "net/fabric.h"
#include "net/fault.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/sync.h"

namespace evostore::net {

using common::Buffer;
using common::Bytes;
using common::Result;

/// Server-side per-call context. `trace` is the serve-span context when a
/// tracer is attached (invalid otherwise); handlers parent their own spans
/// under it.
struct HandlerContext {
  obs::TraceContext trace{};
};

/// A handler receives the request bytes and produces response bytes.
using RpcHandler = std::function<sim::CoTask<Bytes>(Bytes)>;
/// Context-aware handler form. Overload resolution between the two
/// register_handler signatures is unambiguous: std::function's converting
/// constructor only accepts callables invocable with its exact argument
/// list, so a one-argument lambda matches RpcHandler and a two-argument
/// lambda matches RpcHandlerCtx.
using RpcHandlerCtx = std::function<sim::CoTask<Bytes>(Bytes, HandlerContext)>;

struct RpcStats {
  uint64_t calls = 0;
  uint64_t bulk_transfers = 0;
  double bulk_bytes = 0;
  double request_bytes = 0;
  double response_bytes = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t unavailable = 0;
};

/// Per-call knobs.
struct CallOptions {
  /// Deadline in simulated seconds. 0 uses the system default
  /// (`set_default_timeout`); negative disables the deadline for this call.
  double timeout = 0;
  /// Parent span for the client-side RPC span (ignored when no tracer is
  /// attached). Invalid -> the RPC span roots a new trace.
  obs::TraceContext parent{};
};

class RpcSystem {
 public:
  explicit RpcSystem(Fabric& fabric) : fabric_(&fabric) {}

  Fabric& fabric() { return *fabric_; }
  sim::Simulation& simulation() { return fabric_->simulation(); }

  /// Attach a fault injector consulted on every message leg. Must outlive
  /// the RpcSystem. nullptr detaches.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() { return injector_; }

  /// Deadline applied to calls whose CallOptions leave timeout == 0.
  /// 0 (the default) means no deadline.
  void set_default_timeout(double seconds) { default_timeout_ = seconds; }

  /// Attach a tracer: every call opens client/server spans. Recording only:
  /// wire bytes and simulated timings do not change. Must outlive in-flight
  /// calls. nullptr detaches.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() { return tracer_; }

  /// Attach a metrics registry for call-latency / wire-size histograms.
  /// Histogram pointers are cached here; clients and providers also read
  /// this at construction to cache their own. nullptr detaches.
  void set_metrics(obs::MetricsRegistry* metrics);
  obs::MetricsRegistry* metrics() { return metrics_; }

  /// Attach a flight recorder (obs/events.h). The RpcSystem itself records
  /// nothing; it is the distribution point clients, providers, and the
  /// fault injector read their `EventLog*` through. Recording is pure
  /// memory append — it never changes wire bytes or simulated timings, so
  /// it is safe under `--verify`. nullptr detaches.
  void set_events(obs::EventLog* events) { events_ = events; }
  obs::EventLog* events() { return events_; }

  /// Register `handler` for (node, method). Replaces any previous handler.
  void register_handler(NodeId node, std::string method, RpcHandler handler);
  void register_handler(NodeId node, std::string method,
                        RpcHandlerCtx handler);

  /// Gate all handler executions on `node` behind `slots` concurrent
  /// executors, each charging `service_overhead` seconds per call (models a
  /// bounded RPC thread pool / single-threaded server loop).
  void set_service_pool(NodeId node, int slots, double service_overhead);

  /// Issue an RPC. The returned bytes are the handler's response.
  /// Fails with Unimplemented if no handler is registered (distinct from a
  /// provider legitimately answering NotFound), Unavailable if the target is
  /// down or the message was lost, DeadlineExceeded if the deadline fires.
  /// `method` is read only before the call first suspends; from then on the
  /// call uses the name its handler was registered under.
  sim::CoTask<Result<Bytes>> call(NodeId from, NodeId to,
                                  std::string_view method, Bytes request,
                                  CallOptions options = {});

  /// RDMA-style payload movement: `buffer.size()` bytes cross from `from`
  /// to `to` with no handler involvement. Content travels logically (the
  /// caller hands the Buffer to whatever registered it). Fails with
  /// Unavailable when the destination is down or the transfer is dropped.
  sim::CoTask<common::Status> bulk(NodeId from, NodeId to,
                                   const Buffer& buffer);

  const RpcStats& stats() const { return stats_; }

 private:
  struct ServicePool {
    std::unique_ptr<sim::Semaphore> slots;
    double overhead = 0;
  };

  // (node, method) -> handler. Looked up by (node, method view), so a call
  // builds no key string. Handlers are replaced, never erased: an entry,
  // and the method name its key holds, live as long as the RpcSystem.
  struct KeyLess {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      return std::pair<NodeId, std::string_view>(a.first, a.second) <
             std::pair<NodeId, std::string_view>(b.first, b.second);
    }
  };
  using HandlerTable =
      std::map<std::pair<NodeId, std::string>, RpcHandlerCtx, KeyLess>;
  using HandlerEntry = HandlerTable::value_type;

  // The call body without deadline handling (raced against the timer when a
  // deadline is set; run directly otherwise). Takes the handler's table
  // entry, not the caller's method name: when the deadline loses the race
  // the abandoned frame keeps running after the caller's arguments are
  // gone, and the entry outlives it. `trace` is the client span's context,
  // the parent of the server's `serve:` span.
  sim::CoTask<Result<Bytes>> call_inner(NodeId from, NodeId to,
                                        const HandlerEntry* entry,
                                        Bytes request, obs::TraceContext trace);
  // Race `inner` against a deadline `timeout` seconds from now.
  sim::CoTask<Result<Bytes>> race_deadline(sim::CoTask<Result<Bytes>> inner,
                                           double timeout,
                                           const HandlerEntry* entry,
                                           NodeId to);

  Fabric* fabric_;
  FaultInjector* injector_ = nullptr;
  double default_timeout_ = 0;
  HandlerTable handlers_;
  std::map<NodeId, ServicePool> pools_;
  RpcStats stats_;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::EventLog* events_ = nullptr;
  // Cached histogram pointers (stable for the registry's lifetime); null
  // when no registry is attached, so the untraced hot path is one branch.
  obs::Histogram* hist_call_seconds_ = nullptr;
  obs::Histogram* hist_request_bytes_ = nullptr;
  obs::Histogram* hist_response_bytes_ = nullptr;
  obs::Histogram* hist_bulk_bytes_ = nullptr;
};

/// The call behind `typed_call`, for a request already encoded: send
/// `request` as is and decode the response. A fan-out encodes its request
/// once and sends each leg and each retry a copy of those bytes.
/// A malformed response is annotated with the method and target node so the
/// failure is attributable without a packet trace. The server-side twin is
/// `register_typed_handler`.
/// `rpc` and `method` are pointers because both are used after the call
/// suspends (EVO-CORO-003: the caller's frame may be gone when this
/// coroutine resumes). `method` must be a static name, as every method
/// constant is.
template <typename Response>
sim::CoTask<Result<Response>> typed_call_encoded(RpcSystem* rpc, NodeId from,
                                                 NodeId to, const char* method,
                                                 Bytes request,
                                                 CallOptions options = {}) {
  auto raw = co_await rpc->call(from, to, method, std::move(request), options);
  if (!raw.ok()) co_return raw.status();
  common::Deserializer d(raw.value());
  Response resp = Response::deserialize(d);
  if (!d.ok()) {
    co_return common::Status(
        d.status().code(),
        "deserializing '" + std::string(method) + "' response from " +
            rpc->fabric().node_name(to) + ": " + d.status().message());
  }
  co_return resp;
}

/// Convenience: serialize a request struct, call, deserialize the response.
/// Request/Response must provide `void serialize(common::Serializer&) const`
/// and `static Response deserialize(common::Deserializer&)`. The request is
/// encoded here, before this returns, so the task never reads it.
template <typename Response, typename Request>
sim::CoTask<Result<Response>> typed_call(RpcSystem* rpc, NodeId from, NodeId to,
                                         const char* method,
                                         const Request& request,
                                         CallOptions options = {}) {
  common::Serializer s;
  request.serialize(s);
  return typed_call_encoded<Response>(rpc, from, to, method,
                                      std::move(s).take(), options);
}

namespace detail {

// Decode, dispatch, encode: the body behind every typed registration.
template <typename Owner, typename Request, typename Response>
sim::CoTask<Bytes> serve_typed(
    Owner* owner,
    sim::CoTask<Response> (Owner::*handler)(Request, HandlerContext),
    Bytes request, HandlerContext ctx) {
  common::Deserializer d(request);
  Request req = Request::deserialize(d);
  Response resp{};
  if (d.ok()) {
    resp = co_await (owner->*handler)(std::move(req), ctx);
  } else if constexpr (requires { resp.status = d.status(); }) {
    resp.status = d.status();
  }
  common::Serializer s;
  resp.serialize(s);
  co_return std::move(s).take();
}

}  // namespace detail

/// Server-side twin of `typed_call`: serve (node, method) with the member
/// coroutine `owner->handler(Request, HandlerContext) -> CoTask<Response>`.
/// The request is decoded here and the response encoded here. A request
/// that does not decode is answered at once — with the decode status when
/// Response has a `status` member, else with a default Response — and the
/// handler never runs, so a malformed request touches no state. `owner`
/// must outlive the registration.
template <typename Owner, typename Request, typename Response>
void register_typed_handler(
    RpcSystem& rpc, NodeId node, std::string method, Owner* owner,
    sim::CoTask<Response> (Owner::*handler)(Request, HandlerContext)) {
  rpc.register_handler(node, std::move(method),
                       [owner, handler](Bytes request, HandlerContext ctx) {
                         return detail::serve_typed(owner, handler,
                                                    std::move(request), ctx);
                       });
}

}  // namespace evostore::net
