#include "net/rpc.h"

#include <coroutine>
#include <optional>

namespace evostore::net {

void RpcSystem::register_handler(NodeId node, std::string method,
                                 RpcHandler handler) {
  // Wrap the legacy context-free form; the context is dropped.
  handlers_[std::make_pair(node, std::move(method))] =
      [h = std::move(handler)](Bytes request, HandlerContext) {
        return h(std::move(request));
      };
}

void RpcSystem::register_handler(NodeId node, std::string method,
                                 RpcHandlerCtx handler) {
  handlers_[std::make_pair(node, std::move(method))] = std::move(handler);
}

void RpcSystem::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics != nullptr) {
    hist_call_seconds_ = metrics->histogram("rpc.call_seconds");
    hist_request_bytes_ = metrics->histogram("rpc.request_bytes");
    hist_response_bytes_ = metrics->histogram("rpc.response_bytes");
    hist_bulk_bytes_ = metrics->histogram("rpc.bulk_bytes");
  } else {
    hist_call_seconds_ = nullptr;
    hist_request_bytes_ = nullptr;
    hist_response_bytes_ = nullptr;
    hist_bulk_bytes_ = nullptr;
  }
}

void RpcSystem::set_service_pool(NodeId node, int slots,
                                 double service_overhead) {
  ServicePool pool;
  pool.slots = std::make_unique<sim::Semaphore>(simulation(), slots);
  pool.overhead = service_overhead;
  pools_[node] = std::move(pool);
}

sim::CoTask<Result<Bytes>> RpcSystem::call(NodeId from, NodeId to,
                                           std::string_view method,
                                           Bytes request, CallOptions options) {
  // The one handler lookup. `method` is not read past it: the entry's key
  // names the method from here on.
  auto it = handlers_.find(std::pair<NodeId, std::string_view>(to, method));
  if (it == handlers_.end()) {
    // Unimplemented, not NotFound: an unregistered handler must stay
    // distinguishable from a provider legitimately answering "not found".
    co_return common::Status::Unimplemented(
        "no handler for '" + std::string(method) + "' on " +
        fabric_->node_name(to));
  }
  const HandlerEntry* entry = &*it;
  double start = simulation().now();
  obs::Span span;
  if (tracer_ != nullptr) {
    span = tracer_->begin("rpc:" + entry->first.second, from, options.parent);
  }
  double timeout = options.timeout != 0 ? options.timeout : default_timeout_;
  // Separate statements, NOT a conditional expression: co_await inside ?:
  // makes shipped GCC destroy the CoTask temporary (and the coroutine frame
  // that owns the response bytes) before the result is consumed.
  std::optional<Result<Bytes>> result;
  if (timeout > 0) {
    result.emplace(co_await race_deadline(
        call_inner(from, to, entry, std::move(request), span.context()),
        timeout, entry, to));
  } else {
    result.emplace(co_await call_inner(from, to, entry, std::move(request),
                                       span.context()));
  }
  if (hist_call_seconds_ != nullptr) {
    hist_call_seconds_->add(simulation().now() - start);
  }
  if (span.active()) {
    span.tag("status", result->ok() ? "ok" : result->status().to_string());
  }
  co_return std::move(*result);
}

sim::CoTask<Result<Bytes>> RpcSystem::call_inner(NodeId from, NodeId to,
                                                 const HandlerEntry* entry,
                                                 Bytes request,
                                                 obs::TraceContext trace) {
  const std::string& method = entry->first.second;
  ++stats_.calls;
  stats_.request_bytes += static_cast<double>(request.size());
  if (hist_request_bytes_ != nullptr) {
    hist_request_bytes_->add(static_cast<double>(request.size()));
  }

  if (injector_ != nullptr) {
    // Destination down up front: the connection attempt is refused after a
    // NACK round trip (fail fast — a refusal is detectable, a loss is not).
    if (!injector_->node_up(to)) {
      injector_->count_rejected();
      ++stats_.unavailable;
      co_await fabric_->signal(from, to);
      co_await fabric_->signal(to, from);
      co_return common::Status::Unavailable(
          "node " + fabric_->node_name(to) + " is down ('" + method + "')");
    }
    if (injector_->should_drop(from, to)) {
      ++stats_.unavailable;
      co_await simulation().delay(injector_->config().loss_detect_seconds);
      co_return common::Status::Unavailable(
          "request for '" + method + "' to " + fabric_->node_name(to) +
          " lost");
    }
    double spike = injector_->latency_spike(from, to);
    if (spike > 0) co_await simulation().delay(spike);
    // Partition across this leg: the request is HELD until the heal (plus a
    // seeded reorder jitter), not dropped. The caller's deadline fires long
    // before; this abandoned frame still delivers the handler's effect after
    // the heal — the late-duplicate ambiguity idempotency tokens absorb.
    double hold = injector_->partition_hold(from, to);
    if (hold > 0) co_await simulation().delay(hold);
  }

  // Request travels to the server.
  co_await fabric_->move_bytes(from, to, static_cast<double>(request.size()));

  // Crash while the request was in flight: it is silently swallowed.
  if (injector_ != nullptr && !injector_->node_up(to)) {
    injector_->count_rejected();
    ++stats_.unavailable;
    co_await simulation().delay(injector_->config().loss_detect_seconds);
    co_return common::Status::Unavailable(
        "node " + fabric_->node_name(to) + " went down before serving '" +
        method + "'");
  }

  // Execute the handler, optionally gated by the node's service pool.
  // `entry->second` is read now, not at lookup: a restart hook may have
  // re-registered the handler while the request was in flight.
  // The serve span opens before any pool wait so queueing time is visible.
  obs::Span serve;
  if (tracer_ != nullptr) serve = tracer_->begin("serve:" + method, to, trace);
  HandlerContext hctx{serve.context()};
  auto pool_it = pools_.find(to);
  Bytes response;
  if (pool_it != pools_.end()) {
    auto& pool = pool_it->second;
    co_await pool.slots->acquire();
    if (pool.overhead > 0) co_await simulation().delay(pool.overhead);
    response = co_await entry->second(std::move(request), hctx);
    pool.slots->release();
  } else {
    response = co_await entry->second(std::move(request), hctx);
  }
  serve.end();

  if (injector_ != nullptr) {
    // Crash during handler execution: effects committed, response lost.
    if (!injector_->node_up(to)) {
      ++stats_.unavailable;
      co_await simulation().delay(injector_->config().loss_detect_seconds);
      co_return common::Status::Unavailable(
          "node " + fabric_->node_name(to) + " crashed answering '" + method +
          "'");
    }
    if (injector_->should_drop(to, from)) {
      ++stats_.unavailable;
      co_await simulation().delay(injector_->config().loss_detect_seconds);
      co_return common::Status::Unavailable(
          "response for '" + method + "' from " + fabric_->node_name(to) +
          " lost");
    }
    double spike = injector_->latency_spike(to, from);
    if (spike > 0) co_await simulation().delay(spike);
    // Partition opened while the handler ran: the response is held until
    // the heal (the request already committed — same ambiguity as a crash
    // after commit, resolved the same way).
    double hold = injector_->partition_hold(to, from);
    if (hold > 0) co_await simulation().delay(hold);
  }

  stats_.response_bytes += static_cast<double>(response.size());
  if (hist_response_bytes_ != nullptr) {
    hist_response_bytes_->add(static_cast<double>(response.size()));
  }
  // Response travels back.
  co_await fabric_->move_bytes(to, from, static_cast<double>(response.size()));
  co_return response;
}

namespace {

// Shared state of one deadline race. The inner task and the deadline
// callback both try to settle it; whichever is first wins and wakes the
// caller. The loser's outcome is discarded.
struct RaceState {
  bool settled = false;
  std::optional<Result<Bytes>> result;
  std::coroutine_handle<> waiter;
};

sim::CoTask<void> drive_inner(sim::Simulation* sim,
                              std::shared_ptr<RaceState> st,
                              sim::CoTask<Result<Bytes>> inner) {
  Result<Bytes> r = co_await std::move(inner);
  if (!st->settled) {
    st->settled = true;
    st->result.emplace(std::move(r));
    if (st->waiter) sim->schedule_handle(sim->now(), st->waiter);
  }
}

}  // namespace

sim::CoTask<Result<Bytes>> RpcSystem::race_deadline(
    sim::CoTask<Result<Bytes>> inner, double timeout,
    const HandlerEntry* entry, NodeId to) {
  auto& sim = simulation();
  auto st = std::make_shared<RaceState>();
  sim.spawn(drive_inner(&sim, st, std::move(inner)));
  uint64_t token = sim.schedule_callback(
      sim.now() + timeout, [this, st, timeout, entry, to] {
        if (st->settled) return;
        st->settled = true;
        ++stats_.deadline_exceeded;
        st->result.emplace(common::Status::DeadlineExceeded(
            "deadline (" + std::to_string(timeout) + "s) exceeded calling '" +
            entry->first.second + "' on " + fabric_->node_name(to)));
        auto& s = simulation();
        if (st->waiter) s.schedule_handle(s.now(), st->waiter);
      });
  // The awaiter holds a plain pointer (the frame-local `st` keeps the state
  // alive for the whole co_await) and is a named local, not a temporary:
  // temporaries with owning captures inside co_await expressions have been
  // double-destroyed by shipped GCC coroutine codegen.
  struct Awaiter {
    RaceState* st;
    bool await_ready() const noexcept { return st->settled; }
    void await_suspend(std::coroutine_handle<> h) { st->waiter = h; }
    void await_resume() const noexcept {}
  };
  Awaiter settle{st.get()};
  co_await settle;
  sim.cancel(token);
  co_return std::move(*st->result);
}

sim::CoTask<common::Status> RpcSystem::bulk(NodeId from, NodeId to,
                                            // NOLINTNEXTLINE(cppcoreguidelines-avoid-reference-coroutine-parameters)
                                            const Buffer& buffer) {
  // Everything this frame needs from `buffer` is read before the first
  // suspension point; the reference must not be touched after a co_await
  // (EVO-CORO-003: the caller's frame may already be gone on resume).
  const double payload_bytes = static_cast<double>(buffer.size());
  ++stats_.bulk_transfers;
  stats_.bulk_bytes += payload_bytes;
  if (hist_bulk_bytes_ != nullptr) {
    hist_bulk_bytes_->add(payload_bytes);
  }
  if (injector_ != nullptr) {
    if (!injector_->node_up(to) || !injector_->node_up(from)) {
      injector_->count_rejected();
      ++stats_.unavailable;
      co_await fabric_->signal(from, to);
      co_await fabric_->signal(to, from);
      co_return common::Status::Unavailable(
          "bulk endpoint down (" + fabric_->node_name(from) + " -> " +
          fabric_->node_name(to) + ")");
    }
    if (injector_->should_drop(from, to)) {
      ++stats_.unavailable;
      co_await simulation().delay(injector_->config().loss_detect_seconds);
      co_return common::Status::Unavailable(
          "bulk transfer " + fabric_->node_name(from) + " -> " +
          fabric_->node_name(to) + " lost");
    }
    double spike = injector_->latency_spike(from, to);
    if (spike > 0) co_await simulation().delay(spike);
    double hold = injector_->partition_hold(from, to);
    if (hold > 0) co_await simulation().delay(hold);
  }
  co_await fabric_->move_bytes(from, to, payload_bytes);
  co_return common::Status::Ok();
}

}  // namespace evostore::net
