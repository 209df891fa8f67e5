#include "net/rpc.h"

#include <gtest/gtest.h>

namespace evostore::net {
namespace {

using common::Bytes;
using common::Deserializer;
using common::Serializer;
using sim::CoTask;
using sim::Simulation;

struct Env {
  Simulation sim;
  Fabric fabric;
  RpcSystem rpc;
  NodeId a;
  NodeId b;

  Env()
      : fabric(sim, FabricConfig{.latency = 0.001, .local_latency = 0.0001}),
        rpc(fabric) {
    a = fabric.add_node(1000.0, 1000.0);
    b = fabric.add_node(1000.0, 1000.0);
  }
};

Bytes to_bytes(const std::string& s) {
  Serializer ser;
  ser.str(s);
  return std::move(ser).take();
}

std::string from_bytes(const Bytes& b) {
  Deserializer d(b);
  return d.str();
}

TEST(Rpc, EchoHandler) {
  Env env;
  env.rpc.register_handler(env.b, "echo", [](Bytes req) -> CoTask<Bytes> {
    co_return req;
  });
  auto task = [&]() -> CoTask<std::string> {
    auto r = co_await env.rpc.call(env.a, env.b, "echo", to_bytes("ping"));
    EXPECT_TRUE(r.ok());
    co_return from_bytes(r.value());
  };
  EXPECT_EQ(env.sim.run_until_complete(task()), "ping");
  EXPECT_EQ(env.rpc.stats().calls, 1u);
}

TEST(Rpc, MissingHandlerIsUnimplemented) {
  // Unimplemented, not NotFound: callers must be able to tell "no such
  // handler" apart from a provider legitimately answering NotFound.
  Env env;
  auto task = [&]() -> CoTask<common::Status> {
    auto r = co_await env.rpc.call(env.a, env.b, "nope", Bytes{});
    co_return r.status();
  };
  auto st = env.sim.run_until_complete(task());
  EXPECT_EQ(st.code(), common::ErrorCode::kUnimplemented);
  EXPECT_FALSE(common::is_retryable(st.code()));
}

TEST(Rpc, DeadlineExceededWhenHandlerTooSlow) {
  Env env;
  env.rpc.register_handler(env.b, "slow", [sim = &env.sim](Bytes) -> CoTask<Bytes> {
    co_await sim->delay(10.0);
    co_return Bytes{};
  });
  auto task = [&]() -> CoTask<common::Status> {
    auto r = co_await env.rpc.call(env.a, env.b, "slow", Bytes{},
                                   CallOptions{.timeout = 0.5});
    co_return r.status();
  };
  auto st = env.sim.run_until_complete(task());
  EXPECT_EQ(st.code(), common::ErrorCode::kDeadlineExceeded);
  EXPECT_TRUE(common::is_retryable(st.code()));
  EXPECT_EQ(env.rpc.stats().deadline_exceeded, 1u);
}

TEST(Rpc, DeadlineFiresAtExactlyTimeoutSeconds) {
  Env env;
  env.rpc.register_handler(env.b, "slow", [sim = &env.sim](Bytes) -> CoTask<Bytes> {
    co_await sim->delay(10.0);
    co_return Bytes{};
  });
  auto task = [&]() -> CoTask<double> {
    auto r = co_await env.rpc.call(env.a, env.b, "slow", Bytes{},
                                   CallOptions{.timeout = 0.25});
    EXPECT_FALSE(r.ok());
    co_return env.sim.now();
  };
  EXPECT_NEAR(env.sim.run_until_complete(task()), 0.25, 1e-9);
}

TEST(Rpc, FastCallUnaffectedByDeadline) {
  Env env;
  env.rpc.register_handler(env.b, "echo", [](Bytes req) -> CoTask<Bytes> {
    co_return req;
  });
  auto task = [&]() -> CoTask<std::string> {
    auto r = co_await env.rpc.call(env.a, env.b, "echo", to_bytes("hi"),
                                   CallOptions{.timeout = 5.0});
    EXPECT_TRUE(r.ok());
    co_return from_bytes(r.value());
  };
  EXPECT_EQ(env.sim.run_until_complete(task()), "hi");
  EXPECT_EQ(env.rpc.stats().deadline_exceeded, 0u);
}

TEST(Rpc, DefaultTimeoutAppliesWhenOptionsLeaveZero) {
  Env env;
  env.rpc.set_default_timeout(0.1);
  env.rpc.register_handler(env.b, "slow", [sim = &env.sim](Bytes) -> CoTask<Bytes> {
    co_await sim->delay(10.0);
    co_return Bytes{};
  });
  auto task = [&]() -> CoTask<common::Status> {
    auto r = co_await env.rpc.call(env.a, env.b, "slow", Bytes{});
    co_return r.status();
  };
  EXPECT_EQ(env.sim.run_until_complete(task()).code(),
            common::ErrorCode::kDeadlineExceeded);
}

TEST(Rpc, NegativeTimeoutDisablesDefaultDeadline) {
  Env env;
  env.rpc.set_default_timeout(0.1);
  env.rpc.register_handler(env.b, "slow", [sim = &env.sim](Bytes) -> CoTask<Bytes> {
    co_await sim->delay(1.0);
    co_return Bytes{};
  });
  auto task = [&]() -> CoTask<bool> {
    auto r = co_await env.rpc.call(env.a, env.b, "slow", Bytes{},
                                   CallOptions{.timeout = -1});
    co_return r.ok();
  };
  EXPECT_TRUE(env.sim.run_until_complete(task()));
}

TEST(Rpc, TypedCallAnnotatesMalformedResponse) {
  Env env;
  env.rpc.register_handler(env.b, "meta", [](Bytes) -> CoTask<Bytes> {
    co_return Bytes{0x01};  // too short for any real response struct
  });
  struct Probe {
    void serialize(Serializer& s) const { s.u32(1); }
    static Probe deserialize(Deserializer& d) {
      d.u64();
      d.str();
      return {};
    }
  };
  auto task = [&]() -> CoTask<common::Status> {
    auto r = co_await typed_call<Probe>(&env.rpc, env.a, env.b, "meta", Probe{});
    co_return r.status();
  };
  auto st = env.sim.run_until_complete(task());
  EXPECT_FALSE(st.ok());
  // The failure must be attributable: method and target node in the message.
  EXPECT_NE(st.message().find("'meta'"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find(env.fabric.node_name(env.b)), std::string::npos)
      << st.message();
}

TEST(Rpc, HandlerReplacement) {
  Env env;
  env.rpc.register_handler(env.b, "f", [](Bytes) -> CoTask<Bytes> {
    co_return to_bytes("v1");
  });
  env.rpc.register_handler(env.b, "f", [](Bytes) -> CoTask<Bytes> {
    co_return to_bytes("v2");
  });
  auto task = [&]() -> CoTask<std::string> {
    auto r = co_await env.rpc.call(env.a, env.b, "f", Bytes{});
    co_return from_bytes(r.value());
  };
  EXPECT_EQ(env.sim.run_until_complete(task()), "v2");
}

TEST(Rpc, RoundTripPaysTwoLatencies) {
  Env env;
  env.rpc.register_handler(env.b, "f", [](Bytes) -> CoTask<Bytes> {
    co_return Bytes{};
  });
  auto task = [&]() -> CoTask<double> {
    auto r = co_await env.rpc.call(env.a, env.b, "f", Bytes{});
    EXPECT_TRUE(r.ok());
    co_return env.sim.now();
  };
  EXPECT_NEAR(env.sim.run_until_complete(task()), 0.002, 1e-9);
}

TEST(Rpc, HandlerCanAwait) {
  Env env;
  env.rpc.register_handler(env.b, "slow", [sim = &env.sim](Bytes) -> CoTask<Bytes> {
    co_await sim->delay(1.0);
    co_return Bytes{};  // empty response: no bandwidth term in the check
  });
  auto task = [&]() -> CoTask<double> {
    auto r = co_await env.rpc.call(env.a, env.b, "slow", Bytes{});
    EXPECT_TRUE(r.ok());
    co_return env.sim.now();
  };
  EXPECT_NEAR(env.sim.run_until_complete(task()), 1.002, 1e-9);
}

TEST(Rpc, ServicePoolSerializesHandlers) {
  Env env;
  env.rpc.set_service_pool(env.b, 1, 0.0);
  env.rpc.register_handler(env.b, "slow", [sim = &env.sim](Bytes) -> CoTask<Bytes> {
    co_await sim->delay(1.0);
    co_return Bytes{};
  });
  auto call_once = [&]() -> CoTask<void> {
    auto r = co_await env.rpc.call(env.a, env.b, "slow", Bytes{});
    EXPECT_TRUE(r.ok());
  };
  auto f1 = env.sim.spawn(call_once());
  auto f2 = env.sim.spawn(call_once());
  auto f3 = env.sim.spawn(call_once());
  env.sim.run();
  (void)f1; (void)f2; (void)f3;
  // Three 1s handlers through a single slot: ~3s total.
  EXPECT_NEAR(env.sim.now(), 3.002, 1e-6);
}

TEST(Rpc, ServicePoolOverheadCharged) {
  Env env;
  env.rpc.set_service_pool(env.b, 4, 0.5);
  env.rpc.register_handler(env.b, "f", [](Bytes) -> CoTask<Bytes> {
    co_return Bytes{};
  });
  auto task = [&]() -> CoTask<double> {
    auto r = co_await env.rpc.call(env.a, env.b, "f", Bytes{});
    EXPECT_TRUE(r.ok());
    co_return env.sim.now();
  };
  EXPECT_NEAR(env.sim.run_until_complete(task()), 0.502, 1e-9);
}

TEST(Rpc, BulkChargesBytesAndStats) {
  Env env;
  auto task = [&]() -> CoTask<double> {
    auto st = co_await env.rpc.bulk(env.a, env.b,
                                    common::Buffer::synthetic(500.0 * 1000, 1));
    EXPECT_TRUE(st.ok());
    co_return env.sim.now();
  };
  // 500000 bytes over 1000 B/s NIC + 1ms latency.
  EXPECT_NEAR(env.sim.run_until_complete(task()), 500.001, 1e-6);
  EXPECT_EQ(env.rpc.stats().bulk_transfers, 1u);
  EXPECT_DOUBLE_EQ(env.rpc.stats().bulk_bytes, 500000.0);
}

TEST(Rpc, PayloadSizeAffectsTransferTime) {
  Env env;
  env.rpc.register_handler(env.b, "f", [](Bytes) -> CoTask<Bytes> {
    co_return Bytes{};
  });
  auto task = [&]() -> CoTask<double> {
    auto r = co_await env.rpc.call(env.a, env.b, "f", Bytes(10000));
    EXPECT_TRUE(r.ok());
    co_return env.sim.now();
  };
  // 10000 bytes at 1000 B/s = 10s + 2 latencies.
  EXPECT_NEAR(env.sim.run_until_complete(task()), 10.002, 1e-6);
}

struct PingReq {
  int64_t x = 0;
  void serialize(Serializer& s) const { s.i64(x); }
  static PingReq deserialize(Deserializer& d) { return PingReq{d.i64()}; }
};
struct PingResp {
  int64_t y = 0;
  void serialize(Serializer& s) const { s.i64(y); }
  static PingResp deserialize(Deserializer& d) { return PingResp{d.i64()}; }
};

TEST(Rpc, TypedCallRoundTrip) {
  Env env;
  env.rpc.register_handler(env.b, "double", [](Bytes req) -> CoTask<Bytes> {
    Deserializer d(req);
    auto in = PingReq::deserialize(d);
    Serializer s;
    PingResp{in.x * 2}.serialize(s);
    co_return std::move(s).take();
  });
  auto task = [&]() -> CoTask<int64_t> {
    auto r = co_await typed_call<PingResp>(&env.rpc, env.a, env.b, "double",
                                           PingReq{21});
    EXPECT_TRUE(r.ok());
    co_return r->y;
  };
  EXPECT_EQ(env.sim.run_until_complete(task()), 42);
}

TEST(Rpc, TypedCallDetectsGarbageResponse) {
  Env env;
  env.rpc.register_handler(env.b, "garbage", [](Bytes) -> CoTask<Bytes> {
    co_return Bytes{std::byte{0xff}, std::byte{0xff}, std::byte{0xff},
                    std::byte{0xff}, std::byte{0xff}, std::byte{0xff},
                    std::byte{0xff}, std::byte{0xff}, std::byte{0xff},
                    std::byte{0xff}, std::byte{0xff}};
  });
  auto task = [&]() -> CoTask<bool> {
    auto r = co_await typed_call<PingResp>(&env.rpc, env.a, env.b, "garbage",
                                           PingReq{1});
    co_return r.ok();
  };
  EXPECT_FALSE(env.sim.run_until_complete(task()));
}

// A typed endpoint: counts its invocations so a test can see whether the
// handler ran at all.
struct Doubler {
  int calls = 0;
  CoTask<PingResp> twice(PingReq req, HandlerContext) {
    ++calls;
    co_return PingResp{req.x * 2};
  }
};

TEST(Rpc, TypedHandlerDecodesDispatchesAndEncodes) {
  Env env;
  Doubler doubler;
  register_typed_handler(env.rpc, env.b, "double", &doubler, &Doubler::twice);
  auto typed = env.sim.run_until_complete(
      typed_call<PingResp>(&env.rpc, env.a, env.b, "double", PingReq{21}));
  ASSERT_TRUE(typed.ok());
  EXPECT_EQ(typed->y, 42);
  EXPECT_EQ(doubler.calls, 1);

  // A request that does not decode gets the default response (PingResp has
  // no status member) and the handler never runs.
  auto raw = env.sim.run_until_complete(
      env.rpc.call(env.a, env.b, "double", Bytes{std::byte{0x80}}));
  ASSERT_TRUE(raw.ok());
  Deserializer d(raw.value());
  EXPECT_EQ(PingResp::deserialize(d).y, 0);
  EXPECT_TRUE(d.finish().ok());
  EXPECT_EQ(doubler.calls, 1);
}

// One fixed mix of calls: plain, pooled, slow-handler, deadline-bounded.
// Returns each call's completion time, then runs the simulation dry (the
// deadline-abandoned handler finishes too).
std::vector<double> run_call_mix(Env& env) {
  env.rpc.register_handler(env.b, "echo", [](Bytes req) -> CoTask<Bytes> {
    co_return req;
  });
  env.rpc.register_handler(env.b, "slow", [sim = &env.sim](Bytes) -> CoTask<Bytes> {
    co_await sim->delay(0.5);
    co_return Bytes(300);
  });
  NodeId pooled = env.fabric.add_node(1000.0, 1000.0);
  env.rpc.set_service_pool(pooled, 1, 0.01);
  env.rpc.register_handler(pooled, "echo", [](Bytes req) -> CoTask<Bytes> {
    co_return req;
  });
  auto task = [](Env* e, NodeId pool_node) -> CoTask<std::vector<double>> {
    std::vector<double> done;
    (void)co_await e->rpc.call(e->a, e->b, "echo", Bytes(1000));
    done.push_back(e->sim.now());
    (void)co_await e->rpc.call(e->a, pool_node, "echo", Bytes(40));
    done.push_back(e->sim.now());
    (void)co_await e->rpc.call(e->a, e->b, "slow", Bytes(7));
    done.push_back(e->sim.now());
    (void)co_await e->rpc.call(e->a, e->b, "slow", Bytes(7),
                               CallOptions{.timeout = 0.2});
    done.push_back(e->sim.now());
    co_return done;
  };
  std::vector<double> done = env.sim.run_until_complete(task(&env, pooled));
  env.sim.run();
  return done;
}

TEST(Rpc, TracingMovesNoBytesAndShiftsNoTimes) {
  Env plain;
  Env traced;
  obs::Tracer tracer(traced.sim);
  traced.rpc.set_tracer(&tracer);
  EXPECT_EQ(run_call_mix(traced), run_call_mix(plain));
  EXPECT_EQ(traced.sim.now(), plain.sim.now());
  const RpcStats& t = traced.rpc.stats();
  const RpcStats& p = plain.rpc.stats();
  EXPECT_EQ(t.calls, p.calls);
  EXPECT_EQ(t.request_bytes, p.request_bytes);
  EXPECT_EQ(t.response_bytes, p.response_bytes);
  EXPECT_EQ(t.deadline_exceeded, 1u);
  EXPECT_EQ(p.deadline_exceeded, 1u);
  // The context still links each server span to its client span.
  size_t serve_spans = 0;
  for (const obs::SpanRecord& r : tracer.records()) {
    if (r.name.rfind("serve:", 0) != 0) continue;
    ++serve_spans;
    EXPECT_NE(r.parent_span_id, 0u) << r.name;
  }
  EXPECT_EQ(serve_spans, 4u);
}

}  // namespace
}  // namespace evostore::net
