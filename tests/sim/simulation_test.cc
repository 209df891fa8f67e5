#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/rng.h"

namespace evostore::sim {
namespace {

CoTask<int> immediate(int v) { co_return v; }

CoTask<int> delayed(Simulation& sim, double dt, int v) {
  co_await sim.delay(dt);
  co_return v;
}

CoTask<void> record_at(Simulation* sim, double dt, std::vector<double>* out) {
  co_await sim->delay(dt);
  out->push_back(sim->now());
}

TEST(Simulation, StartsAtTimeZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.steps(), 0u);
}

TEST(Simulation, RunUntilCompleteReturnsValue) {
  Simulation sim;
  EXPECT_EQ(sim.run_until_complete(immediate(42)), 42);
}

TEST(Simulation, DelayAdvancesVirtualClock) {
  Simulation sim;
  int v = sim.run_until_complete(delayed(sim, 2.5, 9));
  EXPECT_EQ(v, 9);
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
}

TEST(Simulation, SequentialDelaysAccumulate) {
  Simulation sim;
  auto task = [&]() -> CoTask<void> {
    co_await sim.delay(1.0);
    co_await sim.delay(2.0);
    co_await sim.delay(0.5);
  };
  sim.run_until_complete(task());
  EXPECT_DOUBLE_EQ(sim.now(), 3.5);
}

TEST(Simulation, SpawnedTasksRunConcurrently) {
  Simulation sim;
  std::vector<double> times;
  auto main_task = [&](Simulation& s) -> CoTask<void> {
    auto f1 = s.spawn(record_at(&s, 3.0, &times));
    auto f2 = s.spawn(record_at(&s, 1.0, &times));
    auto f3 = s.spawn(record_at(&s, 2.0, &times));
    co_await f1;
    co_await f2;
    co_await f3;
  };
  sim.run_until_complete(main_task(sim));
  // Concurrent, not sequential: finishes at max(3,1,2), ordered by wake time.
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
  EXPECT_DOUBLE_EQ(times[2], 3.0);
}

TEST(Simulation, FutureDeliversResultToMultipleWaiters) {
  Simulation sim;
  auto fut = sim.spawn(delayed(sim, 1.0, 5));
  auto waiter = [](Future<int> f) -> CoTask<int> { co_return co_await f * 2; };
  auto w1 = sim.spawn(waiter(fut));
  auto w2 = sim.spawn(waiter(fut));
  sim.run();
  EXPECT_EQ(w1.get(), 10);
  EXPECT_EQ(w2.get(), 10);
}

// A result that counts its copies (moves are free).
struct CopyCounted {
  static inline int copies = 0;
  std::vector<int> payload;

  explicit CopyCounted(std::vector<int> p) : payload(std::move(p)) {}
  CopyCounted(const CopyCounted& o) : payload(o.payload) { ++copies; }
  CopyCounted(CopyCounted&&) = default;
  CopyCounted& operator=(const CopyCounted& o) {
    payload = o.payload;
    ++copies;
    return *this;
  }
  CopyCounted& operator=(CopyCounted&&) = default;
};

CoTask<CopyCounted> counted(Simulation& sim) {
  co_await sim.delay(1.0);
  co_return CopyCounted({1, 2, 3});
}

TEST(Simulation, SingleConsumerMovesFutureResultOut) {
  Simulation sim;
  CopyCounted::copies = 0;
  auto consumer = [](Future<CopyCounted> f) -> CoTask<std::vector<int>> {
    CopyCounted v = co_await std::move(f);
    EXPECT_FALSE(f.valid());
    co_return std::move(v.payload);
  };
  auto out = sim.spawn(consumer(sim.spawn(counted(sim))));
  sim.run();
  EXPECT_EQ(std::move(out).get(), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(CopyCounted::copies, 0);

  // Outside a coroutine, the rvalue get() moves the result out too.
  auto direct = sim.spawn(counted(sim));
  sim.run();
  EXPECT_EQ(std::move(direct).get().payload, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.run_until_complete(counted(sim)).payload.size(), 3u);
  EXPECT_EQ(CopyCounted::copies, 0);
}

TEST(Simulation, SharedFutureCopiesItsResultToEachAwaiter) {
  Simulation sim;
  CopyCounted::copies = 0;
  auto waiter = [](Future<CopyCounted> f) -> CoTask<std::vector<int>> {
    CopyCounted v = co_await f;
    co_return std::move(v.payload);
  };
  auto fut = sim.spawn(counted(sim));
  auto w1 = sim.spawn(waiter(fut));
  auto w2 = sim.spawn(waiter(fut));
  sim.run();
  EXPECT_EQ(CopyCounted::copies, 2);
  EXPECT_EQ(std::move(w1).get(), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(std::move(w2).get(), (std::vector<int>{1, 2, 3}));
  // The future itself still holds the intact result.
  EXPECT_EQ(fut.get().payload, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, AwaitingCompletedFutureIsImmediate) {
  Simulation sim;
  auto fut = sim.spawn(immediate(1));
  sim.run();
  ASSERT_TRUE(fut.done());
  auto late = [&](Future<int> f) -> CoTask<int> {
    double t0 = sim.now();
    int v = co_await f;
    EXPECT_EQ(sim.now(), t0);
    co_return v;
  };
  EXPECT_EQ(sim.run_until_complete(late(fut)), 1);
}

TEST(Simulation, EqualTimeEventsFireInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_callback(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, CancelledCallbackDoesNotFire) {
  Simulation sim;
  bool fired = false;
  uint64_t token = sim.schedule_callback(1.0, [&] { fired = true; });
  sim.cancel(token);
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);  // the slot still drains
}

TEST(Simulation, CancelAfterFireIsNoop) {
  Simulation sim;
  int count = 0;
  uint64_t token = sim.schedule_callback(1.0, [&] { ++count; });
  sim.run();
  sim.cancel(token);  // must not crash or double-fire
  EXPECT_EQ(count, 1);
}

// Cancellation is a point operation on the pending set: cancelling any
// scrambled subset, before the run or from a callback mid-run, leaves
// exactly the rest to fire, in (time, sequence) order.
TEST(Simulation, CancelScrambledSubsetFiresExactlyTheRestInOrder) {
  Simulation sim;
  common::Xoshiro256 rng(61);
  constexpr size_t kCount = 4000;
  constexpr double kMidRun = 25.0;
  std::vector<double> at(kCount);
  std::vector<uint64_t> tokens(kCount);
  std::vector<size_t> fired;
  for (size_t i = 0; i < kCount; ++i) {
    at[i] = static_cast<double>(rng.below(50));  // many equal times
    tokens[i] =
        sim.schedule_callback(at[i], [&fired, i] { fired.push_back(i); });
  }
  std::vector<size_t> order(kCount);
  std::iota(order.begin(), order.end(), size_t{0});
  for (size_t i = kCount - 1; i > 0; --i) {
    std::swap(order[i], order[rng.below(i + 1)]);
  }
  std::vector<bool> cancelled(kCount, false);
  for (size_t j = 0; j < kCount / 3; ++j) {
    sim.cancel(tokens[order[j]]);
    cancelled[order[j]] = true;
  }
  // From inside the run: cancel a further scrambled slice of what is still
  // pending after kMidRun, and re-cancel some already-cancelled ones.
  std::vector<size_t> later;
  for (size_t j = kCount / 3; j < kCount / 2; ++j) {
    if (at[order[j]] > kMidRun) later.push_back(order[j]);
  }
  (void)sim.schedule_callback(kMidRun, [&] {
    for (size_t i : later) sim.cancel(tokens[i]);
    for (size_t j = 0; j < 100; ++j) sim.cancel(tokens[order[j]]);
  });
  for (size_t i : later) cancelled[i] = true;
  sim.run();

  std::vector<size_t> expected;
  for (size_t i = 0; i < kCount; ++i) {
    if (!cancelled[i]) expected.push_back(i);
  }
  // Tokens grow with i, so (time, index) is the (time, sequence) order.
  std::stable_sort(expected.begin(), expected.end(),
                   [&](size_t a, size_t b) { return at[a] < at[b]; });
  EXPECT_EQ(fired, expected);
  EXPECT_GT(later.size(), 100u);
  // Cancelling what already fired stays a no-op.
  for (uint64_t token : tokens) sim.cancel(token);
  EXPECT_EQ(sim.run(), 0u);
}

TEST(Simulation, YieldInterleavesAtSameTime) {
  Simulation sim;
  std::vector<int> order;
  auto chatty = [&order](Simulation& s, int id) -> CoTask<void> {
    for (int i = 0; i < 3; ++i) {
      order.push_back(id);
      co_await s.yield();
    }
  };
  auto f1 = sim.spawn(chatty(sim, 1));
  auto f2 = sim.spawn(chatty(sim, 2));
  sim.run();
  (void)f1;
  (void)f2;
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2, 1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(Simulation, MaxStepsBoundsRun) {
  Simulation sim;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_callback(static_cast<double>(i), [] {});
  }
  EXPECT_EQ(sim.run(3), 3u);
  EXPECT_EQ(sim.run(), 7u);
}

TEST(Simulation, DeepSequentialChainCompletes) {
  Simulation sim;
  // A chain of nested awaits exercises symmetric transfer (no stack growth).
  struct Helper {
    static CoTask<int> chain(Simulation* s, int depth) {
      if (depth == 0) co_return 0;
      co_await s->delay(0.001);
      int below = co_await chain(s, depth - 1);
      co_return below + 1;
    }
  };
  EXPECT_EQ(sim.run_until_complete(Helper::chain(&sim, 500)), 500);
}

TEST(Simulation, ManySpawnedTasksAllComplete) {
  Simulation sim;
  std::vector<Future<int>> futures;
  for (int i = 0; i < 2000; ++i) {
    futures.push_back(sim.spawn(delayed(sim, static_cast<double>(i % 7), i)));
  }
  sim.run();
  long long sum = 0;
  for (auto& f : futures) sum += f.get();
  EXPECT_EQ(sum, 2000LL * 1999 / 2);
}

}  // namespace
}  // namespace evostore::sim
