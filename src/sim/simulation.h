// Deterministic discrete-event simulation engine.
//
// A `Simulation` owns a virtual clock and an event queue. Simulated
// processes are C++20 coroutines (`CoTask<T>`, see task.h) that suspend on
// awaitables — `delay()`, synchronization primitives (sync.h), bandwidth
// flows (flow.h) — and are resumed by the event loop in strict
// (time, sequence-number) order, which makes every run exactly reproducible.
//
// Concurrency model: everything runs on ONE OS thread. "Parallelism" between
// simulated processes is interleaving at await points only, which mirrors how
// the paper's distributed processes interleave at I/O boundaries.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "sim/task.h"

namespace evostore::sim {

/// Virtual time, in seconds.
using SimTime = double;

class Simulation;

namespace detail {

template <typename T>
struct FutureValue {
  std::optional<T> value;
  void set(T v) { value.emplace(std::move(v)); }
  T get() const { return *value; }
  T take() { return std::move(*value); }
  bool has() const { return value.has_value(); }
};

template <>
struct FutureValue<void> {
  bool done = false;
  void set() { done = true; }
  void get() const {}
  void take() {}
  bool has() const { return done; }
};

template <typename T>
struct FutureState {
  Simulation* sim = nullptr;
  FutureValue<T> value;
  std::exception_ptr exception;
  bool completed = false;
  std::vector<std::coroutine_handle<>> waiters;

  void complete();  // defined after Simulation
};

}  // namespace detail

/// Handle to the eventual result of a spawned coroutine. Copyable; many
/// coroutines may await the same future.
///
/// `co_await f` and `f.get()` copy the result, so every awaiter of a shared
/// future sees it intact. `co_await std::move(f)` and `std::move(f).get()`
/// move it out instead, for the future's single consumer: a leg's response
/// carries payload bytes that a copy would duplicate. After a move-out the
/// result is gone and `f` is no longer valid; no other copy of the future
/// may read it.
template <typename T>
class Future {
 public:
  Future() = default;
  explicit Future(std::shared_ptr<detail::FutureState<T>> s) : state_(std::move(s)) {}

  bool valid() const { return state_ != nullptr; }
  bool done() const { return state_ && state_->completed; }

  /// Result accessors for after the simulation has run (non-coroutine code).
  T get() const& {
    assert(valid());
    return result<false>(*state_);
  }
  T get() && {
    assert(valid());
    auto state = std::move(state_);
    return result<true>(*state);
  }

  template <bool kTake>
  struct Awaiter {
    std::shared_ptr<detail::FutureState<T>> state;
    bool await_ready() const noexcept { return state->completed; }
    void await_suspend(std::coroutine_handle<> h) { state->waiters.push_back(h); }
    T await_resume() const { return result<kTake>(*state); }
  };
  Awaiter<false> operator co_await() const& { return {state_}; }
  Awaiter<true> operator co_await() && { return {std::move(state_)}; }

 private:
  template <bool kTake>
  static T result(detail::FutureState<T>& state) {
    assert(state.completed);
    if (state.exception) std::rethrow_exception(state.exception);
    if constexpr (kTake) {
      return state.value.take();
    } else {
      return state.value.get();
    }
  }

  std::shared_ptr<detail::FutureState<T>> state_;
};

class Simulation {
 public:
  /// Registers this simulation's clock as the logger's time source, so log
  /// lines emitted while it exists carry simulated time (see common/log.h).
  /// The destructor clears the registration — but only if it is still this
  /// instance's (a newer simulation may have taken over in the meantime).
  Simulation();
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return now_; }
  uint64_t steps() const { return steps_; }

  /// Resume `h` at virtual time `t` (>= now).
  void schedule_handle(SimTime t, std::coroutine_handle<> h) {
    assert(t >= now_);
    queue_.push(Entry{t, next_seq_++, h});
  }

  /// Run `fn` at virtual time `t`. Returns a token usable with `cancel`.
  uint64_t schedule_callback(SimTime t, std::function<void()> fn) {
    assert(t >= now_);
    uint64_t token = next_seq_++;
    callbacks_.emplace(token, std::move(fn));
    queue_.push(Entry{t, token, {}});
    return token;
  }

  /// Cancel a pending callback (no-op if it already ran). O(1): the
  /// callback is dropped, and its queue entry drains as a no-op.
  void cancel(uint64_t token) { callbacks_.erase(token); }

  /// Awaitable: suspend the current coroutine for `dt` virtual seconds.
  struct DelayAwaiter {
    Simulation* sim;
    SimTime wake_at;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      sim->schedule_handle(wake_at, h);
    }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] DelayAwaiter delay(SimTime dt) {
    assert(dt >= 0);
    return DelayAwaiter{this, now_ + dt};
  }
  /// Reschedule at the current time (lets equal-time events interleave).
  [[nodiscard]] DelayAwaiter yield() { return delay(0); }

  /// Start `task` as an independent simulated process. The task begins from
  /// the event loop at the current virtual time (spawn itself never runs
  /// user code inline). Returns a Future for its result.
  template <typename T>
  Future<T> spawn(CoTask<T> task) {
    auto state = std::make_shared<detail::FutureState<T>>();
    state->sim = this;
    drive(std::move(task), state);
    return Future<T>(state);
  }

  /// Drain the event queue. Returns the number of events processed.
  uint64_t run(uint64_t max_steps = UINT64_MAX);

  /// Spawn `task`, drain the queue, and return the task's result.
  template <typename T>
  T run_until_complete(CoTask<T> task) {
    Future<T> f = spawn(std::move(task));
    run();
    assert(f.done() && "simulation drained but task still blocked (deadlock?)");
    return std::move(f).get();
  }

 private:
  // A null `handle` marks a callback, keyed by `seq` in callbacks_.
  struct Entry {
    SimTime t;
    uint64_t seq;
    std::coroutine_handle<> handle;
    bool operator>(const Entry& o) const {
      if (t != o.t) return t > o.t;
      return seq > o.seq;
    }
  };

  // Fire-and-forget driver coroutine: frame self-destroys at completion.
  struct Driver {
    struct promise_type {
      Driver get_return_object() {
        return Driver{std::coroutine_handle<promise_type>::from_promise(*this)};
      }
      std::suspend_always initial_suspend() noexcept { return {}; }
      std::suspend_never final_suspend() noexcept { return {}; }
      void return_void() {}
      void unhandled_exception() { std::terminate(); }
    };
    std::coroutine_handle<promise_type> handle;
  };

  template <typename T>
  void drive(CoTask<T> task, std::shared_ptr<detail::FutureState<T>> state) {
    Driver d = drive_impl(std::move(task), state);
    schedule_handle(now_, d.handle);
  }

  template <typename T>
  Driver drive_impl(CoTask<T> task, std::shared_ptr<detail::FutureState<T>> state) {
    try {
      if constexpr (std::is_void_v<T>) {
        co_await std::move(task);
        state->value.set();
      } else {
        state->value.set(co_await std::move(task));
      }
    } catch (...) {
      state->exception = std::current_exception();
    }
    state->complete();
  }

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t steps_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  // Callbacks not yet fired or cancelled, by token. Point lookups only:
  // the queue alone orders events, so nothing iterates this map.
  std::unordered_map<uint64_t, std::function<void()>> callbacks_;
};

namespace detail {
template <typename T>
void FutureState<T>::complete() {
  completed = true;
  for (auto h : waiters) sim->schedule_handle(sim->now(), h);
  waiters.clear();
}
}  // namespace detail

}  // namespace evostore::sim
