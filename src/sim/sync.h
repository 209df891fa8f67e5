// Synchronization primitives for simulated processes.
//
// All primitives are FIFO-fair and resume waiters through the simulation's
// event queue (never inline), so wake-up order is deterministic and a
// release never re-enters user code.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/simulation.h"

namespace evostore::sim {

/// One-shot event: processes wait until some process sets it.
class Event {
 public:
  explicit Event(Simulation& sim) : sim_(&sim) {}

  bool is_set() const { return set_; }

  void set() {
    if (set_) return;
    set_ = true;
    for (auto h : waiters_) sim_->schedule_handle(sim_->now(), h);
    waiters_.clear();
  }

  struct Awaiter {
    Event* ev;
    bool await_ready() const noexcept { return ev->set_; }
    void await_suspend(std::coroutine_handle<> h) { ev->waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] Awaiter wait() { return Awaiter{this}; }

 private:
  Simulation* sim_;
  bool set_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Counted semaphore with FIFO service (a queued large request blocks later
/// smaller ones, so it is not starved).
class Semaphore {
 public:
  Semaphore(Simulation& sim, int64_t initial) : sim_(&sim), count_(initial) {}

  int64_t available() const { return count_; }

  struct Awaiter {
    Semaphore* sem;
    int64_t n;
    bool queued = false;
    bool await_ready() const noexcept {
      return sem->waiters_.empty() && sem->count_ >= n;
    }
    void await_suspend(std::coroutine_handle<> h) {
      queued = true;
      sem->waiters_.push_back({n, h});
    }
    void await_resume() noexcept {
      // Queued acquisitions were already debited by drain(); the fast path
      // debits here.
      if (!queued) sem->count_ -= n;
    }
  };

  /// Acquire `n` units (suspends until available).
  [[nodiscard]] Awaiter acquire(int64_t n = 1) {
    assert(n >= 0);
    return Awaiter{this, n};
  }

  /// Non-blocking acquire: succeeds only if it would not queue.
  bool try_acquire(int64_t n = 1) {
    if (!waiters_.empty() || count_ < n) return false;
    count_ -= n;
    return true;
  }

  /// Return `n` units and wake eligible waiters in FIFO order.
  void release(int64_t n = 1) {
    count_ += n;
    drain();
  }

 private:
  void drain() {
    std::vector<std::coroutine_handle<>> resumes;
    while (!waiters_.empty() && count_ >= waiters_.front().n) {
      auto [need, handle] = waiters_.front();
      waiters_.pop_front();
      count_ -= need;
      resumes.push_back(handle);
    }
    for (auto h : resumes) sim_->schedule_handle(sim_->now(), h);
  }

  friend struct Awaiter;
  Simulation* sim_;
  int64_t count_;
  struct Waiter {
    int64_t n;
    std::coroutine_handle<> handle;
  };
  std::deque<Waiter> waiters_;
};

/// Mutual exclusion. `co_await mu.lock();` ... `mu.unlock();`
class Mutex {
 public:
  explicit Mutex(Simulation& sim) : sem_(sim, 1) {}
  [[nodiscard]] Semaphore::Awaiter lock() { return sem_.acquire(1); }
  /// Non-blocking lock attempt.
  bool try_lock_now() { return sem_.try_acquire(1); }
  void unlock() { sem_.release(1); }
  bool locked() const { return sem_.available() == 0; }

 private:
  Semaphore sem_;
};

/// Reader/writer lock, FIFO-fair across both kinds (a queued writer blocks
/// later readers; matches the paper's Redis-Queries baseline semantics).
class RwLock {
 public:
  explicit RwLock(Simulation& sim) : sim_(&sim) {}

  struct Awaiter {
    RwLock* lk;
    bool writer;
    bool queued = false;
    bool await_ready() const noexcept {
      if (!lk->queue_.empty()) return false;
      return writer ? (lk->readers_ == 0 && !lk->writer_held_)
                    : !lk->writer_held_;
    }
    void await_suspend(std::coroutine_handle<> h) {
      queued = true;
      lk->queue_.push_back({writer, h});
    }
    void await_resume() noexcept {
      // Queued grants had their state applied by drain(); the fast path
      // applies here.
      if (!queued) {
        if (writer) {
          lk->writer_held_ = true;
        } else {
          ++lk->readers_;
        }
      }
    }
  };

  [[nodiscard]] Awaiter lock_shared() { return Awaiter{this, false}; }
  [[nodiscard]] Awaiter lock_exclusive() { return Awaiter{this, true}; }

  void unlock_shared() {
    assert(readers_ > 0);
    --readers_;
    drain();
  }
  void unlock_exclusive() {
    assert(writer_held_);
    writer_held_ = false;
    drain();
  }

  int readers() const { return readers_; }

 private:
  void drain() {
    std::vector<std::coroutine_handle<>> resumes;
    while (!queue_.empty()) {
      auto [writer, handle] = queue_.front();
      if (writer) {
        if (readers_ != 0 || writer_held_) break;
        writer_held_ = true;
        queue_.pop_front();
        resumes.push_back(handle);
        break;  // an exclusive grant blocks everything behind it
      }
      ++readers_;
      queue_.pop_front();
      resumes.push_back(handle);
    }
    for (auto h : resumes) sim_->schedule_handle(sim_->now(), h);
  }

  friend struct Awaiter;
  Simulation* sim_;
  int readers_ = 0;
  bool writer_held_ = false;
  struct Waiter {
    bool writer;
    std::coroutine_handle<> handle;
  };
  std::deque<Waiter> queue_;
};

/// Cyclic barrier for `parties` processes. The last arriver does not
/// suspend; it releases the whole generation.
class Barrier {
 public:
  Barrier(Simulation& sim, int parties) : sim_(&sim), parties_(parties) {
    assert(parties >= 1);
  }

  struct Awaiter {
    Barrier* b;
    bool await_ready() noexcept {
      if (b->arrived_ + 1 < b->parties_) return false;
      // Last arriver: open the barrier for this generation.
      b->arrived_ = 0;
      for (auto h : b->waiters_) b->sim_->schedule_handle(b->sim_->now(), h);
      b->waiters_.clear();
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) {
      ++b->arrived_;
      b->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] Awaiter arrive_and_wait() { return Awaiter{this}; }

 private:
  friend struct Awaiter;
  Simulation* sim_;
  int parties_;
  int arrived_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace evostore::sim
