#include "sim/simulation.h"

#include "common/log.h"

namespace evostore::sim {

namespace {

double sim_log_time(void* ctx) {
  return static_cast<Simulation*>(ctx)->now();
}

}  // namespace

Simulation::Simulation() {
  common::set_log_time_source(&sim_log_time, this);
}

Simulation::~Simulation() {
  // Clear only our own registration: with interleaved simulation lifetimes
  // the newest one keeps the clock, and a stale pointer is never left
  // behind.
  if (common::log_time_ctx() == this) {
    common::set_log_time_source(nullptr, nullptr);
  }
}

uint64_t Simulation::run(uint64_t max_steps) {
  uint64_t processed = 0;
  while (!queue_.empty() && processed < max_steps) {
    Entry e = queue_.top();
    queue_.pop();
    assert(e.t >= now_ && "event queue went backwards");
    now_ = e.t;
    ++processed;
    ++steps_;
    if (e.handle) {
      e.handle.resume();
    } else if (auto it = callbacks_.find(e.seq); it != callbacks_.end()) {
      std::function<void()> fn = std::move(it->second);
      callbacks_.erase(it);
      fn();
    }
  }
  return processed;
}

}  // namespace evostore::sim
