// Bandwidth modelling: fair-share flows over capacity-limited ports.
//
// A `Port` models a capacity-limited resource in bytes/second (a NIC
// direction, an OST's disk bandwidth, a metadata server's CPU). A *flow*
// pushes N bytes through an ordered set of ports simultaneously; its
// instantaneous rate is  min over its ports of (capacity / flows at port),
// i.e., each port divides its capacity equally among the flows crossing it
// and a flow is limited by its most contended port (processor sharing with
// a per-flow bottleneck).
//
// Rates are recomputed whenever a flow starts or finishes, so completion
// times reflect the full contention history — this is what gives the
// paper-shaped saturation curves under concurrency. The model is not fully
// max-min fair (capacity unused by bottlenecked flows is not redistributed);
// the simplification is conservative and documented in DESIGN.md.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <vector>

#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace evostore::sim {

using PortId = uint32_t;

class FlowScheduler {
 public:
  explicit FlowScheduler(Simulation& sim) : sim_(&sim) {}
  ~FlowScheduler();
  FlowScheduler(const FlowScheduler&) = delete;
  FlowScheduler& operator=(const FlowScheduler&) = delete;

  /// Register a port with `capacity` bytes/second. Capacity must be > 0.
  PortId add_port(double capacity, std::string name = {});

  double capacity(PortId port) const { return ports_[port].capacity; }
  const std::string& name(PortId port) const { return ports_[port].name; }
  /// Cumulative bytes carried through this port so far.
  double bytes_carried(PortId port) const { return ports_[port].bytes; }
  /// Number of flows currently crossing this port.
  int active_flows(PortId port) const { return ports_[port].active; }

  /// Move `bytes` through every port in `path` simultaneously; completes
  /// when the last byte has crossed. Zero-byte transfers complete instantly.
  CoTask<void> transfer(std::vector<PortId> path, double bytes);

 private:
  struct Port {
    double capacity = 0;
    std::string name;
    int active = 0;
    double bytes = 0;  // cumulative carried
  };
  struct Flow {
    std::vector<PortId> path;
    double remaining = 0;
    double rate = 0;
    Event* done = nullptr;  // owned by the transfer coroutine frame
  };

  // Advance all flows to the current time, completing any that finished.
  void advance();
  // Recompute per-flow rates and (re)schedule the next completion callback.
  void reschedule();

  Simulation* sim_;
  std::vector<Port> ports_;
  std::list<Flow> flows_;
  double last_update_ = 0;
  uint64_t pending_callback_ = 0;
  bool callback_scheduled_ = false;

  // Completion slack: large transfers accumulate ~1e-6-byte rounding per
  // rate recomputation; a sub-byte epsilon absorbs it (all real transfers
  // are >= 1 byte).
  static constexpr double kEpsBytes = 1e-3;
};

}  // namespace evostore::sim
