// Shared helpers for the figure-reproduction harnesses.
#pragma once

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/repository.h"
#include "net/fabric.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace evostore::bench {

/// A Polaris-like cluster slice (paper §5.1/§5.4): `gpus` workers, 4 per
/// node, one provider per node, 25 GB/s full-duplex NICs, 1.5 us fabric
/// latency. The controller gets its own node.
struct Cluster {
  sim::Simulation sim;
  net::Fabric fabric;
  net::RpcSystem rpc;
  common::NodeId controller;
  std::vector<common::NodeId> nodes;          // compute nodes
  std::vector<common::NodeId> workers;        // one entry per GPU
  std::vector<common::NodeId> provider_nodes; // co-located, one per node

  explicit Cluster(int gpus, int gpus_per_node = 4)
      : fabric(sim, net::FabricConfig{.latency = 1.5e-6, .local_latency = 2e-7}),
        rpc(fabric) {
    controller = fabric.add_node(25e9, 25e9, "controller");
    int n_nodes = (gpus + gpus_per_node - 1) / gpus_per_node;
    for (int n = 0; n < n_nodes; ++n) {
      auto node = fabric.add_node(25e9, 25e9);
      nodes.push_back(node);
      provider_nodes.push_back(node);
      for (int g = 0; g < gpus_per_node &&
                      static_cast<int>(workers.size()) < gpus;
           ++g) {
        workers.push_back(node);
      }
    }
  }
};

inline int arg_int(int argc, char** argv, const char* flag, int fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == flag) return std::atoi(argv[i + 1]);
  }
  return fallback;
}

inline bool arg_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == flag) return true;
  }
  return false;
}

inline std::string arg_str(int argc, char** argv, const char* flag,
                           std::string fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == flag) return argv[i + 1];
  }
  return fallback;
}

/// `--metrics-out FILE` / `--trace-out FILE` / `--events-out FILE` support
/// for the harnesses.
///
/// Owns the cluster-wide MetricsRegistry, the Tracer, and the flight
/// recorder (EventLog). Lifecycle: `attach(cluster)` before the workload
/// runs (the tracer binds to the FIRST cluster attached — later clusters
/// get metrics and events only, so a multi-scale sweep traces its first
/// run rather than concatenating unrelated traces); `detach(cluster)`
/// before the cluster is destroyed; `finish()` after all runs writes the
/// requested files. All exports are keyed on simulated time and
/// deterministic registry/span/ring state, so two identical seeded runs
/// write byte-identical files. Metrics, events and spans are all pure
/// in-memory recording — none changes wire bytes or simulated timings — so
/// every export stays available under --verify.
struct Observability {
  std::string metrics_path;  // empty = no metrics export
  std::string trace_path;    // empty = no trace export
  std::string events_path;   // empty = no event-log export (.csv = CSV)
  obs::MetricsRegistry registry;
  obs::EventLog events;
  std::optional<obs::Tracer> tracer;

  static Observability from_args(int argc, char** argv) {
    Observability o;
    o.metrics_path = arg_str(argc, argv, "--metrics-out", "");
    o.trace_path = arg_str(argc, argv, "--trace-out", "");
    o.events_path = arg_str(argc, argv, "--events-out", "");
    return o;
  }

  bool enabled() const {
    return !metrics_path.empty() || !trace_path.empty() ||
           !events_path.empty();
  }

  void attach(Cluster& cluster) {
    if (!enabled()) return;
    cluster.rpc.set_metrics(&registry);
    if (!events_path.empty()) cluster.rpc.set_events(&events);
    if (!trace_path.empty() && !tracer.has_value()) {
      tracer.emplace(cluster.sim);
      cluster.rpc.set_tracer(&*tracer);
    }
  }

  /// Unhook from `cluster` (must precede its destruction; the tracer keeps
  /// only recorded spans afterwards, never touching the dead simulation).
  void detach(Cluster& cluster) {
    cluster.rpc.set_tracer(nullptr);
    cluster.rpc.set_events(nullptr);
    cluster.rpc.set_metrics(nullptr);
  }

  /// Write the requested files; prints one line per file written.
  void finish() const {
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      registry.write_json(out);
      out << "\n";
      std::printf("metrics snapshot -> %s\n", metrics_path.c_str());
    }
    if (!events_path.empty()) {
      std::ofstream out(events_path);
      bool csv = events_path.size() >= 4 &&
                 events_path.compare(events_path.size() - 4, 4, ".csv") == 0;
      if (csv) {
        events.write_csv(out);
      } else {
        events.write_json(out);
        out << "\n";
      }
      std::printf("event log (%zu events, %" PRIu64 " dropped) -> %s\n",
                  events.size(), events.dropped(), events_path.c_str());
    }
    if (!trace_path.empty() && tracer.has_value()) {
      std::ofstream out(trace_path);
      tracer->write_chrome_trace(out);
      out << "\n";
      std::printf("chrome trace (%zu spans) -> %s\n",
                  tracer->complete_count(), trace_path.c_str());
    }
  }
};

inline void print_header(const char* figure, const char* description) {
  std::printf("==================================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("==================================================================\n");
}

}  // namespace evostore::bench
