// Shared deployment fixture for core-layer tests: a small simulated cluster
// with N provider nodes and one worker node, plus graph-building helpers.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/serde.h"
#include "core/repository.h"
#include "net/fabric.h"

namespace evostore::core::testing {

struct ClusterEnv {
  sim::Simulation sim;
  net::Fabric fabric;
  net::RpcSystem rpc;
  std::vector<common::NodeId> provider_nodes;
  common::NodeId worker;
  std::unique_ptr<EvoStoreRepository> repo;

  explicit ClusterEnv(int providers = 4, ProviderConfig config = {},
                      ClientConfig client_config = {})
      : fabric(sim,
               net::FabricConfig{.latency = 1.5e-6, .local_latency = 2e-7}),
        rpc(fabric) {
    for (int i = 0; i < providers; ++i) {
      provider_nodes.push_back(fabric.add_node(25e9, 25e9));
    }
    worker = fabric.add_node(25e9, 25e9);
    repo = std::make_unique<EvoStoreRepository>(rpc, provider_nodes, config,
                                                std::vector<storage::KvStore*>{},
                                                client_config);
  }

  Client& client() { return repo->client(worker); }

  template <typename T>
  T run(sim::CoTask<T> task) {
    return sim.run_until_complete(std::move(task));
  }
};

/// Chain graph: input(width) + `layers` dense layers; the last
/// `mutated_tail` dense layers get distinct widths (controlled divergence).
inline model::ArchGraph chain_graph(int layers, int64_t width,
                                    int mutated_tail = 0,
                                    int64_t tail_salt = 7) {
  std::vector<model::LayerDef> defs;
  defs.push_back(model::make_input(width));
  for (int i = 0; i < layers; ++i) {
    int64_t w = (i >= layers - mutated_tail) ? width + tail_salt + i : width;
    defs.push_back(model::make_dense(width, w));
  }
  auto g = model::ArchGraph::flatten(model::make_chain(std::move(defs)));
  return std::move(g).value();
}

/// Chain graph from explicit widths: input(widths[0]) then dense layers
/// widths[i-1] -> widths[i]. Lets tests shape exact divergence points.
inline model::ArchGraph widths_graph(const std::vector<int64_t>& widths) {
  std::vector<model::LayerDef> defs;
  defs.push_back(model::make_input(widths[0]));
  for (size_t i = 1; i < widths.size(); ++i) {
    defs.push_back(model::make_dense(widths[i - 1], widths[i]));
  }
  auto g = model::ArchGraph::flatten(model::make_chain(std::move(defs)));
  return std::move(g).value();
}

/// Hand-built LCP query shapes (GraphShape::serialize_shape's layout) that
/// must not decode, each named by its fault.
inline std::vector<std::pair<std::string, common::Bytes>>
malformed_query_shapes() {
  using common::Serializer;
  // The vertex count, the table size and `sigs` whole signatures.
  auto head = [](Serializer& s, uint64_t n, uint64_t table, uint64_t sigs) {
    s.u64(n);
    s.u64(table);
    for (uint64_t i = 0; i < sigs; ++i) {
      s.fixed64(0x1234 + i);
      s.fixed64(0x5678 + i);
    }
  };
  std::vector<std::pair<std::string, common::Bytes>> out;
  auto add = [&](std::string what, auto build) {
    Serializer s;
    build(s);
    out.emplace_back(std::move(what), std::move(s).take());
  };
  add("index at the table size", [&](Serializer& s) {
    head(s, 2, 1, 1);
    s.u32(0);
    s.u32(1);
    s.u64(1);  // 0 -> 1
    s.u32(1);
    s.u64(0);
  });
  add("table larger than the vertex count", [&](Serializer& s) {
    head(s, 1, 2, 2);
    s.u32(0);
    s.u64(0);
  });
  add("signature cut short", [&](Serializer& s) {
    head(s, 2, 1, 0);
    s.fixed64(0x1234);
    s.u8(0);
    s.u8(0);
  });
  add("edge target at the vertex count", [&](Serializer& s) {
    head(s, 2, 1, 1);
    s.u32(0);
    s.u32(0);
    s.u64(1);  // 0 -> 2
    s.u32(2);
    s.u64(0);
  });
  add("vertex count past the input", [&](Serializer& s) {
    head(s, 1000, 1, 1);
    s.u32(0);
    s.u64(0);
  });
  add("table size past the input", [&](Serializer& s) {
    head(s, 3, 3, 1);
    for (int v = 0; v < 3; ++v) s.u32(0);
    for (int v = 0; v < 3; ++v) s.u64(0);
  });
  add("out-degree past the input", [&](Serializer& s) {
    head(s, 2, 1, 1);
    s.u32(0);
    s.u32(0);
    s.u64(1000);
    s.u32(1);
  });
  return out;
}

}  // namespace evostore::core::testing
