// Compact flattened architecture graphs (paper §4.2).
//
// Flattening recursively expands all submodels of a nested `Architecture`
// into a single DAG of leaf layers, then assigns unique vertex ids in
// deterministic BFS order from the input root. The result is the unit the
// repository stores, hashes, LCP-matches, and builds owner maps over.
#pragma once

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/serde.h"
#include "common/status.h"
#include "common/types.h"
#include "model/architecture.h"

namespace evostore::model {

using common::VertexId;

/// The part of a flattened graph that LCP matching reads: per vertex the
/// leaf layer's signature, its in-degree and its sorted out-edges.
/// Algorithm 1, the prefix index and the Redis baseline's scan read nothing
/// else, so they take a shape; `ArchGraph` is one. A provider decodes an LCP
/// query straight into a shape without building any `LayerDef`.
class GraphShape {
 public:
  GraphShape() = default;

  size_t size() const { return sigs_.size(); }
  bool empty() const { return sigs_.empty(); }
  VertexId root() const { return 0; }

  /// Canonical configuration hash of vertex v's leaf layer.
  const common::Hash128& signature(VertexId v) const { return sigs_[v]; }

  const std::vector<VertexId>& out_edges(VertexId v) const { return out_[v]; }
  uint32_t in_degree(VertexId v) const { return in_degree_[v]; }
  size_t edge_count() const;

  /// Identity hash of the whole graph (structure + layer configs), computed
  /// on each call.
  common::Hash128 graph_hash() const;

  /// Decode `ArchGraph::serialize`'s bytes into the shape alone: names are
  /// skipped, and each layer's parameters are hashed straight off the wire
  /// into `LayerDef::signature()` after LayerDef's normalization (keys
  /// sorted, a repeated key keeps its last value). Fails the stream
  /// wherever `ArchGraph::deserialize` does, with the same status.
  static GraphShape deserialize(common::Deserializer& d);

  friend bool operator==(const GraphShape&, const GraphShape&) = default;

 protected:
  /// Read the adjacency block that follows `n` encoded layers into `out_`.
  /// False, with the stream failed, on a malformed block.
  bool read_edges(common::Deserializer& d, size_t n);
  /// Fill `in_degree_` from `out_`.
  void count_in_degrees();

  std::vector<common::Hash128> sigs_;
  std::vector<std::vector<VertexId>> out_;
  std::vector<uint32_t> in_degree_;
};

class ArchGraph : public GraphShape {
 public:
  ArchGraph() = default;

  /// Flatten a validated nested architecture. Fails if validation fails.
  static common::Result<ArchGraph> flatten(const Architecture& arch);

  const LayerDef& def(VertexId v) const { return defs_[v]; }

  /// Parameter bytes of one vertex / of the whole model.
  size_t param_bytes(VertexId v, DType dtype = DType::kF32) const {
    return defs_[v].param_bytes(dtype);
  }
  size_t total_param_bytes(DType dtype = DType::kF32) const;

  void serialize(common::Serializer& s) const;
  static ArchGraph deserialize(common::Deserializer& d);

  /// Construct directly from flat parts (used by deserialization and tests).
  static common::Result<ArchGraph> from_parts(
      std::vector<LayerDef> defs,
      std::vector<std::pair<VertexId, VertexId>> edges);

 private:
  void finalize();  // signatures and in-degrees from defs_ and out_

  std::vector<LayerDef> defs_;
};

}  // namespace evostore::model
