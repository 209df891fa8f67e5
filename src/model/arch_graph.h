// Compact flattened architecture graphs (paper §4.2).
//
// Flattening recursively expands all submodels of a nested `Architecture`
// into a single DAG of leaf layers, then assigns unique vertex ids in
// deterministic BFS order from the input root. The result is the unit the
// repository stores, hashes, LCP-matches, and builds owner maps over.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.h"
#include "common/serde.h"
#include "common/status.h"
#include "common/types.h"
#include "model/architecture.h"

namespace evostore::model {

using common::VertexId;

/// The part of a flattened graph that LCP matching reads: per vertex the
/// leaf layer's signature, its in-degree and its sorted out-edges. The
/// out-edges are stored CSR-style, one offsets array and one targets array,
/// so a graph holds two edge buffers however many vertices it has.
/// Algorithm 1, the prefix index and the Redis baseline's scan read nothing
/// else, so they take a shape; `ArchGraph` is one. An LCP query travels as
/// a shape alone (`serialize_shape`), and a provider decodes it without
/// building, parsing or hashing any layer.
class GraphShape {
 public:
  GraphShape() = default;

  size_t size() const { return sigs_.size(); }
  bool empty() const { return sigs_.empty(); }
  VertexId root() const { return 0; }

  /// Canonical configuration hash of vertex v's leaf layer.
  const common::Hash128& signature(VertexId v) const { return sigs_[v]; }

  std::span<const VertexId> out_edges(VertexId v) const {
    return {targets_.data() + offsets_[v], targets_.data() + offsets_[v + 1]};
  }
  uint32_t in_degree(VertexId v) const { return in_degree_[v]; }
  size_t edge_count() const { return targets_.size(); }

  /// Identity hash of the whole graph (structure + layer configs), computed
  /// on each call.
  common::Hash128 graph_hash() const;

  /// The shape's own encoding (DESIGN.md §7): the vertex count, the table
  /// of distinct signatures (its size, then each signature once as 16 raw
  /// bytes, in first-appearance order), one table index per vertex, then
  /// the adjacency block `ArchGraph::serialize` also writes.
  void serialize_shape(common::Serializer& s) const;
  /// Decode `serialize_shape`'s bytes: no layer is parsed or hashed. A
  /// table larger than the vertex count, an index past the table, an edge
  /// target past the vertices or below the one before it fails the stream
  /// with Corruption.
  static GraphShape deserialize_shape(common::Deserializer& d);

  friend bool operator==(const GraphShape&, const GraphShape&) = default;

 protected:
  /// Set the out-edges from (from, to) pairs with endpoints below `n`:
  /// grouped by source, each source's targets sorted.
  void set_edges(size_t n,
                 const std::vector<std::pair<VertexId, VertexId>>& edges);
  /// Write / read the adjacency block: per vertex its out-degree, then its
  /// targets, ascending. `read_edges` returns false, with the stream failed,
  /// on a malformed block.
  void write_edges(common::Serializer& s) const;
  bool read_edges(common::Deserializer& d, size_t n);
  /// Fill `in_degree_` from the out-edges.
  void count_in_degrees();

  std::vector<common::Hash128> sigs_;
  // Vertex v's out-edges are targets_[offsets_[v], offsets_[v + 1]).
  std::vector<uint32_t> offsets_ = {0};
  std::vector<VertexId> targets_;
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
  void finalize();  // signatures and in-degrees from defs_ and the edges

  std::vector<LayerDef> defs_;
};

}  // namespace evostore::model
