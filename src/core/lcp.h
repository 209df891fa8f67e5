// Longest common prefix over architecture graphs (paper §4.2, Algorithm 1).
//
// The LCP of candidate graph G against ancestor graph A is the largest set
// of G-vertices V such that every v in V (1) has a counterpart in A with an
// identical leaf-layer configuration, and (2) has ALL of its predecessors in
// V (recursively rooted at the input layer). These are exactly the layers
// that can be transferred and frozen.
//
// The implementation follows Algorithm 1's frontier expansion with visit
// counters, extended with an explicit vertex correspondence: when a G-vertex
// becomes eligible, it is bound to the smallest-id unmatched A-successor
// candidate that every matched predecessor agrees on and whose in-degree
// equals the G-vertex's (the paper's max(in_degree) guard — a vertex with a
// predecessor outside the prefix in either graph can never be eligible).
//
// One run compares a query against ONE stored model; a provider answering
// `find_ancestor` at paper scale scans its whole catalog this way. At
// catalog scale that scan is the dominant cost — the prefix index
// (core/prefix_index.h, DESIGN.md §16) replaces it with an ancestry-hash
// walk over the query plus a single confirming `run`, keeping this header
// as the exactness oracle (scan fallback, `lcp_index_verify`, and the
// `--verify` benches all re-answer through it).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "model/arch_graph.h"

namespace evostore::core {

using common::VertexId;
using model::ArchGraph;
using model::GraphShape;

struct LcpResult {
  /// (G vertex, A vertex) pairs forming the prefix; empty if even the roots
  /// differ. Sorted by G vertex id.
  std::vector<std::pair<VertexId, VertexId>> matches;

  size_t length() const { return matches.size(); }

  /// Total parameter bytes of the prefix in `g` (the transferable payload).
  size_t prefix_param_bytes(const ArchGraph& g) const;

  /// Vertices of `g` NOT in the prefix (the segments a derived model must
  /// store itself).
  std::vector<VertexId> unmatched_g_vertices(const GraphShape& g) const;
};

/// Compute the longest common prefix of `g` against ancestor `a`.
LcpResult longest_common_prefix(const GraphShape& g, const GraphShape& a);

/// Number of vertex visits Algorithm 1 performs (the work the provider-side
/// cost model charges for; exposed for benchmarks and tests).
struct LcpCost {
  uint64_t vertex_visits = 0;
};
LcpResult longest_common_prefix(const GraphShape& g, const GraphShape& a,
                                LcpCost* cost);

/// Reusable scratch space for catalog scans: a provider evaluating one query
/// graph against thousands of stored ancestors avoids re-allocating the
/// per-call vectors. Not thread-safe; one workspace per scanning context.
class LcpWorkspace {
 public:
  LcpResult run(const GraphShape& g, const GraphShape& a, LcpCost* cost);

 private:
  friend LcpResult longest_common_prefix(const GraphShape&, const GraphShape&,
                                         LcpCost*);
  std::vector<VertexId> match_;
  std::vector<uint8_t> a_used_;
  std::vector<uint32_t> visits_;
  std::vector<std::vector<VertexId>> candidates_;
  std::vector<uint8_t> proposed_;
  std::vector<VertexId> frontier_;
  std::vector<VertexId> cand_here_;
  std::vector<VertexId> merged_;
};

}  // namespace evostore::core
