#include "core/lcp.h"

#include <algorithm>

namespace evostore::core {

namespace {
constexpr VertexId kUnmatched = UINT32_MAX;
}  // namespace

size_t LcpResult::prefix_param_bytes(const ArchGraph& g) const {
  size_t total = 0;
  for (auto [gv, av] : matches) {
    (void)av;
    total += g.param_bytes(gv);
  }
  return total;
}

std::vector<VertexId> LcpResult::unmatched_g_vertices(
    const GraphShape& g) const {
  std::vector<bool> in_prefix(g.size(), false);
  for (auto [gv, av] : matches) {
    (void)av;
    in_prefix[gv] = true;
  }
  std::vector<VertexId> out;
  for (VertexId v = 0; v < g.size(); ++v) {
    if (!in_prefix[v]) out.push_back(v);
  }
  return out;
}

LcpResult longest_common_prefix(const GraphShape& g, const GraphShape& a) {
  return longest_common_prefix(g, a, nullptr);
}

LcpResult longest_common_prefix(const GraphShape& g, const GraphShape& a,
                                LcpCost* cost) {
  LcpWorkspace ws;
  return ws.run(g, a, cost);
}

LcpResult LcpWorkspace::run(const GraphShape& g, const GraphShape& a,
                            LcpCost* cost) {
  LcpResult result;
  uint64_t visits_done = 0;
  if (g.empty() || a.empty()) return result;
  ++visits_done;
  if (g.signature(g.root()) != a.signature(a.root())) {
    if (cost != nullptr) cost->vertex_visits += visits_done;
    return result;
  }

  match_.assign(g.size(), kUnmatched);
  a_used_.assign(a.size(), 0);
  visits_.assign(g.size(), 0);
  proposed_.assign(g.size(), 0);
  if (candidates_.size() < g.size()) candidates_.resize(g.size());
  frontier_.clear();

  match_[g.root()] = a.root();
  a_used_[a.root()] = 1;
  frontier_.push_back(g.root());

  // frontier_ is consumed FIFO via an index (stable, no deque needed).
  for (size_t fi = 0; fi < frontier_.size(); ++fi) {
    VertexId u = frontier_[fi];
    VertexId au = match_[u];
    for (VertexId v : g.out_edges(u)) {
      if (match_[v] != kUnmatched) continue;
      ++visits_done;
      // Counterparts this predecessor can offer: A-successors of au with an
      // identical leaf-layer configuration.
      cand_here_.clear();
      for (VertexId av : a.out_edges(au)) {
        ++visits_done;
        if (!a_used_[av] && a.signature(av) == g.signature(v)) {
          cand_here_.push_back(av);
        }
      }
      // out_edges are sorted, so cand_here_ is sorted.
      if (!proposed_[v]) {
        proposed_[v] = 1;
        candidates_[v].assign(cand_here_.begin(), cand_here_.end());
      } else {
        merged_.clear();
        std::set_intersection(candidates_[v].begin(), candidates_[v].end(),
                              cand_here_.begin(), cand_here_.end(),
                              std::back_inserter(merged_));
        candidates_[v].assign(merged_.begin(), merged_.end());
      }
      ++visits_[v];
      if (visits_[v] == g.in_degree(v)) {
        // All predecessors are in the prefix; bind the counterpart. The
        // in-degree guard is the paper's max(in_degree) rule: a counterpart
        // with extra incoming edges has a predecessor outside the prefix.
        for (VertexId av : candidates_[v]) {
          if (!a_used_[av] && a.in_degree(av) == g.in_degree(v)) {
            match_[v] = av;
            a_used_[av] = 1;
            frontier_.push_back(v);
            break;
          }
        }
      }
    }
  }

  result.matches.reserve(frontier_.size());
  for (VertexId v = 0; v < g.size(); ++v) {
    if (match_[v] != kUnmatched) result.matches.emplace_back(v, match_[v]);
  }
  if (cost != nullptr) cost->vertex_visits += visits_done;
  return result;
}

}  // namespace evostore::core
