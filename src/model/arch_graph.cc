#include "model/arch_graph.h"

#include <algorithm>
#include <queue>

namespace evostore::model {

namespace {

// Working representation during recursive expansion: leaf nodes with edges
// in temporary (creation-order) ids.
struct TempGraph {
  std::vector<const LayerDef*> leaves;
  std::vector<std::vector<uint32_t>> out;

  uint32_t add(const LayerDef& def) {
    leaves.push_back(&def);
    out.emplace_back();
    return static_cast<uint32_t>(leaves.size() - 1);
  }
};

// Expand `arch` into `tg`; returns {entry, exit} temp ids of the expansion.
// Validation has already guaranteed a single root and (for submodels) a
// single sink.
struct EntryExit {
  uint32_t entry;
  uint32_t exit;
};

EntryExit expand(const Architecture& arch, TempGraph& tg) {
  size_t n = arch.node_count();
  // Per nested node: the temp ids that incoming/outgoing edges attach to.
  std::vector<EntryExit> spans(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (arch.is_leaf(i)) {
      uint32_t id = tg.add(arch.layer(i));
      spans[i] = {id, id};
    } else {
      spans[i] = expand(arch.submodel(i), tg);
    }
  }
  for (auto [from, to] : arch.edges()) {
    tg.out[spans[from].exit].push_back(spans[to].entry);
  }
  // Locate this level's root and sink in nested-node space.
  std::vector<uint32_t> indeg(n, 0), outdeg(n, 0);
  for (auto [from, to] : arch.edges()) {
    ++indeg[to];
    ++outdeg[from];
  }
  uint32_t root = 0, sink = 0;
  for (uint32_t i = 0; i < n; ++i) {
    if (indeg[i] == 0) root = i;
    if (outdeg[i] == 0) sink = i;
  }
  return {spans[root].entry, spans[sink].exit};
}

}  // namespace

common::Result<ArchGraph> ArchGraph::flatten(const Architecture& arch) {
  EVO_RETURN_IF_ERROR(arch.validate());
  TempGraph tg;
  EntryExit top = expand(arch, tg);

  // Deterministic BFS from the entry to assign final vertex ids. Neighbor
  // order is creation order, which is itself deterministic.
  size_t n = tg.leaves.size();
  std::vector<VertexId> temp_to_final(n, UINT32_MAX);
  std::vector<uint32_t> bfs_order;
  bfs_order.reserve(n);
  std::queue<uint32_t> q;
  q.push(top.entry);
  temp_to_final[top.entry] = 0;
  while (!q.empty()) {
    uint32_t u = q.front();
    q.pop();
    bfs_order.push_back(u);
    for (uint32_t v : tg.out[u]) {
      if (temp_to_final[v] == UINT32_MAX) {
        temp_to_final[v] = static_cast<VertexId>(bfs_order.size() + q.size());
        q.push(v);
      }
    }
  }
  if (bfs_order.size() != n) {
    return common::Status::Internal(
        "flatten: not all leaf layers reachable from the input root");
  }
  // Fix final id assignment: id = position in BFS order.
  for (size_t pos = 0; pos < bfs_order.size(); ++pos) {
    temp_to_final[bfs_order[pos]] = static_cast<VertexId>(pos);
  }

  ArchGraph g;
  g.defs_.reserve(n);
  for (uint32_t temp : bfs_order) {
    g.defs_.push_back(*tg.leaves[temp]);
  }
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (uint32_t temp = 0; temp < n; ++temp) {
    for (uint32_t t : tg.out[temp]) {
      edges.emplace_back(temp_to_final[temp], temp_to_final[t]);
    }
  }
  g.set_edges(n, edges);
  g.finalize();
  return g;
}

common::Result<ArchGraph> ArchGraph::from_parts(
    std::vector<LayerDef> defs,
    std::vector<std::pair<VertexId, VertexId>> edges) {
  for (auto [from, to] : edges) {
    if (from >= defs.size() || to >= defs.size()) {
      return common::Status::InvalidArgument("edge endpoint out of range");
    }
  }
  ArchGraph g;
  g.defs_ = std::move(defs);
  g.set_edges(g.defs_.size(), edges);
  g.finalize();
  return g;
}

void ArchGraph::finalize() {
  sigs_.resize(defs_.size());
  for (size_t i = 0; i < defs_.size(); ++i) sigs_[i] = defs_[i].signature();
  count_in_degrees();
}

void GraphShape::set_edges(
    size_t n, const std::vector<std::pair<VertexId, VertexId>>& edges) {
  // Counting sort by source, then each source's targets in order.
  offsets_.assign(n + 1, 0);
  for (auto [from, to] : edges) ++offsets_[from + 1];
  for (size_t v = 0; v < n; ++v) offsets_[v + 1] += offsets_[v];
  targets_.resize(edges.size());
  std::vector<uint32_t> next(offsets_.begin(), offsets_.end() - 1);
  for (auto [from, to] : edges) targets_[next[from]++] = to;
  for (size_t v = 0; v < n; ++v) {
    std::sort(targets_.begin() + offsets_[v],
              targets_.begin() + offsets_[v + 1]);
  }
}

void GraphShape::count_in_degrees() {
  in_degree_.assign(sigs_.size(), 0);
  for (VertexId v : targets_) ++in_degree_[v];
}

common::Hash128 GraphShape::graph_hash() const {
  common::Hasher128 h(0xa2c4);
  h.u64(size());
  for (VertexId i = 0; i < size(); ++i) {
    h.h128(sigs_[i]);
    h.u64(out_edges(i).size());
    for (VertexId v : out_edges(i)) h.u64(v);
  }
  return h.finish();
}

size_t ArchGraph::total_param_bytes(DType dtype) const {
  size_t total = 0;
  for (const auto& def : defs_) total += def.param_bytes(dtype);
  return total;
}

void ArchGraph::serialize(common::Serializer& s) const {
  s.u64(defs_.size());
  for (const auto& def : defs_) def.serialize(s);
  write_edges(s);
}

void GraphShape::write_edges(common::Serializer& s) const {
  for (VertexId v = 0; v < size(); ++v) {
    s.u64(out_edges(v).size());
    for (VertexId t : out_edges(v)) s.u32(t);
  }
}

bool GraphShape::read_edges(common::Deserializer& d, size_t n) {
  offsets_.assign(1, 0);
  offsets_.reserve(n + 1);
  targets_.clear();
  targets_.reserve(n);  // about one edge per vertex
  for (size_t i = 0; i < n && d.ok(); ++i) {
    uint64_t deg = d.u64();
    if (!d.check_count(deg)) break;
    for (uint64_t e = 0; e < deg; ++e) {
      VertexId v = d.u32();
      if (v >= n) {
        // Malformed input: an edge target outside the vertex range must not
        // reach the in-degree count.
        d.corrupt("edge target past the vertex count");
        return false;
      }
      targets_.push_back(v);
    }
    offsets_.push_back(static_cast<uint32_t>(targets_.size()));
  }
  return d.ok();
}

ArchGraph ArchGraph::deserialize(common::Deserializer& d) {
  ArchGraph g;
  uint64_t n = d.u64();
  if (!d.check_count(n)) return g;
  g.defs_.reserve(n);
  for (uint64_t i = 0; i < n && d.ok(); ++i) {
    g.defs_.push_back(LayerDef::deserialize(d));
  }
  if (!d.ok() || !g.read_edges(d, n)) return ArchGraph{};
  g.finalize();
  return g;
}

void GraphShape::serialize_shape(common::Serializer& s) const {
  // Number the distinct signatures in first-appearance order, finding a
  // repeat through a small open-addressing table of entry numbers.
  const size_t n = size();
  std::vector<uint32_t> index(n);
  std::vector<VertexId> first;  // the vertex each entry first appears at
  size_t mask = 3;
  while (mask < 2 * n) mask = 2 * mask + 1;
  std::vector<uint32_t> slots(mask + 1, UINT32_MAX);
  for (VertexId v = 0; v < n; ++v) {
    size_t i = static_cast<size_t>(sigs_[v].lo) & mask;
    while (slots[i] != UINT32_MAX && sigs_[first[slots[i]]] != sigs_[v]) {
      i = (i + 1) & mask;
    }
    if (slots[i] == UINT32_MAX) {
      slots[i] = static_cast<uint32_t>(first.size());
      first.push_back(v);
    }
    index[v] = slots[i];
  }
  s.u64(n);
  s.u64(first.size());
  for (VertexId v : first) {
    s.fixed64(sigs_[v].hi);
    s.fixed64(sigs_[v].lo);
  }
  for (uint32_t i : index) s.u32(i);
  write_edges(s);
}

GraphShape GraphShape::deserialize_shape(common::Deserializer& d) {
  GraphShape g;
  const uint64_t n = d.u64();
  const uint64_t table_size = d.u64();
  // Each vertex takes at least a table index and an out-degree byte.
  if (!d.check_count(n, 2)) return g;
  if (table_size > n) {
    d.corrupt("signature table larger than the vertex count");
    return g;
  }
  if (!d.check_count(table_size, 16)) return g;
  std::vector<common::Hash128> table(table_size);
  for (auto& sig : table) {
    sig.hi = d.fixed64();
    sig.lo = d.fixed64();
  }
  g.sigs_.resize(n);
  for (auto& sig : g.sigs_) {
    const uint32_t i = d.u32();
    if (i >= table_size) {
      d.corrupt("signature index past the table");
      return GraphShape{};
    }
    sig = table[i];
  }
  if (!d.ok() || !g.read_edges(d, n)) return GraphShape{};
  g.count_in_degrees();
  return g;
}

}  // namespace evostore::model
