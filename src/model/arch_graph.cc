#include "model/arch_graph.h"

#include <algorithm>
#include <iterator>
#include <queue>
#include <string_view>

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
  g.out_.assign(n, {});
  for (uint32_t temp : bfs_order) {
    g.defs_.push_back(*tg.leaves[temp]);
  }
  for (uint32_t temp = 0; temp < n; ++temp) {
    VertexId from = temp_to_final[temp];
    for (uint32_t t : tg.out[temp]) {
      g.out_[from].push_back(temp_to_final[t]);
    }
    std::sort(g.out_[from].begin(), g.out_[from].end());
  }
  g.finalize();
  return g;
}

common::Result<ArchGraph> ArchGraph::from_parts(
    std::vector<LayerDef> defs,
    std::vector<std::pair<VertexId, VertexId>> edges) {
  ArchGraph g;
  g.defs_ = std::move(defs);
  g.out_.assign(g.defs_.size(), {});
  for (auto [from, to] : edges) {
    if (from >= g.defs_.size() || to >= g.defs_.size()) {
      return common::Status::InvalidArgument("edge endpoint out of range");
    }
    g.out_[from].push_back(to);
  }
  for (auto& adj : g.out_) std::sort(adj.begin(), adj.end());
  g.finalize();
  return g;
}

void ArchGraph::finalize() {
  sigs_.resize(defs_.size());
  for (size_t i = 0; i < defs_.size(); ++i) sigs_[i] = defs_[i].signature();
  count_in_degrees();
}

void GraphShape::count_in_degrees() {
  in_degree_.assign(sigs_.size(), 0);
  for (const auto& adj : out_) {
    for (VertexId v : adj) ++in_degree_[v];
  }
}

common::Hash128 GraphShape::graph_hash() const {
  common::Hasher128 h(0xa2c4);
  h.u64(size());
  for (size_t i = 0; i < size(); ++i) {
    h.h128(sigs_[i]);
    h.u64(out_[i].size());
    for (VertexId v : out_[i]) h.u64(v);
  }
  return h.finish();
}

size_t GraphShape::edge_count() const {
  size_t n = 0;
  for (const auto& adj : out_) n += adj.size();
  return n;
}

size_t ArchGraph::total_param_bytes(DType dtype) const {
  size_t total = 0;
  for (const auto& def : defs_) total += def.param_bytes(dtype);
  return total;
}

void ArchGraph::serialize(common::Serializer& s) const {
  s.u64(defs_.size());
  for (const auto& def : defs_) def.serialize(s);
  for (const auto& adj : out_) {
    s.u64(adj.size());
    for (VertexId v : adj) s.u32(v);
  }
}

bool GraphShape::read_edges(common::Deserializer& d, size_t n) {
  out_.assign(n, {});
  for (size_t i = 0; i < n && d.ok(); ++i) {
    uint64_t deg = d.u64();
    if (!d.check_count(deg)) break;
    out_[i].resize(deg);
    for (auto& v : out_[i]) {
      v = d.u32();
      if (v >= n) {
        // Malformed input: an edge target outside the vertex range must not
        // reach the in-degree count.
        (void)d.check_count(UINT64_MAX);  // fail the stream
        return false;
      }
    }
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

namespace {

// One layer's parameters as encoded: key views into the input.
template <typename V>
using ParamViews = std::vector<std::pair<std::string_view, V>>;

// Read `count` (key, value) pairs as LayerDef::deserialize reads them.
template <typename V, typename ReadValue>
void read_params(common::Deserializer& d, uint64_t count, ParamViews<V>& out,
                 ReadValue read_value) {
  out.clear();
  for (uint64_t i = 0; i < count && d.ok(); ++i) {
    std::string_view key = d.str_view();
    V value = read_value(d);
    out.emplace_back(key, value);
  }
  // LayerDef::set_int / set_float keep the keys sorted and let a repeated
  // key's last value win. LayerDef::serialize writes them that way, so this
  // is one comparison pass for every encoding it produced.
  auto before = [](const auto& a, const auto& b) { return a.first < b.first; };
  auto not_before = [&](const auto& a, const auto& b) { return !before(a, b); };
  if (std::adjacent_find(out.begin(), out.end(), not_before) == out.end()) {
    return;
  }
  std::stable_sort(out.begin(), out.end(), before);
  auto kept = out.begin();
  for (auto it = out.begin(); it != out.end(); ++it) {
    auto next = std::next(it);
    if (next == out.end() || next->first != it->first) *kept++ = *it;
  }
  out.erase(kept, out.end());
}

}  // namespace

GraphShape GraphShape::deserialize(common::Deserializer& d) {
  GraphShape g;
  uint64_t n = d.u64();
  if (!d.check_count(n)) return g;
  g.sigs_.reserve(n);
  // LayerDef::deserialize's reads, in its order, so the stream fails at the
  // same byte with the same status.
  ParamViews<int64_t> ints;
  ParamViews<double> floats;
  for (uint64_t i = 0; i < n && d.ok(); ++i) {
    auto kind = static_cast<LayerKind>(d.u8());
    (void)d.str_view();  // the display name: never part of the signature
    uint64_t ni = d.u64();
    if (!d.ok()) break;
    read_params(d, ni, ints, [](common::Deserializer& in) { return in.i64(); });
    uint64_t nf = d.u64();
    if (!d.ok()) break;
    read_params(d, nf, floats,
                [](common::Deserializer& in) { return in.f64(); });
    g.sigs_.push_back(layer_signature(kind, ints, floats));
  }
  if (!d.ok() || !g.read_edges(d, n)) return GraphShape{};
  g.count_in_degrees();
  return g;
}

}  // namespace evostore::model
