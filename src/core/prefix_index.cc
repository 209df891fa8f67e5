#include "core/prefix_index.h"

#include <algorithm>

namespace evostore::core {

namespace {

// Domain seed for ancestry hashes so they can never collide with other
// Hasher128 uses (chunk ids, graph hashes) by construction.
constexpr uint64_t kAncestrySeed = 0x3b1f5e9d2c7a4861ULL;
constexpr common::VertexId kNone = UINT32_MAX;

using Visit = std::pair<common::VertexId, common::Hash128>;

// One topological walk over a graph (see `walk`).
struct Walk {
  struct Vertex {
    uint32_t first = 0;   // its predecessors' hashes start at preds[first]
    uint32_t filled = 0;  // predecessors admitted so far
    // The predecessor whose out-edges were walked last: meeting it again
    // is a duplicate edge.
    common::VertexId last = kNone;
    bool admitted = false;
  };
  std::vector<Vertex> at;
  std::vector<common::Hash128> preds;
  std::vector<Visit> admitted;  // in walk order
  // False when vertex 0 has a predecessor or an admitted vertex has a
  // duplicate out-edge.
  bool clean = true;
};

// The walk behind `ancestry_hashes` and `PrefixIndex::lookup`. Hashes
// vertex 0, then each vertex v once all its predecessors were admitted,
// and asks `admit(H(v))` whether v joins the walk. Edges into vertex 0 are
// skipped, as Algorithm 1 skips them.
template <typename Admit>
Walk walk(const model::GraphShape& g, Admit&& admit) {
  Walk w;
  const size_t n = g.size();
  if (n == 0) return w;
  w.clean = g.in_degree(0) == 0;
  w.at.resize(n);
  uint32_t slots = 0;
  for (common::VertexId v = 0; v < n; ++v) {
    w.at[v].first = slots;
    slots += g.in_degree(v);
  }
  w.preds.resize(slots);
  w.admitted.reserve(n);

  common::Hasher128 root(kAncestrySeed);
  root.h128(g.signature(0));
  const common::Hash128 h0 = root.finish();
  if (!admit(h0)) return w;
  w.at[0].admitted = true;
  w.admitted.emplace_back(0, h0);
  for (size_t i = 0; i < w.admitted.size(); ++i) {
    const auto [u, hu] = w.admitted[i];  // a copy: admitted may grow
    for (common::VertexId v : g.out_edges(u)) {
      if (v == 0) continue;
      Walk::Vertex& at = w.at[v];
      if (at.last == u) w.clean = false;
      at.last = u;
      w.preds[at.first + at.filled++] = hu;
      if (at.filled != g.in_degree(v)) continue;
      auto first = w.preds.begin() + at.first;
      auto end = first + at.filled;
      std::sort(first, end);
      common::Hasher128 h(kAncestrySeed);
      h.h128(g.signature(v));
      h.u64(g.in_degree(v));
      for (auto it = first; it != end; ++it) h.h128(*it);
      const common::Hash128 hv = h.finish();
      if (admit(hv)) {
        at.admitted = true;
        w.admitted.emplace_back(v, hv);
      }
    }
  }
  return w;
}

bool has_twins(const std::vector<Visit>& visits) {
  std::vector<common::Hash128> hashes;
  hashes.reserve(visits.size());
  for (const auto& [v, h] : visits) hashes.push_back(h);
  std::sort(hashes.begin(), hashes.end());
  return std::adjacent_find(hashes.begin(), hashes.end()) != hashes.end();
}

}  // namespace

std::vector<common::Hash128> ancestry_hashes(const model::GraphShape& g,
                                             bool* clean) {
  Walk w = walk(g, [](const common::Hash128&) { return true; });
  std::vector<common::Hash128> out(g.size());
  for (const auto& [v, h] : w.admitted) out[v] = h;
  if (clean != nullptr) {
    *clean = w.clean && w.admitted.size() == g.size() &&
             !has_twins(w.admitted);
  }
  return out;
}

const char* outcome_name(IndexOutcome outcome) {
  switch (outcome) {
    case IndexOutcome::kIndex: return "index";
    case IndexOutcome::kUncleanScan: return "unclean_scan";
    case IndexOutcome::kBranchyScan: return "branchy_scan";
    case IndexOutcome::kFallbackScan: return "fallback_scan";
  }
  return "?";
}

bool PrefixIndex::ahead(uint32_t a, uint32_t b) const {
  const Holder& x = holders_[a];
  const Holder& y = holders_[b];
  if (x.quality != y.quality) return x.quality > y.quality;
  return x.id < y.id;
}

size_t PrefixIndex::probe(const common::Hash128& h) const {
  const size_t mask = slots_.size() - 1;
  size_t i = static_cast<size_t>(h.lo) & mask;
  while (slots_[i].best != kNone && slots_[i].key != h) i = (i + 1) & mask;
  return i;
}

const PrefixIndex::Slot* PrefixIndex::find(const common::Hash128& h) const {
  if (slots_.empty()) return nullptr;
  const Slot& s = slots_[probe(h)];
  return s.best == kNone ? nullptr : &s;
}

bool PrefixIndex::holds(const Slot& s, uint32_t holder) const {
  if (s.best == holder) return true;
  if (s.rest == kNone) return false;
  const std::vector<uint32_t>& rest = spills_[s.rest];
  return std::find(rest.begin(), rest.end(), holder) != rest.end();
}

void PrefixIndex::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
  for (const Slot& s : old) {
    if (s.best != kNone) slots_[probe(s.key)] = s;
  }
}

void PrefixIndex::add(const common::Hash128& h, uint32_t holder) {
  if (4 * (used_ + 1) > 3 * slots_.size()) grow();
  Slot& s = slots_[probe(h)];
  if (s.best == kNone) {
    s = Slot{h, holder, kNone};
    ++used_;
    return;
  }
  if (s.rest == kNone) {
    if (free_spills_.empty()) {
      s.rest = static_cast<uint32_t>(spills_.size());
      spills_.emplace_back();
    } else {
      s.rest = free_spills_.back();
      free_spills_.pop_back();
    }
  }
  if (ahead(holder, s.best)) std::swap(holder, s.best);
  spills_[s.rest].push_back(holder);
  ++spilled_;
}

void PrefixIndex::drop(const common::Hash128& h, uint32_t holder) {
  const size_t i = probe(h);
  Slot& s = slots_[i];
  if (s.rest == kNone) {  // `holder` is the only one
    erase_slot(i);
    return;
  }
  std::vector<uint32_t>& rest = spills_[s.rest];
  auto gone = rest.end();
  if (s.best == holder) {
    // The next best takes its place.
    gone = std::min_element(
        rest.begin(), rest.end(),
        [this](uint32_t a, uint32_t b) { return ahead(a, b); });
    s.best = *gone;
  } else {
    gone = std::find(rest.begin(), rest.end(), holder);
  }
  *gone = rest.back();
  rest.pop_back();
  --spilled_;
  if (rest.empty()) {
    std::vector<uint32_t>().swap(rest);
    free_spills_.push_back(s.rest);
    s.rest = kNone;
  }
}

void PrefixIndex::erase_slot(size_t i) {
  // Backward-shift deletion: pull each later slot of the probe run back
  // into the hole unless its home lies cyclically in (hole, slot].
  const size_t mask = slots_.size() - 1;
  for (size_t j = (i + 1) & mask; slots_[j].best != kNone;
       j = (j + 1) & mask) {
    const size_t home = static_cast<size_t>(slots_[j].key.lo) & mask;
    if (((j - home) & mask) >= ((j - i) & mask)) {
      slots_[i] = slots_[j];
      i = j;
    }
  }
  slots_[i] = Slot{};
  --used_;
}

void PrefixIndex::insert(common::ModelId id, double quality,
                         const model::GraphShape& g) {
  if (g.empty()) return;  // never matched by the scan
  bool clean = false;
  std::vector<common::Hash128> hashes = ancestry_hashes(g, &clean);
  ++model_count_;
  if (!clean) {
    unclean_.insert(id);
    return;
  }
  uint32_t holder = static_cast<uint32_t>(holders_.size());
  if (free_holders_.empty()) {
    holders_.push_back(Holder{quality, id});
  } else {
    holder = free_holders_.back();
    free_holders_.pop_back();
    holders_[holder] = Holder{quality, id};
  }
  for (const common::Hash128& h : hashes) add(h, holder);
}

bool PrefixIndex::remove(common::ModelId id, const model::GraphShape& g) {
  if (g.empty()) return false;
  bool clean = false;
  std::vector<common::Hash128> hashes = ancestry_hashes(g, &clean);
  if (!clean) {
    if (unclean_.erase(id) == 0) return false;
    --model_count_;
    return true;
  }
  // All or nothing: the holder must be `id`'s and hold every hash of `g`;
  // a model indexed under another graph is left intact.
  const Slot* root = find(hashes[0]);
  if (root == nullptr) return false;
  auto owns_graph = [&](uint32_t holder) {
    return holders_[holder].id == id &&
           std::all_of(hashes.begin(), hashes.end(),
                       [&](const common::Hash128& h) {
                         const Slot* s = find(h);
                         return s != nullptr && holds(*s, holder);
                       });
  };
  uint32_t holder = kNone;
  if (owns_graph(root->best)) {
    holder = root->best;
  } else if (root->rest != kNone) {
    for (uint32_t x : spills_[root->rest]) {
      if (owns_graph(x)) {
        holder = x;
        break;
      }
    }
  }
  if (holder == kNone) return false;
  for (const common::Hash128& h : hashes) drop(h, holder);
  free_holders_.push_back(holder);
  --model_count_;
  return true;
}

void PrefixIndex::clear() { *this = PrefixIndex{}; }

PrefixIndex::LookupResult PrefixIndex::lookup(
    const model::GraphShape& g) const {
  LookupResult r;
  std::vector<const Slot*> found;  // parallel to the admitted vertices
  found.reserve(g.size());
  Walk w = walk(g, [&](const common::Hash128& h) {
    r.visits += 2;  // one hash, one lookup
    const Slot* s = find(h);
    if (s == nullptr) return false;
    found.push_back(s);
    return true;
  });
  if (w.admitted.empty()) return r;
  r.found = true;
  r.depth = w.admitted.size();
  r.clean = w.clean && !has_twins(w.admitted);
  size_t top = 0;
  for (size_t i = 0; i < w.admitted.size(); ++i) {
    const auto out = g.out_edges(w.admitted[i].first);
    if (std::none_of(out.begin(), out.end(), [&](common::VertexId v) {
          return w.at[v].admitted;
        })) {
      ++r.maximal;
      top = i;
    }
  }
  if (r.maximal == 1) {
    const Slot& s = *found[top];
    r.best = holders_[s.best].id;
    r.best_quality = holders_[s.best].quality;
    r.candidates = 1 + (s.rest == kNone ? 0 : spills_[s.rest].size());
  }
  return r;
}

PrefixIndex::Answer PrefixIndex::answer(const model::GraphShape& query,
                                        const StoredGraph& stored,
                                        LcpWorkspace& ws, LcpCost& cost) const {
  Answer out;
  if (!all_clean()) {
    out.outcome = IndexOutcome::kUncleanScan;
    return out;
  }
  out.lookup = lookup(query);
  cost.vertex_visits += out.lookup.visits;
  const LookupResult& hit = out.lookup;
  if (!hit.found) {
    // H(0) is a function of the root signature alone: no stored model
    // shares it, so every scan LCP is empty too.
    return out;
  }
  if (!hit.clean) {
    out.outcome = IndexOutcome::kUncleanScan;
    return out;
  }
  if (hit.maximal != 1) {
    out.outcome = IndexOutcome::kBranchyScan;
    return out;
  }
  const model::GraphShape* a = stored(hit.best);
  LcpResult r;
  if (a != nullptr) r = ws.run(query, *a, &cost);
  if (a == nullptr || r.length() != hit.depth) {
    out.outcome = IndexOutcome::kFallbackScan;
    return out;
  }
  out.found = true;
  out.ancestor = hit.best;
  out.quality = hit.best_quality;
  out.matches = std::move(r.matches);
  return out;
}

size_t PrefixIndex::memory_bytes() const {
  // Slots and holders are flat arrays; a shared hash adds its spill vector
  // and each spilled holder one index; an unclean model one ordered-set
  // node.
  constexpr size_t kSetNodeBytes = sizeof(common::ModelId) + 32;
  return sizeof(*this) + slots_.size() * sizeof(Slot) +
         holders_.size() * sizeof(Holder) +
         spills_.size() * sizeof(std::vector<uint32_t>) +
         spilled_ * sizeof(uint32_t) + unclean_.size() * kSetNodeBytes;
}

}  // namespace evostore::core
