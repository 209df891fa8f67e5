// Catalog prefix index for sublinear LCP serving (DESIGN.md §16).
//
// Provider-side LCP (paper §4.2, Algorithm 1) is a scan of the local catalog
// per `find_ancestor` query: fine at paper scale, the dominant cost at
// model-hub scale. This index answers the same query from a map keyed by
// *ancestry hashes*, with work proportional to what the query shares with
// the catalog instead of to the catalog's size.
//
// Ancestry hash: H(0) = hash(signature of vertex 0), and for v != 0,
// H(v) = hash(signature, in-degree, sorted multiset of the predecessors' H).
// H(v) fingerprints the whole ancestry of v and ignores vertex ids, so it
// is the same for every topological order of a DAG. The index maps each
// hash to the local models holding it, the best (quality desc, id asc) at
// hand, in one flat open-addressing table.
//
// Exactness (DESIGN.md §16 has the proofs). Without duplicate edges, a
// query vertex v that Algorithm 1 binds to stored vertex w has
// H(v) = H(w). A graph is *clean* when vertex 0 is its only vertex without
// predecessors, every vertex is reachable from it, it has no duplicate
// edges and no two vertices share a hash ("twins"). When the query and the
// stored model are clean, Algorithm 1 binds exactly the query vertices
// whose hash the model holds. `lookup` walks the query from vertex 0 in
// topological order, hashing a vertex only once all its predecessors were
// found in the index. When the found set P has exactly one vertex v* with
// no successor in P, P is v*'s ancestry: every holder of H(v*) matches |P|
// vertices and every other model fewer, so the best holder of H(v*) is the
// scan's answer. Several maximal vertices, an unclean query or catalog and
// a confirm-run mismatch go to the scan (`PrefixIndex::answer`), which
// stays the reference.
//
// Maintenance is incremental, O(|graph|) table operations per mutation, on
// every catalog path: put, retire/GC, drain and the replicate-install path used by
// repair. Like `ChunkStore`, the index is volatile and rebuilt from the
// restored catalog on provider restart.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/types.h"
#include "core/lcp.h"
#include "model/arch_graph.h"

namespace evostore::core {

/// Ancestry hash of every vertex of `g` by vertex id (file comment). A
/// vertex the topological walk from vertex 0 never reaches (a second
/// source, a cycle, a vertex below either) keeps a zero hash. `*clean`, if
/// given, is set to whether `g` is clean.
std::vector<common::Hash128> ancestry_hashes(const model::GraphShape& g,
                                             bool* clean = nullptr);

/// How the index branch of a `find_ancestor` query ended.
enum class IndexOutcome : uint8_t {
  kIndex,         // answered from the index (found or not)
  kUncleanScan,   // the catalog or the walked part of the query is unclean
  kBranchyScan,   // the found set has several maximal vertices
  kFallbackScan,  // the confirm run disagreed with the index
};
const char* outcome_name(IndexOutcome outcome);

class PrefixIndex {
 public:
  struct LookupResult {
    /// True when some indexed model shares the query's root signature
    /// (H(0) is a function of the signature alone, matching Algorithm 1's
    /// root binding).
    bool found = false;
    /// |P|: query vertices whose hash is indexed and whose predecessors
    /// are all in P.
    size_t depth = 0;
    /// Vertices of P with no successor in P.
    size_t maximal = 0;
    /// False when the walked part of the query is unclean: vertex 0 has a
    /// predecessor, a walked vertex has a duplicate out-edge, or two
    /// vertices of P are twins.
    bool clean = true;
    /// The best holder of the sole maximal vertex's hash (maximal == 1),
    /// under the scan's tie-break: highest quality, then lowest id.
    common::ModelId best = common::ModelId::invalid();
    double best_quality = 0;
    /// Holders of that hash.
    size_t candidates = 0;
    /// Work charged to the LcpCost model: one per hashed vertex plus one
    /// per lookup.
    uint64_t visits = 0;
  };

  /// Index a model. Empty graphs are not indexed (the scan never matches
  /// them). An unclean model is counted but holds no postings; while any
  /// is present the serving path scans.
  void insert(common::ModelId id, double quality, const model::GraphShape& g);

  /// Remove a model previously inserted with the same (id, graph). Returns
  /// false (and changes nothing) if it was never indexed.
  bool remove(common::ModelId id, const model::GraphShape& g);

  /// Drop everything (drain, restart).
  void clear();

  /// Walk the query from vertex 0 (file comment).
  LookupResult lookup(const model::GraphShape& g) const;

  /// The index branch of `find_ancestor`, shared by the provider, the
  /// tests and the benches: the clean gate, `lookup`, and one confirming
  /// Algorithm 1 run against the best holder, whose graph `stored` returns
  /// (nullptr if it is gone). On `needs_scan()` the caller serves the
  /// scan. Charges the lookup and the confirm run to `cost`.
  struct Answer {
    IndexOutcome outcome = IndexOutcome::kIndex;
    LookupResult lookup;
    /// Set on an index answer when some model shares the root signature:
    /// the best holder, its quality and the confirm run's matches.
    bool found = false;
    common::ModelId ancestor = common::ModelId::invalid();
    double quality = 0;
    std::vector<std::pair<common::VertexId, common::VertexId>> matches;

    bool needs_scan() const { return outcome != IndexOutcome::kIndex; }
  };
  using StoredGraph =
      std::function<const model::GraphShape*(common::ModelId)>;
  Answer answer(const model::GraphShape& query, const StoredGraph& stored,
                LcpWorkspace& ws, LcpCost& cost) const;

  size_t model_count() const { return model_count_; }
  /// Distinct indexed hashes.
  size_t node_count() const { return used_; }
  /// True when every indexed model is clean, the regime where an index
  /// answer is provably the scan's answer. The index re-arms the moment
  /// the last unclean model retires.
  bool all_clean() const { return unclean_.empty(); }
  /// Physical footprint model: the hash table's slots, one holder per
  /// indexed model, and the spilled holders of shared hashes.
  /// Deterministic by construction: counts structures, not allocator
  /// jitter.
  size_t memory_bytes() const;

 private:
  static constexpr uint32_t kNone = UINT32_MAX;
  struct Holder {
    double quality = 0;
    common::ModelId id = common::ModelId::invalid();
  };
  /// A slot of the open-addressing table: an indexed hash, its best holder
  /// (an index into `holders_`; kNone marks an empty slot) and, only while
  /// the hash is shared, `spills_[rest]`, its other holders in no order.
  struct Slot {
    common::Hash128 key;
    uint32_t best = kNone;
    uint32_t rest = kNone;
  };

  /// The scan's tie-break at equal length: quality desc, then id asc.
  bool ahead(uint32_t a, uint32_t b) const;
  /// The slot holding `h`, or the empty slot where it would go.
  size_t probe(const common::Hash128& h) const;
  const Slot* find(const common::Hash128& h) const;
  bool holds(const Slot& s, uint32_t holder) const;
  void add(const common::Hash128& h, uint32_t holder);
  void drop(const common::Hash128& h, uint32_t holder);
  void erase_slot(size_t i);
  void grow();

  // Linear probing over a power-of-two table, at most 3/4 full, from the
  // home slot `key.lo & mask`. Lookups and maintenance are point
  // operations: slot order never reaches an answer or an export.
  std::vector<Slot> slots_;
  size_t used_ = 0;
  std::vector<Holder> holders_;  // one per indexed clean model
  std::vector<uint32_t> free_holders_;
  std::vector<std::vector<uint32_t>> spills_;
  std::vector<uint32_t> free_spills_;
  size_t spilled_ = 0;  // holders kept in `spills_`
  std::set<common::ModelId> unclean_;
  size_t model_count_ = 0;
};

}  // namespace evostore::core
