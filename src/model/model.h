// In-memory DL models: a flattened architecture graph plus, per leaf-layer
// vertex, a *segment* — the consolidated set of parameter tensors the paper
// stores, transfers, and refcounts as a unit.
#pragma once

#include <cstdint>
#include <vector>

#include "common/serde.h"
#include "common/types.h"
#include "model/arch_graph.h"
#include "model/tensor.h"

namespace evostore::model {

using common::ModelId;

/// All parameter tensors of one leaf layer, consolidated. This is the unit
/// addressed by `SegmentKey` and moved by one bulk transfer.
struct Segment {
  std::vector<Tensor> tensors;

  size_t nbytes() const {
    size_t n = 0;
    for (const auto& t : tensors) n += t.nbytes();
    return n;
  }

  /// Cheap fingerprint of the segment's logical content.
  common::Hash128 identity() const {
    common::Hasher128 h(0x5e6);
    h.u64(tensors.size());
    for (const auto& t : tensors) {
      h.h128(t.spec().signature());
      h.h128(t.identity());
    }
    return h.finish();
  }

  bool content_equals(const Segment& other) const {
    if (tensors.size() != other.tensors.size()) return false;
    for (size_t i = 0; i < tensors.size(); ++i) {
      if (!tensors[i].content_equals(other.tensors[i])) return false;
    }
    return true;
  }

  void serialize(common::Serializer& s) const {
    s.u64(tensors.size());
    for (const auto& t : tensors) t.serialize(s);
  }
  static Segment deserialize(common::Deserializer& d) {
    Segment seg;
    uint64_t n = d.u64();
    if (!d.check_count(n)) return seg;
    seg.tensors.reserve(n);
    for (uint64_t i = 0; i < n && d.ok(); ++i) {
      seg.tensors.push_back(Tensor::deserialize(d));
    }
    return seg;
  }
};

/// A complete model: id + graph + one segment per vertex + quality metric.
class Model {
 public:
  Model() = default;
  Model(ModelId id, ArchGraph graph)
      : id_(id), graph_(std::move(graph)), segments_(graph_.size()) {}

  /// Model with every segment randomly initialized ("trained from scratch").
  /// Content is fully determined by (seed, vertex, tensor slot).
  static Model random(ModelId id, ArchGraph graph, uint64_t seed,
                      DType dtype = DType::kF32);

  ModelId id() const { return id_; }
  const ArchGraph& graph() const { return graph_; }

  double quality() const { return quality_; }
  void set_quality(double q) { quality_ = q; }

  Segment& segment(VertexId v) { return segments_[v]; }
  const Segment& segment(VertexId v) const { return segments_[v]; }
  size_t vertex_count() const { return segments_.size(); }

  /// Sum of all segment payload bytes.
  size_t total_bytes() const {
    size_t n = 0;
    for (const auto& s : segments_) n += s.nbytes();
    return n;
  }

  /// Replace vertex v's segment with freshly randomized tensors of the same
  /// specs (what a training step does to a non-frozen layer).
  void rerandomize_segment(VertexId v, uint64_t seed,
                           DType dtype = DType::kF32);

 private:
  ModelId id_;
  ArchGraph graph_;
  std::vector<Segment> segments_;
  double quality_ = 0.0;
};

/// Build the random segment for vertex v of `graph` (deterministic in seed).
Segment make_random_segment(const ArchGraph& graph, VertexId v, uint64_t seed,
                            DType dtype = DType::kF32);

/// What fine-tuning does to a layer: re-seed roughly `update_fraction` of the
/// base segment's tensor slots (deterministic in seed), sharing the base's
/// buffers for the rest. Shared slots are O(1) copies whose identity matches
/// the base, so a delta codec stores them as zero physical bytes.
Segment finetune_segment(const Segment& base, uint64_t seed,
                         double update_fraction);

}  // namespace evostore::model
