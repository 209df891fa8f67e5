// Leaf layer definitions.
//
// A `LayerDef` is the configuration of one leaf layer: its kind plus a
// canonical (sorted) hyperparameter list. Matching for LCP queries is by
// `signature()` — a 128-bit canonical hash that deliberately EXCLUDES the
// layer's display name, because (paper §4.2) identical names may describe
// different configurations and vice versa.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/serde.h"
#include "model/tensor.h"

namespace evostore::model {

enum class LayerKind : uint8_t {
  kInput = 0,
  kDense,
  kConv2D,
  kAttention,
  kLayerNorm,
  kBatchNorm,
  kActivation,
  kDropout,
  kAdd,
  kConcat,
  kEmbedding,
  kPooling,
  kFlatten,
  kOutput,
};

std::string_view layer_kind_name(LayerKind k);

class LayerDef {
 public:
  LayerDef() = default;
  explicit LayerDef(LayerKind kind) : kind_(kind) {}

  LayerKind kind() const { return kind_; }

  /// Display name; informational only, never part of the identity.
  const std::string& name() const { return name_; }
  LayerDef& set_name(std::string n) {
    name_ = std::move(n);
    return *this;
  }

  /// Hyperparameter accessors. Keys are kept sorted so the signature is
  /// canonical regardless of insertion order.
  LayerDef& set_int(std::string_view key, int64_t v);
  LayerDef& set_float(std::string_view key, double v);
  int64_t get_int(std::string_view key, int64_t fallback = 0) const;
  double get_float(std::string_view key, double fallback = 0.0) const;
  bool has_int(std::string_view key) const;

  const std::vector<std::pair<std::string, int64_t>>& int_params() const {
    return int_params_;
  }

  /// Canonical configuration hash (kind + sorted hyperparams, no name).
  common::Hash128 signature() const;

  /// Two defs match for LCP purposes iff their signatures match.
  bool same_config(const LayerDef& other) const {
    return signature() == other.signature();
  }

  /// Parameter tensors this layer owns (weights, biases, ...), derived from
  /// its hyperparameters. Parameterless layers return an empty list.
  std::vector<TensorSpec> param_specs(DType dtype = DType::kF32) const;

  /// Total parameter bytes.
  size_t param_bytes(DType dtype = DType::kF32) const;

  std::string to_string() const;

  void serialize(common::Serializer& s) const;
  static LayerDef deserialize(common::Deserializer& d);

 private:
  LayerKind kind_ = LayerKind::kInput;
  std::string name_;
  std::vector<std::pair<std::string, int64_t>> int_params_;
  std::vector<std::pair<std::string, double>> float_params_;
};

// ---- Factory helpers for the common layer kinds -------------------------

/// Input placeholder with `dim` features.
LayerDef make_input(int64_t dim);
/// Fully connected `in -> out`, optional bias.
LayerDef make_dense(int64_t in, int64_t out, bool bias = true);
/// Multi-head self-attention over `embed` dims with `heads` heads
/// (QKV projection + output projection, with biases).
LayerDef make_attention(int64_t embed, int64_t heads);
/// Layer normalization over `dim` features (gamma + beta).
LayerDef make_layer_norm(int64_t dim);
/// Batch normalization over `dim` features (gamma, beta; running stats are
/// optimizer-adjacent state and not stored, per the paper's limitation).
LayerDef make_batch_norm(int64_t dim);
/// Elementwise activation. `fn` examples: 0=relu 1=gelu 2=tanh 3=sigmoid.
LayerDef make_activation(int64_t fn);
LayerDef make_dropout(double rate);
LayerDef make_add();
LayerDef make_concat();
/// 2D convolution `in_ch -> out_ch`, square kernel `k`.
LayerDef make_conv2d(int64_t in_ch, int64_t out_ch, int64_t k, bool bias = true);
LayerDef make_embedding(int64_t vocab, int64_t dim);
LayerDef make_output(int64_t in, int64_t classes);

}  // namespace evostore::model
