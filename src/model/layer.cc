#include "model/layer.h"

#include <algorithm>

namespace evostore::model {

std::string_view layer_kind_name(LayerKind k) {
  switch (k) {
    case LayerKind::kInput: return "input";
    case LayerKind::kDense: return "dense";
    case LayerKind::kConv2D: return "conv2d";
    case LayerKind::kAttention: return "attention";
    case LayerKind::kLayerNorm: return "layer_norm";
    case LayerKind::kBatchNorm: return "batch_norm";
    case LayerKind::kActivation: return "activation";
    case LayerKind::kDropout: return "dropout";
    case LayerKind::kAdd: return "add";
    case LayerKind::kConcat: return "concat";
    case LayerKind::kEmbedding: return "embedding";
    case LayerKind::kPooling: return "pooling";
    case LayerKind::kFlatten: return "flatten";
    case LayerKind::kOutput: return "output";
  }
  return "unknown";
}

namespace {
template <typename V>
auto find_key(std::vector<std::pair<std::string, V>>& params,
              std::string_view key) {
  return std::lower_bound(
      params.begin(), params.end(), key,
      [](const auto& p, std::string_view k) { return p.first < k; });
}
template <typename V>
auto find_key(const std::vector<std::pair<std::string, V>>& params,
              std::string_view key) {
  return std::lower_bound(
      params.begin(), params.end(), key,
      [](const auto& p, std::string_view k) { return p.first < k; });
}
}  // namespace

LayerDef& LayerDef::set_int(std::string_view key, int64_t v) {
  auto it = find_key(int_params_, key);
  if (it != int_params_.end() && it->first == key) {
    it->second = v;
  } else {
    int_params_.emplace(it, std::string(key), v);
  }
  return *this;
}

LayerDef& LayerDef::set_float(std::string_view key, double v) {
  auto it = find_key(float_params_, key);
  if (it != float_params_.end() && it->first == key) {
    it->second = v;
  } else {
    float_params_.emplace(it, std::string(key), v);
  }
  return *this;
}

int64_t LayerDef::get_int(std::string_view key, int64_t fallback) const {
  auto it = find_key(int_params_, key);
  return (it != int_params_.end() && it->first == key) ? it->second : fallback;
}

double LayerDef::get_float(std::string_view key, double fallback) const {
  auto it = find_key(float_params_, key);
  return (it != float_params_.end() && it->first == key) ? it->second : fallback;
}

bool LayerDef::has_int(std::string_view key) const {
  auto it = find_key(int_params_, key);
  return it != int_params_.end() && it->first == key;
}

common::Hash128 LayerDef::signature() const {
  common::Hasher128 h(0x1a7e5);
  h.u64(static_cast<uint64_t>(kind_));
  h.u64(int_params_.size());
  for (const auto& [k, v] : int_params_) h.str(k).i64(v);
  h.u64(float_params_.size());
  for (const auto& [k, v] : float_params_) h.str(k).f64(v);
  return h.finish();
}

std::vector<TensorSpec> LayerDef::param_specs(DType dtype) const {
  std::vector<TensorSpec> specs;
  auto push = [&](std::vector<int64_t> shape) {
    specs.push_back(TensorSpec{std::move(shape), dtype});
  };
  switch (kind_) {
    case LayerKind::kDense: {
      int64_t in = get_int("in"), out = get_int("out");
      push({out, in});
      if (get_int("bias", 1)) push({out});
      break;
    }
    case LayerKind::kConv2D: {
      int64_t in = get_int("in_ch"), out = get_int("out_ch"), k = get_int("k");
      push({out, in, k, k});
      if (get_int("bias", 1)) push({out});
      break;
    }
    case LayerKind::kAttention: {
      int64_t e = get_int("embed");
      push({3 * e, e});  // fused QKV projection
      push({3 * e});
      push({e, e});  // output projection
      push({e});
      break;
    }
    case LayerKind::kLayerNorm:
    case LayerKind::kBatchNorm: {
      int64_t dim = get_int("dim");
      push({dim});  // gamma
      push({dim});  // beta
      break;
    }
    case LayerKind::kEmbedding: {
      push({get_int("vocab"), get_int("dim")});
      break;
    }
    case LayerKind::kOutput: {
      int64_t in = get_int("in"), classes = get_int("classes");
      push({classes, in});
      push({classes});
      break;
    }
    case LayerKind::kInput:
    case LayerKind::kActivation:
    case LayerKind::kDropout:
    case LayerKind::kAdd:
    case LayerKind::kConcat:
    case LayerKind::kPooling:
    case LayerKind::kFlatten:
      break;  // parameterless
  }
  return specs;
}

size_t LayerDef::param_bytes(DType dtype) const {
  size_t total = 0;
  for (const auto& spec : param_specs(dtype)) total += spec.nbytes();
  return total;
}

std::string LayerDef::to_string() const {
  std::string out(layer_kind_name(kind_));
  out += "(";
  bool first = true;
  for (const auto& [k, v] : int_params_) {
    if (!first) out += ",";
    first = false;
    out += k + "=" + std::to_string(v);
  }
  for (const auto& [k, v] : float_params_) {
    if (!first) out += ",";
    first = false;
    out += k + "=" + std::to_string(v);
  }
  out += ")";
  if (!name_.empty()) out += "#" + name_;
  return out;
}

void LayerDef::serialize(common::Serializer& s) const {
  s.u8(static_cast<uint8_t>(kind_));
  s.str(name_);
  s.u64(int_params_.size());
  for (const auto& [k, v] : int_params_) {
    s.str(k);
    s.i64(v);
  }
  s.u64(float_params_.size());
  for (const auto& [k, v] : float_params_) {
    s.str(k);
    s.f64(v);
  }
}

LayerDef LayerDef::deserialize(common::Deserializer& d) {
  LayerDef def(static_cast<LayerKind>(d.u8()));
  def.name_ = d.str();
  uint64_t ni = d.u64();
  if (!d.ok()) return def;
  for (uint64_t i = 0; i < ni && d.ok(); ++i) {
    std::string k = d.str();
    int64_t v = d.i64();
    def.set_int(k, v);
  }
  uint64_t nf = d.u64();
  if (!d.ok()) return def;
  for (uint64_t i = 0; i < nf && d.ok(); ++i) {
    std::string k = d.str();
    double v = d.f64();
    def.set_float(k, v);
  }
  return def;
}

LayerDef make_input(int64_t dim) {
  LayerDef def(LayerKind::kInput);
  def.set_int("dim", dim);
  return def;
}

LayerDef make_dense(int64_t in, int64_t out, bool bias) {
  LayerDef def(LayerKind::kDense);
  def.set_int("in", in).set_int("out", out).set_int("bias", bias ? 1 : 0);
  return def;
}

LayerDef make_attention(int64_t embed, int64_t heads) {
  LayerDef def(LayerKind::kAttention);
  def.set_int("embed", embed).set_int("heads", heads);
  return def;
}

LayerDef make_layer_norm(int64_t dim) {
  LayerDef def(LayerKind::kLayerNorm);
  def.set_int("dim", dim);
  return def;
}

LayerDef make_batch_norm(int64_t dim) {
  LayerDef def(LayerKind::kBatchNorm);
  def.set_int("dim", dim);
  return def;
}

LayerDef make_activation(int64_t fn) {
  LayerDef def(LayerKind::kActivation);
  def.set_int("fn", fn);
  return def;
}

LayerDef make_dropout(double rate) {
  LayerDef def(LayerKind::kDropout);
  // Quantize so float equality in signatures is robust.
  def.set_int("rate_x1000", static_cast<int64_t>(rate * 1000.0 + 0.5));
  return def;
}

LayerDef make_add() { return LayerDef(LayerKind::kAdd); }
LayerDef make_concat() { return LayerDef(LayerKind::kConcat); }

LayerDef make_conv2d(int64_t in_ch, int64_t out_ch, int64_t k, bool bias) {
  LayerDef def(LayerKind::kConv2D);
  def.set_int("in_ch", in_ch)
      .set_int("out_ch", out_ch)
      .set_int("k", k)
      .set_int("bias", bias ? 1 : 0);
  return def;
}

LayerDef make_embedding(int64_t vocab, int64_t dim) {
  LayerDef def(LayerKind::kEmbedding);
  def.set_int("vocab", vocab).set_int("dim", dim);
  return def;
}

LayerDef make_output(int64_t in, int64_t classes) {
  LayerDef def(LayerKind::kOutput);
  def.set_int("in", in).set_int("classes", classes);
  return def;
}

}  // namespace evostore::model
