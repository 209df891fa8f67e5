// GraphShape: the part of an ArchGraph that LCP matching reads, and the
// shape-only decode a provider runs on every LCP query. The decode must
// give exactly the decoded ArchGraph's shape (signatures, in-degrees,
// out-edges) on every graph family the benchmarks query with, hash
// non-canonical layer encodings the way LayerDef::deserialize normalizes
// them, and fail the stream wherever ArchGraph::deserialize fails, with
// the same status.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serde.h"
#include "model/arch_graph.h"
#include "model/layer.h"
#include "nas/attn_space.h"
#include "tests/core/test_env.h"
#include "workload/deepspace.h"

namespace evostore::model {
namespace {

using common::Bytes;
using common::Deserializer;
using common::Serializer;
using common::VertexId;

Bytes encode(const ArchGraph& g) {
  Serializer s;
  g.serialize(s);
  return std::move(s).take();
}

// Both decodes of `bytes`: the same status at the same position and, when
// they succeed, the same shape.
void expect_same_decode(const Bytes& bytes) {
  Deserializer full(bytes);
  ArchGraph g = ArchGraph::deserialize(full);
  Deserializer shape(bytes);
  GraphShape s = GraphShape::deserialize(shape);
  ASSERT_EQ(shape.status(), full.status());
  ASSERT_EQ(shape.position(), full.position());
  if (full.ok()) {
    ASSERT_EQ(s, g);
    EXPECT_EQ(s.graph_hash(), g.graph_hash());
  }
}

void expect_shape_decode(const ArchGraph& g) {
  Bytes bytes = encode(g);
  Deserializer d(bytes);
  GraphShape s = GraphShape::deserialize(d);
  ASSERT_TRUE(d.finish().ok()) << d.status().to_string();
  ASSERT_EQ(s, g);
  for (VertexId v = 0; v < g.size(); ++v) {
    EXPECT_EQ(s.signature(v), g.def(v).signature());
  }
  expect_same_decode(bytes);
}

TEST(GraphShape, DecodeMatchesDeepSpaceDefaultAndCatalogConfigs) {
  workload::DeepSpaceConfig narrow;  // perfbench lcp_catalog's space
  narrow.input_dim = 8;
  narrow.widths = {8, 16, 24, 32};
  common::Xoshiro256 rng(51);
  for (const auto& cfg : {workload::DeepSpaceConfig{}, narrow}) {
    workload::DeepSpace space(cfg);
    for (int i = 0; i < 150; ++i) {
      auto seq = space.random(rng);
      expect_shape_decode(space.decode_graph(seq));
      expect_shape_decode(space.decode_graph(space.mutate(seq, rng)));
      ASSERT_FALSE(HasFailure()) << "graph " << i;
    }
  }
}

TEST(GraphShape, DecodeMatchesCandleAttn) {
  nas::AttnSearchSpace space;
  common::Xoshiro256 rng(53);
  for (int i = 0; i < 150; ++i) {
    auto seq = space.random(rng);
    expect_shape_decode(space.decode(seq));
    expect_shape_decode(space.decode(space.mutate(seq, rng)));
    ASSERT_FALSE(HasFailure()) << "graph " << i;
  }
}

TEST(GraphShape, DecodeMatchesChainsAndRandomParts) {
  common::Xoshiro256 rng(55);
  for (int i = 0; i < 100; ++i) {
    expect_shape_decode(core::testing::chain_graph(
        1 + static_cast<int>(rng.below(12)),
        8 * static_cast<int64_t>(1 + rng.below(4)),
        static_cast<int>(rng.below(3))));
    // Random DAG parts: any vertex may feed any later one, with repeated
    // edges, extra sources and dropout's float-quantized parameters.
    size_t n = 1 + rng.below(10);
    std::vector<LayerDef> defs;
    defs.push_back(make_input(8));
    for (size_t v = 1; v < n; ++v) {
      const auto pick = static_cast<int64_t>(rng.below(4));
      if (pick == 0) {
        const auto width = 8 * static_cast<int64_t>(1 + rng.below(3));
        defs.push_back(make_dense(8, width));
      } else if (pick == 1) {
        defs.push_back(make_dropout(0.1 * static_cast<double>(rng.below(5))));
      } else if (pick == 2) {
        defs.push_back(make_attention(16, 2));
      } else {
        defs.push_back(make_add());
      }
    }
    std::vector<std::pair<VertexId, VertexId>> edges;
    for (size_t e = rng.below(2 * n); e > 0 && n > 1; --e) {
      auto to = static_cast<VertexId>(1 + rng.below(n - 1));
      edges.emplace_back(static_cast<VertexId>(rng.below(to)), to);
    }
    auto g = ArchGraph::from_parts(std::move(defs), std::move(edges));
    ASSERT_TRUE(g.ok());
    expect_shape_decode(g.value());
    ASSERT_FALSE(HasFailure()) << "graph " << i;
  }
  expect_shape_decode(ArchGraph{});
}

// One layer as LayerDef::serialize lays it out, with the parameter lists
// exactly as given: out of order or repeated when a test says so.
void put_layer(Serializer& s, LayerKind kind, std::string_view name,
               const std::vector<std::pair<std::string, int64_t>>& ints,
               const std::vector<std::pair<std::string, double>>& floats) {
  s.u8(static_cast<uint8_t>(kind));
  s.str(name);
  s.u64(ints.size());
  for (const auto& [k, v] : ints) {
    s.str(k);
    s.i64(v);
  }
  s.u64(floats.size());
  for (const auto& [k, v] : floats) {
    s.str(k);
    s.f64(v);
  }
}

// A chain 0 -> 1 -> ... over the layers `put_layers` writes.
template <typename PutLayers>
Bytes chain_bytes(size_t n, PutLayers put_layers) {
  Serializer s;
  s.u64(n);
  put_layers(s);
  for (size_t v = 0; v < n; ++v) {
    s.u64(v + 1 < n ? 1 : 0);
    if (v + 1 < n) s.u32(static_cast<uint32_t>(v + 1));
  }
  return std::move(s).take();
}

TEST(GraphShape, NonCanonicalLayersHashLikeLayerDefDeserialize) {
  using Ints = std::vector<std::pair<std::string, int64_t>>;
  using Floats = std::vector<std::pair<std::string, double>>;
  struct Case {
    LayerKind kind;
    Ints ints;
    Floats floats;
  };
  const std::vector<Case> cases = {
      {LayerKind::kDense, {{"out", 16}, {"in", 8}, {"bias", 1}}, {}},
      {LayerKind::kDense, {{"in", 8}, {"out", 4}, {"in", 9}}, {}},
      {LayerKind::kConv2D, {{"k", 3}, {"k", 5}, {"in_ch", 2}, {"k", 7}}, {}},
      {LayerKind::kDropout, {}, {{"rate", 0.25}, {"alpha", -1.5}}},
      {LayerKind::kDropout, {{"z", 1}}, {{"rate", 0.5}, {"rate", 0.75}}},
      {LayerKind::kActivation, {{"", 0}, {"fn", 2}, {"", 3}}, {{"", 1.0}}},
      {static_cast<LayerKind>(200), {{"b", 1}, {"a", 2}}, {}},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    Serializer one;
    put_layer(one, c.kind, "layer" + std::to_string(i), c.ints, c.floats);
    Deserializer d(one.data());
    const common::Hash128 expected = LayerDef::deserialize(d).signature();
    ASSERT_TRUE(d.finish().ok());

    Bytes bytes = chain_bytes(2, [&](Serializer& s) {
      put_layer(s, LayerKind::kInput, "in", {{"dim", 8}}, {});
      put_layer(s, c.kind, "layer" + std::to_string(i), c.ints, c.floats);
    });
    Deserializer sd(bytes);
    GraphShape shape = GraphShape::deserialize(sd);
    ASSERT_TRUE(sd.finish().ok()) << "case " << i;
    EXPECT_EQ(shape.signature(1), expected) << "case " << i;
    expect_same_decode(bytes);
  }
  // Normalization is what makes these equal: the same parameters in
  // canonical order, under another name, decode to the same shape.
  auto dense = [](std::string_view name, const Ints& ints) {
    return chain_bytes(2, [&](Serializer& s) {
      put_layer(s, LayerKind::kInput, "in", {{"dim", 8}}, {});
      put_layer(s, LayerKind::kDense, name, ints, {});
    });
  };
  Bytes unsorted = dense("x", {{"out", 16}, {"in", 7}, {"in", 8}});
  Bytes canonical = dense("y", {{"in", 8}, {"out", 16}});
  Deserializer du(unsorted);
  Deserializer dc(canonical);
  EXPECT_EQ(GraphShape::deserialize(du), GraphShape::deserialize(dc));
}

TEST(GraphShape, MalformedBytesFailWhereArchGraphFails) {
  auto put_dense = [](Serializer& s) {
    put_layer(s, LayerKind::kInput, "in", {{"dim", 8}}, {});
    put_layer(s, LayerKind::kDense, "d", {{"in", 8}, {"out", 8}}, {});
  };
  // An edge target outside the vertex range.
  {
    Serializer s;
    s.u64(2);
    put_dense(s);
    s.u64(1);
    s.u32(2);
    s.u64(0);
    Deserializer d(s.data());
    (void)GraphShape::deserialize(d);
    EXPECT_FALSE(d.ok());
    expect_same_decode(s.data());
  }
  // Counts past the end: vertices, parameters, out-degree.
  {
    Serializer s;
    s.u64(1000);
    put_dense(s);
    expect_same_decode(s.data());
  }
  {
    Serializer s;
    s.u64(1);
    s.u8(static_cast<uint8_t>(LayerKind::kDense));
    s.str("d");
    s.u64(1u << 30);
    s.str("in");
    s.i64(8);
    expect_same_decode(s.data());
  }
  {
    Serializer s;
    s.u64(2);
    put_dense(s);
    s.u64(1u << 30);
    s.u32(1);
    expect_same_decode(s.data());
  }
  // Every truncation of a valid encoding, which cuts keys, names, values
  // and edges at each byte.
  Bytes valid = chain_bytes(3, [&](Serializer& s) {
    put_dense(s);
    put_layer(s, LayerKind::kDropout, "drop", {{"z", 1}, {"a", 2}},
              {{"rate", 0.5}});
  });
  for (size_t len = 0; len < valid.size(); ++len) {
    Bytes cut(valid.begin(), valid.begin() + static_cast<long>(len));
    Deserializer d(cut);
    (void)GraphShape::deserialize(d);
    EXPECT_FALSE(d.finish().ok()) << "length " << len;
    expect_same_decode(cut);
    ASSERT_FALSE(HasFailure()) << "length " << len;
  }
}

}  // namespace
}  // namespace evostore::model
