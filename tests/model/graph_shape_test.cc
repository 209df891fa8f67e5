// GraphShape: the part of an ArchGraph that LCP matching reads, and the
// encoding an LCP query travels in (`serialize_shape`): the vertex count,
// each distinct signature once, one table index per vertex, then the
// adjacency block. Decoding it must give back exactly the graph's shape
// (signatures, in-degrees, out-edges) on every graph family the benchmarks
// query with, re-encode to the same bytes, and fail malformed input with
// Corruption.
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

Bytes encode_shape(const GraphShape& g) {
  Serializer s;
  g.serialize_shape(s);
  return std::move(s).take();
}

// The signature table an encoding carries, read by hand.
std::vector<common::Hash128> table_of(const Bytes& bytes) {
  Deserializer d(bytes);
  (void)d.u64();
  std::vector<common::Hash128> table(d.u64());
  for (auto& sig : table) {
    sig.hi = d.fixed64();
    sig.lo = d.fixed64();
  }
  EXPECT_TRUE(d.ok());
  return table;
}

// decode(encode(g)) is g's shape, the table holds each distinct signature
// once in first-appearance order, and the decoded shape encodes to the
// same bytes.
void expect_round_trip(const ArchGraph& g) {
  const Bytes bytes = encode_shape(g);
  Deserializer d(bytes);
  GraphShape s = GraphShape::deserialize_shape(d);
  ASSERT_TRUE(d.finish().ok()) << d.status().to_string();
  ASSERT_EQ(s, g);
  EXPECT_EQ(s.graph_hash(), g.graph_hash());
  std::vector<common::Hash128> first_seen;
  std::set<common::Hash128> seen;
  for (VertexId v = 0; v < g.size(); ++v) {
    EXPECT_EQ(s.signature(v), g.def(v).signature());
    if (seen.insert(g.signature(v)).second) {
      first_seen.push_back(g.signature(v));
    }
  }
  EXPECT_EQ(table_of(bytes), first_seen);
  EXPECT_EQ(encode_shape(s), bytes);
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
      expect_round_trip(space.decode_graph(seq));
      expect_round_trip(space.decode_graph(space.mutate(seq, rng)));
      ASSERT_FALSE(HasFailure()) << "graph " << i;
    }
  }
}

TEST(GraphShape, DecodeMatchesCandleAttn) {
  nas::AttnSearchSpace space;
  common::Xoshiro256 rng(53);
  for (int i = 0; i < 150; ++i) {
    auto seq = space.random(rng);
    expect_round_trip(space.decode(seq));
    expect_round_trip(space.decode(space.mutate(seq, rng)));
    ASSERT_FALSE(HasFailure()) << "graph " << i;
  }
}

TEST(GraphShape, DecodeMatchesChainsAndRandomParts) {
  common::Xoshiro256 rng(55);
  for (int i = 0; i < 100; ++i) {
    expect_round_trip(core::testing::chain_graph(
        1 + static_cast<int>(rng.below(12)),
        8 * static_cast<int64_t>(1 + rng.below(4)),
        static_cast<int>(rng.below(3))));
    // Random DAG parts: any vertex may feed any later one, with repeated
    // edges, extra sources and repeated layer configs.
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
    expect_round_trip(g.value());
    ASSERT_FALSE(HasFailure()) << "graph " << i;
  }
  expect_round_trip(ArchGraph{});
}

// The table carries the signatures the client's LayerDefs hash to, so a
// graph decoded from non-canonical layer encodings (keys out of order, a
// repeated key) sends the query its canonical twin sends.
TEST(GraphShape, NonCanonicalLayersHashLikeLayerDefDeserialize) {
  using Ints = std::vector<std::pair<std::string, int64_t>>;
  auto dense = [](std::string_view name, const Ints& ints) {
    Serializer s;
    s.u64(2);
    make_input(8).serialize(s);
    s.u8(static_cast<uint8_t>(LayerKind::kDense));
    s.str(name);
    s.u64(ints.size());
    for (const auto& [k, v] : ints) {
      s.str(k);
      s.i64(v);
    }
    s.u64(0);
    s.u64(1);  // 0 -> 1
    s.u32(1);
    s.u64(0);
    Deserializer d(s.data());
    ArchGraph g = ArchGraph::deserialize(d);
    EXPECT_TRUE(d.finish().ok()) << d.status().to_string();
    return g;
  };
  const ArchGraph unsorted = dense("x", {{"out", 16}, {"in", 7}, {"in", 8}});
  const ArchGraph canonical = dense("y", {{"in", 8}, {"out", 16}});
  EXPECT_EQ(unsorted.signature(1),
            LayerDef(LayerKind::kDense).set_int("out", 16).set_int("in", 8)
                .signature());
  EXPECT_EQ(encode_shape(unsorted), encode_shape(canonical));
  expect_round_trip(unsorted);
}

// Every malformed shape fails with Corruption, and so does every truncation
// of a valid encoding, which cuts counts, signatures, indexes and edges.
TEST(GraphShape, MalformedShapeFailsWithCorruption) {
  for (const auto& [what, bytes] : core::testing::malformed_query_shapes()) {
    Deserializer d(bytes);
    GraphShape s = GraphShape::deserialize_shape(d);
    EXPECT_EQ(d.status().code(), common::ErrorCode::kCorruption) << what;
    EXPECT_TRUE(s.empty()) << what;
  }
  const Bytes valid = encode_shape(core::testing::chain_graph(3, 8, 1));
  for (size_t len = 0; len < valid.size(); ++len) {
    Bytes cut(valid.begin(), valid.begin() + static_cast<long>(len));
    Deserializer d(cut);
    (void)GraphShape::deserialize_shape(d);
    EXPECT_EQ(d.status().code(), common::ErrorCode::kCorruption)
        << "length " << len;
  }
}

}  // namespace
}  // namespace evostore::model
