// Robustness fuzzing: malformed wire bytes must never crash, hang, or
// silently decode wrong data — decoders either round-trip exactly or report
// a sticky error. Seeded and deterministic.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/wire.h"
#include "nas/attn_space.h"
#include "storage/h5file.h"
#include "tests/core/test_env.h"
#include "workload/deepspace.h"

namespace evostore {
namespace {

using common::Buffer;
using common::Bytes;
using common::Deserializer;
using common::Serializer;
using common::Xoshiro256;

Bytes random_bytes(Xoshiro256& rng, size_t max_len) {
  Bytes out(rng.below(max_len + 1));
  for (auto& b : out) b = static_cast<std::byte>(rng.below(256));
  return out;
}

Bytes mutate_bytes(const Bytes& in, Xoshiro256& rng) {
  Bytes out = in;
  switch (rng.below(3)) {
    case 0:  // truncate
      if (!out.empty()) out.resize(rng.below(out.size()));
      break;
    case 1:  // bit flip
      if (!out.empty()) {
        size_t pos = rng.below(out.size());
        out[pos] = out[pos] ^ static_cast<std::byte>(1u << rng.below(8));
      }
      break;
    default:  // splice garbage
      if (!out.empty()) {
        size_t pos = rng.below(out.size());
        out[pos] = static_cast<std::byte>(rng.below(256));
        if (out.size() > 4) out.erase(out.begin() + static_cast<long>(pos % 3));
      }
      break;
  }
  return out;
}

TEST(Fuzz, DeserializerNeverCrashesOnRandomBytes) {
  Xoshiro256 rng(1);
  for (int iter = 0; iter < 3000; ++iter) {
    Bytes data = random_bytes(rng, 64);
    Deserializer d(data);
    // Drive a random read program over the garbage.
    for (int op = 0; op < 8; ++op) {
      switch (rng.below(7)) {
        case 0: (void)d.u8(); break;
        case 1: (void)d.u32(); break;
        case 2: (void)d.u64(); break;
        case 3: (void)d.i64(); break;
        case 4: (void)d.f64(); break;
        case 5: (void)d.str(); break;
        default: (void)d.buffer(); break;
      }
    }
    (void)d.finish();  // must not crash; may be ok or error
  }
  SUCCEED();
}

TEST(Fuzz, ArchGraphDecodeRejectsOrRoundTrips) {
  Xoshiro256 rng(2);
  auto graph = core::testing::chain_graph(6, 16, 2);
  Serializer s;
  graph.serialize(s);
  const Bytes valid = s.data();

  int ok_count = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    Bytes mutated = mutate_bytes(valid, rng);
    Deserializer d(mutated);
    auto g = model::ArchGraph::deserialize(d);
    if (d.finish().ok()) {
      ++ok_count;
      // Whatever decoded must be internally consistent: edges in range.
      for (common::VertexId v = 0; v < g.size(); ++v) {
        for (auto to : g.out_edges(v)) {
          ASSERT_LT(to, g.size());
        }
      }
    }
  }
  // Some mutations (e.g., hyperparameter bit flips) decode fine — but the
  // framing must catch structural damage most of the time.
  EXPECT_LT(ok_count, 1500);
}

// The LCP query encoding a provider decodes, mutated: it never crashes, a
// failure is Corruption, and whatever decodes stays in range (every
// signature from the encoded table, every edge target a vertex, in-degrees
// that count the edges) and re-encodes to a shape that decodes the same.
TEST(Fuzz, ShapeDecodeStaysInRange) {
  Xoshiro256 rng(4);
  workload::DeepSpaceConfig narrow;
  narrow.input_dim = 8;
  narrow.widths = {8, 16, 24, 32};
  workload::DeepSpace space(narrow);
  nas::AttnSearchSpace attn;
  const std::vector<model::ArchGraph> graphs = {
      core::testing::chain_graph(6, 16, 2),
      space.decode_graph(space.random(rng)),
      attn.decode(attn.random(rng)),
  };
  int ok_count = 0;
  for (const model::ArchGraph& graph : graphs) {
    Serializer s;
    graph.serialize_shape(s);
    const Bytes valid = s.data();
    for (int iter = 0; iter < 1500; ++iter) {
      Bytes mutated = mutate_bytes(valid, rng);
      Deserializer d(mutated);
      auto g = model::GraphShape::deserialize_shape(d);
      if (!d.ok()) {
        ASSERT_EQ(d.status().code(), common::ErrorCode::kCorruption);
        ASSERT_TRUE(g.empty()) << "iteration " << iter;
        continue;
      }
      ++ok_count;
      // The table as encoded: the decoded signatures come from it.
      Deserializer head(mutated);
      (void)head.u64();
      std::vector<common::Hash128> table(head.u64());
      for (auto& sig : table) {
        sig.hi = head.fixed64();
        sig.lo = head.fixed64();
      }
      ASSERT_TRUE(head.ok());
      std::vector<uint32_t> in(g.size(), 0);
      for (common::VertexId v = 0; v < g.size(); ++v) {
        ASSERT_NE(std::find(table.begin(), table.end(), g.signature(v)),
                  table.end())
            << "iteration " << iter;
        for (auto to : g.out_edges(v)) {
          ASSERT_LT(to, g.size()) << "iteration " << iter;
          ++in[to];
        }
      }
      for (common::VertexId v = 0; v < g.size(); ++v) {
        ASSERT_EQ(g.in_degree(v), in[v]) << "iteration " << iter;
      }
      Serializer again;
      g.serialize_shape(again);
      Deserializer d2(again.data());
      ASSERT_EQ(model::GraphShape::deserialize_shape(d2), g);
      ASSERT_TRUE(d2.finish().ok());
    }
  }
  // Both outcomes ran: bit flips inside a signature decode fine.
  EXPECT_GT(ok_count, 100);
  EXPECT_LT(ok_count, 4000);
}

TEST(Fuzz, WireMessagesSurviveMutation) {
  Xoshiro256 rng(3);
  core::wire::PutModelRequest req;
  req.id = common::ModelId::make(1, 1);
  req.ancestor = common::ModelId::make(1, 2);
  req.quality = 0.8;
  req.graph = core::testing::chain_graph(4, 8);
  req.owners = core::OwnerMap::self_owned(req.id, req.graph.size());
  for (common::VertexId v = 0; v < req.graph.size(); ++v) {
    auto env = compress::compress_segment(
        model::make_random_segment(req.graph, v, 7), compress::CodecId::kRaw);
    ASSERT_TRUE(env.ok());
    req.new_segments.emplace_back(v, std::move(env).value());
  }
  Serializer s;
  req.serialize(s);
  const Bytes valid = s.data();

  // The untouched message round-trips.
  {
    Deserializer d(valid);
    auto out = core::wire::PutModelRequest::deserialize(d);
    ASSERT_TRUE(d.finish().ok());
    EXPECT_EQ(out.id, req.id);
    EXPECT_EQ(out.owners, req.owners);
    EXPECT_EQ(out.new_segments.size(), req.new_segments.size());
  }
  for (int iter = 0; iter < 2000; ++iter) {
    Bytes mutated = mutate_bytes(valid, rng);
    Deserializer d(mutated);
    auto out = core::wire::PutModelRequest::deserialize(d);
    (void)out;
    (void)d.finish();  // must not crash or hang
  }
  SUCCEED();
}

TEST(Fuzz, H5ReaderRejectsMutatedTocs) {
  Xoshiro256 rng(4);
  storage::H5Writer w;
  w.put_attr("quality", "0.5");
  ASSERT_TRUE(
      w.put_dataset("/w/k", model::Tensor::random({{8, 8}, model::DType::kF32}, 1))
          .ok());
  ASSERT_TRUE(
      w.put_dataset("/w/b", model::Tensor::random({{8}, model::DType::kF32}, 2))
          .ok());
  auto extents = std::move(w).finish();
  Bytes toc = extents[0].to_bytes();

  for (int iter = 0; iter < 1500; ++iter) {
    auto mutated = extents;
    mutated[0] = Buffer::dense(mutate_bytes(toc, rng));
    auto r = storage::H5Reader::open(std::move(mutated));
    if (r.ok()) {
      // Accepted images must still be self-consistent.
      for (const auto& path : r->dataset_paths()) {
        auto t = r->dataset(path);
        ASSERT_TRUE(t.ok());
      }
    }
  }
  SUCCEED();
}

TEST(Fuzz, OwnerMapDeserializeBounded) {
  // Length-prefix attacks: a huge claimed count on a tiny payload must fail
  // without attempting a huge allocation... within reason (reserve() on the
  // claimed count is bounded by the varint check failing first on read).
  Serializer s;
  s.u64(1ull << 20);  // claims a million entries, provides none
  Deserializer d(s.data());
  auto m = core::OwnerMap::deserialize(d);
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(m.size(), 0u);
}

TEST(Fuzz, SegmentDeserializeGarbageTensorCount) {
  Serializer s;
  s.u64(3);  // three tensors claimed, zero provided
  Deserializer d(s.data());
  auto seg = model::Segment::deserialize(d);
  EXPECT_FALSE(d.ok());
  EXPECT_TRUE(seg.tensors.empty() || seg.nbytes() == 0);
}

TEST(Fuzz, CompressedSegmentSurvivesMutation) {
  // Mutated envelopes must deserialize without crashing, and the full decode
  // path (envelope -> codec -> tensors) must either round-trip or return a
  // Status — never crash, hang, or over-allocate.
  Xoshiro256 rng(5);
  auto graph = core::testing::chain_graph(3, 8);
  model::Segment base = model::make_random_segment(graph, 1, 11);
  model::Segment child = base;
  // A dense tensor so the delta codec exercises its RLE-diff payload too.
  {
    Bytes bytes(base.tensors[0].data().size());
    base.tensors[0].data().read(0, bytes);
    base.tensors[0] = model::Tensor(
        base.tensors[0].spec(),
        Buffer::copy(std::span<const std::byte>(bytes)));
    bytes[0] ^= std::byte{0x11};
    child.tensors[0] = model::Tensor(
        base.tensors[0].spec(),
        Buffer::copy(std::span<const std::byte>(bytes)));
  }
  common::SegmentKey base_key{common::ModelId::make(1, 1), 1};

  for (compress::CodecId codec :
       {compress::CodecId::kRaw, compress::CodecId::kZeroRle,
        compress::CodecId::kDeltaVsAncestor}) {
    auto env = compress::compress_segment(child, codec, &base, &base_key);
    ASSERT_TRUE(env.ok());
    Serializer s;
    env->serialize(s);
    const Bytes valid = s.data();

    // Untouched envelope round-trips through serde + decode.
    {
      Deserializer d(valid);
      auto out = compress::CompressedSegment::deserialize(d);
      ASSERT_TRUE(d.finish().ok());
      auto seg = compress::decompress_segment(out, &base);
      ASSERT_TRUE(seg.ok()) << seg.status().to_string();
      EXPECT_TRUE(seg->content_equals(child));
    }
    for (int iter = 0; iter < 2000; ++iter) {
      Bytes mutated = mutate_bytes(valid, rng);
      Deserializer d(mutated);
      auto out = compress::CompressedSegment::deserialize(d);
      if (!d.finish().ok()) continue;
      // Decodable framing: the codec layer must still verify content.
      auto seg = compress::decompress_segment(out, &base);
      if (seg.ok()) {
        EXPECT_EQ(seg->nbytes(), out.logical_bytes);
      }
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace evostore
