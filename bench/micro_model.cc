// Micro-benchmarks for the model layer: flattening, canonical hashing,
// serialization, the LCP query decode — the metadata costs behind every
// query and put.
#include <benchmark/benchmark.h>

#include "model/model.h"
#include "nas/attn_space.h"
#include "workload/deepspace.h"

namespace {

using namespace evostore;

void BM_FlattenDeepSpace(benchmark::State& state) {
  workload::DeepSpace space;
  common::Xoshiro256 rng(1);
  std::vector<workload::DeepSpaceSeq> seqs;
  for (int i = 0; i < 64; ++i) seqs.push_back(space.random(rng));
  size_t i = 0;
  for (auto _ : state) {
    auto arch = space.decode(seqs[i++ % seqs.size()]);
    auto g = model::ArchGraph::flatten(arch);
    benchmark::DoNotOptimize(g.ok());
  }
}
BENCHMARK(BM_FlattenDeepSpace);

void BM_DecodeAttnCandidate(benchmark::State& state) {
  nas::AttnSearchSpace space;
  common::Xoshiro256 rng(2);
  std::vector<nas::CandidateSeq> seqs;
  for (int i = 0; i < 64; ++i) seqs.push_back(space.random(rng));
  size_t i = 0;
  for (auto _ : state) {
    auto g = space.decode(seqs[i++ % seqs.size()]);
    benchmark::DoNotOptimize(g.size());
  }
}
BENCHMARK(BM_DecodeAttnCandidate);

void BM_LayerSignature(benchmark::State& state) {
  auto def = model::make_attention(1024, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(def.signature());
  }
}
BENCHMARK(BM_LayerSignature);

void BM_GraphSerde(benchmark::State& state) {
  workload::DeepSpace space;
  common::Xoshiro256 rng(3);
  auto g = space.decode_graph(space.random(rng));
  for (auto _ : state) {
    common::Serializer s;
    g.serialize(s);
    common::Deserializer d(s.data());
    auto out = model::ArchGraph::deserialize(d);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_GraphSerde);

// What a provider pays to decode an LCP query's graph, once per query leg:
// the shape encoding queries travel in (GraphShape::deserialize_shape: a
// signature table, indexes and edges; no layer parsed or hashed) beside the
// full ArchGraph decode stored models still take (every LayerDef built and
// hashed). `family` 0 is perfbench lcp_catalog's DeepSpace space, 1 a
// CANDLE-ATTN candidate; `shape` picks the encoding and its decoder.
void BM_LcpQueryDecode(benchmark::State& state) {
  const bool candle = state.range(0) != 0;
  const bool shape = state.range(1) != 0;
  common::Xoshiro256 rng(5);
  std::vector<common::Bytes> queries;
  for (int i = 0; i < 64; ++i) {
    model::ArchGraph g;
    if (candle) {
      nas::AttnSearchSpace space;
      g = space.decode(space.random(rng));
    } else {
      workload::DeepSpaceConfig cfg;
      cfg.input_dim = 8;
      cfg.widths = {8, 16, 24, 32};
      workload::DeepSpace space(cfg);
      g = space.decode_graph(space.random(rng));
    }
    common::Serializer s;
    if (shape) {
      g.serialize_shape(s);
    } else {
      g.serialize(s);
    }
    queries.push_back(std::move(s).take());
  }
  size_t i = 0;
  for (auto _ : state) {
    common::Deserializer d(queries[i++ % queries.size()]);
    if (shape) {
      benchmark::DoNotOptimize(model::GraphShape::deserialize_shape(d).size());
    } else {
      benchmark::DoNotOptimize(model::ArchGraph::deserialize(d).size());
    }
  }
}
BENCHMARK(BM_LcpQueryDecode)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->ArgNames({"candle", "shape"});

void BM_RandomModelCreation(benchmark::State& state) {
  nas::AttnSearchSpace space;
  common::Xoshiro256 rng(4);
  auto g = space.decode(space.random(rng));
  uint64_t seed = 0;
  for (auto _ : state) {
    auto m = model::Model::random(common::ModelId::make(1, 1), g, ++seed);
    benchmark::DoNotOptimize(m.total_bytes());
  }
}
BENCHMARK(BM_RandomModelCreation);

void BM_SegmentSerde(benchmark::State& state) {
  auto g = nas::AttnSearchSpace().decode(
      nas::CandidateSeq(nas::AttnSearchSpace().positions(), 1));
  auto m = model::Model::random(common::ModelId::make(1, 1), g, 1);
  // Pick the largest segment.
  common::VertexId big = 0;
  for (common::VertexId v = 0; v < m.vertex_count(); ++v) {
    if (m.segment(v).nbytes() > m.segment(big).nbytes()) big = v;
  }
  for (auto _ : state) {
    common::Serializer s;
    m.segment(big).serialize(s);
    common::Deserializer d(s.data());
    auto out = model::Segment::deserialize(d);
    benchmark::DoNotOptimize(out.nbytes());
  }
}
BENCHMARK(BM_SegmentSerde);

}  // namespace
