// Wire-protocol round trips: every message type must survive
// serialize/deserialize bit-exactly, including edge cases (empty payloads,
// error statuses, not-found responses).
#include "core/wire.h"

#include <gtest/gtest.h>

#include <string_view>

#include "baseline/redis_queries.h"
#include "core/provider.h"
#include "storage/mem_kv.h"
#include "tests/core/test_env.h"

namespace evostore::core::wire {
namespace {

using common::Bytes;
using common::Deserializer;
using common::ModelId;
using common::SegmentKey;
using common::Serializer;
using core::testing::chain_graph;

compress::CompressedSegment raw_envelope(const model::Segment& seg) {
  auto env = compress::compress_segment(seg, compress::CodecId::kRaw);
  EXPECT_TRUE(env.ok());
  return std::move(env).value();
}

template <typename T>
T round_trip(const T& in) {
  Serializer s;
  in.serialize(s);
  Deserializer d(s.data());
  T out = T::deserialize(d);
  EXPECT_TRUE(d.finish().ok()) << d.status().to_string();
  return out;
}

TEST(Wire, StatusHelpers) {
  Serializer s;
  serialize_status(s, common::Status::NotFound("gone"));
  serialize_status(s, common::Status::Ok());
  Deserializer d(s.data());
  auto st1 = deserialize_status(d);
  auto st2 = deserialize_status(d);
  EXPECT_EQ(st1.code(), common::ErrorCode::kNotFound);
  EXPECT_EQ(st1.message(), "gone");
  EXPECT_TRUE(st2.ok());
}

TEST(Wire, SegmentKeyHelpers) {
  Serializer s;
  serialize_key(s, SegmentKey{ModelId::make(7, 9), 42});
  Deserializer d(s.data());
  auto k = deserialize_key(d);
  EXPECT_EQ(k.owner, ModelId::make(7, 9));
  EXPECT_EQ(k.vertex, 42u);
}

TEST(Wire, PutModelRequestFull) {
  PutModelRequest req;
  req.id = ModelId::make(1, 5);
  req.ancestor = ModelId::make(1, 4);
  req.quality = 0.875;
  req.graph = chain_graph(4, 8);
  req.owners = OwnerMap::self_owned(req.id, req.graph.size());
  req.owners.set_entry(0, {req.ancestor, 0});
  for (common::VertexId v = 1; v < req.graph.size(); ++v) {
    req.new_segments.emplace_back(
        v, raw_envelope(model::make_random_segment(req.graph, v, 3)));
  }
  auto out = round_trip(req);
  EXPECT_EQ(out.id, req.id);
  EXPECT_EQ(out.ancestor, req.ancestor);
  EXPECT_DOUBLE_EQ(out.quality, req.quality);
  EXPECT_EQ(out.graph.graph_hash(), req.graph.graph_hash());
  EXPECT_EQ(out.owners, req.owners);
  ASSERT_EQ(out.new_segments.size(), req.new_segments.size());
  for (size_t i = 0; i < out.new_segments.size(); ++i) {
    EXPECT_EQ(out.new_segments[i].first, req.new_segments[i].first);
    EXPECT_EQ(out.new_segments[i].second, req.new_segments[i].second);
  }
}

TEST(Wire, PutModelRequestEmptySegments) {
  // The Fig.-5 metadata-only population path.
  PutModelRequest req;
  req.id = ModelId::make(2, 1);
  req.graph = chain_graph(3, 8);
  req.owners = OwnerMap::self_owned(req.id, req.graph.size());
  auto out = round_trip(req);
  EXPECT_TRUE(out.new_segments.empty());
  EXPECT_FALSE(out.ancestor.valid());
}

TEST(Wire, PutModelResponse) {
  PutModelResponse resp;
  resp.status = common::Status::AlreadyExists("dup");
  resp.store_seq = 99;
  auto out = round_trip(resp);
  EXPECT_EQ(out.status.code(), common::ErrorCode::kAlreadyExists);
  EXPECT_EQ(out.store_seq, 99u);
}

TEST(Wire, GetMetaFoundAndNotFound) {
  GetMetaResponse found;
  found.found = true;
  found.graph = chain_graph(3, 8);
  found.owners = OwnerMap::self_owned(ModelId::make(1, 1), found.graph.size());
  found.quality = 0.5;
  found.ancestor = ModelId::make(1, 7);
  found.store_time = 12.25;
  found.store_seq = 3;
  auto out = round_trip(found);
  EXPECT_TRUE(out.found);
  EXPECT_DOUBLE_EQ(out.store_time, 12.25);
  EXPECT_EQ(out.ancestor, ModelId::make(1, 7));

  GetMetaResponse missing;  // found == false: nothing else on the wire
  auto out2 = round_trip(missing);
  EXPECT_FALSE(out2.found);
}

TEST(Wire, ReadSegmentsRequestResponse) {
  ReadSegmentsRequest req;
  req.keys.push_back({ModelId::make(1, 1), 0});
  req.keys.push_back({ModelId::make(2, 9), 17});
  req.cached_versions = {0, 42};
  req.reader_node = 7;
  req.caching = true;
  req.accept_redirect = true;
  auto rout = round_trip(req);
  ASSERT_EQ(rout.keys.size(), 2u);
  EXPECT_EQ(rout.keys[1].vertex, 17u);
  EXPECT_EQ(rout.cached_versions, req.cached_versions);
  EXPECT_EQ(rout.reader_node, 7u);
  EXPECT_TRUE(rout.caching);
  EXPECT_TRUE(rout.accept_redirect);

  // A cache-less request (no validation vector) round-trips too.
  ReadSegmentsRequest plain;
  plain.keys.push_back({ModelId::make(1, 1), 0});
  auto pout = round_trip(plain);
  EXPECT_TRUE(pout.cached_versions.empty());
  EXPECT_FALSE(pout.caching);

  ReadSegmentsResponse resp;
  resp.status = common::Status::Ok();
  auto g = chain_graph(2, 8);
  resp.segments.push_back(raw_envelope(model::make_random_segment(g, 1, 5)));
  resp.payload_bytes = resp.segments[0].physical_bytes;
  resp.info.push_back({ReadEntryState::kFresh, 3, 0});
  resp.info.push_back({ReadEntryState::kNotModified, 42, 0});
  resp.info.push_back({ReadEntryState::kRedirect, 44, 9});
  auto sout = round_trip(resp);
  ASSERT_EQ(sout.segments.size(), 1u);
  EXPECT_EQ(sout.segments[0], resp.segments[0]);
  EXPECT_EQ(sout.payload_bytes, resp.payload_bytes);
  EXPECT_EQ(sout.info, resp.info);
}

TEST(Wire, PeerReadMessages) {
  PeerReadRequest req;
  req.keys.push_back({ModelId::make(5, 1), 3});
  req.keys.push_back({ModelId::make(5, 2), 4});
  req.versions = {11, 12};
  auto rout = round_trip(req);
  EXPECT_EQ(rout.keys, req.keys);
  EXPECT_EQ(rout.versions, req.versions);

  PeerReadResponse resp;
  resp.status = common::Status::Ok();
  resp.found = {1, 0};
  auto g = chain_graph(2, 8);
  resp.segments.push_back(raw_envelope(model::make_random_segment(g, 1, 9)));
  resp.payload_bytes = resp.segments[0].physical_bytes;
  auto sout = round_trip(resp);
  EXPECT_EQ(sout.found, resp.found);
  ASSERT_EQ(sout.segments.size(), 1u);
  EXPECT_EQ(sout.segments[0], resp.segments[0]);
  EXPECT_EQ(sout.payload_bytes, resp.payload_bytes);
}

TEST(Wire, CompressedSegmentEnvelopeWithBase) {
  // A delta envelope (base key present) survives the wire bit-exactly.
  auto g = chain_graph(3, 8);
  model::Segment base = model::make_random_segment(g, 1, 5);
  model::Segment child = base;
  child.tensors[0] = model::Tensor::random(child.tensors[0].spec(), 777);
  SegmentKey base_key{ModelId::make(9, 9), 1};
  auto env = compress::compress_segment(
      child, compress::CodecId::kDeltaVsAncestor, &base, &base_key);
  ASSERT_TRUE(env.ok());
  ASSERT_TRUE(env->has_base);
  auto out = round_trip(*env);
  EXPECT_EQ(out, *env);
  EXPECT_EQ(out.base, base_key);
}

TEST(Wire, ModifyRefs) {
  ModifyRefsRequest req;
  req.increment = false;
  req.keys.push_back({ModelId::make(3, 3), 5});
  req.token = 0xfeed0001cafe0042ULL;
  req.pin_epoch = 5;
  req.pin_consume = true;
  auto out = round_trip(req);
  EXPECT_FALSE(out.increment);
  ASSERT_EQ(out.keys.size(), 1u);
  EXPECT_EQ(out.token, req.token);
  EXPECT_EQ(out.pin_epoch, 5u);
  EXPECT_TRUE(out.pin_consume);

  // Default-constructed requests carry the zero (no-dedup) token.
  EXPECT_EQ(round_trip(ModifyRefsRequest{}).token, 0u);

  ModifyRefsResponse resp;
  resp.status = common::Status::NotFound("2 segment(s) missing");
  resp.missing = 2;
  resp.freed_bytes = 4096;
  resp.freed_bases.push_back({ModelId::make(1, 1), 4});
  resp.freed_bases.push_back({ModelId::make(2, 2), 0});
  auto rout = round_trip(resp);
  EXPECT_EQ(rout.missing, 2u);
  EXPECT_EQ(rout.freed_bytes, 4096u);
  EXPECT_EQ(rout.freed_bases, resp.freed_bases);
}

// Two histograms hold the same state: count, sum, min, max, underflow and
// every bucket.
void expect_same_histogram(const obs::Histogram& a, const obs::Histogram& b) {
  EXPECT_TRUE(a.parts() == b.parts());
}

TEST(Wire, StatsMessages) {
  auto reqout = round_trip(StatsRequest{});
  (void)reqout;

  StatsResponse resp;
  resp.status = common::Status::Ok();
  resp.provider.puts = 10;
  resp.provider.segment_reads = 20;
  resp.provider.refs_added = 5;
  resp.provider.not_modified_reads = 6;
  resp.provider.lcp_index_answers = 31;
  resp.chunks.hits = 7;
  resp.chunks.saved_bytes = 4096;
  resp.codecs[compress::codec_index(compress::CodecId::kDeltaVsAncestor)] = {
      16, 1 << 20, 1 << 18};
  resp.live_models = 4;
  resp.live_segments = 16;
  resp.logical_bytes = 1 << 20;
  resp.physical_bytes = 1 << 18;
  resp.lcp_index_nodes = 120;
  resp.lcp_index_bytes = 9000;
  for (double v : {0.001, 0.25, 0.01, 0.2, 0.24}) {
    resp.histograms["provider.kv_commit_seconds"].add(v);
  }
  for (double v : {512.0, 4096.0, 65536.0, 0.0}) {
    resp.histograms["provider.segment_write_bytes"].add(v);
  }
  auto out = round_trip(resp);
  EXPECT_EQ(out.provider, resp.provider);
  EXPECT_EQ(out.chunks, resp.chunks);
  EXPECT_EQ(out.codecs, resp.codecs);
  EXPECT_EQ(out.live_models, 4u);
  EXPECT_EQ(out.live_segments, 16u);
  EXPECT_EQ(out.logical_bytes, 1u << 20);
  EXPECT_EQ(out.physical_bytes, 1u << 18);
  EXPECT_EQ(out.lcp_index_nodes, 120u);
  EXPECT_EQ(out.lcp_index_bytes, 9000u);
  ASSERT_EQ(out.histograms.size(), 2u);
  for (const auto& [name, h] : resp.histograms) {
    expect_same_histogram(out.histograms.at(name), h);
  }

  // Default response carries no histograms and still round-trips.
  EXPECT_TRUE(round_trip(StatsResponse{}).histograms.empty());
}

// A histogram crosses the wire whole: the decoded one holds the same state,
// so every quantile comes out bit for bit, and it re-encodes to the same
// bytes.
TEST(Wire, HistogramRoundTripsExactly) {
  obs::Histogram h;
  for (double v : {0.0, -3.0, 1e-15, 2.5e-6, 0.004, 0.004, 1.0, 7e12, 3e16}) {
    h.add(v);
  }
  const Bytes bytes = encode(h);
  auto back = decode<obs::Histogram>(bytes);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  expect_same_histogram(*back, h);
  for (double q : {0.0, 0.01, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(back->quantile(q), h.quantile(q)) << q;
  }
  EXPECT_EQ(encode(*back), bytes);

  auto empty = decode<obs::Histogram>(encode(obs::Histogram{}));
  ASSERT_TRUE(empty.ok());
  expect_same_histogram(*empty, obs::Histogram{});
}

// The encoding of a histogram with these parts, whether they hold together
// or not.
Bytes histogram_bytes(uint64_t count, uint64_t underflow,
                      std::vector<std::pair<uint32_t, uint64_t>> buckets,
                      double min = 0.5, double max = 2.0) {
  return encode(
      obs::Histogram::Parts{count, 1.0, min, max, underflow, buckets});
}

// Each rule the decoder enforces, and every truncation of a valid encoding,
// fails with Corruption; so does a stats reply whose histogram names are
// out of order.
TEST(Wire, MalformedHistogramFailsWithCorruption) {
  constexpr uint32_t kPast = obs::Histogram::kBucketCount;
  constexpr uint64_t kMax = ~uint64_t{0};
  auto whole = decode<obs::Histogram>(
      histogram_bytes(4, 1, {{5, 1}, {kPast - 1, 2}}, 0.0, 2.0));
  ASSERT_TRUE(whole.ok()) << whole.status().to_string();
  EXPECT_EQ(whole->count(), 4u);
  const std::pair<const char*, Bytes> cases[] = {
      {"bucket index past the range", histogram_bytes(1, 0, {{kPast, 1}})},
      {"bucket indexes descending", histogram_bytes(2, 0, {{5, 1}, {3, 1}})},
      {"bucket index repeated", histogram_bytes(2, 0, {{5, 1}, {5, 1}})},
      {"counts short of the count", histogram_bytes(3, 1, {{5, 1}})},
      {"counts past the count", histogram_bytes(1, 1, {{5, 1}})},
      {"counts wrapping around", histogram_bytes(1, 0, {{3, 2}, {5, kMax}})},
      {"underflow past the count", histogram_bytes(1, 2, {})},
      {"min above max", histogram_bytes(1, 0, {{5, 1}}, 3.0, 2.0)},
  };
  for (const auto& [what, bytes] : cases) {
    auto h = decode<obs::Histogram>(bytes);
    EXPECT_EQ(h.status().code(), common::ErrorCode::kCorruption) << what;
  }
  obs::Histogram valid;
  for (double v : {0.0, 0.5, 2.0, 2.0, 1e9}) valid.add(v);
  const Bytes bytes = encode(valid);
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto h = decode<obs::Histogram>(std::span(bytes).first(len));
    EXPECT_EQ(h.status().code(), common::ErrorCode::kCorruption)
        << "length " << len;
  }

  Serializer s;
  StatsResponse{}.serialize(s);
  Bytes stats = std::move(s).take();
  stats.pop_back();  // the empty histogram map's count
  Serializer tail;
  tail.u64(2);
  for (const char* name : {"b", "a"}) {
    put(tail, std::string(name));
    put(tail, valid);
  }
  stats.insert(stats.end(), tail.data().begin(), tail.data().end());
  EXPECT_EQ(decode<StatsResponse>(stats).status().code(),
            common::ErrorCode::kCorruption);
}

// merge_stats sums every counter and gauge, and merges each histogram by
// name into the one histogram fed every provider's values: its quantiles
// are exact, not weighted by count.
TEST(Wire, MergeStatsHistograms) {
  StatsResponse a;
  a.status = common::Status::Ok();
  a.provider.puts = 3;
  a.provider.lcp_index_answers = 2;
  a.chunks.hits = 1;
  a.codecs[1].segments = 2;
  a.lcp_index_nodes = 100;
  StatsResponse b;
  b.status = common::Status::Ok();
  b.provider.puts = 4;
  b.provider.lcp_index_answers = 5;
  b.chunks.hits = 2;
  b.codecs[1].segments = 3;
  b.lcp_index_nodes = 40;
  // a serves ten fast calls, b thirty slow ones: the median of all forty is
  // one of b's.
  obs::Histogram whole;
  for (int i = 1; i <= 10; ++i) {
    a.histograms["rpc.call_seconds"].add(0.001 * i);
    whole.add(0.001 * i);
  }
  for (int i = 1; i <= 30; ++i) {
    b.histograms["rpc.call_seconds"].add(0.1 * i);
    whole.add(0.1 * i);
  }
  a.histograms["zeta.only_in_a"].add(2.0);

  auto total = merge_stats({a, b});
  EXPECT_EQ(total.provider.puts, 7u);
  EXPECT_EQ(total.provider.lcp_index_answers, 7u);
  EXPECT_EQ(total.chunks.hits, 3u);
  EXPECT_EQ(total.codecs[1].segments, 5u);
  EXPECT_EQ(total.lcp_index_nodes, 140u);
  ASSERT_EQ(total.histograms.size(), 2u);
  const obs::Histogram& m = total.histograms.at("rpc.call_seconds");
  EXPECT_EQ(m.count(), 40u);
  EXPECT_DOUBLE_EQ(m.sum(), whole.sum());
  EXPECT_EQ(m.min(), 0.001);
  EXPECT_EQ(m.max(), 3.0);
  EXPECT_TRUE(m.parts().buckets == whole.parts().buckets);
  for (double q : {0.0, 0.01, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(m.quantile(q), whole.quantile(q)) << q;
  }
  EXPECT_NEAR(m.quantile(0.5), 1.0, 0.125);
  // Entries present on only one side pass through unchanged.
  expect_same_histogram(total.histograms.at("zeta.only_in_a"),
                        a.histograms.at("zeta.only_in_a"));
}

TEST(Wire, RetireMessages) {
  auto req = round_trip(RetireRequest{ModelId::make(4, 2), 0x7700000000000009ULL});
  EXPECT_EQ(req.id, ModelId::make(4, 2));
  EXPECT_EQ(req.token, 0x7700000000000009ULL);

  RetireResponse resp;
  resp.status = common::Status::Ok();
  resp.owners = OwnerMap::self_owned(ModelId::make(4, 2), 6);
  auto rout = round_trip(resp);
  EXPECT_EQ(rout.owners, resp.owners);
}

TEST(Wire, ModifyRefsMissingKeys) {
  // Replication-era miss reporting: every missing segment identified by key
  // so the client can vote on unanimity across replicas.
  ModifyRefsResponse resp;
  resp.status = common::Status::NotFound("2 segment(s) missing");
  resp.missing = 2;
  resp.missing_keys.push_back({ModelId::make(6, 1), 3});
  resp.missing_keys.push_back({ModelId::make(6, 2), 0});
  auto out = round_trip(resp);
  EXPECT_EQ(out.missing, 2u);
  EXPECT_EQ(out.missing_keys, resp.missing_keys);
  EXPECT_TRUE(round_trip(ModifyRefsResponse{}).missing_keys.empty());
}

TEST(Wire, HintMessages) {
  HintRecord hint;
  hint.target = 3;
  hint.method = "evostore.put_model";
  hint.payload = common::Bytes{std::byte{1}, std::byte{2}, std::byte{250},
                               std::byte{0}, std::byte{7}};
  auto hout = round_trip(hint);
  EXPECT_EQ(hout, hint);

  StoreHintRequest req;
  req.hint = hint;
  auto rout = round_trip(req);
  EXPECT_EQ(rout.hint, hint);

  StoreHintResponse resp;
  resp.status = common::Status::Unavailable("drained");
  auto sout = round_trip(resp);
  EXPECT_EQ(sout.status.code(), common::ErrorCode::kUnavailable);

  // Empty payload (degenerate but legal) survives too.
  HintRecord empty;
  EXPECT_EQ(round_trip(empty), empty);
}

TEST(Wire, ReplicateMessages) {
  auto g = chain_graph(3, 8);

  ReplicateRequest req;
  req.has_meta = true;
  req.id = ModelId::make(9, 1);
  req.graph = g;
  req.owners = OwnerMap::self_owned(req.id, g.size());
  req.quality = 0.75;
  req.ancestor = ModelId::make(9, 0);
  req.store_time = 17.5;
  ReplicateSegment seg;
  seg.key = SegmentKey{req.id, 1};
  seg.segment = raw_envelope(model::make_random_segment(g, 1, 6));
  seg.refs = 3;
  req.segments.push_back(seg);
  req.source_node = 5;
  req.peer_nodes = {6, 7};
  auto out = round_trip(req);
  EXPECT_TRUE(out.has_meta);
  EXPECT_EQ(out.id, req.id);
  EXPECT_EQ(out.graph.graph_hash(), g.graph_hash());
  EXPECT_EQ(out.owners, req.owners);
  EXPECT_DOUBLE_EQ(out.quality, req.quality);
  EXPECT_EQ(out.ancestor, req.ancestor);
  EXPECT_DOUBLE_EQ(out.store_time, req.store_time);
  ASSERT_EQ(out.segments.size(), 1u);
  EXPECT_EQ(out.segments[0].key, seg.key);
  EXPECT_EQ(out.segments[0].segment, seg.segment);
  EXPECT_EQ(out.segments[0].refs, 3u);
  EXPECT_EQ(out.source_node, 5u);
  EXPECT_EQ(out.peer_nodes, req.peer_nodes);

  // Orphan push: no metadata block on the wire at all.
  ReplicateRequest orphan;
  orphan.has_meta = false;
  orphan.id = ModelId::make(9, 2);
  orphan.segments.push_back(seg);
  orphan.source_node = 4;
  auto oout = round_trip(orphan);
  EXPECT_FALSE(oout.has_meta);
  EXPECT_EQ(oout.id, orphan.id);
  ASSERT_EQ(oout.segments.size(), 1u);

  ReplicateResponse resp;
  resp.status = common::Status::Ok();
  resp.installed_meta = true;
  resp.installed_segments = 7;
  resp.fetched_chunks = 2;
  auto sout = round_trip(resp);
  EXPECT_TRUE(sout.installed_meta);
  EXPECT_EQ(sout.installed_segments, 7u);
  EXPECT_EQ(sout.fetched_chunks, 2u);
}

TEST(Wire, FetchChunksMessages) {
  FetchChunksRequest req;
  req.digests.push_back({0x1111222233334444ULL, 0x5555666677778888ULL});
  req.digests.push_back({0, 1});
  auto rout = round_trip(req);
  ASSERT_EQ(rout.digests.size(), 2u);
  EXPECT_EQ(rout.digests[0].hi, req.digests[0].hi);
  EXPECT_EQ(rout.digests[0].lo, req.digests[0].lo);
  EXPECT_EQ(rout.digests[1].lo, 1u);

  FetchChunksResponse resp;
  resp.status = common::Status::Ok();
  ChunkBodyEntry e;
  e.digest = {42, 43};
  e.bytes = common::Bytes{std::byte{9}, std::byte{8}, std::byte{7}};
  e.cost = 4096;
  resp.chunks.push_back(e);
  resp.payload_bytes = 3;
  auto sout = round_trip(resp);
  ASSERT_EQ(sout.chunks.size(), 1u);
  EXPECT_EQ(sout.chunks[0].digest.hi, 42u);
  EXPECT_EQ(sout.chunks[0].bytes, e.bytes);
  EXPECT_EQ(sout.chunks[0].cost, 4096u);
  EXPECT_EQ(sout.payload_bytes, 3u);

  // Absent digests are simply skipped; an empty response round-trips.
  EXPECT_TRUE(round_trip(FetchChunksResponse{}).chunks.empty());
}

TEST(Wire, DrainMessages) {
  DrainRequest req;
  req.replication = 2;
  req.provider_nodes = {10, 11, 12, 13};
  req.live = {1, 1, 0, 1};
  auto rout = round_trip(req);
  EXPECT_EQ(rout.replication, 2u);
  EXPECT_EQ(rout.provider_nodes, req.provider_nodes);
  EXPECT_EQ(rout.live, req.live);

  DrainResponse resp;
  resp.status = common::Status::Ok();
  resp.models_moved = 12;
  resp.segments_moved = 99;
  resp.hints_moved = 3;
  auto sout = round_trip(resp);
  EXPECT_EQ(sout.models_moved, 12u);
  EXPECT_EQ(sout.segments_moved, 99u);
  EXPECT_EQ(sout.hints_moved, 3u);
}

TEST(Wire, RepairMessages) {
  RepairRequest req;
  req.target = 2;
  req.replication = 3;
  req.provider_nodes = {20, 21, 22};
  req.live = {1, 1, 1};
  auto rout = round_trip(req);
  EXPECT_EQ(rout.target, 2u);
  EXPECT_EQ(rout.replication, 3u);
  EXPECT_EQ(rout.provider_nodes, req.provider_nodes);
  EXPECT_EQ(rout.live, req.live);

  RepairResponse resp;
  resp.status = common::Status::Unavailable("peer down");
  resp.models_pushed = 4;
  resp.segments_pushed = 40;
  auto sout = round_trip(resp);
  EXPECT_EQ(sout.status.code(), common::ErrorCode::kUnavailable);
  EXPECT_EQ(sout.models_pushed, 4u);
  EXPECT_EQ(sout.segments_pushed, 40u);
}

TEST(Wire, StatsReplicationCounters) {
  StatsResponse resp;
  resp.status = common::Status::Ok();
  resp.provider.hints_recorded = 5;
  resp.provider.hints_replayed = 4;
  resp.provider.hints_discarded = 1;
  resp.provider.replica_chunks_fetched = 9;
  resp.provider.drain_models_moved = 2;
  resp.provider.drain_segments_moved = 20;
  auto out = round_trip(resp);
  EXPECT_EQ(out.provider.hints_recorded, 5u);
  EXPECT_EQ(out.provider.hints_replayed, 4u);
  EXPECT_EQ(out.provider.hints_discarded, 1u);
  EXPECT_EQ(out.provider.replica_chunks_fetched, 9u);
  EXPECT_EQ(out.provider.drain_models_moved, 2u);
  EXPECT_EQ(out.provider.drain_segments_moved, 20u);

  StatsResponse other;
  other.status = common::Status::Ok();
  other.provider.hints_recorded = 1;
  other.provider.replica_chunks_fetched = 1;
  other.provider.drain_segments_moved = 2;
  auto total = merge_stats({resp, other});
  EXPECT_EQ(total.provider.hints_recorded, 6u);
  EXPECT_EQ(total.provider.replica_chunks_fetched, 10u);
  EXPECT_EQ(total.provider.drain_segments_moved, 22u);
}

TEST(Wire, LcpQueryMessages) {
  LcpQueryRequest req;
  req.graph = chain_graph(5, 16);
  auto rout = round_trip(req);
  // A provider decodes the query's shape only.
  EXPECT_EQ(rout.graph.shape(), req.graph.shape());

  LcpQueryResponse resp;
  resp.found = true;
  resp.ancestor = ModelId::make(1, 2);
  resp.quality = 0.9;
  resp.matches = {{0, 0}, {1, 3}, {2, 2}};
  auto out = round_trip(resp);
  ASSERT_TRUE(out.found);
  EXPECT_EQ(out.matches, resp.matches);
  EXPECT_EQ(out.lcp_len(), 3u);

  LcpQueryResponse nothing;
  auto out2 = round_trip(nothing);
  EXPECT_FALSE(out2.found);
  EXPECT_EQ(out2.lcp_len(), 0u);
}


// ---- Golden bytes -----------------------------------------------------------
//
// Round trips cannot see a layout change made the same way on both sides, so
// these pin the exact encoding: one fully populated instance of every message
// (and of each gated message with its gate closed), the Redis baseline's
// messages as they cross the RPC layer, and the provider's durable meta/ and
// seg/ records. A failure here means the wire or on-disk format changed.

std::string hex(std::span<const std::byte> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::byte b : bytes) {
    out += kDigits[std::to_integer<uint8_t>(b) >> 4];
    out += kDigits[std::to_integer<uint8_t>(b) & 0xf];
  }
  return out;
}

Bytes unhex(std::string_view text) {
  Bytes out;
  for (size_t i = 0; i + 1 < text.size(); i += 2) {
    out.push_back(static_cast<std::byte>(
        std::stoi(std::string(text.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

template <typename T>
std::string hex_of(const T& msg) {
  Serializer s;
  msg.serialize(s);
  return hex(s.data());
}

// `msg` encodes to exactly `golden`, and `golden` decodes (consuming every
// byte) into a message that re-encodes to the same bytes.
template <typename T>
void expect_golden(const T& msg, std::string_view golden) {
  EXPECT_EQ(hex_of(msg), golden);
  Bytes bytes = unhex(golden);
  Deserializer d(bytes);
  T back = T::deserialize(d);
  ASSERT_TRUE(d.finish().ok()) << d.status().to_string();
  EXPECT_EQ(hex_of(back), golden);
}

const ModelId kGoldenId = ModelId::make(1, 2);
const ModelId kGoldenAncestor = ModelId::make(1, 1);
const common::Hash128 kGoldenDigest{0x1234, 0x5678};

model::ArchGraph golden_graph() { return chain_graph(1, 4); }

OwnerMap golden_owners() {
  OwnerMap owners = OwnerMap::self_owned(kGoldenId, 2);
  owners.set_entry(0, {kGoldenAncestor, 0});
  return owners;
}

// A delta envelope carrying its base key and an inline payload.
compress::CompressedSegment golden_inline() {
  compress::CompressedSegment env;
  env.codec = compress::CodecId::kDeltaVsAncestor;
  env.logical_bytes = 300;
  env.physical_bytes = 3;
  env.has_base = true;
  env.base = SegmentKey{kGoldenAncestor, 1};
  env.payload = Bytes{std::byte{1}, std::byte{2}, std::byte{3}};
  return env;
}

// A chunk-store manifest (travels only provider-to-provider).
compress::CompressedSegment golden_chunked() {
  compress::CompressedSegment env;
  env.kind = compress::EnvelopeKind::kChunked;
  env.codec = compress::CodecId::kZeroRle;
  env.logical_bytes = 4096;
  env.physical_bytes = 200;
  env.chunks.push_back(compress::ChunkRef{kGoldenDigest, 200});
  return env;
}

PutModelRequest golden_put() {
  PutModelRequest req;
  req.id = kGoldenId;
  req.ancestor = kGoldenAncestor;
  req.quality = 0.5;
  req.graph = golden_graph();
  req.owners = golden_owners();
  req.new_segments.emplace_back(1, golden_inline());
  req.token = 0x0001000000000007ULL;
  return req;
}

TEST(WireGolden, ModelMessages) {
  expect_golden(golden_put(), "8280808010818080801087808080808040000000000000e03f020000010364696d080001000304626961730202696e08036f757408000101000281808080100082808080100101010002ac02030181808080100103010203");
  expect_golden(PutModelResponse{common::Status::AlreadyExists("dup"), 42},
                "02036475702a");
  expect_golden(GetMetaRequest{kGoldenId}, "8280808010");
  expect_golden(GetMetaResponse{true, golden_graph(), golden_owners(), 0.5,
                                kGoldenAncestor, 2.25, 3},
                "01020000010364696d080001000304626961730202696e08036f7574080001010002818080801000828080801001000000000000e03f8180808010000000000000024003");
  expect_golden(GetMetaResponse{}, "00");
  // A provider encodes its answer from the stored record: the same bytes.
  const core::ModelMeta meta{golden_graph(), golden_owners(), 0.5,
                             kGoldenAncestor, 2.25, 3};
  EXPECT_EQ(hex_of(GetMetaView<core::ModelMeta>{&meta}),
            "01020000010364696d080001000304626961730202696e08036f7574080001010002818080801000828080801001000000000000e03f8180808010000000000000024003");
  EXPECT_EQ(hex_of(GetMetaView<core::ModelMeta>{}), "00");
  expect_golden(RetireRequest{kGoldenId, 8}, "828080801008");
  expect_golden(RetireResponse{common::Status::Unavailable("r"), golden_owners()},
                "08017202818080801000828080801001");
  // A query is its graph's shape: two vertices, two distinct signatures
  // (16 raw bytes each), one index per vertex, then the edge 0 -> 1.
  expect_golden(LcpQueryRequest{golden_graph()}, "0202fbf1540061b164fca0ac327dcb671fdaa1e06051235a8570bfe8b1385b901ad900010101000000");
  // A cover round's ring view: provider 1 failed round 1.
  expect_golden(LcpQueryRequest{golden_graph(), {1, 0, 1}, {1}},
                "0202fbf1540061b164fca0ac327dcb671fdaa1e06051235a8570bfe8b1385b901ad90001010100030100010101");
  // `partial` is client-side only: it never reaches the wire.
  expect_golden(LcpQueryResponse{true, kGoldenAncestor, 0.5, {{0, 0}, {1, 1}},
                                 true},
                "018180808010000000000000e03f0200000101");
  expect_golden(LcpQueryResponse{}, "00");
}

TEST(WireGolden, SegmentMessages) {
  expect_golden(ReadSegmentsRequest{{{kGoldenId, 1}, {kGoldenAncestor, 0}},
                                    {0, 9},
                                    5,
                                    true,
                                    true},
                "02828080801001818080801000020009050101");
  expect_golden(
      ReadSegmentsResponse{common::Status::Unavailable("x"),
                           {{ReadEntryState::kFresh, 3, 0},
                            {ReadEntryState::kRedirect, 4, 6}},
                           {golden_inline()},
                           3},
      "08017802000300020406010002ac0203018180808010010301020303");
  expect_golden(PeerReadRequest{{{kGoldenId, 1}, {kGoldenAncestor, 0}}, {3, 4}},
                "028280808010018180808010000304");
  expect_golden(PeerReadResponse{common::Status::Internal("peer"),
                                 {1, 0},
                                 {golden_inline()},
                                 3},
                "090470656572020100010002ac0203018180808010010301020303");
  expect_golden(ModifyRefsRequest{{{kGoldenId, 1}}, false, 7, 1, true},
                "0007010101828080801001");
  expect_golden(ModifyRefsResponse{common::Status::NotFound("1 missing"),
                                   1,
                                   300,
                                   {{kGoldenAncestor, 1}},
                                   {{ModelId::make(1, 3), 0}}},
                "010931206d697373696e6701ac020181808080100101838080801000");
}

TEST(WireGolden, ReplicationMessages) {
  HintRecord hint{2, "evostore.retire", Bytes{std::byte{10}, std::byte{11}}};
  expect_golden(hint, "020f65766f73746f72652e726574697265020a0b");
  expect_golden(StoreHintRequest{hint}, "020f65766f73746f72652e726574697265020a0b");
  expect_golden(StoreHintResponse{common::Status::Unavailable("drained")},
                "0807647261696e6564");
  ReplicateSegment seg{SegmentKey{kGoldenId, 1}, golden_chunked(), 2};
  expect_golden(seg, "82808080100101018020c8010001b424f8ac01c80102");
  expect_golden(ReplicateRequest{true, kGoldenId, golden_graph(),
                                 golden_owners(), 0.5, kGoldenAncestor, 2.25,
                                 {seg}, 4, {5, 6}},
                "018280808010020000010364696d080001000304626961730202696e08036f7574080001010002818080801000828080801001000000000000e03f818080801000000000000002400182808080100101018020c8010001b424f8ac01c8010204020506");
  // Orphan push: the metadata block is absent, not defaulted.
  ReplicateRequest orphan{false, kGoldenId, golden_graph(), golden_owners(),
                          0.5, kGoldenAncestor, 2.25, {seg}, 4, {5, 6}};
  expect_golden(orphan, "0082808080100182808080100101018020c8010001b424f8ac01c8010204020506");
  expect_golden(ReplicateResponse{common::Status::IoError("a"), true, 1, 2},
                "070161010102");
  expect_golden(FetchChunksRequest{{kGoldenDigest}}, "01b424f8ac01");
  ChunkBodyEntry body{kGoldenDigest, Bytes{std::byte{1}, std::byte{2}}, 200};
  expect_golden(body, "b424f8ac01020102c801");
  expect_golden(FetchChunksResponse{common::Status::Corruption("c"), {body}, 200},
                "06016301b424f8ac01020102c801c801");
  expect_golden(DrainRequest{2, {4, 5, 6}, {1, 0, 1}}, "020304050603010001");
  expect_golden(DrainResponse{common::Status::InvalidArgument("d"), 1, 2, 3},
                "030164010203");
  expect_golden(RepairRequest{1, 2, {4, 5, 6}, {1, 1, 1}}, "01020304050603010101");
  expect_golden(RepairResponse{common::Status::Unavailable("p"), 1, 2},
                "0801700102");
}

TEST(WireGolden, StatsMessages) {
  expect_golden(StatsRequest{}, "");
  // Every counter and gauge gets a distinct value (1..52 in declaration
  // order), so a reordering anywhere in a field list shows. put.seconds
  // holds 0 (the underflow count), 0.5 (bucket 352) and 1.0 (bucket 360).
  StatsResponse stats{
      common::Status::Unavailable("s"),
      ProviderStats{1,  2,  3,  4,  5,  6,  7,  8,  9,  10,
                    11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
                    21, 22, 23, 24, 25, 26, 27, 28, 29, 30},
      storage::ChunkStoreStats{31, 32, 33, 34},
      {{{35, 36, 37}, {38, 39, 40}, {41, 42, 43}}},
      44, 45, 46, 47, 48, 49, 50, 51, 52,
      {}};
  for (double v : {0.0, 0.5, 1.0}) stats.histograms["put.seconds"].add(v);
  stats.histograms["lcp.seconds"];  // exported, never fed
  expect_golden(stats, "0801730102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f3031323334020b6c63702e7365636f6e64730000000000000000000000000000000000000000000000000000000b7075742e7365636f6e647303000000000000f83f0000000000000000000000000000f03f0102e00201e80201");
}

sim::CoTask<Bytes> reply_with(Bytes reply) { co_return reply; }

// The Redis baseline keeps its messages private, so they are pinned where
// they cross the RPC layer: golden requests into the real server must yield
// golden responses, and the client wrappers must send golden requests and
// read golden responses.
TEST(WireGolden, RedisBaselineMessages) {
  sim::Simulation sim;
  net::Fabric fabric(sim, net::FabricConfig{.latency = 1.5e-6,
                                            .local_latency = 2e-7});
  net::RpcSystem rpc(fabric);
  const common::NodeId server = fabric.add_node(25e9, 25e9);
  const common::NodeId client = fabric.add_node(25e9, 25e9);
  baseline::RedisQueries redis(rpc, server);
  auto serve = [&](const char* method, std::string_view request) {
    auto r = sim.run_until_complete(
        rpc.call(client, server, method, unhex(request)));
    EXPECT_TRUE(r.ok()) << method << ": " << r.status().to_string();
    return r.ok() ? hex(r.value()) : std::string();
  };
  const std::string begin_add = "8280808010000000000000e03f020000010364696d080001000304626961730202696e08036f75740800010100";  // id, quality, graph
  const std::string id_req = "8280808010";
  const std::string ok_true = "000001";
  const std::string ok_false = "000000";
  EXPECT_EQ(serve("redis.begin_add", begin_add), ok_true);
  EXPECT_EQ(serve("redis.finish_add", id_req), ok_false);
  EXPECT_EQ(serve("redis.query", "0202fbf1540061b164fca0ac327dcb671fdaa1e06051235a8570bfe8b1385b901ad900010101000000"),
            "018280808010000000000000e03f0200000101");
  EXPECT_EQ(serve("redis.unpin", id_req), ok_false);  // query pin released
  EXPECT_EQ(serve("redis.retire", id_req), ok_true);  // last reference
  EXPECT_EQ(serve("redis.finish_add", hex_of(GetMetaRequest{kGoldenAncestor})),
            "01116d6f64656c206d3432393439363732393700");

  std::string seen;
  const std::string full = "01017801";  // NotFound("x"), flag = 1
  for (const char* method :
       {"redis.begin_add", "redis.finish_add", "redis.unpin", "redis.retire"}) {
    rpc.register_handler(server, method,
                         [seen = &seen, reply = unhex(full)](Bytes b) {
                           *seen = hex(b);
                           return reply_with(reply);
                         });
  }
  const model::ArchGraph graph = golden_graph();
  auto add = sim.run_until_complete(redis.begin_add(client, kGoldenId, graph, 0.5));
  EXPECT_EQ(seen, begin_add);
  EXPECT_EQ(add.status.code(), common::ErrorCode::kNotFound);
  EXPECT_EQ(add.status.message(), "x");
  EXPECT_TRUE(add.need_weights);
  auto finish = sim.run_until_complete(redis.finish_add(client, kGoldenId));
  EXPECT_EQ(seen, id_req);
  EXPECT_EQ(finish.code(), common::ErrorCode::kNotFound);
  auto unpin = sim.run_until_complete(redis.unpin(client, kGoldenId));
  EXPECT_EQ(seen, id_req);
  EXPECT_TRUE(unpin.remove_weights);
  auto retire = sim.run_until_complete(redis.retire(client, kGoldenId));
  EXPECT_EQ(seen, id_req);
  EXPECT_TRUE(retire.remove_weights);
}

// The provider's durable records, written by a real put: meta/<id> (the
// model's metadata) and seg/<owner>/<vertex> (refcount, version, envelope).
TEST(WireGolden, ProviderDurableRecords) {
  sim::Simulation sim;
  net::Fabric fabric(sim, net::FabricConfig{.latency = 1.5e-6,
                                            .local_latency = 2e-7});
  net::RpcSystem rpc(fabric);
  const common::NodeId node = fabric.add_node(25e9, 25e9);
  const common::NodeId client = fabric.add_node(25e9, 25e9);
  storage::MemKv kv;
  Provider provider(rpc, node, 0, ProviderConfig{}, &kv);
  const PutModelRequest put = golden_put();
  auto r = sim.run_until_complete(net::typed_call<PutModelResponse>(
      &rpc, client, node, Provider::kPutModel, put));
  ASSERT_TRUE(r.ok() && r->status.ok());
  auto record = [&](const std::string& key) {
    auto v = kv.get(key);
    EXPECT_TRUE(v.ok()) << key;
    return v.ok() ? hex(v.value().materialize().dense_span()) : std::string();
  };
  EXPECT_EQ(record("meta/" + std::to_string(kGoldenId.value)), "020000010364696d080001000304626961730202696e08036f7574080001010002818080801000828080801001000000000000e03f81808080107baef0422b12cf3e01");
  EXPECT_EQ(record("seg/" + std::to_string(kGoldenId.value) + "/1"),
            "02010002ac02030181808080100103010203");
}

}  // namespace
}  // namespace evostore::core::wire
