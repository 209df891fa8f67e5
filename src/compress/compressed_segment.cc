#include "compress/compressed_segment.h"

#include <chrono>
#include <string>
#include <utility>

namespace evostore::compress {

namespace {

using common::Result;
using common::Status;

// Host-side codec profiling: CodecStats::{encode,decode}_seconds are
// excluded from every exported artifact, so wall time never reaches
// deterministic output.
double seconds_since(std::chrono::steady_clock::time_point start) {
  // evo-lint: suppress(EVO-DET-001) host-only codec profiling, not exported
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

void CompressedSegment::serialize(common::Serializer& s) const {
  s.u8(static_cast<uint8_t>(kind));
  s.u8(static_cast<uint8_t>(codec));
  s.u64(logical_bytes);
  s.u64(physical_bytes);
  s.boolean(has_base);
  if (has_base) {
    s.u64(base.owner.value);
    s.u32(base.vertex);
  }
  if (kind == EnvelopeKind::kChunked) {
    s.u64(chunks.size());
    for (const ChunkRef& c : chunks) {
      s.u64(c.digest.hi);
      s.u64(c.digest.lo);
      s.u32(c.bytes);
    }
  } else {
    s.bytes(payload);
  }
}

CompressedSegment CompressedSegment::deserialize(common::Deserializer& d) {
  CompressedSegment env;
  uint8_t kind = d.u8();
  if (d.ok() && kind >= kEnvelopeKindCount) {
    // Defined forward-compatibility error: a reader that does not know this
    // envelope kind cannot interpret the remainder of the record.
    d.corrupt("unknown envelope kind " + std::to_string(kind));
    return env;
  }
  env.kind = static_cast<EnvelopeKind>(kind);
  uint8_t codec = d.u8();
  if (d.ok() && codec_index(static_cast<CodecId>(codec)) >= kCodecCount) {
    d.corrupt("unknown codec id " + std::to_string(codec));
    return env;
  }
  env.codec = static_cast<CodecId>(codec);
  env.logical_bytes = d.u64();
  env.physical_bytes = d.u64();
  env.has_base = d.boolean();
  if (env.has_base) {
    env.base.owner.value = d.u64();
    env.base.vertex = d.u32();
  }
  if (env.kind == EnvelopeKind::kChunked) {
    uint64_t n = d.u64();
    // >= hi + lo + size bytes per manifest entry.
    if (!d.check_count(n, 3)) return env;
    env.chunks.reserve(n);
    for (uint64_t i = 0; i < n && d.ok(); ++i) {
      ChunkRef c;
      c.digest.hi = d.u64();
      c.digest.lo = d.u64();
      c.bytes = d.u32();
      env.chunks.push_back(c);
    }
  } else {
    env.payload = d.bytes();
  }
  return env;
}

Result<CompressedSegment> compress_segment(const model::Segment& seg,
                                           CodecId preferred,
                                           const model::Segment* base,
                                           const common::SegmentKey* base_key,
                                           CodecStatsTable* stats) {
  if (codec_for(preferred) == nullptr) {
    return Status::InvalidArgument("unknown codec id");
  }
  CodecId attempted = preferred;
  if (attempted == CodecId::kDeltaVsAncestor &&
      (base == nullptr || base_key == nullptr)) {
    attempted = CodecId::kRaw;  // no ancestor content to delta against
  }
  const Codec& codec = *codec_for(attempted);

  // evo-lint: suppress(EVO-DET-001) host-only codec profiling, not exported
  auto start = std::chrono::steady_clock::now();
  CompressedSegment env;
  env.logical_bytes = seg.nbytes();
  common::Serializer payload;
  auto physical =
      codec.encode(seg, codec.needs_base() ? base : nullptr, payload);
  if (!physical.ok()) return physical.status();

  bool fell_back =
      attempted != CodecId::kRaw &&
      static_cast<double>(*physical) >=
          kCodecFallbackRatio * static_cast<double>(env.logical_bytes);
  if (fell_back) {
    common::Serializer raw;
    physical = raw_codec().encode(seg, nullptr, raw);
    if (!physical.ok()) return physical.status();
    payload = std::move(raw);
  }
  env.codec = fell_back ? CodecId::kRaw : attempted;
  env.physical_bytes = *physical;
  if (env.codec == CodecId::kDeltaVsAncestor) {
    env.has_base = true;
    env.base = *base_key;
  }
  env.payload = std::move(payload).take();

  if (stats != nullptr) {
    auto& cs = (*stats)[codec_index(preferred)];
    ++cs.encodes;
    if (fell_back || attempted != preferred) ++cs.fallbacks;
    cs.bytes_in += env.logical_bytes;
    cs.bytes_out += env.physical_bytes;
    cs.encode_seconds.add(seconds_since(start));
  }
  return env;
}

Result<model::Segment> decompress_segment(const CompressedSegment& env,
                                          const model::Segment* base,
                                          CodecStatsTable* stats) {
  if (env.kind != EnvelopeKind::kInline) {
    // A manifest is only meaningful to the provider-side chunk store that
    // minted it; decoding requires the reassembled inline payload.
    return Status::InvalidArgument("chunked envelope not reassembled");
  }
  const Codec* codec = codec_for(env.codec);
  if (codec == nullptr) {
    return Status::Corruption("unknown codec id in envelope");
  }
  if (codec->needs_base()) {
    if (!env.has_base) {
      return Status::Corruption("delta envelope missing base key");
    }
    if (base == nullptr) {
      return Status::InvalidArgument("delta base segment not resolved");
    }
  }
  // evo-lint: suppress(EVO-DET-001) host-only codec profiling, not exported
  auto start = std::chrono::steady_clock::now();
  common::Deserializer d(env.payload);
  auto seg =
      codec->decode(d, codec->needs_base() ? base : nullptr, env.logical_bytes);
  if (!seg.ok()) return seg;
  EVO_RETURN_IF_ERROR(d.finish());
  if (seg->nbytes() != env.logical_bytes) {
    return Status::Corruption("decoded segment size mismatch");
  }
  if (stats != nullptr) {
    auto& cs = (*stats)[codec_index(env.codec)];
    ++cs.decodes;
    cs.decode_seconds.add(seconds_since(start));
  }
  return seg;
}

}  // namespace evostore::compress
