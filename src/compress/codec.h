// Pluggable tensor codecs for segment payloads.
//
// A `Codec` turns one `model::Segment` into a compact byte payload and back.
// The codec id travels in the `CompressedSegment` wire envelope, so providers
// store envelopes opaquely and any client that knows the registry can decode
// them. Codecs distinguish *logical* bytes (the tensor content a reader gets
// back) from *physical* bytes (what a real deployment would keep on its
// medium): synthetic buffers stay tiny descriptors in host memory either way,
// but their physical cost is still modelled honestly (a raw random stream
// does not compress; only content shared with a delta base does).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <tuple>

#include "common/serde.h"
#include "common/status.h"
#include "model/model.h"
#include "sim/stats.h"

namespace evostore::compress {

enum class CodecId : uint8_t {
  kRaw = 0,
  kZeroRle = 1,
  kDeltaVsAncestor = 2,
};

inline constexpr size_t kCodecCount = 3;

std::string_view codec_name(CodecId id);

/// Array index of a codec id, or kCodecCount for out-of-range (hostile) ids.
inline constexpr size_t codec_index(CodecId id) {
  auto i = static_cast<size_t>(id);
  return i < kCodecCount ? i : kCodecCount;
}

class Codec {
 public:
  virtual ~Codec() = default;

  virtual CodecId id() const = 0;
  virtual std::string_view name() const = 0;

  /// True when encode/decode require the ancestor base segment.
  virtual bool needs_base() const { return false; }

  /// Append the encoding of `in` (against `base` for delta codecs) to `s`.
  /// Returns the physical byte count of the encoded tensor content — what a
  /// store keeping raw bytes verbatim would occupy (framing excluded,
  /// synthetic content priced at its logical size).
  virtual common::Result<uint64_t> encode(const model::Segment& in,
                                          const model::Segment* base,
                                          common::Serializer& s) const = 0;

  /// Decode a payload produced by encode. `base` must be the same segment
  /// content the encoder saw when `needs_base()`. `logical_bytes` is the
  /// envelope's declared decoded size: codecs must refuse to allocate past it
  /// so corrupt input can never force a huge allocation.
  virtual common::Result<model::Segment> decode(
      common::Deserializer& d, const model::Segment* base,
      uint64_t logical_bytes) const = 0;
};

/// Registry lookup; nullptr for unknown ids (corrupt or hostile input).
const Codec* codec_for(CodecId id);

// Singleton accessors (each codec lives in its own translation unit).
const Codec& raw_codec();
const Codec& zero_rle_codec();
const Codec& delta_codec();

/// Per-codec client-side counters: encode/decode volume, fallback count and
/// host wall-clock timings (sim/stats accumulators).
struct CodecStats {
  uint64_t encodes = 0;
  uint64_t decodes = 0;
  /// Encodes that fell back to Raw because the ratio was poor.
  uint64_t fallbacks = 0;
  uint64_t bytes_in = 0;   // logical bytes entering encode
  uint64_t bytes_out = 0;  // physical bytes leaving encode
  sim::Accumulator encode_seconds;
  sim::Accumulator decode_seconds;

  double ratio() const {
    return bytes_in > 0
               ? static_cast<double>(bytes_out) / static_cast<double>(bytes_in)
               : 1.0;
  }
};
using CodecStatsTable = std::array<CodecStats, kCodecCount>;

/// Live per-codec stored aggregate (provider-side bookkeeping, surfaced in
/// wire stat responses).
struct CodecUsage {
  uint64_t segments = 0;
  uint64_t logical_bytes = 0;
  uint64_t physical_bytes = 0;

  friend bool operator==(const CodecUsage&, const CodecUsage&) = default;
  /// Every counter, in wire order (wire::StatsResponse).
  static auto fields(auto& m) {
    return std::tie(m.segments, m.logical_bytes, m.physical_bytes);
  }
};
using CodecUsageTable = std::array<CodecUsage, kCodecCount>;

}  // namespace evostore::compress
