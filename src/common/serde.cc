#include "common/serde.h"

namespace evostore::common {

namespace {
constexpr uint8_t kDenseTag = 0;
constexpr uint8_t kSyntheticTag = 1;
}  // namespace

void Serializer::buffer(const Buffer& b) {
  if (b.is_synthetic()) {
    u8(kSyntheticTag);
    // A sliced synthetic buffer has a nonzero base offset inside its stream;
    // re-expressing it as (seed, size) would change content, so serialize the
    // descriptor of the *slice* content by materializing in that rare case.
    // Slices created by Buffer::slice keep the parent's seed with an offset
    // we cannot represent, so we only fast-path offset-0 views.
    Buffer probe = b.slice(0, std::min<size_t>(b.size(), 8));
    Bytes head = probe.to_bytes();
    Bytes expect(head.size());
    for (size_t i = 0; i < expect.size(); ++i) {
      expect[i] = Buffer::synthetic_byte(b.seed(), i);
    }
    if (head == expect) {
      u64(b.seed());
      u64(b.size());
      return;
    }
    // Fall through to dense encoding for offset synthetic slices.
    Bytes content = b.to_bytes();
    out_.back() = static_cast<std::byte>(kDenseTag);
    bytes(content);
    return;
  }
  u8(kDenseTag);
  bytes(b.dense_span());
}

uint8_t Deserializer::u8() {
  if (!status_.ok() || pos_ >= data_.size()) {
    fail("u8 past end");
    return 0;
  }
  return static_cast<uint8_t>(data_[pos_++]);
}

uint64_t Deserializer::fixed64() {
  if (!status_.ok() || data_.size() - pos_ < 8) {
    fail("fixed64 past end");
    return 0;
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

double Deserializer::f64() {
  if (!status_.ok() || pos_ + 8 > data_.size()) {
    fail("f64 past end");
    return 0.0;
  }
  double v;
  std::memcpy(&v, data_.data() + pos_, 8);
  pos_ += 8;
  return v;
}

std::string Deserializer::str() {
  uint64_t n = checked_varint(UINT64_MAX);
  // NOTE: compare against the remaining byte count; `pos_ + n` could wrap.
  if (!status_.ok() || n > data_.size() - pos_) {
    fail("string past end");
    return {};
  }
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

Bytes Deserializer::bytes() {
  uint64_t n = checked_varint(UINT64_MAX);
  if (!status_.ok() || n > data_.size() - pos_) {
    fail("bytes past end");
    return {};
  }
  Bytes b(data_.begin() + static_cast<ptrdiff_t>(pos_),
          data_.begin() + static_cast<ptrdiff_t>(pos_ + n));
  pos_ += n;
  return b;
}

Buffer Deserializer::buffer() {
  uint8_t tag = u8();
  if (!ok()) return {};
  switch (tag) {
    case 0:
      return Buffer::dense(bytes());
    case 1: {
      uint64_t seed = u64();
      uint64_t size = u64();
      if (!ok()) return {};
      return Buffer::synthetic(size, seed);
    }
    default:
      fail("unknown buffer tag");
      return {};
  }
}

void Deserializer::skip(size_t n) {
  if (!status_.ok() || n > data_.size() - pos_) {
    fail("skip past end");
    pos_ = data_.size();
    return;
  }
  pos_ += n;
}

uint64_t Deserializer::checked_varint(uint64_t max) {
  if (!status_.ok()) return 0;  // sticky error: all later reads fail
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (pos_ >= data_.size()) {
      fail("varint past end");
      return 0;
    }
    auto byte = static_cast<uint8_t>(data_[pos_++]);
    if (shift == 63 && (byte & 0x7e) != 0) {
      fail("varint overflow");
      return 0;
    }
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
    if (shift > 63) {
      fail("varint too long");
      return 0;
    }
  }
  if (v > max) {
    fail("varint exceeds field width");
    return 0;
  }
  return v;
}

}  // namespace evostore::common
