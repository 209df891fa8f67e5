// Compact binary serialization used for wire messages (RPC payloads), stored
// metadata (owner maps, architecture graphs), and the H5-like file format.
//
// Encoding: LEB128 varints for unsigned integers and lengths, zig-zag for
// signed, raw little-endian for doubles, length-prefixed byte strings.
// `Deserializer` is sticky-error: after a malformed read every subsequent
// read returns a default value and `status()` reports the first corruption,
// so wire-decoding code stays linear (no per-field branching).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/buffer.h"
#include "common/status.h"

namespace evostore::common {

class Serializer {
 public:
  Serializer() = default;

  void u8(uint8_t v) { out_.push_back(static_cast<std::byte>(v)); }
  void u32(uint32_t v) { varint(v); }
  void u64(uint64_t v) { varint(v); }
  void i64(int64_t v) { varint(zigzag(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void f64(double v) {
    std::byte raw[8];
    std::memcpy(raw, &v, 8);
    out_.insert(out_.end(), raw, raw + 8);
  }
  /// 8 raw little-endian bytes, for uniformly random values such as hash
  /// halves, which a varint would spend about 9.5 bytes on.
  void fixed64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<std::byte>(v >> (8 * i)));
    }
  }
  void str(std::string_view s) {
    varint(s.size());
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    out_.insert(out_.end(), p, p + s.size());
  }
  void bytes(std::span<const std::byte> s) {
    varint(s.size());
    out_.insert(out_.end(), s.begin(), s.end());
  }
  /// Serialize a Buffer preserving its representation: synthetic buffers
  /// travel as (seed, size) descriptors, dense buffers as raw content.
  void buffer(const Buffer& b);

  /// Raw append with no length prefix (for framing composition).
  void raw(std::span<const std::byte> s) {
    out_.insert(out_.end(), s.begin(), s.end());
  }

  const Bytes& data() const& { return out_; }
  Bytes take() && { return std::move(out_); }
  size_t size() const { return out_.size(); }

 private:
  static uint64_t zigzag(int64_t v) {
    return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
  }
  void varint(uint64_t v) {
    while (v >= 0x80) {
      out_.push_back(static_cast<std::byte>((v & 0x7f) | 0x80));
      v >>= 7;
    }
    out_.push_back(static_cast<std::byte>(v));
  }
  Bytes out_;
};

class Deserializer {
 public:
  explicit Deserializer(std::span<const std::byte> data) : data_(data) {}

  uint8_t u8();
  uint32_t u32() { return static_cast<uint32_t>(checked_varint(UINT32_MAX)); }
  uint64_t u64() { return checked_varint(UINT64_MAX); }
  int64_t i64() { return unzigzag(checked_varint(UINT64_MAX)); }
  bool boolean() { return u8() != 0; }
  double f64();
  uint64_t fixed64();
  std::string str();
  Bytes bytes();
  Buffer buffer();

  /// Remaining unread bytes (view; valid while the source span lives).
  std::span<const std::byte> remaining() const { return data_.subspan(pos_); }
  size_t position() const { return pos_; }
  void skip(size_t n);
  bool at_end() const { return pos_ == data_.size(); }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Validate a decoded element count against the bytes actually left:
  /// every element needs at least `min_bytes_each` more input. Fails the
  /// stream and returns false on a lying length prefix — callers use this
  /// before reserving/resizing so malformed input can never force a huge
  /// allocation.
  bool check_count(uint64_t n, size_t min_bytes_each = 1) {
    if (!status_.ok()) return false;
    if (n > (data_.size() - pos_) / std::max<size_t>(min_bytes_each, 1)) {
      fail("count exceeds remaining input");
      return false;
    }
    return true;
  }

  /// Inject a corruption failure from a message decoder that detects a
  /// semantically invalid value the primitive readers cannot see — an
  /// unknown enum tag, an impossible field combination. Joins the same
  /// sticky-error path as malformed primitives: every later read returns a
  /// default and `status()` reports the first failure.
  void corrupt(std::string msg) { fail(std::move(msg)); }

  /// Ok iff decoding succeeded and all input was consumed.
  Status finish() const {
    if (!status_.ok()) return status_;
    if (!at_end()) return Status::Corruption("trailing bytes after decode");
    return Status::Ok();
  }

 private:
  uint64_t checked_varint(uint64_t max);
  static int64_t unzigzag(uint64_t v) {
    return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
  }
  void fail(std::string msg) {
    if (status_.ok()) status_ = Status::Corruption(std::move(msg));
  }

  std::span<const std::byte> data_;
  size_t pos_ = 0;
  Status status_;
};

}  // namespace evostore::common
