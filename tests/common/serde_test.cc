#include "common/serde.h"

#include <gtest/gtest.h>

#include <limits>

namespace evostore::common {
namespace {

TEST(Serde, ScalarRoundTrip) {
  Serializer s;
  s.u8(200);
  s.u32(123456);
  s.u64(0xdeadbeefcafeULL);
  s.i64(-42);
  s.boolean(true);
  s.f64(3.14159);
  Bytes data = std::move(s).take();

  Deserializer d(data);
  EXPECT_EQ(d.u8(), 200);
  EXPECT_EQ(d.u32(), 123456u);
  EXPECT_EQ(d.u64(), 0xdeadbeefcafeULL);
  EXPECT_EQ(d.i64(), -42);
  EXPECT_TRUE(d.boolean());
  EXPECT_DOUBLE_EQ(d.f64(), 3.14159);
  EXPECT_TRUE(d.finish().ok());
}

TEST(Serde, VarintBoundaries) {
  Serializer s;
  const uint64_t values[] = {0,     127,   128,
                             16383, 16384, std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : values) s.u64(v);
  Deserializer d(s.data());
  EXPECT_EQ(d.u64(), 0u);
  EXPECT_EQ(d.u64(), 127u);
  EXPECT_EQ(d.u64(), 128u);
  EXPECT_EQ(d.u64(), 16383u);
  EXPECT_EQ(d.u64(), 16384u);
  EXPECT_EQ(d.u64(), std::numeric_limits<uint64_t>::max());
  EXPECT_TRUE(d.finish().ok());
}

// fixed64 is 8 raw little-endian bytes whatever the value, and a read
// past the end fails the stream.
TEST(Serde, Fixed64IsEightLittleEndianBytes) {
  Serializer s;
  s.fixed64(0x0102030405060708ULL);
  s.fixed64(std::numeric_limits<uint64_t>::max());
  s.fixed64(0);
  const Bytes data = s.data();
  ASSERT_EQ(data.size(), 24u);
  EXPECT_EQ(data[0], std::byte{0x08});
  EXPECT_EQ(data[7], std::byte{0x01});
  Deserializer d(data);
  EXPECT_EQ(d.fixed64(), 0x0102030405060708ULL);
  EXPECT_EQ(d.fixed64(), std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(d.fixed64(), 0u);
  EXPECT_TRUE(d.finish().ok());

  Bytes cut(data.begin(), data.begin() + 7);
  Deserializer short_read(cut);
  EXPECT_EQ(short_read.fixed64(), 0u);
  EXPECT_EQ(short_read.status().code(), ErrorCode::kCorruption);
}

TEST(Serde, ZigzagExtremes) {
  Serializer s;
  s.i64(std::numeric_limits<int64_t>::min());
  s.i64(std::numeric_limits<int64_t>::max());
  s.i64(0);
  s.i64(-1);
  Deserializer d(s.data());
  EXPECT_EQ(d.i64(), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(d.i64(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(d.i64(), 0);
  EXPECT_EQ(d.i64(), -1);
}

TEST(Serde, StringsAndBytes) {
  Serializer s;
  s.str("");
  s.str("hello");
  s.str(std::string(1000, 'z'));
  Bytes blob{std::byte{1}, std::byte{0}, std::byte{255}};
  s.bytes(blob);
  Deserializer d(s.data());
  EXPECT_EQ(d.str(), "");
  EXPECT_EQ(d.str(), "hello");
  EXPECT_EQ(d.str(), std::string(1000, 'z'));
  EXPECT_EQ(d.bytes(), blob);
  EXPECT_TRUE(d.finish().ok());
}

TEST(Serde, DenseBufferRoundTrip) {
  Serializer s;
  Buffer b = Buffer::copy(std::as_bytes(std::span("payload", 7)));
  s.buffer(b);
  Deserializer d(s.data());
  Buffer out = d.buffer();
  EXPECT_TRUE(out.content_equals(b));
  EXPECT_FALSE(out.is_synthetic());
}

TEST(Serde, SyntheticBufferTravelsAsDescriptor) {
  Serializer s;
  Buffer b = Buffer::synthetic(1ull << 32, 12345);  // 4 GB logical
  s.buffer(b);
  EXPECT_LT(s.size(), 64u);  // descriptor, not payload
  Deserializer d(s.data());
  Buffer out = d.buffer();
  EXPECT_TRUE(out.is_synthetic());
  EXPECT_EQ(out.size(), b.size());
  EXPECT_EQ(out.seed(), b.seed());
}

TEST(Serde, OffsetSyntheticSliceFallsBackToDense) {
  Buffer b = Buffer::synthetic(100, 7).slice(10, 20);
  Serializer s;
  s.buffer(b);
  Deserializer d(s.data());
  Buffer out = d.buffer();
  EXPECT_TRUE(out.content_equals(b));
}

TEST(Serde, TruncatedInputSetsStickyError) {
  Serializer s;
  s.str("hello world");
  Bytes data = std::move(s).take();
  data.resize(4);  // cut mid-string
  Deserializer d(data);
  (void)d.str();
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), ErrorCode::kCorruption);
  // Sticky: subsequent reads stay failed and return defaults.
  EXPECT_EQ(d.u64(), 0u);
  EXPECT_FALSE(d.finish().ok());
}

TEST(Serde, TrailingBytesFailFinish) {
  Serializer s;
  s.u8(1);
  s.u8(2);
  Deserializer d(s.data());
  EXPECT_EQ(d.u8(), 1);
  EXPECT_FALSE(d.finish().ok());
  EXPECT_EQ(d.u8(), 2);
  EXPECT_TRUE(d.finish().ok());
}

TEST(Serde, MalformedVarintOverflow) {
  Bytes data(11, std::byte{0xff});  // endless continuation bits
  Deserializer d(data);
  (void)d.u64();
  EXPECT_FALSE(d.ok());
}

TEST(Serde, U32RangeEnforced) {
  Serializer s;
  s.u64(1ull << 40);
  Deserializer d(s.data());
  (void)d.u32();
  EXPECT_FALSE(d.ok());
}

TEST(Serde, UnknownBufferTagFails) {
  Bytes data{std::byte{9}};
  Deserializer d(data);
  (void)d.buffer();
  EXPECT_FALSE(d.ok());
}

TEST(Serde, SkipAndRemaining) {
  Serializer s;
  s.u8(1);
  s.u8(2);
  s.u8(3);
  Deserializer d(s.data());
  d.skip(2);
  EXPECT_EQ(d.remaining().size(), 1u);
  EXPECT_EQ(d.u8(), 3);
  d.skip(1);
  EXPECT_FALSE(d.ok());
}

TEST(Serde, EmptyInput) {
  Deserializer d(std::span<const std::byte>{});
  EXPECT_TRUE(d.at_end());
  EXPECT_TRUE(d.finish().ok());
  (void)d.u8();
  EXPECT_FALSE(d.ok());
}

}  // namespace
}  // namespace evostore::common
