#include "storage/log_kv.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <csignal>
#include <filesystem>
#include <fstream>

#include "common/rng.h"

namespace evostore::storage {
namespace {

using common::Buffer;

class LogKvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("logkv_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<LogKv> open(LogKvOptions options = {}) {
    auto r = LogKv::open(dir_, options);
    EXPECT_TRUE(r.ok()) << r.status().to_string();
    return std::move(r).value();
  }

  std::filesystem::path dir_;
};

Buffer value_of(const std::string& s) {
  return Buffer::copy(std::as_bytes(std::span(s.data(), s.size())));
}

// XOR the byte at `offset` of `path` in place.
void flip_byte(const std::filesystem::path& path, std::streamoff offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  char c;
  f.seekg(offset);
  f.get(c);
  f.seekp(offset);
  f.put(static_cast<char>(c ^ 0x5a));
}

// Caps this process's file size (RLIMIT_FSIZE) with SIGXFSZ ignored, so a
// write past `bytes` fails with EFBIG after writing what fits. `lift()`, or
// the destructor, restores the old limit and signal disposition.
class FileSizeCap {
 public:
  explicit FileSizeCap(rlim_t bytes) {
    EXPECT_EQ(::getrlimit(RLIMIT_FSIZE, &old_), 0);
    old_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit capped = old_;
    capped.rlim_cur = bytes;
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
  }
  ~FileSizeCap() { lift(); }
  FileSizeCap(const FileSizeCap&) = delete;
  FileSizeCap& operator=(const FileSizeCap&) = delete;

  void lift() {
    if (lifted_) return;
    lifted_ = true;
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &old_), 0);
    std::signal(SIGXFSZ, old_handler_);
  }

 private:
  rlimit old_{};
  void (*old_handler_)(int) = SIG_DFL;
  bool lifted_ = false;
};

TEST_F(LogKvTest, PutGetRoundTrip) {
  auto kv = open();
  ASSERT_TRUE(kv->put("key", value_of("value")).ok());
  auto r = kv->get("key");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->content_equals(value_of("value")));
  EXPECT_EQ(kv->size(), 1u);
}

TEST_F(LogKvTest, GetMissing) {
  auto kv = open();
  EXPECT_EQ(kv->get("missing").status().code(), common::ErrorCode::kNotFound);
}

TEST_F(LogKvTest, OverwriteAndDeadBytes) {
  auto kv = open();
  ASSERT_TRUE(kv->put("k", Buffer::zeros(100)).ok());
  EXPECT_EQ(kv->dead_bytes(), 0u);
  ASSERT_TRUE(kv->put("k", Buffer::zeros(50)).ok());
  EXPECT_GT(kv->dead_bytes(), 0u);
  EXPECT_EQ(kv->value_bytes(), 50u);
  auto r = kv->get("k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 50u);
}

TEST_F(LogKvTest, EraseAddsTombstone) {
  auto kv = open();
  ASSERT_TRUE(kv->put("k", Buffer::zeros(10)).ok());
  ASSERT_TRUE(kv->erase("k").ok());
  EXPECT_FALSE(kv->contains("k"));
  EXPECT_EQ(kv->size(), 0u);
  EXPECT_EQ(kv->value_bytes(), 0u);
  EXPECT_EQ(kv->erase("k").code(), common::ErrorCode::kNotFound);
}

TEST_F(LogKvTest, PersistsAcrossReopen) {
  {
    auto kv = open();
    ASSERT_TRUE(kv->put("a", value_of("alpha")).ok());
    ASSERT_TRUE(kv->put("b", value_of("beta")).ok());
    ASSERT_TRUE(kv->put("a", value_of("alpha2")).ok());  // overwrite
    ASSERT_TRUE(kv->put("c", value_of("gamma")).ok());
    ASSERT_TRUE(kv->erase("b").ok());
  }
  auto kv = open();
  EXPECT_EQ(kv->size(), 2u);
  EXPECT_TRUE(kv->get("a")->content_equals(value_of("alpha2")));
  EXPECT_FALSE(kv->contains("b"));
  EXPECT_TRUE(kv->get("c")->content_equals(value_of("gamma")));
}

TEST_F(LogKvTest, SyntheticValuesPersistAsDescriptors) {
  {
    auto kv = open();
    ASSERT_TRUE(kv->put("huge", Buffer::synthetic(1ull << 32, 99)).ok());
  }
  // 4 GB logical value in a tiny log file.
  EXPECT_LT(std::filesystem::file_size(dir_ / "00000001.evl"), 1024u);
  auto kv = open();
  auto r = kv->get("huge");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->is_synthetic());
  EXPECT_EQ(r->size(), 1ull << 32);
  EXPECT_EQ(r->seed(), 99u);
  // Accounting mirrors the on-disk reality: logical is the full value,
  // physical is the descriptor.
  EXPECT_EQ(kv->logical_value_bytes(), 1ull << 32);
  EXPECT_LT(kv->value_bytes(), 64u);
}

TEST_F(LogKvTest, SegmentRollover) {
  LogKvOptions opt;
  opt.segment_max_bytes = 256;
  auto kv = open(opt);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(kv->put("key" + std::to_string(i), Buffer::zeros(32)).ok());
  }
  EXPECT_GT(kv->segment_count(), 3u);
  // Reopen spans multiple segments.
  kv.reset();
  kv = open(opt);
  EXPECT_EQ(kv->size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(kv->contains("key" + std::to_string(i)));
  }
}

TEST_F(LogKvTest, CompactReclaimsSpace) {
  auto kv = open();
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(kv->put("k" + std::to_string(i), Buffer::zeros(64)).ok());
    }
  }
  for (int i = 10; i < 20; ++i) {
    ASSERT_TRUE(kv->erase("k" + std::to_string(i)).ok());
  }
  size_t disk_before = kv->disk_bytes();
  auto reclaimed = kv->compact();
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_GT(reclaimed.value(), 0u);
  EXPECT_LT(kv->disk_bytes(), disk_before);
  EXPECT_EQ(kv->dead_bytes(), 0u);
  EXPECT_EQ(kv->size(), 10u);
  for (int i = 0; i < 10; ++i) {
    auto r = kv->get("k" + std::to_string(i));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->size(), 64u);
  }
}

TEST_F(LogKvTest, CompactThenReopen) {
  auto kv = open();
  ASSERT_TRUE(kv->put("keep", value_of("data")).ok());
  ASSERT_TRUE(kv->put("drop", value_of("junk")).ok());
  ASSERT_TRUE(kv->erase("drop").ok());
  ASSERT_TRUE(kv->compact().ok());
  kv.reset();
  kv = open();
  EXPECT_EQ(kv->size(), 1u);
  EXPECT_TRUE(kv->get("keep")->content_equals(value_of("data")));
}

TEST_F(LogKvTest, TornTailIsTruncatedOnRecovery) {
  {
    auto kv = open();
    ASSERT_TRUE(kv->put("good", value_of("intact")).ok());
    ASSERT_TRUE(kv->put("torn", value_of("will be cut")).ok());
  }
  // Chop bytes off the end of the last segment, simulating a crash
  // mid-append.
  auto seg = dir_ / "00000001.evl";
  auto size = std::filesystem::file_size(seg);
  std::filesystem::resize_file(seg, size - 5);

  auto kv = open();
  EXPECT_TRUE(kv->contains("good"));
  EXPECT_FALSE(kv->contains("torn"));
  // The store remains writable after truncation.
  ASSERT_TRUE(kv->put("after", value_of("recovery")).ok());
  EXPECT_TRUE(kv->get("after")->content_equals(value_of("recovery")));
}

TEST_F(LogKvTest, CorruptPayloadDetectedByChecksum) {
  {
    auto kv = open();
    ASSERT_TRUE(kv->put("x", value_of("sensitive-data")).ok());
  }
  // Flip a byte inside the record payload.
  flip_byte(dir_ / "00000001.evl", 20);

  // Single (= last) segment: recovery truncates the corrupt tail.
  auto kv = open();
  EXPECT_FALSE(kv->contains("x"));
}

// A put that fails part-way leaves no partial record: the next put lands
// at the failed one's offset and reads back, before and after a reopen.
TEST_F(LogKvTest, FailedAppendLeavesNoPartialRecord) {
  auto kv = open();
  ASSERT_TRUE(kv->put("first", value_of("one")).ok());
  const size_t before = kv->disk_bytes();
  {
    FileSizeCap cap(before + 40);  // part of the next record fits
    EXPECT_EQ(kv->put("big", value_of(std::string(4096, 'b'))).code(),
              common::ErrorCode::kIoError);
  }
  EXPECT_EQ(kv->disk_bytes(), before);
  EXPECT_FALSE(kv->contains("big"));
  ASSERT_TRUE(kv->put("next", value_of("after")).ok());
  auto r = kv->get("next");
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_TRUE(r->content_equals(value_of("after")));
  kv.reset();
  kv = open();
  EXPECT_EQ(kv->size(), 2u);
  EXPECT_TRUE(kv->get("first")->content_equals(value_of("one")));
  r = kv->get("next");
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_TRUE(r->content_equals(value_of("after")));
}

// A compaction that fails part-way keeps every key: the old segments are
// deleted only after the copies are complete, so the open store and a
// reopen of what is on disk both hold every live key.
TEST_F(LogKvTest, FailedCompactionKeepsEveryKey) {
  auto value = [](int i, int round) {
    return value_of("value-" + std::to_string(i) + "-" +
                    std::to_string(round) + std::string(40, 'x'));
  };
  auto expect_all = [&](LogKv& kv) {
    EXPECT_EQ(kv.size(), 200u);
    for (int i = 0; i < 200; ++i) {
      auto r = kv.get("k" + std::to_string(i));
      ASSERT_TRUE(r.ok()) << "k" << i << ": " << r.status().to_string();
      EXPECT_TRUE(r->content_equals(value(i, i % 2))) << "k" << i;
    }
  };
  auto kv = open();
  for (int round = 0; round < 2; ++round) {
    for (int i = round; i < 200; i += 1 + round) {
      ASSERT_TRUE(kv->put("k" + std::to_string(i), value(i, round)).ok());
    }
  }
  const size_t disk = kv->disk_bytes();
  const size_t dead = kv->dead_bytes();
  const size_t segments = kv->segment_count();
  ASSERT_GT(dead, 0u);
  {
    FileSizeCap cap(4096);  // the copies outgrow one capped segment
    auto reclaimed = kv->compact();
    EXPECT_FALSE(reclaimed.ok());
    cap.lift();
    expect_all(*kv);
  }
  EXPECT_EQ(kv->disk_bytes(), disk);
  EXPECT_EQ(kv->dead_bytes(), dead);
  EXPECT_EQ(kv->segment_count(), segments);
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, segments);
  // The store still takes writes, and a reopen replays the old segments.
  ASSERT_TRUE(kv->put("k0", value(0, 0)).ok());
  kv.reset();
  LogKvOptions no_sweep;
  no_sweep.compact_on_open_ratio = 0;
  kv = open(no_sweep);
  expect_all(*kv);
  ASSERT_TRUE(kv->compact().ok());
  expect_all(*kv);
}

TEST_F(LogKvTest, KeysSorted) {
  auto kv = open();
  for (const char* k : {"c", "a", "b"}) {
    ASSERT_TRUE(kv->put(k, Buffer::zeros(1)).ok());
  }
  EXPECT_EQ(kv->keys(), (std::vector<std::string>{"a", "b", "c"}));
}

TEST_F(LogKvTest, ReopenCompactsWhenMostlyDead) {
  LogKvOptions opt;
  opt.segment_max_bytes = 1024;
  size_t disk_before = 0;
  {
    auto kv = open(opt);
    for (int round = 0; round < 8; ++round) {
      for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(kv->put("k" + std::to_string(i), Buffer::zeros(64)).ok());
      }
    }
    for (int i = 5; i < 10; ++i) {
      ASSERT_TRUE(kv->erase("k" + std::to_string(i)).ok());
    }
    EXPECT_GT(kv->dead_bytes(), kv->disk_bytes() / 2);
    disk_before = kv->disk_bytes();
  }
  // No explicit compact(): open() itself runs the sweep (over half the log
  // is dead) and the rebuilt store starts from a clean, smaller file set.
  auto kv = open(opt);
  EXPECT_LT(kv->disk_bytes(), disk_before);
  EXPECT_EQ(kv->dead_bytes(), 0u);
  EXPECT_EQ(kv->size(), 5u);
  for (int i = 0; i < 5; ++i) {
    auto r = kv->get("k" + std::to_string(i));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->size(), 64u);
  }
}

TEST_F(LogKvTest, ReopenSweepDisabledByZeroRatio) {
  LogKvOptions opt;
  opt.compact_on_open_ratio = 0;
  size_t disk_before = 0;
  {
    auto kv = open(opt);
    ASSERT_TRUE(kv->put("k", Buffer::zeros(256)).ok());
    ASSERT_TRUE(kv->put("k", Buffer::zeros(8)).ok());
    disk_before = kv->disk_bytes();
  }
  auto kv = open(opt);
  EXPECT_EQ(kv->disk_bytes(), disk_before);
  EXPECT_GT(kv->dead_bytes(), 0u);
}

TEST_F(LogKvTest, ReopenSweepSkipsMostlyLiveLog) {
  size_t disk_before = 0;
  {
    auto kv = open();
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(kv->put("k" + std::to_string(i), Buffer::zeros(64)).ok());
    }
    ASSERT_TRUE(kv->erase("k0").ok());  // small dead share
    disk_before = kv->disk_bytes();
  }
  auto kv = open();
  // Under the ratio: no rewrite (the tombstone's dead bytes survive).
  EXPECT_EQ(kv->disk_bytes(), disk_before);
  EXPECT_GT(kv->dead_bytes(), 0u);
}

std::string file_hex(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::string out;
  char c;
  while (in.get(c)) {
    static constexpr char kDigits[] = "0123456789abcdef";
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

// The exact bytes of the segment files for a fixed history: dense,
// synthetic and empty values, an overwrite, a tombstone, and a rollover.
// The record format and order are the log's on-disk contract (an existing
// log must replay under a newer build), so a change to either fails here.
TEST_F(LogKvTest, GoldenSegmentBytes) {
  LogKvOptions opt;
  opt.segment_max_bytes = 48;
  opt.compact_on_open_ratio = 0;
  {
    auto kv = open(opt);
    ASSERT_TRUE(kv->put("a", value_of("one")).ok());
    ASSERT_TRUE(kv->put("syn", Buffer::synthetic(1 << 20, 7)).ok());
    ASSERT_TRUE(kv->put("a", value_of("two!")).ok());
    ASSERT_TRUE(kv->erase("syn").ok());
    ASSERT_TRUE(kv->put("e", Buffer()).ok());
  }
  std::vector<std::pair<std::string, std::string>> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    files.emplace_back(entry.path().filename().string(),
                       file_hex(entry.path()));
  }
  std::sort(files.begin(), files.end());
  // Each record: u32 payload length, u64 FNV-1a of the payload, payload =
  // tombstone flag, key, value (0 + length + bytes dense; 1 + seed + size
  // synthetic).
  const std::vector<std::pair<std::string, std::string>> golden = {
      {"00000001.evl",
       "08000000" "11cc29c8f70029ea" "00" "0161" "00036f6e65"
       "0a000000" "33f140e8e0a06dc5" "00" "0373796e" "0107808040"
       "09000000" "1078b43973de3499" "00" "0161" "000474776f21"},
      {"00000002.evl",
       "05000000" "987b4a6d1ed55dbe" "01" "0373796e"
       "05000000" "9bd3d8265990b0b2" "00" "0165" "0000"},
  };
  EXPECT_EQ(files, golden);
}

// Accounting oracle over a seeded history of dense and synthetic puts,
// overwrites, erases and rollovers. After each phase: the live-byte
// counters equal a recount over every stored value, a reopen rebuilds all
// four counters, and compaction reclaims exactly `dead_bytes()`.
TEST_F(LogKvTest, AccountingMatchesRecount) {
  LogKvOptions opt;
  opt.segment_max_bytes = 512;
  opt.compact_on_open_ratio = 0;
  auto kv = open(opt);
  auto counters = [](const LogKv& s) {
    return std::array<size_t, 4>{s.value_bytes(), s.logical_value_bytes(),
                                 s.dead_bytes(), s.disk_bytes()};
  };
  common::Xoshiro256 rng(0x10c4);
  size_t max_segments = 0;
  for (int phase = 0; phase < 4; ++phase) {
    for (int op = 0; op < 150; ++op) {
      const std::string key = "k" + std::to_string(rng.below(24));
      const uint64_t dice = rng.below(10);
      if (dice < 3 && kv->contains(key)) {
        ASSERT_TRUE(kv->erase(key).ok());
      } else if (dice < 6) {
        ASSERT_TRUE(kv->put(key, Buffer::synthetic(1 + rng.below(1 << 20),
                                                   rng.next()))
                        .ok());
      } else {
        // Dense, empty included.
        ASSERT_TRUE(kv->put(key, Buffer::synthetic(rng.below(100), rng.next())
                                     .materialize())
                        .ok());
      }
      max_segments = std::max(max_segments, kv->segment_count());
    }
    size_t physical = 0;
    size_t logical = 0;
    for (const std::string& key : kv->keys()) {
      auto v = kv->get(key);
      ASSERT_TRUE(v.ok()) << key;
      physical += physical_value_size(*v);
      logical += v->size();
    }
    EXPECT_EQ(kv->value_bytes(), physical) << "phase " << phase;
    EXPECT_EQ(kv->logical_value_bytes(), logical) << "phase " << phase;

    const auto live = counters(*kv);
    kv.reset();
    kv = open(opt);
    EXPECT_EQ(counters(*kv), live) << "phase " << phase;

    const size_t dead = kv->dead_bytes();
    ASSERT_TRUE(kv->compact().ok());
    EXPECT_EQ(live[3] - kv->disk_bytes(), dead) << "phase " << phase;
    EXPECT_EQ(counters(*kv),
              (std::array<size_t, 4>{live[0], live[1], 0, live[3] - dead}));
  }
  EXPECT_GT(max_segments, 3u);
}

// The counters come from the index, not from re-reading the log: an
// overwrite and an erase whose old records no longer verify still subtract
// the old values.
TEST_F(LogKvTest, MutationsDoNotDependOnOldRecords) {
  auto kv = open();
  ASSERT_TRUE(kv->put("a", Buffer::zeros(40)).ok());
  ASSERT_TRUE(kv->put("b", Buffer::zeros(40)).ok());
  ASSERT_TRUE(kv->put("c", Buffer::zeros(40)).ok());
  // Each record is 12 header bytes + 5 of flag, key and value length + 40;
  // flip a value byte of a's and of b's.
  flip_byte(dir_ / "00000001.evl", 20);
  flip_byte(dir_ / "00000001.evl", 57 + 20);
  EXPECT_FALSE(kv->get("a").ok());
  ASSERT_TRUE(kv->put("a", Buffer::zeros(10)).ok());
  ASSERT_TRUE(kv->erase("b").ok());
  EXPECT_EQ(kv->value_bytes(), 50u);
  EXPECT_EQ(kv->logical_value_bytes(), 50u);
  EXPECT_EQ(kv->dead_bytes(), 2 * 57u + 15u);  // a, b and b's tombstone
  EXPECT_TRUE(kv->get("a")->content_equals(Buffer::zeros(10)));
  EXPECT_TRUE(kv->get("c")->content_equals(Buffer::zeros(40)));
}

TEST_F(LogKvTest, SyncEveryWriteRoundTripsAcrossRolloverAndReopen) {
  LogKvOptions opt;
  opt.sync_every_write = true;
  opt.segment_max_bytes = 64;
  {
    auto kv = open(opt);
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(
          kv->put("k" + std::to_string(i), value_of("v" + std::to_string(i)))
              .ok());
    }
    ASSERT_TRUE(kv->erase("k3").ok());
    EXPECT_GT(kv->segment_count(), 2u);
    EXPECT_TRUE(kv->get("k7")->content_equals(value_of("v7")));
  }
  auto kv = open(opt);
  EXPECT_EQ(kv->size(), 11u);
  EXPECT_FALSE(kv->contains("k3"));
  for (int i = 0; i < 12; ++i) {
    if (i == 3) continue;
    auto r = kv->get("k" + std::to_string(i));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->content_equals(value_of("v" + std::to_string(i))));
  }
  ASSERT_TRUE(kv->put("k3", value_of("again")).ok());
  EXPECT_TRUE(kv->get("k3")->content_equals(value_of("again")));
}

TEST_F(LogKvTest, ManyKeysStressAndReopen) {
  LogKvOptions opt;
  opt.segment_max_bytes = 4096;
  {
    auto kv = open(opt);
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(
          kv->put("key" + std::to_string(i),
                  Buffer::synthetic(static_cast<size_t>(i % 97) + 1,
                                    static_cast<uint64_t>(i)))
              .ok());
    }
    for (int i = 0; i < 500; i += 3) {
      ASSERT_TRUE(kv->erase("key" + std::to_string(i)).ok());
    }
  }
  auto kv = open(opt);
  size_t expected = 0;
  for (int i = 0; i < 500; ++i) {
    bool erased = (i % 3 == 0);
    EXPECT_EQ(kv->contains("key" + std::to_string(i)), !erased);
    if (!erased) ++expected;
  }
  EXPECT_EQ(kv->size(), expected);
}

}  // namespace
}  // namespace evostore::storage
