// LogKv: file-backed log-structured KV store (the RocksDB-class persistent
// backend of the paper's providers, reimplemented from scratch).
//
// Design: append-only segment files + an in-memory index.
//  - Every put/erase appends one checksummed record to the active segment;
//    the log is the write-ahead log.
//  - `open` rebuilds the index by scanning segments in order. A torn write
//    at the tail of the *last* segment (crash mid-append) is detected by the
//    checksum and truncated away; corruption anywhere else is an error.
//  - `compact` rewrites live records into fresh segments and deletes the
//    old ones, reclaiming space from overwrites and tombstones.
//
// Synthetic buffers are persisted as their (seed, size) descriptors, so a
// provider spilling simulated multi-GB tensors keeps small logs while dense
// (test) data round-trips bit-exactly.
#pragma once

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>

#include "storage/kv_store.h"

namespace evostore::storage {

struct LogKvOptions {
  /// Roll to a new segment once the active one exceeds this many bytes.
  size_t segment_max_bytes = 64 * 1024 * 1024;
  /// fsync after every append (slow; off for tests/benches).
  bool sync_every_write = false;
  /// Compact during `open` when at least this fraction of the on-disk bytes
  /// is dead (overwritten records and tombstones). The rebuild scan already
  /// knows exactly which records are live, so restart is the cheapest moment
  /// to reclaim the space a crash-interrupted lifetime accumulated. 0
  /// disables (open never rewrites; matches the pre-option behavior).
  double compact_on_open_ratio = 0.5;
};

class LogKv final : public KvStore {
 public:
  /// Open (creating if needed) a store rooted at `dir`.
  static Result<std::unique_ptr<LogKv>> open(std::filesystem::path dir,
                                             LogKvOptions options = {});
  ~LogKv() override;

  LogKv(const LogKv&) = delete;
  LogKv& operator=(const LogKv&) = delete;

  Status put(std::string_view key, Buffer value) override;
  Result<Buffer> get(std::string_view key) const override;
  Status erase(std::string_view key) override;
  bool contains(std::string_view key) const override;
  size_t size() const override;
  std::vector<std::string> keys() const override;
  size_t value_bytes() const override;
  size_t logical_value_bytes() const override;

  /// Rewrite live data into fresh segments, dropping overwritten records and
  /// tombstones. Returns bytes reclaimed on disk.
  Result<size_t> compact();

  /// Bytes currently occupied by all segment files.
  size_t disk_bytes() const;
  /// Bytes occupied by records that are no longer live (compaction target).
  size_t dead_bytes() const { return dead_bytes_; }
  size_t segment_count() const { return segments_.size(); }

 private:
  LogKv(std::filesystem::path dir, LogKvOptions options)
      : dir_(std::move(dir)), options_(options) {}

  struct Location {
    uint64_t segment = 0;
    uint64_t offset = 0;  // of the record header
    uint64_t length = 0;  // full record length incl. header
  };

  Status load();
  Status roll_segment();
  Status append_record(std::string_view key, const Buffer* value,
                       Location* loc);
  Result<Buffer> read_record(const Location& loc, std::string* key_out) const;
  std::filesystem::path segment_path(uint64_t id) const;

  std::filesystem::path dir_;
  LogKvOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, Location, std::less<>> index_;
  std::map<uint64_t, uint64_t> segments_;  // id -> byte size
  uint64_t active_segment_ = 0;
  std::FILE* active_file_ = nullptr;
  uint64_t active_offset_ = 0;
  size_t live_logical_bytes_ = 0;
  size_t live_physical_bytes_ = 0;
  size_t dead_bytes_ = 0;
};

}  // namespace evostore::storage
