#include "storage/log_kv.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <utility>

#include "common/hash.h"
#include "common/log.h"
#include "common/serde.h"

namespace evostore::storage {

namespace {

// Record layout: [u32 payload_len][u64 checksum][payload]
// payload = serde{ u8 tombstone, str key, (buffer value if !tombstone) }
constexpr size_t kHeaderLen = 4 + 8;

void put_u32(unsigned char* p, uint32_t v) { std::memcpy(p, &v, 4); }
void put_u64(unsigned char* p, uint64_t v) { std::memcpy(p, &v, 8); }
uint32_t get_u32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
uint64_t get_u64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// Write `bytes` in full at `offset`, resuming after short writes. False on
// an error, with part of the bytes possibly written.
bool write_all_at(int fd, std::span<const std::byte> bytes, uint64_t offset) {
  while (!bytes.empty()) {
    ssize_t n = ::pwrite(fd, bytes.data(), bytes.size(),
                         static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes = bytes.subspan(static_cast<size_t>(n));
    offset += static_cast<uint64_t>(n);
  }
  return true;
}

// fsync the directory `dir`, making the names of files created in it
// durable.
Status sync_dir(const std::filesystem::path& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Status::IoError("open " + dir.string() + " for fsync");
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok ? Status::Ok() : Status::IoError("fsync " + dir.string());
}

}  // namespace

Result<std::unique_ptr<LogKv>> LogKv::open(std::filesystem::path dir,
                                           LogKvOptions options) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("create_directories(" + dir.string() +
                           "): " + ec.message());
  }
  auto kv = std::unique_ptr<LogKv>(new LogKv(std::move(dir), options));
  EVO_RETURN_IF_ERROR(kv->load());
  // Restart-time compaction sweep: the load scan has just computed the dead
  // share; rewrite the log now if it crossed the configured ratio.
  if (options.compact_on_open_ratio > 0 && kv->dead_bytes() > 0 &&
      static_cast<double>(kv->dead_bytes()) >=
          options.compact_on_open_ratio *
              static_cast<double>(kv->disk_bytes())) {
    auto reclaimed = kv->compact();
    if (!reclaimed.ok()) return reclaimed.status();
  }
  return kv;
}

LogKv::~LogKv() { close_segments(); }

void LogKv::close_segments() {
  if (active_fd_ >= 0) ::close(active_fd_);
  active_fd_ = -1;
  for (auto& [id, seg] : segments_) {
    if (seg.read_fd >= 0) ::close(seg.read_fd);
    seg.read_fd = -1;
  }
}

Status LogKv::open_reader(uint64_t id) {
  int fd = ::open(segment_path(id).c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("open segment " + segment_path(id).string());
  }
  segments_[id].read_fd = fd;
  return Status::Ok();
}

void LogKv::add_live(const Location& loc) {
  live_logical_bytes_ += loc.logical_size();
  live_physical_bytes_ += loc.physical_size();
}

void LogKv::retire(const Location& loc) {
  live_logical_bytes_ -= loc.logical_size();
  live_physical_bytes_ -= loc.physical_size();
  dead_bytes_ += loc.length;
}

std::filesystem::path LogKv::segment_path(uint64_t id) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%08llu.evl",
                static_cast<unsigned long long>(id));
  return dir_ / name;
}

Status LogKv::load() {
  // Discover segments.
  std::vector<uint64_t> ids;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    auto name = entry.path().filename().string();
    if (name.size() == 12 && name.ends_with(".evl")) {
      ids.push_back(std::strtoull(name.c_str(), nullptr, 10));
    }
  }
  std::sort(ids.begin(), ids.end());

  for (size_t si = 0; si < ids.size(); ++si) {
    uint64_t id = ids[si];
    bool last = (si + 1 == ids.size());
    std::FILE* f = std::fopen(segment_path(id).string().c_str(), "rb");
    if (f == nullptr) {
      return Status::IoError("open segment " + segment_path(id).string());
    }
    uint64_t offset = 0;
    std::vector<unsigned char> payload;
    while (true) {
      unsigned char header[kHeaderLen];
      size_t got = std::fread(header, 1, kHeaderLen, f);
      if (got == 0) break;  // clean end
      uint32_t plen = got == kHeaderLen ? get_u32(header) : 0;
      bool ok = got == kHeaderLen;
      if (ok) {
        payload.resize(plen);
        ok = std::fread(payload.data(), 1, plen, f) == plen;
      }
      if (ok) {
        ok = common::fnv1a64(payload.data(), plen) == get_u64(header + 4);
      }
      common::Deserializer d(
          std::span<const std::byte>(reinterpret_cast<const std::byte*>(payload.data()), ok ? plen : 0));
      bool tombstone = false;
      std::string key;
      Buffer value;
      if (ok) {
        tombstone = d.boolean();
        key = d.str();
        if (!tombstone) value = d.buffer();
        ok = d.ok();
      }
      if (!ok) {
        std::fclose(f);
        if (last) {
          // Torn tail from a crash: truncate and continue.
          EVO_WARN << "LogKv: truncating torn tail of segment " << id
                   << " at offset " << offset;
          std::filesystem::resize_file(segment_path(id), offset);
          f = nullptr;
          break;
        }
        return Status::Corruption("corrupt record in non-final segment " +
                                  std::to_string(id));
      }
      const auto record_len = static_cast<uint32_t>(kHeaderLen + plen);
      // Apply to index: the entry being replaced carries its value's sizes.
      auto it = index_.find(key);
      if (it != index_.end()) retire(it->second);
      if (tombstone) {
        if (it != index_.end()) index_.erase(it);
        dead_bytes_ += record_len;  // the tombstone itself is dead weight
      } else {
        const Location loc{static_cast<uint32_t>(id), record_len, offset,
                           Location::value_of(value)};
        if (it != index_.end()) {
          it->second = loc;
        } else {
          index_.emplace(std::move(key), loc);
        }
        add_live(loc);
      }
      offset += record_len;
    }
    if (f != nullptr) std::fclose(f);
    segments_[id].bytes = std::filesystem::file_size(segment_path(id));
    EVO_RETURN_IF_ERROR(open_reader(id));
  }

  active_segment_ = ids.empty() ? 0 : ids.back();
  if (ids.empty()) {
    EVO_RETURN_IF_ERROR(roll_segment());
  } else {
    active_fd_ =
        ::open(segment_path(active_segment_).c_str(), O_WRONLY | O_CLOEXEC);
    if (active_fd_ < 0) {
      return Status::IoError("open active segment for append");
    }
    active_offset_ = segments_[active_segment_].bytes;
  }
  return Status::Ok();
}

Status LogKv::roll_segment() {
  if (active_fd_ >= 0) ::close(active_fd_);
  ++active_segment_;
  active_fd_ = ::open(segment_path(active_segment_).c_str(),
                      O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (active_fd_ < 0) {
    return Status::IoError("create segment " +
                           segment_path(active_segment_).string());
  }
  active_offset_ = 0;
  segments_[active_segment_].bytes = 0;
  EVO_RETURN_IF_ERROR(open_reader(active_segment_));
  // The new segment's name must survive a crash as well as its records.
  if (options_.sync_every_write) EVO_RETURN_IF_ERROR(sync_dir(dir_));
  return Status::Ok();
}

Result<LogKv::Location> LogKv::append_record(std::string_view key,
                                             const Buffer* value) {
  // The whole record in one buffer, so it is written with one call: the
  // header is reserved first and filled in once the payload is known.
  common::Serializer s;
  for (size_t i = 0; i < kHeaderLen; ++i) s.u8(0);
  s.boolean(value == nullptr);
  s.str(key);
  if (value != nullptr) s.buffer(*value);
  common::Bytes record = std::move(s).take();
  const size_t plen = record.size() - kHeaderLen;
  if (plen > std::numeric_limits<uint32_t>::max() - kHeaderLen) {
    return Status::InvalidArgument("record of " + std::to_string(plen) +
                                   " bytes exceeds the log's u32 length");
  }
  auto* header = reinterpret_cast<unsigned char*>(record.data());
  put_u32(header, static_cast<uint32_t>(plen));
  put_u64(header + 4, common::fnv1a64(header + kHeaderLen, plen));

  if (active_offset_ >= options_.segment_max_bytes) {
    EVO_RETURN_IF_ERROR(roll_segment());
  }
  if (!write_all_at(active_fd_, record, active_offset_)) {
    // A failed append leaves no bytes behind: the segment is cut back to
    // its last whole record, so the next record starts there and a reopen
    // finds no partial one.
    if (::ftruncate(active_fd_, static_cast<off_t>(active_offset_)) != 0) {
      return Status::IoError("append failed, and so did truncating it");
    }
    return Status::IoError("append failed");
  }
  const Location loc{static_cast<uint32_t>(active_segment_),
                     static_cast<uint32_t>(record.size()), active_offset_,
                     value != nullptr ? Location::value_of(*value) : 0};
  // The record is in the file whether or not the sync below succeeds.
  active_offset_ += loc.length;
  segments_[active_segment_].bytes = active_offset_;
  if (options_.sync_every_write && ::fsync(active_fd_) != 0) {
    return Status::IoError("fsync segment " + std::to_string(active_segment_));
  }
  return loc;
}

Result<Buffer> LogKv::read_record(const Location& loc) const {
  auto seg = segments_.find(loc.segment);
  if (seg == segments_.end()) {
    return Status::Internal("index names deleted segment " +
                            std::to_string(loc.segment));
  }
  std::vector<unsigned char> record(loc.length);
  if (::pread(seg->second.read_fd, record.data(), record.size(),
              static_cast<off_t>(loc.offset)) !=
      static_cast<ssize_t>(record.size())) {
    return Status::IoError("short read");
  }
  uint32_t plen = get_u32(record.data());
  if (plen + kHeaderLen != loc.length) return Status::Corruption("bad length");
  if (common::fnv1a64(record.data() + kHeaderLen, plen) !=
      get_u64(record.data() + 4)) {
    return Status::Corruption("checksum mismatch");
  }
  common::Deserializer d(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(record.data() + kHeaderLen), plen));
  bool tombstone = d.boolean();
  d.str();
  if (tombstone) return Status::Corruption("tombstone in index");
  Buffer value = d.buffer();
  if (!d.ok()) return d.status();
  return value;
}

Status LogKv::put(std::string_view key, Buffer value) {
  std::lock_guard lock(mu_);
  auto loc = append_record(key, &value);
  if (!loc.ok()) return loc.status();
  auto it = index_.find(key);
  if (it != index_.end()) {
    retire(it->second);
    it->second = *loc;
  } else {
    index_.emplace(std::string(key), *loc);
  }
  add_live(*loc);
  return Status::Ok();
}

Result<Buffer> LogKv::get(std::string_view key) const {
  std::lock_guard lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    return Status::NotFound("key '" + std::string(key) + "'");
  }
  return read_record(it->second);
}

Status LogKv::erase(std::string_view key) {
  std::lock_guard lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    return Status::NotFound("key '" + std::string(key) + "'");
  }
  auto tombstone = append_record(key, nullptr);
  if (!tombstone.ok()) return tombstone.status();
  retire(it->second);
  dead_bytes_ += tombstone->length;
  index_.erase(it);
  return Status::Ok();
}

bool LogKv::contains(std::string_view key) const {
  std::lock_guard lock(mu_);
  return index_.find(key) != index_.end();
}

size_t LogKv::size() const {
  std::lock_guard lock(mu_);
  return index_.size();
}

std::vector<std::string> LogKv::keys() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> out;
  out.reserve(index_.size());
  for (const auto& [k, loc] : index_) out.push_back(k);
  return out;
}

size_t LogKv::value_bytes() const {
  std::lock_guard lock(mu_);
  return live_physical_bytes_;
}

size_t LogKv::logical_value_bytes() const {
  std::lock_guard lock(mu_);
  return live_logical_bytes_;
}

Result<size_t> LogKv::compact() {
  std::lock_guard lock(mu_);
  size_t before = 0;
  for (const auto& [id, seg] : segments_) before += seg.bytes;

  // Copy every live record into new segments after the current ones, and
  // index the copies beside the live index. Until the switch below the old
  // segments and the index stay as they were, so a compaction cut short
  // loses nothing: an error drops the new segments, and a crash leaves
  // copies that a replay reads after the records they copy.
  const uint64_t first_new = active_segment_ + 1;
  const int old_fd = std::exchange(active_fd_, -1);
  const uint64_t old_offset = active_offset_;
  std::map<std::string, Location, std::less<>> index;
  Status st = roll_segment();
  for (auto it = index_.begin(); st.ok() && it != index_.end(); ++it) {
    auto value = read_record(it->second);
    if (!value.ok()) {
      st = value.status();
      break;
    }
    auto loc = append_record(it->first, &value.value());
    if (!loc.ok()) {
      st = loc.status();
      break;
    }
    index.emplace_hint(index.end(), it->first, *loc);
  }
  // Delete the old segments on success, the new ones on failure.
  auto drop = [&](auto first, auto last) {
    for (auto it = first; it != last; it = segments_.erase(it)) {
      if (it->second.read_fd >= 0) ::close(it->second.read_fd);
      std::error_code ec;
      std::filesystem::remove(segment_path(it->first), ec);
    }
  };
  if (!st.ok()) {
    if (active_fd_ >= 0) ::close(active_fd_);
    drop(segments_.lower_bound(first_new), segments_.end());
    active_fd_ = old_fd;
    active_segment_ = first_new - 1;
    active_offset_ = old_offset;
    return st;
  }
  // The copies hold the same values, so only the dead bytes change.
  index_ = std::move(index);
  dead_bytes_ = 0;
  ::close(old_fd);
  drop(segments_.begin(), segments_.lower_bound(first_new));
  size_t after = 0;
  for (const auto& [id, seg] : segments_) after += seg.bytes;
  return before > after ? before - after : size_t{0};
}

size_t LogKv::disk_bytes() const {
  std::lock_guard lock(mu_);
  size_t n = 0;
  for (const auto& [id, seg] : segments_) n += seg.bytes;
  return n;
}

}  // namespace evostore::storage
