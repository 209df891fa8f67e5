#include "storage/log_kv.h"

#include <algorithm>
#include <cstring>

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

LogKv::~LogKv() {
  if (active_file_ != nullptr) std::fclose(active_file_);
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
      uint64_t record_len = kHeaderLen + plen;
      // Apply to index.
      auto it = index_.find(key);
      if (it != index_.end()) {
        dead_bytes_ += it->second.length;
        // The old value is no longer live.
      }
      if (tombstone) {
        if (it != index_.end()) {
          // Recompute live bytes lazily: we cannot know the old value size
          // without re-reading; track via read.
          std::string dummy;
          auto old = read_record(it->second, &dummy);
          if (old.ok()) {
            live_logical_bytes_ -= old.value().size();
            live_physical_bytes_ -= physical_value_size(old.value());
          }
          index_.erase(it);
        }
        dead_bytes_ += record_len;  // the tombstone itself is dead weight
      } else {
        if (it != index_.end()) {
          std::string dummy;
          auto old = read_record(it->second, &dummy);
          if (old.ok()) {
            live_logical_bytes_ -= old.value().size();
            live_physical_bytes_ -= physical_value_size(old.value());
          }
          it->second = Location{id, offset, record_len};
        } else {
          index_.emplace(key, Location{id, offset, record_len});
        }
        live_logical_bytes_ += value.size();
        live_physical_bytes_ += physical_value_size(value);
      }
      offset += record_len;
    }
    if (f != nullptr) std::fclose(f);
    segments_[id] = std::filesystem::file_size(segment_path(id));
  }

  active_segment_ = ids.empty() ? 0 : ids.back();
  if (ids.empty()) {
    EVO_RETURN_IF_ERROR(roll_segment());
  } else {
    active_file_ =
        std::fopen(segment_path(active_segment_).string().c_str(), "ab");
    if (active_file_ == nullptr) {
      return Status::IoError("open active segment for append");
    }
    active_offset_ = segments_[active_segment_];
  }
  return Status::Ok();
}

Status LogKv::roll_segment() {
  if (active_file_ != nullptr) {
    std::fclose(active_file_);
    active_file_ = nullptr;
  }
  ++active_segment_;
  active_file_ =
      std::fopen(segment_path(active_segment_).string().c_str(), "wb");
  if (active_file_ == nullptr) {
    return Status::IoError("create segment " +
                           segment_path(active_segment_).string());
  }
  active_offset_ = 0;
  segments_[active_segment_] = 0;
  return Status::Ok();
}

Status LogKv::append_record(std::string_view key, const Buffer* value,
                            Location* loc) {
  common::Serializer s;
  s.boolean(value == nullptr);
  s.str(key);
  if (value != nullptr) s.buffer(*value);
  common::Bytes payload = std::move(s).take();

  unsigned char header[kHeaderLen];
  put_u32(header, static_cast<uint32_t>(payload.size()));
  put_u64(header + 4, common::fnv1a64(payload.data(), payload.size()));

  if (active_offset_ >= options_.segment_max_bytes) {
    EVO_RETURN_IF_ERROR(roll_segment());
  }
  if (std::fwrite(header, 1, kHeaderLen, active_file_) != kHeaderLen ||
      std::fwrite(payload.data(), 1, payload.size(), active_file_) !=
          payload.size()) {
    return Status::IoError("append failed");
  }
  std::fflush(active_file_);
  if (options_.sync_every_write) {
    // fflush + OS sync; fileno is POSIX.
    // (fdatasync omitted on purpose in tests for speed.)
  }
  uint64_t record_len = kHeaderLen + payload.size();
  if (loc != nullptr) {
    *loc = Location{active_segment_, active_offset_, record_len};
  }
  active_offset_ += record_len;
  segments_[active_segment_] = active_offset_;
  return Status::Ok();
}

Result<Buffer> LogKv::read_record(const Location& loc,
                                  std::string* key_out) const {
  std::FILE* f = std::fopen(segment_path(loc.segment).string().c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("open segment " + std::to_string(loc.segment));
  }
  std::vector<unsigned char> record(loc.length);
  bool ok = std::fseek(f, static_cast<long>(loc.offset), SEEK_SET) == 0 &&
            std::fread(record.data(), 1, loc.length, f) == loc.length;
  std::fclose(f);
  if (!ok) return Status::IoError("short read");
  uint32_t plen = get_u32(record.data());
  if (plen + kHeaderLen != loc.length) return Status::Corruption("bad length");
  if (common::fnv1a64(record.data() + kHeaderLen, plen) !=
      get_u64(record.data() + 4)) {
    return Status::Corruption("checksum mismatch");
  }
  common::Deserializer d(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(record.data() + kHeaderLen), plen));
  bool tombstone = d.boolean();
  std::string key = d.str();
  if (tombstone) return Status::Corruption("tombstone in index");
  Buffer value = d.buffer();
  if (!d.ok()) return d.status();
  if (key_out != nullptr) *key_out = std::move(key);
  return value;
}

Status LogKv::put(std::string_view key, Buffer value) {
  std::lock_guard lock(mu_);
  auto it = index_.find(key);
  size_t old_value_size = 0;
  size_t old_physical_size = 0;
  bool had_old = false;
  if (it != index_.end()) {
    std::string dummy;
    auto old = read_record(it->second, &dummy);
    if (old.ok()) {
      old_value_size = old.value().size();
      old_physical_size = physical_value_size(old.value());
    }
    had_old = true;
  }
  Location loc;
  EVO_RETURN_IF_ERROR(append_record(key, &value, &loc));
  if (had_old) {
    dead_bytes_ += it->second.length;
    live_logical_bytes_ -= old_value_size;
    live_physical_bytes_ -= old_physical_size;
    it->second = loc;
  } else {
    index_.emplace(std::string(key), loc);
  }
  live_logical_bytes_ += value.size();
  live_physical_bytes_ += physical_value_size(value);
  return Status::Ok();
}

Result<Buffer> LogKv::get(std::string_view key) const {
  std::lock_guard lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    return Status::NotFound("key '" + std::string(key) + "'");
  }
  return read_record(it->second, nullptr);
}

Status LogKv::erase(std::string_view key) {
  std::lock_guard lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    return Status::NotFound("key '" + std::string(key) + "'");
  }
  std::string dummy;
  auto old = read_record(it->second, &dummy);
  Location loc;
  EVO_RETURN_IF_ERROR(append_record(key, nullptr, &loc));
  dead_bytes_ += it->second.length + loc.length;
  if (old.ok()) {
    live_logical_bytes_ -= old.value().size();
    live_physical_bytes_ -= physical_value_size(old.value());
  }
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
  for (const auto& [id, sz] : segments_) before += sz;

  // Snapshot live records.
  std::vector<std::pair<std::string, Buffer>> live;
  live.reserve(index_.size());
  for (const auto& [key, loc] : index_) {
    auto value = read_record(loc, nullptr);
    if (!value.ok()) return value.status();
    live.emplace_back(key, std::move(value).value());
  }

  // Remove all existing segments and start fresh.
  if (active_file_ != nullptr) {
    std::fclose(active_file_);
    active_file_ = nullptr;
  }
  for (const auto& [id, sz] : segments_) {
    std::error_code ec;
    std::filesystem::remove(segment_path(id), ec);
  }
  segments_.clear();
  index_.clear();
  live_logical_bytes_ = 0;
  live_physical_bytes_ = 0;
  dead_bytes_ = 0;
  EVO_RETURN_IF_ERROR(roll_segment());

  for (auto& [key, value] : live) {
    Location loc;
    EVO_RETURN_IF_ERROR(append_record(key, &value, &loc));
    index_.emplace(key, loc);
    live_logical_bytes_ += value.size();
    live_physical_bytes_ += physical_value_size(value);
  }
  size_t after = 0;
  for (const auto& [id, sz] : segments_) after += sz;
  return before > after ? before - after : size_t{0};
}

size_t LogKv::disk_bytes() const {
  std::lock_guard lock(mu_);
  size_t n = 0;
  for (const auto& [id, sz] : segments_) n += sz;
  return n;
}

}  // namespace evostore::storage
