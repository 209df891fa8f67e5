#include "storage/mem_kv.h"

#include <algorithm>
#include <mutex>

#include "common/hash.h"

namespace evostore::storage {

MemKv::MemKv(size_t shard_count)
    : shard_count_(shard_count == 0 ? 1 : shard_count),
      shards_(std::make_unique<Shard[]>(shard_count_)) {}

MemKv::Shard& MemKv::shard_for(std::string_view key) const {
  return shards_[common::fnv1a64(key) % shard_count_];
}

Status MemKv::put(std::string_view key, Buffer value) {
  Shard& s = shard_for(key);
  std::unique_lock lock(s.mu);
  auto it = s.entries.find(key);
  if (it != s.entries.end()) {
    s.logical_bytes -= it->second.size();
    s.physical_bytes -= physical_value_size(it->second);
    s.logical_bytes += value.size();
    s.physical_bytes += physical_value_size(value);
    it->second = std::move(value);
  } else {
    s.logical_bytes += value.size();
    s.physical_bytes += physical_value_size(value);
    s.entries.emplace(std::string(key), std::move(value));
  }
  return Status::Ok();
}

Result<Buffer> MemKv::get(std::string_view key) const {
  Shard& s = shard_for(key);
  std::shared_lock lock(s.mu);
  auto it = s.entries.find(key);
  if (it == s.entries.end()) {
    return Status::NotFound("key '" + std::string(key) + "'");
  }
  return it->second;
}

Status MemKv::erase(std::string_view key) {
  Shard& s = shard_for(key);
  std::unique_lock lock(s.mu);
  auto it = s.entries.find(key);
  if (it == s.entries.end()) {
    return Status::NotFound("key '" + std::string(key) + "'");
  }
  s.logical_bytes -= it->second.size();
  s.physical_bytes -= physical_value_size(it->second);
  s.entries.erase(it);
  return Status::Ok();
}

bool MemKv::contains(std::string_view key) const {
  Shard& s = shard_for(key);
  std::shared_lock lock(s.mu);
  return s.entries.find(key) != s.entries.end();
}

size_t MemKv::size() const {
  size_t n = 0;
  for (size_t i = 0; i < shard_count_; ++i) {
    std::shared_lock lock(shards_[i].mu);
    n += shards_[i].entries.size();
  }
  return n;
}

std::vector<std::string> MemKv::keys() const {
  std::vector<std::string> out;
  for (size_t i = 0; i < shard_count_; ++i) {
    std::shared_lock lock(shards_[i].mu);
    for (const auto& [k, v] : shards_[i].entries) out.push_back(k);
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t MemKv::value_bytes() const {
  size_t n = 0;
  for (size_t i = 0; i < shard_count_; ++i) {
    std::shared_lock lock(shards_[i].mu);
    n += shards_[i].physical_bytes;
  }
  return n;
}

size_t MemKv::logical_value_bytes() const {
  size_t n = 0;
  for (size_t i = 0; i < shard_count_; ++i) {
    std::shared_lock lock(shards_[i].mu);
    n += shards_[i].logical_bytes;
  }
  return n;
}

}  // namespace evostore::storage
