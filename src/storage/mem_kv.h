// Sharded in-memory KV store ("C++ synchronized memory pool" backend).
//
// Thread-safe: keys are hashed to shards, each protected by its own
// shared_mutex. Inside the single-threaded simulation the locks are
// uncontended and effectively free; the store is also usable directly from
// multi-threaded host code (tests exercise this).
#pragma once

#include <array>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string_view>

#include "storage/kv_store.h"

namespace evostore::storage {

class MemKv final : public KvStore {
 public:
  explicit MemKv(size_t shard_count = 16);

  Status put(std::string_view key, Buffer value) override;
  Result<Buffer> get(std::string_view key) const override;
  Status erase(std::string_view key) override;
  bool contains(std::string_view key) const override;
  size_t size() const override;
  std::vector<std::string> keys() const override;
  size_t value_bytes() const override;
  size_t logical_value_bytes() const override;

 private:
  struct Shard {
    mutable std::shared_mutex mu;
    std::map<std::string, Buffer, std::less<>> entries;
    size_t logical_bytes = 0;
    size_t physical_bytes = 0;
  };
  Shard& shard_for(std::string_view key) const;

  size_t shard_count_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace evostore::storage
