// Key-value store abstraction used by providers as their persistence
// backend (paper §4.3: "an extensible key-value store abstraction ...
// either in-memory [or] persistently using underlying backends such as C++
// synchronized memory pools or RocksDB").
//
// Implementations: MemKv (sharded in-memory, storage/mem_kv.h) and LogKv
// (file-backed log-structured store, storage/log_kv.h).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/buffer.h"
#include "common/status.h"

namespace evostore::storage {

using common::Buffer;
using common::Result;
using common::Status;

/// Bytes a value actually occupies in the store. Synthetic buffers are
/// persisted as their (seed, size) descriptor — a tag byte plus two varints —
/// so their footprint is a small constant regardless of logical size. Dense
/// buffers cost their content.
inline size_t physical_value_size(size_t logical, bool synthetic) {
  constexpr size_t kSyntheticDescriptorBytes = 1 + 8 + 8;
  return synthetic ? kSyntheticDescriptorBytes : logical;
}
inline size_t physical_value_size(const Buffer& v) {
  return physical_value_size(v.size(), v.is_synthetic());
}

class KvStore {
 public:
  virtual ~KvStore() = default;

  /// Insert or overwrite.
  virtual Status put(std::string_view key, Buffer value) = 0;

  /// NotFound if absent.
  virtual Result<Buffer> get(std::string_view key) const = 0;

  /// NotFound if absent.
  virtual Status erase(std::string_view key) = 0;

  virtual bool contains(std::string_view key) const = 0;
  virtual size_t size() const = 0;

  /// All keys in lexicographic order (snapshot).
  virtual std::vector<std::string> keys() const = 0;

  /// Sum of *physical* value footprints currently stored (what the values
  /// occupy in memory or on disk: post-compression payloads, descriptor cost
  /// for synthetic buffers). See `physical_value_size`.
  virtual size_t value_bytes() const = 0;

  /// Sum of *logical* value sizes currently stored (`Buffer::size()` — the
  /// uncompressed byte count each value represents).
  virtual size_t logical_value_bytes() const = 0;
};

}  // namespace evostore::storage
