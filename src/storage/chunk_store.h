// ChunkStore: a per-provider content-addressed store of deduplicated
// payload chunks.
//
// The owner-map + delta-codec layers deduplicate tensors only along ancestor
// edges; identical content appearing in *unrelated* models (shared pretrained
// backbones, repeated NAS cells, zero-initialized heads) is stored once per
// lineage. The chunk store recovers that cross-lineage redundancy: segment
// payloads are split with content-defined chunking (compress/chunker.h),
// each chunk is keyed by a 128-bit content digest, and a provider stores
// every distinct chunk exactly once with a reference count.
//
// Lifecycle composition with the segment GC: each kChunked envelope holds
// one reference on every manifest chunk; the reference is taken when the
// provider chunks an incoming put and released when the envelope itself is
// freed by the refcount GC — which in turn only happens once every owner-map
// reference AND every delta-base dependency on the segment is gone. A chunk
// therefore dies exactly when the last segment (or delta base) whose payload
// contains it is retired.
//
// Costs: chunks carry two sizes. `bytes` is the real payload byte count (the
// serialized descriptor bytes in simulation); `cost` is the chunk's modeled
// physical footprint — its proportional share of the envelope's
// physical_bytes, so dedup savings are priced at the same modeled scale as
// the rest of the storage accounting (a deduped 4 GB backbone saves 4 GB,
// not 40 descriptor bytes). Per-envelope chunk costs telescope exactly:
// they always sum to the envelope's physical_bytes.
//
// Persistence: with a backend attached, a newly stored chunk writes one
// `chunk/<seq>` record (digest + cost + bytes) through to it, erased when the
// chunk is freed; a failed put logs one warning naming the key. Only
// chunk_store.cc knows the layout: storage/ sits below the core's record
// layer (core/records.h). Reference counts are NOT persisted — after a crash
// they are recomputed from the surviving segment manifests:
// Provider::restore_from_backend calls `restore` first, re-references the
// installed chunks via `add_ref_existing` while restoring segments, then
// calls `drop_unreferenced`. Cumulative counters survive restarts, mirroring
// ProviderStats (they model external monitoring).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/buffer.h"
#include "common/hash.h"
#include "storage/kv_store.h"

namespace evostore::storage {

/// Cumulative chunk-store counters (monotone; survive restart()).
struct ChunkStoreStats {
  /// add_ref calls deduplicated against an already-stored chunk.
  uint64_t hits = 0;
  /// add_ref calls that stored a new chunk.
  uint64_t misses = 0;
  /// Chunks freed because their last reference was released.
  uint64_t freed = 0;
  /// Modeled physical bytes that dedup hits avoided storing.
  uint64_t saved_bytes = 0;
};

class ChunkStore {
 public:
  struct Chunk {
    common::Bytes bytes;   // real payload bytes
    uint64_t cost = 0;     // modeled physical footprint
    int32_t refs = 0;
    uint64_t record_seq = 0;  // backend record id (stable across refcounts)
  };

  /// `backend` (optional, non-owning) receives one write-through record per
  /// stored chunk; nullptr keeps the store purely in-memory.
  explicit ChunkStore(KvStore* backend = nullptr);

  /// Add one reference to the chunk identified by `digest`, storing
  /// (`bytes`, `cost`) if it is not yet present. Returns true when the chunk
  /// was newly stored (miss), false on a dedup hit. On a hit, `cost` is the
  /// modeled footprint the caller avoided storing (counted into
  /// stats().saved_bytes); the stored chunk keeps its original cost.
  bool add_ref(const common::Hash128& digest, std::span<const std::byte> bytes,
               uint64_t cost);

  /// Add one reference to a chunk that must already be present (restore
  /// path: manifests re-reference installed records). Returns false — and
  /// leaves the store untouched — when the chunk is absent. Does not count a
  /// hit (it is not a dedup event).
  bool add_ref_existing(const common::Hash128& digest);

  /// Release one reference. Frees the chunk — and erases its backend record
  /// — when the count reaches zero. Returns the freed chunk's modeled cost,
  /// or 0 while references remain (or for an unknown digest).
  uint64_t release(const common::Hash128& digest);

  /// Lookup; nullptr when absent.
  const Chunk* find(const common::Hash128& digest) const;

  // ---- restore (driven by Provider::restore_from_backend) ----

  /// Drop all live chunks and their byte accounting; cumulative stats
  /// survive. Backend records are left untouched (they are the recovery
  /// source).
  void clear();
  /// Install, at zero references, every chunk record named in `*keys` (a
  /// sorted snapshot of the backend's keys) and take those keys out of it.
  /// A record that cannot be read, or whose key or value does not parse, is
  /// skipped with a warning.
  void restore(std::vector<std::string>* keys);
  /// Install a record recovered from the backend with zero references.
  /// Returns false (ignoring the record) on a duplicate digest.
  bool install(const common::Hash128& digest, common::Bytes bytes,
               uint64_t cost, uint64_t record_seq);
  /// Erase every chunk still at zero references (and its backend record):
  /// the end-of-restore sweep for records whose manifests did not survive.
  /// Returns the number of chunks dropped.
  size_t drop_unreferenced();
  /// Highest record id observed (install/new-store), for seq continuation.
  uint64_t record_seq() const { return record_seq_; }

  // ---- introspection ----
  size_t chunk_count() const { return chunks_.size(); }
  /// Modeled physical bytes of all live chunks (deduped at-rest footprint).
  uint64_t physical_bytes() const { return physical_bytes_; }
  /// Real payload bytes resident across live chunks.
  uint64_t payload_bytes() const { return payload_bytes_; }
  const ChunkStoreStats& stats() const { return stats_; }

  /// Backend key of a chunk record ("chunk/<seq>").
  static std::string record_key(uint64_t seq);

 private:
  // Ordered by digest so iteration (drop_unreferenced, debugging dumps) is
  // deterministic regardless of insertion order.
  using ChunkMap = std::map<common::Hash128, Chunk>;

  void persist(const common::Hash128& digest, const Chunk& chunk);
  /// Read one chunk record and install it at zero references.
  common::Status restore_record(std::string_view key);
  /// Drop a chunk, its byte accounting and its record.
  ChunkMap::iterator erase_chunk(ChunkMap::iterator it);

  ChunkMap chunks_;
  KvStore* backend_ = nullptr;
  uint64_t physical_bytes_ = 0;
  uint64_t payload_bytes_ = 0;
  uint64_t record_seq_ = 0;
  ChunkStoreStats stats_;
};

}  // namespace evostore::storage
