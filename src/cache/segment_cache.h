// Client-local cooperative segment cache (DESIGN.md §14).
//
// A capacity-bounded cache of compressed segment envelopes keyed by
// SegmentKey (owner model, vertex). Hot NAS/fine-tune backbones are read
// thousands of times while their bytes never change, so a client that keeps
// the envelope locally can answer repeat reads without moving payload bytes
// — the provider only has to confirm the cached copy is still current.
//
// Correctness rests on provider-assigned versions, not on the cache itself:
// every stored segment carries the monotonic store sequence of the put that
// created it, and a cached entry is only served after the owning provider
// confirmed that version (`NotModified`) or within the configured trust
// window of such a confirmation. Retire/overwrite therefore can never
// resurrect stale bytes — a freed key answers NotFound (the client drops the
// entry), and a re-created key carries a strictly newer version (the
// provider ships fresh bytes).
//
// Eviction is second-chance (CLOCK): entries sit on a ring in insertion
// order; a hit sets the entry's reference bit; when the byte budget is
// exceeded the hand sweeps the ring, clearing reference bits and evicting
// the first entry found cold. This is the classic approximation of LRU with
// O(1) amortised work per insert and no per-hit list splicing.
//
// The cache is deterministic: it never consults wall clocks or RNGs, the
// ring order is a pure function of the insert/hit sequence, and timestamps
// are simulated seconds supplied by the caller — so faulted runs replay
// bit-identically (the `ablation_faults` drain-to-zero contract).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/types.h"
#include "compress/compressed_segment.h"
#include "obs/metrics.h"

namespace evostore::cache {

struct CacheConfig {
  /// Byte budget for cached envelopes (charged at physical_bytes). 0
  /// disables caching entirely — the client behaves exactly as before.
  uint64_t capacity_bytes = 0;
  /// How long (simulated seconds) a provider confirmation stays trusted:
  /// entries validated within this window are served with no RPC at all.
  /// 0 keeps strict validation — every read revalidates with the owning
  /// provider (a metadata round trip, but no payload bytes on a match).
  double trust_seconds = 0;
};

/// Event counters; also mirrored into a bound MetricsRegistry (see
/// `bind_metrics`) so benches export them via --metrics-out.
struct CacheStats {
  uint64_t hits = 0;           ///< served locally with no RPC (trusted)
  uint64_t misses = 0;         ///< not cached (or stale) — payload fetched
  uint64_t inserts = 0;
  uint64_t evictions = 0;      ///< CLOCK victim under byte pressure
  uint64_t invalidations = 0;  ///< dropped on retire / NotFound / mismatch
  uint64_t revalidations = 0;  ///< provider said NotModified; cached bytes
  uint64_t peer_hits = 0;      ///< redirect served by a peer cache
  uint64_t peer_misses = 0;    ///< redirect failed; fell back to provider
  uint64_t bytes_saved = 0;    ///< payload bytes not pulled from providers
};

class SegmentCache {
 public:
  explicit SegmentCache(CacheConfig config) : config_(config) {}

  struct Entry {
    compress::CompressedSegment envelope;  // always kInline
    uint64_t version = 0;       ///< provider store-sequence of the bytes
    double validated_at = 0;    ///< sim time of the last confirmation
  };

  /// Look up `key`, setting its CLOCK reference bit. Returns nullptr when
  /// absent. Does not touch counters — the caller decides whether this is
  /// a trusted hit, a revalidation, or a peer-serve.
  const Entry* lookup(const common::SegmentKey& key);

  /// Insert (or replace) an entry, evicting cold entries until the byte
  /// budget holds. Envelopes larger than the whole budget are not cached.
  void insert(const common::SegmentKey& key,
              compress::CompressedSegment envelope, uint64_t version,
              double now);

  /// Provider confirmed `version` is still current: refresh the trust
  /// timestamp and return true. A version mismatch (re-created key)
  /// invalidates the entry and returns false; so does a missing entry.
  bool revalidate(const common::SegmentKey& key, uint64_t version,
                  double now);

  /// Drop `key` if present (retire, NotFound, stale). Counts an
  /// invalidation only when something was actually dropped.
  void invalidate(const common::SegmentKey& key);

  void clear();

  /// True when the entry exists, matches `version`, and its confirmation is
  /// within `trust_seconds` of `now` — servable with no RPC.
  bool trusted(const Entry& e, double now) const {
    return now - e.validated_at <= config_.trust_seconds;
  }

  uint64_t charged_bytes() const { return charged_bytes_; }
  size_t entry_count() const { return ring_.size(); }
  const CacheConfig& config() const { return config_; }
  CacheStats& stats() { return stats_; }
  const CacheStats& stats() const { return stats_; }

  /// Mirror counters/gauges into `registry` under `prefix` (e.g.
  /// "client.cache"). Pointers are cached; pass the registry that outlives
  /// the cache. Several caches may bind the same registry — the counters
  /// then aggregate across clients, which is what cluster benches want.
  void bind_metrics(obs::MetricsRegistry* registry, const std::string& prefix);

  // Counting helpers (keep the registry mirror in sync). The client calls
  // these from its read path; internal events (insert/evict/invalidate) are
  // counted by the methods above.
  void count_hit(uint64_t bytes_saved);
  void count_miss();
  void count_revalidation(uint64_t bytes_saved);
  void count_peer_hit();
  void count_peer_miss();

 private:
  struct Slot {
    common::SegmentKey key;
    Entry entry;
    bool referenced = false;  // CLOCK second-chance bit
  };
  using Ring = std::list<Slot>;

  void evict_until_fits(uint64_t incoming_bytes);
  void erase_slot(Ring::iterator it);
  void set_bytes_gauge();

  CacheConfig config_;
  CacheStats stats_;
  uint64_t charged_bytes_ = 0;

  // CLOCK ring in insertion order; `hand_` is the sweep position. The map
  // indexes the ring by key. std::list keeps iterators stable across
  // insert/erase, so the hand survives unrelated mutations.
  Ring ring_;
  Ring::iterator hand_ = ring_.end();
  std::unordered_map<common::SegmentKey, Ring::iterator> index_;

  // Optional registry mirror (null until bind_metrics).
  obs::Counter* m_hits_ = nullptr;
  obs::Counter* m_misses_ = nullptr;
  obs::Counter* m_inserts_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
  obs::Counter* m_invalidations_ = nullptr;
  obs::Counter* m_revalidations_ = nullptr;
  obs::Counter* m_peer_hits_ = nullptr;
  obs::Counter* m_peer_misses_ = nullptr;
  obs::Counter* m_bytes_saved_ = nullptr;
  obs::Gauge* m_cached_bytes_ = nullptr;
};

}  // namespace evostore::cache
