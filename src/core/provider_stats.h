// A provider's cumulative operation counters (core::Provider::stats()),
// declared once: the provider counts into this struct, GetStats carries it
// whole (wire::StatsResponse) and the cluster view sums it field by field.
#pragma once

#include <cstdint>
#include <tuple>

namespace evostore::core {

/// Cumulative: the counters survive restart() (they model external
/// monitoring).
struct ProviderStats {
  uint64_t puts = 0;
  uint64_t meta_gets = 0;
  uint64_t segment_reads = 0;
  uint64_t lcp_queries = 0;
  uint64_t lcp_models_scanned = 0;
  uint64_t lcp_vertex_visits = 0;
  uint64_t retires = 0;
  uint64_t refs_added = 0;
  uint64_t refs_removed = 0;
  uint64_t segments_freed = 0;
  uint64_t stat_gets = 0;
  /// Tokened requests answered from the dedup cache (retries that would
  /// have double-applied without idempotency).
  uint64_t deduped_replays = 0;
  /// Crash-recovery cycles this provider went through (restart() calls).
  uint64_t restarts = 0;
  /// Cumulative payload volume ingested by puts (logical = decoded tensor
  /// content, physical = post-compression envelope payload).
  uint64_t logical_bytes_ingested = 0;
  uint64_t physical_bytes_ingested = 0;
  // Cooperative cache + pin ledger (DESIGN.md §14).
  /// Validation handshakes answered with kNotModified (no payload moved).
  uint64_t not_modified_reads = 0;
  /// Reads answered with a kRedirect hint to a peer client's cache.
  uint64_t redirects_issued = 0;
  /// Transfer pins recorded in the durable pin ledger.
  uint64_t pins_recorded = 0;
  /// Stale-epoch pins reaped when a newer client incarnation appeared (the
  /// leaked pins of a client that crashed mid-transfer).
  uint64_t pins_reaped = 0;
  // Replication fault model (DESIGN.md §15).
  /// Hinted handoffs parked here for a down replica.
  uint64_t hints_recorded = 0;
  /// Hints replayed to their target after it recovered.
  uint64_t hints_replayed = 0;
  /// Hints discarded because a full repair push subsumed them.
  uint64_t hints_discarded = 0;
  /// Metadata records installed via evostore.replicate (repair/drain pushes).
  uint64_t replica_installed_models = 0;
  /// Segments installed via evostore.replicate.
  uint64_t replica_installed_segments = 0;
  /// Chunk bodies pulled from peers while installing replicated manifests.
  uint64_t replica_chunks_fetched = 0;
  /// Catalog entries this provider migrated away when drained.
  uint64_t drain_models_moved = 0;
  uint64_t drain_segments_moved = 0;
  // Catalog prefix index (DESIGN.md §16).
  /// LCP queries answered from the index without scanning the catalog.
  uint64_t lcp_index_answers = 0;
  /// Queries the index handed to the scan: an unclean query or catalog,
  /// several maximal found vertices, or a confirm-run mismatch.
  uint64_t lcp_index_fallback_scans = 0;
  /// Oracle disagreements seen under `lcp_index_verify` (should stay 0).
  uint64_t lcp_index_verify_mismatches = 0;

  friend bool operator==(const ProviderStats&, const ProviderStats&) = default;

  /// Every counter, in wire order (wire::StatsResponse carries the struct
  /// whole and merge_stats sums it member by member).
  static auto fields(auto& m) {
    return std::tie(
        m.puts, m.meta_gets, m.segment_reads, m.lcp_queries,
        m.lcp_models_scanned, m.lcp_vertex_visits, m.retires, m.refs_added,
        m.refs_removed, m.segments_freed, m.stat_gets, m.deduped_replays,
        m.restarts, m.logical_bytes_ingested, m.physical_bytes_ingested,
        m.not_modified_reads, m.redirects_issued, m.pins_recorded,
        m.pins_reaped, m.hints_recorded, m.hints_replayed, m.hints_discarded,
        m.replica_installed_models, m.replica_installed_segments,
        m.replica_chunks_fetched, m.drain_models_moved,
        m.drain_segments_moved, m.lcp_index_answers,
        m.lcp_index_fallback_scans, m.lcp_index_verify_mismatches);
  }
};

}  // namespace evostore::core
