// Cluster flight recorder: a bounded, sim-timestamped structured event log.
//
// Where metrics answer "how many" and spans answer "how long", the event
// log answers "what happened, in what order": replication and cache
// lifecycle transitions — write legs committed/exhausted, hinted handoffs
// parked/replayed/superseded, read failover hops, drain/repair progress,
// partition open/heal, cache validation outcomes, dedup hits, GC retires —
// each recorded as a stable event id plus key/value attributes.
//
// Design constraints mirror the metrics registry (obs/metrics.h):
//   1. Cheap when detached. Call sites hold an `EventLog*` (null when no
//      recorder is attached) and guard with one branch; `record` itself is
//      a bounded-ring append with no allocation beyond the attr strings.
//   2. Deterministic export. Events are exported sorted by content
//      (time, id, node, attrs), doubles print via `format_double`, and the
//      instrumented paths record nothing host-dependent — identical seeded
//      runs serialize to byte-identical JSON/CSV, and two logs fed the same
//      events in different orders export identically.
//   3. Pure recording. Like tracing, recording an event never touches the
//      simulation, the RNGs, or the wire: `--events-out` is safe under
//      `--verify` exactly like `--metrics-out` and `--trace-out`.
//
// The ring is bounded: once `capacity` events are held, each append evicts
// the OLDEST retained event (newest events always survive) and bumps the
// `dropped` count. Post-hoc invariant checking (obs/analyze.h) refuses
// truncated logs, so size the capacity to the run — the default holds every
// event the bench harnesses produce.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace evostore::obs {

/// One recorded event. `seq` is the lifetime append index (never reused, so
/// wraparound is observable); attrs keep insertion order.
struct EventRecord {
  uint64_t seq = 0;
  double time = 0;  // simulated seconds
  std::string id;   // stable event id, e.g. "hint.recorded"
  uint32_t node = 0;
  std::vector<std::pair<std::string, std::string>> attrs;
};

class EventLog {
 public:
  /// Generous default: a full ablation_faults sweep records a few thousand
  /// events; invariant checks need the log complete (dropped == 0).
  static constexpr size_t kDefaultCapacity = 1 << 16;

  using Attr = std::pair<std::string_view, std::string_view>;

  explicit EventLog(size_t capacity = kDefaultCapacity);

  /// Append one event. When the ring is full the oldest retained event is
  /// evicted (and counted in `dropped()`).
  void record(double time, std::string_view id, uint32_t node,
              std::initializer_list<Attr> attrs = {});

  /// Deterministic attr-value formatting helpers.
  static std::string u64(uint64_t v) { return std::to_string(v); }
  static std::string f64(double v);

  size_t capacity() const { return capacity_; }
  /// Events currently retained (<= capacity).
  size_t size() const;
  /// Lifetime append count (includes evicted events).
  uint64_t recorded() const { return recorded_; }
  /// Events evicted by wraparound.
  uint64_t dropped() const { return recorded_ - size(); }
  void clear();

  /// Retained events oldest-first (ascending seq).
  std::vector<const EventRecord*> snapshot() const;

  /// Deterministic JSON export:
  ///   {"capacity": N, "recorded": N, "dropped": N, "events": [
  ///       {"time": T, "id": "...", "node": N, "attrs": {...}}, ...]}
  /// Events sorted by (time, id, node, attrs); `seq` is intentionally
  /// omitted so the bytes depend only on WHAT was recorded, not the
  /// interleaving it was recorded in.
  void write_json(std::ostream& os) const;

  /// Deterministic CSV export (same sort): header `time,id,node,attrs`,
  /// attrs flattened to a quoted `k=v;k=v` field.
  void write_csv(std::ostream& os) const;

 private:
  std::vector<const EventRecord*> sorted_for_export() const;

  size_t capacity_;
  uint64_t recorded_ = 0;
  std::vector<EventRecord> ring_;  // slot = seq % capacity_
};

}  // namespace evostore::obs
