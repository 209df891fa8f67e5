// Hot-path metrics: counters, gauges, and log-bucketed histograms.
//
// Design constraints, in order:
//   1. Cheap enough for the hot path. `Counter::add` is one integer add;
//      `Histogram::add` is a frexp + two integer ops. Call sites cache the
//      `Counter*`/`Histogram*` returned by the registry once (pointers are
//      stable — the registry stores node-based maps) and guard on nullptr,
//      so an unattached registry costs a single branch.
//   2. Deterministic export. Registries iterate in name order (std::map),
//      doubles print with fixed printf formats, and nothing host-dependent
//      (wall clocks, addresses, thread interleavings) is ever recorded by
//      the instrumented code paths — identical simulated runs therefore
//      serialize to byte-identical JSON.
//   3. No dependency on the simulation. Values are whatever the caller
//      feeds in (sim-time durations, byte counts); this header needs only
//      the standard library, so leaf modules (storage, compress) can link
//      it without pulling in the DES.
//
// Not thread-safe: in this codebase metrics are fed from the single-threaded
// simulation loop. Attach registries before concurrent host-side use.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

namespace evostore::obs {

class Counter {
 public:
  void add(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double v) { value_ += v; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// The fixed-size digest of a histogram that lands in JSON snapshots.
/// Quantiles are bucket-interpolated, so two histograms fed the same values
/// in any order produce the same summary.
struct HistogramSummary {
  uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

/// Log-bucketed histogram for latencies (seconds) and sizes (bytes).
//
// Buckets: each power-of-two octave of the value range splits into
// `kSubBuckets` linear sub-buckets (relative resolution 1/kSubBuckets ≈
// 12.5%), over binary exponents [kMinExp, kMaxExp). That covers ~1e-13
// through ~1e15 — every latency and byte count this simulator produces —
// in a few KB of flat storage with no allocation on `add`.
//
// Values <= 0 (and NaN) land in a dedicated underflow bucket; quantile
// resolution for them collapses to `min()`, which is exact enough for the
// "how many zero-length ops" questions they answer.
class Histogram {
 public:
  static constexpr int kSubBuckets = 8;
  static constexpr int kMinExp = -44;  // frexp exponent; 2^-45 ~ 2.8e-14
  static constexpr int kMaxExp = 51;   // 2^50 ~ 1.1e15
  static constexpr int kBucketCount = (kMaxExp - kMinExp) * kSubBuckets;

  /// A histogram's whole state, as it travels (wire::StatsResponse): the
  /// values <= 0 or NaN in `underflow`, and every non-empty bucket as its
  /// (index, count) pair, in ascending index order.
  struct Parts {
    uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    uint64_t underflow = 0;
    std::vector<std::pair<uint32_t, uint64_t>> buckets;

    friend bool operator==(const Parts&, const Parts&) = default;
    static auto fields(auto& m) {
      return std::tie(m.count, m.sum, m.min, m.max, m.underflow, m.buckets);
    }
  };

  void add(double v);
  /// Fold `other` in. Afterwards this histogram equals one fed both value
  /// streams, this one's first: count, min, max, underflow, buckets and so
  /// every quantile bit for bit, the sum up to rounding.
  void merge(const Histogram& other);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ > 0 ? min_ : 0; }
  double max() const { return count_ > 0 ? max_ : 0; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0;
  }

  /// Bucket-interpolated quantile; q is clamped into [0, 1]. Empty
  /// histogram -> 0.
  double quantile(double q) const;

  HistogramSummary summary() const;

  Parts parts() const;
  /// The histogram that holds `p`. The caller has checked `p`: every index
  /// below kBucketCount, and the underflow and bucket counts adding up to
  /// the count.
  static Histogram from_parts(const Parts& p);

 private:
  static int bucket_of(double v);
  static double bucket_lower(int b);
  static double bucket_upper(int b);

  uint64_t count_ = 0;
  uint64_t underflow_ = 0;  // v <= 0 or NaN
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
  std::vector<uint64_t> buckets_;  // allocated on first positive add
};

/// Named metric families. Lookup is by full name ("rpc.call_seconds");
/// returned pointers stay valid for the registry's lifetime, so hot paths
/// resolve once and cache.
class MetricsRegistry {
 public:
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name);

  /// Histograms in name order (a provider's GetStats export).
  std::vector<std::pair<std::string_view, const Histogram*>> histograms()
      const;

  /// Deterministic JSON snapshot:
  ///   {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,min,
  ///    max,mean,p50,p95,p99},...}}
  /// Name-ordered, fixed number formatting — byte-identical across runs
  /// that recorded identical values.
  void write_json(std::ostream& os) const;

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// Fixed, locale-independent-enough formatting for exported doubles: %.17g
/// round-trips exactly and prints identically for identical bit patterns.
std::string format_double(double v);

/// Total JSON string escaping (quotes, backslashes, control chars).
std::string json_escape(std::string_view s);

}  // namespace evostore::obs
