#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace evostore::obs {

namespace {

// JSON string escaping for metric names and (in trace.cc via the shared
// helper below) tag values. Names here are code-controlled ASCII, but the
// escaper is total so hostile input can never produce invalid JSON.
void append_json_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

std::string format_double(double v) {
  // Normalize negative zero and NaN so exports never depend on how a
  // platform happens to print them.
  if (std::isnan(v)) return "0";
  if (v == 0) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_json_escaped(out, s);
  return out;
}

int Histogram::bucket_of(double v) {
  // Callers guarantee v > 0 and finite.
  int exp = 0;
  double mant = std::frexp(v, &exp);  // mant in [0.5, 1)
  exp = std::clamp(exp, kMinExp, kMaxExp - 1);
  int sub = static_cast<int>((mant - 0.5) * 2 * kSubBuckets);
  sub = std::clamp(sub, 0, kSubBuckets - 1);
  return (exp - kMinExp) * kSubBuckets + sub;
}

double Histogram::bucket_lower(int b) {
  int exp = kMinExp + b / kSubBuckets;
  int sub = b % kSubBuckets;
  return std::ldexp(0.5 + static_cast<double>(sub) / (2.0 * kSubBuckets), exp);
}

double Histogram::bucket_upper(int b) { return bucket_lower(b + 1); }

void Histogram::add(double v) {
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  if (!std::isnan(v)) sum_ += v;
  if (!(v > 0) || !std::isfinite(v)) {
    ++underflow_;
    return;
  }
  if (buckets_.empty()) buckets_.assign(kBucketCount, 0);
  ++buckets_[static_cast<size_t>(bucket_of(v))];
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
  underflow_ += other.underflow_;
  if (other.buckets_.empty()) return;
  buckets_.resize(kBucketCount);
  for (size_t b = 0; b < buckets_.size(); ++b) buckets_[b] += other.buckets_[b];
}

Histogram::Parts Histogram::parts() const {
  Parts p{count_, sum_, min(), max(), underflow_, {}};
  for (uint32_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] != 0) p.buckets.emplace_back(b, buckets_[b]);
  }
  return p;
}

Histogram Histogram::from_parts(const Parts& p) {
  Histogram h;
  h.count_ = p.count;
  h.sum_ = p.sum;
  h.min_ = p.min;
  h.max_ = p.max;
  h.underflow_ = p.underflow;
  if (!p.buckets.empty()) h.buckets_.resize(kBucketCount);
  for (const auto& [b, n] : p.buckets) h.buckets_[b] = n;
  return h;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the requested quantile among `count_` samples, 1-based.
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  rank = std::clamp<uint64_t>(rank, 1, count_);
  if (rank <= underflow_) return min();
  uint64_t cum = underflow_;
  for (int b = 0; b < kBucketCount; ++b) {
    uint64_t n = buckets_.empty() ? 0 : buckets_[static_cast<size_t>(b)];
    if (n == 0) continue;
    if (cum + n >= rank) {
      // Interpolate linearly inside the bucket, then clamp to the observed
      // range so quantiles never exceed max() or undercut min().
      double frac =
          static_cast<double>(rank - cum) / static_cast<double>(n);
      double v = bucket_lower(b) + frac * (bucket_upper(b) - bucket_lower(b));
      return std::clamp(v, min_, max_);
    }
    cum += n;
  }
  return max();
}

HistogramSummary Histogram::summary() const {
  HistogramSummary s;
  s.count = count_;
  s.sum = sum_;
  s.min = min();
  s.max = max();
  s.p50 = quantile(0.5);
  s.p95 = quantile(0.95);
  s.p99 = quantile(0.99);
  return s;
}

Counter* MetricsRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), Counter{}).first;
  }
  return &it->second;
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), Gauge{}).first;
  }
  return &it->second;
}

Histogram* MetricsRegistry::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  }
  return &it->second;
}

std::vector<std::pair<std::string_view, const Histogram*>>
MetricsRegistry::histograms() const {
  std::vector<std::pair<std::string_view, const Histogram*>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) out.emplace_back(name, &hist);
  return out;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  std::string out;
  out += "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    append_json_escaped(out, name);
    out += "\": " + std::to_string(c.value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    append_json_escaped(out, name);
    out += "\": " + format_double(g.value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    HistogramSummary s = h.summary();
    out += "    \"";
    append_json_escaped(out, name);
    out += "\": {\"count\": " + std::to_string(s.count);
    out += ", \"sum\": " + format_double(s.sum);
    out += ", \"min\": " + format_double(s.min);
    out += ", \"max\": " + format_double(s.max);
    out += ", \"mean\": " + format_double(h.mean());
    out += ", \"p50\": " + format_double(s.p50);
    out += ", \"p95\": " + format_double(s.p95);
    out += ", \"p99\": " + format_double(s.p99);
    out += "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  os << out;
}

}  // namespace evostore::obs
