// Span-based tracing on the simulated clock.
//
// A `Tracer` records spans — named intervals of simulated time with a
// trace_id / span_id / parent_span_id triple — into a flat vector in begin
// order. Ids are sequential from a per-tracer counter, and timestamps come
// from `Simulation::now()`, so two runs of the same seeded scenario record
// byte-identical span tables: the trace file is a regression artifact, not
// just a debugging aid.
//
// There is deliberately no ambient ("current span") context: the simulation
// interleaves thousands of coroutines on one host thread, so thread-local
// context would attribute children to whichever coroutine last resumed.
// Instead a `TraceContext` is passed explicitly as a function parameter —
// across the simulated RPC too, where it travels beside the request, never
// inside it (see net/rpc.h). Tracing therefore adds no wire bytes: traced
// and untraced runs keep the same wire format and simulated timings.
//
// `Span` is a cheap RAII handle (tracer pointer + record index). A
// default-constructed or moved-from span is inert: every operation on it is
// a no-op, which is what lets instrumented code run unconditionally with a
// single null check hidden inside `Tracer::maybe_begin`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/simulation.h"

namespace evostore::obs {

/// What crosses process/coroutine boundaries. span_id 0 means "no parent".
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;

  bool valid() const { return span_id != 0; }
};

struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  std::string name;
  uint32_t node = 0;   // fabric NodeId where the span ran
  double start = 0;    // simulated seconds
  double end = -1;     // < start until the span ends
  std::vector<std::pair<std::string, std::string>> tags;

  bool complete() const { return end >= start; }
};

class Tracer;

class Span {
 public:
  Span() = default;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& o) noexcept : tracer_(o.tracer_), index_(o.index_) {
    o.tracer_ = nullptr;
  }
  Span& operator=(Span&& o) noexcept {
    if (this != &o) {
      end();
      tracer_ = o.tracer_;
      index_ = o.index_;
      o.tracer_ = nullptr;
    }
    return *this;
  }
  ~Span() { end(); }

  /// False for inert spans (no tracer attached / already ended).
  bool active() const { return tracer_ != nullptr; }

  /// Context to hand to children; invalid when inert.
  TraceContext context() const;

  void tag(std::string_view key, std::string_view value);
  void tag_u64(std::string_view key, uint64_t value);
  void tag_f64(std::string_view key, double value);

  /// Stamp the end time. Idempotent; the destructor calls it too.
  void end();

 private:
  friend class Tracer;
  Span(Tracer* tracer, size_t index) : tracer_(tracer), index_(index) {}

  Tracer* tracer_ = nullptr;
  size_t index_ = 0;
};

class Tracer {
 public:
  explicit Tracer(sim::Simulation& sim) : sim_(&sim) {}

  /// Begin a span. An invalid `parent` starts a new trace (trace_id =
  /// span_id of the root).
  Span begin(std::string name, uint32_t node, TraceContext parent = {});

  /// Null-safe begin: inert span when `tracer` is null. This is the form
  /// instrumented code uses so the untraced hot path costs one branch.
  static Span maybe_begin(Tracer* tracer, std::string name, uint32_t node,
                          TraceContext parent = {}) {
    if (tracer == nullptr) return Span{};
    return tracer->begin(std::move(name), node, parent);
  }

  const std::vector<SpanRecord>& records() const { return records_; }
  size_t complete_count() const;

  /// Chrome trace-event JSON ("X" complete events, ts/dur in microseconds
  /// of simulated time), loadable in Perfetto / chrome://tracing. Only
  /// complete spans are exported, in begin order; pid is the fabric node,
  /// tid the trace id, and args carry the span/parent ids plus tags.
  /// Deterministic: identical span tables serialize byte-identically.
  void write_chrome_trace(std::ostream& os) const;

 private:
  friend class Span;

  sim::Simulation* sim_;
  uint64_t next_id_ = 0;
  std::vector<SpanRecord> records_;
};

}  // namespace evostore::obs
