// perfbench: the standing benchmark's driver.
//
//   perfbench --workload <nas_evolve|lcp_catalog|hub_zipf> --seed N
//             --seconds S --trace <0|1> [--scratch DIR]
//
// --trace 0 repeats the workload's trial (set-up + timed phase + checks)
// for the same seed until S host seconds have passed (at least twice),
// requires every simulated value to repeat bit-identically, and prints the
// end-to-end metrics: simulated ones from the trials (identical by
// construction), host ones as the median over trials.
// --trace 1 runs one untraced and one traced trial and prints the
// per-layer metrics (tracer, KV decorators and layer replays attached).
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is non-zero when any op failed, any correctness check
// mismatched, or the determinism self-check found a difference.
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"

using namespace perfbench;  // NOLINT(google-build-using-namespace)

namespace {

/// Seed used while the benchmark was written, and a held-out seed for
/// checking a later claim on inputs nobody tuned against.
constexpr uint64_t kDefaultSeed = 1;
constexpr uint64_t kHeldOutSeed = 1009;

struct Metric {
  const char* name;
  const char* unit;
  const char* clock;  // "sim", "host" or "count"
};

// End-to-end metrics (BENCHMARK.json `end_to_end`), in output order.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s", "host"},
    {"host_ops_per_cpu_s", "ops/s", "host"},
    {"peak_rss_mb", "MiB", "host"},
    {"sim_ops_per_s", "ops/s", "sim"},
    {"wire_bytes_per_op", "B", "sim"},
    {"stored_bytes_per_logical_byte", "ratio", "sim"},
    {"sim_put_p50_us", "us", "sim"},
    {"sim_put_p99_us", "us", "sim"},
    {"sim_transfer_p50_us", "us", "sim"},
    {"sim_transfer_p99_us", "us", "sim"},
    {"sim_read_p50_us", "us", "sim"},
    {"sim_read_p99_us", "us", "sim"},
    {"sim_lcp_p50_us", "us", "sim"},
    {"sim_lcp_p99_us", "us", "sim"},
    {"sim_retire_p99_us", "us", "sim"},
};

// Per-layer metrics (BENCHMARK.json `per_layer`), in output order.
constexpr Metric kPerLayer[] = {
    {"sim.events_per_op", "count", "count"},
    {"sim.events_per_cpu_s", "1/s", "host"},
    {"rpc.calls_per_op", "count", "count"},
    {"rpc.request_bytes_per_op", "B", "count"},
    {"rpc.response_bytes_per_op", "B", "count"},
    {"rpc.bulk_bytes_per_op", "B", "count"},
    {"rpc.call_p50_us", "us", "sim"},
    {"rpc.call_p99_us", "us", "sim"},
    {"fabric.transfer_p99_us", "us", "sim"},
    {"client.put_cpu_us", "us", "host"},
    {"client.transfer_cpu_us", "us", "host"},
    {"client.read_cpu_us", "us", "host"},
    {"client.lcp_cpu_us", "us", "host"},
    {"client.retire_cpu_us", "us", "host"},
    {"client.retries", "count", "count"},
    {"client.read_failovers", "count", "count"},
    {"provider.put_p50_us", "us", "sim"},
    {"provider.put_p99_us", "us", "sim"},
    {"provider.read_p50_us", "us", "sim"},
    {"provider.read_p99_us", "us", "sim"},
    {"provider.lcp_p50_us", "us", "sim"},
    {"provider.lcp_p99_us", "us", "sim"},
    {"provider.refs_p99_us", "us", "sim"},
    {"lcp.models_scanned_per_query", "count", "count"},
    {"lcp.vertex_visits_per_query", "count", "count"},
    {"lcp.scan_cpu_ns_per_model", "ns", "host"},
    {"prefix_index.answer_ratio", "ratio", "count"},
    {"prefix_index.lookup_cpu_ns", "ns", "host"},
    {"prefix_index.bytes", "B", "count"},
    {"wire.lcp_query_serde_ns_per_kib", "ns/KiB", "host"},
    {"wire.put_model_serde_ns_per_kib", "ns/KiB", "host"},
    {"wire.read_segments_serde_ns_per_kib", "ns/KiB", "host"},
    {"codec.encode_cpu_us", "us", "host"},
    {"codec.decode_cpu_us", "us", "host"},
    {"codec.physical_per_logical", "ratio", "count"},
    {"codec.fallback_ratio", "ratio", "count"},
    {"chunk.dedup_hit_ratio", "ratio", "count"},
    {"cache.hit_ratio", "ratio", "count"},
    {"cache.evictions_per_read", "count", "count"},
    {"cache.bytes_saved_per_read", "B", "count"},
    {"cache.lookup_cpu_ns", "ns", "host"},
    {"kv.ops_per_op", "count", "count"},
    {"kv.put_cpu_ns", "ns", "host"},
    {"kv.get_cpu_ns", "ns", "host"},
    {"kv.erase_cpu_ns", "ns", "host"},
    {"kv.dead_byte_ratio", "ratio", "count"},
    {"trace.sim_overhead_pct", "%", "sim"},
    {"trace.cpu_overhead_pct", "%", "host"},
    {"span.attempt.self_p50_us", "us", "sim"},
    {"span.attempt.self_p99_us", "us", "sim"},
    {"span.rpc.self_p50_us", "us", "sim"},
    {"span.rpc.self_p99_us", "us", "sim"},
    {"span.serve.self_p50_us", "us", "sim"},
    {"span.serve.self_p99_us", "us", "sim"},
    {"span.segment_write.self_p50_us", "us", "sim"},
    {"span.segment_write.self_p99_us", "us", "sim"},
    {"span.segment_read.self_p50_us", "us", "sim"},
    {"span.segment_read.self_p99_us", "us", "sim"},
    {"span.kv_commit.self_p50_us", "us", "sim"},
    {"span.kv_commit.self_p99_us", "us", "sim"},
    {"span.encode.self_p50_us", "us", "sim"},
    {"span.encode.self_p99_us", "us", "sim"},
    {"span.decode.self_p50_us", "us", "sim"},
    {"span.decode.self_p99_us", "us", "sim"},
    {"span.lcp_leg.self_p50_us", "us", "sim"},
    {"span.lcp_leg.self_p99_us", "us", "sim"},
    {"span.lcp_scan.self_p50_us", "us", "sim"},
    {"span.lcp_scan.self_p99_us", "us", "sim"},
    {"span.lcp_index.self_p50_us", "us", "sim"},
    {"span.lcp_index.self_p99_us", "us", "sim"},
    {"span.modify_refs.self_p50_us", "us", "sim"},
    {"span.modify_refs.self_p99_us", "us", "sim"},
    {"span.peer_read.self_p50_us", "us", "sim"},
    {"span.peer_read.self_p99_us", "us", "sim"},
};

const char* arg(int argc, char** argv, const char* flag, const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

bool parse_u64(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (*end != '\0') return false;
  *out = v;
  return true;
}

/// Refuses results from builds whose numbers would mislead: unoptimized,
/// assertion-enabled, or sanitized. Returns an empty string when valid.
std::string build_problem() {
  std::string type = PERFBENCH_BUILD_TYPE;
  std::string flags = PERFBENCH_CXX_FLAGS;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type '" + type + "' is not optimized";
  }
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG not defined)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
  if (flags.find("-fsanitize") != std::string::npos ||
      flags.find("-O0") != std::string::npos) {
    return "CMAKE_CXX_FLAGS '" + flags + "' sanitize or disable optimization";
  }
  return "";
}

double q_us(Trial& t, Op op, double q) {
  return t.lat[static_cast<int>(op)].quantile(q) * 1e6;
}

void print_json(bool correct, uint64_t attempted, uint64_t failed,
                const Metric* metrics, size_t n,
                const std::map<std::string, double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < n; ++i) {
    auto it = values.find(metrics[i].name);
    double v = it == values.end() || !std::isfinite(it->second) ? 0.0
                                                                 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name, v, metrics[i].unit);
  }
  std::printf("}}\n");
}

void print_table(const Metric* metrics, size_t n,
                 const std::map<std::string, double>& values,
                 const std::map<std::string, std::string>& notes) {
  for (size_t i = 0; i < n; ++i) {
    auto it = values.find(metrics[i].name);
    auto note = notes.find(metrics[i].name);
    std::printf("  %-38s %16.6g %-7s [%s]%s%s\n", metrics[i].name,
                it == values.end() ? 0.0 : it->second, metrics[i].unit,
                metrics[i].clock, note == notes.end() ? "" : "  ",
                note == notes.end() ? "" : note->second.c_str());
  }
}

int run_end_to_end(Trial (*run)(uint64_t, bool), uint64_t seed,
                   double seconds) {
  std::vector<Trial> trials;
  double start = wall_seconds();
  do {
    trials.push_back(run(seed, false));
    std::printf("trial %zu: setup %.6f s cpu, timed phase %.3f s cpu, "
                "%" PRIu64 " ops, fingerprint %s\n",
                trials.size() - 1, trials.back().host_setup_s,
                trials.back().host_timed_cpu_s, trials.back().ops,
                trials.back().fingerprint.hex().c_str());
    std::fflush(stdout);
  } while (trials.size() < 2 ||
           (wall_seconds() - start < seconds && trials.size() < 64));

  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  for (size_t k = 0; k < trials.size(); ++k) {
    attempted += trials[k].ops;
    failed += trials[k].failed;
    for (const std::string& e : trials[k].errors) {
      std::printf("FAILURE (trial %zu): %s\n", k, e.c_str());
    }
    if (trials[k].fingerprint != trials[0].fingerprint) {
      std::printf("FAILURE: determinism self-check: trial %zu's simulated "
                  "values differ from trial 0's\n", k);
      correct = false;
      ++failed;
    }
  }
  if (failed > 0) correct = false;

  Trial& t = trials[0];
  for (const std::string& n : t.notes) std::printf("%s\n", n.c_str());
  std::vector<double> setup, rate;
  for (const Trial& k : trials) {
    setup.push_back(k.host_setup_s);
    rate.push_back(static_cast<double>(k.ops) / k.host_timed_cpu_s);
  }
  double ops = static_cast<double>(std::max<uint64_t>(1, t.ops));
  std::map<std::string, double> v;
  v["setup_s"] = median(setup);
  v["host_ops_per_cpu_s"] = median(rate);
  v["peak_rss_mb"] = peak_rss_mb();
  v["sim_ops_per_s"] = t.sim_seconds > 0 ? ops / t.sim_seconds : 0;
  v["wire_bytes_per_op"] =
      (t.rpc.request_bytes + t.rpc.response_bytes + t.rpc.bulk_bytes) / ops;
  v["stored_bytes_per_logical_byte"] =
      t.stored_logical > 0 ? t.stored_physical / t.stored_logical : 0;
  v["sim_put_p50_us"] = q_us(t, Op::kPut, 0.5);
  v["sim_put_p99_us"] = q_us(t, Op::kPut, 0.99);
  v["sim_transfer_p50_us"] = q_us(t, Op::kTransfer, 0.5);
  v["sim_transfer_p99_us"] = q_us(t, Op::kTransfer, 0.99);
  v["sim_read_p50_us"] = q_us(t, Op::kRead, 0.5);
  v["sim_read_p99_us"] = q_us(t, Op::kRead, 0.99);
  v["sim_lcp_p50_us"] = t.lcp.p50 * 1e6;
  v["sim_lcp_p99_us"] = t.lcp.p99 * 1e6;
  v["sim_retire_p99_us"] = q_us(t, Op::kRetire, 0.99);

  std::map<std::string, std::string> notes;
  auto samples = [&](Op op, const char* p50, const char* p99) {
    size_t n = op == Op::kLcp ? t.lcp.count
                              : t.lat[static_cast<int>(op)].count();
    std::string s = "n=" + std::to_string(n) + " per trial";
    if (p50 != nullptr) notes[p50] = s;
    if (p99 != nullptr) {
      notes[p99] = n >= 1000 ? s : s + " (below 1000: tail is coarse)";
    }
  };
  samples(Op::kPut, "sim_put_p50_us", "sim_put_p99_us");
  samples(Op::kTransfer, "sim_transfer_p50_us", "sim_transfer_p99_us");
  samples(Op::kRead, "sim_read_p50_us", "sim_read_p99_us");
  samples(Op::kLcp, "sim_lcp_p50_us", "sim_lcp_p99_us");
  samples(Op::kRetire, nullptr, "sim_retire_p99_us");
  notes["setup_s"] = "median of " + std::to_string(trials.size()) + " set-ups";
  notes["host_ops_per_cpu_s"] =
      "median of " + std::to_string(trials.size()) + " timed phases";
  char er[96];
  std::snprintf(er, sizeof(er), "error_rate %.6g (%" PRIu64 "/%" PRIu64 ")",
                static_cast<double>(failed) /
                    static_cast<double>(std::max<uint64_t>(1, attempted)),
                failed, attempted);
  std::printf("%s; simulated %.6g s per timed phase; %zu trials, %s\n", er,
              t.sim_seconds, trials.size(),
              correct ? "all simulated values bit-identical"
                      : "SEE FAILURES ABOVE");
  print_table(kEndToEnd, std::size(kEndToEnd), v, notes);
  print_json(correct, attempted, failed, kEndToEnd, std::size(kEndToEnd), v);
  return correct ? 0 : 1;
}

int run_traced(Trial (*run)(uint64_t, bool), uint64_t seed) {
  Trial plain = run(seed, false);
  Trial traced = run(seed, true);
  for (const std::string& n : traced.notes) std::printf("%s\n", n.c_str());
  uint64_t attempted = plain.ops + traced.ops;
  uint64_t failed = plain.failed + traced.failed;
  for (const std::string& e : plain.errors) std::printf("FAILURE: %s\n", e.c_str());
  for (const std::string& e : traced.errors) std::printf("FAILURE: %s\n", e.c_str());

  std::map<std::string, double> v = traced.layer;
  double ops = static_cast<double>(std::max<uint64_t>(1, plain.ops));
  v["sim.events_per_op"] = static_cast<double>(plain.steps) / ops;
  v["sim.events_per_cpu_s"] =
      static_cast<double>(plain.steps) / plain.host_timed_cpu_s;
  v["rpc.calls_per_op"] = static_cast<double>(plain.rpc.calls) / ops;
  v["rpc.request_bytes_per_op"] = plain.rpc.request_bytes / ops;
  v["rpc.response_bytes_per_op"] = plain.rpc.response_bytes / ops;
  v["rpc.bulk_bytes_per_op"] = plain.rpc.bulk_bytes / ops;
  v["rpc.call_p50_us"] = plain.rpc_call.p50 * 1e6;
  v["rpc.call_p99_us"] = plain.rpc_call.p99 * 1e6;
  v["fabric.transfer_p99_us"] = plain.fabric_transfer.p99 * 1e6;
  double base_lat = plain.total_latency();
  v["trace.sim_overhead_pct"] =
      base_lat > 0 ? 100.0 * (traced.total_latency() - base_lat) / base_lat : 0;
  v["trace.cpu_overhead_pct"] =
      100.0 * (traced.host_timed_cpu_s - plain.host_timed_cpu_s) /
      plain.host_timed_cpu_s;

  std::map<std::string, std::string> notes;
  std::string absent;
  for (const Metric& m : kPerLayer) {
    if (v.find(m.name) == v.end()) {
      notes[m.name] = "dropped: not produced";
      absent += std::string(absent.empty() ? "" : ", ") + m.name;
    }
  }
  std::printf("per-layer metrics (one untraced + one traced trial; replays "
              "on inputs recorded from the traced trial)%s%s\n",
              absent.empty() ? "" : "; missing: ", absent.c_str());
  print_table(kPerLayer, std::size(kPerLayer), v, notes);
  bool correct = failed == 0;
  print_json(correct, attempted, failed, kPerLayer, std::size(kPerLayer), v);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload = arg(argc, argv, "--workload", "");
  uint64_t seed = 0, seconds = 0, trace = 0;
  if (!parse_u64(arg(argc, argv, "--seed", "1"), &seed) ||
      !parse_u64(arg(argc, argv, "--seconds", "10"), &seconds) ||
      !parse_u64(arg(argc, argv, "--trace", "0"), &trace) || trace > 1) {
    std::fprintf(stderr, "usage: perfbench --workload W --seed N --seconds S "
                         "--trace 0|1 [--scratch DIR]\n");
    return 2;
  }
  Trial (*run)(uint64_t, bool) = nullptr;
  if (workload == "nas_evolve") run = run_nas_evolve;
  if (workload == "lcp_catalog") run = run_lcp_catalog;
  if (workload == "hub_zipf") run = run_hub_zipf;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (nas_evolve, lcp_catalog, "
                         "hub_zipf)\n", workload.c_str());
    return 2;
  }
  std::string problem = build_problem();
  if (!problem.empty()) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n",
                 problem.c_str());
    return 3;
  }
  ScratchDir::set_root(arg(argc, argv, "--scratch",
                           ".bench_build/perfbench-scratch"));
  std::printf("perfbench %s seed %" PRIu64 " (default seed %" PRIu64
              ", held-out seed %" PRIu64 ") seconds %" PRIu64 " trace %" PRIu64
              "\n",
              workload.c_str(), seed, kDefaultSeed, kHeldOutSeed, seconds,
              trace);
  std::printf("build: %s, %s, flags '%s'; host nproc %ld\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, PERFBENCH_CXX_FLAGS,
              sysconf(_SC_NPROCESSORS_ONLN));
  std::fflush(stdout);
  return trace == 1 ? run_traced(run, seed)
                    : run_end_to_end(run, seed, static_cast<double>(seconds));
}
