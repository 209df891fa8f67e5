// Fault-tolerance ablation: NAS completion under deterministic provider
// crash/restart cycles, message drops, deadlines, and retries.
//
// The paper's deployment story (§4.3: providers over restartable persistent
// backends) implies the search must ride through provider failures. This
// harness quantifies that: a seeded FaultInjector crashes provider
// processes on an MTBF/MTTR schedule while a full NAS run executes; clients
// retry with capped exponential backoff and idempotency tokens; crashed
// providers restore their catalogs, segments, refcounts, and dedup caches
// from their KV backends and resume serving.
//
// Reported per row: makespan vs. the fault-free baseline, crash/restart
// cycles actually hit, retries spent, responses replayed from the dedup
// cache, degraded (partial) LCP reduces — and the acceptance check: after
// retiring every surviving model, the repository must drain to EXACTLY the
// fault-free end state (zero models, zero segments, zero bytes), proving no
// reference count was ever leaked or double-applied.
//
// Beyond the MTBF matrix, three replication fault legs (DESIGN.md §15)
// exercise the k-way replica machinery end to end:
//   --kill-one-forever  provider 0 crashes with its backend WIPED (permanent
//                       loss), restarts empty 30 simulated seconds later, and
//                       anti-entropy repair rebuilds it from replica peers
//                       mid-run. The leg passes only if the cluster converges
//                       back to full k-way replication with a bit-identical
//                       client read-back and zero parked hints.
//   --drain             the last provider is drained out of the ring under
//                       ongoing traffic; its catalog must migrate to the
//                       successor replicas and the provider must end empty.
//   --partition         the kill-one-forever schedule plus a symmetric
//                       network partition islanding the recovering provider:
//                       its restart (and the hinted-handoff replay it
//                       triggers) happens INSIDE the partition, so replay
//                       traffic is held and re-delivered reordered after the
//                       heal. Proves handoff replay survives partitions.
//
// Flags: --gpus N        worker count            (default 128)
//        --candidates N  NAS candidate budget    (default 400)
//        --seed S        NAS + fault seed        (default 42)
//        --cache-mb N    per-client segment cache (0 = off). The cache must
//                        not change completion, the drain-to-zero end state,
//                        or --verify reproducibility — only wire traffic.
//        --replication K replica count override (0 = library default; 1
//                        restores the paper's single-owner placement — the
//                        replication legs above require K >= 2)
//        --kill-one-forever / --drain / --partition   enable the legs above
//        --legs-only     skip the MTBF matrix and run only the enabled legs.
//                        CI invariant runs use this so the exported event
//                        log covers exactly the orchestrated legs (the
//                        lossy matrix row may legitimately strand a parked
//                        hint when a drop interrupts the final replay,
//                        which the strict hint-balance invariant rejects).
//        --verify        run every fault config TWICE and compare digests
//                        (bit-identical reproducibility check)
//        --metrics-out FILE  JSON metrics snapshot over all fault configs
//        --events-out FILE   flight-recorder event log (JSON; a .csv path
//                            selects CSV). Like metrics, recording is pure
//                            memory append, so two verified reruns export
//                            byte-identical logs.
//        --trace-out FILE    Chrome trace of the first fault run (the tracer
//                            binds to the first run only). Spans are pure
//                            recording too, so under --verify the traced
//                            first run must still digest-match its untraced
//                            rerun.
#include <cinttypes>
#include <cstring>

#include "bench/nas_bench.h"
#include "common/hash.h"

using namespace evostore;
using bench::Approach;

namespace {

// Order- and content-sensitive digest of everything a rerun must reproduce.
uint64_t outcome_digest(const bench::NasOutcome& out) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](uint64_t v) { h = common::hash_combine(h, v); };
  uint64_t makespan_bits;
  static_assert(sizeof(makespan_bits) == sizeof(out.result.makespan));
  std::memcpy(&makespan_bits, &out.result.makespan, sizeof(makespan_bits));
  mix(makespan_bits);
  mix(out.result.traces.size());
  for (const auto& t : out.result.traces) {
    uint64_t finish_bits;
    std::memcpy(&finish_bits, &t.finish, sizeof(finish_bits));
    mix(finish_bits);
    mix(static_cast<uint64_t>(t.worker));
    mix(t.lcp_len);
  }
  mix(out.fault.crashes);
  mix(out.fault.restarts);
  mix(out.fault.retries);
  mix(out.fault.deduped_replays);
  mix(out.fault.end_models);
  mix(out.fault.end_segments);
  mix(static_cast<uint64_t>(out.fault.end_logical_bytes));
  mix(out.fault.read_failovers);
  mix(out.fault.hints_sent);
  mix(out.fault.hints_replayed);
  mix(out.fault.partitioned_messages);
  mix(static_cast<uint64_t>(out.fault.end_parked_hints));
  mix(static_cast<uint64_t>(out.fault.converged) |
      (static_cast<uint64_t>(out.fault.readback_ok) << 1) |
      (static_cast<uint64_t>(out.fault.repair_ok) << 2) |
      (static_cast<uint64_t>(out.fault.drain_ok) << 3));
  mix(out.fault.readback_digest);
  return h;
}

struct Row {
  const char* label;
  double mtbf;
  double mttr;
  double drop;
  int crash_providers;
};

}  // namespace

int main(int argc, char** argv) {
  int gpus = bench::arg_int(argc, argv, "--gpus", 128);
  size_t candidates = static_cast<size_t>(
      bench::arg_int(argc, argv, "--candidates", 400));
  uint64_t seed = static_cast<uint64_t>(bench::arg_int(argc, argv, "--seed", 42));
  int cache_mb = bench::arg_int(argc, argv, "--cache-mb", 0);
  size_t replication = static_cast<size_t>(
      bench::arg_int(argc, argv, "--replication", 0));
  bool leg_kill = bench::arg_flag(argc, argv, "--kill-one-forever");
  bool leg_drain = bench::arg_flag(argc, argv, "--drain");
  bool leg_partition = bench::arg_flag(argc, argv, "--partition");
  bool legs_only = bench::arg_flag(argc, argv, "--legs-only");
  bool verify = bench::arg_flag(argc, argv, "--verify");
  auto obs = bench::Observability::from_args(argc, argv);

  bench::print_header(
      "Fault ablation",
      "NAS completion under provider crashes, drops, retries, recovery");
  std::printf("%d GPUs, %zu candidates, seed %" PRIu64 ", cache %d MB%s\n\n",
              gpus, candidates, seed, cache_mb,
              verify ? " — VERIFY MODE (each config run twice)" : "");

  cache::CacheConfig cache_cfg;
  cache_cfg.capacity_bytes = static_cast<uint64_t>(cache_mb) << 20;

  // Fault-free reference: same workload, no injector at all.
  bench::RunOptions baseline_opts;
  baseline_opts.cache = cache_cfg;
  baseline_opts.replication = replication;
  auto baseline = bench::run_nas_approach(Approach::kEvoStore, gpus,
                                          candidates, seed, baseline_opts);
  std::printf("fault-free baseline: makespan %.1fs, %zu tasks, %zu retired\n\n",
              baseline.result.makespan, baseline.result.traces.size(),
              baseline.result.retired);

  const Row rows[] = {
      {"gentle   (mtbf 600s)", 600, 5, 0.0, 1},
      {"standard (mtbf 150s)", 150, 5, 0.0, 1},
      {"harsh    (mtbf  60s)", 60, 8, 0.0, 2},
      {"lossy    (+1% drops)", 150, 5, 0.01, 1},
  };

  bool all_ok = true;
  if (!legs_only) {
    std::printf("%-22s %10s %8s %8s %9s %8s %8s %7s %7s\n", "config",
                "makespan", "slowdown", "crashes", "restarts", "retries",
                "replays", "partial", "drain");
    for (const Row& row : rows) {
      bench::RunOptions opts;
      opts.cache = cache_cfg;
      opts.replication = replication;
      opts.fault_seed = seed;
      opts.fault_mtbf = row.mtbf;
      opts.fault_mttr = row.mttr;
      opts.fault_drop_probability = row.drop;
      opts.fault_crash_providers = row.crash_providers;
      if (obs.enabled()) opts.observability = &obs;
      auto out = bench::run_nas_approach(Approach::kEvoStore, gpus, candidates,
                                         seed, opts);
      bool row_ok = out.fault.drained_to_zero &&
                    out.fault.drain_failures == 0 &&
                    out.result.traces.size() == baseline.result.traces.size();
      if (verify) {
        // The rerun must be bit-identical to the first, so it gets the exact
        // same observability attachment (metrics and events only; tracing is
        // disabled above and neither perturbs simulated time).
        auto again = bench::run_nas_approach(Approach::kEvoStore, gpus,
                                             candidates, seed, opts);
        if (outcome_digest(again) != outcome_digest(out)) {
          std::printf("!! %s: NOT reproducible (digest mismatch)\n", row.label);
          row_ok = false;
        }
      }
      all_ok = all_ok && row_ok;
      std::printf("%-22s %9.1fs %7.2fx %8" PRIu64 " %9" PRIu64 " %8" PRIu64
                  " %8" PRIu64 " %7" PRIu64 " %7s\n",
                  row.label, out.result.makespan,
                  out.result.makespan / baseline.result.makespan,
                  out.fault.crashes, out.fault.restarts, out.fault.retries,
                  out.fault.deduped_replays, out.fault.partial_lcp_queries,
                  out.fault.drained_to_zero ? "zero" : "LEAK");
      if (out.fault.exhausted != 0) {
        std::printf("   !! %" PRIu64
                    " operations exhausted their retry budget\n",
                    out.fault.exhausted);
      }
    }
  }

  // --- Replication fault legs (DESIGN.md §15) -------------------------------
  // Each leg is a full NAS run with one orchestrated fault, triggered at a
  // fixed fraction of the fault-free makespan so the schedule is a pure
  // function of the flags (required for --verify digest matching).
  const double leg_t = 0.25 * baseline.result.makespan;
  auto reproducible = [&](const bench::RunOptions& opts,
                          const bench::NasOutcome& first) {
    if (!verify) return true;
    auto again = bench::run_nas_approach(Approach::kEvoStore, gpus, candidates,
                                         seed, opts);
    return outcome_digest(again) == outcome_digest(first);
  };
  auto print_leg = [&](const char* label, const bench::NasOutcome& out,
                       bool ok) {
    std::printf("%-22s %9.1fs %7.2fx failovers %" PRIu64 ", hints %" PRIu64
                "/%" PRIu64 " replayed, parked %zu, partitioned %" PRIu64
                " — %s\n",
                label, out.result.makespan,
                out.result.makespan / baseline.result.makespan,
                out.fault.read_failovers, out.fault.hints_sent,
                out.fault.hints_replayed, out.fault.end_parked_hints,
                out.fault.partitioned_messages, ok ? "ok" : "FAIL");
    if (!ok) {
      std::printf("   !! repair=%d drain=%d converged=%d readback=%d "
                  "exhausted=%" PRIu64 " drain_failures=%" PRIu64
                  " drained=%d traces=%zu/%zu\n",
                  out.fault.repair_ok ? 1 : 0, out.fault.drain_ok ? 1 : 0,
                  out.fault.converged ? 1 : 0, out.fault.readback_ok ? 1 : 0,
                  out.fault.exhausted, out.fault.drain_failures,
                  out.fault.drained_to_zero ? 1 : 0, out.result.traces.size(),
                  baseline.result.traces.size());
    }
  };
  if (leg_kill || leg_drain || leg_partition) {
    std::printf("\nreplication fault legs (trigger at t=%.1fs):\n", leg_t);
  }
  if (leg_kill) {
    bench::RunOptions opts;
    opts.cache = cache_cfg;
    opts.replication = replication;
    opts.fault_seed = seed;
    opts.fault_crash_providers = 0;  // only the orchestrated permanent kill
    opts.kill_forever_at = leg_t;
    if (obs.enabled()) opts.observability = &obs;
    auto out = bench::run_nas_approach(Approach::kEvoStore, gpus, candidates,
                                       seed, opts);
    // Acceptance: the wiped provider is rebuilt from its replica peers, the
    // cluster converges back to FULL k-way replication with bit-identical
    // envelopes, the client read-back succeeds for every surviving model,
    // no hint stays parked, and no operation surfaced an error.
    bool ok = out.fault.repair_ok && out.fault.converged &&
              out.fault.readback_ok && out.fault.end_parked_hints == 0 &&
              out.fault.exhausted == 0 && out.fault.drain_failures == 0 &&
              out.fault.drained_to_zero &&
              out.result.traces.size() == baseline.result.traces.size() &&
              reproducible(opts, out);
    print_leg("kill-one-forever", out, ok);
    all_ok = all_ok && ok;
  }
  if (leg_drain) {
    bench::RunOptions opts;
    opts.cache = cache_cfg;
    opts.replication = replication;
    opts.fault_seed = seed;
    opts.fault_crash_providers = 0;
    opts.drain_at = leg_t;
    if (obs.enabled()) opts.observability = &obs;
    auto out = bench::run_nas_approach(Approach::kEvoStore, gpus, candidates,
                                       seed, opts);
    // Acceptance: drain completed under ongoing traffic, the drained
    // provider ended empty and out of the ring, and the surviving replicas
    // hold every model at full replication.
    bool ok = out.fault.drain_ok && out.fault.converged &&
              out.fault.readback_ok && out.fault.end_parked_hints == 0 &&
              out.fault.exhausted == 0 && out.fault.drain_failures == 0 &&
              out.fault.drained_to_zero &&
              out.result.traces.size() == baseline.result.traces.size() &&
              reproducible(opts, out);
    print_leg("drain", out, ok);
    all_ok = all_ok && ok;
  }
  if (leg_partition) {
    // Kill-one-forever schedule plus a partition islanding the recovering
    // provider over [leg_t+20, leg_t+40): the restart at leg_t+30 lands
    // INSIDE the window, so the hinted-handoff replay it triggers is held by
    // the partition and re-delivered in seeded reordered order at the heal.
    bench::RunOptions opts;
    opts.cache = cache_cfg;
    opts.replication = replication;
    opts.fault_seed = seed;
    opts.fault_crash_providers = 0;
    opts.kill_forever_at = leg_t;
    opts.partition_at = leg_t + 20;
    opts.partition_duration = 20;
    if (obs.enabled()) opts.observability = &obs;
    auto out = bench::run_nas_approach(Approach::kEvoStore, gpus, candidates,
                                       seed, opts);
    bool ok = out.fault.partitioned_messages > 0 && out.fault.repair_ok &&
              out.fault.converged && out.fault.readback_ok &&
              out.fault.end_parked_hints == 0 && out.fault.exhausted == 0 &&
              out.fault.drain_failures == 0 && out.fault.drained_to_zero &&
              out.result.traces.size() == baseline.result.traces.size() &&
              reproducible(opts, out);
    print_leg("partition+handoff", out, ok);
    all_ok = all_ok && ok;
  }

  std::printf("\nchecks:\n");
  if (!legs_only) {
    std::printf("  - every fault config completed all %zu candidates\n",
                baseline.result.traces.size());
  }
  std::printf("  - post-run drain (retire survivors) reached the fault-free "
              "end state: zero models / segments / bytes\n");
  if (leg_kill) {
    std::printf("  - kill-one-forever: wiped provider rebuilt from replica "
                "peers; full k-way replication restored; read-back "
                "bit-identical; zero client-visible errors\n");
  }
  if (leg_drain) {
    std::printf("  - drain: catalog migrated to successor replicas under "
                "ongoing traffic; drained provider ended empty\n");
  }
  if (leg_partition) {
    std::printf("  - partition: hinted-handoff replay was held by the "
                "partition and survived the reordered heal\n");
  }
  if (verify) {
    std::printf("  - reruns with the same seed were bit-identical "
                "(trace times, fault counters, end state)\n");
  }
  obs.finish();
  std::printf("overall: %s\n", all_ok ? "PASS" : "FAIL");
  return all_ok ? 0 : 1;
}
