#!/usr/bin/env python3
"""Performance ledger: the standing benchmark before and after a change.

A performance claim counts only with before/after numbers in a committed
`BENCH_<label>.json` (ROADMAP.md), and every run made for the claim stays
in that file. This script adds one session of runs to it:

  1. extracts `--base` (any git revision) with tools/refactor_proof.py's
     `extract`;
  2. for every workload at seeds 1 and 1009, runs 3 pairs of untraced
     runs, alternating which side runs first; `--claim WORKLOAD:SEED:PAIRS`
     raises the pair count where a claim is judged. A run is the side's
     own `perfbench/run.py` (which builds its perfbench, Release) at the
     `run_seconds` BENCHMARK.json sets;
  3. runs each side once more per workload and seed with `--trace 1`, for
     the per-layer metrics;
  4. appends the session, with every run's JSON result line, exit code and
     trial fingerprint, to `BENCH_<label>.json` (created when missing; an
     existing one must name the same base). The session and the whole file
     are each summarized per workload and seed: each end-to-end metric's
     median and quartiles on both sides and the number of pairs the change
     won (ties count for neither side).

Usage (from anywhere inside the repository):
  python3 tools/bench_ledger.py --base <rev> --label <label> \\
      [--claim lcp_catalog:1:10] [--workdir DIR]
"""

import argparse
import json
import os
import statistics
import sys
import tempfile

from refactor_proof import (ROOT, SEEDS, TRIAL_RE, WORKLOADS, extract, git,
                            run_perfbench)

SIDES = ("base", "head")
PAIRS = 3  # per workload and seed, unless a --claim asks for more


def perfbench(src, workload, seed, seconds, trace):
    """One run: its JSON result line plus the exit code, the trial-0
    fingerprint (untraced runs print one) and the build line."""
    print(f"bench_ledger: {src} {workload} seed {seed} trace {trace}",
          file=sys.stderr)
    proc = run_perfbench(src, workload, seed, seconds, trace)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"bench_ledger: no result from {src} {workload} "
                         f"seed {seed} trace {trace}")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    for line in lines:
        m = TRIAL_RE.match(line)
        if m:
            result["fingerprint"] = m.group(2)
        elif line.startswith("build:"):
            result["build"] = line
    return result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs, end_to_end):
    """Per workload and seed, per end-to-end metric: both sides' spread and
    the change's wins."""
    cells = {}
    for p in pairs:
        cells.setdefault(f"{p['workload']} seed {p['seed']}", []).append(p)
    out = {}
    for cell, runs in cells.items():
        metrics = {}
        for metric in end_to_end:
            name, lower = metric["name"], metric["better"] == "lower"
            values = {side: [p[side]["metrics"][name]["value"] for p in runs]
                      for side in SIDES}
            wins = sum(1 for b, h in zip(values["base"], values["head"])
                       if (h < b if lower else h > b))
            base, head = spread(values["base"]), spread(values["head"])
            metrics[name] = {
                "better": metric["better"], "base": base, "head": head,
                "change_pct": (100.0 * (head["median"] / base["median"] - 1.0)
                               if base["median"] else None),
                "head_wins": wins,
            }
        out[cell] = {"pairs": len(runs), "metrics": metrics}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare to")
    ap.add_argument("--label", required=True,
                    help="names the output, BENCH_<label>.json")
    ap.add_argument("--claim", action="append", default=[],
                    metavar="WORKLOAD:SEED:PAIRS",
                    help="more pairs where a claim is judged (repeatable)")
    ap.add_argument("--workdir",
                    default=os.path.join(tempfile.gettempdir(),
                                         "evostore-bench-ledger"),
                    help="where the base is extracted and built")
    args = ap.parse_args()
    counts = {(w, s): PAIRS for w in WORKLOADS for s in SEEDS}
    for claim in args.claim:
        workload, seed, n = claim.split(":")
        if (workload, int(seed)) not in counts:
            ap.error(f"--claim {claim}: workloads are {', '.join(WORKLOADS)}"
                     f" and seeds {', '.join(map(str, SEEDS))}")
        counts[(workload, int(seed))] = max(PAIRS, int(n))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    seconds, end_to_end = benchmark["run_seconds"], benchmark["end_to_end"]
    base_rev = git("rev-parse", "--verify", args.base + "^{commit}")
    out = os.path.join(ROOT, f"BENCH_{args.label}.json")
    sessions = []
    if os.path.exists(out):
        with open(out) as f:
            ledger = json.load(f)
        if ledger["base"] != base_rev:
            print(f"bench_ledger: {out} compares against {ledger['base']}, "
                  f"not {base_rev}", file=sys.stderr)
            return 2
        sessions = ledger["sessions"]
    srcs = {"base": os.path.join(args.workdir, "base-src"), "head": ROOT}
    extract(base_rev, srcs["base"])

    def run(side, workload, seed, trace):
        return perfbench(srcs[side], workload, seed, seconds, trace)

    pairs, traced = [], []
    for (workload, seed), n in counts.items():
        for i in range(n):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"workload": workload, "seed": seed, "pair": i,
                    "first": order[0]}
            for side in order:
                pair[side] = run(side, workload, seed, 0)
            pairs.append(pair)
        traced.append({"workload": workload, "seed": seed,
                       **{side: run(side, workload, seed, 1)
                          for side in SIDES}})

    sessions.append({
        "head": f"working tree on {git('rev-parse', 'HEAD')}",
        "command": f"perfbench/run.py --seconds {seconds} --trace 0 (pairs), "
                   "--trace 1 (traced)",
        "summary": summarize(pairs, end_to_end),
        "pairs": pairs,
        "traced": traced,
    })
    ledger = {
        "label": args.label,
        "base": base_rev,
        "summary": summarize([p for s in sessions for p in s["pairs"]],
                             end_to_end),
        "sessions": sessions,
    }
    with open(out, "w") as f:
        json.dump(ledger, f, indent=1)
        f.write("\n")
    print(f"bench_ledger: wrote {out}", file=sys.stderr)
    failed = [p for p in pairs + traced
              if any(p[s]["exit_code"] for s in SIDES)]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
