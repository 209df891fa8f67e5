#!/usr/bin/env python3
"""Refactor proof: byte-identity of every deterministic artifact vs a base.

A refactor is proven when the ablations' output, their metrics, event and
trace exports, and the standing benchmark's simulated numbers are
byte-identical before and after (ROADMAP.md, "the same behaviour from the
least code"). This script checks exactly that:

  1. extracts `--base` (any git revision) with `git archive` and builds its
     bench targets; builds the same targets from the working tree;
  2. runs the CI invocations of ablation_faults (both, plus the traced leg),
     ablation_cache and ablation_dedup (with --metrics-out), ablation_lcp_index
     and fig5_lcp_queries (--trace-out, --metrics-out), plus an ablation_faults
     leg in the paper's single-replica configuration (`--replication 1`, with
     --events-out and --metrics-out), on both builds and compares each stdout
     and exported file byte for byte (`cmp`);
  3. runs perfbench (`--seconds 1 --trace 0`) for every workload at seeds 1
     and 1009 on both trees and compares the trial fingerprint, the op count
     and every `[sim]` metric line;
  4. runs perfbench `nas_evolve --trace 1` at the same seeds on both trees
     and compares every `[sim]` and `[count]` line. Its `kv.ops_per_op` and
     `kv.dead_byte_ratio` pin the stream of LogKv operations the providers
     issue, which the untraced fingerprint does not cover.

Prints one table row per artifact and exits non-zero on any difference or
failed run. Feature and performance changes alter these outputs on purpose;
a pure refactor must not.

Usage (from anywhere inside the repository):
  python3 tools/refactor_proof.py --base <rev> [--workdir DIR]
"""

import argparse
import filecmp
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TARGETS = ["ablation_faults", "ablation_cache", "ablation_dedup",
           "ablation_lcp_index", "fig5_lcp_queries"]

# The CI invocations (.github/workflows/ci.yml), plus `faults_k1`: the
# paper's single-replica configuration, which no CI leg runs. `{x}` names an
# exported file; each side writes it into its own run directory and the pair
# is compared. Paths stay relative to that directory, since the benches echo
# them.
_FAULT_LEGS = ["--gpus", "16", "--candidates", "40", "--verify", "--legs-only",
               "--kill-one-forever", "--drain", "--partition"]
LEGS = [
    ("faults_smoke", "ablation_faults",
     ["--gpus", "16", "--candidates", "40", "--verify", "--kill-one-forever",
      "--drain", "--partition"]),
    ("faults_recorder", "ablation_faults",
     _FAULT_LEGS + ["--events-out", "{events.json}",
                    "--metrics-out", "{metrics.json}"]),
    ("faults_traced", "ablation_faults",
     _FAULT_LEGS + ["--trace-out", "{trace.json}",
                    "--events-out", "{events.json}",
                    "--metrics-out", "{metrics.json}"]),
    ("faults_k1", "ablation_faults",
     ["--gpus", "16", "--candidates", "40", "--replication", "1", "--verify",
      "--events-out", "{events.json}", "--metrics-out", "{metrics.json}"]),
    ("cache", "ablation_cache",
     ["--gpus", "16", "--models", "4", "--repeats", "8", "--verify",
      "--events-out", "{events.json}", "--metrics-out", "{metrics.json}"]),
    ("dedup", "ablation_dedup",
     ["--gpus", "16", "--families", "12", "--children", "2", "--verify",
      "--metrics-out", "{metrics.json}"]),
    ("lcp_index", "ablation_lcp_index",
     ["--sizes", "500,2000,20000", "--cluster-max", "2000", "--queries", "32",
      "--verify"]),
    ("fig5", "fig5_lcp_queries",
     ["--catalog", "300", "--queries", "60", "--max-workers", "1",
      "--trace-out", "{trace.json}", "--metrics-out", "{metrics.json}"]),
]

WORKLOADS = ["nas_evolve", "lcp_catalog", "hub_zipf"]
SEEDS = [1, 1009]
# (workload, --trace) pairs compared at every seed.
PERFBENCH_RUNS = [(w, 0) for w in WORKLOADS] + [("nas_evolve", 1)]
TRIAL_RE = re.compile(r"^trial 0: .* (\d+) ops, fingerprint ([0-9a-f]+)$")


def run(cmd, cwd, stdout=sys.stderr):
    """Exit code of `cmd`; output goes to stderr unless redirected."""
    return subprocess.run(cmd, cwd=cwd, stdout=stdout, stderr=sys.stderr,
                          check=False).returncode


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev, dest):
    """Check `rev` out into `dest` (no worktree metadata left behind)."""
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    tar_path = dest + ".tar"
    subprocess.run(["git", "archive", "--format=tar", "-o", tar_path, rev],
                   cwd=ROOT, check=True)
    with tarfile.open(tar_path) as tar:
        tar.extractall(dest, filter="data")
    os.remove(tar_path)


def build(src, build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if run(["cmake", "-S", src, "-B", build_dir,
                "-DCMAKE_BUILD_TYPE=Release"], cwd=src):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                *TARGETS], cwd=src) == 0


def run_legs(build_dir, run_dir):
    """Run every leg; returns {artifact: path} plus the failed leg names."""
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    artifacts, failed = {}, []
    for name, binary, args in LEGS:
        argv = [os.path.join(build_dir, "bench", binary)]
        for a in args:
            m = re.fullmatch(r"\{(.+)\}", a)
            if m:
                a = f"{name}.{m.group(1)}"
                artifacts[f"{name} {m.group(1)}"] = os.path.join(run_dir, a)
            argv.append(a)
        out_path = os.path.join(run_dir, f"{name}.stdout")
        artifacts[f"{name} stdout"] = out_path
        print(f"refactor_proof: {' '.join(argv[1:])}  [{binary}]",
              file=sys.stderr)
        with open(out_path, "w") as out:
            if run(argv, cwd=run_dir, stdout=out):
                failed.append(name)
    return artifacts, failed


def run_perfbench(src, workload, seed, seconds, trace):
    """One run of the tree at `src`'s perfbench/run.py, which builds its
    perfbench first; stdout and stderr are captured."""
    cmd = [sys.executable, os.path.join(src, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=src, capture_output=True, text=True,
                          check=False)


def perfbench_digest(src, workload, seed, trace):
    """The trial-0 op count and fingerprint (printed by --trace 0 only) plus
    every [sim] and [count] line, or None when the run failed or printed
    no [sim] line."""
    proc = run_perfbench(src, workload, seed, 1, trace)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        return None
    lines = []
    for line in proc.stdout.splitlines():
        m = TRIAL_RE.match(line)
        if m:
            lines.append(f"ops {m.group(1)} fingerprint {m.group(2)}")
        elif "[sim]" in line or "[count]" in line:
            lines.append(line.strip())
    if not any("[sim]" in line for line in lines):
        return None  # nothing to compare
    return "\n".join(lines)


def verdict(ran, same):
    if not ran:
        return "RUN FAILED"
    return "identical" if same else "DIFFERENT"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare to")
    ap.add_argument("--workdir",
                    default=os.path.join(tempfile.gettempdir(),
                                         "evostore-refactor-proof"),
                    help="build and run directory (kept for inspection)")
    args = ap.parse_args()

    base_rev = git("rev-parse", "--verify", args.base + "^{commit}")
    base_src = os.path.join(args.workdir, "base-src")
    sides = {"base": base_src, "head": ROOT}
    extract(base_rev, base_src)

    artifacts, failed = {}, {}
    for side, src in sides.items():
        build_dir = os.path.join(args.workdir, f"{side}-build")
        if not build(src, build_dir):
            print(f"refactor_proof: {side} build failed", file=sys.stderr)
            return 2
        artifacts[side], failed[side] = run_legs(
            build_dir, os.path.join(args.workdir, f"{side}-run"))
    rows = []
    for key in artifacts["head"]:
        leg = key.split()[0]
        ran = leg not in failed["base"] and leg not in failed["head"]
        rows.append((key, verdict(ran, ran and filecmp.cmp(
            artifacts["base"][key], artifacts["head"][key], shallow=False))))
    for workload, trace in PERFBENCH_RUNS:
        for seed in SEEDS:
            base, head = (perfbench_digest(src, workload, seed, trace)
                          for src in sides.values())
            ran = base is not None and head is not None
            rows.append((f"perfbench {workload} --trace {trace} seed {seed}",
                         verdict(ran, base == head)))

    width = max(len(name) for name, _ in rows)
    vwidth = max(len(result) for _, result in rows)
    print(f"refactor proof: {args.base} ({base_rev[:12]}) vs working tree")
    print(f"| {'artifact':<{width}} | {'result':<{vwidth}} |")
    print(f"|{'-' * (width + 2)}|{'-' * (vwidth + 2)}|")
    for name, result in rows:
        print(f"| {name:<{width}} | {result:<{vwidth}} |")
    return 0 if all(v == "identical" for _, v in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
