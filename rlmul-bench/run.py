#!/usr/bin/env python3
"""rlmul-bench: end-to-end search benchmark of the RL-MUL reproduction.

Builds the benchmark binary (CMake, from ../src) and runs workloads.

  python3 rlmul-bench/run.py --workload sa_tree16 --seed 1 --seconds 15 --trace 0
  python3 rlmul-bench/run.py --workload all --seed 1 --seconds 15
  python3 rlmul-bench/run.py --knobs --seed 1 --seconds 15
  python3 rlmul-bench/run.py --summarize

A single-workload run prints the binary's report; its last stdout line is
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. The exit code is non-zero
when the build fails or any correctness check fails. Each run also
writes a detailed result to <build>/results/<workload>/ and, when
traced, a Chrome trace to <build>/traces/. See README.md beside this
file for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["sa_tree16", "dqn_tree16", "sa_joint16", "serve_mix16"]
RUN_TIMEOUT_S = 170

# The A/B environment switches and the workloads whose pipeline each
# one changes (knob report mode; never part of the gated runs).
KNOBS = [
    ("RLMUL_BATCH_EVAL", "0", ["sa_tree16", "dqn_tree16", "serve_mix16"]),
    ("RLMUL_DELTA_EVAL", "0", ["sa_tree16", "sa_joint16", "serve_mix16"]),
    ("RLMUL_FASTPATH", "0", ["sa_tree16", "sa_joint16"]),
    ("RLMUL_GEMM", "naive", ["dqn_tree16", "serve_mix16"]),
]


def build_dir() -> Path:
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def build() -> Path:
    """Configures (once) and builds the binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("rlmul-bench: library sources (src/) not found next to "
            "rlmul-bench/; nothing to build")
        sys.exit(1)
    out = build_dir() / "rlmul-bench"
    out.mkdir(parents=True, exist_ok=True)
    logfile = out / "build.log"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(logfile, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                f.flush()
                log(Path(logfile).read_text()[-4000:])
                log("rlmul-bench: build failed (log: %s)" % logfile)
                sys.exit(1)
    return out / "rlmul_bench"


def run_workload(binary: Path, workload: str, seed: int, seconds: int,
                 trace: int, env=None, tag: str = ""):
    """Runs one workload process; returns (exit code, stdout lines)."""
    base = build_dir()
    results = base / "results" / workload
    traces = base / "traces"
    work = base / "work"
    for d in (results, traces, work):
        d.mkdir(parents=True, exist_ok=True)
    name = "seed%d-trace%d%s" % (seed, trace, tag)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(results / (name + ".json")),
           "--trace-file", str(traces / ("%s-%s.json" % (workload, name))),
           "--work-dir", str(work)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S,
                              env=dict(os.environ, **(env or {})))
    except subprocess.TimeoutExpired:
        log("rlmul-bench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def last_json(lines):
    for line in reversed(lines):
        if line.startswith("{"):
            return json.loads(line)
    return None


def cmd_single(binary: Path, args) -> int:
    code, lines = run_workload(binary, args.workload, args.seed,
                               args.seconds, args.trace)
    for line in lines:
        print(line)
    sys.stdout.flush()
    return code


def cmd_all(binary: Path, args) -> int:
    """Every workload, each in its own process; one table, one verdict."""
    worst = 0
    results = {}
    for wl in WORKLOADS:
        log("rlmul-bench: running %s" % wl)
        code, lines = run_workload(binary, wl, args.seed, args.seconds,
                                   args.trace)
        worst = worst or code
        res = last_json(lines)
        if res is None:
            worst = worst or 1
            continue
        results[wl] = res
        for line in lines:
            if line.startswith("FAILED"):
                print("%s: %s" % (wl, line))
    names = []
    for res in results.values():
        for n in res["metrics"]:
            if n not in names:
                names.append(n)
    print("%-28s %-8s" % ("metric", "unit") +
          "".join("%16s" % wl for wl in results))
    for n in names:
        unit = next(r["metrics"][n]["unit"] for r in results.values()
                    if n in r["metrics"])
        row = "".join("%16.6g" % r["metrics"][n]["value"] if n in r["metrics"]
                      else "%16s" % "-" for r in results.values())
        print("%-28s %-8s%s" % (n, unit, row))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print("%-28s %-8s" % ("failed/attempted", "") +
          "".join("%16s" % ("%d/%d" % (r["failed"], r["attempted"]))
                  for r in results.values()))
    metrics = {"%s.%s" % (wl, n): m for wl, r in results.items()
               for n, m in r["metrics"].items()}
    print(json.dumps({"correct": worst == 0 and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return worst or (1 if failed else 0)


def cmd_knobs(binary: Path, args) -> int:
    """One run per (switch, affected workload) next to a default run."""
    report = {}
    default = {}
    for env_name, value, workloads in KNOBS:
        for wl in workloads:
            if wl not in default:
                code, lines = run_workload(binary, wl, args.seed,
                                           args.seconds, 0)
                default[wl] = last_json(lines) if code == 0 else None
            code, lines = run_workload(binary, wl, args.seed, args.seconds,
                                       0, env={env_name: value},
                                       tag="-%s=%s" % (env_name, value))
            res = last_json(lines) if code == 0 else None
            report["%s=%s %s" % (env_name, value, wl)] = res
            base = default[wl]
            if base is None or res is None:
                print("%-32s %-12s run failed" % (env_name + "=" + value, wl))
                continue
            print("%-32s %-12s" % (env_name + "=" + value, wl) + "  ".join(
                "%s %.3gx" % (m, res["metrics"][m]["value"] /
                              base["metrics"][m]["value"])
                for m in ("search_s", "designs_per_s", "step_ms_p50",
                          "jobs_per_s")
                if base["metrics"][m]["value"]))
    out = build_dir() / "results" / "knobs.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"default": default, "knobs": report},
                              indent=1, sort_keys=True))
    print("knob report: %s" % out)
    return 0


def cmd_summarize(args) -> int:
    """Median and quartiles of every metric across the recorded runs."""
    root = build_dir() / "results"
    for wl in WORKLOADS:
        for trace in (0, 1):
            runs = []
            for p in sorted((root / wl).glob("seed*-trace%d.json" % trace)):
                runs.append(json.loads(p.read_text()))
            if not runs:
                continue
            print("%s trace=%d: %d runs, seeds %s" % (
                wl, trace, len(runs), sorted(r["seed"] for r in runs)))
            for name in runs[0]["metrics"]:
                vals = [r["metrics"][name]["value"] for r in runs
                        if name in r["metrics"]]
                med = statistics.median(vals)
                if len(vals) >= 2:
                    q1, _, q3 = statistics.quantiles(vals, n=4)
                else:
                    q1 = q3 = med
                spread = (q3 - q1) / med if med else 0.0
                print("  %-30s median %-12.6g q1 %-12.6g q3 %-12.6g "
                      "spread %.3f" % (name, med, q1, q3, spread))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--knobs", action="store_true",
                    help="run every A/B switch once per affected workload")
    ap.add_argument("--summarize", action="store_true",
                    help="median/quartiles across the recorded runs")
    args = ap.parse_args()
    if args.summarize:
        return cmd_summarize(args)
    if not args.knobs and args.workload is None:
        ap.error("--workload, --knobs or --summarize is required")
    binary = build()
    if args.knobs:
        return cmd_knobs(binary, args)
    if args.workload == "all":
        return cmd_all(binary, args)
    return cmd_single(binary, args)


if __name__ == "__main__":
    sys.exit(main())
