#!/usr/bin/env python3
"""Build and run tcpbench, the real-socket benchmark.

  python3 tcpbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
      Build, then run one workload.  Its report passes through; the last
      line of standard output is the result JSON.  The exit status is 0
      only if every answer matched the oracle.
  python3 tcpbench/run.py --steady RUNS --workload NAME [--seed N] [--seconds S]
      Run one workload RUNS times back to back (seeds N, N+1, ...) and
      print, for each end-to-end metric, the median, the quartiles and
      the spread (Q3 - Q1) / median next to the bound in BENCHMARK.json.
  python3 tcpbench/run.py --self-test
      Run each workload for two seconds and check that every
      end-to-end metric is printed with its unit, that both ledgers
      close, and that a corrupted oracle digest is counted as a failure.

Everything it writes stays inside the checkout: dune's _build/ (with the
shared dune cache off) and .tcpbench/ for runtime-event rings and spans.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "tcpbench", "tcpbench.exe")
RUN_DIR = ".tcpbench"
WORKLOADS = ("ship-local", "ship-remote", "service-mix")
RUN_TIMEOUT_S = 175


def die(message, code=2):
    print("tcpbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("dune-project and lib/ not found: the benchmark builds the engine from a full checkout")
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    command = [dune, "build", "--root", ".", "./tcpbench/tcpbench.exe"]
    if subprocess.run(command, stdout=sys.stderr, env=env).returncode != 0:
        die("build failed", 3)


def run(args, capture):
    os.makedirs(RUN_DIR, exist_ok=True)
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=RUN_DIR)
    env.pop("OCAML_RUNTIME_EVENTS_PRESERVE", None)
    try:
        return subprocess.run(
            [EXE] + args,
            env=env,
            timeout=RUN_TIMEOUT_S,
            stdout=subprocess.PIPE if capture else None,
            text=True,
        )
    except subprocess.TimeoutExpired:
        die("a run took longer than %d s" % RUN_TIMEOUT_S, 124)


def result_of(proc):
    lines = (proc.stdout or "").strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def benchmark_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def steady(runs, workload, seed, seconds):
    spec = benchmark_spec()
    values = {}
    for i in range(runs):
        args = ["--workload", workload, "--seed", str(seed + i), "--seconds", seconds, "--trace", "0"]
        proc = run(args, capture=True)
        result = result_of(proc)
        if proc.returncode != 0 or result is None or not result["correct"]:
            die("run %d (seed %d) failed" % (i + 1, seed + i), 1)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("run %d/%d (seed %d) done" % (i + 1, runs, seed + i), file=sys.stderr, flush=True)
    print("%s: %d runs, seeds %d..%d, %s s each" % (workload, runs, seed, seed + runs - 1, seconds))
    print("%-24s %12s %12s %12s %8s %6s  %s" % ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        vals = values[name]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        spread = (q3 - q1) / median if median else math.inf
        if spread < bound / 3:
            verdict = "steady (< bound/3)"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "OVER BOUND"
        print("%-24s %12.4f %12.4f %12.4f %8.4f %6.2f  %s" % (name, median, q1, q3, spread, bound, verdict))
    print("values: " + json.dumps(values))


def self_test():
    spec = benchmark_spec()
    problems = []

    def check(ok, what):
        print(("PASS  " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            problems.append(what)

    ledgers = (
        ("ledger.cpu_ms_per_query", "tcp_site.other_ms_per_query",
         ("eval.ms_per_query", "codec.ms_per_query", "credit.ms_per_query")),
        ("ledger.alloc_kwords_per_query", "tcp_site.other_kwords_per_query",
         ("eval.kwords_per_query", "codec.kwords_per_query", "credit.kwords_per_query")),
    )
    for workload in WORKLOADS:
        base = ["--workload", workload, "--seed", "7", "--seconds", "2"]

        proc = run(base + ["--trace", "0"], capture=True)
        result = result_of(proc)
        check(proc.returncode == 0 and result is not None and result["correct"], workload + ": untraced run is correct")
        metrics = result["metrics"] if result else {}
        for m in spec["end_to_end"]:
            got = metrics.get(m["name"])
            check(got is not None and got["unit"] == m["unit"] and math.isfinite(got["value"]),
                  "%s: %s printed in %s" % (workload, m["name"], m["unit"]))

        proc = run(base + ["--trace", "1"], capture=True)
        result = result_of(proc)
        check(proc.returncode == 0 and result is not None and result["correct"], workload + ": traced run is correct")
        metrics = result["metrics"] if result else {}
        for m in spec["per_layer"]:
            got = metrics.get(m["name"])
            check(got is not None and got["unit"] == m["unit"], "%s: %s printed in %s" % (workload, m["name"], m["unit"]))
        values = {name: metric["value"] for name, metric in metrics.items()}
        for total, rest, parts in ledgers:
            if total not in values or rest not in values or any(p not in values for p in parts):
                check(False, "%s: %s ledger printed" % (workload, total))
                continue
            named = sum(values[p] for p in parts)
            closes = abs(named + values[rest] - values[total]) <= 1e-9 * max(1.0, abs(values[total]))
            check(closes and values[rest] >= 0,
                  "%s: %s %.4f = named parts %.4f + remainder %.4f (>= 0)"
                  % (workload, total, values[total], named, values[rest]))

        proc = run(base + ["--trace", "0", "--corrupt-digest"], capture=True)
        result = result_of(proc)
        check(proc.returncode != 0 and result is not None and not result["correct"] and result["failed"] > 0,
              "%s: a corrupted oracle digest counts in failed (%s of %s)"
              % (workload, result and result["failed"], result and result["attempted"]))
    print("self-test: %d problem(s)" % len(problems))
    sys.exit(1 if problems else 0)


def main():
    parser = argparse.ArgumentParser(description="Build and run the real-socket benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", default="32")
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--steady", type=int, metavar="RUNS")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)
    build()
    if args.self_test:
        self_test()
    if args.workload is None:
        die("--workload is required")
    if args.steady is not None:
        if args.steady < 2:
            die("--steady needs at least 2 runs")
        steady(args.steady, args.workload, args.seed, args.seconds)
        return
    proc = run(["--workload", args.workload, "--seed", str(args.seed), "--seconds", args.seconds,
                "--trace", args.trace], capture=False)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
