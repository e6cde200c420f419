#!/usr/bin/env python3
"""Perf regression gate: perfledger on a base commit against this checkout.

Usage (from anywhere inside the repository):

    python3 tools/perf_gate.py --base REF

Checks REF out into a temporary `git worktree`, builds each tree into its
own CARGO_TARGET_DIR, and runs every workload of BENCHMARK.json 3 times
per side at seed 1 for the benchmark's `run_seconds`, alternating which
side goes first. Each pair also runs policy-sweep once per side with
`--trace 1`, for the per-policy replay rates `llc.<policy>.accesses_per_s`.

Exits non-zero when any run reports `correct: false` or produces no
result, when this checkout's failed share of a workload exceeds the
base's, or when a metric's median here is worse than the base's median
by more than its bound: the BENCHMARK.json bound for the end-to-end
metrics, 0.25 for the per-policy rates. A metric whose base runs spread
wider than its bound (interquartile range over median) is printed
`unresolved` and does not fail the gate. Both sides run on the same host
in the same job, so no committed baseline is needed, and a uniform
slowdown fails the gate as surely as a relative one.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 3
SEED = 1
TRACED_WORKLOAD = "policy-sweep"
POLICY_RATE = re.compile(r"^llc\..+\.accesses_per_s$")
POLICY_BOUND = 0.25


def log(msg):
    print(f"perf_gate: {msg}", file=sys.stderr, flush=True)


def git(*args):
    subprocess.run(["git", "-C", ROOT, *args], check=True, stdout=subprocess.DEVNULL)


def run_once(tree, command, workload, seconds, trace):
    """Runs one workload in `tree`; returns its result object or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    cmd = command + ["--workload", workload, "--seed", str(SEED)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None or "metrics" not in result:
        sys.stderr.write(done.stderr)
        log(f"{tree}: {' '.join(cmd)} exited {done.returncode} without a result")
        return None
    return result


def spread(values):
    """Interquartile range over median; infinite when the median is 0.

    Quartiles interpolate between runs: of three runs, the exclusive
    method would take the extremes, so one slow run would hide every
    metric of its workload as unresolved.
    """
    mid = statistics.median(values)
    if mid == 0:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / abs(mid)


def judge(base, head, better, bound):
    """Returns (base median, head median, relative worsening, base spread,
    verdict)."""
    b, h = statistics.median(base), statistics.median(head)
    worse = 0.0 if b == 0 else ((h - b) if better == "lower" else (b - h)) / abs(b)
    noise = spread(base)
    if noise > bound:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "WORSE"
    else:
        verdict = "ok"
    return b, h, worse, noise, verdict


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    base_ref = parser.parse_args().base
    started = time.monotonic()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    tmp = tempfile.mkdtemp(prefix="perf_gate-")
    base_tree = os.path.join(tmp, "base")
    trees = {"base": base_tree, "head": ROOT}
    # results[(side, workload, trace)] = list of result objects
    results = {}
    broken = False
    try:
        git("worktree", "add", "--detach", base_tree, base_ref)
        # Every (workload, trace) series runs once per pair; the side that
        # goes first alternates from one run pair to the next.
        series = [(w, 0) for w in workloads] + [(TRACED_WORKLOAD, 1)]
        flip = 0
        for pair in range(PAIRS):
            for workload, trace in series:
                order = ("base", "head") if flip % 2 == 0 else ("head", "base")
                flip += 1
                for side in order:
                    t0 = time.monotonic()
                    result = run_once(trees[side], command, workload, seconds, trace)
                    log(
                        f"pair {pair + 1}/{PAIRS} {workload} trace {trace} {side}: "
                        f"{time.monotonic() - t0:.0f} s"
                    )
                    if result is None:
                        broken = True
                    else:
                        results.setdefault((side, workload, trace), []).append(result)
    finally:
        subprocess.run(
            ["git", "-C", ROOT, "worktree", "remove", "--force", base_tree],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        shutil.rmtree(tmp, ignore_errors=True)
        git("worktree", "prune")

    failures = []
    if broken:
        failures.append("a run produced no result")
    for (side, workload, trace), runs in sorted(results.items()):
        bad = sum(1 for r in runs if r.get("correct") is not True)
        if bad:
            failures.append(f"{side} {workload} trace {trace}: {bad} run(s) not correct")

    for workload in workloads:
        share = {}
        for side in ("base", "head"):
            runs = [r for (s, w, _), rs in results.items() if (s, w) == (side, workload) for r in rs]
            attempted = sum(r.get("attempted", 0) for r in runs)
            share[side] = sum(r.get("failed", 0) for r in runs) / attempted if attempted else 0.0
        if share["head"] > share["base"]:
            failures.append(
                f"{workload}: failed share {share['head']:.4f} exceeds the base's {share['base']:.4f}"
            )

    # (workload, metric, better, bound, trace) for every gated metric.
    gated = [
        (w, m["name"], m["better"], m["bound"], 0) for w in workloads for m in bench["end_to_end"]
    ]
    # A policy only one side has (added or removed by the change) has
    # nothing to be compared with; it is listed, not gated.
    rates = {}
    for side in ("base", "head"):
        traced = results.get((side, TRACED_WORKLOAD, 1), [])
        rates[side] = {n for r in traced for n in r["metrics"] if POLICY_RATE.match(n)}
    for name in sorted(rates["base"] ^ rates["head"]):
        log(f"{name} is reported on one side only; not compared")
    rates = sorted(rates["base"] & rates["head"])
    gated += [(TRACED_WORKLOAD, n, "higher", POLICY_BOUND, 1) for n in rates]

    rows = []
    for workload, name, better, bound, trace in gated:
        values = {}
        for side in ("base", "head"):
            runs = results.get((side, workload, trace), [])
            values[side] = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        if len(values["base"]) < 2 or not values["head"]:
            failures.append(f"{workload} {name}: too few results to compare")
            continue
        row = judge(values["base"], values["head"], better, bound)
        rows.append((workload, name, *row, bound))
        worse, verdict = row[2], row[4]
        if verdict == "WORSE":
            failures.append(f"{workload} {name}: {worse:+.1%} worse than the base (bound {bound})")

    print(f"perf_gate: base {base_ref} vs this checkout, {PAIRS} pairs, seed {SEED}")
    header = ("workload", "metric", "base median", "head median", "worse by", "base spread", "bound")
    print(f"{header[0]:<13} {header[1]:<34} " + " ".join(f"{h:>12}" for h in header[2:]) + "  verdict")
    for workload, name, b, h, worse, spr, verdict, bound in rows:
        print(
            f"{workload:<13} {name:<34} {b:>12.6g} {h:>12.6g} {worse:>+12.1%} "
            f"{spr:>12.3f} {bound:>12.2f}  {verdict}"
        )
    for failure in failures:
        print(f"perf_gate: FAIL {failure}")
    elapsed = time.monotonic() - started
    verdict = "fail" if failures else "pass"
    print(f"perf_gate: {verdict} ({elapsed / 60:.1f} min)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
