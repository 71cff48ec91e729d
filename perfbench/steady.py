#!/usr/bin/env python3
"""Steadiness and comparison runs of the benchmark (README.md, "Steadiness").

Repeat each workload over seeds and print, per workload and end-to-end
metric, the median, quartiles and spread (IQR / median) against the bound
in BENCHMARK.json:

    python3 perfbench/steady.py --seeds 1-10 [--workloads a,b] [--trace 0|1]

Compare two checkouts pair by pair, alternating which side runs first, and
apply the win rule (a gain needs >= 9/10 of pairs won and a median shift
larger than the parent's own IQR; a regression is a median worse by more
than the bound):

    python3 perfbench/steady.py --seeds 1-10 --compare PARENT_DIR CHANGE_DIR

Print the tracing overhead of the served workloads: the traced run's median
round trip against the untraced run's latency_p50_ms, seed by seed:

    python3 perfbench/steady.py --seeds 1-3 --overhead

Exit code 1 when a run fails or is incorrect, or (repeat mode) a spread
exceeds its bound, or (compare mode) any metric regressed.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(checkout, workload, seed, seconds, trace):
    """One run of `checkout`'s benchmark command; returns its result."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def repeat(args, spec):
    checkout = HERE.parent
    samples = {w: {} for w in args.workloads}
    ok = True
    for seed in args.seeds:
        for workload in args.workloads:
            result = run(checkout, workload, seed, args.seconds, args.trace)
            good = result is not None and result["correct"] and result["failed"] == 0
            ok &= good
            print(f"# {workload} seed {seed}: " +
                  ("ok" if good else "FAILED") +
                  ("" if result is None else " " + json.dumps(
                      {k: round(v["value"], 4) for k, v in result["metrics"].items()})),
                  file=sys.stderr, flush=True)
            for name, m in (result or {}).get("metrics", {}).items():
                samples[workload].setdefault(name, []).append(m["value"])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{'workload':16} {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for workload, metrics in samples.items():
        for name, values in metrics.items():
            q1, median, q3 = quartiles(values)
            s = spread(values)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "ok" if s <= bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
                if verdict == "TOO WIDE":
                    ok = False
            print(f"{workload:16} {name:34} {median:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{s:7.3f} {'' if bound is None else bound:>6}  {verdict}")
    return ok


def compare(args, spec):
    parent, change = (Path(p).resolve() for p in args.compare)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads:
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = [(parent, "p"), (change, "c")]
            if i % 2:
                order.reverse()
            got = {side: run(root, workload, seed, args.seconds, 0) for root, side in order}
            if any(r is None or not r["correct"] for r in got.values()):
                print(f"# {workload} seed {seed}: a run failed", file=sys.stderr)
                ok = False
                continue
            pairs.append(got)
        if not pairs:
            continue
        for name in bounds:
            p = [g["p"]["metrics"][name]["value"] for g in pairs]
            c = [g["c"]["metrics"][name]["value"] for g in pairs]
            sign = 1 if better[name] == "higher" else -1
            wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
            pq1, pmed, pq3 = quartiles(p)
            cq1, cmed, cq3 = quartiles(c)
            shift = sign * (cmed - pmed)
            if wins >= 0.9 * len(pairs) and shift > pq3 - pq1:
                verdict = "GAIN"
            elif -shift > bounds[name] * pmed:
                verdict = "REGRESSION"
                ok = False
            elif spread(p) > bounds[name] and not (
                    min(c) > max(p) if sign > 0 else max(c) < min(p)):
                verdict = "unresolved (parent spread wider than bound)"
            else:
                verdict = "no regression"
            print(f"{workload:16} {name:16} parent {pmed:.6g} [{pq1:.6g}, {pq3:.6g}]  "
                  f"change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}]  wins {wins}/{len(pairs)}  {verdict}")
    return ok


def overhead(args):
    checkout = HERE.parent
    ok = True
    for workload in (w for w in args.workloads if w.startswith("serve_")):
        for seed in args.seeds:
            plain = run(checkout, workload, seed, args.seconds, 0)
            traced = run(checkout, workload, seed, args.seconds, 1)
            if plain is None or traced is None:
                print(f"# {workload} seed {seed}: a run failed", file=sys.stderr)
                ok = False
                continue
            p50 = plain["metrics"]["latency_p50_ms"]["value"]
            trip = traced["metrics"]["server.round_trip_p50_ms"]["value"]
            print(f"{workload:16} seed {seed:4}  untraced p50 {p50:.4f} ms  "
                  f"traced round trip p50 {trip:.4f} ms  ratio {trip / p50:.3f}")
    return ok


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--workloads", type=lambda s: s.split(","), default=names)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args()
    if args.overhead:
        ok = overhead(args)
    else:
        ok = compare(args, spec) if args.compare else repeat(args, spec)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
