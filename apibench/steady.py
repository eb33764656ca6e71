"""Steadiness check: two separate sets of repeated runs of every workload.

    python3 apibench/steady.py --runs 10

Set A uses seeds 1..N and set B seeds 101..100+N; within a set the workloads
take turns, so slow drift of the machine reaches all of them alike. Each run
lasts BENCHMARK.json's ``run_seconds``. For every end-to-end metric the command
prints each set's median and quartiles, the spread (q3 - q1) / median, and the
shift of set B's median against set A's, signed so that positive is worse. It
passes when every spread and the size of every shift stay within the metric's
bound, and the share of failed operations is the same in both sets. On set A's
first TRACED_RUNS seeds a traced run follows each untraced one; the tracing
overhead is the median over those seeds of traced ``pipeline_s`` over untraced
``pipeline_s`` of the same seed, minus one. Raw results go to
``apibench/out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACED_RUNS = 3
OUT = os.path.join(HERE, "out", "steady.json")


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    info = [json.loads(line)["info"] for line in proc.stderr.splitlines()
            if line.startswith('{"info"')]
    result["info"] = info[-1]
    print(f"  {workload:15s} seed {seed:4d} trace {trace}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"pipeline_s={result['info']['pipeline_s']:.3f}", flush=True)
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]

    sets = {"A": 1, "B": 101}
    raw: dict = {s: {w: [] for w in names} for s in sets}
    traced: dict = {w: [] for w in names}
    for set_name, first_seed in sets.items():
        print(f"set {set_name}", flush=True)
        for i in range(args.runs):
            for w in names:
                raw[set_name][w].append(one_run(w, first_seed + i, seconds, 0))
                # a traced run right after the untraced one of the same seed
                if set_name == "A" and i < TRACED_RUNS:
                    traced[w].append(one_run(w, first_seed + i, seconds, 1))

    ok = True
    report: dict = {"runs": args.runs, "seconds": seconds, "workloads": {}}
    print(f"\n{'workload':15s} {'metric':14s} {'A q1':>11s} {'A med':>11s} {'A q3':>11s} "
          f"{'A spr':>6s} {'B q1':>11s} {'B med':>11s} {'B q3':>11s} {'B spr':>6s} "
          f"{'shift':>6s} {'bound':>5s}  verdict")
    for w in names:
        rows = {}
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = {}
            for s in sets:
                values = [r["metrics"][name]["value"] for r in raw[s][w]]
                q1, med, q3 = quartiles(values)
                stats[s] = {"q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med,
                            "values": values}
            sign = 1 if m["better"] == "lower" else -1
            shift = sign * (stats["B"]["median"] - stats["A"]["median"]) / stats["A"]["median"]
            within = all(stats[s]["spread"] <= bound for s in sets) and abs(shift) <= bound
            verdict = "ok" if within else "FAIL"
            ok &= verdict == "ok"
            rows[name] = dict(stats, shift=shift, bound=bound, verdict=verdict)
            a, b = stats["A"], stats["B"]
            print(f"{w:15s} {name:14s} {a['q1']:11.5g} {a['median']:11.5g} {a['q3']:11.5g} "
                  f"{a['spread']:6.3f} {b['q1']:11.5g} {b['median']:11.5g} {b['q3']:11.5g} "
                  f"{b['spread']:6.3f} {shift:6.3f} {bound:5.2f}  {verdict}")
        shares = {s: Fraction(sum(r["failed"] for r in raw[s][w]),
                              sum(r["attempted"] for r in raw[s][w])) for s in sets}
        correct = all(r["correct"] for s in sets for r in raw[s][w])
        same_share = shares["A"] == shares["B"]
        ok &= same_share and correct
        entry = {"metrics": rows, "failed_share": {s: str(v) for s, v in shares.items()},
                 "correct": correct}
        print(f"{w:15s} failed share A {shares['A']} B {shares['B']} "
              f"({'same' if same_share else 'DIFFERENT'}), all correct: {correct}")
        # each traced run against the untraced run of the same seed in set A
        ratios = [t["info"]["pipeline_s"] / u["info"]["pipeline_s"]
                  for t, u in zip(traced[w], raw["A"][w])]
        entry["traced_pipeline_s"] = [t["info"]["pipeline_s"] for t in traced[w]]
        entry["trace_overhead"] = statistics.median(ratios) - 1
        print(f"{w:15s} traced / untraced pipeline_s on seeds 1..{len(ratios)}: "
              + ", ".join(f"{r:.3f}" for r in ratios)
              + f"; overhead {100 * entry['trace_overhead']:+.1f}%")
        report["workloads"][w] = entry
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(dict(report, steady=ok), fh, indent=1)
    print(f"\nsteady: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
