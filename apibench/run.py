"""Run one apimap benchmark workload and print its result as one JSON line.

    python3 apibench/run.py --workload align-adv --seed 1 --seconds 20 --trace 0

Inputs are generated from the seed by ``gen.py`` in a child process and cached
under ``apibench/cache``, so generation is timed by nothing and leaves no mark
on this process's peak RSS. The run then sets up several times (the program
loading its input files), repeats whole pipeline rounds until their timed
total reaches ``--seconds``, and checks each round's outputs as it ends. With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it wraps each
layer's public functions, prints the per-layer metrics and writes the spans to
``apibench/out``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

# Fixed before numpy loads: one BLAS thread, so that runs on a shared machine
# do not contend for cores, and every run does the same arithmetic in order.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(HERE, "cache")
OUT = os.path.join(HERE, "out")
# set-up is repeated at least this often, and up to SETUP_MAX times while the
# set-ups so far took less than SETUP_MIN_S, so a short set-up is still a median
SETUP_REPS, SETUP_MAX, SETUP_MIN_S = 3, 40, 1.0
CACHE_KEEP = 3


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def inputs_for(workload: str, seed: int) -> str:
    """Generate (or reuse) the seeded inputs of a workload; returns their directory."""
    with open(os.path.join(HERE, "gen.py"), "rb") as fh:
        version = hashlib.sha256(fh.read()).hexdigest()[:12]
    path = os.path.join(CACHE, f"{workload}-seed{seed}-{version}")
    if os.path.isdir(path):
        return path
    os.makedirs(CACHE, exist_ok=True)
    tmp = f"{path}.tmp{os.getpid()}"
    subprocess.run([sys.executable, os.path.join(HERE, "gen.py"), "--workload", workload,
                    "--seed", str(seed), "--out", tmp], check=True)
    os.replace(tmp, path)
    # keep the cache small: only the newest few input sets of each workload
    mine = sorted((e for e in os.scandir(CACHE) if e.name.startswith(workload + "-seed")
                   and ".tmp" not in e.name), key=lambda e: e.stat().st_mtime)
    for old in mine[:-CACHE_KEEP]:
        shutil.rmtree(old.path, ignore_errors=True)
    return path


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads
    from spans import Tracer, maxrss_mb

    cls = workloads.WORKLOADS[workload_name]
    inputs = inputs_for(workload_name, seed)
    workdir = os.path.join(OUT, f"work-{workload_name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        wl = cls(inputs, workdir, seed)
        setup_times, state, n = [], None, 0
        while n < SETUP_REPS or (n < SETUP_MAX and sum(setup_times) < SETUP_MIN_S):
            state = None
            gc.collect()
            with tracer.phase(f"setup/{n}") if tracer else nullcontext():
                t0 = time.perf_counter()
                state = wl.setup()
                setup_times.append(time.perf_counter() - t0)
            n += 1

        # Each round is checked as soon as it is timed, and only its scalars are
        # kept, so memory does not grow with the number of rounds. Peak RSS is
        # read after the first round, before any check has run: the set-ups
        # plus one round, however many rounds the run length allows.
        kept, round_times, failed, problems, errors, peak_rss = [], [], 0, [], [], None
        while not round_times or sum(round_times) < seconds:
            # every timed phase starts from the same collector state
            gc.collect()
            with tracer.phase(f"round/{len(round_times)}") if tracer else nullcontext():
                t0 = time.perf_counter()
                try:
                    out = wl.round(state)
                except Exception:
                    # a failed round counts every one of its operations as failed
                    errors.append(traceback.format_exc())
                    failed += len(cls.ops)
                    round_times.append(time.perf_counter() - t0)
                    break
                round_times.append(time.perf_counter() - t0)
            if peak_rss is None:
                peak_rss = maxrss_mb()
            round_problems, round_failed = wl.check(state, out)
            problems += round_problems
            failed += round_failed
            kept.append({k: out[k] for k in ("tokens_per_s", "queries_per_s", "top1", "top10")})
            out = None
        if peak_rss is None:
            peak_rss = maxrss_mb()
        for msg in errors + problems:
            print(msg, file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(round_times) * len(cls.ops)
    pipeline_s = statistics.median(round_times)
    info = {"workload": workload_name, "seed": seed, "blas_threads": BLAS_THREADS,
            "setups": len(setup_times), "rounds": len(round_times),
            "pipeline_s": pipeline_s, "traced": trace}
    print(json.dumps({"info": info}), file=sys.stderr)
    if tracer:
        units = _units("per_layer")
        values = tracer.layer_metrics(list(units))
        tracer.write(os.path.join(OUT, f"spans-{workload_name}-seed{seed}.json"), info)
    else:
        units = _units("end_to_end")
        last = kept[-1] if kept else {}
        values = {
            "setup_s": statistics.median(setup_times),
            "pipeline_s": pipeline_s,
            "peak_rss_mb": peak_rss,
            "tokens_per_s": statistics.median(o["tokens_per_s"] for o in kept) if kept else 0.0,
            "queries_per_s": statistics.median(o["queries_per_s"] for o in kept) if kept else 0.0,
            "top1": last.get("top1", 0.0),
            "top10": last.get("top10", 0.0),
        }
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()}
    return {"correct": not problems and not errors, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["embed-corpus", "align-adv",
                                                          "retrieve-large"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "apimap", "__init__.py")):
        print(f"apimap sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
