"""Run the benchmark over several seeds per workload and summarize it: the
spread check and a trajectory point in one.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline/seed.json

Every workload in BENCHMARK.json is run at its run_seconds. For every
workload and end-to-end metric it prints and stores the median,
the quartiles (statistics.quantiles, n=4), the sample count and the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json, and the
spread of the raw wall time for comparison. Each benchmark run's
reference-loop time is stored beside its metrics and is not gated. With
--trace-seeds, that many seeds per workload also get a traced run, whose
per-layer metrics are stored.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stdout}{proc.stderr}")
    info = next(json.loads(ln[5:]) for ln in lines if ln.startswith("info "))
    return {"seed": seed, "result": json.loads(lines[-1]), "info": info}


def summarize(values: list[float], bound: float | None) -> dict:
    med = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else None, "bound": bound}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace-seeds", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    report = {"run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in _seeds(args.seeds):
            t0 = time.perf_counter()
            runs.append(bench_once(workload, seed, seconds, 0))
            runs[-1]["wall_s"] = time.perf_counter() - t0
        summary = {}
        for name in bounds:
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            summary[name] = summarize(vals, bounds[name])
        traced = [bench_once(workload, seed, seconds, 1)
                  for seed in _seeds(args.seeds)[:args.trace_seeds]]
        report["workloads"][workload] = {
            "summary": summary,
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "runs": [{"seed": r["seed"], "wall_s": r["wall_s"],
                      "metrics": {k: v["value"] for k, v
                                  in r["result"]["metrics"].items()},
                      **r["info"]} for r in runs],
            "traced": [{"seed": t["seed"], **t["info"]} for t in traced],
        }
        print(f"== {workload}: {report['workloads'][workload]['failed']} "
              f"failed of {report['workloads'][workload]['attempted']}")
        for name, s in summary.items():
            flag = "" if s["spread"] is not None and \
                s["spread"] <= s["bound"] / 3 else "  <-- above bound/3"
            print(f"  {name:15s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}"
                  f"  q3 {s['q3']:12.6g}  spread {s['spread']:.4f}"
                  f"  bound {s['bound']}{flag}")
        wall = summarize([r["info"]["total_wall_s"] for r in runs], None)
        print(f"  total_wall_s    median {wall['median']:12.6g}  spread "
              f"{wall['spread']:.4f}  (wall time, not gated)")
        ref = [1e3 * r["info"]["reference_loop_s"] for r in runs]
        print(f"  reference_loop_ms {min(ref):.4f}..{max(ref):.4f}")
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
