"""The repository's benchmark: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 perfbench/run.py --workload general-q2 --seed 3 --seconds 30 --trace 0

Run from the root of a checkout. Each run of the program is one call of
`run_experiment` in a fresh process (perfbench/child.py); runs repeat with
the same seed until `--seconds` is used up, and the metrics are medians over
them. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it print
every metric by name with its unit, plus the figures that are not gated.

Host speed. On the shared host this benchmark was built on, the speed of a
CPU changes by up to 1.7 times within seconds, as neighbours come and go,
and the program's wall times swing with it (ingest-q2: 2.3 s against 3.7 s
per run of the same input). So the benchmark pins itself and its runs to
one CPU, and while a run goes on, a thread of the benchmark times a fixed
pure-Python reference loop on that CPU every 25 ms, in thread CPU time
(about 3% of the CPU). Every time is reported in reference seconds:

    reference seconds = wall seconds * REF_S / reference loop seconds

where the reference loop seconds are the mean of the loop timings made
during that same interval (the set-up, one batch, the finish or the whole
run; the three timings nearest to it when fewer fall inside), and REF_S =
0.75 ms is the loop's time on that host in its fast state. On that host the
log of a run's wall time follows the log of its reference loop time with
slope 0.98 to 1.17 (correlation 0.97 to 0.99 over 8 to 10 runs of one input
per workload), so the quotient keeps what the program does and drops what
the host does: a change to the program moves it as it moves the wall time.
The raw wall-time medians are printed too, not gated.

End-to-end metrics (--trace 0, all from untraced runs, times in reference
seconds):

  total_s          s    time of one run, from the call into
                        run_experiment until it returns the checksum
  setup_s          s    from that call until batch 0 begins: pool
                        generation, operand build and the initial product
  finish_s         s    from the end of the last batch until the call
                        returns: verification recompute, comparison and
                        checksum
  batch_p50_ms     ms   median over runs of each run's median per-batch
                        update latency; a batch's latency is its
                        MetricsRecord.total_seconds, the maximum over ranks
  batch_p90_ms     ms   the tail: median over runs of each run's 90th
                        percentile batch latency. Each run has the
                        workload's fixed batch count, so the percentile and
                        its sample count do not depend on how many runs fit
                        into --seconds
  updates_per_s    1/s  sum of nnz_update / sum of batch seconds
  peak_rss_mb      MB   peak resident memory of the run's process

Every end-to-end figure is a median over runs.
Two further end-to-end figures are printed but not in the JSON metrics,
because they are 0 on some workload and a relative bound on 0 means
nothing: `bytes_per_update` (sum of metered bytes over all batches and
phases / sum of nnz_update; 0 on the one-rank workload, and exact, so it is
also the per-layer metric `transport.bytes_per_update`), and `fail_rate`
(failed / attempted, which the JSON carries as those two fields).

A run fails when it raises, when a product run's verification fails or did
not run, when an insert run's final nnz differs from the count implied by
the pool and the draw sizes, when its checksum differs from the other runs
of the same seed, when its metered bytes differ from the first run's, or,
traced, when any per-layer count differs from the first traced run's.

--trace 1 alternates untraced and traced runs (perfbench/layers.py) until
the time is used up, and reports every per-layer metric listed in
BENCHMARK.json; perfbench/README.md maps each to the end-to-end metric and
workload it should move. `bench.trace_overhead_s` is the traced median
total_s minus the untraced median total_s.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import exact_counts, unit_of  # noqa: E402
from workloads import WORKLOADS, experiment_config  # noqa: E402

DEADLINE_S = 170       # the whole invocation ends within this
MIN_RUNS = 2           # untraced runs, and traced runs when traced
REF_ITERS = 5_000      # iterations of one reference loop
REF_S = 0.75e-3        # the reference loop's time on the fast host state
PERIOD_S = 0.025       # pause between two reference loops
MIN_SAMPLES = 3        # reference loop timings behind one scaled interval

E2E_UNITS = {"total_s": "s", "setup_s": "s", "finish_s": "s",
             "batch_p50_ms": "ms", "batch_p90_ms": "ms",
             "updates_per_s": "1/s", "peak_rss_mb": "MB"}


def _load_declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


class ReferenceSampler(threading.Thread):
    """Times the reference loop in thread CPU time every PERIOD_S until
    stopped: the speed of this CPU while a run goes on, apart from the
    program's. Each sample is (wall midpoint, loop CPU seconds)."""

    def __init__(self):
        super().__init__(daemon=True)
        self.done = threading.Event()
        self.samples: list[tuple[float, float]] = []

    def run(self):
        while True:
            w0, c0 = time.perf_counter(), time.thread_time()
            acc = {}
            for i in range(REF_ITERS):
                acc[i & 1023] = acc.get(i & 1023, 0) + i * i
            c1, w1 = time.thread_time(), time.perf_counter()
            self.samples.append(((w0 + w1) / 2, c1 - c0))
            if self.done.wait(PERIOD_S):
                return

    def stop(self) -> list[tuple[float, float]]:
        self.done.set()
        self.join()
        return self.samples


def reference_over(samples, start: float, end: float) -> float:
    """Mean reference loop time during [start, end]; the MIN_SAMPLES
    timings nearest to its middle when fewer fall inside."""
    inside = [dt for t, dt in samples if start <= t <= end]
    if len(inside) < MIN_SAMPLES:
        mid = (start + end) / 2
        inside = [dt for _t, dt in
                  sorted(samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]]
    return statistics.mean(inside)


def scale_run(run: dict, samples) -> None:
    """Add the run's times in reference seconds, each interval scaled by
    the reference loop timings made during it."""
    st = run["stamps"]

    def scaled(seconds, start, end):
        return seconds * REF_S / reference_over(samples, start, end)

    run["reference_loop_s"] = reference_over(samples, st["call"], st["ret"])
    run["scaled"] = {
        "total_s": scaled(run["total_s"], st["call"], st["ret"]),
        "setup_s": scaled(run["setup_s"], st["call"], st["first"]),
        "finish_s": scaled(run["finish_s"], st["last"], st["ret"]),
        "batch_s": [scaled(b, w0, w1) for b, (w0, w1)
                    in zip(run["batch_s"], st["batches"])],
    }


def pin_to_one_cpu() -> None:
    """Run this process, and every run it starts, on one CPU, so that the
    reference loop times the CPU the program runs on. The rank threads share
    one interpreter lock, so one CPU is about what a run uses anyway."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_child(config: dict, trace: bool, timeout: float) -> dict:
    spec = json.dumps({"config": config, "trace": trace})
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), spec],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
            check=False)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"run exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"ok": False,
                "error": f"exit {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between the two samples around it."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def run_failures(runs: list[dict], workload) -> list[str]:
    """One message per failed run; see the module docstring for the rules."""
    fails = []
    good = [r for r in runs if r.get("ok")]
    for r in runs:
        if not r.get("ok"):
            fails.append(r.get("error", "failed"))
    checksums = [r["checksum"] for r in good]
    majority = max(set(checksums), key=checksums.count) if checksums else None
    counts0 = None
    for r in good:
        if workload.is_product and not r["verified"]:
            fails.append("verification did not run")
        elif "expected_nnz" in r and \
                r["checksum"].split(";")[0] != f"nnz={r['expected_nnz']}":
            fails.append(f"checksum {r['checksum']} but the pool implies "
                         f"nnz={r['expected_nnz']}")
        elif r["checksum"] != majority:
            fails.append(f"checksum {r['checksum']} != {majority}")
        elif r["bytes"] != good[0]["bytes"]:
            fails.append(f"metered bytes {r['bytes']} != {good[0]['bytes']}")
        elif "layers" in r:
            counts = exact_counts(r["layers"])
            if counts0 is None:
                counts0 = counts
            elif counts != counts0:
                diff = sorted(k for k in counts if counts[k] != counts0[k])
                fails.append(f"per-layer counts changed between runs: {diff}")
    return fails


def end_to_end(runs: list[dict]) -> tuple[dict, dict]:
    """(gated metrics, printed-only figures) over successful runs."""
    def med(of):
        return statistics.median(of(r["scaled"]) for r in runs)

    gated = {
        "total_s": med(lambda s: s["total_s"]),
        "setup_s": med(lambda s: s["setup_s"]),
        "finish_s": med(lambda s: s["finish_s"]),
        "batch_p50_ms": 1e3 * med(lambda s: statistics.median(s["batch_s"])),
        "batch_p90_ms": 1e3 * med(lambda s: p90(s["batch_s"])),
        "updates_per_s": statistics.median(
            r["nnz_update"] / sum(r["scaled"]["batch_s"]) for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    extra = {
        "bytes_per_update": runs[0]["bytes"] / max(runs[0]["nnz_update"], 1),
        "batches_per_run": len(runs[0]["batch_s"]),
        "checksum": runs[0]["checksum"],
        "total_wall_s": statistics.median(r["total_s"] for r in runs),
        "setup_wall_s": statistics.median(r["setup_s"] for r in runs),
        "finish_wall_s": statistics.median(r["finish_s"] for r in runs),
    }
    return gated, extra


def per_layer(untraced: list[dict], traced: list[dict],
              declared: dict) -> dict:
    layers = {}
    for name in traced[0]["layers"]:
        layers[name] = statistics.median(r["layers"][name] for r in traced)
    layers["bench.trace_overhead_s"] = (
        statistics.median(r["scaled"]["total_s"] for r in traced)
        - statistics.median(r["scaled"]["total_s"] for r in untraced))
    layers["transport.bytes_per_update"] = (
        traced[0]["bytes"] / max(traced[0]["nnz_update"], 1))
    missing = set(declared) - set(layers)
    if missing:
        raise KeyError(f"per-layer metrics not measured: {sorted(missing)}")
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "dynspgemm", "__init__.py")):
        print(f"error: no program source under {ROOT}/src; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    declared = _load_declared()
    workload = WORKLOADS[args.workload]
    config = experiment_config(workload, args.seed)
    pin_to_one_cpu()

    # When traced, runs alternate untraced and traced, so that the overhead
    # compares runs made under the same host load.
    traced = bool(args.trace)
    min_runs = 2 * MIN_RUNS if traced else MIN_RUNS
    runs: list[dict] = []
    durations: list[float] = []
    while True:
        elapsed = time.perf_counter() - start
        if len(runs) >= min_runs and \
                elapsed + statistics.median(durations) > args.seconds:
            break
        remaining = DEADLINE_S - elapsed
        if remaining < 5:
            break
        flag = traced and len(runs) % 2 == 1
        t0 = time.perf_counter()
        sampler = ReferenceSampler()
        sampler.start()
        r = run_child(config, flag, remaining)
        samples = sampler.stop()
        r["traced"] = flag
        runs.append(r)
        if not r.get("ok"):
            break
        scale_run(r, samples)
        durations.append(time.perf_counter() - t0)

    fails = run_failures(runs, workload)
    good = [r for r in runs if r.get("ok")]
    attempted, failed = len(runs), len(fails)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": {}}
    print(f"workload {workload.name}: {workload.why}")
    print(f"config {json.dumps(config, sort_keys=True)}")
    refs = [r["reference_loop_s"] for r in good]
    if refs:
        print(f"reference_loop_s {1e3 * statistics.median(refs):.4f} ms "
              f"median, {1e3 * min(refs):.4f}..{1e3 * max(refs):.4f} over "
              f"runs (not gated)")
    for msg in fails:
        print(f"FAILED run: {msg}")
    print(f"fail_rate {failed / attempted:.4f} ratio ({failed}/{attempted} runs)")

    info = {"reference_loop_s": statistics.median(refs) if refs else None,
            "runs": attempted, "fail_rate": failed / attempted,
            "run_total_s": [r["total_s"] for r in good],
            "run_reference_loop_s": refs}
    untraced_runs = [r for r in good if not r["traced"]]
    traced_runs = [r for r in good if r["traced"]]
    if not untraced_runs or (traced and not traced_runs):
        print(json.dumps(result))
        return 1
    if traced:
        layers = per_layer(untraced_runs, traced_runs, declared)
        for name in sorted(layers):
            print(f"{name} {layers[name]:.6g} {unit_of(name)}")
        info["layers"] = layers
        result["metrics"] = {n: {"value": layers[n], "unit": u}
                             for n, u in declared.items()}
    else:
        gated, extra = end_to_end(untraced_runs)
        for name, value in gated.items():
            print(f"{name} {value:.6g} {E2E_UNITS[name]}")
        print(f"batch_p90_ms is the tail: p90 of each run's "
              f"{extra['batches_per_run']} batches, median over "
              f"{len(untraced_runs)} runs")
        print(f"bytes_per_update {extra['bytes_per_update']:.6g} B (exact, "
              f"not gated: 0 on one rank)")
        for name in ("total", "setup", "finish"):
            print(f"{name}_wall_s {extra[name + '_wall_s']:.6g} s "
                  f"(wall time, not gated)")
        print(f"checksum {extra['checksum']}")
        info.update(extra)
        result["metrics"] = {n: {"value": v, "unit": E2E_UNITS[n]}
                             for n, v in gated.items()}
    print(f"info {json.dumps(info)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
