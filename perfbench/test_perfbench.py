"""The benchmark's own test: at a small size, the exact half of its output
repeats across runs.

    python3 -m pytest perfbench -q

Each workload is shrunk to a small graph and a few batches. Two traced runs
in fresh processes must agree on the checksum, the metered bytes and every
per-layer count; an untraced run must agree with them on the checksum and
bytes, so tracing changes no result. The batch-latency percentiles must not
depend on how many runs fit into the measuring time, and each interval must
be scaled by the reference loop timings made during it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import exact_counts  # noqa: E402
from run import REF_S, end_to_end, scale_run  # noqa: E402
from run import run_child as run_once  # noqa: E402
from workloads import WORKLOADS, experiment_config  # noqa: E402

SMALL = {
    "algebraic-q1": dict(rmat_scale=8, rmat_edge_factor=4, batch_size=64,
                         n_batches=3),
    "general-q2": dict(rmat_scale=8, rmat_edge_factor=4, batch_size=16,
                       n_batches=3),
    "ingest-q2": dict(rmat_scale=9, rmat_edge_factor=8, batch_size=64,
                      n_batches=3),
}


def run_child(config: dict, trace: bool) -> dict:
    out = run_once(config, trace, timeout=120)
    assert out["ok"], out.get("error")
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_exact_half_repeats(name):
    workload = WORKLOADS[name]
    config = experiment_config(workload, seed=3, **SMALL[name])
    first, second = run_child(config, True), run_child(config, True)
    plain = run_child(config, False)

    for r in (first, second, plain):
        if workload.is_product:
            assert r["verified"]
        else:
            assert r["checksum"].split(";")[0] == f"nnz={r['expected_nnz']}"
    assert first["checksum"] == second["checksum"] == plain["checksum"]
    assert first["bytes"] == second["bytes"] == plain["bytes"]
    counts = exact_counts(first["layers"])
    assert counts == exact_counts(second["layers"])
    assert "kernels.products" in counts and "transport.bytes_aggregate" in counts
    if workload.is_product:
        assert counts["kernels.products"] + counts["distmm.touched"] > 0
    else:
        assert counts["redistribute.inserted"] == 4 * 64


def test_batch_percentiles_ignore_run_count():
    """A faster program fits more runs into --seconds; the same per-run
    latencies must still give the same p50 and p90."""
    run = {"total_s": 1.0, "setup_s": 0.1, "finish_s": 0.2, "nnz_update": 8,
           "peak_rss_mb": 1.0, "bytes": 0, "checksum": "c",
           "batch_s": [0.01 * (i + 1) for i in range(8)]}
    run["scaled"] = {k: run[k] for k in ("total_s", "setup_s", "finish_s",
                                         "batch_s")}
    few, _ = end_to_end([run] * 3)
    many, _ = end_to_end([run] * 11)
    assert few["batch_p50_ms"] == many["batch_p50_ms"] == 45.0
    assert few["batch_p90_ms"] == many["batch_p90_ms"]
    assert 70.0 < few["batch_p90_ms"] < 80.0


def test_each_interval_scaled_by_its_own_reference_timings():
    """A batch run while the CPU was half as fast reads as long as one run at
    full speed; an interval with too few timings inside uses the nearest."""
    samples = [(t / 10, REF_S * (2 if 10 <= t < 20 else 1))
               for t in range(31)]
    run = {"total_s": 3.0, "setup_s": 0.05, "finish_s": 0.9,
           "batch_s": [0.9, 1.8, 0.3],
           "stamps": {"call": 0.0, "first": 0.05, "last": 2.1, "ret": 3.0,
                      "batches": [(0.05, 0.95), (1.0, 1.9), (2.0, 2.3)]}}
    scale_run(run, samples)
    s = run["scaled"]
    assert s["batch_s"] == pytest.approx([0.9, 0.9, 0.3])
    assert s["setup_s"] == pytest.approx(0.05)
    assert s["finish_s"] == pytest.approx(0.9)
    assert 2.0 < s["total_s"] < 3.0


def test_refuses_without_program(tmp_path):
    """Outside a checkout the benchmark exits non-zero and prints no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest-q2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
