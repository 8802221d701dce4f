"""Run one experiment in this fresh process and print its measurements as
one JSON line.

    python3 perfbench/child.py '{"config": {...}, "trace": false}'

`config` holds the ExperimentConfig fields. The program is imported from
`src/` of the checkout this file sits in, never from an installed copy.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_program():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import dynspgemm
    if not os.path.abspath(dynspgemm.__file__).startswith(src + os.sep):
        raise ImportError(f"dynspgemm imported from {dynspgemm.__file__}, "
                          f"not from {src}")
    return dynspgemm


def expected_insert_nnz(cfg) -> int:
    """Entries the insert experiment must end with, from the pool and the
    draw sizes alone: the even-indexed pool entries are loaded first, and
    rank r then draws min(batch_size, left) of the odd-indexed entries it
    owns round-robin in each batch. All pool positions are distinct."""
    from dynspgemm.bench import rmat_arrays, symmetrized_pool

    n = 1 << cfg.rmat_scale
    rows, _cols = symmetrized_pool(
        *rmat_arrays(cfg.rmat_scale, cfg.rmat_edge_factor, cfg.seed), n)
    m = len(rows)
    p = cfg.q * cfg.q
    odd = m // 2
    drawn = sum(min(cfg.n_batches * cfg.batch_size, len(range(r, odd, p)))
                for r in range(p))
    return (m + 1) // 2 + drawn


def run(spec: dict) -> dict:
    _import_program()
    from dynspgemm.bench import ExperimentConfig, run_experiment
    from layers import Hooks, layer_metrics

    cfg = ExperimentConfig(**spec["config"])
    hooks = Hooks(traced=spec["trace"])
    hooks.install()
    t_call = time.perf_counter()
    records, checksum = run_experiment(cfg)
    t_ret = time.perf_counter()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    first, last = hooks.boundaries()
    out = {
        "ok": True,
        "total_s": t_ret - t_call,
        "setup_s": first - t_call,
        "finish_s": t_ret - last,
        "batch_s": [r.total_seconds for r in records],
        # perf_counter stamps, comparable across processes of one host
        "stamps": {"call": t_call, "first": first, "last": last,
                   "ret": t_ret, "batches": hooks.batch_windows()},
        "nnz_update": sum(r.nnz_update for r in records),
        "bytes": sum(sum(r.bytes.values()) for r in records),
        "checksum": checksum,
        "peak_rss_mb": rss_mb,
        "verified": hooks.verified(),
    }
    if spec["trace"]:
        out["layers"] = layer_metrics(hooks, cfg.n_batches)
    if cfg.experiment == "insert":
        out["expected_nnz"] = expected_insert_nnz(cfg)
    return out


def main() -> int:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    spec = json.loads(sys.argv[1])
    try:
        out = run(spec)
    except Exception as exc:  # noqa: BLE001 - any failure is a failed run
        out = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
