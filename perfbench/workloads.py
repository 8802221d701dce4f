"""The benchmark's workloads: one experiment configuration each, and why it
was chosen.

Every workload drives the public API (`run_experiment` with an
`ExperimentConfig`); only the seed varies between runs. All rank threads
share one interpreter lock, so a grid-2 run keeps about one core busy; no
workload times a 16-rank grid.

Correctness gate: `verify_cap` equals `flops_cap` in every configuration.
A product workload whose work estimate is above the verification cap is
therefore refused by the resource cap instead of being verified by luck,
and a run in which no verification happened counts as failed.
"""

from __future__ import annotations

from dataclasses import dataclass

FLOPS_CAP = 100_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict   # ExperimentConfig fields, all but the seed

    @property
    def is_product(self) -> bool:
        return self.config["experiment"].startswith("spgemm-")


WORKLOADS = {w.name: w for w in (
    # One rank, so no byte moves and no rank thread waits. The time goes to
    # gustavson_multiply, add_into into C, the static verification and the
    # checksum over the largest C of the three (about 1.2M entries after 8
    # batches). It exercises kernel, merge and checksum work and bypasses
    # transport and the wire codec, so its bytes per update are 0. The pool
    # (about 53k entries) caps the run at 26 batches of 2048.
    Workload(
        "algebraic-q1",
        "one rank, integer ring: kernel, merge into C, verification and "
        "checksum work with no transport",
        dict(experiment="spgemm-algebraic", semiring="plus-times-i64",
             random_values=True, rmat_scale=12, rmat_edge_factor=8, q=1,
             batch_size=2048, n_batches=8),
    ),
    # The general path's pattern, bitfield and masked-recompute pipeline:
    # 11 sparse aggregations per rank per batch, per-rank imbalance and
    # barrier waits. At this batch size the general path moves about three
    # times the bytes of a static recompute, so aggregation, codec and path
    # choice changes show here.
    Workload(
        "general-q2",
        "four ranks, min-plus: pattern, bitfield and masked-recompute "
        "pipeline with sparse aggregations and barrier waits",
        dict(experiment="spgemm-general", semiring="min-plus",
             random_values=True, rmat_scale=12, rmat_edge_factor=8, q=2,
             batch_size=128, n_batches=8),
    ),
    # The write path beside the two read paths: only routing (two
    # all-to-all steps and the tuple codec) and DynamicBlock.apply_updates
    # run. No kernel, aggregation or product runs, so it is the control on
    # which kernel, merge and aggregation changes must show no change. The
    # pool caps the run at 13 full batches of 4096 per rank.
    Workload(
        "ingest-q2",
        "four ranks, insert only: update routing, tuple codec and block "
        "apply; the control for kernel and aggregation changes",
        dict(experiment="insert", rmat_scale=14, rmat_edge_factor=16, q=2,
             batch_size=4096, n_batches=12),
    ),
)}


def experiment_config(workload: Workload, seed: int, **overrides) -> dict:
    """The ExperimentConfig fields for one run of a workload."""
    cfg = dict(workload.config, seed=seed, verify_cap=FLOPS_CAP,
               flops_cap=FLOPS_CAP)
    cfg.update(overrides)
    return cfg
