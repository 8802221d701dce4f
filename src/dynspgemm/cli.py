"""Command-line entry point for the experiment harness.

Exit codes: 0 success, 2 bad configuration, input or output, 3 maintained product
failed the cross-check, 4 estimated work above the resource cap.
"""

from __future__ import annotations

import argparse
import sys

from .bench import (
    _MAX_GRID_SIDE,
    _PRESETS,
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    MetricsRecord,
    ResourceCapError,
    VerificationError,
    emit_csv,
    run_experiment,
)
from .semiring import REGISTRY
from .transport import PHASE_NAMES


def _parse_rmat(text: str) -> tuple[int, int]:
    """Parse 'scale=S,ef=E' (ef optional, default 16)."""
    fields = {}
    for item in text.split(","):
        if "=" not in item:
            raise ConfigError(f"--rmat expects key=value pairs, got {item!r}")
        key, _, val = item.partition("=")
        key = key.strip()
        if key not in ("scale", "ef"):
            raise ConfigError(f"--rmat keys are scale and ef, got {key!r}")
        try:
            fields[key] = int(val)
        except ValueError as exc:
            raise ConfigError(f"--rmat {key} must be an integer: {exc}") from exc
    if "scale" not in fields:
        raise ConfigError("--rmat needs scale=<int>")
    return fields["scale"], fields.get("ef", 16)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dynspgemm",
        description="Batch-dynamic distributed sparse matrix product experiments "
                    "on a simulated process grid.")
    p.add_argument("experiment", choices=EXPERIMENTS)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", metavar="PATH",
                     help="graph file (Matrix Market or 0-based edge list)")
    src.add_argument("--rmat", metavar="SPEC",
                     help="synthetic power-law graph, e.g. scale=14,ef=16")
    p.add_argument("--semiring", choices=sorted(REGISTRY),
                   help="value algebra (default plus-times-i64; spgemm-general "
                        "defaults to min-plus)")
    p.add_argument("--grid", type=int, default=1, metavar="Q",
                   help=f"grid side, at most {_MAX_GRID_SIDE}; simulates Q*Q "
                        "ranks (default 1)")
    p.add_argument("--batch-size", type=int, default=1024, metavar="N",
                   help="updates per rank per batch (default 1024)")
    p.add_argument("--batches", type=int, default=10, metavar="K",
                   help="number of batches (default 10)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--verify-cap", type=int, default=20_000_000, metavar="NNZ",
                   help="cross-check the maintained product against a full "
                        "recompute when the work estimate is at most this")
    p.add_argument("--random-values", action="store_true",
                   help="seeded per-entry values instead of the multiplicative "
                        "identity")
    p.add_argument("--out", metavar="CSV",
                   help="write per-phase metrics here; bytes count each "
                        "off-rank byte at the sender and at the receiver")
    return p


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    scale = ef = None
    if args.rmat is not None:
        scale, ef = _parse_rmat(args.rmat)
    return ExperimentConfig(
        experiment=args.experiment,
        input_path=args.input,
        rmat_scale=scale,
        rmat_edge_factor=ef if ef is not None else 16,
        semiring=args.semiring,
        q=args.grid,
        batch_size=args.batch_size,
        n_batches=args.batches,
        seed=args.seed,
        random_values=args.random_values,
        verify_cap=args.verify_cap,
    )


def _summarize(records: list[MetricsRecord]) -> str:
    """One line per batch. "bytes moved" counts each off-rank byte at the
    sender and again at the receiver, so it is twice the wire volume. The
    size shown is the product's (nnz_c) for the experiments that keep one
    and the matrix's (nnz_a) for those whose path is "apply"."""
    lines = []
    for rec in records:
        busiest = max(PHASE_NAMES, key=lambda ph: rec.seconds[ph])
        if _PRESETS[rec.experiment].path != "apply":
            size = f"nnz_c={rec.nnz_c}"
        else:
            size = f"nnz_a={rec.nnz_a}"
        lines.append(
            f"batch {rec.batch_idx}: {rec.total_seconds:.4f}s, "
            f"{sum(rec.bytes.values())} bytes moved (sender + receiver "
            f"counts), {size}, "
            f"slowest phase {busiest} ({rec.seconds[busiest]:.4f}s)")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        records, checksum = run_experiment(cfg)
        if args.out:
            emit_csv(records, args.out)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except ResourceCapError as exc:
        print(f"refusing to run: {exc}", file=sys.stderr)
        return 4
    if records:
        print(_summarize(records))
    print(f"checksum {checksum}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
