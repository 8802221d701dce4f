"""Desk-scale experiment harness: graph ingestion, R-MAT generation, batch
experiment drivers and per-phase time/volume metrics.

Experiments run all q*q simulated ranks inside this process. Insertion pools
are partitioned round-robin across ranks and each rank draws its batches
without replacement, seeded per (rank, batch index), so reruns are exactly
reproducible. Final-state checksums are order-free (per-entry hash, xor
folded) and therefore comparable across grid sides.
"""

from __future__ import annotations

import csv
import struct
import time
from dataclasses import dataclass, field
from hashlib import blake2b

import numpy as np

from .distmm import DistMatrix, spgemm_algebraic_init, \
    spgemm_algebraic_update, spgemm_general_update, summa_static
from .grid import BlockPartition
from .redistribute import UpdateTuple, apply_batch, delete, \
    redistribute_updates, upsert
from .semiring import PLUS_TIMES_I64, REGISTRY, Semiring, by_name
from .storage import DcsrBlock, DynamicBlock
from .transport import PHASE_NAMES, PhaseRecorder, run_spmd


class ConfigError(ValueError):
    """Invalid experiment configuration or unparseable input."""


class VerificationError(RuntimeError):
    """Maintained product disagrees with the from-scratch recompute."""


class ResourceCapError(RuntimeError):
    """Estimated work exceeds the configured resource cap."""


EXPERIMENTS = ("construct", "insert", "update", "delete",
               "spgemm-algebraic", "spgemm-general", "spgemm-static")
_SPGEMM = ("spgemm-algebraic", "spgemm-general", "spgemm-static")

RMAT_A, RMAT_B, RMAT_C, RMAT_D = 0.57, 0.19, 0.19, 0.05


@dataclass
class ExperimentConfig:
    experiment: str
    input_path: str | None = None
    rmat_scale: int | None = None
    rmat_edge_factor: int = 16
    semiring: str | None = None   # None: plus-times-i64, min-plus for general
    q: int = 1                    # grid side; q*q simulated ranks
    batch_size: int = 1024        # update tuples per rank per batch
    n_batches: int = 10
    seed: int = 1
    ell: int = 64
    out_path: str | None = None
    random_values: bool = False
    verify_cap: int = 20_000_000   # skip the static cross-check above this
    flops_cap: int = 100_000_000   # refuse configs above this estimate


@dataclass
class MetricsRecord:
    experiment: str
    q: int
    batch_size: int
    batch_idx: int
    seed: int
    seconds: dict = field(default_factory=dict)   # phase -> max over ranks
    # phase -> sum over ranks; each off-rank byte is counted at the sender
    # and again at the receiver, so the sum is twice the wire volume
    bytes: dict = field(default_factory=dict)
    nnz_a: int = 0
    nnz_b: int = 0
    nnz_update: int = 0
    nnz_c: int = 0
    nnz_filtered: int = 0
    total_seconds: float = 0.0


def resolve_semiring(cfg: ExperimentConfig) -> Semiring:
    name = cfg.semiring
    if name is None:
        name = "min-plus" if cfg.experiment == "spgemm-general" else "plus-times-i64"
    if name not in REGISTRY:
        raise ConfigError(f"unknown semiring {name!r}; known: {sorted(REGISTRY)}")
    return by_name(name)


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    if (cfg.input_path is None) == (cfg.rmat_scale is None):
        raise ConfigError("exactly one of input_path / rmat_scale is required")
    if cfg.rmat_scale is not None and not (1 <= cfg.rmat_scale <= 24):
        raise ConfigError("rmat scale must be in [1, 24]")
    if cfg.rmat_scale is not None and cfg.rmat_edge_factor < 1:
        raise ConfigError("rmat edge factor must be >= 1")
    if cfg.q < 1:
        raise ConfigError("grid side must be >= 1")
    if cfg.batch_size < 0 or cfg.n_batches < 0:
        raise ConfigError("batch size and batch count must be >= 0")
    if cfg.ell not in (8, 16, 32, 64):
        raise ConfigError("bloom bits must be one of 8, 16, 32, 64")
    resolve_semiring(cfg)


# ---------------------------------------------------------------------------
# input sources
# ---------------------------------------------------------------------------

def load_edges(path: str, sr: Semiring = PLUS_TIMES_I64):
    """Read a graph file as an undirected adjacency: every edge {u, v} yields
    upserts (u,v) and (v,u), self-loops once, values the multiplicative
    identity. Returns (n, tuples) with tuples sorted and deduplicated.

    Detects Matrix Market (coordinate real/integer/pattern, general or
    symmetric) by its banner; anything else is parsed as a whitespace
    edge list of 0-based "u v [weight]" lines with # or % comments.
    """
    n, pairs = _load_pairs(path)
    return n, [upsert(u, v, sr.one) for u, v in pairs]


def _load_pairs(path: str) -> tuple[int, list[tuple[int, int]]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline()
            if first.startswith("%%MatrixMarket"):
                return _parse_matrix_market(first, fh, path)
            return _parse_edge_list(first, fh, path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read input {path}: {exc}") from exc


def _parse_matrix_market(banner: str, fh, path: str):
    fields = banner.strip().split()
    if len(fields) < 5 or fields[1] != "matrix" or fields[2] != "coordinate":
        raise ConfigError(f"{path}:1: unsupported Matrix Market banner")
    value_kind, symmetry = fields[3], fields[4]
    if value_kind not in ("real", "integer", "pattern"):
        raise ConfigError(f"{path}:1: unsupported value type {value_kind!r}")
    if symmetry not in ("general", "symmetric"):
        raise ConfigError(f"{path}:1: unsupported symmetry {symmetry!r}")
    lineno = 1
    dims = None
    want_value = value_kind != "pattern"
    edges = set()
    count = 0
    for line in fh:
        lineno += 1
        text = line.strip()
        if not text or text.startswith("%"):
            continue
        parts = text.split()
        if dims is None:
            if len(parts) != 3:
                raise ConfigError(f"{path}:{lineno}: expected 'rows cols nnz'")
            try:
                nr, nc, nnz = (int(x) for x in parts)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad size line: {exc}") from exc
            if nr != nc:
                raise ConfigError(
                    f"{path}:{lineno}: adjacency must be square, got {nr}x{nc}")
            dims = (nr, nnz)
            continue
        if len(parts) != (3 if want_value else 2):
            raise ConfigError(f"{path}:{lineno}: malformed entry line")
        try:
            u, v = int(parts[0]) - 1, int(parts[1]) - 1
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad index: {exc}") from exc
        if not (0 <= u < dims[0] and 0 <= v < dims[0]):
            raise ConfigError(f"{path}:{lineno}: index out of declared range")
        count += 1
        edges.add((u, v))
        edges.add((v, u))
    if dims is None:
        raise ConfigError(f"{path}: missing size line")
    if count != dims[1]:
        raise ConfigError(
            f"{path}: header declares {dims[1]} entries, found {count}")
    return dims[0], sorted(edges)


def _parse_edge_list(first: str, fh, path: str):
    edges = set()
    n = 0
    lineno = 0

    def take(line: str, lineno: int) -> None:
        nonlocal n
        text = line.strip()
        if not text or text[0] in "#%":
            return
        parts = text.split()
        if len(parts) < 2:
            raise ConfigError(f"{path}:{lineno}: expected 'u v' per line")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad vertex id: {exc}") from exc
        if u < 0 or v < 0:
            raise ConfigError(f"{path}:{lineno}: negative vertex id")
        n = max(n, u + 1, v + 1)
        edges.add((u, v))
        edges.add((v, u))

    lineno += 1
    take(first, lineno)
    for line in fh:
        lineno += 1
        take(line, lineno)
    return n, sorted(edges)


# ---------------------------------------------------------------------------
# R-MAT generation
# ---------------------------------------------------------------------------

def rmat_arrays(scale: int, edge_factor: int,
                seed: int) -> tuple[np.ndarray, np.ndarray]:
    """edge_factor * 2^scale directed edges over 2^scale vertices, drawn with
    the standard recursive-quadrant probabilities (0.57, 0.19, 0.19, 0.05).
    Duplicates are kept; deterministic per seed."""
    n_bits = scale
    m = edge_factor << scale
    rng = np.random.default_rng(seed)
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    p_row1 = RMAT_C + RMAT_D
    p_col1_row1 = RMAT_D / (RMAT_C + RMAT_D)
    p_col1_row0 = RMAT_B / (RMAT_A + RMAT_B)
    for bit in range(n_bits):
        ii = rng.random(m) < p_row1
        pj = np.where(ii, p_col1_row1, p_col1_row0)
        jj = rng.random(m) < pj
        src |= ii.astype(np.int64) << bit
        dst |= jj.astype(np.int64) << bit
    return src, dst


def rmat_generate(scale: int, edge_factor: int, seed: int,
                  sr: Semiring = PLUS_TIMES_I64) -> list[UpdateTuple]:
    """The directed edge stream as upsert tuples (values the multiplicative
    identity), exactly as drawn: duplicates retained, order preserved."""
    src, dst = rmat_arrays(scale, edge_factor, seed)
    one = sr.one
    return [upsert(int(u), int(v), one) for u, v in zip(src, dst)]


def symmetrized_pool(src: np.ndarray, dst: np.ndarray,
                     n: int) -> tuple[np.ndarray, np.ndarray]:
    """Unique undirected adjacency positions from a directed edge stream:
    both orientations of every edge, self-loops once, sorted by (row, col)."""
    keys = np.concatenate([src * n + dst, dst * n + src])
    keys = np.unique(keys)
    return keys // n, keys % n


# ---------------------------------------------------------------------------
# checksums
# ---------------------------------------------------------------------------

_CHK_POS = struct.Struct("<QQ")


def _local_checksum(dist: DistMatrix, sr: Semiring) -> tuple[int, int]:
    """(entry count, xor of per-entry 64-bit hashes) over the local block,
    keyed by global position and wire-encoded value. Order-free, so the fold
    over ranks is grid-independent."""
    enc = sr.encode_values
    count = 0
    acc = 0
    for (gi, gj), v in dist.global_entries().items():
        h = blake2b(_CHK_POS.pack(gi, gj) + enc([v]), digest_size=8).digest()
        acc ^= int.from_bytes(h, "little")
        count += 1
    return count, acc


def combine_checksums(parts) -> str:
    count = 0
    acc = 0
    for c, x in parts:
        count += c
        acc ^= x
    return f"nnz={count};hash={acc:016x}"


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------

def _owner_vec(idx: np.ndarray, n: int, q: int) -> np.ndarray:
    """Vectorized owner range of global indices under the balanced split."""
    base, extra = divmod(n, q)
    cut = extra * (base + 1)
    low = idx // (base + 1)
    high = extra + (idx - cut) // max(base, 1)
    return np.where(idx < cut, low, high)


def _estimate_flops(n: int, rows: np.ndarray) -> int:
    """Multiplication work bound for the squared symmetric adjacency: the sum
    over inner indices of (degree)^2. Used for the resource guard and the
    verification-cap decision."""
    deg = np.bincount(rows, minlength=n).astype(np.float64)
    return int((deg * deg).sum())


def _entry_values(cfg: ExperimentConfig, sr: Semiring,
                  m: int) -> np.ndarray | None:
    """Per-pool-entry values: multiplicative identity, or (with
    random_values) entry-indexed draws so results stay grid-independent."""
    if not cfg.random_values:
        return None
    rng = np.random.default_rng(cfg.seed)
    base = rng.integers(1, 100, size=m)
    if sr.np_dtype.kind == "u":
        return np.ones(m, dtype=bool)
    if sr.np_dtype.kind == "f":
        return base.astype(np.float64)
    return base


def _modified_value(i: int, j: int, seed: int, sr: Semiring):
    """Entry-deterministic replacement value for the 'update' experiment."""
    v = ((i * 2654435761 + j * 40503 + seed * 97) % 95) + 2
    if sr.np_dtype.kind == "u":
        return True
    if sr.np_dtype.kind == "f":
        return float(v)
    return v


def run_experiment(cfg: ExperimentConfig) -> tuple[list[MetricsRecord], str]:
    """Execute one experiment over all simulated ranks; returns per-batch
    metric records plus the final-state checksum. spgemm experiments verify
    the maintained product against a from-scratch recompute when the
    estimated work is under cfg.verify_cap."""
    validate_config(cfg)
    sr = resolve_semiring(cfg)
    n, rows, cols = _build_pool(cfg)
    vals = _entry_values(cfg, sr, len(rows))
    do_verify = False
    if cfg.experiment in _SPGEMM:
        est = _estimate_flops(n, rows)
        if est > cfg.flops_cap:
            raise ResourceCapError(
                f"estimated multiply work {est} exceeds cap {cfg.flops_cap}")
        do_verify = est <= cfg.verify_cap
    p = cfg.q * cfg.q
    outs = run_spmd(p, _rank_worker, cfg, sr, n, rows, cols, vals, do_verify)

    records = []
    for b in range(cfg.n_batches):
        rec = MetricsRecord(cfg.experiment, cfg.q, cfg.batch_size, b, cfg.seed)
        for ph in PHASE_NAMES:
            rec.seconds[ph] = max(o["records"][b]["seconds"][ph] for o in outs)
            rec.bytes[ph] = sum(o["records"][b]["bytes"][ph] for o in outs)
        for key in ("nnz_a", "nnz_b", "nnz_update", "nnz_c", "nnz_filtered"):
            setattr(rec, key, sum(o["records"][b][key] for o in outs))
        rec.total_seconds = max(o["records"][b]["total_seconds"] for o in outs)
        records.append(rec)
    checksum = combine_checksums(o["checksum"] for o in outs)
    if do_verify and not all(o["verify_ok"] for o in outs):
        raise VerificationError(
            "maintained product disagrees with the static recompute")
    return records, checksum


def _build_pool(cfg: ExperimentConfig):
    if cfg.rmat_scale is not None:
        n = 1 << cfg.rmat_scale
        src, dst = rmat_arrays(cfg.rmat_scale, cfg.rmat_edge_factor, cfg.seed)
        rows, cols = symmetrized_pool(src, dst, n)
        return n, rows, cols
    n, pairs = _load_pairs(cfg.input_path)
    if n == 0:
        raise ConfigError(f"{cfg.input_path}: no vertices found")
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return n, arr[:, 0], arr[:, 1]


def _rank_worker(comm, cfg: ExperimentConfig, sr: Semiring, n: int,
                 rows: np.ndarray, cols: np.ndarray,
                 vals: np.ndarray | None, do_verify: bool) -> dict:
    part = BlockPartition(n, n, comm.q)
    i, j = comm.grid_row, comm.grid_col
    r0, c0 = part.row_starts[i], part.col_starts[j]
    m = len(rows)
    p = comm.size

    own_r = _owner_vec(rows, n, comm.q)
    own_c = _owner_vec(cols, n, comm.q)
    mine_mask = (own_r == i) & (own_c == j)

    def owned_triples(sel: np.ndarray):
        lr = (rows[sel] - r0).tolist()
        lc = (cols[sel] - c0).tolist()
        lv = [sr.one] * len(lr) if vals is None else vals[sel].tolist()
        return zip(lr, lc, lv)

    def value_at(k: int):
        return sr.one if vals is None else vals[k].item()

    # Draw pool: the pool indices this rank may insert/modify/delete, drawn
    # without replacement across batches, seeded per (rank, batch).
    if cfg.experiment == "insert":
        drawable = np.flatnonzero(np.arange(m) % 2 == 1)
    else:
        drawable = np.arange(m)
    remaining = drawable[np.arange(drawable.size) % p == comm.rank]

    def draw(b: int) -> np.ndarray:
        nonlocal remaining
        take = min(cfg.batch_size, remaining.size)
        if take == 0:
            return np.empty(0, dtype=np.int64)
        rng = np.random.default_rng(
            np.random.SeedSequence(cfg.seed, spawn_key=(comm.rank, b)))
        sel = rng.choice(remaining.size, size=take, replace=False)
        chosen = remaining[sel]
        keep = np.ones(remaining.size, dtype=bool)
        keep[sel] = False
        remaining = remaining[keep]
        return chosen

    if cfg.experiment in _SPGEMM:
        return _spgemm_worker(comm, cfg, sr, part, mine_mask, owned_triples,
                              value_at, draw, rows, cols, do_verify)
    return _local_matrix_worker(comm, cfg, sr, part, mine_mask, owned_triples,
                                value_at, draw, rows, cols)


def _new_record() -> dict:
    return {"seconds": dict.fromkeys(PHASE_NAMES, 0.0),
            "bytes": dict.fromkeys(PHASE_NAMES, 0),
            "nnz_a": 0, "nnz_b": 0, "nnz_update": 0, "nnz_c": 0,
            "nnz_filtered": 0, "total_seconds": 0.0}


def _finish_record(rec: dict, phases: PhaseRecorder, t0: float) -> None:
    rec["seconds"] = dict(phases.seconds)
    rec["bytes"] = dict(phases.bytes)
    rec["total_seconds"] = time.perf_counter() - t0


def _local_matrix_worker(comm, cfg, sr, part, mine_mask, owned_triples,
                         value_at, draw, rows, cols) -> dict:
    i, j = comm.grid_row, comm.grid_col
    r0 = part.row_starts[i]
    c0 = part.col_starts[j]
    shape = part.block_shape(i, j)
    exp = cfg.experiment

    if exp == "construct":
        block = DynamicBlock(*shape)
    elif exp == "insert":
        pre = mine_mask & (np.arange(len(rows)) % 2 == 0)
        block = DynamicBlock.from_triples(*shape, owned_triples(np.flatnonzero(pre)))
    else:  # update, delete: start from the full adjacency
        block = DynamicBlock.from_triples(*shape, owned_triples(np.flatnonzero(mine_mask)))
    a = DistMatrix(part, i, j, block)

    records = []
    for b in range(cfg.n_batches):
        chosen = draw(b)
        if exp == "delete":
            tuples = [delete(int(rows[k]), int(cols[k])) for k in chosen]
        elif exp == "update":
            tuples = [upsert(int(rows[k]), int(cols[k]),
                             _modified_value(int(rows[k]), int(cols[k]),
                                             cfg.seed, sr))
                      for k in chosen]
        else:
            tuples = [upsert(int(rows[k]), int(cols[k]), value_at(int(k)))
                      for k in chosen]
        rec = _new_record()
        phases = PhaseRecorder(comm)
        t0 = time.perf_counter()
        with phases.phase("redistribute"):
            owned = redistribute_updates(comm, part, tuples, sr)
        with phases.phase("merge"):
            apply_batch(block, owned, sr, r0, c0, mode="set")
        _finish_record(rec, phases, t0)
        rec["nnz_a"] = block.nnz
        rec["nnz_update"] = len(owned)
        records.append(rec)

    return {"records": records, "checksum": _local_checksum(a, sr),
            "verify_ok": True}


def _spgemm_worker(comm, cfg, sr, part, mine_mask, owned_triples, value_at,
                   draw, rows, cols, do_verify: bool) -> dict:
    i, j = comm.grid_row, comm.grid_col
    r0 = part.row_starts[i]
    c0 = part.col_starts[j]
    shape = part.block_shape(i, j)
    exp = cfg.experiment

    b_block = DynamicBlock.from_triples(
        *shape, owned_triples(np.flatnonzero(mine_mask)))
    b_mat = DistMatrix(part, i, j, b_block)
    a_mat = DistMatrix.empty_dynamic(part, comm)
    state = None
    c_static = None
    if exp != "spgemm-static":
        state = spgemm_algebraic_init(comm, a_mat, b_mat, sr, ell=cfg.ell)
    empty_delta = DistMatrix(part, i, j, DcsrBlock.empty(*shape))

    records = []
    for b in range(cfg.n_batches):
        chosen = draw(b)
        tuples = [upsert(int(rows[k]), int(cols[k]), value_at(int(k)))
                  for k in chosen]
        rec = _new_record()
        phases = PhaseRecorder(comm)
        t0 = time.perf_counter()
        with phases.phase("redistribute"):
            owned = redistribute_updates(comm, part, tuples, sr)
            delta_dyn = DynamicBlock(*shape)
            for t in owned:
                delta_dyn.upsert(t.row - r0, t.col - c0, t.value)
        a_delta = DistMatrix(part, i, j, delta_dyn.to_dcsr())

        stats = {}
        if exp == "spgemm-algebraic":
            # a_mat still holds the pre-batch left operand here.
            spgemm_algebraic_update(comm, state, a_mat, a_delta, b_mat,
                                    empty_delta, phases=phases)
            with phases.phase("redistribute"):
                apply_batch(a_mat.block, owned, sr, r0, c0, mode="set")
        elif exp == "spgemm-general":
            with phases.phase("redistribute"):
                apply_batch(a_mat.block, owned, sr, r0, c0, mode="set")
            # With an empty right-operand delta the pre-batch left operand is
            # never consulted, so the maintained matrix serves as both.
            stats = spgemm_general_update(comm, state, a_mat, a_delta, b_mat,
                                          empty_delta, a_mat, phases=phases)
        else:
            with phases.phase("redistribute"):
                apply_batch(a_mat.block, owned, sr, r0, c0, mode="set")
            c_static = summa_static(comm, a_mat, b_mat, sr, phases=phases)
        _finish_record(rec, phases, t0)
        rec["nnz_a"] = a_mat.block.nnz
        rec["nnz_b"] = b_block.nnz
        rec["nnz_update"] = len(owned)
        rec["nnz_c"] = (c_static if state is None else state.C).block.nnz
        rec["nnz_filtered"] = stats.get("nnz_filtered", 0)
        records.append(rec)

    if state is not None:
        c_final = state.C
    else:
        if c_static is None:
            c_static = summa_static(comm, a_mat, b_mat, sr)
        c_final = c_static

    verify_ok = True
    if do_verify and state is not None:
        oracle = summa_static(comm, a_mat, b_mat, sr)
        verify_ok = oracle.block.entry_map() == state.C.block.entry_map()

    return {"records": records, "checksum": _local_checksum(c_final, sr),
            "verify_ok": verify_ok}


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

CSV_HEADER = ("experiment", "q", "batch_size", "batch_idx", "seed", "phase",
              "seconds", "bytes", "nnz_a", "nnz_b", "nnz_update", "nnz_c",
              "nnz_filtered")


def emit_csv(records: list[MetricsRecord], path: str) -> None:
    """One row per (batch, phase), fixed header and order. Byte-identical
    across reruns of the same config except the seconds column. The bytes
    column counts each off-rank byte at the sender and again at the
    receiver, so it sums to twice the wire volume."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(CSV_HEADER)
            for rec in records:
                for ph in PHASE_NAMES:
                    w.writerow([rec.experiment, rec.q, rec.batch_size,
                                rec.batch_idx, rec.seed, ph,
                                repr(rec.seconds[ph]), rec.bytes[ph],
                                rec.nnz_a, rec.nnz_b, rec.nnz_update,
                                rec.nnz_c, rec.nnz_filtered])
    except OSError as exc:
        raise OSError(f"cannot write metrics to {path}: {exc}") from exc


def parse_csv(path: str) -> list[MetricsRecord]:
    """Inverse of emit_csv (total_seconds is not serialized)."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if tuple(header or ()) != CSV_HEADER:
                raise ConfigError(f"{path}: unexpected CSV header")
            by_batch: dict[int, MetricsRecord] = {}
            for row in reader:
                (exp, q, bs, bi, seed, ph, secs, nbytes,
                 nnz_a, nnz_b, nnz_u, nnz_c, nnz_f) = row
                rec = by_batch.get(int(bi))
                if rec is None:
                    rec = MetricsRecord(exp, int(q), int(bs), int(bi),
                                        int(seed))
                    rec.nnz_a, rec.nnz_b = int(nnz_a), int(nnz_b)
                    rec.nnz_update, rec.nnz_c = int(nnz_u), int(nnz_c)
                    rec.nnz_filtered = int(nnz_f)
                    by_batch[int(bi)] = rec
                rec.seconds[ph] = float(secs)
                rec.bytes[ph] = int(nbytes)
            return [by_batch[b] for b in sorted(by_batch)]
    except OSError as exc:
        raise OSError(f"cannot read metrics from {path}: {exc}") from exc
