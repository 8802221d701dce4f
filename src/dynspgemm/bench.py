"""Desk-scale experiment harness: graph ingestion, R-MAT generation, the
experiment driver and per-phase time/volume metrics.

Experiments run all q*q simulated ranks inside this process, each in one
rank worker whose single batch loop serves every experiment's _Preset:
draw, route, apply (and for products, update or recompute C), and one
MetricsRecord per batch, which run_experiment folds over the ranks. Each
rank loads its operand straight from its row-band slice of the sorted,
deduplicated pool, whose (row, col) order is already the block's key order,
so set-up builds no update batch. Insertion pools are partitioned
round-robin across ranks and each rank draws its batches without
replacement, seeded per (rank, batch index), so reruns are exactly
reproducible. Final-state checksums hash each entry's global position and
wire value bits with a vectorised 64-bit mix and xor-fold the hashes, so
they are order-free and comparable across grid sides. Product runs are
verified by comparing the maintained C with a from-scratch recompute,
position by position and value by value, on sorted arrays.
"""

from __future__ import annotations

import csv
import itertools
import math
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .distmm import DistMatrix, spgemm_algebraic_init, \
    spgemm_algebraic_update, spgemm_general_update, summa_static
from .grid import BlockPartition
from .redistribute import OP_DELETE, apply_batch, redistribute_updates, \
    update_batch
from .semiring import PLUS_TIMES_I64, REGISTRY, Semiring, by_name
from .storage import DcsrBlock, _run_starts, dcsr_from_coo, same_entries
from .transport import PHASE_NAMES, PhaseRecorder, keep_freed_pages, \
    run_spmd


class ConfigError(ValueError):
    """Invalid experiment configuration or unparseable input."""


class VerificationError(RuntimeError):
    """Maintained product disagrees with the from-scratch recompute."""


class ResourceCapError(RuntimeError):
    """Estimated work exceeds the configured resource cap."""


@dataclass(frozen=True)
class _Preset:
    """What an experiment runs; every batch goes into the left operand A.

    a0: what A starts as: "empty", the even pool indices ("even", whose
        batches then draw the odd ones) or the whole "pool".
    op: what a batch does to the pool entries it draws: "insert" them with
        their values, "modify" them to _modified_value, or "delete" them.
    path: how a batch reaches the result. "apply" applies it to A in the
        merge phase, and the checksum names A. Any other path makes B the
        pool, applies the batch to A in the redistribute phase and keeps
        C = A . B by the "algebraic" or "general" update, or recomputes it
        with summa_static ("static"); the checksum names C.
    """
    a0: str
    op: str
    path: str


_PRESETS = {
    "construct": _Preset("empty", "insert", "apply"),
    "insert": _Preset("even", "insert", "apply"),
    "update": _Preset("pool", "modify", "apply"),
    "delete": _Preset("pool", "delete", "apply"),
    "spgemm-algebraic": _Preset("empty", "insert", "algebraic"),
    "spgemm-general": _Preset("empty", "insert", "general"),
    "spgemm-static": _Preset("empty", "insert", "static"),
}
EXPERIMENTS = tuple(_PRESETS)

RMAT_A, RMAT_B, RMAT_C, RMAT_D = 0.57, 0.19, 0.19, 0.05

# The most vertices whose entry keys r * n + c all fit in int64.
_MAX_VERTICES = math.isqrt(np.iinfo(np.int64).max)
# The largest grid side: run_spmd starts one OS thread per rank, q * q at once.
_MAX_GRID_SIDE = 32


@dataclass
class ExperimentConfig:
    experiment: str
    input_path: str | None = None
    rmat_scale: int | None = None
    rmat_edge_factor: int = 16
    semiring: str | None = None   # None: plus-times-i64, min-plus for general
    q: int = 1                    # grid side; q*q simulated ranks
    batch_size: int = 1024        # updates per rank per batch
    n_batches: int = 10
    seed: int = 1
    random_values: bool = False
    verify_cap: int = 20_000_000   # above this, warn and skip the cross-check
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
        general = _PRESETS[cfg.experiment].path == "general"
        name = "min-plus" if general else "plus-times-i64"
    if name not in REGISTRY:
        raise ConfigError(f"unknown semiring {name!r}; known: {sorted(REGISTRY)}")
    return by_name(name)


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.experiment not in _PRESETS:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    if (cfg.input_path is None) == (cfg.rmat_scale is None):
        raise ConfigError("exactly one of input_path / rmat_scale is required")
    if cfg.rmat_scale is not None and not (1 <= cfg.rmat_scale <= 24):
        raise ConfigError("rmat scale must be in [1, 24]")
    if cfg.rmat_scale is not None and cfg.rmat_edge_factor < 1:
        raise ConfigError("rmat edge factor must be >= 1")
    if not 1 <= cfg.q <= _MAX_GRID_SIDE:
        raise ConfigError(f"grid side must be in [1, {_MAX_GRID_SIDE}]")
    if cfg.batch_size < 0 or cfg.n_batches < 0:
        raise ConfigError("batch size and batch count must be >= 0")
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0")
    resolve_semiring(cfg)


# ---------------------------------------------------------------------------
# input sources
# ---------------------------------------------------------------------------

def load_edges(path: str, sr: Semiring = PLUS_TIMES_I64):
    """Read a graph file as an undirected adjacency: every edge {u, v} yields
    upserts (u,v) and (v,u), self-loops once, values the multiplicative
    identity. Returns (n, batch), the update batch sorted by (row, col) and
    deduplicated.

    Detects Matrix Market (coordinate real/integer/pattern, general or
    symmetric) by its banner; anything else is parsed as a whitespace
    edge list of 0-based "u v [weight]" lines with # or % comments.
    """
    n, rows, cols = _load_positions(path)
    return n, update_batch(sr, rows, cols)


def _load_positions(path: str) -> tuple[int, np.ndarray, np.ndarray]:
    """(n, rows, cols) of the sorted, deduplicated adjacency positions."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline()
            if first.startswith("%%MatrixMarket"):
                n, pairs = _parse_matrix_market(first, fh, path)
            else:
                n, pairs = _parse_edge_list(first, fh, path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read input {path}: {exc}") from exc
    if n > _MAX_VERTICES:
        raise ConfigError(f"{path}: {n} vertices, more than the "
                          f"{_MAX_VERTICES} whose entry keys fit in int64")
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return n, *symmetrized_pool(arr[:, 0], arr[:, 1], n)


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
    edges = []
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
            if min(nr, nc, nnz) < 0:
                raise ConfigError(f"{path}:{lineno}: negative size in '{text}'")
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
        edges.append((u, v))
    if dims is None:
        raise ConfigError(f"{path}: missing size line")
    if len(edges) != dims[1]:
        raise ConfigError(
            f"{path}: header declares {dims[1]} entries, found {len(edges)}")
    return dims[0], edges


def _parse_edge_list(first: str, fh, path: str):
    edges = []
    n = 0
    for lineno, line in enumerate(itertools.chain([first], fh), start=1):
        text = line.strip()
        if not text or text[0] in "#%":
            continue
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
        edges.append((u, v))
    return n, edges


# ---------------------------------------------------------------------------
# R-MAT generation
# ---------------------------------------------------------------------------

def rmat_arrays(scale: int, edge_factor: int,
                seed: int) -> tuple[np.ndarray, np.ndarray]:
    """edge_factor * 2^scale directed edges over 2^scale vertices, drawn with
    the standard recursive-quadrant probabilities (0.57, 0.19, 0.19, 0.05).
    Duplicates are kept; deterministic per seed.

    Per bit, two arrays of m uniforms are drawn into one reused buffer: the
    row bits from the first, the column bits from the second against the
    row bit's threshold, chosen by exact bool logic, not a float select.
    The bits collect in int32 words until the final int64 cast."""
    m = edge_factor << scale
    rng = np.random.default_rng(seed)
    word = np.int32 if scale < 32 else np.int64
    src, dst, shifted = (np.zeros(m, dtype=word) for _ in range(3))
    u = np.empty(m)
    ii, jj, flip = (np.empty(m, dtype=bool) for _ in range(3))
    p_row1 = RMAT_C + RMAT_D
    p_col1_row1 = RMAT_D / (RMAT_C + RMAT_D)
    p_col1_row0 = RMAT_B / (RMAT_A + RMAT_B)
    for bit in range(scale):
        np.less(rng.random(out=u), p_row1, out=ii)
        rng.random(out=u)
        # jj = u < (p_col1_row1 if ii else p_col1_row0), as
        # (u < p10) ^ (ii & ((u < p10) ^ (u < p11)))
        np.less(u, p_col1_row0, out=jj)
        np.less(u, p_col1_row1, out=flip)
        flip ^= jj
        flip &= ii
        jj ^= flip
        src |= np.left_shift(ii, bit, out=shifted, dtype=word)
        dst |= np.left_shift(jj, bit, out=shifted, dtype=word)
    return src.astype(np.int64), dst.astype(np.int64)


def symmetrized_pool(src: np.ndarray, dst: np.ndarray,
                     n: int) -> tuple[np.ndarray, np.ndarray]:
    """Unique undirected adjacency positions from a directed edge stream:
    both orientations of every edge, self-loops once, sorted by (row, col).

    One in-place sort of the keys r * n + c and a run-start mask. numpy's
    unique gives the same array, but from numpy 2.3 on it builds a hash
    table and then sorts, which costs tens of times as much on a scale-14
    pool."""
    keys = np.concatenate([src * n + dst, dst * n + src])
    keys.sort()
    keys = keys[_run_starts(keys)]
    return keys // n, keys % n


# ---------------------------------------------------------------------------
# checksums
# ---------------------------------------------------------------------------

# splitmix64 constants: the golden-ratio increment and the two finaliser
# multipliers (Steele, Lea & Flood, "Fast Splittable Pseudorandom Number
# Generators", OOPSLA 2014).
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)


def _mix64(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """One splitmix64 step per element of a uint64 array, modulo 2**64, in
    place: z is overwritten and returned, and t, of z's size, is scratch
    (each new array of a block's size costs fresh pages)."""
    z += _GAMMA
    z ^= np.right_shift(z, _S30, out=t)
    z *= _MIX1
    z ^= np.right_shift(z, _S27, out=t)
    z *= _MIX2
    z ^= np.right_shift(z, _S31, out=t)
    return z


# Entries hashed per pass: three 64 KiB scratch arrays stay in cache, where
# whole-block passes would stream the block through memory 27 times.
_CHECKSUM_CHUNK = 8192


def _local_checksum(dist: DistMatrix, sr: Semiring) -> tuple[int, int]:
    """(entry count, xor of per-entry 64-bit hashes) over the local block.

    An entry hashes its global row, then its global column, then the bits of
    its value as the wire carries them (the 8-byte word of an i8 or f8
    value, the 0/1 byte of a bool), each folded in by xor and one splitmix64
    step. The xor fold is order-free, so the result does not depend on the
    storage order, and the fold over ranks does not depend on the grid.

    The block is hashed in chunks of _CHECKSUM_CHUNK entries through scratch
    arrays reused from chunk to chunk, and the chunks' folds are xor-folded
    in turn: the same hash as one pass over the whole block."""
    block = dist.block
    keys, n_cols = block.keys(), max(block.n_cols, 1)
    vals = block.vals.astype(sr.np_dtype, copy=False)
    wide = vals.dtype.itemsize == 8
    size = min(len(keys), _CHECKSUM_CHUNK)
    h, c, t = (np.empty(size, dtype=np.uint64) for _ in range(3))
    acc = 0
    for lo in range(0, len(keys), _CHECKSUM_CHUNK):
        k = keys[lo:lo + _CHECKSUM_CHUNK]
        m = len(k)
        rows, cols = h[:m].view(np.int64), c[:m].view(np.int64)
        np.floor_divide(k, n_cols, out=rows)
        np.subtract(k, np.multiply(rows, n_cols, out=cols), out=cols)
        rows += dist.row_base
        cols += dist.col_base
        z, s = h[:m], t[:m]
        _mix64(z, s)
        z ^= c[:m]
        _mix64(z, s)
        v = vals[lo:lo + m]
        z ^= v.view("<u8") if wide else v
        acc ^= int(np.bitwise_xor.reduce(_mix64(z, s)))
    return len(keys), acc


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

def _estimate_flops(n: int, rows: np.ndarray) -> int:
    """Multiplication work bound for the squared symmetric adjacency: the sum
    over inner indices of (degree)^2. Used for the resource guard and the
    verification-cap decision."""
    deg = np.bincount(rows, minlength=n).astype(np.float64)
    return int((deg * deg).sum())


def _entry_values(cfg: ExperimentConfig, sr: Semiring, m: int) -> np.ndarray:
    """Per-pool-entry values: multiplicative identity, or (with
    random_values) entry-indexed draws so results stay grid-independent."""
    if not cfg.random_values:
        return np.full(m, sr.one, dtype=sr.np_dtype)
    rng = np.random.default_rng(cfg.seed)
    return rng.integers(1, 100, size=m).astype(sr.np_dtype)


def _modified_value(i: np.ndarray, j: np.ndarray, seed: int, sr: Semiring):
    """Entry-deterministic replacement values for the 'update' experiment:
    ((i * 2654435761 + j * 40503 + seed * 97) mod 95) + 2, reduced term by
    term so that int64 arithmetic cannot overflow."""
    v = (i % 95 * (2654435761 % 95) + j % 95 * (40503 % 95)
         + seed * 97 % 95) % 95 + 2
    return v.astype(sr.np_dtype)


def run_experiment(cfg: ExperimentConfig) -> tuple[list[MetricsRecord], str]:
    """Execute one experiment over all simulated ranks; returns per-batch
    metric records plus the final-state checksum. Product experiments (any
    path but "apply") verify the maintained product against a from-scratch
    recompute when the estimated work is at most cfg.verify_cap, and
    otherwise issue a RuntimeWarning that names the estimate and the cap.
    Sets glibc's allocator policy for the whole process first
    (transport.keep_freed_pages), as an MPI launcher owns its ranks'
    processes."""
    validate_config(cfg)
    sr = resolve_semiring(cfg)
    keep_freed_pages()
    n, rows, cols = _build_pool(cfg)
    vals = _entry_values(cfg, sr, len(rows))
    do_verify = False
    if _PRESETS[cfg.experiment].path != "apply":
        est = _estimate_flops(n, rows)
        if est > cfg.flops_cap:
            raise ResourceCapError(
                f"estimated multiply work {est} exceeds cap {cfg.flops_cap}")
        do_verify = est <= cfg.verify_cap
        if not do_verify:
            warnings.warn(f"estimated multiply work {est} exceeds verify_cap "
                          f"{cfg.verify_cap}: the product is not checked",
                          RuntimeWarning, stacklevel=2)
    p = cfg.q * cfg.q
    outs = run_spmd(p, _rank_worker, cfg, sr, n, rows, cols, vals, do_verify)
    records = [_fold_ranks(recs) for recs in zip(*(o[0] for o in outs))]
    checksum = combine_checksums(o[1] for o in outs)
    if not all(o[2] for o in outs):
        raise VerificationError(
            "maintained product disagrees with the static recompute")
    return records, checksum


def _fold_ranks(recs) -> MetricsRecord:
    """One batch's record over all ranks: the slowest rank's seconds, and the
    bytes and entry counts summed."""
    out = replace(
        recs[0],
        seconds={ph: max(r.seconds[ph] for r in recs) for ph in PHASE_NAMES},
        bytes={ph: sum(r.bytes[ph] for r in recs) for ph in PHASE_NAMES},
        total_seconds=max(r.total_seconds for r in recs))
    for key in ("nnz_a", "nnz_b", "nnz_update", "nnz_c", "nnz_filtered"):
        setattr(out, key, sum(getattr(r, key) for r in recs))
    return out


def _build_pool(cfg: ExperimentConfig):
    if cfg.rmat_scale is not None:
        n = 1 << cfg.rmat_scale
        src, dst = rmat_arrays(cfg.rmat_scale, cfg.rmat_edge_factor, cfg.seed)
        rows, cols = symmetrized_pool(src, dst, n)
        return n, rows, cols
    n, rows, cols = _load_positions(cfg.input_path)
    if n == 0:
        raise ConfigError(f"{cfg.input_path}: no vertices found")
    return n, rows, cols


def _load_operand(comm, part: BlockPartition, sr: Semiring, rows: np.ndarray,
                  cols: np.ndarray, vals: np.ndarray, a0: str) -> DistMatrix:
    """This rank's block of an operand that starts as a0 ("empty", "even" or
    "pool", as in _Preset).

    The pool (rows, cols) must be sorted by (row, col) and free of
    duplicates, as symmetrized_pool gives it: a rank finds its grid row's
    entries as one slice, tests only that slice for its columns, and takes
    the selected entries' local keys, strictly increasing in pool order,
    and their values as its block as they stand, with no update batch, sort
    or search.
    """
    if a0 == "empty":
        return DistMatrix.empty(part, comm, sr)
    i, j = comm.grid_row, comm.grid_col
    r0, c0 = part.row_starts[i], part.col_starts[j]
    n_rows, n_cols = part.block_shape(i, j)
    lo, hi = rows.searchsorted([r0, r0 + n_rows])
    band = cols[lo:hi]
    mine = (band >= c0) & (band < c0 + n_cols)
    if a0 == "even":
        mine[(lo + 1) % 2::2] = False   # odd pool indices are drawn
    own = lo + np.flatnonzero(mine)
    keys = rows[own]
    keys -= r0
    keys *= n_cols
    keys += cols[own]
    keys -= c0
    return DistMatrix(part, i, j, DcsrBlock(
        n_rows, n_cols, keys, vals[own].astype(sr.np_dtype, copy=False)))


def _rank_worker(comm, cfg: ExperimentConfig, sr: Semiring, n: int,
                 rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                 do_verify: bool) -> tuple[list[MetricsRecord], tuple, bool]:
    """One rank of an experiment: load the operands, run the batch loop and
    return (per-batch records, local checksum, verification outcome). The
    experiment's _Preset decides what the operands start as, what a batch
    draws and which path it takes."""
    preset = _PRESETS[cfg.experiment]
    part = BlockPartition(n, n, comm.q)
    i, j = comm.grid_row, comm.grid_col
    r0, c0 = part.row_starts[i], part.col_starts[j]
    a = _load_operand(comm, part, sr, rows, cols, vals, preset.a0)
    b = None if preset.path == "apply" else _load_operand(
        comm, part, sr, rows, cols, vals, "pool")

    state = c = None
    if preset.path in ("algebraic", "general"):
        state = spgemm_algebraic_init(comm, a, b, sr)
        c = state.C   # updated in place
        empty_delta = DistMatrix.empty(part, comm, sr)
    # Batch 0 starts when the slowest rank's set-up is done, so that its
    # latency counts no other rank's set-up.
    comm.barrier()

    # Draw pool: the pool indices this rank may insert/modify/delete, drawn
    # without replacement across batches, seeded per (rank, batch).
    # This rank's share of them is every size-th, from its rank on, of the
    # odd indices (a0 "even") or of all indices.
    step = 2 if preset.a0 == "even" else 1
    remaining = np.arange(step - 1 + step * comm.rank, len(rows),
                          step * comm.size)

    records = []
    for k in range(cfg.n_batches):
        rng = np.random.default_rng(
            np.random.SeedSequence(cfg.seed, spawn_key=(comm.rank, k)))
        sel = rng.choice(remaining.size,
                         size=min(cfg.batch_size, remaining.size),
                         replace=False)
        chosen, remaining = remaining[sel], np.delete(remaining, sel)
        bi, bj = rows[chosen], cols[chosen]
        if preset.op == "delete":
            batch = update_batch(sr, bi, bj, ops=OP_DELETE)
        elif preset.op == "modify":
            batch = update_batch(sr, bi, bj,
                                 _modified_value(bi, bj, cfg.seed, sr))
        else:
            batch = update_batch(sr, bi, bj, vals[chosen])

        phases = PhaseRecorder(comm)
        t0 = time.perf_counter()
        with phases.phase("redistribute"):
            owned = redistribute_updates(comm, part, batch, sr)
            if state is not None:
                # The batch's positions are unique (drawn without replacement
                # from a pool of unique positions split across ranks), so the
                # first-wins of dcsr_from_coo equals applying the batch in
                # order.
                delta = DistMatrix(part, i, j, dcsr_from_coo(
                    *a.local_shape, owned["i"] - r0, owned["j"] - c0,
                    owned["v"]))
        stats = {}
        if preset.path == "algebraic":
            # a still holds the pre-batch left operand here.
            spgemm_algebraic_update(comm, state, a, delta, b, empty_delta,
                                    phases=phases)
        with phases.phase("merge" if preset.path == "apply" else
                          "redistribute"):
            apply_batch(a.block, owned, sr, r0, c0)
        if preset.path == "general":
            # With an empty right-operand delta the pre-batch left operand is
            # never consulted, so the maintained matrix serves as both.
            stats = spgemm_general_update(comm, state, a, delta, b,
                                          empty_delta, a, phases=phases)
        elif preset.path == "static":
            c = summa_static(comm, a, b, sr, phases=phases)
        total = time.perf_counter() - t0
        records.append(MetricsRecord(
            cfg.experiment, cfg.q, cfg.batch_size, k, cfg.seed,
            phases.seconds, phases.bytes, nnz_a=a.block.nnz,
            nnz_b=0 if b is None else b.block.nnz, nnz_update=len(owned),
            nnz_c=0 if c is None else c.block.nnz,
            nnz_filtered=stats.get("nnz_filtered", 0), total_seconds=total))

    if preset.path == "static" and c is None:   # no batch ran
        c = summa_static(comm, a, b, sr)
    verify_ok = True
    if do_verify and state is not None:
        oracle = summa_static(comm, a, b, sr)
        verify_ok = same_entries(oracle.block, c.block, sr.np_dtype)
    return records, _local_checksum(a if c is None else c, sr), verify_ok


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
    """Inverse of emit_csv (total_seconds is not serialized). Raises
    ConfigError naming the file and line of a malformed row or an unknown
    phase, and naming the file when it is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if tuple(header or ()) != CSV_HEADER:
                raise ConfigError(f"{path}: unexpected CSV header")
            by_batch: dict[int, MetricsRecord] = {}
            for row in reader:
                try:
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
                    if ph not in PHASE_NAMES:
                        raise ValueError(f"unknown phase {ph!r}")
                    rec.seconds[ph] = float(secs)
                    rec.bytes[ph] = int(nbytes)
                except ValueError as exc:   # a wrong field count or number
                    raise ConfigError(
                        f"{path}:{reader.line_num}: {exc}") from exc
            return [by_batch[b] for b in sorted(by_batch)]
    except UnicodeDecodeError as exc:   # decoded ahead of the rows, so no line
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise OSError(f"cannot read metrics from {path}: {exc}") from exc
