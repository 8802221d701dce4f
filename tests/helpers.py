"""Shared test utilities: independent oracles and distributed scaffolding.

Oracles here are written from first principles (plain dict folds, dense
numpy products) and never call the kernels under test.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from dynspgemm import (
    BlockPartition,
    Counters,
    DcsrBlock,
    DistMatrix,
    apply_batch,
    dcsr_from_coo,
    run_spmd,
    update_batch,
)
from dynspgemm import storage
from dynspgemm.redistribute import _check_batch


def oracle_product(a_map: dict, b_map: dict, sr) -> dict:
    """Reference product of global entry maps {(i,j): v}."""
    b_rows: dict[int, list] = {}
    for (k, j), v in b_map.items():
        b_rows.setdefault(k, []).append((j, v))
    out: dict = {}
    for (i, k), av in a_map.items():
        for j, bv in b_rows.get(k, ()):
            x = sr.mul(av, bv)
            cur = out.get((i, j))
            out[(i, j)] = x if cur is None else sr.add(cur, x)
    return out


def dcsr_from_row_map(n_rows: int, n_cols: int, row_map: dict,
                      structure_only: bool = False) -> DcsrBlock:
    """row -> {col: value} mapping to a DCSR block."""
    entries = [(r, c, v) for r, d in row_map.items() for c, v in d.items()]
    rows, cols, vals = zip(*entries) if entries else ((), (), ())
    return dcsr_from_coo(n_rows, n_cols, rows, cols,
                         None if structure_only else list(vals))


def block_from_triples(n_rows: int, n_cols: int, triples,
                       dtype=None) -> DcsrBlock:
    """Canonical block of (row, col, value) triples, values of the given
    dtype, or of the one numpy infers when dtype is None (float64 for no
    triples); later duplicates overwrite earlier ones."""
    triples = list(triples)[::-1]   # the first-wins fold keeps the last
    rows, cols, vals = zip(*triples) if triples else ((), (), ())
    return dcsr_from_coo(n_rows, n_cols, rows, cols,
                         np.asarray(vals, dtype=dtype))


def loaded_block(n_rows: int, n_cols: int, triples, sr) -> DcsrBlock:
    """An operand block loaded as the experiments load one: the triples as
    upserts, in order, applied to an empty block of sr's value dtype."""
    block = DcsrBlock.empty(n_rows, n_cols, dtype=sr.np_dtype)
    triples = list(triples)
    rows, cols, vals = zip(*triples) if triples else ((), (), ())
    apply_batch(block, update_batch(sr, rows, cols, vals), sr, 0, 0)
    return block


def block_triples(block):
    """(row, col, value) of a block's entries in key order, as Python
    scalars; value None when structure-only."""
    rows, cols, vals = block.to_arrays()
    vals = [None] * len(cols) if vals is None else vals.tolist()
    return zip(rows.tolist(), cols.tolist(), vals)


def entry_map(block) -> dict:
    """{(row, col): value} of a block's entries, value None when
    structure-only."""
    return {(r, c): v for r, c, v in block_triples(block)}


def position_set(block) -> set:
    """Stored (row, col) positions of a block."""
    return set(entry_map(block))


def _owner(i: int, n: int, q: int) -> int:
    """The part of the balanced split of n into q (split_range) that holds
    index i, in closed form; ValueError outside [0, n)."""
    if not 0 <= i < n:
        raise ValueError(f"index {i} out of range [0, {n})")
    hi, r = divmod(n, q)
    head = r * (hi + 1)
    if i < head:
        return i // (hi + 1)
    return r + (i - head) // hi


def owner_grid_row(part: BlockPartition, i: int) -> int:
    """Grid row of the blocks that hold global row i."""
    return _owner(i, part.n_rows, part.q)


def owner_grid_col(part: BlockPartition, j: int) -> int:
    """Grid column of the blocks that hold global column j."""
    return _owner(j, part.n_cols, part.q)


def owner_coords(part: BlockPartition, i: int, j: int) -> tuple[int, int]:
    """Grid coordinates of the block that owns global (i, j)."""
    return owner_grid_row(part, i), owner_grid_col(part, j)


def to_local(part: BlockPartition, i: int,
             j: int) -> tuple[int, int, int, int]:
    """global (i, j) -> (grid_row, grid_col, local_row, local_col)."""
    gi, gj = owner_coords(part, i, j)
    return gi, gj, i - part.row_starts[gi], j - part.col_starts[gj]


def volume_tuple(counters) -> tuple:
    """A Counters' byte totals by kind, then its collective rounds."""
    return (counters.bytes_p2p, counters.bytes_broadcast,
            counters.bytes_alltoall, counters.bytes_aggregate,
            counters.collective_rounds)


def random_map(rng, n_rows: int, n_cols: int, density: float,
               values="int") -> dict:
    """Random global entry map; values: 'int' in [-9, 9] \\ {0}, 'posint' in
    [1, 20], 'float' integer-valued floats."""
    total = n_rows * n_cols
    k = int(total * density)
    if k == 0:
        return {}
    flat = rng.choice(total, size=min(k, total), replace=False)
    out = {}
    for f in flat.tolist():
        if values == "posint":
            v = int(rng.integers(1, 21))
        elif values == "float":
            v = float(rng.integers(1, 21))
        else:
            v = int(rng.integers(1, 10)) * (1 if rng.random() < 0.5 else -1)
        out[(f // n_cols, f % n_cols)] = v
    return out


def dist_from_triples(part: BlockPartition, comm, triples,
                      sr) -> DistMatrix:
    """This rank's block of global (row, col, value) triples: every rank
    checks every triple (ValueError outside the matrix) and keeps those its
    block owns, in sr's value dtype. Later duplicates overwrite earlier
    ones."""
    d = DistMatrix.empty(part, comm, sr)
    rows, cols, vals = zip(*triples) if triples else ((), (), ())
    batch = update_batch(sr, rows, cols, vals)
    _check_batch(batch, sr, 0, 0, part.n_rows, part.n_cols)
    mine = ((part.owner_grid_rows(batch["i"]) == d.grid_row)
            & (part.owner_grid_cols(batch["j"]) == d.grid_col))
    apply_batch(d.block, batch.take(np.flatnonzero(mine)), sr,
                d.row_base, d.col_base)
    return d


def to_global(part: BlockPartition, gi: int, gj: int, li: int,
              lj: int) -> tuple[int, int]:
    """The global (row, col) of local position (li, lj) of block (gi, gj)."""
    return part.row_starts[gi] + li, part.col_starts[gj] + lj


def counters_snapshot(c: Counters) -> Counters:
    """A copy of c, its peers_sent a copy too."""
    return replace(c, peers_sent=dict(c.peers_sent))


def global_entries(d: DistMatrix) -> dict:
    """This rank's entries of d keyed by global (row, col)."""
    i, j = d.grid_row, d.grid_col
    return {to_global(d.part, i, j, r, c): v
            for r, c, v in block_triples(d.block)}


def dist_from_map(part: BlockPartition, comm, m: dict, sr) -> DistMatrix:
    return dist_from_triples(
        part, comm, [(i, j, v) for (i, j), v in m.items()], sr)


def update_from_map(part: BlockPartition, comm, m: dict,
                    structure_only: bool = False) -> DistMatrix:
    """Update matrix (a DCSR block) holding this rank's slice of the global map."""
    i, j = comm.grid_row, comm.grid_col
    r0, c0 = part.row_starts[i], part.col_starts[j]
    blk = block_from_triples(*part.block_shape(i, j), [
        (gi - r0, gj - c0, v) for (gi, gj), v in m.items()
        if owner_coords(part, gi, gj) == (i, j)])
    if structure_only:
        blk = DcsrBlock(blk.n_rows, blk.n_cols, blk.keys(), None)
    return DistMatrix(part, i, j, blk)


def gather_maps(per_rank: list) -> dict:
    """Union per-rank global_entries() results (disjoint by ownership)."""
    out: dict = {}
    for m in per_rank:
        out.update(m)
    return out


def spmd_collect(q: int, fn, *args) -> list:
    """run_spmd over a q x q grid."""
    return run_spmd(q * q, fn, *args)


def apply_delta(base: dict, delta: dict, sr) -> dict:
    """Algebraic fold of a delta map into a base map (keeps explicit zeros,
    mirroring the structural convention)."""
    out = dict(base)
    for pos, v in delta.items():
        out[pos] = sr.add(out[pos], v) if pos in out else v
    return out


def hypersparse_delta(rng, base: dict, n_rows: int, n_cols: int, sr,
                      max_entries: int = 8) -> dict:
    """Random algebraic delta: mix of inserts at new positions, value bumps
    at existing positions, and removals encoded as additive inverses."""
    delta: dict = {}
    existing = list(base)
    count = int(rng.integers(1, max_entries + 1))
    for _ in range(count):
        kind = rng.random()
        if existing and kind < 0.3:
            pos = existing[int(rng.integers(len(existing)))]
            delta[pos] = sr.add(delta.get(pos, 0), int(rng.integers(1, 10)))
        elif existing and kind < 0.5:
            pos = existing[int(rng.integers(len(existing)))]
            # inverse of the current value: position becomes an explicit zero
            cur = apply_delta(base, delta, sr).get(pos, 0)
            delta[pos] = sr.add(delta.get(pos, 0), -cur)
        else:
            pos = (int(rng.integers(n_rows)), int(rng.integers(n_cols)))
            delta[pos] = sr.add(delta.get(pos, 0), int(rng.integers(1, 10)))
    return delta


def mixed_general_batch(rng, cur: dict, n_rows: int, n_cols: int,
                        max_entries: int = 8):
    """A general-update batch: returns (new_map, change_positions) where
    changes mix inserts, increases, decreases and deletions."""
    new = dict(cur)
    changed: set = set()
    existing = list(cur)
    count = int(rng.integers(1, max_entries + 1))
    for _ in range(count):
        kind = rng.random()
        if existing and kind < 0.25:
            pos = existing[int(rng.integers(len(existing)))]
            if pos in new:
                del new[pos]          # deletion
                changed.add(pos)
        elif existing and kind < 0.5:
            pos = existing[int(rng.integers(len(existing)))]
            if pos in new:
                new[pos] = new[pos] + float(rng.integers(1, 8))   # increase
                changed.add(pos)
        elif existing and kind < 0.7:
            pos = existing[int(rng.integers(len(existing)))]
            if pos in new:
                new[pos] = new[pos] - float(rng.integers(1, 8))   # decrease
                changed.add(pos)
        else:
            pos = (int(rng.integers(n_rows)), int(rng.integers(n_cols)))
            new[pos] = float(rng.integers(1, 21))                 # insert
            changed.add(pos)
    return new, changed


def refuse_permutations(monkeypatch) -> None:
    """Make every build of a sort permutation (storage._stable_order) raise,
    so a test can show that a structure-only fold builds none."""
    def refuse(keys):
        raise AssertionError("a structure-only fold built a sort permutation")

    monkeypatch.setattr(storage, "_stable_order", refuse)
