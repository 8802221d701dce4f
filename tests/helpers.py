"""Shared test utilities: independent oracles and distributed scaffolding.

Oracles here are written from first principles (plain dict folds, dense
numpy products) and never call the kernels under test.
"""

from __future__ import annotations

import numpy as np

from dynspgemm import (
    BlockPartition,
    DcsrBlock,
    DistMatrix,
    DynamicBlock,
    run_spmd,
)


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


def oracle_contribution_bits(a_map: dict, b_map: dict, ell: int) -> dict:
    """For each output position, the or-fold of 1 << (k mod ell) over all
    structurally contributing summation indices k."""
    b_rows: dict[int, list] = {}
    for (k, j), _ in b_map.items():
        b_rows.setdefault(k, []).append(j)
    out: dict = {}
    for (i, k), _ in a_map.items():
        bit = 1 << (k % ell)
        for j in b_rows.get(k, ()):
            out[(i, j)] = out.get((i, j), 0) | bit
    return out


def transpose_map(m: dict) -> dict:
    return {(j, i): v for (i, j), v in m.items()}


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


def dist_from_map(part: BlockPartition, comm, m: dict) -> DistMatrix:
    return DistMatrix.from_triples(
        part, comm, [(i, j, v) for (i, j), v in m.items()])


def update_from_map(part: BlockPartition, comm, m: dict,
                    structure_only: bool = False) -> DistMatrix:
    """Update matrix (a DCSR block) holding this rank's slice of the global map."""
    i, j = comm.grid_row, comm.grid_col
    r0, c0 = part.row_starts[i], part.col_starts[j]
    dyn = DynamicBlock(*part.block_shape(i, j))
    for (gi, gj), v in m.items():
        if part.owner_coords(gi, gj) == (i, j):
            dyn.upsert(gi - r0, gj - c0, v)
    blk = dyn.to_dcsr()
    if structure_only:
        blk = DcsrBlock(blk.n_rows, blk.n_cols, blk.nz_rows, blk.row_ptr,
                        blk.cols, None)
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
