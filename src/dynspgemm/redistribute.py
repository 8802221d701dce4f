"""Routing of update tuples to their owner ranks and batched application.

Routing runs in two all-to-all steps, each over at most q peers: first within
the rank's grid column to fix the grid row, then within the grid row to fix
the grid column. Tuples are counting-sorted into the q destination buckets
before each step, so the whole path is linear and stable.
"""

from __future__ import annotations

import random
from typing import NamedTuple

import numpy as np

from .grid import BlockPartition
from .storage import DynamicBlock

OP_UPSERT = 0
OP_DELETE = 1


class UpdateTuple(NamedTuple):
    row: int
    col: int
    op: int          # OP_UPSERT or OP_DELETE
    value: object    # ignored for deletes


def upsert(i: int, j: int, v) -> UpdateTuple:
    return UpdateTuple(i, j, OP_UPSERT, v)


def delete(i: int, j: int) -> UpdateTuple:
    return UpdateTuple(i, j, OP_DELETE, None)


# ---------------------------------------------------------------------------
# tuple wire codec
# ---------------------------------------------------------------------------

def _tuple_dtype(sr) -> np.dtype:
    return np.dtype([("i", "<u8"), ("j", "<u8"), ("op", "<u1"), ("v", sr.np_dtype)])


def encode_tuples(tuples: list[UpdateTuple], sr) -> bytes:
    dt = _tuple_dtype(sr)
    arr = np.zeros(len(tuples), dtype=dt)
    if tuples:
        arr["i"] = [t.row for t in tuples]
        arr["j"] = [t.col for t in tuples]
        arr["op"] = [t.op for t in tuples]
        arr["v"] = [sr.zero if t.op == OP_DELETE else t.value for t in tuples]
    return arr.tobytes()


def decode_tuples(buf: bytes, sr) -> list[UpdateTuple]:
    dt = _tuple_dtype(sr)
    if len(buf) % dt.itemsize:
        raise ValueError(f"tuple buffer length {len(buf)} not a multiple of {dt.itemsize}")
    arr = np.frombuffer(buf, dtype=dt)
    vals = sr.decode_values(arr["v"].tobytes(), len(arr))
    return [
        UpdateTuple(int(i), int(j), int(op), None if op else v)
        for i, j, op, v in zip(arr["i"].tolist(), arr["j"].tolist(),
                               arr["op"].tolist(), vals)
    ]


# ---------------------------------------------------------------------------
# counting sort
# ---------------------------------------------------------------------------

def counting_sort(items: list, keys: list[int], n_buckets: int) -> tuple[list, list[int]]:
    """Stable counting sort of items by integer bucket keys.

    Returns (sorted_items, offsets) where offsets has n_buckets + 1 entries and
    bucket b occupies sorted_items[offsets[b]:offsets[b+1]].
    """
    counts = [0] * n_buckets
    for k in keys:
        counts[k] += 1
    offsets = [0] * (n_buckets + 1)
    for b in range(n_buckets):
        offsets[b + 1] = offsets[b] + counts[b]
    out = [None] * len(items)
    cursor = offsets[:-1].copy()
    for item, k in zip(items, keys):
        out[cursor[k]] = item
        cursor[k] += 1
    return out, offsets


# ---------------------------------------------------------------------------
# two-step routing
# ---------------------------------------------------------------------------

def redistribute_updates(comm, part: BlockPartition, tuples: list[UpdateTuple],
                         sr) -> list[UpdateTuple]:
    """Deliver every tuple to the rank owning its (row, col) position.

    Step 1 corrects the grid row (exchange within this rank's grid column),
    step 2 corrects the grid column (exchange within the grid row). Each step
    talks to at most q peers.
    """
    q = part.q
    for t in tuples:
        if not (0 <= t.row < part.n_rows and 0 <= t.col < part.n_cols):
            raise ValueError(
                f"tuple ({t.row}, {t.col}) outside {part.n_rows}x{part.n_cols}")

    keys = [part.owner_grid_row(t.row) for t in tuples]
    srt, offs = counting_sort(tuples, keys, q)
    bufs = [encode_tuples(srt[offs[g]:offs[g + 1]], sr) for g in range(q)]
    got = comm.all_to_all_v("col", bufs)
    rowfixed: list[UpdateTuple] = []
    for buf in got:
        rowfixed.extend(decode_tuples(buf, sr))

    keys = [part.owner_grid_col(t.col) for t in rowfixed]
    srt, offs = counting_sort(rowfixed, keys, q)
    bufs = [encode_tuples(srt[offs[g]:offs[g + 1]], sr) for g in range(q)]
    got = comm.all_to_all_v("row", bufs)
    owned: list[UpdateTuple] = []
    for buf in got:
        owned.extend(decode_tuples(buf, sr))
    return owned


# ---------------------------------------------------------------------------
# batched application
# ---------------------------------------------------------------------------

def apply_batch(block: DynamicBlock, tuples: list[UpdateTuple], sr,
                row_base: int, col_base: int,
                mode: str = "set") -> tuple[int, int]:
    """Apply owned tuples (global coordinates) to the local block.

    mode "set": upserts overwrite existing values; mode "add": upserts fold
    into existing values with the semiring add. Deletes remove the position if
    present.

    Returns (inserted, deleted) counts.
    """
    if mode not in ("set", "add"):
        raise ValueError(f"unknown apply mode {mode!r}")
    combine = sr.add if mode == "add" else None
    return block.apply_updates(tuples, row_base, col_base, combine)


# ---------------------------------------------------------------------------
# index permutation
# ---------------------------------------------------------------------------

class IndexPermutation:
    """Seeded random relabeling of row and column indices, used to spread
    skewed inputs evenly over the grid. Fisher-Yates via random.Random(seed);
    the seed is kept so a run can be reproduced or inverted later."""

    def __init__(self, n_rows: int, n_cols: int, seed: int):
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.seed = seed
        rng = random.Random(seed)
        self.row_map = list(range(n_rows))
        rng.shuffle(self.row_map)
        self.col_map = list(range(n_cols))
        rng.shuffle(self.col_map)
        self.row_inv = _invert(self.row_map)
        self.col_inv = _invert(self.col_map)

    def map_entry(self, i: int, j: int) -> tuple[int, int]:
        return self.row_map[i], self.col_map[j]

    def unmap_entry(self, i: int, j: int) -> tuple[int, int]:
        return self.row_inv[i], self.col_inv[j]

    def map_tuple(self, t: UpdateTuple) -> UpdateTuple:
        return UpdateTuple(self.row_map[t.row], self.col_map[t.col], t.op, t.value)


def _invert(perm: list[int]) -> list[int]:
    inv = [0] * len(perm)
    for old, new in enumerate(perm):
        inv[new] = old
    return inv
