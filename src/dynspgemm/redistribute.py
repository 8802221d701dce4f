"""Routing of update batches to their owner ranks and batched application.

A batch is one numpy structured array of update records of dtype
batch_dtype(sr): global row "i" and column "j" (int64), "op" (OP_UPSERT or
OP_DELETE, one byte) and value "v" in the semiring's wire dtype (the
semiring zero in a delete). The wire carries the records' own bytes: a send
is `tobytes()`, a receive `np.frombuffer`.

Routing runs in two all-to-all steps, each over at most q peers: first within
the rank's grid column to fix the grid row, then within the grid row to fix
the grid column. Before each step a stable argsort by destination puts the
records into q contiguous buckets and keeps their order within a bucket.

A rank applies the batch it owns to its DcsrBlock as one sort and merge: a
stable argsort of the records' local keys, overwrites in place, and one
sorted merge for the new and deleted keys. The block is searched once, for
the batch's keys, so the searches cost O(batch log nnz(block)); the one
O(nnz(block)) copy happens only when a key is added or removed.
"""

from __future__ import annotations

import numpy as np

from .grid import BlockPartition
from .storage import DcsrBlock, _merge_keys, _run_starts, locate

OP_UPSERT = 0
OP_DELETE = 1


def batch_dtype(sr) -> np.dtype:
    return np.dtype([("i", "<i8"), ("j", "<i8"), ("op", "<u1"), ("v", sr.np_dtype)])


def update_batch(sr, rows, cols, vals=None, ops=None) -> np.ndarray:
    """A batch of updates at the global positions (rows[k], cols[k]): upserts
    of vals (the multiplicative identity when None), or deletes where ops, an
    array or one code for all, is OP_DELETE. A delete carries the zero."""
    batch = np.zeros(len(rows), dtype=batch_dtype(sr))
    batch["i"] = rows
    batch["j"] = cols
    batch["v"] = sr.one if vals is None else vals
    if ops is not None:
        batch["op"] = ops
        batch["v"][batch["op"] != OP_UPSERT] = sr.zero
    return batch


def _check_batch(batch: np.ndarray, sr, row_base: int, col_base: int,
                 n_rows: int, n_cols: int) -> None:
    """Raise ValueError unless batch has dtype batch_dtype(sr) and every
    update lies in the n_rows x n_cols window whose first position is
    (row_base, col_base)."""
    if batch.dtype != batch_dtype(sr):
        raise ValueError(f"batch dtype {batch.dtype} is not the {sr.name} "
                         f"update record")
    i, j = batch["i"], batch["j"]
    bad = ((i < row_base) | (i >= row_base + n_rows)
           | (j < col_base) | (j >= col_base + n_cols))
    if bad.any():
        k = int(bad.argmax())
        raise ValueError(
            f"update ({i[k]}, {j[k]}) outside rows [{row_base}, "
            f"{row_base + n_rows}) x cols [{col_base}, {col_base + n_cols})")


# ---------------------------------------------------------------------------
# two-step routing
# ---------------------------------------------------------------------------

def _buckets(dest: np.ndarray, n_buckets: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable order of the records by bucket, and the n_buckets + 1 offsets:
    bucket b is order[offsets[b]:offsets[b + 1]]."""
    offsets = np.zeros(n_buckets + 1, dtype=np.int64)
    np.cumsum(np.bincount(dest, minlength=n_buckets), out=offsets[1:])
    return np.argsort(dest, kind="stable"), offsets


def _exchange(comm, axis: str, batch: np.ndarray, dest: np.ndarray,
              q: int) -> np.ndarray:
    order, offs = _buckets(dest, q)
    srt = batch[order]
    got = comm.all_to_all_v(
        axis, [srt[offs[g]:offs[g + 1]].tobytes() for g in range(q)])
    # frombuffer raises ValueError on a buffer that is not whole records
    return np.concatenate([np.frombuffer(buf, dtype=batch.dtype) for buf in got])


def redistribute_updates(comm, part: BlockPartition, batch: np.ndarray,
                         sr) -> np.ndarray:
    """Deliver every update of a batch (dtype batch_dtype(sr)) to the rank
    owning its (row, col) position; returns the batch this rank owns.

    Step 1 corrects the grid row (exchange within this rank's grid column),
    step 2 corrects the grid column (exchange within the grid row). Each step
    talks to at most q peers.
    """
    _check_batch(batch, sr, 0, 0, part.n_rows, part.n_cols)
    rowfixed = _exchange(comm, "col", batch, part.owner_grid_rows(batch["i"]),
                         part.q)
    return _exchange(comm, "row", rowfixed,
                     part.owner_grid_cols(rowfixed["j"]), part.q)


# ---------------------------------------------------------------------------
# batched application
# ---------------------------------------------------------------------------

def apply_batch(block: DcsrBlock, batch: np.ndarray, sr,
                row_base: int, col_base: int) -> tuple[int, int]:
    """Apply an owned batch (global coordinates) to the local block whose
    first position is (row_base, col_base), with the result of applying its
    records in batch order: an upsert inserts or overwrites, a delete removes
    the position if present. An update outside the block raises ValueError
    before any entry changes.

    Returns (inserted, deleted): the records that inserted a position absent
    just before them, and the deletes that found one present.
    """
    _check_batch(batch, sr, row_base, col_base, block.n_rows, block.n_cols)
    keys = (batch["i"] - row_base) * block.n_cols + (batch["j"] - col_base)
    order = keys.argsort(kind="stable")
    keys = keys[order]
    upsert = batch["op"][order] == OP_UPSERT
    first = _run_starts(keys)
    last = np.roll(first, -1)  # the last record of each run of equal keys
    run_keys = keys[last]
    dk = block.keys()
    pos, stored = locate(dk, run_keys)
    # present before a record: the previous record of its run upserted, or
    # for the first of a run, the block stores the position
    before = np.roll(upsert, 1)
    before[first] = stored
    inserted = int(np.count_nonzero(upsert & ~before))
    deleted = int(np.count_nonzero(~upsert & before))

    final = upsert[last]
    vals = sr.decode_array(batch["v"][order[last]].tobytes(), len(pos))
    hit = stored & final
    block.vals[pos[hit]] = vals[hit]
    gone = stored & ~final
    new = ~stored & final
    n_gone = np.count_nonzero(gone)
    if n_gone or new.any():
        old_vals, at = block.vals, pos[new]
        if n_gone:
            keep = np.ones(len(dk), dtype=bool)
            keep[pos[gone]] = False
            dk, old_vals = dk[keep], old_vals[keep]
            # the deleted keys below a new key are runs before it
            at -= np.cumsum(gone)[new]
        _merge_keys(block, dk, old_vals, at, run_keys[new], vals[new])
    return inserted, deleted
