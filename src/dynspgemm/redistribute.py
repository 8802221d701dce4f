"""Routing of update batches to their owner ranks and batched application.

A batch is one numpy structured array of update records of dtype
batch_dtype(sr): global row "i" and column "j" (int64), "op" (OP_UPSERT or
OP_DELETE, one byte) and value "v" in the semiring's wire dtype (the
semiring zero in a delete). The wire carries the records' own bytes: a send
is `tobytes()` of a bucket, a receive checks that each buffer holds whole
records (ValueError otherwise) and reads the joined buffers as one writable
batch, by one `np.frombuffer`.

Routing runs in two all-to-all steps, each over at most q peers: first within
the rank's grid column to fix the grid row, then within the grid row to fix
the grid column. Before each step a stable sort of the destinations, held in
the smallest unsigned dtype that fits q (numpy sorts those by radix), puts
the records into q contiguous buckets and keeps their order within a bucket;
the records are gathered into that order by index (`take`), the fast path
for structured records, where fancy indexing is several times slower.

A rank applies the batch it owns to its DcsrBlock as one sort, one search
and one splice (storage._splice): a stable sort of the records' local keys
(storage._stable_order, the packed-word sort), one search of the block for
the batch's keys, O(batch log nnz(block)), and one write that overwrites
held keys in place and deletes and inserts the others, copying the block,
O(nnz(block)), only when a key is added or removed.
"""

from __future__ import annotations

import numpy as np

from .grid import BlockPartition
from .storage import DcsrBlock, _run_starts, _splice, _stable_order, \
    locate

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
    """Raise ValueError unless batch has dtype batch_dtype(sr), every op
    code is OP_UPSERT or OP_DELETE and every update lies in the n_rows x
    n_cols window whose first position is (row_base, col_base)."""
    if batch.dtype != batch_dtype(sr):
        raise ValueError(f"batch dtype {batch.dtype} is not the {sr.name} "
                         f"update record")
    bad = batch["op"] > OP_DELETE   # the codes are 0 and 1
    if bad.any():
        k = int(bad.argmax())
        raise ValueError(f"update ({batch['i'][k]}, {batch['j'][k]}) has op "
                         f"code {batch['op'][k]}, neither OP_UPSERT nor "
                         f"OP_DELETE")
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
    small = dest.astype(np.min_scalar_type(n_buckets), copy=False)
    return small.argsort(kind="stable"), offsets


def _exchange(comm, axis: str, batch: np.ndarray, dest: np.ndarray,
              q: int) -> np.ndarray:
    order, offs = _buckets(dest, q)
    srt = batch.take(order)
    got = comm.all_to_all_v(
        axis, [srt[offs[g]:offs[g + 1]].tobytes() for g in range(q)])
    size = batch.dtype.itemsize
    for buf in got:
        if len(buf) % size:
            raise ValueError(f"received {len(buf)} bytes, not whole "
                             f"{size}-byte update records")
    return np.frombuffer(bytearray().join(got), dtype=batch.dtype)


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
    order, keys = _stable_order(
        (batch["i"] - row_base) * block.n_cols + (batch["j"] - col_base))
    upsert = batch["op"][order] == OP_UPSERT
    first = _run_starts(keys)
    last = np.roll(first, -1)  # the last record of each run of equal keys
    run_keys = keys[last]
    pos, stored = locate(block.keys(), run_keys)
    # present before a record: the previous record of its run upserted, or
    # for the first of a run, the block stores the position
    before = np.roll(upsert, 1)
    before[first] = stored
    inserted = int(np.count_nonzero(upsert & ~before))
    deleted = int(np.count_nonzero(~upsert & before))

    final = upsert[last]
    vals = sr.decode_array(batch["v"].take(order[last]).tobytes(), len(pos))
    hit, new = stored & final, ~stored & final
    _splice((block,), pos[hit], (vals[hit],), pos[stored & ~final], pos[new],
            run_keys[new], (vals[new],))
    return inserted, deleted
