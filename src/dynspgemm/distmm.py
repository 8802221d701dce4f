"""Distributed sparse matrix product and its batch-dynamic updates.

A matrix lives on a q x q process grid as one block per rank (DistMatrix).
The static product is a broadcast-based row/column algorithm.  After an
initial product, a batch of changes to the operands is folded into the
result in one of two ways:

* algebraic path: C' = C (+) Adelta . B' (+) A . Bdelta.  Exact when the
  semiring is a ring (deltas carry signed differences), and for insert-only
  batches whose addition is selective (min, or).
* general path: works for any semiring and any mix of inserts, modifies and
  deletes.  It recomputes exactly the output positions the batch can touch,
  from the rows of the new left operand that hold a touched position, and
  deletes touched positions that lost all support.  It filters those rows
  by row alone: no per-entry record of contributing summation indices is
  kept, so an algebraic and a general update may follow each other in any
  order.

Both paths push the two delta products to their owners through one routine,
_push_deltas, which states the cost: the algebraic path with values, the
general path without them, as its touched set. Every rank calls each
function collectively with its own Communicator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import BlockPartition
from .kernels import gustavson_multiply, masked_multiply, pattern_multiply
from .semiring import Semiring
from .storage import (
    DcsrBlock,
    STRUCTURE_CODEC,
    _check_same_shape,
    add_into,
    combine_blocks,
    dcsr_deserialize,
    dcsr_serialize,
    filter_rows_by_bloom,
    locate,
    replace_touched,
    semiring_codec,
)
from .transport import NULL_PHASES


class UnsupportedFeatureError(ValueError):
    """A batch the algebraic update cannot fold exactly: a non-insert batch
    under a semiring that is not a ring. The general update takes every
    batch."""


@dataclass
class DistMatrix:
    """One rank's view of a block-partitioned matrix: the partition map plus
    the locally owned DcsrBlock. Operands, which update batches change in
    place, maintained results (C) and update matrices,
    which carry one batch's changes, all hold the same block type.
    """

    part: BlockPartition
    grid_row: int
    grid_col: int
    block: DcsrBlock

    @property
    def row_base(self) -> int:
        return self.part.row_starts[self.grid_row]

    @property
    def col_base(self) -> int:
        return self.part.col_starts[self.grid_col]

    @property
    def local_shape(self) -> tuple[int, int]:
        return self.part.block_shape(self.grid_row, self.grid_col)

    @classmethod
    def empty(cls, part: BlockPartition, comm, sr: Semiring) -> "DistMatrix":
        """This rank's empty block, holding sr's value dtype."""
        i, j = comm.grid_row, comm.grid_col
        return cls(part, i, j,
                   DcsrBlock.empty(*part.block_shape(i, j), dtype=sr.np_dtype))


def _require_insert_only(a: DistMatrix, a_delta: DistMatrix,
                         b_delta: DistMatrix) -> None:
    """Local check that a batch only inserts new entries; a_delta shares a's
    stored layout, so it compares position by position."""
    if b_delta.block.nnz:
        raise UnsupportedFeatureError(
            "under a semiring that is not a ring, algebraic updates take "
            "left-operand inserts only; b_delta must be empty")
    keys = a_delta.block.keys()
    _, stored = locate(a.block.keys(), keys)
    if stored.any():
        r, c = divmod(int(keys[stored.argmax()]), a.block.n_cols)
        raise UnsupportedFeatureError(
            "under a semiring that is not a ring, algebraic updates "
            f"take inserts only; a_delta overwrites stored entry "
            f"({a.row_base + r}, {a.col_base + c})")


@dataclass
class SpgemmState:
    """Maintained product: the result C and its semiring. Both update paths
    fold a batch into C alone, so any order of algebraic and general updates
    keeps it exact."""

    C: DistMatrix
    sr: Semiring


def _check_inner(part_a: BlockPartition, part_b: BlockPartition, q: int) -> None:
    if part_a.q != q or part_b.q != q:
        raise ValueError("operand partitions do not match the grid")
    if part_a.n_cols != part_b.n_rows:
        raise ValueError(
            f"inner dimensions differ: {part_a.n_cols} vs {part_b.n_rows}")


def _rounds(comm, a_bytes, b_bytes, a_codec, b_codec, phases):
    """The q broadcast rounds: per round k, (k, the left block that grid
    column k row-broadcasts, the right block that grid row k
    column-broadcasts), both broadcasts in one "broadcast" phase and decoded
    after it. a_bytes and b_bytes are this rank's payloads as a root."""
    i, j = comm.grid_row, comm.grid_col
    for k in range(comm.q):
        with phases.phase("broadcast"):
            a_buf = comm.row_broadcast(k, a_bytes if j == k else None)
            b_buf = comm.col_broadcast(k, b_bytes if i == k else None)
        yield (k, dcsr_deserialize(a_buf, a_codec),
               dcsr_deserialize(b_buf, b_codec))


def _push_deltas(comm, a, a_delta, b_prime, b_delta, sr, phases):
    """This rank's blocks of a_delta . b_prime and a . b_delta, each pushed
    to the owner of its output block. Under sr the products carry values
    (gustavson_multiply, folded by sr.np_add); with sr None they are
    structure-only (pattern_multiply, no fold, no values sent). Per rank:
    2 transpose exchanges, 2q broadcasts and 2q aggregations."""
    if sr is None:
        codec, fold, multiply = STRUCTURE_CODEC, None, pattern_multiply
    else:
        codec, fold = semiring_codec(sr), sr.np_add
        multiply = lambda x, y: gustavson_multiply(x, y, sr)

    with phases.phase("transpose_exchange"):
        a_bytes = comm.transpose_exchange(dcsr_serialize(a_delta.block, codec))
        b_bytes = comm.transpose_exchange(dcsr_serialize(b_delta.block, codec))

    x_mine = y_mine = None
    for k, a_blk, b_blk in _rounds(comm, a_bytes, b_bytes, codec, codec,
                                   phases):
        with phases.phase("local_multiply"):
            x_part = multiply(a_blk, b_prime.block)
            y_part = multiply(a.block, b_blk)
        with phases.phase("aggregate"):
            xr = comm.aggregate_sparse("col", k, x_part, fold, codec)
            yr = comm.aggregate_sparse("row", k, y_part, fold, codec)
        if xr is not None:
            x_mine = xr
        if yr is not None:
            y_mine = yr
    return x_mine, y_mine


# ---------------------------------------------------------------------------
# static product
# ---------------------------------------------------------------------------

def summa_static(comm, a: DistMatrix, b: DistMatrix, sr: Semiring,
                 phases=NULL_PHASES) -> DistMatrix:
    """Full product C = a . b: q rounds of paired row/column broadcasts with
    local accumulation. Per rank: 2q broadcasts, no point-to-point traffic."""
    q, i, j = comm.q, comm.grid_row, comm.grid_col
    _check_inner(a.part, b.part, q)
    part_c = BlockPartition(a.part.n_rows, b.part.n_cols, q)
    codec = semiring_codec(sr)
    for k, a_blk, b_blk in _rounds(comm, dcsr_serialize(a.block, codec),
                                   dcsr_serialize(b.block, codec), codec,
                                   codec, phases):
        with phases.phase("local_multiply"):
            prod = gustavson_multiply(a_blk, b_blk, sr)
        if not k:
            c_local = prod   # the kernel's fresh block is round 0's C as it is
            continue
        with phases.phase("merge"):
            add_into(c_local, prod, sr.np_add)
    return DistMatrix(part_c, i, j, c_local)


def spgemm_algebraic_init(comm, a: DistMatrix, b: DistMatrix, sr: Semiring,
                          phases=NULL_PHASES) -> SpgemmState:
    """The maintained product of a and b, ready for algebraic and general
    updates: the static product, at its cost."""
    return SpgemmState(C=summa_static(comm, a, b, sr, phases), sr=sr)


# ---------------------------------------------------------------------------
# algebraic update
# ---------------------------------------------------------------------------

def spgemm_algebraic_update(comm, state: SpgemmState, a: DistMatrix,
                            a_delta: DistMatrix, b_prime: DistMatrix,
                            b_delta: DistMatrix, phases=NULL_PHASES) -> None:
    """Fold operand deltas into the maintained product:

        C' = C (+) a_delta . b_prime (+) a . b_delta

    a is the left operand before the batch, b_prime the right operand after
    it. Exact for rings with signed-difference deltas, and for insert-only
    batches under selective addition (min, or). Under a semiring that is not
    a ring, UnsupportedFeatureError is raised before any communication when
    a_delta holds a position already stored in a, or when b_delta is not
    empty (the right operand before the batch is not at hand to check it).

    Per rank and call this costs one push (_push_deltas).
    """
    sr = state.sr
    _check_inner(a.part, b_prime.part, comm.q)
    if not sr.is_ring:
        _require_insert_only(a, a_delta, b_delta)
    if (state.C.part.n_rows, state.C.part.n_cols) != (a.part.n_rows,
                                                      b_prime.part.n_cols):
        raise ValueError("maintained product shape does not match operands")
    x_mine, y_mine = _push_deltas(comm, a, a_delta, b_prime, b_delta, sr,
                                  phases)

    c_local = state.C.block
    _check_same_shape(c_local, x_mine, "a_delta . b_prime")
    _check_same_shape(c_local, y_mine, "a . b_delta")
    with phases.phase("merge"):
        add_into(c_local, x_mine, sr.np_add)
        add_into(c_local, y_mine, sr.np_add)


# ---------------------------------------------------------------------------
# general update
# ---------------------------------------------------------------------------

def compute_pattern(comm, a: DistMatrix, a_delta: DistMatrix,
                    b_prime: DistMatrix, b_delta: DistMatrix,
                    phases=NULL_PHASES) -> DcsrBlock:
    """Locate every output position a batch can touch.

    a_delta and b_delta list, structurally, each inserted, modified or
    deleted operand position (their values are ignored). Returns, per rank,
    the structure-only touched set struct(a_delta . b_prime) union
    struct(a . b_delta) of the local output block. When b_delta is empty it
    holds the key array object of struct(a_delta . b_prime), uncopied
    (combine_blocks).

    Costs one push (_push_deltas) without values.
    """
    _check_inner(a.part, b_prime.part, comm.q)
    x_pat, y_pat = _push_deltas(comm, a, a_delta, b_prime, b_delta, None,
                                phases)
    return combine_blocks((x_pat, y_pat), x_pat.n_rows, x_pat.n_cols, None)


def spgemm_general_update(comm, state: SpgemmState, a_prime: DistMatrix,
                          a_delta: DistMatrix, b_prime: DistMatrix,
                          b_delta: DistMatrix, a: DistMatrix,
                          phases=NULL_PHASES) -> dict:
    """Fold a batch of inserts, modifies and deletes into the maintained
    product under any semiring.

    a is the left operand before the batch, a_prime/b_prime the operands
    after it, and a_delta/b_delta the structural change sets (values unused);
    the right operand before the batch is not needed. Touched output
    positions are recomputed from scratch over the rows of a_prime that
    hold a touched position, whole: the filter is by row, not by summation
    index. Touched positions left with no contribution are deleted from
    the product. state.C is updated in place. Returns local batch
    statistics.

    Per rank and call this costs 3 transpose exchanges, 4q + 1 broadcasts
    and 3q + 1 aggregations.
    """
    c_local = state.C.block
    sr = state.sr
    _check_inner(a_prime.part, b_prime.part, comm.q)
    codec = semiring_codec(sr)

    touched = compute_pattern(comm, a, a_delta, b_prime, b_delta, phases)

    # The local output rows holding a touched position, united across the
    # grid row, so that every rank holding a piece of those rows can filter
    # its slice of a_prime.
    n_lr = state.C.local_shape[0]
    _check_same_shape(c_local, touched, "touched")
    with phases.phase("aggregate"):
        mine = DcsrBlock(n_lr, 1, touched.nz_rows, None)   # key: row
        rows_union = comm.aggregate_sparse("row", 0, mine, None,
                                           STRUCTURE_CODEC)
    with phases.phase("broadcast"):
        r_buf = comm.row_broadcast(
            0, None if rows_union is None
            else dcsr_serialize(rows_union, STRUCTURE_CODEC))
    rows = np.zeros(n_lr, dtype=bool)
    rows[dcsr_deserialize(r_buf, STRUCTURE_CODEC).keys()] = True

    with phases.phase("transpose_exchange"):
        a_rows = filter_rows_by_bloom(a_prime.block, rows)
        ar_bytes = comm.transpose_exchange(dcsr_serialize(a_rows, codec))
    mask_bytes = dcsr_serialize(touched, STRUCTURE_CODEC)

    z_mine = None
    for k, a_blk, mask in _rounds(comm, ar_bytes, mask_bytes, codec,
                                  STRUCTURE_CODEC, phases):
        with phases.phase("local_multiply"):
            z_part = masked_multiply(a_blk, b_prime.block, mask, sr)
        with phases.phase("aggregate"):
            zr = comm.aggregate_sparse("col", k, z_part, sr.np_add, codec)
        if zr is not None:
            z_mine = zr

    with phases.phase("merge"):
        deleted = replace_touched(c_local, touched, z_mine)
    return {
        "n_touched": touched.nnz,
        "n_recomputed": z_mine.nnz,
        "n_deleted": deleted,
        "nnz_filtered": a_rows.nnz,
    }
