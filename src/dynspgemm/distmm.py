"""Distributed sparse matrix product and its batch-dynamic updates.

A matrix lives on a q x q process grid as one block per rank (DistMatrix).
The static product is a broadcast-based row/column algorithm.  After an
initial product, a batch of changes to the operands is folded into the
result in one of two ways:

* algebraic path: C' = C (+) Adelta . B' (+) A . Bdelta.  Exact when the
  semiring is a ring (deltas carry signed differences), and for insert-only
  batches whose addition is selective (min, or).  Supports transposed
  operands.
* general path: works for any semiring and any mix of inserts, modifies and
  deletes.  It recomputes exactly the output positions the batch can touch,
  using per-entry summation-index bitfields to shrink the recomputation,
  and deletes touched positions that lost all support.

Every rank calls each function collectively with its own Communicator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import BlockPartition
from .kernels import gustavson_multiply, masked_multiply, pattern_multiply
from .redistribute import _check_batch, apply_batch, update_batch
from .semiring import Semiring
from .storage import (
    DcsrBlock,
    STRUCTURE_CODEC,
    add_into,
    bloom_codec,
    combine_blocks,
    dcsr_deserialize,
    dcsr_serialize,
    filter_rows_by_bloom,
    locate,
    or_into,
    replace_touched,
    semiring_codec,
)
from .transport import NULL_PHASES


class UnsupportedFeatureError(ValueError):
    """Requested operand layout is outside what the chosen path supports."""


@dataclass
class DistMatrix:
    """One rank's view of a block-partitioned matrix: the partition map plus
    the locally owned DcsrBlock. Operands, which update batches change in
    place, maintained results (C and its bitfields F) and update matrices,
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

    @classmethod
    def from_triples(cls, part: BlockPartition, comm, triples,
                     sr: Semiring) -> "DistMatrix":
        """Build this rank's block from global (row, col, value) triples; each
        rank keeps the entries its block owns, in sr's value dtype. Later
        duplicates overwrite earlier ones."""
        d = cls.empty(part, comm, sr)
        rows, cols, vals = zip(*triples) if triples else ((), (), ())
        batch = update_batch(sr, rows, cols, vals)
        _check_batch(batch, sr, 0, 0, part.n_rows, part.n_cols)
        mine = ((part.owner_grid_rows(batch["i"]) == d.grid_row)
                & (part.owner_grid_cols(batch["j"]) == d.grid_col))
        apply_batch(d.block, batch[mine], sr, d.row_base, d.col_base)
        return d

    def global_entries(self) -> dict:
        """Local entries keyed by global (row, col); for assembling test views."""
        to_global = self.part.to_global
        i, j = self.grid_row, self.grid_col
        return {to_global(i, j, r, c): v for r, c, v in self.block.triples()}


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
    """Maintained product: the result C plus, per stored entry, the bitfield F
    of summation indices that contributed to it (folded mod ell). F is None
    once an algebraic update has left it stale. The transpose flags record
    the operand orientation C was built under."""

    C: DistMatrix
    F: DistMatrix | None
    sr: Semiring
    ell: int
    transpose_a: bool = False
    transpose_b: bool = False


def _check_local_shape(block, c_local) -> None:
    if (block.n_rows, block.n_cols) != (c_local.n_rows, c_local.n_cols):
        raise ValueError(
            f"block shape {block.n_rows}x{block.n_cols} does not match the "
            f"local product block {c_local.n_rows}x{c_local.n_cols}")


def _check_inner(part_a: BlockPartition, part_b: BlockPartition, q: int) -> None:
    if part_a.q != q or part_b.q != q:
        raise ValueError("operand partitions do not match the grid")
    if part_a.n_cols != part_b.n_rows:
        raise ValueError(
            f"inner dimensions differ: {part_a.n_cols} vs {part_b.n_rows}")


# ---------------------------------------------------------------------------
# static product
# ---------------------------------------------------------------------------

def _summa(comm, a: DistMatrix, b: DistMatrix, sr: Semiring, build_bloom: bool,
           ell: int, phases):
    q, i, j = comm.q, comm.grid_row, comm.grid_col
    _check_inner(a.part, b.part, q)
    part_c = BlockPartition(a.part.n_rows, b.part.n_cols, q)
    inner_starts = a.part.col_starts
    codec = semiring_codec(sr)
    a_bytes = dcsr_serialize(a.block, codec)
    b_bytes = dcsr_serialize(b.block, codec)
    c_local = DcsrBlock.empty(*part_c.block_shape(i, j), dtype=sr.np_dtype)
    f_local = (DcsrBlock.empty(*part_c.block_shape(i, j), dtype=np.uint64)
               if build_bloom else None)
    for k in range(q):
        with phases.phase("broadcast"):
            a_buf = comm.row_broadcast(k, a_bytes if j == k else None)
            b_buf = comm.col_broadcast(k, b_bytes if i == k else None)
        a_blk = dcsr_deserialize(a_buf, codec)
        b_blk = dcsr_deserialize(b_buf, codec)
        with phases.phase("local_multiply"):
            prod = gustavson_multiply(a_blk, b_blk, sr)
            if build_bloom:
                _, pat = pattern_multiply(a_blk, b_blk, inner_starts[k], ell)
        with phases.phase("merge"):
            add_into(c_local, prod, sr.np_add)
            if build_bloom:
                or_into(f_local, pat)
    c = DistMatrix(part_c, i, j, c_local)
    f = DistMatrix(part_c, i, j, f_local) if build_bloom else None
    return c, f


def summa_static(comm, a: DistMatrix, b: DistMatrix, sr: Semiring,
                 phases=NULL_PHASES) -> DistMatrix:
    """Full product C = a . b: q rounds of paired row/column broadcasts with
    local accumulation. Per rank: 2q broadcasts, no point-to-point traffic."""
    c, _ = _summa(comm, a, b, sr, False, 64, phases)
    return c


def spgemm_algebraic_init(comm, a: DistMatrix, b: DistMatrix, sr: Semiring,
                          ell: int = 64, phases=NULL_PHASES) -> SpgemmState:
    """Full product that also records, per output entry, the bitfield of
    contributing summation indices (folded mod ell), enabling later
    masked-recompute updates. ell is 8, 16, 32 or 64."""
    if ell not in (8, 16, 32, 64):
        raise ValueError(f"bitfield width must be 8, 16, 32 or 64, not {ell}")
    c, f = _summa(comm, a, b, sr, True, ell, phases)
    return SpgemmState(C=c, F=f, sr=sr, ell=ell)


# ---------------------------------------------------------------------------
# algebraic update
# ---------------------------------------------------------------------------

def spgemm_algebraic_update(comm, state: SpgemmState, a: DistMatrix,
                            a_delta: DistMatrix, b_prime: DistMatrix,
                            b_delta: DistMatrix, phases=NULL_PHASES) -> None:
    """Fold operand deltas into the maintained product:

        C' = C (+) op(a_delta) . op(b_prime) (+) op(a) . op(b_delta)

    a is the left operand before the batch, b_prime the right operand after
    it. Exact for rings with signed-difference deltas, and for insert-only
    batches under selective addition (min, or). Under a semiring that is not
    a ring, UnsupportedFeatureError is raised before any communication when
    a_delta holds a position already stored in a, or when b_delta is not
    empty (the right operand before the batch is not at hand to check it).
    The entry bitfields are not refreshed here: state.F is dropped, and a
    later general update raises UnsupportedFeatureError instead of
    recomputing from stale bitfields.

    Operand orientation comes from state's transpose flags. Transposed
    operands stay distributed by their stored layout; the update inserts
    transpose exchanges around the broadcasts and aggregations instead of
    materializing the transposed matrices. Per rank and call this costs 2q
    broadcasts, 2q aggregations and at most 4 point-to-point exchanges
    (exactly 2 when neither operand is transposed).
    """
    q, i, j = comm.q, comm.grid_row, comm.grid_col
    sr = state.sr
    ta, tb = state.transpose_a, state.transpose_b
    if not sr.is_ring:
        _require_insert_only(a, a_delta, b_delta)
    n_out = (a.part.n_cols if ta else a.part.n_rows,
             b_prime.part.n_rows if tb else b_prime.part.n_cols)
    inner = (a.part.n_rows if ta else a.part.n_cols,
             b_prime.part.n_cols if tb else b_prime.part.n_rows)
    if inner[0] != inner[1]:
        raise ValueError(f"inner dimensions differ: {inner[0]} vs {inner[1]}")
    if (state.C.part.n_rows, state.C.part.n_cols) != n_out:
        raise ValueError("maintained product shape does not match operands")
    codec = semiring_codec(sr)

    # Block placement around the two delta products X = op(Ad).op(B') and
    # Y = op(A).op(Bd). Broadcasting a delta along rows wants its round-k
    # source at (i, k), along columns at (k, j); whether the natively owned
    # or the transpose-partner block is the one needed there flips with each
    # transpose flag, and both flips cancel when ta == tb.
    pre_exchange = ta == tb
    x_bcast_row = not tb  # axis the delta of a travels along
    y_bcast_row = ta      # axis the delta of b travels along
    x_agg_col = not tb    # axis X partials fold along
    y_agg_col = ta        # axis Y partials fold along

    with phases.phase("transpose_exchange"):
        if pre_exchange:
            a_bytes = comm.transpose_exchange(dcsr_serialize(a_delta.block, codec))
            b_bytes = comm.transpose_exchange(dcsr_serialize(b_delta.block, codec))
        else:
            a_bytes = dcsr_serialize(a_delta.block, codec)
            b_bytes = dcsr_serialize(b_delta.block, codec)

    def bcast(along_row: bool, k: int, payload: bytes) -> bytes:
        if along_row:
            return comm.row_broadcast(k, payload if j == k else None)
        return comm.col_broadcast(k, payload if i == k else None)

    x_mine = y_mine = None
    for k in range(q):
        with phases.phase("broadcast"):
            a_buf = bcast(x_bcast_row, k, a_bytes)
            b_buf = bcast(y_bcast_row, k, b_bytes)
        a_blk = dcsr_deserialize(a_buf, codec)
        b_blk = dcsr_deserialize(b_buf, codec)
        with phases.phase("local_multiply"):
            x_part = gustavson_multiply(a_blk, b_prime.block, sr, ta, tb)
            y_part = gustavson_multiply(a.block, b_blk, sr, ta, tb)
        with phases.phase("aggregate"):
            xr = comm.aggregate_sparse("col" if x_agg_col else "row", k,
                                       x_part, sr.np_add, codec)
            yr = comm.aggregate_sparse("col" if y_agg_col else "row", k,
                                       y_part, sr.np_add, codec)
        if xr is not None:
            x_mine = xr
        if yr is not None:
            y_mine = yr

    with phases.phase("transpose_exchange"):
        if tb:  # X folded onto the transpose of its destination rank
            x_mine = dcsr_deserialize(
                comm.transpose_exchange(dcsr_serialize(x_mine, codec)), codec)
        if ta:
            y_mine = dcsr_deserialize(
                comm.transpose_exchange(dcsr_serialize(y_mine, codec)), codec)

    c_local = state.C.block
    _check_local_shape(x_mine, c_local)
    _check_local_shape(y_mine, c_local)
    state.F = None
    with phases.phase("merge"):
        add_into(c_local, x_mine, sr.np_add)
        add_into(c_local, y_mine, sr.np_add)


# ---------------------------------------------------------------------------
# general update
# ---------------------------------------------------------------------------

def compute_pattern(comm, a: DistMatrix, a_delta: DistMatrix,
                    b_prime: DistMatrix, b_delta: DistMatrix,
                    a_prime: DistMatrix, ell: int = 64,
                    phases=NULL_PHASES) -> tuple[DcsrBlock, DcsrBlock]:
    """Locate every output position a batch can touch.

    a_delta and b_delta list, structurally, each inserted, modified or
    deleted operand position (their values are ignored). Returns per rank:

    * the touched-position structure struct(a_delta . b_prime) union
      struct(a . b_delta) of the local output block, and
    * the bitfield block bloom(a_delta . b_prime) | bloom(a_prime . b_delta)
      of summation indices the batch adds to those positions.

    Costs 2q broadcasts, 3q aggregations and 2 transpose exchanges per rank.
    """
    q, i, j = comm.q, comm.grid_row, comm.grid_col
    _check_inner(a.part, b_prime.part, q)
    inner_starts = a.part.col_starts
    bcodec = bloom_codec(ell)

    with phases.phase("transpose_exchange"):
        a_bytes = comm.transpose_exchange(
            dcsr_serialize(a_delta.block, STRUCTURE_CODEC))
        b_bytes = comm.transpose_exchange(
            dcsr_serialize(b_delta.block, STRUCTURE_CODEC))

    x_pat = y_pat = y_bits = None
    for k in range(q):
        with phases.phase("broadcast"):
            a_buf = comm.row_broadcast(k, a_bytes if j == k else None)
            b_buf = comm.col_broadcast(k, b_bytes if i == k else None)
        a_blk = dcsr_deserialize(a_buf, STRUCTURE_CODEC)
        b_blk = dcsr_deserialize(b_buf, STRUCTURE_CODEC)
        with phases.phase("local_multiply"):
            _, p_new = pattern_multiply(a_blk, b_prime.block,
                                        inner_starts[i], ell)
            p_old, _ = pattern_multiply(a.block, b_blk, inner_starts[j], ell)
            _, p_cur = pattern_multiply(a_prime.block, b_blk,
                                        inner_starts[j], ell)
        with phases.phase("aggregate"):
            r_new = comm.aggregate_sparse("col", k, p_new, np.bitwise_or, bcodec)
            r_old = comm.aggregate_sparse("row", k, p_old, None, STRUCTURE_CODEC)
            r_cur = comm.aggregate_sparse("row", k, p_cur, np.bitwise_or, bcodec)
        if r_new is not None:
            x_pat = r_new
        if r_old is not None:
            y_pat = r_old
        if r_cur is not None:
            y_bits = r_cur

    n_r, n_c = x_pat.n_rows, x_pat.n_cols
    touched = combine_blocks((x_pat, y_pat), n_r, n_c, None)
    new_bits = DcsrBlock.empty(n_r, n_c, dtype=np.uint64)
    or_into(new_bits, x_pat)
    or_into(new_bits, y_bits)
    return touched, new_bits


def spgemm_general_update(comm, state: SpgemmState, a_prime: DistMatrix,
                          a_delta: DistMatrix, b_prime: DistMatrix,
                          b_delta: DistMatrix, a: DistMatrix,
                          phases=NULL_PHASES) -> dict:
    """Fold a batch of inserts, modifies and deletes into the maintained
    product under any semiring.

    a is the left operand before the batch, a_prime/b_prime the operands
    after it, and a_delta/b_delta the structural change sets (values unused);
    the right operand before the batch is not needed. Touched output
    positions are recomputed from scratch, but only over the left-operand
    rows and summation indices whose bitfields say they can matter; touched
    positions left with no contribution are deleted from the product.
    state.C and state.F are updated in place. Returns local batch
    statistics. Raises UnsupportedFeatureError when an algebraic update has
    dropped state.F.
    """
    if state.transpose_a or state.transpose_b:
        raise UnsupportedFeatureError(
            "general updates support untransposed operands only")
    if state.F is None:
        raise UnsupportedFeatureError(
            "general updates need the entry bitfields, which an algebraic "
            "update left stale; start from a fresh spgemm_algebraic_init")
    q, i, j = comm.q, comm.grid_row, comm.grid_col
    sr, ell = state.sr, state.ell
    _check_inner(a_prime.part, b_prime.part, q)
    codec = semiring_codec(sr)
    bcodec = bloom_codec(ell)
    inner_starts = a_prime.part.col_starts

    touched, new_bits = compute_pattern(comm, a, a_delta, b_prime, b_delta,
                                        a_prime, ell, phases)

    # Per local output row, the union of candidate summation-index bitfields
    # over its touched positions; reduced across the grid row so every rank
    # holding a piece of those rows can filter its slice of a_prime.
    f_local: DcsrBlock = state.F.block
    n_lr = state.C.local_shape[0]
    _check_local_shape(touched, state.C.block)
    with phases.phase("local_multiply"):
        t_rows, t_keys = touched.to_arrays()[0], touched.keys()
        row_bits = np.zeros(n_lr, dtype=np.uint64)
        for blk in (f_local, new_bits):
            pos, found = locate(blk.keys(), t_keys)
            np.bitwise_or.at(row_bits, t_rows[found], blk.vals[pos[found]])
        nz = np.flatnonzero(row_bits)
        vec = DcsrBlock(n_lr, 1, nz, row_bits[nz])   # an n x 1 key is its row
    with phases.phase("aggregate"):
        vr = comm.aggregate_sparse("row", 0, vec, np.bitwise_or, bcodec)
    with phases.phase("broadcast"):
        v_buf = comm.row_broadcast(
            0, dcsr_serialize(vr, bcodec) if vr is not None else None)
    r_blk = dcsr_deserialize(v_buf, bcodec)
    r_vec = np.zeros(n_lr, dtype=np.uint64)
    r_vec[r_blk.keys()] = r_blk.vals

    with phases.phase("local_multiply"):
        a_rows = filter_rows_by_bloom(a_prime.block, r_vec,
                                      inner_starts[j], ell)
    with phases.phase("transpose_exchange"):
        ar_bytes = comm.transpose_exchange(dcsr_serialize(a_rows, codec))
    mask_bytes = dcsr_serialize(touched, STRUCTURE_CODEC)

    z_mine = h_mine = None
    for k in range(q):
        with phases.phase("broadcast"):
            a_buf = comm.row_broadcast(k, ar_bytes if j == k else None)
            m_buf = comm.col_broadcast(k, mask_bytes if i == k else None)
        a_blk = dcsr_deserialize(a_buf, codec)
        mask = dcsr_deserialize(m_buf, STRUCTURE_CODEC)
        with phases.phase("local_multiply"):
            z_part, h_part = masked_multiply(a_blk, b_prime.block, mask, sr,
                                             inner_starts[i], ell)
        with phases.phase("aggregate"):
            zr = comm.aggregate_sparse("col", k, z_part, sr.np_add, codec)
            hr = comm.aggregate_sparse("col", k, h_part, np.bitwise_or, bcodec)
        if zr is not None:
            z_mine = zr
        if hr is not None:
            h_mine = hr

    with phases.phase("merge"):
        deleted = replace_touched(state.C.block, touched, z_mine)
        replace_touched(f_local, touched, h_mine)
    return {
        "n_touched": touched.nnz,
        "n_recomputed": z_mine.nnz,
        "n_deleted": deleted,
        "nnz_filtered": a_rows.nnz,
    }
