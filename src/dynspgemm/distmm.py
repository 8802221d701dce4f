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
  using per-entry summation-index bitfields (one uint64 word, bit k mod 64
  for summation index k) to shrink the recomputation, and deletes touched
  positions that lost all support.

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
    BLOOM_CODEC,
    DcsrBlock,
    STRUCTURE_CODEC,
    _check_same_shape,
    add_into,
    combine_blocks,
    dcsr_deserialize,
    dcsr_serialize,
    field_blocks,
    filter_rows_by_bloom,
    locate,
    or_into,
    record_block,
    record_codec,
    replace_touched,
    semiring_codec,
    share_keys,
)
from .transport import NULL_PHASES


class UnsupportedFeatureError(ValueError):
    """A batch or state the chosen update path cannot fold exactly: a
    non-insert batch under a semiring that is not a ring, or a general
    update over bitfields an algebraic update left stale."""


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
        apply_batch(d.block, batch.take(np.flatnonzero(mine)), sr,
                    d.row_base, d.col_base)
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
    of summation indices that contributed to it, one uint64 word with bit
    k mod 64 for summation index k. F is None once an algebraic update has
    left it stale.

    While F is present it holds exactly C's positions, and its block holds
    C's key array object (storage.share_keys): F.block.keys() is
    C.block.keys(). The general update searches and merges that one position
    set once per batch, and raises ValueError on a state whose F holds
    other positions than C."""

    C: DistMatrix
    F: DistMatrix | None
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


# ---------------------------------------------------------------------------
# static product
# ---------------------------------------------------------------------------

def _summa(comm, a: DistMatrix, b: DistMatrix, sr: Semiring, build_bloom: bool,
           phases):
    q, i, j = comm.q, comm.grid_row, comm.grid_col
    _check_inner(a.part, b.part, q)
    part_c = BlockPartition(a.part.n_rows, b.part.n_cols, q)
    inner_starts = a.part.col_starts
    codec = semiring_codec(sr)
    for k, a_blk, b_blk in _rounds(comm, dcsr_serialize(a.block, codec),
                                   dcsr_serialize(b.block, codec), codec,
                                   codec, phases):
        with phases.phase("local_multiply"):
            prod = gustavson_multiply(a_blk, b_blk, sr)
            pat = (pattern_multiply(a_blk, b_blk, inner_starts[k])[1]
                   if build_bloom else None)
        if not k:
            # the kernels' fresh blocks are round 0's C and F as they stand
            c_local, f_local = prod, pat
            continue
        with phases.phase("merge"):
            add_into(c_local, prod, sr.np_add)
            if build_bloom:
                or_into(f_local, pat)
    if build_bloom:
        share_keys(f_local, c_local)   # one position set from here on
    c = DistMatrix(part_c, i, j, c_local)
    f = DistMatrix(part_c, i, j, f_local) if build_bloom else None
    return c, f


def summa_static(comm, a: DistMatrix, b: DistMatrix, sr: Semiring,
                 phases=NULL_PHASES) -> DistMatrix:
    """Full product C = a . b: q rounds of paired row/column broadcasts with
    local accumulation. Per rank: 2q broadcasts, no point-to-point traffic."""
    c, _ = _summa(comm, a, b, sr, False, phases)
    return c


def spgemm_algebraic_init(comm, a: DistMatrix, b: DistMatrix, sr: Semiring,
                          phases=NULL_PHASES) -> SpgemmState:
    """Full product that also records, per output entry, the bitfield of
    contributing summation indices (bit k mod 64 of one uint64 word),
    enabling later masked-recompute updates."""
    c, f = _summa(comm, a, b, sr, True, phases)
    return SpgemmState(C=c, F=f, sr=sr)


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
    The entry bitfields are not refreshed here: state.F is dropped, and a
    later general update raises UnsupportedFeatureError instead of
    recomputing from stale bitfields.

    Per rank and call this costs 2 transpose exchanges, 2q broadcasts and
    2q aggregations.
    """
    sr = state.sr
    _check_inner(a.part, b_prime.part, comm.q)
    if not sr.is_ring:
        _require_insert_only(a, a_delta, b_delta)
    if (state.C.part.n_rows, state.C.part.n_cols) != (a.part.n_rows,
                                                      b_prime.part.n_cols):
        raise ValueError("maintained product shape does not match operands")
    codec = semiring_codec(sr)

    with phases.phase("transpose_exchange"):
        a_bytes = comm.transpose_exchange(dcsr_serialize(a_delta.block, codec))
        b_bytes = comm.transpose_exchange(dcsr_serialize(b_delta.block, codec))

    x_mine = y_mine = None
    for k, a_blk, b_blk in _rounds(comm, a_bytes, b_bytes, codec, codec,
                                   phases):
        with phases.phase("local_multiply"):
            x_part = gustavson_multiply(a_blk, b_prime.block, sr)
            y_part = gustavson_multiply(a.block, b_blk, sr)
        with phases.phase("aggregate"):
            xr = comm.aggregate_sparse("col", k, x_part, sr.np_add, codec)
            yr = comm.aggregate_sparse("row", k, y_part, sr.np_add, codec)
        if xr is not None:
            x_mine = xr
        if yr is not None:
            y_mine = yr

    c_local = state.C.block
    _check_same_shape(c_local, x_mine, "a_delta . b_prime")
    _check_same_shape(c_local, y_mine, "a . b_delta")
    state.F = None
    with phases.phase("merge"):
        add_into(c_local, x_mine, sr.np_add)
        add_into(c_local, y_mine, sr.np_add)


# ---------------------------------------------------------------------------
# general update
# ---------------------------------------------------------------------------

def compute_pattern(comm, a: DistMatrix, a_delta: DistMatrix,
                    b_prime: DistMatrix, b_delta: DistMatrix,
                    a_prime: DistMatrix,
                    phases=NULL_PHASES) -> tuple[DcsrBlock, DcsrBlock]:
    """Locate every output position a batch can touch.

    a_delta and b_delta list, structurally, each inserted, modified or
    deleted operand position (their values are ignored). Returns per rank:

    * the touched-position structure struct(a_delta . b_prime) union
      struct(a . b_delta) of the local output block, and
    * the bitfield block bloom(a_delta . b_prime) | bloom(a_prime . b_delta)
      of summation indices the batch adds to those positions.

    When b_delta is empty, both hold the key array object of
    struct(a_delta . b_prime), unsorted and uncopied (combine_blocks).

    Costs 2q broadcasts, 3q aggregations and 2 transpose exchanges per rank.
    """
    i, j = comm.grid_row, comm.grid_col
    _check_inner(a.part, b_prime.part, comm.q)
    inner_starts = a.part.col_starts

    with phases.phase("transpose_exchange"):
        a_bytes = comm.transpose_exchange(
            dcsr_serialize(a_delta.block, STRUCTURE_CODEC))
        b_bytes = comm.transpose_exchange(
            dcsr_serialize(b_delta.block, STRUCTURE_CODEC))

    x_pat = y_pat = y_bits = None
    for k, a_blk, b_blk in _rounds(comm, a_bytes, b_bytes, STRUCTURE_CODEC,
                                   STRUCTURE_CODEC, phases):
        with phases.phase("local_multiply"):
            _, p_new = pattern_multiply(a_blk, b_prime.block, inner_starts[i])
            p_old, _ = pattern_multiply(a.block, b_blk, inner_starts[j])
            _, p_cur = pattern_multiply(a_prime.block, b_blk, inner_starts[j])
        with phases.phase("aggregate"):
            r_new = comm.aggregate_sparse("col", k, p_new, np.bitwise_or,
                                          BLOOM_CODEC)
            r_old = comm.aggregate_sparse("row", k, p_old, None, STRUCTURE_CODEC)
            r_cur = comm.aggregate_sparse("row", k, p_cur, np.bitwise_or,
                                          BLOOM_CODEC)
        if r_new is not None:
            x_pat = r_new
        if r_old is not None:
            y_pat = r_old
        if r_cur is not None:
            y_bits = r_cur

    n_r, n_c = x_pat.n_rows, x_pat.n_cols
    touched = combine_blocks((x_pat, y_pat), n_r, n_c, None)
    # or_into writes in place, and x_pat's values may be a read-only view of
    # a message
    new_bits = DcsrBlock(n_r, n_c, x_pat.keys(), x_pat.vals.copy())
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
    state.C and state.F are updated in place, together: one lookup of the
    touched keys in their shared key array serves the row-bitfield union
    and the merge. Returns local batch statistics. Raises
    UnsupportedFeatureError when an algebraic update has dropped state.F,
    and ValueError, before any communication, when state.F holds other
    positions than state.C.
    """
    if state.F is None:
        raise UnsupportedFeatureError(
            "general updates need the entry bitfields, which an algebraic "
            "update left stale; start from a fresh spgemm_algebraic_init")
    c_local, f_local = state.C.block, state.F.block
    share_keys(f_local, c_local)
    i, j = comm.grid_row, comm.grid_col
    sr = state.sr
    _check_inner(a_prime.part, b_prime.part, comm.q)
    codec = semiring_codec(sr)
    inner_starts = a_prime.part.col_starts

    touched, new_bits = compute_pattern(comm, a, a_delta, b_prime, b_delta,
                                        a_prime, phases)

    # Per local output row, the union of candidate summation-index bitfields
    # over its touched positions; reduced across the grid row so every rank
    # holding a piece of those rows can filter its slice of a_prime. The
    # lookup of the touched keys in C's (and F's) keys serves the merge too:
    # C does not change before it.
    n_lr = state.C.local_shape[0]
    _check_same_shape(c_local, touched, "touched")
    with phases.phase("local_multiply"):
        t_rows, t_keys = touched.to_arrays()[0], touched.keys()
        held = pos, found = locate(c_local.keys(), t_keys)
        bits = np.zeros(len(t_keys), dtype=np.uint64)
        bits[found] = f_local.vals[pos[found]]
        if new_bits.keys() is t_keys:   # compute_pattern's one-sided union
            bits |= new_bits.vals
        else:
            pos, found = locate(new_bits.keys(), t_keys)
            bits[found] |= new_bits.vals[pos[found]]
        starts = np.flatnonzero(np.diff(t_rows, prepend=-1))
        row_bits = np.bitwise_or.reduceat(bits, starts)
        nz = np.flatnonzero(row_bits)
        vec = DcsrBlock(n_lr, 1, t_rows[starts[nz]], row_bits[nz])  # key: row
    with phases.phase("aggregate"):
        vr = comm.aggregate_sparse("row", 0, vec, np.bitwise_or, BLOOM_CODEC)
    with phases.phase("broadcast"):
        v_buf = comm.row_broadcast(
            0, dcsr_serialize(vr, BLOOM_CODEC) if vr is not None else None)
    r_blk = dcsr_deserialize(v_buf, BLOOM_CODEC)
    r_vec = np.zeros(n_lr, dtype=np.uint64)
    r_vec[r_blk.keys()] = r_blk.vals

    with phases.phase("local_multiply"):
        a_rows = filter_rows_by_bloom(a_prime.block, r_vec, inner_starts[j])
    with phases.phase("transpose_exchange"):
        ar_bytes = comm.transpose_exchange(dcsr_serialize(a_rows, codec))
    mask_bytes = dcsr_serialize(touched, STRUCTURE_CODEC)

    # Z and H travel as one block of (z, h) records, folded field by field
    zh_codec = record_codec(codec, BLOOM_CODEC)
    zh_mine = None
    for k, a_blk, mask in _rounds(comm, ar_bytes, mask_bytes, codec,
                                  STRUCTURE_CODEC, phases):
        with phases.phase("local_multiply"):
            zh_part = record_block(
                masked_multiply(a_blk, b_prime.block, mask, sr,
                                inner_starts[i]), zh_codec.dtype)
        with phases.phase("aggregate"):
            zhr = comm.aggregate_sparse("col", k, zh_part,
                                        (sr.np_add, np.bitwise_or), zh_codec)
        if zhr is not None:
            zh_mine = zhr

    z_mine, h_mine = field_blocks(zh_mine)
    with phases.phase("merge"):
        deleted = replace_touched((c_local, f_local), touched,
                                  (z_mine, h_mine), held)
    return {
        "n_touched": touched.nnz,
        "n_recomputed": z_mine.nnz,
        "n_deleted": deleted,
        "nnz_filtered": a_rows.nnz,
    }
