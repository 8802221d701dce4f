"""Sparse multiply kernels over one pair of local blocks, by
expand-sort-compress (ESC; Dalton, Olson & Bell, ACM TOMS 2015).

Expand: each entry (r, k) of op(a) meets row k of op(b), one elementary
product per entry there. Only the rows of op(b) that op(a) names are read,
so the cost tracks the number of products, not the size of op(b) or the
dense dimensions. Sort and compress: dcsr_from_coo sorts the products
stably by output key r * n_cols + c and folds each key in input order,
which is ascending inner index k because op(a) is read in canonical order.
Entries whose folded value equals the semiring zero are kept: structure is
decided by contribution, not by value.
"""

from __future__ import annotations

import numpy as np

from .storage import DcsrBlock, dcsr_from_coo, locate


def _shape(block, transposed: bool) -> tuple[int, int]:
    return (block.n_cols, block.n_rows) if transposed else (block.n_rows, block.n_cols)


def _op_coo(block: DcsrBlock, transposed: bool, dtype):
    """(rows, cols, vals) of op(block), rows ascending and columns ascending
    within a row."""
    rows, cols, vals = block.to_arrays(dtype)
    if not transposed:
        return rows, cols, vals
    order = (cols * block.n_rows + rows).argsort(kind="stable")
    return cols[order], rows[order], None if vals is None else vals[order]


def _op_rows(block: DcsrBlock, transposed: bool, dtype):
    """(nz_rows, row_ptr, cols, vals) of op(block) in DCSR layout."""
    if transposed:
        cols, rows, vals = block.to_arrays(dtype)
        block = dcsr_from_coo(*_shape(block, transposed), rows, cols, vals)
    return block.nz_rows, block.row_ptr, block.cols, block.vals


def _expand(inner: np.ndarray, nz: np.ndarray, ptr: np.ndarray):
    """Every elementary product of entries with inner indices `inner` and
    the rows nz (ascending, entries ptr[i]:ptr[i+1]) they name: (index into
    inner, index into the rows' entries) per product, grouped by the first
    in ascending order."""
    if not len(nz):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    pos = np.minimum(nz.searchsorted(inner), len(nz) - 1)
    start = ptr[pos]
    count = ptr[pos + 1] - start
    count[nz[pos] != inner] = 0
    e = np.arange(len(inner)).repeat(count)
    skip = count.cumsum() - count
    return e, np.arange(len(e)) + (start - skip).repeat(count)


def _bits(inner: np.ndarray, inner_base: int, ell: int) -> np.ndarray:
    """1 << ((inner_base + k) mod ell) per inner index k, as uint64."""
    shift = ((inner_base + inner) & (ell - 1)).astype(np.uint64)
    return np.left_shift(np.uint64(1), shift)


# ---------------------------------------------------------------------------
# value multiply
# ---------------------------------------------------------------------------

def gustavson_multiply(a, b, sr, transpose_a: bool = False,
                       transpose_b: bool = False) -> DcsrBlock:
    """op(a) . op(b) over the semiring; transposing an operand swaps its row
    and column arrays. With transpose_b all of b is read, otherwise only the
    rows of b that op(a) names."""
    an, ak = _shape(a, transpose_a)
    bk, bm = _shape(b, transpose_b)
    if ak != bk:
        raise ValueError(f"inner dimensions differ: {ak} vs {bk}")
    dtype = sr.np_dtype
    if not a.nnz or not b.nnz:
        return DcsrBlock.empty(an, bm, dtype=dtype)
    rows, inner, avals = _op_coo(a, transpose_a, dtype)
    nz, ptr, bcols, bvals = _op_rows(b, transpose_b, dtype)
    e, bi = _expand(inner, nz, ptr)
    x = sr.np_mul(avals[e], bvals[bi].astype(dtype, copy=False))
    return dcsr_from_coo(an, bm, rows[e], bcols[bi], x, sr.np_add)


# ---------------------------------------------------------------------------
# structure + bitfield multiply
# ---------------------------------------------------------------------------

def pattern_multiply(a, b, inner_base: int,
                     ell: int = 64) -> tuple[DcsrBlock, DcsrBlock]:
    """Structure of a . b plus, per output entry, the or of bit
    ((inner_base + k) mod ell) over every summation index k that contributes
    structurally. Values of a and b are ignored; structure-only blocks work.
    inner_base is the global index of local inner index 0.

    Returns (structure, bitfields) sharing the same positions; the structure
    block is value-free and the bitfields are uint64. ell must be a power of
    two.
    """
    if a.n_cols != b.n_rows:
        raise ValueError(f"inner dimensions differ: {a.n_cols} vs {b.n_rows}")
    bits = DcsrBlock.empty(a.n_rows, b.n_cols, dtype=np.uint64)
    if a.nnz and b.nnz:
        rows, inner, _ = _op_coo(a, False, None)
        nz, ptr, bcols, _ = _op_rows(b, False, None)
        e, bi = _expand(inner, nz, ptr)
        bits = dcsr_from_coo(a.n_rows, b.n_cols, rows[e], bcols[bi],
                             _bits(inner, inner_base, ell)[e], np.bitwise_or)
    return DcsrBlock(bits.n_rows, bits.n_cols, bits.nz_rows, bits.row_ptr,
                     bits.cols, None), bits


def masked_multiply(a, b, mask: DcsrBlock, sr, inner_base: int,
                    ell: int = 64) -> tuple[DcsrBlock, DcsrBlock]:
    """a . b restricted to the positions listed in mask.

    Products landing outside the mask are dropped before the fold. Returns
    both the value block Z and the bitfield block H of contributing
    summation indices for the surviving positions.
    """
    if a.n_cols != b.n_rows:
        raise ValueError(f"inner dimensions differ: {a.n_cols} vs {b.n_rows}")
    dtype = sr.np_dtype
    rows, inner, avals = _op_coo(a, False, dtype)
    _, in_mask = locate(mask.nz_rows, rows)
    rows, inner, avals = rows[in_mask], inner[in_mask], avals[in_mask]
    nz, ptr, bcols, bvals = _op_rows(b, False, dtype)
    e, bi = _expand(inner, nz, ptr)
    out_rows, out_cols = rows[e], bcols[bi]
    _, hit = locate(mask.keys(), out_rows * b.n_cols + out_cols)
    e, bi, out_rows, out_cols = e[hit], bi[hit], out_rows[hit], out_cols[hit]
    x = sr.np_mul(avals[e], bvals[bi].astype(dtype, copy=False))
    z = dcsr_from_coo(a.n_rows, b.n_cols, out_rows, out_cols, x, sr.np_add)
    h = dcsr_from_coo(a.n_rows, b.n_cols, out_rows, out_cols,
                      _bits(inner, inner_base, ell)[e], np.bitwise_or)
    return z, h
