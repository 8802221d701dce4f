"""Sparse multiply kernels over one pair of local blocks, by
expand-sort-compress (ESC; Dalton, Olson & Bell, ACM TOMS 2015), on the
blocks' sorted entry keys.

Expand: each entry (r, k) of op(a) meets row k of op(b), one elementary
product per entry there. Row k of op(b) is the run of its keys in
[k * m, (k + 1) * m), m its width, found by two `searchsorted` calls, so
only the rows that op(a) names are read and the cost tracks the number of
products, not the size of op(b) or the dense dimensions. Entry (r, k) and
key k * m + c meet at output key r * m + c. Sort and compress:
dcsr_from_keys sorts the products stably by output key and folds each key
in input order, which is ascending inner index k because op(a) is read in
key order. Entries whose folded value equals the semiring zero are kept:
structure is decided by contribution, not by value.
"""

from __future__ import annotations

import numpy as np

from .storage import DcsrBlock, dcsr_from_coo, dcsr_from_keys, locate


def _op(block: DcsrBlock, transposed: bool) -> DcsrBlock:
    """op(block): the block itself, or its transpose."""
    if not transposed:
        return block
    rows, cols, vals = block.to_arrays()
    return dcsr_from_coo(block.n_cols, block.n_rows, cols, rows, vals)


def _expand(rows: np.ndarray, inner: np.ndarray, keys: np.ndarray, width: int):
    """Every elementary product of the entries (rows, inner) of op(a) and
    the entries of op(b), whose ascending keys have row width `width`:
    (index into op(a)'s entries, index into keys, output key) per product,
    grouped by the first in ascending order."""
    start = keys.searchsorted(inner * width)
    count = keys.searchsorted((inner + 1) * width) - start
    e = np.arange(len(inner)).repeat(count)
    skip = count.cumsum() - count
    bi = np.arange(len(e)) + (start - skip).repeat(count)
    return e, bi, keys[bi] + ((rows - inner) * width)[e]


def _bits(inner: np.ndarray, inner_base: int, ell: int) -> np.ndarray:
    """1 << ((inner_base + k) mod ell) per inner index k, as uint64."""
    shift = ((inner_base + inner) & (ell - 1)).astype(np.uint64)
    return np.left_shift(np.uint64(1), shift)


# ---------------------------------------------------------------------------
# value multiply
# ---------------------------------------------------------------------------

def gustavson_multiply(a, b, sr, transpose_a: bool = False,
                       transpose_b: bool = False) -> DcsrBlock:
    """op(a) . op(b) over the semiring, op(x) being x or its transpose. With
    transpose_b all of b is read, otherwise only the rows of b that op(a)
    names."""
    a, b = _op(a, transpose_a), _op(b, transpose_b)
    if a.n_cols != b.n_rows:
        raise ValueError(f"inner dimensions differ: {a.n_cols} vs {b.n_rows}")
    dtype = sr.np_dtype
    if not a.nnz or not b.nnz:
        return DcsrBlock.empty(a.n_rows, b.n_cols, dtype=dtype)
    rows, inner, avals = a.to_arrays(dtype)
    e, bi, out = _expand(rows, inner, b.keys(), b.n_cols)
    x = sr.np_mul(avals[e], b.vals[bi].astype(dtype, copy=False))
    return dcsr_from_keys(a.n_rows, b.n_cols, out, x, sr.np_add)


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
        rows, inner, _ = a.to_arrays()
        e, _, out = _expand(rows, inner, b.keys(), b.n_cols)
        bits = dcsr_from_keys(a.n_rows, b.n_cols, out,
                              _bits(inner, inner_base, ell)[e], np.bitwise_or)
    return DcsrBlock(bits.n_rows, bits.n_cols, bits.keys(), None), bits


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
    rows, inner, avals = a.to_arrays(dtype)
    _, in_mask = locate(mask.nz_rows, rows)
    rows, inner, avals = rows[in_mask], inner[in_mask], avals[in_mask]
    e, bi, out = _expand(rows, inner, b.keys(), b.n_cols)
    _, hit = locate(mask.keys(), out)
    e, bi, out = e[hit], bi[hit], out[hit]
    x = sr.np_mul(avals[e], b.vals[bi].astype(dtype, copy=False))
    z = dcsr_from_keys(a.n_rows, b.n_cols, out, x, sr.np_add)
    h = dcsr_from_keys(a.n_rows, b.n_cols, out,
                       _bits(inner, inner_base, ell)[e], np.bitwise_or)
    return z, h
