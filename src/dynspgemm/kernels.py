"""Sparse multiply kernels over one pair of local blocks, by
expand-sort-compress (ESC; Dalton, Olson & Bell, ACM TOMS 2015), on the
blocks' sorted entry keys.

Expand: each entry (r, k) of op(a) meets row k of op(b), one elementary
product per entry there. Row k of op(b) is the run of its keys in
[k * m, (k + 1) * m), m its width, found by two `searchsorted` calls, so
only the rows that op(a) names are read and the cost tracks the number of
products, not the size of op(b) or the dense dimensions. Entry (r, k) and
key k * m + c meet at output key r * m + c. _expand returns how many
products each entry of op(a) forms, and callers spread op(a)'s values and
bits to the products with .repeat(count). Sort and compress: one stable
argsort orders the products by output key (storage._sort_fold, behind
dcsr_from_keys); each key's first product is gathered by its run-start
index and the others fold into it with ufunc.at, left to right in input
order, which is ascending inner index k because op(a) is read in key
order. masked_multiply sorts its surviving products once and folds both
its values and its bitfields from that sort. Entries whose folded value
equals the semiring zero are kept: structure is decided by contribution,
not by value.
"""

from __future__ import annotations

import numpy as np

from .storage import DcsrBlock, _sort_fold, dcsr_from_coo, dcsr_from_keys, locate


def _op(block: DcsrBlock, transposed: bool) -> DcsrBlock:
    """op(block): the block itself, or its transpose."""
    if not transposed:
        return block
    rows, cols, vals = block.to_arrays()
    return dcsr_from_coo(block.n_cols, block.n_rows, cols, rows, vals)


def _expand(rows: np.ndarray, inner: np.ndarray, keys: np.ndarray, width: int):
    """Every elementary product of the entries (rows, inner) of op(a) and
    the entries of op(b), whose ascending keys have row width `width`:
    (count, bi, out): the number of products of each entry of op(a), and
    per product, grouped by that entry in entry order, its index into keys
    and its output key. A caller spreads a per-entry array of op(a) to the
    products with .repeat(count)."""
    start = keys.searchsorted(inner * width)
    count = keys.searchsorted((inner + 1) * width) - start
    start -= count.cumsum() - count
    bi = start.repeat(count)
    bi += np.arange(len(bi))
    out = keys[bi]
    out += ((rows - inner) * width).repeat(count)
    return count, bi, out


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
    count, bi, out = _expand(rows, inner, b.keys(), b.n_cols)
    x = avals.repeat(count)
    sr.np_mul(x, b.vals[bi].astype(dtype, copy=False), out=x)
    del bi   # product-sized: free it before the sort allocates
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
        count, _, out = _expand(rows, inner, b.keys(), b.n_cols)
        bits = dcsr_from_keys(a.n_rows, b.n_cols, out,
                              _bits(inner, inner_base, ell).repeat(count),
                              np.bitwise_or)
    return DcsrBlock(bits.n_rows, bits.n_cols, bits.keys(), None), bits


def masked_multiply(a, b, mask: DcsrBlock, sr, inner_base: int,
                    ell: int = 64) -> tuple[DcsrBlock, DcsrBlock]:
    """a . b restricted to the positions listed in mask, an a.n_rows x
    b.n_cols block.

    Only the rows of a that hold a mask position are expanded, and products
    landing outside the mask are dropped before the fold. Returns both the
    value block Z and the bitfield block H of contributing summation indices
    for the surviving positions; both fold from one sort of the products and
    share one key array.
    """
    if a.n_cols != b.n_rows:
        raise ValueError(f"inner dimensions differ: {a.n_cols} vs {b.n_rows}")
    if (mask.n_rows, mask.n_cols) != (a.n_rows, b.n_cols):
        raise ValueError(f"mask is {mask.n_rows}x{mask.n_cols}, the product "
                         f"{a.n_rows}x{b.n_cols}")
    dtype = sr.np_dtype
    mk = mask.keys()
    rows, inner, avals = a.to_arrays(dtype)
    in_mask = np.zeros(a.n_rows, dtype=bool)
    in_mask[mk // max(mask.n_cols, 1)] = True
    keep = in_mask[rows]
    rows, inner, avals = rows[keep], inner[keep], avals[keep]
    count, bi, out = _expand(rows, inner, b.keys(), b.n_cols)
    _, hit = locate(mk, out)
    e = np.arange(len(count)).repeat(count)[hit]
    bi, out = bi[hit], out[hit]
    x = avals[e]
    sr.np_mul(x, b.vals[bi].astype(dtype, copy=False), out=x)
    keys, (z, h) = _sort_fold(out, (x, sr.np_add),
                              (_bits(inner, inner_base, ell)[e], np.bitwise_or))
    return (DcsrBlock(a.n_rows, b.n_cols, keys, z),
            DcsrBlock(a.n_rows, b.n_cols, keys, h))
