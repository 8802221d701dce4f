"""Sparse multiply kernels over one pair of local blocks, by
expand-sort-compress (ESC; Dalton, Olson & Bell, ACM TOMS 2015), on the
blocks' sorted entry keys.

Expand: each entry (r, k) of a meets row k of b, one elementary product
per entry there. Row k of b is the run of its keys in [k * m, (k + 1) * m),
m its width, found by two `searchsorted` calls (_expand), so only the rows
that a names are read and the cost tracks the number of products, not the
size of b or the dense dimensions. Entry (r, k) and key k * m + c meet at
output key r * m + c (_products), and callers spread a's values and bits
to the products with .repeat(count). Sort and compress: a stable sort
orders the products by output key (storage._sort_fold, by packed
key-and-index words once a band holds 2^12 products); each key's first
product is gathered by its run-start index and the others fold into it
with ufunc.at, left to right in input order, which is ascending inner
index k because a is read in key order.

gustavson_multiply and pattern_multiply expand, sort and compress in row
bands (_banded_esc): a's entries are cut only where the row changes,
into bands of at most BAND_PRODUCTS products, a longer row being a band on
its own, with the cuts placed from the cumulative sum of the per-entry
product counts. Every output key's products lie in one band, in input
order, so each fold is the one a single sort would give, bit for bit, and
the bands' outputs, written one after another into the result arrays, are
canonical. The band caps every product-sized temporary (sort words and
order, run masks, gathers), so a large product's working memory stays
band-sized. masked_multiply
expands only the rows of a that hold a mask position, drops the products
outside the mask, and folds both its values and its bitfields from one
sort. The value kernels raise ValueError on a structure-only operand;
pattern_multiply reads structure only. Entries whose folded value equals
the semiring zero are kept: structure is decided by contribution, not by
value.
"""

from __future__ import annotations

import numpy as np

from .storage import DcsrBlock, _run_starts, _sort_fold, locate

BAND_PRODUCTS = 1 << 18
"""Products that gustavson_multiply and pattern_multiply sort at once,
unless a single row of a forms more: about 2 MB per product-sized
array. On a 2-CPU host, budgets of 2^16 to 2^18 gave the fastest check of
a 2.1M-product static product and about two thirds of its unbanded peak
memory; 2^19 and up were slower."""


def _require_values(**operands) -> None:
    """ValueError naming each structure-only operand of a value product."""
    bare = [name for name, block in operands.items() if block.vals is None]
    if bare:
        raise ValueError(f"{' and '.join(bare)} structure-only: the product "
                         "needs operand values")


def _expand(inner: np.ndarray, keys: np.ndarray, width: int):
    """(start, count) per entry (r, k) of a, given b's ascending
    keys of row width `width`: the index in keys of row k's first key, and
    how many keys row k holds, which is how many products the entry
    forms."""
    start = keys.searchsorted(inner * width)
    return start, keys.searchsorted((inner + 1) * width) - start


def _products(rows, inner, start, count, keys: np.ndarray, width: int):
    """(bi, out) for every product of the entries (rows, inner) of a,
    with _expand's start and count for them: per product, grouped by entry
    in entry order, its index into keys and its output key. A caller
    spreads a per-entry array of a to the products with
    .repeat(count)."""
    bi = (start - (count.cumsum() - count)).repeat(count)
    bi += np.arange(len(bi))
    out = keys[bi]
    out += ((rows - inner) * width).repeat(count)
    return bi, out


def _row_bands(rows: np.ndarray, count: np.ndarray) -> list[tuple[int, int]]:
    """[lo, hi) entry ranges that split a's entries, rows ascending,
    only where the row changes, each forming at most BAND_PRODUCTS products
    unless it is a single row that forms more."""
    ends = count.cumsum()
    if not len(ends) or ends[-1] <= BAND_PRODUCTS:
        return [(0, len(rows))]
    cuts = np.append(np.flatnonzero(_run_starts(rows))[1:], len(rows))
    formed = ends[cuts - 1]   # products formed before each cut
    bands, lo, done, i = [], 0, 0, 0
    while lo < len(rows):
        # i is the first cut after lo: a row over budget is a band alone
        i = max(int(formed.searchsorted(done + BAND_PRODUCTS, "right")) - 1, i)
        bands.append((lo, int(cuts[i])))
        lo, done, i = int(cuts[i]), formed[i], i + 1
    return bands


def _banded_esc(rows, inner, b: DcsrBlock, columns):
    """Expand-sort-compress of the products of a's entries (rows,
    inner) with b, one row band (_row_bands) at a time. columns(s, count,
    bi) gives the (vals, fold) pairs that _sort_fold folds for the products
    of the entries in slice s, count and bi being theirs. Every output key's
    products lie in one band, in input order, and the bands' keys ascend
    band after band, so the joined result is _sort_fold's over all the
    products: (keys, folded arrays). Past one band, each band's output is
    written into result arrays sized by the product count, which bounds
    the output, and trimmed in place at the end."""
    keys, width = b.keys(), b.n_cols
    start, count = _expand(inner, keys, width)
    bands = _row_bands(rows, count)
    result, n = [], 0
    for lo, hi in bands:
        s = slice(lo, hi)
        bi, out = _products(rows[s], inner[s], start[s], count[s], keys, width)
        k, folded = _sort_fold(out, *columns(s, count[s], bi))
        if len(bands) == 1:
            return k, folded
        if not result:
            total = int(count.sum())
            result = [np.empty(total, dtype=x.dtype) for x in (k, *folded)]
        for dst, src in zip(result, (k, *folded)):
            dst[n:n + len(k)] = src
        n += len(k)
        del bi, out, k, folded   # band-sized: free them before the next band
    for arr in result:
        arr.resize(n, refcheck=False)
    return result[0], result[1:]


def _bits(inner: np.ndarray, inner_base: int, ell: int) -> np.ndarray:
    """1 << ((inner_base + k) mod ell) per inner index k, as uint64."""
    shift = ((inner_base + inner) & (ell - 1)).astype(np.uint64)
    return np.left_shift(np.uint64(1), shift)


# ---------------------------------------------------------------------------
# value multiply
# ---------------------------------------------------------------------------

def gustavson_multiply(a, b, sr) -> DcsrBlock:
    """a . b over the semiring, reading only the rows of b that a names.
    Raises ValueError when a or b is structure-only."""
    _require_values(a=a, b=b)
    if a.n_cols != b.n_rows:
        raise ValueError(f"inner dimensions differ: {a.n_cols} vs {b.n_rows}")
    dtype = sr.np_dtype
    if not a.nnz or not b.nnz:
        return DcsrBlock.empty(a.n_rows, b.n_cols, dtype=dtype)
    rows, inner, avals = a.to_arrays(dtype)

    def values(s, count, bi):
        x = avals[s].repeat(count)
        sr.np_mul(x, b.vals[bi].astype(dtype, copy=False), out=x)
        return ((x, sr.np_add),)

    keys, (vals,) = _banded_esc(rows, inner, b, values)
    return DcsrBlock(a.n_rows, b.n_cols, keys, vals)


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
        bit = _bits(inner, inner_base, ell)
        keys, (vals,) = _banded_esc(
            rows, inner, b,
            lambda s, count, _: ((bit[s].repeat(count), np.bitwise_or),))
        bits = DcsrBlock(a.n_rows, b.n_cols, keys, vals)
    return DcsrBlock(bits.n_rows, bits.n_cols, bits.keys(), None), bits


def masked_multiply(a, b, mask: DcsrBlock, sr, inner_base: int,
                    ell: int = 64) -> tuple[DcsrBlock, DcsrBlock]:
    """a . b restricted to the positions listed in mask, an a.n_rows x
    b.n_cols block.

    Only the rows of a that hold a mask position are expanded, and products
    landing outside the mask are dropped before the fold. Returns both the
    value block Z and the bitfield block H of contributing summation indices
    for the surviving positions; both fold from one sort of the products and
    share one key array. Raises ValueError when a or b is structure-only.
    """
    _require_values(a=a, b=b)
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
    start, count = _expand(inner, b.keys(), b.n_cols)
    bi, out = _products(rows, inner, start, count, b.keys(), b.n_cols)
    _, hit = locate(mk, out)
    e = np.arange(len(count)).repeat(count)[hit]
    bi, out = bi[hit], out[hit]
    x = avals[e]
    sr.np_mul(x, b.vals[bi].astype(dtype, copy=False), out=x)
    keys, (z, h) = _sort_fold(out, (x, sr.np_add),
                              (_bits(inner, inner_base, ell)[e], np.bitwise_or))
    return (DcsrBlock(a.n_rows, b.n_cols, keys, z),
            DcsrBlock(a.n_rows, b.n_cols, keys, h))
