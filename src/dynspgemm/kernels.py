"""Sparse multiply kernels over one pair of local blocks, by
expand-sort-compress (ESC; Dalton, Olson & Bell, ACM TOMS 2015), on the
blocks' sorted entry keys.

Expand: each entry (r, k) of a meets row k of b, one elementary product
per entry there. Row k of b is the run of its keys in [k * m, (k + 1) * m),
m its width, found by two `searchsorted` calls (_expand), so only the rows
that a names are read and the cost tracks the number of products, not the
size of b or the dense dimensions. Entry (r, k) and key k * m + c meet at
output key r * m + c (_products), and callers spread a's values and bits
to the products with .repeat(count); the bit of summation index k is
1 << (k mod 64) in a uint64 word (_bits). Sort and compress: a stable sort
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
band-sized. masked_multiply expands only the rows of a that hold a mask
position, drops the products outside the mask, and folds both its values
and its bitfields from one sort. It tests a product against the mask with
one read of a bool table, a row of cells per mask row, set at the mask's
entries; where that table would hold more than MASK_TABLE_RATIO cells per
product formed or mask entry, it searches the mask's keys instead. The
value kernels raise ValueError on a structure-only operand;
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

MASK_TABLE_RATIO = 64
"""Cells that masked_multiply's mask table may hold per product formed
or mask entry: one bool per column of each row that holds a mask position.
Past that, the products search the mask's keys instead, whose memory stays
bounded on wide blocks. Over the 64 calls of a `general-q2` run the table
held at most 36 and a median of 13 cells per product or mask entry, so no
benchmark workload takes the search: it is a memory guard. The bound is set
by memory, not speed: on synthetic calls of 20k products and 15k mask
entries, the table stayed faster up to about 500 cells per product or
entry, and at 64 it took 0.9 ms against the search's 1.4 ms at 2.3 times
the search's traced peak (3.0 MB against 1.3 MB; 2 CPUs)."""


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


def _bits(inner: np.ndarray, inner_base: int) -> np.ndarray:
    """1 << ((inner_base + k) mod 64) per inner index k, as uint64."""
    shift = ((inner_base + inner) & 63).astype(np.uint64)
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

def pattern_multiply(a, b, inner_base: int) -> tuple[DcsrBlock, DcsrBlock]:
    """Structure of a . b plus, per output entry, the or of bit
    ((inner_base + k) mod 64) over every summation index k that contributes
    structurally. Values of a and b are ignored; structure-only blocks work.
    inner_base is the global index of local inner index 0.

    Returns (structure, bitfields) sharing the same positions; the structure
    block is value-free and the bitfields are uint64.
    """
    if a.n_cols != b.n_rows:
        raise ValueError(f"inner dimensions differ: {a.n_cols} vs {b.n_rows}")
    bits = DcsrBlock.empty(a.n_rows, b.n_cols, dtype=np.uint64)
    if a.nnz and b.nnz:
        rows, inner, _ = a.to_arrays()
        bit = _bits(inner, inner_base)
        keys, (vals,) = _banded_esc(
            rows, inner, b,
            lambda s, count, _: ((bit[s].repeat(count), np.bitwise_or),))
        bits = DcsrBlock(a.n_rows, b.n_cols, keys, vals)
    return DcsrBlock(bits.n_rows, bits.n_cols, bits.keys(), None), bits


def masked_multiply(a, b, mask: DcsrBlock, sr,
                    inner_base: int) -> tuple[DcsrBlock, DcsrBlock]:
    """a . b restricted to the positions listed in mask, an a.n_rows x
    b.n_cols block.

    Only the rows of a that hold a mask position are expanded, and products
    landing outside the mask are dropped before the fold. Each row holding
    a mask position gets a slot, and a bool table of slots x b.n_cols cells
    is set at the mask's entries, so a product of row r at output key out
    is kept when table[out + (slot[r] - r) * b.n_cols] is set. The table is
    built only while its cells are at most MASK_TABLE_RATIO times the
    products formed plus the mask entries; past that, as on a wide block,
    the products are searched for in the mask's keys, in memory that stays
    product-sized. Both keep the same products in the same order, so the
    result does not depend on which ran. Returns both the value block Z and
    the uint64 bitfield block H of contributing summation indices (bit
    (inner_base + k) mod 64) for the surviving positions; both fold from
    one sort of the products and share one key array. Raises ValueError
    when a or b is structure-only.
    """
    _require_values(a=a, b=b)
    if a.n_cols != b.n_rows:
        raise ValueError(f"inner dimensions differ: {a.n_cols} vs {b.n_rows}")
    if (mask.n_rows, mask.n_cols) != (a.n_rows, b.n_cols):
        raise ValueError(f"mask is {mask.n_rows}x{mask.n_cols}, the product "
                         f"{a.n_rows}x{b.n_cols}")
    dtype = sr.np_dtype
    mk, w = mask.keys(), max(mask.n_cols, 1)
    mask_rows = mk // w
    rows, inner, avals = a.to_arrays(dtype)
    in_mask = np.zeros(a.n_rows, dtype=bool)
    in_mask[mask_rows] = True
    keep = in_mask[rows]
    rows, inner, avals = rows[keep], inner[keep], avals[keep]
    start, count = _expand(inner, b.keys(), b.n_cols)
    bi, out = _products(rows, inner, start, count, b.keys(), b.n_cols)
    slot, n_slots = in_mask.cumsum() - 1, np.count_nonzero(in_mask)
    if n_slots * w <= MASK_TABLE_RATIO * (len(out) + len(mk)):
        # mask entry (r, c) sets table[slot[r] * w + c], which a product of
        # row r at output key out reads at out + shift[r]
        shift = (slot - np.arange(len(slot))) * w
        table = np.zeros(n_slots * w, dtype=bool)
        table[mk + shift[mask_rows]] = True
        at = shift[rows].repeat(count)
        at += out
        hit = table[at]
        del table, at   # freed before the product-sized gathers
    else:
        _, hit = locate(mk, out)
    # gather by the survivors' indices: when about half the products
    # survive, a gather by a bool mask costs several times a take
    kept = np.flatnonzero(hit)
    e = np.arange(len(count)).repeat(count).take(kept)
    bi, out = bi.take(kept), out.take(kept)
    x = avals[e]
    sr.np_mul(x, b.vals[bi].astype(dtype, copy=False), out=x)
    keys, (z, h) = _sort_fold(out, (x, sr.np_add),
                              (_bits(inner, inner_base)[e], np.bitwise_or))
    return (DcsrBlock(a.n_rows, b.n_cols, keys, z),
            DcsrBlock(a.n_rows, b.n_cols, keys, h))
