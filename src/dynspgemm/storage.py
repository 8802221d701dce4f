"""Local sparse blocks: one block type (DcsrBlock) for every block, the
operands A and B as much as the maintained product C and everything
produced or exchanged, plus the wire codec used for every transport
payload. Update batches (apply_batch) and the merges into C (add_into,
replace_touched) change a block in place; or_into, a bitwise-or merge, is
kept for uint64 blocks, and no update path calls it.

A block is its canonical entry keys r * n_cols + c, one strictly increasing
int64 array, and its values in key order, so array code finds positions
with `searchsorted` and no operation rebuilds rows. Kernels and combinators
emit blocks only through _sort_fold (directly or behind dcsr_from_keys and
dcsr_from_coo): one stable sort by key (packed key-and-index words, or a
stable argsort for short keys, keys in a few ascending runs and keys too
wide to pack) and an index compress that folds repeated keys in input
order, for each value array given; with none, the keys alone sort and
compress. Every in-place change is one call of one write, _write, from
its three callers: add_into (and or_into), replace_touched and
redistribute.apply_batch. Every writer checks that its operands share
dst's shape and searches with the batch's keys only, once each:
O(batch log nnz), plus one O(nnz) copy of the block's arrays only when a
key is added or removed. The write goes by index: hits and misses split
once (np.flatnonzero) and gather with take, as a mask neither nearly
empty nor nearly full gathers several times slower (replace_touched finds
0-41% of its touched keys held on general-q2). The wire carries a block
as it is stored (dcsr_serialize: a header, the keys and the values), and
dcsr_deserialize checks it (DcsrBlock.check) and returns read-only views
of the message. A value codec is the values' dtype (ValueCodec): a
semiring's np_dtype, or none. The dcsr_* names, after the doubly-compressed
sparse row layout (DCSR; Buluc & Gilbert, IPDPS 2008) that survives only
as the nz_rows and iter_rows views, stay because the benchmark hooks wrap
them by name.

Structural convention everywhere in this package: an entry whose value equals
the semiring zero is still a stored entry. Deleting is explicit; arithmetic
never drops positions.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

import numpy as np


class DecodeError(ValueError):
    """Raised when a wire buffer cannot be decoded as a canonical block."""


# ---------------------------------------------------------------------------
# block
# ---------------------------------------------------------------------------

class DcsrBlock:
    """A sparse block as its entry keys r * n_cols + c, strictly increasing
    int64, and vals, an array in key order or None when structure-only
    (value width 0 on the wire). The wire carries exactly these two arrays;
    the DCSR layout exists only in the derived nz_rows and iter_rows views.
    The constructor takes keys in that order; dcsr_from_keys and
    dcsr_from_coo take entries in any order. Update batches (apply_batch)
    and the merges into C change a block in place. A decoded block's keys
    and values are read-only views of its message, so no write takes one
    as its destination."""

    __slots__ = ("n_rows", "n_cols", "_keys", "vals")

    def __init__(self, n_rows, n_cols, keys, vals):
        self.n_rows = n_rows
        self.n_cols = n_cols
        self._keys = np.asarray(keys, dtype=np.int64)
        self.vals = None if vals is None else np.asarray(vals)

    @property
    def nnz(self) -> int:
        return len(self._keys)

    @classmethod
    def empty(cls, n_rows: int, n_cols: int, structure_only: bool = False,
              dtype=np.float64) -> "DcsrBlock":
        vals = None if structure_only else np.empty(0, dtype=dtype)
        return cls(n_rows, n_cols, [], vals)

    def keys(self) -> np.ndarray:
        """Entry keys r * n_cols + c, strictly increasing."""
        return self._keys

    @property
    def nz_rows(self) -> np.ndarray:
        """The rows holding an entry, ascending."""
        return _dcsr_arrays(self)[0]

    def iter_rows(self):
        """(row, cols, vals) per listed row, cols and vals as lists of Python
        scalars; vals is None when structure-only."""
        nz_rows, ptr, cols = (a.tolist() for a in _dcsr_arrays(self))
        vals = None if self.vals is None else self.vals.tolist()
        for r, lo, hi in zip(nz_rows, ptr, ptr[1:]):
            yield r, cols[lo:hi], None if vals is None else vals[lo:hi]

    def to_arrays(self, dtype=None):
        """(rows, cols, vals) arrays in key order, rows and cols new arrays;
        vals cast to dtype when given, None when structure-only."""
        vals = self.vals
        if vals is not None and dtype is not None:
            vals = vals.astype(dtype, copy=False)
        rows = self._keys // max(self.n_cols, 1)
        cols = np.multiply(rows, self.n_cols)
        return rows, np.subtract(self._keys, cols, out=cols), vals

    def check(self) -> None:
        """Raise ValueError unless the keys strictly increase within
        [0, n_rows * n_cols) and vals, when present, has one per key."""
        k = self._keys
        if np.count_nonzero(k[1:] <= k[:-1]):
            raise ValueError("keys not strictly increasing")
        if len(k) and (k[0] < 0 or k[-1] >= self.n_rows * self.n_cols):
            raise ValueError(f"key outside a {self.n_rows}x{self.n_cols} block")
        if self.vals is not None and len(self.vals) != len(k):
            raise ValueError(f"{len(self.vals)} values for {len(k)} keys")


def _dcsr_arrays(b: DcsrBlock):
    """(nz_rows, row_ptr, cols) of b, its DCSR layout."""
    rows, cols, _ = b.to_arrays()
    starts = _run_starts(rows).nonzero()[0]
    return rows[starts], np.append(starts, len(rows)), cols


# ---------------------------------------------------------------------------
# builders and block combinators
# ---------------------------------------------------------------------------

def dcsr_from_coo(n_rows: int, n_cols: int, rows, cols, vals=None,
                  fold=None) -> DcsrBlock:
    """Canonical block from COO arrays in any order; vals None gives a
    structure-only block. Entries at one position fold as in
    dcsr_from_keys."""
    keys = np.asarray(rows, dtype=np.int64) * n_cols + np.asarray(cols, dtype=np.int64)
    return dcsr_from_keys(n_rows, n_cols, keys, vals, fold)


def dcsr_from_keys(n_rows: int, n_cols: int, keys: np.ndarray, vals=None,
                   fold=None) -> DcsrBlock:
    """Canonical block from entry keys r * n_cols + c in any order. Entries
    at one key fold in input order: the first sets the value and fold (a
    ufunc) combines the rest into it one by one, left to right. Without
    fold the first entry stays."""
    if vals is None:
        keys, _ = _sort_fold(keys)
        return DcsrBlock(n_rows, n_cols, keys, None)
    keys, (vals,) = _sort_fold(keys, (vals, fold))
    return DcsrBlock(n_rows, n_cols, keys, vals)


_PACK_MIN = 1 << 12
"""Keys shorter than this sort by stable argsort: below it numpy's per-call
cost outweighs what the packed-word sort saves."""

_PACK_MIN_DESCENTS = 64
"""Keys descending fewer times than this form a few ascending runs (the
concatenated blocks of combine_blocks), which a stable sort (timsort)
merges in linear time, faster than a packed-word sort or a quicksort."""


def _pack_shift(keys: np.ndarray) -> int:
    """b, the bit length of len(keys) - 1, when keys sort as packed words
    (key - min) << b | index; 0 when they take the stable argsort instead:
    keys shorter than _PACK_MIN, not int64, descending fewer than
    _PACK_MIN_DESCENTS times, or whose words would not fit in 63 bits."""
    n = len(keys)
    if n < _PACK_MIN or keys.dtype != np.int64:
        return 0
    b = (n - 1).bit_length()
    if (int(keys.max()) - int(keys.min())).bit_length() + b > 63:
        return 0
    return 0 if _few_runs(keys) else b


def _few_runs(keys: np.ndarray) -> bool:
    """True when keys descend fewer than _PACK_MIN_DESCENTS times."""
    return np.count_nonzero(keys[1:] < keys[:-1]) < _PACK_MIN_DESCENTS


def _stable_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, keys[order]) for the stable argsort order of keys, without
    changing keys. Keys that _pack_shift admits sort as packed words
    (key - min) << b | i, i the input index, by one in-place ndarray.sort:
    the index breaks ties, so the order is the stable one, and the sorted
    keys come back from the words by a shift, with no gather. The words and
    the order are the only key-sized arrays, as with argsort."""
    b = _pack_shift(keys)
    if not b:
        order = keys.argsort(kind="stable")
        return order, keys[order]
    lo = keys.min()
    words = np.subtract(keys, lo)
    words <<= b
    order = np.arange(len(keys))
    words |= order
    words.sort()
    np.bitwise_and(words, (1 << b) - 1, out=order)
    words >>= b
    words += lo
    return order, words


def _sort_fold(keys: np.ndarray, *columns) -> tuple[np.ndarray, list]:
    """Sort keys stably (_stable_order) and compress each run of equal keys
    to one entry, leaving keys unchanged. Returns the distinct keys,
    ascending, and one array per (vals, fold) pair in columns: per key, its
    first entry's value with fold (a ufunc, or None to keep that value)
    applied to the rest of its run one by one, left to right in input
    order. Every column folds from the one sort, through integer gathers at
    the run starts and fold.at over the other entries of each run. With no
    column, the keys alone sort (stably when _few_runs) and compress."""
    if not columns:
        keys = np.sort(keys, kind="stable" if _few_runs(keys) else None)
        return keys.take(np.flatnonzero(_run_starts(keys))), []
    order, keys = _stable_order(keys)
    first = _run_starts(keys)
    starts = np.flatnonzero(first)
    head, tail = order[starts], None
    keys = keys[starts]
    if len(head) < len(order) and any(f is not None for _, f in columns):
        rest = np.flatnonzero(~first)
        tail = order[rest]
        # the r-th non-first entry, at sorted index p, has p - r run starts
        # at or before it, so it folds into run p - r - 1
        seg = rest
        seg -= np.arange(1, len(rest) + 1)
    del order, first, starts   # product-sized: free them before the folds
    folded = []
    for vals, fold in columns:
        vals = np.asarray(vals)
        out = vals[head]
        if fold is not None and tail is not None:
            fold.at(out, seg, vals[tail])
        folded.append(out)
    return keys, folded


def _run_starts(sorted_values: np.ndarray) -> np.ndarray:
    """Mask of the entries that differ from their predecessor."""
    first = np.empty(len(sorted_values), dtype=bool)
    first[:1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=first[1:])
    return first


def locate(keys: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pos, found) for each query in the strictly increasing keys: its
    insertion position, and whether keys holds it there."""
    pos = keys.searchsorted(queries)
    if not len(keys):
        return pos, np.zeros(len(pos), dtype=bool)
    # a query above every key clips to the last key, which is smaller
    return pos, keys.take(pos, mode="clip") == queries


def combine_blocks(blocks, n_rows: int, n_cols: int, fold) -> DcsrBlock:
    """Fold equal-shaped blocks in list order into one canonical block. A
    position seen again folds as fold(old, new), in list order, with fold a
    ufunc (a semiring's np_add); with fold None the result is the
    structure-only union of the members' positions. Folded members must
    share one value dtype: ValueError otherwise, as numpy would promote the
    values to a type fold may not take. A single
    non-empty member, or the first when all are empty, is returned as is
    (its keys alone when fold is None)."""
    if fold is not None:
        dtypes = {b.vals.dtype for b in blocks}
        if len(dtypes) > 1:
            raise ValueError("combine_blocks members hold values of dtypes "
                             f"{' and '.join(sorted(map(str, dtypes)))}")
    full = [b for b in blocks if b.nnz] or blocks[:1]
    if len(full) == 1:
        b = full[0]
        return b if fold else DcsrBlock(n_rows, n_cols, b.keys(), None)
    keys = np.concatenate([b.keys() for b in blocks])
    vals = None if fold is None else np.concatenate([b.vals for b in blocks])
    return dcsr_from_keys(n_rows, n_cols, keys, vals, fold)


def same_entries(x: DcsrBlock, y: DcsrBlock, dtype) -> bool:
    """True when x and y store the same positions with equal values (cast to
    dtype). Both are canonical, so their arrays compare directly."""
    return ((x.n_rows, x.n_cols) == (y.n_rows, y.n_cols)
            and np.array_equal(x.keys(), y.keys())
            and np.array_equal(x.vals.astype(dtype, copy=False),
                               y.vals.astype(dtype, copy=False)))


def _check_same_shape(dst: DcsrBlock, other: DcsrBlock, name: str) -> None:
    """ValueError unless other has dst's shape: equal keys name equal
    positions only under one width."""
    if (other.n_rows, other.n_cols) != (dst.n_rows, dst.n_cols):
        raise ValueError(f"{name} is {other.n_rows}x{other.n_cols}, "
                         f"dst is {dst.n_rows}x{dst.n_cols}")


def _write(dst, sk, sv, pos, held, fold, gone) -> None:
    """The one in-place write of a block. Entries (sk, sv), sk sorted, go to
    their positions pos in dst, held where dst holds the key (locate): held
    keys fold as fold(old, new), or are overwritten when fold is None, in
    place; the entries at gone (ascending held positions, none of them
    written) are deleted; the other keys insert at their ranks pos,
    corrected for the deletions. Only an added or deleted key copies the
    keys and the values, O(nnz), into new arrays."""
    hit, miss = np.flatnonzero(held), np.flatnonzero(~held)
    at = pos.take(hit)
    vals = sv.take(hit)
    dst.vals[at] = vals if fold is None else fold(dst.vals.take(at), vals)
    if not (len(gone) or len(miss)):
        return
    slot = pos.take(miss)
    if len(gone):
        keep = np.ones(dst.nnz, dtype=bool)
        keep[gone] = False
        slot -= gone.searchsorted(slot)
    if len(miss):
        # each new key lands at its rank plus its own index, and the kept
        # entries fill the other slots in order
        slot += np.arange(len(miss))
        old = np.ones(dst.nnz - len(gone) + len(miss), dtype=bool)
        old[slot] = False

    def written(a, new):
        if len(gone):
            a = a[keep]
        if not len(miss):
            return a
        out = np.empty(len(old), dtype=a.dtype)
        out[slot] = new.take(miss)
        out[old] = a
        return out

    dst._keys, dst.vals = written(dst.keys(), sk), written(dst.vals, sv)


def add_into(dst: DcsrBlock, src: DcsrBlock, fold: np.ufunc) -> None:
    """Fold src into dst in place: new positions insert, existing ones fold
    as fold(old, new), with fold a ufunc, a semiring's np_add. Into an empty
    dst, src's keys and values are copied, the values cast to dst's dtype.
    Raises ValueError when src's shape differs from dst's."""
    _check_same_shape(dst, src, "src")
    pos, found = locate(dst.keys(), src.keys())
    _write(dst, src.keys(), src.vals, pos, found, fold, pos[:0])


def or_into(dst: DcsrBlock, src: DcsrBlock) -> None:
    """Bitwise-or the entries of src into dst, in place: add_into with
    np.bitwise_or. No update path calls it."""
    add_into(dst, src, np.bitwise_or)


def replace_touched(dst: DcsrBlock, touched: DcsrBlock, src: DcsrBlock) -> int:
    """dst = (dst - touched) | src, in place: every touched entry of dst is
    replaced by src's entry there or deleted. Returns the number deleted.

    Raises ValueError, before any entry changes, when src holds a position
    outside touched, or when touched or src differs from dst in shape.

    Only the touched keys are searched for in dst, and src's keys in
    touched only when they differ from them: O(t log nnz(dst)) for t
    touched entries. Replaced entries change in place (_write); the keys
    and values are copied, O(nnz), only when an entry is added or deleted."""
    dk, tk, sk = dst.keys(), touched.keys(), src.keys()
    _check_same_shape(dst, touched, "touched")
    _check_same_shape(dst, src, "src")
    pos, held = locate(dk, tk)
    gone = pos[:0]
    if not np.array_equal(sk, tk):
        s_at, in_touched = locate(tk, sk)
        if not in_touched.all():
            k = int(sk[np.argmin(in_touched)])
            raise ValueError(f"src holds key {k}, which is not a touched key")
        lost = held.copy()   # per touched key: dst holds it and src does not
        lost[s_at] = False
        gone = pos.take(np.flatnonzero(lost))
        pos, held = pos.take(s_at), held.take(s_at)
    _write(dst, sk, src.vals, pos, held, None, gone)
    return len(gone)


def filter_rows_by_bloom(a: DcsrBlock, rows) -> DcsrBlock:
    """Keep a's entries whose row is flagged: rows holds one bool per local
    row of a. This is the general update's touched-row filter of A'; it
    filters by row alone, by no summation index, and keeps its old name
    until the benchmark hooks that wrap it by name are renamed (ROADMAP
    item 1)."""
    keep = np.asarray(rows, dtype=bool)[a.keys() // max(a.n_cols, 1)]
    return DcsrBlock(a.n_rows, a.n_cols, a.keys()[keep], a.vals[keep])


# ---------------------------------------------------------------------------
# wire codec
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sHHQQQ")
_MAGIC = b"DCSR"
_VERSION = 2
_KEY = np.dtype("<i8")
_MAX_CELLS = 2 ** 63 - 1  # n_rows * n_cols bound, so keys and it fit in int64


class ValueCodec(NamedTuple):
    dtype: np.dtype | None   # the values' wire dtype, None: structure-only

    @property
    def width(self) -> int:   # bytes per value, as the header carries it
        return 0 if self.dtype is None else self.dtype.itemsize


def semiring_codec(sr) -> ValueCodec:
    return ValueCodec(sr.np_dtype)


STRUCTURE_CODEC = ValueCodec(None)


def dcsr_serialize(b: DcsrBlock, codec: ValueCodec) -> bytes:
    """The block as stored: a header (magic, version, value width, n_rows,
    n_cols, nnz), the keys as little-endian int64, then the values in
    codec's dtype."""
    head = _HEADER.pack(_MAGIC, _VERSION, codec.width, b.n_rows, b.n_cols, b.nnz)
    parts = [head, b.keys().astype(_KEY, copy=False).tobytes()]
    if codec.width:
        parts.append(b.vals.astype(codec.dtype, copy=False).tobytes())
    return b"".join(parts)


def dcsr_deserialize(buf: bytes, codec: ValueCodec) -> DcsrBlock:
    """The block of a dcsr_serialize buffer, its keys and values read-only
    views of buf. Raises DecodeError unless buf is one whole canonical block
    whose keys fit in int64."""
    if len(buf) < _HEADER.size:
        raise DecodeError(f"buffer too short for header: {len(buf)} bytes")
    magic, version, width, n_rows, n_cols, nnz = _HEADER.unpack_from(buf)
    if magic != _MAGIC:
        raise DecodeError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise DecodeError(f"unsupported version {version}")
    if width != codec.width:
        raise DecodeError(f"value width {width} != expected {codec.width}")
    if n_rows * n_cols > _MAX_CELLS:
        raise DecodeError(f"a {n_rows}x{n_cols} block has keys beyond int64")
    want = _HEADER.size + (8 + width) * nnz
    if len(buf) != want:
        raise DecodeError(f"buffer length {len(buf)} != expected {want}")
    off = _HEADER.size + 8 * nnz
    keys = np.frombuffer(buf, dtype=_KEY, count=nnz, offset=_HEADER.size)
    vals = np.frombuffer(buf, codec.dtype, nnz, off) if width else None
    block = DcsrBlock(n_rows, n_cols, keys, vals)
    try:
        block.check()
    except ValueError as exc:
        raise DecodeError(str(exc)) from None
    return block
