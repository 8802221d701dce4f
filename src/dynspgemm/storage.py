"""Local sparse blocks: one block type (DcsrBlock) for every block, the
operands A and B as much as the maintained product C, its bitfields F and
everything produced or exchanged, plus the wire codec used for every
transport payload. Bitfield blocks are blocks whose values are the
bitfields. Update batches (apply_batch) and the merges into C and F
(add_into, or_into, replace_touched) change a block in place.

A block is its canonical entry keys r * n_cols + c, one strictly increasing
int64 array, and its values in key order, so array code finds positions
with `searchsorted` and no operation rebuilds rows. Kernels and combinators
emit blocks only through dcsr_from_keys (or dcsr_from_coo), which sorts by
key and folds repeated keys in input order; in-place changes go through one
sorted merge of disjoint key sets (_merge_keys). Every in-place writer
searches with the batch's keys only, once each, and hands the ranks it found
to the merge: the searches cost O(batch log nnz), plus one O(nnz) copy of
the block's arrays, only when a key is added or removed. The wire carries a
block as it is stored: dcsr_serialize writes a header, the keys and the
values, and dcsr_deserialize checks the header and the keys
(DcsrBlock.check) and returns views of the message. The doubly-compressed
sparse row layout (DCSR; Buluc & Gilbert, IPDPS 2008), which lists only the
non-empty rows, survives only as the derived nz_rows and iter_rows views;
the dcsr_* names stay because the benchmark hooks wrap them by name.

Structural convention everywhere in this package: an entry whose value equals
the semiring zero is still a stored entry. Deleting is explicit; arithmetic
never drops positions.
"""

from __future__ import annotations

import struct
from typing import Callable, NamedTuple

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
    and the merges into C and F change a block in place. A decoded block's
    keys (and values, bool aside) are read-only views of its message, so no
    merge takes one as its destination.
    """

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

    def triples(self):
        """(row, col, value) as Python scalars; value None when
        structure-only."""
        rows, cols, vals = self.to_arrays()
        vals = [None] * len(cols) if vals is None else vals.tolist()
        return zip(rows.tolist(), cols.tolist(), vals)

    def entry_map(self) -> dict:
        return {(r, c): v for r, c, v in self.triples()}

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
    order = keys.argsort(kind="stable")
    keys = keys[order]
    first = _run_starts(keys)
    if vals is not None:
        v = np.asarray(vals)[order]
        vals = v[first]
        if fold is not None and np.count_nonzero(first) < len(first):
            rest = ~first
            fold.at(vals, first.cumsum()[rest] - 1, v[rest])
    return DcsrBlock(n_rows, n_cols, keys[first], vals)


def _run_starts(sorted_values: np.ndarray) -> np.ndarray:
    """Mask of the entries that differ from their predecessor."""
    first = np.empty(len(sorted_values), dtype=bool)
    first[:1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=first[1:])
    return first


def _merge_keys(dst: DcsrBlock, keys, vals, at, new_keys, new_vals) -> None:
    """Set dst to the entries (keys, vals) plus (new_keys, new_vals), two
    disjoint sorted key sets; dst keeps its value dtype. at is the rank of
    each new key among keys, as its caller's search found it, so the merge
    searches nothing: each new key lands at its rank plus its own index, and
    the old keys fill the remaining slots in order. One O(len(keys)) copy."""
    n = len(keys) + len(new_keys)
    at = at + np.arange(len(new_keys))
    old = np.ones(n, dtype=bool)
    old[at] = False
    merged = np.empty(n, dtype=np.int64)
    merged[at] = new_keys
    merged[old] = keys
    merged_vals = np.empty(n, dtype=dst.vals.dtype)
    merged_vals[at] = new_vals
    merged_vals[old] = vals
    dst._keys, dst.vals = merged, merged_vals


def locate(keys: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pos, found) for each query in the strictly increasing keys: its
    insertion position, and whether keys holds it there."""
    pos = keys.searchsorted(queries)
    found = pos < len(keys)
    found[found] = keys[pos[found]] == queries[found]
    return pos, found


def combine_blocks(blocks, n_rows: int, n_cols: int, fold) -> DcsrBlock:
    """Fold equal-shaped blocks in list order into one canonical block. A
    position seen again folds as fold(old, new), in list order, with fold a
    ufunc (a semiring's np_add, or np.bitwise_or for bitfields); with fold
    None the blocks are structure-only and the result is the union of their
    positions. Folded members must share one value dtype: ValueError
    otherwise, as numpy would promote the values to a type fold may not
    take."""
    keys = np.concatenate([b.keys() for b in blocks])
    if fold is None:
        return dcsr_from_keys(n_rows, n_cols, keys)
    dtypes = {b.vals.dtype for b in blocks}
    if len(dtypes) > 1:
        raise ValueError("combine_blocks members hold values of dtypes "
                         f"{' and '.join(sorted(map(str, dtypes)))}")
    return dcsr_from_keys(n_rows, n_cols, keys,
                          np.concatenate([b.vals for b in blocks]), fold)


def same_entries(x: DcsrBlock, y: DcsrBlock, dtype) -> bool:
    """True when x and y store the same positions with equal values (cast to
    dtype). Both are canonical, so their arrays compare directly."""
    return ((x.n_rows, x.n_cols) == (y.n_rows, y.n_cols)
            and np.array_equal(x.keys(), y.keys())
            and np.array_equal(x.vals.astype(dtype, copy=False),
                               y.vals.astype(dtype, copy=False)))


def add_into(dst: DcsrBlock, src: DcsrBlock, fold: np.ufunc) -> None:
    """Fold src into dst in place: new positions insert, existing ones fold
    as fold(old, new), with fold a ufunc, a semiring's np_add."""
    _fold_into(dst, src, fold)


def or_into(dst: DcsrBlock, src: DcsrBlock) -> None:
    """Bitwise-or the bitfield entries of src into dst, in place."""
    _fold_into(dst, src, np.bitwise_or)


def _fold_into(dst: DcsrBlock, src: DcsrBlock, fold: np.ufunc) -> None:
    if not src.nnz:
        return
    dk, sk = dst.keys(), src.keys()
    pos, hit = locate(dk, sk)
    at = pos[hit]
    dst.vals[at] = fold(dst.vals[at], src.vals[hit])
    if np.count_nonzero(hit) < len(hit):
        miss = ~hit
        _merge_keys(dst, dk, dst.vals, pos[miss], sk[miss], src.vals[miss])


def replace_touched(dst: DcsrBlock, touched: DcsrBlock, src: DcsrBlock) -> int:
    """dst = (dst - touched) | src, in place: every touched entry of dst is
    replaced by src's entry there or deleted. Returns the number deleted.
    Raises ValueError, before any entry changes, when src holds a position
    outside touched.

    Only the touched keys are searched for in dst, and src's keys in
    touched, so the searches cost O(t log nnz(dst)) for t touched entries.
    Replaced entries change in place; dst's arrays are copied once, O(nnz),
    only when an entry is added or deleted."""
    dk, tk, sk = dst.keys(), touched.keys(), src.keys()
    s_at, in_touched = locate(tk, sk)
    if not in_touched.all():
        k = int(sk[~in_touched][0])
        raise ValueError(f"src holds key {k}, which is not a touched key")
    pos, held = locate(dk, tk)
    s_held = held[s_at]   # per src entry: does dst hold its key
    dst.vals[pos[s_at[s_held]]] = src.vals[s_held]
    gone = held.copy()    # per touched key: does dst hold it and src not
    gone[s_at] = False
    deleted = int(np.count_nonzero(gone))
    new = ~s_held
    if deleted or new.any():
        keys, vals, at = dk, dst.vals, pos[s_at[new]]
        if deleted:
            keep = np.ones(len(dk), dtype=bool)
            keep[pos[gone]] = False
            keys, vals = dk[keep], vals[keep]
            # the deleted keys below a new key are touched keys before it
            at -= np.cumsum(gone)[s_at[new]]
        _merge_keys(dst, keys, vals, at, sk[new], src.vals[new])
    return deleted


def filter_rows_by_bloom(a: DcsrBlock, r_vec, col_base: int, ell: int) -> DcsrBlock:
    """Keep a's entries (r, c, v) whose row has a bitfield r_vec[r] with bit
    ((col_base + c) mod ell) set. col_base is the global index of local
    column 0.
    """
    r_vec = np.asarray(r_vec, dtype=np.uint64)
    rows, cols, vals = a.to_arrays()
    shift = ((col_base + cols) & (ell - 1)).astype(np.uint64)  # ell is a power of two
    keep = (r_vec[rows] >> shift) & np.uint64(1) != 0
    return DcsrBlock(a.n_rows, a.n_cols, a.keys()[keep], vals[keep])


# ---------------------------------------------------------------------------
# wire codec
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sHHQQQ")
_MAGIC = b"DCSR"
_VERSION = 2
_KEY = np.dtype("<i8")
_MAX_CELLS = 2 ** 63 - 1  # n_rows * n_cols bound, so keys and it fit in int64


class ValueCodec(NamedTuple):
    width: int
    encode: Callable  # (values) -> bytes
    decode: Callable  # (buf, count) -> array of dtype
    dtype: np.dtype | None   # None when structure-only


def semiring_codec(sr) -> ValueCodec:
    return ValueCodec(sr.value_width, sr.encode_values, sr.decode_array,
                      sr.np_dtype)


def bloom_codec(ell: int) -> ValueCodec:
    dt = np.dtype(f"<u{ell // 8}")
    return ValueCodec(
        ell // 8,
        lambda values: np.asarray(values, dtype=dt).tobytes(),
        lambda buf, count: np.frombuffer(buf, dtype=dt, count=count),
        dt,
    )


STRUCTURE_CODEC = ValueCodec(0, lambda values: b"", lambda buf, count: None,
                             None)


def dcsr_serialize(b: DcsrBlock, codec: ValueCodec) -> bytes:
    """The block as stored: a header (magic, version, value width, n_rows,
    n_cols, nnz), the keys as little-endian int64, then codec's values."""
    head = _HEADER.pack(_MAGIC, _VERSION, codec.width, b.n_rows, b.n_cols, b.nnz)
    parts = [head, b.keys().astype(_KEY, copy=False).tobytes()]
    if codec.width:
        parts.append(codec.encode(b.vals))
    return b"".join(parts)


def dcsr_deserialize(buf: bytes, codec: ValueCodec) -> DcsrBlock:
    """The block of a dcsr_serialize buffer, its keys a read-only view of buf.
    Raises DecodeError unless buf is one whole canonical block whose keys
    fit in int64."""
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
    vals = codec.decode(memoryview(buf)[off:], nnz) if width else None
    block = DcsrBlock(n_rows, n_cols, keys, vals)
    try:
        block.check()
    except ValueError as exc:
        raise DecodeError(str(exc)) from None
    return block
