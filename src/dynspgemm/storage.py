"""Local sparse blocks: one doubly-compressed (DCSR) block type over numpy
arrays for every block, the operands A and B as much as the maintained
product C, its bitfields F and everything produced or exchanged, plus the
DCSR wire codec used for every transport payload. Bitfield blocks are DCSR
blocks whose values are the bitfields. Update batches (apply_batch) and the
merges into C and F (add_into, or_into, replace_touched) change a block in
place.

A DCSR block is canonical: its entry keys r * n_cols + c strictly increase,
so array code finds positions with `searchsorted`. Kernels and combinators
emit blocks only through dcsr_from_coo, which sorts by key and folds
repeated positions in input order; in-place changes go through one sorted
merge of disjoint key sets (_merge_keys).

Structural convention everywhere in this package: an entry whose value equals
the semiring zero is still a stored entry. Deleting is explicit; arithmetic
never drops positions.
"""

from __future__ import annotations

import operator
import struct
from typing import Callable, NamedTuple

import numpy as np

from .semiring import FOLD_UFUNCS


class DecodeError(ValueError):
    """Raised when a wire buffer cannot be decoded as a DCSR block."""


# ---------------------------------------------------------------------------
# compressed block
# ---------------------------------------------------------------------------

class DcsrBlock:
    """Doubly-compressed block: only non-empty rows are listed, in int64
    arrays nz_rows, row_ptr and cols, with vals an array or None when
    structure-only (value width 0 on the wire). Canonical: rows ascend and
    columns ascend within a row. The constructor takes lists or arrays in
    that order; dcsr_from_coo takes entries in any order. Update batches
    (apply_batch) and the merges into C and F change a block in place.
    """

    __slots__ = ("n_rows", "n_cols", "nz_rows", "row_ptr", "cols", "vals")

    def __init__(self, n_rows, n_cols, nz_rows, row_ptr, cols, vals):
        if len(row_ptr) != len(nz_rows) + 1:
            raise ValueError(f"row_ptr has {len(row_ptr)} entries for "
                             f"{len(nz_rows)} listed rows")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.nz_rows = np.asarray(nz_rows, dtype=np.int64)
        self.row_ptr = np.asarray(row_ptr, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.vals = None if vals is None else np.asarray(vals)

    @property
    def nnz(self) -> int:
        return int(self.row_ptr[-1])

    @classmethod
    def empty(cls, n_rows: int, n_cols: int, structure_only: bool = False,
              dtype=np.float64) -> "DcsrBlock":
        vals = None if structure_only else np.empty(0, dtype=dtype)
        return cls(n_rows, n_cols, [], [0], [], vals)

    def iter_rows(self):
        """(row, cols, vals) per listed row, cols and vals as lists of Python
        scalars; vals is None when structure-only."""
        ptr = self.row_ptr.tolist()
        cols = self.cols.tolist()
        vals = None if self.vals is None else self.vals.tolist()
        for k, r in enumerate(self.nz_rows.tolist()):
            lo, hi = ptr[k], ptr[k + 1]
            yield r, cols[lo:hi], None if vals is None else vals[lo:hi]

    def to_arrays(self, dtype=None):
        """(rows, cols, vals) arrays in canonical order; vals cast to dtype
        when given, None when structure-only."""
        ptr, vals = self.row_ptr, self.vals
        if vals is not None and dtype is not None:
            vals = vals.astype(dtype, copy=False)
        return self.nz_rows.repeat(ptr[1:] - ptr[:-1]), self.cols, vals

    def keys(self) -> np.ndarray:
        """Entry keys r * n_cols + c, strictly increasing."""
        return self.to_arrays()[0] * self.n_cols + self.cols

    def triples(self):
        """(row, col, value) as Python scalars; value None when
        structure-only."""
        rows, cols, vals = self.to_arrays()
        vals = [None] * len(cols) if vals is None else vals.tolist()
        return zip(rows.tolist(), cols.tolist(), vals)

    def entry_map(self) -> dict:
        return {(r, c): v for r, c, v in self.triples()}

    def check(self) -> None:
        assert np.all(np.diff(self.nz_rows) > 0), "nz_rows not strictly increasing"
        assert np.all((self.nz_rows >= 0) & (self.nz_rows < self.n_rows))
        assert self.row_ptr[0] == 0 and self.row_ptr[-1] == len(self.cols)
        assert np.all(np.diff(self.row_ptr) > 0), "listed row is empty"
        assert np.all((self.cols >= 0) & (self.cols < self.n_cols))
        assert np.all(np.diff(self.keys()) > 0), "columns not ascending within a row"
        if self.vals is not None:
            assert len(self.vals) == len(self.cols)


# ---------------------------------------------------------------------------
# builders and block combinators
# ---------------------------------------------------------------------------

def dcsr_from_coo(n_rows: int, n_cols: int, rows, cols, vals=None,
                  fold=None) -> DcsrBlock:
    """Canonical DCSR block from COO arrays in any order; vals None gives a
    structure-only block. Entries at one position fold in input order: the
    first sets the value and fold (a ufunc) combines the rest into it one
    by one, left to right. Without fold the first entry stays."""
    keys = np.asarray(rows, dtype=np.int64) * n_cols + np.asarray(cols, dtype=np.int64)
    order = keys.argsort(kind="stable")
    keys = keys[order]
    first = _run_starts(keys)
    if vals is not None:
        v = np.asarray(vals)[order]
        vals = v[first]
        if fold is not None and np.count_nonzero(first) < len(first):
            rest = ~first
            fold.at(vals, first.cumsum()[rest] - 1, v[rest])
    return _from_keys(n_rows, n_cols, keys[first], vals)


def _from_keys(n_rows: int, n_cols: int, keys: np.ndarray, vals) -> DcsrBlock:
    """DCSR block from strictly increasing entry keys."""
    rows = keys // max(n_cols, 1)
    starts = _run_starts(rows).nonzero()[0]
    return DcsrBlock(n_rows, n_cols, rows[starts],
                     np.concatenate((starts, [len(keys)])), keys - rows * n_cols, vals)


def _run_starts(sorted_values: np.ndarray) -> np.ndarray:
    """Mask of the entries that differ from their predecessor."""
    first = np.empty(len(sorted_values), dtype=bool)
    first[:1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=first[1:])
    return first


def _merge_keys(dst: DcsrBlock, keys, vals, new_keys, new_vals) -> None:
    """Set dst to the entries (keys, vals) plus (new_keys, new_vals), two
    disjoint sorted key sets; dst keeps its value dtype. Each new key lands
    at its rank among the old keys plus its own index, and the old keys
    fill the remaining slots in order."""
    n = len(keys) + len(new_keys)
    at = keys.searchsorted(new_keys) + np.arange(len(new_keys))
    old = np.ones(n, dtype=bool)
    old[at] = False
    merged = np.empty(n, dtype=np.int64)
    merged[at] = new_keys
    merged[old] = keys
    merged_vals = np.empty(n, dtype=dst.vals.dtype)
    merged_vals[at] = new_vals
    merged_vals[old] = vals
    b = _from_keys(dst.n_rows, dst.n_cols, merged, merged_vals)
    dst.nz_rows, dst.row_ptr, dst.cols, dst.vals = b.nz_rows, b.row_ptr, b.cols, b.vals


def locate(keys: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pos, found) for each query in the strictly increasing keys: its
    insertion position, and whether keys holds it there."""
    pos = keys.searchsorted(queries)
    found = pos < len(keys)
    found[found] = keys[pos[found]] == queries[found]
    return pos, found


def combine_blocks(blocks, n_rows: int, n_cols: int, combine,
                   structure_only: bool) -> DcsrBlock:
    """Fold equal-shaped blocks in list order into one canonical DCSR block.
    A position seen again folds as combine(old, new), in list order, with
    combine a semiring's add; structure-only blocks take the union of
    positions."""
    rows, cols, vals = zip(*(b.to_arrays() for b in blocks))
    if structure_only:
        return dcsr_from_coo(n_rows, n_cols, np.concatenate(rows), np.concatenate(cols))
    return dcsr_from_coo(n_rows, n_cols, np.concatenate(rows), np.concatenate(cols),
                         np.concatenate(vals), FOLD_UFUNCS[combine])


def same_entries(x: DcsrBlock, y: DcsrBlock, dtype) -> bool:
    """True when x and y store the same positions with equal values (cast to
    dtype). Both are canonical, so their arrays compare directly."""
    return ((x.n_rows, x.n_cols) == (y.n_rows, y.n_cols)
            and np.array_equal(x.nz_rows, y.nz_rows)
            and np.array_equal(x.row_ptr, y.row_ptr)
            and np.array_equal(x.cols, y.cols)
            and np.array_equal(x.vals.astype(dtype, copy=False),
                               y.vals.astype(dtype, copy=False)))


def add_into(dst: DcsrBlock, src: DcsrBlock, add: Callable) -> None:
    """Fold src into dst in place: new positions insert, existing ones fold
    as add(old, new) through the ufunc of add, a semiring's add."""
    _fold_into(dst, src, add)


def or_into(dst: DcsrBlock, src: DcsrBlock) -> None:
    """Bitwise-or the bitfield entries of src into dst, in place."""
    _fold_into(dst, src, operator.or_)


def _fold_into(dst: DcsrBlock, src: DcsrBlock, fold: Callable) -> None:
    if not src.nnz:
        return
    dk = dst.keys()
    rows, cols, vals = src.to_arrays()
    sk = rows * dst.n_cols + cols
    pos, hit = locate(dk, sk)
    at = pos[hit]
    dst.vals[at] = FOLD_UFUNCS[fold](dst.vals[at], vals[hit])
    if np.count_nonzero(hit) < len(hit):
        _merge_keys(dst, dk, dst.vals, sk[~hit], vals[~hit])


def replace_touched(dst: DcsrBlock, touched: DcsrBlock, src: DcsrBlock) -> int:
    """dst = (dst - touched) | src, in place, for src positions within
    touched: every touched entry of dst is replaced by src's entry there or
    deleted. Returns the number deleted."""
    dk = dst.keys()
    _, gone = locate(touched.keys(), dk)
    _, replaced = locate(src.keys(), dk)
    deleted = int(np.count_nonzero(gone & ~replaced))
    _merge_keys(dst, dk[~gone], dst.vals[~gone], src.keys(), src.vals)
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
    return dcsr_from_coo(a.n_rows, a.n_cols, rows[keep], cols[keep], vals[keep])


# ---------------------------------------------------------------------------
# wire codec
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sHHQQQQ")
_MAGIC = b"DCSR"
_VERSION = 1
_U64 = np.dtype("<u8")


class ValueCodec(NamedTuple):
    width: int
    encode: Callable  # (values) -> bytes
    decode: Callable  # (buf, count) -> array


def semiring_codec(sr) -> ValueCodec:
    return ValueCodec(sr.value_width, sr.encode_values, sr.decode_array)


def bloom_codec(ell: int) -> ValueCodec:
    dt = np.dtype(f"<u{ell // 8}")
    return ValueCodec(
        ell // 8,
        lambda values: np.asarray(values, dtype=dt).tobytes(),
        lambda buf, count: np.frombuffer(buf, dtype=dt, count=count),
    )


STRUCTURE_CODEC = ValueCodec(0, lambda values: b"", lambda buf, count: None)


def dcsr_serialize(b: DcsrBlock, codec: ValueCodec) -> bytes:
    n_nz = len(b.nz_rows)
    nnz = b.nnz
    head = _HEADER.pack(_MAGIC, _VERSION, codec.width, b.n_rows, b.n_cols, n_nz, nnz)
    parts = [head] + [index.astype(_U64).tobytes()
                      for index in (b.nz_rows, b.row_ptr, b.cols)]
    if codec.width:
        parts.append(codec.encode(b.vals))
    return b"".join(parts)


def dcsr_deserialize(buf: bytes, codec: ValueCodec) -> DcsrBlock:
    if len(buf) < _HEADER.size:
        raise DecodeError(f"buffer too short for header: {len(buf)} bytes")
    magic, version, width, n_rows, n_cols, n_nz, nnz = _HEADER.unpack_from(buf)
    if magic != _MAGIC:
        raise DecodeError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise DecodeError(f"unsupported version {version}")
    if width != codec.width:
        raise DecodeError(f"value width {width} != expected {codec.width}")
    want = _HEADER.size + 8 * (n_nz + (n_nz + 1) + nnz) + width * nnz
    if len(buf) != want:
        raise DecodeError(f"buffer length {len(buf)} != expected {want}")
    off = _HEADER.size
    nz_rows = np.frombuffer(buf, dtype=_U64, count=n_nz, offset=off)
    off += 8 * n_nz
    row_ptr = np.frombuffer(buf, dtype=_U64, count=n_nz + 1, offset=off)
    off += 8 * (n_nz + 1)
    cols = np.frombuffer(buf, dtype=_U64, count=nnz, offset=off)
    off += 8 * nnz
    if row_ptr[0] != 0 or row_ptr[-1] != nnz:
        raise DecodeError("row_ptr endpoints inconsistent with nnz")
    if np.count_nonzero(row_ptr[1:] <= row_ptr[:-1]):
        raise DecodeError("row_ptr not strictly increasing (empty listed row)")
    if (np.count_nonzero(nz_rows[1:] <= nz_rows[:-1])
            or (n_nz and nz_rows[-1] >= n_rows)):
        raise DecodeError("nz_rows not strictly increasing within bounds")
    if np.count_nonzero(cols >= n_cols):
        raise DecodeError("column index out of bounds")
    vals = codec.decode(buf[off:], nnz) if codec.width else None
    block = DcsrBlock(n_rows, n_cols, nz_rows.astype(np.int64),
                      row_ptr.astype(np.int64), cols.astype(np.int64), vals)
    keys = block.keys()
    if np.count_nonzero(keys[1:] <= keys[:-1]):
        raise DecodeError("columns not strictly increasing within a row")
    return block
