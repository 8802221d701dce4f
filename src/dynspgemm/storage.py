"""Local sparse blocks: the dynamic hashed-row block that holds the operands,
and the doubly-compressed (DCSR) block over numpy arrays that holds
everything produced, maintained or exchanged, plus the DCSR wire codec used
for every transport payload. Bitfield blocks are DCSR blocks whose values
are the bitfields. The maintained product C and its bitfields F are DCSR
blocks merged in place.

A DCSR block is canonical: its entry keys r * n_cols + c strictly increase,
so array code finds positions with `searchsorted`. Kernels and combinators
emit blocks only through dcsr_from_coo, which sorts by key and folds
repeated positions in input order.

Structural convention everywhere in this package: an entry whose value equals
the semiring zero is still a stored entry. Deleting is explicit; arithmetic
never drops positions.
"""

from __future__ import annotations

import operator
import struct
from itertools import chain
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .semiring import FOLD_UFUNCS


class DecodeError(ValueError):
    """Raised when a wire buffer cannot be decoded as a DCSR block."""


# ---------------------------------------------------------------------------
# dynamic block
# ---------------------------------------------------------------------------

class DynamicBlock:
    """Mutable sparse block: per-row adjacency arrays plus per-row hash index.

    Each non-empty row r keeps parallel arrays cols[r]/vals[r] and a dict
    mapping column -> slot, so get/upsert/delete are O(1) expected. delete
    swap-removes: the last entry of the row moves into the vacated slot, so
    within-row order is not stable across deletions. New entries append, so
    rows enumerate in insertion order until the first delete.
    """

    __slots__ = ("n_rows", "n_cols", "nnz", "_cols", "_vals", "_slot")

    def __init__(self, n_rows: int, n_cols: int):
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.nnz = 0
        self._cols: list[Optional[list]] = [None] * n_rows
        self._vals: list[Optional[list]] = [None] * n_rows
        self._slot: list[Optional[dict]] = [None] * n_rows

    # -- point ops ---------------------------------------------------------
    def upsert(self, r: int, c: int, v) -> bool:
        """Insert or overwrite. Returns True if the position was new."""
        slot = self._slot[r]
        if slot is None:
            self._cols[r] = [c]
            self._vals[r] = [v]
            self._slot[r] = {c: 0}
            self.nnz += 1
            return True
        s = slot.get(c)
        if s is None:
            slot[c] = len(self._cols[r])
            self._cols[r].append(c)
            self._vals[r].append(v)
            self.nnz += 1
            return True
        self._vals[r][s] = v
        return False

    def get(self, r: int, c: int):
        """Value at (r, c), or None when the position is structurally absent."""
        slot = self._slot[r]
        if slot is None:
            return None
        s = slot.get(c)
        if s is None:
            return None
        return self._vals[r][s]

    def contains(self, r: int, c: int) -> bool:
        slot = self._slot[r]
        return slot is not None and c in slot

    def delete(self, r: int, c: int) -> bool:
        """Swap-remove (r, c). Returns False if the position was absent."""
        slot = self._slot[r]
        if slot is None:
            return False
        s = slot.pop(c, None)
        if s is None:
            return False
        cols, vals = self._cols[r], self._vals[r]
        last = len(cols) - 1
        if s != last:
            moved = cols[last]
            cols[s] = moved
            vals[s] = vals[last]
            slot[moved] = s
        cols.pop()
        vals.pop()
        self.nnz -= 1
        return True

    def apply_updates(self, updates, row_base: int = 0, col_base: int = 0,
                      combine: Optional[Callable] = None) -> tuple[int, int]:
        """Bulk point ops from (row, col, op, value) tuples: op 0 upserts,
        anything else deletes, matching OP_UPSERT and OP_DELETE. Coordinates
        are shifted by the bases. An upsert onto an existing entry overwrites,
        or folds as combine(old, new) when combine is given.
        Returns (inserted, deleted).
        """
        inserted = deleted = 0
        all_cols = self._cols
        all_vals = self._vals
        all_slot = self._slot
        # row structures stay bound across runs of equal rows, so sorted
        # batches (the redistributed case) pay the row lookup once per run
        cur_r = -1
        slot = cols = vals = None
        for row, col, op, value in updates:
            r = row - row_base
            c = col - col_base
            if r != cur_r:
                cur_r = r
                slot = all_slot[r]
                if slot is not None:
                    cols = all_cols[r]
                    vals = all_vals[r]
            if op == 0:
                if slot is None:
                    cols = all_cols[r] = [c]
                    vals = all_vals[r] = [value]
                    slot = all_slot[r] = {c: 0}
                    inserted += 1
                    continue
                s = slot.get(c)
                if s is None:
                    slot[c] = len(cols)
                    cols.append(c)
                    vals.append(value)
                    inserted += 1
                elif combine is None:
                    vals[s] = value
                else:
                    vals[s] = combine(vals[s], value)
            elif slot is not None:
                s = slot.pop(c, None)
                if s is None:
                    continue
                last = len(cols) - 1
                if s != last:
                    moved = cols[last]
                    cols[s] = moved
                    vals[s] = vals[last]
                    slot[moved] = s
                cols.pop()
                vals.pop()
                deleted += 1
        self.nnz += inserted - deleted
        return inserted, deleted

    # -- row access ---------------------------------------------------------
    def row_cols(self, r: int) -> list:
        c = self._cols[r]
        return c if c is not None else []

    def row_nnz(self, r: int) -> int:
        c = self._cols[r]
        return 0 if c is None else len(c)

    def iter_rows(self) -> Iterator[tuple[int, list, list]]:
        """(row, cols, vals) for non-empty rows in ascending row order."""
        for r in range(self.n_rows):
            cols = self._cols[r]
            if cols:
                yield r, cols, self._vals[r]

    def triples(self) -> Iterator[tuple[int, int, object]]:
        for r, cols, vals in self.iter_rows():
            yield from zip([r] * len(cols), cols, vals)

    def entry_map(self) -> dict:
        return {(r, c): v for r, c, v in self.triples()}

    def to_arrays(self, dtype=None, rows=None):
        """(rows, cols, vals) as numpy arrays in storage order: rows
        ascending (all, or the ascending rows given), each row in slot
        order; vals cast to dtype, or of the dtype numpy infers."""
        idx = np.arange(self.n_rows) if rows is None else np.asarray(rows, np.int64)
        row_cols = [self._cols[r] or () for r in idx.tolist()]
        row_vals = chain.from_iterable(self._vals[r] or () for r in idx.tolist())
        counts = np.fromiter(map(len, row_cols), dtype=np.int64, count=len(idx))
        cols = np.fromiter(chain.from_iterable(row_cols), dtype=np.int64,
                           count=int(counts.sum()))
        vals = (np.array(list(row_vals)) if dtype is None
                else np.fromiter(row_vals, dtype=dtype, count=len(cols)))
        return idx.repeat(counts), cols, vals

    # -- integrity ----------------------------------------------------------
    def check(self) -> None:
        """Assert the slot-index bijection and the nnz count."""
        total = 0
        for r in range(self.n_rows):
            cols, vals, slot = self._cols[r], self._vals[r], self._slot[r]
            if cols is None:
                assert vals is None and slot is None
                continue
            assert len(cols) == len(vals) == len(slot)
            for c, s in slot.items():
                assert 0 <= s < len(cols) and cols[s] == c
            total += len(cols)
        assert total == self.nnz, f"nnz {self.nnz} != counted {total}"

    # -- conversions ---------------------------------------------------------
    def to_dcsr(self) -> "DcsrBlock":
        return dcsr_from_coo(self.n_rows, self.n_cols, *self.to_arrays())

    @classmethod
    def from_triples(cls, n_rows: int, n_cols: int, triples) -> "DynamicBlock":
        b = cls(n_rows, n_cols)
        for r, c, v in triples:
            b.upsert(r, c, v)
        return b


# ---------------------------------------------------------------------------
# compressed block
# ---------------------------------------------------------------------------

class DcsrBlock:
    """Doubly-compressed block: only non-empty rows are listed, in int64
    arrays nz_rows, row_ptr and cols, with vals an array or None when
    structure-only (value width 0 on the wire). Canonical: rows ascend and
    columns ascend within a row. The constructor takes lists or arrays in
    that order; dcsr_from_coo takes entries in any order. Only the merges
    into C and F change a block, in place.
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
        """(row, cols, vals) per listed row, cols and vals as array slices;
        vals is None when structure-only."""
        ptr = self.row_ptr.tolist()
        vals = self.vals
        for k, r in enumerate(self.nz_rows.tolist()):
            lo, hi = ptr[k], ptr[k + 1]
            yield r, self.cols[lo:hi], None if vals is None else vals[lo:hi]

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
    disjoint sorted key sets; dst keeps its value dtype."""
    keys = np.concatenate((keys, new_keys))
    order = keys.argsort(kind="stable")
    vals = np.concatenate((vals, new_vals.astype(vals.dtype, copy=False)))
    b = _from_keys(dst.n_rows, dst.n_cols, keys[order], vals[order])
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


def same_entries(x, y, dtype) -> bool:
    """True when x and y store the same positions with equal values (cast to
    dtype), whatever the order of entries within a row."""
    if (x.n_rows, x.n_cols, x.nnz) != (y.n_rows, y.n_cols, y.nnz):
        return False
    xr, xc, xv = x.to_arrays(dtype)
    yr, yc, yv = y.to_arrays(dtype)
    xk = xr * x.n_cols + xc
    yk = yr * y.n_cols + yc
    xo = np.argsort(xk)
    yo = np.argsort(yk)
    return (np.array_equal(xk[xo], yk[yo])
            and np.array_equal(xv[xo], yv[yo]))


def add_into(dst, src, add: Callable) -> None:
    """Fold src into dst: new positions insert, existing ones fold as
    add(old, new), with add a semiring's add. A DcsrBlock dst merges in
    place through add's ufunc; a DynamicBlock dst folds entry by entry."""
    _fold_into(dst, src, add)


def or_into(dst, src) -> None:
    """Bitwise-or the bitfield entries of src into dst, in place."""
    _fold_into(dst, src, operator.or_)


def _fold_into(dst, src, fold: Callable) -> None:
    if not src.nnz:
        return
    if isinstance(dst, DynamicBlock):
        dst.apply_updates(((r, c, 0, v) for r, c, v in src.triples()),
                          combine=fold)
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


def filter_rows_by_bloom(a: DynamicBlock, r_vec, col_base: int, ell: int) -> DcsrBlock:
    """Keep a's entries (r, c, v) whose row has a bitfield r_vec[r] with bit
    ((col_base + c) mod ell) set. col_base is the global index of local
    column 0; only the rows with a non-zero bitfield are read.
    """
    r_vec = np.asarray(r_vec, dtype=np.uint64)
    rows, cols, vals = a.to_arrays(rows=np.flatnonzero(r_vec))
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
