"""Local sparse blocks: the dynamic hashed-row block that holds operands and
maintained results, and the immutable doubly-compressed (DCSR) block that
holds everything produced or exchanged, plus the DCSR wire codec used for
every transport payload. Bitfield blocks are DCSR blocks whose values are
the bitfields.

Structural convention everywhere in this package: an entry whose value equals
the semiring zero is still a stored entry. Deleting is explicit; arithmetic
never drops positions.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np


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

    def fold(self, r: int, c: int, v, add: Callable) -> bool:
        """Insert, or combine an existing value as add(old, v). True if new."""
        slot = self._slot[r]
        if slot is None or c not in slot:
            return self.upsert(r, c, v)
        s = slot[c]
        vals = self._vals[r]
        vals[s] = add(vals[s], v)
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
        anything else deletes, matching the update-tuple codes. Coordinates
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

    def row_vals(self, r: int) -> list:
        v = self._vals[r]
        return v if v is not None else []

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
        nz_rows, row_ptr, cols, vals = [], [0], [], []
        for r, rc, rv in self.iter_rows():
            nz_rows.append(r)
            cols.extend(rc)
            vals.extend(rv)
            row_ptr.append(len(cols))
        return DcsrBlock(self.n_rows, self.n_cols, nz_rows, row_ptr, cols, vals)

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
    """Immutable doubly-compressed block: only non-empty rows are listed.

    nz_rows is strictly increasing, every listed row is non-empty, columns
    within a row are in no particular order. vals is None for structure-only
    blocks (value_width 0 on the wire).
    """

    __slots__ = ("n_rows", "n_cols", "nz_rows", "row_ptr", "cols", "vals")

    def __init__(self, n_rows, n_cols, nz_rows, row_ptr, cols, vals):
        if len(row_ptr) != len(nz_rows) + 1:
            raise ValueError(f"row_ptr has {len(row_ptr)} entries for "
                             f"{len(nz_rows)} listed rows")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.nz_rows = nz_rows
        self.row_ptr = row_ptr
        self.cols = cols
        self.vals = vals

    @property
    def nnz(self) -> int:
        return self.row_ptr[-1]

    @classmethod
    def empty(cls, n_rows: int, n_cols: int, structure_only: bool = False) -> "DcsrBlock":
        return cls(n_rows, n_cols, [], [0], [], None if structure_only else [])

    def iter_rows(self):
        """(row, cols, vals) per listed row; vals is None when structure-only."""
        ptr = self.row_ptr
        vals = self.vals
        for k, r in enumerate(self.nz_rows):
            lo, hi = ptr[k], ptr[k + 1]
            yield r, self.cols[lo:hi], None if vals is None else vals[lo:hi]

    def triples(self):
        for r, cols, vals in self.iter_rows():
            if vals is None:
                vals = [None] * len(cols)
            yield from zip([r] * len(cols), cols, vals)

    def entry_map(self) -> dict:
        return {(r, c): v for r, c, v in self.triples()}

    def positions(self) -> set:
        return {(r, c) for r, cols, _ in self.iter_rows() for c in cols}

    def check(self) -> None:
        assert all(b > a for a, b in zip(self.nz_rows, self.nz_rows[1:])), "nz_rows not strictly increasing"
        assert all(0 <= r < self.n_rows for r in self.nz_rows)
        assert self.row_ptr[0] == 0
        assert all(b > a for a, b in zip(self.row_ptr, self.row_ptr[1:])), "listed row is empty"
        assert all(0 <= c < self.n_cols for c in self.cols)
        if self.vals is not None:
            assert len(self.vals) == len(self.cols)


# ---------------------------------------------------------------------------
# builders and block combinators
# ---------------------------------------------------------------------------

def dcsr_from_row_map(n_rows: int, n_cols: int, row_map: dict,
                      structure_only: bool = False) -> DcsrBlock:
    """row -> {col: value} mapping to DCSR (rows ascending)."""
    nz_rows, row_ptr, cols = [], [0], []
    vals = None if structure_only else []
    for r in sorted(row_map):
        d = row_map[r]
        if not d:
            continue
        nz_rows.append(r)
        cols.extend(d.keys())
        if vals is not None:
            vals.extend(d.values())
        row_ptr.append(len(cols))
    return DcsrBlock(n_rows, n_cols, nz_rows, row_ptr, cols, vals)


def combine_blocks(blocks, n_rows: int, n_cols: int, combine,
                   structure_only: bool) -> DcsrBlock:
    """Fold equal-shaped blocks in list order into one DCSR block. A position
    seen again folds with combine(old, new); structure-only blocks take the
    union of positions. Columns keep their order of first appearance."""
    row_map: dict[int, dict] = {}
    for blk in blocks:
        for r, cols, vals in blk.iter_rows():
            d = row_map.get(r)
            if d is None:
                d = row_map[r] = {}
            if structure_only:
                for c in cols:
                    d[c] = None
            else:
                for c, v in zip(cols, vals):
                    if c in d:
                        d[c] = combine(d[c], v)
                    else:
                        d[c] = v
    return dcsr_from_row_map(n_rows, n_cols, row_map, structure_only)


def add_into(dst: DynamicBlock, src, add: Callable) -> None:
    """Fold src into dst: new positions insert, existing fold with add(old, new)."""
    for r, cols, vals in src.iter_rows():
        for c, v in zip(cols, vals):
            dst.fold(r, c, v, add)


def or_into(dst: DynamicBlock, src) -> None:
    """Bitwise-or bitfield entries of src into dst (bloom accumulation)."""
    for r, cols, vals in src.iter_rows():
        for c, v in zip(cols, vals):
            dst.fold(r, c, v, _bit_or)


def _bit_or(a, b):
    return a | b


def filter_rows_by_bloom(a: DynamicBlock, r_vec: list, col_base: int, ell: int) -> DcsrBlock:
    """Keep a's entries (r, c, v) whose row has a bitfield r_vec[r] with bit
    ((col_base + c) mod ell) set. col_base is the global index of local column 0.
    """
    nz_rows, row_ptr, cols, vals = [], [0], [], []
    mask_mod = ell - 1  # ell is a power of two
    for r, rc, rv in a.iter_rows():
        bits = r_vec[r]
        if not bits:
            continue
        kept = False
        for c, v in zip(rc, rv):
            if bits >> ((col_base + c) & mask_mod) & 1:
                cols.append(c)
                vals.append(v)
                kept = True
        if kept:
            nz_rows.append(r)
            row_ptr.append(len(cols))
    return DcsrBlock(a.n_rows, a.n_cols, nz_rows, row_ptr, cols, vals)


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
    decode: Callable  # (buf, count) -> list


def semiring_codec(sr) -> ValueCodec:
    return ValueCodec(sr.value_width, sr.encode_values, sr.decode_values)


def bloom_codec(ell: int) -> ValueCodec:
    dt = np.dtype(f"<u{ell // 8}")
    return ValueCodec(
        ell // 8,
        lambda values: np.asarray(values, dtype=dt).tobytes(),
        lambda buf, count: np.frombuffer(buf, dtype=dt, count=count).tolist(),
    )


STRUCTURE_CODEC = ValueCodec(0, lambda values: b"", lambda buf, count: None)


def dcsr_serialize(b: DcsrBlock, codec: ValueCodec) -> bytes:
    n_nz = len(b.nz_rows)
    nnz = b.row_ptr[-1]
    head = _HEADER.pack(_MAGIC, _VERSION, codec.width, b.n_rows, b.n_cols, n_nz, nnz)
    parts = [
        head,
        np.asarray(b.nz_rows, dtype=_U64).tobytes(),
        np.asarray(b.row_ptr, dtype=_U64).tobytes(),
        np.asarray(b.cols, dtype=_U64).tobytes(),
    ]
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
    nz_rows = np.frombuffer(buf, dtype=_U64, count=n_nz, offset=off).tolist()
    off += 8 * n_nz
    row_ptr = np.frombuffer(buf, dtype=_U64, count=n_nz + 1, offset=off).tolist()
    off += 8 * (n_nz + 1)
    cols = np.frombuffer(buf, dtype=_U64, count=nnz, offset=off).tolist()
    off += 8 * nnz
    if row_ptr[0] != 0 or row_ptr[-1] != nnz:
        raise DecodeError("row_ptr endpoints inconsistent with nnz")
    if any(b <= a for a, b in zip(row_ptr, row_ptr[1:])):
        raise DecodeError("row_ptr not strictly increasing (empty listed row)")
    if any(b <= a for a, b in zip(nz_rows, nz_rows[1:])) or (nz_rows and nz_rows[-1] >= n_rows):
        raise DecodeError("nz_rows not strictly increasing within bounds")
    if any(c >= n_cols for c in cols):
        raise DecodeError("column index out of bounds")
    vals = codec.decode(buf[off:], nnz) if codec.width else None
    return DcsrBlock(n_rows, n_cols, nz_rows, row_ptr, cols, vals)
