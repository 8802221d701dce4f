"""Row-wise sparse multiply kernels over one pair of local blocks.

All kernels stream the left operand row by row and fold collisions through a
sparse accumulator (an insertion-ordered dict col -> value), so cost tracks
the number of elementary products rather than the dense dimensions. Entries
whose accumulated value equals the semiring zero are kept: structure is
decided by contribution, not by value.
"""

from __future__ import annotations

from .storage import DcsrBlock, DynamicBlock, dcsr_from_row_map


# ---------------------------------------------------------------------------
# operand access helpers
# ---------------------------------------------------------------------------

_EMPTY: tuple[list, list] = ([], [])


def _right_reader(b):
    """O(1) row accessor returning (cols, vals) for either block type."""
    if isinstance(b, DynamicBlock):
        bc, bv = b._cols, b._vals
        def read(r):
            c = bc[r]
            return (c, bv[r]) if c else _EMPTY
        return read
    if isinstance(b, DcsrBlock):
        directory = {}
        for r, cols, vals in b.iter_rows():
            directory[r] = (cols, vals if vals is not None else [None] * len(cols))
        return lambda r: directory.get(r, _EMPTY)
    raise TypeError(f"unsupported right operand {type(b).__name__}")


def _transposed_reader(b):
    """Row accessor for b^T, built once in O(nnz(b))."""
    directory: dict[int, tuple[list, list]] = {}
    for r, cols, vals in b.iter_rows():
        if vals is None:
            vals = [None] * len(cols)
        for c, v in zip(cols, vals):
            ent = directory.get(c)
            if ent is None:
                directory[c] = ([r], [v])
            else:
                ent[0].append(r)
                ent[1].append(v)
    return lambda r: directory.get(r, _EMPTY)


def _shape(block, transposed: bool) -> tuple[int, int]:
    return (block.n_cols, block.n_rows) if transposed else (block.n_rows, block.n_cols)


# ---------------------------------------------------------------------------
# value multiply
# ---------------------------------------------------------------------------

def gustavson_multiply(a, b, sr, transpose_a: bool = False,
                       transpose_b: bool = False) -> DcsrBlock:
    """op(a) . op(b) over the semiring, row-wise with a sparse accumulator.

    a is streamed; b must be readable by (effective) row, which costs one
    O(nnz(b)) directory pass when transpose_b is set. With transpose_a the
    kernel switches to outer-product accumulation over scattered output rows.
    Result rows equal multiplying explicitly transposed operands.
    """
    an, ak = _shape(a, transpose_a)
    bk, bm = _shape(b, transpose_b)
    if ak != bk:
        raise ValueError(f"inner dimensions differ: {ak} vs {bk}")
    read = _transposed_reader(b) if transpose_b else _right_reader(b)
    add, mul = sr.add, sr.mul
    if not transpose_a:
        nz_rows, row_ptr, out_cols, out_vals = [], [0], [], []
        acc: dict = {}
        get = acc.get
        for r, acols, avals in a.iter_rows():
            if acc:
                acc.clear()
            for k, av in zip(acols, avals):
                bcols, bvals = read(k)
                for c, bv in zip(bcols, bvals):
                    x = mul(av, bv)
                    p = get(c)
                    acc[c] = x if p is None else add(p, x)
            if acc:
                nz_rows.append(r)
                out_cols.extend(acc.keys())
                out_vals.extend(acc.values())
                row_ptr.append(len(out_cols))
        return DcsrBlock(an, bm, nz_rows, row_ptr, out_cols, out_vals)
    # transpose_a: out(r, c) += a(s, r) * op(b)(s, c), outer products over s
    row_map: dict[int, dict] = {}
    for s, acols, avals in a.iter_rows():
        bcols, bvals = read(s)
        if not bcols:
            continue
        for r, av in zip(acols, avals):
            acc = row_map.get(r)
            if acc is None:
                acc = row_map[r] = {}
            get = acc.get
            for c, bv in zip(bcols, bvals):
                x = mul(av, bv)
                p = get(c)
                acc[c] = x if p is None else add(p, x)
    return dcsr_from_row_map(an, bm, row_map)


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
    block is value-free. ell must be a power of two.
    """
    if a.n_cols != b.n_rows:
        raise ValueError(f"inner dimensions differ: {a.n_cols} vs {b.n_rows}")
    read = _right_reader(b)
    mod = ell - 1
    nz_rows, row_ptr, out_cols, out_bits = [], [0], [], []
    acc: dict[int, int] = {}
    for r, acols, _avals in a.iter_rows():
        if acc:
            acc = {}
        for k in acols:
            bcols, _bvals = read(k)
            if not bcols:
                continue
            bit = 1 << ((inner_base + k) & mod)
            for c in bcols:
                acc[c] = acc.get(c, 0) | bit
        if acc:
            nz_rows.append(r)
            out_cols.extend(acc.keys())
            out_bits.extend(acc.values())
            row_ptr.append(len(out_cols))
    structure = DcsrBlock(a.n_rows, b.n_cols, nz_rows, row_ptr, out_cols, None)
    bits = DcsrBlock(a.n_rows, b.n_cols, nz_rows, row_ptr, out_cols, out_bits)
    return structure, bits


def masked_multiply(a, b, mask: DcsrBlock, sr, inner_base: int,
                    ell: int = 64) -> tuple[DcsrBlock, DcsrBlock]:
    """a . b restricted to the positions listed in mask.

    Positions outside the mask never enter the accumulator. Returns both the
    value block Z and the bitfield block H of contributing summation indices
    for the surviving positions.
    """
    if a.n_cols != b.n_rows:
        raise ValueError(f"inner dimensions differ: {a.n_cols} vs {b.n_rows}")
    allowed: dict[int, set] = {}
    for r, cols, _ in mask.iter_rows():
        allowed[r] = set(cols)
    read = _right_reader(b)
    add, mul = sr.add, sr.mul
    mod = ell - 1
    z_rows, z_ptr, z_cols, z_vals = [], [0], [], []
    h_rows, h_ptr, h_cols, h_bits = [], [0], [], []
    for r, acols, avals in a.iter_rows():
        arow_allowed = allowed.get(r)
        if not arow_allowed:
            continue
        zacc: dict = {}
        hacc: dict[int, int] = {}
        zget, hget = zacc.get, hacc.get
        for k, av in zip(acols, avals):
            bcols, bvals = read(k)
            if not bcols:
                continue
            bit = 1 << ((inner_base + k) & mod)
            for c, bv in zip(bcols, bvals):
                if c not in arow_allowed:
                    continue
                x = mul(av, bv)
                p = zget(c)
                zacc[c] = x if p is None else add(p, x)
                h = hget(c)
                hacc[c] = bit if h is None else h | bit
        if zacc:
            z_rows.append(r)
            z_cols.extend(zacc.keys())
            z_vals.extend(zacc.values())
            z_ptr.append(len(z_cols))
            h_rows.append(r)
            h_cols.extend(hacc.keys())
            h_bits.extend(hacc.values())
            h_ptr.append(len(h_cols))
    z = DcsrBlock(a.n_rows, b.n_cols, z_rows, z_ptr, z_cols, z_vals)
    h = DcsrBlock(a.n_rows, b.n_cols, h_rows, h_ptr, h_cols, h_bits)
    return z, h
