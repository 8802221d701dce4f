"""Local block storage, combinators, and the wire codec."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynspgemm import (
    BOOLEAN,
    MIN_PLUS,
    PLUS_TIMES_I64,
    REGISTRY,
    DcsrBlock,
    DecodeError,
    OP_DELETE,
    OP_UPSERT,
    STRUCTURE_CODEC,
    add_into,
    apply_batch,
    dcsr_deserialize,
    dcsr_from_coo,
    dcsr_serialize,
    filter_rows_by_bloom,
    or_into,
    same_entries,
    semiring_codec,
    update_batch,
)
from dynspgemm import storage
from dynspgemm.storage import ValueCodec, dcsr_from_keys
from helpers import (
    block_from_triples,
    dcsr_from_row_map,
    entry_map,
    loaded_block,
    position_set,
    refuse_permutations,
)


# -- operand blocks under update batches --------------------------------------

def _apply(block, *records, sr=PLUS_TIMES_I64):
    """apply_batch of (row, col, value) upserts, or (row, col) deletes."""
    rows = [r[0] for r in records]
    cols = [r[1] for r in records]
    vals = [r[2] if len(r) == 3 else sr.zero for r in records]
    ops = [OP_UPSERT if len(r) == 3 else OP_DELETE for r in records]
    return apply_batch(block, update_batch(sr, rows, cols, vals, ops), sr, 0, 0)


def _empty(n_rows, n_cols, sr=PLUS_TIMES_I64):
    return DcsrBlock.empty(n_rows, n_cols, dtype=sr.np_dtype)


def test_upsert_get_overwrite():
    b = _empty(2, 2)
    assert _apply(b, (0, 1, 5)) == (1, 0)
    assert b.nnz == 1
    assert entry_map(b) == {(0, 1): 5}
    assert _apply(b, (0, 1, 7)) == (0, 0)
    assert b.nnz == 1
    assert entry_map(b) == {(0, 1): 7}
    b.check()


def test_delete_absent_and_present():
    b = _empty(3, 3)
    assert _apply(b, (0, 0)) == (0, 0)
    assert _apply(b, (1, 2, 9)) == (1, 0)
    assert _apply(b, (1, 2)) == (0, 1)
    assert b.nnz == 0
    assert entry_map(b) == {}
    assert _apply(b, (1, 2)) == (0, 0)
    b.check()


def test_delete_middle_of_row_keeps_bijection():
    b = _empty(1, 8)
    _apply(b, (0, 3, 30), (0, 5, 50), (0, 7, 70))
    assert _apply(b, (0, 5)) == (0, 1)
    b.check()
    assert entry_map(b) == {(0, 3): 30, (0, 7): 70}
    assert list(b.iter_rows()) == [(0, [3, 7], [30, 70])]
    assert b.nnz == 2


def test_apply_updates_combine_inserts_then_folds():
    # folding is add_into's job: a new position inserts, a stored one folds
    b = DcsrBlock.empty(2, 2)
    add_into(b, dcsr_from_row_map(2, 2, {0: {0: 4.0}}), MIN_PLUS.np_add)
    assert entry_map(b) == {(0, 0): 4.0}
    add_into(b, dcsr_from_row_map(2, 2, {0: {0: 2.0}}), MIN_PLUS.np_add)
    assert entry_map(b) == {(0, 0): 2.0}
    add_into(b, dcsr_from_row_map(2, 2, {0: {0: 9.0}}), MIN_PLUS.np_add)
    assert entry_map(b) == {(0, 0): 2.0}


def test_random_ops_match_dict_oracle():
    rng = np.random.default_rng(21)
    b = _empty(20, 20)
    oracle: dict = {}
    for _ in range(50):
        records = []
        for _ in range(100):
            r, c = int(rng.integers(20)), int(rng.integers(20))
            if rng.random() < 0.65:
                records.append((r, c, int(rng.integers(100))))
            else:
                records.append((r, c))
        want_ins = want_del = 0
        for rec in records:
            if len(rec) == 3:
                want_ins += rec[:2] not in oracle
                oracle[rec[:2]] = rec[2]
            elif oracle.pop(rec, None) is not None:
                want_del += 1
        assert _apply(b, *records) == (want_ins, want_del)
        assert entry_map(b) == oracle
        b.check()
    assert b.nnz == len(oracle)


def test_structural_zero_is_kept():
    b = _empty(2, 2)
    _apply(b, (0, 0, 5), (1, 1, 0))
    add_into(b, dcsr_from_row_map(2, 2, {0: {0: -5}}), PLUS_TIMES_I64.np_add)
    assert entry_map(b) == {(0, 0): 0, (1, 1): 0}
    assert b.nnz == 2


def test_from_triples_and_row_access():
    b = block_from_triples(3, 4, [(0, 1, 5), (2, 0, 3), (0, 1, 6)])
    assert b.nnz == 2
    assert entry_map(b)[(0, 1)] == 6   # later triple overwrites
    # lists of Python scalars, as triples() yields Python scalars
    assert list(b.iter_rows()) == [(0, [1], [6]), (2, [0], [3])]
    assert all(type(x) is list for _, cols, vals in b.iter_rows()
               for x in (cols, vals))


# -- layout --------------------------------------------------------------------

def test_to_dcsr_example():
    # an operand loaded by updates holds its keys r * n_cols + c in order
    d = _empty(3, 2)
    _apply(d, (2, 0, 3), (0, 1, 5))
    assert d.keys().tolist() == [1, 4]
    assert d.nz_rows.tolist() == [0, 2]
    assert list(d.iter_rows()) == [(0, [1], [5]), (2, [0], [3])]
    assert d.vals.tolist() == [5, 3]
    assert d.nnz == 2
    d.check()


def test_to_dcsr_empty():
    d = _empty(4, 4)
    _apply(d, (1, 1), (2, 3, 4), (2, 3))   # a block emptied again by deletes
    assert d.keys().tolist() == [] and d.nz_rows.tolist() == []
    assert list(d.iter_rows()) == []
    assert d.nnz == 0
    d.check()


def test_round_trip_conversions_preserve_triples():
    rng = np.random.default_rng(3)
    pos = rng.choice(30 * 17, size=500, replace=False)
    triples = [(int(p // 17), int(p % 17), int(rng.integers(1, 99)))
               for p in pos]
    b = loaded_block(30, 17, triples, PLUS_TIMES_I64)
    b.check()
    want = set((r, c, v) for r, c, v in triples)
    assert set(b.triples()) == want
    assert entry_map(b) == entry_map(block_from_triples(30, 17, triples))
    assert position_set(b) == {(r, c) for r, c, _ in triples}


def test_to_arrays_storage_order_and_dtype():
    b = loaded_block(4, 5, [(2, 4, 7), (0, 1, 5), (2, 0, 3), (0, 3, 6)],
                     PLUS_TIMES_I64)
    _apply(b, (0, 1))
    rows, cols, vals = b.to_arrays(PLUS_TIMES_I64.np_dtype)
    assert rows.tolist() == [0, 2, 2]
    assert cols.tolist() == [3, 0, 4]
    assert vals.tolist() == [6, 3, 7]
    assert vals.dtype == PLUS_TIMES_I64.np_dtype
    empty = _empty(3, 3, BOOLEAN)
    _apply(empty, (1, 1, True), sr=BOOLEAN)
    _apply(empty, (1, 1), sr=BOOLEAN)   # a row emptied by deletes is not listed
    rows, cols, vals = empty.to_arrays(BOOLEAN.np_dtype)
    assert rows.size == cols.size == vals.size == 0
    assert vals.dtype == BOOLEAN.np_dtype


def test_to_arrays_matches_triples_for_every_semiring():
    for sr, values in ((PLUS_TIMES_I64, [-4, 0, 9]),
                       (MIN_PLUS, [float("inf"), 0.0, 2.5]),
                       (BOOLEAN, [True, False, True])):
        b = loaded_block(
            3, 3, [(1, 2, values[0]), (0, 0, values[1]), (1, 0, values[2])], sr)
        rows, cols, vals = b.to_arrays(sr.np_dtype)
        assert vals.dtype == sr.np_dtype
        got = list(zip(rows.tolist(), cols.tolist(), vals.tolist()))
        assert got == list(b.triples())


def _block(entries, n=4):
    return block_from_triples(n, n, entries)


@pytest.mark.parametrize("other", [
    [(0, 1, 5), (0, 3, 7), (2, 2, 1)],   # one value differs
    [(0, 1, 5), (0, 2, 6), (2, 2, 1)],   # one position differs
    [(0, 1, 5), (3, 0, 6), (2, 2, 1)],   # moved to (j, i)
    [(0, 1, 5), (0, 3, 6)],              # one entry missing
])
def test_same_entries_rejects_any_difference(other):
    x = _block([(0, 1, 5), (0, 3, 6), (2, 2, 1)])
    assert not same_entries(x, _block(other), PLUS_TIMES_I64.np_dtype)
    assert not same_entries(_block(other), x, PLUS_TIMES_I64.np_dtype)


def test_same_entries_compares_float_values_exactly():
    x = _block([(1, 1, float("inf")), (0, 0, 0.5)])
    assert same_entries(x, _block([(0, 0, 0.5), (1, 1, float("inf"))]),
                        MIN_PLUS.np_dtype)
    assert not same_entries(x, _block([(0, 0, 0.5), (1, 1, 1e308)]),
                            MIN_PLUS.np_dtype)
    assert not same_entries(x, _block([(0, 0, 0.5 + 2 ** -52),
                                       (1, 1, float("inf"))]),
                            MIN_PLUS.np_dtype)


def test_same_entries_agrees_with_entry_map_equality():
    rng = np.random.default_rng(8)
    outcomes = set()
    for _ in range(200):
        x = _empty(5, 5)
        for _ in range(int(rng.integers(0, 16))):
            r, c = int(rng.integers(5)), int(rng.integers(5))
            if rng.random() < 0.75:
                _apply(x, (r, c, int(rng.integers(0, 3))))
            else:
                _apply(x, (r, c))
        # y: x's entries loaded in another order, then at most one random
        # change
        triples = list(x.triples())
        y = loaded_block(5, 5, [triples[k] for k in rng.permutation(len(triples))],
                         PLUS_TIMES_I64)
        r, c = int(rng.integers(5)), int(rng.integers(5))
        change = rng.random()
        if change < 0.3:
            _apply(y, (r, c, int(rng.integers(0, 3))))
        elif change < 0.6:
            _apply(y, (r, c))
        want = entry_map(x) == entry_map(y)
        assert same_entries(x, y, PLUS_TIMES_I64.np_dtype) == want
        outcomes.add(want)
    assert outcomes == {True, False}


def test_dcsr_from_coo_is_canonical_and_folds_in_input_order():
    d = dcsr_from_coo(5, 5, [3, 0, 0], [1, 4, 0], [7, 2, 1])
    assert d.keys().tolist() == [0, 4, 16]
    assert d.nz_rows.tolist() == [0, 3]
    assert list(d.iter_rows()) == [(0, [0, 4], [1, 2]), (3, [1], [7])]
    assert list(d.triples()) == [(0, 0, 1), (0, 4, 2), (3, 1, 7)]
    d.check()
    # a repeated position folds left to right in input order; without a
    # fold the first entry stays
    big = [1e16, 1.0, -1e16, 3.0]
    rows, cols = [2, 0, 2, 2, 2], [1, 0, 1, 1, 1]
    vals = np.array([big[0], 5.0] + big[1:])
    assert entry_map(dcsr_from_coo(3, 3, rows, cols, vals, np.add)) == \
        {(0, 0): 5.0, (2, 1): 3.0}
    assert entry_map(dcsr_from_coo(3, 3, rows, cols, vals)) == \
        {(0, 0): 5.0, (2, 1): 1e16}
    s = dcsr_from_coo(5, 5, [1, 1], [2, 2])
    assert s.vals is None
    assert position_set(s) == {(1, 2)}


def _fold_oracle(keys, vals, fold) -> dict:
    """{key: value} of (keys, vals) folded left to right in input order, one
    Python step per entry; without fold the first value stays."""
    out: dict = {}
    for k, v in zip(keys, vals):
        if k not in out:
            out[k] = v
        elif fold is not None:
            out[k] = fold(out[k], v)
    return out


_FOLD_CASES = {
    # float sums whose value depends on the order of the additions
    "add-f64": (np.add, np.float64, (1e16, 1.0, -1e16, 3.0)),
    # minimum returns its second argument on a tie, so 0.0 and -0.0 show order
    "minimum-signed-zero": (np.minimum, np.float64, (0.0, -0.0, 1.0, -1.0)),
    "bitwise-or": (np.bitwise_or, np.uint64, (1, 2, 4, 1 << 63)),
    "no-fold": (None, np.float64, (0.0, -0.0, 1e16, 3.0)),
}


@pytest.mark.parametrize("case", sorted(_FOLD_CASES))
@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_dcsr_from_keys_folds_left_to_right_in_input_order(case, data):
    fold, dtype, values = _FOLD_CASES[case]
    n_cols = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 3)) * n_cols
    entries = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                           st.sampled_from(values)),
                                 max_size=40))
    keys = np.array([k for k, _ in entries], dtype=np.int64)
    vals = np.array([v for _, v in entries], dtype=dtype)
    got = dcsr_from_keys(n // n_cols, n_cols, keys, vals, fold)
    got.check()
    assert got.vals.dtype == dtype
    want = _fold_oracle(keys.tolist(), list(vals), fold)
    assert got.keys().tolist() == sorted(want)
    # compare bit patterns, so that -0.0 and 0.0 differ
    assert got.vals.tobytes() == np.array([want[k] for k in sorted(want)],
                                          dtype=dtype).tobytes()


# -- the sort under every block: packed words or the stable argsort -----------

def _keys_in_regime(rng, regime: str, n: int) -> np.ndarray:
    """n int64 keys of one _sort_fold regime: a few ascending runs, keys
    interleaved over a small range (so most repeat), or keys spanning more
    than 2^51, whose packed words would not fit in 63 bits."""
    if regime == "few-runs":
        cuts = np.sort(rng.choice(np.arange(1, n), size=7, replace=False))
        runs = np.split(rng.integers(0, n // 2, size=n), cuts)
        return np.concatenate([np.sort(r) for r in runs])
    if regime == "interleaved":
        return rng.integers(0, n // 3, size=n)
    return rng.integers(0, 1 << 52, size=n)


@pytest.mark.parametrize("regime", ["few-runs", "interleaved", "wide"])
@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_sort_fold_is_the_stable_argsort_fold(regime, data):
    """_sort_fold gives exactly the fold of the stable argsort order, in
    each of its regimes, and leaves its input keys unchanged: the
    first-wins column shows the order of equal keys, and the float sums
    depend on the order of their additions."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    n = data.draw(st.integers(1 << 12, 3 << 12))
    keys = _keys_in_regime(rng, regime, n)
    assert (storage._pack_shift(keys) > 0) == (regime == "interleaved")
    vals = rng.choice([1e16, 1.0, -1e16, 3.0], size=n)
    index = np.arange(n)
    before = keys.copy()
    got, (sums, firsts) = storage._sort_fold(keys, (vals, np.add),
                                             (index, None))
    assert np.array_equal(keys, before)
    order = keys.argsort(kind="stable")
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1) != 0)
    assert np.array_equal(got, keys[order][starts])
    assert np.array_equal(firsts, order[starts])
    want = _fold_oracle(keys.tolist(), vals.tolist(), lambda x, y: x + y)
    assert sums.tobytes() == np.array([want[k] for k in got.tolist()]).tobytes()


@pytest.mark.parametrize("regime", ["few-runs", "interleaved", "wide"])
def test_structure_only_sort_fold_sorts_the_keys_alone(regime, monkeypatch):
    """With no value column, _sort_fold builds no permutation: its keys are
    np.unique's in each regime, and its input keys are left unchanged."""
    keys = _keys_in_regime(np.random.default_rng(3), regime, 3 << 12)
    before = keys.copy()
    refuse_permutations(monkeypatch)
    got, folded = storage._sort_fold(keys)
    assert np.array_equal(got, np.unique(keys)) and folded == []
    assert np.array_equal(keys, before)


@pytest.mark.parametrize("n_blocks", [2, 200])
def test_structure_only_combine_builds_no_permutation(n_blocks, monkeypatch):
    """combine_blocks with fold None, over two ascending runs of keys and
    over many (past _PACK_MIN_DESCENTS descents), gives np.unique of the
    members' keys and builds no sort permutation."""
    rng = np.random.default_rng(n_blocks)
    n, size = 256, (3 << 12) // n_blocks
    blocks = [DcsrBlock(n, n, np.unique(rng.integers(0, n * n, size)), None)
              for _ in range(n_blocks)]
    keys = np.concatenate([b.keys() for b in blocks])
    assert len(keys) > storage._PACK_MIN
    assert storage._few_runs(keys) == (n_blocks == 2)
    refuse_permutations(monkeypatch)
    union = storage.combine_blocks(blocks, n, n, None)
    assert union.vals is None
    assert np.array_equal(union.keys(), np.unique(keys))


def _oracle_dcsr(entries: dict):
    """(nz_rows, row_ptr, cols, vals) of a {(r, c): v} map, row by row."""
    nz_rows, row_ptr, cols, vals = [], [0], [], []
    for r, c in sorted(entries):
        if not nz_rows or nz_rows[-1] != r:
            nz_rows.append(r)
            row_ptr.append(row_ptr[-1])
        row_ptr[-1] += 1
        cols.append(c)
        vals.append(entries[(r, c)])
    return nz_rows, row_ptr, cols, vals


def _wire(n_rows, n_cols, layout, width, values=b""):
    # the wire layout: header, then the keys r * n_cols + c as int64
    nz_rows, row_ptr, cols, _ = layout
    rows = np.repeat(nz_rows, np.diff(row_ptr)).astype(np.int64)
    head = struct.pack("<4sHHQQQ", b"DCSR", 2, width, n_rows, n_cols, len(cols))
    keys = rows * n_cols + np.asarray(cols, np.int64)
    return head + keys.astype("<i8").tobytes() + values


_VALUES = {PLUS_TIMES_I64: st.integers(-2 ** 63, 2 ** 63 - 1),
           MIN_PLUS: st.floats(allow_nan=False),
           BOOLEAN: st.booleans()}


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_derived_layout_matches_dict_oracle(data):
    # rows, row access, arrays and all three codecs are derived from the
    # keys; a plain sort of the entry map gives each of them
    n_rows = data.draw(st.integers(1, 8))
    n_cols = data.draw(st.one_of(st.just(1), st.integers(1, 8)))
    sr = data.draw(st.sampled_from(list(_VALUES)))
    pos = st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1))
    entries = data.draw(st.dictionaries(pos, _VALUES[sr], max_size=20))
    block = loaded_block(n_rows, n_cols,
                         [(r, c, v) for (r, c), v in entries.items()], sr)
    block.check()
    layout = nz_rows, row_ptr, cols, vals = _oracle_dcsr(entries)
    assert block.nz_rows.tolist() == nz_rows
    assert list(block.iter_rows()) == [
        (r, cols[lo:hi], vals[lo:hi])
        for r, lo, hi in zip(nz_rows, row_ptr, row_ptr[1:])]
    rows, got_cols, got_vals = block.to_arrays(sr.np_dtype)
    assert list(zip(rows.tolist(), got_cols.tolist(), got_vals.tolist())) == \
        [(r, c, entries[(r, c)]) for r, c in sorted(entries)]

    codec = semiring_codec(sr)
    blob = dcsr_serialize(block, codec)
    assert blob == _wire(n_rows, n_cols, layout, codec.width,
                         np.asarray(vals, sr.np_dtype).tobytes())
    back = dcsr_deserialize(blob, codec)
    back.check()
    assert entry_map(back) == entries

    shape = DcsrBlock(n_rows, n_cols, block.keys(), None)
    blob = dcsr_serialize(shape, STRUCTURE_CODEC)
    assert blob == _wire(n_rows, n_cols, layout, 0)
    back = dcsr_deserialize(blob, STRUCTURE_CODEC)
    assert back.vals is None and position_set(back) == set(entries)


def test_dcsr_empty_classmethod():
    d = DcsrBlock.empty(3, 4)
    assert (d.n_rows, d.n_cols, d.nnz) == (3, 4, 0)
    assert d.vals.tolist() == []
    s = DcsrBlock.empty(3, 4, structure_only=True)
    assert s.vals is None


def test_dcsr_check_rejects_malformed():
    DcsrBlock(2, 3, [0, 2, 5], [1, 2, 3]).check()
    DcsrBlock(2, 3, [0, 2, 5], None).check()                  # structure-only
    with pytest.raises(ValueError, match="increasing"):
        DcsrBlock(2, 3, [2, 0], [1, 1]).check()               # keys unordered
    with pytest.raises(ValueError, match="increasing"):
        DcsrBlock(2, 3, [1, 1], [1, 1]).check()               # repeated key
    with pytest.raises(ValueError, match="outside"):
        DcsrBlock(2, 3, [0, 6], [1, 1]).check()               # past n_rows * n_cols
    with pytest.raises(ValueError, match="outside"):
        DcsrBlock(2, 3, [-1, 0], [1, 1]).check()              # negative key
    with pytest.raises(ValueError, match="values"):
        DcsrBlock(2, 3, [0, 1], [1]).check()                  # vals too short
    with pytest.raises(ValueError, match="values"):
        DcsrBlock(2, 3, [0], [1, 1]).check()                  # vals too long


# -- combinators ---------------------------------------------------------------

def test_add_into_examples():
    dst = block_from_triples(2, 2, [(0, 0, 4.0)])
    upd = dcsr_from_row_map(2, 2, {0: {0: 2.0}})
    add_into(dst, upd, MIN_PLUS.np_add)
    assert entry_map(dst) == {(0, 0): 2.0}

    dst2 = block_from_triples(2, 2, [(0, 0, 4)])
    upd2 = dcsr_from_row_map(2, 2, {0: {0: 2}})
    add_into(dst2, upd2, PLUS_TIMES_I64.np_add)
    assert entry_map(dst2) == {(0, 0): 6}

    empty = _empty(2, 2)
    add_into(empty, upd2, PLUS_TIMES_I64.np_add)
    assert entry_map(empty) == entry_map(upd2)


def test_add_into_an_empty_block_copies_a_read_only_source():
    src = dcsr_deserialize(
        dcsr_serialize(block_from_triples(2, 3, [(0, 1, 5), (1, 2, 7)],
                                          np.int64),
                       semiring_codec(PLUS_TIMES_I64)),
        semiring_codec(PLUS_TIMES_I64))
    assert not src.keys().flags.writeable and not src.vals.flags.writeable
    dst = DcsrBlock.empty(2, 3, dtype=np.float64)
    add_into(dst, src, np.add)
    assert dst.vals.dtype == np.float64
    assert entry_map(dst) == {(0, 1): 5.0, (1, 2): 7.0}
    dst.vals[0] = 99.0
    add_into(dst, src, np.add)          # dst's own arrays take in-place folds
    assert entry_map(dst) == {(0, 1): 104.0, (1, 2): 14.0}
    assert entry_map(src) == {(0, 1): 5, (1, 2): 7}

    u8 = ValueCodec(np.dtype("<u8"))
    bits = dcsr_deserialize(
        dcsr_serialize(block_from_triples(2, 3, [(1, 0, 3)], np.uint64), u8),
        u8)
    assert not bits.vals.flags.writeable
    dst = DcsrBlock.empty(2, 3, dtype=np.uint64)
    or_into(dst, bits)
    or_into(dst, block_from_triples(2, 3, [(1, 0, 1 << 63)], np.uint64))
    assert dst.vals.dtype == np.uint64
    assert entry_map(dst) == {(1, 0): (1 << 63) | 3}
    assert entry_map(bits) == {(1, 0): 3}


def test_add_into_with_inverses_restores():
    rng = np.random.default_rng(8)
    base = {(int(rng.integers(9)), int(rng.integers(9))): int(rng.integers(1, 50))
            for _ in range(40)}
    dst = block_from_triples(9, 9, [(r, c, v) for (r, c), v in base.items()])
    delta = dcsr_from_row_map(9, 9, {r: {c: -v for (rr, c), v in base.items() if rr == r}
                                     for r in {rc[0] for rc in base}})
    add_into(dst, delta, PLUS_TIMES_I64.np_add)
    # every position still present, all values identically zero
    assert dst.nnz == len(base)
    assert all(v == 0 for v in entry_map(dst).values())
    neg = dcsr_from_row_map(9, 9, {r: {c: base[(r, c)] for (rr, c) in base if rr == r}
                                   for r in {rc[0] for rc in base}})
    add_into(dst, neg, PLUS_TIMES_I64.np_add)
    assert entry_map(dst) == base


def test_or_into_accumulates_bitfields():
    dst = block_from_triples(2, 2, [(0, 0, 0b0001)])
    upd = dcsr_from_row_map(2, 2, {0: {0: 0b0100, 1: 0b0010}})
    or_into(dst, upd)
    assert entry_map(dst) == {(0, 0): 0b0101, (0, 1): 0b0010}


# -- touched-row filter --------------------------------------------------------

def test_filter_rows_zero_vector_drops_all():
    a = block_from_triples(3, 6, [(0, 1, 1), (1, 2, 2), (2, 5, 3)])
    out = filter_rows_by_bloom(a, [False] * 3)
    assert out.nnz == 0


def test_filter_rows_full_vector_keeps_all():
    a = block_from_triples(3, 6, [(0, 1, 1), (1, 2, 2), (2, 5, 3)])
    out = filter_rows_by_bloom(a, [True] * 3)
    assert set(out.triples()) == set(a.triples())


def test_filter_rows_output_is_subset():
    rng = np.random.default_rng(31)
    a = block_from_triples(
        10, 10, [(int(p // 10), int(p % 10), int(rng.integers(1, 9)))
                 for p in rng.choice(100, size=40, replace=False)])
    rows = rng.random(10) < 0.5
    out = filter_rows_by_bloom(a, rows)
    out.check()
    assert entry_map(out) == {(r, c): v for (r, c), v in entry_map(a).items()
                              if rows[r]}


# -- wire format ---------------------------------------------------------------

def test_serialize_golden_bytes():
    b = block_from_triples(3, 2, [(0, 1, 5), (2, 0, 3)])
    blob = dcsr_serialize(b, semiring_codec(PLUS_TIMES_I64))
    want = struct.pack("<4sHHQQQ", b"DCSR", 2, 8, 3, 2, 2)
    want += np.asarray([1, 4], "<i8").tobytes()        # keys r * 2 + c
    want += np.asarray([5, 3], "<i8").tobytes()        # values
    assert blob == want
    # 32-byte header + 2 keys (i64) + 2 values (i64)
    assert len(blob) == 32 + 8 * (2 + 2)


@pytest.mark.parametrize("sr", [PLUS_TIMES_I64, MIN_PLUS, BOOLEAN],
                         ids=lambda s: s.name)
def test_wire_round_trip(sr):
    rng = np.random.default_rng(41)
    triples = []
    for p in rng.choice(50 * 40, size=300, replace=False):
        v = bool(rng.integers(2)) if sr is BOOLEAN else float(rng.integers(1, 9))
        if sr is PLUS_TIMES_I64:
            v = int(v)
        triples.append((int(p // 40), int(p % 40), v))
    b = block_from_triples(50, 40, triples)
    blob = dcsr_serialize(b, semiring_codec(sr))
    back = dcsr_deserialize(blob, semiring_codec(sr))
    assert entry_map(back) == entry_map(b)
    assert (back.n_rows, back.n_cols) == (50, 40)


def test_wire_round_trip_empty():
    b = DcsrBlock.empty(7, 9)
    blob = dcsr_serialize(b, semiring_codec(PLUS_TIMES_I64))
    back = dcsr_deserialize(blob, semiring_codec(PLUS_TIMES_I64))
    assert back.nnz == 0 and (back.n_rows, back.n_cols) == (7, 9)


def test_wire_round_trip_large():
    rng = np.random.default_rng(43)
    n = 400
    pos = rng.choice(n * n, size=100_000, replace=False)
    triples = [(int(p // n), int(p % n), int(v)) for p, v in
               zip(pos, rng.integers(-1000, 1000, size=len(pos)))]
    b = block_from_triples(n, n, triples)
    blob = dcsr_serialize(b, semiring_codec(PLUS_TIMES_I64))
    back = dcsr_deserialize(blob, semiring_codec(PLUS_TIMES_I64))
    assert entry_map(back) == entry_map(b)


def test_wire_structure_only():
    b = dcsr_from_row_map(4, 4, {1: {0: None, 3: None}}, structure_only=True)
    blob = dcsr_serialize(b, STRUCTURE_CODEC)
    back = dcsr_deserialize(blob, STRUCTURE_CODEC)
    assert back.vals is None
    assert position_set(back) == {(1, 0), (1, 3)}


_CODECS = {sr.name: semiring_codec(sr) for sr in REGISTRY.values()}


@pytest.mark.parametrize("name", sorted(_CODECS))
def test_decoded_keys_and_values_are_read_only_views(name):
    codec = _CODECS[name]
    b = DcsrBlock(3, 3, [1, 4, 7], np.zeros(3, dtype=codec.dtype))
    blob = dcsr_serialize(b, codec)
    back = dcsr_deserialize(blob, codec)
    assert back.vals.dtype == codec.dtype
    for arr in (back.keys(), back.vals):
        assert not arr.flags.writeable
        assert np.shares_memory(arr, np.frombuffer(blob, dtype=np.uint8))


def _keyed(n_rows, n_cols, keys, vals):
    head = struct.pack("<4sHHQQQ", b"DCSR", 2, 8, n_rows, n_cols, len(keys))
    return (head + np.asarray(keys, "<i8").tobytes()
            + np.asarray(vals, "<i8").tobytes())


def test_wire_rejects_corruption():
    codec = semiring_codec(PLUS_TIMES_I64)
    b = block_from_triples(3, 3, [(0, 1, 5), (2, 0, 3)])
    blob = dcsr_serialize(b, codec)
    assert blob == _keyed(3, 3, [1, 6], [5, 3])

    for cut in range(len(blob)):
        with pytest.raises(DecodeError):
            dcsr_deserialize(blob[:cut], codec)                # every prefix
    with pytest.raises(DecodeError):
        dcsr_deserialize(b"XXXX" + blob[4:], codec)            # bad magic
    bad_ver = blob[:4] + struct.pack("<H", 9) + blob[6:]
    with pytest.raises(DecodeError):
        dcsr_deserialize(bad_ver, codec)                       # wrong version
    with pytest.raises(DecodeError):
        dcsr_deserialize(blob, STRUCTURE_CODEC)                # width mismatch
    with pytest.raises(DecodeError):
        dcsr_deserialize(blob + b"\x00", codec)                # trailing bytes

    # the version-1 layout: a listed-row count, then nz_rows, row_ptr, cols
    v1 = (struct.pack("<4sHHQQQQ", b"DCSR", 1, 8, 3, 3, 2, 2)
          + np.asarray([0, 2, 0, 1, 2, 1, 0, 5, 3], "<u8").tobytes())
    with pytest.raises(DecodeError, match="version 1"):
        dcsr_deserialize(v1, codec)

    for keys in ([6, 1],     # swapped
                 [1, 1],     # repeated
                 [-1, 6],    # negative
                 [1, 9]):    # == n_rows * n_cols
        with pytest.raises(DecodeError):
            dcsr_deserialize(_keyed(3, 3, keys, [5, 3]), codec)
    assert entry_map(dcsr_deserialize(_keyed(3, 3, [0, 8], [5, 3]), codec)) \
        == {(0, 0): 5, (2, 2): 3}


def test_wire_rejects_shapes_beyond_int64_keys():
    codec = semiring_codec(PLUS_TIMES_I64)
    # n_rows * n_cols must fit in int64: no key r * n_cols + c may wrap
    with pytest.raises(DecodeError, match="beyond int64"):
        dcsr_deserialize(_keyed(1, 2 ** 63, [], []), codec)
    wrapped = (2 ** 62 - 1) * 4 + 3 - 2 ** 64   # row 2**62 - 1, column 3
    with pytest.raises(DecodeError, match="beyond int64"):
        dcsr_deserialize(_keyed(2 ** 62, 4, [wrapped], [7]), codec)
    # the largest shape whose keys fit still decodes
    top = dcsr_deserialize(_keyed(1, 2 ** 63 - 1, [2 ** 63 - 2], [7]), codec)
    assert entry_map(top) == {(0, 2 ** 63 - 2): 7}


def test_structural_zero_survives_wire():
    b = block_from_triples(2, 2, [(0, 0, 0)])
    back = dcsr_deserialize(dcsr_serialize(b, semiring_codec(PLUS_TIMES_I64)),
                            semiring_codec(PLUS_TIMES_I64))
    assert entry_map(back) == {(0, 0): 0}

