"""Local multiply kernels: value, structure + bloom, and masked variants."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynspgemm import (
    BOOLEAN,
    DcsrBlock,
    MIN_PLUS,
    PLUS_TIMES_F64,
    PLUS_TIMES_I64,
    REGISTRY,
    gustavson_multiply,
    masked_multiply,
    pattern_multiply,
)
from dynspgemm import kernels, storage
from dynspgemm.storage import combine_blocks
from helpers import (
    block_from_triples,
    dcsr_from_row_map,
    entry_map,
    loaded_block,
    oracle_contribution_bits,
    oracle_product,
    position_set,
    random_map,
    shares_a_bit,
)


def _block(m: dict, n_rows: int, n_cols: int, kind="dcsr", sr=None):
    """A block of m's entries: built by dcsr_from_coo ("dcsr"), or loaded
    as an operand by upserts under sr ("dynamic")."""
    triples = [(i, j, v) for (i, j), v in m.items()]
    if kind == "dynamic":
        return loaded_block(n_rows, n_cols, triples, sr)
    return block_from_triples(n_rows, n_cols, triples)


def test_single_entry_product():
    a = _block({(0, 1): 2}, 2, 2)
    b = _block({(1, 1): 3}, 2, 2)
    c = gustavson_multiply(a, b, PLUS_TIMES_I64)
    assert entry_map(c) == {(0, 1): 6}
    c.check()


def test_empty_operand_gives_empty_product():
    a = DcsrBlock.empty(3, 3)
    b = _block({(0, 0): 1}, 3, 3)
    assert gustavson_multiply(a, b, PLUS_TIMES_I64).nnz == 0
    assert gustavson_multiply(b, DcsrBlock.empty(3, 3), PLUS_TIMES_I64).nnz == 0


def test_inner_dimension_mismatch_rejected():
    a = DcsrBlock.empty(2, 3)
    b = DcsrBlock.empty(4, 2)
    with pytest.raises(ValueError, match="inner dimensions"):
        gustavson_multiply(a, b, PLUS_TIMES_I64)


def test_structural_zero_rows_kept():
    # 2 * 3 + (-1) * 6 = 0: the position had contributions, so it stays
    a = _block({(0, 0): 2, (0, 1): -1}, 1, 2)
    b = _block({(0, 0): 3, (1, 0): 6}, 2, 1)
    c = gustavson_multiply(a, b, PLUS_TIMES_I64)
    assert entry_map(c) == {(0, 0): 0}


@pytest.mark.parametrize("density", [0.01, 0.1, 0.5])
@pytest.mark.parametrize("right_kind", ["dynamic", "dcsr"])
def test_random_product_matches_dense_numpy(density, right_kind):
    rng = np.random.default_rng(int(density * 100) + 1)
    n, k, m = 40, 64, 33
    a_map = random_map(rng, n, k, density)
    b_map = random_map(rng, k, m, density)
    a = _block(a_map, n, k)
    b = _block(b_map, k, m, right_kind, PLUS_TIMES_I64)
    c = gustavson_multiply(a, b, PLUS_TIMES_I64)
    c.check()

    da = np.zeros((n, k), dtype=np.int64)
    db = np.zeros((k, m), dtype=np.int64)
    for (i, j), v in a_map.items():
        da[i, j] = v
    for (i, j), v in b_map.items():
        db[i, j] = v
    dc = da @ db
    for (i, j), v in entry_map(c).items():
        assert dc[i, j] == v
    # every dense nonzero must be present in the sparse result
    got = entry_map(c)
    for i, j in zip(*np.nonzero(dc)):
        assert (int(i), int(j)) in got


def test_min_plus_product_matches_oracle():
    rng = np.random.default_rng(17)
    a_map = random_map(rng, 20, 20, 0.2, values="float")
    b_map = random_map(rng, 20, 20, 0.2, values="float")
    c = gustavson_multiply(_block(a_map, 20, 20), _block(b_map, 20, 20), MIN_PLUS)
    assert entry_map(c) == oracle_product(a_map, b_map, MIN_PLUS)


def test_boolean_product_matches_oracle():
    rng = np.random.default_rng(18)
    a_map = {k: True for k in random_map(rng, 15, 15, 0.25)}
    b_map = {k: True for k in random_map(rng, 15, 15, 0.25)}
    c = gustavson_multiply(_block(a_map, 15, 15), _block(b_map, 15, 15), BOOLEAN)
    assert entry_map(c) == oracle_product(a_map, b_map, BOOLEAN)


def test_one_by_one_product():
    a = _block({(0, 0): 4}, 1, 1)
    b = _block({(0, 0): 5}, 1, 1)
    assert entry_map(gustavson_multiply(a, b, PLUS_TIMES_I64)) == {(0, 0): 20}


# -- structure + bitfields ------------------------------------------------------

def test_pattern_single_contribution_bit():
    a = _block({(0, 1): 2}, 2, 2)
    b = _block({(1, 1): 3}, 2, 2)
    structure, bloom = pattern_multiply(a, b, inner_base=0)
    assert position_set(structure) == {(0, 1)}
    assert structure.vals is None
    assert entry_map(bloom) == {(0, 1): 1 << 1}


def test_pattern_bit_wraps_at_ell():
    # global inner indices 0 and 64 share bit 0 of the 64-bit word
    a = _block({(0, 0): 1, (0, 64): 1}, 1, 128)
    b = _block({(0, 0): 1, (64, 0): 1}, 128, 1)
    _, bloom = pattern_multiply(a, b, inner_base=0)
    assert entry_map(bloom) == {(0, 0): 1}


def test_pattern_inner_base_shifts_bits():
    a = _block({(0, 0): 1}, 1, 1)
    b = _block({(0, 0): 1}, 1, 1)
    _, bloom = pattern_multiply(a, b, inner_base=5)
    assert entry_map(bloom) == {(0, 0): 1 << 5}
    _, bloom2 = pattern_multiply(a, b, inner_base=69)
    assert entry_map(bloom2) == {(0, 0): 1 << 5}   # 69 mod 64


def test_pattern_accepts_structure_only_operands():
    a = dcsr_from_row_map(2, 2, {0: {1: None}}, structure_only=True)
    b = dcsr_from_row_map(2, 2, {1: {0: None}}, structure_only=True)
    structure, bloom = pattern_multiply(a, b, inner_base=0)
    assert position_set(structure) == {(0, 0)}
    assert entry_map(bloom) == {(0, 0): 1 << 1}


@pytest.mark.parametrize("inner_base", [8, 64])
def test_pattern_matches_brute_force(inner_base):
    """80 summation indices from inner_base: indices 64 apart share a bit,
    and from base 64 on every index has wrapped past bit 63."""
    rng = np.random.default_rng(50 + inner_base)
    a_map = random_map(rng, 16, 80, 0.25)
    b_map = random_map(rng, 80, 16, 0.25)
    structure, bloom = pattern_multiply(_block(a_map, 16, 80),
                                        _block(b_map, 80, 16),
                                        inner_base=inner_base)
    structure.check()
    bloom.check()
    assert bloom.vals.dtype == np.uint64 and all(bloom.vals)
    shifted_a = {(i, inner_base + k): v for (i, k), v in a_map.items()}
    shifted_b = {(inner_base + k, j): v for (k, j), v in b_map.items()}
    assert shares_a_bit(shifted_a, shifted_b)
    want_bits = oracle_contribution_bits(shifted_a, shifted_b, 64)
    assert entry_map(bloom) == want_bits
    assert position_set(structure) == set(want_bits)
    assert position_set(structure) == position_set(bloom)


# -- masked ----------------------------------------------------------------------

def test_masked_empty_mask_is_empty():
    a = _block({(0, 0): 1}, 2, 2)
    b = _block({(0, 0): 1}, 2, 2)
    z, h = masked_multiply(a, b, DcsrBlock.empty(2, 2, structure_only=True),
                           PLUS_TIMES_I64, inner_base=0)
    assert z.nnz == 0 and h.nnz == 0


def test_masked_full_mask_equals_plain_product():
    rng = np.random.default_rng(61)
    a_map = random_map(rng, 12, 12, 0.3)
    b_map = random_map(rng, 12, 12, 0.3)
    a, b = _block(a_map, 12, 12), _block(b_map, 12, 12)
    plain = gustavson_multiply(a, b, PLUS_TIMES_I64)
    full_mask = DcsrBlock(12, 12, plain.keys(), None)
    z, h = masked_multiply(a, b, full_mask, PLUS_TIMES_I64, inner_base=0)
    assert entry_map(z) == entry_map(plain)
    assert position_set(h) == position_set(plain)


def test_masked_restricts_to_mask_positions():
    rng = np.random.default_rng(67)
    a_map = random_map(rng, 14, 14, 0.3, values="float")
    b_map = random_map(rng, 14, 14, 0.3, values="float")
    want = oracle_product(a_map, b_map, MIN_PLUS)
    keys = sorted(want)
    half = set(keys[::2])
    mask = dcsr_from_row_map(
        14, 14, {r: {c: None for (rr, c) in half if rr == r}
                 for r in {p[0] for p in half}}, structure_only=True)
    z, h = masked_multiply(_block(a_map, 14, 14), _block(b_map, 14, 14), mask,
                           MIN_PLUS, inner_base=0)
    assert entry_map(z) == {p: want[p] for p in half}
    assert position_set(z) <= position_set(mask)
    bits = oracle_contribution_bits(a_map, b_map, 64)
    assert entry_map(h) == {p: bits[p] for p in half}


def test_masked_positions_without_contributions_are_absent():
    # the mask allows (1, 1) but no products land there
    a = _block({(0, 0): 2}, 2, 2)
    b = _block({(0, 0): 3}, 2, 2)
    mask = dcsr_from_row_map(2, 2, {0: {0: None}, 1: {1: None}},
                             structure_only=True)
    z, _ = masked_multiply(a, b, mask, PLUS_TIMES_I64, inner_base=0)
    assert entry_map(z) == {(0, 0): 6}


def test_masked_inner_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        masked_multiply(DcsrBlock.empty(2, 3), DcsrBlock.empty(2, 2),
                        DcsrBlock.empty(2, 2), PLUS_TIMES_I64, inner_base=0)


def test_masked_mask_of_another_shape_rejected():
    # under the product's width 3, the 2x2 mask's key 3 = (1, 1) would name
    # (1, 0): the mask must be a.n_rows x b.n_cols
    a = _block({(1, 0): 2}, 2, 2)
    b = _block({(0, 1): 3}, 2, 3)
    mask = dcsr_from_row_map(2, 2, {1: {1: None}}, structure_only=True)
    with pytest.raises(ValueError, match="mask is 2x2, the product 2x3"):
        masked_multiply(a, b, mask, PLUS_TIMES_I64, inner_base=0)


def test_masked_wide_mask_searches_its_keys():
    """A row table of this mask would hold 2 x 2^22 cells for 4 products:
    past MASK_TABLE_RATIO cells per product or mask entry, the kernel
    searches the mask's keys instead, and its memory stays product-sized."""
    w = 1 << 22
    a = _block({(0, 0): 2, (1, 0): 5}, 2, 1)
    b = _block({(0, 0): 3, (0, w - 1): 7}, 1, w)
    mask = DcsrBlock(2, w, [0, 2 * w - 1], None)
    tracemalloc.start()
    try:
        z, h = masked_multiply(a, b, mask, PLUS_TIMES_I64, inner_base=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert entry_map(z) == {(0, 0): 6, (1, w - 1): 35}
    assert entry_map(h) == {(0, 0): 1, (1, w - 1): 1}
    assert peak < (2 * w) >> 6


def test_masked_sorts_the_products_once(monkeypatch):
    """Z and H fold from one sort of the surviving products."""
    sorts = []
    real = storage._sort_fold

    def counting(keys, *columns):
        sorts.append(len(keys))
        return real(keys, *columns)

    monkeypatch.setattr(storage, "_sort_fold", counting)
    monkeypatch.setattr(kernels, "_sort_fold", counting)
    rng = np.random.default_rng(5)
    a_map = random_map(rng, 12, 12, 0.4)
    b_map = random_map(rng, 12, 12, 0.4)
    a, b = _block(a_map, 12, 12), _block(b_map, 12, 12)
    want = oracle_product(a_map, b_map, MIN_PLUS)
    mask = DcsrBlock(12, 12, sorted(i * 12 + j for i, j in want)[::3], None)
    sorts.clear()
    z, h = masked_multiply(a, b, mask, MIN_PLUS, inner_base=0)
    assert len(sorts) == 1 and sorts[0] > z.nnz == mask.nnz
    assert z.keys() is h.keys()


# -- properties against the oracles ---------------------------------------------

def _value(sr):
    if sr is BOOLEAN:
        return st.booleans()
    if sr is PLUS_TIMES_I64:
        return st.integers(-9, 9)
    return st.integers(-9, 9).map(float)


def _fold_order_value(sr):
    """_value, but plus-times-f64 values whose sums change with the order
    of their additions."""
    return (st.sampled_from((1e16, 1.0, -1e16, 3.0)) if sr is PLUS_TIMES_F64
            else _value(sr))


def _entries(n_rows, n_cols, value, min_size=0):
    pos = st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1))
    return st.dictionaries(pos, value, min_size=min_size,
                           max_size=n_rows * n_cols // 2)


def _flip(entries):
    return {(j, i): v for (i, j), v in entries.items()}


@st.composite
def _operands(draw, sr, ta=False, tb=False, fold_order=False):
    # a is n x k and b is k x m; ta (tb) draws a k x n (m x k) map and
    # flips it, so the kernel sees entries laid out in the other orientation.
    # fold_order draws _fold_order_value values and fills at least a third
    # of each operand, so that many positions sum three or more products
    n, k, m = (draw(st.integers(1, 12)) for _ in range(3))
    value = _fold_order_value(sr) if fold_order else _value(sr)

    def entries(rows, cols):
        return _entries(rows, cols, value,
                        rows * cols // 3 if fold_order else 0)

    a_map = draw(entries(k, n) if ta else entries(n, k))
    b_map = draw(entries(m, k) if tb else entries(k, m))
    a_map = _flip(a_map) if ta else a_map
    b_map = _flip(b_map) if tb else b_map
    kinds = draw(st.tuples(st.sampled_from(("dynamic", "dcsr")),
                           st.sampled_from(("dynamic", "dcsr"))))
    return (a_map, b_map, _block(a_map, n, k, kinds[0], sr),
            _block(b_map, k, m, kinds[1], sr), (n, k, m))


_KERNEL_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None,
                            database=None)


@pytest.mark.parametrize("ta", [False, True])
@pytest.mark.parametrize("tb", [False, True])
@pytest.mark.parametrize("sr", list(REGISTRY.values()), ids=lambda s: s.name)
@_KERNEL_SETTINGS
@given(data=st.data())
def test_gustavson_matches_oracle_property(sr, ta, tb, data):
    a_map, b_map, a, b, (n, _k, m) = data.draw(_operands(sr, ta, tb))
    c = gustavson_multiply(a, b, sr)
    c.check()
    assert (c.n_rows, c.n_cols) == (n, m)
    assert entry_map(c) == oracle_product(a_map, b_map, sr)


@pytest.mark.parametrize("inner_base", [8, 64])
@_KERNEL_SETTINGS
@given(data=st.data())
def test_pattern_matches_oracle_property(inner_base, data):
    a_map, b_map, a, b, _ = data.draw(_operands(PLUS_TIMES_I64))
    # the block's first summation index lies in the word's first or second
    # round, plus an offset; offsets 52 and 60 put some indices on bit 63
    # (and wrap past it)
    base = inner_base + data.draw(st.sampled_from((0, 5, 52, 60)))
    structure, bits = pattern_multiply(a, b, inner_base=base)
    bits.check()
    shifted_a = {(i, k + base): v for (i, k), v in a_map.items()}
    shifted_b = {(k + base, j): v for (k, j), v in b_map.items()}
    want = oracle_contribution_bits(shifted_a, shifted_b, 64)
    assert entry_map(bits) == want
    assert position_set(structure) == set(want)


def test_pattern_sets_bit_63():
    a = _block({(0, 3): 1, (0, 4): 1}, 1, 5)
    b = _block({(3, 0): 1, (4, 0): 1}, 5, 1)
    _, bits = pattern_multiply(a, b, inner_base=60)
    assert entry_map(bits) == {(0, 0): (1 << 63) | 1}


@pytest.mark.parametrize("sr", [PLUS_TIMES_I64, PLUS_TIMES_F64, MIN_PLUS,
                                BOOLEAN], ids=lambda s: s.name)
@_KERNEL_SETTINGS
@given(data=st.data())
def test_masked_matches_restricted_oracle_property(sr, data):
    """Both ways of testing the mask, its row table and the search of its
    keys, at a base inside the bitfield word and one whose indices cross
    bit 63, match the oracle. Under plus-times-f64
    many sums depend on the order of their additions, which is ascending
    inner index in the kernel; only there are the operands filled, so the
    other semirings still draw empty and sparse ones."""
    a_map, b_map, a, b, (n, _k, m) = data.draw(
        _operands(sr, fold_order=sr is PLUS_TIMES_F64))
    mask_pos = data.draw(st.sets(st.tuples(st.integers(0, n - 1),
                                           st.integers(0, m - 1))))
    mask = dcsr_from_row_map(n, m, {r: {c: None for rr, c in mask_pos if rr == r}
                                    for r, _ in mask_pos}, structure_only=True)
    # the oracle adds in a_map's order: the kernel's is a's inner index
    by_inner = dict(sorted(a_map.items(), key=lambda e: e[0][::-1]))
    want = oracle_product(by_inner, b_map, sr)
    # ratio 0 sends every nonempty mask to the search, and 2^40 cells per
    # product or mask entry admits every row table
    for ratio in (0, 1 << 40):
        for base in (3, 60):
            searched = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernels, "MASK_TABLE_RATIO", ratio)
                mp.setattr(kernels, "locate",
                           lambda *q: searched.append(q) or storage.locate(*q))
                z, h = masked_multiply(a, b, mask, sr, inner_base=base)
            assert bool(searched) == (ratio == 0 and bool(mask_pos))
            assert entry_map(z) == {p: v for p, v in want.items()
                                    if p in mask_pos}
            bits = oracle_contribution_bits(
                {(i, k + base): v for (i, k), v in a_map.items()},
                {(k + base, j): v for (k, j), v in b_map.items()}, 64)
            assert entry_map(h) == {p: v for p, v in bits.items()
                                    if p in mask_pos}


@pytest.mark.parametrize("sr", [PLUS_TIMES_I64, PLUS_TIMES_F64, MIN_PLUS,
                                BOOLEAN], ids=lambda s: s.name)
@_KERNEL_SETTINGS
@given(data=st.data())
def test_combine_blocks_is_a_member_order_fold(sr, data):
    """Under plus-times-f64, three or four members each hold every one of
    four or nine positions, and at each position the members take the values
    3.0, 1e16, -1e16 and 1.0 in a drawn order (this order, which examples
    shrink towards, sums otherwise in reverse); 32 of the 40 examples change
    when the members fold in reverse."""
    if sr is PLUS_TIMES_F64:
        n = data.draw(st.integers(2, 3))
        cells = [(i, j) for i in range(n) for j in range(n)]
        runs = [data.draw(st.permutations((3.0, 1e16, -1e16, 1.0)))
                for _ in cells]
        members = [{p: run[m] for p, run in zip(cells, runs)}
                   for m in range(data.draw(st.integers(3, 4)))]
    else:
        n = data.draw(st.integers(1, 12))
        pos = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        members = data.draw(st.lists(
            st.dictionaries(pos, _value(sr), max_size=20), min_size=1,
            max_size=4))
    # one aggregation's contributions share sr's value dtype, even empty ones
    blocks = [block_from_triples(n, n, [(i, j, v) for (i, j), v in m.items()],
                                 sr.np_dtype) for m in members]
    got = combine_blocks(blocks, n, n, sr.np_add)
    got.check()
    want: dict = {}
    for m in members:
        for p, v in m.items():
            want[p] = sr.add(want[p], v) if p in want else v
    assert entry_map(got) == want
    union = combine_blocks(blocks, n, n, None)
    assert union.vals is None and position_set(union) == set(want)


def test_combine_blocks_refuses_members_of_two_dtypes():
    members = [block_from_triples(2, 2, [(0, 0, 1.5)], np.float64),
               block_from_triples(2, 2, [(0, 0, True)], np.bool_)]
    for blocks in (members, members[::-1]):
        with pytest.raises(ValueError, match="bool and float64"):
            combine_blocks(blocks, 2, 2, np.add)
    # a structure-only union takes no values, so it takes any members
    assert position_set(combine_blocks(members, 2, 2, None)) == {(0, 0)}


def test_combine_blocks_returns_a_single_non_empty_member_as_is():
    full = block_from_triples(3, 3, [(0, 1, 2.5), (2, 0, 1.0)], np.float64)
    empty = DcsrBlock.empty(3, 3, dtype=np.float64)
    for blocks in ((full, empty), (empty, full, empty)):
        got = combine_blocks(blocks, 3, 3, np.add)
        assert got.keys() is full.keys() and got.vals is full.vals
        union = combine_blocks(blocks, 3, 3, None)
        assert union.keys() is full.keys() and union.vals is None
    # the dtype check comes before the shortcut
    with pytest.raises(ValueError, match="bool and float64"):
        combine_blocks((full, DcsrBlock.empty(3, 3, dtype=np.bool_)), 3, 3,
                       np.add)


def test_float_sums_fold_in_ascending_inner_index():
    # Pairwise or reordered summation of these products gives another sum.
    column = [1e16, 1.0, -1e16, 3.0] * 5 + [1.0] * 20
    k = len(column)
    want = 0.0
    for i, v in enumerate(column):
        want = v if i == 0 else want + v
    assert want == 39.0
    # a is loaded in reverse inner-index order, once by updates and once
    # by dcsr_from_coo
    triples = [(0, j, v) for j, v in reversed(list(enumerate(column)))]
    a = loaded_block(1, k, triples, PLUS_TIMES_F64)
    b = _block({(j, 0): 1.0 for j in range(k)}, k, 1)
    for left in (a, block_from_triples(1, k, triples)):
        c = gustavson_multiply(left, b, PLUS_TIMES_F64)
        assert entry_map(c) == {(0, 0): want}
        mask = dcsr_from_row_map(1, 1, {0: {0: None}}, structure_only=True)
        z, _ = masked_multiply(left, b, mask, PLUS_TIMES_F64, inner_base=0)
        assert entry_map(z) == {(0, 0): want}



def test_float_sums_of_many_interleaved_products_fold_in_inner_order(
        monkeypatch):
    """A plus-times-f64 product of more than 2^12 interleaved products,
    enough for the packed-word sort, whose sums depend on the order of
    their additions, matches the oracle's ascending-inner-index fold bit
    for bit."""
    rng = np.random.default_rng(41)
    n, k, m = 6, 64, 48
    terms = [1e16, 1.0, -1e16, 3.0, 0.5]
    a_map = {(i, j): float(rng.choice(terms))
             for i in range(n) for j in range(k) if rng.random() < 0.6}
    b_map = {(j, c): float(rng.choice([1.0, 2.0, -0.25]))
             for j in range(k) for c in range(m) if rng.random() < 0.5}
    a, b = _block(a_map, n, k), _block(b_map, k, m)
    assert sum(_row_products(a_map, b_map).values()) >= 1 << 12
    shifts = []
    real = storage._pack_shift

    def recording(keys):
        shifts.append(real(keys))
        return shifts[-1]

    monkeypatch.setattr(storage, "_pack_shift", recording)
    c = gustavson_multiply(a, b, PLUS_TIMES_F64)
    assert shifts and all(shifts)
    want = oracle_product(a_map, b_map, PLUS_TIMES_F64)
    assert c.keys().tolist() == [i * m + j for i, j in sorted(want)]
    assert c.vals.tobytes() == np.array([want[p] for p in sorted(want)]).tobytes()
    backwards = oracle_product(dict(reversed(a_map.items())), b_map,
                               PLUS_TIMES_F64)
    assert backwards != want   # the fold order shows in the sums


# -- row bands -------------------------------------------------------------------

@pytest.mark.parametrize("budget", [1, 3, 7])
@pytest.mark.parametrize("ta", [False, True])
@pytest.mark.parametrize("tb", [False, True])
@pytest.mark.parametrize("sr", list(REGISTRY.values()), ids=lambda s: s.name)
@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_banded_gustavson_matches_oracle_property(sr, ta, tb, budget, data):
    a_map, b_map, a, b, _ = data.draw(_operands(sr, ta, tb))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "BAND_PRODUCTS", budget)
        c = gustavson_multiply(a, b, sr)
    c.check()
    assert entry_map(c) == oracle_product(a_map, b_map, sr)


@pytest.mark.parametrize("budget", [1, 3, 7])
@pytest.mark.parametrize("inner_base", [8, 64])
@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_banded_pattern_matches_oracle_property(inner_base, budget, data):
    a_map, b_map, a, b, _ = data.draw(_operands(PLUS_TIMES_I64))
    base = inner_base + data.draw(st.sampled_from((0, 5, 52, 60)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "BAND_PRODUCTS", budget)
        structure, bits = pattern_multiply(a, b, inner_base=base)
    bits.check()
    want = oracle_contribution_bits(
        {(i, k + base): v for (i, k), v in a_map.items()},
        {(k + base, j): v for (k, j), v in b_map.items()}, 64)
    assert entry_map(bits) == want
    assert structure.keys() is bits.keys()


def _banded_sorts(monkeypatch, budget: int) -> list:
    """Set the band budget, and list the key count of every sort the
    kernels make from here on."""
    sorts = []
    real = kernels._sort_fold

    def counting(keys, *columns):
        sorts.append(len(keys))
        return real(keys, *columns)

    monkeypatch.setattr(kernels, "_sort_fold", counting)
    monkeypatch.setattr(kernels, "BAND_PRODUCTS", budget)
    return sorts


def _row_products(a_map: dict, b_map: dict) -> dict:
    """Products each row of a forms with b."""
    b_row: dict = {}
    for k, _ in b_map:
        b_row[k] = b_row.get(k, 0) + 1
    out: dict = {}
    for i, k in a_map:
        out[i] = out.get(i, 0) + b_row.get(k, 0)
    return out


def _long_row_operands():
    """a (4 x 5) and a full b (5 x 6): the rows of a form 6, 30, 6 and 12
    products, row 1 more than any budget below."""
    a_map = {(0, 2): 2, (1, 0): 1, (1, 1): -3, (1, 2): 4, (1, 3): 5,
             (1, 4): -1, (2, 4): 7, (3, 0): 1, (3, 1): 1}
    b_map = {(k, j): k - j + 2 for k in range(5) for j in range(6)}
    return a_map, b_map


@pytest.mark.parametrize("budget", [1, 3, 7, 16])
def test_banded_kernels_cut_at_rows_and_keep_long_rows_whole(monkeypatch,
                                                            budget):
    """Every sort takes at most max(budget, the longest row's products)
    keys, and the kernels' results match the oracles."""
    a_map, b_map = _long_row_operands()
    a, b = _block(a_map, 4, 5), _block(b_map, 5, 6)
    row_products = _row_products(a_map, b_map)
    assert max(row_products.values()) > 16
    sorts = _banded_sorts(monkeypatch, budget)
    c = gustavson_multiply(a, b, PLUS_TIMES_I64)
    assert entry_map(c) == oracle_product(a_map, b_map, PLUS_TIMES_I64)
    _, bits = pattern_multiply(a, b, inner_base=0)
    assert entry_map(bits) == oracle_contribution_bits(a_map, b_map, 64)
    bound = max(budget, max(row_products.values()))
    assert len(sorts) > 2 and max(sorts) <= bound
    assert sum(sorts) == 2 * sum(row_products.values())


def test_banded_sort_is_bounded_on_a_product_of_many_budgets(monkeypatch):
    """A product forming many budgets' worth of products sorts at most
    max(budget, the largest single row's products) keys per call."""
    rng = np.random.default_rng(23)
    a_map = random_map(rng, 60, 50, 0.2)
    b_map = random_map(rng, 50, 40, 0.2)
    a, b = _block(a_map, 60, 50), _block(b_map, 50, 40)
    row_products = _row_products(a_map, b_map)
    total, budget = sum(row_products.values()), 64
    assert total > 10 * budget
    sorts = _banded_sorts(monkeypatch, budget)
    for sr in (PLUS_TIMES_I64, MIN_PLUS):
        sorts.clear()
        c = gustavson_multiply(a, b, sr)
        assert entry_map(c) == oracle_product(a_map, b_map, sr)
        assert sum(sorts) == total
        assert max(sorts) <= max(budget, max(row_products.values()))


def test_float_sums_fold_in_ascending_inner_index_one_product_per_band(
        monkeypatch):
    """The float column of test_float_sums_fold_in_ascending_inner_index
    under a band budget of one product: the one output row is a band on its
    own and still folds in ascending inner index."""
    monkeypatch.setattr(kernels, "BAND_PRODUCTS", 1)
    column = [1e16, 1.0, -1e16, 3.0] * 5 + [1.0] * 20
    k = len(column)
    triples = [(0, j, v) for j, v in reversed(list(enumerate(column)))]
    a = loaded_block(1, k, triples, PLUS_TIMES_F64)
    b = _block({(j, 0): 1.0 for j in range(k)}, k, 1)
    for left in (a, block_from_triples(1, k, triples)):
        assert entry_map(gustavson_multiply(left, b, PLUS_TIMES_F64)) == {
            (0, 0): 39.0}
    # two such rows, one band each, join in key order
    two = block_from_triples(2, k, triples + [(1, j, v) for _, j, v in triples])
    assert entry_map(gustavson_multiply(two, b, PLUS_TIMES_F64)) == {
        (0, 0): 39.0, (1, 0): 39.0}



def test_banded_kernels_return_arrays_of_exactly_nnz_that_own_their_data(
        monkeypatch):
    """Past one band the kernels write each band into result arrays sized
    by the product count and trim them: the returned keys and values hold
    exactly nnz entries, own their data, and match the oracles."""
    rng = np.random.default_rng(29)
    a_map = random_map(rng, 60, 50, 0.2)
    b_map = random_map(rng, 50, 40, 0.2)
    a, b = _block(a_map, 60, 50), _block(b_map, 50, 40)
    sorts = _banded_sorts(monkeypatch, 64)
    c = gustavson_multiply(a, b, PLUS_TIMES_I64)
    structure, bits = pattern_multiply(a, b, inner_base=0)
    assert len(sorts) > 2 * 10
    assert entry_map(c) == oracle_product(a_map, b_map, PLUS_TIMES_I64)
    assert entry_map(bits) == oracle_contribution_bits(a_map, b_map, 64)
    assert structure.keys() is bits.keys()
    for block in (c, bits):
        block.check()
        for arr in (block.keys(), block.vals):
            assert arr.shape == (block.nnz,)
            assert arr.base is None and arr.flags.owndata


# -- structure-only operands -----------------------------------------------------

@pytest.mark.parametrize("bare", [(), ("a",), ("b",), ("a", "b")],
                         ids=lambda t: "+".join(t) or "none")
def test_value_kernels_name_structure_only_operands(bare):
    """gustavson_multiply and masked_multiply raise ValueError naming each
    structure-only operand, before any work; pattern_multiply takes them."""
    a = _block({(0, 1): 2, (1, 0): 1}, 2, 2)
    b = _block({(1, 1): 3, (0, 0): 4}, 2, 2)
    ops = {name: DcsrBlock(2, 2, blk.keys(), None) if name in bare else blk
           for name, blk in (("a", a), ("b", b))}
    mask = DcsrBlock(2, 2, [1], None)
    want = {(0, 1): 6, (1, 0): 4}
    structure, bits = pattern_multiply(ops["a"], ops["b"], inner_base=0)
    assert position_set(structure) == set(want)
    assert entry_map(bits) == {(0, 1): 2, (1, 0): 1}
    if not bare:
        assert entry_map(gustavson_multiply(ops["a"], ops["b"],
                                            PLUS_TIMES_I64)) == want
        z, _ = masked_multiply(ops["a"], ops["b"], mask, PLUS_TIMES_I64, 0)
        assert entry_map(z) == {(0, 1): 6}
        return
    message = f"{' and '.join(bare)} structure-only"
    with pytest.raises(ValueError, match=message):
        gustavson_multiply(ops["a"], ops["b"], PLUS_TIMES_I64)
    with pytest.raises(ValueError, match=message):
        masked_multiply(ops["a"], ops["b"], mask, PLUS_TIMES_I64, 0)
    # even with nothing to multiply, the operands' kind is checked first
    empty = {name: DcsrBlock(2, 2, [], None) if name in bare
             else DcsrBlock.empty(2, 2) for name in ("a", "b")}
    with pytest.raises(ValueError, match=message):
        gustavson_multiply(empty["a"], empty["b"], PLUS_TIMES_I64)
