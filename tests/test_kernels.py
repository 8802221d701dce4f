"""Local multiply kernels: value, structure + bloom, and masked variants."""

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
    loaded_block,
    oracle_contribution_bits,
    oracle_product,
    position_set,
    random_map,
    transpose_map,
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
    assert c.entry_map() == {(0, 1): 6}
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
    assert c.entry_map() == {(0, 0): 0}


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
    for (i, j), v in c.entry_map().items():
        assert dc[i, j] == v
    # every dense nonzero must be present in the sparse result
    got = c.entry_map()
    for i, j in zip(*np.nonzero(dc)):
        assert (int(i), int(j)) in got


def test_min_plus_product_matches_oracle():
    rng = np.random.default_rng(17)
    a_map = random_map(rng, 20, 20, 0.2, values="float")
    b_map = random_map(rng, 20, 20, 0.2, values="float")
    c = gustavson_multiply(_block(a_map, 20, 20), _block(b_map, 20, 20), MIN_PLUS)
    assert c.entry_map() == oracle_product(a_map, b_map, MIN_PLUS)


def test_boolean_product_matches_oracle():
    rng = np.random.default_rng(18)
    a_map = {k: True for k in random_map(rng, 15, 15, 0.25)}
    b_map = {k: True for k in random_map(rng, 15, 15, 0.25)}
    c = gustavson_multiply(_block(a_map, 15, 15), _block(b_map, 15, 15), BOOLEAN)
    assert c.entry_map() == oracle_product(a_map, b_map, BOOLEAN)


@pytest.mark.parametrize("ta", [False, True])
@pytest.mark.parametrize("tb", [False, True])
def test_transpose_flags_match_explicit_transpose(ta, tb):
    rng = np.random.default_rng(5 + 2 * ta + tb)
    # stored shapes: a is 8x6, b is 9x8 when both transposed, etc.
    n, k, m = 8, 6, 9
    a_shape = (k, n) if ta else (n, k)
    b_shape = (m, k) if tb else (k, m)
    a_map = random_map(rng, *a_shape, 0.3)
    b_map = random_map(rng, *b_shape, 0.3)
    c = gustavson_multiply(_block(a_map, *a_shape), _block(b_map, *b_shape),
                           PLUS_TIMES_I64, transpose_a=ta, transpose_b=tb)
    assert (c.n_rows, c.n_cols) == (n, m)
    ea = transpose_map(a_map) if ta else a_map
    eb = transpose_map(b_map) if tb else b_map
    assert c.entry_map() == oracle_product(ea, eb, PLUS_TIMES_I64)


def test_double_transpose_is_identity():
    rng = np.random.default_rng(6)
    a_map = random_map(rng, 7, 7, 0.3)
    b_map = random_map(rng, 7, 7, 0.3)
    plain = gustavson_multiply(_block(a_map, 7, 7), _block(b_map, 7, 7),
                               PLUS_TIMES_I64)
    ta_map = transpose_map(a_map)
    tb_map = transpose_map(b_map)
    twice = gustavson_multiply(_block(ta_map, 7, 7), _block(tb_map, 7, 7),
                               PLUS_TIMES_I64, transpose_a=True, transpose_b=True)
    assert plain.entry_map() == twice.entry_map()


def test_one_by_one_product():
    a = _block({(0, 0): 4}, 1, 1)
    b = _block({(0, 0): 5}, 1, 1)
    for ta in (False, True):
        for tb in (False, True):
            c = gustavson_multiply(a, b, PLUS_TIMES_I64, ta, tb)
            assert c.entry_map() == {(0, 0): 20}


# -- structure + bitfields ------------------------------------------------------

def test_pattern_single_contribution_bit():
    a = _block({(0, 1): 2}, 2, 2)
    b = _block({(1, 1): 3}, 2, 2)
    structure, bloom = pattern_multiply(a, b, inner_base=0, ell=64)
    assert position_set(structure) == {(0, 1)}
    assert structure.vals is None
    assert bloom.entry_map() == {(0, 1): 1 << 1}


def test_pattern_bit_wraps_at_ell():
    # global inner indices 0 and 64 share bit 0 when ell = 64
    a = _block({(0, 0): 1, (0, 64): 1}, 1, 128)
    b = _block({(0, 0): 1, (64, 0): 1}, 128, 1)
    _, bloom = pattern_multiply(a, b, inner_base=0, ell=64)
    assert bloom.entry_map() == {(0, 0): 1}


def test_pattern_inner_base_shifts_bits():
    a = _block({(0, 0): 1}, 1, 1)
    b = _block({(0, 0): 1}, 1, 1)
    _, bloom = pattern_multiply(a, b, inner_base=5, ell=8)
    assert bloom.entry_map() == {(0, 0): 1 << 5}
    _, bloom2 = pattern_multiply(a, b, inner_base=13, ell=8)
    assert bloom2.entry_map() == {(0, 0): 1 << 5}   # 13 mod 8


def test_pattern_accepts_structure_only_operands():
    a = dcsr_from_row_map(2, 2, {0: {1: None}}, structure_only=True)
    b = dcsr_from_row_map(2, 2, {1: {0: None}}, structure_only=True)
    structure, bloom = pattern_multiply(a, b, inner_base=0, ell=8)
    assert position_set(structure) == {(0, 0)}
    assert bloom.entry_map() == {(0, 0): 1 << 1}


@pytest.mark.parametrize("ell", [8, 64])
def test_pattern_matches_brute_force(ell):
    rng = np.random.default_rng(50 + ell)
    a_map = random_map(rng, 16, 16, 0.25)
    b_map = random_map(rng, 16, 16, 0.25)
    structure, bloom = pattern_multiply(_block(a_map, 16, 16),
                                        _block(b_map, 16, 16),
                                        inner_base=3, ell=ell)
    structure.check()
    bloom.check()
    assert all(0 < v < 1 << ell for v in bloom.vals)
    shifted = {(i, 3 + k): v for (i, k), v in a_map.items()}
    want_bits = {(i, j): bits for (i, j), bits in
                 oracle_contribution_bits(shifted, {(3 + k, j): v for (k, j), v
                                                    in b_map.items()}, ell).items()}
    assert bloom.entry_map() == want_bits
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
    assert z.entry_map() == plain.entry_map()
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
                           MIN_PLUS, inner_base=0, ell=8)
    assert z.entry_map() == {p: want[p] for p in half}
    assert position_set(z) <= position_set(mask)
    bits = oracle_contribution_bits(a_map, b_map, 8)
    assert h.entry_map() == {p: bits[p] for p in half}


def test_masked_positions_without_contributions_are_absent():
    # the mask allows (1, 1) but no products land there
    a = _block({(0, 0): 2}, 2, 2)
    b = _block({(0, 0): 3}, 2, 2)
    mask = dcsr_from_row_map(2, 2, {0: {0: None}, 1: {1: None}},
                             structure_only=True)
    z, _ = masked_multiply(a, b, mask, PLUS_TIMES_I64, inner_base=0)
    assert z.entry_map() == {(0, 0): 6}


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


def _entries(n_rows, n_cols, sr):
    pos = st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1))
    return st.dictionaries(pos, _value(sr), max_size=n_rows * n_cols // 2)


@st.composite
def _operands(draw, sr, ta=False, tb=False):
    # stored shapes; op(a) is n x k and op(b) is k x m
    n, k, m = (draw(st.integers(1, 12)) for _ in range(3))
    a_shape = (k, n) if ta else (n, k)
    b_shape = (m, k) if tb else (k, m)
    a_map = draw(_entries(*a_shape, sr))
    b_map = draw(_entries(*b_shape, sr))
    kinds = draw(st.tuples(st.sampled_from(("dynamic", "dcsr")),
                           st.sampled_from(("dynamic", "dcsr"))))
    return (a_map, b_map, _block(a_map, *a_shape, kinds[0], sr),
            _block(b_map, *b_shape, kinds[1], sr), (n, k, m))


_KERNEL_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None,
                            database=None)


@pytest.mark.parametrize("ta", [False, True])
@pytest.mark.parametrize("tb", [False, True])
@pytest.mark.parametrize("sr", list(REGISTRY.values()), ids=lambda s: s.name)
@_KERNEL_SETTINGS
@given(data=st.data())
def test_gustavson_matches_oracle_property(sr, ta, tb, data):
    a_map, b_map, a, b, (n, _k, m) = data.draw(_operands(sr, ta, tb))
    c = gustavson_multiply(a, b, sr, transpose_a=ta, transpose_b=tb)
    c.check()
    assert (c.n_rows, c.n_cols) == (n, m)
    want = oracle_product(transpose_map(a_map) if ta else a_map,
                          transpose_map(b_map) if tb else b_map, sr)
    assert c.entry_map() == want


@pytest.mark.parametrize("ell", [8, 64])
@_KERNEL_SETTINGS
@given(data=st.data())
def test_pattern_matches_oracle_property(ell, data):
    a_map, b_map, a, b, _ = data.draw(_operands(PLUS_TIMES_I64))
    # bases near 64 put some summation indices on bit 63 (and wrap past it)
    base = data.draw(st.sampled_from((0, 5, 52, 60)))
    structure, bits = pattern_multiply(a, b, inner_base=base, ell=ell)
    bits.check()
    shifted_a = {(i, k + base): v for (i, k), v in a_map.items()}
    shifted_b = {(k + base, j): v for (k, j), v in b_map.items()}
    want = oracle_contribution_bits(shifted_a, shifted_b, ell)
    assert bits.entry_map() == want
    assert position_set(structure) == set(want)


def test_pattern_sets_bit_63():
    a = _block({(0, 3): 1, (0, 4): 1}, 1, 5)
    b = _block({(3, 0): 1, (4, 0): 1}, 5, 1)
    _, bits = pattern_multiply(a, b, inner_base=60, ell=64)
    assert bits.entry_map() == {(0, 0): (1 << 63) | 1}


@pytest.mark.parametrize("sr", [PLUS_TIMES_I64, MIN_PLUS, BOOLEAN],
                         ids=lambda s: s.name)
@_KERNEL_SETTINGS
@given(data=st.data())
def test_masked_matches_restricted_oracle_property(sr, data):
    a_map, b_map, a, b, (n, _k, m) = data.draw(_operands(sr))
    mask_pos = data.draw(st.sets(st.tuples(st.integers(0, n - 1),
                                           st.integers(0, m - 1))))
    mask = dcsr_from_row_map(n, m, {r: {c: None for rr, c in mask_pos if rr == r}
                                    for r, _ in mask_pos}, structure_only=True)
    z, h = masked_multiply(a, b, mask, sr, inner_base=3, ell=8)
    want = oracle_product(a_map, b_map, sr)
    assert z.entry_map() == {p: v for p, v in want.items() if p in mask_pos}
    shifted_a = {(i, k + 3): v for (i, k), v in a_map.items()}
    shifted_b = {(k + 3, j): v for (k, j), v in b_map.items()}
    bits = oracle_contribution_bits(shifted_a, shifted_b, 8)
    assert h.entry_map() == {p: v for p, v in bits.items() if p in mask_pos}


@pytest.mark.parametrize("sr", [PLUS_TIMES_I64, PLUS_TIMES_F64, MIN_PLUS,
                                BOOLEAN], ids=lambda s: s.name)
@_KERNEL_SETTINGS
@given(data=st.data())
def test_combine_blocks_is_a_member_order_fold(sr, data):
    n = data.draw(st.integers(1, 12))
    value = (st.sampled_from((1e16, 1.0, -1e16, 3.0)) if sr is PLUS_TIMES_F64
             else _value(sr))
    pos = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    members = data.draw(st.lists(st.dictionaries(pos, value, max_size=20),
                                 min_size=1, max_size=4))
    # one aggregation's contributions share sr's value dtype, even empty ones
    blocks = [block_from_triples(n, n, [(i, j, v) for (i, j), v in m.items()],
                                 sr.np_dtype) for m in members]
    got = combine_blocks(blocks, n, n, sr.np_add)
    got.check()
    want: dict = {}
    for m in members:
        for p, v in m.items():
            want[p] = sr.add(want[p], v) if p in want else v
    assert got.entry_map() == want
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
        assert c.entry_map() == {(0, 0): want}
        mask = dcsr_from_row_map(1, 1, {0: {0: None}}, structure_only=True)
        z, _ = masked_multiply(left, b, mask, PLUS_TIMES_F64, inner_base=0)
        assert z.entry_map() == {(0, 0): want}
    bt = _block({(0, j): 1.0 for j in range(k)}, 1, k)
    c = gustavson_multiply(a, bt, PLUS_TIMES_F64, transpose_b=True)
    assert c.entry_map() == {(0, 0): want}
