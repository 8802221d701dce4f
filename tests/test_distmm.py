"""Distributed products: static baseline, algebraic and general updates."""

import math

import numpy as np
import pytest

from dynspgemm import (
    BlockPartition,
    DcsrBlock,
    DistMatrix,
    DynamicBlock,
    MIN_PLUS,
    PLUS_TIMES_F64,
    PLUS_TIMES_I64,
    SpgemmState,
    UnsupportedFeatureError,
    add_into,
    compute_pattern,
    dcsr_serialize,
    semiring_codec,
    spgemm_algebraic_init,
    spgemm_algebraic_update,
    spgemm_general_update,
    summa_static,
)
from helpers import (
    apply_delta,
    dist_from_map,
    gather_maps,
    hypersparse_delta,
    mixed_general_batch,
    oracle_contribution_bits,
    oracle_product,
    random_map,
    spmd_collect,
    transpose_map,
    update_from_map,
)


def _identity(n):
    return {(i, i): 1 for i in range(n)}


# -- static product --------------------------------------------------------------

def test_summa_identity_leaves_b_unchanged():
    n = 8
    rng = np.random.default_rng(1)
    b_map = random_map(rng, n, n, 0.3)

    def worker(comm):
        part = BlockPartition(n, n, comm.q)
        a = dist_from_map(part, comm, _identity(n))
        b = dist_from_map(part, comm, b_map)
        return summa_static(comm, a, b, PLUS_TIMES_I64).global_entries()

    assert gather_maps(spmd_collect(2, worker)) == b_map


def test_summa_single_entry_product():
    def worker(comm):
        part = BlockPartition(4, 4, comm.q)
        a = dist_from_map(part, comm, {(0, 1): 2})
        b = dist_from_map(part, comm, {(1, 0): 3})
        return summa_static(comm, a, b, PLUS_TIMES_I64).global_entries()

    assert gather_maps(spmd_collect(2, worker)) == {(0, 0): 6}


@pytest.mark.parametrize("q", [1, 2, 4])
def test_summa_random_matches_dense_oracle(q):
    n = 32
    rng = np.random.default_rng(q)
    a_map = random_map(rng, n, n, 0.15)
    b_map = random_map(rng, n, n, 0.15)

    def worker(comm):
        part = BlockPartition(n, n, comm.q)
        a = dist_from_map(part, comm, a_map)
        b = dist_from_map(part, comm, b_map)
        return summa_static(comm, a, b, PLUS_TIMES_I64).global_entries()

    got = gather_maps(spmd_collect(q, worker))
    da = np.zeros((n, n), dtype=np.int64)
    db = np.zeros((n, n), dtype=np.int64)
    for (i, j), v in a_map.items():
        da[i, j] = v
    for (i, j), v in b_map.items():
        db[i, j] = v
    dc = da @ db
    for (i, j), v in got.items():
        assert dc[i, j] == v
    for i, j in zip(*np.nonzero(dc)):
        assert (int(i), int(j)) in got


def test_summa_rectangular_dims():
    n, k, m = 9, 5, 7
    rng = np.random.default_rng(4)
    a_map = random_map(rng, n, k, 0.4)
    b_map = random_map(rng, k, m, 0.4)

    def worker(comm):
        a = dist_from_map(BlockPartition(n, k, comm.q), comm, a_map)
        b = dist_from_map(BlockPartition(k, m, comm.q), comm, b_map)
        c = summa_static(comm, a, b, PLUS_TIMES_I64)
        assert (c.part.n_rows, c.part.n_cols) == (n, m)
        return c.global_entries()

    got = gather_maps(spmd_collect(2, worker))
    assert got == oracle_product(a_map, b_map, PLUS_TIMES_I64)


def test_summa_rejects_dimension_mismatch():
    def worker(comm):
        a = dist_from_map(BlockPartition(4, 4, comm.q), comm, {})
        b = dist_from_map(BlockPartition(5, 4, comm.q), comm, {})
        summa_static(comm, a, b, PLUS_TIMES_I64)

    with pytest.raises(ValueError, match="inner dimensions"):
        spmd_collect(2, worker)


def test_summa_round_counts():
    def worker(comm):
        part = BlockPartition(8, 8, comm.q)
        a = dist_from_map(part, comm, _identity(8))
        b = dist_from_map(part, comm, _identity(8))
        before = comm.counters.snapshot()
        summa_static(comm, a, b, PLUS_TIMES_I64)
        after = comm.counters
        return (after.n_broadcasts - before.n_broadcasts,
                after.n_aggregates - before.n_aggregates,
                after.n_p2p_sends - before.n_p2p_sends)

    for q in (2, 4):
        for nb, na, np2p in spmd_collect(q, worker):
            assert nb == 2 * q
            assert na == 0
            assert np2p == 0


# -- init --------------------------------------------------------------------------

def test_init_empty_left_operand():
    def worker(comm):
        part = BlockPartition(6, 6, comm.q)
        a = DistMatrix.empty_dynamic(part, comm)
        b = dist_from_map(part, comm, {(0, 1): 5})
        st = spgemm_algebraic_init(comm, a, b, PLUS_TIMES_I64)
        return st.C.global_entries(), st.F.global_entries()

    for c_map, f_map in spmd_collect(2, worker):
        assert c_map == {} and f_map == {}


def test_init_rejects_bad_bitfield_width():
    def worker(comm):
        part = BlockPartition(4, 4, comm.q)
        a = DistMatrix.empty_dynamic(part, comm)
        spgemm_algebraic_init(comm, a, a, PLUS_TIMES_I64, ell=12)

    with pytest.raises(ValueError, match="bitfield width"):
        spmd_collect(1, worker)


@pytest.mark.parametrize("ell", [8, 64])
def test_init_identity_sets_diagonal_bits(ell):
    n = 12
    rng = np.random.default_rng(7)
    b_map = random_map(rng, n, n, 0.3)

    def worker(comm):
        part = BlockPartition(n, n, comm.q)
        a = dist_from_map(part, comm, _identity(n))
        b = dist_from_map(part, comm, b_map)
        st = spgemm_algebraic_init(comm, a, b, PLUS_TIMES_I64, ell=ell)
        return st.C.global_entries(), st.F.global_entries()

    out = spmd_collect(2, worker)
    assert gather_maps([c for c, _ in out]) == b_map
    f_map = gather_maps([f for _, f in out])
    assert f_map == {(i, j): 1 << (i % ell) for (i, j) in b_map}


def test_init_bitfields_match_brute_force():
    n = 16
    rng = np.random.default_rng(9)
    a_map = random_map(rng, n, n, 0.2)
    b_map = random_map(rng, n, n, 0.2)

    def worker(comm):
        part = BlockPartition(n, n, comm.q)
        a = dist_from_map(part, comm, a_map)
        b = dist_from_map(part, comm, b_map)
        st = spgemm_algebraic_init(comm, a, b, PLUS_TIMES_I64, ell=8)
        return st.F.global_entries()

    want = oracle_contribution_bits(a_map, b_map, 8)
    for q in (1, 2):
        assert gather_maps(spmd_collect(q, worker)) == want


# -- algebraic updates ----------------------------------------------------------------

def test_algebraic_no_op_update_only_moves_headers():
    n = 8
    rng = np.random.default_rng(11)
    a_map = random_map(rng, n, n, 0.3)
    b_map = random_map(rng, n, n, 0.3)

    def worker(comm):
        part = BlockPartition(n, n, comm.q)
        a = dist_from_map(part, comm, a_map)
        b = dist_from_map(part, comm, b_map)
        st = spgemm_algebraic_init(comm, a, b, PLUS_TIMES_I64)
        empty = update_from_map(part, comm, {})
        before = comm.counters.snapshot()
        spgemm_algebraic_update(comm, st, a, empty, b, empty)
        delta_bytes = comm.counters.bytes_broadcast - before.bytes_broadcast
        return st.C.global_entries(), delta_bytes

    out = spmd_collect(2, worker)
    assert gather_maps([c for c, _ in out]) == oracle_product(a_map, b_map,
                                                              PLUS_TIMES_I64)
    empty_wire = len(dcsr_serialize(DcsrBlock.empty(4, 4),
                                    semiring_codec(PLUS_TIMES_I64)))
    for _, delta_bytes in out:
        # per rank: 2q broadcasts of value-free block skeletons, nothing else
        assert delta_bytes == 2 * 2 * empty_wire


def test_algebraic_hand_example():
    # identity left operand, diagonal right; one inserted left entry
    n = 4
    a_map = _identity(n)
    b_map = {(0, 0): 1, (1, 1): 3, (2, 2): 1, (3, 3): 1}
    a_delta = {(0, 1): 2}

    def worker(comm):
        part = BlockPartition(n, n, comm.q)
        a = dist_from_map(part, comm, a_map)
        b = dist_from_map(part, comm, b_map)
        st = spgemm_algebraic_init(comm, a, b, PLUS_TIMES_I64)
        d_a = update_from_map(part, comm, a_delta)
        d_b = update_from_map(part, comm, {})
        # right operand unchanged, so b is already "after the batch"
        spgemm_algebraic_update(comm, st, a, d_a, b, d_b)
        return st.C.global_entries()

    got = gather_maps(spmd_collect(2, worker))
    assert got == {(0, 0): 1, (1, 1): 3, (2, 2): 1, (3, 3): 1, (0, 1): 6}


@pytest.mark.parametrize("q", [1, 2, 4])
@pytest.mark.parametrize("sr", [PLUS_TIMES_I64, PLUS_TIMES_F64],
                         ids=lambda s: s.name)
def test_algebraic_random_updates_match_static_recompute(q, sr):
    n = 32
    rng = np.random.default_rng(13 + q)
    a_map = random_map(rng, n, n, 0.1)
    b_map = random_map(rng, n, n, 0.1)
    batches = []
    cur_a, cur_b = dict(a_map), dict(b_map)
    for _ in range(4):
        da = hypersparse_delta(rng, cur_a, n, n, sr)
        db = hypersparse_delta(rng, cur_b, n, n, sr)
        batches.append((da, db))
        cur_a = apply_delta(cur_a, da, sr)
        cur_b = apply_delta(cur_b, db, sr)

    def worker(comm):
        part = BlockPartition(n, n, comm.q)
        a = dist_from_map(part, comm, a_map)
        b = dist_from_map(part, comm, b_map)
        st = spgemm_algebraic_init(comm, a, b, sr)
        results = []
        for da, db in batches:
            d_a = update_from_map(part, comm, da)
            d_b = update_from_map(part, comm, db)
            add_into(b.block, d_b.block, sr.add)     # b becomes b-after
            spgemm_algebraic_update(comm, st, a, d_a, b, d_b)
            add_into(a.block, d_a.block, sr.add)     # now a catches up
            static = summa_static(comm, a, b, sr)
            assert st.C.block.entry_map() == static.block.entry_map()
            results.append(st.C.global_entries())
        return results

    out = spmd_collect(q, worker)
    cur_a, cur_b = dict(a_map), dict(b_map)
    for bi, (da, db) in enumerate(batches):
        cur_a = apply_delta(cur_a, da, sr)
        cur_b = apply_delta(cur_b, db, sr)
        got = gather_maps([res[bi] for res in out])
        assert got == oracle_product(cur_a, cur_b, sr)


def test_algebraic_update_round_counts():
    n = 12

    def worker(comm):
        part = BlockPartition(n, n, comm.q)
        a = dist_from_map(part, comm, _identity(n))
        b = dist_from_map(part, comm, _identity(n))
        st = spgemm_algebraic_init(comm, a, b, PLUS_TIMES_I64)
        d = update_from_map(part, comm, {(0, 1): 4})
        before = comm.counters.snapshot()
        spgemm_algebraic_update(comm, st, a, d, b, update_from_map(part, comm, {}))
        c = comm.counters
        return (c.n_broadcasts - before.n_broadcasts,
                c.n_aggregates - before.n_aggregates,
                c.n_p2p_sends - before.n_p2p_sends,
                c.n_p2p_recvs - before.n_p2p_recvs)

    for q in (2, 4):
        for nb, na, ns, nr in spmd_collect(q, worker):
            assert nb == 2 * q
            assert na == 2 * q
            assert (ns, nr) == (2, 2)


@pytest.mark.parametrize("ta", [False, True])
@pytest.mark.parametrize("tb", [False, True])
@pytest.mark.parametrize("q", [1, 2])
def test_algebraic_transposed_updates_match_oracle(ta, tb, q):
    n, k, m = 8, 6, 9    # logical product is n x k times k x m
    rng = np.random.default_rng(17 + 4 * ta + 2 * tb + q)
    a_shape = (k, n) if ta else (n, k)
    b_shape = (m, k) if tb else (k, m)
    a0 = random_map(rng, *a_shape, 0.25)
    b0 = random_map(rng, *b_shape, 0.25)
    da = hypersparse_delta(rng, a0, *a_shape, PLUS_TIMES_I64)
    db = hypersparse_delta(rng, b0, *b_shape, PLUS_TIMES_I64)
    a1 = apply_delta(a0, da, PLUS_TIMES_I64)
    b1 = apply_delta(b0, db, PLUS_TIMES_I64)

    def logical(m_, t):
        return transpose_map(m_) if t else m_

    c0 = oracle_product(logical(a0, ta), logical(b0, tb), PLUS_TIMES_I64)
    want = oracle_product(logical(a1, ta), logical(b1, tb), PLUS_TIMES_I64)

    def worker(comm):
        part_a = BlockPartition(*a_shape, comm.q)
        part_b = BlockPartition(*b_shape, comm.q)
        part_c = BlockPartition(n, m, comm.q)
        a = dist_from_map(part_a, comm, a0)
        b = dist_from_map(part_b, comm, b1)     # right operand after the batch
        c = dist_from_map(part_c, comm, c0)
        st = SpgemmState(C=c, F=None, sr=PLUS_TIMES_I64, ell=64,
                         transpose_a=ta, transpose_b=tb)
        spgemm_algebraic_update(comm, st, a,
                                update_from_map(part_a, comm, da), b,
                                update_from_map(part_b, comm, db))
        return st.C.global_entries()

    assert gather_maps(spmd_collect(q, worker)) == want


def test_algebraic_rejects_non_update_deltas():
    def worker(comm):
        part = BlockPartition(4, 4, comm.q)
        a = dist_from_map(part, comm, {})
        b = dist_from_map(part, comm, {})
        st = spgemm_algebraic_init(comm, a, b, PLUS_TIMES_I64)
        bad = dist_from_map(part, comm, {})   # a dynamic block
        spgemm_algebraic_update(comm, st, a, bad, b, bad)

    with pytest.raises(ValueError, match="update-role"):
        spmd_collect(1, worker)


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("da, db, match", [
    # min-plus has no additive inverse, so folding the new value in would
    # leave C(0,0) = 2.0 where the recompute gives 6.0
    ({(0, 0): 5.0}, {}, r"\(0, 0\)"),
    ({}, {(1, 1): 2.0}, "b_delta"),
], ids=["overwrite", "right_delta"])
def test_algebraic_non_ring_rejects_non_inserts(q, da, db, match):
    def worker(comm):
        part = BlockPartition(4, 4, comm.q)
        a = dist_from_map(part, comm, {(0, 0): 1.0})
        b = dist_from_map(part, comm, {(0, 0): 1.0})
        st = spgemm_algebraic_init(comm, a, b, MIN_PLUS)
        spgemm_algebraic_update(comm, st, a, update_from_map(part, comm, da),
                                b, update_from_map(part, comm, db))

    with pytest.raises(UnsupportedFeatureError, match=match):
        spmd_collect(q, worker)


@pytest.mark.parametrize("q", [1, 2])
def test_algebraic_non_ring_inserts_match_oracle(q):
    n = 12
    rng = np.random.default_rng(91 + q)
    a0 = random_map(rng, n, n, 0.15, values="float")
    b0 = random_map(rng, n, n, 0.2, values="float")
    free = [p for p in np.ndindex(n, n) if p not in a0]
    picks = rng.choice(len(free), size=12, replace=False)
    batches = [{free[k]: float(rng.integers(1, 21)) for k in picks[s:s + 4]}
               for s in (0, 4, 8)]

    def worker(comm):
        part = BlockPartition(n, n, comm.q)
        a = dist_from_map(part, comm, a0)
        b = dist_from_map(part, comm, b0)
        st = spgemm_algebraic_init(comm, a, b, MIN_PLUS)
        for batch in batches:
            d_a = update_from_map(part, comm, batch)
            spgemm_algebraic_update(comm, st, a, d_a, b,
                                    update_from_map(part, comm, {}))
            add_into(a.block, d_a.block, MIN_PLUS.add)
        return st.C.global_entries()

    a_final = {**a0, **batches[0], **batches[1], **batches[2]}
    assert gather_maps(spmd_collect(q, worker)) == oracle_product(a_final, b0,
                                                                  MIN_PLUS)


def test_algebraic_rejects_shape_mismatch():
    def worker(comm):
        part = BlockPartition(4, 4, comm.q)
        part5 = BlockPartition(5, 5, comm.q)
        a = dist_from_map(part, comm, {})
        b = dist_from_map(part, comm, {})
        st = spgemm_algebraic_init(comm, a, b, PLUS_TIMES_I64)
        a5 = dist_from_map(part5, comm, {})
        spgemm_algebraic_update(comm, st, a5, update_from_map(part5, comm, {}),
                                b, update_from_map(part, comm, {}))

    with pytest.raises(ValueError, match="inner dimensions"):
        spmd_collect(1, worker)


# -- pattern discovery -------------------------------------------------------------

def test_compute_pattern_empty_updates():
    n = 6

    def worker(comm):
        part = BlockPartition(n, n, comm.q)
        a = dist_from_map(part, comm, _identity(n))
        empty = update_from_map(part, comm, {}, structure_only=True)
        touched, new_bits = compute_pattern(comm, a, empty, a, empty, a)
        return touched.nnz, new_bits.nnz

    for t_nnz, b_nnz in spmd_collect(2, worker):
        assert t_nnz == 0 and b_nnz == 0


def test_compute_pattern_hand_example():
    # one changed left entry (0,1); right rows 1 holds columns {0, 2}
    n = 3
    b_map = {(1, 0): 5, (1, 2): 7}

    def worker(comm):
        part = BlockPartition(n, n, comm.q)
        a = DistMatrix.empty_dynamic(part, comm)
        a_prime = dist_from_map(part, comm, {(0, 1): 2})
        b = dist_from_map(part, comm, b_map)
        d_a = update_from_map(part, comm, {(0, 1): None}, structure_only=True)
        d_b = update_from_map(part, comm, {}, structure_only=True)
        touched, new_bits = compute_pattern(comm, a, d_a, b, d_b, a_prime)
        to_global = part.to_global
        i, j = comm.grid_row, comm.grid_col
        return ({to_global(i, j, r, c) for (r, c) in touched.positions()},
                {to_global(i, j, r, c): v for (r, c), v in
                 new_bits.entry_map().items()})

    out = spmd_collect(1, worker)
    positions = set().union(*(p for p, _ in out))
    bits = gather_maps([b for _, b in out])
    assert positions == {(0, 0), (0, 2)}
    assert bits == {(0, 0): 1 << 1, (0, 2): 1 << 1}


def test_compute_pattern_right_side_term():
    # unchanged left a' has (0,1); right delta inserts (1,2)
    n = 4

    def worker(comm):
        part = BlockPartition(n, n, comm.q)
        a = dist_from_map(part, comm, {(0, 1): 3})
        b = dist_from_map(part, comm, {(1, 2): 9})
        d_a = update_from_map(part, comm, {}, structure_only=True)
        d_b = update_from_map(part, comm, {(1, 2): None}, structure_only=True)
        touched, new_bits = compute_pattern(comm, a, d_a, b, d_b, a)
        to_global = part.to_global
        i, j = comm.grid_row, comm.grid_col
        return ({to_global(i, j, r, c) for (r, c) in touched.positions()},
                {to_global(i, j, r, c): v for (r, c), v in
                 new_bits.entry_map().items()})

    for q in (1, 2):
        out = spmd_collect(q, worker)
        positions = set().union(*(p for p, _ in out))
        bits = gather_maps([b for _, b in out])
        assert positions == {(0, 2)}
        assert bits == {(0, 2): 1 << 1}


@pytest.mark.parametrize("q", [1, 2])
def test_compute_pattern_matches_structural_oracle(q):
    n = 20
    rng = np.random.default_rng(23 + q)
    a0 = random_map(rng, n, n, 0.15, values="float")
    b0 = random_map(rng, n, n, 0.15, values="float")
    a1, ch_a = mixed_general_batch(rng, a0, n, n)
    b1, ch_b = mixed_general_batch(rng, b0, n, n)
    ell = 8

    # structural oracle over global maps
    da_struct = {p: 1 for p in ch_a}
    db_struct = {p: 1 for p in ch_b}
    touch_want = set(oracle_product(da_struct, {p: 1 for p in b1},
                                    PLUS_TIMES_I64)) | \
        set(oracle_product({p: 1 for p in a0}, db_struct, PLUS_TIMES_I64))
    bits_new = oracle_contribution_bits(da_struct, {p: 1 for p in b1}, ell)
    bits_cur = oracle_contribution_bits({p: 1 for p in a1}, db_struct, ell)
    bits_want: dict = {}
    for m in (bits_new, bits_cur):
        for p, v in m.items():
            bits_want[p] = bits_want.get(p, 0) | v

    def worker(comm):
        part = BlockPartition(n, n, comm.q)
        a = dist_from_map(part, comm, a0)
        a_prime = dist_from_map(part, comm, a1)
        b_prime = dist_from_map(part, comm, b1)
        d_a = update_from_map(part, comm, {p: None for p in ch_a},
                              structure_only=True)
        d_b = update_from_map(part, comm, {p: None for p in ch_b},
                              structure_only=True)
        touched, new_bits = compute_pattern(comm, a, d_a, b_prime, d_b,
                                            a_prime, ell=ell)
        to_global = part.to_global
        i, j = comm.grid_row, comm.grid_col
        return ({to_global(i, j, r, c) for (r, c) in touched.positions()},
                {to_global(i, j, r, c): v for (r, c), v in
                 new_bits.entry_map().items()})

    out = spmd_collect(q, worker)
    positions = set().union(*(p for p, _ in out))
    assert positions == touch_want
    got_bits = gather_maps([b for _, b in out])
    # bits are reported wherever the batch contributes; restricted to touched
    assert {p: v for p, v in got_bits.items() if p in touch_want} == \
        {p: v for p, v in bits_want.items() if p in touch_want}


# -- general updates ------------------------------------------------------------------

@pytest.mark.parametrize("q", [1, 2])
def test_general_hand_example(q):
    # dense 2x2 tropical instance; one non-algebraic increase at a(0,0)
    a0 = {(0, 0): 1.0, (0, 1): 2.0, (1, 0): 3.0, (1, 1): 4.0}
    b0 = {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 1.0}
    a1 = {**a0, (0, 0): 5.0}

    def worker(comm):
        part = BlockPartition(2, 2, comm.q)
        a = dist_from_map(part, comm, a0)
        b = dist_from_map(part, comm, b0)
        st = spgemm_algebraic_init(comm, a, b, MIN_PLUS)
        full = {(0, 0): 2.0, (0, 1): 2.0, (1, 0): 4.0, (1, 1): 4.0}
        assert all(full[p] == v for p, v in st.C.global_entries().items())
        a_prime = dist_from_map(part, comm, a1)
        d_a = update_from_map(part, comm, {(0, 0): None}, structure_only=True)
        d_b = update_from_map(part, comm, {}, structure_only=True)
        stats = spgemm_general_update(comm, st, a_prime, d_a, b, d_b, a)
        return st.C.global_entries(), stats

    out = spmd_collect(q, worker)
    got = gather_maps([c for c, _ in out])
    assert got == {(0, 0): 3.0, (0, 1): 3.0, (1, 0): 4.0, (1, 1): 4.0}
    assert sum(s["n_touched"] for _, s in out) == 2
    assert sum(s["n_recomputed"] for _, s in out) == 2
    assert sum(s["n_deleted"] for _, s in out) == 0


@pytest.mark.parametrize("q", [1, 2, 4])
def test_general_random_updates_match_static_recompute(q):
    n = 24
    rng = np.random.default_rng(31 + q)
    a0 = random_map(rng, n, n, 0.12, values="float")
    b0 = random_map(rng, n, n, 0.12, values="float")
    batches = []
    cur_a, cur_b = dict(a0), dict(b0)
    for _ in range(3):
        a1, ch_a = mixed_general_batch(rng, cur_a, n, n)
        b1, ch_b = mixed_general_batch(rng, cur_b, n, n)
        batches.append((a1, ch_a, b1, ch_b))
        cur_a, cur_b = a1, b1

    def worker(comm):
        part = BlockPartition(n, n, comm.q)
        prev_a, prev_b = a0, b0
        a = dist_from_map(part, comm, prev_a)
        b = dist_from_map(part, comm, prev_b)
        st = spgemm_algebraic_init(comm, a, b, MIN_PLUS, ell=8)
        per_batch = []
        for a1, ch_a, b1, ch_b in batches:
            a_mat = dist_from_map(part, comm, prev_a)
            a_prime = dist_from_map(part, comm, a1)
            b_prime = dist_from_map(part, comm, b1)
            d_a = update_from_map(part, comm, {p: None for p in ch_a},
                                  structure_only=True)
            d_b = update_from_map(part, comm, {p: None for p in ch_b},
                                  structure_only=True)
            before = st.C.global_entries()
            touched, _ = compute_pattern(comm, a_mat, d_a, b_prime, d_b,
                                         a_prime, ell=8)
            stats = spgemm_general_update(comm, st, a_prime, d_a, b_prime,
                                          d_b, a_mat)
            static = summa_static(comm, a_prime, b_prime, MIN_PLUS)
            assert st.C.block.entry_map() == static.block.entry_map()
            to_global = part.to_global
            i, j = comm.grid_row, comm.grid_col
            touched_g = {to_global(i, j, r, c)
                         for (r, c) in touched.positions()}
            per_batch.append((before, st.C.global_entries(), touched_g, stats))
            prev_a, prev_b = a1, b1
        return per_batch

    out = spmd_collect(q, worker)
    cur_a, cur_b = dict(a0), dict(b0)
    for bi, (a1, ch_a, b1, ch_b) in enumerate(batches):
        got = gather_maps([res[bi][1] for res in out])
        assert got == oracle_product(a1, b1, MIN_PLUS)
        # delta containment: every changed product position was predicted
        before = gather_maps([res[bi][0] for res in out])
        touched = set().union(*(res[bi][2] for res in out))
        changed = ({p for p in before.keys() ^ got.keys()}
                   | {p for p in before.keys() & got.keys()
                      if before[p] != got[p]})
        assert changed <= touched
        for res in out:
            stats = res[bi][3]
            assert set(stats) == {"n_touched", "n_recomputed", "n_deleted",
                                  "nnz_filtered"}
            assert stats["n_recomputed"] + stats["n_deleted"] <= stats["n_touched"]


def test_general_deletion_drops_product_entries():
    # remove the only contribution to (0,0); the product entry must vanish
    a0 = {(0, 1): 2.0}
    b0 = {(1, 0): 3.0}

    def worker(comm):
        part = BlockPartition(3, 3, comm.q)
        a = dist_from_map(part, comm, a0)
        b = dist_from_map(part, comm, b0)
        st = spgemm_algebraic_init(comm, a, b, MIN_PLUS)
        a_prime = DistMatrix.empty_dynamic(part, comm)
        d_a = update_from_map(part, comm, {(0, 1): None}, structure_only=True)
        d_b = update_from_map(part, comm, {}, structure_only=True)
        stats = spgemm_general_update(comm, st, a_prime, d_a, b, d_b, a)
        return st.C.global_entries(), st.F.global_entries(), stats

    out = spmd_collect(1, worker)
    c_map, f_map, stats = out[0]
    assert c_map == {} and f_map == {}
    assert stats["n_deleted"] == 1


def test_general_bloom_stays_superset_after_chained_updates():
    n = 16
    ell = 8
    rng = np.random.default_rng(41)
    a0 = random_map(rng, n, n, 0.15, values="float")
    b0 = random_map(rng, n, n, 0.15, values="float")

    def worker(comm):
        part = BlockPartition(n, n, comm.q)
        prev_a, prev_b = a0, b0
        a = dist_from_map(part, comm, prev_a)
        b = dist_from_map(part, comm, prev_b)
        st = spgemm_algebraic_init(comm, a, b, MIN_PLUS, ell=ell)
        rng_w = np.random.default_rng(43)
        snapshots = []
        for _ in range(3):
            a1, ch_a = mixed_general_batch(rng_w, prev_a, n, n)
            b1, ch_b = mixed_general_batch(rng_w, prev_b, n, n)
            spgemm_general_update(
                comm, st, dist_from_map(part, comm, a1),
                update_from_map(part, comm, {p: None for p in ch_a},
                                structure_only=True),
                dist_from_map(part, comm, b1),
                update_from_map(part, comm, {p: None for p in ch_b},
                                structure_only=True),
                dist_from_map(part, comm, prev_a))
            snapshots.append((a1, b1, st.F.global_entries()))
            prev_a, prev_b = a1, b1
        return snapshots

    out = spmd_collect(1, worker)
    for a1, b1, f_map in out[0]:
        needed = oracle_contribution_bits({p: 1 for p in a1},
                                          {p: 1 for p in b1}, ell)
        for pos, bits in needed.items():
            assert pos in f_map
            assert bits & ~f_map[pos] == 0, (pos, bin(bits), bin(f_map[pos]))


def test_general_rejects_transposed_state():
    def worker(comm):
        part = BlockPartition(4, 4, comm.q)
        a = dist_from_map(part, comm, {})
        b = dist_from_map(part, comm, {})
        st = spgemm_algebraic_init(comm, a, b, MIN_PLUS)
        st.transpose_a = True
        d = update_from_map(part, comm, {}, structure_only=True)
        spgemm_general_update(comm, st, a, d, b, d, a)

    with pytest.raises(UnsupportedFeatureError):
        spmd_collect(1, worker)


@pytest.mark.parametrize("q", [1, 2])
def test_general_after_algebraic_is_exact_or_raises(q):
    # An algebraic batch leaves the entry bitfields stale; a general batch
    # after it must then raise, or produce the from-scratch product.
    n = 10
    exact = raised = 0
    for idx in range(200):
        rng = np.random.default_rng(70_000 + idx)
        a0 = random_map(rng, n, n, 0.2, values="float")
        b0 = random_map(rng, n, n, 0.2, values="float")
        free = [p for p in np.ndindex(n, n) if p not in a0]
        picks = rng.choice(len(free), size=5, replace=False)
        inserted = {free[k]: float(rng.integers(1, 21)) for k in picks}
        a1 = {**a0, **inserted}
        gone = free[picks[0]]
        a2 = {p: v for p, v in a1.items() if p != gone}

        def worker(comm):
            part = BlockPartition(n, n, comm.q)
            a = dist_from_map(part, comm, a0)
            b = dist_from_map(part, comm, b0)
            st = spgemm_algebraic_init(comm, a, b, MIN_PLUS)
            spgemm_algebraic_update(comm, st, a,
                                    update_from_map(part, comm, inserted), b,
                                    update_from_map(part, comm, {}))
            spgemm_general_update(
                comm, st, dist_from_map(part, comm, a2),
                update_from_map(part, comm, {gone: None}, structure_only=True),
                b, update_from_map(part, comm, {}, structure_only=True),
                dist_from_map(part, comm, a1))
            return st.C.global_entries()

        try:
            got = gather_maps(spmd_collect(q, worker))
        except UnsupportedFeatureError:
            raised += 1
            continue
        assert got == oracle_product(a2, b0, MIN_PLUS), idx
        exact += 1
    assert exact + raised == 200


def test_general_empty_batch_changes_nothing():
    n = 10
    rng = np.random.default_rng(47)
    a0 = random_map(rng, n, n, 0.2, values="float")
    b0 = random_map(rng, n, n, 0.2, values="float")

    def worker(comm):
        part = BlockPartition(n, n, comm.q)
        a = dist_from_map(part, comm, a0)
        b = dist_from_map(part, comm, b0)
        st = spgemm_algebraic_init(comm, a, b, MIN_PLUS)
        c_before = st.C.global_entries()
        f_before = st.F.global_entries()
        d = update_from_map(part, comm, {}, structure_only=True)
        stats = spgemm_general_update(comm, st, a, d, b, d, a)
        assert stats == {"n_touched": 0, "n_recomputed": 0, "n_deleted": 0,
                         "nnz_filtered": 0}
        return st.C.global_entries() == c_before and \
            st.F.global_entries() == f_before

    assert all(spmd_collect(2, worker))


# -- distributed matrix plumbing ---------------------------------------------------

def test_dist_matrix_from_triples_keeps_owned_entries():
    rng = np.random.default_rng(53)
    m = random_map(rng, 10, 10, 0.3)

    def worker(comm):
        part = BlockPartition(10, 10, comm.q)
        d = DistMatrix.from_triples(part, comm,
                                    [(i, j, v) for (i, j), v in m.items()])
        br, bc = part.block_shape(comm.grid_row, comm.grid_col)
        assert isinstance(d.block, DynamicBlock)
        assert (d.block.n_rows, d.block.n_cols) == (br, bc)
        return d.global_entries()

    assert gather_maps(spmd_collect(2, worker)) == m


def test_min_plus_identity_zero_is_infinity():
    # sanity for tropical runs: additive identity entries act as absences
    def worker(comm):
        part = BlockPartition(2, 2, comm.q)
        a = dist_from_map(part, comm, {(0, 0): 0.0, (0, 1): math.inf})
        b = dist_from_map(part, comm, {(0, 0): 4.0, (1, 0): 1.0})
        return summa_static(comm, a, b, MIN_PLUS).global_entries()

    got = gather_maps(spmd_collect(1, worker))
    # inf entry is structural: it contributes min(0+4, inf+1) = 4 at (0,0)
    assert got == {(0, 0): 4.0}
