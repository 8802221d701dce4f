"""Distributed products: static baseline, algebraic and general updates."""

import dataclasses
import math
import operator
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynspgemm import (
    BOOLEAN,
    BlockPartition,
    DcsrBlock,
    DistMatrix,
    MIN_PLUS,
    PLUS_TIMES_F64,
    PLUS_TIMES_I64,
    Semiring,
    UnsupportedFeatureError,
    add_into,
    apply_batch,
    compute_pattern,
    dcsr_serialize,
    semiring_codec,
    spgemm_algebraic_init,
    spgemm_algebraic_update,
    spgemm_general_update,
    summa_static,
    update_batch,
)
from dynspgemm import distmm, storage
from dynspgemm.bench import _local_checksum
from helpers import (
    apply_delta,
    dist_from_map,
    entry_map,
    gather_maps,
    hypersparse_delta,
    mixed_general_batch,
    oracle_product,
    owner_coords,
    position_set,
    random_map,
    spmd_collect,
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
        a = dist_from_map(part, comm, _identity(n), PLUS_TIMES_I64)
        b = dist_from_map(part, comm, b_map, PLUS_TIMES_I64)
        return summa_static(comm, a, b, PLUS_TIMES_I64).global_entries()

    assert gather_maps(spmd_collect(2, worker)) == b_map


def test_summa_single_entry_product():
    def worker(comm):
        part = BlockPartition(4, 4, comm.q)
        a = dist_from_map(part, comm, {(0, 1): 2}, PLUS_TIMES_I64)
        b = dist_from_map(part, comm, {(1, 0): 3}, PLUS_TIMES_I64)
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
        a = dist_from_map(part, comm, a_map, PLUS_TIMES_I64)
        b = dist_from_map(part, comm, b_map, PLUS_TIMES_I64)
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
        a = dist_from_map(BlockPartition(n, k, comm.q), comm, a_map,
                          PLUS_TIMES_I64)
        b = dist_from_map(BlockPartition(k, m, comm.q), comm, b_map,
                          PLUS_TIMES_I64)
        c = summa_static(comm, a, b, PLUS_TIMES_I64)
        assert (c.part.n_rows, c.part.n_cols) == (n, m)
        return c.global_entries()

    got = gather_maps(spmd_collect(2, worker))
    assert got == oracle_product(a_map, b_map, PLUS_TIMES_I64)


def test_summa_rejects_dimension_mismatch():
    def worker(comm):
        a = dist_from_map(BlockPartition(4, 4, comm.q), comm, {}, PLUS_TIMES_I64)
        b = dist_from_map(BlockPartition(5, 4, comm.q), comm, {}, PLUS_TIMES_I64)
        summa_static(comm, a, b, PLUS_TIMES_I64)

    with pytest.raises(ValueError, match="inner dimensions"):
        spmd_collect(2, worker)


def test_summa_round_counts():
    def worker(comm):
        part = BlockPartition(8, 8, comm.q)
        a = dist_from_map(part, comm, _identity(8), PLUS_TIMES_I64)
        b = dist_from_map(part, comm, _identity(8), PLUS_TIMES_I64)
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


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("via_init", [False, True])
def test_static_product_adopts_round_zero(monkeypatch, q, via_init):
    """Round 0's kernel product is C as it stands: each rank merges q - 1
    products into C, through summa_static and spgemm_algebraic_init alike,
    and the result is the product."""
    n, k = 12, 80
    rng = np.random.default_rng(30 + q)
    a_map = random_map(rng, n, k, 0.3)
    b_map = random_map(rng, k, n, 0.3)
    calls = []
    real = distmm.add_into

    def counting(*args):
        calls.append(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(distmm, "add_into", counting)

    def worker(comm):
        a = dist_from_map(BlockPartition(n, k, comm.q), comm, a_map,
                          PLUS_TIMES_I64)
        b = dist_from_map(BlockPartition(k, n, comm.q), comm, b_map,
                          PLUS_TIMES_I64)
        c = (spgemm_algebraic_init(comm, a, b, PLUS_TIMES_I64).C if via_init
             else summa_static(comm, a, b, PLUS_TIMES_I64))
        return c.global_entries(), threading.get_ident()

    out = spmd_collect(q, worker)
    assert gather_maps([c for c, _ in out]) == oracle_product(
        a_map, b_map, PLUS_TIMES_I64)
    assert [calls.count(ident) for _, ident in out] == [q - 1] * (q * q)


# -- init --------------------------------------------------------------------------

def test_init_empty_left_operand():
    def worker(comm):
        part = BlockPartition(6, 6, comm.q)
        a = DistMatrix.empty(part, comm, PLUS_TIMES_I64)
        b = dist_from_map(part, comm, {(0, 1): 5}, PLUS_TIMES_I64)
        return spgemm_algebraic_init(comm, a, b, PLUS_TIMES_I64).C.global_entries()

    assert spmd_collect(2, worker) == [{}] * 4


def test_init_bitfields_match_brute_force():
    """Over 80 summation indices the init's state is the brute-force
    product C and its semiring, with no per-entry bitfield beside C."""
    n, k = 16, 80
    rng = np.random.default_rng(9)
    a_map = random_map(rng, n, k, 0.2)
    b_map = random_map(rng, k, n, 0.2)

    def worker(comm):
        a = dist_from_map(BlockPartition(n, k, comm.q), comm, a_map,
                          PLUS_TIMES_I64)
        b = dist_from_map(BlockPartition(k, n, comm.q), comm, b_map,
                          PLUS_TIMES_I64)
        st = spgemm_algebraic_init(comm, a, b, PLUS_TIMES_I64)
        assert [f.name for f in dataclasses.fields(st)] == ["C", "sr"]
        assert st.sr is PLUS_TIMES_I64
        return st.C.global_entries()

    want = oracle_product(a_map, b_map, PLUS_TIMES_I64)
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
        a = dist_from_map(part, comm, a_map, PLUS_TIMES_I64)
        b = dist_from_map(part, comm, b_map, PLUS_TIMES_I64)
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
        a = dist_from_map(part, comm, a_map, PLUS_TIMES_I64)
        b = dist_from_map(part, comm, b_map, PLUS_TIMES_I64)
        st = spgemm_algebraic_init(comm, a, b, PLUS_TIMES_I64)
        d_a = update_from_map(part, comm, a_delta)
        d_b = update_from_map(part, comm, {})
        # right operand unchanged, so b is already "after the batch"
        spgemm_algebraic_update(comm, st, a, d_a, b, d_b)
        return st.C.global_entries()

    got = gather_maps(spmd_collect(2, worker))
    assert got == {(0, 0): 1, (1, 1): 3, (2, 2): 1, (3, 3): 1, (0, 1): 6}


def _wrap_i64(v: int) -> int:
    return (v + 2**63) % 2**64 - 2**63


@pytest.mark.parametrize("q", [1, 2])
def test_plus_times_i64_wraps_modulo_2_64(q):
    # Sums and products past 2**63 wrap as numpy int64 does. Reduction
    # modulo 2**64 preserves ring arithmetic, so the maintained product
    # still equals the recompute, and the checksum reads it.
    n = 6
    big = 2**62 + 12345
    a_map = {(i, k): big + i for i in range(n) for k in range(n)
             if (i + k) % 2 == 0}
    b_map = {(k, j): 3 + k for k in range(n) for j in range(n)
             if (k + 2 * j) % 3 != 1}
    a_delta = {(0, 1): big, (3, 2): -big}   # two inserts
    a_after = apply_delta(a_map, a_delta, PLUS_TIMES_I64)
    exact = oracle_product(a_after, b_map, PLUS_TIMES_I64)
    assert max(abs(v) for v in exact.values()) >= 2**63

    def worker(comm):
        part = BlockPartition(n, n, comm.q)
        a = dist_from_map(part, comm, a_map, PLUS_TIMES_I64)
        b = dist_from_map(part, comm, b_map, PLUS_TIMES_I64)
        st = spgemm_algebraic_init(comm, a, b, PLUS_TIMES_I64)
        d_a = update_from_map(part, comm, a_delta)
        d_b = update_from_map(part, comm, {})
        spgemm_algebraic_update(comm, st, a, d_a, b, d_b)
        add_into(a.block, d_a.block, PLUS_TIMES_I64.np_add)
        static = summa_static(comm, a, b, PLUS_TIMES_I64)
        _local_checksum(st.C, PLUS_TIMES_I64)
        return st.C.global_entries(), static.global_entries()

    out = spmd_collect(q, worker)
    want = {p: _wrap_i64(v) for p, v in exact.items()}
    assert gather_maps([c for c, _ in out]) == want
    assert gather_maps([s for _, s in out]) == want


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
        a = dist_from_map(part, comm, a_map, sr)
        b = dist_from_map(part, comm, b_map, sr)
        st = spgemm_algebraic_init(comm, a, b, sr)
        results = []
        for da, db in batches:
            d_a = update_from_map(part, comm, da)
            d_b = update_from_map(part, comm, db)
            add_into(b.block, d_b.block, sr.np_add)     # b becomes b-after
            spgemm_algebraic_update(comm, st, a, d_a, b, d_b)
            add_into(a.block, d_a.block, sr.np_add)     # now a catches up
            static = summa_static(comm, a, b, sr)
            assert entry_map(st.C.block) == entry_map(static.block)
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
        a = dist_from_map(part, comm, _identity(n), PLUS_TIMES_I64)
        b = dist_from_map(part, comm, _identity(n), PLUS_TIMES_I64)
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


def test_general_update_round_counts():
    """One general update costs per rank exactly 4q + 1 broadcasts (2q for
    the pattern, one for the touched rows, 2q for the recompute), 3q + 1
    aggregations (2q structures, the touched rows, q blocks of Z) and 3
    pairwise exchanges each way (a_delta, b_delta, the filtered rows of
    a_prime)."""
    n = 12

    def worker(comm):
        part = BlockPartition(n, n, comm.q)
        a = dist_from_map(part, comm, _identity(n), MIN_PLUS)
        b = dist_from_map(part, comm, _identity(n), MIN_PLUS)
        st = spgemm_algebraic_init(comm, a, b, MIN_PLUS)
        a_prime = dist_from_map(part, comm, {**_identity(n), (0, 1): 4},
                                MIN_PLUS)
        d_a = update_from_map(part, comm, {(0, 1): None}, structure_only=True)
        d_b = update_from_map(part, comm, {}, structure_only=True)
        before = comm.counters.snapshot()
        spgemm_general_update(comm, st, a_prime, d_a, b, d_b, a)
        c = comm.counters
        return (c.n_broadcasts - before.n_broadcasts,
                c.n_aggregates - before.n_aggregates,
                c.n_p2p_sends - before.n_p2p_sends,
                c.n_p2p_recvs - before.n_p2p_recvs)

    for q in (2, 4):
        for nb, na, ns, nr in spmd_collect(q, worker):
            assert nb == 4 * q + 1
            assert na == 3 * q + 1
            assert (ns, nr) == (3, 3)


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
        a = dist_from_map(part, comm, {(0, 0): 1.0}, MIN_PLUS)
        b = dist_from_map(part, comm, {(0, 0): 1.0}, MIN_PLUS)
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
        a = dist_from_map(part, comm, a0, MIN_PLUS)
        b = dist_from_map(part, comm, b0, MIN_PLUS)
        st = spgemm_algebraic_init(comm, a, b, MIN_PLUS)
        for batch in batches:
            d_a = update_from_map(part, comm, batch)
            spgemm_algebraic_update(comm, st, a, d_a, b,
                                    update_from_map(part, comm, {}))
            add_into(a.block, d_a.block, MIN_PLUS.np_add)
        return st.C.global_entries()

    a_final = {**a0, **batches[0], **batches[1], **batches[2]}
    assert gather_maps(spmd_collect(q, worker)) == oracle_product(a_final, b0,
                                                                  MIN_PLUS)


def test_user_built_semiring_folds_with_its_own_ufunc():
    # max-plus is in no registry: every merge and aggregation must fold with
    # the np_add it carries
    max_plus = Semiring(name="max-plus", add=max, mul=operator.add,
                        zero=-math.inf, one=0.0, is_ring=False,
                        np_dtype=np.dtype("<f8"), np_add=np.maximum,
                        np_mul=np.add)
    n = 10
    rng = np.random.default_rng(17)
    a0 = random_map(rng, n, n, 0.25, values="float")
    b0 = random_map(rng, n, n, 0.25, values="float")
    free = [p for p in np.ndindex(n, n) if p not in a0]
    inserts = {free[k]: float(rng.integers(1, 21))
               for k in rng.choice(len(free), size=5, replace=False)}
    gone, lowered = sorted(a0)[:2]
    a1 = {**a0, **inserts, lowered: a0[lowered] - 7.0}
    del a1[gone]

    def worker(comm):
        part = BlockPartition(n, n, comm.q)
        a = dist_from_map(part, comm, a0, max_plus)
        b = dist_from_map(part, comm, b0, max_plus)
        static = summa_static(comm, a, b, max_plus).global_entries()
        st = spgemm_algebraic_init(comm, a, b, max_plus)
        spgemm_algebraic_update(comm, st, a,
                                update_from_map(part, comm, inserts), b,
                                update_from_map(part, comm, {}))
        algebraic = st.C.global_entries()
        st = spgemm_algebraic_init(comm, a, b, max_plus)
        a_prime = dist_from_map(part, comm, a1, max_plus)
        d_a = update_from_map(part, comm, {p: None for p in
                                           (gone, lowered, *inserts)},
                              structure_only=True)
        d_b = update_from_map(part, comm, {}, structure_only=True)
        spgemm_general_update(comm, st, a_prime, d_a, b, d_b, a)
        return static, algebraic, st.C.global_entries()

    out = spmd_collect(2, worker)
    assert gather_maps(o[0] for o in out) == oracle_product(a0, b0, max_plus)
    assert gather_maps(o[1] for o in out) == \
        oracle_product({**a0, **inserts}, b0, max_plus)
    assert gather_maps(o[2] for o in out) == oracle_product(a1, b0, max_plus)


@pytest.mark.parametrize("dtype", ["<u1", "<u4"])
@pytest.mark.parametrize("q", [1, 2])
def test_unsigned_user_semiring_matches_brute_force(q, dtype):
    # max-min over an unsigned dtype is in no registry: its values must load,
    # travel and fold as that dtype, not as 0/1 bytes
    top = int(np.iinfo(dtype).max)
    max_min = Semiring(name=f"max-min-{dtype}", add=max, mul=min, zero=0,
                       one=top, is_ring=False, np_dtype=np.dtype(dtype),
                       np_add=np.maximum, np_mul=np.minimum)
    n = 12
    rng = np.random.default_rng(29)
    a_map, b_map = ({(int(f // n), int(f % n)): int(v) for f, v in zip(
        rng.choice(n * n, size=40, replace=False),
        rng.integers(1, top, size=40, endpoint=True))} for _ in range(2))

    def worker(comm):
        part = BlockPartition(n, n, comm.q)
        a = DistMatrix.from_triples(
            part, comm, [(i, j, v) for (i, j), v in a_map.items()], max_min)
        b = DistMatrix.from_triples(
            part, comm, [(i, j, v) for (i, j), v in b_map.items()], max_min)
        assert a.block.vals.dtype == np.dtype(dtype)
        return summa_static(comm, a, b, max_min).global_entries()

    got = gather_maps(spmd_collect(q, worker))
    want = {}
    for (i, k), av in a_map.items():
        for (k2, j), bv in b_map.items():
            if k == k2:
                want[i, j] = max(want.get((i, j), 0), min(av, bv))
    assert got == want
    assert len(set(want.values())) > 2


def test_algebraic_rejects_shape_mismatch():
    """Refused before any communication: a left operand of another inner
    dimension, and (on a 2x2 grid) a right operand partitioned for a 1x1
    grid, whose local blocks would otherwise fail mid-schedule naming local
    block sizes."""
    def worker(comm, mismatch):
        part = BlockPartition(4, 4, comm.q)
        a = dist_from_map(part, comm, {}, PLUS_TIMES_I64)
        b = dist_from_map(part, comm, {}, PLUS_TIMES_I64)
        st = spgemm_algebraic_init(comm, a, b, PLUS_TIMES_I64)
        d_a = d_b = update_from_map(part, comm, {})
        if mismatch == "inner":
            part5 = BlockPartition(5, 5, comm.q)
            a = dist_from_map(part5, comm, {}, PLUS_TIMES_I64)
            d_a = update_from_map(part5, comm, {})
        else:
            b = DistMatrix(BlockPartition(4, 4, 1), comm.grid_row,
                           comm.grid_col, DcsrBlock.empty(4, 4, dtype=np.int64))
        before = comm.counters.snapshot()
        try:
            spgemm_algebraic_update(comm, st, a, d_a, b, d_b)
        finally:
            assert comm.counters == before

    with pytest.raises(ValueError, match="inner dimensions differ: 5 vs 4"):
        spmd_collect(1, worker, "inner")
    with pytest.raises(ValueError,
                       match="operand partitions do not match the grid"):
        spmd_collect(2, worker, "grid")


# -- pattern discovery -------------------------------------------------------------

def test_compute_pattern_empty_updates():
    n = 6

    def worker(comm):
        part = BlockPartition(n, n, comm.q)
        a = dist_from_map(part, comm, _identity(n), PLUS_TIMES_I64)
        empty = update_from_map(part, comm, {}, structure_only=True)
        touched = compute_pattern(comm, a, empty, a, empty)
        return touched.nnz, touched.vals

    assert spmd_collect(2, worker) == [(0, None)] * 4


def test_compute_pattern_hand_example():
    # one changed left entry (0,1); right rows 1 holds columns {0, 2}
    n = 3
    b_map = {(1, 0): 5, (1, 2): 7}

    def worker(comm):
        part = BlockPartition(n, n, comm.q)
        a = DistMatrix.empty(part, comm, PLUS_TIMES_I64)
        b = dist_from_map(part, comm, b_map, PLUS_TIMES_I64)
        d_a = update_from_map(part, comm, {(0, 1): None}, structure_only=True)
        d_b = update_from_map(part, comm, {}, structure_only=True)
        touched = compute_pattern(comm, a, d_a, b, d_b)
        to_global = part.to_global
        i, j = comm.grid_row, comm.grid_col
        return {to_global(i, j, r, c) for (r, c) in position_set(touched)}

    assert set().union(*spmd_collect(1, worker)) == {(0, 0), (0, 2)}


def test_compute_pattern_right_side_term():
    # unchanged left a' has (0,1); right delta inserts (1,2)
    n = 4

    def worker(comm):
        part = BlockPartition(n, n, comm.q)
        a = dist_from_map(part, comm, {(0, 1): 3}, PLUS_TIMES_I64)
        b = dist_from_map(part, comm, {(1, 2): 9}, PLUS_TIMES_I64)
        d_a = update_from_map(part, comm, {}, structure_only=True)
        d_b = update_from_map(part, comm, {(1, 2): None}, structure_only=True)
        touched = compute_pattern(comm, a, d_a, b, d_b)
        to_global = part.to_global
        i, j = comm.grid_row, comm.grid_col
        return {to_global(i, j, r, c) for (r, c) in position_set(touched)}

    for q in (1, 2):
        assert set().union(*spmd_collect(q, worker)) == {(0, 2)}


@pytest.mark.parametrize("q", [1, 2])
def test_compute_pattern_matches_structural_oracle(q):
    n, k = 20, 80
    rng = np.random.default_rng(23 + q)
    a0 = random_map(rng, n, k, 0.15, values="float")
    b0 = random_map(rng, k, n, 0.15, values="float")
    a1, ch_a = mixed_general_batch(rng, a0, n, k)
    b1, ch_b = mixed_general_batch(rng, b0, k, n)

    # structural oracle over global maps
    da_struct = {p: 1 for p in ch_a}
    db_struct = {p: 1 for p in ch_b}
    touch_want = set(oracle_product(da_struct, {p: 1 for p in b1},
                                    PLUS_TIMES_I64)) | \
        set(oracle_product({p: 1 for p in a0}, db_struct, PLUS_TIMES_I64))

    def worker(comm):
        part, part_b = BlockPartition(n, k, comm.q), BlockPartition(k, n, comm.q)
        a = dist_from_map(part, comm, a0, PLUS_TIMES_I64)
        b_prime = dist_from_map(part_b, comm, b1, PLUS_TIMES_I64)
        d_a = update_from_map(part, comm, {p: None for p in ch_a},
                              structure_only=True)
        d_b = update_from_map(part_b, comm, {p: None for p in ch_b},
                              structure_only=True)
        touched = compute_pattern(comm, a, d_a, b_prime, d_b)
        assert touched.vals is None
        to_global = BlockPartition(n, n, comm.q).to_global   # the product's
        i, j = comm.grid_row, comm.grid_col
        return {to_global(i, j, r, c) for (r, c) in position_set(touched)}

    assert set().union(*spmd_collect(q, worker)) == touch_want


# -- general updates ------------------------------------------------------------------

@pytest.mark.parametrize("q", [1, 2])
def test_general_hand_example(q):
    # dense 2x2 tropical instance; one non-algebraic increase at a(0,0)
    a0 = {(0, 0): 1.0, (0, 1): 2.0, (1, 0): 3.0, (1, 1): 4.0}
    b0 = {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 1.0}
    a1 = {**a0, (0, 0): 5.0}

    def worker(comm):
        part = BlockPartition(2, 2, comm.q)
        a = dist_from_map(part, comm, a0, MIN_PLUS)
        b = dist_from_map(part, comm, b0, MIN_PLUS)
        st = spgemm_algebraic_init(comm, a, b, MIN_PLUS)
        full = {(0, 0): 2.0, (0, 1): 2.0, (1, 0): 4.0, (1, 1): 4.0}
        assert all(full[p] == v for p, v in st.C.global_entries().items())
        a_prime = dist_from_map(part, comm, a1, MIN_PLUS)
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
        a = dist_from_map(part, comm, prev_a, MIN_PLUS)
        b = dist_from_map(part, comm, prev_b, MIN_PLUS)
        st = spgemm_algebraic_init(comm, a, b, MIN_PLUS)
        per_batch = []
        for a1, ch_a, b1, ch_b in batches:
            a_mat = dist_from_map(part, comm, prev_a, MIN_PLUS)
            a_prime = dist_from_map(part, comm, a1, MIN_PLUS)
            b_prime = dist_from_map(part, comm, b1, MIN_PLUS)
            d_a = update_from_map(part, comm, {p: None for p in ch_a},
                                  structure_only=True)
            d_b = update_from_map(part, comm, {p: None for p in ch_b},
                                  structure_only=True)
            before = st.C.global_entries()
            touched = compute_pattern(comm, a_mat, d_a, b_prime, d_b)
            stats = spgemm_general_update(comm, st, a_prime, d_a, b_prime,
                                          d_b, a_mat)
            static = summa_static(comm, a_prime, b_prime, MIN_PLUS)
            assert entry_map(st.C.block) == entry_map(static.block)
            to_global = part.to_global
            i, j = comm.grid_row, comm.grid_col
            touched_g = {to_global(i, j, r, c)
                         for (r, c) in position_set(touched)}
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
        a = dist_from_map(part, comm, a0, MIN_PLUS)
        b = dist_from_map(part, comm, b0, MIN_PLUS)
        st = spgemm_algebraic_init(comm, a, b, MIN_PLUS)
        a_prime = DistMatrix.empty(part, comm, MIN_PLUS)
        d_a = update_from_map(part, comm, {(0, 1): None}, structure_only=True)
        d_b = update_from_map(part, comm, {}, structure_only=True)
        stats = spgemm_general_update(comm, st, a_prime, d_a, b, d_b, a)
        return st.C.global_entries(), stats

    out = spmd_collect(1, worker)
    c_map, stats = out[0]
    assert c_map == {}
    assert stats["n_deleted"] == 1


def test_general_bloom_stays_superset_after_chained_updates(monkeypatch):
    """Over three chained updates on 80 summation indices, at q = 1 and 2,
    the row flags the general update hands filter_rows_by_bloom, united over
    a grid row, are the rows of the touched positions: a superset, so no
    contributor is lost, and no more. The product stays exact."""
    n, k = 16, 80
    rng = np.random.default_rng(41)
    a0 = random_map(rng, n, k, 0.25, values="float")
    b0 = random_map(rng, k, n, 0.25, values="float")
    flagged: dict = {}
    real_filter = distmm.filter_rows_by_bloom

    def keeping_filter(a, rows):
        flagged[threading.current_thread().name] = np.flatnonzero(rows)
        return real_filter(a, rows)

    monkeypatch.setattr(distmm, "filter_rows_by_bloom", keeping_filter)

    def structure(x: dict, y: dict) -> set:
        return set(oracle_product({p: 1 for p in x}, {p: 1 for p in y},
                                  PLUS_TIMES_I64))

    def worker(comm):
        part, part_b = BlockPartition(n, k, comm.q), BlockPartition(k, n, comm.q)
        prev_a, prev_b = a0, b0
        a = dist_from_map(part, comm, prev_a, MIN_PLUS)
        b = dist_from_map(part_b, comm, prev_b, MIN_PLUS)
        st = spgemm_algebraic_init(comm, a, b, MIN_PLUS)
        rng_w = np.random.default_rng(43)
        snapshots = []
        for _ in range(3):
            a1, ch_a = mixed_general_batch(rng_w, prev_a, n, k)
            b1, ch_b = mixed_general_batch(rng_w, prev_b, k, n)
            spgemm_general_update(
                comm, st, dist_from_map(part, comm, a1, MIN_PLUS),
                update_from_map(part, comm, {p: None for p in ch_a},
                                structure_only=True),
                dist_from_map(part_b, comm, b1, MIN_PLUS),
                update_from_map(part_b, comm, {p: None for p in ch_b},
                                structure_only=True),
                dist_from_map(part, comm, prev_a, MIN_PLUS))
            rows = flagged.pop(threading.current_thread().name)
            touched = structure(ch_a, b1) | structure(prev_a, ch_b)
            snapshots.append((a1, b1, touched, st.C.global_entries(),
                              set(part.row_starts[comm.grid_row] + rows)))
            prev_a, prev_b = a1, b1
        return snapshots

    for q in (1, 2):
        out = spmd_collect(q, worker)
        for step, (a1, b1, touched, _, _) in enumerate(out[0]):
            assert touched
            assert gather_maps([o[step][3] for o in out]) == \
                oracle_product(a1, b1, MIN_PLUS)
            rows = set().union(*(o[step][4] for o in out))
            assert rows == {r for r, _ in touched}


@pytest.mark.parametrize("q", [1, 2])
def test_general_after_algebraic_is_exact_or_raises(q):
    # A general batch after an algebraic one gives the from-scratch product:
    # the general update reads no state the algebraic one could leave stale,
    # so neither raises here.
    n = 10
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
            a = dist_from_map(part, comm, a0, MIN_PLUS)
            b = dist_from_map(part, comm, b0, MIN_PLUS)
            st = spgemm_algebraic_init(comm, a, b, MIN_PLUS)
            spgemm_algebraic_update(comm, st, a,
                                    update_from_map(part, comm, inserted), b,
                                    update_from_map(part, comm, {}))
            spgemm_general_update(
                comm, st, dist_from_map(part, comm, a2, MIN_PLUS),
                update_from_map(part, comm, {gone: None}, structure_only=True),
                b, update_from_map(part, comm, {}, structure_only=True),
                dist_from_map(part, comm, a1, MIN_PLUS))
            return st.C.global_entries()

        got = gather_maps(spmd_collect(q, worker))
        assert got == oracle_product(a2, b0, MIN_PLUS), idx


@st.composite
def _call_sequences(draw, sr):
    """A square size, two operands and a sequence of batches. A batch is
    algebraic or general and lists (operand, position, value) changes,
    value None meaning delete."""
    n = draw(st.integers(2, 8))
    pos = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    value = (st.integers(-5, 5) if sr.is_ring
             else st.integers(1, 9).map(float))
    operand = st.dictionaries(pos, value, max_size=2 * n)
    change = st.tuples(st.sampled_from("ab"), pos, st.none() | value)
    batch = st.tuples(st.sampled_from(("algebraic", "general")),
                      st.lists(change, min_size=1, max_size=4))
    return (n, draw(operand), draw(operand),
            draw(st.lists(batch, min_size=2, max_size=4)))


def _plan_calls(sr, a0, b0, batches) -> list:
    """Per call: the operands before and after, the deltas, the expected
    product, and whether the call must raise UnsupportedFeatureError: only
    an algebraic call under a semiring that is not a ring, on a batch that
    does more than insert into the left operand. The sequence ends at the
    first call that must raise.

    The algebraic path has no structural delete: there a delete sets the
    semiring zero, which stays a stored entry. Its deltas are signed
    differences under a ring and the new values otherwise."""
    a, b = dict(a0), dict(b0)
    calls = []
    for kind, changes in batches:
        new = {"a": dict(a), "b": dict(b)}
        changed = {"a": {}, "b": {}}
        for which, p, v in changes:
            if v is None and kind == "algebraic":
                v = sr.zero
            if v is None:
                new[which].pop(p, None)
            else:
                new[which][p] = v
            changed[which][p] = None
        old = {"a": a, "b": b}
        delta, raises = None, False
        if kind == "algebraic":
            delta = {w: {p: sr.add(new[w][p], -old[w].get(p, 0))
                         if sr.is_ring else new[w][p] for p in changed[w]}
                     for w in "ab"}
            raises = not sr.is_ring and (
                any(p in a for p in changed["a"]) or bool(changed["b"]))
        calls.append({"kind": kind, "a": a, "new": new, "changed": changed,
                      "delta": delta, "raises": raises,
                      "product": oracle_product(new["a"], new["b"], sr)})
        if raises:
            break
        a, b = new["a"], new["b"]
    return calls


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("sr", [PLUS_TIMES_I64, MIN_PLUS], ids=lambda s: s.name)
@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_any_call_order_is_exact_or_raises(q, sr, data):
    # After every call the maintained product equals the from-scratch
    # product, or the call raises UnsupportedFeatureError, and it raises
    # exactly when the documented limit of the algebraic update says so. A
    # general call after an algebraic one is exact.
    n, a0, b0, batches = data.draw(_call_sequences(sr))
    calls = _plan_calls(sr, a0, b0, batches)

    def check(comm, part, st_, product):
        mine = {p: v for p, v in product.items()
                if owner_coords(part, *p) == (comm.grid_row, comm.grid_col)}
        assert st_.C.global_entries() == mine

    def worker(comm):
        part = BlockPartition(n, n, comm.q)
        st_ = spgemm_algebraic_init(comm, dist_from_map(part, comm, a0, sr),
                                    dist_from_map(part, comm, b0, sr), sr)
        check(comm, part, st_, oracle_product(a0, b0, sr))
        for call in calls:
            a = dist_from_map(part, comm, call["a"], sr)
            b_new = dist_from_map(part, comm, call["new"]["b"], sr)
            if call["kind"] == "algebraic":
                spgemm_algebraic_update(
                    comm, st_, a,
                    update_from_map(part, comm, call["delta"]["a"]), b_new,
                    update_from_map(part, comm, call["delta"]["b"]))
            else:
                spgemm_general_update(
                    comm, st_, dist_from_map(part, comm, call["new"]["a"], sr),
                    update_from_map(part, comm, call["changed"]["a"],
                                    structure_only=True),
                    b_new,
                    update_from_map(part, comm, call["changed"]["b"],
                                    structure_only=True),
                    a)
            check(comm, part, st_, call["product"])

    if calls[-1]["raises"]:
        with pytest.raises(UnsupportedFeatureError):
            spmd_collect(q, worker)
    else:
        spmd_collect(q, worker)


def test_general_empty_batch_changes_nothing():
    n = 10
    rng = np.random.default_rng(47)
    a0 = random_map(rng, n, n, 0.2, values="float")
    b0 = random_map(rng, n, n, 0.2, values="float")

    def worker(comm):
        part = BlockPartition(n, n, comm.q)
        a = dist_from_map(part, comm, a0, MIN_PLUS)
        b = dist_from_map(part, comm, b0, MIN_PLUS)
        st = spgemm_algebraic_init(comm, a, b, MIN_PLUS)
        c_before = st.C.global_entries()
        d = update_from_map(part, comm, {}, structure_only=True)
        stats = spgemm_general_update(comm, st, a, d, b, d, a)
        assert stats == {"n_touched": 0, "n_recomputed": 0, "n_deleted": 0,
                         "nnz_filtered": 0}
        return st.C.global_entries() == c_before

    assert all(spmd_collect(2, worker))


def _general_batches(rng, a0, b0, n, count):
    """count general batches (a before, a after, a changes, b after, b
    changes), chained from a0 and b0."""
    out, cur_a, cur_b = [], a0, b0
    for _ in range(count):
        a1, ch_a = mixed_general_batch(rng, cur_a, n, n)
        b1, ch_b = mixed_general_batch(rng, cur_b, n, n)
        out.append((cur_a, a1, ch_a, b1, ch_b))
        cur_a, cur_b = a1, b1
    return out


def _run_general(comm, part, st, batch):
    prev_a, a1, ch_a, b1, ch_b = batch

    def changes(ch):
        return update_from_map(part, comm, {p: None for p in ch},
                               structure_only=True)

    return spgemm_general_update(
        comm, st, dist_from_map(part, comm, a1, MIN_PLUS), changes(ch_a),
        dist_from_map(part, comm, b1, MIN_PLUS), changes(ch_b),
        dist_from_map(part, comm, prev_a, MIN_PLUS))


def test_general_batch_searches_c_keys_and_touched_once(monkeypatch):
    """Per rank, one general batch looks up the touched keys in C's key
    array once, searches the touched set once, and merges C in one
    replace_touched call."""
    n = 32
    rng = np.random.default_rng(61)
    a0 = random_map(rng, n, n, 0.15, values="float")
    b0 = random_map(rng, n, n, 0.15, values="float")
    (batch,) = _general_batches(rng, a0, b0, n, 1)
    searched, touched, replaced = {}, {}, {}
    real_locate = storage.locate
    real_pattern = distmm.compute_pattern
    real_replace = distmm.replace_touched

    def rank():
        return threading.current_thread().name

    def counting_locate(keys, queries):
        searched.setdefault(rank(), []).append(keys)
        return real_locate(keys, queries)

    def keeping_pattern(*args, **kwargs):
        touched[rank()] = out = real_pattern(*args, **kwargs)
        return out

    def counting_replace(*args, **kwargs):
        replaced[rank()] = replaced.get(rank(), 0) + 1
        return real_replace(*args, **kwargs)

    monkeypatch.setattr(storage, "locate", counting_locate)
    monkeypatch.setattr(distmm, "locate", counting_locate)
    monkeypatch.setattr(distmm, "compute_pattern", keeping_pattern)
    monkeypatch.setattr(distmm, "replace_touched", counting_replace)

    def worker(comm):
        part = BlockPartition(n, n, comm.q)
        st = spgemm_algebraic_init(comm, dist_from_map(part, comm, a0, MIN_PLUS),
                                   dist_from_map(part, comm, b0, MIN_PLUS),
                                   MIN_PLUS)
        c_keys = st.C.block.keys().copy()
        searched[rank()] = []
        stats = _run_general(comm, part, st, batch)
        mine = searched[rank()]
        t_keys = touched[rank()].keys()
        return (len(c_keys), stats["n_touched"],
                sum(np.array_equal(k, c_keys) for k in mine),
                sum(k is t_keys for k in mine), replaced[rank()])

    out = spmd_collect(2, worker)
    assert all(nnz > 0 for nnz, *_ in out)
    assert any(n_touched > 0 for _, n_touched, *_ in out)
    assert [counts for _, _, *counts in out] == [[1, 1, 1]] * 4


def test_one_sided_general_batch_looks_up_each_key_set_once(monkeypatch):
    """With b_delta empty, the touched set is the aggregated structure of
    a_delta . b_prime as it came: per rank the one search is the touched
    keys' lookup in C's keys, made by replace_touched, which does not
    search Z's keys, as Z holds every touched key (the batch inserts and
    modifies only, so no touched position loses its support)."""
    n = 32
    rng = np.random.default_rng(67)
    a0 = random_map(rng, n, n, 0.15, values="float")
    b0 = random_map(rng, n, n, 0.15, values="float")
    a1 = dict(a0)
    for pos in list(a0)[:6]:
        a1[pos] = a0[pos] + 3.0
    while len(a1) < len(a0) + 6:
        a1[(int(rng.integers(n)), int(rng.integers(n)))] = 1.0
    changed = {p for p in a1 if a0.get(p) != a1[p]}
    calls, pattern, replacing = {}, {}, set()
    real_locate = storage.locate
    real_pattern = distmm.compute_pattern
    real_replace = distmm.replace_touched

    def rank():
        return threading.current_thread().name

    def counting_locate(keys, queries):
        where = "replace" if rank() in replacing else "update"
        calls.setdefault(rank(), []).append((where, keys, queries))
        return real_locate(keys, queries)

    def keeping_pattern(*args, **kwargs):
        pattern[rank()] = out = real_pattern(*args, **kwargs)
        return out

    def marking_replace(*args, **kwargs):
        replacing.add(rank())
        try:
            return real_replace(*args, **kwargs)
        finally:
            replacing.discard(rank())

    monkeypatch.setattr(storage, "locate", counting_locate)
    monkeypatch.setattr(distmm, "locate", counting_locate)
    monkeypatch.setattr(distmm, "compute_pattern", keeping_pattern)
    monkeypatch.setattr(distmm, "replace_touched", marking_replace)

    def worker(comm):
        part = BlockPartition(n, n, comm.q)
        a = dist_from_map(part, comm, a0, MIN_PLUS)
        b = dist_from_map(part, comm, b0, MIN_PLUS)
        a_prime = dist_from_map(part, comm, a1, MIN_PLUS)
        d_a = update_from_map(part, comm, dict.fromkeys(changed),
                              structure_only=True)
        d_b = update_from_map(part, comm, {}, structure_only=True)
        st = spgemm_algebraic_init(comm, a, b, MIN_PLUS)
        c_keys = st.C.block.keys()
        calls[rank()] = []
        stats = spgemm_general_update(comm, st, a_prime, d_a, b, d_b, a)
        mine = calls.pop(rank())
        t_keys = pattern[rank()].keys()
        held = [q for _, k, q in mine if k is c_keys]
        others = [k for _, k, q in mine if k is not c_keys and len(q)]
        assert entry_map(st.C.block) == entry_map(
            summa_static(comm, a_prime, b, MIN_PLUS).block)
        return (stats["n_touched"], stats["n_recomputed"],
                len(held), held[0] is t_keys, len(others),
                sum(w == "replace" for w, *_ in mine))

    out = spmd_collect(2, worker)
    assert sum(t for t, *_ in out) > 0
    for n_touched, n_recomputed, *checks in out:
        assert n_recomputed == n_touched
        assert checks == [1, True, 0, 1]


@pytest.mark.parametrize("sr", [PLUS_TIMES_I64, PLUS_TIMES_F64, MIN_PLUS,
                                BOOLEAN], ids=lambda s: s.name)
def test_two_sided_general_batch_matches_static_under_each_semiring(sr):
    """A batch that changes and deletes entries of both operands: the
    touched set unites two aggregated structures, and Z misses the
    positions left with no support, so replace_touched takes its search of
    Z's keys in the touched set."""
    n = 24
    rng = np.random.default_rng(71)
    a0 = random_map(rng, n, n, 0.15, values="float")
    b0 = random_map(rng, n, n, 0.15, values="float")
    batches = _general_batches(rng, a0, b0, n, 3)
    # b_delta deletes a right-operand entry in some batch
    assert any(p not in b1 for *_, b1, ch_b in batches for p in ch_b)

    def dist(part, comm, m):
        vals = {p: (1 if sr is BOOLEAN else v) for p, v in m.items()}
        return dist_from_map(part, comm, vals, sr)

    def worker(comm):
        part = BlockPartition(n, n, comm.q)
        st = spgemm_algebraic_init(comm, dist(part, comm, a0),
                                   dist(part, comm, b0), sr)
        deleted = 0
        for prev_a, a1, ch_a, b1, ch_b in batches:
            a_prime, b_prime = dist(part, comm, a1), dist(part, comm, b1)
            stats = spgemm_general_update(
                comm, st, a_prime,
                update_from_map(part, comm, dict.fromkeys(ch_a), True),
                b_prime, update_from_map(part, comm, dict.fromkeys(ch_b), True),
                dist(part, comm, prev_a))
            deleted += stats["n_deleted"]
            assert entry_map(st.C.block) == entry_map(
                summa_static(comm, a_prime, b_prime, sr).block)
        return deleted

    assert sum(spmd_collect(2, worker)) > 0


# -- distributed matrix plumbing ---------------------------------------------------

def test_dist_matrix_from_triples_keeps_owned_entries():
    rng = np.random.default_rng(53)
    m = random_map(rng, 10, 10, 0.3)

    def worker(comm):
        part = BlockPartition(10, 10, comm.q)
        d = DistMatrix.from_triples(part, comm,
                                    [(i, j, v) for (i, j), v in m.items()],
                                    PLUS_TIMES_I64)
        br, bc = part.block_shape(comm.grid_row, comm.grid_col)
        assert isinstance(d.block, DcsrBlock)
        d.block.check()
        assert (d.block.n_rows, d.block.n_cols) == (br, bc)
        return d.global_entries()

    assert gather_maps(spmd_collect(2, worker)) == m


def test_dist_matrix_from_triples_rejects_entries_outside_the_matrix():
    # every rank checks every triple, so a rank that owns neither entry
    # raises too, and a negative index is not silently dropped
    def worker(comm):
        part = BlockPartition(4, 4, comm.q)
        for bad in ((4, 0, 1), (0, -1, 1)):
            with pytest.raises(ValueError):
                DistMatrix.from_triples(part, comm, [(0, 0, 5), bad],
                                        PLUS_TIMES_I64)
        return True

    assert spmd_collect(2, worker) == [True] * 4


def test_dist_matrix_from_triples_holds_the_semiring_dtype_on_every_rank():
    # rank 3 owns none of the triples; it must still hold i64 values, so a
    # later upsert of 2**60 + 1 is stored exactly, not rounded through f8
    big = 2 ** 60 + 1

    def worker(comm):
        part = BlockPartition(4, 4, comm.q)
        d = DistMatrix.from_triples(part, comm, [(0, 0, 5)], PLUS_TIMES_I64)
        assert d.block.vals.dtype == PLUS_TIMES_I64.np_dtype
        i, j = comm.grid_row, comm.grid_col
        batch = update_batch(PLUS_TIMES_I64, [3], [3], [big])
        if owner_coords(part, 3, 3) == (i, j):
            apply_batch(d.block, batch, PLUS_TIMES_I64, d.row_base, d.col_base)
        return d.global_entries()

    got = gather_maps(spmd_collect(2, worker))
    assert got == {(0, 0): 5, (3, 3): big}
    assert type(got[(3, 3)]) is int


def test_min_plus_identity_zero_is_infinity():
    # sanity for tropical runs: additive identity entries act as absences
    def worker(comm):
        part = BlockPartition(2, 2, comm.q)
        a = dist_from_map(part, comm, {(0, 0): 0.0, (0, 1): math.inf}, MIN_PLUS)
        b = dist_from_map(part, comm, {(0, 0): 4.0, (1, 0): 1.0}, MIN_PLUS)
        return summa_static(comm, a, b, MIN_PLUS).global_entries()

    got = gather_maps(spmd_collect(1, worker))
    # inf entry is structural: it contributes min(0+4, inf+1) = 4 at (0,0)
    assert got == {(0, 0): 4.0}
