"""Update routing, batched application, and index permutation."""

import numpy as np
import pytest

from dynspgemm import (
    BOOLEAN,
    BlockPartition,
    DynamicBlock,
    IndexPermutation,
    MIN_PLUS,
    OP_DELETE,
    OP_UPSERT,
    PLUS_TIMES_I64,
    apply_batch,
    counting_sort,
    decode_tuples,
    delete,
    encode_tuples,
    redistribute_updates,
    run_spmd,
    upsert,
)


# -- counting sort --------------------------------------------------------------

def test_counting_sort_empty():
    out, offs = counting_sort([], [], 4)
    assert out == [] and offs == [0, 0, 0, 0, 0]


def test_counting_sort_is_stable():
    items = ["a0", "b0", "a1", "c0", "a2", "b1"]
    keys = [0, 1, 0, 2, 0, 1]
    out, offs = counting_sort(items, keys, 3)
    assert out == ["a0", "a1", "a2", "b0", "b1", "c0"]
    assert offs == [0, 3, 5, 6]


def test_counting_sort_matches_sorted_oracle():
    rng = np.random.default_rng(19)
    items = list(range(2000))
    keys = [int(k) for k in rng.integers(0, 16, size=2000)]
    out, offs = counting_sort(items, keys, 16)
    want = [item for item, _ in sorted(zip(items, keys), key=lambda p: p[1])]
    assert out == want
    for b in range(16):
        assert all(keys[item] == b for item in out[offs[b]:offs[b + 1]])


# -- tuple codec ------------------------------------------------------------------

def test_tuple_codec_round_trip():
    tuples = [upsert(3, 1, 42), delete(0, 7), upsert(2 ** 40, 5, -6)]
    back = decode_tuples(encode_tuples(tuples, PLUS_TIMES_I64), PLUS_TIMES_I64)
    assert back == tuples
    assert back[1].op == OP_DELETE and back[1].value is None
    assert back[0].op == OP_UPSERT


def test_tuple_codec_bool_and_tropical():
    bools = [upsert(1, 1, True), upsert(0, 2, False), delete(3, 3)]
    assert decode_tuples(encode_tuples(bools, BOOLEAN), BOOLEAN) == bools
    trop = [upsert(0, 0, 2.5), delete(1, 0)]
    assert decode_tuples(encode_tuples(trop, MIN_PLUS), MIN_PLUS) == trop


def test_tuple_codec_rejects_ragged_buffer():
    buf = encode_tuples([upsert(0, 0, 1)], PLUS_TIMES_I64)
    with pytest.raises(ValueError):
        decode_tuples(buf[:-1], PLUS_TIMES_I64)


def test_tuple_codec_empty():
    assert encode_tuples([], PLUS_TIMES_I64) == b""
    assert decode_tuples(b"", PLUS_TIMES_I64) == []


# -- routing -----------------------------------------------------------------------

def test_route_single_tuple_to_owner():
    part = BlockPartition(4, 4, 2)

    def worker(comm):
        mine = [upsert(3, 0, 9)] if (comm.grid_row, comm.grid_col) == (0, 1) else []
        got = redistribute_updates(comm, part, mine, PLUS_TIMES_I64)
        return got

    out = run_spmd(4, worker)
    assert out[0] == [] and out[1] == [] and out[3] == []
    assert out[2] == [upsert(3, 0, 9)]   # rank (1, 0) owns row 3, col 0


def test_route_keeps_already_owned_tuple_local():
    part = BlockPartition(4, 4, 2)

    def worker(comm):
        mine = [upsert(0, 1, 5)] if comm.rank == 0 else []
        got = redistribute_updates(comm, part, mine, PLUS_TIMES_I64)
        return got, comm.counters.bytes_alltoall

    out = run_spmd(4, worker)
    assert out[0][0] == [upsert(0, 1, 5)]
    assert all(o[0] == [] for o in out[1:])
    assert all(o[1] == 0 for o in out)   # nothing actually crossed ranks


def test_route_random_tuples_preserved_and_owned():
    n = 37
    part = BlockPartition(n, n, 2)
    rng = np.random.default_rng(23)
    per_rank = []
    for r in range(4):
        tuples = []
        for _ in range(2500):
            i, j = int(rng.integers(n)), int(rng.integers(n))
            if rng.random() < 0.25:
                tuples.append(delete(i, j))
            else:
                tuples.append(upsert(i, j, int(rng.integers(100))))
        per_rank.append(tuples)

    def worker(comm):
        got = redistribute_updates(comm, part, per_rank[comm.rank], PLUS_TIMES_I64)
        grid = (comm.grid_row, comm.grid_col)
        assert all(part.owner_coords(t.row, t.col) == grid for t in got)
        peers = set(comm.counters.peers_sent)
        assert peers <= set(comm.row_group()) | set(comm.col_group())
        assert comm.counters.n_alltoalls == 2
        return got

    out = run_spmd(4, worker)
    got_all = sorted(t for chunk in out for t in chunk)
    sent_all = sorted(t for chunk in per_rank for t in chunk)
    assert got_all == sent_all


def test_route_rejects_out_of_range_before_talking():
    part = BlockPartition(4, 4, 2)

    def worker(comm):
        bad = [upsert(4, 0, 1)] if comm.rank == 1 else []
        return redistribute_updates(comm, part, bad, PLUS_TIMES_I64)

    with pytest.raises(ValueError, match="outside"):
        run_spmd(4, worker)


# -- batched application --------------------------------------------------------------

def test_apply_upsert_then_delete_same_position():
    b = DynamicBlock(4, 4)
    stats = apply_batch(b, [upsert(1, 2, 5), delete(1, 2)], PLUS_TIMES_I64, 0, 0)
    assert stats == (1, 1)
    assert b.nnz == 0 and not b.contains(1, 2)


def test_apply_add_mode_folds():
    b = DynamicBlock(4, 4)
    apply_batch(b, [upsert(0, 0, 1), upsert(0, 0, 2)], PLUS_TIMES_I64, 0, 0,
                mode="add")
    assert b.get(0, 0) == 3
    apply_batch(b, [upsert(0, 0, 4)], PLUS_TIMES_I64, 0, 0, mode="set")
    assert b.get(0, 0) == 4


def test_apply_translates_base_offsets():
    b = DynamicBlock(2, 2)
    apply_batch(b, [upsert(10, 21, 7)], PLUS_TIMES_I64, row_base=10, col_base=20)
    assert b.get(0, 1) == 7


def test_apply_rejects_unknown_mode():
    with pytest.raises(ValueError):
        apply_batch(DynamicBlock(2, 2), [], PLUS_TIMES_I64, 0, 0, mode="xor")


def test_apply_matches_sequential_oracle():
    rng = np.random.default_rng(29)
    n = 50
    tuples = []
    for _ in range(20_000):
        i, j = int(rng.integers(n)), int(rng.integers(n))
        if rng.random() < 0.3:
            tuples.append(delete(i, j))
        else:
            tuples.append(upsert(i, j, int(rng.integers(1, 100))))
    b = DynamicBlock(n, n)
    ins, dels = apply_batch(b, tuples, PLUS_TIMES_I64, 0, 0, mode="set")
    oracle: dict = {}
    o_ins = o_del = 0
    for t in tuples:
        if t.op == OP_UPSERT:
            if (t.row, t.col) not in oracle:
                o_ins += 1
            oracle[(t.row, t.col)] = t.value
        elif (t.row, t.col) in oracle:
            del oracle[(t.row, t.col)]
            o_del += 1
    assert b.entry_map() == oracle
    assert (ins, dels) == (o_ins, o_del)
    b.check()


# -- permutation -------------------------------------------------------------------------

def test_permutation_round_trip():
    perm = IndexPermutation(100, 80, seed=5)
    for i in range(100):
        for j in range(0, 80, 7):
            pi, pj = perm.map_entry(i, j)
            assert perm.unmap_entry(pi, pj) == (i, j)
    assert sorted(perm.row_map) == list(range(100))
    assert sorted(perm.col_map) == list(range(80))


def test_permutation_is_seed_deterministic():
    a = IndexPermutation(64, 64, seed=9)
    b = IndexPermutation(64, 64, seed=9)
    c = IndexPermutation(64, 64, seed=10)
    assert a.row_map == b.row_map and a.col_map == b.col_map
    assert a.row_map != c.row_map or a.col_map != c.col_map


def test_permutation_map_tuple_preserves_op():
    perm = IndexPermutation(16, 16, seed=3)
    t = perm.map_tuple(delete(4, 7))
    assert t.op == OP_DELETE and t.value is None
    assert (t.row, t.col) == perm.map_entry(4, 7)


def test_permutation_spreads_skewed_load():
    # all traffic aimed at ten hot rows; after relabeling, ownership of 1e5
    # tuples over the grid rows must be within 3x of uniform
    n, q = 1024, 4
    part = BlockPartition(n, n, q)
    perm = IndexPermutation(n, n, seed=11)
    rng = np.random.default_rng(37)
    counts = [0] * q
    for _ in range(100_000):
        i = int(rng.integers(10))            # hot rows 0..9
        j = int(rng.integers(n))
        pi, _pj = perm.map_entry(i, j)
        counts[part.owner_grid_row(pi)] += 1
    uniform = 100_000 / q
    for c in counts:
        assert uniform / 3 <= c <= uniform * 3, counts
