"""Update batches, their routing and batched application."""

import itertools

import numpy as np
import pytest

from dynspgemm import (
    BOOLEAN,
    BlockPartition,
    DcsrBlock,
    MIN_PLUS,
    OP_DELETE,
    OP_UPSERT,
    PLUS_TIMES_F64,
    PLUS_TIMES_I64,
    REGISTRY,
    apply_batch,
    batch_dtype,
    redistribute_updates,
    run_spmd,
    update_batch,
)
from dynspgemm.redistribute import _buckets, _exchange
from helpers import entry_map, owner_coords


def records(batch, sr):
    """A batch as (row, col, op, value) tuples with Python values; a delete
    reads as value None."""
    vals = batch["v"].tolist()
    return [(i, j, op, None if op else v) for i, j, op, v in
            zip(batch["i"].tolist(), batch["j"].tolist(),
                batch["op"].tolist(), vals)]


def upserts(sr, *entries):
    """A batch of upserts from (row, col, value) triples."""
    rows, cols, vals = zip(*entries) if entries else ((), (), ())
    return update_batch(sr, rows, cols, vals)


def route_on_one_rank(batch, sr):
    part = BlockPartition(1 << 41, 1 << 41, 1)
    return run_spmd(1, lambda comm: redistribute_updates(comm, part, batch, sr))[0]


# -- bucket step (the routing sort) -----------------------------------------------

def test_buckets_empty():
    order, offs = _buckets(np.empty(0, dtype=np.int64), 4)
    assert order.tolist() == [] and offs.tolist() == [0, 0, 0, 0, 0]


def test_buckets_is_stable():
    items = np.array(["a0", "b0", "a1", "c0", "a2", "b1"])
    keys = np.array([0, 1, 0, 2, 0, 1])
    order, offs = _buckets(keys, 3)
    assert items[order].tolist() == ["a0", "a1", "a2", "b0", "b1", "c0"]
    assert offs.tolist() == [0, 3, 5, 6]


def test_buckets_matches_sorted_oracle():
    rng = np.random.default_rng(19)
    # past 255 buckets the destinations sort as uint16, not uint8
    for n_buckets in (16, 300):
        keys = rng.integers(0, n_buckets, size=5000)
        order, offs = _buckets(keys, n_buckets)
        out = order.tolist()
        want = [item for item, _ in
                sorted(enumerate(keys.tolist()), key=lambda p: p[1])]
        assert out == want
        for b in range(n_buckets):
            assert all(keys[item] == b for item in out[offs[b]:offs[b + 1]])


# -- batch records and their wire bytes ------------------------------------------------

def test_record_wire_round_trip():
    sr = PLUS_TIMES_I64
    batch = update_batch(sr, [3, 0, 2 ** 40], [1, 7, 5], [42, 99, -6],
                         ops=[OP_UPSERT, OP_DELETE, OP_UPSERT])
    assert batch.dtype == batch_dtype(sr) and batch.dtype.itemsize == 25
    back = route_on_one_rank(batch, sr)
    assert back.tobytes() == batch.tobytes()
    assert records(back, sr) == [(3, 1, OP_UPSERT, 42), (0, 7, OP_DELETE, None),
                                 (2 ** 40, 5, OP_UPSERT, -6)]
    assert back["v"][1] == sr.zero    # a delete carries the zero


def test_record_wire_bool_and_tropical():
    bools = update_batch(BOOLEAN, [1, 0, 3], [1, 2, 3], [True, False, True],
                         ops=np.array([OP_UPSERT, OP_UPSERT, OP_DELETE]))
    assert bools.dtype.itemsize == 18
    assert records(route_on_one_rank(bools, BOOLEAN), BOOLEAN) == [
        (1, 1, OP_UPSERT, True), (0, 2, OP_UPSERT, False),
        (3, 3, OP_DELETE, None)]
    trop = update_batch(MIN_PLUS, [0, 1], [0, 0], [2.5, 1.0],
                        ops=[OP_UPSERT, OP_DELETE])
    back = route_on_one_rank(trop, MIN_PLUS)
    assert records(back, MIN_PLUS) == [(0, 0, OP_UPSERT, 2.5),
                                       (1, 0, OP_DELETE, None)]
    assert back["v"][1] == np.inf


def test_record_wire_rejects_ragged_buffer():
    class TruncatingComm:
        """One-rank communicator that drops the last byte of every buffer."""

        def all_to_all_v(self, axis, bufs):
            return [buf[:-1] for buf in bufs]

    class ShiftingComm:
        """Moves one byte of the first received buffer to the second: each
        is ragged, but together they still hold whole records."""

        def all_to_all_v(self, axis, bufs):
            return [bufs[0][:-1], bufs[0][-1:] + bufs[1]]

    batch = upserts(PLUS_TIMES_I64, (0, 0, 1), (2, 0, 2), (0, 1, 3))
    for comm, q in ((TruncatingComm(), 1), (ShiftingComm(), 2)):
        with pytest.raises(ValueError):
            redistribute_updates(comm, BlockPartition(4, 4, q), batch,
                                 PLUS_TIMES_I64)


def _exchange_oracle(batch, dest, q):
    """The fancy-index and concatenate exchange the routing replaced, over
    a communicator that sends every bucket back to its sender."""
    order = np.argsort(dest, kind="stable")
    srt = batch[order]
    offs = np.searchsorted(dest[order], np.arange(q + 1))
    return np.concatenate([np.frombuffer(srt[offs[g]:offs[g + 1]].tobytes(),
                                         dtype=batch.dtype) for g in range(q)])


class _LoopbackComm:
    def all_to_all_v(self, axis, bufs):
        return list(bufs)


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("sr", list(REGISTRY.values()), ids=lambda s: s.name)
def test_exchange_matches_the_concatenated_gather(sr, q):
    rng = np.random.default_rng(41 + q)
    # every bucket used, and all but the first or the last left empty
    for count, used in itertools.product((0, 1, 7, 500),
                                         (range(q), [0], [q - 1])):
        batch = _random_batch(rng, sr, 40, count)
        dest = rng.choice(used, size=count)
        got = _exchange(_LoopbackComm(), "row", batch, dest, q)
        want = _exchange_oracle(batch, dest, q)
        assert got.flags.writeable and got.dtype == batch.dtype
        assert got.tobytes() == want.tobytes()
    # a routed batch, grid rank by grid rank, is writable too
    part = BlockPartition(40, 40, q)
    batches = [_random_batch(rng, sr, 40, 300) for _ in range(q * q)]

    def worker(comm):
        return redistribute_updates(comm, part, batches[comm.rank],
                                    sr).flags.writeable

    assert all(run_spmd(q * q, worker))


def test_record_wire_empty():
    batch = update_batch(PLUS_TIMES_I64, [], [])
    assert batch.tobytes() == b""
    back = route_on_one_rank(batch, PLUS_TIMES_I64)
    assert len(back) == 0 and back.dtype == batch_dtype(PLUS_TIMES_I64)


def test_update_batch_defaults_to_upserts_of_one():
    batch = update_batch(PLUS_TIMES_F64, np.array([2, 5]), np.array([0, 1]))
    assert records(batch, PLUS_TIMES_F64) == [(2, 0, OP_UPSERT, 1.0),
                                              (5, 1, OP_UPSERT, 1.0)]


# -- routing -----------------------------------------------------------------------

def test_route_single_tuple_to_owner():
    part = BlockPartition(4, 4, 2)

    def worker(comm):
        mine = (upserts(PLUS_TIMES_I64, (3, 0, 9))
                if (comm.grid_row, comm.grid_col) == (0, 1)
                else upserts(PLUS_TIMES_I64))
        got = redistribute_updates(comm, part, mine, PLUS_TIMES_I64)
        return records(got, PLUS_TIMES_I64)

    out = run_spmd(4, worker)
    assert out[0] == [] and out[1] == [] and out[3] == []
    assert out[2] == [(3, 0, OP_UPSERT, 9)]   # rank (1, 0) owns row 3, col 0


def test_route_keeps_already_owned_tuple_local():
    part = BlockPartition(4, 4, 2)

    def worker(comm):
        mine = (upserts(PLUS_TIMES_I64, (0, 1, 5)) if comm.rank == 0
                else upserts(PLUS_TIMES_I64))
        got = redistribute_updates(comm, part, mine, PLUS_TIMES_I64)
        return records(got, PLUS_TIMES_I64), comm.counters.bytes_alltoall

    out = run_spmd(4, worker)
    assert out[0][0] == [(0, 1, OP_UPSERT, 5)]
    assert all(o[0] == [] for o in out[1:])
    assert all(o[1] == 0 for o in out)   # nothing actually crossed ranks


@pytest.mark.parametrize("sr", REGISTRY.values(), ids=REGISTRY.keys())
def test_route_random_tuples_preserved_and_owned(sr):
    n = 37
    part = BlockPartition(n, n, 2)
    rng = np.random.default_rng(23)
    per_rank = []
    for r in range(4):
        vals = rng.integers(100, size=2500)
        per_rank.append(update_batch(
            sr, rng.integers(n, size=2500), rng.integers(n, size=2500),
            vals % 2 if sr is BOOLEAN else vals,
            ops=np.where(rng.random(2500) < 0.25, OP_DELETE, OP_UPSERT)))

    def worker(comm):
        got = redistribute_updates(comm, part, per_rank[comm.rank], sr)
        grid = (comm.grid_row, comm.grid_col)
        assert all(owner_coords(part, i, j) == grid for i, j, _, _ in
                   records(got, sr))
        peers = set(comm.counters.peers_sent)
        assert peers <= (set(comm.grid.row_members(comm.grid_row))
                         | set(comm.grid.col_members(comm.grid_col)))
        assert comm.counters.n_alltoalls == 2
        return records(got, sr)

    out = run_spmd(4, worker)
    got_all = sorted(t for chunk in out for t in chunk)
    sent_all = sorted(t for batch in per_rank for t in records(batch, sr))
    assert got_all == sent_all


def test_route_rejects_out_of_range_before_talking():
    part = BlockPartition(4, 4, 2)

    def worker(comm):
        bad = (upserts(PLUS_TIMES_I64, (4, 0, 1)) if comm.rank == 1
               else upserts(PLUS_TIMES_I64))
        return redistribute_updates(comm, part, bad, PLUS_TIMES_I64)

    with pytest.raises(ValueError, match="outside"):
        run_spmd(4, worker)


def test_route_rejects_a_negative_index_and_another_semirings_batch():
    part = BlockPartition(4, 4, 1)

    def worker(comm, batch, sr):
        return redistribute_updates(comm, part, batch, sr)

    with pytest.raises(ValueError, match="outside"):
        run_spmd(1, worker, upserts(PLUS_TIMES_I64, (0, -1, 1)), PLUS_TIMES_I64)
    with pytest.raises(ValueError, match="update record"):
        run_spmd(1, worker, upserts(PLUS_TIMES_I64, (0, 1, 1)), BOOLEAN)


def test_unknown_op_code_is_refused_before_anything_changes():
    """An op code other than OP_UPSERT and OP_DELETE raises ValueError naming
    it: routing sends nothing and apply_batch changes nothing (it used to
    read code 7 as a delete)."""
    batch = update_batch(PLUS_TIMES_I64, [0, 1], [0, 1], [9, 9],
                         ops=np.array([7, 0], np.uint8))
    part = BlockPartition(4, 4, 2)

    def route(comm):
        with pytest.raises(ValueError, match="op code 7"):
            redistribute_updates(comm, part, batch, PLUS_TIMES_I64)
        return comm.counters.n_alltoalls, comm.counters.bytes_alltoall

    assert run_spmd(4, route) == [(0, 0)] * 4

    block = DcsrBlock(4, 4, [0], np.array([5]))
    with pytest.raises(ValueError, match="op code 7"):
        apply_batch(block, batch, PLUS_TIMES_I64, 0, 0)
    assert entry_map(block) == {(0, 0): 5}


# -- batched application --------------------------------------------------------------

def _empty(sr, n_rows, n_cols):
    return DcsrBlock.empty(n_rows, n_cols, dtype=sr.np_dtype)


def test_apply_upsert_then_delete_same_position():
    b = _empty(PLUS_TIMES_I64, 4, 4)
    batch = update_batch(PLUS_TIMES_I64, [1, 1], [2, 2], [5, 0],
                         ops=[OP_UPSERT, OP_DELETE])
    stats = apply_batch(b, batch, PLUS_TIMES_I64, 0, 0)
    assert stats == (1, 1)
    assert b.nnz == 0 and entry_map(b) == {}


def test_apply_translates_base_offsets():
    b = _empty(PLUS_TIMES_I64, 2, 2)
    apply_batch(b, upserts(PLUS_TIMES_I64, (10, 21, 7)), PLUS_TIMES_I64,
                row_base=10, col_base=20)
    assert entry_map(b) == {(0, 1): 7}


@pytest.mark.parametrize("entry", [(9, 20), (10, 25), (12, 20), (10, 19)])
def test_apply_rejects_updates_outside_the_block(entry):
    # the 2x2 block at (10, 20) holds rows 10-11 and columns 20-21; a stray
    # update must not wrap to a negative local index or land past the edge
    b = _empty(PLUS_TIMES_I64, 2, 2)
    apply_batch(b, upserts(PLUS_TIMES_I64, (11, 21, 3)), PLUS_TIMES_I64,
                row_base=10, col_base=20)
    batch = upserts(PLUS_TIMES_I64, (10, 20, 1), (11, 21, 4), (*entry, 7))
    with pytest.raises(ValueError, match="outside"):
        apply_batch(b, batch, PLUS_TIMES_I64, row_base=10, col_base=20)
    assert b.nnz == 1 and entry_map(b) == {(1, 1): 3}


def test_apply_bool_values_stay_bools():
    # bool operand values are numpy bools, as in the product
    b = _empty(BOOLEAN, 2, 2)
    batch = upserts(BOOLEAN, (0, 0, True), (1, 1, False), (0, 1, 1))
    batch["v"][2] = 7   # numpy bool stores any non-zero as true
    apply_batch(b, batch, BOOLEAN, 0, 0)
    assert b.vals.dtype == BOOLEAN.np_dtype
    assert entry_map(b) == {(0, 0): 1, (0, 1): 1, (1, 1): 0}


def _random_batch(rng, sr, n, count):
    """count records over an n x n block, 30% deletes; one upsert in ten
    writes the semiring zero."""
    if sr is BOOLEAN:
        vals = rng.integers(2, size=count).astype(bool)
    elif sr is PLUS_TIMES_I64:
        vals = rng.integers(-50, 100, size=count)
    else:
        vals = rng.integers(-50, 100, size=count).astype(float)
    vals = np.where(rng.random(count) < 0.1, sr.zero, vals)
    return update_batch(
        sr, rng.integers(n, size=count), rng.integers(n, size=count), vals,
        ops=np.where(rng.random(count) < 0.3, OP_DELETE, OP_UPSERT))


def _apply_in_order(oracle: dict, batch, sr) -> tuple[int, int]:
    """Apply the records one by one to a dict: (inserted, deleted)."""
    ins = dels = 0
    for i, j, op, v in records(batch, sr):
        if op == OP_UPSERT:
            ins += (i, j) not in oracle
            oracle[(i, j)] = v
        elif (i, j) in oracle:
            del oracle[(i, j)]
            dels += 1
    return ins, dels


@pytest.mark.parametrize("sr", list(REGISTRY.values()), ids=lambda s: s.name)
def test_apply_matches_sequential_oracle(sr):
    rng = np.random.default_rng(29)
    n = 50
    count = 20_000
    b = _empty(sr, n, n)
    oracle: dict = {}
    for step in range(2):
        batch = _random_batch(rng, sr, n, count)
        if step:
            # the second batch meets stored entries: a run's first record
            # finds its position stored (an upsert or a delete) or absent,
            # and runs hold upsert -> delete -> upsert chains
            ops_at: dict = {}
            for i, j, op, _ in records(batch, sr):
                ops_at.setdefault((i, j), []).append(op)
            firsts = {(ops[0], p in oracle) for p, ops in ops_at.items()}
            assert firsts == {(OP_UPSERT, True), (OP_UPSERT, False),
                              (OP_DELETE, True), (OP_DELETE, False)}
            assert any(f"{OP_UPSERT}{OP_DELETE}{OP_UPSERT}" in
                       "".join(map(str, ops)) for ops in ops_at.values())
        want = _apply_in_order(oracle, batch, sr)
        assert apply_batch(b, batch, sr, 0, 0) == want
        assert entry_map(b) == oracle
        assert b.vals.dtype == sr.np_dtype
        b.check()
    assert any(v == sr.zero for v in oracle.values())
