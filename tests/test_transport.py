"""Simulated cluster: point-to-point, collectives, failure handling, metrics."""

import numpy as np
import pytest

from dynspgemm import (
    DcsrBlock,
    DeadlockError,
    DynamicBlock,
    MIN_PLUS,
    NULL_PHASES,
    PLUS_TIMES_F64,
    PLUS_TIMES_I64,
    PhaseRecorder,
    STRUCTURE_CODEC,
    TransportError,
    dcsr_from_row_map,
    dcsr_serialize,
    run_spmd,
    semiring_codec,
)

I64 = semiring_codec(PLUS_TIMES_I64)


# -- point to point ------------------------------------------------------------

def test_p2p_delivery():
    def worker(comm):
        target = (comm.rank + 1) % comm.size
        source = (comm.rank - 1) % comm.size
        comm.send_block(target, f"hello {comm.rank}".encode())
        got = comm.recv_block(source)
        return got.decode(), comm.counters.bytes_p2p

    out = run_spmd(4, worker)
    for rank, (msg, nbytes) in enumerate(out):
        assert msg == f"hello {(rank - 1) % 4}"
        assert nbytes == 2 * len(b"hello 0")


def test_p2p_self_send_costs_nothing():
    def worker(comm):
        comm.send_block(comm.rank, b"mine")
        got = comm.recv_block(comm.rank)
        c = comm.counters
        return got, c.bytes_p2p, c.n_p2p_sends, c.n_p2p_recvs, dict(c.peers_sent)

    for got, nbytes, ns, nr, peers in run_spmd(4, worker):
        assert got == b"mine"
        assert nbytes == 0
        assert (ns, nr) == (1, 1)
        assert peers == {}


def test_transpose_exchange_all_ranks_at_once():
    def worker(comm):
        payload = f"block of rank {comm.rank}".encode()
        return comm.transpose_exchange(payload).decode()

    out = run_spmd(9, worker)
    from dynspgemm import ProcessGrid
    g = ProcessGrid(3)
    for rank, got in enumerate(out):
        assert got == f"block of rank {g.transpose_rank(rank)}"


def test_transpose_exchange_diagonal_is_self_copy():
    def worker(comm):
        got = comm.transpose_exchange(f"r{comm.rank}".encode())
        return got, comm.counters.bytes_p2p

    out = run_spmd(4, worker)
    assert out[0][0] == b"r0" and out[0][1] == 0   # diagonal: no traffic
    assert out[3][0] == b"r3" and out[3][1] == 0
    assert out[1][0] == b"r2" and out[1][1] == 2 * 2
    assert out[2][0] == b"r1"


# -- broadcast -------------------------------------------------------------------

def test_row_broadcast_delivers_and_counts():
    payload = b"x" * 100

    def worker(comm):
        data = comm.row_broadcast(0, payload if comm.grid_col == 0 else None)
        c = comm.counters
        return data, c.bytes_broadcast, c.n_broadcasts, c.collective_rounds

    for data, nbytes, nb, rounds in run_spmd(4, worker):
        assert data == payload
        assert nbytes == 100      # logical volume: count once per participant
        assert nb == 1
        assert rounds == 1


def test_col_broadcast_from_nonzero_root():
    def worker(comm):
        root_payload = f"col {comm.grid_col}".encode()
        data = comm.col_broadcast(1, root_payload if comm.grid_row == 1 else None)
        return data.decode()

    out = run_spmd(9, worker)
    for rank, got in enumerate(out):
        assert got == f"col {rank % 3}"


def test_broadcast_relays_count_bytes_once():
    # q = 4 needs relaying ranks; logical bytes must still be len(payload)
    payload = b"y" * 77

    def worker(comm):
        data = comm.row_broadcast(2, payload if comm.grid_col == 2 else None)
        return data, comm.counters.bytes_broadcast

    for data, nbytes in run_spmd(16, worker):
        assert data == payload
        assert nbytes == 77


def test_broadcast_single_rank_group_is_free():
    def worker(comm):
        data = comm.row_broadcast(0, b"solo")
        return data, comm.counters.bytes_broadcast

    (data, nbytes), = run_spmd(1, worker)
    assert data == b"solo" and nbytes == 0


def test_broadcast_root_must_supply_payload():
    def worker(comm):
        comm.row_broadcast(0, None)

    with pytest.raises(TransportError):
        run_spmd(1, worker)


def test_root_index_outside_the_group_rejected():
    def worker(comm, call):
        call(comm)

    for call in (lambda comm: comm.col_broadcast(2, b"x"),
                 lambda comm: comm.aggregate_sparse(
                     "row", -1, DcsrBlock.empty(2, 2), None, STRUCTURE_CODEC)):
        with pytest.raises(ValueError, match="root index"):
            run_spmd(4, worker, call)


def test_broadcast_root_disagreement_detected():
    # ranks in row 0 disagree on the root; the run must fail, not hang or
    # silently deliver (here the stranded receiver surfaces as a deadlock)
    def worker(comm):
        if comm.grid_row != 0:
            return None
        if comm.grid_col == 1:
            return comm.row_broadcast(2, None)      # expects root at col 2
        return comm.row_broadcast(0, b"z" if comm.grid_col == 0 else b"w")

    with pytest.raises(TransportError):
        run_spmd(9, worker)


def test_broadcast_rejects_mismatched_message():
    # a stray point-to-point message is not accepted as broadcast traffic
    def worker(comm):
        if comm.rank == 0:
            comm.send_block(1, b"stray")
        elif comm.rank == 1:
            comm.row_broadcast(0, None)

    with pytest.raises(TransportError, match="root mismatch"):
        run_spmd(4, worker)


# -- all-to-all -------------------------------------------------------------------

def test_all_to_all_empty_buffers():
    def worker(comm):
        out = comm.all_to_all_v("row", [b""] * comm.q)
        c = comm.counters
        return out, c.bytes_alltoall, c.n_alltoalls, dict(c.peers_sent)

    for out, nbytes, n, peers in run_spmd(4, worker):
        assert out == [b"", b""]
        assert nbytes == 0
        assert n == 1
        assert peers == {}   # empty buffers do not create peer traffic


def test_all_to_all_swap_within_row():
    def worker(comm):
        mine = f"keep{comm.rank}".encode()
        other = f"r{comm.rank}to{1 - comm.grid_col}".encode()
        bufs = [mine, other] if comm.grid_col == 0 else [other, mine]
        return comm.all_to_all_v("row", bufs)

    out = run_spmd(4, worker)
    # labels carry the destination grid column
    assert out[0] == [b"keep0", b"r1to0"]
    assert out[1] == [b"r0to1", b"keep1"]
    assert out[2] == [b"keep2", b"r3to0"]
    assert out[3] == [b"r2to1", b"keep3"]


def test_all_to_all_preserves_all_payloads():
    q = 4

    def worker(comm, axis):
        rng = np.random.default_rng(comm.rank)
        bufs = [rng.bytes(int(rng.integers(0, 40))) for _ in range(comm.q)]
        got = comm.all_to_all_v(axis, bufs)
        return bufs, got

    for axis in ("row", "col"):
        out = run_spmd(q * q, worker, axis)
        from dynspgemm import ProcessGrid
        g = ProcessGrid(q)
        for rank in range(q * q):
            i, j = g.coords_of(rank)
            members = g.row_members(i) if axis == "row" else g.col_members(j)
            my_idx = j if axis == "row" else i
            _, got = out[rank]
            for gidx, member in enumerate(members):
                member_idx = my_idx  # my slot in the member's view
                sent_by_member = out[member][0][member_idx]
                assert got[gidx] == sent_by_member


def test_all_to_all_wrong_buffer_count():
    def worker(comm):
        comm.all_to_all_v("row", [b""] * (comm.q + 1))

    with pytest.raises(ValueError):
        run_spmd(4, worker)


# -- sparse aggregation --------------------------------------------------------------

def test_aggregate_folds_to_root():
    def worker(comm):
        v = 1 if comm.grid_col == 0 else 2
        block = dcsr_from_row_map(2, 2, {0: {0: v}})
        got = comm.aggregate_sparse("row", 0, block, PLUS_TIMES_I64.add, I64)
        return None if got is None else got.entry_map()

    out = run_spmd(4, worker)
    assert out[0] == {(0, 0): 3}
    assert out[1] is None
    assert out[2] == {(0, 0): 3}
    assert out[3] is None


def test_aggregate_with_one_empty_contribution():
    def worker(comm):
        if comm.grid_col == 0:
            block = dcsr_from_row_map(3, 3, {0: {1: 7}, 2: {0: 4}})
        else:
            block = DcsrBlock.empty(3, 3)
        got = comm.aggregate_sparse("row", 1, block, PLUS_TIMES_I64.add, I64)
        return None if got is None else got.entry_map()

    out = run_spmd(4, worker)
    assert out[0] is None and out[2] is None
    assert out[1] == {(0, 1): 7, (2, 0): 4}


def test_aggregate_matches_sequential_fold_oracle():
    q = 4
    n = 11
    rng = np.random.default_rng(77)
    # per group-member contribution maps, keyed by grid col (axis row)
    min_contribs = {g: {(int(rng.integers(n)), int(rng.integers(n))): float(rng.integers(1, 30))
                        for _ in range(14)} for g in range(q)}
    # float sums of these values depend on the order they are added in
    big = (1e16, 1.0, -1e16, 3.0)
    sum_contribs = {g: {(int(rng.integers(n)), int(rng.integers(n))): big[int(rng.integers(4))]
                        for _ in range(14)} for g in range(q)}
    for g, v in enumerate((1e16, 1.0, -1e16, 1.0)):
        sum_contribs[g][(0, 0)] = v

    for sr, contribs in ((MIN_PLUS, min_contribs), (PLUS_TIMES_F64, sum_contribs)):
        def worker(comm):
            mine = contribs[comm.grid_col]
            block = DynamicBlock.from_triples(
                n, n, [(r, c, v) for (r, c), v in mine.items()]).to_dcsr()
            got = comm.aggregate_sparse("row", 2, block, sr.add,
                                        semiring_codec(sr))
            return None if got is None else got.entry_map()

        # oracle: fold in ascending member order
        want: dict = {}
        for g in range(q):
            for pos, v in contribs[g].items():
                want[pos] = sr.add(want[pos], v) if pos in want else v

        out = run_spmd(q * q, worker)
        for rank in range(q * q):
            if rank % q == 2:
                assert out[rank] == want
            else:
                assert out[rank] is None
    # the ascending-order sum; other orders give 0.0 or 2.0
    assert want[(0, 0)] == 1.0


def test_aggregate_sends_each_contribution_once():
    q, n, root = 4, 12, 1
    blocks = {}
    for rank in range(q * q):
        rng = np.random.default_rng(500 + rank)
        blocks[rank] = DynamicBlock.from_triples(n, n, [
            (int(rng.integers(n)), int(rng.integers(n)), int(rng.integers(1, 9)))
            for _ in range(int(rng.integers(0, 20)))]).to_dcsr()

    def worker(comm):
        comm.aggregate_sparse("row", root, blocks[comm.rank],
                              PLUS_TIMES_I64.add, I64)
        return comm.counters.bytes_aggregate, dict(comm.counters.peers_sent)

    out = run_spmd(q * q, worker)
    wire = sum(len(dcsr_serialize(blocks[rank], I64))
               for rank in range(q * q) if rank % q != root)
    assert sum(nbytes for nbytes, _ in out) == 2 * wire
    for rank, (_, peers) in enumerate(out):
        row_root = rank - rank % q + root
        assert set(peers) == (set() if rank == row_root else {row_root})


def test_back_to_back_aggregations_reach_their_own_roots():
    # Non-roots return as soon as their contribution is sent, so one member
    # may already be two aggregations ahead of the root of the first.
    q, n = 4, 6
    combines = ((PLUS_TIMES_I64, I64), (MIN_PLUS, semiring_codec(MIN_PLUS)),
                (PLUS_TIMES_I64, I64))

    def contribution(g, call):
        return {(g % n, call): g + 1, (n - 1, 0): 10 * (call + 1) + g}

    def worker(comm):
        got = []
        for root, (sr, codec) in enumerate(combines):
            mine = contribution(comm.grid_col, root)
            block = DynamicBlock.from_triples(
                n, n, [(r, c, v) for (r, c), v in mine.items()]).to_dcsr()
            res = comm.aggregate_sparse("row", root, block, sr.add, codec)
            got.append(None if res is None else res.entry_map())
        return got

    out = run_spmd(q * q, worker)
    for root, (sr, _codec) in enumerate(combines):
        want: dict = {}
        for g in range(q):
            for pos, v in contribution(g, root).items():
                want[pos] = sr.add(want[pos], v) if pos in want else v
        for rank in range(q * q):
            expected = want if rank % q == root else None
            assert out[rank][root] == expected


def test_aggregate_single_rank_is_identity():
    def worker(comm):
        block = dcsr_from_row_map(2, 2, {1: {1: 5}})
        return comm.aggregate_sparse("row", 0, block, PLUS_TIMES_I64.add, I64).entry_map()

    (got,), = (run_spmd(1, worker),)
    assert got == {(1, 1): 5}


def test_aggregate_rejects_shape_mismatch():
    def worker(comm):
        shape = 3 if comm.grid_col == 0 else 2
        block = DcsrBlock.empty(shape, shape)
        comm.aggregate_sparse("row", 0, block, PLUS_TIMES_I64.add, I64)

    with pytest.raises(TransportError, match="dims"):
        run_spmd(4, worker)


def test_aggregate_on_column_axis():
    def worker(comm):
        block = dcsr_from_row_map(2, 2, {comm.grid_row: {0: 10 ** comm.grid_row}})
        got = comm.aggregate_sparse("col", 0, block, PLUS_TIMES_I64.add, I64)
        return None if got is None else got.entry_map()

    out = run_spmd(4, worker)
    assert out[0] == {(0, 0): 1, (1, 0): 10}
    assert out[1] == {(0, 0): 1, (1, 0): 10}
    assert out[2] is None and out[3] is None


# -- barrier and failure handling -------------------------------------------------

def test_barrier_orders_side_effects():
    shared: list = []

    def worker(comm):
        shared.append(comm.rank)
        comm.barrier()
        return len(shared)

    out = run_spmd(4, worker)
    assert all(seen == 4 for seen in out)


def test_barrier_moves_no_payload_bytes():
    def worker(comm):
        comm.barrier()
        return comm.counters.volume_tuple()

    for vol in run_spmd(4, worker):
        assert vol == (0, 0, 0, 0, 0)


def test_deadlock_detected():
    def worker(comm):
        comm.recv_block((comm.rank + 1) % comm.size)   # nobody ever sends

    with pytest.raises(DeadlockError):
        run_spmd(4, worker)


def test_partial_deadlock_detected():
    # two ranks wait forever; the other two finish early
    def worker(comm):
        if comm.rank < 2:
            return comm.recv_block(3 - comm.rank)
        return None

    with pytest.raises(DeadlockError):
        run_spmd(4, worker)


def test_failure_propagates_original_error():
    def worker(comm):
        if comm.rank == 2:
            raise ValueError("boom on rank 2")
        return comm.recv_block((comm.rank + 1) % comm.size)

    with pytest.raises(ValueError, match="boom on rank 2"):
        run_spmd(4, worker)


def test_counters_are_deterministic_across_runs():
    def worker(comm):
        payload = bytes(range(comm.rank % 7, comm.rank % 7 + 50))
        comm.row_broadcast(0, payload if comm.grid_col == 0 else None)
        bufs = [b"m" * (comm.rank + g) for g in range(comm.q)]
        comm.all_to_all_v("col", bufs)
        block = dcsr_from_row_map(4, 4, {comm.rank % 4: {0: 1}})
        comm.aggregate_sparse("row", 0, block, PLUS_TIMES_I64.add, I64)
        c = comm.counters
        return c.volume_tuple(), c.n_broadcasts, c.n_alltoalls, c.n_aggregates, \
            dict(c.peers_sent)

    first = run_spmd(16, worker)
    second = run_spmd(16, worker)
    assert first == second


# -- phase recorder -----------------------------------------------------------------

def test_phase_recorder_accounts_bytes_to_phase():
    def worker(comm):
        rec = PhaseRecorder(comm, sync=True)
        with rec.phase("broadcast"):
            comm.row_broadcast(0, b"p" * 64 if comm.grid_col == 0 else None)
        with rec.phase("merge"):
            pass
        return rec.bytes, rec.seconds

    for nbytes, secs in run_spmd(4, worker):
        assert nbytes["broadcast"] == 64
        assert nbytes["merge"] == 0
        assert all(secs[k] >= 0 for k in secs)
        assert set(nbytes) == {"redistribute", "transpose_exchange", "broadcast",
                               "local_multiply", "aggregate", "merge"}


def test_phase_recorder_rejects_unknown_phase():
    def worker(comm):
        rec = PhaseRecorder(comm, sync=False)
        with rec.phase("not-a-phase"):
            pass

    with pytest.raises(ValueError):
        run_spmd(1, worker)


def test_null_phase_recorder_is_noop():
    with NULL_PHASES.phase("literally anything"):
        x = 1 + 1
    assert x == 2
