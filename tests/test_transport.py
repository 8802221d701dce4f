"""Simulated cluster: point-to-point, collectives, failure handling, metrics."""

import dataclasses
import os
import platform
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from dynspgemm import (
    BOOLEAN,
    Counters,
    DcsrBlock,
    DeadlockError,
    MIN_PLUS,
    NULL_PHASES,
    PLUS_TIMES_F64,
    PLUS_TIMES_I64,
    PhaseRecorder,
    STRUCTURE_CODEC,
    TransportError,
    dcsr_serialize,
    run_spmd,
    semiring_codec,
)
from dynspgemm import transport
from helpers import (
    block_from_triples,
    dcsr_from_row_map,
    entry_map,
    volume_tuple,
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


def test_counters_snapshot_copies_every_field():
    """A snapshot equals the counters field by field, and its peers_sent is
    a copy that later traffic does not change."""
    def worker(comm):
        comm.all_to_all_v("row", [b"x" * (comm.rank + 1)] * comm.q)
        snap = comm.counters.snapshot()
        fields = [f.name for f in dataclasses.fields(Counters)]
        same = all(getattr(snap, f) == getattr(comm.counters, f)
                   for f in fields)
        copied = snap.peers_sent is not comm.counters.peers_sent
        before = dict(snap.peers_sent)
        comm.all_to_all_v("row", [b"y"] * comm.q)
        return same, copied, before, snap.peers_sent, comm.counters.peers_sent

    for same, copied, before, snap_peers, now in run_spmd(4, worker):
        assert same and copied and before
        assert snap_peers == before and now != before


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
        got = comm.aggregate_sparse("row", 0, block, PLUS_TIMES_I64.np_add, I64)
        return None if got is None else entry_map(got)

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
        got = comm.aggregate_sparse("row", 1, block, PLUS_TIMES_I64.np_add, I64)
        return None if got is None else entry_map(got)

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
            block = block_from_triples(
                n, n, [(r, c, v) for (r, c), v in mine.items()])
            got = comm.aggregate_sparse("row", 2, block, sr.np_add,
                                        semiring_codec(sr))
            return None if got is None else entry_map(got)

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
        blocks[rank] = block_from_triples(n, n, [
            (int(rng.integers(n)), int(rng.integers(n)), int(rng.integers(1, 9)))
            for _ in range(int(rng.integers(0, 20)))])

    def worker(comm):
        comm.aggregate_sparse("row", root, blocks[comm.rank],
                              PLUS_TIMES_I64.np_add, I64)
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
            block = block_from_triples(
                n, n, [(r, c, v) for (r, c), v in mine.items()])
            res = comm.aggregate_sparse("row", root, block, sr.np_add, codec)
            got.append(None if res is None else entry_map(res))
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
        return entry_map(comm.aggregate_sparse("row", 0, block, PLUS_TIMES_I64.np_add, I64))

    (got,), = (run_spmd(1, worker),)
    assert got == {(1, 1): 5}


def test_aggregate_rejects_shape_mismatch():
    def worker(comm):
        shape = 3 if comm.grid_col == 0 else 2
        block = DcsrBlock.empty(shape, shape)
        comm.aggregate_sparse("row", 0, block, PLUS_TIMES_I64.np_add, I64)

    with pytest.raises(TransportError, match="dims"):
        run_spmd(4, worker)


def _z_contribution(rng, sr, n, nnz):
    """A block of nnz positions of an n x n block holding z in sr's value
    dtype (plus-times-f64 sums of 1e16, 1.0, -1e16 and 3.0 depend on their
    order)."""
    keys = np.sort(rng.choice(n * n, nnz, replace=False))
    if sr is BOOLEAN:
        z = rng.integers(0, 2, nnz)
    elif sr is PLUS_TIMES_F64:
        z = rng.choice((1e16, 1.0, -1e16, 3.0), nnz)
    else:
        z = rng.integers(-9, 10, nnz)
    return DcsrBlock(n, n, keys, z.astype(sr.np_dtype))


def _rows_of(block, parity):
    """block's entries in rows of the given parity."""
    keep = (block.keys() // block.n_cols) % 2 == parity
    return DcsrBlock(block.n_rows, block.n_cols, block.keys()[keep],
                     block.vals[keep])


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("n", [8, 64])
@pytest.mark.parametrize("sr", [PLUS_TIMES_I64, PLUS_TIMES_F64, MIN_PLUS,
                                BOOLEAN], ids=lambda s: s.name)
def test_record_aggregation_equals_two_aggregations(sr, n, q):
    """One aggregation of (key, z) records in the semiring's codec comes out
    bit for bit, dtype included, as two aggregations give it: one of the
    members' even rows and one of their odd rows, joined. The fold is
    position by position, which is what lets the general update aggregate
    Z over the touched rows alone. Its keys are the structure-only
    aggregation of the members' positions, and each member sends the keys
    once: 32 + (8 + w_z) * nnz bytes. Every third rank contributes nothing,
    so some groups fold one non-empty member and some none. On an 8 x 8
    block the members' positions mostly overlap and fold; on 64 x 64 they
    mostly do not."""
    root = q - 1
    codec = semiring_codec(sr)
    rng = np.random.default_rng(n + 10 * q)
    blocks = [_z_contribution(rng, sr, n,
                              0 if r % 3 == 0 else int(rng.integers(1, 30)))
              for r in range(q * q)]

    def worker(comm):
        z = blocks[comm.rank]
        got = comm.aggregate_sparse("col", root, z, sr.np_add, codec)
        sent = comm.counters.bytes_aggregate
        halves = [comm.aggregate_sparse("col", root, _rows_of(z, parity),
                                        sr.np_add, codec)
                  for parity in (0, 1)]
        pos = comm.aggregate_sparse(
            "col", root, DcsrBlock(n, n, z.keys(), None), None,
            STRUCTURE_CODEC)
        return sent, None if got is None else (got, halves, pos)

    for rank, (sent, out) in enumerate(run_spmd(q * q, worker)):
        if rank // q != root:
            assert out is None
            assert sent == 32 + (8 + codec.width) * blocks[rank].nnz
            continue
        got, halves, pos = out
        got.check()
        keys = np.concatenate([h.keys() for h in halves])
        vals = np.concatenate([h.vals for h in halves])
        order = np.argsort(keys, kind="stable")
        assert np.array_equal(got.keys(), keys[order])
        assert np.array_equal(got.keys(), pos.keys())
        assert got.vals.dtype == vals.dtype == sr.np_dtype
        assert got.vals.tobytes() == vals[order].tobytes()


def test_aggregate_on_column_axis():
    def worker(comm):
        block = dcsr_from_row_map(2, 2, {comm.grid_row: {0: 10 ** comm.grid_row}})
        got = comm.aggregate_sparse("col", 0, block, PLUS_TIMES_I64.np_add, I64)
        return None if got is None else entry_map(got)

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
        return volume_tuple(comm.counters)

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
        comm.aggregate_sparse("row", 0, block, PLUS_TIMES_I64.np_add, I64)
        c = comm.counters
        return volume_tuple(c), c.n_broadcasts, c.n_alltoalls, c.n_aggregates, \
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


# -- allocator policy ----------------------------------------------------------

def test_keep_freed_pages_without_mallopt_returns_false(monkeypatch):
    monkeypatch.setattr(transport.ctypes, "CDLL", lambda name: object())
    assert transport.keep_freed_pages() is False


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="glibc's mallopt only")
def test_keep_freed_pages_reuses_freed_band_sized_arrays():
    """After the call a freed 3 MiB array's pages serve the next one:
    20 rounds of allocating, filling and freeing one fault in almost no
    fresh page."""
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RUSAGE_THREAD"):
        pytest.skip("per-thread rusage only")
    assert transport.keep_freed_pages() is True

    def round_trip():
        x = np.empty(3 << 17)   # 3 MiB of float64
        x.fill(1.0)
        del x

    round_trip()
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    for _ in range(20):
        round_trip()
    assert resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before < 100


_ARENA_SCRIPT = textwrap.dedent("""
    import resource, threading
    import numpy as np
    from dynspgemm.transport import keep_freed_pages

    assert keep_freed_pages() is True
    x = np.empty(3 << 17)   # 3 MiB of float64, faulted in and freed
    x.fill(1.0)
    del x
    faults = []

    def worker():
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        y = np.empty(3 << 17)
        y.fill(1.0)
        faults.append(resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
                      - before)

    t = threading.Thread(target=worker)
    t.start()
    t.join()
    print(faults[0])
""")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="glibc's mallopt only")
def test_keep_freed_pages_lets_threads_reuse_the_main_threads_pages():
    """With one arena, a worker thread's 3 MiB array takes the pages that the
    main thread freed: it faults in fewer than 100 fresh pages. With a
    per-thread arena of its own it faulted in every page, 768 of them. The
    check runs in a fresh process, before any other thread has allocated."""
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RUSAGE_THREAD"):
        pytest.skip("per-thread rusage only")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _ARENA_SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    assert int(out.stdout) < 100
