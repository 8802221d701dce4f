"""Acceptance gate: one test per acceptance criterion, numbered 1 through 8.

Each test prints a single PASS line with its measured evidence (run with
pytest -s to see them; pytest -v shows the per-criterion outcome either way).
"""

import threading
import time
from itertools import chain
from typing import Optional

import numpy as np

from dynspgemm import (
    BlockPartition,
    DcsrBlock,
    DistMatrix,
    MIN_PLUS,
    PLUS_TIMES_I64,
    add_into,
    apply_batch,
    compute_pattern,
    dcsr_from_coo,
    redistribute_updates,
    run_spmd,
    spgemm_algebraic_init,
    spgemm_algebraic_update,
    spgemm_general_update,
    summa_static,
    update_batch,
)
from dynspgemm import distmm
from dynspgemm.bench import (
    ExperimentConfig,
    rmat_arrays,
    run_experiment,
    symmetrized_pool,
)
from helpers import (
    apply_delta,
    block_triples,
    counters_snapshot,
    dist_from_map,
    entry_map,
    gather_maps,
    global_entries,
    hypersparse_delta,
    mixed_general_batch,
    oracle_product,
    owner_coords,
    position_set,
    random_map,
    spmd_collect,
    to_global,
    update_from_map,
)

GRID_SIDES = (1, 2, 4)    # 1, 4 and 16 simulated ranks


def test_criterion_1_algebraic_updates_match_static_recompute():
    """200 random ring instances, 5 hypersparse batches each, exact equality
    against the from-scratch product after every batch; under 60 seconds of
    this process's CPU time, summed over its rank threads, so the load of
    other processes on the host does not count."""
    sr = PLUS_TIMES_I64
    n_instances = 200
    t0 = time.process_time()
    for idx in range(n_instances):
        q = GRID_SIDES[idx % 3]
        rng = np.random.default_rng(10_000 + idx)
        n, k, m = (int(rng.integers(8, 65)) for _ in range(3))
        density = float(rng.uniform(0.02, 0.25))
        a0 = random_map(rng, n, k, density)
        b0 = random_map(rng, k, m, density)
        batches = []
        ca, cb = dict(a0), dict(b0)
        for _ in range(5):
            da = hypersparse_delta(rng, ca, n, k, sr)
            db = hypersparse_delta(rng, cb, k, m, sr)
            batches.append((da, db))
            ca = apply_delta(ca, da, sr)
            cb = apply_delta(cb, db, sr)

        def worker(comm):
            pa = BlockPartition(n, k, comm.q)
            pb = BlockPartition(k, m, comm.q)
            a = dist_from_map(pa, comm, a0, sr)
            b = dist_from_map(pb, comm, b0, sr)
            st = spgemm_algebraic_init(comm, a, b, sr)
            for da, db in batches:
                d_a = update_from_map(pa, comm, da)
                d_b = update_from_map(pb, comm, db)
                add_into(b.block, d_b.block, sr.np_add)
                spgemm_algebraic_update(comm, st, a, d_a, b, d_b)
                add_into(a.block, d_a.block, sr.np_add)
                static = summa_static(comm, a, b, sr)
                assert entry_map(st.C.block) == entry_map(static.block)
            return global_entries(st.C)

        final = gather_maps(spmd_collect(q, worker))
        assert final == oracle_product(ca, cb, sr)
    elapsed = time.process_time() - t0
    assert elapsed < 60.0
    print(f"\ncriterion 1 PASS: {n_instances} algebraic instances, 5 batches "
          f"each, exact match every batch, {elapsed:.1f}s (< 60s)")


def test_criterion_2_general_updates_match_static_and_stay_contained():
    """200 random tropical instances with mixed increases, decreases and
    deletions: exact equality with the static recompute, and every changed
    product position lies inside the predicted pattern; under 120 seconds."""
    sr = MIN_PLUS
    n_instances = 200
    t0 = time.perf_counter()
    for idx in range(n_instances):
        q = GRID_SIDES[idx % 3]
        rng = np.random.default_rng(20_000 + idx)
        n = int(rng.integers(8, 41))
        density = float(rng.uniform(0.05, 0.25))
        a0 = random_map(rng, n, n, density, values="float")
        b0 = random_map(rng, n, n, density, values="float")
        a1, ch_a = mixed_general_batch(rng, a0, n, n)
        b1, ch_b = mixed_general_batch(rng, b0, n, n)

        def worker(comm):
            part = BlockPartition(n, n, comm.q)
            a = dist_from_map(part, comm, a0, sr)
            b = dist_from_map(part, comm, b0, sr)
            st = spgemm_algebraic_init(comm, a, b, sr)
            a_prime = dist_from_map(part, comm, a1, sr)
            b_prime = dist_from_map(part, comm, b1, sr)
            d_a = update_from_map(part, comm, {p: None for p in ch_a},
                                  structure_only=True)
            d_b = update_from_map(part, comm, {p: None for p in ch_b},
                                  structure_only=True)
            before = global_entries(st.C)
            touched = compute_pattern(comm, a, d_a, b_prime, d_b)
            spgemm_general_update(comm, st, a_prime, d_a, b_prime, d_b, a)
            static = summa_static(comm, a_prime, b_prime, sr)
            assert entry_map(st.C.block) == entry_map(static.block)
            i, j = comm.grid_row, comm.grid_col
            touched_g = {to_global(part, i, j, r, c)
                         for (r, c) in position_set(touched)}
            return before, global_entries(st.C), touched_g

        out = spmd_collect(q, worker)
        before = gather_maps([o[0] for o in out])
        after = gather_maps([o[1] for o in out])
        touched = set().union(*(o[2] for o in out))
        assert after == oracle_product(a1, b1, sr)
        changed = (before.keys() ^ after.keys()) | \
            {p for p in before.keys() & after.keys() if before[p] != after[p]}
        assert changed <= touched
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\ncriterion 2 PASS: {n_instances} general instances, exact match "
          f"and delta containment, {elapsed:.1f}s (< 120s)")


def test_criterion_3_row_filter_never_loses_contributors(monkeypatch):
    """100 runs on n x k by k x n instances, n up to 32, each with two
    chained general updates. The general update filters its summation by
    one flag per row of A' (filter_rows_by_bloom), set for the rows that
    hold a touched position. After each update, every entry A'(r, k) with
    a B'(k, c) at a touched position (r, c), that is every contributor to a
    recomputed value, passed the filter, and what passed is a subset of A'
    with its values. Entries kept for no touched position are allowed,
    misses are not. In half the runs k is above 64."""
    sr = MIN_PLUS
    n_runs = 100
    checks = extra = 0
    filtered: dict = {}
    real_filter = distmm.filter_rows_by_bloom

    def keeping_filter(a, rows):
        out = real_filter(a, rows)
        filtered[threading.current_thread().name] = out
        return out

    monkeypatch.setattr(distmm, "filter_rows_by_bloom", keeping_filter)

    def structure(x: dict, y: dict) -> set:
        return set(oracle_product({p: 1 for p in x}, {p: 1 for p in y},
                                  PLUS_TIMES_I64))

    for idx in range(n_runs):
        q = 1 + (idx % 2)
        rng = np.random.default_rng(30_000 + idx)
        n = int(rng.integers(6, 33))
        k = int(rng.integers(65, 97)) if idx % 2 == 0 else n
        a_seq = [random_map(rng, n, k, float(rng.uniform(0.05, 0.3)),
                            values="float")]
        b_seq = [random_map(rng, k, n, float(rng.uniform(0.05, 0.3)),
                            values="float")]
        changes = []
        for _ in range(2):
            a1, ch_a = mixed_general_batch(rng, a_seq[-1], n, k)
            b1, ch_b = mixed_general_batch(rng, b_seq[-1], k, n)
            a_seq.append(a1)
            b_seq.append(b1)
            changes.append((ch_a, ch_b))

        def worker(comm):
            part = BlockPartition(n, k, comm.q)
            part_b = BlockPartition(k, n, comm.q)
            a = dist_from_map(part, comm, a_seq[0], sr)
            b = dist_from_map(part_b, comm, b_seq[0], sr)
            st = spgemm_algebraic_init(comm, a, b, sr)
            i, j = comm.grid_row, comm.grid_col
            out = []
            for step, (ch_a, ch_b) in enumerate(changes):
                a_prev = dist_from_map(part, comm, a_seq[step], sr)
                a_prime = dist_from_map(part, comm, a_seq[step + 1], sr)
                b_prime = dist_from_map(part_b, comm, b_seq[step + 1], sr)
                d_a = update_from_map(part, comm, {p: None for p in ch_a},
                                      structure_only=True)
                d_b = update_from_map(part_b, comm, {p: None for p in ch_b},
                                      structure_only=True)
                spgemm_general_update(comm, st, a_prime, d_a, b_prime, d_b,
                                      a_prev)
                kept = filtered.pop(threading.current_thread().name)
                out.append(({to_global(part, i, j, r, c): v for (r, c), v in
                             entry_map(kept).items()}, global_entries(st.C)))
            return out

        results = spmd_collect(q, worker)
        for step, (ch_a, ch_b) in enumerate(changes):
            a1, b1 = a_seq[step + 1], b_seq[step + 1]
            kept = gather_maps([res[step][0] for res in results])
            assert all(a1.get(p) == v for p, v in kept.items()), (idx, step)
            touched = structure(ch_a, b1) | structure(a_seq[step], ch_b)
            b_cols: dict = {}
            for (kk, c) in b1:
                b_cols.setdefault(kk, []).append(c)
            needed = {(r, kk) for (r, kk) in a1
                      if any((r, c) in touched for c in b_cols.get(kk, ()))}
            assert needed <= kept.keys(), (idx, step, needed - kept.keys())
            assert gather_maps([res[step][1] for res in results]) == \
                oracle_product(a1, b1, sr)
            checks += len(needed)
            extra += len(kept.keys() - needed)
    assert checks
    print(f"\ncriterion 3 PASS: {n_runs} runs, {checks} contributors kept, "
          f"{extra} entries kept for no touched position, zero misses")


def test_criterion_4_redistribution_conserves_and_stays_local():
    """100k random tuples on an 8x8 grid: exact final ownership, the full
    multiset survives routing, each rank talks only to its grid column (step
    one) and grid row (step two), two exchanges total; under 10 seconds."""
    n = 4096
    count = 100_000
    rng = np.random.default_rng(44)
    rows = rng.integers(0, n, size=count)
    cols = rng.integers(0, n, size=count)
    vals = rng.integers(1, 1000, size=count)

    def worker(comm):
        part = BlockPartition(n, n, comm.q)
        lo = count * comm.rank // comm.size
        hi = count * (comm.rank + 1) // comm.size
        batch = update_batch(PLUS_TIMES_I64, rows[lo:hi], cols[lo:hi],
                             vals[lo:hi])
        owned = redistribute_updates(comm, part, batch, PLUS_TIMES_I64)
        me = (comm.grid_row, comm.grid_col)
        owned = list(zip(owned["i"].tolist(), owned["j"].tolist(),
                         owned["v"].tolist()))
        for r, c, _ in owned:
            assert owner_coords(part, r, c) == me
        g = comm.grid
        col_group = set(g.col_members(comm.grid_col))
        row_group = set(g.row_members(comm.grid_row))
        peers = set(comm.counters.peers_sent)
        assert peers <= (col_group | row_group)
        assert len(peers & col_group) <= comm.q
        assert len(peers & row_group) <= comm.q
        assert comm.counters.n_alltoalls == 2
        return owned

    t0 = time.perf_counter()
    outs = run_spmd(64, worker)
    elapsed = time.perf_counter() - t0
    routed = sorted(chain.from_iterable(outs))
    sent = sorted(zip(rows.tolist(), cols.tolist(), vals.tolist()))
    assert routed == sent
    assert elapsed < 10.0
    print(f"\ncriterion 4 PASS: {count} tuples conserved on 64 ranks, "
          f"2 exchanges, peers within row/column groups, {elapsed:.2f}s "
          f"(< 10s)")


def test_criterion_5_collective_round_counts():
    """Per rank and per call: the static product costs exactly 2q broadcasts
    and no aggregations; the algebraic update costs exactly 2q broadcasts,
    2q aggregations and one pairwise exchange each way, for q in {2, 4}."""
    n = 12

    def worker(comm):
        part = BlockPartition(n, n, comm.q)
        a = dist_from_map(part, comm, {(i, i): 1 for i in range(n)},
                          PLUS_TIMES_I64)
        b = dist_from_map(part, comm, {(i, (i + 1) % n): 2 for i in range(n)},
                          PLUS_TIMES_I64)
        c0 = counters_snapshot(comm.counters)
        summa_static(comm, a, b, PLUS_TIMES_I64)
        c1 = counters_snapshot(comm.counters)
        st = spgemm_algebraic_init(comm, a, b, PLUS_TIMES_I64)
        d_a = update_from_map(part, comm, {(0, 1): 5})
        d_b = update_from_map(part, comm, {})
        c2 = counters_snapshot(comm.counters)
        spgemm_algebraic_update(comm, st, a, d_a, b, d_b)
        c3 = counters_snapshot(comm.counters)
        return ((c1.n_broadcasts - c0.n_broadcasts,
                 c1.n_aggregates - c0.n_aggregates),
                (c3.n_broadcasts - c2.n_broadcasts,
                 c3.n_aggregates - c2.n_aggregates,
                 c3.n_p2p_sends - c2.n_p2p_sends,
                 c3.n_p2p_recvs - c2.n_p2p_recvs))

    for q in (2, 4):
        for static_counts, update_counts in spmd_collect(q, worker):
            assert static_counts == (2 * q, 0)
            assert update_counts == (2 * q, 2 * q, 2, 2)
    print("\ncriterion 5 PASS: static product 2q broadcasts / 0 aggregations;"
          " algebraic update 2q broadcasts / 2q aggregations / 2 exchanges"
          " (q = 2, 4)")


def test_criterion_6_update_broadcast_volume_beats_static_recompute():
    """Power-law matrix with 2^14 vertices on a 4x4 grid: at a per-rank batch
    of 1024 (under 1% of the 119698 stored entries) the algebraic update
    broadcasts less than half the bytes of a full static recompute, and the
    ratio only degrades as the batch size ladder grows."""
    n = 1 << 14
    src, dst = rmat_arrays(14, 4, 1)
    rows, cols = symmetrized_pool(src, dst, n)
    nnz_b = len(rows)
    assert 1024 < nnz_b / 100

    def worker(comm, per_rank):
        part = BlockPartition(n, n, comm.q)
        i, j = comm.grid_row, comm.grid_col
        r0, c0 = part.row_starts[i], part.col_starts[j]
        ownr = np.searchsorted(part.row_starts, rows, side="right") - 1
        ownc = np.searchsorted(part.col_starts, cols, side="right") - 1
        mine = (ownr == i) & (ownc == j)
        shape = part.block_shape(i, j)
        b_block = dcsr_from_coo(*shape, rows[mine] - r0, cols[mine] - c0,
                                np.ones(int(mine.sum()), dtype=np.int64))
        b = DistMatrix(part, i, j, b_block)
        a0 = DistMatrix.empty(part, comm, PLUS_TIMES_I64)
        state = spgemm_algebraic_init(comm, a0, b, PLUS_TIMES_I64)
        pool_slice = np.flatnonzero(
            np.arange(nnz_b) % comm.size == comm.rank)
        rng = np.random.default_rng(
            np.random.SeedSequence(42, spawn_key=(comm.rank, per_rank)))
        take = min(per_rank, pool_slice.size)
        chosen = pool_slice[rng.choice(pool_slice.size, size=take,
                                       replace=False)]
        batch = update_batch(PLUS_TIMES_I64, rows[chosen], cols[chosen])
        owned = redistribute_updates(comm, part, batch, PLUS_TIMES_I64)
        a_delta = DistMatrix(part, i, j, dcsr_from_coo(
            *shape, owned["i"] - r0, owned["j"] - c0, owned["v"]))
        no_delta = DistMatrix(part, i, j, DcsrBlock.empty(
            *shape, dtype=PLUS_TIMES_I64.np_dtype))
        before = comm.counters.bytes_broadcast
        spgemm_algebraic_update(comm, state, a0, a_delta, b, no_delta)
        update_bytes = comm.counters.bytes_broadcast - before
        apply_batch(a0.block, owned, PLUS_TIMES_I64, r0, c0)
        state.C = None    # release the maintained product before the rerun
        before = comm.counters.bytes_broadcast
        summa_static(comm, a0, b, PLUS_TIMES_I64)
        static_bytes = comm.counters.bytes_broadcast - before
        return update_bytes, static_bytes

    ladder = (1024, 4096, 16384, 65536)
    ratios = []
    for per_rank in ladder:
        outs = run_spmd(16, worker, per_rank)
        update_total = sum(o[0] for o in outs)
        static_total = sum(o[1] for o in outs)
        ratios.append(update_total / static_total)
    assert ratios[0] < 0.5
    for lo, hi in zip(ratios, ratios[1:]):
        assert hi >= lo - 1e-12
    assert ratios[-1] > ratios[0]
    shown = ", ".join(f"{s}:{r:.3f}" for s, r in zip(ladder, ratios))
    print(f"\ncriterion 6 PASS: broadcast-volume ratios by per-rank batch "
          f"({shown}); 1024-batch ratio {ratios[0]:.3f} < 0.5, "
          f"non-decreasing ladder")


def _csr_from_triples(n_rows: int, n_cols: int, triples):
    """Build CSR arrays (row_ptr, cols, vals) from possibly-duplicated
    triples; later duplicates overwrite.

    Counting sort by row keeps the build linear in the input size.
    """
    buckets: list[Optional[dict]] = [None] * n_rows
    for r, c, v in triples:
        d = buckets[r]
        if d is None:
            buckets[r] = {c: v}
        else:
            d[c] = v
    row_ptr, cols, vals = [0], [], []
    for r in range(n_rows):
        d = buckets[r]
        if d:
            cols.extend(d.keys())
            vals.extend(d.values())
        row_ptr.append(len(cols))
    return row_ptr, cols, vals


def test_criterion_7_applying_a_batch_beats_rebuilding():
    """Applying 131072 update tuples to a populated block is at least 5x
    faster than rebuilding a compressed block from the union of the old
    entries and the batch, on a 2^16-vertex power-law matrix, single rank."""
    n = 1 << 16
    src, dst = rmat_arrays(16, 48, 1)
    rows, cols = symmetrized_pool(src, dst, n)

    src, dst = rmat_arrays(16, 2, 99)
    assert len(src) == 131072
    # both sides consume the same row-sorted input
    order = np.argsort(src, kind="stable")
    batch = update_batch(PLUS_TIMES_I64, src[order], dst[order])
    batch_triples = list(zip(batch["i"].tolist(), batch["j"].tolist(),
                             batch["v"].tolist()))

    ones = np.ones(len(rows), dtype=np.int64)
    block = dcsr_from_coo(n, n, rows, cols, ones)
    rebuild_times = []
    for _ in range(2):
        t0 = time.perf_counter()
        row_ptr, _, _ = _csr_from_triples(
            n, n, chain(block_triples(block), batch_triples))
        rebuild_times.append(time.perf_counter() - t0)

    apply_times = []
    for blk in (block, dcsr_from_coo(n, n, rows, cols, ones)):
        t0 = time.perf_counter()
        apply_batch(blk, batch, PLUS_TIMES_I64, 0, 0)
        apply_times.append(time.perf_counter() - t0)
    assert blk.nnz == row_ptr[-1]

    t_rebuild, t_apply = min(rebuild_times), min(apply_times)
    speedup = t_rebuild / t_apply
    assert speedup >= 5.0, (t_rebuild, t_apply)
    print(f"\ncriterion 7 PASS: apply {t_apply * 1e3:.0f}ms vs rebuild "
          f"{t_rebuild * 1e3:.0f}ms over {len(rows)} entries "
          f"({speedup:.1f}x >= 5x)")


def test_criterion_8_reruns_are_byte_identical():
    """The same experiment config and seed reproduces the checksum and every
    per-phase byte counter exactly."""
    cfg = dict(experiment="spgemm-algebraic", rmat_scale=4, rmat_edge_factor=4,
               q=2, batch_size=16, n_batches=4, seed=77, random_values=True)
    rec1, sum1 = run_experiment(ExperimentConfig(**cfg))
    rec2, sum2 = run_experiment(ExperimentConfig(**cfg))
    assert sum1 == sum2
    for a, b in zip(rec1, rec2):
        assert a.bytes == b.bytes
        assert (a.nnz_a, a.nnz_b, a.nnz_update, a.nnz_c, a.nnz_filtered) == \
            (b.nnz_a, b.nnz_b, b.nnz_update, b.nnz_c, b.nnz_filtered)
    print(f"\ncriterion 8 PASS: identical checksum ({sum1}) and byte "
          f"counters across reruns")
