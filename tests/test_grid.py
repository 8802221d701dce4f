"""Process grid layout and block ownership arithmetic."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from dynspgemm import BlockPartition, ProcessGrid, split_range
from helpers import owner_coords, owner_grid_col, owner_grid_row, to_local


def test_grid_rank_layout_round_trip():
    for q in (1, 2, 3, 4):
        g = ProcessGrid(q)
        assert g.p == q * q
        seen = set()
        for i in range(q):
            for j in range(q):
                r = g.rank_of(i, j)
                assert g.coords_of(r) == (i, j)
                seen.add(r)
        assert seen == set(range(q * q))


def test_grid_row_major_order():
    g = ProcessGrid(3)
    assert g.rank_of(0, 0) == 0
    assert g.rank_of(0, 2) == 2
    assert g.rank_of(1, 0) == 3
    assert g.rank_of(2, 2) == 8


def test_for_ranks_rejects_non_square():
    for p in (2, 3, 5, 6, 7, 8, 10, 12):
        with pytest.raises(ValueError):
            ProcessGrid.for_ranks(p)
    assert ProcessGrid.for_ranks(9).q == 3
    assert ProcessGrid.for_ranks(1).q == 1


def test_transpose_rank_is_an_involution():
    for q in (1, 2, 3, 5):
        g = ProcessGrid(q)
        for r in range(g.p):
            t = g.transpose_rank(r)
            assert g.transpose_rank(t) == r
            i, j = g.coords_of(r)
            assert g.coords_of(t) == (j, i)
        for d in range(q):
            assert g.transpose_rank(g.rank_of(d, d)) == g.rank_of(d, d)


def test_row_and_col_members():
    g = ProcessGrid(3)
    assert g.row_members(1) == [3, 4, 5]
    assert g.col_members(1) == [1, 4, 7]
    union = {r for i in range(3) for r in g.row_members(i)}
    assert union == set(range(9))


def test_split_range_balanced():
    assert split_range(5, 2) == [3, 2]
    assert split_range(4, 2) == [2, 2]
    assert split_range(10, 4) == [3, 3, 2, 2]
    assert split_range(3, 4) == [1, 1, 1, 0]
    for n in range(0, 40):
        for q in range(1, 7):
            sizes = split_range(n, q)
            assert sum(sizes) == n
            assert max(sizes) - min(sizes) <= 1
            assert sizes == sorted(sizes, reverse=True)


def test_owner_examples_square_4():
    part = BlockPartition(4, 4, 2)
    assert owner_coords(part, 3, 0) == (1, 0)
    assert owner_coords(part, 0, 3) == (0, 1)
    assert owner_coords(part, 0, 0) == (0, 0)
    assert part.row_sizes == [2, 2]


def test_owner_example_uneven_5():
    part = BlockPartition(5, 5, 2)
    assert part.row_sizes == [3, 2]
    assert owner_grid_row(part, 2) == 0
    assert owner_grid_row(part, 3) == 1
    # global row 3 is local row 0 of the second block row
    gi, gj, li, lj = to_local(part, 3, 0)
    assert (gi, li) == (1, 0)


def test_local_global_round_trip_exhaustive():
    for n in (1, 2, 3, 5, 7, 12):
        for m in (1, 2, 4, 9, 12):
            for q in (1, 2, 3):
                if q > min(n, m):
                    continue
                part = BlockPartition(n, m, q)
                for i in range(n):
                    for j in range(m):
                        gi, gj, li, lj = to_local(part, i, j)
                        assert (gi, gj) == owner_coords(part, i, j)
                        br, bc = part.block_shape(gi, gj)
                        assert 0 <= li < br and 0 <= lj < bc
                        assert part.to_global(gi, gj, li, lj) == (i, j)


def test_every_index_has_exactly_one_owner():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 33))
        m = int(rng.integers(1, 33))
        q = int(rng.integers(1, 5))
        part = BlockPartition(n, m, q)
        # blocks tile the index space exactly
        covered = np.zeros((n, m), dtype=int)
        for gi in range(q):
            for gj in range(q):
                r0, c0 = part.row_starts[gi], part.col_starts[gj]
                br, bc = part.block_shape(gi, gj)
                covered[r0:r0 + br, c0:c0 + bc] += 1
        assert (covered == 1).all()


def test_block_starts_are_prefix_sums():
    part = BlockPartition(11, 7, 3)
    assert part.row_starts == [0, 4, 8, 11]
    assert part.col_starts == [0, 3, 5, 7]
    assert part.block_shape(0, 0) == (4, 3)
    assert part.block_shape(2, 2) == (3, 2)


def test_out_of_range_and_bad_grid_rejected():
    part = BlockPartition(4, 4, 2)
    with pytest.raises(ValueError):
        owner_grid_row(part, 4)
    with pytest.raises(ValueError):
        owner_grid_col(part, -1)
    with pytest.raises(ValueError):
        BlockPartition(4, 4, 0)
    with pytest.raises(ValueError):
        ProcessGrid(2).rank_of(2, 0)
    with pytest.raises(ValueError):
        ProcessGrid(2).coords_of(4)
    with pytest.raises(ValueError):
        part.to_global(0, 0, 2, 0)


def test_owner_array_form_matches_the_scalar_owner():
    for n, q in ((1, 1), (3, 4), (5, 8), (7, 3), (12, 5), (37, 2), (64, 4)):
        part = BlockPartition(n, n + 3, q)
        rows = np.arange(n)
        cols = np.arange(n + 3)
        assert part.owner_grid_rows(rows).tolist() == \
            [owner_grid_row(part, i) for i in range(n)]
        assert part.owner_grid_cols(cols).tolist() == \
            [owner_grid_col(part, j) for j in range(n + 3)]


def test_range_checks_survive_optimized_mode():
    # python -O strips assert statements; validation must not depend on them
    script = textwrap.dedent("""
        from dynspgemm import (BlockPartition, DcsrBlock, PLUS_TIMES_I64,
                               ProcessGrid, apply_batch, redistribute_updates,
                               run_spmd, update_batch)
        part = BlockPartition(8, 8, 1)
        far = update_batch(PLUS_TIMES_I64, [8], [0])
        stray = update_batch(PLUS_TIMES_I64, [9], [20])
        for call in (lambda: BlockPartition(8, 8, 2).to_global(1, 0, 4, 0),
                     lambda: ProcessGrid(2).rank_of(2, 0),
                     lambda: run_spmd(1, lambda comm: redistribute_updates(
                         comm, part, far, PLUS_TIMES_I64)),
                     lambda: apply_batch(DcsrBlock.empty(2, 2), stray,
                                         PLUS_TIMES_I64, 10, 20),
                     lambda: DcsrBlock(2, 2, [3, 1], [1, 1]).check()):
            try:
                print("returned", call())
            except ValueError:
                print("raised")
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["raised"] * 5
