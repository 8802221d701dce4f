"""Experiment harness: graph ingestion, generators, driver, CSV, CLI."""

import copy
import csv
import hashlib
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynspgemm import (
    BOOLEAN,
    MIN_PLUS,
    OP_UPSERT,
    PLUS_TIMES_F64,
    PLUS_TIMES_I64,
    BlockPartition,
    DcsrBlock,
    DistMatrix,
    OP_DELETE,
    apply_batch,
    update_batch,
)
from dynspgemm import bench
from dynspgemm.bench import (
    CSV_HEADER,
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    MetricsRecord,
    ResourceCapError,
    _local_checksum,
    _modified_value,
    combine_checksums,
    emit_csv,
    load_edges,
    resolve_semiring,
    rmat_arrays,
    run_experiment,
    symmetrized_pool,
    validate_config,
)
from dynspgemm.cli import _config_from_args, _parse_rmat, build_parser, \
    main
from dynspgemm.transport import PHASE_NAMES
from helpers import block_from_triples, entry_map, loaded_block, owner_coords


# -- edge-list ingestion ---------------------------------------------------------

def _edges(rows, cols):
    return sorted(zip(rows.tolist(), cols.tolist()))


def test_load_edges_single_edge(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("0 1\n")
    n, rows, cols = load_edges(str(f))
    assert n == 2
    assert _edges(rows, cols) == [(0, 1), (1, 0)]


def test_load_edges_self_loop_once(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("2 2\n")
    n, rows, cols = load_edges(str(f))
    assert n == 3
    assert _edges(rows, cols) == [(2, 2)]


def test_load_edges_triangle(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("0 1\n1 2\n0 2\n")
    n, rows, cols = load_edges(str(f))
    assert n >= 3
    assert len(rows) == len(cols) == 6
    assert _edges(rows, cols) == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0),
                                  (2, 1)]


def test_load_edges_comments_blanks_and_weights(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("# header\n\n% more\n0 3 9.5\n")
    n, rows, cols = load_edges(str(f))
    assert n == 4
    # a trailing weight column is tolerated and not read
    assert _edges(rows, cols) == [(0, 3), (3, 0)]


def test_load_edges_duplicate_edges_collapse(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("0 1\n1 0\n0 1\n")
    _, rows, cols = load_edges(str(f))
    assert _edges(rows, cols) == [(0, 1), (1, 0)]


@pytest.mark.parametrize("body,lineno", [
    ("0\n", 1),
    ("0 1\nx y\n", 2),
    ("0 1\n\n3 -1\n", 3),
])
def test_load_edges_reports_line_numbers(tmp_path, body, lineno):
    f = tmp_path / "g.txt"
    f.write_text(body)
    with pytest.raises(ConfigError, match=f":{lineno}:"):
        load_edges(str(f))


def test_load_edges_rejects_ids_whose_keys_overflow_int64(tmp_path):
    # n vertices need keys up to n * n - 1 <= 2**63 - 1
    max_n = math.isqrt(2 ** 63 - 1)
    f = tmp_path / "g.txt"
    f.write_text(f"0 {max_n - 1}\n")
    n, rows, cols = load_edges(str(f))
    assert n == max_n
    assert _edges(rows, cols) == [(0, max_n - 1), (max_n - 1, 0)]
    f.write_text(f"0 {max_n}\n")
    with pytest.raises(ConfigError, match="int64"):
        load_edges(str(f))


# -- matrix market ingestion --------------------------------------------------------

def test_matrix_market_general(tmp_path):
    f = tmp_path / "g.mtx"
    f.write_text("%%MatrixMarket matrix coordinate integer general\n"
                 "% comment\n3 3 2\n1 2 5\n2 3 1\n")
    n, rows, cols = load_edges(str(f))
    assert n == 3
    assert _edges(rows, cols) == [(0, 1), (1, 0), (1, 2), (2, 1)]


def test_matrix_market_pattern_symmetric(tmp_path):
    f = tmp_path / "g.mtx"
    f.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n"
                 "3 3 1\n3 1\n")
    n, rows, cols = load_edges(str(f))
    assert n == 3
    assert _edges(rows, cols) == [(0, 2), (2, 0)]


@pytest.mark.parametrize("banner,match", [
    ("%%MatrixMarket matrix array real general\n", "banner"),
    ("%%MatrixMarket matrix coordinate complex general\n", "value type"),
    ("%%MatrixMarket matrix coordinate real skew-symmetric\n", "symmetry"),
])
def test_matrix_market_rejects_unsupported_banner(tmp_path, banner, match):
    f = tmp_path / "g.mtx"
    f.write_text(banner + "2 2 1\n1 2 1.0\n")
    with pytest.raises(ConfigError, match=match):
        load_edges(str(f))


def test_matrix_market_count_mismatch(tmp_path):
    f = tmp_path / "g.mtx"
    f.write_text("%%MatrixMarket matrix coordinate integer general\n"
                 "3 3 5\n1 2 5\n")
    with pytest.raises(ConfigError, match="declares 5 entries, found 1"):
        load_edges(str(f))


def test_matrix_market_index_out_of_range(tmp_path):
    f = tmp_path / "g.mtx"
    f.write_text("%%MatrixMarket matrix coordinate integer general\n"
                 "3 3 1\n1 4 5\n")
    with pytest.raises(ConfigError, match=":3:.*range"):
        load_edges(str(f))


def test_matrix_market_requires_square(tmp_path):
    f = tmp_path / "g.mtx"
    f.write_text("%%MatrixMarket matrix coordinate integer general\n"
                 "3 4 1\n1 2 5\n")
    with pytest.raises(ConfigError, match="square"):
        load_edges(str(f))


@pytest.mark.parametrize("size", ["-5 -5 0", "3 3 -1", "-3 -3 1"])
def test_matrix_market_rejects_negative_sizes(tmp_path, size):
    f = tmp_path / "g.mtx"
    f.write_text("%%MatrixMarket matrix coordinate integer general\n"
                 f"{size}\n")
    with pytest.raises(ConfigError,
                       match=f"g.mtx:2: negative size in '{size}'"):
        load_edges(str(f))


def test_matrix_market_missing_size_line(tmp_path):
    f = tmp_path / "g.mtx"
    f.write_text("%%MatrixMarket matrix coordinate integer general\n")
    with pytest.raises(ConfigError, match="missing size line"):
        load_edges(str(f))


# -- synthetic power-law generator ------------------------------------------------

def test_rmat_scale_one_index_range():
    src, dst = rmat_arrays(1, 1, seed=3)
    assert len(src) == len(dst) == 2
    assert src.dtype == dst.dtype == np.int64
    assert set(src.tolist()) <= {0, 1} and set(dst.tolist()) <= {0, 1}


# sha256 of src then dst as little-endian int64 at scale 10, edge factor 4,
# frozen from the float-select generator that the bool-logic one replaced
_RMAT_DIGESTS = {1: "d4b99524b6e9184d0a6261e43672a366",
                 2: "df078e330dc3146a484c048f0c5988f5",
                 3: "635120f527e3f4671995584f82f9c555"}


def test_rmat_seed_determinism():
    a = rmat_arrays(6, 4, seed=11)
    b = rmat_arrays(6, 4, seed=11)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = rmat_arrays(6, 4, seed=12)
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))
    for seed, want in _RMAT_DIGESTS.items():
        src, dst = rmat_arrays(10, 4, seed=seed)
        assert src.dtype == dst.dtype == np.int64
        got = hashlib.sha256(src.astype("<i8").tobytes()
                             + dst.astype("<i8").tobytes()).hexdigest()
        assert got[:32] == want, seed


@pytest.mark.parametrize("sr", [PLUS_TIMES_I64, PLUS_TIMES_F64, BOOLEAN])
def test_modified_value_matches_the_python_int_formula(sr):
    # indices up to 2**40 and a large seed: int64 products of the unreduced
    # formula would overflow
    rng = np.random.default_rng(3)
    i = rng.integers(0, 2 ** 40, size=500)
    j = rng.integers(0, 2 ** 40, size=500)
    for seed in (1, 77, 2 ** 62):
        want = [((a * 2654435761 + b * 40503 + seed * 97) % 95) + 2
                for a, b in zip(i.tolist(), j.tolist())]
        got = np.broadcast_to(_modified_value(i, j, seed, sr), (500,))
        if sr is BOOLEAN:
            assert got.tolist() == [True] * 500
        else:
            assert got.tolist() == want
            assert got.dtype == sr.np_dtype


def test_rmat_quadrant_frequencies():
    # pooled over all (edge, bit) decisions at scale 10 with 16384 edges
    scale = 10
    src, dst = rmat_arrays(scale, 16, seed=7)
    assert len(src) == 16384
    counts = np.zeros(4)
    for bit in range(scale):
        si = (src >> bit) & 1
        di = (dst >> bit) & 1
        for quad, (s, d) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            counts[quad] += int(np.sum((si == s) & (di == d)))
    freqs = counts / counts.sum()
    for got, want in zip(freqs, (0.57, 0.19, 0.19, 0.05)):
        assert abs(got - want) < 0.05


def test_symmetrized_pool_frozen_example():
    src = np.array([0, 1, 2, 0], dtype=np.int64)
    dst = np.array([1, 0, 2, 1], dtype=np.int64)
    rows, cols = symmetrized_pool(src, dst, 3)
    assert list(zip(rows.tolist(), cols.tolist())) == [(0, 1), (1, 0), (2, 2)]


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_symmetrized_pool_matches_a_unique_oracle(data):
    # small vertex ranges make duplicates, self-loops and both orientations
    # of one edge common; n = 1 and empty streams are drawn too
    n = data.draw(st.integers(1, 9))
    edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(0, n - 1)), max_size=40))
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    src, dst = pairs[:, 0], pairs[:, 1]
    rows, cols = symmetrized_pool(src, dst, n)
    want = np.unique(np.concatenate([src * n + dst, dst * n + src]))
    assert rows.dtype == cols.dtype == np.int64
    assert rows.tolist() == (want // n).tolist()
    assert cols.tolist() == (want % n).tolist()


# -- operand load -----------------------------------------------------------------

def _loads(monkeypatch, cfg):
    """The block each rank loads its operand as, by block origin, with no
    batch drawn after the load: at n_batches=0 the storage experiments
    checksum their loaded operand as it stands."""
    loads = {}
    real = bench._local_checksum

    def recording(dist, sr):
        key = (dist.row_base, dist.col_base)
        assert key not in loads
        loads[key] = dist.block
        return real(dist, sr)

    monkeypatch.setattr(bench, "_local_checksum", recording)
    run_experiment(replace(cfg, n_batches=0))
    return loads


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("experiment", ["update", "insert"])
@pytest.mark.parametrize("source", ["rmat", "file"])
def test_each_rank_loads_its_owner_mask_selection(monkeypatch, tmp_path, q,
                                                  experiment, source):
    """Each rank's operand block equals its owner-mask selection of the pool
    applied as one update batch to an empty block."""
    if source == "rmat":   # n = 32 is not a multiple of 3
        cfg = ExperimentConfig(experiment=experiment, rmat_scale=5,
                               rmat_edge_factor=4, q=q, seed=3,
                               random_values=True)
    else:                  # n = 23 is a multiple of neither 2 nor 3
        rng = np.random.default_rng(4)
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in
                                rng.integers(0, 23, size=(60, 2)).tolist())
                        + "22 22\n")
        cfg = ExperimentConfig(experiment=experiment, input_path=str(path),
                               q=q, random_values=True)
    sr = resolve_semiring(cfg)
    n, rows, cols = bench._build_pool(cfg)
    vals = bench._entry_values(cfg, sr, len(rows))
    part = BlockPartition(n, n, q)
    loads = _loads(monkeypatch, cfg)
    assert len(loads) == q * q
    for i in range(q):
        for j in range(q):
            mine = ((part.owner_grid_rows(rows) == i)
                    & (part.owner_grid_cols(cols) == j))
            if experiment == "insert":
                mine &= np.arange(len(rows)) % 2 == 0
            r0, c0 = part.row_starts[i], part.col_starts[j]
            got = loads[(r0, c0)]
            want = DcsrBlock.empty(*part.block_shape(i, j), dtype=sr.np_dtype)
            apply_batch(want, update_batch(sr, rows[mine], cols[mine],
                                           vals[mine]), sr, r0, c0)
            assert (got.n_rows, got.n_cols) == (want.n_rows, want.n_cols)
            assert got.keys().dtype == np.int64
            assert got.keys().tobytes() == want.keys().tobytes()
            assert got.vals.dtype == want.vals.dtype
            assert got.vals.tobytes() == want.vals.tobytes()


def test_operand_load_makes_no_owner_pass_over_the_pool(monkeypatch):
    """Every owner lookup of an insert run is made for routed batch
    records, never for the whole pool."""
    cfg = ExperimentConfig(experiment="insert", rmat_scale=8,
                           rmat_edge_factor=8, q=2, batch_size=16,
                           n_batches=3, seed=5)
    one_batch = cfg.q * cfg.q * cfg.batch_size
    assert len(bench._build_pool(cfg)[1]) > 4 * one_batch
    queries = []
    for name in ("owner_grid_rows", "owner_grid_cols"):
        real = getattr(BlockPartition, name)

        def counting(part, idx, real=real):
            queries.append(len(idx))
            return real(part, idx)

        monkeypatch.setattr(BlockPartition, name, counting)
    run_experiment(cfg)
    assert queries and max(queries) <= one_batch


# -- checksums -------------------------------------------------------------------

def test_combine_checksums_is_order_free_xor_fold():
    parts = [(2, 0xFF), (1, 0x0F)]
    assert combine_checksums(parts) == "nnz=3;hash=00000000000000f0"
    assert combine_checksums(reversed(parts)) == combine_checksums(parts)


def test_combine_checksums_empty():
    assert combine_checksums([]) == "nnz=0;hash=0000000000000000"


_MASK64 = (1 << 64) - 1


def _splitmix64(z):
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _reference_checksum(entries: dict, sr):
    """Per-entry loop over global positions and the wire bytes of each
    value, independent of the vectorised code."""
    acc = 0
    for (gi, gj), v in entries.items():
        bits = int.from_bytes(np.asarray([v], sr.np_dtype).tobytes(), "little")
        acc ^= _splitmix64(_splitmix64(_splitmix64(gi) ^ gj) ^ bits)
    return len(entries), acc


def _checksum(entries: dict, sr, n=6, q=1, coords=(0, 0)):
    """_local_checksum of the block at grid coords holding those entries,
    given by global position."""
    part = BlockPartition(n, n, q)
    i, j = coords
    r0, c0 = part.row_starts[i], part.col_starts[j]
    block = block_from_triples(
        *part.block_shape(i, j),
        [(gi - r0, gj - c0, v) for (gi, gj), v in entries.items()])
    return _local_checksum(DistMatrix(part, i, j, block), sr)


_BASE = {(0, 1): 5, (2, 3): 7, (4, 4): -2}


@pytest.mark.parametrize("changed", [
    {(0, 1): 6, (2, 3): 7, (4, 4): -2},    # one value
    {(0, 2): 5, (2, 3): 7, (4, 4): -2},    # one entry moved
    {(1, 0): 5, (2, 3): 7, (4, 4): -2},    # (i, j) swapped to (j, i)
    {(0, 1): 7, (2, 3): 5, (4, 4): -2},    # two values swapped
])
def test_checksum_sees_every_value_and_position(changed):
    count, h = _checksum(_BASE, PLUS_TIMES_I64)
    count2, h2 = _checksum(changed, PLUS_TIMES_I64)
    assert count == count2 == 3
    assert h != h2


def test_checksum_ignores_insertion_and_delete_history():
    part = BlockPartition(6, 6, 1)
    x = block_from_triples(6, 6, [(0, 1, 5), (0, 4, 9), (2, 3, 7)])
    # y reaches the same entries through overwrites, a delete and a
    # reinsert, in two batches
    y = loaded_block(6, 6, [(2, 3, 7), (0, 4, 0), (0, 5, 1), (0, 1, 5)],
                     PLUS_TIMES_I64)
    apply_batch(y, update_batch(PLUS_TIMES_I64, [0, 0, 0], [4, 5, 5],
                                [9, 0, 0], [OP_UPSERT, OP_DELETE, OP_DELETE]),
                PLUS_TIMES_I64, 0, 0)
    assert entry_map(y) == entry_map(x)
    assert _local_checksum(DistMatrix(part, 0, 0, x), PLUS_TIMES_I64) == \
        _local_checksum(DistMatrix(part, 0, 0, y), PLUS_TIMES_I64)


@pytest.mark.parametrize("sr,entries,changed", [
    (PLUS_TIMES_I64, {(0, 0): 0, (1, 2): -(2 ** 63), (3, 1): 2 ** 63 - 1},
     {(0, 0): 1, (1, 2): -(2 ** 63), (3, 1): 2 ** 63 - 1}),
    (PLUS_TIMES_F64, {(0, 0): 0.5, (1, 2): -3.0, (3, 1): 1e300},
     {(0, 0): 0.5, (1, 2): -3.0, (3, 1): 1e300 * (1 + 2 ** -52)}),
    (MIN_PLUS, {(0, 0): float("inf"), (1, 2): 0.0, (3, 1): 4.0},
     {(0, 0): 1e308, (1, 2): 0.0, (3, 1): 4.0}),
    (BOOLEAN, {(0, 0): True, (1, 2): False, (3, 1): True},
     {(0, 0): True, (1, 2): True, (3, 1): True}),
])
def test_checksum_per_semiring_matches_reference(sr, entries, changed):
    for m in (entries, changed):
        assert _checksum(m, sr) == _reference_checksum(m, sr)
        # the same entries split over a 2x2 grid fold to the same parts
        parts = [_checksum({p: v for p, v in m.items()
                            if owner_coords(BlockPartition(6, 6, 2), *p)
                            == (i, j)}, sr, q=2, coords=(i, j))
                 for i in range(2) for j in range(2)]
        assert combine_checksums(parts) == combine_checksums([_checksum(m, sr)])
    assert _checksum(entries, sr) != _checksum(changed, sr)


_C = bench._CHECKSUM_CHUNK


@pytest.mark.parametrize("sr", [PLUS_TIMES_I64, PLUS_TIMES_F64, MIN_PLUS,
                                BOOLEAN], ids=lambda s: s.name)
@pytest.mark.parametrize("count", [0, 1, _C - 1, _C, _C + 1, 2 * _C + 3])
def test_checksum_chunks_match_the_reference_at_chunk_boundaries(sr, count):
    rng = np.random.default_rng(count)
    n = 2 * math.isqrt(2 * count) + 4    # the (1, 1) block holds count entries
    part = BlockPartition(n, n, 2)
    r0, c0 = part.row_starts[1], part.col_starts[1]
    flat = rng.choice(part.row_sizes[1] * part.col_sizes[1], size=count,
                      replace=False)
    if sr is BOOLEAN:
        vals = rng.integers(0, 2, size=count).astype(bool).tolist()
    elif sr is PLUS_TIMES_I64:
        vals = rng.integers(-2 ** 63, 2 ** 63 - 1, size=count).tolist()
    else:
        vals = rng.normal(size=count).tolist()
    entries = {(r0 + f // part.col_sizes[1], c0 + f % part.col_sizes[1]): v
               for f, v in zip(flat.tolist(), vals)}
    got = _checksum(entries, sr, n=n, q=2, coords=(1, 1))
    assert got == _reference_checksum(entries, sr)


def test_checksum_frozen_example():
    # Any change to the mix, its constants or the value encoding must be
    # made on purpose: it changes every printed checksum.
    assert combine_checksums([_checksum(_BASE, PLUS_TIMES_I64)]) == \
        "nnz=3;hash=99f1c9e2c48e52d7"
    assert combine_checksums([_checksum({}, PLUS_TIMES_I64)]) == \
        "nnz=0;hash=0000000000000000"


# Outputs of a fixed small run of every experiment (R-MAT scale 8, ef 8,
# three batches of 16 updates per rank, seed 5): the checksum string and the
# total bytes moved. Every value is an integer, so a port of the local layer
# to other arithmetic must reproduce them bit for bit, and every wire size
# depends only on listed rows and nnz. semiring None is the default.
_FROZEN_RUNS = [
    ("construct", 1, False, None, "nnz=48;hash=c76739c1920f3426", 0),
    ("construct", 1, True, None, "nnz=48;hash=97aaac60ce8d68a5", 0),
    ("construct", 2, False, None, "nnz=192;hash=12e1e6958a4b2496", 9350),
    ("construct", 2, True, None, "nnz=192;hash=f16447eb76026305", 9350),
    ("insert", 1, False, None, "nnz=1376;hash=66bd515b09f91913", 0),
    ("insert", 1, True, None, "nnz=1376;hash=9f409cdea65d6d38", 0),
    ("insert", 2, False, None, "nnz=1520;hash=e26d949aeadfd70c", 9750),
    ("insert", 2, True, None, "nnz=1520;hash=88f5935ac055c69a", 9750),
    ("update", 1, False, None, "nnz=2656;hash=24b9e036bb0ec3a7", 0),
    ("update", 1, True, None, "nnz=2656;hash=f5026d1929d2b1f6", 0),
    ("update", 2, False, None, "nnz=2656;hash=ac371db601ee29f9", 9350),
    ("update", 2, True, None, "nnz=2656;hash=cec4a44633f940b8", 9350),
    ("delete", 1, False, None, "nnz=2608;hash=3d96dcfff5468f30", 0),
    ("delete", 1, True, None, "nnz=2608;hash=ec2d51d0679afd61", 0),
    ("delete", 2, False, None, "nnz=2464;hash=e81003abed029f80", 9350),
    ("delete", 2, True, None, "nnz=2464;hash=8ae3ba5bdf15f6c1", 9350),
    ("spgemm-algebraic", 1, False, None, "nnz=1746;hash=46c1824b19307711", 0),
    ("spgemm-algebraic", 1, True, None, "nnz=1746;hash=bbb150400ebbf8cc", 0),
    ("spgemm-algebraic", 2, False, None, "nnz=5875;hash=3458f50628b654ac", 129958),
    ("spgemm-algebraic", 2, True, None, "nnz=5875;hash=c1c841a3f704c8bd", 129958),
    ("spgemm-general", 1, False, None, "nnz=1746;hash=337df34d89022581", 0),
    ("spgemm-general", 1, True, None, "nnz=1746;hash=3d2e96a96b1088e0", 0),
    ("spgemm-general", 2, False, None, "nnz=5875;hash=b6770ae57c7cea97", 313190),
    ("spgemm-general", 2, True, None, "nnz=5875;hash=26d7c93d45357f15", 313190),
    ("spgemm-static", 1, False, None, "nnz=1746;hash=46c1824b19307711", 0),
    ("spgemm-static", 1, True, None, "nnz=1746;hash=bbb150400ebbf8cc", 0),
    ("spgemm-static", 2, False, None, "nnz=5875;hash=3458f50628b654ac", 278150),
    ("spgemm-static", 2, True, None, "nnz=5875;hash=c1c841a3f704c8bd", 278150),
    ("spgemm-algebraic", 2, False, "bool", "nnz=5875;hash=904cd0ce737fc0a7", 76254),
    ("spgemm-algebraic", 2, False, "plus-times-f64", "nnz=5875;hash=f6f35ceea3fb3292", 129958),
    ("spgemm-static", 2, False, "bool", "nnz=5875;hash=904cd0ce737fc0a7", 158604),
    ("spgemm-static", 2, False, "plus-times-f64", "nnz=5875;hash=f6f35ceea3fb3292", 278150),
    ("update", 2, True, "bool", "nnz=2656;hash=faf1e53e6749bb16", 6732),
    ("spgemm-general", 2, True, "bool", "nnz=5875;hash=904cd0ce737fc0a7", 255062),
    ("spgemm-algebraic", 2, True, "bool", "nnz=5875;hash=904cd0ce737fc0a7", 76254),
]


@pytest.mark.parametrize("experiment,q,random_values,semiring,checksum,nbytes",
                         _FROZEN_RUNS)
def test_frozen_checksums_and_bytes(experiment, q, random_values, semiring,
                                    checksum, nbytes):
    records, got = run_experiment(ExperimentConfig(
        experiment=experiment, rmat_scale=8, rmat_edge_factor=8, q=q,
        batch_size=16, n_batches=3, seed=5, random_values=random_values,
        semiring=semiring))
    assert got == checksum
    assert sum(sum(r.bytes.values()) for r in records) == nbytes


# Per batch of the q=2 _FROZEN_RUNS configuration: (nnz_a, nnz_b, nnz_update,
# nnz_c, nnz_filtered) and the phases with a non-zero byte count.
_FROZEN_RECORDS = {
    "construct": [
        ((64, 0, 64, 0, 0), {"redistribute": 2800}),
        ((128, 0, 64, 0, 0), {"redistribute": 3450}),
        ((192, 0, 64, 0, 0), {"redistribute": 3100})],
    "insert": [
        ((1392, 0, 64, 0, 0), {"redistribute": 3200}),
        ((1456, 0, 64, 0, 0), {"redistribute": 3500}),
        ((1520, 0, 64, 0, 0), {"redistribute": 3050})],
    "update": [
        ((2656, 0, 64, 0, 0), {"redistribute": 2800}),
        ((2656, 0, 64, 0, 0), {"redistribute": 3450}),
        ((2656, 0, 64, 0, 0), {"redistribute": 3100})],
    "delete": [
        ((2592, 0, 64, 0, 0), {"redistribute": 2800}),
        ((2528, 0, 64, 0, 0), {"redistribute": 3450}),
        ((2464, 0, 64, 0, 0), {"redistribute": 3100})],
    "spgemm-algebraic": [
        ((64, 2656, 64, 2618, 0),
         {"redistribute": 2800, "transpose_exchange": 1344,
          "broadcast": 2560, "aggregate": 43328}),
        ((128, 2656, 64, 4303, 0),
         {"redistribute": 3450, "transpose_exchange": 1312,
          "broadcast": 2560, "aggregate": 33376}),
        ((192, 2656, 64, 5875, 0),
         {"redistribute": 3100, "transpose_exchange": 1216,
          "broadcast": 2560, "aggregate": 32352})],
    "spgemm-general": [
        ((64, 2656, 64, 2618, 64),
         {"redistribute": 2800, "transpose_exchange": 2016,
          "broadcast": 46928, "aggregate": 65920}),
        ((128, 2656, 64, 4303, 92),
         {"redistribute": 3450, "transpose_exchange": 2352,
          "broadcast": 38224, "aggregate": 53904}),
        ((192, 2656, 64, 5875, 111),
         {"redistribute": 3100, "transpose_exchange": 2560,
          "broadcast": 39024, "aggregate": 52912})],
    "spgemm-static": [
        ((64, 2656, 64, 2618, 0),
         {"redistribute": 2800, "broadcast": 87552}),
        ((128, 2656, 64, 4303, 0),
         {"redistribute": 3450, "broadcast": 89600}),
        ((192, 2656, 64, 5875, 0),
         {"redistribute": 3100, "broadcast": 91648})],
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_frozen_records(experiment):
    records, _ = run_experiment(ExperimentConfig(
        experiment=experiment, rmat_scale=8, rmat_edge_factor=8, q=2,
        batch_size=16, n_batches=3, seed=5))
    got = [((r.nnz_a, r.nnz_b, r.nnz_update, r.nnz_c, r.nnz_filtered), r.bytes)
           for r in records]
    want = [(counts, {**dict.fromkeys(PHASE_NAMES, 0), **nbytes})
            for counts, nbytes in _FROZEN_RECORDS[experiment]]
    assert got == want


# -- config validation ----------------------------------------------------------

def _cfg(**kw):
    base = dict(experiment="construct", rmat_scale=3)
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.mark.parametrize("kw,match", [
    (dict(experiment="sort"), "unknown experiment"),
    (dict(rmat_scale=None), "exactly one"),
    (dict(input_path="x", rmat_scale=3), "exactly one"),
    (dict(rmat_scale=0), "scale"),
    (dict(rmat_scale=25), "scale"),
    (dict(rmat_edge_factor=0), "edge factor"),
    (dict(q=0), "grid side"),
    (dict(seed=-1), "seed"),
    (dict(batch_size=-1), ">= 0"),
    (dict(n_batches=-1), ">= 0"),
    (dict(seed=-(2 ** 63)), "seed"),
    (dict(semiring="max-plus"), "unknown semiring"),
])
def test_validate_config_rejections(kw, match):
    with pytest.raises(ConfigError, match=match):
        validate_config(_cfg(**kw))


def test_semiring_defaults_per_experiment():
    assert resolve_semiring(_cfg(experiment="spgemm-general")).name == "min-plus"
    assert resolve_semiring(_cfg(experiment="spgemm-algebraic")).name == \
        "plus-times-i64"
    assert resolve_semiring(_cfg(semiring="bool")).name == "bool"


def test_experiment_names_frozen():
    assert EXPERIMENTS == ("construct", "insert", "update", "delete",
                           "spgemm-algebraic", "spgemm-general",
                           "spgemm-static")


def test_validate_config_bounds_the_grid_side():
    # only validated: a run at q = 33 would start 1089 rank threads
    validate_config(_cfg(q=32))
    for q in (33, 1000):
        with pytest.raises(ConfigError, match=r"grid side must be in \[1, 32\]"):
            validate_config(_cfg(q=q))


# -- experiment presets -----------------------------------------------------------

_SMALL = dict(rmat_scale=6, rmat_edge_factor=4, seed=3)


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_zero_batch_run_checksums_its_starting_state(experiment, q):
    """With no batch, a run checksums what its preset starts from: nothing
    for construct and for the products (A starts empty, so C = A . B is
    empty, the static product computed after the loop included), the whole
    pool for update and delete, and the even pool indices for insert, at
    any grid side."""
    cfg = ExperimentConfig(experiment=experiment, q=q, n_batches=0,
                           **_SMALL)
    records, checksum = run_experiment(cfg)
    _, rows, cols = bench._build_pool(cfg)
    pool = list(zip(rows.tolist(), cols.tolist()))
    want = {"insert": pool[::2], "update": pool, "delete": pool}.get(
        experiment, [])
    assert records == []
    assert checksum == combine_checksums(
        [_reference_checksum(dict.fromkeys(want, 1), PLUS_TIMES_I64)])


def _preset_run(monkeypatch, a0, op, path, **kw):
    """run_experiment of a preset that only the calling test defines."""
    name = f"test-{a0}-{op}-{path}"
    monkeypatch.setitem(bench._PRESETS, name, bench._Preset(a0, op, path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no skipped check
        return run_experiment(ExperimentConfig(
            experiment=name, semiring="min-plus", **_SMALL, **kw))


def _small_pool_size():
    return len(bench._build_pool(_cfg(**_SMALL))[1])


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("op", ["delete", "modify"])
def test_a_preset_added_in_the_test_needs_no_worker_code(monkeypatch, op, q):
    """A loaded A with delete or modify batches, on the general path (its
    product checked against a recompute) and the static path: both end at
    the same product, and the batches changed A as their op says."""
    runs = {path: _preset_run(monkeypatch, "pool", op, path, q=q,
                              batch_size=8, n_batches=3)
            for path in ("general", "static")}
    assert runs["general"][1] == runs["static"][1]
    drawn = 3 * 8 * q * q
    for records, _ in runs.values():
        assert [r.nnz_update for r in records] == [8 * q * q] * 3
        assert records[-1].nnz_a == \
            _small_pool_size() - (drawn if op == "delete" else 0)


def test_a_static_preset_with_no_batch_checksums_its_starting_product(
        monkeypatch):
    """The static product of a run with no batch is computed after the
    loop: with A loaded it is the pool's square, as the general path's
    initial product is."""
    general = _preset_run(monkeypatch, "pool", "insert", "general", q=2,
                          n_batches=0)[1]
    static = _preset_run(monkeypatch, "pool", "insert", "static", q=2,
                         n_batches=0)[1]
    assert static == general
    nnz = int(static.split(";")[0].removeprefix("nnz="))
    assert nnz > _small_pool_size()


# -- experiment driver ------------------------------------------------------------

def test_run_experiment_zero_batch_size_is_a_no_op():
    records, checksum = run_experiment(_cfg(batch_size=0, n_batches=3))
    assert len(records) == 3
    assert all(r.nnz_update == 0 for r in records)
    # construct starts from an empty matrix and nothing was inserted
    assert checksum == "nnz=0;hash=0000000000000000"


@pytest.mark.parametrize("experiment", ["insert", "spgemm-algebraic",
                                        "spgemm-general", "spgemm-static"])
def test_run_experiment_record_shape_and_time_budget(experiment):
    records, _ = run_experiment(_cfg(experiment=experiment, rmat_scale=4,
                                     q=2, batch_size=8, n_batches=3))
    assert [r.batch_idx for r in records] == [0, 1, 2]
    for r in records:
        assert set(r.seconds) == set(PHASE_NAMES)
        assert set(r.bytes) == set(PHASE_NAMES)
        # phases are disjoint sub-intervals of the batch wall time
        assert sum(r.seconds.values()) <= r.total_seconds + 1e-4
        assert r.q == 2 and r.batch_size == 8 and r.seed == 1


@pytest.mark.parametrize("experiment", ["construct", "insert", "update",
                                        "delete"])
def test_local_experiments_run_and_checksum(experiment):
    records, checksum = run_experiment(_cfg(
        experiment=experiment, rmat_scale=4, rmat_edge_factor=2,
        batch_size=16, n_batches=4, q=2))
    assert len(records) == 4
    assert checksum.startswith("nnz=")
    if experiment == "delete":
        assert records[-1].nnz_a <= records[0].nnz_a


def test_spgemm_experiments_grid_independent_checksums():
    # pool-exhausting config so the final state is the whole adjacency
    def run(exp, q):
        return run_experiment(ExperimentConfig(
            experiment=exp, rmat_scale=4, rmat_edge_factor=4, q=q,
            batch_size=32, n_batches=8, seed=5, random_values=True))[1]

    for exp in ("spgemm-algebraic", "spgemm-general", "spgemm-static"):
        sums = {q: run(exp, q) for q in (1, 2, 4)}
        assert sums[1] == sums[2] == sums[4], (exp, sums)


def test_spgemm_paths_agree_on_final_product():
    def run(exp):
        return run_experiment(ExperimentConfig(
            experiment=exp, rmat_scale=4, rmat_edge_factor=4, q=2,
            batch_size=32, n_batches=8, seed=9))[1]

    assert run("spgemm-algebraic") == run("spgemm-static")
    # min-plus differs from plus-times, so compare general against a
    # min-plus static run
    general = run_experiment(ExperimentConfig(
        experiment="spgemm-general", rmat_scale=4, rmat_edge_factor=4, q=2,
        batch_size=32, n_batches=8, seed=9))[1]
    static_mp = run_experiment(ExperimentConfig(
        experiment="spgemm-static", semiring="min-plus", rmat_scale=4,
        rmat_edge_factor=4, q=2, batch_size=32, n_batches=8, seed=9))[1]
    assert general == static_mp


def test_run_experiment_replay_is_fully_deterministic():
    cfg = ExperimentConfig(experiment="spgemm-algebraic", rmat_scale=4,
                           rmat_edge_factor=3, q=2, batch_size=8,
                           n_batches=3, seed=21, random_values=True)
    rec1, sum1 = run_experiment(copy.deepcopy(cfg))
    rec2, sum2 = run_experiment(copy.deepcopy(cfg))
    assert sum1 == sum2
    for a, b in zip(rec1, rec2):
        assert a.bytes == b.bytes
        assert (a.nnz_a, a.nnz_b, a.nnz_update, a.nnz_c, a.nnz_filtered) == \
            (b.nnz_a, b.nnz_b, b.nnz_update, b.nnz_c, b.nnz_filtered)


def test_run_experiment_flops_cap_guard():
    cfg = _cfg(experiment="spgemm-static", rmat_scale=8, rmat_edge_factor=8,
               flops_cap=10)
    with pytest.raises(ResourceCapError, match="exceeds cap"):
        run_experiment(cfg)


def test_run_experiment_warns_when_it_skips_the_check():
    cfg = _cfg(experiment="spgemm-algebraic", batch_size=4, n_batches=1,
               verify_cap=0)
    with pytest.warns(RuntimeWarning,
                      match=r"estimated multiply work [1-9]\d* exceeds "
                            r"verify_cap 0: the product is not checked"):
        run_experiment(cfg)


def test_run_experiment_within_the_verify_cap_gives_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_experiment(_cfg(experiment="spgemm-algebraic", batch_size=4,
                            n_batches=1))


def test_run_experiment_missing_input_file():
    with pytest.raises(ConfigError, match="/nonexistent/g.txt"):
        run_experiment(ExperimentConfig(experiment="construct",
                                        input_path="/nonexistent/g.txt"))


# -- CSV output -------------------------------------------------------------------

def _sample_record():
    rec = MetricsRecord("insert", 2, 8, 0, 7)
    for k, ph in enumerate(PHASE_NAMES):
        rec.seconds[ph] = 0.125 * (k + 1)
        rec.bytes[ph] = 10 * k
    rec.nnz_a, rec.nnz_b, rec.nnz_update = 5, 6, 7
    rec.nnz_c, rec.nnz_filtered = 8, 9
    return rec


def test_emit_csv_empty_records_header_only(tmp_path):
    path = tmp_path / "m.csv"
    emit_csv([], str(path))
    lines = path.read_text().splitlines()
    assert lines == [",".join(CSV_HEADER)]


def test_emit_csv_one_record_six_phase_rows(tmp_path):
    path = tmp_path / "m.csv"
    emit_csv([_sample_record()], str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + len(PHASE_NAMES)
    assert [r[5] for r in rows[1:]] == list(PHASE_NAMES)


def test_csv_round_trip(tmp_path):
    """Every column of one record's rows, as csv.reader reads them back:
    seconds as their repr, so the float comes back bit for bit."""
    path = tmp_path / "m.csv"
    rec = _sample_record()
    emit_csv([rec], str(path))
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == CSV_HEADER
    assert rows == [
        ["insert", "2", "8", "0", "7", ph, repr(rec.seconds[ph]),
         str(rec.bytes[ph]), "5", "6", "7", "8", "9"]
        for ph in PHASE_NAMES]
    assert [float(r[6]) for r in rows] == [rec.seconds[ph]
                                           for ph in PHASE_NAMES]


def test_csv_io_errors_carry_the_path(tmp_path):
    missing = tmp_path / "sub" / "m.csv"
    with pytest.raises(OSError, match="cannot write"):
        emit_csv([], str(missing))


def test_csv_replay_identical_except_seconds(tmp_path):
    cfg = dict(experiment="spgemm-algebraic", rmat_scale=4,
               rmat_edge_factor=3, q=2, batch_size=8, n_batches=3, seed=33)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_experiment(ExperimentConfig(**cfg))[0], str(p1))
    emit_csv(run_experiment(ExperimentConfig(**cfg))[0], str(p2))

    def strip_seconds(path):
        with open(path, newline="") as fh:
            return [tuple(r[:6] + r[7:]) for r in csv.reader(fh)]

    assert strip_seconds(p1) == strip_seconds(p2)


# -- CLI -------------------------------------------------------------------------

def test_parse_rmat_spec():
    assert _parse_rmat("scale=5") == (5, 16)
    assert _parse_rmat("scale=5,ef=3") == (5, 3)
    for bad in ("ef=3", "scale=x", "scale=5,foo=1", "scale"):
        with pytest.raises(ConfigError):
            _parse_rmat(bad)


def test_cli_defaults_are_the_config_defaults():
    """Every flag left out takes ExperimentConfig's own default."""
    args = build_parser().parse_args(["insert", "--rmat", "scale=4"])
    got = _config_from_args(args)
    want = ExperimentConfig("insert", rmat_scale=4)
    for f in fields(ExperimentConfig):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


def test_cli_requires_experiment_and_source():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["construct"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["sort", "--rmat", "scale=3"])


def test_cli_success_prints_checksum_and_writes_csv(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = main(["construct", "--rmat", "scale=3,ef=2", "--batches", "2",
                 "--batch-size", "4", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "checksum nnz=" in stdout
    assert "batch 0:" in stdout
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_HEADER
    assert len(rows) == 1 + 2 * len(PHASE_NAMES)


def test_cli_bad_config_exits_2(capsys):
    assert main(["construct", "--rmat", "scale=99"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_negative_seed_exits_2(capsys):
    assert main(["insert", "--rmat", "scale=4", "--seed", "-1"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


def test_cli_has_no_bitfield_width_option(capsys):
    # the general update keeps no bitfields; argparse exits 2 on an unknown
    # option
    with pytest.raises(SystemExit) as exc:
        main(["spgemm-general", "--rmat", "scale=3", "--bloom-bits", "64"])
    assert exc.value.code == 2
    assert "--bloom-bits" in capsys.readouterr().err


def test_cli_missing_input_exits_2(capsys):
    assert main(["insert", "--input", "/nonexistent/g.txt"]) == 2
    assert "/nonexistent/g.txt" in capsys.readouterr().err


def test_cli_undecodable_input_exits_2(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_bytes(b"0 1\n\xff\xfe 2\n")
    assert main(["insert", "--input", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


def test_cli_negative_matrix_market_size_exits_2(tmp_path, capsys):
    path = tmp_path / "neg.mtx"
    path.write_text("%%MatrixMarket matrix coordinate pattern general\n"
                    "-5 -5 0\n")
    assert main(["construct", "--input", str(path)]) == 2
    assert f"{path}:2: negative size" in capsys.readouterr().err


def test_cli_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "m.csv"
    assert main(["construct", "--rmat", "scale=3,ef=2", "--batches", "1",
                 "--batch-size", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


def test_cli_resource_cap_exits_4(tmp_path, capsys):
    # a star graph: the hub's squared degree blows past the default cap
    star = tmp_path / "star.txt"
    hub_deg = 10_200
    star.write_text("".join(f"0 {i}\n" for i in range(1, hub_deg + 1)))
    code = main(["spgemm-static", "--input", str(star)])
    assert code == 4
    assert "refusing to run" in capsys.readouterr().err


def test_cli_verification_failure_exits_3(monkeypatch, capsys):
    import dynspgemm.bench as bench

    def broken(comm, a, b, sr, phases=None):
        part = BlockPartition(a.part.n_rows, b.part.n_cols, comm.q)
        return DistMatrix.empty(part, comm, sr)

    monkeypatch.setattr(bench, "summa_static", broken)
    code = main(["spgemm-algebraic", "--rmat", "scale=3,ef=2",
                 "--batch-size", "8", "--batches", "2"])
    assert code == 3
    assert "verification failed" in capsys.readouterr().err


def test_cli_verification_catches_one_changed_value(monkeypatch, capsys):
    # The recompute differs from the maintained product in one value only,
    # so the entry counts still agree.
    import dynspgemm.bench as bench
    real = bench.summa_static
    changed = []

    def off_by_one(comm, a, b, sr, phases=None):
        c = real(comm, a, b, sr)
        c.block.vals[0] += 1
        changed.append(c.block.nnz)
        return c

    monkeypatch.setattr(bench, "summa_static", off_by_one)
    code = main(["spgemm-algebraic", "--rmat", "scale=3,ef=2",
                 "--batch-size", "8", "--batches", "2"])
    assert code == 3
    assert "verification failed" in capsys.readouterr().err
    assert len(changed) == 1 and changed[0] > 0


def test_cli_summary_reports_the_size_of_the_maintained_matrix(capsys):
    assert main(["insert", "--rmat", "scale=1,ef=1", "--grid", "3",
                 "--batches", "1", "--batch-size", "1"]) == 0
    out = capsys.readouterr().out
    assert "nnz_a=3," in out and "nnz_c" not in out
    assert "checksum nnz=3;" in out
    assert main(["spgemm-algebraic", "--rmat", "scale=3,ef=2",
                 "--batch-size", "8", "--batches", "1"]) == 0
    out = capsys.readouterr().out
    batch_line, checksum_line = out.splitlines()
    assert "nnz_a" not in batch_line
    nnz_c = batch_line.split("nnz_c=")[1].split(",")[0]
    assert checksum_line.startswith(f"checksum nnz={nnz_c};")
