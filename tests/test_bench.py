"""Experiment harness: graph ingestion, generators, driver, CSV, CLI."""

import copy
import csv

import numpy as np
import pytest

from dynspgemm import MIN_PLUS, OP_UPSERT, BlockPartition, DistMatrix
from dynspgemm.bench import (
    CSV_HEADER,
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    MetricsRecord,
    ResourceCapError,
    combine_checksums,
    emit_csv,
    load_edges,
    parse_csv,
    resolve_semiring,
    rmat_arrays,
    rmat_generate,
    run_experiment,
    symmetrized_pool,
    validate_config,
)
from dynspgemm.cli import _parse_rmat, build_parser, main
from dynspgemm.transport import PHASE_NAMES


# -- edge-list ingestion ---------------------------------------------------------

def _edges(tuples):
    return sorted((t.row, t.col) for t in tuples)


def test_load_edges_single_edge(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("0 1\n")
    n, tuples = load_edges(str(f))
    assert n == 2
    assert _edges(tuples) == [(0, 1), (1, 0)]
    assert all(t.op == OP_UPSERT and t.value == 1 for t in tuples)


def test_load_edges_self_loop_once(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("2 2\n")
    n, tuples = load_edges(str(f))
    assert n == 3
    assert _edges(tuples) == [(2, 2)]


def test_load_edges_triangle(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("0 1\n1 2\n0 2\n")
    n, tuples = load_edges(str(f))
    assert n >= 3
    assert len(tuples) == 6
    assert _edges(tuples) == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]


def test_load_edges_comments_blanks_and_weights(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("# header\n\n% more\n0 3 9.5\n")
    n, tuples = load_edges(str(f))
    assert n == 4
    # a trailing weight column is tolerated; values stay the identity
    assert _edges(tuples) == [(0, 3), (3, 0)]
    assert all(t.value == 1 for t in tuples)


def test_load_edges_duplicate_edges_collapse(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("0 1\n1 0\n0 1\n")
    _, tuples = load_edges(str(f))
    assert _edges(tuples) == [(0, 1), (1, 0)]


def test_load_edges_semiring_identity_value(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("0 1\n")
    _, tuples = load_edges(str(f), sr=MIN_PLUS)
    assert all(t.value == 0.0 for t in tuples)


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


# -- matrix market ingestion --------------------------------------------------------

def test_matrix_market_general(tmp_path):
    f = tmp_path / "g.mtx"
    f.write_text("%%MatrixMarket matrix coordinate integer general\n"
                 "% comment\n3 3 2\n1 2 5\n2 3 1\n")
    n, tuples = load_edges(str(f))
    assert n == 3
    assert _edges(tuples) == [(0, 1), (1, 0), (1, 2), (2, 1)]


def test_matrix_market_pattern_symmetric(tmp_path):
    f = tmp_path / "g.mtx"
    f.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n"
                 "3 3 1\n3 1\n")
    n, tuples = load_edges(str(f))
    assert n == 3
    assert _edges(tuples) == [(0, 2), (2, 0)]


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


def test_matrix_market_missing_size_line(tmp_path):
    f = tmp_path / "g.mtx"
    f.write_text("%%MatrixMarket matrix coordinate integer general\n")
    with pytest.raises(ConfigError, match="missing size line"):
        load_edges(str(f))


# -- synthetic power-law generator ------------------------------------------------

def test_rmat_scale_one_index_range():
    tuples = rmat_generate(1, 1, seed=3)
    assert len(tuples) == 2
    for t in tuples:
        assert t.row in (0, 1) and t.col in (0, 1)
        assert t.op == OP_UPSERT and t.value == 1


def test_rmat_seed_determinism():
    a = rmat_generate(6, 4, seed=11)
    b = rmat_generate(6, 4, seed=11)
    assert [(t.row, t.col) for t in a] == [(t.row, t.col) for t in b]
    c = rmat_generate(6, 4, seed=12)
    assert [(t.row, t.col) for t in a] != [(t.row, t.col) for t in c]


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


# -- checksums -------------------------------------------------------------------

def test_combine_checksums_is_order_free_xor_fold():
    parts = [(2, 0xFF), (1, 0x0F)]
    assert combine_checksums(parts) == "nnz=3;hash=00000000000000f0"
    assert combine_checksums(reversed(parts)) == combine_checksums(parts)


def test_combine_checksums_empty():
    assert combine_checksums([]) == "nnz=0;hash=0000000000000000"


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
    (dict(ell=128), "bloom bits"),
    (dict(batch_size=-1), ">= 0"),
    (dict(n_batches=-1), ">= 0"),
    (dict(ell=7), "bloom bits"),
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


# -- experiment driver ------------------------------------------------------------

def test_run_experiment_zero_batch_size_is_a_no_op():
    records, checksum = run_experiment(_cfg(batch_size=0, n_batches=3))
    assert len(records) == 3
    assert all(r.nnz_update == 0 for r in records)
    # construct starts from an empty matrix and nothing was inserted
    assert checksum == "nnz=0;hash=0000000000000000"


def test_run_experiment_record_shape_and_time_budget():
    records, _ = run_experiment(_cfg(experiment="insert", rmat_scale=4,
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
    path = tmp_path / "m.csv"
    rec = _sample_record()
    emit_csv([rec], str(path))
    back = parse_csv(str(path))
    assert len(back) == 1
    got = back[0]
    assert got.seconds == rec.seconds
    assert got.bytes == rec.bytes
    assert (got.experiment, got.q, got.batch_size, got.batch_idx,
            got.seed) == ("insert", 2, 8, 0, 7)
    assert (got.nnz_a, got.nnz_b, got.nnz_update, got.nnz_c,
            got.nnz_filtered) == (5, 6, 7, 8, 9)


def test_parse_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ConfigError, match="header"):
        parse_csv(str(path))


def test_csv_io_errors_carry_the_path(tmp_path):
    missing = tmp_path / "sub" / "m.csv"
    with pytest.raises(OSError, match="cannot write"):
        emit_csv([], str(missing))
    with pytest.raises(OSError, match="cannot read"):
        parse_csv(str(missing))


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


def test_cli_missing_input_exits_2(capsys):
    assert main(["insert", "--input", "/nonexistent/g.txt"]) == 2
    assert "/nonexistent/g.txt" in capsys.readouterr().err


def test_cli_undecodable_input_exits_2(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_bytes(b"0 1\n\xff\xfe 2\n")
    assert main(["insert", "--input", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


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
        return DistMatrix.empty_dynamic(part, comm)

    monkeypatch.setattr(bench, "summa_static", broken)
    code = main(["spgemm-algebraic", "--rmat", "scale=3,ef=2",
                 "--batch-size", "8", "--batches", "2"])
    assert code == 3
    assert "verification failed" in capsys.readouterr().err
