"""End-to-end command surface: exit codes, emitted files, replayability."""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspc import cli
from tspc.citests import BootstrapConfig, decoupled_pair_gamma
from tspc.cli import main
from tspc.data import DataMatrix, ingest_csv, write_csv
from tspc.graphs import Pdag, RolledGraph, to_json
from tspc.pc import PcConfig
from tspc.reproduce import SweepConfig
from tspc.rng import STREAM_CALIBRATE, STREAM_SUBSAMPLE, derive_seed
from tspc.simulate import SimConfig, generate
from tspc.tpc import TpcnsConfig, WindowConfig, tpcns

MOTIF_JSON = to_json(RolledGraph(4, frozenset({(0, 2), (1, 2), (2, 3)})))


def chain_csv(path, n=800, seed=77):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = x + rng.normal(size=n)
    z = y + rng.normal(size=n)
    write_csv(DataMatrix(np.column_stack([x, y, z])), path)
    return path


def linvar_csv(path):
    data = generate(
        SimConfig(paradigm="LinearGaussianVAR", eta=1.0, n=1000, seed=derive_seed(100, 0))
    )
    write_csv(data, path)
    return path


class TestSimulate:
    def test_writes_csv_and_config(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main([
            "simulate", "--paradigm", "LinearGaussianVAR",
            "--eta", "1.0", "--n", "50", "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        assert "data.csv" in capsys.readouterr().out
        assert (out / "config.txt").exists()
        data = ingest_csv(out / "data.csv")
        assert (data.n, data.p) == (50, 4)
        assert data.names() == ("X1", "X2", "X3", "X4")

    def test_csv_round_trip_is_bit_exact(self, tmp_path):
        out = tmp_path / "run"
        main([
            "simulate", "--paradigm", "ContemporaneousVARMA",
            "--n", "200", "--seed", "11", "--out", str(out),
        ])
        read_back = ingest_csv(out / "data.csv")
        direct = generate(SimConfig(paradigm="ContemporaneousVARMA", n=200, seed=11))
        assert np.array_equal(read_back.values, direct.values)

    def test_same_seed_same_bytes(self, tmp_path):
        for name in ("a", "b"):
            main([
                "simulate", "--paradigm", "CTRNN", "--n", "100",
                "--seed", "5", "--out", str(tmp_path / name),
            ])
        assert (tmp_path / "a" / "data.csv").read_bytes() == (
            tmp_path / "b" / "data.csv"
        ).read_bytes()

    def test_bad_eta_is_usage_error(self, tmp_path, capsys):
        rc = main([
            "simulate", "--paradigm", "CTRNN", "--eta", "-1",
            "--out", str(tmp_path / "x"),
        ])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("paradigm,n", [
        ("LinearGaussianVAR", 1), ("CTRNN", 2), ("CTRNN", 3),
    ])
    def test_too_short_series_is_usage_error(self, tmp_path, capsys, paradigm, n):
        out = tmp_path / "x"
        rc = main(["simulate", "--paradigm", paradigm, "--n", str(n), "--out", str(out)])
        assert rc == 2
        assert f"error: n={n}" in capsys.readouterr().err
        assert not out.exists()


class TestDiscover:
    def test_pc_on_chain_leaves_both_edges_undirected(self, tmp_path, capsys):
        data = chain_csv(tmp_path / "chain.csv")
        out = tmp_path / "out"
        rc = main(["discover", "--method", "pc", "--in", str(data), "--out", str(out)])
        assert rc == 0
        g = json.loads((out / "graph.json").read_text())
        assert g["directed"] == []
        assert sorted(g["undirected"]) == [[1, 2], [2, 3]]
        decisions = (out / "decisions.csv").read_text().splitlines()
        assert decisions[0] == "i,j,k,statistic,threshold,independent"
        assert len(decisions) > 1

    @pytest.mark.parametrize("test,flags", [
        ("gaussian", []),
        ("hsic", ["--bootstrap-replicates", "20", "--block-length", "10"]),
    ])
    def test_pc_ignores_window_flags(self, tmp_path, test, flags):
        data = chain_csv(tmp_path / "chain.csv", n=120)
        outputs = []
        for name, window in (("plain", []), ("windowed", ["--tau", "3", "--stride", "1"])):
            out = tmp_path / name
            rc = main(["discover", "--method", "pc", "--test", test, *flags, *window,
                       "--formats", "json,csv,dot", "--in", str(data), "--out", str(out)])
            assert rc == 0
            outputs.append({f.name: f.read_bytes() for f in out.iterdir()
                            if f.name != "config.txt"})
        assert sorted(outputs[0]) == ["decisions.csv", "graph.dot", "graph.json",
                                      "graph_edges.csv"]
        assert outputs[0] == outputs[1]

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main([
            "discover", "--method", "pc",
            "--in", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_oversized_field_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "wide.csv"
        data.write_text('a,b\n"1",2\n3,' + "4" * 140_000 + "\n5,6\n")
        rc = main(["discover", "--method", "pc", "--in", str(data), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "wide.csv: line 3: field larger than field limit" in capsys.readouterr().err

    def test_oracle_requires_truth(self, tmp_path, capsys):
        data = chain_csv(tmp_path / "chain.csv")
        rc = main([
            "discover", "--method", "pc", "--test", "oracle",
            "--in", str(data), "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert "--truth" in capsys.readouterr().err

    @pytest.mark.parametrize("truth,message", [
        (None, "truth graph not found"),
        (to_json(Pdag(3, undirected=frozenset({(0, 1)}))),
         "not a usable truth graph: truth must be fully directed"),
        (to_json(RolledGraph(4, frozenset())), "truth has 4 nodes but the search runs on 3"),
        ('{"p": 3, "directed": [[1, 2.0]]}',
         "'directed' entry [1, 2.0] is not a pair of integers in [1, 3]"),
    ])
    def test_unusable_truth_is_usage_error_naming_the_file(self, tmp_path, capsys, truth,
                                                           message):
        data = chain_csv(tmp_path / "chain.csv", n=100)
        path = tmp_path / "truth.json"
        if truth is not None:
            path.write_text(truth)
        out = tmp_path / "o"
        rc = main(["discover", "--method", "pc", "--test", "oracle", "--truth", str(path),
                   "--in", str(data), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "truth.json" in err and message in err
        assert not out.exists()

    def test_unknown_format_rejected(self, tmp_path, capsys):
        data = chain_csv(tmp_path / "chain.csv")
        rc = main([
            "discover", "--method", "pc", "--formats", "svg",
            "--in", str(data), "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert "svg" in capsys.readouterr().err

    def test_constant_column_is_runtime_error_with_record(self, tmp_path, capsys):
        bad = tmp_path / "flat.csv"
        write_csv(
            DataMatrix(np.column_stack([np.full(50, 2.0), np.linspace(0, 1, 50)])),
            bad,
        )
        out = tmp_path / "o"
        rc = main(["discover", "--method", "pc", "--in", str(bad), "--out", str(out)])
        assert rc == 1
        record = json.loads((out / "error.json").read_text())
        assert record["type"] == "CiQueryError"
        assert "degenerate" in record["message"]

    @pytest.mark.parametrize("column,code", [(4, 1), (1, 2)])
    def test_overflowing_kernel_column_is_named(self, tmp_path, capsys, column, code):
        # column 4 overflows in the search (a runtime error), column 1 in the
        # calibration pair (a configuration error, like its other checks)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(60, 4))
        x[:, column - 1] = 1e300 * rng.normal(size=60)
        src = tmp_path / "big.csv"
        write_csv(DataMatrix(x), src)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["discover", "--method", "pc", "--test", "hsic",
                       "--bootstrap-replicates", "20", "--block-length", "5",
                       "--in", str(src), "--out", str(tmp_path / "o")])
        assert rc == code
        assert f"kernel distances are not finite in column(s) {column}:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,rows", [
        (["--method", "pc"], 60),
        (["--method", "tpcs", "--tau", "2", "--stride", "1"], 59),
        (["--method", "tpcns", "--tau", "2", "--stride", "1", "--L", "25"], 25),
    ])
    def test_constant_calibration_column_is_named(self, tmp_path, capsys, flags, rows):
        # every resample's statistic would be 0; the calibration names the
        # column before the bootstrap, and nothing is written
        x = np.random.default_rng(1005).normal(size=(60, 3))
        x[:, 0] = 4.0
        src = tmp_path / "flat.csv"
        write_csv(DataMatrix(x), src)
        out = tmp_path / "o"
        rc = main(["discover", *flags, "--test", "hsic", "--in", str(src), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: calibration column(s) 1: constant over all {rows} rows" in err
        assert not out.exists()

    def test_underflowing_calibration_column_is_named(self, tmp_path, capsys):
        # a column of 1e-170 noise is not constant, but every squared distance
        # underflows; it was calibrated to gamma = 0.0 and ended in "gamma
        # must be positive, got 0.0", which named no column
        x = np.random.default_rng(1006).normal(size=(300, 3))
        x[:, 0] = 1e-170 * np.random.default_rng(1007).normal(size=300)
        src = tmp_path / "tiny.csv"
        write_csv(DataMatrix(x), src)
        out = tmp_path / "o"
        rc = main(["discover", "--method", "tpcs", "--test", "hsic", "--in", str(src),
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert ("error: calibration column(s) 1: constant over all 150 rows up to float64 "
                "underflow") in err
        assert not out.exists()

    def test_subnormal_kernel_bandwidth_runs_without_warnings(self, tmp_path, capsys):
        # a column of 100 values of 1e-160 noise then 20 ordinary ones has a
        # bandwidth whose 2 h^2 is subnormal; its ordinary distances used to
        # print "overflow encountered in divide" on the way to kernel value 0
        rng = np.random.default_rng(1010)
        x = rng.normal(size=(120, 3))
        x[:, 1] = np.r_[1e-160 * rng.normal(size=100), rng.normal(size=20)]
        src = tmp_path / "tiny.csv"
        write_csv(DataMatrix(x), src)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["discover", "--method", "pc", "--test", "hsic", "--in", str(src),
                       "--out", str(tmp_path / "o")])
        assert rc == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("test", ["gaussian", "hsic"])
    @pytest.mark.parametrize("alpha", ["0", "1", "1.5"])
    def test_alpha_outside_unit_interval_is_usage_error(
        self, tmp_path, capsys, monkeypatch, test, alpha
    ):
        # one check for every test, before a kernel calibration turns alpha
        # into a bootstrap quantile (1.5 used to be named as quantile -0.5,
        # and 0 and 1 calibrated on the largest or smallest replicate)
        monkeypatch.setattr(cli, "decoupled_pair_gamma",
                            lambda *args: pytest.fail("calibration ran"))
        src = chain_csv(tmp_path / "chain.csv", n=200)
        out = tmp_path / "o"
        rc = main(["discover", "--method", "pc", "--test", test, "--alpha", alpha,
                   "--in", str(src), "--out", str(out)])
        assert rc == 2
        assert f"error: alpha must lie in (0, 1), got {float(alpha)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("test", ["gaussian", "hsic", "oracle"])
    @pytest.mark.parametrize("flags,nodes,message", [
        (["--method", "tpcs", "--tau", "100"], 300, "need at least tau=100 rows, got 60"),
        (["--method", "tpcns", "--L", "1000"], 3,
         "window length 1000 exceeds the 30 unrolled observations"),
    ])
    def test_window_the_data_cannot_fill_is_usage_error(
        self, tmp_path, capsys, test, flags, nodes, message
    ):
        # checked before calibration or the truth graph, so every test exits
        # 2 with the same message and leaves no output directory
        src = tmp_path / "short.csv"
        write_csv(DataMatrix(np.random.default_rng(1004).normal(size=(60, 3))), src)
        truth = tmp_path / "truth.json"
        truth.write_text(to_json(RolledGraph(nodes, frozenset())))
        out = tmp_path / "o"
        rc = main(["discover", *flags, "--test", test, "--truth", str(truth),
                   "--in", str(src), "--out", str(out)])
        assert rc == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,rows,message", [
        (["--method", "tpcns", "--L", "3"], 60, "got --L 3"),
        (["--method", "pc"], 3, "got 3 rows to search"),
        (["--method", "tpcs", "--tau", "2", "--stride", "2"], 7, "got 3 rows to search"),
    ])
    def test_too_few_rows_for_fisher_z_is_usage_error(self, tmp_path, capsys, flags, rows,
                                                      message):
        # the searched rows (unrolled, or --L per subsample) are checked
        # before any output is written; a fixed --gamma has no such floor
        src = tmp_path / "short.csv"
        write_csv(DataMatrix(np.random.default_rng(1005).normal(size=(rows, 3))), src)
        out = tmp_path / "o"
        rc = main(["discover", *flags, "--in", str(src), "--out", str(out)])
        assert rc == 2
        assert ("error: the Fisher-z test at level alpha needs at least 4 rows, "
                f"{message}") in capsys.readouterr().err
        assert not out.exists()
        assert main(["discover", *flags, "--gamma", "1e6", "--in", str(src),
                     "--out", str(out)]) == 0

    @pytest.mark.parametrize("flags,rows,message", [
        (["--method", "tpcns", "--L", "3"], 60, "got --L 3"),
        (["--method", "pc"], 3, "got 3 rows to search"),
    ])
    def test_too_few_rows_for_the_kernel_test_is_usage_error(self, tmp_path, capsys, flags,
                                                             rows, message):
        # at a fixed --gamma no calibration runs to reject them first
        src = tmp_path / "short.csv"
        write_csv(DataMatrix(np.random.default_rng(1006).normal(size=(rows, 3))), src)
        out = tmp_path / "o"
        rc = main(["discover", *flags, "--test", "hsic", "--gamma", "0.1", "--in", str(src),
                   "--out", str(out)])
        assert rc == 2
        assert f"error: the kernel test needs at least 4 rows, {message}" in (
            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("test", ["gaussian", "hsic"])
    @pytest.mark.parametrize("flags,message", [
        (["--L", "1"], "window length must be at least 2, got 1"),
        (["--L", "20", "--subsamples", "0"], "need at least 1 subsample, got 0"),
        (["--L", "20", "--cutoff", "2"], "frequency cutoff must lie in [0, 1], got 2.0"),
    ])
    def test_bad_subsample_settings_are_usage_errors(
        self, tmp_path, capsys, monkeypatch, test, flags, message
    ):
        # checked before the kernel calibration and before any output is written
        monkeypatch.setattr(cli, "decoupled_pair_gamma",
                            lambda *args: pytest.fail("calibration ran"))
        src = tmp_path / "short.csv"
        write_csv(DataMatrix(np.random.default_rng(1004).normal(size=(60, 3))), src)
        out = tmp_path / "o"
        rc = main(["discover", "--method", "tpcns", "--tau", "2", "--stride", "1", *flags,
                   "--test", test, "--in", str(src), "--out", str(out)])
        assert rc == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method,flags,note", [
        ("tpcs", [], "note: conditioning sets capped at size 3"),
        ("tpcns", ["--L", "6", "--subsamples", "3"],
         "note: 3 of 3 subsamples: conditioning sets capped at size 2"),
    ])
    def test_windowed_methods_print_search_notes(self, tmp_path, capsys, method, flags, note):
        # 8 rows unroll to 7 at tau 2, stride 1; alpha 0.6 never removes an
        # edge, so the Fisher-z size cap stops every search
        src = tmp_path / "short.csv"
        write_csv(DataMatrix(np.random.default_rng(1003).normal(size=(8, 4))), src)
        rc = main([
            "discover", "--method", method, "--tau", "2", "--stride", "1",
            "--alpha", "0.6", *flags, "--in", str(src), "--out", str(tmp_path / "o"),
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert err.splitlines()[0].startswith(note)

    @pytest.mark.parametrize("method,flags,values", [
        ("tpcns", ["--L", "3"], np.random.default_rng(5).normal(size=(40, 4))),
        ("pc", [], np.array([[0.346, 0.822, 0.33, -1.303], [0.905, 0.446, -0.537, 0.581],
                             [0.365, 0.294, 0.028, 0.547]])),
    ])
    def test_fixed_gamma_caps_conditioning_sets(self, tmp_path, capsys, method, flags, values):
        # on 3 rows a set of 2 columns leaves no residual variance; these
        # searches reached one and failed before the cap at n - 2
        src = tmp_path / "short.csv"
        write_csv(DataMatrix(values), src)
        out = tmp_path / "o"
        rc = main(["discover", "--method", method, "--test", "gaussian", "--gamma", "0.5",
                   *flags, "--in", str(src), "--out", str(out)])
        assert rc == 0
        assert ("conditioning sets capped at size 1: a Fisher-z residual variance needs "
                "n - |k| - 1 > 0 and the sample has 3 rows") in capsys.readouterr().err
        assert (out / "graph.json").exists() and not (out / "error.json").exists()

    def test_tpcs_emits_unrolled_and_rolled(self, tmp_path):
        data = linvar_csv(tmp_path / "lin.csv")
        out = tmp_path / "o"
        rc = main([
            "discover", "--method", "tpcs", "--tau", "2", "--stride", "2",
            "--in", str(data), "--out", str(out), "--formats", "json,csv,dot",
        ])
        assert rc == 0
        rolled = json.loads((out / "rolled.json").read_text())
        assert [1, 3] in rolled["directed"] and [3, 4] in rolled["directed"]
        assert (out / "graph.dot").exists()
        assert (out / "rolled_edges.csv").read_text().startswith("from,to,kind\n")

    def test_tpcns_seed_changes_frequencies_not_schema(self, tmp_path):
        data = linvar_csv(tmp_path / "lin.csv")
        texts = []
        for seed in (1, 2):
            out = tmp_path / f"o{seed}"
            rc = main([
                "discover", "--method", "tpcns", "--tau", "2", "--stride", "2",
                "--seed", str(seed), "--in", str(data), "--out", str(out),
            ])
            assert rc == 0
            texts.append((out / "frequencies.csv").read_text())
        assert texts[0] != texts[1]
        assert all(t.splitlines()[0] == "from,to,fraction" for t in texts)

    def test_tpcns_subsample_starts_use_keyed_stream(self, tmp_path, monkeypatch):
        data = linvar_csv(tmp_path / "lin.csv")
        results = []

        def recording_tpcns(values, config):
            results.append(tpcns(values, config))
            return results[-1]

        monkeypatch.setattr(cli, "tpcns", recording_tpcns)
        rc = main([
            "discover", "--method", "tpcns", "--tau", "2", "--stride", "2",
            "--subsamples", "5", "--seed", "4", "--in", str(data), "--out", str(tmp_path / "o"),
        ])
        assert rc == 0
        expected = tpcns(ingest_csv(data), TpcnsConfig(
            num_subsamples=5, pc=PcConfig(), window=WindowConfig(tau=2, r=2),
            seed=derive_seed(4, STREAM_SUBSAMPLE),
        ))
        assert results[0].starts == expected.starts

    def test_config_file_replays_run(self, tmp_path):
        data = linvar_csv(tmp_path / "lin.csv")
        first = tmp_path / "first"
        rc = main([
            "discover", "--method", "tpcns", "--tau", "2", "--stride", "2",
            "--seed", "9", "--in", str(data), "--out", str(first),
        ])
        assert rc == 0
        second = tmp_path / "second"
        rc = main([
            "discover", "--config", str(first / "config.txt"),
            "--in", str(data), "--out", str(second),
        ])
        assert rc == 0
        assert (second / "frequencies.csv").read_text() == (
            first / "frequencies.csv"
        ).read_text()
        assert (second / "graph.json").read_text() == (first / "graph.json").read_text()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        data = chain_csv(tmp_path / "chain.csv")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("method=pc\nturbo=1\n")
        rc = main([
            "discover", "--config", str(cfg),
            "--in", str(data), "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert "turbo" in capsys.readouterr().err

    @pytest.mark.parametrize("word,stable", [("Yes", "true"), ("on", "true"),
                                             ("OFF", "false"), ("0", "false")])
    def test_config_file_boolean_words(self, tmp_path, word, stable):
        data = chain_csv(tmp_path / "chain.csv", n=100)
        cfg = tmp_path / "flags.cfg"
        cfg.write_text(f"method=pc\nstable={word}\n")
        out = tmp_path / "o"
        assert main(["discover", "--config", str(cfg), "--in", str(data), "--out", str(out)]) == 0
        assert f"stable={stable}\n" in (out / "config.txt").read_text()

    def test_misspelt_config_boolean_rejected(self, tmp_path, capsys):
        # an unknown word is an error, not a silent false
        data = chain_csv(tmp_path / "chain.csv", n=100)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("method=pc\nstable=treu\n")
        out = tmp_path / "o"
        assert main(["discover", "--config", str(cfg), "--in", str(data), "--out", str(out)]) == 2
        assert "line 2: bad value 'treu' for 'stable'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lines,message", [
        # none or an empty value only clears a flag whose default is None
        ("method=pc\nalpha=none\n", "line 2: bad value 'none' for 'alpha'"),
        ("method=pc\ntau=\n", "line 2: bad value '' for 'tau'"),
        ("method=tpcns\nL=None\n", "line 2: bad value 'None' for 'L'"),
        ("method=pc\nalpha=0.o5\n", "line 2: bad value '0.o5' for 'alpha'"),
        ("method=pc\nstable\n", "line 2: expected key=value, got 'stable'"),
        ("method=ges\n", "line 1: 'method' must be one of ('pc', 'tpcs', 'tpcns'), got 'ges'"),
    ])
    def test_bad_config_line_is_usage_error(self, tmp_path, capsys, lines, message):
        data = chain_csv(tmp_path / "chain.csv", n=100)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(lines)
        out = tmp_path / "o"
        assert main(["discover", "--config", str(cfg), "--in", str(data), "--out", str(out)]) == 2
        assert f"bad.cfg: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        data = chain_csv(tmp_path / "chain.csv", n=100)
        out = tmp_path / "o"
        rc = main(["discover", "--method", "pc", "--config", str(tmp_path / "gone.cfg"),
                   "--in", str(data), "--out", str(out)])
        assert rc == 2
        assert f"config file not found: {tmp_path / 'gone.cfg'}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_none_keeps_a_default_of_none(self, tmp_path):
        data = chain_csv(tmp_path / "chain.csv", n=100)
        cfg = tmp_path / "flags.cfg"
        cfg.write_text("method=none\ngamma=none\ntruth=None\nmax-rows=\nmax-cond-size=none\n")
        plain, configured = tmp_path / "plain", tmp_path / "configured"
        assert main(["discover", "--method", "pc", "--in", str(data), "--out", str(plain)]) == 0
        assert main(["discover", "--method", "pc", "--config", str(cfg),
                     "--in", str(data), "--out", str(configured)]) == 0
        for name in ("graph.json", "decisions.csv"):
            assert (configured / name).read_bytes() == (plain / name).read_bytes()
        config = (configured / "config.txt").read_text()
        assert config == (plain / "config.txt").read_text().replace(
            str(plain), str(configured))

    def test_river_runoff_profile_runs_on_wide_csv(self, tmp_path):
        rng = np.random.default_rng(123)
        wide = tmp_path / "wide.csv"
        write_csv(DataMatrix(rng.normal(size=(1000, 12))), wide)
        out = tmp_path / "o"
        rc = main([
            "discover", "--profile", "river-runoff",
            "--in", str(wide), "--out", str(out),
        ])
        assert rc == 0
        assert json.loads((out / "graph.json").read_text())["p"] == 12
        assert (out / "frequencies.csv").exists()
        # the profile's settings land in the persisted config
        cfg = (out / "config.txt").read_text()
        assert "cutoff=0.1" in cfg and "tau=2" in cfg and "stride=1" in cfg

    def test_hsic_flags_nonlinear_pair(self, tmp_path):
        # y = x**2 has zero correlation with x; only the kernel test sees it
        rng = np.random.default_rng(1000)
        x = rng.uniform(-1.0, 1.0, size=250)
        pair = np.column_stack([x, x * x + 0.05 * rng.normal(size=250)])
        src = tmp_path / "pair.csv"
        write_csv(DataMatrix(pair), src)
        out = tmp_path / "out"
        rc = main([
            "discover", "--method", "pc", "--test", "hsic",
            "--bootstrap-replicates", "50", "--block-length", "10",
            "--in", str(src), "--out", str(out),
        ])
        assert rc == 0
        assert (out / "graph_edges.csv").read_text().splitlines()[1] == "1,2,undirected"

    def test_hsic_threshold_uses_keyed_calibration_stream(self, tmp_path):
        rng = np.random.default_rng(1002)
        src = tmp_path / "pair.csv"
        write_csv(DataMatrix(rng.normal(size=(200, 2))), src)
        out = tmp_path / "out"
        rc = main([
            "discover", "--method", "pc", "--test", "hsic", "--seed", "4",
            "--bootstrap-replicates", "20", "--block-length", "10",
            "--in", str(src), "--out", str(out),
        ])
        assert rc == 0
        expected = decoupled_pair_gamma(ingest_csv(src).values, BootstrapConfig(
            num_replicates=20, expected_block_length=10.0, quantile=0.95,
            seed=derive_seed(4, STREAM_CALIBRATE),
        ))
        rows = (out / "decisions.csv").read_text().splitlines()[1:]
        assert {row.split(",")[4] for row in rows} == {repr(expected)}

    def test_hsic_leaves_independent_pair_empty(self, tmp_path):
        rng = np.random.default_rng(1001)
        pair = np.column_stack([rng.normal(size=250), rng.normal(size=250)])
        src = tmp_path / "pair.csv"
        write_csv(DataMatrix(pair), src)
        out = tmp_path / "out"
        rc = main([
            "discover", "--method", "pc", "--test", "hsic",
            "--bootstrap-replicates", "50", "--block-length", "10",
            "--in", str(src), "--out", str(out),
        ])
        assert rc == 0
        assert (out / "graph_edges.csv").read_text().splitlines() == ["from,to,kind"]


class TestRowFloors:
    """Every discover run on a short sample ends in a graph, a usage error or a named query."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 10**6),
        rows=st.integers(2, 30),
        columns=st.integers(2, 4),
        method=st.sampled_from(["pc", "tpcs", "tpcns"]),
        tau=st.integers(1, 2),
        stride=st.integers(1, 2),
        length=st.integers(2, 10),
        test=st.sampled_from([
            ["--test", "gaussian"],
            ["--test", "gaussian", "--gamma", "0.1"],
            ["--test", "hsic", "--gamma", "0.1"],
        ]),
    )
    def test_short_samples_end_in_one_of_three_ways(self, seed, rows, columns, method, tau,
                                                    stride, length, test):
        with tempfile.TemporaryDirectory() as tmp:
            src, out = Path(tmp) / "data.csv", Path(tmp) / "o"
            values = np.random.default_rng(seed).normal(size=(rows, columns))
            write_csv(DataMatrix(values), src)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(["discover", "--method", method, *test, "--tau", str(tau),
                           "--stride", str(stride), "--L", str(length), "--subsamples", "3",
                           "--in", str(src), "--out", str(out)])
            if rc == 0:
                assert (out / "graph.json").exists()
            elif rc == 2:
                assert not out.exists()
            else:
                assert rc == 1 and "error: CI test failed for query (" in err.getvalue()


class TestEvaluate:
    def test_perfect_recovery_row(self, tmp_path, capsys):
        est = tmp_path / "est.json"
        truth = tmp_path / "truth.json"
        est.write_text(MOTIF_JSON)
        truth.write_text(MOTIF_JSON)
        rc = main(["evaluate", "--est", str(est), "--truth", str(truth)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "tp,fp,tn,fn,tpr,ifpr,fpr,cs,tpr_mode"
        assert lines[1] == "3,0,13,0,100.0,100.0,0.0,100.0,condition-positives"

    def test_tpr_mode_flag_lands_in_row(self, tmp_path, capsys):
        est = tmp_path / "est.json"
        est.write_text(MOTIF_JSON)
        rc = main([
            "evaluate", "--est", str(est), "--truth", str(est),
            "--tpr-mode", "paper-formula", "--no-self-loops",
        ])
        assert rc == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row == "3,0,9,0,100.0,100.0,0.0,100.0,paper-formula"

    def test_p_mismatch(self, tmp_path, capsys):
        est = tmp_path / "est.json"
        truth = tmp_path / "truth.json"
        est.write_text(MOTIF_JSON)
        truth.write_text(to_json(RolledGraph(3, frozenset())))
        rc = main(["evaluate", "--est", str(est), "--truth", str(truth)])
        assert rc == 2
        assert "disagree" in capsys.readouterr().err

    def test_missing_graph_file(self, tmp_path, capsys):
        est = tmp_path / "est.json"
        est.write_text(MOTIF_JSON)
        rc = main(["evaluate", "--est", str(est), "--truth", str(tmp_path / "gone.json")])
        assert rc == 2

    @pytest.mark.parametrize("payload,message", [
        ('{"p": 4, "directed": 5}', "'directed' must be a list of [u, v] pairs, got 5"),
        ('{"p": 4, "directed": [[1, "a"]]}',
         "'directed' entry [1, \"a\"] is not a pair of integers in [1, 4]"),
        ('{"p": 4, "undirected": [[1.5, 2]]}',
         "'undirected' entry [1.5, 2] is not a pair of integers in [1, 4]"),
        ('{"p": true, "directed": []}', "'p' must be a positive integer"),
    ])
    def test_malformed_graph_is_usage_error_naming_the_file(self, tmp_path, capsys, payload,
                                                            message):
        est = tmp_path / "est.json"
        bad = tmp_path / "bad.json"
        est.write_text(MOTIF_JSON)
        bad.write_text(payload)
        rc = main(["evaluate", "--est", str(est), "--truth", str(bad)])
        assert rc == 2
        assert f"bad.json: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("payload,message", [
        ('{"p": 3, "directed": [[1, 2]], "undirected": [[2, 1]]}',
         "pair (1, 2) is both directed and undirected"),
        ('{"p": 3, "directed": [[1, 1]], "undirected": [[2, 3]]}', "self-loop 1 -> 1 not allowed"),
        ('{"p": 3, "directed": [[2, 3], [3, 2]], "undirected": [[1, 2]]}',
         "both orientations present between 2 and 3"),
    ])
    def test_graph_errors_name_nodes_one_based(self, tmp_path, capsys, payload, message):
        # graph files are 1-based, so the nodes an error names are too
        est = tmp_path / "est.json"
        est.write_text(payload)
        rc = main(["evaluate", "--est", str(est), "--truth", str(est)])
        assert rc == 2
        assert f"est.json: {message}" in capsys.readouterr().err


class TestReproduce:
    def test_zero_reps_is_usage_error(self, tmp_path, capsys):
        rc = main([
            "reproduce", "--paradigm", "LinearGaussianVAR",
            "--reps", "0", "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert "repetition" in capsys.readouterr().err

    def test_small_sweep_writes_tables(self, tmp_path):
        out = tmp_path / "o"
        rc = main([
            "reproduce", "--paradigm", "LinearGaussianVAR",
            "--methods", "TPCS", "--reps", "2", "--out", str(out),
        ])
        assert rc == 0
        metrics_lines = (out / "metrics.csv").read_text().splitlines()
        assert metrics_lines[0].startswith("# config:")
        assert metrics_lines[1] == "method,paradigm,eta,alpha,tpr,ifpr,cs,tpr_mode"
        # one row per TPR convention for the single cell
        assert len(metrics_lines) == 4
        freq_lines = (out / "frequencies.csv").read_text().splitlines()
        assert freq_lines[1] == "method,paradigm,eta,alpha,from,to,percent"
        assert (out / "config.txt").exists()

    def test_config_txt_replays_byte_identical(self, tmp_path):
        first = tmp_path / "first"
        rc = main([
            "reproduce", "--paradigm", "LinearGaussianVAR", "--methods", "PC,TPCNS",
            "--reps", "2", "--subsamples", "5", "--seed", "3", "--out", str(first),
        ])
        assert rc == 0
        second = tmp_path / "second"
        # --paradigm is a required flag, so a replay names it on the command line
        rc = main([
            "reproduce", "--config", str(first / "config.txt"),
            "--paradigm", "LinearGaussianVAR", "--out", str(second),
        ])
        assert rc == 0
        for name in ("metrics.csv", "frequencies.csv"):
            assert (second / name).read_bytes() == (first / name).read_bytes()

    @pytest.mark.parametrize("flags,message", [
        (["--methods", "PC,TPCNS", "--subsamples", "0"], "need at least 1 subsample, got 0"),
        (["--methods", "PC,TPCNS", "--L", "1"], "window length must be at least 2, got 1"),
        (["--methods", "PC,TPCNS", "--cutoff", "2"],
         "frequency cutoff must lie in [0, 1], got 2.0"),
        (["--methods", "TPCNS", "--L", "400", "--n", "300"],
         "window length 400 exceeds the 150 unrolled observations"),
        (["--n", "1"], "n=1 is too short"),
        (["--n", "10", "--methods", "TPCS", "--tau", "20"], "need at least tau=20 rows, got 10"),
        (["--methods", "PC,TPCNS", "--L", "3"], "TPCNS searches 3 rows (window_length=3); "
         "the Fisher-z test at level alpha needs at least 4"),
        (["--methods", "PC", "--n", "3"], "PC searches 3 rows"),
        (["--methods", "TPCS", "--n", "7"], "TPCS searches 3 rows"),
        # the unrolled rows bind below the row cap, for TPCS and for PC
        (["--methods", "PC,TPCSHS", "--n", "30"], "TPCSHS calibrates on 15 rows; the kernel "
         "threshold needs at least 20"),
        (["--methods", "PC,PCHS", "--n", "15"], "PCHS calibrates on 15 rows"),
    ])
    def test_bad_sweep_is_usage_error_before_any_cell(
        self, tmp_path, capsys, monkeypatch, flags, message
    ):
        monkeypatch.setattr(cli, "run_sweep", lambda cfg: pytest.fail("a cell ran"))
        out = tmp_path / "o"
        rc = main(["reproduce", "--paradigm", "LinearGaussianVAR", "--reps", "1", *flags,
                   "--out", str(out)])
        assert rc == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_calibration_block_checked_before_any_cell_runs(self):
        with pytest.raises(ValueError, match="calibration_block"):
            SweepConfig(paradigm="CTRNN", calibration_block=1.0)

    def test_calibration_replicates_checked_before_any_cell_runs(self):
        # zero replicates used to run the Gaussian cells, then fail at the first kernel cell
        with pytest.raises(ValueError, match="calibration_replicates must be at least 1, got 0"):
            SweepConfig(paradigm="CTRNN", methods=("PC", "TPCSHS"), calibration_replicates=0)

    def test_config_none_for_a_set_default_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("hsic-max-rows=none\n")
        out = tmp_path / "o"
        rc = main(["reproduce", "--paradigm", "LinearGaussianVAR", "--config", str(cfg),
                   "--out", str(out)])
        assert rc == 2
        assert "line 1: bad value 'none' for 'hsic-max-rows'" in capsys.readouterr().err
        assert not out.exists()

    def test_short_subsample_window_rejected_for_kernel_calibration(self):
        with pytest.raises(ValueError, match="window_length=19"):
            SweepConfig(paradigm="CTRNN", methods=("TPCNSHS",), window_length=19)
        SweepConfig(paradigm="CTRNN", methods=("TPCNS", "TPCSHS"), window_length=19)
        SweepConfig(paradigm="CTRNN", methods=("TPCNSHS",), window_length=20)

    def test_short_subsample_window_is_usage_error(self, tmp_path, capsys):
        rc = main([
            "reproduce", "--paradigm", "LinearGaussianVAR", "--methods", "TPCNSHS",
            "--L", "15", "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert "window_length=15" in capsys.readouterr().err

    def test_small_kernel_row_cap_rejected_for_calibration(self):
        with pytest.raises(ValueError, match="hsic_max_rows=19"):
            SweepConfig(paradigm="CTRNN", methods=("PC", "PCHS"), hsic_max_rows=19)
        with pytest.raises(ValueError, match="hsic_max_rows=10"):
            SweepConfig(paradigm="CTRNN", methods=("TPCSHS",), hsic_max_rows=10)
        SweepConfig(paradigm="CTRNN", methods=("PC", "TPCNS"), hsic_max_rows=10)
        SweepConfig(paradigm="CTRNN", methods=("PCHS",), hsic_max_rows=20)
        SweepConfig(paradigm="CTRNN", methods=("PCHS",), hsic_max_rows=None)

    def test_small_kernel_row_cap_is_usage_error_before_any_cell(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main([
            "reproduce", "--paradigm", "LinearGaussianVAR", "--methods", "PC,PCHS",
            "--hsic-max-rows", "10", "--reps", "1", "--out", str(out),
        ])
        assert rc == 2
        assert "hsic_max_rows=10" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_method_rejected(self, tmp_path, capsys):
        rc = main([
            "reproduce", "--paradigm", "CTRNN",
            "--methods", "GC", "--out", str(tmp_path / "o"),
        ])
        assert rc == 2


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
