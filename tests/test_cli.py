"""CLI: commands, exit codes, file formats, config files, determinism."""
import errno
import hashlib
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from entrobound import cli, oracle
from entrobound.densities import tent_density
from entrobound.cli import emit_csv, emit_f64le, ingest, main
from entrobound.errors import IngestError


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundCommand:
    def test_reference_value_printed(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--k", "1", "--l", "1", "--m", "100", "--n", "1000000",
             "--delta", "0.05"],
            capsys,
        )
        assert code == 0
        assert out.startswith("total=0.064116313591567")

    def test_invalid_m_exit_2(self, capsys):
        code, _, err = run_cli(
            ["bound", "--k", "1", "--l", "4", "--m", "8", "--n", "1000", "--delta", "0.1"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: validity:")

    def test_bad_delta_exit_2(self, capsys):
        code, _, err = run_cli(
            ["bound", "--k", "1", "--l", "1", "--m", "10", "--n", "10", "--delta", "1.5"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: invalid:")


@pytest.mark.parametrize(
    "command",
    ["bound", "optimize-m", "estimate", "mi-estimate", "prop1-demo", "mi-demo", "kl-demo",
     "verify-lemmas"],
)
def test_threads_only_on_coverage(command, capsys):
    code, _, err = run_cli([command, "--threads", "2"], capsys)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error: invalid:")
    assert "--threads" in err


@pytest.mark.parametrize("argv, message", [
    (["estimate", "--n", "x"], "error: invalid: argument --n: invalid int value: 'x'\n"),
    ([], "error: invalid: the following arguments are required: command\n"),
    (["estimat"], "error: invalid: argument command: invalid choice: 'estimat'"),
], ids=["bad-int", "no-command", "unknown-command"])
def test_usage_error_is_one_line(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(message)
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_help_lists_the_commands_options(command, capsys):
    """Each command's --help shows its own options, whichever it is."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and out.startswith(f"usage: entrobound {command} ")
    flags = {word.strip("[],") for word in out.split() if word.startswith(("--", "[--"))}
    assert flags == {"--help", "--config"} | {
        f"--{opt.replace('_', '-')}" for opt in cli._COMMANDS[command][2]}


def test_config_key_the_command_does_not_accept(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("tol = 1\n")
    code, _, err = run_cli(["estimate", "--config", str(cfg)], capsys)
    assert code == 2
    assert err == "error: invalid: unrecognized arguments: --tol 1.0\n"


@pytest.mark.parametrize("argv", [
    ["coverage", "--density", "tent", "--k", "1", "--l", "4", "--n", "1000",
     "--delta", "0.1", "--trials", "2", "--seed", "-1"],
    ["mi-estimate", "--density", "tent", "--l", "8", "--n", "1000", "--delta", "0.1",
     "--seed", "-1"],
    ["prop1-demo", "--n", "100", "--trials", "2", "--seed", "-1"],
    ["estimate", "--input", "{data}", "--format", "f64le", "--k", "1", "--l", "4",
     "--delta", "0.1", "--seed", "-1"],
    ["estimate", "--config", "{cfg}"],
], ids=["coverage", "mi-estimate", "prop1-demo", "estimate-input", "config-file"])
def test_negative_seed_rejected_before_work(argv, tmp_path, capsys):
    data = tmp_path / "u.f64"
    data.write_bytes(np.full(100, 0.5).tobytes())
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("density = tent\nk = 1\nl = 4\nn = 1000\ndelta = 0.1\nseed = -1\n")
    out = tmp_path / "r.csv"
    argv = [arg.format(data=data, cfg=cfg) for arg in argv] + ["--out", str(out)]
    code, stdout, err = run_cli(argv, capsys)
    assert (code, stdout, err) == (2, "", "error: invalid: seed must be >= 0, got -1\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "u.f64"]


@pytest.mark.parametrize(
    "command, extra", [("estimate", []), ("coverage", ["--trials", "2"])]
)
def test_bin_count_above_2_53_invalid(command, extra, tmp_path, capsys):
    code, _, err = run_cli(
        [command, "--density", "tent", "--k", "1", "--l", "4", "--n", "100", "--delta", "0.1",
         "--m", str(2**53 + 1), "--seed", "1", "--out", str(tmp_path / "r.csv")] + extra,
        capsys,
    )
    assert code == 2
    assert err.startswith("error: invalid: M must be at most 2^53")
    assert len(err.splitlines()) == 1


def test_bound_accepts_bin_count_above_2_53(capsys):
    """bound bins no data, so M is limited only by the validity threshold."""
    code, out, _ = run_cli(
        ["bound", "--k", "1", "--l", "4", "--m", str(2**62), "--n", "100", "--delta", "0.1"],
        capsys,
    )
    assert code == 0
    assert out.startswith("total=")


@pytest.mark.parametrize("argv", [
    ["estimate", "--k", "1"],
    ["mi-estimate", "--k1", "1", "--k2", "1"],
    ["coverage", "--k", "1", "--trials", "2"],
], ids=["estimate", "mi-estimate", "coverage"])
def test_optimal_bin_count_above_2_53_names_l(argv, capsys):
    """An L whose bound-optimal M float64 cannot bin is named, not that M."""
    code, out, err = run_cli(
        argv + ["--density", "tent", "--l", "1e300", "--n", "100", "--delta", "0.1"], capsys
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: invalid: L = 1e+300 is too large for float64 binning with K = 1 and N = 100: "
        "the bound-optimal M exceeds 2^53 = 9007199254740992\n"
    )


def test_optimize_m_prints_bin_count_above_2_53(capsys):
    """optimize-m bins nothing, so it reports an M beyond float64 binning."""
    code, out, _ = run_cli(
        ["optimize-m", "--k", "1", "--l", "1e300", "--n", "100", "--delta", "0.1"], capsys
    )
    assert code == 0
    assert int(out.split()[0].removeprefix("M=")) > 2**53


class TestEstimateCommand:
    def test_csv_columns_and_meta(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code, _, _ = run_cli(
            ["estimate", "--density", "tent", "--k", "1", "--l", "4", "--n", "10000",
             "--delta", "0.1", "--seed", "7", "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "estimate,total_bound,quant_bias,stat_dev,emp_bias,M,N"
        fields = lines[1].split(",")
        assert abs(float(fields[0]) - (0.5 - math.log(2.0))) <= float(fields[1])
        meta = (tmp_path / "r.csv.meta").read_text()
        assert "command = estimate" in meta
        assert "seed = 7" in meta
        assert "version = " in meta
        assert "wall_time_s = " in meta
        # only the options estimate accepts
        keys = {line.split(" = ")[0] for line in meta.splitlines()}
        assert not keys & {"m_list", "pairs", "k1", "k2", "threads"}

    def test_estimate_from_ingested_file(self, tmp_path, capsys):
        data = tmp_path / "pts.csv"
        data.write_text("x\n0.1\n0.2\n0.3\n0.9\n")
        out = tmp_path / "r.csv"
        code, _, _ = run_cli(
            ["estimate", "--input", str(data), "--k", "1", "--l", "1",
             "--delta", "0.2", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert ",4" in out.read_text().splitlines()[1]  # N = 4

    def test_missing_input_exit_1(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["estimate", "--input", str(tmp_path / "nope.csv"), "--k", "1",
             "--l", "1", "--delta", "0.2"],
            capsys,
        )
        assert code == 1
        assert err.startswith("error: io:")

    def test_out_of_support_input_exit_2(self, tmp_path, capsys):
        data = tmp_path / "pts.csv"
        data.write_text("0.5\n1.5\n")
        code, _, err = run_cli(
            ["estimate", "--input", str(data), "--k", "1", "--l", "1", "--delta", "0.2"],
            capsys,
        )
        assert code == 2


class TestMiEstimateCommand:
    def test_independent_tents(self, tmp_path, capsys):
        out = tmp_path / "mi.csv"
        code, _, _ = run_cli(
            ["mi-estimate", "--density", "tent", "--k1", "1", "--k2", "1",
             "--l", "8", "--n", "5000", "--delta", "0.1", "--seed", "3",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "estimate,total_bound,quant_bias,stat_dev,emp_bias,m_x,m_y,m_xy,N"
        fields = lines[1].split(",")
        assert abs(float(fields[0])) <= float(fields[1])


class TestCoverageCommand:
    def test_rows_and_summary(self, tmp_path, capsys):
        out = tmp_path / "cov.csv"
        code, _, _ = run_cli(
            ["coverage", "--density", "tent", "--k", "1", "--l", "4", "--n", "2000",
             "--delta", "0.1", "--trials", "8", "--seed", "3", "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 8 + 1  # header + trials + summary
        assert lines[-1].startswith("summary")
        coverage = float(lines[-1].split(",")[-1])
        assert coverage >= 0.9

    def test_single_trial(self, tmp_path, capsys):
        out = tmp_path / "cov1.csv"
        code, _, _ = run_cli(
            ["coverage", "--density", "tent", "--k", "1", "--l", "4", "--n", "500",
             "--delta", "0.1", "--trials", "1", "--seed", "3", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 3

    def test_thread_count_does_not_change_output(self, tmp_path, capsys, monkeypatch):
        outputs = []
        for threads in ("1", "4"):
            monkeypatch.setenv("ENTROBOUND_THREADS", threads)
            out = tmp_path / f"cov_{threads}.csv"
            code, _, _ = run_cli(
                ["coverage", "--density", "tent", "--k", "1", "--l", "4",
                 "--n", "1000", "--delta", "0.1", "--trials", "6", "--seed", "9",
                 "--out", str(out)],
                capsys,
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_unparsable_thread_env_named(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ENTROBOUND_THREADS", "two")
        code, _, err = run_cli(
            ["coverage", "--density", "tent", "--k", "1", "--l", "4", "--n", "100",
             "--delta", "0.1", "--trials", "2", "--seed", "9",
             "--out", str(tmp_path / "cov.csv")],
            capsys,
        )
        assert code == 2
        assert err.strip() == "error: invalid: ENTROBOUND_THREADS must be an integer, got 'two'"

    def test_pool_does_not_nest(self, tmp_path, capsys, executors):
        """Trials on the pool build their 2-block histograms serially."""
        code, _, _ = run_cli(
            ["coverage", "--density", "tent", "--k", "1", "--l", "4",
             "--n", str(2**16 + 1), "--delta", "0.1", "--trials", "3", "--seed", "9",
             "--threads", "2", "--out", str(tmp_path / "cov.csv")],
            capsys,
        )
        assert code == 0
        assert executors == [2]


_COVERAGE_ARGS = ["coverage", "--density", "tent", "--k", "1", "--l", "4", "--n", "100",
                  "--delta", "0.1", "--trials", "2", "--seed", "9"]
_ESTIMATE_ARGS = ["estimate", "--density", "tent", "--k", "1", "--l", "4", "--n", "100",
                  "--delta", "0.1"]


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_threads_below_one_invalid(threads, tmp_path, capsys):
    out = tmp_path / "cov.csv"
    code, _, err = run_cli(_COVERAGE_ARGS + ["--threads", threads, "--out", str(out)], capsys)
    assert code == 2
    assert err == f"error: invalid: threads must be >= 1, got {threads}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [_COVERAGE_ARGS, _ESTIMATE_ARGS])
def test_thread_env_below_one_invalid(command, capsys, monkeypatch):
    monkeypatch.setenv("ENTROBOUND_THREADS", "-2")
    code, _, err = run_cli(command, capsys)
    assert code == 2
    assert err == "error: invalid: ENTROBOUND_THREADS must be >= 1, got '-2'\n"


class TestBlockPoolOutputs:
    """mi-estimate on more than 2^16 rows runs its three terms on the pool."""

    @pytest.mark.parametrize("argv", [
        ["mi-estimate", "--format", "f64le", "--k1", "1", "--k2", "2", "--l", "16"],
        ["estimate", "--format", "f64le", "--k", "3", "--l", "16"],
    ])
    def test_csv_identical_for_any_thread_count(self, argv, tmp_path, capsys, monkeypatch):
        data = tmp_path / "pts.f64le"
        emit_f64le(data, np.random.default_rng(21).random((3 * 2**16 + 5, 3)))
        outputs = []
        for threads in ("1", "4"):
            monkeypatch.setenv("ENTROBOUND_THREADS", threads)
            out = tmp_path / f"r{threads}.csv"
            code, _, _ = run_cli(argv + ["--input", str(data), "--delta", "0.05",
                                         "--seed", "2", "--out", str(out)], capsys)
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestOutChecked:
    """--out is checked before any work, with the error its write would raise."""

    @pytest.fixture
    def drawn(self, monkeypatch):
        calls = []
        real = cli.sample

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "sample", spy)
        return calls

    @pytest.mark.parametrize("target", ["directory", "missing parent", "sidecar directory"])
    def test_bad_out_fails_before_sampling(self, target, tmp_path, capsys, drawn):
        out = tmp_path / "cov.csv"
        if target == "directory":
            out = bad = tmp_path
            code = errno.EISDIR
        elif target == "missing parent":
            out = bad = tmp_path / "nope" / "cov.csv"
            code = errno.ENOENT
        else:
            bad = tmp_path / "cov.csv.meta"
            bad.mkdir()
            code = errno.EISDIR
        result = run_cli(_COVERAGE_ARGS + ["--out", str(out)], capsys)
        assert result == (1, "", f"error: io: [Errno {code}] {os.strerror(code)}: {str(bad)!r}\n")
        assert drawn == [] and not (tmp_path / "cov.csv").exists()

    def test_failed_run_leaves_no_file(self, tmp_path, capsys, drawn):
        out = tmp_path / "r.csv"
        code, _, err = run_cli(_ESTIMATE_ARGS + ["--m", "2", "--out", str(out)], capsys)
        assert code == 2 and err.startswith("error: validity:")
        assert drawn and list(tmp_path.iterdir()) == []  # no CSV, no sidecar

    def test_failed_sidecar_write_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        """A write that fails after the CSV (a full disk) leaves no CSV and no temporary."""
        def full_disk(path, *args):
            Path(path).write_text("wall_ti", encoding="utf-8")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        monkeypatch.setattr(cli, "_write_meta", full_disk)
        out = tmp_path / "r.csv"
        code, stdout, err = run_cli(_ESTIMATE_ARGS + ["--out", str(out)], capsys)
        assert (code, stdout) == (1, "")
        assert err.startswith(f"error: io: [Errno {errno.ENOSPC}]") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestDemoCommands:
    @pytest.mark.parametrize("command", ["prop1-demo", "mi-demo", "kl-demo"])
    def test_smoke(self, command, tmp_path, capsys):
        out = tmp_path / "demo.csv"
        code, _, _ = run_cli(
            [command, "--c", "0.5", "--delta", "0.2", "--n", "30", "--trials", "10",
             "--seed", "5", "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("trials,failure_fraction,below_threshold_fraction")
        assert len(lines) == 2


class TestVerifyLemmas:
    def test_all_hold_k1(self, tmp_path, capsys):
        out = tmp_path / "lem.csv"
        code, _, _ = run_cli(["verify-lemmas", "--k", "1", "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "check,k,m,lhs,rhs,holds"
        assert len(lines) > 10
        assert all(line.endswith("true") for line in lines[1:])

    def test_each_entropy_integrated_once(self, tmp_path, capsys, monkeypatch):
        """The tent's entropy once per run, each companion's once per M."""
        real = oracle.numeric_entropy
        names = []

        def counted(model, *args, **kwargs):
            names.append(model.name)
            return real(model, *args, **kwargs)

        monkeypatch.setattr(cli, "numeric_entropy", counted)
        monkeypatch.setattr(oracle, "numeric_entropy", counted)
        monkeypatch.chdir(tmp_path)
        argv, csv_digest, meta_digest = _GOLDEN_RUNS["verify-lemmas-k2"]
        assert run_cli(argv + ["--out", "r.csv"], capsys)[0] == 0
        tent = tent_density(2).name
        assert names == [tent, f"{tent}-quantized-8", f"{tent}-quantized-16"]
        assert _output_digests() == (csv_digest, meta_digest)

    @pytest.mark.parametrize("in_config", [False, True])
    def test_pairs_below_one_invalid(self, in_config, tmp_path, capsys):
        cfg = tmp_path / "lem.cfg"
        cfg.write_text("pairs = 0\n")
        flags = ["--config", str(cfg)] if in_config else ["--pairs", "0"]
        code, _, err = run_cli(["verify-lemmas", *flags], capsys)
        assert (code, err) == (2, "error: invalid: pairs must be >= 1, got 0\n")

    # "," names no bin count, so no per-M check would run.
    @pytest.mark.parametrize("m_list, in_config", [("8,x", False), ("0,8", False),
                                                   ("8,x", True), (",", False), (",", True)])
    def test_bad_m_list_names_option_and_value(self, m_list, in_config, tmp_path, capsys):
        cfg = tmp_path / "lem.cfg"
        cfg.write_text(f"m_list = {m_list}\n")
        flags = ["--config", str(cfg)] if in_config else ["--m-list", m_list]
        code, _, err = run_cli(["verify-lemmas", *flags], capsys)
        assert (code, err) == (
            2, f"error: invalid: m_list must be comma-separated integers >= 1, got {m_list!r}\n"
        )


class TestIngest:
    def test_csv_with_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n0.1,0.2\n0.3,0.4\n")
        pts = ingest(path, "csv")
        assert pts.shape == (2, 2)
        assert pts[1, 1] == 0.4

    def test_csv_without_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.1,0.2\n0.3,0.4\n")
        assert ingest(path, "csv").shape == (2, 2)

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.1,abc\n")
        with pytest.raises(IngestError, match="line 1"):
            ingest(path, "csv")

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.1\nnan\n")
        with pytest.raises(IngestError, match="non-finite"):
            ingest(path, "csv")

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.1,0.2\n0.3\n")
        with pytest.raises(IngestError, match="line 2"):
            ingest(path, "csv")

    def test_f64le_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        pts = rng.random((17, 3))
        path = tmp_path / "d.bin"
        emit_f64le(path, pts)
        back = ingest(path, "f64le", k=3)
        assert np.array_equal(back, pts)

    def test_f64le_two_points(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(np.array([0.25, 0.75]).astype("<f8").tobytes())
        assert ingest(path, "f64le", k=1).shape == (2, 1)

    def test_f64le_bad_length(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(b"\x00" * 12)
        with pytest.raises(IngestError, match="multiple"):
            ingest(path, "f64le", k=1)

    def test_f64le_non_finite_rejected(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(np.array([0.5, math.inf]).astype("<f8").tobytes())
        with pytest.raises(IngestError, match="non-finite"):
            ingest(path, "f64le", k=1)

    @pytest.mark.parametrize("k", [1, 3])
    def test_f64le_matches_buffer_copy(self, k, tmp_path):
        path = tmp_path / "d.bin"
        emit_f64le(path, np.random.default_rng(4).random((1000, k)))
        expected = np.frombuffer(path.read_bytes(), dtype="<f8").reshape(-1, k).copy()
        got = ingest(path, "f64le", k=k)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert got.flags.writeable and got.flags.c_contiguous
        got[0, 0] = 0.5  # the caller owns the array

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_f64le_from_pipe(self, tmp_path):
        pts = np.random.default_rng(6).random((5, 2))
        path = tmp_path / "pipe"
        os.mkfifo(path)
        writer = threading.Thread(target=emit_f64le, args=(path, pts), daemon=True)
        writer.start()
        try:
            got = ingest(path, "f64le", k=2)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert np.array_equal(got, pts) and got.flags.writeable

    @pytest.mark.parametrize("fmt", ["csv", "f64le"])
    @pytest.mark.parametrize("k", [0, 2.5, -2])
    def test_bad_k_rejected(self, fmt, k, tmp_path):
        path = tmp_path / "d.bin"
        emit_f64le(path, np.full((4, 2), 0.5))
        with pytest.raises(ValueError) as exc:
            ingest(path, fmt, k=k)
        assert str(exc.value) == f"k must be an integer >= 1, got {k!r}"

    def test_csv_round_trip(self, tmp_path):
        pts = np.random.default_rng(5).random((9, 2))
        path = tmp_path / "d.csv"
        emit_csv(path, pts)
        assert np.array_equal(ingest(path, "csv"), pts)


class TestConfigFile:
    def test_config_drives_run(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"command = estimate\ndensity = tent\nk = 1\nl = 4\nn = 1000\n"
            f"delta = 0.1\nseed = 7\nout = {out}\n"
        )
        code, _, _ = run_cli(["estimate", "--config", str(cfg)], capsys)
        assert code == 0
        assert out.exists()

    def test_cli_flag_overrides_config(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("density = tent\nk = 1\nl = 4\nn = 1000\ndelta = 0.1\nseed = 7\n")
        code, _, _ = run_cli(
            ["estimate", "--config", str(cfg), "--n", "2000", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert out.read_text().splitlines()[1].endswith(",2000")

    def test_equals_form_reads_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("k = 1\nl = 4\nm = 100\nn = 1000\ndelta = 0.1\n")
        outputs = []
        for flags in (["--config", str(cfg)], [f"--config={cfg}"]):
            out = tmp_path / f"r{len(outputs)}.csv"
            code, _, err = run_cli(["bound", *flags, "--out", str(out)], capsys)
            assert (code, err) == (0, "")
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("flag", ["--config", "--config="])
    def test_missing_path_rejected(self, flag, capsys):
        code, _, err = run_cli(["bound", flag], capsys)
        assert (code, err) == (2, "error: invalid: --config needs a file path\n")

    def test_command_mismatch_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("command = bound\n")
        code, _, err = run_cli(["estimate", "--config", str(cfg)], capsys)
        assert code == 2
        assert "config file is for command" in err

    def test_command_from_file_with_leading_flag(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("command = bound\nk = 1\nl = 4\nm = 100\nn = 1000\ndelta = 0.1\n")
        code, _, err = run_cli(["--config", str(cfg), "--n", "2000", "--out", str(out)], capsys)
        assert (code, err) == (0, "")
        header, row = out.read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["n"] == "2000"

    @pytest.mark.parametrize("equals", [False, True])
    def test_second_config_rejected(self, equals, tmp_path, capsys):
        flags = []
        for name, n in (("a.cfg", 1000), ("b.cfg", 7)):
            cfg = tmp_path / name
            cfg.write_text(f"k = 1\nl = 1\nm = 100\nn = {n}\ndelta = 0.1\n")
            flags += [f"--config={cfg}"] if equals else ["--config", str(cfg)]
        code, out, err = run_cli(["bound", *flags], capsys)
        assert (code, out, err) == (2, "", "error: invalid: --config given more than once\n")

    def test_leading_flag_without_command_in_file(self, tmp_path, capsys):
        cfg = tmp_path / "nocmd.cfg"
        cfg.write_text("k = 1\nl = 4\nm = 100\nn = 1000\ndelta = 0.1\n")
        code, _, err = run_cli(["--config", str(cfg), "--n", "5"], capsys)
        assert (code, err) == (
            2, "error: invalid: no command given on the command line or in the config file\n"
        )


# Every command's CSV and .meta sidecar, pinned by SHA-256.  The sidecar is
# hashed without its wall_time_s line, the one line that varies between runs;
# --out is relative so the recorded path is the same in every run.
_GOLDEN_RUNS = {
    "bound": (["bound", "--k", "2", "--l", "2", "--m", "60", "--n", "1000000",
               "--delta", "0.05"],
              "01296b1d4ace1dc0d578c52ae16e0a8e1053c11e77bd97e83591d48a067cac61",
              "c05dc72ebfc1c5937d6c46452754c7656fb1e99ed50c431975452e12aa240d4f"),
    "optimize-m": (["optimize-m", "--k", "2", "--l", "4", "--n", "100000", "--delta", "0.05"],
                   "831f41f8b6046f3a9095dbca49e9bc4eaedf1d456f46bf94e96f768cf3d22d3e",
                   "5a20d295a954afa8901aab9bc0adc2ba9fbc0720b294caabcad0a811c4891be7"),
    "estimate": (["estimate", "--density", "tent", "--k", "2", "--l", "8", "--n", "5000",
                  "--delta", "0.1", "--seed", "3"],
                 "bc724c110bb4cc60e250f77b0f994f138cd7c368a3960d7acf612a902f4ec4b8",
                 "dee83f760ebf65c14823c58499e56fbd834400f7ff3315f6cc888d5007bd34f7"),
    "mi-estimate": (["mi-estimate", "--density", "tent", "--k1", "1", "--k2", "2", "--l", "8",
                     "--n", "5000", "--delta", "0.1", "--seed", "3"],
                    "f7b547063d6de3a3b3fb0da23f889e67c82592ce5d88b9722b7f29e273051640",
                    "18ca32aef257f2087a90353c63178d97a0443d4de12b1c7992347a4be249fb92"),
    "coverage": (["coverage", "--density", "tent", "--k", "1", "--l", "4", "--n", "2000",
                  "--delta", "0.1", "--trials", "5", "--seed", "3", "--threads", "2"],
                 "eb58a571a4f9c7f8d1e7eccecadc2c20395697cc05814a7ab993efa1d1244c1d",
                 "65a8788b0a2036c34bfb94069835eaf5dc66df9442c9e7649375c15e3724ef04"),
    "prop1-demo": (["prop1-demo", "--c", "0.5", "--delta", "0.2", "--n", "30",
                    "--trials", "20", "--seed", "5"],
                   "4e4879208fbd04932e9ced74cafdd4e237b874c543387a846086bafbacc0dd17",
                   "2c526ffe9c9a03e1c5125137277c330d96ff42a2cdc292a62f9ddc81cead02c9"),
    "mi-demo": (["mi-demo", "--c", "0.5", "--delta", "0.2", "--n", "30",
                 "--trials", "20", "--seed", "5"],
                "bd029a3d9a3db13cfad18ab721f99172bfbcfd4c8f215dd01d61d734f598e98d",
                "5482d64abf39e8c8ba8e0604d81696a2f1367a818a04aa0951362572cc364321"),
    "kl-demo": (["kl-demo", "--c", "0.5", "--delta", "0.2", "--n", "30",
                 "--trials", "20", "--seed", "5"],
                "e48bac6288e64b43dfdd453317edf6990d2d922aca8c340edc394c902d590149",
                "84692c6a2b3a67a62eee17f7cd06ce9a67070b11fdc3bd057f4145893038fc44"),
    "verify-lemmas": (["verify-lemmas", "--k", "1"],
                      "e2dfcf46d7fbdfb2ab682b0d3c541d8c8eed2c7d2e26149cbf65b6a1e15d81dc",
                      "04379f80fb13f0855744d65220ff531879ef6d865c09e12f768c82b6c7142241"),
    "verify-lemmas-k2": (["verify-lemmas", "--k", "2", "--m-list", "8,16"],
                         "dc340229754563ee06fcebee9c0a2d278ee1db09e98086bf63f4c3a668bb9b80",
                         "ce74fd22123d2a2817d9698163f5beaa9782b300765abd3e1f1c938a2b061a3a"),
}
# A run driven by a config file that names the command and the output, with a
# command-line flag overriding one of its values.
_GOLDEN_CONFIG = (
    "command = estimate\ndensity = uniform\nk = 3\nl = 2.5\nn = 400\ndelta = 0.05\n"
    "seed = 11\nout = r.csv\n",
    ["estimate", "--config", "exp.cfg", "--n", "700"],
    "088fab88e54e28d8dba9ba7ac814f3d2071703d8efae81800154360948d36ffe",
    "1d5b9cc8e5c1fade46adc454a329f0600af671f1c03be2b78b575b4ef900c01f",
)


def _output_digests():
    meta = Path("r.csv.meta").read_text(encoding="utf-8").splitlines(keepends=True)
    meta = "".join(line for line in meta if not line.startswith("wall_time_s = "))
    return (hashlib.sha256(Path("r.csv").read_bytes()).hexdigest(),
            hashlib.sha256(meta.encode("utf-8")).hexdigest())


@pytest.mark.parametrize("command", sorted(_GOLDEN_RUNS))
def test_golden_outputs(command, tmp_path, capsys, monkeypatch):
    argv, csv_digest, meta_digest = _GOLDEN_RUNS[command]
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(argv + ["--out", "r.csv"], capsys)
    assert (code, err) == (0, "")
    assert _output_digests() == (csv_digest, meta_digest)


def test_golden_config_run(tmp_path, capsys, monkeypatch):
    text, argv, csv_digest, meta_digest = _GOLDEN_CONFIG
    monkeypatch.chdir(tmp_path)
    Path("exp.cfg").write_text(text, encoding="utf-8")
    code, _, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert _output_digests() == (csv_digest, meta_digest)


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path, capsys):
        args = ["coverage", "--density", "tent", "--k", "1", "--l", "4",
                "--n", "1000", "--delta", "0.1", "--trials", "5", "--seed", "11"]
        outputs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code, _, _ = run_cli(args + ["--out", str(out)], capsys)
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "entrobound.cli", "bound", "--k", "1", "--l", "1",
             "--m", "100", "--n", "1000000", "--delta", "0.05"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("total=0.064116")


def _f64le_cases(tmp_path):
    """Bad f64le inputs with the one-line error each produced when ingest
    read the whole file into a bytes buffer."""
    short = tmp_path / "short.bin"
    short.write_bytes(b"\x00" * 20)
    nan_row = tmp_path / "nan.bin"
    nan_row.write_bytes(np.array([0.5, 0.5, 0.5, math.nan, 0.5, 0.5]).astype("<f8").tobytes())
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    directory = tmp_path / "dir.bin"
    directory.mkdir()
    with pytest.raises(OSError) as dir_error:
        Path(directory).read_bytes()
    return [
        (short, f"error: io: {short}: byte length 20 is not a multiple of 8*k=16"),
        (nan_row, f"error: io: {nan_row}: non-finite value at row 1"),
        (empty, f"error: io: {empty}: no data rows"),
        (directory, f"error: io: {dir_error.value}"),
    ]


def test_f64le_errors_keep_message_and_exit_code(tmp_path, capsys):
    for path, message in _f64le_cases(tmp_path):
        code, out, err = run_cli(
            ["estimate", "--input", str(path), "--format", "f64le", "--k", "2",
             "--l", "8", "--delta", "0.1"],
            capsys,
        )
        assert (code, out, err) == (1, "", message + "\n")
