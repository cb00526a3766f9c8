"""CLI: commands, exit codes, file formats, config files, determinism."""
import errno
import hashlib
import itertools
import math
import os
import shlex
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entrobound import cli, densities, estimators, oracle
from entrobound.densities import tent_density
from entrobound.cli import ingest, main
from entrobound.errors import IngestError
from reference import emit_csv, emit_f64le


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


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_threads_on_no_command(command, capsys):
    """ENTROBOUND_THREADS alone sizes the worker pools."""
    code, _, err = run_cli([command, "--threads", "2"], capsys)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error: invalid: unrecognized arguments: --threads")


@pytest.mark.parametrize("argv, message", [
    (["estimate", "--n", "x"], "error: invalid: argument --n: invalid int value: 'x'\n"),
    ([], "error: invalid: the following arguments are required: command\n"),
    (["estimat"], "error: invalid: argument command: invalid choice: 'estimat'"),
    (["estimate", "--density", "tent", "--k", "1", "--delta", "0.1", "--n", "10"],
     "error: invalid: estimate: missing required option --l\n"),
    (["coverage", "--k", "1", "--l", "4", "--n", "10", "--delta", "0.1", "--trials", "10"],
     "error: invalid: coverage: requires --density\n"),
    (["bound", "--k", "1", "--l=-1", "--m", "10", "--n", "10", "--delta", "0.1"],
     "error: invalid: l must be positive, got -1.0\n"),
    (["bound", "--k", "0", "--l", "4", "--m", "10", "--n", "10", "--delta", "0.1"],
     "error: invalid: k must be >= 1, got 0\n"),
    (["prop1-demo", "--c=-1", "--delta", "0.1", "--n", "10", "--trials", "10"],
     "error: invalid: c must be positive, got -1.0\n"),
    (["estimate", "--input", "x.csv", "--format", "xml", "--k", "1", "--l", "4",
      "--delta", "0.1"],
     "error: invalid: format must be csv or f64le, got 'xml'\n"),
], ids=["bad-int", "no-command", "unknown-command", "missing-l", "coverage-no-density",
        "negative-l", "zero-k", "negative-c", "unknown-format"])
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
    cfg.write_text("m_list = 8\n")
    code, _, err = run_cli(["estimate", "--config", str(cfg)], capsys)
    assert code == 2
    assert err == "error: invalid: unrecognized arguments: --m-list=8\n"


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


@pytest.mark.parametrize("in_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("argv", [
    ["bound", "--k", "1", "--l", "4", "--m", "100", "--n", "1000", "--delta", "0.1"],
    ["optimize-m", "--k", "1", "--l", "4", "--n", "1000", "--delta", "0.1"],
], ids=["bound", "optimize-m"])
def test_seed_refused_where_nothing_is_drawn(argv, in_config, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("seed = 1\n")
    extra = ["--config", str(cfg)] if in_config else ["--seed", "1"]
    code, out, err = run_cli(argv + extra, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid: unrecognized arguments: --seed")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("value, in_config", [
    ("", False), ("   ", False), ("'abc", False), ("", True),
], ids=["empty", "blank", "open-quote", "empty-config-line"])
def test_estimator_that_names_no_program(value, in_config, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"estimator = {value}\n")
    extra = ["--config", str(cfg)] if in_config else [f"--estimator={value}"]
    code, out, err = run_cli(
        ["prop1-demo", "--c", "1", "--delta", "0.1", "--n", "10", "--trials", "10"] + extra,
        capsys,
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid: --estimator ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("demo, c, delta", [
    ("prop1-demo", "1", "1e-308"), ("mi-demo", "1", "1e-308"), ("kl-demo", "1", "1e-308"),
    ("prop1-demo", "1e308", "0.1"), ("mi-demo", "1e308", "0.1"),
], ids=["prop1-delta", "mi-delta", "kl-delta", "prop1-c", "mi-c"])
def test_demo_whose_planted_parameter_overflows(demo, c, delta, capsys):
    """Refused before any trial, in one line that names C and delta."""
    code, out, err = run_cli(
        [demo, "--c", c, "--delta", delta, "--n", "100", "--trials", "10"], capsys
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: invalid: C = {float(c)!r} and delta = {float(delta)!r} ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("c, printed", [("1", '"inf"'), ("1e308", "1e308")],
                         ids=["estimate-inf", "c-and-estimate-huge"])
def test_kl_threshold_overflow_names_c(c, printed, capsys):
    """An external estimator's pilot puts k = c + C + 1/e beyond float range:
    one line naming the calibrated c and C, exit 2."""
    estimator = f"{shlex.quote(sys.executable)} -c 'print({printed})'"
    code, out, err = run_cli(["kl-demo", "--c", c, "--delta", "0.1", "--n", "100",
                              "--trials", "10", "--estimator", estimator], capsys)
    pilot = float(printed.strip('"'))
    assert (code, out) == (2, "")
    assert err == (f"error: invalid: the calibrated c = {pilot!r} with C = {float(c)!r} "
                   "gives the threshold k = c + C + 1/e = inf, which is not a positive "
                   "finite real\n")


@pytest.mark.parametrize("argv", [
    ["estimate", "--k", "1"],
    ["mi-estimate", "--k1", "1", "--k2", "1"],
], ids=["estimate", "mi-estimate"])
def test_density_and_input_refused_together(argv, tmp_path, capsys):
    data = tmp_path / "u.csv"
    data.write_text("0.5,0.5\n0.25,0.75\n")
    code, out, err = run_cli(
        argv + ["--density", "tent", "--input", str(data), "--l", "8", "--delta", "0.1"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid: ")
    assert "--density" in err and "--input" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("in_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("argv", [
    ["estimate", "--k", "2"],
    ["mi-estimate", "--k1", "1", "--k2", "1"],
], ids=["estimate", "mi-estimate"])
def test_n_and_input_refused_together(argv, in_config, tmp_path, capsys):
    """The file's rows are the sample, so an --n next to it would go unread."""
    data = tmp_path / "d.csv"
    data.write_text("0.5,0.5\n0.25,0.75\n0.125,0.375\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n = 7\n")
    extra = ["--config", str(cfg)] if in_config else ["--n", "7"]
    out = tmp_path / "r.csv"
    code, stdout, err = run_cli(
        argv + ["--input", str(data), "--l", "4", "--delta", "0.1", "--out", str(out)] + extra,
        capsys,
    )
    assert (code, stdout) == (2, "")
    assert err.startswith("error: invalid: ")
    assert "--n" in err and "--input" in err and len(err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "exp.cfg"]


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


@pytest.mark.parametrize("argv", [
    ["estimate", "--k", "1"],
    ["coverage", "--k", "1", "--trials", "4"],
], ids=["estimate", "coverage-on-pool"])
def test_out_of_memory_is_one_line(argv, tmp_path, monkeypatch, capsys):
    message = "Unable to allocate 72.8 TiB for an array with shape (10000000000000, 1)"
    monkeypatch.setenv("ENTROBOUND_THREADS", "2")

    def sample(model, n, seed, out=None):
        raise MemoryError(message)

    # Both commands draw their rows block by block, through densities.sample.
    monkeypatch.setattr(densities, "sample", sample)
    out = tmp_path / "r.csv"
    code, stdout, err = run_cli(
        argv + ["--density", "tent", "--l", "4", "--n", "10000000000000", "--delta", "0.1",
                "--out", str(out)], capsys
    )
    assert (code, stdout, err) == (1, "", f"error: failed: out of memory: {message}\n")
    assert list(tmp_path.iterdir()) == []


_BOUND = ["--k", "1", "--l", "4", "--m", "100", "--n", "1000", "--delta", "0.1"]


@pytest.mark.parametrize("argv, option", [
    (["optimize-m", "--k", "1", "--l=--", "--n", "1000", "--delta", "0.1"], "l"),
    (["bound", *_BOUND, "--out=--"], "out"),
], ids=["number", "string"])
def test_double_dash_value_rejected(argv, option, tmp_path, monkeypatch, capsys):
    """--opt=-- is no value, though Python 3.10-3.12's argparse stores []."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: invalid: argument --{option}: expected one argument\n"
    assert list(tmp_path.iterdir()) == []


_HUGE = "9" * 400


@pytest.mark.parametrize("argv", [
    ["bound", "--k", "1", "--l", "4", "--m", _HUGE, "--n", "1000", "--delta", "0.1"],
    ["bound", "--k", "1", "--l", "4", "--m", "100", "--n", _HUGE, "--delta", "0.1"],
    ["optimize-m", "--k", "1", "--l", "4", "--n", _HUGE, "--delta", "0.1"],
    ["estimate", "--density", "tent", "--k", "1100", "--l", "4", "--n", "1000",
     "--delta", "0.1"],
    ["estimate", "--density", "tent", "--k", _HUGE, "--l", "4", "--n", "1000",
     "--delta", "0.1"],
], ids=["bound-m", "bound-n", "optimize-m-n", "tent-k-1100", "tent-k-huge"])
def test_number_beyond_float_range_invalid(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid: ") and len(err.splitlines()) == 1


_FLOAT_MAX = "1.7976931348623157e+308"


@pytest.mark.parametrize("argv, err", [
    (["bound", "--k", "1", "--l", "4", "--m", _HUGE, "--n", "1000", "--delta", "0.1"],
     f"--m exceeds the largest float64, {_FLOAT_MAX}"),
    (["estimate", "--density", "tent", "--k", "1100", "--l", "4", "--n", "1000",
      "--delta", "0.1"],
     "--k: dimension K = 1100 is too large: L = 2^(K+1) overflows float64"),
    (["mi-estimate", "--density", "tent", "--k1", "1", "--k2", "1100", "--l", "4",
      "--n", "1000", "--delta", "0.1"],
     "--k2: dimension K = 1100 is too large: L = 2^(K+1) overflows float64"),
    (["estimate", "--density", "tent", "--k", _HUGE, "--l", "4", "--n", "1000",
      "--delta", "0.1"],
     f"--k exceeds the largest float64, {_FLOAT_MAX}"),
], ids=["bound-m", "tent-k-1100", "mi-k2-1100", "tent-k-huge"])
def test_number_beyond_float_range_names_its_option(argv, err, capsys):
    assert run_cli(argv, capsys) == (2, "", f"error: invalid: {err}\n")


def test_subnormal_l_gives_finite_bound(capsys):
    """2 * (K+1)! / L overflows at L = 5e-324; eta takes its log form instead."""
    code, out, err = run_cli(
        ["bound", "--k", "1", "--l", "5e-324", "--m", "100", "--n", "1000", "--delta", "0.1"],
        capsys,
    )
    assert (code, err) == (0, "")
    assert out.startswith("total=0.62909237261884221 quant_bias=0 ")


@pytest.mark.parametrize("argv", [
    ["bound", "--k", "1", "--l", "4", "--m", "100", "--n", "1000", "--delta", "5e-324"],
    ["optimize-m", "--k", "2", "--l", "1.7e308", "--n", "1000", "--delta", "0.1"],
], ids=["subnormal-delta", "l-times-k-overflows"])
def test_finite_bound_where_an_intermediate_overflows(argv, capsys):
    """2/delta overflows for a subnormal delta, and L * K above the float maximum."""
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    terms = dict(item.split("=") for item in out.split())
    assert all(math.isfinite(float(value)) for value in terms.values())


def test_tiny_l_gives_finite_bias(capsys):
    code, out, err = run_cli(
        ["bound", "--k", "1", "--l", "1e-308", "--m", "100", "--n", "1000", "--delta", "0.1"],
        capsys,
    )
    assert (code, err) == (0, "")
    terms = dict(item.split("=") for item in out.split())
    assert all(math.isfinite(float(value)) for value in terms.values())


def test_subnormal_l_estimate(capsys):
    code, out, err = run_cli(
        ["estimate", "--density", "tent", "--k", "1", "--l", "5e-324", "--n", "1000",
         "--delta", "0.1"],
        capsys,
    )
    assert (code, err) == (0, "")
    assert out.endswith(" M=1\n")


# Option values for the fuzz: well-formed numbers, ints of 300-400 digits,
# strings argparse may take for flags, non-finite and subnormal floats, a
# digit separator and a path that starts with a dash.
_FUZZ_VALUES = st.one_of(
    st.sampled_from(["1", "2", "4", "100", "1000", "0.1", "0.5", "1e3", "-1", "0"]),
    st.integers(10**299, 10**400).map(str),
    st.sampled_from(["--", "-x", "", "nan", "inf", "-inf", "5e-324", "1e-308", "1_0",
                     "-r.csv"]),
)
# Each command's options, at values that run; the fuzz replaces some of them.
_FUZZ_DEMO = {"c": "1", "delta": "0.1", "seed": None, "estimator": None, "out": None}
_FUZZ_BASE = {
    "bound": {"k": "1", "l": "4", "m": "100", "n": "1000", "delta": "0.1", "out": None},
    "optimize-m": {"k": "1", "l": "4", "n": "1000", "delta": "0.1", "out": None},
    "estimate": {"density": "tent", "input": None, "k": "1", "l": "4", "m": None,
                 "delta": "0.1", "seed": None, "out": None},
    "mi-estimate": {"density": "tent", "k1": "1", "k2": "1", "l": "8", "delta": "0.1",
                    "seed": None, "out": None},
    "coverage": {"density": "tent", "k": "1", "l": "4", "m": None, "delta": "0.1",
                 "seed": None, "out": None},
    "prop1-demo": _FUZZ_DEMO,
    "mi-demo": _FUZZ_DEMO,
    "kl-demo": _FUZZ_DEMO,
}
# Options whose value is never fuzzed, only where it is given: a 300-digit
# --n or --trials passes validation and then draws or loops for as long as it
# says.
_FUZZ_FIXED = {
    "estimate": {"n": "100"},
    "mi-estimate": {"n": "100"},
    "coverage": {"n": "100", "trials": "12"},
    "prop1-demo": {"n": "100", "trials": "10"},
    "mi-demo": {"n": "100", "trials": "10"},
    "kl-demo": {"n": "100", "trials": "10"},
}


@st.composite
def _fuzz_case(draw):
    """(argv, config file text or None) of one command."""
    command = draw(st.sampled_from(sorted(_FUZZ_BASE)))
    argv, in_file = [command], {}
    options = [(key, st.one_of(st.just(base), _FUZZ_VALUES))
               for key, base in _FUZZ_BASE[command].items()]
    options += [(key, st.just(value)) for key, value in _FUZZ_FIXED.get(command, {}).items()]
    for key, values in options:
        value = draw(values, label=key)
        if value is None:
            continue
        where = draw(st.sampled_from(["--key value", "--key=value", "file"]))
        if where == "file":
            in_file[key] = value
        else:
            argv += [f"--{key}={value}"] if "=" in where else [f"--{key}", value]
    return argv, "".join(f"{key} = {value}\n" for key, value in in_file.items()) or None


def test_main_contract_fuzz(tmp_path, monkeypatch, capsys):
    """Any argv or config file of every command but verify-lemmas: exit 0, 1
    or 2; an error is exactly one 'error: ' line, and success prints nothing
    to stderr."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ENTROBOUND_THREADS", "2")
    cfg = tmp_path / "fuzz.cfg"

    @settings(max_examples=400)
    @given(case=_fuzz_case())
    @example(case=(["prop1-demo", "--c", "1", "--delta", "0.1", "--n", "10", "--trials", "10",
                    "--estimator="], None))
    @example(case=(["prop1-demo", "--c", "1", "--delta", "5e-324", "--n", "100", "--trials",
                    "10"], None))
    def check(case):
        argv, text = case
        if text is not None:
            cfg.write_text(text)
            argv = argv + ["--config", str(cfg)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        if code:
            assert err.startswith("error: ") and len(err.splitlines()) == 1, (argv, err)
        else:
            assert err == "", (argv, err)

    check()


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
        assert not keys & {"m_list", "k1", "k2"}

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

    @pytest.mark.parametrize("k, l", [("2", "8"), ("3", "16")], ids=["small-grid", "large-grid"])
    def test_streamed_trials_match_drawn_samples(self, k, l, tmp_path, capsys, monkeypatch):
        """Trials of 2B + 7 rows, binned as drawn, write the same CSV bytes on
        1 and 3 threads, and each estimate is that of the trial's drawn array."""
        n, trials, seed = 2**16 + 7, 4, 12
        outputs = []
        for threads in ("1", "3"):
            monkeypatch.setenv("ENTROBOUND_THREADS", threads)
            out = tmp_path / f"cov_{threads}.csv"
            code, _, _ = run_cli(
                ["coverage", "--density", "tent", "--k", k, "--l", l, "--n", str(n),
                 "--delta", "0.1", "--trials", str(trials), "--seed", str(seed),
                 "--out", str(out)], capsys)
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        rows = outputs[0].decode().splitlines()[1:-1]
        assert len(rows) == trials
        for t, row in enumerate(rows):
            drawn = densities.sample(tent_density(int(k)), n, cli.split(seed, t))
            expected = cli.estimate_entropy_certified(drawn, float(l), 0.1)
            assert row.split(",")[3] == cli._fmt(expected.estimate)

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

    def test_pool_does_not_nest(self, tmp_path, capsys, executors, monkeypatch):
        """Trials on the pool build their 2-block histograms serially."""
        monkeypatch.setenv("ENTROBOUND_THREADS", "2")
        code, _, _ = run_cli(
            ["coverage", "--density", "tent", "--k", "1", "--l", "4",
             "--n", str(2**16 + 1), "--delta", "0.1", "--trials", "3", "--seed", "9",
             "--out", str(tmp_path / "cov.csv")],
            capsys,
        )
        assert code == 0
        assert executors == [2]


_COVERAGE_ARGS = ["coverage", "--density", "tent", "--k", "1", "--l", "4", "--n", "100",
                  "--delta", "0.1", "--trials", "2", "--seed", "9"]
_ESTIMATE_ARGS = ["estimate", "--density", "tent", "--k", "1", "--l", "4", "--n", "100",
                  "--delta", "0.1"]


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
        """The calls that draw rows: estimate and coverage draw through densities.sample."""
        calls = []
        real = densities.sample

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(densities, "sample", spy)
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
        # The plan refuses M before a row is drawn; no CSV, no sidecar.
        assert drawn == [] and list(tmp_path.iterdir()) == []

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

        monkeypatch.setattr(oracle, "numeric_entropy", counted)
        monkeypatch.chdir(tmp_path)
        argv, csv_digest, meta_digest = _GOLDEN_RUNS["verify-lemmas-k2"]
        assert run_cli(argv + ["--out", "r.csv"], capsys)[0] == 0
        tent = tent_density(2).name
        assert names == [tent, f"{tent}-quantized-8", f"{tent}-quantized-16"]
        assert _output_digests() == (csv_digest, meta_digest)

    @pytest.mark.parametrize("in_config", [False, True])
    def test_pairs_is_not_an_option(self, in_config, tmp_path, capsys):
        """The x log x check always draws its fixed number of pairs."""
        cfg = tmp_path / "lem.cfg"
        cfg.write_text("pairs = 10\n")
        flags = ["--config", str(cfg)] if in_config else ["--pairs", "10"]
        out = tmp_path / "lem.csv"
        code, stdout, err = run_cli(["verify-lemmas", "--k", "1", *flags, "--out", str(out)],
                                    capsys)
        assert (code, stdout) == (2, "")
        assert err.startswith("error: invalid: unknown config key 'pairs'" if in_config
                              else "error: invalid: unrecognized arguments: --pairs")
        assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == [cfg]

    def test_tolerance_is_not_an_option(self, tmp_path, capsys):
        """The quadrature tolerance follows from --k alone."""
        out = tmp_path / "lem.csv"
        code, stdout, err = run_cli(
            ["verify-lemmas", "--k", "1", "--tol", "1e-6", "--out", str(out)], capsys
        )
        assert (code, stdout) == (2, "")
        assert err.startswith("error: invalid: unrecognized arguments: --tol")
        assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_quadrature_budget_exhausted_is_one_line(self, tmp_path, capsys, monkeypatch):
        """A quadrature that runs out of points fails the run: exit 1, no output."""
        monkeypatch.setattr(oracle, "_MAX_POINTS_PER_LEVEL", 2**12)
        out = tmp_path / "lem.csv"
        code, stdout, err = run_cli(["verify-lemmas", "--k", "2", "--out", str(out)], capsys)
        assert (code, stdout) == (1, "")
        assert err == ("error: failed: integration did not reach tol=1e-05 within the "
                       "4096 points-per-level budget (K=2)\n")
        assert list(tmp_path.iterdir()) == []

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

    def test_csv_memory_is_the_array(self, tmp_path):
        """Rows accumulate as doubles, so the traced peak stays near the result's size."""
        path = tmp_path / "d.csv"
        rows = np.random.default_rng(8).random((100_000, 2))
        np.savetxt(path, rows, fmt="%.17g", delimiter=",")
        tracemalloc.start()
        try:
            pts = ingest(path, "csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pts.tobytes() == rows.tobytes()
        assert pts.flags.writeable and pts.flags.c_contiguous
        assert peak <= 3 * pts.nbytes

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

    def test_value_starting_with_dash(self, tmp_path, monkeypatch, capsys):
        """A file's value is one --key=value token, so "-r.csv" is the path."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "exp.cfg").write_text(
            "k = 1\nl = 4\nm = 100\nn = 1000\ndelta = 0.1\nout = -r.csv\n")
        code, _, err = run_cli(["bound", "--config", "exp.cfg"], capsys)
        assert (code, err) == (0, "")
        assert (tmp_path / "-r.csv").read_text().startswith("k,l,m,n,delta,")

    def test_value_typed_by_argparse_names_the_option(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("k = 1\nl = 4\nm = 100\nn = 1e3\ndelta = 0.1\n")
        code, out, err = run_cli(["bound", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: invalid: argument --n: invalid int value: '1e3'\n"

    def test_line_without_equals_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("oops\n")
        code, out, err = run_cli(["bound", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: invalid: config line 1: expected 'key = value', got 'oops'\n"

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
              "321598c586540459853a27bac967d94fc1c8f5ee62660ee3e5fbe9974f738470"),
    "optimize-m": (["optimize-m", "--k", "2", "--l", "4", "--n", "100000", "--delta", "0.05"],
                   "831f41f8b6046f3a9095dbca49e9bc4eaedf1d456f46bf94e96f768cf3d22d3e",
                   "9b2b9e0bb01456a2f94746d1c0e6e0054340ed336a5d90634620217b2d0fb4f8"),
    "estimate": (["estimate", "--density", "tent", "--k", "2", "--l", "8", "--n", "5000",
                  "--delta", "0.1", "--seed", "3"],
                 "bc724c110bb4cc60e250f77b0f994f138cd7c368a3960d7acf612a902f4ec4b8",
                 "dee83f760ebf65c14823c58499e56fbd834400f7ff3315f6cc888d5007bd34f7"),
    "mi-estimate": (["mi-estimate", "--density", "tent", "--k1", "1", "--k2", "2", "--l", "8",
                     "--n", "5000", "--delta", "0.1", "--seed", "3"],
                    "f7b547063d6de3a3b3fb0da23f889e67c82592ce5d88b9722b7f29e273051640",
                    "18ca32aef257f2087a90353c63178d97a0443d4de12b1c7992347a4be249fb92"),
    "coverage": (["coverage", "--density", "tent", "--k", "1", "--l", "4", "--n", "2000",
                  "--delta", "0.1", "--trials", "5", "--seed", "3"],
                 "eb58a571a4f9c7f8d1e7eccecadc2c20395697cc05814a7ab993efa1d1244c1d",
                 "a6a6ee9af49c43c9f91ee873929e2c42ba50d6807351618adf2ec30e26ac739c"),
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
                      "dab4c3ece257f38ae031a76db92b7cdb3798693aa0509b7395bb244fc42dd9e6"),
    "verify-lemmas-k2": (["verify-lemmas", "--k", "2", "--m-list", "8,16"],
                         "dc340229754563ee06fcebee9c0a2d278ee1db09e98086bf63f4c3a668bb9b80",
                         "40e29dcba5d1a642272e0b77287b6b7c9b1c75d1968d57e2898124133b2ee648"),
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


def test_f64le_ingest_makes_no_copy(tmp_path):
    """A regular f64le file is mapped, not copied: with the non-finite scan
    on, the traced peak is the scan's mask, an eighth of the array."""
    pts = np.random.default_rng(9).random((2**17, 3))
    path = tmp_path / "d.bin"
    emit_f64le(path, pts)
    tracemalloc.start()
    try:
        got = ingest(path, "f64le", k=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.tobytes() == pts.tobytes()
    assert peak < pts.nbytes // 4


_PLANTED = [math.nan, -math.nan, math.inf, -math.inf, -0.5, 1.5, -0.0, 1.0]


@st.composite
def _planted_case(draw):
    """(argv of estimate or mi-estimate without --input, rows, threads)."""
    command = draw(st.sampled_from(["estimate", "mi-estimate"]))
    if command == "estimate":
        k = draw(st.integers(1, 2))
        m = draw(st.sampled_from([None, 2, 40]))  # 2 is below the validity threshold
        argv = ["estimate", "--k", str(k)] + ([] if m is None else ["--m", str(m)])
    else:
        k1, k2 = draw(st.sampled_from([(1, 1), (1, 2), (2, 1)]))
        k = k1 + k2
        argv = ["mi-estimate", "--k1", str(k1), "--k2", str(k2)]
    n = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rows = np.random.default_rng(seed).random((n, k))
    for row, col, value in draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, k - 1), st.sampled_from(_PLANTED)),
            max_size=4)):
        rows[row, col] = value
    return argv + ["--format", "f64le", "--l", "4", "--delta", "0.1"], rows, draw(
        st.sampled_from(["1", "2"]))


def test_deferred_non_finite_scan_matches_eager_scan(tmp_path, monkeypatch, capsys):
    """estimate and mi-estimate scan an f64le input for NaN and infinities
    only when the estimate fails.  The outcome must be what scanning in
    ingest first gives: ingest's line for the first non-finite row if there
    is one, even when an invalid --m fails before any binning, else the
    command's own result."""
    eager = cli.ingest
    files = itertools.count()

    @settings(max_examples=300)
    @given(case=_planted_case())
    def check(case):
        argv, rows, threads = case
        monkeypatch.setenv("ENTROBOUND_THREADS", threads)
        path = tmp_path / f"{next(files)}.f64le"
        emit_f64le(path, rows)
        argv = argv + ["--input", str(path)]
        deferred = run_cli(argv, capsys)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "ingest", lambda path, fmt, k=None, **_: eager(path, fmt, k))
            reference = run_cli(argv, capsys)
        assert deferred == reference, argv
        bad = ~np.isfinite(rows).all(axis=1)
        if bad.any():
            message = f"error: io: {path}: non-finite value at row {int(np.argmax(bad))}\n"
            assert deferred == (1, "", message)

    check()


def _cli_child_env():
    """The environment of a CLI child with stdout block-buffered, as in a shell."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    return env


@pytest.mark.parametrize("sink", ["closed pipe", "/dev/full"])
@pytest.mark.parametrize("argv", [
    ["bound", "--k", "1", "--l", "4", "--m", "16", "--n", "1000", "--delta", "0.1"],
    ["estimate", "--density", "tent", "--k", "1", "--l", "4", "--n", "1000", "--delta", "0.1"],
], ids=["bound", "estimate"])
def test_failed_stdout_is_one_line(argv, sink, tmp_path):
    """stdout that cannot be written is exit 1 with one 'error: io:' line,
    and the interpreter's own flush at exit stays silent; the --out files
    are already in place."""
    if sink == "closed pipe":
        read_end, stdout = os.pipe()
        os.close(read_end)
        expected = f"error: io: [Errno {errno.EPIPE}] "
    elif os.path.exists(sink):
        stdout = os.open(sink, os.O_WRONLY)
        expected = f"error: io: [Errno {errno.ENOSPC}] "
    else:
        pytest.skip(f"no {sink}")
    out = tmp_path / "r.csv"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "entrobound.cli", *argv, "--out", str(out)],
            stdout=stdout, stderr=subprocess.PIPE, text=True, env=_cli_child_env(),
        )
    finally:
        os.close(stdout)
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith(expected), proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.csv.meta"]


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
@pytest.mark.parametrize("threads", ["1", "2"])
def test_interrupted_coverage_is_one_line(threads, tmp_path, monkeypatch, capsys):
    """SIGINT is exit 130 with one line; the trials that have not started
    are cancelled, and no temporary output is left.  On the pool, the first
    trial sends the signal once every trial has been submitted."""
    monkeypatch.setenv("ENTROBOUND_THREADS", threads)
    trials = 200
    submitted = threading.Event()

    class Executor(estimators.ThreadPoolExecutor):
        count = 0

        def submit(self, *args, **kwargs):
            future = super().submit(*args, **kwargs)
            self.count += 1
            if self.count == trials:
                submitted.set()
            return future

    monkeypatch.setattr(estimators, "ThreadPoolExecutor", Executor)
    estimate = cli.estimate_entropy_certified
    started = []

    def first_trial_interrupts(*args, **kwargs):
        started.append(None)
        if len(started) == 1:
            assert threads == "1" or submitted.wait(timeout=60)
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        return estimate(*args, **kwargs)

    monkeypatch.setattr(cli, "estimate_entropy_certified", first_trial_interrupts)
    code, out, err = run_cli(
        ["coverage", "--density", "tent", "--k", "1", "--l", "4", "--n", "1000",
         "--delta", "0.1", "--trials", str(trials), "--out", str(tmp_path / "cov.csv")],
        capsys,
    )
    assert (code, out, err) == (130, "", "error: interrupted\n")
    assert len(started) < trials
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX signals and flock")
def test_interrupt_ends_the_estimator_child(tmp_path):
    """SIGINT to a demo kills its running --estimator child before exit 130.

    The child holds a lock on its marker file while it lives: a process's
    locks are released when it dies, before anyone reaps it."""
    import fcntl

    marker = tmp_path / "child.lock"
    script = tmp_path / "slow.py"
    script.write_text(
        "import fcntl, os, sys, time\n"
        "fh = open(sys.argv[1] + '.tmp', 'w')\n"
        "fcntl.flock(fh, fcntl.LOCK_EX)\n"
        "os.replace(fh.name, sys.argv[1])\n"
        "time.sleep(600)\n"
    )
    estimator = " ".join(shlex.quote(str(arg)) for arg in (sys.executable, script, marker))
    parent = subprocess.Popen(
        [sys.executable, "-m", "entrobound.cli", "prop1-demo", "--c", "1", "--delta", "0.1",
         "--n", "10", "--trials", "10", "--estimator", estimator],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_cli_child_env(),
    )
    try:
        deadline = time.monotonic() + 120
        while not marker.exists():  # the child is running and holds the lock
            assert parent.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        parent.send_signal(signal.SIGINT)
        out, err = parent.communicate(timeout=120)
    finally:
        parent.kill()
    assert (parent.returncode, out, err) == (130, "", "error: interrupted\n")
    with open(marker) as fh:
        deadline = time.monotonic() + 30
        while True:  # the parent sent SIGKILL without waiting for the child
            try:
                fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
                break
            except BlockingIOError:
                assert time.monotonic() < deadline, "the estimator child outlived its parent"
                time.sleep(0.01)
