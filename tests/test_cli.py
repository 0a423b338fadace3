import builtins
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings

import quadboson as qb
from quadboson import CLASS_CODES, cli, core, formio, spectral
from quadboson.core import MEMORY_BUDGET
from quadboson.errors import NullNorm, Overflow, PairingFailure
from quadboson.cli import main

from conftest import OUTER_EDGE, bcs, random_form


@pytest.fixture
def form_file(tmp_path):
    path = tmp_path / "bcs05.json"
    qb.save_form(qb.bcs_form(bcs(0.5)), path)
    return str(path)


@pytest.fixture
def jordan_file(tmp_path):
    path = tmp_path / "bcs10.json"
    qb.save_form(qb.bcs_form(bcs(1.0)), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_doc(capsys, form_file):
    code, out, _ = run(capsys, "analyze", form_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"] == "PositiveDefinite"
    assert doc["n_modes"] == 2
    assert len(doc["input_digest"]) == 64
    lams = sorted(l[0] for l in doc["mode_frequencies"])
    assert lams == pytest.approx([0.5660254037844386, 1.1660254037844386],
                                 abs=1e-9)
    assert all(row["norm_residual"] <= 1e-10 for row in doc["mode_table"])


def test_analyze_jordan_warnings(capsys, jordan_file):
    code, out, _ = run(capsys, "analyze", jordan_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"] == "NonDiagonalizable"
    assert any("Jordan" in w for w in doc["warnings"])
    assert any("real and non-zero" in w for w in doc["warnings"])


def test_analyze_emit_modes(capsys, form_file):
    code, out, _ = run(capsys, "analyze", form_file, "--emit-modes")
    doc = json.loads(out)
    assert code == 0
    assert "diagonal_form" in doc and "invariants" in doc
    assert len(doc["invariants"]) == 2


@pytest.mark.parametrize("emit", [False, True])
def test_only_emit_modes_reads_the_inverse_transform(capsys, monkeypatch, form_file, emit):
    # W^-1 = M Wbar M is computed on first read, and only the diagonal form reads it
    made = []
    normalize = spectral.normalize_pairs

    def recording(*args):
        made.append(normalize(*args))
        return made[-1]

    monkeypatch.setattr(spectral, "normalize_pairs", recording)
    argv = ["analyze", form_file] + ["--emit-modes"] * emit
    assert run(capsys, *argv)[0] == 0
    assert len(made) == 1 and ("W_inv" in made[0].__dict__) == emit


def _count_eigensolves(monkeypatch):
    calls = []
    eig = np.linalg.eig

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return eig(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eig", counted)
    return calls


@pytest.mark.parametrize("command", ["analyze", "evolve"])
def test_command_solves_once(capsys, monkeypatch, form_file, command):
    argv = {"analyze": ["analyze", form_file, "--emit-modes"],
            "evolve": ["evolve", form_file, "--t", "0:2:5"]}[command]
    calls = _count_eigensolves(monkeypatch)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == 1


def test_oracle_solves_once(capsys, monkeypatch, form_file):
    calls = _count_eigensolves(monkeypatch)
    code, _, _ = run(capsys, "oracle", "--input", form_file, "--nmax", "6",
                     "--levels", "3")
    assert code == 0
    assert len(calls) == 1


def test_analyze_reads_its_form_file_once(capsys, monkeypatch, form_file):
    # the printed digest names the bytes that were parsed, not a second read
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if file == form_file:
            opened.append(args)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    code, out, _ = run(capsys, "analyze", form_file)
    assert code == 0
    assert len(opened) == 1
    assert json.loads(out)["input_digest"] == hashlib.sha256(Path(form_file).read_bytes()).hexdigest()


def test_analyze_csv_deterministic(capsys, form_file):
    code1, out1, _ = run(capsys, "analyze", form_file, "--format", "csv")
    code2, out2, _ = run(capsys, "analyze", form_file, "--format", "csv")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "field,value"


def test_analyze_missing_file(capsys, tmp_path):
    path = tmp_path / "nope.json"
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 3
    assert "cannot read" in err


def test_analyze_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 3
    assert "error" in err
    # an integer literal beyond the float range
    path.write_text('{"n_modes": 1, "A": [[[1%s, 0]]], "B": [[[0, 0]]]}' % ("0" * 400))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 3 and out == "" and "A[0][0]" in err
    # bytes that are not UTF-8, and nesting beyond the JSON parser's recursion
    path.write_bytes(b'\xff\xfe{"n_modes": 1}')
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 3 and out == "" and "cannot read" in err
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 3 and out == "" and "recursion" in err


def test_analyze_structure_violation(capsys, tmp_path):
    path = tmp_path / "nonherm.json"
    path.write_text(json.dumps({
        "n_modes": 1,
        "A": [[[0.0, 1.0]]],  # purely imaginary diagonal: not hermitian
        "B": [[[0.0, 0.0]]],
    }))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 4
    assert "hermitian" in err


def test_sweep_classification_codes(capsys):
    code, out, _ = run(capsys, "sweep", "--delta", "0.0:1.5:7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "epsilon,gamma,delta,kappa,class_code,max_im_lambda,min_sigma"
    codes = [int(l.split(",")[4]) for l in lines[1:]]
    # 0, 0.25, 0.5, 0.75 positive definite; 1.0 jordan; 1.25, 1.5 complex
    assert codes == [0, 0, 0, 0, 3, 2, 2]


def test_sweep_two_parameters(capsys):
    code, out, _ = run(capsys, "sweep", "--delta", "0.0:1.0:3",
                       "--kappa", "0.0:0.05:2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 3 * 2


def test_sweep_jobs_agree(capsys):
    argv = ["sweep", "--delta", "0.8:1.2:9"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv, "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_sweep_bad_ranges(capsys, form_file):
    code, _, err = run(capsys, "sweep", "--delta", "0.0:1.0:1")
    assert code == 2 and "steps" in err
    code, _, err = run(capsys, "sweep", "--delta", "1.0:0.0:5")
    assert code == 2
    code, _, err = run(capsys, "sweep")
    assert code == 2  # nothing ranged
    code, _, err = run(capsys, "sweep", "--delta", "0:1:3", "--kappa", "0:0.1:3",
                       "--gamma", "0.1:0.2:3")
    assert code == 2  # three ranged
    for argv in (("sweep", "--delta", "0:1:3", "--gamma", "1.5"),
                 ("sweep", "--delta", "0:1:3", "--gamma", "0.0:0.5:3")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "gamma" in err  # gamma outside (0, eps)
    for argv in (("sweep", "--delta", "0:inf:3"),
                 ("sweep", "--delta", "0:1:3", "--kappa", "nan"),
                 ("bcs", "--sweep", "0:inf:3"),
                 ("evolve", form_file, "--t", "0:1:3", "--complex-time", "nan"),
                 ("evolve", form_file, "--t", "1", "--complex-time", "inf"),
                 ("evolve", form_file, "--t", "1", "--complex-time=-inf")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "finite" in err
    for argv in (("--nmax", "0"), ("--levels", "0"), ("--levels", "-1")):
        code, out, err = run(capsys, "oracle", "--input", form_file, *argv)
        assert code == 2 and out == "" and ">= 1" in err


@pytest.mark.parametrize("argv", [("evolve", "FORM", "--t", "-1e308:1e308:3"),
                                  ("sweep", "--delta", "-1e308:1e308:3"),
                                  ("bcs", "--sweep", "-1e308:1e308:3")],
                         ids=["evolve", "sweep", "bcs-sweep"])
def test_a_range_wider_than_the_float_range_is_refused(capsys, monkeypatch, form_file, argv):
    # hi - lo overflows: np.linspace would warn and give [nan, inf, 1e308]
    def no_grid(parsed):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(cli, "_axis", no_grid)
    argv = [form_file if a == "FORM" else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: range width 1e+308 - (-1e+308) is beyond the float range\n"


def test_a_reader_closing_stdout_early_ends_quietly():
    # `quadboson sweep ... | head -1`: the 1.4 MB table outgrows the pipe, so
    # the write is still blocked when the reader closes its end
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-m", "quadboson.cli", "sweep",
                             "--delta", "0:1.5:20000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"epsilon,gamma,delta,kappa,")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (cli.EXIT_BROKEN_PIPE, b"")


def test_a_closed_stdout_is_refused_unless_out_is_given(capsys, tmp_path):
    # `quadboson bcs --delta 0.5 >&-`: started with fd 1 closed, Python has
    # no sys.stdout, so the command asks for --out before it solves
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    out = tmp_path / "bcs.json"

    def closed(*argv):
        return subprocess.run([sys.executable, "-m", "quadboson.cli", "bcs", "--delta", "0.5",
                               *argv], stderr=subprocess.PIPE, env=env,
                              preexec_fn=lambda: os.close(1), timeout=120)

    proc = closed()
    assert (proc.returncode, proc.stderr) == (
        2, b"error: stdout is closed; write the output with --out FILE\n")
    proc = closed("--out", str(out))
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert out.read_text(encoding="utf-8") == run(capsys, "bcs", "--delta", "0.5")[1]


@pytest.mark.parametrize("argv", [("sweep", "--delta", "-0.5:0.5:11"),
                                  ("evolve", "FORM", "--t", "-1:1:5"),
                                  ("bcs", "--sweep", "-1.2:-0.8:5"),
                                  ("sweep", "--delta", "-.5:.5:3")],
                         ids=["sweep", "evolve", "bcs-sweep", "leading-dot"])
def test_negative_ranges_read_as_with_equals(capsys, form_file, argv):
    # a value after a flag may start with "-" and a digit or "."
    argv = [form_file if a == "FORM" else a for a in argv]
    joined = [*argv[:-2], f"{argv[-2]}={argv[-1]}"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert (code, out) == run(capsys, *joined)[:2]


def _tolerance_argvs(form_file):
    return [("analyze", form_file), ("sweep", "--delta", "0:1:3"),
            ("evolve", form_file, "--t", "0:1:3"), ("bcs", "--delta", "0.5"),
            ("bcs", "--sweep", "0:1:3"), ("oracle", "--input", form_file)]


@pytest.mark.parametrize("flag", ["--tol-eig", "--tol-struct"])
@pytest.mark.parametrize("value", ["-1", "nan", "inf", "-inf"])
def test_bad_tolerance_flags_exit_2(capsys, form_file, flag, value):
    for argv in _tolerance_argvs(form_file):
        code, out, err = run(capsys, *argv, f"{flag}={value}")
        assert (code, out) == (2, ""), argv
        assert flag in err


def test_zero_tolerances_are_allowed(capsys, form_file):
    for argv in _tolerance_argvs(form_file):
        code, out, _ = run(capsys, *argv, "--tol-eig", "0", "--tol-struct", "0")
        assert code == 0 and out, argv


def test_oversized_grids_are_refused_before_allocating(capsys, monkeypatch, form_file):
    def no_linspace(*args, **kwargs):
        raise AssertionError("linspace called")

    monkeypatch.setattr(np, "linspace", no_linspace)
    huge = "0:1:100000000000"
    for argv in (("sweep", "--delta", huge),
                 ("sweep", "--delta", "0:1:600000", "--kappa", "0:1:600000"),
                 ("sweep", "--delta", huge + "000000000", "--kappa", huge + "000000000"),
                 ("sweep", "--gamma", "0.1:0.2:70000", "--kappa", "0:1:70000"),
                 ("bcs", "--sweep", huge),
                 ("evolve", form_file, "--t", huge)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "budget" in err
    # a grid at the budget is admitted (it reaches linspace), one point more is not
    row = cli.EVOLVE_ROW_BYTES + 2 * cli.EVOLVE_MODE_BYTES
    for argv, points in ((("sweep", "--delta"), MEMORY_BUDGET // cli.SWEEP_POINT_BYTES),
                         (("bcs", "--sweep"), MEMORY_BUDGET // cli.SWEEP_POINT_BYTES),
                         (("evolve", form_file, "--t"), MEMORY_BUDGET // row)):
        with pytest.raises(AssertionError, match="linspace"):
            main([*argv, f"0:1:{points}"])
        code, out, err = run(capsys, *argv, f"0:1:{points + 1}")
        assert (code, out) == (2, "") and "budget" in err, argv


def _form_file_of(tmp_path, n, rng):
    path = tmp_path / f"random{n}.json"
    qb.save_form(random_form(rng, n, shift=0.5), path)
    return str(path)


def test_emit_modes_is_refused_before_solving(capsys, monkeypatch, tmp_path, form_file, rng):
    calls = _count_eigensolves(monkeypatch)
    # the smallest n whose 4 n^3 invariant entries exceed the budget (95 at
    # 1 GiB) is refused, n - 1 reaches the eigensolve
    refused = next(n for n in range(1, 1000)
                   if 4 * n ** 3 * cli.EMIT_MODES_ENTRY_BYTES > MEMORY_BUDGET)
    assert 90 <= refused <= 110
    code, out, err = run(capsys, "analyze", _form_file_of(tmp_path, refused, rng), "--emit-modes")
    assert (code, out, calls) == (2, "", []) and "budget" in err

    def stop(matrix):
        calls.append(matrix.shape)
        raise AssertionError("eig called")

    monkeypatch.setattr(np.linalg, "eig", stop)
    with pytest.raises(AssertionError, match="eig called"):
        main(["analyze", _form_file_of(tmp_path, refused - 1, rng), "--emit-modes"])
    assert len(calls) == 1
    # a budget one byte below a 2-mode report refuses it; without --emit-modes
    # the form is analyzed whatever the budget
    monkeypatch.undo()
    calls = _count_eigensolves(monkeypatch)
    need = 4 * 2 ** 3 * cli.EMIT_MODES_ENTRY_BYTES
    monkeypatch.setattr(cli, "MEMORY_BUDGET", need - 1)
    code, out, err = run(capsys, "analyze", form_file, "--emit-modes")
    assert (code, out, calls) == (2, "", []) and "budget" in err
    assert run(capsys, "analyze", form_file)[0] == 0 and len(calls) == 1
    monkeypatch.setattr(cli, "MEMORY_BUDGET", need)
    assert run(capsys, "analyze", form_file, "--emit-modes")[0] == 0 and len(calls) == 2


def test_csv_ignores_emit_modes(capsys, monkeypatch, form_file):
    # the CSV table prints no diagonal form, so --emit-modes costs it neither
    # the emit-modes budget (10240 B at n = 2) nor a vanishing norm
    def fail(*args):
        raise AssertionError("diagonal form built")

    monkeypatch.setattr(spectral.BogoliubovTransform, "invariants", property(fail))
    monkeypatch.setattr(spectral.BogoliubovTransform, "to_dict", fail)
    monkeypatch.setattr(cli, "MEMORY_BUDGET", 5000)
    csv = ("analyze", form_file, "--format", "csv")
    plain = run(capsys, *csv)
    assert plain[0] == 0 and run(capsys, *csv, "--emit-modes") == plain
    code, out, err = run(capsys, "analyze", form_file, "--emit-modes")
    assert (code, out) == (2, "") and "budget" in err

    def null(report):
        raise NullNorm("vanishing norm")

    monkeypatch.setattr(spectral, "normalize_pairs", null)
    plain = run(capsys, *csv)
    assert plain[0] == 0 and run(capsys, *csv, "--emit-modes") == plain
    monkeypatch.setattr(cli, "MEMORY_BUDGET", MEMORY_BUDGET)
    assert run(capsys, "analyze", form_file, "--emit-modes")[0] == 5


def test_the_outer_edge_of_the_reentry_window_exits_0(capsys):
    for kappa, delta in OUTER_EDGE:
        code, out, _ = run(capsys, "bcs", "--delta", repr(delta), "--kappa", repr(kappa))
        assert code == 0 and json.loads(out)["classification"] == "NonDiagonalizable"
    code, out, _ = run(capsys, "sweep", "--delta", "1.0022197585580783:1.0022197585583092:3",
                       "--kappa", "0.02")
    assert code == 0 and [row.split(",")[4] for row in out.splitlines()[1:]] == ["3"] * 3


def test_a_representable_outer_edge_is_printed(capsys):
    # kappa^2/gamma^2 = 1e500 leaves the float range, eps sqrt(1 + kappa^2/gamma^2)
    # = 1e250 does not; the literal reading eps^2 (1 + kappa^2/gamma^2) does too
    code, out, _ = run(capsys, "bcs", "--delta", "0.5", "--gamma", "1e-100", "--kappa", "1e150")
    assert code == 0
    thresholds = json.loads(out)["thresholds"]
    with localcontext() as ctx:
        ctx.prec = 60
        want = Decimal(1.0) * (1 + (Decimal(1e150) / Decimal(1e-100)) ** 2).sqrt()
    got = thresholds["delta_c_outer_sqrt_formula"]
    assert abs(Decimal(got) - want) <= 2 * Decimal(math.ulp(float(want)))
    assert thresholds["delta_c_outer_literal_formula"] == math.inf


def test_a_form_file_too_large_to_parse_is_refused_before_parsing(capsys, monkeypatch,
                                                                  form_file):
    def no_loads(*args, **kwargs):
        raise AssertionError("json.loads called")

    need = os.path.getsize(form_file) * formio.PARSE_BYTES_PER_FILE_BYTE
    monkeypatch.setattr(formio.json, "loads", no_loads)
    monkeypatch.setattr(formio, "MEMORY_BUDGET", need - 1)
    for argv in (("analyze", form_file), ("evolve", form_file, "--t", "0:1:3"),
                 ("oracle", "--input", form_file)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and "budget" in err, argv
    monkeypatch.setattr(formio, "MEMORY_BUDGET", need)
    with pytest.raises(AssertionError, match="json.loads"):
        main(["analyze", form_file])
    # at the 1 GiB budget a form file of the benchmark's largest size (n =
    # 256, 6.2 MB) is far inside
    assert MEMORY_BUDGET // formio.PARSE_BYTES_PER_FILE_BYTE > 25 * 6.2e6


def test_a_dense_solve_over_budget_is_refused_before_solving(capsys, monkeypatch, form_file):
    calls = _count_eigensolves(monkeypatch)
    need = (2 * 2) ** 2 * cli.DENSE_ENTRY_BYTES
    argvs = (("analyze", form_file), ("evolve", form_file, "--t", "1"))
    monkeypatch.setattr(cli, "MEMORY_BUDGET", need - 1)
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert (code, out, calls) == (2, "", []) and "budget" in err, argv
    monkeypatch.setattr(cli, "MEMORY_BUDGET", need)
    for argv in argvs:
        assert run(capsys, *argv)[0] == 0, argv
    assert len(calls) == 2
    # at 1 GiB the refusal starts far above the benchmark's n = 256
    refused = next(n for n in range(1, 10_000)
                   if (2 * n) ** 2 * cli.DENSE_ENTRY_BYTES > MEMORY_BUDGET)
    assert refused > 1000


def _peak_bytes(argv):
    """Traced peak of one successful ``main(argv)``."""
    tracemalloc.start()
    assert main(argv) == 0
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak


def _bytes_per_point(argv, small, large):
    """Slope of the traced peak between two grid sizes: bytes per grid point."""
    peaks = [_peak_bytes([a.replace("POINTS", str(points)) for a in argv])
             for points in (small, large)]
    return (peaks[1] - peaks[0]) / (large - small)


@pytest.mark.parametrize("fmt", ["csv", "doc"])
def test_budget_figures_bound_the_measured_bytes(tmp_path, form_file, fmt):
    out = str(tmp_path / "out")
    sweep = _bytes_per_point(["sweep", "--delta", "0:1.5:POINTS", "--kappa", "0.05",
                              "--format", fmt, "--out", out], 2000, 6000)
    evolve = _bytes_per_point(["evolve", form_file, "--t", "0:1:POINTS",
                               "--format", fmt, "--out", out], 200, 600)
    assert 0 < sweep <= cli.SWEEP_POINT_BYTES
    assert 0 < evolve <= cli.EVOLVE_ROW_BYTES + 2 * cli.EVOLVE_MODE_BYTES


def test_dense_and_parse_budgets_bound_the_measured_bytes(tmp_path, rng, capsys):
    small, large = (_form_file_of(tmp_path, n, rng) for n in (48, 96))
    run(capsys, "evolve", small, "--t", "1")  # loads scipy outside the traced runs
    entries = (2 * 96) ** 2 - (2 * 48) ** 2
    for argv in (["analyze"], ["evolve", "--t", "1"]):
        peaks = [_peak_bytes([argv[0], path, *argv[1:], "--out", str(tmp_path / "out")])
                 for path in (small, large)]
        assert 0 < (peaks[1] - peaks[0]) / entries <= cli.DENSE_ENTRY_BYTES, argv
    tracemalloc.start()
    qb.load_form(large)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= os.path.getsize(large) * formio.PARSE_BYTES_PER_FILE_BYTE


def test_emit_modes_budget_bounds_the_measured_bytes(tmp_path, rng):
    # peak bytes per entry of the n x 2n x 2n invariants between n = 16 and 32,
    # for the doc written with --out
    small, large = (_peak_bytes(["analyze", _form_file_of(tmp_path, n, rng), "--emit-modes",
                                 "--out", str(tmp_path / "out")]) for n in (16, 32))
    slope = (large - small) / (4 * (32 ** 3 - 16 ** 3))
    assert 0 < slope <= cli.EMIT_MODES_ENTRY_BYTES


@pytest.mark.parametrize("n", [16, 24])
def test_out_file_peak_matches_stdout(tmp_path, rng, n):
    # the document is written once: a copy of it with the final newline
    # appended would raise the --out peak by the document's size.  The stdout
    # here is a StringIO, which keeps the written strings and copies none.
    path = _form_file_of(tmp_path, n, rng)
    with contextlib.redirect_stdout(io.StringIO()):
        to_stdout = _peak_bytes(["analyze", path, "--emit-modes"])
    to_file = _peak_bytes(["analyze", path, "--emit-modes", "--out", str(tmp_path / "out")])
    assert abs(to_file - to_stdout) <= 0.02 * to_stdout


def _sweep_rows(capsys, *argv):
    code, out, _ = run(capsys, "sweep", *argv)
    assert code == 0
    return [line.split(",") for line in out.strip().splitlines()[1:]]


@pytest.mark.parametrize("kappa", [0.0, 0.05])
def test_phase_diagram_script_matches_sweep(capsys, kappa):
    path = Path(__file__).resolve().parents[1] / "scripts" / "phase_diagram.py"
    spec = importlib.util.spec_from_file_location("phase_diagram", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    rows = script.sweep(1.0, 0.3, kappa, np.linspace(0.0, 1.5, 13))
    cli_rows = _sweep_rows(capsys, "--delta", "0.0:1.5:13", "--kappa", repr(kappa))
    assert len(rows) == len(cli_rows) == 13
    for (delta, k, label, max_im, min_sig), row in zip(rows, cli_rows):
        assert (delta, k) == (float(row[2]), float(row[3]))
        assert CLASS_CODES[spectral.StabilityClass(label)] == int(row[4])
        assert (max_im, min_sig) == (float(row[5]), float(row[6]))


def test_jordan_growth_script(capsys, monkeypatch, tmp_path):
    path = Path(__file__).resolve().parents[1] / "scripts" / "jordan_growth.py"
    spec = importlib.util.spec_from_file_location("jordan_growth", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out_path = tmp_path / "growth.csv"
    monkeypatch.setattr("sys.argv", ["jordan_growth.py", "--out", str(out_path)])
    script.main()
    lines = out_path.read_text().splitlines()
    assert lines[0] == "label,delta,t,norm_u,symplectic_residual"
    assert len(lines) == 1 + 180
    printed = capsys.readouterr().out
    for kind in qb.GrowthKind:
        assert kind.value in printed
    assert "wrote 180 rows" in printed


@pytest.mark.parametrize("kappa", ["0.0", "0.05"])
def test_bcs_sweep_and_sweep_agree(capsys, kappa):
    sweep_codes = [int(r[4]) for r in _sweep_rows(capsys, "--delta", "0.0:1.5:13",
                                                  "--kappa", kappa)]
    code, out, _ = run(capsys, "bcs", "--sweep", "0.0:1.5:13", "--kappa", kappa)
    assert code == 0
    bcs_codes = [int(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert bcs_codes == sweep_codes
    assert len(set(bcs_codes)) >= 2


def test_evolve_identity_row(capsys, form_file):
    code, out, _ = run(capsys, "evolve", form_file, "--t", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("t_re,t_im,max_abs_u,symplectic_residual")
    row = lines[1].split(",")
    assert float(row[2]) == 1.0
    assert float(row[3]) == 0.0


def test_evolve_stable_bounded(capsys, form_file):
    code, out, _ = run(capsys, "evolve", form_file, "--t", "0:10:21")
    rows = [l.split(",") for l in out.strip().splitlines()[1:]]
    assert code == 0
    assert max(float(r[2]) for r in rows) < 3.0
    assert max(float(r[3]) for r in rows) < 1e-9
    mags = [float(x) for r in rows for x in r[4:]]
    assert np.abs(np.array(mags) - 1.0).max() <= 1e-12


def test_evolve_unstable_growth_rate(capsys, tmp_path):
    path = tmp_path / "bcs12.json"
    qb.save_form(qb.bcs_form(bcs(1.2)), path)
    code, out, _ = run(capsys, "evolve", str(path), "--t", "0:10:11")
    rows = [l.split(",") for l in out.strip().splitlines()[1:]]
    assert code == 0
    ts = np.array([float(r[0]) for r in rows[1:]])
    tops = np.array([float(r[2]) for r in rows[1:]])
    slope = np.polyfit(ts, np.log(tops), 1)[0]
    assert slope == pytest.approx(0.6633249580710799, rel=0.01)


def test_evolve_complex_time_probe(capsys, form_file):
    code, out, _ = run(capsys, "evolve", form_file, "--t", "1", "--complex-time", "1.0")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[1]) == 1.0
    assert float(row[3]) < 1e-8  # symplectic identity survives complex time


def test_evolve_defective_input_still_traces(capsys, jordan_file):
    code, out, _ = run(capsys, "evolve", jordan_file, "--t", "0:5:6")
    assert code == 0
    rows = [l.split(",") for l in out.strip().splitlines()[1:]]
    # secular growth: the norm climbs but every phase stays unimodular
    tops = [float(r[2]) for r in rows]
    assert tops[-1] > tops[1]
    mags = [float(x) for r in rows for x in r[4:]]
    assert np.abs(np.array(mags) - 1.0).max() <= 1e-9


def test_evolve_assembles_hmat_once(capsys, monkeypatch, form_file):
    # classify and the propagators read the one form value's hmat and generator
    calls, hmat = [], core._hmat

    def counted(a, b):
        calls.append(a.shape)
        return hmat(a, b)

    monkeypatch.setattr(core, "_hmat", counted)
    assert run(capsys, "evolve", form_file, "--t", "0:1:3")[0] == 0
    assert calls == [(2, 2)]


def test_evolve_runs_without_scipys_private_pade_kernels(capsys, monkeypatch, jordan_file):
    argv = ("evolve", jordan_file, "--t", "0:5:6", "--complex-time", "0.5")
    expected = run(capsys, *argv)
    assert expected[0] == 0
    monkeypatch.setitem(sys.modules, "scipy.linalg._matfuncs_expm", None)
    with pytest.raises(ImportError):
        from scipy.linalg._matfuncs_expm import pade_UV_calc  # noqa: F401
    assert run(capsys, *argv) == expected


def test_evolve_overflow_exit_code(capsys, tmp_path):
    path = tmp_path / "bcs12.json"
    qb.save_form(qb.bcs_form(bcs(1.2)), path)
    code, _, err = run(capsys, "evolve", str(path), "--t", "400")
    assert code == 5
    assert "guard" in err


def test_evolve_overflow_prints_only_its_error(tmp_path):
    # in a fresh interpreter, where numpy would print each overflow warning
    # of the stacked expm once: the guard's one error line is all of stderr
    path = tmp_path / "bcs12.json"
    qb.save_form(qb.bcs_form(bcs(1.2)), path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "quadboson.cli", "evolve", str(path),
                           "--t", "0:1e6:3"], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (5, "")
    assert proc.stderr.startswith("error: expm gave non-finite propagator entries")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_evolve_growth_that_expm_loses_exits_5(capsys, tmp_path):
    # an unstable one-mode form (lambda = 0.637i) at t = 1e82, where expm would
    # return a bounded, wrong U (max |U| = 1) while |e^{-i lambda t}| overflows:
    # ||t M Hmat||_1 = 7.7e81 is past the resolution cut, so the library refuses it
    path = tmp_path / "unstable1.json"
    qb.save_form(qb.build_form([[0.1257302210933933]],
                               [[complex(0.6404226504432821, 0.10490011715303971)]]), path)
    with pytest.raises(Overflow) as exc:
        qb.propagate(qb.load_form(path), 1e82)
    assert str(exc.value) == ("||t M Hmat||_1 = 7.747e+81 at t=1e+82 reaches 2^53 = 1/u, "
                              "where expm resolves no digit of U")
    assert run(capsys, "evolve", str(path), "--t", "0:1e82:2") == (
        5, "", "error: ||t M Hmat||_1 = 7.747e+81 at t=(1e+82+0j) reaches 2^53 = 1/u, "
               "where expm resolves no digit of U\n")
    # growth that expm resolves, below the guard, is still printed
    code, out, _ = run(capsys, "evolve", str(path), "--t", "0:300:2")
    row = [float(x) for x in out.splitlines()[2].split(",")]
    # (|U|'s largest entry is at least its largest mode magnitude over 2n = 2)
    assert code == 0 and 1e82 < row[2] <= 1e100 and row[-1] <= 2 * row[2]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_evolve_refuses_times_past_the_resolution_cut(capsys, tmp_path):
    # a stable one-mode form (lambda = sqrt(0.75), ||M Hmat||_1 = 1.5): at t = 1e16
    # expm returns max |U| = 0.77 with a symplectic residual of 1.4, no digit right
    path = tmp_path / "stable1.json"
    qb.save_form(qb.build_form([[1.0]], [[0.5]]), path)
    assert run(capsys, "evolve", str(path), "--t", "0:1e16:2") == (
        5, "", "error: ||t M Hmat||_1 = 1.500e+16 at t=(1e+16+0j) reaches 2^53 = 1/u, "
               "where expm resolves no digit of U\n")
    code, out, err = run(capsys, "evolve", str(path), "--t", "0:1e15:2")
    assert (code, err) == (0, "") and len(out.splitlines()) == 3


_SCIPY_PROBE = """
import contextlib, io, sys
import quadboson
from quadboson.cli import main
path = sys.argv[1]
loaded = ["scipy" in sys.modules]
for argv in (["analyze", path, "--emit-modes"], ["sweep", "--delta", "0:1.5:31"],
             ["bcs", "--delta", "0.5"], ["oracle", "--input", path, "--nmax", "6"],
             ["evolve", path, "--t", "0:1:3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    loaded.append("scipy" in sys.modules)
print(loaded)
"""


def test_only_evolve_loads_scipy(form_file):
    # every eigensolve is numpy's: scipy is imported where expm runs, not before
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, form_file],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == str([False] * 5 + [True]) + "\n"


def test_evolve_grid_crossing_the_guard_reports_its_first_time(capsys, tmp_path):
    path = tmp_path / "bcs12.json"
    qb.save_form(qb.bcs_form(bcs(1.2)), path)
    form = qb.load_form(path)
    for lo, hi, steps in ((0.0, 1000.0, 11), (0.0, 600.0, 3001)):
        # the message a time-by-time loop gives, stopping at the first time over the guard
        for t_re in np.linspace(lo, hi, steps):
            t = complex(t_re)
            peak = np.abs(scipy.linalg.expm(-1j * t * form.generator)).max()
            if not peak <= 1e100:
                break
        expected = f"error: propagator entries reach {peak:.3e} at t={t}; the guard is 1e+100\n"
        assert run(capsys, "evolve", str(path), "--t", f"{lo}:{hi}:{steps}") == (5, "", expected)


def test_non_finite_propagator_names_the_generator_size(capsys, tmp_path, huge_file):
    # a bounded U past the resolution cut (norm near 1e200), growth that expm
    # overflows (unstable pairing form at t = 5e5) and a finite U over the guard
    # (the same form at t = 400) get different messages
    norm = np.linalg.norm(qb.load_form(huge_file).generator, 1)
    expected = (f"error: ||t M Hmat||_1 = {0.5 * norm:.3e} at t=(0.5+0j) reaches "
                "2^53 = 1/u, where expm resolves no digit of U\n")
    assert run(capsys, "evolve", huge_file, "--t", "0:1:3") == (5, "", expected)
    assert expected.startswith("error: ||t M Hmat||_1 = 5.500e+199 ")
    path = tmp_path / "bcs12.json"
    qb.save_form(qb.bcs_form(bcs(1.2)), path)
    assert run(capsys, "evolve", str(path), "--t", "5e5") == (
        5, "", "error: expm gave non-finite propagator entries at t=(500000+0j), "
               "where ||t M Hmat||_1 = 1.250e+06\n")
    code, out, err = run(capsys, "evolve", str(path), "--t", "400")
    assert (code, out) == (5, "")
    assert err.startswith("error: propagator entries reach 1.5")
    assert err.endswith(" at t=(400+0j); the guard is 1e+100\n")


@pytest.mark.parametrize("argv", [("--t", "1:0:3"), ("--t", "1", "--complex-time", "nan"),
                                  ("--t", "0:1:1000000000")])
def test_evolve_reports_usage_errors_before_solving(capsys, monkeypatch, form_file, argv):
    def failing(*args, **kwargs):
        raise PairingFailure("the solve ran")

    monkeypatch.setattr(spectral, "classify", failing)
    assert run(capsys, "evolve", form_file, *argv)[:2] == (2, "")


def test_evolve_usage_error_outranks_a_bad_form_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert run(capsys, "evolve", str(path), "--t", "1:0:3")[0] == 2
    assert run(capsys, "evolve", str(path), "--t", "1")[0] == 3


def test_bcs_point_report(capsys):
    code, out, _ = run(capsys, "bcs", "--delta", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"] == "PositiveDefinite"
    assert doc["u"][0] == pytest.approx(1.0379548493020425, abs=1e-12)
    assert doc["thresholds"]["positivity"] == pytest.approx(0.9539392014169457)


def test_bcs_point_report_perturbed(capsys):
    code, out, _ = run(capsys, "bcs", "--delta", "0.5", "--kappa", "0.05")
    doc = json.loads(out)
    assert code == 0
    assert doc["thresholds"]["reentry_window"] is not None
    assert "note" in doc["thresholds"]
    assert len(doc["sigma"]) == 4


@pytest.mark.parametrize("tol", [[], ["--tol-eig", "1e-3"]])
def test_bcs_amplitudes_are_null_exactly_at_the_jordan_verdict(capsys, tol):
    # --tol-eig moves the realness cut only; the gap is the eigensolve's cluster rule
    for k in range(3, 17):
        for delta in (1.0 + 10.0 ** -k, 1.0 - 10.0 ** -k, -1.0 - 10.0 ** -k, -1.0 + 10.0 ** -k):
            code, out, _ = run(capsys, "bcs", "--delta", repr(delta), *tol)
            doc = json.loads(out)
            assert code == 0
            jordan = doc["classification"] == "NonDiagonalizable"
            assert (doc["u"] is None, doc["v"] is None) == (jordan, jordan), (delta, tol)


def test_bcs_sweep_boundaries(capsys):
    code, out, _ = run(capsys, "bcs", "--sweep", "0.0:1.5:301")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 302
    rows = [l.split(",") for l in lines[1:]]
    for row in rows:
        d = float(row[0])
        got = int(row[1])
        if abs(d - np.sqrt(0.91)) <= 1e-6 or abs(d - 1.0) <= 1e-6:
            continue
        if d < np.sqrt(0.91):
            assert got == 0, d
        elif d < 1.0:
            assert got == 1, d
        else:
            assert got == 2, d
    jordan = [r for r in rows if abs(float(r[0]) - 1.0) <= 1e-12]
    assert len(jordan) == 1 and int(jordan[0][1]) == 3


@pytest.mark.parametrize("argv, writes", [(("--delta", "0.5", "--format", "csv"), "doc"),
                                          (("--sweep", "0:1:3", "--format", "doc"), "csv")])
def test_bcs_refuses_a_format_its_mode_does_not_write(capsys, argv, writes):
    code, out, err = run(capsys, "bcs", *argv)
    assert (code, out) == (2, "")
    assert f"writes --format {writes}, not {argv[-1]}" in err


@pytest.mark.parametrize("argv, fmt", [(("--delta", "0.5"), "doc"), (("--sweep", "0:1:3"), "csv")])
def test_bcs_format_of_its_mode_changes_nothing(capsys, argv, fmt):
    assert run(capsys, "bcs", *argv, "--format", fmt) == run(capsys, "bcs", *argv)


def test_bcs_invalid_params(capsys):
    code, _, err = run(capsys, "bcs", "--gamma", "2.0")
    assert code == 2


def test_oracle_table(capsys, form_file):
    code, out, _ = run(capsys, "oracle", "--input", form_file,
                       "--nmax", "10", "--levels", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "level,predicted,observed,abs_deviation"
    assert len(lines) == 5
    assert all(float(l.split(",")[3]) <= 1e-3 for l in lines[1:])


@pytest.mark.parametrize("fmt, builds", [("csv", 1), ("doc", 3)])
def test_oracle_builds_the_trend_only_for_doc(capsys, monkeypatch, form_file, fmt, builds):
    built = []
    build = qb.oracle.fock_hamiltonian
    monkeypatch.setattr(qb.oracle, "fock_hamiltonian",
                        lambda *args: built.append(args[1]) or build(*args))
    code, _, _ = run(capsys, "oracle", "--input", form_file, "--nmax", "10",
                     "--levels", "4", "--format", fmt)
    assert code == 0
    assert len(built) == builds and built[0] == 10


def test_oracle_refuses_misaligned_levels(capsys, tmp_path):
    path = tmp_path / "freq.json"
    qb.save_form(qb.build_form(np.diag([1.0, 1.5, 2.2]), np.zeros((3, 3))), path)
    code, out, err = run(capsys, "oracle", "--input", str(path), "--nmax", "5", "--levels", "8")
    assert (code, out) == (5, "")
    assert "n_max // 2" in err
    code, out, _ = run(capsys, "oracle", "--input", str(path), "--nmax", "5", "--levels", "6")
    assert code == 0 and len(out.splitlines()) == 7


def test_oracle_rejects_indefinite(capsys, tmp_path):
    path = tmp_path / "bcs097.json"
    qb.save_form(qb.bcs_form(bcs(0.97)), path)
    code, _, err = run(capsys, "oracle", "--input", str(path), "--nmax", "8",
                       "--levels", "3")
    assert code == 5
    assert "positive definite" in err


def test_oracle_over_dimension_cap_exits_5(capsys, tmp_path, rng):
    path = tmp_path / "pd3.json"
    qb.save_form(random_form(rng, 3, shift=0.5), path)
    code, out, err = run(capsys, "oracle", "--input", str(path), "--nmax", "20")
    assert code == 5
    assert out == ""
    assert "9261" in err and "bytes" in err


def test_out_file_matches_stdout(capsys, form_file, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "analyze", form_file, "--out", str(out_path))
    assert code == 0
    code, stdout, _ = run(capsys, "analyze", form_file)
    assert out_path.read_text() == stdout


@pytest.fixture
def huge_file(tmp_path):
    """A valid positive definite two-mode form with entries near 1e200: finite,
    with frequencies sqrt(0.99) 1e200, each twice."""
    path = tmp_path / "huge.json"
    a = np.array([[1e200, 0.0], [0.0, 1e200]])
    b = np.array([[0.0, 1e199], [1e199, 0.0]])
    qb.save_form(qb.build_form(a, b), path)
    return str(path)


@pytest.fixture
def tiny_file(tmp_path):
    """A one-mode form with entries near 1e-300 and frequency i sqrt(|B|^2 - A^2)."""
    path = tmp_path / "tiny.json"
    qb.save_form(qb.build_form([[1.26e-301]], [[6.40e-301 + 1.00e-301j]]), path)
    return str(path)


def test_huge_and_tiny_inputs_get_their_verdicts(capsys, huge_file, tiny_file):
    code, out, _ = run(capsys, "sweep", "--delta", "0:1e200:3")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert code == 0 and [int(r[4]) for r in rows] == [0, 2, 2]
    assert [float(r[5]) for r in rows] == pytest.approx([0.0, 5e199, 1e200], rel=1e-14)
    code, out, _ = run(capsys, "bcs", "--delta", "1e200")
    doc = json.loads(out)
    assert (code, doc["classification"]) == (0, "UnstableComplex")
    assert np.array(doc["mode_frequencies"]) == pytest.approx(np.array([[0.0, 1e200]] * 2),
                                                              rel=1e-14)
    # delta = epsilon is the BCS Jordan point: +-gamma, each a 2-block
    code, out, _ = run(capsys, "bcs", "--epsilon", "1e150", "--gamma", "3e149",
                       "--delta", "1e150")
    doc = json.loads(out)
    assert (code, doc["classification"]) == (0, "NonDiagonalizable")
    assert np.array(doc["mode_frequencies"]) == pytest.approx(np.array([[3e149, 0.0]] * 2),
                                                              rel=1e-7)
    code, out, _ = run(capsys, "analyze", huge_file)
    doc = json.loads(out)
    assert (code, doc["classification"]) == (0, "PositiveDefinite")
    assert np.array(doc["mode_frequencies"]) == pytest.approx(
        np.array([[np.sqrt(0.99) * 1e200, 0.0]] * 2), rel=1e-14)
    # |lambda| = 6.35e-301 lies above the realness cut tol_eig * ||M Hmat||
    code, out, _ = run(capsys, "analyze", tiny_file)
    doc = json.loads(out)
    assert (code, doc["classification"], doc["zero_mode_count"]) == (0, "UnstableComplex", 0)
    lam = complex(*doc["mode_frequencies"][0])
    expected = 1e-301j * np.sqrt(abs(6.40 + 1.00j) ** 2 - 1.26 ** 2)  # squares at scale 1
    assert lam == pytest.approx(expected, rel=1e-14, abs=0.0)


@pytest.fixture
def huge_jordan_file(tmp_path):
    """The BCS Jordan point delta = epsilon at 1e200: finite, although the
    square of its norm is beyond the float range."""
    path = tmp_path / "huge_jordan.json"
    qb.save_form(qb.bcs_form(qb.BcsParams(1e200, 3e199, 1e200, 0.0)), path)
    return str(path)


def test_huge_jordan_points_get_their_verdicts(capsys, huge_jordan_file):
    # the Jordan rank test runs on the shifted generator scaled to unit norm
    code, out, _ = run(capsys, "sweep", "--epsilon", "1e200", "--gamma", "3e199",
                       "--delta", "0:1e200:3")
    assert code == 0 and [line.split(",")[4] for line in out.splitlines()[1:]] == ["0", "0", "3"]
    code, out, _ = run(capsys, "analyze", huge_jordan_file)
    doc = json.loads(out)
    assert (code, doc["classification"]) == (0, "NonDiagonalizable")
    assert [d["max_block"] for d in doc["defects"]] == [2, 2]


@pytest.fixture
def overflow_file(tmp_path):
    """A form file whose diagonal entry 1e308 doubles past the float range
    when the loader symmetrizes A."""
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"n_modes": 1, "A": [[[1e308, 0.0]]], "B": [[[0.0, 0.0]]]}))
    return str(path)


@pytest.mark.parametrize("argv", [
    ("sweep", "--delta", "0:9e307:3"),
    ("bcs", "--epsilon", "1e200", "--gamma", "3e199", "--delta", "1e200"),
    ("bcs", "--delta", "9e307"),
    ("bcs", "--delta", "1e308"),
    ("bcs", "--epsilon", "1e300", "--gamma", "1e299"),
    ("bcs", "--epsilon", "1e160", "--gamma", "1e159", "--kappa", "1e158"),
    ("analyze", "{overflow}"),
    ("evolve", "{huge}", "--t", "0:1:3"),
])
def test_overflowing_inputs_exit_5(capsys, huge_file, overflow_file, argv):
    code, out, err = run(capsys, *(a.format(huge=huge_file, overflow=overflow_file)
                                   for a in argv))
    assert (code, out) == (5, "")
    # evolve meets the resolution cut, the others the float range
    assert ("reaches 2^53 = 1/u" if argv[0] == "evolve" else "float range") in err


@pytest.mark.parametrize("argv", [
    ("bcs", "--gamma", "1e-162", "--kappa", "0.05"),
    ("bcs", "--epsilon", "1e-160", "--gamma", "9.99999e-161", "--kappa", "1e-170"),
])
def test_underflowing_squares_exit_5(capsys, argv):
    # gamma^2 (or eps^2 - gamma^2) rounds to zero, and the thresholds divide by it
    code, out, err = run(capsys, *argv)
    assert (code, out) == (5, "")
    assert "float range" in err


def test_emit_modes_zero_modes_follow_classify(capsys, tmp_path):
    # |lambda| = 0.008 is below the realness cut 1e-3 * ||M Hmat||_2 = 0.018:
    # classify counts a zero mode, and the diagonal form marks the same one
    path = tmp_path / "zero_mode.json"
    qb.save_form(qb.build_form(np.diag([10.0, 0.008]), np.diag([8.0, 0.0])), path)
    code, out, _ = run(capsys, "analyze", str(path), "--emit-modes", "--tol-eig", "1e-3")
    assert code == 0
    doc = json.loads(out)
    assert doc["zero_mode_count"] == 1
    assert doc["diagonal_form"]["zero_modes"] == [False, True]


def test_near_jordan_emit_modes_warns_instead_of_refusing(capsys, tmp_path):
    # classify calls these diagonalizable, so --emit-modes prints the
    # transform, with the near-defective warning
    for delta in (1.0 - 1e-12, 1.0 + 1e-10):
        path = tmp_path / "near_jordan.json"
        qb.save_form(qb.bcs_form(bcs(delta)), path)
        code, out, _ = run(capsys, "analyze", str(path), "--emit-modes")
        assert code == 0
        doc = json.loads(out)
        assert doc["diagonalizable"] and "diagonal_form" in doc
        assert any("near-defective" in w for w in doc["warnings"])


def test_huge_non_hermitian_form_exits_4(capsys, tmp_path):
    path = tmp_path / "huge_nonherm.json"
    a = [[[1e200, 0.0], [1e200, 0.0]], [[0.0, 0.0], [1e200, 0.0]]]
    path.write_text(json.dumps({"n_modes": 2, "A": a, "B": [[[0.0, 0.0]] * 2] * 2}))
    for argv in (("analyze", str(path)), ("evolve", str(path), "--t", "0:1:3")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert "not hermitian" in err


@pytest.mark.parametrize("argv", [
    ("bcs", "--delta", "nan"), ("bcs", "--kappa", "inf"), ("bcs", "--delta", "inf"),
    ("bcs", "--kappa", "nan"), ("bcs", "--epsilon", "inf"),
    ("bcs", "--sweep", "0:1:3", "--kappa", "nan"),
    ("sweep", "--delta", "0:1:3", "--epsilon", "inf")])
def test_non_finite_model_parameter_exits_2(capsys, monkeypatch, argv):
    # a usage error like a non-finite range, refused before any form is built
    def failing(*args, **kwargs):
        raise PairingFailure("a form was built")

    monkeypatch.setattr(qb.bcs, "build_form", failing)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: --") and "must be finite" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("analyze", "FORM", "--out", "ROOT/no/such/dir/x.json"),
    ("analyze", "FORM", "--out", "ROOT"),
    ("sweep", "--delta", "0:1:3", "--out", "ROOT/no/such/dir/x.csv")])
def test_unwritable_out_path_exits_2_before_solving(capsys, monkeypatch, form_file, tmp_path,
                                                    argv):
    def failing(*args, **kwargs):
        raise PairingFailure("the solve ran")

    monkeypatch.setattr(spectral, "classify", failing)
    monkeypatch.setattr(qb.bcs, "classify_stack", failing)
    argv = [a.replace("FORM", form_file).replace("ROOT", str(tmp_path)) for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: --out ") and err.count("\n") == 1


def test_write_failure_of_out_exits_2(capsys, monkeypatch, form_file, tmp_path):
    real_open = builtins.open

    def full_disk(path, *args, **kwargs):
        if str(path).endswith("x.json"):
            raise OSError(28, "No space left on device")
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", full_disk)
    code, out, err = run(capsys, "analyze", form_file, "--out", str(tmp_path / "x.json"))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write --out {str(tmp_path / 'x.json')!r}: No space left on device\n"


# ---------------------------------------------------------------------------
# the document writer

def _as_lists(value):
    """The document with every ndarray turned into nested [re, im] lists."""
    if isinstance(value, np.ndarray):
        return np.stack([value.real, value.imag], axis=-1).tolist()
    if isinstance(value, dict):
        return {k: _as_lists(v) for k, v in value.items()}
    return value


_SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e-7, math.nan, math.inf, -math.inf]
_floats = st.sampled_from(_SPECIAL_FLOATS) | st.floats(allow_nan=True, allow_infinity=True)
_text = st.text(st.sampled_from('ab\n"\\\t\u00e9\u03bb\u2603\U0001f600'), max_size=6)


@st.composite
def _complex_arrays(draw):
    shape = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    size = math.prod(shape)
    parts = draw(st.lists(_floats, min_size=2 * size, max_size=2 * size))
    entries = np.empty(size, dtype=complex)
    entries.real, entries.imag = parts[0::2], parts[1::2]
    return entries.reshape(shape)


# json values without arrays (lists of dicts included), then documents that
# hold arrays as dict values at any depth
_plain = st.recursive(
    st.none() | st.booleans() | st.integers() | _floats | _text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_text, inner, max_size=3),
    max_leaves=12)
_documents = st.recursive(
    _plain | _complex_arrays(),
    lambda inner: st.dictionaries(_text, inner, max_size=4),
    max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(_documents)
def test_writer_matches_json_dumps(doc):
    assert cli._dumps(doc) == json.dumps(_as_lists(doc), indent=2, sort_keys=True)


@pytest.mark.parametrize("nan", [False, True])
@pytest.mark.parametrize("shape", [(3,), (2, 3), (0,), (2, 0, 3), (1, 1, 1), (2, 2, 2, 2)])
def test_writer_matches_json_dumps_on_special_entries(shape, nan):
    values = np.resize(np.array(_SPECIAL_FLOATS[:5]) + 1j * np.array(_SPECIAL_FLOATS[1:6]),
                       shape)
    if nan and values.size:
        values.flat[0] = complex(1.0, math.nan)
    doc = {"a": values, "b": {"c": [{"d": values.size}], "e": values}, "f": "x\ny"}
    assert cli._dumps(doc) == json.dumps(_as_lists(doc), indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [np.int64(1), np.float32(0.5), {1, 2}, 1j, b"x"])
def test_writer_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        json.dumps({"a": [value]})
    with pytest.raises(TypeError):
        cli._dumps({"a": [value]})


def _analyze_doc(path):
    form = qb.load_form(path)
    report = qb.classify(form)
    assert report.diagonalizable
    bt = qb.normalize_pairs(report)
    doc = report.to_dict()
    doc.update(input_digest=qb.form_digest(path), n_modes=form.n_modes,
               mode_table=cli._mode_table(report, bt), thresholds=None,
               diagonal_form=bt.to_dict(), invariants=bt.invariants)
    return _as_lists(doc)


def _evolve_docs(path, times, shift):
    form = qb.load_form(path)
    lams = qb.classify(form).mode_frequencies
    docs = []
    for t_re in times:
        t = complex(t_re) + 1j * shift
        prop = qb.propagate(form, t)
        docs.append({"t": [t.real, t.imag], "max_abs_u": float(np.abs(prop.U).max()),
                     "symplectic_residual": prop.symplectic_residual,
                     "mode_phase_mags": [float(m) for m in np.abs(np.exp(-1j * lams * t))]})
    return docs


def _sweep_docs(deltas, kappa):
    sw = qb.bcs_sweep(1.0, [0.3], deltas, [kappa])
    return [{"epsilon": sw.epsilon, "gamma": g, "delta": d, "kappa": k, "class_code": c,
             "max_im_lambda": m, "min_sigma": s}
            for g, d, k, c, m, s in zip(sw.gamma.tolist(), sw.delta.tolist(),
                                        sw.kappa.tolist(), sw.code.tolist(),
                                        sw.max_imag.tolist(), sw.min_sigma.tolist())]


def _bcs_doc(delta):
    p = bcs(delta)
    report = qb.classify(qb.bcs_form(p))
    u, v = qb.bcs_uv(p)
    return {"params": {"epsilon": p.epsilon, "gamma": p.gamma, "delta": p.delta,
                       "kappa": p.kappa},
            "classification": report.classification.value,
            "mode_frequencies": [[l.real, l.imag] for l in report.mode_frequencies],
            "sigma": [float(s) for s in qb.bcs_sigma(p)],
            "thresholds": qb.bcs_thresholds(p).to_dict(),
            "u": [u.real, u.imag], "v": [v.real, v.imag]}


@pytest.fixture
def random8_file(tmp_path, rng):
    path = tmp_path / "random8.json"
    qb.save_form(random_form(rng, 8, shift=-0.5), path)
    return str(path)


@pytest.mark.parametrize("site", ["analyze-bcs", "analyze-random8", "sweep", "evolve",
                                  "oracle", "bcs"])
def test_doc_output_is_json_dumps_of_the_document(capsys, tmp_path, form_file,
                                                  random8_file, site):
    argv, doc = {
        "analyze-bcs": lambda: (["analyze", form_file, "--emit-modes"],
                                _analyze_doc(form_file)),
        "analyze-random8": lambda: (["analyze", random8_file, "--emit-modes"],
                                    _analyze_doc(random8_file)),
        "sweep": lambda: (["sweep", "--delta", "0.0:1.5:7", "--format", "doc"],
                          _sweep_docs(np.linspace(0.0, 1.5, 7), 0.0)),
        "evolve": lambda: (["evolve", form_file, "--t", "0:2:5", "--complex-time", "0.5",
                            "--format", "doc"],
                           _evolve_docs(form_file, np.linspace(0.0, 2.0, 5), 0.5)),
        "oracle": lambda: (["oracle", "--input", form_file, "--nmax", "6", "--levels", "3",
                            "--format", "doc"],
                           qb.fock_spectrum_check(qb.load_form(form_file), 6, 3).to_dict()),
        "bcs": lambda: (["bcs", "--delta", "0.97"], _bcs_doc(0.97)),
    }[site]()
    expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, expected)
    if site.startswith("analyze"):
        out_path = tmp_path / "report.json"
        assert run(capsys, *argv, "--out", str(out_path)) == (0, "", "")
        assert out_path.read_text(encoding="utf-8") == expected


def _digest_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "stdout_digests.py"
    spec = importlib.util.spec_from_file_location("stdout_digests", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_stdout_digests_repeat(capsys):
    """Identical inputs and flags give identical bytes, op by op."""
    script = _digest_script()
    first = list(script.digest_lines([1], tiny=True))
    assert first == list(script.digest_lines([1], tiny=True))
    assert len(first) == 57 and all(line.split()[0] in "02345" for line in first)


def test_stdout_digests_match_the_golden_file(capsys):
    """The byte contract: every op of ``scripts/stdout_digests.py --seed 1 2``
    prints the exit code and stdout digest the golden file holds for it, on
    the builds the file names."""
    script = _digest_script()
    golden = script.GOLDEN.read_text(encoding="utf-8").splitlines()
    built = [line for line in golden if line.startswith("#")]
    here = script.build_lines()
    assert built == here, ("the golden digests were written on\n" + "\n".join(built)
                           + "\nbut this run is on\n" + "\n".join(here))
    want = [line for line in golden if not line.startswith("#")]
    got = list(script.all_lines(script.GOLDEN_SEEDS))
    differ = [line.split(" ", 2)[2] for line, kept in zip(got, want) if line != kept]
    assert not differ and len(got) == len(want), (
        f"{len(got)} lines against the golden file's {len(want)}; stdout or exit "
        "code differs for\n" + "\n".join(differ))


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_bench_pair_refuses_fewer_than_two_pairs_before_a_run(capsys, monkeypatch, pairs):
    path = Path(__file__).resolve().parents[1] / "scripts" / "bench_pair.py"
    spec = importlib.util.spec_from_file_location("bench_pair", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def fail(*args):
        raise AssertionError("benchmark run started")

    monkeypatch.setattr(script, "run_once", fail)
    monkeypatch.setattr(script, "source_ids", fail)
    with pytest.raises(SystemExit) as exc:
        script.main(["--parent", ".", "--change", ".", "--workload", "sweep-grid",
                     "--seed", "1", "--pairs", pairs, "--label", "never"])
    assert exc.value.code == 2
    assert f"--pairs must be at least 2, got {pairs}" in capsys.readouterr().err


def test_bench_pair_writes_a_verdict_per_metric(capsys, monkeypatch, tmp_path):
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("bench_pair", root / "scripts" / "bench_pair.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    # metric: (parent runs, change runs, verdict, relative change); bounds from BENCHMARK.json
    cases = {
        "wall_s": ([1.0] * 4, [1.1] * 4, "ok", 0.1),
        "op_p50_ms": ([1.0] * 4, [1.5] * 4, "worse", 0.5),
        "op_p90_ms": ([0.5, 1.5, 0.5, 1.5], [1.0] * 4, "unresolved", 0.0),
        "setup_s": ([1.0, 2.0, 1.0, 2.0], [0.5] * 4, "ok", -2.0 / 3.0),  # beats every run
        "peak_rss_mb": ([100.0] * 4, [104.0] * 4, "ok", 0.04),
        "ok_frac": ([1.0] * 4, [0.98] * 4, "worse", 0.02),  # higher is better
    }
    # the parent tree holds bytecode for this interpreter, the change tree
    # only for another one
    parent, change = tmp_path.resolve() / "parent", tmp_path.resolve() / "change"
    for tree, tag in ((parent, sys.implementation.cache_tag), (change, "cpython-00")):
        (tree / "src" / "quadboson" / "__pycache__").mkdir(parents=True)
        (tree / "src" / "quadboson" / "__pycache__" / f"core.{tag}.pyc").write_bytes(b"")
    (change / "BENCHMARK.json").write_bytes((root / "BENCHMARK.json").read_bytes())
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    seen = {parent: 0, change: 0}

    def run_once(tree, args):
        i = seen[tree]
        seen[tree] += 1
        column = 0 if tree == parent else 1
        return {"record": {}, "result": {"metrics": {
            m: {"value": runs[column][i]} for m, runs in cases.items()}}}

    monkeypatch.setattr(script, "run_once", run_once)
    monkeypatch.setattr(script, "source_ids", lambda tree: {})
    monkeypatch.chdir(tmp_path)
    assert script.main(["--parent", str(parent), "--change", str(change), "--workload",
                        "sweep-grid", "--seed", "1", "--pairs", "4", "--label", "t"]) == 0
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert doc["pythondontwritebytecode"] == "1"
    assert doc["bytecode_before_first_run"] == {"parent": True, "change": False}
    verdicts = doc["verdicts"]
    lines = capsys.readouterr().out.splitlines()
    for m, (_, _, word, relative) in cases.items():
        assert verdicts[m]["verdict"] == word, m
        assert verdicts[m]["relative_change"] == pytest.approx(relative), m
        assert [line for line in lines if line.startswith(f"{m}: parent median")
                and line.endswith(f": {word}")], m


def _five_commands(form_file, out):
    """argvs of all five subcommands, non-default flags next to their defaults."""
    return [("analyze", form_file, "--emit-modes", "--tol-eig", "1e-3"),
            ("analyze", form_file),
            ("sweep", "--delta", "0:1.5:7", "--format", "doc"),
            ("sweep", "--delta", "0:1.5:7"),
            ("evolve", form_file, "--t", "0:1:3", "--out", out),
            ("evolve", form_file, "--t", "0:1:3"),
            ("bcs", "--sweep", "0.8:1.2:5", "--tol-eig", "1e-2"),
            ("bcs", "--delta", "0.5"),
            ("oracle", "--input", form_file, "--nmax", "6", "--levels", "3",
             "--format", "doc"),
            ("oracle", "--input", form_file, "--nmax", "6", "--levels", "3"),
            ("analyze", form_file, "--format", "csv", "--tol-struct", "1e-6"),
            ("sweep", "--delta", "0:1:3", "--bogus"),
            ("analyze", form_file)]


def _outcomes(capsys, argvs, out):
    """(exit code, stdout, stderr, --out file) of each argv in turn."""
    results = []
    for argv in argvs:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        written = Path(out).read_text() if os.path.exists(out) else None
        if written is not None:
            os.remove(out)
        results.append((code, captured.out, captured.err, written))
    return results


def test_parser_is_built_once_per_process(capsys, monkeypatch, form_file, tmp_path):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    outcomes = _outcomes(capsys, _five_commands(form_file, str(tmp_path / "out.csv")),
                         str(tmp_path / "out.csv"))
    assert builds == [1]
    assert [o[0] for o in outcomes] == [0] * 11 + [2, 0]
    assert build() is not build()  # build_parser itself still builds afresh


def test_reused_parser_keeps_no_flag_between_calls(capsys, monkeypatch, form_file, tmp_path):
    out = str(tmp_path / "out.csv")
    argvs = _five_commands(form_file, out)
    reused = _outcomes(capsys, argvs, out)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a fresh parser per call
    assert reused == _outcomes(capsys, argvs, out)


def test_usage_errors_reach_the_current_stderr(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--delta"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: quadboson sweep")
        assert "argument --delta: expected one argument" in captured.err
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit):
        main(["evolve"])
    assert "the following arguments are required" in err.getvalue()
    assert capsys.readouterr().err == ""
