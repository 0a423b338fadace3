"""Fuzzed argvs of all five subcommands: every input gets a documented exit code.

The argvs mix grids of at most 50 points, forms of up to three modes with
entries from 1e-300 to 1e300, ``nan``/``inf`` spellings and malformed form
documents.  Whatever the input, no exception escapes ``cli.main``, the exit
code is one of 0, 2, 3, 4, 5, a nonzero exit prints nothing to stdout, and
no RuntimeWarning is raised.  The draws are derandomized, so every run
makes the same 200; ``evolve`` argvs past the propagator's resolution cut,
which the draws need not reach, run beside them as fixed cases.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import quadboson as qb
from quadboson.cli import main

# a numerical warning escaping to stderr is a failure, not noise
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

EXIT_CODES = {0, 2, 3, 4, 5}


def run(argv):
    """(exit code, stdout) of ``main(argv)``; argparse reports usage errors as SystemExit(2)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


# model-sized numbers, numbers from 1e-300 to 1e300 of either sign, and the
# spellings of non-finite or unparsable floats
_plain = st.sampled_from([0.0, 0.05, 0.3, 0.5, 0.9, 0.97, 1.0, 1.2, -0.5,
                          1.0 - 1e-12, 1.0 + 1e-12])
_wide = st.builds(lambda sign, mant, exp: sign * mant * 10.0 ** exp,
                  st.sampled_from([1.0, -1.0]), st.floats(1.0, 9.99), st.integers(-300, 300))
_reals = _plain | _wide
_numbers = (_plain.map(repr) | _wide.map(repr)
            | st.sampled_from(["nan", "inf", "-inf", "1e999", "x", ""]))


@st.composite
def _range(draw, max_points=50):
    lo, hi = sorted([draw(_reals), draw(_reals)])
    steps = draw(st.integers(2, max(max_points, 2)) | st.sampled_from([-1, 0, 1]))
    spec = f"{lo!r}:{hi!r}:{steps}"
    return draw(st.sampled_from([spec, spec, spec, draw(_numbers), f"{lo!r}:nan:3", "0:1"]))


@st.composite
def _matrices(draw, n):
    """(A, B) of a valid form: random entries at one scale from 1e-300 to
    1e300, the pairing model next to its Jordan point, or entries of
    unrelated magnitudes."""
    kind = draw(st.sampled_from(["scaled", "scaled", "scaled", "pairing", "wide"]))
    if kind == "pairing":
        k, side = draw(st.integers(1, 16)), draw(st.sampled_from([1.0, -1.0]))
        a = np.array([[1.3, draw(_plain)], [0.0, 0.7]])
        a[1, 0] = a[0, 1]
        return a, (1.0 + side * 10.0 ** -k) * np.array([[0.0, 1.0], [1.0, 0.0]])
    if kind == "scaled":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
        scale = 10.0 ** draw(st.sampled_from([-300, -150, -12, -6, 0, 0, 0, 12, 150, 300]))
        a, b = (scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
                for _ in range(2))
    else:
        a, b = (np.array([complex(draw(_reals), draw(_reals)) for _ in range(n * n)])
                .reshape(n, n) for _ in range(2))
    a = np.triu(a) + np.triu(a, 1).conj().T
    a.imag[np.diag_indices(n)] = 0.0
    return a, np.triu(b) + np.triu(b, 1).T


@st.composite
def _form_text(draw):
    """(kind of breakage or None, a form document valid or malformed that way)."""
    n = draw(st.integers(1, 3))
    a, b = draw(_matrices(n))
    n = a.shape[0]
    broken = draw(st.sampled_from([None] * 8 + ["nan", "n_modes", "missing", "string",
                                                "truncated", "huge_int", "deep", "bytes",
                                                "not_hermitian", "boolean"]))
    if broken == "not_hermitian":
        # at the form's own scale: an imaginary diagonal, so n = 1 is broken
        # too, and a one-sided upper triangle
        a = a + (np.abs(a).max() or 1.0) * (np.triu(np.ones((n, n)), 1) + 1j * np.eye(n))
    doc = {"n_modes": n, "A": [[[z.real, z.imag] for z in row] for row in a],
           "B": [[[z.real, z.imag] for z in row] for row in b]}
    if broken == "nan":
        doc["A"][0][0][0] = float("nan")
    elif broken == "n_modes":
        doc["n_modes"] = draw(st.sampled_from([0, -1, n + 1, 1.5, "2", True, 10 ** 30]))
    elif broken == "missing":
        del doc["B"]
    elif broken == "string":
        doc["B"][0][0] = "1+2j"
    elif broken == "huge_int":
        doc["A"][0][0] = [10 ** 400, 0]
    elif broken == "boolean":
        doc["A"][0][0][draw(st.integers(0, 1))] = draw(st.booleans())
    text = json.dumps(doc)
    if broken == "truncated":
        text = text[: draw(st.integers(0, len(text) - 1))]
    elif broken == "deep":
        text = "[" * 100_000 + "]" * 100_000
    elif broken == "bytes":
        return broken, b"\xff\xfe" + text.encode()
    return broken, text.encode()


_tol = st.sampled_from([[], ["--tol-eig", "1e-3"], ["--tol-eig", "0"], ["--tol-eig", "nan"]])
_fmt = st.sampled_from([[], ["--format", "csv"], ["--format", "doc"]])


def _spelled(flag, value):
    """``flag value`` or ``flag=value``; both read a negative range as a value."""
    return st.sampled_from([[f"{flag}={value}"], [flag, value]])


def _options(pairs):
    """Any subset of ``(flag, value strategy)`` pairs as argv entries."""
    return st.tuples(*[st.one_of(st.just([]), value.flatmap(lambda v, f=flag: _spelled(f, v)))
                       for flag, value in pairs]).map(lambda parts: sum(parts, []))


@st.composite
def _argv(draw, form_path):
    command = draw(st.sampled_from(["analyze", "sweep", "evolve", "bcs", "oracle"]))
    if command == "analyze":
        argv = ["analyze", form_path]  # the test adds --emit-modes
    elif command == "sweep":
        first = draw(st.integers(-1, 50))
        argv = ["sweep", *draw(_spelled("--delta", draw(_range(max(first, 1)))))]
        argv += draw(_options([("--kappa", _range(50 // max(first, 1))), ("--gamma", _numbers),
                               ("--epsilon", _numbers)]))
    elif command == "evolve":
        argv = ["evolve", form_path, *draw(_spelled("--t", draw(_range())))]
        argv += draw(_options([("--complex-time", _numbers)]))
    elif command == "bcs":
        argv = ["bcs"] + draw(_options([
            ("--epsilon", _numbers), ("--gamma", _numbers), ("--delta", _numbers),
            ("--kappa", _numbers), ("--sweep", _range())]))
    else:
        # cutoffs stay small; a huge one is refused by the dimension cap
        # before anything is allocated
        argv = ["oracle", "--input", form_path,
                "--nmax", draw(st.sampled_from(["-1", "0", "1", "3", "5", "1000000", "x"])),
                "--levels", draw(st.sampled_from(["0", "1", "4", "8"]))]
    return argv + draw(_tol) + draw(_fmt)


@pytest.fixture(scope="module")
def form_dir():
    with tempfile.TemporaryDirectory() as root:
        yield Path(root)


# the same 200 draws on every run, and no failure database in the working tree
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow],
          derandomize=True, database=None)
@given(data=st.data())
def test_fuzzed_argvs_exit_with_a_documented_code(form_dir, data):
    path = form_dir / "form.json"
    broken, form = data.draw(_form_text(), label="form")
    path.write_bytes(form)
    argv = data.draw(_argv(str(path)), label="argv")
    code, out = run(argv)
    assert code in EXIT_CODES
    if code != 0:
        assert out == ""
    if b"true" in form or b"false" in form:
        # a JSON boolean is no number: the form is refused
        assert run(["analyze", str(path)])[0] == 3
    if broken == "not_hermitian":
        # an asymmetry at the form's own scale is refused at every scale
        assert run(["analyze", str(path)]) == (4, "")
    if argv[0] == "analyze":
        # a form analyze calls diagonalizable gets its diagonal form
        code, out = run(argv + ["--format", "doc"])
        emitted, out_modes = run(argv + ["--emit-modes"])
        assert emitted in EXIT_CODES and (emitted == 0 or out_modes == "")
        if code == 0 and json.loads(out)["diagonalizable"]:
            assert emitted == 0


@pytest.mark.parametrize("a, b, t", [
    # an unstable one-mode form, where expm would return a bounded, wrong U at t = 1e82
    ([[0.1257302210933933]], [[complex(0.6404226504432821, 0.10490011715303971)]],
     "--t=0.0:1e+82:2"),
    # a stable one-mode form, whose U at t = 1e16 has no correct digit
    ([[1.0]], [[0.5]], "--t=0:1e16:2"),
    # entries near 1e200, where expm would return NaN for a bounded U
    ([[1e200, 0.0], [0.0, 1e200]], [[0.0, 1e199], [1e199, 0.0]], "--t=0:1:3"),
])
def test_evolve_past_the_resolution_cut_exits_5(form_dir, a, b, t):
    path = form_dir / "cut.json"
    qb.save_form(qb.build_form(a, b), path)
    assert run(["evolve", str(path), t]) == (5, "")
