"""Command-line front end.

Subcommands
-----------
analyze   full pipeline report for a form file
sweep     stability classification over a parameter grid (CSV)
evolve    propagator trace over a time grid (CSV)
bcs       the pairing example: single-point report or a delta sweep
oracle    truncated-Fock comparison table for a form file

Classification codes in CSV output: 0 = PositiveDefinite,
1 = StableNonPositive, 2 = UnstableComplex, 3 = NonDiagonalizable.

Exit codes: 0 success; 2 usage, bad sweep range (including a range whose
width max - min is beyond the float range), a form file to parse, a
dense analyze or evolve solve, a grid or an analyze --emit-modes doc
whose buffers would exceed the 1 GiB memory budget (checked from the file
size or the bytes read from a pipe, n or the step counts before parsing,
allocating or solving), oracle --nmax/--levels below 1,
a non-finite --complex-time or --epsilon/--gamma/--delta/--kappa value, a
negative or non-finite --tol-eig/--tol-struct, a bcs --format its mode
does not write (a single point writes doc, --sweep csv), an --out path
that is a directory or lies in a missing directory, no --out in a process
started with stdout closed (``>&-``) (these three refused before any
solve), or any other failure to write --out; 3 unreadable, undecodable or
malformed form file;
4 structural validation failure; 5 numerical failure (overflow, including
finite input entries too large to symmetrize or rank-test, an evolve
time where ||t M Hmat||_1 reaches 2^53 and expm resolves no digit of U, and bcs
parameters whose squares leave the float range, wrong regime, including an
oracle check whose compared levels need an occupation above nmax // 2, a
vanishing generalized norm where analyze --emit-modes needs the
transform for its doc, an oracle Fock dimension above the cap, checked
before allocating); 141 stdout closed by its reader (``| head``), quietly.
At a Jordan point analyze prints no modes and exits 0.

``analyze`` reads everything per mode from the one ``BogoliubovTransform``:
the mode table's norm residuals and, with --emit-modes, the extraction
rows, flags and invariants of its diagonal representation.

Floats are printed with ``repr`` (shortest round-trip, locale independent)
so identical inputs and flags give byte-identical output.  ``--format doc``
output is exactly ``json.dumps(doc, indent=2, sort_keys=True)`` of the
document, with every complex matrix as nested ``[re, im]`` lists; one
writer spells every document itself, without calling ``json.dumps``.

:func:`main` may be called any number of times in one process; it builds
its parser on the first call and reuses it.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import bcs as bcs_mod
from . import evolution, formio, oracle, spectral
from .core import MEMORY_BUDGET, dynamical_matrix
from .errors import (
    BadRange,
    DimensionCap,
    DimensionMismatch,
    NotDiagonalizable,
    NullNorm,
    Overflow,
    PairingFailure,
    ParseError,
    QuadBosonError,
    StructureViolation,
    WrongRegime,
)

def _fmt(x) -> str:
    return repr(float(x))


def _parse_range(spec: str):
    """'a:b:n' -> (a, b, n), an inclusive grid of n points; a plain number -> fixed value."""
    parts = spec.split(":")
    if len(parts) not in (1, 3):
        raise BadRange(f"range must be min:max:steps, got {spec!r}")
    try:
        values = [float(x) for x in parts[:2]]
        steps = int(parts[2]) if len(parts) == 3 else None
    except ValueError:
        raise BadRange(f"cannot parse {spec!r} as a number or min:max:steps") from None
    if not np.all(np.isfinite(values)):
        raise BadRange(f"{spec!r} holds a non-finite number")
    if steps is None:
        return values[0]
    lo, hi = values
    if steps < 2:
        raise BadRange(f"need at least 2 steps, got {steps}")
    if not lo < hi:
        raise BadRange(f"range minimum {lo} must be below maximum {hi}")
    if not math.isfinite(hi - lo):
        raise BadRange(f"range width {hi} - ({lo}) is beyond the float range")
    return lo, hi, steps


def _axis(parsed) -> np.ndarray:
    """Grid of a parsed range; a fixed value is a length-1 axis."""
    return np.array([parsed]) if isinstance(parsed, float) else np.linspace(*parsed)


# Peak bytes per grid point, measured with tracemalloc as the slope between
# two grid sizes and rounded up.  A sweep point (parameter columns, the
# stacked Hmat and M Hmat, eigenvectors, pairwise distances, output rows)
# costs 2.2 kB for `sweep` csv and doc and `bcs --sweep` alike.  An `evolve`
# row is a tuple of a complex, two floats and a list of n magnitudes, then
# a line or, costlier, a dict of `--format doc`: 2.0 kB at n = 1 and 2, 2.9 kB
# at n = 8 and 5.9 kB at n = 32 for doc, about 0.6 to 1.5 kB for csv.
# `analyze --emit-modes` grows with the n x 2n x 2n invariants: 227 B per
# entry of them between n = 16 and 32, for doc written with --out or to stdout.
# The dense solve of `analyze` and `evolve` grows with the (2n)^2 entries of
# Hmat: 148-150 B per entry for `analyze` and 168 B for a one-time `evolve`,
# n = 64 to 192.
SWEEP_POINT_BYTES = 4096
EVOLVE_ROW_BYTES = 2048
EVOLVE_MODE_BYTES = 256
EMIT_MODES_ENTRY_BYTES = 320
DENSE_ENTRY_BYTES = 192


def _check_budget(nbytes: int, what: str):
    """Refuse work whose buffers would exceed the memory budget, before allocating."""
    if nbytes > MEMORY_BUDGET:
        raise BadRange(f"{what} needs about {nbytes:.3g} B of buffers, "
                       f"above the {MEMORY_BUDGET} B budget")


def _check_dense(n: int):
    """Refuse a form whose dense 2n x 2n solve would exceed the memory budget."""
    _check_budget((2 * n) ** 2 * DENSE_ENTRY_BYTES, f"the dense solve of {n} modes")


def _check_out(out_path):
    """Refuse an ``--out`` path that is a directory or lies in a missing one,
    and a missing ``--out`` when the process has no stdout, before any solve."""
    if not out_path:
        if sys.stdout is None:  # started with fd 1 closed (``>&-``)
            raise BadRange("stdout is closed; write the output with --out FILE")
        return
    if os.path.isdir(out_path):
        raise BadRange(f"--out {out_path!r} is a directory")
    folder = os.path.dirname(out_path)
    if folder and not os.path.isdir(folder):
        raise BadRange(f"--out {out_path!r} lies in {folder!r}, which is not a directory")


def _emit(lines, out_path):
    """Write ``lines`` and a final newline to ``out_path`` or stdout, without
    a copy of the document with the newline appended."""
    text = "\n".join(lines)  # the one line itself when there is one
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
                fh.write("\n")
        except OSError as exc:
            raise BadRange(f"cannot write --out {out_path!r}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)
        sys.stdout.write("\n")
        sys.stdout.flush()  # a closed pipe raises here, not in the exit flush


def _dumps(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, of ``value``
    with every ndarray read as the nested ``[re, im]`` lists of its entries;
    ``pad`` is the newline and indentation of the line ``value`` starts on.

    Dicts (string keys, sorted), lists and tuples, strings, floats, ints,
    bools and None are spelled as json spells them: strings by json's own
    ASCII encoder, floats by ``float.__repr__`` and NaN and the infinities
    as ``NaN``, ``Infinity`` and ``-Infinity``.  A finite complex array of
    non-zero size fills a ``%r`` template of its shape with Python floats;
    any other array is written as its nested lists.  Any other value raises
    ``TypeError``, as ``json.dumps`` does.
    """
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_dumps(v, inner) for v in value]) + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        return ("{" + inner + ("," + inner).join([
            encode_basestring_ascii(k) + ": " + _dumps(value[k], inner) for k in sorted(value)])
            + pad + "}")
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, np.ndarray):
        a = np.asarray(value, dtype=complex)
        if not (a.size and np.isfinite(a).all()):
            return _dumps(np.stack([a.real, a.imag], axis=-1).tolist(), pad)
        template = "%r"
        for level, size in enumerate((*a.shape, 2)[::-1]):
            step = pad + "  " * (a.ndim + 1 - level)
            template = "[" + step + ("," + step).join([template] * size) + step[:-2] + "]"
        return template % tuple(a.ravel().view(float).tolist())
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _check_numbers(args):
    """Refuse a negative or non-finite tolerance, and a non-finite number in a
    plain float option, before any form is built."""
    for flag, value in (("--tol-eig", args.tol_eig), ("--tol-struct", args.tol_struct)):
        if not 0.0 <= value < np.inf:
            raise BadRange(f"{flag} must be a finite number >= 0, got {value!r}")
    for name in ("epsilon", "gamma", "delta", "kappa", "complex_time"):
        value = getattr(args, name, None)
        if isinstance(value, float) and not math.isfinite(value):
            raise BadRange(f"--{name.replace('_', '-')} must be finite, got {value!r}")


def _mode_table(report, bt):
    """Per-mode rows: frequency, hermitian flag, norm residual (None without ``bt``)."""
    lams = report.mode_frequencies.tolist()
    residuals = [None] * len(lams) if bt is None else bt.norm_residuals
    return [{"lambda": [lam.real, lam.imag],
             "hermitian": bool(abs(lam.imag) <= report.real_tol),
             "norm_residual": res}
            for lam, res in zip(lams, residuals)]


def cmd_analyze(args) -> int:
    form, digest = formio.read_form(args.input, tol_struct=args.tol_struct)
    _check_dense(form.n_modes)
    emit_modes = args.emit_modes and args.format == "doc"  # CSV prints no diagonal form
    if emit_modes:
        n = form.n_modes
        _check_budget(4 * n ** 3 * EMIT_MODES_ENTRY_BYTES,
                      f"--emit-modes report of {n} modes")
    report = spectral.classify(form, args.tol_eig)
    bt = None
    try:
        bt = spectral.normalize_pairs(report)
    except NotDiagonalizable:
        pass  # a Jordan point has no modes; the warnings below say so
    except NullNorm:
        if emit_modes:
            raise
    doc = report.to_dict()
    doc["input_digest"] = digest
    doc["n_modes"] = form.n_modes
    doc["mode_table"] = _mode_table(report, bt)
    doc["thresholds"] = None
    warnings = list(doc["warnings"])
    if not report.diagonalizable:
        warnings.append("Jordan blocks detected; no boson-diagonal form exists")
        if report.zero_mode_count == 0 and np.all(
                np.abs(report.mode_frequencies.imag) <= report.real_tol):
            warnings.append("eigenvalues all real and non-zero")
    doc["warnings"] = warnings
    if emit_modes and bt is not None:
        doc["diagonal_form"] = bt.to_dict()
        doc["invariants"] = bt.invariants
    if args.format == "doc":
        _emit([_dumps(doc)], args.out)
    else:
        lines = ["field,value"]
        for key in ("classification", "diagonalizable", "zero_mode_count",
                    "input_digest", "n_modes"):
            lines.append(f"{key},{doc[key]}")
        lines.append("h_eigenvalues," + ";".join(_fmt(x) for x in doc["h_eigenvalues"]))
        for w in warnings:
            lines.append(f"warning,{w}")
        lines.append("mode,lambda_re,lambda_im,hermitian,norm_residual")
        for i, row in enumerate(doc["mode_table"]):
            res = "" if row["norm_residual"] is None else _fmt(row["norm_residual"])
            lines.append(f"{i},{_fmt(row['lambda'][0])},{_fmt(row['lambda'][1])},"
                         f"{int(row['hermitian'])},{res}")
        _emit(lines, args.out)
    return 0


def _bcs_sweep(args, gammas, deltas, kappas):
    """:func:`bcs.bcs_sweep` with an invalid model parameter reported as a bad range."""
    try:
        return bcs_mod.bcs_sweep(args.epsilon, gammas, deltas, kappas, args.tol_eig)
    except np.linalg.LinAlgError:  # a ValueError too, but a failed solve is no bad range
        raise
    except ValueError as exc:
        raise BadRange(str(exc)) from None


def cmd_sweep(args) -> int:
    axes = {name: _parse_range(getattr(args, name)) for name in ("delta", "kappa", "gamma")}
    ranged = [v[2] for v in axes.values() if not isinstance(v, float)]
    if not 1 <= len(ranged) <= 2:
        raise BadRange(f"sweep needs one or two ranged parameters, got {len(ranged)}")
    points = math.prod(ranged)
    _check_budget(points * SWEEP_POINT_BYTES, f"sweep grid of {points} points")
    # a fixed value is a length-1 axis, so the first ranged parameter is outermost
    sw = _bcs_sweep(args, *(_axis(axes[n]) for n in ("gamma", "delta", "kappa")))
    rows = list(zip(sw.gamma.tolist(), sw.delta.tolist(), sw.kappa.tolist(), sw.code.tolist(),
                    sw.max_imag.tolist(), sw.min_sigma.tolist()))
    if args.format == "doc":
        docs = [{"epsilon": sw.epsilon, "gamma": g, "delta": d, "kappa": k,
                 "class_code": code, "max_im_lambda": max_im, "min_sigma": min_sig}
                for g, d, k, code, max_im, min_sig in rows]
        _emit([_dumps(docs)], args.out)
        return 0
    lines = ["epsilon,gamma,delta,kappa,class_code,max_im_lambda,min_sigma"]
    eps = _fmt(sw.epsilon)
    for g, d, k, code, max_im, min_sig in rows:
        lines.append(f"{eps},{_fmt(g)},{_fmt(d)},{_fmt(k)},{code},{_fmt(max_im)},{_fmt(min_sig)}")
    _emit(lines, args.out)
    return 0


def cmd_evolve(args) -> int:
    parsed = _parse_range(args.t)
    form = formio.load_form(args.input, tol_struct=args.tol_struct)
    if not isinstance(parsed, float):
        _check_budget(parsed[2] * (EVOLVE_ROW_BYTES + EVOLVE_MODE_BYTES * form.n_modes),
                      f"evolve time grid of {parsed[2]} points")
    _check_dense(form.n_modes)
    lams = spectral.classify(form, args.tol_eig).mode_frequencies
    shift = 1j * args.complex_time
    ts = [complex(t_real) + shift for t_real in _axis(parsed)]
    header = ("t_re,t_im,max_abs_u,symplectic_residual,"
              + ",".join(f"mode{i+1}_phase_mag" for i in range(form.n_modes)))
    peaks, residuals = [], []
    for stack in evolution.propagate_grid(dynamical_matrix(form), ts):
        peaks += stack.max_abs.tolist()
        residuals += stack.symplectic_residual.tolist()
    mags = np.abs(np.exp((-1j * lams) * np.array(ts)[:, None]))
    rows = list(zip(ts, peaks, residuals, mags.tolist()))
    if args.format == "doc":
        docs = [{"t": [t.real, t.imag], "max_abs_u": mx, "symplectic_residual": sr,
                 "mode_phase_mags": row}
                for t, mx, sr, row in rows]
        _emit([_dumps(docs)], args.out)
        return 0
    # every field is a Python float here, so repr is _fmt
    lines = [header]
    lines += [",".join(map(repr, (t.real, t.imag, mx, sr, *row))) for t, mx, sr, row in rows]
    _emit(lines, args.out)
    return 0


def _sigma_columns(p: bcs_mod.BcsParams) -> np.ndarray:
    sig = bcs_mod.bcs_sigma(p)
    if sig.size == 2:
        return np.array([sig[0], sig[0], sig[1], sig[1]])
    return sig


def cmd_bcs(args) -> int:
    # a single point writes a doc and --sweep csv rows; no flag picks the other
    mode, writes = ("--sweep", "csv") if args.sweep else ("at a single point", "doc")
    if args.format not in (None, writes):
        raise BadRange(f"bcs {mode} writes --format {writes}, not {args.format}")
    if args.sweep:
        grid = _parse_range(args.sweep)
        if isinstance(grid, float):
            raise BadRange("--sweep requires min:max:steps")
        _check_budget(grid[2] * SWEEP_POINT_BYTES, f"--sweep grid of {grid[2]} points")
        sw = _bcs_sweep(args, [args.gamma], _axis(grid), [args.kappa])
        lines = ["delta,class_code,lambda_plus_re,lambda_plus_im,"
                 "lambda_minus_re,lambda_minus_im,sigma_1,sigma_2,sigma_3,sigma_4"]
        for d, code, (lp, lm) in zip(sw.delta.tolist(), sw.code.tolist(), sw.frequencies):
            p = bcs_mod.BcsParams(sw.epsilon, args.gamma, d, args.kappa)
            lines.append(
                f"{_fmt(d)},{code},"
                f"{_fmt(lp.real)},{_fmt(lp.imag)},{_fmt(lm.real)},{_fmt(lm.imag)},"
                + ",".join(_fmt(s) for s in _sigma_columns(p)))
        _emit(lines, args.out)
        return 0
    sw = _bcs_sweep(args, [args.gamma], [args.delta], [args.kappa])
    base = bcs_mod.BcsParams(args.epsilon, args.gamma, args.delta, args.kappa)
    thresholds = bcs_mod.bcs_thresholds(base)
    doc = {
        "params": {"epsilon": base.epsilon, "gamma": base.gamma,
                   "delta": base.delta, "kappa": base.kappa},
        "classification": spectral.CLASS_LABELS[sw.code[0]].value,
        "mode_frequencies": [[l.real, l.imag] for l in sw.frequencies[0]],
        "sigma": [float(s) for s in bcs_mod.bcs_sigma(base)],
        "thresholds": thresholds.to_dict(),
    }
    if base.kappa != 0.0:
        doc["thresholds"]["note"] = (
            "outer reentry edge from numeric bisection; the closed-form "
            "readings are dimensionally ambiguous and reported for comparison"
        )
    if base.kappa == 0.0:
        try:
            u, v = bcs_mod.bcs_uv(base)
            doc["u"] = [u.real, u.imag]
            doc["v"] = [v.real, v.imag]
        except QuadBosonError:
            doc["u"] = doc["v"] = None
    _emit([_dumps(doc)], args.out)
    return 0


def cmd_oracle(args) -> int:
    if args.nmax < 1 or args.levels < 1:
        raise BadRange(f"--nmax and --levels must be >= 1, got {args.nmax} and {args.levels}")
    form = formio.load_form(args.input, tol_struct=args.tol_struct)
    report = oracle.fock_spectrum_check(form, args.nmax, args.levels, args.tol_eig)
    if args.format == "doc":
        _emit([_dumps(report.to_dict())], args.out)
        return 0
    lines = ["level,predicted,observed,abs_deviation"]
    for i, (pred, obs) in enumerate(zip(report.predicted, report.observed)):
        lines.append(f"{i},{_fmt(pred)},{_fmt(obs)},{_fmt(abs(pred - obs))}")
    _emit(lines, args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse, except that a token starting with ``-`` and a digit or ``.`` is a
    value, never an option: ``--delta -0.5:0.5:11`` reads as ``--delta=-0.5:0.5:11``."""

    def _parse_optional(self, arg_string):
        if re.match(r"-[\d.]", arg_string):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--tol-eig", type=float, default=1e-9,
                        help="relative eigen/classification tolerance (default 1e-9)")
    common.add_argument("--tol-struct", type=float, default=1e-12,
                        help="relative structural validation tolerance (default 1e-12)")
    common.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility and ignored; sweeps run "
                             "in one process")
    common.add_argument("--out", default=None, help="write output to this file")
    common.add_argument("--format", choices=("csv", "doc"), default=None,
                        help="output format (doc = JSON); default depends on command")

    parser = _Parser(
        prog="quadboson",
        description="Diagonalization and stability analysis of quadratic boson forms",
        epilog="Classification codes: 0 PositiveDefinite, 1 StableNonPositive, "
               "2 UnstableComplex, 3 NonDiagonalizable.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="classify a form file and report its modes")
    p.add_argument("input", help="form file (JSON, see README for schema)")
    p.add_argument("--emit-modes", action="store_true",
                   help="add extraction rows and invariants to a doc report (csv ignores it)")
    p.set_defaults(func=cmd_analyze, default_format="doc")

    p = sub.add_parser("sweep", parents=[common],
                       help="classification sweep over pairing-model parameters")
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--gamma", default="0.3", help="value or range min:max:steps")
    p.add_argument("--delta", default="0.0", help="value or range min:max:steps")
    p.add_argument("--kappa", default="0.0", help="value or range min:max:steps")
    p.set_defaults(func=cmd_sweep, default_format="csv")

    p = sub.add_parser("evolve", parents=[common],
                       help="propagator trace over a time grid")
    p.add_argument("input", help="form file")
    p.add_argument("--t", required=True, help="time value or range min:max:steps")
    p.add_argument("--complex-time", type=float, default=0.0,
                   help="add i*IM to every grid time (probes the complex-time "
                        "metric identity)")
    p.set_defaults(func=cmd_evolve, default_format="csv")

    p = sub.add_parser("bcs", parents=[common],
                       help="pairing example: report or delta sweep")
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=0.3)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--kappa", type=float, default=0.0)
    p.add_argument("--sweep", default=None,
                   help="sweep delta over min:max:steps instead of one point")
    p.set_defaults(func=cmd_bcs, default_format=None)

    p = sub.add_parser("oracle", parents=[common],
                       help="truncated-Fock spectrum comparison")
    p.add_argument("--input", required=True, help="form file")
    p.add_argument("--nmax", type=int, default=12, help="per-mode cutoff")
    p.add_argument("--levels", type=int, default=6, help="levels to compare")
    p.set_defaults(func=cmd_oracle, default_format="csv")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every :func:`main` call in this process.  ``parse_args``
    keeps no state between calls: each gets a fresh namespace with the
    defaults, and usage errors go to ``sys.stderr`` as it is at that time."""
    return build_parser()


# the code a shell reports for a command that SIGPIPE ended
EXIT_BROKEN_PIPE = 141


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.format is None:
        args.format = args.default_format
    try:
        _check_numbers(args)
        _check_out(args.out)
        return args.func(args)
    except BrokenPipeError:
        # the reader left (`| head`): the exit flush of what stdout still
        # buffers goes to devnull, so no traceback follows
        if sys.stdout is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_BROKEN_PIPE
    except BadRange as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (StructureViolation, DimensionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (Overflow, WrongRegime, NotDiagonalizable, NullNorm,
            PairingFailure, DimensionCap) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
