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

Exit codes: 0 success; 2 usage, bad sweep range, a grid or an analyze
--emit-modes report whose buffers would exceed the 1 GiB memory budget
(checked before allocating or solving), oracle --nmax/--levels below 1,
a non-finite --complex-time, or a negative or non-finite
--tol-eig/--tol-struct; 3 unreadable, undecodable or malformed form file;
4 structural validation failure; 5 numerical failure (overflow, including
finite input entries too large to symmetrize or rank-test and bcs
parameters whose squares leave the float range, wrong regime, including an
oracle check whose compared levels need an occupation above nmax // 2, a
vanishing generalized norm where analyze --emit-modes needs
the transform, an oracle Fock dimension above the cap, checked before
allocating).  At a Jordan point analyze prints no modes and exits 0.

Floats are printed with ``repr`` (shortest round-trip, locale independent)
so identical inputs and flags give byte-identical output.  ``--format doc``
output is exactly ``json.dumps(doc, indent=2, sort_keys=True)`` of the
document, with every complex matrix as nested ``[re, im]`` lists.

:func:`main` may be called any number of times in one process; it builds
its parser on the first call and reuses it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import bcs as bcs_mod
from . import evolution, formio, normal_modes, oracle, spectral
from .core import MEMORY_BUDGET, bar_vector, dynamical_matrix, metric_signs
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
    return lo, hi, steps


def _axis(parsed) -> np.ndarray:
    """Grid of a parsed range; a fixed value is a length-1 axis."""
    return np.array([parsed]) if isinstance(parsed, float) else np.linspace(*parsed)


# Peak bytes per grid point, measured with tracemalloc as the slope between
# two grid sizes and rounded up.  A sweep point (parameter columns, the
# stacked Hmat and M Hmat, eigenvectors, pairwise distances, output rows)
# costs 2.2 kB for `sweep` csv and doc and `bcs --sweep` alike.  An `evolve`
# row is a tuple of a complex, two floats and an array of n magnitudes, then
# a line or, costlier, a dict of `--format doc`: 2.0 kB at n = 1 and 2, 2.9 kB
# at n = 8 and 5.9 kB at n = 32 for doc, about 0.6 to 1.5 kB for csv.
# `analyze --emit-modes` grows with the n x 2n x 2n invariants: 288 B per
# entry of them between n = 16 and 32, for doc written with --out (230 B to
# stdout).
SWEEP_POINT_BYTES = 4096
EVOLVE_ROW_BYTES = 2048
EVOLVE_MODE_BYTES = 256
EMIT_MODES_ENTRY_BYTES = 320


def _check_budget(nbytes: int, what: str):
    """Refuse work whose buffers would exceed the memory budget, before allocating."""
    if nbytes > MEMORY_BUDGET:
        raise BadRange(f"{what} needs about {nbytes:.3g} B of buffers, "
                       f"above the {MEMORY_BUDGET} B budget")


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dumps(value, depth: int = 0) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, of ``value``
    with every ndarray read as the nested ``[re, im]`` lists of its entries,
    written as if nested ``depth`` levels deep.

    A dict holding a dict or an ndarray is walked key by key.  A finite
    complex array of non-zero size fills a ``%r`` template of its shape with
    Python floats, whose repr is json's.  Anything else, and an array json
    would spell otherwise (NaN, Infinity, ``[]``), goes through ``json.dumps``
    re-indented, which is safe because JSON strings escape their newlines.
    """
    pad = "\n" + "  " * depth
    if isinstance(value, dict) and any(isinstance(v, (dict, np.ndarray))
                                       for v in value.values()):
        inner = pad + "  "
        return ("{" + inner + ("," + inner).join(
            f"{json.dumps(k)}: {_dumps(value[k], depth + 1)}" for k in sorted(value))
            + pad + "}")
    if isinstance(value, np.ndarray):
        a = np.asarray(value, dtype=complex)
        if a.size and np.isfinite(a).all():
            template = "%r"
            for level, size in enumerate((*a.shape, 2)[::-1]):
                inner = "\n" + "  " * (depth + a.ndim + 1 - level)
                template = ("[" + inner + ("," + inner).join([template] * size)
                            + inner[:-2] + "]")
            return template % tuple(a.ravel().view(float).tolist())
        value = np.stack([a.real, a.imag], axis=-1).tolist()
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", pad)


def _tolerances(args) -> spectral.Tolerances:
    return spectral.Tolerances(eig=args.tol_eig)


def _check_tolerances(args):
    for flag, value in (("--tol-eig", args.tol_eig), ("--tol-struct", args.tol_struct)):
        if not 0.0 <= value < np.inf:
            raise BadRange(f"{flag} must be a finite number >= 0, got {value!r}")


def _mode_table(report, bt):
    """Per-mode rows: frequency, hermitian flag, norm residual (None without ``bt``)."""
    residuals = [None] * len(report.mode_frequencies)
    if bt is not None:
        n = bt.n_modes
        mdiag = metric_signs(n)
        for i in range(n):
            c = bar_vector(bt.W[:, n + i]) @ (mdiag * bt.W[:, i])
            residuals[i] = float(abs(c - 1.0))
    return [{"lambda": [lam.real, lam.imag],
             "hermitian": bool(abs(lam.imag) <= report.diagnostics.real_tol),
             "norm_residual": res}
            for lam, res in zip(report.mode_frequencies, residuals)]


def cmd_analyze(args) -> int:
    tol = _tolerances(args)
    form = formio.load_form(args.input, tol_struct=args.tol_struct)
    if args.emit_modes:
        n = form.n_modes
        _check_budget(4 * n ** 3 * EMIT_MODES_ENTRY_BYTES,
                      f"--emit-modes report of {n} modes")
    report = spectral.classify(form, tol)
    bt = None
    try:
        bt = spectral.normalize_pairs(report.pairs, report.diagnostics)
    except NotDiagonalizable:
        pass  # a Jordan point has no modes; the warnings below say so
    except NullNorm:
        if args.emit_modes:
            raise
    doc = report.to_dict()
    doc["input_digest"] = formio.form_digest(args.input)
    doc["n_modes"] = form.n_modes
    doc["mode_table"] = _mode_table(report, bt)
    doc["thresholds"] = None
    warnings = list(doc["warnings"])
    if not report.diagonalizable:
        warnings.append("Jordan blocks detected; no boson-diagonal form exists")
        if report.zero_mode_count == 0 and np.all(
                np.abs(report.mode_frequencies.imag) <= report.diagnostics.real_tol):
            warnings.append("eigenvalues all real and non-zero")
    doc["warnings"] = warnings
    if args.emit_modes and bt is not None:
        df = normal_modes.diagonal_form(bt, report.mode_frequencies, report.diagnostics)
        inv = normal_modes.invariants(bt)
        doc["diagonal_form"] = df.to_dict()
        doc["invariants"] = inv.K
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
        return bcs_mod.bcs_sweep(args.epsilon, gammas, deltas, kappas, _tolerances(args))
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
    tol = _tolerances(args)
    form = formio.load_form(args.input, tol_struct=args.tol_struct)
    lams = spectral.classify(form, tol).mode_frequencies
    parsed = _parse_range(args.t)
    if not math.isfinite(args.complex_time):
        raise BadRange(f"--complex-time must be finite, got {args.complex_time!r}")
    if not isinstance(parsed, float):
        _check_budget(parsed[2] * (EVOLVE_ROW_BYTES + EVOLVE_MODE_BYTES * form.n_modes),
                      f"evolve time grid of {parsed[2]} points")
    shift = 1j * args.complex_time
    ts = [complex(t_real) + shift for t_real in _axis(parsed)]
    header = ("t_re,t_im,max_abs_u,symplectic_residual,"
              + ",".join(f"mode{i+1}_phase_mag" for i in range(form.n_modes)))
    peaks, residuals = [], []
    for stack in evolution.propagate_grid(dynamical_matrix(form), ts):
        peaks += stack.max_abs.tolist()
        residuals += stack.symplectic_residual.tolist()
    mags = np.abs(np.exp((-1j * lams) * np.array(ts)[:, None]))
    rows = list(zip(ts, peaks, residuals, mags))
    if args.format == "doc":
        docs = [{"t": [t.real, t.imag], "max_abs_u": mx, "symplectic_residual": sr,
                 "mode_phase_mags": [float(m) for m in mags]}
                for t, mx, sr, mags in rows]
        _emit([_dumps(docs)], args.out)
        return 0
    lines = [header]
    for t, mx, sr, mags in rows:
        lines.append(f"{_fmt(t.real)},{_fmt(t.imag)},{_fmt(mx)},{_fmt(sr)},"
                     + ",".join(_fmt(m) for m in mags))
    _emit(lines, args.out)
    return 0


def _sigma_columns(p: bcs_mod.BcsParams) -> np.ndarray:
    sig = bcs_mod.bcs_sigma(p)
    if sig.size == 2:
        return np.array([sig[0], sig[0], sig[1], sig[1]])
    return sig


def cmd_bcs(args) -> int:
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
            u, v = bcs_mod.bcs_uv(base, _tolerances(args))
            doc["u"] = [u.real, u.imag]
            doc["v"] = [v.real, v.imag]
        except QuadBosonError:
            doc["u"] = doc["v"] = None
    _emit([_dumps(doc)], args.out)
    return 0


def cmd_oracle(args) -> int:
    if args.nmax < 1 or args.levels < 1:
        raise BadRange(f"--nmax and --levels must be >= 1, got {args.nmax} and {args.levels}")
    tol = _tolerances(args)
    form = formio.load_form(args.input, tol_struct=args.tol_struct)
    report = oracle.fock_spectrum_check(form, args.nmax, args.levels, tol)
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
                   help="include extraction rows and invariants in the report")
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
    p.set_defaults(func=cmd_bcs, default_format="csv")

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


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.format is None:
        args.format = args.default_format
    try:
        _check_tolerances(args)
        return args.func(args)
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
