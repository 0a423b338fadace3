#!/usr/bin/env python3
"""Exit code and stdout sha256 of every benchmark op, one line per argv.

Builds the op lists of the four ``perfbench`` workloads at each seed, plus
each workload's known-defect ops, then a fixed list of single-point ``bcs``
argvs that no benchmark op runs, then argvs that must be refused as usage
errors (non-finite model parameters, ``--out`` paths that are a
directory or lie in a missing one, and ranges wider than the float range),
then argvs that put the document writer
and the CSV table of every subcommand to work (``--format doc`` of
``sweep``, ``evolve`` and ``oracle``, ``--format csv`` of ``analyze``), then
``bcs`` and ``sweep`` argvs on the outer edge of the reentry window, where
roundoff splits a Jordan pair differently at +lambda and -lambda, then a
``bcs`` point whose outer edge is representable although kappa^2/gamma^2
is not, then ``analyze`` on a zero mode, a Jordan block at zero and a
purely imaginary frequency, then ``sweep`` and ``bcs --sweep`` grids at a
non-default ``--tol-eig``, and runs every op in-process through
``perfbench/run.py``'s ``call`` (stdout captured; importing ``run`` pins
BLAS to one thread).  Each line reads ``<exit code> <sha256 of stdout>
<argv>``; fixture paths in the argv are printed relative to the fixture
directory, so the lines of two source trees can be compared with ``diff``:

    python scripts/stdout_digests.py --seed 1 2 > after.txt
    (cd ../parent && python scripts/stdout_digests.py --seed 1 2) > before.txt
    diff before.txt after.txt

An op that raises out of ``cli.main`` prints ``raised:<exception type>`` in
place of the exit code.  ``perfbench/`` is imported, never written to.
"""

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402  (pins BLAS threads before numpy is imported)
import numpy as np  # noqa: E402
import workloads  # noqa: E402
from quadboson import cli  # noqa: E402


def digest_line(argv, root: str = "") -> str:
    rc, out, _, failure = run.call(cli, argv)
    if failure is not None:  # "raised: <type>: <message>"
        rc = "raised:" + failure.split()[1].rstrip(":")
    digest = hashlib.sha256(out.encode()).hexdigest()
    shown = [os.path.relpath(a, root) if root and a.startswith(root) else a for a in argv]
    return f"{rc} {digest} {' '.join(shown)}"


def digest_lines(seeds, tiny: bool = False):
    """Yield the line of every op of every workload at each seed, in order."""
    with tempfile.TemporaryDirectory() as root:
        for seed in seeds:
            for name in workloads.WORKLOADS:
                ops, _ = workloads.build(name, seed, os.path.join(root, f"{name}-{seed}"), tiny)
                defects = workloads.Fixtures(os.path.join(root, f"{name}-defects"), 0)
                for op in ops + workloads.known_defect_ops(name, defects):
                    yield digest_line(op.argv, root)


def bcs_point_argvs():
    """Single-point ``bcs`` in every regime, with and without kappa (kappa != 0
    reports the reentry window), then on both sides of the gaps delta = +/-1 down
    to 10^-15, with and without ``--tol-eig 1e-3``."""
    for delta in (0.0, 0.5, 0.97, 1.0, 1.2, -0.5):
        for kappa in (0.0, 0.05, 0.2):
            yield ["bcs", "--delta", repr(delta), "--kappa", repr(kappa)]
    for k in range(3, 16):
        for delta in (1.0 + 10.0 ** -k, 1.0 - 10.0 ** -k, -1.0 - 10.0 ** -k, -1.0 + 10.0 ** -k):
            for tol in ([], ["--tol-eig", "1e-3"]):
                yield ["bcs", "--delta", repr(delta), *tol]


def refused_argvs(root: str):
    """Non-finite ``bcs`` and ``sweep`` parameters, then unwritable ``--out``
    paths inside ``root`` next to a form file written there, then ``evolve``,
    ``sweep`` and ``bcs --sweep`` ranges wider than the float range."""
    yield from (["bcs", "--delta", "nan"], ["bcs", "--kappa", "inf"], ["bcs", "--delta", "inf"],
                ["bcs", "--kappa", "nan"], ["bcs", "--epsilon", "inf"],
                ["bcs", "--sweep", "0:1:3", "--kappa", "nan"],
                ["sweep", "--delta", "0:1:3", "--epsilon", "inf"])
    form = workloads.Fixtures(root, 0).bcs("bcs05", 0.5)
    missing = os.path.join(root, "no", "such", "dir")
    yield ["analyze", form, "--out", os.path.join(missing, "x.json")]
    yield ["analyze", form, "--out", root]
    yield ["sweep", "--delta", "0:1:3", "--out", os.path.join(missing, "x.csv")]
    # ranges whose width hi - lo is beyond the float range
    yield ["evolve", form, "--t", "-1e308:1e308:3"]
    yield ["sweep", "--delta", "-1e308:1e308:3"]
    yield ["bcs", "--sweep", "-1e308:1e308:3"]


def writer_argvs(root: str):
    """``--format doc`` of 1-D and 2-D ``sweep`` grids, of ``evolve`` at real
    and complex times and of ``oracle``, then ``analyze --format csv``, on
    form files written into ``root``."""
    fx = workloads.Fixtures(root, 0)
    bcs = fx.bcs("bcs05", 0.5)
    jordan = fx.bcs("bcs_jordan", 1.0)
    random2, random8 = fx.random("r2i", 2, "indefinite"), fx.random("r8p", 8, "pd")
    doc = ["--format", "doc"]
    yield ["sweep", "--delta", "0:1.5:31", *doc]
    yield ["sweep", "--delta", "0.9:1.1:21", "--kappa", "0.05", *doc]
    yield ["sweep", "--delta", "0:1.5:7", "--kappa", "-0.1:0.1:5", *doc]
    yield ["sweep", "--gamma", "0.1:0.9:5", "--delta", "0.5:1.5:5", *doc]
    for form in (bcs, jordan, random2, random8):
        yield ["evolve", form, "--t", "0:2:11", *doc]
        yield ["evolve", form, "--t", "0:2:11", "--complex-time", "0.5", *doc]
    yield ["oracle", "--input", bcs, "--nmax", "8", "--levels", "4", *doc]
    yield ["oracle", "--input", fx.random("r2p", 2, "pd"), "--nmax", "10", "--levels", "6", *doc]
    for form in (bcs, jordan, random2, random8):
        yield ["analyze", form, "--format", "csv"]
        yield ["analyze", form, "--format", "csv", "--emit-modes"]


def outer_edge_argvs():
    """Single-point ``bcs`` at nine (kappa, delta) on the outer edge of the
    reentry window, then a ``sweep`` over two of them, Jordan points all,
    then a ``bcs`` point whose outer edge eps sqrt(1 + kappa^2/gamma^2) =
    1e250 is representable although kappa^2/gamma^2 = 1e500 is not."""
    for kappa, delta in ((0.02, 1.0022197585580783), (-0.02, 1.0022197585580783),
                         (0.02, 1.0022197585583092), (-0.02, 1.0022197585583092),
                         (0.005, 1.0001388792450476), (0.01, 1.0005554013201237),
                         (0.01, 1.0005554013203608), (0.03, 1.0049875621119793),
                         (0.07, 1.026861453383234)):
        yield ["bcs", "--delta", repr(delta), "--kappa", repr(kappa)]
    yield ["sweep", "--delta", "1.0022197585580783:1.0022197585583092:3", "--kappa", "0.02"]
    yield ["bcs", "--delta", "0.5", "--gamma", "1e-100", "--kappa", "1e150"]


def zero_mode_argvs(root: str):
    """``analyze`` doc, doc ``--emit-modes`` and ``--format csv`` on three
    form files written into ``root``: two modes with A = diag(1, 0) and
    B = 0 (StableNonPositive with one zero mode), the free particle
    A = B = 0.5 (a Jordan block at 0) and one mode with A = 0.5, B = 1
    (lambda = 0.866i).  No benchmark op analyzes a zero mode."""
    fx = workloads.Fixtures(root, 0)
    forms = (fx.form("zero_mode", np.diag([1.0, 0.0]).astype(complex),
                     np.zeros((2, 2), dtype=complex), "zero"),
             fx.form("free_particle", np.array([[0.5 + 0j]]), np.array([[0.5 + 0j]]), "jordan"),
             fx.form("imaginary", np.array([[0.5 + 0j]]), np.array([[1.0 + 0j]]), "complex"))
    for form in forms:
        yield ["analyze", form]
        yield ["analyze", form, "--emit-modes"]
        yield ["analyze", form, "--format", "csv"]


def tolerance_argvs():
    """``sweep`` (CSV and ``--format doc``) and ``bcs --sweep`` over delta in
    [0.95, 1.0] at ``--tol-eig 1e-3``: the grid ends at the Jordan point
    delta = eps, which the batched classifier leaves to ``classify``, and
    delta = 0.952 and 0.953 read StableNonPositive at this tolerance but
    PositiveDefinite at the default."""
    tol = ["--tol-eig", "1e-3"]
    yield ["sweep", "--delta", "0.95:1.0:51", *tol]
    yield ["sweep", "--delta", "0.95:1.0:51", *tol, "--format", "doc"]
    yield ["bcs", "--sweep", "0.95:1.0:51", *tol]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, nargs="+", default=[1])
    args = ap.parse_args(argv)
    for line in digest_lines(args.seed):
        print(line, flush=True)
    for argv in bcs_point_argvs():
        print(digest_line(argv), flush=True)
    with tempfile.TemporaryDirectory() as root:
        for argv in refused_argvs(root):
            print(digest_line(argv, root), flush=True)
    with tempfile.TemporaryDirectory() as root:
        for argv in writer_argvs(root):
            print(digest_line(argv, root), flush=True)
    for argv in outer_edge_argvs():
        print(digest_line(argv), flush=True)
    with tempfile.TemporaryDirectory() as root:
        for argv in zero_mode_argvs(root):
            print(digest_line(argv, root), flush=True)
    for argv in tolerance_argvs():
        print(digest_line(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
