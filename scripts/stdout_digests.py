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
non-default ``--tol-eig``, then the BCS model at a tiny and at a huge
energy unit (a ``bcs`` point and ``sweep`` grids at epsilon = 1e-9 and
1e200, and ``analyze`` of the Jordan point at 1e200), then ``analyze`` of
a form file with a JSON boolean entry and of two zero modes in a mixed
basis, then ``analyze`` of a non-hermitian A and of a non-symmetric B at
the scale 1e-170, and runs every op
in-process through ``perfbench/run.py``'s ``call`` (stdout captured;
importing ``run`` pins BLAS to one thread).  Each line reads ``<exit code>
<sha256 of stdout> <argv>``; fixture paths in the argv are printed
relative to the fixture directory, so the lines of two source trees can be
compared with ``diff``:

    python scripts/stdout_digests.py --seed 1 2 > after.txt
    (cd ../parent && python scripts/stdout_digests.py --seed 1 2) > before.txt
    diff before.txt after.txt

An op that raises out of ``cli.main`` prints ``raised:<exception type>`` in
place of the exit code.  ``perfbench/`` is imported, never written to.

``tests/golden/stdout_digests.txt`` holds :func:`build_lines` (the Python,
numpy, scipy and BLAS builds, as ``#`` lines) and then the lines of
``--seed 1 2``; a tier-1 test compares a fresh run with it.  Where a change
to the printed bytes is meant, rewrite it with

    python -c "import sys; sys.path.insert(0, 'scripts'); import stdout_digests; stdout_digests.write_golden()"
"""

import argparse
import hashlib
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402  (pins BLAS threads before numpy is imported)
import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402
import workloads  # noqa: E402
import quadboson as qb  # noqa: E402
from quadboson import cli  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "stdout_digests.txt"
GOLDEN_SEEDS = (1, 2)


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


def energy_unit_argvs(root: str):
    """The BCS model at gamma = 0.3 eps with eps = 1e-9, where every
    frequency lies below 1: a complex ``bcs`` point and a ``sweep`` from the
    positive definite delta = 0 to the complex regime; then at eps = 1e200,
    where the Jordan rank test meets ||M Hmat - lambda|| ~ 1e200, a ``sweep``
    and ``analyze`` of the Jordan point written into ``root``."""
    yield ["bcs", "--epsilon", "1e-9", "--gamma", "3e-10", "--delta", "1.2e-9"]
    yield ["sweep", "--epsilon", "1e-9", "--gamma", "3e-10", "--delta", "0:2e-9:5"]
    yield ["sweep", "--epsilon", "1e200", "--gamma", "3e199", "--delta", "0:1e200:3"]
    jordan = qb.bcs_form(qb.BcsParams(1e200, 3e199, 1e200, 0.0))
    yield ["analyze", workloads.Fixtures(root, 0).form("bcs_jordan_1e200", jordan.A, jordan.B,
                                                       "jordan")]


def boolean_and_zero_pair_argvs(root: str):
    """``analyze`` of a form file written into ``root`` whose A holds a JSON
    boolean beside a number (refused), then ``analyze`` and ``analyze
    --emit-modes`` of two zero modes in a mixed basis: A = diag(1, 0, 0),
    B = 0 under the Bogoliubov map U = expm(-i M K), K the Hmat of a seeded
    random form scaled to 2-norm 1."""
    boolean = Path(root, "boolean_entry.json")
    boolean.write_text('{"n_modes": 1, "A": [[[1.5, false]]], "B": [[[0.0, 0.0]]]}')
    yield ["analyze", str(boolean)]
    rng = np.random.default_rng(2)
    z, y = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2))
    k = qb.build_form(0.5 * (z + z.conj().T), 0.5 * (y + y.T)).hmat
    u = scipy.linalg.expm(-1j * np.repeat([1.0, -1.0], 3)[:, None] * k / np.linalg.norm(k, 2))
    planted = qb.build_form(np.diag([1.0, 0.0, 0.0]), np.zeros((3, 3)))
    h = u.conj().T @ planted.hmat @ u
    form = workloads.Fixtures(root, 0).form("zero_pair", h[:3, :3], h[:3, 3:], "zero")
    yield ["analyze", form]
    yield ["analyze", form, "--emit-modes"]


def tiny_asymmetry_argvs(root: str):
    """``analyze`` of two form files written into ``root`` at the scale
    1e-170, where Frobenius norms underflow to 0: A with A[0, 1] = 1e-170
    and A[1, 0] = 0 (not hermitian), then A = 1e-170 I beside B with
    B[0, 1] = -B[1, 0] = 1e-170 (not symmetric).  Both are refused."""
    fx = workloads.Fixtures(root, 0)
    tiny = np.array([[0.0, 1e-170], [0.0, 0.0]], dtype=complex)
    yield ["analyze", fx.form("tiny_not_hermitian", tiny, np.zeros((2, 2), dtype=complex),
                              "refused")]
    yield ["analyze", fx.form("tiny_not_symmetric", 1e-170 * np.eye(2, dtype=complex),
                              tiny - tiny.T, "refused")]


def all_lines(seeds):
    """Yield every line :func:`main` prints for ``seeds``, in order."""
    yield from digest_lines(seeds)
    for argv in bcs_point_argvs():
        yield digest_line(argv)
    for argvs in (refused_argvs, writer_argvs):
        with tempfile.TemporaryDirectory() as root:
            for argv in argvs(root):
                yield digest_line(argv, root)
    for argv in outer_edge_argvs():
        yield digest_line(argv)
    with tempfile.TemporaryDirectory() as root:
        for argv in zero_mode_argvs(root):
            yield digest_line(argv, root)
    for argv in tolerance_argvs():
        yield digest_line(argv)
    with tempfile.TemporaryDirectory() as root:
        for argv in energy_unit_argvs(root):
            yield digest_line(argv, root)
    with tempfile.TemporaryDirectory() as root:
        for argv in boolean_and_zero_pair_argvs(root):
            yield digest_line(argv, root)
    with tempfile.TemporaryDirectory() as root:
        for argv in tiny_asymmetry_argvs(root):
            yield digest_line(argv, root)


def _blas(module) -> str:
    """Name, version and configuration of the BLAS ``module`` was built with."""
    blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return " ".join(str(blas.get(key)) for key in ("name", "version", "openblas configuration"))


def build_lines() -> list:
    """The builds the digests depend on, one ``#`` line each: numpy and
    scipy link BLAS builds of their own."""
    return [f"# python {' '.join(sys.version.split())} on {platform.machine()}",
            f"# numpy {np.__version__} with {_blas(np)}",
            f"# scipy {scipy.__version__} with {_blas(scipy)}"]


def write_golden() -> None:
    """Rewrite the golden file from a fresh run on this build."""
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(build_lines() + list(all_lines(GOLDEN_SEEDS))) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, nargs="+", default=[1])
    args = ap.parse_args(argv)
    for line in all_lines(args.seed):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
