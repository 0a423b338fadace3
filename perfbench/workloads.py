"""Seeded fixture forms and op lists for the four benchmark workloads.

A workload is a fixed list of ``quadboson`` command lines over form files
generated from the seed.  The seed moves matrix entries, BCS gap values and
grid end points; it never changes how many ops there are, how many modes a
form has, how many grid points or time points an op asks for, or which
regime a form is in.  Run-to-run cost differences therefore come from the
program, not from the inputs.

Every op carries the exit code that the documented exit table gives for its
input and the name of the output check to run (see ``reference.py``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

# The pairing model used for every BCS form: epsilon and gamma are fixed,
# the gap delta and the hopping kappa vary.
EPS = 1.0
GAMMA = 0.3
POSITIVITY = math.sqrt(EPS * EPS - GAMMA * GAMMA)  # kappa = 0 edge PD -> SNP
REENTRY_KAPPA = 0.05  # inside the reentry window 0 < kappa < gamma^2 / POSITIVITY

# analyze ops at delta = eps (1 +/- 10^-k); emit-modes ops stop at k = 9,
# see KNOWN_DEFECT_EXPONENTS
NEAR_JORDAN_EXPONENTS = (3, 6, 9, 10, 11, 12, 13)
EMIT_NEAR_JORDAN_EXPONENTS = (3, 6, 9)
# `analyze --emit-modes` exits 5 on these diagonalizable forms while plain
# `analyze` reports them diagonalizable; the run records the exit codes
# outside the timed ops so the defect stays visible.
KNOWN_DEFECT_EXPONENTS = (10, 11, 12)

WORKLOADS = ("analyze-mix", "sweep-grid", "evolve-trace", "oracle-fock")


@dataclass
class Op:
    """One CLI invocation: ``argv`` for ``quadboson.cli.main``."""

    argv: list
    rc: int = 0          # exit code the documented table gives for this input
    check: str = "none"  # output check in reference.py
    ref: dict = field(default_factory=dict)


@dataclass
class Form:
    """A fixture form as written to disk, kept in memory for the checks."""

    A: np.ndarray
    B: np.ndarray
    kind: str                 # "pd", "indefinite" or "bcs"
    delta: float = 0.0        # BCS only
    kappa: float = 0.0        # BCS only
    digest: str = ""


class Fixtures:
    """Writes seeded form files into one directory and records their digests."""

    def __init__(self, root: str, seed: int):
        self.root = root
        self.rng = np.random.default_rng(seed)
        self.forms: dict = {}  # path -> Form
        os.makedirs(root, exist_ok=True)

    def _write(self, name: str, data: bytes) -> str:
        path = os.path.join(self.root, name + ".json")
        with open(path, "wb") as fh:
            fh.write(data)
        return path

    def form(self, name, a, b, kind, delta=0.0, kappa=0.0) -> str:
        doc = {"n_modes": int(a.shape[0]), "A": _pairs(a), "B": _pairs(b)}
        data = json.dumps(doc).encode()
        path = self._write(name, data)
        self.forms[path] = Form(a, b, kind, delta, kappa,
                                hashlib.sha256(data).hexdigest())
        return path

    def random(self, name: str, n: int, kind: str, pairing: float = 0.5) -> str:
        """Random form with A = Q diag(a) Q+ and a symmetric B of 2-norm ``pairing``.

        ``pd``: a in [1, 2] and pairing <= 0.5, so Hmat >= 0.5 (positive
        definite with margin).  ``indefinite``: a in [-1, 2] with one entry
        below -0.5, so Hmat has a negative direction, and pairing 0.8, which
        gives a mix of real and complex frequencies.
        """
        rng = self.rng
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(z)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        diag = rng.uniform(1.0 if kind == "pd" else -1.0, 2.0, n)
        if kind != "pd":
            pairing = 0.8
            diag[0] = -rng.uniform(0.5, 1.0)
        a = (q * diag) @ q.conj().T
        a = 0.5 * (a + a.conj().T)
        y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = y + y.T
        b = b * (pairing / np.linalg.norm(b, 2))
        return self.form(name, a, b, kind)

    def bcs(self, name: str, delta: float, kappa: float = 0.0) -> str:
        a = np.array([[EPS + GAMMA, kappa], [kappa, EPS - GAMMA]], dtype=complex)
        b = np.array([[0.0, delta], [delta, 0.0]], dtype=complex)
        return self.form(name, a, b, "bcs", delta, kappa)

    def raw(self, name: str, text: str) -> str:
        return self._write(name, text.encode())

    def digests(self) -> dict:
        return {os.path.basename(p): f.digest for p, f in self.forms.items()}


def _pairs(m: np.ndarray) -> list:
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _bcs_regime_deltas(rng, per_regime: int) -> dict:
    """Gap values well inside each kappa = 0 regime (PD, SNP, UC)."""
    return {
        "pd": rng.uniform(0.1, 0.9, per_regime),
        "snp": rng.uniform(0.96, 0.99, per_regime),
        "uc": rng.uniform(1.02, 1.5, per_regime),
    }


def _analyze(path, emit=False) -> Op:
    argv = ["analyze", path] + (["--emit-modes"] if emit else [])
    return Op(argv, 0, "analyze", {"form": path, "emit": emit})


# ---------------------------------------------------------------------------
# analyze-mix

def analyze_mix(fx: Fixtures, tiny: bool) -> list:
    rng = fx.rng
    ops = []
    # (n, forms per regime); n = 256 is PD only: one op there costs ~3.5 s
    sizes = [(2, 2), (8, 1)] if tiny else [(2, 12), (8, 12), (32, 6), (64, 1), (128, 1)]
    emit = []
    for n, count in sizes:
        for i in range(count):
            for kind in ("pd", "indefinite"):
                path = fx.random(f"r{n}{kind[0]}{i}", n, kind)
                ops.append(_analyze(path))
                if (n <= 8 and i < (1 if tiny else 2)) or (n == 32 and i == 0 and kind == "pd"):
                    emit.append(path)
    if not tiny:
        ops.append(_analyze(fx.random("r256p0", 256, "pd")))
    # --emit-modes output grows as n^3 (11.7 MB of JSON at n = 32), so these
    # ops stop at n = 32
    for path in emit:
        ops.append(_analyze(path, emit=True))

    regimes = _bcs_regime_deltas(rng, 1 if tiny else 3)
    bcs_emit = []
    for regime, deltas in regimes.items():
        for i, d in enumerate(deltas):
            path = fx.bcs(f"bcs_{regime}{i}", float(d))
            ops.append(_analyze(path))
            bcs_emit.append(path)
    ops.append(_analyze(fx.bcs("bcs_jordan", EPS)))
    for k in (NEAR_JORDAN_EXPONENTS[:2] if tiny else NEAR_JORDAN_EXPONENTS):
        for sign, tag in ((1.0, "p"), (-1.0, "m")):
            path = fx.bcs(f"bcs_near{tag}{k}", EPS + sign * 10.0 ** -k)
            ops.append(_analyze(path))
            if k in EMIT_NEAR_JORDAN_EXPONENTS:
                bcs_emit.append(path)
    for path in bcs_emit:
        ops.append(_analyze(path, emit=True))

    # documented error exits: malformed file (3), non-hermitian A (4)
    ops.append(Op(["analyze", fx.raw("bad_json", '{"n_modes": 2, "A": [[')],
                  3, "error"))
    a = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
    ops.append(Op(["analyze", fx.form("bad_herm", a, np.zeros((2, 2), complex), "bad")],
                  4, "error"))
    return ops


# ---------------------------------------------------------------------------
# sweep-grid

def _grid(lo, hi, steps) -> str:
    return f"{lo!r}:{hi!r}:{steps}"


def _sweep(delta: str, kappa: str = "0.0", jobs: int = 1) -> Op:
    argv = ["sweep", "--delta", delta, "--kappa", kappa]
    if jobs > 1:
        argv += ["--jobs", str(jobs)]
    return Op(argv, 0, "sweep", {"delta": delta, "kappa": kappa})


def _bcs_sweep(delta: str, kappa: float = 0.0) -> Op:
    argv = ["bcs", "--sweep", delta, "--kappa", repr(kappa)]
    return Op(argv, 0, "bcs_sweep", {"delta": delta, "kappa": kappa})


def sweep_grid(fx: Fixtures, tiny: bool) -> list:
    rng = fx.rng

    def jit(x, width=0.005):
        """Seeded end point near x: the same regimes in the same shares."""
        return float(x + rng.uniform(-width, width))

    def grid(lo, hi, steps):
        return _grid(jit(lo), jit(hi), steps)

    kap = repr(REENTRY_KAPPA)
    # small 1-D grids over four fixed windows, kappa = 0 and 0.05
    windows = [(0.01, 0.5), (0.5, 0.95), (0.9, 1.1), (1.1, 1.5)]
    ops = [_sweep(grid(*windows[i % 4], 21), "0.0" if i % 8 < 4 else kap)
           for i in range(4 if tiny else 16)]
    if tiny:
        ops.append(_sweep(ops[0].ref["delta"], ops[0].ref["kappa"], jobs=2))
        ops[-1].ref["twin"] = 0
        ops.append(_bcs_sweep(grid(0.01, 1.5, 11)))
        ops.append(_sweep(grid(0.9, 1.1, 5), grid(0.01, 0.1, 3)))
        ops.append(Op(["sweep", "--delta", "1.5:0.0:11"], 2, "error"))
        return ops
    # medium 1-D grids over the whole range and the reentry region
    for _ in range(4):
        ops.append(_sweep(grid(0.01, 1.45, 61)))
        ops.append(_sweep(grid(0.8, 1.2, 61), kap))
        ops.append(_bcs_sweep(grid(0.01, 1.45, 61)))
    # dense band around the kappa = 0 Jordan point delta = eps
    for _ in range(4):
        w = jit(1e-3, 1e-4)
        ops.append(_sweep(_grid(EPS - w, EPS + w, 101)))
    # 2-D delta x kappa grids across the kappa where the reentry window closes
    for _ in range(3):
        ops.append(_sweep(grid(0.85, 1.15, 9), grid(0.01, 0.12, 9)))
    # large 1-D grids, two of them repeated with --jobs 2
    large = []
    for _ in range(2):
        large.append(_sweep(grid(0.01, 1.45, 151)))
        large.append(_sweep(grid(0.8, 1.2, 151), kap))
        large.append(_bcs_sweep(grid(0.01, 1.45, 151)))
    ops.extend(large)
    for base in large[:2]:
        ops.append(_sweep(base.ref["delta"], base.ref["kappa"], jobs=2))
        ops[-1].ref["twin"] = ops.index(base)
    # documented error exit: inverted range (2)
    ops.append(Op(["sweep", "--delta", "1.5:0.0:11"], 2, "error"))
    return ops


# ---------------------------------------------------------------------------
# evolve-trace

def _hnorm(form: Form) -> float:
    h = np.block([[form.A, form.B], [form.B.conj(), form.A.T]])
    return float(np.abs(np.linalg.eigvalsh(h)).max())


def _evolve(fx: Fixtures, path: str, steps: int, complex_time: bool) -> Op:
    """evolve over t in [0, 10]; a complex-time probe adds i s with
    ||Hmat|| s = 5, so the propagator grows by about e^5."""
    argv = ["evolve", path, "--t", _grid(0.0, 10.0, steps)]
    shift = 0.0
    if complex_time:
        shift = round(5.0 / _hnorm(fx.forms[path]), 3)
        argv += ["--complex-time", repr(shift)]
    return Op(argv, 0, "evolve", {"form": path, "t": (0.0, 10.0, steps), "shift": shift})


def evolve_trace(fx: Fixtures, tiny: bool) -> list:
    rng = fx.rng
    ops = []
    if not tiny:
        # the slowest tenth of the ops: p90 falls inside this group
        pd32 = fx.random("r32p0", 32, "pd")
        ops.append(_evolve(fx, pd32, 201, False))
        ops.append(_evolve(fx, pd32, 101, True))
        for i in range(2):
            ops.append(_evolve(fx, fx.random(f"r32i{i}", 32, "indefinite"), 101, False))
    for i in range(1 if tiny else 3):
        pd8 = fx.random(f"r8p{i}", 8, "pd")
        ops.append(_evolve(fx, pd8, 101, False))
        ops.append(_evolve(fx, pd8, 101, True))
        ops.append(_evolve(fx, fx.random(f"r8i{i}", 8, "indefinite"), 201 if i else 101, False))
    # BCS forms in every regime; the Jordan form delta = eps is defective
    for regime, deltas in _bcs_regime_deltas(rng, 1 if tiny else 2).items():
        for i, d in enumerate(deltas):
            path = fx.bcs(f"bcs_{regime}{i}", float(d))
            ops.append(_evolve(fx, path, 201, False))
            ops.append(_evolve(fx, path, 101, True))
    jordan = fx.bcs("bcs_jordan", EPS)
    for _ in range(1 if tiny else 2):
        ops.append(_evolve(fx, jordan, 201, False))
        ops.append(_evolve(fx, jordan, 101, True))
    if not tiny:
        for sign, tag in ((1.0, "p"), (-1.0, "m")):
            ops.append(_evolve(fx, fx.bcs(f"bcs_near{tag}6", EPS + sign * 1e-6), 101, False))
    return ops


# ---------------------------------------------------------------------------
# oracle-fock

def _oracle(path: str, nmax: int, levels: int) -> Op:
    argv = ["oracle", "--input", path, "--nmax", str(nmax), "--levels", str(levels)]
    return Op(argv, 0, "oracle", {"form": path, "nmax": nmax, "levels": levels})


def oracle_fock(fx: Fixtures, tiny: bool) -> list:
    """PD forms only.  The check compares the k lowest lattice levels of
    total occupation <= nmax // 2 with the k lowest truncated levels, so k
    must stay below the first excluded occupation; with frequency ratios
    below 2.3 (A in [1, 2], pairing 0.3) that holds for k <= 8 at n = 2,
    nmax >= 8; k <= 4 at n = 3, nmax = 5; k <= 6 at n = 3, nmax 6 and 7.
    """
    ops = []
    two = [fx.random(f"r2p{i}", 2, "pd", pairing=0.3) for i in range(2 if tiny else 6)]
    if tiny:
        ops += [_oracle(two[0], 8, 4), _oracle(two[1], 9, 8)]
        ops.append(_oracle(fx.random("r3p0", 3, "pd", pairing=0.3), 5, 4))
    else:
        for i, nmax in enumerate(range(8, 21)):
            ops.append(_oracle(two[i % len(two)], nmax, 6))
        for i, path in enumerate(two):
            for nmax in (8, 9, 10):
                ops.append(_oracle(path, nmax, 4 + (i + nmax) % 5))
        for i, nmax in enumerate((5, 6, 7)):
            ops.append(_oracle(fx.random(f"r3p{i}", 3, "pd", pairing=0.3), nmax,
                               4 if nmax == 5 else 6))
    # documented error exit: indefinite form has no lattice to compare (5)
    ops.append(Op(["oracle", "--input", fx.random("r2i0", 2, "indefinite"), "--nmax", "8"],
                  5, "error"))
    return ops


BUILDERS = {
    "analyze-mix": analyze_mix,
    "sweep-grid": sweep_grid,
    "evolve-trace": evolve_trace,
    "oracle-fock": oracle_fock,
}


def build(workload: str, seed: int, root: str, tiny: bool = False):
    """Write the workload's fixtures under ``root``; return (ops, fixtures)."""
    fx = Fixtures(root, seed)
    ops = BUILDERS[workload](fx, tiny)
    return ops, fx


def known_defect_ops(workload: str, fx: Fixtures) -> list:
    """Ops that fail today on inputs the timed ops leave out; each run
    records their check failures so the defects stay visible."""
    ops = []
    if workload == "analyze-mix":
        # emit-modes exits 5 on diagonalizable near-Jordan forms
        for k in KNOWN_DEFECT_EXPONENTS:
            for sign, tag in ((1.0, "p"), (-1.0, "m")):
                ops.append(_analyze(fx.bcs(f"defect_{tag}{k}", EPS + sign * 10.0 ** -k),
                                    emit=True))
    elif workload == "oracle-fock":
        # frequencies (1, 1.5, 2.2): the 3-quantum level 3.0 lies below the
        # 8th lattice level 3.2 of occupation <= 2, so levels get misaligned
        a = np.diag([1.0, 1.5, 2.2]).astype(complex)
        path = fx.form("defect_levels", a, np.zeros((3, 3), complex), "pd")
        ops.append(_oracle(path, 5, 8))
    return ops
