"""Output checks for benchmark ops, against references the benchmark computes.

The references use numpy and closed forms only, never the package under
test, so a refactor of the package cannot move its own yardstick:

* BCS forms, kappa = 0: lambda_nu = nu gamma + sqrt(eps^2 - delta^2)
  (principal branch), the closed form ``quadboson.bcs.bcs_lambda`` gives.
* BCS forms, kappa != 0: the closed-form frequencies of
  ``bcs_lambda_formula``; the outer reentry edge by bisection on them.
* positive definite random forms: the spectrum of the hermitian matrix
  sqrt(Hmat) M sqrt(Hmat), the construction of ``sqrt_metric_spectrum``.
* indefinite random forms: ``numpy.linalg.eigvals`` of M Hmat.  Their
  fixtures are generated from the seed, so no value recorded at one commit
  could cover every seed; the direct eigensolve is the reference instead.

Tolerances (all relative to s = max(1, ||Hmat||_2) unless noted):

FREQ_TOL = 1e-6
    At a 2x2 Jordan block a backward-stable eigensolver moves eigenvalues by
    about sqrt(u) s = 1.5e-8 s, and merging eigenvalues closer than the
    pipeline's cluster radius (32 sqrt(u) s = 4.8e-7 s) moves a reported
    frequency by at most half that radius.  1e-6 covers both, and is still
    far below the 1e-3 s and larger gaps that a wrong pairing, a wrong
    representative sign or a wrong branch would produce on these fixtures.
SIGMA_TOL = 1e-9
    Hermitian eigenvalues (h_eigenvalues, min_sigma) are accurate to u s.
SYMPLECTIC_TOL = 1e-9, relative to max(1, max|U_ij|)^2
    The metric defect of a computed propagator is roundoff of order
    u ||U||^2; we observe below 1e-13 relative.  A broken identity is O(1).
PROPAGATOR_TOL = 1e-6, relative to max(1, max|U_ij|)
    max|U_ij| is compared with scipy's expm of -i M Hmat t on every tenth
    time point.  Two sound propagators differ by about u kappa ||H t||
    (kappa the condition number of the eigenvectors), far below 1e-6 here;
    an error of 1e-4 in t or in the generator shows.
ORACLE_TOL = 1e-2, absolute
    Truncation, not arithmetic, limits the Fock comparison; on these
    fixtures (frequencies near [1, 2], pairing 0.3, the level counts of
    workloads.oracle_fock) it stays below 1e-3, while a missing or extra
    level moves a value by a frequency.
THRESHOLD_MARGIN = 1e-7, absolute in delta
    Class codes are checked only farther than this from a regime edge,
    where the splitting that decides the regime is at least
    sqrt(2e-7) ~ 4e-4, far above FREQ_TOL.  Closer points are where the
    pipeline's Jordan-point tolerances decide; delta = eps exactly is
    checked (class 3).
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

from workloads import EPS, GAMMA, POSITIVITY

FREQ_TOL = 1e-6
SIGMA_TOL = 1e-9
SYMPLECTIC_TOL = 1e-9
PROPAGATOR_TOL = 1e-6
ORACLE_TOL = 1e-2
THRESHOLD_MARGIN = 1e-7

CLASS_CODES = {"PositiveDefinite": 0, "StableNonPositive": 1,
               "UnstableComplex": 2, "NonDiagonalizable": 3}


# ---------------------------------------------------------------------------
# closed forms for the BCS model

def bcs_freqs(delta: float, kappa: float) -> np.ndarray:
    """Representatives (lambda_plus, lambda_minus); signs are meaningful
    only for kappa = 0."""
    if kappa == 0.0:
        alpha = complex(np.sqrt(complex(EPS ** 2 - delta ** 2)))
        return np.array([GAMMA + alpha, -GAMMA + alpha])
    dc2 = EPS ** 2 * (1.0 + kappa ** 2 / GAMMA ** 2)
    shift = kappa ** 2 * (EPS ** 2 / GAMMA ** 2 - 1.0)
    out = []
    for nu in (1.0, -1.0):
        lt = nu * GAMMA + np.sqrt(complex(dc2 - delta ** 2))
        out.append(complex(np.sqrt(lt * lt - shift)))
    return np.array(out)


def bcs_sigma(delta: float, kappa: float) -> np.ndarray:
    """All four eigenvalues of Hmat, ascending."""
    vals = [EPS + nu * math.hypot(GAMMA, delta + s * kappa)
            for nu in (1.0, -1.0) for s in (1.0, -1.0)]
    return np.sort(vals)


def _max_im(delta: float, kappa: float) -> float:
    return float(np.abs(bcs_freqs(delta, kappa).imag).max())


_OUTER = {}


def reentry_outer(kappa: float):
    """Upper edge of the kappa != 0 reentry window, or None without a window."""
    if kappa in _OUTER:
        return _OUTER[kappa]
    edge = None
    if 0.0 < abs(kappa) < GAMMA ** 2 / POSITIVITY:
        lo = POSITIVITY + abs(kappa) + 1e-9
        hi = lo + 0.01
        while _max_im(hi, kappa) <= 1e-10:
            hi += 0.05
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if _max_im(mid, kappa) > 1e-10:
                hi = mid
            else:
                lo = mid
        edge = 0.5 * (lo + hi)
    _OUTER[kappa] = edge
    return edge


def bcs_class(delta: float, kappa: float):
    """Closed-form regime code, or None within THRESHOLD_MARGIN of an edge."""
    if kappa == 0.0:
        if delta == EPS:
            return 3
        edges = [(POSITIVITY, 0), (EPS, 1), (math.inf, 2)]
    else:
        onset = POSITIVITY - abs(kappa)
        inner = POSITIVITY + abs(kappa)
        outer = reentry_outer(kappa)
        edges = [(onset, 0), (inner, 2)]
        edges += [(outer, 1), (math.inf, 2)] if outer is not None else [(math.inf, 2)]
    for edge, code in edges:
        if abs(delta - edge) < THRESHOLD_MARGIN:
            return None
        if delta < edge:
            return code
    return None


# ---------------------------------------------------------------------------
# per-form references

class FormRef:
    """Reference spectrum of one fixture form.

    ``reps``: frequency representatives with meaningful signs, or None.
    ``spectrum``: all 2n eigenvalues of M Hmat.
    ``expected``: class code, or None where the check is skipped.
    """

    def __init__(self, form):
        a, b = form.A, form.B
        n = a.shape[0]
        h = np.block([[a, b], [b.conj(), a.T]])
        w, v = np.linalg.eigh(h)
        self.n = n
        self.h_eigs = w
        self.scale = max(1.0, float(np.abs(w).max()))
        self.reps = None
        self.expected = None
        self.generator = h.copy()
        self.generator[n:] *= -1.0
        if form.kind == "bcs":
            freqs = bcs_freqs(form.delta, form.kappa)
            self.spectrum = np.concatenate([freqs, -freqs])
            self.h_eigs = bcs_sigma(form.delta, form.kappa)
            self.expected = bcs_class(form.delta, form.kappa)
            if form.kappa == 0.0:
                self.reps = freqs
        elif form.kind == "pd":
            root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
            mdiag = np.concatenate([np.ones(n), -np.ones(n)])
            sandwich = root @ (mdiag[:, None] * root)
            spec = np.linalg.eigvalsh(0.5 * (sandwich + sandwich.conj().T))
            self.spectrum = spec.astype(complex)
            self.reps = np.sort(spec)[n:].astype(complex)
            self.expected = 0
        else:
            self.spectrum = np.linalg.eigvals(self.generator)
            if np.abs(self.spectrum.imag).max() > 1e-4 * self.scale:
                self.expected = 2

    @property
    def tol(self) -> float:
        return FREQ_TOL * self.scale

    def mode_growth(self) -> np.ndarray:
        """|Im lambda| per mode: every mode contributes lambda and -lambda."""
        return np.sort(np.abs(self.spectrum.imag))[::2]


def _match(got, want) -> float:
    """Largest distance in the best one-to-one matching of two value sets."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.size != want.size:
        return math.inf
    if got.size == 0:
        return 0.0
    cost = np.abs(got[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def check_frequencies(ref: FormRef, freqs, code, what: str) -> list:
    """Representatives where their signs are defined; the +/- spectrum at a
    Jordan block (class 3), where no generalized norm fixes a sign."""
    freqs = np.asarray(freqs, dtype=complex)
    if ref.reps is not None and code != 3:
        err = _match(freqs, ref.reps)
    else:
        err = _match(np.concatenate([freqs, -freqs]), ref.spectrum)
    if not err <= ref.tol:
        return [f"{what}: frequencies miss the reference by {err:.3e} (tol {ref.tol:.1e})"]
    return []


def check_class(ref: FormRef, code, what: str) -> list:
    if ref.expected is not None and code != ref.expected:
        return [f"{what}: class {code}, closed form gives {ref.expected}"]
    return []


# ---------------------------------------------------------------------------
# output checks, one per op kind

class Checker:
    def __init__(self, fixtures):
        self.fixtures = fixtures
        self._refs = {}

    def ref(self, path) -> FormRef:
        if path not in self._refs:
            self._refs[path] = FormRef(self.fixtures.forms[path])
        return self._refs[path]

    def check(self, op, rc: int, out: str) -> list:
        """Failure messages for one op's exit code and stdout; [] if it passes."""
        what = " ".join(op.argv[:1] + [a.rsplit("/", 1)[-1] for a in op.argv[1:]])
        if rc != op.rc:
            return [f"{what}: exit code {rc}, documented {op.rc}"]
        try:
            return getattr(self, "_" + op.check)(op, out, what)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"{what}: unreadable output ({type(exc).__name__}: {exc})"]

    def _none(self, op, out, what):
        return []

    def _error(self, op, out, what):
        return [f"{what}: error exit wrote to stdout"] if out else []

    def _analyze(self, op, out, what):
        form = self.fixtures.forms[op.ref["form"]]
        ref = self.ref(op.ref["form"])
        doc = json.loads(out)
        fails = []
        if doc["n_modes"] != ref.n or doc["input_digest"] != form.digest:
            fails.append(f"{what}: n_modes or input_digest differ from the fixture")
        code = CLASS_CODES[doc["classification"]]
        freqs = [complex(re, im) for re, im in doc["mode_frequencies"]]
        fails += check_class(ref, code, what)
        fails += check_frequencies(ref, freqs, code, what)
        got = np.sort(np.asarray(doc["h_eigenvalues"], dtype=float))
        err = (float(np.abs(got - np.sort(ref.h_eigs)).max())
               if got.size == ref.h_eigs.size else math.inf)
        if not err <= SIGMA_TOL * ref.scale:
            fails.append(f"{what}: h_eigenvalues miss the reference by {err:.3e}")
        if op.ref["emit"] and doc["diagonalizable"]:
            lams = [complex(re, im) for re, im in doc["diagonal_form"]["lambdas"]]
            if lams != freqs or len(doc["invariants"]) != ref.n:
                fails.append(f"{what}: diagonal form disagrees with mode_frequencies")
        return fails

    def _sweep(self, op, out, what):
        lines = out.splitlines()
        if lines[0] != "epsilon,gamma,delta,kappa,class_code,max_im_lambda,min_sigma":
            return [f"{what}: unexpected header"]
        grid = _points(op.ref["delta"], op.ref["kappa"])
        rows = [line.split(",") for line in lines[1:]]
        if [(float(r[2]), float(r[3])) for r in rows] != grid:
            return [f"{what}: rows do not list the requested grid"]
        fails = []
        for r in rows:
            delta, kappa = float(r[2]), float(r[3])
            scale = float(bcs_sigma(delta, kappa).max())
            code = int(r[4])
            expected = bcs_class(delta, kappa)
            if expected is not None and code != expected:
                fails.append(f"{what}: delta={delta!r} kappa={kappa!r} class {code}, "
                             f"closed form gives {expected}")
            if not abs(float(r[5]) - _max_im(delta, kappa)) <= FREQ_TOL * scale:
                fails.append(f"{what}: delta={delta!r} kappa={kappa!r} max_im_lambda "
                             f"{r[5]} misses {_max_im(delta, kappa)!r}")
            if not abs(float(r[6]) - bcs_sigma(delta, kappa).min()) <= SIGMA_TOL * scale:
                fails.append(f"{what}: delta={delta!r} min_sigma {r[6]} is off")
        return fails[:5]

    def _bcs_sweep(self, op, out, what):
        lines = out.splitlines()
        if not lines[0].startswith("delta,class_code,lambda_plus_re"):
            return [f"{what}: unexpected header"]
        kappa = op.ref["kappa"]
        rows = [line.split(",") for line in lines[1:]]
        if [float(r[0]) for r in rows] != [d for d, _ in _points(op.ref["delta"], "0.0")]:
            return [f"{what}: rows do not list the requested grid"]
        fails = []
        for r in rows:
            delta = float(r[0])
            code = int(r[1])
            expected = bcs_class(delta, kappa)
            if expected is not None and code != expected:
                fails.append(f"{what}: delta={delta!r} class {code}, closed form gives {expected}")
            freqs = bcs_freqs(delta, kappa)
            got = [complex(float(r[2]), float(r[3])), complex(float(r[4]), float(r[5]))]
            scale = float(bcs_sigma(delta, kappa).max())
            if kappa == 0.0 and code != 3:
                err = _match(got, freqs)
            else:
                got = got + [-g for g in got]
                err = _match(got, np.concatenate([freqs, -freqs]))
            if not err <= FREQ_TOL * scale:
                fails.append(f"{what}: delta={delta!r} frequencies miss by {err:.3e}")
        return fails[:5]

    def _evolve(self, op, out, what):
        ref = self.ref(op.ref["form"])
        lo, hi, steps = op.ref["t"]
        shift = op.ref["shift"]
        lines = out.splitlines()
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        if [r[0] for r in rows] != np.linspace(lo, hi, steps).tolist() or any(
                r[1] != shift for r in rows):
            return [f"{what}: rows do not list the requested times"]
        fails = []
        for i, r in enumerate(rows):
            t = complex(r[0], r[1])
            max_u, resid, mags = r[2], r[3], np.array(r[4:])
            if not resid <= SYMPLECTIC_TOL * max(1.0, max_u) ** 2:
                fails.append(f"{what}: t={t} symplectic residual {resid:.3e}")
            if i % 10 == 0 or i == len(rows) - 1:
                want = float(np.abs(expm(-1j * t * ref.generator)).max())
                if not abs(max_u - want) <= PROPAGATOR_TOL * max(1.0, want):
                    fails.append(f"{what}: t={t} max_abs_u {max_u!r}, expm gives {want!r}")
            if mags.size != ref.n:
                return fails + [f"{what}: {mags.size} mode columns for {ref.n} modes"]
            slack = ref.tol * abs(t) + 1e-12
            logs = np.log(mags)
            if ref.reps is not None and ref.expected != 3:
                want = np.sort(np.log(np.abs(np.exp(-1j * ref.reps * t))))
                err = float(np.abs(np.sort(logs) - want).max())
            elif ref.reps is not None:
                cand = np.log(np.abs(np.exp(-1j * np.concatenate([ref.reps, -ref.reps]) * t)))
                err = float(max(np.abs(cand - x).min() for x in logs))
            elif shift == 0.0:
                err = float(np.abs(np.sort(logs) - np.sort(ref.mode_growth() * t.real)).max())
            else:
                return [f"{what}: no reference for complex times on this form"]
            if not err <= slack:
                fails.append(f"{what}: t={t} mode phase magnitudes miss by {err:.3e}")
        return fails[:5]

    def _oracle(self, op, out, what):
        ref = self.ref(op.ref["form"])
        nmax, levels = op.ref["nmax"], op.ref["levels"]
        lams = ref.reps.real
        budget = nmax // 2
        lattice = sorted(float(np.dot(lams, occ) + lams.sum() / 2.0)
                         for occ in itertools.product(range(budget + 1), repeat=ref.n)
                         if sum(occ) <= budget)
        lattice = lattice[:levels]
        lines = out.splitlines()
        if lines[0] != "level,predicted,observed,abs_deviation":
            return [f"{what}: unexpected header"]
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != len(lattice):
            return [f"{what}: {len(rows)} levels, expected {len(lattice)}"]
        fails = []
        for want, (level, pred, obs, dev) in zip(lattice, rows):
            pred, obs = float(pred), float(obs)
            if not abs(pred - want) <= ref.tol * (nmax + ref.n):
                fails.append(f"{what}: level {level} predicted {pred!r}, lattice {want!r}")
            if not abs(obs - pred) <= ORACLE_TOL:
                fails.append(f"{what}: level {level} observed {obs!r} vs predicted {pred!r}")
            if float(dev) != abs(pred - obs):
                fails.append(f"{what}: level {level} abs_deviation inconsistent")
        return fails


def _axis(spec: str):
    if ":" not in spec:
        return [float(spec)]
    lo, hi, steps = spec.split(":")
    return np.linspace(float(lo), float(hi), int(steps)).tolist()


def _points(delta: str, kappa: str):
    """Grid points in the CLI's order: delta outer, kappa inner."""
    return [(d, k) for d in _axis(delta) for k in _axis(kappa)]
