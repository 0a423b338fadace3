"""Exact propagators, growth classification, and an ODE cross-check.

The Heisenberg evolution of the operator vector is Z(t) = U(t) Z(0) with
U(t) = exp(-i (M Hmat) t), computed by scaling-and-squaring (works for
defective generators, unlike spectral methods).  U satisfies the metric
identity U M Ubar = M at every complex time; it additionally equals a
standard Bogoliubov transform (Ubar = U+) only for real t.

A time grid runs in stacks: each stack of times runs the compiled Padé
kernels of ``scipy.linalg.expm`` per time, then one stacked matmul per
squaring level, one for the residuals and one 2-norm call, and every time
gets the bits of its own single-time ``expm`` computation, since each
kernel runs the same code on every matrix of a stack.  ``propagate`` is the
one-time case.  The propagators and ``ode_cross_check`` take the form and
read its ``generator``.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import QuadraticForm, _metric_defect, bar
from .errors import Overflow, StepTooLarge
from .spectral import BogoliubovTransform, StabilityReport

# fail loudly instead of returning Inf-contaminated matrices
_ENTRY_GUARD = 1e100
# 1/u, u = 2^-53 the unit roundoff: from ||t M Hmat||_1 = 1/u on, expm
# resolves no digit of U
_RESOLUTION_CUT = 2.0 ** 53
# Bytes of U per stack of times: a whole grid of up to 1024 times fits in one
# stack at n = 2, a stack holds 4 times at n = 32.
_STACK_BYTES = 256 * 1024


@dataclass(frozen=True)
class Propagator:
    """U(t) together with its structural residuals.

    ``symplectic_residual`` (||U M Ubar - M||, 2-norm) must be small at any
    time; ``adjoint_residual`` (||Ubar - U+||) is small only for real t.
    """

    t: complex
    U: np.ndarray
    symplectic_residual: float

    @property
    def adjoint_residual(self) -> float:
        """||Ubar - U+|| (2-norm), computed on access."""
        return float(np.linalg.norm(bar(self.U) - self.U.conj().T, 2))


class GrowthKind(str, Enum):
    QUASIPERIODIC = "Quasiperiodic"
    POLYNOMIAL_TIMES_OSCILLATION = "PolynomialTimesOscillation"
    EXPONENTIAL = "Exponential"


@dataclass(frozen=True)
class GrowthClass:
    """Long-time behavior of ||U(t)||.

    ``rate`` is max |Im lambda| (exponential growth exponent);
    ``poly_degree`` is the largest Jordan block size minus one (secular
    power of t multiplying the oscillations).
    """

    kind: GrowthKind
    rate: float
    poly_degree: int


@dataclass(frozen=True)
class PropagatorStack:
    """U(t) at a stack of k times, shape (k, 2n, 2n), with the largest entry
    magnitude max |U(t)| and ``symplectic_residual`` ||U M Ubar - M||
    (2-norm) of each time."""

    U: np.ndarray
    max_abs: np.ndarray
    symplectic_residual: np.ndarray


def _expm_stack(a: np.ndarray) -> np.ndarray:
    """``scipy.linalg.expm`` of a (k, N, N) complex stack, bit for bit.

    A slice with nonzero entries both below and above its diagonal runs the
    statements expm itself runs for it: the compiled ``pick_pade_structure``
    and ``pade_UV_calc`` on one reused (5, N, N) workspace, then ``s``
    squarings with ``@``.  That skips expm's per-slice ``bandwidth`` call
    and its batch wrapper.  The squarings run level by level: one stacked
    matmul of the whole stack while every slice needs one more, then of the
    slices that do.  A stacked matmul runs on each slice the gemm its own
    2-D ``@`` runs.  Every other slice goes through expm itself.  For a
    form's generator times t those are t = 0 and diagonal generators
    (B = 0 with a diagonal A); a triangular slice reaches this only through
    a direct call.  A scipy without these private kernels runs the whole
    stack through expm, the statements this loop copies, so the bits are
    the same.
    """
    from scipy.linalg import expm

    try:
        from scipy.linalg._matfuncs_expm import pade_UV_calc, pick_pade_structure
    except ImportError:
        return expm(a)

    size = a.shape[-1]
    nonzero = a != 0
    below = np.tril(np.ones((size, size), dtype=bool), -1)
    mixed = (nonzero & below).any(axis=(1, 2)) & (nonzero & below.T).any(axis=(1, 2))
    out = np.empty_like(a)
    if not mixed.all():
        out[~mixed] = expm(a[~mixed])
    squarings = np.zeros(len(a), dtype=int)
    am = np.empty((5, size, size), dtype=a.dtype)
    for k in np.flatnonzero(mixed).tolist():
        am[0] = a[k]
        m, s = pick_pade_structure(am)
        if m < 0:
            raise MemoryError("scipy.linalg.expm could not allocate sufficient memory "
                              f"while trying to compute the Pade structure (error code {m}).")
        info = pade_UV_calc(am, m)
        if info != 0:
            raise (MemoryError if info <= -11 else RuntimeError)(
                f"scipy.linalg.expm failed computing the exponential (error code {info}).")
        out[k] = am[0]
        squarings[k] = s
    for level in range(squarings.max(initial=0)):
        deeper = squarings > level
        if deeper.all():  # no gather and scatter copies, a tenth of a 64 x 64 stack's expm
            out = out @ out
        else:
            w = out[deeper]
            out[deeper] = w @ w
    return out


def propagate_stack(form: QuadraticForm, times: Sequence) -> PropagatorStack:
    """Exact propagators U(t) = exp(-i (M Hmat) t) of a form at a stack of
    real or complex times, from its ``generator``, through
    :func:`_expm_stack`, one matmul and one 2-norm call.

    Raises
    ------
    Overflow
        At the first time, in stack order, where ||t M Hmat||_1 reaches
        2^53 = 1/u (the exponential's condition number is |t| ||M Hmat||, so
        no digit of U is correct there, and ``expm`` does not run), an entry
        of U exceeds 1e100 in magnitude (strong instability at large |t|),
        or ``expm`` returned a non-finite entry.  Nothing is silently
        saturated, and no residual is computed.
    """
    generator = form.generator
    with np.errstate(over="ignore"):  # an infinite size is past the cut
        sizes = np.abs(np.asarray(times, dtype=complex)) * np.linalg.norm(generator, 1)
    cut = np.flatnonzero(sizes >= _RESOLUTION_CUT)
    stop = cut[0] if cut.size else len(sizes)
    scales = -1j * np.asarray(times[:stop], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # the guard below reports it
        u = _expm_stack(scales[:, None, None] * generator)
    peaks = np.abs(u).max(axis=(1, 2))
    over = np.flatnonzero(~(peaks <= _ENTRY_GUARD))  # NaN included
    if over.size:
        i = over[0]
        if np.isfinite(peaks[i]):
            raise Overflow(
                f"propagator entries reach {peaks[i]:.3e} at t={times[i]}; "
                f"the guard is {_ENTRY_GUARD:.0e}"
            )
        raise Overflow(
            f"expm gave non-finite propagator entries at t={times[i]}, "
            f"where ||t M Hmat||_1 = {sizes[i]:.3e}"
        )
    if cut.size:
        raise Overflow(
            f"||t M Hmat||_1 = {sizes[stop]:.3e} at t={times[stop]} reaches 2^53 = 1/u, "
            "where expm resolves no digit of U"
        )
    return PropagatorStack(u, peaks, _metric_defect(u))


def propagate_grid(form: QuadraticForm, times: Sequence) -> Iterator[PropagatorStack]:
    """``propagate_stack`` over a time grid, in grid order, in stacks of at
    most 256 KiB of U, so memory stays bounded whatever the grid length.

    Raises ``Overflow`` at the first time past the resolution cut or over
    the guard, in grid order.
    """
    per = max(1, _STACK_BYTES // (16 * (2 * form.n_modes) ** 2))
    for start in range(0, len(times), per):
        yield propagate_stack(form, times[start:start + per])


def propagate(form: QuadraticForm, t: complex) -> Propagator:
    """Exact propagator U(t) = exp(-i (M Hmat) t) at a real or complex time:
    the one-time case of :func:`propagate_stack`.

    Raises
    ------
    Overflow
        ||t M Hmat||_1 reaches 2^53, where no digit of U is correct, or an
        entry exceeds 1e100 in magnitude (strong instability at large |t|);
        nothing is silently saturated.
    """
    stack = propagate_stack(form, [t])
    return Propagator(complex(t), stack.U[0], float(stack.symplectic_residual[0]))


def mode_evolution(bt: BogoliubovTransform, t: complex) -> np.ndarray:
    """Per-mode phase factors (e^{-i lambda_i t}, e^{+i lambda_i t}).

    In the diagonal representation every mode evolves by a pure phase,
    b'_i(t) = e^{-i lambda_i t} b'_i(0); unimodular for real frequencies,
    exponentially growing/decaying for complex ones.  Conjugating the full
    propagator by the transform reproduces these on the diagonal.
    """
    phases = np.exp(-1j * bt.report.mode_frequencies * complex(t))
    return np.stack([phases, 1.0 / phases], axis=1)


def growth_class(report: StabilityReport) -> GrowthClass:
    """||U(t)|| growth from the spectrum and Jordan blocks in ``report``, a form's classify."""
    rate = max((abs(c.value.imag) for c in report.clusters), default=0.0)
    poly = max((c.max_block - 1 for c in report.defects), default=0)
    if rate > report.real_tol:
        kind = GrowthKind.EXPONENTIAL
    else:
        kind = GrowthKind.POLYNOMIAL_TIMES_OSCILLATION if poly >= 1 else GrowthKind.QUASIPERIODIC
        rate = 0.0
    return GrowthClass(kind, float(rate), int(poly))


def ode_cross_check(form: QuadraticForm, t: float, steps: int) -> float:
    """Integrate dU/dt = -i (M Hmat) U with classical RK4 and compare to :func:`propagate`.

    Returns ||U_ode - U_exp|| (2-norm).  This is a deliberately independent
    route: no eigensolve, no Pade machinery, just fixed-step integration,
    so agreement validates the exponential even in defective cases.

    Parameters
    ----------
    t : float
        Real final time.
    steps : int
        Number of RK4 steps (>= 1); global error scales like (t/steps)^4.

    Raises ``ValueError`` for a complex time or fewer than one step,
    ``Overflow`` from :func:`propagate`, before any step, where the exact U
    has no correct digit or an entry above 1e100, and ``StepTooLarge`` where
    the RK4 iterate leaves the float range.
    """
    if isinstance(t, complex) and t.imag != 0:
        raise ValueError("ode_cross_check integrates along real time only")
    t = float(np.real(t))
    steps = int(steps)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    gen = -1j * form.generator
    exact = propagate(form, t).U
    h = t / steps
    u = np.eye(gen.shape[0], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging iterate is refused below
        for _ in range(steps):
            k1 = gen @ u
            k2 = gen @ (u + 0.5 * h * k1)
            k3 = gen @ (u + 0.5 * h * k2)
            k4 = gen @ (u + h * k3)
            u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(u).all():
        raise StepTooLarge(f"{steps} RK4 steps of size {h:.3e} leave the float range")
    return float(np.linalg.norm(u - exact, 2))
