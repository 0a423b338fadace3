"""Exact propagators, growth classification, and an ODE cross-check.

The Heisenberg evolution of the operator vector is Z(t) = U(t) Z(0) with
U(t) = exp(-i (M Hmat) t), computed by scaling-and-squaring (works for
defective generators, unlike spectral methods).  U satisfies the metric
identity U M Ubar = M at every complex time; it additionally equals a
standard Bogoliubov transform (Ubar = U+) only for real t.

A time grid runs in stacks: each stack of times goes through one call of
``expm``, of the matmul and of the 2-norm, and every time gets the bits of
its own single-time computation, since each kernel runs the same code on
every matrix of a stack.  ``propagate`` is the one-time case.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg as sla

from .core import DynamicalMatrix, bar, metric_signs
from .errors import Overflow, StepTooLarge
from .normal_modes import DiagonalForm
from .spectral import StabilityReport

# fail loudly instead of returning Inf-contaminated matrices
_ENTRY_GUARD = 1e100
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

    @property
    def n_modes(self) -> int:
        return self.U.shape[0] // 2


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


def propagate_stack(dyn: DynamicalMatrix, times: Sequence) -> PropagatorStack:
    """Exact propagators U(t) = exp(-i (M Hmat) t) at a stack of real or
    complex times, with one ``expm``, one matmul and one 2-norm call.

    Raises
    ------
    Overflow
        At the first time, in stack order, where an entry of U exceeds 1e100
        in magnitude or is not finite (strong instability at large |t|);
        nothing is silently saturated, and no residual is computed.
    """
    scales = -1j * np.asarray(times, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # the guard below reports it
        u = sla.expm(scales[:, None, None] * dyn.matrix)
    peaks = np.abs(u).max(axis=(1, 2))
    over = np.flatnonzero(~(peaks <= _ENTRY_GUARD))  # NaN included
    if over.size:
        i = over[0]
        raise Overflow(
            f"propagator entries reach {peaks[i]:.3e} at t={times[i]}; "
            f"the guard is {_ENTRY_GUARD:.0e}"
        )
    signs = metric_signs(dyn.n_modes)
    sym = np.linalg.norm((u * signs) @ bar(u) - np.diag(signs), 2, axis=(1, 2))
    return PropagatorStack(u, peaks, sym)


def propagate_grid(dyn: DynamicalMatrix, times: Sequence) -> Iterator[PropagatorStack]:
    """``propagate_stack`` over a time grid, in grid order, in stacks of at
    most 256 KiB of U, so memory stays bounded whatever the grid length.

    Raises ``Overflow`` at the first time over the guard, in grid order.
    """
    per = max(1, _STACK_BYTES // (16 * dyn.matrix.shape[0] ** 2))
    for start in range(0, len(times), per):
        yield propagate_stack(dyn, times[start:start + per])


def propagate(dyn: DynamicalMatrix, t: complex) -> Propagator:
    """Exact propagator U(t) = exp(-i (M Hmat) t) at a real or complex time:
    the one-time case of :func:`propagate_stack`.

    Raises
    ------
    Overflow
        Any entry exceeds 1e100 in magnitude (strong instability at large
        |t|); nothing is silently saturated.
    """
    stack = propagate_stack(dyn, [t])
    return Propagator(complex(t), stack.U[0], float(stack.symplectic_residual[0]))


def mode_evolution(df: DiagonalForm, t: complex) -> np.ndarray:
    """Per-mode phase factors (e^{-i lambda_i t}, e^{+i lambda_i t}).

    In the diagonal representation every mode evolves by a pure phase,
    b'_i(t) = e^{-i lambda_i t} b'_i(0); unimodular for real frequencies,
    exponentially growing/decaying for complex ones.  Conjugating the full
    propagator by the transform reproduces these on the diagonal.
    """
    phases = np.exp(-1j * np.asarray(df.lambdas) * complex(t))
    return np.stack([phases, 1.0 / phases], axis=1)


def growth_class(report: StabilityReport) -> GrowthClass:
    """||U(t)|| growth from the spectrum and Jordan blocks in ``report``, a form's classify."""
    diags = report.diagnostics
    rate = max((abs(c.value.imag) for c in diags.clusters), default=0.0)
    poly = max((c.max_block - 1 for c in diags.clusters if c.geometric < c.algebraic),
               default=0)
    if rate > diags.real_tol:
        kind = GrowthKind.EXPONENTIAL
    else:
        kind = GrowthKind.POLYNOMIAL_TIMES_OSCILLATION if poly >= 1 else GrowthKind.QUASIPERIODIC
        rate = 0.0
    return GrowthClass(kind, float(rate), int(poly))


def ode_cross_check(dyn: DynamicalMatrix, t: float, steps: int,
                    target: float | None = None) -> float:
    """Integrate dU/dt = -i (M Hmat) U with classical RK4 and compare to expm.

    Returns ||U_ode - U_exp|| (2-norm).  This is a deliberately independent
    route: no eigensolve, no Pade machinery, just fixed-step integration,
    so agreement validates the exponential even in defective cases.

    Parameters
    ----------
    t : float
        Real final time.
    steps : int
        Number of RK4 steps (>= 1); global error scales like (t/steps)^4.
    target : float, optional
        If given, raise StepTooLarge up front when the step-size error
        estimate cannot reach the target, with a suggested step count.
    """
    if isinstance(t, complex) and t.imag != 0:
        raise ValueError("ode_cross_check integrates along real time only")
    t = float(np.real(t))
    steps = int(steps)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    ht = dyn.matrix
    gen = -1j * ht
    if target is not None and t != 0.0:
        hnorm = np.linalg.norm(ht, 2)
        growth = np.exp(max(np.max(sla.eigvals(ht).imag), 0.0) * abs(t))
        est = abs(t) * (abs(t) * hnorm / steps) ** 4 * hnorm * growth / 30.0
        if est > target:
            need = int(np.ceil(abs(t) * hnorm * (abs(t) * hnorm * growth
                                                 / (30.0 * target)) ** 0.25))
            raise StepTooLarge(
                f"{steps} steps give an error estimate {est:.3e} above the "
                f"target {target:.3e}; use at least ~{need} steps"
            )
    h = t / steps
    u = np.eye(ht.shape[0], dtype=complex)
    for _ in range(steps):
        k1 = gen @ u
        k2 = gen @ (u + 0.5 * h * k1)
        k3 = gen @ (u + 0.5 * h * k2)
        k4 = gen @ (u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    exact = sla.expm(-1j * t * ht)
    return float(np.linalg.norm(u - exact, 2))
