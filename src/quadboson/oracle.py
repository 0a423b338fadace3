"""Brute-force verification in a truncated occupation basis.

Independent of the spectral pipeline by design: ladder operators are built
as dense matrices with b|n> = sqrt(n)|n-1>, the form is assembled term by
term from (A, B), and the hermitian eigensolve of the result is compared
against the predicted mode lattice sum_i lambda_i (n_i + 1/2).  Useful for
positive definite forms only; indefinite ones have no spectrum bounded
from below and the truncated ground energy keeps sliding down as the
cutoff grows, which is itself a usable signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import QuadraticForm
from .errors import DimensionCap, WrongRegime
from .spectral import StabilityClass, Tolerances, classify

DEFAULT_DIM_CAP = 20000


def fock_operators(n_modes: int, n_max: int) -> list:
    """Dense annihilation matrices for each mode.

    Basis states are occupation tuples (n_1, ..., n_N), 0 <= n_i <= n_max,
    ordered lexicographically with n_1 most significant.
    """
    d = n_max + 1
    lower = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    eye = np.eye(d)
    ops = []
    for i in range(n_modes):
        mats = [eye] * n_modes
        mats[i] = lower
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        ops.append(out)
    return ops


def fock_vector_operator(row: np.ndarray, ops: list) -> np.ndarray:
    """Operator sum_k row[k] Z_k with Z = (b_1..b_n, b+_1..b+_n)."""
    n = len(ops)
    out = np.zeros_like(ops[0], dtype=complex)
    for k in range(n):
        out = out + row[k] * ops[k]
    for k in range(n):
        out = out + row[n + k] * ops[k].conj().T
    return out


@dataclass(frozen=True)
class FockTruncation:
    """Dense truncated Hamiltonian, dim = (n_max + 1)^n_modes."""

    n_modes: int
    n_max: int
    dim: int
    H_matrix: np.ndarray


def fock_hamiltonian(form: QuadraticForm, n_max: int,
                     dim_cap: int = DEFAULT_DIM_CAP) -> FockTruncation:
    """Assemble the truncated matrix of the form in the occupation basis.

    Raises
    ------
    DimensionCap
        (n_max + 1)^n_modes exceeds ``dim_cap``.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    dim = (n_max + 1) ** form.n_modes
    if dim > dim_cap:
        raise DimensionCap(
            f"truncated dimension {dim} exceeds the cap {dim_cap}"
        )
    ops = fock_operators(form.n_modes, n_max)
    h = np.zeros((dim, dim), dtype=complex)
    eye = np.eye(dim)
    for i in range(form.n_modes):
        bi_dag = ops[i].conj().T
        for j in range(form.n_modes):
            h += form.A[i, j] * (bi_dag @ ops[j] + (0.5 if i == j else 0.0) * eye)
            h += 0.5 * (form.B[i, j] * (bi_dag @ ops[j].conj().T)
                        + np.conj(form.B[i, j]) * (ops[i] @ ops[j]))
    return FockTruncation(form.n_modes, n_max, dim, h)


def fock_ground_energy(form: QuadraticForm, n_max: int,
                       dim_cap: int = DEFAULT_DIM_CAP) -> float:
    """Lowest eigenvalue of the truncated matrix."""
    trunc = fock_hamiltonian(form, n_max, dim_cap)
    return float(np.linalg.eigvalsh(trunc.H_matrix)[0])


def fock_ground_trend(form: QuadraticForm, n_max_list,
                      dim_cap: int = DEFAULT_DIM_CAP) -> list:
    """Ground energies across cutoffs; decreasing without bound flags an
    indefinite form, convergence from above a positive one."""
    return [fock_ground_energy(form, m, dim_cap) for m in n_max_list]


@dataclass(frozen=True)
class FockSpectrumReport:
    n_max: int
    predicted: np.ndarray
    observed: np.ndarray
    max_deviation: float
    ground_trend: list  # (n_max, energy) pairs, ascending cutoffs

    def to_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "predicted": [float(x) for x in self.predicted],
            "observed": [float(x) for x in self.observed],
            "max_deviation": self.max_deviation,
            "ground_trend": [[int(m), float(e)] for m, e in self.ground_trend],
        }


def fock_spectrum_check(form: QuadraticForm, n_max: int, k_levels: int,
                        tol: Tolerances = Tolerances(),
                        dim_cap: int = DEFAULT_DIM_CAP) -> FockSpectrumReport:
    """Compare the truncated spectrum against the mode lattice.

    Only lattice points with total occupation <= n_max / 2 enter the
    comparison, keeping clear of the cutoff boundary where truncation error
    concentrates.  Truncation, not arithmetic, dominates the deviation, so
    expect ~1e-3 agreement at moderate cutoffs rather than machine level.

    Raises
    ------
    WrongRegime
        The form is not positive definite; its truncated spectrum does not
        converge and a lattice comparison would be meaningless.
    """
    report = classify(form, tol)
    if report.classification is not StabilityClass.POSITIVE_DEFINITE:
        raise WrongRegime(
            f"form classifies as {report.classification.value}; the lattice "
            "comparison needs a positive definite form"
        )
    lams = report.mode_frequencies.real
    budget = n_max // 2
    energies = []
    for occ in product(range(budget + 1), repeat=form.n_modes):
        if sum(occ) <= budget:
            energies.append(float(np.dot(lams, occ) + lams.sum() / 2.0))
    predicted = np.sort(np.array(energies))
    k = min(k_levels, predicted.size)
    predicted = predicted[:k]
    levels = np.linalg.eigvalsh(fock_hamiltonian(form, n_max, dim_cap).H_matrix)
    observed = levels[:k]
    trend_cuts = sorted({min(max(2, n_max - d), n_max) for d in (4, 2, 0)})
    trend = [(m, float(levels[0]) if m == n_max else fock_ground_energy(form, m, dim_cap))
             for m in trend_cuts]
    return FockSpectrumReport(
        n_max=n_max,
        predicted=predicted,
        observed=observed,
        max_deviation=float(np.abs(predicted - observed).max()),
        ground_trend=trend,
    )
