"""Brute-force verification in a truncated occupation basis.

Independent of the spectral pipeline by design: the form is assembled term
by term from (A, B) in the occupation basis, with b|n> = sqrt(n)|n-1>, and
the hermitian eigensolve of the result is compared against the predicted
mode lattice sum_i lambda_i (n_i + 1/2).  Each quadratic term moves a basis
state to at most one other state, so its matrix elements are written
straight into the dense matrix by index arithmetic on the occupation
tuples; no ladder matrix or matrix product is formed.  Useful for positive
definite forms only; indefinite ones have no spectrum bounded from below
and the truncated ground energy keeps sliding down as the cutoff grows,
which is itself a usable signature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import numpy as np

from .core import MEMORY_BUDGET, QuadraticForm
from .errors import DimensionCap, WrongRegime
from .spectral import DEFAULT_TOL_EIG, StabilityClass, classify

# A dense complex H of dimension 8192 takes 16 * 8192**2 B = 1 GiB, the
# memory budget, and the hermitian eigensolve works on a second copy of it.
DEFAULT_DIM_CAP = math.isqrt(MEMORY_BUDGET // 16)


def _ladder_moves(n_max: int, n_modes: int) -> dict:
    """Action of b+_i and b_i on the basis, keyed by (i, +1) and (i, -1).

    Each entry holds, over all basis states, whether the move stays inside
    the truncation, the index of the target state and the factor sqrt(n)
    with n the larger of the two occupations of mode i.
    """
    states = np.arange((n_max + 1) ** n_modes)
    roots = np.sqrt(np.arange(n_max + 2.0))
    moves = {}
    for i in range(n_modes):
        stride = (n_max + 1) ** (n_modes - 1 - i)
        occ = states // stride % (n_max + 1)
        moves[i, 1] = (occ < n_max, states + stride, roots[occ + 1])
        moves[i, -1] = (occ > 0, states - stride, roots[occ])
    return moves


def _ladder_pair(moves: dict, i: int, di: int, j: int, dj: int):
    """Nonzero elements of the product L_i L_j of two ladder operators
    (d = +1 for b+, -1 for b) as row indices, column indices and values
    sqrt(p) * sqrt(q): the single nonzero term of the dense matrix product.
    """
    inside_j, target_j, root_j = moves[j, dj]
    inside_i, target_i, root_i = moves[i, di]
    cols = np.flatnonzero(inside_j)
    mid = target_j[cols]
    keep = inside_i[mid]
    cols, mid = cols[keep], mid[keep]
    return target_i[mid], cols, root_i[mid] * root_j[cols]


def fock_hamiltonian(form: QuadraticForm, n_max: int) -> np.ndarray:
    """The dense truncated matrix of the form in the occupation basis, of
    dimension dim = (n_max + 1)^n_modes and 16 dim^2 bytes.

    Basis states are occupation tuples (n_1, ..., n_N), 0 <= n_i <= n_max,
    ordered lexicographically with n_1 most significant.  Terms are added
    in (i, j) order, A_ij (b+_i b_j + delta_ij / 2) before
    (B_ij b+_i b+_j + conj(B_ij) b_i b_j) / 2, each element as
    coefficient * sqrt(p) * sqrt(q), so the matrix carries the same bits
    as the sum of dense ladder-matrix products.

    Raises
    ------
    DimensionCap
        (n_max + 1)^n_modes exceeds ``DEFAULT_DIM_CAP``; checked before
        allocating.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    n = form.n_modes
    dim = (n_max + 1) ** n
    if dim > DEFAULT_DIM_CAP:
        raise DimensionCap(
            f"truncated dimension {dim} ({16 * dim * dim} bytes dense) "
            f"exceeds the cap {DEFAULT_DIM_CAP}"
        )
    moves = _ladder_moves(n_max, n)
    diag = np.arange(dim) * (dim + 1)
    h = np.zeros(dim * dim, dtype=complex)
    for i in range(n):
        for j in range(n):
            rows, cols, x = _ladder_pair(moves, i, 1, j, -1)
            if i == j:
                number = np.zeros(dim)
                number[cols] = x
                h[diag] += form.A[i, j] * (number + 0.5)
            else:
                h[rows * dim + cols] += form.A[i, j] * x
            for sign, coef in ((1, form.B[i, j]), (-1, np.conj(form.B[i, j]))):
                rows, cols, x = _ladder_pair(moves, i, sign, j, sign)
                h[rows * dim + cols] += 0.5 * (coef * x)
    return h.reshape(dim, dim)


def fock_ground_energy(form: QuadraticForm, n_max: int) -> float:
    """Lowest eigenvalue of the truncated matrix."""
    return float(np.linalg.eigvalsh(fock_hamiltonian(form, n_max))[0])


def fock_ground_trend(form: QuadraticForm, n_max_list) -> list:
    """Ground energies across cutoffs; decreasing without bound flags an
    indefinite form, convergence from above a positive one."""
    return [fock_ground_energy(form, m) for m in n_max_list]


@dataclass(frozen=True)
class FockSpectrumReport:
    """Predicted and truncated levels of one check at cutoff ``n_max``.

    ``ground_trend`` lists (cutoff, ground energy) pairs, ascending cutoffs
    n_max - 4, n_max - 2 and n_max (at least 2, at most n_max).  It is
    computed on first access, reusing the n_max ground level and solving
    only the lower cutoffs; only ``to_dict`` (``--format doc``) reads it,
    so a CSV check builds and solves one Fock matrix.
    """

    n_max: int
    predicted: np.ndarray
    observed: np.ndarray
    max_deviation: float
    form: QuadraticForm = field(repr=False)

    @cached_property
    def ground_trend(self) -> list:
        cuts = sorted({min(max(2, self.n_max - d), self.n_max) for d in (4, 2, 0)})
        return [(m, float(self.observed[0]) if m == self.n_max
                 else fock_ground_energy(self.form, m)) for m in cuts]

    def to_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "predicted": [float(x) for x in self.predicted],
            "observed": [float(x) for x in self.observed],
            "max_deviation": self.max_deviation,
            "ground_trend": [[int(m), float(e)] for m, e in self.ground_trend],
        }


def fock_spectrum_check(form: QuadraticForm, n_max: int, k_levels: int,
                        tol_eig: float = DEFAULT_TOL_EIG) -> FockSpectrumReport:
    """Compare the truncated spectrum against the mode lattice.

    The prediction is the k lowest lattice levels sum_i lambda_i (n_i + 1/2)
    over all occupations, with k at most the number of lattice points of
    total occupation <= n_max / 2.  Every one of them must keep each n_i
    <= n_max / 2, clear of the cutoff boundary where truncation error
    concentrates; otherwise the truncated levels cannot be matched to the
    lattice one for one.  Truncation, not arithmetic, dominates the
    deviation, so expect ~1e-3 agreement at moderate cutoffs rather than
    machine level.

    Raises
    ------
    WrongRegime
        The form is not positive definite, so its truncated spectrum does
        not converge and a lattice comparison would be meaningless; or a
        compared level (ties at the k-th included) needs some n_i above
        n_max // 2.
    DimensionCap
        (n_max + 1)^n_modes exceeds ``DEFAULT_DIM_CAP``; checked before the
        lattice or the matrix is built.
    """
    if k_levels < 1:
        raise ValueError("k_levels must be >= 1")
    report = classify(form, tol_eig)
    if report.classification is not StabilityClass.POSITIVE_DEFINITE:
        raise WrongRegime(
            f"form classifies as {report.classification.value}; the lattice "
            "comparison needs a positive definite form"
        )
    h = fock_hamiltonian(form, n_max)  # checks the cap before allocating
    lams = report.mode_frequencies.real
    budget = n_max // 2
    # An occupation outside the box n_i <= budget + 1 lies above one inside
    # it that already needs n_i = budget + 1, so the box decides the refusal.
    energies, peaks, resolved = [], [], 0
    for occ in product(range(budget + 2), repeat=form.n_modes):
        energies.append(float(np.dot(lams, occ) + lams.sum() / 2.0))
        peaks.append(max(occ))
        resolved += sum(occ) <= budget
    energies, peaks = np.array(energies), np.array(peaks)
    predicted = np.sort(energies)[:min(k_levels, resolved)]
    if peaks[energies <= predicted[-1]].max() > budget:
        raise WrongRegime(
            f"the {predicted.size} lowest lattice levels include one with a mode "
            f"occupation above n_max // 2 = {budget}; the truncated levels would "
            "be misaligned, so raise the cutoff or compare fewer levels"
        )
    levels = np.linalg.eigvalsh(h)
    observed = levels[:predicted.size]
    return FockSpectrumReport(
        n_max=n_max,
        predicted=predicted,
        observed=observed,
        max_deviation=float(np.abs(predicted - observed).max()),
        form=form,
    )
