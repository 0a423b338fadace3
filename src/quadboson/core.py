"""Data model for hermitian quadratic boson forms.

A form is defined by a pair of n x n complex matrices (A, B), A hermitian
and B symmetric, acting on the operator vector Z = (b_1..b_n, b+_1..b+_n):

    H = (1/2) Z+ Hmat Z,   Hmat = [[A, B], [B*, A^t]].

The commutation metric M = diag(+1..+1, -1..-1) turns Hmat into the
non-hermitian generator M @ Hmat that drives the Heisenberg evolution.
Block order is fixed: annihilation block first, creation block second.
All containers here are immutable after construction and all operations
are pure functions, so values can be shared freely across workers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, Overflow, StructureViolation

DEFAULT_TOL_STRUCT = 1e-12
# The one memory budget: inputs whose estimated buffers exceed it are refused
# before anything is allocated (the oracle's Fock dimension cap, grid sizes).
MEMORY_BUDGET = 1 << 30


# ---------------------------------------------------------------------------
# structural constants

@functools.lru_cache(maxsize=64)
def metric_signs(n_modes: int) -> np.ndarray:
    """Diagonal (+1..+1, -1..-1) of M, so M X = signs[:, None] * X and X M = X * signs.

    One read-only array per n, shared by every caller.
    """
    signs = np.ones(2 * n_modes)
    signs[n_modes:] = -1.0
    return _freeze(signs)


def metric(n_modes: int) -> np.ndarray:
    """Commutation metric M = diag(+1..+1, -1..-1), shape (2n, 2n)."""
    return np.diag(metric_signs(n_modes))


def block_swap(n_modes: int) -> np.ndarray:
    """Block-swap matrix T = [[0, I], [I, 0]], shape (2n, 2n)."""
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return np.block([[zero, eye], [eye, zero]])


def coord_map(n_modes: int) -> np.ndarray:
    """Unitary S mapping coordinates/momenta to ladder operators, Z = S R.

    S = (1/sqrt(2)) [[I, iI], [I, -iI]]; it satisfies S+ = S^t T.
    """
    eye = np.eye(n_modes)
    return np.block([[eye, 1j * eye], [eye, -1j * eye]]) / np.sqrt(2.0)


def coord_metric(n_modes: int) -> np.ndarray:
    """Commutation metric in the (q, p) representation, S+ M S = [[0, iI], [-iI, 0]]."""
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return np.block([[zero, 1j * eye], [-1j * eye, zero]])


def bar(matrix: np.ndarray) -> np.ndarray:
    """Bar involution Mbar = T M^t T, the transpose with both axes half-rolled.

    No complex conjugation is involved.  For the operator vector Z the bar
    coincides with the adjoint; for a general transform it does not.  A
    stack of matrices (leading axes) is barred matrix by matrix.
    """
    half = matrix.shape[-1] // 2
    flipped = np.swapaxes(matrix, -1, -2)
    out = np.empty_like(flipped)  # np.roll's layout: the transpose's own
    out[..., :half, :half] = flipped[..., half:, half:]
    out[..., :half, half:] = flipped[..., half:, :half]
    out[..., half:, :half] = flipped[..., :half, half:]
    out[..., half:, half:] = flipped[..., :half, :half]
    return out


def bar_vector(vec: np.ndarray) -> np.ndarray:
    """Row form of the bar of a column vector: wbar = w^t T (halves swapped)."""
    half = vec.shape[0] // 2
    return np.concatenate([vec[half:], vec[:half]])


def quadratic_matrix(row1: np.ndarray, row2: np.ndarray) -> np.ndarray:
    """Matrix K with (row1 . Z)(row2 . Z) = Z+ K Z as an operator identity.

    Relies on (Z+)_k = Z_{sigma(k)} with sigma the half swap; no operator
    reordering is needed, so the identity is exact.
    """
    half = row1.shape[0] // 2
    return np.outer(np.concatenate([row1[half:], row1[:half]]), row2)


def bar_symmetrize(k: np.ndarray) -> np.ndarray:
    """Canonical quadratic-form matrix K + Kbar.

    Two matrices represent the same quadratic operator (up to a c-number)
    exactly when their bar-symmetrizations agree, so this is the right
    object for operator-level comparisons and conservation checks.
    """
    return k + bar(k)


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class QuadraticForm:
    """Validated (A, B) pair defining a quadratic boson form.

    Attributes
    ----------
    n_modes : int
        Number of boson modes, >= 1.
    A : np.ndarray
        Hermitian n x n coefficient of b+_i b_j (dimensionless energy units).
    B : np.ndarray
        Symmetric n x n coefficient of the pairing terms b+_i b+_j.
    """

    n_modes: int
    A: np.ndarray
    B: np.ndarray


@dataclass(frozen=True)
class ExtendedMatrix:
    """Hermitian 2n x 2n matrix [[A, B], [B*, A^t]] of the form."""

    n_modes: int
    matrix: np.ndarray


@dataclass(frozen=True)
class DynamicalMatrix:
    """Non-hermitian evolution generator M @ Hmat = [[A, B], [-B*, -A^t]]."""

    n_modes: int
    matrix: np.ndarray


@dataclass(frozen=True)
class CoordinateForm:
    """Real coordinate/momentum representation H = (1/2) R^t [[V, U], [U^t, T]] R."""

    n_modes: int
    V: np.ndarray
    T: np.ndarray
    U: np.ndarray


# ---------------------------------------------------------------------------
# operations

def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def frobenius_norm(x: np.ndarray):
    """``np.linalg.norm(x)`` of a complex array, the 2-norm of a vector and
    the Frobenius norm of a matrix, by that function's own steps (two real
    dot products of the raveled array and a square root) without its
    argument handling."""
    x = x.ravel(order="K")
    return np.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _defect(m: np.ndarray, image: np.ndarray):
    """Frobenius norms ||m - image|| and ||m|| for the relative structure
    test, and the factor both were divided by: 1, or, when a norm overflows
    (entries above about 1e154), the largest real or imaginary part of m,
    so that the ratio stays meaningful.  Finite norms keep their bits.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        defect, size = frobenius_norm(m - image), frobenius_norm(m)
    if np.isfinite(defect) and np.isfinite(size):
        return defect, size, 1.0
    scale = float(np.abs(m.view(float)).max())
    m, image = m / scale, image / scale
    return frobenius_norm(m - image), frobenius_norm(m), scale


def _symmetrized(A: np.ndarray, B: np.ndarray) -> tuple:
    """0.5 (A + A+) and 0.5 (B + B^t), matrix by matrix over leading axes."""
    return 0.5 * (A + A.conj().swapaxes(-1, -2)), 0.5 * (B + B.swapaxes(-1, -2))


def _hmat(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The block matrix [[A, B], [B*, A^t]], matrix by matrix over leading axes."""
    n = A.shape[-1]
    h = np.empty((*A.shape[:-2], 2 * n, 2 * n), dtype=complex)
    h[..., :n, :n], h[..., :n, n:] = A, B
    h[..., n:, :n], h[..., n:, n:] = B.conj(), A.swapaxes(-1, -2)
    return h


def build_form(A, B, tol_struct: float = DEFAULT_TOL_STRUCT) -> QuadraticForm:
    """Validate and build a QuadraticForm from matrices A and B.

    Asymmetries within ``tol_struct`` (relative, Frobenius) are removed by
    symmetrization, since file-sourced matrices carry rounding noise; larger
    violations are rejected.

    Parameters
    ----------
    A, B : array_like
        Square complex matrices of equal dimension n >= 1.
    tol_struct : float
        Relative tolerance for the hermiticity/symmetry checks.

    Raises
    ------
    DimensionMismatch
        Non-square, mismatched or empty inputs.
    StructureViolation
        Non-finite entries, A not hermitian, or B not symmetric beyond
        tolerance.
    Overflow
        Finite entries whose symmetrized sum leaves the float range.
    """
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    B = np.atleast_2d(np.asarray(B, dtype=complex))
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"A must be square, got shape {A.shape}")
    if B.shape != A.shape:
        raise DimensionMismatch(f"A and B shapes differ: {A.shape} vs {B.shape}")
    n = A.shape[0]
    if n < 1:
        raise DimensionMismatch("need at least one mode")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise StructureViolation("A and B must contain only finite entries")

    herm_defect, herm_size, scale = _defect(A, A.conj().T)
    if herm_defect > tol_struct * max(herm_size, 1e-300):
        raise StructureViolation(
            f"A is not hermitian: ||A - A+|| = {float(herm_defect) * scale:.3e} "
            f"exceeds {tol_struct:.1e} * ||A||"
        )
    sym_defect, sym_size, scale = _defect(B, B.T)
    if sym_defect > tol_struct * max(sym_size, 1e-300):
        raise StructureViolation(
            f"B is not symmetric: ||B - B^t|| = {float(sym_defect) * scale:.3e} "
            f"exceeds {tol_struct:.1e} * ||B||"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        A, B = _symmetrized(A, B)
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise Overflow("A and B entries overflow the float range when symmetrized")
    return QuadraticForm(n, _freeze(A), _freeze(B))


def extended_matrix(form: QuadraticForm) -> ExtendedMatrix:
    """Assemble the hermitian 2n x 2n block matrix [[A, B], [B*, A^t]].

    The result is hermitian and bar-symmetric (T Hmat^t T = Hmat) by
    construction from a validated form.
    """
    return ExtendedMatrix(form.n_modes, _freeze(_hmat(form.A, form.B)))


def dynamical_matrix(form: QuadraticForm | ExtendedMatrix) -> DynamicalMatrix:
    """Assemble M @ Hmat, the generator of i dZ/dt = (M Hmat) Z.

    Computed as a row sign flip of :func:`extended_matrix`'s output, so the
    two share floating-point entries up to sign.  Pass the form's
    ExtendedMatrix instead of the form when it is already assembled.
    """
    ext = form if isinstance(form, ExtendedMatrix) else extended_matrix(form)
    return DynamicalMatrix(ext.n_modes, _freeze(metric_signs(ext.n_modes)[:, None] * ext.matrix))


def coordinate_form(form: QuadraticForm) -> CoordinateForm:
    """Real (V, T, U) blocks of the coordinate/momentum representation.

    V = Re(A + B), T = Re(A - B), U = Im(B - A); these coincide with the
    blocks of S+ Hmat S for the unitary S of :func:`coord_map`.
    """
    v = (form.A + form.B).real.copy()
    t = (form.A - form.B).real.copy()
    u = (form.B - form.A).imag.copy()
    return CoordinateForm(form.n_modes, _freeze(v), _freeze(t), _freeze(u))


def coordinate_matrix(cf: CoordinateForm) -> np.ndarray:
    """Real symmetric 2n x 2n matrix [[V, U], [U^t, T]]."""
    return np.block([[cf.V, cf.U], [cf.U.T, cf.T]])
