"""Diagonal representations and quadratic invariants.

Once a form is diagonalized by a transform W, the mode operators are read
off as linear functionals of the original operator vector Z:

    b'_i    = (row i of W^-1) . Z
    b'bar_i = Z+ . (M w_i)

with H = sum_i lambda_i (b'bar_i b'_i + 1/2).  For real lambda_i the two
are mutual adjoints; for complex lambda_i they are not, and that failure is
structural, not numerical.  The same data re-expressed in coordinates and
momenta gives H = (1/2) sum_i (T'_i p'_i^2 + V'_i q'_i^2) with
T'_i V'_i = lambda_i^2, scaled here to T'_i = V'_i = lambda_i.

Each mode also yields a conserved bilinear b'bar_i b'_i whose 2n x 2n
matrix K_i = M w_i (wbar_ibar M) is invariant under the exact propagator
at any (even complex) time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import bar_symmetrize, coord_map, coord_metric, metric_signs, quadratic_matrix
from .spectral import BogoliubovTransform, ModePair


def _pairs(a: np.ndarray) -> list:
    """Nested ``[re, im]`` lists of a complex array's entries."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


@dataclass(frozen=True)
class DiagonalForm:
    """Boson-like diagonal representation of a form.

    ``extract_b[i]`` is the coefficient row of b'_i on Z; ``extract_bbar[i]``
    is the coefficient vector of b'bar_i on Z+ (the column M w_i).
    ``hermitian_flags[i]`` is true exactly when lambda_i is real, in which
    case b'bar_i is the adjoint of b'_i.  ``zero_modes[i]`` marks
    frequencies below tolerance, whose harmonic term vanishes from H (see
    ``CoordinateDiagonalForm`` for their free-particle reading).
    """

    lambdas: np.ndarray
    extract_b: np.ndarray
    extract_bbar: np.ndarray
    hermitian_flags: np.ndarray
    zero_modes: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.lambdas.size

    @property
    def zero_point_energy(self) -> complex:
        """Ground-state offset sum_i lambda_i / 2."""
        return complex(self.lambdas.sum() / 2.0)

    def commutator_matrix(self) -> np.ndarray:
        """Matrix of [b'_i, b'bar_j]; the identity when the transform is exact."""
        return self.extract_b @ (metric_signs(self.n_modes)[:, None] * self.extract_bbar.T)

    @property
    def invariants(self) -> np.ndarray:
        """Conserved bilinears b'bar_i b'_i = Z+ K_i Z as the (n, 2n, 2n) stack
        of K_i = outer(M w_i, row i of W^-1).

        Each K_i satisfies Ubar(t) K_i U(t) = K_i for the exact propagator at
        any complex time, because the defining rows and columns are
        left/right eigenvectors of the generator with opposite eigenvalues.
        """
        return self.extract_bbar[:, :, None] * self.extract_b[:, None, :]

    def reconstruct_extended(self) -> np.ndarray:
        """Reassemble Hmat = sum_i lambda_i (K_i + K_ibar)."""
        two_n = 2 * self.n_modes
        out = np.zeros((two_n, two_n), dtype=complex)
        for lam, k in zip(self.lambdas, self.invariants):
            out += lam * bar_symmetrize(k)
        return out

    def to_dict(self) -> dict:
        return {
            "lambdas": [[l.real, l.imag] for l in self.lambdas],
            "zero_point_energy": [self.zero_point_energy.real,
                                  self.zero_point_energy.imag],
            "hermitian_flags": [bool(x) for x in self.hermitian_flags],
            "zero_modes": [bool(x) for x in self.zero_modes],
            "extract_b": _pairs(self.extract_b),
            "extract_bbar": _pairs(self.extract_bbar),
        }


@dataclass(frozen=True)
class CoordinateDiagonalForm:
    """Coordinate/momentum diagonal representation.

    Extraction rows act on R = (q_1..q_n, p_1..p_n).  After scaling,
    T'_i = V'_i = lambda_i for every nonzero mode; zero modes are kept
    unscaled with T'_i = V'_i = 0 (their quadratic term vanishes, the
    free-particle limit of T'_i V'_i = lambda_i^2 = 0).  Non-hermitian rows
    signal complex modes.
    """

    Tprime: np.ndarray
    Vprime: np.ndarray
    extract_q: np.ndarray
    extract_p: np.ndarray
    hermitian_flags: np.ndarray
    zero_modes: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.Tprime.size


def diagonal_form(bt: BogoliubovTransform) -> DiagonalForm:
    """Mode extraction functionals for H = sum_i lambda_i (b'bar_i b'_i + 1/2).

    The frequencies are ``bt.lambdas``: a mode is hermitian when
    |Im lambda_i|, and zero when |lambda_i|, is at most ``bt.real_tol``, as
    in ``classify``'s verdict.
    """
    n = bt.n_modes
    lambdas = np.asarray(bt.lambdas, dtype=complex)
    extract_b = bt.W_inv[:n].copy()
    extract_bbar = (metric_signs(n)[:, None] * bt.W[:, :n]).T.copy()
    herm = np.abs(lambdas.imag) <= bt.real_tol
    zero = np.abs(lambdas) <= bt.real_tol
    return DiagonalForm(lambdas, extract_b, extract_bbar, herm, zero)


def coordinate_diagonal(bt: BogoliubovTransform) -> CoordinateDiagonalForm:
    """Coordinate/momentum extraction rows with the T' = V' = lambda scaling.

    The scaled transform is W_c = S+ W S, whose columns are
    (w_i + w_ibar)/sqrt(2) and i (w_i - w_ibar)/sqrt(2) mapped to the R
    basis; it makes the coordinate form diagonal with both coefficients
    equal to lambda_i.  Zero and real modes are those of
    :func:`diagonal_form`: zero modes skip the scaling and report
    T' = V' = 0, and the rows of a real mode are hermitian.
    """
    df = diagonal_form(bt)
    n = bt.n_modes
    smap = coord_map(n)
    mc = coord_metric(n)
    wc = smap.conj().T @ bt.W @ smap
    wc_inv = mc @ wc.T @ mc
    tprime = np.where(df.zero_modes, 0.0, df.lambdas)
    return CoordinateDiagonalForm(tprime, tprime.copy(), wc_inv[:n].copy(),
                                  wc_inv[n:].copy(), df.hermitian_flags, df.zero_modes)


def flip_mode(pair: ModePair) -> ModePair:
    """Swap growth labeling of one mode: b' -> -b'bar, b'bar -> b'.

    Negates the reported frequency while preserving commutation relations
    and the generalized norm; useful for relabeling complex modes whose
    sign convention is a matter of choice.  The result never carries the
    hermitian-pair convention: the swap deliberately trades the adjoint
    relation (and the positive-norm rule that fixes real-mode signs) for
    the opposite label, so downstream normalization must use the bilinear
    norm.
    """
    return ModePair(
        lam=-pair.lam,
        w_plus=-pair.w_minus,
        w_minus=pair.w_plus,
        hermitian_pair=False,
    )


def coordinate_quadratic_matrix(row: np.ndarray, n_modes: int) -> np.ndarray:
    """Bar-symmetrized Z-basis matrix of (row . R)^2 for an R-basis row.

    Handy for checking identities like p'^2 + q'^2 = 2 b'bar b' + 1 at the
    matrix level (the additive constant is invisible here by construction).
    """
    z_row = row @ coord_map(n_modes).conj().T
    return bar_symmetrize(quadratic_matrix(z_row, z_row))
