"""Coordinate/momentum diagonal representation and mode relabeling.

The boson-like diagonal representation H = sum_i lambda_i (b'bar_i b'_i + 1/2)
is a reading of the transform W itself: its extraction rows, flags and
conserved bilinears K_i = M w_i (wbar_ibar M) are properties of
:class:`~quadboson.spectral.BogoliubovTransform`.  This module re-expresses
the same data in coordinates and momenta,
H = (1/2) sum_i (T'_i p'_i^2 + V'_i q'_i^2) with T'_i V'_i = lambda_i^2,
scaled here to T'_i = V'_i = lambda_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import bar_symmetrize, coord_map, coord_metric, quadratic_matrix
from .spectral import BogoliubovTransform, ModePair


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


def coordinate_diagonal(bt: BogoliubovTransform) -> CoordinateDiagonalForm:
    """Coordinate/momentum extraction rows with the T' = V' = lambda scaling.

    The scaled transform is W_c = S+ W S, whose columns are
    (w_i + w_ibar)/sqrt(2) and i (w_i - w_ibar)/sqrt(2) mapped to the R
    basis; it makes the coordinate form diagonal with both coefficients
    equal to lambda_i.  Zero and real modes are those of the transform:
    zero modes skip the scaling and report T' = V' = 0, and the rows of a
    real mode are hermitian.
    """
    n = bt.n_modes
    smap = coord_map(n)
    mc = coord_metric(n)
    wc = smap.conj().T @ bt.W @ smap
    wc_inv = mc @ wc.T @ mc
    tprime = np.where(bt.zero_modes, 0.0, bt.lambdas)
    return CoordinateDiagonalForm(tprime, tprime.copy(), wc_inv[:n].copy(),
                                  wc_inv[n:].copy(), bt.hermitian_flags, bt.zero_modes)


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
