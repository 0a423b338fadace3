"""Two-mode pairing example with closed-form ground truth.

The model couples two boson modes with single-particle energies
eps +/- gamma through a pairing term of strength delta:

    H = sum_nu (eps + nu gamma)(b+_nu b_nu + 1/2)
        + delta (b_+ b_- + b+_+ b+_-) + kappa (b+_+ b_- + b+_- b_+),

the kappa hopping being an optional perturbation.  Everything downstream of
the generic pipeline can be checked against this module: the hermitian
spectrum sigma, the mode frequencies lambda, the pairing amplitudes (u, v),
the exact propagator in closed form, and the stability thresholds,
including the reentry window opened by kappa.  The closed forms square the
parameters; a square beyond the float range raises ``Overflow``.

Regimes at kappa = 0 (delta >= 0):

    delta < sqrt(eps^2 - gamma^2)   positive definite
    ...   < delta < eps             H indefinite, spectrum real: stable
    delta = eps                     non-diagonalizable (secular growth)
    delta > eps                     complex frequencies: unstable
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (QuadraticForm, _freeze, _metric_conjugate, bar_symmetrize, build_form,
                   quadratic_matrix)
from .errors import DegenerateGap, NotDegenerate, Overflow
from .spectral import DEFAULT_TOL_EIG, StabilityColumns, _cuts, classify, classify_stack


@dataclass(frozen=True)
class BcsParams:
    """Model parameters; requires eps > 0 and 0 < gamma < eps."""

    epsilon: float
    gamma: float
    delta: float
    kappa: float = 0.0

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0 < self.gamma < self.epsilon:
            raise ValueError(
                f"need 0 < gamma < epsilon, got gamma={self.gamma}, "
                f"epsilon={self.epsilon}"
            )


@dataclass(frozen=True)
class BcsThresholds:
    """Critical gap values, every one a closed form.

    ``positivity`` is where H stops being positive definite and, for
    kappa = 0, coincides with the onset of negative real frequencies;
    ``dynamical`` is where frequencies turn complex (kappa = 0).  With
    kappa != 0 the instability sets in at ``instability_onset`` and, when
    |kappa| < gamma^2 / sqrt(eps^2 - gamma^2), the spectrum returns to real
    values on ``reentry_window = (delta_c_plus, delta_c_outer)``.  The outer
    edge is the sqrt reading eps sqrt(1 + kappa^2/gamma^2), also reported as
    ``delta_c_outer_sqrt_formula``; the printed source is dimensionally
    ambiguous, and its literal reading eps^2 (1 + kappa^2/gamma^2) is
    reported for comparison.
    """

    positivity: float
    dynamical: float
    instability_onset: float | None = None
    reentry_window: tuple | None = None
    delta_c_outer_sqrt_formula: float | None = None
    delta_c_outer_literal_formula: float | None = None

    def to_dict(self) -> dict:
        return {
            "positivity": self.positivity,
            "dynamical": self.dynamical,
            "instability_onset": self.instability_onset,
            "reentry_window": list(self.reentry_window) if self.reentry_window else None,
            "delta_c_outer_sqrt_formula": self.delta_c_outer_sqrt_formula,
            "delta_c_outer_literal_formula": self.delta_c_outer_literal_formula,
        }


def _model(epsilon, gamma, delta, kappa) -> tuple:
    """The model's A (energies and kappa hopping) and B (anti-diagonal
    pairing), stacked over the broadcast shape of the parameters."""
    a = np.zeros((*np.broadcast(epsilon, gamma, delta, kappa).shape, 2, 2), dtype=complex)
    b = np.zeros_like(a)
    a[..., 0, 0], a[..., 1, 1] = epsilon + gamma, epsilon - gamma
    a[..., 0, 1] = a[..., 1, 0] = kappa
    b[..., 0, 1] = b[..., 1, 0] = delta
    return a, b


def bcs_form(p: BcsParams) -> QuadraticForm:
    """Quadratic form of the model, built from :func:`_model`'s matrices."""
    return build_form(*_model(p.epsilon, p.gamma, p.delta, p.kappa))


@dataclass(frozen=True)
class BcsSweep(StabilityColumns):
    """Columns of :func:`bcs_sweep`: the parameters of every grid point, in
    grid order, next to its :class:`StabilityColumns` row."""

    epsilon: float
    gamma: np.ndarray
    delta: np.ndarray
    kappa: np.ndarray


def bcs_sweep(epsilon: float, gammas, deltas, kappas,
              tol_eig: float = DEFAULT_TOL_EIG) -> BcsSweep:
    """Classify the model at every point of the grid deltas x kappas x gammas.

    delta is the outermost axis, then kappa, then gamma; a fixed parameter
    is a length-1 array.  The whole grid is validated before the first
    solve; then :func:`classify_stack` takes the model's stacked A and B: one
    batched eigensolve, and per-point :func:`classify` where needed (Jordan
    points, non-finite parameters).  Every column equals the per-point
    ``classify(bcs_form(p), tol_eig)`` bit for bit.

    Raises
    ------
    ValueError
        Some grid point is not a valid :class:`BcsParams`; the message is
        that of the first such point in grid order.
    """
    delta, kappa, gamma = (
        axis.ravel() for axis in np.meshgrid(np.asarray(deltas, dtype=float),
                                             np.asarray(kappas, dtype=float),
                                             np.asarray(gammas, dtype=float), indexing="ij"))
    valid = (epsilon > 0) & (0 < gamma) & (gamma < epsilon)
    if not valid.all():  # BcsParams raises the error of the first bad point
        i = int(np.argmin(valid))
        BcsParams(epsilon, float(gamma[i]), float(delta[i]), float(kappa[i]))
    columns = classify_stack(*_model(epsilon, gamma, delta, kappa), tol_eig)
    return BcsSweep(**vars(columns), epsilon=epsilon, gamma=gamma, delta=delta, kappa=kappa)


def bcs_sigma(p: BcsParams) -> np.ndarray:
    """Eigenvalues of the hermitian extended matrix, descending.

    kappa = 0: the two-fold degenerate eps +/- sqrt(gamma^2 + delta^2),
    returned once each.  kappa != 0: the four split values
    eps + nu sqrt(gamma^2 + (delta +/- kappa)^2).
    """
    if p.kappa == 0.0:
        root = np.hypot(p.gamma, p.delta)
        return np.array([p.epsilon + root, p.epsilon - root])
    vals = [p.epsilon + nu * np.hypot(p.gamma, p.delta + s * p.kappa)
            for nu in (1.0, -1.0) for s in (1.0, -1.0)]
    return np.sort(np.array(vals))[::-1]


def _squares(*values: float) -> tuple:
    """Squares of Python floats; one beyond the float range raises :class:`Overflow`."""
    try:
        return tuple(x ** 2 for x in values)
    except OverflowError:
        raise Overflow(f"the square of one of {values} is beyond the float range") from None


def bcs_alpha(p: BcsParams) -> complex:
    """Principal branch of sqrt(eps^2 - delta^2); Im > 0 above the gap."""
    eps2, delta2 = _squares(p.epsilon, p.delta)
    return complex(np.sqrt(complex(eps2 - delta2)))


def _at_gap(p: BcsParams, alpha: complex) -> bool:
    """|delta| = eps as :func:`classify` sees it: gamma +/- alpha within one
    cluster radius of sigma_1 = ||Hmat||_2, whatever the realness cut."""
    cluster_tol, _, _ = _cuts(bcs_sigma(p)[0], 0.0)
    return 2.0 * abs(alpha) <= cluster_tol


def bcs_lambda(p: BcsParams) -> tuple:
    """Mode-frequency representatives (lambda_plus, lambda_minus).

    kappa = 0: lambda_nu = nu gamma + alpha, which already encodes the
    correct representative sign (lambda_minus goes negative once H stops
    being positive, and care is needed because +|lambda_minus| is also an
    eigenvalue, with the wrong norm sign).  kappa != 0: the mode frequencies
    of :func:`classify`, whose dense eigensolve is authoritative; see
    :func:`bcs_lambda_formula` for the closed-form comparison.
    """
    if p.kappa == 0.0:
        al = bcs_alpha(p)
        return (p.gamma + al, -p.gamma + al)
    return tuple(complex(lam) for lam in classify(bcs_form(p)).mode_frequencies)


def bcs_lambda_formula(p: BcsParams) -> tuple:
    """Closed-form frequencies for the perturbed model, principal branches.

    lambda_nu = sqrt(ltilde_nu^2 - kappa^2 (eps^2/gamma^2 - 1)) with
    ltilde_nu = nu gamma + sqrt(eps^2 (1 + kappa^2/gamma^2) - delta^2).
    Signs are defined only up to the (lambda, -lambda) pairing; compare as
    multisets against :func:`bcs_lambda`.
    """
    eps2, gamma2, delta2, kappa2 = _squares(p.epsilon, p.gamma, p.delta, p.kappa)
    if gamma2 == 0.0:  # gamma > 0, but its square underflowed
        raise Overflow(f"gamma^2 underflows to zero for {p}; ratios to it leave the float range")
    dc2 = eps2 * (1.0 + kappa2 / gamma2)
    shift = kappa2 * (eps2 / gamma2 - 1.0)
    out = []
    for nu in (1.0, -1.0):
        lt = nu * p.gamma + np.sqrt(complex(dc2 - delta2))
        out.append(complex(np.sqrt(lt * lt - shift)))
    return tuple(out)


def bcs_uv(p: BcsParams) -> tuple:
    """Pairing amplitudes u, v = sqrt((eps +/- alpha) / 2 alpha).

    Branches are fixed by 2 alpha u v = delta, which together with
    u^2 - v^2 = 1 pins the transform.  Above the gap (|delta| > eps) both
    are complex with u* = i v: the usual norm |u|^2 - |v|^2 vanishes while
    the generalized one stays at 1.

    Raises
    ------
    DegenerateGap
        |delta| = eps within the cluster radius (alpha = 0: amplitudes diverge).
    """
    if p.kappa != 0.0:
        raise ValueError("closed-form amplitudes require kappa = 0")
    al = bcs_alpha(p)
    if _at_gap(p, al):
        raise DegenerateGap(
            f"|delta| = eps within the cluster radius (alpha = {al:.3e}); no finite "
            "pairing amplitudes exist"
        )
    u = np.sqrt((p.epsilon + al) / (2.0 * al))
    v = np.sqrt((p.epsilon - al) / (2.0 * al))
    if abs(2.0 * al * u * v - p.delta) > abs(2.0 * al * u * v + p.delta):
        v = -v
    return complex(u), complex(v)


def bcs_transform(p: BcsParams) -> np.ndarray:
    """Analytic Bogoliubov transform built from (u, v).

    Columns follow the package convention (w_+, w_-, w_+bar, w_-bar) for
    b_nu = u b'_nu - v b'bar_{-nu}; satisfies W M Wbar = M exactly.
    """
    u, v = bcs_uv(p)
    return np.array([
        [u, 0, 0, -v],
        [0, u, -v, 0],
        [0, -v, u, 0],
        [-v, 0, 0, u],
    ], dtype=complex)


def bcs_closed_evolution(p: BcsParams, t: float) -> np.ndarray:
    """Exact propagator of the unperturbed model at real time t.

    Away from the degenerate gap the annihilation rows are

        b_nu(t) = e^{-i lambda_nu t} [ b_nu + v (1 - e^{2 i alpha t})
                                       (v b_nu + u b+_{-nu}) ],

    and at |delta| = eps the alpha -> 0 limit

        b_nu(t) = e^{-i nu gamma t} [ (1 - i t eps) b_nu
                                      - i t delta b+_{-nu} ],

    whose secular factor t marks the non-diagonalizable point.  Creation
    rows follow by conjugation.
    """
    if p.kappa != 0.0:
        raise ValueError("closed-form evolution requires kappa = 0")
    if isinstance(t, complex) and t.imag != 0:
        raise ValueError("closed-form evolution is derived for real time")
    t = float(np.real(t))
    u_mat = np.zeros((4, 4), dtype=complex)
    al = bcs_alpha(p)
    degenerate = _at_gap(p, al)
    for row, nu in ((0, 1.0), (1, -1.0)):
        partner = 3 - row  # index of b+_{-nu}
        if degenerate:
            phase = np.exp(-1j * nu * p.gamma * t)
            u_mat[row, row] = phase * (1.0 - 1j * t * p.epsilon)
            u_mat[row, partner] = phase * (-1j * t * p.delta)
        else:
            u, v = bcs_uv(p)
            lam = nu * p.gamma + al
            phase = np.exp(-1j * lam * t)
            mix = v * (1.0 - np.exp(2j * al * t))
            u_mat[row, row] = phase * (1.0 + mix * v)
            u_mat[row, partner] = phase * mix * u
    u_mat[2:, :2] = u_mat[:2, 2:].conj()
    u_mat[2:, 2:] = u_mat[:2, :2].conj()
    return u_mat


@dataclass(frozen=True)
class JordanDecoupledForm:
    """Maximally decoupled representation at the degenerate gap.

    ``transform`` maps the decoupled operators to the original ones,
    Z = W_s Z_s; in the new operators

        H = gamma (bsbar_+ bs_+ - bsbar_- bs_-) + 2 delta bsbar_- bsbar_+,

    whose two terms are the commuting conserved quantities.  ``pair_invariant``
    and ``imbalance_invariant`` are their canonical (bar-symmetric) quadratic
    matrices; the ``*_raw`` variants are the plain products of extraction
    rows, which represent the same operators but are not individually
    invariant under Ubar . U conjugation.  The inverse and the invariants
    are read off ``transform``, each on first read, as read-only arrays.
    """

    transform: np.ndarray
    gamma: float
    delta: float

    @cached_property
    def inverse(self) -> np.ndarray:
        """M W_sbar M, whose rows extract (bs_+, bs_-, bsbar_+, bsbar_-)."""
        return _freeze(_metric_conjugate(self.transform))

    @cached_property
    def pair_invariant_raw(self) -> np.ndarray:
        """bsbar_- bsbar_+ as a product of extraction rows."""
        _, _, r_bb_p, r_bb_m = self.inverse
        return _freeze(quadratic_matrix(r_bb_m, r_bb_p))

    @cached_property
    def imbalance_invariant_raw(self) -> np.ndarray:
        """bsbar_+ bs_+ - bsbar_- bs_- as products of extraction rows."""
        r_bs_p, r_bs_m, r_bb_p, r_bb_m = self.inverse
        return _freeze(quadratic_matrix(r_bb_p, r_bs_p) - quadratic_matrix(r_bb_m, r_bs_m))

    @cached_property
    def pair_invariant(self) -> np.ndarray:
        return _freeze(bar_symmetrize(self.pair_invariant_raw))

    @cached_property
    def imbalance_invariant(self) -> np.ndarray:
        return _freeze(bar_symmetrize(self.imbalance_invariant_raw))

    def evolution_matrix(self, t: float) -> np.ndarray:
        """Closed evolution in the decoupled basis, Z_s(t) = V(t) Z_s(0).

        The barred operators decouple completely,
        bsbar_nu(t) = e^{i nu gamma t} bsbar_nu, while
        bs_nu(t) = e^{-i nu gamma t} (bs_nu - 2 i t delta bsbar_{-nu}).
        """
        v = np.zeros((4, 4), dtype=complex)
        for k, nu in ((0, 1.0), (1, -1.0)):
            phase = np.exp(-1j * nu * self.gamma * t)
            v[k, k] = phase
            v[k, 3 - k] = phase * (-2j * t * self.delta)
            v[2 + k, 2 + k] = 1.0 / phase
        return v

    def reconstruct_extended(self) -> np.ndarray:
        """Hmat = gamma * imbalance + 2 delta * pair, exactly."""
        return self.gamma * self.imbalance_invariant + (2.0 * self.delta) * self.pair_invariant


def bcs_jordan_form(p: BcsParams) -> JordanDecoupledForm:
    """Decoupled description at |delta| = eps, where no diagonal form exists.

    Raises
    ------
    NotDegenerate
        |delta| differs from eps beyond the cluster radius that :func:`bcs_uv`
        applies, so finite pairing amplitudes exist.
    """
    if p.kappa != 0.0:
        raise ValueError("the decoupled form is defined for kappa = 0")
    if not _at_gap(p, bcs_alpha(p)):
        raise NotDegenerate(
            f"|delta| = {abs(p.delta)} != eps = {p.epsilon}; the decoupled "
            "form only exists at the degenerate gap"
        )
    base = np.array([
        [1, 0, 0, 1],
        [0, 1, 1, 0],
        [0, -1, 1, 0],
        [-1, 0, 0, 1],
    ], dtype=complex) / np.sqrt(2.0)
    if p.delta < 0:
        # gauge b_+ -> -b_+ maps delta -> -delta; absorb the sign into the
        # plus-mode decoupled operators so the coefficient stays 2*delta
        gauge = np.array([-1.0, 1.0, -1.0, 1.0])
        w_s = gauge[:, None] * base * gauge
    else:
        w_s = base
    return JordanDecoupledForm(w_s, p.gamma, p.delta)


def bcs_thresholds(p: BcsParams) -> BcsThresholds:
    """Critical gap values, each a closed form.

    The kappa != 0 reentry window runs from delta_c_plus = sqrt(eps^2 -
    gamma^2) + |kappa| to eps sqrt(1 + kappa^2 / gamma^2), where the root
    sqrt(eps^2 (1 + kappa^2/gamma^2) - delta^2) of :func:`bcs_lambda_formula`
    turns imaginary.  The literal reading eps^2 (1 + kappa^2/gamma^2) of the
    printed source is attached for comparison.
    """
    eps2, gamma2, kappa2 = _squares(p.epsilon, p.gamma, p.kappa)
    positivity = float(np.sqrt(eps2 - gamma2))
    if p.kappa == 0.0:
        return BcsThresholds(positivity=positivity, dynamical=float(p.epsilon))
    if gamma2 == 0.0 or positivity == 0.0:  # 0 < gamma < eps, but a square underflowed
        raise Overflow(f"gamma^2 or eps^2 - gamma^2 underflows to zero for {p}; "
                       "ratios to it leave the float range")
    onset = positivity - abs(p.kappa)
    inner_top = positivity + abs(p.kappa)
    ratio = kappa2 / gamma2
    if math.isfinite(ratio):
        sqrt_formula = float(p.epsilon * np.sqrt(1.0 + ratio))
    else:  # kappa^2/gamma^2 overflows where |kappa|/gamma need not
        sqrt_formula = p.epsilon * math.hypot(1.0, abs(p.kappa) / p.gamma)
    literal_formula = float(eps2 * (1.0 + ratio))
    window = None
    if abs(p.kappa) < gamma2 / positivity:
        window = (float(inner_top), sqrt_formula)
    return BcsThresholds(
        positivity=positivity,
        dynamical=float(p.epsilon),
        instability_onset=float(onset),
        reentry_window=window,
        delta_c_outer_sqrt_formula=sqrt_formula,
        delta_c_outer_literal_formula=literal_formula,
    )
