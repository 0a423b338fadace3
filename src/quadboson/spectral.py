"""Non-hermitian eigenproblem, mode pairing, and stability classification.

The generator M @ Hmat of a valid form has a spectrum symmetric under both
negation and conjugation.  Eigenvalues are matched into n pairs
(lambda, -lambda); each pair carries two eigenvectors normalized against
the generalized bilinear norm wbar_minus . M . w_plus = 1, which stays
finite for complex frequencies where the usual sesquilinear norm vanishes.
The assembled column matrix W satisfies W M Wbar = M and block-diagonalizes
the form.

Conventions (all recorded so results are reproducible):

* complex pairs: the member with Im(lambda) > 0 is the representative;
* real pairs: the representative is the member whose eigenvector has
  positive usual norm w+ M w > 0, and the partner is fixed to T w*;
* rescaling uses the principal branch of 1/sqrt(c);
* degenerate diagonalizable eigenvalues are orthogonalized inside their
  eigenspace against the M-bilinear form;
* modes are ordered by descending (Re lambda, Im lambda).

:func:`classify` is the one entry into a form's eigensolve, which it runs
on the form's own ``hmat`` and ``generator`` readings; its
:class:`StabilityReport` keeps only the pairs, cuts and clusters of that
eigensolve; its frequencies, flags and verdict are readings of them.
:func:`normalize_pairs` turns the report into a
:class:`BogoliubovTransform`, which is also the form's boson-diagonal
and coordinate-diagonal representation: it reads frequencies and flags
from the report, and its extraction rows, norm residuals and conserved
bilinears from W alone, each on first read.
:func:`classify_stack` classifies stacks of (A, B) matrices with one
batched eigensolve.  It replays :func:`classify`'s choices only where they
cannot hinge on a tie: every group of the spectrum clustered with its
negation is one pair {x, -y} of distinct eigenvalues, and no M-norm is near
null.  Every other point is built with ``build_form`` and goes through
:func:`classify` itself, at the same ``tol_eig``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .core import (
    QuadraticForm,
    _freeze,
    _generator,
    _hmat,
    _metric_conjugate,
    _metric_defect,
    _symmetrized,
    bar_symmetrize,
    bar_vector,
    build_form,
    frobenius_norm,
    metric_signs,
)
from .errors import NotDiagonalizable, NullNorm, PairingFailure, WrongRegime

DEFAULT_TOL_EIG = 1e-9
# Defective 2-blocks split their eigenvalues by O(sqrt(eps) ||Ht||) under
# roundoff; the cluster radius (this times ||Ht||) must absorb that.
CLUSTER_SAFETY = 32.0 * np.sqrt(np.finfo(float).eps)
# Rank cuts sit above the cluster radius: members of one cluster may be split
# by up to that radius without being distinct eigenvalues.
_RANK_SAFETY = 4.0 * CLUSTER_SAFETY
# Generalized norms at or below this are treated as vanishing.
_NULL_NORM = 1e-8
# Soft alarm on nearly vanishing generalized norms (adjacent to a Jordan point).
_NEAR_DEFECT_NORM = 1e-3
# The eigenvector matrix of a 1 x 1 hermitian eigenproblem.
_UNIT = np.ones((1, 1), dtype=complex)
_UNIT.setflags(write=False)


def _cuts(scale, tol_eig: float):
    """(cluster radius, realness cut, real-branch cut) of a generator with
    2-norm ``scale``, elementwise for an array of scales.

    ``tol_eig``, the one numerical knob, sets the realness, zero and
    positivity cut tol_eig * scale, relative at every scale.  The cluster
    radius is fixed, because roundoff sets it: 32 sqrt(u) scale absorbs the
    O(sqrt(u)) split of a Jordan block.  The pairing reads a pair as real
    only below the real-branch cut, where lambda and its conjugate share a
    cluster: a pair inside only the realness cut has a null M-norm.
    """
    cluster_tol = CLUSTER_SAFETY * scale
    real_tol = tol_eig * scale
    return cluster_tol, real_tol, np.minimum(real_tol, 0.5 * cluster_tol)


class StabilityClass(str, Enum):
    POSITIVE_DEFINITE = "PositiveDefinite"
    STABLE_NON_POSITIVE = "StableNonPositive"
    UNSTABLE_COMPLEX = "UnstableComplex"
    NON_DIAGONALIZABLE = "NonDiagonalizable"


# Class codes 0-3 in declaration order, as the CSV outputs print them, and
# the label of each code.
CLASS_CODES = {label: code for code, label in enumerate(StabilityClass)}
CLASS_LABELS = tuple(CLASS_CODES)


@dataclass(frozen=True)
class ModePair:
    """One (lambda, -lambda) eigenvalue pair with its raw eigenvectors.

    ``w_plus`` belongs to +lambda, ``w_minus`` to -lambda.  Vectors are not
    yet rescaled to unit generalized norm; ``normalize_pairs`` does that.
    ``hermitian_pair`` marks real-lambda pairs with w_minus = T w_plus*,
    for which the transformed operators are mutual adjoints.
    """

    lam: complex
    w_plus: np.ndarray
    w_minus: np.ndarray
    hermitian_pair: bool

    def flipped(self) -> ModePair:
        """The pair with its growth labels swapped: b' -> -b'bar, b'bar -> b'.

        Negates the frequency while preserving commutation relations and the
        generalized norm.  The result never carries the hermitian-pair
        convention: the swap trades the adjoint relation (and the
        positive-norm rule that fixes real-mode signs) for the opposite
        label, so normalization goes through the bilinear norm.
        """
        return ModePair(-self.lam, -self.w_minus, self.w_plus, False)


@dataclass(frozen=True)
class ClusterInfo:
    """Multiplicity data for one distinct eigenvalue of M @ Hmat."""

    value: complex
    algebraic: int
    geometric: int
    max_block: int
    rank_gap: float

    @property
    def defective(self) -> bool:  # a Jordan block
        return self.geometric < self.algebraic


@dataclass(frozen=True)
class BogoliubovTransform:
    """Normalized transform W with columns (w_1..w_n, w_1bar..w_nbar).

    ``report`` is the :class:`StabilityReport` W was built from, whose
    ``mode_frequencies`` lambda_i are in column order.  Satisfies
    W M Wbar = M, so the inverse is the metric conjugate M Wbar M, no matrix
    inversion involved.

    W is also the form's diagonal representation
    H = sum_i lambda_i (b'bar_i b'_i + 1/2): the mode operators are read off
    as b'_i = (row i of W^-1) . Z and b'bar_i = Z+ . (M w_i).  For real
    lambda_i the two are mutual adjoints; for complex lambda_i they are not,
    and that failure is structural, not numerical.  The same rows give the
    coordinates and momenta q'_i = (b'_i + b'bar_i)/sqrt(2) and
    p'_i = (b'_i - b'bar_i)/(i sqrt(2)), in which
    H = (1/2) sum_i (T'_i p'_i^2 + V'_i q'_i^2) with T'_i = V'_i = lambda_i.
    Every reading is computed on first read; the array readings are
    read-only.
    """

    W: np.ndarray
    report: StabilityReport

    @property
    def n_modes(self) -> int:
        return self.W.shape[0] // 2

    @cached_property
    def W_inv(self) -> np.ndarray:
        """M Wbar M."""
        return _freeze(_metric_conjugate(self.W))

    @cached_property
    def metric_residual(self) -> float:
        """||W M Wbar - M||_2, the metric identity's defect."""
        return float(_metric_defect(self.W))

    @cached_property
    def extract_b(self) -> np.ndarray:
        """Coefficient rows of b'_i on Z, the first n rows of W^-1."""
        return _freeze(self.W_inv[:self.n_modes].copy())

    @cached_property
    def extract_bbar(self) -> np.ndarray:
        """Coefficient vectors of b'bar_i on Z+, the columns M w_i, as rows."""
        n = self.n_modes
        return _freeze((metric_signs(n)[:, None] * self.W[:, :n]).T.copy())

    @cached_property
    def extract_q(self) -> np.ndarray:
        """Coefficient rows of q'_i on R = (q_1..q_n, p_1..p_n); hermitian
        (real) exactly for real modes."""
        n = self.n_modes
        return _freeze(_on_coordinates(self.W_inv[:n] + self.W_inv[n:]))

    @cached_property
    def extract_p(self) -> np.ndarray:
        """Coefficient rows of p'_i on R = (q_1..q_n, p_1..p_n)."""
        n = self.n_modes
        return _freeze(_on_coordinates(-1j * (self.W_inv[:n] - self.W_inv[n:])))

    @cached_property
    def coordinate_weights(self) -> np.ndarray:
        """T'_i = V'_i: lambda_i, and 0 for a zero mode, whose rows stay
        unscaled (the free-particle limit of T'_i V'_i = lambda_i^2 = 0)."""
        return _freeze(np.where(self.report.zero_modes, 0.0, self.report.mode_frequencies))

    @cached_property
    def norm_residuals(self) -> tuple:
        """|wbar_{n+i} M w_i - 1| per mode, from contiguous rows, which take the
        BLAS path of the fresh vectors they stand for."""
        n, w = self.n_modes, self.W
        bars = np.concatenate([w[n:, n:], w[:n, n:]]).T.copy()  # bar(W)[:n], half the work
        return tuple([float(abs(b @ c - 1.0)) for b, c in zip(bars, self.extract_bbar)])

    @cached_property
    def invariants(self) -> np.ndarray:
        """Conserved bilinears b'bar_i b'_i = Z+ K_i Z as the (n, 2n, 2n) stack
        of K_i = outer(M w_i, row i of W^-1).

        Each K_i satisfies Ubar(t) K_i U(t) = K_i for the exact propagator at
        any complex time, because the defining rows and columns are
        left/right eigenvectors of the generator with opposite eigenvalues.
        """
        return _freeze(self.extract_bbar[:, :, None] * self.extract_b[:, None, :])

    @property
    def zero_point_energy(self) -> complex:
        """Ground-state offset sum_i lambda_i / 2."""
        return complex(self.report.mode_frequencies.sum() / 2.0)

    def commutator_matrix(self) -> np.ndarray:
        """Matrix of [b'_i, b'bar_j]; the identity when the transform is exact."""
        return self.extract_b @ (metric_signs(self.n_modes)[:, None] * self.extract_bbar.T)

    def reconstruct_extended(self) -> np.ndarray:
        """Reassemble Hmat = sum_i lambda_i (K_i + K_ibar)."""
        two_n = 2 * self.n_modes
        out = np.zeros((two_n, two_n), dtype=complex)
        for lam, k in zip(self.report.mode_frequencies, self.invariants):
            out += lam * bar_symmetrize(k)
        return out

    def to_dict(self) -> dict:
        """Document form of the diagonal representation: scalars as [re, im]
        lists, the extraction rows as their read-only complex arrays."""
        return {
            "lambdas": [[l.real, l.imag] for l in self.report.mode_frequencies],
            "zero_point_energy": [self.zero_point_energy.real,
                                  self.zero_point_energy.imag],
            "hermitian_flags": [bool(x) for x in self.report.hermitian_flags],
            "zero_modes": [bool(x) for x in self.report.zero_modes],
            "extract_b": self.extract_b,
            "extract_bbar": self.extract_bbar,
        }


def _on_coordinates(rows: np.ndarray) -> np.ndarray:
    """The rows on R of (x . Z) / sqrt(2) for rows x on Z: with Z = S R and
    S = [[I, iI], [I, -iI]] / sqrt(2), they are x S / sqrt(2) =
    (x_1 + x_2, i (x_1 - x_2)) / 2 over the halves x_1, x_2 of x."""
    n = rows.shape[1] // 2
    x1, x2 = rows[:, :n], rows[:, n:]
    return np.concatenate([x1 + x2, 1j * (x1 - x2)], axis=1) / 2


@dataclass(frozen=True)
class StabilityReport:
    """What the eigensolve of :func:`classify` leaves, and the verdict read off it.

    ``eig_residual`` is max |M Hmat V - V Lambda| / ||M Hmat||_2 of the
    eigensolve.  Eigenvalues within ``cluster_tol`` merge into one of the
    ``clusters``, and lambda meets -lambda within it; |Im lambda| (|lambda|)
    at or below ``real_tol`` counts as real (zero).  ``pairs`` are the raw
    mode pairs, left out of :meth:`to_dict`.  Every other attribute is a
    reading of these, computed on first read; array readings are read-only.
    """

    h_eigenvalues: np.ndarray
    eig_residual: float
    cluster_tol: float
    real_tol: float
    clusters: tuple
    pairing_residuals: tuple
    warnings: tuple
    pairs: list = field(repr=False)

    @cached_property
    def mode_frequencies(self) -> np.ndarray:
        """The representative lambda of every pair, in pair order."""
        return _freeze(np.array([p.lam for p in self.pairs]))

    @cached_property
    def hermitian_flags(self) -> np.ndarray:
        """True where lambda_i is real, so that b'bar_i is the adjoint of b'_i."""
        return _freeze(np.abs(self.mode_frequencies.imag) <= self.real_tol)

    @cached_property
    def zero_modes(self) -> np.ndarray:
        """True where |lambda_i| <= real_tol: mode i's harmonic term vanishes from H."""
        return _freeze(np.abs(self.mode_frequencies) <= self.real_tol)

    @cached_property
    def zero_mode_count(self) -> int:
        return int(self.zero_modes.sum())

    @cached_property
    def defects(self) -> tuple:
        """The clusters with a Jordan block."""
        return tuple(c for c in self.clusters if c.defective)

    @cached_property
    def diagonalizable(self) -> bool:
        return not self.defects

    @cached_property
    def classification(self) -> StabilityClass:
        """The regime by :func:`_class_codes`; a NaN |Im lambda| is not complex."""
        any_complex = (np.abs(self.mode_frequencies.imag) > self.real_tol).any()
        positive = self.h_eigenvalues.min() > self.real_tol
        return CLASS_LABELS[int(_class_codes(not self.diagonalizable, any_complex, positive))]

    def to_dict(self) -> dict:
        """Flat document form: tag, [re, im] frequencies, spectra, diagnostics."""
        defects = [
            {
                "value": [c.value.real, c.value.imag],
                "algebraic": c.algebraic,
                "geometric": c.geometric,
                "max_block": c.max_block,
                "rank_gap": c.rank_gap,
            }
            for c in self.defects
        ]
        return {
            "classification": self.classification.value,
            "diagonalizable": self.diagonalizable,
            "zero_mode_count": self.zero_mode_count,
            "mode_frequencies": [[l.real, l.imag] for l in self.mode_frequencies],
            "h_eigenvalues": [float(x) for x in self.h_eigenvalues],
            "pairing_residuals": [float(x) for x in self.pairing_residuals],
            "eig_residual": self.eig_residual,
            "defects": defects,
            "warnings": list(self.warnings),
        }


def _class_codes(defective, any_complex, positive):
    """:data:`CLASS_CODES` of the regime, elementwise, by the one precedence rule:
    Jordan > complex > positive definite > stable non-positive."""
    return np.where(defective, CLASS_CODES[StabilityClass.NON_DIAGONALIZABLE],
                    np.where(any_complex, CLASS_CODES[StabilityClass.UNSTABLE_COMPLEX],
                             np.where(positive, CLASS_CODES[StabilityClass.POSITIVE_DEFINITE],
                                      CLASS_CODES[StabilityClass.STABLE_NON_POSITIVE])))


# ---------------------------------------------------------------------------
# spectrum structure

def _nullity(sv: np.ndarray, tol_abs: float) -> tuple[int, float]:
    """Number of singular values ``sv`` <= tol_abs, plus the gap across the cut."""
    below = sv <= tol_abs
    count = int(np.count_nonzero(below))
    if count == 0 or count == sv.size:
        return count, np.inf
    kept = sv[~below].min()
    dropped = sv[below].max()
    if dropped <= np.finfo(float).tiny:  # an exact null direction
        return count, np.inf
    with np.errstate(over="ignore"):  # a gap beyond the float range is inf too
        return count, float(kept / dropped)


def _sweep_key(values: list) -> list:
    """The real or the imaginary parts of finite ``values``, whichever spread
    wider.  Either part of z is at most |z| in magnitude, so a distance test
    may skip every pair whose parts along this key differ by more than the
    distance; spreading wider, it skips more."""
    re = [v.real for v in values]
    im = [v.imag for v in values]
    if values and max(im) - min(im) > max(re) - min(re):
        return im
    return re


def _cluster_indices(values: np.ndarray, radius: float) -> list:
    """Single-linkage groups of eigenvalues at most ``radius`` apart, ordered
    by smallest index, each in ascending order.

    A sweep in sorted :func:`_sweep_key` order: each eigenvalue meets only
    the later ones whose key lies within ``radius`` of its own, and links to
    those with abs(a - b) <= radius.  When an eigenvalue links to all of its
    window, every later one inside that window already shares its group
    with the rest of the window, so it starts its own window where that one
    ended: k near-equal eigenvalues cost O(k) steps, not k^2 / 2.
    """
    m = values.size
    vals = values.tolist()
    key = _sweep_key(vals)
    order = sorted(range(m), key=key.__getitem__)
    parent = list(range(m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    joined = 0  # sorted positions below this, after the current one, share its group
    for p, i in enumerate(order):
        end, whole = m, True
        for q in range(max(p + 1, joined), m):
            j = order[q]
            if key[j] - key[i] > radius:
                end = q
                break
            if abs(vals[i] - vals[j]) <= radius:
                parent[find(i)] = find(j)
            else:
                whole = False
        if whole:
            joined = end
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _max_block(shifted: np.ndarray, sv: np.ndarray, algebraic: int) -> int:
    """Largest Jordan block size from the nullity sequence of powers of
    ``shifted``, whose singular values are ``sv``.

    The rank cut for (A - value)^k scales with ||A - value||^k: the power of
    a defective direction is exactly zero in theory, so its computed
    singular values are roundoff noise relative to that scale, not to the
    (possibly collapsed) norm of the power itself.  Both are first scaled
    by the power of two that brings ||A - value|| into [0.5, 1), which
    leaves the nullities as they are and keeps ||A - value||^k in the float
    range at every k.
    """
    unit = 2.0 ** -np.frexp(max(float(sv.max()), np.finfo(float).tiny))[1]
    shifted, sv = shifted * unit, sv * unit
    base = float(sv.max())
    power = shifted
    prev = 0
    size = 1
    for k in range(1, algebraic + 1):
        cut = _RANK_SAFETY * base ** k
        if k > 1:
            power = power @ shifted
            sv = np.linalg.svd(power, compute_uv=False)
        null_k, _ = _nullity(sv, cut)
        if null_k > prev:
            size = k
            prev = null_k
        if null_k >= algebraic:
            break
    return size


def _analyze(matrix: np.ndarray, scale: float, cluster_tol: float):
    """Eigendecompose, cluster and rank-test: (vecs, (info, indices) per
    cluster, mirror per cluster, eig residual).

    The spectrum is clustered together with its exact negation, so its
    groups come in mirror images and one radius decides both clusters and
    partners.  A cluster holds a group's original eigenvalues, in the order
    of the first; its mirror is the cluster of that one's negation, None
    when the mirror group holds no original eigenvalue.
    """
    evals, vecs = np.linalg.eig(matrix)
    residual = np.abs(matrix @ vecs - vecs * evals[None, :]).max() / scale
    m = evals.size
    groups = [g for g in _cluster_indices(np.concatenate([evals, -evals]), cluster_tol)
              if g[0] < m]
    owner = {i: k for k, g in enumerate(groups) for i in g}
    # a singleton cluster's value is its eigenvalue plus 0.0, the bits of the
    # mean of one eigenvalue (-0.0 parts turn into +0.0)
    singles = (evals + 0.0).tolist()
    clusters, mirror = [], []
    for group in groups:
        idx = [i for i in group if i < m]
        mirror.append(owner.get(idx[0] + m))
        alg = len(idx)
        if alg == 1:
            clusters.append((ClusterInfo(singles[idx[0]], 1, 1, 1, np.inf), idx))
            continue
        value = complex(evals[idx].mean())
        shifted = matrix - value * np.eye(matrix.shape[0])
        sv = np.linalg.svd(shifted, compute_uv=False)
        geo, gap = _nullity(sv, _RANK_SAFETY * scale)
        geo = min(geo, alg)
        blk = _max_block(shifted, sv, alg) if geo < alg else 1
        clusters.append((ClusterInfo(value, alg, geo, blk, gap), idx))
    return vecs, clusters, mirror, residual


# ---------------------------------------------------------------------------
# pairing

def _match_clusters(clusters, mirror):
    """Match clusters into (c, c') groups with c' the mirror of c.

    A zero cluster is its own mirror.  Clusters are visited by decreasing
    |value|, the first met leading its pair.  A cluster without a mirror, or
    whose mirror differs in size, means the eigensolve lost the spectral
    symmetry.
    """
    used = [False] * len(clusters)
    groups = []
    for k in sorted(range(len(clusters)), key=lambda k: -abs(clusters[k][0].value)):
        if used[k]:
            continue
        info, partner = clusters[k][0], mirror[k]
        if partner is None:
            raise PairingFailure(f"eigenvalue {info.value} has no partner near {-info.value}")
        if clusters[partner][0].algebraic != info.algebraic:
            raise PairingFailure(
                f"multiplicity mismatch between {info.value} and "
                f"{clusters[partner][0].value}"
            )
        used[k] = used[partner] = True
        groups.append((k, partner))
    return groups


def _real_branch_pairs(vecs_plus, value, mdiag, warnings):
    """Pairs from one real eigenvalue cluster (or a self-paired zero cluster).

    The M-Gram matrix on the eigenspace is diagonalized; positive directions
    keep +value as the mode frequency, negative directions belong to modes
    whose representative is the T-conjugate partner at -value.  Returns
    ``(pair, gram_eigenvalue)`` tuples.
    """
    out = []
    gram = vecs_plus.conj().T @ (mdiag[:, None] * vecs_plus)
    gram = 0.5 * (gram + gram.conj().T)
    if gram.shape == (1, 1):
        # LAPACK's n = 1 case of eigh: the eigenvalue Re g, the eigenvector 1
        d, q = gram[0].real, _UNIT
    else:
        d, q = np.linalg.eigh(gram)
    for k in range(d.size):
        w = vecs_plus @ q[:, k]
        ok = abs(d[k]) > _NULL_NORM
        if not ok:
            warnings.append(
                f"near-null M-norm {d[k]:.3e} at eigenvalue {value:.6g}; "
                "input is adjacent to a non-diagonalizable point"
            )
        elif abs(d[k]) < _NEAR_DEFECT_NORM:
            warnings.append(
                f"small M-norm {d[k]:.3e} at eigenvalue {value:.6g}; "
                "results may be ill-conditioned (near-defective input)"
            )
        if d[k] >= 0:
            out.append((ModePair(value, w, bar_vector(w.conj()), True), d[k]))
        else:
            out.append((ModePair(-value, bar_vector(w.conj()), w, True), d[k]))
    return out


def _complex_branch_pairs(vp, vm, lam, mdiag, warnings):
    """Pairs for a complex eigenvalue cluster and its negation partner."""
    m = vp.shape[1]
    if m == 1:
        wp, wm = vp[:, 0], vm[:, 0]
        c = bar_vector(wm) @ (mdiag * wp)
        ok = abs(c) > _NULL_NORM
        if not ok:
            warnings.append(
                f"near-null generalized norm {abs(c):.3e} at eigenvalue {lam:.6g}"
            )
        elif abs(c) < _NEAR_DEFECT_NORM:
            warnings.append(
                f"small generalized norm {abs(c):.3e} at eigenvalue {lam:.6g}; "
                "near-defective input"
            )
        return [ModePair(lam, wp, wm, False)]
    # degenerate complex eigenvalue: bi-orthogonalize the two eigenspaces
    # against the bilinear pairing P_kl = bar(vm_k) M vp_l
    pmat = np.array([[bar_vector(vm[:, k]) @ (mdiag * vp[:, l]) for l in range(m)]
                     for k in range(m)])
    smin = np.linalg.svd(pmat, compute_uv=False).min()
    if smin <= _NULL_NORM:
        warnings.extend([f"degenerate eigenvalue {lam:.6g} has a near-singular pairing"] * m)
    else:
        vp = vp @ np.linalg.inv(pmat)
    return [ModePair(lam, vp[:, k], vm[:, k], False) for k in range(m)]


def _eigen_pairs(generator: np.ndarray, tol_eig: float):
    """Solve a form's generator M @ Hmat and match the spectrum into n
    (lambda, -lambda) pairs: the eigensolve step of :func:`classify`.

    Returns the eigensolve's :class:`StabilityReport` fields by name, all
    but ``h_eigenvalues``.  Vectors come back raw (not rescaled);
    :func:`normalize_pairs` turns them into the unit-norm transform.  A
    defective matrix is not an error: its pairs come back raw, and its
    clusters record the Jordan blocks.

    Raises
    ------
    PairingFailure
        A cluster whose mirror holds no eigenvalue or differs in size, which
        a valid input cannot produce.
    """
    n = generator.shape[0] // 2
    mdiag = metric_signs(n)
    # the largest singular value, as np.linalg.norm(·, 2) takes it
    scale = max(np.linalg.svd(generator, compute_uv=False).max(), np.finfo(float).tiny)
    cluster_tol, real_tol, branch_tol = _cuts(scale, tol_eig)
    vecs, clusters, mirror, eig_residual = _analyze(generator, scale, cluster_tol)
    residuals, warnings = [], []

    pairs = []
    for ka, kb in _match_clusters(clusters, mirror):
        info_a, idx_a = clusters[ka]
        if ka == kb:
            # zero cluster: partners live in the same eigenspace
            residuals.extend([abs(2 * info_a.value)] * (info_a.algebraic // 2))
            if info_a.algebraic % 2:
                raise PairingFailure("zero eigenvalue with odd multiplicity")
            if info_a.defective:
                for k in range(info_a.algebraic // 2):
                    pairs.append(ModePair(info_a.value, vecs[:, idx_a[k]],
                                          vecs[:, idx_a[-1 - k]], False))
                continue
            graded = _real_branch_pairs(vecs[:, idx_a], complex(info_a.value.real),
                                        mdiag, warnings)
            # every positive-norm direction yields one mode; its partner is
            # the conjugate image living in the same eigenspace
            kept = [p for p, d in graded if d >= 0]
            if len(kept) != info_a.algebraic // 2:
                raise PairingFailure(
                    f"zero eigenspace has unbalanced M-signature "
                    f"({len(kept)} of {info_a.algebraic})"
                )
            pairs.extend(kept)
            continue
        info_b, idx_b = clusters[kb]
        residuals.extend([abs(info_a.value + info_b.value)] * info_a.algebraic)
        # orient: a = the +lambda side
        if (abs(info_a.value.imag) > branch_tol and info_a.value.imag < info_b.value.imag) or (
                abs(info_a.value.imag) <= branch_tol and info_a.value.real < info_b.value.real):
            info_a, idx_a, info_b, idx_b = info_b, idx_b, info_a, idx_a
        if info_a.defective or info_b.defective:
            for k in range(info_a.algebraic):
                pairs.append(ModePair(complex(info_a.value), vecs[:, idx_a[k]],
                                      vecs[:, idx_b[k]], False))
            continue
        if abs(info_a.value.imag) <= branch_tol:
            pairs.extend(p for p, _ in _real_branch_pairs(
                vecs[:, idx_a], complex(info_a.value.real), mdiag, warnings))
        else:
            pairs.extend(_complex_branch_pairs(vecs[:, idx_a], vecs[:, idx_b],
                                               complex(info_a.value), mdiag, warnings))

    if len(pairs) != n:
        raise PairingFailure(f"expected {n} pairs, built {len(pairs)}")
    pairs.sort(key=lambda p: (-p.lam.real, -p.lam.imag))
    return dict(eig_residual=eig_residual, cluster_tol=cluster_tol, real_tol=real_tol,
                clusters=tuple(info for info, _ in clusters),
                pairing_residuals=tuple(residuals), warnings=tuple(warnings), pairs=pairs)


# ---------------------------------------------------------------------------
# normalization

def normalize_pairs(report: StabilityReport) -> BogoliubovTransform:
    """Rescale the report's pairs to unit generalized norm and assemble the transform.

    Every pair is scaled by the principal branch of 1/sqrt(c) with
    c = wbar_minus M w_plus; hermitian pairs re-derive the partner as
    T w_plus* so the norm reduces to the usual positive one.  Conjugate
    complex pairs (lambda, -lambda*) are linked afterwards so the two
    quadruple members are exact images of each other, w' = i T w*.
    A pair with |Re lambda| <= ``report.real_tol`` is its own quadruple,
    and partners are matched within ``report.cluster_tol``.  The transform
    keeps the report, so its diagonal forms read the pair frequencies and
    flags from it.

    Raises
    ------
    NotDiagonalizable
        The report records a Jordan block, so no boson-diagonal form exists.
    NullNorm
        |c| below the fixed null-norm cut: a degenerate direction, or one
        next to a Jordan point.  Propagators and growth classes still apply.
    """
    if report.defects:
        raise NotDiagonalizable(
            "Jordan blocks at eigenvalue(s) "
            + ", ".join(f"{c.value:.6g} (block size {c.max_block})" for c in report.defects)
        )
    pairs = report.pairs
    if not pairs:
        raise NullNorm("no pairs to normalize")
    two_n = pairs[0].w_plus.shape[0]
    n = two_n // 2
    if len(pairs) != n:
        raise PairingFailure(f"need {n} pairs for {two_n}-dimensional vectors, got {len(pairs)}")
    mdiag = metric_signs(n)
    cols_plus = np.zeros((two_n, n), dtype=complex)
    cols_minus = np.zeros((two_n, n), dtype=complex)

    for i, p in enumerate(pairs):
        if p.hermitian_pair:
            c = (p.w_plus.conj() @ (mdiag * p.w_plus)).real
            if abs(c) <= _NULL_NORM * (frobenius_norm(p.w_plus) ** 2):
                raise NullNorm(
                    f"mode {i} (lambda={p.lam:.6g}) has vanishing M-norm {c:.3e}"
                )
            if c < 0:
                raise PairingFailure(
                    f"mode {i} violates the positive-norm representative convention"
                )
            w = p.w_plus / np.sqrt(c)
            cols_plus[:, i] = w
            cols_minus[:, i] = bar_vector(w.conj())
        else:
            c = bar_vector(p.w_minus) @ (mdiag * p.w_plus)
            if abs(c) <= _NULL_NORM * frobenius_norm(p.w_plus) * frobenius_norm(p.w_minus):
                raise NullNorm(
                    f"mode {i} (lambda={p.lam:.6g}) has vanishing generalized "
                    f"norm |c|={abs(c):.3e}"
                )
            s = np.sqrt(complex(c))
            cols_plus[:, i] = p.w_plus / s
            cols_minus[:, i] = p.w_minus / s

    # link conjugate quadruples: if lambda_j = -lambda_i*, replace pair j by
    # the exact image (i T w_i*, i T w_ibar*), which is normalized whenever
    # pair i is
    lams = report.mode_frequencies
    linked = set()
    for i, p in enumerate(pairs):
        # a purely imaginary pair is its own quadruple
        if p.hermitian_pair or i in linked or abs(p.lam.real) <= report.real_tol:
            continue
        target = -np.conj(p.lam)
        cand = [j for j in range(n) if j != i and j not in linked
                and not pairs[j].hermitian_pair
                and abs(lams[j] - target) <= report.cluster_tol]
        if len(cand) == 1:
            j = cand[0]
            cols_plus[:, j] = 1j * bar_vector(cols_plus[:, i].conj())
            cols_minus[:, j] = 1j * bar_vector(cols_minus[:, i].conj())
            linked.update((i, j))

    w_full = np.concatenate([cols_plus, cols_minus], axis=1)
    return BogoliubovTransform(w_full, report)


# ---------------------------------------------------------------------------
# classification

def classify(form: QuadraticForm, tol_eig: float = DEFAULT_TOL_EIG) -> StabilityReport:
    """Stability regime of a form; ``tol_eig`` sets the realness cut (see :func:`_cuts`).

    PositiveDefinite    Hmat > 0: discrete positive spectrum, fully stable.
    StableNonPositive   Hmat has nonpositive directions but all frequencies
                        are real and the generator is diagonalizable: the
                        evolution stays quasiperiodic (dynamically stable).
    UnstableComplex     some frequency has an imaginary part: exponential
                        growth of the corresponding modes.
    NonDiagonalizable   Jordan blocks: secular (polynomial-in-t) growth;
                        takes precedence over the other unstable labels.
    """
    return StabilityReport(np.linalg.eigvalsh(form.hmat), **_eigen_pairs(form.generator, tol_eig))


@dataclass(frozen=True)
class StabilityColumns:
    """Verdicts of :func:`classify_stack`, one row per input point.

    ``code`` is the :data:`CLASS_CODES` value of the classification,
    ``frequencies`` (N, n) the mode frequencies in ``classify`` order,
    ``min_sigma`` the smallest eigenvalue of Hmat and ``max_imag`` the
    largest |Im lambda|.  Every entry equals what :func:`classify` gives for
    that point, bit for bit.
    """

    code: np.ndarray
    frequencies: np.ndarray
    min_sigma: np.ndarray
    max_imag: np.ndarray


def _magnitude(z: np.ndarray) -> np.ndarray:
    """|z| elementwise with the bits of Python's ``abs(complex)``, libm's
    hypot; ``np.abs`` of a complex array may differ from it in the last ulps."""
    return np.hypot(z.real, z.imag)


def classify_stack(A, B, tol_eig: float = DEFAULT_TOL_EIG) -> StabilityColumns:
    """:func:`classify` over stacks of (N, n, n) matrices A and B, each point
    hermitian and symmetric as :func:`build_form` requires.

    The stacked Hmat takes ``build_form``'s steps.  Finite points take one
    call each to eigvalsh, the 2-norm and eig, the functions ``classify``
    calls per form, so they give its bits; every complex magnitude is
    :func:`_magnitude`, the bits of ``abs``.  Where no choice hinges on a tie
    (one pair {x, -y} of distinct eigenvalues per group of the spectrum
    clustered with its negation, so no zero cluster and x mirrors y; both
    members on one side of the real-branch cut; every real |M-norm| above
    ``_NEAR_DEFECT_NORM``), the steps below replay ``_eigen_pairs`` exactly.
    Every other point (Jordan points, zero or degenerate clusters, near-null
    M-norms, non-finite input) goes through
    ``classify(build_form(A[i], B[i]), tol_eig)``, with its verdict and its
    exceptions, raised at the first such point in stack order.
    """
    A, B = np.asarray(A, dtype=complex), np.asarray(B, dtype=complex)
    count, n = A.shape[:2]
    two_n = 2 * n
    code = np.zeros(count, dtype=int)
    freqs = np.zeros((count, n), dtype=complex)
    min_sigma = np.zeros(count)
    taken = np.zeros(count, dtype=bool)
    with np.errstate(all="ignore"):  # non-finite points warn or raise in classify
        hmats = _hmat(*_symmetrized(A, B))
    points = np.flatnonzero(np.isfinite(hmats).all(axis=(1, 2)))
    hmats = hmats[points]
    dyn = _generator(hmats)
    try:
        min_sigma[points] = np.linalg.eigvalsh(hmats).min(axis=1)
        scale = np.maximum(np.linalg.norm(dyn, 2, axis=(1, 2)), np.finfo(float).tiny)
        evals, vecs = np.linalg.eig(dyn)
    except np.linalg.LinAlgError:  # one point failed to converge; classify meets it alone
        pass
    else:
        cluster_tol, real_tol, branch_tol = _cuts(scale, tol_eig)
        # a singleton cluster's value is the mean of one eigenvalue, which
        # turns -0.0 into +0.0 exactly as adding 0.0 does
        values = evals + 0.0
        spread = np.where(~np.eye(two_n, dtype=bool),
                          _magnitude(evals[:, :, None] - evals[:, None, :]), np.inf)
        # |x + y| is the distance of x to -y in the doubled spectrum, x to -x
        # on the diagonal; it is symmetric, so one link per row makes every
        # group a pair, and the link is the row's nearest
        negation = _magnitude(values[:, :, None] + values[:, None, :])
        partner = negation.argmin(axis=2)
        sel = np.flatnonzero(
            np.isfinite(scale) & (spread.min(axis=(1, 2)) > cluster_tol)
            & ((negation <= cluster_tol[:, None, None]).sum(axis=2) == 1).all(axis=1)
            & (partner != np.arange(two_n)).all(axis=1))
        points, values, vecs, partner = points[sel], values[sel], vecs[sel], partner[sel]
        real_tol, branch_tol = real_tol[sel, None], branch_tol[sel, None]
        rows = np.arange(sel.size)[:, None]
        # _match_clusters visits clusters by decreasing |value| (a stable sort);
        # the first member of each pair it meets leads the pair
        order = np.argsort(-_magnitude(values), axis=1, kind="stable")
        rank = np.argsort(order, axis=1)
        leads = rank < np.take_along_axis(rank, partner, axis=1)
        first = order[np.take_along_axis(leads, order, axis=1)].reshape(-1, n)
        second = partner[rows, first]
        a, b = values[rows, first], values[rows, second]
        a_complex = np.abs(a.imag) > branch_tol
        b_complex = np.abs(b.imag) > branch_tol
        # orientation rule of _eigen_pairs: a becomes the +lambda side
        swap = (a_complex & (a.imag < b.imag)) | (~a_complex & (a.real < b.real))
        plus = np.where(swap, second, first)
        lam = values[rows, plus]
        real = np.abs(lam.imag) <= branch_tol
        w = vecs[rows[:, :, None], np.arange(two_n)[None, :, None], plus[:, None, :]]
        m_norm = (metric_signs(n)[:, None] * (w.real ** 2 + w.imag ** 2)).sum(axis=1)
        ok = ((a_complex == b_complex)
              & (~real | (np.abs(m_norm) > _NEAR_DEFECT_NORM))).all(axis=1)
        # a real pair's representative is complex(value.real), negated (imaginary
        # part -0.0) when its M-norm is negative; a complex one is the value itself
        negative = real & (m_norm < 0)
        lam.real = np.where(real, np.where(negative, -lam.real, lam.real), lam.real)
        lam.imag = np.where(real, np.where(negative, -0.0, 0.0), lam.imag)
        # pairs sorted by (-Re, -Im), stable from the matching order
        lam = lam[rows, np.lexsort((-lam.imag, -lam.real), axis=1)]
        any_complex = (np.abs(lam.imag) > real_tol).any(axis=1)
        positive = min_sigma[points] > real_tol[:, 0]
        code[points] = _class_codes(False, any_complex, positive)
        freqs[points] = lam
        taken[points] = ok
    for i in np.flatnonzero(~taken):
        report = classify(build_form(A[i], B[i]), tol_eig)
        code[i] = CLASS_CODES[report.classification]
        freqs[i] = report.mode_frequencies
        min_sigma[i] = report.h_eigenvalues.min()
    return StabilityColumns(code, freqs, min_sigma, np.abs(freqs.imag).max(axis=1))


def sqrt_metric_spectrum(form: QuadraticForm, tol_eig: float = DEFAULT_TOL_EIG) -> np.ndarray:
    """Spectrum of the hermitian matrix sqrt(Hmat) M sqrt(Hmat).

    For positive semidefinite forms this equals the spectrum of M @ Hmat,
    which proves all frequencies real; it serves as an independent check of
    the non-hermitian eigensolve.

    Raises
    ------
    WrongRegime
        Hmat has an eigenvalue below minus the positivity cut of
        :func:`classify`, tol_eig * ||Hmat||_2.
    """
    w, v = np.linalg.eigh(form.hmat)
    floor = -_cuts(np.abs(w).max(), tol_eig)[1]
    if w.min() < floor:
        raise WrongRegime(
            f"form is not positive semidefinite (min eigenvalue {w.min():.3e})"
        )
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    sandwich = (root * metric_signs(form.n_modes)) @ root
    return np.linalg.eigvalsh(sandwich)
