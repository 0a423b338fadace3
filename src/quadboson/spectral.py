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

:func:`classify` is the one entry into a form's eigensolve; its
:class:`StabilityReport`, with the pairs, cuts and clusters of that
eigensolve, is the one value every consumer reads.
:func:`normalize_pairs` turns the report into a
:class:`BogoliubovTransform`, which is also the form's boson-diagonal
representation: its extraction rows, flags, norm residuals and conserved
bilinears are read from W alone, each on first read.
:func:`classify_stack` classifies a stack of forms with one batched
eigensolve.  It replays :func:`classify`'s choices only where they cannot
hinge on a tie: every group of the spectrum clustered with its negation is
one pair {x, -y} of distinct eigenvalues, and no M-norm is near null.  Every
other point goes through :func:`classify` itself.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .core import (
    QuadraticForm,
    DynamicalMatrix,
    _freeze,
    bar,
    bar_symmetrize,
    bar_vector,
    dynamical_matrix,
    extended_matrix,
    frobenius_norm,
    metric_signs,
)
from .errors import NotDiagonalizable, NullNorm, Overflow, PairingFailure, WrongRegime

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
    positivity cut tol_eig * max(scale, 1).  The cluster radius is fixed,
    because roundoff sets it: 32 sqrt(u) scale absorbs the O(sqrt(u)) split
    of a Jordan block.  The pairing reads a pair as real only below the
    real-branch cut, where lambda and its conjugate share a cluster: a pair
    inside only the realness cut has a null M-norm.
    """
    cluster_tol = CLUSTER_SAFETY * scale
    real_tol = tol_eig * np.maximum(scale, 1.0)
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


@dataclass(frozen=True)
class ClusterInfo:
    """Multiplicity data for one distinct eigenvalue of M @ Hmat."""

    value: complex
    algebraic: int
    geometric: int
    max_block: int
    rank_gap: float


@dataclass(frozen=True)
class BogoliubovTransform:
    """Normalized transform W with columns (w_1..w_n, w_1bar..w_nbar).

    ``lambdas`` are the mode frequencies in column order, and ``real_tol``
    the eigensolve's realness cut: |Im lambda_i| (|lambda_i|) at or below it
    counts as real (zero), as in ``classify``'s verdict.  Satisfies
    W M Wbar = M, so the inverse is the metric conjugate M Wbar M, no matrix
    inversion involved.

    W is also the form's diagonal representation
    H = sum_i lambda_i (b'bar_i b'_i + 1/2): the mode operators are read off
    as b'_i = (row i of W^-1) . Z and b'bar_i = Z+ . (M w_i).  For real
    lambda_i the two are mutual adjoints; for complex lambda_i they are not,
    and that failure is structural, not numerical.  Every reading is
    computed on first read; the array readings are read-only.
    """

    W: np.ndarray
    lambdas: np.ndarray
    real_tol: float

    @property
    def n_modes(self) -> int:
        return self.W.shape[0] // 2

    @cached_property
    def W_inv(self) -> np.ndarray:
        """M Wbar M."""
        mdiag = metric_signs(self.n_modes)
        return _freeze(mdiag[:, None] * bar(self.W) * mdiag)

    @cached_property
    def metric_residual(self) -> float:
        """||W M Wbar - M||_2, the metric identity's defect."""
        mdiag = metric_signs(self.n_modes)
        return float(np.linalg.norm((self.W * mdiag) @ bar(self.W) - np.diag(mdiag), 2))

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
    def hermitian_flags(self) -> np.ndarray:
        """True where lambda_i is real, so that b'bar_i is the adjoint of b'_i."""
        return _freeze(np.abs(self.lambdas.imag) <= self.real_tol)

    @cached_property
    def zero_modes(self) -> np.ndarray:
        """True where |lambda_i| <= real_tol: mode i's harmonic term vanishes from H."""
        return _freeze(np.abs(self.lambdas) <= self.real_tol)

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
        return complex(self.lambdas.sum() / 2.0)

    def commutator_matrix(self) -> np.ndarray:
        """Matrix of [b'_i, b'bar_j]; the identity when the transform is exact."""
        return self.extract_b @ (metric_signs(self.n_modes)[:, None] * self.extract_bbar.T)

    def reconstruct_extended(self) -> np.ndarray:
        """Reassemble Hmat = sum_i lambda_i (K_i + K_ibar)."""
        two_n = 2 * self.n_modes
        out = np.zeros((two_n, two_n), dtype=complex)
        for lam, k in zip(self.lambdas, self.invariants):
            out += lam * bar_symmetrize(k)
        return out

    def to_dict(self) -> dict:
        """Document form of the diagonal representation: scalars as [re, im]
        lists, the extraction rows as their read-only complex arrays."""
        return {
            "lambdas": [[l.real, l.imag] for l in self.lambdas],
            "zero_point_energy": [self.zero_point_energy.real,
                                  self.zero_point_energy.imag],
            "hermitian_flags": [bool(x) for x in self.hermitian_flags],
            "zero_modes": [bool(x) for x in self.zero_modes],
            "extract_b": self.extract_b,
            "extract_bbar": self.extract_bbar,
        }


@dataclass(frozen=True)
class StabilityReport:
    """Regime verdict of :func:`classify`, and the one value its eigensolve leaves.

    ``eig_residual`` is max |M Hmat V - V Lambda| / ||M Hmat||_2 of the
    eigensolve.  Eigenvalues within ``cluster_tol`` merge into one of the
    ``clusters``, and lambda meets -lambda within it; |Im lambda| (|lambda|)
    at or below ``real_tol`` counts as real (zero).  ``pairs`` are the raw
    mode pairs in ``mode_frequencies`` order, left out of :meth:`to_dict`;
    :func:`normalize_pairs` turns them into the transform.
    """

    classification: StabilityClass
    h_eigenvalues: np.ndarray
    mode_frequencies: np.ndarray
    diagonalizable: bool
    zero_mode_count: int
    eig_residual: float
    cluster_tol: float
    real_tol: float
    clusters: tuple
    pairing_residuals: tuple
    warnings: tuple
    pairs: list = field(repr=False)

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
            for c in self.clusters
            if c.geometric < c.algebraic
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


# ---------------------------------------------------------------------------
# spectrum structure

def _nullity(mat: np.ndarray, tol_abs: float) -> tuple[int, float]:
    """Number of singular values <= tol_abs, plus the gap across the cut."""
    sv = np.linalg.svd(mat, compute_uv=False)
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


def _max_block(shifted: np.ndarray, algebraic: int) -> int:
    """Largest Jordan block size from the nullity sequence of powers.

    The rank cut for (A - value)^k scales with ||A - value||^k: the power of
    a defective direction is exactly zero in theory, so its computed
    singular values are roundoff noise relative to that scale, not to the
    (possibly collapsed) norm of the power itself.

    Raises
    ------
    Overflow
        That scale ||A - value||^k leaves the float range before the
        nullities settle.
    """
    base = max(float(np.linalg.svd(shifted, compute_uv=False).max()), np.finfo(float).tiny)
    power = np.eye(shifted.shape[0], dtype=complex)
    prev = 0
    size = 1
    for k in range(1, algebraic + 1):
        try:
            cut = _RANK_SAFETY * base ** k
        except OverflowError:
            raise Overflow(f"Jordan rank test overflows: ||M Hmat - lambda||^{k} = "
                           f"{base:.3e}^{k} is beyond the float range") from None
        power = power @ shifted
        null_k, _ = _nullity(power, cut)
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
        geo, gap = _nullity(shifted, _RANK_SAFETY * scale)
        geo = min(geo, alg)
        blk = _max_block(shifted, alg) if geo < alg else 1
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


def _eigen_pairs(dyn: DynamicalMatrix, tol_eig: float):
    """Solve M @ Hmat and match the spectrum into n (lambda, -lambda) pairs:
    the eigensolve step of :func:`classify`.

    Returns ``(pairs, fields)``: ``fields`` are the eigensolve's
    :class:`StabilityReport` fields, ``eig_residual``, ``cluster_tol``,
    ``real_tol``, ``clusters``, ``pairing_residuals`` and ``warnings``.
    Vectors come back raw (not rescaled); :func:`normalize_pairs` turns them
    into the unit-norm transform.  A defective matrix is not an error: its
    pairs come back raw, and its clusters record the Jordan blocks.

    Raises
    ------
    PairingFailure
        A cluster whose mirror holds no eigenvalue or differs in size, which
        a valid input cannot produce.
    """
    n = dyn.n_modes
    mdiag = metric_signs(n)
    # the largest singular value, as np.linalg.norm(·, 2) takes it
    scale = max(np.linalg.svd(dyn.matrix, compute_uv=False).max(), np.finfo(float).tiny)
    cluster_tol, real_tol, branch_tol = _cuts(scale, tol_eig)
    vecs, clusters, mirror, eig_residual = _analyze(dyn.matrix, scale, cluster_tol)
    residuals, warnings = [], []

    pairs = []
    for ka, kb in _match_clusters(clusters, mirror):
        info_a, idx_a = clusters[ka]
        if ka == kb:
            # zero cluster: partners live in the same eigenspace
            residuals.extend([abs(2 * info_a.value)] * (info_a.algebraic // 2))
            if info_a.algebraic % 2:
                raise PairingFailure("zero eigenvalue with odd multiplicity")
            if info_a.geometric < info_a.algebraic:
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
        if info_a.geometric < info_a.algebraic or info_b.geometric < info_b.algebraic:
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
    return pairs, dict(eig_residual=eig_residual, cluster_tol=cluster_tol, real_tol=real_tol,
                       clusters=tuple(info for info, _ in clusters),
                       pairing_residuals=tuple(residuals), warnings=tuple(warnings))


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
    carries the pair frequencies and ``real_tol``, so the diagonal forms
    read both from it.

    Raises
    ------
    NotDiagonalizable
        The report records a Jordan block, so no boson-diagonal form exists.
    NullNorm
        |c| below the fixed null-norm cut: a degenerate direction, or one
        next to a Jordan point.  Propagators and growth classes still apply.
    """
    if not report.diagonalizable:
        bad = [c for c in report.clusters if c.geometric < c.algebraic]
        raise NotDiagonalizable(
            "Jordan blocks at eigenvalue(s) "
            + ", ".join(f"{c.value:.6g} (block size {c.max_block})" for c in bad)
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
    lams = np.array([p.lam for p in pairs])
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
    return BogoliubovTransform(w_full, lams, report.real_tol)


# ---------------------------------------------------------------------------
# classification

def classify(form: QuadraticForm, tol_eig: float = 1e-9) -> StabilityReport:
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
    ext = extended_matrix(form)
    h_eigs = np.linalg.eigvalsh(ext.matrix)
    pairs, fields = _eigen_pairs(dynamical_matrix(ext), tol_eig)
    real_tol = fields["real_tol"]
    freqs = np.array([p.lam for p in pairs])
    any_complex = bool((np.abs(freqs.imag) > real_tol).any())
    zero_modes = int((np.abs(freqs) <= real_tol).sum())
    diagonalizable = not any(c.geometric < c.algebraic for c in fields["clusters"])
    if not diagonalizable:
        label = StabilityClass.NON_DIAGONALIZABLE
    elif any_complex:
        label = StabilityClass.UNSTABLE_COMPLEX
    elif h_eigs.min() > real_tol:
        label = StabilityClass.POSITIVE_DEFINITE
    else:
        label = StabilityClass.STABLE_NON_POSITIVE
    return StabilityReport(
        classification=label,
        h_eigenvalues=h_eigs,
        mode_frequencies=freqs,
        diagonalizable=diagonalizable,
        zero_mode_count=zero_modes,
        pairs=pairs,
        **fields,
    )


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


def _stack_fast_path(hmats: np.ndarray, tol_eig: float):
    """Batched classify of finite extended matrices: (taken, code, freqs, min sigma).

    One call each to eigvalsh, the 2-norm and eig serves the stack; these
    are the functions ``classify`` calls per form, so they give its bits, and
    every complex magnitude is :func:`_magnitude`, the bits of ``abs``.
    ``taken`` marks the points whose verdict cannot hinge on a tie, where
    the steps below replay ``_eigen_pairs`` exactly: every group of the
    spectrum clustered with its negation is one pair {x, -y} of distinct
    eigenvalues, so every cluster is one eigenvalue, none is a zero
    cluster, and the mirror of x is y.  Both members of a pair lie on the
    same side of ``_eigen_pairs``' real-branch cut, and every real pair has
    |M-norm| > ``_NEAR_DEFECT_NORM``, so the sign that orients it is far
    above roundoff.  Rows not taken hold garbage.
    """
    count, two_n = hmats.shape[:2]
    n = two_n // 2
    signs = metric_signs(n)
    rows = np.arange(count)[:, None]
    freqs = np.zeros((count, n), dtype=complex)
    dyn = signs[:, None] * hmats
    try:
        min_sigma = np.linalg.eigvalsh(hmats).min(axis=1)
        scale = np.maximum(np.linalg.norm(dyn, 2, axis=(1, 2)), np.finfo(float).tiny)
        evals, vecs = np.linalg.eig(dyn)
    except np.linalg.LinAlgError:  # one point failed to converge; classify meets it alone
        return np.zeros(count, dtype=bool), np.zeros(count, dtype=int), freqs, np.zeros(count)
    cluster_tol, real_tol, branch_tol = _cuts(scale, tol_eig)
    real_tol, branch_tol = real_tol[:, None], branch_tol[:, None]
    # a singleton cluster's value is the mean of one eigenvalue, which turns
    # -0.0 into +0.0 exactly as adding 0.0 does
    values = evals + 0.0
    spread = np.where(~np.eye(two_n, dtype=bool),
                      _magnitude(evals[:, :, None] - evals[:, None, :]), np.inf)
    # |x + y| is the distance of x to -y in the doubled spectrum, x to -x
    # on the diagonal; it is symmetric, so one link per row makes every
    # group a pair, and the link is the row's nearest
    negation = _magnitude(values[:, :, None] + values[:, None, :])
    partner = negation.argmin(axis=2)
    taken = (np.isfinite(scale)
             & (spread.min(axis=(1, 2)) > cluster_tol)
             & ((negation <= cluster_tol[:, None, None]).sum(axis=2) == 1).all(axis=1)
             & (partner != np.arange(two_n)).all(axis=1))
    sel = np.flatnonzero(taken)
    if sel.size == 0:
        return taken, np.zeros(count, dtype=int), freqs, min_sigma
    values, vecs, partner = values[sel], vecs[sel], partner[sel]
    real_tol, branch_tol = real_tol[sel], branch_tol[sel]
    rows = rows[: sel.size]
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
    m_norm = (signs[:, None] * (w.real ** 2 + w.imag ** 2)).sum(axis=1)
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
    positive = min_sigma[sel] > real_tol[:, 0]
    code = np.zeros(count, dtype=int)
    code[sel] = np.where(any_complex, CLASS_CODES[StabilityClass.UNSTABLE_COMPLEX],
                         np.where(positive, CLASS_CODES[StabilityClass.POSITIVE_DEFINITE],
                                  CLASS_CODES[StabilityClass.STABLE_NON_POSITIVE]))
    freqs[sel] = lam
    taken[sel] = ok
    return taken, code, freqs, min_sigma


def classify_stack(hmats, scalar: Callable[[int], StabilityReport],
                   tol_eig: float = 1e-9) -> StabilityColumns:
    """:func:`classify` over a stack of extended matrices, shape (N, 2n, 2n).

    Points whose entries and 2-norm are finite and whose spectrum leaves no
    choice to a tie take one batched eigensolve (see the module notes); the
    rest (Jordan points, zero or degenerate clusters, near-null M-norms,
    non-finite input) go through ``scalar(i)``, the caller's ``classify``
    of the i-th point's form, so their verdicts and exceptions are classify's.
    Exceptions are raised at the first such point in stack order.
    """
    hmats = np.asarray(hmats, dtype=complex)
    count, two_n = hmats.shape[:2]
    n = two_n // 2
    finite = np.flatnonzero(np.isfinite(hmats).all(axis=(1, 2)))
    code = np.zeros(count, dtype=int)
    freqs = np.zeros((count, n), dtype=complex)
    min_sigma = np.zeros(count)
    taken = np.zeros(count, dtype=bool)
    if finite.size:
        taken[finite], code[finite], freqs[finite], min_sigma[finite] = _stack_fast_path(
            hmats[finite], tol_eig)
    for i in np.flatnonzero(~taken):
        report = scalar(i)
        code[i] = CLASS_CODES[report.classification]
        freqs[i] = report.mode_frequencies
        min_sigma[i] = report.h_eigenvalues.min()
    return StabilityColumns(code, freqs, min_sigma, np.abs(freqs.imag).max(axis=1))


def sqrt_metric_spectrum(form: QuadraticForm, tol_eig: float = 1e-9) -> np.ndarray:
    """Spectrum of the hermitian matrix sqrt(Hmat) M sqrt(Hmat).

    For positive semidefinite forms this equals the spectrum of M @ Hmat,
    which proves all frequencies real; it serves as an independent check of
    the non-hermitian eigensolve.

    Raises
    ------
    WrongRegime
        Hmat has an eigenvalue below minus the positivity cut of
        :func:`classify`, tol_eig * max(||Hmat||_2, 1).
    """
    h = extended_matrix(form).matrix
    w, v = np.linalg.eigh(h)
    floor = -_cuts(np.abs(w).max(), tol_eig)[1]
    if w.min() < floor:
        raise WrongRegime(
            f"form is not positive semidefinite (min eigenvalue {w.min():.3e})"
        )
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    sandwich = (root * metric_signs(form.n_modes)) @ root
    return np.linalg.eigvalsh(sandwich)
