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

:func:`classify` is the one entry into a form's eigensolve; the pairs and
diagnostics of its :class:`StabilityReport` are what every consumer reads.
:func:`classify_stack` classifies a stack of forms with one batched
eigensolve.  It replays :func:`classify`'s choices only where they cannot
hinge on a tie: every eigenvalue its own cluster, away from zero, with one
mutual negation partner and no near-null M-norm.  Every other point goes
through :func:`classify` itself.
"""

from __future__ import annotations

import bisect
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .core import (
    QuadraticForm,
    DynamicalMatrix,
    bar,
    bar_vector,
    dynamical_matrix,
    extended_matrix,
    metric_signs,
)
from .errors import NotDiagonalizable, NullNorm, Overflow, PairingFailure, WrongRegime

# Defective 2-blocks split their eigenvalues by O(sqrt(eps) ||Ht||) under
# roundoff; the cluster radius (this times ||Ht||) must absorb that.
_CLUSTER_SAFETY = 32.0 * np.sqrt(np.finfo(float).eps)
# Rank cuts sit above the cluster radius: members of one cluster may be split
# by up to that radius without being distinct eigenvalues.
_RANK_SAFETY = 4.0 * _CLUSTER_SAFETY
# Generalized norms at or below this are treated as vanishing.
_NULL_NORM = 1e-8
# Soft alarm on nearly vanishing generalized norms (adjacent to a Jordan point).
_NEAR_DEFECT_NORM = 1e-3


@dataclass(frozen=True)
class Tolerances:
    """The one numerical knob: ``eig`` sets the realness, zero and positivity
    cut eig * max(||M Hmat||_2, 1).  The other cuts are fixed because roundoff
    sets them: the cluster radius 32 sqrt(u) ||M Hmat||_2 absorbs the
    O(sqrt(u)) split of a Jordan block, rank tests cut at 4x that radius,
    and generalized norms at or below 1e-8 count as vanishing.
    """

    eig: float = 1e-9


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
    norm_ok: bool
    hermitian_pair: bool


@dataclass(frozen=True)
class ClusterInfo:
    """Multiplicity data for one distinct eigenvalue of M @ Hmat."""

    value: complex
    algebraic: int
    geometric: int
    max_block: int
    rank_gap: float


@dataclass
class EigenDiagnostics:
    eig_residual: float
    cluster_tol: float  # eigenvalues this close merge; lambda meets -lambda within it
    real_tol: float  # |Im lambda| (|lambda|) at or below it counts as real (zero)
    pairing_residuals: list = field(default_factory=list)
    defective: bool = False
    clusters: list = field(default_factory=list)
    warnings: list = field(default_factory=list)


@dataclass(frozen=True)
class BogoliubovTransform:
    """Normalized transform W with columns (w_1..w_n, w_1bar..w_nbar).

    Satisfies W M Wbar = M; the inverse is the metric conjugate M Wbar M,
    no matrix inversion involved.
    """

    W: np.ndarray
    W_inv: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.W.shape[0] // 2

    @cached_property
    def metric_residual(self) -> float:
        """||W M Wbar - M||_2, the metric identity's defect, computed on first read."""
        mdiag = metric_signs(self.n_modes)
        return float(np.linalg.norm((self.W * mdiag) @ bar(self.W) - np.diag(mdiag), 2))


@dataclass(frozen=True)
class StabilityReport:
    """Regime verdict of :func:`classify`, and the one value its eigensolve leaves.
    ``pairs`` are the raw mode pairs in ``mode_frequencies`` order, left out of
    :meth:`to_dict`; :func:`normalize_pairs` turns them into the transform.
    """

    classification: StabilityClass
    h_eigenvalues: np.ndarray
    mode_frequencies: np.ndarray
    diagonalizable: bool
    zero_mode_count: int
    diagnostics: EigenDiagnostics
    pairs: list = field(default_factory=list, repr=False)

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
            for c in self.diagnostics.clusters
            if c.geometric < c.algebraic
        ]
        return {
            "classification": self.classification.value,
            "diagonalizable": self.diagonalizable,
            "zero_mode_count": self.zero_mode_count,
            "mode_frequencies": [[l.real, l.imag] for l in self.mode_frequencies],
            "h_eigenvalues": [float(x) for x in self.h_eigenvalues],
            "pairing_residuals": [float(x) for x in self.diagnostics.pairing_residuals],
            "eig_residual": self.diagnostics.eig_residual,
            "defects": defects,
            "warnings": list(self.diagnostics.warnings),
        }


# ---------------------------------------------------------------------------
# spectrum structure

def _nullity(mat: np.ndarray, tol_abs: float) -> tuple[int, float]:
    """Number of singular values <= tol_abs, plus the gap across the cut."""
    sv = sla.svdvals(mat)
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
    those with abs(a - b) <= radius.
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

    for p, i in enumerate(order):
        for q in range(p + 1, m):
            j = order[q]
            if key[j] - key[i] > radius:
                break
            if abs(vals[i] - vals[j]) <= radius:
                parent[find(i)] = find(j)
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
    base = max(float(sla.svdvals(shifted).max()), np.finfo(float).tiny)
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


def _analyze(matrix: np.ndarray, tol: Tolerances):
    """Eigendecompose, cluster and rank-test: (vecs, clusters, diagnostics)."""
    scale = max(np.linalg.norm(matrix, 2), np.finfo(float).tiny)
    evals, vecs = sla.eig(matrix)
    residual = np.abs(matrix @ vecs - vecs * evals[None, :]).max() / scale
    cluster_tol = _CLUSTER_SAFETY * scale
    clusters = []
    for idx in _cluster_indices(evals, cluster_tol):
        value = complex(evals[idx].mean())
        alg = len(idx)
        if alg == 1:
            clusters.append((ClusterInfo(value, 1, 1, 1, np.inf), idx))
            continue
        shifted = matrix - value * np.eye(matrix.shape[0])
        geo, gap = _nullity(shifted, _RANK_SAFETY * scale)
        geo = min(geo, alg)
        blk = _max_block(shifted, alg) if geo < alg else 1
        clusters.append((ClusterInfo(value, alg, geo, blk, gap), idx))
    infos = [c for c, _ in clusters]
    diags = EigenDiagnostics(eig_residual=residual, cluster_tol=cluster_tol,
                             real_tol=tol.eig * max(scale, 1.0), clusters=infos,
                             defective=any(c.geometric < c.algebraic for c in infos))
    return vecs, clusters, diags


# ---------------------------------------------------------------------------
# pairing

def _nearest_unused(values: list, used: list, target: complex, candidates):
    """(index, distance) of the unused candidate nearest to ``target``, the
    first one at a tie; (None, inf) when none is left."""
    best, best_d = None, np.inf
    for j in candidates:
        if not used[j]:
            d = abs(values[j] - target)
            if d < best_d:
                best, best_d = j, d
    return best, best_d


def _match_clusters(clusters, cluster_tol: float):
    """Match clusters into (c, c') groups with value(c') = -value(c).

    Zero clusters self-match.  Greedy over decreasing |value|: each cluster
    takes the nearest unused one to its negation, the first at a tie.  A
    missing or size-mismatched partner means the eigensolve lost the spectral
    symmetry.
    """
    values = [info.value for info, _ in clusters]
    # a partner within the pairing radius 2 cluster_tol has its key within
    # that radius of -key, inside the wider window searched below
    key = _sweep_key(values)
    order = sorted(range(len(values)), key=key.__getitem__)
    ladder = [key[k] for k in order]
    width = 4.0 * cluster_tol
    used = [False] * len(clusters)
    groups = []
    for k in sorted(range(len(clusters)), key=lambda k: -abs(values[k])):
        if used[k]:
            continue
        used[k] = True
        info = clusters[k][0]
        # self-match exactly when +v and -v would have been merged into one
        # cluster (|v - (-v)| <= cluster_tol), keeping the two radii consistent
        if abs(info.value) <= 0.5 * cluster_tol:
            groups.append((k, k))
            continue
        window = order[bisect.bisect_left(ladder, -key[k] - width):
                       bisect.bisect_right(ladder, -key[k] + width)]
        best, best_d = _nearest_unused(values, used, -info.value, sorted(window))
        if best is None or best_d > 2.0 * cluster_tol:
            _, best_d = _nearest_unused(values, used, -info.value, range(len(clusters)))
            raise PairingFailure(
                f"eigenvalue {info.value} has no partner near {-info.value} "
                f"(best distance {best_d:.3e})"
            )
        if clusters[best][0].algebraic != info.algebraic:
            raise PairingFailure(
                f"multiplicity mismatch between {info.value} and "
                f"{clusters[best][0].value}"
            )
        used[best] = True
        groups.append((k, best))
    return groups


def _real_branch_pairs(vecs_plus, value, mdiag, diags):
    """Pairs from one real eigenvalue cluster (or a self-paired zero cluster).

    The M-Gram matrix on the eigenspace is diagonalized; positive directions
    keep +value as the mode frequency, negative directions belong to modes
    whose representative is the T-conjugate partner at -value.  Returns
    ``(pair, gram_eigenvalue)`` tuples.
    """
    out = []
    gram = vecs_plus.conj().T @ (mdiag[:, None] * vecs_plus)
    gram = 0.5 * (gram + gram.conj().T)
    d, q = np.linalg.eigh(gram)
    for k in range(d.size):
        w = vecs_plus @ q[:, k]
        ok = abs(d[k]) > _NULL_NORM
        if not ok:
            diags.warnings.append(
                f"near-null M-norm {d[k]:.3e} at eigenvalue {value:.6g}; "
                "input is adjacent to a non-diagonalizable point"
            )
        elif abs(d[k]) < _NEAR_DEFECT_NORM:
            diags.warnings.append(
                f"small M-norm {d[k]:.3e} at eigenvalue {value:.6g}; "
                "results may be ill-conditioned (near-defective input)"
            )
        if d[k] >= 0:
            out.append((ModePair(value, w, bar_vector(w.conj()), ok, True), d[k]))
        else:
            out.append((ModePair(-value, bar_vector(w.conj()), w, ok, True), d[k]))
    return out


def _complex_branch_pairs(vp, vm, lam, mdiag, diags):
    """Pairs for a complex eigenvalue cluster and its negation partner."""
    m = vp.shape[1]
    if m == 1:
        wp, wm = vp[:, 0], vm[:, 0]
        c = bar_vector(wm) @ (mdiag * wp)
        ok = abs(c) > _NULL_NORM
        if not ok:
            diags.warnings.append(
                f"near-null generalized norm {abs(c):.3e} at eigenvalue {lam:.6g}"
            )
        elif abs(c) < _NEAR_DEFECT_NORM:
            diags.warnings.append(
                f"small generalized norm {abs(c):.3e} at eigenvalue {lam:.6g}; "
                "near-defective input"
            )
        return [ModePair(lam, wp, wm, ok, False)]
    # degenerate complex eigenvalue: bi-orthogonalize the two eigenspaces
    # against the bilinear pairing P_kl = bar(vm_k) M vp_l
    pmat = np.array([[bar_vector(vm[:, k]) @ (mdiag * vp[:, l]) for l in range(m)]
                     for k in range(m)])
    smin = sla.svdvals(pmat).min()
    if smin <= _NULL_NORM:
        diags.warnings.extend([f"degenerate eigenvalue {lam:.6g} has a near-singular pairing"] * m)
        return [ModePair(lam, vp[:, k], vm[:, k], False, False) for k in range(m)]
    vp = vp @ np.linalg.inv(pmat)
    return [ModePair(lam, vp[:, k], vm[:, k], True, False) for k in range(m)]


def _eigen_pairs(dyn: DynamicalMatrix, tol: Tolerances):
    """Solve M @ Hmat and match the spectrum into n (lambda, -lambda) pairs:
    the eigensolve step of :func:`classify`.

    Returns ``(pairs, diagnostics)``.  Vectors come back raw (not rescaled);
    :func:`normalize_pairs` turns them into the unit-norm transform.
    A defective matrix is not an error: affected pairs come back with
    ``norm_ok=False`` and ``diagnostics.defective`` set.

    Raises
    ------
    PairingFailure
        No negation partner within the pairing radius, which a valid input
        cannot produce.
    """
    n = dyn.n_modes
    mdiag = metric_signs(n)
    vecs, clusters, diags = _analyze(dyn.matrix, tol)
    # the real branch needs lambda and its conjugate in one cluster: a pair
    # only inside the realness cut has a null M-norm, so it is complex here
    real_tol = min(diags.real_tol, 0.5 * diags.cluster_tol)

    pairs = []
    for ka, kb in _match_clusters(clusters, diags.cluster_tol):
        info_a, idx_a = clusters[ka]
        if ka == kb:
            # zero cluster: partners live in the same eigenspace
            diags.pairing_residuals.extend([abs(2 * info_a.value)] * (info_a.algebraic // 2))
            if info_a.algebraic % 2:
                raise PairingFailure("zero eigenvalue with odd multiplicity")
            if info_a.geometric < info_a.algebraic:
                for k in range(info_a.algebraic // 2):
                    pairs.append(ModePair(info_a.value, vecs[:, idx_a[k]],
                                          vecs[:, idx_a[-1 - k]], False, False))
                continue
            graded = _real_branch_pairs(vecs[:, idx_a], complex(info_a.value.real),
                                        mdiag, diags)
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
        diags.pairing_residuals.extend(
            [abs(info_a.value + info_b.value)] * info_a.algebraic)
        # orient: a = the +lambda side
        if (abs(info_a.value.imag) > real_tol and info_a.value.imag < info_b.value.imag) or (
                abs(info_a.value.imag) <= real_tol and info_a.value.real < info_b.value.real):
            info_a, idx_a, info_b, idx_b = info_b, idx_b, info_a, idx_a
        if info_a.geometric < info_a.algebraic or info_b.geometric < info_b.algebraic:
            for k in range(info_a.algebraic):
                pairs.append(ModePair(complex(info_a.value), vecs[:, idx_a[k]],
                                      vecs[:, idx_b[k]], False, False))
            continue
        if abs(info_a.value.imag) <= real_tol:
            pairs.extend(p for p, _ in _real_branch_pairs(
                vecs[:, idx_a], complex(info_a.value.real), mdiag, diags))
        else:
            pairs.extend(_complex_branch_pairs(vecs[:, idx_a], vecs[:, idx_b],
                                               complex(info_a.value), mdiag, diags))

    if len(pairs) != n:
        raise PairingFailure(f"expected {n} pairs, built {len(pairs)}")
    pairs.sort(key=lambda p: (-p.lam.real, -p.lam.imag))
    return pairs, diags


# ---------------------------------------------------------------------------
# normalization

def normalize_pairs(pairs, diags: EigenDiagnostics) -> BogoliubovTransform:
    """Rescale pairs to unit generalized norm and assemble the transform.

    Every pair is scaled by the principal branch of 1/sqrt(c) with
    c = wbar_minus M w_plus; hermitian pairs re-derive the partner as
    T w_plus* so the norm reduces to the usual positive one.  Conjugate
    complex pairs (lambda, -lambda*) are linked afterwards so the two
    quadruple members are exact images of each other, w' = i T w*.
    ``diags`` is the eigensolve's (``report.diagnostics``): a pair with
    |Re lambda| <= ``real_tol`` is its own quadruple, and partners are
    matched within ``cluster_tol``.

    Raises
    ------
    NotDiagonalizable
        ``diags`` records a Jordan block, so no boson-diagonal form exists.
    NullNorm
        |c| below the fixed null-norm cut: a degenerate direction, or one
        next to a Jordan point.  Propagators and growth classes still apply.
    """
    if diags.defective:
        bad = [c for c in diags.clusters if c.geometric < c.algebraic]
        raise NotDiagonalizable(
            "Jordan blocks at eigenvalue(s) "
            + ", ".join(f"{c.value:.6g} (block size {c.max_block})" for c in bad)
        )
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
            if abs(c) <= _NULL_NORM * (np.linalg.norm(p.w_plus) ** 2):
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
            if abs(c) <= _NULL_NORM * np.linalg.norm(p.w_plus) * np.linalg.norm(p.w_minus):
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
        if p.hermitian_pair or i in linked or abs(p.lam.real) <= diags.real_tol:
            continue
        target = -np.conj(p.lam)
        cand = [j for j in range(n) if j != i and j not in linked
                and not pairs[j].hermitian_pair
                and abs(lams[j] - target) <= diags.cluster_tol]
        if len(cand) == 1:
            j = cand[0]
            cols_plus[:, j] = 1j * bar_vector(cols_plus[:, i].conj())
            cols_minus[:, j] = 1j * bar_vector(cols_minus[:, i].conj())
            linked.update((i, j))

    w_full = np.concatenate([cols_plus, cols_minus], axis=1)
    return BogoliubovTransform(w_full, mdiag[:, None] * bar(w_full) * mdiag)


# ---------------------------------------------------------------------------
# classification

def classify(form: QuadraticForm, tol: Tolerances = Tolerances()) -> StabilityReport:
    """Stability regime of a form.

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
    pairs, diags = _eigen_pairs(dynamical_matrix(ext), tol)
    freqs = np.array([p.lam for p in pairs])
    any_complex = bool(np.any(np.abs(freqs.imag) > diags.real_tol))
    zero_modes = int(np.sum(np.abs(freqs) <= diags.real_tol))
    diagonalizable = not diags.defective
    if not diagonalizable:
        label = StabilityClass.NON_DIAGONALIZABLE
    elif any_complex:
        label = StabilityClass.UNSTABLE_COMPLEX
    elif h_eigs.min() > diags.real_tol:
        label = StabilityClass.POSITIVE_DEFINITE
    else:
        label = StabilityClass.STABLE_NON_POSITIVE
    return StabilityReport(
        classification=label,
        h_eigenvalues=h_eigs,
        mode_frequencies=freqs,
        diagonalizable=diagonalizable,
        zero_mode_count=zero_modes,
        diagnostics=diags,
        pairs=pairs,
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


def _stack_fast_path(hmats: np.ndarray, tol: Tolerances):
    """Batched classify of finite extended matrices: (taken, code, freqs, min sigma).

    One call each to eigvalsh, the 2-norm and eig serves the stack; these
    give the scalar calls' bits (``_analyze`` uses ``scipy.linalg.eig``, the
    same LAPACK driver).  ``taken`` marks the points whose verdict cannot
    hinge on a tie, where the steps below replay ``_eigen_pairs`` exactly:
    every eigenvalue is its own cluster, none is a zero cluster, and each
    has one mutual negation partner inside the pairing radius, so the
    greedy ``_match_clusters`` can only pick that partner.  Both members of
    a pair lie on the same side of ``_eigen_pairs``' real-branch cut, and
    every real pair has |M-norm| > ``_NEAR_DEFECT_NORM``, so the sign that
    orients it is far above roundoff.  Rows not taken hold garbage.
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
    cluster_tol = _CLUSTER_SAFETY * scale
    real_tol = (tol.eig * np.maximum(scale, 1.0))[:, None]
    # a singleton cluster's value is the mean of one eigenvalue, which turns
    # -0.0 into +0.0 exactly as adding 0.0 does
    values = evals + 0.0
    off = ~np.eye(two_n, dtype=bool)
    spread = np.where(off, np.abs(evals[:, :, None] - evals[:, None, :]), np.inf)
    negation = np.where(off, np.abs(values[:, :, None] + values[:, None, :]), np.inf)
    partner = negation.argmin(axis=2)
    taken = (np.isfinite(scale)
             & (spread.min(axis=(1, 2)) > cluster_tol)
             & (np.abs(values) > 0.5 * cluster_tol[:, None]).all(axis=1)
             & ((negation <= 2.0 * cluster_tol[:, None, None]).sum(axis=2) == 1).all(axis=1)
             & (partner[rows, partner] == np.arange(two_n)).all(axis=1))
    sel = np.flatnonzero(taken)
    if sel.size == 0:
        return taken, np.zeros(count, dtype=int), freqs, min_sigma
    values, vecs, partner, real_tol = values[sel], vecs[sel], partner[sel], real_tol[sel]
    branch_tol = np.minimum(real_tol, 0.5 * cluster_tol[sel][:, None])  # as in _eigen_pairs
    rows = rows[: sel.size]
    # _match_clusters visits clusters by decreasing |value| (a stable sort);
    # the first member of each pair it meets leads the pair
    order = np.argsort(-np.abs(values), axis=1, kind="stable")
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


def classify_stack(hmats, tol: Tolerances,
                   scalar: Callable[[int], StabilityReport]) -> StabilityColumns:
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
            hmats[finite], tol)
    for i in np.flatnonzero(~taken):
        report = scalar(i)
        code[i] = CLASS_CODES[report.classification]
        freqs[i] = report.mode_frequencies
        min_sigma[i] = report.h_eigenvalues.min()
    return StabilityColumns(code, freqs, min_sigma, np.abs(freqs.imag).max(axis=1))


def sqrt_metric_spectrum(form: QuadraticForm, tol: Tolerances = Tolerances()) -> np.ndarray:
    """Spectrum of the hermitian matrix sqrt(Hmat) M sqrt(Hmat).

    For positive semidefinite forms this equals the spectrum of M @ Hmat,
    which proves all frequencies real; it serves as an independent check of
    the non-hermitian eigensolve.

    Raises
    ------
    WrongRegime
        Hmat has an eigenvalue below -tol.eig * ||Hmat||.
    """
    h = extended_matrix(form).matrix
    w, v = np.linalg.eigh(h)
    floor = -tol.eig * max(np.abs(w).max(), 1.0)
    if w.min() < floor:
        raise WrongRegime(
            f"form is not positive semidefinite (min eigenvalue {w.min():.3e})"
        )
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    sandwich = (root * metric_signs(form.n_modes)) @ root
    return np.linalg.eigvalsh(sandwich)
