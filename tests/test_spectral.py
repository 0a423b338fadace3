import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

import quadboson as qb
from quadboson import spectral
from quadboson.cli import _mode_table
from quadboson.core import DynamicalMatrix
from quadboson.errors import NotDiagonalizable, NullNorm, PairingFailure, WrongRegime
from quadboson.spectral import ModePair

from conftest import bcs, random_form


def test_single_mode_identity_transform():
    form = qb.build_form([[1.0]], [[0.0]])
    report = qb.classify(form)
    pairs, diags = report.pairs, report.diagnostics
    assert len(pairs) == 1
    assert pairs[0].lam == pytest.approx(1.0)
    assert pairs[0].hermitian_pair
    assert diags.eig_residual <= 1e-12
    assert max(diags.pairing_residuals) <= 1e-12
    bt = qb.normalize_pairs(pairs, diags)
    assert np.abs(np.abs(bt.W) - np.eye(2)).max() <= 1e-12
    assert bt.metric_residual <= 1e-12


def test_representative_selection_uses_norm_sign():
    # in the indefinite-but-stable window the lower mode has a negative
    # frequency; +|lambda| is also an eigenvalue but with the wrong norm sign
    pairs = qb.classify(qb.bcs_form(bcs(0.97))).pairs
    lams = [p.lam for p in pairs]
    assert lams[0] == pytest.approx(0.5431049156228644, abs=1e-12)
    assert lams[1] == pytest.approx(-0.05689508437713556, abs=1e-12)
    mdiag = np.array([1.0, 1.0, -1.0, -1.0])
    for p in pairs:
        usual = (p.w_plus.conj() @ (mdiag * p.w_plus)).real
        assert usual > 0


def test_complex_representatives_upper_half_plane():
    pairs = qb.classify(qb.bcs_form(bcs(1.2))).pairs
    lams = np.array([p.lam for p in pairs])
    assert np.allclose(lams.imag, 0.6633249580710799, atol=1e-10)
    assert np.allclose(np.sort(lams.real), [-0.3, 0.3], atol=1e-10)
    assert not any(p.hermitian_pair for p in pairs)


def test_defective_case_forwarded_not_raised():
    report = qb.classify(qb.bcs_form(bcs(1.0)))
    pairs, diags = report.pairs, report.diagnostics
    assert diags.defective
    assert len(pairs) == 2
    assert not any(p.norm_ok for p in pairs)
    bad = [c for c in diags.clusters if c.geometric < c.algebraic]
    assert len(bad) == 2
    assert all(c.algebraic == 2 and c.geometric == 1 for c in bad)
    with pytest.raises(NotDiagonalizable, match="Jordan blocks at eigenvalue"):
        qb.normalize_pairs(pairs, diags)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.sampled_from([0.5, -0.5]))
def test_metric_identity_random(seed, n, shift):
    rng = np.random.default_rng(seed)
    form = random_form(rng, n, shift=shift)
    report = qb.classify(form)
    pairs, bt = report.pairs, qb.normalize_pairs(report.pairs, report.diagnostics)
    assert bt.metric_residual <= 1e-10
    assert np.abs(bt.W @ bt.W_inv - np.eye(2 * n)).max() <= 1e-9
    # both members of every pair are genuine eigenvectors
    ht = qb.dynamical_matrix(form).matrix
    scale = max(np.linalg.norm(ht, 2), 1.0)
    for p in pairs:
        res_p = np.abs(ht @ p.w_plus - p.lam * p.w_plus).max()
        res_m = np.abs(ht @ p.w_minus + p.lam * p.w_minus).max()
        assert res_p <= 1e-8 * scale * np.linalg.norm(p.w_plus)
        assert res_m <= 1e-8 * scale * np.linalg.norm(p.w_minus)
    # diagonalization: Wbar H W = diag(lam, lam)
    lams = np.array([p.lam for p in pairs])
    h = qb.extended_matrix(form).matrix
    target = np.diag(np.concatenate([lams, lams]))
    assert np.abs(qb.bar(bt.W) @ h @ bt.W - target).max() <= 1e-8


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_hermitian_limit_real_spectrum(seed, n):
    # positive forms have real frequencies and Wbar = W+
    rng = np.random.default_rng(seed)
    form = random_form(rng, n, shift=0.4)
    report = qb.classify(form)
    pairs, bt = report.pairs, qb.normalize_pairs(report.pairs, report.diagnostics)
    assert all(p.hermitian_pair for p in pairs)
    assert np.abs(qb.bar(bt.W) - bt.W.conj().T).max() <= 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.sampled_from([0.3, -0.6]))
def test_spectrum_symmetry_under_negation_and_conjugation(seed, n, shift):
    rng = np.random.default_rng(seed)
    form = random_form(rng, n, shift=shift)
    ev = np.linalg.eigvals(qb.dynamical_matrix(form).matrix)
    scale = max(np.abs(ev).max(), 1.0)

    def match(target):
        return all(np.abs(ev - t).min() <= 1e-8 * scale for t in target)

    assert match(-ev)
    assert match(ev.conj())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.sampled_from([0.5, -0.5]))
def test_conjugate_eigenvector_map(seed, n, shift):
    # T w* is an eigenvector with eigenvalue -lambda*
    rng = np.random.default_rng(seed)
    form = random_form(rng, n, shift=shift)
    ht = qb.dynamical_matrix(form).matrix
    swap = qb.block_swap(n)
    pairs = qb.classify(form).pairs
    scale = max(np.linalg.norm(ht, 2), 1.0)
    for p in pairs:
        w = swap @ p.w_plus.conj()
        res = np.abs(ht @ w - (-np.conj(p.lam)) * w).max()
        assert res <= 1e-8 * scale * np.linalg.norm(w)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_sqrt_sandwich_identity(seed, n):
    # for positive semidefinite forms the generator spectrum matches the
    # hermitian sqrt(H) M sqrt(H), hence is real
    rng = np.random.default_rng(seed)
    form = random_form(rng, n, shift=0.2)
    ev = np.linalg.eigvals(qb.dynamical_matrix(form).matrix)
    assert np.abs(ev.imag).max() <= 1e-9 * max(np.abs(ev).max(), 1.0)
    ref = qb.sqrt_metric_spectrum(form)
    assert np.abs(np.sort(ev.real) - np.sort(ref)).max() <= 1e-9 * max(
        np.abs(ref).max(), 1.0)


def test_sqrt_sandwich_rejects_indefinite(rng):
    form = random_form(rng, 2, shift=-0.5)
    with pytest.raises(WrongRegime):
        qb.sqrt_metric_spectrum(form)


def test_degenerate_identical_oscillators():
    form = qb.build_form(np.eye(2), np.zeros((2, 2)))
    report = qb.classify(form)
    pairs, bt = report.pairs, qb.normalize_pairs(report.pairs, report.diagnostics)
    assert [p.lam for p in pairs] == [pytest.approx(1.0)] * 2
    assert bt.metric_residual <= 1e-12


def test_mixed_signature_degenerate_eigenvalue():
    # +omega carries one positive-norm and one negative-norm direction;
    # the second mode's representative is -omega
    form = qb.build_form(np.diag([1.0, -1.0]), np.zeros((2, 2)))
    report = qb.classify(form)
    pairs, bt = report.pairs, qb.normalize_pairs(report.pairs, report.diagnostics)
    lams = sorted(p.lam.real for p in pairs)
    assert lams == [pytest.approx(-1.0), pytest.approx(1.0)]
    assert report.classification is qb.StabilityClass.STABLE_NON_POSITIVE


def test_zero_mode_at_positivity_threshold():
    form = qb.bcs_form(bcs(float(np.sqrt(0.91))))
    report = qb.classify(form)
    assert report.classification is qb.StabilityClass.STABLE_NON_POSITIVE
    assert report.diagonalizable
    assert report.zero_mode_count == 1
    pairs, bt = report.pairs, qb.normalize_pairs(report.pairs, report.diagnostics)
    assert bt.metric_residual <= 1e-9
    # the finite transform still carries the analytic u, v at alpha = gamma
    u = np.sqrt((1.0 + 0.3) / 0.6)
    assert abs(bt.W[0, 0]) == pytest.approx(u, abs=1e-9)


def test_pairing_failure_on_asymmetric_spectrum():
    # no valid form reaches this branch, so the eigensolve step meets a fake matrix
    fake = DynamicalMatrix(1, np.diag([1.0, 2.0]).astype(complex))
    with pytest.raises(PairingFailure):
        spectral._eigen_pairs(fake, qb.Tolerances())


def test_null_norm_on_synthetic_pair():
    w_plus = np.array([1.0, 0.0], dtype=complex)
    w_minus = np.array([1.0, 0.0], dtype=complex)  # bar(w-) M w+ = 0
    pair = ModePair(1.0 + 0j, w_plus, w_minus, False, False)
    with pytest.raises(NullNorm):
        qb.normalize_pairs([pair], qb.EigenDiagnostics(0.0, cluster_tol=0.0, real_tol=0.0))


def test_near_defective_warning():
    diags = qb.classify(qb.bcs_form(bcs(1.0 - 1e-7))).diagnostics
    assert any("near" in w or "small" in w for w in diags.warnings)


def test_classification_four_regimes():
    cases = [
        (0.5, qb.StabilityClass.POSITIVE_DEFINITE),
        (0.97, qb.StabilityClass.STABLE_NON_POSITIVE),
        (1.0, qb.StabilityClass.NON_DIAGONALIZABLE),
        (1.2, qb.StabilityClass.UNSTABLE_COMPLEX),
    ]
    for delta, expected in cases:
        report = qb.classify(qb.bcs_form(bcs(delta)))
        assert report.classification is expected, delta


_RANDOM_FORMS = st.builds(
    lambda seed, n, pd: random_form(np.random.default_rng(seed), n, shift=0.5 if pd else None),
    st.integers(0, 10_000), st.integers(1, 6), st.booleans())
_NEAR_GAP_FORMS = st.builds(lambda k, sign: qb.bcs_form(bcs(1.0 + sign * 10.0 ** -k)),
                            st.integers(1, 16), st.sampled_from([1.0, -1.0]))


@settings(max_examples=60, deadline=None)
@given(st.one_of(_RANDOM_FORMS, _NEAR_GAP_FORMS))
def test_one_realness_cut_matches_the_per_mode_rule(form):
    # the report's one cut eig * max(||M Hmat||, 1) gives every frequency the
    # verdict of the per-mode rule |Im lambda| <= eig * max(1, |lambda|),
    # and the CLI mode table prints that verdict
    report = qb.classify(form)
    eig = qb.Tolerances().eig
    lams = report.mode_frequencies
    verdict = [bool(abs(l.imag) <= report.diagnostics.real_tol) for l in lams]
    assert verdict == [bool(abs(l.imag) <= eig * max(1.0, abs(l))) for l in lams]
    assert [row["hermitian"] for row in _mode_table(report, None)] == verdict


def test_classification_invariants():
    tol = qb.Tolerances()
    for delta in (0.5, 0.97, 1.0, 1.2, float(np.sqrt(0.91))):
        report = qb.classify(qb.bcs_form(bcs(delta)), tol)
        freqs = report.mode_frequencies
        scale = max(np.abs(freqs).max(), 1.0)
        if report.classification is qb.StabilityClass.POSITIVE_DEFINITE:
            assert report.h_eigenvalues.min() > tol.eig
            assert np.abs(freqs.imag).max() <= tol.eig * scale
        elif report.classification is qb.StabilityClass.STABLE_NON_POSITIVE:
            assert report.h_eigenvalues.min() <= tol.eig
            assert np.abs(freqs.imag).max() <= tol.eig * scale
            assert report.diagonalizable
        elif report.classification is qb.StabilityClass.UNSTABLE_COMPLEX:
            assert np.abs(freqs.imag).max() > tol.eig * scale
        else:
            assert not report.diagonalizable


def test_modes_ordered_descending():
    for delta in (0.5, 1.2):
        report = qb.classify(qb.bcs_form(bcs(delta)))
        f = report.mode_frequencies
        assert (f[0].real, f[0].imag) >= (f[1].real, f[1].imag)


def test_report_serialization_roundtrip():
    report = qb.classify(qb.bcs_form(bcs(1.0)))
    doc = report.to_dict()
    assert doc["classification"] == "NonDiagonalizable"
    assert doc["defects"] and doc["defects"][0]["max_block"] == 2
    assert len(doc["mode_frequencies"]) == 2
    assert all(len(x) == 2 for x in doc["mode_frequencies"])


def test_degenerate_imaginary_eigenvalues():
    # two identical overcritical single modes: purely imaginary frequency
    # with multiplicity two, still diagonalizable
    form = qb.build_form(np.diag([0.3, 0.3]), np.diag([0.8, 0.8]))
    report = qb.classify(form)
    assert report.classification is qb.StabilityClass.UNSTABLE_COMPLEX
    assert report.diagonalizable
    y = np.sqrt(0.8 ** 2 - 0.3 ** 2)
    assert np.allclose(report.mode_frequencies, [1j * y, 1j * y], atol=1e-10)
    pairs, bt = report.pairs, qb.normalize_pairs(report.pairs, report.diagnostics)
    assert bt.metric_residual <= 1e-10
    h = qb.extended_matrix(form).matrix
    lams = np.array([p.lam for p in pairs])
    target = np.diag(np.concatenate([lams, lams]))
    assert np.abs(qb.bar(bt.W) @ h @ bt.W - target).max() <= 1e-9


def test_degenerate_full_complex_quadruples():
    # two identical overcritical pairing blocks: every member of the
    # complex quadruple is doubly degenerate
    a = np.zeros((4, 4), dtype=complex)
    a[:2, :2] = np.diag([1.3, 0.7])
    a[2:, 2:] = np.diag([1.3, 0.7])
    b = np.zeros((4, 4), dtype=complex)
    b[0, 1] = b[1, 0] = 1.2
    b[2, 3] = b[3, 2] = 1.2
    form = qb.build_form(a, b)
    report = qb.classify(form)
    pairs, bt = report.pairs, qb.normalize_pairs(report.pairs, report.diagnostics)
    assert bt.metric_residual <= 1e-9
    lams = np.array([p.lam for p in pairs])
    h = qb.extended_matrix(form).matrix
    target = np.diag(np.concatenate([lams, lams]))
    assert np.abs(qb.bar(bt.W) @ h @ bt.W - target).max() <= 1e-9
    ks = qb.invariants(bt).K
    prop = qb.propagate(qb.dynamical_matrix(form), 1.0)
    ubar = qb.bar(prop.U)
    for k in ks:
        assert np.abs(ubar @ k @ prop.U - k).max() <= 1e-9


def test_three_mode_composite_mixed_regimes():
    # a complex quadruple and a hermitian mode coexisting in one system:
    # an uncoupled oscillator appended to an unstable pairing block
    a = np.zeros((3, 3), dtype=complex)
    a[:2, :2] = [[1.3, 0.0], [0.0, 0.7]]
    a[2, 2] = 2.0
    b = np.zeros((3, 3), dtype=complex)
    b[0, 1] = b[1, 0] = 1.2
    form = qb.build_form(a, b)
    report = qb.classify(form)
    assert report.classification is qb.StabilityClass.UNSTABLE_COMPLEX
    lams = report.mode_frequencies
    assert lams[0] == pytest.approx(2.0, abs=1e-10)
    assert sorted(l.imag for l in lams[1:]) == [
        pytest.approx(0.6633249580710799, abs=1e-10)] * 2
    pairs, bt = report.pairs, qb.normalize_pairs(report.pairs, report.diagnostics)
    assert bt.metric_residual <= 1e-10
    h = qb.extended_matrix(form).matrix
    target = np.diag(np.concatenate([lams, lams]))
    assert np.abs(qb.bar(bt.W) @ h @ bt.W - target).max() <= 1e-9
    flags = [p.hermitian_pair for p in pairs]
    assert flags == [True, False, False]


def test_purely_imaginary_pair_full_pipeline():
    # inside the perturbed instability window the lower pair is purely
    # imaginary: the quadruple is self-conjugate and the generalized norm
    # still normalizes it
    form = qb.bcs_form(qb.BcsParams(1.0, 0.3, 0.95, 0.05))
    report = qb.classify(form)
    assert report.classification is qb.StabilityClass.UNSTABLE_COMPLEX
    lams = report.mode_frequencies
    assert abs(lams[0].imag) <= 1e-10 and lams[0].real > 0
    assert abs(lams[1].real) <= 1e-10 and lams[1].imag > 0
    pairs, bt = report.pairs, qb.normalize_pairs(report.pairs, report.diagnostics)
    assert bt.metric_residual <= 1e-10
    h = qb.extended_matrix(form).matrix
    target = np.diag(np.concatenate([lams, lams]))
    assert np.abs(qb.bar(bt.W) @ h @ bt.W - target).max() <= 1e-10
    df = qb.diagonal_form(bt, lams, report.diagnostics)
    assert list(df.hermitian_flags) == [True, False]
    assert np.abs(df.reconstruct_extended() - h).max() <= 1e-10


def test_spectrum_structure_jordan_blocks():
    clusters = qb.classify(qb.bcs_form(bcs(1.0))).diagnostics.clusters
    assert sorted(c.max_block for c in clusters) == [2, 2]
    clusters = qb.classify(qb.bcs_form(bcs(0.5))).diagnostics.clusters
    assert all(c.max_block == 1 and c.geometric == c.algebraic for c in clusters)


# forms on or next to a Jordan point: the pairing model at delta = +-eps and
# eps (1 +- 1e-9), and single modes with |b| = a
_JORDAN_EDGE_FORMS = st.one_of(
    st.builds(lambda eps, ratio, side, nudge: qb.bcs_form(
                  qb.BcsParams(eps, ratio * eps, side * nudge * eps)),
              st.floats(0.5, 3.0), st.floats(0.05, 0.95), st.sampled_from([1.0, -1.0]),
              st.sampled_from([1.0, 1.0 - 1e-9, 1.0 + 1e-9])),
    st.builds(lambda a, phase: qb.build_form([[a]], [[a * np.exp(1j * phase)]]),
              st.floats(1e-3, 1e3), st.floats(0.0, 2.0 * np.pi)))


@settings(max_examples=80, deadline=None)
@given(_JORDAN_EDGE_FORMS)
@example(qb.bcs_form(qb.BcsParams(0.5, 0.225, 0.5)))
def test_normalize_pairs_refuses_every_jordan_verdict(form):
    # one verdict per form: no transform for a form classify calls defective
    report = qb.classify(form)
    if not report.diagonalizable:
        with pytest.raises(NotDiagonalizable, match="Jordan blocks at eigenvalue"):
            qb.normalize_pairs(report.pairs, report.diagnostics)


@pytest.mark.parametrize("form", [qb.build_form([[10.0]], [[10.0]]),
                                  qb.bcs_form(qb.BcsParams(3.0, 2.55, 3.0))],
                         ids=["single-mode", "pairing"])
def test_exact_null_direction_raises_no_warning(form):
    # the rank tests divide by a singular value that is exactly zero on these forms
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = qb.classify(form)
    assert not report.diagonalizable
    # the gap across the cut of that exact zero, whatever the kept values
    assert [d["rank_gap"] for d in report.to_dict()["defects"]] == [np.inf] * form.n_modes


# The O(m^2) clustering and matching that the sweeps replaced, kept as the
# reference the sweeps must reproduce exactly.

def _quadratic_cluster_indices(values, radius):
    m = values.size
    parent = list(range(m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(m):
        for j in range(i + 1, m):
            if abs(values[i] - values[j]) <= radius:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _quadratic_match_clusters(clusters, cluster_tol):
    order = sorted(range(len(clusters)), key=lambda k: -abs(clusters[k][0].value))
    used = [False] * len(clusters)
    groups = []
    for k in order:
        if used[k]:
            continue
        used[k] = True
        info = clusters[k][0]
        if abs(info.value) <= 0.5 * cluster_tol:
            groups.append((k, k))
            continue
        best, best_d = None, np.inf
        for m in range(len(clusters)):
            if used[m]:
                continue
            d = abs(clusters[m][0].value + info.value)
            if d < best_d:
                best, best_d = m, d
        if best is None or best_d > 2.0 * cluster_tol:
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


# Points of a lattice of spacing 1/4 (chains at radius 1/4 or 1/2, exact ties,
# equal real or imaginary parts), a few nudged by a last-bit-sized step so
# distances land on either side of the radius, and random points.
_LATTICE = st.builds(lambda re, im: complex(re / 4, im / 4),
                     st.integers(-8, 8), st.integers(-8, 8))
_NUDGED = st.builds(lambda z, step: z + step,
                    _LATTICE, st.sampled_from([1e-16, -1e-16, 1e-16j, 1e-9, -1e-9j]))
_POINTS = _LATTICE | _NUDGED | st.complex_numbers(max_magnitude=3.0, allow_nan=False)
_RADII = st.sampled_from([0.0, 0.25, 0.5, 1.0, 0.1])


@st.composite
def _spectra(draw):
    """Points, all on one axis or in the plane, optionally with their negations."""
    axis = draw(st.sampled_from([1.0, 1j, None]))
    points = draw(st.lists(_POINTS, max_size=12))
    if axis is not None:
        points = [abs(z) * axis * (1 if z.real >= 0 else -1) for z in points]
    if draw(st.booleans()):
        points += [-z for z in points]
    return np.array(draw(st.permutations(points)), dtype=complex)


def _outcome(match, clusters, tol):
    try:
        return match(clusters, tol)
    except PairingFailure as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_spectra(), _RADII)
def test_cluster_sweep_matches_the_pairwise_union(values, radius):
    assert spectral._cluster_indices(values, radius) == _quadratic_cluster_indices(values, radius)


@settings(max_examples=300, deadline=None)
@given(_spectra(), _RADII, st.lists(st.sampled_from([1, 1, 2]), min_size=24, max_size=24))
# 2 meets two partners at one distance and must take the first
@example(np.array([2.0, -1.75 + 0.25j, -1.75 - 0.25j]), 0.25, [1] * 24)
@example(np.array([2.0, -1.75 + 0.25j, -1.75 - 0.25j, 1.75 + 0.25j, 1.75 - 0.25j]), 0.25, [1] * 24)
def test_windowed_matching_matches_the_greedy_scan(values, tol, sizes):
    # clusters as _analyze makes them, with drawn multiplicities; a spectrum
    # that lost a partner or a multiplicity must raise the same message
    groups = spectral._cluster_indices(values, tol)
    clusters = [(spectral.ClusterInfo(complex(values[idx].mean()), size, size, 1, np.inf), idx)
                for idx, size in zip(groups, sizes)]
    assert (_outcome(spectral._match_clusters, clusters, tol)
            == _outcome(_quadratic_match_clusters, clusters, tol))
