import dataclasses
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

from conftest import bcs, multiset_dev, random_form


def test_single_mode_identity_transform():
    form = qb.build_form([[1.0]], [[0.0]])
    report = qb.classify(form)
    pairs = report.pairs
    assert len(pairs) == 1
    assert pairs[0].lam == pytest.approx(1.0)
    assert pairs[0].hermitian_pair
    assert report.eig_residual <= 1e-12
    assert max(report.pairing_residuals) <= 1e-12
    bt = qb.normalize_pairs(report)
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
    assert not report.diagonalizable
    assert len(report.pairs) == 2
    bad = [c for c in report.clusters if c.geometric < c.algebraic]
    assert len(bad) == 2
    assert all(c.algebraic == 2 and c.geometric == 1 for c in bad)
    with pytest.raises(NotDiagonalizable, match="Jordan blocks at eigenvalue"):
        qb.normalize_pairs(report)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.sampled_from([0.5, -0.5]))
def test_metric_identity_random(seed, n, shift):
    rng = np.random.default_rng(seed)
    form = random_form(rng, n, shift=shift)
    report = qb.classify(form)
    pairs, bt = report.pairs, qb.normalize_pairs(report)
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
    pairs, bt = report.pairs, qb.normalize_pairs(report)
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
    pairs, bt = report.pairs, qb.normalize_pairs(report)
    assert [p.lam for p in pairs] == [pytest.approx(1.0)] * 2
    assert bt.metric_residual <= 1e-12


def test_mixed_signature_degenerate_eigenvalue():
    # +omega carries one positive-norm and one negative-norm direction;
    # the second mode's representative is -omega
    form = qb.build_form(np.diag([1.0, -1.0]), np.zeros((2, 2)))
    report = qb.classify(form)
    pairs, bt = report.pairs, qb.normalize_pairs(report)
    lams = sorted(p.lam.real for p in pairs)
    assert lams == [pytest.approx(-1.0), pytest.approx(1.0)]
    assert report.classification is qb.StabilityClass.STABLE_NON_POSITIVE


def test_zero_mode_at_positivity_threshold():
    form = qb.bcs_form(bcs(float(np.sqrt(0.91))))
    report = qb.classify(form)
    assert report.classification is qb.StabilityClass.STABLE_NON_POSITIVE
    assert report.diagonalizable
    assert report.zero_mode_count == 1
    pairs, bt = report.pairs, qb.normalize_pairs(report)
    assert bt.metric_residual <= 1e-9
    # the finite transform still carries the analytic u, v at alpha = gamma
    u = np.sqrt((1.0 + 0.3) / 0.6)
    assert abs(bt.W[0, 0]) == pytest.approx(u, abs=1e-9)


def test_pairing_failure_on_asymmetric_spectrum():
    # no valid form reaches this branch, so the eigensolve step meets a fake matrix
    fake = DynamicalMatrix(1, np.diag([1.0, 2.0]).astype(complex))
    with pytest.raises(PairingFailure, match="no partner"):
        spectral._eigen_pairs(fake, 1e-9)
    # the cluster at 2, met first, holds two eigenvalues, its mirror at -2 one
    fake = DynamicalMatrix(2, np.diag([2.0, 2.0, -2.0, 1.0]).astype(complex))
    with pytest.raises(PairingFailure, match="multiplicity mismatch"):
        spectral._eigen_pairs(fake, 1e-9)


def test_null_norm_on_synthetic_pair():
    w_plus = np.array([1.0, 0.0], dtype=complex)
    w_minus = np.array([1.0, 0.0], dtype=complex)  # bar(w-) M w+ = 0
    pair = ModePair(1.0 + 0j, w_plus, w_minus, False)
    report = dataclasses.replace(qb.classify(qb.build_form([[1.0]], [[0.0]])), pairs=[pair])
    with pytest.raises(NullNorm):
        qb.normalize_pairs(report)


def test_near_defective_warning():
    report = qb.classify(qb.bcs_form(bcs(1.0 - 1e-7)))
    assert any("near" in w or "small" in w for w in report.warnings)


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
    eig = 1e-9
    lams = report.mode_frequencies
    verdict = [bool(abs(l.imag) <= report.real_tol) for l in lams]
    assert verdict == [bool(abs(l.imag) <= eig * max(1.0, abs(l))) for l in lams]
    assert [row["hermitian"] for row in _mode_table(report, None)] == verdict


def _plus_minus(freqs, scale):
    """The +-lambda multiset of ``freqs`` divided by ``scale``, a power of two."""
    f = np.asarray(freqs) / scale
    return np.concatenate([f, -f])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.sampled_from([0.5, -0.5, None]),
       st.integers(-1000, 1000))
@example(0, 2, -0.5, 1000)
@example(0, 2, -0.5, -1000)
def test_a_power_of_two_scales_frequencies_and_keeps_verdicts(seed, n, shift, k):
    # 2^k (A, B) has the frequencies of (A, B) times 2^k at any k the float
    # range holds; the verdict keeps when the realness cut eig * max(||M Hmat||, 1)
    # scales along, that is when ||M Hmat|| >= 1 and k >= 0
    form = random_form(np.random.default_rng(seed), n, shift=shift)
    scale = 2.0 ** k
    own = qb.classify(form)
    scaled = qb.classify(qb.build_form(form.A * scale, form.B * scale))
    norm = np.linalg.norm(qb.dynamical_matrix(form).matrix, 2)
    assert multiset_dev(_plus_minus(scaled.mode_frequencies, scale),
                        _plus_minus(own.mode_frequencies, 1.0)) <= 1e-13 * norm
    if k >= 0 and norm >= 1.0:
        assert scaled.classification is own.classification


@pytest.mark.parametrize("k, label, zero_modes", [
    (0, "StableNonPositive", 1), (900, "StableNonPositive", 1), (990, "UnstableComplex", 0)])
def test_the_realness_cut_has_an_absolute_floor_below_norm_one(k, label, zero_modes):
    # below ||M Hmat|| = 1 the realness and zero cut is tol_eig itself, so a
    # tiny unstable form reads every frequency as zero until it is scaled up
    scale = 2.0 ** k
    report = qb.classify(qb.build_form([[1.26e-301 * scale]], [[(6.40 + 1.00j) * 1e-301 * scale]]))
    assert report.real_tol == 1e-9
    assert (report.classification.value, report.zero_mode_count) == (label, zero_modes)
    assert report.mode_frequencies[0].imag == pytest.approx(6.3539e-301 * scale, rel=1e-4)


def _single_linkage(values, radius):
    """Brute-force groups: components of every pair with abs(a - b) <= radius,
    ordered by smallest index, each ascending."""
    m = len(values)
    label = list(range(m))
    for i in range(m):
        for j in range(i + 1, m):
            if abs(complex(values[i]) - complex(values[j])) <= radius and label[i] != label[j]:
                old, new = max(label[i], label[j]), min(label[i], label[j])
                label = [new if x == old else x for x in label]
    groups = {}
    for i, lab in enumerate(label):
        groups.setdefault(lab, []).append(i)
    return list(groups.values())


def _planted_spectrum(rng, radius):
    """Shuffled eigenvalues: near-equal and dense clusters, chains with steps
    just under or exactly at ``radius`` (linked end to end) or just beyond
    it, and loose points, on real, imaginary and complex centres."""
    parts = []
    for _ in range(rng.integers(1, 6)):
        centre = complex(*rng.normal(size=2)) * rng.choice([1.0, 1e-3, 1e3])
        centre = rng.choice([centre, centre.real, 1j * centre.imag])
        k = int(rng.integers(1, 40))
        direction = np.exp(1j * rng.choice([0.0, np.pi / 2, rng.uniform(0, 2 * np.pi)]))
        kind = rng.integers(0, 5)
        if kind == 4:
            offsets = 1e-3 * radius * (rng.normal(size=k) + 1j * rng.normal(size=k))
        elif kind == 0:
            offsets = 0.3 * radius * (rng.normal(size=k) + 1j * rng.normal(size=k))
        elif kind == 1:
            offsets = np.cumsum(np.full(k, rng.choice([0.999, 1.0]) * radius * direction))
        elif kind == 2:
            offsets = np.arange(k) * np.nextafter(radius, np.inf) * direction
        else:
            offsets = radius * (rng.uniform(-3, 3, k) + 1j * rng.uniform(-3, 3, k))
        parts.append(centre + offsets)
    return rng.permutation(np.concatenate(parts))


def test_clusters_match_brute_force_single_linkage():
    # the sweep that skips pairs already joined finds exactly the
    # single-linkage groups
    rng = np.random.default_rng(5)
    for _ in range(300):
        radius = 2.0 ** int(rng.integers(-30, 6))
        values = _planted_spectrum(rng, radius)
        assert spectral._cluster_indices(values, radius) == _single_linkage(values, radius)
    values = np.concatenate([np.full(40, 2.0 + 1j), np.full(30, -2.0 + 1j), [0.0, 0.5, 1.0]])
    assert spectral._cluster_indices(values, 0.5) == [list(range(40)), list(range(40, 70)),
                                                      [70, 71, 72]]


def test_batched_magnitudes_are_abs_bit_for_bit():
    # _stack_fast_path decides with _magnitude where classify uses abs(complex)
    rng = np.random.default_rng(11)
    for scale in np.logspace(-300, 300, 13):
        z = scale * (rng.normal(size=8000) + 1j * rng.normal(size=8000))
        assert spectral._magnitude(z).tolist() == [abs(complex(x)) for x in z]


def test_classification_invariants():
    eig = 1e-9
    for delta in (0.5, 0.97, 1.0, 1.2, float(np.sqrt(0.91))):
        report = qb.classify(qb.bcs_form(bcs(delta)), eig)
        freqs = report.mode_frequencies
        scale = max(np.abs(freqs).max(), 1.0)
        if report.classification is qb.StabilityClass.POSITIVE_DEFINITE:
            assert report.h_eigenvalues.min() > eig
            assert np.abs(freqs.imag).max() <= eig * scale
        elif report.classification is qb.StabilityClass.STABLE_NON_POSITIVE:
            assert report.h_eigenvalues.min() <= eig
            assert np.abs(freqs.imag).max() <= eig * scale
            assert report.diagonalizable
        elif report.classification is qb.StabilityClass.UNSTABLE_COMPLEX:
            assert np.abs(freqs.imag).max() > eig * scale
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
    pairs, bt = report.pairs, qb.normalize_pairs(report)
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
    pairs, bt = report.pairs, qb.normalize_pairs(report)
    assert bt.metric_residual <= 1e-9
    lams = np.array([p.lam for p in pairs])
    h = qb.extended_matrix(form).matrix
    target = np.diag(np.concatenate([lams, lams]))
    assert np.abs(qb.bar(bt.W) @ h @ bt.W - target).max() <= 1e-9
    ks = bt.invariants
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
    pairs, bt = report.pairs, qb.normalize_pairs(report)
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
    pairs, bt = report.pairs, qb.normalize_pairs(report)
    assert bt.metric_residual <= 1e-10
    h = qb.extended_matrix(form).matrix
    target = np.diag(np.concatenate([lams, lams]))
    assert np.abs(qb.bar(bt.W) @ h @ bt.W - target).max() <= 1e-10
    assert list(bt.hermitian_flags) == [True, False]
    assert np.abs(bt.reconstruct_extended() - h).max() <= 1e-10


def test_spectrum_structure_jordan_blocks():
    clusters = qb.classify(qb.bcs_form(bcs(1.0))).clusters
    assert sorted(c.max_block for c in clusters) == [2, 2]
    clusters = qb.classify(qb.bcs_form(bcs(0.5))).clusters
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
            qb.normalize_pairs(report)


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


# The O(m^2) clustering that the sweep replaced, kept as the reference the
# sweep must reproduce exactly.

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


@settings(max_examples=300, deadline=None)
@given(_spectra(), _RADII)
def test_cluster_sweep_matches_the_pairwise_union(values, radius):
    assert spectral._cluster_indices(values, radius) == _quadratic_cluster_indices(values, radius)


# ---------------------------------------------------------------------------
# bit-identity rules of the per-call shortcuts

def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# entries whose real or imaginary part is -0.0 next to ordinary ones
_SIGNED = [complex(re, im) for re in (-0.0, 0.0, 1.5, -2.0) for im in (-0.0, 0.0, 0.75, -3.0)]


def _bit_test_forms():
    """Random PD and indefinite forms, BCS forms in every regime and at the
    Jordan point, and a form whose entries carry -0.0 parts."""
    rng = np.random.default_rng(17)
    forms = [random_form(rng, n, shift) for n in (1, 2, 3, 5) for shift in (0.5, -0.5)]
    forms += [qb.bcs_form(bcs(d, k)) for d in (0.0, 0.5, 0.97, 1.0, 1.2, -0.5) for k in (0.0, 0.05)]
    forms.append(qb.build_form([[1.0, -0.0], [-0.0, 2.0]],
                               [[complex(-0.0, 0.5), -0.0], [-0.0, complex(0.25, -0.0)]]))
    return forms


def test_a_singleton_cluster_value_has_the_bits_of_its_mean():
    spectra = [np.linalg.eig(qb.dynamical_matrix(f).matrix)[0] for f in _bit_test_forms()]
    for evals in spectra + [np.array(_SIGNED)]:
        singles = (evals + 0.0).tolist()
        for i in range(evals.size):
            assert _same_bits(singles[i], complex(evals[[i]].mean()))
    # eig returns a diagonal matrix's entries, -0.0 parts included
    signed = np.diag([complex(-0.0, 0.75), complex(1.5, -0.0), complex(-2.0, -0.0),
                      complex(-0.0, -3.0)])
    for m in [qb.dynamical_matrix(form).matrix for form in _bit_test_forms()] + [signed]:
        evals = np.linalg.eig(m)[0]
        scale = np.linalg.norm(m, 2)
        _, clusters, _, _ = spectral._analyze(m, scale, spectral.CLUSTER_SAFETY * scale)
        for info, idx in clusters:
            if len(idx) == 1:
                assert _same_bits(info.value, complex(evals[idx].mean()))


def _assert_clusters_mirror_the_doubled_spectrum(form):
    """The clusters of _analyze are the pairwise-union groups of the spectrum
    and its negation, restricted to the original indices, and each one's
    mirror is the mirror-image group, of the same size."""
    m = qb.dynamical_matrix(form).matrix
    scale = max(np.linalg.svd(m, compute_uv=False).max(), np.finfo(float).tiny)
    tol = spectral.CLUSTER_SAFETY * scale
    evals = np.linalg.eig(m)[0]
    size = evals.size
    doubled = _quadratic_cluster_indices(np.concatenate([evals, -evals]), tol)
    _, clusters, mirror, _ = spectral._analyze(m, scale, tol)
    kept = [g for g in doubled if g[0] < size]
    assert [idx for _, idx in clusters] == [[i for i in g if i < size] for g in kept]
    for group, (info, _), k in zip(kept, clusters, mirror, strict=True):
        assert sorted(kept[k]) == sorted((i + size) % (2 * size) for i in group)
        assert clusters[k][0].algebraic == info.algebraic


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.sampled_from([None, 0.5, -0.5]))
def test_clusters_are_the_groups_of_the_doubled_spectrum(seed, n, shift):
    _assert_clusters_mirror_the_doubled_spectrum(
        random_form(np.random.default_rng(seed), n, shift))


def test_clusters_of_the_bit_test_forms_are_the_groups_of_the_doubled_spectrum():
    for form in _bit_test_forms():
        _assert_clusters_mirror_the_doubled_spectrum(form)


@pytest.mark.parametrize("f", [0.5, 0.99, 1.01, 1.5, 1.99])
def test_partners_pair_within_the_cluster_radius_on_both_paths(f):
    # a fake one-mode spectrum {1, -(1 + d)}: classify pairs 1 with -(1 + d)
    # only when d is within the cluster radius, about CLUSTER_SAFETY, and the
    # batched path takes the point only then, leaving the rest to classify
    d = f * spectral.CLUSTER_SAFETY
    fake = DynamicalMatrix(1, np.diag([1.0, -1.0 - d]).astype(complex))
    stack = np.diag([1.0, 1.0 + d])[None]

    def scalar(i):
        raise LookupError(i)

    if f < 1:
        assert len(spectral._eigen_pairs(fake, 1e-9)[0]) == 1
        assert spectral.classify_stack(stack, scalar).code.tolist() == [0]
    else:
        with pytest.raises(PairingFailure, match="no partner"):
            spectral._eigen_pairs(fake, 1e-9)
        with pytest.raises(LookupError):
            spectral.classify_stack(stack, scalar)


def _eigh_real_branch_pairs(vecs_plus, value, mdiag, warnings):
    """The real-branch pairing with eigh at every size, the reference for the
    1 x 1 shortcut."""
    out = []
    gram = vecs_plus.conj().T @ (mdiag[:, None] * vecs_plus)
    gram = 0.5 * (gram + gram.conj().T)
    d, q = np.linalg.eigh(gram)
    for k in range(d.size):
        w = vecs_plus @ q[:, k]
        if not abs(d[k]) > spectral._NULL_NORM:
            warnings.append(f"near-null M-norm {d[k]:.3e} at eigenvalue {value:.6g}; "
                            "input is adjacent to a non-diagonalizable point")
        elif abs(d[k]) < spectral._NEAR_DEFECT_NORM:
            warnings.append(f"small M-norm {d[k]:.3e} at eigenvalue {value:.6g}; "
                            "results may be ill-conditioned (near-defective input)")
        if d[k] >= 0:
            out.append((ModePair(value, w, qb.bar_vector(w.conj()), True), d[k]))
        else:
            out.append((ModePair(-value, qb.bar_vector(w.conj()), w, True), d[k]))
    return out


def test_a_one_by_one_gram_reads_as_its_own_eigendecomposition():
    vectors = [np.array(_SIGNED[i:i + 4])[:, None] for i in range(0, len(_SIGNED), 4)]
    for form in _bit_test_forms():
        vecs = np.linalg.eig(qb.dynamical_matrix(form).matrix)[1]
        vectors += [vecs[:, [k]] for k in range(vecs.shape[1])]
    for vp in vectors:
        mdiag = qb.core.metric_signs(vp.shape[0] // 2)
        gram = vp.conj().T @ (mdiag[:, None] * vp)
        gram = 0.5 * (gram + gram.conj().T)
        d, q = np.linalg.eigh(gram)
        assert _same_bits(d, gram[0].real) and _same_bits(q, spectral._UNIT)
        got, want = [], []
        pairs = spectral._real_branch_pairs(vp, complex(0.5, -0.0), mdiag, got)
        reference = _eigh_real_branch_pairs(vp, complex(0.5, -0.0), mdiag, want)
        assert got == want
        for (p, dp), (r, dr) in zip(pairs, reference, strict=True):
            assert _same_bits(dp, dr) and _same_bits(p.lam, r.lam)
            assert _same_bits(p.w_plus, r.w_plus) and _same_bits(p.w_minus, r.w_minus)
            assert p.hermitian_pair and r.hermitian_pair


def test_the_largest_singular_value_is_the_two_norm_bit_for_bit():
    for form in _bit_test_forms():
        m = qb.dynamical_matrix(form).matrix
        assert _same_bits(np.linalg.svd(m, compute_uv=False).max(), np.linalg.norm(m, 2))


def test_mode_table_residuals_keep_the_per_mode_bits():
    checked = 0
    for form in _bit_test_forms():
        report = qb.classify(form)
        try:
            bt = qb.normalize_pairs(report)
        except (NotDiagonalizable, NullNorm):
            continue
        n, mdiag = bt.n_modes, qb.core.metric_signs(bt.n_modes)
        want = [float(abs(qb.bar_vector(bt.W[:, n + i]) @ (mdiag * bt.W[:, i]) - 1.0))
                for i in range(n)]
        assert _same_bits([row["norm_residual"] for row in _mode_table(report, bt)], want)
        checked += 1
    assert checked >= 15
