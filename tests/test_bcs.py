from decimal import Decimal, localcontext
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import quadboson as qb
from quadboson.errors import DegenerateGap, NotDegenerate, Overflow, StructureViolation

from conftest import OUTER_EDGE, bcs, multiset_dev, random_form
from references import metric

SQRT_091 = 0.9539392014169457


def test_params_validation():
    with pytest.raises(ValueError):
        qb.BcsParams(-1.0, 0.3, 0.5)
    with pytest.raises(ValueError):
        qb.BcsParams(1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        qb.BcsParams(1.0, 1.5, 0.5)


def test_sweep_grid_order():
    sw = qb.bcs_sweep(1.0, [0.2, 0.3], [0.5, 1.2], [0.0, 0.05])
    got = list(zip(sw.delta.tolist(), sw.kappa.tolist(), sw.gamma.tolist()))
    assert got == [(d, k, g) for d in (0.5, 1.2) for k in (0.0, 0.05) for g in (0.2, 0.3)]
    for i, (d, k, g) in enumerate(got):
        report = qb.classify(qb.bcs_form(qb.BcsParams(1.0, g, d, k)))
        assert sw.code[i] == qb.CLASS_CODES[report.classification]
        assert sw.frequencies[i].tobytes() == report.mode_frequencies.tobytes()
        assert sw.min_sigma[i] == report.h_eigenvalues.min()


def test_sweep_validates_every_point_before_solving(monkeypatch):
    solved = []
    monkeypatch.setattr(qb.bcs, "classify", lambda form, tol: solved.append(form))
    monkeypatch.setattr(qb.bcs, "classify_stack", lambda *args: solved.append(args))
    with pytest.raises(ValueError, match="gamma"):
        qb.bcs_sweep(1.0, [0.3, 1.5], [0.0, 0.5], [0.0])
    assert solved == []


def _assert_columns_match_classify(sw, tol_eig=qb.spectral.DEFAULT_TOL_EIG):
    """Every column of a sweep equals per-point classify(bcs_form(p), tol_eig),
    bit for bit."""
    for i in range(sw.delta.size):
        p = qb.BcsParams(sw.epsilon, float(sw.gamma[i]), float(sw.delta[i]), float(sw.kappa[i]))
        report = qb.classify(qb.bcs_form(p), tol_eig)
        freqs = report.mode_frequencies.view(float)
        got = sw.frequencies[i].view(float)
        assert sw.code[i] == qb.CLASS_CODES[report.classification], p
        assert np.array_equal(got, freqs) and np.array_equal(np.signbit(got), np.signbit(freqs)), p
        assert sw.min_sigma[i] == report.h_eigenvalues.min(), p
        assert sw.max_imag[i] == np.abs(report.mode_frequencies.imag).max(), p


def test_batched_kernels_match_scalar_calls_bit_for_bit():
    # the batched path rests on this: one stacked eig, eigvalsh and 2-norm give
    # the bits of the per-form calls inside classify
    hmats = np.array([qb.bcs_form(bcs(d, 0.05)).hmat
                      for d in np.linspace(0.0, 1.5, 3001)])
    dyn = qb.core.metric_signs(2)[:, None] * hmats
    evals, vecs = np.linalg.eig(dyn)
    sigma = np.linalg.eigvalsh(hmats)
    norms = np.linalg.norm(dyn, 2, axis=(1, 2))
    for i in range(hmats.shape[0]):
        w, v = np.linalg.eig(dyn[i])
        assert w.tobytes() == evals[i].tobytes() and v.tobytes() == vecs[i].tobytes()
        assert np.linalg.eigvalsh(hmats[i]).tobytes() == sigma[i].tobytes()
        assert np.linalg.norm(dyn[i], 2) == norms[i]


def _special_deltas(epsilon, gamma):
    root = float(np.sqrt(epsilon ** 2 - gamma ** 2))
    near = [epsilon + s * 10.0 ** -k for k in range(3, 14) for s in (1.0, -1.0)]
    return [epsilon, -epsilon, root, -root] + near


@st.composite
def _grids(draw):
    epsilon = draw(st.sampled_from([1.0, 0.5, 2.0]))
    gammas = draw(st.lists(st.floats(0.01, 0.99).map(lambda f: f * epsilon),
                           min_size=1, max_size=2))
    special = st.sampled_from(_special_deltas(epsilon, gammas[0]))
    deltas = draw(st.lists(st.one_of(special, st.floats(-2.0, 2.0)), min_size=1, max_size=8))
    kappas = draw(st.lists(st.one_of(st.sampled_from([0.0, 0.05, -0.05]), st.floats(-0.5, 0.5)),
                           min_size=1, max_size=3))
    return epsilon, gammas, deltas, kappas


@settings(max_examples=40, deadline=None)
@given(_grids())
def test_sweep_columns_equal_per_point_classify(grid):
    _assert_columns_match_classify(qb.bcs_sweep(*grid))


def _counting_classify(monkeypatch):
    """Patch classify_stack's per-point classify to record every form it gets."""
    scalar = []
    classify = qb.spectral.classify
    monkeypatch.setattr(qb.spectral, "classify",
                        lambda form, tol: scalar.append(form) or classify(form, tol))
    return scalar


def test_sweep_takes_the_scalar_path_only_where_needed(monkeypatch):
    scalar = _counting_classify(monkeypatch)
    sw = qb.bcs_sweep(1.0, [0.3], [0.5, 1.0, 1.2], [0.0])
    assert len(scalar) == 1 and scalar[0].B[0, 1] == 1.0  # the Jordan point delta = eps
    assert sw.code.tolist() == [0, 3, 2]
    _assert_columns_match_classify(sw)


def test_a_sweep_classifies_every_point_at_its_own_tolerance(monkeypatch):
    # one tol_eig serves the batched and the per-point verdicts: at 1e-3,
    # delta = 0.952 and 0.953 read StableNonPositive, and the Jordan point
    # delta = eps = 1.0 takes the per-point path
    scalar = _counting_classify(monkeypatch)
    deltas = np.linspace(0.95, 1.0, 51)
    sw = qb.bcs_sweep(1.0, [0.3], deltas, [0.0], tol_eig=1e-3)
    assert [f.B[0, 1] for f in scalar] == [1.0]
    assert sw.code[[2, 3]].tolist() == [1, 1]
    assert qb.bcs_sweep(1.0, [0.3], deltas[[2, 3]], [0.0]).code.tolist() == [0, 0]
    _assert_columns_match_classify(sw, 1e-3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sweep_non_finite_parameter_raises_structure_violation(bad):
    with pytest.raises(StructureViolation):
        qb.bcs_sweep(1.0, [0.3], [0.5, bad], [0.0])
    with pytest.raises(StructureViolation):
        qb.bcs_sweep(1.0, [0.3], [0.5], [0.0, bad])


@pytest.mark.parametrize("kappa, delta", OUTER_EDGE)
def test_the_outer_edge_of_the_reentry_window_is_a_jordan_point(kappa, delta):
    report = qb.classify(qb.bcs_form(bcs(delta, kappa)))
    assert report.classification is qb.StabilityClass.NON_DIAGONALIZABLE
    # every delta within 50 ulps, inside [1, 2) where one ulp is 2^-52
    band = delta + np.arange(-50, 51) * 2.0 ** -52
    _assert_columns_match_classify(qb.bcs_sweep(1.0, [0.3], band, [kappa]))


def test_classify_stack_matches_classify_on_random_forms(rng):
    for n in (1, 2, 3, 5):
        forms = [random_form(rng, n, shift) for shift in (None, 0.5, -0.5) for _ in range(4)]
        forms.append(qb.build_form(np.zeros((n, n)), np.zeros((n, n))))  # one zero cluster
        # integer entries, whose eigenvalues may tie exactly (+ 0.0 drops the
        # signed zeros, so build_form's symmetrization keeps every bit)
        forms += [qb.build_form(np.round(2 * f.A) + 0.0, np.round(2 * f.B) + 0.0)
                  for f in (random_form(rng, n) for _ in range(4))]
        for tol_eig in (0.0, 1e-9, 1e-3, 0.5):
            cols = qb.classify_stack([f.A for f in forms], [f.B for f in forms], tol_eig)
            for i, form in enumerate(forms):
                report = qb.classify(form, tol_eig)
                assert cols.code[i] == qb.CLASS_CODES[report.classification]
                assert cols.frequencies[i].tobytes() == report.mode_frequencies.tobytes()
                assert cols.min_sigma[i] == report.h_eigenvalues.min()


def test_form_matrices():
    form = qb.bcs_form(qb.BcsParams(1.0, 0.3, 0.5, 0.05))
    assert np.array_equal(form.A, [[1.3, 0.05], [0.05, 0.7]])
    assert np.array_equal(form.B, [[0.0, 0.5], [0.5, 0.0]])
    decoupled = qb.bcs_form(bcs(0.0))
    assert np.array_equal(decoupled.A, np.diag([1.3, 0.7]))
    assert np.abs(decoupled.B).max() == 0.0


def test_sigma_decoupled_limit():
    assert np.allclose(qb.bcs_sigma(bcs(0.0)), [1.3, 0.7], atol=0)


def test_sigma_matches_hermitian_eigensolve():
    for kappa in (0.0, 0.05, 0.2):
        for delta in (0.3, 0.5, 0.97, 1.2):
            p = qb.BcsParams(1.0, 0.3, delta, kappa)
            h = qb.bcs_form(p).hmat
            dense = np.sort(np.linalg.eigvalsh(h))[::-1]
            sig = qb.bcs_sigma(p)
            if sig.size == 2:
                sig = np.repeat(sig, 2)
            assert np.abs(np.sort(sig)[::-1] - dense).max() <= 1e-12


def test_sigma_frozen_values():
    assert np.allclose(qb.bcs_sigma(bcs(0.5)),
                       [1.58309518948453, 0.4169048105154699], atol=1e-12)
    four = qb.bcs_sigma(qb.BcsParams(1.0, 0.3, 0.5, 0.05))
    expected = sorted([1 + np.sqrt(0.09 + 0.3025), 1 - np.sqrt(0.09 + 0.3025),
                       1 + np.sqrt(0.09 + 0.2025), 1 - np.sqrt(0.09 + 0.2025)],
                      reverse=True)
    assert np.abs(four - np.array(expected)).max() <= 1e-12


def test_lambda_trivial_and_frozen():
    assert qb.bcs_lambda(bcs(0.0)) == (pytest.approx(1.3), pytest.approx(0.7))
    lp, lm = qb.bcs_lambda(bcs(1.2))
    assert lp == pytest.approx(0.3 + 0.6633249580710799j, abs=1e-12)
    assert lm == pytest.approx(-0.3 + 0.6633249580710799j, abs=1e-12)


def test_lambda_matches_dense_eigensolve():
    for delta in (0.2, 0.5, 0.97, 1.05, 1.2):
        p = bcs(delta)
        lp, lm = qb.bcs_lambda(p)
        ht = qb.bcs_form(p).generator
        dense = np.linalg.eigvals(ht)
        assert multiset_dev([lp, lm, -lp, -lm], dense) <= 1e-10


def test_lambda_perturbed_dense_vs_formula():
    # the closed form tracks the dense solve across all regimes (checked as
    # multisets: formula signs are pair representatives only)
    for delta in (0.2, 0.7, 0.95, 1.0, 1.008, 1.02, 1.2):
        p = qb.BcsParams(1.0, 0.3, delta, 0.05)
        dense = np.linalg.eigvals(
            qb.bcs_form(p).generator)
        lf = qb.bcs_lambda_formula(p)
        assert multiset_dev([lf[0], lf[1], -lf[0], -lf[1]], dense) <= 1e-9


@pytest.mark.parametrize("kappa", [0.0, 0.05])
def test_formula_refuses_an_underflowed_gamma_square(kappa):
    # gamma^2 rounds to zero, and the closed form divides by it
    with pytest.raises(Overflow, match="float range"):
        qb.bcs_lambda_formula(qb.BcsParams(1.0, 1e-162, 0.5, kappa))


def test_lambda_perturbed_inside_unstable_window():
    # 0.9039 < 0.95 < 1.0039: the lower pair is imaginary
    lp, lm = qb.bcs_lambda(qb.BcsParams(1.0, 0.3, 0.95, 0.05))
    assert abs(lp.imag) <= 1e-10 and lp.real > 0
    assert abs(lm.real) <= 1e-10 and lm.imag > 0


def test_uv_trivial_and_frozen():
    u, v = qb.bcs_uv(bcs(0.0))
    assert u == pytest.approx(1.0, abs=1e-14)
    assert v == pytest.approx(0.0, abs=1e-14)
    u, v = qb.bcs_uv(bcs(0.5))
    assert u == pytest.approx(1.0379548493020425, abs=1e-12)
    assert v == pytest.approx(0.27811916365045003, abs=1e-12)
    al = 0.8660254037844386
    assert 2 * al * u * v == pytest.approx(0.5, abs=1e-12)


def test_uv_identities_above_gap():
    u, v = qb.bcs_uv(bcs(1.2))
    assert abs(u * u - v * v - 1.0) <= 1e-12
    assert abs(abs(u) ** 2 - abs(v) ** 2) <= 1e-12
    assert abs(np.conj(u) - 1j * v) <= 1e-12
    al = qb.bcs_alpha(bcs(1.2))
    assert al.imag > 0
    assert abs(2 * al * u * v - 1.2) <= 1e-12


def test_uv_negative_delta_branch():
    u, v = qb.bcs_uv(bcs(-0.5))
    al = 0.8660254037844386
    assert 2 * al * u * v == pytest.approx(-0.5, abs=1e-12)
    assert abs(u * u - v * v - 1.0) <= 1e-12


def test_uv_degenerate_gap_rejected():
    with pytest.raises(DegenerateGap):
        qb.bcs_uv(bcs(1.0))
    with pytest.raises(ValueError):
        qb.bcs_uv(qb.BcsParams(1.0, 0.3, 0.5, 0.05))


def test_transform_satisfies_metric_and_diagonalizes():
    m = metric(2)
    for delta in (0.5, 0.97, 1.2):
        p = bcs(delta)
        w = qb.bcs_transform(p)
        assert np.abs(w @ m @ qb.bar(w) - m).max() <= 1e-12
        h = qb.bcs_form(p).hmat
        lp, lm = qb.bcs_lambda(p)
        hp = qb.bar(w) @ h @ w
        assert np.abs(hp - np.diag([lp, lm, lp, lm])).max() <= 1e-10


def test_generic_pipeline_reproduces_analytic_amplitudes():
    # the eigensolver route leaves only a per-pair gauge: amplitude moduli
    # and the mode invariants must match the closed-form transform
    for delta in (0.5, 1.2):
        p = bcs(delta)
        u, v = qb.bcs_uv(p)
        report = qb.classify(qb.bcs_form(p))
        bt = qb.normalize_pairs(report)
        assert abs(bt.W[0, 0]) == pytest.approx(abs(u), abs=1e-10)
        assert abs(bt.W[3, 0]) == pytest.approx(abs(v), abs=1e-10)
        wa = qb.bcs_transform(p)
        bta = qb.BogoliubovTransform(wa, bt.report)
        k_generic = bt.invariants
        k_analytic = bta.invariants
        assert np.abs(k_generic - k_analytic).max() <= 1e-10


def test_closed_evolution_identity_at_zero():
    for delta in (0.5, 1.0, 1.2):
        assert np.array_equal(qb.bcs_closed_evolution(bcs(delta), 0.0), np.eye(4))


def test_closed_evolution_matches_expm():
    for delta in (0.3, 0.97, 1.0, 1.2):
        p = bcs(delta)
        form = qb.bcs_form(p)
        for t in (0.5, 2.0):
            u = qb.propagate(form, t).U
            c = qb.bcs_closed_evolution(p, t)
            assert np.abs(u - c).max() <= 1e-9 * max(np.abs(u).max(), 1.0)


def test_jordan_form_requires_degenerate_gap():
    with pytest.raises(NotDegenerate):
        qb.bcs_jordan_form(bcs(0.5))
    # next to the gap bcs_uv has finite amplitudes and classify finds no
    # Jordan block, so no decoupled Jordan form is offered either
    for delta in (1.0 + 1e-6, 1.0 - 1e-6, -1.0 - 1e-6):
        p = bcs(delta)
        assert np.isfinite(qb.bcs_uv(p)).all()
        assert qb.classify(qb.bcs_form(p)).diagonalizable
        with pytest.raises(NotDegenerate):
            qb.bcs_jordan_form(p)
    with pytest.raises(ValueError):
        qb.bcs_jordan_form(qb.BcsParams(1.0, 0.3, 1.0, 0.05))


def _near_gap(epsilons, ks):
    """delta = +/-eps (1 +/- 10^-k) at gamma = 0.3 eps: forms on both sides of
    the Jordan points delta = +/-eps, down to the last bit of delta."""
    for eps in epsilons:
        for sign in (1.0, -1.0):
            for side in (1.0, -1.0):
                for k in ks:
                    yield qb.BcsParams(eps, 0.3 * eps, sign * eps * (1.0 + side * 10.0 ** -k))


def test_uv_refuses_exactly_where_classify_finds_the_jordan_block():
    # one rule for the Jordan point: the closed forms and the eigensolve agree
    # at every scale of eps, also within rounding distance of the gap
    verdicts = []
    for p in _near_gap((1.0, 2.5, 0.4, 1e3, 1e-3), 6.0 + np.arange(81) / 8):
        jordan = qb.classify(qb.bcs_form(p)).classification == qb.StabilityClass.NON_DIAGONALIZABLE
        try:
            qb.bcs_uv(p)
            refused = False
        except DegenerateGap:
            refused = True
        verdicts.append((p.epsilon, p.delta, refused, jordan))
    assert [v for v in verdicts if v[2] != v[3]] == []
    assert 0 < sum(v[3] for v in verdicts) < len(verdicts)


def test_closed_evolution_matches_expm_next_to_the_gap():
    worst = 0.0
    for p in _near_gap((1.0, 2.5, 0.4), np.arange(6.0, 16.01, 0.5)):
        form = qb.bcs_form(p)
        for t in (1.0, 5.0):
            u = qb.propagate(form, t).U
            err = np.abs(u - qb.bcs_closed_evolution(p, t)).max() / max(np.abs(u).max(), 1.0)
            worst = max(worst, err)
    assert worst <= 1e-9


@pytest.mark.parametrize("delta", [1.0, -1.0])
def test_jordan_form_structure(delta):
    p = bcs(delta)
    jf = qb.bcs_jordan_form(p)
    m = metric(2)
    # the decoupled operators satisfy boson commutation relations
    assert np.abs(jf.transform @ m @ qb.bar(jf.transform) - m).max() <= 1e-12
    # reassembling the two terms reproduces the extended matrix
    h = qb.bcs_form(p).hmat
    assert np.abs(jf.reconstruct_extended() - h).max() <= 1e-12
    assert (jf.gamma, jf.delta) == (p.gamma, delta)
    # the inverse and the invariants are read off the transform once, read-only
    for name in ("inverse", "pair_invariant", "imbalance_invariant",
                 "pair_invariant_raw", "imbalance_invariant_raw"):
        value = getattr(jf, name)
        assert getattr(jf, name) is value and not value.flags.writeable


@pytest.mark.parametrize("delta", [1.0, -1.0])
def test_jordan_invariants_conserved_and_commuting(delta):
    p = bcs(delta)
    jf = qb.bcs_jordan_form(p)
    form = qb.bcs_form(p)
    m = metric(2)
    for t in (1.0, 3.0):
        u = qb.propagate(form, t).U
        ubar = qb.bar(u)
        for k in (jf.pair_invariant, jf.imbalance_invariant):
            assert np.abs(ubar @ k @ u - k).max() <= 1e-9
    comm = (jf.pair_invariant @ m @ jf.imbalance_invariant
            - jf.imbalance_invariant @ m @ jf.pair_invariant)
    assert np.abs(comm).max() <= 1e-10


def test_jordan_raw_product_matrices_are_not_invariant():
    # the plain row-product matrix of the imbalance operator picks up a
    # secular piece; only its bar-symmetrization is conserved
    jf = qb.bcs_jordan_form(bcs(1.0))
    u = qb.propagate(qb.bcs_form(bcs(1.0)), 1.0).U
    drift = np.abs(qb.bar(u) @ jf.imbalance_invariant_raw @ u
                   - jf.imbalance_invariant_raw).max()
    assert drift > 0.1


def test_jordan_decoupled_evolution_law():
    p = bcs(1.0)
    jf = qb.bcs_jordan_form(p)
    form = qb.bcs_form(p)
    for t in (0.5, 1.0, 5.0):
        u = qb.propagate(form, t).U
        v = jf.inverse @ u @ jf.transform
        assert np.abs(v - jf.evolution_matrix(t)).max() <= 1e-9 * max(abs(t), 1.0)


def test_thresholds_unperturbed():
    th = qb.bcs_thresholds(bcs(0.5))
    assert th.positivity == pytest.approx(SQRT_091, abs=1e-12)
    assert th.dynamical == pytest.approx(1.0)
    assert th.positivity < th.dynamical
    assert th.instability_onset is None
    assert th.reentry_window is None


def test_thresholds_perturbed_window():
    th = qb.bcs_thresholds(qb.BcsParams(1.0, 0.3, 0.0, 0.05))
    assert th.instability_onset == pytest.approx(0.9039392014169456, abs=1e-9)
    assert th.reentry_window is not None
    inner, outer = th.reentry_window
    assert inner == pytest.approx(1.0039392014169457, abs=1e-9)
    # the outer edge is the sqrt reading of the printed formula, not the literal one
    assert outer == th.delta_c_outer_sqrt_formula
    assert th.delta_c_outer_sqrt_formula == pytest.approx(1.0137937550497031,
                                                          abs=1e-12)
    assert abs(outer - th.delta_c_outer_literal_formula) > 1e-2


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("eps", [0.5, 1.0, 2.0, 7.3])
def test_reentry_window_edges_are_the_closed_forms(eps, scale):
    # the outer edge is eps sqrt(1 + kappa^2/gamma^2) at any scale, to the five
    # roundings of its float evaluation: over this grid the error stays below 1.5 ulp;
    # the verdicts change across both edges at every scale
    for ratio in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8):
        gamma = ratio * eps
        kappa_max = gamma ** 2 / math.sqrt(eps ** 2 - gamma ** 2)
        for kappa in (0.3 * kappa_max, -0.3 * kappa_max, 0.9 * kappa_max, -0.9 * kappa_max):
            p = qb.BcsParams(scale * eps, scale * gamma, 0.0, scale * kappa)
            th = qb.bcs_thresholds(p)
            inner, outer = th.reentry_window
            with localcontext() as ctx:
                ctx.prec = 50
                k, g = Decimal(p.kappa), Decimal(p.gamma)
                exact = Decimal(p.epsilon) * (1 + k * k / (g * g)).sqrt()
                assert abs(Decimal(outer) - exact) <= 2 * Decimal(math.ulp(outer)), p
            assert outer == th.delta_c_outer_sqrt_formula
            width = outer - inner
            verdicts = [qb.classify(qb.bcs_form(qb.BcsParams(p.epsilon, p.gamma, d, p.kappa)))
                        .classification for d in (inner - width / 100, inner + width / 100,
                                                  outer - width / 100, outer + width / 100)]
            unstable, stable = (qb.StabilityClass.UNSTABLE_COMPLEX,
                                qb.StabilityClass.STABLE_NON_POSITIVE)
            assert verdicts == [unstable, stable, stable, unstable], p


def test_thresholds_run_no_eigensolve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("bcs_thresholds ran an eigensolve")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    monkeypatch.setattr(np.linalg, "eig", refuse)
    th = qb.bcs_thresholds(qb.BcsParams(1.0, 0.3, 0.0, 0.05))
    assert th.reentry_window[1] == th.delta_c_outer_sqrt_formula


def test_thresholds_no_window_for_large_kappa():
    # 0.2 > gamma^2 / sqrt(eps^2 - gamma^2) ~ 0.0943
    th = qb.bcs_thresholds(qb.BcsParams(1.0, 0.3, 0.0, 0.2))
    assert th.reentry_window is None
    assert th.instability_onset == pytest.approx(SQRT_091 - 0.2, abs=1e-12)


def test_reentry_spectrum_real_inside_window():
    th = qb.bcs_thresholds(qb.BcsParams(1.0, 0.3, 0.0, 0.05))
    inner, outer = th.reentry_window
    onset = th.instability_onset
    for d in np.linspace(onset + 1e-3, inner - 1e-3, 7):
        p = qb.BcsParams(1.0, 0.3, float(d), 0.05)
        ev = np.linalg.eigvals(qb.bcs_form(p).generator)
        assert np.abs(ev.imag).max() > 1e-6, d
    for d in np.linspace(inner + 1e-4, outer - 1e-4, 7):
        p = qb.BcsParams(1.0, 0.3, float(d), 0.05)
        ev = np.linalg.eigvals(qb.bcs_form(p).generator)
        assert np.abs(ev.imag).max() <= 1e-10, d
