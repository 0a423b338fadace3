import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
import hypothesis.strategies as st

import quadboson as qb
from quadboson.core import DynamicalMatrix, bar, metric_signs
from quadboson.errors import Overflow, StepTooLarge

from conftest import bcs, random_form


def test_identity_at_t_zero():
    dyn = qb.dynamical_matrix(qb.bcs_form(bcs(0.5)))
    prop = qb.propagate(dyn, 0.0)
    assert np.array_equal(prop.U, np.eye(4))
    assert prop.symplectic_residual == 0.0
    assert prop.adjoint_residual == 0.0


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.sampled_from([0.5, -0.5]))
def test_group_property(seed, n, shift):
    rng = np.random.default_rng(seed)
    dyn = qb.dynamical_matrix(random_form(rng, n, shift=shift))
    t1, t2 = 0.4, 0.9 + 0.2j
    u1 = qb.propagate(dyn, t1).U
    u2 = qb.propagate(dyn, t2).U
    u12 = qb.propagate(dyn, t1 + t2).U
    scale = max(np.abs(u12).max(), 1.0)
    assert np.abs(u1 @ u2 - u12).max() <= 1e-9 * scale


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.sampled_from([0.5, -0.5]))
def test_symplectic_identity_any_time(seed, n, shift):
    rng = np.random.default_rng(seed)
    dyn = qb.dynamical_matrix(random_form(rng, n, shift=shift))
    for t in (1.0, 1.0j, 1.0 + 1.0j):
        prop = qb.propagate(dyn, t)
        norm = np.linalg.norm(prop.U, 2)
        assert prop.symplectic_residual <= 1e-9 * norm * norm


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.sampled_from([0.5, -0.5]))
def test_adjoint_identity_real_time_only(seed, n, shift):
    rng = np.random.default_rng(seed)
    dyn = qb.dynamical_matrix(random_form(rng, n, shift=shift))
    prop = qb.propagate(dyn, 1.3)
    assert prop.adjoint_residual <= 1e-9 * max(np.linalg.norm(prop.U, 2), 1.0)


def test_adjoint_identity_breaks_at_imaginary_time():
    dyn = qb.dynamical_matrix(qb.bcs_form(bcs(1.2)))
    prop = qb.propagate(dyn, 1.0j)
    assert prop.adjoint_residual >= 1e-2
    assert prop.symplectic_residual <= 1e-9 * np.linalg.norm(prop.U, 2) ** 2


def test_matches_closed_form_regular():
    p = bcs(0.5)
    dyn = qb.dynamical_matrix(qb.bcs_form(p))
    for t in (0.5, 1.0, 2.0):
        u = qb.propagate(dyn, t).U
        assert np.abs(u - qb.bcs_closed_evolution(p, t)).max() <= 1e-10


def test_matches_closed_form_jordan():
    p = bcs(1.0)
    dyn = qb.dynamical_matrix(qb.bcs_form(p))
    u = qb.propagate(dyn, 1.0).U
    assert np.abs(u - qb.bcs_closed_evolution(p, 1.0)).max() <= 1e-10
    # the (b+, b+) entry at t=1 is e^{-0.3i}(1 - i)
    assert u[0, 0] == pytest.approx(0.6598162824642664 - 1.2508566957869456j,
                                    abs=1e-10)
    # the (b+, b+_-) entry grows linearly: |entry| = t * delta
    u5 = qb.propagate(dyn, 5.0).U
    assert abs(u5[0, 3]) == pytest.approx(5.0, abs=1e-9)


def test_mode_evolution_phases():
    form = qb.build_form([[1.0]], [[0.0]])
    report = qb.classify(form)
    bt = qb.normalize_pairs(report)
    phases = qb.mode_evolution(bt, np.pi)
    assert phases[0, 0] == pytest.approx(-1.0, abs=1e-12)
    assert phases[0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_mode_evolution_unimodular_for_real_spectrum():
    form = qb.bcs_form(bcs(0.97))
    report = qb.classify(form)
    bt = qb.normalize_pairs(report)
    for t in (0.3, 2.0, 17.0):
        mags = np.abs(qb.mode_evolution(bt, t))
        assert np.abs(mags - 1.0).max() <= 1e-12


def test_mode_evolution_growth_and_decay():
    form = qb.bcs_form(bcs(1.2))
    report = qb.classify(form)
    bt = qb.normalize_pairs(report)
    phases = qb.mode_evolution(bt, 1.0)
    # |e^{-i lam t}| = e^{Im lam} for the growing member, reciprocal decay
    assert abs(phases[0, 0]) == pytest.approx(1.9412361445529052, abs=1e-9)
    assert abs(phases[0, 1]) == pytest.approx(1.0 / 1.9412361445529052, abs=1e-9)


def test_mode_evolution_consistent_with_propagator():
    for delta in (0.5, 1.2):
        form = qb.bcs_form(bcs(delta))
        report = qb.classify(form)
        bt = qb.normalize_pairs(report)
        t = 0.8
        u = qb.propagate(qb.dynamical_matrix(form), t).U
        diag = bt.W_inv @ u @ bt.W
        phases = qb.mode_evolution(bt, t)
        expected = np.diag(np.concatenate([phases[:, 0], phases[:, 1]]))
        scale = max(np.abs(expected).max(), 1.0)
        assert np.abs(diag - expected).max() <= 1e-9 * scale


def test_growth_classification():
    g = qb.growth_class(qb.classify(qb.bcs_form(bcs(0.97))))
    assert g.kind is qb.GrowthKind.QUASIPERIODIC
    assert g.rate == 0.0 and g.poly_degree == 0

    g = qb.growth_class(qb.classify(qb.bcs_form(bcs(1.0))))
    assert g.kind is qb.GrowthKind.POLYNOMIAL_TIMES_OSCILLATION
    assert g.rate == 0.0 and g.poly_degree == 1

    g = qb.growth_class(qb.classify(qb.bcs_form(bcs(1.2))))
    assert g.kind is qb.GrowthKind.EXPONENTIAL
    assert g.rate == pytest.approx(0.6633249580710799, abs=1e-9)


def test_growth_class_reads_the_report(monkeypatch):
    # the verdict's eigensolve already holds the Jordan structure: no new solve
    report = qb.classify(qb.bcs_form(bcs(1.0)))
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in ((np.linalg, "eig"), (np.linalg, "eigvals"), (np.linalg, "svd"),
                        (sla, "eig"), (sla, "eigvals"), (sla, "svdvals")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    g = qb.growth_class(report)
    assert calls == []
    assert (g.kind, g.poly_degree) == (qb.GrowthKind.POLYNOMIAL_TIMES_OSCILLATION, 1)


def test_growth_free_particle_zero_frequency_block():
    # H = p^2/2 has a Jordan block at frequency zero
    form = qb.build_form([[0.5]], [[-0.5]])
    report = qb.classify(form)
    g = qb.growth_class(report)
    assert g.kind is qb.GrowthKind.POLYNOMIAL_TIMES_OSCILLATION
    assert g.poly_degree == 1
    assert report.classification is qb.StabilityClass.NON_DIAGONALIZABLE
    assert report.zero_mode_count == 1


def test_ode_cross_check_accuracy():
    form = qb.build_form([[1.0]], [[0.0]])
    res = qb.ode_cross_check(qb.dynamical_matrix(form), 1.0, 1000)
    assert res <= 1e-10
    dyn = qb.dynamical_matrix(qb.bcs_form(bcs(1.0)))
    assert qb.ode_cross_check(dyn, 1.0, 2000) <= 1e-9
    assert qb.ode_cross_check(dyn, 0.0, 10) == 0.0


def test_ode_cross_check_validation():
    dyn = qb.dynamical_matrix(qb.bcs_form(bcs(0.5)))
    with pytest.raises(ValueError):
        qb.ode_cross_check(dyn, 1.0, 0)
    with pytest.raises(ValueError):
        qb.ode_cross_check(dyn, 1.0 + 1.0j, 10)
    with pytest.raises(StepTooLarge):
        qb.ode_cross_check(dyn, 10.0, 3, target=1e-12)
    # generous budget passes the pre-check and integrates
    assert qb.ode_cross_check(dyn, 1.0, 2000, target=1e-6) <= 1e-9


def test_overflow_raises():
    dyn = qb.dynamical_matrix(qb.bcs_form(bcs(1.2)))
    with pytest.raises(Overflow):
        qb.propagate(dyn, 400.0)


def _single_time(dyn, t):
    """One time through its own expm, matmul and SVD 2-norm."""
    u = sla.expm(-1j * complex(t) * dyn.matrix)
    signs = metric_signs(dyn.n_modes)
    return u, np.abs(u).max(), np.linalg.norm((u * signs) @ bar(u) - np.diag(signs), 2)


def _same_bits(x, ref):
    x, ref = np.asarray(x), np.asarray(ref)
    assert x.shape == ref.shape and x.dtype == ref.dtype
    xf, rf = x.view(np.float64), ref.view(np.float64)
    assert np.array_equal(xf, rf) and np.array_equal(np.signbit(xf), np.signbit(rf))


@pytest.mark.parametrize("n, steps", [(1, 4500), (2, 1500), (8, 150), (32, 9)])
def test_stacked_propagation_matches_single_times_bit_for_bit(rng, n, steps):
    forms = [random_form(rng, n, shift=0.5), random_form(rng, n, shift=-0.5),
             qb.build_form(np.diag(rng.normal(size=n)), np.zeros((n, n)))]
    if n == 2:
        forms.append(qb.bcs_form(bcs(1.0)))  # the defective Jordan form
    dyns = [qb.dynamical_matrix(form) for form in forms]
    # expm's triangular squarings, which no form's generator takes
    upper = np.triu(rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n)))
    dyns.append(DynamicalMatrix(n, 4.0 * upper))
    per = max(1, qb.evolution._STACK_BYTES // (16 * (2 * n) ** 2))
    assert steps > per  # the grid spans more than one stack
    grid = np.linspace(-2.0, 3.0, steps)
    zero = steps // 3
    grid[zero] = 0.0  # a t = 0 slice among the others of its stack
    for dyn in dyns:
        for shift in (0.0, 0.3j, -0.2j):
            times = [complex(t) + shift for t in grid]
            stack = (-1j * np.array(times))[:, None, None] * dyn.matrix
            _same_bits(qb.evolution._expm_stack(stack), sla.expm(stack))
            stacks = list(qb.propagate_grid(dyn, times))
            assert [len(s.U) for s in stacks[:-1]] == [per] * (len(stacks) - 1)
            u = np.concatenate([s.U for s in stacks])
            peaks = np.concatenate([s.max_abs for s in stacks])
            sym = np.concatenate([s.symplectic_residual for s in stacks])
            picks = [*(range(steps) if steps <= 150 else range(0, steps, 37)), zero]
            for i in picks:
                ref_u, ref_peak, ref_sym = _single_time(dyn, times[i])
                _same_bits(u[i], ref_u)
                _same_bits(peaks[i], ref_peak)
                _same_bits(sym[i], ref_sym)
            prop = qb.propagate(dyn, times[-1])
            _same_bits(prop.U, u[-1])
            assert prop.symplectic_residual == sym[-1]


def test_stacked_overflow_raises_at_the_first_time_over_the_guard():
    dyn = qb.dynamical_matrix(qb.bcs_form(bcs(1.2)))
    times = list(np.linspace(0.0, 600.0, 3001))  # three stacks of up to 1024 times at n = 2
    first = next(i for i, t in enumerate(times)
                 if not _single_time(dyn, t)[1] <= qb.evolution._ENTRY_GUARD)
    with pytest.raises(Overflow) as exc:
        list(qb.propagate_grid(dyn, times))
    with pytest.raises(Overflow) as single:
        qb.propagate(dyn, times[first])
    assert str(exc.value) == str(single.value)
    assert f"at t={times[first]};" in str(exc.value)


def test_stacked_refusal_names_the_first_time_past_the_cut_or_the_guard():
    # the resolution cut and the entry guard are checked together in stack
    # order: the first time that fails either one names the error
    dyn = qb.dynamical_matrix(qb.bcs_form(bcs(1.2)))  # ||M Hmat||_1 = 2.5
    cut = ("||t M Hmat||_1 = 2.500e+20 at t=1e+20 reaches 2^53 = 1/u, "
           "where expm resolves no digit of U")
    for times, expected in (([1.0, 1e20, 400.0], cut),
                            ([1.0, 400.0, 1e20], "propagator entries reach 1.5")):
        with pytest.raises(Overflow) as exc:
            list(qb.propagate_grid(dyn, times))
        assert str(exc.value).startswith(expected)
    # past the cut in the second stack: the first stack is still returned
    per = qb.evolution._STACK_BYTES // (16 * 4 ** 2)
    stacks = []
    with pytest.raises(Overflow) as exc:
        for stack in qb.propagate_grid(dyn, [1.0] * per + [1e20]):
            stacks.append(stack)
    assert [len(s.U) for s in stacks] == [per] and str(exc.value) == cut


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_returned_propagators_have_mode_magnitudes_within_the_guard(rng):
    # U(t)'s largest entry is at least its largest mode magnitude |e^{-i lambda t}|
    # over 2n, so a returned U whose mode magnitudes pass 2n times the entry
    # guard is growth that expm lost.  The entry guard and the resolution cut
    # leave none, for stable and unstable forms (n <= 8, entries scaled 1e-3 to
    # 1e3) at times log-spaced up to the cut, shifted into complex time; the
    # unstable one-mode form at t = 1e82, where expm returns a bounded U, needs the cut
    forms = [qb.build_form([[0.1257302210933933]],
                           [[complex(0.6404226504432821, 0.10490011715303971)]]),
             qb.build_form([[1.0]], [[0.5]]), qb.bcs_form(bcs(1.0)), qb.bcs_form(bcs(1.2))]
    for n in range(1, 9):
        for shift in (0.5, -0.5):
            for scale in (1e-3, 1.0, 1e3):
                form = random_form(rng, n, shift=shift)
                forms.append(qb.build_form(scale * form.A, scale * form.B))
    returned = 0
    for form in forms:
        dyn = qb.dynamical_matrix(form)
        lams = qb.classify(form).mode_frequencies
        reach = qb.evolution._RESOLUTION_CUT / np.linalg.norm(dyn.matrix, 1)
        for t_re in [*np.geomspace(1e-2, reach, 24), 1e82]:
            for t in (complex(t_re), t_re + 0.3j, t_re - 2j):
                try:
                    (stack,) = qb.propagate_grid(dyn, [t])
                except Overflow:
                    continue
                with np.errstate(over="ignore", invalid="ignore"):
                    mags = np.abs(np.exp(-1j * lams * t))
                assert mags.max() <= 2 * form.n_modes * qb.evolution._ENTRY_GUARD, (form, t)
                returned += 1
    assert returned > len(forms)


def test_jordan_norm_grows_linearly():
    dyn = qb.dynamical_matrix(qb.bcs_form(bcs(1.0)))
    ts = np.linspace(10.0, 100.0, 16)
    norms = [np.linalg.norm(qb.propagate(dyn, float(t)).U, 2) for t in ts]
    slope = np.polyfit(np.log(ts), np.log(norms), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)
