import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
import hypothesis.strategies as st

import quadboson as qb
from quadboson.cli import _mode_table
from quadboson.normal_modes import coordinate_quadratic_matrix

from conftest import bcs, multiset_dev, random_form


def _pipeline(form):
    """Transform from classify's pairs."""
    report = qb.classify(form)
    assert report.diagonalizable
    return qb.normalize_pairs(report)


def test_single_mode_trivial():
    form = qb.build_form([[1.0]], [[0.0]])
    bt = _pipeline(form)
    assert np.abs(np.abs(bt.extract_b[0]) - np.array([1.0, 0.0])).max() <= 1e-12
    assert np.abs(np.abs(bt.extract_bbar[0]) - np.array([1.0, 0.0])).max() <= 1e-12
    assert bt.zero_point_energy == pytest.approx(0.5)
    assert bt.hermitian_flags.all()


def test_bcs_frequencies_and_zero_point():
    # both frequencies from nu*gamma + sqrt(1 - delta^2); ground offset
    # (lam+ + lam-)/2 collapses to sqrt(1 - delta^2)
    bt = _pipeline(qb.bcs_form(bcs(0.5)))
    assert np.allclose(np.sort(bt.lambdas.real),
                       [0.5660254037844386, 1.1660254037844386], atol=1e-10)
    assert bt.zero_point_energy.real == pytest.approx(0.8660254037844386, abs=1e-10)
    assert abs(bt.zero_point_energy.imag) <= 1e-12


def test_complex_mode_frequencies_flagged():
    bt = _pipeline(qb.bcs_form(bcs(1.2)))
    assert not bt.hermitian_flags.any()
    assert np.allclose(bt.lambdas.imag, 0.6633249580710799, atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.sampled_from([0.5, -0.5]))
def test_commutation_and_reconstruction(seed, n, shift):
    rng = np.random.default_rng(seed)
    form = random_form(rng, n, shift=shift)
    bt = _pipeline(form)
    assert np.abs(bt.commutator_matrix() - np.eye(n)).max() <= 1e-9
    # [b'_i, b'_j] = 0 and [b'bar_i, b'bar_j] = 0 on the extraction rows
    mt = qb.metric(n) @ qb.block_swap(n)
    same_kind = bt.extract_b @ mt @ bt.extract_b.T
    assert np.abs(same_kind).max() <= 1e-9
    same_kind_bar = bt.extract_bbar @ mt.T @ bt.extract_bbar.T
    assert np.abs(same_kind_bar).max() <= 1e-9
    h = form.hmat
    assert np.abs(bt.reconstruct_extended() - h).max() <= 1e-8 * max(
        np.abs(h).max(), 1.0)


def test_adjoint_relation_real_modes_only():
    # real lambda: b'bar is the adjoint of b' (rows related by conjugation);
    # complex lambda: the relation must fail
    bt = _pipeline(qb.bcs_form(bcs(0.5)))
    for i in range(2):
        assert np.abs(np.conj(bt.extract_b[i]) - bt.extract_bbar[i]).max() <= 1e-10

    bt = _pipeline(qb.bcs_form(bcs(1.2)))
    for i in range(2):
        assert np.abs(np.conj(bt.extract_b[i]) - bt.extract_bbar[i]).max() > 0.1


def test_complex_conjugation_links_opposite_modes():
    # above the gap: b'_nu^dag = i b'_{-nu} and bbar'_nu^dag = i bbar'_{-nu}
    bt = _pipeline(qb.bcs_form(bcs(1.2)))
    n = 2

    def adjoint_row(row):
        return np.concatenate([np.conj(row[n:]), np.conj(row[:n])])

    assert np.abs(adjoint_row(bt.extract_b[0]) - 1j * bt.extract_b[1]).max() <= 1e-12
    swap_cols = np.concatenate([1j * bt.extract_bbar[1][n:],
                                1j * bt.extract_bbar[1][:n]])
    assert np.abs(np.conj(bt.extract_bbar[0]) - swap_cols).max() <= 1e-12


def test_coordinate_diagonal_trivial():
    form = qb.build_form([[1.0]], [[0.0]])
    bt = _pipeline(form)
    cd = qb.coordinate_diagonal(bt)
    assert cd.Tprime[0] == pytest.approx(1.0)
    assert cd.Vprime[0] == pytest.approx(1.0)
    assert np.abs(np.abs(cd.extract_q[0]) - np.array([1.0, 0.0])).max() <= 1e-12
    assert np.abs(np.abs(cd.extract_p[0]) - np.array([0.0, 1.0])).max() <= 1e-12
    assert cd.hermitian_flags.all()


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.sampled_from([0.5, -0.5]))
def test_coordinate_diagonalizes_form(seed, n, shift):
    rng = np.random.default_rng(seed)
    form = random_form(rng, n, shift=shift)
    bt = _pipeline(form)
    cd = qb.coordinate_diagonal(bt)
    s = qb.coord_map(n)
    wc = s.conj().T @ bt.W @ s
    hc = form.coordinate_matrix
    hc_diag = wc.T @ hc @ wc
    target = np.diag(np.concatenate([cd.Vprime, cd.Tprime]))
    scale = max(np.abs(hc).max(), 1.0)
    assert np.abs(hc_diag - target).max() <= 1e-8 * scale
    # T'V' = lambda^2
    assert np.abs(cd.Tprime * cd.Vprime - bt.lambdas ** 2).max() <= 1e-8 * scale


def test_coordinate_zero_mode_returned_unscaled():
    form = qb.bcs_form(bcs(float(np.sqrt(0.91))))
    bt = _pipeline(form)
    cd = qb.coordinate_diagonal(bt)
    assert list(cd.zero_modes) == [False, True]
    assert cd.Tprime[1] == 0.0 and cd.Vprime[1] == 0.0
    assert cd.Tprime[0] == pytest.approx(0.6, abs=1e-9)
    assert list(bt.zero_modes) == [False, True]


def test_coordinate_nonhermitian_conjugation_relations():
    # q'_nu^dag = i q'_{-nu} and p'_nu^dag = -i p'_{-nu} above the gap
    bt = _pipeline(qb.bcs_form(bcs(1.2)))
    cd = qb.coordinate_diagonal(bt)
    assert not cd.hermitian_flags.any()
    assert np.abs(np.conj(cd.extract_q[0]) - 1j * cd.extract_q[1]).max() <= 1e-12
    assert np.abs(np.conj(cd.extract_p[0]) + 1j * cd.extract_p[1]).max() <= 1e-12


def test_coordinate_rows_hermitian_for_real_modes():
    bt = _pipeline(qb.bcs_form(bcs(0.5)))
    cd = qb.coordinate_diagonal(bt)
    assert cd.hermitian_flags.all()
    assert np.abs(cd.extract_q.imag).max() <= 1e-10
    assert np.abs(cd.extract_p.imag).max() <= 1e-10


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([0.5, -0.5]))
def test_quadrature_sum_equals_mode_number(seed, shift):
    # p'^2 + q'^2 = 2 b'bar b' + 1 as a matrix identity on extraction rows
    rng = np.random.default_rng(seed)
    form = random_form(rng, 2, shift=shift)
    bt = _pipeline(form)
    cd = qb.coordinate_diagonal(bt)
    ks = bt.invariants
    for i in range(2):
        lhs = (coordinate_quadratic_matrix(cd.extract_q[i], 2)
               + coordinate_quadratic_matrix(cd.extract_p[i], 2))
        rhs = 2.0 * qb.bar_symmetrize(ks[i])
        assert np.abs(lhs - rhs).max() <= 1e-9 * max(np.abs(rhs).max(), 1.0)


def test_quadrature_rotation_under_evolution():
    # q'(t) = q' cos + p' sin, p'(t) = p' cos - q' sin, valid even for
    # complex frequencies
    for delta in (0.5, 1.2):
        form = qb.bcs_form(bcs(delta))
        bt = _pipeline(form)
        cd = qb.coordinate_diagonal(bt)
        t = 0.7
        u = qb.propagate(form, t).U
        s = qb.coord_map(2)
        uc = s.conj().T @ u @ s
        for i in range(2):
            c, sn = np.cos(bt.lambdas[i] * t), np.sin(bt.lambdas[i] * t)
            assert np.abs(cd.extract_q[i] @ uc
                          - (c * cd.extract_q[i] + sn * cd.extract_p[i])).max() <= 1e-9
            assert np.abs(cd.extract_p[i] @ uc
                          - (c * cd.extract_p[i] - sn * cd.extract_q[i])).max() <= 1e-9


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.sampled_from([0.5, -0.5]))
def test_invariants_conserved(seed, n, shift):
    rng = np.random.default_rng(seed)
    form = random_form(rng, n, shift=shift)
    bt = _pipeline(form)
    ks = bt.invariants
    for t in (0.7, 0.4 + 0.3j):
        prop = qb.propagate(form, t)
        ubar = qb.bar(prop.U)
        for k in ks:
            defect = np.abs(ubar @ k @ prop.U - k).max()
            assert defect <= 1e-9 * max(np.abs(k).max(), 1.0) * max(
                np.linalg.norm(prop.U, 2) ** 2, 1.0)


def test_invariant_single_mode_is_number_operator():
    form = qb.build_form([[1.0]], [[0.0]])
    bt = _pipeline(form)
    ks = bt.invariants
    expected = np.zeros((2, 2))
    expected[0, 0] = 1.0
    assert np.abs(ks[0] - expected).max() <= 1e-12


def test_flip_mode_swaps_growth_labels():
    report = qb.classify(qb.bcs_form(bcs(1.2)))
    flipped = [qb.flip_mode(p) for p in report.pairs]
    assert [f.lam for f in flipped] == [-p.lam for p in report.pairs]
    bt = qb.normalize_pairs(dataclasses.replace(
        report, pairs=sorted(flipped, key=lambda p: (-p.lam.real, -p.lam.imag))))
    assert bt.metric_residual <= 1e-10


def test_flip_mode_on_real_pair_leaves_adjoint_convention():
    # flipping a real mode gives frequency -lambda; the adjoint relation is
    # traded away, so the pair normalizes through the bilinear norm
    report = qb.classify(qb.build_form([[1.0]], [[0.0]]))
    flipped = qb.flip_mode(report.pairs[0])
    assert flipped.lam == pytest.approx(-1.0)
    assert not flipped.hermitian_pair
    bt = qb.normalize_pairs(dataclasses.replace(report, pairs=[flipped]))
    assert bt.metric_residual <= 1e-12
    h = qb.build_form([[1.0]], [[0.0]]).hmat
    assert np.abs(bt.reconstruct_extended() - h).max() <= 1e-12


# forms that classify may call diagonalizable next to a Jordan point: random
# forms, the pairing model at delta = eps +/- 10^-k, and one mode with a ~ |b|
_near_defective_forms = st.one_of(
    st.builds(lambda seed, n, shift: random_form(np.random.default_rng(seed), n, shift),
              st.integers(0, 10_000), st.integers(1, 4), st.sampled_from([0.5, -0.5, None])),
    st.builds(lambda k, side, kappa: qb.bcs_form(qb.BcsParams(1.0, 0.3, 1.0 + side * 10.0 ** -k,
                                                               kappa)),
              st.integers(1, 16), st.sampled_from([1.0, -1.0]), st.sampled_from([0.0, 0.05, -0.05])),
    st.builds(lambda size, phase, k, side: qb.build_form(
                  [[size * (1.0 + side * 10.0 ** -k)]], [[size * np.exp(1j * phase)]]),
              st.sampled_from([1e-12, 1e-3, 1.0, 1e4]), st.floats(0.0, 2 * np.pi),
              st.integers(1, 16), st.sampled_from([1.0, -1.0])),
)


@settings(max_examples=150, deadline=None)
@given(_near_defective_forms, st.sampled_from([1e-12, 1e-9, 1e-3]))
def test_every_diagonalizable_verdict_gets_its_diagonal_form(form, eig_tol):
    # one verdict per form: whatever classify calls diagonalizable, every
    # consumer of its pairs accepts, with classify's zero modes and realness
    report = qb.classify(form, eig_tol)
    if not report.diagonalizable:
        return
    bt = qb.normalize_pairs(report)
    cd = qb.coordinate_diagonal(bt)
    assert bt.invariants.shape[0] == form.n_modes
    assert report.zero_mode_count == bt.zero_modes.sum() == cd.zero_modes.sum()
    assert list(bt.hermitian_flags) == list(cd.hermitian_flags) == [
        row["hermitian"] for row in _mode_table(report, bt)]


@pytest.mark.parametrize("side", [1.0, -1.0])
@pytest.mark.parametrize("k", range(3, 13))
def test_near_gap_accuracy_follows_the_conditioning(k, side):
    # next to the Jordan point delta = eps the transform is accurate to the
    # roundoff its conditioning predicts: frequencies to u ||M Hmat|| / min s
    # (Wilkinson's s = |y^H x| / (|x| |y|)) and the diagonalization of M Hmat
    # to u cond(W) ||M Hmat||, with cond(W) = ||W||_2^2
    p = bcs(1.0 + side * 10.0 ** -k)
    report = qb.classify(qb.bcs_form(p))
    assert report.diagonalizable
    bt = qb.normalize_pairs(report)
    mh = qb.bcs_form(p).generator
    scale = np.linalg.norm(mh, 2)
    u = np.finfo(float).eps / 2
    _, left, right = sla.eig(mh, left=True)
    s = np.abs((left.conj() * right).sum(axis=0)) / (
        np.linalg.norm(left, axis=0) * np.linalg.norm(right, axis=0))
    lams = report.mode_frequencies
    assert multiset_dev(lams, qb.bcs_lambda(p)) <= 8 * u * scale / s.min()
    target = np.diag(np.concatenate([lams, -lams]))
    cond = np.linalg.norm(bt.W, 2) ** 2
    assert np.linalg.norm(bt.W_inv @ mh @ bt.W - target, 2) <= 8 * u * cond * scale
