import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
import hypothesis.strategies as st

import quadboson as qb
from quadboson.cli import _mode_table
from quadboson import normal_modes

from conftest import bcs, multiset_dev, random_form
from references import (block_swap, coord_map, coordinate_quadratic_matrix, coordinate_rows,
                        metric)


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
    assert bt.report.hermitian_flags.all()


def test_bcs_frequencies_and_zero_point():
    # both frequencies from nu*gamma + sqrt(1 - delta^2); ground offset
    # (lam+ + lam-)/2 collapses to sqrt(1 - delta^2)
    bt = _pipeline(qb.bcs_form(bcs(0.5)))
    assert np.allclose(np.sort(bt.report.mode_frequencies.real),
                       [0.5660254037844386, 1.1660254037844386], atol=1e-10)
    assert bt.zero_point_energy.real == pytest.approx(0.8660254037844386, abs=1e-10)
    assert abs(bt.zero_point_energy.imag) <= 1e-12


def test_complex_mode_frequencies_flagged():
    bt = _pipeline(qb.bcs_form(bcs(1.2)))
    assert not bt.report.hermitian_flags.any()
    assert np.allclose(bt.report.mode_frequencies.imag, 0.6633249580710799, atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.sampled_from([0.5, -0.5]))
def test_commutation_and_reconstruction(seed, n, shift):
    rng = np.random.default_rng(seed)
    form = random_form(rng, n, shift=shift)
    bt = _pipeline(form)
    assert bt.metric_residual <= 1e-9
    # [b'_i, b'_j] = 0 and [b'bar_i, b'bar_j] = 0 on the extraction rows
    mt = metric(n) @ block_swap(n)
    same_kind = bt.extract_b @ mt @ bt.extract_b.T
    assert np.abs(same_kind).max() <= 1e-9
    same_kind_bar = bt.extract_bbar @ mt.T @ bt.extract_bbar.T
    assert np.abs(same_kind_bar).max() <= 1e-9
    h = form.hmat
    assert np.abs(bt.reconstruct_extended() - h).max() <= 1e-8 * max(
        np.abs(h).max(), 1.0)
    # b'_2 = b_2 + 0.3 b+_1, the other rows left as they are, and W their
    # inverse: [b'_i, b'bar_j] alone reads exactly the identity, while the
    # metric identity W M Wbar = M, which covers every block, fails by 0.3
    rows = np.eye(4, dtype=complex)
    rows[1, 2] = 0.3
    skewed = qb.BogoliubovTransform(np.linalg.inv(rows), _pipeline(
        qb.build_form(np.diag([1.0, 2.0]), np.zeros((2, 2)))).report)
    assert skewed.metric_residual >= 0.1


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
    assert bt.coordinate_weights[0] == pytest.approx(1.0)
    assert np.abs(np.abs(bt.extract_q[0]) - np.array([1.0, 0.0])).max() <= 1e-12
    assert np.abs(np.abs(bt.extract_p[0]) - np.array([0.0, 1.0])).max() <= 1e-12
    assert bt.report.hermitian_flags.all()


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.sampled_from([0.5, -0.5]))
def test_coordinate_diagonalizes_form(seed, n, shift):
    rng = np.random.default_rng(seed)
    form = random_form(rng, n, shift=shift)
    bt = _pipeline(form)
    weights = bt.coordinate_weights  # T' = V'
    s = coord_map(n)
    wc = s.conj().T @ bt.W @ s
    hc = form.coordinate_matrix
    hc_diag = wc.T @ hc @ wc
    target = np.diag(np.concatenate([weights, weights]))
    scale = max(np.abs(hc).max(), 1.0)
    assert np.abs(hc_diag - target).max() <= 1e-8 * scale
    # T'V' = lambda^2
    assert np.abs(weights * weights - bt.report.mode_frequencies ** 2).max() <= 1e-8 * scale


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6), st.sampled_from([0.5, -0.5]))
def test_coordinate_rows_match_the_dense_scaled_transform(seed, n, shift):
    # the index arithmetic on W^-1's halves against Mc (S+ W S)^t Mc: the same
    # rows up to the roundoff of a few additions and scalings
    bt = _pipeline(random_form(np.random.default_rng(seed), n, shift=shift))
    ref_q, ref_p = coordinate_rows(bt)
    tol = 16 * np.finfo(float).eps / 2 * np.abs(bt.W_inv).max()
    assert np.abs(bt.extract_q - ref_q).max() <= tol
    assert np.abs(bt.extract_p - ref_p).max() <= tol


@pytest.mark.parametrize("name", ["extract_q", "extract_p", "coordinate_weights"])
def test_coordinate_readings_are_read_only_and_cached(name):
    bt = _pipeline(qb.bcs_form(bcs(1.2)))
    first = getattr(bt, name)
    assert getattr(bt, name) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 1.0


@pytest.mark.parametrize("delta", [0.5, float(np.sqrt(0.91)), 1.2])
def test_coordinate_weights_are_the_frequencies_with_zero_modes_cleared(delta):
    bt = _pipeline(qb.bcs_form(bcs(delta)))
    expected = np.where(bt.report.zero_modes, 0.0, bt.report.mode_frequencies)
    assert bt.coordinate_weights.dtype == expected.dtype
    assert bt.coordinate_weights.tobytes() == expected.tobytes()


@pytest.mark.parametrize("delta", [0.5, 1.2])
def test_flipped_swaps_the_vectors_and_negates_the_frequency(delta):
    for pair in qb.classify(qb.bcs_form(bcs(delta))).pairs:
        flipped = pair.flipped()
        assert flipped.lam == -pair.lam
        assert np.array_equal(flipped.w_plus, -pair.w_minus)
        assert np.array_equal(flipped.w_minus, pair.w_plus)
        assert flipped.hermitian_pair is False


def test_the_coordinate_api_lives_on_the_transform():
    gone = ["CoordinateDiagonalForm", "coordinate_diagonal", "flip_mode", "metric",
            "block_swap", "coord_map", "coord_metric", "fock_operators",
            "fock_vector_operator"]
    assert [name for name in gone if hasattr(qb, name)] == []
    assert [name for name in vars(normal_modes) if not name.startswith("_")] == []


def test_coordinate_zero_mode_returned_unscaled():
    form = qb.bcs_form(bcs(float(np.sqrt(0.91))))
    bt = _pipeline(form)
    assert bt.coordinate_weights[1] == 0.0
    assert bt.coordinate_weights[0] == pytest.approx(0.6, abs=1e-9)
    assert list(bt.report.zero_modes) == [False, True]


def test_coordinate_nonhermitian_conjugation_relations():
    # q'_nu^dag = i q'_{-nu} and p'_nu^dag = -i p'_{-nu} above the gap
    bt = _pipeline(qb.bcs_form(bcs(1.2)))
    assert not bt.report.hermitian_flags.any()
    assert np.abs(np.conj(bt.extract_q[0]) - 1j * bt.extract_q[1]).max() <= 1e-12
    assert np.abs(np.conj(bt.extract_p[0]) + 1j * bt.extract_p[1]).max() <= 1e-12


def test_coordinate_rows_hermitian_for_real_modes():
    bt = _pipeline(qb.bcs_form(bcs(0.5)))
    assert bt.report.hermitian_flags.all()
    assert np.abs(bt.extract_q.imag).max() <= 1e-10
    assert np.abs(bt.extract_p.imag).max() <= 1e-10


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([0.5, -0.5]))
def test_quadrature_sum_equals_mode_number(seed, shift):
    # p'^2 + q'^2 = 2 b'bar b' + 1 as a matrix identity on extraction rows
    rng = np.random.default_rng(seed)
    form = random_form(rng, 2, shift=shift)
    bt = _pipeline(form)
    ks = bt.invariants
    for i in range(2):
        lhs = (coordinate_quadratic_matrix(bt.extract_q[i], 2)
               + coordinate_quadratic_matrix(bt.extract_p[i], 2))
        rhs = 2.0 * qb.bar_symmetrize(ks[i])
        assert np.abs(lhs - rhs).max() <= 1e-9 * max(np.abs(rhs).max(), 1.0)


def test_quadrature_rotation_under_evolution():
    # q'(t) = q' cos + p' sin, p'(t) = p' cos - q' sin, valid even for
    # complex frequencies
    for delta in (0.5, 1.2):
        form = qb.bcs_form(bcs(delta))
        bt = _pipeline(form)
        t = 0.7
        u = qb.propagate(form, t).U
        s = coord_map(2)
        uc = s.conj().T @ u @ s
        for i in range(2):
            lam = bt.report.mode_frequencies[i]
            c, sn = np.cos(lam * t), np.sin(lam * t)
            assert np.abs(bt.extract_q[i] @ uc
                          - (c * bt.extract_q[i] + sn * bt.extract_p[i])).max() <= 1e-9
            assert np.abs(bt.extract_p[i] @ uc
                          - (c * bt.extract_p[i] - sn * bt.extract_q[i])).max() <= 1e-9


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
    flipped = [p.flipped() for p in report.pairs]
    assert [f.lam for f in flipped] == [-p.lam for p in report.pairs]
    bt = qb.normalize_pairs(dataclasses.replace(
        report, pairs=sorted(flipped, key=lambda p: (-p.lam.real, -p.lam.imag))))
    assert bt.metric_residual <= 1e-10


def test_flip_mode_on_real_pair_leaves_adjoint_convention():
    # flipping a real mode gives frequency -lambda; the adjoint relation is
    # traded away, so the pair normalizes through the bilinear norm
    report = qb.classify(qb.build_form([[1.0]], [[0.0]]))
    flipped = report.pairs[0].flipped()
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
    assert bt.report is report
    n = form.n_modes
    assert bt.invariants.shape[0] == n
    assert bt.extract_q.shape == bt.extract_p.shape == (n, 2 * n)
    assert report.zero_mode_count == report.zero_modes.sum() == (bt.coordinate_weights == 0).sum()
    assert list(report.hermitian_flags) == [row["hermitian"] for row in _mode_table(report, bt)]


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
