import numpy as np
import pytest

import quadboson as qb
from quadboson.errors import DimensionCap, WrongRegime

from conftest import bcs, random_form


def dense_product_hamiltonian(form, n_max):
    """Reference: the form assembled from dense ladder-matrix products."""
    ops = qb.fock_operators(form.n_modes, n_max)
    dim = ops[0].shape[0]
    h = np.zeros((dim, dim), dtype=complex)
    eye = np.eye(dim)
    for i in range(form.n_modes):
        bi_dag = ops[i].conj().T
        for j in range(form.n_modes):
            h += form.A[i, j] * (bi_dag @ ops[j] + (0.5 if i == j else 0.0) * eye)
            h += 0.5 * (form.B[i, j] * (bi_dag @ ops[j].conj().T)
                        + np.conj(form.B[i, j]) * (ops[i] @ ops[j]))
    return h


def assert_same_bits(h, ref):
    assert h.shape == ref.shape and h.dtype == ref.dtype
    assert np.array_equal(h.view(np.float64), ref.view(np.float64))
    assert np.array_equal(np.signbit(h.view(np.float64)), np.signbit(ref.view(np.float64)))


def test_harmonic_oscillator_ladder():
    form = qb.build_form([[1.0]], [[0.0]])
    trunc = qb.fock_hamiltonian(form, 3)
    assert trunc.dim == 4
    w = np.linalg.eigvalsh(trunc.H_matrix)
    assert np.allclose(w, [0.5, 1.5, 2.5, 3.5], atol=1e-12)


def test_fock_matrix_hermitian(rng):
    form = random_form(rng, 2, shift=0.3)
    trunc = qb.fock_hamiltonian(form, 6)
    h = trunc.H_matrix
    assert np.abs(h - h.conj().T).max() <= 1e-12 * max(np.abs(h).max(), 1.0)


@pytest.mark.parametrize("n_modes", [1, 2, 3])
def test_direct_assembly_matches_dense_products_bit_for_bit(rng, n_modes):
    for n_max in range(1, 9):
        form = random_form(rng, n_modes)
        assert_same_bits(qb.fock_hamiltonian(form, n_max).H_matrix,
                         dense_product_hamiltonian(form, n_max))


def test_direct_assembly_matches_dense_products_on_bcs():
    form = qb.bcs_form(bcs(0.5, kappa=0.05))
    assert_same_bits(qb.fock_hamiltonian(form, 8).H_matrix,
                     dense_product_hamiltonian(form, 8))


def test_dimension_cap():
    form = qb.bcs_form(bcs(0.5))
    with pytest.raises(DimensionCap):
        qb.fock_hamiltonian(form, 200)
    with pytest.raises(ValueError):
        qb.fock_hamiltonian(form, 0)


def test_spectrum_check_refuses_the_cap_before_the_lattice(monkeypatch):
    # 3^20 states at nmax 2: the cap must fire before 2^20 lattice points are enumerated
    def fail(*args, **kwargs):
        raise AssertionError("lattice enumerated before the cap check")

    monkeypatch.setattr(qb.oracle, "product", fail)
    form = qb.build_form(np.diag(np.linspace(1.0, 2.0, 20)), np.zeros((20, 20)))
    with pytest.raises(DimensionCap):
        qb.fock_spectrum_check(form, 2, 4)


def test_default_cap_bounds_the_dense_matrix(rng):
    # dimension 21^3 = 9261 would need a 1.37 GB matrix plus the copy the
    # eigensolve makes; the cap refuses it from the size estimate alone
    form = random_form(rng, 3, shift=0.5)
    with pytest.raises(DimensionCap, match=r"9261 \(1372257936 bytes dense\)"):
        qb.fock_hamiltonian(form, 20)
    assert 16 * qb.oracle.DEFAULT_DIM_CAP ** 2 == 2 ** 30


def test_ground_energy_converges_from_above():
    form = qb.bcs_form(bcs(0.5))
    energies = qb.fock_ground_trend(form, [8, 10, 12, 14])
    alpha = 0.8660254037844386
    for e in energies:
        assert e >= alpha - 1e-12
    for a, b in zip(energies, energies[1:]):
        assert b <= a + 1e-13
    assert abs(energies[-1] - alpha) <= 1e-3


def test_ground_energy_unbounded_below_in_indefinite_regime():
    form = qb.bcs_form(bcs(0.97))
    energies = qb.fock_ground_trend(form, [8, 12, 16, 20])
    for a, b in zip(energies, energies[1:]):
        assert b < a


def test_spectrum_check_bcs_lattice():
    report = qb.fock_spectrum_check(qb.bcs_form(bcs(0.5)), 14, 6)
    assert report.max_deviation <= 1e-3
    alpha, lp, lm = 0.8660254037844386, 1.1660254037844386, 0.5660254037844386
    expected = sorted([alpha, alpha + lm, alpha + lp, alpha + 2 * lm,
                       alpha + lp + lm, alpha + 3 * lm])
    assert np.abs(report.predicted - np.array(expected)).max() <= 1e-9
    assert len(report.ground_trend) == 3
    trend = [e for _, e in report.ground_trend]
    assert trend[0] >= trend[-1] - 1e-13


def test_spectrum_check_trend_stays_at_or_below_cutoff(monkeypatch):
    # no trend cutoff may exceed n_max: at n_max = 1 the trend builds nothing
    # beyond the one n_max matrix
    built = []
    build = qb.oracle.fock_hamiltonian

    def counting(form, n_max):
        built.append(n_max)
        return build(form, n_max)

    monkeypatch.setattr(qb.oracle, "fock_hamiltonian", counting)
    form = qb.bcs_form(bcs(0.5))
    report = qb.fock_spectrum_check(form, 1, 2)
    assert report.ground_trend == [(1, report.observed[0])]
    assert built == [1]
    report = qb.fock_spectrum_check(form, 6, 3)
    assert [m for m, _ in report.ground_trend] == [2, 4, 6]
    assert report.ground_trend[-1][1] == qb.fock_ground_energy(form, 6)


def test_spectrum_check_builds_the_trend_only_when_read(monkeypatch):
    built = []
    build = qb.oracle.fock_hamiltonian

    def counting(form, n_max, *args):
        built.append(n_max)
        return build(form, n_max, *args)

    monkeypatch.setattr(qb.oracle, "fock_hamiltonian", counting)
    report = qb.fock_spectrum_check(qb.bcs_form(bcs(0.5)), 10, 4)
    assert built == [10]
    trend = report.ground_trend
    assert built == [10, 6, 8]
    assert report.ground_trend is trend and built == [10, 6, 8]
    assert trend[-1] == (10, report.observed[0])
    assert report.to_dict()["ground_trend"] == [[m, e] for m, e in trend]


def test_spectrum_check_refuses_misaligned_levels():
    # frequencies (1, 1.5, 2.2): the 7th and 8th lattice levels (3 quanta of
    # mode 1, 2 of mode 2) need an occupation above nmax // 2 = 2
    form = qb.build_form(np.diag([1.0, 1.5, 2.2]), np.zeros((3, 3)))
    with pytest.raises(WrongRegime, match="n_max // 2 = 2"):
        qb.fock_spectrum_check(form, 5, 8)
    report = qb.fock_spectrum_check(form, 5, 6)
    excitations = [0.0, 1.0, 1.5, 2.0, 2.2, 2.5]
    assert np.abs(report.predicted - (2.35 + np.array(excitations))).max() <= 1e-12
    assert report.max_deviation <= 1e-12
    # a larger cutoff resolves all eight levels, 3.0 twice among them
    report = qb.fock_spectrum_check(form, 6, 8)
    assert np.abs(report.predicted - (2.35 + np.array(excitations + [3.0, 3.0]))).max() <= 1e-12


def test_spectrum_check_refuses_ties_at_the_last_level():
    # frequencies (1, 2): the 3rd level 1.5 + 2 is shared by (0, 1) and (2, 0),
    # and the second needs n_1 = 2 above nmax // 2 = 1
    form = qb.build_form(np.diag([1.0, 2.0]), np.zeros((2, 2)))
    with pytest.raises(WrongRegime):
        qb.fock_spectrum_check(form, 3, 3)
    assert qb.fock_spectrum_check(form, 3, 2).max_deviation <= 1e-12


def test_spectrum_check_single_mode_exact():
    report = qb.fock_spectrum_check(qb.build_form([[1.0]], [[0.0]]), 10, 4)
    assert report.max_deviation <= 1e-12
    assert np.allclose(report.predicted, [0.5, 1.5, 2.5, 3.5], atol=1e-12)


def test_spectrum_check_random_positive_form(rng):
    # moderate pairing so the n_max=14 truncation window suffices for 1e-3
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a = 0.5 * (a + a.conj().T)
    b = 0.3 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    b = 0.5 * (b + b.T)
    h = np.block([[a, b], [b.conj(), a.T]])
    a = a + (0.5 - np.linalg.eigvalsh(h).min()) * np.eye(2)
    form = qb.build_form(a, b)
    report = qb.fock_spectrum_check(form, 14, 4)
    assert report.max_deviation <= 1e-3


def test_spectrum_check_rejects_indefinite():
    with pytest.raises(WrongRegime):
        qb.fock_spectrum_check(qb.bcs_form(bcs(0.97)), 10, 4)


def test_vector_operator_commutators():
    # [b'_i, b'bar_j] = delta_ij realized on the truncated space away from
    # the cutoff boundary
    form = qb.bcs_form(bcs(0.5))
    report = qb.classify(form)
    bt = qb.normalize_pairs(report)
    n_max = 8
    ops = qb.fock_operators(2, n_max)
    dim = (n_max + 1) ** 2
    occ = [(i, j) for i in range(n_max + 1) for j in range(n_max + 1)]
    low = [k for k, (i, j) in enumerate(occ) if i + j <= n_max // 2]
    for i in range(2):
        bi = qb.fock_vector_operator(bt.extract_b[i], ops)
        for j in range(2):
            n = 2
            bbar_row = np.concatenate([bt.extract_bbar[j][n:],
                                       bt.extract_bbar[j][:n]])
            bj_bar = qb.fock_vector_operator(bbar_row, ops)
            comm = bi @ bj_bar - bj_bar @ bi
            block = comm[np.ix_(low, low)]
            target = (1.0 if i == j else 0.0) * np.eye(len(low))
            assert np.abs(block - target).max() <= 1e-10


def test_jordan_invariants_commute_in_fock_space():
    # independent check of the decoupled-form invariants: their commutator
    # vanishes on states away from the truncation boundary
    jf = qb.bcs_jordan_form(bcs(1.0))
    n_max = 10
    ops = qb.fock_operators(2, n_max)

    def op_from_rows(r1, r2):
        n = 2
        a = qb.fock_vector_operator(r1, ops)
        b = qb.fock_vector_operator(r2, ops)
        return a @ b

    r_bs_p, r_bs_m, r_bb_p, r_bb_m = jf.inverse
    inv1 = op_from_rows(r_bb_m, r_bb_p)
    inv2 = op_from_rows(r_bb_p, r_bs_p) - op_from_rows(r_bb_m, r_bs_m)
    comm = inv1 @ inv2 - inv2 @ inv1
    occ = [(i, j) for i in range(n_max + 1) for j in range(n_max + 1)]
    low = [k for k, (i, j) in enumerate(occ) if i + j <= n_max // 2]
    assert np.abs(comm[np.ix_(low, low)]).max() <= 1e-10


def test_jordan_form_matches_fock_hamiltonian():
    # the decoupled representation reproduces H operator by operator
    p = bcs(1.0)
    jf = qb.bcs_jordan_form(p)
    n_max = 8
    ops = qb.fock_operators(2, n_max)
    r_bs_p, r_bs_m, r_bb_p, r_bb_m = jf.inverse
    h_dec = (jf.gamma * (qb.fock_vector_operator(r_bb_p, ops)
                         @ qb.fock_vector_operator(r_bs_p, ops)
                         - qb.fock_vector_operator(r_bb_m, ops)
                         @ qb.fock_vector_operator(r_bs_m, ops))
             + jf.pairing_coefficient * qb.fock_vector_operator(r_bb_m, ops)
             @ qb.fock_vector_operator(r_bb_p, ops))
    h_direct = qb.fock_hamiltonian(qb.bcs_form(p), n_max).H_matrix
    occ = [(i, j) for i in range(n_max + 1) for j in range(n_max + 1)]
    low = [k for k, (i, j) in enumerate(occ) if i + j <= n_max // 2]
    block = (h_dec - h_direct)[np.ix_(low, low)]
    assert np.abs(block).max() <= 1e-10
