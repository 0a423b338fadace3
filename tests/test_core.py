import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import quadboson as qb
from quadboson.core import _hmat, _symmetrized, frobenius_norm, metric_signs
from quadboson.errors import DimensionMismatch, Overflow, StructureViolation

from conftest import multiset_dev, random_form


def test_harmonic_oscillator():
    form = qb.build_form([[1.0]], [[0.0]])
    assert form.n_modes == 1
    ext = qb.extended_matrix(form)
    assert np.array_equal(ext.matrix, np.diag([1.0, 1.0]))
    dyn = qb.dynamical_matrix(form)
    assert np.array_equal(dyn.matrix, np.diag([1.0, -1.0]))


def test_bcs_extended_layout():
    form = qb.bcs_form(qb.BcsParams(1.0, 0.3, 0.5))
    h = qb.extended_matrix(form).matrix
    expected = np.array([
        [1.3, 0.0, 0.0, 0.5],
        [0.0, 0.7, 0.5, 0.0],
        [0.0, 0.5, 1.3, 0.0],
        [0.5, 0.0, 0.0, 0.7],
    ])
    assert np.abs(h - expected).max() == 0.0
    # eigenvalues are the twofold-degenerate 1 +/- sqrt(0.34)
    w = np.linalg.eigvalsh(h)
    assert np.allclose(w, [0.4169048105154699] * 2 + [1.58309518948453] * 2,
                       atol=1e-12)


def test_bcs_dynamical_spectrum_real_case():
    # lam = +/-0.3 + sqrt(1 - delta^2) evaluated at delta = 0.5
    dyn = qb.dynamical_matrix(qb.bcs_form(qb.BcsParams(1.0, 0.3, 0.5)))
    ev = np.sort(np.linalg.eigvals(dyn.matrix).real)
    expected = np.sort([1.1660254037844386, 0.5660254037844386,
                        -1.1660254037844386, -0.5660254037844386])
    assert np.allclose(ev, expected, atol=1e-12)


def test_bcs_dynamical_spectrum_complex_case():
    dyn = qb.dynamical_matrix(qb.bcs_form(qb.BcsParams(1.0, 0.3, 1.2)))
    ev = np.linalg.eigvals(dyn.matrix)
    assert np.allclose(np.sort(np.abs(ev.imag)), [0.6633249580710799] * 4,
                       atol=1e-10)
    assert np.allclose(np.sort(np.abs(ev.real)), [0.3] * 4, atol=1e-10)


def test_rejects_nonhermitian_a():
    with pytest.raises(StructureViolation):
        qb.build_form([[1.0, 1j], [1j, 1.0]], np.zeros((2, 2)))


def test_rejects_asymmetric_b():
    with pytest.raises(StructureViolation):
        qb.build_form(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])


def test_symmetrizes_roundoff_noise():
    a = np.eye(2, dtype=complex)
    a[0, 1] = 1e-15
    form = qb.build_form(a, np.zeros((2, 2)))
    assert np.abs(form.A - form.A.conj().T).max() == 0.0


def test_rejects_shape_mismatch_and_empty():
    with pytest.raises(DimensionMismatch):
        qb.build_form(np.eye(2), np.zeros((3, 3)))
    with pytest.raises(DimensionMismatch):
        qb.build_form(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        qb.build_form(np.zeros((0, 0)), np.zeros((0, 0)))


def test_rejects_nonfinite():
    a = np.eye(2, dtype=complex)
    a[0, 0] = np.nan
    with pytest.raises(StructureViolation):
        qb.build_form(a, np.zeros((2, 2)))


def test_rejects_entries_that_overflow_when_symmetrized():
    with pytest.raises(Overflow):
        qb.build_form([[1e308]], [[0.0]])
    with pytest.raises(Overflow):
        qb.build_form([[1.0, 0.0], [0.0, 1.0]], [[0.0, 9e307], [9e307, 0.0]])
    form = qb.build_form([[8e307]], [[8e307]])  # 2 x 8e307 is still finite
    assert form.A[0, 0] == form.B[0, 0] == 8e307


def test_rejects_asymmetry_whose_norms_overflow():
    # above about 1e154 both Frobenius norms overflow to inf, and inf > tol * inf
    # is false; the test then compares the matrices scaled by their largest entry
    zeros = np.zeros((2, 2))
    with pytest.raises(StructureViolation, match="not hermitian"):
        qb.build_form([[1e200, 1e200], [0.0, 1e200]], zeros)
    with pytest.raises(StructureViolation, match="not symmetric"):
        qb.build_form(np.eye(2), [[0.0, 1e200], [-1e200, 0.0]])
    with pytest.raises(StructureViolation, match="not hermitian"):
        qb.build_form([[1e308, 1.5e308], [-1.5e308, 1e308]], zeros)
    form = qb.build_form([[1e200, 1e200j], [-1e200j, 1e200]], [[0.0, 1e200], [1e200, 0.0]])
    assert form.A[0, 1] == 1e200j and form.B[1, 0] == 1e200


def test_form_arrays_are_frozen():
    form = qb.build_form(np.eye(2), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        form.A[0, 0] = 2.0


def test_dynamical_is_exact_metric_product():
    rng = np.random.default_rng(7)
    form = random_form(rng, 3)
    h = qb.extended_matrix(form).matrix
    ht = qb.dynamical_matrix(form).matrix
    assert np.array_equal(ht, qb.metric(3) @ h)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_sign_flips_and_half_roll_match_dense_products(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n))
    t, m = qb.block_swap(n), qb.metric(n)
    assert np.array_equal(qb.bar(x), t @ x.T @ t)
    signs = metric_signs(n)
    assert np.array_equal(signs[:, None] * x, m @ x)
    assert np.array_equal(x * signs, x @ m)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_structure_identities_random(seed, n):
    rng = np.random.default_rng(seed)
    form = random_form(rng, n)
    h = qb.extended_matrix(form).matrix
    ht = qb.dynamical_matrix(form).matrix
    m, t = qb.metric(n), qb.block_swap(n)
    scale = max(np.abs(h).max(), 1.0)
    # hermitian and bar-symmetric extended matrix
    assert np.abs(h - h.conj().T).max() <= 1e-12 * scale
    assert np.abs(t @ h.T @ t - h).max() <= 1e-12 * scale
    # the generator obeys T Ht^t T = -M Ht M
    assert np.abs(t @ ht.T @ t + m @ ht @ m).max() <= 1e-12 * scale


def test_coordinate_form_trivial():
    cf = qb.coordinate_form(qb.build_form([[1.0]], [[0.0]]))
    assert np.array_equal(cf.V, [[1.0]])
    assert np.array_equal(cf.T, [[1.0]])
    assert np.array_equal(cf.U, [[0.0]])


def test_coordinate_form_bcs():
    # the pairing enters V with + sign and T with - sign
    cf = qb.coordinate_form(qb.bcs_form(qb.BcsParams(1.0, 0.3, 0.5)))
    assert np.allclose(cf.V, [[1.3, 0.5], [0.5, 0.7]], atol=0)
    assert np.allclose(cf.T, [[1.3, -0.5], [-0.5, 0.7]], atol=0)
    assert np.abs(cf.U).max() == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_coordinate_roundtrip_random(seed, n):
    rng = np.random.default_rng(seed)
    form = random_form(rng, n)
    h = qb.extended_matrix(form).matrix
    hc = qb.coordinate_matrix(qb.coordinate_form(form))
    s = qb.coord_map(n)
    scale = max(np.abs(h).max(), 1.0)
    assert np.abs(s.conj().T @ h @ s - hc).max() <= 1e-12 * scale
    assert np.abs(s @ hc @ s.conj().T - h).max() <= 1e-12 * scale
    # Hc is real symmetric
    assert np.abs(hc.imag).max() <= 1e-12 * scale
    assert np.abs(hc - hc.T).max() <= 1e-12 * scale


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_coordinate_generator_same_spectrum(seed, n):
    rng = np.random.default_rng(seed)
    form = random_form(rng, n)
    ht = qb.dynamical_matrix(form).matrix
    s = qb.coord_map(n)
    ev1 = np.linalg.eigvals(ht)
    ev2 = np.linalg.eigvals(s.conj().T @ ht @ s)
    assert multiset_dev(ev1, ev2) <= 1e-9 * max(np.abs(ev1).max(), 1.0)


def test_coordinate_generator_block_structure():
    # Mc Hc = i [[U^t, T], [-V, -U]]
    rng = np.random.default_rng(3)
    form = random_form(rng, 2)
    cf = qb.coordinate_form(form)
    hc = qb.coordinate_matrix(cf)
    lhs = qb.coord_metric(2) @ hc
    rhs = 1j * np.block([[cf.U.T, cf.T], [-cf.V, -cf.U]])
    assert np.abs(lhs - rhs).max() <= 1e-14


def test_extended_matrix_equals_the_block_assembly_bit_for_bit():
    rng = np.random.default_rng(29)
    forms = [random_form(rng, n) for n in (1, 2, 3, 6)]
    forms.append(qb.bcs_form(qb.BcsParams(1.0, 0.3, 0.5, 0.05)))
    # -0.0 real and imaginary parts in every block, as a form may hold them
    signed = np.array([[complex(-0.0, -0.0), complex(1.0, -0.0)],
                       [complex(-0.0, 2.0), complex(-1.5, 0.0)]])
    forms.append(qb.QuadraticForm(2, signed, signed.T.copy()))
    forms.append(qb.build_form([[1.0, -0.0], [-0.0, 2.0]],
                               [[complex(-0.0, 0.5), -0.0], [-0.0, complex(0.25, -0.0)]]))
    for form in forms:
        want = np.block([[form.A, form.B], [form.B.conj(), form.A.T]])
        got = qb.extended_matrix(form).matrix
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # stacked, as bcs_sweep assembles a grid: raw matrices with rounding
    # noise and signed zeros, symmetrized and laid out matrix by matrix
    raw = [(f.A + 1e-14j * rng.normal(size=f.A.shape), f.B + 1e-14 * rng.normal(size=f.B.shape))
           for f in forms[:-2] if f.n_modes == 2]
    raw.append((np.array([[1.0, -0.0], [-0.0, 2.0]], dtype=complex),
                np.array([[complex(-0.0, 0.5), -0.0], [-0.0, complex(0.25, -0.0)]])))
    a, b = (np.stack(m) for m in zip(*raw))
    stacked = _hmat(*_symmetrized(a, b))
    assert stacked.shape == (len(raw), 4, 4)
    for (a_k, b_k), got in zip(raw, stacked):
        want = qb.extended_matrix(qb.build_form(a_k, b_k)).matrix
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_metric_signs_is_one_read_only_array_per_n():
    for n in (1, 2, 5):
        signs = metric_signs(n)
        assert signs is metric_signs(n)
        want = np.concatenate([np.ones(n), -np.ones(n)])
        assert signs.dtype == want.dtype and signs.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            signs[0] = 2.0


@pytest.mark.parametrize("shape", [(2, 2), (6, 6), (3, 4, 4)])
def test_bar_copies_the_blocks_of_the_half_roll(shape):
    rng = np.random.default_rng(31)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    x.flat[0] = complex(-0.0, -0.0)
    half = shape[-1] // 2
    want = np.roll(np.swapaxes(x, -1, -2), (half, half), axis=(-2, -1))
    got = qb.bar(x)
    assert got.strides == want.strides and got.tobytes() == want.tobytes()


def test_frobenius_norm_is_numpy_norm_bit_for_bit():
    rng = np.random.default_rng(37)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    signed = np.array([complex(-0.0, 0.5), complex(1.0, -0.0), complex(-0.0, -0.0)])
    for x in (m, m[:, 2], m[1], m.T, signed, m * 1e200, m * 1e-200):
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = frobenius_norm(x), np.linalg.norm(x)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
