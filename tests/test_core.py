import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import quadboson as qb
from quadboson.core import (_hmat, _metric_defect, _symmetrized, bar, frobenius_norm,
                            metric_signs)
from quadboson.errors import DimensionMismatch, Overflow, StructureViolation

from conftest import multiset_dev, random_form
from references import block_swap, coord_map, coord_metric, metric


def test_harmonic_oscillator():
    form = qb.build_form([[1.0]], [[0.0]])
    assert form.n_modes == 1
    assert np.array_equal(form.hmat, np.diag([1.0, 1.0]))
    assert np.array_equal(form.generator, np.diag([1.0, -1.0]))


def test_bcs_extended_layout():
    form = qb.bcs_form(qb.BcsParams(1.0, 0.3, 0.5))
    h = form.hmat
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
    form = qb.bcs_form(qb.BcsParams(1.0, 0.3, 0.5))
    ev = np.sort(np.linalg.eigvals(form.generator).real)
    expected = np.sort([1.1660254037844386, 0.5660254037844386,
                        -1.1660254037844386, -0.5660254037844386])
    assert np.allclose(ev, expected, atol=1e-12)


def test_bcs_dynamical_spectrum_complex_case():
    form = qb.bcs_form(qb.BcsParams(1.0, 0.3, 1.2))
    ev = np.linalg.eigvals(form.generator)
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
    h = form.hmat
    ht = form.generator
    assert np.array_equal(ht, metric(3) @ h)


def test_the_metric_defect_is_the_two_d_two_norm_bit_for_bit():
    # ||W M Wbar - M||_2 over the last two axes has the bits of the 2-D
    # np.linalg.norm(m, 2), matrix by matrix and over a stack of transforms
    rng = np.random.default_rng(3)
    by_n = {}
    for k in range(300):
        n = 1 + k % 4
        w = qb.normalize_pairs(qb.classify(random_form(rng, n, (0.5, -0.5)[k % 2]))).W
        want = np.linalg.norm((w * metric_signs(n)) @ bar(w) - metric(n), 2)
        assert _metric_defect(w) == want
        by_n.setdefault(n, []).append((w, want))
    for pairs in by_n.values():
        stack, wants = zip(*pairs)
        assert _metric_defect(np.array(stack)).tolist() == list(wants)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_sign_flips_and_half_roll_match_dense_products(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n))
    t, m = block_swap(n), metric(n)
    assert np.array_equal(qb.bar(x), t @ x.T @ t)
    signs = metric_signs(n)
    assert np.array_equal(signs[:, None] * x, m @ x)
    assert np.array_equal(x * signs, x @ m)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_structure_identities_random(seed, n):
    rng = np.random.default_rng(seed)
    form = random_form(rng, n)
    h = form.hmat
    ht = form.generator
    m, t = metric(n), block_swap(n)
    scale = max(np.abs(h).max(), 1.0)
    # hermitian and bar-symmetric extended matrix
    assert np.abs(h - h.conj().T).max() <= 1e-12 * scale
    assert np.abs(t @ h.T @ t - h).max() <= 1e-12 * scale
    # the generator obeys T Ht^t T = -M Ht M
    assert np.abs(t @ ht.T @ t + m @ ht @ m).max() <= 1e-12 * scale


def test_coordinate_form_trivial():
    hc = qb.build_form([[1.0]], [[0.0]]).coordinate_matrix
    assert np.array_equal(hc[:1, :1], [[1.0]])  # V
    assert np.array_equal(hc[1:, 1:], [[1.0]])  # T
    assert np.array_equal(hc[:1, 1:], [[0.0]])  # U


def test_coordinate_form_bcs():
    # the pairing enters V with + sign and T with - sign
    hc = qb.bcs_form(qb.BcsParams(1.0, 0.3, 0.5)).coordinate_matrix
    assert np.allclose(hc[:2, :2], [[1.3, 0.5], [0.5, 0.7]], atol=0)  # V
    assert np.allclose(hc[2:, 2:], [[1.3, -0.5], [-0.5, 0.7]], atol=0)  # T
    assert np.abs(hc[:2, 2:]).max() == 0.0  # U


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_coordinate_roundtrip_random(seed, n):
    rng = np.random.default_rng(seed)
    form = random_form(rng, n)
    h = form.hmat
    hc = form.coordinate_matrix
    s = coord_map(n)
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
    ht = form.generator
    s = coord_map(n)
    ev1 = np.linalg.eigvals(ht)
    ev2 = np.linalg.eigvals(s.conj().T @ ht @ s)
    assert multiset_dev(ev1, ev2) <= 1e-9 * max(np.abs(ev1).max(), 1.0)


def test_coordinate_generator_block_structure():
    # Mc Hc = i [[U^t, T], [-V, -U]]
    rng = np.random.default_rng(3)
    form = random_form(rng, 2)
    hc = form.coordinate_matrix
    v, u, t = hc[:2, :2], hc[:2, 2:], hc[2:, 2:]
    lhs = coord_metric(2) @ hc
    rhs = 1j * np.block([[u.T, t], [-v, -u]])
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
        got = form.hmat
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
        want = qb.build_form(a_k, b_k).hmat
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _signed_zero_forms(rng):
    """Random forms whose A and B hold -0.0 real and imaginary parts in a
    symmetric pattern of entries, so they stay hermitian and symmetric."""
    forms = []
    for n in (1, 2, 3, 5):
        form = random_form(rng, n, shift=rng.choice([None, 0.5, -0.5]))
        a, b = form.A.copy(), form.B.copy()
        zero = rng.random((n, n)) < 0.4
        zero |= zero.T
        a.real[zero], a.imag[zero] = -0.0, -0.0
        b.real[zero], b.imag[zero] = -0.0, -0.0
        forms.append(qb.QuadraticForm(n, a, b))
    return forms


def _coordinate_blocks(form):
    v = (form.A + form.B).real.copy()
    t = (form.A - form.B).real.copy()
    u = (form.B - form.A).imag.copy()
    return np.block([[v, u], [u.T, t]])


READINGS = {
    "hmat": lambda form: _hmat(form.A, form.B),
    "generator": lambda form: metric_signs(form.n_modes)[:, None] * _hmat(form.A, form.B),
    "coordinate_matrix": _coordinate_blocks,
}


@pytest.mark.parametrize("name", sorted(READINGS))
def test_form_readings_are_read_only_cached_and_bit_equal_to_their_expressions(name):
    rng = np.random.default_rng(41)
    for form in _signed_zero_forms(rng):
        got = getattr(form, name)
        assert getattr(form, name) is got
        want = READINGS[name](form)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(form, name, want)
        assert getattr(form, name) is got


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
