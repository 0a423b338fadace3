"""Dense references that the tests compare the library against.

The library works with sign flips, index permutations and index arithmetic
on occupation tuples; these helpers build the same objects the textbook way,
as dense matrices and matrix products, so that the tests can assert the
identities against an independent construction.  ``planted_form`` builds
forms whose frequencies, Jordan structure and verdict are known in advance.
"""

import numpy as np
import scipy.linalg as sla

import quadboson as qb
from quadboson.core import metric_signs


def metric(n_modes: int) -> np.ndarray:
    """Commutation metric M = diag(+1..+1, -1..-1), shape (2n, 2n)."""
    return np.diag(metric_signs(n_modes))


def block_swap(n_modes: int) -> np.ndarray:
    """Block-swap matrix T = [[0, I], [I, 0]], shape (2n, 2n)."""
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return np.block([[zero, eye], [eye, zero]])


def coord_map(n_modes: int) -> np.ndarray:
    """Unitary S mapping coordinates/momenta to ladder operators, Z = S R.

    S = (1/sqrt(2)) [[I, iI], [I, -iI]]; it satisfies S+ = S^t T.
    """
    eye = np.eye(n_modes)
    return np.block([[eye, 1j * eye], [eye, -1j * eye]]) / np.sqrt(2.0)


def coord_metric(n_modes: int) -> np.ndarray:
    """Commutation metric in the (q, p) representation, S+ M S = [[0, iI], [-iI, 0]]."""
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return np.block([[zero, 1j * eye], [-1j * eye, zero]])


def coordinate_rows(bt) -> tuple:
    """(q' rows, p' rows) on R of a transform through the scaled transform
    W_c = S+ W S: they are the halves of its metric inverse Mc W_c^t Mc."""
    n = bt.n_modes
    smap = coord_map(n)
    mc = coord_metric(n)
    wc = smap.conj().T @ bt.W @ smap
    wc_inv = mc @ wc.T @ mc
    return wc_inv[:n], wc_inv[n:]


def coordinate_quadratic_matrix(row: np.ndarray, n_modes: int) -> np.ndarray:
    """Bar-symmetrized Z-basis matrix of (row . R)^2 for an R-basis row.

    Handy for checking identities like p'^2 + q'^2 = 2 b'bar b' + 1 at the
    matrix level (the additive constant is invisible here by construction).
    """
    z_row = row @ coord_map(n_modes).conj().T
    return qb.bar_symmetrize(qb.quadratic_matrix(z_row, z_row))


def fock_operators(n_modes: int, n_max: int) -> list:
    """Dense annihilation matrices for each mode.

    Basis states are occupation tuples (n_1, ..., n_N), 0 <= n_i <= n_max,
    ordered lexicographically with n_1 most significant.
    """
    d = n_max + 1
    lower = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    eye = np.eye(d)
    ops = []
    for i in range(n_modes):
        mats = [eye] * n_modes
        mats[i] = lower
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        ops.append(out)
    return ops


def fock_vector_operator(row: np.ndarray, ops: list) -> np.ndarray:
    """Operator sum_k row[k] Z_k with Z = (b_1..b_n, b+_1..b+_n)."""
    n = len(ops)
    out = np.zeros_like(ops[0], dtype=complex)
    for k in range(n):
        out = out + row[k] * ops[k]
    for k in range(n):
        out = out + row[n + k] * ops[k].conj().T
    return out


# Blocks of a planted normal form: one mode A = +-omega, the pairing model
# (epsilon = 1, gamma = 0.3) in its complex regime and at its Jordan point
# delta = epsilon, and a zero mode A = B = 0.  Blocks of different kinds
# never share a frequency: the pairing model's sit at +-0.3 (+ i alpha),
# the modes' at |omega| >= 0.5.
_OMEGAS = np.arange(0.5, 2.01, 0.25)
_COMPLEX_DELTAS = (1.1, 1.2, 1.3, 1.4, 1.5)
_BLOCK_KINDS = ("mode", "complex", "jordan", "zero")
_BLOCK_WEIGHTS = (0.6, 0.15, 0.1, 0.15)


def planted_form(rng) -> tuple:
    """A form with a known answer: (form, planted lambda, verdict, cond(U)).

    A direct sum of one to eight blocks (n <= 16) is mixed by the random
    Bogoliubov map U = expm(-i M K), with K the Hmat of a random form
    scaled to a random 2-norm.  Then U M U+ = M, so Hmat' = U+ Hmat U is a
    valid form whose generator U^-1 (M Hmat) U keeps the planted
    frequencies and Jordan blocks.  The verdict takes a Jordan block over
    a complex frequency, a complex frequency over a negative or zero mode,
    and those over positive definite.  cond(U) = ||U||_2^2, since
    U^-1 = M U+ M has the norm of U.
    """
    a_blocks, b_blocks, lams, kinds = [], [], [], set()
    for _ in range(rng.integers(1, 9)):
        kind = rng.choice(_BLOCK_KINDS, p=_BLOCK_WEIGHTS)
        if kind == "mode":
            omega = rng.choice(_OMEGAS) * rng.choice([1.0, -1.0])
            kind = "negative" if omega < 0 else kind
            a_blocks.append([[omega]])
            b_blocks.append([[0.0]])
            lams.append(omega)
        elif kind == "zero":
            a_blocks.append([[0.0]])
            b_blocks.append([[0.0]])
            lams.append(0.0)
        else:
            delta = 1.0 if kind == "jordan" else rng.choice(_COMPLEX_DELTAS)
            p = qb.BcsParams(1.0, 0.3, delta)
            block = qb.bcs_form(p)
            a_blocks.append(block.A)
            b_blocks.append(block.B)
            lams.extend(qb.bcs_lambda(p))
        kinds.add(kind)
    planted = qb.build_form(sla.block_diag(*a_blocks), sla.block_diag(*b_blocks))
    n = planted.n_modes

    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    k = qb.build_form(0.5 * (a + a.conj().T), 0.5 * (b + b.T)).hmat
    k = k * (rng.uniform(0.0, 3.5) / np.linalg.norm(k, 2))
    u = sla.expm(-1j * metric_signs(n)[:, None] * k)
    h = u.conj().T @ planted.hmat @ u
    form = qb.build_form(h[:n, :n], h[:n, n:])

    if "jordan" in kinds:
        verdict = qb.StabilityClass.NON_DIAGONALIZABLE
    elif "complex" in kinds:
        verdict = qb.StabilityClass.UNSTABLE_COMPLEX
    elif kinds & {"negative", "zero"}:
        verdict = qb.StabilityClass.STABLE_NON_POSITIVE
    else:
        verdict = qb.StabilityClass.POSITIVE_DEFINITE
    return form, np.array(lams, dtype=complex), verdict, np.linalg.norm(u, 2) ** 2
