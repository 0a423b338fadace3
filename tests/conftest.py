import os

# Pin BLAS to one thread before numpy loads it: the suite's many small LAPACK
# calls slow down by an order of magnitude when threads oversubscribe a busy
# machine.  An explicit setting in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import quadboson as qb  # noqa: E402


def random_form(rng, n, shift=None):
    """Random valid form; ``shift`` pins the smallest eigenvalue of the
    extended matrix (positive -> positive definite, negative -> indefinite
    and typically dynamically unstable)."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = 0.5 * (a + a.conj().T)
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    b = 0.5 * (b + b.T)
    if shift is not None:
        h = np.block([[a, b], [b.conj(), a.T]])
        a = a + (shift - np.linalg.eigvalsh(h).min()) * np.eye(n)
    return qb.build_form(a, b)


def bcs(delta, kappa=0.0):
    return qb.BcsParams(1.0, 0.3, delta, kappa)


def multiset_dev(a, b):
    """Greedy nearest-match distance between two complex multisets.

    Sorting complex arrays is unstable when real parts collide at roundoff
    level, so spectra are compared by matching instead."""
    a = list(np.asarray(a, dtype=complex))
    b = list(np.asarray(b, dtype=complex))
    assert len(a) == len(b)
    worst = 0.0
    for x in a:
        dist = [abs(x - y) for y in b]
        k = int(np.argmin(dist))
        worst = max(worst, dist[k])
        b.pop(k)
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
