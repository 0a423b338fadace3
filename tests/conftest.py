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


# (kappa, delta) on the outer edge of the reentry window, where two real
# frequencies of opposite Krein signature collide, at gamma = 0.3 eps: here
# roundoff splits the Jordan pair at +lambda by less than the cluster radius
# and the one at -lambda by more, or the other way round
OUTER_EDGE = [(0.02, 1.0022197585580783), (-0.02, 1.0022197585580783),
              (0.02, 1.0022197585583092), (-0.02, 1.0022197585583092),
              (0.005, 1.0001388792450476), (0.01, 1.0005554013201237),
              (0.01, 1.0005554013203608), (0.03, 1.0049875621119793),
              (0.07, 1.026861453383234)]


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
