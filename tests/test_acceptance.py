"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import time

import numpy as np

import quadboson as qb

from conftest import bcs, multiset_dev, random_form
from references import metric

SQRT_091 = 0.9539392014169457
GRID = np.linspace(0.0, 1.5, 301)
BOUNDARIES = (SQRT_091, 1.0)


def _verdict(num, desc, ok):
    print(f"[criterion {num:02d}] {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} failed: {desc}"


def _expected_class(delta):
    if delta < SQRT_091:
        return qb.StabilityClass.POSITIVE_DEFINITE
    if delta < 1.0:
        return qb.StabilityClass.STABLE_NON_POSITIVE
    if delta == 1.0:
        return qb.StabilityClass.NON_DIAGONALIZABLE
    return qb.StabilityClass.UNSTABLE_COMPLEX


def test_criterion_01_regime_boundaries():
    t0 = time.perf_counter()
    ok = True
    for d in GRID:
        d = float(d)
        report = qb.classify(qb.bcs_form(bcs(d)))
        if abs(d - 1.0) <= 1e-12:
            ok &= report.classification is qb.StabilityClass.NON_DIAGONALIZABLE
            continue
        if min(abs(d - b) for b in BOUNDARIES) <= 1e-6:
            continue
        ok &= report.classification is _expected_class(d)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _verdict(1, f"301-point regime grid exact, {elapsed:.2f}s < 5s", ok)


def test_criterion_02_eigenvalue_formulas():
    worst_sigma = 0.0
    worst_lambda = 0.0
    for d in GRID:
        p = bcs(float(d))
        h = qb.bcs_form(p).hmat
        dense_sigma = np.sort(np.linalg.eigvalsh(h))[::-1]
        sigma = np.repeat(qb.bcs_sigma(p), 2)
        worst_sigma = max(worst_sigma, float(np.abs(np.sort(sigma)[::-1]
                                                    - dense_sigma).max()))
        # the defective gridpoint is excluded from the lambda comparison:
        # a dense eigensolve at a Jordan point carries O(sqrt(eps)) error
        # by itself, the same boundary exclusion as criterion 1
        if min(abs(float(d) - b) for b in BOUNDARIES) <= 1e-6:
            continue
        lp, lm = qb.bcs_lambda(p)
        dense = np.linalg.eigvals(qb.bcs_form(p).generator)
        worst_lambda = max(worst_lambda,
                           multiset_dev([lp, lm, -lp, -lm], dense))
    ok = worst_sigma <= 1e-10 and worst_lambda <= 1e-10
    _verdict(2, f"sigma dev {worst_sigma:.2e}, lambda dev {worst_lambda:.2e} "
                "<= 1e-10", ok)


def test_criterion_03_fock_oracle_convergence():
    t0 = time.perf_counter()
    form = qb.bcs_form(bcs(0.5))
    alpha = 0.8660254037844386
    energies = qb.fock_ground_trend(form, [8, 10, 12, 14])
    ok = all(e >= alpha - 1e-12 for e in energies)
    ok &= all(b <= a + 1e-13 for a, b in zip(energies, energies[1:]))
    ok &= abs(energies[-1] - alpha) <= 1e-3
    report = qb.fock_spectrum_check(form, 14, 6)
    ok &= report.max_deviation <= 1e-3
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _verdict(3, f"ground -> {energies[-1]:.7f} (target {alpha:.7f}), "
                f"6-level lattice dev {report.max_deviation:.1e} <= 1e-3, "
                f"{elapsed:.1f}s < 30s", ok)


def test_criterion_04_unbounded_below_detection():
    energies = qb.fock_ground_trend(qb.bcs_form(bcs(0.97)), [8, 12, 16, 20])
    ok = all(b < a for a, b in zip(energies, energies[1:]))
    _verdict(4, "truncated ground energy strictly decreasing at delta=0.97 "
                f"({', '.join(f'{e:.4f}' for e in energies)})", ok)


def test_criterion_05_symplectic_identity_complex_time():
    rng = np.random.default_rng(20240817)
    forms = [random_form(rng, int(rng.integers(1, 5)), shift=0.5)
             for _ in range(10)]
    forms += [random_form(rng, int(rng.integers(1, 5)), shift=-0.5)
              for _ in range(9)]
    forms.append(qb.bcs_form(bcs(1.2)))  # guaranteed complex frequencies
    ok = True
    adjoint_gap_seen = False
    for idx, form in enumerate(forms):
        for t in (1.0, 1.0j, 1.0 + 1.0j):
            prop = qb.propagate(form, t)
            u_norm = np.linalg.norm(prop.U, 2)
            ubar_norm = np.linalg.norm(qb.bar(prop.U), 2)
            ok &= prop.symplectic_residual <= 1e-9 * u_norm * ubar_norm
            if t == 1.0:
                ok &= prop.adjoint_residual <= 1e-9 * max(u_norm, 1.0)
            if t == 1.0j and idx >= 10:
                adjoint_gap_seen |= prop.adjoint_residual >= 1e-2
    ok &= adjoint_gap_seen
    _verdict(5, "U M Ubar = M for 20 forms at t in {1, i, 1+i}; Ubar = U+ "
                "at real t; adjoint gap >= 1e-2 at t=i on an unstable case", ok)


def test_criterion_06_jordan_propagator():
    p = bcs(1.0)
    form = qb.bcs_form(p)
    worst = 0.0
    for t in (0.5, 1.0, 5.0):
        u = qb.propagate(form, t).U
        worst = max(worst, float(np.abs(u - qb.bcs_closed_evolution(p, t)).max()))
    ok = worst <= 1e-9
    ts = np.linspace(10.0, 100.0, 16)
    norms = [np.linalg.norm(qb.propagate(form, float(t)).U, 2) for t in ts]
    slope = float(np.polyfit(np.log(ts), np.log(norms), 1)[0])
    ok &= abs(slope - 1.0) <= 0.05
    _verdict(6, f"closed-form match {worst:.1e} <= 1e-9; ||U(t)|| growth "
                f"degree {slope:.3f} = 1 +/- 0.05", ok)


def test_criterion_07_generalized_norm_regime():
    u, v = qb.bcs_uv(bcs(1.2))
    r1 = abs(u * u - v * v - 1.0)
    r2 = abs(abs(u) ** 2 - abs(v) ** 2)
    r3 = abs(np.conj(u) - 1j * v)
    ok = r1 <= 1e-12 and r2 <= 1e-12 and r3 <= 1e-12
    _verdict(7, f"delta=1.2: u^2-v^2-1 = {r1:.1e}, |u|^2-|v|^2 = {r2:.1e}, "
                f"u*-iv = {r3:.1e}, all <= 1e-12", ok)


def test_criterion_08_reentry_of_stability():
    th = qb.bcs_thresholds(qb.BcsParams(1.0, 0.3, 0.0, 0.05))
    grid = np.linspace(0.5, 1.1, 241)
    step = float(grid[1] - grid[0])
    stable = []
    for d in grid:
        p = qb.BcsParams(1.0, 0.3, float(d), 0.05)
        ev = np.linalg.eigvals(qb.bcs_form(p).generator)
        stable.append(bool(np.abs(ev.imag).max() <= 1e-8))
    # collapse to a run-length sequence of stability flags
    seq = [stable[0]]
    flips = []
    for d, s in zip(grid[1:], stable[1:]):
        if s != seq[-1]:
            seq.append(s)
            flips.append(float(d))
    ok = seq == [True, False, True, False]
    ok &= abs(flips[0] - 0.90394) <= step + 1e-9
    ok &= abs(flips[1] - 1.00394) <= step + 1e-9
    outer_num = th.reentry_window[1]
    ok &= abs(flips[2] - outer_num) <= step + 1e-9
    # the outer edge is the sqrt reading of the printed formula; the literal
    # reading is reported for comparison and does not match the grid's flip
    print(f"    outer edge: window {outer_num:.10f}, sqrt-form "
          f"{th.delta_c_outer_sqrt_formula:.10f}, literal-form "
          f"{th.delta_c_outer_literal_formula:.10f}")
    ok &= abs(outer_num - th.delta_c_outer_sqrt_formula) <= 1e-6
    _verdict(8, "stable/unstable/stable/unstable sequence with boundaries "
                f"{flips[0]:.5f}, {flips[1]:.5f}, {flips[2]:.5f} (grid step "
                f"{step:.4f})", ok)


def test_criterion_09_invariant_conservation():
    rng = np.random.default_rng(7)
    forms = [qb.bcs_form(bcs(0.5)), qb.bcs_form(bcs(0.97)), qb.bcs_form(bcs(1.2)),
             random_form(rng, 2, shift=0.5), random_form(rng, 3, shift=-0.5),
             random_form(rng, 1, shift=0.5)]
    ok = True
    for form in forms:
        report = qb.classify(form)
        ks = qb.normalize_pairs(report).invariants
        for t in (0.3, 1.0, 3.0):
            u = qb.propagate(form, t).U
            ubar = qb.bar(u)
            for k in ks:
                defect = np.linalg.norm(ubar @ k @ u - k, 2)
                ok &= defect <= 1e-9 * np.linalg.norm(k, 2) * max(
                    np.linalg.norm(u, 2) ** 2, 1.0)
    jf = qb.bcs_jordan_form(bcs(1.0))
    jordan = qb.bcs_form(bcs(1.0))
    for t in (0.3, 1.0, 3.0):
        u = qb.propagate(jordan, t).U
        ubar = qb.bar(u)
        for k in (jf.pair_invariant, jf.imbalance_invariant):
            ok &= np.abs(ubar @ k @ u - k).max() <= 1e-10 * max(
                np.abs(u).max() ** 2, 1.0)
    m = metric(2)
    comm = (jf.pair_invariant @ m @ jf.imbalance_invariant
            - jf.imbalance_invariant @ m @ jf.pair_invariant)
    ok &= np.abs(comm).max() <= 1e-10
    _verdict(9, "mode invariants conserved on all diagonalizable forms; "
                "Jordan-case invariants conserved and mutually commuting", ok)


def test_criterion_10_ode_cross_validation():
    ok = True
    worst = 0.0
    for d in (0.5, 0.97, 1.0, 1.2):
        form = qb.bcs_form(bcs(d))
        u_norm = np.linalg.norm(qb.propagate(form, 1.0).U, 2)
        rel = qb.ode_cross_check(form, 1.0, 2000) / u_norm
        worst = max(worst, rel)
        ok &= rel <= 1e-8
    _verdict(10, f"RK4(2000) vs expm relative residual {worst:.1e} <= 1e-8 "
                 "across all regimes", ok)
