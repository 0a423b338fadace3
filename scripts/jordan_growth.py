#!/usr/bin/env python3
"""Compare propagator growth across the three dynamical regimes.

Tracks ||U(t)|| for a quasiperiodic gap, the non-diagonalizable gap (secular
linear growth), and a super-critical gap (exponential growth), fits the
growth laws, and writes the traces to CSV.

Usage: python scripts/jordan_growth.py [--out growth.csv]
"""

import argparse

import numpy as np

import quadboson as qb


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epsilon", type=float, default=1.0)
    ap.add_argument("--gamma", type=float, default=0.3)
    ap.add_argument("--out", default="growth.csv")
    args = ap.parse_args()

    cases = [("quasiperiodic", 0.97), ("secular", args.epsilon), ("exponential", 1.2)]
    ts = np.linspace(1.0, 60.0, 60)
    rows = []
    for label, delta in cases:
        p = qb.BcsParams(args.epsilon, args.gamma, delta)
        form = qb.bcs_form(p)
        g = qb.growth_class(qb.classify(form))
        norms, residuals = [], []
        for stack in qb.propagate_grid(form, ts):
            norms += np.linalg.norm(stack.U, 2, axis=(1, 2)).tolist()
            residuals += stack.symplectic_residual.tolist()
        rows += [(label, delta, t, nu, sr) for t, nu, sr in zip(ts.tolist(), norms, residuals)]
        norms = np.array(norms)
        tail = ts >= 10.0
        if g.kind is qb.GrowthKind.EXPONENTIAL:
            slope = np.polyfit(ts[tail], np.log(norms[tail]), 1)[0]
            print(f"{label:>14} (delta={delta}): {g.kind.value}, "
                  f"fitted rate {slope:.4f} vs max|Im lambda| {g.rate:.4f}")
        elif g.kind is qb.GrowthKind.POLYNOMIAL_TIMES_OSCILLATION:
            deg = np.polyfit(np.log(ts[tail]), np.log(norms[tail]), 1)[0]
            print(f"{label:>14} (delta={delta}): {g.kind.value}, "
                  f"fitted degree {deg:.3f} vs Jordan degree {g.poly_degree}")
        else:
            print(f"{label:>14} (delta={delta}): {g.kind.value}, "
                  f"sup ||U|| = {norms.max():.3f}")

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("label,delta,t,norm_u,symplectic_residual\n")
        for label, delta, t, nu, sr in rows:
            fh.write(f"{label},{delta!r},{t!r},{nu!r},{sr!r}\n")
    print(f"wrote {len(rows)} rows to {args.out}")


if __name__ == "__main__":
    main()
