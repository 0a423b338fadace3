#!/usr/bin/env python3
"""Map the stability phase diagram of the two-mode pairing model.

Sweeps the gap parameter at kappa = 0 and at a small kappa, prints the
detected regime boundaries (including the reentry window), and writes the
plot-ready grid to CSV.

Usage: python scripts/phase_diagram.py [--out phase_diagram.csv]
"""

import argparse

import numpy as np

import quadboson as qb


def sweep(epsilon, gamma, kappa, deltas):
    sw = qb.bcs_sweep(epsilon, [gamma], deltas, [kappa])
    return [(d, k, qb.CLASS_LABELS[code].value, max_im, min_sig)
            for d, k, code, max_im, min_sig in zip(
                sw.delta.tolist(), sw.kappa.tolist(), sw.code.tolist(),
                sw.max_imag.tolist(), sw.min_sigma.tolist())]


def boundaries(rows):
    out = []
    for (d0, _, c0, *_), (d1, _, c1, *_) in zip(rows, rows[1:]):
        if c0 != c1:
            out.append((0.5 * (d0 + d1), c0, c1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epsilon", type=float, default=1.0)
    ap.add_argument("--gamma", type=float, default=0.3)
    ap.add_argument("--kappa", type=float, default=0.05)
    ap.add_argument("--steps", type=int, default=601)
    ap.add_argument("--out", default="phase_diagram.csv")
    args = ap.parse_args()

    deltas = np.linspace(0.0, 1.5, args.steps)
    rows = sweep(args.epsilon, args.gamma, 0.0, deltas)
    rows += sweep(args.epsilon, args.gamma, args.kappa, deltas)

    print(f"kappa = 0 boundaries (analytic: {np.sqrt(args.epsilon**2 - args.gamma**2):.5f}, "
          f"{args.epsilon:.5f}):")
    for d, c0, c1 in boundaries(rows[:args.steps]):
        print(f"  delta ~ {d:.5f}: {c0} -> {c1}")

    th = qb.bcs_thresholds(qb.BcsParams(args.epsilon, args.gamma, 0.0, args.kappa))
    print(f"kappa = {args.kappa} boundaries:")
    for d, c0, c1 in boundaries(rows[args.steps:]):
        print(f"  delta ~ {d:.5f}: {c0} -> {c1}")
    if th.reentry_window:
        inner, outer = th.reentry_window
        print(f"  reentry window: ({inner:.6f}, {outer:.6f})")
        print(f"  outer edge is the sqrt reading "
              f"{th.delta_c_outer_sqrt_formula:.6f}; the literal reading "
              f"{th.delta_c_outer_literal_formula:.6f} is for comparison")

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("delta,kappa,classification,max_im_lambda,min_sigma\n")
        for d, k, c, im, sig in rows:
            fh.write(f"{d!r},{k!r},{c},{im!r},{sig!r}\n")
    print(f"wrote {len(rows)} rows to {args.out}")


if __name__ == "__main__":
    main()
