#!/usr/bin/env python3
"""Scan Jacobian genericity statistics over random canonical points.

Where the summary report keeps a single pass/fail number, this prints the
distribution behind it: percentiles of the unit-gradient volume and of
|det Jac|, and how close the sampler ever comes to the degenerate set.
Handy for sanity-checking GENERIC_VOLUME_FLOOR against actual draws.

    python3 scripts/independence_scan.py --samples 2000
"""

import argparse
import sys

import numpy as np

from triso.independence import GENERIC_VOLUME_FLOOR, _measure, independence_report

PERCENTILES = (0, 1, 5, 25, 50, 75, 95, 99, 100)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=positive_int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    # raw box draws, before the genericity rejection, to see what gets cut
    rng = np.random.default_rng(args.seed)
    raw = rng.uniform(-2.0, 2.0, size=(args.samples, 4))
    _, _, det, volumes, _ = _measure(raw)
    dets = np.abs(det)

    print(f"{args.samples} uniform draws from [-2, 2]^4 (seed {args.seed})")
    print(f"volume floor: {GENERIC_VOLUME_FLOOR:g}; "
          f"below floor: {int(np.sum(volumes <= GENERIC_VOLUME_FLOOR))}")
    print()
    print(f"{'pct':>4}  {'unit-grad volume':>18}  {'|det Jac|':>12}")
    for pct in PERCENTILES:
        v = np.percentile(volumes, pct)
        d = np.percentile(dets, pct)
        print(f"{pct:>4}  {v:>18.6g}  {d:>12.6g}")
    print()

    report = independence_report(sample_count=args.samples, seed=args.seed)
    print("after rejection sampling:")
    print(f"  samples {report.samples}, rank-4 fraction {report.rank4_fraction}")
    print(f"  |det| in [{report.min_abs_det:.6g}, {report.max_abs_det:.6g}]")
    print(f"  max fd deviation {report.max_fd_deviation:.3e}, "
          f"max det mismatch {report.max_det_mismatch:.3e}")
    return 0 if report.rank4_fraction == 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
