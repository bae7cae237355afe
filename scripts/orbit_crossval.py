#!/usr/bin/env python3
"""Cross-validate the invariant verdicts against canonical-frame alignment.

Plants same-orbit pairs (random tensor, random group element) and draws
independent random pairs, then checks that the invariant-based verdict and
the alignment residual tell the same story on every pair.  Bigger sibling
of the fixed-size check in the test suite.

    python3 scripts/orbit_crossval.py --planted 50 --random 50
"""

import argparse
import sys
import time
from pathlib import Path

# the checkout's src first, so that the script runs from a checkout with no install
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from triso.components import SymTraceless3, _in_frame, _norm
from triso.invariants import _components
from triso.orbit_oracle import best_alignment, same_orbit
from triso.tensor_core import random_orthogonal, random_tensor


def count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:  # not <=, so that nan fails too
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--planted", type=count, default=50, help="same-orbit pairs to generate")
    ap.add_argument("--random", type=count, default=50, help="independent pairs to generate")
    ap.add_argument("--seed", type=int, default=0, help="offset for all tensor seeds")
    ap.add_argument("--tol", type=positive_float, default=1e-8, help="verdict tolerance")
    args = ap.parse_args(argv)

    disagreements = 0
    borderline = 0
    worst_planted = 0.0
    best_random = float("inf")

    t_start = time.perf_counter()
    for s in range(args.planted):
        a = random_tensor(args.seed + s)
        g = random_orthogonal(args.seed + 10_000 + s, proper=(s % 2 == 0))
        b = SymTraceless3(*_in_frame(_components(a), g.m.tolist()))
        verdict = same_orbit(a, b, tol=args.tol)
        res = best_alignment(a, b, "O(3)").residual
        norm = _norm(_components(a))
        rel = res / norm if norm else res
        worst_planted = max(worst_planted, rel)
        if verdict == "borderline":
            borderline += 1
        elif verdict != "same":
            disagreements += 1
            print(f"planted seed {s}: verdict {verdict!r}, residual {rel:.3e}")

    for s in range(args.random):
        a = random_tensor(args.seed + 20_000 + s)
        b = random_tensor(args.seed + 30_000 + s)
        verdict = same_orbit(a, b, tol=args.tol)
        res = best_alignment(a, b, "O(3)").residual
        norm = max(_norm(_components(a)), _norm(_components(b)))
        rel = res / norm if norm else res
        best_random = min(best_random, rel)
        if verdict == "borderline":
            borderline += 1
        elif verdict != "different":
            disagreements += 1
            print(f"random seed {s}: verdict {verdict!r}, residual {rel:.3e}")

    elapsed = time.perf_counter() - t_start
    total = args.planted + args.random
    print(f"pairs:            {total} ({args.planted} planted, {args.random} random)")
    print(f"disagreements:    {disagreements}")
    print(f"borderline:       {borderline}")
    print(f"worst planted residual (relative): {worst_planted:.3e}")
    if args.random:
        print(f"closest random pair (relative):    {best_random:.3e}")
    print(f"elapsed: {elapsed:.1f}s ({1000.0 * elapsed / max(total, 1):.0f} ms/pair)")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
