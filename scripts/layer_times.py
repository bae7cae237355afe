#!/usr/bin/env python3
"""In-process times of the main layers, as one JSON object.

Each time is the best of --repeats passes over fixed seeded inputs,
divided by the number of calls in a pass: microseconds per call, and
milliseconds for one ``independence_report`` of --samples points.
``python_candidates_us`` times the pure-Python candidate solve that
``triso canonicalize`` and ``orbit-compare --align`` use, beside the
library's numpy solve in ``_stationary_candidates_us``.  Two
counts go with them, as means over the tensors: ``candidates_per_call``,
the rows ``_stationary_candidates`` returns, and ``finished_per_call``,
those the maximizer finishes by Newton steps (``_contenders``: within
``_FINISH_SLACK`` of the top value, and not within ``_MERGE`` of a larger
one).  Tensors are ``random_tensor(seed)`` for seed
0..--tensors-1; alignment pairs are a tensor and its image under
``random_orthogonal(seed)``, so half of them are improper.
``smith_bao_rescaled_us`` times ``smith_bao`` on the same tensors times
2^200, beyond the window where it runs on the components as given, so the
cost of its power-of-two rescaling stays visible.  ``analytic_table_us`` is
the exact Jacobian table per point, evaluated at once on the --samples
points of one sampler run (seed 0); ``canonical_invariants_us`` sums the
four invariants exactly at one point a call, the first --tensors of those
points, and ``canonical_invariants_wide_us`` does so at --tensors params
+-2^U(-300, 300) (``default_rng(0)``), where the integers of the exact sum
grow with the spread of the exponents.

    python3 scripts/layer_times.py --tensors 200 --repeats 5
"""

import argparse
import json
import math
import sys
import time

import numpy as np

from triso.canonical_core import _contenders, _python_candidates, _unit_tensor
from triso.canonical_form import _stationary_candidates, canonicalize, maximize_cubic_on_sphere
from triso.independence import _ANALYTIC_TABLE, _sample_generic, independence_report
from triso.invariants import CanonicalParams, canonical_invariants, smith_bao
from triso.orbit_oracle import best_alignment, same_orbit
from triso.tensor_core import SymTraceless3, act, compress, expand, random_orthogonal, random_tensor


def count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def best_per_call(rows: dict, repeats: int) -> dict:
    """Seconds per call of each row's argument-free callables, the best of repeats passes.

    Each round makes one pass over every row, so a burst of load on the
    machine slows one pass of several rows rather than every pass of one.
    """
    best = dict.fromkeys(rows, float("inf"))
    for _ in range(repeats):
        for name, calls in rows.items():
            start = time.perf_counter()
            for call in calls:
                call()
            best[name] = min(best[name], (time.perf_counter() - start) / len(calls))
    return best


def candidate_counts(units: list) -> dict:
    """Mean candidates per unit tensor, and mean candidates that the maximizer finishes."""
    candidates = finished = 0
    for c in units:
        rows = _stationary_candidates(c)
        candidates += len(rows)
        finished += len(_contenders(c, rows))
    return {"candidates_per_call": candidates / len(units), "finished_per_call": finished / len(units)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tensors", type=count, default=200, help="seeded tensors (and alignment pairs)")
    ap.add_argument("--repeats", type=count, default=5, help="passes; the best one counts")
    ap.add_argument("--samples", type=count, default=1000, help="sample count of independence_report")
    args = ap.parse_args(argv)

    tensors = [random_tensor(seed) for seed in range(args.tensors)]
    units = [_unit_tensor(t)[1] for t in tensors]
    rescaled = [SymTraceless3(*(math.ldexp(x, 200) for x in t.as_array().tolist())) for t in tensors]
    pairs = [
        (a, compress(act(random_orthogonal(seed, proper=seed % 2 == 0), expand(a))))
        for seed, a in enumerate(tensors)
    ]

    rows = {
        "_stationary_candidates_us": [lambda c=c: _stationary_candidates(c) for c in units],
        "python_candidates_us": [lambda c=c: _python_candidates(c) for c in units],
        "maximize_cubic_on_sphere_us": [lambda t=t: maximize_cubic_on_sphere(t) for t in tensors],
        "canonicalize_us": [lambda t=t: canonicalize(t) for t in tensors],
        "best_alignment_us": [lambda a=a, b=b: best_alignment(a, b) for a, b in pairs],
        "same_orbit_us": [lambda a=a, b=b: same_orbit(a, b) for a, b in pairs],
        "smith_bao_us": [lambda t=t: smith_bao(t) for t in tensors],
        "smith_bao_rescaled_us": [lambda t=t: smith_bao(t) for t in rescaled],
    }
    rows["independence_report_ms"] = [lambda: independence_report(sample_count=args.samples, seed=0)]
    sample = _sample_generic(args.samples, np.random.default_rng(0))[0]
    rows["analytic_table_us"] = [lambda: _ANALYTIC_TABLE(sample)]
    params = [CanonicalParams(*p) for p in sample[: args.tensors].tolist()]
    rows["canonical_invariants_us"] = [lambda c=c: canonical_invariants(c) for c in params]
    rng = np.random.default_rng(0)
    wide = rng.choice([-1.0, 1.0], (args.tensors, 4)) * 2.0 ** rng.uniform(-300, 300, (args.tensors, 4))
    rows["canonical_invariants_wide_us"] = [lambda c=CanonicalParams(*p): canonical_invariants(c) for p in wide.tolist()]
    times = best_per_call(rows, args.repeats)
    times["analytic_table_us"] /= len(sample)
    scale = {name: 1e3 if name.endswith("_ms") else 1e6 for name in times}
    out = {name: round(scale[name] * value, 3) for name, value in times.items()}
    out.update({name: round(value, 3) for name, value in candidate_counts(units).items()})
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
