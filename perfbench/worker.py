"""One benchmark process, started by run.py in a fresh interpreter.

It imports `triso` from this checkout's src/, builds the workload's inputs,
warms every operation kind up once, then runs whole rounds for about
--seconds, checks every output and prints one JSON line.  With --trace 1 it
records spans around the calls into each layer, runs one more round of each
other workload so that every layer is measured, and reports the per-layer
metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def _import_triso():
    sys.path.insert(0, str(ROOT / "src"))
    import triso

    where = Path(triso.__file__).resolve().parent
    if where != (ROOT / "src" / "triso").resolve():
        raise SystemExit(f"error: imported triso from {where}, not from {ROOT / 'src'}")


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else None


def _environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "triso").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def _peak_rss_mb(children: bool) -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024.0  # kilobytes on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before it started this process")
    args = parser.parse_args(argv)

    _import_triso()
    from perfbench import tracing
    from perfbench import workloads as wl

    mods = wl.triso_modules()
    names = [args.workload]
    if args.trace:
        names += [n for n in wl.WORKLOAD_NAMES if n != args.workload]
    work = {n: wl.WORKLOADS[n](args.seed, mods, ROOT) for n in names}
    try:
        warm = wl.Recorder()
        for w in work.values():
            w.warm_up(warm)
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "unexpected": warm.unexpected}))
            return 0

        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracing.install(tracer)
        rec = wl.Recorder(tracer)
        main_work = work[args.workload]
        rounds = 0
        start = time.perf_counter()
        while True:
            main_work.round(rec)
            rounds += 1
            elapsed = time.perf_counter() - start
            # whole rounds only, stopping at the round end nearest to --seconds
            if elapsed + 0.5 * elapsed / rounds > args.seconds:
                break
        probes = wl.Recorder(tracer)
        for name, w in work.items():
            if name != args.workload:
                w.round(probes)
        primary, secondary = main_work.rates(rec)
        if tracer is None:
            metrics = {
                "peak_rss_mb": (_peak_rss_mb(args.workload == "cli"), "MB"),
                "primary_per_s": (primary, "1/s"),
                "secondary_per_s": (secondary, "1/s"),
            }
        else:
            metrics = tracing.per_layer(tracer, {**probes.extra, **rec.extra})
    finally:
        for w in work.values():
            w.close()

    unexpected = warm.unexpected + rec.unexpected + probes.unexpected
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "measured_s": elapsed,
        "setup_s": setup_s,
        "correct": not unexpected,
        "attempted": sum(rec.attempted.values()),
        "failed": sum(rec.failed.values()),
        "operations": {k: [rec.attempted[k], rec.failed[k]] for k in sorted(rec.attempted)},
        "known_faults": rec.known,
        "unexpected": unexpected[:20],
        "rates_per_s": {"primary": primary, "secondary": secondary},
        "seconds_per_label": dict(rec.seconds),
        "items_per_label": dict(rec.count),
        "cli_call_ms": {k: sorted(1e3 * t for t in v) for k, v in rec.samples.items()},
        "environment": _environment(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"trace-{stem}.json.gz")
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
