"""Benchmark of the triso package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a fresh interpreter
(perfbench/worker.py) that imports triso from the checkout's src/, with no
install.  Untraced, two more fresh interpreters only set up, so that setup_s
is a median of three.  The last line printed is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("canonical", "orbit", "evidence", "cli")
SETUP_REPEATS = 3
TIME_LIMIT_S = 170


def _worker(args, setup_only: bool, deadline: float) -> dict:
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    spawned_at = time.monotonic()
    # its own process group, so that a timeout also stops the cli workload's children
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.worker", *argv, "--spawned-at", repr(spawned_at)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed nothing")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    missing = [p for p in ("pyproject.toml", "src/triso/__init__.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not a triso checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = [] if args.trace else [_worker(args, True, deadline) for _ in range(SETUP_REPEATS - 1)]
        result = _worker(args, False, deadline)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = dict(result["metrics"])
    correct = result["correct"] and not any(s["unexpected"] for s in setups)
    if not args.trace:
        values = [s["setup_s"] for s in setups] + [result["setup_s"]]
        metrics = {"setup_s": {"value": statistics.median(values), "unit": "s"}, **metrics}
    env = result["environment"]
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {result['rounds']} rounds in "
          f"{result['measured_s']:.1f} s; python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, commit {env['commit']}, src {env['src_sha256']}")
    rates = result["rates_per_s"]
    print(f"#   primary {rates['primary']:.6g}/s, secondary {rates['secondary']:.6g}/s"
          + (" (traced)" if args.trace else ""))
    for kind, (attempted, failed) in result["operations"].items():
        fault = result["known_faults"].get(kind, "")
        print(f"#   {kind:<24} {attempted:>7} attempted {failed:>6} failed  {fault[:100]}")
    for line in result["unexpected"]:
        print(f"#   UNEXPECTED {line[:200]}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
