"""The four workloads.

Each workload draws fresh seeded inputs for every round and also repeats,
every round, fixed inputs that do not depend on the seed.  The fixed slices
hold the known faults (K1-K3 in README.md); because their inputs never
change, the number of failed operations per round is the same in every run.
A round times only the calls into `triso`; the checks run afterwards.
"""

from __future__ import annotations

import importlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stdout
from io import StringIO

import numpy as np

from perfbench import checks as ck
from perfbench import reference as ref


def triso_modules():
    names = ("tensor_core", "invariants", "polynomials", "canonical_form", "independence",
             "orbit_oracle", "reference_cases", "cli")
    return {name: importlib.import_module(f"triso.{name}") for name in names}


class Recorder:
    """Operations attempted and failed, and the time spent in program calls."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = Counter()
        self.failed = Counter()
        self.unexpected: list[str] = []
        self.known: dict[str, str] = {}
        self.count = Counter()  # items per label, all rounds
        self.seconds = Counter()  # time per label, all rounds
        self.samples: dict[str, list] = {}  # per-call times, where kept
        self.extra: dict[str, list] = {}

    def timed(self, label: str, n: int):
        return _Timed(self, label, n)

    def outcome(self, kind: str, error: str | None, fault: str | None = None) -> None:
        """Record one operation; `fault` names the known fault its slice holds."""
        self.attempted[kind] += 1
        if error is None:
            return
        self.failed[kind] += 1
        if fault is None:
            self.unexpected.append(f"{kind}: {error}")
        else:
            self.known.setdefault(kind, f"{fault}: {error}")

    def rate(self, labels) -> float:
        seconds = sum(self.seconds[label] for label in labels)
        return sum(self.count[label] for label in labels) / seconds


class _Timed:
    __slots__ = ("rec", "label", "n", "t0", "idx")

    def __init__(self, rec, label, n):
        self.rec, self.label, self.n = rec, label, n

    def __enter__(self):
        if self.rec.tracer is not None:
            self.idx = self.rec.tracer.open(self.label)
        self.t0 = time.perf_counter()

    def __exit__(self, *exc):
        dt = time.perf_counter() - self.t0
        if self.rec.tracer is not None:
            self.rec.tracer.close(self.idx, self.n)
        self.rec.seconds[self.label] += dt
        self.rec.count[self.label] += self.n
        return False


def _call(fn, *args):
    """The call's result, or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # an operation that raises is a failed operation
        return exc


def _raised(out) -> str | None:
    if isinstance(out, Exception):
        return f"raised {type(out).__name__}: {out}"
    return None


def _log_uniform(rng, lo_exp, hi_exp):
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


def _random_c7(rng, lo_exp, hi_exp):
    return rng.normal(size=7) * _log_uniform(rng, lo_exp, hi_exp)


def _planted(rng, c7, proper):
    return ref.seven(ref.act(ref.haar(rng, proper), ref.full(c7)))


class Workload:
    name = ""

    def __init__(self, seed: int, mods: dict, root):
        self.rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(self.name)])
        self.m = mods

    def close(self) -> None:
        pass

    def rates(self, rec) -> tuple[float, float]:
        """(primary_per_s, secondary_per_s) over every round so far."""
        return rec.rate(self.PRIMARY), rec.rate(self.SECONDARY)


class Canonical(Workload):
    """canonicalize on generic, tied-maximizer and extreme-norm tensors."""

    name = "canonical"
    GENERIC = 24  # seeded, norms 1e-4 .. 1e3
    PRIMARY = ("canonical.generic", "canonical.orbit_generic", "canonical.extreme")
    SECONDARY = ("canonical.degenerate", "canonical.orbit_degenerate")

    def __init__(self, seed, mods, root):
        super().__init__(seed, mods, root)
        fixed = np.random.default_rng(2017)
        # K1: fixed members of one orbit, canonicalized on both sides
        generic = [fixed.normal(size=7) for _ in range(12)]
        self.orbit_generic = [(c, _planted(fixed, c, i % 2 == 0)) for i, c in enumerate(generic)]
        self.orbit_degenerate = [
            (_planted(fixed, c, True), _planted(fixed, c, i % 2 == 1)) for i, c in enumerate(ref.TIED)
        ]
        # K2: norms where canonicalize fails on every input
        self.extreme = [("K2-large", fixed.normal(size=7) * s) for s in np.logspace(7, 20, 6)]
        self.extreme += [("K2-small", fixed.normal(size=7) * s) for s in np.logspace(-15, -12, 6)]

    def _seeded(self):
        generic = [_random_c7(self.rng, -4, 3) for _ in range(self.GENERIC)]
        degenerate = [_planted(self.rng, c, bool(self.rng.integers(2))) for c in ref.TIED]
        return generic, degenerate

    def _canonicalize(self, rec, label, tensors):
        sym = self.m["tensor_core"].SymTraceless3
        inputs = [sym(*c7) for c7 in tensors]
        canonicalize = self.m["canonical_form"]
        with rec.timed(label, len(inputs)):
            outs = [_call(canonicalize.canonicalize, t) for t in inputs]
        return outs

    @staticmethod
    def _check(out, c7):
        return _raised(out) or ck.check_canonical(
            c7, out.params.as_array(), out.transform.m, out.transform.det_sign, out.max_value
        )

    def warm_up(self, rec):
        c7 = _random_c7(self.rng, -1, 1)
        (out,) = self._canonicalize(rec, "warm_up", [c7])
        rec.outcome("canonicalize", self._check(out, c7))

    def round(self, rec):
        generic, degenerate = self._seeded()
        for label, tensors in (("canonical.generic", generic), ("canonical.degenerate", degenerate)):
            for c7, out in zip(tensors, self._canonicalize(rec, label, tensors)):
                rec.outcome("canonicalize", self._check(out, c7))
        for label, pairs in (("canonical.orbit_generic", self.orbit_generic),
                             ("canonical.orbit_degenerate", self.orbit_degenerate)):
            flat = [c7 for pair in pairs for c7 in pair]
            outs = self._canonicalize(rec, label, flat)
            for i, (a7, _) in enumerate(pairs):
                out_a, out_b = outs[2 * i], outs[2 * i + 1]
                errors = [self._check(out_a, flat[2 * i]), self._check(out_b, flat[2 * i + 1])]
                for error in errors:
                    rec.outcome("canonicalize", error)
                if not any(errors):
                    rec.outcome("orbit_params", ck.check_same_params(
                        out_a.params.as_array(), out_b.params.as_array(), ref.frobenius(ref.full(a7))), "K1")
        outs = self._canonicalize(rec, "canonical.extreme", [c7 for _, c7 in self.extreme])
        for (fault, c7), out in zip(self.extreme, outs):
            rec.outcome(f"canonicalize_{fault[3:]}", self._check(out, c7), fault)


class Orbit(Workload):
    """same_orbit and best_alignment on planted and on independent pairs."""

    name = "orbit"
    PLANTED = 6
    RANDOM = 6
    PRIMARY = ("orbit.planted",)
    SECONDARY = ("orbit.random",)

    def __init__(self, seed, mods, root):
        super().__init__(seed, mods, root)
        fixed = np.random.default_rng(2018)
        # K3: independent pairs at norms where same_orbit says "same"
        self.small = [(fixed.normal(size=7) * s, fixed.normal(size=7) * s) for s in np.logspace(-12, -6, 4)]

    def _seeded(self):
        planted, independent = [], []
        for i in range(self.PLANTED):
            a7 = _random_c7(self.rng, -1, 1)
            planted.append((a7, _planted(self.rng, a7, i % 2 == 0)))
        for _ in range(self.RANDOM):
            scale = _log_uniform(self.rng, -1, 1)
            independent.append((self.rng.normal(size=7) * scale, self.rng.normal(size=7) * scale))
        return planted, independent

    def _compare(self, rec, label, pairs):
        sym = self.m["tensor_core"].SymTraceless3
        oracle = self.m["orbit_oracle"]
        inputs = [(sym(*a), sym(*b)) for a, b in pairs]
        with rec.timed(label, len(inputs)):
            outs = [(_call(oracle.same_orbit, a, b), _call(oracle.best_alignment, a, b, "O(3)")) for a, b in inputs]
        return outs

    @staticmethod
    def _check(rec, pairs, outs, planted, fault=None):
        for (a7, b7), (verdict, aligned) in zip(pairs, outs):
            rec.outcome("verdict", _raised(verdict) or ck.check_verdict(verdict, planted), fault)
            rec.outcome("alignment", _raised(aligned) or ck.check_alignment(
                a7, b7, aligned.best_transform.m, aligned.residual, planted))

    def warm_up(self, rec):
        a7 = _random_c7(self.rng, -1, 1)
        pairs = [(a7, _planted(self.rng, a7, True))]
        self._check(rec, pairs, self._compare(rec, "warm_up", pairs), True)

    def round(self, rec):
        planted, independent = self._seeded()
        self._check(rec, planted, self._compare(rec, "orbit.planted", planted), True)
        pairs = independent + self.small
        outs = self._compare(rec, "orbit.random", pairs)
        self._check(rec, independent, outs[: len(independent)], False)
        self._check(rec, self.small, outs[len(independent):], False, "K3")


class Evidence(Workload):
    """The paper's evidence: invariants, dual-path agreement, Jacobian rank."""

    name = "evidence"
    TENSORS = 4000  # and as many rotated copies
    POINTS = 200  # canonical points for the dual-path comparison
    DET_POINTS = 10
    SAMPLES = 1000
    PRIMARY = ("evidence.smith_bao",)
    SECONDARY = ("evidence.independence",)

    def _seeded(self):
        tensors = [_random_c7(self.rng, -3, 3) for _ in range(self.TENSORS)]
        rotated = [_planted(self.rng, c7, i % 2 == 0) for i, c7 in enumerate(tensors)]
        points = self.rng.uniform(-2.0, 2.0, size=(self.POINTS, 4))
        return tensors, rotated, points, int(self.rng.integers(2**31))

    def _run(self, rec, tensors, rotated, points, det_points, samples, seed, prefix):
        m = self.m
        sym = m["tensor_core"].SymTraceless3
        params = m["invariants"].CanonicalParams
        inputs = [sym(*c7) for c7 in tensors + rotated]
        cps = [params(*p) for p in points]
        with rec.timed(prefix + "smith_bao", len(inputs)):
            invs = [m["invariants"].smith_bao(t) for t in inputs]
        with rec.timed(prefix + "canonical_invariants", len(cps)):
            canon = [m["invariants"].canonical_invariants(c) for c in cps]
        with rec.timed(prefix + "det", len(det_points)):
            dets = [m["independence"].det_jacobian_closed_form(p) for p in det_points]
        with rec.timed(prefix + "independence", samples):
            report = _call(m["independence"].independence_report, samples, seed)
        with rec.timed(prefix + "run_report", 1):
            rr = _call(m["reference_cases"].run_report)

        n = len(tensors)
        got = np.array([t.as_array() for t in invs])
        c7s = np.array(tensors + rotated)
        errors = ck.invariant_errors(got, c7s)
        bounds = ck.bound_errors(got[:n])
        moved = ck.rotation_errors(got[:n], got[n:], ref.frobenius(ref.full(c7s[:n])))
        for i in range(n):
            rec.outcome("smith_bao", errors[i] or bounds[i])
            rec.outcome("smith_bao_rotated", errors[n + i] or moved[i])
        canonical = ck.invariant_errors(np.array([c.as_array() for c in canon]),
                                        np.array([ref.canonical_seven(p) for p in points]))
        for error in canonical:
            rec.outcome("canonical_invariants", error)
        for p, det in zip(det_points, dets):
            rec.outcome("det_jacobian", ck.check_det(p, det))
        rec.outcome("independence_report", _raised(report) or ck.check_independence(
            report.samples, report.degenerate, report.rank4_fraction, samples))
        rec.outcome("run_report", _raised(rr) or ck.check_run_report(rr))

    def warm_up(self, rec):
        tensors, rotated, points, seed = self._seeded()
        self._run(rec, tensors[:2], rotated[:2], points[:2], points[:1], 20, seed, "warm_up.")

    def round(self, rec):
        tensors, rotated, points, seed = self._seeded()
        self._run(rec, tensors, rotated, points, points[: self.DET_POINTS], self.SAMPLES, seed, "evidence.")


def console_script(root) -> tuple[str, str]:
    """(module, function) of the `triso` entry in [project.scripts]."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        import tomli as tomllib

    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["triso"]
    module, _, attr = target.partition(":")
    return module, attr


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _tensor_json(c7) -> str:
    names = ("D111", "D112", "D113", "D122", "D123", "D222", "D223")
    return json.dumps({n: float(v) for n, v in zip(names, c7)})


class Cli(Workload):
    """Cold `triso` processes, as a shell user runs them."""

    name = "cli"
    PRIMARY = ("cli.invariants", "cli.canonicalize")
    SECONDARY = ("cli.align",)
    NAMES = ("d111", "d112", "d113", "d122", "d123", "d222", "d223")

    def __init__(self, seed, mods, root):
        super().__init__(seed, mods, root)
        module, attr = console_script(root)
        # what a generated console script runs, in a fresh interpreter
        self.command = [sys.executable, "-c", f"import sys; from {module} import {attr}; sys.exit({attr}())"]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        out = root / "perfbench" / "out"
        out.mkdir(parents=True, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=out)
        self.files = 0

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _file(self, c7) -> str:
        self.files += 1
        path = os.path.join(self.dir, f"t{self.files % 64}.json")
        with open(path, "w") as fh:
            fh.write(_tensor_json(c7))
        return path

    def _run(self, rec, label, args):
        with rec.timed(label, 1):
            t0 = time.perf_counter()
            proc = subprocess.run([*self.command, *args], capture_output=True, text=True,
                                  env=self.env, cwd=self.dir, timeout=120)
            rec.samples.setdefault(label, []).append(time.perf_counter() - t0)
        if proc.returncode != 0:
            return None, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        return proc.stdout, None

    def _calls(self):
        """Seeded inputs for one round: (kind, args, check of stdout)."""
        calls = [("invariants", list(ck.CLI_EXACT_ARGS), ck.check_cli_exact)]
        c7 = _random_c7(self.rng, -3, 3)
        # --name=value: argparse would read a negative value with an exponent as an option
        flags = [f"--{n}={_fmt(v)}" for n, v in zip(self.NAMES, c7)]
        calls.append(("invariants", ["invariants", *flags], lambda s, c7=c7: _check_cli_invariants(s, c7)))
        for _ in range(2):
            c7 = _random_c7(self.rng, -3, 3)
            calls.append(("canonicalize", ["canonicalize", "--file", self._file(c7)],
                          lambda s, c7=c7: _check_cli_canonical(s, c7)))
        scale = _log_uniform(self.rng, -1, 1)
        a7 = self.rng.normal(size=7) * scale
        for planted in (True, False):
            b7 = _planted(self.rng, a7, bool(self.rng.integers(2))) if planted else self.rng.normal(size=7) * scale
            norm = max(ref.frobenius(ref.full(a7)), ref.frobenius(ref.full(b7)))
            calls.append(("align", ["orbit-compare", "--a-file", self._file(a7), "--b-file", self._file(b7), "--align"],
                          lambda s, p=planted, n=norm: _check_cli_align(s, p, n)))
        return calls

    def _do(self, rec, calls, prefix):
        for kind, args, check in calls:
            stdout, error = self._run(rec, prefix + kind, args)
            rec.outcome(f"cli_{kind}", error or _checked(check, stdout))

    def warm_up(self, rec):
        calls = self._calls()
        self._do(rec, [calls[0], calls[2], calls[4]], "warm_up.")

    def round(self, rec):
        self._do(rec, self._calls(), "cli.")
        if rec.tracer is not None:
            self._probe(rec)

    def _probe(self, rec):
        """Traced runs only: interpreter start, import times and warm in-process main()."""
        env = self.env
        starts = []
        for _ in range(3):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=self.dir, check=True, timeout=60)
            starts.append(time.perf_counter() - t0)
        rec.extra.setdefault("cli.python_start_ms", []).append(1e3 * float(np.median(starts)))
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import triso"], env=env,
                              cwd=self.dir, capture_output=True, text=True, check=True, timeout=60)
        cumulative = _import_times(proc.stderr)
        for name, metric in (("numpy", "cli.import_numpy_ms"), ("triso", "cli.import_triso_ms"),
                             ("scipy.optimize", "cli.import_scipy_optimize_ms")):
            # a module that `import triso` no longer loads costs 0 ms
            rec.extra.setdefault(metric, []).append(cumulative.get(name, 0) / 1e3)
        main = self.m["cli"]
        for kind, args, check in self._calls():
            buf = StringIO()
            with rec.timed(f"cli.main_{kind}", 1), redirect_stdout(buf):
                code = _call(main.main, args)
            rec.outcome(f"cli_main_{kind}", _raised(code) or (f"exit {code}" if code != 0 else _checked(check, buf.getvalue())))


def _checked(check, stdout: str) -> str | None:
    try:
        return check(stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output {stdout[:200]!r}: {exc}"


def _import_times(stderr: str) -> dict:
    """Cumulative microseconds per module from `python -X importtime`."""
    out = {}
    for line in stderr.splitlines():
        match = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(.*)$", line)
        if match:
            out.setdefault(match.group(3).strip(), int(match.group(2)))
    return out


def _check_cli_invariants(stdout, c7):
    obj = json.loads(stdout)
    return ck.check_invariants([obj["I2"], obj["I4"], obj["I6"], obj["I10"]], c7)


def _check_cli_canonical(stdout, c7):
    obj = json.loads(stdout)
    p = obj["params"]
    params = [p["D111"], p["D122"], p["D123"], p["D223"]]
    return ck.check_canonical(c7, params, obj["rotation"], 1, obj["max_value"])


def _check_cli_align(stdout, planted, norm):
    obj = json.loads(stdout)
    return ck.check_verdict(obj["verdict"], planted) or ck.check_cli_residual(obj["alignment_residual"], planted, norm)


WORKLOADS = {w.name: w for w in (Canonical, Orbit, Evidence, Cli)}
WORKLOAD_NAMES = tuple(WORKLOADS)
