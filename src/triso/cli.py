"""Command-line front end.

Every library operation is reachable from here with either file input
(tensor JSON objects) or inline component flags.  JSON output prints floats
at 17 significant digits so values round-trip exactly; identical inputs and
seeds give byte-identical output.

Each subcommand imports only the modules it uses, when it runs: this
module loads only the standard library and the numpy-free ``components``
layer, and no subcommand loads ``independence``, ``polynomials`` or
``reference_cases`` unless it needs them.  ``invariants``, ``repro``,
``canonicalize`` and ``orbit-compare`` (with or without ``--align``) never
import numpy: the last two canonicalize through ``canonical_core`` with its
pure-Python candidate solve, not the library's numpy solve.  The two agree
to 1e-13 ||T|| in the params, and each is deterministic to the byte; the
last bits can differ, so ``triso canonicalize`` and
``canonicalize(t).to_json_obj()`` need not print the same digits.  A
tensor given as a 27-entry ``"full"`` array still loads numpy, to validate
it (``tensor_core.compress``).

Exit codes: 0 success, 1 bad usage or bad input, 2 the cubic form's
maximizer missed its fixed stationarity tolerance (ConvergenceError),
3 reference-suite failure.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import re
import sys

from .components import (
    COMPONENT_NAMES,
    GROUPS,
    ConvergenceError,
    SymTraceless3,
    _in_frame,
    check_json_numbers,
    tensor_from_json_obj,
    tensor_to_json_obj,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern has no exponent, so "--d111 -2.5e-12" would
        # read the value as an unknown option
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    # argparse exits 2 on usage errors, but 2 is reserved here for numerical
    # failure; remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _json_text(obj) -> str:
    """Serialize compactly with floats at 17 significant digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    # int and numpy integers; float and numpy floats, but not Fraction
    if isinstance(obj, numbers.Integral):
        return str(int(obj))
    if isinstance(obj, numbers.Real) and not isinstance(obj, numbers.Rational):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError(f"cannot serialize non-finite value {x!r}")
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(str(k)) + ":" + _json_text(v) for k, v in obj.items()) + "}"
    # a numpy array can only exist once numpy is loaded; .tolist() alone
    # would also take numpy bools, array.array and memoryview
    np = sys.modules.get("numpy")
    if np is not None and isinstance(obj, np.ndarray):
        return _json_text(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_json_text(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _resolve_seed(explicit: int | None) -> int:
    """--seed beats TRISO_SEED beats 0."""
    if explicit is not None:
        return explicit
    env = os.environ.get("TRISO_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"TRISO_SEED must be an integer, got {env!r}") from None


def _load_tensor_file(path: str) -> SymTraceless3:
    with open(path) as fh:
        return tensor_from_json_obj(json.load(fh))


def _add_tensor_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--file", help="tensor as a JSON object of D components")
    for name in COMPONENT_NAMES:
        p.add_argument(f"--{name}", type=float, default=None, metavar="X",
                       help=f"component {name.upper()} (default 0)")


def _tensor_from_args(args) -> SymTraceless3:
    inline = {name: getattr(args, name) for name in COMPONENT_NAMES}
    given = {k: v for k, v in inline.items() if v is not None}
    if args.file is not None:
        if given:
            raise ValueError("give the tensor via --file or component flags, not both")
        return _load_tensor_file(args.file)
    return SymTraceless3(**{k: (0.0 if v is None else v) for k, v in inline.items()})


def _cmd_invariants(args) -> int:
    from .invariants import smith_bao

    tup = smith_bao(_tensor_from_args(args))
    obj = tup.to_json_obj()
    overflow = [k for k, v in obj.items() if math.isinf(v)]
    if overflow:
        raise ValueError(f"{', '.join(overflow)} overflow{'s' if len(overflow) == 1 else ''} "
                         f"the double range at this tensor's scale")
    if args.format == "text":
        for k, v in obj.items():
            print(f"{k} = {format(v, '.17g')}")
    else:
        print(_json_text(obj))
    return 0


def _cmd_canonicalize(args) -> int:
    from .canonical_core import _python_candidates, canonical_record

    t = _tensor_from_args(args)
    print(_json_text(canonical_record(t, "SO(3)", _python_candidates).to_json_obj()))
    return 0


def _parse_matrix(args):
    import numpy as np

    from .tensor_core import OrthogonalTransform3, random_orthogonal

    sources = [args.matrix is not None, args.matrix_file is not None, args.random]
    if sum(sources) != 1:
        raise ValueError("give exactly one of --matrix, --matrix-file, --random")
    if args.improper and not args.random:
        raise ValueError("--improper only applies to --random")
    if args.random:
        return random_orthogonal(_resolve_seed(args.seed), proper=not args.improper)
    if args.matrix is not None:
        tokens = [tok for tok in re.split(r"[,\s]+", args.matrix.strip()) if tok]
        if len(tokens) != 9:
            raise ValueError(f"--matrix needs 9 entries (row-major), got {len(tokens)}")
        m = np.array([float(tok) for tok in tokens]).reshape(3, 3)
        return OrthogonalTransform3.from_matrix(m)
    with open(args.matrix_file) as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = data.get("matrix")
        check_json_numbers(data, 'key "matrix"')
    else:
        check_json_numbers(data, "matrix file")
    m = np.asarray(data, dtype=float)
    if m.size != 9:
        raise ValueError(f"matrix file must hold 9 entries, got {m.size}")
    return OrthogonalTransform3.from_matrix(m.reshape(3, 3))


def _cmd_rotate(args) -> int:
    from .invariants import _components

    t = _tensor_from_args(args)
    g = _parse_matrix(args)
    rotated = SymTraceless3(*_in_frame(_components(t), g.m.tolist()))
    print(_json_text(tensor_to_json_obj(rotated)))
    return 0


def _cmd_orbit_compare(args) -> int:
    from .invariants import _verdict, invariant_distance

    a = _load_tensor_file(args.a_file)
    b = _load_tensor_file(args.b_file)
    distance = invariant_distance(a, b)
    verdict = _verdict(distance, args.tol)
    residual = None
    if args.align:
        # orbit_oracle.best_alignment's residual, with the pure-Python solve
        from .canonical_core import _alignment, _python_candidates

        residual = _alignment(a, b, args.group, _python_candidates)[2]
    obj = {
        "verdict": verdict,
        "invariant_distance": distance,
        "alignment_residual": residual,
    }
    print(_json_text(obj))
    return 0


def _cmd_independence(args) -> int:
    from .independence import independence_report

    report = independence_report(sample_count=args.samples, seed=_resolve_seed(args.seed))
    print(_json_text(report.to_json_obj()))
    return 0


def _print_repro_text(report: dict) -> None:
    label_w = max(len(row["label"]) for row in report["cases"])
    header = f"{'case':<{label_w}}  {'I2':>12} {'I4':>12} {'I6':>12} {'I10':>12}  result"
    print(header)
    print("-" * len(header))
    for row in report["cases"]:
        c = row["computed"]
        status = "pass" if row["pass"] else "FAIL"
        print(
            f"{row['label']:<{label_w}}  "
            f"{c['I2']:>12.6g} {c['I4']:>12.6g} {c['I6']:>12.6g} {c['I10']:>12.6g}  {status}"
        )
    root = report["f_root"]
    print()
    print(f"f-root: t0 = {root['t0']:.17g}  f(t0) = {root['f_at_t0']:.3g}")
    print(f"        sin(3 t0) = {root['sin_3t0']:.17g}")
    print(f"        21 - sqrt(420) = {root['closed_form']:.17g}  "
          f"(deviation {root['deviation']:.3g})  {'pass' if root['pass'] else 'FAIL'}")
    gap = report["gap"]
    print(f"I6 gap: {gap['low']['I6']:.17g} < 104 < {gap['high']['I6']:.17g}  "
          f"{'pass' if gap['pass'] else 'FAIL'}")
    print()
    print("overall:", "pass" if report["pass"] else "FAIL")


def _cmd_repro(args) -> int:
    from .reference_cases import run_report

    report = run_report()
    if args.format == "json":
        print(_json_text(report))
    else:
        _print_repro_text(report)
    return 0 if report["pass"] else 3


def _cmd_rand_tensor(args) -> int:
    from .tensor_core import random_tensor

    t = random_tensor(_resolve_seed(args.seed), scale=args.scale)
    print(_json_text(tensor_to_json_obj(t)))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="triso", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("invariants", help="Smith-Bao invariants of a tensor")
    _add_tensor_args(p)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(handler=_cmd_invariants)

    p = sub.add_parser("canonicalize", help="rotate a tensor into canonical position")
    _add_tensor_args(p)
    p.set_defaults(handler=_cmd_canonicalize)

    p = sub.add_parser("rotate", help="apply an orthogonal transform to a tensor")
    _add_tensor_args(p)
    p.add_argument("--matrix", help="9 row-major entries, comma or space separated")
    p.add_argument("--matrix-file", help="JSON file with a 3x3 (or flat 9) matrix")
    p.add_argument("--random", action="store_true", help="Haar-random element")
    p.add_argument("--improper", action="store_true", help="draw from the det=-1 coset")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=_cmd_rotate)

    p = sub.add_parser("orbit-compare", help="decide whether two tensors share an orbit")
    p.add_argument("--a-file", required=True, help="first tensor (JSON)")
    p.add_argument("--b-file", required=True, help="second tensor (JSON)")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--align", action="store_true",
                   help="also align the pair through their canonical frames")
    p.add_argument("--group", choices=GROUPS, default="O(3)")
    p.set_defaults(handler=_cmd_orbit_compare)

    p = sub.add_parser("independence", help="Jacobian rank evidence at random points")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=_cmd_independence)

    p = sub.add_parser("repro", help="run the fixed reference constructions")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_repro)

    p = sub.add_parser("rand-tensor", help="draw a random tensor")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(handler=_cmd_rand_tensor)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        return args.handler(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
