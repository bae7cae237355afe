"""What the package namespace binds, and which modules each command loads.

``import triso`` binds each public name on first use, and each ``triso``
subcommand imports only the modules it uses.  The import checks run in a
fresh interpreter, so nothing this test process imported leaks into them.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import triso
from triso import canonical_core, canonical_form, components, invariants, orbit_oracle, tensor_core


def test_every_public_name_is_its_defining_modules_object():
    for name in triso.__all__:
        module = importlib.import_module(f"triso.{triso._EXPORTS[name]}")
        assert getattr(triso, name) is getattr(module, name), name
    # the function, not its module of the same name
    assert triso.reference_cases is importlib.import_module("triso.reference_cases").reference_cases


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from triso import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(triso.__all__)
    assert all(namespace[name] is getattr(triso, name) for name in triso.__all__)
    assert set(triso.__all__) <= set(dir(triso))


def test_seven_component_layer_is_re_exported_as_the_same_objects():
    for name in ("COMPONENT_NAMES", "SymTraceless3", "_slices",
                 "tensor_from_json_obj", "tensor_to_json_obj"):
        assert getattr(tensor_core, name) is getattr(components, name), name
    for name in ("GROUPS", "ConvergenceError"):
        assert getattr(canonical_form, name) is getattr(components, name), name
    for name in ("ORTHO_TOL", "_det"):
        assert getattr(tensor_core, name) is getattr(components, name), name
    assert canonical_form.STATIONARITY_TOL is canonical_core.STATIONARITY_TOL


def test_verdict_is_re_exported_as_the_same_objects():
    # the numpy-free verdict of triso orbit-compare is the library's
    for name in ("invariant_distance", "_verdict", "_degree_normalized"):
        assert getattr(orbit_oracle, name) is getattr(invariants, name), name


def _loaded_after_each_step(tmp_path, steps):
    """Run steps in a fresh interpreter; the numpy, fractions and triso modules loaded after each."""
    package_root = str(Path(triso.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = "import io, json, sys, contextlib\n"
    for step in steps:
        code += (
            f"with contextlib.redirect_stdout(io.StringIO()):\n    {step}\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'fractions', 'triso'))))\n"
        )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return [set(json.loads(line)) for line in proc.stdout.splitlines()]


def test_each_command_imports_only_what_it_uses(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"D111": 1.0, "D112": 1.0}))
    b.write_text(json.dumps({"D111": 0.3, "D123": -1.2}))
    after = _loaded_after_each_step(tmp_path, [
        "import triso",
        "import triso.cli; assert triso.cli.main(['invariants', '--file', %r]) == 0" % str(a),
        "assert triso.cli.main(['orbit-compare', '--a-file', %r, '--b-file', %r]) == 0" % (str(a), str(b)),
        "assert triso.cli.main(['canonicalize', '--file', %r]) == 0" % str(a),
        "assert triso.cli.main(['orbit-compare', '--a-file', %r, '--b-file', %r, '--align']) == 0"
        % (str(a), str(b)),
    ])
    assert after[0] == {"triso"}
    numpy_free = {"triso", "triso.cli", "triso.components", "triso.invariants"}
    assert after[1] == after[2] == numpy_free
    # no numpy module at all: the canonical form comes from the pure-Python solve
    assert after[3] == after[4] == numpy_free | {"triso.canonical_core"}


def test_the_integer_core_imports_neither_numpy_nor_fractions(tmp_path):
    # components holds the exact paths' integer form and rounding
    # (_dyadic, _rounded), so a numpy-free command can use them
    (after,) = _loaded_after_each_step(tmp_path, ["import triso.components"])
    assert after == {"triso", "triso.components"}


def test_repro_imports_no_numpy(tmp_path):
    (after,) = _loaded_after_each_step(tmp_path, [
        "import triso.cli; assert triso.cli.main(['repro']) == 0",
    ])
    assert "numpy" not in after
    assert after == {"triso", "triso.cli", "triso.components", "triso.invariants", "triso.reference_cases"}


def _runtime_names(tree):
    """(enclosing function, name) for each name a module imports or reads at run time.

    Annotations are skipped, as ``from __future__ import annotations`` never
    evaluates them, and so are imports under ``if TYPE_CHECKING:``.
    """
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            skipped.update(id(n) for stmt in node.body for n in ast.walk(stmt))
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations = [a.annotation for a in every if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        skipped.update(id(n) for a in annotations if a is not None for n in ast.walk(a))

    def visit(node, function):
        if id(node) in skipped:
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield function, alias.name.rpartition(".")[2]
        elif isinstance(node, ast.Name):
            yield function, node.id
        elif isinstance(node, ast.Attribute):
            yield function, node.attr
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    return visit(tree, None)


def test_the_27_entry_array_is_an_input_format_only():
    # only tensor_core computes on the full array; elsewhere a FullTensor3
    # is read by compress in two places, the "full" JSON key and the
    # compress-at-entry of the functions that accept one
    allowed = {("components", "tensor_from_json_obj"), ("invariants", "_components")}
    source = Path(tensor_core.__file__).parent
    for path in sorted(source.glob("*.py")):
        if path.stem == "tensor_core":
            continue
        for function, name in _runtime_names(ast.parse(path.read_text())):
            assert name not in ("expand", "act", "_full"), (path.name, function, name)
            if name in ("compress", "FullTensor3"):
                assert (path.stem, function) in allowed, (path.name, function, name)


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--d111", "1"],
        ["canonicalize", "--d111", "1", "--d123", "0.5"],
        ["orbit-compare", "--a-file", "a.json", "--b-file", "b.json", "--align"],
    ],
    ids=["invariants", "canonicalize", "orbit-compare-align"],
)
def test_numpy_free_commands_import_no_dataclasses(tmp_path, argv):
    (tmp_path / "a.json").write_text(json.dumps({"D111": 1.0, "D112": 1.0}))
    (tmp_path / "b.json").write_text(json.dumps({"D111": 0.3, "D123": -1.2}))
    package_root = str(Path(triso.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = f"import triso.cli; raise SystemExit(triso.cli.main({argv!r}))"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code], capture_output=True, text=True, cwd=tmp_path, env=env
    )
    assert proc.returncode == 0, proc.stderr
    # each import line ends "| <indent><module>"
    imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines() if "import time:" in line}
    assert {"triso.cli", "triso.invariants"} <= imported
    assert "dataclasses" not in imported
    assert "numpy" not in imported
    assert "fractions" not in imported


def test_no_module_names_an_extended_precision_type():
    # np.longdouble is a plain double on some platforms (Apple arm64, MSVC),
    # so exactness that rests on it holds on x86 alone
    source = Path(tensor_core.__file__).parent
    for path in sorted(source.glob("*.py")):
        assert not re.findall(r"longdouble|float128|float96", path.read_text()), path.name
