"""What the package namespace binds, and which modules each command loads.

``import triso`` binds each public name on first use, and each ``triso``
subcommand imports only the modules it uses.  The import checks run in a
fresh interpreter, so nothing this test process imported leaks into them.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import triso
from triso import canonical_form, components, tensor_core


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


def _loaded_after_each_step(tmp_path, steps):
    """Run steps in a fresh interpreter; the numpy and triso modules loaded after each."""
    package_root = str(Path(triso.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = "import io, json, sys, contextlib\n"
    for step in steps:
        code += (
            f"with contextlib.redirect_stdout(io.StringIO()):\n    {step}\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'triso'))))\n"
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
        "assert triso.cli.main(['canonicalize', '--file', %r]) == 0" % str(a),
        "assert triso.cli.main(['orbit-compare', '--a-file', %r, '--b-file', %r, '--align']) == 0"
        % (str(a), str(b)),
    ])
    assert after[0] == {"triso"}
    assert after[1] == {"triso", "triso.cli", "triso.components", "triso.invariants"}
    assert "numpy" in after[2]
    unused = {"triso.independence", "triso.polynomials", "triso.reference_cases"}
    assert not unused & after[2]
    assert not unused & after[3]


def test_repro_imports_no_numpy(tmp_path):
    (after,) = _loaded_after_each_step(tmp_path, [
        "import triso.cli; assert triso.cli.main(['repro']) == 0",
    ])
    assert "numpy" not in after
    assert after == {"triso", "triso.cli", "triso.components", "triso.invariants", "triso.reference_cases"}
