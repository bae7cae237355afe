"""Smoke runs of the command-line scripts under ``scripts/`` at tiny counts.

``independence_scan`` imports private helpers of ``triso.independence``,
so a change to those names breaks it; these runs catch that.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv",
    [("orbit_crossval", ["--planted", "3", "--random", "3"]), ("independence_scan", ["--samples", "20"])],
)
def test_script_runs(capsys, name, argv):
    assert _load(name).main(argv) == 0
    assert capsys.readouterr().out
