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


@pytest.mark.parametrize(
    "name, argv",
    [
        ("independence_scan", ["--samples", "0"]),
        ("independence_scan", ["--samples", "-3"]),
        ("orbit_crossval", ["--planted", "-1"]),
        ("orbit_crossval", ["--random", "-1"]),
        ("orbit_crossval", ["--tol", "0"]),
        ("orbit_crossval", ["--tol", "-0.5"]),
        ("orbit_crossval", ["--tol", "nan"]),
    ],
)
def test_script_rejects_bad_counts_with_a_usage_error(capsys, name, argv):
    with pytest.raises(SystemExit) as exit_info:
        _load(name).main(argv)
    assert exit_info.value.code == 2
    assert "usage:" in capsys.readouterr().err
