"""Smoke runs of the command-line scripts under ``scripts/`` at tiny counts.

``independence_scan`` and ``layer_times`` import private helpers of
``triso``, so a change to those names breaks them; these runs catch that.
"""

import importlib.util
import json
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


def test_layer_times_prints_a_positive_time_per_layer(capsys):
    argv = ["--tensors", "2", "--repeats", "1", "--samples", "20"]
    assert _load("layer_times").main(argv) == 0
    times = json.loads(capsys.readouterr().out)
    assert set(times) == {
        "_stationary_candidates_us", "python_candidates_us", "maximize_cubic_on_sphere_us", "canonicalize_us", "best_alignment_us",
        "same_orbit_us", "smith_bao_us", "smith_bao_rescaled_us", "independence_report_ms", "candidates_per_call",
        "finished_per_call", "analytic_table_us", "canonical_invariants_us", "canonical_invariants_wide_us",
    }
    assert all(value > 0 for value in times.values())


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
        ("layer_times", ["--tensors", "0"]),
        ("layer_times", ["--repeats", "-1"]),
    ],
)
def test_script_rejects_bad_counts_with_a_usage_error(capsys, name, argv):
    with pytest.raises(SystemExit) as exit_info:
        _load(name).main(argv)
    assert exit_info.value.code == 2
    assert "usage:" in capsys.readouterr().err
