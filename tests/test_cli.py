"""End-to-end checks of the command-line interface.

Everything goes through ``main(argv)`` in-process so exit codes and output
bytes are asserted directly. One subprocess test checks the ``triso``
entry point across a process boundary: it reads the ``triso`` target from
``[project.scripts]`` in ``pyproject.toml`` and calls it in a fresh
interpreter the way a generated console script does, then does the same
with an installed ``triso`` script when one is on PATH.
"""

import array
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib

import numpy as np
import pytest

import triso
from triso.cli import _json_text, main
from triso.invariants import smith_bao
from triso.tensor_core import SymTraceless3, tensor_from_json_obj


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    # keep the environment from leaking into determinism tests
    monkeypatch.delenv("TRISO_SEED", raising=False)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_tensor(path, **components):
    obj = {k.upper(): v for k, v in components.items()}
    path.write_text(json.dumps(obj))
    return str(path)


# ---------------------------------------------------------------- invariants


def test_invariants_json_bytes(capsys):
    # integer components make every invariant exact, so the output bytes
    # are pinned, not just the parsed values
    code, out, _ = run(capsys, ["invariants", "--d111", "1", "--d112", "1"])
    assert code == 0
    assert out == '{"I2":10,"I4":44,"I6":16,"I10":64}\n'


@pytest.mark.parametrize("value", ["-2.5e-12", "-3", "-.5E+2", "-1."])
def test_negative_component_flag_spellings(capsys, value):
    # "--d111 -2.5e-12" must parse like "--d111=-2.5e-12", not as an option
    code, spaced, err = run(capsys, ["invariants", "--d111", value, "--d123", value])
    assert code == 0, err
    code, joined, _ = run(capsys, ["invariants", f"--d111={value}", f"--d123={value}"])
    assert code == 0
    assert spaced == joined


def test_rand_tensor_output_pastes_back_as_flags(capsys):
    code, out, _ = run(capsys, ["rand-tensor", "--seed", "3", "--scale", "1e-12"])
    assert code == 0
    obj = json.loads(out)
    argv = ["invariants"]
    for key, value in obj.items():
        argv += [f"--{key.lower()}", format(value, ".17g")]
    assert any(tok.startswith("-") and "e-" in tok for tok in argv[2::2])
    code, pasted, err = run(capsys, argv)
    assert code == 0, err
    assert pasted == _json_text(smith_bao(tensor_from_json_obj(obj)).to_json_obj()) + "\n"


def test_invariants_text_format(capsys):
    code, out, _ = run(capsys, ["invariants", "--d111", "1", "--d112", "1", "--format", "text"])
    assert code == 0
    assert out == "I2 = 10\nI4 = 44\nI6 = 16\nI10 = 64\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("value, names", [("1e31", "I10 overflows"), ("1e80", "I4, I6, I10 overflow")])
def test_invariants_overflow_names_each_invariant(capsys, fmt, value, names):
    code, out, err = run(capsys, ["invariants", "--d111", value, "--d112", value, "--format", fmt])
    assert code == 1
    assert out == ""
    assert err == f"error: {names} the double range at this tensor's scale\n"


def test_invariants_from_file_matches_inline(capsys, tmp_path):
    path = write_tensor(tmp_path / "t.json", d111=0.3, d123=-1.2, d223=0.05)
    code, out_file, _ = run(capsys, ["invariants", "--file", path])
    assert code == 0
    code, out_inline, _ = run(
        capsys,
        ["invariants", "--d111", "0.3", "--d123", "-1.2", "--d223", "0.05"],
    )
    assert code == 0
    assert out_file == out_inline


def test_invariants_output_roundtrips_at_17_digits(capsys, tmp_path):
    path = write_tensor(tmp_path / "t.json", d111=0.1, d112=-0.7, d113=1.3, d122=0.9)
    code, out, _ = run(capsys, ["invariants", "--file", path])
    assert code == 0
    parsed = json.loads(out)
    expected = smith_bao(tensor_from_json_obj(json.loads((tmp_path / "t.json").read_text())))
    assert parsed["I2"] == expected.i2  # exact: 17 significant digits round-trip
    assert parsed["I10"] == expected.i10


def test_file_and_component_flags_conflict(capsys, tmp_path):
    path = write_tensor(tmp_path / "t.json", d111=1.0)
    code, _, err = run(capsys, ["invariants", "--file", path, "--d112", "2"])
    assert code == 1
    assert "not both" in err


@pytest.mark.parametrize(
    "obj, key",
    [
        ({"D111": None}, "D111"),
        ({"D111": [1]}, "D111"),
        ({"D111": {"x": 1}}, "D111"),
        ({"D111": True}, "D111"),
        ({"D111": "0.5"}, "D111"),
        ({"full": {}}, "full"),
        ({"full": [0.0] * 26 + ["0"]}, "full"),
    ],
)
def test_malformed_tensor_json_exits_1_naming_the_key(capsys, tmp_path, obj, key):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, ["invariants", "--file", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith(f'error: key "{key}" must ') and err.count("\n") == 1


HUGE = "1" + "0" * 400  # a JSON integer no double can hold


@pytest.mark.parametrize(
    "text, key",
    [('{"D111": %s}' % HUGE, "D111"),
     ('{"full": [%s%s]}' % (HUGE, ", 0" * 26), "full")],
    ids=["component", "full"],
)
def test_integer_beyond_the_double_range_exits_1_naming_the_key(capsys, tmp_path, text, key):
    path = tmp_path / "t.json"
    path.write_text(text)
    code, out, err = run(capsys, ["invariants", "--file", str(path)])
    assert code == 1
    assert out == ""
    assert err == f'error: key "{key}" must be within the double range, got an integer of 1329 bits\n'


def test_float_literal_beyond_the_double_range_exits_1(capsys, tmp_path):
    path = tmp_path / "t.json"
    path.write_text('{"D111": 1e400}')
    code, out, err = run(capsys, ["invariants", "--file", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: component d111 must be finite") and err.count("\n") == 1


def test_missing_tensor_file_exits_1(capsys):
    code, _, err = run(capsys, ["invariants", "--file", "/no/such/file.json"])
    assert code == 1
    assert "error:" in err


# ------------------------------------------------------------------- rotate


def test_rotate_quarter_turn_moves_d111_to_d222(capsys):
    # rotation by 90 degrees about e3 sends e1 -> e2 and e3 -> e3, which
    # carries the pure-d111 tensor exactly onto the pure-d222 tensor
    code, out, _ = run(
        capsys,
        ["rotate", "--d111", "1", "--matrix", "0 -1 0 1 0 0 0 0 1"],
    )
    assert code == 0
    assert out == '{"D111":0,"D112":0,"D113":0,"D122":0,"D123":0,"D222":1,"D223":0}\n'


def test_rotate_matrix_file(capsys, tmp_path):
    m = [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    nested = tmp_path / "m.json"
    nested.write_text(json.dumps({"matrix": m}))
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps([v for row in m for v in row]))
    code, out_a, _ = run(capsys, ["rotate", "--d111", "1", "--matrix-file", str(nested)])
    assert code == 0
    code, out_b, _ = run(capsys, ["rotate", "--d111", "1", "--matrix-file", str(flat)])
    assert code == 0
    assert out_a == out_b
    assert json.loads(out_a)["D222"] == 1.0


@pytest.mark.parametrize(
    "data, where",
    [({"matrix": {}}, 'key "matrix"'), ({"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, None]]}, 'key "matrix"'),
     ([1, 0, 0, 0, 1, 0, 0, 0, True], "matrix file")],
)
def test_malformed_matrix_file_exits_1(capsys, tmp_path, data, where):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["rotate", "--d111", "1", "--matrix-file", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {where} must hold numbers, got ")


def test_matrix_file_of_the_wrong_size_exits_1(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"matrix": [[1, 0, 0], [0, 1, 0]]}))
    code, out, err = run(capsys, ["rotate", "--d111", "1", "--matrix-file", str(path)])
    assert code == 1
    assert out == ""
    assert err == "error: matrix file must hold 9 entries, got 6\n"


def test_matrix_file_integer_beyond_the_double_range_exits_1(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"matrix": [[%s, 0, 0], [0, 1, 0], [0, 0, 1]]}' % HUGE)
    code, out, err = run(capsys, ["rotate", "--d111", "1", "--matrix-file", str(path)])
    assert code == 1
    assert out == ""
    assert err == 'error: key "matrix" must be within the double range, got an integer of 1329 bits\n'


def test_rotate_random_preserves_invariants(capsys):
    code, out, _ = run(
        capsys,
        ["rotate", "--d111", "1", "--d122", "0.5", "--random", "--improper", "--seed", "11"],
    )
    assert code == 0
    rotated = tensor_from_json_obj(json.loads(out))
    before = smith_bao(SymTraceless3(d111=1.0, d122=0.5)).as_array()
    after = smith_bao(rotated).as_array()
    assert np.allclose(after, before, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["rotate", "--d111", "1"],  # no source
        ["rotate", "--d111", "1", "--matrix", "1 0 0 0 1 0 0 0 1", "--random"],
        ["rotate", "--d111", "1", "--improper"],  # no source
        ["rotate", "--d111", "1", "--matrix", "1 0 0 0 1 0 0 0"],  # 8 entries
        ["rotate", "--d111", "1", "--matrix", "1 0 0 0 2 0 0 0 1"],  # not orthogonal
    ],
)
def test_rotate_bad_matrix_usage_exits_1(capsys, argv):
    code, _, err = run(capsys, argv)
    assert code == 1
    assert "error" in err


def test_rotate_improper_with_a_matrix_exits_1(capsys):
    # one source is given, so the check that --improper needs --random is reached
    code, out, err = run(capsys, ["rotate", "--d111", "1", "--matrix", "1 0 0 0 1 0 0 0 1", "--improper"])
    assert code == 1
    assert out == ""
    assert err == "error: --improper only applies to --random\n"


def test_rotate_nan_matrix_exits_1_without_a_warning(capsys):
    # finiteness is checked before det, whose RuntimeWarning on a nan entry
    # the suite turns into an error
    code, out, err = run(capsys, ["rotate", "--d111", "1", "--matrix", "nan 0 0 0 1 0 0 0 1"])
    assert code == 1
    assert out == ""
    assert err == "error: matrix entries must be finite\n"


# ------------------------------------------------------------- canonicalize


def test_canonicalize_output_shape(capsys):
    code, out, _ = run(
        capsys,
        ["canonicalize", "--d111", "0.2", "--d112", "1.1", "--d123", "-0.4"],
    )
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == ["params", "rotation", "max_value", "residual"]
    assert list(obj["params"]) == ["D111", "D122", "D123", "D223"]
    assert obj["params"]["D111"] >= -1e-12
    rot = np.array(obj["rotation"])
    assert rot.shape == (3, 3)
    assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
    assert obj["residual"] <= 1e-9
    # the reported params really are the same tensor: invariants agree
    before = smith_bao(SymTraceless3(d111=0.2, d112=1.1, d123=-0.4)).as_array()
    canon = SymTraceless3(
        d111=obj["params"]["D111"],
        d122=obj["params"]["D122"],
        d123=obj["params"]["D123"],
        d223=obj["params"]["D223"],
    )
    assert np.allclose(smith_bao(canon).as_array(), before, rtol=1e-9, atol=1e-12)


def test_canonicalize_is_byte_deterministic(capsys):
    argv = ["canonicalize", "--d112", "0.8", "--d223", "-0.3"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def unreachable_stationarity_tol(monkeypatch):
    """Set the maximizer's tolerance where no tensor with residual > 0 meets it."""
    monkeypatch.setattr(importlib.import_module("triso.canonical_core"), "STATIONARITY_TOL", 1e-300)


def test_canonicalize_nonconvergence_exits_2(capsys, monkeypatch):
    # a generic tensor: the axis-aligned ones can hit residual exactly 0.0
    unreachable_stationarity_tol(monkeypatch)
    code, _, err = run(capsys, ["canonicalize", "--d111", "0.2", "--d112", "1.1", "--d123", "-0.4"])
    assert code == 2
    assert "error:" in err
    assert "SymTraceless3(d111=0.2, d112=1.1, d113=0.0, d122=0.0, d123=-0.4, d222=0.0, d223=0.0)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--d111", "1", "--d123", "1"],
        ["--d111", "1", "--d122", "0.3"],
    ],
)
def test_canonicalize_tol_is_judged_on_the_maximizer(capsys, monkeypatch, argv):
    # a non-maximal stationary point of each reaches residual 0.0; the
    # maximizer does not, so an unreachable tolerance must exit 2
    unreachable_stationarity_tol(monkeypatch)
    code, out, err = run(capsys, ["canonicalize", *argv])
    assert code == 2
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["canonicalize", "--d111", "1", "--starts", "8"],
        ["canonicalize", "--d111", "1", "--max-iter", "50"],
        ["canonicalize", "--d111", "1", "--seed", "5"],
        ["orbit-compare", "--a-file", "a.json", "--b-file", "a.json", "--starts", "8"],
        ["orbit-compare", "--a-file", "a.json", "--b-file", "a.json", "--seed", "5"],
        ["canonicalize", "--d111", "1", "--tol", "1e-3"],
    ],
)
def test_removed_search_flags_exit_1(capsys, argv):
    # the maximizer is solved for, so there are no starts, iterations or
    # seeds left to set, and its stationarity tolerance is a constant
    code, _, err = run(capsys, argv)
    assert code == 1
    assert "unrecognized arguments" in err


# ------------------------------------------------------------ orbit-compare


def test_orbit_compare_same_tensor(capsys, tmp_path):
    path = write_tensor(tmp_path / "a.json", d111=1.0, d112=1.0)
    code, out, _ = run(capsys, ["orbit-compare", "--a-file", path, "--b-file", path])
    assert code == 0
    assert '"alignment_residual":null' in out
    obj = json.loads(out)
    assert obj["verdict"] == "same"
    assert obj["invariant_distance"] == 0.0


def test_orbit_compare_with_alignment(capsys, tmp_path):
    a = write_tensor(tmp_path / "a.json", d111=1.0, d112=1.0)
    code, out, _ = run(
        capsys,
        ["orbit-compare", "--a-file", a, "--b-file", a, "--align"],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "same"
    assert obj["alignment_residual"] is not None
    assert obj["alignment_residual"] <= 1e-10


def test_canonicalize_and_align_where_the_norm_overflows(capsys, tmp_path):
    # ||T|| = 2e308 is beyond the double range, and its components and
    # params are not: d111 = 1e308 and its proper and improper copies
    from triso.canonical_core import _python_candidates, canonical_record
    from triso.components import _in_frame
    from triso.tensor_core import random_orthogonal

    t = SymTraceless3(d111=1e308)
    code, out, _ = run(capsys, ["canonicalize", "--d111", "1e308"])
    assert code == 0
    assert out == _json_text(canonical_record(t, "SO(3)", _python_candidates).to_json_obj()) + "\n"
    assert json.loads(out)["params"]["D111"] == 1e308
    a = write_tensor(tmp_path / "a.json", d111=1e308)
    for proper in (True, False):
        rows = random_orthogonal(3, proper=proper).m.tolist()
        copy = [1e308 * x for x in _in_frame((1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), rows)]
        b = write_tensor(tmp_path / "b.json", **dict(zip(("d111", "d112", "d113", "d122", "d123", "d222", "d223"), copy)))
        code, out, _ = run(capsys, ["canonicalize", "--file", b])
        assert code == 0
        assert json.loads(out)["params"]["D111"] == pytest.approx(1e308, rel=1e-13)
        group = "SO(3)" if proper else "O(3)"
        code, out, _ = run(capsys, ["orbit-compare", "--a-file", a, "--b-file", b, "--align", "--group", group])
        assert code == 0
        obj = json.loads(out)
        assert obj["verdict"] == "same"
        assert 0.0 <= obj["alignment_residual"] <= 1e-12 * 2e308


def test_orbit_compare_distinguishes_sign_pair(capsys, tmp_path):
    # same I2, I4, I6 but opposite I10: distinct orbits
    a = write_tensor(tmp_path / "a.json", d111=1.0, d112=1.0)
    b = write_tensor(tmp_path / "b.json", d111=1.0, d123=1.0)
    code, out, _ = run(capsys, ["orbit-compare", "--a-file", a, "--b-file", b])
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "different"
    assert obj["invariant_distance"] > 0.1


@pytest.mark.parametrize("b_components", [{"d111": 1.0, "d112": 1.0}, {"d111": 1.0, "d123": 1.0}])
def test_orbit_compare_computes_the_invariant_distance_once(capsys, tmp_path, monkeypatch, b_components):
    # the verdict and the printed value come from one distance
    module = importlib.import_module("triso.invariants")
    original, distances = module.invariant_distance, []

    def counting(a, b):
        distances.append(original(a, b))
        return distances[-1]

    monkeypatch.setattr(module, "invariant_distance", counting)
    a = write_tensor(tmp_path / "a.json", d111=1.0, d112=1.0)
    b = write_tensor(tmp_path / "b.json", **b_components)
    code, out, _ = run(capsys, ["orbit-compare", "--a-file", a, "--b-file", b, "--align"])
    assert code == 0
    assert len(distances) == 1
    assert json.loads(out)["invariant_distance"] == distances[0]


def test_orbit_compare_requires_both_files(capsys, tmp_path):
    a = write_tensor(tmp_path / "a.json", d111=1.0)
    code, _, err = run(capsys, ["orbit-compare", "--a-file", a])
    assert code == 1
    assert "required" in err


def test_orbit_compare_missing_file_exits_1(capsys, tmp_path):
    a = write_tensor(tmp_path / "a.json", d111=1.0)
    code, _, _ = run(capsys, ["orbit-compare", "--a-file", a, "--b-file", "/no/such.json"])
    assert code == 1


def test_orbit_compare_rejects_bad_tol(capsys, tmp_path):
    a = write_tensor(tmp_path / "a.json", d111=1.0)
    code, _, _ = run(capsys, ["orbit-compare", "--a-file", a, "--b-file", a, "--tol", "0"])
    assert code == 1


# ------------------------------------------------------------- independence


def test_independence_json_shape(capsys):
    code, out, _ = run(capsys, ["independence", "--samples", "50", "--seed", "1"])
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == ["samples", "rank4_fraction", "min_abs_det", "max_fd_deviation"]
    assert obj["samples"] == 50
    assert obj["rank4_fraction"] == 1.0
    assert obj["min_abs_det"] > 0
    assert obj["max_fd_deviation"] <= 1e-6


# -------------------------------------------------------------------- repro


def test_repro_text_passes(capsys):
    code, out, _ = run(capsys, ["repro"])
    assert code == 0
    assert "overall: pass" in out
    assert out.count("FAIL") == 0


def test_repro_json_passes(capsys):
    code, out, _ = run(capsys, ["repro", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True
    assert len(obj["cases"]) == 6
    assert all(row["pass"] for row in obj["cases"])


def test_repro_failure_exits_3(capsys, monkeypatch):
    fake = {"cases": [], "f_root": {}, "gap": {}, "pass": False}
    # the handler imports run_report from its module when it runs
    monkeypatch.setattr(importlib.import_module("triso.reference_cases"), "run_report", lambda: fake)
    code, out, _ = run(capsys, ["repro", "--format", "json"])
    assert code == 3
    assert json.loads(out)["pass"] is False


def test_repro_f_root_failure_exits_3_and_marks_its_line(capsys, monkeypatch):
    module = importlib.import_module("triso.reference_cases")
    monkeypatch.setattr(module, "SIN_3T0_CLOSED_FORM", module.SIN_3T0_CLOSED_FORM + 1e-9)
    code, out, _ = run(capsys, ["repro"])
    assert code == 3
    failing = [line for line in out.splitlines() if "FAIL" in line]
    assert len(failing) == 2
    assert failing[0].lstrip().startswith("21 - sqrt(420) = ")
    assert failing[1] == "overall: FAIL"


# -------------------------------------------------------------- rand-tensor


def test_rand_tensor_deterministic_and_seeded(capsys):
    _, out_a, _ = run(capsys, ["rand-tensor", "--seed", "7"])
    _, out_b, _ = run(capsys, ["rand-tensor", "--seed", "7"])
    _, out_c, _ = run(capsys, ["rand-tensor", "--seed", "8"])
    assert out_a == out_b
    assert out_a != out_c


def test_rand_tensor_env_seed(capsys, monkeypatch):
    _, explicit, _ = run(capsys, ["rand-tensor", "--seed", "7"])
    monkeypatch.setenv("TRISO_SEED", "7")
    _, from_env, _ = run(capsys, ["rand-tensor"])
    assert from_env == explicit
    # an explicit flag still wins over the environment
    _, overridden, _ = run(capsys, ["rand-tensor", "--seed", "9"])
    assert overridden != from_env


def test_rand_tensor_bad_env_seed_exits_1(capsys, monkeypatch):
    monkeypatch.setenv("TRISO_SEED", "not-a-number")
    code, _, err = run(capsys, ["rand-tensor"])
    assert code == 1
    assert "TRISO_SEED" in err


def test_rand_tensor_rejects_bad_scale(capsys):
    code, _, _ = run(capsys, ["rand-tensor", "--scale", "-2"])
    assert code == 1


# ----------------------------------------------------------- parser plumbing


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == 0
    assert "invariants" in out


def test_no_subcommand_exits_1(capsys):
    assert run(capsys, [])[0] == 1


def test_unknown_subcommand_exits_1(capsys):
    assert run(capsys, ["frobnicate"])[0] == 1


def test_unknown_flag_exits_1(capsys):
    assert run(capsys, ["invariants", "--bogus", "1"])[0] == 1


def test_unknown_format_exits_1(capsys):
    code, _, err = run(capsys, ["invariants", "--d111", "1", "--format", "yaml"])
    assert code == 1
    assert "invalid choice" in err


# -------------------------------------------------------------- _json_text


def test_json_text_formats():
    assert _json_text(None) == "null"
    assert _json_text(True) == "true"
    assert _json_text(3) == "3"
    assert _json_text(10.0) == "10"
    assert _json_text(0.1) == "0.10000000000000001"
    assert _json_text([1.5, "x"]) == '[1.5,"x"]'
    assert _json_text(np.array([1.0, 2.0])) == "[1,2]"
    # numpy scalars and a 0-d array print as the Python values they hold
    assert _json_text(np.float64(0.1)) == "0.10000000000000001"
    assert _json_text(np.float32(0.1)) == "0.10000000149011612"
    assert _json_text(np.int64(-7)) == "-7"
    assert _json_text(np.array(2.5)) == "2.5"
    assert json.loads(_json_text({"a": {"b": [None, False]}})) == {"a": {"b": [None, False]}}


def test_json_text_rejects_nonfinite_and_unknown():
    with pytest.raises(ValueError):
        _json_text(math.inf)
    with pytest.raises(ValueError):
        _json_text(float("nan"))
    for obj in (object(), np.bool_(True), Fraction(1, 3), 1j, array.array("d", [1.0]), memoryview(b"a")):
        with pytest.raises(TypeError):
            _json_text(obj)


def test_json_text_roundtrips_doubles():
    rng = np.random.default_rng(0)
    for x in rng.normal(size=50) * 10.0 ** rng.integers(-8, 8, size=50):
        assert float(json.loads(_json_text(float(x)))) == x


# ------------------------------------------------------------- entry point


def test_invariants_does_not_import_scipy(tmp_path):
    # no triso command needs scipy, the alignment included
    package_root = str(Path(triso.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    a = write_tensor(tmp_path / "a.json", d111=1.0, d112=1.0)
    b = write_tensor(tmp_path / "b.json", d111=0.3, d123=-1.2)
    code = (
        "import sys, triso, triso.cli\n"
        "assert triso.cli.main(['invariants', '--d111', '1', '--d112', '1']) == 0\n"
        f"assert triso.cli.main(['orbit-compare', '--a-file', {a!r}, '--b-file', {b!r}, '--align']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path, env=env
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == '{"I2":10,"I4":44,"I6":16,"I10":64}'
    assert json.loads(lines[1])["alignment_residual"] is not None
    assert lines[2:] == ["[]"]


def _console_script_commands():
    """Commands that start the ``triso`` entry point in a new process.

    The first runs the ``[project.scripts]`` target with the same code a
    generated console script holds, so it needs no install; the second is
    the installed script itself, when there is one on PATH.
    """
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["triso"]
    module, _, attr = target.partition(":")
    code = f"import sys; from {module} import {attr.split('.')[0]}; sys.exit({attr}())"
    commands = [[sys.executable, "-c", code]]
    exe = shutil.which("triso")
    if exe is not None:
        commands.append([exe])
    return commands


def test_installed_entry_point(tmp_path):
    # the subprocess imports the same triso package this process did
    package_root = str(Path(triso.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    for command in _console_script_commands():
        proc = subprocess.run(
            [*command, "invariants", "--d111", "1", "--d112", "1"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
        )
        assert proc.returncode == 0, (command, proc.stderr)
        assert proc.stdout == '{"I2":10,"I4":44,"I6":16,"I10":64}\n'
        proc = subprocess.run(
            [*command, "invariants", "--bogus", "1"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
        )
        assert proc.returncode == 1, (command, proc.stderr)
        assert "unrecognized arguments: --bogus 1" in proc.stderr
