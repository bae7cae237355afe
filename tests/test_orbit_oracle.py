import json
import math
import os
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import triso

from triso import canonical_core, components
from triso.canonical_core import CanonicalRecord, canonical_record
from triso.cli import main
from triso.canonical_form import canonicalize
from triso.components import _unit_scale
from triso.invariants import _cbrt, _components, _slice_kernel, smith_bao
from triso.orbit_oracle import (
    GROUPS,
    AlignmentResult,
    best_alignment,
    degree_normalized_invariants,
    invariant_distance,
    same_orbit,
    _degree_normalized,
)
from triso.reference_cases import f_root, reference_cases
from triso.tensor_core import (
    SymTraceless3,
    act,
    compress,
    expand,
    random_orthogonal,
    random_tensor,
)


def planted_pair(seed, proper=True):
    a = random_tensor(seed)
    g = random_orthogonal(10_000 + seed, proper=proper)
    return a, compress(act(g, expand(a)))


@pytest.mark.parametrize("seed", range(5))
def test_planted_proper_pair_is_recovered(seed):
    a, b = planted_pair(seed, proper=True)
    result = best_alignment(a, b, "SO(3)")
    norm = expand(a).frobenius()
    assert result.residual <= 1e-10 * norm
    assert result.best_transform.det_sign == 1
    assert result.group == "SO(3)"
    # the found transform really maps a onto b
    moved = compress(act(result.best_transform, expand(a)))
    assert np.max(np.abs(moved.as_array() - b.as_array())) <= 1e-9 * norm


@pytest.mark.parametrize("seed", range(5))
def test_planted_improper_pair_needs_the_full_group(seed):
    a, b = planted_pair(seed, proper=False)
    full = best_alignment(a, b, "O(3)")
    norm = expand(a).frobenius()
    assert full.residual <= 1e-10 * norm
    assert full.best_transform.det_sign == -1
    # Restricted to rotations the pair cannot be aligned.  The gap varies a
    # lot with the draw: the seed-2 tensor sits close to a configuration
    # with a reflection symmetry, and its true SO(3) distance to the mirror
    # image is only ~7.8e-4 (stable under 512 restarts), so the absolute
    # floor must stay below that.  The ratio test is the sharp one.
    rotations_only = best_alignment(a, b, "SO(3)")
    assert rotations_only.residual > 1e-4 * norm
    assert rotations_only.residual > 1e6 * full.residual


@pytest.mark.parametrize("seed", range(5))
def test_random_pairs_stay_far_apart(seed):
    a = random_tensor(20_000 + seed)
    b = random_tensor(30_000 + seed)
    result = best_alignment(a, b, "O(3)")
    norm = max(expand(a).frobenius(), expand(b).frobenius())
    assert result.residual > 1e-3 * norm


def test_alignment_rejects_unknown_group():
    a = random_tensor(0)
    with pytest.raises(ValueError, match="group"):
        best_alignment(a, a, "U(3)")
    with pytest.raises(ValueError, match="group"):
        canonicalize(SymTraceless3(), group="U(3)")
    assert GROUPS == ("SO(3)", "O(3)")


def test_alignment_bookkeeping():
    a, b = planted_pair(3)
    so3 = best_alignment(a, b, "SO(3)")
    o3 = best_alignment(a, b, "O(3)")
    assert isinstance(so3, AlignmentResult)
    assert o3.residual <= so3.residual + 1e-12


def test_alignment_zero_tensor_edges():
    zero = SymTraceless3()
    t = random_tensor(4)
    assert best_alignment(zero, zero, "O(3)").residual == 0.0
    res = best_alignment(zero, t, "O(3)")
    assert res.residual == pytest.approx(expand(t).frobenius())
    res = best_alignment(t, zero, "O(3)")
    assert res.residual == pytest.approx(expand(t).frobenius())


def test_identity_start_nails_identical_tensors():
    t = random_tensor(5)
    result = best_alignment(t, t, "SO(3)")
    assert result.residual <= 1e-12 * expand(t).frobenius()


def test_degree_normalized_invariants_scale_quadratically():
    # after degree normalization every component scales as s^2, and is
    # finite wherever s^2 times it is a normal double, though raw I10
    # overflows from a norm of about 1e31
    for seed in (0, 1, 2, 3, 4, 6):
        t = random_tensor(seed)
        a = degree_normalized_invariants(t)
        for s in [1.7, *np.logspace(-150, 150, 13)]:
            scaled = SymTraceless3.from_array(s * t.as_array())
            b = degree_normalized_invariants(scaled)
            assert np.all(np.abs(b - s**2 * a) <= 1e-14 * np.abs(s**2 * a)), (seed, s)


def test_degree_normalized_accepts_tuple_or_tensor():
    t = random_tensor(7)
    from_tensor = degree_normalized_invariants(t)
    from_tuple = degree_normalized_invariants(smith_bao(t))
    assert np.array_equal(from_tensor, from_tuple)


def test_degree_normalized_keeps_i10_sign():
    plus = degree_normalized_invariants(SymTraceless3(d111=1.0, d112=1.0))
    minus = degree_normalized_invariants(SymTraceless3(d111=1.0, d123=1.0))
    assert plus[3] > 0 > minus[3]
    assert abs(plus[3] + minus[3]) < 1e-14


def test_invariant_distance_on_orbit_is_tiny():
    a, b = planted_pair(8, proper=False)
    assert invariant_distance(a, b) < 1e-12
    assert invariant_distance(a, a) == 0.0


def test_same_orbit_verdicts():
    a, b = planted_pair(9)
    c = random_tensor(40_000)
    assert same_orbit(a, b) == "same"
    assert same_orbit(a, c) == "different"
    # force the borderline band using the measured distance
    d = invariant_distance(a, c)
    assert same_orbit(a, c, tol=d / 5.0) == "borderline"
    assert same_orbit(a, c, tol=d * 2.0) == "same"
    assert same_orbit(a, c, tol=d / 20.0) == "different"


def _scaled(t, factor):
    return SymTraceless3.from_array(factor * t.as_array())


# invariant_distance keeps a common rescale: at the tensors' own scale the
# degree-normalized components scale as ||T||^2 and overflow from about
# 1e154, and I10 is +-inf from about 1e31 and subnormal below about 1e-31
@pytest.mark.parametrize("norm", [1e-300, 1e-150, 1e-40, 1e-12, 1e-6, 1.0, 1e6, 1e12, 1e40, 1e150, 1e300])
def test_verdict_is_scale_free(norm):
    for seed in range(4):
        a, b = planted_pair(seed, proper=seed % 2 == 0)
        k = norm / expand(a).frobenius()
        assert same_orbit(_scaled(a, k), _scaled(b, k)) == "same", seed
        c, d = random_tensor(20_000 + seed), random_tensor(30_000 + seed)
        k = norm / max(expand(c).frobenius(), expand(d).frobenius())
        assert same_orbit(_scaled(c, k), _scaled(d, k)) == "different", seed
        # the distance itself does not depend on the norm
        assert invariant_distance(_scaled(c, k), _scaled(d, k)) == pytest.approx(
            invariant_distance(c, d), rel=1e-9
        )


def test_small_independent_pairs_are_different():
    # independent pairs at norms 1e-12..1e-6, drawn as in the orbit
    # benchmark; an absolute distance called them "same"
    fixed = np.random.default_rng(2018)
    for s in np.logspace(-12, -6, 4):
        a = SymTraceless3.from_array(fixed.normal(size=7) * s)
        b = SymTraceless3.from_array(fixed.normal(size=7) * s)
        assert invariant_distance(a, b) > 0.1, s
        assert same_orbit(a, b) == "different", s


def test_invariant_distance_of_zero_tensors():
    zero = SymTraceless3()
    assert invariant_distance(zero, zero) == 0.0
    assert invariant_distance(zero, random_tensor(1)) == pytest.approx(1.0)


def _orbit_zero_tensors():
    """Tensors with I6 or I10 = 0, where a cube or fifth root is steep."""
    t0 = f_root()
    return [case.tensor for case in reference_cases()] + [
        SymTraceless3(d111=1.0, d122=-0.5 + 0.5 * math.sin(t0), d123=0.5 * math.cos(t0), d223=-2.0),
        SymTraceless3(d111=1.0, d112=1.0, d113=1.0, d123=1.0),  # the I6 gap pair
        SymTraceless3(d113=-1.0, d223=-1.0),  # zonal
        SymTraceless3(d123=1.0),
    ]


@pytest.mark.parametrize("norm", [1e-200, 1.0, 1e200])
def test_rotated_copies_with_vanishing_invariants_are_same(norm):
    # roundoff in I6 or I10 near 0 once reached distance 4.9e-4 through
    # the roots; the zero floor reads such a slot as a match
    for t in _orbit_zero_tensors():
        t = _scaled(t, norm / expand(t).frobenius())
        for seed in range(100):
            for proper in (True, False):
                copy = compress(act(random_orthogonal(60_000 + seed, proper=proper), expand(t)))
                assert same_orbit(t, copy) == "same", (t, seed, proper)


def _distance_without_floor(a, b):
    """invariant_distance as it reads with no zero floor."""
    _, c = _unit_scale(_components(a) + _components(b))
    pa = _degree_normalized(*_slice_kernel(*c[:7])[2])
    pb = _degree_normalized(*_slice_kernel(*c[7:])[2])
    return max(abs(x - y) for x, y in zip(pa, pb)) / max(pa[0], pb[0])


def test_zero_floor_leaves_distinct_pairs_alone():
    # independent pairs, and pairs 1e-7 apart relative, keep the
    # distance of the roots bit for bit
    rng = np.random.default_rng(2024)
    pairs = [(random_tensor(70_000 + s), random_tensor(80_000 + s)) for s in range(50)]
    for t in _orbit_zero_tensors() + [random_tensor(90_000 + s) for s in range(30)]:
        pairs.append((t, SymTraceless3.from_array(t.as_array() * (1.0 + 1e-7 * rng.normal(size=7)))))
    pairs.append((SymTraceless3(d111=1.0, d112=1.0), SymTraceless3(d111=1.0, d123=1.0)))
    for a, b in pairs:
        assert invariant_distance(a, b) == _distance_without_floor(a, b) > 1e-9, (a, b)


def test_same_orbit_rejects_bad_tol():
    a = random_tensor(1)
    with pytest.raises(ValueError):
        same_orbit(a, a, tol=0.0)


def test_verdict_separates_the_sign_pair():
    # two tensors agreeing in I2, I4, I6 with I10 = +64 vs -64; I10 is a
    # full O(3) invariant (degree 10 is even), so these are genuinely
    # distinct orbits and the alignment must agree with the invariant
    # verdict
    plus = SymTraceless3(d111=1.0, d112=1.0)
    minus = SymTraceless3(d111=1.0, d123=1.0)
    assert smith_bao(plus).i10 == 64.0
    assert smith_bao(minus).i10 == -64.0
    assert same_orbit(plus, minus) == "different"
    res = best_alignment(plus, minus, "O(3)")
    assert res.residual > 1e-3 * expand(plus).frobenius()


def test_alignment_canonicalizes_each_tensor_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return canonical_record(*args, **kwargs)

    monkeypatch.setattr("triso.canonical_core.canonical_record", counted)
    a, b = planted_pair(4, proper=False)
    assert best_alignment(a, b, "O(3)").residual <= 1e-10 * expand(a).frobenius()
    assert len(calls) == 2


def test_each_canonical_frame_is_checked_once(monkeypatch, capsys, tmp_path):
    # canonical_record checks no rows: canonicalize checks its frame in the
    # OrthogonalTransform3 it builds, _alignment checks both records' frames
    # (best_alignment also builds a transform from g), and the triso
    # canonicalize handler checks its record's
    calls = []
    check = components._check_orthogonal

    def counted(rows, det_sign):
        calls.append(det_sign)
        check(rows, det_sign)

    for module in ("components", "canonical_core", "tensor_core", "cli"):
        monkeypatch.setattr(f"triso.{module}._check_orthogonal", counted)
    a, b = planted_pair(4, proper=False)
    flags = [f"--{name}={value!r}" for name, value in zip(components.COMPONENT_NAMES, a.as_array().tolist())]
    files = []
    for name, t in (("a", a), ("b", b)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(components.tensor_to_json_obj(t)))
        files.append(str(path))
    compare = ["orbit-compare", "--a-file", files[0], "--b-file", files[1], "--align"]
    entry_points = {
        "canonicalize": lambda: canonicalize(a),
        "best_alignment": lambda: best_alignment(a, b, "O(3)"),
        "triso canonicalize": lambda: main(["canonicalize", *flags]),
        "triso orbit-compare --align": lambda: main(compare),
    }
    counts, results = {}, {}
    for name, call in entry_points.items():
        calls.clear()
        results[name] = call()
        counts[name] = len(calls)
    capsys.readouterr()
    assert results["triso canonicalize"] == results["triso orbit-compare --align"] == 0
    assert counts == {"canonicalize": 1, "best_alignment": 3, "triso canonicalize": 1,
                      "triso orbit-compare --align": 2}

    # a frame whose first row is 1 % too long is refused at every entry point
    framed = canonical_core._framed

    def skewed(*args):
        r = framed(*args)
        rows = [[1.01 * x for x in r.rows[0]], *r.rows[1:]]
        return CanonicalRecord(r.params, rows, r.det_sign, r.max_value, r.diagnostics)

    monkeypatch.setattr(canonical_core, "_framed", skewed)
    for name in ("canonicalize", "best_alignment"):
        with pytest.raises(ValueError, match="matrix is not orthogonal"):
            entry_points[name]()
    for argv in (["canonicalize", *flags], compare):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "matrix is not orthogonal" in captured.err


@pytest.mark.parametrize("seed", range(3))
def test_mirror_image_has_mirrored_params_but_aligns_in_o3(seed):
    # by default canonicalize is a canonical form for SO(3): an improper
    # copy of a chiral tensor lands on the mirror image of its canonical
    # form, with d123 negated; the O(3) form mirrors whichever copy has
    # d123 < 0, and the O(3) alignment finds the reflection
    a = random_tensor(seed)
    b = compress(act(random_orthogonal(50_000 + seed, proper=False), expand(a)))
    norm = expand(a).frobenius()
    pa = canonicalize(a).params.as_array()
    pb = canonicalize(b).params.as_array()
    assert abs(pa[2]) > 1e-3 * norm  # chiral: d123 != 0
    mirrored = pa * np.array([1.0, 1.0, -1.0, 1.0])
    assert np.max(np.abs(pb - mirrored)) <= 1e-8 * norm
    oa, ob = canonicalize(a, group="O(3)"), canonicalize(b, group="O(3)")
    assert np.max(np.abs(ob.params.as_array() - oa.params.as_array())) <= 1e-8 * norm
    assert oa.params.d123 > 0
    assert (oa.transform.det_sign, ob.transform.det_sign) == (np.sign(pa[2]), np.sign(pb[2]))
    aligned = best_alignment(a, b, "O(3)")
    assert aligned.best_transform.det_sign == -1
    assert aligned.residual <= 1e-10 * norm
    moved = compress(act(aligned.best_transform, expand(a)))
    assert np.max(np.abs(moved.as_array() - b.as_array())) <= 1e-9 * norm


def test_verdicts_need_no_math_function_newer_than_python_3_10():
    # the package supports Python 3.10, whose math module lacks cbrt and
    # exp2; a fresh interpreter with both deleted still decides orbits
    package_root = str(Path(triso.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = (
        "import math\n"
        "for name in ('cbrt', 'exp2'):\n"
        "    if hasattr(math, name):\n"
        "        delattr(math, name)\n"
        "from triso.orbit_oracle import best_alignment, degree_normalized_invariants, same_orbit\n"
        "from triso.tensor_core import act, compress, expand, random_orthogonal, random_tensor\n"
        "a, c = random_tensor(0), random_tensor(1)\n"
        "b = compress(act(random_orthogonal(1, proper=False), expand(a)))\n"
        "print(same_orbit(a, b), same_orbit(a, c), degree_normalized_invariants(a).shape)\n"
        "print(best_alignment(a, b, 'O(3)').residual < 1e-10)\n"
        # and the command's numpy-free canonical form
        "import contextlib, io, triso.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert triso.cli.main(['canonicalize', '--d111', '1', '--d123', '0.5']) == 0\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["same different (4,)", "True"]


def _is_correctly_rounded_cbrt(x, y):
    """Whether y is the double nearest the real cube root of x > 0: x lies
    strictly between the cubes of the midpoints from y to its neighbours."""
    X, Y = Fraction(x), Fraction(y)
    below, above = Fraction(math.nextafter(y, 0.0)), Fraction(math.nextafter(y, math.inf))
    return ((Y + below) / 2) ** 3 < X < ((Y + above) / 2) ** 3


def test_cbrt_is_correctly_rounded_and_numpys_where_numpys_is():
    # _cbrt needs no math.cbrt, which Python 3.10 lacks and which rounds as
    # the C library does.  It has np.cbrt's bits at 0, subnormals, 1e+-300
    # and powers of two; at 10^4 random doubles it is correctly rounded, so
    # it equals np.cbrt wherever that is correctly rounded too, and is one
    # ulp closer elsewhere
    special = [0.0, -0.0, 5e-324, 1e-320, 1e-310, 2.2250738585072014e-308, 1e-300, 1e300, 8.0, 27.0]
    special += [math.ldexp(1.0, k) for k in range(-1074, 1024, 37)]
    for x in special + [-x for x in special]:
        assert struct.pack("d", _cbrt(x)) == struct.pack("d", float(np.cbrt(x))), x
    rng = np.random.default_rng(0)
    draws = np.concatenate([rng.uniform(0.0, 10.0, 5000), 10.0 ** rng.uniform(-300.0, 300.0, 5000)]).tolist()
    differ = 0
    for x in draws:
        y, ours = float(np.cbrt(x)), _cbrt(x)
        assert _is_correctly_rounded_cbrt(x, ours), x
        assert _cbrt(-x) == -ours
        if ours != y:
            differ += 1
            assert not _is_correctly_rounded_cbrt(x, y) and abs(y - ours) == math.ulp(ours), x
    assert differ <= len(draws) // 50
