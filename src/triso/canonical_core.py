"""The numpy-free core of canonicalization, and a pure-Python candidate solve.

``canonical_form`` explains the method.  Everything in it that runs on
Python floats lives here: the unit-normalized tensor, the Newton finish
(``_newton``), the values of the cubic form, the choice of the candidates
worth finishing (``_contenders``), the choice of the maximizers among them
(``_maximize``) and the scoring of the frames they give (``_framed``), with
the constants that govern them.  ``_maximize`` takes the candidate solve as
an argument, a function from the seven components of the unit-norm tensor
to unit rows near every stationary point, and ``canonical_record`` returns
a plain ``CanonicalRecord``: the params, the transform's rows and
determinant sign, the maximum and the diagnostics.  It is the one
canonicalization pipeline: ``canonical_form.canonicalize`` is it with the
numpy solve, wrapped as a ``CanonicalResult``, and the ``triso`` command
runs it with ``_python_candidates``.  Its ``ConvergenceError``, which
names the tensor as a round-trippable ``SymTraceless3(...)`` repr, comes
from ``_maximize``.  The record's ``to_json_obj`` is the one JSON form of
a canonicalization, for ``CanonicalResult`` and the command line alike.

There are two candidate solves, and each is the other's tested reference.
The library's, ``canonical_form._stationary_candidates``, makes one ``det``
and one ``eigvals`` call on numpy arrays, about 50 us a call.
``_python_candidates`` here solves the same chart, picked by the same
rules, in Python floats: the chart's resultant sampled at the eight turn
directions by the expanded 5x5 Sylvester determinant, the same turn and
turn map, and the septic's roots by Aberth's simultaneous iteration
(Aberth 1973), the one step in complex numbers.  It takes about 230 us a
call in process (``scripts/layer_times.py``, ``python_candidates_us``),
4.7x the numpy solve, and needs no numpy, whose import costs a cold
process some 80 ms.  So the ``triso`` command uses it, and the
library keeps the numpy solve; neither choice depends on what is imported.
Its params can differ from the library's in the last bits, by at most
1e-13 ||T|| over the tested tensors, and it is deterministic to the byte.
The two solves share the chart algebra (``_chart_polynomials``), the
turn map (``_TURN_MAP``) and the candidate points (``_candidate_points``).
The closed forms carry integer constants only, so ints and Fractions run
through them exactly (``tests/test_canonical_core.py``).

``_alignment`` is the one alignment through two canonical frames, shared
by ``orbit_oracle.best_alignment`` (with the numpy solve) and ``triso
orbit-compare --align`` (with ``_python_candidates``).
"""

from __future__ import annotations

import math

from .components import (
    _LAYOUT,
    GROUPS,
    ConvergenceError,
    SymTraceless3,
    _check_orthogonal,
    _dot,
    _in_frame,
    _ldexp,
    _norm,
    _quaternion_rows,
    _Record,
    _scaled_norm,
    _slices,
    _unit_scale,
)
from .invariants import _EPS, CanonicalParams, _components, _slice_kernel

# Stationarity tolerance the returned maximizer must meet, applied to the
# unit-normalized tensor.
STATIONARITY_TOL = 1e-12
# A candidate is finished by Newton steps when its unpolished |value| is
# within this of the largest (unit-normalized tensor).  A candidate on a
# tied maximizer can start up to 5.1e-6 below the top, on a rotated copy of
# a tensor with three tied maximizers.
_FINISH_SLACK = 1e-5
# A contender within this of one with a larger value goes to the same
# stationary point and is not finished.  Roots are good to about 1e-8 (5e-6
# at a triple root), but the other root z of g at a real root y zeroes g and
# not f, and can land near the maximizer: on random_tensor(0..9999) and 360
# rotated tied tensors, contenders that Newton took to one point were up to
# 2.3e-3 apart (1.9e-3 on seed 1097), and contenders that it took to
# distinct points at least 1.63 apart.
_MERGE = 1e-2
# A real root s of the resultant is one with |Im s| <= _ROOT_TOL (1 + s^2).
# Roundoff moves a k-fold root by about eps^(1/k), off the real axis (1e-8
# for a double root, 1.3e-4 for the 4-fold root of the d111-only tensor),
# and a root far out, near the turned chart's point at infinity, by that
# much in 1/s, so by that times s^2 in s.  A complex root this close to the
# real axis gives a spurious candidate, which is harmless: every candidate
# is ranked by value and the ones that can win are finished by Newton steps.
_ROOT_TOL = 1e-3
# The turns a_k = (k + 1/2) pi / 8, k = 0..7, of a chart's (y, w) plane, as
# (cos a, sin a): all off w = 0, where Res_z(f, g) = w^2 R(y, w) vanishes.
_TURN_ANGLES = [(math.cos((k + 0.5) * math.pi / 8), math.sin((k + 0.5) * math.pi / 8)) for k in range(8)]
# Two fixed rotations with no special alignment to the coordinate axes or
# to each other: every row of one is at least 47 degrees from every row of
# the other (|cos| <= 0.672).  The quaternions have squared norms 1.0071
# and 0.995.
_CHART_ROWS = _quaternion_rows(*(q / math.sqrt(1.0071) for q in (0.7, 0.41, -0.33, 0.49)))
_SECOND_ROWS = _quaternion_rows(*(q / math.sqrt(0.995) for q in (0.9, 0.4, -0.15, -0.05)))
# The six charts: each frame's rows in their three cyclic orders, so that
# each row centres one, as (frame, order of its rows).
_CHART_ORDERS = [(f, (c, (c + 1) % 3, (c + 2) % 3)) for f in range(2) for c in range(3)]


class CanonicalRecord(_Record):
    """A canonicalization as plain values.

    params is a ``CanonicalParams``; rows are the transform's three rows as
    lists of Python floats, and det_sign its determinant's sign; max_value
    is the maximum of the cubic form on the sphere; diagnostics holds the
    Newton steps and the residuals of the two rotation stages.
    """

    __slots__ = ("params", "rows", "det_sign", "max_value", "diagnostics")

    def __init__(self, params, rows, det_sign, max_value, diagnostics):
        set_params, set_rows, set_det_sign, set_max_value, set_diagnostics = self._setters
        set_params(self, params)
        set_rows(self, rows)
        set_det_sign(self, det_sign)
        set_max_value(self, max_value)
        set_diagnostics(self, diagnostics)

    def to_json_obj(self) -> dict:
        return {
            "params": self.params.to_json_obj(),
            "rotation": [[float(v) for v in row] for row in self.rows],
            "max_value": self.max_value,
            "residual": self.diagnostics.get("stationarity_residual", 0.0),
        }


def _zero_record() -> CanonicalRecord:
    """The zero tensor's record: zero params and the identity."""
    return CanonicalRecord(
        CanonicalParams(0.0, 0.0, 0.0, 0.0),
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        1,
        0.0,
        {
            "newton_iterations": 0,
            "stationarity_residual": 0.0,
            "circle_residual": 0.0,
            "constraint_violation": 0.0,
        },
    )


def _check_group(group: str) -> None:
    if group not in GROUPS:
        raise ValueError(f"group must be one of {GROUPS}, got {group!r}")


def _unit_tensor(t) -> tuple[tuple, tuple | None]:
    """(n, k) with ||T|| = n 2^k (``_scaled_norm``), and the seven components over ||T||, as
    c 2^-k / n: the bits of c / ||T|| wherever ||T|| is a normal double; ((0.0, 0), None) for zero."""
    norm, k, c = _scaled_norm(_components(t))
    if norm == 0.0:
        return (0.0, 0), None
    return (norm, k), tuple([x / norm for x in c])


def _rescaled(k: int, values: list) -> list:
    """Each of values, n x from the unit tensor, times 2^k: ||T|| x, +-inf only past the double range."""
    return values if k == 0 else [_ldexp(x, k) for x in values]


# Kernels on single 3-vectors held as Python floats, and on the seven
# components c of the unit-norm tensor.


def _unit(x) -> list:
    n = math.sqrt(_dot(x, x))
    return [x[0] / n, x[1] / n, x[2] / n]


def _tangent_bases(x) -> tuple[list, list]:
    """An orthonormal tangent pair (t1, t2) at the unit vector x.

    t1 is e_a - x_a x normalized, with a the axis of the smallest |x_a|
    (the first of equals), and t2 = x cross t1.
    """
    x0, x1, x2 = x
    a0, a1, a2 = abs(x0), abs(x1), abs(x2)
    a = 0 if a0 <= a1 and a0 <= a2 else 1 if a1 <= a2 else 2
    t = [-x[a] * x0, -x[a] * x1, -x[a] * x2]
    t[a] += 1.0
    c0, c1, c2 = _unit(t)
    return [c0, c1, c2], [x1 * c2 - x2 * c1, x2 * c0 - x0 * c2, x0 * c1 - x1 * c0]


def _tangential_residual(read: tuple, scale: float = 1.0) -> float:
    """scale ||grad g - (x.grad g) x|| at x, from the tensor read in a frame
    (x, t1, t2): the gradient's tangent part is 3 (d112, d113)."""
    return 3.0 * scale * math.hypot(read[1], read[2])


def _newton(c: tuple, x: list) -> tuple[list, int, float, float]:
    """Riemannian Newton steps from x toward a stationary point of the cubic form.

    Each iteration reads the tensor in the frame (x, t1, t2) and solves the
    projected system P(H - lambda I)P dx = -P grad in the tangent basis; a
    near-singular tangent Hessian falls back to a damped gradient step.
    Step length is capped so the iterate stays in its basin.  It stops
    without moving when the step it would take is below 1e-15, or after 4
    steps, and returns the point, the frame reads, and g(x) and the
    tangential gradient norm ||grad g - (x.grad g) x|| from the last read.
    """
    for reads in range(1, 6):
        t1, t2 = _tangent_bases(x)
        read = _in_frame(c, (x, t1, t2))
        a00, a01, a11, b0, b1 = _tangent_system(read)
        det = a00 * a11 - a01 * a01
        if abs(det) > 1e-14 * (1.0 + a00 * a00 + a01 * a01 + a11 * a11):
            z0, z1 = (a11 * b0 - a01 * b1) / det, (a00 * b1 - a01 * b0) / det
        else:
            z0, z1 = 0.2 * b0, 0.2 * b1
        step = math.hypot(z0, z1)
        cap = min(1.0, 0.3 / max(step, 1e-300))
        if cap * step < 1e-15 or reads == 5:
            break
        z0, z1 = cap * z0, cap * z1
        x = _unit([x[k] + z0 * t1[k] + z1 * t2[k] for k in range(3)])
    return x, reads, read[0], _tangential_residual(read)


def _tangent_system(read: tuple) -> tuple:
    """(a00, a01, a11, b0, b1): P(H - lambda I)P and -P grad at x in the basis (t1, t2), from the
    tensor read in the frame (x, t1, t2), where H = 6 D(x) and grad = 3 D(x) x have tangent parts
    6 [[d122, d123], [d123, d133]] and 3 (d112, d113), lambda = 3 d111 and d133 = -d111 - d122."""
    d111, d112, d113, d122, d123, _, _ = read
    h22 = 6 * d122
    return h22 - 3 * d111, 6 * d123, -9 * d111 - h22, -3 * d112, -3 * d113


def _cubic_values(c: tuple, rows) -> list:
    """g(x) = D_ijk x_i x_j x_k at each row x, from the ten coefficients of the cubic."""
    (d111, d122, d133, d112, d113, d123), (_, d222, d233, _, _, d223), (_, _, d333, _, _, _) = _slices(*c)
    k112, k113, k122, k123, k133 = 3 * d112, 3 * d113, 3 * d122, 6 * d123, 3 * d133
    k223, k233 = 3 * d223, 3 * d233
    return [
        x1 * (x1 * (d111 * x1 + k112 * x2 + k113 * x3) + x2 * (k122 * x2 + k123 * x3) + k133 * x3 * x3)
        + x2 * x2 * (d222 * x2 + k223 * x3)
        + x3 * x3 * (k233 * x2 + d333 * x3)
        for x1, x2, x3 in rows
    ]


def _candidate_points(c: tuple, rows, turn: tuple, g: list, roots) -> list:
    """The candidate rows from the roots s of a chart's turned resultant.

    rows are the chart's frame (u0, u1, u2), turn its (cos a, sin a), g the
    nine coefficients of its g (``_chart_polynomials``, z^0's first) and
    roots complex numbers.  Each root s real to within _ROOT_TOL
    (1 + s^2) is taken back to (y, w) = (s cos a - sin a, s sin a + cos a)
    and gives both roots z of g, its coefficients homogenized in w, with no
    window: a spurious one is harmless, as the caller ranks every candidate
    by value.  The rows come root by root, q/g2 before g0/q, then the
    covariant vector v_p = M_kl D_klp when it is nonzero: a zonal tensor
    (axially symmetric) has a ring of stationary points, its resultant
    vanishes identically in every chart, and v lies along its axis, which
    is its maximizer.
    """
    u0, u1, u2 = rows
    ca, sa = turn
    a0, a1, a2, a3, b0, b1, b2, c0, c1 = g
    points = []
    for s in roots:
        if not abs(s.imag) <= _ROOT_TOL * (1.0 + s.real * s.real):
            continue
        y, w = s.real * ca - sa, s.real * sa + ca
        # g's coefficients of z^0, z^1, z^2 at (y, w), and its two roots
        # z = q / g2 = g0 / q, each as the point den (w u0 + y u1) + num u2
        g0 = ((a3 * y + a2 * w) * y + a1 * w * w) * y + a0 * w * w * w
        g1 = (b2 * y + b1 * w) * y + b0 * w * w
        g2 = c1 * y + c0 * w
        q = -0.5 * (g1 + math.copysign(math.sqrt(max(g1 * g1 - 4.0 * g0 * g2, 0.0)), g1))
        w0, w1, w2 = w * u0[0] + y * u1[0], w * u0[1] + y * u1[1], w * u0[2] + y * u1[2]
        for den, num in ((g2, q), (q, g0)):
            x0, x1, x2 = den * w0 + num * u2[0], den * w1 + num * u2[1], den * w2 + num * u2[2]
            n = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
            if n > 0.0:
                points.append([x0 / n, x1 / n, x2 / n])
    v = _slice_kernel(*c)[1]
    if _dot(v, v) > 0.0:
        points.append(_unit(v))
    return points


def _chart_rows(chart: int) -> list:
    """The rows (u0, u1, u2) of the chart-th of _CHART_ORDERS, as lists."""
    f, order = _CHART_ORDERS[chart]
    return [(_CHART_ROWS, _SECOND_ROWS)[f][i] for i in order]


def _frame_reads(c) -> list:
    """The three symmetric slices of the tensor c read in each fixed frame."""
    return [_slices(*_in_frame(c, rows)) for rows in (_CHART_ROWS, _SECOND_ROWS)]


def _chart_entry(reads: list, chart: int, m: int, n: int, l: int) -> float:
    """D(u_m, u_n, u_l) in a chart, from the tensor's ``_frame_reads``."""
    f, order = _CHART_ORDERS[chart]
    return reads[f][order[l]][_LAYOUT[order[m]][order[n]]]


def _chart_polynomials(reads: list, chart: int) -> tuple[list, list]:
    """A chart's f and g, whose common zeros are its stationary points.

    The chart with rows (u0, u1, u2) has the point x = w u0 + y u1 + z u2.
    With P_m = D(u_m, x, x), x is stationary when the quadratic g = w P1 -
    y P0 and the cubic f = z P0 - w P2 in z both vanish.  Returns their
    coefficients of z^0, z^1, ..., that of z^k as the coefficients, y^0
    first, of a form of degree 3 - k in (y, w), each linear in the tensor.
    """
    d = [[[_chart_entry(reads, chart, m, n, l) for l in range(3)] for n in range(3)] for m in range(3)]
    # P_m's coefficients of z^0, z^1 and z^2, each by powers of y
    z0 = [(d[m][0][0], 2 * d[m][0][1], d[m][1][1]) for m in range(3)]
    z1 = [(2 * d[m][0][2], 2 * d[m][1][2]) for m in range(3)]
    z2 = [d[m][2][2] for m in range(3)]
    f = [
        [-z0[2][0], -z0[2][1], -z0[2][2], 0],
        [z0[0][0] - z1[2][0], z0[0][1] - z1[2][1], z0[0][2]],
        [z1[0][0] - z2[2], z1[0][1]],
        [z2[0]],
    ]
    g = [
        [z0[1][0], z0[1][1] - z0[0][0], z0[1][2] - z0[0][1], -z0[0][2]],
        [z1[1][0], z1[1][1] - z1[0][0], -z1[0][1]],
        [z2[1], -z2[0]],
    ]
    return f, g


def _chart_at(f: list, g: list, turn: tuple) -> tuple[list, list]:
    """f / w and g by powers of z at (y, w) = turn, w > 0.  Their resultant
    is the septic R(y, w) = Res_z(f, g) / w^2: Res_z(f, g) has the factor
    w^2, as f and g share P0 at w = 0, and is of degree 2 in f."""
    y, w = turn
    forms = []
    for p in f + g:  # sum_j p[j] y^j w^(n - j), n = len(p) - 1, by Horner's rule
        out, wk = 0.0, 1.0
        for a in reversed(p):
            out, wk = out * y + a * wk, wk * w
        forms.append(out)
    return [x / w for x in forms[:4]], forms[4:]


def _from_roots(roots) -> list:
    """The monic polynomial with these roots, coefficients lowest power first."""
    p = [1.0]
    for r in roots:
        p = [b - r * a for a, b in zip(p + [0.0], [0.0] + p)]
    return p


def _lagrange(node: float) -> list:
    """(1 + node^2)^(7/2) times the Lagrange polynomial of node among _NODES."""
    others = [x for x in _NODES if x != node]
    return [(1.0 + node * node) ** 3.5 / math.prod(node - x for x in others) * a for a in _from_roots(others)]


# R turned by a_k, T(s) = R(s cos a_k - sin a_k, s sin a_k + cos a_k), has lead
# R(cos a_k, sin a_k) and, at s = cot(m pi / 8), m = 1..7, the value (1 + s^2)^(7/2)
# R(cos a_(k+m), sin a_(k+m)), negated past pi as R is odd.  So T is its lead
# times the nodes' product plus its Lagrange interpolant there: _TURN_MAP[i]
# gives T's s^i coefficient, i = 0..6 (zip stops at the interpolant's degree 6;
# that of s^7 is the lead itself).  Its condition number is 27.
_NODES = [math.cos(m * math.pi / 8) / math.sin(m * math.pi / 8) for m in range(1, 8)]
_TURN_MAP = [list(row) for row in zip(_from_roots(_NODES), *map(_lagrange, _NODES))]


def _turned(samples: list, k: int) -> list:
    """The coefficients of s^0..s^6 of R turned by _TURN_ANGLES[k], from its
    samples R(cos a, sin a) at all eight turns, shifted to the k-th with
    those past pi negated; that of s^7 is samples[k]."""
    shifted = samples[k:] + [-r for r in samples[:k]]
    return [sum(m * r for m, r in zip(row, shifted)) for row in _TURN_MAP]


def _resultant(f: list, g: list):
    """Res_z(f, g) of f = f0 + f1 z + f2 z^2 + f3 z^3 and g = g0 + g1 z + g2 z^2.

    The 5x5 Sylvester determinant, f's coefficients from the top in two
    rows and g's in three, expanded into its 13 terms.
    """
    f0, f1, f2, f3 = f
    g0, g1, g2 = g
    g00, g11, g22 = g0 * g0, g1 * g1, g2 * g2
    return (
        f0 * (f0 * g22 * g2 - f1 * g1 * g22 - 2 * f2 * g0 * g22 + f2 * g11 * g2
              + 3 * f3 * g0 * g1 * g2 - f3 * g11 * g1)
        + f1 * (f1 * g0 * g22 - f2 * g0 * g1 * g2 - 2 * f3 * g00 * g2 + f3 * g0 * g11)
        + f2 * g00 * (f2 * g2 - f3 * g1)
        + f3 * f3 * g00 * g0
    )


# Aberth's iteration starts on the 7th roots of unity turned by 0.4 rad,
# off the real axis, about which a real polynomial's roots are symmetric.
_ABERTH_START = [complex(math.cos(2.0 * math.pi * k / 7 + 0.4), math.sin(2.0 * math.pi * k / 7 + 0.4)) for k in range(7)]
# The most sweeps it takes: random tensors need 6 to 15, and the d111-only
# tensor, whose resultant has a 4-fold root, 18.
_ABERTH_SWEEPS = 100


def _aberth(a: list) -> list:
    """The seven roots of the monic septic s^7 + a[6] s^6 + ... + a[0], complex.

    Aberth's simultaneous iteration (Aberth 1973) moves each approximation
    z_k by N_k / (1 - N_k sum_(j != k) 1 / (z_k - z_j)), N_k = p(z_k) / p'(z_k),
    in turn and in place, from a circle of radius max_j |a_j|^(1 / (7 - j)),
    within a factor 2 of a bound on every root.  An approximation stops
    moving once |p(z_k)| is within its rounding, 16 eps sum_j |a_j| |z_k|^j,
    so a multiple root, which converges only linearly, stops at the
    eps^(1/k) its coefficients define it to; at most _ABERTH_SWEEPS sweeps.
    The polynomial s^7 has its seven roots at 0.
    """
    radius = max(abs(x) ** (1.0 / (7 - j)) for j, x in enumerate(a))
    if radius == 0.0:
        return [0j] * 7
    z = [radius * start for start in _ABERTH_START]
    top_down = a[::-1]
    moving = range(7)
    for _ in range(_ABERTH_SWEEPS):
        still = []
        for k in moving:
            x = z[k]
            size = abs(x)
            p, dp, bound = 1.0, 0.0, 1.0
            for coef in top_down:
                dp = dp * x + p
                p = p * x + coef
                bound = bound * size + abs(coef)
            if abs(p) <= 16.0 * _EPS * bound:
                continue
            still.append(k)
            newton = p / dp if dp else p
            pull = sum(1.0 / (x - other) for j, other in enumerate(z) if j != k and other != x)
            scale = 1.0 - newton * pull
            z[k] = x - (newton / scale if scale else newton)
        if not still:
            break
        moving = still
    return z


def _python_candidates(c: tuple) -> list:
    """``canonical_form._stationary_candidates`` in Python floats, without
    numpy: the same chart and turn, R's samples from ``_resultant`` of
    ``_chart_at``, and the turned septic's roots from ``_aberth``, a zero
    lead taken as 1, where the numpy solve calls ``eigvals``."""
    reads = _frame_reads(c)
    leads = [_chart_entry(reads, k, 1, 2, 2) ** 2 + _chart_entry(reads, k, 0, 2, 2) ** 2 for k in range(6)]
    chart = leads.index(max(leads))
    f, g = _chart_polynomials(reads, chart)
    samples = [_resultant(*_chart_at(f, g, turn)) for turn in _TURN_ANGLES]
    k = max(range(8), key=lambda j: abs(samples[j]))  # the first of equals
    roots = _aberth([x / (samples[k] or 1.0) for x in _turned(samples, k)])
    return _candidate_points(c, _chart_rows(chart), _TURN_ANGLES[k], g[0] + g[1] + g[2], roots)


def _contenders(c: tuple, rows: list) -> list:
    """The candidates that can win, each turned to the sign of positive
    value, largest value first: those with |value| within _FINISH_SLACK of
    the top, less any within _MERGE of one with a larger value."""
    near = []
    values = _cubic_values(c, rows)
    top = max(map(abs, values))
    for row, value in zip(rows, values):
        if abs(value) >= top - _FINISH_SLACK:
            near.append((abs(value), row if value >= 0.0 else [-row[0], -row[1], -row[2]]))
    near.sort(key=lambda pair: pair[0], reverse=True)
    kept = []
    for _, row in near:
        if all(math.dist(row, other) > _MERGE for other in kept):
            kept.append(row)
    return kept


def _maximize(t, c: tuple, solve) -> tuple[list, float, float, int]:
    """The maximizers of the cubic form of the unit-norm tensor c, by the rule
    of ``canonical_form.maximize_cubic_on_sphere``, from the rows that
    solve(c) returns.

    Returns (maximizers, value, residual, newton_iterations) on the unit
    tensor: every distinct tied maximizer as a row, the winner first, and
    the winner's value and stationarity residual.  Raises ConvergenceError,
    naming the tensor t, as that function does.
    """
    rows = solve(c)
    if not rows:
        raise ConvergenceError(f"no stationary point found for {SymTraceless3(*_components(t))!r}")
    finished = []  # (value, point, residual), value >= 0
    newton_iterations = 0
    for row in _contenders(c, rows):
        u, reads, value, res = _newton(c, row)
        newton_iterations = max(newton_iterations, min(reads, 4))
        if value < 0.0:
            u, value = [-u[0], -u[1], -u[2]], -value
        finished.append((value, u, res))

    # candidates still converging onto the maximizer share its value, so
    # the tolerance is judged on the best of those within 1e-12 of it
    top = max(value for value, _, _ in finished)
    near = [f for f in finished if f[0] >= top - 1e-12]
    tied = sorted((f for f in near if f[2] <= STATIONARITY_TOL), key=lambda f: f[1], reverse=True)
    if not tied:
        raise ConvergenceError(
            f"the maximizer misses stationarity tolerance {STATIONARITY_TOL:.3g}; "
            f"residual {min(f[2] for f in near):.3g} (normalized tensor) for {SymTraceless3(*_components(t))!r}"
        )
    maximizers = []
    for f in tied:
        if all(math.dist(f[1], m[1]) > 1e-6 for m in maximizers):
            maximizers.append(f)
    value, _, res = maximizers[0]
    return [m[1] for m in maximizers], value, res, newton_iterations


def _about_e1(a: tuple, c2, s2, c3, s3) -> tuple:
    """d122, d123 and d223 less its a112 and a113 terms (``_about_e1_rest``) of the tensor read
    a turned about e1 by theta, to the frame (e1, c1 e2 + s1 e3, -s1 e2 + c1 e3), with c2, s2,
    c3, s3 the cos and sin of 2 theta and 3 theta: the keys that rank the frames."""
    a111, _, _, a122, a123, a222, a223 = a
    half_gap = (2 * a122 + a111) / 2  # (d122 - d133) / 2, as d133 = -d111 - d122
    return -a111 / 2 + half_gap * c2 + a123 * s2, a123 * c2 - half_gap * s2, a223 * c3 - a222 * s3


def _about_e1_rest(a: tuple, c1, s1, c3, s3, d223) -> tuple:
    """The rest of that turn, for the winner only: d112, d113, d222 and d223, from ``_about_e1``'s
    d223 and the cos and sin of theta and 3 theta; a112 and a113 reach d222 and d223 by the traces."""
    _, a112, a113, _, _, a222, a223 = a
    d222 = a222 * c3 + a223 * s3 - s1 * s1 * (3 * c1 * a112 + s1 * a113)
    d223 -= s1 * ((2 * c1 * c1 - s1 * s1) * a112 + c1 * s1 * a113)
    return c1 * a112 + s1 * a113, c1 * a113 - s1 * a112, d222, d223


def _framed(scale: tuple, c: tuple, maximizers: list, newton_iterations: int, group: str) -> CanonicalRecord:
    """The canonical frame among those the maximizers give, as a record.

    ``canonical_form.canonicalize`` states the rule.  scale and c are
    ``_unit_tensor``'s, and maximizers their rows.
    """
    mirror = group == "O(3)"
    frames = []  # (ranking keys, theta, d122, d123 and d223, frame, components in it)
    for u in maximizers:
        t1, t2 = _tangent_bases(u)
        # the unit-norm tensor in the frame (u, t1, t2), where a112 and a113
        # are at roundoff level, as u is stationary
        a = _in_frame(c, (u, t1, t2))
        a111, _, _, b22, b23, a222, a223 = a
        if math.hypot(a222, a223) <= 1e-13:  # the theta with d123 = 0 and d122 >= d133
            thetas = [0.5 * math.atan2(b23, 0.5 * (2.0 * b22 + a111))]
        else:  # zeros of h: 3 theta = atan2(a223, a222) + pi/2 + j pi
            phi = math.atan2(a223, a222)
            thetas = [(phi + math.pi * (0.5 + j)) / 3.0 for j in range(6)]
        for theta in thetas:
            d122, d123, d223 = turned = _about_e1(a, math.cos(2.0 * theta), math.sin(2.0 * theta),
                                                  math.cos(3.0 * theta), math.sin(3.0 * theta))
            keys = (d122, abs(d123), d223, d123) if mirror else turned
            frames.append((keys, theta, turned, (u, t1, t2), a))
    for k in range(len(frames[0][0])):
        top = max(f[0][k] for f in frames)
        frames = [f for f in frames if f[0][k] >= top - 1e-10]
    _, theta, (d122, d123, d223), (u, t1, t2), a = frames[0]
    c1, s1 = math.cos(theta), math.sin(theta)
    d112, d113, d222, d223 = _about_e1_rest(a, c1, s1, math.cos(3.0 * theta), math.sin(3.0 * theta), d223)
    # the rotation about e1 by theta, composed after the frame (u, t1, t2)
    (p0, p1, p2), (q0, q1, q2) = t1, t2
    m = [u, [c1 * p0 + s1 * q0, c1 * p1 + s1 * q1, c1 * p2 + s1 * q2],
         [-s1 * p0 + c1 * q0, -s1 * p1 + c1 * q1, -s1 * p2 + c1 * q2]]
    det_sign = 1
    if mirror and d123 < -1e-10:
        m[1] = [-x for x in m[1]]  # diag(1, -1, 1) @ m, which negates d123
        det_sign, d123 = -1, -d123
    norm, k = scale
    d111, d122, d123, d223, residual, circle, constraint = _rescaled(k, [
        norm * a[0], norm * d122, norm * d123, norm * d223, _tangential_residual(a, norm),
        norm * abs(d222), norm * max(abs(d112), abs(d113), abs(d222)),
    ])
    diagnostics = {"newton_iterations": newton_iterations, "stationarity_residual": residual,
                   "circle_residual": circle, "constraint_violation": constraint}
    return CanonicalRecord(CanonicalParams(d111, d122, d123, d223), m, det_sign, d111, diagnostics)


def canonical_record(t, group: str, solve) -> CanonicalRecord:
    """``canonical_form.canonicalize`` as a plain record, with the candidate solve given.

    The transform's rows are not checked here: each consumer checks them
    once, ``canonicalize`` through its ``OrthogonalTransform3`` and the
    others by ``components._check_orthogonal`` (``_alignment``, and the
    ``triso canonicalize`` handler).  Raises ValueError for an unknown
    group, and ConvergenceError as ``_maximize`` does.
    """
    _check_group(group)
    scale, c = _unit_tensor(t)
    if c is None:
        return _zero_record()
    maximizers, _, _, newton_iterations = _maximize(t, c, solve)
    return _framed(scale, c, maximizers, newton_iterations, group)


def _alignment(a, b, group: str, solve) -> tuple[list, int, float]:
    """The rows and det_sign of g = R_b^T R_a, and the residual ||g.a - b||, in Python floats.

    R_a and R_b are the transforms ``canonical_record`` returns for the
    tensors a and b under group, with the candidate solve given; each must
    pass ``components._check_orthogonal``.
    """
    r_a, r_b = canonical_record(a, group, solve), canonical_record(b, group, solve)
    _check_orthogonal(r_a.rows, r_a.det_sign)
    _check_orthogonal(r_b.rows, r_b.det_sign)
    (a0, a1, a2), (b0, b1, b2) = r_a.rows, r_b.rows
    g = [[b0[i] * a0[j] + b1[i] * a1[j] + b2[i] * a2[j] for j in range(3)] for i in range(3)]
    # at the pair's common power of two, where no component of g.a overflows;
    # it commutes exactly with every + and *
    k, c = _unit_scale(_components(a) + _components(b))
    residual = _norm([x - y for x, y in zip(_in_frame(c[:7], g), c[7:])])
    return g, r_b.det_sign * r_a.det_sign, _ldexp(residual, k)
