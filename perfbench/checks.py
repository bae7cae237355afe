"""Output checks.

Each check takes the program's output as plain numbers and returns None
when it is right, or a one-line reason when it is not.  The expected side
always comes from `reference` or from a property the method must have
(orthogonality, the canonical constraints, global maximality, invariance
under the group, the paper's closed forms), never from stored output.
"""

from __future__ import annotations


import numpy as np

from perfbench import reference as ref

CONSTRAINT_TOL = 1e-9  # |d112|, |d113|, |d222| after canonicalization, times ||T||
PARAM_TOL = 1e-9  # canonical entries against params, times ||T||
ORTHO_TOL = 1e-12
INVARIANT_TOL = 1e-10  # |dI_k| / ||T||^k
PLANTED_RESIDUAL = 1e-8  # times ||T||
DISTINCT_RESIDUAL = 1e-3  # times ||T||
SAME_PARAMS_TOL = 1e-8  # times ||T||
DET_TOL = 1e-6  # |det_fd - det| over the Jacobian's row-norm product


def check_canonical(c7, params, rotation, det_sign, max_value) -> str | None:
    """canonicalize(T): a proper rotation taking T to the canonical form `params`."""
    arr = ref.full(c7)
    norm = ref.frobenius(arr)
    r = np.asarray(rotation, dtype=float)
    if r.shape != (3, 3) or not np.all(np.isfinite(r)):
        return "rotation is not a finite 3x3 matrix"
    ortho = float(np.max(np.abs(r.T @ r - np.eye(3))))
    if ortho > ORTHO_TOL:
        return f"rotation not orthogonal: max |R^T R - I| = {ortho:.3g}"
    if det_sign != 1 or np.linalg.det(r) < 0:
        return f"rotation is improper (det {np.linalg.det(r):+.3f}, det_sign {det_sign})"
    rotated = ref.seven(ref.act(r, arr))
    d111, d112, d113, d122, d123, d222, d223 = rotated
    worst = max(abs(d112), abs(d113), abs(d222))
    if worst > CONSTRAINT_TOL * norm:
        return f"constraints: max(|d112|,|d113|,|d222|) = {worst / norm:.3g} ||T||"
    gap = float(np.max(np.abs(np.array([d111, d122, d123, d223]) - np.asarray(params, dtype=float))))
    if not gap <= PARAM_TOL * norm:
        return f"params differ from R.T by {gap / max(norm, 1e-300):.3g} ||T||"
    if not abs(max_value - d111) <= PARAM_TOL * norm:
        return f"max_value {max_value!r} is not d111 {d111!r}"
    sampled = ref.sampled_max(arr)
    if max_value < sampled - 1e-12 * norm:
        return f"max_value {max_value!r} below the sampled maximum {sampled!r}: not global"
    gap = ref.invariant_gap(ref.invariants(ref.full(ref.canonical_seven(params))), ref.invariants(arr), norm)
    if gap > INVARIANT_TOL:
        return f"invariants of params differ from the input's by {gap:.3g} (scale-free)"
    return None


def check_same_params(params_a, params_b, norm: float) -> str | None:
    """Canonical params of two members of one orbit must agree."""
    gap = float(np.max(np.abs(np.asarray(params_a, dtype=float) - np.asarray(params_b, dtype=float))))
    if not gap <= SAME_PARAMS_TOL * norm:
        return f"same orbit, params differ by {gap / norm:.3g} ||T||"
    return None


def invariant_errors(got, c7s) -> list[str | None]:
    """Rows of invariant tuples against the reference contraction, scale-free."""
    arr = ref.full(c7s)
    gaps = ref.invariant_gap(got, ref.invariants(arr), ref.frobenius(arr))
    return [None if g <= INVARIANT_TOL else f"invariants off the reference contraction by {g:.3g} (scale-free)"
            for g in np.atleast_1d(gaps)]


def check_invariants(got, c7) -> str | None:
    return invariant_errors(np.asarray(got, dtype=float)[None], np.asarray(c7, dtype=float)[None])[0]


def rotation_errors(got, got_rotated, norms) -> list[str | None]:
    """Rows of invariants of rotated copies against those of the originals."""
    gaps = ref.invariant_gap(got_rotated, got, norms)
    return [None if g <= INVARIANT_TOL else f"invariants change under rotation by {g:.3g} (scale-free)"
            for g in np.atleast_1d(gaps)]


def bound_errors(inv) -> list[str | None]:
    """I2^2/3 <= I4 <= I2^2 and |I10| <= sqrt(I2) I6^(3/2) (acceptance criterion 9), per row."""
    i2, i4, i6, i10 = np.atleast_2d(np.asarray(inv, dtype=float)).T

    def slack(x):
        return 1e-9 * np.maximum(1.0, np.abs(x))

    lo, hi = i2 * i2 / 3.0, i2 * i2
    bound = np.sqrt(np.maximum(i2, 0.0)) * np.maximum(i6, 0.0) ** 1.5
    ok = (lo - slack(lo) <= i4) & (i4 <= hi + slack(hi)) & (np.abs(i10) <= bound + slack(bound))
    return [None if good else f"(I2, I4, I10) = ({x2:.17g}, {x4:.17g}, {x10:.17g}) breaks "
            f"I2^2/3 <= I4 <= I2^2 or |I10| <= {b:.17g}"
            for good, x2, x4, x10, b in zip(ok, i2, i4, i10, bound)]


def check_verdict(verdict: str, planted: bool) -> str | None:
    want = "same" if planted else "different"
    if verdict != want:
        return f"verdict {verdict!r}, want {want!r}"
    return None


def check_alignment(a7, b7, transform, residual: float, planted: bool) -> str | None:
    """best_alignment(a, b): g.a reproduces b on planted pairs, and the
    reported residual is ||g.a - b||, recomputed here."""
    a = ref.full(a7)
    b = ref.full(b7)
    norm = max(ref.frobenius(a), ref.frobenius(b))
    g = np.asarray(transform, dtype=float)
    ortho = float(np.max(np.abs(g.T @ g - np.eye(3))))
    if ortho > ORTHO_TOL:
        return f"transform not orthogonal: max |g^T g - I| = {ortho:.3g}"
    actual = ref.frobenius(ref.act(g, a) - b)
    if not abs(actual - residual) <= 1e-9 * norm:
        return f"reported residual {residual:.3g} but ||g.a - b|| = {actual:.3g}"
    if planted and not actual <= PLANTED_RESIDUAL * norm:
        return f"planted pair left at residual {actual / norm:.3g} ||T||"
    if not planted and not actual > DISTINCT_RESIDUAL * norm:
        return f"independent pair aligned to {actual / norm:.3g} ||T||"
    return None


def check_cli_residual(residual, planted: bool, norm: float) -> str | None:
    """The CLI prints the residual only, not the transform."""
    if not isinstance(residual, float):
        return f"alignment_residual {residual!r} is not a number"
    if planted and not residual <= PLANTED_RESIDUAL * norm:
        return f"planted pair left at residual {residual / norm:.3g} ||T||"
    if not planted and not residual > DISTINCT_RESIDUAL * norm:
        return f"independent pair aligned to {residual / norm:.3g} ||T||"
    return None


def check_independence(samples, degenerate, rank4_fraction, requested) -> str | None:
    """independence_report(requested, seed) on its own generic sample.

    Its max_fd_deviation and max_det_mismatch are not checked: each exceeds
    its acceptance-criterion-7 tolerance (1e-6, 1e-8) for some seeds and
    not others (FOUND in CHANGES.md), and a check that fails on some seeds
    would make the failed count of a run depend on its seed.  check_det
    tests the determinant transcription independently.
    """
    if samples != requested or degenerate != 0:
        return f"{samples} generic and {degenerate} degenerate samples, want {requested} and 0"
    if rank4_fraction != 1.0:
        return f"rank-4 fraction {rank4_fraction!r}, want 1.0"
    return None


def check_det(c4, det_closed_form: float) -> str | None:
    """Closed-form Jacobian determinant against central differences of the
    reference contraction, relative to Hadamard's bound on |det|."""
    det_fd, bound = ref.fd_jacobian_det(c4)
    gap = abs(det_fd - det_closed_form) / bound
    if not gap <= DET_TOL:
        return f"det {det_closed_form:.6g} vs finite differences {det_fd:.6g} ({gap:.3g} of the row-norm product)"
    return None


def check_run_report(report: dict) -> str | None:
    """run_report(): every case at its closed form, the f-root and the I6 gap."""
    if report.get("pass") is not True:
        return "run_report does not pass"
    cases = report["cases"]
    if [row["label"] for row in cases] != [label for label, _, _ in ref.REFERENCE_CASES]:
        return f"unexpected case labels {[row['label'] for row in cases]}"
    for row, (label, c7, want) in zip(cases, ref.REFERENCE_CASES):
        c = row["computed"]
        got = (c["I2"], c["I4"], c["I6"], c["I10"])
        gap = ref.invariant_gap(got, want, ref.frobenius(ref.full(c7)))
        if not gap <= INVARIANT_TOL:
            return f"case {label}: off its closed form by {gap:.3g}"
    root = report["f_root"]
    if not abs(root["sin_3t0"] - ref.SIN_3T0) <= 1e-12:
        return f"sin(3 t0) = {root['sin_3t0']!r}, want 21 - sqrt(420) = {ref.SIN_3T0!r}"
    gap = report["gap"]
    low, high = gap["low"], gap["high"]
    if not low["I6"] < 104.0 < high["I6"]:
        return f"gap violated: {low['I6']!r} < 104 < {high['I6']!r} fails"
    for name, got, want_c7, want in (("low", low, ref.GAP_LOW, ref.GAP_EXPECTED[0]), ("high", high, ref.GAP_HIGH, ref.GAP_EXPECTED[1])):
        tup = (got["I2"], got["I4"], got["I6"], got["I10"])
        err = ref.invariant_gap(tup, want, ref.frobenius(ref.full(want_c7)))
        if not err <= INVARIANT_TOL:
            return f"gap {name} tensor off its closed form by {err:.3g}"
    return None


CLI_EXACT_ARGS = ("invariants", "--d111", "1", "--d112", "1")
CLI_EXACT_OUTPUT = '{"I2":10,"I4":44,"I6":16,"I10":64}\n'


def check_cli_exact(stdout: str) -> str | None:
    if stdout != CLI_EXACT_OUTPUT:
        return f"printed {stdout!r}, want {CLI_EXACT_OUTPUT!r}"
    return None
