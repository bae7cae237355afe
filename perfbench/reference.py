"""Reference computations the benchmark checks `triso` against.

Written apart from `triso` and importing nothing from it: the 27-entry
expansion of the seven free components by the trace rule, the four
Smith-Bao contractions, the orthogonal group action, Haar-random group
elements, a fixed sample of sphere points, and the closed-form values of
the paper's reference tensors.  Everything takes and returns plain numpy
arrays.
"""

from __future__ import annotations

import math

import numpy as np

# component order d111, d112, d113, d122, d123, d222, d223 (1-based labels)
FREE = ((0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 1), (0, 1, 2), (1, 1, 1), (1, 1, 2))

DEGREES = (2, 4, 6, 10)


def _entry_index() -> np.ndarray:
    """For each of the 27 entries, its position among the 10 distinct values:
    the seven free components, then T_133, T_233 and T_333."""
    order = FREE + ((0, 2, 2), (1, 2, 2), (2, 2, 2))
    pos = {slot: n for n, slot in enumerate(order)}
    return np.array([pos[tuple(sorted((i, j, k)))] for i in range(3) for j in range(3) for k in range(3)])


_ENTRY = _entry_index()


def full(c7) -> np.ndarray:
    """27-entry array of the tensor with free components c7, or a stack of
    them for c7 of shape (..., 7).

    An entry depends only on the multiset of its indices.  The seven free
    multisets take their component; the three left over follow from the
    vanishing traces T_iik = 0: T_133 = -T_111 - T_122, T_233 = -T_112 - T_222
    and T_333 = -T_113 - T_223.
    """
    c = np.asarray(c7, dtype=float)
    ten = np.concatenate(
        [c, -c[..., [0]] - c[..., [3]], -c[..., [1]] - c[..., [5]], -c[..., [2]] - c[..., [6]]], axis=-1
    )
    return ten[..., _ENTRY].reshape(c.shape[:-1] + (3, 3, 3))


def seven(arr) -> np.ndarray:
    """The seven free components read off a full array (no validation)."""
    arr = np.asarray(arr, dtype=float)
    return np.array([arr[s] for s in FREE])


def act(g, arr) -> np.ndarray:
    """(g.T)_jkl = g_ja g_kb g_lc T_abc."""
    g = np.asarray(g, dtype=float)
    return np.einsum("ja,kb,lc,abc->jkl", g, g, g, np.asarray(arr, dtype=float))


def frobenius(arr):
    """Frobenius norm of a full array, or of each in a stack."""
    arr = np.asarray(arr, dtype=float)
    return np.sqrt(np.sum(arr * arr, axis=(-3, -2, -1)))


def invariants(arr) -> np.ndarray:
    """(I2, I4, I6, I10) of one full array or of a stack (..., 3, 3, 3)."""
    arr = np.asarray(arr, dtype=float)
    m = np.einsum("...ijk,...ijl->...kl", arr, arr)
    v = np.einsum("...kl,...klp->...p", m, arr)
    i2 = np.einsum("...ijk,...ijk->...", arr, arr)
    i4 = np.einsum("...kl,...kl->...", m, m)
    i6 = np.einsum("...p,...p->...", v, v)
    i10 = np.einsum("...ijk,...i,...j,...k->...", arr, v, v, v)
    return np.stack([i2, i4, i6, i10], axis=-1)


def canonical_seven(c4) -> np.ndarray:
    """Free components of the canonical tensor with params (d111, d122, d123, d223)."""
    d111, d122, d123, d223 = np.asarray(c4, dtype=float).reshape(4)
    return np.array([d111, 0.0, 0.0, d122, d123, 0.0, d223])


def haar(rng: np.random.Generator, proper: bool) -> np.ndarray:
    """Haar-random element of SO(3), or of its det -1 coset when not proper.

    QR of a Gaussian matrix with the signs of R's diagonal moved into Q
    gives a Haar-random element of O(3); a column flip picks the coset.
    """
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if (np.linalg.det(q) > 0) != proper:
        q[:, 0] = -q[:, 0]
    return q


def sphere_sample(n: int = 4096, seed: int = 20170101) -> np.ndarray:
    """Fixed seeded sample of unit vectors, with its antipodes."""
    x = np.random.default_rng(seed).normal(size=(n // 2, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return np.vstack([x, -x])


SPHERE = sphere_sample()


def sampled_max(arr) -> float:
    """Largest value of the cubic form over SPHERE; never above the true maximum."""
    vals = np.einsum("ijk,si,sj,sk->s", np.asarray(arr, dtype=float), SPHERE, SPHERE, SPHERE)
    return float(vals.max())


def invariant_gap(got, want, norm):
    """Worst |got_k - want_k| / norm**k over the four degrees, per row.

    Scale-free, and meaningful where the true value is 0 (the gap pair's
    I10, the I6 = I10 = 0 reference tensors), which a relative error is not.
    A zero norm compares absolutely.
    """
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    norm = np.asarray(norm, dtype=float)[..., None]
    scale = np.where(norm > 0.0, norm, 1.0) ** np.array(DEGREES)
    return np.max(np.abs(got - want) / scale, axis=-1)


def fd_jacobian_det(c4, rel_step: float = 1e-4) -> tuple[float, float]:
    """Determinant of the central-difference Jacobian of the reference
    invariants in the four canonical parameters, and the product of its
    row norms (Hadamard's bound on |det|), for scale-free comparison.
    """
    c4 = np.asarray(c4, dtype=float).reshape(4)
    jac = np.empty((4, 4))
    for i in range(4):
        h = rel_step * max(1.0, abs(c4[i]))
        hi, lo = c4.copy(), c4.copy()
        hi[i] += h
        lo[i] -= h
        jac[:, i] = (invariants(full(canonical_seven(hi))) - invariants(full(canonical_seven(lo)))) / (2 * h)
    return float(np.linalg.det(jac)), float(np.prod(np.linalg.norm(jac, axis=1)))


# -- closed forms from the paper ---------------------------------------------

SIN_3T0 = 21.0 - math.sqrt(420.0)
T0 = math.asin(SIN_3T0) / 3.0  # the root of -43 + cos 6t + 84 sin 3t in (0, pi/6)
I6_GAP_LOW = -400.0 + 24.0 * math.sqrt(420.0)


def _c7(**kw) -> np.ndarray:
    names = ("d111", "d112", "d113", "d122", "d123", "d222", "d223")
    return np.array([float(kw.get(n, 0.0)) for n in names])


# (label, components, closed-form (I2, I4, I6, I10))
REFERENCE_CASES = (
    ("d111=3^(1/4)", _c7(d111=3**0.25), (4 * math.sqrt(3.0), 24.0, 0.0, 0.0)),
    ("d112=2^(1/4)", _c7(d112=2**0.25), (6 * math.sqrt(2.0), 24.0, 0.0, 0.0)),
    ("d111=sqrt(3)", _c7(d111=math.sqrt(3.0)), (12.0, 72.0, 0.0, 0.0)),
    ("d112=sqrt(2)", _c7(d112=math.sqrt(2.0)), (12.0, 48.0, 0.0, 0.0)),
    ("d111=d112=1", _c7(d111=1.0, d112=1.0), (10.0, 44.0, 16.0, 64.0)),
    ("d111=d123=1", _c7(d111=1.0, d123=1.0), (10.0, 44.0, 16.0, -64.0)),
)

GAP_LOW = _c7(d111=1.0, d122=-0.5 + 0.5 * math.sin(T0), d123=0.5 * math.cos(T0), d223=-2.0)
GAP_HIGH = _c7(d111=1.0, d112=1.0, d113=1.0, d123=1.0)
GAP_EXPECTED = (
    (20.0, 176.0, I6_GAP_LOW, 0.0),
    (20.0, 176.0, 128.0, 0.0),
)

# tensors whose cubic form has tied maximizers: the six reference cases,
# the gap pair and d123 = 1
TIED = tuple(c for _, c, _ in REFERENCE_CASES) + (GAP_LOW, GAP_HIGH, _c7(d123=1.0))
