"""Exact ball masses of a triangle soup by disk–triangle clipping.

The core routine computes area(T ∩ D) for a triangle T and a disk D exactly,
via Green's theorem: walking the triangle boundary counter-clockwise, each
edge piece inside the disk contributes a chord term ½·cross(w0, w1) and each
piece outside contributes the circular-arc term ½ρ²·angle(w0→w1). Summing the
signed angle over all outside pieces automatically picks up the winding of the
triangle around the disk center, so the same steps handle every configuration
(disk inside triangle, triangle inside disk, partial overlap, disjoint).

``ball_masses`` makes one pass per call over faces and radii. A face wholly
inside a ball contributes its area; the faces the sphere cuts are clipped,
for every radius in one batch. Every per-face term is rounded exactly as a
scalar evaluation of the same formulas would round it, and each mass is the
correctly rounded exact sum of its terms (what ``math.fsum`` returns), so
the masses do not depend on face order. These rules keep the bits:

- corners are gathered with ``np.take`` from the vertices shifted once by the
  center, which rounds each row like the shift of a gathered corner;
- cross products are written out (``_cross``), the products and differences
  ``np.cross`` forms;
- squared norms (``_sq``) are summed in one fixed order, (x² + z²) + y²;
- dot products of 3-vectors use a batched ``@`` (``_dot``: one
  ``(1, 3) @ (3, 1)`` product per face), which rounds like a 1-D ``a @ b``;
  ``einsum`` does not;
- arc angles use ``math.atan2`` (libm), computed only for the arc pieces that
  contribute; ``np.arctan2`` may take a SIMD path that differs in the last
  bit;
- sums are exact (``fsum``): mantissas are binned by exponent in integer
  halves, combined in a Python int and rounded once; non-finite input, a
  zero total and sums near overflow go to ``math.fsum``. A face's whole mass
  is added to the shell of the smallest radius whose ball holds the face,
  and each mass takes the shells of the radii up to its own.
"""
from __future__ import annotations

import math

import numpy as np

#: Name of the clipping kernel, recorded in benchmark provenance.
BACKEND = "fallback"

_DISC_EPS = 1e-12


def _disk_tri_areas(ax, ay, bx, by, cx, cy, rho) -> np.ndarray:
    """Areas of the CCW triangles (a, b, c) intersected with the disks |p| <= rho, rho > 0.

    Per triangle the terms are added in the scalar order: for each edge, its
    entry arc, chord and exit arc, or its whole outside arc.
    """
    rho2 = rho * rho
    total = np.zeros(len(rho))
    pts = ((ax, ay), (bx, by), (cx, cy))
    with np.errstate(invalid="ignore", divide="ignore"):
        for k in range(3):
            x0, y0 = pts[k]
            x1, y1 = pts[(k + 1) % 3]
            dx, dy = x1 - x0, y1 - y0
            dd = dx * dx + dy * dy
            live = ~(dd < 1e-300)
            p0d = x0 * dx + y0 * dy
            p00 = x0 * x0 + y0 * y0
            disc = p0d * p0d - dd * (p00 - rho2)
            cut = disc > _DISC_EPS * dd * rho2
            sq = np.sqrt(disc)
            lo = (-p0d - sq) / dd
            hi = (-p0d + sq) / dd
            lo = np.where(cut, np.where(lo > 0.0, lo, 0.0), 1.0)
            hi = np.where(cut, np.where(hi < 1.0, hi, 1.0), 0.0)
            chord = live & (lo < hi)
            w0x, w0y = x0 + lo * dx, y0 + lo * dy
            w1x, w1y = x0 + hi * dx, y0 + hi * dy
            total += _arc_terms(x0, y0, w0x, w0y, rho2, chord & (lo > 0.0))
            total += np.where(chord, 0.5 * (w0x * w1y - w0y * w1x), 0.0)
            total += _arc_terms(w1x, w1y, x1, y1, rho2, chord & (hi < 1.0))
            total += _arc_terms(x0, y0, x1, y1, rho2, live & ~chord)
    return total


def _arc_terms(w0x, w0y, w1x, w1y, rho2, mask) -> np.ndarray:
    """Green's-theorem terms of the edge pieces outside the circle; 0 off mask."""
    out = np.zeros(len(mask))
    idx = np.flatnonzero(mask)
    if len(idx):
        u0x, u0y, u1x, u1y = w0x[idx], w0y[idx], w1x[idx], w1y[idx]
        ang = map(math.atan2, (u0x * u1y - u0y * u1x).tolist(), (u0x * u1x + u0y * u1y).tolist())
        out[idx] = 0.5 * rho2[idx] * np.fromiter(ang, dtype=np.float64, count=len(idx))
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (k, 3) arrays, rounded like a 1-D ``a @ b``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _cross(e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Row-wise cross products of (k, 3) arrays, with the bits of ``np.cross``."""
    out = np.empty((len(e), 3))
    e0, e1, e2 = e.T
    f0, f1, f2 = f.T
    out[:, 0] = e1 * f2 - e2 * f1
    out[:, 1] = e2 * f0 - e0 * f2
    out[:, 2] = e0 * f1 - e1 * f0
    return out


def _clipped_areas(va, vb, vc, n, two_area, r) -> tuple[np.ndarray, np.ndarray]:
    """area(face ∩ B(0, r)) for faces the sphere |x| = r may cut, one r per row.

    Returns (rows, areas) for the rows whose face plane meets the ball.
    """
    nf = n / two_area[:, None]
    d = _dot(va, nf)  # signed distance from the center to each face plane
    rho2 = r * r - d * d
    rows = np.flatnonzero(~(rho2 <= 0.0))
    va, vb, vc, nf, d = va[rows], vb[rows], vc[rows], nf[rows], d[rows]
    rho = np.sqrt(rho2[rows])
    e1 = vb - va
    e1 = e1 / np.sqrt(_sq(e1))[:, None]
    e2 = _cross(nf, e1)
    # q is the foot d·nf of the center mirrored through the center. The
    # in-plane coordinates are those about the foot all the same, because
    # e1, e2 ⊥ nf; using the foot itself would move last bits
    q = -d[:, None] * nf
    a, b, c = va - q, vb - q, vc - q
    area = _disk_tri_areas(
        _dot(a, e1), _dot(a, e2), _dot(b, e1), _dot(b, e2), _dot(c, e1), _dot(c, e2), rho
    )
    return rows, area


def ball_masses(
    vertices: np.ndarray,
    faces: np.ndarray,
    mult: np.ndarray,
    x0: np.ndarray,
    radii: np.ndarray,
) -> np.ndarray:
    """Mass of the varifold restricted to balls B(x0, r) for each r in radii.

    Each face contributes multiplicity × area(face ∩ ball) with the clipped
    area computed exactly, and each mass is the exactly rounded sum of these
    terms, so it does not depend on face order. Radii r <= 0 (and NaN) give
    mass 0.
    """
    vertices = np.asarray(vertices, dtype=np.float64)
    faces = np.asarray(faces, dtype=np.int64)
    mult = np.asarray(mult, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)

    d = vertices - x0
    corners = np.ascontiguousarray(faces.T)
    abc = np.take(d, corners, axis=0)  # (3, F, 3): each face's corners, shifted
    va, vb, vc = abc
    d_max = np.sqrt(_sq(d).take(corners).max(axis=0))
    # conservative lower bound on the distance from x0 to the face
    cen = (va + vb + vc) / 3.0
    spread = np.sqrt(_sq(abc - cen).max(axis=0))
    d_min = np.maximum(0.0, np.sqrt(_sq(cen)) - spread)

    n = _cross(vb - va, vc - va)
    two_area = np.sqrt(_sq(n))
    areas = 0.5 * two_area
    whole_mass = mult * areas
    live = ~(two_area < 1e-300)

    # the distinct positive radii, ascending; the others keep mass 0
    pos = np.flatnonzero(radii > 0.0)
    rs, slot = np.unique(radii[pos], return_inverse=True)
    nr = len(rs)
    # a face is near ball k (d_min < r) from k_near on and inside it
    # (d_max <= r) from k_in on: cut by the sphere for k_near <= k < k_in,
    # whole from its shell max(k_near, k_in) on
    k_near = np.where(live, np.searchsorted(rs, d_min, side="right"), nr)
    k_in = np.searchsorted(rs, d_max, side="left")
    shell = np.maximum(k_near, k_in)
    count = np.maximum(k_in - k_near, 0)
    cut = np.repeat(np.arange(len(faces)), count)
    k = np.arange(len(cut)) + np.repeat(k_near - (np.cumsum(count) - count), count)
    rows, clip = _clipped_areas(
        va.take(cut, axis=0), vb.take(cut, axis=0), vc.take(cut, axis=0),
        n.take(cut, axis=0), two_area[cut], rs[k],
    )
    cut, k = cut[rows], k[rows]
    clip = np.minimum(clip, areas[cut])  # round-off can overshoot the face area
    hit = clip > 0.0
    cut, k = cut[hit], k[hit]
    parts = mult[cut] * clip[hit]

    whole = np.flatnonzero(shell < nr)
    exact = _exact_sums(
        np.concatenate([whole_mass[whole], parts]), np.concatenate([shell[whole], nr + k]), 2 * nr
    )
    masses = np.zeros(nr)
    below = 0
    for j in range(nr):
        mass = None
        if exact is not None:
            t, e0 = exact
            below += t[j]
            mass = _round(below + t[nr + j], e0)
        if mass is None:  # math.fsum over the terms: whole faces, then cut ones, each in face order
            mass = math.fsum(whole_mass[shell <= j].tolist() + parts[k == j].tolist())
        masses[j] = mass
    out = np.zeros(len(radii))
    out[pos] = masses[slot]
    return out


def fsum(x) -> float:
    """``math.fsum`` of a float array, bit for bit, from exact binned sums."""
    x = np.asarray(x, dtype=np.float64).ravel()
    exact = _exact_sums(x, 0, 1)
    total = None if exact is None else _round(exact[0][0], exact[1])
    return math.fsum(x.tolist()) if total is None else total


def _exact_sums(x: np.ndarray, group: np.ndarray | int, n: int) -> tuple[list[int], int] | None:
    """Exact sums of x by group (each in 0..n-1), as ints t_g with sum = t_g · 2**(e0 − 53).

    Returns (t, e0), or None when x holds a non-finite value or is large
    enough that ``math.fsum`` might overflow on the way.
    """
    if not len(x):
        return [0] * n, 0
    if len(x) > 2**26 or not np.abs(x).max() < 2.0 ** (1021 - len(x).bit_length()):
        return None
    m, e = np.frexp(x)
    e0 = int(e.min())
    width = int(e.max()) - e0 + 1
    key = group * width + (e - e0)
    # x = mant · 2**(e − 53) with |mant| < 2**53: halves of 27 and 26 bits
    # have bin sums below 2**53, exact in float64
    mant = (m * 2.0**53).astype(np.int64)
    hi = np.bincount(key, weights=mant >> 26, minlength=n * width)
    lo = np.bincount(key, weights=mant & (2**26 - 1), minlength=n * width)
    nz = np.flatnonzero((hi != 0.0) | (lo != 0.0))
    sums = [0] * n
    for i, h, l in zip(nz.tolist(), hi[nz].tolist(), lo[nz].tolist()):
        g, b = divmod(i, width)
        sums[g] += ((int(h) << 26) + int(l)) << b
    return sums, e0


def _round(t: int, e0: int) -> float | None:
    """t · 2**(e0 − 53) rounded to nearest, ties to even.

    ``float(t)`` rounds once and ``ldexp`` is exact: a sum of floats is a
    multiple of 2**-1074, so one below 2**-1022 fits a subnormal. None for
    zero, whose sign ``math.fsum`` decides, and when ``float(t)`` overflows.
    """
    if not t:
        return None
    try:
        return math.ldexp(float(t), e0 - 53)
    except OverflowError:
        return None


def _sq(w: np.ndarray) -> np.ndarray:
    """Squared norms of the 3-vectors w[..., :], summed as (x*x + z*z) + y*y.

    ``einsum`` rounds in the order of the host's SIMD lanes; this order is
    fixed, and it is the one ``einsum`` took on an AVX-512 host.
    """
    x, y, z = w.reshape(-1, 3).T
    return ((x * x + z * z) + y * y).reshape(w.shape[:-1])
