"""Exact ball masses of a triangle soup by disk–triangle clipping.

The core routine computes area(T ∩ D) for a triangle T and a disk D exactly,
via Green's theorem: walking the triangle boundary counter-clockwise, each
edge piece inside the disk contributes a chord term ½·cross(w0, w1) and each
piece outside contributes the circular-arc term ½ρ²·angle(w0→w1). Summing the
signed angle over all outside pieces automatically picks up the winding of the
triangle around the disk center, so the same steps handle every configuration
(disk inside triangle, triangle inside disk, partial overlap, disjoint).

The kernel is vectorized over faces, one radius at a time. Faces wholly inside
the ball contribute their area; only the faces the sphere cuts are clipped.
Every per-face term is rounded exactly as a scalar evaluation of the same
formulas would round it, and the terms are summed with ``math.fsum``, which is
exactly rounded, so the masses do not depend on face order. Two rules keep
the per-face terms bit-exact:

- dot products of 3-vectors use a batched ``@`` (one ``(1, 3) @ (3, 1)``
  product per face), which rounds like a 1-D ``a @ b``; ``einsum`` does not;
- arc angles use ``math.atan2`` (libm), computed only for the arc pieces that
  contribute; ``np.arctan2`` may take a SIMD path that differs in the last
  bit.
"""
from __future__ import annotations

import math

import numpy as np

#: Name of the clipping kernel, recorded in benchmark provenance.
BACKEND = "fallback"

_DISC_EPS = 1e-12


def disk_tri_area_2d(
    ax: float, ay: float, bx: float, by: float, cx: float, cy: float, rho: float
) -> float:
    """Area of the intersection of triangle (a, b, c) with the disk |p| <= rho.

    The triangle must be counter-clockwise; the disk is centered at the origin.
    """
    if rho <= 0.0:
        return 0.0
    cols = (np.array([c], dtype=np.float64) for c in (ax, ay, bx, by, cx, cy, rho))
    return float(_disk_tri_areas(*cols)[0])


def _disk_tri_areas(ax, ay, bx, by, cx, cy, rho) -> np.ndarray:
    """``disk_tri_area_2d`` over arrays of CCW triangles and radii rho > 0.

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


def _clipped_areas(va, vb, vc, n, two_area, r) -> tuple[np.ndarray, np.ndarray]:
    """area(face ∩ B(0, r)) for faces the sphere |x| = r may cut.

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
    e2 = np.cross(nf, e1)
    q = -d[:, None] * nf  # foot of the center on each face plane
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
    area computed exactly. Totals are accumulated with math.fsum so results do
    not depend on face order. Radii r <= 0 give mass 0.
    """
    vertices = np.asarray(vertices, dtype=np.float64)
    faces = np.asarray(faces, dtype=np.int64)
    mult = np.asarray(mult, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)

    va = vertices[faces[:, 0]] - x0
    vb = vertices[faces[:, 1]] - x0
    vc = vertices[faces[:, 2]] - x0
    d_max = np.sqrt(np.maximum(np.maximum(_sq(va), _sq(vb)), _sq(vc)))
    # conservative lower bound on the distance from x0 to the face
    cen = (va + vb + vc) / 3.0
    spread = np.sqrt(np.maximum(np.maximum(_sq(va - cen), _sq(vb - cen)), _sq(vc - cen)))
    d_min = np.maximum(0.0, np.sqrt(_sq(cen)) - spread)

    n = np.cross(vb - va, vc - va)
    two_area = np.sqrt(_sq(n))
    areas = 0.5 * two_area
    whole_mass = mult * areas
    live = ~(two_area < 1e-300)

    out = np.zeros(len(radii))
    for ir, r in enumerate(radii):
        if r <= 0.0:
            continue
        near = live & (d_min < r)
        inside = d_max <= r
        whole = np.flatnonzero(near & inside)
        cut = np.flatnonzero(near & ~inside)
        rows, clip = _clipped_areas(va[cut], vb[cut], vc[cut], n[cut], two_area[cut], r)
        cut = cut[rows]
        clip = np.minimum(clip, areas[cut])  # round-off can overshoot the face area
        hit = clip > 0.0
        parts = whole_mass[whole].tolist() + (mult[cut[hit]] * clip[hit]).tolist()
        out[ir] = math.fsum(parts)
    return out


def _sq(w: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", w, w)
