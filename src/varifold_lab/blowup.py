"""Ball masses, density extrapolation, monotonicity checks, spherical links.

Ball masses are computed by exact disk–triangle clipping in each face plane
(see the _kernels module), so mass ratios carry no sampling noise and the
density at a point can be extrapolated from a geometric radius ladder.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, _values
from .curvature import point_surface_distance, willmore_energy
from .mesh import DiscreteVarifold, MeshError, _edge_keys, _require
from .reports import Record

log = logging.getLogger(__name__)

#: Densities attainable below the 6*pi energy threshold in codimension one:
#: 1 (smooth point), 3/2 (triple-line point), 3*acos(-1/3)/pi (tetrahedral point).
ADMISSIBLE_DENSITIES: tuple[tuple[str, float], ...] = (
    ("1", 1.0),
    ("3/2", 1.5),
    ("3*acos(-1/3)/pi", 3.0 * math.acos(-1.0 / 3.0) / math.pi),
)


def ball_mass_ladder(v: DiscreteVarifold, x0, radii) -> np.ndarray:
    """Ball masses for several radii at once (one pass over the nearby faces).

    ``x0`` must be 3 numbers and ``radii`` a 1-D array of them, finite and positive.
    """
    radii = np.asarray(_values._numeric(radii, "iuf", "ball_mass_ladder: radii", ValueError), dtype=np.float64)
    # the value check comes first, so its message names non-finite radii whatever their shape
    if not ((radii > 0.0) & (radii < np.inf)).all():
        raise ValueError(f"ball_mass_ladder: radii must be finite and positive, not {radii.tolist()}")
    x0 = _kernels._point(x0, "ball_mass_ladder: x0")
    if radii.ndim != 1:
        raise ValueError(f"ball_mass_ladder: radii must be 1-D, got shape {radii.shape}")
    _require(v, faces=True)
    return _ball_masses(v, x0, radii)


def _ball_masses(v: DiscreteVarifold, x0: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """``_kernels.ball_masses`` over the faces the face grid finds near the largest ball.

    Faces that cannot meet a ball add nothing to its mass, and the kernel's
    sums are exact, so the masses are those of a pass over every face.
    """
    idx = v.face_grid.query(x0, float(radii.max()) if len(radii) else 0.0)
    faces, mult = v.faces, v.multiplicity
    if len(idx) < v.num_faces:  # large balls, which need every face, skip the copies
        faces, mult = np.take(faces, idx, axis=0), mult[idx]  # take: several times faster than faces[idx]
    return _kernels.ball_masses(v.vertices, faces, mult.astype(np.float64), x0, radii)


def local_edge_scale(v: DiscreteVarifold, x0) -> float:
    """Mean edge length over the 32 faces whose centroids are nearest to x0.

    This ranks every face: the order in which ``np.argpartition`` returns the
    32 nearest fixes the rounding of the mean, and a ranking of fewer faces
    does not reproduce it. The centroids are the face grid's, which have the
    bits of ``v.vertices[v.faces].mean(axis=1)``.
    """
    _require(v, faces=True)
    x0 = _kernels._point(x0, "local_edge_scale: x0")
    d2 = _kernels._sq(v.face_grid.centroids, x0)
    k = min(32, len(d2))
    idx = np.argpartition(d2, k - 1)[:k] if k < len(d2) else np.arange(len(d2))
    p = np.take(v.vertices, np.take(v.faces, idx, axis=0).T, axis=0)
    e = np.concatenate([p[1] - p[0], p[2] - p[1], p[0] - p[2]])
    return float(_kernels._norm(e).mean())


@dataclass(frozen=True)
class DensityReport(Record):
    x0: np.ndarray
    radii: np.ndarray
    ratios: np.ndarray
    theta: float
    error_bar: float
    model: str  # "quadratic" (theta + c r^2) or "linear" (theta + c r)
    classification: str
    classification_residual: float
    warnings: tuple[str, ...] = field(default_factory=tuple)


def _fit(radii: np.ndarray, ratios: np.ndarray, power: int) -> tuple[float, float]:
    """Least-squares fit ratios ≈ theta + c*r^power; returns (theta, SSR)."""
    A = np.stack([np.ones_like(radii), radii**power], axis=1)
    coef, *_ = np.linalg.lstsq(A, ratios, rcond=None)
    ssr = float(((A @ coef - ratios) ** 2).sum())
    return float(coef[0]), ssr


def density(v: DiscreteVarifold, x0, r_max: float | None = None) -> DensityReport:
    """Extrapolated 2-density of v at x0 from a geometric radius ladder.

    Mass ratios μ(B_r)/(π r²) are computed on r_i = r_max · 2^-i, i = 0..5,
    and fitted against both theta + c·r² (smooth sheets) and theta + c·r
    (conical junction points); the better-fitting model supplies theta. The
    error bar is the half-spread of the pairwise Richardson extrapolants of
    the winning model. x0 must lie on the support (within half a local edge
    length); ``r_max``, if given, is read by ``_values._length``.
    """
    x0 = _kernels._point(x0, "density: x0")
    r_max = r_max if r_max is None else _values._length(r_max, "density: r_max")
    h = local_edge_scale(v, x0)
    warnings: list[str] = []
    if not point_surface_distance(v, x0) <= 0.5 * h:
        raise MeshError(f"point {x0.tolist()} is not on the support of the varifold")
    if r_max is None:
        r_max = 10.0 * h
    elif r_max < 2.0 * h:
        msg = f"r_max={r_max:.3g} is below mesh resolution (edge scale {h:.3g}); the ladder is under-resolved"
        log.warning(msg)
        warnings.append(msg)
    radii = r_max * 0.5 ** np.arange(6)
    masses = ball_mass_ladder(v, x0, radii)
    ratios = masses / (math.pi * radii**2)

    theta_q, ssr_q = _fit(radii, ratios, 2)
    theta_l, ssr_l = _fit(radii, ratios, 1)
    if ssr_q <= ssr_l:
        theta, model, power = theta_q, "quadratic", 2
    else:
        theta, model, power = theta_l, "linear", 1

    qp = 0.5**power
    rich = (ratios[1:] - qp * ratios[:-1]) / (1.0 - qp)
    error_bar = 0.5 * float(rich.max() - rich.min())

    label, resid = classify_density(theta)
    return DensityReport(
        x0=x0,
        radii=radii,
        ratios=ratios,
        theta=theta,
        error_bar=error_bar,
        model=model,
        classification=label,
        classification_residual=resid,
        warnings=tuple(warnings),
    )


def classify_density(theta: float) -> tuple[str, float]:
    """Nearest admissible density value, or ">=2 / unclassified" from 1.9 on.

    The admissible set below 2 is {1, 3/2, 3*acos(-1/3)/pi}. Returns
    (label, |theta - value|); the residual is NaN when unclassified.
    """
    if not theta >= 0.5:
        raise ValueError(f"theta={theta} is not a varifold density (need theta >= 0.5)")
    if theta >= 1.9:
        return ">=2 / unclassified", float("nan")
    label, value = min(ADMISSIBLE_DENSITIES, key=lambda kv: abs(theta - kv[1]))
    return label, abs(theta - value)


# ---------------------------------------------------------------------------
# monotonicity and Li–Yau


@dataclass(frozen=True)
class MonotonicityReport(Record):
    x0: np.ndarray
    r: float
    s: float
    lhs: float
    rhs: float
    willmore_term: float
    slack: float
    passed: bool


def monotonicity_check(
    v: DiscreteVarifold, x0, r: float, s: float, eps: float = 0.02
) -> MonotonicityReport:
    """Check μ(B_r)/(πr²) ≤ μ(B_s)/(πs²) + (1/16π) ∫_{B_s} |H|² dμ for r < s.

    The curvature integral sums the Willmore integrand ``v.curvature.willmore``
    over the vertices inside B_s. The check passes when slack = RHS - LHS ≥
    -eps (discretization allowance). r and s are read by ``_values._length``,
    eps by ``_values._nonnegative``.
    """
    r, s = _values._length(r, "monotonicity_check: r"), _values._length(s, "monotonicity_check: s")
    if not r < s:
        raise ValueError(f"need 0 < r < s, got r={r}, s={s}")
    eps = _values._nonnegative(eps, "monotonicity_check: eps")
    x0 = _kernels._point(x0, "monotonicity_check: x0")
    m_r, m_s = ball_mass_ladder(v, x0, [r, s])
    lhs = m_r / (math.pi * r * r)
    ratio_s = m_s / (math.pi * s * s)
    inside = _kernels._norm(v.vertices, x0) <= s
    w_term = _kernels.fsum(v.curvature.willmore[inside]) / (16.0 * math.pi)
    rhs = ratio_s + w_term
    slack = rhs - lhs
    return MonotonicityReport(
        x0=x0, r=r, s=s, lhs=float(lhs), rhs=float(rhs),
        willmore_term=float(w_term), slack=float(slack), passed=bool(slack >= -eps),
    )


@dataclass(frozen=True)
class LiYauReport(Record):
    thetas: np.ndarray
    theta_max: float
    willmore_over_4pi: float
    gap: float
    passed: bool


def li_yau_check(v: DiscreteVarifold, sample_points, eps: float = 0.05, r_max=None) -> LiYauReport:
    """Li–Yau bound: max over samples of Θ(x) must not exceed W/(4π) + eps.

    Requires a closed varifold (no boundary edges) and at least one sample,
    since a maximum over none is no evidence. The gap reported is
    theta_max - W/(4π); sampling the maximizing points of the density makes
    the gap |·| ≈ 0 exactly when the bound is saturated. ``r_max``, if given,
    holds one ladder cap per sample (None for the default), passed to ``density``.
    """
    points = [_kernels._point(p, f"li_yau_check: sample_points[{i}]") for i, p in enumerate(sample_points)]
    if not points:
        raise ValueError("li_yau_check: sample_points is empty")
    eps = _values._nonnegative(eps, "li_yau_check: eps")
    _require(v, closed=True)
    caps = [None] * len(points) if r_max is None else r_max
    thetas = np.array([density(v, p, r_max=r).theta for p, r in zip(points, caps, strict=True)])
    w = willmore_energy(v)
    bound = w / (4.0 * math.pi)
    theta_max = float(thetas.max())
    gap = theta_max - bound
    return LiYauReport(
        thetas=thetas,
        theta_max=theta_max,
        willmore_over_4pi=float(bound),
        gap=float(gap),
        passed=bool(gap <= eps),
    )


# ---------------------------------------------------------------------------
# spherical link


@dataclass(frozen=True)
class SphericalLink(Record):
    """Blow-up link of the varifold at a point: ∂B_r(x0) ∩ spt, rescaled to S²."""

    polylines: tuple[np.ndarray, ...]
    total_length: float
    junction_count: int
    density_estimate: float


def _circle_arcs(P: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Angular intervals of the circles |p| = rho inside the CCW triangles P.

    P is (m, 3, 2), one triangle per circle. Returns (row, theta0, dtheta,
    ends) per arc, ordered by row and then by start angle: the circle's
    crossings of the triangle's edges are sorted, and each span between
    consecutive crossings whose midpoint lies inside the triangle is an arc;
    a circle that crosses no edge is one whole arc or none. ``ends`` (n, 2)
    names the crossings where an open arc starts and ends: 2k + j is the j-th
    root, in the order of t, on edge k from corner k to corner k + 1.
    """
    m = len(rho)
    ang = np.full((m, 6), np.inf)
    with np.errstate(invalid="ignore", divide="ignore"):
        for k in range(3):
            p0 = P[:, k]
            d = P[:, (k + 1) % 3] - p0
            dd = _kernels._dot(d, d)
            p0d = _kernels._dot(p0, d)
            disc = p0d * p0d - dd * (_kernels._dot(p0, p0) - rho * rho)
            cut = ~(dd < 1e-300) & ~(disc <= 1e-12 * dd * rho * rho)
            sq = np.sqrt(disc)
            for j, t in enumerate(((-p0d - sq) / dd, (-p0d + sq) / dd)):
                hit = np.flatnonzero(cut & (0.0 <= t) & (t <= 1.0))
                qx = p0[hit, 0] + t[hit] * d[hit, 0]
                qy = p0[hit, 1] + t[hit] * d[hit, 1]
                ang[hit, 2 * k + j] = _kernels._atan2(qy, qx)
    order = np.argsort(ang, axis=1, kind="stable")
    ang = np.take_along_axis(ang, order, axis=1)
    count = np.isfinite(ang).sum(axis=1)
    # a circle that crosses no edge is one arc from 0 to 2π, probed at angle 0
    whole = count == 0
    ang[whole, 0] = 0.0
    count[whole] = 1
    slot = np.arange(6)
    nxt = np.where(slot == (count - 1)[:, None], ang[:, :1] + 2.0 * math.pi, np.roll(ang, -1, axis=1))
    row, col = np.nonzero(slot < count[:, None])
    a0, a1 = ang[row, col], nxt[row, col]
    ends = np.stack([order[row, col], order[row, (col + 1) % count[row]]], axis=1)
    mid = np.where(whole[row], 0.0, 0.5 * (a0 + a1))
    qx = rho[row] * np.fromiter(map(math.cos, mid.tolist()), dtype=np.float64, count=len(mid))
    qy = rho[row] * np.fromiter(map(math.sin, mid.tolist()), dtype=np.float64, count=len(mid))
    inside = np.ones(len(row), dtype=bool)
    for k in range(3):
        a, b = P[row, k], P[row, (k + 1) % 3]
        inside &= ~((b[:, 0] - a[:, 0]) * (qy - a[:, 1]) - (b[:, 1] - a[:, 1]) * (qx - a[:, 0]) < -1e-12)
    return row[inside], a0[inside], a1[inside] - a0[inside], ends[inside]


def spherical_link(v: DiscreteVarifold, x0, r: float) -> SphericalLink:
    """Intersection of spt v with the sphere ∂B_r(x0), rescaled to the unit sphere.

    The faces are those whose bounding sphere the face grid finds meeting the
    sphere, less those with every vertex inside the ball; per face the
    circle–triangle intersection is then computed exactly in the face plane,
    as arrays over the faces (dot products rounded like a 1-D ``a @ b``,
    angles from ``math.atan2``). Lengths are summed from arc angles
    (multiplicity-weighted) with ``math.fsum``, then the arcs are sampled and
    chained into polylines. Arc ends meet at a node when they cross the same
    mesh edge at the same root, or lie within 1e-5·r of the same vertex
    (``_end_keys``); nodes where three or more ends meet are junctions; at
    four-end nodes (transversal crossings) the chaining continues straight
    through, onto the end that best continues the arc, and stops if that end
    is already chained. A sphere that misses the support gives the empty link.
    """
    x0 = _kernels._point(x0, "spherical_link: x0")
    r = _values._length(r, "spherical_link: r")
    fi = v.face_grid.query(x0, r, inner=r)
    faces = np.take(v.faces, fi, axis=0)
    va, vb, vc = np.take(v.vertices, faces.T, axis=0) - x0
    # the max of |x - x0| over a triangle sits at a vertex, so this test is exact
    dmax_v = np.maximum(np.maximum(_kernels._norm(va), _kernels._norm(vb)), _kernels._norm(vc))
    keep = dmax_v > r * (1 - 1e-12)
    fi, va, vb, vc = fi[keep], va[keep], vb[keep], vc[keep]
    n = _kernels._cross(vb - va, vc - va)
    nn = np.sqrt(_kernels._dot(n, n))
    with np.errstate(invalid="ignore", divide="ignore"):
        nhat = n / nn[:, None]
        d = _kernels._dot(va, nhat)  # signed distance from x0 to each face plane
    rho2 = r * r - d * d
    keep = ~(nn < 1e-300) & ~(rho2 <= 0.0)
    fi, va, vb, vc, nhat, d = fi[keep], va[keep], vb[keep], vc[keep], nhat[keep], d[keep]
    rho = np.sqrt(rho2[keep])
    e1 = vb - va
    e1 = e1 / np.sqrt(_kernels._dot(e1, e1))[:, None]
    e2 = _kernels._cross(nhat, e1)
    foot = d[:, None] * nhat  # circle centers relative to x0
    P = np.stack([np.stack([_kernels._dot(p - foot, e1), _kernels._dot(p - foot, e2)], axis=1)
                  for p in (va, vb, vc)], axis=1)
    row, theta0, dtheta, ends = _circle_arcs(P, rho)
    mult = v.multiplicity[fi[row]].astype(np.float64)
    total_length = math.fsum((mult * rho[row] * dtheta / r).tolist())
    pts, off = _sample_arcs(rho[row], foot[row], e1[row], e2[row], theta0, dtheta, r)
    tips = pts[np.stack([off[:-1], off[1:] - 1], axis=1)]  # (n, 2, 3): each arc's end samples
    key = _end_keys(v, x0, r, v.faces[fi[row]], ends, tips)
    polylines, junction_count = _chain_arcs(pts, off, dtheta >= 2.0 * math.pi - 1e-9, key)
    return SphericalLink(
        polylines=tuple(polylines),
        total_length=total_length,
        junction_count=junction_count,
        density_estimate=total_length / (2.0 * math.pi),
    )


def _sample_arcs(rho, foot, e1, e2, theta0, dtheta, r) -> tuple[np.ndarray, np.ndarray]:
    """Unit-sphere samples of every arc, arc a's at ``pts[off[a]:off[a + 1]]``.

    Arc a gets n = max(2, ceil(dθ/0.1) + 1) points at the angles
    θ0 + k·(dθ/(n − 1)), the last at θ0 + dθ: the bits of
    ``θ0 + np.linspace(0, dθ, n)``.
    """
    n = np.maximum(2, np.ceil(dtheta / 0.1).astype(np.int64) + 1)
    off = np.concatenate([[0], np.cumsum(n)])
    arc = np.repeat(np.arange(len(n)), n)
    k = np.arange(off[-1]) - off[arc]
    t = theta0[arc] + np.where(k == n[arc] - 1, dtheta[arc], k * (dtheta / (n - 1))[arc])
    pts = foot[arc] + rho[arc, None] * (np.cos(t)[:, None] * e1[arc] + np.sin(t)[:, None] * e2[arc])
    u = pts / r
    u /= _kernels._norm(u)[:, None]
    return u, off


def _end_keys(v: DiscreteVarifold, x0, r, corners, ends, tips) -> np.ndarray:
    """Node key (n, 2) of each arc end, given its face's vertex ids ``corners``
    (n, 3), its crossings ``ends`` named as by ``_circle_arcs`` and its samples
    ``tips`` (n, 2, 3): (lo·V + hi)·2 + j at the j-th root from lo of edge
    (lo, hi), alike in every face on the edge, or (c·V + c)·2 within 1e-5·r
    of the edge's vertex c (that vertex's crossing)."""
    nv = v.num_vertices
    k = ends // 2
    a = np.take_along_axis(corners, k, axis=1)
    b = np.take_along_axis(corners, (k + 1) % 3, axis=1)
    key = np.take_along_axis(_edge_keys(corners, nv), k, axis=1) * 2 + (ends % 2 ^ (a > b))
    for c in (b, a):
        d = ((np.take(v.vertices, c, axis=0) - x0) / r - tips).reshape(-1, 3)
        key = np.where(np.sqrt(_kernels._dot(d, d)).reshape(c.shape) <= 1e-5, c * (nv + 1) * 2, key)
    return key


def _chain_arcs(pts: np.ndarray, off: np.ndarray, closed: np.ndarray,
                key: np.ndarray) -> tuple[list[np.ndarray], int]:
    """Join the open arcs' ends into nodes and walk maximal polylines.

    End 2a is the first sample of arc a and end 2a + 1 its last, and ends
    with equal ``key`` (n, 2) share a node. A walk that arrives at end e goes
    on at end ``nxt[e]``: the other end of a two-end node, or at a four-end
    node the end whose heading best continues the arrival (the first of
    equals); it stops where ``nxt`` is -1 (other nodes) or at an arc already
    walked.
    """
    tip = np.stack([off[:-1], off[1:] - 1], axis=1).ravel()  # each end's sample
    ends = np.flatnonzero(np.repeat(~closed, 2))
    _, seen, inv = np.unique(key.ravel()[ends], return_index=True, return_inverse=True)
    node = np.argsort(np.argsort(seen))[inv]  # numbered in the order of their first end
    degree = np.bincount(node)
    by_node = ends[np.argsort(node, kind="stable")]  # each node's ends, in end order
    first = np.cumsum(degree) - degree
    nxt = np.full(len(closed) * 2, -1)
    two = first[degree == 2]
    nxt[by_node[two]], nxt[by_node[two + 1]] = by_node[two + 1], by_node[two]
    e = by_node[first[degree == 4][:, None] + np.arange(4)]  # (m, 4)
    d = pts[tip[e] + 1 - 2 * (e % 2)] - pts[tip[e]]
    dn = np.sqrt(_kernels._dot(d.reshape(-1, 3), d.reshape(-1, 3))).reshape(e.shape)[..., None]
    h = np.divide(d, dn, out=d, where=dn > 0)  # outward headings; zero steps stay zero
    dots = _kernels._dot(np.repeat(-h, 4, axis=1).reshape(-1, 3), np.tile(h, (1, 4, 1)).reshape(-1, 3))
    dots = np.where(np.eye(4, dtype=bool), -np.inf, dots.reshape(-1, 4, 4))
    nxt[e] = np.take_along_axis(e, dots.argmax(axis=2), axis=1)

    off, nxt, used = off.tolist(), nxt.tolist(), closed.tolist()
    polylines = [pts[off[a]:off[a + 1]] for a in np.flatnonzero(closed).tolist()]

    def piece(e: int) -> np.ndarray:
        s = pts[off[e // 2]:off[e // 2 + 1]]
        return s if e % 2 == 0 else s[::-1]

    def walk(e: int) -> np.ndarray:
        pieces = [piece(e)]
        used[e // 2] = True
        while (e := nxt[e ^ 1]) >= 0 and not used[e // 2]:
            used[e // 2] = True
            pieces.append(piece(e)[1:])
        return np.vstack(pieces)

    # start walks at junction nodes and odd nodes first, then sweep leftovers
    for e in by_node[np.repeat(degree != 2, degree)].tolist() + list(range(0, len(nxt), 2)):
        if not used[e // 2]:
            polylines.append(walk(e))
    return polylines, int((degree >= 3).sum())
