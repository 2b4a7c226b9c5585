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
    # faces that cannot meet a ball add nothing to its mass, a face or grid cell that no sphere
    # cuts adds its whole mass (a cell's exact sum) to the balls that hold it, and the kernel's
    # sums are exact, so clipping only the other faces gives the masses of a pass over every face
    rs = np.sort(radii)  # repeated radii are harmless here; a plain np.unique imports numpy.ma
    grid = v.face_grid
    idx, faces, cells = grid.ball(x0, rs)
    held = None
    if len(cells[0]):
        sums = v.grid_masses
        if sums is None:  # no exact sums of the cells: clip every face one by one
            idx = np.concatenate([idx, faces[0], grid.faces(cells[0])])
        else:
            held = sums.held(faces, cells, rs)
    faces, mult = v.faces, v.multiplicity
    if len(idx) < v.num_faces:  # large balls, which need every face, skip the copies
        faces, mult = np.take(faces, idx, axis=0), mult[idx]  # take: several times faster than faces[idx]
    return _kernels.ball_masses(v.vertices, faces, mult.astype(np.float64), x0, radii, held)


def local_edge_scale(v: DiscreteVarifold, x0) -> float:
    """Mean edge length over the 32 faces whose centroids are nearest to x0.

    This ranks every face by its squared distance, so ties at the 32nd place
    are broken by ``np.argpartition``. The mean is the correctly rounded sum
    of the 96 lengths (``math.fsum``, the bits of ``_kernels.fsum`` and, on
    so few terms, faster) over 96, whatever order the faces come in and
    whatever the SIMD level. The centroids are the face grid's,
    which have the bits of ``v.vertices[v.faces].mean(axis=1)``.
    """
    _require(v, faces=True)
    x0 = _kernels._point(x0, "local_edge_scale: x0")
    d2 = _kernels._sq(v.face_grid.centroids, x0)
    k = min(32, len(d2))
    idx = np.argpartition(d2, k - 1)[:k] if k < len(d2) else np.arange(len(d2))
    p = np.take(v.vertices, np.take(v.faces, idx, axis=0).T, axis=0)
    e = np.concatenate([p[1] - p[0], p[2] - p[1], p[0] - p[2]])
    return math.fsum(_kernels._norm(e).tolist()) / len(e)


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


def spherical_link(v: DiscreteVarifold, x0, r: float) -> SphericalLink:
    """Intersection of spt v with the sphere ∂B_r(x0), rescaled to the unit sphere.

    The faces are those whose bounding sphere the face grid finds meeting the
    sphere, less those with every vertex inside the ball and those of zero
    area. Per face the circle–triangle intersection is read from the
    clipping walk of the ball masses (``_kernels._face_frames``,
    ``_kernels._walk``), in the same face frames, with the same crossings and
    the same written-out dot products: an arc runs from where the walk leaves
    the disk to where it next comes in, and its angle is the sum of the
    outside angles whose ½ρ²·θ terms the ball masses add (``_kernels._arcs``).
    Lengths are summed from arc angles (multiplicity-weighted) with
    ``math.fsum``, then the arcs are sampled and chained into polylines. Arc
    ends meet at a node when they cross the same mesh edge at the same root,
    or lie within 1e-5·r of the same vertex (``_end_keys``); an arc with both
    ends at one node is left out of the polylines, its length kept; nodes
    where three or more ends meet are junctions; at four-end nodes
    (transversal crossings) the chaining continues straight through, onto the
    end that best continues the arc, and stops if that end is already
    chained. A sphere that misses the support gives the empty link.
    """
    x0 = _kernels._point(x0, "spherical_link: x0")
    r = _values._length(r, "spherical_link: r")
    fi = v.face_grid.query(x0, r, inner=r)
    va, vb, vc = np.take(v.vertices, np.take(v.faces, fi, axis=0).T, axis=0) - x0
    n = _kernels._cross(vb - va, vc - va)
    two_area = np.sqrt(_kernels._sq(n))
    # the max of |x - x0| over a triangle sits at a vertex, so this test is exact
    dmax_v = np.maximum(np.maximum(_kernels._norm(va), _kernels._norm(vb)), _kernels._norm(vc))
    keep = np.flatnonzero((dmax_v > r * (1 - 1e-12)) & ~(two_area < 1e-300))
    rows, rho, q, e1, e2, corners = _kernels._face_frames(va[keep], vb[keep], vc[keep], n[keep],
                                                           two_area[keep], r)
    row, theta0, dtheta, ends = _kernels._arcs(*corners, rho)
    fi, rho = fi[keep[rows[row]]], rho[row]
    total_length = math.fsum((v.multiplicity[fi].astype(np.float64) * rho * dtheta / r).tolist())
    # the circle centers relative to x0 are the feet -q
    pts, off = _sample_arcs(rho, -q[row], e1[row], e2[row], theta0, dtheta, r)
    tips = pts[np.stack([off[:-1], off[1:] - 1], axis=1)]  # (n, 2, 3): each arc's end samples
    key = _end_keys(v, x0, r, v.faces[fi], ends, tips)
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
    (n, 3), its crossings ``ends`` named as by ``_kernels._arcs`` and its samples
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
    with equal ``key`` (n, 2) share a node. An open arc whose two ends have
    the same key, such as one shorter than 1e-5·r by a vertex, joins no node
    and forms no polyline. A walk that arrives at end e goes
    on at end ``nxt[e]``: the other end of a two-end node, or at a four-end
    node the end whose heading best continues the arrival (the first of
    equals); it stops where ``nxt`` is -1 (other nodes) or at an arc already
    walked.
    """
    tip = np.stack([off[:-1], off[1:] - 1], axis=1).ravel()  # each end's sample
    skip = closed | (key[:, 0] == key[:, 1])  # closed arcs, and open arcs from a node back to it
    ends = np.flatnonzero(np.repeat(~skip, 2))
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

    off, nxt, used = off.tolist(), nxt.tolist(), skip.tolist()
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
