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

from . import _kernels
from .curvature import point_surface_distance, willmore_energy
from .mesh import DiscreteVarifold, MeshError, _require, _weld
from .reports import Record

log = logging.getLogger(__name__)

__all__ = [
    "ADMISSIBLE_DENSITIES",
    "DensityReport",
    "SphericalLink",
    "ball_mass",
    "ball_mass_ladder",
    "density",
    "classify_density",
    "monotonicity_check",
    "li_yau_check",
    "spherical_link",
    "local_edge_scale",
]

#: Densities attainable below the 6*pi energy threshold in codimension one:
#: 1 (smooth point), 3/2 (triple-line point), 3*acos(-1/3)/pi (tetrahedral point).
ADMISSIBLE_DENSITIES: tuple[tuple[str, float], ...] = (
    ("1", 1.0),
    ("3/2", 1.5),
    ("3*acos(-1/3)/pi", 3.0 * math.acos(-1.0 / 3.0) / math.pi),
)


def ball_mass(v: DiscreteVarifold, x0, r: float) -> float:
    """Mass of v restricted to the closed ball B(x0, r), by exact clipping."""
    return float(ball_mass_ladder(v, x0, [r])[0])


def ball_mass_ladder(v: DiscreteVarifold, x0, radii) -> np.ndarray:
    """Ball masses for several radii at once (one pass over the nearby faces per radius)."""
    radii = np.asarray(radii, dtype=np.float64)
    if (radii <= 0).any():
        raise ValueError(f"ball radii must be positive, got {radii.tolist()}")
    _require_faces(v)
    return _ball_masses(v, np.asarray(x0, dtype=np.float64), radii)


def _ball_masses(v: DiscreteVarifold, x0: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """``_kernels.ball_masses`` over the faces the face grid finds near the largest ball.

    Faces that cannot meet a ball add nothing to its mass, and the kernel sums
    with ``math.fsum``, so the masses are those of a pass over every face.
    """
    idx = v.face_grid.query(x0, float(radii.max()) if len(radii) else 0.0)
    faces, mult = v.faces, v.multiplicity
    if len(idx) < v.num_faces:  # large balls, which need every face, skip the copies
        faces, mult = np.take(faces, idx, axis=0), mult[idx]  # take: several times faster than faces[idx]
    return _kernels.ball_masses(v.vertices, faces, mult.astype(np.float64), x0, radii)


def _require_faces(v: DiscreteVarifold) -> None:
    if v.num_faces == 0:
        raise MeshError("varifold has no faces")


def local_edge_scale(v: DiscreteVarifold, x0, k: int = 32) -> float:
    """Mean edge length over the k faces whose centroids are nearest to x0.

    This scans every face: the order in which ``np.argpartition`` returns the
    k nearest fixes the rounding of the mean, and a scan of fewer faces does
    not reproduce it.
    """
    _require_faces(v)
    x0 = np.asarray(x0, dtype=np.float64)
    # the bits of v.vertices[v.faces].mean(axis=1), without the (F, 3, 3) gather
    vert, f = v.vertices, v.faces
    cen = (vert[f[:, 0]] + vert[f[:, 1]] + vert[f[:, 2]]) / 3.0
    d2 = np.einsum("ij,ij->i", cen - x0, cen - x0)
    k = min(k, len(d2))
    idx = np.argpartition(d2, k - 1)[:k] if k < len(d2) else np.arange(len(d2))
    p = v.vertices[v.faces[idx]]
    e = np.concatenate([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]])
    return float(np.linalg.norm(e, axis=1).mean())


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


def density(
    v: DiscreteVarifold,
    x0,
    r_max: float | None = None,
    rungs: int = 6,
    ratio: float = 0.5,
) -> DensityReport:
    """Extrapolated 2-density of v at x0 from a geometric radius ladder.

    Mass ratios μ(B_r)/(π r²) are computed on r_i = r_max · ratio^i and fitted
    against both theta + c·r² (smooth sheets) and theta + c·r (conical
    junction points); the better-fitting model supplies theta. The error bar
    is the half-spread of the pairwise Richardson extrapolants of the winning
    model. x0 must lie on the support (within half a local edge length).
    """
    x0 = np.asarray(x0, dtype=np.float64)
    h = local_edge_scale(v, x0)
    warnings: list[str] = []
    if point_surface_distance(v, x0) > 0.5 * h:
        raise MeshError(f"point {x0.tolist()} is not on the support of the varifold")
    if r_max is None:
        r_max = 10.0 * h
    elif r_max < 2.0 * h:
        msg = f"r_max={r_max:.3g} is below mesh resolution (edge scale {h:.3g}); trimming ladder"
        log.warning(msg)
        warnings.append(msg)
    if rungs < 3:
        raise ValueError("need at least 3 rungs to extrapolate")
    radii = r_max * ratio ** np.arange(rungs)
    if warnings:
        keep = radii >= 0.5 * h
        if keep.sum() >= 3:
            radii = radii[keep]
    masses = ball_mass_ladder(v, x0, radii)
    ratios = masses / (math.pi * radii**2)

    theta_q, ssr_q = _fit(radii, ratios, 2)
    theta_l, ssr_l = _fit(radii, ratios, 1)
    if ssr_q <= ssr_l:
        theta, model, power = theta_q, "quadratic", 2
    else:
        theta, model, power = theta_l, "linear", 1

    qp = ratio**power
    rich = (ratios[1:] - qp * ratios[:-1]) / (1.0 - qp)
    error_bar = 0.5 * float(rich.max() - rich.min()) if len(rich) > 1 else float("nan")

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


def classify_density(theta: float, tol: float = 0.1, ambient_dim: int = 3) -> tuple[str, float]:
    """Nearest admissible density value, or ">=2 / unclassified".

    In ambient dimension 3 the admissible set below 2 is {1, 3/2,
    3*acos(-1/3)/pi}; in higher ambient dimensions only {1, 3/2} survives.
    Returns (label, |theta - value|); the residual is NaN when unclassified.
    """
    if theta < 0.5:
        raise ValueError(f"theta={theta} is not a varifold density (< 0.5)")
    if theta >= 2.0 - tol:
        return ">=2 / unclassified", float("nan")
    candidates = ADMISSIBLE_DENSITIES if ambient_dim == 3 else ADMISSIBLE_DENSITIES[:2]
    label, value = min(candidates, key=lambda kv: abs(theta - kv[1]))
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

    The curvature integral is the lumped sum over vertices inside B_s. The
    check passes when slack = RHS - LHS ≥ -eps (discretization allowance).
    """
    if not 0 < r < s:
        raise ValueError(f"need 0 < r < s, got r={r}, s={s}")
    x0 = np.asarray(x0, dtype=np.float64)
    m_r, m_s = ball_mass_ladder(v, x0, [r, s])
    lhs = m_r / (math.pi * r * r)
    ratio_s = m_s / (math.pi * s * s)
    f = v.curvature
    inside = np.linalg.norm(v.vertices - x0, axis=1) <= s
    keep = inside & ~f.boundary_mask & ~f.isolated_mask
    h2 = np.einsum("ij,ij->i", f.H, f.H)
    w_term = math.fsum((h2 * f.vertex_area)[keep]) / (16.0 * math.pi)
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


def li_yau_check(v: DiscreteVarifold, sample_points, eps: float = 0.05) -> LiYauReport:
    """Li–Yau bound: max over samples of Θ(x) must not exceed W/(4π) + eps.

    Requires a closed varifold (no boundary edges). The gap reported is
    theta_max - W/(4π); sampling the maximizing points of the density makes
    the gap |·| ≈ 0 exactly when the bound is saturated.
    """
    _require(v, closed=True)
    thetas = np.array([density(v, p).theta for p in sample_points])
    w = willmore_energy(v)
    bound = w / (4.0 * math.pi)
    theta_max = float(thetas.max()) if len(thetas) else 0.0
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


def _circle_arcs(P: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angular intervals of the circles |p| = rho inside the CCW triangles P.

    P is (m, 3, 2), one triangle per circle. Returns (row, theta0, dtheta)
    per arc, ordered by row and then by start angle: the circle's crossings
    of the triangle's edges are sorted, and each span between consecutive
    crossings whose midpoint lies inside the triangle is an arc; a circle
    that crosses no edge is one whole arc or none.
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
                ang[hit, 2 * k + j] = np.fromiter(map(math.atan2, qy.tolist(), qx.tolist()),
                                                  dtype=np.float64, count=len(hit))
    ang = np.sort(ang, axis=1, kind="stable")
    count = np.isfinite(ang).sum(axis=1)
    # a circle that crosses no edge is one arc from 0 to 2π, probed at angle 0
    whole = count == 0
    ang[whole, 0] = 0.0
    count[whole] = 1
    slot = np.arange(6)
    nxt = np.where(slot == (count - 1)[:, None], ang[:, :1] + 2.0 * math.pi, np.roll(ang, -1, axis=1))
    row, col = np.nonzero(slot < count[:, None])
    a0, a1 = ang[row, col], nxt[row, col]
    mid = np.where(whole[row], 0.0, 0.5 * (a0 + a1))
    qx = rho[row] * np.fromiter(map(math.cos, mid.tolist()), dtype=np.float64, count=len(mid))
    qy = rho[row] * np.fromiter(map(math.sin, mid.tolist()), dtype=np.float64, count=len(mid))
    inside = np.ones(len(row), dtype=bool)
    for k in range(3):
        a, b = P[row, k], P[row, (k + 1) % 3]
        inside &= ~((b[:, 0] - a[:, 0]) * (qy - a[:, 1]) - (b[:, 1] - a[:, 1]) * (qx - a[:, 0]) < -1e-12)
    return row[inside], a0[inside], a1[inside] - a0[inside]


def spherical_link(v: DiscreteVarifold, x0, r: float) -> SphericalLink:
    """Intersection of spt v with the sphere ∂B_r(x0), rescaled to the unit sphere.

    The faces the face grid finds near the sphere are screened by their vertex
    distances; per remaining face the circle–triangle intersection is then
    computed exactly in the face plane, as arrays over the faces (dot
    products rounded like a 1-D ``a @ b``, angles from ``math.atan2``).
    Lengths are summed from arc angles (multiplicity-weighted) with
    ``math.fsum``, then the arcs are sampled and chained into polylines. Arc
    ends crossing the same mesh edge coincide to round-off, so endpoint
    merging uses a small scale-free tolerance; nodes where three or more ends
    meet are junctions; at four-end nodes (transversal crossings) the
    chaining continues straight through, onto the end that best continues
    the arc, and stops if that end is already chained. A sphere that misses
    the support gives the empty link.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if r <= 0:
        raise ValueError("link radius must be positive")
    grid = v.face_grid
    # a face the screen keeps has a vertex within r + its longest edge of x0,
    # and the edge is at most twice the spread, so its centroid lies in this ball
    fi = grid.query(x0, r + 2.0 * grid.spread)
    faces = np.take(v.faces, fi, axis=0)
    va = v.vertices[faces[:, 0]] - x0
    vb = v.vertices[faces[:, 1]] - x0
    vc = v.vertices[faces[:, 2]] - x0
    norms = np.stack([np.linalg.norm(va, axis=1), np.linalg.norm(vb, axis=1), np.linalg.norm(vc, axis=1)])
    dmin_v = norms.min(axis=0)
    dmax_v = norms.max(axis=0)
    # the max of |x - x0| over a triangle sits at a vertex, so the dmax test is
    # exact; the min can undershoot the vertices by up to the longest edge
    # (the circle may enter through an edge with all three vertices outside)
    emax = np.max(np.stack([
        np.linalg.norm(vb - va, axis=1),
        np.linalg.norm(vc - vb, axis=1),
        np.linalg.norm(va - vc, axis=1),
    ]), axis=0)
    keep = (dmin_v < r + emax) & (dmax_v > r * (1 - 1e-12))
    fi, va, vb, vc = fi[keep], va[keep], vb[keep], vc[keep]
    n = np.cross(vb - va, vc - va)
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
    e2 = np.cross(nhat, e1)
    foot = d[:, None] * nhat  # circle centers relative to x0
    P = np.stack([np.stack([_kernels._dot(p - foot, e1), _kernels._dot(p - foot, e2)], axis=1)
                  for p in (va, vb, vc)], axis=1)
    row, theta0, dtheta = _circle_arcs(P, rho)
    mult = v.multiplicity[fi[row]].astype(np.float64)
    lengths = mult * rho[row] * dtheta / r
    arcs = list(zip(mult.tolist(), rho[row].tolist(), foot[row], e1[row], e2[row],
                    theta0.tolist(), dtheta.tolist()))
    total_length = math.fsum(lengths.tolist())
    polylines, junction_count = _chain_arcs(arcs, r, tol=1e-5)
    return SphericalLink(
        polylines=tuple(polylines),
        total_length=total_length,
        junction_count=junction_count,
        density_estimate=total_length / (2.0 * math.pi),
    )


def _sample_arc(mult, rho, foot, e1, e2, theta0, dtheta, r) -> np.ndarray:
    npts = max(2, int(math.ceil(dtheta / 0.1)) + 1)
    t = theta0 + np.linspace(0.0, dtheta, npts)
    pts = foot[None, :] + rho * (np.cos(t)[:, None] * e1[None, :] + np.sin(t)[:, None] * e2[None, :])
    u = pts / r
    u /= np.linalg.norm(u, axis=1)[:, None]
    return u


def _chain_arcs(arcs, r, tol: float) -> tuple[list[np.ndarray], int]:
    """Merge sampled arc endpoints into nodes and walk maximal polylines."""
    if not arcs:
        return [], 0
    samples = [_sample_arc(*a, r) for a in arcs]
    closed = [a[6] >= 2.0 * math.pi - 1e-9 for a in arcs]
    # collect endpoints of open arcs
    ends = []  # (arc index, which end, point)
    for i, (s, cl) in enumerate(zip(samples, closed)):
        if not cl:
            ends.append((i, 0, s[0]))
            ends.append((i, 1, s[-1]))
    nodes = _weld(np.array([p for _, _, p in ends]), tol)[0].tolist()
    node_of = {(i, w): nd for (i, w, _), nd in zip(ends, nodes)}
    degree = [0] * (max(nodes, default=-1) + 1)
    for nd in nodes:
        degree[nd] += 1
    junction_count = sum(1 for d in degree if d >= 3)

    incident: dict[int, list[tuple[int, int]]] = {}
    for (i, w), nd in node_of.items():
        incident.setdefault(nd, []).append((i, w))

    used = [False] * len(samples)
    polylines: list[np.ndarray] = []
    for i, cl in enumerate(closed):
        if cl:
            used[i] = True
            polylines.append(samples[i])

    def heading(i: int, w: int, outward: bool) -> np.ndarray:
        s = samples[i]
        d = (s[1] - s[0]) if w == 0 else (s[-2] - s[-1])
        d = d if outward else -d
        n = np.linalg.norm(d)
        return d / n if n > 0 else d

    def walk(i0: int, w0: int) -> np.ndarray:
        pts = [samples[i0] if w0 == 0 else samples[i0][::-1]]
        used[i0] = True
        cur, went = i0, 1 - w0  # arrived at the far end
        while True:
            nd = node_of[(cur, went)]
            others = [jw for jw in incident[nd] if jw != (cur, went)]
            if degree[nd] == 2:
                nxt, wn = others[0]
            elif degree[nd] == 4:
                # straight through: the end that continues the arrival
                # direction, which the walk takes only if it is still free
                inc = heading(cur, went, outward=False)
                nxt, wn = max(others, key=lambda jw: float(inc @ heading(jw[0], jw[1], outward=True)))
            else:
                break
            if used[nxt]:
                break
            used[nxt] = True
            seg = samples[nxt] if wn == 0 else samples[nxt][::-1]
            pts.append(seg[1:])
            cur, went = nxt, 1 - wn
        return np.vstack(pts)

    # start walks at junction nodes and odd nodes first, then sweep leftovers
    for nd, deg in enumerate(degree):
        if deg != 2:
            for (i, w) in incident[nd]:
                if not used[i]:
                    polylines.append(walk(i, w))
    for i in range(len(samples)):
        if not used[i]:
            polylines.append(walk(i, 0))
    return polylines, junction_count
