"""Reference mesh constructors.

Every generator returns a :class:`GeneratorOutput` bundling the discrete
varifold and an ``analytic`` dict of exact reference values (areas, energies,
density points, marked feature circles). Meshes that have smooth pieces carry
their piece labels as ``face_patches``. A finer mesh of the smooth model
comes from a higher ``level``: :func:`varifold_lab.mesh.refine` leaves the new
midpoints on the chords.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._kernels import _dot
from .mesh import DiscreteVarifold, _split, _weld, make_varifold

log = logging.getLogger(__name__)

TAU = 2.0 * math.pi


@dataclass(frozen=True)
class GeneratorOutput:
    varifold: DiscreteVarifold
    analytic: dict


def _check_level(level: int) -> None:
    """The one check of every generator's refinement ``level``."""
    if level < 0:
        raise ValueError("level must be >= 0")


def _unit_rows(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


def _circle(M: int) -> tuple[np.ndarray, np.ndarray]:
    """Cosines and sines of the M angles 2*pi*j/M."""
    lam = TAU * np.arange(M) / M
    return np.cos(lam), np.sin(lam)


def _ring(r: float, z, cs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Ring of points (r cos, r sin, z) over the angles whose cosines and sines are cs."""
    c, s = cs
    return np.stack([r * c, r * s, np.broadcast_to(z, c.shape)], axis=1)


def _strips(rows: np.ndarray, outer_first: bool) -> np.ndarray:
    """Two triangles per cell between consecutive index rows, periodic along a row.

    With p the earlier row and q the next one, cell j gives (p_j, p_j+1, q_j+1),
    (p_j, q_j+1, q_j) if ``outer_first``, else (p_j, q_j, q_j+1), (p_j, q_j+1, p_j+1).
    """
    p, q = rows[:-1], rows[1:]
    p1, q1 = np.roll(p, -1, axis=1), np.roll(q, -1, axis=1)
    tris = ((p, p1, q1), (p, q1, q)) if outer_first else ((p, q, q1), (p, q1, p1))
    return np.stack([np.stack(t, axis=-1) for t in tris], axis=2).reshape(-1, 3)


def _fan(center: int, row: np.ndarray) -> np.ndarray:
    """Triangles (center, row_j, row_j+1), periodic along the row."""
    return np.stack([np.full(len(row), center), row, np.roll(row, -1)], axis=1)


def _mesh(verts, faces, patches=None, oriented: bool = False) -> DiscreteVarifold:
    """Varifold from vertex blocks and face blocks, with one patch label per face block."""
    labels = None
    if patches is not None:
        labels = np.concatenate([np.full(len(f), p, dtype=np.int64) for f, p in zip(faces, patches)])
    return make_varifold(np.vstack(verts), np.vstack(faces), oriented=oriented, face_patches=labels)


# ---------------------------------------------------------------------------
# sphere

_ICO_T = (1.0 + math.sqrt(5.0)) / 2.0
# the cyclic shifts of (±1, ±t, 0): three orthogonal golden rectangles
_ICO_VERTS = np.array([np.roll((a, b, 0.0), c) for c in range(3) for b in (_ICO_T, -_ICO_T) for a in (-1, 1)])
_ICO_FACES = np.array(  # wound outward; the 4-to-1 split keeps each child's winding
    [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ],
    dtype=np.int64,
)


def _icosphere(radius: float, level: int) -> tuple[np.ndarray, np.ndarray]:
    verts = _unit_rows(_ICO_VERTS.copy())
    faces = _ICO_FACES.copy()
    for _ in range(level):
        e, faces = _split(faces, len(verts))
        m = verts[e[:, 0]] + verts[e[:, 1]]
        m /= np.sqrt(_dot(m, m))[:, None]  # rounds like the norm of each row alone
        verts = np.vstack([verts, m])
    return radius * verts, faces


def gen_sphere(R: float, level: int) -> GeneratorOutput:
    """Icosphere of radius R with 20*4^level faces, oriented outward."""
    if R <= 0.0:
        raise ValueError("R must be positive")
    _check_level(level)
    verts, faces = _icosphere(float(R), int(level))
    v = make_varifold(verts, faces, oriented=True)
    analytic = {
        "area": 4.0 * math.pi * R * R,
        "willmore_energy": 4.0 * math.pi,
        "enclosed_volume": 4.0 * math.pi * R**3 / 3.0,
        "chi": 2,
        "genus": 0,
        "density_points": [
            {"point": [float(c) for c in verts[0]], "density": 1.0, "label": "surface point"}
        ],
    }

    return GeneratorOutput(v, analytic)


# ---------------------------------------------------------------------------
# spherical caps and bubbles

def _smoothstep(s: np.ndarray) -> np.ndarray:
    """Quintic smoothstep: 0 at s<=0, 1 at s>=1, C^2 across the ends."""
    s = np.clip(s, 0.0, 1.0)
    return s * s * s * (s * (6.0 * s - 15.0) + 10.0)


def _meridian_ladder(beta: float, first: float, base: float) -> list[float]:
    """Polar angles from the rim (phi=beta) toward the apex, graded.

    The first step away from the rim is ``first``; steps grow by 1.35x up to
    ``base``.  The returned list is descending and stops short of the apex,
    which is covered by a triangle fan.
    """
    phis = [beta]
    step = first
    while phis[-1] - step > 0.6 * base:
        phis.append(phis[-1] - step)
        step = min(base, 1.35 * step)
    return phis


def _cap(ring: np.ndarray, start: int, beta: float, R: float, side: int, first_frac: float):
    """A spherical cap meshed onto the rim ``ring`` (M vertex indices).

    The cap has geometric opening ``beta`` and radius ``R``; ``side=+1`` puts
    the apex above the rim plane z=0, ``side=-1`` below.  Its new vertices are
    numbered from ``start``.  Returns (vertices, faces), the apex last.
    """
    M = len(ring)
    base = TAU / M
    first = base * min(math.sin(beta), first_frac)
    phis = _meridian_ladder(beta, first, base)
    cz = -side * R * math.cos(beta)
    cs = _circle(M)
    verts = [_ring(R * math.sin(phi), cz + side * R * math.cos(phi), cs) for phi in phis[1:]]
    verts.append(np.array([[0.0, 0.0, cz + side * R]]))
    rows = np.vstack([ring, start + np.arange(M * (len(phis) - 1)).reshape(-1, M)])
    tip = _fan(start + M * (len(phis) - 1), rows[-1])[:, [1, 2, 0]]
    return np.vstack(verts), np.vstack([_strips(rows, outer_first=True), tip])


def gen_cap(R: float, theta: float, level: int) -> GeneratorOutput:
    """Spherical cap of opening theta in (0, pi) with its boundary circle in z=0.

    The cap meets the base plane at angle theta. The closed sphere is
    :func:`gen_sphere`.
    """
    _check_level(level)
    if R <= 0.0:
        raise ValueError("R must be positive")
    if not 0.0 < theta < math.pi:
        raise ValueError(f"theta must lie in (0, pi), not {theta}; "
                         "for the closed sphere use gen_sphere ('generate sphere')")
    M = max(6, 6 * 2**level)
    rim_r = R * math.sin(theta)
    cap_v, cap_f = _cap(np.arange(M), M, theta, R, +1, first_frac=1.0)
    v = _mesh([_ring(rim_r, 0.0, _circle(M)), cap_v], [cap_f], [0], oriented=True)
    analytic = {
        "area": TAU * R * R * (1.0 - math.cos(theta)),
        "willmore_energy": TAU * (1.0 - math.cos(theta)),
        "conormal_plane_angle": float(theta),
        "density_points": [
            {"point": [0.0, 0.0, R - R * math.cos(theta)], "density": 1.0, "label": "apex"}
        ],
        "boundary_circles": [
            {"center": [0.0, 0.0, 0.0], "radius": rim_r, "normal": [0.0, 0.0, 1.0]}
        ],
    }
    return GeneratorOutput(v, analytic)


def _junction_caps(rho: float, M: int, caps) -> tuple[list, list]:
    """Vertex and face blocks of the junction ring (radius rho, z=0) and one cap
    per ``(beta, R, side)`` in ``caps``, all meshed onto that ring."""
    verts, faces = [_ring(rho, 0.0, _circle(M))], []
    for beta, R, side in caps:
        cap_v, cap_f = _cap(np.arange(M), sum(map(len, verts)), beta, R, side, 0.125)
        verts.append(cap_v)
        faces.append(cap_f)
    return verts, faces


def _bubble_angles(theta2: float) -> tuple[float, float, float]:
    return 2.0 * math.pi / 3.0 - theta2, theta2, theta2 + 2.0 * math.pi / 3.0


def gen_double_bubble(theta2: float, rho: float, level: int) -> GeneratorOutput:
    """Standard double bubble: three caps joined along one circle at 120 deg.

    Cap opening angles are t1 = 2pi/3 - theta2, t2 = theta2, t3 = theta2 +
    2pi/3 with radii R_i = rho/sin(t_i) (R3 signed; its cap is placed on
    whichever side keeps the three enclosed regions disjoint).  The junction
    circle has radius rho in the plane z=0 and carries density 3/2.
    """
    _check_level(level)
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    t1, t2, t3 = _bubble_angles(theta2)
    if not (0.0 < theta2 < 2.0 * math.pi / 3.0):
        raise ValueError("theta2 must lie in (0, 2*pi/3)")
    if min(abs(math.sin(t1)), abs(math.sin(t2)), abs(math.sin(t3))) < 1e-9:
        raise ValueError("flat-interface case; use gen_double_bubble_flat")

    M = 4 * 2**level
    r1, r2, r3 = rho / math.sin(t1), rho / math.sin(t2), rho / math.sin(t3)
    # cap 1 opens upward, cap 2 downward; cap 3 (radius |r3|) continues the
    # 120-degree fan: below for t3 < pi, above (opening 2pi - t3) for t3 > pi.
    specs = [(t1, abs(r1), +1), (t2, abs(r2), -1)]
    if t3 < math.pi:
        specs.append((t3, abs(r3), -1))
    else:
        specs.append((TAU - t3, abs(r3), +1))
    verts, faces = _junction_caps(rho, M, specs)
    v = _mesh(verts, faces, [0, 1, 2])
    cap_areas = [TAU * r * r * (1.0 - math.cos(t)) for r, t in ((r1, t1), (r2, t2), (r3, t3))]
    analytic = {
        "angles": [t1, t2, t3],
        "radii": [r1, r2, r3],
        "cos_sum": math.cos(t1) + math.cos(t2) + math.cos(t3),
        "cap_areas": cap_areas,
        "area": math.fsum(cap_areas),
        "willmore_energy": 6.0 * math.pi,
        "junction_circles": [
            {"center": [0.0, 0.0, 0.0], "radius": float(rho), "normal": [0.0, 0.0, 1.0],
             "density": 1.5, "vertex_indices": list(range(M))}
        ],
        "density_points": [
            {"point": [float(rho), 0.0, 0.0], "density": 1.5, "label": "junction circle"},
            {"point": [float(c) for c in verts[1][-1]], "density": 1.0, "label": "cap 1 apex"},
        ],
        "li_yau": {"theta_max": 1.5, "w_over_4pi": 1.5},
    }

    return GeneratorOutput(v, analytic)


def gen_double_bubble_flat(rho: float, level: int) -> GeneratorOutput:
    """Flat-interface double bubble: two 2pi/3 caps plus a disk interface.

    This is the finite stand-in for the degenerate theta2 = pi/3 parameter of
    :func:`gen_double_bubble`, where one cap radius diverges.  W is still 6pi.
    """
    _check_level(level)
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    beta = 2.0 * math.pi / 3.0
    R = rho / math.sin(beta)
    M = 4 * 2**level
    verts, faces = _junction_caps(rho, M, [(beta, R, +1), (beta, R, -1)])

    # interface disk: concentric rings sharing the junction ring vertices
    n = max(2, round(M / TAU))
    start = sum(map(len, verts))
    cs = _circle(M)
    verts += [_ring(rho * k / n, 0.0, cs) for k in range(n - 1, 0, -1)]
    verts.append(np.zeros((1, 3)))
    rows = np.vstack([np.arange(M), start + np.arange(M * (n - 1)).reshape(-1, M)])
    center = _fan(start + M * (n - 1), rows[-1])[:, [1, 2, 0]]
    faces.append(np.vstack([_strips(rows, outer_first=True), center]))
    v = _mesh(verts, faces, [0, 1, 2])
    cap_area = TAU * R * R * 1.5
    analytic = {
        "cap_areas": [cap_area, cap_area],
        "area": 2.0 * cap_area + math.pi * rho * rho,
        "willmore_energy": 6.0 * math.pi,
        "junction_circles": [
            {"center": [0.0, 0.0, 0.0], "radius": float(rho), "normal": [0.0, 0.0, 1.0],
             "density": 1.5, "vertex_indices": list(range(M))}
        ],
        "density_points": [
            {"point": [float(rho), 0.0, 0.0], "density": 1.5, "label": "junction circle"},
            {"point": [float(c) for c in verts[1][-1]], "density": 1.0, "label": "cap apex"},
        ],
        "li_yau": {"theta_max": 1.5, "w_over_4pi": 1.5},
    }

    return GeneratorOutput(v, analytic)


# ---------------------------------------------------------------------------
# triple bubble

_TB_G = np.array([0.0, -1.0 / math.sqrt(3.0), 0.0])  # axis point; axis direction is x
_TB_X1 = np.array([math.sqrt(2.0 / 3.0), -1.0 / math.sqrt(3.0), 0.0])


def _tb_rotate(pts: np.ndarray, turns: int) -> np.ndarray:
    """Rotate by turns*120 degrees about the symmetry axis {y=-1/sqrt3, z=0}."""
    out = np.asarray(pts, dtype=np.float64).copy()
    if turns % 3 == 0:
        return out
    ang = turns * TAU / 3.0
    c, s = math.cos(ang), math.sin(ang)
    y = out[..., 1] - _TB_G[1]
    z = out[..., 2]
    out[..., 1] = _TB_G[1] + c * y - s * z
    out[..., 2] = s * y + c * z
    return out


def _quad_sweep(grid: np.ndarray) -> np.ndarray:
    """Triangles of the quads of an index grid, in row order.

    Quad (a_j, a_j+1, b_j+1, b_j) between rows a and b gives (a_j, a_j+1,
    b_j+1) and (a_j, b_j+1, b_j); where a column has collapsed to one point
    (a_j = b_j, or else a_j+1 = b_j+1) it gives the one triangle on its other
    three corners. Triangles that repeat a vertex are dropped.
    """
    q0, q1, q2, q3 = grid[:-1, :-1], grid[:-1, 1:], grid[1:, 1:], grid[1:, :-1]
    left = q0 == q3
    right = ~left & (q1 == q2)
    tris = np.stack([
        np.stack([q0, q1, np.where(right, q3, q2)], axis=-1),
        np.stack([q0, q2, q3], axis=-1),
    ], axis=2)
    c0, c1, c2 = tris[..., 0], tris[..., 1], tris[..., 2]
    distinct = (c0 != c1) & (c1 != c2) & (c0 != c2)
    distinct[..., 1] &= ~left & ~right
    return tris[distinct]


def gen_triple_bubble(level: int) -> GeneratorOutput:
    """Symmetric triple bubble: three unit-sphere sheets and three flat disks.

    One quarter of one spherical sheet is parametrized over theta in
    (pi/3, 5pi/6), phi in (-phi_theta, 0) with phi_theta =
    arccos(-cot(theta)/sqrt(3)); the sheet is completed by reflection across
    {x=0} and {z=0} and copied by 120-degree rotations about the symmetry
    axis.  The flats interpolate between the junction arcs and the axis
    segment, so junction edges are shared vertex-for-vertex (3 faces each).
    The two tetrahedral points x1, x2 carry density 3*arccos(-1/3)/pi.
    """
    _check_level(level)
    n = 3 * 2**level

    # Quarter-patch rows (theta ascending from the rim at pi/3).  The patch
    # collapses to the mid-sheet pole at theta = 5pi/6, so the column count
    # shrinks with the row width (subdivided-triangle connectivity): uniform
    # columns would degenerate into slivers whose discrete curvature blows up
    # under refinement.
    rows = []
    for k in range(n + 1):
        th = math.pi / 3.0 + (math.pi / 2.0) * k / n
        phi_t = math.acos(max(-1.0, min(1.0, -(1.0 / math.sqrt(3.0)) / math.tan(th))))
        mk = n - k
        ph = -phi_t * np.arange(mk + 1) / mk if mk else np.zeros(1)
        st, ct = math.sin(th), math.cos(th)
        row = np.stack([
            -st * np.sin(ph),
            0.5 * st * np.cos(ph) - math.sqrt(3.0) / 2.0 * ct,
            math.sqrt(3.0) / 2.0 * st * np.cos(ph) + 0.5 * ct,
        ], axis=1)
        row[0, 0] = 0.0
        row[-1, 2] = 0.0
        rows.append(row)
    quarter = np.vstack(rows)
    start = np.cumsum([0] + [len(r) for r in rows])
    tris = []
    for k in range(n):
        a, b = start[k] + np.arange(n - k + 1), start[k + 1] + np.arange(n - k)
        tris.append(np.stack([a[:-1], b, a[1:]], axis=1))
        tris.append(np.stack([a[1:-1], b[:-1], b[1:]], axis=1))
    quarter_faces = np.vstack(tris)

    # each sheet is a quarter, mirrored across {x=0} and {z=0} and turned
    # about the axis; a mirror by one plane reverses the winding
    mirrors = [([1.0, 1.0, 1.0], False), ([-1.0, 1.0, 1.0], True),
               ([1.0, 1.0, -1.0], True), ([-1.0, 1.0, -1.0], False)]
    sheets = [_tb_rotate(quarter * np.array(m), turns) for turns in range(3) for m, _ in mirrors]

    # flat disks: transfinite patch between arc A and the axis chord x2 -> x1.
    # Arc A on circle(12) runs x2 .. N .. x1 along the rims of the first two
    # sheets; the first sheet's rim row comes first among all points, so the
    # shared point N keeps its coordinates there. Every layer ends on x2 and
    # x1, so only the interior columns are built; the end columns take the
    # nodes of the arc's ends.
    arc = np.vstack([sheets[1][n:0:-1], quarter[:n + 1]])
    K = len(arc) - 1  # = 2m
    L = max(4, math.ceil(0.4 * n))
    half = math.sqrt(2.0 / 3.0)
    q_pts = np.zeros((K + 1, 3))
    q_pts[:, 0] = half * (2.0 * np.arange(K + 1) / K - 1.0)
    q_pts[:, 1] = _TB_G[1]
    t = (np.arange(L + 1) / L)[:, None, None]
    layers = (1.0 - t) * arc[1:-1] + t * q_pts[1:-1]
    layers[L] = q_pts[1:-1]
    flat = layers.reshape(-1, 3)
    flats = [flat, flat * np.array([1.0, 1.0, -1.0]), _tb_rotate(flat, 1)]

    ids, verts = _weld(np.vstack(sheets + flats), 1e-9)
    faces, patches = [], []
    for s, (_, flip) in enumerate(mirrors * 3):
        f = ids[s * len(quarter) + quarter_faces]
        faces.append(f[:, ::-1] if flip else f)
        patches.append(s // 4)
    x2, x1 = ids[len(quarter) + n], ids[n]
    flat_ids = np.pad(ids[12 * len(quarter):].reshape(3, L + 1, K - 1), ((0, 0), (0, 0), (1, 1)),
                      constant_values=((0, 0), (0, 0), (x2, x1)))
    for s, flip in enumerate((False, True, False)):
        f = _quad_sweep(flat_ids[s])
        faces.append(f[:, ::-1] if flip else f)
        patches.append(3 + s)
    v = _mesh([verts], faces, patches)
    w = 12.0 * math.acos(-1.0 / 3.0)
    lam_seg = math.acos(1.0 / 3.0)
    flat_area = math.pi * 0.75 - 0.75 * (lam_seg - math.sin(lam_seg) * math.cos(lam_seg))
    dens = 3.0 * math.acos(-1.0 / 3.0) / math.pi
    analytic = {
        "willmore_energy": w,
        "spherical_area": w,
        "flat_area": 3.0 * flat_area,
        "area": w + 3.0 * flat_area,
        "density_points": [
            {"point": [float(c) for c in _TB_X1], "density": dens, "label": "tetrahedral point x1"},
            {"point": [-float(_TB_X1[0]), float(_TB_X1[1]), 0.0], "density": dens,
             "label": "tetrahedral point x2"},
            {"point": [0.0, 0.0, 1.0], "density": 1.5, "label": "junction arc"},
        ],
        "li_yau": {"theta_max": dens, "w_over_4pi": w / (4.0 * math.pi)},
    }

    return GeneratorOutput(v, analytic)


# ---------------------------------------------------------------------------
# branched immersion patch

def gen_branched_patch(delta: float, rho0: float, level: int) -> GeneratorOutput:
    """Branch-point patch: (rho cos 2t, rho sin 2t, delta e^{-1/rho^2} psi cos t).

    The image double-covers the disk of radius rho0, with a genuine branch
    point of density 2 at the origin.  psi is a quintic smoothstep equal to 1
    on [0, rho0/3] and 0 beyond 2*rho0/3.  Coincident sheets (delta=0, or the
    outer annulus) are kept as distinct mesh vertices: the overlap is a
    property of the image, not of the parametrizing surface.
    """
    _check_level(level)
    if delta < 0.0:
        raise ValueError("delta must be >= 0")
    if rho0 <= 0.0:
        raise ValueError("rho0 must be positive")
    M = 8 * 2**level
    n = 4 * 2**level
    thetas = TAU * np.arange(M) / M
    cs2, cos1 = (np.cos(2 * thetas), np.sin(2 * thetas)), np.cos(thetas)
    verts = [np.zeros((1, 3))]
    for i in range(1, n + 1):
        rho = rho0 * i / n
        s = _smoothstep((rho - rho0 / 3.0) / (rho0 / 3.0))
        psi = 1.0 - float(s)
        zamp = delta * math.exp(-1.0 / (rho * rho)) * psi
        verts.append(_ring(rho, zamp * cos1, cs2))
    rows = 1 + np.arange(n * M).reshape(n, M)
    v = _mesh(verts, [_fan(0, rows[0]), _strips(rows, outer_first=False)])
    analytic = {
        "density_points": [
            {"point": [0.0, 0.0, 0.0], "density": 2.0, "label": "branch point"}
        ],
    }
    if delta == 0.0:
        analytic["willmore_energy"] = 0.0
        analytic["area"] = 2.0 * math.pi * rho0 * rho0
    return GeneratorOutput(v, analytic)


# ---------------------------------------------------------------------------
# singular contact pair

def gen_singular_pair(
    disk_centers: Sequence[Sequence[float]],
    disk_radii: Sequence[float],
    delta: float,
    level: int,
) -> GeneratorOutput:
    """Two graph sheets z = +-delta*eta*u over the unit disk, welded at the rim.

    u is a product of smooth bumps exp(-1/(d^2 - r^2)) vanishing exactly on
    the union of the given closed disks, so the contact set (density 2) is
    that union; eta tapers the sheets to zero across |x| >= 0.95 so they close
    up into a pillow.
    """
    _check_level(level)
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    centers = np.asarray(disk_centers, dtype=np.float64).reshape(-1, 2)
    radii = np.asarray(disk_radii, dtype=np.float64).reshape(-1)
    if len(centers) != len(radii):
        raise ValueError("disk_centers and disk_radii must have equal length")
    if np.any(radii <= 0.0):
        raise ValueError("disk radii must be positive")
    if np.any(np.linalg.norm(centers, axis=1) + radii > 1.0 + 1e-12):
        raise ValueError("every disk must be contained in the unit disk")
    if len(centers) == 0:
        log.warning("no disks given: the contact set A is empty")
    elif np.any(np.linalg.norm(centers, axis=1) + radii > 0.95):
        log.warning("a disk reaches into the rim cutoff band |x| >= 0.95")

    def u_of(xy: np.ndarray) -> np.ndarray:
        vals = np.ones(len(xy))
        for c, r in zip(centers, radii):
            t = np.einsum("ij,ij->i", xy - c, xy - c) - r * r
            f = np.zeros_like(t)
            pos = t > 0.0
            f[pos] = np.exp(-1.0 / t[pos])
            vals *= f
        return vals

    def eta_of(s: np.ndarray) -> np.ndarray:
        return 1.0 - _smoothstep((s - 0.95) / 0.05)

    M = 12 * 2**level
    n = 6 * 2**level
    thetas = TAU * np.arange(M) / M
    ring_xy = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)

    def ring(s: float, sign: int) -> np.ndarray:
        xy = s * ring_xy
        return np.column_stack([xy, sign * delta * float(eta_of(np.array([s]))[0]) * u_of(xy)])

    u0 = float(u_of(np.zeros((1, 2)))[0])
    verts = [ring(1.0, +1)]  # the shared rim: z = 0 exactly (eta vanishes)
    faces = []
    for sign in (+1, -1):
        start = sum(map(len, verts))
        verts += [ring(i / n, sign) for i in range(1, n)]
        verts.append(np.array([[0.0, 0.0, sign * delta * u0]]))
        rows = np.vstack([start + np.arange(M * (n - 1)).reshape(-1, M), np.arange(M)])
        sheet = np.vstack([_fan(start + M * (n - 1), rows[0]), _strips(rows, outer_first=False)])
        faces.append(sheet if sign > 0 else sheet[:, ::-1])
    v = _mesh(verts, faces, [0, 1], oriented=True)
    density_points = [
        {"point": [float(c[0]), float(c[1]), 0.0], "density": 2.0, "label": "contact disk center"}
        for c in centers
    ]
    probe = np.array([[0.9, 0.0]])
    if len(centers) == 0 or np.all(np.linalg.norm(probe - centers, axis=1) > radii):
        h = delta * float(eta_of(np.array([0.9]))[0]) * float(u_of(probe)[0])
        if h > 0.0:
            # the sheets sit 2h apart here, so a single-sheet density reading
            # needs a ladder capped below that separation
            r_hint = 1.6 * h
            density_points.append({"point": [0.9, 0.0, +h], "density": 1.0,
                                   "label": "upper sheet", "r_max": r_hint})
            density_points.append({"point": [0.9, 0.0, -h], "density": 1.0,
                                   "label": "lower sheet", "r_max": r_hint})
    analytic = {
        "density_points": density_points,
        "contact_disks": [
            {"center": [float(c[0]), float(c[1])], "radius": float(r)}
            for c, r in zip(centers, radii)
        ],
        "chi": 2,
    }
    return GeneratorOutput(v, analytic)


# ---------------------------------------------------------------------------
# flat disk and torus

def gen_flat_disk(rho: float, level: int) -> GeneratorOutput:
    """Triangulated disk in z=0 whose PL area is exactly pi*rho^2.

    The rings are inflated by sqrt((2pi/M)/sin(2pi/M)) so the outer polygon
    has the same area as the round disk; refinement keeps the polygon, hence
    the area, unchanged.
    """
    _check_level(level)
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    M = 8 * 2**level
    n = max(2, round(M / TAU))
    lam = math.sqrt((TAU / M) / math.sin(TAU / M))
    cs = _circle(M)
    verts = np.vstack([np.zeros((1, 3))] + [_ring(lam * rho * k / n, 0.0, cs) for k in range(1, n + 1)])
    rows = 1 + np.arange(n * M).reshape(n, M)
    v = _mesh([verts], [_fan(0, rows[0]), _strips(rows, outer_first=False)], oriented=True)
    mid = rows[max(0, n // 2 - 1)][0]
    analytic = {
        "area": math.pi * rho * rho,
        "willmore_energy": 0.0,
        "boundary_circles": [
            {"center": [0.0, 0.0, 0.0], "radius": float(rho), "normal": [0.0, 0.0, 1.0]}
        ],
        "density_points": [
            {"point": [float(c) for c in verts[mid]], "density": 1.0, "label": "interior point"}
        ],
    }
    return GeneratorOutput(v, analytic)


def gen_torus(R: float, r: float, level: int) -> GeneratorOutput:
    """Torus of revolution (major R, minor r), oriented outward; chi = 0."""
    _check_level(level)
    if not 0.0 < r < R:
        raise ValueError("need 0 < r < R")
    nu = 8 * 2**level
    nv = max(6, round(nu * r / R))
    cu, su = _circle(nu)
    cv, sv = _circle(nv)
    tube = R + r * cv
    verts = np.stack([tube * cu[:, None], tube * su[:, None], np.broadcast_to(r * sv, (nu, nv))], axis=-1)
    rows = np.arange(nu * nv).reshape(nu, nv)
    faces = _strips(np.vstack([rows, rows[:1]]), outer_first=False)  # the last ring joins the first
    v = _mesh([verts.reshape(-1, 3)], [faces], oriented=True)
    analytic = {
        "area": 4.0 * math.pi**2 * R * r,
        "willmore_energy": math.pi**2 * R * R / (r * math.sqrt(R * R - r * r)),
        "enclosed_volume": 2.0 * math.pi**2 * R * r * r,
        "chi": 0,
        "genus": 1,
        "density_points": [
            {"point": [float(R + r), 0.0, 0.0], "density": 1.0, "label": "outer equator"}
        ],
    }

    return GeneratorOutput(v, analytic)


GENERATORS: dict[str, Callable[..., GeneratorOutput]] = {
    "sphere": gen_sphere,
    "cap": gen_cap,
    "double-bubble": gen_double_bubble,
    "double-bubble-flat": gen_double_bubble_flat,
    "triple-bubble": gen_triple_bubble,
    "branched-patch": gen_branched_patch,
    "singular-pair": gen_singular_pair,
    "flat-disk": gen_flat_disk,
    "torus": gen_torus,
}
