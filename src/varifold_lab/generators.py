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

from .mesh import DiscreteVarifold, make_varifold

log = logging.getLogger(__name__)

TAU = 2.0 * math.pi


@dataclass(frozen=True)
class GeneratorOutput:
    varifold: DiscreteVarifold
    analytic: dict


def _unit_rows(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


class _Weld:
    """Tolerance-based vertex pool: identical points get one index.

    Points are hashed on a grid of pitch ``tol``; insertion probes the 27
    neighbouring cells so near-coincident points (seams produced by mirror or
    rotation copies) merge deterministically.
    """

    def __init__(self, tol: float) -> None:
        self.tol = tol
        self.points: list[tuple[float, float, float]] = []
        self._cells: dict[tuple[int, int, int], list[int]] = {}

    def add(self, p: Sequence[float]) -> int:
        x, y, z = float(p[0]), float(p[1]), float(p[2])
        t = self.tol
        cx, cy, cz = int(math.floor(x / t)), int(math.floor(y / t)), int(math.floor(z / t))
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    for idx in self._cells.get((cx + dx, cy + dy, cz + dz), ()):
                        q = self.points[idx]
                        if abs(q[0] - x) < t and abs(q[1] - y) < t and abs(q[2] - z) < t:
                            return idx
        idx = len(self.points)
        self.points.append((x, y, z))
        self._cells.setdefault((cx, cy, cz), []).append(idx)
        return idx

    def array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=np.float64)


# ---------------------------------------------------------------------------
# sphere

_ICO_T = (1.0 + math.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array(
    [
        (-1, _ICO_T, 0), (1, _ICO_T, 0), (-1, -_ICO_T, 0), (1, -_ICO_T, 0),
        (0, -1, _ICO_T), (0, 1, _ICO_T), (0, -1, -_ICO_T), (0, 1, -_ICO_T),
        (_ICO_T, 0, -1), (_ICO_T, 0, 1), (-_ICO_T, 0, -1), (-_ICO_T, 0, 1),
    ],
    dtype=np.float64,
)
_ICO_FACES = np.array(
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
        cache: dict[tuple[int, int], int] = {}
        vlist = list(verts)

        def midpoint(i: int, j: int) -> int:
            key = (i, j) if i < j else (j, i)
            idx = cache.get(key)
            if idx is None:
                m = vlist[i] + vlist[j]
                m /= np.linalg.norm(m)
                idx = len(vlist)
                vlist.append(m)
                cache[key] = idx
            return idx

        out = np.empty((4 * len(faces), 3), dtype=np.int64)
        for k, (a, b, c) in enumerate(faces):
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            out[4 * k: 4 * k + 4] = [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        verts = np.asarray(vlist)
        faces = out
    # outward winding: flip everything if the signed volume comes out negative
    p = verts[faces]
    vol6 = float(np.einsum("ij,ij->", p[:, 0], np.cross(p[:, 1], p[:, 2])))
    if vol6 < 0.0:
        faces = faces[:, ::-1]
    return radius * verts, faces


def gen_sphere(R: float, level: int) -> GeneratorOutput:
    """Icosphere of radius R with 20*4^level faces, oriented outward."""
    if R <= 0.0:
        raise ValueError("R must be positive")
    if level < 0:
        raise ValueError("level must be >= 0")
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


def _attach_cap(
    verts: list[np.ndarray],
    faces: list[tuple[int, int, int]],
    patches: list[int],
    ring_idx: np.ndarray,
    beta: float,
    R: float,
    side: int,
    M: int,
    patch: int,
    first_frac: float,
) -> int:
    """Append a spherical cap meshed onto an existing rim ring.

    The cap has geometric opening ``beta`` and radius ``R``; ``side=+1`` puts
    the apex above the rim plane z=0, ``side=-1`` below.  Returns the apex
    vertex index.
    """
    base = TAU / M
    first = base * min(math.sin(beta), first_frac)
    phis = _meridian_ladder(beta, first, base)
    cz = -side * R * math.cos(beta)
    lam = TAU * np.arange(M) / M
    cos_l, sin_l = np.cos(lam), np.sin(lam)

    rows = [ring_idx]
    for phi in phis[1:]:
        s, c = math.sin(phi), math.cos(phi)
        start = len(verts)
        for j in range(M):
            verts.append(np.array([R * s * cos_l[j], R * s * sin_l[j], cz + side * R * c]))
        rows.append(np.arange(start, start + M))
    apex = len(verts)
    verts.append(np.array([0.0, 0.0, cz + side * R]))

    for outer, inner in zip(rows[:-1], rows[1:]):
        for j in range(M):
            j1 = (j + 1) % M
            faces.append((outer[j], outer[j1], inner[j1]))
            faces.append((outer[j], inner[j1], inner[j]))
            patches.extend((patch, patch))
    last = rows[-1]
    for j in range(M):
        faces.append((last[j], last[(j + 1) % M], apex))
        patches.append(patch)
    return apex


def gen_cap(R: float, theta: float, level: int) -> GeneratorOutput:
    """Spherical cap of opening theta with its boundary circle in z=0.

    The cap meets the base plane at angle theta.  theta=pi closes the mesh
    into a full sphere (the rim shrinks to the south pole).
    """
    if R <= 0.0:
        raise ValueError("R must be positive")
    if not 0.0 < theta <= math.pi:
        raise ValueError("theta must lie in (0, pi]")
    M = max(6, 6 * 2**level)
    closed = theta > math.pi - 1e-12
    rim_r = R * math.sin(theta)
    cz = -R * math.cos(theta)

    verts: list[np.ndarray] = []
    if closed:
        # march almost to the south pole, then cap with a fan
        eff = math.pi - TAU / M
        lam = TAU * np.arange(M) / M
        ring_idx = np.arange(M)
        s, c = math.sin(eff), math.cos(eff)
        for j in range(M):
            verts.append(np.array([R * s * math.cos(lam[j]), R * s * math.sin(lam[j]), cz + R * c]))
    else:
        lam = TAU * np.arange(M) / M
        ring_idx = np.arange(M)
        for j in range(M):
            verts.append(np.array([rim_r * math.cos(lam[j]), rim_r * math.sin(lam[j]), 0.0]))

    faces: list[tuple[int, int, int]] = []
    patches: list[int] = []
    beta = eff if closed else theta
    _attach_cap(verts, faces, patches, ring_idx, beta, R, +1, M, 0, first_frac=1.0)
    if closed:
        south = len(verts)
        verts.append(np.array([0.0, 0.0, cz - R]))
        for j in range(M):
            faces.append((ring_idx[(j + 1) % M], ring_idx[j], south))
            patches.append(0)

    v = make_varifold(
        np.asarray(verts), np.asarray(faces, dtype=np.int64), oriented=True,
        face_patches=np.asarray(patches, dtype=np.int64),
    )
    analytic = {
        "area": TAU * R * R * (1.0 - math.cos(theta)),
        "willmore_energy": TAU * (1.0 - math.cos(theta)),
        "conormal_plane_angle": float(theta),
        "density_points": [
            {"point": [0.0, 0.0, cz + R], "density": 1.0, "label": "apex"}
        ],
    }
    if not closed:
        analytic["boundary_circles"] = [
            {"center": [0.0, 0.0, 0.0], "radius": rim_r, "normal": [0.0, 0.0, 1.0]}
        ]

    return GeneratorOutput(v, analytic)


def _bubble_angles(theta2: float) -> tuple[float, float, float]:
    return 2.0 * math.pi / 3.0 - theta2, theta2, theta2 + 2.0 * math.pi / 3.0


def gen_double_bubble(theta2: float, rho: float, level: int) -> GeneratorOutput:
    """Standard double bubble: three caps joined along one circle at 120 deg.

    Cap opening angles are t1 = 2pi/3 - theta2, t2 = theta2, t3 = theta2 +
    2pi/3 with radii R_i = rho/sin(t_i) (R3 signed; its cap is placed on
    whichever side keeps the three enclosed regions disjoint).  The junction
    circle has radius rho in the plane z=0 and carries density 3/2.
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    t1, t2, t3 = _bubble_angles(theta2)
    if not (0.0 < theta2 < 2.0 * math.pi / 3.0):
        raise ValueError("theta2 must lie in (0, 2*pi/3)")
    if min(abs(math.sin(t1)), abs(math.sin(t2)), abs(math.sin(t3))) < 1e-9:
        raise ValueError("flat-interface case; use gen_double_bubble_flat")

    M = 4 * 2**level
    lam = TAU * np.arange(M) / M
    verts: list[np.ndarray] = [
        np.array([rho * math.cos(a), rho * math.sin(a), 0.0]) for a in lam
    ]
    ring_idx = np.arange(M)
    faces: list[tuple[int, int, int]] = []
    patches: list[int] = []

    r1, r2, r3 = rho / math.sin(t1), rho / math.sin(t2), rho / math.sin(t3)
    # cap 1 opens upward, cap 2 downward; cap 3 (radius |r3|) continues the
    # 120-degree fan: below for t3 < pi, above (opening 2pi - t3) for t3 > pi.
    specs = [(t1, abs(r1), +1, 0), (t2, abs(r2), -1, 1)]
    if t3 < math.pi:
        specs.append((t3, abs(r3), -1, 2))
    else:
        specs.append((TAU - t3, abs(r3), +1, 2))
    apexes = []
    for beta, R, side, patch in specs:
        apexes.append(_attach_cap(verts, faces, patches, ring_idx, beta, R, side, M, patch, 0.125))

    v = make_varifold(
        np.asarray(verts), np.asarray(faces, dtype=np.int64),
        face_patches=np.asarray(patches, dtype=np.int64),
    )
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
            {"point": [float(c) for c in verts[apexes[0]]], "density": 1.0, "label": "cap 1 apex"},
        ],
        "li_yau": {"theta_max": 1.5, "w_over_4pi": 1.5},
    }

    return GeneratorOutput(v, analytic)


def gen_double_bubble_flat(rho: float, level: int) -> GeneratorOutput:
    """Flat-interface double bubble: two 2pi/3 caps plus a disk interface.

    This is the finite stand-in for the degenerate theta2 = pi/3 parameter of
    :func:`gen_double_bubble`, where one cap radius diverges.  W is still 6pi.
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    beta = 2.0 * math.pi / 3.0
    R = rho / math.sin(beta)
    M = 4 * 2**level
    lam = TAU * np.arange(M) / M
    verts: list[np.ndarray] = [
        np.array([rho * math.cos(a), rho * math.sin(a), 0.0]) for a in lam
    ]
    ring_idx = np.arange(M)
    faces: list[tuple[int, int, int]] = []
    patches: list[int] = []
    apex_up = _attach_cap(verts, faces, patches, ring_idx, beta, R, +1, M, 0, 0.125)
    _attach_cap(verts, faces, patches, ring_idx, beta, R, -1, M, 1, 0.125)

    # interface disk: concentric rings sharing the junction ring vertices
    n = max(2, round(M / TAU))
    rows = [ring_idx]
    for k in range(n - 1, 0, -1):
        s = rho * k / n
        start = len(verts)
        for a in lam:
            verts.append(np.array([s * math.cos(a), s * math.sin(a), 0.0]))
        rows.append(np.arange(start, start + M))
    center = len(verts)
    verts.append(np.array([0.0, 0.0, 0.0]))
    for outer, inner in zip(rows[:-1], rows[1:]):
        for j in range(M):
            j1 = (j + 1) % M
            faces.append((outer[j], outer[j1], inner[j1]))
            faces.append((outer[j], inner[j1], inner[j]))
            patches.extend((2, 2))
    for j in range(M):
        faces.append((rows[-1][j], rows[-1][(j + 1) % M], center))
        patches.append(2)

    v = make_varifold(
        np.asarray(verts), np.asarray(faces, dtype=np.int64),
        face_patches=np.asarray(patches, dtype=np.int64),
    )
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
            {"point": [float(c) for c in verts[apex_up]], "density": 1.0, "label": "cap apex"},
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
    if level < 0:
        raise ValueError("level must be >= 0")
    n = 3 * 2**level
    pool = _Weld(1e-9)
    faces: list[tuple[int, int, int]] = []
    patches: list[int] = []

    # Quarter-patch rows (theta ascending from the rim at pi/3).  The patch
    # collapses to the mid-sheet pole at theta = 5pi/6, so the column count
    # shrinks with the row width (subdivided-triangle connectivity): uniform
    # columns would degenerate into slivers whose discrete curvature blows up
    # under refinement.
    qverts: list[list[np.ndarray]] = []
    for k in range(n + 1):
        th = math.pi / 3.0 + (math.pi / 2.0) * k / n
        phi_t = math.acos(max(-1.0, min(1.0, -(1.0 / math.sqrt(3.0)) / math.tan(th))))
        mk = n - k
        row = []
        for j in range(mk + 1):
            ph = -phi_t * j / mk if mk else 0.0
            st, ct = math.sin(th), math.cos(th)
            p = np.array([
                -st * math.sin(ph),
                0.5 * st * math.cos(ph) - math.sqrt(3.0) / 2.0 * ct,
                math.sqrt(3.0) / 2.0 * st * math.cos(ph) + 0.5 * ct,
            ])
            if j == 0:
                p[0] = 0.0
            if j == mk:
                p[2] = 0.0
            row.append(p)
        qverts.append(row)

    def emit_sheet(transform: Callable[[np.ndarray], np.ndarray], flip: bool, patch: int) -> list[int]:
        """Add one transformed quarter; returns the rim row's pool indices."""
        rows = [[pool.add(transform(p)) for p in row] for row in qverts]
        for k in range(n):
            a, b = rows[k], rows[k + 1]  # len(a) = n-k+1, len(b) = n-k
            mk = n - k
            for j in range(mk):
                tri = (a[j], b[j], a[j + 1])
                faces.append(tri[::-1] if flip else tri)
                patches.append(patch)
            for j in range(mk - 1):
                tri = (a[j + 1], b[j], b[j + 1])
                faces.append(tri[::-1] if flip else tri)
                patches.append(patch)
        return rows[0]

    mirror_x = lambda p: p * np.array([-1.0, 1.0, 1.0])  # noqa: E731
    mirror_z = lambda p: p * np.array([1.0, 1.0, -1.0])  # noqa: E731

    rim_arcs: list[list[int]] = []  # junction polyline (x2 -> N/S -> x1) per sheet copy
    for turns in range(3):
        rot = lambda p, t=turns: _tb_rotate(p, t)  # noqa: E731
        r_pp = emit_sheet(lambda p: rot(p), False, turns)
        r_mp = emit_sheet(lambda p: rot(mirror_x(p)), True, turns)
        emit_sheet(lambda p: rot(mirror_z(p)), True, turns)
        emit_sheet(lambda p: rot(mirror_x(mirror_z(p))), False, turns)
        if turns == 0:
            # arc A on circle(12): x2 .. N .. x1 (the rim rows share index 0 = N)
            rim_arcs.append(list(reversed(r_mp)) + r_pp[1:])

    # flat disks: transfinite patch between arc A and the axis chord x2 -> x1
    arc = rim_arcs[0]
    K = len(arc) - 1  # = 2m
    L = max(4, math.ceil(0.4 * n))
    half = math.sqrt(2.0 / 3.0)
    a_pts = pool.array()[arc].copy()
    q_pts = np.zeros((K + 1, 3))
    q_pts[:, 0] = half * (2.0 * np.arange(K + 1) / K - 1.0)
    q_pts[:, 1] = _TB_G[1]

    def emit_flat(transform: Callable[[np.ndarray], np.ndarray], flip: bool, patch: int) -> None:
        rows = []
        for k in range(L + 1):
            t = k / L
            layer = (1.0 - t) * a_pts + t * q_pts
            layer[0] = q_pts[0]
            layer[-1] = q_pts[-1]
            if k == L:
                layer = q_pts
            rows.append([pool.add(transform(p)) for p in layer])
        # quad sweep with degenerate-aware corner columns
        for k in range(L):
            a, b = rows[k], rows[k + 1]
            for j in range(K):
                quad = (a[j], a[j + 1], b[j + 1], b[j])
                tris = []
                if quad[0] == quad[3]:  # degenerate left column
                    tris.append((quad[0], quad[1], quad[2]))
                elif quad[1] == quad[2]:  # degenerate right column
                    tris.append((quad[0], quad[1], quad[3]))
                else:
                    tris.append((quad[0], quad[1], quad[2]))
                    tris.append((quad[0], quad[2], quad[3]))
                for tri in tris:
                    if len({tri[0], tri[1], tri[2]}) == 3:
                        faces.append(tri[::-1] if flip else tri)
                        patches.append(patch)

    emit_flat(lambda p: p, False, 3)
    emit_flat(mirror_z, True, 4)
    emit_flat(lambda p: _tb_rotate(p, 1), False, 5)

    v = make_varifold(
        pool.array(), np.asarray(faces, dtype=np.int64),
        face_patches=np.asarray(patches, dtype=np.int64),
    )
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
    if delta < 0.0:
        raise ValueError("delta must be >= 0")
    if rho0 <= 0.0:
        raise ValueError("rho0 must be positive")
    M = 8 * 2**level
    n = 4 * 2**level
    thetas = TAU * np.arange(M) / M
    verts = [np.zeros(3)]
    rows = []
    for i in range(1, n + 1):
        rho = rho0 * i / n
        s = _smoothstep((rho - rho0 / 3.0) / (rho0 / 3.0))
        psi = 1.0 - float(s)
        zamp = delta * math.exp(-1.0 / (rho * rho)) * psi
        start = len(verts)
        for t in thetas:
            verts.append(np.array([rho * math.cos(2 * t), rho * math.sin(2 * t), zamp * math.cos(t)]))
        rows.append(np.arange(start, start + M))
    faces: list[tuple[int, int, int]] = []
    for j in range(M):
        faces.append((0, rows[0][j], rows[0][(j + 1) % M]))
    for inner, outer in zip(rows[:-1], rows[1:]):
        for j in range(M):
            j1 = (j + 1) % M
            faces.append((inner[j], outer[j], outer[j1]))
            faces.append((inner[j], outer[j1], inner[j1]))

    v = make_varifold(np.asarray(verts), np.asarray(faces, dtype=np.int64))
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

    verts: list[np.ndarray] = []

    def add_ring(s: float, sign: int) -> np.ndarray:
        xy = s * ring_xy
        z = sign * delta * float(eta_of(np.array([s]))[0]) * u_of(xy)
        start = len(verts)
        for k in range(M):
            verts.append(np.array([xy[k, 0], xy[k, 1], z[k]]))
        return np.arange(start, start + M)

    u0 = float(u_of(np.zeros((1, 2)))[0])
    faces: list[tuple[int, int, int]] = []
    patches: list[int] = []
    rim = add_ring(1.0, +1)  # z = 0 exactly (eta vanishes)
    sheet_rows: dict[int, list[np.ndarray]] = {}
    for sign in (+1, -1):
        rows = [add_ring(i / n, sign) for i in range(1, n)]
        rows.append(rim)
        center = len(verts)
        verts.append(np.array([0.0, 0.0, sign * delta * u0]))
        for j in range(M):
            tri = (center, rows[0][j], rows[0][(j + 1) % M])
            faces.append(tri if sign > 0 else tri[::-1])
            patches.append(0 if sign > 0 else 1)
        for inner, outer in zip(rows[:-1], rows[1:]):
            for j in range(M):
                j1 = (j + 1) % M
                t1_ = (inner[j], outer[j], outer[j1])
                t2_ = (inner[j], outer[j1], inner[j1])
                if sign > 0:
                    faces.extend((t1_, t2_))
                else:
                    faces.extend((t1_[::-1], t2_[::-1]))
                patches.extend((0 if sign > 0 else 1,) * 2)
        sheet_rows[sign] = rows

    v = make_varifold(
        np.asarray(verts), np.asarray(faces, dtype=np.int64), oriented=True,
        face_patches=np.asarray(patches, dtype=np.int64),
    )
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
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    M = 8 * 2**level
    n = max(2, round(M / TAU))
    lam = math.sqrt((TAU / M) / math.sin(TAU / M))
    thetas = TAU * np.arange(M) / M
    verts: list[np.ndarray] = [np.zeros(3)]
    rows = []
    for k in range(1, n + 1):
        s = lam * rho * k / n
        start = len(verts)
        for t in thetas:
            verts.append(np.array([s * math.cos(t), s * math.sin(t), 0.0]))
        rows.append(np.arange(start, start + M))
    faces: list[tuple[int, int, int]] = []
    for j in range(M):
        faces.append((0, rows[0][j], rows[0][(j + 1) % M]))
    for inner, outer in zip(rows[:-1], rows[1:]):
        for j in range(M):
            j1 = (j + 1) % M
            faces.append((inner[j], outer[j], outer[j1]))
            faces.append((inner[j], outer[j1], inner[j1]))
    v = make_varifold(np.asarray(verts), np.asarray(faces, dtype=np.int64), oriented=True)
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
    if not 0.0 < r < R:
        raise ValueError("need 0 < r < R")
    nu = 8 * 2**level
    nv = max(6, round(nu * r / R))
    us = TAU * np.arange(nu) / nu
    vs = TAU * np.arange(nv) / nv
    verts = np.empty((nu * nv, 3))
    for i, u in enumerate(us):
        for j, w in enumerate(vs):
            verts[i * nv + j] = (
                (R + r * math.cos(w)) * math.cos(u),
                (R + r * math.cos(w)) * math.sin(u),
                r * math.sin(w),
            )
    faces = []
    for i in range(nu):
        i1 = (i + 1) % nu
        for j in range(nv):
            j1 = (j + 1) % nv
            a, b, c, d = i * nv + j, i1 * nv + j, i1 * nv + j1, i * nv + j1
            faces.append((a, b, c))
            faces.append((a, c, d))
    v = make_varifold(verts, np.asarray(faces, dtype=np.int64), oriented=True)
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
