import dataclasses
import functools
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varifold_lab import _grid, blowup, curvature, generators, mesh, nets
from varifold_lab.blowup import ADMISSIBLE_DENSITIES
from varifold_lab.mesh import DiscreteVarifold, MeshError

TETRA_DENSITY = 3.0 * math.acos(-1.0 / 3.0) / math.pi  # ≈ 1.8245203439081783


def test_ball_mass_rejects_nonpositive_radius(sphere3):
    with pytest.raises(ValueError):
        blowup.ball_mass_ladder(sphere3.varifold, np.zeros(3), [0.0])[0]


def test_ball_mass_monotone_and_additive(sphere3):
    v = sphere3.varifold
    x0 = v.vertices[17]
    radii = np.geomspace(0.02, 3.0, 12)
    masses = blowup.ball_mass_ladder(v, x0, radii)
    assert (np.diff(masses) >= -1e-12).all()
    doubled = DiscreteVarifold(v.vertices, v.faces, 2 * v.multiplicity)
    np.testing.assert_allclose(
        blowup.ball_mass_ladder(doubled, x0, radii), 2 * masses, rtol=0, atol=1e-12
    )


def test_density_on_sphere(sphere4):
    x0 = sphere4.analytic["density_points"][0]["point"]
    rep = blowup.density(sphere4.varifold, x0)
    assert rep.theta == pytest.approx(1.0, abs=0.05)
    assert rep.classification == "1"
    assert rep.model in ("quadratic", "linear")
    assert rep.error_bar < 0.05


def test_density_at_double_bubble_junction(double_bubble4):
    point = double_bubble4.analytic["junction_circles"][0]
    x0 = np.array(point["center"]) + point["radius"] * np.array([1.0, 0.0, 0.0])
    rep = blowup.density(double_bubble4.varifold, x0)
    assert rep.theta == pytest.approx(1.5, abs=0.05)
    assert rep.classification == "3/2"


def test_density_off_support_raises(sphere3):
    with pytest.raises(MeshError, match="not on the support"):
        blowup.density(sphere3.varifold, [0.0, 0.0, 0.0])


def test_density_off_support_beyond_a_face_edge_raises(double_bubble4):
    # distance 0.0513 > 0.5h = 0.0477; read as the plane distance 0.0463
    # beyond a face's edge, the point passed as on the support
    with pytest.raises(MeshError, match="not on the support"):
        blowup.density(double_bubble4.varifold, [-0.961, 0.132, 0.264])


def test_density_trims_sub_resolution_ladder(sphere3):
    x0 = sphere3.varifold.vertices[0]
    h = blowup.local_edge_scale(sphere3.varifold, x0)
    rep = blowup.density(sphere3.varifold, x0, r_max=1.5 * h)
    assert rep.warnings  # the sub-resolution ladder is reported
    assert len(rep.radii) >= 3
    assert rep.theta == pytest.approx(1.0, abs=0.1)


@pytest.mark.parametrize("x0, want", [
    ((1.0, 0.0, 0.0), "0x1.3450d8f67ea87p-4"),
    ((0.3, 0.2, 0.5), "0x1.5e627bf72b608p-4"),
    ((0.0, 0.0, 3.0), "0x1.6e90a30473968p-5"),
])
def test_local_edge_scale_pinned_bits(double_bubble4, x0, want):
    """Recorded as float.hex() when the centroids were gathered by fancy
    indexing (``vertices[faces[:, k]]``)."""
    assert blowup.local_edge_scale(double_bubble4.varifold, x0).hex() == want


@pytest.mark.parametrize(
    "theta, label, residual",
    [
        (1.02, "1", 0.02),
        (1.51, "3/2", 0.01),
        (1.83, "3*acos(-1/3)/pi", abs(1.83 - TETRA_DENSITY)),
    ],
)
def test_classify_density_nearest_value(theta, label, residual):
    got_label, got_resid = blowup.classify_density(theta)
    assert got_label == label
    assert got_resid == pytest.approx(residual, abs=1e-12)


def test_classify_density_unclassified_above_two():
    label, resid = blowup.classify_density(2.3)
    assert label == ">=2 / unclassified"
    assert math.isnan(resid)


def test_classify_density_rejects_sub_half():
    with pytest.raises(ValueError):
        blowup.classify_density(0.2)


def test_classification_scale_invariant(sphere3):
    x0 = np.asarray(sphere3.analytic["density_points"][0]["point"])
    base = blowup.density(sphere3.varifold, x0).classification
    for lam in (0.1, 10.0):
        v = sphere3.varifold
        scaled = DiscreteVarifold(lam * v.vertices, v.faces, v.multiplicity)
        assert blowup.density(scaled, lam * x0).classification == base


def test_monotonicity_on_sphere(sphere3, rng):
    v = sphere3.varifold
    for _ in range(10):
        x0 = v.vertices[rng.integers(0, v.num_vertices)]
        s = float(rng.uniform(0.2, 1.5))
        r = float(rng.uniform(0.1, 0.9)) * s
        rep = blowup.monotonicity_check(v, x0, r, s)
        assert rep.passed, rep.slack


def test_monotonicity_reports_keep_their_bytes():
    # sha256 of 30 seeded reports, recorded while monotonicity_check formed
    # |H|^2 A and its own vertex mask on every call
    rng = np.random.default_rng(20)
    reports = []
    for v in (generators.gen_cap(1.0, 1.2, 3).varifold, generators.gen_double_bubble(0.7, 1.0, 3).varifold,
              generators.gen_triple_bubble(2).varifold):
        diag = float(np.linalg.norm(v.vertices.max(axis=0) - v.vertices.min(axis=0)))
        for _ in range(10):
            x0 = v.vertices[rng.integers(v.num_vertices)]
            s = float(rng.uniform(0.05, 0.8)) * diag
            r = float(rng.uniform(0.01, 0.99)) * s
            reports.append(blowup.monotonicity_check(v, x0, r, s).to_dict())
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == "6c3f47ff430ce53757356b41bf7558e4cd887f6eb73fcc5bb7e5190c47bd081c"


def test_monotonicity_rejects_bad_radii(sphere3):
    with pytest.raises(ValueError):
        blowup.monotonicity_check(sphere3.varifold, np.zeros(3), 0.5, 0.5)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call, message", [
    (lambda v: blowup.classify_density(NAN), "theta=nan is not a varifold density"),
    (lambda v: blowup.monotonicity_check(v, [NAN, 0.0, 0.0], 0.1, 0.5), "must be finite"),
    (lambda v: blowup.spherical_link(v, [NAN, 0.0, 0.0], 0.3), "must be finite"),
    (lambda v: blowup.spherical_link(v, v.vertices[0], NAN), "must be finite"),
    (lambda v: blowup.spherical_link(v, v.vertices[0], INF), "must be finite"),
    (lambda v: blowup.ball_mass_ladder(v, 0, [NAN])[0], "must be finite"),
    (lambda v: blowup.ball_mass_ladder(v, v.vertices[0], [0.1, INF]), "must be finite"),
    (lambda v: blowup.density(v, [NAN, 0.0, 0.0]), "not on the support"),
], ids=["classify-nan", "monotonicity-nan-center", "link-nan-center", "link-nan-radius",
        "link-inf-radius", "ball-mass-nan-radius", "ladder-inf-radius", "density-nan-center"])
def test_non_finite_input_is_rejected(sphere3, call, message):
    with pytest.raises(ValueError, match=message):
        call(sphere3.varifold)


def test_spherical_link_rejects_a_zero_radius(sphere3):
    v = sphere3.varifold
    with pytest.raises(ValueError, match="^link radius must be positive$"):
        blowup.spherical_link(v, v.vertices[0], 0.0)


@pytest.mark.parametrize("x", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", [curvature.point_surface_distance, blowup.local_edge_scale],
                         ids=["distance", "edge-scale"])
def test_non_finite_center_is_rejected(sphere3, call, x):
    with pytest.raises(ValueError, match=r"center must be finite, got \[(nan|-?inf), 0.0, 0.0\]"):
        call(sphere3.varifold, [x, 0.0, 0.0])


def test_li_yau_on_sphere(sphere4):
    pts = [p["point"] for p in sphere4.analytic["density_points"]]
    rep = blowup.li_yau_check(sphere4.varifold, pts)
    assert rep.passed
    assert abs(rep.gap) < 0.05  # equality case: Θ = 1 = W/4π


def test_li_yau_needs_closed_mesh():
    disk = generators.gen_flat_disk(1.0, 3).varifold
    with pytest.raises(MeshError, match="closed"):
        blowup.li_yau_check(disk, [[0.0, 0.0, 0.0]])


def test_spherical_link_of_sphere_is_great_circle(sphere4):
    v = sphere4.varifold
    x0 = v.vertices[31]
    r = 6.0 * blowup.local_edge_scale(v, x0)
    link = blowup.spherical_link(v, x0, r)
    assert link.junction_count == 0
    assert len(link.polylines) == 1
    # Rescaled by 1/r, the slice of a curved sheet is short of a great circle
    # by O(r^2); at this radius that is a few percent.
    assert link.total_length == pytest.approx(2 * math.pi, rel=0.04)
    assert nets.match_link(link)["match"] == "great circle"
    for poly in link.polylines:
        np.testing.assert_allclose(np.linalg.norm(poly, axis=1), 1.0, atol=1e-12)


def test_spherical_link_density_agrees_with_ladder(double_bubble4):
    v = double_bubble4.varifold
    point = double_bubble4.analytic["junction_circles"][0]
    x0 = np.array(point["center"]) + point["radius"] * np.array([1.0, 0.0, 0.0])
    r = 6.0 * blowup.local_edge_scale(v, x0)
    link = blowup.spherical_link(v, x0, r)
    theta = blowup.density(v, x0).theta
    assert link.density_estimate == pytest.approx(theta, abs=0.02 * theta)


def _face_circle_arcs_loop(p2d: np.ndarray, rho: float) -> list[tuple[float, float]]:
    """The per-face scalar loop that ``blowup._circle_arcs`` replaced, kept as its oracle."""

    def inside(q):
        for k in range(3):
            a, b = p2d[k], p2d[(k + 1) % 3]
            if (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0]) < -1e-12:
                return False
        return True

    angles: list[float] = []
    for k in range(3):
        p0 = p2d[k]
        d = p2d[(k + 1) % 3] - p0
        dd = float(d @ d)
        if dd < 1e-300:
            continue
        p0d = float(p0 @ d)
        disc = p0d * p0d - dd * (float(p0 @ p0) - rho * rho)
        if disc <= 1e-12 * dd * rho * rho:
            continue
        sq = math.sqrt(disc)
        for t in ((-p0d - sq) / dd, (-p0d + sq) / dd):
            if 0.0 <= t <= 1.0:
                q = p0 + t * d
                angles.append(math.atan2(q[1], q[0]))
    if not angles:
        return [(0.0, 2.0 * math.pi)] if inside(np.array([rho, 0.0])) else []
    angles.sort()
    out = []
    for i, a0 in enumerate(angles):
        a1 = angles[(i + 1) % len(angles)]
        if i + 1 == len(angles):
            a1 += 2.0 * math.pi
        mid = 0.5 * (a0 + a1)
        if inside(np.array([rho * math.cos(mid), rho * math.sin(mid)])):
            out.append((a0, a1 - a0))
    return out


def test_circle_arcs_match_the_scalar_loop_bit_for_bit():
    rng = np.random.default_rng(17)
    P = rng.uniform(-1.5, 1.5, size=(2000, 3, 2))
    e1, e2 = P[:, 1] - P[:, 0], P[:, 2] - P[:, 0]
    cw = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] < 0
    P[cw] = P[cw][:, ::-1]
    P[:50] *= 0.1  # circles around small triangles, and circles inside large ones
    P[50:100] *= 20.0
    P[100:110, 1] = P[100:110, 0]  # a zero-length edge
    rho = rng.uniform(0.05, 2.0, size=2000)
    row, theta0, dtheta = blowup._circle_arcs(P, rho)
    got = [[] for _ in rho]
    for i, a, w in zip(row.tolist(), theta0.tolist(), dtheta.tolist()):
        got[i].append((a, w))
    want = [_face_circle_arcs_loop(p, r) for p, r in zip(P, rho.tolist())]
    assert [[(x.hex(), y.hex()) for x, y in arcs] for arcs in got] == \
        [[(x.hex(), y.hex()) for x, y in arcs] for arcs in want]
    assert sum(map(len, want)) > 1000 and sum(arcs == [(0.0, 2.0 * math.pi)] for arcs in want) > 10


def _no_faces() -> DiscreteVarifold:
    return mesh.make_varifold(np.eye(3), np.zeros((0, 3), dtype=np.int64))


@pytest.mark.parametrize("call", [
    lambda v: blowup.density(v, [0.0, 0.0, 0.0]),
    lambda v: blowup.ball_mass_ladder(v, [0.0, 0.0, 0.0], [0.5, 1.0]),
    lambda v: blowup.local_edge_scale(v, [0.0, 0.0, 0.0]),
], ids=["density", "ball_mass_ladder", "local_edge_scale"])
def test_no_faces_is_a_mesh_error(call, capfd):
    with pytest.raises(MeshError, match="varifold has no faces"):
        call(_no_faces())
    assert capfd.readouterr().err == ""


def test_spherical_link_of_no_faces_is_empty():
    v = _no_faces()
    assert len(v.face_grid.cells) == 0 and len(v.face_grid.face_cell) == 0
    link = blowup.spherical_link(v, np.zeros(3), 0.5)
    assert link.polylines == () and link.total_length == 0.0 and link.junction_count == 0


def test_spherical_link_misses_support():
    v = generators.gen_sphere(1.0, 3).varifold
    link = blowup.spherical_link(v, np.array([5.0, 0.0, 0.0]), 0.5)
    assert link.total_length == 0.0
    assert link.polylines == ()


def _four_half_planes(n: int = 10, dirs=((1, 0), (0, 1), (-1, 0), (0, -1))) -> DiscreteVarifold:
    """Four half-planes {t d + z e3 : 0 <= t <= 1, |z| <= 1}, d = ±e1, ±e2 (or
    ``dirs``), on a grid of pitch 1/n; the z-axis is an edge chain with four
    faces per edge."""
    z = np.linspace(-1.0, 1.0, 2 * n + 1)
    t = np.linspace(0.0, 1.0, n + 1)[1:]
    verts = [np.stack([np.zeros_like(z), np.zeros_like(z), z], axis=1)]
    faces = []
    for dx, dy in dirs:
        tt, zz = np.meshgrid(t, z)
        idx = np.hstack([np.arange(len(z))[:, None],
                         sum(map(len, verts)) + np.arange(tt.size).reshape(tt.shape)])
        verts.append(np.stack([dx * tt.ravel(), dy * tt.ravel(), zz.ravel()], axis=1))
        a, b, c, d = idx[:-1, :-1], idx[:-1, 1:], idx[1:, 1:], idx[1:, :-1]
        faces += [np.stack([a, b, c], axis=-1).reshape(-1, 3), np.stack([a, c, d], axis=-1).reshape(-1, 3)]
    return mesh.make_varifold(np.vstack(verts), np.vstack(faces))


def test_link_walk_goes_straight_through_four_end_nodes():
    """Two crossing planes: the link is two great circles that cross at two
    four-end nodes. A walk that comes back to its start node must stop there,
    not turn onto the other circle."""
    link = blowup.spherical_link(_four_half_planes(), np.array([0.0, 0.0, 0.05]), 0.3)
    assert link.junction_count == 2
    assert len(link.polylines) == 2
    assert link.total_length == pytest.approx(4.0 * math.pi, rel=1e-14)
    # one circle in the plane x = 0, one in y = 0, each closed
    assert sorted(int(np.argmin(np.abs(p).max(axis=0))) for p in link.polylines) == [0, 1]
    for p in link.polylines:
        np.testing.assert_allclose(p[0], p[-1], atol=1e-12)
    # recorded with the walk that stops when the straight end is taken
    assert _link_digest(link) == "845e4c3342f189936a02404aa4cc01d39cd7c7b18525af8afa3bd5911c78f377"


def _sample_arc(rho, foot, e1, e2, theta0, dtheta, r) -> np.ndarray:
    npts = max(2, int(math.ceil(dtheta / 0.1)) + 1)
    t = theta0 + np.linspace(0.0, dtheta, npts)
    pts = foot[None, :] + rho * (np.cos(t)[:, None] * e1[None, :] + np.sin(t)[:, None] * e2[None, :])
    u = pts / r
    u /= np.linalg.norm(u, axis=1)[:, None]
    return u


def _chain_arcs_oracle(arcs, r, last_max=False) -> tuple[list[np.ndarray], int]:
    """The per-arc sampling and the walk over dicts keyed by (arc, end) that
    ``blowup._sample_arcs`` and ``blowup._chain_arcs`` replaced, kept as their
    oracle; ``last_max`` lets the last of equal ends win at four-end nodes."""
    samples = [_sample_arc(*a, r) for a in arcs]
    closed = [a[5] >= 2.0 * math.pi - 1e-9 for a in arcs]
    ends = []  # (arc index, which end, point)
    for i, (s, cl) in enumerate(zip(samples, closed)):
        if not cl:
            ends.append((i, 0, s[0]))
            ends.append((i, 1, s[-1]))
    nodes = mesh._weld(np.array([p for _, _, p in ends]), 1e-5)[0].tolist()
    node_of = {(i, w): nd for (i, w, _), nd in zip(ends, nodes)}
    degree = [0] * (max(nodes, default=-1) + 1)
    for nd in nodes:
        degree[nd] += 1
    incident: dict[int, list[tuple[int, int]]] = {}
    for (i, w), nd in node_of.items():
        incident.setdefault(nd, []).append((i, w))
    used = list(closed)
    polylines = [s for s, cl in zip(samples, closed) if cl]

    def heading(i: int, w: int, outward: bool) -> np.ndarray:
        s = samples[i]
        d = (s[1] - s[0]) if w == 0 else (s[-2] - s[-1])
        d = d if outward else -d
        n = np.linalg.norm(d)
        return d / n if n > 0 else d

    def walk(i0: int, w0: int) -> np.ndarray:
        pts = [samples[i0] if w0 == 0 else samples[i0][::-1]]
        used[i0] = True
        cur, went = i0, 1 - w0
        while True:
            nd = node_of[(cur, went)]
            others = [jw for jw in incident[nd] if jw != (cur, went)]
            if degree[nd] == 2:
                nxt, wn = others[0]
            elif degree[nd] == 4:
                inc = heading(cur, went, outward=False)
                nxt, wn = max(others[::-1] if last_max else others,
                              key=lambda jw: float(inc @ heading(jw[0], jw[1], outward=True)))
            else:
                break
            if used[nxt]:
                break
            used[nxt] = True
            seg = samples[nxt] if wn == 0 else samples[nxt][::-1]
            pts.append(seg[1:])
            cur, went = nxt, 1 - wn
        return np.vstack(pts)

    for nd, deg in enumerate(degree):
        if deg != 2:
            for (i, w) in incident[nd]:
                if not used[i]:
                    polylines.append(walk(i, w))
    for i in range(len(samples)):
        if not used[i]:
            polylines.append(walk(i, 0))
    return polylines, sum(1 for d in degree if d >= 3)


def _link_and_oracle(v, x0, r, last_max=False) -> tuple[str, str]:
    """JSON of spherical_link(v, x0, r), and of the same link chained by the oracle."""
    seen = []
    sample_arcs = blowup._sample_arcs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blowup, "_sample_arcs", lambda *a: seen.append(a) or sample_arcs(*a))
        link = blowup.spherical_link(v, np.asarray(x0, dtype=np.float64), r)
    rho, foot, e1, e2, theta0, dtheta, _ = seen[0]
    arcs = list(zip(rho.tolist(), foot, e1, e2, theta0.tolist(), dtheta.tolist()))
    polylines, junctions = _chain_arcs_oracle(arcs, r, last_max)
    want = dataclasses.replace(link, polylines=tuple(polylines), junction_count=junctions)
    return json.dumps(link.to_dict()), json.dumps(want.to_dict())


@functools.cache
def _oracle_meshes() -> dict[str, DiscreteVarifold]:
    return {
        "sphere3": generators.gen_sphere(1.0, 3).varifold,
        "torus3": generators.gen_torus(2.0, 0.7, 3).varifold,
        "double_bubble3": generators.gen_double_bubble(0.7, 1.0, 3).varifold,
        "triple_bubble2": generators.gen_triple_bubble(2).varifold,
        "four_half_planes": _four_half_planes(),
    }


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["sphere3", "torus3", "double_bubble3", "triple_bubble2", "four_half_planes"]),
       i=st.integers(0, 10**6), dx=st.tuples(*[st.floats(-0.02, 0.02)] * 3), r=st.floats(0.05, 1.0))
def test_link_chain_matches_the_per_arc_oracle(name, i, dx, r):
    v = _oracle_meshes()[name]
    got, want = _link_and_oracle(v, v.vertices[i % v.num_vertices] + np.array(dx), r)
    assert got == want


@pytest.mark.parametrize("x0, r", [((0.0, 0.0, 0.05), 0.3), ((0.03, 0.0, -0.2), 0.5),
                                   ((-0.1, 0.0, 0.3), 0.6)])
def test_link_chain_breaks_exact_four_end_ties_like_the_oracle(x0, r):
    """Half-planes at 0°, 150°, 210° and 270° about the z-axis, the two at
    150° and 210° mirror images in y, and x0 in the plane y = 0: a walk that
    arrives from the half-plane at 0° meets two ends with equal dot products,
    and the first of them wins."""
    c = -math.sqrt(3.0) / 2.0
    v = _four_half_planes(dirs=((1.0, 0.0), (c, 0.5), (c, -0.5), (0.0, -1.0)))
    got, want = _link_and_oracle(v, x0, r)
    assert got == want != _link_and_oracle(v, x0, r, last_max=True)[1]


_BIG_TRIANGLE = [[-2.0, -2.0, 0.0], [3.0, -1.0, 0.0], [0.0, 3.0, 0.0]]


def test_link_of_a_circle_inside_one_face_is_one_closed_polyline():
    """The sphere meets the plane z = 0 in a circle that crosses no edge."""
    v = mesh.make_varifold(np.array(_BIG_TRIANGLE), np.array([[0, 1, 2]]))
    link = blowup.spherical_link(v, np.array([0.0, 0.0, 0.1]), 0.2)
    assert [len(p) for p in link.polylines] == [64] and link.junction_count == 0
    assert link.total_length == pytest.approx(2.0 * math.pi * math.sqrt(0.03) / 0.2, rel=1e-15)
    np.testing.assert_allclose(link.polylines[0][0], link.polylines[0][-1], atol=1e-15)
    assert _link_digest(link) == "fd7394c6c658a54e606bae7127ee0ed9e8d77a592ca53cd7899c257f3ad300fb"


def test_link_lists_closed_arcs_before_open_ones():
    """A square in the plane x = 0.1 (faces 0 and 1) cuts the circle into four
    open polylines; the big triangle (face 2) holds one closed circle, which
    comes first although its face comes last."""
    square = [[0.1, -0.15, -0.05], [0.1, 0.15, -0.05], [0.1, 0.15, 0.25], [0.1, -0.15, 0.25]]
    v = mesh.make_varifold(np.array(square + _BIG_TRIANGLE), np.array([[0, 1, 2], [0, 2, 3], [4, 5, 6]]))
    link = blowup.spherical_link(v, np.array([0.0, 0.0, 0.1]), 0.2)
    assert [len(p) for p in link.polylines] == [64, 7, 7, 7, 7] and link.junction_count == 0
    assert _link_digest(link) == "1d015088e47bb44dd52909960e9dc948840eb1f64e9868884178d70ae5e240d9"
    got, want = _link_and_oracle(v, [0.0, 0.0, 0.1], 0.2)
    assert got == want


def _weld_oracle(points, tol):
    """``mesh._weld``'s rule by a linear scan, as (ids, nodes): taken in order,
    a point joins the lowest-numbered node whose first point lies within tol,
    else it starts the next node."""
    ids, nodes = [], []
    for p in np.asarray(points, dtype=np.float64):
        for j, c in enumerate(nodes):
            if np.linalg.norm(c - p) <= tol:
                ids.append(j)
                break
        else:
            ids.append(len(nodes))
            nodes.append(p)
    return ids, np.array(nodes).reshape(-1, 3)


def test_merge_ends_picks_lowest_index_node_within_tol():
    rng = np.random.default_rng(5)
    tol = 1e-5
    for _ in range(20):
        # endpoints clustered around grid-cell corners, within a few tol of them,
        # so that many lie within tol of nodes in neighbouring cells
        corners = rng.integers(-3, 4, size=(6, 3)) * tol
        points = corners[rng.integers(0, 6, size=80)] + rng.uniform(-1.5, 1.5, size=(80, 3)) * tol
        points[::7] = points[1::7][: len(points[::7])]  # exact repeats
        want = _weld_oracle(points, tol)[0]
        assert mesh._weld(points, tol)[0].tolist() == want
        assert len(set(want)) < len(points)


#: unit vectors: the weld's sweep direction, two directions normal to it, the axes
_U = mesh._SWEEP
_V1 = np.cross(_U, [1.0, 0.0, 0.0]) / np.linalg.norm(np.cross(_U, [1.0, 0.0, 0.0]))
_V2 = np.cross(_U, _V1)
_DIRECTIONS = [_U, -_U, _V1, _V2, (_V1 - _V2) / math.sqrt(2.0), *np.eye(3)]


@st.composite
def _clustered_points(draw):
    """(points, tol): seeds with signed zeros, then points made from earlier ones:
    exact repeats, repeats with the signs of their zeros flipped, points at
    tol·(1 ± 1e-9) and other fractions of tol, chains a–b–c with |a − c| > tol,
    and lattices on the plane through a point normal to the sweep direction;
    the order is shuffled."""
    tol = draw(st.sampled_from([1e-9, 1e-5, 0.3]))
    scale = draw(st.sampled_from([1.0, 1e3]))
    coord = st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0)
    points = [np.array(draw(st.tuples(coord, coord, coord))) * scale]
    for _ in range(draw(st.integers(0, 12))):
        p = points[draw(st.integers(0, len(points) - 1))]
        e = _DIRECTIONS[draw(st.integers(0, len(_DIRECTIONS) - 1))]
        kind = draw(st.sampled_from(["seed", "repeat", "zeros", "near", "chain", "plane"]))
        if kind == "seed":
            points.append(np.array(draw(st.tuples(coord, coord, coord))) * scale)
        elif kind == "repeat":
            points.append(p.copy())
        elif kind == "zeros":
            points.append(np.where(p == 0.0, -p, p))
        elif kind == "near":
            f = draw(st.sampled_from([1.0 - 1e-9, 1.0, 1.0 + 1e-9, 0.5, 1.5]))
            points.append(p + tol * f * e)
        elif kind == "chain":
            points += [p + 0.9 * tol * e, p + 1.8 * tol * e]
        else:
            k = draw(st.integers(1, 4))
            grid = np.arange(-k, k + 1) * draw(st.sampled_from([0.4, 0.7, 1.0])) * tol
            points += [p + a * _V1 + b * _V2 for a in grid for b in grid]
    return draw(st.permutations(points)), tol


@settings(max_examples=200, deadline=None)
@given(draw=_clustered_points())
def test_weld_matches_the_linear_scan(draw):
    points, tol = draw
    ids, nodes = mesh._weld(np.array(points), tol)
    want_ids, want_nodes = _weld_oracle(points, tol)
    assert ids.tolist() == want_ids
    assert nodes.tobytes() == want_nodes.tobytes()


def test_weld_finds_pairs_whose_projections_round_apart():
    """Pairs p, p + tol·u far from the origin: the rounding of the projections
    on the sweep direction u can set a pair within tol more than tol apart."""
    rng = np.random.default_rng(7)
    tol = 1e-9
    p = rng.uniform(-1e3, 1e3, size=(500, 3))
    q = p + tol * mesh._SWEEP
    points = np.vstack([p, q])
    near = np.array([np.linalg.norm(b - a) <= tol for a, b in zip(p, q)])
    apart = (q @ mesh._SWEEP) - (p @ mesh._SWEEP) > tol
    assert (near & apart).any() and not near.all()
    ids, nodes = mesh._weld(points, tol)
    want = np.where(near, np.arange(500), 500 + np.cumsum(~near) - 1)
    assert ids.tolist() == list(range(500)) + want.tolist()
    assert nodes.tobytes() == np.vstack([p, q[~near]]).tobytes()


def test_weld_of_a_point_repeated_200_times_matches_the_linear_scan():
    """200 copies of one point, half of them with the signs of their zeros
    flipped, among points near it: the sweep pairs the copies at 199 offsets."""
    rng = np.random.default_rng(11)
    tol = 1e-5
    base = np.array([0.0, -0.0, 0.5])
    copies = np.tile(base, (200, 1))
    copies[rng.random(200) < 0.5, :2] *= -1.0
    near = base + rng.uniform(-2.0, 2.0, size=(60, 3)) * tol
    points = np.vstack([copies, near])[rng.permutation(260)]
    ids, nodes = mesh._weld(points, tol)
    want_ids, want_nodes = _weld_oracle(points, tol)
    assert ids.tolist() == want_ids
    assert nodes.tobytes() == want_nodes.tobytes()


def test_weld_of_no_points_is_empty():
    ids, nodes = mesh._weld(np.zeros((0, 3)), 1e-5)
    assert ids.shape == (0,) and nodes.shape == (0, 3)


@pytest.mark.parametrize("first", [0.0, -0.0])
def test_weld_keeps_the_first_points_bytes(first):
    points = np.array([[first, 0.0, 0.0], [-first, 0.0, 0.0]])
    ids, nodes = mesh._weld(points, 1e-9)
    assert ids.tolist() == [0, 0]
    assert nodes.tobytes() == points[:1].tobytes()


def test_admissible_density_constants():
    labels = [kv[0] for kv in ADMISSIBLE_DENSITIES]
    values = [kv[1] for kv in ADMISSIBLE_DENSITIES]
    assert labels == ["1", "3/2", "3*acos(-1/3)/pi"]
    assert values[2] == pytest.approx(1.8245203439081783, abs=1e-15)


def _link_digest(link) -> str:
    return hashlib.sha256(json.dumps(link.to_dict()).encode()).hexdigest()


_T1 = 2.0 * math.pi / 3.0 - 0.7  # outer-sheet opening of the double bubble with theta2 = 0.7
_X1 = (math.sqrt(2.0 / 3.0), -1.0 / math.sqrt(3.0), 0.0)
_X2 = (-math.sqrt(2.0 / 3.0), -1.0 / math.sqrt(3.0), 0.0)
#: (mesh, level, point, radius) of the eight benchmark links at closed-form
#: density points: a triple line and an apex of the double bubble, two
#: tetrahedral points and a triple line of the triple bubble.
LOCAL_LINKS = [
    ("double_bubble", 5, (1.0, 0.0, 0.0), 0.35),
    ("double_bubble", 5, (0.0, 0.0, (1.0 - math.cos(_T1)) / math.sin(_T1)), 0.35),
    ("triple_bubble", 4, _X1, 0.3),
    ("triple_bubble", 4, _X2, 0.3),
    ("triple_bubble", 4, (0.0, 0.0, 1.0), 0.3),
    ("triple_bubble", 5, _X1, 0.3),
    ("triple_bubble", 5, _X2, 0.3),
    ("triple_bubble", 5, (0.0, 0.0, 1.0), 0.3),
]

#: sha256 of json.dumps(link.to_dict()) for LOCAL_LINKS, recorded with the
#: per-face loop over all faces that the face grid and the array frames replaced.
LOCAL_LINK_DIGESTS = [
    "6365b63f99cabebf354df75db5a065b8cd589a3a2791bcde0dcdae6d2173ef35",
    "176abb9f00e1cbb7647f2dc3c084bf050e6f092e02eb934c597e4dfdda7db667",
    "840b3aac602458c378e78dc86bf4d4a28d9f5285f673f809d627f8c75f98339b",
    "1e2ce9ed61fd7536545e2f85062af97c7fa0d5d4cbc2d23df637dfb68548c0d0",
    "35970b3a812f981bb9dba99020d2d3e7db6f605470c1eda286bb1b8c4a4e3263",
    "2cf18d042ac6322c7bab8bc670ba96f59082eb0573a5f5c6951b1064d5d498cc",
    "a9a3862612b1430bc2d5b17c03a3daf104c5513a825e47e9171b4776f6bd6892",
    "46cf056378f61d88bab3eaf918a96ee857e468d6eb7524caba8f50a26ca08896",
]


def _local_link_digests() -> list[str]:
    built = {}
    out = []
    for name, level, x0, r in LOCAL_LINKS:
        if (name, level) not in built:
            gen = (lambda lv: generators.gen_double_bubble(0.7, 1.0, lv)) if name == "double_bubble" \
                else generators.gen_triple_bubble
            built[name, level] = gen(level).varifold
        out.append(_link_digest(blowup.spherical_link(built[name, level], np.array(x0), r)))
    return out


def test_benchmark_links_keep_their_bytes():
    assert _local_link_digests() == LOCAL_LINK_DIGESTS


#: sha256 of json.dumps(link.to_dict()) at seeded random points near the
#: support and random radii, on a closed sphere, a cap with boundary and a
#: torus; recorded like LOCAL_LINK_DIGESTS.
RANDOM_LINK_DIGESTS = {
    "sphere4": [
        "b168c2ab91ad2eedc2bc32c90f1ac5c1b794f33a29fdcf8ac625c65453c521a0",
        "297c21166ddbd37c187407ad2ea85caeadc014656d3f4ad7936fee78933c1b45",
        "55e6fada6a52d6db05179c355c5d792c9356c60bf6258d2d1da004dcbd75cc0f",
        "69153d8bc67da5aedcc587d46f8157616f91e907ef5b44d0a0fd62a2ed25ed1e",
        "bb8d489c805705a6be2e8063696698b7f8390dd129165772781bda1f05080edf",
    ],
    "cap3": [
        "0dfde4fad271a7d8cd83d131db5a3a25d22e1771d46b58270faf4ce01c225fa6",
        "f2ec892a6219818dbac1d1a66a10efefa825d96574293520f7d167e8d40e2cb5",
        "2fef752c2db03986da7166f12c241f505c88658f415b7120a6289323be5dc94f",
        "0616ac98617bc7c0f61d4e477e8a24501b5aadf95f538dac28ec3c1d03de203e",
        "0b4136c242001dfd01b2572395a284a0f36a9dee67b469286411f30dd77c187e",
    ],
    "torus3": [
        "e1c5a69c87c6dbb737b1b58f9329a3ec37f30e16735d17d05b03ac11d864701c",
        "c3d85a99a3761d1fa7f7de656bd31561539c7c650fe1962121bb9108b4dbe5dd",
        "c4c652f7ae5467a7956c0c6dde39f1c250855699c3fe0360da4adcd91d41bac6",
        "c76476c86e2150309c881e02dc8a4f54a25271b3f55527ad78b378a8c7d02372",
        "3a351ceb8719032b6748da6c905872493c971af342eb9763cff8e66ff47f0a5f",
    ],
}


def _random_link_digests(meshes) -> dict[str, list[str]]:
    rng = np.random.default_rng(2026)
    out = {}
    for name, v in meshes.items():
        out[name] = []
        for _ in range(5):
            x0 = v.vertices[rng.integers(v.num_vertices)] + rng.normal(scale=0.01, size=3)
            r = float(rng.uniform(0.05, 1.5))
            out[name].append(_link_digest(blowup.spherical_link(v, x0, r)))
    return out


def test_random_links_keep_their_bytes(sphere4, torus3):
    meshes = {"sphere4": sphere4.varifold, "cap3": generators.gen_cap(1.0, 1.0, 3).varifold,
              "torus3": torus3.varifold}
    assert _random_link_digests(meshes) == RANDOM_LINK_DIGESTS


def test_face_grid_changes_no_bits_on_a_sparse_cloud(monkeypatch):
    """Distances, masses and links over the grid's faces equal those over every
    face, on 300 small triangles scattered in a cube, where the nearest face
    found first is often not the nearest one."""
    rng = np.random.default_rng(3)
    tri = rng.uniform(0.0, 10.0, size=(300, 1, 3)) + rng.normal(scale=0.1, size=(300, 3, 3))
    v = mesh.make_varifold(tri.reshape(-1, 3), np.arange(900).reshape(-1, 3))
    queries = list(zip(rng.uniform(-1.0, 11.0, size=(100, 3)), rng.uniform(0.05, 3.0, size=100)))

    def run():
        return [(float(curvature.point_surface_distance(v, x0)).hex(),
                 [float(m).hex() for m in blowup.ball_mass_ladder(v, x0, [r, 0.5 * r])],
                 _link_digest(blowup.spherical_link(v, x0, r)))
                for x0, r in queries]

    got = run()
    monkeypatch.setattr(_grid.FaceGrid, "query", lambda self, x0, r, inner=0.0: np.arange(len(self.face_cell)))
    assert run() == got


def test_link_query_holds_every_face_with_an_arc(monkeypatch):
    """On triple bubble L3, at x1, x2, a triple-line point and 50 seeded random
    points, ``_circle_arcs`` finds no arc on the faces that ``spherical_link``'s
    grid query leaves out, so every face with an arc, over all faces, is among
    those it returns; at the three closed-form points it returns under 4% of
    the faces."""
    v = generators.gen_triple_bubble(3).varifold
    rng = np.random.default_rng(11)
    cases = [(np.array(p), 0.3) for p in (_X1, _X2, (0.0, 0.0, 1.0))]
    cases += [(v.vertices[rng.integers(v.num_vertices)] + rng.normal(scale=0.05, size=3),
               float(rng.uniform(0.05, 1.5))) for _ in range(50)]
    query, circle_arcs = _grid.FaceGrid.query, blowup._circle_arcs
    seen = {}  # a query returns seen["faces"] if it is set
    monkeypatch.setattr(_grid.FaceGrid, "query",
                        lambda self, *args, **kwargs: seen.setdefault("faces", query(self, *args, **kwargs)))
    monkeypatch.setattr(blowup, "_circle_arcs", lambda P, rho: seen.setdefault("arcs", circle_arcs(P, rho)))
    for i, (x0, r) in enumerate(cases):
        seen.clear()
        blowup.spherical_link(v, x0, r)
        got, rows = seen["faces"], seen["arcs"][0]
        seen.clear()
        seen["faces"] = np.setdiff1d(np.arange(v.num_faces), got)
        blowup.spherical_link(v, x0, r)
        assert len(seen["arcs"][0]) == 0
        if i < 3:  # the closed-form points: a link, from a small part of the mesh
            assert 0 < len(rows) and len(got) < v.num_faces / 25
