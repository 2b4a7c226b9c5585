import dataclasses
import functools
import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from varifold_lab import _grid, _kernels, blowup, curvature, generators, mesh, nets
from varifold_lab.blowup import ADMISSIBLE_DENSITIES
from varifold_lab.mesh import DiscreteVarifold, MeshError
from varifold_lab.reports import canonical_dumps

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


@pytest.mark.parametrize("make", [
    lambda: generators.gen_sphere(1.0, 4),
    lambda: generators.gen_double_bubble(0.7, 1.0, 5),
    lambda: generators.gen_triple_bubble(4),
], ids=["sphere4", "double_bubble5", "triple_bubble4"])
def test_a_ball_that_holds_the_whole_mesh_has_its_total_mass(make):
    """At 41 vertices and 3 points off the support, a ball that holds every
    face has the mass ``total_mass`` has, bit for bit, alone and atop a ladder
    of balls that cut the mesh: each whole face adds the area of
    ``mesh.face_normals``, and the sums are exact."""
    v = make().varifold
    total = mesh.total_mass(v).hex()
    big = 2.0 * float(np.linalg.norm(v.vertices.max(axis=0) - v.vertices.min(axis=0)))
    centers = [v.vertices[i] for i in np.linspace(0, v.num_vertices - 1, 41).astype(int)]
    centers += [np.zeros(3), np.array([0.3, -0.2, 0.1]), np.array([2.0, 0.0, 0.0])]
    for x0 in centers:
        assert blowup.ball_mass_ladder(v, x0, [big])[0].hex() == total
        assert blowup.ball_mass_ladder(v, x0, [0.1, 0.7, big])[2].hex() == total


def _reference_points(v: DiscreteVarifold, analytic: dict) -> list[np.ndarray]:
    rng = np.random.default_rng(8)
    points = [np.array(p["point"], dtype=float) for p in analytic["density_points"]]
    return points + [v.vertices[i] + rng.normal(scale=0.01, size=3) for i in rng.integers(0, v.num_vertices, 4)]


_REFERENCE_MESHES = {
    "sphere3": lambda: generators.gen_sphere(1.0, 3),
    "double_bubble4": lambda: generators.gen_double_bubble(0.7, 1.0, 4),
    "triple_bubble3": lambda: generators.gen_triple_bubble(3),
}
_LADDERS = [[0.02, 0.05], [0.1, 0.3, 0.35, 0.9], [0.4, 1.5, 2.5, 6.0], [0.05, 0.2, 0.8, 1.6, 3.2, 9.0], [0.3, 9.0]]


@pytest.mark.parametrize("name", sorted(_REFERENCE_MESHES))
def test_the_cell_shortcut_changes_no_bit(monkeypatch, name):
    """Ball masses from a pass over every face, and densities, keep every bit
    whatever the grid's cells: at pitches of 1, 4 and 16 mean face spreads,
    faces and cells are taken whole from the exact sums in other sets, and at
    every pitch some are."""
    gen = _REFERENCE_MESHES[name]()
    v = gen.varifold
    points = _reference_points(v, gen.analytic)
    mult = v.multiplicity.astype(np.float64)
    want = [[_kernels.ball_masses(v.vertices, v.faces, mult, x0, np.array(radii)).tolist() for radii in _LADDERS]
            for x0 in points]
    first = None
    for pitch in (1.0, 4.0, 16.0):
        monkeypatch.setattr(_grid, "_PITCH_SPREADS", pitch)
        fresh = DiscreteVarifold(v.vertices, v.faces, v.multiplicity)
        whole = sum(len(part[0]) for x0 in points for radii in _LADDERS
                    for part in fresh.face_grid.ball(x0, np.array(radii))[1:])
        assert whole > 0
        got = [[blowup.ball_mass_ladder(fresh, x0, radii).tolist() for radii in _LADDERS] for x0 in points]
        assert got == want, pitch
        dens = [blowup.density(fresh, x0).to_dict() for x0 in points[:len(gen.analytic["density_points"])]]
        assert first is None or dens == first, pitch
        first = dens


def test_ball_masses_past_the_exact_bound_keep_their_bits(monkeypatch, double_bubble4):
    """Past ``_kernels._EXACT_TERMS`` faces a mesh has no exact cell sums, and
    ``ball_mass_ladder`` clips every face of the whole cells one by one; past
    it in one call, the kernel adds the held masses with ``math.fsum``. Both
    keep the bits of the exact sums."""
    v = double_bubble4.varifold
    x0, radii = v.vertices[11], np.array([0.3, 0.9, 2.5])
    want = blowup.ball_mass_ladder(v, x0, radii).tolist()
    rs = np.sort(radii)
    _, faces, cells = v.face_grid.ball(x0, rs)
    held = v.grid_masses.held(faces, cells, rs)
    assert len(held[0]) > 99
    mult = v.multiplicity.astype(np.float64)
    direct = _kernels.ball_masses(v.vertices, v.faces[:0], mult[:0], x0, radii, held)
    monkeypatch.setattr(_kernels, "_EXACT_TERMS", 99)
    fresh = DiscreteVarifold(v.vertices, v.faces, v.multiplicity)
    assert fresh.grid_masses is None
    assert blowup.ball_mass_ladder(fresh, x0, radii).tolist() == want
    assert _kernels.ball_masses(v.vertices, v.faces[:0], mult[:0], x0, radii, held).tolist() == direct.tolist()


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
    ((1.0, 0.0, 0.0), "0x1.3450d8f67ea86p-4"),
    ((0.3, 0.2, 0.5), "0x1.5e627bf72b608p-4"),
    ((0.0, 0.0, 3.0), "0x1.6e90a30473968p-5"),
], ids=["x00", "x01", "x02"])  # fixed ids: a re-recorded value keeps its test's name
def test_local_edge_scale_pinned_bits(double_bubble4, x0, want):
    """Recorded as float.hex() when the centroids were gathered by fancy
    indexing (``vertices[faces[:, k]]``); re-recorded when the mean became the
    correctly rounded sum over n, which moved the first by 1 ulp."""
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
    # |H|^2 A and its own vertex mask on every call; re-recorded when whole faces
    # took the areas of mesh.face_normals: reports 10, 19 and 29 moved, lhs by 1
    # ulp and slack by 2, and no pass flag changed
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
    assert digest == "332a3293c9f905a99be9616c9bd7f01ec165f73c6752bc79afc802c6df046068"


def test_monotonicity_rejects_bad_radii(sphere3):
    with pytest.raises(ValueError):
        blowup.monotonicity_check(sphere3.varifold, np.zeros(3), 0.5, 0.5)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call, message", [
    (lambda v: blowup.classify_density(NAN), "theta=nan is not a varifold density"),
    (lambda v: blowup.monotonicity_check(v, [NAN, 0.0, 0.0], 0.1, 0.5), "must be finite"),
    (lambda v: blowup.spherical_link(v, [NAN, 0.0, 0.0], 0.3), "must be finite"),
    (lambda v: blowup.spherical_link(v, v.vertices[0], NAN), "must be positive and finite"),
    (lambda v: blowup.spherical_link(v, v.vertices[0], INF), "must be positive and finite"),
    (lambda v: blowup.ball_mass_ladder(v, 0, [NAN])[0], "must be finite"),
    (lambda v: blowup.ball_mass_ladder(v, v.vertices[0], [0.1, INF]), "must be finite"),
    (lambda v: blowup.density(v, [NAN, 0.0, 0.0]), "must be finite"),
], ids=["classify-nan", "monotonicity-nan-center", "link-nan-center", "link-nan-radius",
        "link-inf-radius", "ball-mass-nan-radius", "ladder-inf-radius", "density-nan-center"])
def test_non_finite_input_is_rejected(sphere3, call, message):
    with pytest.raises(ValueError, match=message):
        call(sphere3.varifold)


def test_spherical_link_rejects_a_zero_radius(sphere3):
    v = sphere3.varifold
    with pytest.raises(ValueError, match="^spherical_link: r must be positive and finite, not 0.0$"):
        blowup.spherical_link(v, v.vertices[0], 0.0)


@pytest.mark.parametrize("call, message", [
    (lambda v, x: blowup.spherical_link(v, x, True), "spherical_link: r must be a number, not True"),
    (lambda v, x: blowup.spherical_link(v, x, "0.3"), "spherical_link: r must be a number, not '0.3'"),
    (lambda v, x: blowup.density(v, x, r_max=True), "density: r_max must be a number, not True"),
    (lambda v, x: blowup.density(v, x, r_max=-1.0), "density: r_max must be positive and finite, not -1.0"),
    (lambda v, x: blowup.monotonicity_check(v, x, NAN, 0.5),
     "monotonicity_check: r must be positive and finite, not nan"),
    (lambda v, x: blowup.monotonicity_check(v, x, 0.1, INF),
     "monotonicity_check: s must be positive and finite, not inf"),
    (lambda v, x: blowup.monotonicity_check(v, x, 0.1, 0.5, eps=NAN),
     "monotonicity_check: eps must be finite and >= 0, not nan"),
    (lambda v, x: blowup.li_yau_check(v, [x], eps=NAN),
     "li_yau_check: eps must be finite and >= 0, not nan"),
    (lambda v, x: blowup.li_yau_check(v, [[NAN, 0.0, 0.0]]),
     "li_yau_check: sample_points[0] must be finite, not [nan, 0.0, 0.0]"),
], ids=["link-bool-radius", "link-string-radius", "density-bool-r-max", "density-negative-r-max",
        "monotonicity-nan-r", "monotonicity-inf-s", "monotonicity-nan-eps", "li-yau-nan-eps", "li-yau-nan-point"])
def test_a_length_or_tolerance_out_of_range_is_rejected_by_name(sphere3, caplog, call, message):
    v = sphere3.varifold
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(v, v.vertices[0])
    assert caplog.records == []  # rejected before any warning, such as density's under-resolved ladder


#: The functions that take a center, each with the short name of its rows below.
CENTER_CALLS = {
    "ball_mass_ladder": ("ball-mass", lambda v, x: blowup.ball_mass_ladder(v, x, [0.1])),
    "density": ("density", blowup.density),
    "monotonicity_check": ("monotonicity", lambda v, x: blowup.monotonicity_check(v, x, 0.1, 0.5)),
    "spherical_link": ("link", lambda v, x: blowup.spherical_link(v, x, 0.3)),
    "local_edge_scale": ("edge-scale", blowup.local_edge_scale),
    "point_surface_distance": ("distance", curvature.point_surface_distance),
}


@pytest.mark.parametrize("x", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", CENTER_CALLS, ids=[short for short, _ in CENTER_CALLS.values()])
def test_non_finite_center_is_rejected(sphere3, name, x):
    with pytest.raises(ValueError, match=rf"^{name}: x0 must be finite, not \[{x}, 0.0, 0.0\]$"):
        CENTER_CALLS[name][1](sphere3.varifold, [x, 0.0, 0.0])


@pytest.mark.parametrize("x, message", [
    ([0.0, 1.0], "must be 3 numbers, not [0.0, 1.0]"),
    ([[0.0, 0.0, 1.0]], "must be 3 numbers, not [[0.0, 0.0, 1.0]]"),
    (0.5, "must be 3 numbers, not 0.5"),
    ([1.0, 0.0, 0.0, 0.0], "must be 3 numbers, not [1.0, 0.0, 0.0, 0.0]"),
    ([True, False, False], "must be 3 numbers, not [True, False, False]"),
    (["1", "0", "0"], "must be 3 numbers, not ['1', '0', '0']"),
], ids=["two", "one-row", "scalar", "four", "booleans", "strings"])
@pytest.mark.parametrize("name", CENTER_CALLS)
def test_a_center_that_is_not_3_numbers_is_rejected_by_name(sphere3, name, x, message):
    with pytest.raises(ValueError, match=f"^{name}: x0 {re.escape(message)}$"):
        CENTER_CALLS[name][1](sphere3.varifold, x)


@pytest.mark.parametrize("points, where", [
    ([[1.0, 0.0, 0.0], [0.0, 1.0]], "sample_points\\[1\\]"),
    ([[[1.0, 0.0, 0.0]]], "sample_points\\[0\\]"),
])
def test_li_yau_rejects_a_sample_point_that_is_not_3_numbers(sphere3, points, where):
    with pytest.raises(ValueError, match=f"^li_yau_check: {where} must be 3 numbers"):
        blowup.li_yau_check(sphere3.varifold, points)


@pytest.mark.parametrize("points", [[], np.empty((0, 3))], ids=["list", "array"])
def test_li_yau_rejects_no_sample_points(sphere3, points):
    # a maximum over no samples is no evidence for the bound
    with pytest.raises(ValueError, match="^li_yau_check: sample_points is empty$"):
        blowup.li_yau_check(sphere3.varifold, points)


@pytest.mark.parametrize("radii, shape", [(0.1, "()"), ([[0.1, 0.2]], "(1, 2)"), ([[0.1], [0.2]], "(2, 1)")],
                         ids=["scalar", "row", "column"])
def test_ball_mass_ladder_rejects_radii_that_are_not_1d(sphere3, radii, shape):
    v = sphere3.varifold
    with pytest.raises(ValueError, match=f"^ball_mass_ladder: radii must be 1-D, got shape {re.escape(shape)}$"):
        blowup.ball_mass_ladder(v, v.vertices[0], radii)


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


def _face_circle_arcs_loop(p2d: np.ndarray, rho: float) -> list[tuple[float, float, tuple[int, int]]]:
    """The arcs of the circle |p| = rho inside the CCW triangle p2d (3, 2), as (theta0,
    dtheta, ends) in the order of theta0, by a per-face scalar loop: the circle's crossings
    of the edges are sorted by angle, and each span between consecutive crossings whose
    midpoint lies inside the triangle is an arc; a circle that crosses no edge is one whole
    arc or none. End 2k + j is the j-th root, in the order of t, on edge k. The independent
    oracle of ``_kernels._arcs``, which takes its arcs from the clipping walk instead."""

    def inside(q):
        for k in range(3):
            a, b = p2d[k], p2d[(k + 1) % 3]
            if (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0]) < -1e-12:
                return False
        return True

    crossings: list[tuple[float, int]] = []
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
        for j, t in enumerate(((-p0d - sq) / dd, (-p0d + sq) / dd)):
            if 0.0 <= t <= 1.0:
                q = p0 + t * d
                crossings.append((math.atan2(q[1], q[0]), 2 * k + j))
    if not crossings:
        return [(0.0, 2.0 * math.pi, (0, 0))] if inside(np.array([rho, 0.0])) else []
    crossings.sort()
    out = []
    for i, (a0, end0) in enumerate(crossings):
        a1, end1 = crossings[(i + 1) % len(crossings)]
        if i + 1 == len(crossings):
            a1 += 2.0 * math.pi
        mid = 0.5 * (a0 + a1)
        if inside(np.array([rho * math.cos(mid), rho * math.sin(mid)])):
            out.append((a0, a1 - a0, (end0, end1)))
    return out


def _walk_arcs(P: np.ndarray, rho: np.ndarray) -> list[list[tuple[float, float, tuple[int, int]]]]:
    """``_kernels._arcs`` of the triangles P (m, 3, 2) and circles rho, as lists per row."""
    got = [[] for _ in rho]
    for i, a, w, e in zip(*(x.tolist() for x in _kernels._arcs(*P.reshape(len(P), 6).T, rho))):
        got[i].append((a, w, tuple(e)))
    return got


def test_walk_arcs_match_the_scalar_loop():
    """The walk's arcs are the scalar loop's: the same rows, the same number of arcs and the
    same end names per row, in the same order, with angles within 256 ulps of 2π (measured:
    248.5, on a near-tangent crossing of a triangle scaled by 20; 270 of the 1,568 arcs
    compared are bit-equal). Rows 103, 104 and 109 have an edge of zero length, along which
    the triangle folds back: there the two rules give only arcs of |dtheta| <= 1.6e-15, not
    alike (the walk: none, one, none)."""
    rng = np.random.default_rng(17)
    P = rng.uniform(-1.5, 1.5, size=(2000, 3, 2))
    e1, e2 = P[:, 1] - P[:, 0], P[:, 2] - P[:, 0]
    cw = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] < 0
    P[cw] = P[cw][:, ::-1]
    P[:50] *= 0.1  # circles around small triangles, and circles inside large ones
    P[50:100] *= 20.0
    P[100:110, 1] = P[100:110, 0]  # a zero-length edge
    rho = rng.uniform(0.05, 2.0, size=2000)
    got = _walk_arcs(P, rho)
    want = [_face_circle_arcs_loop(p, r) for p, r in zip(P, rho.tolist())]
    folded = [103, 104, 109]
    for i in folded:
        assert [len(got[i]), len(want[i])] in ([0, 1], [1, 1], [0, 2])
        assert all(abs(w) <= 1.6e-15 for _, w, _ in got[i] + want[i])
    assert [[e for *_, e in arcs] for i, arcs in enumerate(got) if i not in folded] == \
        [[e for *_, e in arcs] for i, arcs in enumerate(want) if i not in folded]
    bound = 256 * math.ulp(2.0 * math.pi)
    for i in set(range(len(rho))) - set(folded):
        for (a, w, _), (b, x, _) in zip(got[i], want[i]):
            assert abs(a - b) <= bound and abs(w - x) <= bound, i
    assert sum(map(len, want)) == 1572 and sum(arcs == [(0.0, 2.0 * math.pi, (0, 0))] for arcs in got) == 31



@pytest.mark.parametrize("corners, rho, want", [
    # a circle inside the triangle: one whole arc; a triangle inside the circle: none;
    # a triangle beside the circle: none
    ([(-3.0, -3.0), (3.0, -3.0), (0.0, 3.0)], 1.0, [(0.0, 2.0 * math.pi, (0, 0))]),
    ([(-0.2, -0.2), (0.2, -0.2), (0.0, 0.2)], 1.0, []),
    ([(2.0, 2.0), (3.0, 2.0), (2.0, 3.0)], 1.0, []),
    # the circle leaves the triangle at its corner (1, 0) and comes back through edge 2 at
    # (-7/25, 24/25); the walk reaches that corner at the end of edge 2's inside piece (5)
    ([(1.0, 0.0), (3.0, 3.0), (-3.0, 3.0)], 1.0, [(0.0, math.atan2(24.0, -7.0), (5, 4))]),
    # the mirror image: the circle comes back through the corner, at the start of edge 0's
    # inside piece (0)
    ([(1.0, 0.0), (-3.0, -3.0), (3.0, -3.0)], 1.0, [(math.atan2(-24.0, -7.0), math.atan2(24.0, -7.0), (1, 0))]),
    # edge 0 is a chord of the circle of radius 5, from (-3, 4) to (3, 4), and the
    # triangle holds the arc above it: the arc runs from the end of edge 0 back to its
    # start, with no empty arc at either corner
    ([(-3.0, 4.0), (3.0, 4.0), (0.0, 30.0)], 5.0,
     [(math.atan2(4.0, 3.0), math.atan2(4.0, -3.0) - math.atan2(4.0, 3.0), (1, 0))]),
    # edge 0 has zero length: corners 0 and 1 coincide, the triangle is a segment walked
    # there and back, and the arcs between its crossings are empty
    ([(0.0, 2.0), (0.0, 2.0), (0.0, -2.0)], 1.0, []),
    ([(0.5, 0.0), (0.5, 0.0), (3.0, 0.0)], 1.0, []),
], ids=["circle-inside", "triangle-inside", "apart", "leaves-at-corner", "comes-back-at-corner",
        "chord-edge", "fold-through-center", "fold-across"])
def test_walk_arcs_of_constructed_triangles(corners, rho, want):
    """Arcs that start or end at a corner on the circle, whole circles, and edges of zero
    length, each against its closed form within 4 ulps of 2π."""
    got = _walk_arcs(np.array([corners], dtype=np.float64), np.array([rho]))[0]
    assert [e for *_, e in got] == [e for *_, e in want]
    for (a, w, _), (b, x, _) in zip(got, want):
        assert abs(a - b) <= 4 * math.ulp(2.0 * math.pi) and abs(w - x) <= 4 * math.ulp(2.0 * math.pi)


def _no_faces() -> DiscreteVarifold:
    return mesh.DiscreteVarifold(np.eye(3), np.zeros((0, 3), dtype=np.int64))


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
    assert len(v.face_grid.cells) == 0 and len(v.face_grid.order) == 0
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
    return mesh.DiscreteVarifold(np.vstack(verts), np.vstack(faces))


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
    assert _link_digest(link) == "21c5ce4c77a651f90ab6654cd6ab79adc0dfb1b669eb0669bf88cbaf55452e7f"


def _sample_arc(rho, foot, e1, e2, theta0, dtheta, r) -> np.ndarray:
    npts = max(2, int(math.ceil(dtheta / 0.1)) + 1)
    t = theta0 + np.linspace(0.0, dtheta, npts)
    pts = foot[None, :] + rho * (np.cos(t)[:, None] * e1[None, :] + np.sin(t)[:, None] * e2[None, :])
    u = pts / r
    u /= np.linalg.norm(u, axis=1)[:, None]
    return u


def _weld_oracle(points, tol) -> list[int]:
    """Geometric node ids of points: taken in order, a point joins the
    lowest-numbered node whose first point lies within tol, else it starts
    the next node."""
    ids, nodes = [], []
    for p in np.asarray(points, dtype=np.float64):
        for j, c in enumerate(nodes):
            if np.linalg.norm(c - p) <= tol:
                ids.append(j)
                break
        else:
            ids.append(len(nodes))
            nodes.append(p)
    return ids


def _arc_ends(arcs, r) -> tuple[list[np.ndarray], list[bool], list[tuple[int, int, np.ndarray]]]:
    """Samples and closedness of each arc, and its open ends as (arc, which end, point)."""
    samples = [_sample_arc(*a, r) for a in arcs]
    closed = [a[5] >= 2.0 * math.pi - 1e-9 for a in arcs]
    ends = [(i, w, s[-w]) for i, (s, cl) in enumerate(zip(samples, closed)) if not cl for w in (0, 1)]
    return samples, closed, ends


def _chain_arcs_oracle(arcs, r, last_max=False) -> tuple[list[np.ndarray], int]:
    """The per-arc sampling and the walk over dicts keyed by (arc, end) that
    ``blowup._sample_arcs`` and ``blowup._chain_arcs`` replaced, kept as their
    oracle; ``last_max`` lets the last of equal ends win at four-end nodes.
    Ends within 1e-5 share a node (``_weld_oracle``): where that clustering
    does not depend on the tolerance, it is the clustering by crossed edge.
    An open arc whose two ends share a node is left out: it joins no node and
    forms no polyline, and the other ends are welded again."""
    samples, closed, ends = _arc_ends(arcs, r)
    nodes = _weld_oracle([p for _, _, p in ends], 1e-5)
    node_of = {(i, w): nd for (i, w, _), nd in zip(ends, nodes)}
    loops = {i for i, _ in node_of if node_of[(i, 0)] == node_of[(i, 1)]}
    ends = [end for end in ends if end[0] not in loops]
    nodes = _weld_oracle([p for _, _, p in ends], 1e-5)
    node_of = {(i, w): nd for (i, w, _), nd in zip(ends, nodes)}
    degree = [0] * (max(nodes, default=-1) + 1)
    for nd in nodes:
        degree[nd] += 1
    incident: dict[int, list[tuple[int, int]]] = {}
    for (i, w), nd in node_of.items():
        incident.setdefault(nd, []).append((i, w))
    used = [cl or i in loops for i, cl in enumerate(closed)]
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


def _link_arcs(v, x0, r) -> tuple[blowup.SphericalLink, list[tuple]]:
    """spherical_link(v, x0, r), and its arcs as (rho, foot, e1, e2, theta0, dtheta)."""
    seen = []
    sample_arcs = blowup._sample_arcs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blowup, "_sample_arcs", lambda *a: seen.append(a) or sample_arcs(*a))
        link = blowup.spherical_link(v, np.asarray(x0, dtype=np.float64), r)
    rho, foot, e1, e2, theta0, dtheta, _ = seen[0]
    return link, list(zip(rho.tolist(), foot, e1, e2, theta0.tolist(), dtheta.tolist()))


def _link_and_oracle(v, x0, r, last_max=False) -> tuple[str, str]:
    """JSON of spherical_link(v, x0, r), and of the same link chained by the oracle."""
    link, arcs = _link_arcs(v, x0, r)
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
    """Where the oracle's clustering of the ends is the same at 1e-9 and at
    1e-3, so that no two ends lie between 1e-9 and 1e-3 apart, the ends that
    cross one edge or meet at one vertex are those within 1e-5 of each other.
    Near a vertex the two rules can differ; such draws are pinned in
    ``test_links_near_a_vertex_keep_their_bytes``."""
    v = _oracle_meshes()[name]
    x0 = v.vertices[i % v.num_vertices] + np.array(dx)
    ends = [p for _, _, p in _arc_ends(_link_arcs(v, x0, r)[1], r)[2]]
    assume(_weld_oracle(ends, 1e-9) == _weld_oracle(ends, 1e-3))
    got, want = _link_and_oracle(v, x0, r)
    assert got == want


@pytest.mark.parametrize("name, i, dx, r, junctions, sizes, digest", [
    ("four_half_planes", 0, (0.0, 0.02, 0.0003152315601372864), 1.0, 1, [81, 39, 41],
     "98f77413c667ebda9528649da5bbfb88303baa037b52db9da003ec9780417cb7"),
    ("torus3", 342363, (-0.011124187963797492, -0.007214827307746825, 0.000553718629653966),
     0.33412493081904765, 0, [76], "7d00070c76f4869208bd0cfaf2061716aa6ae805f99c67765b27de93a23dfdbb"),
    ("triple_bubble2", 146614, (0.008015611462651919, 0.0011014872493499764, -0.00993335613835241),
     0.5984638413874648, 2, [51, 54, 48], "8877abc2655b4580ca99e0874a265a3079e2be8099e0830a38a23db2df7dc4c2"),
    ("four_half_planes", 1, (0.0, 0.0, 0.001953125), 0.5, 1, [63, 32, 32],
     "eb61eb651f59ab616b3a4cd2c776358830170c5515d9dd4542a873e73826e378"),
], ids=["four_half_planes-0", "torus3", "triple_bubble2", "four_half_planes-1"])
def test_links_near_a_vertex_keep_their_bytes(name, i, dx, r, junctions, sizes, digest):
    """Spheres that pass within 1.3e-5·r of a mesh vertex, where joining ends
    within 1e-5 of each other and joining them by the edge or vertex they
    cross give different nodes. The ends within 1e-5·r of the vertex are its
    crossing. Joining by distance gave 3, 0, 3 and 5 junctions in 5, 1, 4 and
    7 polylines. On the torus, an arc shorter than 1e-5·r has both ends at
    the vertex: it joins no node and forms no polyline (chained, it made a
    four-end node, one junction). On the last, four arcs of 8e-6
    run from a vertex's crossing to a diagonal edge's, 1.08e-5·r from the
    vertex: by distance each made a four-end node in the middle of a plane."""
    v = _oracle_meshes()[name]
    link = blowup.spherical_link(v, v.vertices[i % v.num_vertices] + np.array(dx), r)
    assert link.junction_count == junctions and [len(p) for p in link.polylines] == sizes
    assert _link_digest(link) == digest


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
    v = mesh.DiscreteVarifold(np.array(_BIG_TRIANGLE), np.array([[0, 1, 2]]))
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
    v = mesh.DiscreteVarifold(np.array(square + _BIG_TRIANGLE), np.array([[0, 1, 2], [0, 2, 3], [4, 5, 6]]))
    link = blowup.spherical_link(v, np.array([0.0, 0.0, 0.1]), 0.2)
    assert [len(p) for p in link.polylines] == [64, 7, 7, 7, 7] and link.junction_count == 0
    assert _link_digest(link) == "22ec6950f64e73ed97936b4ce153b38900c128af9891523f1255d612949dcc87"
    got, want = _link_and_oracle(v, [0.0, 0.0, 0.1], 0.2)
    assert got == want


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
_APEX = (0.0, 0.0, (1.0 - math.cos(_T1)) / math.sin(_T1))  # of the double bubble's outer sheet
#: (mesh, level, point, radius) of the eight benchmark links at closed-form
#: density points: a triple line and an apex of the double bubble, two
#: tetrahedral points and a triple line of the triple bubble.
LOCAL_LINKS = [
    ("double_bubble", 5, (1.0, 0.0, 0.0), 0.35),
    ("double_bubble", 5, _APEX, 0.35),
    ("triple_bubble", 4, _X1, 0.3),
    ("triple_bubble", 4, _X2, 0.3),
    ("triple_bubble", 4, (0.0, 0.0, 1.0), 0.3),
    ("triple_bubble", 5, _X1, 0.3),
    ("triple_bubble", 5, _X2, 0.3),
    ("triple_bubble", 5, (0.0, 0.0, 1.0), 0.3),
]

#: sha256 of json.dumps(link.to_dict()) for LOCAL_LINKS, recorded with the
#: arcs of the clipping walk (``_kernels._arcs``).
LOCAL_LINK_DIGESTS = [
    "9066a2071c1c000f6b3ab4b82a936ba3f9becd8ca27f772183ed04629883ceda",
    "94cc3f34fb2db36e15444f65e4f369e1304c2e39c7601b1d2c256b6179eceb72",
    "42ee6ca7414f722ad0933e942d8567b1c4cdcb0db9c04405905788086291c694",
    "365c0a065b5c4c22c922327d78cd03413c15dd79428647cdf3c4f910b85816f4",
    "762df92c821c3a800f99d76e2a138b246746f8e170e0e089bece3092805f134e",
    "b92d54c52d2bdfb2bd921e40d7b67098ca3e76bd8c95f37c5e473bb3152c75a8",
    "70315ca1d2a3919bc961a8d66449fa672a6df3459ebf39ceb2bd8c98e670e542",
    "6ff0ca06769d1f2e3c313058ccb14a4365ac113e1d18817f723af51627545d27",
]


@functools.cache
def _local_mesh(name: str, level: int) -> DiscreteVarifold:
    if name == "double_bubble":
        return generators.gen_double_bubble(0.7, 1.0, level).varifold
    return generators.gen_triple_bubble(level).varifold


def _local_link_digests() -> list[str]:
    return [_link_digest(blowup.spherical_link(_local_mesh(name, level), np.array(x0), r))
            for name, level, x0, r in LOCAL_LINKS]


def test_benchmark_links_keep_their_bytes():
    assert _local_link_digests() == LOCAL_LINK_DIGESTS


#: sha256 of canonical_dumps(report.to_dict()) for the density reports at the
#: points of LOCAL_LINKS, the bytes the benchmark's density digests hash.
#: Re-recorded when the edge scale became a correctly rounded mean and whole
#: faces took the areas of mesh.face_normals: the fourth, sixth and seventh
#: moved (radii and ratios by 1 ulp, theta by up to 2).
LOCAL_DENSITY_DIGESTS = [
    "38d53000209bcb6b41c1ace7aca5d56f8a9b3efe8d78daf5d06dc921505eb633",
    "2d034615436b87e4ff426b04a9e9aede538e289b758a664d590aa11c88e4019a",
    "72544e10f224bfe7dbc734ab42ef32dcfbd9c8acb321ff1836f1a90f4489b77a",
    "97e04a0d234e0529b91e836b71fcea9d0cf2e03825268410e835b60de7a98906",
    "70d480a16c2d691aa0a580d54d72d217f1209e03aaa3d844c790c8544af57092",
    "e703421a19670c1a632208cc7c7a91d9aafdf14c2d3ad6b1d197c91e82ec19af",
    "8b19119cf4a5da9deaeb5bbdb7c3d36f024159a9ef361996fd64882fdf5d139d",
    "e847d17c9692cfeecca59a68eb17b87ae1add5bfe7de2240e7c10bff5f2bd632",
]


def test_benchmark_densities_keep_their_bytes():
    got = [hashlib.sha256(canonical_dumps(blowup.density(_local_mesh(name, level), np.array(x0)).to_dict())
                          .encode()).hexdigest() for name, level, x0, _ in LOCAL_LINKS]
    assert got == LOCAL_DENSITY_DIGESTS


#: sha256 of json.dumps(link.to_dict()) at seeded random points near the
#: support and random radii, on a closed sphere, a cap with boundary and a
#: torus; recorded like LOCAL_LINK_DIGESTS.
RANDOM_LINK_DIGESTS = {
    "sphere4": [
        "5c166e966da961d4fa0b3da3cdef13b33da0c106a4ccec4dff8f970d23223ec9",
        "b815dd077e886f79791893e907c839dd9aef9106c6625d2a276d97b6aba496b1",
        "374e269da565c8a5ac4252221272d564ae97fdbb4f96428be92d8f5055fb0510",
        "5170cfd447acc158085d9a369ad574fed4ce0285304e3166d6ed2ba757d1171f",
        "5c18532a2a828a2c8fb974928c70dec9aa5233498ccb6b9adb83b9acefa6f9d2",
    ],
    "cap3": [
        "f475fe36e958da60bf0f841ac67b26bc848a87bcc63b7876a92541496bf62915",
        "b1bd21ddb50e9d7cb25d176c3f79a18c7a882115a40739e99a6e86641d55f8f2",
        "2fef752c2db03986da7166f12c241f505c88658f415b7120a6289323be5dc94f",
        "782178bf10d499e7c8f0e75dc6a7502ef62351f8ea3ff25ff838ee791418d878",
        "9489243d6e38a4260543b453cd45ed4e996c330f6eb134517e595e9595c56c46",
    ],
    "torus3": [
        "da41f345e6fdadb7e1498b738a461571b308acf1062ab44378463d953e3919fb",
        "5f88cbc9f972de107a970e8e5dc0e6d76eb9476179fa9596300bcd5cf19dc53f",
        "7f2221d82aee0165158d68b950b37c5011d798cb59866223c1a605ff932cc663",
        "333eb107accf6593a9696b7c0ad5a67043b8bddf199e855d3b43714611a43cb8",
        "fa7588a27a78669e8cdef5311ee209f0c0092f3f915b3763385e7931bf6bed29",
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
    """Distances, masses and links over the grid's faces and cells equal those
    over every face, on 300 small triangles scattered in a cube, where the
    nearest face found first is often not the nearest one."""
    rng = np.random.default_rng(3)
    tri = rng.uniform(0.0, 10.0, size=(300, 1, 3)) + rng.normal(scale=0.1, size=(300, 3, 3))
    v = mesh.DiscreteVarifold(tri.reshape(-1, 3), np.arange(900).reshape(-1, 3))
    queries = list(zip(rng.uniform(-1.0, 11.0, size=(100, 3)), rng.uniform(0.05, 3.0, size=100)))

    def run():
        return [(float(curvature.point_surface_distance(v, x0)).hex(),
                 [float(m).hex() for m in blowup.ball_mass_ladder(v, x0, [r, 0.5 * r])],
                 _link_digest(blowup.spherical_link(v, x0, r)))
                for x0, r in queries]

    got = run()
    none = (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp))
    monkeypatch.setattr(_grid.FaceGrid, "query", lambda self, x0, r, inner=0.0: np.arange(len(self.order)))
    monkeypatch.setattr(_grid.FaceGrid, "ball", lambda self, x0, rs: (np.arange(len(self.order)), none, none))
    assert run() == got


def test_link_query_holds_every_face_with_an_arc(monkeypatch):
    """On triple bubble L3, at x1, x2, a triple-line point and 50 seeded random
    points, ``_kernels._arcs`` finds no arc on the faces that ``spherical_link``'s
    grid query leaves out, so every face with an arc, over all faces, is among
    those it returns; at the three closed-form points it returns under 4% of
    the faces."""
    v = generators.gen_triple_bubble(3).varifold
    rng = np.random.default_rng(11)
    cases = [(np.array(p), 0.3) for p in (_X1, _X2, (0.0, 0.0, 1.0))]
    cases += [(v.vertices[rng.integers(v.num_vertices)] + rng.normal(scale=0.05, size=3),
               float(rng.uniform(0.05, 1.5))) for _ in range(50)]
    query, arcs = _grid.FaceGrid.query, _kernels._arcs
    seen = {}  # a query returns seen["faces"] if it is set
    monkeypatch.setattr(_grid.FaceGrid, "query",
                        lambda self, *args, **kwargs: seen.setdefault("faces", query(self, *args, **kwargs)))
    monkeypatch.setattr(_kernels, "_arcs", lambda *args: seen.setdefault("arcs", arcs(*args)))
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


def _walk_length(v: DiscreteVarifold, x0, r: float) -> float:
    """Σ_f m_f·ρ_f·θ_f / r over every face whose plane meets B(x0, r), with ρ_f the radius of
    the circle in the face plane and θ_f the sum of the outside angles of ``_kernels._walk``,
    the angles whose ½ρ²·θ terms the ball masses sum."""
    va, vb, vc = np.take(v.vertices, v.faces.T, axis=0) - x0
    n = _kernels._cross(vb - va, vc - va)
    rows, rho, *_, corners = _kernels._face_frames(va, vb, vc, n, np.sqrt(_kernels._sq(n)), r)
    *_, into, out, whole = _kernels._walk(*corners, rho)
    theta = sum(a + b + c for a, b, c in zip(into, out, whole))
    return math.fsum((v.multiplicity[rows] * rho * theta / r).tolist())


@pytest.mark.parametrize("make, points", [
    (lambda: generators.gen_sphere(1.0, 4), []),
    (lambda: generators.gen_triple_bubble(3), [_X1, (0.0, 0.0, 1.0)]),
    (lambda: generators.gen_double_bubble(0.7, 1.0, 4), [(1.0, 0.0, 0.0), _APEX]),
    (lambda: generators.gen_torus(1.0, 0.4, 4), []),
], ids=["sphere4", "triple_bubble3", "double_bubble4", "torus4"])
def test_link_length_is_the_walks_arc_length(make, points):
    """The link's length is the clipping walk's arc length, Σ m·ρ·θ/r over the faces, within
    8 ulps (measured: at most 5, on the torus at r = 0.3): every outside angle of the walk
    belongs to one arc of the link. At the closed-form points and two seeded points near the
    support of each mesh, r in {0.05, 0.3, 0.7}."""
    v = make().varifold
    rng = np.random.default_rng(5)
    near = [v.vertices[rng.integers(v.num_vertices)] + rng.normal(scale=0.01, size=3) for _ in range(2)]
    for x0 in [np.array(p) for p in points] + near:
        for r in (0.05, 0.3, 0.7):
            length = blowup.spherical_link(v, x0, r).total_length
            assert abs(_walk_length(v, x0, r) - length) <= 8 * math.ulp(length), (x0, r)


@pytest.mark.parametrize("make", [
    lambda: generators.gen_sphere(1.0, 3),
    lambda: generators.gen_double_bubble(0.7, 1.0, 3),
    lambda: generators.gen_triple_bubble(3),
    lambda: generators.gen_double_bubble_flat(1.0, 3),
    lambda: generators.gen_torus(2.0, 0.7, 3),
    lambda: generators.gen_cap(1.0, 1.2, 3),
], ids=["sphere3", "double_bubble3", "triple_bubble3", "double_bubble_flat3", "torus3", "cap3"])
def test_small_balls_read_the_corner_angle_density(make):
    # Below the distance from x to every face not through x, mu(B_r(x)) / (pi r^2) is the
    # density of the mesh itself: Theta_v = sum_{f ∋ v} m_f alpha_f / 2pi at a vertex, with
    # alpha_f the corner angle, sum_{f ∋ e} m_f / 2 at an edge point and m_f inside a face.
    # r = 1e-3 local_edge_scale lies below that distance on every point tested. Measured
    # worst relative errors: 3.7e-14 at the vertices (densities near 1/2, 1, 3/2 and
    # 3 acos(-1/3)/pi), 3.1e-13 at the edge midpoints (a boundary edge of the cap) and
    # 4.4e-16 at the centroids; the bounds leave a margin of about 10.
    v = make().varifold
    topo, m = v.topology, v.multiplicity.astype(np.float64)
    alpha = curvature._corner_angles(v)
    theta = np.bincount(v.faces.ravel(), weights=(m[:, None] * alpha).ravel(), minlength=v.num_vertices)
    theta /= 2.0 * math.pi
    rng = np.random.default_rng(19)

    def error(x, want):
        r = 1e-3 * blowup.local_edge_scale(v, x)
        return abs(blowup.ball_mass_ladder(v, x, [r])[0] / (math.pi * r * r) / want - 1.0)

    special = np.flatnonzero(topo.junction_vertex_mask | topo.boundary_vertex_mask)
    others = np.setdiff1d(np.arange(v.num_vertices), special)
    vertices = np.concatenate([special, rng.choice(others, 150, replace=False)])
    assert max(error(v.vertices[i], theta[i]) for i in vertices) < 4e-13

    edges = np.union1d(rng.choice(len(topo.edges), 150, replace=False),
                       np.concatenate([topo.junction_edges, topo.boundary_edges]))
    worst = 0.0
    for e in edges:
        a, b = topo.edges[e]
        want = m[topo.inc_faces[topo.offsets[e]:topo.offsets[e + 1]]].sum() / 2.0
        worst = max(worst, error(0.5 * (v.vertices[a] + v.vertices[b]), want))
    assert worst < 3e-12

    faces = rng.choice(v.num_faces, 150, replace=False)
    assert max(error(v.vertices[v.faces[f]].mean(axis=0), m[f]) for f in faces) < 4.4e-15
