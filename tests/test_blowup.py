import math

import numpy as np
import pytest

from varifold_lab import blowup, generators, mesh, nets
from varifold_lab.blowup import ADMISSIBLE_DENSITIES
from varifold_lab.mesh import DiscreteVarifold, MeshError

TETRA_DENSITY = 3.0 * math.acos(-1.0 / 3.0) / math.pi  # ≈ 1.8245203439081783


def test_ball_mass_rejects_nonpositive_radius(sphere3):
    with pytest.raises(ValueError):
        blowup.ball_mass(sphere3.varifold, np.zeros(3), 0.0)


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


def test_density_trims_sub_resolution_ladder(sphere3):
    x0 = sphere3.varifold.vertices[0]
    h = blowup.local_edge_scale(sphere3.varifold, x0)
    rep = blowup.density(sphere3.varifold, x0, r_max=1.5 * h)
    assert rep.warnings  # trimmed ladder is reported
    assert len(rep.radii) >= 3
    assert rep.theta == pytest.approx(1.0, abs=0.1)


def test_density_needs_three_rungs(sphere3):
    with pytest.raises(ValueError):
        blowup.density(sphere3.varifold, sphere3.varifold.vertices[0], rungs=2)


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


def test_classify_density_higher_ambient_drops_tetra_value():
    label, _ = blowup.classify_density(1.8, ambient_dim=5)
    assert label == "3/2"


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


def test_monotonicity_rejects_bad_radii(sphere3):
    with pytest.raises(ValueError):
        blowup.monotonicity_check(sphere3.varifold, np.zeros(3), 0.5, 0.5)


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


def test_spherical_link_misses_support():
    v = generators.gen_sphere(1.0, 3).varifold
    link = blowup.spherical_link(v, np.array([5.0, 0.0, 0.0]), 0.5)
    assert link.total_length == 0.0
    assert link.polylines == ()


def _merge_ends_oracle(points, tol):
    """The linear scan: each point joins the lowest-index node within tol."""
    centers, nodes = [], []
    for p in points:
        for j, c in enumerate(centers):
            if np.linalg.norm(c - p) <= tol:
                nodes.append(j)
                break
        else:
            nodes.append(len(centers))
            centers.append(p)
    return nodes


def test_merge_ends_picks_lowest_index_node_within_tol():
    rng = np.random.default_rng(5)
    tol = 1e-5
    for _ in range(20):
        # endpoints clustered around grid-cell corners, within a few tol of them,
        # so that many lie within tol of nodes in neighbouring cells
        corners = rng.integers(-3, 4, size=(6, 3)) * tol
        points = corners[rng.integers(0, 6, size=80)] + rng.uniform(-1.5, 1.5, size=(80, 3)) * tol
        points[::7] = points[1::7][: len(points[::7])]  # exact repeats
        want = _merge_ends_oracle(points, tol)
        assert mesh._weld(points, tol)[0].tolist() == want
        assert len(set(want)) < len(points)


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
