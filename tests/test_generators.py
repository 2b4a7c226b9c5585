import hashlib
import logging
import math
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from varifold_lab import blowup, mesh
from varifold_lab.cli import main
from varifold_lab.generators import (
    GENERATORS,
    gen_branched_patch,
    gen_cap,
    gen_double_bubble,
    gen_double_bubble_flat,
    gen_flat_disk,
    gen_singular_pair,
    gen_sphere,
    gen_torus,
    gen_triple_bubble,
)
from varifold_lab.mesh import DiscreteVarifold, junction_sheet_angles, total_mass

from conftest import _child_env, ranked_sheets

TETRA_DENSITY = 3.0 * math.acos(-1.0 / 3.0) / math.pi


#: Valid arguments other than the level, per generator.
_ARGS = {
    "sphere": {"R": 1.0}, "cap": {"R": 1.0, "theta": 1.2}, "double-bubble": {"theta2": 0.7, "rho": 1.0},
    "double-bubble-flat": {"rho": 1.0}, "triple-bubble": {}, "branched-patch": {"delta": 0.1, "rho0": 1.0},
    "singular-pair": {"disk_centers": [[0.0, 0.0]], "disk_radii": [0.3], "delta": 0.1},
    "flat-disk": {"rho": 1.0}, "torus": {"R": 1.0, "r": 0.4},
}


@pytest.mark.parametrize("name", sorted(_ARGS))
def test_every_generator_rejects_a_negative_level(name):
    assert GENERATORS[name](**_ARGS[name], level=0).varifold.num_faces > 0
    with pytest.raises(ValueError, match="^level must be >= 0$"):
        GENERATORS[name](**_ARGS[name], level=-1)


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("name", [name for name in sorted(_ARGS) if "bubble" not in name])
def test_every_generator_without_junctions_has_one_fan_at_every_used_vertex(name, level):
    """The vertex stars of the surfaces that reach ``mesh._require``'s fan test are one disk,
    or one half-disk on a rim; the bubbles stop at their junction edges first."""
    v = GENERATORS[name](**_ARGS[name], level=level).varifold
    assert len(v.topology.junction_edges) == 0
    np.testing.assert_array_equal(v.fans, np.bincount(v.faces.ravel(), minlength=v.num_vertices) > 0)


def test_registry_names():
    assert sorted(GENERATORS) == [
        "branched-patch",
        "cap",
        "double-bubble",
        "double-bubble-flat",
        "flat-disk",
        "singular-pair",
        "sphere",
        "torus",
        "triple-bubble",
    ]


# ---------------------------------------------------------------------------
# round surfaces


def test_sphere_metadata():
    out = gen_sphere(2.0, 2)
    a = out.analytic
    assert a["area"] == pytest.approx(16 * math.pi, abs=1e-12)
    assert a["willmore_energy"] == pytest.approx(4 * math.pi, abs=1e-12)
    assert a["enclosed_volume"] == pytest.approx(32 * math.pi / 3, abs=1e-12)
    assert a["chi"] == 2 and a["genus"] == 0
    np.testing.assert_allclose(
        np.linalg.norm(out.varifold.vertices, axis=1), 2.0, atol=1e-12
    )


def test_sphere_validation():
    with pytest.raises(ValueError):
        gen_sphere(0.0, 2)
    with pytest.raises(ValueError):
        gen_sphere(1.0, -1)


def test_cap_metadata():
    R, theta = 1.0, 1.2
    out = gen_cap(R, theta, 2)
    a = out.analytic
    assert a["area"] == pytest.approx(2 * math.pi * R**2 * (1 - math.cos(theta)), rel=1e-12)
    assert a["willmore_energy"] == pytest.approx(a["area"] / R**2, rel=1e-12)
    assert a["conormal_plane_angle"] == pytest.approx(theta, abs=1e-15)
    circle = a["boundary_circles"][0]
    assert circle["radius"] == pytest.approx(R * math.sin(theta), rel=1e-12)
    np.testing.assert_allclose(circle["normal"], [0.0, 0.0, 1.0], atol=1e-15)
    apex = a["density_points"][0]
    assert apex["point"][2] == pytest.approx(R * (1 - math.cos(theta)), rel=1e-12)


def test_cap_validation():
    with pytest.raises(ValueError):
        gen_cap(1.0, 0.0, 2)
    with pytest.raises(ValueError):
        gen_cap(1.0, 3.5, 2)
    with pytest.raises(ValueError, match="gen_sphere"):  # the closed sphere has its own generator
        gen_cap(1.0, math.pi, 2)


def test_torus_metadata():
    R, r = 2.0, 0.7
    out = gen_torus(R, r, 2)
    a = out.analytic
    assert a["area"] == pytest.approx(4 * math.pi**2 * R * r, rel=1e-12)
    assert a["enclosed_volume"] == pytest.approx(2 * math.pi**2 * R * r**2, rel=1e-12)
    assert a["willmore_energy"] == pytest.approx(
        math.pi**2 * R**2 / (r * math.sqrt(R**2 - r**2)), rel=1e-12
    )
    assert a["chi"] == 0 and a["genus"] == 1


def test_torus_validation():
    with pytest.raises(ValueError):
        gen_torus(1.0, 1.0, 2)
    with pytest.raises(ValueError):
        gen_torus(1.0, 0.0, 2)


def test_flat_disk_metadata():
    out = gen_flat_disk(1.5, 2)
    a = out.analytic
    assert a["area"] == pytest.approx(math.pi * 1.5**2, rel=1e-12)
    assert a["willmore_energy"] == 0.0
    assert a["boundary_circles"][0]["radius"] == 1.5


# ---------------------------------------------------------------------------
# bubble clusters


@pytest.mark.parametrize("theta2", [0.4, 0.7, 1.0])
def test_double_bubble_angle_condition(theta2):
    out = gen_double_bubble(theta2, 1.0, 2)
    a = out.analytic
    assert abs(a["cos_sum"]) < 1e-12
    assert math.fsum(math.cos(t) for t in a["angles"]) == pytest.approx(0.0, abs=1e-12)
    assert a["angles"][1] == theta2


@pytest.mark.parametrize("theta2", [0.4, 0.7, 1.0])
def test_double_bubble_energy_is_six_pi(theta2):
    a = gen_double_bubble(theta2, 1.0, 2).analytic
    assert a["willmore_energy"] == pytest.approx(6 * math.pi, rel=1e-12)
    assert a["area"] == pytest.approx(math.fsum(a["cap_areas"]), rel=1e-12)
    caps_over_r2 = math.fsum(
        ca / rr**2 for ca, rr in zip(a["cap_areas"], a["radii"])
    )
    assert caps_over_r2 == pytest.approx(6 * math.pi, rel=1e-12)


def test_double_bubble_junction_ring_is_shared(double_bubble4):
    circle = double_bubble4.analytic["junction_circles"][0]
    idx = circle["vertex_indices"]
    assert len(idx) == 4 * 2**4
    ring = double_bubble4.varifold.vertices[idx]
    np.testing.assert_allclose(np.linalg.norm(ring[:, :2], axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(ring[:, 2], 0.0, atol=1e-12)


def test_double_bubble_li_yau_equality(double_bubble4):
    ly = double_bubble4.analytic["li_yau"]
    assert ly["theta_max"] == 1.5
    assert ly["w_over_4pi"] == pytest.approx(1.5, rel=1e-12)


def test_double_bubble_discrete_mass_and_energy(double_bubble4):
    from varifold_lab.curvature import willmore_energy

    a = double_bubble4.analytic
    assert total_mass(double_bubble4.varifold) == pytest.approx(a["area"], rel=0.01)
    assert willmore_energy(double_bubble4.varifold) == pytest.approx(
        6 * math.pi, rel=0.01
    )


def test_double_bubble_with_third_cap_above():
    """For theta2 > pi/3 the third opening angle exceeds pi, and the third cap
    opens upward, like the first."""
    from varifold_lab.curvature import willmore_energy

    out = gen_double_bubble(1.2, 1.0, 4)
    v, a = out.varifold, out.analytic
    assert a["angles"][2] > math.pi
    z = v.vertices[v.faces[ranked_sheets(v) == 2]][..., 2]
    assert z.min() == 0.0 and z.max() > 1.0
    assert willmore_energy(v) / (6 * math.pi) == pytest.approx(1.0, abs=0.01)
    assert total_mass(v) / a["area"] == pytest.approx(1.0, abs=0.005)


def test_double_bubble_flat_interface_routing():
    with pytest.raises(ValueError, match="gen_double_bubble_flat"):
        gen_double_bubble(math.pi / 3, 1.0, 2)
    with pytest.raises(ValueError):
        gen_double_bubble(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        gen_double_bubble(2 * math.pi / 3, 1.0, 2)
    with pytest.raises(ValueError):
        gen_double_bubble(0.7, -1.0, 2)


def test_double_bubble_flat_metadata():
    a = gen_double_bubble_flat(1.0, 2).analytic
    assert a["cap_areas"][0] == pytest.approx(a["cap_areas"][1], rel=1e-12)
    assert a["area"] == pytest.approx(9 * math.pi, rel=1e-12)
    assert a["willmore_energy"] == pytest.approx(6 * math.pi, rel=1e-12)
    assert a["junction_circles"][0]["density"] == 1.5


def test_triple_bubble_metadata():
    a = gen_triple_bubble(2).analytic
    assert a["willmore_energy"] == pytest.approx(12 * math.acos(-1 / 3), rel=1e-12)
    assert a["spherical_area"] == pytest.approx(a["willmore_energy"], rel=1e-12)
    assert a["area"] == pytest.approx(a["spherical_area"] + a["flat_area"], rel=1e-12)
    ly = a["li_yau"]
    assert ly["theta_max"] == pytest.approx(TETRA_DENSITY, abs=1e-12)
    assert ly["w_over_4pi"] == pytest.approx(TETRA_DENSITY, rel=1e-12)


def test_triple_bubble_tetrahedral_points():
    pts = gen_triple_bubble(2).analytic["density_points"]
    by_label = {p["label"]: p for p in pts}
    x1 = np.asarray(by_label["tetrahedral point x1"]["point"])
    x2 = np.asarray(by_label["tetrahedral point x2"]["point"])
    np.testing.assert_allclose(
        x1, [0.816496580927726, -0.5773502691896258, 0.0], atol=1e-12
    )
    np.testing.assert_allclose(x2, x1 * [-1.0, 1.0, 1.0], atol=1e-12)
    assert by_label["tetrahedral point x1"]["density"] == pytest.approx(
        TETRA_DENSITY, abs=1e-12
    )
    assert by_label["junction arc"]["density"] == 1.5


def test_triple_bubble_mirror_symmetry():
    out = gen_triple_bubble(3)
    v = out.varifold
    pts = {p["label"]: np.asarray(p["point"]) for p in out.analytic["density_points"]}
    t1 = blowup.density(v, pts["tetrahedral point x1"]).theta
    t2 = blowup.density(v, pts["tetrahedral point x2"]).theta
    assert t1 == pytest.approx(t2, abs=1e-3)


@pytest.mark.parametrize("build, levels, edges, max_err", [
    (lambda level: gen_double_bubble(0.7, 1.0, level), (3, 4), (32, 64), 1.0),
    (gen_triple_bubble, (2, 3), (96, 192), 4.0),
], ids=["double-bubble", "triple-bubble"])
def test_junction_sheets_meet_at_120_degrees(build, levels, edges, max_err):
    # Plateau's law: three sheets meet along a triple line at 120 degrees
    # (Taylor, Ann. Math. 1976); the sheets share their junction vertices, so
    # every junction edge has exactly three faces
    errs = []
    for level, count in zip(levels, edges):
        angles = junction_sheet_angles(build(level).varifold)
        assert angles.shape == (count, 3)
        errs.append(np.abs(angles - 120.0).max())
    assert errs[1] <= 0.6 * errs[0]  # max |angle - 120| shrinks by >= 40% per level
    assert errs[1] <= max_err


def _junction_sheet_angles_oracle(v):
    """Sheet angles at each 3-face junction edge, one edge and one face at a time, in exact
    rationals: each opposite vertex w (less an edge end) is projected off the edge vector e as
    u = w - ((w·e)/(e·e))·e, and the angle of u, u' is atan2(sqrt(|u × u'|²), u·u'), rounded to
    float only in its last steps."""
    topo = v.topology
    exact = {}

    def point(i):
        if i not in exact:
            exact[i] = [Fraction(c) for c in v.vertices[i].tolist()]
        return exact[i]

    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

    def cross(a, b):
        return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]

    rows = []
    for ei in topo.junction_edges.tolist():
        fs = topo.inc_faces[topo.offsets[ei]:topo.offsets[ei + 1]].tolist()
        if len(fs) != 3:
            continue
        a, b = topo.edges[ei].tolist()
        p, q = point(a), point(b)
        e = [qi - pi for pi, qi in zip(p, q)]
        us = []
        for fi in fs:
            opp = [x for x in v.faces[fi].tolist() if x not in (a, b)][0]
            w = [oi - pi for pi, oi in zip(p, point(opp))]
            t = dot(w, e) / dot(e, e)
            us.append([wk - t * ek for wk, ek in zip(w, e)])
        angles = []
        for i, j in ((0, 1), (0, 2), (1, 2)):
            c = cross(us[i], us[j])
            angles.append(math.degrees(math.atan2(math.sqrt(dot(c, c)), dot(us[i], us[j]))))
        rows.append(sorted(angles))
    return np.asarray(rows, dtype=np.float64).reshape(-1, 3)


def _fans():
    """A 3-sheet fan on edge (0, 1) and a 4-sheet fan on edge (6, 7), the
    second skipped by junction_sheet_angles."""
    pts = [[0, 0, 0], [0, 0, 1], [1, 0, 0], [-0.5, 0.8, 0.1], [-0.4, -0.9, 0.2]]
    pts += [[5, 5, 5], [6, 5, 5], [6, 5, 6], [7, 5, 5], [6, 6, 5], [5.5, 4, 5], [6, 4.5, 5]]
    faces = [[0, 1, 2], [1, 0, 3], [0, 1, 4], [6, 7, 8], [6, 7, 9], [7, 6, 10], [6, 7, 11]]
    return DiscreteVarifold(np.asarray(pts, dtype=float), faces)


@pytest.mark.parametrize("build", [
    lambda: gen_double_bubble(0.7, 1.0, 3), lambda: gen_double_bubble(0.7, 1.0, 4),
    lambda: gen_triple_bubble(2), lambda: gen_triple_bubble(3), lambda: gen_triple_bubble(4),
    lambda: gen_triple_bubble(5), lambda: gen_sphere(1.0, 2), _fans,
], ids=["double-bubble-3", "double-bubble-4", "triple-bubble-2", "triple-bubble-3", "triple-bubble-4",
        "triple-bubble-5", "sphere-2", "fans"])
def test_junction_sheet_angles_match_the_loop_oracle(build):
    out = build()
    v = getattr(out, "varifold", out)
    want = _junction_sheet_angles_oracle(v)
    got = junction_sheet_angles(v)
    assert got.shape == want.shape and got.dtype == np.float64
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    if build is _fans:
        assert got.shape == (1, 3)


# ---------------------------------------------------------------------------
# singular models


@pytest.mark.parametrize("r", [0.1, 0.25, 0.5])
def test_branched_patch_exact_double_mass(r):
    v = gen_branched_patch(0.0, 1.0, 4).varifold
    mass = blowup.ball_mass_ladder(v, np.zeros(3), [r])[0]
    assert mass == pytest.approx(2 * math.pi * r**2, rel=1e-6)


def test_branched_patch_metadata():
    a = gen_branched_patch(0.0, 1.0, 3).analytic
    assert a["area"] == pytest.approx(2 * math.pi, rel=1e-12)
    assert a["willmore_energy"] == 0.0
    assert a["density_points"][0]["density"] == 2.0
    with pytest.raises(ValueError):
        gen_branched_patch(-0.1, 1.0, 3)
    with pytest.raises(ValueError):
        gen_branched_patch(0.0, 0.0, 3)


def test_branched_patch_offset_keeps_branch_density():
    out = gen_branched_patch(0.1, 1.0, 4)
    rep = blowup.density(out.varifold, [0.0, 0.0, 0.0])
    assert rep.theta == pytest.approx(2.0, abs=0.03)


def test_singular_pair_metadata():
    out = gen_singular_pair([[0.0, 0.0], [0.5, 0.0]], [0.3, 0.2], 0.2, level=3)
    a = out.analytic
    assert a["chi"] == 2
    assert a["contact_disks"] == [
        {"center": [0.0, 0.0], "radius": 0.3},
        {"center": [0.5, 0.0], "radius": 0.2},
    ]
    for p in a["density_points"]:
        if p["density"] == 2.0:
            assert "r_max" not in p  # contact disks: density 2 at every scale
        else:
            assert p["r_max"] > 0  # sheets separate beyond this radius


def test_singular_pair_validation():
    with pytest.raises(ValueError):
        gen_singular_pair([[0.0, 0.0]], [0.3], 0.0, level=2)
    with pytest.raises(ValueError):
        gen_singular_pair([[0.0, 0.0]], [0.3, 0.2], 0.2, level=2)
    with pytest.raises(ValueError):
        gen_singular_pair([[0.9, 0.0]], [0.3], 0.2, level=2)


@pytest.mark.parametrize("call, message", [
    (lambda: gen_cap(0.0, 1.2, 2), "R must be positive and finite, not 0.0"),
    (lambda: gen_cap(-1.0, 1.2, 2), "R must be positive and finite, not -1.0"),
    (lambda: gen_double_bubble_flat(0.0, 2), "rho must be positive and finite, not 0.0"),
    (lambda: gen_flat_disk(-1.0, 2), "rho must be positive and finite, not -1.0"),
    (lambda: gen_triple_bubble(-1), "level must be >= 0"),
    (lambda: gen_singular_pair([[0.0, 0.0]], [0.0], 0.2, level=2),
     "disk_radii[0] must be positive and finite, not 0.0"),
    (lambda: gen_singular_pair([[0.0, 0.0]], [-0.3], 0.2, level=2),
     "disk_radii[0] must be positive and finite, not -0.3"),
    (lambda: gen_sphere(math.nan, 1), "R must be positive and finite, not nan"),
    (lambda: gen_sphere(1.0, 1.5), "level must be an integer, not 1.5"),
    (lambda: gen_torus(1.0, 0.3, True), "level must be an integer, not True"),
    (lambda: gen_torus(1.0, math.nan, 2), "r must be positive and finite, not nan"),
    (lambda: gen_double_bubble(0.7, math.nan, 2), "rho must be positive and finite, not nan"),
    (lambda: gen_branched_patch(math.nan, 1.0, 2), "delta must be finite and >= 0, not nan"),
    (lambda: gen_branched_patch(0.1, math.nan, 2), "rho0 must be positive and finite, not nan"),
    (lambda: gen_singular_pair([[0.0, 0.0]], [0.3], math.nan, level=2), "delta must be positive and finite, not nan"),
    (lambda: gen_singular_pair([[0.0, 0.0]], [math.nan], 0.2, level=2),
     "disk_radii[0] must be positive and finite, not nan"),
    (lambda: gen_singular_pair([[math.nan, 0.0]], [0.3], 0.2, level=2),
     "disk_centers[0] must be finite, not [nan, 0.0]"),
    (lambda: gen_singular_pair([[0.0, 0.0], ["0.1", "0"]], [0.3, 0.2], 0.2, level=2),
     "disk_centers[1] must be 2 numbers, not ['0.1', '0']"),
    (lambda: gen_singular_pair([[False, 0.0]], [0.3], 0.2, level=2),
     "disk_centers[0] must be 2 numbers, not [False, 0.0]"),
    (lambda: gen_singular_pair([[0.1, 0.0, 0.0]], [0.3], 0.2, level=2),
     "disk_centers[0] must be 2 numbers, not [0.1, 0.0, 0.0]"),
    (lambda: gen_singular_pair([0.1, 0.0], [0.3], 0.2, level=2),
     "disk_centers and disk_radii must be lists of equal length"),
    (lambda: gen_singular_pair([0.1, 0.0], [0.3, 0.2], 0.2, level=2),
     "disk_centers[0] must be 2 numbers, not 0.1"),
    (lambda: gen_singular_pair([[0.0, 0.0]], 0.3, 0.2, level=2),
     "disk_centers and disk_radii must be lists of equal length"),
    (lambda: gen_singular_pair([[0.0, 0.0]], ["0.3"], 0.2, level=2),
     "disk_radii[0] must be a number, not '0.3'"),
    (lambda: gen_singular_pair([[0.0, 0.0]], [math.inf], 0.2, level=2),
     "disk_radii[0] must be positive and finite, not inf"),
    (lambda: gen_cap(1.0, True, 1), "theta must be a number, not True"),
    (lambda: gen_cap(1.0, "1", 1), "theta must be a number, not '1'"),
    (lambda: gen_cap(1.0, -0.5, 1), "theta must be positive and finite, not -0.5"),
    (lambda: gen_cap(1.0, math.pi, 1),
     "theta must lie in (0, pi), not 3.141592653589793; for the closed sphere use gen_sphere ('generate sphere')"),
    (lambda: gen_double_bubble(True, 1.0, 1), "theta2 must be a number, not True"),
    (lambda: gen_double_bubble("0.7", 1.0, 1), "theta2 must be a number, not '0.7'"),
    (lambda: gen_double_bubble(2.0 * math.pi / 3.0, 1.0, 1), "theta2 must lie in (0, 2*pi/3)"),
    (lambda: gen_double_bubble(1e-12, 1.0, 1),
     "theta2 must lie in (0, 2*pi/3) away from its ends, not 1e-12: a cap radius diverges"),
    (lambda: gen_double_bubble(2.0 * math.pi / 3.0 - 1e-12, 1.0, 1),
     "theta2 must lie in (0, 2*pi/3) away from its ends, not 2.094395102392195: a cap radius diverges"),
    (lambda: gen_double_bubble(math.pi / 3.0, 1.0, 1), "flat-interface case; use gen_double_bubble_flat"),
], ids=["cap-zero-R", "cap-negative-R", "double-bubble-flat-rho", "flat-disk-rho",
        "triple-bubble-level", "singular-pair-zero-radius", "singular-pair-negative-radius",
        "sphere-nan-R", "sphere-fractional-level", "torus-boolean-level", "torus-nan-r", "double-bubble-nan-rho",
        "branched-patch-nan-delta", "branched-patch-nan-rho0", "singular-pair-nan-delta",
        "singular-pair-nan-radius", "singular-pair-nan-center", "singular-pair-string-center",
        "singular-pair-boolean-center", "singular-pair-3-number-center", "singular-pair-flat-centers",
        "singular-pair-flat-centers-two-radii", "singular-pair-scalar-radii", "singular-pair-string-radius",
        "singular-pair-inf-radius", "cap-boolean-theta", "cap-string-theta", "cap-negative-theta", "cap-theta-pi",
        "double-bubble-boolean-theta2", "double-bubble-string-theta2", "double-bubble-theta2-2pi-3",
        "double-bubble-theta2-near-0", "double-bubble-theta2-near-2pi-3", "double-bubble-flat-interface"])
def test_generator_parameter_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("centers, radii, message", [
    ([], [], "no disks given: the contact set A is empty"),
    ([[0.7, 0.0]], [0.28], "a disk reaches into the rim cutoff band |x| >= 0.95"),
], ids=["no-disks", "rim-band"])
def test_singular_pair_warnings(caplog, centers, radii, message):
    with caplog.at_level(logging.WARNING, logger="varifold_lab.generators"):
        gen_singular_pair(centers, radii, 0.2, level=1)
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [("WARNING", message)]


# ---------------------------------------------------------------------------
# cross-cutting: the discrete mass tracks the printed area


@pytest.mark.parametrize(
    "build",
    [
        lambda: gen_sphere(2.0, 3),
        lambda: gen_cap(1.0, 1.2, 3),
        lambda: gen_double_bubble_flat(1.0, 3),
        lambda: gen_triple_bubble(3),
        lambda: gen_flat_disk(1.5, 3),
        lambda: gen_torus(2.0, 0.7, 3),
        lambda: gen_branched_patch(0.0, 1.0, 3),
    ],
    ids=["sphere", "cap", "db-flat", "triple", "disk", "torus", "branched"],
)
def test_mass_matches_area(build):
    out = build()
    assert "area" in out.analytic
    assert total_mass(out.varifold) == pytest.approx(out.analytic["area"], rel=0.02)


def test_density_points_sit_on_support():
    for build in (
        lambda: gen_sphere(1.0, 3),
        lambda: gen_double_bubble(0.7, 1.0, 3),
        lambda: gen_triple_bubble(3),
        lambda: gen_torus(2.0, 0.7, 3),
    ):
        out = build()
        v = out.varifold
        for p in out.analytic["density_points"]:
            x0 = np.asarray(p["point"])
            d = np.linalg.norm(v.vertices - x0, axis=1).min()
            assert d <= blowup.local_edge_scale(v, x0), p["label"]


# ---------------------------------------------------------------------------
# byte pins: every float pin, digest and acceptance value downstream reads
# these meshes, so their bytes (vertex order and coordinates down to the sign
# of zero, face order, analytic block) must not drift

# sha256 of `generate NAME --level L` with the CLI's default parameters
# (singular-pair: one disk 0,0:0.3; re-recorded when its bump moved from
# np.exp to math.exp, the bytes NumPy held to SSE4.2 wrote before). The cap,
# double bubble, flat double bubble, singular pair and triple bubble pins were
# re-recorded when the files lost their face_patches key: each new file is the
# old one with that key removed, written by the same encoder.
GENERATOR_SHA256 = {
    ("branched-patch", 0): "35761be722a3d0ff07060876452439e8e3614007541188173c435a78efeb2013",
    ("branched-patch", 1): "910336bfe0c3803bcb3db74aef60b52ca0a60d4cae459912cf8161eae5c435fe",
    ("branched-patch", 2): "f436cf85db334360b54058ee8d3a7c165f0c0ca04b93f88cec65fe086470d22c",
    ("branched-patch", 3): "31ddcbf0391bf08b603aab48283798248a03d02487509a71b5c8a95310bd4387",
    ("cap", 0): "ea6d369d17fdef91d86a9b8a3f125aace9d1e868bf48cbcb1386f67b18124fc5",
    ("cap", 1): "d77a4965f31c3a1cc85a45665a7306254d3545d9b1cc2dc600797bc051f9042a",
    ("cap", 2): "0e5f6fe2c48c0e4f6866dc8b5864f495f75984020d99718dec709f146684846b",
    ("cap", 3): "c8670eed0e6beefec7e791aaa979208f40eed4657748b3cddbc5a1ef631157c6",
    ("double-bubble", 0): "39f535c8ccd21ce3d55e9834e531973daf66d22a65f1299a487673af97bb7c46",
    ("double-bubble", 1): "846685e5219d3200b57ae94df0920c0ffa2c7114bf148ebbbef2c84943884f1c",
    ("double-bubble", 2): "a2b4f97e94e93d3480335b267fa9a235fbd3c98e1a7163e382f47d21e9228d7e",
    ("double-bubble", 3): "a43bceed04a1874c7bad82c7e0fe0e71f7d1f3e8b6144a6f404bcce87ebd27b3",
    ("double-bubble-flat", 0): "8f2d6122e16cb8b813ebfce7577c1a359bf44c8d4e4196336b19f5be7ac2e690",
    ("double-bubble-flat", 1): "5af393c2b5613ce26943fb12bc3cc842fd60925423d4fd7ca8f8004c23a4c568",
    ("double-bubble-flat", 2): "cd3455fac994df2c63201a757bb963449aa7fae77af06bb7009ddb1117794e38",
    ("double-bubble-flat", 3): "91f13df1dec19ce968a46615b6ac9369742ea36de71446be835cc8b09214f88f",
    ("flat-disk", 0): "ac7b9237e6241cf6847a718d5813d1390d8ce476dacc39b415054cf71316710c",
    ("flat-disk", 1): "346b55e1664c82adac6594dc5adfaebb6876f7c99ec24c7982c5a7eb08cf2cbb",
    ("flat-disk", 2): "86911900f2f8e47b1420fff3b2a525ddd2d34ac68f4213127152f1d89c604733",
    ("flat-disk", 3): "9577c6cbb288ee3bb08af6ca3a2a6b49414a802172a4da2923359ef0a8bd3b39",
    ("singular-pair", 0): "ff1f1c809d8c4ae1ab008c2ba6131605c7733c192fb45e443aaa4d0111194d4b",
    ("singular-pair", 1): "ac14cdaca4c44f27e57d0e4f9f173ce22e9f1bad75357c98409a9bff853045ef",
    ("singular-pair", 2): "91c9054f92a0ec2c65c873e3fb73736cb28d44234c8911101adb20d6dd63f6dc",
    ("singular-pair", 3): "6d62ca455e228a3f8b147fae356e11ff5de489b1d1542c87339b2b8291394160",
    ("sphere", 0): "f21541d7fca613609a563837e2e2df0f35d0d081fdb856143b5ab40d807bb35e",
    ("sphere", 1): "e20ebea0d2be6486348f3b12fcde0b208927874e2c729068bf9223ba8d164e62",
    ("sphere", 2): "2413b739d7ef9504e82e144b468183eb8ec8b771ee1d4f05ad1cbcce50b089ac",
    ("sphere", 3): "8b7a487e7e18ae088093d8c1e80e4db6a1a4251532dd29aafbc8ed12683016c4",
    ("torus", 0): "9b45a81faab7766c59b9872978b2987ecbb8c723489cfbeabad685e1179723ff",
    ("torus", 1): "340e2c695df7ff0a880de47908c591202eb7f9efc4a5759680344d9ee21e2e2d",
    ("torus", 2): "3049fc7d532267d4a0fa839c60db5e7c20bb1b68bd2b79895330ea65a56c8462",
    ("torus", 3): "f99ef38e860c1e725ef479d936d244d084d6ad3aafc6022f9f5ecdc030ce1bc0",
    ("triple-bubble", 0): "21aba18f99f3639b8b36c1c06d96f91b5354c0f3d3e15a63e0a06fdf281a280a",
    ("triple-bubble", 1): "5c0769e8379cad5eeb306f091e56c2f5eee6d4a2eeef12d5cdcdb1f8e87a4558",
    ("triple-bubble", 2): "b01bc25b3d3448c0de74efbd841ce617641344ed15d67156e4f711d033708cb5",
    ("triple-bubble", 3): "6054ae4774de1ee8e19522e04d8f405e96b0f55c74d1c68bf7068c821d624eb7",
    ("triple-bubble", 4): "b496324241f12241a4efbecf1f73ddfcf95f34b1b13b1987bd91e5a1222c0260",
}


@pytest.mark.parametrize("name, level", sorted(GENERATOR_SHA256), ids=lambda x: str(x))
def test_generator_bytes_are_pinned(name, level, tmp_path, capsys):
    path = str(tmp_path / "mesh.json")
    extra = ["--disk", "0,0:0.3"] if name == "singular-pair" else []
    assert main(["generate", name, "--level", str(level), "-o", path] + extra) == 0
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == GENERATOR_SHA256[(name, level)]


def test_singular_pair_bytes_do_not_depend_on_the_simd_level(tmp_path):
    # the bump runs in math.exp: the same bytes at NumPy's default dispatch and
    # with NumPy held to SSE4.2. NumPy refuses the setting with an ImportWarning
    # where those features are not dispatched (another CPU family or build).
    outs = []
    for k, host in enumerate(({}, {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"})):
        env = {name: value for name, value in _child_env(**host).items()
               if name in host or name != "NPY_DISABLE_CPU_FEATURES"}
        out = tmp_path / f"pair-{k}.json"
        argv = ["generate", "singular-pair", "--level", "2", "--disk", "0,0:0.3", "-o", str(out)]
        proc = subprocess.run([sys.executable, "-W", "error::ImportWarning", "-m", "varifold_lab.cli", *argv],
                              capture_output=True, text=True, env=env)
        if host and "You cannot disable CPU features" in proc.stderr:
            pytest.skip(" ".join(proc.stderr.strip().splitlines()[-3:]))
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[1] == outs[0]
    assert hashlib.sha256(outs[0]).hexdigest() == GENERATOR_SHA256[("singular-pair", 2)]


def test_singular_pair_evaluates_the_bump_once_per_point(monkeypatch):
    # both sheets share each inner ring's bump u: math.exp runs once per distinct
    # point (x, y) outside the disk, over the mesh's vertices and the 0.9 probe
    calls = []
    exp = math.exp
    monkeypatch.setattr(math, "exp", lambda t: calls.append(t) or exp(t))
    v = gen_singular_pair([[0.2, 0.1]], [0.3], 0.1, 4).varifold
    points = {(x, y) for x, y, _ in v.vertices.tolist()} | {(0.9, 0.0)}
    outside = [p for p in points if (p[0] - 0.2) * (p[0] - 0.2) + (p[1] - 0.1) * (p[1] - 0.1) - 0.3 * 0.3 > 0.0]
    assert len(calls) == len(outside) == 13_874


class _GridWeldOracle:
    """Point-by-point tolerance pool: a point takes the index of the first
    stored point found within tol in every coordinate among the 27 grid cells
    of pitch tol around it, else a new index."""

    def __init__(self, tol):
        self.tol = tol
        self.points = []
        self._cells = {}

    def add(self, p):
        x, y, z = float(p[0]), float(p[1]), float(p[2])
        t = self.tol
        cx, cy, cz = math.floor(x / t), math.floor(y / t), math.floor(z / t)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    for idx in self._cells.get((cx + dx, cy + dy, cz + dz), ()):
                        q = self.points[idx]
                        if abs(q[0] - x) < t and abs(q[1] - y) < t and abs(q[2] - z) < t:
                            return idx
        self.points.append((x, y, z))
        self._cells.setdefault((cx, cy, cz), []).append(len(self.points) - 1)
        return len(self.points) - 1


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_triple_bubble_shares_every_coincident_point(level):
    """The index pairs join every point that the construction makes twice: no
    two vertices lie within 1e-9 of each other in every coordinate."""
    vertices = gen_triple_bubble(level).varifold.vertices
    pool = _GridWeldOracle(1e-9)
    assert [pool.add(p) for p in vertices] == list(range(len(vertices)))


#: sha256 of gen_triple_bubble(level).varifold's vertices and faces bytes, by level
_TRIPLE_BUBBLE_SHA256 = {
    0: ("93577bb2f2eb5aff656904096303bf1d698dfef385d914748cbafd7f6d106f93",
        "bc8b93a6403f1dea35b1ab1cd3e5ee56d24d7a83936ebbe0905e37b6eba962bf"),
    1: ("5ecbff1dd7554ab9e860a22a381aa39599f060970cf508af7cd5049580140c7a",
        "654f9db701065c7f313bb1e8e6c20369fa7f4bfe5909209c4b92e434ae41eecd"),
    2: ("2ff0812740735777c496ca61c07405117587cbdca2626537a3ce7486eb7348b9",
        "f88907db0feb7f3637e8fa3885173f7d8fb64c985656117ac2a04e2128b76c93"),
    3: ("7bfe2f074a890e9540733c53149281fcd12767bd794ab5c3107a7ff64c59bffe",
        "054e6790f2fa428584742cfc9b97e388d95caa82c9337368af910fd8ad6e239a"),
    4: ("05757910627d9ea65887ad57bde39ec74919045f88e5cf9770fe4b194afccc0d",
        "31f1eac8cb33cc2c1056344b30cdb282ac0eb21bc785d86af0b8ed8089f42a78"),
    5: ("abea8468fb828d22fcbf0aa1e1d784acd78f56a0deeab67c9ea399c8f70d9222",
        "11a75286fbfbd026a0b9b8be634ef6571da738b147db6e7371fcf9d0c8e0a991"),
}


@pytest.mark.parametrize("level", sorted(_TRIPLE_BUBBLE_SHA256))
def test_triple_bubble_bytes_are_pinned(level):
    v = gen_triple_bubble(level).varifold
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (v.vertices, v.faces))
    assert got == _TRIPLE_BUBBLE_SHA256[level]
