"""End-to-end acceptance checks: one test (one PASS/FAIL line under -v) per
headline capability.  Expected values are closed forms or frozen oracle
constants; tolerances are the coarsest the verified protocols need."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from varifold_lab import blowup, curvature, mesh, nets
from varifold_lab.boundary import (
    CircleSpec,
    circle_conormal_integral,
    circle_conormal_integral_quad,
    make_datum,
    sup_conormal_integral,
)
from varifold_lab.generators import (
    gen_branched_patch,
    gen_double_bubble,
    gen_flat_disk,
    gen_sphere,
    gen_triple_bubble,
)
from varifold_lab.mesh import DiscreteVarifold

from conftest import first_variation_residual

SIX_PI = 6.0 * math.pi
TETRA_LENGTH = 11.463799417494112  # 6*acos(-1/3)
TETRA_DENSITY = 1.8245203439081783  # 3*acos(-1/3)/pi
X1 = np.array([0.816496580927726, -0.5773502691896258, 0.0])


@pytest.fixture(scope="module")
def db5():
    return gen_double_bubble(0.7, 1.0, 5)


@pytest.fixture(scope="module")
def triple4():
    return gen_triple_bubble(4)


@pytest.fixture(scope="module")
def triple5():
    return gen_triple_bubble(5)


@pytest.fixture(scope="module")
def sphere5():
    return gen_sphere(1.0, 5)


def test_01_double_bubble_energy_convergence():
    for theta2 in (0.4, 0.7, 1.0):
        errs = []
        for level in (4, 5, 6):
            out = gen_double_bubble(theta2, 1.0, level)
            assert out.analytic["willmore_energy"] == pytest.approx(SIX_PI, abs=1e-12)
            w = curvature.willmore_energy(out.varifold)
            errs.append(abs(w - SIX_PI) / SIX_PI)
        assert errs[-1] <= 0.02, (theta2, errs)
        assert errs[1] < 0.7 * errs[0] and errs[2] < 0.7 * errs[1], (theta2, errs)


def test_02_junction_density_and_link(db5):
    v = db5.varifold
    x0 = np.array([1.0, 0.0, 0.0])  # on the junction circle
    rep = blowup.density(v, x0)
    assert rep.theta == pytest.approx(1.5, abs=0.05)
    assert rep.classification == "3/2"
    link = blowup.spherical_link(v, x0, 0.35)
    assert link.total_length == pytest.approx(3 * math.pi, rel=0.01)
    assert link.junction_count == 2
    assert len(link.polylines) == 3
    assert nets.match_link(link)["match"] == "three half circles"


def test_03_triple_bubble_tetrahedral_point(triple5):
    v = triple5.varifold
    w = curvature.willmore_energy(v)
    exact = triple5.analytic["willmore_energy"]
    assert exact == pytest.approx(12 * math.acos(-1.0 / 3.0), abs=1e-12)
    assert abs(w - exact) / exact <= 0.02
    rep = blowup.density(v, X1)
    assert rep.theta == pytest.approx(TETRA_DENSITY, abs=0.05)
    assert rep.classification == "3*acos(-1/3)/pi"
    pts = [p["point"] for p in triple5.analytic["density_points"]]
    ly = blowup.li_yau_check(v, pts)
    assert ly.passed and abs(ly.gap) < 0.05
    link = blowup.spherical_link(v, X1, 0.3)
    assert link.junction_count == 4
    assert len(link.polylines) == 6
    assert nets.match_link(link)["match"] == "tetrahedron"


def test_04_stationary_net_catalogue():
    entries = nets.catalogue()
    assert len(entries) == 10
    frozen = [
        2 * math.pi, 3 * math.pi, TETRA_LENGTH, 14.771513008089297,
        16.48165843237495, 13.502820874218845, 21.89182968680899,
        20.16279829200947, 17.856508227214103, None,
    ]
    for e, want in zip(entries, frozen):
        if want is None:
            assert e.length is None and e.invalid_as_printed
        else:
            assert e.length == pytest.approx(want, abs=1e-12)
    assert [e.below_4pi for e in entries] == [True] * 3 + [False] * 7
    assert entries[3].length > 14.5 and entries[4].length > 16
    assert entries[5].length > 13.5 and entries[6].length > 21
    assert entries[7].length > 20 and entries[8].length > 17.5


def test_05_net_stationarity_and_relaxation():
    entries = nets.catalogue()
    for e in entries:
        if e.net is not None:
            assert nets.balance_residual(e.net) < 1e-10, e.name
    tetra = entries[2]
    rng = np.random.default_rng(42)
    x = tetra.net.vertices + 0.05 * rng.standard_normal(tetra.net.vertices.shape)
    x /= np.linalg.norm(x, axis=1)[:, None]
    res = nets.relax(nets.make_net(x, tetra.net.arcs, tetra.net.major))
    assert res.converged and res.iterations < 500
    assert nets.total_length(res.net) == pytest.approx(TETRA_LENGTH, abs=1e-8)


def test_06_monotonicity_and_li_yau(sphere4, db5, triple4):
    rng = np.random.default_rng(20260816)
    for out in (sphere4, db5, triple4):
        v = out.varifold
        diam = mesh.mesh_scale(v)
        for _ in range(50):
            x0 = v.vertices[int(rng.integers(0, v.num_vertices))]
            s = float(rng.uniform(0.1, 1.0)) * 0.8 * diam
            r = float(rng.uniform(0.05, 0.95)) * s
            rep = blowup.monotonicity_check(v, x0, r, s)
            assert rep.slack >= -0.02, (rep.slack, x0.tolist(), r, s)
        pts = [p["point"] for p in out.analytic["density_points"]]
        ly = blowup.li_yau_check(v, pts)
        assert abs(ly.gap) < 0.05


def test_07_branched_point_density():
    for delta in (0.0, 0.1):
        v = gen_branched_patch(delta, 1.0, 5).varifold
        rep = blowup.density(v, np.zeros(3))
        assert rep.theta == pytest.approx(2.0, abs=0.03), delta
    flat = gen_branched_patch(0.0, 1.0, 5).varifold
    for r in (0.1, 0.25, 0.5):
        assert blowup.ball_mass_ladder(flat, np.zeros(3), [r])[0] == pytest.approx(
            2 * math.pi * r * r, rel=1e-6
        )


def test_08_conormal_closed_form():
    unit = CircleSpec([0, 0, 0], 1.0, [0, 0, 1])
    assert circle_conormal_integral(unit, [0, 0, 1]) == pytest.approx(
        -math.pi, abs=1e-12
    )
    # basepoints one radius away from the center, below the plane: the two
    # square roots collapse and the integral is +pi on the whole family
    for psi in np.linspace(0.02, 0.8 * math.pi / 2, 50):
        x0 = [math.sin(psi), 0.0, -math.cos(psi)]
        assert circle_conormal_integral(unit, x0) == pytest.approx(
            math.pi, abs=1e-12
        )
    sup = sup_conormal_integral(make_datum([unit]))
    assert sup.value == pytest.approx(math.pi, abs=1e-4)
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        circle = CircleSpec(
            center=2.0 * rng.standard_normal(3),
            radius=float(np.exp(rng.uniform(-1.0, 1.0))),
            normal=rng.standard_normal(3),
            m=int(rng.integers(1, 4)),
            conormal_sign=int(rng.choice([-1, 1])),
        )
        x0 = 3.0 * rng.standard_normal(3)
        w = (x0 - circle.center) / circle.radius
        c = w @ circle.normal
        a = np.linalg.norm(w - c * np.asarray(circle.normal))
        if math.hypot(a - 1.0, c) < 1e-3:
            continue
        checked += 1
        exact = circle_conormal_integral(circle, x0)
        quad = circle_conormal_integral_quad(circle, x0, n_samples=2048)
        assert abs(exact - quad) <= 1e-10


def test_09_first_variation_identity(sphere3, torus3):
    rng = np.random.default_rng(2026)
    for out in (sphere3, torus3):
        v = out.varifold
        f = curvature.mean_curvature(v)
        for _ in range(10):
            phi = rng.normal(size=v.vertices.shape)
            phi /= np.abs(phi).max()
            s = math.fsum(np.einsum("ij,ij->i", phi, f.H) * f.vertex_area)
            t = 1e-5
            vp = DiscreteVarifold(v.vertices + t * phi, v.faces, v.multiplicity)
            vm = DiscreteVarifold(v.vertices - t * phi, v.faces, v.multiplicity)
            fd = (mesh.total_mass(vp) - mesh.total_mass(vm)) / (2 * t)
            assert abs(s + fd) <= 1e-6 * abs(fd)
    disk = gen_flat_disk(1.0, 3).varifold
    phi = rng.normal(size=disk.vertices.shape)
    assert first_variation_residual(disk, phi) < 1e-10


def test_10_topology_invariants(sphere3, torus3):
    s = curvature.euler_characteristic(sphere3.varifold)
    assert s.chi == 2 and s.genus == 0 and s.orientable
    t = curvature.euler_characteristic(torus3.varifold)
    assert t.chi == 0 and t.genus == 1 and t.orientable


def test_11_energy_functionals(sphere5):
    v = sphere5.varifold
    # round unit sphere: the signed scalar curvature is -2, so the bending
    # energy with offset c0 is pi*(2 + c0)^2
    assert curvature.helfrich_energy(v, 0.0) == pytest.approx(4 * math.pi, rel=0.01)
    assert curvature.helfrich_energy(v, 1.0) == pytest.approx(9 * math.pi, rel=0.01)
    assert curvature.helfrich_energy(v, -2.0) == pytest.approx(0.0, abs=0.05)
    assert curvature.enclosed_volume(v) == pytest.approx(4 * math.pi / 3, rel=0.005)


def test_12_readme_python_quick_start():
    """The README's Python quick-start runs as printed, and each bare
    expression in it gives the value its comment states."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Quick start (Python)", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    shown = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            shown.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), scope))
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), scope)
    willmore, theta, match = shown
    assert willmore == pytest.approx(SIX_PI, rel=0.02)
    assert theta == pytest.approx(1.5, abs=0.05)
    assert match == "three half circles"
