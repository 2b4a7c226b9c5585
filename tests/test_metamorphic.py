"""Metamorphic properties of ball masses, densities, links and topology:
scaling the mesh, doubling its multiplicities, relabelling its faces and
vertices and moving it rigidly change the outputs in known ways."""
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varifold_lab import blowup, curvature, generators
from varifold_lab.mesh import DiscreteVarifold, _fans

from conftest import projective_plane, tangent_spheres, two_spheres

MESHES = [(name, level) for name in ("sphere", "double_bubble", "triple_bubble") for level in (2, 3)]


@functools.cache
def _mesh(name: str, level: int) -> DiscreteVarifold:
    if name == "sphere":
        return generators.gen_sphere(1.0, level).varifold
    if name == "double_bubble":
        return generators.gen_double_bubble(0.7, 1.0, level).varifold
    return generators.gen_triple_bubble(level).varifold


def _center(v: DiscreteVarifold, i: int) -> np.ndarray:
    return v.vertices[i % v.num_vertices]


def _relabelled(v: DiscreteVarifold, seed: int) -> tuple[DiscreteVarifold, np.ndarray]:
    """``v`` with its vertices and faces in a random order, and the new index of each old vertex."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(v.num_vertices)  # new vertex j is old vertex order[j]
    label = np.argsort(order)  # old vertex i is new vertex label[i]
    shuffle = rng.permutation(v.num_faces)
    return DiscreteVarifold(v.vertices[order], label[v.faces][shuffle], v.multiplicity[shuffle]), label


def _radii(r: float) -> np.ndarray:
    return r * 0.5 ** np.arange(6)


mesh = st.sampled_from(MESHES)
vertex = st.integers(0, 10**6)
radius = st.floats(0.05, 1.5)


@settings(max_examples=30, deadline=None)
@given(mesh=mesh, i=vertex, r=radius, k=st.integers(-4, 4))
def test_power_of_two_scaling_scales_ball_masses_bit_for_bit(mesh, i, r, k):
    v = _mesh(*mesh)
    x0, radii, s = _center(v, i), _radii(r), 2.0**k
    scaled = DiscreteVarifold(s * v.vertices, v.faces, v.multiplicity)
    want = s * s * blowup.ball_mass_ladder(v, x0, radii)
    assert blowup.ball_mass_ladder(scaled, s * x0, s * radii).tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None)
@given(mesh=mesh, i=vertex, r=radius, lam=st.floats(0.1, 10.0))
def test_scaling_scales_ball_masses_by_its_square(mesh, i, r, lam):
    v = _mesh(*mesh)
    x0, radii = _center(v, i), _radii(r)
    scaled = DiscreteVarifold(lam * v.vertices, v.faces, v.multiplicity)
    np.testing.assert_allclose(blowup.ball_mass_ladder(scaled, lam * x0, lam * radii),
                               lam * lam * blowup.ball_mass_ladder(v, x0, radii), rtol=1e-12, atol=0)


@settings(max_examples=30, deadline=None)
@given(mesh=mesh, i=vertex, r=radius)
def test_doubling_multiplicities_doubles_masses_and_density(mesh, i, r):
    v = _mesh(*mesh)
    x0, radii = _center(v, i), _radii(r)
    doubled = DiscreteVarifold(v.vertices, v.faces, 2 * v.multiplicity)
    want = 2.0 * blowup.ball_mass_ladder(v, x0, radii)
    assert blowup.ball_mass_ladder(doubled, x0, radii).tobytes() == want.tobytes()
    assert blowup.density(doubled, x0).theta == pytest.approx(2.0 * blowup.density(v, x0).theta,
                                                              rel=1e-12, abs=0)


@settings(max_examples=30, deadline=None)
@given(mesh=mesh, i=vertex, r=st.floats(0.05, 1.0), seed=st.integers(0, 2**32 - 1))
def test_relabelling_faces_and_vertices_keeps_density_and_link_length(mesh, i, r, seed):
    v = _mesh(*mesh)
    relabelled = _relabelled(v, seed)[0]
    x0 = _center(v, i)
    assert blowup.density(relabelled, x0).theta == pytest.approx(blowup.density(v, x0).theta,
                                                                  rel=1e-12, abs=0)
    assert blowup.spherical_link(relabelled, x0, r).total_length == pytest.approx(
        blowup.spherical_link(v, x0, r).total_length, rel=1e-12, abs=0)


CLOSED = {"sphere": lambda: generators.gen_sphere(1.0, 2).varifold,
          "torus": lambda: generators.gen_torus(2.0, 0.7, 2).varifold,
          "projective_plane": projective_plane, "two_spheres": two_spheres}


@functools.cache
def _closed(name: str) -> DiscreteVarifold:
    return CLOSED[name]()


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(CLOSED)), seed=st.integers(0, 2**32 - 1))
def test_relabelling_faces_and_vertices_keeps_the_topology_report(name, seed):
    v = _closed(name)
    assert curvature.euler_characteristic(_relabelled(v, seed)[0]) == curvature.euler_characteristic(v)


FANNED = {"tangent_spheres": lambda: tangent_spheres(2), "projective_plane": projective_plane,
          "cap": lambda: generators.gen_cap(1.0, 1.2, 2).varifold,
          "double_bubble": lambda: generators.gen_double_bubble(0.7, 1.0, 2).varifold}


@functools.cache
def _fanned(name: str) -> DiscreteVarifold:
    return FANNED[name]()


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(FANNED)), seed=st.integers(0, 2**32 - 1))
def test_relabelling_faces_and_vertices_keeps_the_fan_counts(name, seed):
    """Each vertex keeps its number of fans: two at the pinch of the tangent spheres, one
    inside a sheet or on a rim, and one per sheet at the double bubble's junction vertices."""
    v = _fanned(name)
    relabelled, label = _relabelled(v, seed)
    np.testing.assert_array_equal(_fans(relabelled)[label], _fans(v))


#: Relative agreement asked of a rigidly moved mesh: rotating and translating
#: rounds every coordinate, so the outputs move by a few ulps, not by nothing.
RIGID_TOL = 1e-9


@settings(max_examples=20, deadline=None)
@given(mesh=mesh, i=vertex, r=st.floats(0.05, 1.0), seed=st.integers(0, 2**32 - 1))
def test_rigid_motions_keep_ball_masses_density_and_link_length(mesh, i, r, seed):
    v = _mesh(*mesh)
    rng = np.random.default_rng(seed)
    q, upper = np.linalg.qr(rng.standard_normal((3, 3)))
    rot = q * np.sign(np.diag(upper))  # Haar-distributed on O(3)
    rot[:, 0] *= np.sign(np.linalg.det(rot))  # and then a rotation
    shift = rng.uniform(-10.0, 10.0, 3)
    moved = DiscreteVarifold(v.vertices @ rot.T + shift, v.faces, v.multiplicity)
    x0, radii = _center(v, i), _radii(r)
    y0 = rot @ x0 + shift
    np.testing.assert_allclose(blowup.ball_mass_ladder(moved, y0, radii),
                               blowup.ball_mass_ladder(v, x0, radii), rtol=RIGID_TOL, atol=0)
    assert blowup.density(moved, y0).theta == pytest.approx(blowup.density(v, x0).theta,
                                                            rel=RIGID_TOL, abs=0)
    if np.abs(np.linalg.norm(v.vertices - x0, axis=1) - r).min() > RIGID_TOL * r:  # see below
        assert blowup.spherical_link(moved, y0, r).total_length == pytest.approx(
            blowup.spherical_link(v, x0, r).total_length, rel=RIGID_TOL, abs=0)


@pytest.mark.xfail(strict=True, reason="a link sphere through mesh vertices loses arcs")
def test_rigid_motion_keeps_the_link_of_a_sphere_through_vertices():
    # Found by the test above: on triple bubble L2 two vertices lie at distance
    # 1 from vertex 0, to round-off. Radii 1 -+ 1e-9 give 8.5243 on both
    # meshes, r = 1 gives 7.4813 as generated and 8.0028 once moved.
    v = generators.gen_triple_bubble(2).varifold
    rng = np.random.default_rng(1)
    q, upper = np.linalg.qr(rng.standard_normal((3, 3)))
    rot = q * np.sign(np.diag(upper))
    rot[:, 0] *= np.sign(np.linalg.det(rot))
    shift = rng.uniform(-10.0, 10.0, 3)
    moved = DiscreteVarifold(v.vertices @ rot.T + shift, v.faces, v.multiplicity)
    near = blowup.spherical_link(v, v.vertices[0], 1.0 + 1e-9).total_length
    assert blowup.spherical_link(v, v.vertices[0], 1.0).total_length == pytest.approx(near, rel=1e-6)
    assert blowup.spherical_link(moved, rot @ v.vertices[0] + shift, 1.0).total_length == pytest.approx(
        near, rel=1e-6)
