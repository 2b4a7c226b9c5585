"""Metamorphic properties of ball masses, densities and links: scaling the
mesh, doubling its multiplicities and relabelling its faces and vertices
change the outputs in known ways."""
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varifold_lab import blowup, generators
from varifold_lab.mesh import DiscreteVarifold

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
    rng = np.random.default_rng(seed)
    order = rng.permutation(v.num_vertices)  # new vertex j is old vertex order[j]
    label = np.argsort(order)  # old vertex i is new vertex label[i]
    shuffle = rng.permutation(v.num_faces)
    relabelled = DiscreteVarifold(v.vertices[order], label[v.faces][shuffle], v.multiplicity[shuffle])
    x0 = _center(v, i)
    assert blowup.density(relabelled, x0).theta == pytest.approx(blowup.density(v, x0).theta,
                                                                  rel=1e-12, abs=0)
    assert blowup.spherical_link(relabelled, x0, r).total_length == pytest.approx(
        blowup.spherical_link(v, x0, r).total_length, rel=1e-12, abs=0)
