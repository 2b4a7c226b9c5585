import math
import os

import numpy as np
import pytest

import varifold_lab
from varifold_lab import generators
from varifold_lab.curvature import _area_gradients
from varifold_lab.mesh import DiscreteVarifold, _boundary_conormals, face_normals


def _child_env(**extra) -> dict:
    """This environment, with the imported package findable by a child Python."""
    env = dict(os.environ, **extra)
    src = os.path.dirname(os.path.dirname(varifold_lab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def sphere3():
    """Unit sphere, level 3 (642 vertices)."""
    return generators.gen_sphere(1.0, 3)


@pytest.fixture(scope="session")
def sphere4():
    return generators.gen_sphere(1.0, 4)


@pytest.fixture(scope="session")
def torus3():
    return generators.gen_torus(2.0, 0.7, 3)


@pytest.fixture(scope="session")
def double_bubble4():
    """Standard double bubble, theta2=0.7, level 4."""
    return generators.gen_double_bubble(0.7, 1.0, 4)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260816)


def two_triangle_square():
    """Unit square split along a diagonal: 1 interior edge, 4 boundary edges."""
    vertices = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
    faces = np.array([[0, 1, 2], [0, 2, 3]])
    return vertices, faces


def triple_fan():
    """Three half-disc-like triangles sharing one edge (a triple junction)."""
    vertices = np.array(
        [[0, 0, 0], [0, 0, 1], [1, 0, 0], [-0.5, 0.8660254, 0], [-0.5, -0.8660254, 0]]
    )
    faces = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    return vertices, faces


def projective_plane():
    """The 6-vertex real projective plane: closed, manifold, not orientable."""
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
             (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]
    return DiscreteVarifold(np.random.default_rng(0).standard_normal((6, 3)), faces)


def two_spheres():
    """Two disjoint unit spheres at level 3: chi 4, two components."""
    s = generators.gen_sphere(1.0, 3).varifold
    return DiscreteVarifold(np.vstack([s.vertices, s.vertices + 5.0]),
                         np.vstack([s.faces, s.faces + s.num_vertices]))


def tangent_spheres(level: int) -> DiscreteVarifold:
    """Two unit spheres at ``level`` that touch at vertex 0 and share it: the second is the
    first reflected through that vertex, x -> 2 x_0 - x, with its windings reversed so that
    both are wound outward. Each edge has two faces, but the faces at vertex 0 form two fans:
    a pinch, with chi 3 where the two spheres have chi 4."""
    s = generators.gen_sphere(1.0, level).varifold
    n = s.num_vertices
    index = np.concatenate([[0], n + np.arange(n - 1)])  # the reflected vertices, vertex 0 shared
    return DiscreteVarifold(np.vstack([s.vertices, (2.0 * s.vertices[0] - s.vertices)[1:]]),
                            np.vstack([s.faces, index[s.faces[:, ::-1]]]), oriented=True)


def first_variation_residual(v, phi) -> float:
    """Defect of the first-variation identity for the vertex field phi (an array or a function of
    the vertices), the oracle for the mean curvature and the boundary conormals:

        | d/dt M(v + t phi)  +  sum_{smooth v} <phi_v, H_v A_v>  -  sum_{boundary e} mult |e| <phi_mid, nu_e> |

    where "smooth" excludes boundary and junction vertices and nu_e is the
    outward in-plane conormal. Zero to round-off on closed junction-free
    meshes and on flat patches; the untreated junction force remains as a
    residual that shrinks under refinement.
    """
    phi = np.asarray(phi(v.vertices) if callable(phi) else phi, dtype=np.float64)
    topo = v.topology
    nhat = face_normals(v)[0]
    dots = np.einsum("ij,ij->i", phi, _area_gradients(v, nhat))
    div_term = math.fsum(dots)
    smooth = ~topo.boundary_vertex_mask & ~topo.junction_vertex_mask
    h_term = -math.fsum(dots[smooth])  # <phi, H A> = -<phi, grad M> at smooth vertices
    edges, f, _, nu = _boundary_conormals(v, nhat)
    mid_phi = 0.5 * (phi[edges[:, 0]] + phi[edges[:, 1]])
    bdry_term = math.fsum(v.multiplicity[f] * np.einsum("ij,ij->i", mid_phi, nu))
    return abs(div_term + h_term - bdry_term)
