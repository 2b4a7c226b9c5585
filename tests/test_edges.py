"""The mesh's edge structure has one owner: ``mesh._edge_keys``, ``_incidences`` and ``_conormals``.

Each helper is checked against the formulas it replaced, kept here as references:
the per-column and half-edge keys, the slices of the CSR incidence arrays, and
the boundary conormals as ``_boundary_conormals`` formed them. Every output keeps
its bytes, dtype and shape.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varifold_lab import generators
from varifold_lab._kernels import _cross
from varifold_lab.mesh import DiscreteVarifold, _boundary_conormals, _conormals, _edge_keys, _incidences, _split

from test_generators import _ARGS


def _same(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@pytest.mark.parametrize("name", sorted(_ARGS))
def test_edge_keys_equal_the_column_and_half_edge_formulas(name):
    v = generators.GENERATORS[name](**_ARGS[name], level=2).varifold
    f, n = v.faces, v.num_vertices
    columns = np.stack([np.minimum(f[:, k], f[:, (k + 1) % 3]) * n + np.maximum(f[:, k], f[:, (k + 1) % 3])
                        for k in range(3)], axis=1)
    he = f[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    half_edges = np.minimum(he[:, 0], he[:, 1]) * n + np.maximum(he[:, 0], he[:, 1])
    key = _edge_keys(f, n)
    assert _same(key, columns)
    assert _same(key.ravel(), half_edges)
    # _split's ends are the sorted ends of the half-edge that first met each edge
    _, first = np.unique(half_edges, return_index=True)
    ends, _ = _split(f, n)
    assert _same(ends, np.sort(he[np.sort(first)], axis=1))


_MESHES = {
    "cap": generators.gen_cap(1.0, 1.2, 2).varifold,  # boundary edges: one incidence
    "torus": generators.gen_torus(1.0, 0.4, 2).varifold,  # interior edges: two
    "triple-bubble": generators.gen_triple_bubble(2).varifold,  # junction edges: three
}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(_MESHES)))
def test_incidences_are_the_leading_slices_of_the_csr_arrays(data, name):
    topo = _MESHES[name].topology
    e = np.asarray(data.draw(st.lists(st.integers(0, len(topo.edges) - 1), min_size=1, max_size=30)),
                   dtype=np.int64)
    k = data.draw(st.integers(1, int(topo.counts[e].min())))
    faces, signs = _incidences(topo, e, k)
    want = [slice(topo.offsets[i], topo.offsets[i] + k) for i in e]
    assert _same(faces, np.stack([topo.inc_faces[s] for s in want]))
    assert _same(signs, np.stack([topo.inc_signs[s] for s in want]))


def _boundary_conormals_before(v: DiscreteVarifold, nhat: np.ndarray) -> tuple[np.ndarray, ...]:
    """``_boundary_conormals`` as it read the CSR arrays and formed its own conormals."""
    topo = v.topology
    be = topo.boundary_edges
    edges = topo.edges[be]
    f = topo.inc_faces[topo.offsets[be]]
    s = topo.inc_signs[topo.offsets[be]].astype(np.float64)
    evec = np.take(v.vertices, edges[:, 1], axis=0) - np.take(v.vertices, edges[:, 0], axis=0)
    evec *= s[:, None]
    nu = _cross(evec, np.take(nhat, f, axis=0))
    return edges, f, evec, nu


@pytest.mark.parametrize("name", ["cap", "flat-disk", "branched-patch", "sphere"])
def test_boundary_conormals_keep_their_bytes(name):
    v = generators.GENERATORS[name](**_ARGS[name], level=3).varifold
    nhat = v.face_geometry[0]
    want = _boundary_conormals_before(v, nhat)
    assert (len(want[0]) > 0) == (name != "sphere")  # the closed sphere: empty arrays
    f, evec, nu = _conormals(v, nhat, v.topology.boundary_edges, 1)
    for got, ref in zip((f[:, 0], evec[:, 0], nu[:, 0]), want[1:]):
        assert _same(got, ref)
    for got, ref in zip(_boundary_conormals(v, nhat), want):
        assert _same(got, ref)
