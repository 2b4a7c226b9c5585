"""The two cached derived-geometry builds against their whole-mesh formulas.

``mesh.edge_topology`` builds its edge keys from the face columns, and
``curvature._area_gradients`` sums one corner's terms at a time. The
reference functions here are the formulas they replaced: a (3F, 2) half-edge
array and an (F, 3, 3) array of all corner terms. Every output must keep its
bytes, dtype and shape, and each build's memory peak stays bounded.
"""
import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varifold_lab import curvature, generators, mesh
from varifold_lab._kernels import _cross
from varifold_lab.mesh import DiscreteVarifold, EdgeTopology, _frozen

from test_generators import _ARGS


def _half_edge_topology(v: DiscreteVarifold) -> EdgeTopology:
    """``edge_topology`` as it sorted a (3F, 2) half-edge array, cast to the widths of ``EdgeTopology``."""
    f = v.faces
    he = np.stack([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]], axis=1).reshape(-1, 2)
    lo = np.minimum(he[:, 0], he[:, 1])
    hi = np.maximum(he[:, 0], he[:, 1])
    key = lo * v.num_vertices + hi
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(first)
    lo_s = lo[order]
    edges = np.stack([lo_s[starts], hi[order[starts]]], axis=1).astype(np.int32)
    offsets = np.append(starts, len(order)).astype(np.int32)
    counts = np.diff(offsets)
    inc_faces = (order // 3).astype(np.int32)
    inc_signs = np.where(he[order, 0] == lo_s, 1, -1).astype(np.int8)
    boundary = np.nonzero(counts == 1)[0].astype(np.int32)
    interior = np.nonzero(counts == 2)[0].astype(np.int32)
    junction = np.nonzero(counts >= 3)[0].astype(np.int32)
    bmask = np.zeros(v.num_vertices, dtype=bool)
    jmask = np.zeros(v.num_vertices, dtype=bool)
    bmask[edges[boundary].ravel()] = True
    jmask[edges[junction].ravel()] = True
    return EdgeTopology(*map(_frozen, (edges, counts, offsets, inc_faces, inc_signs, boundary,
                                       interior, junction, bmask, jmask)))


def _all_corner_gradients(v: DiscreteVarifold, nhat: np.ndarray) -> np.ndarray:
    """``_area_gradients`` as it summed one (F, 3, 3) array of every corner's terms."""
    p0, p1, p2 = (v.vertices[v.faces[:, k]] for k in range(3))
    g = np.stack([_cross(nhat, p2 - p1), _cross(nhat, p0 - p2), _cross(nhat, p1 - p0)], axis=1)
    g *= 0.5
    g *= v.multiplicity[:, None, None].astype(np.float64)
    return curvature._vertex_sum(v.faces, g, v.num_vertices)


def _layout(record) -> dict:
    """Each array field of ``record`` as (dtype, shape, bytes)."""
    return {k.name: (a.dtype.str, a.shape, a.tobytes()) for k in dataclasses.fields(record)
            if isinstance(a := getattr(record, k.name), np.ndarray)}


def _curvature(v: DiscreteVarifold, gradients=None) -> dict:
    """``mean_curvature`` of a new instance of ``v``, through ``gradients`` if given."""
    w = DiscreteVarifold(v.vertices, v.faces, v.multiplicity)
    with mock.patch.object(curvature, "_area_gradients", gradients or curvature._area_gradients):
        return _layout(curvature.mean_curvature(w))


def _assert_builds_keep_their_bits(v: DiscreteVarifold) -> None:
    assert _layout(mesh.edge_topology(v)) == _layout(_half_edge_topology(v))
    assert _curvature(v) == _curvature(v, _all_corner_gradients)


@pytest.mark.parametrize("name", sorted(_ARGS))
def test_derived_builds_equal_their_whole_mesh_formulas(name):
    # every generator: junction curves (bubbles, singular pair), boundary
    # (cap, disk, branched patch) and closed surfaces
    for level in (2, 3, 4):
        _assert_builds_keep_their_bits(generators.GENERATORS[name](**_ARGS[name], level=level).varifold)


@pytest.mark.parametrize("num_vertices", [0, 3])
def test_derived_builds_of_a_mesh_without_faces(num_vertices):
    v = DiscreteVarifold(np.zeros((num_vertices, 3)), np.zeros((0, 3), dtype=np.int64))
    _assert_builds_keep_their_bits(v)
    assert mesh.edge_topology(v).edges.shape == (0, 2)


_SMALL = {name: generators.GENERATORS[name](**_ARGS[name], level=2).varifold for name in sorted(_ARGS)}

_WIDTHS = {"edges": np.int32, "counts": np.int32, "offsets": np.int32, "inc_faces": np.int32,
           "inc_signs": np.int8, "boundary_edges": np.int32, "interior_edges": np.int32,
           "junction_edges": np.int32, "boundary_vertex_mask": np.bool_, "junction_vertex_mask": np.bool_}


@pytest.mark.parametrize("name", [*sorted(_SMALL), "no-faces-0", "no-faces-3"])
def test_edge_topology_arrays_have_their_natural_widths(name):
    v = _SMALL.get(name) or DiscreteVarifold(np.zeros((int(name[-1]), 3)), np.zeros((0, 3), dtype=np.int64))
    topo = mesh.edge_topology(v)
    assert {k.name: getattr(topo, k.name).dtype for k in dataclasses.fields(topo)} == _WIDTHS
    for e, k in ((topo.interior_edges, 2), (topo.junction_edges, 3), (topo.boundary_edges, 1)):
        f, s = mesh._incidences(topo, e, k)
        assert (f.dtype, s.dtype, f.shape, s.shape) == (np.int32, np.int8, (len(e), k), (len(e), k))


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(_SMALL)), seed=st.integers(0, 2**32 - 1))
def test_derived_builds_keep_their_bits_under_relabelling(name, seed):
    v = _SMALL[name]
    rng = np.random.default_rng(seed)
    order = rng.permutation(v.num_vertices)  # new vertex j is old vertex order[j]
    label = np.argsort(order)
    shuffle = rng.permutation(v.num_faces)
    mult = rng.integers(1, 4, v.num_faces)
    _assert_builds_keep_their_bits(DiscreteVarifold(v.vertices[order], label[v.faces][shuffle], mult))


def _second_call_peak(fn, v) -> tuple[int, int]:
    """tracemalloc's peak over a second call of ``fn(v)``, and the bytes of what it returns."""
    fn(v)  # the first call fills v's caches
    tracemalloc.start()
    try:
        out = fn(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sum(a.nbytes for a in vars(out).values() if isinstance(a, np.ndarray))


def test_derived_builds_hold_few_temporaries():
    v = generators.gen_triple_bubble(4).varifold
    # 3.18 MB measured on triple bubble L4, keeping 1.79 MB; with int64 arrays
    # it peaked at 4.80 MB and kept 4.25 MB, and the (3F, 2) half-edge sort
    # peaked at 11.86 MB
    peak, kept = _second_call_peak(mesh.edge_topology, v)
    assert peak <= 3_700_000 and kept <= 1_800_000
    # 3.5 times its output as measured (2.72 MB against 0.77 MB), 14% margin;
    # the (F, 3, 3) array of all corner terms peaked at 5.4 times (4.21 MB)
    peak, kept = _second_call_peak(curvature.mean_curvature, v)
    assert peak <= 4.0 * kept
