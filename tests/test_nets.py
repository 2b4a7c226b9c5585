import dataclasses
import hashlib
import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

import varifold_lab
from varifold_lab import netmatch, nets
from varifold_lab.cli import main
from varifold_lab.nets import (
    NetError,
    balance_residual,
    catalogue,
    load_net,
    make_net,
    match_link,
    relax,
    save_net,
    total_length,
)

FOUR_PI = 4.0 * math.pi


@pytest.mark.parametrize("vertices, arcs, message", [
    ([[1, 0, 0], [0, 1, 0]], [[0, 1, 1.9]], "arcs row 0 must be 3 integers, not [0, 1, 1.9]"),
    ([[1, 0, 0], [0, 1, 0]], [[0, 1, True]], "arcs row 0 must be 3 integers, not [0, 1, True]"),
    ([[True, 0, 0], [0, 1, 0]], [[0, 1, 1]], "vertices row 0 must be 3 numbers, not [True, 0, 0]"),
    ([["1", "0", "0"], [0, 1, 0]], [[0, 1, 1]], "vertices row 0 must be 3 numbers, not ['1', '0', '0']"),
    (np.array([[1, 0, 0], [0, 1, 0]], dtype=bool), [],
     "vertices row 0 must be 3 numbers, not [True, False, False]"),
    ([[1, 0, 0], [0, 1, 0]], [[0, "1", 1]], "arcs row 0 must be 3 integers, not [0, '1', 1]"),
    ([[1, 0, 0], [0, 1, 0]], np.array([[0.0, 1.0, 1.0]]),
     "arcs row 0 must be 3 integers, not [0.0, 1.0, 1.0]"),
    ([[1, 0, 0], [0, 1, 0]], np.array([[0, 1, 2**63]], dtype=np.uint64),
     f"arcs row 0 must be 3 integers, not [0, 1, {2**63}]"),
    ([[[1, 0, 0]], [[0, 1, 0]]], [], "vertices row 0 must be 3 numbers, not [[1, 0, 0]]"),
    (1.0, [], "vertices must be a non-empty list of rows of 3 numbers, not 1.0"),
    (np.float64(1.0), [], "vertices must be a non-empty list of rows of 3 numbers, not 1.0"),
    ([], [], "vertices must be a non-empty list of rows of 3 numbers, not []"),
    ([[1, 0, 0], [0, 1, 0]], 5, "arcs must be a list of rows of 3 integers, not 5"),
], ids=["float-multiplicity", "bool-multiplicity", "bool-vertex", "string-vertex", "bool-vertex-array",
        "string-arc", "float-arc-array", "uint64-arc-beyond-int64", "nested-rows", "scalar", "numpy-scalar",
        "no-vertices", "scalar-arcs"])
def test_make_net_coerces_nothing(vertices, arcs, message):
    with pytest.raises(NetError, match=f"^{re.escape(message)}$"):
        make_net(vertices, arcs)


def test_catalogue_entries_derive_their_flags():
    net = catalogue()[0].net
    e = nets.CatalogueEntry(name="x", closed_form="2*pi", length=2 * math.pi, combinatorics="", net=net)
    assert (e.n_arcs, e.below_4pi, e.constructible, e.invalid_as_printed) == (4, True, True, False)
    e = nets.CatalogueEntry(name="y", closed_form="?", length=None, combinatorics="", n_arcs=21)
    assert (e.n_arcs, e.below_4pi, e.constructible, e.invalid_as_printed) == (21, False, False, True)
    e = nets.CatalogueEntry(name="z", closed_form="4*pi", length=FOUR_PI, combinatorics="", n_arcs=8)
    assert not e.below_4pi  # strictly below
    with pytest.raises(TypeError, match="n_arcs"):
        nets.CatalogueEntry(name="x", closed_form="", length=1.0, combinatorics="", net=net, n_arcs=4)
    for flag in ("below_4pi", "constructible", "invalid_as_printed"):
        with pytest.raises(TypeError):
            nets.CatalogueEntry(name="x", closed_form="", length=1.0, combinatorics="", **{flag: True})


def test_catalogue_is_built_once_and_shared():
    assert type(catalogue()) is tuple
    assert catalogue() is catalogue()

# Closed-form lengths of the ten-net catalogue, frozen to full precision.
FROZEN_LENGTHS = [
    2.0 * math.pi,
    3.0 * math.pi,
    11.463799417494112,
    14.771513008089297,
    16.48165843237495,
    13.502820874218845,
    21.89182968680899,
    20.16279829200947,
    17.856508227214103,
    None,
]


@pytest.fixture(scope="module")
def entries():
    return catalogue()


def _perturbed(net, scale, seed):
    rng = np.random.default_rng(seed)
    x = net.vertices + scale * rng.standard_normal(net.vertices.shape)
    x /= np.linalg.norm(x, axis=1)[:, None]
    return make_net(x, net.arcs, net.major)


def _random_rotation(seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


# ---------------------------------------------------------------------------
# catalogue


def test_catalogue_has_ten_entries(entries):
    assert len(entries) == 10
    assert len({e.name for e in entries}) == 10


def test_catalogue_lengths_frozen(entries):
    for entry, expected in zip(entries, FROZEN_LENGTHS):
        if expected is None:
            assert entry.length is None
        else:
            assert entry.length == pytest.approx(expected, abs=1e-12)


_PENTAGON_RHO2 = 2.0 * (5.0 - math.sqrt(5.0)) / 15.0

#: Each constructible net: its arc count, its edge dots, and the sha256 of its
#: vertex bytes and of its undirected arcs (rows [min(i, j), max(i, j),
#: multiplicity], ascending), recorded while every net had its own constructor.
NET_PINS = {
    "great circle": (4, [0.0],
        "67590978e9f3a8b90214163788a3d63cdc41b9d6f24ca6b4d7de0218e86f01a5",
        "20ab7c1d1c66765eaf896cc0afa024fcda001972aea662f1349a83669c095837"),
    "three half circles": (6, [0.0],
        "5771359147762ed8c9527b4c0ac90dbcf2c055464632d7295efe761cabe5c4e1",
        "e5786990f9f224646b55e0fe96584e69df571228aafcfd83d3d35c97320de870"),
    "tetrahedron": (6, [-1.0 / 3.0],
        "14e17820655757015663ce95decfb735b1ecdb28520923bd693a0e10e4549169",
        "eb1f654c1d7b7fd78963be898b9a4d412d1eae8650b698ecc0e86e3cc7405d08"),
    "cube": (12, [1.0 / 3.0],
        "d5f0f943aa6c9763c36e4de2fca7c9a99417ad6f23e057acbc09ea74f740502c",
        "e175e911c3ea3ea9cc344d58a37397aa0b2d7f225750068d32b2e04186f6be59"),
    "pentagon prism": (15, [_PENTAGON_RHO2 * math.cos(0.4 * math.pi) + 1.0 - _PENTAGON_RHO2,
                            2.0 * _PENTAGON_RHO2 - 1.0],
        "a4bdd474917ad040fcc11b720861c1795f65c61983df5d6efe0c4ad0925feb70",
        "5a935ffebbe82bbe57a21657a5cac0033bf5ad0064bef0c552ea49a18cac182c"),
    "triangle prism": (9, [-1.0 / 3.0, 7.0 / 9.0],
        "5e301cac7446faee46526427350bc7074fa4c44c74336c42da5adf8a544a504c",
        "0e6f9c3d59e2ad849c8774bd1c7e94eb68947e37e2615ccbea3ae594b04e0763"),
    "dodecahedron": (30, [math.sqrt(5.0) / 3.0],
        "6f371e73f8d6da53484707f8598f412d43d3ecae23b117bd4e1962784f2afc8b",
        "c4da57b770979ac48271462c779906b8057dd0ceaa5c8e22516f6087780312a7"),
}


def _undirected(net):
    ends = np.sort(net.arcs[:, :2], axis=1)
    rows = np.column_stack([ends, net.arcs[:, 2]])
    return rows[np.lexsort(rows.T[::-1])]


@pytest.mark.parametrize("name", list(NET_PINS))
def test_catalogue_nets_keep_their_vertices_and_arcs(entries, name):
    """Each net is its vertex set plus the arcs at its edge dots: the vertex
    bytes and the set of undirected arcs are the pinned ones, every arc joins
    two vertices at an edge dot, and the regular solids, whose arcs come in
    pair order, keep their arc rows."""
    net = {e.name: e.net for e in entries}[name]
    count, dots, vertex_hash, arc_hash = NET_PINS[name]
    rows = _undirected(net)
    assert net.num_arcs == count
    assert hashlib.sha256(net.vertices.tobytes()).hexdigest() == vertex_hash
    assert hashlib.sha256(rows.tobytes()).hexdigest() == arc_hash
    assert not net.major.any() and (net.arcs[:, 2] == 1).all()
    at = np.einsum("ij,ij->i", net.vertices[net.arcs[:, 0]], net.vertices[net.arcs[:, 1]])
    assert (np.abs(at[:, None] - dots).min(axis=1) < 1e-12).all()
    if name in ("tetrahedron", "cube", "dodecahedron"):
        np.testing.assert_array_equal(net.arcs, rows)


def test_net_catalogue_keeps_its_bytes(capsys):
    # recorded while the nets were built with NumPy
    for argv, digest in ((["net", "catalogue"], "d0ef50a5f81aa0a84149b470a0b3bf2f929abda6b43200bc41b4f03e913ec2e6"),
                         (["net", "catalogue", "--json"],
                          "6bc41dbaa1e3fa47ae8231335127b8294928e21d9cc8fff89b4cfba9ff297851")):
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_exactly_first_three_below_4pi(entries):
    flags = [e.below_4pi for e in entries]
    assert flags == [True, True, True] + [False] * 7
    for e in entries:
        if e.length is not None:
            assert e.below_4pi == (e.length < FOUR_PI)


def test_printed_lower_bounds_hold(entries):
    by_name = {e.name: e for e in entries}
    assert by_name["cube"].length > 14.5
    assert by_name["pentagon prism"].length > 16
    assert by_name["triangle prism"].length > 13.5
    assert by_name["dodecahedron"].length > 21
    assert by_name["two squares and eight pentagons"].length > 20
    assert by_name["four pentagons and four quadrilaterals"].length > 17.5


def test_last_entry_invalid_as_printed(entries):
    bad = entries[-1]
    assert bad.invalid_as_printed
    assert bad.length is None
    assert not bad.constructible
    assert "exceeds 1" in bad.note
    assert all(not e.invalid_as_printed for e in entries[:-1])


def test_constructible_entries_carry_nets(entries):
    for e in entries:
        if e.constructible:
            assert e.net is not None
            assert e.net.num_arcs == e.n_arcs
        else:
            assert e.net is None


def test_constructible_nets_have_printed_length(entries):
    for e in entries:
        if e.net is not None:
            assert total_length(e.net) == pytest.approx(e.length, abs=1e-12)


def test_constructible_nets_are_balanced(entries):
    for e in entries:
        if e.net is not None:
            assert balance_residual(e.net) < 1e-10


def test_catalogue_to_dict_is_json_ready(entries):
    for e in entries:
        doc = e.to_dict()
        assert "net" not in doc
        json.dumps(doc)


def test_balance_is_rotation_invariant(entries):
    rot = _random_rotation(5)
    for e in entries:
        if e.net is None:
            continue
        turned = make_net(e.net.vertices @ rot.T, e.net.arcs, e.net.major)
        assert total_length(turned) == pytest.approx(e.length, abs=1e-12)
        assert balance_residual(turned) < 1e-10


# ---------------------------------------------------------------------------
# primitives


def test_total_length_of_one_quarter_arc_and_its_major_arc():
    verts = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    assert total_length(make_net(verts, [[0, 1, 1]])) == pytest.approx(math.pi / 2, abs=1e-15)
    major = make_net(verts, [[0, 1, 1]], major=[True])
    assert total_length(major) == pytest.approx(3 * math.pi / 2, abs=1e-15)


@pytest.mark.parametrize("major", [False, True])
def test_relax_rejects_an_arc_with_antipodal_endpoints(major):
    net = make_net([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], [[0, 1, 1]], major=[major])
    assert total_length(net) == pytest.approx(math.pi, abs=1e-15)
    with pytest.raises(NetError, match=r"^cannot relax an arc with antipodal endpoints \(ambiguous geodesic\)$"):
        relax(net)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda v, a: (2.0 * v, a), "off the unit sphere"),
        (lambda v, a: (v, [[0, 9, 1]]), "out of range"),
        (lambda v, a: (v, [[1, 1, 1]]), "identical endpoints"),
        (lambda v, a: (v, [[0, 1, 0]]), "multiplicities"),
        (lambda v, a: (np.vstack([v[:2], [np.nan, 0.0, 1.0]]), a), r"vertex 2 is not finite: \[nan, 0.0, 1.0\]"),
        (lambda v, a: (np.vstack([v[:2], [0.0, np.inf, 1.0]]), a), "vertex 2 is not finite"),
    ],
)
def test_make_net_validation(mutate, message):
    verts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    arcs = [[0, 1, 1], [1, 2, 1], [2, 0, 1]]
    verts, arcs = mutate(verts, arcs)
    with pytest.raises(NetError, match=message):
        make_net(verts, arcs)


@pytest.mark.parametrize(
    "arcs, row",
    [
        ([[0, 1], [2, 0], [1, 2]], "[0, 1]"),  # (3, 2): reshaping would make two arcs of it
        ([0, 1, 1], "0"),
        ([[0, 1, 1, 1]], "[0, 1, 1, 1]"),
        (np.zeros((1, 3, 1), dtype=np.int64), "[[0], [0], [0]]"),
    ],
    ids=["arcs0", "arcs1", "arcs2", "arcs3"],
)
def test_make_net_rejects_arcs_that_are_not_rows_of_three(arcs, row):
    verts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]])
    with pytest.raises(NetError, match=f"^{re.escape(f'arcs row 0 must be 3 integers, not {row}')}$"):
        make_net(verts, arcs)


def test_a_net_checks_itself_when_built():
    net = make_net(np.eye(3), [[0, 1, 1], [1, 2, 1]])
    off = ((2.0, 0.0, 0.0),) + net.points[1:]
    for build in (lambda: nets.GeodesicNet(off, net.rows, net.flags),
                  lambda: dataclasses.replace(net, points=off)):
        with pytest.raises(NetError, match=r"^vertex 0 is off the unit sphere by 1\.00e\+00$"):
            build()
    for flags in ((False,), (False, True, False)):
        with pytest.raises(NetError, match=f"^a net needs one flag per arc, not {len(flags)} for 2 arcs$"):
            nets.GeodesicNet(net.points, net.rows, flags)


def test_make_net_rejects_vertices_that_are_not_triples():
    with pytest.raises(NetError, match=r"^vertices row 0 must be 3 numbers, not \[1\.0, 0\.0\]$"):
        make_net([[1.0, 0.0], [0.0, 1.0]], [[0, 1, 1]])


def test_make_net_empty_arcs_means_no_arcs():
    verts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    for arcs in ([], (), np.zeros(0, dtype=np.int64), np.zeros((0, 3))):
        net = make_net(verts, arcs)
        assert net.arcs.shape == (0, 3)
        assert net.major.shape == (0,)
        assert total_length(net) == 0.0


@pytest.mark.parametrize("major", [[True], [True, False, True], [2.5, 0], [2, 0], [-1, 0], ["a", "b"],
                                   True, [[True, False]]],
                         ids=["short", "long", "float", "two", "minus-one", "strings", "scalar", "nested"])
def test_make_net_takes_one_flag_per_arc(major):
    # a short array used to broadcast: [True] made both arcs major (3*pi, not 2*pi)
    with pytest.raises(NetError, match="^major must be 2 booleans or 0/1 integers, one per arc"):
        make_net(np.eye(3), [[0, 1, 1], [1, 2, 1]], major=major)


@pytest.mark.parametrize("major", [[True, False], [1, 0], np.array([1, 0], dtype=np.uint8), (True, 0),
                                   [np.True_, np.False_], [np.int64(1), np.uint8(0)], np.array([True, False])])
def test_make_net_takes_booleans_or_zero_one_integers(major):
    net = make_net(np.eye(3), [[0, 1, 1], [1, 2, 1]], major=major)
    assert net.major.dtype == bool and net.major.tolist() == [True, False]
    assert total_length(net) == pytest.approx(2 * math.pi, abs=1e-15)


def test_net_input_views_are_copied():
    base = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    net = make_net(base[1:], [[0, 1, 1]])
    base[1] = [0.0, 0.0, -1.0]
    np.testing.assert_array_equal(net.vertices, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_minor_and_major_arc_close_a_balanced_great_circle():
    # the major arc leaves each endpoint opposite the minor one, so the two cancel
    net = make_net([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[0, 1, 1], [0, 1, 1]], [False, True])
    assert total_length(net) == pytest.approx(2.0 * math.pi, abs=1e-15)
    assert balance_residual(net) < 1e-15
    assert balance_residual(make_net(net.vertices, net.arcs)) == pytest.approx(2.0)


def test_balance_rejects_antipodal_arc():
    verts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    net = make_net(verts, [[0, 1, 1]])  # passes structural checks
    with pytest.raises(NetError, match="antipodal"):
        balance_residual(net)


def test_net_arrays_are_frozen(entries):
    net = entries[0].net
    with pytest.raises(ValueError):
        net.vertices[0, 0] = 2.0
    with pytest.raises(ValueError):
        net.arcs[0, 2] = 7


# ---------------------------------------------------------------------------
# relaxation


def test_balanced_net_is_fixed_point(entries):
    gc = entries[0].net
    res = relax(gc)
    assert res.converged
    assert res.iterations == 0
    assert res.lengths == [pytest.approx(2 * math.pi, abs=1e-12)]
    np.testing.assert_allclose(res.net.vertices, gc.vertices, atol=1e-15)


@pytest.mark.parametrize("scale", [0.05, 0.1])
def test_relax_recovers_tetrahedron(entries, scale):
    tetra = entries[2]
    res = relax(_perturbed(tetra.net, scale, 42))
    assert res.converged
    assert res.iterations < 500
    assert total_length(res.net) == pytest.approx(tetra.length, abs=1e-8)
    assert balance_residual(res.net) < 1e-8
    np.testing.assert_array_equal(res.net.arcs, tetra.net.arcs)


def test_relax_recovers_cube(entries):
    cube = entries[3]
    res = relax(_perturbed(cube.net, 0.05, 42))
    assert res.converged
    assert res.iterations < 500
    assert total_length(res.net) == pytest.approx(cube.length, abs=1e-8)


def test_relax_returns_relax_result(entries):
    res = relax(_perturbed(entries[2].net, 0.05, 42))
    assert isinstance(res, nets.RelaxResult)
    assert isinstance(res.net, nets.GeodesicNet)
    assert balance_residual(res.net) < 1e-8
    assert len(res.lengths) == len(res.residuals) == res.iterations + 1


def test_relax_reports_non_convergence(entries):
    res = relax(_perturbed(entries[2].net, 0.1, 42), max_iter=1)
    assert not res.converged
    assert res.iterations == 1
    assert len(res.residuals) == 2
    assert res.residuals[0] > 1e-10


def test_relax_measures_the_state_its_last_step_reached(entries):
    net = _perturbed(entries[2].net, 0.05, 42)
    free = relax(net)
    capped = relax(net, max_iter=free.iterations)
    assert free.converged and free.iterations > 0
    assert capped.converged and capped.iterations == free.iterations
    assert capped.residuals == free.residuals and capped.lengths == free.lengths


def test_relax_aborts_on_collapsing_arc():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([1.0, 5e-8, 0.0])
    b /= np.linalg.norm(b)
    verts = np.vstack([a, b, [0.0, 0.0, 1.0]])
    net = make_net(verts, [[0, 1, 1], [0, 2, 1], [1, 2, 1]])
    with pytest.raises(NetError, match="arc collapse"):
        relax(net)


def test_relax_aborts_when_the_endpoints_of_a_major_arc_meet():
    # a major arc whose endpoints coincide lies on no defined great circle
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([1.0, 5e-8, 0.0])
    b /= np.linalg.norm(b)
    verts = np.vstack([a, b, [0.0, 0.0, 1.0]])
    net = make_net(verts, [[0, 1, 1], [0, 2, 1], [1, 2, 1]], major=[True, False, False])
    with pytest.raises(NetError, match="^arc collapse during relaxation"):
        relax(net)


def test_relax_rejects_a_trial_step_that_collapses_an_arc(entries, monkeypatch):
    # from this start an undamped trial step brings the ends of an arc within
    # 1e-6; relax rejects that trial, as it does one that raises the residual,
    # and goes on from the net it had
    collapses = []
    state = nets._state

    def counting(*args):
        try:
            return state(*args)
        except NetError:
            collapses.append(1)
            raise

    monkeypatch.setattr(nets, "_state", counting)
    res = relax(_perturbed(entries[3].net, 0.5, 19))
    assert collapses and res.iterations > 0
    assert res.residuals[-1] == balance_residual(res.net) < res.residuals[0]
    assert res.lengths[-1] == total_length(res.net)


def test_relax_takes_damped_steps_and_still_converges(entries, monkeypatch):
    # at this perturbation some Gauss-Newton trial steps raise the residual,
    # so relax rejects them, raises the damping and solves again
    prism = entries[4]
    solves = []
    solve = nets._solve
    monkeypatch.setattr(nets, "_solve", lambda *a: solves.append(1) or solve(*a))
    res = relax(_perturbed(prism.net, 0.2, 8))
    assert len(solves) > res.iterations
    assert res.converged
    assert total_length(res.net) == pytest.approx(prism.length, abs=1e-8)


def test_relax_stops_where_no_damped_step_lowers_the_residual(entries, monkeypatch):
    # from this start the residual norm settles above zero, near 1.07, however
    # the steps round (a local minimum, not a chaotic stall): 40 ever more
    # damped trial steps all fail to lower it, and relax returns that net
    cube = entries[3]
    solves = []
    solve = nets._solve
    monkeypatch.setattr(nets, "_solve", lambda *a: solves.append(1) or solve(*a))
    res = relax(_perturbed(cube.net, 0.5, 103))
    assert not res.converged and res.iterations < 1000
    assert len(solves) >= res.iterations + 40
    assert res.residuals[-1] == balance_residual(res.net) > 0.1
    assert res.lengths[-1] == total_length(res.net)


def test_relax_stops_on_a_stall(entries, tmp_path):
    # from this start the residual norm falls by about 1e-6 a step near 2.9e-6
    # and relax ran all 1000 iterations; it stops once 10 steps lower the
    # norm by less than 1e-5 of it, and `net relax` exits 1
    net = _perturbed(entries[3].net, 0.5, 21)
    res = relax(net)
    assert not res.converged and res.iterations < 100
    assert res.residuals[-1] == balance_residual(res.net) == pytest.approx(2.9e-6, rel=1e-3)
    assert res.lengths[-1] == total_length(res.net)
    path, out = str(tmp_path / "net.json"), tmp_path / "relaxed.json"
    save_net(net, path)
    assert main(["net", "relax", path, "-o", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert (doc["converged"], doc["iterations"]) == (False, res.iterations)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("k", range(7))
def test_relax_rebuilds_every_constructible_net(entries, k, seed):
    # the perturbation that `net relax` serves: 0.05 N(0, 1) per coordinate, renormalized
    e = entries[k]
    res = relax(_perturbed(e.net, 0.05, seed))
    assert res.converged
    assert total_length(res.net) == pytest.approx(e.length, abs=1e-8)
    assert balance_residual(res.net) <= 1e-8
    np.testing.assert_array_equal(res.net.arcs, e.net.arcs)
    np.testing.assert_array_equal(res.net.major, e.net.major)
    assert res.residuals[-1] == balance_residual(res.net)
    assert res.lengths[-1] == total_length(res.net)


def _closed_and_central(net, frames_of):
    """The closed-form Jacobian of the forces at the net, dense over the frames
    ``frames_of(x)`` gives, and its central differences (h = 1e-7) along them."""
    x, arcs, g, f, _ = nets._state(net.points, net.rows, net.flags)
    frames = frames_of(x)
    k, n = len(frames[0]), len(x)
    closed = np.zeros((3 * n, k * n))
    for v, row in enumerate(nets._jacobian(x, net.rows, net.flags, arcs, g, frames)):
        for u, cols in row.items():
            closed[3 * v:3 * v + 3, k * u:k * u + k] = np.transpose(cols)
    central = np.zeros_like(closed)
    h = 1e-7
    for u in range(n):
        for b, e in enumerate(frames[u]):
            forces = []
            for sign in (1.0, -1.0):
                z = np.array(x)
                z[u] += sign * h * np.asarray(e)
                forces.append(np.ravel(nets._state(z.tolist(), net.rows, net.flags)[3]))
            central[:, k * u + b] = (forces[0] - forces[1]) / (2.0 * h)
    return closed, central, np.ravel(f)


def _all_coordinates(x):
    # the columns of I - x x^T: the closed form in all 3N coordinates, as the
    # renormalization's chain gives it
    return [[[float(a == b) - p[a] * p[b] for a in range(3)] for b in range(3)] for p in x]


@pytest.mark.parametrize("k, major", [(3, None), (6, 0)], ids=["cube", "dodecahedron-one-major-arc"])
@pytest.mark.parametrize("frames_of", [_all_coordinates, lambda x: [nets._frame(p) for p in x]],
                         ids=["3x3-blocks", "tangent-frames"])
def test_closed_form_jacobian_equals_central_differences(entries, k, major, frames_of):
    net = _perturbed(entries[k].net, 0.05, 4)
    if major is not None:
        flags = [False] * net.num_arcs
        flags[major] = True
        net = make_net(net.vertices, net.arcs, flags)
    closed, central, _ = _closed_and_central(net, frames_of)
    assert np.abs(closed - central).max() < 1e-6 * np.abs(closed).max()


def test_relax_solves_the_normal_equations_of_the_closed_form(entries):
    # JᵀJ and Jᵀf on the tangent frames, then (JᵀJ + λI) d = −Jᵀf, against NumPy
    net = _perturbed(entries[6].net, 0.05, 4)
    x, arcs, g, forces, _ = nets._state(net.points, net.rows, net.flags)
    frames = [nets._frame(p) for p in x]
    for p, (e1, e2) in zip(x, frames):
        gram = np.array([p, e1, e2]) @ np.array([p, e1, e2]).T
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-15)
    closed, _, f = _closed_and_central(net, lambda _: frames)
    lower, rhs = nets._normal_equations(nets._jacobian(x, net.rows, net.flags, arcs, g, frames), forces)
    jtj = closed.T @ closed
    for i, row in enumerate(lower):
        np.testing.assert_allclose(row, jtj[i, :i + 1], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(rhs, closed.T @ f, rtol=1e-12, atol=1e-15)
    for lam in (1e-3, 1e-12):
        want = np.linalg.solve(jtj + lam * np.eye(len(rhs)), -closed.T @ f)
        np.testing.assert_allclose(nets._solve(lower, lam, rhs), want, rtol=1e-6, atol=1e-12)
    assert nets._solve([[1.0], [2.0, 1.0]], 0.0, [1.0, 1.0]) is None  # indefinite: no factorization


# ---------------------------------------------------------------------------
# link matching


def test_match_great_circle():
    got = match_link(2 * math.pi)
    assert got["match"] == "great circle"
    assert got["density"] == pytest.approx(1.0, abs=1e-12)
    assert got["residual"] == pytest.approx(0.0, abs=1e-12)


def test_match_accepts_link_objects():
    link = SimpleNamespace(total_length=3 * math.pi)
    assert match_link(link)["match"] == "three half circles"


def test_match_near_tetrahedron():
    got = match_link(11.463799417494112 + 0.1)
    assert got["match"] == "tetrahedron"
    assert got["residual"] == pytest.approx(0.1, abs=1e-9)


def test_match_composite_far_from_catalogue():
    got = match_link(13.12)  # > 5% of 2*pi away from every catalogue length
    assert got["match"] == "composite/unknown"
    assert got["matched_length"] is None
    assert got["density"] == pytest.approx(13.12 / (2 * math.pi), abs=1e-12)


def test_match_link_reads_the_floats_the_catalogue_holds(entries):
    assert [(e.name, e.closed_form) for e in entries] == [row[:2] for row in netmatch.CATALOGUE]
    for entry, (_, _, length) in zip(entries, netmatch.CATALOGUE):
        assert entry.length is length  # one table, the same float objects
        if length is not None:
            got = match_link(entry.length)
            assert (got["match"], got["residual"]) == (entry.name, 0.0)
            assert got["matched_length"].hex() == entry.length.hex()


def test_nets_binds_the_matching_modules_names():
    assert nets.match_link is netmatch.match_link is varifold_lab.match_link
    assert nets.NetError is netmatch.NetError is varifold_lab.NetError


def test_match_rejects_empty_link():
    with pytest.raises(NetError, match="empty"):
        match_link(0.0)


@pytest.mark.parametrize("length", [math.nan, math.inf])
def test_match_rejects_a_non_finite_length(length):
    with pytest.raises(NetError, match=f"length {length}"):
        match_link(length)


@pytest.mark.parametrize("call, message", [
    (lambda net: match_link(100.0, tol=math.nan), "tol must be finite and >= 0, not nan"),
    (lambda net: match_link(100.0, tol=-0.1), "tol must be finite and >= 0, not -0.1"),
    (lambda net: match_link("6.283185307179586"), "cannot match a link of length '6.283185307179586'"),
    (lambda net: match_link(True), "cannot match a link of length True"),
    (lambda net: relax(net, max_iter=True), "max_iter must be an integer, not True"),
    (lambda net: relax(net, max_iter=1.5), "max_iter must be an integer, not 1.5"),
    (lambda net: relax(net, max_iter=-3), "max_iter must be at least 0, not -3"),
    (lambda net: relax(net, tol=True), "tol must be a number, not True"),
    (lambda net: relax(net, tol=math.inf), "tol must be finite, not inf"),
    (lambda net: relax(net, tol=math.nan), "tol must be positive, not nan"),
], ids=["match-nan-tol", "match-negative-tol", "match-string-length", "match-boolean-length",
        "relax-boolean-max-iter", "relax-fractional-max-iter", "relax-negative-max-iter",
        "relax-boolean-tol", "relax-infinite-tol", "relax-nan-tol"])
def test_tolerances_and_counts_follow_the_number_rule(entries, call, message):
    with pytest.raises(NetError, match=f"^{re.escape(message)}$"):
        call(entries[2].net)


# ---------------------------------------------------------------------------
# serialization


def test_save_load_roundtrip(tmp_path, entries):
    path = str(tmp_path / "net.json")
    for e in entries:
        if e.net is None:
            continue
        save_net(e.net, path)
        back = load_net(path)
        np.testing.assert_array_equal(back.vertices, e.net.vertices)
        np.testing.assert_array_equal(back.arcs, e.net.arcs)
        np.testing.assert_array_equal(back.major, e.net.major)


@pytest.mark.parametrize("k, digest", [(3, "a32d25c364f9ecee25c522bc5a9e8459afd5ed7e124171a1a1e1851b2e198baf"),
                                      (6, "838b21f167ba89dbf119f32779004e15d86acccb8a82ad07920a480f111d75f7")],
                         ids=["cube", "dodecahedron"])
def test_save_net_of_a_perturbed_net_keeps_its_bytes(tmp_path, entries, k, digest):
    # recorded while nets held NumPy arrays; the perturbed vertices come in as an array
    path = tmp_path / "net.json"
    save_net(_perturbed(entries[k].net, 0.05, 7), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("vertices, arcs", [
    ([[1.0, 0.0, 0.0], [0, 1, 0], [0.0, 0.0, 1.0]], [[0, 1, 1], [1, 2, 2], [2, 0, 1]]),
    (((1.0, 0.0, 0.0), (0, 1, 0), (0.0, 0.0, 1.0)), ((0, 1, 1), (1, 2, 2), (2, 0, 1))),
    (np.eye(3), np.array([[0, 1, 1], [1, 2, 2], [2, 0, 1]], dtype=np.uint8)),
    ([[np.float32(1.0), 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, np.int64(1)], [1, 2, 2], [2, 0, 1]]),
    (np.eye(3, dtype=np.float16), np.array([[0, 1, 1], [1, 2, 2], [2, 0, 1]], dtype=np.int16)),
    (np.eye(3, dtype=np.longdouble), np.array([[0, 1, 1], [1, 2, 2], [2, 0, 1]], dtype=np.uint64)),
    (np.eye(3, dtype=np.int8), [[0, 1, 1], [1, 2, 2], [2, 0, 1]]),
    (list(np.eye(3)), [np.array([0, 1, 1]), [1, 2, 2], (2, 0, 1)]),
], ids=["lists", "tuples", "arrays", "numpy-scalars", "narrow-arrays", "wide-arrays", "int-vertex-array",
        "array-rows"])
def test_make_net_reads_lists_and_arrays_alike(vertices, arcs):
    net = make_net(vertices, arcs, [True, 0, False])
    assert net.points == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    assert net.rows == ((0, 1, 1), (1, 2, 2), (2, 0, 1)) and net.flags == (True, False, False)
    assert all(type(c) is float for p in net.points for c in p)
    assert all(type(i) is int for r in net.rows for i in r)
    assert (net.vertices.dtype, net.arcs.dtype, net.major.dtype) == (np.float64, np.int64, np.bool_)
    np.testing.assert_array_equal(net.vertices, np.eye(3))
    assert net.major.tolist() == [True, False, False]


def test_make_net_rejects_integers_beyond_int64():
    with pytest.raises(NetError, match=f"^arcs row 0 must be 3 integers, not \\[0, 1, {2**64}\\]$"):
        make_net(np.eye(3), [[0, 1, 2**64], [1, 2, 1], [2, 0, 1]])
    with pytest.raises(NetError, match=f"^vertices row 0 must be 3 numbers, not \\[1{'0' * 55}\\.\\.\\.$"):
        make_net([[10**400, 0, 0], [0, 1, 0]], [[0, 1, 1]])


def test_a_net_file_error_names_the_file(tmp_path):
    path = tmp_path / "net.json"
    path.write_text('{"vertices": [[1, 0, 0], [0, 2, 0]], "arcs": [[0, 1, 1]]}')
    message = f"net file {str(path)!r}: vertex 1 is off the unit sphere by 1.00e+00"
    with pytest.raises(NetError, match=f"^{re.escape(message)}$"):
        load_net(str(path))


def test_save_load_keeps_major_flags(tmp_path):
    verts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    net = make_net(verts, [[0, 1, 2], [1, 2, 1], [2, 0, 1]], major=[True, False, False])
    path = str(tmp_path / "major.json")
    save_net(net, path)
    back = load_net(path)
    np.testing.assert_array_equal(back.major, [True, False, False])
    assert total_length(back) == pytest.approx(total_length(net), abs=1e-15)


@pytest.mark.parametrize(
    "row",
    ["[0, 1]", "[0, 1, 1, 0, 0]", "[0, 1, 1.5]", "[0.0, 1, 1]", "[0, 1, true]",
     "[0, 1, 1, true]", "[0, \"1\", 1]", "7", "[0, 1, 1, 5]", "[0, 1, 1, -1]"],
)
def test_load_rejects_arc_rows_that_are_not_three_or_four_integers(tmp_path, row):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": [[1, 0, 0], [0, 1, 0]], "arcs": [[0, 1, 1], %s]}' % row)
    with pytest.raises(NetError, match="arc 1 must be 3 or 4 integers"):
        load_net(str(path))


def test_load_reads_a_fourth_element_of_zero_or_one(tmp_path):
    path = tmp_path / "net.json"
    path.write_text('{"vertices": [[1, 0, 0], [0, 1, 0]], "arcs": [[0, 1, 1, 0], [1, 0, 1, 1]]}')
    assert load_net(str(path)).major.tolist() == [False, True]


def test_load_rejects_missing_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": []}')
    with pytest.raises(NetError, match="needs"):
        load_net(str(path))


@pytest.mark.parametrize("text", ["5", '["vertices", "arcs"]', '{"vertices": [[1, 0, 0]], "arcs": 5}'],
                         ids=["number", "list", "arcs-not-a-list"])
def test_load_rejects_a_document_that_is_not_an_object_with_an_arcs_list(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    message = f"net file {str(path)!r} needs an object with 'vertices' and an 'arcs' list"
    with pytest.raises(NetError) as info:
        load_net(str(path))
    assert str(info.value) == message
    assert main(["net", "relax", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
