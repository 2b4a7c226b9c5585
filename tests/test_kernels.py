import functools
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varifold_lab import _grid, _kernels, generators
from varifold_lab.mesh import DiscreteVarifold

# One kernel; the test ids keep its name, ``BACKEND``.
KERNELS = [_kernels]


def disk_tri_area_2d(impl, ax, ay, bx, by, cx, cy, rho) -> float:
    """Area of the CCW triangle (a, b, c) within the disk |p| <= rho, by ``impl``'s batch kernel."""
    if rho <= 0.0:
        return 0.0
    cols = (np.array([c], dtype=np.float64) for c in (ax, ay, bx, by, cx, cy, rho))
    return float(impl._disk_tri_areas(*cols)[0])


def grid_area(ax, ay, bx, by, cx, cy, rho, n=800):
    """Brute-force area(T ∩ D) on a regular grid, the independent oracle."""
    xs = np.linspace(min(ax, bx, cx, -rho), max(ax, bx, cx, rho), n)
    ys = np.linspace(min(ay, by, cy, -rho), max(ay, by, cy, rho), n)
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    # barycentric sign tests against the three edges
    def side(px, py, qx, qy):
        return (qx - px) * (Y - py) - (qy - py) * (X - px)

    s1, s2, s3 = side(ax, ay, bx, by), side(bx, by, cx, cy), side(cx, cy, ax, ay)
    in_tri = (s1 >= 0) & (s2 >= 0) & (s3 >= 0)
    in_disk = X * X + Y * Y <= rho * rho
    return float(np.count_nonzero(in_tri & in_disk)) * cell


@pytest.mark.parametrize("impl", KERNELS, ids=lambda m: m.BACKEND)
class TestDiskTriArea:
    def test_triangle_inside_disk(self, impl):
        area = disk_tri_area_2d(impl, 0.1, 0.1, 0.3, 0.1, 0.1, 0.3, 5.0)
        assert area == pytest.approx(0.02, abs=1e-14)

    def test_disk_inside_triangle(self, impl):
        area = disk_tri_area_2d(impl, -10, -10, 10, -10, 0, 10, 0.5)
        assert area == pytest.approx(math.pi * 0.25, abs=1e-12)

    def test_disjoint(self, impl):
        assert disk_tri_area_2d(impl, 2, 2, 3, 2, 2, 3, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_quarter_disk_at_right_corner(self, impl):
        area = disk_tri_area_2d(impl, 0, 0, 2, 0, 0, 2, 0.5)
        assert area == pytest.approx(math.pi * 0.25 / 4, abs=1e-12)

    def test_zero_radius(self, impl):
        assert disk_tri_area_2d(impl, 0, 0, 1, 0, 0, 1, 0.0) == 0.0

    def test_against_grid_oracle(self, impl):
        rng = np.random.default_rng(7)
        for _ in range(8):
            pts = rng.uniform(-1.5, 1.5, size=(3, 2))
            # enforce counter-clockwise winding
            e1, e2 = pts[1] - pts[0], pts[2] - pts[0]
            if e1[0] * e2[1] - e1[1] * e2[0] < 0:
                pts = pts[::-1]
            rho = float(rng.uniform(0.3, 1.5))
            exact = disk_tri_area_2d(impl, *pts.ravel(), rho)
            approx = grid_area(*pts.ravel(), rho)
            assert exact == pytest.approx(approx, abs=5e-3)


@pytest.mark.parametrize("impl", KERNELS, ids=lambda m: m.BACKEND)
class TestBallMasses:
    def test_monotone_in_radius(self, impl, sphere3):
        v = sphere3.varifold
        radii = np.linspace(0.05, 2.5, 25)
        masses = impl.ball_masses(
            v.vertices, v.faces, v.multiplicity.astype(float), np.array([0.3, 0.2, 0.9]), radii
        )
        assert (np.diff(masses) >= -1e-12).all()

    def test_additive_in_multiplicity(self, impl, sphere3):
        v = sphere3.varifold
        radii = np.array([0.2, 0.5, 1.0])
        x0 = np.array([0.0, 0.0, 1.0])
        m1 = impl.ball_masses(v.vertices, v.faces, v.multiplicity.astype(float), x0, radii)
        m2 = impl.ball_masses(v.vertices, v.faces, 2.0 * v.multiplicity, x0, radii)
        np.testing.assert_allclose(m2, 2.0 * m1, rtol=0, atol=1e-12)

    def test_flat_patch_ratio_is_one(self, impl):
        disk = generators.gen_flat_disk(1.0, 4).varifold
        radii = np.array([0.1, 0.2, 0.4])
        masses = impl.ball_masses(
            disk.vertices, disk.faces, disk.multiplicity.astype(float), np.zeros(3), radii
        )
        np.testing.assert_allclose(masses / (math.pi * radii**2), 1.0, rtol=1e-9)

    def test_whole_mesh_mass_at_large_radius(self, impl, sphere3):
        from varifold_lab import mesh

        v = sphere3.varifold
        out = impl.ball_masses(
            v.vertices, v.faces, v.multiplicity.astype(float), np.zeros(3), np.array([10.0])
        )
        assert out[0] == pytest.approx(mesh.total_mass(v), rel=1e-12)


def test_disk_tri_areas_pinned_bits():
    """Per-triangle areas keep their bits: sha256 of the float.hex() values of
    400 seeded random cases, recorded with the per-face scalar loop this
    kernel replaced. Arc angles from np.arctan2 change some of them."""
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.5, 1.5, size=(400, 3, 2))
    e1, e2 = pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]
    cw = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] < 0
    pts[cw] = pts[cw][:, ::-1]
    rho = rng.uniform(0.3, 1.5, size=400)
    areas = _kernels._disk_tri_areas(*pts.reshape(400, 6).T, rho)
    text = " ".join(float(a).hex() for a in areas)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8201c680e9ee0a6923d4f491c93ffbd473da1ffe781bbb519a98450b6583318e"
    )
    for i in range(0, 400, 37):
        assert disk_tri_area_2d(_kernels, *pts[i].ravel(), rho[i]) == areas[i]


#: ball_masses at fixed centres, as float.hex(), for radii <= 0, a ball
#: disjoint from the mesh, balls that clip faces and a ball that swallows the
#: whole mesh. Recorded with the per-face scalar loop this kernel replaced;
#: re-recorded when whole faces took the areas of mesh.face_normals, which
#: moved sphere3's whole mesh by 1 ulp (to its total_mass) and double_bubble4's
#: mass at (0, 0, 3), r = 2.5, by 3 ulps.
PINNED = {
    "sphere3": [
        ((0.3, 0.2, 0.9), [-1.0, 0.0, 0.02, 0.3, 1.0, 2.5],
         ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.2784d1b7c99dcp-2",
          "0x1.9db99d736762dp+1", "0x1.9035304001ffcp+3"]),
    ],
    "double_bubble4": [
        ((1.0, 0.0, 0.0), [0.0, 0.1, 0.35, 1.0, 10.0],
         ["0x0.0p+0", "0x1.81e6d4d8c68bcp-5", "0x1.277f7cf65dde1p-1",
          "0x1.2d0eb7a1068eep+2", "0x1.c7eeb38bc79e1p+6"]),
        ((0.0, 0.0, 3.0), [-0.5, 0.5, 2.5, 10.0],
         ["0x0.0p+0", "0x0.0p+0", "0x1.92cc2fbe6aaf3p+0", "0x1.c7eeb38bc79e1p+6"]),
    ],
}


def _pinned_cases(request):
    for name, cases in PINNED.items():
        v = request.getfixturevalue(name).varifold
        for x0, radii, want in cases:
            yield v, np.array(x0), np.array(radii), want


def test_ball_masses_pinned_bits(request):
    for v, x0, radii, want in _pinned_cases(request):
        got = _kernels.ball_masses(v.vertices, v.faces, v.multiplicity.astype(float), x0, radii)
        assert [float(m).hex() for m in got] == want


def test_ball_masses_bits_ignore_face_order(request):
    rng = np.random.default_rng(11)
    for v, x0, radii, want in _pinned_cases(request):
        perm = rng.permutation(v.num_faces)
        mult = v.multiplicity.astype(float)[perm]
        got = _kernels.ball_masses(v.vertices, v.faces[perm], mult, x0, radii)
        assert [float(m).hex() for m in got] == want


def test_default_backend_is_reported():
    assert _kernels.BACKEND == "fallback"


def _ref_dot(a, b):
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _ref_sq(w):
    return np.einsum("...i,...i->...", w, w)


def _ref_clipped_areas(va, vb, vc, n, two_area, r):
    nf = n / two_area[:, None]
    d = _ref_dot(va, nf)
    rho2 = r * r - d * d
    rows = np.flatnonzero(~(rho2 <= 0.0))
    va, vb, vc, nf, d = va[rows], vb[rows], vc[rows], nf[rows], d[rows]
    rho = np.sqrt(rho2[rows])
    e1 = vb - va
    e1 = e1 / np.sqrt(_ref_sq(e1))[:, None]
    e2 = np.cross(nf, e1)
    q = -d[:, None] * nf
    a, b, c = va - q, vb - q, vc - q
    area = _kernels._disk_tri_areas(
        _ref_dot(a, e1), _ref_dot(a, e2), _ref_dot(b, e1), _ref_dot(b, e2),
        _ref_dot(c, e1), _ref_dot(c, e2), rho,
    )
    return rows, area


def reference_ball_masses(vertices, faces, mult, x0, radii):
    """The ball-mass kernel as it was before its one-pass form: one radius at
    a time, corners shifted after the gather, ``np.cross``, and ``math.fsum``
    over a list of the whole faces' masses and the clipped parts. Since whole
    faces took their areas from ``mesh.face_normals``, only the whole-face
    term reads the unshifted corners."""
    vertices = np.asarray(vertices, dtype=np.float64)
    faces = np.asarray(faces, dtype=np.int64)
    mult = np.asarray(mult, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)

    va = vertices[faces[:, 0]] - x0
    vb = vertices[faces[:, 1]] - x0
    vc = vertices[faces[:, 2]] - x0
    d_max = np.sqrt(np.maximum(np.maximum(_ref_sq(va), _ref_sq(vb)), _ref_sq(vc)))
    cen = (va + vb + vc) / 3.0
    spread = np.sqrt(np.maximum(np.maximum(_ref_sq(va - cen), _ref_sq(vb - cen)), _ref_sq(vc - cen)))
    d_min = np.maximum(0.0, np.sqrt(_ref_sq(cen)) - spread)

    n = np.cross(vb - va, vc - va)
    two_area = np.sqrt(_ref_sq(n))
    areas = 0.5 * two_area
    # a whole face adds the area of mesh.face_normals: from its corners as given, not shifted
    # by x0, with np.linalg.norm's order of the squares
    a, b, c = (vertices[faces[:, k]] for k in range(3))
    whole_mass = mult * (0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1))
    live = ~(two_area < 1e-300)

    out = np.zeros(len(radii))
    for ir, r in enumerate(radii):
        if r <= 0.0:
            continue
        near = live & (d_min < r)
        inside = d_max <= r
        whole = np.flatnonzero(near & inside)
        cut = np.flatnonzero(near & ~inside)
        rows, clip = _ref_clipped_areas(va[cut], vb[cut], vc[cut], n[cut], two_area[cut], r)
        cut = cut[rows]
        clip = np.minimum(clip, areas[cut])
        hit = clip > 0.0
        parts = whole_mass[whole].tolist() + (mult[cut[hit]] * clip[hit]).tolist()
        out[ir] = math.fsum(parts)
    return out


@functools.cache
def _surfaces():
    return [
        generators.gen_sphere(1.0, 2).varifold,
        generators.gen_torus(2.0, 0.7, 2).varifold,
        generators.gen_double_bubble(0.7, 1.0, 2).varifold,
        generators.gen_triple_bubble(1).varifold,
    ]


#: coordinates on a grid of 1/16, which makes ties (a corner exactly on the
#: sphere, repeated corners, zero-area faces), or floats no smaller than 1e-3
_coord = st.one_of(
    st.integers(-32, 32).map(lambda i: i / 16.0),
    st.floats(-2.0, 2.0).filter(lambda t: t == 0.0 or abs(t) >= 1e-3),
)


@st.composite
def _soups(draw):
    nv = draw(st.integers(3, 12))
    verts = np.array(draw(st.lists(st.tuples(_coord, _coord, _coord), min_size=nv, max_size=nv)))
    nf = draw(st.integers(1, 24))
    faces = np.array(draw(st.lists(st.tuples(*[st.integers(0, nv - 1)] * 3), min_size=nf, max_size=nf)))
    mult = np.array(draw(st.lists(st.sampled_from([1.0, 2.0, 3.0, 0.7]), min_size=nf, max_size=nf)))
    return verts, faces, mult


@st.composite
def _ball_cases(draw):
    surface = draw(st.booleans())
    if surface:
        v = draw(st.sampled_from(_surfaces()))
        verts, faces, mult = v.vertices, v.faces, v.multiplicity.astype(np.float64)
    else:
        verts, faces, mult = draw(_soups())
    near = verts[draw(st.integers(0, len(verts) - 1))]
    if surface and draw(st.booleans()):
        # the faces nearest a vertex, as a grid query passes them: fewer than
        # V/3 take the kernel's corner-first branch, more its vertex-first one
        k = draw(st.integers(1, len(verts) // 3 - 1) | st.integers(len(verts) // 3, len(faces)))
        keep = np.sort(np.argsort(_ref_sq(verts[faces].mean(axis=1) - near), kind="stable")[:k])
        faces, mult = faces[keep], mult[keep]
    offset = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
    scale = draw(st.sampled_from([0.0, 0.01, 0.3, 5.0]))
    x0 = near + scale * offset
    # radii: arbitrary, <= 0, NaN, and distances to vertices (a corner on the sphere)
    corner = np.sqrt(_ref_sq(verts - x0))
    radius = st.one_of(
        st.floats(-1.0, 8.0),
        st.sampled_from([0.0, -0.5, math.nan, 1e-9]),
        st.integers(0, len(verts) - 1).map(lambda i: float(corner[i])),
    )
    radii = draw(st.lists(radius, min_size=1, max_size=8))
    radii += draw(st.lists(st.sampled_from(radii), max_size=3))  # duplicates
    return verts, faces, mult, x0, np.array(radii)


@settings(max_examples=300, deadline=None)
@given(case=_ball_cases())
def test_ball_masses_bits_equal_the_reference(case):
    verts, faces, mult, x0, radii = case
    got = _kernels.ball_masses(verts, faces, mult, x0, radii)
    want = reference_ball_masses(verts, faces, mult, x0, radii)
    assert [m.hex() for m in got.tolist()] == [m.hex() for m in want.tolist()]


@pytest.mark.parametrize("block", [1, 2, 7])
@settings(max_examples=25, deadline=None)
@given(case=_ball_cases())
def test_ball_masses_bits_equal_the_reference_across_blocks(block, case):
    # the drawn meshes fit one block of the default size; small blocks split them anywhere
    verts, faces, mult, x0, radii = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_BLOCK", block)
        got = _kernels.ball_masses(verts, faces, mult, x0, radii)
    want = reference_ball_masses(verts, faces, mult, x0, radii)
    assert [m.hex() for m in got.tolist()] == [m.hex() for m in want.tolist()]


@pytest.mark.parametrize("block", [1, 2, 7])
def test_ball_masses_blocks_keep_the_bits_of_both_branches(block, monkeypatch):
    monkeypatch.setattr(_kernels, "_BLOCK", block)
    for v in _surfaces():
        verts, mult = v.vertices, v.multiplicity.astype(np.float64)
        x0 = verts[len(verts) // 2] + np.array([0.03, -0.02, 0.01])
        corner = np.sqrt(_ref_sq(verts - x0))
        radii = np.array([0.05, 0.4, float(corner[3]), 1.1, 2.0, 100.0, 0.0])
        order = np.argsort(_ref_sq(verts[v.faces].mean(axis=1) - x0), kind="stable")
        near = np.sort(order[:len(verts) // 3 - 1])
        for keep, few in ((near, True), (slice(None), False)):
            faces = v.faces[keep]
            assert (3 * len(faces) < len(verts)) == few  # corner-first or vertex-first
            got = _kernels.ball_masses(verts, faces, mult[keep], x0, radii)
            want = reference_ball_masses(verts, faces, mult[keep], x0, radii)
            assert [m.hex() for m in got.tolist()] == [m.hex() for m in want.tolist()]


@functools.cache
def _triple_bubble4():
    return generators.gen_triple_bubble(4).varifold


def test_ball_masses_of_a_whole_mesh_of_many_blocks_equal_the_reference():
    v = _triple_bubble4()
    assert v.num_faces > 9 * _kernels._BLOCK
    mult, x0 = v.multiplicity.astype(np.float64), v.vertices[0] + np.array([0.01, 0.02, -0.03])
    radii = np.array([0.7, 1.6])
    got = _kernels.ball_masses(v.vertices, v.faces, mult, x0, radii)
    want = reference_ball_masses(v.vertices, v.faces, mult, x0, radii)
    assert [m.hex() for m in got.tolist()] == [m.hex() for m in want.tolist()]


def test_a_whole_mesh_call_makes_no_whole_mesh_temporaries():
    # one ball cuts the mesh and one holds all of it; F-sized (3, F, 3) corner arrays took the
    # peak above 10 MB
    v = _triple_bubble4()
    mult, x0 = v.multiplicity.astype(np.float64), v.vertices[0]
    _kernels.ball_masses(v.vertices, v.faces, mult, x0, np.array([1.0]))  # first-call allocations
    tracemalloc.start()
    try:
        _kernels.ball_masses(v.vertices, v.faces, mult, x0, np.array([1.0, 5.0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def _traced_peak(f, *args) -> int:
    """The tracemalloc peak, in bytes, of ``f(*args)`` after a first call."""
    f(*args)
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_constructing_a_mesh_makes_no_whole_mesh_temporaries():
    # validation takes the face areas a block at a time and keeps none: 0.47 MB here (the
    # multiplicity check and the (F,) masks of repeated corners); whole-mesh face normals
    # took the peak to 4.1 MB
    v = _triple_bubble4()
    assert _traced_peak(DiscreteVarifold, v.vertices, v.faces, v.multiplicity) < 1e6


def test_a_face_grid_build_holds_its_outputs_and_no_whole_mesh_corners():
    # 2.4 MB here: the centroids (0.94 MB), spreads, cell keys and the sort's order and
    # sorted keys; (3, F, 3) corner arrays of the whole mesh took the peak to 5.9 MB
    assert _traced_peak(_grid.FaceGrid.build, _triple_bubble4()) < 3.5e6


def test_fsum_of_a_long_array_makes_no_copies_of_it():
    # the terms are binned a block at a time: 0.24 MB here; the mantissas, exponents, keys
    # and bincount weights of the whole array took the peak to 48 MB
    x = np.random.default_rng(0).standard_normal(10**6)
    assert _traced_peak(_kernels.fsum, x) < 1e6


def _outcome(f, x):
    try:
        return f(x).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def _float_arrays(draw):
    """Arrays of any floats, or of floats whose exponents fill a window
    anywhere in the range, often with cancelling pairs, so that sums land
    anywhere: zero, subnormal, near the overflow threshold."""
    n = draw(st.integers(0, 40))
    if draw(st.booleans()):
        xs = draw(st.lists(st.floats(), min_size=n, max_size=n))
    else:
        lo = draw(st.integers(-1074, 1023))
        hi = draw(st.integers(lo, min(lo + draw(st.sampled_from([0, 3, 60, 200])), 1023)))
        mants = draw(st.lists(st.integers(-(2**53) + 1, 2**53 - 1), min_size=n, max_size=n))
        exps = draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))
        xs = [math.ldexp(m, e - 52) for m, e in zip(mants, exps)]
        xs = [x if math.isfinite(x) else 0.0 for x in xs]
    xs += [-x for x in draw(st.lists(st.sampled_from(xs), max_size=len(xs)))] if xs else []
    xs += draw(st.lists(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]), max_size=3))
    return np.array(draw(st.permutations(xs)), dtype=np.float64)


@settings(max_examples=500, deadline=None)
@given(x=_float_arrays())
@example(x=np.array([]))
@example(x=np.array([-0.0]))
@example(x=np.array([-0.0, -0.0]))
@example(x=np.array([1.0, -1.0]))
@example(x=np.array([2.5e-308, -5e-324]))
@example(x=np.array([1e308, 1e308, -1e308]))
@example(x=np.array([1e308, -1e308, 1e-300]))
@example(x=np.array([1.0, 2.0**-53, 2.0**-105]))
def test_fsum_equals_math_fsum(x):
    assert _outcome(_kernels.fsum, x) == _outcome(math.fsum, x.tolist())


@pytest.mark.parametrize("block", [1, 2, 7])
@settings(max_examples=30, deadline=None)
@given(x=_float_arrays())
@example(x=np.array([1e308, 1e308, -1e308]))
@example(x=np.array([1.0] * 6 + [math.nan]))
def test_fsum_equals_math_fsum_across_blocks(block, x):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_BLOCK", block)
        got = _outcome(_kernels.fsum, x)
    assert got == _outcome(math.fsum, x.tolist())


@pytest.mark.parametrize("x", [
    [math.inf, 1.0], [-math.inf, 1.0], [math.inf, -math.inf], [math.nan, 1.0],
    [math.inf, math.nan], [1e308, math.inf],
])
def test_fsum_of_non_finite_input_is_math_fsum(x):
    assert _outcome(_kernels.fsum, np.array(x)) == _outcome(math.fsum, x)


@pytest.mark.parametrize("seed", [0, 1])
def test_fsum_of_many_values(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(100_000) * np.exp2(rng.integers(-60, 60, size=100_000))
    assert _kernels.fsum(x).hex() == math.fsum(x.tolist()).hex()
    assert _kernels.fsum(np.abs(x)).hex() == math.fsum(np.abs(x).tolist()).hex()


def test_sums_beyond_the_exact_bound_take_the_fsum_fallbacks(monkeypatch, sphere3):
    # past _EXACT_TERMS terms the bins might round, so _exact_sums gives up; fsum then
    # returns math.fsum's bits, and ball_masses adds each ball's terms with math.fsum
    rng = np.random.default_rng(5)
    x = rng.standard_normal(1000) * np.exp2(rng.integers(-60, 60, size=1000))
    v = sphere3.varifold
    args = (v.vertices, v.faces, v.multiplicity.astype(np.float64), v.vertices[7] + 0.01, np.array([0.3, 0.9, 3.0]))
    exact = _kernels.ball_masses(*args)
    monkeypatch.setattr(_kernels, "_EXACT_TERMS", 99)
    assert _kernels._exact_sums(x, 0, 1) is None and _kernels._exact_sums(x[:99], 0, 1) is not None
    for y in (x, np.array([1e308, 1e308, -1e308] * 40), np.array([1.0, 2.0**-53, 2.0**-105] * 40)):
        assert _outcome(_kernels.fsum, y) == _outcome(math.fsum, y.tolist())
    got = _kernels.ball_masses(*args)
    assert [m.hex() for m in got.tolist()] == [m.hex() for m in exact.tolist()]


def test_cross_has_the_bits_of_np_cross():
    rng = np.random.default_rng(3)
    e = rng.standard_normal((500, 3)) * np.exp2(rng.integers(-30, 30, size=(500, 1)))
    f = rng.standard_normal((500, 3))
    assert np.array_equal(_kernels._cross(e, f).view(np.int64), np.cross(e, f).view(np.int64))


# ---------------------------------------------------------------------------
# row helpers: _sq, _norm, _inner

_ROW_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300, 1.0,
               -3.5, math.inf, -math.inf, math.nan]


def _bits(a) -> np.ndarray:
    """The bits of float array ``a``, with every NaN read as one NaN."""
    a = np.array(a, dtype=np.float64, ndmin=1)
    return np.where(np.isnan(a), np.int64(0x7FF8000000000000), a.view(np.int64))


def _same(a, b) -> bool:
    return np.shape(a) == np.shape(b) and np.array_equal(_bits(a), _bits(b))


@st.composite
def _rows(draw, n=None):
    """(n, 3) rows of any floats, special values (±0, subnormals, 1e±300, inf, NaN) or ordinary ones."""
    n = draw(st.integers(0, 12)) if n is None else n
    value = st.one_of(st.floats(), st.sampled_from(_ROW_VALUES), st.floats(-4.0, 4.0))
    return np.array(draw(st.lists(value, min_size=3 * n, max_size=3 * n)), dtype=np.float64).reshape(n, 3)


def _layouts(w: np.ndarray) -> list[np.ndarray]:
    """w C-ordered, as a strided view (every other row of a wider array), and Fortran-ordered."""
    wide = np.zeros((2 * len(w), 5))
    wide[::2, 1:4] = w
    return [np.ascontiguousarray(w), wide[::2, 1:4], np.asfortranarray(w)]


def _sq_row(x, y, z):
    return (x * x + z * z) + y * y


def _norm_row(x, y, z):
    return math.sqrt((x * x + y * y) + z * z)


def _inner_row(a, b):
    return (a[0] * b[0] + a[2] * b[2]) + a[1] * b[1]


@settings(max_examples=150, deadline=None)
@given(w=_rows(), u=_rows(), center=_rows(1))
def test_row_helpers_equal_their_python_row_formulas_in_every_layout(w, u, center):
    """``_sq``, ``_norm`` and ``_inner`` have the bits of their row formulas, for C-ordered,
    strided and Fortran-ordered input alike, and ``_norm`` those of ``np.linalg.norm``."""
    n = min(len(w), len(u))
    w, u, center = w[:n], u[:n], center[0]
    rows = w.tolist()
    for a, b in zip(_layouts(w), _layouts(u)):
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN rows are cases here
            assert _same(_kernels._sq(a), [_sq_row(*r) for r in rows])
            assert _same(_kernels._norm(a), [_norm_row(*r) for r in rows])
            assert _same(_kernels._inner(a, b), [_inner_row(r, s) for r, s in zip(rows, u.tolist())])
            assert _same(_kernels._norm(a), np.linalg.norm(a, axis=-1))
            # a center is subtracted as the explicit difference would be
            assert _same(_kernels._sq(a, center), _kernels._sq(w - center))
            assert _same(_kernels._norm(a, center), _kernels._norm(w - center))


@pytest.mark.parametrize("helper", [_kernels._sq, _kernels._norm], ids=["sq", "norm"])
def test_row_helpers_keep_the_leading_shape(helper):
    w = np.random.default_rng(5).standard_normal((4, 5, 3))
    assert helper(w).shape == (4, 5)
    assert helper(np.zeros((0, 3))).shape == (0,)
    row = helper(w[0, 0])
    assert np.shape(row) == () and _same(row, helper(w[:1, 0])[0])
    assert _same(helper(w, w[1, 1]), helper(w - w[1, 1]))
    assert _kernels._inner(w, w).shape == (4, 5) and np.shape(_kernels._inner(w[0, 0], w[0, 0])) == ()


def test_sq_sums_in_a_fixed_order():
    # the first of these seeded rows rounds differently in the order (x² + y²) + z²,
    # which is _norm's: each helper keeps its own order
    w = np.random.default_rng(5).standard_normal((20, 3))
    x, y, z = w[0]
    assert (x * x + y * y) + z * z != (x * x + z * z) + y * y
    got = _kernels._sq(w.reshape(4, 5, 3))
    assert got.shape == (4, 5)
    x, y, z = w.T
    assert np.array_equal(got.ravel().view(np.int64), ((x * x + z * z) + y * y).view(np.int64))
    assert np.array_equal(_kernels._norm(w).view(np.int64), np.sqrt((x * x + y * y) + z * z).view(np.int64))
