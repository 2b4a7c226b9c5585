import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varifold_lab import _kernels, generators

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
#: whole mesh. Recorded with the per-face scalar loop this kernel replaced.
PINNED = {
    "sphere3": [
        ((0.3, 0.2, 0.9), [-1.0, 0.0, 0.02, 0.3, 1.0, 2.5],
         ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.2784d1b7c99dcp-2",
          "0x1.9db99d736762dp+1", "0x1.9035304001ffbp+3"]),
    ],
    "double_bubble4": [
        ((1.0, 0.0, 0.0), [0.0, 0.1, 0.35, 1.0, 10.0],
         ["0x0.0p+0", "0x1.81e6d4d8c68bcp-5", "0x1.277f7cf65dde1p-1",
          "0x1.2d0eb7a1068eep+2", "0x1.c7eeb38bc79e1p+6"]),
        ((0.0, 0.0, 3.0), [-0.5, 0.5, 2.5, 10.0],
         ["0x0.0p+0", "0x0.0p+0", "0x1.92cc2fbe6aaf6p+0", "0x1.c7eeb38bc79e1p+6"]),
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
    over a list of the whole faces' masses and the clipped parts."""
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
    whole_mass = mult * areas
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
    if draw(st.booleans()):
        v = draw(st.sampled_from(_surfaces()))
        verts, faces, mult = v.vertices, v.faces, v.multiplicity.astype(np.float64)
    else:
        verts, faces, mult = draw(_soups())
    near = verts[draw(st.integers(0, len(verts) - 1))]
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
        mant = st.integers(-(2**53) + 1, 2**53 - 1)
        xs = [math.ldexp(draw(mant), draw(st.integers(lo, hi)) - 52) for _ in range(n)]
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


def test_cross_has_the_bits_of_np_cross():
    rng = np.random.default_rng(3)
    e = rng.standard_normal((500, 3)) * np.exp2(rng.integers(-30, 30, size=(500, 1)))
    f = rng.standard_normal((500, 3))
    assert np.array_equal(_kernels._cross(e, f).view(np.int64), np.cross(e, f).view(np.int64))


def test_sq_sums_in_a_fixed_order():
    # the first of these seeded rows rounds differently in the order (x² + y²) + z²
    w = np.random.default_rng(5).standard_normal((20, 3))
    x, y, z = w[0]
    assert (x * x + y * y) + z * z != (x * x + z * z) + y * y
    got = _kernels._sq(w.reshape(4, 5, 3))
    assert got.shape == (4, 5)
    x, y, z = w.T
    assert np.array_equal(got.ravel().view(np.int64), ((x * x + z * z) + y * y).view(np.int64))
