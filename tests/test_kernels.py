import hashlib
import math

import numpy as np
import pytest

from varifold_lab import _kernels, generators

# One kernel; the test ids keep its name, ``BACKEND``.
KERNELS = [_kernels]


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
        area = impl.disk_tri_area_2d(0.1, 0.1, 0.3, 0.1, 0.1, 0.3, 5.0)
        assert area == pytest.approx(0.02, abs=1e-14)

    def test_disk_inside_triangle(self, impl):
        area = impl.disk_tri_area_2d(-10, -10, 10, -10, 0, 10, 0.5)
        assert area == pytest.approx(math.pi * 0.25, abs=1e-12)

    def test_disjoint(self, impl):
        assert impl.disk_tri_area_2d(2, 2, 3, 2, 2, 3, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_quarter_disk_at_right_corner(self, impl):
        area = impl.disk_tri_area_2d(0, 0, 2, 0, 0, 2, 0.5)
        assert area == pytest.approx(math.pi * 0.25 / 4, abs=1e-12)

    def test_zero_radius(self, impl):
        assert impl.disk_tri_area_2d(0, 0, 1, 0, 0, 1, 0.0) == 0.0

    def test_against_grid_oracle(self, impl):
        rng = np.random.default_rng(7)
        for _ in range(8):
            pts = rng.uniform(-1.5, 1.5, size=(3, 2))
            # enforce counter-clockwise winding
            e1, e2 = pts[1] - pts[0], pts[2] - pts[0]
            if e1[0] * e2[1] - e1[1] * e2[0] < 0:
                pts = pts[::-1]
            rho = float(rng.uniform(0.3, 1.5))
            exact = impl.disk_tri_area_2d(*pts.ravel(), rho)
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
        assert _kernels.disk_tri_area_2d(*pts[i].ravel(), rho[i]) == areas[i]


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
