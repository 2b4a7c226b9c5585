import hashlib
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varifold_lab import boundary
from varifold_lab.boundary import (
    CircleSpec,
    admissibility_check,
    circle_conormal_integral,
    circle_conormal_integral_quad,
    load_datum,
    make_datum,
    save_datum,
    sup_conormal_integral,
)
from varifold_lab.curvature import _boundary_force
from varifold_lab.generators import gen_cap, gen_flat_disk
from varifold_lab.mesh import DiscreteVarifold, MeshError, boundary_measure, face_normals
from varifold_lab.reports import canonical_dumps

from conftest import first_variation_residual, two_triangle_square


def unit_circle(**kw):
    return CircleSpec([0.0, 0.0, 0.0], 1.0, [0.0, 0.0, 1.0], **kw)


def random_circle_and_point(rng):
    """A random circle plus a basepoint kept clear of the singular set."""
    while True:
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
        if math.hypot(a - 1.0, c) > 1e-2:
            return circle, x0


# ---------------------------------------------------------------------------
# CircleSpec


def test_circle_spec_normalizes_normal():
    c = CircleSpec([0, 0, 0], 2.0, [0, 0, 5.0])
    np.testing.assert_allclose(c.normal, [0.0, 0.0, 1.0], atol=1e-15)
    with pytest.raises(TypeError):
        c.normal[0] = 1.0


@pytest.mark.parametrize(
    "kw",
    [
        {"radius": 0.0},
        {"radius": -1.0},
        {"m": 0},
        {"conormal_sign": 2},
        {"normal": [0.0, 0.0, 0.0]},
        {"m": 1.7},
        {"m": 2.0},
        {"m": True},
        {"m": np.float64(2.0)},
        {"m": np.int64(-1)},
        {"m": "2"},
        {"conormal_sign": True},
        {"conormal_sign": 1.0},
        {"conormal_sign": np.int8(0)},
        {"conormal_sign": np.bool_(True)},
        {"center": [0.0, np.nan, 0.0]},
        {"normal": [0.0, 0.0, np.nan]},
        {"normal": [np.inf, 0.0, 1.0]},
        {"radius": np.inf},
        {"radius": np.nan},
    ],
)
def test_circle_spec_validation(kw):
    base = {"center": [0, 0, 0], "radius": 1.0, "normal": [0, 0, 1]}
    base.update(kw)
    with pytest.raises(ValueError):
        CircleSpec(**base)


def test_circle_spec_takes_numpy_integers():
    c = CircleSpec([0, 0, 0], 1.0, [0, 0, 1], m=np.int64(2), conormal_sign=np.int32(-1))
    assert (c.m, c.conormal_sign) == (2, -1)
    assert type(c.m) is int and type(c.conormal_sign) is int


def test_datum_roundtrip_keeps_the_integral_bits(tmp_path):
    """The circle the multiplicity check was found on: with m coerced, the
    integral weighted it by 1.7 while the saved file said 1."""
    datum = make_datum([CircleSpec([0, 0, 0], 1.0, [0, 0, 1], m=np.int64(2), conormal_sign=-1)])
    path = str(tmp_path / "datum.json")
    save_datum(datum, path)
    x0 = np.array([[0.0, 0.0, 1.0]])
    want = boundary._datum_eval(datum, x0)[0]
    assert float(boundary._datum_eval(load_datum(path), x0)[0]).hex() == float(want).hex()
    assert want == pytest.approx(2.0 * math.pi)  # m * (-pi) * conormal_sign


def test_datum_roundtrip_keeps_the_bits_of_random_normals(tmp_path):
    """A normal that CircleSpec made unit loads back as it was saved; scaling
    it again moved the last bit of about a third of such normals."""
    rng = np.random.default_rng(3)
    circles = [CircleSpec(rng.normal(size=3), float(rng.uniform(0.2, 2.0)), rng.normal(size=3),
                          conormal_sign=int(rng.choice([-1, 1]))) for _ in range(200)]
    path = str(tmp_path / "datum.json")
    save_datum(make_datum(circles), path)
    back = load_datum(path).circles
    assert [np.asarray(c.normal).tobytes() for c in back] == [np.asarray(c.normal).tobytes() for c in circles]
    x0 = rng.normal(size=(20, 3))
    for got, want in zip(back, circles):
        assert (np.asarray(boundary._datum_eval(make_datum([got]), x0)).tobytes()
                == np.asarray(boundary._datum_eval(make_datum([want]), x0)).tobytes())


def test_circle_spec_keeps_a_normal_within_four_ulps_of_unit():
    normal = CircleSpec([0, 0, 0], 1.0, [1.0, 1.0, 0.0]).normal
    assert float(np.linalg.norm(normal)) == 1.0 - math.ulp(1.0) / 2.0  # dividing by it moves bits
    assert np.asarray(CircleSpec([0, 0, 0], 1.0, normal).normal).tobytes() == np.asarray(normal).tobytes()
    longer = [0.0, 0.0, 1.0 + 8.0 * math.ulp(1.0)]
    assert CircleSpec([0, 0, 0], 1.0, longer).normal == (0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# the closed form


def test_value_at_the_poles():
    c = unit_circle()
    assert circle_conormal_integral(c, [0, 0, 1]) == pytest.approx(-math.pi, abs=1e-15)
    assert circle_conormal_integral(c, [0, 0, -1]) == pytest.approx(math.pi, abs=1e-15)


@pytest.mark.parametrize("integral", [circle_conormal_integral, circle_conormal_integral_quad])
@pytest.mark.parametrize("x0, message", [
    ((0, 0, True), r"basepoint must be 3 numbers, not \(0, 0, True\)"),
    ((0.0, 0.0, math.nan), r"basepoint must be finite, not \[0.0, 0.0, nan\]"),
    ((0.0, math.inf, 1.0), r"basepoint must be finite, not \[0.0, inf, 1.0\]"),
    ((0.0, 1.0), r"basepoint must be 3 numbers, not \(0.0, 1.0\)"),
], ids=["boolean", "nan", "inf", "two-numbers"])
def test_a_basepoint_is_three_finite_numbers(integral, x0, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        integral(unit_circle(), x0)


def test_closed_form_matches_quadrature(rng):
    rng = np.random.default_rng(7)
    for _ in range(20):
        circle, x0 = random_circle_and_point(rng)
        exact = circle_conormal_integral(circle, x0)
        quad = circle_conormal_integral_quad(circle, x0, n_samples=2048)
        assert exact == pytest.approx(quad, abs=1e-10)


def test_single_circle_bounded_by_m_pi(rng):
    for _ in range(50):
        circle, x0 = random_circle_and_point(rng)
        assert abs(circle_conormal_integral(circle, x0)) <= circle.m * math.pi + 1e-12


def test_multiplicity_and_sign_are_linear():
    x0 = [0.3, -0.2, 0.8]
    base = circle_conormal_integral(unit_circle(), x0)
    assert circle_conormal_integral(unit_circle(m=3), x0) == pytest.approx(
        3 * base, abs=1e-14
    )
    assert circle_conormal_integral(unit_circle(conormal_sign=-1), x0) == pytest.approx(
        -base, abs=1e-14
    )


def test_rigid_motion_invariance(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    t = rng.standard_normal(3)
    for _ in range(10):
        circle, x0 = random_circle_and_point(rng)
        moved = CircleSpec(
            q @ np.asarray(circle.center) + t, circle.radius, q @ np.asarray(circle.normal),
            circle.m, circle.conormal_sign,
        )
        assert circle_conormal_integral(moved, q @ x0 + t) == pytest.approx(
            circle_conormal_integral(circle, x0), abs=1e-12
        )


def test_on_circle_is_singular():
    with pytest.raises(MeshError, match="integrand singular"):
        circle_conormal_integral(unit_circle(), [1.0, 0.0, 0.0])
    with pytest.raises(MeshError, match="integrand singular"):
        circle_conormal_integral_quad(unit_circle(), [1.0, 0.0, 0.0])


def test_quadrature_options():
    with pytest.raises(ValueError):
        circle_conormal_integral_quad(unit_circle(), [0, 0, 1], n_samples=8)


@pytest.mark.parametrize("call, message", [
    (lambda d: circle_conormal_integral_quad(unit_circle(), [0, 0, 1], n_samples=16.0),
     "n_samples must be an integer, not 16.0"),
    (lambda d: circle_conormal_integral_quad(unit_circle(), [0, 0, 1], n_samples=True),
     "n_samples must be an integer, not True"),
    (lambda d: circle_conormal_integral_quad(unit_circle(), [0, 0, 1], n_samples=15),
     "n_samples must be >= 16"),
    (lambda d: admissibility_check(1.0, d, "6pi"), "threshold must be 6*pi or 8*pi"),
    (lambda d: admissibility_check(1.0, d, None), "threshold must be 6*pi or 8*pi"),
    (lambda d: admissibility_check(1.0, d, math.nan), "threshold must be 6*pi or 8*pi"),
], ids=["float-samples", "boolean-samples", "too-few-samples", "string-threshold", "no-threshold",
        "nan-threshold"])
def test_quadrature_samples_and_thresholds_raise_value_errors(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(make_datum([unit_circle()]))


def test_datum_integral_sums_circles():
    lower = CircleSpec([0, 0, -0.5], 1.0, [0, 0, 1])
    datum = make_datum([unit_circle(), lower])
    x0 = [0.2, 0.1, 0.7]
    expected = circle_conormal_integral(unit_circle(), x0) + circle_conormal_integral(
        lower, x0
    )
    assert boundary._datum_eval(datum, np.array([x0]))[0] == pytest.approx(expected, abs=1e-14)


# ---------------------------------------------------------------------------
# sup over basepoints


def test_sup_for_one_circle_is_pi():
    sup = sup_conormal_integral(make_datum([unit_circle()]))
    # The maximizers form a whole surface, so only the value is pinned.
    assert sup.value == pytest.approx(math.pi, abs=1e-6)
    assert circle_conormal_integral(unit_circle(), sup.argmax) == pytest.approx(sup.value, abs=1e-12)


def test_sup_scales_with_multiplicity():
    sup = sup_conormal_integral(make_datum([unit_circle(m=2)]))
    assert sup.value == pytest.approx(2 * math.pi, abs=1e-5)


def test_sup_two_parallel_circles_stays_below_two_pi():
    datum = make_datum([unit_circle(), CircleSpec([0, 0, 0.5], 1.0, [0, 0, 1])])
    sup = sup_conormal_integral(datum)
    assert math.pi < sup.value < 2 * math.pi - 1e-3


def test_sup_of_two_perpendicular_circles_whose_axis_points_lie_on_each_other():
    # the seed center + radius * normal of each circle lies on the other, where
    # the total is -inf and its gradient divides by zero
    datum = make_datum([CircleSpec([0, 0, 0], 1.0, [0, 0, 1], conormal_sign=-1),
                        CircleSpec([0, 0, 0], 1.0, [0, 1, 0], conormal_sign=-1)])
    sup = sup_conormal_integral(datum)
    assert sup.value == pytest.approx(2 * math.pi, abs=1e-9)  # pi + pi on the open quarter sphere y, z > 0


def test_sup_requires_circles():
    with pytest.raises(ValueError):
        sup_conormal_integral(make_datum([]))


# A grid and pattern search stopped low on this datum, at 6.95183 on an 8^3
# grid and 6.96730 on 24^3: its sup is the limit along circle A, where one
# circle reaches m*pi.
CIRCLE_A = CircleSpec([0.1, 0.2, 0.3], 2.0, [0.0, 1.0, 1.0], m=2, conormal_sign=-1)
CIRCLE_B = CircleSpec([1.0, -2.0, 0.5], 0.75, [0.3, -0.2, 0.9])


def test_sup_is_the_limit_along_a_circle_where_a_grid_search_stopped_low():
    sup = sup_conormal_integral(make_datum([CIRCLE_A, CIRCLE_B]))
    assert sup.value >= 7.01038
    assert (sup.kind, sup.circle) == ("circle", 0)
    w = np.subtract(sup.argmax, CIRCLE_A.center) / CIRCLE_A.radius
    assert abs(w @ CIRCLE_A.normal) < 1e-12 and abs(w @ w - 1.0) < 1e-12  # on circle A
    # a circle winner's value: m_A*pi plus f_B at the argmax, summed exactly
    assert sup.value == math.fsum([CIRCLE_A.m * math.pi, circle_conormal_integral(CIRCLE_B, sup.argmax)])
    frame = boundary._circle_frame(CIRCLE_A)
    samples = [boundary._circle_point(CIRCLE_A, frame, 2.0 * math.pi * k / 4096) for k in range(4096)]
    assert max(circle_conormal_integral(CIRCLE_B, p) for p in samples) + 2.0 * math.pi <= sup.value


_DIRECTIONS = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 0.1)


def _circles():
    return st.builds(CircleSpec, center=st.tuples(*[st.floats(-2.0, 2.0)] * 3), radius=st.floats(0.25, 2.5),
                     normal=_DIRECTIONS, m=st.integers(1, 3), conormal_sign=st.sampled_from([-1, 1]))


@settings(max_examples=30, deadline=None)
@given(circle=_circles())
def test_sup_of_one_circle_is_m_pi(circle):
    sup = sup_conormal_integral(make_datum([circle]))
    assert abs(sup.value - circle.m * math.pi) <= 4.0 * math.ulp(circle.m * math.pi)


@settings(max_examples=30, deadline=None)
@given(circles=st.lists(_circles(), min_size=1, max_size=2), data=st.data())
def test_no_basepoint_near_a_hemisphere_beats_the_sup(circles, data):
    """Circle i's integral is m_i*pi on the open hemisphere |w| = 1 where
    sign*w.normal < 0, so the total comes closest to its sup near these."""
    datum = make_datum(circles)
    sup = sup_conormal_integral(datum)
    for c in circles:
        for _ in range(4):
            w = np.array(data.draw(_DIRECTIONS))
            w /= np.linalg.norm(w)
            h = w @ c.normal
            if c.conormal_sign * h > 0.0:
                w -= 2.0 * h * np.asarray(c.normal)
            w *= data.draw(st.floats(0.9, 1.1))
            x = np.asarray(c.center) + c.radius * w
            assert boundary._datum_eval(datum, [x])[0] <= sup.value + 1e-9


# ---------------------------------------------------------------------------
# admissibility


def test_admissibility_with_room_to_spare():
    rep = admissibility_check(3.0, make_datum([unit_circle()]))
    assert rep.admissible
    assert rep.passes_threshold and rep.passes_p_bound
    assert rep.sup_value == pytest.approx(math.pi, abs=1e-6)
    assert rep.total == pytest.approx(3.0 + 2 * math.pi, abs=1e-5)
    assert rep.slack == pytest.approx(6 * math.pi - 3.0 - 2 * math.pi, abs=1e-5)


def test_admissibility_fails_at_energy_bound():
    rep = admissibility_check(4 * math.pi, make_datum([unit_circle()]))
    assert not rep.passes_p_bound  # the bound is strict
    assert not rep.admissible


def test_admissibility_zero_energy_slack_is_four_pi():
    rep = admissibility_check(0.0, make_datum([unit_circle()]))
    assert rep.slack == pytest.approx(4 * math.pi, abs=1e-5)
    assert rep.admissible


def test_admissibility_thresholds():
    datum = make_datum([unit_circle()])
    rep = admissibility_check(1.0, datum, threshold=8 * math.pi)
    assert rep.threshold == pytest.approx(8 * math.pi)
    with pytest.raises(ValueError):
        admissibility_check(1.0, datum, threshold=7 * math.pi)
    with pytest.raises(ValueError):
        admissibility_check(-1.0, datum)
    for p in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"finite and >= 0, not {p}"):
            admissibility_check(p, datum)


def test_admissibility_report_serializes():
    import json

    rep = admissibility_check(1.0, make_datum([unit_circle()]))
    doc = rep.to_dict()
    json.dumps(doc)
    assert set(doc) == {
        "p_estimate", "sup_value", "sup_argmax", "total", "threshold",
        "slack", "passes_threshold", "passes_p_bound", "admissible",
    }


# ---------------------------------------------------------------------------
# datum files


def test_datum_roundtrip(tmp_path):
    datum = make_datum(
        [unit_circle(m=2, conormal_sign=-1), CircleSpec([1, 2, 3], 0.5, [1, 1, 0])]
    )
    path = str(tmp_path / "datum.json")
    save_datum(datum, path)
    with open(path) as fh:
        assert fh.read() == canonical_dumps(datum.to_dict())  # compact, one line
    back = load_datum(path)
    assert len(back.circles) == len(datum.circles)
    for got, want in zip(back.circles, datum.circles):
        np.testing.assert_array_equal(got.center, want.center)
        assert got.radius == want.radius
        assert np.asarray(got.normal).tobytes() == np.asarray(want.normal).tobytes()
        assert got.m == want.m and got.conormal_sign == want.conormal_sign


def test_load_datum_defaults(tmp_path):
    path = tmp_path / "d.json"
    path.write_text('{"circles": [{"center": [0,0,0], "radius": 1, "normal": [0,0,1]}]}')
    datum = load_datum(str(path))
    assert datum.circles[0].m == 1
    assert datum.circles[0].conormal_sign == 1


# ---------------------------------------------------------------------------
# discrete boundary measure


def test_closed_mesh_has_empty_boundary(sphere3):
    b = boundary_measure(sphere3.varifold)
    assert len(b.edges) == 0
    assert b.total_length == 0.0


def test_closed_mesh_boundary_logs_nothing(sphere3, caplog):
    caplog.set_level("DEBUG")
    assert boundary_measure(sphere3.varifold).total_length == 0.0
    assert caplog.records == []


@pytest.mark.parametrize("kwargs, message", [
    ({"center": ["1", "0", "0"]}, r"circle center must be 3 numbers, not \['1', '0', '0'\]"),
    ({"radius": True}, "circle radius must be a number, not True"),
    ({"radius": "1"}, "circle radius must be a number, not '1'"),
    ({"normal": [0, 0, True]}, r"circle normal must be 3 numbers, not \[0, 0, True\]"),
    ({"center": np.array([True, False, False])},
     r"circle center must be 3 numbers, not \[True, False, False\]"),
    ({"center": [0, 0]}, r"circle center must be 3 numbers, not \[0, 0\]"),
    ({"normal": [0, 0, 1, 0]}, r"circle normal must be 3 numbers, not \[0, 0, 1, 0\]"),
    ({"center": [[1, 0, 0]]}, r"circle center must be 3 numbers, not \[\[1, 0, 0\]\]"),
    ({"center": np.array(["1", "0", "0"])}, r"circle center must be 3 numbers, not \['1', '0', '0'\]"),
    ({"center": np.zeros((1, 3))}, r"circle center must be 3 numbers, not \[\[0\.0, 0\.0, 0\.0\]\]"),
    ({"normal": 1.0}, r"circle normal must be 3 numbers, not 1\.0"),
    ({"normal": np.float64(1.0)}, r"circle normal must be 3 numbers, not 1\.0"),
    ({"radius": Fraction(1, 2)}, r"circle radius must be a number, not Fraction\(1, 2\)"),
    ({"center": [2**63, 0, 0]}, rf"circle center must be 3 numbers, not \[{2**63}, 0, 0\]"),
    ({"m": 2**63}, f"multiplicity m must be a positive integer, not {2**63}"),
    ({"radius": 10**400}, rf"circle radius must be a number, not 1{'0' * 56}\.\.\."),
], ids=["string-center", "bool-radius", "string-radius", "bool-normal", "bool-center-array",
        "short-center", "long-normal", "nested-center", "string-center-array", "nested-center-array",
        "scalar-normal", "numpy-scalar-normal", "fraction-radius", "center-beyond-int64", "m-beyond-int64",
        "long-radius"])
def test_circle_spec_coerces_nothing(kwargs, message):
    args = {"center": [1, 0, 0], "radius": 1.0, "normal": [0, 0, 1], **kwargs}
    with pytest.raises(ValueError, match=f"^{message}$"):
        CircleSpec(**args)


def test_circle_spec_takes_numpy_numbers_and_leaves_its_inputs_writable():
    center = np.array([1, 0, 0], dtype=np.int32)
    c = CircleSpec(center, np.float32(0.5), np.array([0.0, 0.0, 2.0]), m=np.int64(2))
    assert c.center == (1.0, 0.0, 0.0) and c.radius == 0.5 and c.normal == (0.0, 0.0, 1.0)
    assert all(type(x) is float for x in (*c.center, c.radius, *c.normal))
    assert center.flags.writeable and type(c.center) is tuple


@pytest.mark.parametrize("center", [
    [1, -2, 3], (1.0, -2.0, 3.0), [np.float32(1.0), np.int64(-2), np.uint8(3)],
    np.array([1, -2, 3], dtype=np.int8), np.array([1, -2, 3], dtype=np.float16),
    np.array([1, -2, 3], dtype=np.longdouble), np.array([1.0, -2.0, 3.0]),
], ids=["ints", "float-tuple", "numpy-scalars", "int8-array", "float16-array", "longdouble-array",
        "float-array"])
def test_a_circle_center_is_any_three_numbers(center):
    c = CircleSpec(center, 1.0, [0, 0, 1])
    assert c.center == (1.0, -2.0, 3.0) and all(type(x) is float for x in c.center)


def test_closed_mesh_boundary_arrays_keep_their_shapes_and_types(sphere3):
    # recorded while a closed mesh still took a special case
    b = boundary_measure(sphere3.varifold)
    for a, shape, dtype in ((b.edges, (0, 2), np.int32), (b.lengths, (0,), np.float64),
                            (b.conormals, (0, 3), np.float64), (b.multiplicity, (0,), np.int64)):
        assert (a.shape, a.dtype) == (shape, dtype)
    assert type(b.total_length) is float and b.total_length == 0.0


def test_flat_disk_boundary(sphere3):
    rho = 1.5
    out = gen_flat_disk(rho, 3)
    b = boundary_measure(out.varifold)
    assert b.total_length == pytest.approx(2 * math.pi * rho, rel=0.01)
    np.testing.assert_array_equal(b.multiplicity, 1)
    mids = 0.5 * (
        out.varifold.vertices[b.edges[:, 0]] + out.varifold.vertices[b.edges[:, 1]]
    )
    radial = mids / np.linalg.norm(mids, axis=1)[:, None]
    outward = np.einsum("ij,ij->i", b.conormals, radial)
    assert outward.min() > 0.99
    np.testing.assert_allclose(b.conormals[:, 2], 0.0, atol=1e-12)


def test_cap_boundary_conormal_angle():
    theta = 1.2

    def mean_angle(level):
        b = boundary_measure(gen_cap(1.0, theta, level).varifold)
        return float(np.arcsin(np.clip(-b.conormals[:, 2], -1.0, 1.0)).mean())

    # Conormals leave the cap tilted below the boundary plane by the printed
    # contact angle; the per-face estimate converges to it at first order.
    errs = [abs(mean_angle(level) - theta) for level in (3, 4)]
    assert errs[1] < 0.04
    assert errs[1] < 0.6 * errs[0]
    b = boundary_measure(gen_cap(1.0, theta, 3).varifold)
    assert b.total_length == pytest.approx(2 * math.pi * math.sin(theta), rel=0.01)


# The boundary force, the first-variation boundary term and boundary_measure
# share one conormal computation; these bits were recorded before they did.


def _phi(x):
    return x[:, [1, 2, 0]] * x + 0.25 * x[:, [2, 0, 1]] + np.array([0.1, -0.2, 0.3])


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def test_conormal_bits_on_the_square():
    v = DiscreteVarifold(*two_triangle_square())
    h, z = "0x1.0000000000000p-1", "0x0.0p+0"
    force = [["-" + h, "-" + h, z], [h, "-" + h, z], [h, h, z], ["-" + h, h, z]]
    assert [[x.hex() for x in row] for row in _boundary_force(v, face_normals(v)[0]).tolist()] == force
    assert first_variation_residual(v, _phi(v.vertices)).hex() == "0x1.0000000000000p-53"
    b = boundary_measure(v)
    assert b.total_length.hex() == "0x1.0000000000000p+2"
    assert [x.hex() for x in b.lengths.tolist()] == ["0x1.0000000000000p+0"] * 4
    one = "0x1.0000000000000p+0"
    assert [x.hex() for x in b.conormals.ravel().tolist()] == [
        z, "-" + one, z, "-" + one, z, z, one, z, z, z, one, "-0x0.0p+0"]


def test_conormal_bits_on_a_cap():
    v = gen_cap(1.0, 1.2, 2).varifold
    assert _sha(_boundary_force(v, face_normals(v)[0])) == "456ad0c6adaf0c034302d12573fdc736c00e4dd60f1223978412efd843c666b4"
    assert first_variation_residual(v, _phi(v.vertices)).hex() == "0x1.87448fcb699d0p-4"
    b = boundary_measure(v)
    assert b.total_length.hex() == "0x1.75b9c9cef7df0p+2"
    assert _sha(b.lengths) == "1a9915f6d78601dcba24274aff941aa27fca9fc6af5d930a6385ec3999ea026d"
    assert _sha(b.conormals) == "b900b94daa0229bb53dc2809efe1212182fd97c601cb1059ef77af07cb6257fa"
