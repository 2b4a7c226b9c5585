"""Circle conormal integrals and the admissibility threshold, in ``math``.

The conormal integral of a circle with plane-orthogonal conormal has a closed
form and a spectral quadrature; the sup over basepoints of a datum's total is
found from the closed form's structure, and the admissibility report is built
on it. Every value is a per-point scalar: 3-vector products are ``_values``'
fixed-order ``_dot``, ``_cross`` and ``_unit``, and totals are ``math.fsum``s,
so no command here loads NumPy and a value does not depend on what is
evaluated with it. Input passes ``_values``' readers and is never coerced:
``_point`` reads basepoints, circle centers and normals, ``_length`` radii.
The discrete boundary of a mesh (``boundary_measure``) lives in ``mesh``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._values import (_INTEGER, _NUMBER, _POINT, MeshError, _check_rows, _cross, _dot, _is_int, _is_number,
                      _length, _nonnegative, _point, _quote, _unit)
from .reports import Record, load_json, save_json

_FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class CircleSpec(Record):
    """One boundary circle: center, radius, plane normal, multiplicity, sign.

    The conormal field is conormal_sign * normal, constant along the circle
    (the closed-form lemma's hypothesis). ``center`` and ``normal`` must be 3
    numbers and ``radius`` a number, ``m`` an integer >= 1 and
    ``conormal_sign`` the integer +1 or -1 (Python or NumPy numbers, not
    booleans or strings). ``center`` and ``normal`` are stored as tuples of 3
    floats, ``radius`` as a float, ``m`` and ``conormal_sign`` as ints.
    ``normal`` is scaled to unit length unless its norm, sqrt((x² + y²) + z²),
    is within 4 ulps of 1 already, so a saved circle loads back with the same
    bits.
    """

    center: tuple[float, float, float]
    radius: float
    normal: tuple[float, float, float]
    m: int = 1
    conormal_sign: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", _point(self.center, "circle center"))
        normal = _point(self.normal, "circle normal")
        if not abs(math.sqrt(_dot(normal, normal)) - 1.0) <= 4.0 * math.ulp(1.0):
            normal = _unit(normal)
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "radius", _length(self.radius, "circle radius"))
        if not (_is_int(self.m) and self.m >= 1):
            raise ValueError(f"multiplicity m must be a positive integer, not {_quote(self.m)}")
        if not (_is_int(self.conormal_sign) and self.conormal_sign in (-1, 1)):
            raise ValueError(f"conormal_sign must be the integer +1 or -1, not {_quote(self.conormal_sign)}")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "conormal_sign", int(self.conormal_sign))


@dataclass(frozen=True)
class BoundaryDatum(Record):
    circles: tuple[CircleSpec, ...]


def make_datum(circles) -> BoundaryDatum:
    return BoundaryDatum(tuple(circles))


def save_datum(datum: BoundaryDatum, path: str) -> None:
    save_json(datum.to_dict(), path)


#: The keys of a datum file's circles, with their tests.
_CIRCLE_KEYS = {"center": _POINT, "radius": _NUMBER, "normal": _POINT,
                "m?": _INTEGER, "conormal_sign?": _INTEGER}


def load_datum(path: str) -> BoundaryDatum:
    """Load a boundary datum file: {"circles": [{"center", "radius", "normal", "m", "conormal_sign"}]}.

    Values are never coerced: ``center`` and ``normal`` must be 3 numbers,
    ``radius`` a number, and the optional ``m`` and ``conormal_sign`` (default
    1) JSON integers, booleans excluded. A missing key or a value of the wrong
    type raises ValueError naming it.
    """
    doc = load_json(path, "datum file")
    if not isinstance(doc, dict) or not isinstance(doc.get("circles"), list):
        raise ValueError(f"datum file {path!r} needs a 'circles' list")
    _check_rows(doc["circles"], _CIRCLE_KEYS, f"datum file {path!r}: 'circles'", ValueError)
    circles = [CircleSpec(c["center"], c["radius"], c["normal"], c.get("m", 1), c.get("conormal_sign", 1))
               for c in doc["circles"]]
    return BoundaryDatum(tuple(circles))


# ---------------------------------------------------------------------------
# circle conormal integral: closed form and quadrature

#: A basepoint within this distance of a circle, in radii, is on it: the
#: closed form's denominator is twice that distance there.
_ON_CIRCLE = 1e-9


def _terms(circle: CircleSpec, x) -> tuple[tuple[float, float, float], float, float, float]:
    """``(w, h, u, d)`` at basepoint x: w = (x - center) / radius, h = w·normal,
    u = 1 - |w|² and d = sqrt(u² + 4h²)."""
    c, r = circle.center, circle.radius
    w = ((x[0] - c[0]) / r, (x[1] - c[1]) / r, (x[2] - c[2]) / r)
    h = _dot(w, circle.normal)
    u = 1.0 - _dot(w, w)
    return w, h, u, math.sqrt(u * u + 4.0 * h * h)


def _circle_eval(circle: CircleSpec, x) -> float:
    """Closed-form conormal integral of one circle at basepoint x.

    In units of the radius, with w = (x - center) / radius and h = w·normal,
    the value is -2π·m·sign·h / sqrt((1 - |w|²)² + 4h²): at most m·π in
    absolute value, and exactly m·π on the open hemisphere |w| = 1,
    sign·h < 0. A basepoint on the circle, where the integrand is singular,
    gets -inf.
    """
    _, h, _, d = _terms(circle, x)
    if d < 2.0 * _ON_CIRCLE:
        return -math.inf
    return -2.0 * math.pi * (circle.m * circle.conormal_sign) * (h / d)


def _circle_grad(circle: CircleSpec, x) -> tuple[float, float, float]:
    """Gradient in x of ``_circle_eval``: -2π·m·sign·u / (radius·d³) · (u·normal + 2h·w)."""
    w, h, u, d = _terms(circle, x)
    k = -2.0 * math.pi * (circle.m * circle.conormal_sign) * u / (circle.radius * d * d * d)
    n = circle.normal
    return (k * (u * n[0] + 2.0 * h * w[0]), k * (u * n[1] + 2.0 * h * w[1]), k * (u * n[2] + 2.0 * h * w[2]))


def circle_conormal_integral(circle: CircleSpec, x0) -> float:
    """Closed-form conormal integral of one circle at basepoint x0 (see ``_circle_eval``)."""
    val = _circle_eval(circle, _point(x0, "basepoint"))
    if val == -math.inf:
        raise MeshError("integrand singular: x0 lies on the circle")
    return val


def _circle_frame(circle: CircleSpec) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Unit e1, e2 with (e1, e2, normal) right-handed; e1 ⊥ the axis where |normal| is least."""
    n = circle.normal
    k = min(range(3), key=lambda i: abs(n[i]))
    e1 = _unit(_cross(n, [1.0 if i == k else 0.0 for i in range(3)]))
    return e1, _cross(n, e1)


def _circle_point(circle: CircleSpec, frame, t: float) -> tuple[float, float, float]:
    """center + radius·(cos t·e1 + sin t·e2)."""
    (e1, e2), c, r = frame, circle.center, circle.radius
    ct, st = r * math.cos(t), r * math.sin(t)
    return (c[0] + ct * e1[0] + st * e2[0], c[1] + ct * e1[1] + st * e2[1], c[2] + ct * e1[2] + st * e2[2])


def circle_conormal_integral_quad(circle: CircleSpec, x0, n_samples: int = 256) -> float:
    """Trapezoid-rule conormal integral (spectrally accurate: periodic smooth)."""
    if not (_is_int(n_samples) and n_samples >= 16):
        raise ValueError("n_samples must be >= 16" if _is_int(n_samples) else
                         f"n_samples must be an integer, not {_quote(n_samples)}")
    x0 = _point(x0, "basepoint")
    nu = tuple(circle.conormal_sign * a for a in circle.normal)
    frame = _circle_frame(circle)
    vals = []
    for k in range(n_samples):
        p = _circle_point(circle, frame, 2.0 * math.pi * k / n_samples)
        d = (p[0] - x0[0], p[1] - x0[1], p[2] - x0[2])
        dd = _dot(d, d)
        if math.sqrt(dd) < 1e-12 * circle.radius:
            raise MeshError("integrand singular: x0 lies on the circle")
        vals.append(_dot(d, nu) / dd)
    return circle.m * (math.fsum(vals) / n_samples) * 2.0 * math.pi * circle.radius


# ---------------------------------------------------------------------------
# sup over basepoints and the admissibility report

@dataclass(frozen=True)
class ConormalSup(Record):
    """The sup of a datum's total integral, and where it is reached.

    ``kind`` is "circle" when the sup is the limit along circle ``circle``:
    ``argmax`` is then a point on that circle and ``value`` is
    m·π + the other circles' integrals there. It is "interior" when the sup
    is a local maximum off the circles: ``argmax`` is that basepoint, the
    total there is ``value``, and ``circle`` is None.
    """

    value: float
    argmax: tuple[float, float, float]
    kind: str
    circle: int | None


def _total(datum: BoundaryDatum, x) -> float:
    return math.fsum([_circle_eval(c, x) for c in datum.circles])


def _datum_eval(datum: BoundaryDatum, pts) -> list[float]:
    """Total integral at each basepoint of ``pts`` (singular points -> -inf)."""
    return [_total(datum, x) for x in pts]


def _total_grad(datum: BoundaryDatum, x) -> tuple[float, float, float]:
    grads = [_circle_grad(c, x) for c in datum.circles]
    return tuple(math.fsum([g[k] for g in grads]) for k in range(3))


#: Samples of the 1-D search along a circle, and how many of its sampled
#: local maxima are refined by golden-section search.
_CIRCLE_SAMPLES = 64
_CIRCLE_REFINED = 4
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _circle_limit(datum: BoundaryDatum, i: int) -> tuple[float, tuple[float, float, float]]:
    """Max over p on circle i of m_i·π + the other circles' total at p, and its p.

    The others are sampled at ``_CIRCLE_SAMPLES`` angles, and the best of the
    sampled local maxima are refined by golden-section search between their
    neighbours. With one circle the value is m·π, at angle 0.
    """
    circle = datum.circles[i]
    others = [c for j, c in enumerate(datum.circles) if j != i]
    frame = _circle_frame(circle)

    def limit(t: float) -> tuple[float, tuple[float, float, float]]:
        p = _circle_point(circle, frame, t)
        return math.fsum([circle.m * math.pi] + [_circle_eval(c, p) for c in others]), p

    if not others:
        return limit(0.0)
    step = 2.0 * math.pi / _CIRCLE_SAMPLES
    vals = [limit(k * step)[0] for k in range(_CIRCLE_SAMPLES)]
    peaks = [k for k in range(_CIRCLE_SAMPLES)
             if vals[k] >= vals[k - 1] and vals[k] >= vals[(k + 1) % _CIRCLE_SAMPLES]]
    best = limit(0.0)
    for k in sorted(peaks, key=lambda k: -vals[k])[:_CIRCLE_REFINED]:
        a, b = (k - 1) * step, (k + 1) * step
        s, t = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
        fs, ft = limit(s)[0], limit(t)[0]
        while b - a > 1e-10:
            if fs < ft:
                a, s, fs = s, t, ft
                t = a + _GOLDEN * (b - a)
                ft = limit(t)[0]
            else:
                b, t, ft = t, s, fs
                s = b - _GOLDEN * (b - a)
                fs = limit(s)[0]
        best = max(best, limit(k * step), limit(0.5 * (a + b)), key=lambda vp: vp[0])
    return best


#: Steps of one local ascent, and the Armijo fraction of its line search.
_ASCENT_STEPS = 200
_ARMIJO = 1e-4


def _ascend(datum: BoundaryDatum, x, scale: float) -> tuple[float, tuple[float, float, float]]:
    """A local maximum of the total from x: BFGS ascent with the analytic
    gradient and a backtracking line search, first step ``scale`` long.
    Returns (total, point) at the last accepted point; a start on a circle,
    where the total is -inf and has no gradient, is returned as it is."""
    fx = _total(datum, x)
    g = _total_grad(datum, x) if fx > -math.inf else (0.0, 0.0, 0.0)
    inv = None  # the inverse Hessian estimate of -total, rows of 3
    for _ in range(_ASCENT_STEPS):
        if inv is None:
            gn = math.sqrt(_dot(g, g))
            if gn == 0.0:
                break
            p = tuple(scale / gn * a for a in g)
        else:
            p = tuple(_dot(row, g) for row in inv)
        slope = _dot(g, p)
        if not slope > 0.0:
            if inv is None:
                break
            inv = None
            continue
        t = 1.0
        while True:
            y = (x[0] + t * p[0], x[1] + t * p[1], x[2] + t * p[2])
            fy = _total(datum, y)
            if fy >= fx + _ARMIJO * t * slope:
                break
            t *= 0.5
            if t < 1e-12:
                return fx, x
        gy = _total_grad(datum, y)
        s = (y[0] - x[0], y[1] - x[1], y[2] - x[2])
        dg = (g[0] - gy[0], g[1] - gy[1], g[2] - gy[2])  # the change of -grad
        done = fy - fx <= 1e-15 * abs(fy) or math.sqrt(_dot(s, s)) <= 1e-14 * scale
        x, fx, g = y, fy, gy
        if done:
            break
        sy = _dot(s, dg)
        if sy > 0.0:
            if inv is None:
                inv = [[sy / _dot(dg, dg) if i == j else 0.0 for j in range(3)] for i in range(3)]
            # H <- (I - ρ s yᵀ) H (I - ρ y sᵀ) + ρ s sᵀ, ρ = 1 / sᵀy
            rho = 1.0 / sy
            hy = [_dot(row, dg) for row in inv]
            yhy = _dot(dg, hy)
            inv = [[inv[i][j] - rho * (hy[i] * s[j] + s[i] * hy[j]) + (rho * rho * yhy + rho) * s[i] * s[j]
                    for j in range(3)] for i in range(3)]
    return fx, x


#: Points per axis of the grid that seeds the interior ascents, and how many
#: of its best points seed one.
_GRID_N = 8
_GRID_SEEDS = 4


def sup_conormal_integral(datum: BoundaryDatum) -> ConormalSup:
    """Sup over basepoints of the total conormal integral, from its structure.

    One circle's integral is at most m·π, reached on a whole open hemisphere,
    and its limits at the circle fill [-m·π, m·π]; the others are smooth
    there. So the total's sup is either the limit along a circle i, the max
    over p on it of m_i·π + the other circles' total (``_circle_limit``), or
    a local maximum off the circles. The latter are found by ascents
    (``_ascend``) seeded at each circle's axis points center ± radius·normal,
    which lie on the hemispheres, and at the best points of a coarse grid
    over the circles' spheres, padded by the largest radius. The largest
    candidate wins; a maximum an ascent reached, which is attained, wins over
    a circle limit that only ties it.
    """
    if not datum.circles:
        raise ValueError("datum has no circles")
    rmax = max(c.radius for c in datum.circles)
    lo = [min(c.center[k] - c.radius for c in datum.circles) - rmax for k in range(3)]
    hi = [max(c.center[k] + c.radius for c in datum.circles) + rmax for k in range(3)]
    axes = [[lo[k] + (hi[k] - lo[k]) * i / (_GRID_N - 1) for i in range(_GRID_N)] for k in range(3)]
    grid = [(a, b, c) for a in axes[0] for b in axes[1] for c in axes[2]]
    vals = _datum_eval(datum, grid)
    order = sorted(range(len(grid)), key=lambda k: -vals[k])[:_GRID_SEEDS]
    seeds = [tuple(c.center[k] + sign * c.radius * c.normal[k] for k in range(3))
             for c in datum.circles for sign in (1.0, -1.0)]
    seeds += [grid[k] for k in order]
    scale = 0.1 * min(c.radius for c in datum.circles)
    cands = [(*_ascend(datum, x, scale), "interior", None) for x in seeds]
    cands += [(*_circle_limit(datum, i), "circle", i) for i in range(len(datum.circles))]
    value, argmax, kind, circle = max(cands, key=lambda cand: cand[0])
    return ConormalSup(value, argmax, kind, circle)


@dataclass(frozen=True)
class AdmissibilityReport(Record):
    p_estimate: float
    sup_value: float
    sup_argmax: tuple[float, float, float]
    total: float
    threshold: float
    slack: float
    passes_threshold: bool
    passes_p_bound: bool
    admissible: bool


def admissibility_check(
    p_estimate: float, datum: BoundaryDatum, threshold: float = 6.0 * math.pi
) -> AdmissibilityReport:
    """Check P + 2*sup < threshold (strict) and P < 4*pi (strict).

    ``threshold`` must be 6*pi or 8*pi — the two regimes with a guarantee.
    """
    p_estimate = _nonnegative(p_estimate, "p_estimate")
    if not (_is_number(threshold) and min(abs(threshold - k * math.pi) for k in (6.0, 8.0)) < 1e-12):
        raise ValueError("threshold must be 6*pi or 8*pi")
    sup = sup_conormal_integral(datum)
    total = p_estimate + 2.0 * sup.value
    passes_threshold = total < threshold
    passes_p = p_estimate < _FOUR_PI
    return AdmissibilityReport(
        p_estimate=float(p_estimate),
        sup_value=sup.value,
        sup_argmax=sup.argmax,
        total=float(total),
        threshold=float(threshold),
        slack=float(threshold - total),
        passes_threshold=passes_threshold,
        passes_p_bound=passes_p,
        admissible=passes_threshold and passes_p,
    )
