"""Boundary measures and circle conormal integrals.

The discrete side extracts per-edge outward conormals from a mesh with
boundary.  The analytic side evaluates the conormal integral of a circle with
plane-orthogonal conormal, in closed form and by spectral quadrature, plus the
sup-over-basepoints search and the admissibility threshold report built on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import _kernels  # run only by the quadrature's circle frame
from . import mesh  # run only by boundary_measure and the singular-basepoint errors
from ._values import _INTEGER, _NUMBER, _POINT, _check_rows, _is_int, _is_number, _numeric
from .reports import Record, load_json, save_json

if TYPE_CHECKING:
    from .mesh import DiscreteVarifold

_FOUR_PI = 4.0 * math.pi


def _unit(a: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(a))
    if n == 0.0:
        raise ValueError("zero vector cannot be normalized")
    return a / n


@dataclass(frozen=True)
class CircleSpec(Record):
    """One boundary circle: center, radius, plane normal, multiplicity, sign.

    The conormal field is conormal_sign * normal, constant along the circle
    (the closed-form lemma's hypothesis). ``center`` and ``normal`` must be 3
    numbers and ``radius`` a number, ``m`` an integer >= 1 and
    ``conormal_sign`` the integer +1 or -1 (Python or NumPy numbers, not
    booleans or strings); ``m`` and ``conormal_sign`` are stored as Python ints.
    ``normal`` is scaled to unit length unless its norm is within 4 ulps of 1
    already, so a saved circle loads back with the same bits.
    """

    center: np.ndarray
    radius: float
    normal: np.ndarray
    m: int = 1
    conormal_sign: int = 1

    def __post_init__(self) -> None:
        for name in ("center", "normal"):
            value = _numeric(getattr(self, name), "iuf", f"circle {name}", ValueError).astype(np.float64)
            if value.shape != (3,):
                raise ValueError(f"circle {name} must be 3 numbers, not {getattr(self, name)!r}")
            if not np.isfinite(value).all():
                raise ValueError(f"circle {name} must be finite, not {value.tolist()}")
            if name == "normal" and not abs(float(np.linalg.norm(value)) - 1.0) <= 4.0 * math.ulp(1.0):
                value = _unit(value)
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        if not _is_number(self.radius):
            raise ValueError(f"circle radius must be a number, not {self.radius!r}")
        radius = float(self.radius)
        if not (radius > 0.0 and math.isfinite(radius)):
            raise ValueError(f"circle radius must be positive and finite, not {radius}")
        object.__setattr__(self, "radius", radius)
        if not (_is_int(self.m) and self.m >= 1):
            raise ValueError(f"multiplicity m must be a positive integer, not {self.m!r}")
        if not (_is_int(self.conormal_sign) and self.conormal_sign in (-1, 1)):
            raise ValueError(f"conormal_sign must be the integer +1 or -1, not {self.conormal_sign!r}")
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
# discrete boundary of a mesh

@dataclass(frozen=True)
class DiscreteBoundary:
    """Boundary edges of a mesh with their lengths and outward conormals."""

    edges: np.ndarray       # (B, 2) vertex indices
    lengths: np.ndarray     # (B,)
    conormals: np.ndarray   # (B, 3) unit, in the incident face plane, outward
    multiplicity: np.ndarray  # (B,) of the incident face
    total_length: float


def boundary_measure(v: DiscreteVarifold) -> DiscreteBoundary:
    """Per-edge outward conormals on the boundary of ``v``.

    Each boundary edge has exactly one incident face; the conormal is the
    in-plane unit normal to the edge pointing out of that face.  A closed mesh
    yields an empty boundary.
    """
    edges, fidx, vec, conormals = mesh._boundary_conormals(v, v.face_geometry[0])
    lengths = np.linalg.norm(vec, axis=1)
    conormals /= np.linalg.norm(conormals, axis=1, keepdims=True)
    mult = v.multiplicity[fidx]
    total = float(np.dot(mult.astype(np.float64), lengths))
    return DiscreteBoundary(edges, lengths, conormals, mult, total)


# ---------------------------------------------------------------------------
# circle conormal integral: closed form and quadrature

def _circle_eval(circle: CircleSpec, pts: np.ndarray) -> np.ndarray:
    """Closed-form conormal integral of one circle at each basepoint of ``pts`` (N, 3).

    After reduction to the unit circle with conormal e3 and x0 = (a, 0, c),
    the value is m * (I(a) + I(-a)) with
    I(a) = -c*pi / (sqrt((1+a)^2+c^2) * sqrt((1-a)^2+c^2)); the two terms
    coincide. A basepoint on the circle, where the integrand is singular,
    gets -inf.
    """
    w = (pts - circle.center) / circle.radius
    h = w @ circle.normal
    a = np.linalg.norm(w - h[:, None] * circle.normal, axis=1)
    sing = np.sqrt((a - 1.0) ** 2 + h * h) < 1e-9
    denom = np.sqrt((1.0 + a) ** 2 + h * h) * np.sqrt((1.0 - a) ** 2 + h * h)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = -2.0 * h * math.pi / denom
    return np.where(sing, -np.inf, circle.m * circle.conormal_sign * val)


def circle_conormal_integral(circle: CircleSpec, x0) -> float:
    """Closed-form conormal integral of one circle at basepoint x0 (see ``_circle_eval``)."""
    val = float(_circle_eval(circle, np.asarray(x0, dtype=np.float64).reshape(1, 3))[0])
    if val == -math.inf:
        raise mesh.MeshError("integrand singular: x0 lies on the circle")
    return val


def _circle_frame(circle: CircleSpec) -> tuple[np.ndarray, np.ndarray]:
    n = circle.normal
    pick = np.zeros(3)
    pick[int(np.argmin(np.abs(n)))] = 1.0
    e1 = _unit(_kernels._cross(n[None], pick[None])[0])
    e2 = _kernels._cross(n[None], e1[None])[0]
    return e1, e2


def circle_conormal_integral_quad(circle: CircleSpec, x0, n_samples: int = 256) -> float:
    """Trapezoid-rule conormal integral (spectrally accurate: periodic smooth)."""
    if n_samples < 16:
        raise ValueError("n_samples must be >= 16")
    x0 = np.asarray(x0, dtype=np.float64).reshape(3)
    nu = circle.conormal_sign * circle.normal
    e1, e2 = _circle_frame(circle)
    t = 2.0 * math.pi * np.arange(n_samples) / n_samples
    pts = (circle.center
           + circle.radius * np.outer(np.cos(t), e1)
           + circle.radius * np.outer(np.sin(t), e2))
    d = pts - x0
    dd = np.einsum("ij,ij->i", d, d)
    if math.sqrt(float(dd.min())) < 1e-12 * circle.radius:
        raise mesh.MeshError("integrand singular: x0 lies on the circle")
    vals = (d @ nu) / dd
    return circle.m * float(vals.mean()) * 2.0 * math.pi * circle.radius


# ---------------------------------------------------------------------------
# sup over basepoints and the admissibility report

@dataclass(frozen=True)
class ConormalSup(Record):
    value: float
    argmax: np.ndarray
    grid_shape: tuple[int, int, int]


def _datum_eval(datum: BoundaryDatum, pts: np.ndarray) -> np.ndarray:
    """Total integral at many basepoints (singular points -> -inf)."""
    total = np.zeros(len(pts))
    for c in datum.circles:
        total = total + _circle_eval(c, pts)
    return total


def sup_conormal_integral(datum: BoundaryDatum, grid_n: int = 24) -> ConormalSup:
    """Sup over basepoints of the total conormal integral.

    Coarse grid of ``grid_n`` >= 2 points per axis over the circles' bounding
    box padded by two diameters (the integrand decays like 1/dist^2, so the
    sup lies inside), then a deterministic pattern-search polish.  Grid ties
    resolve to the first point in C scan order; the polish shrinks its step by
    half on failure, down to 1e-9 of the diameter.
    """
    if not datum.circles:
        raise ValueError("datum has no circles")
    if grid_n < 2:
        raise ValueError(f"the sup grid needs at least 2 points per axis, not {grid_n}")
    centers = np.array([c.center for c in datum.circles])
    radii = np.array([c.radius for c in datum.circles])
    lo = (centers - radii[:, None]).min(axis=0)
    hi = (centers + radii[:, None]).max(axis=0)
    diam = float(max(np.max(hi - lo), 2.0 * radii.max()))
    lo = lo - 2.0 * diam
    hi = hi + 2.0 * diam
    axes = [np.linspace(lo[k], hi[k], grid_n) for k in range(3)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    vals = _datum_eval(datum, pts)
    best = int(np.argmax(vals))
    x = pts[best].copy()
    fx = float(vals[best])

    step = float((hi - lo).max() / (grid_n - 1))
    dirs = np.array([
        [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1],
    ], dtype=np.float64)
    while step > 1e-9 * diam:
        cand = x + step * dirs
        cv = _datum_eval(datum, cand)
        k = int(np.argmax(cv))
        if cv[k] > fx:
            x, fx = cand[k].copy(), float(cv[k])
        else:
            step *= 0.5
    return ConormalSup(fx, x, (grid_n, grid_n, grid_n))


@dataclass(frozen=True)
class AdmissibilityReport(Record):
    p_estimate: float
    sup_value: float
    sup_argmax: np.ndarray
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
    if not 0.0 <= p_estimate < math.inf:
        raise ValueError(f"p_estimate must be finite and >= 0, not {p_estimate}")
    if not (abs(threshold - 6.0 * math.pi) < 1e-12 or abs(threshold - 8.0 * math.pi) < 1e-12):
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
