"""Geodesic nets on the unit sphere: lengths, balance, catalogue, relaxation.

A net is a set of unit vertices joined by great-circle arcs with integer
multiplicities. Stationarity means the multiplicity-weighted unit tangents of
the incident arcs cancel at every vertex; the classification of such nets
comprises exactly ten families, reproduced here with their closed-form total
lengths (from ``netmatch``) and, for the first seven, explicit balanced
coordinates. ``relax`` moves a net's vertices, its arcs and major flags fixed,
until it balances; every iterate is a geodesic net on the input's arcs, so the
last residual and length it records are ``balance_residual`` and
``total_length`` of the net it returns.

Every value is computed in ``math``, one vertex or arc at a time: 3-vector
dots, cross products and normalizations are ``_values``' fixed-order ``_dot``,
``_cross`` and ``_unit``, totals are ``math.fsum``s, angles
come from ``math.acos``, and ``relax`` solves its normal equations by a
Cholesky factorization in a fixed order. So the net commands never load
NumPy, and a relaxed net's bits do not depend on the host's BLAS core or SIMD
level. A net's NumPy arrays are built only when they are read. Input passes
``_values``' number rule and is never coerced.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from operator import mul

from ._values import _cross, _dot, _frozen, _is_int, _is_number, _quote, _unit
from .netmatch import CATALOGUE, NetError, match_link  # noqa: F401  (nets' public names too)
from .reports import NOT_RECORDED, Record, load_json, save_json

_Vec = tuple[float, float, float]


@dataclass(frozen=True)
class GeodesicNet:
    """Unit-sphere net: ``points`` holds N unit vectors as 3-tuples of floats,
    ``rows`` M arcs (i, j, multiplicity) as 3-tuples of ints, and ``flags`` one
    bool per arc, True where the arc takes the major (long) way round.
    ``vertices`` (N, 3) float64, ``arcs`` (M, 3) int64 and ``major`` (M,) bool
    are the same values as read-only NumPy arrays, built on first read.
    A net checks itself when built, by ``dataclasses.replace`` too (NetError).
    ``make_net`` and ``load_net`` build nets from looser input."""

    points: tuple[_Vec, ...]
    rows: tuple[tuple[int, int, int], ...]
    flags: tuple[bool, ...]

    def __post_init__(self) -> None:
        points, rows = self.points, self.rows
        for k, p in enumerate(points):
            if not all(map(math.isfinite, p)):
                raise NetError(f"vertex {k} is not finite: {list(p)}")
        off = [abs(math.sqrt(_dot(p, p)) - 1.0) for p in points]
        if off and max(off) > 1e-12:
            raise NetError(f"vertex {off.index(max(off))} is off the unit sphere by {max(off):.2e}")
        n = len(points)
        if not all(0 <= i < n and 0 <= j < n for i, j, _ in rows):
            raise NetError("arc endpoint index out of range")
        for k, (i, j, _) in enumerate(rows):
            if i == j:
                raise NetError(f"arc {k} has identical endpoints")
        if any(m < 1 for _, _, m in rows):
            raise NetError("arc multiplicities must be >= 1")
        if len(self.flags) != len(rows):
            raise NetError(f"a net needs one flag per arc, not {len(self.flags)} for {len(rows)} arcs")

    @functools.cached_property
    def vertices(self):
        return _array(self.points, "float64", 3)

    @functools.cached_property
    def arcs(self):
        return _array(self.rows, "int64", 3)

    @functools.cached_property
    def major(self):
        return _array(self.flags, "bool")

    @property
    def num_vertices(self) -> int:
        return len(self.points)

    @property
    def num_arcs(self) -> int:
        return len(self.rows)


def _array(rows, dtype: str, *width: int):
    """``rows`` as a read-only NumPy array of ``dtype`` and shape (len(rows), *width)."""
    import numpy as np

    return _frozen(np.array(rows, dtype=dtype).reshape(len(rows), *width))


def _rows_of_3(x, ok, convert, what: str, where: str, empty: bool) -> tuple[tuple, ...]:
    """The rows of the list or tuple ``x`` (an array, or a row that is one, read through ``tolist()``)
    through ``convert``, each 3 values that pass ``ok``; else NetError naming ``where`` and the row."""
    rows = x.tolist() if hasattr(x, "tolist") else x
    if not (isinstance(rows, (list, tuple)) and (rows or empty)):
        raise NetError(f"{where} must be a {'list' if empty else 'non-empty list'} of rows of 3 {what},"
                       f" not {_quote(rows)}")
    rows = [r.tolist() if hasattr(r, "tolist") else r for r in rows]
    for k, r in enumerate(rows):
        if not (isinstance(r, (list, tuple)) and len(r) == 3 and all(map(ok, r))):
            raise NetError(f"{where} row {k} must be 3 {what}, not {_quote(r)}")
    return tuple(tuple(map(convert, r)) for r in rows)


def make_net(vertices, arcs, major=None) -> GeodesicNet:
    """A net from rows of 3 numbers as ``vertices``, rows [i, j, multiplicity] as ``arcs`` and
    ``_flags``' ``major``, in lists, tuples or arrays, checked in Python and never coerced."""
    points = _rows_of_3(vertices, _is_number, float, "numbers", "vertices", empty=False)
    rows = _rows_of_3(arcs, _is_int, int, "integers", "arcs", empty=True)
    return GeodesicNet(points, rows, _flags(major, len(rows)))


def _flags(major, m: int) -> tuple[bool, ...]:
    """One flag per arc from ``major``: None (all minor), or m Python or NumPy booleans or 0/1 integers."""
    if major is None:
        return (False,) * m
    flags = major.tolist() if hasattr(major, "tolist") else major
    if not (isinstance(flags, (list, tuple)) and len(flags) == m and all(
            f in (0, 1) and (isinstance(f, bool) or _is_int(f) or getattr(f, "dtype", 0) == bool)
            for f in flags)):
        raise NetError(f"major must be {m} booleans or 0/1 integers, one per arc, not {_quote(major)}")
    return tuple(map(bool, flags))


def _arc_geometry(x, rows, flags) -> list[tuple]:
    """Each arc's (angle, c, s, tp, tq) on the unit vectors ``x``: c = p·q of its
    endpoints p and q, clipped to [-1, 1], s = √(1 − c²) (at least 1e-15), and
    its unit tangents tp at p and tq at q, pointing into the arc. A major arc is
    2π minus the minor angle long and leaves each endpoint in the direction
    opposite the minor arc."""
    out = []
    for (i, j, _), major in zip(rows, flags):
        p, q = x[i], x[j]
        c = min(max(_dot(p, q), -1.0), 1.0)
        s = math.sqrt(max(1.0 - c * c, 1e-30))
        e = -1.0 if major else 1.0
        out.append((2.0 * math.pi - math.acos(c) if major else math.acos(c), c, s,
                    tuple((q[k] - c * p[k]) / s * e for k in range(3)),
                    tuple((p[k] - c * q[k]) / s * e for k in range(3))))
    return out


def _forces(x, rows, arcs) -> tuple[list[list[float]], list[_Vec]]:
    """At each vertex, the multiplicity-weighted sum g of the incident tangents and
    its projection f = g − (g·x)x to the sphere's tangent plane; zero without arcs."""
    g = [[0.0, 0.0, 0.0] for _ in x]
    for (i, j, m), (_, _, _, tp, tq) in zip(rows, arcs):
        gi, gj = g[i], g[j]
        for k in range(3):
            gi[k] += m * tp[k]
            gj[k] += m * tq[k]
    f = []
    for gv, xv in zip(g, x):
        d = _dot(gv, xv)
        f.append((gv[0] - d * xv[0], gv[1] - d * xv[1], gv[2] - d * xv[2]))
    return g, f


def _net_length(rows, arcs) -> float:
    return math.fsum(m * arc[0] for (_, _, m), arc in zip(rows, arcs))


def _residual(f) -> float:
    return max((math.sqrt(_dot(v, v)) for v in f), default=0.0)


def total_length(net: GeodesicNet) -> float:
    """Sum of multiplicity-weighted arc lengths."""
    return _net_length(net.rows, _arc_geometry(net.points, net.rows, net.flags))


def balance_residual(net: GeodesicNet) -> float:
    """Max over vertices of |sum of multiplicity-weighted incident tangents|.

    The sums are projected to the tangent plane of the sphere (they already
    are, up to round-off). Zero characterizes stationarity.
    """
    arcs = _arc_geometry(net.points, net.rows, net.flags)
    for k, arc in enumerate(arcs):
        if abs(math.sin(arc[0])) < 1e-12:  # the angle is 0 or pi: no tangent plane
            raise NetError(f"arc {k} joins (nearly) parallel or antipodal points")
    return _residual(_forces(net.points, net.rows, arcs)[1])


# ---------------------------------------------------------------------------
# relaxation


#: A stall: the last ``_STALL_STEPS`` steps together lowered the residual norm by a fraction < ``_STALL``.
_STALL_STEPS, _STALL = 10, 1e-5


@dataclass(frozen=True)
class RelaxResult:
    net: GeodesicNet
    lengths: list[float] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False


def relax(net: GeodesicNet, max_iter: int = 1000, tol: float = 1e-10) -> RelaxResult:
    """Drive the net to stationarity (zero junction force), combinatorics fixed.

    Balanced nets are saddle points of total length — every net shortens by
    sliding all its vertices toward a common point — so descending length
    cannot return a perturbed net to balance. This solves the first-order
    balance system instead: the residual stacks the multiplicity-weighted
    tangential force at every vertex, and damped Gauss-Newton
    (Levenberg-Marquardt) steps, renormalized to the sphere and accepted only
    when the residual norm decreases, drive it to zero. The Jacobian is the
    closed form (``_jacobian``) on two tangent directions per vertex, and each
    damped system is solved by ``_solve``'s fixed-order Cholesky factorization;
    one that does not factor is damped more. Every arc keeps its endpoints and
    its major flag, so each iterate is a geodesic net with the input's arcs.
    Each state reached, the start included, is measured before the next step,
    so the loop stops when the largest per-vertex force norm is below tol,
    after max_iter steps, or on a stall (``_STALL``), and the length and
    residual histories hold iterations + 1 entries; the last entries are
    ``total_length(res.net)`` and ``balance_residual(res.net)``, bit for
    bit. Raises NetError for a max_iter that is not an integer >= 0 or tol <= 0
    (a tolerance no residual can meet), for an arc with antipodal endpoints,
    and for a start with an arc, major or minor, whose endpoints are closer
    than 1e-6 in angle; a trial step that brings an arc's endpoints that
    close is rejected, like one that does not lower the residual norm.
    """
    if not (_is_int(max_iter) and max_iter >= 0):
        what = "at least 0" if _is_int(max_iter) else "an integer"
        raise NetError(f"max_iter must be {what}, not {_quote(max_iter)}")
    if not tol > 0:
        raise NetError(f"tol must be positive, not {tol!r}")
    rows, flags = net.rows, net.flags
    for i, j, _ in rows:
        ends = [a + b for a, b in zip(net.points[i], net.points[j])]
        if math.sqrt(_dot(ends, ends)) < 1e-9:
            raise NetError("cannot relax an arc with antipodal endpoints (ambiguous geodesic)")
    state = _state(net.points, rows, flags)
    lengths: list[float] = []
    residuals: list[float] = []
    norms2: list[float] = []
    lam = 1e-3
    converged = False
    for it in range(max_iter + 1):  # record the state reached, then stop or step
        x, arcs, g, f, norm2 = state
        lengths.append(_net_length(rows, arcs))
        residuals.append(_residual(f))
        norms2.append(norm2)
        if residuals[-1] < tol:
            converged = True
            break
        if it == max_iter or it >= _STALL_STEPS and norm2 > (1.0 - _STALL) ** 2 * norms2[it - _STALL_STEPS]:
            break
        frames = [_frame(p) for p in x]
        lower, rhs = _normal_equations(_jacobian(x, rows, flags, arcs, g, frames), f)
        for _ in range(40):
            d = _solve(lower, lam, rhs)
            if d is not None:  # step along each vertex's frame, then back onto the sphere
                z = [[p[k] + (d[2 * v] * e1[k] + d[2 * v + 1] * e2[k]) for k in range(3)]
                     for v, (p, (e1, e2)) in enumerate(zip(x, frames))]
                try:
                    trial = _state(z, rows, flags)
                except NetError:  # the trial collapses an arc
                    trial = None
                if trial is not None and trial[-1] < norm2:
                    state = trial
                    break
            lam *= 4.0
        else:  # no damped step lowers the residual norm: stay at x
            break
        lam = max(0.5 * lam, 1e-12)

    return RelaxResult(net=replace(net, points=tuple(x)), lengths=lengths, residuals=residuals,
                       iterations=it, converged=converged)


def _state(z, rows, flags) -> tuple:
    """The rows x of ``z`` scaled to unit length, with ``_arc_geometry``'s arcs
    and ``_forces``' g and f there, and the squared norm of all the forces (one
    ``math.fsum``); NetError if an arc's endpoints come within 1e-6."""
    x = [_unit(p) for p in z]
    arcs = _arc_geometry(x, rows, flags)
    for k, arc in enumerate(arcs):
        if min(arc[0], 2.0 * math.pi - arc[0]) < 1e-6:  # arccos(p·q), for a major arc too
            raise NetError(f"arc collapse during relaxation: the endpoints of arc {k} came within 1e-6")
    g, f = _forces(x, rows, arcs)
    return x, arcs, g, f, math.fsum(c * c for v in f for c in v)


def _frame(x: _Vec) -> tuple[_Vec, _Vec]:
    """Two orthonormal tangent vectors at the unit vector ``x``: e1, the coordinate
    axis x is least along (the first of equals) made tangent and unit, and x × e1."""
    k = min(range(3), key=lambda i: abs(x[i]))
    a = [-x[k] * c for c in x]
    a[k] += 1.0
    e = _unit(a)
    return e, _cross(x, e)


def _jacobian(x, rows, flags, arcs, g, frames) -> list[dict[int, list[list[float]]]]:
    """The closed-form derivative of the forces f of ``_state(z)`` at z = x, in
    blocks: for each vertex v, {u: the columns ∂f_v/∂z_u · e for e in frames[u]}
    over the u with a nonzero block. Each frame vector must be tangent at its
    vertex, so the chain factor I − x xᵀ of the renormalization leaves it.

    For the tangent t = (q − c·p)/s at p toward q, c = p·q and s = √(1 − c²):
    ∂t/∂q = (I − p pᵀ)/s + (c/s³)(q − c·p)pᵀ and
    ∂t/∂p = −(c·I + p qᵀ)/s + (c/s³)(q − c·p)qᵀ. The projection P = I − p pᵀ
    fixes t, so on a vector e tangent at q, P ∂t/∂q e = (e − p(p·e))/s + (c/s²)(p·e)t,
    and on one tangent at p, P ∂t/∂p e = −(c/s)e + (c/s²)(q·e)t. The projection
    f_v = g_v − (g_v·x_v)x_v itself adds −(g_v·e)x_v at u = v; its other term,
    −(g_v·x_v)e, is zero, as every tangent at x_v is orthogonal to x_v.
    """
    blocks: list[dict] = [{} for _ in x]

    def add(v, u, alpha, y, w):  # blocks[v][u] += alpha·E_u + y (w·E_u)ᵀ, E_u = frames[u]
        cols = blocks[v].setdefault(u, [[0.0, 0.0, 0.0] for _ in frames[u]])
        for col, e in zip(cols, frames[u]):
            beta = _dot(w, e)
            col[0] += alpha * e[0] + beta * y[0]
            col[1] += alpha * e[1] + beta * y[1]
            col[2] += alpha * e[2] + beta * y[2]

    for (i, j, m), major, (_, c, s, tp, tq) in zip(rows, flags, arcs):
        a = -m / s if major else m / s  # a major arc's tangents are the minor ones negated
        b = m * c / (s * s)
        p, q = x[i], x[j]
        add(i, j, a, [b * tp[k] - a * p[k] for k in range(3)], p)
        add(i, i, -a * c, [b * t for t in tp], q)
        add(j, i, a, [b * tq[k] - a * q[k] for k in range(3)], q)
        add(j, j, -a * c, [b * t for t in tq], p)
    for v, (xv, gv) in enumerate(zip(x, g)):
        add(v, v, 0.0, [-t for t in xv], gv)
    return blocks


def _normal_equations(blocks, f) -> tuple[list[list[float]], list[float]]:
    """The lower triangle of JᵀJ, row by row, and Jᵀf, for the Jacobian J in
    ``_jacobian``'s blocks and the forces f; unknown b of vertex u is u·k + b for
    k columns per block. Sums run over the vertices in order."""
    k = len(next(iter(blocks[0].values())))
    n = k * len(f)
    lower = [[0.0] * (i + 1) for i in range(n)]
    rhs = [0.0] * n
    for row, fv in zip(blocks, f):
        cols = sorted((u * k + b, col) for u, block in row.items() for b, col in enumerate(block))
        for a, (i, ci) in enumerate(cols):
            rhs[i] += _dot(ci, fv)
            li = lower[i]
            for j, cj in cols[:a + 1]:
                li[j] += _dot(ci, cj)
    return lower, rhs


def _solve(lower, lam: float, rhs):
    """d with (A + lam·I) d = −rhs for the symmetric A whose lower triangle is
    ``lower``, by a Cholesky factorization in a fixed order (each inner product
    one ``math.fsum``); None where a pivot is not positive, so A + lam·I is not
    positive definite in floating point."""
    chol: list[list[float]] = []
    for i, row in enumerate(lower):
        li: list[float] = []
        for j in range(i):
            lj = chol[j]
            li.append((row[j] - math.fsum(map(mul, li, lj))) / lj[j])
        pivot = row[i] + lam - math.fsum(map(mul, li, li))
        if not pivot > 0.0:
            return None
        li.append(math.sqrt(pivot))
        chol.append(li)
    d: list[float] = []
    for li, b in zip(chol, rhs):  # L y = −rhs
        d.append((-b - math.fsum(map(mul, li, d))) / li[-1])
    for i in reversed(range(len(chol))):  # Lᵀ d = y, one row of L at a time
        li = chol[i]
        d[i] /= li[i]
        for j in range(i):
            d[j] -= li[j] * d[i]
    return d


# ---------------------------------------------------------------------------
# the ten-net catalogue


@dataclass(frozen=True)
class CatalogueEntry(Record):
    """One catalogue net; ``n_arcs`` is given only without a net, and the
    flags are derived from ``length`` and ``net``."""

    name: str
    closed_form: str
    length: float | None
    combinatorics: str
    net: GeodesicNet | None = field(default=None, metadata=NOT_RECORDED)
    n_arcs: int | None = None
    note: str = ""
    below_4pi: bool = field(init=False)
    constructible: bool = field(init=False)
    invalid_as_printed: bool = field(init=False)

    def __post_init__(self) -> None:
        if self.net is not None:
            if self.n_arcs is not None:
                raise TypeError("n_arcs is the net's arc count: give it only without a net")
            object.__setattr__(self, "n_arcs", self.net.num_arcs)
        object.__setattr__(self, "below_4pi", self.length is not None and self.length < 4.0 * math.pi)
        object.__setattr__(self, "constructible", self.net is not None)
        object.__setattr__(self, "invalid_as_printed", self.length is None)


def _net(vertices, *dots: float) -> GeodesicNet:
    """The net on the unit vectors ``vertices`` (lists of 3 floats) with one arc
    [i, j, 1] for each pair i < j, in pair order, whose dot product lies within
    1e-9 of one of ``dots``."""
    n = len(vertices)
    return make_net(vertices, [[i, j, 1] for i in range(n) for j in range(i + 1, n)
                               if any(abs(_dot(vertices[i], vertices[j]) - d) < 1e-9 for d in dots)])


def _prism(sides: int, rho2: float) -> GeodesicNet:
    """Two regular rings of ``sides`` vertices at heights h and -h, h² = 1 - rho2,
    joined along each ring and by one upright per vertex."""
    rho, h = math.sqrt(rho2), math.sqrt(1.0 - rho2)
    ring = [2.0 * math.pi * k / sides for k in range(sides)]
    verts = [[rho * math.cos(a), rho * math.sin(a), sz] for sz in (h, -h) for a in ring]
    return _net(verts, rho2 * math.cos(2.0 * math.pi / sides) + h * h, rho2 - h * h)


@functools.cache
def catalogue() -> tuple[CatalogueEntry, ...]:
    """The ten stationary nets on the unit sphere, with printed closed forms,
    built on first use and shared (the entries are frozen).

    Names, closed forms and lengths come from ``netmatch.CATALOGUE``.
    Entries 1–7 carry explicit balanced coordinates: each is a vertex set and
    its edge dots, and an arc joins two vertices whose dot product is an edge
    dot. Entries 8–10 are length-only (no coordinates are printed in the
    classification; reconstructing them is out of scope). Entry 10's printed
    formula contains arcsin of an argument larger than one and is flagged
    invalid; its intended comparison (> 25, hence > 4*pi) is kept as a note.
    """
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    root3 = math.sqrt(3.0)

    def radial(points):  # onto the unit sphere from the radius-√3 sphere
        return [[c / root3 for c in p] for p in points]

    signs = [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    golden = [p for a in (-1.0 / phi, 1.0 / phi) for b in (-phi, phi)
              for p in ([0.0, a, b], [a, b, 0.0], [b, 0.0, a])]
    equator = [[math.cos(a), math.sin(a), 0.0] for a in (2.0 * math.pi * k / 3.0 for k in range(3))]
    details = (
        ("one great circle sampled at 4 points, 4 quarter arcs",
         {"net": _net([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], 0.0)}),
        ("three meridians sharing both poles, split at the equator",
         {"net": _net([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]] + equator, 0.0)}),
        ("1-skeleton of the regular tetrahedron, radially projected",
         {"net": _net(radial([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]), -1.0 / 3.0)}),
        ("1-skeleton of the cube, radially projected",
         {"net": _net(radial(signs), 1.0 / 3.0)}),
        ("prism over a regular pentagon: two rings of 5 plus 5 uprights",
         {"net": _prism(5, 2.0 * (5.0 - math.sqrt(5.0)) / 15.0)}),
        ("prism over a regular triangle: two rings of 3 plus 3 uprights", {"net": _prism(3, 8.0 / 9.0)}),
        ("1-skeleton of the regular dodecahedron, radially projected",
         {"net": _net(radial(signs + golden), math.sqrt(5.0) / 3.0)}),
        ("24 arcs forming 2 regular quadrilaterals and 8 equal pentagons; each"
         " quadrilateral surrounded by 4 pentagons, each pentagon by 4 pentagons"
         " and one quadrilateral", {"n_arcs": 24}),
        ("18 arcs forming 4 equal pentagons and 4 equal quadrilaterals; each"
         " quadrilateral surrounded by 3 pentagons and 1 quadrilateral, each"
         " pentagon by 3 quadrilaterals and 2 pentagons", {"n_arcs": 18}),
        ("21 arcs forming 3 regular quadrilaterals and 6 equal pentagons; each"
         " quadrilateral surrounded by 4 pentagons, each pentagon by 2"
         " quadrilaterals and 3 pentagons",
         {"n_arcs": 21, "note": "the middle arcsin argument sqrt(3 - sqrt(6)/6) ≈ 1.61 exceeds 1, so"
                                " the printed formula cannot be evaluated; the intended comparison"
                                " (> 25, hence > 4*pi) is recorded here"}),
    )
    return tuple(CatalogueEntry(name, closed_form, length, combinatorics, **kw)
                 for (name, closed_form, length), (combinatorics, kw) in zip(CATALOGUE, details))


# ---------------------------------------------------------------------------
# serialization


def _arc_rows(net: GeodesicNet) -> list[list[int]]:
    """Arcs as file rows [i, j, mult], with a fourth element 1 on a major arc."""
    return [[i, j, m, 1] if major else [i, j, m] for (i, j, m), major in zip(net.rows, net.flags)]


def save_net(net: GeodesicNet, path: str) -> None:
    """Net JSON: {"vertices": [[x,y,z],...], "arcs": [[i,j,mult],...]};
    arcs that take the major way round get a fourth element 1."""
    save_json({"vertices": net.points, "arcs": _arc_rows(net)}, path)


def load_net(path: str) -> GeodesicNet:
    """Load a net file (the ``save_net`` format); values are never coerced.

    The vertices must be numbers and each arc row 3 integers, or 4 whose last
    is 1 on a major arc and 0 on a minor one (NetError otherwise, naming the file).
    """
    doc = load_json(path, "net file")
    if not (isinstance(doc, dict) and "vertices" in doc and isinstance(doc.get("arcs"), list)):
        raise NetError(f"net file {path!r} needs an object with 'vertices' and an 'arcs' list")
    rows = doc["arcs"]
    try:
        for k, r in enumerate(rows):
            if not (isinstance(r, list) and len(r) in (3, 4) and r[3:] in ([], [0], [1])
                    and all(map(_is_int, r))):
                raise NetError(f"arc {k} must be 3 or 4 integers, the fourth 0 or 1, not {_quote(r)}")
        return make_net(doc["vertices"], [r[:3] for r in rows], [r[3:] == [1] for r in rows])
    except NetError as e:
        raise NetError(f"net file {path!r}: {e}") from None
