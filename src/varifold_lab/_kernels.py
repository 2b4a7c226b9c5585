"""Exact ball masses of a triangle soup by disk–triangle clipping.

The core routine computes area(T ∩ D) for a triangle T and a disk D exactly,
via Green's theorem: walking the triangle boundary counter-clockwise, each
edge piece inside the disk contributes a chord term ½·cross(w0, w1) and each
piece outside contributes the circular-arc term ½ρ²·angle(w0→w1). Summing the
signed angle over all outside pieces automatically picks up the winding of the
triangle around the disk center, so the same steps handle every configuration
(disk inside triangle, triangle inside disk, partial overlap, disjoint).

One walk (``_walk``, in the face frames of ``_face_frames``) serves both
readings of a ball: ``ball_masses`` sums its terms, and ``spherical_link``
takes the circle's arcs inside each face from it (``_arcs``): an arc runs
from where the walk leaves the disk to where it next comes in, through the
outside pieces whose angles the area sums. So the link's length over 2π and
the mass ratio read the same crossings, and the tangency cut ``_DISC_EPS``
has one reader.

``ball_masses`` works through the faces in blocks of ``_BLOCK``, for every
radius at once. A face wholly inside a ball contributes its mass, kept with
its shell; the rows of the faces a sphere cuts are kept too, and after the
blocks all of them are clipped in one batch and all terms summed in one
call, with the ``held`` masses a caller passes in: ``ball_mass_ladder``
passes the masses of the faces and grid cells that no sphere cuts
(``_grid.GridMasses``), so only the faces near a sphere come in as
``faces``. A block's temporaries stay in cache and the heap reuses them, where
whole-mesh ones of several MB were freed at the top of the heap, trimmed,
and faulted in again by the next call. The blocks keep every bit, because
the per-face work is elementwise and the sums are exact. Every per-face
term is rounded exactly as a scalar evaluation of the same formulas would
round it, and each mass is the correctly rounded exact sum of its terms
(what ``math.fsum`` returns), so the masses do not depend on face order.
These rules keep the bits:

- a whole face's mass is its multiplicity times the area of
  ``mesh.face_normals``, from ``_face_cross`` on its corners as given: not
  shifted by the center, so its bits are the same at every center, those
  that ``total_mass`` sums and that ``_grid.GridMasses`` keeps;
- for the distance tests and the clipping, corners are shifted by the center
  row by row, so a corner's shift and squared norm have the same bits whether
  the corners are gathered first and then shifted (a call on few faces: their
  3F corner rows are fewer than the V vertices) or every vertex is shifted and
  squared once and the corners gathered from the result (a call on most of
  the mesh);
- cross products are written out (``_cross``), the products and differences
  ``np.cross`` forms;
- squared norms (``_sq``) are summed in one fixed order, (x² + z²) + y²;
- dot products of 3-vectors use a batched ``@`` (``_dot``: one
  ``(1, 3) @ (3, 1)`` product per face), which rounds like a 1-D ``a @ b``:
  as BLAS ``ddot`` does, with fused multiply-adds where the host has them, so
  no written-out order reproduces it;
- arc angles use ``_atan2`` (``math.atan2``, libm), computed only for the arc
  pieces that contribute; ``np.arctan2`` may take a SIMD path that differs in
  the last bit;
- sums are exact (``fsum``): mantissas are binned by exponent in integer
  halves, a block of terms at a time, combined in a Python int and rounded
  once; non-finite input, a zero total and sums near overflow go to
  ``math.fsum``. A face's whole mass, and a held mass, is added to the shell
  of the smallest radius whose ball holds it, and each mass takes the shells
  of the radii up to its own.

Every other reduction over rows of 3-vectors in the package goes through
three helpers that read the coordinate columns and never form an (N, 3)
temporary; with a ``center`` (3 finite numbers: ``_point``, a float64 array
of ``_values._point``) they subtract it column by column, with the bits of
the explicit difference:

- ``_sq(w, center)`` sums (x·x + z·z) + y·y;
- ``_norm(w, center)`` is sqrt((x·x + y·y) + z·z);
- ``_inner(a, b)`` sums (a₀b₀ + a₂b₂) + a₁b₁.

Each order is that of the call it replaced, so the helpers moved no bits.
``np.linalg.norm(w, axis=1)`` sums (x² + y²) + z² in any memory layout. The
order of ``einsum("ij,ij->i")`` depends on the SIMD level and on the layout
of its operands: with NumPy 2.4 on an AVX-512 host it is that of ``_inner``
(and of ``_sq``) for C-ordered or row-strided operands, and (x² + y²) + z²
for Fortran-ordered ones: on 100,000 standard normal rows, about 22,700
squared norms differ between a C-ordered and a Fortran-ordered copy. Every
replaced ``einsum`` had C-ordered operands. The helpers give the same bits
in every layout. There are two squared-norm orders only because each keeps
the bits of its call; a change that re-records the pinned bits can merge
them.
"""
from __future__ import annotations

import math

import numpy as np

from . import _values

#: Name of the clipping kernel, recorded in benchmark provenance.
BACKEND = "fallback"

#: The tangency cut of ``_walk``: a circle |p| = rho crosses an edge's line only where its
#: discriminant exceeds ``_DISC_EPS * dd * rho²``.
_DISC_EPS = 1e-12

#: Rows per block of ``ball_masses``, of the exact sums and of every whole-mesh per-face pass
#: (``_blocks``): a (_BLOCK, 3) float64 array is 96 KiB, below glibc's default mmap threshold
#: of 128 KiB. On the calls of the ``global-monotonicity`` benchmark, 2,048 ran about 10%
#: slower, and 8,192 or 16,384 no faster.
_BLOCK = 4096

#: Most terms that ``_exact_sums`` bins, read at each call; longer input takes the
#: ``math.fsum`` fallbacks of ``fsum`` and ``ball_masses``. The bound keeps the bins exact
#: (see the comment in ``_exact_sums``), so it must not be raised.
_EXACT_TERMS = 2**26


def _blocks(n: int) -> list[slice]:
    """Slices of at most ``_BLOCK`` rows that cover range(n) in order, ``_BLOCK`` read per call."""
    return [slice(s, s + _BLOCK) for s in range(0, n, _BLOCK)]


def _indices(mask: np.ndarray) -> np.ndarray:
    """The ascending indices of the true entries of the 1-D ``mask``, written as int32
    (``np.flatnonzero`` returns int64); ``len(mask)`` must be at most 2³¹."""
    return np.compress(mask, np.arange(len(mask), dtype=np.int32))


def _walk(ax, ay, bx, by, cx, cy, rho) -> tuple[np.ndarray, ...]:
    """Green's walk around the CCW triangles (a, b, c) against the circles |p| = rho, rho > 0.

    Returns (chord, w0x, w0y, w1x, w1y, into, out, whole), each a list of three
    (m,) arrays, item k for edge k, from corner k to corner k + 1. Where
    ``chord``, the edge's piece
    inside the disk runs from w0 to w1, at its first and second root (or the
    corner where the edge starts or ends inside); ``into`` is the signed angle
    about the center that the edge turns outside the disk before w0, ``out``
    the one after w1, and ``whole`` that of an edge with no piece inside. An
    angle is 0 where its piece is empty, and every angle is 0 on an edge of
    zero length.
    """
    pts = ((ax, ay), (bx, by), (cx, cy))
    rho2 = rho * rho
    edges = []
    with np.errstate(invalid="ignore", divide="ignore"):
        for k in range(3):
            x0, y0 = pts[k]
            x1, y1 = pts[(k + 1) % 3]
            dx, dy = x1 - x0, y1 - y0
            dd = dx * dx + dy * dy
            live = ~(dd < 1e-300)
            p0d = x0 * dx + y0 * dy
            p00 = x0 * x0 + y0 * y0
            disc = p0d * p0d - dd * (p00 - rho2)
            cut = disc > _DISC_EPS * dd * rho2
            sq = np.sqrt(disc)
            lo = (-p0d - sq) / dd
            hi = (-p0d + sq) / dd
            lo = np.where(cut, np.where(lo > 0.0, lo, 0.0), 1.0)
            hi = np.where(cut, np.where(hi < 1.0, hi, 1.0), 0.0)
            chord = live & (lo < hi)
            w0x, w0y = x0 + lo * dx, y0 + lo * dy
            w1x, w1y = x0 + hi * dx, y0 + hi * dy
            edges.append((chord, w0x, w0y, w1x, w1y, _angles(x0, y0, w0x, w0y, chord & (lo > 0.0)),
                          _angles(w1x, w1y, x1, y1, chord & (hi < 1.0)), _angles(x0, y0, x1, y1, live & ~chord)))
    return tuple(list(c) for c in zip(*edges))


def _angles(u0x, u0y, u1x, u1y, mask) -> np.ndarray:
    """Signed angles from u0 to u1 about the origin, by ``_atan2``, where ``mask``; 0 off it."""
    out = np.zeros(len(mask))
    idx = np.flatnonzero(mask)
    u0x, u0y, u1x, u1y = u0x[idx], u0y[idx], u1x[idx], u1y[idx]
    out[idx] = _atan2(u0x * u1y - u0y * u1x, u0x * u1x + u0y * u1y)
    return out


def _disk_tri_areas(ax, ay, bx, by, cx, cy, rho) -> np.ndarray:
    """Areas of the CCW triangles (a, b, c) intersected with the disks |p| <= rho, rho > 0.

    Per triangle the terms of ``_walk`` are added in the scalar order: for
    each edge, its entry arc, chord and exit arc, or its whole outside arc;
    an arc's term is ½ρ²·angle.
    """
    half = 0.5 * (rho * rho)
    total = np.zeros(len(rho))
    chord, w0x, w0y, w1x, w1y, into, out, whole = _walk(ax, ay, bx, by, cx, cy, rho)
    for k in range(3):
        total += half * into[k]
        total += np.where(chord[k], 0.5 * (w0x[k] * w1y[k] - w0y[k] * w1x[k]), 0.0)
        total += half * out[k]
        total += half * whole[k]
    return total


def _arcs(ax, ay, bx, by, cx, cy, rho) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The arcs of the circles |p| = rho, rho > 0, inside the CCW triangles (a, b, c), from ``_walk``.

    Returns (row, theta0, dtheta, ends) per arc, ordered by row and then by
    theta0. An arc runs counter-clockwise from where the walk leaves the disk,
    the end w1 of edge k's inside piece, to where it next comes in, the start
    w0 of the next edge k' with an inside piece (k' = k after a whole turn).
    theta0 is the angle of w1, dtheta the sum of the walk's outside angles from
    w1 to w0, and an arc with dtheta <= 0 is dropped, such as the empty one
    between two inside pieces that meet at a corner. ``ends`` (n, 2) names the
    two points: 2k + 1 for the end of edge k's piece (its second root in the
    order of t, or corner k + 1), 2k' for the start of edge k''s (its first
    root, or corner k'). A circle whose walk has no inside piece is one whole
    arc, theta0 = 0, dtheta = 2π and ends (0, 0), if the outside angles wind
    once around its center, and no arc otherwise.
    """
    chord, _, _, w1x, w1y, into, out, whole = _walk(ax, ay, bx, by, cx, cy, rho)
    chord, w1x, w1y = np.array(chord), np.array(w1x), np.array(w1y)
    dtheta, end = np.zeros(chord.shape), np.zeros(chord.shape, dtype=np.int64)  # of the arc from edge k
    for k in range(3):
        going, turn = chord[k].copy(), out[k]
        for j in ((k + 1) % 3, (k + 2) % 3, k):
            stop = going & chord[j]
            dtheta[k, stop] = turn[stop] + into[j][stop]
            end[k, stop] = 2 * j
            going &= ~chord[j]
            turn = turn + whole[j]
    circle = ~chord.any(axis=0) & ((whole[0] + whole[1]) + whole[2] > math.pi)
    dtheta[0, circle] = 2.0 * math.pi  # put on edge 0, with the angle and ends of a whole circle
    k, row = np.nonzero(dtheta > 0.0)
    theta0 = np.where(circle[row], 0.0, _atan2(w1y[k, row], w1x[k, row]))
    ends = np.where(circle[row, None], 0, np.stack([2 * k + 1, end[k, row]], axis=1))
    order = np.lexsort((theta0, row))
    return row[order], theta0[order], dtheta[k, row][order], ends[order]


def _atan2(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Elementwise ``math.atan2`` of two 1-D arrays: ``np.arctan2``'s last bit depends on the SIMD level."""
    return np.fromiter(map(math.atan2, y.tolist(), x.tolist()), dtype=np.float64, count=len(y))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (k, 3) arrays, rounded like a 1-D ``a @ b``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _cross(e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Row-wise cross products of (k, 3) arrays, formed as ``np.cross`` forms
    them (one product written into each column, the other subtracted in
    place), so with its bits and one (k,) temporary at a time."""
    out = np.empty((len(e), 3))
    e0, e1, e2 = e.T
    f0, f1, f2 = f.T
    np.multiply(e1, f2, out=out[:, 0])
    out[:, 0] -= e2 * f1
    np.multiply(e2, f0, out=out[:, 1])
    out[:, 1] -= e0 * f2
    np.multiply(e0, f1, out=out[:, 2])
    out[:, 2] -= e1 * f0
    return out


def _face_frames(va, vb, vc, n, two_area, r) -> tuple[np.ndarray, ...]:
    """The frames of the faces whose plane meets the ball B(0, r), one r per row or one for all.

    Returns (rows, rho, q, e1, e2, corners) for those rows: the radius rho of
    the circle in which the sphere |x| = r meets the plane, its center mirrored
    through the origin q, the plane's unit axes e1 and e2, and ``corners``, the
    in-plane coordinates (ax, ay, bx, by, cx, cy) of the face about the circle's
    center, which ``_walk`` reads.
    """
    nf = n / two_area[:, None]
    d = _dot(va, nf)  # signed distance from the center to each face plane
    rho2 = r * r - d * d
    rows = np.flatnonzero(~(rho2 <= 0.0))
    va, vb, vc, nf, d = va[rows], vb[rows], vc[rows], nf[rows], d[rows]
    rho = np.sqrt(rho2[rows])
    e1 = vb - va
    e1 = e1 / np.sqrt(_sq(e1))[:, None]
    e2 = _cross(nf, e1)
    # q is the foot d·nf of the center mirrored through the center. The
    # in-plane coordinates are those about the foot all the same, because
    # e1, e2 ⊥ nf; using the foot itself would move last bits
    q = -d[:, None] * nf
    a, b, c = va - q, vb - q, vc - q
    return rows, rho, q, e1, e2, (_dot(a, e1), _dot(a, e2), _dot(b, e1), _dot(b, e2), _dot(c, e1), _dot(c, e2))


def ball_masses(
    vertices: np.ndarray,
    faces: np.ndarray,
    mult: np.ndarray,
    x0: np.ndarray,
    radii: np.ndarray,
    held: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Mass of the varifold restricted to balls B(x0, r) for each r in radii.

    Each face contributes multiplicity × area(face ∩ ball) with the clipped
    area computed exactly, and each mass is the exactly rounded sum of these
    terms, so it does not depend on face order. A face wholly inside a ball
    adds its mass with its area from ``_face_cross``, the area of
    ``mesh.face_normals``. ``held`` is (masses, reach), masses that are not
    among ``faces`` and that every ball of radius ``reach`` or more holds
    whole and every other misses: a caller's masses of whole faces and sums of
    whole grid cells, each ``reach`` one of ``radii``. Radii r <= 0 (and NaN)
    give mass 0.
    """
    vertices = np.asarray(vertices, dtype=np.float64)
    faces = np.asarray(faces, dtype=np.int64)
    mult = np.asarray(mult, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)

    # the distinct positive radii, ascending; the others keep mass 0
    pos = np.flatnonzero(radii > 0.0)
    rs, slot = np.unique(radii[pos], return_inverse=True)
    nr = len(rs)

    if 3 * len(faces) < len(vertices):  # few faces: shift and square only their corners
        points, sq = vertices, None
    else:  # most of the mesh: shift and square each vertex once
        points = vertices - x0
        sq = _sq(points)
    blocks = [_block_terms(vertices, points, sq, x0, faces[b], mult[b], rs)
              for b in _blocks(len(faces) or 1)]  # no faces: one empty block
    whole_mass, shell, *cut = zip(*blocks)  # each a tuple of per-block arrays
    va, vb, vc, n, two_area, cut_mult, k = map(np.concatenate, cut)
    del points, sq, blocks, cut  # the sums are the call's peak: free what they do not read
    if held is not None:
        held_shell = np.searchsorted(rs, held[1], side="left")
        kept = np.flatnonzero(held_shell < nr)
        whole_mass += (np.asarray(held[0], dtype=np.float64)[kept],)
        shell += (held_shell[kept],)

    rows, rho, *_, corners = _face_frames(va, vb, vc, n, two_area, rs[k])
    clip = np.minimum(_disk_tri_areas(*corners, rho), 0.5 * two_area[rows])  # round-off can overshoot the face area
    hit = clip > 0.0
    k = k[rows][hit]
    parts = cut_mult[rows][hit] * clip[hit]
    # the terms: whole faces (and the held masses) in their shells, then the cut ones by
    # radius, each in face order
    terms = np.concatenate(whole_mass + (parts,))
    group = np.concatenate(shell + (nr + k,))
    del va, vb, vc, n, two_area, cut_mult, whole_mass, shell  # likewise

    exact = _exact_sums(terms, group, 2 * nr)
    masses = np.zeros(nr)
    below = 0
    for j in range(nr):
        mass = None
        if exact is not None:
            t, e0 = exact
            below += t[j]
            mass = _round(below + t[nr + j], e0)
        if mass is None:  # math.fsum over ball j's terms, in their order
            mass = math.fsum(terms[(group <= j) | (group == nr + j)].tolist())
        masses[j] = mass
    out = np.zeros(len(radii))
    out[pos] = masses[slot]
    return out


def _block_terms(vertices, points, sq, x0, faces, mult, rs):
    """The terms of one block of faces: the masses of the faces wholly inside some ball
    B(x0, r), r in ``rs``, with their shells, and per row that a sphere |x - x0| = r cuts, its
    shifted corners, normal, doubled area, multiplicity and radius index.

    ``points`` are the vertices, or the vertices shifted by x0 with their squared norms ``sq``.
    """
    corners = np.ascontiguousarray(faces.T)
    abc = np.take(points, corners, axis=0)  # (3, B, 3): each face's corners
    if sq is None:
        abc -= x0
        d2 = _sq(abc)
    else:
        d2 = sq.take(corners)
    va, vb, vc = abc
    d_max = np.sqrt(d2.max(axis=0))
    # conservative lower bound on the distance from x0 to the face
    cen = (va + vb + vc) / 3.0
    spread = np.sqrt(_sq(abc - cen).max(axis=0))
    d_min = np.maximum(0.0, np.sqrt(_sq(cen)) - spread)

    n = _cross(vb - va, vc - va)
    two_area = np.sqrt(_sq(n))
    live = ~(two_area < 1e-300)

    # a face is near ball k (d_min < r) from k_near on and inside it
    # (d_max <= r) from k_in on: cut by the sphere for k_near <= k < k_in,
    # whole from its shell max(k_near, k_in) on
    nr = len(rs)
    k_near = np.where(live, np.searchsorted(rs, d_min, side="right"), nr)
    k_in = np.searchsorted(rs, d_max, side="left")
    shell = np.maximum(k_near, k_in)
    count = np.maximum(k_in - k_near, 0)
    cut = np.repeat(np.arange(len(faces)), count)
    k = np.arange(len(cut)) + np.repeat(k_near - (np.cumsum(count) - count), count)
    whole = np.flatnonzero(shell < nr)
    whole_mass = mult[whole] * (0.5 * _face_cross(vertices, faces[whole])[1])
    return (whole_mass, shell[whole], va.take(cut, axis=0), vb.take(cut, axis=0),
            vc.take(cut, axis=0), n.take(cut, axis=0), two_area[cut], mult[cut], k)


def _face_cross(vertices: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cross products (b - a) x (c - a) of the faces (a, b, c), and their norms: twice the
    face areas. Every whole face's area is read from here, unshifted, so with one set of bits."""
    p0, p1, p2 = np.take(vertices, faces.T, axis=0)
    n = _cross(p1 - p0, p2 - p0)
    return n, _norm(n)


def fsum(x) -> float:
    """``math.fsum`` of a float array, bit for bit, from exact binned sums."""
    x = np.asarray(x, dtype=np.float64).ravel()
    exact = _exact_sums(x, 0, 1)
    total = None if exact is None else _round(exact[0][0], exact[1])
    return math.fsum(x.tolist()) if total is None else total


def _exact_sums(x: np.ndarray, group: np.ndarray | int, n: int) -> tuple[list[int], int] | None:
    """Exact sums of x by group (each in 0..n-1), as ints t_g with sum = t_g · 2**(e0 − 53).

    Returns (t, e0), or None where ``_bins`` gives none.
    """
    bins = _bins(x, group, n)
    if bins is None:
        return None
    hi, lo, e0 = bins
    nz = np.flatnonzero((hi != 0.0) | (lo != 0.0))
    sums = [0] * n
    width = hi.shape[1]
    for i, h, l in zip(nz.tolist(), hi.ravel()[nz].tolist(), lo.ravel()[nz].tolist()):
        g, b = divmod(i, width)
        sums[g] += ((int(h) << 26) + int(l)) << b
    return sums, e0


def _bins(x: np.ndarray, group: np.ndarray | int, n: int) -> tuple[np.ndarray, np.ndarray, int] | None:
    """The binned mantissas of x by group (each in 0..n-1) and exponent, exactly.

    Returns (hi, lo, e0): (n, width) arrays of integers, where group g sums to
    Σ_b (hi[g, b]·2**26 + lo[g, b])·2**(b + e0 − 53). Every bin, and every sum of
    bins over any groups, is an exact float64. None when x holds more than
    ``_EXACT_TERMS`` terms, a non-finite value, or one large enough that
    ``math.fsum`` might overflow on the way. The guards, e0 and the exponent
    width are taken over all of x first; then each block of ``_BLOCK`` terms
    is binned and its bins added to the totals, exactly.
    """
    if not len(x):
        return np.zeros((n, 0)), np.zeros((n, 0)), 0
    if len(x) > _EXACT_TERMS:
        return None
    blocks = _blocks(len(x))
    limit = 2.0 ** (1021 - len(x).bit_length())
    lows, highs = [], []
    for b in blocks:
        if not np.abs(x[b]).max() < limit:
            return None
        e = np.frexp(x[b])[1]
        lows.append(int(e.min()))
        highs.append(int(e.max()))
    e0 = min(lows)
    width = max(highs) - e0 + 1
    # x = mant · 2**(e − 53) with |mant| < 2**53: halves of 27 and 26 bits
    # have bin sums below 2**53 over all of x (at most _EXACT_TERMS = 2**26 terms), so every
    # bin and every running total of the blocks' bins is an exact float64
    hi, lo = np.zeros((n, width)), np.zeros((n, width))
    for b in blocks:
        m, e = np.frexp(x[b])
        key = (group if np.ndim(group) == 0 else group[b]) * width + (e - e0)
        mant = (m * 2.0**53).astype(np.int64)
        hi.reshape(-1)[:] += np.bincount(key, weights=mant >> 26, minlength=n * width)
        lo.reshape(-1)[:] += np.bincount(key, weights=mant & (2**26 - 1), minlength=n * width)
    return hi, lo, e0


def _bin_terms(hi: np.ndarray, lo: np.ndarray, e0: int) -> tuple[np.ndarray, np.ndarray]:
    """The non-zero bins of ``_bins`` as exact float64 terms, with their groups.

    Each is an integer below 2**53 times a power of two no smaller than the
    least one of the binned terms', so ``np.ldexp`` rounds none of them.
    """
    width = hi.shape[1]
    terms, groups = [], []
    for half, shift in ((hi, 26), (lo, 0)):
        group, b = np.divmod(np.flatnonzero(half), width)
        terms.append(np.ldexp(half[group, b], b + (e0 - 53 + shift)))
        groups.append(group)
    return np.concatenate(terms), np.concatenate(groups)


def _round(t: int, e0: int) -> float | None:
    """t · 2**(e0 − 53) rounded to nearest, ties to even.

    ``float(t)`` rounds once and ``ldexp`` is exact: a sum of floats is a
    multiple of 2**-1074, so one below 2**-1022 fits a subnormal. None for
    zero, whose sign ``math.fsum`` decides, and when ``float(t)`` overflows.
    """
    if not t:
        return None
    try:
        return math.ldexp(float(t), e0 - 53)
    except OverflowError:
        return None


def _point(x, where: str) -> np.ndarray:
    """``_values._point(x, where)`` as a float64 array: a center as the row helpers read it."""
    return np.array(_values._point(x, where))


def _sum_of_squares(w: np.ndarray, center, order: tuple[int, int, int]) -> np.ndarray:
    """Sum of the squared coordinates of the rows of w (less ``center``), added in ``order``,
    with two (N,) buffers: no (N, 3) temporary."""
    s, t = np.empty(w.shape[:-1]), np.empty(w.shape[:-1])
    for i, k in enumerate(order):
        out = t if i else s
        if center is None:
            np.multiply(w[..., k], w[..., k], out=out)
        else:
            np.subtract(w[..., k], center[k], out=out)  # the bits of column k of w - center
            out *= out
        if i:
            s += t
    return s


def _sq(w: np.ndarray, center=None) -> np.ndarray:
    """Squared norms of the 3-vectors w[..., :] (less ``center``), summed as (x*x + z*z) + y*y:
    the bits of ``einsum("ij,ij->i", w, w)`` on C-ordered rows."""
    return _sum_of_squares(w, center, (0, 2, 1))


def _norm(w: np.ndarray, center=None) -> np.ndarray:
    """Norms of the 3-vectors w[..., :] (less ``center``), sqrt((x*x + y*y) + z*z): the bits
    of ``np.linalg.norm(w, axis=-1)`` in any memory layout."""
    s = _sum_of_squares(w, center, (0, 1, 2))
    return np.sqrt(s, out=s)


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the 3-vectors a[..., :] and b[..., :], summed as (a₀b₀ + a₂b₂) + a₁b₁:
    the bits of ``einsum("ij,ij->i", a, b)`` on C-ordered or row-strided operands."""
    s, t = np.empty(a.shape[:-1]), np.empty(a.shape[:-1])
    np.multiply(a[..., 0], b[..., 0], out=s)
    for k in (2, 1):
        s += np.multiply(a[..., k], b[..., k], out=t)
    return s
