"""A uniform grid over the faces of a varifold, for queries near a ball.

Local queries (density ladders, spherical links, distances to the support)
need only the faces near a small ball, yet a mesh has up to ~10^5 faces. The
grid finds a superset of those faces at a cost set by the cells near the
ball, not by the mesh. The occupied cells are kept sorted, each with its
faces as one run of ``order``. A query reads only the slab of cells whose
first index meets the ball's box and applies one filter to all their faces:
a face is kept when its own bounding sphere (centroid and spread) meets the
ball (or, for a spherical link, the shell around the sphere). The box is
wide enough to hold the centroid of every face that passes, so the query
keeps exactly the faces a test of every face keeps. ``FaceGrid.build``
returns fresh arrays, and ``DiscreteVarifold.face_grid`` keeps one read-only
grid per mesh; this module is imported only when a grid is first needed.
Like every whole-mesh per-face pass, the build works through the faces in
blocks of ``_kernels._BLOCK``: each block's corners are gathered, and its
centroids, spreads and cell keys written into the (F,)-sized outputs, so no
corner array of the whole mesh is formed. Only the sort of the keys, the
search for the cell runs and each cell's largest spread read whole arrays.

Ball masses read the grid twice over (``FaceGrid.ball``): a cell whose ball
no sphere |x − x0| = r cuts lies inside some of the balls and outside the
others, and so do the faces of a cut cell whose bounding spheres no sphere
cuts. ``GridMasses`` keeps each face's whole mass and each cell's exact sum of
them once per mesh, so such faces and cells add their masses without being
read face by face, and only the faces a sphere may cut are clipped. That
pays when the whole cells hold many faces, as a large ball's do; for fewer,
as a density ladder's, the faces near the ball are clipped as ``query``
finds them, and no sums are built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._kernels import _bin_terms, _bins, _blocks, _indices, _sq

if TYPE_CHECKING:
    from .mesh import DiscreteVarifold

#: Cell pitch of a face grid, in units of the mean face spread.
_PITCH_SPREADS = 4.0
#: Most cells a face grid has along one axis, so cell keys fit in int64.
_MAX_CELLS = 1 << 20
#: ``FaceGrid.ball`` takes faces and cells whole only when its whole cells hold at least
#: 1/_WHOLE_SHARE of the faces: a density ladder's whole cells hold a few dozen faces, which
#: would not repay building the mesh's cell sums (``GridMasses``, a read of every face).
_WHOLE_SHARE = 64


@dataclass(frozen=True)
class FaceGrid:
    """Uniform grid of cubic cells over the face centroids, for local queries.

    Each face sits in the cell of its centroid. Cell (i, j, k) is the cube
    ``origin + pitch * [i, i+1) x ...``, and ``shape`` is the number of cells
    along each axis. ``cells`` holds the integer coordinates of the occupied
    cells in ascending (i, j, k) order; the faces of cell row c are
    ``order[start[c]:start[c + 1]]``. ``centroids[f]`` and ``spreads[f]`` are
    face f's centroid, ``(a + b + c) / 3``, and the largest distance from it
    to f's corners: f lies in the ball of radius ``spreads[f]`` about
    ``centroids[f]``. ``spread`` is the largest spread of all. Every face of
    cell row c lies in the ball of radius ``cell_radii[c]`` about the center
    ``cell_centers[c]`` of the cell's cube: the cube's half-diagonal plus the
    largest spread of a face in the cell.

    ``shape``, ``cells``, ``start`` and ``order`` are int32, which bounds a
    grid to F < 2³¹ faces; the other arrays are float64. ``build`` returns
    writable arrays; ``DiscreteVarifold.face_grid`` keeps them read-only.
    """

    origin: np.ndarray
    pitch: float
    shape: np.ndarray
    cells: np.ndarray
    start: np.ndarray
    order: np.ndarray
    spread: float
    centroids: np.ndarray
    spreads: np.ndarray
    cell_centers: np.ndarray
    cell_radii: np.ndarray

    @classmethod
    def build(cls, v: DiscreteVarifold) -> FaceGrid:
        cen, spreads = np.empty((v.num_faces, 3)), np.empty(v.num_faces)
        blocks = _blocks(v.num_faces)
        for b in blocks:
            abc = np.take(v.vertices, v.faces[b].T, axis=0)  # (3, B, 3): each face's corners a, b, c
            np.divide(abc.sum(axis=0), 3.0, out=cen[b])
            abc -= cen[b]
            spreads[b] = np.sqrt(_sq(abc).max(axis=0))
        if not len(cen):
            return cls(np.zeros(3), 1.0, np.zeros(3, dtype=np.int32), np.zeros((0, 3), dtype=np.int32),
                       np.zeros(1, dtype=np.int32), np.zeros(0, dtype=np.int32), 0.0, cen, spreads, np.zeros((0, 3)),
                       np.zeros(0))
        origin = np.array([col.min() for col in cen.T])  # one column at a time: faster than axis 0
        top = np.array([col.max() for col in cen.T])
        extent = float((top - origin).max())
        # positive: a face of a built varifold has positive area, so a positive spread
        pitch = max(_PITCH_SPREADS * float(spreads.mean()), extent / (_MAX_CELLS - 1))
        n = np.floor((top - origin) / pitch).astype(np.int64) + 1  # floor is monotone: the top cell
        keys = np.empty(v.num_faces, dtype=np.int64)
        for b in blocks:
            ijk = cen[b] - origin
            ijk /= pitch
            ijk = np.floor(ijk, out=ijk).astype(np.int64)
            keys[b] = (ijk[:, 0] * n[1] + ijk[:, 1]) * n[2] + ijk[:, 2]
        order = np.argsort(keys)  # the faces of a cell in no particular order: queries sort what they keep
        keys = keys[order]
        start = _indices(np.concatenate(([True], keys[1:] != keys[:-1], [True])))
        keys = keys[start[:-1]]
        cells = np.stack([keys // (n[1] * n[2]), keys // n[2] % n[1], keys % n[2]], axis=1)
        # a face's centroid lies in its cell's cube, and its points within its spread of the centroid
        radii = pitch * (0.5 * math.sqrt(3.0)) + np.maximum.reduceat(spreads.take(order), start[:-1])
        return cls(origin, pitch, n.astype(np.int32), cells.astype(np.int32), start, order.astype(np.int32),
                   float(spreads.max()), cen, spreads, origin + pitch * (cells + 0.5), radii)

    def query(self, x0, r: float, inner: float = 0.0) -> np.ndarray:
        """Ascending indices of a superset of the faces that can meet the shell
        ``inner <= |x - x0| <= r`` (the ball B(x0, r) for ``inner = 0``).

        The cells that meet the box of half-width ``r + spread`` around x0
        are found in the sorted slab of their first index, and of all their
        faces a face is kept when its bounding sphere meets the shell. Box
        and shell are widened by the same absolute tolerance (``_tolerance``),
        far above the round-off of these tests. A face whose bounding sphere
        meets the widened shell has its centroid within ``r + spread`` plus
        that tolerance of x0, so in a cell of the widened box: the faces kept
        are exactly those of a test of every face. A box that covers every
        cell, or is not finite (NaN or infinite x0 or r), gives every face,
        untested.
        """
        x0 = np.asarray(x0, dtype=np.float64)
        tol = self._tolerance(x0, r)
        c = self._slab(x0, r + self.spread + tol)
        if c is None:
            return np.arange(len(self.order))
        return self._near(c, x0, r, inner, tol)

    def _near(self, c: np.ndarray, x0: np.ndarray, r: float, inner: float, tol: float) -> np.ndarray:
        """Ascending indices of the faces of the cell rows ``c`` whose bounding sphere meets the
        shell ``inner <= |x - x0| <= r`` widened by ``tol``."""
        idx = self.faces(c)
        d = np.sqrt(_sq(np.take(self.centroids, idx, axis=0), x0))
        s = np.take(self.spreads, idx)
        return np.sort(idx[(d <= r + s + tol) & (d + s >= inner - tol)]).astype(np.intp)

    def ball(self, x0: np.ndarray, rs: np.ndarray) -> tuple[np.ndarray, tuple, tuple]:
        """The faces to clip one by one, and the faces and cells to take whole,
        for the balls B(x0, r), r in ``rs`` (ascending, positive and finite; x0
        finite).

        Returns (clip, (faces, shells), (cells, shells)). Each cell lies in its
        ball (``cell_centers``, ``cell_radii``) and each face in its bounding
        sphere, so in a shell about x0. Widened by ``_tolerance``, a shell that
        no sphere |x - x0| = r meets lies inside the balls from ``rs[shell]``
        on and outside the smaller ones, beyond the round-off of the kernel's
        own tests of each face. Such a cell or face is whole, with that
        ``shell``, or left out when no ball holds it. The cells are tested
        first, then the faces of the cells a sphere may cut. Only when the
        whole cells hold at least 1/``_WHOLE_SHARE`` of the faces are faces and
        cells taken whole; otherwise ``clip`` holds every face of the box's
        cells whose bounding sphere meets the largest ball, as ``query`` keeps
        them. ``clip`` is ascending. Only the cells of ``query``'s box for the
        largest ball are read.
        """
        r = float(rs[-1]) if len(rs) else 0.0
        tol = self._tolerance(x0, r)
        c = self._slab(x0, r + self.spread + tol)
        if c is None:
            c = np.arange(len(self.cells))
        half = self.cell_radii.take(c) + tol
        cells = shell = none = np.zeros(0, dtype=np.intp)
        if not self._few(c.take(np.flatnonzero(half < r))):  # only these can lie whole in a ball
            cut, shell = _shells(rs, np.sqrt(_sq(self.cell_centers.take(c, axis=0), x0)), half)
            whole = np.flatnonzero(shell >= 0)
            cells, shell = c.take(whole), shell.take(whole)
        if self._few(cells):  # then clipping each face costs less than building the sums
            return self._near(c, x0, r, 0.0, tol), (none, none), (none, none)
        idx = self.faces(c.take(cut))
        cut, face_shell = _shells(rs, np.sqrt(_sq(self.centroids.take(idx, axis=0), x0)), self.spreads.take(idx) + tol)
        whole = np.flatnonzero(face_shell >= 0)
        return np.sort(idx.take(cut)), (idx.take(whole), face_shell.take(whole)), (cells, shell)

    def _few(self, c: np.ndarray) -> bool:
        """Whether the cell rows ``c`` hold fewer than 1/``_WHOLE_SHARE`` of the faces."""
        return _WHOLE_SHARE * int((self.start[c + 1] - self.start[c]).sum()) < len(self.order)

    def faces(self, c: np.ndarray) -> np.ndarray:
        """The faces of the cell rows ``c``, cell by cell."""
        first, count = self.start[c], self.start[c + 1] - self.start[c]
        return self.order[np.repeat(first - (np.cumsum(count) - count), count) + np.arange(count.sum())]

    def _tolerance(self, x0: np.ndarray, r: float) -> float:
        """The absolute widening of every test near the ball B(x0, r):
        1e-9 × (r + spread + |x0|∞ + |origin|∞)."""
        return 1e-9 * (r + self.spread + np.abs(x0).max() + np.abs(self.origin).max())

    def _slab(self, x0: np.ndarray, reach: float) -> np.ndarray | None:
        """The rows of the occupied cells that meet the box of half-width ``reach`` about x0,
        read from the slab of their first index; None if the box covers every cell or is not
        finite."""
        lo = np.floor((x0 - reach - self.origin) / self.pitch)
        hi = np.floor((x0 + reach - self.origin) / self.pitch)
        covers = (lo <= 0).all() and (hi >= self.shape - 1).all()
        if covers or not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            return None
        lo, hi = (np.clip(b, -1, _MAX_CELLS).astype(np.int32) for b in (lo, hi))
        first, last = np.searchsorted(self.cells[:, 0], (lo[0], hi[0] + 1))
        run = self.cells[first:last]
        return first + np.flatnonzero(((run >= lo) & (run <= hi)).all(axis=1))


def _shells(rs: np.ndarray, d: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For the shells d ± half (half > 0) about a center and the ascending radii ``rs``: the
    rows of the shells that some radius cuts, |d - r| < half, and per row the index of the
    first radius beyond its shell, or -1 where a radius cuts it or none lies beyond. One pass
    per radius: ``np.searchsorted`` is several times slower on the few radii of a ladder."""
    cut = np.zeros(len(d), dtype=bool)
    shell = np.zeros(len(d), dtype=np.intp)
    for r in rs.tolist():
        shell += d > r
        cut |= np.abs(d - r) < half
    shell[cut | (shell == len(rs))] = -1
    return np.flatnonzero(cut), shell


@dataclass(frozen=True)
class GridMasses:
    """Each face's whole mass m_f·A_f, with A_f the area of ``mesh.face_normals``, in
    ``face``, and their exact sums over each occupied cell of the face grid: ``bins`` holds
    ``_kernels._bins``' hi and lo of them grouped by cell row, side by side, so cell c's mass
    is Σ_b (bins[c, b]·2**26 + bins[c, width + b])·2**(b + e0 − 53). Every bin is a
    non-negative integer, and a sum of bins over any cells is exact in any order.
    ``DiscreteVarifold.grid_masses`` keeps one per mesh.
    """

    face: np.ndarray
    bins: np.ndarray
    e0: int

    @classmethod
    def build(cls, v: DiscreteVarifold) -> GridMasses | None:
        """The masses of ``v``'s faces and ``v.face_grid``'s cells, or None when ``_bins`` gives
        none (more than ``_kernels._EXACT_TERMS`` faces)."""
        grid = v.face_grid
        face = v.multiplicity.astype(np.float64) * v.face_geometry[1]  # the terms total_mass sums
        cell = np.repeat(np.arange(len(grid.cells), dtype=np.int32), np.diff(grid.start))
        bins = _bins(face.take(grid.order), cell, len(grid.cells))
        return None if bins is None else cls(face, np.concatenate(bins[:2], axis=1), bins[2])

    def held(self, faces: tuple, cells: tuple, rs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The masses of the whole ``faces`` and ``cells`` (each rows and shells), as
        ``_kernels.ball_masses``' ``held``: exact terms, each with the radius ``rs[shell]`` of
        the smallest ball that holds it. The cells' bins are summed by shell first, as one
        product of a 0/1 matrix with ``bins``: exact, since every partial sum is an integer
        below 2**53, so the order BLAS adds in keeps the bits."""
        pick = np.zeros((len(rs), len(cells[0])))
        pick[cells[1], np.arange(len(cells[0]))] = 1.0
        width = self.bins.shape[1] // 2
        sums = pick @ self.bins.take(cells[0], axis=0)
        terms, k = _bin_terms(sums[:, :width], sums[:, width:], self.e0)
        return np.concatenate((self.face.take(faces[0]), terms)), rs.take(np.concatenate((faces[1], k)))
