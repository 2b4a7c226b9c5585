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
corner array of the whole mesh is formed. Only the sort of the keys and the
search for the cell runs read whole arrays.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._kernels import _blocks, _indices, _sq

if TYPE_CHECKING:
    from .mesh import DiscreteVarifold

#: Cell pitch of a face grid, in units of the mean face spread.
_PITCH_SPREADS = 4.0
#: Most cells a face grid has along one axis, so cell keys fit in int64.
_MAX_CELLS = 1 << 20


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
    ``centroids[f]``. ``spread`` is the largest spread of all.

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
                       np.zeros(1, dtype=np.int32), np.zeros(0, dtype=np.int32), 0.0, cen, spreads)
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
        return cls(origin, pitch, n.astype(np.int32), cells.astype(np.int32), start, order.astype(np.int32),
                   float(spreads.max()), cen, spreads)

    def query(self, x0, r: float, inner: float = 0.0) -> np.ndarray:
        """Ascending indices of a superset of the faces that can meet the shell
        ``inner <= |x - x0| <= r`` (the ball B(x0, r) for ``inner = 0``).

        The cells that meet the box of half-width ``r + spread`` around x0
        are found in the sorted slab of their first index, and of all their
        faces a face is kept when its bounding sphere meets the shell. Box
        and shell are widened by the same absolute tolerance,
        1e-9 × (r + spread + |x0|∞ + |origin|∞), far above the round-off of
        these tests. A face whose bounding sphere meets the widened shell has
        its centroid within ``r + spread`` plus that tolerance of x0, so in a
        cell of the widened box: the faces kept are exactly those of a test
        of every face. A box that covers every cell, or is not finite (NaN or
        infinite x0 or r), gives every face, untested.
        """
        x0 = np.asarray(x0, dtype=np.float64)
        reach = r + self.spread
        tol = 1e-9 * (reach + np.abs(x0).max() + np.abs(self.origin).max())
        reach += tol
        lo = np.floor((x0 - reach - self.origin) / self.pitch)
        hi = np.floor((x0 + reach - self.origin) / self.pitch)
        covers = (lo <= 0).all() and (hi >= self.shape - 1).all()
        if covers or not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            return np.arange(len(self.order))
        lo, hi = (np.clip(b, -1, _MAX_CELLS).astype(np.int32) for b in (lo, hi))
        first, last = np.searchsorted(self.cells[:, 0], (lo[0], hi[0] + 1))
        run = self.cells[first:last]
        c = first + np.flatnonzero(((run >= lo) & (run <= hi)).all(axis=1))
        first, count = self.start[c], self.start[c + 1] - self.start[c]
        idx = self.order[np.repeat(first - (np.cumsum(count) - count), count) + np.arange(count.sum())]
        d = np.sqrt(_sq(np.take(self.centroids, idx, axis=0), x0))
        s = np.take(self.spreads, idx)
        return np.sort(idx[(d <= r + s + tol) & (d + s >= inner - tol)]).astype(np.intp)
