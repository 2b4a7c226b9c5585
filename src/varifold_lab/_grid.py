"""A uniform grid over the faces of a varifold, for queries near a ball.

Local queries (density ladders, spherical links, distances to the support)
need only the faces near a small ball, yet a mesh has up to ~10^5 faces. The
grid finds a superset of those faces with a few array operations, so the
exact computations run on the superset instead of on every face: first the
faces whose centroid lies in a cell near the ball, then, of those, the faces
whose own bounding sphere (centroid and spread) meets the ball or, for a
spherical link, the shell around the sphere. It is built once per mesh, as
``DiscreteVarifold.face_grid``; this module is imported only when a grid is
first needed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._kernels import _sq
from ._values import _frozen

if TYPE_CHECKING:
    from .mesh import DiscreteVarifold

#: Cell pitch of a face grid, in units of the mean face spread.
_PITCH_SPREADS = 4.0
#: Most cells a face grid has along one axis, so cell keys fit in int64.
_MAX_CELLS = 1 << 20


@dataclass(frozen=True)
class FaceGrid:
    """Uniform grid of cubic cells over the face centroids, for local queries.

    Each face sits in the cell of its centroid. ``cells`` holds the integer
    coordinates of the occupied cells, ``face_cell[f]`` the row of face f's
    cell in ``cells``, and ``spread`` the largest distance from a face's
    centroid to its corners, so every face lies within ``spread`` of its
    centroid. Cell (i, j, k) is the cube ``origin + pitch * [i, i+1) x ...``,
    and ``shape`` is the number of cells along each axis. ``centroids[f]``
    and ``spreads[f]`` are face f's centroid, ``(a + b + c) / 3``, and the
    largest distance from it to f's corners: f lies in the ball of radius
    ``spreads[f]`` about ``centroids[f]``.
    """

    origin: np.ndarray
    pitch: float
    shape: np.ndarray
    cells: np.ndarray
    face_cell: np.ndarray
    spread: float
    centroids: np.ndarray
    spreads: np.ndarray

    @classmethod
    def build(cls, v: DiscreteVarifold) -> FaceGrid:
        abc = np.take(v.vertices, v.faces.T, axis=0)  # (3, F, 3): each face's corners a, b, c
        cen = abc.sum(axis=0) / 3.0
        abc -= cen  # in place: a temporary of shape (3, F, 3) would raise the peak memory by half
        spreads = np.sqrt(_sq(abc).max(axis=0))
        if not len(cen):
            return cls(_frozen(np.zeros(3)), 1.0, _frozen(np.zeros(3, dtype=np.int32)),
                       _frozen(np.zeros((0, 3), dtype=np.int32)), _frozen(np.zeros(0, dtype=np.int32)), 0.0,
                       _frozen(cen), _frozen(spreads))
        origin = np.array([col.min() for col in cen.T])  # one column at a time: faster than axis 0
        top = np.array([col.max() for col in cen.T])
        extent = float((top - origin).max())
        pitch = max(_PITCH_SPREADS * float(spreads.mean()), extent / (_MAX_CELLS - 1))
        if not pitch > 0.0:  # one face, or every centroid in one point
            pitch = 1.0
        ijk = np.floor((cen - origin) / pitch).astype(np.int64)
        n = np.floor((top - origin) / pitch).astype(np.int64) + 1  # floor is monotone: the top cell
        keys, face_cell = np.unique((ijk[:, 0] * n[1] + ijk[:, 1]) * n[2] + ijk[:, 2], return_inverse=True)
        cells = np.stack([keys // (n[1] * n[2]), keys // n[2] % n[1], keys % n[2]], axis=1)
        return cls(_frozen(origin), pitch, _frozen(n.astype(np.int32)), _frozen(cells.astype(np.int32)),
                   _frozen(face_cell.astype(np.int32)), float(spreads.max()), _frozen(cen), _frozen(spreads))

    def query(self, x0, r: float, inner: float = 0.0) -> np.ndarray:
        """Ascending indices of a superset of the faces that can meet the shell
        ``inner <= |x - x0| <= r`` (the ball B(x0, r) for ``inner = 0``).

        The cells that meet the box of half-width ``r + spread`` around x0
        give the candidates; of those, a face is kept when its bounding
        sphere meets the shell. Box and shell are widened by the same
        absolute tolerance, 1e-9 × (r + spread + |x0|∞ + |origin|∞), so that
        round-off never drops a face. A box that covers every cell, or is not
        finite (NaN or infinite x0 or r), gives every face, untested.
        """
        x0 = np.asarray(x0, dtype=np.float64)
        reach = r + self.spread
        tol = 1e-9 * (reach + np.abs(x0).max() + np.abs(self.origin).max())
        reach += tol
        lo = np.floor((x0 - reach - self.origin) / self.pitch)
        hi = np.floor((x0 + reach - self.origin) / self.pitch)
        covers = (lo <= 0).all() and (hi >= self.shape - 1).all()
        if covers or not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            return np.arange(len(self.face_cell))
        lo, hi = (np.clip(b, -1, _MAX_CELLS).astype(np.int32) for b in (lo, hi))
        ok = ((self.cells >= lo) & (self.cells <= hi)).all(axis=1)
        idx = np.flatnonzero(np.take(ok, self.face_cell))
        d = np.sqrt(_sq(np.take(self.centroids, idx, axis=0) - x0))
        s = np.take(self.spreads, idx)
        return idx[(d <= r + s + tol) & (d + s >= inner - tol)]
