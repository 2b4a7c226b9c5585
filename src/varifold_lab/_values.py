"""Checks of the values the readers take: arrays and JSON values are never coerced.

The mesh, net and boundary readers share these, each passing its own error
type, so a net or boundary command need not load the mesh module. NumPy is
imported only inside the two array helpers, so the scalar checks do not load it.
"""
from __future__ import annotations

import itertools
import numbers


class MeshError(ValueError):
    """Raised for structurally invalid meshes (bad indices, degenerate faces, ...)
    and at singular basepoints of a boundary integrand."""

    __module__ = "varifold_lab.mesh"  # its public home, which re-exports it


def _frozen(a):
    """Read-only C-contiguous ``a`` of the same shape; a view is copied, so its base cannot change it."""
    import numpy as np

    a = np.asarray(a, order="C")
    if not a.flags.owndata:
        a = a.copy()
    a.setflags(write=False)
    return a


def _numeric(x, kinds: str, where: str, error: type[ValueError]):
    """``x`` as an array of dtype kind in ``kinds`` ("iu": integers within int64, or "iuf"), never
    coerced, else ``error`` naming ``where``: the mesh constructor's check of its large arrays. A
    sequence is also scanned for booleans and for integers beyond int64, which NumPy reads as 1
    and 0, or as uint64, float64 or objects."""
    import numpy as np

    a = np.asarray(x)
    want = "integers" if kinds == "iu" else "numbers"
    rows = x if a.ndim == 1 else itertools.chain.from_iterable(x) if a.ndim == 2 else ()
    types = set() if isinstance(x, np.ndarray) else set(map(type, rows))
    if {bool, np.bool_} & types:
        raise error(f"{where} must hold {want}, not booleans")
    if kinds == "iu" and a.size and (types == {int} and a.dtype.kind != "i"
                                     or a.dtype == np.uint64 and a.max() >= 2**63):
        raise error(f"{where} holds integers beyond int64")
    if a.size and a.dtype.kind not in kinds:
        raise error(f"{where} must hold {want}, not {a.dtype}")
    return a


def _is_int(x) -> bool:
    """A Python or NumPy integer; booleans are not integers here."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """A Python or NumPy integer or float; booleans are not numbers here."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


#: Tests of a JSON value for ``_check_rows``, each with what it asks for.
_NUMBER = (_is_number, "a number")
_INTEGER = (_is_int, "an integer")
_POINT = (lambda x: isinstance(x, list) and len(x) == 3 and all(map(_is_number, x)), "3 numbers")
_DIRECTION = (lambda x: _POINT[0](x) and any(x), "3 numbers, not all zero")


def _check_rows(rows, spec: dict, where: str, error: type[ValueError]) -> None:
    """``error`` naming the entry and key unless ``rows`` is a list of objects whose keys pass
    ``spec``'s tests (key -> (test, what it asks for)); only a key ending in "?" may be missing."""
    if not (isinstance(rows, list) and all(isinstance(r, dict) for r in rows)):
        raise error(f"{where} must be a list of objects")
    for k, row in enumerate(rows):
        for name, (ok, what) in spec.items():
            key = name.rstrip("?")
            if key == name and key not in row:
                raise error(f"{where} entry {k} is missing {key!r}")
            if key in row and not ok(row[key]):
                raise error(f"{where} entry {k}: {key!r} must be {what}, not {row[key]!r}")
