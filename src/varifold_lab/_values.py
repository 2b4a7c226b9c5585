"""The plain-Python value vocabulary: one number rule, fixed-order 3-vector helpers, and checks
of the values the readers take, which never coerce an array or a JSON value.

The mesh, net and boundary readers and the CLI share these, each passing its own error type.
``_is_int`` is a Python or NumPy integer within int64, and ``_is_number`` such an integer or a
Python or NumPy float, never a bool or a ``Fraction``. ``_dot`` sums (a₀b₀ + a₁b₁) + a₂b₂, and
``_unit`` divides by its square root. NumPy is imported only inside the two array helpers.
Each point, length and tolerance argument of the API has one reader, which returns floats or
raises a ValueError naming the parameter: ``_point`` (n finite numbers, 3 by default), ``_length`` (a
positive finite number) and ``_nonnegative`` (a non-negative finite number).
"""
from __future__ import annotations

import itertools
import math
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
    and 0, or as uint64, float64 (also among floats) or objects."""
    import numpy as np

    try:
        a = np.asarray(x)
    except ValueError:  # NumPy's "inhomogeneous shape"
        raise error(f"{where} must be a rectangular array, not ragged rows") from None
    want = "integers" if kinds == "iu" else "numbers"

    def values():
        return x if a.ndim == 1 else itertools.chain.from_iterable(x) if a.ndim == 2 else ()

    types = set() if isinstance(x, np.ndarray) else set(map(type, values()))
    if {bool, np.bool_} & types:
        raise error(f"{where} must hold {want}, not booleans")
    # NumPy reads integers as a signed dtype only when they all fit int64
    ints = {t for t in types if issubclass(t, numbers.Integral)}
    if (ints and a.dtype.kind != "i" and not all(_is_int(v) for v in values() if type(v) in ints)
            or a.dtype == np.uint64 and a.size and a.max() >= 2**63):
        raise error(f"{where} holds integers beyond int64")
    if a.size and a.dtype.kind not in kinds:
        raise error(f"{where} must hold {want}, not {a.dtype}")
    return a


def _is_int(x) -> bool:
    """A Python or NumPy integer within int64; booleans are not integers here."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) and -2**63 <= x < 2**63


def _is_number(x) -> bool:
    """An ``_is_int`` integer, or a Python or NumPy float; booleans are not numbers here."""
    if isinstance(x, numbers.Integral):
        return _is_int(x)
    return isinstance(x, float) or isinstance(x, numbers.Real) and hasattr(x, "dtype")


def _quote(value, limit: int = 60) -> str:
    """``repr(value)`` for an error message, cut to ``limit`` characters."""
    text = repr(value)
    return text if len(text) <= limit else text[:limit - 3] + "..."


def _point(x, where: str, n: int = 3) -> tuple[float, ...]:
    """``x``, n numbers in a list, a tuple or an array (read through ``tolist()``), as n finite floats."""
    x = x.tolist() if hasattr(x, "tolist") else x
    if not (isinstance(x, (list, tuple)) and len(x) == n and all(map(_is_number, x))):
        raise ValueError(f"{where} must be {n} numbers, not {_quote(x)}")
    v = tuple(map(float, x))
    if not all(map(math.isfinite, v)):
        raise ValueError(f"{where} must be finite, not {list(v)}")
    return v


def _length(x, where: str) -> float:
    """``x``, a positive finite number (a radius, a scale or a length), as a float."""
    if not _is_number(x):
        raise ValueError(f"{where} must be a number, not {_quote(x)}")
    if not 0.0 < x < math.inf:
        raise ValueError(f"{where} must be positive and finite, not {float(x)}")
    return float(x)


def _nonnegative(x, where: str, error: type[ValueError] = ValueError) -> float:
    """``x``, a non-negative finite number (a tolerance, an estimate of P, an amplitude), as a float."""
    if not (_is_number(x) and 0.0 <= x < math.inf):
        raise error(f"{where} must be finite and >= 0, not {_quote(x)}")
    return float(x)


def _dot(a, b) -> float:
    return (a[0] * b[0] + a[1] * b[1]) + a[2] * b[2]


def _cross(a, b) -> tuple[float, float, float]:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _unit(a) -> tuple[float, float, float]:
    """``a`` divided by sqrt(``_dot(a, a)``); ValueError if that is 0."""
    n = math.sqrt(_dot(a, a))
    if n == 0.0:
        raise ValueError("zero vector cannot be normalized")
    return (a[0] / n, a[1] / n, a[2] / n)


#: Tests of a JSON value for ``_check_value``, each with what it asks for. A tuple of tests
#: runs them in order, so a range follows the type it reads.
_NUMBER = (_is_number, "a number")
_INTEGER = (_is_int, "an integer")
_POINT = (lambda x: isinstance(x, list) and len(x) == 3 and all(map(_is_number, x)), "3 numbers")
_DIRECTION = (lambda x: _POINT[0](x) and any(x), "3 numbers, not all zero")
_FINITE = (_NUMBER, (math.isfinite, "finite"))
_POSITIVE = (_NUMBER, (lambda x: 0 < x < math.inf, "positive and finite"))
_FINITE_POINT = (_POINT, (lambda x: all(map(math.isfinite, x)), "finite"))


def _check_value(value, spec, where: str, error: type[ValueError]) -> None:
    """``error`` saying that ``where`` must be what the first failing test of ``spec`` asks for."""
    for ok, what in spec if isinstance(spec[0], tuple) else (spec,):
        if not ok(value):
            raise error(f"{where} must be {what}, not {_quote(value)}")


def _check_rows(rows, spec: dict, where: str, error: type[ValueError]) -> None:
    """``error`` naming the entry and key unless ``rows`` is a list of objects whose keys pass
    ``spec``'s tests (key -> ``_check_value`` tests); only a key ending in "?" may be missing."""
    if not (isinstance(rows, list) and all(isinstance(r, dict) for r in rows)):
        raise error(f"{where} must be a list of objects")
    for k, row in enumerate(rows):
        for name, tests in spec.items():
            key = name.rstrip("?")
            if key == name and key not in row:
                raise error(f"{where} entry {k} is missing {key!r}")
            if key in row:
                _check_value(row[key], tests, f"{where} entry {k}: {key!r}", error)
