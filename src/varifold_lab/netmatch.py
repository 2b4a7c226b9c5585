"""The ten-net catalogue's closed-form lengths, and matching a link against them.

Matching compares one length with nine numbers, so this module needs
``math``, the tolerance profiles and ``_values`` only: ``net match`` never loads NumPy,
and ``analyze --link`` never runs the net code. ``nets.catalogue()`` builds its entries from ``CATALOGUE``,
so the catalogue and the matching read the same floats.
"""
from __future__ import annotations

import math

from ._values import _is_number, _nonnegative, _quote
from .reports import TOLERANCE_PROFILES


class NetError(ValueError):
    """Raised for structurally invalid nets or ambiguous geodesics."""


def _table() -> tuple[tuple[str, str, float | None], ...]:
    acos, asin, sqrt, pi = math.acos, math.asin, math.sqrt, math.pi
    return (
        ("great circle", "2*pi", 2 * pi),
        ("three half circles", "3*pi", 3 * pi),
        ("tetrahedron", "6*acos(-1/3)", 6 * acos(-1.0 / 3.0)),
        ("cube", "12*acos(1/3)", 12 * acos(1.0 / 3.0)),
        ("pentagon prism", "10*acos(sqrt(5)/3) + 5*acos((3 - 5*sqrt(5)/3)/(5 - sqrt(5)))",
         10 * acos(sqrt(5) / 3) + 5 * acos((3 - 5 * sqrt(5) / 3) / (5 - sqrt(5)))),
        ("triangle prism", "6*acos(-1/3) + 3*acos(7/9)", 6 * acos(-1.0 / 3.0) + 3 * acos(7.0 / 9.0)),
        ("dodecahedron", "30*acos(1 - 8/(3*(1 + sqrt(5))**2))", 30 * acos(1 - 8 / (3 * (1 + sqrt(5)) ** 2))),
        ("two squares and eight pentagons",
         "8*2*asin(1/sqrt(3)) + 8*2*asin(sqrt(2 - sqrt(2))/sqrt(3))"
         " + 8*2*asin(sqrt((2**(1/4) - 1)**2/6 + (2 - sqrt(2))**2/12))",
         16 * asin(1 / sqrt(3)) + 16 * asin(sqrt(2 - sqrt(2)) / sqrt(3))
         + 16 * asin(sqrt((2 ** 0.25 - 1) ** 2 / 6 + (2 - sqrt(2)) ** 2 / 12))),
        ("four pentagons and four quadrilaterals", "(6*83.80167087 + 8*58.25684287 + 4*13.55944752)*2*pi/360",
         (6 * 83.80167087 + 8 * 58.25684287 + 4 * 13.55944752) * pi / 180.0),
        ("three squares and six pentagons",
         "12*2*asin(1/sqrt(3)) + 6*2*asin(sqrt(3 - sqrt(6)/6)) + 3*2*asin((sqrt(3) - sqrt(2))/(2*sqrt(3)))",
         None),
    )


#: (name, printed closed form, length) of the ten catalogue nets, in catalogue
#: order. The tenth printed formula cannot be evaluated, so its length is None.
CATALOGUE = _table()


def match_link(link, tol: float = TOLERANCE_PROFILES["default"]["link_match_abs"]) -> dict:
    """Classify a spherical link (or a bare length) against the catalogue.

    Nearest catalogue length wins, the first of equals; a residual above
    ``tol`` (by default the default profile's 5% of 2*pi) is reported as
    composite/unknown (sums of catalogue lengths are not decomposed).
    """
    tol = _nonnegative(tol, "tol", NetError)
    length = getattr(link, "total_length", link)
    if not (_is_number(length) and math.isfinite(length)):
        raise NetError(f"cannot match a link of length {_quote(length)}")
    length = float(length)
    if length <= 0:
        raise NetError("cannot match an empty link")
    name, _, matched = min((e for e in CATALOGUE if e[2] is not None), key=lambda e: abs(length - e[2]))
    residual = abs(length - matched)
    result = {
        "length": length,
        "density": length / (2.0 * math.pi),
        "match": name,
        "matched_length": matched,
        "residual": residual,
    }
    if residual > tol:
        result["match"] = "composite/unknown"
        result["matched_length"] = None
    return result
