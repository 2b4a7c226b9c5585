"""Count the values that moved between two source trees, and by how many ulps.

Given two directories that each hold the ``varifold_lab`` package (the ``src``
directories of two checkouts, say of a parent and of a change), this runs one
fixed corpus in each, in a Python subprocess per tree with that directory first
on ``sys.path``, and compares the values quantity by quantity::

    python tools/ulps.py PARENT_SRC CHANGE_SRC

The corpus: the sphere (R = 1), the double bubble (θ₂ = 0.7, ρ = 1) and the
triple bubble, each at levels 2, 3 and 4. On each mesh:

- ``ball_mass``: ``ball_mass_ladder`` at the generator's density points and at
  four seeded vertices, for the radii 0.05, 0.2, 0.5, 1, 2 and 10;
- ``edge_scale``: ``local_edge_scale`` at the same points;
- ``density.*``: ``density`` at the density points (theta, ratios, error bar);
- ``monotonicity.*``: ``monotonicity_check`` at ten seeded vertices and radii
  r < s up to 0.8 times the bounding-box diagonal (lhs, rhs, Willmore term,
  slack);
- ``li_yau.*``: ``li_yau_check`` at the density points (thetas, theta_max,
  W/4π, gap).

For each quantity it prints how many of its values moved and the largest move
in ulps, two ways: of each value (the ulp of the larger of its two
magnitudes) and of the quantity's scale (the ulp of the largest magnitude among
its values in both trees), which reads a move of a value near zero, such as a
slack, on the scale of the others. The last line is "K moved", K counting the
moved values of every quantity. It exits 0 when no value moved, 1 when some
did, and 2 on a usage error, when a tree's corpus fails, or when the two
corpora differ in their quantities or counts.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys

LEVELS = (2, 3, 4)
RADII = (0.05, 0.2, 0.5, 1.0, 2.0, 10.0)


def corpus() -> dict[str, list[float]]:
    """Every value of the corpus, by quantity, from the ``varifold_lab`` that imports first."""
    import numpy as np

    import varifold_lab as vl

    makes = {"sphere": lambda level: vl.gen_sphere(1.0, level),
             "double-bubble": lambda level: vl.gen_double_bubble(0.7, 1.0, level),
             "triple-bubble": vl.gen_triple_bubble}
    out: dict[str, list[float]] = {}

    def put(name: str, values) -> None:
        out.setdefault(name, []).extend(float(x) for x in np.atleast_1d(values))

    for name, make in makes.items():
        for level in LEVELS:
            gen = make(level)
            v = gen.varifold
            rng = np.random.default_rng(level)
            marked = [np.array(p["point"], dtype=float) for p in gen.analytic["density_points"]]
            points = marked + [v.vertices[i] for i in rng.integers(0, v.num_vertices, size=4)]
            for p in points:
                put("ball_mass", vl.ball_mass_ladder(v, p, np.array(RADII)))
                put("edge_scale", vl.blowup.local_edge_scale(v, p))
            for p in marked:
                rep = vl.density(v, p)
                put("density.theta", rep.theta)
                put("density.ratios", rep.ratios)
                put("density.error_bar", rep.error_bar)
            diam = float(np.linalg.norm(v.vertices.max(axis=0) - v.vertices.min(axis=0)))
            for _ in range(10):
                vi = int(rng.integers(0, v.num_vertices))
                s = float(rng.uniform(0.1, 1.0)) * 0.8 * diam
                rep = vl.monotonicity_check(v, v.vertices[vi], float(rng.uniform(0.05, 0.95)) * s, s)
                for field in ("lhs", "rhs", "willmore_term", "slack"):
                    put(f"monotonicity.{field}", getattr(rep, field))
            rep = vl.li_yau_check(v, marked)
            for field in ("thetas", "theta_max", "willmore_over_4pi", "gap"):
                put(f"li_yau.{field}", getattr(rep, field))
    return out


def run_corpus(src: str) -> dict[str, list[float]]:
    """The corpus of the package under ``src``, computed in a subprocess."""
    proc = subprocess.run([sys.executable, __file__, "--corpus", src], capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"the corpus failed under {src!r}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def ulps(a: float, b: float, scale: float) -> float:
    """|a - b| in ulps of ``scale``; 0 for equal values, inf when one of them is not finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / math.ulp(scale) if math.isfinite(a) and math.isfinite(b) else math.inf


def table(before: dict[str, list[float]], after: dict[str, list[float]]) -> list[tuple]:
    """Per quantity: (name, values, moved, largest move in ulps of each value, in ulps of the scale)."""
    rows = []
    for name in sorted(before):
        pairs = list(zip(before[name], after[name]))
        scale = max((abs(x) for pair in pairs for x in pair if math.isfinite(x)), default=0.0)
        own = [ulps(a, b, max(abs(a), abs(b))) for a, b in pairs]
        wide = [ulps(a, b, scale) for a, b in pairs]
        rows.append((name, len(pairs), sum(u > 0.0 for u in own), max(own, default=0.0), max(wide, default=0.0)))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--corpus":
        sys.path.insert(0, argv[1])
        print(json.dumps(corpus()))
        return 0
    if len(argv) != 2:
        print("usage: python tools/ulps.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    try:
        before, after = map(run_corpus, argv)
    except RuntimeError as exc:
        print(f"ulps: {exc}", file=sys.stderr)
        return 2
    if {k: len(x) for k, x in before.items()} != {k: len(x) for k, x in after.items()}:
        print("ulps: the two corpora differ in their quantities or counts", file=sys.stderr)
        return 2
    rows = table(before, after)
    print(f"{'quantity':<28}{'values':>8}{'moved':>8}{'ulps':>10}{'of scale':>12}")
    for name, n, k, own, wide in rows:
        print(f"{name:<28}{n:>8}{k:>8}{own:>10.3g}{wide:>12.3g}")
    total = sum(row[2] for row in rows)
    print(f"{total} moved")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
