"""Deterministic report plumbing: canonical JSON, input digests, tolerances.

Every JSON file the package writes -- reports, meshes, nets, boundary data --
goes through one encoder: sorted keys, compact separators, a trailing newline,
no timestamps, so identical inputs produce byte-identical files.  Report
values pass through ``sanitize`` first, which encodes non-finite floats as the
strings "nan"/"inf"/"-inf" (strict JSON has no representation for them).
Every JSON file it reads goes through ``load_json``, which names the file.
"""

from __future__ import annotations

import json
import math
import sys

TOOL_NAME = "varifold-lab"
TOOL_VERSION = "0.1.0"

#: Named tolerance sets; "default" is the one the acceptance checks use. Each is an
#: energy and a density tolerance: the link's length is 2π times the density of its
#: cone, and Li–Yau's gap is a density, so their tolerances are the density's.
TOLERANCE_PROFILES: dict[str, dict[str, float]] = {
    name: {"energy_rel": energy_rel, "density_abs": density_abs,
           "link_match_abs": density_abs * 2.0 * math.pi, "liyau_gap": density_abs}
    for name, (energy_rel, density_abs) in {"strict": (0.01, 0.02), "default": (0.02, 0.05),
                                            "coarse": (0.05, 0.10)}.items()
}


#: Field metadata that leaves a field out of ``Record.to_dict``.
NOT_RECORDED = {"recorded": False}


class Record:
    """Base of the result dataclasses: ``to_dict`` is ``sanitize`` over the
    dataclass fields in declaration order, except fields whose metadata is
    ``NOT_RECORDED``."""

    def to_dict(self) -> dict:
        import dataclasses  # here, so that report and net match load neither it nor hashlib
        return {f.name: sanitize(getattr(self, f.name)) for f in dataclasses.fields(self)
                if f.metadata.get("recorded", True)}


def sanitize(obj):
    """Recursively convert to JSON-encodable values with explicit non-finites.

    NumPy values are converted only if NumPy is loaded: before that there are
    none, and a command that writes plain values never loads it."""
    np = sys.modules.get("numpy")
    if isinstance(obj, Record):
        return obj.to_dict()
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(x) for x in obj]
    if np is not None:
        if isinstance(obj, np.ndarray):
            return [sanitize(x) for x in obj.tolist()]
        if isinstance(obj, (np.integer, np.bool_)):
            return obj.item()
        if isinstance(obj, np.floating):
            obj = float(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    return obj


def _encode(doc) -> str:
    """The one JSON encoding: sorted keys, compact, newline-terminated, finite."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def canonical_dumps(doc: dict) -> str:
    """Canonical report encoding: ``sanitize``, then the one encoder."""
    return _encode(sanitize(doc))


def save_json(doc: dict, path: str) -> None:
    """Write plain JSON values (no NumPy, no non-finite floats) to ``path``."""
    text = _encode(doc)
    with open(path, "w") as fh:
        fh.write(text)


def load_json(path: str, what: str):
    """The JSON value in ``path``; a file that is not JSON raises ValueError
    naming ``what`` and the path."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValueError(f"{what} {path!r} is not JSON: {exc}") from None


def file_digest(path: str) -> str:
    """sha256 hex digest of a file's bytes."""
    import hashlib
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def new_report(input_path: str | None, profile: str) -> dict:
    """Report skeleton: tool identity, input digest, tolerance profile."""
    if profile not in TOLERANCE_PROFILES:
        raise ValueError(f"unknown tolerance profile {profile!r}")
    doc: dict = {
        "tool": TOOL_NAME,
        "version": TOOL_VERSION,
        "tolerance_profile": profile,
        "analyses": {},
    }
    if input_path is not None:
        doc["input"] = {"path": input_path, "sha256": file_digest(input_path)}
    return doc


def collect_flags(doc) -> list[tuple[str, bool]]:
    """All ("dotted.path", passed) pairs for keys named 'passed' in the report."""
    out: list[tuple[str, bool]] = []

    def walk(node, trail: str) -> None:
        if isinstance(node, dict):
            for k, v in sorted(node.items()):
                if k == "passed" and isinstance(v, bool):
                    out.append((trail or "report", v))
                else:
                    walk(v, f"{trail}.{k}" if trail else str(k))
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(v, f"{trail}[{i}]")

    walk(doc, "")
    return out


def write_report(doc: dict, out_path: str | None) -> None:
    """Write canonical JSON to a file, or to stdout when no path is given."""
    if out_path is None:
        sys.stdout.write(canonical_dumps(doc))
    else:
        save_json(sanitize(doc), out_path)
