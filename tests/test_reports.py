import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from varifold_lab import blowup, boundary, curvature, generators, nets
from varifold_lab.reports import (
    TOLERANCE_PROFILES,
    Record,
    canonical_dumps,
    collect_flags,
    file_digest,
    new_report,
    sanitize,
    save_json,
    write_report,
)


def test_canonical_dumps_is_deterministic():
    doc_a = {"b": 1, "a": [2.5, {"y": True, "x": None}]}
    doc_b = {"a": [2.5, {"x": None, "y": True}], "b": 1}
    assert canonical_dumps(doc_a) == canonical_dumps(doc_b)
    text = canonical_dumps(doc_a)
    assert text.endswith("\n")
    assert ": " not in text  # compact separators
    assert json.loads(text) == {"a": [2.5, {"x": None, "y": True}], "b": 1}


def test_sanitize_non_finite_floats():
    doc = {"nan": float("nan"), "pos": float("inf"), "neg": float("-inf")}
    assert sanitize(doc) == {"nan": "nan", "pos": "inf", "neg": "-inf"}
    # the encoded document is strict JSON
    json.loads(canonical_dumps(doc))


def test_sanitize_numpy_scalars_and_arrays():
    doc = {
        "arr": np.array([[1.0, 2.0], [3.0, float("nan")]]),
        "i": np.int64(7),
        "f": np.float64(0.5),
        "b": np.bool_(True),
        "keys": {np.int64(3): "three"},
    }
    got = sanitize(doc)
    assert got["arr"] == [[1.0, 2.0], [3.0, "nan"]]
    assert got["i"] == 7 and isinstance(got["i"], int)
    assert got["f"] == 0.5 and isinstance(got["f"], float)
    assert got["b"] is True
    assert got["keys"] == {"3": "three"}


def test_file_digest_matches_hashlib(tmp_path):
    import hashlib

    path = tmp_path / "blob.bin"
    data = bytes(range(256)) * 100
    path.write_bytes(data)
    assert file_digest(str(path)) == hashlib.sha256(data).hexdigest()


def test_new_report_skeleton(tmp_path):
    path = tmp_path / "in.json"
    path.write_text("{}\n")
    doc = new_report(str(path), "default")
    assert doc["tool"] == "varifold-lab"
    assert doc["tolerance_profile"] == "default"
    assert doc["analyses"] == {}
    assert doc["input"]["sha256"] == file_digest(str(path))
    assert "input" not in new_report(None, "strict")
    with pytest.raises(ValueError, match="unknown tolerance profile"):
        new_report(None, "sloppy")


def test_tolerance_profiles_are_nested():
    assert set(TOLERANCE_PROFILES) == {"strict", "default", "coarse"}
    keys = set(TOLERANCE_PROFILES["default"])
    for name, prof in TOLERANCE_PROFILES.items():
        assert set(prof) == keys, name
    for key in keys:
        s, d, c = (TOLERANCE_PROFILES[p][key] for p in ("strict", "default", "coarse"))
        assert s <= d <= c


def test_link_and_li_yau_tolerances_are_the_density_tolerance():
    """A link's length is 2*pi times the density of its cone, and Li-Yau's gap is a density."""
    for name, prof in TOLERANCE_PROFILES.items():
        assert prof["link_match_abs"] == prof["density_abs"] * 2.0 * math.pi, name
        assert prof["liyau_gap"] == prof["density_abs"], name


def test_collect_flags_walks_nested_paths():
    doc = {
        "analyses": {
            "density": {"passed": True, "theta": 1.5},
            "items": [{"passed": False}, {"passed": True}],
        },
        "passed": True,
    }
    flags = collect_flags(doc)
    assert ("analyses.density", True) in flags
    assert ("analyses.items[0]", False) in flags
    assert ("analyses.items[1]", True) in flags
    assert ("report", True) in flags
    assert len(flags) == 4


def test_write_report_file_and_stdout(tmp_path, capsys):
    doc = {"z": 1, "a": math.pi}
    out = tmp_path / "r.json"
    write_report(doc, str(out))
    assert out.read_text() == canonical_dumps(doc)
    write_report(doc, None)
    assert capsys.readouterr().out == canonical_dumps(doc)


# ---------------------------------------------------------------------------
# records: one to_dict for every result dataclass

# sha256 of canonical_dumps(x.to_dict()) for one instance of each record type,
# recorded while each class still had its own hand-written to_dict (for
# TopologyReport, which had none, the field-by-field dict `analyze --topology`
# built from it). "topology" re-recorded when the corner angles became libm's
# atan2 (its defect_chi moved by 2 ulps), and again when defect_chi, which
# restated chi through Gauss-Bonnet, was dropped: the earlier dict without
# that key has the new digest.
RECORD_SHA256 = {
    "density_sphere": "89618f3f793bdacbef459e4348bdd69973e9e4137029821e261d15e5de03b58f",
    "density_branch_point": "8ee9f6960285a4bcdff37889d0db0b0d4761be2b6b0b9cc9cb32b40dc6440d26",
    "monotonicity": "126e337cc3167459242a7da74bc395e0b2194b68db612a76d0f4f8b800114f8e",
    "li_yau": "4886fd0c1976e3eff824cd02e124ecf349b2446bf02f6689e7bc01ca45702a66",
    # re-recorded when the link took its arcs from the clipping walk of the ball
    # masses: total_length moved 1 ulp, the polyline's 81 samples in last bits
    "link": "95d7d89cd4e150354f764ada180d095f0c9ad7c21148c5c20cc6338706e42ba1",
    "topology": "0c823db5b368c767cc2964732321f9ead41249ec65495b026da91c0b580ecb88",
    "catalogue_0": "c38225a08152b0ffb01e4a8eedc2a2a7a4a2f2d6c403e15d1e38252829d59586",
    "catalogue_1": "817503a79b0eb1f53cf5e6833a18bf5b264b437969b55b9ada130ca302900a29",
    "catalogue_2": "0297d336c2f9561d6fdb2a7235a9b2dd4e6734e7aaf21e8935afbe3f393a6a32",
    "catalogue_3": "3f205cbbc45bb6264e23dd5098c246743f22fee06f70de5f09d5c260f84c3428",
    "catalogue_4": "ce5513bc8cd6ef0e49a8f21fdb8369e53b9646554b1893458536b979d641653c",
    "catalogue_5": "92cb0ae9913b65fce4f1915a15ad56359656c607422318e939ae6236a9ede092",
    "catalogue_6": "8f1960742faf9c135e7c822c76905d5d3e0fac6e4412282865e4ed2ceb483b75",
    "catalogue_7": "a98ca66d1f7db2d02dc364408fefbe3eda3b6a4f475931281e29d42cd8331bed",
    "catalogue_8": "8ea47f6b5063968d51b167d5246b090a91fb7297974df02e3151766271099cb3",
    "catalogue_9": "cbb8d4cdc788c363bd2b80bba8b2c74b8011a4e337e4e135927e5a6df9942d18",
    "circle_int_radius": "b2c684d781ede7f27b323fc5675b83ea7e60edf9fa2ee3ea47ca23d4dba51575",
    "circle": "5b1544fdb4f893fc9f9f53e209e2a487cc9c9d1ba58b368dd2c20ea171fc30db",
    "datum": "cecd67353081080e3612967d999367f8c5b7f1f64dcf99a48c048de96ae9d96b",
    # re-recorded when the sup came from its structure instead of a grid and
    # pattern search: ConormalSup's grid_shape gave way to kind and circle,
    # every argmax moved, and the values are now 4*pi and pi to the bit
    "sup": "0ba1aed4cb202c8a86403bb45f3401ed17c9cabba649e39cd557a3b5063a73da",
    "admissible": "3893a15de6b04c82168f52b356f23eacc0acb61271ffe5afc8a29bb035160cc1",
    "inadmissible": "131a011af3c7613e31e10567a8f857fa3bfa088dfee740bdcb9e53abea2f9743",
}


@pytest.fixture(scope="module")
def records(sphere3):
    sphere = sphere3.varifold
    branched = generators.gen_branched_patch(0.0, 1.0, 3).varifold
    p = sphere.vertices[17]
    out = {
        "density_sphere": blowup.density(sphere, p),
        # the branch point: theta = 2 is unclassified, its residual NaN
        "density_branch_point": blowup.density(branched, np.zeros(3)),
        "monotonicity": blowup.monotonicity_check(sphere, p, 0.3, 0.9),
        "li_yau": blowup.li_yau_check(sphere, [sphere.vertices[i] for i in (0, 5, 40)]),
        "link": blowup.spherical_link(sphere, p, 0.3),
        "topology": curvature.euler_characteristic(sphere),
    }
    out.update((f"catalogue_{k}", e) for k, e in enumerate(nets.catalogue()))
    # an integer radius is stored, and written, as a float
    a = boundary.CircleSpec([0.1, 0.2, 0.3], 2, [0, 1, 1], m=2, conormal_sign=-1)
    b = boundary.CircleSpec(np.array([1.0, -2.0, 0.5]), 0.75, np.array([0.3, -0.2, 0.9]))
    c = boundary.CircleSpec(np.array([0.0, 0.0, 3.0]), 1.0, np.array([0.0, 0.0, 1.0]), m=2)
    datum = boundary.make_datum([a, c])
    out.update(
        circle_int_radius=a,
        circle=b,
        datum=datum,
        sup=boundary.sup_conormal_integral(datum),
        admissible=boundary.admissibility_check(1.0, boundary.make_datum([b])),
        inadmissible=boundary.admissibility_check(4.0 * math.pi + 0.5, datum, 8.0 * math.pi),
    )
    return out


def test_records_keep_their_bytes(records):
    got = {name: hashlib.sha256(canonical_dumps(rec.to_dict()).encode()).hexdigest()
           for name, rec in records.items()}
    assert got == RECORD_SHA256


def test_every_record_type_is_covered(records):
    assert {type(r) for r in records.values()} == {
        blowup.DensityReport, blowup.MonotonicityReport, blowup.LiYauReport,
        blowup.SphericalLink, curvature.TopologyReport, nets.CatalogueEntry,
        boundary.CircleSpec, boundary.BoundaryDatum, boundary.ConormalSup,
        boundary.AdmissibilityReport,
    }
    assert all(isinstance(r, Record) for r in records.values())
    assert records["admissible"].admissible and not records["inadmissible"].admissible


def test_to_dict_keys_are_the_dataclass_fields_in_order(records):
    for name, rec in records.items():
        want = [f.name for f in dataclasses.fields(rec)]
        if isinstance(rec, nets.CatalogueEntry):
            want.remove("net")
        assert list(rec.to_dict()) == want, name


def test_to_dict_is_sanitized(records):
    doc = records["density_branch_point"].to_dict()
    assert doc["classification"] == ">=2 / unclassified"
    assert doc["classification_residual"] == "nan"
    assert type(doc["x0"]) is list and type(doc["warnings"]) is list
    assert records["datum"].to_dict()["circles"][0] == records["circle_int_radius"].to_dict()
    assert records["circle_int_radius"].to_dict()["radius"] == 2.0
    assert type(records["inadmissible"].to_dict()["passes_threshold"]) is bool
    # a record anywhere in a report is encoded through its to_dict
    assert canonical_dumps({"r": records["sup"]}) == canonical_dumps({"r": records["sup"].to_dict()})


def test_save_json_is_the_canonical_encoding(tmp_path):
    doc = {"z": [1, 2.5], "a": {"y": None, "b": True}}
    path = tmp_path / "doc.json"
    save_json(doc, str(path))
    assert path.read_text() == canonical_dumps(doc) == '{"a":{"b":true,"y":null},"z":[1,2.5]}\n'


def test_save_json_rejects_non_finite_floats_before_writing(tmp_path):
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError):
        save_json({"x": float("nan")}, str(path))
    assert not path.exists()
