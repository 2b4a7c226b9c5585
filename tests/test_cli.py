import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import varifold_lab
from varifold_lab import boundary, generators, nets
from varifold_lab.cli import ANALYSES, build_parser, main
from varifold_lab.mesh import DiscreteVarifold, save_varifold
from varifold_lab.reports import canonical_dumps

from conftest import _child_env, tangent_spheres


@pytest.fixture()
def sphere_file(tmp_path):
    path = str(tmp_path / "sphere.json")
    assert main(["generate", "sphere", "--level", "3", "-o", path]) == 0
    return path


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# exit-code contract


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_missing_mesh_file_is_input_error(capsys):
    assert main(["analyze", "no-such-file.json", "--energy"]) == 2
    assert "error:" in capsys.readouterr().err


def test_no_analyses_requested_is_input_error(sphere_file, capsys):
    assert main(["analyze", sphere_file]) == 2
    assert "no analyses requested" in capsys.readouterr().err


def test_malformed_point_spec_is_input_error(sphere_file, capsys):
    assert main(["analyze", sphere_file, "--density", "1,2"]) == 2
    assert "malformed point spec" in capsys.readouterr().err


def test_link_specs_are_parsed_before_the_mesh_is_read(capsys):
    assert main(["analyze", "no-such-file.json", "--energy", "--link=0,0,1"]) == 2
    assert capsys.readouterr().err == "error: malformed link spec '0,0,1': need x,y,z:r\n"


@pytest.mark.parametrize("radius", ["0", "-1"])
def test_link_spec_with_a_radius_that_is_not_positive_is_input_error(sphere_file, capsys, radius):
    assert main(["analyze", sphere_file, f"--link=0,0,0:{radius}"]) == 2
    assert capsys.readouterr().err == f"error: malformed link spec '0,0,0:{radius}': radius must be positive\n"


def test_disk_spec_with_three_center_coordinates_is_input_error(tmp_path, capsys):
    path = tmp_path / "m.json"
    assert main(["generate", "singular-pair", "--disk", "1,2,3:0.3", "-o", str(path)]) == 2
    assert capsys.readouterr().err == "error: malformed disk spec '1,2,3:0.3': need cx,cy:r\n"
    assert not path.exists()


def test_the_analysis_table_names_every_analyze_option():
    """Every analysis runs under cmd_analyze's one not-applicable rule only if
    the table names it; an option left at its default is not requested."""
    defaults = vars(build_parser().parse_args(["analyze", "mesh.json"]))
    options = set(defaults) - {"command", "func", "mesh", "tolerance_profile", "out"}
    assert options == set(ANALYSES)
    assert all(defaults[name] is None or defaults[name] is False for name in ANALYSES)


@pytest.mark.parametrize("argv, what", [
    (["analyze", "{path}", "--energy"], "mesh file"),
    (["net", "relax", "{path}"], "net file"),
    (["boundary", "sup", "{path}"], "datum file"),
    (["report", "{path}"], "report file"),
    (["net", "match", "{path}"], "link file"),
], ids=["analyze", "net-relax", "boundary-sup", "report", "net-match"])
@pytest.mark.parametrize("content", [b"not json", b"\xff\xfe{}"], ids=["text", "bytes"])
def test_input_file_that_is_not_json_is_named(tmp_path, capsys, argv, what, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    assert main([a.format(path=path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {what} {str(path)!r} is not JSON: ")
    if content == b"not json":
        assert err.endswith(" is not JSON: Expecting value: line 1 column 1 (char 0)\n")


# ---------------------------------------------------------------------------
# generate + analyze


def test_boundary_of_generated_cap(tmp_path):
    """The cap's boundary is a regular 48-gon inscribed in the unit circle."""
    path, report = str(tmp_path / "cap.json"), str(tmp_path / "r.json")
    assert main(["generate", "cap", "--level", "3", "-o", path]) == 0
    assert main(["analyze", path, "--boundary", "-o", report]) == 0
    block = read_json(report)["analyses"]["boundary"]
    assert block == {"edge_count": 48, "total_length": 6.278700406093734, "closed": False}
    assert block["total_length"] == pytest.approx(48 * 2 * math.sin(math.pi / 48), rel=1e-15)


def test_helfrich_at_zero_is_the_willmore_energy(sphere_file, tmp_path):
    report = str(tmp_path / "r.json")
    assert main(["analyze", sphere_file, "--energy", "--helfrich", "0", "-o", report]) == 0
    blocks = read_json(report)["analyses"]
    assert blocks["helfrich"]["value"].hex() == blocks["energy"]["willmore_energy"].hex()


def test_generate_reports_mesh_size(tmp_path, capsys):
    path = str(tmp_path / "m.json")
    assert main(["generate", "torus", "--level", "2", "--radius", "2",
                 "--tube-radius", "0.7", "-o", path]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "vertices" in out
    doc = read_json(path)
    assert doc["analytic"]["genus"] == 1


def test_generate_rejects_bad_parameters(tmp_path, capsys):
    path = str(tmp_path / "m.json")
    assert main(["generate", "sphere", "--radius", "-1", "-o", path]) == 2
    assert not os.path.exists(path)


@pytest.mark.parametrize("name", sorted(varifold_lab.GENERATORS))
def test_generate_rejects_a_negative_level(tmp_path, capsys, name):
    path = str(tmp_path / "m.json")
    assert main(["generate", name, "--level", "-1", "-o", path]) == 2
    assert capsys.readouterr().err == "error: level must be >= 0\n"
    assert not os.path.exists(path)


def test_analyze_energy_topology(sphere_file, tmp_path, capsys):
    report = str(tmp_path / "report.json")
    code = main(["analyze", sphere_file, "--energy", "--topology", "-o", report])
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS] analyses.energy" in out
    assert "[PASS] analyses.topology" in out
    doc = read_json(report)
    assert doc["analyses"]["energy"]["passed"] is True
    assert doc["analyses"]["energy"]["analytic_willmore"] == pytest.approx(4 * math.pi)
    assert doc["analyses"]["topology"]["chi"] == 2
    assert doc["input"]["path"] == sphere_file


def test_analyze_density_and_link(sphere_file, tmp_path):
    mesh_doc = read_json(sphere_file)
    point = mesh_doc["analytic"]["density_points"][0]["point"]
    spec = ",".join(repr(c) for c in point)
    report = str(tmp_path / "report.json")
    code = main([
        "analyze", sphere_file,
        f"--density={spec}",  # '=' form: the coordinate may start with '-'
        f"--link={spec}:0.4",
        "--liyau",
        "-o", report,
    ])
    assert code == 0
    doc = read_json(report)
    density = doc["analyses"]["density"][0]
    assert density["passed"] is True
    assert density["theta"] == pytest.approx(1.0, abs=0.05)
    link = doc["analyses"]["link"][0]
    assert link["match"] == "great circle"
    assert link["passed"] is True
    assert doc["analyses"]["liyau"]["passed"] is True


def test_analyze_density_on_a_junction_circle_reads_its_expected_value(tmp_path):
    # (0, 1, 0) is on the junction circle but is none of the listed density
    # points, so the expected density comes from the circle itself
    path = str(tmp_path / "db.json")
    assert main(["generate", "double-bubble", "--level", "3", "-o", path]) == 0
    assert [0.0, 1.0, 0.0] not in [dp["point"] for dp in read_json(path)["analytic"]["density_points"]]
    report = str(tmp_path / "report.json")
    assert main(["analyze", path, "--density=0,1,0", "-o", report]) == 0
    (row,) = read_json(report)["analyses"]["density"]
    assert row["expected"] == 1.5 and row["passed"] is True
    assert row["theta"] == pytest.approx(1.5, abs=0.01)


def test_generate_cap_at_pi_is_input_error(tmp_path, capsys):
    path = tmp_path / "cap.json"
    assert main(["generate", "cap", "--theta", "3.141592653589793", "-o", str(path)]) == 2
    assert "gen_sphere" in capsys.readouterr().err
    assert not path.exists()


def test_analyze_link_that_misses_the_support_is_not_applicable(sphere_file, tmp_path):
    report = str(tmp_path / "report.json")
    code = main(["analyze", sphere_file, "--energy", "--link=0,0,3:0.35", "-o", report])
    assert code == 0
    doc = read_json(report)
    assert doc["analyses"]["energy"]["passed"] is True
    (row,) = doc["analyses"]["link"]
    assert row["status"] == "not_applicable" and "misses the support" in row["reason"]
    assert "passed" not in row


def test_analyze_link_matches_within_the_profile_tolerance(tmp_path):
    # sphere L4, vertex 0, r = 0.735: the link is 7.0% of 2*pi shorter than a
    # great circle, within "coarse" (10%) but not "default" (5%)
    path = str(tmp_path / "sphere.json")
    assert main(["generate", "sphere", "--level", "4", "-o", path]) == 0
    spec = ",".join(map(repr, read_json(path)["vertices"][0])) + ":0.735"
    rows = {}
    for profile, code in (("default", 1), ("coarse", 0)):
        report = str(tmp_path / f"{profile}.json")
        assert main(["analyze", path, f"--link={spec}", "--tolerance-profile", profile, "-o", report]) == code
        (rows[profile],) = read_json(report)["analyses"]["link"]
    assert 0.05 < rows["default"]["residual"] / (2.0 * math.pi) < 0.10
    assert rows["default"]["residual"] == rows["coarse"]["residual"]
    assert (rows["default"]["match"], rows["default"]["matched_length"], rows["default"]["passed"]) == (
        "composite/unknown", None, False)
    assert (rows["coarse"]["match"], rows["coarse"]["matched_length"], rows["coarse"]["passed"]) == (
        "great circle", 2.0 * math.pi, True)


def test_analyze_density_off_the_support_is_not_applicable(sphere_file, tmp_path):
    report = str(tmp_path / "report.json")
    code = main(["analyze", sphere_file, "--density=0,0,3", "--density=0,0,1", "--energy", "-o", report])
    assert code == 0
    blocks = read_json(report)["analyses"]
    assert blocks["energy"]["passed"] is True
    off, on = blocks["density"]
    assert off == {"point": [0.0, 0.0, 3.0], "status": "not_applicable",
                   "reason": "point [0.0, 0.0, 3.0] is not on the support of the varifold"}
    assert on["theta"] == pytest.approx(1.0, abs=0.05)


def test_analyze_density_below_one_half_is_not_applicable(tmp_path):
    """On the cap's rim the ladder extrapolates to theta < 1/2, which is no
    varifold density; the boundary analysis still runs."""
    path, report = str(tmp_path / "cap.json"), str(tmp_path / "report.json")
    assert main(["generate", "cap", "--level", "3", "-o", path]) == 0
    assert main(["analyze", path, "--density=1,0,0", "--boundary", "-o", report]) == 0
    blocks = read_json(report)["analyses"]
    (row,) = blocks["density"]
    assert set(row) == {"point", "status", "reason"} and row["status"] == "not_applicable"
    assert row["reason"].endswith("is not a varifold density (need theta >= 0.5)")
    assert blocks["boundary"]["edge_count"] == 48


def test_readme_quick_start_writes_its_report(tmp_path, capsys):
    """The double bubble has junction edges, so --topology does not apply;
    the README's other analyses still run and pass."""
    path, report = str(tmp_path / "db.json"), str(tmp_path / "report.json")
    assert main(["generate", "double-bubble", "--theta2", "0.7", "--level", "3", "-o", path]) == 0
    code = main(["analyze", path, "--energy", "--topology", "--liyau",
                 "--density=1,0,0", "--link=1,0,0:0.35", "-o", report])
    assert code == 0, capsys.readouterr().out
    blocks = read_json(report)["analyses"]
    assert blocks["topology"] == {"status": "not_applicable",
                                  "reason": "mesh is not manifold: edge (0, 1) has 3+ faces"}
    assert set(blocks) == {"energy", "topology", "liyau", "density", "link"}
    assert blocks["liyau"]["passed"] and blocks["density"][0]["passed"] and blocks["link"][0]["passed"]


def test_analyze_helfrich_on_an_unoriented_mesh_is_not_applicable(tmp_path):
    """The double bubble is unoriented, so --helfrich does not apply; the
    Li-Yau check in the same report still runs and passes."""
    path, report = str(tmp_path / "db.json"), str(tmp_path / "report.json")
    assert main(["generate", "double-bubble", "--theta2", "0.7", "--level", "3", "-o", path]) == 0
    assert main(["analyze", path, "--liyau", "--helfrich", "0", "-o", report]) == 0
    blocks = read_json(report)["analyses"]
    assert blocks["helfrich"] == {"status": "not_applicable",
                                  "reason": "operation requires an oriented mesh (oriented=True)"}
    assert blocks["liyau"]["passed"] is True


def test_analyze_liyau_on_a_mesh_with_boundary_is_not_applicable(tmp_path):
    path, report = str(tmp_path / "cap.json"), str(tmp_path / "report.json")
    assert main(["generate", "cap", "--level", "3", "-o", path]) == 0
    assert main(["analyze", path, "--liyau", "--boundary", "-o", report]) == 0
    blocks = read_json(report)["analyses"]
    assert blocks["liyau"] == {"status": "not_applicable",
                               "reason": "mesh is not closed: edge (0, 1) bounds one face"}
    assert blocks["boundary"]["edge_count"] == 48


def test_topology_of_a_mesh_with_boundary_is_not_applicable(tmp_path):
    path, report = str(tmp_path / "cap.json"), str(tmp_path / "report.json")
    assert main(["generate", "cap", "--level", "2", "-o", path]) == 0
    assert main(["analyze", path, "--topology", "-o", report]) == 0
    block = read_json(report)["analyses"]["topology"]
    assert block["status"] == "not_applicable" and block["reason"].startswith("mesh is not closed: edge (")


def _flipped_sphere():
    v = generators.gen_sphere(1.0, 2).varifold
    faces = v.faces.copy()
    faces[0] = faces[0, ::-1]
    return DiscreteVarifold(v.vertices, faces, oriented=True)


@pytest.mark.parametrize("make, option, reason", [
    (lambda: DiscreteVarifold([[0.0, 0.0, 0.0]], []), "--density=0,0,0", "varifold has no faces"),
    (lambda: generators.gen_cap(1.0, 1.2, 2).varifold, "--topology",
     "mesh is not closed: edge (0, 1) bounds one face"),
    (lambda: generators.gen_double_bubble(0.7, 1.0, 2).varifold, "--topology",
     "mesh is not manifold: edge (0, 1) has 3+ faces"),
    (lambda: tangent_spheres(2), "--topology", "mesh is not manifold: the faces at vertex 0 form 2 fans"),
    (lambda: generators.gen_double_bubble(0.7, 1.0, 2).varifold, "--helfrich=0",
     "operation requires an oriented mesh (oriented=True)"),
    (_flipped_sphere, "--helfrich=0", "face windings disagree across edge (0, 42)"),
], ids=["no-faces", "boundary", "junction", "pinch", "unoriented", "windings"])
def test_each_reason_a_mesh_is_not_admitted_is_reported(tmp_path, make, option, reason):
    """One mesh per message of ``mesh._require``; its block, or row, is not applicable."""
    path, report = str(tmp_path / "m.json"), str(tmp_path / "r.json")
    save_varifold(make(), path)
    assert main(["analyze", path, option, "-o", report]) == 0
    (block,) = read_json(report)["analyses"].values()
    assert (block[0] if isinstance(block, list) else block)["reason"] == reason


@pytest.mark.parametrize("level", [2, 3, 4])
def test_tangent_spheres_sharing_their_contact_vertex_are_not_applicable(tmp_path, level):
    """Two spheres that share the vertex where they touch pass every edge test, and would give
    chi 3; the star at the contact vertex is two fans, so the mesh is no discrete immersion."""
    path, report = str(tmp_path / "pinch.json"), str(tmp_path / "r.json")
    save_varifold(tangent_spheres(level), path)
    assert main(["analyze", path, "--topology", "--helfrich", "0", "-o", report]) == 0
    reason = "mesh is not manifold: the faces at vertex 0 form 2 fans"
    assert read_json(report)["analyses"] == {name: {"status": "not_applicable", "reason": reason}
                                             for name in ("topology", "helfrich")}


@pytest.mark.parametrize("chi, code, verdict", [
    (2, 0, {"analytic_chi": 2, "tolerance": 0, "passed": True}),
    (0, 1, {"analytic_chi": 0, "tolerance": 0, "passed": False}),
    (None, 0, {}),
], ids=["matching", "differing", "absent"])
def test_topology_checks_chi_against_the_analytic_block(sphere_file, tmp_path, capsys, chi, code, verdict):
    doc = read_json(sphere_file)
    doc["analytic"].pop("chi")
    if chi is not None:
        doc["analytic"]["chi"] = chi
    path, report = tmp_path / "m.json", str(tmp_path / "r.json")
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "--topology", "-o", report]) == code
    block = read_json(report)["analyses"]["topology"]
    assert block == {"num_vertices": 642, "num_edges": 1920, "num_faces": 1280, "chi": 2, "orientable": True,
                     "connected_components": 1, "genus": 0, **verdict}
    assert ("analyses.topology" in capsys.readouterr().out) == (chi is not None)


def test_analyze_failure_exits_one(tmp_path, capsys):
    # a flat disk has zero bending energy, so demanding the sphere's
    # printed value fails the energy check
    path = str(tmp_path / "disk.json")
    assert main(["generate", "flat-disk", "--level", "2", "-o", path]) == 0
    doc = read_json(path)
    doc["analytic"]["willmore_energy"] = 4 * math.pi
    with open(path, "w") as fh:
        json.dump(doc, fh)
    report = str(tmp_path / "report.json")
    assert main(["analyze", path, "--energy", "-o", report]) == 1
    assert "[FAIL] analyses.energy" in capsys.readouterr().out


def test_analyze_liyau_without_an_analytic_block_samples_eight_vertices(tmp_path):
    from varifold_lab import generators
    from varifold_lab.mesh import save_varifold

    path, report = str(tmp_path / "bare.json"), str(tmp_path / "r.json")
    save_varifold(generators.gen_sphere(1.0, 3).varifold, path)
    assert main(["analyze", path, "--liyau", "-o", report]) == 0
    block = read_json(report)["analyses"]["liyau"]
    assert block["n_samples"] == 8
    assert block["theta_max"] == 0.9975459219046342


def test_analyze_liyau_without_an_analytic_block_samples_the_vertices_of_an_eight_point_linspace():
    """Among the n vertices on a face, ascending, the samples are those at the distinct
    indices of np.linspace(0, n - 1, 8).astype(int)."""
    from varifold_lab import cli

    for n in [*range(1, 3000), 20_000, 39_048, 100_007, 155_000, 2**31 + 5]:
        assert cli._spread(range(n)) == list(dict.fromkeys(np.linspace(0, n - 1, 8).astype(int).tolist())), n


def test_analyze_liyau_without_an_analytic_block_samples_only_vertices_on_a_face(tmp_path):
    """A vertex on no face is off the support, so it is never a sample: sphere L2 with one
    such vertex put first gives the block of sphere L2 alone."""
    v = generators.gen_sphere(1.0, 2).varifold
    unused = DiscreteVarifold(np.vstack([[5.0, 5.0, 5.0], v.vertices]), v.faces + 1)
    blocks = []
    for name, w in [("bare", v), ("unused", unused)]:
        path, report = str(tmp_path / f"{name}.json"), str(tmp_path / f"{name}-report.json")
        save_varifold(w, path)
        assert main(["analyze", path, "--liyau", "-o", report]) == 0
        blocks.append(read_json(report)["analyses"]["liyau"])
    assert "status" not in blocks[1]
    assert blocks[1] == blocks[0]


@pytest.mark.parametrize("disk", [[], ["--disk", "0,0:0.3"]], ids=["no-disk", "one-disk"])
def test_analyze_liyau_reads_each_density_point_as_its_density_row(tmp_path, disk):
    """On singular-pair L3 the sheet points carry an ``r_max`` hint below the
    sheets' separation; ``--liyau`` honours it as ``--density`` does, so each
    θ that ``li_yau_check`` reads equals the ``--density`` row at its point."""
    from varifold_lab import blowup
    from varifold_lab.mesh import load_mesh_file

    path, report = str(tmp_path / "pair.json"), str(tmp_path / "r.json")
    assert main(["generate", "singular-pair", "--level", "3", *disk, "-o", path]) == 0
    v, analytic = load_mesh_file(path)
    dps = analytic["density_points"]
    assert sum("r_max" in dp for dp in dps) == 2
    assert main(["analyze", path, "--liyau", "-o", report,
                 *(f"--density={','.join(map(repr, dp['point']))}" for dp in dps)]) in (0, 1)
    blocks = read_json(report)["analyses"]
    rows = [row["theta"] for row in blocks["density"]]
    rep = blowup.li_yau_check(v, [dp["point"] for dp in dps], r_max=[dp.get("r_max") for dp in dps])
    assert rep.thetas.tolist() == rows
    assert blocks["liyau"]["theta_max"] == rep.theta_max == max(rows)


def test_analyze_density_without_an_analytic_block_has_no_expected_value(tmp_path):
    from varifold_lab import generators
    from varifold_lab.mesh import save_varifold

    v = generators.gen_sphere(1.0, 3).varifold
    path, report = str(tmp_path / "bare.json"), str(tmp_path / "r.json")
    save_varifold(v, path)
    spec = ",".join(repr(c) for c in v.vertices[0].tolist())
    assert main(["analyze", path, f"--density={spec}", "-o", report]) == 0
    row = read_json(report)["analyses"]["density"][0]
    assert row["theta"] == pytest.approx(1.0, abs=0.05)
    assert not {"expected", "abs_error", "tolerance", "passed"} & set(row)


def test_analyze_density_keeps_the_ladder_warnings_in_its_row(tmp_path):
    """On singular-pair L1 the upper sheet's ``r_max`` hint lies below the mesh resolution, and
    its row keeps the warning that ``blowup.density`` logs; the contact disk's centre, on the
    default cap of 10·h, warns of nothing and its row has no ``warnings``."""
    from varifold_lab.mesh import load_mesh_file

    path, report = str(tmp_path / "pair.json"), str(tmp_path / "r.json")
    assert main(["generate", "singular-pair", "--level", "1", "--disk", "0,0:0.3", "-o", path]) == 0
    dps = {dp["label"]: dp for dp in load_mesh_file(path)[1]["density_points"]}
    points = [",".join(map(repr, dps[label]["point"])) for label in ("upper sheet", "contact disk center")]
    assert main(["analyze", path, *(f"--density={p}" for p in points), "-o", report]) == 0
    upper, center = read_json(report)["analyses"]["density"]
    assert upper["warnings"] == ["r_max=0.0399 is below mesh resolution (edge scale 0.178); "
                                 "the ladder is under-resolved"]
    assert "warnings" not in center


def test_analyze_writes_to_stdout_without_out(sphere_file, capsys):
    assert main(["analyze", sphere_file, "--energy"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert "energy" in doc["analyses"]
    assert "[PASS]" not in out  # flag lines would corrupt the JSON stream


# ---------------------------------------------------------------------------
# net subcommands


def test_net_catalogue_table(capsys):
    assert main(["net", "catalogue"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert out.count("< 4*pi") == 3
    assert "invalid" in out
    assert "note:" in out
    assert len([ln for ln in lines if ln.lstrip()[:2].strip().isdigit()]) == 10


def test_net_catalogue_json(tmp_path):
    path = str(tmp_path / "cat.json")
    assert main(["net", "catalogue", "--json", "-o", path]) == 0
    entries = read_json(path)["entries"]
    assert len(entries) == 10
    assert entries[0]["length"] == pytest.approx(2 * math.pi)


def test_net_catalogue_out_without_json_writes_the_entries(tmp_path, capsys):
    path = str(tmp_path / "cat.json")
    assert main(["net", "catalogue", "-o", path]) == 0
    assert capsys.readouterr().out == ""
    entries = read_json(path)["entries"]
    assert [e["name"] for e in entries] == [e.name for e in nets.catalogue()]
    assert main(["net", "catalogue", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"entries": entries}


def test_net_match_bare_number(capsys):
    assert main(["net", "match", "6.283185307179586"]) == 0
    assert "great circle, density 1" in capsys.readouterr().out


def test_net_match_link_files(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"total_length": 3 * math.pi}))
    out_path = str(tmp_path / "match.json")
    assert main(["net", "match", str(a), "-o", out_path]) == 0
    assert "three half circles" in capsys.readouterr().out
    assert read_json(out_path)["match"] == "three half circles"

    # the per-arc list format is gone; a file that uses it is an input error
    b = tmp_path / "b.json"
    b.write_text(json.dumps({"lengths": [math.pi, math.pi, math.pi]}))
    assert main(["net", "match", str(b)]) == 2
    assert "'total_length'" in capsys.readouterr().err


def test_net_match_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "nothing useful"}')
    assert main(["net", "match", str(bad)]) == 2
    assert "total_length" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [{"total_length": True}, {"total_length": "6.283185307179586"},
                                 {"total_length": None}, True, 6.283185307179586, [6.283185307179586]],
                         ids=["bool", "string", "null", "bare-bool", "bare-number", "list"])
def test_net_match_does_not_coerce_the_length(tmp_path, capsys, doc):
    path = tmp_path / "link.json"
    path.write_text(json.dumps(doc))
    assert main(["net", "match", str(path)]) == 2
    assert "'total_length' as a number" in capsys.readouterr().err


def test_net_match_on_a_mesh_file_names_what_it_found(sphere_file, tmp_path, capsys):
    assert main(["net", "match", sphere_file]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: link file {sphere_file!r} needs an object with 'total_length' as a number,"
                   " and this object has none\n")
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"total_length": list(range(10**5))}))
    assert main(["net", "match", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.endswith("as a number, not [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16...\n")
    path.write_text("[3.14]")
    assert main(["net", "match", str(path)]) == 2
    assert capsys.readouterr().err.endswith("'total_length' as a number, not a list\n")


def test_net_relax_roundtrip(tmp_path, capsys):
    tetra = nets.catalogue()[2]
    rng = np.random.default_rng(42)
    x = tetra.net.vertices + 0.05 * rng.standard_normal(tetra.net.vertices.shape)
    x /= np.linalg.norm(x, axis=1)[:, None]
    perturbed = nets.make_net(x, tetra.net.arcs, tetra.net.major)
    in_path = str(tmp_path / "perturbed.json")
    out_path = str(tmp_path / "relaxed.json")
    nets.save_net(perturbed, in_path)

    assert main(["net", "relax", in_path, "-o", out_path]) == 0
    assert "converged True" in capsys.readouterr().out
    doc = read_json(out_path)
    assert doc["converged"] is True
    assert doc["total_length"] == pytest.approx(tetra.length, abs=1e-8)

    assert main(["net", "relax", in_path, "--max-iter", "1"]) == 1
    assert "converged False" in capsys.readouterr().out


@pytest.fixture()
def tetra_net_file(tmp_path):
    path = str(tmp_path / "tetra.json")
    nets.save_net(nets.catalogue()[2].net, path)
    return path


def test_net_relax_rejects_a_negative_max_iter(tetra_net_file, capsys):
    assert main(["net", "relax", tetra_net_file, "--max-iter", "-3"]) == 2
    assert capsys.readouterr().err == "error: max_iter must be at least 0, not -3\n"
    assert main(["net", "relax", tetra_net_file, "--max-iter", "0"]) == 0  # stationary as given
    assert "iterations 0  converged True" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["-1", "0"])
def test_net_relax_rejects_a_tolerance_no_residual_can_meet(tetra_net_file, capsys, tol):
    assert main(["net", "relax", tetra_net_file, "--tol", tol]) == 2
    assert capsys.readouterr().err == f"error: tol must be positive, not {float(tol)!r}\n"


def test_net_relax_writes_arc_rows_like_save_net(tmp_path, capsys):
    verts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    net = nets.make_net(verts, [[0, 1, 2], [1, 2, 1], [2, 0, 1]], major=[True, False, False])
    in_path, out_path = str(tmp_path / "major.json"), str(tmp_path / "relaxed.json")
    nets.save_net(net, in_path)
    main(["net", "relax", in_path, "--max-iter", "1", "-o", out_path])
    assert read_json(out_path)["arcs"] == read_json(in_path)["arcs"] == [[0, 1, 2, 1], [1, 2, 1], [2, 0, 1]]


# ---------------------------------------------------------------------------
# boundary subcommands


@pytest.fixture()
def datum_file(tmp_path):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({
        "circles": [
            {"center": [0, 0, 0], "radius": 1.0, "normal": [0, 0, 1],
             "m": 1, "conormal_sign": 1},
        ],
    }))
    return str(path)


_CIRCLE = {"center": [0, 0, 0], "radius": 1.0, "normal": [0, 0, 1], "m": 1, "conormal_sign": 1}


@pytest.mark.parametrize("doc, message", [
    ({"circles": [dict(_CIRCLE, m=1.7)]}, "'m' must be an integer"),
    ({"circles": [dict(_CIRCLE, m=True)]}, "'m' must be an integer"),
    ({"circles": [dict(_CIRCLE, conormal_sign=-1.5)]}, "'conormal_sign' must be an integer"),
    ({"circles": [dict(_CIRCLE, conormal_sign=True)]}, "'conormal_sign' must be an integer"),
    ({"circles": [dict(_CIRCLE, center=[0, 0])]}, "'center' must be 3 numbers"),
    ({"circles": [dict(_CIRCLE, normal=[0, 0, "1"])]}, "'normal' must be 3 numbers"),
    ({"circles": [dict(_CIRCLE, normal=[0, 0, True])]}, "'normal' must be 3 numbers"),
    ({"circles": [dict(_CIRCLE, radius="1")]}, "'radius' must be a number"),
    ({"circles": [{k: x for k, x in _CIRCLE.items() if k != "radius"}]}, "missing 'radius'"),
    ({"circle": [_CIRCLE]}, "needs a 'circles' list"),
], ids=["m-float", "m-bool", "sign-float", "sign-bool", "center-short", "normal-string",
        "normal-bool", "radius-string", "no-radius", "no-circles"])
def test_boundary_datum_is_loaded_strictly(tmp_path, capsys, doc, message):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(doc))
    assert main(["boundary", "sup", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_boundary_circle_integral(datum_file, tmp_path, capsys):
    out_path = str(tmp_path / "integral.json")
    code = main(["boundary", "circle-integral", datum_file,
                 "--point", "0,0,1", "--quad", "256", "-o", out_path])
    assert code == 0
    assert "conormal integral -3.14159" in capsys.readouterr().out
    doc = read_json(out_path)
    assert doc["total"] == pytest.approx(-math.pi, abs=1e-15)
    assert doc["closed_vs_quad"] < 1e-10


@pytest.mark.parametrize("quad", ["0", "8"])
def test_boundary_circle_integral_rejects_too_few_quadrature_samples(datum_file, tmp_path, capsys, quad):
    out_path = str(tmp_path / "integral.json")
    assert main(["boundary", "circle-integral", datum_file, "--point", "0,0,1",
                 "--quad", quad, "-o", out_path]) == 2
    assert capsys.readouterr().err == "error: n_samples must be >= 16\n"
    assert not os.path.exists(out_path)


def test_boundary_sup(datum_file, capsys):
    assert main(["boundary", "sup", datum_file]) == 0
    assert "sup 3.14159" in capsys.readouterr().out


def test_circle_integral_at_an_interior_argmax_reproduces_the_sup(tmp_path, capsys):
    # two circles whose sup is a maximum off both, 0.72 above either circle's limit
    path, sup_path, at_path = (str(tmp_path / f"{k}.json") for k in ("datum", "sup", "at"))
    (tmp_path / "datum.json").write_text(json.dumps({"circles": [
        {"center": [1, 2, 3], "radius": 1, "normal": [1, -1, -1]},
        {"center": [3, 3, 2], "radius": 1, "normal": [0, 1, 0], "conormal_sign": -1}]}))
    assert main(["boundary", "sup", path, "-o", sup_path]) == 0
    assert capsys.readouterr().out.endswith(", an interior maximum\n")
    sup = read_json(sup_path)
    assert (sup["kind"], sup["circle"]) == ("interior", None)
    assert main(["boundary", "circle-integral", path, "--point", ",".join(map(repr, sup["argmax"])),
                 "-o", at_path]) == 0
    assert read_json(at_path)["total"].hex() == sup["value"].hex()


@pytest.mark.parametrize("key, value, message", [
    ("center", [float("nan"), 0.0, 0.0], "circle center must be finite, not [nan, 0.0, 0.0]"),
    ("normal", [0.0, 0.0, float("nan")], "circle normal must be finite, not [0.0, 0.0, nan]"),
    ("radius", float("inf"), "circle radius must be positive and finite, not inf"),
], ids=["nan-center", "nan-normal", "inf-radius"])
def test_boundary_datum_with_a_non_finite_value_is_input_error(tmp_path, capsys, key, value, message):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"circles": [dict(_CIRCLE, **{key: value})]}))  # NaN/Infinity literals
    assert main(["boundary", "sup", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_boundary_admissible_pass_and_fail(datum_file, capsys):
    assert main(["boundary", "admissible", datum_file, "--p", "3"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] threshold bound" in out
    assert "[PASS] P < 4*pi" in out

    four_pi = repr(4 * math.pi)
    assert main(["boundary", "admissible", datum_file, "--p", four_pi]) == 1
    assert "[FAIL] P < 4*pi" in capsys.readouterr().out


@pytest.mark.parametrize("p, code", [("3", 0), (repr(4 * math.pi), 1)])
def test_boundary_admissible_writes_its_report(datum_file, tmp_path, capsys, p, code):
    out_path = str(tmp_path / "admissible.json")
    assert main(["boundary", "admissible", datum_file, "--p", p, "-o", out_path]) == code
    doc = read_json(out_path)
    assert set(doc) == {f.name for f in dataclasses.fields(boundary.AdmissibilityReport)}
    assert doc["p_estimate"] == float(p)
    assert doc["total"] == doc["p_estimate"] + 2.0 * doc["sup_value"]
    assert doc["admissible"] is (code == 0)


def test_boundary_admissible_flag_alias_and_threshold(datum_file, capsys):
    assert main(["boundary", "admissible", datum_file,
                 "--p-estimate", "3", "--threshold", "8pi"]) == 0
    assert "threshold 25.13274" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# non-finite numbers on the command line


def _exit_code(argv) -> int:
    """main's return code, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("args, message", [
    (["--density=nan,0,0"], "malformed point spec 'nan,0,0'"),
    (["--density", "0,inf,0"], "malformed point spec '0,inf,0'"),
    (["--link=0,0,1:inf"], "bad radius 'inf'"),
    (["--link=nan,0,1:0.3"], "malformed point spec 'nan,0,1'"),
    (["--helfrich", "nan"], "invalid finite value: 'nan'"),
], ids=["density", "density-inf", "link-radius", "link-point", "helfrich"])
def test_analyze_rejects_non_finite_numbers(sphere_file, capsys, args, message):
    assert _exit_code(["analyze", sphere_file, *args]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name, option, value", [
    ("sphere", "--radius", "nan"),
    ("cap", "--theta", "inf"),
    ("double-bubble", "--theta2", "nan"),
    ("flat-disk", "--rho", "-inf"),
    ("branched-patch", "--delta", "nan"),
    ("branched-patch", "--rho0", "inf"),
    ("torus", "--tube-radius", "nan"),
    ("singular-pair", "--disk", "0,nan:0.5"),
], ids=["radius", "theta", "theta2", "rho", "delta", "rho0", "tube-radius", "disk"])
def test_generate_rejects_non_finite_options(tmp_path, capsys, name, option, value):
    path = tmp_path / "m.json"
    assert _exit_code(["generate", name, f"{option}={value}", "--level", "1", "-o", str(path)]) == 2
    assert repr(value) in capsys.readouterr().err
    assert not path.exists()


def test_boundary_point_and_p_must_be_finite(datum_file, capsys):
    assert _exit_code(["boundary", "circle-integral", datum_file, "--point", "0,nan,1"]) == 2
    assert "malformed point spec '0,nan,1'" in capsys.readouterr().err
    assert _exit_code(["boundary", "admissible", datum_file, "--p", "nan"]) == 2
    assert "invalid finite value: 'nan'" in capsys.readouterr().err


def test_net_match_rejects_a_non_finite_length(tmp_path, capsys):
    # a bare NaN used to die on an AssertionError (exit 1)
    assert main(["net", "match", "nan"]) == 2
    assert "cannot match a link of length nan" in capsys.readouterr().err
    path = tmp_path / "link.json"
    path.write_text(json.dumps({"total_length": float("inf")}))
    assert main(["net", "match", str(path)]) == 2
    assert "cannot match a link of length inf" in capsys.readouterr().err
    path.write_text(json.dumps({"total_length": 10**400}))  # a JSON integer beyond int64
    assert main(["net", "match", str(path)]) == 2
    assert capsys.readouterr().err == (f"error: link file {str(path)!r} needs an object with 'total_length'"
                                       f" as a number, not 1{'0' * 56}...\n")


def test_net_file_with_a_nan_vertex_is_input_error(tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text('{"vertices": [[1, 0, 0], [NaN, 1, 0]], "arcs": [[0, 1, 1]]}')
    assert main(["net", "relax", str(path)]) == 2
    assert "vertex 1 is not finite: [nan, 1.0, 0.0]" in capsys.readouterr().err
    nets.save_net(nets.catalogue()[2].net, str(path))
    assert _exit_code(["net", "relax", str(path), "--tol", "nan"]) == 2
    assert "invalid finite value: 'nan'" in capsys.readouterr().err


@pytest.mark.parametrize("vertices", [
    [[True, False, False], ["0", "1", "0"], [0, 0, 1]],
    [[True, False, False], [False, True, False], [False, False, True]],
], ids=["bool-and-string", "bool"])
def test_net_file_vertices_are_not_coerced(tmp_path, capsys, vertices):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"vertices": vertices, "arcs": [[0, 1, 1], [1, 2, 1], [2, 0, 1]]}))
    assert main(["net", "relax", str(path)]) == 2
    assert capsys.readouterr().err == (f"error: net file {str(path)!r}: vertices row 0 must be 3 numbers,"
                                       " not [True, False, False]\n")


def test_net_file_with_a_boolean_among_vertex_numbers_is_input_error(tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text('{"vertices": [[1, 0, 0], [0, true, 0], [0, 0, 1]],'
                    ' "arcs": [[0, 1, 1], [1, 2, 1], [2, 0, 1]]}')
    assert main(["net", "relax", str(path)]) == 2
    assert capsys.readouterr().err == (f"error: net file {str(path)!r}: vertices row 1 must be 3 numbers,"
                                       " not [0, True, 0]\n")


# ---------------------------------------------------------------------------
# report summary


def test_report_command(sphere_file, tmp_path, capsys):
    report = str(tmp_path / "report.json")
    assert main(["analyze", sphere_file, "--energy", "-o", report]) == 0
    capsys.readouterr()
    assert main(["report", report]) == 0
    out = capsys.readouterr().out
    assert "varifold-lab" in out
    assert "[PASS] analyses.energy" in out


def test_report_command_fails_on_failed_flag(tmp_path, capsys):
    path = tmp_path / "failed.json"
    path.write_text(canonical_dumps({"analyses": {"x": {"passed": False}}}))
    assert main(["report", str(path)]) == 1
    assert "[FAIL] analyses.x" in capsys.readouterr().out


def test_report_command_without_flags(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(canonical_dumps({"analyses": {}}))
    assert main(["report", str(path)]) == 0
    assert "no pass/fail checks recorded" in capsys.readouterr().out


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "the report and its 'input' must be objects"),
    ({"input": "mesh.json", "analyses": {}}, "the report and its 'input' must be objects"),
], ids=["list", "string-input"])
def test_report_of_the_wrong_shape_is_input_error(tmp_path, capsys, doc, message):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    assert main(["report", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"report file {str(path)!r}" in err and message in err


@pytest.mark.parametrize("analytic, option, message", [
    ([1], "--energy", "'analytic' must be an object, not list"),
    ({"density_points": "x"}, "--liyau", "'analytic': 'density_points' must be a list of objects"),
    ({"willmore_energy": True}, "--energy", "'analytic': 'willmore_energy' must be a number, not True"),
    ({"chi": 2.0}, "--topology", "'analytic': 'chi' must be an integer, not 2.0"),
    ({"chi": True}, "--topology", "'analytic': 'chi' must be an integer, not True"),
    ({"density_points": [{"point": [1, 0, 0]}]}, "--liyau",
     "'analytic': 'density_points' entry 0 is missing 'density'"),
    ({"junction_circles": [{"center": [0, 0, 0], "normal": [0, 0, 1], "radius": 1, "density": None}]},
     "--density=1,0,0", "'analytic': 'junction_circles' entry 0: 'density' must be a number, not None"),
    ({"willmore_energy": math.nan}, "--energy", "'analytic': 'willmore_energy' must be finite, not nan"),
    ({"density_points": [{"point": [math.nan, 0, 0], "density": 1}]}, "--liyau",
     "'analytic': 'density_points' entry 0: 'point' must be finite, not [nan, 0, 0]"),
    ({"density_points": [{"point": [1, 0, 0], "density": math.inf}]}, "--density=1,0,0",
     "'analytic': 'density_points' entry 0: 'density' must be finite, not inf"),
    ({"density_points": [{"point": [1, 0, 0], "density": 1, "r_max": -math.inf}]}, "--density=1,0,0",
     "'analytic': 'density_points' entry 0: 'r_max' must be positive and finite, not -inf"),
    ({"density_points": [{"point": [1, 0, 0], "density": 1, "r_max": 0}]}, "--liyau",
     "'analytic': 'density_points' entry 0: 'r_max' must be positive and finite, not 0"),
    ({"junction_circles": [{"center": [0, math.inf, 0], "normal": [0, 0, 1], "radius": 1}]}, "--density=1,0,0",
     "'analytic': 'junction_circles' entry 0: 'center' must be finite, not [0, inf, 0]"),
    ({"junction_circles": [{"center": [0, 0, 0], "normal": [math.nan, 0, 1], "radius": 1}]}, "--density=1,0,0",
     "'analytic': 'junction_circles' entry 0: 'normal' must be finite, not [nan, 0, 1]"),
    ({"junction_circles": [{"center": [0, 0, 0], "normal": [0, 0, 1], "radius": -0.5}]}, "--density=1,0,0",
     "'analytic': 'junction_circles' entry 0: 'radius' must be positive and finite, not -0.5"),
    ({"junction_circles": [{"center": [0, 0, 0], "normal": [0, 0, 1], "radius": 1, "density": math.nan}]},
     "--density=1,0,0", "'analytic': 'junction_circles' entry 0: 'density' must be finite, not nan"),
], ids=["list", "string-density-points", "bool-energy", "float-chi", "bool-chi", "no-density",
        "null-circle-density", "nan-energy", "nan-point", "infinite-density", "infinite-r-max", "zero-r-max",
        "infinite-center", "nan-normal", "negative-radius", "nan-circle-density"])
def test_analytic_block_of_the_wrong_shape_is_input_error(sphere_file, tmp_path, capsys, analytic,
                                                          option, message):
    """``json`` reads ``NaN`` and ``Infinity``, so the reader checks that values are finite, and
    that an ``r_max`` or ``radius`` is positive, as well as their types."""
    doc = read_json(sphere_file)
    doc["analytic"] = analytic
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), option, "-o", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert f"mesh file {str(path)!r}: {message}" in err


_BIG = 10**400  # a JSON integer beyond int64 and beyond float range
_CIRCLE = {"center": [0, 0, 0], "radius": 1, "normal": [0, 0, 1]}


@pytest.mark.parametrize("argv, doc, message", [
    (["boundary", "sup"], {"circles": [{**_CIRCLE, "center": [_BIG, 0, 0]}]},
     "datum file {path!r}: 'circles' entry 0: 'center' must be 3 numbers, not [1{zeros}..."),
    (["boundary", "sup"], {"circles": [{**_CIRCLE, "m": _BIG}]},
     "datum file {path!r}: 'circles' entry 0: 'm' must be an integer, not 1{zeros}0..."),
    (["analyze", "--energy"], {"analytic": {"willmore_energy": _BIG}},
     "mesh file {path!r}: 'analytic': 'willmore_energy' must be a number, not 1{zeros}0..."),
    (["net", "match"], {"total_length": _BIG},
     "link file {path!r} needs an object with 'total_length' as a number, not 1{zeros}0..."),
], ids=["datum-center", "datum-m", "analytic-energy", "link-length"])
def test_an_integer_beyond_int64_is_a_short_error_naming_the_file_and_key(sphere_file, tmp_path, capsys, argv,
                                                                          doc, message):
    # each reader used to exit 2 with Python's bare "int too large to convert to float"
    if argv[0] == "analyze":
        doc = {**read_json(sphere_file), **doc}
    path = str(tmp_path / "in.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))
    assert main([*argv, path]) == 2
    assert capsys.readouterr().err == f"error: {message.format(path=path, zeros='0' * 55)}\n"


def test_junction_circle_with_a_zero_normal_is_input_error(sphere_file, tmp_path, capsys):
    doc = read_json(sphere_file)
    doc["analytic"] = {"junction_circles": [{"center": [0, 0, 0], "normal": [0, 0, 0], "radius": 1}]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "--density=1,0,0", "-o", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == (
        f"error: mesh file {str(path)!r}: 'analytic': 'junction_circles' entry 0: "
        "'normal' must be 3 numbers, not all zero, not [0, 0, 0]\n")


@pytest.mark.parametrize("normal, code, expected", [([1e-100, 0, 0], 1, 1.5), ([1e-200, 0, 0], 0, None)],
                         ids=["tiny", "squared-norm-underflows"])
def test_a_junction_circle_with_a_tiny_normal_matches_until_its_squared_norm_underflows(sphere_file, tmp_path,
                                                                                       normal, code, expected):
    doc = read_json(sphere_file)
    doc["analytic"] = {"junction_circles": [{"center": [0, 0, 0], "normal": normal, "radius": 1, "density": 1.5}]}
    path, report = str(tmp_path / "m.json"), str(tmp_path / "r.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))
    assert main(["analyze", path, "--density=0,1,0", "-o", report]) == code
    row = read_json(report)["analyses"]["density"][0]
    assert "status" not in row and row.get("expected") == expected


def test_analytic_block_may_leave_out_optional_keys(sphere_file, tmp_path):
    doc = read_json(sphere_file)
    doc["analytic"] = {"density_points": [{"point": [0, 0, 1], "density": 1.0}]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "--liyau", "-o", str(tmp_path / "r.json")]) == 0
    assert read_json(str(tmp_path / "r.json"))["analyses"]["liyau"]["n_samples"] == 1


def test_mesh_file_of_the_wrong_shape_is_input_error(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text("3")
    assert main(["analyze", str(path), "--energy"]) == 2
    assert f"mesh file {str(path)!r} is missing the 'vertices' array" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# determinism and thread caps


def test_relaxed_nets_do_not_depend_on_the_blas_core_or_the_simd_level(tmp_path):
    # relax runs in math, in a fixed order: the bytes are the same under every
    # BLAS core and NumPy dispatch level, and pinned (the vertices use only
    # +, -, *, /, sqrt and fsum, which round the same on every IEEE host)
    dodeca = nets.catalogue()[6].net
    x = dodeca.vertices + 0.05 * np.random.default_rng(41).standard_normal(dodeca.vertices.shape)
    x /= np.linalg.norm(x, axis=1)[:, None]
    net = str(tmp_path / "net.json")
    nets.save_net(nets.make_net(x, dodeca.arcs), net)
    hosts = ({}, {"OPENBLAS_CORETYPE": "Haswell"}, {"OPENBLAS_CORETYPE": "Prescott"},
             {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"})
    # each child loads NumPy first, which net relax never does, so that NumPy reads
    # the target: one it cannot honour (another CPU family or build) is an
    # ImportWarning, an error here; that target is skipped, the others checked
    child = "import sys, numpy; from varifold_lab.cli import main; sys.exit(main(sys.argv[1:]))"
    outs, unhonoured = [], []
    for k, host in enumerate(hosts):
        env = {name: value for name, value in _child_env(**host).items()
               if name in host or name not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
        out = tmp_path / f"relaxed-{k}.json"
        proc = subprocess.run([sys.executable, "-W", "error::ImportWarning", "-c", child,
                               "net", "relax", net, "-o", str(out)], capture_output=True, text=True, env=env)
        if host and "You cannot disable CPU features" in proc.stderr:
            unhonoured.append(" ".join(proc.stderr.strip().splitlines()[-3:]))
            continue
        assert proc.returncode == 0, proc.stderr
        outs.append((proc.stdout, out.read_bytes()))
    assert outs[1:] == outs[:1] * (len(outs) - 1)
    doc = json.loads(outs[0][1])
    assert doc["converged"] and doc["iterations"] == 4
    assert hashlib.sha256(json.dumps(doc["vertices"]).encode()).hexdigest() == (
        "5e27e83962e935e68bb6b7d3a136bf294ea83fa2cab4f77bc1fe57302f6bf643")
    if unhonoured:
        pytest.skip("; ".join(unhonoured))


def test_boundary_length_does_not_depend_on_the_blas_core(tmp_path):
    # the total boundary length is a correctly rounded sum, not a BLAS dot,
    # whose rounding moves with the OpenBLAS core
    cap = str(tmp_path / "cap.json")
    assert main(["generate", "cap", "--level", "3", "-o", cap]) == 0
    outs = []
    for k, host in enumerate(({}, {"OPENBLAS_CORETYPE": "Haswell"})):
        env = {name: value for name, value in _child_env(**host).items()
               if name in host or name != "OPENBLAS_CORETYPE"}
        out = tmp_path / f"report-{k}.json"
        proc = subprocess.run([sys.executable, "-m", "varifold_lab.cli", "analyze", cap, "--boundary",
                               "-o", str(out)], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[1] == outs[0]
    assert json.loads(outs[0])["analyses"]["boundary"]["total_length"] == 6.278700406093734


_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _thread_cap_at_numpy_load(extra_env: dict, argv: list[str]) -> list[str]:
    """Run ``main(argv)`` in a child Python with ``extra_env`` and no thread caps set.

    Returns whether NumPy was loaded before ``main``, the four BLAS thread
    variables that an import hook saw when NumPy started to load (which is when
    its BLAS reads them), and whether NumPy was loaded after ``main``.
    """
    script = (
        "import os, sys\n"
        "seen = []\n"
        "class Probe:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy':\n"
        f"            seen.append('/'.join(os.environ.get(k, 'unset') for k in {_BLAS_VARS!r}))\n"
        "sys.meta_path.insert(0, Probe())\n"
        "from varifold_lab.cli import main\n"
        "before = 'numpy' in sys.modules\n"
        "code = main(sys.argv[1:])\n"
        "print(f'probe: before={before} at-load={\",\".join(seen)} after={\"numpy\" in sys.modules}')\n"
        "sys.exit(code)\n"
    )
    env = {k: v for k, v in _child_env().items() if k not in _BLAS_VARS}
    env.update(extra_env)
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()[1:]


def test_blas_threads_are_capped_at_one_before_numpy(tmp_path):
    # `generate` builds a mesh, so it loads NumPy; the net commands no longer do
    argv = ["generate", "sphere", "--level", "0", "-o", str(tmp_path / "sphere.json")]
    got = _thread_cap_at_numpy_load({}, argv)
    assert got == ["before=False", "at-load=1/1/1/1", "after=True"]


def test_a_callers_blas_threads_are_kept(tmp_path):
    argv = ["generate", "sphere", "--level", "0", "-o", str(tmp_path / "sphere.json")]
    got = _thread_cap_at_numpy_load({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}, argv)
    assert got == ["before=False", "at-load=2/2/1/1", "after=True"]


def test_an_in_process_main_leaves_the_blas_variables_as_found(monkeypatch, tmp_path):
    # NumPy is loaded in this process, so a cap could not act here: main must not
    # write one into the environment, which every later subprocess would inherit
    for var in _BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    found = {var: os.environ.get(var) for var in _BLAS_VARS}
    assert main(["generate", "sphere", "--level", "0", "-o", str(tmp_path / "sphere.json")]) == 0
    assert main(["net", "catalogue", "--json", "-o", str(tmp_path / "nets.json")]) == 0
    assert main(["analyze", str(tmp_path / "missing.json"), "--energy"]) == 2
    assert {var: os.environ.get(var) for var in _BLAS_VARS} == found


def test_reports_do_not_depend_on_the_blas_thread_count(sphere_file, tmp_path):
    outs = []
    for k, extra in enumerate(({}, {"OPENBLAS_NUM_THREADS": "2"})):
        out = tmp_path / f"r{k}.json"
        _thread_cap_at_numpy_load(extra, ["analyze", sphere_file, "--energy", "--topology", "--liyau",
                                          "-o", str(out)])
        outs.append(out.read_bytes())
    assert outs[1] == outs[0]
