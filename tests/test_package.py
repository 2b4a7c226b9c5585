"""The package import: lazy submodules, the public names, and what a command loads."""
import ast
import importlib
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import varifold_lab
from varifold_lab.cli import main

SUBMODULES = ("reports", "_kernels", "mesh", "curvature", "blowup", "generators", "netmatch", "nets",
              "boundary")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def run_python(*argv: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with ``argv``, finding the imported package; it must exit 0."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(varifold_lab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_import_registers_every_submodule_and_loads_no_numpy():
    proc = run_python(
        "-c",
        "import json, sys\n"
        "import varifold_lab\n"
        "registered = sorted(n for n in sys.modules if n.startswith('varifold_lab.'))\n"
        "import varifold_lab.cli\n"
        "print(json.dumps({'registered': registered, 'numpy': 'numpy' in sys.modules}))\n",
    )
    seen = json.loads(proc.stdout)
    assert set(seen["registered"]) == {f"varifold_lab.{m}" for m in SUBMODULES}
    assert seen["numpy"] is False


def test_report_command_never_loads_numpy(tmp_path):
    mesh, report = str(tmp_path / "sphere.json"), str(tmp_path / "report.json")
    assert main(["generate", "sphere", "--level", "2", "-o", mesh]) == 0
    assert main(["analyze", mesh, "--topology", "-o", report]) == 0
    proc = run_python(
        "-c",
        "import sys\n"
        "from varifold_lab.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print('numpy=' + str('numpy' in sys.modules))\n"
        "sys.exit(code)\n",
        "report", report,
    )
    assert "[PASS]" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "numpy=False"


@pytest.mark.parametrize("argv", [["report", "{report}"], ["net", "match", "{link}"]], ids=["report", "net-match"])
def test_report_and_net_match_load_neither_dataclasses_nor_hashlib(inputs, argv):
    assert main(["analyze", inputs["sphere"], "--topology", "-o", inputs["report"]]) == 0
    proc = run_python(
        "-c",
        "import sys\n"
        "from varifold_lab.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(sorted(m for m in ('dataclasses', 'hashlib') if m in sys.modules))\n"
        "sys.exit(code)\n",
        *[a.format(**inputs) for a in argv],
    )
    assert proc.stdout.splitlines()[-1] == "[]"


def command_loads(*argv: str) -> dict:
    """Run the CLI with ``argv`` in a fresh interpreter: its exit code, whether NumPy
    loaded, and for each package module whether it is still unexecuted."""
    proc = run_python(
        "-c",
        "import importlib.util, json, sys\n"
        "from varifold_lab.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "lazy = {n: type(m) is importlib.util._LazyModule for n, m in sys.modules.items()\n"
        "        if n.startswith('varifold_lab.')}\n"
        "print(json.dumps({'code': code, 'numpy': 'numpy' in sys.modules, 'lazy': lazy}))\n",
        *argv,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def inputs(tmp_path):
    """A net, a boundary datum, a link file and a sphere mesh with a point on it."""
    paths = {k: str(tmp_path / f"{k}.json") for k in ("net", "datum", "link", "sphere", "report")}
    varifold_lab.save_net(varifold_lab.catalogue()[2].net, paths["net"])
    circle = varifold_lab.CircleSpec(center=[0.0, 0.0, 0.0], radius=1.0, normal=[0.0, 0.0, 1.0])
    varifold_lab.save_datum(varifold_lab.make_datum([circle]), paths["datum"])
    Path(paths["link"]).write_text(json.dumps({"total_length": 3 * math.pi}))
    out = varifold_lab.gen_sphere(1.0, 2)
    varifold_lab.save_varifold(out.varifold, paths["sphere"], analytic=out.analytic)
    paths["point"] = ",".join(map(repr, out.analytic["density_points"][0]["point"]))
    return paths


@pytest.mark.parametrize("argv", [["net", "match", "6.283185307179586"], ["net", "match", "{link}"]],
                         ids=["length", "file"])
def test_net_match_never_loads_numpy(inputs, argv):
    seen = command_loads(*[a.format(**inputs) for a in argv])
    assert seen["code"] == 0
    assert seen["numpy"] is False
    assert seen["lazy"]["varifold_lab.netmatch"] is False and seen["lazy"]["varifold_lab.nets"] is True


@pytest.mark.parametrize("argv", [["net", "relax", "{moved}", "-o", "{report}"], ["net", "catalogue"],
                                  ["net", "catalogue", "--json"]], ids=["relax", "catalogue", "catalogue-json"])
def test_net_relax_and_catalogue_never_load_numpy(inputs, tmp_path, argv):
    # the tetrahedron with each vertex moved off balance: relax takes Gauss-Newton steps
    tetra, moved = varifold_lab.catalogue()[2].net, []
    for k, p in enumerate(tetra.points):
        q = [c + 0.05 * math.sin(3 * k + i + 1) for i, c in enumerate(p)]
        moved.append([c / math.hypot(*q) for c in q])
    inputs["moved"] = str(tmp_path / "moved.json")
    varifold_lab.save_net(varifold_lab.make_net(moved, tetra.rows), inputs["moved"])
    seen = command_loads(*[a.format(**inputs) for a in argv])
    assert seen["code"] == 0
    assert seen["numpy"] is False
    assert seen["lazy"]["varifold_lab.nets"] is False and seen["lazy"]["varifold_lab.mesh"] is True
    if argv[1] == "relax":
        assert json.loads(Path(inputs["report"]).read_text())["iterations"] > 1


@pytest.mark.parametrize("argv", [["net", "relax", "{net}"], ["boundary", "sup", "{datum}"],
                                  ["boundary", "admissible", "{datum}", "--p", "1"]],
                         ids=["net-relax", "boundary-sup", "boundary-admissible"])
def test_net_and_boundary_commands_leave_the_mesh_module_unexecuted(inputs, argv):
    seen = command_loads(*[a.format(**inputs) for a in argv])
    assert seen["code"] == 0
    assert seen["lazy"]["varifold_lab.mesh"] is True
    assert seen["lazy"]["varifold_lab._kernels"] is True


@pytest.mark.parametrize("argv", [["boundary", "sup", "{datum}"], ["boundary", "admissible", "{datum}", "--p", "1"],
                                  ["boundary", "circle-integral", "{datum}", "--point", "0,0,1", "--quad", "256"]],
                         ids=["sup", "admissible", "circle-integral"])
def test_boundary_commands_never_load_numpy(inputs, argv):
    seen = command_loads(*[a.format(**inputs) for a in argv])
    assert seen["code"] == 0
    assert seen["numpy"] is False
    assert seen["lazy"]["varifold_lab.mesh"] is True and seen["lazy"]["varifold_lab._kernels"] is True


def test_the_sup_of_two_circles_never_loads_numpy():
    proc = run_python(
        "-c",
        "import sys\n"
        "from varifold_lab import boundary as b\n"
        "d = b.make_datum([b.CircleSpec([0.1, 0.2, 0.3], 2.0, [0, 1, 1], m=2, conormal_sign=-1),\n"
        "                  b.CircleSpec([1, -2, 0.5], 0.75, [0.3, -0.2, 0.9])])\n"
        "print(b.sup_conormal_integral(d).kind, 'numpy' in sys.modules)\n",
    )
    assert proc.stdout.split() == ["circle", "False"]


def test_analyze_link_leaves_the_nets_module_unexecuted(inputs):
    seen = command_loads("analyze", inputs["sphere"], f"--link={inputs['point']}:0.3", "-o", inputs["report"])
    assert seen["code"] == 0
    assert json.loads(Path(inputs["report"]).read_text())["analyses"]["link"][0]["match"] == "great circle"
    assert seen["lazy"]["varifold_lab.netmatch"] is False
    assert seen["lazy"]["varifold_lab.nets"] is True


def test_sanitize_gives_the_same_plain_values_with_and_without_numpy():
    proc = run_python(
        "-c",
        "import json, sys\n"
        "from varifold_lab.reports import canonical_dumps\n"
        "doc = {'a': [1, 2.5, -0.0, float('nan'), float('inf'), -float('inf')],\n"
        "       'b': (True, None, 'x', [[]]), 3: {'c': {'d': 1e300}}}\n"
        "without = canonical_dumps(doc), 'numpy' in sys.modules\n"
        "import numpy\n"
        "print(json.dumps([without, (canonical_dumps(doc), 'numpy' in sys.modules)]))\n",
    )
    (without, before), (with_numpy, after) = json.loads(proc.stdout)
    assert (before, after) == (False, True)
    assert without == with_numpy
    assert without == ('{"3":{"c":{"d":1e+300}},"a":[1,2.5,-0.0,"nan","inf","-inf"],'
                       '"b":[true,null,"x",[[]]]}\n')


def test_generate_and_analyze_never_load_numpy_ma(tmp_path):
    # a plain np.unique(x) imports numpy.ma, 13-18 ms per process
    tb, bare = str(tmp_path / "tb.json"), str(tmp_path / "bare.json")
    proc = run_python(
        "-c",
        "import sys\n"
        "from varifold_lab.cli import main\n"
        "from varifold_lab.mesh import load_mesh_file, save_varifold\n"
        "tb, bare, out = sys.argv[1:]\n"
        "codes = [main(['generate', 'triple-bubble', '--level', '2', '-o', tb]),\n"
        "         main(['analyze', tb, '--link=0,0,0:0.3', '-o', out])]\n"
        "save_varifold(load_mesh_file(tb)[0], bare)  # no density points: --liyau samples vertices\n"
        "codes.append(main(['analyze', bare, '--liyau', '-o', out]))\n"
        "print(codes, 'numpy.ma' in sys.modules)\n",
        tb, bare, str(tmp_path / "report.json"),
    )
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] False"


def test_public_names_are_their_home_modules_attributes():
    namespace: dict = {}
    exec("from varifold_lab import *", namespace)
    for name in varifold_lab.__all__:
        if name == "__version__":
            home = importlib.import_module("varifold_lab.reports").TOOL_VERSION
        else:
            home = getattr(importlib.import_module(f"varifold_lab.{varifold_lab._HOME[name]}"), name)
        assert getattr(varifold_lab, name) is home, name
        assert namespace[name] is home, name
    assert len(varifold_lab.__all__) == len(set(varifold_lab.__all__)) == 50
    assert set(varifold_lab.__all__) <= set(dir(varifold_lab))


def test_the_package_table_is_the_one_list_of_public_names():
    for module in SUBMODULES:
        assert not hasattr(importlib.import_module(f"varifold_lab.{module}"), "__all__"), module
    for name, home in varifold_lab._HOME.items():
        obj = getattr(varifold_lab, name)
        if callable(obj):
            assert obj.__module__ == f"varifold_lab.{home}", name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        varifold_lab.no_such_name
    with pytest.raises(ImportError):
        exec("from varifold_lab import no_such_name", {})


def test_running_the_cli_module_prints_no_warning():
    proc = run_python("-W", "default", "-m", "varifold_lab.cli", "--help")
    assert "usage:" in proc.stdout
    assert "Warning" not in proc.stderr


def test_benchmark_tracer_wraps_the_lazily_loaded_modules():
    # the tracer reads sys.modules["varifold_lab.<module>"] right after
    # `import varifold_lab`, then wraps each binding it finds in their dicts
    proc = run_python(
        "-c",
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from varifold_lab import cli\n"
        "from tracing import Tracer\n"
        "tracer = Tracer()\n"
        "with tracer.installed():\n"
        "    import varifold_lab as vl\n"
        "    v = vl.gen_sphere(1.0, 2).varifold\n"
        "    theta = vl.density(v, v.vertices[0]).theta\n"
        "print(json.dumps({'theta': theta, 'spans': [s[0] for s in tracer.spans]}))\n",
        str(PERFBENCH),
    )
    seen = json.loads(proc.stdout)
    assert seen["theta"] == pytest.approx(1.0, abs=0.05)  # sphere L2 gives 1.023
    assert {"generators.gen_sphere", "blowup.density", "kernels.ball_masses"} <= set(seen["spans"])


def test_every_traced_name_is_a_function_of_its_module():
    """The benchmark's tracer wraps library functions by module and name, so a
    function it names may be renamed or deleted only together with its entry."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{modname}.{fname}" for modname, fnames in tracing.TRACED.items()
               for fname in fnames
               if not inspect.isfunction(getattr(importlib.import_module(f"varifold_lab.{modname}"),
                                                 fname, None))]
    assert missing == []


def test_every_cross_product_is_the_kernels_one():
    """``_kernels._cross`` forms the products and differences of ``np.cross``
    without its broadcasting set-up; no module calls ``np.cross`` itself."""
    src = Path(varifold_lab.__file__).parent
    assert [p.name for p in sorted(src.glob("*.py")) if "np.cross(" in p.read_text()] == []


def test_rows_of_3_vectors_are_reduced_by_the_kernels_helpers():
    """Squared norms, norms and dots of rows of 3-vectors are ``_kernels._sq``, ``_norm`` and
    ``_inner``, whose summation order is fixed. The ``np.einsum`` and ``np.linalg.norm`` calls
    left are these, by module and top-level function: the 3×3 products of
    ``second_fundamental_norm``, and ``mesh_scale``'s norm of one 3-vector, the square root of
    a BLAS dot product like ``_kernels._dot``'s."""
    src = Path(varifold_lab.__file__).parent
    calls = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            calls += [(path.stem, getattr(top, "name", None), ast.unparse(node.func))
                      for node in ast.walk(top) if isinstance(node, ast.Call)
                      and ast.unparse(node.func) in ("np.einsum", "np.linalg.norm")]
    assert sorted(calls) == [
        ("curvature", "second_fundamental_norm", "np.einsum"),
        ("curvature", "second_fundamental_norm", "np.einsum"),
        ("mesh", "mesh_scale", "np.linalg.norm"),
    ]


def test_every_angle_is_the_kernels_atan2():
    """Angles are ``_kernels._atan2``, libm's ``math.atan2`` over arrays, whose bits do not
    depend on the SIMD level; no module calls ``np.arctan2``, and ``math.atan2`` is read only
    in ``_atan2``."""
    src = Path(varifold_lab.__file__).parent
    reads = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            reads += [(path.stem, getattr(top, "name", None), ast.unparse(node)) for node in ast.walk(top)
                      if isinstance(node, ast.Attribute) and node.attr in ("atan2", "arctan2")]
    assert reads == [("_kernels", "_atan2", "math.atan2")]


def test_the_mesh_module_is_the_one_owner_of_edge_structure():
    """Edge keys min·V + max are formed by ``mesh._edge_keys`` and the CSR incidence
    arrays ``offsets``, ``inc_faces`` and ``inc_signs`` are read by ``mesh._incidences``
    (``edge_topology`` builds them); every other function calls these helpers."""
    src = Path(varifold_lab.__file__).parent
    keys, reads = [], []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = (path.stem, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr in ("offsets", "inc_faces", "inc_signs"):
                    reads.append(where)
                elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                      and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Mult)
                      and ast.unparse(node.left.left).startswith("np.minimum(")
                      and ast.unparse(node.right).startswith("np.maximum(")):
                    keys.append(where)
    assert keys == [("mesh", "_edge_keys")]
    assert sorted(set(reads)) == [("mesh", "_incidences")]


def test_the_mesh_module_is_the_one_owner_of_what_an_analysis_admits():
    """The six messages that say why a mesh does not admit an analysis are raised by
    ``mesh._require`` only; every analysis states what it needs in one call to it."""
    src = Path(varifold_lab.__file__).parent
    messages = ("varifold has no faces", "mesh is not closed", "mesh is not manifold",
                "operation requires an oriented mesh", "face windings disagree")
    raises = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            raises += [(path.stem, getattr(top, "name", None)) for node in ast.walk(top)
                       if isinstance(node, ast.Raise) and any(m in ast.unparse(node) for m in messages)]
    assert raises == [("mesh", "_require")] * 6


def test_derived_arrays_are_frozen_in_one_place():
    """``_values._frozen`` makes a mesh's own arrays read-only in ``DiscreteVarifold.__post_init__``,
    the arrays of every structure it derives in ``mesh._freeze``, and a net's in ``nets._array``;
    no builder calls it."""
    src = Path(varifold_lab.__file__).parent
    calls = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for part in top.body if isinstance(top, ast.ClassDef) else [top]:
                name = getattr(top, "name", None) if part is top else f"{top.name}.{getattr(part, 'name', None)}"
                calls += [(path.stem, name) for node in ast.walk(part) if isinstance(node, ast.Call)
                          and ast.unparse(node.func).split(".")[-1] == "_frozen"]
    assert sorted(set(calls)) == [("mesh", "DiscreteVarifold.__post_init__"), ("mesh", "_freeze"),
                                  ("nets", "_array")]


def test_nets_and_circles_check_their_input_without_numpy():
    """``boundary``, ``netmatch`` and ``nets`` check their input in Python: no
    module imports ``_values._numeric``, and NumPy is imported only inside
    ``nets._array``, which builds a net's arrays when they are read."""
    src = Path(varifold_lab.__file__).parent
    numeric, numpy = [], []
    for name in ("boundary", "netmatch", "nets"):
        tree = ast.parse((src / f"{name}.py").read_text())
        owner = {}  # node -> the innermost function that holds it
        for f in ast.walk(tree):
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(map(id, ast.walk(f)), f.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                numeric += [name] * any(a.name == "_numeric" for a in node.names)
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                continue
            numpy += [(name, owner.get(id(node))) for m in modules if m.split(".")[0] == "numpy"]
    assert numeric == []
    assert numpy == [("nets", "_array")]


def test_values_is_the_one_home_of_plain_python_numbers_and_vectors():
    """Only ``_values`` defines the plain-Python ``_dot``, ``_cross``, ``_unit``,
    ``_is_int`` and ``_is_number``, and the argument readers ``_point``, ``_length``
    and ``_nonnegative`` (``_kernels``' ``_dot`` and ``_cross`` are the NumPy ones, and
    its ``_point`` the array of ``_values._point``); ``cli`` imports no NumPy; and
    ``boundary``, ``cli``, ``generators`` and ``nets`` import no ``numbers`` and test no value
    against a number type of their own."""
    src = Path(varifold_lab.__file__).parent
    homes, imports, own = {}, {}, []
    vocabulary = ("_dot", "_cross", "_unit", "_is_int", "_is_number", "_point", "_length", "_nonnegative")
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in vocabulary:
                homes.setdefault(node.name, []).append(path.stem)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [node.module or ""] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
                imports.setdefault(path.stem, []).extend(n.split(".")[0] for n in names)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
                own += [(path.stem, ast.unparse(k)) for k in kinds
                        if ast.unparse(k).split(".")[-1] in ("int", "float", "Integral", "Real", "Number")]
    assert homes == {"_dot": ["_kernels", "_values"], "_cross": ["_kernels", "_values"], "_unit": ["_values"],
                     "_is_int": ["_values"], "_is_number": ["_values"],
                     "_point": ["_kernels", "_values"], "_length": ["_values"], "_nonnegative": ["_values"]}
    assert "numpy" not in imports["cli"]
    assert [m for m in ("boundary", "cli", "generators", "nets") if "numbers" in imports[m]] == []
    assert [(m, k) for m, k in own if m in ("boundary", "cli", "generators", "nets")] == []
