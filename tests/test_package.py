"""The package import: lazy submodules, the public names, and what a command loads."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import varifold_lab
from varifold_lab.cli import main

SUBMODULES = ("reports", "_kernels", "mesh", "curvature", "blowup", "generators", "nets",
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
    assert len(varifold_lab.__all__) == len(set(varifold_lab.__all__)) == 52
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
