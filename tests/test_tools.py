"""The scripts under tools/, run as a user runs them."""
import json
import math
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _digest_diff(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOLS / "digest_diff.py"), *argv], capture_output=True, text=True)


def _details(path: Path, digests) -> str:
    """A details file as ``perfbench/run.py`` writes it, reduced to a few keys."""
    path.write_text(json.dumps({"metrics": {"run_s": 1.0}, "digests": digests}, indent=1, sort_keys=True))
    return str(path)


def test_digest_diff_lists_every_key_that_moved(tmp_path):
    before = _details(tmp_path / "before.json", {"db.json": ["aa"], "gone.json": ["cc"], "seed1/ops": ["dd", "ee"],
                                                 "sphere.json": ["bb"]})
    after = _details(tmp_path / "after.json", {"db.json": ["ab"], "new.json": ["ff"], "seed1/ops": ["dd", "ee"],
                                               "sphere.json": ["bb"]})
    proc = _digest_diff(before, after)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout.splitlines() == [
        "db.json: ['aa'] -> ['ab']",
        "gone.json: ['cc'] -> absent",
        "new.json: absent -> ['ff']",
        "3 of 5 keys moved",
    ]


def test_digest_diff_of_equal_digests_moves_nothing(tmp_path):
    before = _details(tmp_path / "before.json", {"sphere.json": ["bb"], "seed1/ops": ["dd", "ee"]})
    after = _details(tmp_path / "after.json", {"seed1/ops": ["dd", "ee"], "sphere.json": ["bb"]})
    proc = _digest_diff(before, after)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 of 2 keys moved\n", "")


def test_digest_diff_rejects_what_is_no_details_file(tmp_path):
    good = _details(tmp_path / "good.json", {"sphere.json": ["bb"]})
    (tmp_path / "bare.json").write_text(json.dumps({"metrics": {}}))
    (tmp_path / "text.json").write_text("not json")
    for argv in ([good], [good, str(tmp_path / "bare.json")], [str(tmp_path / "text.json"), good],
                 [good, str(tmp_path / "missing.json")]):
        proc = _digest_diff(*argv)
        assert proc.returncode == 2 and proc.stdout == "" and proc.stderr, argv


def _src_lines(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOLS / "src_lines.py"), *argv], capture_output=True, text=True)


def _tree(path: Path, modules: dict[str, str]) -> str:
    path.mkdir()
    for name, text in modules.items():
        (path / name).write_text(text)
    return str(path)


#: 10 physical lines: 3 code lines, a two-line module docstring, a function docstring, a
#: comment line and three blank lines; a comment after code leaves its line a code line
_A = '''"""Module docstring
over two lines."""
import os  # a comment after code


# a comment line

def f():
    """One line."""
    return os.sep
'''
#: 4 physical lines: 2 code lines, a class docstring and a blank line; a string that is not
#: the first statement is code
_B = '''class C:
    """Doc."""

    x = "not a docstring"
'''


def test_src_lines_counts_code_and_physical_lines(tmp_path):
    proc = _src_lines(_tree(tmp_path / "src", {"a.py": _A, "b.py": _B, "notes.txt": "not a module\n"}))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert [line.split() for line in proc.stdout.splitlines()] == [
        ["module", "code", "physical"],
        ["a.py", "3", "10"],
        ["b.py", "2", "4"],
        ["total", "5", "14"],
    ]


def test_src_lines_compares_two_trees(tmp_path):
    old = _tree(tmp_path / "old", {"a.py": _A, "b.py": _B})
    new = _tree(tmp_path / "new", {"a.py": _A + "x = 1\n", "c.py": "y = 2\n"})
    proc = _src_lines(old, new)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert [line.split() for line in proc.stdout.splitlines()] == [
        ["module", "code", "new", "delta", "physical", "new"],
        ["a.py", "3", "4", "+1", "10", "11"],
        ["b.py", "2", "0", "-2", "4", "0"],
        ["c.py", "0", "1", "+1", "0", "1"],
        ["total", "5", "5", "+0", "14", "12"],
    ]


def test_src_lines_rejects_three_trees(tmp_path):
    src = _tree(tmp_path / "src", {"a.py": _A})
    proc = _src_lines(src, src, src)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "usage: python tools/src_lines.py [SRC_DIR [NEW_SRC_DIR]]\n"


def _ulps(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOLS / "ulps.py"), *argv], capture_output=True, text=True)


SRC = str(TOOLS.parent / "src")


def test_ulps_of_a_tree_against_itself_moves_nothing():
    proc = _ulps(SRC, SRC)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["quantity", "values", "moved", "ulps", "of", "scale"]
    rows = [line.split() for line in lines[1:-1]]
    assert [row[0] for row in rows] == sorted(row[0] for row in rows) and len(rows) == 13
    assert all(int(row[1]) > 0 and row[2:] == ["0", "0", "0"] for row in rows)
    assert lines[-1] == "0 moved"


def test_ulps_counts_each_move_in_ulps_of_the_value_and_of_the_scale():
    sys.path.insert(0, str(TOOLS))
    try:
        import ulps
    finally:
        sys.path.remove(str(TOOLS))
    four = 4.0 + 2 * math.ulp(4.0)
    before = {"a": [1.0, 4.0, -0.0, 1e-20], "b": [math.nan, 2.0]}
    after = {"a": [1.0, four, 0.0, 2e-20], "b": [math.nan, math.inf]}
    # 4 → 4 + 2 ulp(4) is 2 ulps of itself and of the scale, 4; 1e-20 → 2e-20 is ~3e15 ulps of
    # itself and ~1e-5 of the scale; ±0 and two NaNs are equal, a move to inf is inf ulps
    assert ulps.table(before, after) == [("a", 4, 2, 1e-20 / math.ulp(2e-20), 2.0), ("b", 2, 1, math.inf, math.inf)]


def test_ulps_rejects_one_tree():
    proc = _ulps(SRC)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "usage: python tools/ulps.py PARENT_SRC CHANGE_SRC\n"
