"""The scripts under tools/, run as a user runs them."""
import json
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
