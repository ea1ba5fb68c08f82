"""Meta-tests against the real source tree.

Two guarantees, both required by the lint contract:

* the tree as committed is **strict-clean** (the CI gate is meaningful);
* deliberately re-introducing a contract violation into real modules makes
  the gate go red *at the right file and line* (the gate has teeth).
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.lint import run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def _copy_real(tmp_path, *relpaths, patches=None):
    """Copy real src files into a fixture tree, optionally patched."""
    patches = patches or {}
    root = tmp_path / "tree"
    for relpath in relpaths:
        text = (SRC / relpath).read_text()
        if relpath in patches:
            text = patches[relpath](text)
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        directory = target.parent
        while directory != root:
            init = directory / "__init__.py"
            if not init.exists():
                init.write_text("")
            directory = directory.parent
        target.write_text(text)
    return root


def test_real_tree_is_strict_clean():
    report = run_lint([os.fspath(SRC)])
    assert report.exit_code(strict=True) == 0, report.format_text()
    assert report.pragma_suppressed, "expected the sanctioned pragma sites"


def test_cli_gate_on_real_tree():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.fspath(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "check", "src", "--strict"],
        cwd=os.fspath(REPO_ROOT),
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_wall_clock_in_record_module_turns_the_gate_red(tmp_path):
    stamp = "\n\nimport time\n_NOW = time.time()\n"
    root = _copy_real(
        tmp_path,
        "repro/sweep/record.py",
        patches={"repro/sweep/record.py": lambda text: text + stamp},
    )
    report = run_lint([os.fspath(root)])
    hits = [f for f in report.findings if f.check == "determinism"]
    assert len(hits) == 1
    expected_line = len((SRC / "repro/sweep/record.py").read_text().splitlines()) + 4
    assert hits[0].path.endswith("repro/sweep/record.py")
    assert hits[0].line == expected_line
    assert "time.time" in hits[0].message
    assert report.exit_code() == 1


def test_unlocked_read_in_plan_cache_turns_the_gate_red(tmp_path):
    unsafe = "    def _unsafe_probe(self):\n        return self._entries\n\n"

    def patch(text):
        # Insert a bare access as the first method of PlanCache.
        anchor = text.index("\n    def ", text.index("class PlanCache")) + 1
        return text[:anchor] + unsafe + text[anchor:]

    root = _copy_real(
        tmp_path,
        "repro/pipeline/cache.py",
        patches={"repro/pipeline/cache.py": patch},
    )
    patched = (root / "repro/pipeline/cache.py").read_text()
    expected_line = (
        patched.splitlines().index("        return self._entries") + 1
    )
    report = run_lint([os.fspath(root)])
    hits = [f for f in report.findings if f.check == "lock-discipline"]
    assert len(hits) == 1
    assert hits[0].path.endswith("cache.py")
    assert hits[0].line == expected_line
    assert "_entries" in hits[0].message
    assert report.exit_code() == 1
