"""The ``python -m repro.lint`` command-line surface."""

import json
import os

import pytest

from repro.lint.__main__ import main

BAD = "import random\n\n\ndef roll():\n    rng = random.Random()\n"


@pytest.fixture
def bad_tree(tmp_path):
    root = tmp_path / "tree"
    pkg = root / "repro" / "sweep"
    pkg.mkdir(parents=True)
    (root / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "m.py").write_text(BAD)
    return root


def test_check_exits_one_on_findings(bad_tree, capsys):
    assert main(["check", os.fspath(bad_tree)]) == 1
    out = capsys.readouterr().out
    assert "[determinism]" in out and "m.py:5:" in out


def test_check_exits_zero_on_clean_tree(tmp_path, capsys):
    clean = tmp_path / "clean"
    clean.mkdir()
    (clean / "ok.py").write_text("x = 1\n")
    assert main(["check", os.fspath(clean), "--strict"]) == 0


def test_json_report_shape(bad_tree, capsys):
    assert main(["check", os.fspath(bad_tree), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["errors"] == 1
    (finding,) = payload["findings"]
    assert finding["check"] == "determinism" and finding["line"] == 5


def test_json_report_has_no_baseline_layer(bad_tree, capsys):
    assert main(["check", os.fspath(bad_tree), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["format"] == 2
    assert set(payload["summary"]) == {"errors", "warnings", "pragma_suppressed"}
    assert set(payload) == {
        "format",
        "files",
        "checkers",
        "summary",
        "findings",
        "pragma_suppressed",
    }


@pytest.mark.parametrize("flag", ["--baseline=b.json", "--update-baseline"])
def test_baseline_flags_are_gone(bad_tree, flag, capsys):
    # Pragmas are the only suppression layer: the flags are usage errors.
    with pytest.raises(SystemExit) as exc:
        main(["check", os.fspath(bad_tree), flag])
    assert exc.value.code == 2


def test_check_filter_and_unknown_ids(bad_tree, capsys):
    assert main(["check", os.fspath(bad_tree), "--check", "picklability"]) == 0
    assert main(["check", os.fspath(bad_tree), "--check", "nonsense"]) == 2
    assert "unknown checker" in capsys.readouterr().err


def test_missing_path_is_a_usage_error(capsys):
    assert main(["check", "no/such/path"]) == 2


def test_checks_subcommand_lists_all_four(capsys):
    assert main(["checks"]) == 0
    out = capsys.readouterr().out
    assert "backend-protocol" not in out
    for check_id in (
        "canonical-fields",
        "determinism",
        "lock-discipline",
        "picklability",
    ):
        assert check_id in out
