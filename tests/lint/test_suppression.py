"""Pragma suppression semantics."""

BAD_LINE = "    rng = random.Random()\n"

MODULE = "import random\n\n\ndef roll():\n" + BAD_LINE


def _one_finding(report):
    assert len(report.findings) == 1, report.format_text()
    return report.findings[0]


def test_trailing_pragma_suppresses_own_line(make_tree):
    source = MODULE.replace(
        BAD_LINE,
        "    rng = random.Random()  # repro: allow[determinism] test jitter\n",
    )
    report = make_tree({"repro/sweep/m.py": source})
    assert report.findings == []
    assert len(report.pragma_suppressed) == 1
    assert report.pragma_suppressed[0].check == "determinism"


def test_standalone_pragma_covers_next_line(make_tree):
    source = MODULE.replace(
        BAD_LINE,
        "    # repro: allow[determinism] test jitter\n" + BAD_LINE,
    )
    report = make_tree({"repro/sweep/m.py": source})
    assert report.findings == []
    assert len(report.pragma_suppressed) == 1


def test_pragma_for_a_different_check_does_not_apply(make_tree):
    source = MODULE.replace(
        BAD_LINE,
        "    rng = random.Random()  # repro: allow[picklability] wrong id\n",
    )
    report = make_tree({"repro/sweep/m.py": source})
    assert _one_finding(report).check == "determinism"


def test_wildcard_pragma_suppresses_everything(make_tree):
    source = MODULE.replace(
        BAD_LINE,
        "    rng = random.Random()  # repro: allow[*] fixture\n",
    )
    report = make_tree({"repro/sweep/m.py": source})
    assert report.findings == []


def test_syntax_errors_become_findings(make_tree):
    report = make_tree({"repro/sweep/broken.py": "def broken(:\n"})
    assert any(f.check == "syntax" for f in report.findings)
    assert report.exit_code() == 1
