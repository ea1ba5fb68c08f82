"""The same-process ratio claims: plumbing and parity in smoke mode, not speed."""

import pytest

from repro.bench import claims
from repro.bench.__main__ import main
from repro.bench.references import DEFAULT_REFERENCES, WILDCARD

CLAIMS = [
    pytest.param(suite, claim, id=f"{suite}.{claim.__name__}")
    for suite, spec in claims.SUITES.items()
    for claim in spec.claims
]


@pytest.mark.parametrize("suite,claim", CLAIMS)
def test_claim_smoke_parity(suite, claim):
    measure = claims.run_claim(claim, smoke=True)
    assert measure.mismatches == []
    prefix = f"{suite}.{claim.__name__}."
    banded = {
        name[len(prefix):] for name in DEFAULT_REFERENCES[WILDCARD]
        if name.startswith(prefix)
    }
    assert banded <= set(measure.metrics), "a banded claim metric was not recorded"
    assert all(value == value for value in measure.metrics.values())  # no NaN


def test_every_claim_band_names_a_claim():
    names = {
        f"{suite}.{claim.__name__}."
        for suite, spec in claims.SUITES.items()
        for claim in spec.claims
    }
    for metric in DEFAULT_REFERENCES[WILDCARD]:
        suite = metric.split(".", 1)[0]
        if suite in claims.SUITES:
            assert any(metric.startswith(name) for name in names), metric


def passing(m):
    m.record(speedup=9.0)


def mismatching(m):
    m.record(speedup=9.0)
    m.check(False, "outputs differ")


def crashing(m):
    raise RuntimeError("boom")


class TestSuiteRunner:
    @pytest.fixture
    def fake_suites(self, monkeypatch):
        monkeypatch.setattr(claims, "SUITES", {
            "good": claims.Suite("passes", (passing,)),
            "bad": claims.Suite("a parity failure and a crash",
                                (passing, mismatching, crashing)),
        })

    def test_metrics_are_named_by_claim(self, fake_suites):
        result = claims.run_suite("good", smoke=True)
        assert result.metrics == {"passing.speedup": 9.0}
        assert result.correct and result.failed == 0 and result.smoke

    def test_parity_failures_and_crashes_count(self, fake_suites, capsys):
        result = claims.run_suite("bad")
        assert result.failed == 2 and not result.correct
        assert result.metrics == {"passing.speedup": 9.0, "mismatching.speedup": 9.0}
        captured = capsys.readouterr()
        assert "MISMATCH: bad.mismatching: outputs differ" in captured.out
        assert "RuntimeError: boom" in captured.err

    def test_run_gates_and_records(self, fake_suites, capsys, monkeypatch):
        import repro.bench.__main__ as cli

        monkeypatch.setattr(cli, "SUITES", claims.SUITES)
        assert main(["run", "good"]) == 0
        assert main(["run", "--smoke"]) == 1  # "bad" is incorrect
        with pytest.raises(SystemExit):
            main(["run", "nope"])


@pytest.mark.parametrize("argv", [[], ["record", "x"], ["trend"], ["--smoke"]])
def test_unknown_verb_names_the_subcommands(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "choose a subcommand: run, gate" in err
    assert "unrecognized arguments" not in err
