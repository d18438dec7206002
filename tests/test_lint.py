"""Tests for the ``repro lint`` static-analysis engine and its rules.

Rule behaviour is exercised against checked-in fixture trees
(``tests/lint_fixtures/<rule>/{good,bad}``) whose inner paths mimic the
``src/repro`` shapes the rules gate on; engine mechanics (suppressions,
baselines, reporters, exit codes, parallelism, parse cache) run against
temp files.  The suite ends with the gate that matters: the full rule
set over ``src/repro`` itself is clean.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools.lint import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_FINDINGS,
    all_rules,
    exit_code,
    lint_paths,
    parse_cache_info,
    render_json,
    render_text,
)
from repro.devtools.lint.baseline import write_baseline
from repro.errors import ConfigurationError

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

# (target rule, fixture dir, rules to select).  unused-suppression also
# selects telemetry-discipline: stale-vs-live accounting only applies
# to suppressions of rules that actually ran.
RULE_CASES = [
    ("hot-path-scalar-calls", "hot_path", ["hot-path-scalar-calls"]),
    ("pickle-discipline", "pickle", ["pickle-discipline"]),
    ("telemetry-discipline", "telemetry", ["telemetry-discipline"]),
    ("event-wire-exhaustiveness", "events_wire", ["event-wire-exhaustiveness"]),
    ("lock-discipline", "locks", ["lock-discipline"]),
    ("suppression-discipline", "suppress", ["suppression-discipline"]),
    ("unused-suppression", "unused", ["unused-suppression", "telemetry-discipline"]),
]

_CASE_IDS = [rule for rule, _, _ in RULE_CASES]


def _fixture_options(tree: Path) -> dict:
    catalogue = tree / "catalogue.py"
    if catalogue.is_file():
        return {"event-catalogue": str(catalogue)}
    return {}


@pytest.mark.parametrize("rule,subdir,select", RULE_CASES, ids=_CASE_IDS)
def test_bad_fixture_is_flagged(rule, subdir, select):
    tree = FIXTURES / subdir / "bad"
    result = lint_paths([tree], select=select, options=_fixture_options(tree))
    assert not result.errors
    assert result.findings, f"bad fixture for {rule} produced no findings"
    assert all(f.rule == rule for f in result.findings)


@pytest.mark.parametrize("rule,subdir,select", RULE_CASES, ids=_CASE_IDS)
def test_good_fixture_is_clean(rule, subdir, select):
    tree = FIXTURES / subdir / "good"
    result = lint_paths([tree], select=select, options=_fixture_options(tree))
    assert not result.errors
    assert result.findings == []


def test_hot_path_confines_realtime_decide_to_the_reference():
    """``attack/realtime.py`` may call ``.decide(`` only inside the
    ``execute_attack_reference`` oracle."""
    select = ["hot-path-scalar-calls"]
    good = lint_paths([FIXTURES / "hot_path_realtime" / "good"], select=select)
    assert not good.errors
    assert good.findings == []
    bad = lint_paths([FIXTURES / "hot_path_realtime" / "bad"], select=select)
    assert not bad.errors
    (finding,) = bad.findings
    assert finding.path.endswith("attack/realtime.py")
    assert "execute_attack_reference" in finding.message
    assert "in execute_attack)" in finding.message


def test_hot_path_confines_simulation_decide_to_the_oracle_and_probe():
    """``hvac/simulation.py`` may call ``.decide(`` only inside the
    ``simulate_reference`` oracle and ``simulate``'s ASHRAE probe."""
    select = ["hot-path-scalar-calls"]
    good = lint_paths([FIXTURES / "hot_path_simulation" / "good"], select=select)
    assert not good.errors
    assert good.findings == []
    bad = lint_paths([FIXTURES / "hot_path_simulation" / "bad"], select=select)
    assert not bad.errors
    (finding,) = bad.findings
    assert finding.path.endswith("hvac/simulation.py")
    assert "simulate, simulate_reference" in finding.message
    assert "in _simulate_fast)" in finding.message


def test_lock_discipline_names_the_lock_and_declaration():
    tree = FIXTURES / "locks" / "bad"
    result = lint_paths([tree], select=["lock-discipline"])
    (finding,) = result.findings
    assert "'in_use'" in finding.message
    assert "'slot_free'" in finding.message
    assert finding.path.endswith("runner/scheduler.py")


# ---------------------------------------------------------------------------
# engine mechanics


def _write(tmp_path: Path, relative: str, body: str) -> Path:
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(body))
    return path


def test_same_line_suppression_drops_the_finding(tmp_path):
    _write(
        tmp_path,
        "runner/mod.py",
        """\
        print("x")  # repro-lint: disable=telemetry-discipline
        """,
    )
    result = lint_paths([tmp_path])
    assert result.clean


def test_standalone_suppression_applies_to_next_line(tmp_path):
    _write(
        tmp_path,
        "runner/mod.py",
        """\
        # repro-lint: disable=telemetry-discipline  benign debug escape
        print("x")
        """,
    )
    result = lint_paths([tmp_path])
    assert result.clean


def test_suppression_is_rule_specific(tmp_path):
    _write(
        tmp_path,
        "runner/mod.py",
        """\
        print("x")  # repro-lint: disable=lock-discipline
        """,
    )
    result = lint_paths([tmp_path])
    rules = sorted(f.rule for f in result.findings)
    # The print still fires, and the mismatched suppression is stale.
    assert rules == ["telemetry-discipline", "unused-suppression"]


def test_unknown_rule_suppression_is_flagged(tmp_path):
    _write(
        tmp_path,
        "mod.py",
        """\
        value = 1  # repro-lint: disable=no-such-rule
        """,
    )
    result = lint_paths([tmp_path])
    (finding,) = result.findings
    assert finding.rule == "unused-suppression"
    assert "no-such-rule" in finding.message


def test_baseline_grandfathers_then_expires(tmp_path):
    target = _write(
        tmp_path,
        "runner/mod.py",
        """\
        print("a")
        print("b")
        """,
    )
    baseline = tmp_path / "baseline.json"
    first = lint_paths([target])
    assert len(first.findings) == 2
    assert write_baseline(baseline, first.findings, first.sources) == 2

    grandfathered = lint_paths([target], baseline_path=baseline)
    assert grandfathered.clean

    # A *new* violation is not excused — and baseline matching keys on
    # line content, so the old ones stay excused after the shift.
    target.write_text('print("new")\n' + target.read_text())
    shifted = lint_paths([target], baseline_path=baseline)
    assert [f.line for f in shifted.findings] == [1]


def test_baseline_matching_is_count_aware(tmp_path):
    target = _write(tmp_path, "runner/mod.py", 'print("a")\n')
    baseline = tmp_path / "baseline.json"
    first = lint_paths([target])
    write_baseline(baseline, first.findings, first.sources)
    # Duplicate the baselined line: one copy is excused, not both.
    target.write_text('print("a")\nprint("a")\n')
    result = lint_paths([target], baseline_path=baseline)
    assert len(result.findings) == 1


def test_malformed_baseline_is_a_configuration_error(tmp_path):
    target = _write(tmp_path, "mod.py", "value = 1\n")
    baseline = tmp_path / "baseline.json"
    baseline.write_text('{"oops": true}')
    with pytest.raises(ConfigurationError):
        lint_paths([target], baseline_path=baseline)


def test_unknown_select_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="no-such-rule"):
        lint_paths([FIXTURES], select=["no-such-rule"])


def test_syntax_error_is_an_engine_error_not_a_finding(tmp_path):
    _write(tmp_path, "mod.py", "def broken(:\n")
    result = lint_paths([tmp_path])
    assert not result.findings
    assert len(result.errors) == 1
    assert "syntax error" in result.errors[0].message
    assert exit_code(result) == EXIT_ERROR


def test_missing_path_is_an_engine_error():
    result = lint_paths(["no/such/path.py"])
    assert result.errors and exit_code(result) == EXIT_ERROR


def test_parallel_run_matches_serial():
    serial = lint_paths([FIXTURES], jobs=1)
    parallel = lint_paths([FIXTURES], jobs=4)
    assert parallel.findings == serial.findings
    assert parallel.errors == serial.errors
    assert parallel.files == serial.files


def test_parse_cache_dedupes_identical_sources(tmp_path):
    body = 'value = "parse-cache-probe-df83a1"\n'
    for name in ("one.py", "two.py"):
        (tmp_path / name).write_text(body)
    before = parse_cache_info()
    lint_paths([tmp_path])
    after_first = parse_cache_info()
    assert after_first == before + 1  # identical bytes parse once
    lint_paths([tmp_path])
    assert parse_cache_info() == after_first  # re-lint is a cache hit


def test_exit_code_contract(tmp_path):
    clean = lint_paths([_write(tmp_path, "clean.py", "value = 1\n")])
    assert exit_code(clean) == EXIT_CLEAN
    findings = lint_paths([FIXTURES / "telemetry" / "bad"])
    assert exit_code(findings) == EXIT_FINDINGS
    # Errors dominate findings.
    errors = lint_paths([FIXTURES / "telemetry" / "bad", "no/such/path.py"])
    assert errors.findings and exit_code(errors) == EXIT_ERROR


# ---------------------------------------------------------------------------
# reporters and CLI


def test_text_report_shape():
    result = lint_paths([FIXTURES / "telemetry" / "bad"])
    report = render_text(result)
    first = report.splitlines()[0]
    path, line, col, rule = first.split(":")[:4]
    assert path.endswith("runner/worker.py")
    assert int(line) and rule.strip().startswith("telemetry-discipline")
    assert report.splitlines()[-1].endswith("1 finding(s), 0 error(s)")

    clean = lint_paths([FIXTURES / "telemetry" / "good"])
    assert render_text(clean).endswith("checked: clean")


def test_json_report_shape():
    result = lint_paths([FIXTURES / "telemetry" / "bad"])
    payload = json.loads(render_json(result))
    assert payload["format_version"] == 1
    (finding,) = payload["findings"]
    assert finding["rule"] == "telemetry-discipline"
    assert finding["line"] >= 1 and finding["path"].endswith("worker.py")
    assert payload["summary"] == {"files": 1, "findings": 1, "errors": 0}


def test_cli_lint_findings_and_json(capsys):
    code = main(
        [
            "lint",
            str(FIXTURES / "telemetry" / "bad"),
            "--select",
            "telemetry-discipline",
            "--format",
            "json",
        ]
    )
    assert code == EXIT_FINDINGS
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["findings"] == 1


def test_cli_lint_unknown_rule_is_exit_2(capsys):
    code = main(["lint", str(FIXTURES), "--select", "no-such-rule"])
    assert code == EXIT_ERROR
    assert "no-such-rule" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule in out


def test_cli_write_baseline_roundtrip(tmp_path, capsys, monkeypatch):
    _write(tmp_path, "pkg/runner/mod.py", 'print("x")\n')
    monkeypatch.chdir(tmp_path)
    assert main(["lint", "pkg", "--write-baseline"]) == EXIT_CLEAN
    capsys.readouterr()
    # The default baseline is picked up on the next run.
    assert main(["lint", "pkg"]) == EXIT_CLEAN


# ---------------------------------------------------------------------------
# the gate itself


def test_rule_registry_is_complete():
    assert set(all_rules()) == {
        "event-wire-exhaustiveness",
        "hot-path-scalar-calls",
        "lock-discipline",
        "pickle-discipline",
        "suppression-discipline",
        "telemetry-discipline",
        "unused-suppression",
    }


def test_src_repro_self_lint_is_clean():
    result = lint_paths([SRC], jobs=4)
    assert result.errors == []
    assert result.findings == [], render_text(result)
