"""Tests for the ``repro lint`` static-analysis engine and its rules.

Rule behaviour is exercised against checked-in fixture trees
(``tests/lint_fixtures/<rule>/{good,bad}``) whose inner paths mimic the
``src/repro`` shapes the rules gate on; engine mechanics (suppressions,
reporters, exit codes) run against temp files.  The suite ends with the
gate that matters: the full rule set over ``src/repro`` itself is clean.
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
    render_json,
    render_text,
)
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
    ("lock-discipline", "locks", ["lock-discipline"]),
    ("suppression-discipline", "suppress", ["suppression-discipline"]),
    ("unused-suppression", "unused", ["unused-suppression", "telemetry-discipline"]),
]

_CASE_IDS = [rule for rule, _, _ in RULE_CASES]


@pytest.mark.parametrize("rule,subdir,select", RULE_CASES, ids=_CASE_IDS)
def test_bad_fixture_is_flagged(rule, subdir, select):
    tree = FIXTURES / subdir / "bad"
    result = lint_paths([tree], select=select)
    assert not result.errors
    assert result.findings, f"bad fixture for {rule} produced no findings"
    assert all(f.rule == rule for f in result.findings)


@pytest.mark.parametrize("rule,subdir,select", RULE_CASES, ids=_CASE_IDS)
def test_good_fixture_is_clean(rule, subdir, select):
    tree = FIXTURES / subdir / "good"
    result = lint_paths([tree], select=select)
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


def test_hot_path_confines_capability_predicates_to_the_oracles():
    """``attack/biota.py`` and ``attack/realtime.py`` may call
    ``.can_attack_slot(`` / ``.can_spoof_zone(`` only inside their
    ``_reference`` oracles, and ``attack/schedule.py`` only inside its
    reference segment planner and the scalar engines' driver."""
    select = ["hot-path-scalar-calls"]
    good = lint_paths([FIXTURES / "hot_path_capability" / "good"], select=select)
    assert not good.errors
    assert good.findings == []
    bad = lint_paths([FIXTURES / "hot_path_capability" / "bad"], select=select)
    assert not bad.errors
    biota, realtime, *schedule = sorted(bad.findings, key=lambda f: (f.path, f.line))
    assert len(schedule) == 2
    for finding in schedule:
        assert finding.path.endswith("attack/schedule.py")
        assert (
            ".can_attack_slot() belongs only in _accessible_segments_reference, "
            "_shatter_schedule_scalar" in finding.message
        )
        assert "in _plan_vector_job)" in finding.message
    assert biota.path.endswith("attack/biota.py")
    assert ".can_attack_slot() belongs only in biota_greedy_attack_reference" in (
        biota.message
    )
    assert "in biota_greedy_attack)" in biota.message
    assert realtime.path.endswith("attack/realtime.py")
    assert (
        ".can_spoof_zone() belongs only in _apply_visit_feasibility_reference"
        in realtime.message
    )
    assert "in _apply_visit_feasibility)" in realtime.message


def test_hot_path_builds_schedule_oracles_from_the_batched_pass():
    """``attack/schedule.py`` builds no per-group stay table: neither
    ``.stay_table(`` nor ``stay_range_table(``."""
    select = ["hot-path-scalar-calls"]
    good = lint_paths([FIXTURES / "hot_path_oracle" / "good"], select=select)
    assert not good.errors
    assert good.findings == []
    bad = lint_paths([FIXTURES / "hot_path_oracle" / "bad"], select=select)
    assert not bad.errors
    table, zone_table = sorted(bad.findings, key=lambda f: f.line)
    assert table.path.endswith("attack/schedule.py")
    assert table.message.startswith("stay_table() builds one (occupant, zone)")
    assert "(found in __init__)" in table.message
    assert zone_table.message.startswith("stay_range_table() builds one")
    assert "(found in _zone_table)" in zone_table.message


def test_hot_path_confines_per_group_fit_calls_to_the_reference():
    """``adm/cluster_model.py`` may call ``visits_to_points(``,
    ``kmeans(`` and ``quickhull(`` only inside ``_fit_reference``."""
    select = ["hot-path-scalar-calls"]
    good = lint_paths([FIXTURES / "hot_path_adm" / "good"], select=select)
    assert not good.errors
    assert good.findings == []
    bad = lint_paths([FIXTURES / "hot_path_adm" / "bad"], select=select)
    assert not bad.errors
    points, labels = sorted(bad.findings, key=lambda f: f.line)
    for finding, name in ((points, "visits_to_points"), (labels, "kmeans")):
        assert finding.path.endswith("adm/cluster_model.py")
        assert f"; {name}() belongs only in _fit_reference (found one in fit)" in (
            finding.message
        )


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


# ---------------------------------------------------------------------------
# the gate itself


def test_rule_registry_is_complete():
    assert set(all_rules()) == {
        "hot-path-scalar-calls",
        "lock-discipline",
        "pickle-discipline",
        "suppression-discipline",
        "telemetry-discipline",
        "unused-suppression",
    }


def test_src_repro_self_lint_is_clean():
    result = lint_paths([SRC])
    assert result.errors == []
    assert result.findings == [], render_text(result)
