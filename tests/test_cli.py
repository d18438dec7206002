"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.runner import experiment_names


def test_all_artifact_ids_registered():
    expected = {
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "tab3",
        "tab4",
        "tab5",
        "fig10",
        "tab6",
        "tab7",
        "fig11a",
        "fig11b",
        "sec6",
        "fleet",
        "fleet_attack",
    }
    assert set(experiment_names()) == expected


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in experiment_names():
        assert name in out


def test_run_fig3(capsys, tmp_path):
    assert main(["run", "fig3", "--days", "3", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "Fig. 3" in out
    assert "ASHRAE" in out


def test_run_sec6(capsys, tmp_path):
    assert main(["run", "sec6", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "testbed" in out


def test_unknown_artifact_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "nope"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
