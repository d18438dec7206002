"""Tests for the declarative experiment registry."""

import pytest

from repro.errors import ConfigurationError
from repro.runner import registry
from repro.runner.registry import (
    Experiment,
    Param,
    all_experiments,
    experiment_names,
    experiments_by_tag,
    get_experiment,
    register,
    unregister,
)

EXPECTED_NAMES = {
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


def test_every_paper_artifact_registered_exactly_once():
    experiments = all_experiments()
    assert set(experiment_names()) == EXPECTED_NAMES
    artifacts = [exp.artifact for exp in experiments]
    assert len(artifacts) == len(set(artifacts)), "duplicate paper artifact"
    # Fig. 11 (the historical straggler) is in the registry like the rest.
    assert get_experiment("fig11a").artifact == "Fig. 11(a)"
    assert get_experiment("fig11b").artifact == "Fig. 11(b)"


def test_registry_drives_cli_artifacts(capsys):
    from repro.cli import main

    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for exp in all_experiments():
        assert any(
            exp.name in line.split() and exp.title in line for line in lines
        ), f"repro list must show {exp.name} with its title"


def test_resolve_defaults_and_day_scaling():
    exp = get_experiment("tab4")
    params = exp.resolve()
    assert params == {"n_days": 14, "training_days": 10, "seed": 2023}
    scaled = exp.resolve(days=8)
    assert scaled["n_days"] == 8
    assert scaled["training_days"] == 4
    overridden = exp.resolve(days=8, seed=7)
    assert overridden["seed"] == 7


def test_resolve_rejects_unknown_parameters():
    with pytest.raises(ConfigurationError):
        get_experiment("fig3").resolve(bogus=1)


# The largest --days each split experiment cannot train and evaluate on.
LARGEST_BAD_DAYS = {
    "tab3": 3,
    "fig10": 3,
    "tab5": 3,
    "tab6": 3,
    "tab7": 3,
    "tab4": 4,
    "fig5": 4,
}


@pytest.mark.parametrize("name", sorted(LARGEST_BAD_DAYS))
def test_build_rejects_a_split_without_training_or_evaluation_days(name):
    from repro.runner import RunRequest

    days = LARGEST_BAD_DAYS[name]
    with pytest.raises(ConfigurationError, match=f"{name!r} cannot train on"):
        RunRequest.build(name, days=days)
    accepted = RunRequest.build(name, days=days + 1)
    assert accepted.params["n_days"] == days + 1


# Uncacheable timing experiments: fig11a alone takes ~5 s at days=1.
TIMING_EXPERIMENTS = {"fig11a", "fig11b"}


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=pytest.mark.slow)
        if name in TIMING_EXPERIMENTS
        else name
        for name in sorted(EXPECTED_NAMES)
    ],
)
def test_every_days_is_rejected_before_compute_or_runs(name, tmp_path):
    """Walk ``days`` = -1, 0, 1, …: every value below the smallest one
    ``RunRequest.build`` accepts raises ``ConfigurationError``, and that
    smallest one runs to completion, so no ``days`` passes the front
    door and then fails mid-run."""
    from repro.runner import RunRequest, SerialRunner
    from repro.runner.cache import ArtifactCache

    for days in range(-1, 15):
        try:
            request = RunRequest.build(name, days=days)
        except ConfigurationError:
            continue
        break
    else:
        pytest.fail(f"{name} rejects every days in -1..14")
    runner = SerialRunner(ArtifactCache(memory=True, disk_dir=tmp_path))
    [outcome] = runner.run([request])
    assert outcome.name == name and outcome.rendered


def test_resolve_checks_explicit_splits():
    fig10, fig5 = get_experiment("fig10"), get_experiment("fig5")
    with pytest.raises(ConfigurationError, match="cannot train on 12 of 12 days"):
        fig10.resolve(training_days=12)
    with pytest.raises(ConfigurationError, match="cannot train on 0 of 12 days"):
        fig10.resolve(training_days=0)
    assert fig10.resolve(training_days=11)["training_days"] == 11
    with pytest.raises(ConfigurationError, match="cannot train on 14 of 14 days"):
        fig5.resolve(training_day_values=[6, 14])
    # Experiments without a split, and fleet_attack's scaled split.
    get_experiment("fig3").resolve(days=1)
    assert get_experiment("fleet_attack").resolve(days=1)["training_days"] == 1


def test_resolve_rejects_days_below_one():
    fig3 = get_experiment("fig3")
    for days in (0, -1):
        with pytest.raises(ConfigurationError, match="needs days >= 1"):
            fig3.resolve(days=days)
    for n_days in (0, -3):
        with pytest.raises(ConfigurationError, match="needs n_days >= 1"):
            fig3.resolve(n_days=n_days)
    assert fig3.resolve(days=1)["n_days"] == 1


def test_fig5_default_sweep_is_checked_before_compute():
    """fig5's default training-day sweep is its Param default, so
    overriding ``n_days`` alone is checked against it on every path
    instead of failing mid-run in ``split_days``."""
    from repro.runner import RunRequest
    from repro.runner.experiments import run_fig5

    fig5 = get_experiment("fig5")
    assert fig5.resolve()["training_day_values"] == [6, 8, 10, 12]
    assert fig5.resolve(n_days=13)["training_day_values"] == [6, 8, 10, 12]
    bad = "'fig5' cannot train on 8 of 8 days"
    with pytest.raises(ConfigurationError, match=bad):
        RunRequest.build("fig5", overrides={"n_days": 8})
    with pytest.raises(ConfigurationError, match=bad):
        run_fig5(n_days=8)
    with pytest.raises(ConfigurationError, match="list of training-day counts"):
        fig5.resolve(training_day_values=None)


def test_timing_experiments_opt_out_of_caching():
    for name in ("fig11a", "fig11b"):
        exp = get_experiment(name)
        assert not exp.cacheable
        assert not exp.deterministic
    assert get_experiment("tab5").cacheable


def test_tags_select_experiments():
    sweeps = {exp.name for exp in experiments_by_tag("sweep")}
    assert {"fig4", "fig5", "tab4", "tab5", "tab6", "tab7"} <= sweeps
    assert experiments_by_tag("no-such-tag") == []


def test_duplicate_registration_rejected():
    spec = Experiment(
        name="dup-test",
        artifact="Dup. 1",
        title="duplicate probe",
        render=str,
        fn=lambda: None,
    )
    register(spec)
    try:
        with pytest.raises(ConfigurationError):
            register(spec)
        with pytest.raises(ConfigurationError):
            register(
                Experiment(
                    name="dup-test-2",
                    artifact="Dup. 1",
                    title="same artifact, different name",
                    render=str,
                    fn=lambda: None,
                )
            )
    finally:
        unregister("dup-test")
        unregister("dup-test-2")


def test_incomplete_shard_triple_rejected():
    with pytest.raises(ConfigurationError):
        Experiment(
            name="bad-shards",
            artifact="Bad. 1",
            title="shards without merge",
            render=str,
            shards=lambda params: [],
            run_shard=lambda **kwargs: None,
        )


def test_experiment_needs_some_executable():
    with pytest.raises(ConfigurationError):
        Experiment(name="empty", artifact="E. 1", title="no fn", render=str)


def test_nondeterministic_experiment_must_opt_out_of_caching():
    with pytest.raises(ConfigurationError):
        Experiment(
            name="nd",
            artifact="ND. 1",
            title="timing-shaped",
            render=str,
            fn=lambda: None,
            deterministic=False,
        )
    # The fig11 shape: both flags off is fine.
    Experiment(
        name="nd-ok",
        artifact="ND. 2",
        title="timing-shaped",
        render=str,
        fn=lambda: None,
        deterministic=False,
        cacheable=False,
    )


def test_unknown_experiment_errors():
    with pytest.raises(ConfigurationError):
        get_experiment("nope")


def test_registry_module_loaded_flag_idempotent():
    registry.load_all()
    before = set(experiment_names())
    registry.load_all()
    assert set(experiment_names()) == before
