"""Round-trip tests for attack-vector, report and record serialization."""

import json
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.attack.model import AttackVector
from repro.core.report import AttackReport, CostBreakdown
from repro.core.serialization import (
    attack_report_from_dict,
    attack_report_to_dict,
    attack_vector_from_dict,
    attack_vector_to_dict,
    decode_wire_value,
    encode_wire_value,
    load_attack_report,
    load_attack_vector,
    record_from_wire,
    record_to_wire,
    save_attack_report,
    save_attack_vector,
)
from repro.errors import ConfigurationError


def _vector() -> AttackVector:
    rng = np.random.default_rng(3)
    n_slots, n_occupants, n_zones, n_appliances = 20, 2, 5, 4
    return AttackVector(
        spoofed_zone=rng.integers(0, n_zones, size=(n_slots, n_occupants)),
        spoofed_activity=rng.integers(1, 28, size=(n_slots, n_occupants)),
        delta_co2=rng.normal(size=(n_slots, n_zones)),
        delta_temperature=rng.normal(size=(n_slots, n_zones)),
        triggered=rng.random(size=(n_slots, n_appliances)) > 0.8,
    )


def _report() -> AttackReport:
    breakdown = CostBreakdown(total=10.0, hvac=7.0, appliance=3.0, daily=(5.0, 5.0))
    return AttackReport(
        home_name="ARAS House A",
        adm_backend="dbscan",
        knowledge="all",
        benign=breakdown,
        shatter=breakdown,
        shatter_triggered=breakdown,
        greedy=breakdown,
        biota=breakdown,
        biota_flagged=0.95,
        shatter_flagged=0.0,
        greedy_flagged=0.1,
        trigger_count=42,
        extras={"x": 1.5},
    )


def test_vector_dict_round_trip():
    vector = _vector()
    rebuilt = attack_vector_from_dict(attack_vector_to_dict(vector))
    assert np.array_equal(rebuilt.spoofed_zone, vector.spoofed_zone)
    assert np.array_equal(rebuilt.triggered, vector.triggered)
    assert np.allclose(rebuilt.delta_co2, vector.delta_co2)


def test_vector_file_round_trip(tmp_path):
    vector = _vector()
    path = tmp_path / "vector.json"
    save_attack_vector(vector, path)
    rebuilt = load_attack_vector(path)
    assert np.array_equal(rebuilt.spoofed_activity, vector.spoofed_activity)
    assert rebuilt.triggered.dtype == bool


def test_vector_rejects_bad_version():
    payload = attack_vector_to_dict(_vector())
    payload["format_version"] = 99
    with pytest.raises(ConfigurationError):
        attack_vector_from_dict(payload)


def test_vector_rejects_missing_field():
    payload = attack_vector_to_dict(_vector())
    del payload["delta_co2"]
    with pytest.raises(ConfigurationError):
        attack_vector_from_dict(payload)


def test_report_dict_round_trip():
    report = _report()
    rebuilt = attack_report_from_dict(attack_report_to_dict(report))
    assert rebuilt.home_name == report.home_name
    assert rebuilt.benign.total == report.benign.total
    assert rebuilt.benign.daily == report.benign.daily
    assert rebuilt.extras == report.extras
    assert rebuilt.trigger_count == 42


def test_report_file_round_trip(tmp_path):
    report = _report()
    path = tmp_path / "report.json"
    save_attack_report(report, path)
    rebuilt = load_attack_report(path)
    assert rebuilt.shatter_flagged == report.shatter_flagged
    assert rebuilt.triggering_gain == pytest.approx(report.triggering_gain)


def test_report_rejects_bad_version():
    payload = attack_report_to_dict(_report())
    payload["format_version"] = 0
    with pytest.raises(ConfigurationError):
        attack_report_from_dict(payload)


@dataclass(frozen=True)
class _Record:
    name: str
    key: tuple
    value: np.float64
    tags: list = field(default_factory=list)


def test_record_codec_round_trips_fields_and_skips_unknown_keys():
    record = _Record(name="r", key=(0, "shard", 3), value=np.float64(0.5))
    wire = json.loads(json.dumps(record_to_wire(record)))
    assert sorted(wire) == ["key", "name", "tags", "value"]
    rebuilt = record_from_wire(_Record, wire)
    assert rebuilt == record
    assert type(rebuilt.key) is tuple and type(rebuilt.value) is np.float64
    # Keys the class has no field for are ignored, an absent field takes
    # its default, and an absent required field is a typed error.
    del wire["tags"]
    wire["retired"] = 7
    assert record_from_wire(_Record, wire) == record
    del wire["key"]
    with pytest.raises(ConfigurationError, match="missing _Record field 'key'"):
        record_from_wire(_Record, wire)


def test_pickle_tag_is_reserved_and_refused():
    """Older releases wrapped values the wire codec could not carry in a
    pickle tag; the tag is reserved, and a stored one is refused rather
    than unpickled or passed through as a plain dict."""
    with pytest.raises(ConfigurationError, match="__pickle__"):
        encode_wire_value({"__pickle__": 1})
    stored = {"__pickle__": "gASVCQAAAAAAAACPlChLAksEkC4="}
    for wire in (stored, {"params": [stored]}):
        with pytest.raises(ConfigurationError, match="pickled by an older"):
            decode_wire_value(wire)
