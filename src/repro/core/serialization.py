"""Serialization of attack artifacts, cached artifacts and task payloads.

Attack vectors and reports are the framework's deliverables; defenders
feed them into other tooling (SIEM rules, dashboards, tickets), so they
need a stable on-disk JSON form.  Arrays serialize compactly: boolean
and integer matrices as nested lists, with shapes validated on load.

Structured values have one binary encoding, the array frame
(:mod:`repro.core.arrayframe`): the artifact cache in
:mod:`repro.runner.cache` stores every disk tier (house traces, fitted
ADMs, reward tables, results, spills) as frames
(:func:`encode_artifact` / :func:`decode_artifact`), and a remote
worker sends each task's value home as one.  A fitted ADM enters a
frame as plain arrays (:func:`cluster_adm_to_arrays`).  JSON-shaped
values (task payloads) are tagged JSON (:func:`encode_wire_value`),
which carries exact scalar, container and array types and raises on
anything else.  Dataclass records (events, run manifests, job records)
go through it field by field (:func:`record_to_wire` /
:func:`record_from_wire`), so a record's schema is its dataclass and
nothing else.
"""

from __future__ import annotations

import base64
import json
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Any, TypeVar

import numpy as np

from repro.adm.cluster_model import AdmParams, ClusterADM, ClusterBackend, _GroupModel
from repro.attack.model import AttackVector
from repro.core.arrayframe import decode_frame, encode_frame
from repro.core.report import AttackReport, CostBreakdown
from repro.errors import ConfigurationError
from repro.geometry import ConvexHull

_FORMAT_VERSION = 1
# Version 2 packs each field of every group into one array.
_ADM_FORMAT_VERSION = 2


def attack_vector_to_dict(vector: AttackVector) -> dict:
    """A JSON-ready representation of a δ vector."""
    return {
        "format_version": _FORMAT_VERSION,
        "spoofed_zone": vector.spoofed_zone.tolist(),
        "spoofed_activity": vector.spoofed_activity.tolist(),
        "delta_co2": vector.delta_co2.tolist(),
        "delta_temperature": vector.delta_temperature.tolist(),
        "triggered": vector.triggered.astype(int).tolist(),
    }


def attack_vector_from_dict(payload: dict) -> AttackVector:
    """Rebuild a δ vector; validates the format version and shapes."""
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported attack-vector format version {version!r}"
        )
    try:
        return AttackVector(
            spoofed_zone=np.asarray(payload["spoofed_zone"], dtype=np.int64),
            spoofed_activity=np.asarray(
                payload["spoofed_activity"], dtype=np.int64
            ),
            delta_co2=np.asarray(payload["delta_co2"], dtype=float),
            delta_temperature=np.asarray(
                payload["delta_temperature"], dtype=float
            ),
            triggered=np.asarray(payload["triggered"], dtype=bool),
        )
    except KeyError as exc:
        raise ConfigurationError(f"missing attack-vector field: {exc}") from exc


def save_attack_vector(vector: AttackVector, path: str | Path) -> None:
    Path(path).write_text(json.dumps(attack_vector_to_dict(vector)))


def load_attack_vector(path: str | Path) -> AttackVector:
    return attack_vector_from_dict(json.loads(Path(path).read_text()))


def _breakdown_to_dict(breakdown: CostBreakdown) -> dict:
    return {
        "total": breakdown.total,
        "hvac": breakdown.hvac,
        "appliance": breakdown.appliance,
        "daily": list(breakdown.daily),
    }


def _breakdown_from_dict(payload: dict) -> CostBreakdown:
    return CostBreakdown(
        total=float(payload["total"]),
        hvac=float(payload["hvac"]),
        appliance=float(payload["appliance"]),
        daily=tuple(float(v) for v in payload["daily"]),
    )


def attack_report_to_dict(report: AttackReport) -> dict:
    """A JSON-ready representation of a full analysis report."""
    return {
        "format_version": _FORMAT_VERSION,
        "home_name": report.home_name,
        "adm_backend": report.adm_backend,
        "knowledge": report.knowledge,
        "benign": _breakdown_to_dict(report.benign),
        "shatter": _breakdown_to_dict(report.shatter),
        "shatter_triggered": _breakdown_to_dict(report.shatter_triggered),
        "greedy": _breakdown_to_dict(report.greedy),
        "biota": _breakdown_to_dict(report.biota),
        "biota_flagged": report.biota_flagged,
        "shatter_flagged": report.shatter_flagged,
        "greedy_flagged": report.greedy_flagged,
        "trigger_count": report.trigger_count,
        "extras": {key: float(value) for key, value in report.extras.items()},
    }


def attack_report_from_dict(payload: dict) -> AttackReport:
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported report format version {version!r}"
        )
    return AttackReport(
        home_name=payload["home_name"],
        adm_backend=payload["adm_backend"],
        knowledge=payload["knowledge"],
        benign=_breakdown_from_dict(payload["benign"]),
        shatter=_breakdown_from_dict(payload["shatter"]),
        shatter_triggered=_breakdown_from_dict(payload["shatter_triggered"]),
        greedy=_breakdown_from_dict(payload["greedy"]),
        biota=_breakdown_from_dict(payload["biota"]),
        biota_flagged=float(payload["biota_flagged"]),
        shatter_flagged=float(payload["shatter_flagged"]),
        greedy_flagged=float(payload["greedy_flagged"]),
        trigger_count=int(payload["trigger_count"]),
        extras=dict(payload.get("extras", {})),
    )


def save_attack_report(report: AttackReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(attack_report_to_dict(report), indent=2))


def load_attack_report(path: str | Path) -> AttackReport:
    return attack_report_from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# Fitted cluster ADM parameters (part of the ADM cache tier's frames)
# ----------------------------------------------------------------------


def adm_params_to_dict(params: AdmParams) -> dict:
    return {
        "backend": params.backend.value,
        "eps": params.eps,
        "min_pts": params.min_pts,
        "k": params.k,
        "seed": params.seed,
        "tolerance": params.tolerance,
    }


def adm_params_from_dict(payload: dict) -> AdmParams:
    try:
        return AdmParams(
            backend=ClusterBackend(payload["backend"]),
            eps=float(payload["eps"]),
            min_pts=int(payload["min_pts"]),
            k=int(payload["k"]),
            seed=int(payload["seed"]),
            tolerance=float(payload["tolerance"]),
        )
    except KeyError as exc:
        raise ConfigurationError(f"missing ADM-params field: {exc}") from exc


# ----------------------------------------------------------------------
# Binary artifact frames (cache tiers, spilled and remote shard results)
# ----------------------------------------------------------------------


def encode_artifact(value: Any) -> bytes:
    """Frame an artifact (nested containers of arrays) for disk or wire."""
    return encode_frame(value)


def decode_artifact(raw: bytes) -> Any:
    """Decode an artifact frame held in memory, verifying its checksums."""
    return decode_frame(raw)


def decode_artifact_file(path: str | Path) -> Any:
    """Read an artifact frame from disk and decode it, verifying its
    checksums."""
    return decode_frame(Path(path).read_bytes())


def cluster_adm_to_arrays(adm: ClusterADM) -> dict:
    """An array-native (frame-ready) representation of a fitted ADM.

    Captures the full decision surface — per-(occupant, zone) training
    points, cluster labels, and hull vertices — so a reloaded ADM
    answers every membership / stay-range query identically.  Each
    field is one array across all groups, so a frame holds a handful of
    buffers whatever the group and hull counts:

    * ``groups`` — ``[G, 4]`` rows of (occupant, zone, point count,
      hull count), in (occupant, zone) order;
    * ``points`` / ``labels`` — every group's training points ``[P, 2]``
      and cluster labels ``[P]``, concatenated in group order;
    * ``hull_sizes`` — every hull's vertex count ``[H]``, in group
      order; and
    * ``vertices`` — every hull's vertices ``[V, 2]``, concatenated.
    """
    keys = sorted(adm._groups)
    models = [adm._groups[key] for key in keys]
    hulls = [hull for model in models for hull in model.hulls]
    groups = np.array(
        [
            (occupant, zone, len(model.points), len(model.hulls))
            for (occupant, zone), model in zip(keys, models)
        ],
        dtype=np.int64,
    ).reshape(-1, 4)
    return {
        "format_version": _ADM_FORMAT_VERSION,
        "params": adm_params_to_dict(adm.params),
        "n_zones": adm.n_zones,
        "n_occupants": adm.n_occupants,
        "groups": groups,
        "points": _concat([model.points for model in models], float, (0, 2)),
        "labels": _concat([model.labels for model in models], np.int64, (0,)),
        "hull_sizes": np.array([hull.n_vertices for hull in hulls], dtype=np.int64),
        "vertices": _concat([hull.vertices for hull in hulls], float, (0, 2)),
    }


def _concat(arrays: list[np.ndarray], dtype: Any, empty: tuple) -> np.ndarray:
    return np.concatenate(arrays) if arrays else np.zeros(empty, dtype)


def cluster_adm_from_arrays(payload: dict) -> ClusterADM:
    """Invert :func:`cluster_adm_to_arrays` without re-clustering.

    Each group's points, labels and hull vertices are slices of the
    payload's arrays, so an ADM decoded from a frame holds read-only
    views of the frame's buffers.
    """
    version = payload.get("format_version")
    if version != _ADM_FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported cluster-ADM format version {version!r}"
        )
    try:
        adm = ClusterADM(adm_params_from_dict(payload["params"]))
        adm._n_zones = int(payload["n_zones"])
        adm._n_occupants = int(payload["n_occupants"])
        groups = np.asarray(payload["groups"], dtype=np.int64).reshape(-1, 4)
        points = np.asarray(payload["points"], dtype=float).reshape(-1, 2)
        labels = np.asarray(payload["labels"], dtype=np.int64)
        sizes = np.asarray(payload["hull_sizes"], dtype=np.int64)
        vertices = np.asarray(payload["vertices"], dtype=float).reshape(-1, 2)
    except KeyError as exc:
        raise ConfigurationError(f"missing cluster-ADM field: {exc}") from exc
    if (
        len(labels) != len(points)
        or groups[:, 2:].min(initial=0) < 0
        or int(groups[:, 2].sum()) != len(points)
        or int(groups[:, 3].sum()) != len(sizes)
        or int(sizes.sum()) != len(vertices)
    ):
        raise ConfigurationError(
            "cluster-ADM arrays disagree with their group table"
        )
    point_at = hull_at = vertex_at = 0
    size_list = sizes.tolist()
    for occupant, zone, n_points, n_hulls in groups.tolist():
        hulls = []
        for size in size_list[hull_at : hull_at + n_hulls]:
            hulls.append(ConvexHull(vertices[vertex_at : vertex_at + size]))
            vertex_at += size
        adm._groups[(occupant, zone)] = _GroupModel(
            points=points[point_at : point_at + n_points],
            labels=labels[point_at : point_at + n_points],
            hulls=hulls,
        )
        point_at += n_points
        hull_at += n_hulls
    return adm


# ----------------------------------------------------------------------
# Scheduler task payloads (wire format for remote workers)
# ----------------------------------------------------------------------
#
# The shard-graph runners describe every work unit as an
# ``(op, experiment, params, extra)`` tuple; a remote coordinator ships
# those tuples to ``repro worker`` processes as JSON messages, and run
# manifests, job records and events use the same encoding.  Values are
# encoded structurally — JSON scalars pass through, tuples and bytes get
# tagged wrappers so they round-trip *exactly* (a shard that received a
# list where it declared a tuple could compute something else), numpy
# arrays and scalars get a raw-buffer tag (dtype + shape + base64 of
# ``tobytes``) — and anything else (sets, enums, dataclasses, dicts with
# non-string keys) raises :class:`ConfigurationError`.  Task *results*
# do not use this codec: they travel home as array frames.

_WIRE_VERSION = 1

_TAG_TUPLE = "__tuple__"
_TAG_BYTES = "__bytes__"
_TAG_NDARRAY = "__ndarray__"
# Reserved: older releases stored values they could not encode as
# pickles under this tag, and this codec reads no pickles, so decoding
# one raises rather than hand back the raw tag as a dict.
_TAG_PICKLE = "__pickle__"
_TAGS = (_TAG_TUPLE, _TAG_BYTES, _TAG_NDARRAY, _TAG_PICKLE)


def _ndarray_tag(value: Any) -> dict:
    """The wire arm for numpy arrays and scalars."""
    scalar = isinstance(value, np.generic)
    arr = np.asarray(value)
    if arr.flags.c_contiguous or arr.ndim <= 1:
        order = "C"
    elif arr.flags.f_contiguous:
        order = "F"
    else:
        arr = np.ascontiguousarray(arr)
        order = "C"
    return {
        _TAG_NDARRAY: {
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "order": order,
            "scalar": scalar,
            "data": base64.b64encode(arr.tobytes(order="A")).decode("ascii"),
        }
    }


def _ndarray_untag(spec: dict) -> Any:
    dtype = np.dtype(str(spec["dtype"]))
    shape = tuple(int(n) for n in spec.get("shape") or ())
    order = "F" if spec.get("order") == "F" else "C"
    flat = np.frombuffer(base64.b64decode(spec["data"]), dtype=dtype)
    # .copy() detaches from the read-only decode buffer, so a decoded
    # record owns writable arrays.
    arr = flat.reshape(shape, order=order).copy(order=order)
    return arr[()] if spec.get("scalar") else arr


def encode_wire_value(value: Any) -> Any:
    """A JSON-ready encoding of ``value`` that decodes back *exactly*.

    Only *exact* builtin scalars pass through as JSON: subclasses such
    as ``np.float64`` (which is a ``float``) must keep their type across
    the wire — their ``repr`` differs, so letting them decay to the
    builtin would let a remotely rendered artifact diverge from the
    serial oracle — and therefore take the ndarray arm (as 0-d buffers).
    A value with no exact encoding raises :class:`ConfigurationError`
    naming its type.
    """
    if value is None or type(value) in (bool, int, float, str):
        return value
    if type(value) is tuple:
        return {_TAG_TUPLE: [encode_wire_value(item) for item in value]}
    if type(value) is list:
        return [encode_wire_value(item) for item in value]
    if type(value) is bytes:
        return {_TAG_BYTES: base64.b64encode(value).decode("ascii")}
    if isinstance(value, (np.ndarray, np.generic)) and not value.dtype.hasobject:
        return _ndarray_tag(value)
    if type(value) is dict:
        for key in value:
            if type(key) is not str or key in _TAGS:
                raise ConfigurationError(
                    f"the wire codec cannot carry dict key {key!r}: keys "
                    f"must be strings other than {', '.join(_TAGS)}"
                )
        return {key: encode_wire_value(item) for key, item in value.items()}
    raise ConfigurationError(
        f"the wire codec cannot carry {type(value).__module__}."
        f"{type(value).__qualname__} values"
    )


def decode_wire_value(obj: Any) -> Any:
    """Invert :func:`encode_wire_value`."""
    if isinstance(obj, list):
        return [decode_wire_value(item) for item in obj]
    if isinstance(obj, dict):
        if _TAG_TUPLE in obj and len(obj) == 1:
            return tuple(decode_wire_value(item) for item in obj[_TAG_TUPLE])
        if _TAG_BYTES in obj and len(obj) == 1:
            return base64.b64decode(obj[_TAG_BYTES])
        if _TAG_NDARRAY in obj and len(obj) == 1:
            return _ndarray_untag(obj[_TAG_NDARRAY])
        if _TAG_PICKLE in obj and len(obj) == 1:
            raise ConfigurationError(
                "a value was pickled by an older repro release; this "
                "release reads no pickled values (run it again to "
                "record it in the current encoding)"
            )
        return {key: decode_wire_value(item) for key, item in obj.items()}
    return obj


_Record = TypeVar("_Record")


def record_to_wire(record: Any) -> dict:
    """A JSON-ready encoding of a dataclass record: every field, by
    name, through :func:`encode_wire_value`."""
    return {
        f.name: encode_wire_value(getattr(record, f.name))
        for f in fields(record)
    }


def record_from_wire(cls: type[_Record], data: dict) -> _Record:
    """Invert :func:`record_to_wire` for the dataclass ``cls``.

    Keys ``cls`` has no field for are ignored, so a record written by a
    newer producer, or by an older one that still carried a field since
    removed, reads back; an absent field takes its default, and an
    absent required field raises :class:`ConfigurationError`.
    """
    values = {}
    for f in fields(cls):  # type: ignore[arg-type]
        if f.name in data:
            values[f.name] = decode_wire_value(data[f.name])
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigurationError(
                f"missing {cls.__name__} field {f.name!r}"
            )
    return cls(**values)


def task_payload_to_wire(payload: tuple) -> dict:
    """Encode one scheduler task payload for a remote worker."""
    op, experiment, params, extra = payload
    return {
        "format_version": _WIRE_VERSION,
        "op": op,
        "experiment": experiment,
        "params": encode_wire_value(params),
        "extra": encode_wire_value(extra),
    }


def task_payload_from_wire(message: dict) -> tuple:
    """Rebuild a scheduler task payload; validates the format version."""
    version = message.get("format_version")
    if version != _WIRE_VERSION:
        raise ConfigurationError(
            f"unsupported task-payload format version {version!r}"
        )
    try:
        return (
            message["op"],
            message["experiment"],
            decode_wire_value(message["params"]),
            decode_wire_value(message["extra"]),
        )
    except KeyError as exc:
        raise ConfigurationError(f"missing task-payload field: {exc}") from exc
