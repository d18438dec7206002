"""Equivalence property tests: vectorized kernels vs scalar references.

Every hot-path array program introduced by the kernel layer — batched
hull containment, stay-range tables, the table-driven schedule DP, the
array-native simulation and attack execution — must reproduce its scalar reference
*bit for bit* on randomized inputs.  These tests are the contract that
keeps the fast paths honest; the scalar implementations stay importable
exactly so they can serve as the oracle here (and in Fig. 11's
exhaustive-engine study).

Randomization is seed-parameterized (hypothesis-style: fixed seeds,
exhaustive exact-equality checks per draw) so failures replay
deterministically.
"""

import importlib
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from repro.adm.cluster_model import AdmParams, ClusterADM, ClusterBackend
from repro.adm.kmeans import kmeans, kmeans_groups
from repro.attack.biota import (
    BiotaRules,
    biota_greedy_attack,
    biota_greedy_attack_reference,
)
from repro.attack.greedy import greedy_schedule
from repro.attack.model import AttackerCapability
from repro.attack.realtime import (
    _apply_visit_feasibility,
    _apply_visit_feasibility_reference,
    execute_attack,
    execute_attack_reference,
)
import repro.attack.schedule as schedule_module
from repro.attack.schedule import (
    AttackSchedule,
    ScheduleConfig,
    ScheduleJob,
    _SpanTask,
    _StealthOracle,
    _accessible_segments,
    _accessible_segments_reference,
    _optimize_span,
    _optimize_span_with_retry,
    _optimize_spans_batch,
    _plan_vector_job,
    _shatter_schedule_reference,
    _solve_span_tasks,
    occupant_reward_table,
    shatter_schedule,
    shatter_schedule_batch,
    stealth_oracle,
)
from repro.core.serialization import (
    cluster_adm_from_arrays,
    cluster_adm_to_arrays,
    decode_artifact,
    encode_artifact,
)
from repro.core.shatter import ShatterAnalysis, StudyConfig
from repro.dataset.features import extract_visits, group_visit_points, visits_to_points
from repro.dataset.splits import split_days
from repro.dataset.synthetic import (
    SyntheticConfig,
    generate_home_fleet,
    generate_house_trace,
)
from repro.geometry import (
    cluster_hulls,
    point_in_hull,
    points_in_hulls,
    quickhull,
    stay_range_rows,
    stay_range_table,
    union_stay_ranges,
)
from repro.home.builder import build_house_a, build_house_b
from repro.home.state import HomeTrace
from repro.hvac.ashrae import AshraeController
from repro.hvac.controller import ControllerConfig, DemandControlledHVAC
from repro.hvac.pricing import TouPricing
from repro.errors import AttackError, ControlError
from repro.events import (
    ATTACK_EXECUTE,
    GEOMETRY,
    SCHEDULE_DP_BATCH,
    SIMULATION,
    collect_events,
)
from repro.hvac.simulation import (
    OutdoorConditions,
    SimulationJob,
    appliance_gain_tables,
    closed_loop_token,
    occupant_gain_matrices,
    plant_response,
    simulate,
    simulate_batch,
    simulate_reference,
)
from repro.runner.cache import ArtifactCache, cache_disabled, get_cache, set_cache

_SIM_FIELDS = (
    "airflow_cfm",
    "co2_ppm",
    "temperature_f",
    "hvac_kwh",
    "appliance_kwh",
)


def _random_hulls(rng: np.random.Generator) -> list:
    """A mix of polygon, segment, and point hulls in ADM feature space."""
    hulls = []
    for _ in range(rng.integers(1, 5)):
        kind = rng.integers(0, 4)
        if kind == 0:
            points = rng.uniform(0, 1440, size=(1, 2))
        elif kind == 1:
            anchor = rng.uniform(0, 1440, size=(1, 2))
            step = rng.uniform(-60, 60, size=(1, 2))
            points = np.concatenate([anchor, anchor + step, anchor + 2 * step])
        else:
            points = rng.uniform(0, 1440, size=(rng.integers(3, 40), 2))
        hulls.append(quickhull(points))
    return hulls


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_points_in_hulls_matches_scalar(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        hulls = _random_hulls(rng)
        queries = rng.uniform(-20, 1460, size=(30, 2))
        queries = np.concatenate([queries, hulls[0].vertices])
        tolerance = float(rng.choice([1e-9, 1.0, 20.0]))
        membership = points_in_hulls(queries, hulls, tolerance=tolerance)
        for i, (x, y) in enumerate(queries):
            for j, hull in enumerate(hulls):
                assert membership[i, j] == point_in_hull(
                    float(x), float(y), hull, tolerance=tolerance
                )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_stay_range_table_matches_union_stay_ranges(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        hulls = _random_hulls(rng)
        arrivals = np.arange(0.0, 1440.0, 11.0)
        table = stay_range_table(hulls, arrivals)
        for index, arrival in enumerate(arrivals):
            expected = union_stay_ranges(hulls, float(arrival))
            got = table.intervals(index)
            assert len(got) == len(expected)
            for (glow, ghigh), (elow, ehigh) in zip(got, expected):
                assert glow == elow and ghigh == ehigh


def _fleet_regime_hulls(rng: np.random.Generator) -> list:
    """Hull sets like a 2-training-day fleet ADM's: integer vertices,
    mostly points and segments (horizontal, vertical and diagonal), the
    odd polygon, and the day's first and last minutes as vertices."""
    hulls = []
    for _ in range(rng.integers(1, 6)):
        kind = int(rng.integers(0, 5))
        x = rng.choice([0, 1439, rng.integers(0, 1440)])
        anchor = np.array([float(x), float(rng.integers(1, 300))])
        if kind == 0:
            points = anchor[None, :]
        elif kind == 1:  # horizontal
            points = np.array([anchor, [float(rng.integers(0, 1440)), anchor[1]]])
        elif kind == 2:  # vertical
            points = np.array([anchor, [anchor[0], float(rng.integers(1, 300))]])
        elif kind == 3:  # diagonal
            points = np.array(
                [anchor, [float(rng.integers(0, 1440)), float(rng.integers(1, 300))]]
            )
        else:
            others = rng.integers(0, 1440, size=(int(rng.integers(2, 8)), 2))
            points = np.concatenate([anchor[None, :], others]).astype(float)
        hulls.append(quickhull(points))
    return hulls


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_stay_range_table_matches_scalar_tier_in_the_fleet_regime(seed):
    """Point and segment hulls at integer x are where arrivals land on
    hull vertices.  Every row must equal the scalar tier, on the minute
    grid and within (and just beyond) the slice epsilon of every vertex,
    and the whole table must equal the edge-matrix pass run over every
    arrival.  A NaN arrival, whose bounds the scalar tier leaves
    unordered, is rejected."""
    from repro.geometry.halfplane import _merged_stay_rows

    rng = np.random.default_rng(seed)
    for _ in range(30):
        hulls = _fleet_regime_hulls(rng)
        xs = np.unique(np.concatenate([h.vertices[:, 0] for h in hulls]))
        arrivals = np.concatenate(
            [
                np.arange(1440.0),
                *(xs + offset for offset in (-2e-9, -0.5e-9, 0.5e-9, 2e-9)),
            ]
        )
        table = stay_range_table(hulls, arrivals)
        for index, arrival in enumerate(arrivals):
            assert table.intervals(index) == union_stay_ranges(hulls, float(arrival))
        lows, highs, counts = _merged_stay_rows(hulls, arrivals)
        width = max(1, int(counts.max()))
        assert table.lows.tobytes() == lows[:, :width].tobytes()
        assert table.highs.tobytes() == highs[:, :width].tobytes()
        assert table.counts.tobytes() == counts.tobytes()
        assert table.lows.shape == (len(arrivals), width)
        with pytest.raises(ValueError, match="NaN"):
            stay_range_table(hulls, np.append(arrivals, np.nan))


@pytest.fixture(scope="module")
def aras_world():
    home = build_house_a()
    trace = generate_house_trace(
        home, house="A", config=SyntheticConfig(n_days=9, seed=33)
    )
    train, evaluation = split_days(trace, 7)
    adm = ClusterADM(AdmParams(eps=40.0, min_pts=4, tolerance=20.0))
    adm.fit(train, home.n_zones)
    return home, adm, evaluation


def test_stealth_oracle_matches_adm_scalar_queries(aras_world):
    """The table-backed oracle answers exactly like per-call stay_ranges."""
    home, adm, _ = aras_world
    _assert_oracles_match_scalar_queries(
        adm, home.n_occupants, home.n_zones, range(0, 1440, 17)
    )


def _assert_oracles_match_scalar_queries(adm, n_occupants, n_zones, arrivals):
    eps = 1e-6
    for occupant in range(n_occupants):
        oracle = _StealthOracle(adm, occupant, n_zones)
        for zone in range(n_zones):
            for arrival in arrivals:
                intervals = adm.stay_ranges(occupant, zone, float(arrival))
                assert oracle.intervals(zone, arrival) == intervals
                best = None
                for low, high in intervals:
                    candidate = int(np.floor(high + eps))
                    if candidate >= max(1, int(np.ceil(low - eps))):
                        best = candidate if best is None else max(best, candidate)
                assert oracle.max_stay(zone, arrival) == best
                smallest = None
                for low, high in intervals:
                    candidate = max(1, int(np.ceil(low - eps)))
                    if candidate <= high + eps:
                        smallest = (
                            candidate if smallest is None else min(smallest, candidate)
                        )
                assert oracle.min_stay(zone, arrival) == smallest
                assert oracle.entry_ok(zone, arrival) == (best is not None)
                for stay in (1, 15, 90, 300):
                    expected = any(
                        low - eps <= stay <= high + eps for low, high in intervals
                    )
                    assert oracle.exit_ok(zone, arrival, stay) == expected


@pytest.fixture(scope="module")
def fleet_adms():
    """K-means ADMs of 2-training-day fleet homes, fitted as the
    ``fleet_attack`` experiment fits them: nearly every hull is a point
    or a segment, and few table rows hold an interval."""
    from repro.runner.common import KMEANS_PARAMS

    adms = []
    for home, trace in generate_home_fleet(3, n_zones=4, n_days=6, seed=1):
        train, _ = split_days(trace, 2)
        adms.append((home, ClusterADM(KMEANS_PARAMS).fit(train, home.n_zones)))
    return adms


def test_stealth_oracle_matches_adm_scalar_queries_fleet(fleet_adms):
    """Every arrival minute of fleet ADMs, where the oracle derives only
    the rows that hold an interval and fills the rest."""
    kinds = set()
    for home, adm in fleet_adms:
        _assert_oracles_match_scalar_queries(
            adm, home.n_occupants, home.n_zones, range(1440)
        )
        for occupant in range(home.n_occupants):
            for zone in range(home.n_zones):
                kinds.update(min(h.n_vertices, 3) for h in adm.hulls(occupant, zone))
    assert {1, 2} <= kinds


def _adm_through_result_channel(cache: ArtifactCache, adm: ClusterADM) -> ClusterADM:
    """An ADM sent home as a remote result: its array form spills to a
    ``.raf`` frame under the disk tier, or crosses inline as a frame."""
    arrays = cluster_adm_to_arrays(adm)
    token = cache.maybe_spill(arrays)
    if token is not None:
        return cluster_adm_from_arrays(cache.take_spill(token))
    return cluster_adm_from_arrays(decode_artifact(encode_artifact(arrays)))


@pytest.mark.parametrize("spill_threshold", [0, None])
def test_geometry_from_a_decoded_adm_frame_matches(
    fleet_adms, tmp_path, spill_threshold
):
    """An ADM read back from a frame — its ``.raf`` ADM-tier entry, or
    the result channel (spilled at threshold 0, inline under the
    default) — holds read-only hull arrays; its stay tables and oracles
    are the in-process ones."""
    token = ("fleet-geometry",)
    for index, (home, adm) in enumerate(fleet_adms):
        ArtifactCache(memory=False, disk_dir=tmp_path).put_adm(token + (index,), adm)
        reader = ArtifactCache(
            memory=False, disk_dir=tmp_path, spill_threshold=spill_threshold
        )
        from_tier = reader.get_adm(token + (index,))
        from_result = _adm_through_result_channel(reader, adm)
        # Threshold 0 spills every result, and taking a spill deletes its
        # frame; the default sends these few-KiB ADMs inline.
        assert (tmp_path / "spill").is_dir() == (spill_threshold == 0)
        assert not any((tmp_path / "spill").glob("*.raf"))
        for decoded in (from_tier, from_result):
            _assert_decoded_adm_geometry_matches(decoded, adm, home)


def _assert_decoded_adm_geometry_matches(decoded, adm, home) -> None:
    for occupant in range(home.n_occupants):
        for zone in range(home.n_zones):
            hulls = decoded.hulls(occupant, zone)
            assert all(not hull.vertices.flags.writeable for hull in hulls)
            got = stay_range_table(hulls, np.arange(1440.0))
            want = stay_range_table(adm.hulls(occupant, zone), np.arange(1440.0))
            for field in ("lows", "highs", "counts"):
                got_array, want_array = getattr(got, field), getattr(want, field)
                assert got_array.tobytes() == want_array.tobytes()
                assert got_array.shape == want_array.shape
        got = _StealthOracle(decoded, occupant, home.n_zones)
        want = _StealthOracle(adm, occupant, home.n_zones)
        for field in ("max_int", "min_int", "entry", "lo", "hi"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
            assert getattr(got, field).shape == getattr(want, field).shape


def _kernel_groups(aras_world, fleet_adms, seed: int) -> list:
    """Hull groups of every shape in one list: fleet-regime random sets
    (vertical segments included), an empty group, 2-training-day fleet
    ADMs and ARAS ADMs (whose polygons give rows several intervals)."""
    rng = np.random.default_rng(seed)
    _, aras_adm, _ = aras_world
    groups = [_fleet_regime_hulls(rng) for _ in range(10)] + [[]]
    for adm in [aras_adm] + [adm for _, adm in fleet_adms]:
        groups += [
            adm.hulls(occupant, zone)
            for occupant in range(adm.n_occupants)
            for zone in range(adm.n_zones)
        ]
    return [groups[i] for i in rng.permutation(len(groups))]


@pytest.mark.parametrize("seed", [0, 1])
def test_stay_range_rows_match_per_group_pass_and_scalar_tier(
    aras_world, fleet_adms, seed
):
    """One multi-group call equals the per-group pass over every arrival
    (no candidate pruning) row for row and bit for bit, and every row
    equals the scalar tier, on the minute grid and on and within ±2e-9
    of every vertex.  A NaN arrival is rejected."""
    from repro.geometry.halfplane import _merged_stay_rows

    groups = _kernel_groups(aras_world, fleet_adms, seed)
    hulls = [hull for group in groups for hull in group]
    assert any(
        h.n_vertices == 2 and h.vertices[0, 0] == h.vertices[1, 0] for h in hulls
    )
    assert {1, 2, 3} <= {min(h.n_vertices, 3) for h in hulls}
    xs = np.unique(np.concatenate([h.vertices[:, 0] for h in hulls]))
    arrivals = np.concatenate(
        [np.arange(1440.0), *(xs + d for d in (-2e-9, -0.5e-9, 0.0, 0.5e-9, 2e-9))]
    )
    rows = stay_range_rows(groups, arrivals)
    order = np.lexsort((rows.arrival, rows.group))
    assert np.array_equal(order, np.arange(len(order)))
    assert (rows.counts >= 1).all()
    widths = set()
    for g, group in enumerate(groups):
        lows, highs, counts = _merged_stay_rows(group, arrivals)
        mine = rows.group == g
        assert np.array_equal(rows.arrival[mine], np.flatnonzero(counts))
        width = max(1, int(counts.max()))
        widths.add(width)
        assert rows.lows.shape[1] >= width
        assert rows.lows[mine, :width].tobytes() == lows[counts > 0, :width].tobytes()
        assert rows.highs[mine, :width].tobytes() == highs[counts > 0, :width].tobytes()
        assert (rows.lows[mine, width:] == np.inf).all()
        assert rows.counts[mine].tobytes() == counts[counts > 0].tobytes()
    assert len(widths) > 1
    for r in range(len(rows.group)):
        group, arrival = groups[rows.group[r]], arrivals[rows.arrival[r]]
        assert [
            (float(rows.lows[r, k]), float(rows.highs[r, k]))
            for k in range(rows.counts[r])
        ] == union_stay_ranges(group, float(arrival))
    held = set(zip(rows.group.tolist(), rows.arrival.tolist()))
    for g, group in enumerate(groups):
        for a in range(0, len(arrivals), 29):
            if (g, a) not in held:
                assert union_stay_ranges(group, float(arrivals[a])) == []
    with pytest.raises(ValueError, match="NaN"):
        stay_range_rows(groups, np.append(arrivals, np.nan))


def test_batch_built_oracles_equal_one_pair_oracles(aras_world, fleet_adms):
    """Oracles constructed from one shared pass hold the arrays (and
    interval width) a one-pair oracle holds, and their raw rows answer
    ``intervals()`` like the ADM's scalar ``stay_ranges``."""
    home, aras_adm, _ = aras_world
    pairs = [(aras_adm, o, home.n_zones) for o in range(home.n_occupants)]
    pairs += [
        (adm, o, fleet_home.n_zones)
        for fleet_home, adm in fleet_adms
        for o in range(fleet_home.n_occupants)
    ]
    batch = schedule_module._OracleBatch(pairs)
    for adm, occupant, n_zones in pairs:
        got = _StealthOracle(adm, occupant, n_zones, batch)
        want = _StealthOracle(adm, occupant, n_zones)
        for name in ("entry", "max_int", "min_int", "lo", "hi"):
            got_array, want_array = getattr(got, name), getattr(want, name)
            assert got_array.dtype == want_array.dtype
            assert got_array.shape == want_array.shape
            assert got_array.tobytes() == want_array.tobytes()
        step = 1 if adm is not aras_adm else 7
        for zone in range(n_zones):
            for arrival in range(0, 1440, step):
                assert got.intervals(zone, arrival) == adm.stay_ranges(
                    occupant, zone, float(arrival)
                )


def test_packed_adm_frame_round_trips_every_group(fleet_adms, aras_world, tmp_path):
    """An ADM's frame holds one array per field across its groups; the
    ADM read back from its ``.raf`` tier entry has the same groups,
    points, labels and hulls and answers like the fitted one.  A frame
    of another version, or one whose arrays disagree with its group
    table, is refused."""
    from repro.errors import ConfigurationError

    _, aras_adm, _ = aras_world
    adms = [aras_adm] + [adm for _, adm in fleet_adms]
    cache = ArtifactCache(memory=False, disk_dir=tmp_path)
    for index, adm in enumerate(adms):
        payload = cluster_adm_to_arrays(adm)
        assert payload["groups"].shape == (len(adm._groups), 4)
        assert payload["vertices"].shape == (int(payload["hull_sizes"].sum()), 2)
        cache.put_adm(("packed", index), adm)
        decoded = cache.get_adm(("packed", index))
        assert sorted(decoded._groups) == sorted(adm._groups)
        for key, model in adm._groups.items():
            clone = decoded._groups[key]
            assert clone.points.tobytes() == model.points.tobytes()
            assert clone.labels.tobytes() == model.labels.tobytes()
            assert [h.vertices.tobytes() for h in clone.hulls] == [
                h.vertices.tobytes() for h in model.hulls
            ]
            occupant, zone = key
            for arrival in range(0, 1440, 37):
                assert decoded.stay_ranges(occupant, zone, arrival) == (
                    adm.stay_ranges(occupant, zone, arrival)
                )
            if len(model.points):
                assert decoded.benign_mask(occupant, zone, model.points).tolist() == (
                    adm.benign_mask(occupant, zone, model.points).tolist()
                )
    payload = cluster_adm_to_arrays(aras_adm)
    with pytest.raises(ConfigurationError, match="version"):
        cluster_adm_from_arrays({**payload, "format_version": 1})
    with pytest.raises(ConfigurationError, match="group table"):
        cluster_adm_from_arrays({**payload, "hull_sizes": payload["hull_sizes"][1:]})


# ---------------------------------------------------------------------------
# ADM fit: one array program vs the per-group loop


# The module, not the function that ``repro.adm`` re-exports under its name.
kmeans_module = importlib.import_module("repro.adm.kmeans")


def _same_arrays(ours: list[np.ndarray], theirs: list[np.ndarray]) -> bool:
    return [(a.dtype, a.shape, a.tobytes()) for a in ours] == [
        (b.dtype, b.shape, b.tobytes()) for b in theirs
    ]


def _fit_params(backend: ClusterBackend, k: int) -> AdmParams:
    return AdmParams(backend=backend, k=k, eps=40.0, min_pts=4, tolerance=20.0)


_FIT_PARAMS = [
    _fit_params(backend, k)
    for backend in (ClusterBackend.KMEANS, ClusterBackend.DBSCAN)
    for k in (2, 4, 6)
]


def _assert_fit_matches_reference(params: AdmParams, trace, n_zones: int) -> ClusterADM:
    """``fit`` and ``_fit_reference`` agree on every group's points,
    labels (dtype included) and hulls in order, and on the encoded ADM
    frame's bytes; the visit pass's rows are ``visits_to_points``'s."""
    fitted = ClusterADM(params).fit(trace, n_zones)
    reference = ClusterADM(params)._fit_reference(trace, n_zones)
    assert list(fitted._groups) == list(reference._groups)
    for key, model in reference._groups.items():
        batched = fitted._groups[key]
        assert _same_arrays(
            [batched.points, batched.labels, *(h.vertices for h in batched.hulls)],
            [model.points, model.labels, *(h.vertices for h in model.hulls)],
        ), key
    assert encode_artifact(cluster_adm_to_arrays(fitted)) == encode_artifact(
        cluster_adm_to_arrays(reference)
    )
    points, sizes = group_visit_points(trace, n_zones)
    visits = extract_visits(trace)
    assert _same_arrays(
        np.split(points, np.cumsum(sizes)[:-1]),
        [
            visits_to_points(visits, occupant, zone)
            for occupant in range(trace.n_occupants)
            for zone in range(n_zones)
        ],
    )
    return fitted


@pytest.mark.parametrize("seed", [1, 77, 2023])
def test_batched_fit_matches_reference_on_fleet_homes(seed):
    """Fleet homes with 2 training days, the ``fleet_attack`` regime:
    most groups hold 2 points, some hold duplicates."""
    kinds = set()
    for home, trace in generate_home_fleet(6, n_zones=4, n_days=3, seed=seed):
        train, _ = split_days(trace, 2)
        for params in _FIT_PARAMS:
            adm = _assert_fit_matches_reference(params, train, home.n_zones)
            kinds.update(
                min(hull.n_vertices, 3)
                for model in adm._groups.values()
                for hull in model.hulls
            )
    assert {1, 2} <= kinds


@pytest.mark.parametrize("house", ["A", "B"])
def test_batched_fit_matches_reference_on_aras_homes(house):
    """ARAS houses A and B at 1, 3, 5 and 9 training days: larger groups,
    which batch by exact size, and polygon hulls."""
    home = build_house_a() if house == "A" else build_house_b()
    trace = generate_house_trace(
        home, house=house, config=SyntheticConfig(n_days=10, seed=19)
    )
    kinds = set()
    for days in (1, 3, 5, 9):
        train, _ = split_days(trace, days)
        for params in _FIT_PARAMS:
            adm = _assert_fit_matches_reference(params, train, home.n_zones)
            kinds.update(
                min(hull.n_vertices, 3)
                for model in adm._groups.values()
                for hull in model.hulls
            )
    assert kinds == {1, 2, 3}


def test_batched_fit_matches_reference_on_partial_days_and_foreign_zones():
    """A trace that ends mid-day, and one whose zone ids fall outside
    ``range(n_zones)``: those visits belong to no group."""
    home = build_house_a()
    trace = generate_house_trace(
        home, house="A", config=SyntheticConfig(n_days=3, seed=5)
    )
    partial = trace.slice_slots(0, 2 * 1440 + 517)
    foreign = trace.slice_slots(0, 2 * 1440)
    zones = foreign.occupant_zone
    zones[100:160, 0] = home.n_zones
    zones[1500:1530, 1] = home.n_zones + 3
    zones[2000:2010, 0] = -1
    for params in _FIT_PARAMS:
        _assert_fit_matches_reference(params, partial, home.n_zones)
        _assert_fit_matches_reference(params, foreign, home.n_zones)
    points, sizes = group_visit_points(foreign, home.n_zones)
    assert int(sizes.sum()) == len(points) < len(extract_visits(foreign))


def _groups_of(rng, sizes) -> list[np.ndarray]:
    return [rng.uniform(0, 1440, (n, 2)).round(rng.integers(0, 3)) for n in sizes]


def _assert_kmeans_groups_match(groups: list[np.ndarray], ks, seed: int) -> None:
    sizes = np.array([len(group) for group in groups])
    labels = kmeans_groups(np.concatenate(groups), sizes, ks, seed=seed)
    assert labels.dtype == np.int64
    expected = [kmeans(group, k=int(k), seed=seed)[0] for group, k in zip(groups, ks)]
    assert _same_arrays(np.split(labels, np.cumsum(sizes)[:-1]), expected)


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_kmeans_groups_matches_per_group_kmeans(seed):
    """Groups of 1 point, below numpy's 8-term sequential-sum limit
    (one padded batch), of exactly 8 and 9, and larger (each size its
    own batch), at every k up to the group size."""
    rng = np.random.default_rng(seed)
    sizes = [1, 2, 3, 5, 7, 7, 8, 8, 9, 9, 12, 30, 64]
    for k in range(1, 7):
        groups = _groups_of(rng, sizes)
        _assert_kmeans_groups_match(groups, np.minimum(k, sizes), seed)
    one = _groups_of(rng, [9])
    _assert_kmeans_groups_match(one, [3], seed)


def test_numpy_sums_rows_shorter_than_the_padding_limit_left_to_right():
    """``kmeans_groups`` zero-pads only groups shorter than
    ``_SEQUENTIAL_SUM``: numpy sums such a row left to right, so its
    trailing zeros leave the D^2 total unchanged, while a row of that
    length takes numpy's pairwise path and must batch by exact size."""
    limit = kmeans_module._SEQUENTIAL_SUM
    rng = np.random.default_rng(5)
    rows = rng.random((500, limit)) * 10.0 ** rng.integers(-3, 4, (500, limit))

    def left_to_right(row) -> float:
        total = 0.0
        for value in row.tolist():
            total += value
        return total

    for width in range(1, limit):
        short = np.ascontiguousarray(rows[:, :width])
        assert short.sum(axis=1).tolist() == [left_to_right(r) for r in short]
    assert rows.sum(axis=1).tolist() != [left_to_right(r) for r in rows]


def test_kmeans_groups_reruns_groups_whose_seeding_meets_a_zero_total(monkeypatch):
    """A group with fewer distinct points than ``k`` meets a zero D^2
    total in k-means++, where ``kmeans`` draws from another branch of
    the generator; ``kmeans_groups`` reruns exactly those groups alone.
    With inexact means (three copies of 0.1 do not average to 0.1),
    which duplicate that branch draws decides the labels."""
    reruns = []

    def counting(points, k, *args):
        reruns.append(len(points))
        return kmeans(points, k, *args)

    monkeypatch.setattr(kmeans_module, "kmeans", counting)
    tenth = [[0.1, 0.0]] * 3
    groups = [
        np.array(tenth + [[5.0, 0.0]]),
        np.array([[5.0, 0.0]] + tenth),
        np.array(tenth + [[5.0, 0.0], [0.1, 0.0], [9.0, 1.0]]),
        np.array([[3.0, 4.0]] * 9 + [[1.0, 1.0]]),
        np.array([[2.0, 2.0], [7.0, 1.0], [4.0, 9.0]]),
    ]
    ks = [3, 3, 4, 3, 3]
    for seed in range(12):
        reruns.clear()
        _assert_kmeans_groups_match(groups, ks, seed)
        assert sorted(reruns) == [4, 4, 6, 10]


def test_kmeans_groups_rejects_an_invalid_k():
    from repro.errors import ClusteringError

    points = np.zeros((5, 2))
    with pytest.raises(ClusteringError, match="k must be >= 1, got 0"):
        kmeans_groups(points, [2, 3], [1, 0])
    with pytest.raises(ClusteringError, match="cannot form 3 clusters from 2 points"):
        kmeans_groups(points, [2, 3], [3, 1])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cluster_hulls_match_quickhull_per_cluster(seed):
    """Point, segment and polygon clusters in one call: horizontal,
    vertical and slanted collinear sets give segment hulls, repeated
    points count once, and noise rows belong to no cluster."""
    rng = np.random.default_rng(seed)
    clusters = []
    for _ in range(40):
        n = int(rng.integers(1, 7))
        x0, y0 = rng.integers(0, 1440, 2).astype(float)
        kind = rng.integers(5)
        if kind == 0:  # horizontal
            pts = np.column_stack((x0 + rng.integers(0, 60, n), np.full(n, y0)))
        elif kind == 1:  # vertical
            pts = np.column_stack((np.full(n, x0), y0 + rng.integers(0, 60, n)))
        elif kind == 2:  # slanted collinear
            t = rng.integers(-20, 20, n)
            pts = np.column_stack((x0 + 3 * t, y0 - 7 * t))
        elif kind == 3:  # two points, either order
            dx, dy = rng.integers(0, 30), rng.integers(-40, 40)
            pts = np.array([[x0, y0], [x0 + dx, y0 - dy]])
        else:
            pts = np.array([x0, y0]) + rng.integers(0, 90, (n, 2))
        pts = pts.astype(float)
        clusters.append(pts[rng.integers(0, len(pts), len(pts) + 2)])
    group_of = rng.integers(0, 6, len(clusters))
    label_of = rng.integers(-1, 4, len(clusters))
    points = np.concatenate(clusters)
    groups = np.repeat(group_of, [len(c) for c in clusters])
    labels = np.repeat(label_of, [len(c) for c in clusters])
    order = rng.permutation(len(points))
    points, groups, labels = points[order], groups[order], labels[order]
    hull_groups, hulls = cluster_hulls(points, groups, labels)
    expected = [
        (g, quickhull(points[(groups == g) & (labels == label)]))
        for g in range(6)
        for label in sorted(set(labels[(groups == g) & (labels >= 0)].tolist()))
    ]
    assert hull_groups.tolist() == [g for g, _ in expected]
    assert [(h.vertices.shape, h.vertices.tobytes()) for h in hulls] == [
        (h.vertices.shape, h.vertices.tobytes()) for _, h in expected
    ]
    assert {1, 2, 3} <= {min(h.n_vertices, 3) for h in hulls}


def _schedules_equal(a, b) -> bool:
    return (
        np.array_equal(a.spoofed_zone, b.spoofed_zone)
        and np.array_equal(a.spoofed_activity, b.spoofed_activity)
        and a.expected_reward == b.expected_reward
        and a.infeasible_days == b.infeasible_days
        and a.substituted_days == b.substituted_days
    )


@pytest.mark.parametrize(
    "config_kwargs",
    [
        {},
        {"window": 5, "beam_width": 8},
        {"window": 30},
        {"window": 1},
        {"beam_width": 1},
    ],
)
def test_vector_dp_matches_reference_engine(aras_world, config_kwargs):
    home, adm, evaluation = aras_world
    capability = AttackerCapability.full_access(home)
    pricing = TouPricing()
    config = ScheduleConfig(**config_kwargs)
    reference = _shatter_schedule_reference(
        ScheduleJob(home, adm, capability, pricing, evaluation, config=config)
    )
    vector = shatter_schedule(
        home, adm, capability, pricing, evaluation, config=config
    )
    assert _schedules_equal(reference, vector)


def _second_day_only(home) -> AttackerCapability:
    """Occupant 0 over the second day of a two-day trace: the planners
    attack only days whose first and last slots are in range."""
    return AttackerCapability(
        zones=frozenset(range(home.n_zones)),
        occupants=frozenset({0}),
        appliances=frozenset(),
        slot_range=(1440, 2880),
    )


def _assert_spoofs_only_in_range(schedule, actual, capability) -> None:
    """The schedule spoofs something, and nothing outside ``T^A``."""
    changed = schedule.spoofed_zone != actual.occupant_zone
    spoofed = np.flatnonzero(changed.any(axis=1))
    low, high = capability.slot_range
    assert len(spoofed) > 0
    assert low <= spoofed.min() and spoofed.max() < high


def test_vector_dp_matches_reference_under_restricted_capability(aras_world):
    """Segment anchoring (forbidden first/last zones) and a slot range
    agree bit for bit."""
    home, adm, evaluation = aras_world
    assert evaluation.n_slots == 2 * 1440
    pricing = TouPricing()
    day = evaluation.slice_slots(0, 1440)
    for capability, trace in (
        (AttackerCapability.with_zones(home, [1, 3]), day),
        (_second_day_only(home), evaluation),
    ):
        reference = _shatter_schedule_reference(
            ScheduleJob(home, adm, capability, pricing, trace)
        )
        vector = shatter_schedule(home, adm, capability, pricing, trace)
        assert _schedules_equal(reference, vector)
    # The last case is the slot range: it attacks its own day only.
    _assert_spoofs_only_in_range(vector, evaluation, capability)


def test_vector_dp_matches_reference_kmeans_house_b():
    home = build_house_b()
    trace = generate_house_trace(
        home, house="B", config=SyntheticConfig(n_days=8, seed=91)
    )
    train, evaluation = split_days(trace, 7)
    adm = ClusterADM(
        AdmParams(backend=ClusterBackend.KMEANS, k=5, tolerance=5.0)
    ).fit(train, home.n_zones)
    capability = AttackerCapability.full_access(home)
    pricing = TouPricing()
    reference = _shatter_schedule_reference(
        ScheduleJob(home, adm, capability, pricing, evaluation)
    )
    vector = shatter_schedule(home, adm, capability, pricing, evaluation)
    assert _schedules_equal(reference, vector)


def _record_first_wave_rows(monkeypatch) -> list[_SpanTask]:
    """The rows ``_optimize_spans_batch`` receives from the batch
    planner's first DP wave: the planned tasks (those of the first
    ``_solve_span_tasks`` call) at the unwidened beam, so not the
    widened retry wave, and not the per-visit fallback's one-task
    calls."""
    rows: list[_SpanTask] = []
    planned: set[int] = set()
    solve_tasks, solve_batch = schedule_module._solve_span_tasks, _optimize_spans_batch
    beam = ScheduleConfig().beam_width

    def waves(tasks):
        if not planned:
            planned.update(map(id, tasks))
        solve_tasks(tasks)

    def batch(tasks, zones, config, start, end):
        if config.beam_width == beam:
            rows.extend(task for task in tasks if id(task) in planned)
        return solve_batch(tasks, zones, config, start, end)

    monkeypatch.setattr(schedule_module, "_solve_span_tasks", waves)
    monkeypatch.setattr(schedule_module, "_optimize_spans_batch", batch)
    return rows


def test_full_access_days_of_one_occupant_are_one_row(aras_world, monkeypatch):
    """Under full access every evaluation day of an occupant is the same
    ``(0, 1440)`` problem with no anchors: the batch gets one row per
    occupant, not one per (occupant, day)."""
    home, adm, evaluation = aras_world
    assert evaluation.n_slots // 1440 > 1
    rows = _record_first_wave_rows(monkeypatch)
    shatter_schedule(
        home, adm, AttackerCapability.full_access(home), TouPricing(), evaluation
    )
    assert len(rows) == home.n_occupants
    assert {id(task.oracle) for task in rows} == {
        id(stealth_oracle(adm, oid, home.n_zones))
        for oid in range(home.n_occupants)
    }
    assert all((task.start, task.end) == (0, 1440) for task in rows)


def test_restricted_days_keep_one_row_per_distinct_segment(aras_world, monkeypatch):
    """With zone-restricted access the segments differ per day: the batch
    gets one row per distinct (occupant, segment, anchors) problem, days
    that pose the same problem share its row, and the schedule is still
    the reference oracle's."""
    home, adm, evaluation = aras_world
    capability = AttackerCapability.with_zones(home, [1, 3])
    pricing = TouPricing()
    job = ScheduleJob(home, adm, capability, pricing, evaluation)
    tasks: list[_SpanTask] = []
    plans = _plan_vector_job(job, ControllerConfig(), ScheduleConfig(), tasks)
    by_key: dict[tuple, set[int]] = {}
    days: dict[int, set[tuple]] = {}
    for plan in plans:
        for seg in plan.segments:
            key = (
                plan.occupant_id,
                seg.start,
                seg.end,
                seg.forbidden_first,
                seg.forbidden_last,
            )
            by_key.setdefault(key, set()).add(id(seg))
            days.setdefault(plan.day, set()).add(key)
    assert len(days) > 1 and len({frozenset(keys) for keys in days.values()}) > 1
    assert all(len(ids) == 1 for ids in by_key.values())
    assert len(tasks) == len(by_key) > home.n_occupants

    rows = _record_first_wave_rows(monkeypatch)
    vector = shatter_schedule(home, adm, capability, pricing, evaluation)
    assert len(rows) == len(by_key)
    reference = _shatter_schedule_reference(job)
    assert _schedules_equal(reference, vector)


def test_days_differing_only_in_an_anchor_keep_their_own_rows(aras_world):
    """Two days with the same segment bounds whose real zone just before
    or just after a segment differs pose different problems there:
    those segments get a row per day, every other segment shares one,
    and the schedule is still the reference oracle's."""
    home, adm, evaluation = aras_world
    capability = AttackerCapability.with_zones(home, [1, 3])
    day = evaluation.slice_slots(0, 1440)
    zones = day.occupant_zone.copy()
    spoofable = np.isin(zones[:, 0], sorted(capability.zones))
    # The unspoofable slot right before one segment and the one right
    # after another move to another unspoofable zone: the bounds stay,
    # the anchors change.
    before = int(np.flatnonzero(spoofable[1:] & ~spoofable[:-1])[0])
    after = int(np.flatnonzero(spoofable[:-1] & ~spoofable[1:])[-1]) + 1
    moved = zones.copy()
    for slot in (before, after):
        moved[slot, 0] = next(
            zone
            for zone in range(home.n_zones)
            if zone not in capability.zones and zone != zones[slot, 0]
        )
    trace = HomeTrace(
        occupant_zone=np.concatenate([zones, moved]),
        occupant_activity=np.concatenate([day.occupant_activity] * 2),
        appliance_status=np.concatenate([day.appliance_status] * 2),
    )
    pricing = TouPricing()
    tasks: list[_SpanTask] = []
    first, second = [
        plan
        for plan in _plan_vector_job(
            ScheduleJob(home, adm, capability, pricing, trace),
            ControllerConfig(),
            ScheduleConfig(),
            tasks,
        )
        if plan.occupant_id == 0
    ]
    assert [(s.start, s.end) for s in first.segments] == [
        (s.start, s.end) for s in second.segments
    ]
    pairs = list(zip(first.segments, second.segments))
    assert any(a.forbidden_first != b.forbidden_first for a, b in pairs)
    assert any(a.forbidden_last != b.forbidden_last for a, b in pairs)
    own_rows = [a.start for a, b in pairs if a is not b]
    assert own_rows == [
        a.start
        for a, b in pairs
        if (a.forbidden_first, a.forbidden_last)
        != (b.forbidden_first, b.forbidden_last)
    ]
    reference = _shatter_schedule_reference(
        ScheduleJob(home, adm, capability, pricing, trace)
    )
    vector = shatter_schedule(home, adm, capability, pricing, trace)
    assert _schedules_equal(reference, vector)


@pytest.fixture(scope="module")
def span_worlds(aras_world):
    """``(zones, rewards, oracle, actual day)`` per occupant of houses A
    and B, with the production reward tables and stealth oracles."""
    home_b = build_house_b()
    trace_b = generate_house_trace(
        home_b, house="B", config=SyntheticConfig(n_days=8, seed=91)
    )
    train_b, evaluation_b = split_days(trace_b, 7)
    adm_b = ClusterADM(
        AdmParams(backend=ClusterBackend.KMEANS, k=5, tolerance=5.0)
    ).fit(train_b, home_b.n_zones)
    home_a, adm_a, evaluation_a = aras_world
    worlds = []
    for home, adm, evaluation in (
        (home_a, adm_a, evaluation_a),
        (home_b, adm_b, evaluation_b),
    ):
        zones = AttackerCapability.full_access(home).schedulable_zones(home)
        for occupant in range(home.n_occupants):
            rewards, _ = occupant_reward_table(
                home,
                occupant,
                zones,
                TouPricing(),
                ControllerConfig(),
                ScheduleConfig(),
            )
            worlds.append(
                (
                    zones,
                    rewards,
                    stealth_oracle(adm, occupant, home.n_zones),
                    evaluation.occupant_zone[:1440, occupant],
                )
            )
    return worlds


def _visit_bounds(actual) -> list[int]:
    """Slots where a real visit starts, plus the end of the day."""
    return [0, *(np.flatnonzero(actual[1:] != actual[:-1]) + 1).tolist(), 1440]


def _random_spans(rng, zones, oracle, actual, count):
    """Seeded ``(start, end, forbidden_first, forbidden_last)`` spans.

    Per draw: a run of real visits anchored on the real zones around it
    (the planner's segments and the per-visit fallback), a random span
    with random anchors, and a one-slot span.  Then the two ways a span
    has no enterable first zone: a minute where no zone can be entered,
    and one whose only enterable zone is the forbidden first zone.
    """
    bounds = _visit_bounds(actual)

    def anchor():
        return None if rng.random() < 0.3 else int(rng.choice(zones))

    spans = []
    for _ in range(count):
        i = int(rng.integers(0, len(bounds) - 1))
        j = min(len(bounds) - 1, i + int(rng.integers(1, 4)))
        start, end = bounds[i], bounds[j]
        spans.append(
            (
                start,
                end,
                int(actual[start - 1]) if start > 0 else None,
                int(actual[end]) if end < 1440 else None,
            )
        )
        start = int(rng.integers(0, 1439))
        spans.append(
            (start, min(1440, start + int(rng.integers(2, 120))), anchor(), anchor())
        )
        spans.append((start, start + 1, anchor(), anchor()))
    enterable = oracle.entry[zones].sum(axis=0)
    closed = int(np.flatnonzero(enterable[:1400] == 0)[0])
    lone = int(np.flatnonzero(enterable[:1400] == 1)[0])
    only = zones[int(np.flatnonzero(oracle.entry[zones, lone])[0])]
    spans.append((closed, closed + 30, None, None))
    spans.append((lone, lone + 30, only, None))
    return spans


@pytest.mark.parametrize(
    "config_kwargs",
    [{"window": 1}, {"window": 10}, {"window": 30}, {"beam_width": 1}],
)
def test_span_dp_matches_reference_engine(span_worlds, config_kwargs):
    """A one-task ``_solve_span_tasks`` call (a one-row batch and its
    widened retry) solves any single span with the dict DP's exact path
    and value (``_optimize_span`` and its retry)."""
    config = ScheduleConfig(**config_kwargs)
    outcomes = []
    for index, (zones, rewards, oracle, actual) in enumerate(span_worlds):
        rng = np.random.default_rng(index)
        for span in _random_spans(rng, zones, oracle, actual, 8):
            reference = _optimize_span_with_retry(
                zones, rewards, oracle, config, *span
            )
            task = _SpanTask(oracle, rewards, tuple(zones), *span, config)
            _solve_span_tasks([task])
            assert _same_outcome(task.outcome, reference), (index, span)
            outcomes.append(task.outcome)
    assert any(outcome is None for outcome in outcomes)
    assert any(outcome is not None for outcome in outcomes)


def _same_outcome(a, b) -> bool:
    """Two span outcomes agree: both ``None``, or equal paths (array or
    list) and equal values."""
    if a is None or b is None:
        return a is b
    return np.array_equal(a[0], b[0]) and a[1] == b[1]


def test_spans_batch_rows_match_rows_solved_alone(span_worlds):
    """One batch mixing dead rows (no enterable first zone) with live
    ones returns, row for row, what each row returns alone and what the
    dict DP returns; a live span solved through a one-task
    ``_solve_span_tasks`` call records one ``schedule_dp_batch`` event."""
    zones, rewards, oracle, actual = span_worlds[0]
    config = ScheduleConfig()
    bounds = _visit_bounds(actual)
    runs = [
        (bounds[i], bounds[j])
        for i in range(len(bounds) - 1)
        for j in range(i + 1, min(len(bounds), i + 4))
    ]
    # The first run of real visits the dict DP can spoof.
    start, end = next(
        (start, end)
        for start, end in runs
        if _optimize_span(zones, rewards, oracle, config, start, end) is not None
    )
    tasks = [
        _SpanTask(world[2], world[1], tuple(zones), start, end, first, last, config)
        for world in span_worlds
        for first in (None, *zones)
        for last in (None, int(actual[end]) if end < 1440 else 0)
    ]
    dead = [
        row
        for row, task in enumerate(tasks)
        if not any(
            z != task.forbidden_first and task.oracle.entry[z, start]
            for z in zones
        )
    ]
    assert 0 < len(dead) < len(tasks)
    together = _optimize_spans_batch(tasks, zones, config, start, end)
    alone = [
        _optimize_spans_batch([task], zones, config, start, end)[0]
        for task in tasks
    ]
    reference = [
        _optimize_span(
            zones,
            task.rewards,
            task.oracle,
            config,
            start,
            end,
            task.forbidden_first,
            task.forbidden_last,
        )
        for task in tasks
    ]
    assert len(together) == len(alone) == len(reference) == len(tasks)
    for got, solo, expected in zip(together, alone, reference):
        assert _same_outcome(got, solo) and _same_outcome(got, expected)
    assert all(
        outcome[0].dtype == np.int64 for outcome in together if outcome is not None
    )
    assert all(together[row] is None for row in dead)
    assert any(outcome is not None for outcome in together)
    live = next(row for row, outcome in enumerate(together) if outcome is not None)
    task = tasks[live]
    with collect_events() as aggregator:
        _solve_span_tasks([task])
    assert _same_outcome(task.outcome, together[live])
    assert aggregator.kernels[SCHEDULE_DP_BATCH].calls == 1


def _results_equal(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, field), getattr(b, field))
        for field in _SIM_FIELDS
    )


@pytest.fixture(scope="module")
def sim_world():
    home = build_house_a()
    trace = generate_house_trace(
        home, house="A", config=SyntheticConfig(n_days=2, seed=17)
    )
    return home, trace


def test_simulate_matches_reference_benign(sim_world):
    home, trace = sim_world
    controller = DemandControlledHVAC(home)
    assert _results_equal(
        simulate_reference(home, trace, controller),
        simulate(home, trace, controller),
    )


def test_simulate_matches_reference_under_attack(sim_world):
    home, trace = sim_world
    controller = DemandControlledHVAC(home)
    rng = np.random.default_rng(5)
    reported_zone = trace.occupant_zone.copy()
    mask = rng.random(reported_zone.shape) < 0.35
    reported_zone[mask] = rng.integers(0, home.n_zones, size=int(mask.sum()))
    reported_activity = trace.occupant_activity.copy()
    assert _results_equal(
        simulate_reference(
            home,
            trace,
            controller,
            reported_zone=reported_zone,
            reported_activity=reported_activity,
        ),
        simulate(
            home,
            trace,
            controller,
            reported_zone=reported_zone,
            reported_activity=reported_activity,
        ),
    )


def test_simulate_matches_reference_outdoor_profile(sim_world):
    home, trace = sim_world
    controller = DemandControlledHVAC(home)
    profile = 78.0 + 14.0 * np.sin(np.arange(trace.n_slots) / 1440.0 * 2 * np.pi)
    outdoor = OutdoorConditions(temperature_f=profile)
    assert _results_equal(
        simulate_reference(home, trace, controller, outdoor=outdoor),
        simulate(home, trace, controller, outdoor=outdoor),
    )


def test_simulate_matches_reference_ashrae(sim_world):
    home, trace = sim_world
    controller = AshraeController(home, ControllerConfig()).calibrate(trace)
    assert _results_equal(
        simulate_reference(home, trace, controller),
        simulate(home, trace, controller),
    )


def test_simulate_matches_reference_large_home():
    """8+ zones: the metering row sums use numpy's pairwise blocking."""
    fleet = generate_home_fleet(1, n_zones=8, n_days=2, seed=3)
    home, trace = fleet[0]
    controller = DemandControlledHVAC(home)
    assert _results_equal(
        simulate_reference(home, trace, controller),
        simulate(home, trace, controller),
    )


@pytest.mark.parametrize("n_zones", [8, 10])
@pytest.mark.parametrize("case", ["ashrae", "attacked_outdoor_profile"])
def test_simulate_matches_reference_large_home_cases(n_zones, case):
    """8+ zones (numpy's pairwise row sums in the metering) under the
    fixed-airflow branch, and under a spoofed story with a sinusoidal
    outdoor profile."""
    ((home, trace),) = generate_home_fleet(1, n_zones=n_zones, n_days=2, seed=3)
    assert home.n_zones >= 8
    if case == "ashrae":
        controller = AshraeController(home, ControllerConfig()).calibrate(trace)
        kwargs = {}
    else:
        controller = DemandControlledHVAC(home)
        rng = np.random.default_rng(n_zones)
        reported_zone = trace.occupant_zone.copy()
        mask = rng.random(reported_zone.shape) < 0.35
        reported_zone[mask] = rng.integers(0, home.n_zones, size=int(mask.sum()))
        profile = 78.0 + 14.0 * np.sin(
            np.arange(trace.n_slots) / 1440.0 * 2 * np.pi
        )
        kwargs = {
            "reported_zone": reported_zone,
            "outdoor": OutdoorConditions(temperature_f=profile),
        }
    assert _results_equal(
        simulate_reference(home, trace, controller, **kwargs),
        simulate(home, trace, controller, **kwargs),
    )


def _misshapen(activity: np.ndarray, reshape: str) -> np.ndarray:
    if reshape == "short":
        return activity[:-100]
    if reshape == "long":
        return np.concatenate([activity, activity[:100]])
    return np.concatenate([activity, activity[:, :1]], axis=1)


@pytest.mark.parametrize("entry", ["simulate", "simulate_reference", "simulate_batch"])
@pytest.mark.parametrize("reshape", ["short", "long", "extra_column"])
def test_simulation_rejects_misshapen_reported_activity(sim_world, entry, reshape):
    """A reported activity array that is not the trace's ``[T, O]`` is
    refused before any simulation runs — in a batch, before its
    well-formed jobs run too."""
    home, trace = sim_world
    controller = DemandControlledHVAC(home)
    bad = _misshapen(trace.occupant_activity, reshape)
    with collect_events() as aggregator:
        with pytest.raises(ControlError, match="reported_activity"):
            if entry == "simulate_batch":
                simulate_batch(
                    [
                        SimulationJob(home, trace, controller),
                        SimulationJob(home, trace, controller, reported_activity=bad),
                    ]
                )
            else:
                run = simulate if entry == "simulate" else simulate_reference
                run(home, trace, controller, reported_activity=bad)
    assert SIMULATION not in aggregator.kernels


def _gain_tables_by_unique(home, status):
    """``appliance_gain_tables`` grouped by ``np.unique(status, axis=0)``,
    as first written: the grouping oracle."""
    heat_by_zone = np.zeros((home.n_appliances, home.n_zones))
    watts = np.zeros(home.n_appliances)
    for appliance in home.appliances:
        heat_by_zone[appliance.appliance_id, appliance.zone_id] = (
            appliance.heat_watts
        )
        watts[appliance.appliance_id] = appliance.power_watts
    unique, inverse = np.unique(status, axis=0, return_inverse=True)
    plant_u = np.zeros((len(unique), home.n_zones))
    ctrl_u = np.zeros((len(unique), home.n_zones))
    kwh_u = np.zeros(len(unique))
    for index, row in enumerate(unique):
        floats = row.astype(float)
        plant_u[index] = floats @ heat_by_zone
        kwh_u[index] = float(floats @ watts) / 60000.0
        for appliance in home.appliances:
            if row[appliance.appliance_id]:
                ctrl_u[index, appliance.zone_id] += appliance.heat_watts
    return plant_u[inverse], ctrl_u[inverse], kwh_u[inverse]


@pytest.mark.parametrize(
    "case",
    [
        "all_distinct",
        "one_repeated_row",
        "single_slot",
        "empty",
        "triggered",
        "one_byte_home",
    ],
)
def test_appliance_gain_tables_match_unique_grouping(sim_world, case):
    """Packed-bit grouping prices every slot exactly as grouping by
    ``np.unique`` did.  House A has 13 appliances, so its rows pack
    into two bytes with a partial second one."""
    home, trace = sim_world
    rng = np.random.default_rng(41)
    n_appliances = home.n_appliances
    assert n_appliances > 8 and n_appliances % 8
    if case == "all_distinct":
        codes = rng.permutation(1 << n_appliances)[:500]
        status = ((codes[:, None] >> np.arange(n_appliances)) & 1).astype(bool)
    elif case == "one_repeated_row":
        status = np.tile(rng.random(n_appliances) < 0.5, (300, 1))
    elif case == "single_slot":
        status = trace.appliance_status[700:701]
    elif case == "empty":
        status = trace.appliance_status[:0]
    elif case == "triggered":
        status = trace.appliance_status | (
            rng.random(trace.appliance_status.shape) < 0.05
        )
    else:
        ((home, fleet_trace),) = generate_home_fleet(
            1, n_zones=4, n_days=1, seed=3
        )
        assert home.n_appliances <= 8
        status = fleet_trace.appliance_status
    expected = _gain_tables_by_unique(home, status)
    got = appliance_gain_tables(home, status)
    for want, have in zip(expected, got):
        assert have.shape == want.shape
        assert np.array_equal(have, want)


def _cost_per_slot(pricing: TouPricing, energy_kwh, start_slot: int = 0):
    """``TouPricing.cost`` as first written — ``is_peak`` and numpy-scalar
    arithmetic on every slot — kept as the billing oracle."""
    energy_kwh = np.asarray(energy_kwh, dtype=float)
    total = 0.0
    battery_left = pricing.battery_kwh
    current_day = (start_slot) // 1440
    for index, kwh in enumerate(energy_kwh):
        slot = start_slot + index
        day = slot // 1440
        if day != current_day:
            current_day = day
            battery_left = pricing.battery_kwh
        if not pricing.is_peak(slot):
            total += kwh * pricing.off_peak_rate
            continue
        covered = min(kwh, battery_left)
        battery_left -= covered
        total += covered * pricing.off_peak_rate
        total += (kwh - covered) * pricing.peak_rate
    return total


def test_tou_cost_matches_per_slot_loop():
    """Bit-identical bills and the same return type (a numpy float, or
    a plain 0.0 for no slots), across batteries from empty to larger
    than any day's peak, start slots that cross day boundaries, and
    runs of zero consumption."""
    rng = np.random.default_rng(23)
    for case in range(300):
        pricing = TouPricing(battery_kwh=float(rng.uniform(0.0, 50.0)))
        if case % 50 == 0:
            pricing = TouPricing(battery_kwh=0.0)
        n_slots = 0 if case == 1 else int(rng.integers(1, 3 * 1440))
        energy = rng.random(n_slots) * float(rng.uniform(0.001, 0.3))
        for _ in range(int(rng.integers(0, 4))):
            start = int(rng.integers(0, max(n_slots, 1)))
            energy[start : start + int(rng.integers(1, 400))] = 0.0
        start_slot = int(rng.integers(0, 4 * 1440))
        expected = _cost_per_slot(pricing, energy, start_slot)
        got = pricing.cost(energy, start_slot=start_slot)
        assert got == expected
        assert type(got) is type(expected)


def test_tou_cost_is_the_billing_loop_bit_for_bit():
    """The array bill against ``cost_reference``, compared as the bytes
    of the returned ``np.float64``: multi-day arrays at random start
    offsets with runs of zeros, a battery used up exactly at the end of
    a slot and one used up part-way through a slot (kWh in 1/64 steps,
    so those sums are exact), and arrays the loop bills itself (a
    negative or non-finite entry)."""
    rng = np.random.default_rng(31)
    for case in range(600):
        n_slots = int(rng.integers(1, 4 * 1440))
        start_slot = int(rng.integers(0, 5 * 1440))
        energy = rng.integers(0, 20, size=n_slots) / 64.0
        for _ in range(int(rng.integers(0, 4))):
            start = int(rng.integers(0, n_slots))
            energy[start : start + int(rng.integers(1, 400))] = 0.0
        pricing = TouPricing(
            off_peak_rate=float(rng.uniform(0.0, 1.0)),
            peak_rate=float(rng.uniform(0.0, 1.0)),
            battery_kwh=float(rng.uniform(0.0, 20.0)),
        )
        peak = np.flatnonzero(pricing.is_peak_array(start_slot + np.arange(n_slots)))
        if case % 3 and len(peak) > 1:
            day = (start_slot + peak) // 1440
            first_day = peak[day == day[0]]
            used = int(rng.integers(1, len(first_day) + 1))
            battery = float(energy[first_day[:used]].sum())
            if case % 3 == 2:  # runs out inside the next slot with any use
                nxt = first_day[min(used, len(first_day) - 1)]
                energy[nxt] = 1.0
                battery += 0.5
            pricing = replace(pricing, battery_kwh=battery)
        if case % 50 == 0:
            energy[int(rng.integers(0, n_slots))] = float(
                rng.choice([-0.25, np.nan, np.inf])
            )
        got = pricing.cost(energy, start_slot=start_slot)
        want = pricing.cost_reference(energy, start_slot=start_slot)
        assert type(got) is np.float64 and type(want) is np.float64
        assert got.tobytes() == want.tobytes()


def test_gain_matrices_match_reference_loops(sim_world):
    home, trace = sim_world
    emission, heat = occupant_gain_matrices(
        home, trace.occupant_zone, trace.occupant_activity
    )
    heat_by_zone = np.zeros((home.n_appliances, home.n_zones))
    watts = np.zeros(home.n_appliances)
    for appliance in home.appliances:
        heat_by_zone[appliance.appliance_id, appliance.zone_id] = (
            appliance.heat_watts
        )
        watts[appliance.appliance_id] = appliance.power_watts
    plant_heat, ctrl_heat, kwh = appliance_gain_tables(
        home, trace.appliance_status
    )
    for t in range(0, trace.n_slots, 97):
        expected_emission = np.zeros(home.n_zones)
        expected_heat = np.zeros(home.n_zones)
        for occupant in home.occupants:
            zone = int(trace.occupant_zone[t, occupant.occupant_id])
            if zone == 0:
                continue
            activity = home.activities.by_id(
                int(trace.occupant_activity[t, occupant.occupant_id])
            )
            expected_emission[zone] += occupant.co2_rate(activity.co2_ft3_per_min)
            expected_heat[zone] += occupant.heat_rate(activity.heat_watts)
        assert np.array_equal(emission[t], expected_emission)
        assert np.array_equal(heat[t], expected_heat)
        status = trace.appliance_status[t].astype(float)
        assert np.array_equal(plant_heat[t], status @ heat_by_zone)
        assert kwh[t] == float(status @ watts) / 60000.0
        expected_ctrl = np.zeros(home.n_zones)
        for appliance in home.appliances:
            if trace.appliance_status[t, appliance.appliance_id]:
                expected_ctrl[appliance.zone_id] += appliance.heat_watts
        assert np.array_equal(ctrl_heat[t], expected_ctrl)


def test_simulate_batch_matches_individual_runs():
    """Batched fleets equal per-job runs bit for bit, 8+ zone homes
    included."""
    for n_zones, n_homes in ((4, 16), (8, 8)):
        fleet = generate_home_fleet(n_homes, n_zones=n_zones, n_days=1, seed=29)
        jobs = [
            SimulationJob(home, trace, DemandControlledHVAC(home))
            for home, trace in fleet
        ]
        batched = simulate_batch(jobs)
        for job, result in zip(jobs, batched):
            assert _results_equal(
                result, simulate(job.home, job.trace, job.controller)
            )


def test_outdoor_temperature_array_resolves_once():
    constant = OutdoorConditions(temperature_f=90.5)
    assert np.array_equal(constant.temperature_array(10), np.full(10, 90.5))
    profile = OutdoorConditions(temperature_f=np.arange(5.0))
    assert np.array_equal(profile.temperature_array(3), np.arange(3.0))
    with pytest.raises(Exception):
        profile.temperature_array(9)


def test_flag_visits_matches_scalar_classification(aras_world):
    home, adm, evaluation = aras_world
    for visit, anomalous in adm.flag_visits(evaluation):
        assert anomalous == (
            not adm.is_benign_visit(
                visit.occupant_id, visit.zone_id, visit.arrival, visit.stay
            )
        )


def _attacked_visit_verdicts(adm, reported, attacked, occupant_id=None):
    """``(attacked, flagged)`` per visit of ``reported`` (of one occupant
    when given), flagged by the scalar ``is_benign_visit``: the oracle
    of the batched detection metrics."""
    verdicts = []
    for visit in extract_visits(reported, occupant_id=occupant_id):
        start = visit.day * 1440 + visit.arrival
        window = attacked[start : start + visit.stay, visit.occupant_id]
        verdicts.append(
            (
                bool(window.any()),
                not adm.is_benign_visit(
                    visit.occupant_id, visit.zone_id, visit.arrival, visit.stay
                ),
            )
        )
    return verdicts


def test_detection_metrics_match_a_scalar_visit_loop(aras_world):
    """``attack_visit_flag_fraction`` and ``evaluate_adm_on_attacked``,
    which classify through ``flag_visits``, equal an ``is_benign_visit``
    loop on SHATTER, greedy and BIoTA schedules, for the attacker's ADM
    and for a k-means defender."""
    from repro.adm.metrics import binary_metrics
    from repro.attack.stealth import attack_visit_flag_fraction, reported_trace
    from repro.runner.common import evaluate_adm_on_attacked

    home, adm, evaluation = aras_world
    defender = ClusterADM(AdmParams(backend=ClusterBackend.KMEANS, k=4))
    defender.fit(
        generate_house_trace(
            home, house="A", config=SyntheticConfig(n_days=9, seed=33)
        ).slice_slots(0, 7 * 1440),
        home.n_zones,
    )
    capability = AttackerCapability.full_access(home)
    pricing = TouPricing()
    schedules = [
        shatter_schedule(home, adm, capability, pricing, evaluation),
        greedy_schedule(home, adm, capability, pricing, evaluation),
        biota_greedy_attack(home, capability, pricing, evaluation),
    ]
    fractions = []
    for schedule in schedules:
        attacked = schedule.spoofed_zone != evaluation.occupant_zone
        reported = reported_trace(
            schedule.spoofed_zone, schedule.spoofed_activity, home.n_appliances
        )
        for detector in (adm, defender):
            flags = [
                flagged
                for hit, flagged in _attacked_visit_verdicts(
                    detector, reported, attacked
                )
                if hit
            ]
            expected = sum(flags) / len(flags) if flags else 0.0
            fraction = attack_visit_flag_fraction(
                detector,
                schedule.spoofed_zone,
                schedule.spoofed_activity,
                evaluation.occupant_zone,
            )
            assert fraction == expected
            fractions.append(fraction)
            for occupant in range(home.n_occupants):
                verdicts = _attacked_visit_verdicts(
                    detector, reported, attacked, occupant
                )
                assert evaluate_adm_on_attacked(
                    detector, reported, attacked, occupant
                ) == binary_metrics(*np.array(verdicts).T)
    assert 0.0 in fractions and 1.0 in fractions
    assert any(0.0 < fraction < 1.0 for fraction in fractions)


# ----------------------------------------------------------------------
# Attack execution: simulate() + open-loop plant vs the per-slot loop
# ----------------------------------------------------------------------

_VECTOR_FIELDS = (
    "spoofed_zone",
    "spoofed_activity",
    "delta_co2",
    "delta_temperature",
    "triggered",
)


def _assert_outcomes_equal(fast, reference) -> None:
    for field in _VECTOR_FIELDS:
        assert np.array_equal(
            getattr(fast.vector, field), getattr(reference.vector, field)
        ), field
    assert _results_equal(fast.result, reference.result)
    assert fast.result.start_slot == reference.result.start_slot
    assert np.array_equal(fast.applied_zone, reference.applied_zone)
    assert fast.trigger_decisions == reference.trigger_decisions
    assert fast.applied_visit_fraction == reference.applied_visit_fraction


def _execute_both(home, controller, trace, schedule, capability, adm, **kwargs):
    """Run both execution paths; assert they agree and return the fast one.

    The fast path runs with the cache off, so it computes its closed
    loop instead of replaying an earlier test's memoized one."""
    with cache_disabled():
        fast = execute_attack(
            home, controller, trace, schedule, capability, adm=adm, **kwargs
        )
    reference = execute_attack_reference(
        home, controller, trace, schedule, capability, adm=adm, **kwargs
    )
    _assert_outcomes_equal(fast, reference)
    return fast


@pytest.fixture(scope="module")
def attack_world(aras_world):
    home, adm, evaluation = aras_world
    schedule = shatter_schedule(
        home, adm, AttackerCapability.full_access(home), TouPricing(), evaluation
    )
    return home, adm, evaluation, schedule


@pytest.mark.parametrize("triggering", [True, False])
def test_execute_attack_matches_reference_full_access(attack_world, triggering):
    home, adm, evaluation, schedule = attack_world
    outcome = _execute_both(
        home,
        DemandControlledHVAC(home),
        evaluation,
        schedule,
        AttackerCapability.full_access(home),
        adm,
        enable_triggering=triggering,
        start_slot=7 * 1440,
    )
    assert np.abs(outcome.vector.delta_co2).max() > 0
    assert outcome.vector.triggered.any() == triggering


@pytest.mark.parametrize("triggering", [True, False])
def test_execute_attack_matches_reference_restricted_capability(
    attack_world, triggering
):
    """Zone- and occupant-restricted attackers, the schedule built for
    full access, so the feasibility filter drops visits."""
    home, adm, evaluation, schedule = attack_world
    controller = DemandControlledHVAC(home)
    two_zones = AttackerCapability.with_zones(
        home, [home.zone_id("Kitchen"), home.zone_id("Bedroom")]
    )
    outcome = _execute_both(
        home,
        controller,
        evaluation,
        schedule,
        two_zones,
        adm,
        enable_triggering=triggering,
    )
    assert outcome.applied_visit_fraction < 1.0
    one_occupant = AttackerCapability(
        zones=frozenset(range(home.n_zones)),
        occupants=frozenset({0}),
        appliances=frozenset(range(home.n_appliances)),
        slot_range=(300, 1100),
    )
    _execute_both(
        home,
        controller,
        evaluation,
        schedule,
        one_occupant,
        adm,
        enable_triggering=triggering,
    )


def test_execute_attack_matches_reference_outdoor_profile(attack_world):
    home, adm, evaluation, schedule = attack_world
    profile = 78.0 + 14.0 * np.sin(
        np.arange(evaluation.n_slots) / 1440.0 * 2 * np.pi
    )
    _execute_both(
        home,
        DemandControlledHVAC(home),
        evaluation,
        schedule,
        AttackerCapability.full_access(home),
        adm,
        outdoor=OutdoorConditions(temperature_f=profile),
    )


@pytest.mark.parametrize("triggering", [True, False])
def test_execute_attack_matches_reference_kmeans_house_b(triggering):
    home = build_house_b()
    trace = generate_house_trace(
        home, house="B", config=SyntheticConfig(n_days=8, seed=91)
    )
    train, evaluation = split_days(trace, 7)
    adm = ClusterADM(
        AdmParams(backend=ClusterBackend.KMEANS, k=5, tolerance=5.0)
    ).fit(train, home.n_zones)
    capability = AttackerCapability.full_access(home)
    schedule = shatter_schedule(home, adm, capability, TouPricing(), evaluation)
    _execute_both(
        home,
        DemandControlledHVAC(home),
        evaluation,
        schedule,
        capability,
        adm,
        enable_triggering=triggering,
    )


def test_execute_attack_matches_reference_large_home():
    """8+ zones: the metering row sums use numpy's pairwise blocking."""
    ((home, trace),) = generate_home_fleet(1, n_zones=8, n_days=4, seed=3)
    train, evaluation = split_days(trace, 2)
    adm = ClusterADM(
        AdmParams(backend=ClusterBackend.KMEANS, k=4, tolerance=5.0)
    ).fit(train, home.n_zones)
    capability = AttackerCapability.full_access(home)
    schedule = shatter_schedule(home, adm, capability, TouPricing(), evaluation)
    outcome = _execute_both(
        home, DemandControlledHVAC(home), evaluation, schedule, capability, adm
    )
    assert home.n_zones >= 8
    assert np.abs(outcome.vector.delta_temperature).max() > 0


class _CountingController(DemandControlledHVAC):
    """A subclass may change decide(); this one only counts the calls."""

    def __init__(self, home):
        super().__init__(home)
        self.calls = 0

    def decide(self, **kwargs):
        self.calls += 1
        return super().decide(**kwargs)


def test_execute_attack_controller_subclass_decides_every_slot(attack_world):
    """A subclass's decide() runs once per slot, as in the per-slot loop."""
    home, adm, evaluation, schedule = attack_world
    capability = AttackerCapability.full_access(home)
    controller = _CountingController(home)
    fast = execute_attack(home, controller, evaluation, schedule, capability, adm=adm)
    assert controller.calls == evaluation.n_slots
    _assert_outcomes_equal(
        fast,
        execute_attack_reference(
            home, DemandControlledHVAC(home), evaluation, schedule, capability, adm=adm
        ),
    )


def test_execute_attack_matches_reference_ashrae_controller(attack_world):
    home, adm, evaluation, schedule = attack_world
    controller = AshraeController(home, ControllerConfig()).calibrate(evaluation)
    outcome = _execute_both(
        home,
        controller,
        evaluation,
        schedule,
        AttackerCapability.full_access(home),
        adm,
    )
    assert outcome.vector.triggered.any()


def test_execute_attack_times_one_kernel_around_one_simulation(attack_world):
    home, adm, evaluation, schedule = attack_world
    with collect_events() as aggregator:
        execute_attack(
            home,
            DemandControlledHVAC(home),
            evaluation,
            schedule,
            AttackerCapability.full_access(home),
            adm=adm,
        )
    assert aggregator.kernels[ATTACK_EXECUTE].calls == 1
    assert aggregator.kernels[SIMULATION].calls == 1


@pytest.mark.parametrize("execute", [execute_attack, execute_attack_reference])
@pytest.mark.parametrize("extra_slots", [-100, 100])
def test_execute_attack_rejects_mismatched_schedule(attack_world, execute, extra_slots):
    """A schedule that does not cover the trace slot for slot is refused
    before any compute, short or long alike."""
    home, adm, evaluation, schedule = attack_world
    n_slots = evaluation.n_slots + extra_slots
    for field in ("spoofed_zone", "spoofed_activity"):
        source = getattr(schedule, field)
        resized = np.resize(source, (n_slots, source.shape[1]))
        bad = replace(schedule, **{field: resized})
        with pytest.raises(AttackError, match=field):
            execute(
                home,
                DemandControlledHVAC(home),
                evaluation,
                bad,
                AttackerCapability.full_access(home),
                adm=adm,
            )


def test_plant_response_rejects_misshapen_airflow(sim_world):
    home, trace = sim_world
    with pytest.raises(ControlError):
        plant_response(
            home,
            trace,
            np.zeros((trace.n_slots - 1, home.n_zones)),
            ControllerConfig(),
        )


# ----------------------------------------------------------------------
# Closed-loop memo: content-keyed, read-only, bypassed by unknown loops
# ----------------------------------------------------------------------


@pytest.fixture
def memo_cache():
    """A fresh memory-only process cache, so hits are this test's own."""
    previous = get_cache()
    cache = set_cache(ArtifactCache())
    yield cache
    set_cache(previous)


def _memo_inputs(attack_world):
    """``closed_loop_token`` arguments of one attacked loop: home,
    controller, outdoor, start slot, then the actual zone and activity,
    the applied zone and activity, and the applied status."""
    home, adm, evaluation, schedule = attack_world
    triggered = np.zeros_like(evaluation.appliance_status)
    triggered[100:200, 0] = True
    return [
        home,
        DemandControlledHVAC(home),
        None,
        7 * 1440,
        evaluation.occupant_zone,
        evaluation.occupant_activity,
        schedule.spoofed_zone,
        schedule.spoofed_activity,
        evaluation.appliance_status | triggered,
    ]


def _nudged(value):
    """The next float above ``value``: the smallest change a key must see."""
    return float(np.nextafter(value, np.inf))


def _perturbations(inputs):
    """One changed copy of ``inputs`` per input the key must cover."""
    home, controller, outdoor, start_slot, *arrays = inputs
    occupants = list(home.occupants)
    occupants[0] = replace(
        occupants[0], metabolic_factor=_nudged(occupants[0].metabolic_factor)
    )
    other_home = replace(home, occupants=occupants)
    cases = {
        "home float": [
            other_home, DemandControlledHVAC(other_home), outdoor, start_slot, *arrays
        ]
    }
    defaults = ControllerConfig()
    for field in fields(ControllerConfig):
        config = replace(
            defaults, **{field.name: _nudged(getattr(defaults, field.name))}
        )
        cases[f"config {field.name}"] = [
            home, DemandControlledHVAC(home, config), outdoor, start_slot, *arrays
        ]
    weather = OutdoorConditions()
    for field in ("co2_ppm", "temperature_f"):
        changed = replace(weather, **{field: _nudged(getattr(weather, field))})
        cases[f"outdoor {field}"] = [home, controller, changed, start_slot, *arrays]
    cases["start slot"] = [home, controller, outdoor, start_slot + 1440, *arrays]
    names = (
        "actual zone",
        "actual activity",
        "applied zone",
        "applied activity",
        "triggered status",
    )
    for position, name in enumerate(names):
        changed_arrays = [array.copy() for array in arrays]
        flipped = changed_arrays[position]
        flipped[500, 0] = (
            not flipped[500, 0] if flipped.dtype == bool else flipped[500, 0] + 1
        )
        cases[name] = [home, controller, outdoor, start_slot, *changed_arrays]
    return cases


def test_closed_loop_memo_keys_on_every_input(attack_world, memo_cache):
    """Equal content is one entry (array copies, the default weather
    spelled out); the smallest change to any input is a miss."""
    inputs = _memo_inputs(attack_world)
    home, controller, _, start_slot, *arrays = inputs
    base = ("closed-loop", "attack", closed_loop_token(*inputs))
    memo_cache.put_analysis(base, "entry")
    copies = [
        home, controller, OutdoorConditions(), start_slot, *(a.copy() for a in arrays)
    ]
    cases = _perturbations(inputs)
    assert len(cases) == 1 + len(fields(ControllerConfig)) + 2 + 1 + 5
    with collect_events() as aggregator:
        token = ("closed-loop", "attack", closed_loop_token(*copies))
        assert memo_cache.get_analysis(token) == "entry"
        for name, changed in cases.items():
            token = ("closed-loop", "attack", closed_loop_token(*changed))
            assert memo_cache.get_analysis(token) is None, name
    assert aggregator.cache_stats["analysis.hits"] == 1
    assert aggregator.cache_stats["analysis.misses"] == len(cases)


def _execute_memo(attack_world, controller=None, **kwargs):
    home, adm, evaluation, schedule = attack_world
    return execute_attack(
        home,
        controller or DemandControlledHVAC(home),
        evaluation,
        schedule,
        AttackerCapability.full_access(home),
        adm=adm,
        start_slot=7 * 1440,
        **kwargs,
    )


def test_closed_loop_memo_hit_matches_the_reference(attack_world, memo_cache):
    """The second call replays the first one's loop, and the replayed
    outcome equals the per-slot oracle bit for bit."""
    home, adm, evaluation, schedule = attack_world
    with collect_events() as aggregator:
        first = _execute_memo(attack_world)
        hit = _execute_memo(attack_world)
    assert aggregator.kernels[SIMULATION].calls == 1
    assert aggregator.kernels[ATTACK_EXECUTE].calls == 2
    assert aggregator.cache_stats["analysis.misses"] == 1
    assert aggregator.cache_stats["analysis.puts"] == 1
    assert aggregator.cache_stats["analysis.hits"] == 1
    assert hit.result.airflow_cfm is first.result.airflow_cfm
    _assert_outcomes_equal(
        hit,
        execute_attack_reference(
            home,
            DemandControlledHVAC(home),
            evaluation,
            schedule,
            AttackerCapability.full_access(home),
            adm=adm,
            start_slot=7 * 1440,
        ),
    )


def test_closed_loop_memo_separates_one_story_over_two_truths(
    attack_world, memo_cache
):
    """The applied story alone does not key an attacked loop: the true
    zones respond to the actual trace.  Two traces that differ only in
    an activity the attacker overwrote are two entries, each equal to
    the oracle."""
    home, adm, evaluation, schedule = attack_world
    first = _execute_memo(attack_world, enable_triggering=False)
    actual = evaluation.occupant_zone[:, 0]
    slot = np.flatnonzero((first.applied_zone[:, 0] != actual) & (actual != 0))[0]
    current = home.activities.by_id(int(evaluation.occupant_activity[slot, 0]))
    other = evaluation.copy()
    other.occupant_activity[slot, 0] = next(
        a.activity_id for a in home.activities if a.met != current.met
    )
    with collect_events() as aggregator:
        second = _execute_memo(
            (home, adm, other, schedule), enable_triggering=False
        )
    assert aggregator.cache_stats["analysis.misses"] == 1
    assert np.array_equal(second.applied_zone, first.applied_zone)
    assert not np.array_equal(second.result.co2_ppm, first.result.co2_ppm)
    _assert_outcomes_equal(
        second,
        execute_attack_reference(
            home,
            DemandControlledHVAC(home),
            other,
            schedule,
            AttackerCapability.full_access(home),
            adm=adm,
            enable_triggering=False,
            start_slot=7 * 1440,
        ),
    )


def test_closed_loop_memo_values_are_read_only(attack_world, memo_cache):
    outcome = _execute_memo(attack_world)
    for field in _SIM_FIELDS:
        with pytest.raises(ValueError):
            getattr(outcome.result, field)[0] = 0.0
    analysis = ShatterAnalysis.for_house(
        "A", StudyConfig(n_days=4, training_days=3, seed=2)
    )
    benign = analysis.benign_result()
    assert analysis.benign_result() is benign
    for field in _SIM_FIELDS:
        with pytest.raises(ValueError):
            getattr(benign, field)[0] = 0.0


def test_closed_loop_memo_bypasses_unknown_controllers(attack_world, memo_cache):
    """A subclass and the ASHRAE baseline never reach the tier, and
    each call computes its own loop."""
    home, adm, evaluation, schedule = attack_world
    ashrae = AshraeController(home, ControllerConfig()).calibrate(evaluation)
    with collect_events() as aggregator:
        for controller in (_CountingController(home), ashrae):
            for _ in range(2):
                _execute_memo(attack_world, controller)
    assert aggregator.kernels[SIMULATION].calls == 4
    assert not any(key.startswith("analysis.") for key in aggregator.cache_stats)
    # Bound to an equal home that is not this one: simulate() would not
    # take its fast kernel either.
    other = DemandControlledHVAC(build_house_a())
    assert closed_loop_token(home, other, None, 0) is None


def test_closed_loop_memo_is_off_with_the_memory_tier(attack_world):
    """With memory off every call recomputes and no analysis traffic
    is emitted."""
    with cache_disabled(), collect_events() as aggregator:
        for _ in range(2):
            _execute_memo(attack_world)
        analysis = ShatterAnalysis.for_house(
            "A", StudyConfig(n_days=4, training_days=3, seed=2)
        )
        assert analysis.benign_result() is not analysis.benign_result()
    assert aggregator.kernels[SIMULATION].calls == 4
    assert not any(key.startswith("analysis.") for key in aggregator.cache_stats)


# ----------------------------------------------------------------------
# Batched schedule DP (multi-day / multi-home array program)
# ----------------------------------------------------------------------


def _fleet_jobs(n_homes: int, n_days: int = 4, seed: int = 77):
    """Per-home ScheduleJobs over a synthetic fleet with kmeans ADMs."""
    pricing = TouPricing()
    jobs = []
    for home, trace in generate_home_fleet(
        n_homes, n_zones=4, n_days=n_days, seed=seed
    ):
        train, evaluation = split_days(trace, 2)
        adm = ClusterADM(
            AdmParams(backend=ClusterBackend.KMEANS, k=4, tolerance=5.0)
        ).fit(train, home.n_zones)
        jobs.append(
            ScheduleJob(
                home=home,
                adm=adm,
                capability=AttackerCapability.full_access(home),
                pricing=pricing,
                actual_trace=evaluation,
            )
        )
    return jobs


def test_shatter_schedule_batch_matches_per_job_calls(aras_world):
    """Stacking jobs of mixed capability ≡ scheduling each alone."""
    home, adm, evaluation = aras_world
    pricing = TouPricing()
    day = evaluation.slice_slots(0, 1440)
    jobs = [
        ScheduleJob(home, adm, AttackerCapability.full_access(home), pricing, evaluation),
        ScheduleJob(home, adm, AttackerCapability.with_zones(home, [1, 3]), pricing, day),
        ScheduleJob(home, adm, _second_day_only(home), pricing, evaluation),
    ]
    got = shatter_schedule_batch(jobs)
    for job, schedule in zip(jobs, got):
        solo = shatter_schedule(
            job.home, job.adm, job.capability, job.pricing, job.actual_trace
        )
        assert _schedules_equal(schedule, solo)
    _assert_spoofs_only_in_range(got[2], evaluation, jobs[2].capability)


def test_shatter_schedule_batch_matches_reference_fleet():
    """Acceptance oracle: the whole-fleet batch is bit-identical to the
    scalar reference oracle run home by home."""
    jobs = _fleet_jobs(3)
    for job, got in zip(jobs, shatter_schedule_batch(jobs)):
        assert _schedules_equal(got, _shatter_schedule_reference(job))


def test_shatter_schedule_batch_matches_reference_in_the_fleet_regime(monkeypatch):
    """The fleet benchmark's regime: one 8-home chunk of 6-day homes
    fitted on 2 training days with the standard k-means ADMs (k=4,
    tolerance 20), plus one zone-restricted job.  The full-access days
    advance as one 16-row DP call over the union of its rows' born
    slots, and every job equals the reference oracle home by home."""
    from repro.runner.common import params_for

    pricing = TouPricing()
    jobs = []
    for home, trace in generate_home_fleet(8, n_zones=4, n_days=6, seed=1):
        train, evaluation = split_days(trace, 2)
        adm = ClusterADM(params_for(ClusterBackend.KMEANS)).fit(train, home.n_zones)
        jobs.append(
            ScheduleJob(
                home, adm, AttackerCapability.full_access(home), pricing, evaluation
            )
        )
    restricted = ScheduleJob(
        jobs[0].home,
        jobs[0].adm,
        AttackerCapability.with_zones(jobs[0].home, [1, 3]),
        pricing,
        jobs[0].actual_trace,
    )
    jobs.append(restricted)
    full_days: list[list[_SpanTask]] = []
    solve = _optimize_spans_batch
    beam = ScheduleConfig().beam_width

    def recording(tasks, zones, config, start, end):
        if (start, end) == (0, 1440) and config.beam_width == beam:
            full_days.append(list(tasks))
        return solve(tasks, zones, config, start, end)

    monkeypatch.setattr(schedule_module, "_optimize_spans_batch", recording)
    got = shatter_schedule_batch(jobs)
    (wide,) = full_days
    assert len(wide) == 16
    enterable = [task.oracle.entry[:, 1:].any(axis=0) for task in wide]
    union = np.logical_or.reduce(enterable)
    assert all(union.sum() > gate.sum() for gate in enterable)
    for job, schedule in zip(jobs, got):
        assert _schedules_equal(schedule, _shatter_schedule_reference(job))
    assert got[-1].substituted_days  # the restricted job adopted segments


def test_every_dp_call_runs_in_the_wave_solver(aras_world, monkeypatch):
    """Zone-restricted schedules, whose per-visit fallback runs and whose
    partial days are adopted (``substituted_days``), make every
    ``_optimize_spans_batch`` call from ``_solve_task_wave``, batched and
    as one-job calls, and the ``schedule_dp_batch`` kernel counts exactly
    those calls (perfbench's trace-coverage test equates the two)."""
    home, adm, evaluation = aras_world
    pricing = TouPricing()
    jobs = [
        ScheduleJob(
            home,
            adm,
            AttackerCapability.with_zones(home, zones),
            pricing,
            evaluation,
        )
        for zones in ([1, 2], [2], [1, 3])
    ]
    callers: list[str] = []
    fallbacks: list[int] = []
    solve, fallback = _optimize_spans_batch, schedule_module._segment_fallback

    def recording(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return solve(*args)

    def counting(*args):
        before = len(callers)
        outcome = fallback(*args)
        fallbacks.append(len(callers) - before)
        return outcome

    monkeypatch.setattr(schedule_module, "_optimize_spans_batch", recording)
    monkeypatch.setattr(schedule_module, "_segment_fallback", counting)
    with collect_events() as events:
        schedules = shatter_schedule_batch(jobs)
        schedules += [
            shatter_schedule(home, adm, job.capability, pricing, evaluation)
            for job in jobs
        ]
    assert any(schedule.substituted_days for schedule in schedules)
    assert fallbacks and all(fallbacks)  # each fallback made DP calls
    assert set(callers) == {"_solve_task_wave"}
    assert events.kernels[SCHEDULE_DP_BATCH].calls == len(callers)


def test_whole_trace_segments_match_the_per_visit_planner(aras_world):
    """The batch planner's one-pass segments equal the per-visit
    reference planner's, day by day, under full access, limited zones,
    an occupant subset, a whole-day slot range and a slot range that
    cuts visits and crosses midnight."""
    home, _, evaluation = aras_world
    everything = AttackerCapability.full_access(home)
    capabilities = [
        everything,
        AttackerCapability.with_zones(home, [1, 3]),
        replace(everything, occupants=frozenset({1})),
        replace(everything, slot_range=(1440, 2880)),
        replace(everything, slot_range=(1000, 2000)),
    ]
    for capability in capabilities:
        spoofable = capability.zone_mask(np.arange(home.n_zones))
        attackable = (
            None
            if capability.slot_range is None
            else capability.slot_mask(evaluation.n_slots)
        )
        for occupant in sorted(capability.occupants):
            per_day = [
                _accessible_segments_reference(
                    occupant,
                    evaluation.slice_slots(day * 1440, (day + 1) * 1440),
                    capability,
                    day * 1440,
                )
                for day in range(evaluation.n_days)
            ]
            assert any(per_day)
            assert (
                _accessible_segments(
                    evaluation.occupant_zone[:, occupant], spoofable, attackable
                )
                == per_day
            )


def test_shatter_schedule_batch_mixes_schedule_configs(aras_world):
    """Jobs with different windows and beams ride one batch call, and
    each equals the reference oracle of its own config."""
    home, adm, evaluation = aras_world
    day = evaluation.slice_slots(0, 1440)
    pricing = TouPricing()
    capability = AttackerCapability.full_access(home)
    jobs = [
        ScheduleJob(home, adm, capability, pricing, day, config=config)
        for config in (
            None,
            ScheduleConfig(window=6, beam_width=4),
            ScheduleConfig(beam_width=1),
        )
    ]
    for job, got in zip(jobs, shatter_schedule_batch(jobs)):
        assert _schedules_equal(got, _shatter_schedule_reference(job))


def test_multi_day_schedule_equals_assembled_day_slices(aras_world):
    """Day-invariance regression: the hoisted (shared) reward tables
    change nothing — a multi-day schedule's spoofed arrays are
    byte-identical to scheduling each day separately, and the
    per-(occupant, day) bookkeeping offsets by day.  (Rewards are sums
    of the identical addends in day-major instead of occupant-major
    order, so they agree to float addition reordering.)"""
    home, adm, evaluation = aras_world
    pricing = TouPricing()
    capability = AttackerCapability.full_access(home)
    full = shatter_schedule(home, adm, capability, pricing, evaluation)
    zones, activities = [], []
    reward = 0.0
    infeasible: list[tuple[int, int]] = []
    substituted: list[tuple[int, int]] = []
    for day in range(evaluation.n_days):
        piece = shatter_schedule(
            home,
            adm,
            capability,
            pricing,
            evaluation.slice_slots(day * 1440, (day + 1) * 1440),
        )
        zones.append(piece.spoofed_zone)
        activities.append(piece.spoofed_activity)
        reward += piece.expected_reward
        infeasible.extend((occ, d + day) for occ, d in piece.infeasible_days)
        substituted.extend((occ, d + day) for occ, d in piece.substituted_days)
    assert np.concatenate(zones).tobytes() == full.spoofed_zone.tobytes()
    assert np.concatenate(activities).tobytes() == full.spoofed_activity.tobytes()
    assert sorted(infeasible) == sorted(full.infeasible_days)
    assert sorted(substituted) == sorted(full.substituted_days)
    assert np.isclose(reward, full.expected_reward, rtol=1e-12, atol=0.0)


def test_stealth_oracle_memoized_per_adm(aras_world):
    """Repeat lookups return the same oracle and charge GEOMETRY nothing."""
    home, adm, _ = aras_world
    first = stealth_oracle(adm, 0, home.n_zones)
    with collect_events() as aggregator:
        assert stealth_oracle(adm, 0, home.n_zones) is first
    assert GEOMETRY not in aggregator.kernels
    fresh = ClusterADM(AdmParams(eps=40.0, min_pts=4, tolerance=20.0))
    fresh.fit(
        generate_house_trace(
            home, house="A", config=SyntheticConfig(n_days=2, seed=8)
        ),
        home.n_zones,
    )
    assert stealth_oracle(fresh, 0, home.n_zones) is not first


def test_schedule_batch_builds_its_oracles_in_one_pass(monkeypatch):
    """One batch call over an 8-home chunk builds every oracle from one
    multi-group pass (one ``GEOMETRY`` call per oracle); a repeat call
    hits the memo and makes no pass; dropping the ADMs drops their memo
    entries."""
    import gc
    import weakref

    jobs = _fleet_jobs(8)
    n_oracles = sum(job.home.n_occupants for job in jobs)
    passes: list[int] = []
    real = schedule_module.stay_range_rows

    def counting(groups, arrivals):
        passes.append(len(groups))
        return real(groups, arrivals)

    monkeypatch.setattr(schedule_module, "stay_range_rows", counting)
    with collect_events() as events:
        first = shatter_schedule_batch(jobs)
    assert passes == [sum(job.home.n_occupants * job.home.n_zones for job in jobs)]
    assert events.kernels[GEOMETRY].calls == n_oracles
    with collect_events() as events:
        again = shatter_schedule_batch(jobs)
    assert len(passes) == 1
    assert GEOMETRY not in events.kernels
    assert all(_schedules_equal(a, b) for a, b in zip(first, again))
    refs = [weakref.ref(job.adm) for job in jobs]
    before = len(schedule_module._ORACLE_MEMO)
    del jobs, first, again
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert len(schedule_module._ORACLE_MEMO) <= before - len(refs)


def test_reward_tables_shared_through_cache(aras_world):
    """The day-periodic reward table is computed once per content key;
    equal-content (but distinct) pricing/config objects hit the cache."""
    home, _, _ = aras_world
    zones = list(range(1, home.n_zones))
    first = occupant_reward_table(
        home, 0, zones, TouPricing(), ControllerConfig(), ScheduleConfig()
    )
    with collect_events() as events:
        second = occupant_reward_table(
            home, 0, zones, TouPricing(), ControllerConfig(), ScheduleConfig()
        )
    assert second is first
    assert events.cache_stats.get("rewards.hits", 0) == 1
    shifted = occupant_reward_table(
        home,
        0,
        zones,
        TouPricing(peak_rate=0.99),
        ControllerConfig(),
        ScheduleConfig(),
    )
    assert shifted is not first


def _capabilities(home) -> dict[str, AttackerCapability]:
    """Full access, two zones, one occupant over a slot range that
    crosses the first day boundary, and only Outside spoofable."""
    everything = AttackerCapability.full_access(home)
    return {
        "full": everything,
        "two_zones": AttackerCapability.with_zones(home, [1, 2]),
        "one_occupant_slot_range": replace(
            everything, occupants=frozenset({0}), slot_range=(1000, 2000)
        ),
        "outside_only": replace(everything, zones=frozenset({0})),
    }


@pytest.fixture(scope="module")
def baseline_homes():
    """Houses A and B and an 8-zone fleet home, each with a 6-day trace.

    The fleet home repeats activity menus across zones, so its reward
    table ties zones at every minute and the stable rank order decides.
    """
    house_a, house_b = build_house_a(), build_house_b()
    ((fleet_home, fleet_trace),) = generate_home_fleet(
        1, n_zones=8, n_days=6, seed=3
    )
    return {
        "house_a": (
            house_a,
            generate_house_trace(
                house_a, house="A", config=SyntheticConfig(n_days=6, seed=41)
            ),
        ),
        "house_b": (
            house_b,
            generate_house_trace(
                house_b, house="B", config=SyntheticConfig(n_days=6, seed=42)
            ),
        ),
        "fleet_8_zones": (fleet_home, fleet_trace),
    }


def _assert_schedules_identical(fast, reference) -> None:
    assert np.array_equal(fast.spoofed_zone, reference.spoofed_zone)
    assert np.array_equal(fast.spoofed_activity, reference.spoofed_activity)
    assert fast.expected_reward == reference.expected_reward
    assert type(fast.expected_reward) is type(reference.expected_reward)


@pytest.mark.parametrize("n_days", [0, 1, 3, 6])
@pytest.mark.parametrize("home_name", ["house_a", "house_b", "fleet_8_zones"])
def test_biota_greedy_attack_matches_reference(baseline_homes, home_name, n_days):
    home, trace = baseline_homes[home_name]
    evaluation = trace.slice_slots(0, n_days * 1440)
    pricing = TouPricing()
    for capacity in (4, 1):
        rules = BiotaRules(zone_capacity=capacity)
        for name, capability in _capabilities(home).items():
            fast = biota_greedy_attack(
                home, capability, pricing, evaluation, rules=rules
            )
            reference = biota_greedy_attack_reference(
                home, capability, pricing, evaluation, rules=rules
            )
            _assert_schedules_identical(fast, reference)
            if n_days and name == "full":
                assert isinstance(fast.expected_reward, np.float64)
                assert fast.expected_reward > 0
            if name == "outside_only" or not n_days:
                assert fast.expected_reward == 0.0
                assert np.array_equal(fast.spoofed_zone, evaluation.occupant_zone)


def test_biota_fleet_home_ties_rewards(baseline_homes):
    """The fleet home ties zones' rewards at every minute: an occupant
    takes the lowest tied zone id, and at capacity 1 the next occupant
    is pushed to its tied twin."""
    from repro.attack.schedule import _day_rewards

    home, trace = baseline_homes["fleet_8_zones"]
    zones = np.arange(1, home.n_zones)
    rewards = [
        _day_rewards(
            home,
            occupant,
            zones.tolist(),
            TouPricing(),
            ControllerConfig(),
            ScheduleConfig(),
            0,
        )[0]
        for occupant in (0, 1)
    ]
    assert len(np.unique(rewards[0][zones, 0])) < len(zones)
    schedule = biota_greedy_attack(
        home,
        AttackerCapability.full_access(home),
        TouPricing(),
        trace,
        rules=BiotaRules(zone_capacity=1),
    )
    minute = np.arange(trace.n_slots) % 1440
    top = zones[rewards[0][zones].argmax(axis=0)][minute]  # lowest tied id
    actual, spoofed = trace.occupant_zone, schedule.spoofed_zone
    free = (actual[:, 0] != 0) & (actual[:, 1] != top)
    assert free.any()
    assert np.array_equal(spoofed[free, 0], top[free])
    pushed = free & (actual[:, 1] != 0) & (spoofed[:, 1] != spoofed[:, 0])
    tied = rewards[1][spoofed[:, 1], minute] == rewards[1][spoofed[:, 0], minute]
    assert (pushed & tied).any()


def _random_schedule(rng, actual, n_zones: int, n_activities: int) -> AttackSchedule:
    """Random-length runs of random zones (some outside the home) and
    activities; about a third of the runs copy reality."""
    zone = actual.occupant_zone.copy()
    activity = actual.occupant_activity.copy()
    n_slots, n_occupants = zone.shape
    for occupant in range(n_occupants):
        start = 0
        while start < n_slots:
            end = min(n_slots, start + int(rng.integers(1, 240)))
            if rng.random() < 2 / 3:
                zone[start:end, occupant] = int(rng.integers(0, n_zones + 2))
                activity[start:end, occupant] = rng.integers(
                    1, n_activities + 1, size=end - start
                )
            start = end
    return AttackSchedule(
        spoofed_zone=zone, spoofed_activity=activity, expected_reward=0.0
    )


def _assert_feasibility_identical(schedule, actual, capability) -> None:
    fast = _apply_visit_feasibility(schedule, actual, capability)
    reference = _apply_visit_feasibility_reference(schedule, actual, capability)
    assert np.array_equal(fast[0], reference[0])
    assert np.array_equal(fast[1], reference[1])
    assert fast[2] == reference[2]


def test_visit_feasibility_matches_reference_on_attack_schedules(aras_world):
    home, adm, evaluation = aras_world
    pricing = TouPricing()
    everything = AttackerCapability.full_access(home)
    schedules = {
        "shatter": shatter_schedule(home, adm, everything, pricing, evaluation),
        "greedy": greedy_schedule(home, adm, everything, pricing, evaluation),
        "biota": biota_greedy_attack(home, everything, pricing, evaluation),
    }
    fractions = set()
    for schedule in schedules.values():
        for capability in _capabilities(home).values():
            _assert_feasibility_identical(schedule, evaluation, capability)
            fractions.add(
                _apply_visit_feasibility(schedule, evaluation, capability)[2]
            )
    assert 1.0 in fractions and len(fractions) > 2


@pytest.mark.parametrize("n_slots", [0, 1, 2 * 1440])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_visit_feasibility_matches_reference_on_random_schedules(
    baseline_homes, n_slots, seed
):
    rng = np.random.default_rng(seed)
    for home, trace in baseline_homes.values():
        actual = trace.slice_slots(0, n_slots)
        schedule = _random_schedule(rng, actual, home.n_zones, len(home.activities))
        for capability in _capabilities(home).values():
            _assert_feasibility_identical(schedule, actual, capability)


def test_capability_masks_match_scalar_predicates(baseline_homes):
    home, _ = baseline_homes["house_a"]
    zone_ids = np.arange(-2, home.n_zones + 3)
    for capability in _capabilities(home).values():
        for n_slots in (0, 1, 2 * 1440):
            assert capability.slot_mask(n_slots).tolist() == [
                capability.can_attack_slot(t) for t in range(n_slots)
            ]
        assert capability.zone_mask(zone_ids).tolist() == [
            capability.can_spoof_zone(int(z)) for z in zone_ids
        ]
        grid = zone_ids.reshape(-1, 1)
        assert capability.zone_mask(grid).shape == grid.shape


def test_hot_path_lint_rule_is_clean():
    """CI gate: per-day loops and scalar geometry stay out of the
    batched hot paths.

    The invariants themselves (span-DP call graph, fleet front door,
    reward-table sharing, scalar-geometry ban, batched visit
    classification) live in the ``hot-path-scalar-calls`` lint rule —
    see :mod:`repro.devtools.lint.rules.hotpath` and its fixtures under
    ``tests/lint_fixtures/hot_path``.  This test just pins the gate to
    the kernel suite: the tree must lint clean.
    """
    from repro.devtools.lint import lint_paths, render_text

    src = Path(__file__).parent.parent / "src" / "repro"
    result = lint_paths([src], select=["hot-path-scalar-calls"])
    assert result.errors == []
    assert result.findings == [], render_text(result)
