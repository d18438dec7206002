"""Artifact cache: hit/miss behaviour and serialization round-trips."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.adm.cluster_model import AdmParams, ClusterADM, ClusterBackend
from repro.core.serialization import (
    cluster_adm_from_arrays,
    cluster_adm_to_arrays,
    decode_artifact,
    encode_artifact,
)
from repro.core.shatter import StudyConfig
from repro.dataset.splits import KnowledgeLevel
from repro.dataset.synthetic import SyntheticConfig, generate_house_trace
from repro.events import collect_events, replay_events
from repro.home.builder import build_house_a
from repro.runner import SerialRunner, cache_disabled
from repro.runner.cache import (
    ArtifactCache,
    adm_params_token,
    configure_cache,
    get_cache,
    set_cache,
)
from repro.runner.common import (
    analysis_for_house,
    dataset_metrics,
    fitted_adm,
    house_trace,
    params_for,
)


@pytest.fixture()
def fresh_cache(tmp_path):
    """Install an isolated disk-backed cache; restore the previous one."""
    previous = get_cache()
    cache = configure_cache(memory=True, disk_dir=tmp_path / "cache")
    yield cache
    set_cache(previous)


def _small_trace():
    home = build_house_a()
    return home, generate_house_trace(
        home, house="A", config=SyntheticConfig(n_days=2, seed=5)
    )


# ----------------------------------------------------------------------
# Serialization round-trips (the disk tier's codecs)
# ----------------------------------------------------------------------


def test_home_trace_dict_round_trip():
    _, trace = _small_trace()
    clone = decode_artifact(encode_artifact(trace))
    np.testing.assert_array_equal(clone.occupant_zone, trace.occupant_zone)
    np.testing.assert_array_equal(
        clone.occupant_activity, trace.occupant_activity
    )
    np.testing.assert_array_equal(
        clone.appliance_status, trace.appliance_status
    )
    assert clone.appliance_status.dtype == np.bool_


def test_cluster_adm_dict_round_trip_preserves_decisions():
    home, trace = _small_trace()
    params = AdmParams(
        backend=ClusterBackend.DBSCAN, eps=40.0, min_pts=3, tolerance=20.0
    )
    adm = ClusterADM(params).fit(trace, home.n_zones)
    clone = cluster_adm_from_arrays(
        decode_artifact(encode_artifact(cluster_adm_to_arrays(adm)))
    )
    assert clone.params == params
    assert clone.n_zones == adm.n_zones
    assert clone.n_occupants == adm.n_occupants
    for occupant in range(adm.n_occupants):
        for zone in range(adm.n_zones):
            original_hulls = adm.hulls(occupant, zone)
            cloned_hulls = clone.hulls(occupant, zone)
            assert len(cloned_hulls) == len(original_hulls)
            for a, b in zip(original_hulls, cloned_hulls):
                np.testing.assert_allclose(a.vertices, b.vertices)
            for arrival in (300, 600, 1200):
                assert clone.stay_ranges(occupant, zone, arrival) == (
                    adm.stay_ranges(occupant, zone, arrival)
                )


# ----------------------------------------------------------------------
# Cache tiers
# ----------------------------------------------------------------------


def test_trace_disk_round_trip(tmp_path):
    cache = ArtifactCache(memory=False, disk_dir=tmp_path)
    _, trace = _small_trace()
    with collect_events() as events:
        assert cache.get_trace("A", 2, 5) is None
        cache.put_trace("A", 2, 5, trace)
        assert (tmp_path / "trace").exists(), "trace tier must persist to disk"
        loaded = cache.get_trace("A", 2, 5)
    np.testing.assert_array_equal(loaded.occupant_zone, trace.occupant_zone)
    assert events.cache_stats["hits"] == 1
    assert events.cache_stats["misses"] == 1


def test_cached_trace_is_defensively_copied(fresh_cache):
    _, first = house_trace("A", 2, 5)
    first.occupant_zone[:] = -1
    _, second = house_trace("A", 2, 5)
    assert (second.occupant_zone >= 0).all(), "cache entry was corrupted"


def test_adm_disk_round_trip(tmp_path):
    cache = ArtifactCache(memory=False, disk_dir=tmp_path)
    home, trace = _small_trace()
    params = AdmParams(backend=ClusterBackend.KMEANS, k=3, tolerance=20.0)
    adm = ClusterADM(params).fit(trace, home.n_zones)
    token = ("test-train", "A", 2, 5) + adm_params_token(params)
    assert cache.get_adm(token) is None
    cache.put_adm(token, adm)
    loaded = cache.get_adm(token)
    assert loaded is not adm
    assert loaded.params == params
    assert loaded.is_benign_trace(trace) == adm.is_benign_trace(trace)


def test_fitted_adm_memoizes(fresh_cache):
    home, trace = _small_trace()
    params = AdmParams(
        backend=ClusterBackend.DBSCAN, eps=40.0, min_pts=3, tolerance=20.0
    )
    first = fitted_adm(trace, home.n_zones, params, cache_token=("t", "A"))
    second = fitted_adm(trace, home.n_zones, params, cache_token=("t", "A"))
    assert second is first, "memory tier should return the same object"
    uncached = fitted_adm(trace, home.n_zones, params, cache_token=None)
    assert uncached is not first


def test_dataset_metrics_shares_the_defender_adm_fit(fresh_cache):
    """Fig. 5 / Tab. IV score the defender's ADM: the same training
    prefix and hyperparameters ShatterAnalysis fits, under the same
    cache token, so the two callers share one fit."""
    with collect_events() as events:
        dataset_metrics(
            "HAO1",
            ClusterBackend.DBSCAN,
            KnowledgeLevel.ALL_DATA,
            n_days=6,
            training_days=3,
            seed=11,
        )
        analysis_for_house(
            "A",
            StudyConfig(
                n_days=6,
                training_days=3,
                seed=11,
                adm_params=params_for(ClusterBackend.DBSCAN),
            ),
        )
    stats = events.cache_stats
    assert stats.get("adm.misses", 0) == 1
    assert stats.get("adm.puts", 0) == 1
    assert stats.get("adm.hits", 0) == 1


def test_result_round_trip(tmp_path):
    cache = ArtifactCache(memory=False, disk_dir=tmp_path)
    payload = {"rows": [1, 2, 3], "arr": np.arange(4)}
    token = (("n_days", "3"),)
    assert cache.get_result("fig3", token) is None
    cache.put_result("fig3", token, payload)
    loaded = cache.get_result("fig3", token)
    assert loaded["rows"] == [1, 2, 3]
    np.testing.assert_array_equal(loaded["arr"], np.arange(4))


def test_runner_replays_cached_results(fresh_cache):
    runner = SerialRunner()
    first = runner.run_one("fig3", params={"n_days": 2, "seed": 9})
    assert not first.cached
    second = runner.run_one("fig3", params={"n_days": 2, "seed": 9})
    assert second.cached
    assert second.rendered == first.rendered
    # Different params miss.
    third = runner.run_one("fig3", params={"n_days": 3, "seed": 9})
    assert not third.cached


def test_cold_process_replays_from_disk(fresh_cache):
    runner = SerialRunner()
    first = runner.run_one("fig3", params={"n_days": 2, "seed": 11})
    # Simulate a fresh process: same disk, empty memory.
    set_cache(ArtifactCache(memory=True, disk_dir=fresh_cache.disk_dir))
    second = SerialRunner().run_one("fig3", params={"n_days": 2, "seed": 11})
    assert second.cached
    assert second.rendered == first.rendered


def test_cache_disabled_escape_hatch(fresh_cache):
    with cache_disabled():
        assert not get_cache().enabled
        runner = SerialRunner()
        first = runner.run_one("fig3", params={"n_days": 2, "seed": 13})
        second = runner.run_one("fig3", params={"n_days": 2, "seed": 13})
        assert not first.cached and not second.cached
    assert get_cache() is fresh_cache


def test_clear_removes_disk_entries(tmp_path):
    cache = ArtifactCache(memory=True, disk_dir=tmp_path)
    _, trace = _small_trace()
    cache.put_trace("A", 2, 5, trace)
    assert cache.clear() == 1
    assert cache.get_trace("A", 2, 5) is None


def test_corrupt_disk_entry_is_a_miss_counted_and_deleted(tmp_path):
    cache = ArtifactCache(memory=False, disk_dir=tmp_path)
    _, trace = _small_trace()
    cache.put_trace("A", 2, 5, trace)
    for entry in (tmp_path / "trace").iterdir():
        entry.write_text("{not json")
    with collect_events() as events:
        assert cache.get_trace("A", 2, 5) is None
    # Not silently folded into misses: a corrupt event fires (counted
    # per tier and aggregate) and the bad file is deleted so the next
    # put starts clean.
    assert events.cache_stats["corrupt"] == 1
    assert events.cache_stats["trace.corrupt"] == 1
    assert events.cache_stats["misses"] == 1
    assert not any((tmp_path / "trace").iterdir()), "bad file must be deleted"
    # The next read is a clean miss, not a second corruption.
    with collect_events() as events:
        assert cache.get_trace("A", 2, 5) is None
    assert events.cache_stats == {"misses": 1, "trace.misses": 1}
    cache.put_trace("A", 2, 5, trace)
    assert cache.get_trace("A", 2, 5) is not None


def test_verify_disk_reports_and_removes_corrupt_entries(tmp_path):
    cache = ArtifactCache(memory=False, disk_dir=tmp_path)
    _, trace = _small_trace()
    cache.put_trace("A", 2, 5, trace)
    cache.put_trace("B", 2, 5, trace)
    cache.put_result("fig3", (("n_days", "2"),), {"x": 1})
    victim = sorted((tmp_path / "trace").iterdir())[0]
    victim.write_bytes(b"\x00torn")
    with collect_events() as events:
        report = cache.verify_disk()
    assert report["trace"] == {"checked": 2, "corrupt": 1}
    assert report["result"] == {"checked": 1, "corrupt": 0}
    assert not victim.exists()
    assert events.cache_stats == {"corrupt": 1, "trace.corrupt": 1}
    # A second scan is clean.
    assert cache.verify_disk()["trace"] == {"checked": 1, "corrupt": 0}


def test_atomic_write_names_temps_by_uuid_and_cleans_up(tmp_path, monkeypatch):
    """Temp names must not repeat across hosts that share a cache dir
    (PIDs and thread ids do), and a failed write leaves no temp file."""
    import re

    from repro.runner import cache as cache_module

    target = tmp_path / "sub" / "entry.raf"
    temps = []
    replace = os.replace

    def recording_replace(src, dst):
        temps.append(Path(src).name)
        replace(src, dst)

    monkeypatch.setattr(cache_module.os, "replace", recording_replace)
    cache_module.atomic_write(target, b"first")
    cache_module.atomic_write(target, b"second")
    assert target.read_bytes() == b"second"
    assert len(set(temps)) == 2
    assert all(re.fullmatch(r"entry\.raf\.tmp[0-9a-f]{32}", name) for name in temps)

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cache_module.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        cache_module.atomic_write(target, b"third")
    assert target.read_bytes() == b"second"
    assert sorted(entry.name for entry in target.parent.iterdir()) == ["entry.raf"]


def test_sync_beacon_round_trip(tmp_path):
    cache = ArtifactCache(memory=False, disk_dir=tmp_path)
    token = cache.write_sync_beacon()
    assert token and cache.check_sync_beacon(token)
    # A cache on different storage does not see the beacon.
    other = ArtifactCache(memory=False, disk_dir=tmp_path / "elsewhere")
    assert not other.check_sync_beacon(token)
    cache.remove_sync_beacon(token)
    assert not cache.check_sync_beacon(token)
    # No disk tier -> no beacon.
    assert ArtifactCache(memory=True, disk_dir=None).write_sync_beacon() is None
    assert not cache.check_sync_beacon("../../../etc/passwd")


def test_source_digest_ignores_docstrings_and_comments():
    """The cache salt must survive docstring/comment-only edits."""
    from repro.runner.cache import source_digest

    base = (
        '"""Module docstring."""\n'
        "def fn(x):\n"
        '    """Original docstring."""\n'
        "    # a comment\n"
        "    return x * 2\n"
        "class C:\n"
        '    """Class docs."""\n'
        "    def method(self):\n"
        "        return 1\n"
    )
    docs_edited = (
        '"""A totally rewritten module docstring."""\n'
        "def fn(x):\n"
        '    """New and improved docs!"""\n'
        "    # a different comment, moved around\n"
        "    return x * 2\n"
        "class C:\n"
        "    def method(self):\n"
        '        """Docs added where there were none."""\n'
        "        return 1\n"
    )
    code_edited = base.replace("x * 2", "x * 3")
    assert source_digest(base) == source_digest(docs_edited)
    assert source_digest(base) != source_digest(code_edited)


def test_source_digest_distinguishes_load_bearing_strings():
    """A string that is *not* a docstring is behaviour, not docs."""
    from repro.runner.cache import source_digest

    a = "def fn():\n    return 'value-a'\n"
    b = "def fn():\n    return 'value-b'\n"
    assert source_digest(a) != source_digest(b)


def test_source_digest_unparseable_source_falls_back():
    from repro.runner.cache import source_digest

    assert source_digest("def broken(:") != source_digest("def broken(:!")


def _record_parses(monkeypatch):
    """Every source ``tree_fingerprint`` parses, i.e. its memo misses."""
    from repro.runner import cache as cache_module

    parsed = []
    real = cache_module.source_digest

    def recording(source):
        parsed.append(source)
        return real(source)

    monkeypatch.setattr(cache_module, "source_digest", recording)
    return parsed


def _scratch_tree(root, files):
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text)
    return root


def test_docstring_edit_keeps_cache_keys_stable(tmp_path, monkeypatch):
    """End to end: recomputing the fingerprint over sources whose only
    change is a docstring yields the same value, so disk entries written
    before the edit still replay.  Through the memo, only the edited
    module is parsed again."""
    from repro.runner.cache import tree_fingerprint

    pkg = _scratch_tree(
        tmp_path / "fakepkg",
        {"__init__.py": '"""v1 docs."""\nX = 1\n', "other.py": "Y = 2\n"},
    )
    memo = tmp_path / "memo.json"
    parsed = _record_parses(monkeypatch)

    before = tree_fingerprint(pkg, memo)
    assert len(parsed) == 2
    docs_edit = '"""v2: reworded the docs."""\nX = 1\n'
    (pkg / "__init__.py").write_text(docs_edit)
    parsed.clear()
    assert tree_fingerprint(pkg, memo) == before
    assert parsed == [docs_edit]
    code_edit = '"""v2: reworded the docs."""\nX = 2\n'
    (pkg / "__init__.py").write_text(code_edit)
    parsed.clear()
    assert tree_fingerprint(pkg, memo) != before
    assert parsed == [code_edit]


def test_code_fingerprint_memo_hit_equals_a_fresh_computation(
    tmp_path, monkeypatch
):
    """The real package: a memo miss parses every module, a hit parses
    none, and both give the process's fingerprint.  The memo follows the
    bytecode prefix."""
    import repro
    from repro.runner import cache as cache_module

    expected = cache_module.code_fingerprint()
    n_modules = len(list(Path(repro.__file__).parent.rglob("*.py")))
    monkeypatch.setattr(sys, "pycache_prefix", str(tmp_path))
    parsed = _record_parses(monkeypatch)
    for expected_parses in (n_modules, 0):
        monkeypatch.setattr(cache_module, "_fingerprint", None)
        parsed.clear()
        assert cache_module.code_fingerprint() == expected
        assert len(parsed) == expected_parses
    assert [p.name for p in tmp_path.rglob("*.json")] == [
        f"source-digests.{sys.implementation.cache_tag}.json"
    ]


def test_code_fingerprint_ignores_the_locale_encoding(tmp_path):
    """The interpreter reads source as UTF-8 whatever the locale, and so
    must the fingerprint: under an ASCII locale, with an empty memo so
    every module is decoded, it is the same value."""
    import repro
    from repro.runner.cache import code_fingerprint

    script = (
        "import sys\n"
        "from repro.runner.cache import code_fingerprint\n"
        "sys.pycache_prefix = sys.argv[1]\n"
        "print(code_fingerprint())\n"
    )
    env = dict(
        os.environ,
        LC_ALL="C",
        PYTHONUTF8="0",
        PYTHONPATH=str(Path(repro.__file__).parent.parent),
    )
    completed = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == code_fingerprint()


def _valid_memo(pkg, memo):
    from repro.runner.cache import tree_fingerprint

    return tree_fingerprint(pkg, memo), json.loads(memo.read_text())


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda memo: b"\xff{not json",
        lambda memo: b"[]",
        lambda memo: json.dumps({**memo, "digests": list(memo["digests"])}),
        lambda memo: json.dumps(
            {**memo, "digests": {key: 7 for key in memo["digests"]}}
        ),
        lambda memo: json.dumps({**memo, "python": "2.7.18 (another build)"}),
    ],
    ids=["garbage", "not-an-object", "digests-list", "entry-types", "python"],
)
def test_corrupt_digest_memo_is_recomputed_and_rewritten(
    tmp_path, monkeypatch, corrupt
):
    from repro.runner.cache import tree_fingerprint

    pkg = _scratch_tree(tmp_path / "pkg", {"a.py": "A = 1\n", "b.py": "B = 2\n"})
    memo = tmp_path / "memo.json"
    expected, valid = _valid_memo(pkg, memo)
    written = corrupt(valid)
    memo.write_bytes(written if isinstance(written, bytes) else written.encode())
    parsed = _record_parses(monkeypatch)
    assert tree_fingerprint(pkg, memo) == expected
    assert len(parsed) == 2
    assert json.loads(memo.read_text()) == valid


def test_unwritable_digest_memo_still_fingerprints(tmp_path, monkeypatch):
    from repro.runner.cache import tree_fingerprint

    pkg = _scratch_tree(tmp_path / "pkg", {"a.py": "A = 1\n"})
    expected, _ = _valid_memo(pkg, tmp_path / "memo.json")
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where the memo's directory would be")
    parsed = _record_parses(monkeypatch)
    for _ in range(2):
        assert tree_fingerprint(pkg, blocker / "memo.json") == expected
    assert len(parsed) == 2, "no memo, so every call parses"


def test_digest_memo_holds_exactly_the_current_tree(tmp_path):
    from repro.runner.cache import source_digest, tree_fingerprint

    pkg = _scratch_tree(tmp_path / "pkg", {"a.py": "A = 1\n", "b.py": "B = 2\n"})
    memo = tmp_path / "memo.json"
    tree_fingerprint(pkg, memo)
    (pkg / "b.py").unlink()
    (pkg / "a.py").write_text("A = 3\n")
    tree_fingerprint(pkg, memo)
    assert json.loads(memo.read_text()) == {
        "python": sys.version,
        "digests": {
            hashlib.sha256(b"A = 3\n").hexdigest(): source_digest("A = 3\n")
        },
    }


def test_captured_events_are_per_thread(tmp_path):
    """Concurrent tasks on one worker must each ship home only their
    own events — a process-wide capture would double-count."""
    import threading

    from repro.events import (
        CacheHit,
        CachePut,
        capture_events,
        collect_events,
    )

    cache = ArtifactCache(memory=True, disk_dir=None)
    _, trace = _small_trace()
    captured = {}
    ready = threading.Barrier(2)

    def task(name, house):
        with capture_events() as events:
            ready.wait(timeout=5.0)
            cache.put_trace(house, 1, 1, trace)
            cache.get_trace(house, 1, 1)
            # Both captures stay open until both threads have emitted.
            ready.wait(timeout=5.0)
        captured[name] = events

    threads = [
        threading.Thread(target=task, args=("t1", "A")),
        threading.Thread(target=task, args=("t2", "B")),
    ]
    with collect_events() as dispatched:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
    assert not any(thread.is_alive() for thread in threads)
    assert set(captured) == {"t1", "t2"}
    for events in captured.values():
        assert [type(event) for event in events] == [CachePut, CacheHit]
        assert all(event.tier == "trace" for event in events)
    assert dispatched.events_seen == 0, "captured events must not dispatch"
    # Folded together, the captures still account for everything.
    stats = replay_events(captured["t1"] + captured["t2"]).cache_stats
    assert stats["puts"] == 2 and stats["hits"] == 2


def test_per_tier_stats_are_tracked(tmp_path):
    cache = ArtifactCache(memory=False, disk_dir=tmp_path)
    with collect_events() as events:
        assert cache.get_result("fig3", (("n_days", "1"),)) is None
        cache.put_result("fig3", (("n_days", "1"),), {"x": 1})
        assert cache.get_result("fig3", (("n_days", "1"),)) == {"x": 1}
    stats = events.cache_stats
    assert stats["result.misses"] == 1
    assert stats["result.puts"] == 1
    assert stats["result.hits"] == 1
    # Aggregates still add up across tiers.
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["puts"] == 1


def test_code_fingerprint_salts_every_key(tmp_path, monkeypatch):
    from repro.runner import cache as cache_module

    fingerprint = cache_module.code_fingerprint()
    assert len(fingerprint) == 16
    assert fingerprint == cache_module.code_fingerprint(), "memoized"

    cache = ArtifactCache(memory=False, disk_dir=tmp_path)
    token = (("n_days", "1"),)
    cache.put_result("fig3", token, {"x": 1})
    assert cache.get_result("fig3", token) == {"x": 1}
    # A code edit changes the fingerprint; old entries must stop matching.
    monkeypatch.setattr(cache_module, "_fingerprint", "0" * 16)
    assert cache.get_result("fig3", token) is None


def test_describe_reports_tiers(tmp_path):
    cache = ArtifactCache(memory=True, disk_dir=tmp_path)
    _, trace = _small_trace()
    cache.put_trace("A", 2, 5, trace)
    cache.put_result("fig3", (("n_days", "2"),), {"x": 1})
    info = cache.describe()
    assert info["disk_files"] == {"result": 1, "trace": 1}
    assert info["disk_bytes"] > 0
    assert info["memory_entries"] == 2


# ----------------------------------------------------------------------
# Binary frame tiers: torn tails, flipped bytes, spill side channel
# ----------------------------------------------------------------------


def test_torn_binary_trace_entry_is_corrupt_then_miss(tmp_path):
    """A truncated .raf entry (torn tail) mirrors the JSON-tier torn
    tests: counted corrupt, deleted, and the next read is a clean miss."""
    cache = ArtifactCache(memory=False, disk_dir=tmp_path)
    _, trace = _small_trace()
    cache.put_trace("A", 2, 5, trace)
    (victim,) = (tmp_path / "trace").iterdir()
    assert victim.suffix == ".raf"
    raw = victim.read_bytes()
    victim.write_bytes(raw[: len(raw) // 2])
    with collect_events() as events:
        assert cache.get_trace("A", 2, 5) is None
        assert events.cache_stats["trace.corrupt"] == 1
        assert events.cache_stats["trace.misses"] == 1
        assert not victim.exists(), "torn frame must be deleted"
        assert cache.get_trace("A", 2, 5) is None
    assert events.cache_stats["trace.corrupt"] == 1
    assert events.cache_stats["trace.misses"] == 2


def test_torn_binary_result_and_rewards_entries(tmp_path):
    cache = ArtifactCache(memory=False, disk_dir=tmp_path)
    cache.put_result("fig3", (("n_days", "2"),), {"arr": np.arange(64)})
    cache.put_rewards(("r",), (np.ones((2, 1440)), {0: 1}))
    for tier in ("result", "rewards"):
        (victim,) = (tmp_path / tier).iterdir()
        victim.write_bytes(victim.read_bytes()[:40])
    with collect_events() as events:
        assert cache.get_result("fig3", (("n_days", "2"),)) is None
        assert cache.get_rewards(("r",)) is None
    assert events.cache_stats["result.corrupt"] == 1
    assert events.cache_stats["rewards.corrupt"] == 1


def test_verify_disk_covers_binary_tiers(tmp_path):
    cache = ArtifactCache(memory=False, disk_dir=tmp_path)
    _, trace = _small_trace()
    cache.put_trace("A", 2, 5, trace)
    cache.put_rewards(("r",), (np.ones((2, 1440)), {0: 1}))
    cache.put_result("fig3", (("n_days", "2"),), {"x": 1})
    token = cache.put_spill({"arr": np.arange(8)})
    (victim,) = (tmp_path / "rewards").iterdir()
    data = bytearray(victim.read_bytes())
    data[-1] ^= 0xFF  # single flipped payload bit: only the CRC sees it
    victim.write_bytes(bytes(data))
    report = cache.verify_disk()
    assert report["rewards"] == {"checked": 1, "corrupt": 1}
    assert report["trace"] == {"checked": 1, "corrupt": 0}
    assert report["result"] == {"checked": 1, "corrupt": 0}
    assert report["spill"] == {"checked": 1, "corrupt": 0}
    assert not victim.exists()
    assert cache.take_spill(token) is not None


def test_rewards_tier_persists_across_processes(tmp_path):
    table = (np.arange(2 * 1440, dtype=float).reshape(2, 1440), {0: 3, 1: 5})
    cache = ArtifactCache(memory=True, disk_dir=tmp_path)
    assert cache.get_rewards(("p",)) is None
    cache.put_rewards(("p",), table)
    # A fresh process: same disk, cold memory.
    cold = ArtifactCache(memory=True, disk_dir=tmp_path)
    with collect_events() as events:
        rewards, best = cold.get_rewards(("p",))
    np.testing.assert_array_equal(rewards, table[0])
    assert best == {0: 3, 1: 5}
    assert events.cache_stats["rewards.hits"] == 1


@pytest.mark.parametrize("n_days, over_one_mib", [(14, False), (20, True)])
def test_flipped_trace_frame_is_corrupt_at_any_size(tmp_path, n_days, over_one_mib):
    """A flipped last byte is caught on both sides of 1 MiB.  Frames that
    large used to be memory-mapped and decoded without their checksums,
    so a 20-day house trace came back altered with no ``CacheCorrupt``."""
    previous = get_cache()
    cache = configure_cache(memory=False, disk_dir=tmp_path)
    try:
        _, original = house_trace("A", n_days, 2023)
        (victim,) = (tmp_path / "trace").iterdir()
        assert (victim.stat().st_size >= 1 << 20) is over_one_mib
        data = bytearray(victim.read_bytes())
        data[-1] ^= 0xFF
        victim.write_bytes(bytes(data))
        with collect_events() as events:
            assert cache.get_trace("A", n_days, 2023) is None
        assert events.cache_stats["trace.corrupt"] == 1
        assert not victim.exists(), "the flipped frame must be deleted"
        _, regenerated = house_trace("A", n_days, 2023)
        reread = cache.get_trace("A", n_days, 2023)
    finally:
        set_cache(previous)
    for field in ("occupant_zone", "occupant_activity", "appliance_status"):
        for trace in (regenerated, reread):
            np.testing.assert_array_equal(
                getattr(trace, field), getattr(original, field)
            )
    # get_trace copies defensively, so a trace read back from its frame
    # is writable even though the frame's arrays are read-only views.
    reread.occupant_zone[:] = -1


def test_put_counts_encoded_bytes(tmp_path):
    from repro.events.dispatch import EventDispatcher, EventProcessor, use_dispatcher
    from repro.events.model import CachePut

    class _Recorder(EventProcessor):
        def __init__(self):
            self.events = []

        def handle(self, event, seq, ts):
            self.events.append(event)

    recorder = _Recorder()
    with use_dispatcher(EventDispatcher(processors=[recorder])):
        cache = ArtifactCache(memory=False, disk_dir=tmp_path)
        cache.put_result("fig3", (("n_days", "2"),), {"arr": np.arange(512)})
    puts = [e for e in recorder.events if isinstance(e, CachePut)]
    assert len(puts) == 1
    (entry,) = (tmp_path / "result").iterdir()
    assert puts[0].nbytes == entry.stat().st_size > 0


def test_spill_round_trip_and_one_shot(tmp_path):
    from repro.errors import ConfigurationError

    cache = ArtifactCache(memory=False, disk_dir=tmp_path)
    payload = {"arr": np.arange(1000, dtype=np.int64), "rows": [(1, 2.5)]}
    with collect_events() as events:
        token = cache.put_spill(payload)
        assert events.cache_stats["spill.puts"] == 1
        value = cache.take_spill(token)
        np.testing.assert_array_equal(value["arr"], payload["arr"])
        assert value["rows"] == [(1, 2.5)]
        assert events.cache_stats["spill.hits"] == 1
        # One-shot: the file is gone; a second take is a counted miss.
        with pytest.raises(ConfigurationError, match="not found"):
            cache.take_spill(token)
    assert events.cache_stats["spill.misses"] == 1


def test_torn_spill_raises_and_counts_corrupt(tmp_path):
    from repro.errors import ConfigurationError

    cache = ArtifactCache(memory=False, disk_dir=tmp_path)
    token = cache.put_spill({"arr": np.arange(1000)})
    (victim,) = (tmp_path / "spill").iterdir()
    victim.write_bytes(victim.read_bytes()[:100])
    with collect_events() as events, pytest.raises(ConfigurationError, match="corrupt"):
        cache.take_spill(token)
    assert events.cache_stats == {"corrupt": 1, "spill.corrupt": 1}
    assert not victim.exists()


def test_maybe_spill_respects_threshold_and_disk(tmp_path):
    small = {"arr": np.arange(4)}
    large = {"arr": np.zeros(100_000)}
    no_disk = ArtifactCache(memory=True, disk_dir=None)
    assert no_disk.maybe_spill(large) is None
    cache = ArtifactCache(
        memory=False, disk_dir=tmp_path, spill_threshold=64 * 1024
    )
    assert cache.maybe_spill(small) is None
    token = cache.maybe_spill(large)
    assert token is not None
    np.testing.assert_array_equal(
        cache.take_spill(token)["arr"], large["arr"]
    )


def test_threshold_env_overrides(tmp_path):
    """The spill threshold is set only by a constructor argument, which
    is how tests force either path."""
    explicit = ArtifactCache(memory=False, disk_dir=tmp_path, spill_threshold=8)
    assert explicit.spill_threshold == 8
