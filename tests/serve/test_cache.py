"""The ResultCache: LRU front, durable disk store, journal lifecycle."""

import json

import pytest

from repro.core import atomicio
from repro.serve import ResultCache

BODY = json.dumps({"hello": "world"}).encode() + b"\n"


class TestResultCache:
    def test_put_then_get_is_a_memory_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("fp1", BODY)
        assert cache.get("fp1") == BODY
        assert cache.stats == {
            "memory_hits": 1, "disk_hits": 0, "misses": 0, "expired": 0,
        }

    def test_miss_returns_none_and_counts(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("absent") is None
        assert cache.stats["misses"] == 1

    def test_new_instance_reads_from_disk(self, tmp_path):
        ResultCache(tmp_path).put("fp1", BODY)
        fresh = ResultCache(tmp_path)
        assert fresh.get("fp1") == BODY
        assert fresh.stats["disk_hits"] == 1
        # Second read is served from the memory front.
        assert fresh.get("fp1") == BODY
        assert fresh.stats["memory_hits"] == 1

    def test_memory_front_is_bounded_lru(self, tmp_path):
        cache = ResultCache(tmp_path, max_memory_entries=2)
        for name in ("a", "b", "c"):
            cache.put(name, BODY)
        assert cache.get("a") == BODY  # evicted from memory, on disk
        assert cache.stats["disk_hits"] == 1
        assert len(cache) == 3

    def test_corrupt_artefact_raises_naming_the_path(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.artefact_path("fp1")
        path.write_bytes(b"{not json")
        with pytest.raises(ValueError, match=str(path)):
            cache.get("fp1")

    def test_no_tmp_files_survive_a_put(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("fp1", BODY)
        assert list(cache.artefacts.glob("*.tmp")) == []

    def test_a_failed_put_leaves_no_tmp_file(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("fp1", BODY)
        with pytest.raises(TypeError):
            cache.put("fp2", "not bytes")
        assert sorted(p.name for p in cache.artefacts.iterdir()) == [
            "fp1.json"
        ]
        assert cache.get("fp2") is None

    def test_a_put_fsyncs_the_artefact_directory(self, tmp_path, monkeypatch):
        # The rename itself is made durable, as the sweep and golden
        # stores make theirs.
        synced = []
        monkeypatch.setattr(atomicio, "fsync_directory", synced.append)
        cache = ResultCache(tmp_path)
        assert cache.put("fp1", BODY).read_bytes() == BODY
        assert synced == [cache.artefacts]

    def test_journal_lifecycle(self, tmp_path):
        cache = ResultCache(tmp_path)
        journal = cache.journal_path("fp1")
        assert journal.parent == cache.journals
        journal.write_text("{}\n")
        cache.discard_journal("fp1")
        assert not journal.exists()
        cache.discard_journal("fp1")  # idempotent


class _FakeClock:
    """A hand-cranked monotonic clock for deterministic TTL tests."""

    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCacheTTL:
    def test_ttl_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="ttl"):
            ResultCache(tmp_path, ttl=0.0)
        with pytest.raises(ValueError, match="ttl"):
            ResultCache(tmp_path, ttl=-5.0)

    def test_fresh_entry_is_served(self, tmp_path):
        clock = _FakeClock()
        cache = ResultCache(tmp_path, ttl=60.0, clock=clock)
        cache.put("fp1", BODY)
        clock.advance(59.9)
        assert cache.get("fp1") == BODY
        assert cache.stats["expired"] == 0

    def test_expiry_evicts_memory_and_disk_and_counts_a_miss(self, tmp_path):
        clock = _FakeClock()
        cache = ResultCache(tmp_path, ttl=60.0, clock=clock)
        cache.put("fp1", BODY)
        clock.advance(60.0)
        assert cache.get("fp1") is None
        assert cache.stats["expired"] == 1
        assert cache.stats["misses"] == 1
        assert not cache.artefact_path("fp1").exists()
        assert len(cache) == 0

    def test_reads_never_refresh_an_entrys_age(self, tmp_path):
        clock = _FakeClock()
        cache = ResultCache(tmp_path, ttl=60.0, clock=clock)
        cache.put("fp1", BODY)
        for _ in range(5):
            clock.advance(11.0)
            assert cache.get("fp1") == BODY  # 55s old, still fresh
        clock.advance(11.0)  # 66s from publication despite the reads
        assert cache.get("fp1") is None
        assert cache.stats["expired"] == 1

    def test_republication_is_fresh(self, tmp_path):
        clock = _FakeClock()
        cache = ResultCache(tmp_path, ttl=60.0, clock=clock)
        cache.put("fp1", BODY)
        clock.advance(50.0)
        cache.put("fp1", BODY)  # recomputed and republished
        clock.advance(50.0)
        assert cache.get("fp1") == BODY  # only 50s since the re-put
        assert cache.stats["expired"] == 0

    def test_preexisting_disk_artefact_ages_from_first_observation(
        self, tmp_path
    ):
        ResultCache(tmp_path).put("fp1", BODY)  # a previous process
        clock = _FakeClock()
        cache = ResultCache(tmp_path, ttl=60.0, clock=clock)
        assert cache.get("fp1") == BODY  # stamped fresh at observation
        clock.advance(59.0)
        assert cache.get("fp1") == BODY
        clock.advance(2.0)
        assert cache.get("fp1") is None
        assert cache.stats["expired"] == 1

    def test_lru_bound_is_unchanged_under_ttl(self, tmp_path):
        clock = _FakeClock()
        cache = ResultCache(
            tmp_path, max_memory_entries=2, ttl=60.0, clock=clock
        )
        for name in ("a", "b", "c"):
            cache.put(name, BODY)
        assert cache.get("a") == BODY  # LRU-evicted from memory, on disk
        assert cache.stats["disk_hits"] == 1
        clock.advance(61.0)
        for name in ("a", "b", "c"):
            assert cache.get(name) is None
        assert cache.stats["expired"] == 3

    def test_no_ttl_never_expires(self, tmp_path):
        clock = _FakeClock()
        cache = ResultCache(tmp_path, clock=clock)
        cache.put("fp1", BODY)
        clock.advance(1e9)
        assert cache.get("fp1") == BODY
        assert cache.stats["expired"] == 0
