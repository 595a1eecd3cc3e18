"""Unit tests for the verify-before-serve result cache.

The cache's contract: a *hit* is only a hit when the artifact re-proves
its checkpoint envelope, its embedded journal-line CRC, and a clean
oracle scoreboard — anything less is quarantined and reported as a
re-run, never served.
"""

import pytest

from repro.oracles.integrity import attach_crc
from repro.resilience.faults import FaultInjector
from repro.service.resultcache import ResultCache, entry_unservable_reason

FP = "deadbeefcafef00d"


def make_entry(fingerprint=FP, status="ok", violations=(), **overrides):
    entry = {
        "v": 1,
        "fingerprint": fingerprint,
        "experiment_id": "quick",
        "kwargs": {"value": 3},
        "status": status,
        "attempt": 1,
        "result": {"value": 3},
        "oracles": {"violations": list(violations)},
    }
    entry.update(overrides)
    return attach_crc(entry)


class TestServableGate:
    def test_clean_entry_passes(self):
        assert entry_unservable_reason(FP, make_entry()) is None

    def test_non_ok_status_rejected(self):
        reason = entry_unservable_reason(FP, make_entry(status="error"))
        assert "status" in reason

    def test_fingerprint_mismatch_rejected(self):
        reason = entry_unservable_reason("0000", make_entry())
        assert "fingerprint" in reason

    def test_tampered_crc_rejected(self):
        entry = make_entry()
        entry["result"] = {"value": 999}  # edit after the CRC was attached
        assert "CRC" in entry_unservable_reason(FP, entry)

    def test_oracle_violations_rejected(self):
        entry = make_entry(violations=[{"oracle": "energy", "detail": "x"}])
        assert "oracle" in entry_unservable_reason(FP, entry)


class TestResultCache:
    def test_store_load_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(FP, make_entry())
        entry, why = cache.load_verified(FP)
        assert why == "hit"
        assert entry["result"] == {"value": 3}
        assert cache.snapshot()["hits"] == 1

    def test_absent_entry_is_a_miss(self, tmp_path):
        entry, why = ResultCache(tmp_path).load_verified(FP)
        assert entry is None and why == "miss"

    def test_store_refuses_unservable_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError, match="refusing to cache"):
            cache.store(FP, make_entry(status="error"))
        with pytest.raises(ValueError, match="refusing to cache"):
            cache.store(
                FP, make_entry(violations=[{"oracle": "thermal"}])
            )
        assert not cache.path(FP).exists()

    def test_bit_flip_quarantines_and_reports_rerun(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.store(FP, make_entry())
        FaultInjector(seed=3).flip_file_bits(path, n_flips=4, offset_min=16)
        entry, why = cache.load_verified(FP)
        assert entry is None
        assert why.startswith("quarantined")
        # The rotten file was moved aside, not deleted (forensics) and
        # not left in place (it would fail every future read).
        assert not path.exists()
        assert path.with_name(path.name + ".quarantined").exists()
        assert cache.snapshot()["quarantined"] == 1
        # The fingerprint now reads as a plain miss: re-simulate.
        entry, why = cache.load_verified(FP)
        assert entry is None and why == "miss"

    def test_wrong_fingerprint_address_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        entry = make_entry(fingerprint="f" * 16)
        # Force a file whose embedded entry belongs to another task, as
        # a renamed/copied artifact would.
        cache.store("f" * 16, entry)
        cache.path("f" * 16).rename(cache.path(FP))
        loaded, why = cache.load_verified(FP)
        assert loaded is None
        assert why.startswith("quarantined")

    def test_reverify_happens_on_every_read(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.store(FP, make_entry())
        entry, why = cache.load_verified(FP)
        assert why == "hit"
        # Corruption *after* a successful read must still be caught.
        FaultInjector(seed=9).flip_file_bits(path, n_flips=4, offset_min=16)
        entry, why = cache.load_verified(FP)
        assert entry is None and why.startswith("quarantined")
