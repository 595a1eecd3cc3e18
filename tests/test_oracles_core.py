"""Unit tests for the oracle subsystem: config, scoreboard, invariants.

Everything here is pure (no engines): the per-engine integration tests
live in ``test_oracles_replay.py`` / ``test_oracles_thermal.py``.
"""

import numpy as np
import pytest

from repro.oracles.config import (
    OracleConfig,
    get_oracle_config,
    oracle_mode,
    set_oracle_mode,
)
from repro.oracles.integrity import (
    attach_crc,
    crc32_of_arrays,
    journal_line_crc,
    sha256_hex,
    verify_entry_crc,
)
from repro.oracles.invariants import (
    CPMA_BANDS,
    DEFAULT_CPMA_BAND,
    TEMP_MAX_C,
    check_cache_sets,
    check_counter_deltas,
    check_cpi_band,
    check_cpma_band,
    check_energy_conservation,
    check_rob_occupancy,
    check_temperature_bounds,
)
from repro.oracles.report import (
    oracle_report,
    record_check,
    record_violation,
    reset_oracles,
)


@pytest.fixture(autouse=True)
def _clean_oracles():
    previous = get_oracle_config()
    reset_oracles()
    yield
    set_oracle_mode(previous)
    reset_oracles()


class TestOracleConfig:
    def test_default_mode_is_sample(self):
        assert OracleConfig().mode == "sample"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown oracle mode"):
            OracleConfig(mode="paranoid")

    def test_enabled_and_strict_flags(self):
        assert not OracleConfig(mode="off").enabled
        assert OracleConfig(mode="sample").enabled
        assert OracleConfig(mode="strict").enabled
        assert OracleConfig(mode="strict").strict
        assert not OracleConfig(mode="sample").strict

    def test_context_manager_restores_previous_mode(self):
        set_oracle_mode("off")
        with oracle_mode("strict") as cfg:
            assert cfg.strict
            assert get_oracle_config().strict
        assert get_oracle_config().mode == "off"

    def test_set_mode_accepts_full_config(self):
        config = OracleConfig(mode="strict")
        installed = set_oracle_mode(config)
        assert installed is config
        assert get_oracle_config() is config


class TestScoreboard:
    def test_checks_and_violations_accumulate(self):
        record_check("thermal.bounds", n=3)
        record_check("memsim.replay-chunk")
        record_violation("thermal.bounds", "thermal", "too hot", "degraded")
        report = oracle_report()
        assert report.checks == {"thermal.bounds": 3, "memsim.replay-chunk": 1}
        assert report.total_checks == 4
        assert not report.clean
        [violation] = report.violations
        assert violation.engine == "thermal"
        assert violation.action == "degraded"

    def test_reset_clears_everything(self):
        record_check("x")
        record_violation("x", "memsim", "boom")
        reset_oracles()
        report = oracle_report()
        assert report.total_checks == 0
        assert report.clean

    def test_to_dict_is_json_shaped(self):
        record_check("x")
        record_violation("x", "uarch", "detail", "fallback")
        payload = oracle_report().to_dict()
        assert payload["total_checks"] == 1
        assert payload["violations"][0]["oracle"] == "x"
        assert payload["violations"][0]["action"] == "fallback"


class TestInvariants:
    def test_energy_conservation(self):
        assert check_energy_conservation(100.0, 100.0) == []
        assert check_energy_conservation(100.0, 100.01, rtol=1e-5)
        assert check_energy_conservation(100.0, 100.01, rtol=1e-3) == []

    def test_temperature_bounds(self):
        assert check_temperature_bounds(45.0, 90.0, ambient_c=45.0) == []
        assert check_temperature_bounds(30.0, 90.0, ambient_c=45.0)
        assert check_temperature_bounds(45.0, TEMP_MAX_C + 1, ambient_c=45.0)
        [problem] = check_temperature_bounds(float("nan"), 90.0, 45.0)
        assert "NaN" in problem

    def test_cache_sets(self):
        ok = [{1: True, 2: True}, {}]
        assert check_cache_sets(ok, assoc=2, name="l1") == []
        [problem] = check_cache_sets(
            [{1: True, 2: True, 3: True}], assoc=2, name="l1"
        )
        assert "associativity 2" in problem

    def test_counter_deltas(self):
        assert check_counter_deltas({"hits": 5}, {"hits": 5}) == []
        assert check_counter_deltas({"hits": 5}, {"hits": 9}) == []
        [problem] = check_counter_deltas({"hits": 5}, {"hits": 4})
        assert "went backwards" in problem

    def test_rob_occupancy(self):
        assert check_rob_occupancy([0, 64], window=64) == []
        assert check_rob_occupancy([65], window=64)
        assert check_rob_occupancy([-1], window=64)

    def test_cpi_band(self):
        assert check_cpi_band(1.5, width=4) == []
        assert check_cpi_band(4.5, width=4)
        assert check_cpi_band(0.0, width=4)
        assert check_cpi_band(float("nan"), width=4)

    def test_cpma_band_known_and_fallback(self):
        lo, hi = CPMA_BANDS["svd"]
        assert check_cpma_band("svd", (lo + hi) / 2) == []
        assert check_cpma_band("svd", hi * 2)
        lo, hi = DEFAULT_CPMA_BAND
        assert check_cpma_band("not-a-kernel", (lo + hi) / 2) == []
        assert check_cpma_band("not-a-kernel", hi * 2)


class TestIntegrityHelpers:
    def test_sha256_hex(self):
        assert sha256_hex(b"") == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_crc32_of_arrays_sensitive_to_flips(self):
        a = np.arange(16, dtype=np.float64)
        before = crc32_of_arrays([a, None])
        a.view(np.uint8)[3] ^= 0x10
        assert crc32_of_arrays([a, None]) != before

    def test_entry_crc_round_trip(self):
        entry = attach_crc({"task_id": "t", "status": "ok", "result": {"x": 1}})
        assert verify_entry_crc(entry)
        assert len(entry["crc"]) == 8

    def test_entry_crc_detects_tamper(self):
        entry = attach_crc({"task_id": "t", "status": "ok"})
        tampered = dict(entry, status="error")
        assert not verify_entry_crc(tampered)

    def test_crc_is_stable_across_key_order(self):
        a = journal_line_crc({"b": 2, "a": 1})
        b = journal_line_crc({"a": 1, "b": 2})
        assert a == b
