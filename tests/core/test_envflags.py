"""The shared environment-flag parser — one truth table for every knob.

Before :mod:`repro.envflags`, each subsystem parsed its switch its own
way: ``REPRO_MEMO`` disabled only on the literal ``"0"``, so
``REPRO_MEMO=false`` silently stayed memoized.  These tests pin the
shared truth table — every documented disable spelling (``=0``,
``=false``, empty string, ``no``, ``off``) actually disables, every
enable spelling enables, and unrecognized values keep each flag's
documented default — across every flag consumer plus the
``REPRO_STORE`` path variable.
"""

import warnings

import pytest

from repro.envflags import FALSY, TRUTHY, env_flag, env_float, env_path, parse_flag


DISABLE_SPELLINGS = ["0", "false", "", "no", "off", "FALSE", "No", " 0 "]
ENABLE_SPELLINGS = ["1", "true", "yes", "on", "TRUE", "Yes", " 1 "]


class TestParseFlag:
    @pytest.mark.parametrize("raw", DISABLE_SPELLINGS)
    def test_falsy_spellings(self, raw):
        assert parse_flag(raw, default=True) is False
        assert parse_flag(raw, default=False) is False

    @pytest.mark.parametrize("raw", ENABLE_SPELLINGS)
    def test_truthy_spellings(self, raw):
        assert parse_flag(raw, default=True) is True
        assert parse_flag(raw, default=False) is True

    @pytest.mark.parametrize("raw", [None, "2", "maybe", "enabled"])
    def test_unset_or_unrecognized_keeps_default(self, raw):
        # "2" kept its historical meaning on both sides of the default:
        # REPRO_QUOTIENT=2 never enabled, REPRO_MEMO=2 never disabled.
        assert parse_flag(raw, default=True) is True
        assert parse_flag(raw, default=False) is False

    def test_tables_are_disjoint(self):
        assert not (FALSY & TRUTHY)


class TestEnvFlag:
    @pytest.mark.parametrize("raw", DISABLE_SPELLINGS)
    def test_disable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TEST_FLAG", raw)
        assert env_flag("REPRO_TEST_FLAG", default=True) is False

    @pytest.mark.parametrize("raw", ENABLE_SPELLINGS)
    def test_enable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TEST_FLAG", raw)
        assert env_flag("REPRO_TEST_FLAG", default=False) is True

    def test_unset_is_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_FLAG", raising=False)
        assert env_flag("REPRO_TEST_FLAG", default=True) is True
        assert env_flag("REPRO_TEST_FLAG", default=False) is False


class TestEnvPath:
    def test_unset_empty_and_whitespace_mean_no_path(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_PATH", raising=False)
        assert env_path("REPRO_TEST_PATH") is None
        monkeypatch.setenv("REPRO_TEST_PATH", "")
        assert env_path("REPRO_TEST_PATH") is None
        monkeypatch.setenv("REPRO_TEST_PATH", "   ")
        assert env_path("REPRO_TEST_PATH") is None

    def test_set_path_comes_back_verbatim(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_PATH", "/tmp/some-store")
        assert env_path("REPRO_TEST_PATH") == "/tmp/some-store"


class TestEnvFloat:
    @pytest.mark.parametrize(
        "raw,expected",
        [("2.5", 2.5), ("10", 10.0), (" 0.25 ", 0.25), ("1e2", 100.0)],
    )
    def test_valid_spellings(self, monkeypatch, raw, expected):
        monkeypatch.setenv("REPRO_TEST_FLOAT", raw)
        assert env_float("REPRO_TEST_FLOAT", 7.0) == expected

    @pytest.mark.parametrize("raw", ["", "   ", "soon", "1.2.3", "nan", "inf", "-inf"])
    def test_invalid_spellings_keep_default(self, monkeypatch, raw):
        # NaN/inf are parsable floats but nonsense as intervals: a NaN
        # TTL would make every staleness comparison False forever.
        monkeypatch.setenv("REPRO_TEST_FLOAT", raw)
        assert env_float("REPRO_TEST_FLOAT", 7.0) == 7.0

    def test_unset_keeps_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_FLOAT", raising=False)
        assert env_float("REPRO_TEST_FLOAT", 3.5) == 3.5

    def test_below_minimum_keeps_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLOAT", "0.0")
        assert env_float("REPRO_TEST_FLOAT", 5.0, minimum=0.1) == 5.0
        monkeypatch.setenv("REPRO_TEST_FLOAT", "-3")
        assert env_float("REPRO_TEST_FLOAT", 5.0, minimum=0.0) == 5.0
        monkeypatch.setenv("REPRO_TEST_FLOAT", "0.1")
        assert env_float("REPRO_TEST_FLOAT", 5.0, minimum=0.1) == 0.1


class TestSchedulerTimingKnobs:
    """The scheduler's two clocks are env-configurable with validation."""

    def test_lease_ttl_from_environment(self, monkeypatch):
        from repro.store.scheduler import (
            DEFAULT_LEASE_TTL,
            LEASE_STALE_ENV,
            default_lease_ttl,
        )

        monkeypatch.setenv(LEASE_STALE_ENV, "4.5")
        assert default_lease_ttl() == 4.5
        monkeypatch.setenv(LEASE_STALE_ENV, "not-a-number")
        assert default_lease_ttl() == DEFAULT_LEASE_TTL
        monkeypatch.setenv(LEASE_STALE_ENV, "0")  # below the 0.1s floor
        assert default_lease_ttl() == DEFAULT_LEASE_TTL
        monkeypatch.delenv(LEASE_STALE_ENV)
        assert default_lease_ttl() == DEFAULT_LEASE_TTL

    def test_heartbeat_interval_from_environment(self, monkeypatch):
        from repro.store.scheduler import (
            DEFAULT_HEARTBEAT_SECONDS,
            HEARTBEAT_ENV,
            default_heartbeat_seconds,
        )

        monkeypatch.setenv(HEARTBEAT_ENV, "0.5")
        assert default_heartbeat_seconds() == 0.5
        monkeypatch.setenv(HEARTBEAT_ENV, "-1")
        assert default_heartbeat_seconds() == DEFAULT_HEARTBEAT_SECONDS
        monkeypatch.delenv(HEARTBEAT_ENV)
        assert default_heartbeat_seconds() == DEFAULT_HEARTBEAT_SECONDS

    def test_queue_inherits_env_ttl(self, monkeypatch, tmp_path):
        from repro.store.scheduler import JobQueue, LEASE_STALE_ENV

        monkeypatch.setenv(LEASE_STALE_ENV, "1.25")
        assert JobQueue(tmp_path / "q").lease_ttl == 1.25
        # An explicit lease_ttl always beats the environment.
        assert JobQueue(tmp_path / "q2", lease_ttl=9.0).lease_ttl == 9.0

    def test_orchestrator_inherits_env_heartbeat(self, monkeypatch, tmp_path):
        from repro.store.orchestrator import Orchestrator
        from repro.store.scheduler import HEARTBEAT_ENV

        monkeypatch.setenv(HEARTBEAT_ENV, "0.2")
        orch = Orchestrator(tmp_path, pools=1)
        assert orch.heartbeat_interval == 0.2


def _run_tiny_batch():
    from repro.algorithms import GossipAlgorithm
    from repro.core.engine import BatchJob, run_batch
    from repro.graphs.builders import bidirectional_ring

    run_batch([BatchJob(GossipAlgorithm(max), bidirectional_ring(3), inputs=[1, 2, 3], rounds=1)])


class TestConsumers:
    """The flag consumers all route through the shared parser."""

    @pytest.mark.parametrize("raw", ["0", "false", ""])
    def test_parallel_disable_spellings(self, monkeypatch, raw):
        # REPRO_PARALLEL selects nothing; its falsy spellings stay silent.
        monkeypatch.setenv("REPRO_PARALLEL", raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _run_tiny_batch()

    def test_parallel_enable_spellings(self, monkeypatch):
        for raw in ("1", "true", "yes"):
            monkeypatch.setenv("REPRO_PARALLEL", raw)
            with pytest.warns(UserWarning, match="REPRO_PARALLEL no longer selects"):
                _run_tiny_batch()

    @pytest.mark.parametrize("raw", ["0", "false", ""])
    def test_memo_disable_spellings(self, monkeypatch, raw):
        from repro.core.memo import memo_enabled

        monkeypatch.setenv("REPRO_MEMO", raw)
        assert memo_enabled() is False

    def test_memo_default_on_and_odd_values_stay_on(self, monkeypatch):
        from repro.core.memo import memo_enabled

        monkeypatch.delenv("REPRO_MEMO", raising=False)
        assert memo_enabled() is True
        monkeypatch.setenv("REPRO_MEMO", "2")  # historical: not a disable
        assert memo_enabled() is True

    @pytest.mark.parametrize("raw", ["0", "false", ""])
    def test_quotient_disable_spellings(self, monkeypatch, raw):
        from repro.core.engine import select_backend
        from repro.core.execution import Execution

        monkeypatch.delenv("REPRO_VECTOR", raising=False)
        monkeypatch.setenv("REPRO_QUOTIENT", raw)
        assert select_backend() is Execution

    def test_quotient_enable_spellings(self, monkeypatch):
        from repro.core.engine import QuotientExecution, select_backend

        monkeypatch.delenv("REPRO_VECTOR", raising=False)
        for raw in ("1", "on", "True"):
            monkeypatch.setenv("REPRO_QUOTIENT", raw)
            assert select_backend() is QuotientExecution

    @pytest.mark.parametrize("raw", ["0", "false", ""])
    def test_vector_disable_spellings(self, monkeypatch, raw):
        from repro.core.engine import select_backend
        from repro.core.execution import Execution

        monkeypatch.delenv("REPRO_QUOTIENT", raising=False)
        monkeypatch.setenv("REPRO_VECTOR", raw)
        assert select_backend() is Execution

    def test_vector_enable_spellings(self, monkeypatch):
        from repro.core.engine import VectorExecution, select_backend

        monkeypatch.delenv("REPRO_QUOTIENT", raising=False)
        for raw in ("1", "yes", "ON"):
            monkeypatch.setenv("REPRO_VECTOR", raw)
            assert select_backend() is VectorExecution

    def test_store_env_empty_means_no_store(self, monkeypatch):
        from repro.store.cache import STORE_ENV, default_store

        monkeypatch.setenv(STORE_ENV, "")
        assert default_store() is None
        monkeypatch.setenv(STORE_ENV, "   ")
        assert default_store() is None


class TestEnvInt:
    """``env_int`` — the service listener's knobs ride through here."""

    @pytest.mark.parametrize(
        "raw,expected", [("8080", 8080), ("0", 0), (" 443 ", 443), ("-3", -3)]
    )
    def test_valid_spellings(self, monkeypatch, raw, expected):
        from repro.envflags import env_int

        monkeypatch.setenv("REPRO_TEST_INT", raw)
        assert env_int("REPRO_TEST_INT", 7) == expected

    @pytest.mark.parametrize("raw", ["", "  ", "abc", "8.5", "1e3", "0x10"])
    def test_invalid_spellings_keep_default(self, monkeypatch, raw):
        from repro.envflags import env_int

        monkeypatch.setenv("REPRO_TEST_INT", raw)
        assert env_int("REPRO_TEST_INT", 7) == 7

    def test_unset_keeps_default(self, monkeypatch):
        from repro.envflags import env_int

        monkeypatch.delenv("REPRO_TEST_INT", raising=False)
        assert env_int("REPRO_TEST_INT", 9) == 9

    def test_out_of_range_keeps_default(self, monkeypatch):
        from repro.envflags import env_int

        monkeypatch.setenv("REPRO_TEST_INT", "70000")
        assert env_int("REPRO_TEST_INT", 8765, minimum=0, maximum=65535) == 8765
        monkeypatch.setenv("REPRO_TEST_INT", "-1")
        assert env_int("REPRO_TEST_INT", 8765, minimum=0, maximum=65535) == 8765

    def test_port_zero_is_in_range(self, monkeypatch):
        """Port 0 — bind ephemerally — is a legitimate configuration,
        not an out-of-range value."""
        from repro.envflags import env_int

        monkeypatch.setenv("REPRO_TEST_INT", "0")
        assert env_int("REPRO_TEST_INT", 8765, minimum=0, maximum=65535) == 0

    def test_service_knobs_route_through_env_int(self, monkeypatch):
        from repro.service.app import (
            SERVICE_BACKLOG_ENV,
            SERVICE_PORT_ENV,
            service_backlog,
            service_port,
        )

        monkeypatch.setenv(SERVICE_PORT_ENV, "0")
        assert service_port() == 0
        monkeypatch.setenv(SERVICE_PORT_ENV, "not-a-port")
        assert service_port() == 8765
        monkeypatch.setenv(SERVICE_BACKLOG_ENV, "256")
        assert service_backlog() == 256
        monkeypatch.setenv(SERVICE_BACKLOG_ENV, "0")  # below minimum 1
        assert service_backlog() == 128
