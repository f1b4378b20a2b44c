"""Tests for structured logging and request correlation
(:mod:`repro.obs.log`): schema round-trips, context id binding,
header sanitization, idempotent configuration, and the bit-identity
guarantee that unlogged runs emit not a single extra byte.
"""

import io
import json
import logging
import os

import pytest

from repro.cli import main
from repro.obs.log import (
    LOG_SCHEMA_VERSION,
    REQUEST_ID_ENV,
    ROOT_LOGGER,
    bind_request_id,
    configure,
    current_request_id,
    get_logger,
    log_event,
    new_request_id,
    sanitize_request_id,
    validate_log_line,
)


@pytest.fixture(autouse=True)
def _pristine_logging(monkeypatch):
    """Undo configure()/env side effects so tests stay independent."""
    # setenv first so monkeypatch records the variable's prior state
    # and restores it at teardown, whatever a test left behind (a bare
    # delenv of an absent variable records nothing to undo).
    monkeypatch.setenv(REQUEST_ID_ENV, "")
    monkeypatch.delenv(REQUEST_ID_ENV)
    logger = logging.getLogger(ROOT_LOGGER)
    level = logger.level
    yield
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_installed", False):
            logger.removeHandler(handler)
    logger.setLevel(level)


def _configured_stream(json_lines=True, level="INFO"):
    stream = io.StringIO()
    configure(json_lines=json_lines, level=level, stream=stream)
    return stream


class TestRequestIds:
    def test_new_request_id_shape(self):
        rid = new_request_id()
        assert len(rid) == 12
        int(rid, 16)  # hex
        assert rid != new_request_id()

    def test_sanitize_passes_safe_ids(self):
        assert sanitize_request_id("run-1.a_B") == "run-1.a_B"

    def test_sanitize_replaces_hostile_bytes(self):
        hostile = "evil\r\nX-Injected: 1"
        cleaned = sanitize_request_id(hostile)
        assert "\r" not in cleaned and "\n" not in cleaned
        assert ":" not in cleaned and " " not in cleaned

    def test_sanitize_truncates(self):
        assert len(sanitize_request_id("a" * 200)) == 64

    def test_bind_nesting_restores(self):
        assert current_request_id() is None
        with bind_request_id("outer"):
            assert current_request_id() == "outer"
            with bind_request_id("inner"):
                assert current_request_id() == "inner"
            assert current_request_id() == "outer"
        assert current_request_id() is None

    def test_bind_never_touches_the_environment(self, monkeypatch):
        with bind_request_id("rid-env"):
            assert REQUEST_ID_ENV not in os.environ
        monkeypatch.setenv(REQUEST_ID_ENV, "caller-rid")
        with bind_request_id("other-rid"):
            assert os.environ[REQUEST_ID_ENV] == "caller-rid"
        assert os.environ[REQUEST_ID_ENV] == "caller-rid"

    def test_environment_is_not_a_fallback(self, monkeypatch):
        # Only the CLI reads the variable (once, at start); library
        # code sees an id only where one is bound.
        monkeypatch.setenv(REQUEST_ID_ENV, "inherited-rid")
        assert current_request_id() is None


class TestJsonLines:
    def test_round_trip_validates(self):
        stream = _configured_stream()
        log_event(get_logger("test"), "unit.event", answer=42, name="x")
        doc = json.loads(stream.getvalue().strip())
        validate_log_line(doc)
        assert doc["log_schema_version"] == LOG_SCHEMA_VERSION
        assert doc["logger"] == "repro.test"
        assert doc["event"] == "unit.event"
        assert doc["fields"] == {"answer": 42, "name": "x"}
        assert doc["request_id"] is None

    def test_bound_id_lands_on_every_line(self):
        stream = _configured_stream()
        with bind_request_id("rid-123"):
            log_event(get_logger("test"), "first")
            log_event(get_logger("test"), "second", detail=1)
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            doc = json.loads(line)
            validate_log_line(doc)
            assert doc["request_id"] == "rid-123"

    def test_explicit_id_beats_bound_id(self):
        stream = _configured_stream()
        with bind_request_id("bound"):
            log_event(get_logger("test"), "evt", request_id="explicit")
        assert json.loads(stream.getvalue())["request_id"] == "explicit"

    def test_exception_serializes(self):
        stream = _configured_stream()
        logger = get_logger("test")
        try:
            raise RuntimeError("boom")
        except RuntimeError:
            logger.exception("evt.failed")
        doc = json.loads(stream.getvalue().strip())
        validate_log_line(doc)
        assert "RuntimeError: boom" in doc["exc"]

    def test_validate_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="event"):
            validate_log_line(
                {"log_schema_version": 1, "ts": 0.0, "level": "INFO",
                 "logger": "repro", "request_id": None}
            )

    def test_validate_rejects_wrong_version(self):
        stream = _configured_stream()
        log_event(get_logger("test"), "evt")
        doc = json.loads(stream.getvalue())
        doc["log_schema_version"] = LOG_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            validate_log_line(doc)

    def test_level_gating_is_free(self):
        stream = _configured_stream(level="WARNING")
        log_event(get_logger("test"), "debug.evt")  # INFO: below gate
        log_event(get_logger("test"), "warn.evt", level=logging.WARNING)
        lines = stream.getvalue().strip().splitlines()
        assert [json.loads(l)["event"] for l in lines] == ["warn.evt"]

    def test_human_formatter(self):
        stream = _configured_stream(json_lines=False)
        with bind_request_id("rid-h"):
            log_event(get_logger("test"), "human.evt", key="value")
        line = stream.getvalue().strip()
        assert "human.evt" in line
        assert "request_id=rid-h" in line
        assert "key=value" in line

    def test_configure_is_idempotent(self):
        stream = io.StringIO()
        configure(json_lines=True, stream=stream)
        configure(json_lines=True, stream=stream)
        log_event(get_logger("test"), "once.evt")
        assert len(stream.getvalue().strip().splitlines()) == 1


class TestBitIdentity:
    """Without ``--log-json``/``--log-level`` nothing may change: no
    stderr bytes, byte-identical stdout — the seed outputs survive."""

    def test_unconfigured_logging_emits_nothing(self, capsys):
        log_event(get_logger("test"), "silent.evt",
                  level=logging.CRITICAL)
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""

    def test_cli_stdout_identical_with_and_without_logging(self, capsys):
        assert main(["costs", "-c", "8", "-n", "5", "--json"]) == 0
        plain = capsys.readouterr()
        assert plain.err == ""
        assert main(["--log-json", "--log-level", "INFO",
                     "costs", "-c", "8", "-n", "5", "--json"]) == 0
        logged = capsys.readouterr()
        assert logged.out == plain.out

    def test_cli_without_flags_leaves_env_unset(self, capsys):
        assert main(["costs", "-c", "8", "-n", "5"]) == 0
        assert REQUEST_ID_ENV not in os.environ

    def test_cli_logging_never_exports_the_id(self, capsys, monkeypatch):
        """A logged run binds its correlation id for the command's
        extent and never writes it to the environment; afterwards
        nothing (e.g. a tracer instant) sees it."""
        from repro import cli
        from repro.obs.tracer import Tracer

        seen = []
        monkeypatch.setattr(
            cli, "cmd_costs",
            lambda args: seen.append(
                (current_request_id(), os.environ.get(REQUEST_ID_ENV))
            ) or 0,
        )
        assert main(["--log-json", "costs"]) == 0
        assert len(seen) == 1
        bound, exported = seen[0]
        assert bound and exported is None
        assert REQUEST_ID_ENV not in os.environ
        tracer = Tracer()
        tracer.instant("events", "after", 0)
        assert "request_id" not in dict(tracer.instants[0].detail)

    @pytest.mark.parametrize("flags", ([], ["--log-json"]))
    def test_cli_adopts_the_callers_id(self, capsys, monkeypatch, flags):
        """An id the caller set in the environment is read once and
        bound for the run, with or without logging; it is never
        rewritten."""
        from repro import cli

        seen = []
        monkeypatch.setattr(
            cli, "cmd_costs",
            lambda args: seen.append(current_request_id()) or 0,
        )
        monkeypatch.setenv(REQUEST_ID_ENV, "caller-rid")
        assert main([*flags, "costs"]) == 0
        assert seen == ["caller-rid"]
        assert os.environ[REQUEST_ID_ENV] == "caller-rid"
        assert current_request_id() is None
