"""The resilience policy primitives (repro.driver.resilience)."""

from __future__ import annotations

import pytest

from repro.driver.resilience import (
    CircuitBreaker,
    CircuitOpenError,
    DegradePolicy,
    RetryPolicy,
    default_is_transient,
)
from repro.errors import (
    DriverError,
    FatalSUTError,
    OperationTimeoutError,
    TransientError,
    WriteConflictError,
)
from repro.faults import InjectedFatalError, InjectedTransientError
from repro.rng import RandomStream


class TestClassification:
    def test_write_conflict_is_transient(self):
        assert default_is_transient(WriteConflictError("deadlock victim"))

    def test_injected_transient_is_transient(self):
        assert default_is_transient(InjectedTransientError("x"))

    def test_os_level_shapes_are_transient(self):
        assert default_is_transient(ConnectionError("reset"))
        assert default_is_transient(TimeoutError("slow"))

    def test_watchdog_timeout_is_transient(self):
        assert default_is_transient(OperationTimeoutError("x"))

    def test_fatal_is_never_transient(self):
        assert not default_is_transient(FatalSUTError("corrupt"))
        assert not default_is_transient(InjectedFatalError("x"))

    def test_fatal_marker_beats_transient_marker(self):
        class Both(FatalSUTError, TransientError):
            pass

        assert not default_is_transient(Both("ambiguous"))

    def test_ordinary_exceptions_are_fatal(self):
        assert not default_is_transient(ValueError("bug"))
        assert not default_is_transient(KeyError("missing"))

    def test_policy_classify_override(self):
        policy = RetryPolicy(classify=lambda exc: False)
        assert not policy.is_transient(WriteConflictError("x"))
        policy = RetryPolicy()
        assert policy.is_transient(WriteConflictError("x"))


class TestBackoff:
    def test_bounds(self):
        policy = RetryPolicy(base_backoff=0.01, max_backoff=0.5)
        stream = RandomStream.for_key(0, "test-backoff")
        previous = policy.base_backoff
        for __ in range(200):
            sleep = policy.next_backoff(previous, stream)
            assert policy.base_backoff <= sleep <= policy.max_backoff
            previous = sleep

    def test_decorrelated_jitter_grows_from_previous(self):
        policy = RetryPolicy(base_backoff=0.01, max_backoff=100.0)
        stream = RandomStream.for_key(1, "test-backoff")
        sleeps = [policy.next_backoff(10.0, stream) for __ in range(100)]
        # Uniform over [0.01, 30]: spread should be wide, mean ~15.
        assert max(sleeps) > 20.0
        assert min(sleeps) < 10.0

    def test_seeded_reproducibility(self):
        policy = RetryPolicy(base_backoff=0.001, max_backoff=1.0)

        def draw() -> list[float]:
            stream = RandomStream.for_key(9, "retry-backoff", 0)
            out, prev = [], policy.base_backoff
            for __ in range(20):
                prev = policy.next_backoff(prev, stream)
                out.append(prev)
            return out

        assert draw() == draw()


class TestCircuitBreaker:
    def test_trips_once_past_budget(self):
        breaker = CircuitBreaker(partition=0, budget=3)
        assert [breaker.record_skip() for __ in range(5)] == \
            [False, False, False, True, False]
        assert breaker.tripped
        assert breaker.skips == 5

    def test_open_error_is_driver_error_not_transient(self):
        assert issubclass(CircuitOpenError, DriverError)
        assert not default_is_transient(CircuitOpenError("open"))


class TestPolicyDefaults:
    def test_frozen(self):
        policy = RetryPolicy()
        with pytest.raises(Exception):
            policy.max_retries = 5  # type: ignore[misc]

    def test_default_is_fail_fast_single_attempt(self):
        policy = RetryPolicy()
        assert policy.max_retries == 0
        assert policy.on_exhaustion is DegradePolicy.FAIL_FAST
