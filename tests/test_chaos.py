"""The chaos soak (repro.validation.chaos): convergence under faults."""

from __future__ import annotations

import pytest

from repro.driver import DegradePolicy, ExecutionMode, RetryPolicy
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.validation import chaos_canary, clean_run_digest, run_chaos

#: Fast soak mix: plenty of aborts, a little latency, no real sleeps.
SOAK_PLAN = FaultPlan.uniform(abort=0.08, latency=0.04,
                              latency_seconds=0.0)
FAST_POLICY = RetryPolicy(max_retries=8, base_backoff=0.0,
                          max_backoff=0.0)


class TestChaosSoak:
    @pytest.mark.parametrize("sut_name", ["store", "engine"])
    def test_converges_under_transient_faults(self, small_split, sut_name):
        report = run_chaos(small_split, sut_name, SOAK_PLAN, seed=3,
                           policy=FAST_POLICY, num_partitions=4)
        assert report.failure is None
        assert report.digests_match
        assert report.injected["abort"] > 0
        assert report.driver is not None
        assert report.driver.retries >= report.injected["abort"]
        assert report.driver.dependency_timeouts == 0
        assert report.ok

    def test_converges_in_windowed_mode(self, small_split):
        report = run_chaos(small_split, "store", SOAK_PLAN, seed=3,
                           policy=FAST_POLICY, num_partitions=2,
                           mode=ExecutionMode.WINDOWED,
                           window_millis=60 * 60 * 1000)
        assert report.ok, report.failure

    def test_store_conflicts_join_the_mix(self, small_split):
        report = run_chaos(small_split, "store", SOAK_PLAN, seed=3,
                           policy=FAST_POLICY, num_partitions=1,
                           conflict_rate=0.05)
        assert report.ok, report.failure
        assert report.injected_conflicts > 0

    def test_conflict_injection_requires_store_sut(self, small_split):
        from repro.errors import BenchmarkError

        with pytest.raises(BenchmarkError):
            run_chaos(small_split, "engine", SOAK_PLAN,
                      conflict_rate=0.1)

    def test_identical_seed_and_plan_reproduce_counts(self, small_split):
        def soak():
            r = run_chaos(small_split, "store", SOAK_PLAN, seed=7,
                          policy=FAST_POLICY, num_partitions=4)
            assert r.ok, r.failure
            return (r.injected, r.driver.retries,
                    r.driver.retries_by_class, r.driver.skipped)

        assert soak() == soak()

    def test_fatal_fault_surfaces_under_fail_fast(self, small_split):
        plan = FaultPlan().with_fault(5, FaultSpec(FaultKind.FATAL))
        report = run_chaos(small_split, "store", plan, seed=0,
                           policy=FAST_POLICY, num_partitions=2,
                           dependency_wait_timeout=10.0)
        assert report.failure is not None
        assert "InjectedFatalError" in report.failure
        # Never retried: the fatal injection fired on exactly one attempt.
        assert report.injected["fatal"] == 1
        assert not report.ok

    def test_degrade_rides_out_fatal_faults(self, small_split):
        plan = FaultPlan().with_fault(5, FaultSpec(FaultKind.FATAL)) \
                          .with_fault(9, FaultSpec(FaultKind.FATAL))
        policy = RetryPolicy(max_retries=2, base_backoff=0.0,
                             max_backoff=0.0,
                             on_exhaustion=DegradePolicy.DEGRADE)
        report = run_chaos(small_split, "store", plan, seed=0,
                           policy=policy, num_partitions=2,
                           dependency_wait_timeout=10.0)
        assert report.failure is None
        assert report.driver.skipped == 2
        assert sum(report.driver.skipped_by_class.values()) == 2
        assert report.driver.dependency_timeouts == 0
        # Skipped updates were never applied, so the digest must differ:
        # degradation trades completeness for forward progress.
        assert not report.digests_match

    def test_clean_digest_is_deterministic(self, small_split):
        assert clean_run_digest(small_split, "store") \
            == clean_run_digest(small_split, "store")

    def test_sut_closed_when_final_digest_raises(self, small_split,
                                                 monkeypatch):
        """A dead shard worker can make the final digest raise; the
        SUT (and with it the worker processes) must still be closed."""
        from repro.validation import chaos

        class DyingSUT:
            name = "dying"
            closed = 0

            def execute(self, op):
                return None

            def digest(self):
                raise RuntimeError("worker died")

            def close(self):
                self.closed += 1

        sut = DyingSUT()
        monkeypatch.setattr(chaos, "clean_run_digest",
                            lambda split, sut_name: "clean")
        monkeypatch.setattr(chaos, "load_sut", lambda *a, **kw: sut)
        with pytest.raises(RuntimeError, match="worker died"):
            run_chaos(small_split, "store", SOAK_PLAN, seed=3,
                      policy=FAST_POLICY, num_partitions=1)
        assert sut.closed == 1


class TestChaosCanary:
    def test_unprotected_run_fails(self, small_split):
        plan = FaultPlan.uniform(abort=0.10)
        caught, report = chaos_canary(small_split, "store", plan,
                                      seed=0)
        assert caught
        assert report.injected_total > 0
        assert report.failure is not None or not report.digests_match

    def test_empty_plan_is_not_caught(self, small_split):
        caught, report = chaos_canary(small_split, "store",
                                      FaultPlan.uniform(), seed=0)
        assert not caught
        assert report.injected_total == 0


class TestRender:
    def test_render_mentions_verdict_and_digest(self, small_split):
        report = run_chaos(small_split, "store", SOAK_PLAN, seed=3,
                           policy=FAST_POLICY, num_partitions=2)
        from repro.validation import render_chaos

        text = render_chaos(report)
        assert "chaos soak [store]" in text
        assert "MATCH" in text
        assert "OK — chaos run converged" in text
