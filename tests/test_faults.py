"""The deterministic fault-injection subsystem (repro.faults)."""

from __future__ import annotations

import threading

import pytest

from repro.errors import (
    FatalSUTError,
    TransientError,
    WriteConflictError,
)
from repro.faults import (
    ClassRates,
    ConflictInjector,
    FaultInjectingConnector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    InjectedFatalError,
    InjectedTransientError,
    install_conflict_injector,
)
from repro.store.graph import GraphStore


class CountingConnector:
    """Counts delegated executions (thread-safe)."""

    def __init__(self) -> None:
        self.executed = 0
        self._lock = threading.Lock()

    def execute(self, operation) -> None:
        with self._lock:
            self.executed += 1


class TestFaultPlan:
    def test_decisions_are_pure(self):
        plan = FaultPlan.uniform(abort=0.3, latency=0.2, fatal=0.1)
        for key in range(50):
            first = plan.decide(7, key, "ADD_POST")
            again = plan.decide(7, key, "ADD_POST")
            assert first == again

    def test_seed_changes_decisions(self):
        plan = FaultPlan.uniform(abort=0.5)
        a = [plan.decide(1, k, "ADD_POST") for k in range(100)]
        b = [plan.decide(2, k, "ADD_POST") for k in range(100)]
        assert a != b

    def test_rates_approached(self):
        plan = FaultPlan.uniform(abort=0.25)
        hits = sum(1 for k in range(2000)
                   if plan.decide(3, k, "ADD_POST") is not None)
        assert 0.18 < hits / 2000 < 0.32

    def test_explicit_schedule_overrides_rates(self):
        spec = FaultSpec(FaultKind.FATAL)
        plan = FaultPlan.uniform(abort=0.0).with_fault(4, spec)
        assert plan.decide(0, 4, "ADD_POST") is spec
        assert plan.decide(0, 5, "ADD_POST") is None

    def test_per_class_rates_fall_back_to_star(self):
        plan = FaultPlan(rates={
            "ADD_POST": ClassRates(abort=1.0),
            "*": ClassRates(latency=1.0),
        })
        assert plan.decide(0, 1, "ADD_POST").kind is FaultKind.ABORT
        assert plan.decide(0, 1, "ADD_LIKE_POST").kind \
            is FaultKind.LATENCY

    def test_rates_must_sum_to_at_most_one(self):
        with pytest.raises(ValueError):
            ClassRates(abort=0.8, fatal=0.3)

    def test_empty(self):
        assert FaultPlan.uniform().empty
        assert not FaultPlan.uniform(abort=0.1).empty
        assert not FaultPlan().with_fault(
            0, FaultSpec(FaultKind.ABORT)).empty


class TestInjector:
    def test_abort_fails_then_succeeds(self, small_split):
        ops = small_split.updates[:20]
        inner = CountingConnector()
        plan = FaultPlan().with_fault(
            3, FaultSpec(FaultKind.ABORT, attempts=2))
        connector = FaultInjectingConnector(inner, plan, seed=0,
                                            operations=ops)
        target = ops[3]
        with pytest.raises(InjectedTransientError):
            connector.execute(target)
        with pytest.raises(InjectedTransientError):
            connector.execute(target)
        connector.execute(target)  # third attempt goes through
        assert inner.executed == 1
        assert connector.injected_counts()["abort"] == 2
        assert isinstance(
            InjectedTransientError("x"), TransientError)

    def test_fatal_always_raises(self, small_split):
        ops = small_split.updates[:5]
        inner = CountingConnector()
        plan = FaultPlan().with_fault(1, FaultSpec(FaultKind.FATAL))
        connector = FaultInjectingConnector(inner, plan,
                                            operations=ops)
        for __ in range(3):
            with pytest.raises(InjectedFatalError):
                connector.execute(ops[1])
        assert inner.executed == 0
        assert isinstance(InjectedFatalError("x"), FatalSUTError)

    def test_unfaulted_ops_pass_through(self, small_split):
        ops = small_split.updates[:10]
        inner = CountingConnector()
        connector = FaultInjectingConnector(inner, FaultPlan.uniform(),
                                            operations=ops)
        for op in ops:
            connector.execute(op)
        assert inner.executed == len(ops)
        assert connector.injected_total == 0

    def test_counts_deterministic_across_runs(self, small_split):
        ops = small_split.updates
        plan = FaultPlan.uniform(abort=0.2, latency=0.1,
                                 latency_seconds=0.0)

        def run() -> dict:
            inner = CountingConnector()
            connector = FaultInjectingConnector(inner, plan, seed=5,
                                                operations=ops)
            for op in ops:
                while True:
                    try:
                        connector.execute(op)
                        break
                    except InjectedTransientError:
                        continue
            return connector.injected_counts()

        first, second = run(), run()
        assert first == second
        assert first["abort"] > 0 and first["latency"] > 0

    def test_fallback_identity_without_operations(self, small_split):
        """No stream binding: ops identified by (class, due time)."""
        op = small_split.updates[0]
        plan = FaultPlan().with_fault(
            (op.op_class, op.due_time),
            FaultSpec(FaultKind.ABORT, attempts=1))
        inner = CountingConnector()
        connector = FaultInjectingConnector(inner, plan)
        with pytest.raises(InjectedTransientError):
            connector.execute(op)
        connector.execute(op)
        assert inner.executed == 1

    def test_injected_by_class(self, small_split):
        ops = small_split.updates[:1]
        plan = FaultPlan().with_fault(0, FaultSpec(FaultKind.ABORT))
        connector = FaultInjectingConnector(CountingConnector(), plan,
                                            operations=ops)
        with pytest.raises(InjectedTransientError):
            connector.execute(ops[0])
        by_class = connector.injected_by_class()
        assert sum(by_class.values()) == 1


class TestConflictInjector:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ConflictInjector(0, 1.5)

    def test_injects_real_write_conflicts(self):
        store = GraphStore()
        injector = install_conflict_injector(store, seed=1, rate=1.0)
        with pytest.raises(WriteConflictError):
            with store.transaction() as txn:
                txn.insert_vertex("person", 1, {"name": "a"})
        assert injector.injected == 1
        assert store.abort_count == 1
        # The conflict is genuinely transient: retry in a new txn wins.
        store.fault_injector = None
        with store.transaction() as txn:
            txn.insert_vertex("person", 1, {"name": "a"})
        assert store.commit_count == 1

    def test_conflict_is_transient_error(self):
        assert isinstance(WriteConflictError("x"), TransientError)

    def test_seeded_rate_deterministic(self):
        def fire_pattern() -> list[bool]:
            injector = ConflictInjector(seed=9, rate=0.4)
            pattern = []
            for __ in range(50):
                try:
                    injector.before_commit(None)
                    pattern.append(False)
                except WriteConflictError:
                    pattern.append(True)
            return pattern

        assert fire_pattern() == fire_pattern()
        assert any(fire_pattern())
