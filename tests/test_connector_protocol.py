"""Every connector conforms to the ConnectorProtocol contract.

The checks themselves live in :mod:`tests.connector_kit` — one
parametrized suite run against the driver connectors, the interactive
and fault-injecting wrappers, a stub SUT and both real in-process SUTs
used directly, the wire client (never dialled, and dialled to a
loopback server over each real SUT), and the multi-process sharded
store.
This module only binds the kit's cases to pytest and keeps the handful
of assertions that are about the protocol *type* rather than any one
connector.
"""

from __future__ import annotations

import pytest

from repro.core.connector import ConnectorProtocol
from repro.core.sut import StoreSUT

from .connector_kit import (
    DEFAULT_CASES,
    ConnectorCase,
    check_close_idempotent,
    check_crash_recovery,
    check_error_taxonomy,
    check_protocol_structure,
    check_replay_is_noop,
    remote_case,
    sharded_case,
    sut_case,
)


@pytest.fixture(scope="module")
def all_cases(small_split) -> list[ConnectorCase]:
    return [*DEFAULT_CASES,
            sut_case(small_split, "store"), sut_case(small_split, "engine"),
            remote_case(small_split, "store"),
            remote_case(small_split, "engine"),
            sharded_case(small_split, shards=2)]


# Parametrize over case *names*; the case objects come from the
# fixture so the dataset-backed cases can reuse the session dataset.
_CASE_NAMES = [case.name for case in DEFAULT_CASES] \
    + ["StoreSUT", "EngineSUT", "RemoteConnector(store)",
       "RemoteConnector(engine)", "ShardedStoreConnector"]


def _case(all_cases, name: str) -> ConnectorCase:
    return next(case for case in all_cases if case.name == name)


@pytest.mark.parametrize("name", _CASE_NAMES)
def test_protocol_structure(all_cases, name):
    check_protocol_structure(_case(all_cases, name))


@pytest.mark.parametrize("name", _CASE_NAMES)
def test_close_idempotent_and_propagates(all_cases, name):
    check_close_idempotent(_case(all_cases, name))


@pytest.mark.parametrize("name", _CASE_NAMES)
def test_error_taxonomy_crosses_connector(all_cases, name):
    check_error_taxonomy(_case(all_cases, name))


@pytest.mark.parametrize("name", _CASE_NAMES)
def test_replay_is_noop(all_cases, name):
    check_replay_is_noop(_case(all_cases, name))


@pytest.mark.parametrize("name", _CASE_NAMES)
def test_crash_recovery_preserves_acked_updates(all_cases, name):
    check_crash_recovery(_case(all_cases, name))


def test_crash_recovery_check_is_actually_probed(all_cases):
    """The recovery check must not rot into all-skips."""
    probed = [case.name for case in all_cases
              if check_crash_recovery(case)]
    assert "ShardedStoreConnector" in probed


def test_replay_check_is_actually_probed(all_cases):
    """The exactly-once check must not rot into all-skips."""
    probed = [case.name for case in all_cases
              if check_replay_is_noop(case)]
    assert probed == ["StoreSUT", "EngineSUT", "RemoteConnector(store)",
                      "RemoteConnector(engine)", "ShardedStoreConnector"]


def test_taxonomy_check_is_actually_probed(all_cases):
    probed = [case.name for case in all_cases
              if check_error_taxonomy(case)]
    assert {"BaseSUT", "InteractiveConnector",
            "FaultInjectingConnector"} <= set(probed)


# -- protocol-type assertions (not per-connector) --------------------------

def test_real_suts_conform_too(loaded_store):
    sut = StoreSUT(loaded_store)
    # SUTs themselves satisfy the structural contract (unified execute
    # plus close), which is what lets RemoteConnector stand in for one.
    assert isinstance(sut, ConnectorProtocol)


def test_nonconforming_object_is_rejected():
    class Half:
        def execute(self, operation):
            return None

    assert not isinstance(Half(), ConnectorProtocol)
