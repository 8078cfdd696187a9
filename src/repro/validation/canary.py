"""Mutation canary: inject a known query bug to prove the harness works.

A validation harness that never fires is indistinguishable from one that
cannot fire.  :func:`canary_bug` deliberately corrupts one SUT's Q2
(drops the first result row) and S4 (corrupts the message content) by
patching the query-registry entries the SUTs look up per call, runs
whatever validation the caller wraps, then restores the registries.  CI
asserts the harness *fails* under the canary — with a shrunk, replayable
counterexample — so a silent oracle regression breaks the build.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager

from ..errors import BenchmarkError


def _drop_first_row(run):
    def buggy(*args, **kwargs):
        rows = run(*args, **kwargs)
        return rows[1:] if rows else rows
    return buggy


def _corrupt_content(run):
    def buggy(*args, **kwargs):
        result = run(*args, **kwargs)
        if result is None:
            return result
        return dataclasses.replace(
            result, content=result.content + " [canary]")
    return buggy


@contextmanager
def canary_bug(sut: str = "engine"):
    """Temporarily seed a result bug into one SUT's Q2 and S4.

    Both SUTs resolve queries through registry dicts at call time, so
    swapping the dict entries injects the bug without touching any SUT
    instance; the original entries are restored on exit even if the
    wrapped validation raises.
    """
    if sut == "engine":
        from ..engine import snb_queries

        saved = (snb_queries.ENGINE_COMPLEX[2], snb_queries.ENGINE_SHORT[4])
        snb_queries.ENGINE_COMPLEX[2] = _drop_first_row(saved[0])
        snb_queries.ENGINE_SHORT[4] = _corrupt_content(saved[1])
        try:
            yield
        finally:
            snb_queries.ENGINE_COMPLEX[2] = saved[0]
            snb_queries.ENGINE_SHORT[4] = saved[1]
    elif sut == "store":
        from ..queries.registry import COMPLEX_QUERIES, SHORT_QUERIES

        saved_q2, saved_s4 = COMPLEX_QUERIES[2], SHORT_QUERIES[4]
        COMPLEX_QUERIES[2] = dataclasses.replace(
            saved_q2, run=_drop_first_row(saved_q2.run))
        SHORT_QUERIES[4] = dataclasses.replace(
            saved_s4, run=_corrupt_content(saved_s4.run))
        try:
            yield
        finally:
            COMPLEX_QUERIES[2] = saved_q2
            SHORT_QUERIES[4] = saved_s4
    elif sut == "sharded":
        # Shard-router mutation: drop shard 0 from every scatter-gather,
        # simulating a routing bug that silently loses a partition.
        # Golden reads see missing rows and checkpoint digests diverge,
        # so ``validate --check --sut sharded --canary`` must FAIL.
        from ..shard import router as shard_router

        saved_drop = shard_router._canary_drop_shard
        shard_router._canary_drop_shard = 0
        try:
            yield
        finally:
            shard_router._canary_drop_shard = saved_drop
    else:
        raise BenchmarkError(f"unknown canary target {sut!r}")
