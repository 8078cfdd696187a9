"""Table 6 — mean runtime of complex read-only queries (ms), two SUTs.

The paper reports Sparksee (SF10) and Virtuoso (SF300) means.  We run
Q1-Q14 with curated parameters on both of our SUTs (graph store /
relational engine) and check the paper's shape claims: the heavy
traversal queries (Q9, Q3, Q14, Q6, Q5) dominate, the point-ish queries
(Q7, Q8, Q13 at small scale) are cheap.  The per-query means land in
``BENCH_table6.json`` at the repo root as a paper-shape artifact;
performance claims are made with ``perf/run.py``, not here.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.bench import emit_artifact, emit_headline, format_table
from repro.core.operation import ComplexRead
from repro.core.sut import EngineSUT, StoreSUT

#: The paper's Table 6 rows, for side-by-side rendering.
PAPER_SPARKSEE_SF10 = [20, 44, 441, 31, 100, 41, 11, 38, 3376, 194, 66,
                       177, 794, 2009]
PAPER_VIRTUOSO_SF300 = [941, 1493, 4232, 1163, 2688, 16090, 1000, 32,
                        18464, 1257, 762, 1519, 559, 742]


def _mean_ms(sut, query_id, bindings, repetitions=3):
    samples = []
    for params in bindings:
        for __ in range(repetitions):
            started = time.perf_counter()
            sut.execute(ComplexRead(query_id, params))
            samples.append(time.perf_counter() - started)
    return sum(samples) / len(samples) * 1000


@pytest.fixture(scope="module")
def measured(bench_store, bench_catalog, bench_params):
    store_sut = StoreSUT(bench_store)
    engine_sut = EngineSUT(bench_catalog)
    store_row = []
    engine_row = []
    for query_id in range(1, 15):
        bindings = bench_params.by_query[query_id][:5]
        store_row.append(_mean_ms(store_sut, query_id, bindings))
        engine_row.append(_mean_ms(engine_sut, query_id, bindings))
    return store_row, engine_row


def test_table6_mean_complex_latencies(benchmark, measured,
                                       bench_store, bench_catalog,
                                       bench_params):
    store_row, engine_row = measured
    benchmark.pedantic(
        _mean_ms, args=(StoreSUT(bench_store), 9,
                        bench_params.by_query[9][:3]),
        rounds=3, iterations=1)
    headers = ["system"] + [f"Q{i}" for i in range(1, 15)]
    rows = [
        ["graph store (ours)"] + [round(v, 2) for v in store_row],
        ["rel. engine (ours)"] + [round(v, 2) for v in engine_row],
        ["Sparksee SF10 (paper)"] + PAPER_SPARKSEE_SF10,
        ["Virtuoso SF300 (paper)"] + PAPER_VIRTUOSO_SF300,
    ]
    emit_artifact("table6_complex_reads", format_table(
        headers, rows,
        title="Table 6 — mean runtime of complex reads (ms)"))

    # Shape claims: the 2-hop message-heavy queries dominate the cheap
    # point queries on the graph store, as in both paper rows.
    def mean_of(row, ids):
        return sum(row[i - 1] for i in ids) / len(ids)

    heavy = mean_of(store_row, (3, 5, 9))
    cheap = mean_of(store_row, (7, 8, 13))
    assert heavy > 5 * cheap
    # Q9 is among the heaviest on the store (paper: heaviest on both).
    assert store_row[8] >= sorted(store_row, reverse=True)[4]

    emit_headline("table6", {
        "bench": "table6_complex_reads",
        "cores": os.cpu_count() or 1,
        "persons": bench_catalog.table("person").row_count,
        "store_mean_ms": {f"Q{i}": round(v, 2)
                          for i, v in enumerate(store_row, 1)},
        "engine_mean_ms": {f"Q{i}": round(v, 2)
                           for i, v in enumerate(engine_row, 1)},
    })
