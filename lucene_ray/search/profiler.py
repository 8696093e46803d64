"""QueryProfiler role — the sandbox profiler surface
(``sandbox/search/QueryProfilerIndexSearcher.java``,
``QueryProfilerBreakdown.java``, ``ProfilerCollector.java``): run a
query and report a per-node breakdown tree. Each node carries

- ``node``: path-qualified label (``root``, ``root.must[0]``, ...)
- ``type``: query class name (TermQuery, BooleanQuery, ...)
- ``n_matches``: the node's standalone match count (deterministic —
  the oracle-checkable column)
- ``wall_ns``: wall time spent evaluating the node standalone
  (diagnostic only; never compared)

The reference breaks timing down by phase (create_weight / build_
scorer / next_doc ...); a vectorized engine has no per-doc iterator
to time, so the per-node wall clock is the faithful analog.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from .query import (
    BooleanQuery,
    BoostQuery,
    ConstantScoreQuery,
    CoveringQuery,
    DisjunctionMaxQuery,
    FunctionScoreQuery,
    Query,
)


def _children(q: Query):
    if isinstance(q, BooleanQuery):
        for name in ("must", "should", "must_not", "filter"):
            for i, c in enumerate(getattr(q, name)):
                yield f"{name}[{i}]", c
    elif isinstance(q, (BoostQuery, ConstantScoreQuery, FunctionScoreQuery)):
        yield "inner", q.inner
    elif isinstance(q, DisjunctionMaxQuery):
        for i, c in enumerate(q.disjuncts):
            yield f"disjuncts[{i}]", c
    elif isinstance(q, CoveringQuery):
        for i, c in enumerate(q.queries):
            yield f"queries[{i}]", c


def profile_query(searcher, q: Query) -> pa.Table:
    """Per-node breakdown table, preorder. ``n_matches`` for a
    ``must_not`` child is the child's OWN match count (what the
    exclusion iterator consumes), as in the reference's per-weight
    breakdown."""
    rows = []

    def walk(path: str, node: Query):
        t0 = time.perf_counter_ns()
        n = len(searcher.match_docs(node))
        dt = time.perf_counter_ns() - t0
        rows.append((path, type(node).__name__, n, dt))
        for label, child in _children(node):
            walk(f"{path}.{label}", child)

    walk("root", q)
    return pa.table({
        "node": pa.array([r[0] for r in rows], pa.large_string()),
        "type": pa.array([r[1] for r in rows], pa.large_string()),
        "n_matches": pa.array([r[2] for r in rows], pa.int64()),
        "wall_ns": pa.array([r[3] for r in rows], pa.int64()),
    })
