"""QueryProfiler role — the sandbox profiler surface
(``sandbox/search/QueryProfilerIndexSearcher.java``,
``QueryProfilerBreakdown.java``, ``ProfilerCollector.java``): build the
query's weight tree once (``Searcher.weight``) and report a per-node
breakdown of that tree. As in the reference, the rows describe the
REWRITTEN query (a boost pushed into its clauses, a one-clause boolean
folded into its clause, a prefix expanded). Each node carries

- ``node``: path-qualified label (``root``, ``root.must[0]``, ...)
- ``type``: the rewritten node's query class name (TermQuery,
  BooleanQuery, ...)
- ``n_matches``: the node's own match count over every segment
  (deterministic — the oracle-checkable column)
- ``wall_ns``: wall time of that count (diagnostic only; never
  compared)

The reference breaks timing down by phase (create_weight / build_
scorer / next_doc ...); a vectorized engine has no per-doc iterator
to time, so the per-node wall clock is the faithful analog.
"""

from __future__ import annotations

import time

import pyarrow as pa

from .query import Query


def profile_query(searcher, q: Query) -> pa.Table:
    """Per-node breakdown table, preorder. ``n_matches`` for a
    ``must_not`` child is the child's OWN match count (what the
    exclusion iterator consumes), as in the reference's per-weight
    breakdown."""
    w = searcher.weight(q)
    segments = list(searcher.reader.segments())
    rows = []

    def walk(path: str, w):
        t0 = time.perf_counter_ns()
        n = sum(len(w.matches(sr)) for sr in segments)
        dt = time.perf_counter_ns() - t0
        rows.append((path, w.name, n, dt))
        for label, child in w.children():
            walk(f"{path}.{label}", child)

    walk("root", w)
    return pa.table({
        "node": pa.array([r[0] for r in rows], pa.large_string()),
        "type": pa.array([r[1] for r in rows], pa.large_string()),
        "n_matches": pa.array([r[2] for r in rows], pa.int64()),
        "wall_ns": pa.array([r[3] for r in rows], pa.int64()),
    })
