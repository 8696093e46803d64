"""Facet counting + drill-down over stored keyword columns.

The reference's facet module collects matching docs and counts their
category ordinals (``facet/FacetsCollector.java:49``,
``facet/StringDocValuesReaderState`` / SortedSetDocValuesFacetCounts;
drill-down = ``facet/DrillDownQuery.java``). Ray-first shape: the
matching docIDs come from the normal query path per segment, the
category values come from a doc_id-pushdown read of the stored column,
and counts pre-aggregate per segment before one tiny driver combine —
no shuffle of per-doc rows.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa

from .query import BooleanQuery, Query, TermQuery
from .searcher import Searcher


def _segment_matches(searcher: Searcher, q: Query):
    """(segment, sorted matching docIDs) for each segment ``q`` matches."""
    w = searcher.weight(q)
    for sr in searcher.reader.segments():
        docs = w.matches(sr)
        if len(docs):
            yield sr, np.sort(docs)


def facet_counts(searcher: Searcher, q: Query, col: str,
                 top_n: int | None = None) -> pa.Table:
    """(value, count) over docs matching ``q``, counted from the stored
    ``col`` — count desc, ties by value asc (FacetResult ordering)."""
    total: Counter = Counter()
    for sr, docs in _segment_matches(searcher, q):
        # per-segment partial count (combiner): only (value, n) leaves
        vals = sr.stored(docs, col)
        total.update(v for v in vals if v is not None)
    items = sorted(total.items(), key=lambda kv: (-kv[1], kv[0]))
    if top_n is not None:
        items = items[:top_n]
    return pa.table({
        col: pa.array([v for v, _ in items], pa.string()),
        "count": pa.array([n for _, n in items], pa.int64()),
    })


def drill_down(base: Query, col_terms: dict[str, str],
               keyword_fields: bool = True) -> Query:
    """DrillDownQuery analog: base query + one FILTER per (field,
    value) — for multi-field indexes where facet dimensions are
    keyword fields."""
    filters = tuple(TermQuery(v, field=f) for f, v in col_terms.items())
    if isinstance(base, BooleanQuery):
        return BooleanQuery(must=base.must, should=base.should,
                            must_not=base.must_not,
                            filter=base.filter + filters,
                            min_should_match=base.min_should_match)
    return BooleanQuery(must=(base,), filter=filters)


def drill_sideways(searcher: Searcher, base: Query,
                   selections: dict[str, str]) -> pa.Table:
    """DrillSideways analog (``facet/DrillSideways.java``; tests
    ``TestDrillSideways.java``): for each drilled dimension, facet
    counts over docs matching the base query plus every OTHER
    dimension's selection — the "what would this dim's counts be if I
    hadn't drilled on it" panel. One matching pass per segment; the
    per-dim sideways masks are boolean combines over the same
    doc_id-pushdown stored reads (no extra query evaluations).

    Returns a flat (dim, value, count) table, per-dim FacetResult
    ordering (count desc, value asc)."""
    cols = list(selections)
    counts: dict[str, Counter] = {c: Counter() for c in cols}
    for sr, docs in _segment_matches(searcher, base):
        vals = {c: np.asarray(sr.stored(docs, c), dtype=object)
                for c in cols}
        masks = {c: vals[c] == selections[c] for c in cols}
        for c in cols:
            side = np.ones(len(docs), dtype=bool)
            for o in cols:
                if o != c:
                    side &= masks[o]
            counts[c].update(v for v in vals[c][side] if v is not None)
    dim_col, val_col, n_col = [], [], []
    for c in cols:
        for v, n in sorted(counts[c].items(), key=lambda kv: (-kv[1], kv[0])):
            dim_col.append(c)
            val_col.append(v)
            n_col.append(n)
    return pa.table({
        "dim": pa.array(dim_col, pa.string()),
        "value": pa.array(val_col, pa.string()),
        "count": pa.array(n_col, pa.int64()),
    })


def topk_by_field(reader, col: str, k: int = 10,
                  ascending: bool = True) -> "pa.Table":
    """Early-terminating sort-by-field top-k — the index-sort /
    sort-by-doc-values role (``search/comparators``, IndexWriterConfig
    setIndexSort early termination): each segment's value-sorted
    ``dv_<col>`` sidecar yields its k best rows from the FIRST (or
    last) row groups only; a tiny k*n_segments merge finishes. Ties
    break to the lower doc_id (asc value order within ties)."""
    import os

    import pyarrow.parquet as pq

    vals_all, docs_all = [], []
    for info in reader.segment_infos:
        sr = reader.segment(info.seg_id)
        dv_path = os.path.join(sr._seg_dir, f"dv_{col}.parquet")
        if not os.path.isfile(dv_path):
            raise ValueError(f"no dv sidecar for {col}; build with "
                             f"doc_value_cols=({col!r},)")
        ov = sr._dvu.get(col)
        if ov is not None:
            # DV updates present: value order in the sidecar is stale
            # for the updated docs, so this segment reads fully and
            # overlays before taking its k best (early termination
            # would be unsound)
            t = pq.read_table(dv_path, use_threads=False)
            v = t.column("value").to_numpy().copy()
            d = t.column("doc_id").to_numpy().astype(np.int64)
            ud, uv = ov
            # sidecar rows are value-sorted, not doc-sorted: map the
            # overlay through a doc_id index
            idx = {int(x): i for i, x in enumerate(d)}
            for du, vu in zip(ud, uv):
                j = idx.get(int(du))
                if j is not None:
                    v[j] = vu
            m = sr.live_mask(d)
            if m is not None:
                v, d = v[m], d[m]
            order = np.lexsort((d, v if ascending else -v))[:k]
            got_v, got_d = [v[order]], [d[order]]
            vals_all.append(np.concatenate(got_v))
            docs_all.append(np.concatenate(got_d))
            continue
        pf = pq.ParquetFile(dv_path)
        nrg = pf.metadata.num_row_groups
        rows_needed = k
        got_v, got_d = [], []
        rg_order = range(nrg) if ascending else range(nrg - 1, -1, -1)
        for i in rg_order:
            t = pf.read_row_group(i, use_threads=False)
            v = t.column("value").to_numpy()
            d = t.column("doc_id").to_numpy().astype(np.int64)
            m = sr.live_mask(d)
            if m is not None:
                v, d = v[m], d[m]
            got_v.append(v)
            got_d.append(d)
            if sum(len(x) for x in got_v) >= rows_needed:
                break  # early termination: remaining row groups skipped
        if got_v:
            vals_all.append(np.concatenate(got_v))
            docs_all.append(np.concatenate(got_d))
    if not vals_all:
        return pa.table({col: pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64())})
    v = np.concatenate(vals_all)
    d = np.concatenate(docs_all)
    order = np.lexsort((d, v if ascending else -v))[:k]
    return pa.table({col: pa.array(v[order]),
                     "doc_id": pa.array(d[order], pa.int64())})


def range_facet_counts(searcher: Searcher, q: Query, col: str,
                       ranges: list[tuple]) -> pa.Table:
    """Numeric range facets — ``LongRangeFacetCounts`` /
    ``DoubleRangeFacetCounts`` (``facet/range/LongRangeFacetCounts.java``,
    tests ``TestRangeFacetCounts.java``): per declared range
    ``(label, lo, hi)`` (half-open [lo, hi); None = unbounded), the
    count of matching docs whose ``col`` value falls inside. Ranges may
    overlap — each counts independently; output keeps declared order."""
    counts = np.zeros(len(ranges), dtype=np.int64)
    for sr, docs in _segment_matches(searcher, q):
        got = sr.stored(docs, col)  # segment-local pushdown
        vals = np.array([float(v) for v in got if v is not None],
                        dtype=np.float64)
        for i, (_label, lo, hi) in enumerate(ranges):
            m = np.ones(len(vals), dtype=bool)
            if lo is not None:
                m &= vals >= lo
            if hi is not None:
                m &= vals < hi
            counts[i] += int(m.sum())
    return pa.table({
        "range_label": pa.array([r[0] for r in ranges], pa.string()),
        "count": pa.array(counts, pa.int64()),
    })


def taxonomy_facet_counts(searcher: Searcher, q: Query,
                          path_cols: tuple) -> pa.Table:
    """Hierarchical (taxonomy) facet counts — the taxonomy side of the
    facet module (``facet/taxonomy/TaxonomyFacetIntAssociations`` /
    ``FastTaxonomyFacetCounts.java``; ``FacetsConfig`` hierarchical
    dims): the category path of a doc is the tuple of its
    ``path_cols`` stored values; every PREFIX of the path gets a
    count (getTopChildren at each level). Output: ('/'-joined path,
    count), path asc — dimension rollups first."""
    total: Counter = Counter()
    for sr, docs in _segment_matches(searcher, q):
        cols = [sr.stored(docs, c) for c in path_cols]
        # per-segment partial counts of every path prefix (combiner)
        for parts in zip(*cols):
            path = ""
            for p in parts:
                if p is None:
                    break
                path = f"{path}/{p}" if path else str(p)
                total[path] += 1
    items = sorted(total.items())
    return pa.table({
        "path": pa.array([p for p, _ in items], pa.string()),
        "count": pa.array([n for _, n in items], pa.int64()),
    })


def facet_counts_multi(searcher: Searcher, q: Query,
                       col: str) -> pa.Table:
    """Multi-valued facet counts — the SortedSetDocValues facet role
    (``facet/sortedset/SortedSetDocValuesFacetCounts.java``): ``col``
    is a LIST column; every element of a matching doc's set counts
    once (docs may carry any number of labels). Output:
    (value, count), count desc then value asc — FacetResult order."""
    total: Counter = Counter()
    for sr, docs in _segment_matches(searcher, q):
        for vals in sr.stored(docs, col):
            if vals is None:
                continue
            for v in vals:
                if v is not None:
                    total[str(v)] += 1
    items = sorted(total.items(), key=lambda kv: (-kv[1], kv[0]))
    return pa.table({
        "value": pa.array([v for v, _ in items], pa.string()),
        "count": pa.array([n for _, n in items], pa.int64()),
    })


def taxonomy_facet_sum_associations(searcher: Searcher, q: Query,
                                    path_cols: tuple,
                                    value_col: str) -> pa.Table:
    """Association facets — ``facet/taxonomy/TaxonomyFacetIntAssociations``
    / ``TaxonomyFacetFloatAssociations`` (SUM aggregation, tests
    ``TestTaxonomyFacetAssociations.java``): each matching doc
    contributes its per-doc association VALUE (a numeric doc-value
    column here, the IntAssociationFacetField payload in the
    reference) to every prefix of its category path. Output:
    ('/'-joined path, sum), path asc."""
    total: Counter = Counter()
    for sr, docs in _segment_matches(searcher, q):
        cols = [sr.stored(docs, c) for c in path_cols]
        vals = sr.stored(docs, value_col)
        for parts, v in zip(zip(*cols), vals):
            if v is None:
                continue
            path = ""
            for p in parts:
                if p is None:
                    break
                path = f"{path}/{p}" if path else str(p)
                total[path] += float(v)
    items = sorted(total.items())
    return pa.table({
        "path": pa.array([p for p, _ in items], pa.string()),
        "sum_assoc": pa.array([v for _, v in items], pa.float64()),
    })


def sampled_facet_counts(searcher: Searcher, q: Query, col: str,
                         pct: int = 25,
                         salt: str = "facet-sample") -> pa.Table:
    """``RandomSamplingFacetsCollector`` role (facet/
    RandomSamplingFacetsCollector.java): facet counts over a SAMPLE of
    the matching docs. The reference uses an XORShift sample of hits;
    here the keep rule is the repo's deterministic salted-md5 hash
    (the engine-portable rule ``sample_hash`` uses), so the sampled
    counts are reproducible across engines and cluster sizes — each
    worker decides keep/drop locally with no coordination. Returns
    (value, sampled_count), value asc."""
    import hashlib as _hl

    total: Counter = Counter()
    for sr, docs in _segment_matches(searcher, q):
        keep = np.array([
            int(_hl.md5(f"{salt}:{d}".encode()).hexdigest()[:8], 16)
            % 100 < pct
            for d in docs], dtype=bool)
        docs = docs[keep]
        if len(docs) == 0:
            continue
        for v in sr.stored(docs, col):
            if v is not None:
                total[str(v)] += 1
    items = sorted(total.items())
    return pa.table({
        "value": pa.array([v for v, _ in items], pa.string()),
        "sampled_count": pa.array([n for _, n in items], pa.int64()),
    })


def diversified_topk(searcher: Searcher, q: Query, col: str,
                     max_per_key: int = 2, k: int = 20) -> pa.Table:
    """Diversified top-k (``misc/src/java/org/apache/lucene/misc/search/
    DiversifiedTopDocsCollector.java``; tests ``TestDiversifiedTopDocs
    Collector.java``): the global top-k by score with at most
    ``max_per_key`` hits sharing one key — walk hits in (score desc,
    docID asc) order and skip docs whose key already hit the cap,
    which is exactly "rank-within-key <= cap then global top-k".
    Keys come from the stored ``col`` (the reference uses a
    NumericDocValues key source). Returns (doc_id, rank)."""
    w = searcher.weight(q)
    parts_d, parts_s, keys = [], [], []
    for sr in searcher.reader.segments():
        d, s = w.scores(sr)
        if d is None or len(d) == 0:
            continue
        parts_d.append(np.asarray(d, dtype=np.int64))
        parts_s.append(np.asarray(s, dtype=np.float64))
        keys.extend(sr.stored(np.asarray(d, dtype=np.int64), col))
    if not parts_d:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64())})
    docs = np.concatenate(parts_d)
    scores = np.concatenate(parts_s)
    order = np.lexsort((docs, -scores))
    counts: Counter = Counter()
    out: list[int] = []
    for i in order:
        kk = keys[i]
        if counts[kk] >= max_per_key:
            continue
        counts[kk] += 1
        out.append(int(docs[i]))
        if len(out) == k:
            break
    return pa.table({
        "doc_id": pa.array(out, pa.int64()),
        "rank": pa.array(np.arange(1, len(out) + 1), pa.int64()),
    })
