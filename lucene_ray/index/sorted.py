"""True index sorting — the ``IndexWriterConfig.setIndexSort`` analog.

Reference semantics: ``lucene/core/src/java/org/apache/lucene/index/
IndexWriterConfig.java:475`` (setIndexSort) + ``index/Sorter.java``:
documents are reordered so internal docIDs follow the sort field, the
sort is recorded in the segment metadata, and any search sorted by the
same field early-terminates after collecting k docs per segment
(TopFieldCollector early termination).

Ray-Data-first shape (stronger than the reference's per-segment sort):
ONE distributed ``Dataset.sort`` over (sort_col, orig_id) — a single
range-partition shuffle, exactly the price of an index sort — then
sequential internal docIDs are assigned per sorted block. The driver
sees only per-block ROW COUNTS (metadata); blocks are re-id'd in place
by tiny remote tasks and streamed into the standard segment build.
``index_sort.json`` records the sort; :func:`sorted_topk` then answers
top-k-by-field by reading only the first row group(s) of the first
segment — the early-termination proof is the returned scan counters
(asserted in tests/test_index_sort.py).

At 100 TB: the sort shuffle is the only wide step and it replaces any
query-time global sort forever after; docID assignment moves zero rows
to the driver.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from .builder import build_index
from .manifest import IndexManifest, read_manifest

_SORT_DOC = "_sdoc"  # internal sorted docID column name


@ray.remote
def _nrows(t: pa.Table) -> int:
    return t.num_rows


@ray.remote
def _reid(t: pa.Table, base: int, id_col: str) -> pa.Table:
    # the internal sorted docID takes over the docID role; the caller's
    # id column is RENAMED (orig_*) so it can't collide with the
    # builder's fixed "doc_id" stored-field name
    names = [f"orig_{c}" if c == id_col else c for c in t.column_names]
    t = t.rename_columns(names)
    ids = pa.array(np.arange(base, base + t.num_rows, dtype=np.int64))
    return t.append_column(_SORT_DOC, ids)


def build_sorted_index(source, out_dir: str, sort_col: str, *,
                       ascending: bool = True, id_col: str = "doc_id",
                       text_col: str = "text", stored_cols: tuple = (),
                       batch_size: int = 4096,
                       **build_kwargs) -> IndexManifest:
    """Build an index whose internal docID order IS the sort-field
    order (ties broken by the original id, so the order is total and
    deterministic). The caller's ``id_col`` is kept as a stored column;
    queries translate back on output."""
    if isinstance(source, ray.data.Dataset):
        ds = source
    else:
        ds = ray.data.read_parquet(source)
    sds = ds.sort([sort_col, id_col], descending=[not ascending, False])
    refs = sds.to_arrow_refs()
    # metadata-only driver pass: per-block row counts -> docID bases
    counts = ray.get([_nrows.remote(r) for r in refs])
    bases = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
    new_refs = [_reid.remote(r, int(b), id_col)
                for r, b in zip(refs, bases)]
    ds2 = ray.data.from_arrow_refs(new_refs)
    m = build_index(
        ds2, out_dir, text_col=text_col, id_col=_SORT_DOC,
        stored_cols=tuple(dict.fromkeys(
            (f"orig_{id_col}", sort_col, *stored_cols))),
        batch_size=batch_size, **build_kwargs)
    with open(os.path.join(out_dir, "index_sort.json"), "w") as f:
        json.dump({"field": sort_col, "ascending": ascending,
                   "id_col": id_col}, f)
    return m


def read_index_sort(index_dir: str) -> dict | None:
    p = os.path.join(index_dir, "index_sort.json")
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def sorted_search(index_dir: str, query, k: int,
                  searcher=None) -> tuple[pa.Table, dict]:
    """Filtered sort-by-field top-k with early termination
    (TopFieldCollector.create(sort == indexSort) semantics): segments
    are visited in docID (== field) order and evaluation STOPS as soon
    as k matching docs are collected — later segments are never
    matched. Returns ``(table(id_col, field), scan_stats)``.

    Any query works: the per-segment match is its weight's ``matches``
    (``Searcher.weight`` loads the query's posting rows in every
    segment up front, one batched read each)."""
    from ..search import IndexReader, Searcher

    sort = read_index_sort(index_dir)
    if sort is None:
        raise ValueError(f"{index_dir} has no index sort recorded")
    s = searcher or Searcher(IndexReader(index_dir))
    m = read_manifest(index_dir)
    segs = sorted(m.segments, key=lambda x: x.min_doc)
    want_cols = [f"orig_{sort['id_col']}", sort["field"]]
    stats = {"segments_opened": 0, "total_segments": len(segs)}
    w = s.weight(query)
    hits: list[int] = []
    for info in segs:
        if len(hits) >= k:
            break
        stats["segments_opened"] += 1
        sr = s.reader.segment(info.seg_id)
        docs = w.matches(sr)
        if len(docs) == 0:
            continue
        hits.extend(np.sort(np.asarray(docs))[:k - len(hits)].tolist())
    if not hits:
        t = pa.table({c: [] for c in want_cols})
    else:
        # stored-field read for exactly the hit docs (pushdown by
        # docID range: hits are contiguous-ish in the first segments)
        parts = []
        hit_arr = np.asarray(hits, dtype=np.int64)
        for info in segs[:stats["segments_opened"]]:
            sel = hit_arr[(hit_arr >= info.min_doc)
                          & (hit_arr <= info.max_doc)]
            if not len(sel):
                continue
            dt = pq.ParquetFile(os.path.join(
                index_dir, "segments", info.seg_id, "docs.parquet")) \
                .read(columns=["doc_id"] + want_cols)
            ids = dt.column("doc_id").to_numpy()
            pos = np.searchsorted(ids, sel)
            parts.append(dt.take(pa.array(pos)).select(want_cols))
        t = pa.concat_tables(parts)
    t = t.rename_columns(
        [sort["id_col"] if c == f"orig_{sort['id_col']}" else c
         for c in t.column_names])
    return t, stats


def sorted_topk(index_dir: str, k: int,
                columns: tuple = ()) -> tuple[pa.Table, dict]:
    """Top-k by the recorded index sort: because docID order == field
    order, the answer is literally the first k stored rows. Reads
    segments in docID order and stops as soon as k rows are in hand —
    at most ``ceil(k / rows_per_row_group)`` row groups of the first
    segment(s) are touched, regardless of index size.

    Returns ``(table, scan_stats)`` where ``scan_stats`` documents the
    pruning: files_opened / row_groups_read / rows_read (asserted in
    tests — the TopFieldCollector early-termination proof)."""
    sort = read_index_sort(index_dir)
    if sort is None:
        raise ValueError(f"{index_dir} has no index sort recorded")
    m = read_manifest(index_dir)
    segs = sorted(m.segments, key=lambda s: s.min_doc)
    want = [f"orig_{sort['id_col']}", sort["field"], *columns]
    got: list[pa.Table] = []
    have = 0
    stats = {"files_opened": 0, "row_groups_read": 0, "rows_read": 0,
             "total_segments": len(segs)}
    for s in segs:
        if have >= k:
            break
        pf = pq.ParquetFile(
            os.path.join(index_dir, "segments", s.seg_id, "docs.parquet"))
        stats["files_opened"] += 1
        for rg in range(pf.num_row_groups):
            t = pf.read_row_group(rg, columns=want)
            stats["row_groups_read"] += 1
            stats["rows_read"] += t.num_rows
            got.append(t)
            have += t.num_rows
            if have >= k:
                break
    out = pa.concat_tables(got).slice(0, k) if got else pa.table(
        {c: [] for c in want})
    # present the caller's id column under its original name
    out = out.rename_columns(
        [sort["id_col"] if c == f"orig_{sort['id_col']}" else c
         for c in out.column_names])
    return out, stats


def sorted_range(index_dir: str, lo, hi) -> tuple[pa.Table, dict]:
    """Range query on the index-sort field —
    ``IndexSortSortedNumericDocValuesRangeQuery`` role: because docID
    order == field order GLOBALLY, the matching rows are one
    contiguous run; row-group statistics binary-search its ends, and
    scanning STOPS at the first row group past ``hi`` (ascending).
    Reads only the covering row groups. Returns
    ``(table(id_col, field), scan_stats)``."""
    sort = read_index_sort(index_dir)
    if sort is None:
        raise ValueError(f"{index_dir} has no index sort recorded")
    asc = sort["ascending"]
    field = sort["field"]
    m = read_manifest(index_dir)
    segs = sorted(m.segments, key=lambda s: s.min_doc)
    want = [f"orig_{sort['id_col']}", field]
    stats = {"files_opened": 0, "row_groups_read": 0, "rows_read": 0,
             "total_segments": len(segs), "stopped_early": False}
    got: list[pa.Table] = []
    done = False
    for s in segs:
        if done:
            break
        pf = pq.ParquetFile(
            os.path.join(index_dir, "segments", s.seg_id, "docs.parquet"))
        stats["files_opened"] += 1
        md = pf.metadata
        names = [md.schema.column(i).name
                 for i in range(len(md.schema))]
        col_idx = names.index(field)
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(col_idx).statistics
            if st is not None:
                past = (st.min > hi) if asc else (st.max < lo)
                before = (st.max < lo) if asc else (st.min > hi)
                if past:
                    stats["stopped_early"] = True
                    done = True
                    break
                if before:
                    continue
            t = pf.read_row_group(rg, columns=want)
            stats["row_groups_read"] += 1
            stats["rows_read"] += t.num_rows
            vals = t.column(field).to_numpy(zero_copy_only=False)
            keep = (vals >= lo) & (vals <= hi)
            if keep.any():
                got.append(t.filter(pa.array(keep)))
    out = pa.concat_tables(got) if got else pa.table({c: [] for c in want})
    out = out.rename_columns(
        [sort["id_col"] if c == f"orig_{sort['id_col']}" else c
         for c in out.column_names])
    return out, stats
