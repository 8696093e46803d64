"""Parent/child block join — the join module's ToParentBlockJoinQuery
(``lucene/join/src/java/org/apache/lucene/search/join/
ToParentBlockJoinQuery.java``, tests ``TestBlockJoin.java``).

Documents are indexed in BLOCKS: each parent's children come first,
the parent doc LAST (the reference's addDocuments block contract).
A child-space query joins up to parents: each matching child belongs
to the nearest parent with a higher docID; child scores combine per
ScoreMode (none/total/max/avg — ``join/ScoreMode.java``).

The parent bitset (BitSetProducer role) comes from the stored
``is_parent`` doc-values column.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .query import NumericRangeQuery, Query
from .searcher import Searcher, TopDocs, _check_k, _top_k


def block_join_parents(searcher: Searcher, child_query: Query,
                       score_mode: str = "total",
                       parent_col: str = "is_parent") -> tuple:
    """(parent docIDs sorted, combined scores float32) for parents with
    >= 1 matching child. score_mode: 'none' | 'total' | 'max' | 'avg'."""
    assert score_mode in ("none", "total", "max", "avg")
    w = searcher.weight(child_query)
    # join GLOBALLY (docIDs are global, segments doc-ordered): a block
    # may straddle a segment boundary, so the nearest-parent-above
    # lookup runs over the concatenated parent set
    p_parts, c_parts, s_parts = [], [], []
    for sr in searcher.reader.segments():
        parents = sr.numeric_range_docs(parent_col, 1, 1)
        if len(parents):
            p_parts.append(parents)
        cdocs, cscores = w.scores(sr)
        if cdocs is not None and len(cdocs):
            c_parts.append(cdocs)
            s_parts.append(cscores.astype(np.float64))
    if not p_parts or not c_parts:
        return np.empty(0, np.int64), np.empty(0, np.float32)
    # segments from streaming builds may interleave doc ranges; the
    # searchsorted below needs a globally sorted parent set
    parents = np.sort(np.concatenate(p_parts))
    cdocs = np.concatenate(c_parts)
    cs = np.concatenate(s_parts)
    # a child's parent is the nearest parent docID ABOVE it
    pos = np.searchsorted(parents, cdocs, side="left")
    ok = pos < len(parents)
    # drop child hits that are actually parent docs themselves
    is_parent_hit = ok & (parents[np.minimum(pos, len(parents) - 1)]
                          == cdocs)
    keep = ok & ~is_parent_hit
    if not keep.any():
        return np.empty(0, np.int64), np.empty(0, np.float32)
    pid = parents[pos[keep]]
    cs = cs[keep]
    order = np.argsort(pid, kind="stable")
    pid, cs = pid[order], cs[order]
    uniq, starts = np.unique(pid, return_index=True)
    if score_mode == "none":
        sc = np.zeros(len(uniq))
    elif score_mode == "total":
        sc = np.add.reduceat(cs, starts)
    elif score_mode == "max":
        sc = np.maximum.reduceat(cs, starts)
    else:  # avg
        counts = np.diff(np.append(starts, len(cs)))
        sc = np.add.reduceat(cs, starts) / counts
    return uniq, sc.astype(np.float32)


def block_join_topk(searcher: Searcher, child_query: Query, k: int = 10,
                    score_mode: str = "total") -> TopDocs:
    k = _check_k(k)
    docs, scores = block_join_parents(searcher, child_query, score_mode)
    return _top_k(docs, scores, k)


def block_join_children(searcher: Searcher, parent_query: Query,
                        parent_col: str = "is_parent",
                        inherit_scores: bool = True) -> tuple:
    """ToChildBlockJoinQuery (``join/ToChildBlockJoinQuery.java``; tests
    ``TestBlockJoin.java`` child-direction cases): a PARENT-space query
    joins DOWN to every child of each matching parent; children inherit
    the parent's score. Returns (child docIDs sorted, scores float32).

    Children of parent ``p`` are exactly the docIDs strictly between the
    previous parent and ``p`` (the children-first/parent-last block
    contract), so the join is two searchsorteds over the resident
    per-segment docID arrays — no postings re-read."""
    pdocs, pscores = searcher.eval_complete(parent_query)
    if len(pdocs) == 0:
        return np.empty(0, np.int64), np.empty(0, np.float32)
    p_parts, d_parts = [], []
    for sr in searcher.reader.segments():
        got = sr.numeric_range_docs(parent_col, 1, 1)
        if len(got):
            p_parts.append(got)
        d_parts.append(sr.live_doc_ids())
    if not p_parts:
        return np.empty(0, np.int64), np.empty(0, np.float32)
    parents_all = np.sort(np.concatenate(p_parts)).astype(np.int64)
    all_docs = np.sort(np.concatenate(d_parts)).astype(np.int64)
    # keep only hits that are actual parents
    ok = np.isin(pdocs, parents_all, assume_unique=True)
    pdocs, pscores = pdocs[ok], pscores[ok]
    if len(pdocs) == 0:
        return np.empty(0, np.int64), np.empty(0, np.float32)
    idx = np.searchsorted(parents_all, pdocs)
    prev = np.where(idx > 0, parents_all[np.maximum(idx - 1, 0)],
                    np.int64(-1))
    lo = np.searchsorted(all_docs, prev, side="right")
    hi = np.searchsorted(all_docs, pdocs, side="left")
    counts = hi - lo
    keep = counts > 0
    if not keep.any():
        return np.empty(0, np.int64), np.empty(0, np.float32)
    kids = np.concatenate([all_docs[l:h]
                           for l, h in zip(lo[keep], hi[keep])])
    sc = (np.repeat(pscores[keep], counts[keep]) if inherit_scores
          else np.zeros(len(kids)))
    order = np.argsort(kids, kind="stable")
    return kids[order], sc[order].astype(np.float32)


def build_block_index_stream(parents, children, out_dir, *,
                             parent_key: str, child_key: str,
                             parent_text_fn, child_text_fn,
                             stored_parent: tuple = (),
                             num_partitions: int = 32,
                             batch_size: int = 4096):
    """Distributed block assembly + index build — no driver
    materialization (r2 finding: the pa.Table API did ``to_pylist`` of
    both sides).

    ``parents`` / ``children``: parquet path(s) or ``ray.data.Dataset``.
    ``parent_text_fn`` / ``child_text_fn``: VECTORIZED
    ``pa.Table -> pa.Array`` of document text.

    docID scheme: one hash shuffle on ``block_key % P``; each partition
    sorts (block_key, is_parent) vectorized and assigns
    ``doc_id = part * (2**31 // P) + seq`` with children first and the
    parent LAST (the addDocuments contract,
    join/ToParentBlockJoinQuery.java). Every block's rows are contiguous
    in docID space (the whole block hashes to one partition and sorts
    adjacent), which is all nearest-parent-above needs — block keys need
    NOT be globally ordered, so no global row-number/prefix-sum pass.
    docIDs stay inside Lucene's int32 doc space; capacity is
    ``2**31`` docs per index (the reference's own per-index limit),
    ~``2**31 / P`` per hash partition.
    """
    import os

    import ray
    import ray.data

    from ..index import build_index

    def _ds(x, cols):
        return x if isinstance(x, ray.data.Dataset) else \
            ray.data.read_parquet(x, columns=cols)

    pds_raw = _ds(parents, None)
    stored_types = {c: pds_raw.schema().base_schema.field(c).type
                    for c in stored_parent}

    def _part_col(key: np.ndarray) -> pa.Array:
        h = (key.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> \
            np.uint64(33)
        return pa.array((h % np.uint64(num_partitions)).astype(np.int64),
                        pa.int64())

    def prep_parent(batch: pa.Table) -> pa.Table:
        key = batch[parent_key].cast(pa.int64())
        kn = key.to_numpy()
        return pa.table({
            "part": _part_col(kn),
            "block_key": key,
            "is_parent": pa.array(np.ones(len(batch), np.int64)),
            "text": parent_text_fn(batch),
            **{c: batch[c].cast(stored_types[c]) for c in stored_parent},
        })

    def prep_child(batch: pa.Table) -> pa.Table:
        key = batch[child_key].cast(pa.int64())
        kn = key.to_numpy()
        return pa.table({
            "part": _part_col(kn),
            "block_key": key,
            "is_parent": pa.array(np.zeros(len(batch), np.int64)),
            "text": child_text_fn(batch),
            **{c: pa.nulls(len(batch), stored_types[c])
               for c in stored_parent},
        })

    part_span = (1 << 31) // num_partitions

    def assign(g: pa.Table) -> pa.Table:
        part = int(g.column("part")[0].as_py())
        key = g.column("block_key").to_numpy()
        isp = g.column("is_parent").to_numpy()
        order = np.lexsort((isp, key))
        g = g.take(pa.array(order))
        n = len(key)
        if n > part_span:
            raise ValueError(
                f"partition {part} holds {n} docs > {part_span}; raise "
                "num_partitions (int32 docID space is 2**31 per index)")
        doc_id = np.int64(part) * part_span + np.arange(n, dtype=np.int64)
        return g.drop_columns(["part"]).append_column(
            "doc_id", pa.array(doc_id, pa.int64()))

    both = (pds_raw.map_batches(prep_parent, batch_format="pyarrow")
            .union(_ds(children, None)
                   .map_batches(prep_child, batch_format="pyarrow")))
    assembled = both.groupby("part").map_groups(
        assign, batch_format="pyarrow")
    os.makedirs(out_dir, exist_ok=True)
    return build_index(
        assembled, os.path.join(out_dir, "idx"), batch_size=batch_size,
        stored_cols=("block_key", *stored_parent),
        doc_value_cols=("is_parent",))


def build_block_index(parent_table: pa.Table, child_table: pa.Table,
                      out_dir: str, *, parent_key: str, child_key: str,
                      parent_text, child_text, stored_parent=(),
                      batch_size: int = 4096):
    """Index parents + children as contiguous blocks (children first,
    parent LAST — the addDocuments contract). ``parent_text`` /
    ``child_text`` map a row dict -> text. Returns the manifest.

    Block assembly is a deterministic sort over (key, is_parent):
    docIDs are assigned in that order, so child docIDs < their
    parent's."""
    import pyarrow.parquet as pq

    from ..index import build_index

    p = parent_table.to_pylist()
    c = child_table.to_pylist()
    rows = []
    for r in c:
        rows.append((r[child_key], 0, child_text(r), r))
    for r in p:
        rows.append((r[parent_key], 1, parent_text(r), r))
    rows.sort(key=lambda x: (x[0], x[1]))
    t = pa.table({
        "doc_id": pa.array(np.arange(len(rows), dtype=np.int64)),
        "text": pa.array([x[2] for x in rows], pa.string()),
        "is_parent": pa.array([x[1] for x in rows], pa.int64()),
        "block_key": pa.array([int(x[0]) for x in rows], pa.int64()),
        **{col: pa.array([x[3].get(col) if x[1] else None for x in rows])
           for col in stored_parent},
    })
    import os
    os.makedirs(out_dir, exist_ok=True)
    src = os.path.join(out_dir, "block_docs.parquet")
    pq.write_table(t, src)
    return build_index(
        src, os.path.join(out_dir, "idx"), batch_size=batch_size,
        stored_cols=("block_key", *stored_parent),
        doc_value_cols=("is_parent",))


def join_util_query(from_searcher: Searcher, from_query: Query,
                    from_col: str, to_searcher: Searcher, to_col: str,
                    score_mode: str = "max") -> tuple:
    """Query-time term join — JoinUtil.createJoinQuery
    (``lucene/join/src/java/org/apache/lucene/search/join/
    JoinUtil.java:71``; tests ``TestJoinUtil.java``).

    Phase 1 (TermsWithScoreCollector): run ``from_query`` on the from
    side, collect the distinct ``from_col`` values of the matching
    docs with a per-value score aggregate by ``score_mode``
    ('none' -> 1, 'max', 'total', 'avg').

    Phase 2 (TermsIncludingScoreQuery): match every to-side doc whose
    ``to_col`` equals a collected value; its score is that value's
    aggregate. Returns (to docIDs sorted asc, scores float64 aligned).

    The join-value exchange is tiny (distinct keys only), so the
    to-side match is a predicate-pushdown read of (doc_id, to_col) —
    the postings of the joined TermInSetQuery, never full rows.
    """
    assert score_mode in ("none", "total", "max", "avg", "min")
    import pyarrow.parquet as pq

    docs, scores = from_searcher.eval_complete(from_query)
    # per-value aggregate over the from side (TermsWithScoreCollector)
    val_score: dict[str, list[float]] = {}
    for sr in from_searcher.reader.segments():
        lo, hi = sr.doc_ids[0], sr.doc_ids[-1]
        m = (docs >= lo) & (docs <= hi)
        if not m.any():
            continue
        for v, s in zip(sr.stored(docs[m], from_col), scores[m]):
            if v is not None:
                val_score.setdefault(str(v), []).append(float(s))
    if not val_score:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    agg = {}
    for v, ss in val_score.items():
        if score_mode == "none":
            agg[v] = 1.0
        elif score_mode == "max":
            agg[v] = max(ss)
        elif score_mode == "min":
            agg[v] = min(ss)
        elif score_mode == "total":
            agg[v] = float(np.sum(np.asarray(ss, dtype=np.float64)))
        else:
            a = np.asarray(ss, dtype=np.float64)
            agg[v] = float(a.sum() / len(a))
    vals = sorted(agg)
    out_d, out_s = [], []
    for sr in to_searcher.reader.segments():
        t = pq.read_table(sr._docs_path, columns=["doc_id", to_col],
                          filters=[(to_col, "in", vals)])
        d = t.column("doc_id").to_numpy()
        lm = sr.live_mask(d)
        keep = np.ones(len(d), bool) if lm is None else lm
        vv = t.column(to_col).to_pylist()
        out_d.append(d[keep])
        out_s.append(np.array([agg[str(v)] for v, k in zip(vv, keep) if k],
                              dtype=np.float64))
    docs_to = np.concatenate(out_d) if out_d else np.empty(0, np.int64)
    scores_to = np.concatenate(out_s) if out_s else np.empty(0, np.float64)
    order = np.argsort(docs_to, kind="stable")
    return docs_to[order].astype(np.int64), scores_to[order]
