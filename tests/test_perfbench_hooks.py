"""The benchmark under ``perfbench/`` records its layer spans by
replacing named functions of ``lucene_ray`` (``perfbench/tracing.py``).
A renamed or re-signed target makes its span read zero, or fails the
benchmark only after minutes of ingest; these checks run the same hooks
in seconds. The query-side trace runs on a local ``Searcher`` over a
small index; the worker-side hooks are installed in this process
(undone after the test), and one segment is built and one search run
through them, with no Ray worker involved."""

import inspect
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from perfbench import tracing
from perfbench.bench import make_queries, oracle_topk, rank_terms, same_topk


@pytest.fixture(scope="module")
def traced_index(ray_session, small_pages, tmp_path_factory):
    from lucene_ray.index import build_index
    _, paths = small_pages
    out = str(tmp_path_factory.mktemp("traced") / "idx")
    build_index(paths, out, batch_size=500)
    return out, rank_terms(paths)


def _query_targets():
    """(owner, name) -> the function ``ProcessTrace.install`` replaces."""
    from lucene_ray.codecs import postings as codecs_postings
    from lucene_ray.search import reader as reader_mod
    from lucene_ray.search import searcher as searcher_mod
    return {(o, n): getattr(o, n) for o, n in (
        (searcher_mod.Searcher, "search"),
        (reader_mod.IndexReader, "term_stats"),
        (reader_mod.SegmentReader, "ensure_terms"),
        (codecs_postings, "_unpack_values"))}


def test_process_trace_records_query_layers(traced_index):
    """A term, an AND and an OR query under ``ProcessTrace``: the reader
    and decode spans and counters are recorded, results equal the
    exhaustive scorer's, and ``uninstall`` restores every original."""
    from lucene_ray.search import IndexReader, Searcher, TermQuery
    from lucene_ray.search import and_query, or_query
    out, ranked = traced_index
    targets = _query_targets()
    pool = ranked[:300]
    queries = [TermQuery(pool[3]), and_query(pool[:2]),
               or_query(pool[5:8])]
    queries += make_queries(pool, 6, np.random.default_rng(7))
    tr = tracing.ProcessTrace()
    tr.install()
    try:
        assert all(getattr(o, n) is not f for (o, n), f in targets.items())
        s = Searcher(IndexReader(out))
        got = []
        for q in queries:
            td = s.search(q, 10)
            tr.end_query()
            got.append((td.doc_ids, td.scores))
    finally:
        tr.uninstall()
    assert all(getattr(o, n) is f for (o, n), f in targets.items())
    names = {n for n, _, _ in tr.spans}
    assert {"search.search", "reader.term_stats", "reader.ensure_terms",
            "codecs.decode"} <= names
    assert sum(n == "search.search" for n, _, _ in tr.spans) == len(queries)
    c = tr.counts
    assert c["reader.pairs_missed"] > 0 and c["reader.rows_useful"] > 0
    assert c["codecs.blocks_decoded"] > 0
    assert 0 < c["codecs.blocks_touched"] <= c["codecs.blocks_available"]
    plain = Searcher(IndexReader(out))
    for q, g in zip(queries, got):
        assert same_topk(g, oracle_topk(plain, q, 10)), q


def test_worker_hooks_find_their_targets(traced_index, monkeypatch,
                                         tmp_path):
    """``install_worker`` patches every target it names (each lookup
    would raise on a missing one), and a segment built and a search run
    through the patched code emit their records."""
    from lucene_ray.codecs import postings as codecs_postings
    from lucene_ray.index import builder
    from lucene_ray.search import IndexReader, Searcher, TermQuery
    from lucene_ray.search import searcher as searcher_mod
    params = inspect.signature(searcher_mod.Searcher.search).parameters
    assert {"threshold_cb", "publish_cb"} <= set(params)
    patched = set()

    def undoable_patch(owner, name, make):
        monkeypatch.setattr(owner, name, make(getattr(owner, name)))
        patched.add((owner, name))
        return lambda: None
    monkeypatch.setattr(tracing, "_patch", undoable_patch)
    monkeypatch.setattr(builder, "pq", builder.pq)  # swapped for a proxy
    monkeypatch.setenv(tracing.TRACE_DIR_ENV, str(tmp_path))
    tracing.install_worker()
    assert patched == {
        (builder, "_tokenize_batch_arrow"), (builder, "pack_postings_many"),
        (codecs_postings, "_pack_block"), (builder.SegmentIndexer, "__call__"),
        (searcher_mod.Searcher, "search")}
    assert isinstance(builder.pq, tracing._ParquetProxy)

    out, ranked = traced_index
    batch = pq.read_table(os.path.join(out, "segments", IndexReader(
        out).segment_infos[0].seg_id, "docs.parquet"), columns=["doc_id"])
    texts = [" ".join(ranked[i % 50:i % 50 + 6]) for i in range(len(batch))]
    batch = batch.append_column("text", pa.array(texts, pa.string()))
    seg_dir = str(tmp_path / "seg")
    builder.SegmentIndexer(seg_dir, "text", "doc_id", (), frozenset())(batch)
    Searcher(IndexReader(out)).search(TermQuery(ranked[0]), 10)
    records = tracing.read_worker_records(str(tmp_path))
    kinds = [r["kind"] for r in records]
    assert kinds == ["segment", "worker_search"]
    seg = records[0]
    assert seg["n_docs"] == len(batch)
    assert seg["tokenize_s"] > 0 and seg["pack_s"] > 0 and seg["write_s"] > 0
