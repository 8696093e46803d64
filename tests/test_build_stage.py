"""build_index's task-compute stage writes the same segments as calling
SegmentIndexer directly, one batch at a time, in doc order; the
resumable and multi-field builds commit the same generation."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index import (
    SegmentIndexer,
    build_index,
    latest_generation,
    read_manifest,
)
from lucene_ray.index.manifest import POSTINGS_BUCKETS, part_path
from lucene_ray.index.multi_field import build_multi_field_index
from lucene_ray.index.resumable import build_index_resumable
from lucene_ray.search import IndexReader, Searcher, TermQuery
from lucene_ray.sources import write_pages

BATCH = 300


@pytest.fixture(scope="module")
def pages(tmp_path_factory):
    d = tmp_path_factory.mktemp("build_stage_pages")
    return write_pages(str(d), 1200, seed=5, n_terms=1500)


def _files(index_dir, seg_id):
    return os.path.join(index_dir, "segments", seg_id)


@pytest.mark.parametrize("positions", [False, True])
def test_build_matches_direct_segment_indexer(ray_session, pages, tmp_path,
                                              positions):
    ref = str(tmp_path / "ref")
    si = SegmentIndexer(out_dir=ref, text_col="text", id_col="doc_id",
                        stored_cols=(), stop_words=frozenset(),
                        index_positions=positions)
    table = pq.read_table(pages[0], columns=["doc_id", "text"])
    ref_ids = [si(table.slice(i, BATCH)).column("seg_id")[0].as_py()
               for i in range(0, len(table), BATCH)]
    assert len(ref_ids) == 4
    for conc in (None, 2):
        out = str(tmp_path / f"built_{conc}")
        m = build_index(pages, out, batch_size=BATCH, concurrency=conc,
                        index_positions=positions)
        assert [s.seg_id for s in m.segments] == ref_ids
        for sid in ref_ids:
            parts = [part_path("postings.parquet", b)
                     for b in range(POSTINGS_BUCKETS)]
            for name in ("docs.parquet", *parts):
                got = pq.read_table(os.path.join(_files(out, sid), name))
                want = pq.read_table(os.path.join(_files(ref, sid), name))
                assert got.equals(want), (conc, sid, name)
            if positions:
                assert pq.read_table(os.path.join(
                    _files(out, sid), "postings.parquet"),
                    columns=["positions"]).column(0)[0].as_py()


def _committed(index_dir):
    """What a generation-0 commit holds, apart from segment names:
    totals, per-segment counts, the global term stats table, and the
    top-10 ids and float32 score bits of the 20 highest-df terms."""
    m = read_manifest(index_dir)
    assert m.generation == 0
    stats = os.path.join(index_dir, "global", "term_stats_gen0")
    table = pa.concat_tables(
        pq.read_table(os.path.join(stats, f))
        for f in sorted(os.listdir(stats)) if f.endswith(".parquet"))
    table = table.sort_by("term")
    df = table.column("df").to_numpy()
    terms = table.column("term").to_numpy(zero_copy_only=False)
    s = Searcher(IndexReader(index_dir))
    top = [s.search(TermQuery(t), 10) for t in terms[np.argsort(
        -df, kind="stable")[:20]]]
    return ((m.num_docs, m.sum_doc_len, m.field_doc_count),
            [(g.num_docs, g.min_doc, g.max_doc, g.sum_doc_len, g.num_terms,
              g.field_doc_count) for g in m.segments],
            table,
            [(td.doc_ids.tolist(),
              td.scores.astype(np.float32).view(np.uint32).tolist())
             for td in top])


def test_every_builder_commits_the_same_generation(ray_session, pages,
                                                   tmp_path):
    """Over one corpus, build_index, the resumable build (straight
    through, and resumed after an interrupted run) and the multi-field
    build (per field) commit equal totals, segment counts, global term
    stats and results."""
    mf = str(tmp_path / "mf")
    build_multi_field_index(pages, mf, {"text": None, "url": None},
                            batch_size=BATCH)
    res = str(tmp_path / "res")
    build_index_resumable(pages, res, rows_per_shard=BATCH)
    resumed = str(tmp_path / "resumed")
    build_index_resumable(pages, resumed, rows_per_shard=BATCH,
                          fail_after_shards=2)
    assert latest_generation(resumed) == -1
    build_index_resumable(pages, resumed, rows_per_shard=BATCH)
    for field, others in (("text", [os.path.join(mf, "fields", "text"),
                                    res, resumed]),
                          ("url", [os.path.join(mf, "fields", "url")])):
        ref = str(tmp_path / f"ref_{field}")
        build_index(pages, ref, text_col=field, batch_size=BATCH)
        totals, segs, table, top = _committed(ref)
        assert len(segs) == 4
        for d in others:
            got = _committed(d)
            assert got[:2] == (totals, segs), d
            assert got[2].equals(table), d
            assert got[3] == top, d


def test_empty_build_commits(ray_session, tmp_path):
    """A corpus with no rows commits a generation with no segments and
    empty term stats; it validates and answers every query with no hits."""
    from lucene_ray.index.validate import validate_index
    src = str(tmp_path / "empty.parquet")
    pq.write_table(pa.table({"doc_id": pa.array([], pa.int64()),
                             "text": pa.array([], pa.string())}), src)
    idx = str(tmp_path / "idx")
    m = build_index(src, idx)
    assert m.segments == [] and m.num_docs == 0
    assert validate_index(idx) == []
    td = Searcher(IndexReader(idx)).search(TermQuery("data"), k=10)
    assert len(td.doc_ids) == 0
