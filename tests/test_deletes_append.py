"""Incremental append, deletes (tombstones), update-by-key, and
tombstone-reclaiming merges (VERDICT r1 item 3; reference
``index/IndexWriter.java:1468,4020`` addDocuments+commit,
``IndexWriter.java:1828`` updateDocument,
``Lucene90LiveDocsFormat.java``, ``TestAddIndexes.java``,
``TestPerSegmentDeletes.java``)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index import build_index
from lucene_ray.index.deletes import (
    delete_by_key,
    delete_by_query,
    update_by_key,
)
from lucene_ray.index.manifest import read_manifest
from lucene_ray.index.merge import merge_segments
from lucene_ray.search import (
    IndexReader,
    MatchAllDocsQuery,
    Searcher,
    TermQuery,
)


def _write_corpus(d, texts, start=0, urls=None):
    n = len(texts)
    cols = {"doc_id": pa.array(np.arange(start, start + n, dtype=np.int64)),
            "text": pa.array(texts, pa.string())}
    if urls is not None:
        cols["url"] = pa.array(urls, pa.string())
    path = str(d / f"docs_{start}.parquet")
    pq.write_table(pa.table(cols), path)
    return path


@pytest.fixture()
def base_index(ray_session, tmp_path):
    texts = [f"alpha common w{i % 7}" for i in range(300)]
    urls = [f"http://site/{i}" for i in range(300)]
    p = _write_corpus(tmp_path, texts, 0, urls)
    out = str(tmp_path / "idx")
    build_index(p, out, batch_size=100, stored_cols=("url",))
    return out, tmp_path


def test_append_keeps_old_segments(base_index):
    out, d = base_index
    m0 = read_manifest(out)
    texts2 = [f"beta common w{i % 5}" for i in range(200)]
    urls2 = [f"http://site/{300 + i}" for i in range(200)]
    p2 = _write_corpus(d, texts2, 300, urls2)
    m1 = build_index(p2, out, batch_size=100, stored_cols=("url",))
    assert m1.generation == m0.generation + 1
    assert m1.num_docs == 500
    assert len(m1.segments) == len(m0.segments) + 2
    s = Searcher(IndexReader(out))
    assert s.count(TermQuery("alpha")) == 300
    assert s.count(TermQuery("beta")) == 200
    assert s.count(TermQuery("common")) == 500


def test_append_overlap_rejected(base_index):
    out, d = base_index
    p2 = _write_corpus(d, ["dup text"] * 10, 100,  # doc_ids 100..109 exist
                       [f"u{i}" for i in range(10)])
    with pytest.raises(ValueError, match="overlap"):
        build_index(p2, out, batch_size=100, stored_cols=("url",),
                    allow_doc_overlap=False)


def test_create_mode_replaces(base_index):
    out, d = base_index
    p2 = _write_corpus(d, ["gamma only"] * 50, 1000)
    m = build_index(p2, out, batch_size=100, mode="create")
    assert m.num_docs == 50
    s = Searcher(IndexReader(out))
    assert s.count(TermQuery("alpha")) == 0
    assert s.count(TermQuery("gamma")) == 50


def test_delete_by_query_masks_everywhere(base_index):
    out, _ = base_index
    n = delete_by_query(out, TermQuery("w0"))
    assert n > 0
    s = Searcher(IndexReader(out))
    assert s.count(TermQuery("w0")) == 0
    assert s.count(TermQuery("alpha")) == 300 - n
    assert s.count(MatchAllDocsQuery()) == 300 - n
    td = s.search(TermQuery("alpha"), k=300)
    assert len(td.doc_ids) == 300 - n
    # deleting again is a no-op
    assert delete_by_query(out, TermQuery("w0")) == 0


def test_delete_by_key_and_update(base_index):
    out, d = base_index
    n = delete_by_key(out, "url", ["http://site/5", "http://site/17"])
    assert n == 2
    s = Searcher(IndexReader(out))
    docs = s.match_docs(TermQuery("alpha"))
    assert 5 not in docs and 17 not in docs
    # update: re-add url 5 with new text, plus a brand-new doc
    p2 = _write_corpus(d, ["updated text five", "brand new doc"],
                       1000, ["http://site/5", "http://site/999"])
    update_by_key(out, p2, "url", batch_size=100)
    s = Searcher(IndexReader(out))
    assert s.count(TermQuery("updated")) == 1
    assert s.count(TermQuery("brand")) == 1
    # old url=5 doc stays dead; the replacement lives at doc_id 1000
    docs = s.match_docs(TermQuery("updated"))
    assert docs.tolist() == [1000]


def test_merge_reclaims_tombstones(base_index):
    out, _ = base_index
    n = delete_by_query(out, TermQuery("w1"))
    assert n > 0
    m0 = read_manifest(out)
    assert m0.num_deleted == n
    s_before = Searcher(IndexReader(out))
    before_alpha = s_before.search(TermQuery("alpha"), k=300)
    m1 = merge_segments(out, segs_per_tier=10)
    assert m1.num_deleted == 0  # tombstones reclaimed
    assert m1.num_docs == 300 - n
    reader = IndexReader(out)
    s = Searcher(reader)
    assert s.count(TermQuery("w1")) == 0
    assert s.count(TermQuery("alpha")) == 300 - n
    after_alpha = s.search(TermQuery("alpha"), k=300)
    assert before_alpha.doc_ids.tolist() == after_alpha.doc_ids.tolist()
    # postings physically dropped: no segment posting contains a deleted doc
    for sr in reader.segments():
        assert sr.deleted is None
        p = sr.get_postings("w1")
        assert p is None or p.doc_count == 0


def test_pruned_paths_identical_with_tombstones(base_index):
    """Single-term block-max pruning and the exhaustive OR with
    tombstones: thresholds must never rise from deleted docs, and
    ``search`` top-k stays bit-identical to the complete evaluation."""
    import numpy as np

    from lucene_ray.search import or_query
    from lucene_ray.search.searcher import _top_k

    out, _ = base_index
    delete_by_query(out, TermQuery("w2"))
    s = Searcher(IndexReader(out))
    for q in [TermQuery("alpha"), or_query(["alpha", "common", "w0"]),
              or_query(["w3", "w4", "alpha"])]:
        td = s.search(q, k=15)
        d, sc = s.eval_complete(q)
        ref = _top_k(d, sc.astype(np.float32), 15)
        assert td.doc_ids.tolist() == ref.doc_ids.tolist(), q
        assert td.scores.tolist() == ref.scores.tolist(), q


def test_soft_deletes_wrapper_hides_plain_reader_sees(ray_session,
                                                      tmp_path_factory):
    """SoftDeletesDirectoryReaderWrapper role: soft-deleted docs stay
    visible to a plain reader, hidden by the wrapped one, and
    undelete restores them (retention)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    from lucene_ray.index import build_index
    from lucene_ray.index.deletes import (open_soft_reader,
                                          soft_delete_by_key,
                                          soft_undelete_all)
    from lucene_ray.search import IndexReader, Searcher, TermQuery
    n = 200
    texts = [f"data w{i % 7}" for i in range(n)]
    keys = [f"k{i}" for i in range(n)]
    t = pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                  "text": pa.array(texts, pa.string()),
                  "key": pa.array(keys, pa.string())})
    d = tmp_path_factory.mktemp("softdel")
    p = str(d / "docs.parquet")
    pq.write_table(t, p)
    out = str(d / "idx")
    build_index(p, out, batch_size=64, stored_cols=("key",))
    marked = soft_delete_by_key(out, "key", [f"k{i}" for i in range(50)])
    assert marked == 50
    plain = Searcher(IndexReader(out))
    soft = Searcher(open_soft_reader(out))
    assert plain.count(TermQuery("data")) == n
    assert soft.count(TermQuery("data")) == n - 50
    got = soft.match_docs(TermQuery("data"))
    assert got.min() == 50
    # idempotent union + additional marks
    soft_delete_by_key(out, "key", ["k10", "k60"])
    soft2 = Searcher(open_soft_reader(out))
    assert soft2.count(TermQuery("data")) == n - 51
    # retention: undelete restores everything
    assert soft_undelete_all(out) == 51
    soft3 = Searcher(open_soft_reader(out))
    assert soft3.count(TermQuery("data")) == n
