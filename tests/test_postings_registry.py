"""Pluggable postings-encoder registry (PerFieldPostingsFormat /
PostingsFormat SPI analog, codecs/perfield/PerFieldPostingsFormat.java:
65,228): self-describing block tags, per-field selection, end-to-end
query equality, custom registration."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.codecs.postings import pack_postings_many, unpack_postings_many
from lucene_ray.codecs.registry import register_postings_format


def _rand_posting(seed, fmt):
    """(docs, freqs, their one-term postings row)."""
    rng = np.random.default_rng(seed)
    docs = np.unique(rng.integers(0, 500_000, 700)).astype(np.int64)
    freqs = rng.integers(1, 300, len(docs)).astype(np.int64)
    return docs, freqs, pack_postings_many(docs, freqs, [0, len(docs)],
                                           postings_format=fmt)


@pytest.mark.parametrize("fmt", ["for128", "vint", "pfor"])
def test_roundtrip(fmt):
    docs, freqs, p = _rand_posting(1, fmt)
    d, f = unpack_postings_many(p)[0]
    assert (d == docs).all() and (f == freqs).all()


def test_pfor_exceptions_roundtrip_and_size():
    """PForUtil role (codecs/lucene90/PForUtil.java:29): up to 7
    outliers stored patched; an outlier-heavy block packs near the
    small values' width instead of the max's."""
    import numpy as np
    from lucene_ray.codecs.registry import _pfor_decode, _pfor_encode
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 129))
        v = rng.integers(0, 60, n).astype(np.uint32)
        k = int(rng.integers(0, min(9, n)))
        if k:
            v[rng.choice(n, k, replace=False)] = rng.integers(0, 2**31, k)
        np.testing.assert_array_equal(_pfor_decode(_pfor_encode(v), n), v)
    v = rng.integers(0, 30, 128).astype(np.uint32)
    v[5] = 2**30
    plain_for = 1 + (128 * 31 + 7) // 8
    assert len(_pfor_encode(v)) < plain_for / 3


def test_custom_format_registration():
    def enc(vals):
        return vals.astype("<u4").tobytes()

    def dec(payload, n):
        return np.frombuffer(payload, dtype="<u4").astype(np.uint32)[:n]

    register_postings_format("raw32", 66, enc, dec)
    docs, freqs, p = _rand_posting(4, "raw32")
    d, f = unpack_postings_many(p)[0]
    assert (d == docs).all() and (f == freqs).all()
    with pytest.raises(ValueError):
        register_postings_format("other", 66, enc, dec)  # tag taken
    with pytest.raises(ValueError):
        register_postings_format("bad", 12, enc, dec)  # reserved range


def test_end_to_end_vint_index_equals_for128(ray_session,
                                             tmp_path_factory):
    """Whole index built with the vint format answers identically."""
    from lucene_ray.index import build_index
    from lucene_ray.search import BooleanQuery, IndexReader, Searcher, \
        TermQuery
    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(50)]
    texts = [" ".join(rng.choice(vocab, 12)) for _ in range(3000)]
    t = pa.table({"doc_id": pa.array(np.arange(3000, dtype=np.int64)),
                  "text": pa.array(texts, pa.string())})
    d = tmp_path_factory.mktemp("pfmt")
    pq.write_table(t, str(d / "docs.parquet"))
    build_index(str(d / "docs.parquet"), str(d / "idx_for"),
                batch_size=512)
    build_index(str(d / "docs.parquet"), str(d / "idx_vint"),
                batch_size=512, postings_format="vint")
    build_index(str(d / "docs.parquet"), str(d / "idx_pfor"),
                batch_size=512, postings_format="pfor")
    s1 = Searcher(IndexReader(str(d / "idx_for")))
    s2 = Searcher(IndexReader(str(d / "idx_vint")))
    s3 = Searcher(IndexReader(str(d / "idx_pfor")))
    for q in (TermQuery("w1"),
              BooleanQuery(must=(TermQuery("w2"), TermQuery("w3"))),
              BooleanQuery(should=(TermQuery("w4"), TermQuery("w5")))):
        td1, td2 = s1.search(q, 20), s2.search(q, 20)
        td3 = s3.search(q, 20)
        assert td1.doc_ids.tolist() == td2.doc_ids.tolist()
        assert td1.doc_ids.tolist() == td3.doc_ids.tolist()
        assert np.allclose(td1.scores, td2.scores)
        assert np.allclose(td1.scores, td3.scores)


def test_per_field_formats(ray_session, tmp_path_factory):
    """PerFieldPostingsFormat: different fields of one corpus indexed
    with different block codecs, queried through the same reader."""
    from lucene_ray.index.multi_field import build_multi_field_index
    from lucene_ray.search import IndexReader, Searcher, TermQuery
    t = pa.table({
        "doc_id": pa.array(np.arange(200, dtype=np.int64)),
        "title": pa.array([f"title{i % 7} common" for i in range(200)]),
        "body": pa.array([f"body{i % 11} shared" for i in range(200)]),
    })
    d = tmp_path_factory.mktemp("pff")
    pq.write_table(t, str(d / "docs.parquet"))
    build_multi_field_index(
        str(d / "docs.parquet"), str(d / "idx"),
        {"title": None, "body": None},
        fields_formats={"body": "vint"}, batch_size=64)
    st = Searcher(IndexReader(str(d / "idx/fields/title")))
    sb = Searcher(IndexReader(str(d / "idx/fields/body")))
    assert st.match_docs(TermQuery("title3")).tolist() == \
        [i for i in range(200) if i % 7 == 3]
    assert sb.match_docs(TermQuery("body4")).tolist() == \
        [i for i in range(200) if i % 11 == 4]
