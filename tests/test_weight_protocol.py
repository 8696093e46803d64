"""One weight per query node: every entry point of ``Searcher`` agrees.

For a fixed query tree per weight class, each also nested once in a
boolean MUST, a constant-score and a dismax, under both similarities:
``count``, ``match_docs``, ``eval_complete``, ``search`` and
``explain`` must tell the same story. ``search`` is compared with the
exhaustive top-k the way the benchmark's oracle compares it: ids
exact, float32 scores exact.
"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.search import (
    BooleanQuery,
    ConstantScoreQuery,
    CoveringQuery,
    DisjunctionMaxQuery,
    DocValuesTermsQuery,
    FunctionScoreQuery,
    IndexReader,
    MatchAllDocsQuery,
    MultiPhraseQuery,
    PhraseQuery,
    Searcher,
    SpanNearQuery,
    TermQuery,
)
from lucene_ray.search.query import NumericRangeQuery

K = 10

BASE = {
    "term": TermQuery("alpha"),
    "term_bool": BooleanQuery(
        must=(TermQuery("w1"),),
        should=(TermQuery("alpha"), TermQuery("beta")),
        must_not=(TermQuery("w2"),)),
    "nested_bool": BooleanQuery(
        must=(BooleanQuery(should=(TermQuery("alpha"),
                                   TermQuery("gamma"))),),
        should=(PhraseQuery(("w1", "w2")),),
        must_not=(TermQuery("w3"),)),
    "const": ConstantScoreQuery(TermQuery("beta"), 2.5),
    "match_all": MatchAllDocsQuery(0.5),
    "numeric_range": NumericRangeQuery("n", 20, 60),
    "dv_terms": DocValuesTermsQuery("n", (7, 11, 23, 42)),
    "dismax": DisjunctionMaxQuery(
        (TermQuery("alpha"), TermQuery("gamma"), TermQuery("w4")), 0.3),
    "covering": CoveringQuery(
        (TermQuery("alpha"), TermQuery("beta"), TermQuery("gamma")),
        "1 + n % 2"),
    "phrase": PhraseQuery(("w1", "w2")),
    "sloppy_phrase": PhraseQuery(("w1", "w3"), slop=2),
    "span": SpanNearQuery(("w2", "w1"), slop=1, in_order=True),
    "multi_phrase": MultiPhraseQuery((("w1",), ("w2", "w3"))),
    "function_score": FunctionScoreQuery(TermQuery("alpha"), "_score * 2"),
    "function_score_dv": FunctionScoreQuery(
        BooleanQuery(should=(TermQuery("beta"), TermQuery("gamma"))),
        "_score + ln(1 + n)"),
}

NESTINGS = {
    "plain": lambda q: q,
    "in_must": lambda q: BooleanQuery(must=(q,)),
    "in_const": lambda q: ConstantScoreQuery(q),
    "in_dismax": lambda q: DisjunctionMaxQuery((q,)),
}


@pytest.fixture(scope="module")
def index_dir(ray_session, tmp_path_factory):
    from lucene_ray.index import build_index
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(12)] + ["alpha", "beta", "gamma"]
    p = np.array([8.0] * 12 + [1.0, 1.0, 1.0])
    texts = [" ".join(rng.choice(vocab, int(rng.integers(4, 30)),
                                 p=p / p.sum()))
             for _ in range(300)]
    t = pa.table({
        "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
        "text": pa.array(texts, pa.string()),
        "n": pa.array(rng.integers(0, 100, len(texts)).astype(np.int64)),
    })
    d = tmp_path_factory.mktemp("weights")
    path = str(d / "documents.parquet")
    pq.write_table(t, path)
    out = str(d / "idx")
    build_index(path, out, batch_size=100, index_positions=True,
                doc_value_cols=("n",))
    assert len(IndexReader(out).segment_infos) >= 2
    return out


@pytest.fixture(scope="module", params=["lucene", "bm25_exact64"])
def searcher(request, index_dir):
    return Searcher(IndexReader(index_dir), similarity=request.param)


def _oracle_topk(docs, scores, k):
    s32 = np.asarray(scores).astype(np.float32)
    order = np.lexsort((docs, -s32.astype(np.float64)))[:k]
    return np.asarray(docs)[order].astype(np.int64), s32[order]


@pytest.mark.parametrize("nest", list(NESTINGS))
@pytest.mark.parametrize("name", list(BASE))
def test_entry_points_agree(searcher, name, nest):
    q = NESTINGS[nest](BASE[name])
    docs, scores = searcher.eval_complete(q)
    matched = searcher.match_docs(q)
    assert len(docs) > 0, "fixture query should match something"
    assert searcher.count(q) == len(matched) == len(docs)
    np.testing.assert_array_equal(matched, docs)
    td = searcher.search(q, K)
    want_d, want_s = _oracle_topk(docs, scores, K)
    np.testing.assert_array_equal(np.asarray(td.doc_ids, np.int64), want_d)
    np.testing.assert_array_equal(
        np.asarray(td.scores).astype(np.float32), want_s)
    hit = searcher.explain(q, int(docs[0]))
    assert set(hit) >= {"value", "description", "details"}
    miss = int(np.setdiff1d(np.arange(300), docs)[0]) \
        if len(docs) < 300 else None
    if miss is not None:
        assert searcher.explain(q, miss)["value"] == 0.0


def test_function_score_ranks_by_expression(searcher):
    """The function-score weight rescores its inner query per segment
    over the stored doc-value column (the complete inner scores, then
    the expression, then top-k)."""
    q = BASE["function_score_dv"]
    d, s = searcher.eval_complete(q.inner)
    dt = np.float64 if searcher.exact64 else np.float32
    want = (s + np.log(1 + searcher.doc_values(d, "n"))).astype(dt)
    got_d, got_s = searcher.eval_complete(q)
    np.testing.assert_array_equal(got_d, d)
    np.testing.assert_array_equal(got_s, want.astype(np.float64))
