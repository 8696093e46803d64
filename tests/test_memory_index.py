"""MemoryIndex (memory module): score-equivalence vs a real one-doc
index searched with the exact64 searcher."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index import build_index
from lucene_ray.search import (
    BooleanQuery, BoostQuery, ConstantScoreQuery, DisjunctionMaxQuery,
    DocValuesTermsQuery, FuzzyQuery, IndexReader, MatchAllDocsQuery,
    MultiPhraseQuery, PhraseQuery, PrefixQuery, Query, Searcher,
    SpanNearQuery, TermInSetQuery, TermQuery,
)
from lucene_ray.search.memory import MemoryIndex

TEXT = ("data merge window data spark shard data merge "
        "block window merge data")

QUERIES = [
    TermQuery("data"),
    TermQuery("absent"),
    BooleanQuery(must=(TermQuery("data"), TermQuery("spark"))),
    BooleanQuery(should=(TermQuery("merge"), TermQuery("nosuch"),
                         TermQuery("block"))),
    BooleanQuery(must=(TermQuery("data"),),
                 must_not=(TermQuery("spark"),)),
    BooleanQuery(should=(TermQuery("data"), TermQuery("spark"),
                         TermQuery("block")), min_should_match=2),
    BooleanQuery(must=(TermQuery("data"),), min_should_match=2),
    PhraseQuery(("data", "merge")),
    PhraseQuery(("data", "merge"), slop=2),
    PhraseQuery(("merge", "data"), slop=3),
    SpanNearQuery(("data", "window"), slop=3, in_order=True),
    SpanNearQuery(("window", "data"), slop=2, in_order=False),
    SpanNearQuery(("data", "merge", "data"), slop=3, in_order=False),
    MultiPhraseQuery((("data",), ("merge", "window"))),
    MultiPhraseQuery((("merge", "block"), ("data", "window"))),
    ConstantScoreQuery(TermQuery("data"), boost=1.5),
    DisjunctionMaxQuery((TermQuery("data"), TermQuery("merge")),
                        tie_breaker=0.3),
    MatchAllDocsQuery(),
    PrefixQuery("mer"),
    FuzzyQuery("merge", max_edits=1),
    TermInSetQuery(("data", "spark")),
    # a field the index does not have matches nothing
    TermQuery("data", field="title"),
    TermQuery("data", field="text"),
]

# exact64 ignores term boosts (oracle parity) — boosted queries compare
# against the float32 "lucene" similarity, which applies them
BOOSTED = [
    TermQuery("merge", boost=2.0),
    BooleanQuery(should=(TermQuery("data", boost=0.5),
                         TermQuery("merge", boost=3.0))),
]


@pytest.fixture(scope="module")
def one_doc_index(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("memidx")
    path = str(d / "doc.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([0], pa.int64()),
        "text": pa.array([TEXT], pa.string())}), path)
    out = str(d / "idx")
    build_index(path, out, batch_size=8, index_positions=True)
    return out


@pytest.mark.parametrize("qi", range(len(QUERIES)))
def test_memory_index_matches_one_doc_searcher(one_doc_index, qi):
    q = QUERIES[qi]
    mi = MemoryIndex(TEXT)
    s = Searcher(IndexReader(one_doc_index), similarity="bm25_exact64")
    td = s.search(s.rewrite(q) if isinstance(q, PrefixQuery) else q, k=1)
    want = float(td.scores[0]) if len(td.doc_ids) else 0.0
    got = mi.search(q)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15), q


@pytest.mark.parametrize("qi", range(len(BOOSTED)))
def test_memory_index_boosted_vs_float32(one_doc_index, qi):
    q = BOOSTED[qi]
    mi = MemoryIndex(TEXT)
    s = Searcher(IndexReader(one_doc_index))  # "lucene" float32 mode
    td = s.search(q, k=1)
    want = float(td.scores[0]) if len(td.doc_ids) else 0.0
    assert mi.search(q) == pytest.approx(want, rel=1e-5), q


def test_memory_index_numerics():
    from lucene_ray.search.query import NumericRangeQuery
    mi = MemoryIndex("data merge", numerics={"n_chars": 500})
    q = NumericRangeQuery("n_chars", 100, 900, True, True, boost=2.0)
    assert mi.search(q) == 2.0
    q2 = NumericRangeQuery("n_chars", 600, 900, True, True)
    assert mi.search(q2) == 0.0


def test_memory_index_doc_values_terms():
    mi = MemoryIndex("data merge", numerics={"n_chars": 500, "n": None})
    assert mi.search(DocValuesTermsQuery("n_chars", (7, 500),
                                         boost=3.0)) == 3.0
    assert mi.search(DocValuesTermsQuery("n_chars", (7,))) == 0.0
    # a missing value (None) or column holds no value of any set
    assert mi.search(DocValuesTermsQuery("n", (0,))) == 0.0
    assert mi.search(DocValuesTermsQuery("absent", (500,))) == 0.0


def test_memory_index_unknown_query_type():
    class Custom(Query):
        pass

    with pytest.raises(TypeError, match="Custom"):
        MemoryIndex("data merge").search(Custom())
