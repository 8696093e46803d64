"""Monitor (reverse search / percolator) — presearcher safety,
per-doc matcher == Searcher equivalence, streaming e2e.

Reference tests: monitor/src/test/.../TestMonitor.java,
TestTermPresearcher.java, TestBooleanTermExtractor.java.
"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.analysis import StandardAnalyzer
from lucene_ray.index import build_index
from lucene_ray.search import (
    BooleanQuery,
    ComplexPhraseQuery,
    CoveringQuery,
    DisjunctionMaxQuery,
    DocValuesTermsQuery,
    FunctionScoreQuery,
    FuzzyQuery,
    IndexReader,
    MatchAllDocsQuery,
    MultiPhraseQuery,
    PhraseQuery,
    PrefixQuery,
    Query,
    Searcher,
    SpanNearQuery,
    TermQuery,
    TermRangeQuery,
    WildcardQuery,
)
from lucene_ray.search.monitor import (
    Monitor,
    MonitorQuery,
    match_stream,
    matches_doc,
    minimal_terms,
)

ANALYZER = StandardAnalyzer()


def doc_positions(text, analyzer=ANALYZER):
    pos = {}
    for at in analyzer.tokens(text):
        pos.setdefault(at.term, []).append(at.position)
    return {t: np.asarray(v, dtype=np.int64) for t, v in pos.items()}


def make_corpus(seed=5, n=250):
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(40)] + ["alpha", "beta", "gamma",
                                            "needle", "market", "merge"]
    texts = []
    for i in range(n):
        k = int(rng.integers(8, 30))
        words = list(rng.choice(vocab, k))
        if i % 9 == 0:
            at = int(rng.integers(0, k - 2))
            words[at:at + 2] = ["alpha", "beta"]
        texts.append(" ".join(words))
    return texts


QUERY_BATTERY = [
    TermQuery("alpha"),
    TermQuery("nosuchterm"),
    BooleanQuery(must=(TermQuery("alpha"), TermQuery("beta"))),
    BooleanQuery(should=(TermQuery("needle"), TermQuery("gamma"))),
    BooleanQuery(should=(TermQuery("alpha"), TermQuery("beta"),
                         TermQuery("gamma")), min_should_match=2),
    BooleanQuery(must=(TermQuery("alpha"),),
                 must_not=(TermQuery("gamma"),)),
    # fewer SHOULD clauses than minShouldMatch: matches nothing
    BooleanQuery(must=(TermQuery("alpha"),), min_should_match=2),
    BooleanQuery(must=(BooleanQuery(should=(TermQuery("w1"),
                                            TermQuery("w2"))),),
                 should=(TermQuery("merge"),)),
    PhraseQuery(("alpha", "beta")),
    PhraseQuery(("alpha", "beta"), slop=2),
    PhraseQuery(("alpha", "w3", "alpha"), slop=3),
    SpanNearQuery(("alpha", "gamma"), slop=4, in_order=True),
    SpanNearQuery(("alpha", "gamma"), slop=4, in_order=False),
    SpanNearQuery(("alpha", "w3", "alpha"), slop=3, in_order=False),
    MultiPhraseQuery((("alpha",), ("beta", "gamma"))),
    DisjunctionMaxQuery((TermQuery("needle"), PhraseQuery(("alpha",
                                                           "beta")))),
    PrefixQuery("ma"),
    WildcardQuery("w?"),
    FuzzyQuery("merge", max_edits=1),
    TermRangeQuery("w1", "w3"),
    MatchAllDocsQuery(),
]


@pytest.fixture(scope="module")
def mon_corpus(ray_session, tmp_path_factory):
    texts = make_corpus()
    t = pa.table({
        "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
        "text": pa.array(texts, pa.string()),
    })
    d = tmp_path_factory.mktemp("monitor")
    path = str(d / "documents.parquet")
    pq.write_table(t, path)
    out = str(d / "idx")
    build_index(path, out, batch_size=64, index_positions=True)
    return path, out, texts


def test_matches_doc_equals_searcher(mon_corpus):
    """Per-doc matcher agrees with the index-backed Searcher for every
    battery query (the monitor runs candidates through matches_doc; the
    index path is the ground truth)."""
    _path, out, texts = mon_corpus
    s = Searcher(IndexReader(out))
    poss = [doc_positions(t) for t in texts]
    for q in QUERY_BATTERY:
        idx_docs = set(int(d) for d in s.match_docs(q))
        mon_docs = {i for i, p in enumerate(poss) if matches_doc(q, p)}
        assert mon_docs == idx_docs, f"mismatch for {q}"


def test_presearcher_safety_randomized():
    """If a doc matches, it contains >= 1 term of the minimal set (or
    the query is ANYTOKEN) — the property that makes candidate pruning
    lossless."""
    texts = make_corpus(seed=11, n=120)
    poss = [doc_positions(t) for t in texts]
    for q in QUERY_BATTERY:
        ts = minimal_terms(q)
        if ts is None:
            continue
        for p in poss:
            if matches_doc(q, p):
                assert ts & set(p.keys()), f"presearcher miss for {q}"


def test_minimal_terms_structure():
    # conjunction picks ONE (highest-weight) term
    q = BooleanQuery(must=(TermQuery("a"), TermQuery("longterm")))
    assert minimal_terms(q) == frozenset(["longterm"])
    # disjunction needs the union
    q = BooleanQuery(should=(TermQuery("a"), TermQuery("b")))
    assert minimal_terms(q) == frozenset(["a", "b"])
    # phrase -> its best single term
    assert minimal_terms(PhraseQuery(("of", "elephants"))) == \
        frozenset(["elephants"])
    # a disjunction containing an unextractable leaf -> ANYTOKEN
    q = BooleanQuery(should=(TermQuery("a"), MatchAllDocsQuery()))
    assert minimal_terms(q) is None
    # ...but a conjunction can still route around it
    q = BooleanQuery(must=(TermQuery("a"), MatchAllDocsQuery()))
    assert minimal_terms(q) == frozenset(["a"])


def test_monitor_register_match_deregister():
    m = Monitor()
    m.register(
        MonitorQuery("q_alpha", TermQuery("alpha")),
        MonitorQuery("q_and", BooleanQuery(
            must=(TermQuery("alpha"), TermQuery("beta")))),
        MonitorQuery("q_phrase", PhraseQuery(("alpha", "beta"))),
        MonitorQuery("q_all", MatchAllDocsQuery()),
    )
    assert len(m) == 4
    batch = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["alpha beta x", "beta alpha", "zzz"],
                         pa.string()),
    })
    out = m.match_batch(batch)
    got = set(zip(out["doc_id"].to_pylist(), out["query_id"].to_pylist()))
    assert got == {(1, "q_alpha"), (1, "q_and"), (1, "q_phrase"),
                   (1, "q_all"), (2, "q_alpha"), (2, "q_and"),
                   (2, "q_all"), (3, "q_all")}
    # candidate pruning: doc 3 only sees the anytoken bucket
    assert m.candidates({"zzz"}) == {"q_all"}
    m.deregister("q_all")
    out2 = m.match_batch(batch)
    assert "q_all" not in set(out2["query_id"].to_pylist())
    # re-register under the same id replaces
    m.register(MonitorQuery("q_alpha", TermQuery("zzz")))
    out3 = m.match_batch(batch)
    got3 = set(zip(out3["doc_id"].to_pylist(),
                   out3["query_id"].to_pylist()))
    assert (3, "q_alpha") in got3 and (1, "q_alpha") not in got3


def test_monitor_filter_field_metadata():
    m = Monitor(filter_field="lang")
    m.register(
        MonitorQuery("q_en", TermQuery("alpha"), {"lang": "en"}),
        MonitorQuery("q_de", TermQuery("alpha"), {"lang": "de"}),
        MonitorQuery("q_any", TermQuery("alpha")),
    )
    batch = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["alpha", "alpha"], pa.string()),
        "lang": pa.array(["en", "de"], pa.string()),
    })
    out = m.match_batch(batch)
    got = set(zip(out["doc_id"].to_pylist(), out["query_id"].to_pylist()))
    assert got == {(1, "q_en"), (1, "q_any"), (2, "q_de"), (2, "q_any")}


def test_match_stream_e2e(mon_corpus):
    path, out, texts = mon_corpus
    m = Monitor()
    m.register(
        MonitorQuery("q_alpha_beta", PhraseQuery(("alpha", "beta"))),
        MonitorQuery("q_needle", TermQuery("needle")),
        MonitorQuery("q_or", BooleanQuery(should=(TermQuery("market"),
                                                  TermQuery("merge")))),
    )
    rows = match_stream(path, m, batch_size=64).take_all()
    got = {(r["doc_id"], r["query_id"]) for r in rows}
    s = Searcher(IndexReader(out))
    want = set()
    for qid, q in [("q_alpha_beta", PhraseQuery(("alpha", "beta"))),
                   ("q_needle", TermQuery("needle")),
                   ("q_or", BooleanQuery(should=(TermQuery("market"),
                                                 TermQuery("merge"))))]:
        for d in s.match_docs(q):
            want.add((int(d), qid))
    assert got == want


def test_numeric_range_in_monitor():
    from lucene_ray.search.query import NumericRangeQuery
    m = Monitor()
    m.register(MonitorQuery("q_num", BooleanQuery(
        must=(TermQuery("alpha"),),
        filter=(NumericRangeQuery(column="score", lower=10, upper=20),))))
    batch = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["alpha", "alpha", "beta"], pa.string()),
        "score": pa.array([15.0, 25.0, 15.0], pa.float64()),
    })
    out = m.match_batch(batch)
    got = set(zip(out["doc_id"].to_pylist(), out["query_id"].to_pylist()))
    assert got == {(1, "q_num")}


@pytest.mark.parametrize("langs,want", [(["en", "fr"], "en"), ([1, 2], 1)])
def test_doc_values_terms_on_any_column(langs, want):
    """A doc-values terms filter matches over a string column of the
    batch as over an int one (the control); a numeric range over a
    string column raises rather than matching nothing."""
    from lucene_ray.search.query import NumericRangeQuery
    m = Monitor()
    m.register(MonitorQuery("q_dv", BooleanQuery(
        must=(TermQuery("alpha"),),
        filter=(DocValuesTermsQuery("lang", (want,)),))))
    batch = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["alpha beta", "alpha gamma"], pa.string()),
        "lang": pa.array(langs),
    })
    out = m.match_batch(batch)
    assert out["doc_id"].to_pylist() == [1]
    assert out["query_id"].to_pylist() == ["q_dv"]
    m.register(MonitorQuery("q_range", NumericRangeQuery(
        column="lang", lower=0, upper=5)))
    if isinstance(want, str):
        with pytest.raises(ValueError, match="not numeric"):
            m.match_batch(batch)
    else:
        assert len(m.match_batch(batch)) == 3


# positional nodes under other combinators: each needs the row's real
# positions, so ``needs_positions`` must see through them
NESTED_POSITIONAL = [
    ComplexPhraseQuery((("alpha",), (PrefixQuery("be"), "gamma"))),
    ComplexPhraseQuery((("alpha",), ("w3", "beta")), slop=2),
    # sloppy with a prefix slot: lowers alike over a one-doc reader and
    # over a batch whose vocabulary holds "be*" terms
    ComplexPhraseQuery((("alpha",), ("w3", PrefixQuery("be"))), slop=2),
    FunctionScoreQuery(PhraseQuery(("alpha", "beta"))),
    CoveringQuery((PhraseQuery(("alpha", "beta")), TermQuery("gamma")),
                  min_match="2"),
]


@pytest.mark.parametrize("filtered", [False, True])
@pytest.mark.parametrize("batch_size", [1, 7, 250])
def test_match_batch_equals_per_doc(batch_size, filtered):
    """``match_batch`` over a batch reader returns exactly the pairs
    ``matches_doc`` gives doc by doc (real analyzer positions each)."""
    texts = make_corpus()
    langs = ["en" if i % 3 else "de" for i in range(len(texts))]
    queries = QUERY_BATTERY + NESTED_POSITIONAL
    m = Monitor(filter_field="lang")
    meta = [{"lang": "de"} if filtered and i % 2 else {}
            for i in range(len(queries))]
    m.register(*(MonitorQuery(f"q{i}", q, meta[i])
                 for i, q in enumerate(queries)))
    t = pa.table({
        "doc_id": pa.array(np.arange(len(texts), dtype=np.int64) + 100),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
    })
    got = set()
    for at in range(0, len(texts), batch_size):
        out = m.match_batch(t.slice(at, batch_size))
        got |= set(zip(out["doc_id"].to_pylist(),
                       out["query_id"].to_pylist()))
    want = {(d + 100, f"q{i}")
            for d, text in enumerate(texts)
            for i, q in enumerate(queries)
            if meta[i].get("lang", langs[d]) == langs[d]
            and matches_doc(q, doc_positions(text))}
    assert got == want
    # not vacuous: every query but the two that match nothing has pairs
    assert filtered or len({q for _d, q in want}) == len(queries) - 2


@pytest.mark.parametrize("qi", range(len(NESTED_POSITIONAL)))
def test_nested_positional_queries_get_real_positions(qi):
    """A stop word leaves a position gap that a row's occurrence slots
    would close: a row whose candidate is a positional node under
    another combinator must be analyzed for its real positions."""
    q = NESTED_POSITIONAL[qi]
    analyzer = StandardAnalyzer(stop_words={"the"})
    texts = ["alpha the beta", "alpha beta", "alpha the beta gamma",
             "alpha beta gamma", "alpha the the the beta", "alpha w3"]
    m = Monitor(analyzer)
    m.register(MonitorQuery("q", q))
    out = m.match_batch(pa.table({
        "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
        "text": pa.array(texts, pa.string())}))
    want = [d for d, t in enumerate(texts)
            if matches_doc(q, doc_positions(t, analyzer))]
    assert want and out["doc_id"].to_pylist() == want


def test_monitor_doc_values_terms_and_unknown_type():
    """A doc-values terms query matches over the batch's numeric
    columns; a query type the searcher has no weight for raises a
    TypeError that names it."""
    m = Monitor()
    m.register(MonitorQuery("q_dv", DocValuesTermsQuery("n", (3, 5))))
    batch = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["alpha", "beta", ""], pa.string()),
        "n": pa.array([3, 4, 5], pa.int64()),
    })
    out = m.match_batch(batch)
    assert out["doc_id"].to_pylist() == [1, 3]

    class Custom(Query):
        pass

    m.register(MonitorQuery("q_custom", Custom()))
    with pytest.raises(TypeError, match="Custom"):
        m.match_batch(batch)
    with pytest.raises(TypeError, match="Custom"):
        matches_doc(Custom(), doc_positions("alpha"))
