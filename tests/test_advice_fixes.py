"""Regression tests for the round-1 ADVICE findings:

1. DisMax disjuncts must be evaluated UNpruned (complete docs+scores) —
   MaxScore pruning is only sound at the top-level collector.
2. FILTER+SHOULD: required = MUST+FILTER, so SHOULD stays optional when
   a filter clause is present (ReqOptSumScorer semantics).
3. docIDs >= 2^31 must raise, not silently wrap int32 skip data.
"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.codecs.postings import pack_postings_many
from lucene_ray.index import build_index
from lucene_ray.search import (
    BooleanQuery,
    ConstantScoreQuery,
    DisjunctionMaxQuery,
    IndexReader,
    Searcher,
    TermQuery,
)
from tests.test_randomized_oracle import Oracle


@pytest.fixture(scope="module")
def zipf_index(ray_session, tmp_path_factory):
    """Corpus with one ubiquitous term and several rare ones, so MaxScore
    pruning would engage (and, pre-fix, wrongly prune sub-queries)."""
    rng = np.random.default_rng(7)
    n = 800
    texts = []
    for i in range(n):
        words = ["common"] * int(rng.integers(1, 4))
        if rng.random() < 0.05:
            words.append("rare1")
        if rng.random() < 0.04:
            words.append("rare2")
        if rng.random() < 0.06:
            words.append("mid")
        words += [f"fill{int(rng.integers(0, 50))}" for _ in range(5)]
        rng.shuffle(words)
        texts.append(" ".join(words))
    t = pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                  "text": pa.array(texts, pa.string())})
    d = tmp_path_factory.mktemp("advice")
    path = str(d / "docs.parquet")
    pq.write_table(t, path)
    out = str(d / "idx")
    build_index(path, out, batch_size=400)
    return texts, out


def _dismax_oracle(oracle, disjuncts, tie, k):
    per = []
    for q in disjuncts:
        hits = oracle.search(q, k=10**9)
        per.append({d: s for s, d in hits})
    docs = sorted(set().union(*[p.keys() for p in per]))
    out = []
    for d in docs:
        ss = [p[d] for p in per if d in p]
        mx = max(ss)
        s = np.float32(mx + tie * (sum(np.float64(x) for x in ss) - mx))
        out.append((np.float32(s), d))
    out.sort(key=lambda h: (-h[0], h[1]))
    return out[:k]


def test_dismax_subquery_not_pruned(zipf_index):
    texts, out = zipf_index
    s = Searcher(IndexReader(out))
    oracle = Oracle(texts)
    d1 = BooleanQuery(should=(TermQuery("common"), TermQuery("rare1")))
    d2 = BooleanQuery(should=(TermQuery("mid"), TermQuery("rare2")))
    for tie in (0.0, 0.3, 1.0):
        q = DisjunctionMaxQuery((d1, d2), tie_breaker=tie)
        got = s.search(q, k=30)
        want = _dismax_oracle(oracle, [d1, d2], tie, 30)
        assert got.doc_ids.tolist() == [d for _, d in want], tie
        assert got.scores.tolist() == pytest.approx(
            [float(x) for x, _ in want], abs=0), tie


def test_constantscore_dismax_complete_matches(zipf_index):
    texts, out = zipf_index
    s = Searcher(IndexReader(out))
    oracle = Oracle(texts)
    d1 = BooleanQuery(should=(TermQuery("common"), TermQuery("rare1")))
    d2 = BooleanQuery(should=(TermQuery("mid"), TermQuery("rare2")))
    q = ConstantScoreQuery(DisjunctionMaxQuery((d1, d2), tie_breaker=0.0))
    want = set()
    for d in (d1, d2):
        want |= {doc for _, doc in oracle.search(d, k=10**9)}
    assert s.count(q) == len(want)
    got = s.search(q, k=len(want) + 10)
    assert set(got.doc_ids.tolist()) == want


def test_filter_plus_should_optional(zipf_index):
    """FILTER alone is required; SHOULD must stay purely optional
    (docs matching the filter but no SHOULD term still match)."""
    texts, out = zipf_index
    s = Searcher(IndexReader(out))
    oracle = Oracle(texts)
    q = BooleanQuery(filter=(TermQuery("common"),),
                     should=(TermQuery("rare1"), TermQuery("rare2")))
    n_filter_only = s.count(BooleanQuery(filter=(TermQuery("common"),)))
    assert s.count(q) == n_filter_only  # SHOULD did not gate the match
    got = s.search(q, k=n_filter_only + 10)
    want = oracle.search(q, k=10**9)
    assert got.doc_ids.tolist() == [d for _, d in want]
    assert got.scores.tolist() == [float(x) for x, _ in want]


def test_docid_int32_overflow_rejected():
    with pytest.raises(ValueError, match="int32"):
        pack_postings_many(np.array([5, 2**31], dtype=np.int64),
                           np.array([1, 1]), [0, 2])
    with pytest.raises(ValueError, match="int32"):
        pack_postings_many(np.array([5, 2**31], dtype=np.int64),
                           np.array([1, 1], dtype=np.int64),
                           np.array([0, 2], dtype=np.int64))


class TestNewSimilarities:
    """LMJelinekMercerSimilarity + AxiomaticF2EXP (similarities pkg)."""

    def test_lm_jm_formula(self):
        import numpy as np
        from lucene_ray.search.similarities import LMJelinekMercerSimilarity
        sim = LMJelinekMercerSimilarity(lam=0.1)
        freqs = np.array([2, 0, 5])
        dl = np.array([10, 10, 50])
        got = sim.term_score(freqs, dl, df=3, ttf=9, boost=2.0,
                             doc_count=100, sum_ttf=999)
        p = 10.0 / 1000.0
        want = 2.0 * np.log1p(0.9 * (freqs / dl) / (0.1 * p))
        assert np.allclose(got, want)
        assert got[1] == 0.0  # zero freq -> zero contribution

    def test_lm_jm_param_validation(self):
        import pytest
        from lucene_ray.search.similarities import LMJelinekMercerSimilarity
        with pytest.raises(ValueError):
            LMJelinekMercerSimilarity(lam=0.0)
        with pytest.raises(ValueError):
            LMJelinekMercerSimilarity(lam=1.5)

    def test_axiomatic_formula_and_monotonicity(self):
        import numpy as np
        from lucene_ray.search.similarities import AxiomaticF2EXP
        sim = AxiomaticF2EXP()
        freqs = np.array([1, 2, 8])
        dl = np.array([20, 20, 20])
        got = sim.term_score(freqs, dl, df=4, ttf=0, boost=1.0,
                             doc_count=99, sum_ttf=1980)
        idf = (100.0 / 4) ** 0.35
        want = idf * freqs / (freqs + 0.5 + 0.5 * 20 / 20.0)
        assert np.allclose(got, want)
        assert got[0] < got[1] < got[2]  # tf-monotone
        # rarer term scores higher at same tf/dl
        rare = sim.term_score(np.array([2]), np.array([20]), df=1, ttf=0,
                              boost=1.0, doc_count=99, sum_ttf=1980)
        assert rare[0] > got[1]
