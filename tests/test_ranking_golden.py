"""Golden ranking digest over seeded query trees.

A seeded generator builds 300 query trees: term and boolean queries
(minShouldMatch 0-2, MUST_NOT, FILTER, nesting and one-clause
booleans), phrases with slop 0-2, span-near and multi-phrase queries,
dismax, constant-score, covering, function-score, match-all and
numeric-range nodes, with boosts of 0, 0.5, 1 and 2. Each tree runs on
a 3,000-doc positional index of 5 segments under the ``lucene`` and
``bm25_exact64`` rails, before and after 5% of the docs are
tombstoned. One sha256 covers, per tree, the top-1/10/100 ids with
their float32 score bits, ``count`` and the complete
``eval_complete`` ids and float64 score bits.

``GOLDEN`` was recorded before the boolean weights were unified into
one weight (term and non-term clauses through the same conjunction and
disjunction kernels) and passed unchanged after it: a change that
must keep every ranking bit-identical keeps this digest. It passed
unchanged again after phrase, multi-phrase and span-near were merged
onto one slot kernel. It was re-recorded once, when a boolean with
fewer SHOULD clauses than minShouldMatch stopped matching (the
reference's BooleanWeight builds no scorer for it): 33 of the 69 trees
holding such a MUST/FILTER boolean changed, and every other tree kept
its ids and score bits. This is the seed of ROADMAP direction 3 (the
layout-invariance harness).
"""

import hashlib
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index import build_index
from lucene_ray.index.deletes import apply_deletes
from lucene_ray.search import (
    BooleanQuery,
    ConstantScoreQuery,
    CoveringQuery,
    DisjunctionMaxQuery,
    FunctionScoreQuery,
    IndexReader,
    MatchAllDocsQuery,
    MultiPhraseQuery,
    PhraseQuery,
    Searcher,
    SpanNearQuery,
    TermQuery,
)
from lucene_ray.search.query import BoostQuery, NumericRangeQuery

GOLDEN = "0d614b3742460032874370712abc078eaf92ff71cd8e56cb6c96056489566d0e"

N_DOCS = 3000
N_TREES = 300
VOCAB = [f"t{i}" for i in range(60)]
BOOSTS = (0.0, 0.5, 1.0, 2.0)


@pytest.fixture(scope="module")
def indexes(ray_session, tmp_path_factory):
    """(clean index, the same index with 5% of its docs tombstoned)."""
    rng = np.random.default_rng(2024)
    p = 1.0 / np.arange(1, len(VOCAB) + 1) ** 0.9
    texts = [" ".join(rng.choice(VOCAB, int(rng.integers(3, 25)),
                                 p=p / p.sum()))
             for _ in range(N_DOCS)]
    t = pa.table({
        "doc_id": pa.array(np.arange(N_DOCS, dtype=np.int64)),
        "text": pa.array(texts, pa.string()),
        "n": pa.array(rng.integers(0, 100, N_DOCS).astype(np.int64)),
    })
    d = tmp_path_factory.mktemp("golden")
    path = str(d / "documents.parquet")
    pq.write_table(t, path)
    clean = str(d / "idx")
    build_index(path, clean, batch_size=N_DOCS // 5, index_positions=True,
                doc_value_cols=("n",))
    assert len(IndexReader(clean).segment_infos) == 5
    deleted = str(d / "idx_del")
    shutil.copytree(clean, deleted, symlinks=True)
    reader = IndexReader(deleted)
    per_seg = {}
    for info in reader.segment_infos:
        ids = reader.segment(info.seg_id).doc_ids.astype(np.int64)
        per_seg[info.seg_id] = np.sort(rng.choice(
            ids, max(1, len(ids) // 20), replace=False))
    apply_deletes(deleted, per_seg)
    return clean, deleted


def _term(rng):
    if rng.random() < 0.05:
        return "absent"
    # head and tail terms alike: dense and sorted-union ORs both run
    return VOCAB[int(rng.integers(0, 8)) if rng.random() < 0.5
                 else int(rng.integers(0, len(VOCAB)))]


def _boost(rng):
    return float(rng.choice(BOOSTS)) if rng.random() < 0.3 else 1.0


def _leaf(rng):
    r = rng.random()
    if r < 0.6:
        return TermQuery(_term(rng), _boost(rng))
    if r < 0.75:
        terms = tuple(_term(rng) for _ in range(int(rng.integers(2, 4))))
        return PhraseQuery(terms, _boost(rng), int(rng.integers(0, 3)))
    if r < 0.83:
        return SpanNearQuery((_term(rng), _term(rng)),
                             int(rng.integers(0, 3)), bool(rng.random() < 0.5),
                             _boost(rng))
    if r < 0.9:
        return MultiPhraseQuery(((_term(rng),), (_term(rng), _term(rng))),
                                _boost(rng))
    if r < 0.95:
        return MatchAllDocsQuery(_boost(rng))
    return NumericRangeQuery("n", int(rng.integers(0, 50)),
                             int(rng.integers(50, 100)))


def _tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return _leaf(rng)
    r = rng.random()
    if r < 0.6:
        def group(hi):
            return tuple(_tree(rng, depth - 1)
                         for _ in range(int(rng.integers(0, hi + 1))))
        return BooleanQuery(must=group(2), should=group(3),
                            must_not=group(1) if rng.random() < 0.4 else (),
                            filter=group(1) if rng.random() < 0.3 else (),
                            min_should_match=int(rng.integers(0, 3)))
    subs = tuple(_tree(rng, depth - 1) for _ in range(int(rng.integers(1, 4))))
    if r < 0.7:
        return DisjunctionMaxQuery(subs, float(rng.choice((0.0, 0.3))))
    if r < 0.8:
        return ConstantScoreQuery(subs[0], _boost(rng))
    if r < 0.88:
        return CoveringQuery(subs, str(rng.choice(("1", "2", "1 + n % 2"))))
    if r < 0.94:
        return BoostQuery(subs[0], float(rng.choice(BOOSTS)))
    return FunctionScoreQuery(subs[0], "_score * 2 + ln(1 + n)")


def _trees():
    rng = np.random.default_rng(7)
    trees = [_tree(rng, 3) for _ in range(N_TREES - 4)]
    # the one-clause booleans a term query is often wrapped in
    return trees + [BooleanQuery(must=(TermQuery("t0"),)),
                    BooleanQuery(should=(TermQuery("t3", 2.0),)),
                    BooleanQuery(should=(TermQuery("t5"),),
                                 min_should_match=1),
                    BooleanQuery(must=(PhraseQuery(("t0", "t1")),))]


def _f32_bits(scores):
    return np.asarray(scores).astype(np.float32).view(np.uint32).tobytes()


def test_ranking_digest(indexes):
    trees = _trees()
    h = hashlib.sha256()
    for index_dir in indexes:
        for sim in ("lucene", "bm25_exact64"):
            s = Searcher(IndexReader(index_dir), similarity=sim)
            for q in trees:
                for k in (1, 10, 100):
                    td = s.search(q, k)
                    h.update(np.asarray(td.doc_ids, np.int64).tobytes())
                    h.update(_f32_bits(td.scores))
                docs, scores = s.eval_complete(q)
                h.update(np.asarray(docs, np.int64).tobytes())
                h.update(np.asarray(scores, np.float64).tobytes())
                h.update(str(s.count(q)).encode())
    assert h.hexdigest() == GOLDEN


@pytest.mark.parametrize("sim", ["lucene", "bm25_exact64"])
@pytest.mark.parametrize("q", [
    BooleanQuery(should=(TermQuery("t0"), TermQuery("t7"), TermQuery("t11"))),
    BooleanQuery(must=(TermQuery("t0"),),
                 should=(TermQuery("t7"), TermQuery("t11", 2.0))),
], ids=["or", "must_should"])
def test_boolean_explain_root_is_the_score(indexes, sim, q):
    """A boolean's explanation carries the doc's score bits at its root
    (under the float32 ``lucene`` rails too, where the double sum of
    its clauses' values differs) and one detail per matching scoring
    clause."""
    s = Searcher(IndexReader(indexes[0]), similarity=sim)
    docs, scores = s.eval_complete(q)
    assert len(docs) >= 300
    clause_docs = [set(s.match_docs(c).tolist()) for c in q.must + q.should]
    for d, score in zip(docs[:300].tolist(), scores[:300]):
        e = s.explain(q, d)
        assert np.float64(e["value"]).tobytes() == score.tobytes(), d
        assert len(e["details"]) == sum(d in c for c in clause_docs)
