"""Randomized NESTED boolean trees vs a recursive brute-force float32
oracle — hardens the boolean weight (`_BoolWeight`) on trees whose
clauses mix term and boolean children, the shapes the query parser's
groups produce."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index import build_index
from lucene_ray.search import BooleanQuery, IndexReader, Searcher, TermQuery
from tests.test_randomized_oracle import Oracle


def _oracle_eval(oracle, q):
    """docs -> float32 score for an arbitrary nested tree (complete)."""
    if isinstance(q, TermQuery):
        out = {}
        for d, (counts, dl) in enumerate(oracle.docs):
            s = oracle._tscore(q.term, q.boost, counts, dl)
            if s is not None:
                out[d] = np.float32(s)
        return out
    assert isinstance(q, BooleanQuery)
    m = [_oracle_eval(oracle, c) for c in q.must]
    f = [_oracle_eval(oracle, c) for c in q.filter]
    s = [_oracle_eval(oracle, c) for c in q.should]
    n = [_oracle_eval(oracle, c) for c in q.must_not]
    if m or f:
        cand = None
        for part in m + f:
            cand = set(part) if cand is None else cand & set(part)
        msm = q.min_should_match
    else:
        cand = set()
        for part in s:
            cand |= set(part)
        msm = max(q.min_should_match, 1)
    out = {}
    for d in cand:
        if any(d in part for part in n):
            continue
        ns = sum(1 for part in s if d in part)
        # with no SHOULD clause too: BooleanWeight builds no scorer
        if ns < msm:
            continue
        total = 0.0
        for part in m:
            total += float(part[d])
        for part in s:
            if d in part:
                total += float(part[d])
        out[d] = np.float32(total)
    return out


@pytest.mark.parametrize("seed", [7, 77])
def test_nested_trees_vs_oracle(ray_session, tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    n_docs = 250
    vocab = [f"t{i}" for i in range(60)]
    texts = [" ".join(rng.choice(vocab, int(rng.integers(3, 40))))
             for _ in range(n_docs)]
    t = pa.table({"doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
                  "text": pa.array(texts, pa.string())})
    d = tmp_path_factory.mktemp(f"nested{seed}")
    path = str(d / "docs.parquet")
    pq.write_table(t, path)
    out = str(d / "idx")
    build_index(path, out, batch_size=int(rng.integers(60, 120)))
    s = Searcher(IndexReader(out))
    oracle = Oracle(texts)
    present = sorted(oracle.df)

    def rand_tree(depth):
        if depth == 0 or rng.random() < 0.4:
            return TermQuery(str(rng.choice(present)),
                             boost=float(rng.choice([1.0, 2.0])))
        def group(nmax):
            return tuple(rand_tree(depth - 1)
                         for _ in range(int(rng.integers(0, nmax))))
        q = BooleanQuery(must=group(3), should=group(3),
                         must_not=group(2), filter=group(2),
                         min_should_match=int(rng.integers(0, 2)))
        if not (q.must or q.should or q.filter):
            return TermQuery(str(rng.choice(present)))
        return q

    for _ in range(20):
        q = rand_tree(2)
        want = _oracle_eval(oracle, q)
        ranked = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))[:15]
        got = s.search(q, k=15)
        assert got.doc_ids.tolist() == [d for d, _ in ranked], q
        assert got.scores.tolist() == pytest.approx(
            [float(x) for _, x in ranked], rel=1e-6), q
        # counts agree too
        assert s.count(q) == len(want), q
