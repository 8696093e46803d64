"""Randomized end-to-end sweep (checkRandomData / CheckHits pattern):
seeded random corpora + random boolean queries, engine vs brute-force
float32 oracle — exact score and rank equality every time."""

import math

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.analysis import ENGLISH_STOP_WORDS, StandardAnalyzer, int_to_byte4
from lucene_ray.analysis.smallfloat import LENGTH_TABLE
from lucene_ray.index import build_index
from lucene_ray.search import BooleanQuery, IndexReader, Searcher, TermQuery
from lucene_ray.search.searcher import _DENSE_OR_RATIO

K1, B = 1.2, 0.75


class Oracle:
    def __init__(self, texts, stop_words=frozenset()):
        analyzer = StandardAnalyzer(stop_words=stop_words)
        self.docs = []
        for t in texts:
            terms = analyzer(t)
            counts = {}
            for w in terms:
                counts[w] = counts.get(w, 0) + 1
            self.docs.append((counts, len(terms)))
        self.N = sum(1 for c, l in self.docs if l > 0)
        sum_dl = sum(l for _, l in self.docs)
        self.avgdl = np.float32(sum_dl / float(max(self.N, 1)))
        self.cache = (np.float32(1) / (np.float32(K1) * (
            np.float32(1 - B) + np.float32(B) * LENGTH_TABLE / self.avgdl))
        ).astype(np.float32)
        self.df = {}
        for counts, _ in self.docs:
            for w in counts:
                self.df[w] = self.df.get(w, 0) + 1

    def _tscore(self, term, boost, counts, dl):
        tf = counts.get(term, 0)
        if tf == 0:
            return None
        df = self.df[term]
        idf = np.float32(math.log(1 + (self.N - df + 0.5) / (df + 0.5)))
        w = np.float32(np.float32(boost) * idf)
        ninv = self.cache[int_to_byte4(dl)]
        return float(np.float32(w - w / (np.float32(1) + np.float32(tf) * ninv)))

    def search(self, q: BooleanQuery, k):
        hits = []
        # required = MUST + FILTER; SHOULD only forced when nothing else
        # is required (Boolean2ScorerSupplier semantics)
        msm = max(q.min_should_match, 0 if (q.must or q.filter) else 1)
        for d, (counts, dl) in enumerate(self.docs):
            if any(t.term not in counts for t in q.must):
                continue
            if any(t.term in counts for t in q.must_not):
                continue
            if any(t.term not in counts for t in q.filter):
                continue
            n_should = sum(1 for t in q.should if t.term in counts)
            # fewer SHOULD hits than minShouldMatch (no SHOULD clause
            # included): BooleanWeight builds no scorer
            if n_should < msm:
                continue
            if not q.must and not q.filter and not q.should:
                continue
            s = 0.0
            for t in list(q.must) + list(q.should):
                ts = self._tscore(t.term, t.boost, counts, dl)
                if ts is not None:
                    s += ts
            hits.append((np.float32(s), d))
        hits.sort(key=lambda h: (-h[0], h[1]))
        return hits[:k]


def _long_tail_texts(rng):
    """40 head words each in about half the docs and 600 tail words
    each in a handful, so a SHOULD-only query over tail words has a
    summed df far below the segment size and one with a head word
    does not: both OR accumulators run."""
    head = [f"h{i}" for i in range(40)]
    tail = [f"r{i}" for i in range(600)]
    texts = []
    for _ in range(int(rng.integers(300, 400))):
        words = [w for w in head if rng.random() < 0.5]
        words += list(rng.choice(tail, int(rng.integers(1, 8))))
        rng.shuffle(words)
        texts.append(" ".join(words))
    return texts


@pytest.mark.parametrize("seed", [101, 202, 303, "longtail"])
def test_random_corpora_and_queries(ray_session, tmp_path_factory, seed):
    long_tail = seed == "longtail"
    rng = np.random.default_rng(404 if long_tail else seed)
    if long_tail:
        texts = _long_tail_texts(rng)
        n_docs = len(texts)
        stop = frozenset()
    else:
        n_docs = int(rng.integers(150, 400))
        vocab_n = int(rng.integers(30, 300))
        vocab = [f"t{i}" for i in range(vocab_n)] + ["the", "and", "of"]
        texts = []
        for i in range(n_docs):
            if rng.random() < 0.03:
                texts.append("")  # empty docs exercise field_doc_count
                continue
            n = int(rng.integers(1, 120))
            texts.append(" ".join(rng.choice(vocab, n)))
        stop = ENGLISH_STOP_WORDS if rng.random() < 0.5 else frozenset()

    t = pa.table({"doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
                  "text": pa.array(texts, pa.string())})
    d = tmp_path_factory.mktemp(f"rand{seed}")
    path = str(d / "docs.parquet")
    pq.write_table(t, path)
    out = str(d / "idx")
    build_index(path, out, batch_size=int(rng.integers(40, 200)),
                stop_words=stop)

    s = Searcher(IndexReader(out))
    oracle = Oracle(texts, stop_words=stop)
    present = sorted(oracle.df)
    if not present:
        pytest.skip("degenerate corpus")
    # which OR accumulator each SHOULD-only query should take per
    # segment, from the oracle's own per-segment doc counts
    segments = [sr.doc_ids for sr in s.reader.segments()]
    or_sides = set()

    for _ in range(60 if long_tail else 25):
        def pick(n):
            return [TermQuery(str(rng.choice(present)),
                              boost=float(rng.choice([1.0, 1.0, 2.0, 0.5])))
                    for _ in range(n)]
        q = BooleanQuery(
            must=tuple(pick(int(rng.integers(0, 3)))),
            should=tuple(pick(int(rng.integers(0, 4)))),
            must_not=tuple(pick(int(rng.integers(0, 2)))),
            filter=tuple(pick(int(rng.integers(0, 2)))),
            min_should_match=int(rng.integers(0, 2)),
        )
        if long_tail and rng.random() < 0.7:
            q = BooleanQuery(should=q.should + tuple(pick(1)),
                             must_not=q.must_not,
                             min_should_match=int(rng.integers(0, 3)))
        if not (q.must or q.should or q.filter):
            continue
        if q.should and not (q.must or q.filter):
            for ids in segments:
                seg_df = sum(sum(1 for i in ids
                                 if tq.term in oracle.docs[i][0])
                             for tq in q.should)
                contiguous = ids[-1] - ids[0] == len(ids) - 1
                or_sides.add(contiguous
                             and seg_df * _DENSE_OR_RATIO >= len(ids))
        k = int(rng.choice([1, 7, 40]))
        got = s.search(q, k=k)
        want = oracle.search(q, k)
        assert got.doc_ids.tolist() == [d for _, d in want], q
        assert got.scores.tolist() == [float(x) for x, _ in want], q
    if long_tail:
        assert or_sides == {True, False}


def test_tie_heavy_corpus_pruned_path(ray_session, tmp_path_factory):
    """Thousands of identical docs -> identical scores; top-k must be the
    lowest docIDs through the block-max pruned single-term path and
    through the exhaustive OR."""
    n = 6000  # > 8 blocks per segment so pruning engages
    texts = ["alpha beta gamma"] * n
    t = pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                  "text": pa.array(texts, pa.string())})
    d = tmp_path_factory.mktemp("ties")
    path = str(d / "docs.parquet")
    pq.write_table(t, path)
    out = str(d / "idx")
    build_index(path, out, batch_size=3000)
    s = Searcher(IndexReader(out))
    for k in (1, 10, 100):
        td = s.search(TermQuery("alpha"), k=k)
        assert td.doc_ids.tolist() == list(range(k))
        assert len(set(td.scores.tolist())) == 1
    # boolean OR over identical docs: same invariant
    q = BooleanQuery(should=(TermQuery("alpha"), TermQuery("beta")))
    td = s.search(q, k=25)
    assert td.doc_ids.tolist() == list(range(25))
