"""MemoryIndex: a single-document in-memory index — the memory module
(``lucene/memory/src/java/org/apache/lucene/index/memory/
MemoryIndex.java``, tests ``TestMemoryIndex.java``): analyze one
document once, then run any number of queries against it, each
returning the BM25 score the document would get in a real one-doc
index (the reference's percolation / "would this doc match?" tool).

Matching and positional freqs reuse the monitor's ``matches_doc`` and
``positional_freq`` (the searcher's own slot kernel); scoring applies
the exact64 BM25 with single-doc collection stats: N = 1, df(t) = 1 for
present terms, avgdl = dl, so idf = ln(1 + 0.5/1.5) and the length
norm is exactly 1.
"""

from __future__ import annotations

import numpy as np

from .bm25 import B, K1, idf64, score64
from .query import (
    BooleanQuery, BoostQuery, ConstantScoreQuery, DisjunctionMaxQuery,
    MatchAllDocsQuery, MultiPhraseQuery, PhraseQuery, Query, SpanNearQuery,
    TermQuery, query_terms,
)
from .monitor import matches_doc, positional_freq

_IDF1 = idf64(1, 1)


class MemoryIndex:
    """One analyzed document; ``search(q)`` -> float score (0.0 = no
    match, like MemoryIndex.search)."""

    def __init__(self, text: str, analyzer=None, numerics=None,
                 k1: float = K1, b: float = B):
        if analyzer is None:
            from ..analysis.analyzer import StandardAnalyzer
            analyzer = StandardAnalyzer()
        toks = analyzer(text)
        self.dl = len(toks)
        self.pos: dict[str, np.ndarray] = {}
        for i, t in enumerate(toks):
            self.pos.setdefault(t, []).append(i)
        self.pos = {t: np.asarray(p, dtype=np.int64)
                    for t, p in self.pos.items()}
        self.numerics = numerics or {}
        self.k1 = k1
        self.b = b

    # --- scoring ----------------------------------------------------------
    def _tf_score(self, freq: float, boost: float = 1.0,
                  idf: float = _IDF1) -> float:
        # dl == avgdl: the length norm is 1
        return float(score64(freq, self.dl, boost * idf, self.dl,
                             self.k1, self.b))

    def _score(self, q: Query, boost: float = 1.0) -> tuple[bool, float]:
        """(matches, score)."""
        if isinstance(q, TermQuery):
            p = self.pos.get(q.term)
            if p is None:
                return False, 0.0
            return True, self._tf_score(float(len(p)), boost * q.boost)
        if isinstance(q, MatchAllDocsQuery):
            return True, boost * q.boost
        if isinstance(q, BoostQuery):
            return self._score(q.inner, boost * q.boost)
        if isinstance(q, ConstantScoreQuery):
            if matches_doc(q.inner, self.pos, self.numerics):
                return True, boost * q.boost
            return False, 0.0
        if isinstance(q, DisjunctionMaxQuery):
            parts = [self._score(d, boost) for d in q.disjuncts]
            hits = [s for ok, s in parts if ok]
            if not hits:
                return False, 0.0
            mx = max(hits)
            return True, mx + q.tie_breaker * (sum(hits) - mx)
        if isinstance(q, BooleanQuery):
            if not matches_doc(q, self.pos, self.numerics):
                return False, 0.0
            total = 0.0
            for c in q.must:
                total += self._score(c, boost)[1]
            for c in q.should:
                ok, s = self._score(c, boost)
                if ok:
                    total += s
            return True, total  # filter/must_not contribute no score
        if isinstance(q, (PhraseQuery, MultiPhraseQuery, SpanNearQuery)):
            freq = positional_freq(q, self.pos)
            if freq <= 0:
                return False, 0.0
            # df = 1 for each term held (MultiPhraseWeight: all alternatives)
            idf_sum = _IDF1 * sum(t in self.pos for t in query_terms(q))
            return True, self._tf_score(freq, boost * q.boost, idf_sum)
        # multi-term / numeric etc.: constant-score on match
        if matches_doc(q, self.pos, self.numerics):
            return True, boost * getattr(q, "boost", 1.0)
        return False, 0.0

    def search(self, q: Query) -> float:
        ok, s = self._score(q)
        return s if ok else 0.0
