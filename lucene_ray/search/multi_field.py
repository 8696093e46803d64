"""Cross-field search over a multi-field index
(``index/multi_field.build_multi_field_index`` layout).

Each field is its own index sharing docIDs (``index/FieldInfos.java``
gives the reference per-field postings inside one segment). A query
tree runs through the searcher's own combinator weights — boolean,
dismax, constant-score, function-score and covering, built through the
``_weight_of`` hook — over one pseudo-segment spanning the whole docID
space (no tombstones, stored values read from the default field). Every
other node is a leaf that its field's single-field Searcher evaluates
whole (exact per-field BM25 stats/norms); a ``BoostQuery`` is a
function score ``_score * boost``. The combinators run on the float64
rails; ``search`` casts to float32 once.
"""

from __future__ import annotations

import os

import numpy as np

from ..index.multi_field import read_multi_field_meta
from .query import (
    BooleanQuery,
    BoostQuery,
    ConstantScoreQuery,
    CoveringQuery,
    DisjunctionMaxQuery,
    FunctionScoreQuery,
    Query,
)
from .reader import IndexReader
from .searcher import (
    Searcher,
    TopDocs,
    _BoolWeight,
    _check_k,
    _ConstWeight,
    _CoveringWeight,
    _DisMaxWeight,
    _FunctionScoreWeight,
    _top_k,
    _Weight,
)

_COMBINATORS = {
    BooleanQuery: _BoolWeight,
    DisjunctionMaxQuery: _DisMaxWeight,
    ConstantScoreQuery: _ConstWeight,
    FunctionScoreQuery: _FunctionScoreWeight,
    CoveringQuery: _CoveringWeight,
}


class _AllDocs:
    """The whole docID space as one segment: no tombstones, docIDs not
    contiguous, stored values read from the default field's segments."""

    _contiguous = False

    def __init__(self, reader: IndexReader):
        self.reader = reader

    @staticmethod
    def live_mask(docs):
        return None

    def stored(self, docs: np.ndarray, col: str):
        out = [None] * len(docs)
        for sr in self.reader.segments():
            idx = np.nonzero(np.isin(docs, sr.doc_ids))[0]
            if len(idx):
                for j, v in zip(idx, sr.stored(docs[idx], col)):
                    out[j] = v
        return out


class _FieldLeaf(_Weight):
    """A leaf: its field's Searcher evaluates it whole, complete float64
    scores on global docIDs. An absent field goes to the default
    field's Searcher, whose rewrite matches it to nothing."""

    def __init__(self, s, q):
        super().__init__(s, q)
        self.q = q
        self.searcher = s.searchers.get(getattr(q, "field", None),
                                        s.searchers[s.default_field])

    def scores(self, sr):
        docs, scores = self.searcher.eval_complete(self.q)
        return (docs, scores) if len(docs) else (None, None)

    def matches(self, sr):
        return self.searcher.match_docs(self.q)


class MultiFieldSearcher:
    # the combinators sum and scale on the float64 rails
    exact64 = True
    _live = staticmethod(Searcher._live)

    def __init__(self, out_dir: str, similarity: str = "lucene"):
        meta = read_multi_field_meta(out_dir)
        self.default_field = meta["default_field"]
        self.fields = meta["fields"]
        self.searchers = {
            f: Searcher(IndexReader(os.path.join(out_dir, "fields", f)),
                        similarity=similarity)
            for f in self.fields}
        self._float32 = similarity != "bm25_exact64"
        self._docs = _AllDocs(self.searchers[self.default_field].reader)

    def _weight_of(self, q: Query) -> _Weight:
        if isinstance(q, BoostQuery):
            q = FunctionScoreQuery(q.inner, "_score", q.boost)
        return _COMBINATORS.get(type(q), _FieldLeaf)(self, q)

    # -- public API ----------------------------------------------------------
    def search(self, q: Query, k: int = 10) -> TopDocs:
        k = _check_k(k)
        docs, scores = self._weight_of(q).scores(self._docs)
        if docs is None:
            return TopDocs(np.empty(0, np.int64), np.empty(0, np.float32))
        return _top_k(docs, scores.astype(np.float32) if self._float32
                      else scores, k)

    def match_docs(self, q: Query) -> np.ndarray:
        return self._weight_of(q).matches(self._docs)

    def count(self, q: Query) -> int:
        return len(self.match_docs(q))
