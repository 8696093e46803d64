"""Cross-field search over a multi-field index
(``index/multi_field.build_multi_field_index`` layout).

Leaf queries route to their field's single-field Searcher (exact
per-field BM25 stats/norms); boolean/dismax trees combine the COMPLETE
per-leaf (docs, scores) on global docIDs — the BooleanWeight-over-
fields analog (``index/FieldInfos.java`` gives the reference per-field
postings inside one segment; here each field is its own index sharing
docIDs). Booleans combine in ``_combine_bool`` below, with the rules of
the single-field boolean weight (scores sum in double, MUST then
SHOULD, FILTER matches without scoring, minShouldMatch gates SHOULD),
and dismax trees in ``searcher._combine_dismax`` (max + tie_breaker *
rest).
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np

from ..index.multi_field import read_multi_field_meta
from .query import (
    BooleanQuery,
    BoostQuery,
    ConstantScoreQuery,
    DisjunctionMaxQuery,
    MatchAllDocsQuery,
    Query,
)
from .reader import IndexReader
from .searcher import (
    Searcher,
    TopDocs,
    _check_k,
    _combine_dismax,
    _top_k,
    lookup,
)


def _combine_bool(m_parts, f_parts, s_parts, msm, must_nots):
    """BooleanWeight over complete per-field results: MUST and FILTER
    intersect, scores sum MUST then SHOULD (DisjunctionSumScorer),
    minShouldMatch gates SHOULD, MUST_NOT excludes. ``m_parts`` and
    ``s_parts`` are (docs sorted, float64 scores); ``f_parts`` and the
    lazily consumed ``must_nots`` are doc arrays. Returns (docs,
    float64 sums)."""
    if msm > len(s_parts):  # fewer SHOULD than minShouldMatch: no match
        return np.empty(0, np.int64), np.empty(0, np.float64)
    req = [d for d, _ in m_parts] + list(f_parts)
    if req:
        cand = req[0]
        for d in req[1:]:
            cand = cand[np.isin(cand, d, assume_unique=True)]
    else:
        msm = max(msm, 1)
        cand = np.unique(np.concatenate(
            [d for d, _ in s_parts] + [np.empty(0, np.int64)]))
    sums = np.zeros(len(cand), np.float64)
    counts = np.zeros(len(cand), np.int64)
    for i, (d, s) in enumerate(m_parts + s_parts):
        if len(d) and len(cand):
            hit, vals = lookup(d, s, cand)
            sums[hit] += vals
            if i >= len(m_parts):
                counts += hit
    keep = counts >= msm
    for d in must_nots:
        if not keep.any():
            break
        keep &= ~np.isin(cand, d, assume_unique=True)
    return cand[keep], sums[keep]


class MultiFieldSearcher:
    def __init__(self, out_dir: str, similarity: str = "lucene"):
        meta = read_multi_field_meta(out_dir)
        self.default_field = meta["default_field"]
        self.fields = meta["fields"]
        self.searchers = {
            f: Searcher(IndexReader(os.path.join(out_dir, "fields", f)),
                        similarity=similarity)
            for f in self.fields}
        self.exact64 = similarity == "bm25_exact64"

    # -- evaluation ----------------------------------------------------------
    def _leaf(self, q: Query):
        fld = getattr(q, "field", None) or self.default_field
        s = self.searchers.get(fld)
        if s is None:  # absent field matches nothing (Lucene semantics)
            return np.empty(0, np.int64), np.empty(0, np.float64)
        if getattr(q, "field", None) is not None:
            q = replace(q, field=None)
        return s.eval_complete(q)

    def _evaluate(self, q: Query):
        if isinstance(q, BoostQuery):
            d, s = self._evaluate(q.inner)
            return d, s * np.float64(q.boost)
        if isinstance(q, ConstantScoreQuery):
            d, _ = self._evaluate(q.inner)
            return d, np.full(len(d), np.float64(q.boost))
        if isinstance(q, MatchAllDocsQuery):
            parts = [sr.doc_ids.astype(np.int64)
                     for sr in self.searchers[self.default_field]
                     .reader.segments()]
            docs = (np.sort(np.concatenate(parts)) if parts
                    else np.empty(0, np.int64))
            return docs, np.full(len(docs), np.float64(q.boost))
        if isinstance(q, DisjunctionMaxQuery):
            return _combine_dismax([self._evaluate(s) for s in q.disjuncts],
                                   q.tie_breaker)
        if isinstance(q, BooleanQuery):
            return _combine_bool(
                [self._evaluate(c) for c in q.must],
                [self._evaluate(c)[0] for c in q.filter],
                [self._evaluate(c) for c in q.should], q.min_should_match,
                (self._evaluate(c)[0] for c in q.must_not))
        return self._leaf(q)

    # -- public API ----------------------------------------------------------
    def search(self, q: Query, k: int = 10) -> TopDocs:
        k = _check_k(k)
        docs, scores = self._evaluate(q)
        if len(docs) == 0:
            return TopDocs(np.empty(0, np.int64), np.empty(0, np.float32))
        sc = scores if self.exact64 else scores.astype(np.float32)
        return _top_k(docs, sc, k)

    def match_docs(self, q: Query) -> np.ndarray:
        docs, _ = self._evaluate(q)
        return docs

    def count(self, q: Query) -> int:
        return len(self.match_docs(q))
