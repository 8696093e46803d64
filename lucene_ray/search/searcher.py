"""Top-k BM25 search over an index: per-segment scoring + global merge.

Mirrors the reference query path (SURVEY.md §3.3):
- global stats computed once per query (TermStates / CollectionStatistics)
- per-segment scorers: conjunction leads with the rarest term,
  block-skips the others (ConjunctionDISI leapfrog) and prunes lead
  blocks against the live threshold (BlockMaxConjunctionScorer);
  disjunctions run doc-at-a-time block-max WAND over merged block
  windows (WANDScorer/ImpactsDISI role) with an adaptive dense
  fallback when bounds cannot prune
- tombstoned docs are masked at every candidate-formation point, so
  pruning thresholds never rise from deleted docs
- top-k ties break toward the lower global docID (HitQueue.java:78-81);
  cross-segment merge = sort by (-score, doc_id) (TopDocs.merge);
  a shared min-competitive exchange threads cross-worker floors in
- scores: float32 per term, summed in double, cast to float
  (DisjunctionSumScorer semantics); every pruned path is bit-identical
  to the exhaustive evaluation
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import bm25
from .postings_io import lookup_postings
from .query import (
    MAX_CLAUSE_COUNT,
    BooleanQuery,
    BoostQuery,
    ComplexPhraseQuery,
    ConstantScoreQuery,
    CoveringQuery,
    DisjunctionMaxQuery,
    DocValuesTermsQuery,
    FunctionScoreQuery,
    FuzzyQuery,
    MatchAllDocsQuery,
    MultiPhraseQuery,
    NumericRangeQuery,
    PhraseQuery,
    PrefixQuery,
    Query,
    RangeFieldQuery,
    RegexpQuery,
    SpanNearQuery,
    TermInSetQuery,
    TermQuery,
    TermRangeQuery,
    WildcardQuery,
    expand_terms,
    query_terms,
)
from .reader import IndexReader, SegmentReader
from ..codecs.postings import unpack_postings

_MULTI_TERM = (PrefixQuery, WildcardQuery, RegexpQuery, TermRangeQuery,
               FuzzyQuery)


class TopDocs(NamedTuple):
    doc_ids: np.ndarray  # int64
    scores: np.ndarray  # float32, descending (ties: doc_id ascending)


def _top_k(docs: np.ndarray, scores: np.ndarray, k: int) -> TopDocs:
    n = len(docs)
    if n == 0:
        return TopDocs(np.empty(0, np.int64), np.empty(0, np.float32))
    if n > 4 * k and n > 2048:
        # threshold-select then sort the survivors (ties kept)
        kth = np.partition(scores, n - k)[n - k]
        mask = scores >= kth
        docs, scores = docs[mask], scores[mask]
    order = np.lexsort((docs, -scores.astype(np.float64)))[:k]
    return TopDocs(docs[order].astype(np.int64), scores[order])


def merge_top_docs(parts: list[TopDocs], k: int) -> TopDocs:
    """TopDocs.merge: score desc, then global docID asc."""
    if not parts:
        return TopDocs(np.empty(0, np.int64), np.empty(0, np.float32))
    docs = np.concatenate([p.doc_ids for p in parts])
    scores = np.concatenate([p.scores for p in parts])
    order = np.lexsort((docs, -scores.astype(np.float64)))[:k]
    return TopDocs(docs[order], scores[order])


class _TermPlan(NamedTuple):
    term: str
    weight: np.float32  # boost * idf (0 df -> weight computed but no postings)
    df: int
    ttf: int = 0       # global total term freq (custom Similarity models)
    boost: float = 1.0


class Searcher:
    """Searches one IndexReader (all or a subset of its segments)."""

    def __init__(self, reader: IndexReader, k1: float = bm25.K1, b: float = bm25.B,
                 similarity: str = "lucene"):
        """similarity: 'lucene' = exact float32 norm-quantized reference
        formula; 'bm25_exact64' = double precision with exact doc lengths
        (the Similarity plug point, SURVEY.md §2.10 — also what an
        ANSI-SQL oracle computes); or a ``similarities.Similarity``
        object (Classic TF-IDF / LMDirichlet / Boolean) which runs on
        the exact-dl unpruned rails (BM25 impact bounds don't apply)."""
        from .similarities import Similarity as _Sim
        self.reader = reader
        self.k1, self.b = k1, b
        self.sim = similarity if isinstance(similarity, _Sim) else None
        self.exact64 = similarity == "bm25_exact64" or self.sim is not None
        n = max(reader.doc_count, 1)
        self.avgdl = bm25.avg_field_length(max(reader.sum_total_term_freq, 1), n)
        self.avgdl64 = max(reader.sum_total_term_freq, 1) / float(n)
        self.cache = bm25.norm_inverse_cache(self.avgdl, k1, b)
        # MaxScoreCache role (search/MaxScoreCache.java:34): per-block
        # impact upper bounds memoized per (segment, term, weight) so
        # repeated hot terms skip the skyline recompute
        self._ub_cache: dict[tuple, np.ndarray] = {}

    def _block_ubs(self, sr: SegmentReader, p, term: str,
                   weight: np.float32) -> np.ndarray:
        """Cached ``bm25.max_block_scores`` — the EXACT float32 output
        array (read-only by convention), so every pruning decision is
        bit-identical to the uncached path. Impacts are immutable per
        segment dir (deletes/dv-updates never touch skylines), so the
        (segment, term, weight) key is stable."""
        key = (sr._seg_dir, term, float(weight))
        ub = self._ub_cache.get(key)
        if ub is None:
            ub = bm25.max_block_scores(
                np.asarray(p.imp_freqs), np.asarray(p.imp_norms),
                np.asarray(p.imp_offsets), weight, self.cache)
            if len(self._ub_cache) >= 65536:
                self._ub_cache.clear()
            self._ub_cache[key] = ub
        return ub

    def _norm_data(self, sr: SegmentReader, cand: np.ndarray) -> np.ndarray:
        return sr.doc_lens_for(cand) if self.exact64 else sr.norms_for(cand)

    def _scores_term(self, t: "_TermPlan") -> bool:
        return t.df > 0 if self.exact64 else t.weight > 0

    def _contrib(self, t: "_TermPlan", freqs: np.ndarray,
                 norm_data: np.ndarray) -> np.ndarray:
        if self.sim is not None:
            return self.sim.term_score(
                freqs, norm_data, t.df, t.ttf, t.boost,
                self.reader.doc_count, self.reader.sum_total_term_freq)
        if self.exact64:
            return bm25.score64(freqs, norm_data, t.df, self.reader.doc_count,
                                self.avgdl64, self.k1, self.b)
        return bm25.score_freqs(freqs, norm_data, t.weight, self.cache).astype(np.float64)

    # -- weights ------------------------------------------------------------
    def _plan(self, q: Query) -> dict:
        terms = sorted(set(query_terms(q)))
        stats = self.reader.term_stats(terms)
        n = self.reader.doc_count

        def tp(tq: TermQuery) -> _TermPlan:
            df, ttf = stats[tq.term]
            w = bm25.term_weight(tq.boost, df, n) if df > 0 else np.float32(0)
            return _TermPlan(tq.term, w, df, ttf, tq.boost)

        if isinstance(q, TermQuery):
            return {"must": [tp(q)], "should": [], "must_not": [], "filter": [],
                    "msm": 0}
        assert isinstance(q, BooleanQuery)
        return {
            "must": [tp(t) for t in q.must],
            "should": [tp(t) for t in q.should],
            "must_not": [_TermPlan(t.term, np.float32(0), stats[t.term][0])
                         for t in q.must_not],
            "filter": [_TermPlan(t.term, np.float32(0), stats[t.term][0])
                       for t in q.filter],
            "msm": q.min_should_match,
        }

    # -- rewrite (Query.rewrite fixpoint, SURVEY §3.3 step 2) ---------------
    # querying a field the index doesn't have matches nothing (Lucene
    # semantics for absent fields): rewrite to an impossible term
    _NO_MATCH = "\x00\x00absent-field"

    def _field_ok(self, q: Query) -> bool:
        f = getattr(q, "field", None)
        return f is None or f == self.reader.field

    def _expand(self, q: Query) -> list[str]:
        from .query import expansion_range
        lo, hi = expansion_range(q)
        return expand_terms(q, self.reader.vocab(lo, hi))

    def rewrite(self, q: Query, boost: float = 1.0) -> Query:
        """Expand multi-term queries against the term dictionary and push
        boosts down. Prefix/wildcard/regexp/range use the reference's
        default constant-score rewrite; fuzzy rewrites to a scored
        disjunction of the expanded terms."""
        if isinstance(q, BoostQuery):
            return self.rewrite(q.inner, boost * q.boost)
        if not self._field_ok(q):
            return TermQuery(self._NO_MATCH, getattr(q, "boost", 1.0) * boost)
        if isinstance(q, TermQuery):
            return TermQuery(q.term, q.boost * boost)
        if isinstance(q, BooleanQuery):
            return BooleanQuery(
                must=tuple(self.rewrite(s, boost) for s in q.must),
                should=tuple(self.rewrite(s, boost) for s in q.should),
                must_not=tuple(self.rewrite(s) for s in q.must_not),
                filter=tuple(self.rewrite(s) for s in q.filter),
                min_should_match=q.min_should_match)
        if isinstance(q, ConstantScoreQuery):
            return ConstantScoreQuery(self.rewrite(q.inner), q.boost * boost)
        if isinstance(q, DisjunctionMaxQuery):
            return DisjunctionMaxQuery(
                tuple(self.rewrite(s, boost) for s in q.disjuncts),
                q.tie_breaker)
        if isinstance(q, MatchAllDocsQuery):
            return MatchAllDocsQuery(q.boost * boost)
        if isinstance(q, NumericRangeQuery):
            from dataclasses import replace as _rep
            return _rep(q, boost=q.boost * boost)
        if isinstance(q, DocValuesTermsQuery):
            from dataclasses import replace as _rep
            return _rep(q, boost=q.boost * boost)
        if isinstance(q, PhraseQuery):
            if len(q.terms) == 1:
                return TermQuery(q.terms[0], q.boost * boost)
            return PhraseQuery(q.terms, q.boost * boost, q.slop)
        if isinstance(q, MultiPhraseQuery):
            if len(q.positions) == 1 and len(q.positions[0]) == 1:
                return TermQuery(q.positions[0][0], q.boost * boost)
            if all(len(a) == 1 for a in q.positions):
                # no alternatives anywhere -> plain phrase
                return PhraseQuery(tuple(a[0] for a in q.positions),
                                   q.boost * boost)
            return MultiPhraseQuery(q.positions, q.boost * boost)
        if isinstance(q, SpanNearQuery):
            if len(q.terms) == 1:
                return TermQuery(q.terms[0], q.boost * boost)
            return SpanNearQuery(q.terms, q.slop, q.in_order,
                                 q.boost * boost)
        if isinstance(q, ComplexPhraseQuery):
            # expand per-slot sub-queries against the term dict, then
            # lower (ComplexPhraseQueryParser.ComplexPhraseQuery.rewrite)
            slots: list[tuple] = []
            for alts in q.positions:
                terms: list[str] = []
                for a in alts:
                    if isinstance(a, str):
                        terms.append(a)
                    else:
                        terms.extend(self._expand(a))
                if not terms:
                    # a slot with no matching terms can never match
                    return TermQuery(self._NO_MATCH, q.boost * boost)
                slots.append(tuple(dict.fromkeys(terms)))
            if q.slop == 0:
                return self.rewrite(
                    MultiPhraseQuery(tuple(slots), q.boost), boost)
            if all(len(s) == 1 for s in slots):
                return self.rewrite(
                    PhraseQuery(tuple(s[0] for s in slots), q.boost,
                                q.slop), boost)
            # sloppy with alternatives: capped disjunction of ORDERED
            # span variants (ComplexPhraseQueryParser.java:335 builds
            # SpanNearQuery with inOrder=true by default, so "a b*"~2
            # must NOT match reversed-order docs)
            import itertools
            n_var = 1
            for s in slots:
                n_var *= len(s)
            if n_var > MAX_CLAUSE_COUNT:
                raise ValueError(
                    f"complex phrase expands to {n_var} variants "
                    f"(> MAX_CLAUSE_COUNT={MAX_CLAUSE_COUNT})")
            variants = tuple(
                SpanNearQuery(combo, q.slop, True, 1.0)
                for combo in itertools.product(*slots))
            return self.rewrite(
                DisjunctionMaxQuery(variants, 0.0), q.boost * boost)
        if isinstance(q, FunctionScoreQuery):
            return FunctionScoreQuery(self.rewrite(q.inner), q.expression,
                                      q.boost * boost)
        if isinstance(q, CoveringQuery):
            # boost distributes over the summed sub scores
            return CoveringQuery(
                tuple(self.rewrite(s, boost) for s in q.queries),
                q.min_match)
        if isinstance(q, RangeFieldQuery):
            return self.rewrite(q.lower_to_bool(), boost)
        if isinstance(q, FuzzyQuery):
            terms = self._expand(q)
            if q.boost_by_similarity:
                # TopTermsBoostOnlyBooleanQueryRewrite: each term boosts
                # by 1 - d/min(|t|, |q|) (FuzzyTermsEnum boost att)
                from .query import _edit_distance
                clauses = []
                for t in terms:
                    d = _edit_distance(t, q.term, q.max_edits,
                                       q.transpositions)
                    sim = 1.0 - d / min(len(t), len(q.term))
                    clauses.append(TermQuery(t, q.boost * boost * sim))
                return BooleanQuery(should=tuple(clauses))
            return BooleanQuery(should=tuple(
                TermQuery(t, q.boost * boost) for t in terms))
        if isinstance(q, TermInSetQuery):
            # no term-dict scan, no clause cap: the given terms ARE the
            # set; absent ones contribute no postings
            return ConstantScoreQuery(
                BooleanQuery(should=tuple(TermQuery(t)
                                          for t in dict.fromkeys(q.terms))),
                q.boost * boost)
        if isinstance(q, _MULTI_TERM):
            terms = self._expand(q)
            return ConstantScoreQuery(
                BooleanQuery(should=tuple(TermQuery(t) for t in terms)),
                q.boost * boost)
        raise TypeError(f"unknown query type {type(q)}")

    # -- public API ---------------------------------------------------------
    def _prefetch(self, terms: list[str]) -> None:
        """Load all query terms' posting rows, segment by segment, with
        one batched row-group-pruned read per shard. Warm segments
        return without a read."""
        if terms:
            for sr in self.reader.segments():
                sr.ensure_terms(terms)

    def search(self, q: Query, k: int = 10, *, threshold_cb=None,
               publish_cb=None) -> TopDocs:
        """Top-k search. ``threshold_cb``/``publish_cb`` plug a shared
        min-competitive score exchange (MaxScoreAccumulator.java:24):
        before each segment the external floor is folded in; after each
        segment the local k-th score is published, so concurrent workers
        prune with each other's progress."""
        q = self.rewrite(q)
        if isinstance(q, FunctionScoreQuery):
            return self._function_score_topk(q, k)
        prep = self._prepare(q)
        self._prefetch(sorted(set(query_terms(q))))
        parts = []
        threshold = -np.inf
        for sr in self.reader.segments():
            if threshold_cb is not None:
                ext = threshold_cb()
                if ext is not None and ext > threshold:
                    threshold = float(ext)
            docs, scores = self._eval(sr, prep, k, threshold, top=True)
            if docs is None or len(docs) == 0:
                continue
            td = _top_k(docs, scores, k)
            if len(td.doc_ids):
                parts.append(td)
                all_scores = np.concatenate([p.scores for p in parts])
                if len(all_scores) >= k:
                    kth = float(np.partition(all_scores, len(all_scores) - k)
                                [len(all_scores) - k])
                    if kth > threshold:
                        threshold = kth
                        if publish_cb is not None:
                            publish_cb(kth)
        return merge_top_docs(parts, k)

    def search_after(self, q: Query, k: int = 10,
                     after: tuple | None = None) -> TopDocs:
        """Paging — ``IndexSearcher.searchAfter(ScoreDoc, Query, n)``:
        the top k hits strictly after the (score, docID) anchor in the
        global (score desc, docID asc) order. Baseline implementation
        over the COMPLETE unpruned evaluation (deep paging rarely
        benefits from impact pruning; the anchor is an exact
        (score, doc) pair from the previous page)."""
        if after is None:
            return self.search(q, k)
        a_score, a_doc = after
        docs, scores = self.eval_complete(q)
        keep = (scores < a_score) | ((scores == a_score) &
                                     (docs > a_doc))
        return _top_k(docs[keep], scores[keep], k)

    def collect(self, q: Query, collector):
        """Custom collector protocol (Collector/CollectorManager role,
        ``search/CollectorManager.java``): COMPLETE per-segment
        (sr, docs, scores) feed ``collector.collect_segment``; returns
        ``collector.result()``. Built-ins (top-k, count, facets) are
        specializations of this surface."""
        q = self.rewrite(q)
        prep = self._prepare(q)
        self._prefetch(sorted(set(query_terms(q))))
        for sr in self.reader.segments():
            docs, scores = self._eval(sr, prep, 10, -np.inf)
            if docs is not None and len(docs):
                collector.collect_segment(sr, docs, scores)
        return collector.result()

    def rescore(self, top: "TopDocs", second_q: Query, weight: float = 1.0,
                k: int | None = None) -> "TopDocs":
        """Two-pass rescoring (``search/QueryRescorer.java``; tests
        ``TestQueryRescorer.java``): new score = first-pass score +
        ``weight`` * second-query score for first-pass hits the second
        query matches (unchanged otherwise), re-ranked score desc /
        docID asc. The second query is evaluated complete and joined to
        the candidate set — only candidate docs contribute."""
        if k is None:
            k = len(top.doc_ids)
        if len(top.doc_ids) == 0:
            return top
        cand = np.asarray(top.doc_ids, dtype=np.int64)
        d2, s2 = self.eval_complete(second_q)
        second = np.zeros(len(cand), dtype=np.float64)
        if len(d2):
            idx = np.searchsorted(d2, cand)
            ok = idx < len(d2)
            ok[ok] &= d2[idx[ok]] == cand[ok]
            second[ok] = s2[idx[ok]]
        new = np.asarray(top.scores, dtype=np.float64) + weight * second
        return _top_k(cand, new, k)

    def eval_complete(self, q: Query):
        """COMPLETE (docs, scores float64) across all segments, unpruned
        — the building block cross-field/cross-index combiners use
        (docs sorted ascending, scores aligned)."""
        q = self.rewrite(q)
        prep = self._prepare(q)
        self._prefetch(sorted(set(query_terms(q))))
        parts_d, parts_s = [], []
        for sr in self.reader.segments():
            d, s = self._eval(sr, prep, 10, -np.inf, top=False)
            if d is not None and len(d):
                parts_d.append(d)
                parts_s.append(s.astype(np.float64))
        if not parts_d:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        docs = np.concatenate(parts_d)
        scores = np.concatenate(parts_s)
        if not np.all(docs[:-1] <= docs[1:]):
            order = np.argsort(docs, kind="stable")
            docs, scores = docs[order], scores[order]
        return docs, scores

    def doc_values(self, docs: np.ndarray, col: str) -> np.ndarray:
        """float64 values of a stored/doc-value column for global
        docIDs — segment-local pushdown reads (doc_id + col only), the
        DoubleValuesSource role."""
        docs = np.asarray(docs, dtype=np.int64)
        vals = np.full(len(docs), np.nan, dtype=np.float64)
        missing = np.ones(len(docs), dtype=bool)
        for sr in self.reader.segments():
            if not missing.any():
                break
            idx = np.nonzero(missing)[0]
            got = sr.stored(docs[idx], col)
            for j, v in zip(idx, got):
                if v is not None:
                    vals[j] = float(v)
                    missing[j] = False
        return vals

    def _function_score_topk(self, q: FunctionScoreQuery, k: int) -> TopDocs:
        """FunctionScoreQuery evaluation: complete inner (docs, scores),
        doc-value fetch for the expression's columns, one vectorized
        expression eval, top-k (ties -> lower docID). Unpruned by
        design — expression scores are opaque to block-max bounds."""
        from .expressions import compile_expression

        expr = compile_expression(q.expression)
        docs, scores = self.eval_complete(q.inner)
        if len(docs) == 0:
            return TopDocs(np.empty(0, np.int64), np.empty(0, np.float64))
        variables = {"_score": scores}
        for col in sorted(expr.variables - {"_score"}):
            variables[col] = self.doc_values(docs, col)
        new = np.broadcast_to(
            np.asarray(expr(variables) * q.boost, np.float64),
            docs.shape).copy()  # constant expressions yield 0-d
        return _top_k(docs, new, k)

    def explain(self, q: Query, doc_id: int) -> dict:
        """``IndexSearcher.explain(Query, doc)`` role: an Explanation
        tree ``{value, description, details: [...]}`` whose root value
        equals the doc's score under this searcher (0 / "no match" when
        the doc doesn't match). Term clauses break down into the
        exact64 BM25 factors (idf, tf, dl, avgdl) the way
        ``BM25Similarity.explain`` does."""
        import math

        q = self.rewrite(q)
        if isinstance(q, TermQuery):
            docs, scores = self.eval_complete(q)
            pos = np.searchsorted(docs, doc_id)
            if pos >= len(docs) or docs[pos] != doc_id:
                return {"value": 0.0,
                        "description": f"no matching term {q.term!r}",
                        "details": []}
            n = self.reader.doc_count
            df = self.reader.term_stats([q.term])[q.term][0]
            idf_v = math.log(1 + (n - df + 0.5) / (df + 0.5))
            tf = dl = None
            for sr in self.reader.segments():
                p = sr.get_postings(q.term)
                if p is None:
                    continue
                got = lookup_postings(p, np.array([doc_id]))
                if got[0] > 0:
                    tf = int(got[0])
                    dl = float(sr.doc_lens_for(
                        np.array([doc_id], np.int64))[0])
                    break
            return {
                "value": float(scores[pos]),
                "description": f"weight({q.term} in {doc_id}) "
                               "[BM25Similarity]",
                "details": [
                    {"value": idf_v,
                     "description": f"idf, n={n}, df={df}",
                     "details": []},
                    {"value": tf, "description": "freq", "details": []},
                    {"value": dl, "description": "dl", "details": []},
                    {"value": float(self.avgdl64),
                     "description": "avgdl", "details": []},
                ],
            }
        if isinstance(q, ConstantScoreQuery):
            if len(self._seg_match([doc_id], q)) == 0:
                return {"value": 0.0, "description": "no match",
                        "details": []}
            return {"value": float(q.boost),
                    "description": "ConstantScore",
                    "details": [self.explain(q.inner, doc_id)]}
        if isinstance(q, BooleanQuery):
            details = []
            total = 0.0
            matched = self._seg_match([doc_id], q)
            if len(matched) == 0:
                return {"value": 0.0,
                        "description": "no match (boolean)", "details": []}
            for group, name in ((q.must, "must"), (q.should, "should")):
                for sub in group:
                    e = self.explain(sub, doc_id)
                    if e["value"] != 0.0 or e["details"]:
                        if e["value"]:
                            e = dict(e)
                            e["description"] += f" [{name}]"
                            details.append(e)
                            total += e["value"]
            return {"value": total,
                    "description": "sum of matching clauses",
                    "details": details}
        # generic fallback: complete eval, no factor breakdown
        docs, scores = self.eval_complete(q)
        pos = np.searchsorted(docs, doc_id)
        if pos >= len(docs) or docs[pos] != doc_id:
            return {"value": 0.0, "description": "no match", "details": []}
        return {"value": float(scores[pos]),
                "description": type(q).__name__, "details": []}

    def _seg_match(self, ids, q: Query) -> np.ndarray:
        """Of ``ids``, those matching q (helper for explain)."""
        ids = np.asarray(ids, dtype=np.int64)
        out = []
        for sr in self.reader.segments():
            d = self._match_docs(sr, q)
            out.append(ids[np.isin(ids, d)])
        return np.unique(np.concatenate(out)) if out else \
            np.empty(0, np.int64)

    def count(self, q: Query) -> int:
        q = self.rewrite(q)
        self._prefetch(sorted(set(query_terms(q))))
        total = 0
        for sr in self.reader.segments():
            docs = self._match_docs(sr, q)
            total += len(docs)
        return total

    def match_docs(self, q: Query) -> np.ndarray:
        """All matching global docIDs, sorted (match-only, no scores)."""
        q = self.rewrite(q)
        self._prefetch(sorted(set(query_terms(q))))
        out = []
        for sr in self.reader.segments():
            docs = self._match_docs(sr, q)
            if len(docs):
                out.append(docs)
        return np.sort(np.concatenate(out)) if out else np.empty(0, np.int64)

    # -- generalized per-segment evaluation ---------------------------------
    def _prepare(self, q: Query):
        if isinstance(q, BooleanQuery) and any(
                not isinstance(c, TermQuery)
                for c in (*q.must, *q.should, *q.must_not, *q.filter)):
            # nested boolean (query-parser groups): generic recursive
            # evaluation — children return COMPLETE (docs, scores)
            return ("nbool",
                    [self._prepare(c) for c in q.must],
                    [self._prepare(c) for c in q.should],
                    [self._prepare(c) for c in q.must_not],
                    [self._prepare(c) for c in q.filter],
                    q.min_should_match)
        if isinstance(q, (TermQuery, BooleanQuery)):
            return ("bool", self._plan(q))
        if isinstance(q, ConstantScoreQuery):
            return ("const", self._prepare(q.inner), np.float64(q.boost))
        if isinstance(q, MatchAllDocsQuery):
            return ("matchall", np.float64(q.boost))
        if isinstance(q, NumericRangeQuery):
            return ("numrange", q)
        if isinstance(q, DocValuesTermsQuery):
            return ("dvterms", q)
        if isinstance(q, DisjunctionMaxQuery):
            return ("dismax", [self._prepare(s) for s in q.disjuncts],
                    float(q.tie_breaker))
        if isinstance(q, CoveringQuery):
            from .expressions import compile_expression
            return ("covering", [self._prepare(s) for s in q.queries],
                    compile_expression(q.min_match))
        if isinstance(q, (PhraseQuery, SpanNearQuery)):
            stats = self.reader.term_stats(list(q.terms))
            n = self.reader.doc_count
            # idf summed in double then cast (BM25Similarity.idfExplain)
            idf_sum = 0.0
            dfs = []
            for t in q.terms:
                df = stats[t][0]
                dfs.append(df)
                if df > 0:
                    idf_sum += float(bm25.idf(df, n))
            weight = np.float32(np.float32(q.boost) * np.float32(idf_sum))
            if isinstance(q, SpanNearQuery):
                return ("span", q.terms, weight, dfs, q.slop, q.in_order)
            return ("phrase", q.terms, weight, dfs, q.slop)
        if isinstance(q, MultiPhraseQuery):
            # idf over every alternative in every slot
            # (MultiPhraseWeight collects all TermStatistics)
            flat = [t for alts in q.positions for t in alts]
            stats = self.reader.term_stats(flat)
            n = self.reader.doc_count
            idf_sum = 0.0
            dfs = []
            for t in flat:
                df = stats[t][0]
                dfs.append(df)
                if df > 0:
                    idf_sum += float(bm25.idf(df, n))
            weight = np.float32(np.float32(q.boost) * np.float32(idf_sum))
            return ("mphrase", q.positions, weight, dfs, 0)
        raise TypeError(f"unpreparable query {type(q)}")

    def _eval(self, sr: SegmentReader, prep, k: int, threshold: float,
              top: bool = False):
        kind = prep[0]
        if kind == "bool":
            return self._match_and_score(sr, prep[1], scoring=True,
                                         k=k, threshold=threshold, top=top)
        if kind == "const":
            inner = prep[1]
            if inner[0] == "bool":  # match-only, skip inner scoring
                docs, _ = self._match_and_score(sr, inner[1], scoring=False)
            else:
                docs, _ = self._eval(sr, inner, k, -np.inf)
            if docs is None:
                return None, None
            dt = np.float64 if self.exact64 else np.float32
            return docs, np.full(len(docs), prep[2], dtype=dt)
        if kind == "matchall":
            docs = sr.live_doc_ids()
            dt = np.float64 if self.exact64 else np.float32
            return docs, np.full(len(docs), prep[1], dtype=dt)
        if kind in ("phrase", "span", "mphrase"):
            if kind == "span":
                docs, freqs = self._span_freqs(sr, prep[1], prep[4],
                                               prep[5])
            elif kind == "mphrase":
                docs, freqs = self._mphrase_freqs(sr, prep[1])
            else:
                docs, freqs = self._phrase_freqs(sr, prep[1], prep[4])
            if docs is None or len(docs) == 0:
                return None, None
            weight = prep[2]
            if self.exact64:
                # exact64 phrase: summed-idf weight in double, exact dl
                import math
                n = self.reader.doc_count
                idf_sum = sum(math.log(1 + (n - df + 0.5) / (df + 0.5))
                              for df in prep[3] if df > 0)
                dl = sr.doc_lens_for(docs).astype(np.float64)
                tf = freqs.astype(np.float64)
                scores = idf_sum * tf / (
                    tf + self.k1 * (1 - self.b + self.b * dl / self.avgdl64))
                return docs, scores
            norms = sr.norms_for(docs)
            scores = bm25.score_freqs(freqs, norms, weight, self.cache)
            return docs, scores
        if kind == "numrange":
            nq = prep[1]
            docs = sr.numeric_range_docs(nq.column, nq.lower, nq.upper,
                                         nq.include_lower, nq.include_upper)
            docs, = self._live(sr, docs)
            dt = np.float64 if self.exact64 else np.float32
            return docs, np.full(len(docs), nq.boost, dtype=dt)
        if kind == "dvterms":
            dq = prep[1]
            docs = sr.dv_terms_docs(dq.column, dq.values)
            docs, = self._live(sr, docs)
            dt = np.float64 if self.exact64 else np.float32
            return docs, np.full(len(docs), dq.boost, dtype=dt)
        if kind == "nbool":
            return self._eval_nested(sr, prep, k)
        if kind == "dismax":
            per = [self._eval(sr, p, k, -np.inf) for p in prep[1]]
            per = [(d, s) for d, s in per if d is not None and len(d)]
            if not per:
                return None, None
            cand = np.unique(np.concatenate([d for d, _ in per]))
            mx = np.full(len(cand), -np.inf)
            total = np.zeros(len(cand), dtype=np.float64)
            cnt = np.zeros(len(cand), dtype=np.int64)
            for d, s in per:
                pos = np.searchsorted(cand, d)
                s64 = s.astype(np.float64)
                np.maximum.at(mx, pos, s64)
                total[pos] += s64
                cnt[pos] += 1
            tb = prep[2]
            scores = mx + tb * (total - mx)
            dt = np.float64 if self.exact64 else np.float32
            return cand, scores.astype(dt)
        if kind == "covering":
            # CoveringScorer: candidates = union of sub matches; keep
            # docs whose match COUNT >= max(1, minMatch(doc)); score =
            # sum of the matching subs' scores (complete, unpruned —
            # the per-doc minimum defeats block-max bounds).
            per = [self._eval(sr, p, k, -np.inf) for p in prep[1]]
            per = [(d, s) for d, s in per if d is not None and len(d)]
            if not per:
                return None, None
            cand = np.unique(np.concatenate([d for d, _ in per]))
            total = np.zeros(len(cand), dtype=np.float64)
            cnt = np.zeros(len(cand), dtype=np.int64)
            for d, s in per:
                pos = np.searchsorted(cand, d)
                total[pos] += s.astype(np.float64)
                cnt[pos] += 1
            expr = prep[2]
            variables = {}
            for col in sorted(expr.variables):
                got = sr.stored(cand, col)
                variables[col] = np.array(
                    [float(v) if v is not None else 0.0 for v in got],
                    dtype=np.float64)
            need = np.broadcast_to(
                np.asarray(expr(variables), np.float64), cand.shape)
            keep = cnt >= np.maximum(1, np.floor(need)).astype(np.int64)
            if not keep.any():
                return None, None
            dt = np.float64 if self.exact64 else np.float32
            return cand[keep], total[keep].astype(dt)
        raise AssertionError(kind)

    def _eval_nested(self, sr: SegmentReader, prep, k: int):
        """Generic boolean combiner over arbitrary sub-queries
        (BooleanWeight over non-term clauses): children are evaluated
        unpruned, scores sum in double (DisjunctionSumScorer), FILTER
        matches without scoring, minShouldMatch gates SHOULD."""
        _, musts, shoulds, must_nots, filters, msm = prep

        def ev(p):
            d, s = self._eval(sr, p, k, -np.inf)
            if d is None or len(d) == 0:
                return np.empty(0, np.int64), np.empty(0, np.float64)
            s = (np.zeros(len(d), np.float64) if s is None
                 else s.astype(np.float64))
            if not np.all(d[:-1] <= d[1:]):
                order = np.argsort(d, kind="stable")
                d, s = d[order], s[order]
            return d, s

        m_parts = [ev(p) for p in musts]
        f_parts = [ev(p)[0] for p in filters]
        cand = None
        for d, _ in m_parts:
            cand = d if cand is None else cand[np.isin(cand, d,
                                                       assume_unique=True)]
        for d in f_parts:
            cand = d if cand is None else cand[np.isin(cand, d,
                                                       assume_unique=True)]
        s_parts = [ev(p) for p in shoulds]
        eff_msm = msm
        if cand is None:
            if not s_parts:
                return None, None
            eff_msm = max(msm, 1)
            parts = [d for d, _ in s_parts if len(d)]
            if not parts:
                return None, None
            cand = np.unique(np.concatenate(parts))
        if len(cand) == 0:
            return None, None
        sums = np.zeros(len(cand), np.float64)
        counts = np.zeros(len(cand), np.int64)
        for d, s in m_parts:
            idx = np.searchsorted(cand, d)
            ok = (idx < len(cand)) & (cand[np.minimum(idx, len(cand) - 1)] == d)
            sums[idx[ok]] += s[ok]
        for d, s in s_parts:
            idx = np.searchsorted(cand, d)
            ok = (idx < len(cand)) & (cand[np.minimum(idx, len(cand) - 1)] == d)
            sums[idx[ok]] += s[ok]
            counts[idx[ok]] += 1
        if s_parts and eff_msm > 0:
            keep = counts >= eff_msm
            cand, sums = cand[keep], sums[keep]
        for p in must_nots:
            if len(cand) == 0:
                break
            d, _ = ev(p)
            keep = ~np.isin(cand, d, assume_unique=True)
            cand, sums = cand[keep], sums[keep]
        if len(cand) == 0:
            return None, None
        return cand, (sums if self.exact64 else sums.astype(np.float32))

    def _phrase_freqs(self, sr: SegmentReader, terms: tuple, slop: int = 0):
        """(docs, phrase_freq) for a phrase in one segment.

        slop == 0 — vectorized ExactPhraseMatcher: occurrences become
        keys ``doc_ord * 2^32 + (pos - i)``; intersecting the key sets
        across terms leaves one key per phrase start.
        slop > 0 — SloppyPhraseMatcher pq walk per candidate doc."""
        if slop > 0:
            return self._sloppy_freqs(sr, terms, slop)
        per_term = []
        for t in terms:
            got = sr.get_positions(t)
            if got is None:
                return None, None
            per_term.append(got)
        # candidate docs = conjunction (live only)
        cand, = self._live(sr, per_term[0][0])
        for docs, _f, _p in per_term[1:]:
            cand = cand[np.isin(cand, docs, assume_unique=True)]
            if len(cand) == 0:
                return None, None
        keys = None
        off = len(terms)  # keeps (pos - i + off) >= 0 within the ord block
        for i, (docs, freqs, pos) in enumerate(per_term):
            occ_doc = np.repeat(docs, freqs)
            sel = np.isin(occ_doc, cand)
            k = (np.searchsorted(cand, occ_doc[sel]).astype(np.int64) << 32) \
                + (pos[sel] - i + off)
            keys = k if keys is None else keys[np.isin(keys, k,
                                                       assume_unique=True)]
            if len(keys) == 0:
                return None, None
        doc_ord = (keys >> 32).astype(np.int64)
        pfreq = np.bincount(doc_ord, minlength=len(cand))
        hit = pfreq > 0
        return cand[hit], pfreq[hit].astype(np.int32)

    def _mphrase_freqs(self, sr: SegmentReader, positions: tuple):
        """(docs, phrase_freq) for a MultiPhraseQuery in one segment:
        each slot's occurrence set is the UNION of its alternatives'
        (doc, pos) pairs (MultiPhraseQuery.UnionPostingsEnum role), then
        the exact-phrase key intersection runs unchanged — occurrences
        become ``doc_ord * 2^32 + (pos - slot)`` keys whose cross-slot
        intersection leaves one key per phrase start."""
        slot_occ = []
        for alts in positions:
            docs_l, pos_l = [], []
            for t in dict.fromkeys(alts):
                got = sr.get_positions(t)
                if got is None:
                    continue
                docs, freqs, pos = got
                docs_l.append(np.repeat(docs, freqs))
                pos_l.append(pos)
            if not docs_l:
                return None, None  # a slot with no postings kills the phrase
            slot_occ.append((np.concatenate(docs_l), np.concatenate(pos_l)))
        cand = np.unique(slot_occ[0][0])
        cand, = self._live(sr, cand)
        for od, _ in slot_occ[1:]:
            cand = cand[np.isin(cand, od)]
            if len(cand) == 0:
                return None, None
        keys = None
        off = len(slot_occ)
        for i, (od, op) in enumerate(slot_occ):
            sel = np.isin(od, cand)
            k = (np.searchsorted(cand, od[sel]).astype(np.int64) << 32) \
                + (op[sel] - i + off)
            k = np.unique(k)  # alternatives can't collide, but be safe
            keys = k if keys is None else keys[np.isin(keys, k,
                                                       assume_unique=True)]
            if len(keys) == 0:
                return None, None
        doc_ord = (keys >> 32).astype(np.int64)
        pfreq = np.bincount(doc_ord, minlength=len(cand))
        hit = pfreq > 0
        return cand[hit], pfreq[hit].astype(np.int32)

    def _sloppy_freqs(self, sr: SegmentReader, terms: tuple, slop: int):
        """SloppyPhraseMatcher analog (search/SloppyPhraseMatcher.java,
        TestSloppyPhraseQuery.java semantics): per candidate doc, walk a
        priority queue over each phrase slot's ADJUSTED positions
        (pos - slot); every state whose adjusted span fits in ``slop``
        is a match contributing ``1/(1+span)`` to the phrase freq
        (PhraseScorer sloppyWeight). Advancing the minimum slot
        enumerates every minimal window, so match(doc) == "some
        occurrence tuple spans <= slop" exactly. Repeating phrase terms
        use the same walk with a distinct-source check per state (the
        reference's repeats machinery, SloppyPhraseMatcher.java:180-260,
        is approximated)."""
        per_term = []
        for t in terms:
            got = sr.get_positions(t)
            if got is None:
                return None, None
            per_term.append(got)
        cand, = self._live(sr, per_term[0][0])
        for docs, _f, _p in per_term[1:]:
            cand = cand[np.isin(cand, docs, assume_unique=True)]
            if len(cand) == 0:
                return None, None
        n = len(terms)
        has_repeats = len(set(terms)) < n
        # per slot: occurrences restricted to cand docs, grouped by doc
        slot_pos: list[np.ndarray] = []
        slot_bounds: list[np.ndarray] = []
        for i, (docs, freqs, pos) in enumerate(per_term):
            occ_doc = np.repeat(docs, freqs)
            sel = np.isin(occ_doc, cand)
            od = occ_doc[sel]
            ap = pos[sel] - i  # adjusted position
            slot_pos.append(ap)
            # od is sorted (docs sorted, repeat preserves order)
            slot_bounds.append(np.searchsorted(od, cand))
        rpt_grp = self._repeat_groups(terms)
        out_docs, out_freqs = [], []
        for j in range(len(cand)):
            slots = []
            for i in range(n):
                lo = slot_bounds[i][j]
                hi = slot_bounds[i][j + 1] if j + 1 < len(cand) \
                    else len(slot_pos[i])
                slots.append(slot_pos[i][lo:hi])
            freq = self._sloppy_freq_doc(slots, rpt_grp, slop,
                                         has_repeats)
            if freq > 0:
                out_docs.append(cand[j])
                out_freqs.append(freq)
        if not out_docs:
            return None, None
        return (np.asarray(out_docs, dtype=np.int64),
                np.asarray(out_freqs, dtype=np.float64))

    @staticmethod
    def _repeat_groups(terms: tuple) -> list[int]:
        """Slot -> repeat-group id (-1 for non-repeating terms) —
        SloppyPhraseMatcher's rptGroups."""
        first: dict = {}
        grp = [-1] * len(terms)
        gid = 0
        for i, t in enumerate(terms):
            if terms.count(t) > 1:
                if t not in first:
                    first[t] = gid
                    gid += 1
                grp[i] = first[t]
        return grp

    @staticmethod
    def _sloppy_freq_doc(slots, rpt_grp, slop: int, has_repeats: bool,
                         offsets=None, span_offset: int = 0) -> float:
        """Lucene-exact sloppy phrase freq for one candidate doc — a
        transcription of SloppyPhraseMatcher's pq walk INCLUDING the
        repeats machinery (SloppyPhraseMatcher.java:180-260,
        TestSloppyPhraseQuery2.java): each phrase slot is a
        PhrasePositions over ADJUSTED positions (pos - offset); repeating
        slots may never share a source token (tpPos = ap + offset), and
        collisions advance the lesser slot (advanceRpts). Every minimal
        window the walk yields with span <= slop adds
        sloppyWeight = 1/(1+span); the walk's final state counts once
        when an iterator exhausts."""
        import heapq
        n = len(slots)
        if n == 1:
            return float(len(slots[0]))
        off = list(offsets) if offsets is not None else list(range(n))
        ap = [int(s[0]) for s in slots]      # current adjusted position
        ptr = [0] * n
        end = max(ap)

        def advance(i: int) -> bool:
            """advancePP: step slot i; tracks the running end."""
            nonlocal end
            ptr[i] += 1
            if ptr[i] >= len(slots[i]):
                return False
            ap[i] = int(slots[i][ptr[i]])
            if ap[i] > end:
                end = ap[i]
            return True

        def collide(i: int) -> int:
            """Another slot of i's group on the same source position
            (tpPos = adjusted + offset)."""
            tpi = ap[i] + off[i]
            for k in range(n):
                if k != i and rpt_grp[k] == rpt_grp[i] and \
                        ap[k] + off[k] == tpi:
                    return k
            return -1

        def lesser(a: int, b: int) -> int:
            if ap[a] < ap[b] or (ap[a] == ap[b] and a < b):
                return a
            return b

        def advance_rpts(i: int) -> bool:
            """Resolve same-source collisions; the collision loop follows
            the advanced (lesser) slot, exactly the reference's
            ``pp = lesser(pp, rg[k])`` walk. May advance queued slots —
            the caller re-heapifies (the reference's bits/rptStack
            re-add); the captured ``next`` stays stale by design."""
            if rpt_grp[i] < 0:
                return True
            cur = i
            while True:
                k = collide(cur)
                if k < 0:
                    return True
                cur = lesser(cur, k)
                if not advance(cur):
                    return False

        # --- init: place all slots, resolve initial collisions --------
        if has_repeats:
            for i in range(n):
                if rpt_grp[i] >= 0 and not advance_rpts(i):
                    return 0.0
            end = max(ap)
        heap = [(ap[i], i) for i in range(n)]
        heapq.heapify(heap)

        freq = 0.0
        pos_i, i = heapq.heappop(heap)
        match_length = end - ap[i]
        nxt = heap[0][0]
        while True:
            if not advance(i):
                break
            if has_repeats:
                if not advance_rpts(i):
                    break
                # queued slots may have moved: restore heap order (but
                # NOT the captured nxt — phraseFreq keeps it stale)
                heap = [(ap[k], k) for _, k in heap]
                heapq.heapify(heap)
            if ap[i] > nxt:      # done minimizing current match length
                if match_length - span_offset <= slop:
                    freq += 1.0 / (1 + match_length - span_offset)
                heapq.heappush(heap, (ap[i], i))
                pos_i, i = heapq.heappop(heap)
                nxt = heap[0][0]
                match_length = end - ap[i]
            else:
                ml2 = end - ap[i]
                if ml2 < match_length:
                    match_length = ml2
        if match_length - span_offset <= slop:
            freq += 1.0 / (1 + match_length - span_offset)
        return freq

    def _span_freqs(self, sr: SegmentReader, terms: tuple, slop: int,
                    in_order: bool):
        """(docs, freqs) for a SpanNearQuery in one segment — spans /
        intervals matching on the positional postings
        (search/spans/NearSpansOrdered.java, NearSpansUnordered.java;
        Intervals.maxgaps semantics for single-term clauses).

        unordered: the sloppy pq walk over RAW positions (offsets all 0,
        so repeated clauses collide on equal source positions) with the
        window criterion ``(max-min) - (n-1) <= slop``.
        ordered: per-start greedy minimal chain (each later clause takes
        its first position strictly after the previous clause's).
        freq accumulates sloppyWeight(gaps) per minimal window
        (SpanScorer analog)."""
        per_term = []
        for t in terms:
            got = sr.get_positions(t)
            if got is None:
                return None, None
            per_term.append(got)
        cand, = self._live(sr, per_term[0][0])
        for docs, _f, _p in per_term[1:]:
            cand = cand[np.isin(cand, docs, assume_unique=True)]
            if len(cand) == 0:
                return None, None
        n = len(terms)
        has_repeats = len(set(terms)) < n
        rpt_grp = self._repeat_groups(terms)
        slot_pos: list[np.ndarray] = []
        slot_bounds: list[np.ndarray] = []
        for i, (docs, freqs, pos) in enumerate(per_term):
            occ_doc = np.repeat(docs, freqs)
            sel = np.isin(occ_doc, cand)
            slot_pos.append(pos[sel])  # RAW positions (no offset shift)
            slot_bounds.append(np.searchsorted(occ_doc[sel], cand))
        out_docs, out_freqs = [], []
        for j in range(len(cand)):
            slots = []
            for i in range(n):
                lo = slot_bounds[i][j]
                hi = slot_bounds[i][j + 1] if j + 1 < len(cand) \
                    else len(slot_pos[i])
                slots.append(slot_pos[i][lo:hi])
            if in_order:
                freq = self._ordered_span_freq(slots, slop)
            else:
                freq = self._sloppy_freq_doc(
                    slots, rpt_grp, slop, has_repeats,
                    offsets=[0] * n, span_offset=n - 1)
            if freq > 0:
                out_docs.append(cand[j])
                out_freqs.append(freq)
        if not out_docs:
            return None, None
        return (np.asarray(out_docs, dtype=np.int64),
                np.asarray(out_freqs, dtype=np.float64))

    @staticmethod
    def _ordered_span_freq(slots, slop: int) -> float:
        """Ordered near — EXACT NearSpansOrdered semantics for term
        clauses: for each start occurrence of clause 0, the greedy
        first-fit chain (first position of clause i strictly after
        clause i-1's) IS the minimal ordered window from that start
        (first-fit == minimal for unit-length sub-spans; proven
        exhaustively in tests/test_intervals.py), and the iterator's
        forward-only stretch visits exactly these chains; gaps =
        (last - first) - (n-1), freq += 1/(1+gaps) per fitting start
        (SpanScorer sloppyWeight)."""
        n = len(slots)
        if n == 1:
            return float(len(slots[0]))
        freq = 0.0
        for p0 in slots[0]:
            prev = int(p0)
            ok = True
            for i in range(1, n):
                arr = slots[i]
                k = int(np.searchsorted(arr, prev + 1))
                if k >= len(arr):
                    ok = False
                    break
                prev = int(arr[k])
            if not ok:
                break  # later starts fail identically (chains monotone)
            gaps = (prev - int(p0)) - (n - 1)
            if gaps <= slop:
                freq += 1.0 / (1 + gaps)
        return freq

    @staticmethod
    def _best_distinct_span(slots, terms, slop):
        """Min adjusted span over occurrence tuples with pairwise-distinct
        source positions for repeated terms; None if no tuple fits in
        ``slop``. Pruned DFS — branching is bounded by the slop window."""
        n = len(slots)
        order = sorted(range(n), key=lambda i: len(slots[i]))
        best = None

        def dfs(k, used, mn, mx):
            nonlocal best
            if mx - mn > slop:
                return
            if k == n:
                if best is None or mx - mn < best:
                    best = mx - mn
                return
            i = order[k]
            for v in slots[i]:
                v = int(v)
                src = v + i
                if src in used:
                    continue
                nmn = v if v < mn else mn
                nmx = v if v > mx else mx
                if nmx - nmn > slop:
                    continue
                used.add(src)
                dfs(k + 1, used, nmn, nmx)
                used.remove(src)
                if best == 0:
                    return

        dfs(0, set(), 10**15, -10**15)
        return best

    def _match_docs(self, sr: SegmentReader, q: Query) -> np.ndarray:
        if isinstance(q, FunctionScoreQuery):
            return self._match_docs(sr, q.inner)
        if isinstance(q, CoveringQuery):
            docs, _ = self._eval(sr, self._prepare(q), 10, -np.inf)
            return docs if docs is not None else np.empty(0, np.int64)
        if isinstance(q, (TermQuery, BooleanQuery)):
            prep = self._prepare(q)
            if prep[0] == "nbool":
                docs, _ = self._eval_nested(sr, prep, 10)
                return docs if docs is not None else np.empty(0, np.int64)
            docs, _ = self._match_and_score(sr, prep[1], scoring=False)
            return docs if docs is not None else np.empty(0, np.int64)
        if isinstance(q, ConstantScoreQuery):
            return self._match_docs(sr, q.inner)
        if isinstance(q, MatchAllDocsQuery):
            return sr.live_doc_ids()
        if isinstance(q, NumericRangeQuery):
            docs = sr.numeric_range_docs(q.column, q.lower, q.upper,
                                         q.include_lower, q.include_upper)
            docs, = self._live(sr, docs)
            return docs
        if isinstance(q, DocValuesTermsQuery):
            docs = sr.dv_terms_docs(q.column, q.values)
            docs, = self._live(sr, docs)
            return docs
        if isinstance(q, DisjunctionMaxQuery):
            parts = [self._match_docs(sr, s) for s in q.disjuncts]
            parts = [p for p in parts if len(p)]
            return (np.unique(np.concatenate(parts))
                    if parts else np.empty(0, np.int64))
        if isinstance(q, PhraseQuery):
            docs, _ = self._phrase_freqs(sr, q.terms, q.slop)
            return docs if docs is not None else np.empty(0, np.int64)
        if isinstance(q, MultiPhraseQuery):
            docs, _ = self._mphrase_freqs(sr, q.positions)
            return docs if docs is not None else np.empty(0, np.int64)
        if isinstance(q, SpanNearQuery):
            docs, _ = self._span_freqs(sr, q.terms, q.slop, q.in_order)
            return docs if docs is not None else np.empty(0, np.int64)
        raise TypeError(f"unmatchable query {type(q)}")

    # -- per-segment --------------------------------------------------------
    @staticmethod
    def _live(sr: SegmentReader, docs: np.ndarray, *arrs):
        """Drop tombstoned docs (live-docs bitmap analog) — applied at
        every candidate-formation point so thresholds never rise from
        deleted docs' scores."""
        m = sr.live_mask(docs)
        if m is None:
            return (docs, *arrs)
        return (docs[m], *[a[m] for a in arrs])

    def _decode_scored(self, sr: SegmentReader, t: _TermPlan):
        p = sr.get_postings(t.term)
        if p is None:
            return None, None, None
        docs, freqs = unpack_postings(p)
        return p, docs, freqs

    def _match_and_score(self, sr: SegmentReader, plan: dict, *, scoring: bool,
                         k: int = 10, threshold: float = -np.inf,
                         top: bool = False):
        must, should = plan["must"], plan["should"]
        empty = (np.empty(0, np.int64), np.empty(0, np.float32))

        # top-level single-term query: per-block impact pruning is safe
        # (only the final top-k is consumed, pruned blocks are strictly
        # below the threshold)
        if (top and scoring and not self.exact64 and len(must) == 1
                and not plan["filter"] and not plan["should"]
                and not plan["must_not"] and self._scores_term(must[0])):
            docs, scores = self._term_topk_pruned(sr, must[0], k, threshold)
            if docs is None or len(docs) == 0:
                return empty
            return docs, scores.astype(np.float32)

        if must or plan["filter"]:
            cand, sums, match_counts = self._conjunction(
                sr, plan, scoring, threshold=threshold, top=top)
            if cand is None or len(cand) == 0:
                return empty
        else:
            if not should:
                return empty
            cand, sums, match_counts = self._disjunction(sr, plan, scoring,
                                                         k, threshold, top)
            if cand is None or len(cand) == 0:
                return empty
            msm = max(plan["msm"], 1)
            if msm > 1:
                keep = match_counts >= msm
                cand = cand[keep]
                if sums is not None:
                    sums = sums[keep]

        # MUST_NOT exclusion (ReqExclScorer)
        for t in plan["must_not"]:
            if len(cand) == 0:
                break
            p = sr.get_postings(t.term)
            if p is None:
                continue
            freqs = lookup_postings(p, cand)
            keep = freqs == 0
            cand = cand[keep]
            if sums is not None:
                sums = sums[keep]
        if len(cand) == 0:
            return empty
        if not scoring:
            return cand, None
        return cand, (sums if self.exact64 else sums.astype(np.float32))

    def _term_topk_pruned(self, sr: SegmentReader, t: "_TermPlan",
                          k: int, threshold: float):
        """Single-term top-k with per-block impact pruning (ImpactsDISI):
        score the highest-bound blocks first to establish a threshold,
        then decode only blocks whose impact bound can still compete."""
        from ..codecs.postings import decode_selected_blocks
        p = sr.get_postings(t.term)
        if p is None:
            return None, None
        bounds = self._block_ubs(sr, p, t.term, t.weight)
        nblocks = len(bounds)
        if nblocks <= 8:
            docs, freqs = self._live(sr, *sr.get_decoded(t.term))
            return docs, bm25.score_freqs(freqs, sr.norms_for(docs), t.weight,
                                          self.cache).astype(np.float64)
        # process blocks in bound-descending batches; after each batch the
        # k-th collected score becomes the skip threshold for the rest
        order = np.argsort(-bounds, kind="stable")
        theta = threshold
        batch = max(32, (8 * k) // 128 + 1)
        docs_parts, score_parts = [], []
        n_collected = 0
        i = 0
        while i < nblocks:
            # prune strictly below theta only: a block whose bound EQUALS
            # theta can still hold an equal-score doc with a lower docID,
            # which wins the tie (HitQueue order)
            if np.isfinite(theta) and bounds[order[i]] < np.float32(theta):
                break  # all remaining bounds are < theta (desc order)
            j = i + batch
            take = order[i:j]
            if np.isfinite(theta):
                take = take[bounds[take] >= np.float32(theta)]
            if len(take):
                d, f = self._live(sr, *decode_selected_blocks(p, np.sort(take)))
                sc = bm25.score_freqs(f, sr.norms_for(d), t.weight, self.cache)
                docs_parts.append(d)
                score_parts.append(sc)
                n_collected += len(d)
                if n_collected >= k:
                    allsc = (np.concatenate(score_parts)
                             if len(score_parts) > 1 else score_parts[0])
                    kth = float(np.partition(allsc, len(allsc) - k)
                                [len(allsc) - k])
                    theta = max(theta, kth)
            i = j
            batch = min(batch * 4, 4096)  # geometric ramp-up
        if not docs_parts:
            return None, None
        docs = np.concatenate(docs_parts)
        scores = np.concatenate(score_parts)
        return docs, scores.astype(np.float64)

    def _conjunction(self, sr: SegmentReader, plan: dict, scoring: bool,
                     threshold: float = -np.inf, top: bool = False):
        """Lead with the rarest required term; block-skip the rest.

        With a live threshold at the top level, lead blocks whose
        block-max bound plus every other scoring term's global max
        cannot reach it are never decoded (BlockMaxConjunctionScorer,
        wired per ``Boolean2ScorerSupplier.java:202-247``)."""
        must, flt, should = plan["must"], plan["filter"], plan["should"]
        required = [(t, True) for t in must] + [(t, False) for t in flt]
        # postings for required terms; any missing -> empty
        loaded = []
        for t, scores_q in required:
            p = sr.get_postings(t.term)
            if p is None:
                return None, None, None
            loaded.append((t, scores_q, p))
        order = sorted(range(len(loaded)), key=lambda i: loaded[i][2].doc_count)
        t0, s0, p0 = loaded[order[0]]
        prune = (top and scoring and not self.exact64
                 and np.isfinite(threshold) and plan["msm"] <= 1)
        cand = None
        if prune and len(p0.imp_freqs):
            lead_ub = self._block_ubs(
                sr, p0, t0.term,
                t0.weight if s0 else np.float32(0)).astype(np.float64)
            rest = 0.0
            for i, (t, scores_q, p) in enumerate(loaded):
                if i == order[0] or not scores_q or not self._scores_term(t):
                    continue
                ub = self._block_ubs(sr, p, t.term, t.weight)
                rest += float(ub.max()) if len(ub) else 0.0
            for t in should:  # optional clauses add score on matches
                if not self._scores_term(t):
                    continue
                p = sr.get_postings(t.term)
                if p is not None and len(p.imp_freqs):
                    rest += float(self._block_ubs(sr, p, t.term,
                                                  t.weight).max())
            theta_low = float(np.nextafter(np.float32(threshold),
                                           np.float32(-np.inf)))
            keep = lead_ub + rest >= theta_low
            if not keep.all():
                from ..codecs.postings import decode_selected_blocks
                sel = np.nonzero(keep)[0]
                if len(sel) == 0:
                    return None, None, None
                cand, freqs0 = self._live(
                    sr, *decode_selected_blocks(p0, sel))
        if cand is None:
            cand, freqs0 = self._live(sr, *sr.get_decoded(t0.term))
        term_freqs: dict[int, np.ndarray] = {order[0]: freqs0}
        for oi in order[1:]:
            t, scores_q, p = loaded[oi]
            f = lookup_postings(p, cand)
            keep = f > 0
            cand = cand[keep]
            term_freqs = {i: ff[keep] for i, ff in term_freqs.items()}
            term_freqs[oi] = f[keep]
            if len(cand) == 0:
                return cand, np.empty(0, np.float64), None
        # required = MUST + FILTER (Boolean2ScorerSupplier): this path
        # always has >=1 required clause, so SHOULD clauses stay purely
        # optional (ReqOptSumScorer) unless minShouldMatch asks otherwise
        msm = plan["msm"]
        if not scoring and (msm <= 0 or not should):
            return cand, None, None
        norms = self._norm_data(sr, cand) if scoring else None
        sums = np.zeros(len(cand), dtype=np.float64) if scoring else None
        if scoring:
            # accumulate in ORIGINAL clause order so scores are
            # bit-identical regardless of which term led the intersection
            for i, (t, scores_q, _p) in enumerate(loaded):
                if scores_q and self._scores_term(t):
                    sums += self._contrib(t, term_freqs[i], norms)
        # optional SHOULD clauses add score on the conjunction's matches;
        # with minShouldMatch > 0 they also gate the match (the reference
        # applies minimumNumberShouldMatch even alongside MUST clauses)
        n_should = np.zeros(len(cand), dtype=np.int64)
        for t in should:
            p = sr.get_postings(t.term)
            if p is None:
                continue
            f = lookup_postings(p, cand)
            hit = f > 0
            n_should += hit.astype(np.int64)
            if scoring and self._scores_term(t) and hit.any():
                sums[hit] += self._contrib(t, f[hit], norms[hit])
        if should and msm > 0:
            keep = n_should >= msm
            cand = cand[keep]
            if sums is not None:
                sums = sums[keep]
        return cand, sums, None

    def _disjunction(self, sr: SegmentReader, plan: dict, scoring: bool,
                     k: int, threshold: float, top: bool = False):
        """MaxScore-style static pruning from block-max impact bounds."""
        should = plan["should"]
        postings = []
        for t in should:
            p = sr.get_postings(t.term)
            if p is not None:
                postings.append((t, p))
        if not postings:
            return None, None, None

        msm = max(plan["msm"], 1)
        # float32 impact bounds are not safe upper bounds for float64
        # exact-dl scores; disable pruning in exact64 mode. Pruning is
        # only sound when this disjunction IS the top-level collector:
        # sub-query evaluations (DisMax disjuncts, ConstantScore inners)
        # must return COMPLETE (docs, scores) sets, so top gates prune.
        # MUST_NOT exclusion happens AFTER this returns, so a
        # self-raised threshold would be tainted by soon-excluded docs:
        # only prune when there is no exclusion clause
        prune = (top and scoring and msm == 1 and len(postings) > 1
                 and not plan["must_not"] and not self.exact64)
        if prune:
            # doc-at-a-time block-max WAND over merged block windows;
            # returns NotImplemented when the bounds can't prune (the
            # equal-hot-terms adversary) -> dense exhaustive path below
            res = self._wand_topk(sr, postings, k, threshold)
            if res is not NotImplemented:
                return res

        # exhaustive path: every term fully decoded (hot terms come
        # from the decoded-postings LRU)
        decoded = [self._live(sr, *sr.get_decoded(t.term))
                   for t, _p in postings]

        if sr._contiguous:
            # dense per-doc accumulators (a term's docs are unique, so
            # fancy-indexed += is exact); accumulation in clause order
            # keeps scores bit-identical to every other path. Sums
            # accumulate directly into a dense n-length array (no
            # candidate position map): same adds in the same order per
            # doc, one less gather per clause
            n = len(sr)
            base = sr._base
            cnt = np.zeros(n, dtype=np.int32)
            idxs = []
            for docs, _f in decoded:
                idx = docs - base
                idxs.append(idx)
                cnt[idx] += 1
            cand_idx = np.nonzero(cnt)[0]
            cand = cand_idx + base
            counts = cnt[cand_idx].astype(np.int64)
            sums = None
            if scoring:
                sums_full = np.zeros(n, dtype=np.float64)
                for (t, p), (docs, freqs), idx in zip(postings, decoded,
                                                      idxs):
                    if self._scores_term(t):
                        sums_full[idx] += self._contrib(
                            t, freqs, self._norm_data(sr, docs))
                sums = sums_full[cand_idx]
            return cand, sums, counts

        cand = np.unique(np.concatenate([d for d, _ in decoded]))
        counts = np.zeros(len(cand), dtype=np.int64)
        sums = np.zeros(len(cand), dtype=np.float64) if scoring else None
        norms_cand = self._norm_data(sr, cand) if scoring else None
        for (t, p), (docs, freqs) in zip(postings, decoded):
            pos = np.searchsorted(cand, docs)
            counts[pos] += 1
            if scoring and self._scores_term(t):
                sums[pos] += self._contrib(t, freqs, norms_cand[pos])
        return cand, sums, counts

    def _wand_topk(self, sr: SegmentReader, postings: list, k: int,
                   threshold: float):
        """Doc-at-a-time block-max WAND (``search/WANDScorer.java:30-120``
        role, window formulation): merge every term's block boundaries
        into disjoint doc WINDOWS; a window's bound is the sum of the
        covering blocks' impact bounds, so equal-global-bound hot terms
        still prune wherever their *block* maxima dip. Windows process
        in bound-descending geometric batches; after each batch the k-th
        collected float32 score raises the threshold. Scores accumulate
        per doc in clause order -> bit-identical to the exhaustive path.
        """
        blasts, ubs = [], []
        for t, p in postings:
            ub = self._block_ubs(sr, p, t.term, t.weight)
            blasts.append(np.asarray(p.block_last_docs, dtype=np.int64))
            ubs.append(ub.astype(np.float64))
        edges = np.unique(np.concatenate(blasts))
        m = len(edges)
        wb = np.zeros(m, dtype=np.float64)
        for bl, ub in zip(blasts, ubs):
            idx = np.searchsorted(bl, edges)
            valid = idx < len(bl)
            wb[valid] += ub[np.minimum(idx, len(ub) - 1)][valid] \
                if len(ub) else 0.0
        win_lo = np.empty(m, dtype=np.int64)
        win_lo[0] = -(2**62)
        win_lo[1:] = edges[:-1] + 1
        if np.isfinite(threshold):
            tl = float(np.nextafter(np.float32(threshold),
                                    np.float32(-np.inf)))
            if (wb >= tl).mean() > 0.6:
                # bounds barely exceed the threshold (equal-hot-term
                # adversary): batch machinery costs more than the dense
                # exhaustive accumulate — let the caller run that instead
                return NotImplemented
        order = np.argsort(-wb, kind="stable")
        from ..codecs.postings import decode_selected_blocks
        theta = threshold
        out_docs, out_sums = [], []
        n_collected = 0
        i = 0
        batch = max(32, (8 * k) // 128 + 1)
        while i < m:
            theta_low = (float(np.nextafter(np.float32(theta),
                                            np.float32(-np.inf)))
                         if np.isfinite(theta) else -np.inf)
            if wb[order[i]] < theta_low:
                break  # descending order: nothing below can compete
            take = order[i:i + batch]
            if np.isfinite(theta):
                take = take[wb[take] >= theta_low]
            if len(take):
                sel = np.sort(take)
                his = edges[sel]
                los = win_lo[sel]
                per = []
                for (t, p), bl in zip(postings, blasts):
                    bidx = np.unique(np.searchsorted(bl, his))
                    bidx = bidx[bidx < len(bl)]
                    if len(bidx) == 0:
                        per.append(None)
                        continue
                    d, f = decode_selected_blocks(p, bidx)
                    pos = np.minimum(np.searchsorted(his, d), len(his) - 1)
                    ok = (d <= his[pos]) & (d >= los[pos])
                    d, f = self._live(sr, d[ok], f[ok])
                    per.append((d, f) if len(d) else None)
                parts = [pr[0] for pr in per if pr]
                if parts:
                    cand = np.unique(np.concatenate(parts))
                    sums = np.zeros(len(cand), dtype=np.float64)
                    norms_cand = self._norm_data(sr, cand)
                    for (t, p), pr in zip(postings, per):
                        if pr is None or not self._scores_term(t):
                            continue
                        d, f = pr
                        pos = np.searchsorted(cand, d)
                        sums[pos] += self._contrib(t, f, norms_cand[pos])
                    out_docs.append(cand)
                    out_sums.append(sums)
                    n_collected += len(cand)
                    if n_collected >= k:
                        allsc = np.concatenate(out_sums).astype(np.float32)
                        kth = float(np.partition(allsc, len(allsc) - k)
                                    [len(allsc) - k])
                        theta = max(theta, kth)
            i += batch
            # once a threshold exists, check whether it actually prunes;
            # if most remaining windows survive, sweep them in ONE batch
            if np.isfinite(theta) and i < m:
                tl = float(np.nextafter(np.float32(theta),
                                        np.float32(-np.inf)))
                if (wb[order[i:]] >= tl).mean() > 0.6:
                    batch = m
                    continue
            batch = min(batch * 4, 4096)
        if not out_docs:
            return None, None, None
        return np.concatenate(out_docs), np.concatenate(out_sums), None
