"""Top-k BM25 search over an index: per-segment scoring + global merge.

Mirrors the reference query path (SURVEY.md §3.3):
- global stats computed once per query (TermStates / CollectionStatistics)
- per-segment scorers over each term's decoded doc/freq arrays: a
  top-level single-term query scores blocks in impact-bound order and
  skips those that cannot beat the live threshold (ImpactsDISI role);
  conjunctions lead with the rarest term and look the others up
  (ConjunctionDISI leapfrog); disjunctions accumulate every clause
  exhaustively, into segment-length arrays or a sorted union of their
  docs by a Σdf-against-segment-size rule (``_DENSE_OR_RATIO``)
- tombstoned docs are masked at every candidate-formation point, so
  pruning thresholds never rise from deleted docs
- top-k ties break toward the lower global docID (HitQueue.java:78-81);
  cross-segment merge = sort by (-score, doc_id) (TopDocs.merge);
  a shared min-competitive exchange threads cross-worker floors in
- scores: float32 per term, summed in double, cast to float
  (DisjunctionSumScorer semantics); the pruned term path is
  bit-identical to the exhaustive evaluation

Every entry point (search, collect, eval_complete, count, match_docs,
explain, the facet/join/sort/delete helpers) goes through
``Searcher.weight(q)``: rewrite, global term stats once per query node,
one batched postings read per segment, then one weight object per node
(``_WEIGHTS`` maps each rewritten query class to its weight class).
A weight's ``scores(sr, k, threshold, top)`` and ``matches(sr)`` run
per segment; only the top-level single-term weight of ``search``
prunes.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import bm25
from .postings_io import lookup, select_blocks
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

_MULTI_TERM = (PrefixQuery, WildcardQuery, RegexpQuery, TermRangeQuery,
               FuzzyQuery)

# An OR accumulates into dense segment-length arrays when its clauses'
# summed per-segment doc counts times this ratio reach the segment size,
# and into a sorted union of their docs otherwise: the dense path costs
# O(segment) to zero and scan, the sorted one O(Σdf log Σdf). Measured
# on one 262,144-doc segment and on perfbench's 4,096 + 1,024-doc
# segments (hot, mid and tail term pools): at 1, hot ORs on the large
# segment took the sorted path and ran 1.5x slower; at 8 and at 32
# every pool ran within noise of the faster of the two accumulators.
_DENSE_OR_RATIO = 8


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
        if isinstance(q, (MatchAllDocsQuery, NumericRangeQuery,
                          DocValuesTermsQuery)):
            return replace(q, boost=q.boost * boost)
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
    def weight(self, q: Query) -> "_Weight":
        """``IndexSearcher.createWeight`` (SURVEY §3.3 steps 2-3): rewrite,
        gather the global term stats once per query node, then load every
        query term's posting rows with one batched read per segment.
        The returned weight scores or matches one segment at a time."""
        q = self.rewrite(q)
        w = _create_weight(self, q)
        terms = sorted(set(query_terms(q)))
        if terms:
            for sr in self.reader.segments():
                sr.ensure_terms(terms)
        return w

    def search(self, q: Query, k: int = 10, *, threshold_cb=None,
               publish_cb=None) -> TopDocs:
        """Top-k search. ``threshold_cb``/``publish_cb`` plug a shared
        min-competitive score exchange (MaxScoreAccumulator.java:24):
        before each segment the external floor is folded in; after each
        segment the local k-th score is published, so concurrent workers
        prune with each other's progress."""
        w = self.weight(q)
        parts = []
        threshold = -np.inf
        for sr in self.reader.segments():
            if threshold_cb is not None:
                ext = threshold_cb()
                if ext is not None and ext > threshold:
                    threshold = float(ext)
            docs, scores = w.scores(sr, k, threshold, True)
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
        w = self.weight(q)
        for sr in self.reader.segments():
            docs, scores = w.scores(sr, 10, -np.inf, False)
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
        w = self.weight(q)
        parts_d, parts_s = [], []
        for sr in self.reader.segments():
            d, s = w.scores(sr, 10, -np.inf, False)
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

    def explain(self, q: Query, doc_id: int) -> dict:
        """``IndexSearcher.explain(Query, doc)`` role: an Explanation
        tree ``{value, description, details: [...]}`` whose root value
        equals the doc's score under this searcher (0 / "no match" when
        the doc doesn't match). Term clauses break down into the
        exact64 BM25 factors (idf, tf, dl, avgdl) the way
        ``BM25Similarity.explain`` does."""
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
                dec = sr.get_decoded(q.term)
                if dec is None:
                    continue
                got = lookup(dec, np.array([doc_id]))
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
            if doc_id not in self.match_docs(q):
                return {"value": 0.0, "description": "no match",
                        "details": []}
            return {"value": float(q.boost),
                    "description": "ConstantScore",
                    "details": [self.explain(q.inner, doc_id)]}
        if isinstance(q, BooleanQuery):
            details = []
            total = 0.0
            if doc_id not in self.match_docs(q):
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

    def count(self, q: Query) -> int:
        w = self.weight(q)
        return sum(len(w.matches(sr)) for sr in self.reader.segments())

    def match_docs(self, q: Query) -> np.ndarray:
        """All matching global docIDs, sorted (match-only, no scores)."""
        w = self.weight(q)
        out = [d for d in (w.matches(sr) for sr in self.reader.segments())
               if len(d)]
        return np.sort(np.concatenate(out)) if out else np.empty(0, np.int64)

    def _phrase_freqs(self, sr: SegmentReader, terms: tuple, slop: int = 0):
        """(docs, phrase_freq) for a phrase in one segment.

        slop == 0 — vectorized ExactPhraseMatcher (``_exact_phrase``).
        slop > 0 — SloppyPhraseMatcher pq walk per candidate doc."""
        if slop > 0:
            return self._sloppy_freqs(sr, terms, slop)
        got = self._phrase_cand(sr, terms)
        if got is None:
            return None, None
        per_term, cand = got
        return self._exact_phrase(cand, [(np.repeat(docs, freqs), pos)
                                         for docs, freqs, pos in per_term])

    def _mphrase_freqs(self, sr: SegmentReader, positions: tuple):
        """(docs, phrase_freq) for a MultiPhraseQuery in one segment:
        each slot's occurrence set is the UNION of its alternatives'
        (doc, pos) pairs (MultiPhraseQuery.UnionPostingsEnum role), then
        the exact-phrase key intersection runs unchanged."""
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
        return self._exact_phrase(cand, slot_occ)

    @staticmethod
    def _exact_phrase(cand: np.ndarray, slot_occ: list):
        """Exact-phrase freqs of the ``cand`` docs from each slot's
        occurrences (occ_doc, pos): occurrences become keys
        ``doc_ord * 2^32 + (pos - slot)``; intersecting the key sets
        across slots leaves one key per phrase start."""
        keys = None
        off = len(slot_occ)  # keeps (pos - i + off) >= 0 within the ord block
        for i, (od, op) in enumerate(slot_occ):
            sel = np.isin(od, cand)
            k = (np.searchsorted(cand, od[sel]).astype(np.int64) << 32) \
                + (op[sel] - i + off)
            k = np.unique(k)  # assume_unique below relies on it
            keys = k if keys is None else keys[np.isin(keys, k,
                                                       assume_unique=True)]
            if len(keys) == 0:
                return None, None
        doc_ord = (keys >> 32).astype(np.int64)
        pfreq = np.bincount(doc_ord, minlength=len(cand))
        hit = pfreq > 0
        return cand[hit], pfreq[hit].astype(np.int32)

    def _phrase_cand(self, sr: SegmentReader, terms: tuple):
        """(per-term positional postings, live docs holding every term),
        or None when a term is absent or no doc holds them all."""
        per_term = []
        for t in terms:
            got = sr.get_positions(t)
            if got is None:
                return None
            per_term.append(got)
        cand, = self._live(sr, per_term[0][0])
        for docs, _f, _p in per_term[1:]:
            cand = cand[np.isin(cand, docs, assume_unique=True)]
        return (per_term, cand) if len(cand) else None

    @staticmethod
    def _per_doc_freqs(per_term: list, cand: np.ndarray, shift: int,
                       freq_of):
        """Cut each slot's occurrences in the ``cand`` docs (positions
        minus ``shift * slot``) into per-doc position arrays; keep the
        docs where ``freq_of(slots)`` is positive."""
        slot_pos: list[np.ndarray] = []
        slot_bounds: list[np.ndarray] = []
        for i, (docs, freqs, pos) in enumerate(per_term):
            occ_doc = np.repeat(docs, freqs)
            sel = np.isin(occ_doc, cand)
            slot_pos.append(pos[sel] - i * shift)
            # occ_doc is sorted (docs sorted, repeat preserves order)
            slot_bounds.append(np.searchsorted(occ_doc[sel], cand))
        out_docs, out_freqs = [], []
        for j in range(len(cand)):
            slots = [p[b[j]:(b[j + 1] if j + 1 < len(cand) else len(p))]
                     for p, b in zip(slot_pos, slot_bounds)]
            freq = freq_of(slots)
            if freq > 0:
                out_docs.append(cand[j])
                out_freqs.append(freq)
        if not out_docs:
            return None, None
        return (np.asarray(out_docs, dtype=np.int64),
                np.asarray(out_freqs, dtype=np.float64))

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
        got = self._phrase_cand(sr, terms)
        if got is None:
            return None, None
        rpt_grp = self._repeat_groups(terms)
        has_repeats = len(set(terms)) < len(terms)
        return self._per_doc_freqs(
            *got, 1,
            lambda slots: self._sloppy_freq_doc(slots, rpt_grp, slop,
                                                has_repeats))

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
        got = self._phrase_cand(sr, terms)
        if got is None:
            return None, None
        n = len(terms)
        has_repeats = len(set(terms)) < n
        rpt_grp = self._repeat_groups(terms)

        def freq_of(slots):
            if in_order:
                return self._ordered_span_freq(slots, slop)
            return self._sloppy_freq_doc(slots, rpt_grp, slop, has_repeats,
                                         offsets=[0] * n, span_offset=n - 1)
        return self._per_doc_freqs(*got, 0, freq_of)  # RAW positions

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
            cand, sums = self._conjunction(sr, plan, scoring)
        elif should:
            cand, sums = self._disjunction(sr, plan, scoring)
        else:
            return empty
        if cand is None or len(cand) == 0:
            return empty

        # MUST_NOT exclusion (ReqExclScorer)
        for t in plan["must_not"]:
            if len(cand) == 0:
                break
            dec = sr.get_decoded(t.term)
            if dec is None:
                continue
            keep = lookup(dec, cand) == 0
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
        then score only blocks whose impact bound can still compete."""
        p = sr.get_postings(t.term)
        if p is None:
            return None, None
        dec = sr.get_decoded(t.term)
        bounds = self._block_ubs(sr, p, t.term, t.weight)
        nblocks = len(bounds)
        if nblocks <= 8:
            docs, freqs = self._live(sr, dec.docs, dec.freqs)
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
                d, f = self._live(sr, *select_blocks(dec, np.sort(take)))
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

    def _conjunction(self, sr: SegmentReader, plan: dict, scoring: bool):
        """Lead with the rarest required term; look the rest up in their
        decoded arrays (ConjunctionDISI leapfrog role)."""
        must, flt, should = plan["must"], plan["filter"], plan["should"]
        required = [(t, True) for t in must] + [(t, False) for t in flt]
        # postings for required terms; any missing -> empty
        loaded = []
        for t, scores_q in required:
            p = sr.get_postings(t.term)
            if p is None:
                return None, None
            loaded.append((t, scores_q, p))
        order = sorted(range(len(loaded)), key=lambda i: loaded[i][2].doc_count)
        dec0 = sr.get_decoded(loaded[order[0]][0].term)
        cand, freqs0 = self._live(sr, dec0.docs, dec0.freqs)
        term_freqs: dict[int, np.ndarray] = {order[0]: freqs0}
        for oi in order[1:]:
            t = loaded[oi][0]
            f = lookup(sr.get_decoded(t.term), cand)
            keep = f > 0
            cand = cand[keep]
            term_freqs = {i: ff[keep] for i, ff in term_freqs.items()}
            term_freqs[oi] = f[keep]
            if len(cand) == 0:
                return cand, np.empty(0, np.float64)
        # required = MUST + FILTER (Boolean2ScorerSupplier): this path
        # always has >=1 required clause, so SHOULD clauses stay purely
        # optional (ReqOptSumScorer) unless minShouldMatch asks otherwise
        msm = plan["msm"]
        if not scoring and (msm <= 0 or not should):
            return cand, None
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
            dec = sr.get_decoded(t.term)
            if dec is None:
                continue
            f = lookup(dec, cand)
            hit = f > 0
            n_should += hit.astype(np.int64)
            if scoring and self._scores_term(t) and hit.any():
                sums[hit] += self._contrib(t, f[hit], norms[hit])
        if should and msm > 0:
            keep = n_should >= msm
            cand = cand[keep]
            if sums is not None:
                sums = sums[keep]
        return cand, sums

    def _disjunction(self, sr: SegmentReader, plan: dict, scoring: bool):
        """Exhaustive OR (DisjunctionSumScorer) with minShouldMatch. Both
        accumulators add each clause's float64 contribution per doc in
        clause order, so they give bit-identical scores."""
        postings = [(t, p) for t in plan["should"]
                    if (p := sr.get_postings(t.term)) is not None]
        if not postings:
            return None, None
        decoded = [self._live(sr, *sr.get_decoded(t.term)[:2])
                   for t, _p in postings]
        scored = [scoring and self._scores_term(t) for t, _p in postings]
        if (sr._contiguous and sum(p.doc_count for _t, p in postings)
                * _DENSE_OR_RATIO >= len(sr)):
            # dense segment-length accumulators (a term's docs are
            # unique, so fancy-indexed += is exact)
            n, base = len(sr), sr._base
            cnt = np.zeros(n, dtype=np.int32)
            sums_full = np.zeros(n, dtype=np.float64) if scoring else None
            for (t, _p), (docs, freqs), sc in zip(postings, decoded, scored):
                idx = docs - base
                cnt[idx] += 1
                if sc:
                    sums_full[idx] += self._contrib(
                        t, freqs, self._norm_data(sr, docs))
            cand_idx = np.nonzero(cnt)[0]
            cand, counts = cand_idx + base, cnt[cand_idx]
            sums = sums_full[cand_idx] if scoring else None
        else:
            # sorted union: cost follows the postings, not the segment
            cand = np.unique(np.concatenate([d for d, _ in decoded]))
            counts = np.zeros(len(cand), dtype=np.int32)
            sums = np.zeros(len(cand), dtype=np.float64) if scoring else None
            norms_cand = self._norm_data(sr, cand) if scoring else None
            for (t, _p), (docs, freqs), sc in zip(postings, decoded, scored):
                pos = np.searchsorted(cand, docs)
                counts[pos] += 1
                if sc:
                    sums[pos] += self._contrib(t, freqs, norms_cand[pos])
        if plan["msm"] > 1:
            keep = counts >= plan["msm"]
            cand = cand[keep]
            if sums is not None:
                sums = sums[keep]
        return cand, sums


# -- combiners over complete (docs, scores) on one doc space ----------------
# Shared by the nested-boolean and dismax weights and by
# ``MultiFieldSearcher``; sums run in double in clause order, so every
# caller gets bit-identical scores.

def _combine_bool(m_parts, f_parts, s_parts, msm, must_nots):
    """BooleanWeight over non-term clauses: MUST and FILTER intersect,
    scores sum MUST then SHOULD (DisjunctionSumScorer), minShouldMatch
    gates SHOULD, MUST_NOT excludes. ``m_parts``/``s_parts`` are
    (docs sorted, float64 scores); ``f_parts`` and the lazily consumed
    ``must_nots`` are doc arrays. Returns (docs, float64 sums)."""
    empty = (np.empty(0, np.int64), np.empty(0, np.float64))
    cand = None
    for d in [d for d, _ in m_parts] + list(f_parts):
        cand = d if cand is None else cand[np.isin(cand, d,
                                                   assume_unique=True)]
    if cand is None:
        parts = [d for d, _ in s_parts if len(d)]
        if not parts:
            return empty
        msm = max(msm, 1)
        cand = np.unique(np.concatenate(parts))
    if len(cand) == 0:
        return empty
    sums = np.zeros(len(cand), np.float64)
    counts = np.zeros(len(cand), np.int64)
    for i, (d, s) in enumerate(m_parts + s_parts):
        idx = np.searchsorted(cand, d)
        ok = (idx < len(cand)) & (cand[np.minimum(idx, len(cand) - 1)] == d)
        sums[idx[ok]] += s[ok]
        if i >= len(m_parts):
            counts[idx[ok]] += 1
    if s_parts and msm > 0:
        keep = counts >= msm
        cand, sums = cand[keep], sums[keep]
    for d in must_nots:
        if len(cand) == 0:
            break
        keep = ~np.isin(cand, d, assume_unique=True)
        cand, sums = cand[keep], sums[keep]
    return cand, sums


def _combine_dismax(per, tie_breaker: float):
    """DisjunctionMaxQuery: max + tie_breaker * (sum - max) over the
    parts that matched, in double. Returns (docs, float64 scores)."""
    per = [(d, s) for d, s in per if d is not None and len(d)]
    if not per:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    cand = np.unique(np.concatenate([d for d, _ in per]))
    mx = np.full(len(cand), -np.inf)
    total = np.zeros(len(cand), dtype=np.float64)
    for d, s in per:
        pos = np.searchsorted(cand, d)
        s64 = s.astype(np.float64)
        np.maximum.at(mx, pos, s64)
        total[pos] += s64
    return cand, mx + tie_breaker * (total - mx)


# -- weights (Weight/Scorer, SURVEY §3.3 steps 3 and 5) ----------------------

class _Weight:
    """One rewritten query node. Global statistics are gathered when
    the weight is created; ``scores``/``matches`` then run per segment.
    Sub-weights are always asked for COMPLETE, unpruned results: only
    the top-level weight may prune against ``threshold``."""

    def __init__(self, s: Searcher):
        self.s = s
        self.dt = np.float64 if s.exact64 else np.float32

    def scores(self, sr: SegmentReader, k: int, threshold: float,
               top: bool):
        """(docs, scores) of one segment, or (None, None)."""
        raise NotImplementedError

    def matches(self, sr: SegmentReader) -> np.ndarray:
        """The segment's matching docIDs (match-only)."""
        docs, _ = self.scores(sr, 10, -np.inf, False)
        return docs if docs is not None else np.empty(0, np.int64)


class _TermBoolWeight(_Weight):
    """A term, or a boolean of term clauses: the term kernels."""

    def __init__(self, s, q):
        super().__init__(s)
        self.plan = s._plan(q)

    def scores(self, sr, k, threshold, top):
        return self.s._match_and_score(sr, self.plan, scoring=True, k=k,
                                       threshold=threshold, top=top)

    def matches(self, sr):
        return self.s._match_and_score(sr, self.plan, scoring=False)[0]


class _NestedBoolWeight(_Weight):
    """A boolean with non-term clauses (query-parser groups): children
    run unpruned and combine in ``_combine_bool``."""

    def __init__(self, s, q):
        super().__init__(s)
        self.must = [_create_weight(s, c) for c in q.must]
        self.should = [_create_weight(s, c) for c in q.should]
        self.must_not = [_create_weight(s, c) for c in q.must_not]
        self.filter = [_create_weight(s, c) for c in q.filter]
        self.msm = q.min_should_match

    def scores(self, sr, k, threshold, top):
        def ev(w):
            d, sc = w.scores(sr, k, -np.inf, False)
            if d is None or len(d) == 0:
                return np.empty(0, np.int64), np.empty(0, np.float64)
            sc = sc.astype(np.float64)
            if not np.all(d[:-1] <= d[1:]):
                order = np.argsort(d, kind="stable")
                d, sc = d[order], sc[order]
            return d, sc

        m_parts = [ev(w) for w in self.must]
        f_parts = [ev(w)[0] for w in self.filter]
        s_parts = [ev(w) for w in self.should]
        cand, sums = _combine_bool(m_parts, f_parts, s_parts, self.msm,
                                   (ev(w)[0] for w in self.must_not))
        if len(cand) == 0:
            return None, None
        return cand, sums.astype(self.dt)


class _ConstWeight(_Weight):
    """ConstantScoreQuery: the inner query's matches, scored ``boost``."""

    def __init__(self, s, q):
        super().__init__(s)
        self.inner = _create_weight(s, q.inner)
        self.boost = np.float64(q.boost)

    def scores(self, sr, k, threshold, top):
        docs = self.inner.matches(sr)
        if len(docs) == 0:
            return None, None
        return docs, np.full(len(docs), self.boost, dtype=self.dt)

    def matches(self, sr):
        return self.inner.matches(sr)


class _DocSetWeight(_Weight):
    """Match-all, numeric range and doc-values terms: a doc set read
    from the segment, every live doc scored ``boost``."""

    def __init__(self, s, q):
        super().__init__(s)
        self.q = q

    def scores(self, sr, k, threshold, top):
        docs = self.matches(sr)
        return docs, np.full(len(docs), self.q.boost, dtype=self.dt)

    def matches(self, sr):
        q = self.q
        if isinstance(q, MatchAllDocsQuery):
            return sr.live_doc_ids()
        if isinstance(q, NumericRangeQuery):
            docs = sr.numeric_range_docs(q.column, q.lower, q.upper,
                                         q.include_lower, q.include_upper)
        else:
            docs = sr.dv_terms_docs(q.column, q.values)
        docs, = Searcher._live(sr, docs)
        return docs


class _DisMaxWeight(_Weight):
    """DisjunctionMaxQuery over complete disjunct results."""

    def __init__(self, s, q):
        super().__init__(s)
        self.subs = [_create_weight(s, c) for c in q.disjuncts]
        self.tie_breaker = float(q.tie_breaker)

    def scores(self, sr, k, threshold, top):
        cand, sc = _combine_dismax(
            [w.scores(sr, k, -np.inf, False) for w in self.subs],
            self.tie_breaker)
        if len(cand) == 0:
            return None, None
        return cand, sc.astype(self.dt)

    def matches(self, sr):
        parts = [d for d in (w.matches(sr) for w in self.subs) if len(d)]
        return (np.unique(np.concatenate(parts)) if parts
                else np.empty(0, np.int64))


class _CoveringWeight(_Weight):
    """CoveringScorer: candidates = union of sub matches; keep docs whose
    match COUNT >= max(1, minMatch(doc)); score = sum of the matching
    subs' scores (complete, unpruned — the per-doc minimum defeats
    block-max bounds)."""

    def __init__(self, s, q):
        from .expressions import compile_expression
        super().__init__(s)
        self.subs = [_create_weight(s, c) for c in q.queries]
        self.expr = compile_expression(q.min_match)

    def scores(self, sr, k, threshold, top):
        per = [w.scores(sr, k, -np.inf, False) for w in self.subs]
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
        variables = {}
        for col in sorted(self.expr.variables):
            got = sr.stored(cand, col)
            variables[col] = np.array(
                [float(v) if v is not None else 0.0 for v in got],
                dtype=np.float64)
        need = np.broadcast_to(
            np.asarray(self.expr(variables), np.float64), cand.shape)
        keep = cnt >= np.maximum(1, np.floor(need)).astype(np.int64)
        if not keep.any():
            return None, None
        return cand[keep], total[keep].astype(self.dt)


class _PhraseWeight(_Weight):
    """Phrase, span-near and multi-phrase: a positional freq kernel per
    segment, BM25-scored with the idf summed over every term (every
    alternative of a multi-phrase slot — MultiPhraseWeight collects all
    TermStatistics). Both idf sums are computed here, once."""

    def __init__(self, s, q):
        super().__init__(s)
        if isinstance(q, MultiPhraseQuery):
            terms = [t for alts in q.positions for t in alts]
            self.freqs = lambda sr: s._mphrase_freqs(sr, q.positions)
        elif isinstance(q, SpanNearQuery):
            terms = list(q.terms)
            self.freqs = lambda sr: s._span_freqs(sr, q.terms, q.slop,
                                                  q.in_order)
        else:
            terms = list(q.terms)
            self.freqs = lambda sr: s._phrase_freqs(sr, q.terms, q.slop)
        stats = s.reader.term_stats(terms)
        n = s.reader.doc_count
        dfs = [stats[t][0] for t in terms if stats[t][0] > 0]
        # idf summed in double then cast (BM25Similarity.idfExplain)
        idf_sum = 0.0
        for df in dfs:
            idf_sum += float(bm25.idf(df, n))
        self.weight = np.float32(np.float32(q.boost) * np.float32(idf_sum))
        # exact64: the same sum over double-precision idfs
        self.idf64 = sum(math.log(1 + (n - df + 0.5) / (df + 0.5))
                         for df in dfs)

    def scores(self, sr, k, threshold, top):
        docs, freqs = self.freqs(sr)
        if docs is None or len(docs) == 0:
            return None, None
        s = self.s
        if s.exact64:
            dl = sr.doc_lens_for(docs).astype(np.float64)
            tf = freqs.astype(np.float64)
            return docs, self.idf64 * tf / (
                tf + s.k1 * (1 - s.b + s.b * dl / s.avgdl64))
        return docs, bm25.score_freqs(freqs, sr.norms_for(docs),
                                      self.weight, s.cache)

    def matches(self, sr):
        docs, _ = self.freqs(sr)
        return docs if docs is not None else np.empty(0, np.int64)


class _FunctionScoreWeight(_Weight):
    """FunctionScoreQuery: the inner query's complete scores, rescored
    per segment by the compiled expression over the segment's stored
    numeric columns (missing values are NaN). Unpruned by design —
    expression scores are opaque to block-max bounds."""

    def __init__(self, s, q):
        from .expressions import compile_expression
        super().__init__(s)
        self.inner = _create_weight(s, q.inner)
        self.expr = compile_expression(q.expression)
        self.boost = q.boost

    def scores(self, sr, k, threshold, top):
        docs, sc = self.inner.scores(sr, k, -np.inf, False)
        if docs is None or len(docs) == 0:
            return None, None
        variables = {"_score": sc.astype(np.float64)}
        for col in sorted(self.expr.variables - {"_score"}):
            variables[col] = np.array(
                [np.nan if v is None else float(v)
                 for v in sr.stored(docs, col)], dtype=np.float64)
        new = np.broadcast_to(  # constant expressions yield 0-d
            np.asarray(self.expr(variables) * self.boost, np.float64),
            docs.shape)
        return docs, new.astype(self.dt)

    def matches(self, sr):
        return self.inner.matches(sr)


_WEIGHTS = {
    TermQuery: _TermBoolWeight,
    BooleanQuery: _TermBoolWeight,
    ConstantScoreQuery: _ConstWeight,
    MatchAllDocsQuery: _DocSetWeight,
    NumericRangeQuery: _DocSetWeight,
    DocValuesTermsQuery: _DocSetWeight,
    DisjunctionMaxQuery: _DisMaxWeight,
    CoveringQuery: _CoveringWeight,
    PhraseQuery: _PhraseWeight,
    SpanNearQuery: _PhraseWeight,
    MultiPhraseQuery: _PhraseWeight,
    FunctionScoreQuery: _FunctionScoreWeight,
}


def _create_weight(s: Searcher, q: Query) -> _Weight:
    """The weight of one rewritten query node."""
    cls = _WEIGHTS.get(type(q))
    if cls is None:
        raise TypeError(f"unsupported query {type(q)}")
    if cls is _TermBoolWeight and isinstance(q, BooleanQuery) and any(
            not isinstance(c, TermQuery)
            for c in (*q.must, *q.should, *q.must_not, *q.filter)):
        cls = _NestedBoolWeight
    return cls(s, q)
