"""Top-k BM25 search over an index: per-segment scoring + global merge.

Mirrors the reference query path (SURVEY.md §3.3):
- global stats computed once per query (TermStates / CollectionStatistics)
- per-segment scorers over each term's decoded doc/freq arrays: a
  top-level single-term query walks the term's postings in score order
  and stops after its k-th live score (the ImpactsDISI role, with no
  stored impacts: the order is one sort the segment reader keeps with
  the term's postings, ``SegmentReader.score_order``); the searcher
  keeps no per-term state
- one boolean weight over child weights of any kind: conjunctions lead
  with the clause of fewest docs and look the others up
  (ConjunctionDISI leapfrog); disjunctions accumulate every clause
  into segment-length arrays or a sorted union of their docs
  (``_DENSE_OR_RATIO``)
- phrase, multi-phrase and span-near share one path (intervals and
  the term automaton reuse its ``_per_doc`` slices):
  ``_gather`` loads the slots' positions and picks their candidates,
  ``_slot_freqs`` verifies them
  (vectorized exact phrase, else per-doc walks on ``_per_doc`` slices)
- tombstoned docs are masked at every candidate-formation point, so
  pruning thresholds never rise from deleted docs
- top-k ties break toward the lower global docID (HitQueue.java:78-81);
  cross-segment merge = sort by (-score, doc_id) (TopDocs.merge)
- scores: float32 per clause, summed in double (MUST then SHOULD, each
  in clause order), cast to float (DisjunctionSumScorer semantics); the
  score-ordered term path is bit-identical to the exhaustive evaluation

Every entry point (search, collect, eval_complete, count, match_docs,
explain, the profiler, the facet/join/sort/delete helpers) goes through
``Searcher.weight(q)``: rewrite, global term stats once per query node,
one batched postings load per segment, then one weight object per node
(``Searcher._weight_of``, the hook every combinator builds its children
through, maps each rewritten query class to its weight class in
``_WEIGHTS``). A weight's ``scores(sr)`` and ``matches(sr)`` run per
segment; ``search`` asks the top-level weight for ``top(sr, k,
threshold)`` instead, which only the term weight overrides to prune.
``explain`` and ``profiler.profile_query`` build that one tree and walk
it (``children()``, labelled as the query's fields), so they describe
the execution ``search`` runs; ``MultiFieldSearcher`` runs the
combinator weights across fields.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import bm25
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


def _check_k(k) -> int:
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"k must be an int >= 1, got {k!r}")
    return int(k)


def lookup(docs: np.ndarray, vals: np.ndarray | None, targets: np.ndarray):
    """The clause probe (conjunction leapfrog, optional SHOULD,
    exclusion): which ``targets`` a clause's sorted, non-empty ``docs``
    hold, and the clause's ``vals`` at those hits (None without vals)."""
    pos = np.minimum(np.searchsorted(docs, targets), len(docs) - 1)
    hit = docs[pos] == targets
    return hit, (None if vals is None else vals[pos[hit]])


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


class Searcher:
    """Searches one IndexReader (all or a subset of its segments)."""

    def __init__(self, reader: IndexReader, k1: float = bm25.K1, b: float = bm25.B,
                 similarity: str = "lucene"):
        """similarity: 'lucene' = exact float32 norm-quantized reference
        formula; 'bm25_exact64' = double precision with exact doc lengths
        (``bm25.idf64``/``bm25.score64``; the Similarity plug point,
        SURVEY.md §2.10 — also what an ANSI-SQL oracle computes), which
        ignores term boosts as the oracle has none; or a
        ``similarities.Similarity`` object (Classic TF-IDF / LMDirichlet /
        Boolean) which runs on the exact-dl rails, every match scored."""
        from .similarities import Similarity as _Sim
        self.reader = reader
        self.k1, self.b = k1, b
        self.sim = similarity if isinstance(similarity, _Sim) else None
        self.exact64 = similarity == "bm25_exact64" or self.sim is not None
        n = max(reader.doc_count, 1)
        self.avgdl = bm25.avg_field_length(max(reader.sum_total_term_freq, 1), n)
        self.avgdl64 = max(reader.sum_total_term_freq, 1) / float(n)
        self.cache = bm25.norm_inverse_cache(self.avgdl, k1, b)

    def _norm_data(self, sr: SegmentReader, cand: np.ndarray) -> np.ndarray:
        return sr.doc_lens_for(cand) if self.exact64 else sr.norms_for(cand)

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
            must = tuple(self.rewrite(s, boost) for s in q.must)
            should = tuple(self.rewrite(s, boost) for s in q.should)
            if not (q.must_not or q.filter) and len(must) + len(should) == 1 \
                    and q.min_should_match <= (1 if should else 0):
                # a lone MUST, or a lone SHOULD it takes to match, is the
                # clause itself (BooleanQuery.rewrite's single-clause case)
                return (must or should)[0]
            return BooleanQuery(
                must=must, should=should,
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
            # sloppy: capped disjunction of ORDERED span variants, however
            # many terms each slot expanded to (ComplexPhraseQueryParser.
            # java:335 builds SpanNearQuery with inOrder=true by default,
            # so "a b*"~2 must NOT match reversed-order docs)
            import itertools
            n_var = math.prod(len(s) for s in slots)
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
        query term's decoded postings with one batched load per segment
        (a phrase kernel loads its own terms' positions, ``_gather``).
        The returned weight scores or matches one segment at a time."""
        q = self.rewrite(q)
        terms = sorted(set(query_terms(q)))
        self.reader.term_stats(terms)  # one batched read; weights hit its memo
        w = self._weight_of(q)
        if terms:
            for sr in self.reader.segments():
                sr.ensure_terms(terms)
        return w

    def _weight_of(self, q: Query) -> "_Weight":
        """The weight of one rewritten query node; every combinator
        builds its children through this hook."""
        cls = _WEIGHTS.get(type(q))
        if cls is None:
            raise TypeError(f"unsupported query {type(q)}")
        return cls(self, q)

    def search(self, q: Query, k: int = 10, *, threshold_cb=None,
               publish_cb=None) -> TopDocs:
        """Top-k search (``k`` an int >= 1). The k-th best score so far is
        carried from segment to segment as the pruning threshold.
        ``threshold_cb`` (called before each segment; a higher value it
        returns raises the threshold) and ``publish_cb`` (called with each
        new threshold) let a caller observe or feed that threshold."""
        k = _check_k(k)
        w = self.weight(q)
        parts = []
        threshold = -np.inf
        for sr in self.reader.segments():
            if threshold_cb is not None:
                ext = threshold_cb()
                if ext is not None and ext > threshold:
                    threshold = float(ext)
            docs, scores = w.top(sr, k, threshold)
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
        global (score desc, docID asc) order, over the COMPLETE
        evaluation (the anchor is an exact (score, doc) pair from the
        previous page)."""
        k = _check_k(k)
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
            docs, scores = w.scores(sr)
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
        k = len(top.doc_ids) if k is None else _check_k(k)
        if len(top.doc_ids) == 0:
            return top
        cand = np.asarray(top.doc_ids, dtype=np.int64)
        d2, s2 = self.eval_complete(second_q)
        second = np.zeros(len(cand), dtype=np.float64)
        if len(d2):
            hit, vals = lookup(d2, s2, cand)
            second[hit] = vals
        new = np.asarray(top.scores, dtype=np.float64) + weight * second
        return _top_k(cand, new, k)

    def eval_complete(self, q: Query):
        """COMPLETE (docs, scores float64) across all segments, unpruned
        — the building block cross-field/cross-index combiners use
        (docs sorted ascending, scores aligned)."""
        w = self.weight(q)
        parts_d, parts_s = [], []
        for sr in self.reader.segments():
            d, s = w.scores(sr)
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
        tree ``{value, description, details: [...]}`` of the weight tree
        ``search`` runs. Each node's value is its ``scores`` at the doc
        in the segment that holds it live, so the root has the bits of
        the doc's score (0 / "no match" when the doc doesn't match).
        Term nodes break down into the exact64 BM25 factors (idf, tf,
        dl, avgdl) the way ``BM25Similarity.explain`` does."""
        w = self.weight(q)
        doc = np.array([doc_id], np.int64)
        for sr in self.reader.segments():
            if len(sr) and lookup(sr.doc_ids, None, doc)[0][0]:
                if len(self._live(sr, doc)[0]) and (
                        e := w.explain(sr, doc_id)):
                    return e
                break
        return {"value": 0.0, "description": "no match", "details": []}

    def count(self, q: Query) -> int:
        w = self.weight(q)
        return sum(len(w.matches(sr)) for sr in self.reader.segments())

    def match_docs(self, q: Query) -> np.ndarray:
        """All matching global docIDs, sorted (match-only, no scores)."""
        w = self.weight(q)
        out = [d for d in (w.matches(sr) for sr in self.reader.segments())
               if len(d)]
        return np.sort(np.concatenate(out)) if out else np.empty(0, np.int64)

    @staticmethod
    def _gather(sr, slots):
        """(live docs with an occurrence in every slot, each slot's (docs,
        freqs, positions)) in segment ``sr``, or None. A slot of several
        terms takes the (doc, pos)-sorted union of their occurrences
        (UnionPostingsEnum role). The slots' positions load in one
        batched read per part."""
        sr.ensure_positions([t for alts in slots for t in alts])
        cand, per_slot = None, []
        for alts in slots:
            got = [g for t in dict.fromkeys(alts)
                   if (g := sr.get_positions(t)) is not None]
            if not got:
                return None
            if len(got) > 1:  # merge runs of (doc ordinal, pos < 2^32) keys
                docs = np.unique(np.concatenate([d for d, _, _ in got]))
                key = np.sort(np.concatenate(
                    [(np.repeat(docs.searchsorted(d), f) << 32) | p
                     for d, f, p in got]), kind="stable")
                got = [(docs, np.bincount(key >> 32, minlength=len(docs)),
                        key & 0xFFFFFFFF)]
            per_slot.append(got[0])
            cand = (Searcher._live(sr, got[0][0])[0] if cand is None else
                    cand[lookup(got[0][0], None, cand)[0]])
            if len(cand) == 0:
                return None
        return (cand, per_slot) if per_slot else None

    @staticmethod
    def _slot_freqs(cand, per_slot, slots, slop: int, kind: str):
        """(docs, freqs) of a ``positional_node`` over ``_gather``'s
        output, or (None, None). Sloppy phrase: SloppyPhraseMatcher's pq
        walk on ADJUSTED positions (pos - slot); unordered near: the same
        walk on RAW positions, window ``(max-min) - (n-1) <= slop``
        (NearSpansUnordered); ordered near: NearSpansOrdered. Each
        minimal window adds ``1/(1+span)``."""
        if kind == "phrase" and slop == 0:
            return Searcher._exact_phrase(cand, per_slot)
        n = len(slots)
        grp, rpt = Searcher._repeat_groups(slots), len(set(slots)) < n
        if kind == "phrase":
            per_slot = [(d, f, p - i) for i, (d, f, p) in enumerate(per_slot)]
        off, span = ([0] * n, n - 1) if kind == "unordered" else (None, 0)
        out = []
        for d, s in zip(cand.tolist(), Searcher._per_doc(cand, per_slot)):
            f = (Searcher._ordered_span_freq(s, slop) if kind == "ordered"
                 else Searcher._sloppy_freq_doc(s, grp, slop, rpt, off, span))
            if f > 0:
                out.append((d, f))
        if not out:
            return None, None
        docs, freqs = zip(*out)
        return np.asarray(docs, np.int64), np.asarray(freqs, np.float64)

    @staticmethod
    def _exact_phrase(cand: np.ndarray, per_slot: list):
        """Exact-phrase freqs of the ``cand`` docs: each slot's
        occurrences in them become keys ``doc_ord * 2^32 + (pos - slot)``;
        intersecting the key sets across slots leaves one key per phrase
        start. Every slot occurs in a ``cand`` doc, so no key set is empty."""
        keys = None
        off = len(per_slot)  # keeps (pos - i + off) >= 0 within the ord block
        for i, (d, f, p) in enumerate(per_slot):
            od = np.repeat(d, f)
            at = np.minimum(np.searchsorted(cand, od), len(cand) - 1)
            sel = cand[at] == od
            k = np.unique((at[sel] << 32) + (p[sel] - i + off))  # sorted
            keys = k if keys is None else keys[lookup(k, None, keys)[0]]
            if len(keys) == 0:
                return None, None
        pfreq = np.bincount(keys >> 32, minlength=len(cand))
        hit = pfreq > 0
        return cand[hit], pfreq[hit].astype(np.int32)

    @staticmethod
    def _per_doc(cand: np.ndarray, per_slot: list):
        """Per ``cand`` doc, its positions in each (docs, freqs,
        positions) slot: a list of views, empty where it lacks the slot
        (its left and right insertion points in ``docs`` coincide)."""
        cuts = []
        for docs, freqs, pos in per_slot:
            starts = np.concatenate(([0], np.cumsum(freqs)))
            cuts.append((pos, starts[np.searchsorted(docs, cand)].tolist(),
                         starts[np.searchsorted(docs, cand, "right")].tolist()))
        for j in range(len(cand)):
            yield [p[lo[j]:hi[j]] for p, lo, hi in cuts]

    @staticmethod
    def _repeat_groups(terms: tuple) -> list[int]:
        """Slot -> repeat-group id (-1 for non-repeating terms) —
        SloppyPhraseMatcher's rptGroups."""
        rpt = [t for t in dict.fromkeys(terms) if terms.count(t) > 1]
        return [rpt.index(t) if t in rpt else -1 for t in terms]

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

    # -- per-segment --------------------------------------------------------
    @staticmethod
    def _live(sr: SegmentReader, docs: np.ndarray, *arrs):
        """Drop tombstoned docs (live-docs bitmap analog) — applied at
        every candidate-formation point so thresholds never rise from
        deleted docs' scores."""
        m = sr.live_mask(docs)
        if m is None:
            return (docs, *arrs)
        return (docs[m], *[a if a is None else a[m] for a in arrs])

    def _term_top(self, sr: SegmentReader, t: "_TermWeight", k: int,
                  threshold: float):
        """Single-term top-k candidates (ImpactsDISI role, no impacts).
        For a weight w > 0 each float32 step of ``w - w / (1 + x)``,
        ``x = freq * normInverse[norm]``, is monotone, so one order of
        the term's postings by (x desc, doc asc), which the segment
        reader keeps beside them (``score_order``), orders their scores
        for every weight. A prefix of it is scored, doubling, until it
        holds k live postings and ends below the k-th live score, so
        every tie of the k-th is in (HitQueue breaks equal scores by
        docID; unequal x can round to equal scores). Scores below
        ``threshold`` are dropped. A term of at most k postings is all
        of its own top k: scored whole, unsorted."""
        dec = sr.get_decoded(t.term)
        if dec is None:
            return None, None
        if len(dec.docs) <= k:
            docs, freqs = self._live(sr, dec.docs, dec.freqs)
            return docs, bm25.score_freqs(freqs, sr.norms_for(docs), t.weight,
                                          self.cache)
        order = sr.score_order(t.term, self.cache)
        n = k + 1
        while True:
            idx = order[:n]
            sc = bm25.score_freqs(dec.freqs[idx], sr.norms_for(dec.docs[idx]),
                                  t.weight, self.cache)
            docs, live = self._live(sr, dec.docs[idx], sc)
            if len(live) >= k:
                threshold = max(threshold, float(live[k - 1]))
            if n >= len(order) or sc[-1] < threshold:
                keep = live >= np.float32(threshold)
                return docs[keep], live[keep]
            n *= 2


# -- clause accumulators (one doc space; sums in double, in clause order) ---

def _union_sum(s: Searcher, sr: SegmentReader, clauses: list, scoring: bool):
    """DisjunctionSumScorer over ``clauses``, (weight, (docs, vals))
    of the clauses that match in ``sr``: the union of their live docs,
    each doc's count of matching clauses and, when scoring, the float64
    sum of their scores in clause order (else None). It accumulates
    into segment-length arrays when the clauses' summed doc counts
    times ``_DENSE_OR_RATIO`` reach the segment size, and into a sorted
    union of their docs otherwise (cost follows the postings, not the
    segment); a clause's docs are unique, so fancy-indexed += is exact
    and both give bit-identical sums."""
    live = [(w, *s._live(sr, *c)) for w, c in clauses]
    dense = sr._contiguous and (sum(len(c[0]) for _w, c in clauses)
                                * _DENSE_OR_RATIO >= len(sr))
    if dense:
        cand = None
        slots = [docs - sr._base for _w, docs, _v in live]
    else:
        cand = np.unique(np.concatenate([docs for _w, docs, _v in live]))
        slots = [np.searchsorted(cand, docs) for _w, docs, _v in live]
    n = len(sr) if dense else len(cand)
    counts = np.zeros(n, dtype=np.int32)
    sums = np.zeros(n, dtype=np.float64) if scoring else None
    for (w, docs, vals), idx in zip(live, slots):
        counts[idx] += 1
        if scoring:
            add = w.contrib(vals, s._norm_data(sr, docs)
                            if w.reads_norms else None)
            if add is not None:
                sums[idx] += add
    if not dense:
        return cand, counts, sums
    hit = np.nonzero(counts)[0]
    return hit + sr._base, counts[hit], (sums[hit] if scoring else None)


# -- weights (Weight/Scorer, SURVEY §3.3 steps 3 and 5) ----------------------

class _Weight:
    """One rewritten query node. Global statistics are gathered when
    the weight is created; ``scores``/``matches`` then run per segment
    and return COMPLETE, unpruned results. Only ``top``, which
    ``Searcher.search`` calls on the top-level weight, may prune.
    ``name`` (the node's query class) and ``children()`` describe the
    tree to ``explain`` and the profiler."""

    def __init__(self, s: Searcher, q: Query):
        self.s = s
        self.name = type(q).__name__
        self.dt = np.float64 if s.exact64 else np.float32

    def children(self):
        """(label, child weight) pairs of a combinator, in clause order."""
        return ()

    def scores(self, sr: SegmentReader):
        """(docs ascending, scores) of one segment, or (None, None)."""
        raise NotImplementedError

    def matches(self, sr: SegmentReader) -> np.ndarray:
        """The segment's matching docIDs (match-only)."""
        docs, _ = self.scores(sr)
        return docs if docs is not None else np.empty(0, np.int64)

    def top(self, sr: SegmentReader, k: int, threshold: float):
        """``scores(sr)``, of which a weight may drop docs that cannot
        enter a top k whose k-th score is already ``threshold``."""
        return self.scores(sr)

    def explain(self, sr: SegmentReader, doc: int) -> dict | None:
        """This node's Explanation at ``doc`` of ``sr``, or None when the
        node does not match it; the value is ``scores(sr)`` at the doc."""
        docs, scores = self.scores(sr)
        if docs is None or len(docs) == 0:
            return None
        hit, val = lookup(docs, scores, np.array([doc], np.int64))
        if not hit[0]:
            return None
        description, details = self.describe(sr, doc)
        return {"value": float(val[0]), "description": description,
                "details": details}

    def describe(self, sr: SegmentReader, doc: int):
        """(description, details) of the explanation at a matching doc."""
        return self.name, []

    # -- as a boolean clause -------------------------------------------------
    # computing its scores reads the candidates' norms (a scoring term)
    reads_norms = False

    def clause(self, sr: SegmentReader, scoring: bool):
        """(live docs ascending, vals) of this clause in ``sr``, or None
        when it matches nothing there; vals are the complete float64
        scores, or None when not scoring."""
        if not scoring:
            docs = self.matches(sr)
            return (docs, None) if len(docs) else None
        docs, vals = self.scores(sr)
        if docs is None or len(docs) == 0:
            return None
        return docs, vals.astype(np.float64)

    def contrib(self, vals: np.ndarray, norms):
        """float64 scores added to a boolean's sums from this clause's
        ``vals`` at its matching candidates (None adds nothing)."""
        return vals


class _TermWeight(_Weight):
    """TermQuery (TermWeight): the term's global df and ttf and its BM25
    weight, boost x idf. As a boolean clause it gives its decoded docs
    and freqs, tombstones included, and is scored (``contrib``) only on
    the candidates that survive."""

    def __init__(self, s, q):
        super().__init__(s, q)
        self.term, self.boost = q.term, q.boost
        self.df, self.ttf = s.reader.term_stats([q.term])[q.term]
        self.weight = (bm25.term_weight(q.boost, self.df, s.reader.doc_count)
                       if self.df > 0 else np.float32(0))
        # whether the term adds to scores (a 0 float32 weight does not)
        self.reads_norms = self.df > 0 if s.exact64 else self.weight > 0

    def scores(self, sr):
        dec = sr.get_decoded(self.term)
        if dec is None:
            return None, None
        docs, freqs = self.s._live(sr, dec.docs, dec.freqs)
        if len(docs) == 0:
            return None, None
        sums = np.zeros(len(docs), dtype=np.float64)
        if self.reads_norms:
            sums += self.contrib(freqs, self.s._norm_data(sr, docs))
        return docs, sums.astype(self.dt)

    def matches(self, sr):
        dec = sr.get_decoded(self.term)
        return np.empty(0, np.int64) if dec is None else \
            self.s._live(sr, dec.docs)[0]

    def top(self, sr, k, threshold):
        if self.s.exact64 or not self.reads_norms:
            return self.scores(sr)
        # a positive float32 weight: only the final top k is consumed
        return self.s._term_top(sr, self, k, threshold)

    def clause(self, sr, scoring):
        dec = sr.get_decoded(self.term)
        return None if dec is None else (dec.docs, dec.freqs)

    def describe(self, sr, doc):
        """The exact64 BM25 factors, as ``BM25Similarity.explain``."""
        n, dec = self.s.reader.doc_count, sr.get_decoded(self.term)
        factors = (
            (bm25.idf64(self.df, n), f"idf, n={n}, df={self.df}"),
            (int(dec.freqs[np.searchsorted(dec.docs, doc)]), "freq"),
            (float(sr.doc_lens_for(np.array([doc], np.int64))[0]), "dl"),
            (float(self.s.avgdl64), "avgdl"))
        return f"weight({self.term} in {doc}) [BM25Similarity]", [
            {"value": v, "description": d, "details": []} for v, d in factors]

    def contrib(self, freqs, norms):
        """float64 scores from freqs and norms (exact doc lengths on the
        exact64 rails), or None for a term that adds nothing."""
        s = self.s
        if not self.reads_norms:
            return None
        if s.sim is not None:
            return s.sim.term_score(
                freqs, norms, self.df, self.ttf, self.boost,
                s.reader.doc_count, s.reader.sum_total_term_freq)
        if s.exact64:
            return bm25.score64(freqs, norms,
                                bm25.idf64(self.df, s.reader.doc_count),
                                s.avgdl64, s.k1, s.b)
        return bm25.score_freqs(freqs, norms, self.weight,
                                s.cache).astype(np.float64)


class _BoolWeight(_Weight):
    """BooleanQuery (BooleanWeight, Boolean2ScorerSupplier): every clause
    is a child weight. MUST and FILTER intersect, led by the clause of
    fewest docs (ConjunctionDISI); SHOULD alone is a union
    (DisjunctionSumScorer) and beside required clauses only adds score
    (ReqOptSumScorer); minShouldMatch gates SHOULD (above their count, no
    doc matches); MUST_NOT excludes (ReqExclScorer). Scores sum in
    double, MUST then SHOULD, each in clause order, so a clause's kind
    never changes a sum's bits."""

    def __init__(self, s, q):
        super().__init__(s, q)
        self.must, self.should, self.must_not, self.filter = (
            [s._weight_of(c) for c in group]
            for group in (q.must, q.should, q.must_not, q.filter))
        self.msm = q.min_should_match

    def children(self):
        for kind in ("must", "should", "must_not", "filter"):
            for i, w in enumerate(getattr(self, kind)):
                yield f"{kind}[{i}]", w

    def describe(self, sr, doc):
        details = [dict(e, description=e["description"] + f" [{kind}]")
                   for kind in ("must", "should")
                   for w in getattr(self, kind)
                   if (e := w.explain(sr, doc)) is not None]
        return "sum of matching clauses", details

    def scores(self, sr):
        return self._run(sr, True)

    def matches(self, sr):
        docs = self._run(sr, False)[0]
        return docs if docs is not None else np.empty(0, np.int64)

    def _run(self, sr, scoring):
        if self.msm > len(self.should):
            return None, None  # fewer SHOULD than minShouldMatch: no scorer
        got = (self._conjunction if self.must or self.filter
               else self._disjunction)(sr, scoring)
        if got is None:
            return None, None
        cand, n_should, sums = got
        # minShouldMatch gates SHOULD (beside MUST clauses too); MUST_NOT
        # excludes by lookup
        keep = [n_should >= self.msm] if self.msm > 0 else []
        keep += [~lookup(c[0], None, cand)[0] for w in self.must_not
                 if (c := w.clause(sr, False)) is not None]
        if keep:
            m = np.logical_and.reduce(keep)
            cand, sums = cand[m], (None if sums is None else sums[m])
        if len(cand) == 0:
            return None, None
        return cand, (sums.astype(self.dt) if scoring else None)

    def _conjunction(self, sr, scoring):
        """Lead with the required clause of fewest docs; look the others
        up (ConjunctionDISI leapfrog), then the SHOULD clauses."""
        req = []
        for w, scored in ([(w, scoring) for w in self.must]
                          + [(w, False) for w in self.filter]):
            c = w.clause(sr, scored)
            if c is None:
                return None
            req.append(c)
        order = sorted(range(len(req)), key=lambda i: len(req[i][0]))
        cand, vals = self.s._live(sr, *req[order[0]])
        at = {order[0]: vals}
        for i in order[1:]:
            hit, vals = lookup(*req[i], cand)
            cand = cand[hit]
            if len(cand) == 0:
                return None
            at = {j: a if a is None else a[hit] for j, a in at.items()}
            at[i] = vals
        # beside required clauses SHOULD only scores, unless
        # minShouldMatch counts it
        if not scoring and self.msm <= 0:
            return cand, None, None
        sums = norms = None
        if scoring:
            if any(w.reads_norms for w in (*self.must, *self.should)):
                norms = self.s._norm_data(sr, cand)
            # in clause order, whichever clause led the intersection
            sums = np.zeros(len(cand), dtype=np.float64)
            for i, w in enumerate(self.must):
                add = w.contrib(at[i], norms)
                if add is not None:
                    sums += add
        n_should = np.zeros(len(cand), dtype=np.int64)
        for w in self.should:
            c = w.clause(sr, scoring)
            if c is None:
                continue
            hit, vals = lookup(*c, cand)
            n_should += hit
            if scoring and hit.any():
                add = w.contrib(vals, None if norms is None else norms[hit])
                if add is not None:
                    sums[hit] += add
        return cand, n_should, sums

    def _disjunction(self, sr, scoring):
        """Exhaustive OR (DisjunctionSumScorer)."""
        clauses = [(w, c) for w in self.should
                   if (c := w.clause(sr, scoring)) is not None]
        return _union_sum(self.s, sr, clauses, scoring) if clauses else None


class _ConstWeight(_Weight):
    """ConstantScoreQuery: the inner query's matches, scored ``boost``."""

    def __init__(self, s, q):
        super().__init__(s, q)
        self.inner = s._weight_of(q.inner)
        self.boost = np.float64(q.boost)

    def children(self):
        return [("inner", self.inner)]

    def describe(self, sr, doc):
        return "ConstantScore", [self.inner.explain(sr, doc)]

    def scores(self, sr):
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
        super().__init__(s, q)
        self.q = q

    def scores(self, sr):
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
    """DisjunctionMaxQuery over complete disjunct results: max +
    tie_breaker * (sum - max) over the disjuncts that match, in double."""

    def __init__(self, s, q):
        super().__init__(s, q)
        self.subs = [s._weight_of(c) for c in q.disjuncts]
        self.tie_breaker = float(q.tie_breaker)

    def children(self):
        return [(f"disjuncts[{i}]", w) for i, w in enumerate(self.subs)]

    def scores(self, sr):
        per = [(d, sc) for d, sc in (w.scores(sr) for w in self.subs)
               if d is not None and len(d)]
        if not per:
            return None, None
        cand = np.unique(np.concatenate([d for d, _ in per]))
        mx = np.full(len(cand), -np.inf)
        total = np.zeros(len(cand), dtype=np.float64)
        for d, sc in per:
            pos = np.searchsorted(cand, d)
            s64 = sc.astype(np.float64)
            np.maximum.at(mx, pos, s64)
            total[pos] += s64
        return cand, (mx + self.tie_breaker * (total - mx)).astype(self.dt)

    def matches(self, sr):
        parts = [d for d in (w.matches(sr) for w in self.subs) if len(d)]
        return (np.unique(np.concatenate(parts)) if parts
                else np.empty(0, np.int64))


class _CoveringWeight(_Weight):
    """CoveringScorer: candidates = union of sub matches; keep docs whose
    match COUNT >= max(1, minMatch(doc)); score = sum of the matching
    subs' scores (the boolean's disjunction accumulator, ``_union_sum``).
    Complete and unpruned: nothing bounds a per-doc minimum."""

    def __init__(self, s, q):
        from .expressions import compile_expression
        super().__init__(s, q)
        self.subs = [s._weight_of(c) for c in q.queries]
        self.expr = compile_expression(q.min_match)

    def children(self):
        return [(f"queries[{i}]", w) for i, w in enumerate(self.subs)]

    def scores(self, sr):
        clauses = [(w, c) for w in self.subs
                   if (c := w.clause(sr, True)) is not None]
        if not clauses:
            return None, None
        cand, cnt, total = _union_sum(self.s, sr, clauses, True)
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
    segment, scored over the statistics of every term (every
    alternative of a multi-phrase slot — MultiPhraseWeight collects all
    TermStatistics): BM25 with the idf summed over them (both idf sums
    are computed here, once), or a ``Similarity``'s ``phrase_score``."""

    def __init__(self, s, q):
        super().__init__(s, q)
        self.node = self.positional_node(q)
        terms = [t for alts in self.node[0] for t in alts]
        stats = s.reader.term_stats(terms)
        n = s.reader.doc_count
        # (df, ttf) of each term with postings, repeats included
        self.stats = [stats[t] for t in terms if stats[t][0] > 0]
        self.boost = q.boost
        dfs = [df for df, _ttf in self.stats]
        # idf summed in double then cast (BM25Similarity.idfExplain)
        idf_sum = 0.0
        for df in dfs:
            idf_sum += float(bm25.idf(df, n))
        self.weight = np.float32(np.float32(q.boost) * np.float32(idf_sum))
        # exact64: the same sum over double-precision idfs
        self.idf64 = sum(bm25.idf64(df, n) for df in dfs)

    @staticmethod
    def positional_node(q):
        """(slots, slop, kind): a slot is a tuple of alternative terms
        (a multi-phrase's positions, else one term each); kind is
        "phrase", "ordered" or "unordered"."""
        if isinstance(q, MultiPhraseQuery):
            return q.positions, 0, "phrase"
        slots = tuple((t,) for t in q.terms)
        if isinstance(q, SpanNearQuery):
            return slots, q.slop, "ordered" if q.in_order else "unordered"
        return slots, q.slop, "phrase"

    @staticmethod
    def node_freqs(src, node):
        """(docs, freqs) of a node over a segment."""
        got = Searcher._gather(src, node[0])
        if got is None:
            return None, None
        return Searcher._slot_freqs(*got, *node)

    def scores(self, sr):
        docs, freqs = self.node_freqs(sr, self.node)
        if docs is None or len(docs) == 0:
            return None, None
        s = self.s
        if s.sim is not None:
            return docs, s.sim.phrase_score(
                freqs, sr.doc_lens_for(docs), self.stats, self.boost,
                s.reader.doc_count, s.reader.sum_total_term_freq)
        if s.exact64:
            return docs, bm25.score64(freqs, sr.doc_lens_for(docs),
                                      self.idf64, s.avgdl64, s.k1, s.b)
        return docs, bm25.score_freqs(freqs, sr.norms_for(docs),
                                      self.weight, s.cache)

    def matches(self, sr):
        docs, _ = self.node_freqs(sr, self.node)
        return docs if docs is not None else np.empty(0, np.int64)


class _FunctionScoreWeight(_Weight):
    """FunctionScoreQuery: the inner query's complete scores, rescored
    per segment by the compiled expression over the segment's stored
    numeric columns (missing values are NaN). Unpruned by design:
    nothing bounds an expression's scores."""

    def __init__(self, s, q):
        from .expressions import compile_expression
        super().__init__(s, q)
        self.inner = s._weight_of(q.inner)
        self.expr = compile_expression(q.expression)
        self.boost = q.boost

    def children(self):
        return [("inner", self.inner)]

    def scores(self, sr):
        docs, sc = self.inner.scores(sr)
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
    TermQuery: _TermWeight,
    BooleanQuery: _BoolWeight,
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
