"""Minimal-interval query algebra — the ``queries/intervals`` module
(``lucene/queries/src/java/org/apache/lucene/queries/intervals/
Intervals.java``; tests ``TestIntervals.java``, ``TestIntervalQuery.java``).

Sources compose like the reference factory methods: ``Term``,
``Phrase``, ``Ordered``, ``Unordered``, ``Or``, ``MaxGaps``,
``Containing`` / ``NotContaining``, ``ContainedBy`` / ``NotContainedBy``.
Evaluation follows minimal-interval semantics (an interval is dropped
when it strictly contains another produced interval — the
Clarke/Cormack-GCL & Vigna algebra the reference implements): every
source yields, per document, the sorted minimal interval list, on which
both starts and ends are strictly increasing — the invariant the
containment combinators exploit for O(log n) probes.

Per-segment evaluation reads each leaf term's positions once
(zero-copy from the postings cache) and combines candidate doc sets
with numpy set ops before any per-doc interval walk; only candidate
docs (the conjunction/union the node semantics imply) pay the walk,
on position slices cut by ``Searcher._per_doc`` (the phrase and span
freqs' cutter).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import pyarrow as pa

_EMPTY = np.empty((0, 2), dtype=np.int64)


def _minimalize(iv: np.ndarray, extra: np.ndarray | None = None):
    """Drop intervals that contain another interval; result sorted with
    strictly increasing starts AND ends. ``extra`` (per-interval
    payload, e.g. chained inner lengths) is filtered in lockstep."""
    if len(iv) <= 1:
        return iv if extra is None else (iv, extra)
    order = np.lexsort((iv[:, 1], iv[:, 0]))
    iv = iv[order]
    if extra is not None:
        extra = np.asarray(extra)[order]
    # equal starts: keep the smallest end only
    first = np.ones(len(iv), dtype=bool)
    first[1:] = iv[1:, 0] != iv[:-1, 0]
    iv = iv[first]
    if extra is not None:
        extra = extra[first]
    # right-to-left: keep when end < min end of later-starting intervals
    min_end = np.minimum.accumulate(iv[::-1, 1])[::-1]
    keep = np.ones(len(iv), dtype=bool)
    keep[:-1] = iv[:-1, 1] < min_end[1:]
    if extra is None:
        return iv[keep]
    return iv[keep], extra[keep]


class IntervalsSource:
    def leaf_terms(self) -> set:
        raise NotImplementedError

    def candidate_docs(self, term_docs: dict) -> np.ndarray:
        raise NotImplementedError

    def intervals(self, pos: dict) -> np.ndarray:
        """Minimal intervals (n,2) for ONE doc; ``pos`` maps leaf term
        -> sorted position array (absent terms map to empty)."""
        raise NotImplementedError


def _inter(arrays) -> np.ndarray:
    out = arrays[0]
    for a in arrays[1:]:
        out = out[np.isin(out, a, assume_unique=True)]
    return out


def _union(arrays) -> np.ndarray:
    return np.unique(np.concatenate(arrays)) if arrays else np.empty(
        0, np.int64)


@dataclass(frozen=True)
class Term(IntervalsSource):
    term: str

    def leaf_terms(self):
        return {self.term}

    def candidate_docs(self, term_docs):
        return term_docs[self.term]

    def intervals(self, pos):
        p = pos[self.term]
        if len(p) == 0:
            return _EMPTY
        return np.stack([p, p], axis=1).astype(np.int64)


@dataclass(frozen=True)
class Phrase(IntervalsSource):
    """Intervals.phrase — block-adjacent terms."""
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def leaf_terms(self):
        return set(self.terms)

    def candidate_docs(self, term_docs):
        return _inter([term_docs[t] for t in self.terms])

    def intervals(self, pos):
        starts = pos[self.terms[0]].astype(np.int64)
        for i, t in enumerate(self.terms[1:], 1):
            if len(starts) == 0:
                return _EMPTY
            starts = starts[np.isin(starts + i, pos[t].astype(np.int64))]
        if len(starts) == 0:
            return _EMPTY
        return np.stack([starts, starts + len(self.terms) - 1], axis=1)


def _chain_ordered(sub_ivs: list[np.ndarray]):
    """Per-start greedy chains (the reference's OrderedIntervalsSource
    walk): for each interval of the first sub, extend with the first
    later-starting interval of each next sub. Returns (intervals,
    inner_len_sums) before minimality filtering."""
    first = sub_ivs[0]
    if len(first) == 0:
        return _EMPTY, np.empty(0, np.int64)
    cur_end = first[:, 1].copy()
    inner = first[:, 1] - first[:, 0] + 1
    alive = np.ones(len(first), dtype=bool)
    for nxt in sub_ivs[1:]:
        if len(nxt) == 0:
            return _EMPTY, np.empty(0, np.int64)
        idx = np.searchsorted(nxt[:, 0], cur_end, side="right")
        ok = idx < len(nxt)
        alive &= ok
        idx = np.minimum(idx, len(nxt) - 1)
        cur_end = nxt[idx, 1]
        inner = inner + (nxt[idx, 1] - nxt[idx, 0] + 1)
    if not alive.any():
        return _EMPTY, np.empty(0, np.int64)
    iv = np.stack([first[alive, 0], cur_end[alive]], axis=1)
    return iv, inner[alive]


@dataclass(frozen=True)
class Ordered(IntervalsSource):
    """Intervals.ordered(+maxgaps): subs appear in order, gaps = width
    minus the chained sub-interval lengths."""
    subs: tuple
    max_gaps: int = -1  # -1 = unlimited

    def __post_init__(self):
        object.__setattr__(self, "subs", tuple(self.subs))

    def leaf_terms(self):
        return set().union(*(s.leaf_terms() for s in self.subs))

    def candidate_docs(self, term_docs):
        return _inter([s.candidate_docs(term_docs) for s in self.subs])

    def intervals(self, pos):
        iv, inner = _chain_ordered([s.intervals(pos) for s in self.subs])
        if len(iv) == 0:
            return iv
        # minimality first (the source yields minimal intervals), THEN
        # the gap filter — a subset of a minimal list stays minimal
        iv, inner = _minimalize(iv, inner)
        if self.max_gaps >= 0:
            gaps = (iv[:, 1] - iv[:, 0] + 1) - inner
            iv = iv[gaps <= self.max_gaps]
        return iv


@dataclass(frozen=True)
class Unordered(IntervalsSource):
    """Intervals.unordered(+maxgaps): minimal covering windows in any
    order (overlaps allowed, as the reference default)."""
    subs: tuple
    max_gaps: int = -1

    def __post_init__(self):
        object.__setattr__(self, "subs", tuple(self.subs))

    def leaf_terms(self):
        return set().union(*(s.leaf_terms() for s in self.subs))

    def candidate_docs(self, term_docs):
        return _inter([s.candidate_docs(term_docs) for s in self.subs])

    def intervals(self, pos):
        sub_ivs = [s.intervals(pos) for s in self.subs]
        if any(len(v) == 0 for v in sub_ivs):
            return _EMPTY
        import heapq
        ptr = [0] * len(sub_ivs)
        # heap of (start, sub_index); window = (min start, max end)
        heap = [(int(v[0, 0]), i) for i, v in enumerate(sub_ivs)]
        heapq.heapify(heap)
        max_end = max(int(v[0, 1]) for v in sub_ivs)
        inner0 = sum(int(v[0, 1] - v[0, 0] + 1) for v in sub_ivs)
        inner = inner0
        out, inners = [], []
        while True:
            s, i = heap[0]
            out.append((s, max_end))
            inners.append(inner)
            ptr[i] += 1
            if ptr[i] >= len(sub_ivs[i]):
                break
            nxt = sub_ivs[i][ptr[i]]
            inner += int(nxt[1] - nxt[0] + 1) - int(
                sub_ivs[i][ptr[i] - 1, 1] - sub_ivs[i][ptr[i] - 1, 0] + 1)
            max_end = max(max_end, int(nxt[1]))
            heapq.heapreplace(heap, (int(nxt[0]), i))
        iv = np.asarray(out, dtype=np.int64).reshape(-1, 2)
        iv, inners = _minimalize(iv, np.asarray(inners, dtype=np.int64))
        if self.max_gaps >= 0:
            gaps = (iv[:, 1] - iv[:, 0] + 1) - inners
            iv = iv[gaps <= self.max_gaps]
        return iv


@dataclass(frozen=True)
class Or(IntervalsSource):
    subs: tuple

    def __post_init__(self):
        object.__setattr__(self, "subs", tuple(self.subs))

    def leaf_terms(self):
        return set().union(*(s.leaf_terms() for s in self.subs))

    def candidate_docs(self, term_docs):
        return _union([s.candidate_docs(term_docs) for s in self.subs])

    def intervals(self, pos):
        ivs = [s.intervals(pos) for s in self.subs]
        ivs = [v for v in ivs if len(v)]
        if not ivs:
            return _EMPTY
        return _minimalize(np.concatenate(ivs))


@dataclass(frozen=True)
class MaxGaps(IntervalsSource):
    """Intervals.maxgaps wrapper (filter form, for pre-built sources).

    Over ``Ordered``/``Unordered`` subs the constraint is pushed into
    the sub's native ``max_gaps`` field (which tracks true inner
    content lengths per occurrence — exact Intervals.maxgaps
    semantics). For genuinely opaque sources (no per-occurrence inner
    length available) a WIDTH-BASED APPROXIMATION is applied: gaps are
    estimated as ``width - min(width over the doc)``, which can admit
    an interval whose every occurrence has gaps when inner lengths
    differ across occurrences."""
    sub: IntervalsSource = None
    max_gaps: int = 0

    def __post_init__(self):
        if isinstance(self.sub, (Ordered, Unordered)):
            from dataclasses import replace
            g = self.max_gaps if self.sub.max_gaps < 0 else min(
                self.sub.max_gaps, self.max_gaps)
            object.__setattr__(self, "sub", replace(self.sub, max_gaps=g))

    def leaf_terms(self):
        return self.sub.leaf_terms()

    def candidate_docs(self, term_docs):
        return self.sub.candidate_docs(term_docs)

    def intervals(self, pos):
        if isinstance(self.sub, (Ordered, Unordered)):
            # exact: the sub enforces max_gaps against true inner
            # lengths (pushed in __post_init__)
            return self.sub.intervals(pos)
        # width-based analog for opaque subs: gaps = width - min width
        iv = self.sub.intervals(pos)
        if len(iv) == 0:
            return iv
        minw = int((iv[:, 1] - iv[:, 0]).min()) + 1
        return iv[(iv[:, 1] - iv[:, 0] + 1) - minw <= self.max_gaps]


def _contains_some(big: np.ndarray, small: np.ndarray) -> np.ndarray:
    """bool mask over ``big``: contains at least one small interval.
    Relies on strictly-increasing starts and ends of minimal lists."""
    if len(small) == 0:
        return np.zeros(len(big), dtype=bool)
    j = np.searchsorted(small[:, 0], big[:, 0], side="left")
    ok = j < len(small)
    jc = np.minimum(j, len(small) - 1)
    return ok & (small[jc, 1] <= big[:, 1])


def _contained_in_some(small: np.ndarray, big: np.ndarray) -> np.ndarray:
    if len(big) == 0:
        return np.zeros(len(small), dtype=bool)
    j = np.searchsorted(big[:, 0], small[:, 0], side="right") - 1
    ok = j >= 0
    jc = np.maximum(j, 0)
    return ok & (big[jc, 1] >= small[:, 1])


@dataclass(frozen=True)
class Containing(IntervalsSource):
    big: IntervalsSource = None
    small: IntervalsSource = None

    def leaf_terms(self):
        return self.big.leaf_terms() | self.small.leaf_terms()

    def candidate_docs(self, term_docs):
        return _inter([self.big.candidate_docs(term_docs),
                       self.small.candidate_docs(term_docs)])

    def intervals(self, pos):
        b = self.big.intervals(pos)
        return b[_contains_some(b, self.small.intervals(pos))]


@dataclass(frozen=True)
class NotContaining(IntervalsSource):
    big: IntervalsSource = None
    small: IntervalsSource = None

    def leaf_terms(self):
        return self.big.leaf_terms() | self.small.leaf_terms()

    def candidate_docs(self, term_docs):
        return self.big.candidate_docs(term_docs)

    def intervals(self, pos):
        b = self.big.intervals(pos)
        return b[~_contains_some(b, self.small.intervals(pos))]


@dataclass(frozen=True)
class ContainedBy(IntervalsSource):
    small: IntervalsSource = None
    big: IntervalsSource = None

    def leaf_terms(self):
        return self.small.leaf_terms() | self.big.leaf_terms()

    def candidate_docs(self, term_docs):
        return _inter([self.small.candidate_docs(term_docs),
                       self.big.candidate_docs(term_docs)])

    def intervals(self, pos):
        s = self.small.intervals(pos)
        return s[_contained_in_some(s, self.big.intervals(pos))]


@dataclass(frozen=True)
class NotContainedBy(IntervalsSource):
    small: IntervalsSource = None
    big: IntervalsSource = None

    def leaf_terms(self):
        return self.small.leaf_terms() | self.big.leaf_terms()

    def candidate_docs(self, term_docs):
        return self.small.candidate_docs(term_docs)

    def intervals(self, pos):
        s = self.small.intervals(pos)
        return s[~_contained_in_some(s, self.big.intervals(pos))]


@dataclass(frozen=True)
class Before(IntervalsSource):
    """Intervals.before: source intervals that END before some
    reference interval STARTS (reference must match in the doc)."""
    source: IntervalsSource = None
    reference: IntervalsSource = None

    def leaf_terms(self):
        return self.source.leaf_terms() | self.reference.leaf_terms()

    def candidate_docs(self, term_docs):
        return _inter([self.source.candidate_docs(term_docs),
                       self.reference.candidate_docs(term_docs)])

    def intervals(self, pos):
        s = self.source.intervals(pos)
        r = self.reference.intervals(pos)
        if len(s) == 0 or len(r) == 0:
            return _EMPTY
        return s[s[:, 1] < r[:, 0].max()]


@dataclass(frozen=True)
class After(IntervalsSource):
    """Intervals.after: source intervals that START after some
    reference interval ENDS."""
    source: IntervalsSource = None
    reference: IntervalsSource = None

    def leaf_terms(self):
        return self.source.leaf_terms() | self.reference.leaf_terms()

    def candidate_docs(self, term_docs):
        return _inter([self.source.candidate_docs(term_docs),
                       self.reference.candidate_docs(term_docs)])

    def intervals(self, pos):
        s = self.source.intervals(pos)
        r = self.reference.intervals(pos)
        if len(s) == 0 or len(r) == 0:
            return _EMPTY
        return s[s[:, 0] > r[:, 1].min()]


def _overlaps_some(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """mask over a: overlaps at least one b interval (minimal lists:
    starts and ends both strictly increasing)."""
    if len(b) == 0:
        return np.zeros(len(a), dtype=bool)
    # overlap with b[j] iff b.start[j] <= a.end and b.end[j] >= a.start
    j_hi = np.searchsorted(b[:, 0], a[:, 1], side="right")  # starts <= a.end
    j_lo = np.searchsorted(b[:, 1], a[:, 0], side="left")   # ends >= a.start
    return j_lo < j_hi


@dataclass(frozen=True)
class Overlapping(IntervalsSource):
    """Intervals.overlapping: source intervals overlapping some
    reference interval."""
    source: IntervalsSource = None
    reference: IntervalsSource = None

    def leaf_terms(self):
        return self.source.leaf_terms() | self.reference.leaf_terms()

    def candidate_docs(self, term_docs):
        return _inter([self.source.candidate_docs(term_docs),
                       self.reference.candidate_docs(term_docs)])

    def intervals(self, pos):
        s = self.source.intervals(pos)
        return s[_overlaps_some(s, self.reference.intervals(pos))]


@dataclass(frozen=True)
class NonOverlapping(IntervalsSource):
    """Intervals.nonOverlapping: source intervals overlapping NO
    reference interval (reference may be absent entirely)."""
    source: IntervalsSource = None
    reference: IntervalsSource = None

    def leaf_terms(self):
        return self.source.leaf_terms() | self.reference.leaf_terms()

    def candidate_docs(self, term_docs):
        return self.source.candidate_docs(term_docs)

    def intervals(self, pos):
        s = self.source.intervals(pos)
        return s[~_overlaps_some(s, self.reference.intervals(pos))]


@dataclass(frozen=True)
class Extend(IntervalsSource):
    """Intervals.extend: widen each interval by (before, after)
    positions, floored at 0 — the 'phrase near the start of a window'
    building block."""
    sub: IntervalsSource = None
    before: int = 0
    after: int = 0

    def leaf_terms(self):
        return self.sub.leaf_terms()

    def candidate_docs(self, term_docs):
        return self.sub.candidate_docs(term_docs)

    def intervals(self, pos):
        iv = self.sub.intervals(pos)
        if len(iv) == 0:
            return iv
        out = np.stack([np.maximum(iv[:, 0] - self.before, 0),
                        iv[:, 1] + self.after], axis=1)
        return _minimalize(out)


# --------------------------------------------------------------------------
# evaluation against an index


def interval_freqs(searcher, source: IntervalsSource):
    """(global_docs, freqs): per matching doc, the number of minimal
    intervals the source yields (IntervalQuery's freq input). One
    positions read per segment for every leaf term; candidate docs via numpy
    set combines before any per-doc walk."""
    terms = sorted(source.leaf_terms())
    out_docs, out_freqs = [], []
    for sr in searcher.reader.segments():
        sr.ensure_positions(terms)
        empty = np.empty(0, np.int64)
        per_term = [sr.get_positions(t) or (empty, empty, empty)
                    for t in terms]
        cand = source.candidate_docs(
            {t: docs for t, (docs, _f, _p) in zip(terms, per_term)})
        cand, = searcher._live(sr, cand)
        if len(cand) == 0:
            continue
        freqs_out = np.array(
            [len(source.intervals(dict(zip(terms, slices))))
             for slices in searcher._per_doc(cand, per_term)],
            dtype=np.int64)
        hit = freqs_out > 0
        if hit.any():
            # postings carry source doc_ids (already global)
            out_docs.append(cand[hit])
            out_freqs.append(freqs_out[hit])
    if not out_docs:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(out_docs), np.concatenate(out_freqs)


def interval_match_docs(searcher, source: IntervalsSource) -> pa.Table:
    docs, _ = interval_freqs(searcher, source)
    return pa.table({"doc_id": pa.array(np.sort(docs), pa.int64())})


# --------------------------------------------------------------------------
# round-4 additions: the remaining Intervals factory surface


@dataclass(frozen=True)
class AtLeast(IntervalsSource):
    """Intervals.atLeast / MinimumShouldMatchIntervalsSource
    (``queries/intervals/MinimumShouldMatchIntervalsSource.java``):
    minimal intervals spanning at least ``min_match`` of the subs.

    Sweep over all sub-intervals by end position: at each event the
    narrowest span ending there starts at the ``min_match``-th largest
    "current best start" across subs; non-minimal candidates are
    dropped by the shared ``_minimalize``."""
    subs: tuple = ()
    min_match: int = 1

    def __post_init__(self):
        object.__setattr__(self, "subs", tuple(self.subs))

    def leaf_terms(self):
        return set().union(*(s.leaf_terms() for s in self.subs))

    def candidate_docs(self, term_docs):
        arrs = [np.unique(s.candidate_docs(term_docs)) for s in self.subs]
        allv = np.concatenate(arrs) if arrs else np.empty(0, np.int64)
        vals, cnt = np.unique(allv, return_counts=True)
        return vals[cnt >= self.min_match]

    def intervals(self, pos):
        m = self.min_match
        ivs = [s.intervals(pos) for s in self.subs]
        if sum(1 for v in ivs if len(v)) < m:
            return _EMPTY
        events = []
        for i, v in enumerate(ivs):
            for s, e in v:
                events.append((int(e), int(s), i))
        events.sort()
        cur = np.full(len(ivs), -1, dtype=np.int64)
        out = []
        for e, s, i in events:
            if s > cur[i]:
                cur[i] = s
            have = cur[cur >= 0]
            if len(have) >= m:
                # m-th largest current start = narrowest span ending at e
                start = np.partition(have, len(have) - m)[len(have) - m]
                out.append((int(start), e))
        if not out:
            return _EMPTY
        return _minimalize(np.asarray(out, dtype=np.int64).reshape(-1, 2))


@dataclass(frozen=True)
class MaxWidth(IntervalsSource):
    """Intervals.maxwidth (FilteredIntervalsSource.maxWidth): keep the
    sub's minimal intervals whose width (end - start + 1) is bounded."""
    sub: IntervalsSource = None
    max_width: int = 1

    def leaf_terms(self):
        return self.sub.leaf_terms()

    def candidate_docs(self, term_docs):
        return self.sub.candidate_docs(term_docs)

    def intervals(self, pos):
        iv = self.sub.intervals(pos)
        if len(iv) == 0:
            return iv
        return iv[(iv[:, 1] - iv[:, 0] + 1) <= self.max_width]


def at_least(min_match: int, *sources: IntervalsSource) -> IntervalsSource:
    """Intervals.atLeast (``Intervals.java:476-488``): == len(subs)
    degenerates to unordered; > len(subs) can never match."""
    if min_match == len(sources):
        return Unordered(tuple(sources))
    if min_match > len(sources):
        return Or(())  # NoMatchIntervalsSource analog
    return AtLeast(tuple(sources), min_match)


def within(source: IntervalsSource, positions: int,
           reference: IntervalsSource) -> IntervalsSource:
    """Intervals.within (``Intervals.java:418-421``): source intervals
    within ``positions`` of a reference interval — containedBy the
    reference extended both ways."""
    return ContainedBy(source, Extend(reference, positions, positions))


def not_within(minuend: IntervalsSource, positions: int,
               subtrahend: IntervalsSource) -> IntervalsSource:
    """Intervals.notWithin (``Intervals.java:403-407``)."""
    return NonOverlapping(minuend, Extend(subtrahend, positions, positions))


def unordered_no_overlaps(a: IntervalsSource,
                          b: IntervalsSource) -> IntervalsSource:
    """Intervals.unorderedNoOverlaps (``Intervals.java:355-357``):
    or(ordered(a, b), ordered(b, a))."""
    return Or((Ordered((a, b)), Ordered((b, a))))
