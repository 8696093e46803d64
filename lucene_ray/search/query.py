"""Query model: Term / Boolean trees (search/TermQuery.java,
search/BooleanQuery.java). Occur kinds MUST / SHOULD / MUST_NOT / FILTER
with the reference's scorer-assembly semantics
(``search/Boolean2ScorerSupplier.java:97-156``):

- MUST & FILTER: conjunction (FILTER matches but doesn't score)
- SHOULD: disjunction; with MUSTs present, SHOULD only adds score
  (optional clauses), else at least one SHOULD must match
- MUST_NOT: excluded (ReqExclScorer)
- query-level boost (BoostQuery) = scalar multiply on term weight
"""

from __future__ import annotations

from dataclasses import dataclass, field


class Query:
    pass


@dataclass(frozen=True)
class TermQuery(Query):
    term: str
    boost: float = 1.0
    field: str | None = None  # None = the index's default field


@dataclass(frozen=True)
class TermInSetQuery(Query):
    """Constant-score membership over many terms — the reference's
    ``TermInSetQuery`` (``core/src/java/org/apache/lucene/search/
    TermInSetQuery.java``; tests ``TestTermInSetQuery.java``): matches
    docs containing ANY of ``terms``, scored ``boost`` regardless of
    tf/idf, and EXEMPT from the maxClauseCount cap (its reason to
    exist — huge filter sets rewrite to a doc-set, not clauses).
    Terms absent from the index are simply skipped."""
    terms: tuple[str, ...] = ()
    boost: float = 1.0
    field: str | None = None


@dataclass(frozen=True)
class BooleanQuery(Query):
    must: tuple = ()
    should: tuple = ()
    must_not: tuple = ()
    filter: tuple = ()
    min_should_match: int = 0

    def __post_init__(self):
        for name in ("must", "should", "must_not", "filter"):
            v = getattr(self, name)
            if not isinstance(v, tuple):
                object.__setattr__(self, name, tuple(v))


@dataclass(frozen=True)
class PhraseQuery(Query):
    """Phrase over analyzed terms (search/PhraseQuery.java).

    ``slop == 0``: ExactPhraseMatcher — term_i at position p+i.
    ``slop > 0``: SloppyPhraseMatcher (search/SloppyPhraseMatcher.java,
    ``PhraseQuery.java:75-92`` slop builder): a doc matches when some
    occurrence tuple's *adjusted* positions (pos_i - i) span at most
    ``slop`` (transposed terms therefore need slop >= 2, matching
    ``TestSloppyPhraseQuery.java``); phrase freq accumulates
    ``1/(1+matchLength)`` per match of the pq walk. Scored with BM25
    using the phrase frequency and the summed idf of the terms
    (BM25Similarity.idfExplain). Requires an index built with
    positions."""
    terms: tuple = ()
    boost: float = 1.0
    slop: int = 0
    field: str | None = None

    def __post_init__(self):
        if not isinstance(self.terms, tuple):
            object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True)
class MultiPhraseQuery(Query):
    """Exact phrase with term ALTERNATIVES per position
    (search/MultiPhraseQuery.java; tests TestMultiPhraseQuery.java) —
    ``(("data",), ("merge", "window"))`` matches "data merge" or
    "data window". Each slot's postings are the union of its
    alternatives' positions (UnionPostingsEnum role); matching then
    proceeds like the exact phrase matcher. Scored with BM25 over the
    phrase frequency and the idf summed over every term in every slot
    (MultiPhraseWeight term-statistics collection). Requires
    positions."""
    positions: tuple = ()  # tuple of tuples of alternative terms
    boost: float = 1.0
    field: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "positions",
                           tuple(tuple(alts) for alts in self.positions))


@dataclass(frozen=True)
class SpanNearQuery(Query):
    """Proximity query over term clauses on positional postings — the
    spans / intervals role (``core/.../search/spans/SpanNearQuery.java``,
    ``queries/.../intervals/Intervals.java`` ordered/unordered; tests
    ``TestIntervals.java``, ``TestSpans.java``).

    A doc matches when the terms occur within a window whose unmatched
    gap count ``(width - n_terms)`` is <= ``slop``; ``in_order`` adds
    the strictly-increasing (ordered, non-overlapping) constraint.
    Repeated clauses in the unordered mode must bind distinct source
    positions (the sloppy-phrase repeats machinery). Scored like a
    phrase: summed-idf BM25 over accumulated sloppyWeight(gaps) of the
    minimal windows (SpanScorer analog)."""
    terms: tuple = ()
    slop: int = 0
    in_order: bool = False
    boost: float = 1.0
    field: str | None = None

    def __post_init__(self):
        if not isinstance(self.terms, tuple):
            object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True)
class ComplexPhraseQuery(Query):
    """Phrase whose positions may hold multi-term sub-queries — the
    ``queryparser/complexPhrase/ComplexPhraseQueryParser.java`` query
    shape (tests ``TestComplexPhraseQuery.java``): ``"data mer*"``,
    ``"(john jonathon) smith"``, ``"foo bar~1"``.

    ``positions`` is a tuple of slots; each slot is a tuple whose
    elements are literal term strings or multi-term ``Query`` objects
    (Prefix/Wildcard/Fuzzy/Regexp/TermRange). The searcher expands each
    sub-query against the term dictionary at rewrite time, then lowers
    to ``MultiPhraseQuery`` (slop 0), sloppy ``PhraseQuery`` (all
    slots singleton), or a capped disjunction of sloppy phrase variants
    (slop > 0 with alternatives — the span-near analog)."""
    positions: tuple = ()
    slop: int = 0
    boost: float = 1.0
    field: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "positions",
                           tuple(tuple(alts) for alts in self.positions))


@dataclass(frozen=True)
class MatchAllDocsQuery(Query):
    boost: float = 1.0


@dataclass(frozen=True)
class ConstantScoreQuery(Query):
    """Matches like the inner query, scores a constant ``boost``
    (search/ConstantScoreQuery.java)."""
    inner: Query = None
    boost: float = 1.0


@dataclass(frozen=True)
class BoostQuery(Query):
    inner: Query = None
    boost: float = 1.0


@dataclass(frozen=True)
class FunctionScoreQuery(Query):
    """Matches like ``inner``; scores with an arithmetic expression over
    numeric doc-value columns and the inner score (reserved variable
    ``_score``) — the ``queries/function/FunctionScoreQuery.java`` +
    ``expressions`` module roles (DoubleValuesSource over an
    expression; ``TestFunctionScoreQuery.java``). The expression is
    compiled once to a vectorized numpy closure
    (``search/expressions.py``); nothing bounds an expression's
    scores, so evaluation is complete (unpruned), as in the reference
    where function scores defeat impact-based pruning."""
    inner: Query = None
    expression: str = "_score"
    boost: float = 1.0


@dataclass(frozen=True)
class CoveringQuery(Query):
    """``search/CoveringQuery.java`` role: matches documents for which
    at least ``minimumNumberMatch(doc)`` of the sub-queries match,
    scoring as the sum of the matching sub-queries' scores
    (CoveringScorer semantics). The per-document minimum is a
    LongValuesSource in the reference; here it is an arithmetic
    expression over numeric doc-value columns (``min_match``,
    compiled by ``search/expressions.py`` — a constant like ``"2"``
    reproduces the fixed-minimum case). Values below 1 are treated
    as 1: a document that matches no sub-query is never a candidate,
    exactly as in the reference scorer."""
    queries: tuple = ()
    min_match: str = "1"

    def __post_init__(self):
        if not isinstance(self.queries, tuple):
            object.__setattr__(self, "queries", tuple(self.queries))


@dataclass(frozen=True)
class DisjunctionMaxQuery(Query):
    """max over disjunct scores + tie_breaker * sum of the others
    (search/DisjunctionMaxQuery.java)."""
    disjuncts: tuple = ()
    tie_breaker: float = 0.0

    def __post_init__(self):
        if not isinstance(self.disjuncts, tuple):
            object.__setattr__(self, "disjuncts", tuple(self.disjuncts))


# --- multi-term queries (rewritten against the term dictionary) ------------
# Default rewrite is constant-score, matching the reference's
# MultiTermQuery.CONSTANT_SCORE_REWRITE for prefix/wildcard/regexp/range
# (search/PrefixQuery.java, AutomatonQuery.java, TermRangeQuery.java).

MAX_CLAUSE_COUNT = 1024  # IndexSearcher.java:81


@dataclass(frozen=True)
class PrefixQuery(Query):
    prefix: str = ""
    boost: float = 1.0
    field: str | None = None


@dataclass(frozen=True)
class WildcardQuery(Query):
    pattern: str = ""  # '*' any run, '?' one char (WildcardQuery.java)
    boost: float = 1.0
    field: str | None = None


@dataclass(frozen=True)
class RegexpQuery(Query):
    pattern: str = ""
    boost: float = 1.0
    field: str | None = None


@dataclass(frozen=True)
class TermRangeQuery(Query):
    lower: str | None = None
    upper: str | None = None
    include_lower: bool = True
    include_upper: bool = True
    boost: float = 1.0
    field: str | None = None


@dataclass(frozen=True)
class NumericRangeQuery(Query):
    """Docs whose stored NUMERIC column lies in [lower, upper] — the
    PointRangeQuery / SortedNumericDocValuesField.newSlowRangeQuery
    role (``search/PointRangeQuery.java``, ``document/IntPoint.java``).
    Evaluated as a columnar predicate-pushdown scan of the segment's
    stored column (doc-values pattern) rather than a BKD tree; constant
    score. The column must be in the index's ``stored_cols``."""
    column: str = ""
    lower: float | int | None = None
    upper: float | int | None = None
    include_lower: bool = True
    include_upper: bool = True
    boost: float = 1.0


@dataclass(frozen=True)
class DocValuesTermsQuery(Query):
    """``sandbox/search/DocValuesTermsQuery.java`` role: constant-score
    membership of a STORED/doc-values column in a given value set —
    the doc-values-side dual of TermInSetQuery (no postings touched;
    a predicate-pushdown scan of (doc_id, column) only)."""
    column: str = ""
    values: tuple = ()
    boost: float = 1.0

    def __post_init__(self):
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))


@dataclass(frozen=True)
class RangeFieldQuery(Query):
    """Range FIELDS (``document/DoubleRange.java`` / ``IntRange.java``
    + ``search/RangeFieldQuery.java``): each document stores an
    N-dimensional closed range [lo_d, hi_d] as two doc-value columns
    per dimension; the query relates a query box to it with one of
    the reference's QueryTypes —

    - ``intersects``: doc range overlaps the query box in every dim
    - ``within``: doc range lies entirely inside the query box
    - ``contains``: doc range entirely contains the query box
    - ``crosses``: intersects, but neither within nor contains

    Lowered (in ``Searcher.rewrite``) to a constant-score boolean of
    per-column NumericRangeQuery filters over the dv sidecars — the
    BKD-over-encoded-ranges of the reference becomes row-group-pruned
    columnar predicate pushdown here."""
    lo_cols: tuple = ()
    hi_cols: tuple = ()
    lower: tuple = ()
    upper: tuple = ()
    relation: str = "intersects"
    boost: float = 1.0

    def __post_init__(self):
        for name in ("lo_cols", "hi_cols", "lower", "upper"):
            v = getattr(self, name)
            if not isinstance(v, tuple):
                object.__setattr__(self, name, tuple(v))
        if not (len(self.lo_cols) == len(self.hi_cols)
                == len(self.lower) == len(self.upper) > 0):
            raise ValueError("dimension mismatch")
        if self.relation not in ("intersects", "within", "contains",
                                 "crosses"):
            raise ValueError(f"unknown relation {self.relation!r}")

    def _filters(self, relation: str) -> list:
        out = []
        for lo_c, hi_c, qlo, qhi in zip(self.lo_cols, self.hi_cols,
                                        self.lower, self.upper):
            if relation == "intersects":
                # lo <= qhi AND hi >= qlo
                out.append(NumericRangeQuery(lo_c, None, qhi))
                out.append(NumericRangeQuery(hi_c, qlo, None))
            elif relation == "within":
                # qlo <= lo AND hi <= qhi
                out.append(NumericRangeQuery(lo_c, qlo, None))
                out.append(NumericRangeQuery(hi_c, None, qhi))
            else:  # contains: lo <= qlo AND hi >= qhi
                out.append(NumericRangeQuery(lo_c, None, qlo))
                out.append(NumericRangeQuery(hi_c, qhi, None))
        return out

    def lower_to_bool(self) -> Query:
        if self.relation == "crosses":
            inner = BooleanQuery(
                filter=tuple(self._filters("intersects")),
                must_not=(BooleanQuery(filter=tuple(self._filters("within"))),
                          BooleanQuery(
                              filter=tuple(self._filters("contains")))))
        else:
            inner = BooleanQuery(filter=tuple(self._filters(self.relation)))
        return ConstantScoreQuery(inner, self.boost)


@dataclass(frozen=True)
class FuzzyQuery(Query):
    """Terms within edit distance <= max_edits (search/FuzzyQuery.java;
    defaults maxEdits=2, prefixLength=0, transpositions=True i.e.
    Damerau/OSA). Scored as a disjunction of the expanded terms;
    ``boost_by_similarity=True`` is the
    MultiTermQuery.TopTermsBoostOnlyBooleanQueryRewrite role — each
    expanded term carries boost ``1 - editDistance / min(|term|,
    |query|)`` (FuzzyTermsEnum's boost attribute), so closer spellings
    outrank farther ones."""
    term: str = ""
    max_edits: int = 2
    prefix_length: int = 0
    transpositions: bool = True
    boost: float = 1.0
    field: str | None = None
    boost_by_similarity: bool = False


def expand_terms(q: Query, vocab) -> list[str]:
    """Matching terms from a sorted vocabulary iterable (term dict scan;
    the block-tree/FST intersection analog). Capped at MAX_CLAUSE_COUNT."""
    import re as _re

    out = []
    if isinstance(q, PrefixQuery):
        for t in vocab:
            if t.startswith(q.prefix):
                out.append(t)
    elif isinstance(q, WildcardQuery):
        parts = []
        i = 0
        pat = q.pattern
        while i < len(pat):
            c = pat[i]
            if c == "\\" and i + 1 < len(pat):  # \x = literal x
                parts.append(_re.escape(pat[i + 1]))
                i += 2
                continue
            parts.append(".*" if c == "*" else "." if c == "?"
                         else _re.escape(c))
            i += 1
        rx = _re.compile("".join(parts) + r"\Z")
        out = [t for t in vocab if rx.match(t)]
    elif isinstance(q, RegexpQuery):
        rx = _re.compile(q.pattern + r"\Z")  # anchored, Lucene semantics
        out = [t for t in vocab if rx.match(t)]
    elif isinstance(q, TermRangeQuery):
        for t in vocab:
            if q.lower is not None:
                if t < q.lower or (t == q.lower and not q.include_lower):
                    continue
            if q.upper is not None:
                if t > q.upper or (t == q.upper and not q.include_upper):
                    continue
            out.append(t)
    elif isinstance(q, FuzzyQuery):
        pfx = q.term[:q.prefix_length]
        for t in vocab:
            if not t.startswith(pfx):
                continue
            if abs(len(t) - len(q.term)) > q.max_edits:
                continue
            if _edit_distance(t, q.term, q.max_edits,
                              q.transpositions) <= q.max_edits:
                out.append(t)
    else:
        raise TypeError(f"not a multi-term query: {q}")
    if len(out) > MAX_CLAUSE_COUNT:
        raise ValueError(f"maxClauseCount is set to {MAX_CLAUSE_COUNT}")
    return out


def _prefix_upper(p: str) -> str | None:
    """Smallest string > every string with prefix ``p`` (None = unbounded)."""
    for i in range(len(p) - 1, -1, -1):
        c = ord(p[i])
        if c < 0x10FFFF:
            return p[:i] + chr(c + 1)
    return None


_REGEX_SPECIALS = set(".?*+()[]{}|\\^$")


def _literal_prefix(pattern: str, wildcard: bool) -> str:
    """Mandatory literal prefix of a wildcard/regexp pattern (the part
    every matching term must start with)."""
    out = []
    specials = set("*?") if wildcard else _REGEX_SPECIALS
    i = 0
    while i < len(pattern):
        c = pattern[i]
        if wildcard and c == "\\" and i + 1 < len(pattern):
            out.append(pattern[i + 1])  # escaped literal
            i += 2
            continue
        if c in specials:
            # a following regex quantifier makes the previous literal
            # optional: drop it
            if not wildcard and c in "?*{" and out:
                out.pop()
            break
        nxt = pattern[i + 1] if i + 1 < len(pattern) else ""
        if not wildcard and nxt in "?*+{":
            break
        out.append(c)
        i += 1
    return "".join(out)


def expansion_range(q: Query) -> tuple[str | None, str | None]:
    """Term-dictionary range [lo, hi] (inclusive, None = unbounded) that
    is a superset of the terms a multi-term query can match — lets the
    reader prune vocabulary row groups before the exact intersection
    (the block-tree ``intersect(CompiledAutomaton)`` analog)."""
    if isinstance(q, PrefixQuery):
        p = q.prefix
    elif isinstance(q, WildcardQuery):
        p = _literal_prefix(q.pattern, wildcard=True)
    elif isinstance(q, RegexpQuery):
        p = _literal_prefix(q.pattern, wildcard=False)
    elif isinstance(q, FuzzyQuery):
        p = q.term[:q.prefix_length]
    elif isinstance(q, TermRangeQuery):
        return q.lower, q.upper
    else:
        return None, None
    if not p:
        return None, None
    return p, _prefix_upper(p)


def _edit_distance(a: str, b: str, cap: int, transpositions: bool) -> int:
    """Levenshtein (or OSA with transpositions) with early exit > cap."""
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return max(la, lb)
    prev2 = None
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        lo = cap + 1
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            v = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
            if (transpositions and prev2 is not None and i > 1 and j > 1
                    and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]):
                v = min(v, prev2[j - 2] + 1)
            cur[j] = v
            lo = min(lo, v)
        if lo > cap:
            return cap + 1
        prev2, prev = prev, cur
    return prev[lb]


def common_terms_query(terms, df_by_term: dict, max_doc: int,
                       max_term_frequency: float = 0.01,
                       low_freq_occur: str = "should",
                       high_freq_occur: str = "should",
                       low_freq_msm: int = 0,
                       high_freq_msm: int = 0) -> Query:
    """CommonTermsQuery rewrite (``queries/src/java/org/apache/lucene/
    queries/CommonTermsQuery.java:145-205`` buildQuery; tests
    ``CommonTermsQueryTest.java``): terms whose df exceeds
    ``ceil(max_term_frequency * max_doc)`` (or the absolute count when
    >= 1) form the optional high-frequency group; the rest form the
    low-frequency group required as a MUST clause. With no low-freq
    terms the high-freq group becomes a conjunction (the reference's
    slow-query guard). Scores sum over every matched term."""
    import math
    low, high = [], []
    thr = (max_term_frequency if max_term_frequency >= 1
           else math.ceil(max_term_frequency * float(max_doc)))
    for t in terms:
        df = df_by_term.get(t, 0)
        (high if df > thr else low).append(TermQuery(t))
    occ_high = high_freq_occur
    if not low and high_freq_msm == 0 and occ_high != "must":
        occ_high = "must"
    clauses_must, clauses_should = [], []
    if low:
        g = (BooleanQuery(must=tuple(low)) if low_freq_occur == "must"
             else BooleanQuery(should=tuple(low),
                               min_should_match=low_freq_msm))
        clauses_must.append(g)
    if high:
        g = (BooleanQuery(must=tuple(high)) if occ_high == "must"
             else BooleanQuery(should=tuple(high),
                               min_should_match=high_freq_msm))
        (clauses_should if low else clauses_must).append(g)
    return BooleanQuery(must=tuple(clauses_must),
                        should=tuple(clauses_should))


def feature_saturation_query(inner: Query, field: str, weight: float,
                             pivot: float) -> FunctionScoreQuery:
    """FeatureField.newSaturationQuery analog
    (``document/FeatureField.java`` SaturationFunction: score
    contribution ``weight * S / (S + pivot)`` for feature value S),
    combined additively with the inner score as a SHOULD clause
    would be. The feature lives in a numeric doc-value column."""
    return FunctionScoreQuery(
        inner, f"_score + {weight} * {field} / ({field} + {pivot})")


def distance_feature_query(inner: Query, field: str, origin: float,
                           pivot: float, weight: float = 1.0
                           ) -> FunctionScoreQuery:
    """LongField.newDistanceFeatureQuery analog
    (``document/LongField.java`` / LongDistanceFeatureQuery: score
    contribution ``weight * pivot / (pivot + |value - origin|)``),
    added to the inner score — boosts docs whose numeric value is
    near the origin (recency/proximity boosting)."""
    return FunctionScoreQuery(
        inner,
        f"_score + {weight} * {pivot} / ({pivot} + abs({field} - {origin}))")


def feature_log_query(inner: Query, field: str, weight: float,
                      scaling_factor: float) -> FunctionScoreQuery:
    """FeatureField.newLogQuery analog (LogFunction: contribution
    ``weight * ln(scalingFactor + S)``), added to the inner score."""
    return FunctionScoreQuery(
        inner, f"_score + {weight} * ln({scaling_factor} + {field})")


def feature_sigmoid_query(inner: Query, field: str, weight: float,
                          pivot: float, exp: float) -> FunctionScoreQuery:
    """FeatureField.newSigmoidQuery analog (SigmoidFunction:
    contribution ``weight * S^a / (S^a + pivot^a)``)."""
    return FunctionScoreQuery(
        inner,
        f"_score + {weight} * pow({field}, {exp}) / "
        f"(pow({field}, {exp}) + pow({pivot}, {exp}))")


def and_query(terms) -> BooleanQuery:
    return BooleanQuery(must=tuple(TermQuery(t) for t in terms))


def or_query(terms) -> BooleanQuery:
    return BooleanQuery(should=tuple(TermQuery(t) for t in terms))


def parse_simple(expr: str) -> Query:
    """Minimal parser: 'a b c' -> OR; 'a AND b' -> conjunction;
    '-a' -> MUST_NOT; '+a' -> MUST (classic QueryParser surface subset,
    queryparser/classic/QueryParserBase.java)."""
    tokens = expr.split()
    if "AND" in tokens:
        terms = [t for t in tokens if t != "AND"]
        return and_query(terms)
    must, should, must_not = [], [], []
    for t in tokens:
        if t.startswith("+"):
            must.append(TermQuery(t[1:]))
        elif t.startswith("-"):
            must_not.append(TermQuery(t[1:]))
        else:
            should.append(TermQuery(t))
    if must or must_not:
        return BooleanQuery(must=tuple(must), should=tuple(should),
                            must_not=tuple(must_not))
    if len(should) == 1:
        return should[0]
    return BooleanQuery(should=tuple(should))


def query_terms(q: Query) -> list[str]:
    """All scoring/matching terms in the tree (for stats prefetch)."""
    if isinstance(q, TermQuery):
        return [q.term]
    if isinstance(q, BooleanQuery):
        out = []
        for group in (q.must, q.should, q.must_not, q.filter):
            for sub in group:
                out.extend(query_terms(sub))
        return out
    if isinstance(q, (ConstantScoreQuery, BoostQuery, FunctionScoreQuery)):
        return query_terms(q.inner)
    if isinstance(q, DisjunctionMaxQuery):
        out = []
        for sub in q.disjuncts:
            out.extend(query_terms(sub))
        return out
    if isinstance(q, CoveringQuery):
        out = []
        for sub in q.queries:
            out.extend(query_terms(sub))
        return out
    if isinstance(q, (PhraseQuery, SpanNearQuery, TermInSetQuery)):
        return list(q.terms)
    if isinstance(q, MultiPhraseQuery):
        return [t for alts in q.positions for t in alts]
    return []  # MatchAll / unexpanded multi-term
