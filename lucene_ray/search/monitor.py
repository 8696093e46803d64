"""Reverse search / alerting — the ``lucene/monitor`` module role
(``monitor/Monitor.java``, ``monitor/TermFilteredPresearcher.java``,
``monitor/QueryAnalyzer.java``, ``monitor/QueryTree.java``,
``monitor/QueryDecomposer.java``; tests ``monitor/src/test/.../
TestMonitor.java``, ``TestTermPresearcher.java``,
``TestBooleanTermExtractor.java``).

A set of registered queries is matched against a STREAM of documents
(percolator pattern): each query is analyzed into a MINIMAL TERM SET —
a set of terms such that any matching document must contain at least
one of them (``QueryTree`` semantics: a conjunction node may be
represented by its single "best" child, a disjunction node needs the
union of its children; queries with no extractable terms fall back to
an ANYTOKEN bucket that every document is checked against). Documents
are tokenized, the posting lists of their distinct terms are unioned to
select CANDIDATE queries, and only the candidates are exact-matched
against the document. Phrase, multi-phrase and span-near nodes match
through the searcher's own slot gather and freq kernel, read from the
document's term -> positions dict (``positional_freq``).

Ray mapping (original design, not a translation): the registered-query
index is tiny relative to the corpus, so it is broadcast ONCE via
``ray.put`` and read once per actor in ``__init__``; documents stream
through an actor-pool ``map_batches`` stage (``match_stream``) that
tokenizes each batch with the shared vectorized Arrow kernel and emits
(doc_id, query_id) match rows. Nothing about the document stream is
materialized; per-batch work is bounded by candidates x doc terms.

The SIMPLE matcher (``QueryMatch.SIMPLE_MATCHER``) is implemented:
match rows only. Reference scoring matchers score against the
transient document batch as an index — batch-dependent numbers by
construction — so they are intentionally out of scope here.

Term weighting (``monitor/TermWeightor.java``): any weightor yields
CORRECT results (it changes candidate counts, never the match set);
this one prefers longer terms (an idf proxy), ties broken
lexicographically for determinism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

from ..analysis.analyzer import StandardAnalyzer
from .query import (
    BooleanQuery,
    BoostQuery,
    ConstantScoreQuery,
    DisjunctionMaxQuery,
    FuzzyQuery,
    MatchAllDocsQuery,
    MultiPhraseQuery,
    NumericRangeQuery,
    PhraseQuery,
    PrefixQuery,
    Query,
    RegexpQuery,
    SpanNearQuery,
    TermQuery,
    TermRangeQuery,
    WildcardQuery,
    expand_terms,
)
from .searcher import _PhraseWeight


@dataclass(frozen=True)
class MonitorQuery:
    """A registered query (monitor/MonitorQuery.java): id + query +
    optional metadata used for keyword-field filtering."""
    query_id: str
    query: Query
    metadata: tuple = ()  # ((key, value), ...) — hashable

    def __post_init__(self):
        if isinstance(self.metadata, dict):
            object.__setattr__(self, "metadata",
                               tuple(sorted(self.metadata.items())))


def term_weight(term: str) -> float:
    """TermWeightor analog: longer tokens are rarer (idf proxy)."""
    return float(len(term))


_ANYTOKEN = None  # sentinel: "no extractable term set — check always"


def minimal_terms(q: Query) -> frozenset | None:
    """The query's minimal term set, or None for ANYTOKEN.

    Invariant (the presearcher safety property, tested randomized):
    if a document matches ``q``, it contains at least one term of the
    returned set. Conjunction nodes pick the highest-weighted child
    (weakest-link set weight = min over members); disjunction nodes
    union their children; unextractable leaves (MatchAll, multi-term
    queries rewritten against the term dictionary, numeric ranges)
    force ANYTOKEN upward through disjunctions.
    """
    if isinstance(q, TermQuery):
        return frozenset([q.term])
    if isinstance(q, (PhraseQuery, SpanNearQuery)):
        if not q.terms:
            return _ANYTOKEN
        # conjunction of its terms: any single one is a safe filter
        best = max(q.terms, key=lambda t: (term_weight(t), t))
        return frozenset([best])
    if isinstance(q, (ConstantScoreQuery, BoostQuery)):
        return minimal_terms(q.inner)
    if isinstance(q, DisjunctionMaxQuery):
        return _union(minimal_terms(d) for d in q.disjuncts)
    if isinstance(q, BooleanQuery):
        conj = tuple(q.must) + tuple(q.filter)
        if conj:
            sets = [minimal_terms(c) for c in conj]
            usable = [s for s in sets if s is not None]
            if not usable:
                return _ANYTOKEN
            # pick the child set with the best weakest link
            return max(usable,
                       key=lambda s: (min(term_weight(t) for t in s),
                                      -len(s), tuple(sorted(s))))
        if q.should:
            return _union(minimal_terms(c) for c in q.should)
        return _ANYTOKEN  # pure must_not / empty: matches via exclusion
    # MatchAll, Prefix/Wildcard/Regexp/Fuzzy/TermRange/NumericRange:
    # term set unknown without a term dictionary -> ANYTOKEN
    return _ANYTOKEN


def _union(sets) -> frozenset | None:
    out: set = set()
    for s in sets:
        if s is None:
            return _ANYTOKEN
        out |= s
    return frozenset(out) if out else _ANYTOKEN


def needs_positions(q: Query) -> bool:
    """True when exact matching of ``q`` needs token positions (some
    Phrase/MultiPhrase/SpanNear node); position-free docs can then skip
    the ordered (Python) analyzer pass entirely."""
    if isinstance(q, (PhraseQuery, MultiPhraseQuery, SpanNearQuery)):
        return len(_PhraseWeight.positional_node(q)[0]) > 1
    if isinstance(q, (ConstantScoreQuery, BoostQuery)):
        return needs_positions(q.inner)
    if isinstance(q, DisjunctionMaxQuery):
        return any(needs_positions(d) for d in q.disjuncts)
    if isinstance(q, BooleanQuery):
        return any(needs_positions(c) for c in
                   tuple(q.must) + tuple(q.filter) + tuple(q.should)
                   + tuple(q.must_not))
    return False


# --- exact per-document matching -------------------------------------------

class _Docs:
    """Docs' term -> sorted positions dicts as one segment for the
    searcher's positional gather (doc i = ``rows[i]``, none deleted).
    Each positional node is matched once over all of them (the reference
    Monitor's DocumentBatch role): a batch pays per node, not per doc."""

    def __init__(self, rows: list):
        self.rows, self._freqs = rows, {}

    def add(self, pos: dict) -> "_Row":
        row = _Row(pos)
        row.docs, row.i = self, len(self.rows)
        self.rows.append(row)
        return row

    def get_positions(self, term: str):
        hold = [i for i, p in enumerate(self.rows) if term in p]
        if not hold:
            return None
        pos = [self.rows[i][term] for i in hold]
        return (np.asarray(hold, dtype=np.int64),
                np.array([len(p) for p in pos]), np.concatenate(pos))

    def live_mask(self, docs):
        return None

    def freqs(self, q: Query) -> dict:
        """doc -> freq of a positional ``q``, for the docs it matches."""
        f = self._freqs.get(q)
        if f is None:
            docs, freqs = _PhraseWeight.node_freqs(
                self, _PhraseWeight.positional_node(q))
            f = self._freqs[q] = ({} if docs is None else
                                  dict(zip(docs.tolist(), freqs.tolist())))
        return f


class _Row(dict):
    """One doc of a ``_Docs`` batch: its term -> positions dict, and the
    batch (``docs``, index ``i``) that matches its positional nodes."""
    __slots__ = ("docs", "i")


def positional_freq(q: Query, pos: dict) -> float:
    """The freq of a phrase, multi-phrase or span-near ``q`` in one doc
    (0.0: no match), from the searcher's own kernel over the doc (over
    its whole batch for a ``_Row``), so it matches as a built index."""
    docs, i = (pos.docs, pos.i) if isinstance(pos, _Row) else (_Docs([pos]), 0)
    return docs.freqs(q).get(i, 0.0)


def matches_doc(q: Query, pos: dict, numerics: dict | None = None) -> bool:
    """Exact match of ``q`` against one document given its
    term -> sorted positions array (and optional numeric columns).
    Phrase, multi-phrase and span-near nodes match on a positive
    ``positional_freq``."""
    if isinstance(q, TermQuery):
        return q.term in pos
    if isinstance(q, MatchAllDocsQuery):
        return True
    if isinstance(q, (ConstantScoreQuery, BoostQuery)):
        return matches_doc(q.inner, pos, numerics)
    if isinstance(q, DisjunctionMaxQuery):
        return any(matches_doc(d, pos, numerics) for d in q.disjuncts)
    if isinstance(q, BooleanQuery):
        for c in tuple(q.must) + tuple(q.filter):
            if not matches_doc(c, pos, numerics):
                return False
        for c in q.must_not:
            if matches_doc(c, pos, numerics):
                return False
        need = q.min_should_match
        if not (q.must or q.filter):
            need = max(need, 1)
        if q.should and need > 0:
            hits = sum(matches_doc(c, pos, numerics) for c in q.should)
            if hits < need:
                return False
        elif need > 0 and not q.should:
            return False
        return True
    if isinstance(q, (PhraseQuery, MultiPhraseQuery, SpanNearQuery)):
        return positional_freq(q, pos) > 0
    if isinstance(q, NumericRangeQuery):
        if not numerics or q.column not in numerics:
            return False
        v = numerics[q.column]
        if v is None:
            return False
        lo_ok = (q.lower is None or
                 (v >= q.lower if q.include_lower else v > q.lower))
        hi_ok = (q.upper is None or
                 (v <= q.upper if q.include_upper else v < q.upper))
        return lo_ok and hi_ok
    if isinstance(q, (PrefixQuery, WildcardQuery, RegexpQuery,
                      TermRangeQuery, FuzzyQuery)):
        # rewrite against the DOCUMENT's own (tiny) vocabulary
        return bool(expand_terms(q, sorted(pos.keys())))
    raise TypeError(f"monitor cannot match query type {type(q).__name__}")


class Monitor:
    """Registered-query store + presearcher (monitor/Monitor.java).

    ``register`` / ``deregister`` maintain the query set and the
    term -> query-ids presearcher postings; ``match_batch`` runs one
    Arrow batch of documents through candidate selection + exact match.
    The whole object is small (queries only) — broadcast it with
    ``ray.put`` and ship the ref to stream matching actors.
    """

    def __init__(self, analyzer: StandardAnalyzer | None = None,
                 filter_field: str | None = None):
        self.analyzer = analyzer or StandardAnalyzer()
        self.filter_field = filter_field
        self.queries: dict[str, MonitorQuery] = {}
        self._postings: dict[str, set] = {}   # term -> set[query_id]
        self._anytoken: set = set()
        self._positional: set = set()         # query_ids needing positions

    # -- registration -------------------------------------------------
    def register(self, *mqs: MonitorQuery) -> None:
        for mq in mqs:
            if mq.query_id in self.queries:
                self.deregister(mq.query_id)
            self.queries[mq.query_id] = mq
            ts = minimal_terms(mq.query)
            if ts is None:
                self._anytoken.add(mq.query_id)
            else:
                for t in ts:
                    self._postings.setdefault(t, set()).add(mq.query_id)
            if needs_positions(mq.query):
                self._positional.add(mq.query_id)

    def deregister(self, query_id: str) -> None:
        self.queries.pop(query_id, None)
        self._anytoken.discard(query_id)
        self._positional.discard(query_id)
        for s in self._postings.values():
            s.discard(query_id)

    def __len__(self) -> int:
        return len(self.queries)

    # -- matching -----------------------------------------------------
    def candidates(self, terms) -> set:
        """Presearcher: query ids that could match a doc with these
        distinct terms (union of posting lists + ANYTOKEN bucket)."""
        out = set(self._anytoken)
        post = self._postings
        for t in terms:
            s = post.get(t)
            if s:
                out |= s
        return out

    def match_doc(self, pos: dict, numerics: dict | None = None,
                  filter_value=None) -> list:
        """Matching query ids for one doc (sorted)."""
        return self._match_candidates(self.candidates(pos.keys()), pos,
                                      numerics, filter_value)

    def match_batch(self, batch: pa.Table, text_col: str = "text",
                    id_col: str = "doc_id") -> pa.Table:
        """(doc_id, query_id) match rows for one Arrow batch.

        Two-tier tokenization, mirroring the reference's DocumentBatch
        -> presearcher-disjunction -> exact-match flow: the vectorized
        Arrow kernel produces per-doc term MULTISETS (order-free) for
        candidate selection and for matching every position-free
        candidate; the ordered posInc-aware Python analyzer runs ONLY
        for docs whose candidate set contains a phrase/span query. Those
        docs form one ``_Docs``, so each positional node runs the
        searcher's slot kernel once per batch."""
        from ..analysis.arrow_tokenize import _tokenize_batch_arrow

        flat, didx = _tokenize_batch_arrow(batch.column(text_col),
                                           self.analyzer)
        n = len(batch)
        # group multiset tokens per doc (didx is not ordered across the
        # kernel's refinement legs -> stable sort first)
        order = np.argsort(didx, kind="stable")
        toks = flat.take(pa.array(order)).to_pylist()
        bounds = np.searchsorted(didx[order], np.arange(n + 1))
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        texts = None  # lazy: only fetched when a positional doc appears
        filt_vals = (batch.column(self.filter_field)
                     .to_pylist() if self.filter_field is not None
                     and self.filter_field in batch.column_names
                     else [None] * n)
        num_cols = {c: batch.column(c).to_numpy(zero_copy_only=False)
                    for c in batch.column_names
                    if pa.types.is_integer(batch.schema.field(c).type)
                    or pa.types.is_floating(batch.schema.field(c).type)}
        num_cols.pop(id_col, None)
        docs = _Docs([])  # the positional rows, matched node by node
        rows = []
        for r in range(n):
            row_toks = toks[bounds[r]:bounds[r + 1]]
            cand = self.candidates(set(row_toks))
            if not cand:
                continue
            if cand & self._positional:
                if texts is None:
                    texts = batch.column(text_col).to_pylist()
                pos: dict = {}
                for at in self.analyzer.tokens(texts[r] or ""):
                    pos.setdefault(at.term, []).append(at.position)
            else:  # multiset suffices; synthesize occurrence slots
                pos = {}
                for i, t in enumerate(row_toks):
                    pos.setdefault(t, []).append(i)
            pos = {t: np.asarray(v, dtype=np.int64)
                   for t, v in pos.items()}
            rows.append((r, cand, docs.add(pos) if cand & self._positional
                         else pos))
        out_doc, out_q = [], []
        for r, cand, pos in rows:
            numerics = {c: a[r] for c, a in num_cols.items()}
            for qid in self._match_candidates(cand, pos, numerics,
                                              filt_vals[r]):
                out_doc.append(ids[r])
                out_q.append(qid)
        return pa.table({
            id_col: pa.array(out_doc, pa.int64()),
            "query_id": pa.array(out_q, pa.string()),
        })

    def _match_candidates(self, cand, pos, numerics, filter_value) -> list:
        out = []
        for qid in cand:
            mq = self.queries[qid]
            if self.filter_field is not None and mq.metadata:
                want = dict(mq.metadata).get(self.filter_field)
                if want is not None and want != filter_value:
                    continue
            if matches_doc(mq.query, pos, numerics):
                out.append(qid)
        return sorted(out)


class _MonitorMatcher:
    """Actor-pool stage: broadcast monitor read once in ``__init__``."""

    def __init__(self, monitor_ref, text_col: str, id_col: str):
        import ray
        self.monitor = (ray.get(monitor_ref)
                        if isinstance(monitor_ref, ray.ObjectRef)
                        else monitor_ref)
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.monitor.match_batch(batch, self.text_col, self.id_col)


def match_stream(ds_or_path, monitor: Monitor, *, text_col: str = "text",
                 id_col: str = "doc_id", batch_size: int = 1024,
                 concurrency: int | None = None):
    """Stream a document Dataset through the monitor; returns a Dataset
    of (doc_id, query_id) match rows. The monitor is broadcast once."""
    import ray
    import ray.data

    from ..util import default_concurrency

    ds = (ray.data.read_parquet(ds_or_path)
          if isinstance(ds_or_path, str) else ds_or_path)
    mref = ray.put(monitor)
    return ds.map_batches(
        _MonitorMatcher,
        fn_constructor_kwargs={"monitor_ref": mref, "text_col": text_col,
                               "id_col": id_col},
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency or default_concurrency())
