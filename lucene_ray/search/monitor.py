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
an ANYTOKEN bucket that every document is checked against). A doc's
distinct terms select its CANDIDATE queries. Exact matching is the
searcher's own: a batch's candidate docs form one ``MemoryReader``
(the reference's ``DocumentBatch``; its field is the text column),
each candidate query runs ``Searcher.match_docs`` once over it, and a
(doc, query) pair is kept where the query was the doc's candidate.
Multi-term queries expand against the batch's vocabulary, so
``MAX_CLAUSE_COUNT`` applies to it as to a built index's dictionary.

Ray mapping (original design, not a translation): the registered-query
index is tiny relative to the corpus, so it is broadcast ONCE via
``ray.put`` and read once per actor in ``__init__``; documents stream
through an actor-pool ``map_batches`` stage (``match_stream``) that
emits (doc_id, query_id) match rows. Nothing about the document stream
is materialized.

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

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from ..analysis.analyzer import StandardAnalyzer
from ..analysis.arrow_tokenize import _tokenize_batch_arrow
from .memory import MemoryReader, one_doc
from .query import (
    BooleanQuery,
    BoostQuery,
    ComplexPhraseQuery,
    ConstantScoreQuery,
    CoveringQuery,
    DisjunctionMaxQuery,
    FunctionScoreQuery,
    MultiPhraseQuery,
    PhraseQuery,
    Query,
    SpanNearQuery,
    TermQuery,
)
from .searcher import Searcher, _PhraseWeight


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
    Phrase/MultiPhrase/SpanNear node, or a complex phrase, of several
    slots); position-free docs can then skip the ordered (Python)
    analyzer pass entirely."""
    if isinstance(q, (PhraseQuery, MultiPhraseQuery, SpanNearQuery)):
        return len(_PhraseWeight.positional_node(q)[0]) > 1
    if isinstance(q, ComplexPhraseQuery):
        return len(q.positions) > 1
    if isinstance(q, (ConstantScoreQuery, BoostQuery, FunctionScoreQuery)):
        return needs_positions(q.inner)
    if isinstance(q, DisjunctionMaxQuery):
        return any(needs_positions(d) for d in q.disjuncts)
    if isinstance(q, CoveringQuery):
        return any(needs_positions(d) for d in q.queries)
    if isinstance(q, BooleanQuery):
        return any(needs_positions(c) for c in
                   tuple(q.must) + tuple(q.filter) + tuple(q.should)
                   + tuple(q.must_not))
    return False


# --- exact matching -------------------------------------------------------

def _one_doc(pos: dict, numerics: dict | None) -> MemoryReader:
    """A one-doc reader from a term -> sorted positions dict."""
    return one_doc([t for t, p in pos.items() for _ in p],
                   [x for p in pos.values() for x in p], numerics)


def matches_doc(q: Query, pos: dict, numerics: dict | None = None) -> bool:
    """Exact match of ``q`` against one document given its
    term -> sorted positions array (and optional numeric columns): the
    searcher's ``match_docs`` over a one-doc ``MemoryReader``."""
    return len(Searcher(_one_doc(pos, numerics),
                        similarity="bm25_exact64").match_docs(q)) > 0


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
        return self._anytoken.union(*(self._postings.get(t, ())
                                      for t in terms))

    def match_doc(self, pos: dict, numerics: dict | None = None,
                  filter_value=None) -> list:
        """Matching query ids for one doc (sorted)."""
        return [qid for _r, qid in self._pairs(
            _one_doc(pos, numerics), [self.candidates(pos.keys())],
            [filter_value])]

    def match_batch(self, batch: pa.Table, text_col: str = "text",
                    id_col: str = "doc_id") -> pa.Table:
        """(doc_id, query_id) match rows for one Arrow batch. The
        vectorized Arrow kernel gives each doc's term MULTISET for
        candidate selection; the ordered posInc-aware Python analyzer
        runs ONLY for docs with a positional candidate. The candidate
        rows form one ``MemoryReader`` (docID = row; a multiset row's
        positions are its occurrence slots)."""
        flat, didx = _tokenize_batch_arrow(batch.column(text_col),
                                           self.analyzer)
        n = len(batch)
        # didx is not ordered across the kernel's legs: stable sort first
        order = np.argsort(didx, kind="stable")
        flat, didx = flat.take(pa.array(order)), didx[order]
        toks = flat.to_pylist()
        bounds = np.searchsorted(didx, np.arange(n + 1))
        cands = [self.candidates(set(toks[bounds[r]:bounds[r + 1]]))
                 for r in range(n)]
        pos_rows = np.array([bool(c & self._positional) for c in cands], bool)
        keep = (np.array([bool(c) for c in cands], bool) & ~pos_rows)[didx]
        terms, docs = [flat.filter(pa.array(keep))], [didx[keep]]
        slots = [(np.arange(len(didx)) - bounds[didx])[keep]]
        if pos_rows.any():  # real positions (keeping no token objects)
            texts = batch.column(text_col).to_pylist()
            rows, lens, pterms, pslots = np.flatnonzero(pos_rows), [], [], []
            for r in rows.tolist():
                ats = self.analyzer.tokens(texts[r] or "")
                lens.append(len(ats))
                pterms += [at.term for at in ats]
                pslots += [at.position for at in ats]
            terms.append(pa.array(pterms, flat.type))
            docs.append(np.repeat(rows, lens))
            slots.append(np.asarray(pslots, np.int64))
        cols = {c: batch.column(c) for c in batch.column_names
                if c not in (id_col, text_col)}
        reader = MemoryReader(pa.concat_arrays(terms), np.concatenate(docs),
                              np.concatenate(slots), n, cols, text_col)
        f = self.filter_field
        pairs = self._pairs(reader, cands, batch.column(f).to_pylist()
                            if f in batch.column_names else [None] * n)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        return pa.table({
            id_col: pa.array([ids[r] for r, _q in pairs], pa.int64()),
            "query_id": pa.array([q for _r, q in pairs], pa.string()),
        })

    def _pairs(self, reader, cands: list, filter_values: list) -> list:
        """Sorted (doc, query_id) pairs: every candidate query runs once
        over ``reader``; a pair is kept where the query is a candidate of
        the doc (``cands[doc]``) and its metadata filter passes."""
        s = Searcher(reader, similarity="bm25_exact64")
        out = []
        for qid in set().union(*cands):
            mq = self.queries[qid]
            want = dict(mq.metadata).get(self.filter_field)
            out += [(r, qid) for r in s.match_docs(mq.query).tolist()
                    if qid in cands[r] and want in (None, filter_values[r])]
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
