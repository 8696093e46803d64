"""In-memory index — the memory module (``lucene/memory/src/java/org/
apache/lucene/index/memory/MemoryIndex.java``, tests
``TestMemoryIndex.java``).

``MemoryReader`` holds analyzed docs in memory as one segment and
implements the reader and segment surface that ``Searcher`` and its
weights read, so a query over it runs the searcher's own rewrite and
weights, as over a built index of the same docs. The monitor matches a
document batch over one (the reference Monitor's ``DocumentBatch``).
``MemoryIndex`` is one analyzed doc that answers any number of queries
with the score it would get in a real one-doc index: a top-1 search
with ``BlendedBM25Similarity(1)``, i.e. exact64 BM25 with term boosts,
every held term at df 1.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..analysis.analyzer import StandardAnalyzer
from ..codecs.postings import DecodedPostings
from .bm25 import B, K1
from .query import Query
from .searcher import Searcher
from .similarities import BlendedBM25Similarity


class MemoryReader:
    """Docs in memory as a reader that is its own one segment. Token
    occurrence j is term ``terms[j]`` at ``positions[j]`` of doc
    ``docs[j]`` (docIDs 0 .. n_docs-1, none deleted); one doc's
    occurrences come in position order. ``columns`` maps a column to
    its n_docs values (None: missing), held as float64 (NaN: missing)
    when they are numbers and as objects otherwise (converted on first
    use), so doc-values terms and stored reads see every column and
    numeric ranges only numeric ones. The postings are built in one pass: one stable sort of the
    occurrences by (term, doc)."""

    _contiguous, _base = True, 0

    def __init__(self, terms, docs, positions, n_docs: int,
                 columns: dict | None = None, field: str = "text"):
        enc = pc.dictionary_encode(pa.array(terms, pa.string())
                                   if isinstance(terms, list) else terms)
        rank = pc.array_sort_indices(enc.dictionary).to_numpy()
        self._vocab = enc.dictionary.take(rank).to_pylist()  # sorted
        tid = np.empty(len(rank), np.int64)
        tid[rank] = np.arange(len(rank))
        m = max(n_docs, 1)
        docs = np.asarray(docs, np.int64)
        key = tid[enc.indices.to_numpy(zero_copy_only=False)] * m + docs
        order = np.argsort(key, kind="stable")
        key = key[order]
        self._pos = np.asarray(positions, np.int64)[order]
        # one posting per (term, doc) run of the sorted keys, whose
        # occurrences are [_ends[i], _ends[i + 1])
        first = np.flatnonzero(np.diff(key, prepend=-1))
        self._ends = np.r_[first, len(key)]
        self._docs = key[first] % m
        self._freqs = np.diff(self._ends).astype(np.int32)
        # term i's postings are [_start[i], _start[i + 1])
        self._start = np.searchsorted(key[first] // m,
                                      np.arange(len(rank) + 1))
        self.doc_ids = np.arange(n_docs, dtype=np.int64)
        self._dl = np.bincount(docs, minlength=n_docs)
        self.doc_count = self.num_docs = n_docs
        self.sum_total_term_freq = len(key)
        self._raw, self._cols = dict(columns or {}), {}
        self.field = field

    def segments(self):
        return (self,)

    def __len__(self):
        return len(self.doc_ids)

    def _range(self, term: str):
        """Term ``term``'s postings range, or None when absent."""
        i = bisect_left(self._vocab, term)
        if i == len(self._vocab) or self._vocab[i] != term:
            return None
        return self._start[i], self._start[i + 1]

    def term_stats(self, terms) -> dict[str, tuple[int, int]]:
        return {t: (0, 0) if (r := self._range(t)) is None else
                (int(r[1] - r[0]), int(self._ends[r[1]] - self._ends[r[0]]))
                for t in terms}

    def vocab(self, lo: str | None = None, hi: str | None = None) -> list[str]:
        """Sorted terms in [lo, hi] (None is unbounded)."""
        v = self._vocab
        return v[0 if lo is None else bisect_left(v, lo):
                 len(v) if hi is None else bisect_right(v, hi)]

    def live_mask(self, docs):  # none deleted; also the no-op loads
        return None

    ensure_terms = ensure_positions = live_mask

    def live_doc_ids(self) -> np.ndarray:
        return self.doc_ids

    def get_positions(self, term: str):
        """(docs, freqs, flat positions) or None."""
        if (r := self._range(term)) is None:
            return None
        a, b = r
        return (self._docs[a:b], self._freqs[a:b],
                self._pos[self._ends[a]:self._ends[b]])

    def get_decoded(self, term: str) -> DecodedPostings | None:
        got = self.get_positions(term)
        return None if got is None else DecodedPostings(*got[:2])

    def doc_lens_for(self, docs: np.ndarray) -> np.ndarray:
        return self._dl[docs]

    def _values(self, col: str) -> np.ndarray:
        """Column ``col`` (all NaN when absent), converted on first use."""
        got = self._cols.get(col)
        if got is None:
            raw = self._raw.get(col)
            got = self._cols[col] = (np.full(len(self), np.nan) if raw is None
                                     else _column(raw))
        return got

    def numeric_range_docs(self, col: str, lower, upper,
                           include_lower: bool = True,
                           include_upper: bool = True) -> np.ndarray:
        v = self._values(col)  # a missing (NaN) value is in no range
        if v.dtype == object:
            raise ValueError(f"column {col!r} is not numeric")
        lo = -np.inf if lower is None else lower
        hi = np.inf if upper is None else upper
        return np.flatnonzero(((v >= lo) if include_lower else (v > lo))
                              & ((v <= hi) if include_upper else (v < hi)))

    def dv_terms_docs(self, col: str, values) -> np.ndarray:
        want = set(values)
        return np.flatnonzero([x in want for x in self._values(col).tolist()])

    def stored(self, docs: np.ndarray, col: str):
        return [None if x is None or x != x else x
                for x in self._values(col)[docs].tolist()]


def _column(values) -> np.ndarray:
    """A column's values: float64 (None -> NaN) when every present one
    is a number (bool is not), else objects."""
    vals = (values.to_pylist() if isinstance(values, (pa.Array,
                                                      pa.ChunkedArray))
            else list(values))
    numeric = all(isinstance(x, (int, float, np.number))
                  and not isinstance(x, (bool, np.bool_))
                  for x in vals if x is not None)
    return (np.array(vals, np.float64) if numeric
            else np.fromiter(vals, object, len(vals)))


def one_doc(terms, positions, numerics: dict | None = None) -> MemoryReader:
    """A one-doc reader from its tokens' terms and positions and its
    column -> value dict."""
    return MemoryReader(terms, np.zeros(len(terms), np.int64), positions, 1,
                        {c: [v] for c, v in (numerics or {}).items()})


class MemoryIndex:
    """One analyzed document; ``search(q)`` -> float score (0.0 = no
    match, like MemoryIndex.search)."""

    def __init__(self, text: str, analyzer=None, numerics=None,
                 k1: float = K1, b: float = B):
        toks = (analyzer or StandardAnalyzer()).tokens(text)
        self.searcher = Searcher(
            one_doc([t.term for t in toks], [t.position for t in toks],
                    numerics), similarity=BlendedBM25Similarity(1, k1, b))

    def search(self, q: Query) -> float:
        td = self.searcher.search(q, 1)
        return float(td.scores[0]) if len(td.doc_ids) else 0.0
