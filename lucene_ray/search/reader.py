"""Index readers: point-in-time snapshot over one manifest generation
(DirectoryReader analog, ``index/StandardDirectoryReader.java``).

Every segment's postings are ``POSTINGS_BUCKETS`` term-sorted Parquet
parts with small row groups, a term in part ``bucket_of(term)``; every
generation's global (term, df, ttf) stats are parts bucketed the same
way. The first lookup into a part reads its ``term`` column once and
keeps it as an exact, resident term dictionary (``_TermDict``, the role
of the reference's in-memory terms index, ``codecs/lucene90/blocktree/
Lucene90BlockTreeTermsReader.java``; SURVEY.md §1.2): a term resolves
to its row number, or to absent, without another read. On disk the
column is front-coded (``index.builder.write_term_part``: each term
stores only its suffix after the prefix it shares with the previous
one); Parquet decodes it to the same Arrow strings. A stats part is
held whole (its df/ttf arrays beside its dictionary). The reader knows
one format (``index.manifest.FORMAT_VERSION``) and raises on a file
that lacks a part of it. Per-doc arrays (doc_id, doc_len, norm — ~13
bytes/doc) stay resident per segment; stored fields are read lazily with
docID predicate pushdown.

Opening a part reads its ``term``, ``df``, ``docs``, ``freqs`` and
block-length columns once, across every row group. Beside the
dictionary it keeps the rows' ``docs`` and ``freqs`` streams packed
(``codecs.postings.PackedRows``, the role of the reference's
memory-mapped postings file; SURVEY.md §1.2) and, decoded from them,
the docID and freq of every df = 1 row (the reference's
``singletonDocID`` in the term metadata, ``Lucene90PostingsWriter.
finishTerm``; SURVEY.md §3.1). A term's first touch then reads
nothing: a df = 1 term comes from the singletons, a part's other found
terms are decoded from its packed streams by one ``decode_rows`` per
call, and absent terms cost nothing. The decoded arrays
(docIDs and freqs, ``DecodedPostings``) are the one in-memory form of
a term: read-only, so scorers slice arrays instead of bit-unpacking
blocks on every query. A term's entry in the segment's postings LRU
(``_Resident``) holds all the reader keeps of it: those arrays, its
packed positions once a positional kernel loads them
(``ensure_positions``: one read per part and call of the row groups
holding the terms, ``term`` and ``positions`` only, which ``rg_reads``
and ``rows_loaded`` count), and its score order once a top-k asks for
it (``score_order``, sorted from the freqs and the resident norms; the
file holds no score bounds). One eviction drops all three.
"""

from __future__ import annotations

import os
from collections import OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..codecs.postings import (
    DecodedPostings,
    _offsets,
    decode_rows,
    packed_rows,
    unpack_rows,
)
from ..index.manifest import (
    POSTINGS_BUCKETS,
    IndexManifest,
    bucket_of,
    part_path,
    read_manifest,
)


class _TermDict:
    """Exact dictionary of a term-sorted column: each term's first 8
    UTF-8 bytes as a big-endian uint64 key (sorted like the terms), and
    the column's bytes to confirm a hit. A lookup is a ``searchsorted``
    over the keys, then a bisect over the (rarely several) rows that
    share the term's key, so an absent term is never taken for a row."""

    def __init__(self, col):
        a = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        a = a.cast(pa.large_string())
        self.n = n = len(a)
        _, off, data = a.buffers()
        off = (np.frombuffer(off, np.int64)[a.offset:a.offset + n + 1]
               if n else np.zeros(1, np.int64))
        # a copy, so an open part does not pin the column's Arrow buffers
        self.off = off.astype(np.int32 if off[-1] < 2**31 else np.int64)
        self.data = data.to_pybytes() if n else b""
        raw = np.zeros(len(self.data) + 8, np.uint8)
        raw[:len(self.data)] = np.frombuffer(self.data, np.uint8)
        k = np.arange(8)
        head = np.where(k < np.diff(self.off)[:, None],
                        raw[self.off[:-1, None] + k], 0).astype(np.uint8)
        self.keys = head.view(">u8").ravel().astype(np.uint64)

    def _at(self, i: int) -> bytes:
        return self.data[self.off[i]:self.off[i + 1]]

    def _left(self, tbs: list[bytes]) -> list[int]:
        """First row whose term is >= each of ``tbs`` (UTF-8 byte order,
        which is code-point order)."""
        ks = np.array([int.from_bytes(b[:8].ljust(8, b"\0"), "big")
                       for b in tbs], np.uint64)
        out = []
        for tb, lo, hi in zip(tbs,
                              np.searchsorted(self.keys, ks, "left").tolist(),
                              np.searchsorted(self.keys, ks, "right").tolist()):
            while lo < hi:  # rows sharing tb's key: bisect on the bytes
                mid = (lo + hi) // 2
                if self._at(mid) < tb:
                    lo = mid + 1
                else:
                    hi = mid
            out.append(lo)
        return out

    def rows(self, terms) -> list[int]:
        """Row of each term, -1 where the column lacks it."""
        tbs = [t.encode() for t in terms]
        return [i if i < self.n and self._at(i) == tb else -1
                for tb, i in zip(tbs, self._left(tbs))]

    def span(self, lo: str | None, hi: str | None) -> tuple[int, int]:
        """Rows [start, stop) of the terms in [lo, hi] (inclusive; None
        is unbounded)."""
        a = 0 if lo is None else self._left([lo.encode()])[0]
        b = self.n if hi is None else self._left([hi.encode() + b"\0"])[0]
        return a, max(a, b)

    def terms(self, start: int = 0, stop: int | None = None) -> list[str]:
        stop = self.n if stop is None else stop
        return [self._at(i).decode() for i in range(start, stop)]


def _route(terms) -> dict[int, list[str]]:
    """part -> the subset of ``terms`` that lives there."""
    out: dict[int, list[str]] = {}
    for t, b in zip(terms, bucket_of(terms).tolist()):
        out.setdefault(b, []).append(t)
    return out


class _PostingsPart:
    """One term-sorted postings part, resident from its open: its
    dictionary, where each row group starts, every row's packed docs
    and freqs (``packed``), and per row the docID (int32) and freq of a
    df = 1 term (``single_doc`` is -1 on every other row)."""

    def __init__(self, path: str):
        self.path = path
        # pre_buffer=False: positional loads make point reads of one or
        # two row groups, which Arrow's read coalescing only slows down
        self.pf = pq.ParquetFile(path, pre_buffer=False)
        md = self.pf.metadata
        self.rg_starts = _offsets([md.row_group(i).num_rows
                                   for i in range(md.num_row_groups)])
        t = self.pf.read(columns=["term", "df", "docs", "freqs", "docs_bb",
                                  "freqs_bb"], use_threads=False)
        self.dict = _TermDict(t.column("term"))
        self.packed = packed_rows(t)
        one = np.flatnonzero(self.packed.df == 1)
        self.single_doc = np.full(len(t), -1, np.int32)
        self.single_freq = np.zeros(len(t), np.int32)
        self.single_doc[one], self.single_freq[one] = decode_rows(
            self.packed, one)
        self.single_freq.flags.writeable = False

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the part keeps."""
        d = self.dict
        return (self.rg_starts.nbytes + d.off.nbytes + d.keys.nbytes
                + len(d.data) + self.packed.nbytes
                + self.single_doc.nbytes + self.single_freq.nbytes)

    def singleton(self, r: int) -> DecodedPostings | None:
        """Row ``r``'s decoded postings if its term has df = 1."""
        d = self.single_doc[r]
        if d < 0:
            return None
        docs = np.array([d], np.int64)
        docs.flags.writeable = False
        return DecodedPostings(docs, self.single_freq[r:r + 1])

    def postings(self, rows: list[int]) -> list[DecodedPostings]:
        """Decoded postings of ``rows``: a df = 1 row from the
        singletons, the others in one decode of the packed streams."""
        got = [self.singleton(r) for r in rows]
        decoded = iter(unpack_rows(
            self.packed, [r for r, g in zip(rows, got) if g is None]))
        return [next(decoded) if g is None else g for g in got]

    def read_rows(self, rows: list[int], columns=None):
        """(the given rows in order, row groups read, rows read): one
        read of the row groups that hold them."""
        rows = np.asarray(rows, np.int64)
        rg = np.searchsorted(self.rg_starts, rows, "right") - 1
        rgs = np.unique(rg)
        # use_threads=False: these are small point reads; Arrow's
        # internal pool costs more per call than it saves on them
        t = self.pf.read_row_groups(rgs.tolist(), columns=columns,
                                    use_threads=False)
        base = _offsets(np.diff(self.rg_starts)[rgs])
        idx = base[np.searchsorted(rgs, rg)] + rows - self.rg_starts[rg]
        # one row (the common first touch) is a zero-copy slice
        got = t.slice(int(idx[0]), 1) if len(idx) == 1 else t.take(idx)
        return got, len(rgs), len(t)


class _Resident:
    """A term's entry in its segment's postings LRU: its decoded
    postings, its packed positions once a positional caller loaded them,
    and its score order once a top-k sorted it, with the norm-inverse
    table it was sorted by. Evicting the entry drops all three."""

    __slots__ = ("postings", "positions", "order", "table")

    def __init__(self, postings: DecodedPostings):
        self.postings = postings
        self.positions = self.order = self.table = None


class SegmentReader:
    def __init__(self, seg_dir: str, cache_size: int = 4096,
                 del_gen: int = -1, dvu_gen: int = -1):
        self._seg_dir = seg_dir
        self._postings_dir = os.path.join(seg_dir, "postings.parquet")
        self._parts: dict[int, _PostingsPart] = {}
        self._docs_path = os.path.join(seg_dir, "docs.parquet")
        d = pq.read_table(self._docs_path,
                          columns=["doc_id", "doc_len", "norm"])
        self.doc_ids = d.column("doc_id").to_numpy()
        self.doc_lens = d.column("doc_len").to_numpy()
        self.norms = d.column("norm").to_numpy().astype(np.uint8)
        # contiguous docIDs (the common corpus layout) -> O(1) lookups
        n = len(self.doc_ids)
        self._contiguous = bool(
            n and self.doc_ids[-1] - self.doc_ids[0] == n - 1)
        self._base = int(self.doc_ids[0]) if n else 0
        # LRUQueryCache analog: term -> everything resident of the term
        self._cache: "OrderedDict[str, _Resident]" = OrderedDict()
        self._cache_size = cache_size
        self._absent: set[str] = set()
        self._dv_cache: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        # live docs (Lucene90LiveDocsFormat analog): sorted deleted docIDs
        self.deleted: np.ndarray | None = None
        if del_gen >= 0:
            dp = os.path.join(seg_dir, f"deletes_gen{del_gen}.parquet")
            self.deleted = np.sort(pq.read_table(
                dp, columns=["doc_id"]).column("doc_id").to_numpy())
        # numeric doc-values overlay (updateNumericDocValue analog):
        # col -> (sorted doc_ids, int64 values); consulted by stored()
        # and every numeric-range / sort-by-value path
        self._dvu: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        if dvu_gen >= 0:
            up = os.path.join(seg_dir, f"dv_updates_gen{dvu_gen}.parquet")
            t = pq.read_table(up)
            cols = np.asarray(t.column("col").to_pylist(), dtype=object)
            ud = t.column("doc_id").to_numpy()
            uv = t.column("value").to_numpy()
            for c in np.unique(cols):
                m = cols == c
                order = np.argsort(ud[m])
                self._dvu[str(c)] = (ud[m][order], uv[m][order])
        # observability: rows/row-groups that positional loads read
        self.rows_loaded = 0
        self.rg_reads = 0

    def live_mask(self, docs: np.ndarray) -> np.ndarray | None:
        """Boolean live mask for global docIDs, or None when no deletes."""
        if self.deleted is None or len(self.deleted) == 0:
            return None
        pos = np.searchsorted(self.deleted, docs)
        pos = np.minimum(pos, len(self.deleted) - 1)
        return self.deleted[pos] != docs

    def live_doc_ids(self) -> np.ndarray:
        docs = self.doc_ids.astype(np.int64)
        m = self.live_mask(docs)
        return docs if m is None else docs[m]

    def _idx_for(self, docs: np.ndarray) -> np.ndarray:
        if self._contiguous:
            return docs - self._base
        return np.searchsorted(self.doc_ids, docs)

    def __len__(self):
        return len(self.doc_ids)

    @property
    def num_terms(self):
        return sum(pq.read_metadata(part_path(self._postings_dir, b)).num_rows
                   for b in range(POSTINGS_BUCKETS))

    def _part(self, b: int) -> _PostingsPart:
        got = self._parts.get(b)
        if got is None:
            got = self._parts[b] = _PostingsPart(
                part_path(self._postings_dir, b))
        return got

    def terms(self):
        """All terms in this segment (sorted): every part's dictionary,
        a tool/diagnostic path, not a query path."""
        return iter(sorted(t for b in range(POSTINGS_BUCKETS)
                           for t in self._part(b).dict.terms()))

    def resident_bytes(self) -> int:
        """Bytes of the arrays its open postings parts keep: their term
        dictionaries, packed streams and singletons."""
        return sum(p.nbytes for p in self._parts.values())

    def ensure_terms(self, terms) -> None:
        """Load the given terms' decoded postings: each resolves in its
        part's dictionary; a df = 1 term is served from the part's
        resident singletons, and a part's other found terms are decoded
        in one pass from its packed streams, with no read. Absent terms
        are recorded; everything loaded lands in the LRU cache."""
        self._load([t for t in dict.fromkeys(terms)
                    if t not in self._cache and t not in self._absent],
                   positions=False)

    def ensure_positions(self, terms) -> None:
        """``ensure_terms``, plus one read per part of the row groups
        holding the found terms (``term`` and ``positions`` only): their
        packed positions join their LRU entries."""
        self._load([t for t in dict.fromkeys(terms) if t not in self._absent
                    and (t not in self._cache
                         or self._cache[t].positions is None)],
                   positions=True)

    def _load(self, missing: list[str], positions: bool) -> None:
        if not missing:
            return
        loaded = 0  # found terms of this call, kept at the LRU's end
        for b, part_terms in _route(missing).items():
            part = self._part(b)
            rows = part.dict.rows(part_terms)
            self._absent.update(t for t, r in zip(part_terms, rows) if r < 0)
            found = {t: r for t, r in zip(part_terms, rows) if r >= 0}
            new = [t for t in found if t not in self._cache]
            self._cache.update(zip(new, map(_Resident, part.postings(
                [found[t] for t in new]))))
            for term in found:
                self._cache.move_to_end(term)
            if positions and found:
                got, rgs, nrows = part.read_rows(list(found.values()),
                                                 ["term", "positions"])
                self.rg_reads += rgs  # Parquet reads, before the selection
                self.rows_loaded += nrows
                if got.column("term").to_pylist() != list(found):
                    raise ValueError(f"{part.path}: rows do not hold the "
                                     "terms its dictionary names")
                for t, buf in zip(found, got.column("positions").to_pylist()):
                    self._cache[t].positions = buf
            loaded += len(found)
        # evict least recently used terms, never one this call loaded:
        # its scorer would decode it again, one row at a time
        while len(self._cache) > max(self._cache_size, loaded):
            self._cache.popitem(last=False)

    def _entry(self, term: str) -> _Resident | None:
        """The term's LRU entry, loaded on a miss and made the most
        recent; None if absent."""
        got = self._cache.get(term)
        if got is not None:
            self._cache.move_to_end(term)
        elif term not in self._absent:
            self.ensure_terms([term])
            got = self._cache.get(term)
        return got

    def get_decoded(self, term: str) -> DecodedPostings | None:
        """The term's decoded (docs, freqs), decoded on first use and
        kept while the term stays in the postings cache — the OS
        page-cache role for resident postings. None if absent."""
        got = self._entry(term)
        return None if got is None else got.postings

    def get_positions(self, term: str):
        """(docs, freqs, flat positions) or None. Requires an index built
        with ``index_positions=True``."""
        from ..codecs.postings import unpack_positions
        self.ensure_positions([term])
        got = self._entry(term)
        if got is None:
            return None
        if not got.positions:
            raise ValueError(
                "index was built without positions (index_positions=True)")
        docs, freqs = got.postings
        return docs, freqs, unpack_positions(got.positions, freqs)

    def score_order(self, term: str, norm_inverse: np.ndarray):
        """The term's postings in score order under a searcher's
        float32[256] norm-inverse table: int32 posting indexes by
        (x desc, doc asc), ``x = freq * norm_inverse[norm]``; None if the
        term is absent. Sorted on first use and kept in the term's LRU
        entry, keyed by the table, so it leaves with the postings."""
        got = self._entry(term)
        if got is None:
            return None
        if got.order is None or not (got.table is norm_inverse or
                                     np.array_equal(got.table, norm_inverse)):
            # one sort of uint64 keys: NOT of x's float32 bits (x > 0, so
            # they order as the values) above the posting index; tombstoned
            # postings stay in, so the order holds across deletes
            docs, freqs = got.postings
            x = freqs.astype(np.float32) * norm_inverse[self.norms_for(docs)]
            key = (~x.view(np.uint32)).astype(np.uint64) << np.uint64(32)
            got.order = np.sort(key | np.arange(len(x), dtype=np.uint64)
                                ).astype(np.uint32).view(np.int32)
            got.table = norm_inverse
        return got.order

    def df(self, term: str) -> int:
        dec = self.get_decoded(term)
        return 0 if dec is None else len(dec.docs)

    def norms_for(self, docs: np.ndarray) -> np.ndarray:
        """Norm bytes for (sorted or unsorted) global docIDs in this segment."""
        return self.norms[self._idx_for(docs)]

    def doc_lens_for(self, docs: np.ndarray) -> np.ndarray:
        return self.doc_lens[self._idx_for(docs)]

    def numeric_range_docs(self, col: str, lower, upper,
                           include_lower: bool = True,
                           include_upper: bool = True) -> np.ndarray:
        """Sorted docIDs whose stored numeric ``col`` is in range.

        Prefers the VALUE-SORTED ``dv_<col>.parquet`` sidecar (the
        BKD/SortedNumericDocValues role — row-group min/max stats bound
        the read to the range's row groups); falls back to a pushdown
        scan of the stored column."""
        ck = (col, lower, upper, include_lower, include_upper)
        cached = self._dv_cache.get(ck)
        if cached is not None:
            self._dv_cache.move_to_end(ck)
            return cached
        out = self._numeric_range_docs(col, lower, upper, include_lower,
                                       include_upper)
        ov = self._dvu.get(col)
        if ov is not None:
            # overlay wins: drop updated docs from the base result,
            # re-add those whose NEW value is in range
            ud, uv = ov
            out = out[~np.isin(out, ud)]
            keep = np.ones(len(uv), dtype=bool)
            if lower is not None:
                keep &= (uv >= lower) if include_lower else (uv > lower)
            if upper is not None:
                keep &= (uv <= upper) if include_upper else (uv < upper)
            out = np.sort(np.concatenate([out, ud[keep]]))
        self._dv_cache[ck] = out
        if len(self._dv_cache) > 64:  # LRUQueryCache role for filters
            self._dv_cache.popitem(last=False)
        return out

    def _numeric_range_docs(self, col, lower, upper, include_lower,
                            include_upper) -> np.ndarray:
        dv_path = os.path.join(self._seg_dir, f"dv_{col}.parquet")
        if os.path.isfile(dv_path):
            pf = pq.ParquetFile(dv_path)
            md = pf.metadata
            rgs = []
            for i in range(md.num_row_groups):
                st = md.row_group(i).column(0).statistics
                if st is None or not st.has_min_max:
                    rgs = list(range(md.num_row_groups))
                    break
                if lower is not None and st.max < lower:
                    continue
                if upper is not None and st.min > upper:
                    continue
                rgs.append(i)
            if not rgs:
                return np.empty(0, np.int64)
            t = pf.read_row_groups(rgs, use_threads=False)
            v = t.column("value").to_numpy()
            keep = np.ones(len(v), dtype=bool)
            if lower is not None:
                keep &= (v >= lower) if include_lower else (v > lower)
            if upper is not None:
                keep &= (v <= upper) if include_upper else (v < upper)
            return np.sort(t.column("doc_id").to_numpy()
                           .astype(np.int64)[keep])
        filters = []
        if lower is not None:
            filters.append((col, ">=" if include_lower else ">", lower))
        if upper is not None:
            filters.append((col, "<=" if include_upper else "<", upper))
        t = pq.read_table(self._docs_path, columns=["doc_id"],
                          filters=filters or None)
        return np.sort(t.column("doc_id").to_numpy().astype(np.int64))

    def term_vector(self, doc_id: int) -> pa.Table:
        """Forward index read (TermVectorsFormat / ``IndexReader.
        getTermVector`` role): (term, tf) of one doc, term-sorted —
        a doc_id-pushdown read of the segment's ``tv.parquet``.
        Requires the index to be built with ``term_vectors=True``."""
        return self._tv(doc_id, ["term", "tf"])

    def term_vector_offsets(self, doc_id: int) -> pa.Table:
        """(term, tf, positions, starts, ends) of one doc — the
        withTermVectorOffsets payload FastVectorHighlighter consumes
        (codecs/.../Lucene90TermVectorsFormat offsets flag). Requires a
        build with ``term_vector_offsets=True``."""
        return self._tv(doc_id, ["term", "tf", "positions", "starts", "ends"])

    def _tv(self, doc_id: int, columns: list[str]) -> pa.Table:
        tv_path = os.path.join(self._seg_dir, "tv.parquet")
        if not os.path.isfile(tv_path):
            raise ValueError("index built without term_vectors=True")
        if "starts" in columns and \
                "starts" not in pq.read_schema(tv_path).names:
            raise ValueError("index built without term_vector_offsets=True")
        t = pq.read_table(tv_path, columns=columns,
                          filters=[("doc_id", "==", int(doc_id))])
        return t.sort_by([("term", "ascending")])

    def dv_terms_docs(self, col: str, values) -> np.ndarray:
        """Sorted docIDs whose stored/doc-values ``col`` is in the
        value set (DocValuesTermsQuery role): one pushdown scan of
        (doc_id, col); the numeric dv-update overlay wins when
        present."""
        values = list(values)
        t = pq.read_table(self._docs_path, columns=["doc_id", col],
                          filters=[(col, "in", values)])
        docs = t.column("doc_id").to_numpy()
        ov = self._dvu.get(col)
        if ov is not None:
            ud, uv = ov
            docs = docs[~np.isin(docs, ud)]
            vset = set(values)
            keep = np.array([v in vset for v in uv.tolist()], dtype=bool)
            docs = np.concatenate([docs, ud[keep]])
        return np.sort(docs).astype(np.int64)

    def stored(self, docs: np.ndarray, col: str):
        """Stored-field values for the given docIDs (lazy, predicate-
        pushdown read of only the needed column + row groups)."""
        docs = np.asarray(docs, dtype=np.int64)
        t = pq.read_table(
            self._docs_path, columns=["doc_id", col],
            filters=[("doc_id", "in", docs.tolist())])
        got = dict(zip(t.column("doc_id").to_pylist(),
                       t.column(col).to_pylist()))
        ov = self._dvu.get(col)
        if ov is not None:
            ud, uv = ov
            for d, v in zip(ud, uv):
                if int(d) in got:
                    got[int(d)] = int(v)
        return [got.get(int(d)) for d in docs]


class IndexReader:
    """Opens the latest (or a pinned) manifest generation."""

    def __init__(self, index_dir: str, generation: int | None = None,
                 segment_ids: list[str] | None = None):
        self.index_dir = index_dir
        self.manifest: IndexManifest = read_manifest(index_dir, generation)
        segs = self.manifest.segments
        if segment_ids is not None:
            want = set(segment_ids)
            segs = [s for s in segs if s.seg_id in want]
        self.segment_infos = segs
        self._readers: dict[str, SegmentReader] = {}
        self._ts_cache: dict[str, tuple[int, int]] = {}
        self._stats: dict[int, tuple[_TermDict, np.ndarray, np.ndarray]] = {}
        self._vocab_cache: "OrderedDict[tuple, list[str]]" = OrderedDict()

    @property
    def field(self) -> str:  # the indexed field's name
        return self.manifest.field

    @property
    def doc_count(self) -> int:  # docs with the field (for idf / avgdl)
        return self.manifest.field_doc_count

    @property
    def num_docs(self) -> int:
        return self.manifest.num_docs

    @property
    def sum_total_term_freq(self) -> int:
        return self.manifest.sum_doc_len

    def term_vector(self, doc_id: int) -> pa.Table:
        """(term, tf) forward index of one doc — routed to the owning
        segment by doc range (IndexReader.getTermVector role)."""
        return self._tv(doc_id, "term_vector", {"tf": pa.int64()})

    def term_vector_offsets(self, doc_id: int) -> pa.Table:
        """Offsets-bearing term vector of one doc (FVH source)."""
        lists = pa.list_(pa.int64())
        return self._tv(doc_id, "term_vector_offsets", {
            "tf": pa.int64(), "positions": lists, "starts": lists,
            "ends": lists})

    def _tv(self, doc_id: int, method: str, types: dict) -> pa.Table:
        for info in self.segment_infos:
            if info.min_doc <= doc_id <= info.max_doc:
                t = getattr(self.segment(info.seg_id), method)(doc_id)
                if len(t):
                    return t
        return pa.table({"term": pa.array([], pa.large_string()),
                         **{c: pa.array([], ty) for c, ty in types.items()}})

    def segment(self, seg_id: str) -> SegmentReader:
        r = self._readers.get(seg_id)
        if r is None:
            del_gen = dvu_gen = -1
            for info in self.segment_infos:
                if info.seg_id == seg_id:
                    del_gen = info.del_gen
                    dvu_gen = info.dvu_gen
                    break
            r = SegmentReader(os.path.join(self.index_dir, "segments", seg_id),
                              del_gen=del_gen, dvu_gen=dvu_gen)
            self._readers[seg_id] = r
        return r

    def segments(self):
        for info in self.segment_infos:
            yield self.segment(info.seg_id)

    def live_postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """(docs, freqs) of ``term`` over every segment, tombstoned docs
        dropped, docs ascending."""
        ds, fs = [], []
        for sr in self.segments():
            dec = sr.get_decoded(term)
            if dec is None:
                continue
            d, f = dec.docs, dec.freqs
            m = sr.live_mask(d)
            if m is not None:
                d, f = d[m], f[m]
            ds.append(d)
            fs.append(f)
        if not ds:
            return np.empty(0, np.int64), np.empty(0, np.int32)
        docs, freqs = np.concatenate(ds), np.concatenate(fs)
        if not np.all(docs[:-1] <= docs[1:]):  # overlapping segments
            order = np.argsort(docs, kind="stable")
            docs, freqs = docs[order], freqs[order]
        return docs, freqs

    def doc_lens(self, docs: np.ndarray) -> np.ndarray:
        """Doc length per global docID, from the segment holding it live
        (0 for a doc that no segment holds live)."""
        docs = np.asarray(docs, dtype=np.int64)
        out = np.zeros(len(docs), dtype=np.int64)
        for sr in self.segments():
            if not len(sr.doc_ids):
                continue
            pos = np.minimum(np.searchsorted(sr.doc_ids, docs),
                             len(sr.doc_ids) - 1)
            hit = sr.doc_ids[pos] == docs
            live = sr.live_mask(docs)
            if live is not None:
                hit &= live
            out[hit] = sr.doc_lens[pos[hit]]
        return out

    # -- global term statistics (TermStates.build analog) -------------------
    def _stats_part(self, b: int) -> tuple[_TermDict, np.ndarray, np.ndarray]:
        """Part ``b`` of the generation's global (term, df, ttf), read
        whole on first use: its dictionary and its df and ttf arrays."""
        got = self._stats.get(b)
        if got is None:
            t = pq.read_table(part_path(os.path.join(
                self.index_dir, "global",
                f"term_stats_gen{self.manifest.generation}"), b),
                columns=["term", "df", "ttf"], use_threads=False)
            got = self._stats[b] = (_TermDict(t.column("term")),
                                    t.column("df").to_numpy(),
                                    t.column("ttf").to_numpy())
        return got

    def term_stats(self, terms: list[str]) -> dict[str, tuple[int, int]]:
        """Global (df, ttf) per term, from the resident stats parts; each
        answer is memoized, so a repeated term is one dict lookup."""
        missing = [t for t in dict.fromkeys(terms) if t not in self._ts_cache]
        for b, sub in _route(missing).items() if missing else ():
            d, df, ttf = self._stats_part(b)
            for t, r in zip(sub, d.rows(sub)):
                self._ts_cache[t] = (int(df[r]), int(ttf[r])) if r >= 0 \
                    else (0, 0)
        return {t: self._ts_cache[t] for t in terms}

    def all_term_stats(self) -> dict[str, tuple[int, int]]:
        """FULL vocabulary (df, ttf) — a deliberate whole-vocab scan for
        tools/benchmarks, never on the query path."""
        stats: dict[str, tuple[int, int]] = {}
        for b in range(POSTINGS_BUCKETS):
            d, df, ttf = self._stats_part(b)
            stats.update(zip(d.terms(), zip(df.tolist(), ttf.tolist())))
        return stats

    def vocab(self, lo: str | None = None, hi: str | None = None) -> list[str]:
        """Sorted distinct terms in [lo, hi] — the term-dictionary range
        scan multi-term queries rewrite against (block-tree intersect
        analog), over the resident stats dictionaries."""
        key = (lo, hi)
        got = self._vocab_cache.get(key)
        if got is not None:
            self._vocab_cache.move_to_end(key)
            return got
        terms: list[str] = []
        for b in range(POSTINGS_BUCKETS):
            d = self._stats_part(b)[0]
            terms.extend(d.terms(*d.span(lo, hi)))
        out = sorted(terms)
        self._vocab_cache[key] = out
        if len(self._vocab_cache) > 16:
            self._vocab_cache.popitem(last=False)
        return out
