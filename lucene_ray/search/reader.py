"""Index readers: point-in-time snapshot over one manifest generation
(DirectoryReader analog, ``index/StandardDirectoryReader.java``).

Postings are read TERM-PRUNED: segment postings files are written
term-sorted with small Parquet row groups, so a query reads only the
row groups whose [min,max] term statistics cover its terms — the
row-group min/max stats play the role of the reference's FST/block-tree
term index (``codecs/lucene90/blocktree/Lucene90BlockTreeTermsReader
.java``; SURVEY.md §1.2). Merged segments store postings as a directory
of hash-bucketed shards; a ``_BUCKETS.json`` sidecar records the bucket
function so a term routes to exactly one shard. Per-doc arrays
(doc_id, doc_len, norm — ~13 bytes/doc) stay resident per segment;
stored fields are read lazily with docID predicate pushdown.

A lookup runs read → select → materialize: read the pruned row groups
as one Arrow table, keep the wanted rows with one vectorized Arrow step
on the term column, and only then build Python values and
``PackedPostings`` from the kept rows. The searcher prefetches a
query's terms segment by segment on the calling thread.
"""

from __future__ import annotations

import bisect
import json
import os
import zlib
from collections import OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..codecs.postings import PackedPostings
from ..index.manifest import IndexManifest, read_manifest

_POSTINGS_COLS = ["term", "df", "doc_count", "ttf", "docs", "freqs",
                  "block_last_docs", "docs_bb", "freqs_bb",
                  "imp_freqs", "imp_norms", "imp_offsets",
                  "chunk_doc_counts", "positions", "chunk_occ_counts"]


class TermSortedFile:
    """A term-sorted Parquet file with row-group min/max pruning.

    One instance per physical file; ``rgs_for_terms`` /
    ``rgs_for_range`` map lookups to the (few) row groups whose term
    statistics can contain them. Files without statistics degrade to
    full scans (old indexes) — correct, just unpruned.
    """

    def __init__(self, path: str):
        self.path = path
        self.pf = pq.ParquetFile(path)
        md = self.pf.metadata
        self.num_rows = md.num_rows
        names = self.pf.schema_arrow.names
        ti = names.index("term")
        mins: list[str] | None = []
        maxs: list[str] = []
        for i in range(md.num_row_groups):
            st = md.row_group(i).column(ti).statistics
            if st is None or not st.has_min_max:
                mins = None
                break
            mins.append(st.min)
            maxs.append(st.max)
        self.rg_mins = mins  # None -> no stats, read everything
        self.rg_maxs = maxs if mins is not None else []

    @property
    def num_row_groups(self) -> int:
        return self.pf.metadata.num_row_groups

    def rgs_for_terms(self, terms) -> list[int]:
        if self.rg_mins is None:
            return list(range(self.num_row_groups))
        out = set()
        for t in terms:
            i = bisect.bisect_right(self.rg_mins, t) - 1
            if i >= 0 and t <= self.rg_maxs[i]:
                out.add(i)
        return sorted(out)

    def rgs_for_range(self, lo: str | None, hi: str | None) -> list[int]:
        """Row groups overlapping [lo, hi] (inclusive; None = unbounded)."""
        if self.rg_mins is None:
            return list(range(self.num_row_groups))
        out = []
        for i in range(len(self.rg_mins)):
            if hi is not None and self.rg_mins[i] > hi:
                continue
            if lo is not None and self.rg_maxs[i] < lo:
                continue
            out.append(i)
        return out

    def read_rgs(self, rgs: list[int], columns=None) -> pa.Table | None:
        if not rgs:
            return None
        # use_threads=False: these are small point reads; Arrow's
        # internal pool costs more per call than it saves on them
        return self.pf.read_row_groups(rgs, columns=columns,
                                       use_threads=False)


class _ShardedPostings:
    """postings.parquet as a file OR a directory of bucketed shards."""

    def __init__(self, path: str):
        self.is_dir = os.path.isdir(path)
        self.n_buckets: int | None = None
        if self.is_dir:
            meta = os.path.join(path, "_BUCKETS.json")
            if os.path.isfile(meta):
                with open(meta) as f:
                    self.n_buckets = int(json.load(f)["n_buckets"])
            self._paths = {}
            for f in sorted(os.listdir(path)):
                if f.endswith(".parquet"):
                    self._paths[f] = os.path.join(path, f)
        else:
            self._paths = {"": path}
        self._open: dict[str, TermSortedFile | None] = {}
        self._termsets: dict[str, np.ndarray | None] = {}

    def termset(self, name: str) -> np.ndarray | None:
        """Sorted 64-bit term-hash fingerprint for a shard (the
        term-dictionary presence check) — lets absent terms skip the
        shard without opening its Parquet file. None if no sidecar."""
        got = self._termsets.get(name, False)
        if got is not False:
            return got
        p = self._paths.get(name)
        ts = None
        if p is not None:
            side = (os.path.join(os.path.dirname(p),
                                 "_" + os.path.basename(p)
                                 [:-len(".parquet")] + ".termset")
                    if self.is_dir
                    else os.path.join(os.path.dirname(p), "postings.termset"))
            if os.path.isfile(side):
                ts = np.fromfile(side, dtype=np.uint64)
        self._termsets[name] = ts
        return ts

    def _file(self, name: str) -> TermSortedFile | None:
        got = self._open.get(name, False)
        if got is not False:
            return got
        p = self._paths.get(name)
        f = TermSortedFile(p) if p else None
        self._open[name] = f
        return f

    def files(self):
        for name in self._paths:
            yield self._file(name)

    @property
    def num_rows(self) -> int:
        return sum(f.num_rows for f in self.files())

    def route(self, terms) -> dict[str, list[str]]:
        """shard-file name -> the subset of terms that can live there."""
        if not self.is_dir:
            return {"": list(terms)}
        if self.n_buckets is None:  # legacy dir: any shard may hold any term
            return {name: list(terms) for name in self._paths}
        out: dict[str, list[str]] = {}
        for t in terms:
            b = zlib.crc32(t.encode()) % self.n_buckets
            out.setdefault(f"part-{b:05d}.parquet", []).append(t)
        return out


def _select_terms(t: pa.Table, terms) -> pa.Table:
    """Rows of ``t`` whose term is in ``terms`` (one Arrow filter)."""
    col = t.column("term")
    return t.filter(pc.is_in(col, value_set=pa.array(terms, col.type)))


def _select_range(t: pa.Table, lo: str | None, hi: str | None) -> list[str]:
    """Terms of ``t`` in [lo, hi] (inclusive; None = unbounded). Arrow
    compares UTF-8 bytes, which orders like Python's code points."""
    col = t.column("term")
    if lo is not None:
        col = col.filter(pc.greater_equal(col, lo))
    if hi is not None:
        col = col.filter(pc.less_equal(col, hi))
    return col.to_pylist()


_LIST_DTYPES = {"block_last_docs": np.int32, "imp_freqs": np.int32,
                "imp_norms": np.uint8, "imp_offsets": np.int64,
                "chunk_doc_counts": np.int32, "chunk_occ_counts": np.int64,
                "docs_bb": np.int32, "freqs_bb": np.int32}


def _rows_to_postings(t: pa.Table) -> list[PackedPostings]:
    """One PackedPostings per row of an already-selected table: each
    list column becomes flat numpy values once, sliced per row by its
    offsets. A column missing from the file reads as empty."""
    n, names = len(t), t.column_names
    cols = {f: t.column(f).to_pylist() for f in ("doc_count", "ttf")}
    for f in ("docs", "freqs", "positions"):
        cols[f] = ([v or b"" for v in t.column(f).to_pylist()]
                   if f in names else [b""] * n)
    for f, dtype in _LIST_DTYPES.items():
        if f not in names:
            cols[f] = [np.empty(0, dtype)] * n
            continue
        a = t.column(f).combine_chunks()
        vals = np.asarray(a.values.to_numpy(), dtype=dtype)
        off = a.offsets.to_numpy()
        cols[f] = [vals[off[i]:off[i + 1]] for i in range(n)]
    return [PackedPostings(*row)
            for row in zip(*(cols[f] for f in PackedPostings._fields))]


class SegmentReader:
    def __init__(self, seg_dir: str, cache_size: int = 4096,
                 del_gen: int = -1, dvu_gen: int = -1):
        self._seg_dir = seg_dir
        self._postings = _ShardedPostings(
            os.path.join(seg_dir, "postings.parquet"))
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
        # LRUQueryCache analog: term -> PackedPostings for loaded terms
        self._cache: "OrderedDict[str, PackedPostings]" = OrderedDict()
        self._cache_size = cache_size
        self._df: dict[str, int] = {}
        self._absent: set[str] = set()
        self._dv_cache: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        # decoded-postings LRU (page-cache role): hot terms skip the
        # bit-unpack on repeat queries; bounded per segment
        self._decoded: "OrderedDict[str, tuple]" = OrderedDict()
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
        # observability: rows/row-groups materialized from postings files
        self.rows_loaded = 0
        self.rg_reads = 0

    @property
    def live_count(self) -> int:
        return len(self.doc_ids) - (len(self.deleted)
                                    if self.deleted is not None else 0)

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
        return self._postings.num_rows

    def terms(self):
        """All terms in this segment (sorted). Vocabulary-sized scan of
        the term column only — a tool/diagnostic path, not a query path."""
        out = []
        for f in self._postings.files():
            t = f.pf.read(columns=["term"])
            out.extend(t.column("term").to_pylist())
        return iter(sorted(out))

    def terms_in_range(self, lo: str | None, hi: str | None) -> list[str]:
        """Sorted terms in [lo, hi] (term column only, row-group pruned)."""
        out: list[str] = []
        for f in self._postings.files():
            rgs = f.rgs_for_range(lo, hi)
            t = f.read_rgs(rgs, columns=["term"])
            if t is not None:
                out.extend(_select_range(t, lo, hi))
        return sorted(out)

    def ensure_terms(self, terms) -> None:
        """Load the given terms' posting rows (row-group pruned, one
        batched read per shard). Terms not in the segment are recorded
        as absent; everything loaded lands in the LRU cache."""
        missing = [t for t in dict.fromkeys(terms)
                   if t not in self._cache and t not in self._absent]
        if not missing:
            return
        found = set()
        for name, shard_terms in self._postings.route(missing).items():
            ts = self._postings.termset(name)
            if ts is not None and len(shard_terms):
                from ..util import term_hash64
                h = term_hash64(shard_terms)
                pos = np.minimum(np.searchsorted(ts, h),
                                 max(len(ts) - 1, 0))
                member = (ts[pos] == h) if len(ts) else \
                    np.zeros(len(h), dtype=bool)
                shard_terms = [t for t, m in zip(shard_terms, member) if m]
                if not shard_terms:
                    continue  # shard never opened for absent terms
            f = self._postings._file(name)
            if f is None:
                continue
            rgs = f.rgs_for_terms(shard_terms)
            t = f.read_rgs(rgs)
            if t is None:
                continue
            # counters measure Parquet reads, before the selection
            self.rg_reads += len(rgs)
            self.rows_loaded += len(t)
            t = _select_terms(t, shard_terms)
            for term, df, p in zip(t.column("term").to_pylist(),
                                   t.column("df").to_pylist(),
                                   _rows_to_postings(t)):
                self._cache[term] = p
                self._df[term] = df
                found.add(term)
        for t in missing:
            if t not in found:
                self._absent.add(t)
        while len(self._cache) > self._cache_size:
            k, _ = self._cache.popitem(last=False)
            self._df.pop(k, None)

    def get_postings(self, term: str) -> PackedPostings | None:
        cached = self._cache.get(term)
        if cached is not None:
            self._cache.move_to_end(term)
            return cached
        if term in self._absent:
            return None
        self.ensure_terms([term])
        return self._cache.get(term)

    def get_decoded(self, term: str):
        """(docs int64, freqs int32) fully decoded, LRU-cached — the OS
        page-cache role for hot postings. None if the term is absent."""
        got = self._decoded.get(term)
        if got is not None:
            self._decoded.move_to_end(term)
            return got
        p = self.get_postings(term)
        if p is None:
            return None
        from ..codecs.postings import unpack_postings
        d, f = unpack_postings(p)
        self._decoded[term] = (d, f)
        if len(self._decoded) > 16:
            self._decoded.popitem(last=False)
        return d, f

    def get_positions(self, term: str):
        """(docs, freqs, flat positions) or None. Requires an index built
        with ``index_positions=True``."""
        from ..codecs.postings import unpack_positions, unpack_postings
        p = self.get_postings(term)
        if p is None:
            return None
        if not len(p.positions):
            raise ValueError(
                "index was built without positions (index_positions=True)")
        docs, freqs = unpack_postings(p)
        pos = unpack_positions(p.positions, p.chunk_occ_counts, freqs)
        return docs, freqs, pos

    def df(self, term: str) -> int:
        if self.get_postings(term) is None:
            return 0
        return self._df.get(term, 0)

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
        tv_path = os.path.join(self._seg_dir, "tv.parquet")
        if not os.path.isfile(tv_path):
            raise ValueError("index built without term_vectors=True")
        t = pq.read_table(tv_path, columns=["term", "tf"],
                          filters=[("doc_id", "==", int(doc_id))])
        return t.sort_by([("term", "ascending")])

    def term_vector_offsets(self, doc_id: int) -> pa.Table:
        """(term, tf, positions, starts, ends) of one doc — the
        withTermVectorOffsets payload FastVectorHighlighter consumes
        (codecs/.../Lucene90TermVectorsFormat offsets flag). Requires a
        build with ``term_vector_offsets=True``."""
        tv_path = os.path.join(self._seg_dir, "tv.parquet")
        if not os.path.isfile(tv_path):
            raise ValueError("index built without term_vectors=True")
        schema_names = pq.read_schema(tv_path).names
        if "starts" not in schema_names:
            raise ValueError("index built without term_vector_offsets=True")
        t = pq.read_table(tv_path,
                          columns=["term", "tf", "positions", "starts",
                                   "ends"],
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
        self._stats_files: list[TermSortedFile] | None = None
        self._stats_parts: int | None = None
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
        for info in self.segment_infos:
            if info.min_doc <= doc_id <= info.max_doc:
                sr = self.segment(info.seg_id)
                t = sr.term_vector(doc_id)
                if len(t):
                    return t
        return pa.table({"term": pa.array([], pa.large_string()),
                         "tf": pa.array([], pa.int64())})

    def term_vector_offsets(self, doc_id: int) -> pa.Table:
        """Offsets-bearing term vector of one doc (FVH source)."""
        for info in self.segment_infos:
            if info.min_doc <= doc_id <= info.max_doc:
                sr = self.segment(info.seg_id)
                t = sr.term_vector_offsets(doc_id)
                if len(t):
                    return t
        return pa.table({"term": pa.array([], pa.large_string()),
                         "tf": pa.array([], pa.int64()),
                         "positions": pa.array([], pa.list_(pa.int64())),
                         "starts": pa.array([], pa.list_(pa.int64())),
                         "ends": pa.array([], pa.list_(pa.int64()))})

    def segment(self, seg_id: str) -> SegmentReader:
        r = self._readers.get(seg_id)
        if r is None:
            del_gen = dvu_gen = -1
            for info in self.segment_infos:
                if info.seg_id == seg_id:
                    del_gen = info.del_gen
                    dvu_gen = getattr(info, "dvu_gen", -1)
                    break
            r = SegmentReader(os.path.join(self.index_dir, "segments", seg_id),
                              del_gen=del_gen, dvu_gen=dvu_gen)
            self._readers[seg_id] = r
        return r

    def segments(self):
        for info in self.segment_infos:
            yield self.segment(info.seg_id)

    # -- global term statistics (TermStates.build analog) -------------------
    def _stats_dir(self) -> str | None:
        gen = self.manifest.generation
        path = os.path.join(self.index_dir, "global", f"term_stats_gen{gen}")
        return path if os.path.isdir(path) else None

    def _open_stats(self):
        if self._stats_files is None:
            d = self._stats_dir()
            files = []
            n_parts = None
            if d:
                meta = os.path.join(d, "_META.json")
                if os.path.isfile(meta):
                    with open(meta) as f:
                        n_parts = int(json.load(f)["n_parts"])
                files = [TermSortedFile(os.path.join(d, f))
                         for f in sorted(os.listdir(d))
                         if f.endswith(".parquet")]
            self._stats_files = files
            self._stats_parts = n_parts
        return self._stats_files, self._stats_parts

    def term_stats(self, terms: list[str]) -> dict[str, tuple[int, int]]:
        """Global (df, ttf) per term, incrementally cached: only the
        asked-for terms' row groups are read (never the whole vocab)."""
        missing = [t for t in dict.fromkeys(terms) if t not in self._ts_cache]
        if missing:
            files, n_parts = self._open_stats()
            if files:
                by_file: dict[int, list[str]] = {}
                if n_parts and len(files) == n_parts:
                    for t in missing:
                        by_file.setdefault(
                            zlib.crc32(t.encode()) % n_parts, []).append(t)
                else:
                    for i in range(len(files)):
                        by_file[i] = missing
                for i, sub in by_file.items():
                    f = files[i]
                    t = f.read_rgs(f.rgs_for_terms(sub),
                                   columns=["term", "df", "ttf"])
                    if t is None:
                        continue
                    t = _select_terms(t, sub)
                    self._ts_cache.update(zip(
                        t.column("term").to_pylist(),
                        zip(t.column("df").to_pylist(),
                            t.column("ttf").to_pylist())))
            else:
                # no global stats dir: sum per-segment stats from the
                # (pruned) postings rows themselves
                for sr in self.segments():
                    sr.ensure_terms(missing)
                    for term in missing:
                        p = sr._cache.get(term)
                        if p is not None:
                            d0, f0 = self._ts_cache.get(term, (0, 0))
                            self._ts_cache[term] = (d0 + p.doc_count,
                                                    f0 + p.ttf)
            for t in missing:
                self._ts_cache.setdefault(t, (0, 0))
        return {t: self._ts_cache.get(t, (0, 0)) for t in terms}

    def all_term_stats(self) -> dict[str, tuple[int, int]]:
        """FULL vocabulary (df, ttf) — a deliberate whole-vocab scan for
        tools/benchmarks, never on the query path."""
        files, _ = self._open_stats()
        stats: dict[str, tuple[int, int]] = {}
        if files:
            for f in files:
                t = f.pf.read(columns=["term", "df", "ttf"])
                for term, df, ttf in zip(t.column("term").to_pylist(),
                                         t.column("df").to_pylist(),
                                         t.column("ttf").to_pylist()):
                    stats[term] = (df, ttf)
        else:
            for sr in self.segments():
                for f in sr._postings.files():
                    t = f.pf.read(columns=["term", "df", "ttf"])
                    for term, df, ttf in zip(t.column("term").to_pylist(),
                                             t.column("df").to_pylist(),
                                             t.column("ttf").to_pylist()):
                        d0, f0 = stats.get(term, (0, 0))
                        stats[term] = (d0 + df, f0 + ttf)
        return stats

    def vocab(self, lo: str | None = None, hi: str | None = None) -> list[str]:
        """Sorted distinct terms in [lo, hi] (term column only, row-group
        pruned) — the term-dictionary range scan multi-term queries
        rewrite against (block-tree intersect analog)."""
        key = (lo, hi)
        got = self._vocab_cache.get(key)
        if got is not None:
            self._vocab_cache.move_to_end(key)
            return got
        files, _ = self._open_stats()
        terms: set[str] = set()
        if files:
            for f in files:
                t = f.read_rgs(f.rgs_for_range(lo, hi), columns=["term"])
                if t is not None:
                    terms.update(_select_range(t, lo, hi))
        else:
            for sr in self.segments():
                terms.update(sr.terms_in_range(lo, hi))
        out = sorted(terms)
        self._vocab_cache[key] = out
        if len(self._vocab_cache) > 16:
            self._vocab_cache.popitem(last=False)
        return out
