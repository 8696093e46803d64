"""Distributed inverted-index build: a Ray Data streaming pipeline.

Architecture (SURVEY.md §3.1): the reference's DWPT model — N indexing
threads each building an independent in-RAM segment, flushed when the
RAM budget is hit (``DocumentsWriterPerThread.java:210-242``,
``FlushByRamOrCountsPolicy.java:31-104``) — maps to a task-compute
``map_batches`` stage: each *batch* becomes one immutable segment
(tokenize -> invert -> pack -> flush to Parquet), so worker RAM is
bounded by ``batch_size`` regardless of corpus size, and the streaming
executor provides the stall/backpressure control
(``DocumentsWriterStallControl.java:50-61``) for free. Tasks rather than
a fixed actor pool: the segments build on the warm task workers that
also run the read, the term-stats job and the merge, with no actor
processes to start and import first. The pack is one vectorized pass
per stream over every block of the segment.

docIDs are data-derived (a monotone int64 ``id_col``), never
positional, so results are invariant to batch boundaries, task
scheduling, and partition counts — the docBase-prefix-sum determinism
requirement of SURVEY.md §7.

Scale notes (100 TB): nothing shuffles. A segment writes its postings
as ``POSTINGS_BUCKETS`` term-sorted parts, a term in part
``bucket_of(term)`` of every segment, so the global term stats are one
task per part that sums part b of every segment, and a merge is one
task per (group, part). Posting payloads are written partition-local,
one directory per segment -> resumable output.
"""

from __future__ import annotations

import hashlib
import os


import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from ..analysis import StandardAnalyzer, int_to_byte4_array
from ..analysis.arrow_tokenize import _tokenize_batch_arrow
from ..codecs.postings import POSTINGS_SCHEMA, pack_postings_many
from .manifest import (
    POSTINGS_BUCKETS,
    IndexManifest,
    SegmentInfo,
    bucket_of,
    latest_generation,
    new_stats_dir,
    part_path,
    read_manifest,
    write_manifest,
)

def _parquet_files(source) -> list[str]:
    if isinstance(source, (list, tuple)):
        return list(source)
    source = str(source)
    if os.path.isdir(source):
        return sorted(
            os.path.join(source, f) for f in os.listdir(source)
            if f.endswith(".parquet"))
    return [source]


# Terms per Parquet row group in postings files: the unit a reader
# reads a term's row in, found by row number from its resident term
# dictionary, so a query term materializes one small row group.
POSTINGS_ROW_GROUP = 256


# The columns of a term-sorted part that Parquet dictionary-encodes:
# small counts and block byte lengths, whose values repeat. A list
# column's leaf is named by its full path (``docs_bb`` alone turns the
# leaf's dictionary off). ``docs`` and ``positions`` cells are unique
# bit-packed bytes, where a dictionary only adds an index stream.
# ``freqs`` cells repeat (a df = 1 term's is one of a few 2-byte
# values), but stay plain until a dictionary's decode cost on a first
# touch is measured.
_DICTIONARY_COLUMNS = ["df", "ttf", "docs_bb.list.element",
                       "freqs_bb.list.element"]


def write_term_part(path: str, table: pa.Table, row_group_size: int) -> None:
    """Write one term-sorted Parquet part: a segment's postings part or
    a generation's global stats part. No other code writes either.

    Each column gets the encoding its own values call for. ``term`` is
    front-coded (``DELTA_BYTE_ARRAY``): each value stores only the
    suffix left after the prefix it shares with the previous term, as
    the reference's block-tree terms dictionary does
    (``Lucene90BlockTreeTermsWriter``). Only ``_DICTIONARY_COLUMNS``
    are dictionary-encoded; every other column is plain. Readers see
    the same Arrow table either way. No column statistics are written:
    readers find rows by their resident term dictionary, not by
    row-group min/max."""
    pq.write_table(table, path, row_group_size=row_group_size,
                   write_statistics=False,
                   use_dictionary=_DICTIONARY_COLUMNS,
                   column_encoding={"term": "DELTA_BYTE_ARRAY"})


def write_postings_part(postings_dir: str, b: int, table: pa.Table) -> None:
    """Write part ``b`` of a postings directory (built or merged): its
    term-sorted rows in row groups of ``POSTINGS_ROW_GROUP`` terms,
    through ``write_term_part``."""
    write_term_part(part_path(postings_dir, b), table, POSTINGS_ROW_GROUP)


class SegmentIndexer:
    """One batch in -> one segment flushed.

    The build stage (``_index_segment``) constructs one per batch, as
    it does the resumable and multi-field builds' indexers. The returned
    batch is small segment *metadata* only.
    """

    def __init__(self, out_dir: str, text_col: str, id_col: str,
                 stored_cols: tuple, stop_words: frozenset,
                 arrow_fast_path: bool = True, index_positions: bool = False,
                 analyzer=None, doc_value_cols: tuple = (),
                 postings_format: str = "for128",
                 term_vectors: bool = False,
                 term_vector_offsets: bool = False):
        self.out_dir = out_dir
        self.text_col = text_col
        self.id_col = id_col
        self.doc_value_cols = tuple(doc_value_cols)
        self.stored_cols = tuple(dict.fromkeys(
            (*stored_cols, *doc_value_cols)))
        # Analyzer.createComponents analog (SURVEY §2.10): any picklable
        # callable `text -> list[str]` (with .tokens() for positions and
        # .stop_words/.max_token_length attrs for the fast path) plugs in
        self.analyzer = analyzer or StandardAnalyzer(stop_words=stop_words)
        # only the EXACT StandardAnalyzer semantics are encoded in the
        # Arrow kernels; any subclass/custom chain uses the Python path
        custom = analyzer is not None and type(analyzer) is not StandardAnalyzer
        # positions need per-doc ordered tokens -> Python analyzer path;
        # the Arrow kernel path encodes StandardAnalyzer semantics only
        self.index_positions = index_positions
        self.arrow_fast_path = (arrow_fast_path and not index_positions
                                and not custom)
        # PostingsFormat SPI slot (codecs/registry.py): blocks are
        # self-describing, so mixed-format segments read transparently
        self.postings_format = postings_format
        # TermVectorsFormat role: per-segment forward index
        # (doc_id, term, tf) sorted by doc for pushdown reads
        # offsets-in-term-vectors (FieldType.setStoreTermVectorOffsets
        # role, the FastVectorHighlighter source); needs the per-token
        # offsets only the positional Python path produces
        self.term_vector_offsets = term_vector_offsets
        self.term_vectors = term_vectors or term_vector_offsets
        if term_vector_offsets:
            self.index_positions = True
            self.arrow_fast_path = False
        self._seg_override: str | None = None  # ShardIndexer naming hook

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.Table.from_pydict(
                {k: [] for k in ("seg_id", "num_docs", "min_doc", "max_doc",
                                 "sum_doc_len", "num_terms", "lineage",
                                 "field_doc_count")})
        doc_ids = batch[self.id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(doc_ids, kind="stable")
        if not np.array_equal(order, np.arange(len(doc_ids))):
            batch = batch.take(pa.array(order))
            doc_ids = doc_ids[order]
        n_docs = len(doc_ids)
        if self.arrow_fast_path:
            import pyarrow.compute as pc
            flat_arr, doc_idx = _tokenize_batch_arrow(batch[self.text_col],
                                                      self.analyzer)
            doc_lens = np.bincount(doc_idx, minlength=n_docs).astype(np.int64)
            if len(flat_arr):
                enc = pc.dictionary_encode(flat_arr)
                codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
                uniques = np.asarray(enc.dictionary.to_pylist(), dtype=object)
            else:
                codes = np.empty(0, np.int64)
                uniques = np.empty(0, dtype=object)
        else:
            import itertools
            import pandas as pd
            texts = batch[self.text_col].to_pylist()
            if self.index_positions:
                flat, pos_list, lens = [], [], []
                off_s, off_e = ([], []) if self.term_vector_offsets else (None, None)
                for text in texts:
                    toks = self.analyzer.tokens(text or "")
                    lens.append(len(toks))
                    for at in toks:
                        flat.append(at.term)
                        pos_list.append(at.position)
                        if off_s is not None:
                            off_s.append(at.start)
                            off_e.append(at.end)
                doc_lens = np.asarray(lens, dtype=np.int64)
                positions = np.asarray(pos_list, dtype=np.int64)
                if off_s is not None:
                    tok_starts = np.asarray(off_s, dtype=np.int64)
                    tok_ends = np.asarray(off_e, dtype=np.int64)
            else:
                term_lists = self.analyzer.analyze_batch(texts)
                doc_lens = np.fromiter((len(t) for t in term_lists),
                                       dtype=np.int64, count=n_docs)
                flat = list(itertools.chain.from_iterable(term_lists))
            if flat:
                codes, uniques = pd.factorize(np.asarray(flat, dtype=object))
                codes = codes.astype(np.int64)
            else:
                codes = np.empty(0, np.int64)
                uniques = np.empty(0, dtype=object)
            doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), doc_lens)
        norms = int_to_byte4_array(doc_lens)

        # vectorized invert: codes are remapped to term rank first, so one
        # sort over (term, doc) keys gives the tf triplets in term-dict
        # order; every term is packed in one batch pass. The order is
        # (part, term): each postings part is one slice of the table
        n_terms = len(uniques)
        part_starts = np.zeros(POSTINGS_BUCKETS + 1, np.int64)
        if n_terms:
            term_order = np.argsort(uniques)  # UTF-8 byte order == str order
            part = bucket_of(uniques[term_order])
            by_part = np.argsort(part, kind="stable")
            term_order = term_order[by_part]
            part_starts = np.searchsorted(part[by_part],
                                          np.arange(POSTINGS_BUCKETS + 1))
            terms = uniques[term_order]
            rank = np.empty(n_terms, dtype=np.int64)
            rank[term_order] = np.arange(n_terms)
            key = rank[codes] * n_docs + doc_idx
            if self.index_positions:
                order = np.lexsort((positions, key))
                key_s = key[order]
                pos_s = positions[order]
                new_grp = np.ones(len(key_s), dtype=bool)
                new_grp[1:] = key_s[1:] != key_s[:-1]
                grp_starts = np.nonzero(new_grp)[0]
                uk = key_s[grp_starts]
                tf = np.diff(np.append(grp_starts, len(key_s)))
            else:
                uk, tf = np.unique(key, return_counts=True)
            t_rank = uk // n_docs
            d_idx = (uk % n_docs).astype(np.int64)
            postings_table = pack_postings_many(
                doc_ids[d_idx], tf,
                np.searchsorted(t_rank, np.arange(n_terms + 1)),
                postings_format=self.postings_format, terms=terms.tolist(),
                positions=pos_s if self.index_positions else None)
        else:
            postings_table = POSTINGS_SCHEMA.empty_table()

        doc_cols = {
            "doc_id": pa.array(doc_ids, type=pa.int64()),
            "doc_len": pa.array(doc_lens, type=pa.int32()),
            "norm": pa.array(norms, type=pa.uint8()),
        }
        for c in self.stored_cols:
            doc_cols[c] = batch[c]
        docs_table = pa.table(doc_cols)

        # deterministic, content-addressed segment id -> resumable
        min_doc, max_doc = int(doc_ids.min()), int(doc_ids.max())
        lineage = hashlib.sha1(
            f"{min_doc}:{max_doc}:{len(doc_ids)}".encode()).hexdigest()[:12]
        seg_id = self._seg_override or f"seg-{min_doc:012d}-{max_doc:012d}-{lineage}"
        seg_dir = os.path.join(self.out_dir, "segments", seg_id)
        postings_dir = os.path.join(seg_dir, "postings.parquet")
        os.makedirs(postings_dir, exist_ok=True)
        for b in range(POSTINGS_BUCKETS):
            write_postings_part(postings_dir, b, postings_table.slice(
                part_starts[b], part_starts[b + 1] - part_starts[b]))
        # value-sorted doc-values sidecars (BKD/SortedNumericDocValues
        # role): numeric range filters read only the covering row groups
        for c in self.doc_value_cols:
            dv = pa.table({"value": docs_table.column(c),
                           "doc_id": docs_table.column("doc_id")}) \
                .sort_by([("value", "ascending"), ("doc_id", "ascending")])
            pq.write_table(dv, os.path.join(seg_dir, f"dv_{c}.parquet"),
                           row_group_size=4096)
        if self.term_vectors:
            # TermVectorsFormat analog (codecs/lucene90/
            # Lucene90TermVectorsFormat.java): the forward index,
            # (doc, term, tf), doc-sorted so a single-doc read touches
            # one row-group slice (written even when empty, so readers
            # can distinguish "no terms" from "not enabled")
            if n_terms:
                cols = {
                    "doc_id": pa.array(doc_ids[d_idx], pa.int64()),
                    "term": pa.array(terms[t_rank].tolist(),
                                     pa.large_string()),
                    "tf": pa.array(tf, pa.int64()),
                }
                if self.term_vector_offsets:
                    # per-(term,doc) occurrence slices (position-sorted
                    # via the invert's lexsort) as list columns — the
                    # withTermVectorOffsets/Positions payload
                    occ_bnd = np.append(grp_starts, len(key_s)).astype(
                        np.int32)
                    for name, vals in (("positions", pos_s),
                                       ("starts", tok_starts[order]),
                                       ("ends", tok_ends[order])):
                        cols[name] = pa.ListArray.from_arrays(
                            pa.array(occ_bnd, pa.int32()),
                            pa.array(vals, pa.int64()))
                tv = pa.table(cols).sort_by([("doc_id", "ascending"),
                                             ("term", "ascending")])
            else:
                cols = {"doc_id": pa.array([], pa.int64()),
                        "term": pa.array([], pa.large_string()),
                        "tf": pa.array([], pa.int64())}
                if self.term_vector_offsets:
                    for name in ("positions", "starts", "ends"):
                        cols[name] = pa.array([], pa.list_(pa.int64()))
                tv = pa.table(cols)
            pq.write_table(tv, os.path.join(seg_dir, "tv.parquet"),
                           row_group_size=4096)
        pq.write_table(docs_table, os.path.join(seg_dir, "docs.parquet"))

        return pa.table({
            "seg_id": [seg_id],
            "num_docs": [len(doc_ids)],
            "min_doc": [min_doc],
            "max_doc": [max_doc],
            "sum_doc_len": [int(doc_lens.sum())],
            "num_terms": [n_terms],
            "lineage": [lineage],
            "field_doc_count": [int((doc_lens > 0).sum())],
        })


def _index_segment(batch: pa.Table, indexer=SegmentIndexer, **kw) -> pa.Table:
    """The build stage's task function: one batch -> the segment(s) of
    ``indexer(**kw)``. An indexer costs microseconds to construct, so
    each call builds its own."""
    return indexer(**kw)(batch)


def _segment_rows(source, cols: list, batch_size: int, concurrency,
                  **fn_kwargs) -> list[dict]:
    """Run the build stage over ``source`` (a Parquet path / file list or
    a ``ray.data.Dataset``) and return its metadata rows, one per
    segment written."""
    batch_kwargs: dict = {"batch_size": batch_size}
    if isinstance(source, (str, os.PathLike)) or (
            isinstance(source, (list, tuple)) and source and isinstance(source[0], str)):
        # one batch == one contiguous read block: size blocks to batch_size
        # at the read and disable batch coalescing, so every segment is a
        # contiguous doc range no matter how tasks are scheduled (batch
        # coalescing would interleave blocks from parallel read tasks and
        # produce overlapping segments)
        files = _parquet_files(source)
        total_rows = sum(pq.read_metadata(f).num_rows for f in files)
        nblocks = max(1, -(-total_rows // batch_size))
        ds = ray.data.read_parquet(files, columns=list(dict.fromkeys(cols)),
                                   override_num_blocks=nblocks)
        batch_kwargs = {"batch_size": None}
    else:
        # pre-built Dataset: batch boundaries may interleave, so segments
        # can overlap in doc range — queries stay correct (docIDs are
        # data-derived); merge re-packs a group whose ranges overlap
        ds = source
    # task compute: segments build on the same warm task workers as the
    # read, the term-stats job and the merge; ``concurrency`` caps them
    meta = ds.map_batches(
        _index_segment,
        fn_kwargs=fn_kwargs,
        batch_format="pyarrow",
        concurrency=concurrency,
        zero_copy_batch=True,
        **batch_kwargs,
    )
    return meta.take_all()  # tiny: one row per segment


def _next_generation(out_dir: str, rows, *, field: str,
                     stop_words: frozenset, mode: str = "create_or_append",
                     allow_doc_overlap: bool = False) -> IndexManifest:
    """The manifest of the generation after ``out_dir``'s head that adds
    the segments of ``rows`` (build metadata rows, not yet committed).

    "create_or_append" keeps the head's segments; "create" starts a
    fresh chain. An append must match the index's field and stop words
    and may not list a segment already in the chain; its docID ranges
    may not overlap the chain's unless ``allow_doc_overlap``."""
    segments = sorted((SegmentInfo.from_row(r) for r in rows),
                      key=lambda s: s.min_doc)
    prev_gen = latest_generation(out_dir)
    if mode == "create_or_append" and prev_gen >= 0:
        prev = read_manifest(out_dir, prev_gen)
        if prev.field != field or prev.stop_words != sorted(stop_words):
            raise ValueError(
                "append with different field/stop_words than the index "
                f"({prev.field!r}/{len(prev.stop_words)} stop words)")
        old_ids = {s.seg_id for s in prev.segments}
        for s in segments:
            if s.seg_id in old_ids:
                raise ValueError(
                    f"append would duplicate segment {s.seg_id} "
                    "(same docs already indexed)")
            if allow_doc_overlap:
                continue
            for o in prev.segments:
                if s.min_doc <= o.max_doc and o.min_doc <= s.max_doc:
                    raise ValueError(
                        f"appended docID range [{s.min_doc},{s.max_doc}]"
                        f" overlaps existing segment {o.seg_id}; use "
                        "update_by_key or allow_doc_overlap=True")
        segments = sorted(prev.segments + segments, key=lambda s: s.min_doc)
    return IndexManifest(generation=prev_gen + 1, field=field,
                         stop_words=sorted(stop_words), segments=segments)


def commit(index_dir: str, manifest: IndexManifest,
           stats_of: int | None = None) -> IndexManifest:
    """Commit ``manifest``: its generation's global term stats first,
    the manifest last, so a committed generation always has its stats
    (the two-phase commit of ``IndexWriter.java:4020``). Every writer
    commits through here. ``stats_of`` names an earlier generation
    whose stats this one shares, for a commit that leaves every
    segment's postings as they were (deletes, doc-values updates, a
    merge that reclaims no tombstones, a rollback); otherwise the stats
    are computed over the manifest's segments."""
    if stats_of is None:
        compute_global_term_stats(index_dir, manifest)
    else:
        src = os.path.join(index_dir, "global", f"term_stats_gen{stats_of}")
        if not all(os.path.isfile(part_path(src, b))
                   for b in range(POSTINGS_BUCKETS)):
            raise FileNotFoundError(f"{src}: no global term stats")
        os.symlink(os.path.abspath(src),
                   new_stats_dir(index_dir, manifest.generation))
    write_manifest(index_dir, manifest)
    return manifest


def build_index(
    source,
    out_dir: str,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    stored_cols: tuple = (),
    stop_words: frozenset = frozenset(),
    batch_size: int = 4096,
    concurrency=None,
    index_positions: bool = False,
    analyzer=None,
    mode: str = "create_or_append",
    allow_doc_overlap: bool = False,
    doc_value_cols: tuple = (),
    postings_format: str = "for128",
    term_vectors: bool = False,
    term_vector_offsets: bool = False,
) -> IndexManifest:
    """Build an inverted index over a Parquet corpus / Dataset.

    ``source``: a parquet path (str) or a ``ray.data.Dataset``.
    ``id_col`` must be int64, unique and monotone in storage order (the
    global docID; SURVEY.md §1.2). ``analyzer``: optional custom
    analysis chain (callable ``text -> tokens``; Analyzer hook).

    ``mode``: "create_or_append" (default, IndexWriter OpenMode analog —
    a build over an existing index APPENDS its segments to the manifest
    chain like addDocuments+commit, ``index/IndexWriter.java:1468,4020``)
    or "create" (start a fresh chain ignoring prior segments). Appends
    whose doc-id range overlaps existing segments are rejected unless
    ``allow_doc_overlap`` (docIDs are the caller's primary key); an
    append that repeats a segment already in the chain always is.
    """
    rows = _segment_rows(
        source, [id_col, text_col, *stored_cols, *doc_value_cols],
        batch_size, concurrency,
        out_dir=out_dir, text_col=text_col, id_col=id_col,
        stored_cols=stored_cols, stop_words=stop_words,
        index_positions=index_positions, analyzer=analyzer,
        doc_value_cols=doc_value_cols, postings_format=postings_format,
        term_vectors=term_vectors, term_vector_offsets=term_vector_offsets)
    return commit(out_dir, _next_generation(
        out_dir, rows, field=text_col, stop_words=stop_words, mode=mode,
        allow_doc_overlap=allow_doc_overlap))


@ray.remote
def _sum_stats_part(paths: list[str], out_path: str) -> None:
    """One part of the global (term, df, ttf): the sums over that part
    of every segment, term-sorted (empty for a generation with no
    segments)."""
    cols = ["term", "df", "ttf"]
    t = pa.concat_tables([pq.read_table(p, columns=cols) for p in paths]
                         or [POSTINGS_SCHEMA.empty_table().select(cols)])
    g = t.group_by("term").aggregate([("df", "sum"), ("ttf", "sum")])
    g = g.rename_columns(["term", "df", "ttf"]).sort_by("term")
    write_term_part(out_path, g, row_group_size=4096)


def compute_global_term_stats(index_dir: str, manifest: IndexManifest) -> None:
    """Global per-term (df, ttf), one task per part: a term lives in the
    same part of every segment, so part b of the stats sums part b of
    the segments, with no shuffle."""
    dirs = [os.path.join(index_dir, "segments", s.seg_id, "postings.parquet")
            for s in manifest.segments]
    out = new_stats_dir(index_dir, manifest.generation)
    os.makedirs(out)
    ray.get([_sum_stats_part.remote([part_path(d, b) for d in dirs],
                                    part_path(out, b))
             for b in range(POSTINGS_BUCKETS)])
