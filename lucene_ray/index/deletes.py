"""Deletes / updates: tombstone live-docs files + delete-by / update-by.

Mirrors the reference's live-docs design
(``codecs/lucene90/Lucene90LiveDocsFormat.java``,
``index/IndexWriter.java:1828`` updateDocument,
``index/TestPerSegmentDeletes.java``): deletes never rewrite segment
data — a generation-stamped ``deletes_gen<G>.parquet`` of tombstoned
docIDs sits next to each segment and readers mask candidates against
it. Merges reclaim tombstones (they drop the docs, and the merge's
re-pack drops their postings).

Statistics semantics match the reference: df/ttf/avgdl keep counting
tombstoned docs until a merge reclaims them.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from .builder import build_index, commit
from .manifest import IndexManifest, read_manifest


def apply_deletes(index_dir: str,
                  per_seg: dict[str, np.ndarray]) -> IndexManifest:
    """Commit tombstones: per-segment deleted docIDs -> new generation.
    Unions with any existing deletes; two-phase manifest commit."""
    m = read_manifest(index_dir)
    gen = m.generation + 1
    new_segs = []
    for s in m.segments:
        dels = per_seg.get(s.seg_id)
        if dels is None or len(dels) == 0:
            new_segs.append(s)
            continue
        dels = np.asarray(dels, dtype=np.int64)
        if s.del_gen >= 0:
            old = pq.read_table(os.path.join(
                index_dir, "segments", s.seg_id,
                f"deletes_gen{s.del_gen}.parquet")).column("doc_id").to_numpy()
            dels = np.union1d(dels, old)
        dels = np.unique(dels)
        path = os.path.join(index_dir, "segments", s.seg_id,
                            f"deletes_gen{gen}.parquet")
        pq.write_table(pa.table({"doc_id": pa.array(dels, pa.int64())}), path)
        new_segs.append(replace(s, del_gen=gen, del_count=len(dels)))
    return commit(index_dir, replace(m, generation=gen, segments=new_segs),
                  stats_of=m.generation)


def delete_by_query(index_dir: str, query) -> int:
    """Tombstone every doc matching the query. Returns newly-deleted
    count (docs already tombstoned don't re-count)."""
    from ..search.reader import IndexReader
    from ..search.searcher import Searcher
    reader = IndexReader(index_dir)
    s = Searcher(reader)
    w = s.weight(query)
    per_seg: dict[str, np.ndarray] = {}
    n = 0
    for info in reader.segment_infos:
        sr = reader.segment(info.seg_id)
        docs = w.matches(sr)
        if len(docs):
            per_seg[info.seg_id] = docs
            n += len(docs)
    if per_seg:
        apply_deletes(index_dir, per_seg)
    return n


@ray.remote
def _scan_keys(docs_path: str, key_col: str, values: list) -> np.ndarray:
    t = pq.read_table(docs_path, columns=["doc_id", key_col],
                      filters=[(key_col, "in", values)])
    return t.column("doc_id").to_numpy()


def delete_by_key(index_dir: str, key_col: str, values) -> int:
    """Tombstone docs whose stored ``key_col`` is in ``values`` — the
    deleteDocuments(Term) analog for a key field (e.g. url). One Ray
    task per segment, predicate pushed into the Parquet scan."""
    values = list(values)
    m = read_manifest(index_dir)
    futs = {s.seg_id: _scan_keys.remote(
        os.path.join(index_dir, "segments", s.seg_id, "docs.parquet"),
        key_col, values) for s in m.segments}
    per_seg = {}
    n = 0
    for seg_id, f in futs.items():
        docs = ray.get(f)
        if len(docs):
            per_seg[seg_id] = docs
            n += len(docs)
    if per_seg:
        apply_deletes(index_dir, per_seg)
    return n


def update_by_key(index_dir: str, source, key_col: str,
                  **build_kwargs) -> IndexManifest:
    """updateDocument analog: tombstone existing docs carrying the new
    batch's keys, then append the new docs as fresh segments. The new
    docs' ``key_col`` must be among ``stored_cols``."""
    import ray.data
    if isinstance(source, (str, os.PathLike)):
        keys_ds = ray.data.read_parquet(str(source), columns=[key_col])
    else:
        keys_ds = source.select_columns([key_col])
    keys = sorted(keys_ds.unique(key_col))
    delete_by_key(index_dir, key_col, keys)
    stored = build_kwargs.pop("stored_cols", ())
    if key_col not in stored:
        stored = (*stored, key_col)
    return build_index(source, index_dir, stored_cols=stored, **build_kwargs)


# --- soft deletes ------------------------------------------------------------
# IndexWriterConfig.setSoftDeletesField + SoftDeletesDirectoryReaderWrapper
# (index/SoftDeletesDirectoryReaderWrapper.java,
# SoftDeletesRetentionMergePolicy.java): soft-deleted docs stay in the
# index (a plain reader still sees them); a WRAPPED reader hides them.
# Here the doc-values marker is a per-segment
# ``soft_deletes_<field>.parquet`` sidecar; no manifest generation is
# consumed (as in the reference, where it is a doc-values update).
# Limitation vs the reference (documented): a merge rewrites docIDs,
# so soft tombstones apply to the segments they were written against —
# re-mark after forced merges (the reference's retention merge policy
# carries them through instead).


def soft_delete_by_key(index_dir: str, key_col: str, values,
                       field: str = "__soft_deletes") -> int:
    """Soft-tombstone docs whose stored ``key_col`` is in ``values``.
    Unions with existing soft tombstones; returns docs marked."""
    values = list(values)
    m = read_manifest(index_dir)
    futs = {s.seg_id: _scan_keys.remote(
        os.path.join(index_dir, "segments", s.seg_id, "docs.parquet"),
        key_col, values) for s in m.segments}
    n = 0
    for seg_id, f in futs.items():
        docs = ray.get(f)
        if not len(docs):
            continue
        path = os.path.join(index_dir, "segments", seg_id,
                            f"soft_deletes_{field}.parquet")
        if os.path.exists(path):
            old = pq.read_table(path).column("doc_id").to_numpy()
            docs = np.union1d(docs, old)
        docs = np.unique(docs)
        pq.write_table(
            pa.table({"doc_id": pa.array(docs, pa.int64())}), path)
        n += len(docs)
    return n


def soft_undelete_all(index_dir: str,
                      field: str = "__soft_deletes") -> int:
    """Drop every soft tombstone (the retention property: soft-deleted
    docs were never physically removed)."""
    m = read_manifest(index_dir)
    n = 0
    for s in m.segments:
        path = os.path.join(index_dir, "segments", s.seg_id,
                            f"soft_deletes_{field}.parquet")
        if os.path.exists(path):
            n += pq.read_metadata(path).num_rows
            os.remove(path)
    return n


def open_soft_reader(index_dir: str, field: str = "__soft_deletes"):
    """SoftDeletesDirectoryReaderWrapper analog: an IndexReader whose
    per-segment live docs additionally mask the soft tombstones. A
    plain ``IndexReader(index_dir)`` keeps seeing the docs."""
    from ..search.reader import IndexReader

    r = IndexReader(index_dir)
    for sr in r.segments():
        path = os.path.join(sr._seg_dir,
                            f"soft_deletes_{field}.parquet")
        if not os.path.exists(path):
            continue
        soft = pq.read_table(path).column("doc_id").to_numpy()
        sr.deleted = (np.sort(soft) if sr.deleted is None
                      else np.union1d(sr.deleted, soft))
    return r
