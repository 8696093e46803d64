"""Segment merge: one task per (merge group, postings part), no shuffle.

Reference semantics (SURVEY.md §3.2): ``TieredMergePolicy.findMerges``
(segsPerTier=10, merged-size cap — ``TieredMergePolicy.java:89-95,317``)
selects groups of small segments; ``SegmentMerger`` k-way merges posting
lists per term with docBase remapping (``SegmentMerger.java:104-158``)
and writes every merged term through the postings writer, which
re-packs full 128-doc FOR blocks.

Ray-native design: every segment's postings are ``POSTINGS_BUCKETS``
term-sorted parts, a term in part ``bucket_of(term)`` of every segment
(``index/manifest.py``), so part b of a merged segment needs only part b
of its sources — like ``SegmentMerger``, which merges term dictionaries
that are already sorted, the merge exchanges nothing. All groups run at
once:
- per group, one task writes the merged docs table (tombstones
  reclaimed, pending doc-values updates folded in) and returns the
  group's live stats;
- per (group, part), one task reads part b of each source segment and
  the sources' tombstones, and re-packs the part with one kernel
  (``_repack_bucket``): the whole part is decoded in one pass per
  stream, tombstoned postings and their positions are dropped,
  postings are sorted by (term, doc) and packed by the build's
  ``pack_postings_many`` into full 128-doc blocks. A merged term is
  one run of blocks whatever its sources: doc-disjoint or overlapping
  segments (a build from an unsorted Dataset), with or without
  tombstones. Merges write ``for128``, also from ``vint``/``pfor``
  sources. No part task waits on the docs task: a postings row holds
  nothing that depends on the docs table.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from ..codecs.postings import (
    POSTINGS_SCHEMA,
    _binary_bytes,
    _blocks_of,
    _offsets,
    _padded,
    _undelta,
    _unpack_values,
    decode_rows,
    pack_postings_many,
    packed_rows,
)
from .builder import commit, write_postings_part
from .manifest import (
    POSTINGS_BUCKETS,
    IndexManifest,
    SegmentInfo,
    part_path,
    read_manifest,
)


def plan_merges(segments: list[SegmentInfo], segs_per_tier: int = 10,
                max_merged_docs: int = 10_000_000) -> list[list[SegmentInfo]]:
    """Group doc-range-adjacent segments into merge candidates.

    TieredMergePolicy-lite: walk segments in doc order, open a group
    while it stays under both the per-tier segment count and the merged
    size cap; singleton groups are left unmerged.
    """
    groups: list[list[SegmentInfo]] = []
    cur: list[SegmentInfo] = []
    cur_docs = 0
    for s in sorted(segments, key=lambda x: x.min_doc):
        if cur and (len(cur) >= segs_per_tier or cur_docs + s.num_docs > max_merged_docs):
            groups.append(cur)
            cur, cur_docs = [], 0
        cur.append(s)
        cur_docs += s.num_docs
    if cur:
        groups.append(cur)
    return groups


def _term_starts(terms: pa.Array) -> np.ndarray:
    """First row of each term in a term-sorted bucket: int64[nterms]."""
    import pyarrow.compute as pc
    n = len(terms)
    neq = pc.not_equal(terms.slice(1), terms.slice(0, n - 1)) \
        .to_numpy(zero_copy_only=False)
    return np.concatenate([[0], np.nonzero(neq)[0] + 1]).astype(np.int64)


# Postings per ``pack_postings_many`` call of the re-pack kernel. Slices
# end on term boundaries (a hotter term is packed alone), so the
# packer's per-posting bit matrices stay bounded whatever the bucket.
REPACK_SLICE_POSTINGS = 1 << 18


def _repack_bucket(group: pa.Table,
                   deleted: np.ndarray | None = None) -> pa.Table:
    """Re-pack kernel over a whole bucket, the source segments' rows in
    any order: decode every row (``decode_rows``, one pass per
    stream), drop postings of the ``deleted`` docIDs (sorted) and their
    position runs, sort by (term, doc) and pack with the build's
    ``pack_postings_many``: one run of full 128-doc ``for128`` blocks
    per term. Terms left without postings vanish."""
    if group.num_rows == 0:
        return POSTINGS_SCHEMA.empty_table()
    group = group.sort_by("term").combine_chunks()
    terms = group.column("term").combine_chunks()
    starts = _term_starts(terms)
    # every row is one run of blocks (full 128s + tail): its df docs,
    # and with positions its ttf position deltas
    counts = group.column("df").to_numpy()
    docs, freqs = decode_rows(packed_rows(group), np.arange(len(group)))
    freqs = freqs.astype(np.int64)
    # term of every posting: rows per term, postings per row
    row_term = np.repeat(np.arange(len(starts)),
                         np.diff(np.append(starts, group.num_rows)))
    term_id = np.repeat(row_term, counts)
    occ = _offsets(freqs)
    pos = None
    if _binary_bytes(group.column("positions"))[1][-1]:
        _, psizes, _ = _blocks_of(_offsets(group.column("ttf").to_numpy()))
        deltas = _unpack_values(  # no stored block lengths: scanned
            _padded(_binary_bytes(group.column("positions"))[0]), psizes)
        if len(deltas) != occ[-1]:
            raise ValueError(f"positions stream has {len(deltas)} values "
                             f"for {occ[-1]} occurrences")
        pos = _undelta(deltas, freqs)  # delta resets at every posting

    keep = np.arange(len(docs))  # postings kept, in output order
    if deleted is not None and len(deleted):
        i = np.minimum(np.searchsorted(deleted, docs), len(deleted) - 1)
        keep = keep[deleted[i] != docs]
    key = (term_id[keep] << 32) | docs[keep]
    if (np.diff(key) <= 0).any():
        keep = keep[np.argsort(key, kind="stable")]
    D, F, T = docs[keep], freqs[keep], term_id[keep]
    if len(D) == 0:
        return POSTINGS_SCHEMA.empty_table()
    tb = np.concatenate([[0], np.flatnonzero(np.diff(T)) + 1, [len(T)]])
    names = terms.take(pa.array(starts[T[tb[:-1]]])).to_pylist()
    if pos is not None:
        # each kept posting's position run, in the kept order
        new_occ = _offsets(F)
        pos = pos[np.repeat(occ[keep] - new_occ[:-1], F)
                  + np.arange(new_occ[-1])]

    tables = []
    lo, nt = 0, len(tb) - 1
    while lo < nt:
        hi = max(lo + 1, int(np.searchsorted(
            tb, tb[lo] + REPACK_SLICE_POSTINGS, side="right")) - 1)
        a, b = tb[lo], tb[hi]
        tables.append(pack_postings_many(
            D[a:b], F[a:b], tb[lo:hi + 1] - a, terms=names[lo:hi],
            positions=None if pos is None
            else pos[new_occ[a]:new_occ[b]]))
        lo = hi
    return pa.concat_tables(tables)


def _tombstones(index_dir: str, seg_ids: list[str],
                del_gens: list[int]) -> np.ndarray | None:
    """Sorted deleted docIDs of a merge group's segments, or None."""
    dels = [pq.read_table(os.path.join(
                index_dir, "segments", sid, f"deletes_gen{dg}.parquet"))
            .column("doc_id").to_numpy()
            for sid, dg in zip(seg_ids, del_gens) if dg >= 0]
    return np.unique(np.concatenate(dels)) if dels else None


@ray.remote
def _merge_group_docs(index_dir: str, seg_ids: list[str],
                      del_gens: list[int], seg_dir: str,
                      dvu_gens: list[int] | None = None):
    """Per-group docs-table leg as a Ray task (no driver-resident docs):
    concat + sort the group's docs tables, FOLD pending numeric
    doc-values updates (the reference applies DV updates on merge too),
    reclaim tombstones, write the merged (live) docs.parquet, and
    return the group's live stats."""
    doc_tables = [pq.read_table(os.path.join(
        index_dir, "segments", sid, "docs.parquet")) for sid in seg_ids]
    docs_table = pa.concat_tables(doc_tables).sort_by("doc_id")
    dvu = [(sid, g) for sid, g in zip(seg_ids, dvu_gens or [])
           if g >= 0]
    if dvu:
        ov = pa.concat_tables([pq.read_table(os.path.join(
            index_dir, "segments", sid,
            f"dv_updates_gen{g}.parquet")) for sid, g in dvu])
        ids = docs_table.column("doc_id").to_numpy()
        for col in set(ov.column("col").to_pylist()):
            import pyarrow.compute as pc
            sub = ov.filter(pc.equal(ov.column("col"), col))
            ud = sub.column("doc_id").to_numpy()
            uv = sub.column("value").to_numpy()
            base = docs_table.column(col)
            vals = base.to_numpy(zero_copy_only=False).copy()
            pos = np.searchsorted(ids, ud)
            hit = (pos < len(ids))
            hit[hit] = ids[pos[hit]] == ud[hit]
            vals[pos[hit]] = uv[hit]
            docs_table = docs_table.set_column(
                docs_table.column_names.index(col), col,
                pa.array(vals, type=base.type))
    deleted = _tombstones(index_dir, seg_ids, del_gens)
    live_table = docs_table
    if deleted is not None and len(deleted):
        ids = docs_table.column("doc_id").to_numpy()
        pos = np.minimum(np.searchsorted(deleted, ids), len(deleted) - 1)
        live_table = docs_table.filter(pa.array(deleted[pos] != ids))
    pq.write_table(live_table, os.path.join(seg_dir, "docs.parquet"))
    # regenerate value-sorted doc-values sidecars for the merged segment
    src0 = os.path.join(index_dir, "segments", seg_ids[0])
    for f in sorted(os.listdir(src0)):
        if f.startswith("dv_") and f.endswith(".parquet"):
            col = f[len("dv_"):-len(".parquet")]
            if col in live_table.column_names:
                dv = pa.table({"value": live_table.column(col),
                               "doc_id": live_table.column("doc_id")}) \
                    .sort_by([("value", "ascending"),
                              ("doc_id", "ascending")])
                pq.write_table(dv, os.path.join(seg_dir, f),
                               row_group_size=4096)
    return (
        len(live_table),
        int(live_table.column("doc_len").to_numpy().sum())
        if len(live_table) else 0,
        int((live_table.column("doc_len").to_numpy() > 0).sum())
        if len(live_table) else 0,
        int(live_table.column("doc_id")[0].as_py()) if len(live_table) else 0,
        int(live_table.column("doc_id")[-1].as_py()) if len(live_table) else 0,
    )


@ray.remote
def _merge_part(index_dir: str, seg_ids: list[str], del_gens: list[int],
                b: int, postings_dir: str) -> int:
    """Part ``b`` of a merged segment from part b of each source
    segment's postings, their tombstones dropped. Returns the part's
    term count."""
    group = pa.concat_tables(pq.read_table(part_path(os.path.join(
        index_dir, "segments", sid, "postings.parquet"), b))
        for sid in seg_ids)
    merged = _repack_bucket(group, _tombstones(index_dir, seg_ids, del_gens))
    write_postings_part(postings_dir, b, merged)
    return len(merged)


def merge_segments(index_dir: str, *, segs_per_tier: int = 10,
                   max_merged_docs: int = 10_000_000) -> IndexManifest:
    """One round of tiered merging; returns the new manifest generation.
    Every group's tasks run at once: one for its docs table, one per
    postings part."""
    m = read_manifest(index_dir)
    groups = plan_merges(m.segments, segs_per_tier, max_merged_docs)
    # a group of one segment merges only to reclaim its tombstones
    merge_jobs = [g for g in groups
                  if len(g) > 1 or any(s.del_count for s in g)]
    new_segments = [s for g in groups
                    if not (len(g) > 1 or any(s.del_count for s in g))
                    for s in g]
    gen = m.generation + 1

    pending = []
    for g in sorted(merge_jobs, key=lambda g: g[0].min_doc):
        g = sorted(g, key=lambda s: s.min_doc)
        seg_id = (f"merged-{g[0].min_doc:012d}-{g[-1].max_doc:012d}-g{gen}")
        seg_dir = os.path.join(index_dir, "segments", seg_id)
        postings_dir = os.path.join(seg_dir, "postings.parquet")
        os.makedirs(postings_dir, exist_ok=True)
        seg_ids, del_gens = [s.seg_id for s in g], [s.del_gen for s in g]
        live = _merge_group_docs.remote(index_dir, seg_ids, del_gens,
                                        seg_dir, [s.dvu_gen for s in g])
        parts = [_merge_part.remote(index_dir, seg_ids, del_gens, b,
                                    postings_dir)
                 for b in range(POSTINGS_BUCKETS)]
        pending.append((g, seg_id, live, parts))

    for g, seg_id, live, parts in pending:
        n_live, sum_dl_live, fdc_live, min_live, max_live = ray.get(live)
        new_segments.append(SegmentInfo(
            seg_id=seg_id,
            num_docs=n_live,  # tombstones reclaimed by this merge
            min_doc=min_live,
            max_doc=max_live,
            sum_doc_len=sum_dl_live,
            num_terms=sum(ray.get(parts)),
            lineage="+".join(s.lineage for s in g)[:120],
            field_doc_count=fdc_live,
        ))

    # a reclaiming merge changed df/ttf: its stats are recomputed;
    # otherwise stats are per-corpus, not per-segment-layout, and the
    # previous generation's are linked
    return commit(index_dir, IndexManifest(
        generation=gen, field=m.field, stop_words=m.stop_words,
        segments=sorted(new_segments, key=lambda s: s.min_doc)),
        stats_of=None if m.num_deleted > 0 else m.generation)
