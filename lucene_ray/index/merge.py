"""Segment merge: one task per (merge group, postings part), no shuffle.

Reference semantics (SURVEY.md §3.2): ``TieredMergePolicy.findMerges``
(segsPerTier=10, merged-size cap — ``TieredMergePolicy.java:89-95,317``)
selects groups of small segments; ``SegmentMerger`` k-way merges posting
lists per term with docBase remapping (``SegmentMerger.java:104-158``).

Ray-native design: every segment's postings are ``POSTINGS_BUCKETS``
term-sorted parts, a term in part ``bucket_of(term)`` of every segment
(``index/manifest.py``), so part b of a merged segment needs only part b
of its sources — like ``SegmentMerger``, which merges term dictionaries
that are already sorted, the merge exchanges nothing. All groups run at
once:
- per group, one task writes the merged docs table (tombstones
  reclaimed, pending doc-values updates folded in) and leaves the
  group's norms in the object store;
- per (group, part), one task reads part b of each source segment in
  doc order, stable-sorts the rows by term and writes part b with one
  of two kernels, picked per group by a rule over manifest fields:
  - concat (``_merge_bucket_vec``): docIDs are global (data-derived),
    so a term's chunks from live, doc-disjoint segments are joined in
    doc order zero-copy — no decode, no re-encode;
  - re-pack (``_repack_bucket``): when a group has tombstones, when its
    segments' ``[min_doc, max_doc]`` ranges overlap (builds from an
    unsorted Dataset), or under ``repack=True`` (forceMerge(1) analog),
    the whole part is decoded in one pass per stream, tombstoned
    postings and their positions are dropped, postings are sorted by
    (term, doc) and packed into full 128-doc ``for128`` blocks with
    fresh impacts from the group's norms.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from ..codecs.postings import (
    POSTINGS_SCHEMA,
    _blocks_of,
    _decode_stream,
    _flat_list,
    _offsets,
    _undelta,
    pack_postings_many,
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


def _col(group: pa.Table, name: str) -> pa.Array:
    a = group.column(name)
    if isinstance(a, pa.ChunkedArray):
        a = (a.chunk(0) if a.num_chunks == 1
             else pa.concat_arrays(a.chunks))
    return a


def _bin_bufs(arr: pa.Array) -> tuple[np.ndarray, "pa.Buffer"]:
    """(value offsets int64[n+1], data buffer) of a large_binary array
    with offset 0 (post-combine_chunks)."""
    bufs = arr.buffers()
    offs = np.frombuffer(bufs[1], dtype=np.int64)[:len(arr) + 1]
    return offs, bufs[2] if bufs[2] is not None else pa.py_buffer(b"")


def _list_parts(arr: pa.Array) -> tuple[np.ndarray, pa.Array]:
    return (arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64),
            arr.values)


def _term_starts(terms: pa.Array) -> np.ndarray:
    """First row of each term in a term-sorted bucket: int64[nterms]."""
    import pyarrow.compute as pc
    n = len(terms)
    neq = pc.not_equal(terms.slice(1), terms.slice(0, n - 1)) \
        .to_numpy(zero_copy_only=False)
    return np.concatenate([[0], np.nonzero(neq)[0] + 1]).astype(np.int64)


def _merge_bucket_vec(group: pa.Table) -> pa.Table:
    """Concat kernel over a whole bucket of live, doc-disjoint chunks,
    sorted by term and then doc: every per-term payload (packed docs/freqs/
    positions bytes, block lists, impacts) is a CONTIGUOUS slice of the
    sorted column buffers, so the merged columns are rebuilt zero-copy
    from new offsets — no per-row Python objects at all."""
    n = group.num_rows
    terms = _col(group, "term")
    starts = _term_starts(terms)
    nt = len(starts)
    bounds = np.append(starts, n)

    out: dict = {}
    out["term"] = terms.take(pa.array(starts))
    df_np = _col(group, "df").to_numpy()
    ttf_np = _col(group, "ttf").to_numpy()
    out["df"] = pa.array(np.add.reduceat(df_np, starts), pa.int64())
    out["ttf"] = pa.array(np.add.reduceat(ttf_np, starts), pa.int64())
    out["doc_count"] = out["df"]

    for name in ("docs", "freqs", "positions"):
        arr = _col(group, name)
        offs, data = _bin_bufs(arr)
        new_offs = offs[bounds]
        out[name] = pa.Array.from_buffers(
            pa.large_binary(), nt,
            [None, pa.py_buffer(new_offs.tobytes()), data])

    for name, vt in (("block_last_docs", pa.int32()),
                     ("imp_freqs", pa.int32()),
                     ("imp_norms", pa.int32()),
                     ("chunk_doc_counts", pa.int32()),
                     ("chunk_occ_counts", pa.int64()),
                     ("docs_bb", pa.int32()),
                     ("freqs_bb", pa.int32())):
        offs, vals = _list_parts(_col(group, name))
        out[name] = pa.LargeListArray.from_arrays(
            pa.array(offs[bounds], pa.int64()),
            vals.cast(vt) if vals.type != vt else vals)

    # imp_offsets rebase: merged = [0] ++ cumsum(within-row diffs), as
    # one segmented cumsum over the whole bucket
    io_offs, io_vals_arr = _list_parts(_col(group, "imp_offsets"))
    io_vals = io_vals_arr.to_numpy(zero_copy_only=False).astype(np.int64)
    d = np.diff(io_vals)
    valid = np.ones(len(d), dtype=bool)
    valid[io_offs[1:-1] - 1] = False  # diffs crossing row boundaries
    cs = np.concatenate([[0], np.cumsum(d[valid])])
    row_nb = np.diff(io_offs) - 1  # blocks per row
    tbs = np.concatenate([[0], np.cumsum(np.add.reduceat(row_nb, starts))])
    term_of = np.repeat(np.arange(nt), np.diff(tbs) + 1)
    at = np.arange(tbs[-1] + nt) - term_of  # [0] ++ the term's blocks
    out["imp_offsets"] = pa.LargeListArray.from_arrays(
        pa.array(tbs + np.arange(nt + 1), pa.int64()),
        pa.array((cs[at] - cs[tbs[term_of]]).astype(np.int32), pa.int32()))

    return pa.Table.from_pydict({k: out[k] for k in POSTINGS_SCHEMA.names},
                                schema=POSTINGS_SCHEMA)


# Postings per ``pack_postings_many`` call of the re-pack kernel. Slices
# end on term boundaries (a hotter term is packed alone), so the
# packer's per-posting bit matrices stay bounded whatever the bucket.
REPACK_SLICE_POSTINGS = 1 << 18


def _repack_bucket(group: pa.Table, norms_data,
                   deleted: np.ndarray | None) -> pa.Table:
    """Re-pack kernel over a whole term-sorted bucket: decode every row
    (one ``_decode_stream`` call per stream), drop tombstoned postings
    and their position runs, sort by (term, doc) and pack with the
    build's ``pack_postings_many``: one ``for128`` chunk per term, full
    128-doc blocks, impacts from the group's norms. Terms left without
    postings vanish."""
    terms = _col(group, "term")
    starts = _term_starts(terms)
    # every chunk of every row is blocked on its own (full 128s + tail)
    chunk_offs, chunk_counts = _flat_list(group.column("chunk_doc_counts"))
    _, sizes, _ = _blocks_of(_offsets(chunk_counts))
    docs = _undelta(_decode_stream(
        group, "docs", sizes, _flat_list(group.column("docs_bb"))[1]),
        chunk_counts)
    freqs = _decode_stream(
        group, "freqs", sizes, _flat_list(group.column("freqs_bb"))[1]) \
        .astype(np.int64)
    # term of every posting: rows per term, postings per row
    row_term = np.repeat(np.arange(len(starts)),
                         np.diff(np.append(starts, group.num_rows)))
    term_id = np.repeat(row_term,
                        np.diff(_offsets(chunk_counts)[chunk_offs]))
    occ = _offsets(freqs)
    pos = None
    pos_offs, _ = _bin_bufs(_col(group, "positions"))
    if pos_offs[-1] > pos_offs[0]:
        _, occ_counts = _flat_list(group.column("chunk_occ_counts"))
        _, psizes, _ = _blocks_of(_offsets(occ_counts))
        deltas = _decode_stream(group, "positions", psizes)
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
    doc_ids_all, norms_all = norms_data
    N = norms_all[np.searchsorted(doc_ids_all, D)]
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
            D[a:b], F[a:b], N[a:b], tb[lo:hi + 1] - a, terms=names[lo:hi],
            positions=None if pos is None
            else pos[new_occ[a]:new_occ[b]]))
        lo = hi
    return pa.concat_tables(tables)


def _merge_bucket(group: pa.Table, norms_data, repack: bool,
                  deleted: np.ndarray | None = None) -> pa.Table:
    """Merge a whole bucket of terms -> merged posting rows (one/term)
    with the kernel the group's rule picked.

    ``group`` holds the source segments' rows in segment doc order, so
    a stable sort by term leaves a term's doc-disjoint chunks in doc
    order (the re-pack kernel sorts by doc anyway)."""
    if group.num_rows == 0:
        return POSTINGS_SCHEMA.empty_table()
    group = group.sort_by("term").combine_chunks()
    if repack:
        return _repack_bucket(group, norms_data, deleted)
    return _merge_bucket_vec(group)


def _needs_repack(g: list[SegmentInfo]) -> bool:
    """The concat kernel is exact only for live, doc-disjoint segments:
    a group with tombstones, or whose ``[min_doc, max_doc]`` ranges
    overlap (a build from an unsorted Dataset), is re-packed."""
    if any(s.del_count for s in g):
        return True
    g = sorted(g, key=lambda s: s.min_doc)
    reach = np.maximum.accumulate([s.max_doc for s in g])
    return bool(any(s.min_doc <= r for s, r in zip(g[1:], reach)))


@ray.remote(num_returns=2)
def _merge_group_docs(index_dir: str, seg_ids: list[str],
                      del_gens: list[int], seg_dir: str,
                      dvu_gens: list[int] | None = None):
    """Per-group docs-table leg as a Ray task (no driver-resident docs):
    concat + sort the group's docs tables, FOLD pending numeric
    doc-values updates (the reference applies DV updates on merge too),
    reclaim tombstones, write the merged (live) docs.parquet, and
    return the norms broadcast tuple + the group's live stats."""
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
    dels = [pq.read_table(os.path.join(
                index_dir, "segments", sid, f"deletes_gen{dg}.parquet"))
            .column("doc_id").to_numpy()
            for sid, dg in zip(seg_ids, del_gens) if dg >= 0]
    deleted = np.unique(np.concatenate(dels)) if dels else None
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
    live_stats = (
        len(live_table),
        int(live_table.column("doc_len").to_numpy().sum())
        if len(live_table) else 0,
        int((live_table.column("doc_len").to_numpy() > 0).sum())
        if len(live_table) else 0,
        int(live_table.column("doc_id")[0].as_py()) if len(live_table) else 0,
        int(live_table.column("doc_id")[-1].as_py()) if len(live_table) else 0,
    )
    # norms of the live docs: the re-pack kernel drops tombstoned
    # postings before it looks norms up
    norms = (live_table.column("doc_id").to_numpy(),
             live_table.column("norm").to_numpy().astype(np.uint8),
             deleted)
    return norms, live_stats


@ray.remote
def _merge_part(src_dirs: list[str], b: int, postings_dir: str, norms,
                repack: bool) -> int:
    """Part ``b`` of a merged segment from part b of each source postings
    dir (in doc order); ``norms`` is the docs leg's tuple, needed by the
    re-pack kernel only. Returns the part's term count."""
    group = pa.concat_tables(pq.read_table(part_path(d, b)) for d in src_dirs)
    ids, norms_all, deleted = norms or (None, None, None)
    merged = _merge_bucket(group, (ids, norms_all), repack, deleted)
    write_postings_part(postings_dir, b, merged)
    return len(merged)


def merge_segments(index_dir: str, *, segs_per_tier: int = 10,
                   max_merged_docs: int = 10_000_000,
                   repack: bool = False, min_group: int = 2) -> IndexManifest:
    """One round of tiered merging; returns the new manifest generation.
    Every group's tasks run at once: one for its docs table, one per
    postings part."""
    m = read_manifest(index_dir)
    groups = plan_merges(m.segments, segs_per_tier, max_merged_docs)
    # singleton segments with tombstones still merge (reclaim deletes)
    merge_jobs = [g for g in groups
                  if len(g) >= min_group or any(s.del_count for s in g)]
    new_segments = [s for g in groups
                    if not (len(g) >= min_group or any(s.del_count for s in g))
                    for s in g]
    gen = m.generation + 1

    pending = []
    for g in sorted(merge_jobs, key=lambda g: g[0].min_doc):
        g = sorted(g, key=lambda s: s.min_doc)
        seg_id = (f"merged-{g[0].min_doc:012d}-{g[-1].max_doc:012d}-g{gen}")
        seg_dir = os.path.join(index_dir, "segments", seg_id)
        postings_dir = os.path.join(seg_dir, "postings.parquet")
        os.makedirs(postings_dir, exist_ok=True)
        # the docs leg keeps the norms in the object store; only their
        # ref and the tiny live stats reach the driver
        norms, live = _merge_group_docs.remote(
            index_dir, [s.seg_id for s in g], [s.del_gen for s in g],
            seg_dir, [s.dvu_gen for s in g])
        # the kernel rule, over manifest fields: re-pack a group with
        # tombstones, with overlapping segment doc ranges, or on request
        rp = repack or _needs_repack(g)
        src = [os.path.join(index_dir, "segments", s.seg_id,
                            "postings.parquet") for s in g]
        # only the re-pack kernel reads norms: a concat group's part
        # tasks run without waiting for the docs leg
        parts = [_merge_part.remote(src, b, postings_dir,
                                    norms if rp else None, rp)
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
