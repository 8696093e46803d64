"""Segment merge: the groupby-on-term shuffle.

Reference semantics (SURVEY.md §3.2): ``TieredMergePolicy.findMerges``
(segsPerTier=10, merged-size cap — ``TieredMergePolicy.java:89-95,317``)
selects groups of small segments; ``SegmentMerger`` k-way merges posting
lists per term with docBase remapping (``SegmentMerger.java:104-158``).

Ray-native design:
- docIDs are already global (data-derived), so merging one term across
  doc-disjoint segments is an ordered *chunk concat* of packed blocks —
  no re-encode. Overlapping-range chunks (builds from pre-batched
  Datasets) fall back to decode + sort + repack using broadcast norms.
- ALL merge groups run in ONE Ray Data job: segments are read with
  (group_id, seg_ord) columns, rows get a term-hash ``bucket``, and a
  single ``groupby((group_id, bucket)).map_groups`` reduces whole
  buckets of terms per call (amortizing per-group overhead over the
  vocabulary) and writes its output shard directly into the new
  segment's directory — no driver materialization.
- Term-frequency skew (Zipf head): ``salt_buckets > 1`` keys the first
  shuffle on (term, seg-order-bucket) so a hot term's chunks land on
  many reducers; a second groupby concatenates partials in order
  (salted repartition per the north rule; sub-runs stay doc-sorted
  because salting follows segment order).
- ``repack=True`` re-blocks into full 128-doc blocks and recomputes
  impacts from norms (forceMerge(1) analog).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from ..codecs.postings import (
    POSTINGS_SCHEMA,
    PackedPostings,
    concat_postings,
    pack_postings,
    repack_postings,
    unpack_positions,
    unpack_postings,
)
from .manifest import IndexManifest, SegmentInfo, read_manifest, write_manifest


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


def _row_to_packed(r: dict) -> PackedPostings:
    return PackedPostings(
        doc_count=r["doc_count"], ttf=r["ttf"], docs=r["docs"], freqs=r["freqs"],
        block_last_docs=np.asarray(r["block_last_docs"], dtype=np.int32),
        imp_freqs=np.asarray(r["imp_freqs"], dtype=np.int32),
        imp_norms=np.asarray(r["imp_norms"], dtype=np.uint8),
        imp_offsets=np.asarray(r["imp_offsets"], dtype=np.int64),
        chunk_doc_counts=np.asarray(r["chunk_doc_counts"], dtype=np.int32),
        positions=r["positions"],
        chunk_occ_counts=np.asarray(r["chunk_occ_counts"], dtype=np.int64),
        docs_bb=np.asarray(r["docs_bb"], dtype=np.int32),
        freqs_bb=np.asarray(r["freqs_bb"], dtype=np.int32),
    )


def _packed_to_cols(term: str, p: PackedPostings, rows: dict) -> None:
    rows["term"].append(term)
    rows["df"].append(p.doc_count)
    rows["ttf"].append(p.ttf)
    rows["doc_count"].append(p.doc_count)
    rows["docs"].append(p.docs)
    rows["freqs"].append(p.freqs)
    rows["block_last_docs"].append(np.asarray(p.block_last_docs, dtype=np.int32))
    rows["docs_bb"].append(np.asarray(p.docs_bb, dtype=np.int32))
    rows["freqs_bb"].append(np.asarray(p.freqs_bb, dtype=np.int32))
    rows["imp_freqs"].append(np.asarray(p.imp_freqs, dtype=np.int32))
    rows["imp_norms"].append(np.asarray(p.imp_norms).astype(np.int32))
    rows["imp_offsets"].append(np.asarray(p.imp_offsets, dtype=np.int32))
    rows["chunk_doc_counts"].append(np.asarray(p.chunk_doc_counts, dtype=np.int32))
    rows["positions"].append(p.positions)
    rows["chunk_occ_counts"].append(np.asarray(p.chunk_occ_counts, dtype=np.int64))


_MERGED_COLS = ("term", "df", "ttf", "doc_count", "docs", "freqs",
                "block_last_docs", "docs_bb", "freqs_bb",
                "imp_freqs", "imp_norms", "imp_offsets",
                "chunk_doc_counts", "positions", "chunk_occ_counts")


def _merge_one_term(rows: list[dict], norms_data) -> PackedPostings:
    """All chunk rows of one term (sorted by doc-order key) -> one merged
    posting. Fast path: ordered concat of packed blocks. Fallback on
    overlapping doc ranges: decode + sort + repack from norms."""
    packed = [_row_to_packed(r) for r in rows]
    try:
        return concat_postings(packed)
    except ValueError:
        if norms_data is None:
            raise
        doc_ids_all, norms_all = norms_data
        has_pos = any(len(p.positions) for p in packed)
        docs_parts, freqs_parts, pos_slices = [], [], []
        for p in packed:
            d, f = unpack_postings(p)
            docs_parts.append(d)
            freqs_parts.append(f)
            if has_pos:
                flat = unpack_positions(p.positions, p.chunk_occ_counts, f)
                offs = np.concatenate([[0], np.cumsum(f)])
                pos_slices.extend(flat[offs[i]:offs[i + 1]]
                                  for i in range(len(f)))
        docs = np.concatenate(docs_parts)
        freqs = np.concatenate(freqs_parts)
        order = np.argsort(docs, kind="stable")
        docs, freqs = docs[order], freqs[order]
        norms = norms_all[np.searchsorted(doc_ids_all, docs)]
        return pack_postings(docs, freqs, norms, positions=(
            np.concatenate([pos_slices[i] for i in order])
            if has_pos else None))


def _drop_docs(p: PackedPostings, deleted: np.ndarray,
               norms_lookup) -> PackedPostings | None:
    """Remove tombstoned docs from a merged posting (decode -> filter ->
    repack with fresh impacts). None if every posting doc was deleted."""
    docs, freqs = unpack_postings(p)
    pos = np.searchsorted(deleted, docs)
    pos = np.minimum(pos, len(deleted) - 1)
    keep = deleted[pos] != docs
    if keep.all():
        return p
    if not keep.any():
        return None
    flat = None
    if len(p.positions):
        flat = unpack_positions(p.positions, p.chunk_occ_counts, freqs)
        offs = np.concatenate([[0], np.cumsum(freqs)])
        flat = np.concatenate([flat[offs[i]:offs[i + 1]]
                               for i in np.nonzero(keep)[0]])
    docs, freqs = docs[keep], freqs[keep]
    return pack_postings(docs, freqs, norms_lookup(docs), positions=flat)


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


def _merge_bucket_vec(group: pa.Table,
                      with_okey: bool) -> pa.Table | None:
    """Vectorized merge of a whole (term, okey)-sorted bucket: every
    per-term payload (packed docs/freqs/positions bytes, block lists,
    impacts) is a CONTIGUOUS slice of the sorted column buffers, so the
    merged columns are rebuilt zero-copy from new offsets — no per-row
    Python objects at all (the ordered-concat fast path of
    ``concat_postings``, applied to 10k terms at once). Returns None
    when any term's chunks have overlapping doc ranges (the decode+
    repack fallback path handles those)."""
    import pyarrow.compute as pc
    n = group.num_rows
    terms = _col(group, "term")
    neq = pc.not_equal(terms.slice(1), terms.slice(0, n - 1)) \
        .to_numpy(zero_copy_only=False)
    starts = np.concatenate([[0], np.nonzero(neq)[0] + 1]).astype(np.int64)
    nt = len(starts)
    bounds = np.append(starts, n)

    # doc-order validation: each row's first block_last must exceed the
    # previous row's last block_last within the same term
    blo, blv_arr = _list_parts(_col(group, "block_last_docs"))
    blv = blv_arr.to_numpy(zero_copy_only=False)
    row_first = blv[blo[:-1]]
    row_last = blv[blo[1:] - 1]
    ok = np.ones(n, dtype=bool)
    ok[1:] = row_first[1:] > row_last[:-1]
    ok[starts] = True
    if not ok.all():
        return None  # at least one overlapping term -> slow path

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

    t = pa.Table.from_pydict({k: out[k] for k in _MERGED_COLS},
                             schema=POSTINGS_SCHEMA)
    if with_okey:
        okey_np = _col(group, "okey").to_numpy()
        t = t.append_column("okey", pa.array(okey_np[starts], pa.int64()))
    return t


def _merge_bucket(group: pa.Table, norms_data, repack: bool,
                  with_okey: bool = False, deleted: np.ndarray | None = None) -> pa.Table:
    """Merge a whole bucket of terms -> merged posting rows (one/term).

    Chunk order within a term comes from the data itself: ``okey`` =
    first block's last docID, which orders doc-disjoint chunks without
    any per-file bookkeeping. ``with_okey`` keeps each term's first okey
    (partial rows must stay orderable for the second salted level).

    The common case (no tombstones, no repack, doc-disjoint chunks)
    takes the fully vectorized zero-copy path above; tombstoned /
    repack / overlapping buckets take the per-term object path."""
    group = group.sort_by([("term", "ascending"), ("okey", "ascending")])
    if (deleted is None or len(deleted) == 0) and not repack \
            and group.num_rows > 0:
        t = _merge_bucket_vec(group.combine_chunks(), with_okey)
        if t is not None:
            return t
    rows = group.select(list(_MERGED_COLS) + ["okey"]).to_pylist()
    out = {k: [] for k in _MERGED_COLS}
    okeys = []
    if norms_data is not None:
        doc_ids_all, norms_all = norms_data

        def norms_lookup(d):
            return norms_all[np.searchsorted(doc_ids_all, d)]
    i = 0
    while i < len(rows):
        j = i
        term = rows[i]["term"]
        while j < len(rows) and rows[j]["term"] == term:
            j += 1
        merged = _merge_one_term(rows[i:j], norms_data)
        if deleted is not None and len(deleted):
            merged = _drop_docs(merged, deleted, norms_lookup)
            if merged is None:  # all docs tombstoned -> term vanishes
                i = j
                continue
        if repack and norms_data is not None:
            merged = repack_postings(merged, norms_lookup)
        _packed_to_cols(term, merged, out)
        okeys.append(rows[i]["okey"])
        i = j
    t = pa.Table.from_pydict(out, schema=POSTINGS_SCHEMA)
    if with_okey:
        t = t.append_column("okey", pa.array(okeys, pa.int64()))
    return t


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
    # norms keep ALL docs (repack of a partial chunk may reference a doc
    # deleted elsewhere in the group)
    norms = (docs_table.column("doc_id").to_numpy(),
             docs_table.column("norm").to_numpy().astype(np.uint8),
             deleted)
    return norms, live_stats


# A term whose merged posting payload exceeds this many bytes is "hot":
# its chunks would all land on ONE reducer of the term-hash shuffle, so
# the merge engages the two-level salted exchange automatically. ~12
# bytes/posting is the measured packed docs+freqs+positions rate on the
# bench corpus; 64 MB keeps any single reducer's per-term buffer small.
HOT_TERM_PAYLOAD_BYTES = 64 << 20
EST_BYTES_PER_POSTING = 12


def _max_global_df(index_dir: str, generation: int) -> int:
    """Largest per-term doc freq, read from the global term-stats
    PARQUET COLUMN STATISTICS only (no data scan — the BKD/blocktree
    stats role; reference reads the same df from the terms dict,
    ``index/TermStates.java``)."""
    import glob as _glob
    d = os.path.join(index_dir, "global", f"term_stats_gen{generation}")
    mx = 0
    for p in _glob.glob(os.path.join(d, "part-*.parquet")):
        md = pq.ParquetFile(p).metadata
        df = md.schema.names.index("df")
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(df).statistics
            if st is not None and st.has_min_max:
                mx = max(mx, int(st.max))
    return mx


def auto_salt_buckets(index_dir: str, m, groups) -> int:
    """Derive the salted-shuffle level from the Zipf head: if the
    hottest term's estimated merged payload exceeds
    ``HOT_TERM_PAYLOAD_BYTES``, split each group's segments across
    enough level-1 buckets that every partial stays under it."""
    if not groups:
        return 1
    max_df = _max_global_df(index_dir, m.generation)
    payload = max_df * EST_BYTES_PER_POSTING
    if payload <= HOT_TERM_PAYLOAD_BYTES:
        return 1
    want = -(-payload // HOT_TERM_PAYLOAD_BYTES)  # ceil
    return int(min(max(len(g) for g in groups), want))


def merge_segments(index_dir: str, *, segs_per_tier: int = 10,
                   max_merged_docs: int = 10_000_000,
                   salt_buckets: int | None = None,
                   repack: bool = False, min_group: int = 2) -> IndexManifest:
    """One round of tiered merging (single distributed job over all
    groups); returns the new manifest generation.

    ``salt_buckets=None`` (default) auto-detects Zipf-head skew from the
    global df stats and engages the two-level salted shuffle only when a
    term's merged payload would overload one reducer; pass an int to
    force a level."""
    m = read_manifest(index_dir)
    groups = plan_merges(m.segments, segs_per_tier, max_merged_docs)
    if salt_buckets is None:
        salt_buckets = auto_salt_buckets(index_dir, m, groups)
    # singleton segments with tombstones still merge (reclaim deletes)
    merge_jobs = [g for g in groups
                  if len(g) >= min_group or any(s.del_count for s in g)]
    new_segments = [s for g in groups
                    if not (len(g) >= min_group or any(s.del_count for s in g))
                    for s in g]
    gen = m.generation + 1

    if merge_jobs:
        cpus = int(ray.cluster_resources().get("CPU", 4))
        n_buckets = max(8, 2 * cpus)

        # per-group output dirs, merged docs tables, broadcast norms
        group_meta = []
        norms_refs = {}
        for gi, g in enumerate(sorted(merge_jobs, key=lambda g: g[0].min_doc)):
            g = sorted(g, key=lambda s: s.min_doc)
            seg_id = (f"merged-{g[0].min_doc:012d}-{g[-1].max_doc:012d}-g{gen}")
            seg_dir = os.path.join(index_dir, "segments", seg_id)
            os.makedirs(os.path.join(seg_dir, "postings.parquet"), exist_ok=True)
            # record the shard hash fn: readers route a term straight to
            # its part file instead of probing every shard
            import json as _json
            with open(os.path.join(seg_dir, "postings.parquet",
                                   "_BUCKETS.json"), "w") as bf:
                _json.dump({"n_buckets": n_buckets, "hash": "crc32"}, bf)
            # docs-table leg runs as one Ray task per group (read +
            # concat + tombstone filter + write, off the driver); the
            # norms tuple STAYS in the object store — only its ref and
            # the tiny live stats come back
            norms_refs[gi], stats_ref = _merge_group_docs.remote(
                index_dir, [s.seg_id for s in g], [s.del_gen for s in g],
                seg_dir,
                [s.dvu_gen for s in g])
            group_meta.append((gi, g, seg_id, seg_dir, stats_ref))
        group_meta = [(gi, g, seg_id, seg_dir, tuple(ray.get(ref)))
                      for gi, g, seg_id, seg_dir, ref in group_meta]

        # ONE read over every input segment's postings; group & order are
        # derived from the data (okey = first block's last docID), so no
        # per-file datasets / unions are needed. postings.parquet may be
        # a directory of reducer shards (a previously-merged segment).
        def _expand(path: str) -> list[str]:
            if os.path.isdir(path):
                return sorted(os.path.join(path, f) for f in os.listdir(path)
                              if f.endswith(".parquet"))
            return [path]

        all_paths = [f
                     for _, g, _, _, _ in group_meta for s in g
                     for f in _expand(os.path.join(
                         index_dir, "segments", s.seg_id, "postings.parquet"))]
        # RIGHT-SIZE the read blocks: Ray's sort-based groupby cost is
        # dominated by block COUNT, not bytes (measured at sf0.1: 288
        # per-row-group blocks -> 13.7s shuffle; the same 230 MB in 32
        # blocks -> ~1s). Target ~128 MB decoded per block, about 64 MB
        # on disk (disk bytes x2 for Arrow decode), floored at cluster
        # parallelism — the ratio holds at 100 TB where blocks are
        # naturally large.
        in_bytes = sum(os.path.getsize(p) for p in all_paths)
        n_blocks = max(cpus, (in_bytes * 2) // (128 << 20) + 1)
        ds = ray.data.read_parquet(all_paths,
                                   override_num_blocks=int(n_blocks))

        group_max_docs = np.array(
            [g[-1].max_doc for _, g, _, _, _ in group_meta], dtype=np.int64)
        # per-group segment boundaries for salting (seg index from okey)
        seg_bounds = {gi: np.array([s.max_doc for s in g], dtype=np.int64)
                      for gi, g, _, _, _ in group_meta}
        seg_per_salt = {gi: max(1, (len(g) + salt_buckets - 1) // salt_buckets)
                        for gi, g, _, _, _ in group_meta}
        seg_dirs = {gi: seg_dir for gi, _, _, seg_dir, _ in group_meta}

        def add_keys(t: pa.Table, salted: bool) -> pa.Table:
            import pyarrow.compute as pc
            if "okey" not in t.column_names:
                okey = pc.list_element(t.column("block_last_docs"), 0) \
                    .cast(pa.int64())
                t = t.append_column("okey", okey)
            if "group_id" not in t.column_names:
                ok = t.column("okey").to_numpy()
                gid = np.searchsorted(group_max_docs, ok)
                t = t.append_column("group_id", pa.array(gid, pa.int64()))
            from ..util import crc32_batch
            th = crc32_batch(t.column("term")).astype(np.uint64)
            if salted:
                # vectorized salt: per-group searchsorted of okey against
                # segment boundaries, then mix into the term hash (the
                # level-1 bucket is internal to the two-level shuffle, so
                # any deterministic term+salt hash works; only the final
                # unsalted pass must match the reader's crc32 routing)
                ok = t.column("okey").to_numpy()
                gids = t.column("group_id").to_numpy()
                salt = np.empty(len(ok), dtype=np.uint64)
                for g in np.unique(gids):
                    m = gids == g
                    si = np.searchsorted(seg_bounds[int(g)], ok[m])
                    salt[m] = (si // seg_per_salt[int(g)]).astype(np.uint64)
                th = (th * np.uint64(0x9E3779B97F4A7C15)) ^ \
                    (salt * np.uint64(0xC2B2AE3D27D4EB4F) + np.uint64(1))
            b = pa.array((th % np.uint64(n_buckets)).astype(np.int64),
                         pa.int64())
            if "bucket" in t.column_names:
                t = t.drop_columns(["bucket"])
            return t.append_column("bucket", b)

        def reduce_write(group: pa.Table) -> pa.Table:
            gid = group.column("group_id")[0].as_py()
            bucket = group.column("bucket")[0].as_py()
            ids_all, norms_all, deleted = ray.get(norms_refs[gid])
            merged = _merge_bucket(group, (ids_all, norms_all), repack,
                                   deleted=deleted)
            out_path = os.path.join(seg_dirs[gid], "postings.parquet",
                                    f"part-{bucket:05d}.parquet")
            from .builder import POSTINGS_ROW_GROUP
            pq.write_table(merged, out_path,
                           row_group_size=POSTINGS_ROW_GROUP)
            from ..util import term_hash64
            side = os.path.join(os.path.dirname(out_path),
                                "_" + os.path.basename(out_path)
                                [:-len(".parquet")] + ".termset")
            np.sort(term_hash64(merged.column("term").to_pylist())) \
                .tofile(side)
            return pa.table({"group_id": pa.array([gid], pa.int64()),
                             "n_terms": pa.array([len(merged)], pa.int64())})

        def reduce_partial(group: pa.Table) -> pa.Table:
            gid = group.column("group_id")[0].as_py()
            ids_all, norms_all, _deleted = ray.get(norms_refs[gid])
            merged = _merge_bucket(group, (ids_all, norms_all), False,
                                   with_okey=True)
            gids = pa.array([gid] * len(merged), pa.int64())
            return merged.append_column("group_id", gids)

        if salt_buckets > 1:
            l1 = ds.map_batches(add_keys, batch_format="pyarrow",
                                fn_kwargs={"salted": True})
            partial = l1.groupby(["group_id", "bucket"]).map_groups(
                reduce_partial, batch_format="pyarrow")
            l2 = partial.map_batches(add_keys, batch_format="pyarrow",
                                     fn_kwargs={"salted": False})
            meta = l2.groupby(["group_id", "bucket"]).map_groups(
                reduce_write, batch_format="pyarrow")
        else:
            l1 = ds.map_batches(add_keys, batch_format="pyarrow",
                                fn_kwargs={"salted": False})
            meta = l1.groupby(["group_id", "bucket"]).map_groups(
                reduce_write, batch_format="pyarrow")

        term_counts: dict[int, int] = {}
        for r in meta.take_all():
            term_counts[r["group_id"]] = term_counts.get(r["group_id"], 0) \
                + int(r["n_terms"])

        for gi, g, seg_id, seg_dir, live in group_meta:
            n_live, sum_dl_live, fdc_live, min_live, max_live = live
            new_segments.append(SegmentInfo(
                seg_id=seg_id,
                num_docs=n_live,  # tombstones reclaimed by this merge
                min_doc=min_live,
                max_doc=max_live,
                sum_doc_len=sum_dl_live,
                num_terms=term_counts.get(gi, 0),
                lineage="+".join(s.lineage for s in g)[:120],
                field_doc_count=fdc_live,
            ))

    # totals recomputed: merged groups reclaimed their tombstones, so
    # their live counts replace the pre-merge (maxDoc-like) contributions
    new_manifest = IndexManifest(
        generation=gen,
        num_docs=sum(s.num_docs for s in new_segments),
        sum_doc_len=sum(s.sum_doc_len for s in new_segments),
        field=m.field,
        stop_words=m.stop_words,
        segments=sorted(new_segments, key=lambda s: s.min_doc),
        field_doc_count=sum(s.field_doc_count for s in new_segments),
    )
    if m.num_deleted > 0:
        # a reclaiming merge changed df/ttf: rebuild global stats
        from .builder import compute_global_term_stats
        compute_global_term_stats(index_dir, new_manifest)
    else:
        # stats are per-corpus, not per-segment-layout: link previous gen
        from .deletes import _link_stats
        _link_stats(index_dir, m.generation, gen)
    write_manifest(index_dir, new_manifest)
    return new_manifest
