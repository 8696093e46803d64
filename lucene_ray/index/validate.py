"""CheckIndex analog (``index/CheckIndex.java``): decode every structure
and re-verify invariants as a Ray Data job.

Checks per segment:
- each postings row is one run of 128-doc blocks: ``ceil(df/128)``
  block lengths in ``docs_bb`` and ``freqs_bb`` covering their streams,
  and a non-empty ``positions`` stream that holds exactly ``ttf`` values
- posting docIDs strictly increasing, within [min_doc, max_doc]
- ttf == sum(freqs), every freq >= 1
- docs table sorted by doc_id, unique
- all ``POSTINGS_BUCKETS`` postings parts exist, each with its terms
  strictly ascending (the readers' term dictionaries bisect on that
  order), and every row is in its term's part (``bucket_of``): a row in
  another part is one no reader can find
- docs table row count and doc lengths match the segment's entry
- live-docs (tombstone) files exist and name docs of the segment
Index-level: no docID is live in two segments (segment doc RANGES may
overlap: a build from a Dataset allows it); the generation's global
term stats have all their parts, every row in its term's part, terms
strictly ascending; a recorded index sort holds. Collection totals are sums over the
segments, so there is no manifest total to check.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data

from ..codecs.postings import (
    BLOCK_SIZE,
    _binary_bytes,
    _block_sizes,
    _flat_list,
    _offsets,
    _scan_block_offsets,
    unpack_postings_many,
)
from .manifest import POSTINGS_BUCKETS, bucket_of, part_path, read_manifest


def _layout_errors(batch: pa.Table) -> dict[int, str]:
    """Row -> why its streams are not one run of blocks for its df (and,
    with positions, for its ttf position deltas), from the batch's own
    columns; rows that are such a run are absent."""
    df, ttf = (batch.column(c).to_numpy() for c in ("df", "ttf"))
    nb = -(-df // BLOCK_SIZE)
    count, covered = {}, {}
    for s in ("docs", "freqs"):
        off, bb = _flat_list(batch.column(f"{s}_bb"))
        count[s] = np.diff(off)
        covered[s] = (np.diff(_offsets(bb)[off])
                      == np.diff(_binary_bytes(batch.column(s))[1]))
    pos, pos_off = _binary_bytes(batch.column("positions"))
    bad = ((df < 1) | (count["docs"] != nb) | (count["freqs"] != nb)
           | ~covered["docs"] | ~covered["freqs"])
    errors = {}
    for r in np.flatnonzero(bad | (np.diff(pos_off) > 0)).tolist():
        if df[r] < 1:
            errors[r] = f"df {df[r]}"
        elif not count["docs"][r] == count["freqs"][r] == nb[r]:
            errors[r] = (f"{count['docs'][r]} docs and {count['freqs'][r]} "
                         f"freqs block lengths for df {df[r]} "
                         f"({nb[r]} blocks)")
        elif bad[r]:
            errors[r] = "block lengths do not cover the docs/freqs streams"
        else:
            stream = pos[pos_off[r]:pos_off[r + 1]].tobytes()
            try:
                end = _scan_block_offsets(stream, _block_sizes(ttf[r]))[0][-1]
            except IndexError:  # the blocks' headers run past the stream
                end = -1
            if end != len(stream):
                errors[r] = (f"positions stream does not hold ttf {ttf[r]} "
                             "values")
    return errors


def _check_postings_batch(batch: pa.Table, min_doc: int, max_doc: int) -> pa.Table:
    bad = _layout_errors(batch)
    ok = np.ones(len(batch), bool)
    ok[list(bad)] = False
    # one decode of every row whose layout holds (df docs in each)
    decoded = iter(unpack_postings_many(batch.filter(ok)))
    ttf = batch.column("ttf").to_numpy()
    errors = []
    for r, term in enumerate(batch.column("term").to_pylist()):
        if r in bad:
            errors.append(f"{term}: {bad[r]}")
            continue
        docs, freqs = next(decoded)
        if (np.diff(docs) <= 0).any():
            errors.append(f"{term}: docs not strictly increasing")
        if docs[0] < min_doc or docs[-1] > max_doc:
            errors.append(f"{term}: docs outside segment range")
        if int(freqs.sum()) != ttf[r]:
            errors.append(f"{term}: ttf mismatch")
        if (freqs < 1).any():
            errors.append(f"{term}: freq < 1")
    return pa.table({"error": pa.array(errors, type=pa.string())})


def _check_parts(d: str, name: str) -> list[str]:
    """A bucketed dir (a segment's postings, a generation's term stats)
    has every part, each row in its term's part, terms strictly
    ascending."""
    errors = []
    for b in range(POSTINGS_BUCKETS):
        part = f"{name}/part-{b:05d}"
        if not os.path.isfile(part_path(d, b)):
            errors.append(f"{part}: missing part")
            continue
        col = pq.read_table(part_path(d, b), columns=["term"]).column("term")
        stray = int((bucket_of(col.to_pylist()) != b).sum())
        if stray:
            errors.append(f"{part}: {stray} terms of another part")
        if len(col) > 1 and not pc.all(pc.less(
                col.slice(0, len(col) - 1), col.slice(1))).as_py():
            errors.append(f"{part}: terms not strictly ascending")
    return errors


def validate_index(index_dir: str, generation: int | None = None) -> list[str]:
    """Returns a list of invariant violations (empty == healthy)."""
    m = read_manifest(index_dir, generation)
    errors: list[str] = []

    live: list[np.ndarray] = []  # per segment (in order): live docIDs
    segs = sorted(m.segments, key=lambda x: x.min_doc)
    for s in segs:
        seg_dir = os.path.join(index_dir, "segments", s.seg_id)
        d = pq.read_table(os.path.join(seg_dir, "docs.parquet"))
        doc_ids = d.column("doc_id").to_numpy()
        if len(doc_ids) != s.num_docs:
            errors.append(f"{s.seg_id}: docs table row count mismatch")
        if len(doc_ids) and (np.diff(doc_ids) <= 0).any():
            errors.append(f"{s.seg_id}: docs table not sorted/unique")
        if int(d.column("doc_len").to_numpy().sum()) != s.sum_doc_len:
            errors.append(f"{s.seg_id}: sum_doc_len mismatch")

        # live-docs file (tombstones): exists, sorted, in-range, count
        if s.del_gen >= 0:
            dp = os.path.join(seg_dir, f"deletes_gen{s.del_gen}.parquet")
            if not os.path.isfile(dp):
                errors.append(f"{s.seg_id}: missing deletes_gen{s.del_gen}")
            else:
                dels = pq.read_table(dp).column("doc_id").to_numpy()
                if len(dels) != s.del_count:
                    errors.append(f"{s.seg_id}: del_count mismatch")
                if len(dels) and (np.diff(dels) <= 0).any():
                    errors.append(f"{s.seg_id}: deletes not sorted/unique")
                if len(dels) and not np.isin(dels, doc_ids).all():
                    errors.append(f"{s.seg_id}: deleted docID not in segment")
                doc_ids = np.setdiff1d(doc_ids, dels)
        live.append(doc_ids)

        postings = os.path.join(seg_dir, "postings.parquet")
        errors.extend(_check_parts(postings, s.seg_id))
        ds = ray.data.read_parquet(postings)
        err_ds = ds.map_batches(
            _check_postings_batch, batch_format="pyarrow",
            fn_kwargs={"min_doc": s.min_doc, "max_doc": s.max_doc})
        errors.extend(r["error"] for r in err_ds.take_all())

    # docIDs are the caller's primary key: each is live in one segment
    ids = np.concatenate(live) if live else np.empty(0, np.int64)
    owner = np.repeat(np.arange(len(live)), [len(d) for d in live])
    order = np.argsort(ids, kind="stable")
    ids, owner = ids[order], owner[order]
    dup = np.nonzero((ids[1:] == ids[:-1])
                     & (owner[1:] != owner[:-1]))[0]
    pairs, first, count = np.unique(
        owner[dup] * len(segs) + owner[dup + 1],
        return_index=True, return_counts=True)
    for p, i, c in zip(pairs.tolist(), first.tolist(), count.tolist()):
        errors.append(f"doc {ids[dup[i]]} is live in both "
                      f"{segs[p // len(segs)].seg_id} and "
                      f"{segs[p % len(segs)].seg_id} ({c} such docs)")

    stats = f"term_stats_gen{m.generation}"
    errors.extend(_check_parts(os.path.join(index_dir, "global", stats),
                               stats))

    # index sort (CheckIndex.testSort role): when the index records a
    # sort, stored rows must actually be ordered by (field, orig id)
    # within and ACROSS segments in docID order
    from .sorted import read_index_sort
    srt = read_index_sort(index_dir)
    if srt is not None:
        field, asc = srt["field"], srt["ascending"]
        oid = f"orig_{srt['id_col']}"
        prev_key = None
        for s in sorted(m.segments, key=lambda x: x.min_doc):
            seg_dir = os.path.join(index_dir, "segments", s.seg_id)
            d = pq.read_table(os.path.join(seg_dir, "docs.parquet"),
                              columns=[field, oid])
            v = d.column(field).to_numpy()
            o = d.column(oid).to_numpy()
            if not asc:
                v = -v
            key_ok = (v[1:] > v[:-1]) | ((v[1:] == v[:-1])
                                         & (o[1:] > o[:-1]))
            if len(v) > 1 and not key_ok.all():
                errors.append(f"{s.seg_id}: violates recorded index "
                              f"sort on {field}")
            if prev_key is not None and len(v) and \
                    (v[0], o[0]) < prev_key:
                errors.append(f"{s.seg_id}: sort order breaks at "
                              "segment boundary")
            if len(v):
                prev_key = (v[-1], o[-1])
    return errors
