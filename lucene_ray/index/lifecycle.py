"""Index lifecycle APIs: NRT refresh, addIndexes, snapshot/rollback.

Reference roles:

* :class:`SearcherManager` — ``search/SearcherManager.java`` +
  ``index/DirectoryReader.openIfChanged``: hold a point-in-time
  searcher, swap it only when a newer manifest generation exists
  (near-real-time reopen; readers already pin a generation, so an open
  searcher is never affected by later commits).
* :func:`add_indexes` — ``IndexWriter.addIndexes(Directory...)``
  (``index/IndexWriter.java:2971``): graft every segment of the source
  indexes into the target as a NEW generation, without touching
  payload bytes (segment directories are immutable; only the manifest
  and the per-segment directory names move). Doc-id ranges must stay
  disjoint — docIDs are the caller's primary key here (same contract
  as create_or_append builds).
* :func:`snapshots` / :func:`rollback` — SnapshotDeletionPolicy /
  ``IndexWriter.rollback``: every committed generation remains on disk
  (manifests are never deleted by this engine), so any of them can be
  listed, opened read-only, or promoted back to the head by writing a
  NEW generation with the old segment set (history is append-only —
  a rollback is itself a commit, like the reference's two-phase
  semantics).
"""

from __future__ import annotations

import os
import shutil
from dataclasses import replace

from .builder import commit
from .manifest import (
    IndexManifest,
    SegmentInfo,
    latest_generation,
    new_stats_dir,
    read_manifest,
    write_manifest,
)


def _copy_segment(src_seg: str, dst_seg: str, copy: bool) -> None:
    """Copy a segment directory, or hard-link it file by file (so the
    target survives deletion or moves of the source index; a file that
    cannot be linked, e.g. across devices, is copied). A segment already
    in the target is left as it is."""
    if os.path.isdir(dst_seg):
        return

    def _link(a, b):
        try:
            os.link(a, b)
        except OSError:
            shutil.copy2(a, b)
    shutil.copytree(src_seg, dst_seg,
                    copy_function=shutil.copy2 if copy else _link)


class SearcherManager:
    """NRT reopen: ``acquire()`` returns the current Searcher;
    ``maybe_refresh()`` swaps in a new one iff a newer generation was
    committed. Old searchers stay valid (their generation's files are
    immutable)."""

    def __init__(self, index_dir: str, similarity: str = "lucene"):
        self.index_dir = index_dir
        self.similarity = similarity
        self._gen = latest_generation(index_dir)
        self._searcher = self._open(self._gen)

    def _open(self, gen: int):
        from ..search import IndexReader, Searcher
        return Searcher(IndexReader(self.index_dir, generation=gen),
                        similarity=self.similarity)

    @property
    def generation(self) -> int:
        return self._gen

    def acquire(self):
        return self._searcher

    def maybe_refresh(self) -> bool:
        """True iff a newer generation was opened (openIfChanged)."""
        gen = latest_generation(self.index_dir)
        if gen <= self._gen:
            return False
        self._searcher = self._open(gen)
        self._gen = gen
        return True


def add_indexes(target_dir: str, *source_dirs: str,
                copy: bool = True) -> IndexManifest:
    """Graft the source indexes' segments into ``target_dir`` as one
    new generation (IndexWriter.addIndexes). Segment payloads are
    copied directory-by-directory (or hard-linked when ``copy=False``
    and the filesystem allows); manifests merge; doc-id ranges of all
    participating segments must be pairwise disjoint."""
    tgt = read_manifest(target_dir)
    seen = [(s.min_doc, s.max_doc) for s in tgt.segments]
    new_segs: list[SegmentInfo] = list(tgt.segments)
    for src_dir in source_dirs:
        src = read_manifest(src_dir)
        if src.field != tgt.field:
            raise ValueError(
                f"field mismatch: {src.field!r} vs {tgt.field!r}")
        for s in src.segments:
            for lo, hi in seen:
                if not (s.max_doc < lo or s.min_doc > hi):
                    raise ValueError(
                        f"doc range [{s.min_doc},{s.max_doc}] of segment "
                        f"{s.seg_id} overlaps an existing segment")
            seen.append((s.min_doc, s.max_doc))
            _copy_segment(os.path.join(src_dir, "segments", s.seg_id),
                          os.path.join(target_dir, "segments", s.seg_id),
                          copy)
            new_segs.append(s)
    return commit(target_dir, IndexManifest(
        generation=tgt.generation + 1, field=tgt.field,
        stop_words=tgt.stop_words,
        segments=sorted(new_segs, key=lambda s: (s.min_doc, s.seg_id))))


def snapshots(index_dir: str) -> list[int]:
    """All committed generations, oldest first (SnapshotDeletionPolicy
    listing — this engine never deletes manifests, so every commit is
    a snapshot)."""
    gens = []
    for name in os.listdir(index_dir):
        if name.startswith("manifest_") and name.endswith(".json"):
            try:
                gens.append(int(name[len("manifest_"):-len(".json")]))
            except ValueError:
                pass
    return sorted(gens)


def rollback(index_dir: str, generation: int) -> IndexManifest:
    """Promote an older snapshot back to the head by committing a NEW
    generation with that snapshot's exact segment set (history stays
    append-only; nothing is deleted). Readers opened after this see
    the old state; readers pinned to intermediate generations keep
    working."""
    if generation not in snapshots(index_dir):
        raise ValueError(f"no committed generation {generation}")
    m = replace(read_manifest(index_dir, generation),
                generation=latest_generation(index_dir) + 1)
    return commit(index_dir, m, stats_of=generation)


def split_index(index_dir: str, out_dirs: list[str],
                pivots: list[int], *, copy: bool = False) -> list:
    """IndexSplitter / MultiPassIndexSplitter role
    (``lucene/misc/src/java/org/apache/lucene/misc/index/
    IndexSplitter.java``, ``MultiPassIndexSplitter.java``): partition
    the index into ``len(out_dirs)`` parts by docID pivot boundaries —
    part i holds docs in [pivots[i-1], pivots[i]) (implicit -inf/+inf
    ends). Whole segments inside a range are hard-linked untouched
    (IndexSplitter's segment-level fast path); boundary segments are
    linked then out-of-range docs are TOMBSTONED (exactly
    MultiPassIndexSplitter's fake-deletes trick — a later merge
    reclaims them). Per-part global stats keep counting tombstoned
    docs until a merge, the engine's documented delete semantics.

    Returns the per-part manifests."""
    if len(pivots) != len(out_dirs) - 1:
        raise ValueError("need len(out_dirs) - 1 pivots")
    if sorted(pivots) != list(pivots):
        raise ValueError("pivots must be ascending")
    from .deletes import apply_deletes

    src = read_manifest(index_dir)
    bounds = [float("-inf"), *pivots, float("inf")]
    out_manifests = []
    for i, out in enumerate(out_dirs):
        lo, hi = bounds[i], bounds[i + 1]  # part range [lo, hi)
        segs: list[SegmentInfo] = []
        per_seg_dels: dict[str, "np.ndarray"] = {}
        for s in src.segments:
            if s.max_doc < lo or s.min_doc >= hi:
                continue  # fully outside
            src_seg = os.path.join(index_dir, "segments", s.seg_id)
            _copy_segment(src_seg, os.path.join(out, "segments", s.seg_id),
                          copy)
            segs.append(s)
            if s.min_doc >= lo and s.max_doc < hi:
                continue  # fully inside: no fake deletes
            import pyarrow.parquet as _pq
            ids = _pq.read_table(
                os.path.join(src_seg, "docs.parquet"),
                columns=["doc_id"]).column("doc_id").to_numpy()
            import numpy as np
            bad = ids[(ids < lo) | (ids >= hi)]
            if len(bad):
                per_seg_dels[s.seg_id] = bad
        m = IndexManifest(
            generation=0, field=src.field, stop_words=src.stop_words,
            segments=sorted(segs, key=lambda s: (s.min_doc, s.seg_id)))
        os.makedirs(os.path.join(out, "segments"), exist_ok=True)
        # global stats ride along (stale re tombstones, as documented)
        shutil.copytree(os.path.join(index_dir, "global",
                                     f"term_stats_gen{src.generation}"),
                        new_stats_dir(out, 0))
        write_manifest(out, m)
        if per_seg_dels:
            m = apply_deletes(out, per_seg_dels)
        out_manifests.append(m)
    return out_manifests
