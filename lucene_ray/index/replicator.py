"""Index replication — the ``lucene/replicator`` module analog
(``replicator/src/java/org/apache/lucene/replicator/LocalReplicator.
java``, ``IndexRevision.java``, ``http/ReplicationService`` +
``IndexReplicationHandler.java``; tests ``IndexReplicationClientTest.
java``).

A *revision* is the closed set of files one manifest generation
references (segment data, per-generation deletes / doc-value-update
overlays, the global stats directory, the manifest itself).
``replicate`` copies a revision into a replica directory the way the
reference's handler does: data files first, the manifest LAST via
tmp + atomic rename — a reader polling the replica either sees the old
complete generation or the new complete generation, never a torn one.
Segment files are immutable and content-addressed (the seg id embeds a
content hash), so presence + size is a sufficient change check and
re-replication copies only files the replica lacks (the reference's
delta session).

Scale note: copies stream file-by-file through ``shutil`` on local
paths; on a cluster the same revision/file-list protocol drives a
``pyarrow.fs`` copy per file, and per-file work is embarrassingly
parallel (one Ray task per file) — the manifest-last ordering is the
only sequencing constraint.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field

from .manifest import (
    POSTINGS_BUCKETS,
    IndexManifest,
    latest_generation,
    part_path,
    read_manifest,
)


@dataclass
class Revision:
    """A point-in-time, closed file set for one manifest generation."""
    generation: int
    manifest_file: str           # relative path of the manifest json
    files: list[str] = field(default_factory=list)  # relative, data only

    @property
    def all_files(self) -> list[str]:
        return [*self.files, self.manifest_file]


def _segment_files(index_dir: str, m: IndexManifest) -> list[str]:
    out = []
    for s in m.segments:
        seg_dir = f"segments/{s.seg_id}"
        postings = f"{seg_dir}/postings.parquet"
        for b in range(POSTINGS_BUCKETS):
            out.append(part_path(postings, b))
        out.append(f"{seg_dir}/docs.parquet")
        if s.del_gen >= 0:
            out.append(f"{seg_dir}/deletes_gen{s.del_gen}.parquet")
        if s.dvu_gen >= 0:
            out.append(f"{seg_dir}/dv_updates_gen{s.dvu_gen}.parquet")
        # auxiliary per-segment sidecars (doc values, term vectors...)
        # are content-addressed next to the postings; pick up whatever
        # exists that the lines above didn't enumerate, except other
        # generations' deletes / doc-value updates and unfinished writes
        abs_seg = os.path.join(index_dir, seg_dir)
        if os.path.isdir(abs_seg):
            for name in sorted(os.listdir(abs_seg)):
                rel = f"{seg_dir}/{name}"
                if rel not in out and rel != postings and not name.startswith(
                        ("pending_", "deletes_gen", "dv_updates_gen")):
                    out.append(rel)
    g = f"global/term_stats_gen{m.generation}"
    out.extend(part_path(g, b) for b in range(POSTINGS_BUCKETS))
    return out


def current_revision(index_dir: str,
                     generation: int | None = None) -> Revision:
    """Snapshot the file set of a generation (LocalReplicator.publish /
    IndexRevision.getSourceFiles role)."""
    gen = latest_generation(index_dir) if generation is None else generation
    m = read_manifest(index_dir, gen)
    return Revision(generation=gen,
                    manifest_file=f"manifest_{gen}.json",
                    files=_segment_files(index_dir, m))


def replicate(src_dir: str, dst_dir: str,
              generation: int | None = None) -> dict:
    """Pull one revision from ``src_dir`` into ``dst_dir``
    (ReplicationClient.updateNow + IndexReplicationHandler
    revisionReady): copy missing data files, then publish the manifest
    atomically. Returns {'generation', 'copied', 'skipped', 'bytes'}.
    Idempotent; a crash mid-copy leaves the replica on its previous
    complete generation."""
    rev = current_revision(src_dir, generation)
    os.makedirs(dst_dir, exist_ok=True)
    copied = skipped = nbytes = 0
    for rel in rev.files:
        s = os.path.join(src_dir, rel)
        d = os.path.join(dst_dir, rel)
        if os.path.exists(d) and os.path.getsize(d) == os.path.getsize(s):
            skipped += 1
            continue
        os.makedirs(os.path.dirname(d), exist_ok=True)
        tmp = d + ".rep_tmp"
        shutil.copyfile(s, tmp)
        os.replace(tmp, d)
        copied += 1
        nbytes += os.path.getsize(s)
    # manifest LAST: the atomic generation switch (segments_N publish)
    mf_src = os.path.join(src_dir, rev.manifest_file)
    mf_dst = os.path.join(dst_dir, rev.manifest_file)
    if not os.path.exists(mf_dst):
        tmp = mf_dst + ".rep_tmp"
        shutil.copyfile(mf_src, tmp)
        os.replace(tmp, mf_dst)
        copied += 1
        nbytes += os.path.getsize(mf_src)
    else:
        skipped += 1
    return {"generation": rev.generation, "copied": copied,
            "skipped": skipped, "bytes": nbytes}


def gc_replica(dst_dir: str) -> list[str]:
    """Drop replica files no generation references any more
    (IndexReplicationHandler.cleanupOldIndexFiles role). Keeps every
    file referenced by ANY manifest still present in the replica, so
    point-in-time readers on older generations stay valid until their
    manifest is removed."""
    keep: set[str] = set()
    gens = []
    for name in os.listdir(dst_dir):
        if name.startswith("manifest_") and name.endswith(".json"):
            gens.append(int(name[len("manifest_"):-len(".json")]))
    for g in gens:
        rev = current_revision(dst_dir, g)
        keep.update(rev.all_files)
    removed = []
    for root, _dirs, names in os.walk(dst_dir):
        for name in names:
            p = os.path.join(root, name)
            rel = os.path.relpath(p, dst_dir)
            if rel.replace(os.sep, "/") not in keep \
                    and not name.startswith("manifest_"):
                os.remove(p)
                removed.append(rel)
    return removed
