"""Index manifest: generation-numbered, atomically-written checkpoint.

Plays the role of the reference's ``segments_N`` two-phase commit
(``index/SegmentInfos.java:55-64,132-134``, ``IndexWriter.java:4020``):
write ``pending_manifest_N.json``, fsync, atomic rename to
``manifest_N.json``; readers open the highest complete generation.
Each segment entry records its input lineage (source file/row-range or
doc range + row count) so an interrupted build can skip finished
segments on resume.

The manifest names the on-disk format (``format_version``). Every index
is rebuilt from its data, so a reader knows exactly one format and
refuses any other, the way the reference refuses a codec version it
does not know (``CodecUtil.checkHeader``) instead of guessing.
"""

from __future__ import annotations

import json
import os
import shutil
import zlib
from dataclasses import asdict, dataclass, field

import numpy as np

# Version 6: every segment's postings are POSTINGS_BUCKETS term-sorted
# parts, postings.parquet/part-NNNNN.parquet, a term in part
# bucket_of(term), with no sidecar files and no Parquet column
# statistics: readers find a term through the term dictionary they
# build from the part's term column. Every committed generation N has
# global/term_stats_gen{N}, the same POSTINGS_BUCKETS parts of (term,
# df, ttf), also without statistics. A row is one run of 128-doc
# blocks, built or merged: its block layout follows from df (and its
# positions' from ttf), and it carries pack-time block byte lengths
# (docs_bb/freqs_bb) but no per-chunk counts, block last docs or
# impacts: nothing on disk bounds a score; readers order a term's
# scores from its decoded postings and the segment's norms. The manifest stores no collection totals:
# num_docs, sum_doc_len and field_doc_count are sums over its segments.
FORMAT_VERSION = 6

# Parts per postings or term-stats directory: a format constant, so no
# file count depends on the cluster that wrote it, and a merge reads
# part b of each source segment to write part b.
POSTINGS_BUCKETS = 8


def bucket_of(terms) -> np.ndarray:
    """The part (int64) of each term: ``crc32(utf-8) % POSTINGS_BUCKETS``."""
    h = np.fromiter((zlib.crc32(t.encode()) for t in terms), np.int64,
                    len(terms))
    return h % POSTINGS_BUCKETS


def part_path(bucketed_dir: str, b: int) -> str:
    return os.path.join(bucketed_dir, f"part-{b:05d}.parquet")


@dataclass
class SegmentInfo:
    seg_id: str
    num_docs: int  # maxDoc-like: all docs in the segment incl. tombstoned
    min_doc: int
    max_doc: int
    sum_doc_len: int
    num_terms: int
    lineage: str = ""  # input provenance (file/row-range fingerprint)
    field_doc_count: int = 0  # docs with >=1 term (CollectionStatistics.docCount)
    # live-docs generation (Lucene90LiveDocsFormat analog): deletes live
    # in segments/<id>/deletes_gen<del_gen>.parquet; -1 = none
    del_gen: int = -1
    del_count: int = 0
    # numeric doc-values update generation (the .dvd-gen analog,
    # IndexWriter.updateNumericDocValue): overlay rows live in
    # segments/<id>/dv_updates_gen<dvu_gen>.parquet; -1 = none
    dvu_gen: int = -1

    @classmethod
    def from_row(cls, row) -> "SegmentInfo":
        """A new segment's entry from its build metadata row: a build
        stage's output row, or a resumable build's ``lineage.json``."""
        return cls(seg_id=row["seg_id"], lineage=row["lineage"],
                   **{k: int(row[k]) for k in (
                       "num_docs", "min_doc", "max_doc", "sum_doc_len",
                       "num_terms", "field_doc_count")})


@dataclass
class IndexManifest:
    """One committed generation. Collection totals are not stored: like
    ``IndexSearcher.collectionStatistics`` they are summed over the
    segments, so no writer can commit totals that disagree with them."""
    generation: int
    field: str
    stop_words: list[str]
    segments: list[SegmentInfo] = field(default_factory=list)
    format_version: int = FORMAT_VERSION

    @property
    def num_docs(self) -> int:
        return sum(s.num_docs for s in self.segments)

    @property
    def sum_doc_len(self) -> int:
        return sum(s.sum_doc_len for s in self.segments)

    @property
    def field_doc_count(self) -> int:
        return sum(s.field_doc_count for s in self.segments)

    @property
    def num_deleted(self) -> int:
        return sum(s.del_count for s in self.segments)

    def to_json(self) -> str:
        d = asdict(self)
        return json.dumps(d, indent=1, sort_keys=True)


def write_manifest(index_dir: str, m: IndexManifest) -> str:
    """Two-phase commit: pending file + fsync + atomic rename."""
    os.makedirs(index_dir, exist_ok=True)
    pending = os.path.join(index_dir, f"pending_manifest_{m.generation}.json")
    final = os.path.join(index_dir, f"manifest_{m.generation}.json")
    with open(pending, "w") as f:
        f.write(m.to_json())
        f.flush()
        os.fsync(f.fileno())
    os.rename(pending, final)
    return final


def new_stats_dir(index_dir: str, generation: int) -> str:
    """Path of ``global/term_stats_gen{generation}``, cleared for a commit
    about to write it. A commit writes its stats before its manifest, so
    one left there by a commit that crashed in between belongs to no
    generation: it may hold another segment set's sums, or be a link to
    an earlier generation's directory that writing through would corrupt."""
    path = os.path.join(index_dir, "global", f"term_stats_gen{generation}")
    if os.path.islink(path):
        os.unlink(path)
    elif os.path.isdir(path):
        shutil.rmtree(path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def latest_generation(index_dir: str) -> int:
    gens = []
    if not os.path.isdir(index_dir):
        return -1
    for name in os.listdir(index_dir):
        if name.startswith("manifest_") and name.endswith(".json"):
            try:
                gens.append(int(name[len("manifest_"):-len(".json")]))
            except ValueError:
                pass
    return max(gens) if gens else -1


def read_manifest(index_dir: str, generation: int | None = None) -> IndexManifest:
    gen = latest_generation(index_dir) if generation is None else generation
    if gen < 0:
        raise FileNotFoundError(f"no manifest in {index_dir}")
    with open(os.path.join(index_dir, f"manifest_{gen}.json")) as f:
        d = json.load(f)
    if d.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"{index_dir} generation {gen}: index format version "
            f"{d.get('format_version')} is not {FORMAT_VERSION}; "
            "rebuild the index from its data")
    d["segments"] = [SegmentInfo(**x) for x in d["segments"]]
    return IndexManifest(**d)
