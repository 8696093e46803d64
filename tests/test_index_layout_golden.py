"""Golden layout: the bytes a fixed build + merge writes must not move.

A seeded 1,024-doc corpus is built at batch 256 (4 segments) and merged
with ``segs_per_tier=4`` (one merged segment). Each segment's postings,
built or merged, are read as one table (its parts concatenated and
sorted by term, so the digest does not depend on how terms are split
into parts) and hashed as Arrow IPC after ``combine_chunks()``. A code change that alters any
postings byte (packing, impacts, column layout, term order) fails here;
an intentional format change updates the digests in the same change.
"""

import hashlib
import os

import pyarrow as pa
import pyarrow.parquet as pq

GOLDEN_BUILT = {
    "seg-000000000000-000000000255-aaf0e58e3672":
        "97262bd7f2f2c8eaaa9dbc8a1558ef44ea709659f5c11be46f090444e086f9d7",
    "seg-000000000256-000000000511-f649429bccd4":
        "ed5dfb62b506efdd5888ea017712ad8ee134ad2b41fce5a37bf7a2135af84f21",
    "seg-000000000512-000000000767-adc371fcc655":
        "ea4a53ab37ac33d402db998ae450b9ff127ae599dbe24ad9846928091f85f368",
    "seg-000000000768-000000001023-5e438ffd31f6":
        "4f0db38530f9cb136af1dc236349e510c1db0fd4752ecf570897a5b8f2771dc6",
}
GOLDEN_MERGED = \
    "355d1980b5c2f577d230ed966304765624327664f00a219633a67020545d6306"


def _digest(table: pa.Table) -> str:
    sink = pa.BufferOutputStream()
    table = table.combine_chunks()
    with pa.ipc.new_stream(sink, table.schema) as w:
        w.write_table(table)
    return hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()


def _postings(seg_dir: str) -> pa.Table:
    return pq.read_table(os.path.join(seg_dir, "postings.parquet")) \
        .sort_by("term")


def _layout_digests(corpus_dir: str, index_dir: str):
    from lucene_ray.index import build_index
    from lucene_ray.index.merge import merge_segments
    from lucene_ray.sources import write_pages
    paths = write_pages(corpus_dir, 1024, seed=20261018, n_terms=3000)
    built = build_index(paths, index_dir, batch_size=256)
    seg_root = os.path.join(index_dir, "segments")
    digests = {s.seg_id: _digest(_postings(os.path.join(seg_root, s.seg_id)))
               for s in built.segments}
    merged = merge_segments(index_dir, segs_per_tier=4)
    (seg,) = merged.segments
    return digests, _digest(_postings(os.path.join(seg_root, seg.seg_id)))


def test_postings_layout_is_golden(ray_session, tmp_path):
    built, merged = _layout_digests(str(tmp_path / "corpus"),
                                    str(tmp_path / "index"))
    assert built == GOLDEN_BUILT
    assert merged == GOLDEN_MERGED
