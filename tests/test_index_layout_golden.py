"""Golden layout: the bytes a fixed build + merge writes must not move.

A seeded 1,024-doc corpus is built at batch 256 (4 segments) and merged
with ``segs_per_tier=4`` (one merged segment). Each segment's postings,
built or merged, are read as one table (its parts concatenated and
sorted by term, so the digest does not depend on how terms are split
into parts) and hashed as Arrow IPC after ``combine_chunks()``. A code
change that alters any postings byte (packing, column layout,
term order) fails here; an intentional format change updates the
digests in the same change.

Recorded for format version 6, which dropped the ``block_last_docs``,
``imp_freqs``, ``imp_norms`` and ``imp_offsets`` columns (block score
bounds are derived from the decoded postings at read time). The
digests were re-recorded only after the built tables equalled version
5's in every kept column and the merged table equalled version 5's
without those four columns.
"""

import hashlib
import os

import pyarrow as pa
import pyarrow.parquet as pq

GOLDEN_BUILT = {
    "seg-000000000000-000000000255-aaf0e58e3672":
        "4f0e1737853fbadfa442da4793851aef794857b614b7f6ce9b1ee070681433ae",
    "seg-000000000256-000000000511-f649429bccd4":
        "916710c80749c78f256ea2d6381456bc768d3ec72559d2130d7b1b4fcf04d403",
    "seg-000000000512-000000000767-adc371fcc655":
        "97b008000a82b2b57f0d3cdf1d63bce0e034decb56225c26980bc3514d42c05f",
    "seg-000000000768-000000001023-5e438ffd31f6":
        "898307527c67392c4185c56fecebb57255c3774307167abf1b24b6b28a836054",
}
GOLDEN_MERGED = \
    "439beda821638ebe1278a893dd388d50027f6b4f36e61f0974b357746ac71565"


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
