"""Golden layout: the bytes a fixed build + merge writes must not move.

A seeded 1,024-doc corpus is built at batch 256 (4 segments) and merged
with ``segs_per_tier=4`` (one merged segment). Each segment's postings,
built or merged, are read as one table (its parts concatenated and
sorted by term, so the digest does not depend on how terms are split
into parts) and hashed as Arrow IPC after ``combine_chunks()``. A code
change that alters any postings byte (packing, impacts, column layout,
term order) fails here; an intentional format change updates the
digests in the same change.

Recorded for format version 5, which dropped the ``doc_count``,
``chunk_doc_counts`` and ``chunk_occ_counts`` columns (a term is one
run of 128-doc blocks) and merges every group with the re-pack kernel.
The digests were re-recorded only after the built tables equalled
version 4's in every kept column and the merged table equalled version
4's ``merge_segments(..., repack=True)`` output without those columns.
"""

import hashlib
import os

import pyarrow as pa
import pyarrow.parquet as pq

GOLDEN_BUILT = {
    "seg-000000000000-000000000255-aaf0e58e3672":
        "44dc99a6e5e0f2a3aa54edd47b09a70d31be7b88d43dde73010b91892a9f25e1",
    "seg-000000000256-000000000511-f649429bccd4":
        "ef9756fbb8b2ce45c7c56e2bc2cc73c062e167609bde4f40e4e1f7b9249f89d8",
    "seg-000000000512-000000000767-adc371fcc655":
        "89f1e082bd9d34ca4099b017f0a892e5fb133cf275c4c069d8bcf77fcbb9c356",
    "seg-000000000768-000000001023-5e438ffd31f6":
        "0889943d92a2f7101b665478a166cddd1f87063b0949459579ddf24a0a85e394",
}
GOLDEN_MERGED = \
    "efa23cc3434ea6a98718198ab952d7a5118846c9d92555ad047168109e1a6f48"


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
