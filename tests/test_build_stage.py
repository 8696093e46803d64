"""build_index's task-compute stage writes the same segments as calling
SegmentIndexer directly, one batch at a time, in doc order."""

import os

import pyarrow.parquet as pq
import pytest

from lucene_ray.index import SegmentIndexer, build_index
from lucene_ray.sources import write_pages

BATCH = 300


@pytest.fixture(scope="module")
def pages(tmp_path_factory):
    d = tmp_path_factory.mktemp("build_stage_pages")
    return write_pages(str(d), 1200, seed=5, n_terms=1500)


def _files(index_dir, seg_id):
    return os.path.join(index_dir, "segments", seg_id)


@pytest.mark.parametrize("positions", [False, True])
def test_build_matches_direct_segment_indexer(ray_session, pages, tmp_path,
                                              positions):
    ref = str(tmp_path / "ref")
    si = SegmentIndexer(out_dir=ref, text_col="text", id_col="doc_id",
                        stored_cols=(), stop_words=frozenset(),
                        index_positions=positions)
    table = pq.read_table(pages[0], columns=["doc_id", "text"])
    ref_ids = [si(table.slice(i, BATCH)).column("seg_id")[0].as_py()
               for i in range(0, len(table), BATCH)]
    assert len(ref_ids) == 4
    for conc in (None, 2):
        out = str(tmp_path / f"built_{conc}")
        m = build_index(pages, out, batch_size=BATCH, concurrency=conc,
                        index_positions=positions)
        assert [s.seg_id for s in m.segments] == ref_ids
        for sid in ref_ids:
            for name in ("postings.parquet", "docs.parquet"):
                got = pq.read_table(os.path.join(_files(out, sid), name))
                want = pq.read_table(os.path.join(_files(ref, sid), name))
                assert got.equals(want), (conc, sid, name)
            if positions:
                assert pq.read_table(os.path.join(
                    _files(out, sid), "postings.parquet"),
                    columns=["positions"]).column(0)[0].as_py()
            with open(os.path.join(_files(out, sid), "postings.termset"),
                      "rb") as a, open(os.path.join(
                          _files(ref, sid), "postings.termset"), "rb") as b:
                assert a.read() == b.read()
