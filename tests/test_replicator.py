"""Replicator module analog: revision file sets, delta copy,
manifest-last atomic publish, replica reads equal source reads."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index import build_index
from lucene_ray.index.replicator import current_revision, gc_replica, replicate
from lucene_ray.search import IndexReader, Searcher, TermQuery


def _write_docs(path, start, n, seed):
    rng = np.random.default_rng(seed)
    vocab = ["data", "merge", "window", "spark", "block", "ray"]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(3, 9)))
             for _ in range(n)]
    pq.write_table(pa.table({
        "doc_id": pa.array(range(start, start + n), pa.int64()),
        "text": pa.array(texts)}), path)


@pytest.fixture(scope="module")
def src(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("repl")
    p1 = str(d / "part1.parquet")
    _write_docs(p1, 0, 300, seed=7)
    out = str(d / "src_idx")
    build_index(p1, out, batch_size=100)
    return str(d), out


def _topdocs(idx, term="data", k=10):
    s = Searcher(IndexReader(idx), similarity="bm25_exact64")
    td = s.search(TermQuery(term), k=k)
    return list(zip(td.doc_ids.tolist(), td.scores.tolist()))


def test_initial_replication_and_equality(src, tmp_path):
    _, src_idx = src
    dst = str(tmp_path / "replica")
    stats = replicate(src_idx, dst)
    assert stats["copied"] > 0 and stats["skipped"] == 0
    assert _topdocs(dst) == _topdocs(src_idx)
    # idempotent: second sync copies nothing
    stats2 = replicate(src_idx, dst)
    assert stats2["copied"] == 0 and stats2["skipped"] > 0


def test_incremental_replication_copies_only_new(src, tmp_path):
    d, src_idx = src
    dst = str(tmp_path / "replica2")
    replicate(src_idx, dst)
    old_seg_files = {os.path.join(r, f)
                     for r, _, fs in os.walk(os.path.join(dst, "segments"))
                     for f in fs}
    mtimes = {p: os.path.getmtime(p) for p in old_seg_files}
    # append a second batch -> new generation on the source
    p2 = os.path.join(d, "part2.parquet")
    _write_docs(p2, 1000, 200, seed=11)
    build_index(p2, src_idx, batch_size=100, mode="create_or_append")
    stats = replicate(src_idx, dst)
    assert stats["generation"] > 0
    assert stats["copied"] > 0            # the new segments + manifest
    # delta session: every pre-existing segment file is untouched
    for p, t in mtimes.items():
        assert os.path.getmtime(p) == t, p
    assert stats["skipped"] >= len(old_seg_files)
    assert _topdocs(dst) == _topdocs(src_idx)


def test_manifest_last_crash_safety(src, tmp_path):
    _, src_idx = src
    dst = str(tmp_path / "replica3")
    # simulate a crash: copy data files but never the manifest
    rev = current_revision(src_idx)
    for rel in rev.files[:2]:
        s, t = os.path.join(src_idx, rel), os.path.join(dst, rel)
        os.makedirs(os.path.dirname(t), exist_ok=True)
        import shutil
        shutil.copyfile(s, t)
    with pytest.raises(FileNotFoundError):
        IndexReader(dst)  # no manifest -> no readable generation
    # recovery: a full replicate completes the revision
    replicate(src_idx, dst)
    assert _topdocs(dst) == _topdocs(src_idx)


def test_gc_drops_unreferenced(src, tmp_path):
    _, src_idx = src
    dst = str(tmp_path / "replica4")
    replicate(src_idx, dst)
    junk = os.path.join(dst, "segments", "stale-file.parquet")
    open(junk, "wb").write(b"x")
    removed = gc_replica(dst)
    assert "segments/stale-file.parquet" in [r.replace(os.sep, "/")
                                             for r in removed]
    assert not os.path.exists(junk)
    assert _topdocs(dst) == _topdocs(src_idx)


def test_replicate_merged_index_with_deletes(ray_session, tmp_path):
    """A segment's postings.parquet is a directory of term-hash parts:
    the revision lists every part file, so the replica
    of a merged, tombstoned index validates and ranks like the source."""
    from lucene_ray.index.deletes import apply_deletes
    from lucene_ray.index.merge import merge_segments
    from lucene_ray.index.validate import validate_index
    from lucene_ray.search import or_query
    from lucene_ray.sources import write_pages

    paths = write_pages(str(tmp_path / "pages"), 600, seed=3)
    src_idx = str(tmp_path / "src_idx")
    build_index(paths, src_idx, batch_size=200)
    merge_segments(src_idx, segs_per_tier=4)
    seg = IndexReader(src_idx).segment_infos[0]
    apply_deletes(src_idx, {seg.seg_id: np.arange(seg.min_doc,
                                                  seg.min_doc + 60, 7)})
    dst = str(tmp_path / "replica")
    stats = replicate(src_idx, dst)
    assert stats["generation"] == 2
    assert validate_index(dst) == []

    reader = IndexReader(src_idx)
    assert reader.segment_infos[0].seg_id.startswith("merged-")
    by_df = sorted(reader.all_term_stats().items(), key=lambda kv: -kv[1][0])
    terms = [t for t, _ in by_df[:3] + by_df[200:202]]
    queries = [TermQuery(t) for t in terms] + [or_query(terms[2:])]
    src_s, dst_s = Searcher(reader), Searcher(IndexReader(dst))
    for q in queries:
        want, got = src_s.search(q, k=10), dst_s.search(q, k=10)
        assert len(want.doc_ids) == 10
        np.testing.assert_array_equal(got.doc_ids, want.doc_ids)
        np.testing.assert_array_equal(got.scores.astype(np.float32),
                                      want.scores.astype(np.float32))


def test_revision_lists_only_its_generations_deletes(ray_session, tmp_path):
    """Each generation's revision names the deletes file its manifest
    points at and no later generation's."""
    from lucene_ray.index.deletes import apply_deletes
    p = str(tmp_path / "part.parquet")
    _write_docs(p, 0, 100, seed=5)
    idx = str(tmp_path / "idx")
    build_index(p, idx, batch_size=100)
    seg = IndexReader(idx).segment_infos[0].seg_id
    apply_deletes(idx, {seg: np.array([3])})
    apply_deletes(idx, {seg: np.array([5])})

    def deletes_files(gen):
        return [f for f in current_revision(idx, gen).files
                if "deletes_gen" in f]

    assert deletes_files(0) == []
    assert deletes_files(1) == [f"segments/{seg}/deletes_gen1.parquet"]
    assert deletes_files(2) == [f"segments/{seg}/deletes_gen2.parquet"]
    dst = str(tmp_path / "replica")
    replicate(idx, dst, generation=1)
    copied = sorted(
        os.path.relpath(os.path.join(root, name), dst).replace(os.sep, "/")
        for root, _, names in os.walk(os.path.join(dst, "segments", seg))
        for name in names)
    assert copied == sorted(f for f in current_revision(idx, 1).files
                            if f.startswith(f"segments/{seg}/"))
