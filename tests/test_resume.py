"""Checkpoint/resume (FIXTURES.md F5): build with injected failure after
N shards; rerun skips completed shards and the final manifest matches an
uninterrupted build (modulo timestamps)."""

import json
import os

import pytest

from lucene_ray.index.manifest import latest_generation, read_manifest
from lucene_ray.index.resumable import build_index_resumable, plan_shards
from lucene_ray.search import IndexReader, Searcher, TermQuery


def test_plan_shards_deterministic(small_pages):
    _, paths = small_pages
    a = plan_shards(paths, 250)
    b = plan_shards(paths, 250)
    assert [(s.path, s.row_start, s.row_end, s.lineage) for s in a] == \
           [(s.path, s.row_start, s.row_end, s.lineage) for s in b]
    assert sum(s.row_end - s.row_start for s in a) == 2000


def test_resume_after_failure(ray_session, small_pages, tmp_path_factory):
    src_dir, paths = small_pages

    # uninterrupted reference build
    ref_dir = str(tmp_path_factory.mktemp("resume_ref"))
    ref = build_index_resumable(paths, ref_dir, rows_per_shard=250)
    assert latest_generation(ref_dir) == 0

    # interrupted build: only 5 of 8 shards complete, no manifest commit
    out = str(tmp_path_factory.mktemp("resume_out"))
    build_index_resumable(paths, out, rows_per_shard=250, fail_after_shards=5)
    assert latest_generation(out) == -1  # crash before two-phase commit
    seg_root = os.path.join(out, "segments")
    complete = [d for d in os.listdir(seg_root)
                if os.path.exists(os.path.join(seg_root, d, "_COMPLETE"))]
    assert len(complete) == 5

    # resume: rebuild only the remaining 3 shards
    m2 = build_index_resumable(paths, out, rows_per_shard=250)
    assert latest_generation(out) == 0
    complete_after = {d for d in os.listdir(seg_root)
                      if os.path.exists(os.path.join(seg_root, d, "_COMPLETE"))}
    assert complete_after >= set(complete)  # earlier shards untouched
    assert len(complete_after) == 8

    # manifest content identical to the uninterrupted build
    assert m2.num_docs == ref.num_docs
    assert m2.sum_doc_len == ref.sum_doc_len
    assert m2.field_doc_count == ref.field_doc_count
    assert [(s.lineage, s.num_docs, s.min_doc, s.max_doc, s.sum_doc_len)
            for s in m2.segments] == \
           [(s.lineage, s.num_docs, s.min_doc, s.max_doc, s.sum_doc_len)
            for s in ref.segments]

    # and search results identical
    s_ref = Searcher(IndexReader(ref_dir))
    s_res = Searcher(IndexReader(out))
    sr = s_res.reader.segment(m2.segments[0].seg_id)
    term = next(iter(sr.terms()))
    a = s_ref.search(TermQuery(term), k=30)
    b = s_res.search(TermQuery(term), k=30)
    assert a.doc_ids.tolist() == b.doc_ids.tolist()
    assert a.scores.tolist() == b.scores.tolist()


def test_resume_noop_when_complete(ray_session, small_pages, tmp_path_factory):
    _, paths = small_pages
    out = str(tmp_path_factory.mktemp("resume_noop"))
    m1 = build_index_resumable(paths, out, rows_per_shard=500)
    import time
    mtimes = {}
    seg_root = os.path.join(out, "segments")
    for d in os.listdir(seg_root):
        mtimes[d] = os.path.getmtime(os.path.join(seg_root, d, "_COMPLETE"))
    m2 = build_index_resumable(paths, out, rows_per_shard=500)
    for d in os.listdir(seg_root):
        assert os.path.getmtime(os.path.join(seg_root, d, "_COMPLETE")) == mtimes[d]
    assert m2.num_docs == m1.num_docs


def test_rerun_with_another_shard_size_reuses_no_shard(ray_session, tmp_path):
    """Shards planned with another ``rows_per_shard`` cover other rows: a
    re-run must build its own plan's shards, not list the old ones too."""
    from lucene_ray.index.validate import validate_index
    from lucene_ray.sources import write_pages
    paths = write_pages(str(tmp_path / "pages"), 1000, seed=5)
    out = str(tmp_path / "idx")
    assert len(build_index_resumable(paths, out,
                                     rows_per_shard=500).segments) == 2
    m = build_index_resumable(paths, out, rows_per_shard=250)
    assert len(m.segments) == 4
    assert m.num_docs == 1000
    assert validate_index(out) == []
