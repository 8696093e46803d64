"""One on-disk format: the manifest names its version and readers refuse
any other; every writer commits a generation together with its global
term stats, and ``validate_index`` reports a missing or unordered part."""

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index import build_index
from lucene_ray.index.deletes import apply_deletes
from lucene_ray.index.dv_updates import update_numeric_dv
from lucene_ray.index.lifecycle import (
    add_indexes,
    rollback,
    snapshots,
    split_index,
)
from lucene_ray.index.builder import write_postings_part
from lucene_ray.index.manifest import (
    FORMAT_VERSION,
    POSTINGS_BUCKETS,
    part_path,
    read_manifest,
)
from lucene_ray.index.merge import merge_segments
from lucene_ray.index.validate import validate_index
from lucene_ray.search import IndexReader, Searcher, TermQuery, or_query

_VOCAB = [f"w{i:02d}" for i in range(40)]


def _write_docs(path, start, n, seed):
    rng = np.random.default_rng(seed)
    p = 1.0 / np.arange(1, len(_VOCAB) + 1)
    texts = [" ".join(rng.choice(_VOCAB, size=rng.integers(3, 12),
                                 p=p / p.sum()))
             for _ in range(n)]
    pq.write_table(pa.table({
        "doc_id": pa.array(range(start, start + n), pa.int64()),
        "text": pa.array(texts),
        "year": pa.array(rng.integers(1990, 2020, n), pa.int64())}), path)
    return path


def _build(tmp_path, name, start, n, seed, batch_size):
    src = _write_docs(str(tmp_path / f"{name}.parquet"), start, n, seed)
    out = str(tmp_path / name)
    build_index(src, out, batch_size=batch_size, stored_cols=("year",))
    return out


def _stats_dir(idx, gen):
    return os.path.join(idx, "global", f"term_stats_gen{gen}")


def _postings_dir(idx, seg_id):
    return os.path.join(idx, "segments", seg_id, "postings.parquet")


def _segment_sums(reader):
    """(df, ttf) summed over the generation's segment postings — what a
    reader computed for a generation that had no global stats."""
    out: dict[str, tuple[int, int]] = {}
    for sr in reader.segments():
        for b in range(POSTINGS_BUCKETS):
            t = pq.read_table(part_path(sr._postings_dir, b),
                              columns=["term", "df", "ttf"])
            for term, df, ttf in zip(*(t.column(c).to_pylist()
                                       for c in ("term", "df", "ttf"))):
                d0, f0 = out.get(term, (0, 0))
                out[term] = (d0 + df, f0 + ttf)
    return out


def _top10(reader, queries):
    s = Searcher(reader)
    return [(td.doc_ids.tolist(), td.scores.astype(np.float32).tolist())
            for td in (s.search(q, k=10) for q in queries)]


@pytest.mark.parametrize("version", [None, FORMAT_VERSION + 1])
def test_unknown_format_version_is_refused(ray_session, tmp_path, version):
    idx = _build(tmp_path, "idx", 0, 120, seed=1, batch_size=40)
    assert read_manifest(idx).format_version == FORMAT_VERSION
    mf = os.path.join(idx, "manifest_0.json")
    with open(mf) as f:
        d = json.load(f)
    if version is None:
        del d["format_version"]
    else:
        d["format_version"] = version
    with open(mf, "w") as f:
        json.dump(d, f)
    with pytest.raises(ValueError, match="rebuild"):
        IndexReader(idx)
    with pytest.raises(ValueError, match="rebuild"):
        merge_segments(idx, segs_per_tier=4)


def test_validate_reports_missing_sidecars(ray_session, tmp_path):
    """A segment's live-docs file and a generation's stats part are the
    files beside the postings parts; each missing one is one error."""
    idx = _build(tmp_path, "idx", 0, 300, seed=2, batch_size=60)
    merge_segments(idx, segs_per_tier=3)
    seg = next(s for s in read_manifest(idx).segments
               if s.seg_id.startswith("merged-"))
    apply_deletes(idx, {seg.seg_id: np.array([seg.min_doc])})
    assert validate_index(idx) == []
    gen = read_manifest(idx).generation
    os.remove(os.path.join(idx, "segments", seg.seg_id,
                           f"deletes_gen{gen}.parquet"))
    errs = validate_index(idx)
    assert errs == [f"{seg.seg_id}: missing deletes_gen{gen}"], errs
    os.remove(part_path(_stats_dir(idx, gen), 3))
    errs = validate_index(idx)
    assert errs[1:] == [f"term_stats_gen{gen}/part-00003: missing part"], errs


@pytest.mark.parametrize("fault", ["duplicate", "out_of_order"])
def test_validate_reports_unordered_terms_once(ray_session, tmp_path, fault):
    """The readers' term dictionaries bisect on each part's term order,
    so a part whose terms are not strictly ascending is one error."""
    idx = _build(tmp_path, "idx", 0, 300, seed=2, batch_size=60)
    seg = read_manifest(idx).segments[0].seg_id
    d = _postings_dir(idx, seg)
    b = max(range(POSTINGS_BUCKETS),
            key=lambda i: pq.read_metadata(part_path(d, i)).num_rows)
    t = pq.read_table(part_path(d, b))
    rows = list(range(len(t)))
    if fault == "duplicate":
        rows.insert(1, 1)
    else:
        rows[1], rows[2] = rows[2], rows[1]
    write_postings_part(d, b, t.take(rows))
    assert validate_index(idx) == [
        f"{seg}/part-{b:05d}: terms not strictly ascending"]


@pytest.mark.parametrize("fault", ["docs_bb", "positions"])
def test_validate_reports_a_bad_row_layout_once(ray_session, tmp_path,
                                                fault):
    """A postings row is one run of ceil(df/128) blocks, and with
    positions indexed its positions stream holds ttf values: one row
    with a block length too many, or a truncated positions stream, is
    one error naming its term."""
    src = _write_docs(str(tmp_path / "docs.parquet"), 0, 300, seed=2)
    idx = str(tmp_path / "idx")
    build_index(src, idx, batch_size=60, index_positions=True)
    assert validate_index(idx) == []
    seg = read_manifest(idx).segments[0].seg_id
    d = _postings_dir(idx, seg)
    b = max(range(POSTINGS_BUCKETS),
            key=lambda i: pq.read_metadata(part_path(d, i)).num_rows)
    t = pq.read_table(part_path(d, b))
    col = t.column(fault).to_pylist()
    if fault == "docs_bb":
        col[0] = col[0] + col[0][-1:]
    else:
        col[0] = col[0][:-1]
    i = t.schema.get_field_index(fault)
    t = t.set_column(i, t.schema.field(i),
                     pa.array(col, t.schema.field(i).type))
    write_postings_part(d, b, t)
    term, df, ttf = (t.column(c)[0].as_py() for c in ("term", "df", "ttf"))
    want = (f"2 docs and 1 freqs block lengths for df {df} (1 blocks)"
            if fault == "docs_bb"
            else f"positions stream does not hold ttf {ttf} values")
    assert validate_index(idx) == [f"{term}: {want}"]


def test_validate_reports_a_missing_part_once(ray_session, tmp_path):
    idx = _build(tmp_path, "idx", 0, 300, seed=2, batch_size=60)
    seg = read_manifest(idx).segments[1].seg_id
    os.remove(part_path(_postings_dir(idx, seg), 5))
    assert validate_index(idx) == [f"{seg}/part-00005: missing part"]


def test_validate_reports_a_row_in_the_wrong_part_once(ray_session,
                                                       tmp_path):
    """A row written into another part than its term's: no reader finds
    the term, and validation says so once."""
    idx = _build(tmp_path, "idx", 0, 300, seed=2, batch_size=60)
    seg = read_manifest(idx).segments[0].seg_id
    d = _postings_dir(idx, seg)
    src = next(b for b in range(POSTINGS_BUCKETS)
               if pq.read_metadata(part_path(d, b)).num_rows)
    dst = (src + 1) % POSTINGS_BUCKETS
    a, b = (pq.read_table(part_path(d, i)) for i in (src, dst))
    term = a.column("term")[0].as_py()
    write_postings_part(d, src, a.slice(1))
    write_postings_part(d, dst, pa.concat_tables([b, a.slice(0, 1)])
                        .sort_by("term"))
    assert IndexReader(idx).segment(seg).get_decoded(term) is None
    assert validate_index(idx) == [
        f"{seg}/part-{dst:05d}: 1 terms of another part"]


def test_every_writer_commits_term_stats(ray_session, tmp_path):
    a = _build(tmp_path, "a", 0, 300, seed=3, batch_size=60)
    b = _build(tmp_path, "b", 1000, 200, seed=4, batch_size=100)
    merge_segments(a, segs_per_tier=3)                        # gen 1
    seg = read_manifest(a).segments[0]
    apply_deletes(a, {seg.seg_id: np.arange(seg.min_doc,
                                            seg.min_doc + 40, 3)})  # gen 2
    update_numeric_dv(a, "year", {5: 1900, 250: 2100})        # gen 3
    queries = ([TermQuery(t) for t in ("w00", "w05", "w17", "w33")]
               + [or_query(["w02", "w11", "w29"])])

    added = add_indexes(a, b)                                 # gen 4
    r = IndexReader(a)
    assert r.manifest.generation == added.generation == 4
    assert r.all_term_stats() == _segment_sums(r)
    fallback = IndexReader(a)
    fallback.term_stats = lambda terms, s=_segment_sums(fallback): {
        t: s.get(t, (0, 0)) for t in terms}
    assert _top10(r, queries) == _top10(fallback, queries)

    rolled = rollback(a, 1)                                   # gen 5
    r = IndexReader(a)
    assert r.manifest.generation == rolled.generation == 5
    assert r.all_term_stats() == _segment_sums(r)
    assert _top10(r, queries) == _top10(IndexReader(a, generation=1),
                                        queries)
    assert r.manifest.segments == read_manifest(a, 1).segments

    parts = [str(tmp_path / "s0"), str(tmp_path / "s1")]
    split_index(a, parts, [150])
    for idx in (a, *parts):
        for gen in snapshots(idx):
            assert all(os.path.isfile(part_path(_stats_dir(idx, gen), b))
                       for b in range(POSTINGS_BUCKETS)), (idx, gen)
            assert validate_index(idx, gen) == [], (idx, gen)



def test_leftover_stats_of_an_uncommitted_generation_are_replaced(
        ray_session, tmp_path):
    """A commit writes its stats before its manifest, so a crash between
    the two leaves ``term_stats_gen{N+1}`` with no ``manifest_{N+1}``; the
    next commit of N+1 must replace it, not trust it or write through it."""
    a = _build(tmp_path, "a", 0, 300, seed=5, batch_size=100)
    b = _build(tmp_path, "b", 1000, 200, seed=6, batch_size=100)
    stats = os.path.join(a, "global")
    gen0 = IndexReader(a).all_term_stats()

    # a link to gen 0 (crash after _link_stats): writing gen 1's own stats
    # through it would overwrite gen 0's
    os.symlink(os.path.join(stats, "term_stats_gen0"),
               os.path.join(stats, "term_stats_gen1"))
    add_indexes(a, b)                                         # gen 1
    assert not os.path.islink(os.path.join(stats, "term_stats_gen1"))
    assert IndexReader(a, generation=0).all_term_stats() == gen0
    r = IndexReader(a)
    assert r.all_term_stats() == _segment_sums(r) != gen0

    # a directory holding another segment set's sums (crash after a
    # reclaiming merge or add_indexes): a delete-only commit links gen 1's
    shutil.copytree(os.path.join(b, "global", "term_stats_gen0"),
                    os.path.join(stats, "term_stats_gen2"))
    seg = read_manifest(a).segments[0]
    apply_deletes(a, {seg.seg_id: np.array([seg.min_doc])})  # gen 2
    assert IndexReader(a).all_term_stats() == r.all_term_stats()
    assert validate_index(a) == []
