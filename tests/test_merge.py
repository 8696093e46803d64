"""Segment merge: results identical pre/post merge (FIXTURES.md F4b),
index invariants hold (CheckIndex pattern), and the merge's re-pack
kernel (clean groups, tombstones, overlapping segments, positions,
registered formats) equal to a fresh pack of the same postings."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.codecs.postings import pack_postings_many
from lucene_ray.index import build_index
from lucene_ray.index import merge as merge_mod
from lucene_ray.index.deletes import delete_by_query
from lucene_ray.index.merge import merge_segments, plan_merges
from lucene_ray.index.validate import validate_index
from lucene_ray.search import (
    IndexReader,
    PhraseQuery,
    Searcher,
    TermQuery,
    and_query,
    or_query,
)


@pytest.fixture(scope="module")
def merged_setup(ray_session, small_pages, tmp_path_factory):
    src_dir, paths = small_pages
    out = str(tmp_path_factory.mktemp("idx_for_merge"))
    m = build_index(paths, out, batch_size=250)  # 8 segments
    assert len(m.segments) >= 4
    return out, m


def _snapshot(searcher, queries, k=50):
    out = []
    for q in queries:
        td = searcher.search(q, k=k)
        out.append((td.doc_ids.tolist(), td.scores.tolist()))
    return out


def _queries(reader):
    # pick real terms from the index
    sr = reader.segment(reader.segment_infos[0].seg_id)
    terms = list(sr.terms())[:40]
    hot = max(terms, key=lambda t: sr.df(t))
    t2 = terms[len(terms) // 2]
    t3 = terms[-1]
    return [TermQuery(hot), and_query([hot, t2]), or_query([hot, t2, t3])]


def test_merge_preserves_results(merged_setup):
    out, m0 = merged_setup
    r0 = IndexReader(out)
    qs = _queries(r0)
    before = _snapshot(Searcher(r0), qs)

    m1 = merge_segments(out, segs_per_tier=4)
    assert m1.generation == m0.generation + 1
    assert len(m1.segments) < len(m0.segments)
    after = _snapshot(Searcher(IndexReader(out)), qs)
    assert before == after

    errs = validate_index(out)
    assert errs == []


def test_merge_repack_equivalent(merged_setup, tmp_path_factory):
    out, _ = merged_setup
    r = IndexReader(out, generation=0)
    qs = _queries(r)
    base = _snapshot(Searcher(r), qs)

    import shutil, os
    out3 = str(tmp_path_factory.mktemp("idx_repack"))
    shutil.copytree(out, out3, dirs_exist_ok=True)
    for f in os.listdir(out3):
        if f.startswith("manifest_") and f != "manifest_0.json":
            os.remove(os.path.join(out3, f))
    m = merge_segments(out3, segs_per_tier=100)  # forceMerge(1)
    assert len(m.segments) == 1
    # full 128-blocking: one run of blocks per term
    rr = IndexReader(out3)
    sr = rr.segment(m.segments[0].seg_id)
    some_term = next(iter(sr.terms()))
    row = pq.read_table(sr._postings_dir, columns=["df", "docs_bb"],
                        filters=[("term", "==", some_term)])
    df = row.column("df")[0].as_py()
    assert len(row.column("docs_bb")[0]) == -(-df // 128)
    after = _snapshot(Searcher(rr), qs)
    assert base == after
    assert validate_index(out3) == []


def test_plan_merges_tiers():
    from lucene_ray.index.manifest import SegmentInfo
    segs = [SegmentInfo(f"s{i}", 100, i * 100, i * 100 + 99, 1000, 50)
            for i in range(25)]
    groups = plan_merges(segs, segs_per_tier=10, max_merged_docs=10**9)
    assert [len(g) for g in groups] == [10, 10, 5]
    groups = plan_merges(segs, segs_per_tier=10, max_merged_docs=350)
    assert all(sum(s.num_docs for s in g) <= 350 for g in groups)


def _bits(td):
    """Top-k ids and float32 score bits."""
    return (td.doc_ids.tolist(),
            td.scores.astype(np.float32).view(np.uint32).tolist())


def _copy_gen0(src, tmp_path_factory, tag):
    dst = str(tmp_path_factory.mktemp(tag))
    shutil.copytree(src, dst, dirs_exist_ok=True)
    for f in os.listdir(dst):
        if f.startswith("manifest_") and f != "manifest_0.json":
            os.remove(os.path.join(dst, f))
    return dst


@pytest.fixture(scope="module")
def unsorted_setup(ray_session, small_pages, tmp_path_factory):
    """The small corpus with permuted doc_ids, built from a repartitioned
    Dataset: 8 segments whose doc ranges overlap."""
    import ray.data
    _, paths = small_pages
    t = pa.concat_tables(pq.read_table(p) for p in paths)
    perm = np.random.default_rng(3).permutation(t.num_rows)
    t = t.set_column(t.column_names.index("doc_id"), "doc_id",
                     pa.array(perm, pa.int64()))
    out = str(tmp_path_factory.mktemp("idx_unsorted"))
    m = build_index(ray.data.from_arrow(t).repartition(8), out,
                    batch_size=250)
    assert len(m.segments) == 8
    segs = sorted(m.segments, key=lambda s: s.min_doc)
    assert any(b.min_doc <= a.max_doc for a, b in zip(segs, segs[1:]))
    return out


@pytest.mark.parametrize("tier", [100, 3])
def test_merge_overlapping_segments(unsorted_setup, tmp_path_factory, tier):
    """Overlapping segments re-pack instead of concatenating: term and
    AND top-10s (ids and float32 score bits) equal the unmerged
    generation, with one merged segment or with three (groups that
    overlap each other too), and every posting is valid."""
    out = _copy_gen0(unsorted_setup, tmp_path_factory, f"idx_overlap{tier}")
    r0 = IndexReader(out)
    stats = r0.all_term_stats()
    top = sorted(stats, key=lambda t: (-stats[t][0], t))[:60]
    qs = [TermQuery(t) for t in top[:30]]
    qs += [and_query([top[i], top[i + 30]]) for i in range(30)]
    before = [_bits(Searcher(r0).search(q, 10)) for q in qs]

    m = merge_segments(out, segs_per_tier=tier)
    assert len(m.segments) == (1 if tier == 100 else 3)
    s = Searcher(IndexReader(out))
    assert [_bits(s.search(q, 10)) for q in qs] == before
    # the merged segments may still overlap each other in doc range
    # (the build allows it); no docID is live in two of them
    assert validate_index(out) == []


def _corpus(tmp_path, n, seed, vocab_size):
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(vocab_size)]
    texts = [" ".join(rng.choice(vocab, int(rng.integers(4, 20))))
             for _ in range(n)]
    path = str(tmp_path / f"docs_{seed}.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pa.array(texts, pa.string())}), path)
    return path, texts


def test_merge_reclaims_tombstones_with_positions(ray_session, tmp_path):
    """A tombstone-reclaiming merge of a positional index: phrase and
    sloppy-phrase matches equal the pre-merge live matches, and ids
    and score bits equal an index built from the live docs alone."""
    path, texts = _corpus(tmp_path, 600, 17, 8)
    out = str(tmp_path / "idx")
    build_index(path, out, batch_size=100, index_positions=True)
    assert delete_by_query(out, TermQuery("w1")) > 0
    qs = [PhraseQuery(("w2", "w3")), PhraseQuery(("w4", "w5", "w6")),
          PhraseQuery(("w2", "w3"), slop=2), PhraseQuery(("w7", "w0"), slop=3)]
    s0 = Searcher(IndexReader(out))
    before = [sorted(s0.search(q, 600).doc_ids.tolist()) for q in qs]
    assert all(before)

    merge_segments(out, segs_per_tier=10)
    s1 = Searcher(IndexReader(out))
    assert [sorted(s1.search(q, 600).doc_ids.tolist()) for q in qs] == before
    assert validate_index(out) == []

    live = [i for i, t in enumerate(texts) if "w1" not in t.split()]
    live_path = str(tmp_path / "live.parquet")
    pq.write_table(pq.read_table(path).take(live), live_path)
    ref = str(tmp_path / "idx_live")
    build_index(live_path, ref, batch_size=100, index_positions=True)
    s2 = Searcher(IndexReader(ref))
    for q in qs:
        assert _bits(s1.search(q, 50)) == _bits(s2.search(q, 50))


def test_merge_reclaims_tombstones_vint(ray_session, tmp_path):
    """A tombstone-reclaiming merge of a ``vint`` index decodes its
    tagged blocks and re-packs them as ``for128``: its merged postings
    and results equal its ``for128`` twin's."""
    path, _ = _corpus(tmp_path, 1500, 5, 40)
    dirs = []
    for fmt in ("for128", "vint"):
        d = str(tmp_path / f"idx_{fmt}")
        build_index(path, d, batch_size=256, postings_format=fmt)
        delete_by_query(d, TermQuery("w3"))
        merge_segments(d, segs_per_tier=10)
        assert validate_index(d) == []
        dirs.append(d)
    seg = IndexReader(dirs[0]).segment_infos[0].seg_id
    ta, tb = (pq.read_table(os.path.join(d, "segments", seg,
                                         "postings.parquet")).sort_by("term")
              for d in dirs)
    assert ta.equals(tb)
    sa, sb = (Searcher(IndexReader(d)) for d in dirs)
    for q in (TermQuery("w1"), and_query(["w2", "w4"]),
              or_query(["w5", "w6", "w3"])):
        assert _bits(sa.search(q, 20)) == _bits(sb.search(q, 20))


def _segment_rows(rng, seg_docs, terms, fmt, positions):
    """One segment's postings table over its (sorted) docs, each term in
    a random subset of them; returns (table, {term: (docs, freqs, pos)})."""
    D, F, P, tb, names, src = [], [], [], [0], [], {}
    for t in terms:
        docs = np.sort(rng.choice(seg_docs, int(rng.integers(1, min(
            len(seg_docs), 400))), replace=False))
        freqs = rng.integers(1, 6, len(docs))
        pos = [np.sort(rng.choice(1000, f, replace=False)) for f in freqs]
        D.append(docs)
        F.append(freqs)
        P.extend(pos)
        tb.append(tb[-1] + len(docs))
        names.append(t)
        src[t] = (docs, freqs, pos)
    D = np.concatenate(D)
    t = pack_postings_many(D, np.concatenate(F), np.asarray(tb), fmt,
                           terms=names,
                           positions=np.concatenate(P) if positions else None)
    return t, src


@pytest.mark.parametrize("case", ["overlap", "tombstones", "positions",
                                  "vint", "slices", "clean"])
def test_repack_kernel_equals_fresh_pack(case, monkeypatch):
    """The merge of a bucket of its segments' rows equals
    ``pack_postings_many`` of each term's postings, sorted, without the
    deleted docs: byte for byte, table-equal. "clean" is the default
    merge of live, doc-disjoint ``for128`` segments."""
    rng = np.random.default_rng(["overlap", "tombstones", "positions",
                                 "vint", "slices", "clean"].index(case))
    n_docs = 3000
    seg_of = (rng.integers(0, 3, n_docs) if case == "overlap"
              else np.arange(n_docs) // 1000)
    terms = sorted(f"t{i:02d}" for i in range(30))
    fmt = "vint" if case == "vint" else "for128"
    positions = case == "positions"
    tables, srcs = [], []
    for sg in range(3):
        t, src = _segment_rows(rng, np.nonzero(seg_of == sg)[0],
                               rng.choice(terms, 20, replace=False), fmt,
                               positions)
        tables.append(t)
        srcs.append(src)
    group = pa.concat_tables(tables)
    deleted = None
    if case in ("tombstones", "positions"):
        # every doc of one term, and a tenth of the rest
        gone = np.concatenate([s["t%02d" % 5][0] for s in srcs
                               if "t05" in s] + [rng.choice(n_docs, 300)])
        deleted = np.unique(gone)
    if case == "slices":
        monkeypatch.setattr(merge_mod, "REPACK_SLICE_POSTINGS", 500)

    got = merge_mod._repack_bucket(group, deleted)

    D, F, P, tb, names = [], [], [], [0], []
    for t in terms:
        parts = [s[t] for s in srcs if t in s]
        if not parts:
            continue
        docs = np.concatenate([p[0] for p in parts])
        freqs = np.concatenate([p[1] for p in parts])
        pos = [x for p in parts for x in p[2]]
        order = np.argsort(docs)
        keep = order if deleted is None else \
            order[~np.isin(docs[order], deleted)]
        if len(keep) == 0:
            continue
        D.append(docs[keep])
        F.append(freqs[keep])
        P.extend(pos[i] for i in keep)
        tb.append(tb[-1] + len(keep))
        names.append(t)
    D = np.concatenate(D)
    want = pack_postings_many(D, np.concatenate(F), np.asarray(tb),
                              terms=names,
                              positions=np.concatenate(P) if positions
                              else None)
    if case in ("tombstones", "positions"):
        assert "t05" not in names
    assert got.equals(want)
