"""Term-pruned postings reads (VERDICT r1 item 1): the reader must not
materialize whole postings tables — a query's bytes are bounded by its
terms' row groups (row-group min/max term stats = the FST index analog,
``codecs/lucene90/blocktree/Lucene90BlockTreeTermsReader.java``)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.codecs.postings import PackedPostings
from lucene_ray.index import build_index
from lucene_ray.index.merge import merge_segments
from lucene_ray.index.builder import POSTINGS_ROW_GROUP
from lucene_ray.search import (
    BooleanQuery,
    IndexReader,
    PrefixQuery,
    Searcher,
    TermQuery,
)


@pytest.fixture(scope="module")
def wide_vocab_index(ray_session, tmp_path_factory):
    """~6k distinct terms across 4 segments, so postings files have many
    row groups and pruning is observable."""
    rng = np.random.default_rng(11)
    n = 4000
    texts = []
    for i in range(n):
        words = [f"w{int(rng.integers(0, 6000)):05d}" for _ in range(12)]
        words.append("anchor")  # in every doc
        texts.append(" ".join(words))
    t = pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                  "text": pa.array(texts, pa.string())})
    d = tmp_path_factory.mktemp("pruned")
    path = str(d / "docs.parquet")
    pq.write_table(t, path)
    out = str(d / "idx")
    build_index(path, out, batch_size=1000)
    return out, texts


def _brute_count(texts, terms, mode):
    n = 0
    for t in texts:
        ws = set(t.split())
        hit = all(w in ws for w in terms) if mode == "and" else \
            any(w in ws for w in terms)
        n += hit
    return n


def test_two_term_query_materializes_bounded_rows(wide_vocab_index):
    out, texts = wide_vocab_index
    reader = IndexReader(out)
    s = Searcher(reader)
    q = BooleanQuery(must=(TermQuery("w00042"), TermQuery("anchor")))
    got = s.count(q)
    assert got == _brute_count(texts, ["w00042", "anchor"], "and")
    total_rows = sum(sr.rows_loaded for sr in reader.segments())
    total_terms = sum(sr.num_terms for sr in reader.segments())
    # 2 terms -> at most 2 row groups per segment postings file
    n_segs = len(reader.segment_infos)
    assert total_rows <= 2 * POSTINGS_ROW_GROUP * n_segs
    assert total_rows < total_terms / 2, (total_rows, total_terms)


def test_pruning_after_merge_bucket_routing(ray_session, wide_vocab_index,
                                            tmp_path_factory):
    out, texts = wide_vocab_index
    import shutil
    d = str(tmp_path_factory.mktemp("merged_idx"))
    shutil.rmtree(d)
    shutil.copytree(out, d, symlinks=True)
    merge_segments(d)
    reader = IndexReader(d)
    segs = list(reader.segments())
    assert any(sr._postings.is_dir for sr in segs)  # merged shards exist
    assert all(sr._postings.n_buckets for sr in segs
               if sr._postings.is_dir)  # _BUCKETS.json routing present
    s = Searcher(reader)
    q = BooleanQuery(must=(TermQuery("w00042"), TermQuery("anchor")))
    assert s.count(q) == _brute_count(texts, ["w00042", "anchor"], "and")
    total_rows = sum(sr.rows_loaded for sr in reader.segments())
    # bucket routing: each term touches ONE shard's row group(s) per seg
    n_files = sum(len(sr._postings._paths) for sr in segs)
    assert total_rows <= 2 * POSTINGS_ROW_GROUP * len(segs), \
        (total_rows, n_files)


def test_vocab_range_pruned_expansion(wide_vocab_index):
    out, texts = wide_vocab_index
    reader = IndexReader(out)
    s = Searcher(reader)
    td = s.search(PrefixQuery("w0004"), k=5000)
    want = {i for i, t in enumerate(texts)
            if any(w.startswith("w0004") for w in t.split())}
    assert set(td.doc_ids.tolist()) == want
    # the vocab scan read only the prefix's range, not the whole dict
    vocab = reader.vocab("w0004", "w0005")
    assert all(v.startswith("w000") for v in vocab)


def test_term_stats_incremental(wide_vocab_index):
    out, texts = wide_vocab_index
    reader = IndexReader(out)
    st = reader.term_stats(["anchor", "w00042", "nosuchterm"])
    assert st["anchor"][0] == len(texts)
    assert st["nosuchterm"] == (0, 0)
    df = sum(1 for t in texts if "w00042" in t.split())
    assert st["w00042"][0] == df
    # cache is incremental, not whole-vocab
    assert len(reader._ts_cache) <= 8


def test_termset_skips_absent_terms(wide_vocab_index):
    out, texts = wide_vocab_index
    reader = IndexReader(out)
    sr = next(reader.segments())
    # absent terms: fingerprint rejects without a single row-group read
    sr.ensure_terms(["zz_not_there", "also_missing"])
    assert sr.rg_reads == 0 and sr.rows_loaded == 0
    assert sr.get_postings("zz_not_there") is None
    # present terms still load
    sr.ensure_terms(["anchor"])
    assert sr.get_postings("anchor") is not None
    assert sr.rg_reads >= 1


def _reference_postings(t, i):
    """Per-cell ``as_py`` reference for one row of a full-file read."""
    def arr(name, dtype):
        return np.asarray(t.column(name)[i].as_py() or [], dtype=dtype)
    return PackedPostings(
        doc_count=t.column("doc_count")[i].as_py(),
        ttf=t.column("ttf")[i].as_py(),
        docs=t.column("docs")[i].as_py(),
        freqs=t.column("freqs")[i].as_py(),
        block_last_docs=arr("block_last_docs", np.int32),
        imp_freqs=arr("imp_freqs", np.int32),
        imp_norms=arr("imp_norms", np.uint8),
        imp_offsets=arr("imp_offsets", np.int64),
        chunk_doc_counts=arr("chunk_doc_counts", np.int32),
        positions=t.column("positions")[i].as_py() or b"",
        chunk_occ_counts=arr("chunk_occ_counts", np.int64),
        docs_bb=arr("docs_bb", np.int32),
        freqs_bb=arr("freqs_bb", np.int32))


def _assert_postings_equal(got, want):
    for name, a, b in zip(PackedPostings._fields, got, want):
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        else:
            assert a == b, name


def _row_group_edges(reader):
    """A postings file of the first segment with >= 3 row groups, its
    full-file table, and the first and last term of its row group 1."""
    sr = next(reader.segments())
    f = next(sr._postings.files())
    assert f.num_row_groups >= 3
    return sr, f, pq.read_table(f.path), f.rg_mins[1], f.rg_maxs[1]


def _absent_in_range(f, rg):
    """A term that is not in the file but inside row group rg's
    [min, max] (term ids are fixed-width, so min + "~" sorts before
    the next term)."""
    t = f.rg_mins[rg] + "~"
    assert f.rg_mins[rg] < t < f.rg_maxs[rg]
    return t


@pytest.mark.parametrize("termset", [True, False])
def test_selected_rows_match_full_read(wide_vocab_index, termset):
    out, _ = wide_vocab_index
    sr, f, full, first, last = _row_group_edges(IndexReader(out))
    if not termset:  # the path of files without a termset sidecar
        sr._postings._termsets = {name: None for name in sr._postings._paths}
    absent = _absent_in_range(f, 1)
    batch = [first, absent, last, first, last, absent]
    sr.ensure_terms(batch)
    # counters count what was read from Parquet, not the rows kept
    assert sr.rg_reads == 1
    assert sr.rows_loaded == f.pf.metadata.row_group(1).num_rows
    row = {t: i for i, t in enumerate(full.column("term").to_pylist())}
    for term in (first, last):
        _assert_postings_equal(sr.get_postings(term),
                               _reference_postings(full, row[term]))
        assert sr.df(term) == full.column("df")[row[term]].as_py()
    assert sr.get_postings(absent) is None
    assert absent in sr._absent


def test_term_stats_batch_matches_full_scan(wide_vocab_index):
    out, _ = wide_vocab_index
    reader = IndexReader(out)
    files, _ = reader._open_stats()
    f = max(files, key=lambda x: x.num_row_groups)
    rg = f.num_row_groups // 2
    first, last = f.rg_mins[rg], f.rg_maxs[rg]
    absent = _absent_in_range(f, rg)
    batch = [first, absent, last, last, "anchor", absent, "zz_missing"]
    got = reader.term_stats(batch)
    full = reader.all_term_stats()
    assert got == {t: full.get(t, (0, 0)) for t in batch}
    assert got[absent] == (0, 0) and got[first] != (0, 0)


@pytest.mark.parametrize("lo,hi", [("w0004", "w0005"), (None, "w00010"),
                                   ("w05990", None), ("w00042", "w00042"),
                                   ("w00042~", "w00043")])
def test_vocab_range_matches_full_scan(wide_vocab_index, lo, hi):
    out, _ = wide_vocab_index
    reader = IndexReader(out)
    want = sorted(t for t in reader.all_term_stats()
                  if (lo is None or t >= lo) and (hi is None or t <= hi))
    assert reader.vocab(lo, hi) == want
    sr = next(reader.segments())
    assert sr.terms_in_range(lo, hi) == [
        t for t in sr.terms()
        if (lo is None or t >= lo) and (hi is None or t <= hi)]
