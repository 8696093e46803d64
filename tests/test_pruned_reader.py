"""Term-pruned postings reads (VERDICT r1 item 1): a term resolves in
the resident term dictionary (the terms-index analog,
``codecs/lucene90/blocktree/Lucene90BlockTreeTermsReader.java``); once
its part is open, a first touch decodes from the part's resident packed
streams with no Parquet read, and a positional one reads only the row
groups that hold its terms."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from lucene_ray.codecs.postings import unpack_postings_many
from lucene_ray.index import build_index
from lucene_ray.index.merge import merge_segments
from lucene_ray.index.builder import POSTINGS_ROW_GROUP
from lucene_ray.index.manifest import bucket_of, part_path
from lucene_ray.search import (
    BooleanQuery,
    IndexReader,
    PhraseQuery,
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


def _with_positions(sr):
    """The terms whose LRU entry holds their packed positions."""
    return {t for t, e in sr._cache.items() if e.positions is not None}


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


def test_search_rejects_bad_k(wide_vocab_index):
    """``search`` and ``search_after`` take only an int k >= 1, for a
    term and an OR query alike, whatever the number of candidates (the
    term has 4,000 postings, the OR more)."""
    out, _ = wide_vocab_index
    s = Searcher(IndexReader(out))
    for q in (TermQuery("anchor"), BooleanQuery(
            should=(TermQuery("anchor"), TermQuery("w00042")))):
        for bad in (0, -1, 2.5, True, "10", None):
            with pytest.raises(ValueError, match="k must be an int >= 1"):
                s.search(q, bad)
            with pytest.raises(ValueError, match="k must be an int >= 1"):
                s.search_after(q, bad, after=(1.0, 5))
        assert len(s.search(q, np.int64(3)).doc_ids) == 3


def test_top_k_helpers_reject_bad_k(wide_vocab_index, tmp_path_factory):
    """``rescore``, ``MultiFieldSearcher.search`` and ``block_join_topk``
    take only an int k >= 1 too, below and above the 2,048 candidates
    where ``_top_k`` starts to partition (its ``np.partition`` raised
    "kth out of bounds" for k=0 there, and k=0 returned nothing below)."""
    import os
    from lucene_ray.index.multi_field import build_multi_field_index
    from lucene_ray.search.join import block_join_topk
    from lucene_ray.search.multi_field import MultiFieldSearcher
    out, _ = wide_vocab_index
    mf = str(tmp_path_factory.mktemp("mf") / "idx")
    build_multi_field_index(os.path.join(os.path.dirname(out), "docs.parquet"),
                            mf, {"text": None}, batch_size=1000)
    s = Searcher(IndexReader(out))
    m = MultiFieldSearcher(mf)
    for q in (TermQuery("w00042"), TermQuery("anchor")):
        top = s.search(q, 4000)
        calls = (lambda k: s.rescore(top, TermQuery("w00042"), k=k),
                 lambda k: m.search(q, k),
                 lambda k: block_join_topk(s, q, k))
        for call in calls:
            for bad in (0, -1, 2.5, True, "10"):
                with pytest.raises(ValueError, match="k must be an int >= 1"):
                    call(bad)
        assert len(s.rescore(top, TermQuery("w00042"), k=np.int64(3))
                   .doc_ids) == 3
        assert len(m.search(q, 3).doc_ids) == 3


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
    assert any(i.seg_id.startswith("merged-") for i in reader.segment_infos)
    s = Searcher(reader)
    q = BooleanQuery(must=(TermQuery("w00042"), TermQuery("anchor")))
    assert s.count(q) == _brute_count(texts, ["w00042", "anchor"], "and")
    # bucket routing: each term reads ONE row group of ONE part per seg
    assert sum(sr.rg_reads for sr in segs) <= 2 * len(segs)
    total_rows = sum(sr.rows_loaded for sr in segs)
    assert total_rows <= 2 * POSTINGS_ROW_GROUP * len(segs), total_rows


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
    # only the asked-for terms' stats parts are made resident
    assert len(reader._stats) <= 3
    assert len(reader._ts_cache) == 3


def test_absent_terms_cost_no_parquet_reads(wide_vocab_index, monkeypatch):
    out, _ = wide_vocab_index
    reader = IndexReader(out)
    sr = next(reader.segments())
    sr.ensure_terms(["anchor"])  # opens anchor's part; the load reads nothing
    assert sr.rg_reads == 0 and sr.rows_loaded == 0
    b = int(bucket_of(["anchor"])[0])
    # past the part's last term, and inside its term range
    absent = [t for t in (f"{p}{i}" for p in ("zz_missing", "anchor~")
                          for i in range(200))
              if bucket_of([t])[0] == b][::40]
    assert any(t.startswith("anchor~") for t in absent)

    def no_read(*a, **kw):
        raise AssertionError("absent term read Parquet")
    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", no_read)
    monkeypatch.setattr(pq.ParquetFile, "read", no_read)
    sr.ensure_terms(absent)
    assert all(sr.get_positions(t) is None and sr.get_decoded(t) is None
               and sr.df(t) == 0 for t in absent)
    assert sr._absent == set(absent)
    assert sr.rg_reads == 0 and sr.rows_loaded == 0


def _assert_decoded_equal(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _part_table(sr, term):
    """The whole part file holding ``term``, read by pyarrow alone."""
    return pq.read_table(part_path(sr._postings_dir,
                                   int(bucket_of([term])[0])))


def _direct_decode(table, term):
    """``term``'s row of a part table, decoded alone."""
    i = pc.index(table.column("term"), term).as_py()
    return unpack_postings_many(table.slice(i, 1))[0]


def _row_group_edges(reader):
    """Part 0 of the first segment's postings (>= 3 row groups), its
    full-file table, and the first and last term of its row group 1."""
    sr = next(reader.segments())
    part = sr._part(0)
    assert part.pf.metadata.num_row_groups >= 3
    full = pq.read_table(part.path)
    terms = full.column("term")
    lo, hi = part.rg_starts[1], part.rg_starts[2] - 1
    return sr, part, full, terms[lo].as_py(), terms[hi].as_py()


def _absent_between(first, last, b):
    """A term of part ``b`` strictly between ``first`` and ``last`` that
    no index holds (term ids are fixed-width, so first + "~" + digits
    sorts before the next term)."""
    t = next(t for t in (f"{first}~{i}" for i in range(1000))
             if bucket_of([t])[0] == b)
    assert first < t < last
    return t


@pytest.mark.parametrize("positions", [True, False])
def test_selected_rows_match_full_read(wide_vocab_index, positions):
    """A batch of terms of one row group loads with no read, and a
    positional batch with one read of that row group; either way the
    decoded arrays and positions equal the full file's, and the
    dictionary keeps an absent term inside the row group's range from
    becoming a row."""
    out, _ = wide_vocab_index
    sr, part, full, first, last = _row_group_edges(IndexReader(out))
    absent = _absent_between(first, last, 0)
    batch = [first, absent, last, first, last, absent]
    (sr.ensure_positions if positions else sr.ensure_terms)(batch)
    # counters count what was read from Parquet, not the rows kept
    assert sr.rg_reads == (1 if positions else 0)
    assert sr.rows_loaded == (part.pf.metadata.row_group(1).num_rows
                              if positions else 0)
    assert _with_positions(sr) == ({first, last} if positions else set())
    row = {t: i for i, t in enumerate(full.column("term").to_pylist())}
    for term in (first, last):
        _assert_decoded_equal(sr.get_decoded(term),
                              _direct_decode(full, term))
        sr.ensure_positions([term])
        assert sr._cache[term].positions == \
            full.column("positions")[row[term]].as_py()
        assert sr.df(term) == full.column("df")[row[term]].as_py()
    # loaded without positions, each term's positions are one more read
    assert sr.rg_reads == (1 if positions else 2)
    assert sr.get_positions(absent) is None
    assert absent in sr._absent


def test_term_stats_batch_matches_full_scan(wide_vocab_index):
    out, _ = wide_vocab_index
    reader = IndexReader(out)
    b = 3
    d = reader._stats_part(b)[0]
    first, last = d.terms(d.n // 2, d.n // 2 + 2)
    absent = _absent_between(first, last, b)
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


# -- decoded postings: slicing helpers and the per-segment cache --------------

RUN_SIZES = [(1,), (127,), (128,), (129,), (300,),
             (1, 127, 128, 129, 300), (300, 1, 129)]


def _packed(sizes, seed):
    """One term packed over runs of ``sizes`` docs in disjoint,
    increasing doc ranges; returns (its one-row postings table, source
    docs, source freqs)."""
    from lucene_ray.codecs.postings import pack_postings_many
    rng = np.random.default_rng(seed)
    docs, freqs, base = [], [], 0
    for n in sizes:
        d = base + np.sort(rng.choice(3 * n + 5, n, replace=False))
        docs.append(d)
        freqs.append(rng.integers(1, 40, n))
        base = int(d[-1]) + 1 + int(rng.integers(0, 50))
    docs, freqs = np.concatenate(docs), np.concatenate(freqs)
    return pack_postings_many(docs, freqs, [0, len(docs)]), docs, freqs


@pytest.mark.parametrize("sizes", RUN_SIZES)
def test_select_blocks_and_lookup_match_reference(sizes):
    """A term packed over runs of 128-doc blocks decodes to its source
    postings, and ``lookup`` (the boolean clause probe over them) finds
    which targets the term holds and each hit's freq. (The name is
    older than the scope: block selection left with the block-max
    kernel.)"""
    from lucene_ray.codecs.postings import _block_sizes
    from lucene_ray.search.searcher import lookup
    p, src_docs, src_freqs = _packed(sizes, seed=sum(sizes))
    dec = unpack_postings_many(p)[0]
    ref_docs, ref_freqs = dec
    np.testing.assert_array_equal(ref_docs, src_docs)
    np.testing.assert_array_equal(ref_freqs, src_freqs)
    assert dec.docs.dtype == np.int64 and dec.freqs.dtype == np.int32
    # the row's blocks are 128-doc blocks
    assert len(p.column("docs_bb")[0]) == len(_block_sizes(len(src_docs)))
    # targets: every posting, the gaps between them, and both ends
    targets = np.unique(np.concatenate(
        [ref_docs, ref_docs + 1, ref_docs - 1, [-5, ref_docs[-1] + 1000]]))
    want = dict(zip(ref_docs.tolist(), ref_freqs.tolist()))
    hit, got = lookup(dec.docs, dec.freqs, targets)
    assert hit.tolist() == [t in want for t in targets.tolist()]
    assert got.dtype == np.int32
    assert got.tolist() == [want[t] for t in targets[hit].tolist()]
    hit_only, none = lookup(dec.docs, None, targets)
    assert none is None and np.array_equal(hit_only, hit)


@pytest.fixture(scope="module")
def merged_generations(ray_session, tmp_path_factory):
    """Zipf corpus in 5 segments of 700 docs (each term's postings end
    in a tail block), merged into one run of 128-doc blocks per term,
    then ~10% of docs deleted.
    Returns (index dir, merged generation, deleted generation, terms
    by descending df)."""
    from lucene_ray.index.deletes import apply_deletes
    rng = np.random.default_rng(23)
    vocab = [f"z{i:03d}" for i in range(300)]
    p = 1.0 / np.arange(1, len(vocab) + 1) ** 1.1
    texts = [" ".join(rng.choice(vocab, int(rng.integers(8, 60)),
                                 p=p / p.sum()))
             for _ in range(3500)]
    t = pa.table({"doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
                  "text": pa.array(texts, pa.string())})
    d = tmp_path_factory.mktemp("decoded")
    path = str(d / "docs.parquet")
    pq.write_table(t, path)
    out = str(d / "idx")
    build_index(path, out, batch_size=700)
    merged = merge_segments(out).generation
    reader = IndexReader(out)
    for sr in reader.segments():
        t = pq.read_table(sr._postings_dir, columns=["term", "docs_bb"])
        nb = dict(zip(t.column("term").to_pylist(),
                      map(len, t.column("docs_bb").to_pylist())))
        assert all(nb[t] == -(-sr.df(t) // 128) for t in vocab[:40])
    per_seg = {}
    for sr, info in zip(reader.segments(), reader.segment_infos):
        ids = sr.doc_ids.astype(np.int64)
        per_seg[info.seg_id] = ids[rng.random(len(ids)) < 0.1]
    deleted = apply_deletes(out, per_seg).generation
    return out, merged, deleted, vocab


def _decoded_queries(vocab):
    head, mid, tail = vocab[:4], vocab[20:24], vocab[150:154]
    T = TermQuery
    return [
        T(head[0]), T(mid[0]), T(tail[0]),
        BooleanQuery(must=(T(head[0]), T(head[1]))),
        BooleanQuery(must=(T(head[1]), T(mid[1]), T(head[2]))),
        BooleanQuery(should=(T(head[0]), T(head[3]), T(mid[2]))),
        BooleanQuery(should=tuple(T(x) for x in head + tail)),
        BooleanQuery(should=(T(head[0]), T(mid[0])),
                     must_not=(T(head[2]),)),
        BooleanQuery(must=(T(head[1]),), must_not=(T(mid[3]),)),
        BooleanQuery(must=(T(head[0]),),
                     should=(T(mid[0]), T(mid[1]))),
        BooleanQuery(should=(T(head[1]), T(head[2]), T(mid[0])),
                     min_should_match=2),
        BooleanQuery(must=(T(head[3]),),
                     should=(T(head[0]), T(mid[2]), T(tail[1])),
                     min_should_match=1),
    ]


@pytest.mark.parametrize("similarity", ["lucene", "bm25_exact64"])
@pytest.mark.parametrize("gen", ["merged", "deleted"])
def test_search_matches_exhaustive_on_decoded_postings(
        merged_generations, gen, similarity):
    out, merged, deleted, vocab = merged_generations
    reader = IndexReader(out, generation=merged if gen == "merged"
                         else deleted)
    s = Searcher(reader, similarity=similarity)
    for q in _decoded_queries(vocab):
        docs, scores = s.eval_complete(q)
        assert len(docs), q
        s32 = np.asarray(scores).astype(np.float32)
        for k in (10, 100):
            order = np.lexsort((docs, -s32.astype(np.float64)))[:k]
            td = s.search(q, k)
            np.testing.assert_array_equal(
                np.asarray(td.doc_ids, np.int64),
                np.asarray(docs)[order].astype(np.int64), err_msg=str(q))
            np.testing.assert_array_equal(
                np.asarray(td.scores).astype(np.float32), s32[order],
                err_msg=str(q))


def test_decoded_arrays_leave_the_cache_with_their_term(merged_generations):
    from lucene_ray.search.reader import SegmentReader
    out, merged, _, vocab = merged_generations
    info = IndexReader(out, generation=merged).segment_infos[0]
    sr = SegmentReader(f"{out}/segments/{info.seg_id}", cache_size=2)
    a, b, c = vocab[0], vocab[1], vocab[2]
    dec_a = sr.get_decoded(a)
    assert sr.get_decoded(a) is dec_a  # decoded once, then reused
    sr.ensure_positions([b])  # b's positions are read beside its arrays
    assert list(sr._cache) == [a, b] and _with_positions(sr) == {b}
    sr.get_decoded(c)  # loads a 3rd term: a is least recently used
    assert list(sr._cache) == [b, c] and _with_positions(sr) == {b}
    sr.get_decoded(a)  # b leaves, and its positions with it
    assert list(sr._cache) == [c, a] and not _with_positions(sr)
    for arr in (dec_a.docs, dec_a.freqs):
        with pytest.raises(ValueError):
            arr[0] = 1
    assert sr.get_decoded("zz_absent") is None


def test_score_order_leaves_the_cache_with_its_term(merged_generations):
    """A term's score order lives in its LRU entry, keyed by the
    searcher's norm-inverse table: with ``cache_size=2`` it is evicted
    with the term's postings and, when the term returns, sorted again
    identically; the top-k it drives keeps its ids and score bits."""
    from lucene_ray.search.reader import SegmentReader
    out, merged, _, vocab = merged_generations
    reader = IndexReader(out, generation=merged)
    info, = reader.segment_infos
    sr = reader._readers[info.seg_id] = SegmentReader(
        f"{out}/segments/{info.seg_id}", cache_size=2)
    s = Searcher(reader)
    a, b, c = vocab[:3]
    first = s.search(TermQuery(a), 10)
    order = sr._cache[a].order
    assert order is not None and sr._cache[a].table is s.cache
    assert sr.score_order(a, s.cache) is order  # sorted once, then kept
    assert sr.score_order(a, s.cache.copy()) is order  # an equal table
    for t in (b, c):
        s.search(TermQuery(t), 10)
    assert list(sr._cache) == [b, c]  # a left, and its order with it
    again = s.search(TermQuery(a), 10)
    assert sr._cache[a].order is not order
    assert np.array_equal(sr._cache[a].order, order)
    assert np.array_equal(again.doc_ids, first.doc_ids)
    assert np.array_equal(again.scores.view(np.uint32),
                          first.scores.view(np.uint32))
    # another table sorts the term again, under that table
    other = Searcher(reader, k1=0.5)
    sr.score_order(a, other.cache)
    assert sr._cache[a].table is other.cache


def test_phrase_clause_loads_only_its_own_positions(ray_session, tmp_path):
    """A phrase beside term clauses loads positions for its own terms
    only (``Searcher._gather``); the term clauses load decoded postings
    and read nothing."""
    rng = np.random.default_rng(5)
    words = ["alpha", "beta", "gamma", "delta", "epsilon"]
    texts = [" ".join(rng.choice(words, 12)) for _ in range(200)]
    path = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
        "text": pa.array(texts, pa.string())}), path)
    out = str(tmp_path / "idx")
    build_index(path, out, batch_size=len(texts), index_positions=True)
    reader = IndexReader(out)
    sr, = reader.segments()
    q = BooleanQuery(must=(PhraseQuery(("alpha", "beta")),),
                     should=(TermQuery("gamma"), TermQuery("epsilon")))
    td = Searcher(reader).search(q, 10)
    assert len(td.doc_ids) == 10
    assert set(sr._cache) == {"alpha", "beta", "gamma", "epsilon"}
    assert _with_positions(sr) == {"alpha", "beta"}
    assert sr.rg_reads == len(set(bucket_of(["alpha", "beta"]).tolist()))
    docs, scores = Searcher(reader).eval_complete(q)
    top = np.lexsort((docs, -scores))[:10]
    assert np.array_equal(td.doc_ids, docs[top])
    assert np.array_equal(td.scores, scores[top].astype(np.float32))


# -- the term dictionary ------------------------------------------------------

def _long(prefix):
    return prefix + "x" * (5000 - len(prefix))


@pytest.mark.parametrize("where", ["start", "end", "both"])
def test_long_term_bounds_in_term_sorted_file(tmp_path, where):
    """Terms over 4,096 bytes (longer than Parquet keeps a statistic
    for) at the start, the end or both ends of a row group: the
    dictionary finds each term's row, the row group read by that row
    number holds it, and an absent term beside each is absent."""
    from lucene_ray.codecs.postings import pack_postings_many
    from lucene_ray.search.reader import _PostingsPart
    terms = [f"t{i:02d}" for i in range(8)]  # row groups of 2 terms
    pos = {"start": [4], "end": [3], "both": [4, 5]}[where]
    for i in pos:
        terms[i] = _long(terms[i])
    # df 1 and 2 alternate, so singleton and read rows both occur
    bounds = np.cumsum([0] + [1 + i % 2 for i in range(8)])
    docs = np.concatenate([np.arange(n) for n in np.diff(bounds)])
    path = str(tmp_path / "terms.parquet")
    pq.write_table(pack_postings_many(docs, np.ones(len(docs)), bounds,
                                      terms=terms),
                   path, row_group_size=2, write_statistics=False)
    part = _PostingsPart(path)
    assert [part.singleton(i) is not None for i in range(8)] == \
        [i % 2 == 0 for i in range(8)]
    assert part.rg_starts.tolist() == [0, 2, 4, 6, 8]
    assert part.dict.rows(terms) == list(range(8))
    assert part.dict.rows([t + "y" for t in terms] + [t[:-1] for t in terms]
                          ) == [-1] * 16
    for i, t in enumerate(terms):
        got, rgs, nrows = part.read_rows([i], ["term"])
        assert got.column("term").to_pylist() == [t]
        assert (rgs, nrows) == (1, 2)
        assert part.dict.span(t, t) == (i, i + 1)


_DICT_TERMS = sorted({
    "", "a", "abc", "abc\x00", "abc\x00\x00", "abcdefg", "abcdefgh",
    "abcdefgh0", "abcdefgh1", "abcdefgh12", "abcdefghz", "abcdefgi",
    "naïve", "nai", "über", "ö" * 10, "ö" * 11, "日本", "日本語", "日本語の",
    "\U0001f600", "zz", _long("abcdefgh5"), _long("abcdefgh5") + "a"})
_DICT_ABSENT = ["abcdefgh00", "abcdefgh11", "abcdefgh2", "abcdefgg",
                "abc\x01", "ab", "naïf", "日", "日本語a", "ö" * 12,
                _long("abcdefgh5")[:-1], _long("abcdefgh6"), "zzz", "\x00"]


@pytest.mark.parametrize("n", [0, 1, len(_DICT_TERMS)])
def test_term_dictionary_is_exact(n):
    """Shared 8-byte prefixes (NUL-padded keys collide), non-ASCII,
    a term over 4,096 bytes and absent terms inside the range: every
    lookup is the exact row or -1, every range the brute-force one."""
    from lucene_ray.search.reader import _TermDict
    terms = _DICT_TERMS[-n:] if n else []
    d = _TermDict(pa.chunked_array([pa.array(terms, pa.large_string())]))
    assert d.n == n and d.terms() == terms
    assert d.rows(terms) == list(range(n))
    absent = [t for t in _DICT_ABSENT + _DICT_TERMS if t not in terms]
    assert d.rows(absent) == [-1] * len(absent)
    probes = [None, *_DICT_ABSENT, *_DICT_TERMS]
    for lo in probes:
        for hi in probes:
            want = [t for t in terms if (lo is None or t >= lo)
                    and (hi is None or t <= hi)]
            a, b = d.span(lo, hi)
            assert d.terms(a, b) == want, (lo, hi)


def test_term_dictionary_owns_its_arrays():
    """A dictionary keeps copies, not views of the column's Arrow
    buffers, so an open part pins none: once the column is dropped,
    Arrow's pool holds what it held before the column was made."""
    from lucene_ray.search.reader import _TermDict
    terms = [f"t{i:05d}" for i in range(5000)]
    before = pa.total_allocated_bytes()
    col = pa.chunked_array([pa.array(terms, pa.string())])
    d = _TermDict(col)
    del col
    assert pa.total_allocated_bytes() == before
    assert d.off.dtype == np.int32  # the term bytes fit in int32 offsets
    assert d.off.flags.owndata and d.keys.flags.owndata
    assert d.rows(terms[::7]) == list(range(0, 5000, 7))


def test_long_keyword_terms_are_found(ray_session, tmp_path):
    """A keyword index whose sorted terms put a 5,000-char term at the
    start, the end and both ends of postings row groups, and at both
    ends of the global term-stats file: each long term and each term
    beside it is found by term_stats, get_decoded and a TermQuery."""
    from lucene_ray.analysis import KeywordAnalyzer
    n = 4 * POSTINGS_ROW_GROUP
    terms = [f"k{i:04d}" for i in range(n)]
    r = POSTINGS_ROW_GROUP
    for i in (0, r - 1, r, 2 * r, 3 * r - 1, n - 1):
        terms[i] = _long(terms[i])
    values = terms + terms  # df 2 per term
    path = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(2 * n, dtype=np.int64)),
        "text": pa.array(values, pa.string())}), path)
    out = str(tmp_path / "idx")
    build_index(path, out, batch_size=2 * n, analyzer=KeywordAnalyzer())
    reader = IndexReader(out)
    assert len(reader.segment_infos) == 1
    sr = next(reader.segments())
    checked = sorted({j for i in (0, r - 1, r, 2 * r, 3 * r - 1, n - 1)
                      for j in (i - 1, i, i + 1) if 0 <= j < n})
    want = [terms[j] for j in checked]
    stats = reader.term_stats(want)
    s = Searcher(reader)
    for t in want:
        assert stats[t] == (2, 2), t[:8]
        dec = sr.get_decoded(t)
        assert dec is not None and len(dec.docs) == 2, t[:8]
        assert s.count(TermQuery(t)) == 2, t[:8]
        assert len(s.search(TermQuery(t), k=10).doc_ids) == 2, t[:8]


def test_small_term_top_k_sorts_nothing(merged_generations):
    """A term of at most k postings in a segment is all of its own top
    k there: its top-k caches no score order, and keeps eval_complete's
    ids and float32 score bits; a larger term gets an order."""
    out, merged, _, vocab = merged_generations
    reader = IndexReader(out, generation=merged)
    sr, = reader.segments()
    s = Searcher(reader)
    k = 100
    small = [t for t in vocab[100:] if len(sr.get_decoded(t).docs) <= k][:4]
    assert small and len(sr.get_decoded(vocab[0]).docs) > k
    for t in small + vocab[:1]:
        docs, scores = s.eval_complete(TermQuery(t))
        s32 = np.asarray(scores).astype(np.float32)
        order = np.lexsort((docs, -s32.astype(np.float64)))[:k]
        td = s.search(TermQuery(t), k)
        assert np.array_equal(td.doc_ids, np.asarray(docs)[order])
        assert np.array_equal(td.scores.astype(np.float32).view(np.uint32),
                              s32[order].view(np.uint32))
    assert [t for t, e in sr._cache.items() if e.order is not None] == \
        [vocab[0]]


def test_pruned_term_search_reads_no_packed_row(merged_generations):
    """A single-term top-k walks the term's decoded postings in a score
    order sorted from them and the segment's norms: once
    ``ensure_terms`` has loaded the term, the search reads no Parquet
    row group and no positions."""
    out, merged, _, vocab = merged_generations
    for gen in (merged, None):  # the merge, and its tombstoned successor
        reader = IndexReader(out, generation=gen)
        s = Searcher(reader)
        t = vocab[0]
        for sr in reader.segments():
            sr.ensure_terms([t])
            assert len(sr.get_decoded(t).docs) > 8 * 128
        before = [(sr.rg_reads, sr.rows_loaded) for sr in reader.segments()]
        td = s.search(TermQuery(t), 10)
        assert len(td.doc_ids) == 10
        assert [(sr.rg_reads, sr.rows_loaded)
                for sr in reader.segments()] == before
        assert all(not _with_positions(sr) for sr in reader.segments())


def test_batched_decode_of_every_part(merged_generations):
    """Every row of every built and merged part decodes in one batch
    exactly as it decodes alone."""
    out, merged, _, _ = merged_generations
    rows = 0
    for gen in (0, merged):
        for sr in IndexReader(out, generation=gen).segments():
            for b in range(8):
                t = pq.read_table(sr._part(b).path)
                got = unpack_postings_many(t)
                assert len(got) == len(t)
                for i, g in enumerate(got):
                    _assert_decoded_equal(
                        g, unpack_postings_many(t.slice(i, 1))[0])
                rows += len(t)
    assert rows > 1000


# -- resident singletons: a df = 1 term's first touch reads nothing -----------

@pytest.fixture(scope="module")
def singleton_kinds(ray_session, tmp_path_factory):
    """One corpus with many df = 1 terms (1,600 docs of 10 words from
    8,000, each word 1-3 times) as four kinds of segment: built (4
    segments of 400 docs), merged clean ("concat", the layout the
    merge once concatenated), merged after 1% tombstones ("repacked"),
    and built with the registered ``vint`` block format.
    Returns kind -> index dir."""
    import shutil
    from lucene_ray.index.deletes import apply_deletes
    rng = np.random.default_rng(31)
    n = 1600
    # each word 1-3 times, so a singleton's freq is not always 1
    texts = [" ".join(f"s{int(x):04d}"
                      for x in np.repeat(rng.integers(0, 8000, 10),
                                         rng.integers(1, 4, 10)))
             for _ in range(n)]
    d = tmp_path_factory.mktemp("singletons")
    path = str(d / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pa.array(texts, pa.string())}), path)
    out = {"built": str(d / "built"), "vint": str(d / "vint")}
    build_index(path, out["built"], batch_size=400)
    build_index(path, out["vint"], batch_size=400, postings_format="vint")
    for kind in ("concat", "repacked"):
        out[kind] = str(d / kind)
        shutil.copytree(out["built"], out[kind], symlinks=True)
    merge_segments(out["concat"])
    dead = np.sort(rng.choice(n, n // 100, replace=False))
    built = IndexReader(out["repacked"]).segment_infos
    apply_deletes(out["repacked"], {
        s.seg_id: dead[(dead >= s.min_doc) & (dead <= s.max_doc)]
        for s in built})
    merge_segments(out["repacked"])
    return out


def _part_terms(sr, b):
    """(df = 1 terms, other terms) of part ``b`` of a segment."""
    t = pq.read_table(sr._part(b).path, columns=["term", "df"])
    df = t.column("df").to_numpy()
    terms = np.asarray(t.column("term").to_pylist(), dtype=object)
    return terms[df == 1].tolist(), terms[df > 1].tolist()


@pytest.mark.parametrize("kind", ["built", "concat", "repacked", "vint"])
def test_resident_singletons_equal_decoded_rows(singleton_kinds, kind):
    """Every df = 1 row of every part is resident, and equals the
    decode of its packed row in values, dtypes and read-only flags."""
    reader = IndexReader(singleton_kinds[kind])
    infos = reader.segment_infos
    if kind in ("built", "vint"):
        assert len(infos) == 4
    else:
        assert len(infos) == 1 and infos[0].seg_id.startswith("merged-")
    checked, freqs = 0, set()
    for sr in reader.segments():
        for b in range(8):
            singles, _ = _part_terms(sr, b)
            sr.ensure_terms(singles)
            full = pq.read_table(sr._part(b).path)
            for term in singles:
                got = sr._cache[term].postings
                want = _direct_decode(full, term)
                for g, w in zip(got, want, strict=True):
                    assert g.dtype == w.dtype and np.array_equal(g, w)
                    assert not g.flags.writeable and not w.flags.writeable
            checked += len(singles)
            freqs.update(int(sr._cache[t].postings.freqs[0])
                         for t in singles)
    assert checked > 1000 and {1, 2, 3} <= freqs


def test_singleton_first_touch_reads_no_parquet(singleton_kinds,
                                                monkeypatch):
    reader = IndexReader(singleton_kinds["built"])
    sr = next(reader.segments())
    singles = [t for b in range(8) for t in _part_terms(sr, b)[0][:20]]
    for b in range(8):
        sr._part(b)  # opening a part reads it; a lookup then reads nothing

    def no_read(*a, **kw):
        raise AssertionError("a df = 1 term read Parquet")
    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", no_read)
    monkeypatch.setattr(pq.ParquetFile, "read", no_read)
    sr.ensure_terms(singles)
    assert all(sr.df(t) == 1 and sr.get_decoded(t) is sr._cache[t].postings
               for t in singles)
    assert sr.rg_reads == 0 and sr.rows_loaded == 0


def test_mixed_batch_reads_nothing_and_decodes_once_per_part(
        singleton_kinds, monkeypatch):
    """Singletons from parts 1 and 2, other terms from parts 0 and 1,
    absent terms of part 3, every part open: no Parquet read, and one
    decode each of parts 0's and 1's other rows."""
    from lucene_ray.codecs import postings as codecs_postings
    reader = IndexReader(singleton_kinds["concat"])
    sr = next(reader.segments())
    parts = {b: _part_terms(sr, b) for b in range(4)}
    multi = [parts[0][1][5], parts[1][1][7]]
    singles = parts[1][0][:3] + parts[2][0][:3]
    absent = [t for t in (f"s{i:04d}~" for i in range(400))
              if bucket_of([t])[0] == 3][:3]
    assert len(absent) == 3
    decodes = []
    orig_decode = codecs_postings.decode_rows

    def no_read(*a, **kw):
        raise AssertionError("a first touch read Parquet")

    def decode_spy(p, rows):
        decodes.append(len(rows))
        return orig_decode(p, rows)
    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", no_read)
    monkeypatch.setattr(pq.ParquetFile, "read", no_read)
    monkeypatch.setattr(codecs_postings, "decode_rows", decode_spy)
    sr.ensure_terms(multi + singles + absent + multi)
    assert decodes == [1, 1]
    assert sr.rg_reads == 0 and sr.rows_loaded == 0
    assert sr._absent == set(absent)
    monkeypatch.undo()
    for term in multi + singles:
        _assert_decoded_equal(sr.get_decoded(term),
                              _direct_decode(_part_table(sr, term), term))


# -- positions: read beside the decode, only for positional callers -----------

@pytest.fixture(scope="module")
def positional_generations(ray_session, tmp_path_factory):
    """A positional index of 1,200 docs, each a Zipf draw of 6-20 words
    from 200 plus one word of its own (``u`` and its docID: a df = 1
    term), as three generations: built (4 segments of 300 docs), ~5% of
    docs tombstoned, and those segments merged. Returns (index dir,
    {kind: generation}, texts)."""
    from lucene_ray.index.deletes import apply_deletes
    from lucene_ray.index.manifest import read_manifest
    rng = np.random.default_rng(47)
    vocab = [f"p{i:03d}" for i in range(200)]
    w = 1.0 / np.arange(1, len(vocab) + 1)
    texts = []
    for i in range(1200):
        words = list(rng.choice(vocab, int(rng.integers(6, 20)),
                                p=w / w.sum()))
        words.insert(int(rng.integers(0, len(words) + 1)), f"u{i:04d}")
        texts.append(" ".join(words))
    d = tmp_path_factory.mktemp("positional")
    path = str(d / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
        "text": pa.array(texts, pa.string())}), path)
    out = str(d / "idx")
    build_index(path, out, batch_size=300, index_positions=True)
    gens = {"built": read_manifest(out).generation}
    r = IndexReader(out)
    gens["tombstoned"] = apply_deletes(out, {
        i.seg_id: sr.doc_ids[rng.random(len(sr.doc_ids)) < 0.05]
        for sr, i in zip(r.segments(), r.segment_infos)}).generation
    gens["merged"] = merge_segments(out).generation
    assert all(i.seg_id.startswith("merged-") for i in
               IndexReader(out, generation=gens["merged"]).segment_infos)
    return out, gens, texts


@pytest.mark.parametrize("kind", ["built", "tombstoned", "merged"])
def test_positions_equal_a_direct_read(positional_generations, kind):
    """``get_positions`` of every term of every part, df = 1 terms
    included, equals the term's row read straight from its part by
    pyarrow and decoded alone (``unpack_postings_many``, then
    ``unpack_positions``); a df = 1 term's position is its word's
    place in the doc's text."""
    from lucene_ray.codecs.postings import unpack_positions
    out, gens, texts = positional_generations
    reader = IndexReader(out, generation=gens[kind])
    singles = 0
    for sr in reader.segments():
        for b in range(8):
            full = pq.read_table(sr._part(b).path)
            terms = full.column("term").to_pylist()
            sr.ensure_positions(terms)
            for i, term in enumerate(terms):
                docs, freqs = unpack_postings_many(full.slice(i, 1))[0]
                pos = unpack_positions(full.column("positions")[i].as_py(),
                                       freqs)
                _assert_decoded_equal(sr.get_positions(term),
                                      (docs, freqs, pos))
                if term.startswith("u"):
                    assert docs.tolist() == [int(term[1:])]
                    assert pos.tolist() == [
                        texts[docs[0]].split().index(term)]
                    singles += 1
    assert singles > 1000


def test_first_positional_touch_is_one_read_per_part(positional_generations,
                                                     monkeypatch):
    """A positional first touch of a batch (df = 1 and other terms from
    three parts, and absent terms): one row-group read per part that
    holds a found term, and one decode of each part's other rows from
    its packed streams; ``get_positions`` then reads nothing more."""
    from lucene_ray.codecs import postings as codecs_postings
    out, gens, _ = positional_generations
    sr = next(IndexReader(out, generation=gens["built"]).segments())
    batch = []
    for b in range(3):
        t = pq.read_table(sr._part(b).path, columns=["term", "df"])
        df = t.column("df").to_numpy()
        terms = np.asarray(t.column("term").to_pylist(), dtype=object)
        batch += terms[df == 1][:2].tolist() + terms[df > 1][[0, -1]].tolist()
    absent = [f"p{i:03d}~" for i in range(3)]
    reads, decodes = [], []
    orig_read = pq.ParquetFile.read_row_groups
    orig_decode = codecs_postings.decode_rows

    def read_spy(pf, rgs, *a, **kw):
        reads.append(len(rgs))
        return orig_read(pf, rgs, *a, **kw)

    def decode_spy(p, rows):
        decodes.append(len(rows))
        return orig_decode(p, rows)
    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", read_spy)
    monkeypatch.setattr(codecs_postings, "decode_rows", decode_spy)
    sr.ensure_positions(batch + absent + batch)
    assert len(reads) == 3 and decodes == [2, 2, 2]
    assert sr.rg_reads == sum(reads) and _with_positions(sr) == set(batch)
    got = [sr.get_positions(t) for t in batch + absent]
    assert all(g is not None for g in got[:len(batch)])
    assert got[len(batch):] == [None] * len(absent)
    assert len(reads) == 3 and sr.rg_reads == sum(reads)


def test_term_set_beyond_the_postings_cache_is_read_once(ray_session,
                                                         tmp_path,
                                                         monkeypatch):
    """A ``TermInSetQuery`` (exempt from ``MAX_CLAUSE_COUNT``) over more
    terms than a segment's postings LRU holds: the batched first touch
    evicts none of the terms it loads, so scoring decodes nothing more,
    no Parquet read is made, and the results equal those at the default
    cache size."""
    from lucene_ray.codecs import postings as codecs_postings
    from lucene_ray.search import TermInSetQuery
    rng = np.random.default_rng(5)
    n = 400
    texts = [" ".join(f"q{int(x):03d}" for x in rng.integers(0, 300, 12))
             for _ in range(n)]
    path = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pa.array(texts, pa.string())}), path)
    out = str(tmp_path / "idx")
    build_index(path, out, batch_size=n)
    q = TermInSetQuery(tuple(f"q{i:03d}" for i in range(300)))
    got = {}
    orig_decode = codecs_postings.decode_rows
    for cache_size in (4096, 50):
        reader = IndexReader(out)
        (sr,) = reader.segments()
        sr._cache_size = cache_size
        decoded = []
        monkeypatch.setattr(codecs_postings, "decode_rows", lambda p, rows: (
            decoded.append(len(rows)) or orig_decode(p, rows)))
        td = Searcher(reader).search(q, k=n)
        monkeypatch.undo()
        # df = 1 rows were decoded at the parts' open, the rest here
        singles = sum(int((p.single_doc >= 0).sum())
                      for p in sr._parts.values())
        got[cache_size] = (td.doc_ids.tolist(), td.scores.tolist(),
                           sr.rg_reads, sr.rows_loaded,
                           sum(decoded) + singles)
    assert got[4096][2:] == (0, 0, 300)  # no read, every term decoded once
    assert got[50] == got[4096]
