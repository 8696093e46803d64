"""Postings codec round-trip property tests (BasePostingsFormatTestCase
pattern, SURVEY.md §5.2 / FIXTURES.md F3)."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_ray.codecs import (
    BLOCK_SIZE,
    pack_postings_many,
    unpack_postings_many,
)
from lucene_ray.index.merge import _repack_bucket


def _pack_one(docs, freqs, **kw):
    """One term's postings row: ``pack_postings_many`` over one term."""
    return pack_postings_many(docs, freqs, [0, len(docs)], **kw)


def _unpack_one(row):
    """(docs, freqs) of a one-row postings table."""
    return tuple(unpack_postings_many(row)[0])


def _cell(row, col):
    return row.column(col)[0].as_py()


def _chunk_rows(parts):
    """One postings-table row per (docs, freqs) chunk of term "t" (a
    term's rows in the segments of a merge group)."""
    return pa.concat_tables(
        pack_postings_many(d, f, [0, len(d)], terms=["t"])
        for d, f in parts).combine_chunks()


def make_postings(rng, n, max_gap=1000, heavy_tail=False):
    gaps = rng.integers(1, max_gap, size=n)
    if heavy_tail:
        big = rng.random(n) < 0.05
        gaps[big] = rng.integers(1, 2**20, size=big.sum())
    docs = np.cumsum(gaps) - 1
    freqs = rng.integers(1, 50, size=n).astype(np.int64)
    return docs, freqs


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 256, 10_000])
@pytest.mark.parametrize("heavy", [False, True])
def test_roundtrip_sizes(n, heavy):
    rng = np.random.default_rng(42 + n)
    docs, freqs = make_postings(rng, n, heavy_tail=heavy)
    p = _pack_one(docs, freqs)
    d2, f2 = _unpack_one(p)
    np.testing.assert_array_equal(d2, docs)
    np.testing.assert_array_equal(f2, freqs)
    assert _cell(p, "ttf") == freqs.sum()
    assert _cell(p, "df") == n
    # one block length per 128-doc block, in each stream
    nblocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    assert len(_cell(p, "docs_bb")) == len(_cell(p, "freqs_bb")) == nblocks


def test_all_equal_gaps_block():
    # all-equal deltas exercise the minimal-width path
    docs = np.arange(0, 256 * 7, 7)
    freqs = np.ones(len(docs), dtype=np.int64)
    p = _pack_one(docs, freqs)
    d2, f2 = _unpack_one(p)
    np.testing.assert_array_equal(d2, docs)
    np.testing.assert_array_equal(f2, freqs)


def test_singleton():
    p = _pack_one(np.array([12345]), np.array([3]))
    d2, f2 = _unpack_one(p)
    assert d2.tolist() == [12345] and f2.tolist() == [3]


def test_out_of_order_rejected():
    with pytest.raises(ValueError):
        _pack_one(np.array([5, 5]), np.array([1, 1]))
    with pytest.raises(ValueError):
        _pack_one(np.array([9, 3]), np.array([1, 1]))


@pytest.fixture(scope="module")
def bound_readers(ray_session, tmp_path_factory):
    """A Zipf corpus of 6,000 docs of 5-60 words (so norms vary) as four
    kinds of segment: built (4 x 1,500 docs), the same with ~10% of
    docs tombstoned, those segments merged into one (its head terms
    span more than 32 blocks), and built with ``vint`` postings.
    Returns ({kind: IndexReader}, terms by descending df)."""
    import pyarrow.parquet as pq

    from lucene_ray.index import build_index
    from lucene_ray.index.deletes import apply_deletes
    from lucene_ray.index.manifest import read_manifest
    from lucene_ray.index.merge import merge_segments
    from lucene_ray.search import IndexReader
    rng = np.random.default_rng(31)
    vocab = [f"v{i:03d}" for i in range(200)]
    p = 1.0 / np.arange(1, len(vocab) + 1)
    texts = [" ".join(rng.choice(vocab, int(rng.integers(5, 60)),
                                 p=p / p.sum())) for _ in range(6000)]
    d = tmp_path_factory.mktemp("bounds")
    path = str(d / "docs.parquet")
    pq.write_table(pa.table({"doc_id": np.arange(len(texts)),
                             "text": texts}), path)
    out, vint = str(d / "idx"), str(d / "vint")
    build_index(path, out, batch_size=1500)
    build_index(path, vint, batch_size=1500, postings_format="vint")
    built = read_manifest(out).generation
    r = IndexReader(out)
    tomb = apply_deletes(out, {
        i.seg_id: sr.doc_ids[rng.random(len(sr.doc_ids)) < 0.1]
        for sr, i in zip(r.segments(), r.segment_infos)}).generation
    merged = merge_segments(out).generation
    return {"built": IndexReader(out, generation=built),
            "tombstoned": IndexReader(out, generation=tomb),
            "merged": IndexReader(out, generation=merged),
            "vint": IndexReader(vint)}, vocab


def _x(s, sr, dec):
    """float32 ``freq * normInverse[norm]`` of each posting, from the
    segment's norm bytes (the reference's per-posting score input)."""
    norm = dict(zip(sr.doc_ids.tolist(), sr.norms.tolist()))
    return dec.freqs.astype(np.float32) * s.cache[
        [norm[doc] for doc in dec.docs.tolist()]]


@pytest.mark.parametrize("kind", ["built", "tombstoned", "merged", "vint"])
def test_score_orders_are_monotone(bound_readers, kind):
    """Each term of more than k postings that a top-k has walked has a
    score order in its segment reader's LRU entry, sorted under the
    searcher's norm-inverse table (``SegmentReader.score_order``): a
    permutation of its postings, tombstoned ones included, along which
    x never increases, docs ascend within a run of equal x, and float32
    scores never increase, for a normal, a large and a subnormal
    weight."""
    from lucene_ray.search import Searcher, TermQuery, bm25
    readers, vocab = bound_readers
    reader = readers[kind]
    s = Searcher(reader)
    one = np.float32(1)
    for t in vocab[:60]:
        s.search(TermQuery(t), 10)
    checked = 0
    for sr in reader.segments():
        for t in vocab[:60]:
            dec = sr.get_decoded(t)
            entry = sr._cache.get(t)
            order = None if entry is None else entry.order
            if dec is None or len(dec.docs) <= 10:
                assert order is None, t
                continue
            assert entry.table is s.cache and order.dtype == np.int32
            assert np.array_equal(np.sort(order), np.arange(len(dec.docs)))
            x, docs = _x(s, sr, dec)[order], dec.docs[order]
            assert (x[1:] <= x[:-1]).all(), t
            tie = x[1:] == x[:-1]
            assert (docs[1:][tie] > docs[:-1][tie]).all(), t
            df = reader.term_stats([t])[t][0]
            for boost in (1.0, 1e6, 1e-42):
                w = bm25.term_weight(boost, df, reader.doc_count)
                assert w > 0
                sc = w - w / (one + x)
                assert (sc[1:] <= sc[:-1]).all(), (t, boost)
            checked += 1
    assert checked >= 60


@pytest.mark.parametrize("kind", ["built", "tombstoned", "merged"])
def test_subnormal_boost_ties_match_eval_complete(bound_readers, kind):
    """A boost of 1e-42 makes the weight a positive subnormal float32,
    so scores collapse onto few values and unequal x give equal scores:
    for some (term, segment) the first 10 live postings by x are not the
    top 10 by (score desc, doc asc), and the top-k still keeps
    eval_complete's ids and float32 score bits. A boost of 0 scores
    every match 0, so docID order decides."""
    from lucene_ray.search import Searcher, TermQuery, bm25
    readers, vocab = bound_readers
    reader = readers[kind]
    s = Searcher(reader)
    reordered = 0
    for t in vocab[:20]:
        w = bm25.term_weight(1e-42, reader.term_stats([t])[t][0],
                             reader.doc_count)
        assert 0 < w < np.finfo(np.float32).tiny
        s.search(TermQuery(t, 1e-42), 10)
        for sr in reader.segments():
            dec = sr.get_decoded(t)
            live = sr.live_mask(dec.docs)
            live = np.ones(len(dec.docs), bool) if live is None else live
            docs, x = dec.docs[live], _x(s, sr, dec)[live]
            sc = bm25.score_freqs(dec.freqs[live], sr.norms_for(docs), w,
                                  s.cache)
            by_x = docs[np.lexsort((docs, -x.astype(np.float64)))[:10]]
            by_score = docs[np.lexsort((docs, -sc.astype(np.float64)))[:10]]
            reordered += set(by_x.tolist()) != set(by_score.tolist())
    assert reordered >= 1
    for t in vocab[:20]:
        for boost in (1e-42, 0.0):
            docs, scores = s.eval_complete(TermQuery(t, boost))
            s32 = np.asarray(scores).astype(np.float32)
            if boost == 0.0:
                assert not s32.any()
            for k in (1, 10, 100):
                order = np.lexsort((docs, -s32.astype(np.float64)))[:k]
                td = s.search(TermQuery(t, boost), k)
                assert np.array_equal(td.doc_ids, np.asarray(docs)[order]), \
                    (t, boost, k)
                assert np.array_equal(
                    td.scores.astype(np.float32).view(np.uint32),
                    s32[order].view(np.uint32)), (t, boost, k)


@pytest.mark.parametrize("kind", ["built", "tombstoned", "merged", "vint"])
def test_pruned_top_k_matches_eval_complete(bound_readers, kind):
    """The score-ordered single-term top-k keeps eval_complete's ids and
    float32 score bits, also on terms of many blocks, whose walk stops
    far before their last posting."""
    from lucene_ray.search import Searcher, TermQuery
    readers, vocab = bound_readers
    reader = readers[kind]
    s = Searcher(reader)
    most = max(-(-len(sr.get_decoded(vocab[0]).docs) // BLOCK_SIZE)
               for sr in reader.segments())
    assert most > (32 if kind == "merged" else 8)
    for t in vocab[:20]:
        docs, scores = s.eval_complete(TermQuery(t))
        s32 = np.asarray(scores).astype(np.float32)
        for k in (1, 10, 100):
            order = np.lexsort((docs, -s32.astype(np.float64)))[:k]
            td = s.search(TermQuery(t), k)
            assert np.array_equal(td.doc_ids, np.asarray(docs)[order]), (t, k)
            assert np.array_equal(
                td.scores.astype(np.float32).view(np.uint32),
                s32[order].view(np.uint32)), (t, k)


def test_repack_reblocks():
    rng = np.random.default_rng(5)
    parts = []
    base = 0
    for i in range(3):
        docs, freqs = make_postings(rng, 200)
        docs = docs + base
        base = int(docs[-1]) + 7
        parts.append((docs, freqs))
    rows = _chunk_rows(parts)
    repacked = _repack_bucket(rows, None)
    d_r, f_r = _unpack_one(repacked)
    np.testing.assert_array_equal(d_r, np.concatenate([d for d, _ in parts]))
    np.testing.assert_array_equal(f_r, np.concatenate([f for _, f in parts]))
    assert len(repacked) == 1 and _cell(repacked, "df") == 600
    assert len(_cell(repacked, "docs_bb")) == \
        (600 + BLOCK_SIZE - 1) // BLOCK_SIZE


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 2**18), st.integers(1, 10**4)),
                min_size=1, max_size=600))
def test_roundtrip_hypothesis(gap_freq):
    gaps = np.array([g for g, _ in gap_freq], dtype=np.int64)
    freqs = np.array([f for _, f in gap_freq], dtype=np.int64)
    docs = np.cumsum(gaps) - 1
    p = _pack_one(docs, freqs)
    d2, f2 = _unpack_one(p)
    np.testing.assert_array_equal(d2, docs)
    np.testing.assert_array_equal(f2, freqs)


# -- batched decode: unpack_postings_many == one-row decode ------------------

def _chunked_group(rng, n_chunks, fmts=("for128",)):
    """Rows of terms a/b/c packed per chunk over disjoint doc ranges
    (chunk 0 starts at docID 0, so a one-doc chunk there packs a width-0
    docs block), in chunk order — the parts of a merge group's
    segments. Returns (rows, the docID bound of every chunk)."""
    tables, base = [], 0
    for c in range(n_chunks):
        sizes = [1 if c == 0 else int(rng.integers(1, 300)),
                 int(rng.integers(1, 400)), 128 * (c + 1)]
        d, f, tb = [], [], [0]
        for n in sizes:
            d.append(base + np.sort(rng.choice(3 * n + 3, n, replace=False)))
            f.append(rng.integers(1, 60, n))
            tb.append(tb[-1] + n)
        D = np.concatenate(d)
        tables.append(pack_postings_many(
            D, np.concatenate(f), tb, terms=["a", "b", "c"],
            postings_format=fmts[c % len(fmts)]))
        base = int(D.max()) + 1 + int(rng.integers(0, 9))
    return pa.concat_tables(tables).combine_chunks(), base


def _packed_rows(kind, rng):
    if kind == "built":
        sizes = [1, 2, 127, 128, 129, 300, 1000]
        d, f, tb = [], [], [0]
        for n in sizes:
            d.append(np.sort(rng.choice(3000, n, replace=False)))
            f.append(rng.integers(1, 2**20, n))
            tb.append(tb[-1] + n)
        d[0][:] = 0  # one posting at docID 0: a width-0 docs block
        D = np.concatenate(d)
        t = pack_postings_many(D, np.concatenate(f), tb,
                               terms=[f"t{i}" for i in range(len(sizes))])
        assert t.column("docs")[0].as_py() == b"\x00"
        return t
    if kind in ("tagged_vint", "tagged_pfor"):
        rows, _ = _chunked_group(rng, 1, fmts=(kind[len("tagged_"):],))
        return rows
    rows, n_docs = _chunked_group(
        rng, 4, fmts=("for128", "vint") if kind == "mixed" else ("for128",))
    # the merge of doc-disjoint segments: clean ("concat", "repacked"),
    # of for128 and vint sources ("mixed"), or with tombstones
    deleted = np.arange(0, n_docs, 7) if kind == "tombstoned" else None
    return _repack_bucket(rows, deleted)


@pytest.mark.parametrize("kind", ["built", "concat", "repacked",
                                  "tombstoned", "tagged_vint",
                                  "tagged_pfor", "mixed"])
def test_unpack_postings_many_equals_per_term_decode(kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    table = _packed_rows(kind, rng)
    n = len(table)
    packed = [table.slice(i, 1) for i in range(n)]  # one row alone
    # every row is one run of 128-doc blocks, also after a merge
    assert all(len(_cell(p, "docs_bb")) == -(-_cell(p, "df") // BLOCK_SIZE)
               for p in packed)
    # whole table, a slice (Arrow offsets not at 0), rows out of order
    for t, ps in ((table, packed), (table.slice(1), packed[1:]),
                  (table.take(list(range(n))[::-1]), packed[::-1])):
        got = unpack_postings_many(t)
        assert len(got) == len(ps)
        for g, p in zip(got, ps):
            for a, b in zip(g, unpack_postings_many(p)[0]):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert not (g.docs.flags.writeable or g.freqs.flags.writeable)
    assert unpack_postings_many(table.slice(0, 0)) == []
