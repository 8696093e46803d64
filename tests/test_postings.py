"""Postings codec round-trip property tests (BasePostingsFormatTestCase
pattern, SURVEY.md §5.2 / FIXTURES.md F3)."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_ray.codecs import (
    BLOCK_SIZE,
    compute_impacts,
    pack_postings,
    unpack_postings,
)
from lucene_ray.codecs.postings import pack_postings_many
from lucene_ray.index.merge import _merge_bucket_vec, _repack_bucket
from lucene_ray.search.reader import _rows_to_postings


def _chunk_rows(parts):
    """One postings-table row per (docs, freqs, norms) chunk of term "t"."""
    return pa.concat_tables(
        pack_postings_many(d, f, n, [0, len(d)], terms=["t"])
        for d, f, n in parts).combine_chunks()


def _concat(parts):
    """The chunks of one term joined by the merge's concat kernel."""
    return _rows_to_postings(_merge_bucket_vec(_chunk_rows(parts)))[0]


def make_postings(rng, n, max_gap=1000, heavy_tail=False):
    gaps = rng.integers(1, max_gap, size=n)
    if heavy_tail:
        big = rng.random(n) < 0.05
        gaps[big] = rng.integers(1, 2**20, size=big.sum())
    docs = np.cumsum(gaps) - 1
    freqs = rng.integers(1, 50, size=n).astype(np.int64)
    norms = rng.integers(0, 256, size=n).astype(np.uint8)
    return docs, freqs, norms


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 256, 10_000])
@pytest.mark.parametrize("heavy", [False, True])
def test_roundtrip_sizes(n, heavy):
    rng = np.random.default_rng(42 + n)
    docs, freqs, norms = make_postings(rng, n, heavy_tail=heavy)
    p = pack_postings(docs, freqs, norms)
    d2, f2 = unpack_postings(p)
    np.testing.assert_array_equal(d2, docs)
    np.testing.assert_array_equal(f2, freqs)
    assert p.ttf == freqs.sum()
    assert p.doc_count == n
    # skip entries land on block boundaries
    nblocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    assert len(p.block_last_docs) == nblocks
    for b in range(nblocks):
        last = min((b + 1) * BLOCK_SIZE, n) - 1
        assert p.block_last_docs[b] == docs[last]


def test_all_equal_gaps_block():
    # all-equal deltas exercise the minimal-width path
    docs = np.arange(0, 256 * 7, 7)
    freqs = np.ones(len(docs), dtype=np.int64)
    norms = np.full(len(docs), 17, dtype=np.uint8)
    p = pack_postings(docs, freqs, norms)
    d2, f2 = unpack_postings(p)
    np.testing.assert_array_equal(d2, docs)
    np.testing.assert_array_equal(f2, freqs)


def test_singleton():
    p = pack_postings(np.array([12345]), np.array([3]), np.array([9], dtype=np.uint8))
    d2, f2 = unpack_postings(p)
    assert d2.tolist() == [12345] and f2.tolist() == [3]


def test_out_of_order_rejected():
    with pytest.raises(ValueError):
        pack_postings(np.array([5, 5]), np.array([1, 1]), np.zeros(2, dtype=np.uint8))
    with pytest.raises(ValueError):
        pack_postings(np.array([9, 3]), np.array([1, 1]), np.zeros(2, dtype=np.uint8))


def test_impacts_dominate_all_pairs():
    # per-level impacts must dominate every (freq, norm) in their range
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 400))
        freqs = rng.integers(1, 1000, size=n)
        norms = rng.integers(0, 256, size=n).astype(np.uint8)
        imp_f, imp_n, imp_off = compute_impacts(freqs, norms)
        nblocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
        assert len(imp_off) == nblocks + 1
        for b in range(nblocks):
            sl = slice(b * BLOCK_SIZE, min((b + 1) * BLOCK_SIZE, n))
            bf, bn = freqs[sl], norms[sl]
            pf = imp_f[imp_off[b]:imp_off[b + 1]]
            pn = imp_n[imp_off[b]:imp_off[b + 1]]
            assert len(pf) <= 8
            # every true pair is dominated by some impact pair
            for f, nn in zip(bf, bn):
                assert ((pf >= f) & (pn <= nn)).any(), (f, nn, pf, pn)


def test_concat_chunks_roundtrip():
    rng = np.random.default_rng(11)
    base = 0
    parts = []
    for i in range(4):
        n = int(rng.integers(1, 700))
        docs, freqs, norms = make_postings(rng, n)
        docs = docs + base
        base = int(docs[-1]) + 1 + int(rng.integers(1, 100))
        parts.append((docs, freqs, norms))
    merged = _concat(parts)
    d2, f2 = unpack_postings(merged)
    np.testing.assert_array_equal(d2, np.concatenate([d for d, _, _ in parts]))
    np.testing.assert_array_equal(f2, np.concatenate([f for _, f, _ in parts]))
    assert merged.ttf == sum(int(f.sum()) for _, f, _ in parts)
    # impacts survive concat with correct offsets
    assert merged.imp_offsets[-1] == len(merged.imp_freqs)


def test_repack_reblocks():
    rng = np.random.default_rng(5)
    norm_table = rng.integers(0, 256, size=1 << 21).astype(np.uint8)
    parts = []
    base = 0
    for i in range(3):
        docs, freqs, _ = make_postings(rng, 200)
        docs = docs + base
        base = int(docs[-1]) + 7
        parts.append((docs, freqs, norm_table[docs]))
    rows = _chunk_rows(parts)
    repacked = _rows_to_postings(_repack_bucket(
        rows, (np.arange(len(norm_table)), norm_table), None))[0]
    d_m, f_m = unpack_postings(_concat(parts))
    d_r, f_r = unpack_postings(repacked)
    np.testing.assert_array_equal(d_m, d_r)
    np.testing.assert_array_equal(f_m, f_r)
    assert len(repacked.chunk_doc_counts) == 1
    assert len(repacked.block_last_docs) == (600 + BLOCK_SIZE - 1) // BLOCK_SIZE


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 2**18), st.integers(1, 10**4)),
                min_size=1, max_size=600))
def test_roundtrip_hypothesis(gap_freq):
    gaps = np.array([g for g, _ in gap_freq], dtype=np.int64)
    freqs = np.array([f for _, f in gap_freq], dtype=np.int64)
    docs = np.cumsum(gaps) - 1
    norms = (docs % 251).astype(np.uint8)
    p = pack_postings(docs, freqs, norms)
    d2, f2 = unpack_postings(p)
    np.testing.assert_array_equal(d2, docs)
    np.testing.assert_array_equal(f2, freqs)
