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
from lucene_ray.index.merge import _repack_bucket
from lucene_ray.search.reader import _rows_to_postings


def _chunk_rows(parts):
    """One postings-table row per (docs, freqs, norms) chunk of term "t"
    (a term's rows in the segments of a merge group)."""
    return pa.concat_tables(
        pack_postings_many(d, f, n, [0, len(d)], terms=["t"])
        for d, f, n in parts).combine_chunks()


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
    assert p.df == n
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
    d_r, f_r = unpack_postings(repacked)
    np.testing.assert_array_equal(d_r, np.concatenate([d for d, _, _ in parts]))
    np.testing.assert_array_equal(f_r, np.concatenate([f for _, f, _ in parts]))
    assert repacked.df == 600
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


# -- batched decode: unpack_postings_many == per-term decode -----------------

def _chunked_group(rng, n_chunks, fmts=("for128",)):
    """Rows of terms a/b/c packed per chunk over disjoint doc ranges
    (chunk 0 starts at docID 0, so a one-doc chunk there packs a width-0
    docs block), in chunk order — the parts of a merge group's
    segments. Returns (rows, norms of every docID)."""
    norms = rng.integers(1, 255, 40_000).astype(np.uint8)
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
            D, np.concatenate(f), norms[D], tb, terms=["a", "b", "c"],
            postings_format=fmts[c % len(fmts)]))
        base = int(D.max()) + 1 + int(rng.integers(0, 9))
    return pa.concat_tables(tables).combine_chunks(), norms


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
        t = pack_postings_many(D, np.concatenate(f),
                               rng.integers(1, 255, len(D)), tb,
                               terms=[f"t{i}" for i in range(len(sizes))])
        assert t.column("docs")[0].as_py() == b"\x00"
        return t
    if kind in ("tagged_vint", "tagged_pfor"):
        rows, _ = _chunked_group(rng, 1, fmts=(kind[len("tagged_"):],))
        return rows
    rows, norms = _chunked_group(
        rng, 4, fmts=("for128", "vint") if kind == "mixed" else ("for128",))
    # the merge of doc-disjoint segments: clean ("concat", "repacked"),
    # of for128 and vint sources ("mixed"), or with tombstones
    deleted = np.arange(0, len(norms), 7) if kind == "tombstoned" else None
    return _repack_bucket(rows, (np.arange(len(norms)), norms), deleted)


@pytest.mark.parametrize("kind", ["built", "concat", "repacked",
                                  "tombstoned", "tagged_vint",
                                  "tagged_pfor", "mixed"])
def test_unpack_postings_many_equals_per_term_decode(kind):
    from lucene_ray.codecs.postings import unpack_postings_many
    from lucene_ray.search.postings_io import decode
    rng = np.random.default_rng(sum(map(ord, kind)))
    table = _packed_rows(kind, rng)
    packed = _rows_to_postings(table)
    # every row is one run of 128-doc blocks, also after a merge
    assert all(len(p.docs_bb) == -(-p.df // BLOCK_SIZE) for p in packed)
    # whole table, a slice (Arrow offsets not at 0), rows out of order
    n = len(table)
    for t, ps in ((table, packed), (table.slice(1), packed[1:]),
                  (table.take(list(range(n))[::-1]), packed[::-1])):
        got = unpack_postings_many(t)
        assert len(got) == len(ps)
        for g, p in zip(got, ps):
            for a, b in zip(g, decode(p)):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert not (g.docs.flags.writeable or g.freqs.flags.writeable
                        or g.block_starts.flags.writeable)
    assert unpack_postings_many(table.slice(0, 0)) == []
