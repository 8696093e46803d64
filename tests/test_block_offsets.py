"""Pack-time block byte lengths: the layout they give (``_bb_layout``)
must equal the header scan, for single terms, giant terms and batch
packs — and a posting whose lengths do not cover its blocks is refused,
not scanned.

Reference role: ``Lucene90SkipWriter`` records posting-file pointers at
write time so readers never scan block headers
(lucene/core/src/java/org/apache/lucene/codecs/lucene90/
Lucene90SkipWriter.java:76).
"""

import numpy as np
import pyarrow as pa
import pytest

from lucene_ray.codecs.postings import (
    _bb_layout,
    _block_sizes,
    _scan_block_offsets,
    pack_postings_many,
    unpack_postings_many,
)


def _pack_one(docs, freqs):
    """One term's postings row: ``pack_postings_many`` over one term."""
    return pack_postings_many(docs, freqs, [0, len(docs)])


def _stream_layout(row, stream):
    """(byte offsets, widths) of the ``docs`` or ``freqs`` stream of a
    one-row postings table, from its pack-time block lengths."""
    bb = np.asarray(row.column(f"{stream}_bb")[0].as_py(), np.int32)
    return _bb_layout(row.column(stream)[0].as_py(), bb,
                      -(-row.column("df")[0].as_py() // 128), stream)


def _rand_posting(rng, n, start=0):
    gaps = rng.integers(1, 50, n)
    docs = start + np.cumsum(gaps)
    freqs = rng.integers(1, 200, n)
    return docs, freqs


@pytest.mark.parametrize("n", [1, 127, 128, 129, 1000, 100_000])
def test_layout_matches_scan(n):
    rng = np.random.default_rng(n)
    docs, freqs = _rand_posting(rng, n)
    p = _pack_one(docs, freqs)
    sizes = _block_sizes(p.column("df")[0].as_py())
    assert len(p.column("docs_bb")[0]) == len(sizes)
    for stream in ("docs", "freqs"):
        offs, widths = _stream_layout(p, stream)
        soffs, swidths = _scan_block_offsets(p.column(stream)[0].as_py(),
                                             sizes)
        np.testing.assert_array_equal(offs, soffs)
        np.testing.assert_array_equal(widths, swidths)
    d1, f1 = unpack_postings_many(p)[0]
    np.testing.assert_array_equal(d1, docs)
    np.testing.assert_array_equal(f1, freqs)
    # a row without pack-time lengths is not this format: refused
    for stream in ("docs", "freqs"):
        col = f"{stream}_bb"
        i = p.schema.get_field_index(col)
        stripped = p.set_column(i, p.schema.field(i),
                                pa.array([[]], p.schema.field(i).type))
        with pytest.raises(ValueError, match="block lengths"):
            _stream_layout(stripped, stream)
        with pytest.raises(ValueError, match="block lengths"):
            unpack_postings_many(stripped)


def test_batch_pack_emits_lengths():
    rng = np.random.default_rng(11)
    D, F, tb = [], [], [0]
    for _ in range(20):
        docs, freqs = _rand_posting(rng, int(rng.integers(1, 400)))
        D.append(docs)
        F.append(freqs)
        tb.append(tb[-1] + len(docs))
    D, F = map(np.concatenate, (D, F))
    many = pack_postings_many(D, F, np.asarray(tb)).to_pydict()
    for j in range(20):
        lo, hi = tb[j], tb[j + 1]
        p = _pack_one(D[lo:hi], F[lo:hi]).to_pydict()
        np.testing.assert_array_equal(many["docs_bb"][j], p["docs_bb"][0])
        np.testing.assert_array_equal(many["freqs_bb"][j], p["freqs_bb"][0])


def test_giant_term_layout_is_not_scanned(benchmark=None):
    """A 2M-doc posting (15k+ blocks): the stored-lengths layout is
    exact and much cheaper than the header scan (no per-block Python)."""
    import time
    rng = np.random.default_rng(3)
    docs, freqs = _rand_posting(rng, 2_000_000)
    p = _pack_one(docs, freqs)
    sizes = _block_sizes(len(docs))
    buf = p.column("docs")[0].as_py()
    bb = np.asarray(p.column("docs_bb")[0].as_py(), np.int32)
    t0 = time.perf_counter()
    offs, widths = _bb_layout(buf, bb, len(sizes), "docs")
    fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    soffs, swidths = _scan_block_offsets(buf, sizes)
    slow = time.perf_counter() - t0
    np.testing.assert_array_equal(offs, soffs)
    np.testing.assert_array_equal(widths, swidths)
    # sanity (not a strict perf gate — CI noise): cumsum path should
    # beat the 15k-iteration Python scan comfortably
    assert fast < slow, (fast, slow)
