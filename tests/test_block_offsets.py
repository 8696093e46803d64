"""Pack-time block byte lengths: stream_layout must equal the header
scan, for single terms, giant terms and batch packs — and a posting
whose lengths do not cover its blocks is refused, not scanned.

Reference role: ``Lucene90SkipWriter`` records posting-file pointers at
write time so readers never scan block headers
(lucene/core/src/java/org/apache/lucene/codecs/lucene90/
Lucene90SkipWriter.java:76).
"""

import numpy as np
import pytest

from lucene_ray.codecs.postings import (
    _block_sizes,
    _scan_block_offsets,
    pack_postings,
    pack_postings_many,
    stream_layout,
    unpack_postings,
)


def _rand_posting(rng, n, start=0):
    gaps = rng.integers(1, 50, n)
    docs = start + np.cumsum(gaps)
    freqs = rng.integers(1, 200, n)
    return docs, freqs


@pytest.mark.parametrize("n", [1, 127, 128, 129, 1000, 100_000])
def test_layout_matches_scan(n):
    rng = np.random.default_rng(n)
    docs, freqs = _rand_posting(rng, n)
    p = pack_postings(docs, freqs)
    sizes = _block_sizes(p.df)
    assert len(p.docs_bb) == len(sizes)
    for stream, buf in (("docs", p.docs), ("freqs", p.freqs)):
        offs, widths = stream_layout(p, stream)
        soffs, swidths = _scan_block_offsets(buf, sizes)
        np.testing.assert_array_equal(offs, soffs)
        np.testing.assert_array_equal(widths, swidths)
    d1, f1 = unpack_postings(p)
    np.testing.assert_array_equal(d1, docs)
    np.testing.assert_array_equal(f1, freqs)
    # a row without pack-time lengths is not this format: refused
    for stream in ("docs", "freqs"):
        stripped = p._replace(**{f"{stream}_bb": np.empty(0, np.int32)})
        with pytest.raises(ValueError, match="block lengths"):
            stream_layout(stripped, stream)
        with pytest.raises(ValueError, match="block lengths"):
            unpack_postings(stripped)


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
        p = pack_postings(D[lo:hi], F[lo:hi])
        np.testing.assert_array_equal(many["docs_bb"][j], p.docs_bb)
        np.testing.assert_array_equal(many["freqs_bb"][j], p.freqs_bb)


def test_giant_term_layout_is_not_scanned(benchmark=None):
    """A 2M-doc posting (15k+ blocks): the stored-lengths layout is
    exact and much cheaper than the header scan (no per-block Python)."""
    import time
    rng = np.random.default_rng(3)
    docs, freqs = _rand_posting(rng, 2_000_000)
    p = pack_postings(docs, freqs)
    sizes = _block_sizes(p.df)
    t0 = time.perf_counter()
    offs, widths = stream_layout(p, "docs")
    fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    soffs, swidths = _scan_block_offsets(p.docs, sizes)
    slow = time.perf_counter() - t0
    np.testing.assert_array_equal(offs, soffs)
    np.testing.assert_array_equal(widths, swidths)
    # sanity (not a strict perf gate — CI noise): cumsum path should
    # beat the 15k-iteration Python scan comfortably
    assert fast < slow, (fast, slow)
