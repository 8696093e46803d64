"""pack_postings_many must be bit-identical to per-term pack_postings,
and both to a per-block ``_pack_block`` / ``_skyline`` reference."""

import numpy as np
import pytest

from lucene_ray.codecs.postings import (
    BLOCK_SIZE,
    MAX_IMPACTS_PER_BLOCK,
    _pack_block,
    _skyline,
    pack_postings,
    pack_postings_many,
    unpack_postings,
    PackedPostings,
)


def _rand_terms(rng, n_terms, skew=False):
    D, F, N, bounds = [], [], [], [0]
    for t in range(n_terms):
        n = int(rng.integers(1, 500)) if not skew else \
            int(rng.choice([1, 2, 5, 127, 128, 129, 1000, 5000]))
        gaps = rng.integers(1, 1000, size=n)
        docs = np.cumsum(gaps) - 1
        freqs = rng.integers(1, 200, size=n)
        norms = rng.integers(0, 256, size=n).astype(np.uint8)
        D.append(docs)
        F.append(freqs)
        N.append(norms)
        bounds.append(bounds[-1] + n)
    return (np.concatenate(D), np.concatenate(F), np.concatenate(N),
            np.asarray(bounds))


def _terms(postings):
    """[(docs, freqs, norms), ...] -> the concatenated batch inputs."""
    D, F, N = (np.concatenate([np.asarray(p[i]) for p in postings])
               for i in range(3))
    bounds = np.concatenate([[0], np.cumsum([len(p[0]) for p in postings])])
    return D.astype(np.int64), F.astype(np.int64), N.astype(np.uint8), bounds


def _edge_terms(rng, case):
    def run(n, first=0, fmax=4):
        docs = first + np.cumsum(rng.integers(1, 9, n)) - 1
        return (docs, rng.integers(1, fmax, n),
                rng.integers(0, 256, n).astype(np.uint8))
    if case == "doc0":
        # doc 0 alone: its docs block packs at width 0
        return _terms([(np.array([0]), np.array([1]),
                        np.array([7], np.uint8)), run(3)])
    if case in ("tails", "vint"):
        return _terms([run(1), run(127), run(129), run(128 + 127),
                       run(3 * 128 + 1)])
    if case == "exact128":
        return _terms([run(128), run(256), run(128, first=5)])
    if case in ("width31", "width32"):
        # width32: freqs past int32, which the int32 readers cannot
        # return, so packing must refuse them
        t = run(200)
        f = t[1].copy()
        f[[0, 150]] = ([2**31 - 1, 2**30] if case == "width31"
                       else [2**31, 2**32 - 1])
        return _terms([(t[0], f, t[2]), run(5)])
    if case == "many_impacts":
        # freq rises as the norm rises: every (freq, norm) pair is
        # competitive, so blocks hold far more than MAX_IMPACTS_PER_BLOCK
        n = 3 * 128 + 40
        docs = np.arange(n) * 3
        norms = (np.arange(n) % 200).astype(np.uint8)
        return _terms([run(50), (docs, norms.astype(np.int64) + 1, norms),
                       run(300, fmax=50)])
    raise ValueError(case)


CASES = {
    False: "for128", True: "for128", "doc0": "for128", "tails": "for128",
    "exact128": "for128", "width31": "for128", "width32": "for128",
    "many_impacts": "for128", "vint": "vint",
}


def _reference_row(docs, freqs, norms, fmt):
    """One term packed block by block with the scalar kernels."""
    docs = np.asarray(docs, np.int64)
    deltas = np.diff(docs, prepend=0).astype(np.uint32)
    blocks = range(0, len(docs), BLOCK_SIZE)
    d_blocks = [_pack_block(deltas[i:i + BLOCK_SIZE], fmt) for i in blocks]
    f_blocks = [_pack_block(np.asarray(freqs[i:i + BLOCK_SIZE], np.uint32),
                            fmt) for i in blocks]
    sky = [_skyline(np.asarray(freqs[i:i + BLOCK_SIZE], np.int64),
                    np.asarray(norms[i:i + BLOCK_SIZE])) for i in blocks]
    return {
        "docs": b"".join(d_blocks), "freqs": b"".join(f_blocks),
        "docs_bb": [len(b) for b in d_blocks],
        "freqs_bb": [len(b) for b in f_blocks],
        "block_last_docs": docs[np.minimum(
            np.arange(1, len(d_blocks) + 1) * BLOCK_SIZE, len(docs)) - 1]
        .tolist(),
        "imp_freqs": np.concatenate([f for f, _ in sky]).tolist(),
        "imp_norms": np.concatenate([n for _, n in sky]).tolist(),
        "imp_offsets": np.concatenate(
            [[0], np.cumsum([len(f) for f, _ in sky])]).tolist(),
        "chunk_doc_counts": [len(docs)],
    }


@pytest.mark.parametrize("skew", list(CASES))
def test_batch_equals_scalar(skew):
    rng = np.random.default_rng(17)
    if isinstance(skew, bool):
        D, F, N, tb = _rand_terms(rng, 60, skew)
    else:
        D, F, N, tb = _edge_terms(rng, skew)
    fmt = CASES[skew]
    if skew == "width32":
        with pytest.raises(ValueError, match="frequency 4294967295 out of"):
            pack_postings_many(D, F, N, tb, postings_format=fmt)
        F[150] = 1  # 2^31 alone is already out of range
        with pytest.raises(ValueError, match="frequency 2147483648 out of"):
            pack_postings(D[:tb[1]], F[:tb[1]], N[:tb[1]],
                          postings_format=fmt)
        return
    many = pack_postings_many(D, F, N, tb, postings_format=fmt).to_pydict()
    assert len(many["docs"]) == len(tb) - 1
    for j in range(len(tb) - 1):
        lo, hi = tb[j], tb[j + 1]
        ref = _reference_row(D[lo:hi], F[lo:hi], N[lo:hi], fmt)
        for col, want in ref.items():
            assert many[col][j] == want, (col, j)
        if skew == "many_impacts" and j == 1:  # every block is oversized
            assert len(np.unique(N[lo:lo + BLOCK_SIZE])) > MAX_IMPACTS_PER_BLOCK
        p = pack_postings(D[lo:hi], F[lo:hi], N[lo:hi], postings_format=fmt)
        assert many["docs"][j] == p.docs, j
        assert many["freqs"][j] == p.freqs, j
        assert many["df"][j] == p.doc_count
        assert many["ttf"][j] == p.ttf
        np.testing.assert_array_equal(many["block_last_docs"][j], p.block_last_docs)
        np.testing.assert_array_equal(many["imp_freqs"][j], p.imp_freqs)
        np.testing.assert_array_equal(many["imp_norms"][j],
                                      p.imp_norms.astype(np.int32))
        np.testing.assert_array_equal(many["imp_offsets"][j], p.imp_offsets)
        np.testing.assert_array_equal(many["docs_bb"][j], p.docs_bb)
        # roundtrip through the batch-packed bytes
        p2 = PackedPostings(
            doc_count=many["df"][j], ttf=many["ttf"][j], docs=many["docs"][j],
            freqs=many["freqs"][j],
            block_last_docs=np.asarray(many["block_last_docs"][j]),
            imp_freqs=np.asarray(many["imp_freqs"][j]),
            imp_norms=np.asarray(many["imp_norms"][j], dtype=np.uint8),
            imp_offsets=np.asarray(many["imp_offsets"][j]),
            chunk_doc_counts=np.asarray(many["chunk_doc_counts"][j]))
        d2, f2 = unpack_postings(p2)
        np.testing.assert_array_equal(d2, D[lo:hi])
        np.testing.assert_array_equal(f2, F[lo:hi])


def test_batch_rejects_out_of_order():
    with pytest.raises(ValueError):
        pack_postings_many(np.array([3, 2]), np.array([1, 1]),
                           np.zeros(2, np.uint8), np.array([0, 2]))
