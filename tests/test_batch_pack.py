"""pack_postings_many over many terms must be bit-identical to the same
kernel over each term alone, and both to a per-block ``_pack_block``
reference."""

import numpy as np
import pytest

from lucene_ray.codecs.postings import (
    BLOCK_SIZE,
    _pack_block,
    pack_postings_many,
    unpack_postings_many,
)


def _pack_one(docs, freqs, **kw):
    """One term's postings row: ``pack_postings_many`` over one term."""
    return pack_postings_many(docs, freqs, [0, len(docs)], **kw)


def _rand_terms(rng, n_terms, skew=False):
    D, F, bounds = [], [], [0]
    for t in range(n_terms):
        n = int(rng.integers(1, 500)) if not skew else \
            int(rng.choice([1, 2, 5, 127, 128, 129, 1000, 5000]))
        gaps = rng.integers(1, 1000, size=n)
        docs = np.cumsum(gaps) - 1
        freqs = rng.integers(1, 200, size=n)
        D.append(docs)
        F.append(freqs)
        bounds.append(bounds[-1] + n)
    return np.concatenate(D), np.concatenate(F), np.asarray(bounds)


def _terms(postings):
    """[(docs, freqs), ...] -> the concatenated batch inputs."""
    D, F = (np.concatenate([np.asarray(p[i]) for p in postings])
            for i in range(2))
    bounds = np.concatenate([[0], np.cumsum([len(p[0]) for p in postings])])
    return D.astype(np.int64), F.astype(np.int64), bounds


def _edge_terms(rng, case):
    def run(n, first=0, fmax=4):
        docs = first + np.cumsum(rng.integers(1, 9, n)) - 1
        return docs, rng.integers(1, fmax, n)
    if case == "doc0":
        # doc 0 alone: its docs block packs at width 0
        return _terms([(np.array([0]), np.array([1])), run(3)])
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
        return _terms([(t[0], f), run(5)])
    if case == "many_impacts":
        # evenly spaced docs whose freqs climb 1..200 and wrap: many
        # distinct freqs per block, and full blocks plus a tail
        n = 3 * 128 + 40
        docs = np.arange(n) * 3
        return _terms([run(50), (docs, np.arange(n) % 200 + 1),
                       run(300, fmax=50)])
    raise ValueError(case)


CASES = {
    False: "for128", True: "for128", "doc0": "for128", "tails": "for128",
    "exact128": "for128", "width31": "for128", "width32": "for128",
    "many_impacts": "for128", "vint": "vint",
}


def _reference_row(docs, freqs, fmt):
    """One term packed block by block with the scalar kernels."""
    docs = np.asarray(docs, np.int64)
    deltas = np.diff(docs, prepend=0).astype(np.uint32)
    blocks = range(0, len(docs), BLOCK_SIZE)
    d_blocks = [_pack_block(deltas[i:i + BLOCK_SIZE], fmt) for i in blocks]
    f_blocks = [_pack_block(np.asarray(freqs[i:i + BLOCK_SIZE], np.uint32),
                            fmt) for i in blocks]
    return {
        "docs": b"".join(d_blocks), "freqs": b"".join(f_blocks),
        "docs_bb": [len(b) for b in d_blocks],
        "freqs_bb": [len(b) for b in f_blocks],
    }


@pytest.mark.parametrize("skew", list(CASES))
def test_batch_equals_scalar(skew):
    rng = np.random.default_rng(17)
    if isinstance(skew, bool):
        D, F, tb = _rand_terms(rng, 60, skew)
    else:
        D, F, tb = _edge_terms(rng, skew)
    fmt = CASES[skew]
    if skew == "width32":
        with pytest.raises(ValueError, match="frequency 4294967295 out of"):
            pack_postings_many(D, F, tb, postings_format=fmt)
        F[150] = 1  # 2^31 alone is already out of range
        with pytest.raises(ValueError, match="frequency 2147483648 out of"):
            _pack_one(D[:tb[1]], F[:tb[1]], postings_format=fmt)
        return
    table = pack_postings_many(D, F, tb, postings_format=fmt)
    many = table.to_pydict()
    assert len(many["docs"]) == len(tb) - 1
    for j in range(len(tb) - 1):
        lo, hi = tb[j], tb[j + 1]
        ref = _reference_row(D[lo:hi], F[lo:hi], fmt)
        for col, want in ref.items():
            assert many[col][j] == want, (col, j)
        p = _pack_one(D[lo:hi], F[lo:hi], postings_format=fmt).to_pydict()
        assert many["docs"][j] == p["docs"][0], j
        assert many["freqs"][j] == p["freqs"][0], j
        assert many["df"][j] == p["df"][0]
        assert many["ttf"][j] == p["ttf"][0]
        np.testing.assert_array_equal(many["docs_bb"][j], p["docs_bb"][0])
        # roundtrip through the batch-packed bytes, the row alone
        d2, f2 = unpack_postings_many(table.slice(j, 1))[0]
        np.testing.assert_array_equal(d2, D[lo:hi])
        np.testing.assert_array_equal(f2, F[lo:hi])


def test_batch_rejects_out_of_order():
    with pytest.raises(ValueError):
        pack_postings_many(np.array([3, 2]), np.array([1, 1]),
                           np.array([0, 2]))
