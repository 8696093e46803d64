"""MultiPhraseQuery (search/MultiPhraseQuery.java role): union-of-
alternatives exact phrase, cross-checked against a Python brute-force
matcher and against the expanded single-phrase queries."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index import build_index
from lucene_ray.search import (
    IndexReader, MultiPhraseQuery, PhraseQuery, Searcher, TermQuery,
)

TEXTS = [
    "data merge data window block",      # matches both alternatives
    "data merge merge data",             # "data merge" once
    "data window",                       # "data window" once
    "window data merge",                 # "data merge" once
    "merge window data",                 # no "data X" phrase
    "data data merge",                   # "data merge" once (pos 1)
    "block spark",                       # nothing
    "data merge data merge",             # "data merge" twice
]


def _brute_freq(text, positions):
    toks = text.split()
    n = 0
    for s in range(len(toks)):
        if all(s + i < len(toks) and toks[s + i] in alts
               for i, alts in enumerate(positions)):
            n += 1
    return n


@pytest.fixture(scope="module")
def idx(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("mpq")
    path = str(d / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(10, 10 + len(TEXTS)), pa.int64()),
        "text": pa.array(TEXTS)}), path)
    out = str(d / "idx")
    build_index(path, out, batch_size=3, index_positions=True)
    return out


def test_match_equals_expanded_union(idx):
    s = Searcher(IndexReader(idx))
    mpq = MultiPhraseQuery((("data",), ("merge", "window")))
    got = set(s.match_docs(mpq).tolist())
    want = (set(s.match_docs(PhraseQuery(("data", "merge"))).tolist())
            | set(s.match_docs(PhraseQuery(("data", "window"))).tolist()))
    brute = {10 + i for i, t in enumerate(TEXTS)
             if _brute_freq(t, [("data",), ("merge", "window")])}
    assert got == want == brute


def test_phrase_freqs_match_brute_force(idx):
    s = Searcher(IndexReader(idx))
    positions = (("data",), ("merge", "window"))
    got = {}
    for sr in s.reader.segments():
        cand = s._gather(sr, positions)
        docs, freqs = (s._slot_freqs(*cand, positions, 0, "phrase")
                       if cand is not None else (None, None))
        if docs is not None:
            for d, f in zip(docs.tolist(), freqs.tolist()):
                got[d] = got.get(d, 0) + f
    want = {10 + i: _brute_freq(t, positions)
            for i, t in enumerate(TEXTS)
            if _brute_freq(t, positions)}
    assert got == want


def test_three_slot_and_missing_term(idx):
    s = Searcher(IndexReader(idx))
    positions = (("data",), ("merge", "window"), ("data", "block"))
    got = set(s.match_docs(MultiPhraseQuery(positions)).tolist())
    brute = {10 + i for i, t in enumerate(TEXTS)
             if _brute_freq(t, positions)}
    assert got == brute
    # a slot whose terms are all absent matches nothing
    none = s.match_docs(MultiPhraseQuery((("data",), ("zzzmissing",))))
    assert len(none) == 0


def test_rewrite_degenerate_forms(idx):
    s = Searcher(IndexReader(idx))
    # all-singleton slots rewrite to a plain phrase
    r = s.rewrite(MultiPhraseQuery((("data",), ("merge",))))
    assert isinstance(r, PhraseQuery) and r.terms == ("data", "merge")
    # one slot, one term rewrites to a TermQuery
    r1 = s.rewrite(MultiPhraseQuery((("data",),)))
    assert isinstance(r1, TermQuery) and r1.term == "data"


def test_scored_search_ranks_by_freq(idx):
    # same dl-corpus docs: higher mphrase freq must not score lower
    s = Searcher(IndexReader(idx), similarity="bm25_exact64")
    td = s.search(MultiPhraseQuery((("data",), ("merge", "window"))), k=10)
    assert len(td.doc_ids) > 0
    assert np.all(np.diff(td.scores.astype(np.float64)) <= 1e-12)
    # doc 17 ("data merge data merge", freq 2) beats doc 12
    # ("data window", freq 1, shorter dl) is NOT guaranteed by BM25;
    # just assert the top doc has the max brute freq among equals of
    # its length — weaker invariant: all matching docs returned
    brute = {10 + i for i, t in enumerate(TEXTS)
             if _brute_freq(t, [("data",), ("merge", "window")])}
    assert set(td.doc_ids.tolist()) == brute
