"""Positional postings + PhraseQuery vs a brute-force oracle."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.analysis import StandardAnalyzer
from lucene_ray.index import build_index
from lucene_ray.search import (
    BooleanQuery,
    IndexReader,
    PhraseQuery,
    Searcher,
    TermQuery,
)


@pytest.fixture(scope="module")
def phrase_corpus(ray_session, tmp_path_factory):
    rng = np.random.default_rng(21)
    vocab = [f"w{i}" for i in range(80)]
    texts = []
    for i in range(300):
        n = int(rng.integers(20, 60))
        words = list(rng.choice(vocab, n))
        if i % 7 == 0:
            # plant the phrase (sometimes multiple times)
            at = int(rng.integers(0, n - 3))
            words[at:at + 2] = ["alpha", "beta"]
            if i % 14 == 0:
                words += ["alpha", "beta"]
        if i % 11 == 0:
            words += ["alpha"]  # term present but not the phrase
        if i % 13 == 0:
            words += ["beta", "alpha"]  # reversed - must not match
        texts.append(" ".join(words))
    t = pa.table({
        "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
        "text": pa.array(texts, pa.string()),
    })
    d = tmp_path_factory.mktemp("phrase")
    path = str(d / "documents.parquet")
    pq.write_table(t, path)

    out = str(d / "idx")
    build_index(path, out, batch_size=64, index_positions=True)
    return path, out, texts


def brute_phrase(texts, phrase):
    analyzer = StandardAnalyzer()
    hits = {}
    for d, text in enumerate(texts):
        toks = [a.term for a in analyzer.tokens(text)]
        cnt = 0
        for i in range(len(toks) - len(phrase) + 1):
            if toks[i:i + len(phrase)] == list(phrase):
                cnt += 1
        if cnt:
            hits[d] = cnt
    return hits


def test_phrase_match_and_freq(phrase_corpus):
    path, out, texts = phrase_corpus
    s = Searcher(IndexReader(out))
    want = brute_phrase(texts, ["alpha", "beta"])
    got_docs = s.match_docs(PhraseQuery(("alpha", "beta")))
    assert got_docs.tolist() == sorted(want)
    assert s.count(PhraseQuery(("alpha", "beta"))) == len(want)
    # per-segment freqs via the slot gather and freq kernel
    slots = (("alpha",), ("beta",))
    total = {}
    for sr in s.reader.segments():
        got = s._gather(sr, slots)
        docs, freqs = (s._slot_freqs(*got, slots, 0, "phrase")
                       if got is not None else (None, None))
        if docs is not None:
            for d, f in zip(docs.tolist(), freqs.tolist()):
                total[d] = f
    assert total == want


def test_phrase_scoring_matches_bm25_formula(phrase_corpus):
    path, out, texts = phrase_corpus
    import math
    from lucene_ray.analysis import int_to_byte4
    from lucene_ray.analysis.smallfloat import LENGTH_TABLE

    s = Searcher(IndexReader(out))
    td = s.search(PhraseQuery(("alpha", "beta")), k=50)
    want = brute_phrase(texts, ["alpha", "beta"])
    assert set(td.doc_ids.tolist()) <= set(want)

    # oracle score: weight = f32(sum of idfs), tf = phrase freq
    analyzer = StandardAnalyzer()
    doc_terms = [analyzer(t) for t in texts]
    N = sum(1 for t in doc_terms if t)
    sum_dl = sum(len(t) for t in doc_terms)
    avgdl = np.float32(sum_dl / float(N))
    cache = (np.float32(1) / (np.float32(1.2) * (
        np.float32(0.25) + np.float32(0.75) * LENGTH_TABLE / avgdl))).astype(np.float32)
    df_a = sum(1 for t in doc_terms if "alpha" in t)
    df_b = sum(1 for t in doc_terms if "beta" in t)
    idf_sum = (float(np.float32(math.log(1 + (N - df_a + 0.5) / (df_a + 0.5))))
               + float(np.float32(math.log(1 + (N - df_b + 0.5) / (df_b + 0.5)))))
    w = np.float32(np.float32(1.0) * np.float32(idf_sum))
    for d, score in zip(td.doc_ids.tolist(), td.scores.tolist()):
        tf = want[d]
        dl = len(doc_terms[d])
        ninv = cache[int_to_byte4(dl)]
        expect = np.float32(w - w / (np.float32(1) + np.float32(tf) * ninv))
        assert score == float(expect), d


def test_phrase_in_boolean_and_merge(phrase_corpus, tmp_path_factory):
    path, out, texts = phrase_corpus
    s = Searcher(IndexReader(out))
    want = brute_phrase(texts, ["alpha", "beta"])
    before = s.search(PhraseQuery(("alpha", "beta")), k=100)

    # merge preserves positional postings
    import shutil
    out2 = str(tmp_path_factory.mktemp("phrase_merged"))
    shutil.copytree(out, out2, dirs_exist_ok=True)
    from lucene_ray.index.merge import merge_segments
    m = merge_segments(out2, segs_per_tier=10)
    s2 = Searcher(IndexReader(out2))
    after = s2.search(PhraseQuery(("alpha", "beta")), k=100)
    assert before.doc_ids.tolist() == after.doc_ids.tolist()
    assert before.scores.tolist() == after.scores.tolist()

    # forceMerge(1) also preserves positions
    out3 = str(tmp_path_factory.mktemp("phrase_repacked"))
    shutil.copytree(out, out3, dirs_exist_ok=True)
    merge_segments(out3, segs_per_tier=100)
    s3 = Searcher(IndexReader(out3))
    again = s3.search(PhraseQuery(("alpha", "beta")), k=100)
    assert before.doc_ids.tolist() == again.doc_ids.tolist()
    assert before.scores.tolist() == again.scores.tolist()


def test_single_term_phrase_rewrites_to_term(phrase_corpus):
    path, out, texts = phrase_corpus
    s = Searcher(IndexReader(out))
    a = s.search(PhraseQuery(("alpha",)), k=20)
    b = s.search(TermQuery("alpha"), k=20)
    assert a.doc_ids.tolist() == b.doc_ids.tolist()
    assert a.scores.tolist() == b.scores.tolist()


def test_positions_error_without_positional_index(ray_session, small_pages,
                                                  tmp_path_factory):
    _, paths = small_pages
    out = str(tmp_path_factory.mktemp("nopos_idx"))
    build_index(paths, out, batch_size=500)
    s = Searcher(IndexReader(out))
    sr = s.reader.segment(s.reader.segment_infos[0].seg_id)
    term = next(iter(sr.terms()))
    with pytest.raises(ValueError, match="positions"):
        sr.get_positions(term)

def test_span_first_match_vs_brute(ray_session, tmp_path):
    """SpanFirstQuery role: first occurrence position < end."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    from lucene_ray.index import build_index
    from lucene_ray.pipelines import search_queries as sq
    rng = np.random.default_rng(103)
    vocab = ["data", "merge", "w1", "w2", "w3"]
    texts = [" ".join(rng.choice(vocab, int(rng.integers(1, 12))))
             for _ in range(300)]
    t = pa.table({"doc_id": pa.array(np.arange(300, dtype=np.int64)),
                  "text": pa.array(texts, pa.string())})
    p = str(tmp_path / "documents.parquet")
    pq.write_table(t, p)
    got = sq.span_first_match(p, "data", 3)["doc_id"].to_pylist()
    want = [i for i, tx in enumerate(texts)
            if "data" in tx.split()[:3]]
    assert got == want and len(want) > 0
