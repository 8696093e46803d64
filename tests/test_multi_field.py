"""Multi-field indexing + cross-field queries (VERDICT r1 item 8;
reference ``index/FieldInfos.java`` per-field postings). Per-field
analyzers (Standard vs Keyword), per-field BM25 stats, boolean trees
across fields, and the query parser's field syntax end-to-end."""

import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.analysis import KeywordAnalyzer
from lucene_ray.index import build_index, latest_generation
from lucene_ray.index.multi_field import build_multi_field_index
from lucene_ray.search import BooleanQuery, IndexReader, Searcher, TermQuery
from lucene_ray.search.multi_field import MultiFieldSearcher
from lucene_ray.search.query import (
    BoostQuery,
    ConstantScoreQuery,
    CoveringQuery,
    DisjunctionMaxQuery,
    FunctionScoreQuery,
    MatchAllDocsQuery,
    PhraseQuery,
    PrefixQuery,
)
from lucene_ray.search.queryparser import parse_query


@pytest.fixture(scope="module")
def mf_index(ray_session, tmp_path_factory):
    rng = np.random.default_rng(17)
    n = 300
    bodies, titles, langs = [], [], []
    words = ["data", "merge", "window", "spark", "shuffle", "batch"]
    for i in range(n):
        bodies.append(" ".join(rng.choice(words, 8)))
        titles.append(" ".join(rng.choice(["alpha", "beta", "gamma"], 2)))
        langs.append(rng.choice(["en", "de", "fr"]))
    t = pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "body": pa.array(bodies, pa.string()),
        "title": pa.array(titles, pa.string()),
        "lang": pa.array(langs, pa.string()),
    })
    d = tmp_path_factory.mktemp("mf")
    path = str(d / "docs.parquet")
    pq.write_table(t, path)
    out = str(d / "mfidx")
    build_multi_field_index(
        path, out,
        fields={"body": None, "title": None, "lang": KeywordAnalyzer()},
        batch_size=100, index_positions=True)
    return out, bodies, titles, langs


def test_leaf_routing_and_default_field(mf_index):
    out, bodies, titles, langs = mf_index
    s = MultiFieldSearcher(out)
    want_body = {i for i, b in enumerate(bodies) if "data" in b.split()}
    assert set(s.match_docs(TermQuery("data")).tolist()) == want_body
    want_title = {i for i, t in enumerate(titles) if "alpha" in t.split()}
    assert set(s.match_docs(TermQuery("alpha", field="title")).tolist()) \
        == want_title
    # keyword field: whole value is the term (not analyzed)
    want_de = {i for i, l in enumerate(langs) if l == "de"}
    assert set(s.match_docs(TermQuery("de", field="lang")).tolist()) == want_de
    # absent field
    assert s.count(TermQuery("data", field="nosuch")) == 0


def test_cross_field_boolean(mf_index):
    out, bodies, titles, langs = mf_index
    s = MultiFieldSearcher(out)
    q = BooleanQuery(must=(TermQuery("data"),
                           TermQuery("de", field="lang")),
                     must_not=(TermQuery("alpha", field="title"),))
    want = {i for i in range(len(bodies))
            if "data" in bodies[i].split() and langs[i] == "de"
            and "alpha" not in titles[i].split()}
    assert set(s.match_docs(q).tolist()) == want
    # fewer SHOULD clauses than minShouldMatch: BooleanWeight builds no
    # scorer, beside MUST clauses too
    assert s.count(BooleanQuery(must=(TermQuery("data"),),
                                min_should_match=2)) == 0
    assert s.count(BooleanQuery(must=(TermQuery("data"),),
                                should=(TermQuery("de", field="lang"),),
                                min_should_match=2)) == 0


def test_parser_to_multi_field(mf_index):
    out, bodies, titles, langs = mf_index
    s = MultiFieldSearcher(out)
    q = parse_query('lang:de AND (data OR title:beta)', default_field="body")
    want = {i for i in range(len(bodies))
            if langs[i] == "de" and ("data" in bodies[i].split()
                                     or "beta" in titles[i].split())}
    assert set(s.match_docs(q).tolist()) == want


def test_per_field_scoring_independent(mf_index):
    out, bodies, titles, langs = mf_index
    s = MultiFieldSearcher(out)
    # same term text in different fields gets different idf/avgdl
    td_body = s.search(TermQuery("data"), k=5)
    assert len(td_body.doc_ids) == 5
    # a scored cross-field OR ranks and returns float32 scores
    q = BooleanQuery(should=(TermQuery("data"),
                             TermQuery("alpha", field="title")))
    td = s.search(q, k=10)
    assert len(td.doc_ids) == 10
    assert td.scores.dtype == np.float32
    assert (np.diff(td.scores) <= 0).all()


def test_phrase_in_field(mf_index):
    out, bodies, titles, langs = mf_index
    s = MultiFieldSearcher(out)
    q = PhraseQuery(("data", "merge"), field="body")
    want = {i for i, b in enumerate(bodies) if " data merge " in f" {b} "}
    assert set(s.match_docs(q).tolist()) == want


def _bits(td):
    return td.scores.astype(np.float32).view(np.uint32).tolist()


def test_one_pass_equals_sequential(ray_session, mf_index, tmp_path_factory):
    """The one-pass build equals N sequential ``build_index`` runs, one
    per field: the same segments, the same ids and float32 score bits
    for every term of every field, and the same cross-field matches."""
    out, bodies, titles, langs = mf_index
    src = os.path.join(os.path.dirname(out), "docs.parquet")
    d2 = str(tmp_path_factory.mktemp("mf_seq"))
    fields = {"body": None, "title": None, "lang": KeywordAnalyzer()}
    for f, analyzer in fields.items():
        ref = os.path.join(d2, "fields", f)
        m = build_index(src, ref, text_col=f, batch_size=100,
                        index_positions=True, analyzer=analyzer)
        r = IndexReader(os.path.join(out, "fields", f))
        assert r.manifest.segments == m.segments
        a, b = Searcher(r), Searcher(IndexReader(ref))
        for t in sorted(r.all_term_stats()):
            ta, tb = a.search(TermQuery(t), 20), b.search(TermQuery(t), 20)
            assert ta.doc_ids.tolist() == tb.doc_ids.tolist()
            assert _bits(ta) == _bits(tb)
    with open(os.path.join(d2, "multi_field.json"), "w") as fh:
        json.dump({"fields": list(fields), "default_field": "body"}, fh)
    a, b = MultiFieldSearcher(out), MultiFieldSearcher(d2)
    q = parse_query('lang:de AND (data OR title:beta)', default_field="body")
    assert a.match_docs(q).tolist() == b.match_docs(q).tolist()


def test_append_of_the_same_corpus_is_refused(ray_session, tmp_path):
    """Appending a corpus the index already holds is refused, as
    ``build_index`` refuses it, before any field commits."""
    n = 200
    path = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "body": pa.array([f"data w{i % 7}" for i in range(n)]),
        "title": pa.array([f"t{i % 3}" for i in range(n)]),
    }), path)
    out = str(tmp_path / "mfidx")
    fields = {"body": None, "title": None}
    build_multi_field_index(path, out, fields, batch_size=50)
    with pytest.raises(ValueError, match="duplicate segment"):
        build_multi_field_index(path, out, fields, batch_size=50)
    for f in fields:
        assert latest_generation(os.path.join(out, "fields", f)) == 0
    assert MultiFieldSearcher(out).count(TermQuery("data")) == n


# -- seeded digest over cross-field query trees ------------------------------

MF_GOLDEN = "9f2b9c4f9d8d2dcfd859f3df4d03ece4738228a33a990afd69251ead363368c1"

MF_WORDS = {"body": ["data", "merge", "window", "spark", "shuffle", "batch"],
            "title": ["alpha", "beta", "gamma"],
            "lang": ["en", "de", "fr"]}
MF_PREFIXES = {"body": ["s", "ba", "w", "zz"], "title": ["a", "g"]}


def _mf_leaf(rng):
    field = str(rng.choice(list(MF_WORDS)))
    words = MF_WORDS[field]
    # the default field is body: a None field routes there too
    fld = None if field == "body" and rng.random() < 0.5 else field
    r = rng.random()
    if r < 0.55:
        return TermQuery(str(rng.choice(words)),
                         float(rng.choice((1.0, 1.0, 0.5, 2.0))), field=fld)
    if r < 0.75:
        terms = tuple(str(rng.choice(words))
                      for _ in range(int(rng.integers(2, 4))))
        return PhraseQuery(terms, 1.0, int(rng.integers(0, 2)), field=fld)
    if r < 0.9:
        pf = str(rng.choice(list(MF_PREFIXES)))
        return PrefixQuery(str(rng.choice(MF_PREFIXES[pf])), field=pf)
    return MatchAllDocsQuery(float(rng.choice((1.0, 2.5))))


def _mf_tree(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return _mf_leaf(rng)
    r = rng.random()
    if r < 0.55:
        def group(hi):
            return tuple(_mf_tree(rng, depth - 1)
                         for _ in range(int(rng.integers(0, hi + 1))))
        return BooleanQuery(must=group(2), should=group(3),
                            must_not=group(1) if rng.random() < 0.4 else (),
                            filter=group(1) if rng.random() < 0.3 else (),
                            min_should_match=int(rng.integers(0, 4)))
    subs = tuple(_mf_tree(rng, depth - 1)
                 for _ in range(int(rng.integers(1, 4))))
    if r < 0.7:
        return DisjunctionMaxQuery(subs, float(rng.choice((0.0, 0.3))))
    if r < 0.85:
        return ConstantScoreQuery(subs[0], float(rng.choice((1.0, 2.5))))
    return BoostQuery(subs[0], float(rng.choice((0.1, 0.5, 3.0))))


def test_cross_field_digest(mf_index):
    """One sha256 over 200 seeded cross-field trees (depth up to 3)
    under both similarities: per tree the ids and float32 score bits of
    ``search(k=20)`` and the ``match_docs`` ids. A change that must keep
    every cross-field result bit-identical keeps ``MF_GOLDEN``. It was
    recorded while booleans, dismax, constant-score and boosts over
    fields still had their own combiner in ``multi_field.py``."""
    out = mf_index[0]
    rng = np.random.default_rng(27)
    trees = [_mf_tree(rng, 3) for _ in range(200)]
    h = hashlib.sha256()
    n_hits = 0
    for sim in ("lucene", "bm25_exact64"):
        s = MultiFieldSearcher(out, similarity=sim)
        for q in trees:
            td = s.search(q, k=20)
            h.update(np.asarray(td.doc_ids, np.int64).tobytes())
            h.update(np.asarray(td.scores).astype(np.float32)
                     .view(np.uint32).tobytes())
            docs = s.match_docs(q)
            h.update(np.asarray(docs, np.int64).tobytes())
            n_hits += len(docs) > 0
    # most trees match something, so the digest covers real scores
    assert n_hits > 200
    assert h.hexdigest() == MF_GOLDEN


def test_function_score_and_covering_route_their_leaves(ray_session,
                                                        tmp_path):
    """A function score or a covering query over fields combines leaves
    that each route to their own field (they used to run whole on the
    default field, where a title leaf matches nothing)."""
    path = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(6, dtype=np.int64)),
        "body": ["data x", "data", "merge", "spark", "data", "window"],
        "title": ["alpha", "beta", "alpha", "gamma", "alpha beta", "beta"],
        "n": pa.array([3, 1, 4, 1, 5, 9], pa.int64()),
    }), path)
    out = str(tmp_path / "mfidx")
    build_multi_field_index(path, out, {"body": None, "title": None},
                            stored_cols=("n",), batch_size=3)
    s = MultiFieldSearcher(out, similarity="bm25_exact64")
    title = s.searchers["title"]
    alpha, data = TermQuery("alpha", field="title"), TermQuery("data")
    d_alpha, s_alpha = title.eval_complete(TermQuery("alpha"))
    d_data, s_data = s.searchers["body"].eval_complete(data)
    assert d_alpha.tolist() == [0, 2, 4] and d_data.tolist() == [0, 1, 4]

    fs = FunctionScoreQuery(alpha, "_score * 2 + n")
    assert s.match_docs(fs).tolist() == [0, 2, 4]
    td = s.search(fs, k=6)
    want = dict(zip(d_alpha.tolist(), s_alpha * 2 + np.array([3, 4, 5])))
    assert {d: want[d] for d in td.doc_ids.tolist()} == \
        dict(zip(td.doc_ids.tolist(), td.scores.tolist()))

    cov = CoveringQuery((alpha, data), "1")
    assert s.match_docs(cov).tolist() == [0, 1, 2, 4]
    td = s.search(cov, k=6)
    want = {0: s_alpha[0] + s_data[0], 1: s_data[1], 2: s_alpha[1],
            4: s_alpha[2] + s_data[2]}
    assert dict(zip(td.doc_ids.tolist(), td.scores.tolist())) == want
    # the per-doc minimum reads the stored column: n odd needs both
    assert s.match_docs(CoveringQuery((alpha, data), "1 + n % 2")
                        ).tolist() == [0, 2, 4]
