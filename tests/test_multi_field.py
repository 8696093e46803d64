"""Multi-field indexing + cross-field queries (VERDICT r1 item 8;
reference ``index/FieldInfos.java`` per-field postings). Per-field
analyzers (Standard vs Keyword), per-field BM25 stats, boolean trees
across fields, and the query parser's field syntax end-to-end."""

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
from lucene_ray.search.query import PhraseQuery
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
