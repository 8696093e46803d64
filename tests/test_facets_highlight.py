"""Facet counting / drill-down + passage highlighting."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index import build_index
from lucene_ray.search import IndexReader, Searcher, TermQuery
from lucene_ray.search.facets import drill_down, facet_counts
from lucene_ray.search.highlight import highlight_text, highlight_topk
from lucene_ray.search.query import BooleanQuery


@pytest.fixture(scope="module")
def facet_index(ray_session, tmp_path_factory):
    rng = np.random.default_rng(43)
    n = 300
    texts, langs, sources = [], [], []
    for i in range(n):
        texts.append(" ".join(rng.choice(["data", "merge", "spark"], 5)))
        langs.append(str(rng.choice(["en", "de", "fr"])))
        sources.append(f"s{int(rng.integers(0, 4))}")
    t = pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                  "text": pa.array(texts, pa.string()),
                  "lang": pa.array(langs, pa.string()),
                  "source": pa.array(sources, pa.string())})
    d = tmp_path_factory.mktemp("facets")
    path = str(d / "docs.parquet")
    pq.write_table(t, path)
    out = str(d / "idx")
    build_index(path, out, batch_size=100,
                stored_cols=("lang", "source", "text"))
    return out, texts, langs, sources


def test_facet_counts(facet_index):
    out, texts, langs, sources = facet_index
    s = Searcher(IndexReader(out))
    got = facet_counts(s, TermQuery("data"), "lang").to_pylist()
    from collections import Counter
    want = Counter(langs[i] for i, t in enumerate(texts)
                   if "data" in t.split())
    assert {r["lang"]: r["count"] for r in got} == dict(want)
    # FacetResult order: count desc, value asc
    counts = [r["count"] for r in got]
    assert counts == sorted(counts, reverse=True)


def test_drill_down(facet_index):
    out, texts, langs, sources = facet_index
    s = Searcher(IndexReader(out))
    # single-field index: drill-down filters become index-field terms
    # only if the facet value is indexed; here verify the query SHAPE
    q = drill_down(TermQuery("data"), {"lang": "de"})
    assert isinstance(q, BooleanQuery)
    assert q.must == (TermQuery("data"),)
    assert q.filter[0].term == "de" and q.filter[0].field == "lang"


def test_highlight_text_basic():
    text = "the merge phase follows the data phase in every data engine"
    snips = highlight_text(text, {"data", "merge"}, passage_len=200)
    assert len(snips) == 1
    s = snips[0]
    assert "<b>merge</b>" in s and "<b>data</b>" in s
    # all three occurrences wrapped
    assert s.count("<b>") == 3


def test_highlight_prefers_coverage():
    text = ("alpha " * 30) + "data only here " + ("beta " * 30) \
        + "data and merge together here" + (" gamma" * 30)
    snips = highlight_text(text, {"data", "merge"}, passage_len=60)
    assert "<b>merge</b>" in snips[0]  # 2-term passage wins over 1-term


def test_highlight_topk(facet_index):
    out, texts, langs, sources = facet_index
    s = Searcher(IndexReader(out))
    t = highlight_topk(s, TermQuery("data"), k=5)
    rows = t.to_pylist()
    assert len(rows) == 5
    for r in rows:
        assert "<b>data</b>" in r["snippet"]
        assert r["snippet"].replace("<b>", "").replace("</b>", "") \
            .strip(".") in texts[r["doc_id"]] + ""


def test_highlight_topk_function_score(facet_index):
    """A function-score query highlights its inner query's terms."""
    from lucene_ray.search import FunctionScoreQuery
    s = Searcher(IndexReader(facet_index[0]))
    want = highlight_topk(s, TermQuery("data"), k=5)
    got = highlight_topk(s, FunctionScoreQuery(TermQuery("data"), "_score"),
                         k=5)
    assert got.column("doc_id").to_pylist() == \
        want.column("doc_id").to_pylist()
    assert got.column("snippet").to_pylist() == \
        want.column("snippet").to_pylist()


def test_custom_collector(facet_index):
    """Collector protocol: a histogram-of-scores collector."""
    out, texts, langs, sources = facet_index
    s = Searcher(IndexReader(out))

    class HistCollector:
        def __init__(self):
            self.n = 0
            self.score_sum = 0.0

        def collect_segment(self, sr, docs, scores):
            self.n += len(docs)
            self.score_sum += float(scores.sum())

        def result(self):
            return {"n": self.n, "mean": self.score_sum / max(self.n, 1)}

    got = s.collect(TermQuery("data"), HistCollector())
    assert got["n"] == s.count(TermQuery("data"))
    assert got["mean"] > 0


def test_range_facets(facet_index):
    from lucene_ray.search.facets import range_facet_counts
    out, texts, langs, sources = facet_index
    s = Searcher(IndexReader(out))
    ranges = [("lo", 0, 3), ("hi", 3, None), ("all", None, None),
              ("mid_overlap", 2, 4)]
    got = {r["range_label"]: r["count"]
           for r in range_facet_counts(
               s, TermQuery("data"), "doc_len", ranges).to_pylist()}
    dls = [len(t.split()) for i, t in enumerate(texts)
           if "data" in t.split()]
    assert got == {
        "lo": sum(1 for d in dls if d < 3),
        "hi": sum(1 for d in dls if d >= 3),
        "all": len(dls),
        "mid_overlap": sum(1 for d in dls if 2 <= d < 4),
    }


def test_taxonomy_facets(facet_index):
    from collections import Counter
    from lucene_ray.search.facets import taxonomy_facet_counts
    out, texts, langs, sources = facet_index
    s = Searcher(IndexReader(out))
    got = {r["path"]: r["count"]
           for r in taxonomy_facet_counts(
               s, TermQuery("merge"), ("source", "lang")).to_pylist()}
    want = Counter()
    for i, t in enumerate(texts):
        if "merge" in t.split():
            want[sources[i]] += 1
            want[f"{sources[i]}/{langs[i]}"] += 1
    assert got == dict(want)
    # every child path's parent prefix is present with count >= child
    for p, c in got.items():
        if "/" in p:
            assert got[p.rsplit("/", 1)[0]] >= c


def test_drill_sideways(ray_session, tmp_path_factory):
    """DrillSideways (facet/DrillSideways.java): each dim's counts apply
    the OTHER dims' drills but not its own."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from lucene_ray.index import build_index
    from lucene_ray.search import IndexReader, Searcher, TermQuery
    from lucene_ray.search.facets import drill_sideways

    rows = [
        # (lang, source, text)
        ("en", "a", "data x"), ("en", "a", "data y"), ("en", "b", "data z"),
        ("de", "a", "data w"), ("de", "b", "data v"), ("en", "a", "other"),
    ]
    t = pa.table({
        "doc_id": pa.array(range(len(rows)), pa.int64()),
        "lang": pa.array([r[0] for r in rows]),
        "source": pa.array([r[1] for r in rows]),
        "text": pa.array([r[2] for r in rows]),
    })
    d = tmp_path_factory.mktemp("dsw")
    path = str(d / "docs.parquet")
    pq.write_table(t, path)
    idx = str(d / "idx")
    build_index(path, idx, batch_size=3, stored_cols=("lang", "source"))
    s = Searcher(IndexReader(idx))
    got = drill_sideways(s, TermQuery("data"),
                         {"lang": "en", "source": "a"}).to_pylist()
    by = {(r["dim"], r["value"]): r["count"] for r in got}
    # lang panel: data AND source=a -> en:2 (x,y), de:1 (w)
    assert by[("lang", "en")] == 2 and by[("lang", "de")] == 1
    # source panel: data AND lang=en -> a:2, b:1
    assert by[("source", "a")] == 2 and by[("source", "b")] == 1
    # FacetResult ordering within each dim: count desc, value asc
    lang_rows = [r for r in got if r["dim"] == "lang"]
    assert [r["value"] for r in lang_rows] == ["en", "de"]


def test_fast_vector_highlighter(ray_session, tmp_path_factory):
    """FVH (vectorhighlight/FastVectorHighlighter.java role): snippets
    come from term-vector OFFSETS, no query-time re-analysis; output
    identical to the analyze-at-query-time highlighter."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from lucene_ray.index import build_index
    from lucene_ray.search import IndexReader
    from lucene_ray.search.highlight import (
        fast_vector_highlight, highlight_text,
    )

    texts = [
        "The data engine merges data blocks while the merge runs.",
        "Nothing relevant in this one at all.",
        "Data! data, DATA everywhere and a merge to think.",
    ]
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts),
    })
    d = tmp_path_factory.mktemp("fvh")
    path = str(d / "docs.parquet")
    pq.write_table(t, path)
    idx = str(d / "idx")
    build_index(path, idx, batch_size=2, term_vector_offsets=True)
    r = IndexReader(idx)

    for doc_id, text in enumerate(texts):
        a = fast_vector_highlight(r, doc_id, ["data", "merge"], text=text,
                                  max_passages=2)
        b = highlight_text(text, ["data", "merge"], max_passages=2)
        assert a == b, (doc_id, a, b)
    # offsets round-trip: tags wrap the original-case surface forms
    snip = fast_vector_highlight(r, 2, ["data"], text=texts[2])[0]
    assert "<b>Data</b>" in snip and "<b>DATA</b>" in snip
    # tv carries offsets columns; tf matches surface occurrences
    tv = r.term_vector_offsets(2)
    row = {tv.column("term")[i].as_py(): i for i in range(len(tv))}
    assert tv.column("tf")[row["data"]].as_py() == 3
    assert len(tv.column("starts")[row["data"]].as_py()) == 3


@pytest.fixture(scope="module")
def assoc_index(ray_session, tmp_path_factory):
    rng = np.random.default_rng(47)
    n = 250
    texts = [" ".join(rng.choice(["data", "merge", "spark"], 5))
             for _ in range(n)]
    langs = [str(rng.choice(["en", "de", "fr"])) for _ in range(n)]
    sources = [f"s{int(rng.integers(0, 3))}" for _ in range(n)]
    vals = rng.integers(1, 500, n).astype(np.int64)
    t = pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                  "text": pa.array(texts, pa.string()),
                  "lang": pa.array(langs, pa.string()),
                  "source": pa.array(sources, pa.string()),
                  "val": pa.array(vals)})
    d = tmp_path_factory.mktemp("assoc")
    path = str(d / "docs.parquet")
    pq.write_table(t, path)
    out = str(d / "idx")
    build_index(path, out, batch_size=64,
                stored_cols=("lang", "source", "val"))
    return out, texts, langs, sources, vals


def test_association_facet_sums(assoc_index):
    from lucene_ray.search.facets import taxonomy_facet_sum_associations
    out, texts, langs, sources, vals = assoc_index
    s = Searcher(IndexReader(out))
    got = taxonomy_facet_sum_associations(
        s, TermQuery("data"), ("source", "lang"), "val")
    from collections import defaultdict
    want = defaultdict(float)
    for i, t in enumerate(texts):
        if "data" in t.split():
            want[sources[i]] += float(vals[i])
            want[f"{sources[i]}/{langs[i]}"] += float(vals[i])
    rows = {r["path"]: r["sum_assoc"] for r in got.to_pylist()}
    assert rows == pytest.approx(dict(want))
    assert list(rows) == sorted(rows)


def test_sampled_facet_counts(assoc_index):
    import hashlib
    from collections import Counter
    from lucene_ray.search.facets import sampled_facet_counts
    out, texts, langs, _sources, _vals = assoc_index
    s = Searcher(IndexReader(out))
    got = sampled_facet_counts(s, TermQuery("data"), "lang",
                               pct=30, salt="t")
    want = Counter()
    for i, t in enumerate(texts):
        if "data" not in t.split():
            continue
        if int(hashlib.md5(f"t:{i}".encode()).hexdigest()[:8], 16) \
                % 100 < 30:
            want[langs[i]] += 1
    rows = {r["value"]: r["sampled_count"] for r in got.to_pylist()}
    assert rows == dict(want)
    # sampled counts are a (deterministic) subsample of the full counts
    full = Counter(langs[i] for i, t in enumerate(texts)
                   if "data" in t.split())
    assert all(rows[k] <= full[k] for k in rows)


def test_multi_valued_facet_counts(ray_session, tmp_path_factory):
    from lucene_ray.search.facets import facet_counts_multi
    rng = np.random.default_rng(97)
    n = 200
    texts, tagsets = [], []
    pool = ["red", "blue", "green", "big", "small"]
    for i in range(n):
        texts.append(" ".join(rng.choice(["data", "merge", "spark"], 4)))
        k = int(rng.integers(0, 4))
        tagsets.append(sorted(set(rng.choice(pool, k))) if k else [])
    t = pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                  "text": pa.array(texts, pa.string()),
                  "tags": pa.array(tagsets, pa.list_(pa.string()))})
    d = tmp_path_factory.mktemp("mvfac")
    path = str(d / "docs.parquet")
    pq.write_table(t, path)
    out = str(d / "idx")
    build_index(path, out, batch_size=64, stored_cols=("tags",))
    s = Searcher(IndexReader(out))
    got = facet_counts_multi(s, TermQuery("data"), "tags").to_pylist()
    from collections import Counter
    want = Counter()
    for i, txt in enumerate(texts):
        if "data" in txt.split():
            want.update(tagsets[i])
    assert {r["value"]: r["count"] for r in got} == dict(want)
    counts = [r["count"] for r in got]
    assert counts == sorted(counts, reverse=True)
