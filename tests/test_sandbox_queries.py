"""Sandbox/misc/grouping/facet roles added in round 4 session 3:

- SynonymQuery (core search/SynonymQuery.java:51,205-223): blended
  pseudo-term stats, freq = sum(boost_i * tf_i).
- CombinedFieldQuery / BM25F (sandbox/search/CombinedFieldQuery.java):
  weighted merged field with summed freq and summed length.
- PhraseWildcardQuery (sandbox/search/PhraseWildcardQuery.java):
  wildcard slots expand to MultiPhraseQuery.
- MultiRangeQuery (sandbox/search/MultiRangeQuery.java): union of
  numeric ranges, overlaps merged at rewrite.
- HighFreqTerms (misc), AllGroupsCollector / DistinctValuesCollector
  (grouping), LongValueFacetCounts (facet).

All verified brute-force over a synthetic corpus.
"""

import math

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def sbx_corpus(ray_session, tmp_path_factory):
    rng = np.random.default_rng(47)
    vocab = ["data", "merge", "window", "spark", "mercy", "merit",
             "key", "sort"] + [f"w{i}" for i in range(30)]
    texts, n_chars, langs, sources = [], [], [], []
    for i in range(400):
        words = list(rng.choice(vocab, int(rng.integers(5, 30))))
        texts.append(" ".join(words))
        n_chars.append(len(texts[-1]))
        langs.append(f"l{i % 5}")
        sources.append(f"s{i % 7}")
    t = pa.table({
        "doc_id": pa.array(np.arange(400, dtype=np.int64)),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
        "source": pa.array(sources, pa.string()),
        "n_chars": pa.array(np.array(n_chars, dtype=np.int64)),
    })
    d = tmp_path_factory.mktemp("sbx")
    path = str(d / "documents.parquet")
    pq.write_table(t, path)
    return path, texts, t


def _toks(texts):
    return [tx.split() for tx in texts]


def test_synonym_blended_vs_brute(sbx_corpus, monkeypatch, tmp_path):
    from lucene_ray.pipelines import search_queries as sq
    monkeypatch.setattr(sq, "_CACHE_ROOT", str(tmp_path))
    path, texts, _ = sbx_corpus
    terms, boosts = ["merge", "window", "spark"], [1.0, 0.5, 0.25]
    got = sq.synonym_blended_topk(path, terms, boosts, k=15)

    toks = _toks(texts)
    n = len(toks)
    dls = np.array([len(tk) for tk in toks], dtype=np.float64)
    avgdl = dls.sum() / n
    df = {t: sum(t in tk for tk in toks) for t in terms}
    df_b = max(df.values())
    idf = np.log(1 + (n - df_b + 0.5) / (df_b + 0.5))
    f = np.zeros(n)
    for t, b in zip(terms, boosts):
        f += b * np.array([tk.count(t) for tk in toks], dtype=np.float64)
    m = f > 0
    sc = np.zeros(n)
    sc[m] = idf * f[m] / (f[m] + 1.2 * (1 - 0.75 + 0.75 * dls[m] / avgdl))
    key = np.floor(sc * 1e9).astype(np.int64)
    order = np.lexsort((np.arange(n), -key))
    want = [i for i in order if m[i]][:15]
    assert got.column("doc_id").to_pylist() == want


def test_combined_field_vs_brute(sbx_corpus, monkeypatch, tmp_path):
    from lucene_ray.pipelines import search_queries as sq
    monkeypatch.setattr(sq, "_CACHE_ROOT", str(tmp_path))
    path, texts, _ = sbx_corpus
    terms = ["data", "merge"]
    weights = {"text": 1.0, "title": 2.0}
    got = sq.combined_field_topk(path, terms, weights, k=15)

    toks = _toks(texts)
    titles = [tk[:8] for tk in toks]
    n = len(toks)
    dls = np.array([len(tk) + 2 * len(ti)
                    for tk, ti in zip(toks, titles)], dtype=np.float64)
    doc_count = n
    sum_ttf = dls.sum()
    avgdl = sum_ttf / doc_count
    dfs = []
    for t in terms:
        dfs.append(sum(t in tk for tk in toks))
        dfs.append(sum(t in ti for ti in titles))
    df_b = max(dfs)
    idf = np.log(1 + (doc_count - df_b + 0.5) / (df_b + 0.5))
    f = np.zeros(n)
    for t in terms:
        f += np.array([tk.count(t) for tk in toks], dtype=np.float64)
        f += 2 * np.array([ti.count(t) for ti in titles], dtype=np.float64)
    m = f > 0
    sc = np.zeros(n)
    sc[m] = idf * f[m] / (f[m] + 1.2 * (1 - 0.75 + 0.75 * dls[m] / avgdl))
    key = np.floor(sc * 1e9).astype(np.int64)
    order = np.lexsort((np.arange(n), -key))
    want = [i for i in order if m[i]][:15]
    assert got.column("doc_id").to_pylist() == want


def test_phrase_wildcard_vs_brute(sbx_corpus, monkeypatch, tmp_path):
    from lucene_ray.pipelines import search_queries as sq
    monkeypatch.setattr(sq, "_CACHE_ROOT", str(tmp_path))
    path, texts, _ = sbx_corpus
    got = sq.phrase_wildcard_match(path, ["data", "mer*"])
    want = []
    for i, tk in enumerate(_toks(texts)):
        if any(a == "data" and b.startswith("mer")
               for a, b in zip(tk, tk[1:])):
            want.append(i)
    assert got.column("doc_id").to_pylist() == want
    # a slot whose wildcard matches nothing matches no documents
    empty = sq.phrase_wildcard_match(path, ["data", "zzz*"])
    assert len(empty) == 0


def test_multi_range_merges_overlaps(sbx_corpus, monkeypatch, tmp_path):
    from lucene_ray.pipelines import search_queries as sq
    monkeypatch.setattr(sq, "_CACHE_ROOT", str(tmp_path))
    path, _, t = sbx_corpus
    ranges = [(0, 60), (50, 90), (150, 170)]
    got = sq.multi_range_match(path, "n_chars", ranges)
    nc = t.column("n_chars").to_numpy()
    want = np.nonzero(((nc >= 0) & (nc <= 90)) |
                      ((nc >= 150) & (nc <= 170)))[0]
    assert got.column("doc_id").to_pylist() == want.tolist()


def test_high_freq_terms(sbx_corpus, monkeypatch, tmp_path):
    from lucene_ray.pipelines import search_queries as sq
    monkeypatch.setattr(sq, "_CACHE_ROOT", str(tmp_path))
    path, texts, _ = sbx_corpus
    got = sq.high_freq_terms(path, k=10)
    from collections import Counter
    df, ttf = Counter(), Counter()
    for tk in _toks(texts):
        ttf.update(tk)
        df.update(set(tk))
    want = sorted(df, key=lambda t: (-df[t], t))[:10]
    assert got.column("term").to_pylist() == want
    assert got.column("df").to_pylist() == [df[t] for t in want]
    assert got.column("ttf").to_pylist() == [ttf[t] for t in want]


def test_groups_and_facets(sbx_corpus, monkeypatch, tmp_path):
    from lucene_ray.pipelines import search_queries as sq
    monkeypatch.setattr(sq, "_CACHE_ROOT", str(tmp_path))
    path, texts, t = sbx_corpus
    terms = ["spark", "merge", "window"]
    match = [i for i, tk in enumerate(_toks(texts))
             if any(w in tk for w in terms)]
    srcs = t.column("source").to_pylist()
    langs = t.column("lang").to_pylist()

    ag = sq.all_groups(path, terms, "or", "source")
    assert ag.column("source").to_pylist() == sorted(
        {srcs[i] for i in match})

    dv = sq.distinct_values_grouped(path, terms, "or", "source", "lang")
    want = {}
    for i in match:
        want.setdefault(srcs[i], set()).add(langs[i])
    assert dv.column("source").to_pylist() == sorted(want)
    assert dv.column("n_distinct").to_pylist() == [
        len(want[g]) for g in sorted(want)]

    and_match = [i for i, tk in enumerate(_toks(texts))
                 if all(w in tk for w in ["data", "merge", "window"])]
    fv = sq.long_value_facet_counts(path, ["data", "merge", "window"],
                                    "and", "n_chars")
    nc = t.column("n_chars").to_numpy()
    from collections import Counter
    cnt = Counter(int(nc[i]) for i in and_match)
    assert fv.column("value").to_pylist() == sorted(cnt)
    assert fv.column("count").to_pylist() == [cnt[v] for v in sorted(cnt)]


def test_fuzzy_like_this_vs_brute(sbx_corpus, monkeypatch, tmp_path):
    from lucene_ray.pipelines import search_queries as sq
    from lucene_ray.search.query import _edit_distance
    monkeypatch.setattr(sq, "_CACHE_ROOT", str(tmp_path))
    path, texts, _ = sbx_corpus
    got = sq.fuzzy_like_this_topk(path, ["merge", "datq"], 8, 1, 15)

    toks = _toks(texts)
    n = len(toks)
    dls = np.array([len(tk) for tk in toks], dtype=np.float64)
    avgdl = dls.sum() / n
    vocab = sorted({t for tk in toks for t in tk})
    df = {t: sum(t in tk for tk in toks) for t in vocab}
    scored_terms = []
    for st in ["merge", "datq"]:
        variants = [(v, _edit_distance(v, st, 1, True)) for v in vocab]
        variants = [(v, d) for v, d in variants if d <= 1]
        if not variants:
            continue
        sdf = df.get(st, 0)
        if sdf == 0:
            sdf = sum(df[v] for v, _ in variants) // len(variants)
        idf_src = np.log((n + 1) / (sdf + 1.0)) + 1.0
        for v, d in variants:
            boost = 1.0 - d / min(len(v), len(st))
            scored_terms.append((boost * boost * idf_src, v))
    scored_terms.sort(key=lambda x: (-x[0], x[1]))
    kept = scored_terms[:8]
    idf1 = np.log(1 + (n - 1 + 0.5) / 1.5)
    sc = np.zeros(n)
    for tscore, v in kept:
        tf = np.array([tk.count(v) for tk in toks], dtype=np.float64)
        m = tf > 0
        sc[m] += tscore * idf1 * tf[m] / (
            tf[m] + 1.2 * (1 - 0.75 + 0.75 * dls[m] / avgdl))
    key = np.floor(sc * 1e9).astype(np.int64)
    order = np.lexsort((np.arange(n), -key))
    want = [i for i in order if sc[i] > 0][:15]
    assert got.column("doc_id").to_pylist() == want


def test_group_facets_vs_brute(sbx_corpus, monkeypatch, tmp_path):
    from lucene_ray.pipelines import search_queries as sq
    monkeypatch.setattr(sq, "_CACHE_ROOT", str(tmp_path))
    path, texts, t = sbx_corpus
    terms = ["spark", "merge", "window"]
    match = [i for i, tk in enumerate(_toks(texts))
             if any(w in tk for w in terms)]
    srcs = t.column("source").to_pylist()
    langs = t.column("lang").to_pylist()
    want = {}
    for i in match:
        want.setdefault(langs[i], set()).add(srcs[i])
    gf = sq.group_facet_counts(path, terms, "or", "source", "lang")
    assert gf.column("lang").to_pylist() == sorted(want)
    assert gf.column("n_groups").to_pylist() == [
        len(want[f]) for f in sorted(want)]


def test_search_quality_vs_brute(sbx_corpus, monkeypatch, tmp_path):
    from lucene_ray.pipelines import search_queries as sq
    monkeypatch.setattr(sq, "_CACHE_ROOT", str(tmp_path))
    path, texts, _ = sbx_corpus
    qterms = ["data", "merge", "zzznope"]
    got = sq.search_quality(path, qterms, k=10, rel_tf=2)

    toks = _toks(texts)
    n = len(toks)
    dls = np.array([len(tk) for tk in toks], dtype=np.float64)
    avgdl = dls.sum() / n
    rows = {}
    for qt in qterms:
        tf = np.array([tk.count(qt) for tk in toks], dtype=np.float64)
        m = tf > 0
        dfv = int(m.sum())
        if dfv == 0:
            rows[qt] = (0, 0, 0, 0)
            continue
        idf = np.log(1 + (n - dfv + 0.5) / (dfv + 0.5))
        sc = idf * tf[m] / (tf[m] + 1.2 * (1 - 0.75 + 0.75 * dls[m] / avgdl))
        docs = np.nonzero(m)[0]
        key = np.floor(sc * 1e9).astype(np.int64)
        order = np.lexsort((docs, -key))[:10]
        rel_all = tf >= 2
        top_rel = rel_all[docs[order]]
        first = int(np.argmax(top_rel)) + 1 if top_rel.any() else 0
        rows[qt] = (int(top_rel.sum()), len(order),
                    int(rel_all.sum()), first)
    for i, qt in enumerate(sorted(qterms)):
        assert got.column("query_term")[i].as_py() == qt
        assert (got.column("n_rel_ret")[i].as_py(),
                got.column("n_ret")[i].as_py(),
                got.column("n_rel")[i].as_py(),
                got.column("first_rel_rank")[i].as_py()) == rows[qt]


def test_span_not_vs_brute(sbx_corpus, monkeypatch, tmp_path):
    from lucene_ray.pipelines import search_queries as sq
    monkeypatch.setattr(sq, "_CACHE_ROOT", str(tmp_path))
    path, texts, _ = sbx_corpus
    got = sq.span_not_match(path, ["data", "merge"], "key", 1, 1)
    want = []
    for i, tk in enumerate(_toks(texts)):
        kq = {j for j, w in enumerate(tk) if w == "key"}
        ok = False
        for p in range(len(tk) - 1):
            if tk[p] == "data" and tk[p + 1] == "merge":
                # widened exclude [q-1, q+1] overlaps [p, p+1]?
                if not any(p - 1 <= q <= p + 2 for q in kq):
                    ok = True
        if ok:
            want.append(i)
    assert got.column("doc_id").to_pylist() == want


def test_bigram_surprisal_vs_brute(sbx_corpus):
    from collections import Counter

    from lucene_ray.pipelines.webtext import bigram_surprisal_topk
    path, texts, _ = sbx_corpus
    got = bigram_surprisal_topk(path, k=15)

    toks = _toks(texts)
    cb, cp = Counter(), Counter()
    for tk in toks:
        for a, b in zip(tk, tk[1:]):
            cb[(a, b)] += 1
            cp[a] += 1
    keys, docs = [], []
    for i, tk in enumerate(toks):
        pairs = list(zip(tk, tk[1:]))
        if not pairs:
            continue
        s = sum(-np.log(cb[p] / cp[p[0]]) for p in pairs)
        keys.append(int(np.floor(s / len(pairs) * 1e9)))
        docs.append(i)
    order = np.lexsort((np.asarray(docs), -np.asarray(keys)))[:15]
    want = [docs[j] for j in order]
    assert got.column("doc_id").to_pylist() == want


def test_blended_infix_vs_brute(sbx_corpus, monkeypatch, tmp_path):
    from lucene_ray.pipelines import search_queries as sq
    monkeypatch.setattr(sq, "_CACHE_ROOT", str(tmp_path))
    path, texts, _ = sbx_corpus
    for blender in ("reciprocal", "linear"):
        got = sq.suggest_blended_infix(path, "merge", 10, blender)
        keys, docs = [], []
        for i, tk in enumerate(_toks(texts)):
            if "merge" not in tk:
                continue
            p = tk.index("merge")
            w = float(len(tk))
            s = w / (1.0 + p) if blender == "reciprocal" \
                else w * (1.0 - 0.10 * p)
            keys.append(int(np.floor(s * 1e9)))
            docs.append(i)
        order = np.lexsort((np.asarray(docs), -np.asarray(keys)))[:10]
        want = [docs[j] for j in order]
        assert got.column("doc_id").to_pylist() == want, blender


def _brute_bm25(tf, dls, df, n, avgdl):
    """exact64 BM25 of freq arrays (0 where tf == 0)."""
    idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
    m = tf > 0
    sc = np.zeros(len(tf))
    sc[m] = idf * tf[m] / (tf[m] + 1.2 * (1 - 0.75 + 0.75 * dls[m] / avgdl))
    return sc


def _brute_rank(sc, k):
    """doc ids with sc > 0 by floor(sc*1e9) desc, doc_id asc."""
    key = np.floor(sc * 1e9).astype(np.int64)
    order = np.lexsort((np.arange(len(sc)), -key))
    return [int(i) for i in order if sc[i] > 0][:k]


def test_drivers_skip_deleted_docs(sbx_corpus, monkeypatch, tmp_path):
    """With tombstones in the cached index, each driver returns only
    live docs and equals the brute force over them, with df, docCount
    and avgdl from the generation's stats (which still count deleted
    docs, as Lucene's docFreq does until a merge)."""
    from lucene_ray.index.deletes import apply_deletes
    from lucene_ray.pipelines import search_queries as sq
    from lucene_ray.search import IndexReader
    from lucene_ray.search.query import _edit_distance
    monkeypatch.setattr(sq, "_CACHE_ROOT", str(tmp_path))
    path, texts, _ = sbx_corpus
    idx = sq.cached_index(path)
    dead = np.sort(np.random.default_rng(3).choice(400, 60, replace=False))
    apply_deletes(idx, {s.seg_id: dead[(dead >= s.min_doc)
                                       & (dead <= s.max_doc)]
                        for s in IndexReader(idx).segment_infos})
    reader = IndexReader(idx)
    n = reader.doc_count
    avgdl = reader.sum_total_term_freq / n
    toks = _toks(texts)
    live = np.ones(len(toks), dtype=bool)
    live[dead] = False
    dls = np.array([len(tk) for tk in toks], dtype=np.float64)

    def tf(t):
        return np.array([tk.count(t) if lv else 0
                         for tk, lv in zip(toks, live)], dtype=np.float64)

    def df(t):
        return reader.term_stats([t])[t][0]

    # SynonymQuery
    terms, boosts = ["merge", "window", "spark"], [1.0, 0.5, 0.25]
    f = sum(b * tf(t) for t, b in zip(terms, boosts))
    want = _brute_rank(_brute_bm25(f, dls, max(map(df, terms)), n, avgdl),
                       15)
    got = sq.synonym_blended_topk(path, terms, boosts, k=15)
    assert got.column("doc_id").to_pylist() == want

    # FuzzyLikeThis: variants chosen on the generation's dfs, every
    # clause scored with df = 1
    vocab = sorted({t for tk in toks for t in tk})
    scored_terms = []
    for st in ["merge", "datq"]:
        variants = [(v, _edit_distance(v, st, 1, True)) for v in vocab]
        variants = [(v, d) for v, d in variants if d <= 1]
        sdf = df(st) or sum(df(v) for v, _ in variants) // len(variants)
        idf_src = np.log((n + 1) / (sdf + 1.0)) + 1.0
        for v, d in variants:
            boost = 1.0 - d / min(len(v), len(st))
            scored_terms.append((boost * boost * idf_src, v))
    scored_terms.sort(key=lambda x: (-x[0], x[1]))
    sc = np.zeros(len(toks))
    for tscore, v in scored_terms[:8]:
        sc += tscore * _brute_bm25(tf(v), dls, 1, n, avgdl)
    got = sq.fuzzy_like_this_topk(path, ["merge", "datq"], 8, 1, 15)
    assert got.column("doc_id").to_pylist() == _brute_rank(sc, 15)

    # search quality: ranking and relevance over live docs only
    got = sq.search_quality(path, ["data", "merge"], k=10, rel_tf=2)
    for i, qt in enumerate(["data", "merge"]):
        f = tf(qt)
        top = _brute_rank(_brute_bm25(f, dls, df(qt), n, avgdl), 10)
        rel = f[top] >= 2
        assert got.slice(i, 1).to_pylist()[0] == {
            "query_term": qt, "n_rel_ret": int(rel.sum()),
            "n_ret": len(top), "n_rel": int((f >= 2).sum()),
            "first_rel_rank": int(np.argmax(rel)) + 1 if rel.any() else 0}

    # bm25_topk (term): the tf and dl columns of live docs
    f = tf("data")
    top = _brute_rank(_brute_bm25(f, dls, df("data"), n, avgdl), 10)
    got = sq.bm25_topk(path, ["data"], "term", k=10)
    assert got.column("doc_id").to_pylist() == top
    assert got.column("tf").to_pylist() == [int(f[d]) for d in top]
    assert got.column("dl").to_pylist() == [int(dls[d]) for d in top]

    # BlendedInfixSuggester filters with the live mask as well
    got = sq.suggest_blended_infix(path, "merge", 400)
    assert not set(got.column("doc_id").to_pylist()) & set(dead.tolist())
    assert got.num_rows == int((tf("merge") > 0).sum())


def test_group_msm_syntax():
    from lucene_ray.search import BooleanQuery
    from lucene_ray.search.queryparser import parse_query
    q = parse_query("(data merge spark window)@3")
    assert isinstance(q, BooleanQuery)
    assert q.min_should_match == 3
    assert len(q.should) == 4
    # '@' stays an ordinary term character at the LEXER (the standard
    # analyzer then splits the token, pre-existing behavior) — it must
    # NOT be consumed as a min-should-match marker mid-expression
    q2 = parse_query("user@example.com")
    assert getattr(q2, "terms", None) == ("user", "example.com")
    # boost and msm compose: (...)^2@2 / (...)@2 with boost first
    q3 = parse_query("(data merge)^2@2")
    from lucene_ray.search.query import BoostQuery
    assert isinstance(q3, BoostQuery) and q3.boost == 2.0
    assert q3.inner.min_should_match == 2


def test_profiler_breakdown(sbx_corpus, monkeypatch, tmp_path):
    from lucene_ray.pipelines import search_queries as sq
    monkeypatch.setattr(sq, "_CACHE_ROOT", str(tmp_path))
    path, texts, _ = sbx_corpus
    got = sq.profile_query_counts(path, ["data"], ["merge", "spark"])
    toks = _toks(texts)
    nd = sum("data" in tk for tk in toks)
    nm = sum("merge" in tk for tk in toks)
    ns = sum("spark" in tk for tk in toks)
    no = sum(("merge" in tk or "spark" in tk) for tk in toks)
    nr = sum(("data" in tk and ("merge" in tk or "spark" in tk))
             for tk in toks)
    rows = dict(zip(got.column("node").to_pylist(),
                    got.column("n_matches").to_pylist()))
    assert rows == {"root": nr, "root.must[0]": nd, "root.must[1]": no,
                    "root.must[1].should[0]": nm,
                    "root.must[1].should[1]": ns}
    types = dict(zip(got.column("node").to_pylist(),
                     got.column("type").to_pylist()))
    assert types["root"] == "BooleanQuery"
    assert types["root.must[0]"] == "TermQuery"
    # the full profile (with wall clock) has the same shape
    from lucene_ray.search import IndexReader, Searcher
    from lucene_ray.search.profiler import profile_query
    s = Searcher(IndexReader(sq.cached_index(path)),
                 similarity="bm25_exact64")
    from lucene_ray.search import BooleanQuery, TermQuery
    q = BooleanQuery(must=(TermQuery("data"),))
    full = profile_query(s, q)
    assert full.column_names == ["node", "type", "n_matches", "wall_ns"]
    assert all(w >= 0 for w in full.column("wall_ns").to_pylist())
    # a DisMax tree profiles its disjuncts too
    from lucene_ray.search import DisjunctionMaxQuery
    dm = profile_query(s, DisjunctionMaxQuery((TermQuery("data"),
                                               TermQuery("merge"))))
    dm_rows = dict(zip(dm.column("node").to_pylist(),
                       dm.column("n_matches").to_pylist()))
    assert dm_rows == {"root": sum(("data" in tk or "merge" in tk)
                                   for tk in toks),
                       "root.disjuncts[0]": nd, "root.disjuncts[1]": nm}
    # the rows describe the rewritten tree: the boost is pushed into the
    # OR's clauses, so no BoostQuery row remains
    from lucene_ray.search.query import BoostQuery
    bq = profile_query(s, BoostQuery(BooleanQuery(
        should=(TermQuery("merge"), TermQuery("spark"))), 2.0))
    assert list(zip(bq.column("node").to_pylist(),
                    bq.column("type").to_pylist(),
                    bq.column("n_matches").to_pylist())) == [
        ("root", "BooleanQuery", no),
        ("root.should[0]", "TermQuery", nm),
        ("root.should[1]", "TermQuery", ns)]


def test_jaro_winkler_matches_duckdb():
    import duckdb

    from lucene_ray.search.suggest import jaro_winkler
    con = duckdb.connect()
    words = ["merge", "merg", "mere", "spark", "spank", "window",
             "widow", "data", "dart", "abc", "abcd", "kitten",
             "sitting", "a", "dat"]
    for a in words:
        for b in words:
            d = con.execute("select jaro_winkler_similarity(?, ?)",
                            [a, b]).fetchone()[0]
            assert abs(jaro_winkler(a, b) - d) < 1e-12, (a, b)


def test_spell_correct_jw(sbx_corpus, monkeypatch, tmp_path):
    from lucene_ray.pipelines import search_queries as sq
    from lucene_ray.search import IndexReader
    from lucene_ray.search.suggest import jaro_winkler, spell_correct_jw
    monkeypatch.setattr(sq, "_CACHE_ROOT", str(tmp_path))
    path, texts, _ = sbx_corpus
    reader = IndexReader(sq.cached_index(path))
    got = spell_correct_jw(reader, "merg", 5)
    vocab = sorted({t for tk in _toks(texts) for t in tk})

    def lev(a, b):
        prev = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            cur = [i]
            for j, cb in enumerate(b, 1):
                cur.append(min(prev[j] + 1, cur[-1] + 1,
                               prev[j - 1] + (ca != cb)))
            prev = cur
        return prev[-1]

    cands = [t for t in vocab if t != "merg" and lev("merg", t) <= 2]
    keys = [(-(int(np.floor(jaro_winkler("merg", t) * 1e9))), t)
            for t in cands]
    want = [t for _, t in sorted(keys)][:5]
    assert got.column("term").to_pylist() == want
