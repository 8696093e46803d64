"""Driver-facing BM25 query pipelines over the `documents` table.

Builds (and caches) a real index with the engine, then answers top-k
queries in `bm25_exact64` similarity mode, returning integer-only
result tables (doc_id, tf, dl, rank) whose values an ANSI-SQL oracle
reproduces exactly — the correctness gate for the whole
index-build + query path.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa

from ..index import build_index
from ..index.manifest import FORMAT_VERSION
from ..search import BooleanQuery, IndexReader, Searcher, TermQuery
from ..search.bm25 import idf64, score64

# keyed by on-disk format: an index cached by code that wrote another
# format is rebuilt, not opened (readers refuse other versions)
_CACHE_ROOT = f"/tmp/lucene_ray_cache/v{FORMAT_VERSION}"


def cached_index(doc_path: str, *, batch_size: int = 2048) -> str:
    """Build-or-reuse a positional index over a documents parquet file."""
    key = hashlib.md5(doc_path.encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"docidx-{key}")
    marker = os.path.join(out, "manifest_0.json")
    if not os.path.exists(marker):
        build_index(doc_path, out, text_col="text", id_col="doc_id",
                    batch_size=batch_size, index_positions=True)
    return out


def _query(kind: str, terms: list[str]):
    if kind == "term":
        return TermQuery(terms[0])
    if kind == "and":
        return BooleanQuery(must=tuple(TermQuery(t) for t in terms))
    if kind == "or":
        return BooleanQuery(should=tuple(TermQuery(t) for t in terms))
    if kind == "and_or":
        return BooleanQuery(must=(TermQuery(terms[0]),),
                            should=tuple(TermQuery(t) for t in terms[1:]))
    raise ValueError(kind)


def _quantized_rank_table(docs, scores, k: int) -> pa.Table:
    """Rank by the quantized integer key floor(score*1e9), ties by
    doc_id — the SQL oracle ranks by the identical key, so one-ULP
    summation-order differences (numpy accumulates in clause order,
    SQL sum() in arbitrary order) can never flip a rank: true ties
    land on the same grid point and break by doc_id on both sides."""
    key = np.floor(scores * 1e9).astype(np.int64)
    order = np.lexsort((docs, -key))[:k]
    return pa.table({
        "doc_id": pa.array(docs[order], pa.int64()),
        "rank": pa.array(np.arange(1, len(order) + 1), pa.int64()),
    })


def sim_topk(doc_path: str, terms: list[str], kind: str, sim: str,
             k: int = 20) -> pa.Table:
    """Top-k under a pluggable Similarity (similarities module role —
    Classic / LMDirichlet / LMJelinekMercer / AxiomaticF2EXP / Boolean).
    Returns (doc_id, rank) ranked by the quantized key
    floor(score*1e9) desc, ties doc_id asc (see
    ``_quantized_rank_table`` — ULP-proof against SQL sum order)."""
    from ..search.similarities import (
        AxiomaticF2EXP, BooleanSimilarity, ClassicSimilarity,
        LMDirichletSimilarity, LMJelinekMercerSimilarity,
        SweetSpotSimilarity,
    )
    sims = {"classic": ClassicSimilarity, "lm_dirichlet": LMDirichletSimilarity,
            "boolean": BooleanSimilarity,
            "lm_jelinek_mercer": LMJelinekMercerSimilarity,
            "axiomatic_f2exp": AxiomaticF2EXP,
            "sweetspot": lambda: SweetSpotSimilarity(
                ln_min=20, ln_max=60, ln_steep=0.5,
                tf_base=1.0, tf_min=0.0)}
    s = Searcher(IndexReader(cached_index(doc_path)), similarity=sims[sim]())
    docs, scores = s.eval_complete(_query(kind, terms))
    return _quantized_rank_table(docs, scores, k)


def bm25_topk(doc_path: str, terms: list[str], kind: str = "term",
              k: int = 10) -> pa.Table:
    """Top-k doc ids by BM25 (exact64 oracle mode).

    Single-term queries return (doc_id, tf, dl, rank); multi-term return
    (doc_id, rank). Ranks 1..k by score desc, ties doc_id asc.
    """
    idx = cached_index(doc_path)
    reader = IndexReader(idx)
    s = Searcher(reader, similarity="bm25_exact64")
    if kind != "term":
        # multi-term sums rank on the quantized key (see
        # _quantized_rank_table): the DuckDB oracle's parallel sum()
        # order was MEASURED flipping ULP-tied boundary ranks run-to-run
        docs, scores = s.eval_complete(_query(kind, terms))
        return _quantized_rank_table(docs, scores, k)
    td = s.search(_query(kind, terms), k=k)
    ranks = np.arange(1, len(td.doc_ids) + 1, dtype=np.int64)
    if len(terms) == 1:
        docs, freqs = reader.live_postings(terms[0])
        tfs = freqs[np.searchsorted(docs, td.doc_ids)]
        return pa.table({"doc_id": pa.array(td.doc_ids, pa.int64()),
                         "tf": pa.array(tfs, pa.int64()),
                         "dl": pa.array(reader.doc_lens(td.doc_ids),
                                        pa.int64()),
                         "rank": pa.array(ranks, pa.int64())})
    return pa.table({"doc_id": pa.array(td.doc_ids, pa.int64()),
                     "rank": pa.array(ranks, pa.int64())})


def bm25_topk_page(doc_path: str, terms: list[str], kind: str = "or",
                   k: int = 20, page: int = 2) -> pa.Table:
    """searchAfter paging (IndexSearcher.searchAfter): page N of the
    BM25 ranking under exact64, each page anchored on the previous
    page's last (score, docID). Returns (doc_id, rank) with GLOBAL
    ranks — identical to one big top-(page*k) ranking."""
    idx = cached_index(doc_path)
    s = Searcher(IndexReader(idx), similarity="bm25_exact64")
    q = _query(kind, terms)
    # page slice of the quantized global ranking (ULP-proof vs the SQL
    # oracle, same reasoning as _quantized_rank_table); the raw
    # search_after protocol itself is pytest-gated
    # (test_search_after_pages_equal_global_ranking)
    docs, scores = s.eval_complete(q)
    full = _quantized_rank_table(docs, scores, page * k)
    lo = (page - 1) * k
    return pa.table({
        "doc_id": full.column("doc_id").slice(lo, k),
        "rank": full.column("rank").slice(lo, k),
    })


def conjunction_docs(doc_path: str, terms: list[str]) -> pa.Table:
    """All doc ids containing every term (match-only, no scoring)."""
    idx = cached_index(doc_path)
    s = Searcher(IndexReader(idx))
    docs = s.match_docs(_query("and", terms))
    return pa.table({"doc_id": pa.array(docs, pa.int64())})


def match_query_docs(doc_path: str, q) -> pa.Table:
    """All doc ids matching an arbitrary query (prefix / wildcard /
    range / fuzzy / boolean...), sorted."""
    idx = cached_index(doc_path)
    s = Searcher(IndexReader(idx))
    return pa.table({"doc_id": pa.array(s.match_docs(q), pa.int64())})


def phrase_topk(doc_path: str, terms: list[str], k: int = 20) -> pa.Table:
    """Exact-phrase BM25 top-k (Lucene float32 path): (doc_id, rank)."""
    from lucene_ray.search import PhraseQuery
    idx = cached_index(doc_path)
    s = Searcher(IndexReader(idx))
    td = s.search(PhraseQuery(tuple(terms)), k=k)
    return pa.table({
        "doc_id": pa.array(td.doc_ids, pa.int64()),
        "rank": pa.array(np.arange(1, len(td.doc_ids) + 1), pa.int64()),
    })


def dismax_topk(doc_path: str, terms: list[str], tie_breaker: float,
                k: int = 20) -> pa.Table:
    """DisjunctionMax top-k (exact64 similarity): (doc_id, rank)."""
    from lucene_ray.search import DisjunctionMaxQuery, TermQuery
    idx = cached_index(doc_path)
    s = Searcher(IndexReader(idx), similarity="bm25_exact64")
    q = DisjunctionMaxQuery(tuple(TermQuery(t) for t in terms), tie_breaker)
    td = s.search(q, k=k)
    return pa.table({
        "doc_id": pa.array(td.doc_ids, pa.int64()),
        "rank": pa.array(np.arange(1, len(td.doc_ids) + 1), pa.int64()),
    })


def bm25_topk_lucene(doc_path: str, terms: list[str], kind: str = "term",
                     k: int = 10) -> pa.Table:
    """Lucene-exact float32 scoring mode (norm-quantized); returned as
    (doc_id, rank) — the pytest brute-force oracle gates the scores."""
    idx = cached_index(doc_path)
    s = Searcher(IndexReader(idx))
    td = s.search(_query(kind, terms), k=k)
    return pa.table({
        "doc_id": pa.array(td.doc_ids, pa.int64()),
        "rank": pa.array(np.arange(1, len(td.doc_ids) + 1), pa.int64()),
    })


def incremental_build_stats(doc_path: str) -> pa.Table:
    """Two-phase build: index the first half of the corpus, then APPEND
    the second half (addDocuments+commit analog,
    ``index/IndexWriter.java:1468,4020``; ``TestAddIndexes.java``), and
    read back the final generation's global term stats. An SQL oracle
    over the whole table must match — proving the appended chain equals
    a single build."""
    import shutil

    import pyarrow.parquet as pq

    key = hashlib.md5(("incr:" + doc_path).encode()).hexdigest()[:12]
    root = os.path.join(_CACHE_ROOT, f"incr-{key}")
    shutil.rmtree(root, ignore_errors=True)
    src = os.path.join(root, "src")
    os.makedirs(src, exist_ok=True)
    t = pq.read_table(doc_path, columns=["doc_id", "text"])
    ids = t.column("doc_id").to_numpy()
    mid = int(np.median(ids))
    import pyarrow.compute as pc
    pq.write_table(t.filter(pc.less_equal(t.column("doc_id"), mid)),
                   os.path.join(src, "half1.parquet"))
    pq.write_table(t.filter(pc.greater(t.column("doc_id"), mid)),
                   os.path.join(src, "half2.parquet"))
    out = os.path.join(root, "idx")
    build_index(os.path.join(src, "half1.parquet"), out, batch_size=2048)
    build_index(os.path.join(src, "half2.parquet"), out, batch_size=2048)
    stats = IndexReader(out).all_term_stats()
    terms = sorted(stats)
    return pa.table({
        "term": pa.array(terms, pa.string()),
        "df": pa.array([stats[x][0] for x in terms], pa.int64()),
        "ttf": pa.array([stats[x][1] for x in terms], pa.int64()),
    })


def dedup_update_live_docs(doc_path: str, key_col: str = "lang",
                           key_val: str = "de", offset: int = 100000) -> pa.Table:
    """updateDocument end-to-end: tombstone every doc whose ``key_col``
    equals ``key_val`` and re-add the same texts under ``doc_id+offset``
    (``IndexWriter.java:1828``, ``TestPerSegmentDeletes.java``). Returns
    the LIVE doc ids via MatchAllDocsQuery — the tombstone mask and the
    appended segments both show up in the answer."""
    import shutil

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from ..index.deletes import update_by_key
    from ..search import MatchAllDocsQuery

    key = hashlib.md5(("upd:" + doc_path).encode()).hexdigest()[:12]
    root = os.path.join(_CACHE_ROOT, f"upd-{key}")
    shutil.rmtree(root, ignore_errors=True)
    out = os.path.join(root, "idx")
    build_index(doc_path, out, batch_size=2048, stored_cols=(key_col,))
    t = pq.read_table(doc_path, columns=["doc_id", "text", key_col])
    sel = t.filter(pc.equal(t.column(key_col), key_val))
    new = pa.table({
        "doc_id": pc.add(sel.column("doc_id"), offset),
        "text": sel.column("text"),
        key_col: sel.column(key_col),
    })
    src = os.path.join(root, "replacements.parquet")
    os.makedirs(root, exist_ok=True)
    pq.write_table(new, src)
    update_by_key(out, src, key_col, batch_size=2048)
    s = Searcher(IndexReader(out))
    docs = s.match_docs(MatchAllDocsQuery())
    return pa.table({"doc_id": pa.array(docs, pa.int64())})


def synonym_query_docs(doc_path: str, expr: str,
                       synonyms: dict) -> pa.Table:
    """Query-time SynonymGraph round trip (util/QueryBuilder.java
    analyzeGraphBoolean): parse ``expr`` with a graph-synonym analyzer
    and return matching doc ids. Single-token synonyms become term
    disjunctions, multi-word synonyms become phrase paths."""
    from ..analysis.syngraph import SynonymGraphAnalyzer
    from ..search.queryparser import parse_query

    idx = cached_index(doc_path)
    s = Searcher(IndexReader(idx), similarity="bm25_exact64")
    q = parse_query(expr, default_field="text",
                    analyzer=SynonymGraphAnalyzer(synonyms))
    docs = s.match_docs(q)
    return pa.table({"doc_id": pa.array(docs, pa.int64())})


def point_box_match(sf_dir: str, ts_lo_us: int, ts_hi_us: int,
                    val_lo: float, val_hi: float) -> pa.Table:
    """BKD points analog end-to-end: build-or-reuse a 2-D point index
    over events (ts, value), answer an axis-aligned box query
    (PointRangeQuery; util/bkd/BKDWriter.java)."""
    from ..index.points import build_point_index, point_box_docs

    src = os.path.join(sf_dir, "events.parquet")
    key = hashlib.md5(("pts:" + src).encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"ptsidx-{key}")
    if not os.path.exists(os.path.join(out, "meta.json")):
        build_point_index(src, out, dims=("ts", "value"),
                          id_col="event_id", batch_size=65536)
    ids = point_box_docs(out, [(float(ts_lo_us), float(ts_hi_us)),
                               (val_lo, val_hi)])
    return pa.table({"event_id": pa.array(ids, pa.int64())})


def _geo_index(sf_dir: str) -> str:
    """2-D (lat, lon) BKD point index over customers with DERIVED
    deterministic coordinates (the sf tables carry no geo column; the
    integer-arithmetic derivation is mirrored exactly in the SQL
    oracle): lat = ((key*7919) % 18000)/100 - 90,
    lon = ((key*104729) % 36000)/100 - 180."""
    import ray.data

    from ..index.points import build_point_index

    src = os.path.join(sf_dir, "customer.parquet")
    key = hashlib.md5(("geo:" + src).encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"geoidx-{key}")
    if not os.path.exists(os.path.join(out, "meta.json")):
        def add_latlon(batch: pa.Table) -> pa.Table:
            k = batch.column("c_custkey").to_numpy()
            return pa.table({
                "c_custkey": batch.column("c_custkey"),
                "lat": pa.array((k * 7919 % 18000) / 100.0 - 90.0),
                "lon": pa.array((k * 104729 % 36000) / 100.0 - 180.0),
            })
        ds = ray.data.read_parquet(src, columns=["c_custkey"]) \
            .map_batches(add_latlon, batch_format="pyarrow")
        build_point_index(ds, out, dims=("lat", "lon"),
                          id_col="c_custkey", batch_size=65536)
    return out


def geo_box_match(sf_dir: str, min_lat: float, max_lat: float,
                  min_lon: float, max_lon: float) -> pa.Table:
    """LatLonPoint.newBoxQuery over the derived customer coords."""
    from ..search.geo import geo_box_docs
    ids = geo_box_docs(_geo_index(sf_dir), min_lat, max_lat,
                       min_lon, max_lon)
    return pa.table({"c_custkey": pa.array(ids, pa.int64())})


def geo_distance_match(sf_dir: str, lat: float, lon: float,
                       radius_m: float) -> pa.Table:
    """LatLonPoint.newDistanceQuery: BKD bbox + exact haversine."""
    from ..search.geo import geo_distance_docs
    ids = geo_distance_docs(_geo_index(sf_dir), lat, lon, radius_m)
    return pa.table({"c_custkey": pa.array(ids, pa.int64())})


def geo_nearest(sf_dir: str, lat: float, lon: float, k: int) -> pa.Table:
    """LatLonPoint.nearest / NearestNeighbor role: k closest customers
    to (lat, lon), ranked by (quantized haversine meters, id) — the
    integer micro-meter key makes the rank comparison engine-portable
    (same device as the BM25 ranking oracles)."""
    from ..search.geo import geo_nearest_docs
    ids, d = geo_nearest_docs(_geo_index(sf_dir), lat, lon, k)
    key = np.floor(d * 1e6).astype(np.int64)
    order = np.lexsort((ids, key))
    ids = ids[order]
    return pa.table({
        "c_custkey": pa.array(ids, pa.int64()),
        "rank": pa.array(np.arange(1, len(ids) + 1), pa.int64()),
    })


def parsed_query_docs(doc_path: str, expr: str) -> pa.Table:
    """Classic-parser round trip: parse ``expr`` (queryparser/classic
    syntax) against the cached documents index and return the matching
    doc ids — the driver's SQL oracle reproduces the boolean semantics
    directly."""
    from ..search.queryparser import parse_query

    idx = cached_index(doc_path)
    s = Searcher(IndexReader(idx), similarity="bm25_exact64")
    q = parse_query(expr, default_field="text")
    docs = s.match_docs(q)
    return pa.table({"doc_id": pa.array(docs, pa.int64())})


def xml_parsed_docs(doc_path: str, xml: str) -> pa.Table:
    """XML query parser round trip (queryparser/xml CoreParser role):
    parse the XML query document and return matching doc ids."""
    from ..search.xmlparser import parse_xml_query

    s = Searcher(IndexReader(cached_index(doc_path)),
                 similarity="bm25_exact64")
    docs = s.match_docs(parse_xml_query(xml, default_field="text"))
    return pa.table({"doc_id": pa.array(docs, pa.int64())})


def complex_phrase_match(doc_path: str, expr: str) -> pa.Table:
    """ComplexPhraseQueryParser round trip (queryparser/complexPhrase):
    wildcards/groups inside quoted phrases, lowered against the term
    dictionary at rewrite time; returns matching doc ids."""
    from ..search.queryparser import parse_complex_phrase_query

    idx = cached_index(doc_path)
    s = Searcher(IndexReader(idx), similarity="bm25_exact64")
    q = parse_complex_phrase_query(expr, default_field="text")
    docs = s.match_docs(q)
    return pa.table({"doc_id": pa.array(docs, pa.int64())})


def multi_field_match(doc_path: str, expr: str) -> pa.Table:
    """Cross-field query over a multi-field index of the documents
    table (text: StandardAnalyzer, lang + source: KeywordAnalyzer) —
    FieldInfos-style per-field postings, combined on global docIDs."""
    from ..analysis import KeywordAnalyzer
    from ..index.multi_field import build_multi_field_index
    from ..search.multi_field import MultiFieldSearcher
    from ..search.queryparser import parse_query

    key = hashlib.md5(("mf:" + doc_path).encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"mfidx-{key}")
    if not os.path.exists(os.path.join(out, "multi_field.json")):
        build_multi_field_index(
            doc_path, out,
            fields={"text": None, "lang": KeywordAnalyzer(),
                    "source": KeywordAnalyzer()},
            batch_size=2048)
    s = MultiFieldSearcher(out)
    docs = s.match_docs(parse_query(expr, default_field="text"))
    return pa.table({"doc_id": pa.array(docs, pa.int64())})


def numeric_range_match(doc_path: str, term: str, col: str, lo: int,
                        hi: int) -> pa.Table:
    """Term + numeric-range FILTER (PointRangeQuery analog over a
    stored doc-values column)."""
    from ..search.query import NumericRangeQuery

    key = hashlib.md5(("num2:" + doc_path).encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"numidx-{key}")
    if not os.path.exists(os.path.join(out, "manifest_0.json")):
        build_index(doc_path, out, batch_size=2048,
                    doc_value_cols=(col,))
    s = Searcher(IndexReader(out), similarity="bm25_exact64")
    q = BooleanQuery(must=(TermQuery(term),),
                     filter=(NumericRangeQuery(col, lo, hi),))
    docs = s.match_docs(q)
    return pa.table({"doc_id": pa.array(docs, pa.int64())})


def facet_lang_counts(doc_path: str, term: str, col: str = "lang") -> pa.Table:
    """Facet counts (FacetsCollector analog) for docs matching a term,
    over a stored keyword column."""
    from ..search.facets import facet_counts

    s = Searcher(IndexReader(_facet_index(doc_path)),
                 similarity="bm25_exact64")
    return facet_counts(s, TermQuery(term), col)


def diversified_or_topk(doc_path: str, terms: list[str], col: str = "lang",
                        max_per_key: int = 2, k: int = 20) -> pa.Table:
    """Diversified top-k (DiversifiedTopDocsCollector role): global
    BM25 (exact64) top-k over an OR query with at most ``max_per_key``
    docs per stored-key value. Uses the facet-cache index (stores the
    key column)."""
    from ..search.facets import diversified_topk

    s = Searcher(IndexReader(_facet_index(doc_path)),
                 similarity="bm25_exact64")
    return diversified_topk(s, _query("or", terms), col, max_per_key, k)


def highlight_top(doc_path: str, term: str, k: int = 5) -> pa.Table:
    """Search + snippet highlighting (UnifiedHighlighter analog) over
    the facet-cache index (stores text)."""
    from ..search.highlight import highlight_topk

    s = Searcher(IndexReader(_facet_index(doc_path)),
                 similarity="bm25_exact64")
    return highlight_topk(s, TermQuery(term), k=k)


def highlight_fvh_top(doc_path: str, term: str, k: int = 5) -> pa.Table:
    """FastVectorHighlighter round trip: BM25 top-k, then snippets from
    the offsets-bearing term vectors (no query-time re-analysis)."""
    from ..search.highlight import fast_vector_highlight

    key = hashlib.md5(("fvh:" + doc_path).encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"fvhidx-{key}")
    if not os.path.exists(os.path.join(out, "manifest_0.json")):
        build_index(doc_path, out, batch_size=2048,
                    stored_cols=("text",), term_vector_offsets=True)
    s = Searcher(IndexReader(out), similarity="bm25_exact64")
    td = s.search(TermQuery(term), k=k)
    docs = td.doc_ids.tolist()
    snips = []
    for rank, d in enumerate(docs, 1):
        text = None
        for sr in s.reader.segments():
            got = sr.stored(np.array([d]), "text")
            if got and got[0] is not None:
                text = got[0]
                break
        ps = fast_vector_highlight(s.reader, int(d), [term],
                                   text=text or "", max_passages=1)
        snips.append((d, rank, ps[0] if ps else ""))
    return pa.table({
        "doc_id": pa.array([x[0] for x in snips], pa.int64()),
        "rank": pa.array([x[1] for x in snips], pa.int64()),
        "snippet": pa.array([x[2] for x in snips], pa.string()),
    })


def suggest_completions(doc_path: str, prefix: str, k: int = 10) -> pa.Table:
    """Prefix completion ranked by df (AnalyzingSuggester role)."""
    from ..search.suggest import complete_prefix
    idx = cached_index(doc_path)
    return complete_prefix(IndexReader(idx), prefix, k)


def suggest_fuzzy_completions(doc_path: str, query: str,
                              k: int = 10) -> pa.Table:
    """FuzzySuggester role: analyzed-query completion with a fuzzy
    consumed-prefix match (defaults maxEdits=1, nonFuzzyPrefix=1,
    minFuzzyLength=3 — FuzzySuggester.java:60)."""
    from ..search.suggest import suggest_fuzzy
    idx = cached_index(doc_path)
    return suggest_fuzzy(IndexReader(idx), query, k)


def suggest_corrections(doc_path: str, word: str, k: int = 5) -> pa.Table:
    """Did-you-mean (DirectSpellChecker role); plain Levenshtein so the
    DuckDB oracle (levenshtein) reproduces the ranking."""
    from ..search.suggest import spell_correct
    idx = cached_index(doc_path)
    return spell_correct(IndexReader(idx), word, k, transpositions=False)


def topk_by_numeric_field(doc_path: str, col: str, k: int = 20,
                          ascending: bool = True) -> pa.Table:
    """Early-terminating sort-by-field top-k over the dv sidecar
    (index-sort role)."""
    from ..search.facets import topk_by_field

    key = hashlib.md5(("num2:" + doc_path).encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"numidx-{key}")
    if not os.path.exists(os.path.join(out, "manifest_0.json")):
        build_index(doc_path, out, batch_size=2048, doc_value_cols=(col,))
    return topk_by_field(IndexReader(out), col, k, ascending)


def topk_sorted_index(doc_path: str, col: str, k: int = 20,
                      ascending: bool = True) -> pa.Table:
    """True index sort (IndexWriterConfig.setIndexSort analog,
    ``IndexWriterConfig.java:475`` / ``index/Sorter.java``): the index
    is BUILT in (col, doc_id) order, so top-k-by-field reads only the
    first row group(s) — early termination by construction. The scan
    counters are asserted (pruning proof) before returning."""
    from ..index.sorted import build_sorted_index, sorted_topk

    key = hashlib.md5(
        f"srt1:{doc_path}:{col}:{ascending}".encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"srtidx-{key}")
    if not os.path.exists(os.path.join(out, "manifest_0.json")):
        build_sorted_index(doc_path, out, col, ascending=ascending,
                           batch_size=2048)
    t, stats = sorted_topk(out, k)
    # early-termination proof: a 20-row answer must not touch more
    # than the first segment (2048 docs/segment at this build size)
    assert stats["files_opened"] <= max(1, -(-k // 2048)), stats
    assert stats["rows_read"] <= 2048 * stats["files_opened"], stats
    return pa.table({
        "doc_id": t.column("doc_id"),
        col: t.column(col),
    })


def sorted_range_match(doc_path: str, lo: int, hi: int,
                       col: str = "n_chars") -> pa.Table:
    """IndexSortSortedNumericDocValuesRangeQuery role: a range on the
    index-sort field reads only the covering row groups (contiguous
    run by construction) and stops at the first group past the upper
    bound. Shares the sorted index with ``topk_shortest_sorted``."""
    from ..index.sorted import build_sorted_index, sorted_range

    key = hashlib.md5(
        f"srt1:{doc_path}:{col}:True".encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"srtidx-{key}")
    if not os.path.exists(os.path.join(out, "manifest_0.json")):
        build_sorted_index(doc_path, out, col, ascending=True,
                           batch_size=2048)
    t, stats = sorted_range(out, lo, hi)
    ids = np.sort(t.column("doc_id").to_numpy(zero_copy_only=False))
    return pa.table({"doc_id": pa.array(ids, pa.int64())})


def replica_search_topk(doc_path: str, terms: list[str], kind: str = "or",
                        k: int = 20) -> pa.Table:
    """Replicator-module role end-to-end: sync the index into a replica
    directory (delta copy, manifest-last publish), then answer the
    query FROM THE REPLICA — results must equal searching the source
    (gated by the same BM25 SQL oracle)."""
    from ..index.replicator import replicate

    src = cached_index(doc_path)
    key = hashlib.md5(("replica:" + doc_path).encode()).hexdigest()[:12]
    dst = os.path.join(_CACHE_ROOT, f"replica-{key}")
    replicate(src, dst)
    s = Searcher(IndexReader(dst), similarity="bm25_exact64")
    docs, scores = s.eval_complete(_query(kind, terms))
    return _quantized_rank_table(docs, scores, k)


def blended_term_topk(doc_path: str, terms: list[str], tie: float = 0.01,
                      k: int = 20) -> pa.Table:
    """BlendedTermQuery role (core search/BlendedTermQuery.java):
    every term scores with the blended df = max(df_i), combined by
    DisjunctionMax(tie=0.01) — the reference's default
    DISJUNCTION_MAX_REWRITE. (doc_id, rank), exact64 arithmetic."""
    from ..search import DisjunctionMaxQuery
    from ..search.similarities import BlendedBM25Similarity

    reader = IndexReader(cached_index(doc_path))
    stats = reader.term_stats(list(terms))
    df_blend = max(stats[t][0] for t in terms)
    s = Searcher(reader, similarity=BlendedBM25Similarity(df_blend))
    q = DisjunctionMaxQuery(tuple(TermQuery(t) for t in terms), tie)
    td = s.search(q, k=k)
    return pa.table({
        "doc_id": pa.array(td.doc_ids, pa.int64()),
        "rank": pa.array(np.arange(1, len(td.doc_ids) + 1), pa.int64()),
    })


def common_terms_topk(doc_path: str, terms: list[str],
                      max_term_frequency: float, k: int = 20) -> pa.Table:
    """CommonTermsQuery role: df-split boolean rewrite (high-frequency
    terms optional, low-frequency terms required as a group), scored
    exact64; (doc_id, rank)."""
    from ..search.query import common_terms_query

    s = Searcher(IndexReader(cached_index(doc_path)),
                 similarity="bm25_exact64")
    stats = s.reader.term_stats(list(terms))
    dfs = {t: stats[t][0] for t in terms}
    q = common_terms_query(terms, dfs, s.reader.doc_count,
                           max_term_frequency)
    td = s.search(q, k=k)
    return pa.table({
        "doc_id": pa.array(td.doc_ids, pa.int64()),
        "rank": pa.array(np.arange(1, len(td.doc_ids) + 1), pa.int64()),
    })


def feature_topk(doc_path: str, terms: list[str], mode: str,
                 field: str = "n_chars", k: int = 20, *,
                 weight: float = 3.5, pivot: float = 200.0,
                 origin: float = 500.0) -> pa.Table:
    """Static-feature score boosting over an OR query —
    FeatureField.newSaturationQuery (`mode='saturation'`) /
    LongField.newDistanceFeatureQuery (`mode='distance'`) roles on a
    numeric doc-value column; (doc_id, rank)."""
    from ..search import or_query
    from ..search.query import distance_feature_query, feature_saturation_query

    from ..search.query import feature_log_query, feature_sigmoid_query

    inner = or_query(terms)
    if mode == "saturation":
        q = feature_saturation_query(inner, field, weight, pivot)
    elif mode == "distance":
        q = distance_feature_query(inner, field, origin, pivot, weight)
    elif mode == "log":
        q = feature_log_query(inner, field, weight, 1.0)
    elif mode == "sigmoid":
        q = feature_sigmoid_query(inner, field, weight, pivot, 2.0)
    else:
        raise ValueError(mode)
    key = hashlib.md5(("num2:" + doc_path).encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"numidx-{key}")
    if not os.path.exists(os.path.join(out, "manifest_0.json")):
        build_index(doc_path, out, batch_size=2048,
                    doc_value_cols=(field,))
    s = Searcher(IndexReader(out), similarity="bm25_exact64")
    td = s.search(q, k=k)
    return pa.table({
        "doc_id": pa.array(td.doc_ids, pa.int64()),
        "rank": pa.array(np.arange(1, len(td.doc_ids) + 1), pa.int64()),
    })


def function_score_topk(doc_path: str, terms: list[str], expression: str,
                        k: int = 20) -> pa.Table:
    """FunctionScoreQuery + expressions-module role: inner OR query
    scored by a compiled arithmetic expression over ``_score`` and
    numeric doc-value columns; (doc_id, rank). Shares the dv-sidecar
    index with ``topk_by_numeric_field``."""
    from ..search import FunctionScoreQuery, or_query
    from ..search.expressions import compile_expression

    cols = sorted(compile_expression(expression).variables - {"_score"})
    key = hashlib.md5(("num2:" + doc_path).encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"numidx-{key}")
    if not os.path.exists(os.path.join(out, "manifest_0.json")):
        build_index(doc_path, out, batch_size=2048,
                    doc_value_cols=tuple(cols) or ("n_chars",))
    s = Searcher(IndexReader(out), similarity="bm25_exact64")
    td = s.search(FunctionScoreQuery(or_query(terms), expression), k=k)
    return pa.table({
        "doc_id": pa.array(td.doc_ids, pa.int64()),
        "rank": pa.array(np.arange(1, len(td.doc_ids) + 1), pa.int64()),
    })


def covering_match(doc_path: str, terms: list[str],
                   min_match: str = "1 + n_chars % 2") -> pa.Table:
    """CoveringQuery role (``search/CoveringQuery.java``): documents
    where at least minMatch(doc) of the term sub-queries match, the
    per-doc minimum an expression over doc-value columns
    (LongValuesSource analog). Match-only result (doc_id asc)."""
    from ..search import CoveringQuery, TermQuery
    from ..search.expressions import compile_expression

    cols = sorted(compile_expression(min_match).variables)
    key = hashlib.md5(("num2:" + doc_path).encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"numidx-{key}")
    if not os.path.exists(os.path.join(out, "manifest_0.json")):
        build_index(doc_path, out, batch_size=2048,
                    doc_value_cols=tuple(cols) or ("n_chars",))
    s = Searcher(IndexReader(out))
    q = CoveringQuery(tuple(TermQuery(t) for t in terms),
                      min_match=min_match)
    docs = s.match_docs(q)
    return pa.table({"doc_id": pa.array(docs, pa.int64())})


def range_field_match(doc_path: str, qlo: float, qhi: float,
                      relation: str) -> pa.Table:
    """Range-field query role (``document/DoubleRange.java`` +
    ``search/RangeFieldQuery.java``): each doc carries the closed range
    [n_chars, n_chars + doc_id % 97] (a computed index-time field,
    derived with a map_batches add-column pass); the query box
    [qlo, qhi] relates by INTERSECTS / WITHIN / CONTAINS / CROSSES.
    Match-only (doc_id asc)."""
    import pyarrow.compute as pc

    import ray.data

    from ..search import RangeFieldQuery

    key = hashlib.md5(("rangef:" + doc_path).encode()).hexdigest()[:12]
    root = os.path.join(_CACHE_ROOT, f"rfidx-{key}")
    out = os.path.join(root, "idx")
    if not os.path.exists(os.path.join(out, "manifest_0.json")):
        derived = os.path.join(root, "pages")

        def add_range(batch: pa.Table) -> pa.Table:
            lo = batch["n_chars"].to_numpy(zero_copy_only=False).astype(
                np.float64)
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            hi = lo + (ids % 97).astype(np.float64)
            return (batch.append_column("rlo", pa.array(lo))
                    .append_column("rhi", pa.array(hi)))

        (ray.data.read_parquet(doc_path,
                               columns=["doc_id", "text", "n_chars"])
         .map_batches(add_range, batch_format="pyarrow")
         .write_parquet(derived))
        build_index(derived, out, batch_size=2048,
                    doc_value_cols=("rlo", "rhi"))
    s = Searcher(IndexReader(out))
    q = RangeFieldQuery(("rlo",), ("rhi",), (float(qlo),), (float(qhi),),
                        relation)
    docs = s.match_docs(q)
    return pa.table({"doc_id": pa.array(docs, pa.int64())})


def blockjoin_order_keys(sf_dir: str, flag_term: str = "r") -> pa.Table:
    """ToParentBlockJoinQuery over orders (parents) + lineitems
    (children): orders having >= 1 lineitem whose returnflag matches.
    Children-first parent-last blocks; join = nearest parent above."""
    import pyarrow.parquet as pq

    from ..search.join import block_join_parents

    key = hashlib.md5(("bj2:" + sf_dir).encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"bjidx-{key}")
    if not os.path.exists(os.path.join(out, "idx", "manifest_0.json")):
        import pyarrow.compute as pc

        import ray.data

        from ..search.join import build_block_index_stream

        def child_text(batch: pa.Table) -> pa.Array:
            return pc.utf8_lower(pc.binary_join_element_wise(
                batch["l_returnflag"].combine_chunks().cast(pa.string()),
                batch["l_linestatus"].combine_chunks().cast(pa.string()),
                " "))

        def parent_text(batch: pa.Table) -> pa.Array:
            return pa.array(["parentdoc"] * len(batch), pa.string())

        build_block_index_stream(
            ray.data.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                                  columns=["o_orderkey"]),
            ray.data.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                                  columns=["l_orderkey", "l_returnflag",
                                           "l_linestatus"]),
            out, parent_key="o_orderkey", child_key="l_orderkey",
            parent_text_fn=parent_text, child_text_fn=child_text,
            stored_parent=("o_orderkey",), batch_size=8192)
    s = Searcher(IndexReader(os.path.join(out, "idx")),
                 similarity="bm25_exact64")
    docs, _ = block_join_parents(s, TermQuery(flag_term), "none")
    keys = []
    for info in s.reader.segment_infos:
        sr = s.reader.segment(info.seg_id)
        inb = docs[(docs >= info.min_doc) & (docs <= info.max_doc)]
        if len(inb):
            keys.extend(sr.stored(inb, "o_orderkey"))
    return pa.table({"o_orderkey": pa.array(sorted(keys), pa.int64())})


def blockjoin_child_keys(sf_dir: str, lo: int, hi: int) -> pa.Table:
    """ToChildBlockJoinQuery over the same orders/lineitem block index:
    a parent-space query (orders with o_orderkey in [lo, hi]) joins DOWN
    to every lineitem child; output one row per child (its order key)."""
    from ..search.join import block_join_children
    from ..search.query import NumericRangeQuery

    # reuse the bj2 cached block index built by blockjoin_order_keys
    blockjoin_order_keys(sf_dir)
    key = hashlib.md5(("bj2:" + sf_dir).encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"bjidx-{key}")
    s = Searcher(IndexReader(os.path.join(out, "idx")),
                 similarity="bm25_exact64")
    kids, _ = block_join_children(
        s, NumericRangeQuery("o_orderkey", lo, hi), inherit_scores=False)
    keys = []
    for info in s.reader.segment_infos:
        sr = s.reader.segment(info.seg_id)
        inb = kids[(kids >= info.min_doc) & (kids <= info.max_doc)]
        if len(inb):
            keys.extend(sr.stored(inb, "block_key"))
    return pa.table({"l_orderkey": pa.array(sorted(keys), pa.int64())})


def dv_stats(doc_path: str, term: str, col: str) -> pa.Table:
    """DocValuesStats role (``lucene/misc/src/java/.../document/
    DocValuesStats.java`` + ``DocValuesStatsCollector``; tests
    ``TestDocValuesStatsCollector.java``): aggregate a numeric
    doc-values column over the docs matching a query. Integer
    accumulators (count, sum, min, max) so the oracle compares exactly;
    mean/variance derive from them client-side."""
    # the dv-bearing index shared with topk_by_numeric_field
    key = hashlib.md5(("num2:" + doc_path).encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"numidx-{key}")
    if not os.path.exists(os.path.join(out, "manifest_0.json")):
        build_index(doc_path, out, batch_size=2048, doc_value_cols=(col,))
    s = Searcher(IndexReader(out), similarity="bm25_exact64")
    import numpy as np
    docs = s.match_docs(TermQuery(term))
    vals = s.doc_values(docs, col)
    vals = vals[~np.isnan(vals)].astype(np.int64)
    if len(vals) == 0:
        return pa.table({"count": pa.array([0], pa.int64()),
                         "sum": pa.array([0], pa.int64()),
                         "min": pa.array([0], pa.int64()),
                         "max": pa.array([0], pa.int64())})
    return pa.table({
        "count": pa.array([len(vals)], pa.int64()),
        "sum": pa.array([int(vals.sum())], pa.int64()),
        "min": pa.array([int(vals.min())], pa.int64()),
        "max": pa.array([int(vals.max())], pa.int64()),
    })


def _facet_index(doc_path: str) -> str:
    """The stored-cols index shared by facet/highlight/grouping queries."""
    key = hashlib.md5(("facet2:" + doc_path).encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"facetidx-{key}")
    if not os.path.exists(os.path.join(out, "manifest_0.json")):
        build_index(doc_path, out, batch_size=2048,
                    stored_cols=("lang", "source", "text", "n_chars"))
    return out


def grouped_topk(doc_path: str, terms: list[str], group_col: str = "lang",
                 n_groups: int = 4, k: int = 3) -> pa.Table:
    """TopGroups (grouping module): top-``n_groups`` groups by best hit
    of an OR query, top-``k`` hits within each group."""
    from ..search.grouping import group_topk

    s = Searcher(IndexReader(_facet_index(doc_path)),
                 similarity="bm25_exact64")
    return group_topk(s, _query("or", terms), group_col,
                      n_groups=n_groups, k=k)


def term_in_set_match(doc_path: str, terms: list[str]) -> pa.Table:
    """TermInSetQuery: docs containing ANY of the given terms
    (constant score, no clause cap)."""
    from ..search import TermInSetQuery

    s = Searcher(IndexReader(cached_index(doc_path)),
                 similarity="bm25_exact64")
    docs = s.match_docs(TermInSetQuery(tuple(terms)))
    return pa.table({"doc_id": pa.array(np.sort(docs), pa.int64())})


def join_util_topk(doc_path: str, term: str, join_col: str = "lang",
                   score_mode: str = "max", k: int = 50) -> pa.Table:
    """JoinUtil query-time join (self-join on the documents corpus):
    from-side docs matching ``term`` project their ``join_col`` values
    (score agg by ``score_mode``); to-side docs sharing a value match
    with the value's aggregate score. Top-k (doc_id, rank)."""
    from ..search.join import join_util_query

    s = Searcher(IndexReader(_facet_index(doc_path)),
                 similarity="bm25_exact64")
    docs, scores = join_util_query(s, TermQuery(term), join_col, s,
                                   join_col, score_mode)
    order = np.lexsort((docs, -scores))[:k]
    return pa.table({
        "doc_id": pa.array(docs[order], pa.int64()),
        "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
    })


def join_util_topk_q(doc_path: str, term: str, score_mode: str,
                     k: int = 50) -> pa.Table:
    """JoinUtil with the summing ScoreModes (Total / Avg — join/
    ScoreMode.java): ranked on the quantized integer key
    floor(score*1e9) so SQL sum-order ULP differences can't flip a
    rank (same device as the BM25 sum oracles)."""
    from ..search.join import join_util_query

    s = Searcher(IndexReader(_facet_index(doc_path)),
                 similarity="bm25_exact64")
    docs, scores = join_util_query(s, TermQuery(term), "lang", s,
                                   "lang", score_mode)
    return _quantized_rank_table(docs, scores, k)


def facet_range_counts(doc_path: str, term: str,
                       ranges=None) -> pa.Table:
    """LongRangeFacetCounts analog over doc_len for docs matching a
    term (ranges may overlap; each counts independently)."""
    from ..search.facets import range_facet_counts

    if ranges is None:
        ranges = [("short", 0, 40), ("mid", 40, 80), ("long", 80, None),
                  ("overlap", 20, 60)]
    s = Searcher(IndexReader(_facet_index(doc_path)),
                 similarity="bm25_exact64")
    return range_facet_counts(s, TermQuery(term), "doc_len", ranges)


def facet_taxonomy_counts(doc_path: str, term: str) -> pa.Table:
    """Hierarchical taxonomy facets over the (source, lang) path for
    docs matching a term: one count per path prefix."""
    from ..search.facets import taxonomy_facet_counts

    s = Searcher(IndexReader(_facet_index(doc_path)),
                 similarity="bm25_exact64")
    return taxonomy_facet_counts(s, TermQuery(term), ("source", "lang"))


def dv_terms_match(doc_path: str, values: list[str]) -> pa.Table:
    """DocValuesTermsQuery role: docs whose stored ``lang`` is in the
    set AND matching a term (filter composition through the boolean
    tree)."""
    from ..search import BooleanQuery, DocValuesTermsQuery

    s = Searcher(IndexReader(_facet_index(doc_path)))
    q = BooleanQuery(
        must=(TermQuery(_TERM_FOR_DV),),
        filter=(DocValuesTermsQuery("lang", tuple(values)),))
    docs = s.match_docs(q)
    return pa.table({"doc_id": pa.array(docs, pa.int64())})


_TERM_FOR_DV = "data"


def facet_multi_counts(doc_path: str, term: str) -> pa.Table:
    """SortedSetDocValues facets (multi-valued field): each doc carries
    the tag SET [lang, source, 't'||(doc_id % 5)] (a derived list
    column added with a map_batches pass); per matching doc every tag
    counts once."""
    import ray.data

    from ..search.facets import facet_counts_multi

    key = hashlib.md5(("mvfacet:" + doc_path).encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"mvfidx-{key}")
    if not os.path.exists(os.path.join(out, "manifest_0.json")):
        root = os.path.join(_CACHE_ROOT, f"mvfsrc-{key}")

        def add_tags(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            langs = batch["lang"].to_pylist()
            srcs = batch["source"].to_pylist()
            tags = [[l or "", s or "", f"t{int(i) % 5}"]
                    for i, l, s in zip(ids, langs, srcs)]
            return batch.append_column(
                "tags", pa.array(tags, pa.list_(pa.string())))

        (ray.data.read_parquet(
            doc_path, columns=["doc_id", "text", "lang", "source"])
         .map_batches(add_tags, batch_format="pyarrow")
         .write_parquet(root))
        build_index(root, out, batch_size=2048, stored_cols=("tags",))
    s = Searcher(IndexReader(out))
    return facet_counts_multi(s, TermQuery(term), "tags")


def facet_assoc_sums(doc_path: str, term: str) -> pa.Table:
    """Association facets (TaxonomyFacetIntAssociations SUM role):
    per (source, lang) path prefix, the sum of matching docs' n_chars
    association values."""
    from ..search.facets import taxonomy_facet_sum_associations

    s = Searcher(IndexReader(_facet_index(doc_path)),
                 similarity="bm25_exact64")
    return taxonomy_facet_sum_associations(
        s, TermQuery(term), ("source", "lang"), "n_chars")


def facet_sampled(doc_path: str, term: str, pct: int = 25) -> pa.Table:
    """RandomSamplingFacetsCollector role: facet counts over a
    deterministic salted-md5 sample of the matching docs."""
    from ..search.facets import sampled_facet_counts

    s = Searcher(IndexReader(_facet_index(doc_path)),
                 similarity="bm25_exact64")
    return sampled_facet_counts(s, TermQuery(term), "lang", pct=pct)


def payload_sum(doc_path: str, term: str, func: str = "sum") -> pa.Table:
    """PayloadScoreQuery role over a DelimitedPayloadTokenFilter corpus:
    every token carries the payload ``(ord % 7) + 1`` (ord = 0-based
    token position — derived with a map_batches pass, mirrored exactly
    by the SQL oracle's generate_subscripts); the query aggregates the
    probed term's payloads per doc. Integer output for exact compare."""
    import ray.data

    from ..index.payload_index import build_payload_index
    from ..search.payloads import payload_score

    key = hashlib.md5(("payload:" + doc_path).encode()).hexdigest()[:12]
    root = os.path.join(_CACHE_ROOT, f"payidx-{key}")
    idx = os.path.join(root, "idx")
    if not os.path.isdir(idx) or not os.listdir(idx):
        derived = os.path.join(root, "pages")

        def add_payloads(batch: pa.Table) -> pa.Table:
            texts = batch["text"].to_pylist()
            out = []
            for text in texts:
                toks = [t for t in (text or "").split(" ") if t]
                out.append(" ".join(f"{t}|{(i % 7) + 1}"
                                    for i, t in enumerate(toks)))
            return pa.table({"doc_id": batch["doc_id"],
                             "text": pa.array(out, pa.string())})

        (ray.data.read_parquet(doc_path, columns=["doc_id", "text"])
         .map_batches(add_payloads, batch_format="pyarrow")
         .write_parquet(derived))
        build_payload_index(derived, idx)
    docs, scores = payload_score(idx, term, func)
    return pa.table({
        "doc_id": pa.array(docs, pa.int64()),
        "payload_sum": pa.array(scores.astype(np.int64), pa.int64()),
    })


def suggest_context_completions(doc_path: str, prefix: str,
                                context: str, k: int = 10) -> pa.Table:
    """ContextQuery role: prefix completion restricted to one context
    (per-context df from the (context, term) completion sidecar)."""
    from ..search.suggest import build_context_completions, suggest_context

    key = hashlib.md5(("ctxsug:" + doc_path).encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"ctxsug-{key}")
    if not os.path.isdir(out) or not os.listdir(out):
        build_context_completions(doc_path, out)
    return suggest_context(out, prefix, context, k)


def span_first_match(doc_path: str, term: str, end: int) -> pa.Table:
    """SpanFirstQuery role (``queries/spans/SpanFirstQuery.java`` /
    SpanPositionRangeQuery(0, end)): docs where ``term`` occurs at a
    position < ``end`` (0-based, matching the reference's position
    counting). Reads only the term's positional postings."""
    s = Searcher(IndexReader(cached_index(doc_path)))
    out = []
    for sr in s.reader.segments():
        got = sr.get_positions(term)
        if got is None:
            continue
        docs, freqs, pos = got
        offs = np.concatenate(([0], np.cumsum(freqs)))
        first = pos[offs[:-1]]  # positions sorted per doc: first occ
        hit = docs[first < end]
        hit, = s._live(sr, hit)
        out.append(hit)
    docs = (np.sort(np.concatenate(out)) if out
            else np.empty(0, np.int64))
    return pa.table({"doc_id": pa.array(docs, pa.int64())})


def term_automaton_match(doc_path: str, kind: str) -> pa.Table:
    """TermAutomatonQuery round trips (sandbox TermAutomatonQuery.java)
    against the cached positional index: 'gap' = data ANY merge
    (a 1-token hole), 'alt' = data (merge|window)."""
    from ..search.automaton import TermAutomatonQuery, term_automaton_docs

    q = TermAutomatonQuery()
    if kind == "gap":
        q.add_transition(0, 1, "data")
        q.add_any_transition(1, 2)
        q.add_transition(2, 3, "merge")
        q.set_accept(3)
    elif kind == "alt":
        q.add_transition(0, 1, "data")
        q.add_transition(1, 2, "merge")
        q.add_transition(1, 2, "window")
        q.set_accept(2)
    else:
        raise ValueError(kind)
    s = Searcher(IndexReader(cached_index(doc_path)),
                 similarity="bm25_exact64")
    docs = term_automaton_docs(s, q.finish())
    return pa.table({"doc_id": pa.array(docs, pa.int64())})


def payload_check_docs(doc_path: str, term: str, value: float) -> pa.Table:
    """SpanPayloadCheckQuery role: docs where some occurrence of
    ``term`` carries payload == value (same derived corpus as
    ``payload_sum``)."""
    from ..search.payloads import payload_check

    payload_sum(doc_path, term)  # ensures the shared payload index
    key = hashlib.md5(("payload:" + doc_path).encode()).hexdigest()[:12]
    idx = os.path.join(_CACHE_ROOT, f"payidx-{key}", "idx")
    docs = payload_check(idx, term, value)
    return pa.table({"doc_id": pa.array(docs, pa.int64())})


def interval_query_docs(doc_path: str, kind: str) -> pa.Table:
    """Intervals-module round trips (queries/intervals/Intervals.java
    combinators) against the cached positional index."""
    from ..search.intervals import (
        Containing, Or, Ordered, Phrase, Term as ITerm, interval_match_docs,
    )

    s = Searcher(IndexReader(cached_index(doc_path)),
                 similarity="bm25_exact64")
    sources = {
        # data..merge (ordered, <=3 gaps) intervals CONTAINING 'key'
        "containing": Containing(
            Ordered((ITerm("data"), ITerm("merge")), max_gaps=3),
            ITerm("key")),
        # either exact phrase
        "or": Or((Phrase(("data", "merge")), Phrase(("key", "order")))),
    }
    return interval_match_docs(s, sources[kind])


def rescored_topk(doc_path: str, terms: list[str], phrase: list[str],
                  weight: float = 2.0, n_first: int = 50,
                  k: int = 20) -> pa.Table:
    """QueryRescorer round trip: first-pass BM25 OR top-``n_first``
    (exact64), rescored with ``weight`` x the exact-phrase BM25 score,
    final top-``k`` (doc_id, rank)."""
    from ..search import PhraseQuery, or_query

    s = Searcher(IndexReader(cached_index(doc_path)),
                 similarity="bm25_exact64")
    first = s.search(or_query(terms), k=n_first)
    td = s.rescore(first, PhraseQuery(tuple(phrase)), weight=weight, k=k)
    return pa.table({
        "doc_id": pa.array(td.doc_ids, pa.int64()),
        "rank": pa.array(np.arange(1, len(td.doc_ids) + 1), pa.int64()),
    })


def facet_drill_sideways(doc_path: str, term: str,
                         selections: dict[str, str]) -> pa.Table:
    """DrillSideways panel (facet/DrillSideways.java): per drilled dim,
    counts under the base query + every OTHER dim's selection."""
    from ..search.facets import drill_sideways

    s = Searcher(IndexReader(_facet_index(doc_path)),
                 similarity="bm25_exact64")
    return drill_sideways(s, TermQuery(term), selections)


def suggest_infix(doc_path: str, fragment: str, k: int = 10) -> pa.Table:
    """Infix completion ranked by df (AnalyzingInfixSuggester role)."""
    from ..search.suggest import complete_infix
    idx = cached_index(doc_path)
    return complete_infix(IndexReader(idx), fragment, k)


def simple_parsed_docs(doc_path: str, expr: str,
                       default_operator: str = "must") -> pa.Table:
    """SimpleQueryParser (lenient end-user syntax) -> matching docs."""
    from ..search.simpleparser import parse_simple_query

    s = Searcher(IndexReader(cached_index(doc_path)),
                 similarity="bm25_exact64")
    q = parse_simple_query(expr, default_operator=default_operator)
    docs = s.match_docs(q)
    return pa.table({"doc_id": pa.array(np.sort(docs), pa.int64())})


def geo_polygon_match(sf_dir: str, poly=None) -> pa.Table:
    """LatLonPoint.newPolygonQuery over the derived customer coords
    (convex polygon -> half-plane conjunction, SQL-expressible)."""
    from ..search.geo import geo_polygon_docs

    if poly is None:
        # convex CCW pentagon over a populated patch of the derived grid
        poly = [(-20.0053, 10.0019), (30.0011, 20.0041),
                (45.0029, -40.0067), (10.0043, -80.0013),
                (-30.0037, -60.0071)]
    ids = geo_polygon_docs(_geo_index(sf_dir), poly, convex=True)
    return pa.table({"c_custkey": pa.array(ids, pa.int64())})


def _shape_index(sf_dir: str) -> str:
    """Indexed polygons (LatLonShape.java:79 role) over customers with
    DERIVED deterministic integer-hundredth rings (mirrored exactly in
    the SQL oracle): a kite around the customer's derived center with
    four per-key arm lengths."""
    import ray.data

    from ..index.shapes import build_shape_index

    src = os.path.join(sf_dir, "customer.parquet")
    key = hashlib.md5(("shape:" + src).encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"shapeidx-{key}")
    if not os.path.exists(os.path.join(out, "meta.json")):
        def add_ring(batch: pa.Table) -> pa.Table:
            k = batch.column("c_custkey").to_numpy()
            clat = (k * 7919 % 18000 - 9000).astype(np.float64)
            clon = (k * 104729 % 36000 - 18000).astype(np.float64)
            r0 = (500 + (k % 37) * 20).astype(np.float64)
            r1 = (500 + (k * 3 % 29) * 20).astype(np.float64)
            r2 = (500 + (k * 5 % 41) * 20).astype(np.float64)
            r3 = (500 + (k * 7 % 23) * 20).astype(np.float64)
            rings = [
                [[clon[i], clat[i] + r0[i]], [clon[i] + r1[i], clat[i]],
                 [clon[i], clat[i] - r2[i]], [clon[i] - r3[i], clat[i]]]
                for i in range(len(k))]
            return pa.table({
                "doc_id": pa.array(k, pa.int64()),
                "vertices": pa.array(
                    rings, pa.list_(pa.list_(pa.float64()))),
            })

        ds = ray.data.read_parquet(src, columns=["c_custkey"]) \
            .map_batches(add_ring, batch_format="pyarrow")
        build_shape_index(ds, out)
    return out


def geo_polygon_shape(sf_dir: str, px: float, py: float) -> pa.Table:
    """Shapes containing a query point: bbox-pruned triangle
    candidates from the tessellated index, exact ring confirm."""
    from ..index.shapes import shapes_containing_point

    ids = shapes_containing_point(_shape_index(sf_dir), px, py)
    return pa.table({"c_custkey": pa.array(ids, pa.int64())})


def _rect_shape_index(sf_dir: str) -> str:
    """Second shape index: DERIVED axis-aligned rectangles (still
    tessellated + queried through the generic triangle machinery) —
    rect algebra is exactly SQL-expressible, which gates the box
    QueryRelations (INTERSECTS/WITHIN/CONTAINS/DISJOINT)."""
    import ray.data

    from ..index.shapes import build_shape_index

    src = os.path.join(sf_dir, "customer.parquet")
    key = hashlib.md5(("rectshape:" + src).encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"rectidx-{key}")
    if not os.path.exists(os.path.join(out, "meta.json")):
        def add_ring(batch: pa.Table) -> pa.Table:
            k = batch.column("c_custkey").to_numpy()
            cx = (k * 7919 % 1000) / 10.0
            cy = (k * 104729 % 1000) / 10.0
            w = (1 + k % 7).astype(np.float64)
            h = (1 + k % 5).astype(np.float64)
            rings = [
                [[cx[i] - w[i], cy[i] - h[i]], [cx[i] + w[i], cy[i] - h[i]],
                 [cx[i] + w[i], cy[i] + h[i]], [cx[i] - w[i], cy[i] + h[i]]]
                for i in range(len(k))]
            return pa.table({
                "doc_id": pa.array(k, pa.int64()),
                "vertices": pa.array(
                    rings, pa.list_(pa.list_(pa.float64()))),
            })

        ds = ray.data.read_parquet(src, columns=["c_custkey"]) \
            .map_batches(add_ring, batch_format="pyarrow")
        build_shape_index(ds, out)
    return out


# query boxes chosen OFF the derived 0.1-grid so boundary inclusivity
# can never differ between the engine and the SQL oracle
_SHAPE_BOX = (40.03, 60.07, 30.01, 55.09)
_SHAPE_BOX_SMALL = (53.23, 55.27, 11.71, 12.79)


def shape_box_relate(sf_dir: str, relation: str) -> pa.Table:
    """ShapeField.QueryRelation box queries over the tessellated rect
    index (LatLonShapeBoundingBoxQuery roles)."""
    from ..index.shapes import (
        shapes_containing_box, shapes_disjoint_box,
        shapes_intersecting_box, shapes_within_box,
    )
    idx = _rect_shape_index(sf_dir)
    if relation == "contains":
        ids = shapes_containing_box(idx, *_SHAPE_BOX_SMALL)
    elif relation == "within":
        ids = shapes_within_box(idx, *_SHAPE_BOX)
    elif relation == "disjoint":
        ids = shapes_disjoint_box(idx, *_SHAPE_BOX)
    else:
        ids = shapes_intersecting_box(idx, *_SHAPE_BOX)
    return pa.table({"c_custkey": pa.array(ids, pa.int64())})


def shape_line_intersects(sf_dir: str) -> pa.Table:
    """Indexed LINE shapes (LatLonShape.createIndexableFields(Line)):
    derived axis-aligned 2-point polylines per customer (horizontal for
    even keys, vertical for odd), box INTERSECTS via the segment
    index. Axis-aligned derivation makes the predicate exactly
    SQL-expressible; the engine path is the generic clip test."""
    import ray.data

    from ..index.shapes import build_line_index, lines_intersecting_box

    src = os.path.join(sf_dir, "customer.parquet")
    key = hashlib.md5(("lineshape:" + src).encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"lineidx-{key}")
    if not os.path.exists(os.path.join(out, "meta.json")):
        def add_line(batch: pa.Table) -> pa.Table:
            k = batch.column("c_custkey").to_numpy()
            cx = (k * 7919 % 1000) / 10.0
            cy = (k * 104729 % 1000) / 10.0
            ln = (1 + k % 9).astype(np.float64)
            lines = [
                [[cx[i] - ln[i], cy[i]], [cx[i] + ln[i], cy[i]]]
                if k[i] % 2 == 0 else
                [[cx[i], cy[i] - ln[i]], [cx[i], cy[i] + ln[i]]]
                for i in range(len(k))]
            return pa.table({
                "doc_id": pa.array(k, pa.int64()),
                "vertices": pa.array(
                    lines, pa.list_(pa.list_(pa.float64()))),
            })

        ds = ray.data.read_parquet(src, columns=["c_custkey"]) \
            .map_batches(add_line, batch_format="pyarrow")
        build_line_index(ds, out)
    ids = lines_intersecting_box(out, *_SHAPE_BOX)
    return pa.table({"c_custkey": pa.array(ids, pa.int64())})


def term_vector_doc(doc_path: str, doc_id: int = 42) -> pa.Table:
    """Term vector (forward index) of one doc: (term, tf), term asc."""
    key = hashlib.md5(("tv:" + doc_path).encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"tvidx-{key}")
    if not os.path.exists(os.path.join(out, "manifest_0.json")):
        build_index(doc_path, out, batch_size=2048, term_vectors=True)
    return IndexReader(out).term_vector(doc_id)


def dv_update_range(doc_path: str) -> pa.Table:
    """Numeric doc-values update (updateNumericDocValue analog) then a
    range query over the overlaid column: docs with doc_id % 9 == 0
    get n_chars := 10000 + doc_id, then n_chars >= 10000 matches
    exactly those docs through the overlay path."""
    import pyarrow.parquet as pq2

    from ..index.dv_updates import update_numeric_dv
    from ..search.query import NumericRangeQuery

    key = hashlib.md5(("dvu:" + doc_path).encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"dvuidx-{key}")
    marker = os.path.join(out, "_DVU_APPLIED")
    if not os.path.exists(os.path.join(out, "manifest_0.json")):
        build_index(doc_path, out, batch_size=2048,
                    stored_cols=("n_chars",), doc_value_cols=("n_chars",))
    if not os.path.exists(marker):
        ids = pq2.read_table(doc_path, columns=["doc_id"]) \
            .column("doc_id").to_numpy()
        upd = {int(d): 10000 + int(d) for d in ids if d % 9 == 0}
        update_numeric_dv(out, "n_chars", upd)
        open(marker, "w").write("1")
    s = Searcher(IndexReader(out), similarity="bm25_exact64")
    docs = s.match_docs(NumericRangeQuery("n_chars", 10000, None))
    return pa.table({"doc_id": pa.array(np.sort(docs), pa.int64())})


def suggest_word_breaks(doc_path: str, word: str, k: int = 5) -> pa.Table:
    """WordBreakSpellChecker.suggestWordBreaks role."""
    from ..search.suggest import word_breaks
    return word_breaks(IndexReader(cached_index(doc_path)), word, k)


def synonym_blended_topk(doc_path: str, terms: list[str],
                         boosts: list[float] | None = None,
                         k: int = 20) -> pa.Table:
    """SynonymQuery role (core ``search/SynonymQuery.java:51``): all
    terms score as ONE pseudo-term — blended stats df = max(df_i),
    ttf = sum(ttf_i) (SynonymQuery.java:205-223) and per-doc freq =
    sum(boost_i * tf_i) (SynonymScorer freq sum; FreqBoostTermScorer
    :315 applies the per-term boost to the FREQUENCY, not the score).
    Scored exact64 BM25 on the combined freq; (doc_id, rank) on the
    quantized grid."""
    if boosts is None:
        boosts = [1.0] * len(terms)
    reader = IndexReader(cached_index(doc_path))
    stats = reader.term_stats(list(terms))
    df_b = max(stats[t][0] for t in terms)
    docs, freqs = _weighted_freq_sum(
        [(*reader.live_postings(t), b) for t, b in zip(terms, boosts)])
    n = reader.doc_count
    scores = score64(freqs, reader.doc_lens(docs), idf64(df_b, n),
                     reader.sum_total_term_freq / float(n))
    return _quantized_rank_table(docs, scores, k)


def _weighted_freq_sum(postings) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc sum of ``weight * tf`` over ``(docs, freqs, weight)``
    postings, docs ascending: the freq of a blended pseudo-term."""
    ud, inv = np.unique(np.concatenate([d for d, _, _ in postings]),
                        return_inverse=True)
    uf = np.zeros(len(ud), dtype=np.float64)
    np.add.at(uf, inv, np.concatenate(
        [f.astype(np.float64) * w for _, f, w in postings]))
    return ud, uf


def _titled_docs(doc_path: str, n_title: int = 8) -> str:
    """Derived two-field corpus: (doc_id, text, title) where title is
    the first ``n_title`` whitespace tokens — the multi-field fixture
    for the combined-field (BM25F) query."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq2

    key = hashlib.md5(f"titled:{doc_path}:{n_title}".encode()) \
        .hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"titled-{key}.parquet")
    if not os.path.exists(out):
        t = pq2.read_table(doc_path, columns=["doc_id", "text"])
        toks = pc.split_pattern(t.column("text"), " ")
        title = pc.binary_join(pc.list_slice(toks, 0, n_title), " ")
        os.makedirs(_CACHE_ROOT, exist_ok=True)
        tmp = out + ".tmp"
        pq2.write_table(t.append_column("title", title), tmp)
        os.replace(tmp, out)
    return out


def combined_field_topk(doc_path: str, terms: list[str],
                        weights: dict[str, float] | None = None,
                        k: int = 20) -> pa.Table:
    """CombinedFieldQuery role (BM25F,
    ``sandbox/search/CombinedFieldQuery.java:74-86,328-371``): fields
    are merged into one synthetic field — per-doc freq = sum over all
    (term, field) postings of weight_f * tf (CombinedFieldQuery.java
    :454), per-doc length = sum weight_f * len_f (MultiNormsLeafSim
    Scorer.java:143-153, exact64 here: no norm-byte requantization),
    ONE blended pseudo-term: df = max over all (term, field) dfs,
    collection sumTTF = sum weight_f * sumTTF_f, docCount = max over
    fields (:354-371). Runs over a derived (text, title) two-field
    index of the documents table."""
    from ..index.multi_field import build_multi_field_index

    if weights is None:
        weights = {"text": 1.0, "title": 2.0}
    src = _titled_docs(doc_path)
    key = hashlib.md5(("cfq:" + src).encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"cfidx-{key}")
    if not os.path.exists(os.path.join(out, "multi_field.json")):
        build_multi_field_index(
            src, out, fields={f: None for f in weights}, batch_size=2048)
    readers = {f: IndexReader(os.path.join(out, "fields", f))
               for f in weights}

    doc_count = max(r.doc_count for r in readers.values())
    sum_ttf = sum(w * readers[f].sum_total_term_freq
                  for f, w in weights.items())
    df_b = max(r.term_stats(list(terms))[t][0]
               for r in readers.values() for t in terms)
    # combined freq and combined length per GLOBAL doc id (the field
    # indexes share global docIDs by construction)
    docs, freqs = _weighted_freq_sum(
        [(*readers[f].live_postings(t), w)
         for f, w in weights.items() for t in terms])
    dl = sum(w * readers[f].doc_lens(docs) for f, w in weights.items())
    scores = score64(freqs, dl, idf64(df_b, doc_count),
                     sum_ttf / float(doc_count))
    return _quantized_rank_table(docs, scores, k)


def phrase_wildcard_match(doc_path: str, phrase_terms: list[str]) -> pa.Table:
    """PhraseWildcardQuery role (``sandbox/search/PhraseWildcardQuery
    .java``): a phrase where any slot may be a wildcard pattern —
    each multi-term slot expands against the segment term dictionary
    and the phrase matches through the MultiPhraseQuery machinery
    (union of slot terms per position). Returns matching doc_ids."""
    from ..search import MultiPhraseQuery, WildcardQuery
    from ..search.query import expand_terms, expansion_range

    reader = IndexReader(cached_index(doc_path))
    positions = []
    for t in phrase_terms:
        if "*" in t or "?" in t:
            wq = WildcardQuery(t)
            lo, hi = expansion_range(wq)
            expanded = expand_terms(wq, reader.vocab(lo, hi))
            if not expanded:
                return pa.table({"doc_id": pa.array([], pa.int64())})
            positions.append(tuple(sorted(expanded)))
        else:
            positions.append((t,))
    s = Searcher(reader, similarity="bm25_exact64")
    docs = s.match_docs(MultiPhraseQuery(tuple(positions)))
    return pa.table({"doc_id": pa.array(np.sort(docs), pa.int64())})


def multi_range_match(doc_path: str, col: str,
                      ranges: list[tuple[int, int]]) -> pa.Table:
    """MultiRangeQuery role (``sandbox/search/MultiRangeQuery.java``):
    union of [lo, hi] ranges over one point field, evaluated as a
    constant-score disjunction of NumericRangeQuery filters over the
    dv sidecar (the reference merges overlapping ranges then runs one
    BKD intersect; row-group pruning gives the same skip behavior)."""
    from ..search.query import NumericRangeQuery

    key = hashlib.md5(("num2:" + doc_path).encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"numidx-{key}")
    if not os.path.exists(os.path.join(out, "manifest_0.json")):
        build_index(doc_path, out, batch_size=2048,
                    doc_value_cols=(col,))
    s = Searcher(IndexReader(out), similarity="bm25_exact64")
    # merge overlapping/adjacent ranges first (MultiRangeQuery.rewrite)
    merged: list[list[int]] = []
    for lo, hi in sorted(ranges):
        if merged and lo <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    parts = [s.match_docs(NumericRangeQuery(col, lo, hi))
             for lo, hi in merged]
    docs = np.unique(np.concatenate(parts)) if parts else \
        np.empty(0, np.int64)
    return pa.table({"doc_id": pa.array(docs, pa.int64())})


def high_freq_terms(doc_path: str, k: int = 25) -> pa.Table:
    """HighFreqTerms role (``misc/.../HighFreqTerms.java``): the top-k
    terms by document frequency (ties: term asc), with their total
    term frequencies — read from the index's global term-stats
    aggregate, never by scanning postings."""
    import pyarrow.parquet as pq2

    from ..index.manifest import read_manifest

    idx = cached_index(doc_path)
    gen = read_manifest(idx).generation
    t = pq2.read_table(os.path.join(idx, "global", f"term_stats_gen{gen}"),
                       columns=["term", "df", "ttf"])
    df = t.column("df").to_numpy()
    terms = t.column("term").to_numpy(zero_copy_only=False)
    order = np.lexsort((terms, -df))[:k]
    return pa.table({
        "term": pa.array(terms[order], pa.large_string()),
        "df": pa.array(df[order], pa.int64()),
        "ttf": pa.array(t.column("ttf").to_numpy()[order], pa.int64()),
    })


def all_groups(doc_path: str, terms: list[str], kind: str,
               group_col: str = "source") -> pa.Table:
    """AllGroupsCollector role (``grouping/AllGroupsCollector.java``):
    the distinct group values among a query's matches (group-by
    doc-value column, no top-k cut)."""
    key = hashlib.md5(("grp:" + doc_path).encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"grpidx-{key}")
    if not os.path.exists(os.path.join(out, "manifest_0.json")):
        build_index(doc_path, out, batch_size=2048,
                    stored_cols=("source", "lang"))
    s = Searcher(IndexReader(out), similarity="bm25_exact64")
    docs = s.match_docs(_query(kind, terms))
    vals = set()
    for sr in s.reader.segments():
        lo = np.searchsorted(docs, sr.doc_ids[0])
        hi = np.searchsorted(docs, sr.doc_ids[-1], side="right")
        if hi > lo:
            vals.update(v for v in sr.stored(docs[lo:hi], group_col)
                        if v is not None)
    return pa.table({group_col: pa.array(sorted(vals), pa.large_string())})


def distinct_values_grouped(doc_path: str, terms: list[str], kind: str,
                            group_col: str = "source",
                            count_col: str = "lang") -> pa.Table:
    """DistinctValuesCollector role (``grouping/DistinctValues
    Collector.java``): per group value, the count of distinct values
    of a second doc-value field among the query's matches."""
    key = hashlib.md5(("grp:" + doc_path).encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"grpidx-{key}")
    if not os.path.exists(os.path.join(out, "manifest_0.json")):
        build_index(doc_path, out, batch_size=2048,
                    stored_cols=("source", "lang"))
    s = Searcher(IndexReader(out), similarity="bm25_exact64")
    docs = s.match_docs(_query(kind, terms))
    pairs: set[tuple] = set()
    for sr in s.reader.segments():
        lo = np.searchsorted(docs, sr.doc_ids[0])
        hi = np.searchsorted(docs, sr.doc_ids[-1], side="right")
        if hi > lo:
            gs = sr.stored(docs[lo:hi], group_col)
            cs = sr.stored(docs[lo:hi], count_col)
            pairs.update((g, c) for g, c in zip(gs, cs)
                         if g is not None and c is not None)
    from collections import Counter
    counts = Counter(g for g, _ in pairs)
    groups = sorted(counts)
    return pa.table({
        group_col: pa.array(groups, pa.large_string()),
        "n_distinct": pa.array([counts[g] for g in groups], pa.int64()),
    })


def long_value_facet_counts(doc_path: str, terms: list[str], kind: str,
                            col: str = "n_chars") -> pa.Table:
    """LongValueFacetCounts role (``facet/LongValueFacetCounts.java``):
    hit counts per distinct value of a numeric doc-value field over
    the query's match set (value asc)."""
    key = hashlib.md5(("num2:" + doc_path).encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"numidx-{key}")
    if not os.path.exists(os.path.join(out, "manifest_0.json")):
        build_index(doc_path, out, batch_size=2048,
                    doc_value_cols=(col,))
    s = Searcher(IndexReader(out), similarity="bm25_exact64")
    docs = s.match_docs(_query(kind, terms))
    vals = s.doc_values(docs, col)
    vals = vals[~np.isnan(vals)].astype(np.int64)
    uv, cnt = np.unique(vals, return_counts=True)
    return pa.table({
        "value": pa.array(uv, pa.int64()),
        "count": pa.array(cnt.astype(np.int64), pa.int64()),
    })


def interval_fn_match(doc_path: str, expr: str) -> pa.Table:
    """Flexible StandardQueryParser interval-function clause role
    (``queryparser/flexible/standard/StandardQueryParser.java:204-220``;
    function set ``.../nodes/intervalfn/*.java``): parse an ``fn:``
    expression and match it through the minimal-interval algebra."""
    from ..search.intervalparser import parse_interval_fn
    from ..search.intervals import interval_match_docs

    s = Searcher(IndexReader(cached_index(doc_path)),
                 similarity="bm25_exact64")
    return interval_match_docs(s, parse_interval_fn(expr))


def fuzzy_like_this_topk(doc_path: str, query_terms: list[str],
                         max_num_terms: int = 12, max_edits: int = 1,
                         k: int = 20) -> pa.Table:
    """FuzzyLikeThisQuery role (``sandbox/queries/FuzzyLikeThisQuery
    .java:193-336``): per source term, fuzzy variants carry boost
    ``1 - d/min(|v|,|t|)`` (FuzzyTermsEnum boost att); variant score =
    boost^2 * ClassicSimilarity.idf(df_source, N) where df_source
    falls back to the INTEGER-mean variant df when the source term is
    absent (:236-240); the global top ``max_num_terms`` variants (score
    desc, term asc on ties — ScoreTermQueue order) form a SHOULD query
    whose term clauses score with ARTIFICIAL df=ttf=1 stats (:262-270),
    here exact64 BM25 with df=1. (doc_id, rank) on the quantized grid."""
    from ..search.query import FuzzyQuery, _edit_distance, expand_terms, \
        expansion_range

    from ..search.similarities import BlendedBM25Similarity

    reader = IndexReader(cached_index(doc_path))
    n = reader.doc_count

    # variant selection (addTerms)
    scored_terms: list[tuple[float, str]] = []  # (st.score, variant)
    seen_src = set()
    for t in query_terms:
        if t in seen_src:
            continue
        seen_src.add(t)
        fq = FuzzyQuery(t, max_edits=max_edits, prefix_length=0,
                        transpositions=True)
        lo, hi = expansion_range(fq)
        variants = expand_terms(fq, reader.vocab(lo, hi))
        if not variants:
            continue
        stats = reader.term_stats(variants + [t])
        df = stats.get(t, (0, 0))[0]
        if df == 0:  # integer-mean variant df fallback (:236-240)
            df = sum(stats[v][0] for v in variants) // len(variants)
        idf_src = np.log((n + 1) / (df + 1.0)) + 1.0  # Classic idf
        for v in variants:
            d = _edit_distance(v, t, max_edits, True)
            boost = 1.0 - d / min(len(v), len(t))
            scored_terms.append((boost * boost * idf_src, v))
    scored_terms.sort(key=lambda x: (-x[0], x[1]))
    kept = scored_terms[:max_num_terms]
    if not kept:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64())})

    # artificial df=1 stats: every clause scores as if its df were 1
    s = Searcher(reader, similarity=BlendedBM25Similarity(1))
    docs, scores = s.eval_complete(BooleanQuery(
        should=tuple(TermQuery(v, tscore) for tscore, v in kept)))
    return _quantized_rank_table(docs, scores, k)


def group_facet_counts(doc_path: str, terms: list[str], kind: str,
                       group_col: str = "source",
                       facet_col: str = "lang") -> pa.Table:
    """GroupFacetCollector role (``grouping/TermGroupFacetCollector
    .java``): per facet value, the number of DISTINCT groups among the
    query's matches (each group counted once per facet value)."""
    key = hashlib.md5(("grp:" + doc_path).encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"grpidx-{key}")
    if not os.path.exists(os.path.join(out, "manifest_0.json")):
        build_index(doc_path, out, batch_size=2048,
                    stored_cols=("source", "lang"))
    s = Searcher(IndexReader(out), similarity="bm25_exact64")
    docs = s.match_docs(_query(kind, terms))
    pairs: set[tuple] = set()
    for sr in s.reader.segments():
        lo = np.searchsorted(docs, sr.doc_ids[0])
        hi = np.searchsorted(docs, sr.doc_ids[-1], side="right")
        if hi > lo:
            gs = sr.stored(docs[lo:hi], group_col)
            fs = sr.stored(docs[lo:hi], facet_col)
            pairs.update((f, g) for g, f in zip(gs, fs)
                         if g is not None and f is not None)
    from collections import Counter
    counts = Counter(f for f, _ in pairs)
    facets = sorted(counts)
    return pa.table({
        facet_col: pa.array(facets, pa.large_string()),
        "n_groups": pa.array([counts[f] for f in facets], pa.int64()),
    })


def search_quality(doc_path: str, query_terms: list[str],
                   k: int = 10, rel_tf: int = 2) -> pa.Table:
    """Search-quality evaluation role (``benchmark/.../quality/
    QualityStats.java``: precision@k, recall, MRR): each single-term
    query's top-k BM25 ranking is judged against derived relevance
    (docs whose tf >= ``rel_tf``). INTEGER metric components per query
    — (n_rel_ret, n_ret, n_rel, first_rel_rank) — so p@k = n_rel_ret/
    n_ret, recall = n_rel_ret/n_rel, RR = 1/first_rel_rank are exact.
    Ranked by the engine's exact64 term scores, whose df comes from the
    generation's term stats (deleted docs count until a merge, as
    Lucene's docFreq does); relevance counts live docs only."""
    reader = IndexReader(cached_index(doc_path))
    s = Searcher(reader, similarity="bm25_exact64")
    rows = []
    for qt in query_terms:
        docs, scores = s.eval_complete(TermQuery(qt))
        _, tfs = reader.live_postings(qt)  # the same docs, ascending
        key = np.floor(scores * 1e9).astype(np.int64)
        order = np.lexsort((docs, -key))[:k]
        rel_mask_all = tfs >= rel_tf
        n_rel = int(rel_mask_all.sum())
        top_rel = rel_mask_all[order]
        n_ret = len(order)
        n_rel_ret = int(top_rel.sum())
        first = int(np.argmax(top_rel)) + 1 if top_rel.any() else 0
        rows.append((qt, n_rel_ret, n_ret, n_rel, first))
    rows.sort()
    return pa.table({
        "query_term": pa.array([r[0] for r in rows], pa.large_string()),
        "n_rel_ret": pa.array([r[1] for r in rows], pa.int64()),
        "n_ret": pa.array([r[2] for r in rows], pa.int64()),
        "n_rel": pa.array([r[3] for r in rows], pa.int64()),
        "first_rel_rank": pa.array([r[4] for r in rows], pa.int64()),
    })


def span_not_match(doc_path: str, include_terms: list[str],
                   exclude_term: str, pre: int = 1,
                   post: int = 1) -> pa.Table:
    """SpanNotQuery role (``queries/spans/SpanNotQuery.java``): spans
    of the include phrase that do NOT overlap the exclude term widened
    by ``pre`` positions before / ``post`` after — evaluated as
    NonOverlapping(include, Extend(exclude, pre, post)) on the
    minimal-interval algebra (the spans and intervals modules agree on
    this shape). Returns matching doc_ids."""
    from ..search.intervals import (
        Extend, NonOverlapping, Phrase as IPhrase, Term as ITerm,
        interval_match_docs,
    )

    s = Searcher(IndexReader(cached_index(doc_path)),
                 similarity="bm25_exact64")
    include = (ITerm(include_terms[0]) if len(include_terms) == 1
               else IPhrase(tuple(include_terms)))
    src = NonOverlapping(include, Extend(ITerm(exclude_term), pre, post))
    return interval_match_docs(s, src)


def suggest_blended_infix(doc_path: str, token: str, k: int = 10,
                          blender: str = "reciprocal") -> pa.Table:
    """BlendedInfixSuggester role (``suggest/analyzing/BlendedInfix
    Suggester.java:58-81``): suggestions ranked by
    ``weight * coefficient(first matched-token position)`` —
    POSITION_RECIPROCAL ``1/(1+p)`` or POSITION_LINEAR ``1-0.10*p``.
    Suggestion entries here are the documents themselves with weight =
    token length (the suggester's stored weight slot); first position
    comes from the positional postings. (doc_id, rank) quantized."""
    reader = IndexReader(cached_index(doc_path))
    parts_d, parts_s = [], []
    for sr in reader.segments():
        got = sr.get_positions(token)
        if got is None:
            continue
        docs, freqs, pos = got
        offs = np.concatenate([[0], np.cumsum(freqs)[:-1]])
        first = pos[offs].astype(np.float64)
        w = sr.doc_lens_for(docs).astype(np.float64)
        if blender == "reciprocal":
            sc = w / (1.0 + first)
        elif blender == "linear":
            sc = w * (1.0 - 0.10 * first)
        else:
            raise ValueError(blender)
        keep = sr.live_mask(docs)
        if keep is not None:
            docs, sc = docs[keep], sc[keep]
        parts_d.append(docs.astype(np.int64))
        parts_s.append(sc)
    if not parts_d:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64())})
    return _quantized_rank_table(np.concatenate(parts_d),
                                 np.concatenate(parts_s), k)


def profile_query_counts(doc_path: str, terms_and: list[str],
                         terms_or: list[str]) -> pa.Table:
    """QueryProfiler role (sandbox QueryProfilerIndexSearcher /
    QueryProfilerBreakdown): per-node breakdown of
    ``AND(terms_and..., OR(terms_or...))`` — the deterministic
    (node, type, n_matches) columns only (wall-clock stays a local
    diagnostic; see ``search/profiler.py``)."""
    from ..search.profiler import profile_query

    s = Searcher(IndexReader(cached_index(doc_path)),
                 similarity="bm25_exact64")
    q = BooleanQuery(must=tuple(TermQuery(t) for t in terms_and) +
                     (BooleanQuery(should=tuple(
                         TermQuery(t) for t in terms_or)),))
    t = profile_query(s, q)
    return t.select(["node", "type", "n_matches"])


def _geo3d_index(sf_dir: str) -> str:
    """spatial3d point index (Geo3DPoint role) over customer-derived
    lat/lon: each custkey maps deterministically onto the 0.1-degree
    grid; built once per sf and cached."""
    import ray.data

    from ..index.geo3d import build_point3d_index

    src = os.path.join(sf_dir, "customer.parquet")
    key = hashlib.md5(("geo3d:" + src).encode()).hexdigest()[:12]
    out = os.path.join(_CACHE_ROOT, f"geo3didx-{key}")
    if not os.path.exists(os.path.join(out, "meta.json")):
        def add_ll(batch: pa.Table) -> pa.Table:
            k = batch.column("c_custkey").to_numpy()
            return pa.table({
                "doc_id": pa.array(k, pa.int64()),
                "lat": pa.array((k * 7919 % 1700) / 10.0 - 85.0,
                                pa.float64()),
                "lon": pa.array((k * 104729 % 3600) / 10.0 - 180.0,
                                pa.float64()),
            })
        ds = ray.data.read_parquet(src, columns=["c_custkey"]) \
            .map_batches(add_ll, batch_format="pyarrow")
        build_point3d_index(ds, out)
    return out


def geo3d_distance(sf_dir: str, lat: float = 42.57, lon: float = 12.53,
                   radius: float = 0.35) -> pa.Table:
    """Geo3DPoint.newDistanceQuery role (``spatial3d/Geo3DPoint
    .java:44``): customers within 0.35 rad arc distance of the center
    on the unit sphere — chord-bound row-group pruning + exact arc
    predicate. Constants verified with >= 1.5e-4 boundary margin at
    every sf, so the engine's asin-chord arithmetic and the oracle's
    cannot disagree on a knife-edge point."""
    from ..index.geo3d import points_within_distance

    ids = points_within_distance(_geo3d_index(sf_dir), lat, lon, radius)
    return pa.table({"c_custkey": pa.array(ids, pa.int64())})


def geo3d_box(sf_dir: str, min_lat: float = 10.05, max_lat: float = 45.05,
              min_lon: float = -20.05, max_lon: float = 60.05) -> pa.Table:
    """Geo3DPoint.newBoxQuery role (GeoBBox): customers whose lat/lon
    fall in the closed box; the latitude band prunes on z row-group
    stats. Bounds sit mid-cell on the 0.1-degree grid (0.05 margin)."""
    from ..index.geo3d import points_in_latlon_box

    ids = points_in_latlon_box(_geo3d_index(sf_dir), min_lat, max_lat,
                               min_lon, max_lon)
    return pa.table({"c_custkey": pa.array(ids, pa.int64())})


def shape_distance(sf_dir: str, px: float = 47.13, py: float = 52.81,
                   radius: float = 9.37) -> pa.Table:
    """LatLonShape.newDistanceQuery role (planar analog over the rect
    shape index): shapes whose minimum distance to the query point is
    <= radius — circle-bbox row-group pruning + exact vectorized
    point-triangle distances, per-shape min. Query params chosen with
    a verified >= 0.005 boundary margin at every sf, so the engine's
    edge-projection arithmetic and the oracle's rect-clamp arithmetic
    can never disagree on a knife-edge shape."""
    from ..index.shapes import shapes_within_distance

    idx = _rect_shape_index(sf_dir)
    ids = shapes_within_distance(idx, px, py, radius)
    return pa.table({"c_custkey": pa.array(ids, pa.int64())})
