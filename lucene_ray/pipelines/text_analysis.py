"""Text-analysis pipelines over a documents corpus.

Every function takes a parquet path (or directory) holding rows
``(doc_id:int64, text:string, ...)`` and returns a lazy
``ray.data.Dataset`` — streaming, vectorized ``map_batches`` stages
with the analyzer built once per actor. Aggregates pre-combine inside
batches before any shuffle (combiner pattern).
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np
import pyarrow as pa

import ray.data
from ray.data.aggregate import Count, Max, Mean, Min, Sum

from ..analysis import StandardAnalyzer, int_to_byte4_array
from ..util import cached_callable, stage_pool


def read_documents(path: str, columns=("doc_id", "text")) -> ray.data.Dataset:
    return ray.data.read_parquet(path, columns=list(columns))


class TokenizeDocTerms:
    """(doc_id, text) batches -> exploded (doc_id, term, tf) rows, one
    row per distinct term per doc (the partial/combiner step for df/ttf).

    Runs on the shared Arrow tokenize kernel
    (``analysis/arrow_tokenize.py`` — same semantics as the Python
    analyzer, ~3x faster) with a vectorized (doc, term) count."""

    def __init__(self, stop_words=frozenset()):
        self.analyzer = StandardAnalyzer(stop_words=stop_words)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        from ..analysis.arrow_tokenize import _tokenize_batch_arrow
        n = len(batch)
        flat, didx = _tokenize_batch_arrow(batch["text"], self.analyzer)
        if len(flat) == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "term": pa.array([], pa.large_string()),
                             "tf": pa.array([], pa.int64())})
        enc = pc.dictionary_encode(flat)
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uniques = enc.dictionary
        key = didx * len(uniques) + codes
        uk, tf = np.unique(key, return_counts=True)
        d_idx = uk // len(uniques)
        t_codes = uk % len(uniques)
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": pa.array(doc_ids[d_idx], pa.int64()),
            "term": uniques.take(pa.array(t_codes)).cast(pa.large_string()),
            "tf": pa.array(tf, pa.int64()),
        })


class TokenizeDocStats:
    """(doc_id, text) -> per-doc stats (doc_len, uniq, chars, norms...),
    computed from the flat Arrow token stream with bincounts."""

    def __init__(self, stop_words=frozenset()):
        self.analyzer = StandardAnalyzer(stop_words=stop_words)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        from ..analysis.arrow_tokenize import _tokenize_batch_arrow
        n = len(batch)
        flat, didx = _tokenize_batch_arrow(batch["text"], self.analyzer)
        n_tok = np.bincount(didx, minlength=n).astype(np.int64)
        if len(flat):
            enc = pc.dictionary_encode(flat)
            codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            uniq_keys = np.unique(didx * len(enc.dictionary) + codes)
            n_uniq = np.bincount(uniq_keys // len(enc.dictionary),
                                 minlength=n).astype(np.int64)
            # BPE-ish piece estimate: greedy <=4-char chunks per token
            tok_lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
            n_bpe = np.bincount(didx, weights=(tok_lens + 3) // 4,
                                minlength=n).astype(np.int64)
        else:
            n_uniq = np.zeros(n, dtype=np.int64)
            n_bpe = np.zeros(n, dtype=np.int64)
        n_chars = pc.utf8_length(
            pc.fill_null(batch["text"], "")).to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array(n_tok, pa.int64()),
            "n_uniq_tokens": pa.array(n_uniq, pa.int64()),
            "n_chars": pa.array(n_chars.astype(np.int64), pa.int64()),
            "n_bpe_pieces": pa.array(n_bpe, pa.int64()),
            "norm": pa.array(int_to_byte4_array(n_tok).astype(np.int64), pa.int64()),
        })


def doc_term_table(path: str, stop_words=frozenset()) -> ray.data.Dataset:
    return read_documents(path).map_batches(
        cached_callable(TokenizeDocTerms, stop_words=stop_words),
        batch_format="pyarrow")


def term_stats(path: str, stop_words=frozenset()) -> ray.data.Dataset:
    """(term, df, ttf) — the global term dictionary aggregate."""
    return doc_term_table(path, stop_words).groupby("term").aggregate(
        Count(alias_name="df"), Sum("tf", alias_name="ttf"))


def doc_stats(path: str, stop_words=frozenset()) -> ray.data.Dataset:
    return read_documents(path).map_batches(
        cached_callable(TokenizeDocStats, stop_words=stop_words),
        batch_format="pyarrow")


def doc_lengths(path: str) -> ray.data.Dataset:
    return doc_stats(path).select_columns(["doc_id", "n_tokens"])


def collection_stats(path: str) -> ray.data.Dataset:
    """One row: (n_docs, field_docs, sum_dl, max_dl) — CollectionStatistics."""
    ds = doc_stats(path)

    def flag(batch: pa.Table) -> pa.Table:
        return pa.table({
            "n_tokens": batch["n_tokens"],
            "has_field": pa.compute.cast(
                pa.compute.greater(batch["n_tokens"], 0), pa.int64()),
        })

    agg = ds.map_batches(flag, batch_format="pyarrow").aggregate(
        Count(alias_name="n_docs"),
        Sum("has_field", alias_name="field_docs"),
        Sum("n_tokens", alias_name="sum_dl"),
        Max("n_tokens", alias_name="max_dl"))
    return ray.data.from_items([agg])


def fingerprints(path: str) -> ray.data.Dataset:
    """(doc_id, fp): md5 content fingerprint (document identity hash)."""

    def fp(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["doc_id"],
            "fp": pa.array([hashlib.md5((t or "").encode()).hexdigest()
                            for t in batch["text"].to_pylist()], pa.string()),
        })

    return read_documents(path).map_batches(fp, batch_format="pyarrow")


def topk_longest_docs(path: str, k: int = 20) -> ray.data.Dataset:
    """sort + limit surface: k longest docs (ties -> lower doc_id)."""
    return doc_lengths(path).sort(["n_tokens", "doc_id"],
                                  descending=[True, False]).limit(k)


# --- language id (n-gram/function-word heuristic) --------------------------

_LANG_MARKERS = {
    "en": {"the", "and", "of", "to", "in", "is", "that", "for", "with", "it"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "mit", "für"},
    "fr": {"le", "la", "les", "et", "est", "pas", "une", "pour", "dans"},
    "es": {"el", "la", "los", "y", "es", "no", "una", "para", "con"},
}


class LangId:
    """Function-word hit-rate heuristic + script detection for CJK."""

    def __init__(self):
        self.analyzer = StandardAnalyzer()

    def detect(self, text: str) -> str:
        if not text:
            return "unknown"
        # script check on a sample of codepoints
        sample = text[:200]
        cjk = sum(1 for ch in sample if 0x4E00 <= ord(ch) <= 0x9FFF)
        if cjk > len(sample) * 0.2:
            return "zh"
        terms = self.analyzer(text)
        if not terms:
            return "unknown"
        best, best_rate = "unknown", 0.0
        for lang, markers in _LANG_MARKERS.items():
            rate = sum(1 for t in terms if t in markers) / len(terms)
            if rate > best_rate:
                best, best_rate = lang, rate
        return best if best_rate > 0.02 else "unknown"

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Batch-vectorized detect(): CJK-fraction via an Arrow RE2
        count over the 200-char sample, marker hit-rates as one
        ``is_in`` + bincount per language over the flat token stream —
        one Python pass per BATCH, not per row (equivalence to the
        scalar ``detect`` is pytest-gated)."""
        import pyarrow.compute as pc
        from ..analysis.arrow_tokenize import _tokenize_batch_arrow
        text = pc.fill_null(batch["text"].combine_chunks(), "")
        n = len(text)
        sample = pc.utf8_slice_codeunits(text, 0, 200)
        cjk = pc.count_substring_regex(
            sample, "[\u4E00-\u9FFF]").to_numpy(zero_copy_only=False)
        slen = pc.utf8_length(sample).to_numpy(zero_copy_only=False)
        is_zh = cjk > slen * 0.2
        flat, didx = _tokenize_batch_arrow(text, self.analyzer)
        n_tok = np.bincount(didx, minlength=n).astype(np.int64)
        langs = list(_LANG_MARKERS)
        rates = np.zeros((n, len(langs)))
        if len(flat):
            denom = np.maximum(n_tok, 1)
            for j, lang in enumerate(langs):
                hit = pc.is_in(flat, value_set=pa.array(
                    sorted(_LANG_MARKERS[lang]), type=flat.type))                     .to_numpy(zero_copy_only=False)
                cnt = np.zeros(n, dtype=np.int64)
                np.add.at(cnt, didx[hit], 1)
                rates[:, j] = cnt / denom
        best = np.argmax(rates, axis=1)  # first max == dict order, like
        best_rate = rates[np.arange(n), best]  # the scalar loop's ">"
        out = np.array(langs, dtype=object)[best]
        out[(best_rate <= 0.02) | (n_tok == 0)] = "unknown"
        out[is_zh] = "zh"
        empty = np.asarray(pc.equal(text, ""))
        out[empty] = "unknown"
        return pa.table({
            "doc_id": batch["doc_id"],
            "lang_pred": pa.array(out.tolist(), pa.string()),
        })


def lang_id(path: str) -> ray.data.Dataset:
    return read_documents(path).map_batches(
        cached_callable(LangId), batch_format="pyarrow")


def pattern_counts(path: str) -> ray.data.Dataset:
    """Per-doc counts of web-text risk/quality patterns — the PII /
    boilerplate screening stage of a training-data pipeline. Fully
    vectorized: one ``pyarrow.compute.count_substring_regex`` kernel per
    pattern over the whole batch (RE2 under Arrow), no Python loop.

    Returns (doc_id, n_emails, n_urls, n_digits_runs) rows; each
    pattern is chosen to be expressible in the DuckDB oracle
    (regexp_extract_all length)."""
    import pyarrow.compute as pc

    def counts(batch: pa.Table) -> pa.Table:
        text = batch["text"].combine_chunks()
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_emails": pc.count_substring_regex(
                text, r"[a-z0-9._]+@[a-z0-9.-]+").cast(pa.int64()),
            "n_urls": pc.count_substring_regex(
                text, r"https?://[^ ]+").cast(pa.int64()),
            "n_vowel_runs": pc.count_substring_regex(
                text, r"[aeiou]{2,}").cast(pa.int64()),
        })

    return read_documents(path).map_batches(counts, batch_format="pyarrow")


def more_like_this(path: str, doc_id: int, *, max_query_terms: int = 8,
                   min_doc_freq: int = 2, k: int = 20) -> pa.Table:
    """MoreLikeThis (``lucene/queries/src/java/org/apache/lucene/queries/
    mlt/MoreLikeThis.java``; test ``TestMoreLikeThis.java``): pick the
    source doc's top terms by tf*idf (df >= min_doc_freq, the
    reference's frequency gates), build an OR query, return the top-k
    most similar docs (excluding the source).

    Returns (doc_id, rank) under bm25_exact64 so the driver SQL oracle
    can reproduce scores exactly."""
    import math

    from ..search import BooleanQuery, IndexReader, Searcher, TermQuery
    from .search_queries import cached_index

    idx = cached_index(path)
    reader = IndexReader(idx)
    s = Searcher(reader, similarity="bm25_exact64")
    # source doc's term freqs via one predicate-pushdown read
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    t = pads.dataset(path).to_table(
        columns=["doc_id", "text"],
        filter=pc.field("doc_id") == doc_id)
    if len(t) == 0:
        raise KeyError(f"doc {doc_id} not found")
    from ..analysis import StandardAnalyzer
    terms = StandardAnalyzer()(t.column("text")[0].as_py() or "")
    tf: dict[str, int] = {}
    for x in terms:
        tf[x] = tf.get(x, 0) + 1
    stats = reader.term_stats(sorted(tf))
    n = reader.doc_count
    scored = []
    for term, f in tf.items():
        df = stats[term][0]
        if df < min_doc_freq:
            continue  # MoreLikeThis minDocFreq gate
        idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
        scored.append((f * idf, term))
    scored.sort(key=lambda x: (-x[0], x[1]))
    top_terms = tuple(tm for _, tm in scored[:max_query_terms])
    if not top_terms:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64())})
    td = s.search(BooleanQuery(
        should=tuple(TermQuery(tm) for tm in top_terms)), k=k + 1)
    keep = [(d, r) for d, r in zip(td.doc_ids.tolist(),
                                   range(len(td.doc_ids)))
            if d != doc_id][:k]
    import numpy as np
    return pa.table({
        "doc_id": pa.array([d for d, _ in keep], pa.int64()),
        "rank": pa.array(np.arange(1, len(keep) + 1), pa.int64()),
    })


def grouped_topk_terms(path: str, k: int = 5,
                       group_col: str = "lang") -> ray.data.Dataset:
    """Top-k terms per group by total occurrences — the grouping
    module's role (``lucene/grouping/``: TopGroups / group-sorted
    collection), expressed Ray-native: per-batch (group, term) partial
    counts (combiner: the shuffle moves counts, not tokens), one
    groupby-sum, then a per-group vectorized top-k. Returns
    (group, term, n, rank) with ties by term asc."""
    import pyarrow.compute as pc

    from ..analysis.arrow_tokenize import _tokenize_batch_arrow
    from ..util import cached_callable

    class PartialCounts:
        def __init__(self):
            from ..analysis import StandardAnalyzer
            self.analyzer = StandardAnalyzer()

        def __call__(self, batch: pa.Table) -> pa.Table:
            flat, didx = _tokenize_batch_arrow(batch["text"],
                                               self.analyzer)
            if len(flat) == 0:
                return pa.table({group_col: pa.array([], pa.string()),
                                 "term": pa.array([], pa.large_string()),
                                 "n": pa.array([], pa.int64())})
            enc = pc.dictionary_encode(flat)
            codes = enc.indices.to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            uniques = enc.dictionary
            groups = batch[group_col].to_pylist()
            guniq = list(dict.fromkeys(groups))
            gcode = np.array([guniq.index(g) for g in groups],
                             dtype=np.int64)
            key = gcode[didx] * len(uniques) + codes
            uk, cnt = np.unique(key, return_counts=True)
            return pa.table({
                group_col: pa.array([guniq[int(x)] for x in
                                     uk // len(uniques)], pa.string()),
                "term": uniques.take(pa.array(uk % len(uniques)))
                .cast(pa.large_string()),
                "n": pa.array(cnt.astype(np.int64)),
            })

    def topk(g: pa.Table) -> pa.Table:
        n = g.column("n").to_numpy()
        terms = g.column("term").to_pylist()
        order = sorted(range(len(n)), key=lambda i: (-n[i], terms[i]))[:k]
        gv = g.column(group_col)[0].as_py()
        return pa.table({
            group_col: pa.array([gv] * len(order), pa.string()),
            "term": pa.array([terms[i] for i in order], pa.large_string()),
            "n": pa.array([int(n[i]) for i in order], pa.int64()),
            "rank": pa.array(np.arange(1, len(order) + 1), pa.int64()),
        })

    from ray.data.aggregate import Sum
    return (ray.data.read_parquet(path, columns=["text", group_col])
            .map_batches(cached_callable(PartialCounts),
                         batch_format="pyarrow")
            .groupby([group_col, "term"])
            .aggregate(Sum("n", alias_name="n"))
            .groupby(group_col)
            .map_groups(topk, batch_format="pyarrow"))


# --- free-text n-gram LM suggester ------------------------------------------


def suggest_freetext(path: str, context: str, prefix: str,
                     k: int = 10) -> "pa.Table":
    """Next-word suggestions from a corpus bigram language model — the
    ``suggest/analyzing/FreeTextSuggester.java`` role (n=2 "stupid
    backoff" order: candidates seen after ``context`` rank first by
    bigram count, backoff candidates by unigram count;
    ``TestFreeTextSuggester.java``).

    Integer ranking keys (bigram_count DESC, unigram_count DESC, term)
    keep the DuckDB oracle value-exact. The corpus pass is a combiner:
    each batch emits only (candidate, partial counts) rows for terms
    matching ``prefix`` — the shuffle carries candidates, never the
    corpus bigram space.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    class PartialCounts:
        def __init__(self):
            self.analyzer = StandardAnalyzer()

        def __call__(self, batch: pa.Table) -> pa.Table:
            from ..analysis.arrow_tokenize import _tokenize_batch_arrow
            flat, didx = _tokenize_batch_arrow(batch["text"], self.analyzer)
            empty = pa.table({"term": pa.array([], pa.large_string()),
                              "bg": pa.array([], pa.int64()),
                              "ug": pa.array([], pa.int64())})
            if len(flat) == 0:
                return empty
            is_cand = pc.starts_with(flat, prefix).to_numpy(
                zero_copy_only=False)
            if not is_cand.any():
                return empty
            enc = pc.dictionary_encode(flat)
            codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            nv = len(enc.dictionary)
            # unigram partials over candidates
            ug = np.bincount(codes[is_cand], minlength=nv).astype(np.int64)
            # bigram partials: predecessor == context, same doc
            bg = np.zeros(nv, dtype=np.int64)
            if len(flat) > 1:
                is_ctx = pc.equal(flat, context).to_numpy(zero_copy_only=False)
                m = (is_ctx[:-1] & is_cand[1:] & (didx[:-1] == didx[1:]))
                if m.any():
                    bg = np.bincount(codes[1:][m], minlength=nv).astype(
                        np.int64)
            sel = np.flatnonzero((ug > 0) | (bg > 0))
            return pa.table({
                "term": enc.dictionary.take(pa.array(sel)).cast(
                    pa.large_string()),
                "bg": pa.array(bg[sel]),
                "ug": pa.array(ug[sel]),
            })

    agg = (read_documents(path, columns=("doc_id", "text"))
           .map_batches(cached_callable(PartialCounts), batch_format="pyarrow")
           .groupby("term")
           .aggregate(Sum("bg", alias_name="bg_count"),
                      Sum("ug", alias_name="ug_count")))
    rows = agg.sort(["bg_count", "ug_count", "term"],
                    descending=[True, True, False]).limit(k).to_pandas()
    return pa.table({
        "term": pa.array(rows["term"].tolist(), pa.string()),
        "bg_count": pa.array(rows["bg_count"].astype("int64")),
        "ug_count": pa.array(rows["ug_count"].astype("int64")),
        "rank": pa.array(np.arange(1, len(rows) + 1, dtype=np.int64)),
    })


class _Chunker:
    """Actor stage: fixed token-window chunking with overlap (the RAG /
    training-context chunking op): windows of ``window`` tokens whose
    starts step by ``stride`` (= window - overlap). Vectorized split,
    python windowing over the per-doc token lists."""

    def __init__(self, window: int, stride: int):
        if stride < 1 or window < 1:
            raise ValueError("window and stride must be >= 1")
        self.window, self.stride = window, stride

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        toks = pc.split_pattern_regex(
            batch["text"].combine_chunks().cast(pa.string()), r"\s+")
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        out_id, out_start, out_text = [], [], []
        for did, words in zip(ids, toks.to_pylist()):
            words = [w for w in words if w]
            for s in range(0, max(len(words), 1), self.stride):
                if s >= len(words):
                    break
                out_id.append(did)
                out_start.append(s + 1)  # 1-based (matches the oracle)
                out_text.append(" ".join(words[s:s + self.window]))
        return pa.table({
            "doc_id": pa.array(out_id, pa.int64()),
            "chunk_start": pa.array(out_start, pa.int64()),
            "chunk_text": pa.array(out_text, pa.string()),
        })


def chunk_windows(path: str, window: int = 50, overlap: int = 10,
                  concurrency=None) -> "ray.data.Dataset":
    """(doc_id, chunk_start, chunk_text) token windows with overlap —
    streaming flat-map over (doc_id, text) only."""
    import ray.data
    return (ray.data.read_parquet(path, columns=["doc_id", "text"])
            .map_batches(_Chunker,
                         fn_constructor_args=(window, window - overlap),
                         batch_format="pyarrow",
                         concurrency=stage_pool(concurrency)))
