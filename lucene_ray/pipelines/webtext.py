"""Web-text curation operators for LLM training-data pipelines.

Three families, all streaming ``map_batches`` stages over the
``documents`` table (``doc_id:int64, text:string, lang:string``):

* **Gopher-style quality rules** (Rae et al. 2021, "Scaling Language
  Models: ... Gopher", §A1.1 — public method): per-doc repetition and
  shape statistics plus a pass/fail flag. All outputs are integers and
  every rule is an integer cross-multiplication, so the DuckDB oracle
  compares exactly (no float hashing).
* **Deterministic hash sampling** (plain + per-language stratified):
  the CCNet-style salted-md5 keep rule, reproducible across runs and
  engines (DuckDB computes the identical md5 prefix).
* **Benchmark-contamination screening**: exact word-8-gram membership
  of every document against a broadcast benchmark n-gram set
  (the standard decontamination step, cf. GPT-3 appendix C).

Scale notes (100 TB): quality + contamination read only
``(doc_id, text)`` (pruned scan), never shuffle, and are fully
vectorized (Arrow kernels + numpy grouping; the only per-row Python is
the md5 in sampling, which reads just the id column — a crc64
vectorized variant would drop even that, but md5 keeps the oracle
exact and portable). The contamination benchmark set is collected once
(benchmark corpora are small by definition) and broadcast via
``ray.put``; each actor resolves it once in ``__init__``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

import ray
import ray.data

from ..util import stage_pool

# the 33-word reference English stop list
# (lucene/analysis/common/src/java/org/apache/lucene/analysis/en/
#  EnglishAnalyzer.java:43-54)
ENGLISH_STOP_WORDS = (
    "a an and are as at be but by for if in into is it no not of on "
    "or such that the their then there these they this to was will with"
).split()


def _read_docs(path: str, columns=("doc_id", "text")) -> ray.data.Dataset:
    return ray.data.read_parquet(path, columns=list(columns))


def _split_words(text_col: pa.ChunkedArray | pa.Array):
    """Whitespace words per doc -> (flat tokens, doc index, per-doc count).

    Mirrors the oracle tokenizer ``list_filter(string_split(text,' '),
    x -> x <> '')`` exactly (empty strings from runs of spaces drop,
    but still never appear mid-token).
    """
    import pyarrow.compute as pc
    if isinstance(text_col, pa.ChunkedArray):
        text_col = text_col.combine_chunks()
    lists = pc.split_pattern(pc.fill_null(text_col, ""), " ")
    flat = pc.list_flatten(lists)
    didx = pc.list_parent_indices(lists).to_numpy(zero_copy_only=False)
    keep = pc.not_equal(flat, "")
    flat = flat.filter(keep)
    didx = didx[keep.to_numpy(zero_copy_only=False)]
    n_words = np.bincount(didx, minlength=len(text_col)).astype(np.int64)
    return flat, didx.astype(np.int64), n_words


def _group_rows(*cols: np.ndarray):
    """Exact multi-column grouping without hash collisions.

    Stacks the int64 columns and takes unique rows via a void view
    (vectorized; no Python loop). Returns (first_index, counts) —
    first_index indexes a representative row per group.
    """
    mat = np.ascontiguousarray(np.stack(cols, axis=1))
    view = mat.view([("", mat.dtype)] * mat.shape[1]).ravel()
    _, first, counts = np.unique(view, return_index=True, return_counts=True)
    return first, counts


class GopherQuality:
    """(doc_id, text) -> integer Gopher-style quality metrics + pass flag.

    Columns (all int64):
      n_words, word_chars (sum of word lengths), n_alpha_words (words
      containing an ASCII letter), n_stop_words, top2gram_count /
      top2gram_chars (count of the most frequent word 2-gram and the
      max char-mass count*len among the tied-most-frequent ones),
      dup2gram_chars / dup5gram_chars (char mass len*count of n-grams
      occurring >= 2 times), gopher_pass.

    Pass rules (integer cross-multiplied; thresholds follow Gopher's
    published shape, scaled to the short synthetic docs):
      30 <= n_words <= 50000; 3*n_words <= word_chars <= 10*n_words;
      5*n_alpha_words >= 4*n_words; n_stop_words >= 2;
      5*top2gram_chars < word_chars (top-2-gram char fraction < 0.2);
      4*dup2gram_chars < word_chars (duplicate-2-gram fraction < 0.25);
      2*dup5gram_chars < word_chars.
    """

    def __init__(self, stop_words=tuple(ENGLISH_STOP_WORDS)):
        self.stop_set = pa.array(sorted(set(stop_words)), pa.string())

    def _ngram_stats(self, didx, codes, lens, n, width):
        """Per-doc (top_count, top_chars, dup_chars) for word n-grams."""
        top_count = np.zeros(n, dtype=np.int64)
        top_chars = np.zeros(n, dtype=np.int64)
        dup_chars = np.zeros(n, dtype=np.int64)
        m = len(codes) - (width - 1)
        if m <= 0:
            return top_count, top_chars, dup_chars
        valid = didx[:m] == didx[width - 1:]
        if not valid.any():
            return top_count, top_chars, dup_chars
        cols = [didx[:m][valid]] + [codes[k:k + m][valid] for k in range(width)]
        first, counts = _group_rows(*cols)
        # char mass of one n-gram occurrence = token lens + separators
        starts = np.flatnonzero(valid)[first]
        glen = np.zeros(len(first), dtype=np.int64) + (width - 1)
        for k in range(width):
            glen += lens[starts + k]
        gdoc = didx[starts]
        np.maximum.at(top_count, gdoc, counts)
        tied = counts == top_count[gdoc]
        np.maximum.at(top_chars, gdoc[tied], (counts * glen)[tied])
        dmask = counts >= 2
        np.add.at(dup_chars, gdoc[dmask], (counts * glen)[dmask])
        return top_count, top_chars, dup_chars

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        n = len(batch)
        flat, didx, n_words = _split_words(batch["text"])
        lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
        word_chars = np.zeros(n, dtype=np.int64)
        np.add.at(word_chars, didx, lens)
        alpha = pc.match_substring_regex(flat, "[a-zA-Z]").to_numpy(
            zero_copy_only=False)
        n_alpha = np.zeros(n, dtype=np.int64)
        np.add.at(n_alpha, didx[alpha], 1)
        stop = pc.is_in(flat, value_set=self.stop_set).to_numpy(
            zero_copy_only=False)
        n_stop = np.zeros(n, dtype=np.int64)
        np.add.at(n_stop, didx[stop], 1)
        codes = pc.dictionary_encode(flat).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        top2c, top2ch, dup2 = self._ngram_stats(didx, codes, lens, n, 2)
        _, _, dup5 = self._ngram_stats(didx, codes, lens, n, 5)
        ok = ((n_words >= 30) & (n_words <= 50000)
              & (3 * n_words <= word_chars) & (word_chars <= 10 * n_words)
              & (5 * n_alpha >= 4 * n_words) & (n_stop >= 2)
              & (5 * top2ch < word_chars) & (4 * dup2 < word_chars)
              & (2 * dup5 < word_chars))
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_words": pa.array(n_words),
            "word_chars": pa.array(word_chars),
            "n_alpha_words": pa.array(n_alpha),
            "n_stop_words": pa.array(n_stop),
            "top2gram_count": pa.array(top2c),
            "top2gram_chars": pa.array(top2ch),
            "dup2gram_chars": pa.array(dup2),
            "dup5gram_chars": pa.array(dup5),
            "gopher_pass": pa.array(ok.astype(np.int64)),
        })


def gopher_quality(path: str) -> ray.data.Dataset:
    return _read_docs(path).map_batches(GopherQuality, batch_format="pyarrow",
                                        concurrency=stage_pool())


# ---------------------------------------------------------------------------
# deterministic hash sampling


def _md5_bucket(ids, salt: str) -> np.ndarray:
    """bucket in [0,100) = first-8-hex-digits of md5(f"{salt}:{id}") % 100.

    Identical to DuckDB ``('0x'||substr(md5(salt||':'||id),1,8))::UBIGINT
    % 100`` — the engine-portable reproducible sampler.
    """
    out = np.empty(len(ids), dtype=np.int64)
    pre = f"{salt}:".encode()
    for i, v in enumerate(ids):
        h = hashlib.md5(pre + str(v).encode()).hexdigest()
        out[i] = int(h[:8], 16) % 100
    return out


class _HashSampler:
    def __init__(self, pct: int, salt: str):
        self.pct, self.salt = pct, salt

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        keep = _md5_bucket(ids, self.salt) < self.pct
        return batch.filter(pa.array(keep))


def sample_hash(path: str, pct: int = 10, salt: str = "s") -> ray.data.Dataset:
    """Deterministic pct% sample of doc_ids (salted md5 keep rule)."""
    return _read_docs(path, columns=("doc_id",)).map_batches(
        _HashSampler(pct, salt), batch_format="pyarrow")


class _StratifiedSampler:
    def __init__(self, rates: dict[str, int], default_pct: int, salt: str):
        self.rates, self.default, self.salt = dict(rates), default_pct, salt

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        langs = batch["lang"].to_pylist()
        pcts = np.array([self.rates.get(l, self.default) for l in langs])
        keep = _md5_bucket(ids, self.salt) < pcts
        return batch.filter(pa.array(keep))


def sample_stratified(path: str, rates: dict[str, int],
                      default_pct: int = 0, salt: str = "s") -> ray.data.Dataset:
    """Per-language sampling rates (e.g. downsample head languages)."""
    return _read_docs(path, columns=("doc_id", "lang")).map_batches(
        _StratifiedSampler(rates, default_pct, salt), batch_format="pyarrow")


# ---------------------------------------------------------------------------
# benchmark-contamination screening


def _doc_ngrams(text_col, width: int):
    """Exact word n-gram strings per doc, fully vectorized.

    Builds the n-gram strings with ``binary_join_element_wise`` over
    `width` shifted views of the flat token array — no Python loop over
    rows or grams.
    Returns (grams: StringArray, gram_doc_index: np.ndarray).
    """
    import pyarrow.compute as pc
    flat, didx, _ = _split_words(text_col)
    m = len(flat) - (width - 1)
    if m <= 0:
        return pa.array([], pa.string()), np.array([], dtype=np.int64)
    valid = didx[:m] == didx[width - 1:]
    parts = [flat.slice(k, m) for k in range(width)]
    grams = pc.binary_join_element_wise(*parts, " ")
    vmask = pa.array(valid)
    return grams.filter(vmask), didx[:m][valid]


def benchmark_ngrams(path: str, width: int = 8,
                     bench_mod: int = 97) -> ray.data.Dataset:
    """Distinct word n-grams of the 'benchmark' docs (doc_id % mod == 0)."""
    import pyarrow.compute as pc

    def grams(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        sel = pa.array(ids % bench_mod == 0)
        sub = batch.filter(sel)
        g, _ = _doc_ngrams(sub["text"], width)
        return pa.table({"gram": g.unique() if len(g) else g})

    ds = _read_docs(path).map_batches(grams, batch_format="pyarrow")
    return ds.groupby("gram").count().select_columns(["gram"])


class ContaminationScreen:
    """Counts benchmark n-grams inside each document.

    The benchmark gram set is one Arrow string array, broadcast as a
    ``ray.put`` object ref and resolved ONCE per actor here in
    ``__init__`` (not re-shipped per batch); ``pc.is_in`` takes it as
    is, an exact membership test.
    """

    def __init__(self, grams, width: int):
        self.value_set = ray.get(grams) if isinstance(
            grams, ray.ObjectRef) else grams
        self.width = width

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        n = len(batch)
        grams, gdoc = _doc_ngrams(batch["text"], self.width)
        n_grams = np.bincount(gdoc, minlength=n).astype(np.int64)
        n_cont = np.zeros(n, dtype=np.int64)
        if len(grams):
            hit = pc.is_in(grams, value_set=self.value_set).to_numpy(
                zero_copy_only=False)
            np.add.at(n_cont, gdoc[hit], 1)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_grams": pa.array(n_grams),
            "n_contaminated": pa.array(n_cont),
            "contaminated": pa.array((n_cont > 0).astype(np.int64)),
        })


def contamination(path: str, width: int = 8,
                  bench_mod: int = 97) -> ray.data.Dataset:
    """Screen every doc against the benchmark docs' n-gram set.

    The benchmark side (docs with doc_id % bench_mod == 0 — the stand-in
    for an eval corpus, which is small by definition) is materialized
    once and broadcast; the corpus side streams.
    """
    bench = ray.get(benchmark_ngrams(path, width, bench_mod)
                    .to_arrow_refs())
    ref = ray.put(pa.concat_arrays(
        [t.column("gram").combine_chunks().cast(pa.string()) for t in bench]
        or [pa.array([], pa.string())]))
    return _read_docs(path).map_batches(
        ContaminationScreen, batch_format="pyarrow",
        fn_constructor_args=(ref, width), concurrency=stage_pool())


# ---------------------------------------------------------------------------
# fingerprint clustering (FingerprintFilter-based near-dup grouping)


class _Fingerprint:
    """(doc_id, text) -> (doc_id, fp): sorted-deduped whitespace terms
    joined by one space (``miscellaneous/FingerprintFilter.java``
    normalization — the Solr SignatureUpdateProcessor dedup flow)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        flat, didx, n_words = _split_words(batch["text"])
        n = len(batch)
        fps = [""] * n
        if len(flat):
            terms = flat.to_pylist()
            buckets: dict[int, set] = {}
            for t, d in zip(terms, didx):
                buckets.setdefault(int(d), set()).add(t)
            for d, s in buckets.items():
                fps[d] = " ".join(sorted(s))
        return pa.table({
            "doc_id": batch["doc_id"],
            "fp": pa.array(fps, pa.string()),
        })


def fingerprint_clusters(path: str) -> ray.data.Dataset:
    """(fp, n_docs, min_doc): docs grouped by their token fingerprint —
    exact near-dup clusters under bag-of-words identity (word order and
    repetition ignored). The groupby moves only (fp, doc_id) pairs."""
    from ray.data.aggregate import Count, Min

    return (_read_docs(path).map_batches(_Fingerprint,
                                         batch_format="pyarrow",
                                         concurrency=stage_pool())
            .groupby("fp")
            .aggregate(Count(alias_name="n_docs"),
                       Min("doc_id", alias_name="min_doc")))


# ---------------------------------------------------------------------------
# unigram surprisal (language-model quality signal)


def surprisal_topk(path: str, k: int = 20,
                   top_v: int = 1_000_000) -> "pa.Table":
    """Top-k docs by mean unigram surprisal ``-mean(ln p(term))`` with
    ``p = ttf/sum_ttf`` from the corpus itself — the classic cheap
    LM-quality signal (high surprisal = rare-word-heavy / atypical
    docs). Two passes, both combiner-shaped: a (term, ttf) aggregate,
    then a per-doc dot product against the broadcast log-prob table.
    Returns (doc_id, rank) — float ranking, integer output columns.

    Driver memory is bounded: only the ``top_v`` highest-ttf terms are
    pulled to the driver and broadcast (a web-scale corpus has 10^8+
    distinct terms; the driver never holds them all). Terms outside
    the table get an OOV floor = the log-prob of the rarest kept term,
    which is EXACT whenever the true vocabulary fits in ``top_v``
    (always true at test scale)."""
    from ray.data.aggregate import Sum

    tt = (_read_docs(path).map_batches(_TermCounts, batch_format="pyarrow",
                                       concurrency=stage_pool())
          .groupby("term").aggregate(Sum("n", alias_name="ttf"))
          .materialize())
    # total mass over ALL terms (distributed aggregate, no driver vocab)
    sum_ttf = float(tt.sum("ttf"))
    rows = (tt.sort("ttf", descending=True).limit(top_v)
            .take_all())  # bounded: <= top_v rows at the driver
    terms = np.array([r["term"] for r in rows])
    ttf = np.array([r["ttf"] for r in rows], dtype=np.float64)
    order = np.argsort(terms)
    terms, ttf = terms[order], ttf[order]
    logp = np.log(ttf / sum_ttf)
    oov_logp = float(logp.min()) if len(logp) else 0.0
    ref = ray.put((terms, logp, oov_logp))

    class Score:
        def __init__(self):
            self.terms, self.logp, self.oov = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            flat, didx, n_words = _split_words(batch["text"])
            n = len(batch)
            tot = np.zeros(n, dtype=np.float64)
            if len(flat):
                toks = np.asarray(flat.to_pylist(), dtype=object)
                idx = np.searchsorted(self.terms, toks)
                idx_c = np.minimum(idx, len(self.terms) - 1)
                lp = np.where(self.terms[idx_c] == toks,
                              self.logp[idx_c], self.oov)
                np.add.at(tot, didx, lp)
            mean_s = np.where(n_words > 0, -tot / np.maximum(n_words, 1),
                              0.0)
            return pa.table({
                "doc_id": batch["doc_id"],
                "surprisal": pa.array(mean_s),
            })

    got = (_read_docs(path).map_batches(Score, batch_format="pyarrow",
                                        concurrency=stage_pool())
           .sort(["surprisal", "doc_id"], descending=[True, False])
           .limit(k).to_pandas())
    return pa.table({
        "doc_id": pa.array(got["doc_id"].astype("int64")),
        "rank": pa.array(np.arange(1, len(got) + 1, dtype=np.int64)),
    })


class _TermCounts:
    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        flat, _, _ = _split_words(batch["text"])
        if len(flat) == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        enc = pc.dictionary_encode(flat)
        codes = enc.indices.to_numpy(zero_copy_only=False)
        cnt = np.bincount(codes, minlength=len(enc.dictionary))
        return pa.table({"term": enc.dictionary.cast(pa.string()),
                         "n": pa.array(cnt.astype(np.int64))})


# ---------------------------------------------------------------------------
# HTML -> text extraction over the Common-Crawl-style pages table
# (url, warc_ts, html: binary, text, lang) — the north-star per-row
# invariant is BYTE-IDENTICAL extracted text per url.


def _extract_text(batch: pa.Table) -> pa.Table:
    """Stateless map_batches stage: decode the html binary column and
    strip markup with the HTMLStripCharFilter analog (block elements
    become newlines, entities decode); the page-level wrapper
    whitespace is trimmed. Reads only (url, html)."""
    from ..analysis.charfilter import html_strip
    htmls = batch["html"].to_pylist()
    out = [html_strip(h.decode("utf-8", "replace")).strip()
           if h is not None else "" for h in htmls]
    return pa.table({
        "url": batch["url"],
        "extracted_text": pa.array(out, pa.string()),
    })


def extract_pages_text(pages_path: str) -> ray.data.Dataset:
    """(url, extracted_text) for every page — the tokenize/analyze
    front door of the north-star pipeline."""
    return (ray.data.read_parquet(pages_path, columns=["url", "html"])
            .map_batches(_extract_text, batch_format="pyarrow"))


def verify_extraction(pages_path: str) -> dict:
    """Distributed per-row check of the north-star invariant: extracted
    text is byte-identical to the reference ``text`` column per url.
    Returns {n_rows, n_mismatch} (aggregated, never materializes the
    corpus on the driver)."""
    from ..analysis.charfilter import html_strip

    def check(batch: pa.Table) -> pa.Table:
        htmls = batch["html"].to_pylist()
        texts = batch["text"].to_pylist()
        bad = sum(
            1 for h, t in zip(htmls, texts)
            if html_strip((h or b"").decode("utf-8", "replace")).strip()
            != (t or ""))
        return pa.table({"n": pa.array([len(htmls)], pa.int64()),
                         "bad": pa.array([bad], pa.int64())})

    ds = (ray.data.read_parquet(pages_path, columns=["html", "text"])
          .map_batches(check, batch_format="pyarrow"))
    import ray.data.aggregate as agg
    got = ds.aggregate(agg.Sum("n"), agg.Sum("bad"))
    return {"n_rows": int(got["sum(n)"]),
            "n_mismatch": int(got["sum(bad)"])}


def _batch_bigrams(batch: "pa.Table"):
    """(bigram strings 'w1 w2', doc index) for one batch — vectorized
    adjacent-pair extraction over the flat token stream."""
    flat, didx, _ = _split_words(batch["text"])
    if len(flat) < 2:
        return np.empty(0, dtype=object), np.empty(0, dtype=np.int64)
    import pyarrow.compute as pc
    same = didx[1:] == didx[:-1]
    if not same.any():
        return np.empty(0, dtype=object), np.empty(0, dtype=np.int64)
    w1 = flat.slice(0, len(flat) - 1).filter(pa.array(same))
    w2 = flat.slice(1).filter(pa.array(same))
    bg = pc.binary_join_element_wise(w1, w2, " ")
    return (np.asarray(bg.to_pylist(), dtype=object),
            didx[:-1][same].astype(np.int64))


class _BigramCounts:
    def __call__(self, batch: "pa.Table") -> "pa.Table":
        bg, _ = _batch_bigrams(batch)
        if len(bg) == 0:
            return pa.table({"bigram": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        uniq, cnt = np.unique(bg, return_counts=True)
        return pa.table({"bigram": pa.array(uniq.astype(str)),
                         "n": pa.array(cnt.astype(np.int64))})


def bigram_surprisal_topk(path: str, k: int = 20,
                          top_v: int = 1_000_000) -> "pa.Table":
    """Top-k docs by mean BIGRAM surprisal ``-mean(ln p(w2|w1))`` with
    ``p(w2|w1) = c(w1,w2) / c_prefix(w1)`` estimated from the corpus
    itself — the CCNet-style LM-quality signal one order up from
    :func:`surprisal_topk`. Three combiner-shaped passes: a
    (bigram, count) aggregate, a (prefix, count) reduction of it, and
    a per-doc scoring pass against the broadcast log-prob table.

    Driver/broadcast memory is bounded to the ``top_v`` highest-count
    bigrams (OOV floor = rarest kept bigram's log-prob) — exact when
    the true bigram vocabulary fits (always at test scale). A kept
    bigram's prefix count is always available because a prefix is at
    least as frequent as any bigram it heads."""
    from ray.data.aggregate import Sum

    cb = (_read_docs(path).map_batches(_BigramCounts, batch_format="pyarrow",
                                       concurrency=stage_pool())
          .groupby("bigram").aggregate(Sum("n", alias_name="c"))
          .materialize())

    def _prefix(batch: "pa.Table") -> "pa.Table":
        import pyarrow.compute as pc
        w1 = pc.list_element(pc.split_pattern(batch["bigram"], " "), 0)
        return pa.table({"w1": w1, "n": batch["c"]})

    cp = (cb.map_batches(_prefix, batch_format="pyarrow")
          .groupby("w1").aggregate(Sum("n", alias_name="cp")))
    rows = (cb.sort("c", descending=True).limit(top_v).take_all())
    bgs = np.array([r["bigram"] for r in rows])
    c = np.array([r["c"] for r in rows], dtype=np.float64)
    w1_needed = sorted({b.split(" ", 1)[0] for b in bgs})
    nref = ray.put(pa.array(w1_needed))  # <= top_v prefixes

    def _only_needed(batch: "pa.Table") -> "pa.Table":
        import pyarrow.compute as pc
        return batch.filter(pc.is_in(batch["w1"], value_set=ray.get(nref)))

    # driver pull bounded to the kept bigrams' prefixes (never the
    # whole unigram vocabulary)
    prows = cp.map_batches(_only_needed, batch_format="pyarrow").take_all()
    pmap = {r["w1"]: float(r["cp"]) for r in prows}
    order = np.argsort(bgs)
    bgs = bgs[order]
    c = c[order]
    logp = np.log(c / np.array([pmap[b.split(" ", 1)[0]] for b in bgs]))
    oov = float(logp.min()) if len(logp) else 0.0
    ref = ray.put((bgs, logp, oov))

    class Score:
        def __init__(self):
            self.bgs, self.logp, self.oov = ray.get(ref)

        def __call__(self, batch: "pa.Table") -> "pa.Table":
            bg, didx = _batch_bigrams(batch)
            n = len(batch)
            tot = np.zeros(n, dtype=np.float64)
            nb = np.zeros(n, dtype=np.int64)
            if len(bg):
                idx = np.searchsorted(self.bgs, bg)
                idx_c = np.minimum(idx, len(self.bgs) - 1)
                lp = np.where(self.bgs[idx_c] == bg, self.logp[idx_c],
                              self.oov)
                np.add.at(tot, didx, lp)
                np.add.at(nb, didx, 1)
            mean_s = np.where(nb > 0, -tot / np.maximum(nb, 1), -np.inf)
            # quantized integer rank key (ULP-proof vs the SQL oracle)
            key = np.full(n, np.iinfo(np.int64).min, dtype=np.int64)
            has = nb > 0
            key[has] = np.floor(mean_s[has] * 1e9).astype(np.int64)
            return pa.table({
                "doc_id": batch["doc_id"],
                "skey": pa.array(key),
                "has": pa.array(has),
            })

    got = (_read_docs(path).map_batches(Score, batch_format="pyarrow",
                                        concurrency=stage_pool())
           .filter(lambda r: bool(r["has"]))
           .sort(["skey", "doc_id"], descending=[True, False])
           .limit(k).to_pandas())
    return pa.table({
        "doc_id": pa.array(got["doc_id"].astype("int64")),
        "rank": pa.array(np.arange(1, len(got) + 1, dtype=np.int64)),
    })


def warc_ingest_table(doc_path: str,
                      cache_root: str = "/tmp/lucene_ray_cache") -> pa.Table:
    """WARC ingestion round trip (ISO 28500 / Common Crawl layout):
    the documents table is packaged into per-partition gzip-membered
    WARC files once (deterministic bytes), read back through
    ``sources.warc.read_warc`` (file-parallel actor-pool extraction),
    and reported as (url, n_bytes of extracted html) — value-exact
    against a SQL oracle deriving the same html wrapper."""
    import hashlib
    import os

    import pyarrow.parquet as pq

    from ..sources.warc import read_warc, write_warc

    key = hashlib.md5(("warc:" + doc_path).encode()).hexdigest()[:12]
    d = os.path.join(cache_root, f"warc-{key}")
    marker = os.path.join(d, "_COMPLETE")
    if not os.path.exists(marker):
        os.makedirs(d, exist_ok=True)
        t = pq.read_table(doc_path, columns=["doc_id", "text"])
        ids = t.column("doc_id").to_numpy()
        texts = t.column("text").to_pylist()
        order = np.argsort(ids)
        n_parts = 8
        parts: list[list] = [[] for _ in range(n_parts)]
        for j in order:
            did = int(ids[j])
            html = f"<html><body><p>{texts[j]}</p></body></html>".encode()
            parts[did % n_parts].append(
                (f"https://synth.test/doc/{did}",
                 "2026-01-01T00:00:00Z", html))
        for p_i, recs in enumerate(parts):
            write_warc(os.path.join(d, f"part{p_i}.warc.gz"), recs)
        open(marker, "w").write("1")
    paths = sorted(os.path.join(d, f) for f in os.listdir(d)
                   if f.endswith(".warc.gz"))

    def measure(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return pa.table({
            "url": batch.column("url"),
            "n_bytes": pc.binary_length(batch.column("html")),
        })

    got = (read_warc(paths).map_batches(measure, batch_format="pyarrow")
           .to_pandas().sort_values("url").reset_index(drop=True))
    return pa.table({
        "url": pa.array(got["url"], pa.large_string()),
        "n_bytes": pa.array(got["n_bytes"].astype("int64")),
    })
