"""Pluggable scoring models beyond BM25 (the Similarity plug point).

Analogs of the reference's similarities package
(``lucene/core/src/java/org/apache/lucene/search/similarities/``):

- ``ClassicSimilarity`` — the classic TF-IDF vector-space model
  (``ClassicSimilarity.java:38-63``, ``TFIDFSimilarity.java``):
  ``score = boost * idf * sqrt(tf) * 1/sqrt(dl)`` with
  ``idf = ln((docCount+1)/(df+1)) + 1``.
- ``LMDirichletSimilarity`` — Dirichlet-smoothed query-likelihood LM
  (``LMDirichletSimilarity.java:70-77``, ``LMSimilarity.java:146``):
  ``score = boost * (ln(1 + tf/(mu*p)) + ln(mu/(dl+mu)))`` clamped at
  0, with collection probability ``p = (ttf+1)/(sum_ttf+1)``.
- ``BooleanSimilarity`` — score == query boost, freq/length ignored
  (``BooleanSimilarity.java:58-60``).

Each similarity is a stateless float64 scorer over vectorized
(freqs, dl) arrays; a ``Searcher(reader, similarity=obj)`` runs it on
the exact-doc-length (exhaustive, unpruned) evaluation path — the same
rails the ``bm25_exact64`` oracle mode uses — so results are
deterministic and ANSI-SQL-expressible. The BM25 single-term walk in
score order stays off for custom models: their scores are not
tf-monotone in general (LMDirichlet contributions clamp at 0).
"""

from __future__ import annotations

import numpy as np

from . import bm25


class Similarity:
    """Per-term vectorized scorer protocol.

    ``term_score`` receives the term's postings freqs for the candidate
    docs, the exact doc lengths, the term's global (df, ttf), the query
    boost and the collection stats, and returns float64 contributions
    (one per candidate). Contributions from multiple query terms are
    summed by the boolean combiner (BooleanWeight semantics).
    """

    name = "similarity"

    def term_score(self, freqs: np.ndarray, dl: np.ndarray, df: int,
                   ttf: int, boost: float, doc_count: int,
                   sum_ttf: int) -> np.ndarray:
        raise NotImplementedError

    def phrase_score(self, freqs: np.ndarray, dl: np.ndarray, stats: list,
                     boost: float, doc_count: int,
                     sum_ttf: int) -> np.ndarray:
        """A phrase, span or multi-phrase score from its per-doc phrase
        freqs and the (df, ttf) of each of its terms: the sum of
        ``term_score`` over the terms (SimilarityBase's MultiSimScorer;
        TF-IDF's summed idf gives the same sum)."""
        out = np.zeros(len(freqs), dtype=np.float64)
        for df, ttf in stats:
            out += self.term_score(freqs, dl, df, ttf, boost, doc_count,
                                   sum_ttf)
        return out


class ClassicSimilarity(Similarity):
    """TF-IDF: ``boost * (ln((n+1)/(df+1))+1) * sqrt(tf) / sqrt(dl)``."""

    name = "classic"

    def term_score(self, freqs, dl, df, ttf, boost, doc_count, sum_ttf):
        idf = np.log((doc_count + 1) / (df + 1.0)) + 1.0
        tf = np.sqrt(freqs.astype(np.float64))
        norm = 1.0 / np.sqrt(np.maximum(dl.astype(np.float64), 1.0))
        return boost * idf * tf * norm


class LMDirichletSimilarity(Similarity):
    """Dirichlet-smoothed LM, default mu=2000, clamped at 0."""

    name = "lm_dirichlet"

    def __init__(self, mu: float = 2000.0):
        if not np.isfinite(mu) or mu < 0:
            raise ValueError(f"illegal mu value: {mu}")
        self.mu = float(mu)

    def term_score(self, freqs, dl, df, ttf, boost, doc_count, sum_ttf):
        p = (ttf + 1.0) / (sum_ttf + 1.0)
        tf = freqs.astype(np.float64)
        score = boost * (np.log1p(tf / (self.mu * p))
                         + np.log(self.mu / (dl.astype(np.float64) + self.mu)))
        return np.maximum(score, 0.0)


class BooleanSimilarity(Similarity):
    """score == boost; freq and length ignored."""

    name = "boolean"

    def term_score(self, freqs, dl, df, ttf, boost, doc_count, sum_ttf):
        return np.full(len(freqs), float(boost), dtype=np.float64)

    def phrase_score(self, freqs, dl, stats, boost, doc_count, sum_ttf):
        return self.term_score(freqs, dl, 0, 0, boost, doc_count, sum_ttf)


class BlendedBM25Similarity(Similarity):
    """BM25 with BLENDED term statistics — the scoring side of
    ``core/src/java/org/apache/lucene/search/BlendedTermQuery.java:285``
    (``df = max(df_i)`` across the blended terms, applied to every
    term via adjustFrequencies): each term scores as if its docFreq
    were the blend, so synonyms/variants rank comparably. Combined by
    the caller via DisjunctionMax(tie=0.01), the reference's default
    DISJUNCTION_MAX_REWRITE."""

    name = "blended_bm25"

    def __init__(self, df_blend: int, k1: float = bm25.K1,
                 b: float = bm25.B):
        self.df_blend = int(df_blend)
        self.k1, self.b = float(k1), float(b)

    def term_score(self, freqs, dl, df, ttf, boost, doc_count, sum_ttf):
        return bm25.score64(freqs, dl,
                            boost * bm25.idf64(self.df_blend, doc_count),
                            sum_ttf / float(max(doc_count, 1)),
                            self.k1, self.b)


class LMJelinekMercerSimilarity(Similarity):
    """Jelinek-Mercer-smoothed query-likelihood LM
    (``similarities/LMJelinekMercerSimilarity.java:55-62``):
    ``score = boost * ln(1 + ((1-lambda) * tf/dl) / (lambda * p))``
    with collection probability ``p = (ttf+1)/(sum_ttf+1)``; default
    ``lambda = 0.1`` (title-query setting of the Zhai-Lafferty study
    the reference cites)."""

    name = "lm_jelinek_mercer"

    def __init__(self, lam: float = 0.1):
        if not (0.0 < lam <= 1.0):
            raise ValueError(f"illegal lambda value: {lam}")
        self.lam = float(lam)

    def term_score(self, freqs, dl, df, ttf, boost, doc_count, sum_ttf):
        p = (ttf + 1.0) / (sum_ttf + 1.0)
        tf = freqs.astype(np.float64)
        d = np.maximum(dl.astype(np.float64), 1.0)
        return boost * np.log1p((1.0 - self.lam) * (tf / d)
                                / (self.lam * p))


class AxiomaticF2EXP(Similarity):
    """Axiomatic retrieval model F2EXP
    (``similarities/AxiomaticF2EXP.java``, Fang-Zhai SIGIR'05):
    ``score = boost * (N/df)^k * tf / (tf + s + s*dl/avgdl)`` with
    defaults ``s=0.5, k=0.35``."""

    name = "axiomatic_f2exp"

    def __init__(self, s: float = 0.5, k: float = 0.35):
        if not (0.0 <= s <= 1.0) or not (0.0 < k <= 1.0):
            raise ValueError(f"illegal parameters s={s} k={k}")
        self.s, self.k = float(s), float(k)

    def term_score(self, freqs, dl, df, ttf, boost, doc_count, sum_ttf):
        idf = (float(doc_count + 1) / max(df, 1)) ** self.k
        avgdl = sum_ttf / float(max(doc_count, 1))
        tf = freqs.astype(np.float64)
        return boost * idf * tf / (
            tf + self.s + self.s * dl.astype(np.float64) / avgdl)


class SweetSpotSimilarity(ClassicSimilarity):
    """``lucene/misc/src/java/org/apache/lucene/misc/
    SweetSpotSimilarity.java`` role: TF-IDF with a PLATEAU length norm
    (documents inside [ln_min, ln_max] terms take norm 1, outside
    decays by ``1/sqrt(steep*(|l-min|+|l-max|-(max-min))+1)``) and the
    baseline tf (``0 -> 0; freq<=tf_min -> tf_base; else
    sqrt(freq + tf_base^2 - tf_min)``)."""

    name = "sweetspot"

    def __init__(self, ln_min: int = 1, ln_max: int = 1,
                 ln_steep: float = 0.5, tf_base: float = 0.0,
                 tf_min: float = 0.0):
        self.ln_min, self.ln_max = int(ln_min), int(ln_max)
        self.ln_steep = float(ln_steep)
        self.tf_base, self.tf_min = float(tf_base), float(tf_min)

    def term_score(self, freqs, dl, df, ttf, boost, doc_count, sum_ttf):
        idf = np.log((doc_count + 1) / (df + 1.0)) + 1.0
        f = freqs.astype(np.float64)
        tf = np.where(
            f == 0.0, 0.0,
            np.where(f <= self.tf_min, self.tf_base,
                     np.sqrt(f + self.tf_base ** 2 - self.tf_min)))
        d = dl.astype(np.float64)
        norm = 1.0 / np.sqrt(
            self.ln_steep * (np.abs(d - self.ln_min)
                             + np.abs(d - self.ln_max)
                             - (self.ln_max - self.ln_min)) + 1.0)
        return boost * idf * tf * norm
