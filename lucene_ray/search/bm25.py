"""BM25 scoring — exact float32 reproduction of the reference formula.

``search/similarities/BM25Similarity.java``:
- idf:   ``(float) Math.log(1 + (docCount - docFreq + 0.5) / (docFreq + 0.5))`` (:104)
- avgdl: ``(float) (sumTotalTermFreq / (double) docCount)`` (:110)
- cache: ``cache[i] = 1f / (k1 * ((1 - b) + b * LENGTH_TABLE[i] / avgdl))`` (:204-207)
- score: ``weight - weight / (1 + freq * cache[norm & 0xFF])`` (:240-247),
  float (not double) arithmetic order preserved via numpy float32.

Multi-term scores are summed in double then cast to float
(DisjunctionSumScorer/ConjunctionScorer accumulate in double).

``idf64`` and ``score64`` are the one double-precision BM25 formula
(exact doc lengths, no norm quantization): the ``bm25_exact64``
similarity, the SQL-oracle correctness gate (DuckDB computes the same
expression in double precision) and every other float64 BM25 scorer
call them; nothing else writes the expression out. ``score64`` takes a
precomputed weight, and each caller passes its own:

- ``Searcher`` exact64 term scoring and ``explain``: ``idf64(df, N)``
  (term boosts are ignored, as the oracle has none);
- exact64 phrases and spans: the sum of ``idf64`` over the terms;
- ``BlendedBM25Similarity``: ``boost * idf64(df_blend, N)``;
- ``MemoryIndex``: a ``BlendedBM25Similarity(1)`` searcher over its
  one-doc reader, so ``boost * idf64(1, 1)`` per term;
- the driver pseudo-terms (synonym, combined field): ``idf64`` of the
  blended df.

MoreLikeThis ranks its candidate terms by ``tf * idf64``.
"""

from __future__ import annotations

import math

import numpy as np

from ..analysis.smallfloat import LENGTH_TABLE

K1 = 1.2
B = 0.75


def idf64(doc_freq: int, doc_count: int) -> float:
    """``ln(1 + (N - df + 0.5) / (df + 0.5))`` in double (``math.log``)."""
    return math.log(1 + (doc_count - doc_freq + 0.5) / (doc_freq + 0.5))


def idf(doc_freq: int, doc_count: int) -> np.float32:
    return np.float32(idf64(doc_freq, doc_count))


def avg_field_length(sum_total_term_freq: int, doc_count: int) -> np.float32:
    return np.float32(sum_total_term_freq / float(doc_count))


def norm_inverse_cache(avgdl: np.float32, k1: float = K1, b: float = B) -> np.ndarray:
    """float32[256]: 1 / (k1 * ((1-b) + b * LENGTH_TABLE[i] / avgdl))."""
    k1 = np.float32(k1)
    b = np.float32(b)
    one = np.float32(1)
    return (one / (k1 * ((one - b) + b * LENGTH_TABLE / np.float32(avgdl)))).astype(np.float32)


def term_weight(boost: float, df: int, doc_count: int) -> np.float32:
    return np.float32(np.float32(boost) * idf(df, doc_count))


def score_freqs(freqs: np.ndarray, norm_bytes: np.ndarray, weight: np.float32,
                cache: np.ndarray) -> np.ndarray:
    """Vectorized float32 ``weight - weight / (1 + freq * normInverse)``."""
    norm_inv = cache[np.asarray(norm_bytes, dtype=np.uint8)]
    f = np.asarray(freqs, dtype=np.float32)
    one = np.float32(1)
    return (weight - weight / (one + f * norm_inv)).astype(np.float32)


# --- float64 exact-dl variant (SQL-oracle mode) ---------------------------

def score64(tf, dl, weight: float, avgdl: float, k1: float = K1,
            b: float = B) -> np.ndarray:
    """Double-precision BM25 with exact doc lengths (no norm byte):
    ``weight * tf / (tf + k1 * (1 - b + b * dl / avgdl))``, where
    ``weight`` is boost * ``idf64`` or a phrase's idf sum."""
    tf = np.asarray(tf, dtype=np.float64)
    dl = np.asarray(dl, dtype=np.float64)
    return weight * tf / (tf + k1 * (1 - b + b * dl / avgdl))
