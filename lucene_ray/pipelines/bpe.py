"""Learned byte-pair-encoding tokenizer for training-data pipelines.

Algorithm: Sennrich, Haddow & Birch 2016 ("Neural Machine Translation
of Rare Words with Subword Units", ACL) — the published BPE method:
words end with the ``</w>`` symbol, training repeatedly merges the
most frequent adjacent symbol pair, encoding replays merges in rank
order.

Ray-native shape (the same bounded-driver pattern as
``train_naive_bayes``):

- **word counting is distributed**: one map-combine pass
  (``map_batches`` partial counts → ``groupby('word').sum``) — the
  only corpus-sized step; the driver receives UNIQUE words only,
  capped at ``max_words`` by frequency (HuggingFace/SentencePiece
  train from the same word-frequency table).
- **merge training is driver-side over the word table** (unique-word
  count, not corpus size): incremental pair-count maintenance — each
  merge touches only the words containing that pair.
- **encoding is distributed**: merge ranks broadcast once via
  ``ray.put``, an actor-pool ``map_batches`` stage encodes per batch
  with an LRU word cache (identical words dominate in natural text).

Determinism: pair ties break on (count desc, pair lexicographic), so
the merge list is a pure function of the word-frequency table.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np
import pyarrow as pa

import ray
import ray.data

from ..util import stage_pool

EOW = "</w>"


# --- distributed word counting ----------------------------------------------

def _word_count_partials(batch: pa.Table) -> pa.Table:
    import pyarrow.compute as pc
    flat = pc.list_flatten(pc.split_pattern_regex(
        batch["text"].combine_chunks().cast(pa.string()), r"\s+"))
    flat = flat.filter(pc.not_equal(flat, ""))
    if len(flat) == 0:
        return pa.table({"word": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    enc = pc.dictionary_encode(flat)
    codes = enc.indices.to_numpy(zero_copy_only=False)
    cnt = np.bincount(codes, minlength=len(enc.dictionary))
    return pa.table({"word": enc.dictionary.cast(pa.string()),
                     "n": pa.array(cnt.astype(np.int64))})


def corpus_word_counts(path: str, *, text_col: str = "text",
                       max_words: int = 1_000_000) -> list[tuple[str, int]]:
    """(word, count) by count desc then word asc, capped at max_words
    — partial counts per batch, one groupby('word') combine."""
    ds = (ray.data.read_parquet(path, columns=[text_col])
          .map_batches(_word_count_partials, batch_format="pyarrow")
          .groupby("word").sum("n")
          # distributed top-V: sort+limit runs in the cluster, so the
          # driver only ever receives max_words rows (never the full
          # distinct-word table — at web scale that is 1e8+ rows)
          .sort(["sum(n)", "word"], descending=[True, False])
          .limit(max_words))
    t = ds.to_pandas()
    return list(zip(t["word"], (int(x) for x in t["sum(n)"])))


# --- driver-side merge training over the word table -------------------------

def train_bpe(path: str, n_merges: int, *, text_col: str = "text",
              max_words: int = 1_000_000) -> list[tuple[str, str]]:
    """Ordered merge list learned from the corpus."""
    wc = corpus_word_counts(path, text_col=text_col, max_words=max_words)
    return train_bpe_from_counts(wc, n_merges)


def train_bpe_from_counts(word_counts, n_merges: int
                          ) -> list[tuple[str, str]]:
    """Classic BPE training with incremental pair-count updates: each
    merge only rewrites the words that contain the merged pair."""
    words = [tuple(w) + (EOW,) for w, _ in word_counts]
    freqs = [int(n) for _, n in word_counts]
    pair_counts: Counter = Counter()
    pair_words: defaultdict[tuple, set] = defaultdict(set)
    for wi, syms in enumerate(words):
        f = freqs[wi]
        for a, b in zip(syms, syms[1:]):
            pair_counts[(a, b)] += f
            pair_words[(a, b)].add(wi)
    merges: list[tuple[str, str]] = []
    for _ in range(n_merges):
        best = None
        for p, c in pair_counts.items():
            if c <= 0:
                continue
            if best is None or c > best[1] or (c == best[1] and p < best[0]):
                best = (p, c)
        if best is None:
            break
        pair, _c = best
        merges.append(pair)
        new_sym = pair[0] + pair[1]
        touched = list(pair_words.pop(pair, ()))
        pair_counts.pop(pair, None)
        for wi in touched:
            syms = words[wi]
            f = freqs[wi]
            # remove this word's old pair contributions
            for a, b in zip(syms, syms[1:]):
                q = (a, b)
                if q in pair_counts:
                    pair_counts[q] -= f
                    s = pair_words.get(q)
                    if s is not None:
                        s.discard(wi)
            # apply the merge left-to-right
            out = []
            i = 0
            while i < len(syms):
                if (i + 1 < len(syms) and syms[i] == pair[0]
                        and syms[i + 1] == pair[1]):
                    out.append(new_sym)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            words[wi] = tuple(out)
            # add the new contributions back
            for a, b in zip(words[wi], words[wi][1:]):
                pair_counts[(a, b)] += f
                pair_words[(a, b)].add(wi)
    return merges


# --- encoding ----------------------------------------------------------------

class BpeEncoder:
    """Greedy rank-ordered merge replay (the standard BPE encode loop)
    with an LRU word cache."""

    def __init__(self, merges, cache_size: int = 65536):
        self.rank = {tuple(p): i for i, p in enumerate(merges)}
        self.cache: dict[str, tuple] = {}
        self.cache_size = cache_size

    def encode_word(self, word: str) -> tuple:
        got = self.cache.get(word)
        if got is not None:
            return got
        syms = list(word) + [EOW]
        while len(syms) > 1:
            best_rank, best_i = None, -1
            for i, (a, b) in enumerate(zip(syms, syms[1:])):
                r = self.rank.get((a, b))
                if r is not None and (best_rank is None or r < best_rank):
                    best_rank, best_i = r, i
            if best_rank is None:
                break
            syms[best_i:best_i + 2] = [syms[best_i] + syms[best_i + 1]]
        out = tuple(syms)
        if len(self.cache) >= self.cache_size:
            self.cache.clear()
        self.cache[word] = out
        return out

    def encode(self, text: str) -> list[str]:
        out: list[str] = []
        for w in text.split():
            out.extend(self.encode_word(w))
        return out


class _BpeCounter:
    """Actor-pool stage: merges resolved from the object store once
    per actor; per doc, the BPE token count."""

    def __init__(self, merges_ref):
        merges = ray.get(merges_ref) if isinstance(
            merges_ref, ray.ObjectRef) else merges_ref
        self.enc = BpeEncoder(merges)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        n = [len(self.enc.encode(t or "")) for t in texts]
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_bpe_tokens": pa.array(np.asarray(n, dtype=np.int64)),
        })


def bpe_token_counts(path: str, merges, *,
                     concurrency=None) -> ray.data.Dataset:
    """(doc_id, n_bpe_tokens) under a learned merge list — merges ship
    once via ray.put, never per batch."""
    ref = ray.put(list(merges))
    return (ray.data.read_parquet(path, columns=["doc_id", "text"])
            .map_batches(_BpeCounter, fn_constructor_args=(ref,),
                         batch_format="pyarrow",
                         concurrency=stage_pool(concurrency)))
