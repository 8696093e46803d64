"""Classification module: naive-Bayes and kNN document classifiers.

Reference semantics: ``lucene/classification/src/java/org/apache/lucene/
classification/SimpleNaiveBayesClassifier.java`` (class prior from class
doc counts; Laplace-smoothed word likelihoods from per-class term
frequencies, normalised by class token total + vocabulary size) and
``KNearestNeighborClassifier.java`` (query the index with the doc's
terms, majority class among the top-k neighbours; tests
``TestSimpleNaiveBayesClassifier.java`` / ``TestKNearestNeighbor*``).

Ray-first shape:
- TRAIN is one streaming map-combine: ``map_batches`` emits per-batch
  partial (class, term, tf) rows via the shared Arrow tokenize kernel,
  then ONE ``groupby([class, term])`` shuffle of pre-aggregated rows
  builds the model — the model (classes x vocab dense matrix) is the
  SMALL side and broadcasts via ``ray.put``.
- INFERENCE is a stateless ``map_batches`` stage: token ids via one
  ``searchsorted`` against the broadcast vocab, per-class scores as a
  batched matmul-like gather-sum, argmax with class-ascending ties.

Multinomial model (the published NB formulation the reference's
simplified implementation follows):
  score(c | d) = ln P(c) + sum_w n_w(d) * [ln(tf(w,c) + 1)
                                           - ln(tot(c) + |V|)]
where tf(w,c) = occurrences of w in class-c training docs, tot(c) =
class token total, |V| = distinct training vocabulary. Out-of-class
words contribute the smoothing floor; ties break to the
lexicographically smaller class.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pyarrow as pa

import ray
import ray.data

from ..analysis.analyzer import StandardAnalyzer
from ..analysis.arrow_tokenize import _tokenize_batch_arrow
from ..util import stage_pool


class NBModel(NamedTuple):
    classes: list[str]          # sorted
    vocab: np.ndarray           # sorted unicode array of terms
    log_prior: np.ndarray       # (C,)
    log_tf1: np.ndarray         # (C, V)  ln(tf + 1)
    log_denom: np.ndarray       # (C,)    ln(tot_c + V)


class _ClassTermCounts:
    """(doc_id, text, class) batches -> partial (cls, term, tf) rows."""

    def __init__(self, class_col: str):
        self.class_col = class_col
        self.analyzer = StandardAnalyzer()

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        flat, didx = _tokenize_batch_arrow(batch["text"], self.analyzer)
        if len(flat) == 0:
            return pa.table({"cls": pa.array([], pa.string()),
                             "term": pa.array([], pa.large_string()),
                             "tf": pa.array([], pa.int64())})
        cls = batch[self.class_col].to_pylist()
        enc = pc.dictionary_encode(flat)
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uniq = enc.dictionary
        ccls, cinv = np.unique(np.asarray(cls, dtype=object)[didx],
                               return_inverse=True)
        key = cinv * len(uniq) + codes
        uk, tf = np.unique(key, return_counts=True)
        return pa.table({
            "cls": pa.array(ccls[uk // len(uniq)].tolist(), pa.string()),
            "term": uniq.take(pa.array(uk % len(uniq)))
                        .cast(pa.large_string()),
            "tf": pa.array(tf, pa.int64()),
        })


class _VocabFilter:
    """Keep only (cls, term, tf) rows whose term is in the broadcast
    kept-vocabulary (resolved once per actor)."""

    def __init__(self, vocab_ref):
        self.vocab = ray.get(vocab_ref)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0 or len(self.vocab) == 0:
            return batch.slice(0, 0)
        t = np.asarray(batch["term"].to_pylist(), dtype=object)
        i = np.minimum(np.searchsorted(self.vocab, t),
                       len(self.vocab) - 1)
        return batch.filter(pa.array(self.vocab[i] == t))


def train_naive_bayes(doc_path: str, class_col: str = "lang",
                      top_v: int = 1_000_000) -> NBModel:
    """One map-combine + one (cls, term) groupby over the corpus.

    Driver memory is bounded by ``top_v``: the model keeps only the
    ``top_v`` highest-ttf terms (web-scale corpora have 10^8+ distinct
    terms; the driver never concatenates the full (cls, term) table).
    The smoothing denominator still uses the FULL distinct-vocabulary
    size and the FULL per-class token totals (computed as distributed
    aggregates), so the model is EXACT whenever the true vocabulary
    fits in ``top_v`` — always true at test scale; dropped tail terms
    degrade gracefully to the OOV smoothing floor at inference."""
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(doc_path,
                               columns=["doc_id", "text", class_col])
    ct = (ds.map_batches(_ClassTermCounts(class_col),
                         batch_format="pyarrow")
            .groupby(["cls", "term"]).aggregate(Sum("tf"))
            .materialize())
    # full-vocab statistics as distributed aggregates (never at driver)
    term_totals = (ct.groupby("term")
                   .aggregate(Sum("sum(tf)", alias_name="ttf"))
                   .materialize())
    v_full = term_totals.count()  # |V| for the smoothing denominator
    cls_tot = {r["cls"]: float(r["tot"]) for r in
               ct.groupby("cls").aggregate(
                   Sum("sum(tf)", alias_name="tot")).take_all()}
    classes = sorted(cls_tot)
    # vocab cap: top_v terms by corpus ttf (bounded take_all)
    kept = (term_totals.sort("ttf", descending=True).limit(top_v)
            .select_columns(["term"]).take_all())
    vocab = np.unique(np.asarray([r["term"] for r in kept], dtype=object))
    vref = ray.put(vocab)
    # (cls, term, tf) restricted to the kept vocab: <= C * top_v rows
    refs = (ct.map_batches(_VocabFilter, batch_format="pyarrow",
                           fn_constructor_args=(vref,),
                           concurrency=stage_pool())
            .to_arrow_refs())
    tbl = pa.concat_tables([ray.get(r) for r in refs],
                           promote_options="default")
    cls_arr = np.asarray(tbl["cls"].to_pylist(), dtype=object)
    term_arr = np.asarray(tbl["term"].to_pylist(), dtype=object)
    tf_arr = tbl["sum(tf)"].to_numpy()
    C, V = len(classes), len(vocab)
    tfm = np.zeros((C, V), dtype=np.float64)
    ci = {c: i for i, c in enumerate(classes)}
    rows = np.array([ci[c] for c in cls_arr], dtype=np.int64)
    cols = np.searchsorted(vocab, term_arr)
    tfm[rows, cols] = tf_arr
    # priors from class doc counts (one tiny groupby)
    pri = (ray.data.read_parquet(doc_path, columns=[class_col])
           .groupby(class_col).count().to_pandas())
    n_total = int(pri["count()"].sum())
    prior = np.zeros(C, dtype=np.float64)
    for _, r in pri.iterrows():
        prior[ci[str(r[class_col])]] = r["count()"] / n_total
    tot = np.array([cls_tot[c] for c in classes], dtype=np.float64)
    return NBModel(classes, vocab, np.log(prior),
                   np.log1p(tfm), np.log(tot + v_full))


class _NBClassify:
    """Stateless inference stage: broadcast model ref resolved once in
    __init__ (per actor), batched scoring in __call__."""

    def __init__(self, model_ref):
        self.m: NBModel = ray.get(model_ref) if not isinstance(
            model_ref, NBModel) else model_ref
        self.analyzer = StandardAnalyzer()

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = self.m
        n = len(batch)
        flat, didx = _tokenize_batch_arrow(batch["text"], self.analyzer)
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        toks = np.asarray(flat.to_pylist(), dtype=object)
        pos = np.searchsorted(m.vocab, toks)
        pos_c = np.minimum(pos, len(m.vocab) - 1)
        known = m.vocab[pos_c] == toks
        # score = prior + sum_w n_w * (ln(tf+1) - ln(tot + V));
        # unknown words contribute only the -ln(tot + V) floor
        scores = np.tile(m.log_prior, (n, 1))          # (n, C)
        ntok = np.bincount(didx, minlength=n).astype(np.float64)
        scores -= ntok[:, None] * m.log_denom[None, :]
        kd, kp = didx[known], pos_c[known]
        # gather ln(tf+1) columns and segment-sum per doc
        contrib = m.log_tf1[:, kp]                     # (C, nk)
        for c in range(len(m.classes)):
            scores[:, c] += np.bincount(kd, weights=contrib[c],
                                        minlength=n)
        best = np.argmax(scores, axis=1)  # argmax: first (class asc) wins
        return pa.table({
            "doc_id": pa.array(doc_ids, pa.int64()),
            "pred": pa.array([m.classes[b] for b in best], pa.string()),
        })


def classify_naive_bayes(doc_path: str, class_col: str = "lang",
                         max_doc_id: int | None = None) -> pa.Table:
    """Train on the full corpus, classify docs with
    ``doc_id < max_doc_id`` (None = all): (doc_id, pred) sorted."""
    model = train_naive_bayes(doc_path, class_col)
    ref = ray.put(model)
    ds = ray.data.read_parquet(doc_path, columns=["doc_id", "text"])
    if max_doc_id is not None:
        ds = ds.filter(expr=f"doc_id < {max_doc_id}")
    # autoscaling pool (1..4): a fixed pool can soak every CPU of a
    # small session and starve the upstream read tasks
    out = ds.map_batches(_NBClassify, fn_constructor_args=(ref,),
                         concurrency=(1, 4), batch_format="pyarrow",
                         batch_size=1024).to_arrow_refs()
    tbl = pa.concat_tables([ray.get(r) for r in out])
    order = np.argsort(tbl["doc_id"].to_numpy())
    return tbl.take(pa.array(order))


def classify_knn(doc_path: str, doc_ids: list[int], k: int = 25,
                 class_col: str = "lang") -> pa.Table:
    """KNearestNeighborClassifier: the doc's distinct terms as an OR
    query (exact64 BM25), self excluded, majority class among the
    top-k (ties: count desc, class asc). Returns (doc_id, pred)."""
    from collections import Counter

    import pyarrow.parquet as pq

    import hashlib
    import os

    from ..index import build_index
    from ..search import BooleanQuery, IndexReader, Searcher, TermQuery
    from .search_queries import _CACHE_ROOT

    key = hashlib.md5(f"knncls:{doc_path}:{class_col}".encode()) \
        .hexdigest()[:12]
    idx = os.path.join(_CACHE_ROOT, f"knnclsidx-{key}")
    if not os.path.exists(os.path.join(idx, "manifest_0.json")):
        build_index(doc_path, idx, batch_size=2048,
                    stored_cols=(class_col,))
    s = Searcher(IndexReader(idx), similarity="bm25_exact64")
    src = pq.read_table(doc_path, columns=["doc_id", "text"],
                        filters=[("doc_id", "in", list(doc_ids))])
    texts = dict(zip(src["doc_id"].to_pylist(), src["text"].to_pylist()))
    an = StandardAnalyzer()
    out_ids, out_pred = [], []
    for did in sorted(doc_ids):
        terms = sorted(set(an(texts[did])))
        if not terms:
            continue
        q = BooleanQuery(should=tuple(TermQuery(t) for t in terms))
        # k+1 then drop self (the reference removes the source doc)
        td = s.search(q, k=k + 1)
        keep = td.doc_ids[td.doc_ids != did][:k]
        langs = []
        for info in s.reader.segment_infos:
            sr = s.reader.segment(info.seg_id)
            inb = keep[(keep >= info.min_doc) & (keep <= info.max_doc)]
            langs.extend(v for v in sr.stored(inb, class_col)
                         if v is not None)
        cnt = Counter(langs)
        pred = sorted(cnt, key=lambda c: (-cnt[c], c))[0]
        out_ids.append(did)
        out_pred.append(pred)
    return pa.table({"doc_id": pa.array(out_ids, pa.int64()),
                     "pred": pa.array(out_pred, pa.string())})
