"""Analyzer-chain driver queries: EdgeNGram search-as-you-type,
path-hierarchy facet counts, MinHash signature emission — the three
chain-pluggable pieces exercised END TO END over the documents table,
each with a DuckDB-expressible oracle.

Scale notes: edge-gram counting runs the filter once per UNIQUE token
of a batch (dictionary_encode) and scatters counts back vectorized;
path prefixes tokenize once per unique (source, lang) path; the
MinHash signature is inherently a per-document fold over its whole
shingle stream, so that stage is a per-row actor loop by design (the
web-scale dedup role lives in pipelines/dedup.py as vectorized
minhash — this query gates the CHAIN form's semantics).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..analysis.minhash import MinHashFilter
from ..analysis.pathtok import PathHierarchyTokenizer
from ..analysis.stemmer import EdgeNGramFilter, ShingleFilter
from ..util import stage_pool


def _split_ws(col: pa.ChunkedArray):
    """flat non-empty space-split tokens + per-row doc index."""
    la = pc.split_pattern(pc.coalesce(col, ""), " ").combine_chunks()
    offs = la.offsets.to_numpy()
    flat = la.values
    doc_of = np.repeat(np.arange(len(la)), np.diff(offs))
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    return flat.filter(pa.array(keep)), doc_of[keep]


def edge_ngram_prefix_counts(path: str, prefix: str = "dat",
                             min_gram: int = 3,
                             max_gram: int = 3) -> ray.data.Dataset:
    """(doc_id, n): per document, how many of its tokens emit the edge
    n-gram ``prefix`` through EdgeNGramFilter(min_gram..max_gram) —
    the search-as-you-type match count. Docs with n=0 are omitted."""
    f = EdgeNGramFilter(min_gram, max_gram)

    def counts(batch: pa.Table) -> pa.Table:
        flat, doc_of = _split_ws(batch["text"])
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        if len(flat) == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        enc = pc.dictionary_encode(flat)
        codes = enc.indices.to_numpy(zero_copy_only=False)
        # run the REAL filter once per unique token; a token matches if
        # any of its edge grams equals the prefix
        hits = np.array([int(prefix in f([u]))
                         for u in enc.dictionary.to_pylist()], np.int64)
        per_doc = np.bincount(doc_of, weights=hits[codes],
                              minlength=len(batch)).astype(np.int64)
        nz = per_doc > 0
        return pa.table({"doc_id": pa.array(ids[nz], pa.int64()),
                         "n": pa.array(per_doc[nz], pa.int64())})

    return ray.data.read_parquet(path, columns=["doc_id", "text"]) \
        .map_batches(counts, batch_format="pyarrow")


def path_hierarchy_counts(path: str, cols=("source", "lang"),
                          delimiter: str = "/") -> ray.data.Dataset:
    """(path, n): document counts per hierarchical path prefix, where
    each doc's path is its facet columns joined by the delimiter and
    prefixes come from PathHierarchyTokenizer (taxonomy-facet role)."""
    tok = PathHierarchyTokenizer(delimiter=delimiter)

    def partials(batch: pa.Table) -> pa.Table:
        joined = pc.binary_join_element_wise(
            *[pc.cast(batch[c], pa.string()) for c in cols], delimiter)
        enc = pc.dictionary_encode(joined.combine_chunks())
        codes = enc.indices.to_numpy(zero_copy_only=False)
        per_code = np.bincount(codes, minlength=len(enc.dictionary))
        out_p, out_n = [], []
        for ci, p in enumerate(enc.dictionary.to_pylist()):
            for pref in tok(p):
                out_p.append(pref)
                out_n.append(int(per_code[ci]))
        return pa.table({"path": pa.array(out_p, pa.string()),
                         "n": pa.array(out_n, pa.int64())})

    agg = (ray.data.read_parquet(path, columns=list(cols))
           .map_batches(partials, batch_format="pyarrow")
           .groupby("path").sum("n"))
    return agg.map_batches(
        lambda t: pa.table({"path": t.column("path"),
                            "n": t.column("sum(n)")}),
        batch_format="pyarrow")


class _MinHashSigCount:
    """Per-doc signature token count through the full chain
    (whitespace split -> 5-word shingles -> MinHashFilter(1, 512, 1,
    rotation)). With hash_set_size=1 and rotation, every doc with at
    least one shingle fills all 512 buckets — the SQL oracle checks
    exactly that invariant; hash VALUES are gated by the transcribed
    murmur3 goldens in tests/test_edge_minhash_path.py."""

    def __init__(self, shingle: int = 5, bucket_count: int = 512):
        self.sh = ShingleFilter(shingle, shingle, " ",
                                output_unigrams=False)
        self.mh = MinHashFilter(1, bucket_count, 1, True, encoding="hex")

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        ns = np.empty(len(batch), np.int64)
        for i, text in enumerate(batch["text"].to_pylist()):
            toks = [x for x in (text or "").split(" ") if x]
            ns[i] = len(self.mh(self.sh(toks)))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "n_sig": pa.array(ns, pa.int64())})


def minhash_sig_counts(path: str) -> ray.data.Dataset:
    return ray.data.read_parquet(path, columns=["doc_id", "text"]) \
        .map_batches(_MinHashSigCount, batch_format="pyarrow",
                     concurrency=stage_pool())
