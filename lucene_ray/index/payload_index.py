"""Payload posting sidecar — the payload half of the reference postings
format (``codecs/lucene101/Lucene101PostingsFormat`` stores per-position
payload bytes when ``IndexOptions`` include payloads; consumed by
``queries/payloads/PayloadScoreQuery.java``).

Layout (one directory): ``part-*.parquet`` files of rows
``(term: string, doc_id: int64, payloads: list<float32>)`` — one row
per (term, doc) with that doc's payloads in occurrence order, each
file sorted by term so term lookups prune on parquet row-group
statistics (the main postings find rows through a term dictionary
instead, and carry no statistics). Build is a
single stateless map_batches pass (one output part per input batch,
embarrassingly parallel, no shuffle); at query time only the files/row
groups whose [min,max] term range covers the probe are read.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


class _PayloadIndexer:
    """Actor-pool stage: tokenize once per batch, split payload
    suffixes (DelimitedPayloadTokenFilter), group by (term, doc)."""

    def __init__(self, text_col: str, id_col: str, delimiter: str):
        self.text_col, self.id_col = text_col, id_col
        self.delimiter = delimiter

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..analysis.payloads import delimited_payloads
        texts = batch[self.text_col].to_pylist()
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        all_terms, all_docs, all_pay = [], [], []
        for did, text in zip(ids, texts):
            toks = [t for t in (text or "").split(" ") if t]
            terms, pays = delimited_payloads(toks, self.delimiter)
            for t, p in zip(terms, pays):
                all_terms.append(t)
                all_docs.append(did)
                all_pay.append(np.float32(p) if p is not None
                               else np.float32(0))
        if not all_terms:
            return pa.table({"term": pa.array([], pa.string()),
                             "doc_id": pa.array([], pa.int64()),
                             "payloads": pa.array([], pa.list_(
                                 pa.float32()))})
        terms = np.asarray(all_terms, dtype=object)
        docs = np.asarray(all_docs, dtype=np.int64)
        pays = np.asarray(all_pay, dtype=np.float32)
        # group occurrences by (term, doc) keeping occurrence order
        # (stable lexsort preserves within-group position order)
        order = np.lexsort((docs, terms.astype(str)))
        terms, docs, pays = terms[order], docs[order], pays[order]
        tstr = terms.astype(str)
        new = np.empty(len(tstr), dtype=bool)
        new[0] = True
        new[1:] = (tstr[1:] != tstr[:-1]) | (docs[1:] != docs[:-1])
        starts = np.nonzero(new)[0]
        ends = np.append(starts[1:], len(tstr))
        offsets = np.concatenate(([0], ends - starts)).cumsum()
        return pa.table({
            "term": pa.array(tstr[starts], pa.string()),
            "doc_id": pa.array(docs[starts], pa.int64()),
            "payloads": pa.ListArray.from_arrays(
                pa.array(offsets, pa.int32()), pa.array(pays)),
        })


def build_payload_index(doc_path: str, out_dir: str, *,
                        text_col: str = "text", id_col: str = "doc_id",
                        delimiter: str = "|",
                        batch_size: int = 4096) -> None:
    """One stateless map_batches pass over the corpus -> payload
    sidecar directory (per-batch parts, term-sorted within part)."""
    import ray.data

    (ray.data.read_parquet(doc_path, columns=[id_col, text_col])
     .map_batches(_PayloadIndexer(text_col, id_col, delimiter),
                  batch_size=batch_size, batch_format="pyarrow")
     .write_parquet(out_dir))


def payload_postings(index_dir: str, term: str):
    """(doc_ids, list-of-payload-arrays) for one term — reads only the
    row groups whose term [min,max] statistics cover the probe."""
    docs_parts, pay_parts = [], []
    for name in sorted(os.listdir(index_dir)):
        if not name.endswith(".parquet"):
            continue
        path = os.path.join(index_dir, name)
        f = pq.ParquetFile(path)
        rgs = []
        for i in range(f.metadata.num_row_groups):
            st = f.metadata.row_group(i).column(0).statistics
            # Parquet drops a string bound over 4,096 bytes (pyarrow
            # reports ''): an empty or missing bound never prunes
            lo, hi = (st.min, st.max) if st is not None and st.has_min_max \
                else ("", "")
            if (not lo or lo <= term) and (not hi or term <= hi):
                rgs.append(i)
        if not rgs:
            continue
        t = f.read_row_groups(rgs)
        mask = np.asarray(
            pa.compute.equal(t["term"], term).combine_chunks(),
            dtype=bool)
        if not mask.any():
            continue
        sel = t.filter(pa.array(mask))
        docs_parts.append(sel["doc_id"].to_numpy(zero_copy_only=False))
        pay_parts.extend(sel["payloads"].to_pylist())
    if not docs_parts:
        return np.empty(0, np.int64), []
    docs = np.concatenate(docs_parts)
    order = np.argsort(docs, kind="stable")
    return docs[order], [pay_parts[i] for i in order]
