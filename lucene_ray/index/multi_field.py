"""Multi-field documents: per-field indexes sharing global docIDs.

The reference keeps per-field postings/norms/stats inside one segment
(``index/FieldInfos.java``; per-field terms in the same .tim). The
Ray-Data-first layout builds one single-field index PER FIELD under
``<out>/fields/<name>/`` — same global docIDs throughout, so cross-
field boolean queries combine on docID with exact per-field BM25 stats
(per-field avgdl/idf/norms fall out for free). Each field can carry its
own analyzer (body: StandardAnalyzer, url/lang: KeywordAnalyzer).

Field builds are sequential Ray jobs over column-pruned reads; at scale
each is the same streaming build pipeline, and a field only reads its
own column.
"""

from __future__ import annotations

import json
import os

from .builder import build_index
from .manifest import IndexManifest


class MultiFieldIndexer:
    """One-pass stage: each batch flushes one segment PER FIELD (the
    reference indexes all of a document's fields in one DWPT pass —
    ``index/IndexingChain.java``). Wraps one SegmentIndexer per field;
    metadata rows come back tagged with their field."""

    def __init__(self, out_dir: str, fields: dict, id_col: str,
                 stored_cols: tuple, stop_words: frozenset,
                 index_positions: bool, fields_formats: dict | None = None):
        from .builder import SegmentIndexer
        fmts = fields_formats or {}
        # per-field postings format: PerFieldPostingsFormat.java:65,228
        self.indexers = {
            f: SegmentIndexer(
                out_dir=os.path.join(out_dir, "fields", f), text_col=f,
                id_col=id_col, stored_cols=stored_cols,
                stop_words=stop_words, index_positions=index_positions,
                analyzer=analyzer,
                postings_format=fmts.get(f, "for128"))
            for f, analyzer in fields.items()}

    def __call__(self, batch):
        import pyarrow as pa
        parts = []
        for f, idx in self.indexers.items():
            m = idx(batch)
            parts.append(m.append_column(
                "field", pa.array([f] * len(m), pa.string())))
        return pa.concat_tables(parts)


def build_multi_field_index(
    source,
    out_dir: str,
    fields: dict,  # field name -> analyzer (None = StandardAnalyzer)
    *,
    id_col: str = "doc_id",
    stored_cols: tuple = (),
    stop_words: frozenset = frozenset(),
    batch_size: int = 4096,
    index_positions: bool = False,
    mode: str = "create_or_append",
    one_pass: bool = True,
    fields_formats: dict | None = None,
) -> dict[str, IndexManifest]:
    """Build (or append to) one index per field. ``fields`` order
    matters: the FIRST field is the default search field.

    ``one_pass=True`` (default) reads the corpus ONCE and flushes every
    field's segment from the same batch (N fields != N input scans);
    ``one_pass=False`` runs N independent column-pruned builds."""
    os.makedirs(out_dir, exist_ok=True)
    manifests: dict[str, IndexManifest] = {}
    if not one_pass:
        for f, analyzer in fields.items():
            fdir = os.path.join(out_dir, "fields", f)
            manifests[f] = build_index(
                source, fdir, text_col=f, id_col=id_col,
                stored_cols=stored_cols, stop_words=stop_words,
                batch_size=batch_size, index_positions=index_positions,
                analyzer=analyzer, mode=mode,
                postings_format=(fields_formats or {}).get(f, "for128"))
    else:
        import pyarrow.parquet as pq

        import ray
        import ray.data

        from ..util import default_concurrency
        from .builder import (
            _parquet_files,
            compute_global_term_stats,
        )
        from .manifest import (
            SegmentInfo,
            latest_generation,
            read_manifest,
            write_manifest,
        )
        cols = list(dict.fromkeys(
            [id_col, *fields.keys(), *stored_cols]))
        batch_kwargs: dict = {"batch_size": batch_size}
        if isinstance(source, (str, os.PathLike)) or (
                isinstance(source, (list, tuple)) and source
                and isinstance(source[0], str)):
            files = _parquet_files(source)
            total_rows = sum(pq.read_metadata(p).num_rows for p in files)
            nblocks = max(1, -(-total_rows // batch_size))
            ds = ray.data.read_parquet(files, columns=cols,
                                       override_num_blocks=nblocks)
            batch_kwargs = {"batch_size": None}
        else:
            ds = source
        meta_ds = ds.map_batches(
            MultiFieldIndexer,
            fn_constructor_kwargs=dict(
                out_dir=out_dir, fields=fields, id_col=id_col,
                stored_cols=stored_cols, stop_words=stop_words,
                index_positions=index_positions,
                fields_formats=fields_formats),
            batch_format="pyarrow", concurrency=default_concurrency(),
            zero_copy_batch=True, **batch_kwargs)
        rows = meta_ds.take_all()
        for f in fields:
            frows = [r for r in rows if r["field"] == f]
            segments = sorted((SegmentInfo(
                seg_id=r["seg_id"], num_docs=int(r["num_docs"]),
                min_doc=int(r["min_doc"]), max_doc=int(r["max_doc"]),
                sum_doc_len=int(r["sum_doc_len"]),
                num_terms=int(r["num_terms"]), lineage=r["lineage"],
                field_doc_count=int(r["field_doc_count"]))
                for r in frows), key=lambda s: s.min_doc)
            fdir = os.path.join(out_dir, "fields", f)
            prev_gen = latest_generation(fdir)
            if mode == "create_or_append" and prev_gen >= 0:
                prev = read_manifest(fdir, prev_gen)
                segments = sorted(prev.segments + segments,
                                  key=lambda s: s.min_doc)
            manifest = IndexManifest(
                generation=prev_gen + 1,
                num_docs=sum(s.num_docs for s in segments),
                sum_doc_len=sum(s.sum_doc_len for s in segments),
                field=f, stop_words=sorted(stop_words),
                segments=segments,
                field_doc_count=sum(s.field_doc_count for s in segments))
            compute_global_term_stats(fdir, manifest)
            write_manifest(fdir, manifest)
            manifests[f] = manifest
    meta = {"fields": list(fields.keys()), "default_field": next(iter(fields))}
    with open(os.path.join(out_dir, "multi_field.json"), "w") as fh:
        json.dump(meta, fh)
    return manifests


def read_multi_field_meta(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "multi_field.json")) as fh:
        return json.load(fh)
