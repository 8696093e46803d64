"""Multi-field documents: per-field indexes sharing global docIDs.

The reference keeps per-field postings/norms/stats inside one segment
(``index/FieldInfos.java``; per-field terms in the same .tim). The
Ray-Data-first layout builds one single-field index PER FIELD under
``<out>/fields/<name>/`` — same global docIDs throughout, so cross-
field boolean queries combine on docID with exact per-field BM25 stats
(per-field avgdl/idf/norms fall out for free). Each field can carry its
own analyzer (body: StandardAnalyzer, url/lang: KeywordAnalyzer).

One pass builds every field: each batch of the corpus is read once and
flushes one segment per field, and each field commits through
``build_index``'s code (the same read plan, task stage, append rules
and commit).
"""

from __future__ import annotations

import json
import os

from .builder import SegmentIndexer, _next_generation, _segment_rows, commit
from .manifest import IndexManifest


class MultiFieldIndexer:
    """Each batch flushes one segment PER FIELD (the reference indexes
    all of a document's fields in one DWPT pass —
    ``index/IndexingChain.java``). Wraps one SegmentIndexer per field;
    metadata rows come back tagged with their field."""

    def __init__(self, out_dir: str, fields: dict, id_col: str,
                 stored_cols: tuple, stop_words: frozenset,
                 index_positions: bool, fields_formats: dict | None = None):
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
    fields_formats: dict | None = None,
) -> dict[str, IndexManifest]:
    """Build (or append to) one index per field, reading the corpus
    ONCE (N fields != N input scans). ``fields`` order matters: the
    FIRST field is the default search field. Every field's next
    generation passes ``build_index``'s append checks before any field
    commits."""
    os.makedirs(out_dir, exist_ok=True)
    rows = _segment_rows(
        source, [id_col, *fields, *stored_cols], batch_size, None,
        indexer=MultiFieldIndexer, out_dir=out_dir, fields=fields,
        id_col=id_col, stored_cols=stored_cols, stop_words=stop_words,
        index_positions=index_positions, fields_formats=fields_formats)
    fdirs = {f: os.path.join(out_dir, "fields", f) for f in fields}
    manifests = {f: _next_generation(
        fdirs[f], [r for r in rows if r["field"] == f], field=f,
        stop_words=stop_words, mode=mode) for f in fields}
    for f, m in manifests.items():
        commit(fdirs[f], m)
    meta = {"fields": list(fields.keys()), "default_field": next(iter(fields))}
    with open(os.path.join(out_dir, "multi_field.json"), "w") as fh:
        json.dump(meta, fh)
    return manifests


def read_multi_field_meta(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "multi_field.json")) as fh:
        return json.load(fh)
