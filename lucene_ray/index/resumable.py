"""Checkpoint-resumable index build with per-shard lineage.

The streaming ``build_index`` is fast but its batch boundaries are an
execution detail; this variant plans deterministic *shards* (file +
row-range, from parquet footer metadata only) up front, so an
interrupted build can skip every finished shard on re-run (FIXTURES.md
F5; the reference's ``segments_N`` + ``IndexFileDeleter`` ref-count
recovery, ``SegmentInfos.java:55-64``).

Each shard -> one segment directory named by the shard's lineage hash,
committed with a ``_COMPLETE`` marker written after both tables; a
re-run rebuilds only shards whose marker is missing. At 10^12-doc scale
shards are parquet row groups; lineage records (path, row range) so an
input file that changed invalidates exactly its shards.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from ..util import default_concurrency
from .builder import SegmentIndexer, _parquet_files
from .manifest import IndexManifest, SegmentInfo, latest_generation, write_manifest


@dataclass
class ShardSpec:
    path: str
    row_start: int
    row_end: int

    @property
    def lineage(self) -> str:
        key = f"{os.path.basename(self.path)}:{self.row_start}:{self.row_end}"
        return hashlib.sha1(key.encode()).hexdigest()[:16]


def plan_shards(files: list[str], rows_per_shard: int) -> list[ShardSpec]:
    shards = []
    for f in files:
        n = pq.read_metadata(f).num_rows
        for start in range(0, n, rows_per_shard):
            shards.append(ShardSpec(f, start, min(start + rows_per_shard, n)))
    return shards


class ShardIndexer(SegmentIndexer):
    """Reads its own shard (file + row range) and flushes one segment
    under a lineage-derived directory with a completion marker."""

    def __call__(self, batch: pa.Table) -> pa.Table:  # batch of shard specs
        metas = []
        for spec in batch.to_pylist():
            shard = ShardSpec(spec["path"], spec["row_start"], spec["row_end"])
            cols = list(dict.fromkeys(
                [self.id_col, self.text_col, *self.stored_cols]))
            t = pq.read_table(shard.path, columns=cols)
            t = t.slice(shard.row_start, shard.row_end - shard.row_start)
            self._seg_override = f"shard-{shard.lineage}"
            meta = SegmentIndexer.__call__(self, t)
            meta = meta.set_column(
                meta.schema.get_field_index("lineage"), "lineage",
                pa.array([shard.lineage], pa.string()))
            seg_dir = os.path.join(self.out_dir, "segments",
                                   meta.column("seg_id")[0].as_py())
            with open(os.path.join(seg_dir, "lineage.json"), "w") as fh:
                json.dump({"lineage": shard.lineage, "path": shard.path,
                           "row_start": shard.row_start,
                           "row_end": shard.row_end,
                           **{k: meta.column(k)[0].as_py()
                              for k in ("num_docs", "min_doc", "max_doc",
                                        "sum_doc_len", "num_terms",
                                        "field_doc_count")}}, fh)
            open(os.path.join(seg_dir, "_COMPLETE"), "w").close()
            metas.append(meta)
        return pa.concat_tables(metas)


def build_index_resumable(
    source,
    out_dir: str,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    stored_cols: tuple = (),
    stop_words: frozenset = frozenset(),
    rows_per_shard: int = 4096,
    concurrency=None,
    fail_after_shards: int | None = None,  # test hook (F5 fault injection)
) -> IndexManifest:
    files = _parquet_files(source)
    shards = plan_shards(files, rows_per_shard)

    # scan completed segments from a previous (interrupted) run
    seg_root = os.path.join(out_dir, "segments")
    done: dict[str, SegmentInfo] = {}
    if os.path.isdir(seg_root):
        for name in os.listdir(seg_root):
            seg_dir = os.path.join(seg_root, name)
            if not os.path.exists(os.path.join(seg_dir, "_COMPLETE")):
                continue
            try:
                with open(os.path.join(seg_dir, "lineage.json")) as fh:
                    rec = json.load(fh)
            except (OSError, json.JSONDecodeError):
                continue
            done[rec["lineage"]] = SegmentInfo(
                seg_id=name, num_docs=rec["num_docs"], min_doc=rec["min_doc"],
                max_doc=rec["max_doc"], sum_doc_len=rec["sum_doc_len"],
                num_terms=rec["num_terms"], lineage=rec["lineage"],
                field_doc_count=rec["field_doc_count"])

    todo = [s for s in shards if s.lineage not in done]
    if fail_after_shards is not None:
        todo = todo[:fail_after_shards]

    segments = list(done.values())
    if todo:
        if concurrency is None:
            concurrency = default_concurrency()
        ds = ray.data.from_items([{
            "path": s.path, "row_start": s.row_start, "row_end": s.row_end}
            for s in todo])
        meta = ds.map_batches(
            ShardIndexer,
            fn_constructor_kwargs=dict(
                out_dir=out_dir, text_col=text_col, id_col=id_col,
                stored_cols=stored_cols, stop_words=stop_words),
            batch_format="pyarrow", batch_size=1, concurrency=concurrency)
        for r in meta.take_all():
            segments.append(SegmentInfo(
                seg_id=r["seg_id"], num_docs=int(r["num_docs"]),
                min_doc=int(r["min_doc"]), max_doc=int(r["max_doc"]),
                sum_doc_len=int(r["sum_doc_len"]),
                num_terms=int(r["num_terms"]), lineage=r["lineage"],
                field_doc_count=int(r["field_doc_count"])))

    segments.sort(key=lambda s: s.min_doc)
    manifest = IndexManifest(
        generation=latest_generation(out_dir) + 1,
        num_docs=sum(s.num_docs for s in segments),
        sum_doc_len=sum(s.sum_doc_len for s in segments),
        field=text_col,
        stop_words=sorted(stop_words),
        segments=segments,
        field_doc_count=sum(s.field_doc_count for s in segments),
    )
    complete = len(segments) == len(shards)
    if complete or fail_after_shards is None:
        from .builder import compute_global_term_stats
        compute_global_term_stats(out_dir, manifest)
        write_manifest(out_dir, manifest)
    return manifest
