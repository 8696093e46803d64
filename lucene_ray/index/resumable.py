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

from .builder import (
    SegmentIndexer,
    _index_segment,
    _next_generation,
    _parquet_files,
    commit,
)
from .manifest import IndexManifest


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
            row = meta.to_pylist()[0]
            seg_dir = os.path.join(self.out_dir, "segments", row["seg_id"])
            with open(os.path.join(seg_dir, "lineage.json"), "w") as fh:
                json.dump({**row, "path": shard.path,
                           "row_start": shard.row_start,
                           "row_end": shard.row_end}, fh)
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

    # completed segments of a previous (interrupted) run of this shard
    # plan: their lineage.json holds the segment's metadata row. A shard
    # planned with another rows_per_shard covers other rows
    planned = {s.lineage for s in shards}
    seg_root = os.path.join(out_dir, "segments")
    done: dict[str, dict] = {}
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
            if rec["lineage"] in planned:
                done[rec["lineage"]] = rec

    todo = [s for s in shards if s.lineage not in done]
    if fail_after_shards is not None:
        todo = todo[:fail_after_shards]

    rows = list(done.values())
    if todo:
        ds = ray.data.from_items([{
            "path": s.path, "row_start": s.row_start, "row_end": s.row_end}
            for s in todo])
        rows += ds.map_batches(
            _index_segment,
            fn_kwargs=dict(
                indexer=ShardIndexer, out_dir=out_dir, text_col=text_col,
                id_col=id_col, stored_cols=stored_cols,
                stop_words=stop_words),
            batch_format="pyarrow", batch_size=1,
            concurrency=concurrency).take_all()

    manifest = _next_generation(out_dir, rows, field=text_col,
                                stop_words=stop_words, mode="create")
    if len(rows) == len(shards) or fail_after_shards is None:
        commit(out_dir, manifest)
    return manifest
