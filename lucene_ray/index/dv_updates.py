"""Numeric doc-values updates — in-place value overlays without
reindexing (``index/IndexWriter.java`` ``updateNumericDocValue``;
format role ``codecs/lucene90/Lucene90DocValuesFormat`` update
generations; tests ``index/TestNumericDocValuesUpdates.java``).

An update never rewrites segment data: a generation-stamped
``dv_updates_gen<G>.parquet`` of (doc_id, col, value int64) rows sits
next to each affected segment, and readers overlay it on every path
that serves the column (stored-field reads, numeric ranges,
sort-by-value). Merges FOLD overlays into the merged docs table (the
reference applies pending DV updates on merge too), after which the
merged segment carries none.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .builder import commit
from .manifest import IndexManifest, read_manifest


def update_numeric_dv(index_dir: str, col: str,
                      updates: dict[int, int]) -> IndexManifest:
    """Set ``col`` to a new int64 value for each docID in ``updates``.
    Later updates to the same doc win (the overlay file is rewritten
    merged). Two-phase manifest commit, like deletes."""
    m = read_manifest(index_dir)
    gen = m.generation + 1
    ud = np.array(sorted(updates), dtype=np.int64)
    uv = np.array([int(updates[int(d)]) for d in ud], dtype=np.int64)
    new_segs = []
    touched = False
    for s in m.segments:
        mask = (ud >= s.min_doc) & (ud <= s.max_doc)
        if not mask.any():
            new_segs.append(s)
            continue
        rows = {"doc_id": ud[mask], "col": [col] * int(mask.sum()),
                "value": uv[mask]}
        old_gen = s.dvu_gen
        if old_gen >= 0:
            old = pq.read_table(os.path.join(
                index_dir, "segments", s.seg_id,
                f"dv_updates_gen{old_gen}.parquet"))
            # keep old rows not superseded by a new (doc, col) pair
            okey = list(zip(old.column("doc_id").to_pylist(),
                            old.column("col").to_pylist()))
            nkey = set(zip(rows["doc_id"].tolist(), rows["col"]))
            keep = [i for i, k in enumerate(okey) if k not in nkey]
            rows = {
                "doc_id": np.concatenate(
                    [old.column("doc_id").to_numpy()[keep],
                     rows["doc_id"]]),
                "col": ([old.column("col").to_pylist()[i]
                         for i in keep] + list(rows["col"])),
                "value": np.concatenate(
                    [old.column("value").to_numpy()[keep],
                     rows["value"]]),
            }
        t = pa.table({"doc_id": pa.array(rows["doc_id"], pa.int64()),
                      "col": pa.array(rows["col"], pa.string()),
                      "value": pa.array(rows["value"], pa.int64())})
        pq.write_table(t.sort_by([("col", "ascending"),
                                  ("doc_id", "ascending")]),
                       os.path.join(index_dir, "segments", s.seg_id,
                                    f"dv_updates_gen{gen}.parquet"))
        new_segs.append(replace(s, dvu_gen=gen))
        touched = True
    if not touched:
        return m
    return commit(index_dir, replace(m, generation=gen, segments=new_segs),
                  stats_of=m.generation)
