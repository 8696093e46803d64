"""Multi-dimensional point index — the BKD-tree role
(``lucene/core/src/java/org/apache/lucene/util/bkd/BKDWriter.java``,
queried via ``search/PointRangeQuery.java``; tests
``TestPointQueries.java``, ``TestBKD.java``).

Ray-native shape: per segment (one input batch), points are recursively
median-split on the widest dimension into <= ``leaf_size`` leaves (the
BKD packed-leaf construction), and each LEAF becomes one Parquet row
carrying its cell bounds (min/max per dim) plus its packed ids and
coordinates. A box query reads the leaf table with the cell-bound
predicate pushed into the Parquet scan — row groups whose cells can't
intersect the box are never materialized (the BKD intersect
recursion, expressed as predicate pushdown) — then applies the exact
vectorized mask inside surviving leaves. CRUCIALLY nothing global is
built: segments are independent, the scan streams, and results merge by
concatenation (ids are globally unique).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from ..util import stage_pool

LEAF_SIZE = 512  # BKDConfig.DEFAULT_MAX_POINTS_IN_LEAF_NODE


def _build_leaves(ids: np.ndarray, coords: np.ndarray,
                  leaf_size: int) -> list[tuple]:
    """Recursive widest-dimension median split -> list of
    (ids, coords) leaves (BKDWriter.build's split recursion)."""
    out = []
    stack = [(ids, coords)]
    while stack:
        cid, cc = stack.pop()
        if len(cid) <= leaf_size:
            out.append((cid, cc))
            continue
        spans = cc.max(axis=0) - cc.min(axis=0)
        dim = int(np.argmax(spans))
        order = np.argsort(cc[:, dim], kind="stable")
        mid = len(cid) // 2
        lo, hi = order[:mid], order[mid:]
        stack.append((cid[lo], cc[lo]))
        stack.append((cid[hi], cc[hi]))
    return out


class PointSegmentWriter:
    """map_batches stage: one batch -> one point segment file."""

    def __init__(self, out_dir: str, dims: tuple, id_col: str,
                 leaf_size: int = LEAF_SIZE):
        self.out_dir = out_dir
        self.dims = tuple(dims)
        self.id_col = id_col
        self.leaf_size = leaf_size

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_numpy().astype(np.int64)
        cols = []
        for d in self.dims:
            c = batch[d]
            if pa.types.is_timestamp(c.type):
                c = c.cast(pa.int64())
            cols.append(c.to_numpy(zero_copy_only=False)
                        .astype(np.float64))
        coords = np.stack(cols, axis=1)
        leaves = _build_leaves(ids, coords, self.leaf_size)
        seg = f"points-{int(ids.min()):012d}-{len(ids)}"
        path = os.path.join(self.out_dir, f"{seg}.parquet")
        if not os.path.exists(path):
            # tmp + rename: a crash mid-write must not leave a file the
            # resume check would skip (atomic on POSIX)
            data = {
                "ids": pa.array([lv[0].tolist() for lv in leaves],
                                pa.list_(pa.int64())),
            }
            for j, d in enumerate(self.dims):
                data[f"min_{j}"] = pa.array(
                    [float(lv[1][:, j].min()) for lv in leaves])
                data[f"max_{j}"] = pa.array(
                    [float(lv[1][:, j].max()) for lv in leaves])
                data[f"coord_{j}"] = pa.array(
                    [lv[1][:, j].tolist() for lv in leaves],
                    pa.list_(pa.float64()))
            tmp = path + f".tmp-{os.getpid()}"
            pq.write_table(pa.table(data), tmp, row_group_size=64)
            os.replace(tmp, path)
        return pa.table({"segment": pa.array([seg]),
                         "n": pa.array([len(ids)], pa.int64())})


def build_point_index(source, out_dir: str, *, dims: tuple,
                      id_col: str, batch_size: int = 65536,
                      leaf_size: int = LEAF_SIZE) -> dict:
    """Streaming build over a parquet path / Dataset."""
    os.makedirs(out_dir, exist_ok=True)
    cols = [id_col, *dims]
    ds = source if isinstance(source, ray.data.Dataset) else \
        ray.data.read_parquet(source, columns=cols)
    metas = ds.map_batches(
        PointSegmentWriter, batch_format="pyarrow",
        batch_size=batch_size, concurrency=stage_pool(),
        fn_constructor_kwargs={"out_dir": out_dir, "dims": dims,
                               "id_col": id_col,
                               "leaf_size": leaf_size}).take_all()
    meta = {"dims": list(dims), "id_col": id_col,
            "n_points": int(sum(r["n"] for r in metas)),
            "segments": sorted({r["segment"] for r in metas})}
    with open(os.path.join(out_dir, "meta.json"), "w") as f:
        json.dump(meta, f)
    return meta


def point_box_docs(out_dir: str, box: list[tuple],
                   return_coords: bool = False):
    """All ids inside the axis-aligned box (inclusive bounds) —
    PointRangeQuery. ``box``: one (lo, hi) per dim; None = unbounded.
    The leaf-cell predicate is pushed into the Parquet scan.
    ``return_coords=True`` additionally returns the (n, ndim) float64
    coordinates of the surviving points (for exact refinement stages,
    e.g. the geo distance query)."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    with open(os.path.join(out_dir, "meta.json")) as f:
        meta = json.load(f)
    nd = len(meta["dims"])
    assert len(box) == nd
    filt = None
    for j, (lo, hi) in enumerate(box):
        for expr in ([pc.field(f"max_{j}") >= float(lo)]
                     if lo is not None else []) + \
                ([pc.field(f"min_{j}") <= float(hi)]
                 if hi is not None else []):
            filt = expr if filt is None else filt & expr
    files = [os.path.join(out_dir, f"{s}.parquet")
             for s in meta["segments"]]
    dset = pads.dataset(files)
    cols = ["ids"] + [f"coord_{j}" for j in range(nd)]
    t = dset.to_table(columns=cols, filter=filt)
    if len(t) == 0:
        empty = np.empty(0, np.int64)
        return (empty, np.empty((0, nd))) if return_coords else empty
    # vectorized across ALL surviving leaves: flatten, mask, gather
    flat_ids = t.column("ids").combine_chunks().flatten().to_numpy()
    mask = np.ones(len(flat_ids), dtype=bool)
    coords = []
    for j, (lo, hi) in enumerate(box):
        cj = t.column(f"coord_{j}").combine_chunks().flatten().to_numpy()
        coords.append(cj)
        if lo is not None:
            mask &= cj >= float(lo)
        if hi is not None:
            mask &= cj <= float(hi)
    order = np.argsort(flat_ids[mask], kind="stable")
    ids = flat_ids[mask][order]
    if return_coords:
        return ids, np.stack([c[mask][order] for c in coords], axis=1)
    return ids
