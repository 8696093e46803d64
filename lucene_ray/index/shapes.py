"""Indexed shapes — the ``LatLonShape`` role.

Reference semantics: ``lucene/core/src/java/org/apache/lucene/document/
LatLonShape.java:79`` — polygons are TESSELLATED into triangles
(``Tessellator.java``'s ear clipping), each triangle is indexed with
its bounding box in the BKD tree, and queries prune by box then run the
exact geometric predicate.

Ray-first shape:
- BUILD: a ``map_batches`` stage tessellates each document's polygon
  (vertex list column) and emits one row per triangle
  ``(doc_id, ax..cy, minx..maxy)``; triangles are written sorted by
  ``minx`` with small row groups so parquet min/max statistics act as
  the BKD inner nodes (the same trick the points index uses). The
  original vertex rings ride along in a stored sidecar for the exact
  verification step.
- QUERY: ``shapes_containing_point`` / ``shapes_intersecting_box``
  read ONLY the row groups whose bbox stats can match (parquet filter
  pushdown), test candidate triangles vectorized, then confirm
  candidates with the exact polygon predicate (crossing-number, the
  same arithmetic the SQL oracle runs — candidates-then-exact is also
  how LatLonShapeQuery works).

Scale: tessellation is per-doc in actor batches; the triangle table
partitions/shards like any posting payload; queries touch O(matching
row groups) bytes.
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


# --- geometry --------------------------------------------------------------

def _signed_area2(xs: np.ndarray, ys: np.ndarray) -> float:
    return float(np.sum(xs * np.roll(ys, -1) - np.roll(xs, -1) * ys))


def _cross(ox, oy, ax, ay, bx, by) -> float:
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def tessellate(vertices) -> list[tuple]:
    """Ear-clipping triangulation of a simple polygon (Tessellator.java
    role; handles concave rings). ``vertices``: [(x, y), ...] open ring
    (no repeated last point). Returns [(ax,ay,bx,by,cx,cy), ...] with
    len == n-2."""
    pts = [(float(x), float(y)) for x, y in vertices]
    n = len(pts)
    if n < 3:
        raise ValueError("polygon needs >= 3 vertices")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    if _signed_area2(xs, ys) < 0:  # normalize to CCW
        pts.reverse()
    idx = list(range(len(pts)))
    tris: list[tuple] = []
    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 10 * n * n:
            raise ValueError("tessellation failed (self-intersecting?)")
        clipped = False
        for k in range(len(idx)):
            i0, i1, i2 = (idx[k - 1], idx[k], idx[(k + 1) % len(idx)])
            ox, oy = pts[i0]
            ax, ay = pts[i1]
            bx, by = pts[i2]
            if _cross(ox, oy, ax, ay, bx, by) <= 0:
                continue  # reflex vertex, not an ear
            # no other active vertex strictly inside the candidate ear
            ok = True
            for j in idx:
                if j in (i0, i1, i2):
                    continue
                px, py = pts[j]
                if (_cross(ox, oy, ax, ay, px, py) > 0
                        and _cross(ax, ay, bx, by, px, py) > 0
                        and _cross(bx, by, ox, oy, px, py) > 0):
                    ok = False
                    break
            if not ok:
                continue
            tris.append((ox, oy, ax, ay, bx, by))
            idx.pop(k)
            clipped = True
            break
        if not clipped:
            # degenerate (collinear runs): drop a collinear vertex
            for k in range(len(idx)):
                i0, i1, i2 = (idx[k - 1], idx[k], idx[(k + 1) % len(idx)])
                if _cross(*pts[i0], *pts[i1], *pts[i2]) == 0:
                    idx.pop(k)
                    clipped = True
                    break
            if not clipped:
                raise ValueError("tessellation failed")
    i0, i1, i2 = idx
    tris.append((*pts[i0], *pts[i1], *pts[i2]))
    return tris


def point_in_polygon(px: float, py: float, vertices) -> bool:
    """Crossing-number test, written with the exact float expression
    the SQL oracle uses (``px < (x2-x1)*(py-y1)/(y2-y1)+x1``) so both
    engines make bit-identical boundary decisions."""
    inside = False
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        if (y1 > py) != (y2 > py):
            if px < (x2 - x1) * (py - y1) / (y2 - y1) + x1:
                inside = not inside
    return inside


def _points_in_tris(px, py, t: pa.Table) -> np.ndarray:
    """bool per triangle row: (px, py) inside (inclusive edges)."""
    ax = t.column("ax").to_numpy()
    ay = t.column("ay").to_numpy()
    bx = t.column("bx").to_numpy()
    by = t.column("by").to_numpy()
    cx = t.column("cx").to_numpy()
    cy = t.column("cy").to_numpy()
    d1 = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    d2 = (cx - bx) * (py - by) - (cy - by) * (px - bx)
    d3 = (ax - cx) * (py - cy) - (ay - cy) * (px - cx)
    return ((d1 >= 0) & (d2 >= 0) & (d3 >= 0)) | \
        ((d1 <= 0) & (d2 <= 0) & (d3 <= 0))


# --- build -----------------------------------------------------------------

class _Tessellate:
    """(doc_id, vertex list) batches -> triangle rows."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        rings = batch.column("vertices").to_pylist()
        out = {k: [] for k in ("doc_id", "ax", "ay", "bx", "by",
                               "cx", "cy", "minx", "maxx", "miny",
                               "maxy")}
        for i, ring in zip(ids, rings):
            for (ax, ay, bx, by, cx, cy) in tessellate(ring):
                out["doc_id"].append(i)
                out["ax"].append(ax)
                out["ay"].append(ay)
                out["bx"].append(bx)
                out["by"].append(by)
                out["cx"].append(cx)
                out["cy"].append(cy)
                out["minx"].append(min(ax, bx, cx))
                out["maxx"].append(max(ax, bx, cx))
                out["miny"].append(min(ay, by, cy))
                out["maxy"].append(max(ay, by, cy))
        return pa.table({
            "doc_id": pa.array(out["doc_id"], pa.int64()),
            **{k: pa.array(out[k], pa.float64())
               for k in ("ax", "ay", "bx", "by", "cx", "cy",
                         "minx", "maxx", "miny", "maxy")},
        })


def build_shape_index(source, out_dir: str, *,
                      batch_size: int = 4096,
                      concurrency=None) -> dict:
    """``source``: parquet path or Dataset with (doc_id:int64,
    vertices:list<list<float [x, y]>>). Writes ``tris.parquet`` sorted
    by minx (row-group stats = BKD inner nodes), ``rings.parquet``
    (stored exact rings), ``meta.json``."""
    ds = source if isinstance(source, ray.data.Dataset) \
        else ray.data.read_parquet(source)
    os.makedirs(out_dir, exist_ok=True)
    # streaming: tessellate -> range-partition sort on minx (the BKD
    # split dimension) -> partitioned parquet; the driver never holds
    # the triangle set
    tris = (ds.map_batches(_Tessellate, batch_format="pyarrow",
                           batch_size=batch_size,
                           concurrency=stage_pool(concurrency))
            .sort(["minx", "doc_id"]))
    n_tris = tris.count()
    tris.write_parquet(os.path.join(out_dir, "tris"),
                       row_group_size=1024)
    # the exact rings ride along as stored fields (doc-sorted)
    (ds.select_columns(["doc_id", "vertices"]).sort("doc_id")
     .write_parquet(os.path.join(out_dir, "rings")))
    meta = {"n_triangles": int(n_tris)}
    with open(os.path.join(out_dir, "meta.json"), "w") as f:
        json.dump(meta, f)
    return meta


# --- indexed LINES (LatLonShape.createIndexableFields(String, Line)) -------
# the reference encodes each line segment as a degenerate triangle;
# here each segment is one row with its bbox, same pruning layout as
# the triangle index.


def _line_segments(batch: pa.Table) -> pa.Table:
    ids = batch.column("doc_id").to_pylist()
    lines = batch.column("vertices").to_pylist()
    out = {k: [] for k in ("doc_id", "ax", "ay", "bx", "by",
                           "minx", "maxx", "miny", "maxy")}
    for i, pts in zip(ids, lines):
        for j in range(len(pts) - 1):
            (ax, ay), (bx, by) = pts[j], pts[j + 1]
            out["doc_id"].append(i)
            out["ax"].append(float(ax))
            out["ay"].append(float(ay))
            out["bx"].append(float(bx))
            out["by"].append(float(by))
            out["minx"].append(min(ax, bx))
            out["maxx"].append(max(ax, bx))
            out["miny"].append(min(ay, by))
            out["maxy"].append(max(ay, by))
    return pa.table({
        "doc_id": pa.array(out["doc_id"], pa.int64()),
        **{k: pa.array(out[k], pa.float64())
           for k in ("ax", "ay", "bx", "by",
                     "minx", "maxx", "miny", "maxy")},
    })


def build_line_index(source, out_dir: str, *,
                     batch_size: int = 4096) -> dict:
    """``source``: parquet path or Dataset with (doc_id:int64,
    vertices:list<list<float [x, y]>> polylines). Same layout as the
    polygon index: segment rows sorted by minx, 1024-row groups."""
    ds = source if isinstance(source, ray.data.Dataset) \
        else ray.data.read_parquet(source)
    os.makedirs(out_dir, exist_ok=True)
    segs = (ds.map_batches(_line_segments, batch_format="pyarrow",
                           batch_size=batch_size)
            .sort(["minx", "doc_id"]))
    n = segs.count()
    segs.write_parquet(os.path.join(out_dir, "segs"),
                       row_group_size=1024)
    meta = {"n_segments": int(n)}
    with open(os.path.join(out_dir, "meta.json"), "w") as f:
        json.dump(meta, f)
    return meta


def _segments_intersect_closed_box(ax, ay, bx, by, minx, maxx, miny,
                                   maxy) -> np.ndarray:
    """Vectorized Liang-Barsky: True where segment i intersects the
    CLOSED box (touching counts)."""
    ax = np.asarray(ax, np.float64)
    t0 = np.zeros(len(ax))
    t1 = np.ones(len(ax))
    ok = np.ones(len(ax), dtype=bool)
    dx, dy = bx - ax, by - ay
    for p, q in ((-dx, ax - minx), (dx, maxx - ax),
                 (-dy, ay - miny), (dy, maxy - ay)):
        zero = p == 0
        ok &= ~(zero & (q < 0))
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(zero, 0.0, q / np.where(zero, 1.0, p))
        neg = (p < 0) & ok
        pos = (p > 0) & ok
        t0 = np.where(neg, np.maximum(t0, r), t0)
        t1 = np.where(neg, t1, np.where(pos, np.minimum(t1, r), t1))
    return ok & (t0 <= t1)


def lines_intersecting_box(index_dir: str, minx: float, maxx: float,
                           miny: float, maxy: float) -> np.ndarray:
    """doc_ids of lines intersecting the closed box: row-group-pruned
    candidate segments + exact clip test."""
    t = pq.read_table(
        os.path.join(index_dir, "segs"),
        filters=[("minx", "<=", maxx), ("maxx", ">=", minx),
                 ("miny", "<=", maxy), ("maxy", ">=", miny)])
    if t.num_rows == 0:
        return np.empty(0, np.int64)
    hit = _segments_intersect_closed_box(
        t["ax"].to_numpy(), t["ay"].to_numpy(),
        t["bx"].to_numpy(), t["by"].to_numpy(), minx, maxx, miny, maxy)
    return np.unique(t["doc_id"].to_numpy()[hit]).astype(np.int64)


# --- queries ---------------------------------------------------------------

def shapes_containing_point(index_dir: str, px: float,
                            py: float) -> np.ndarray:
    """doc_ids of shapes containing (px, py): bbox-pruned triangle
    candidates, then the exact ring predicate per candidate doc
    (LatLonShapeQuery's candidates-then-exact)."""
    t = pq.read_table(
        os.path.join(index_dir, "tris"),
        filters=[("minx", "<=", px), ("maxx", ">=", px),
                 ("miny", "<=", py), ("maxy", ">=", py)])
    if t.num_rows == 0:
        return np.empty(0, np.int64)
    hit = _points_in_tris(px, py, t)
    cand = np.unique(t.column("doc_id").to_numpy()[hit])
    if len(cand) == 0:
        return cand.astype(np.int64)
    rings = pq.read_table(os.path.join(index_dir, "rings"),
                          filters=[("doc_id", "in", cand.tolist())])
    out = []
    for i in range(rings.num_rows):
        ring = rings.column("vertices")[i].as_py()
        did = rings.column("doc_id")[i].as_py()
        if point_in_polygon(px, py, ring):
            out.append(did)
    return np.array(sorted(out), dtype=np.int64)


def shapes_within_box(index_dir: str, minx: float, maxx: float,
                      miny: float, maxy: float) -> np.ndarray:
    """doc_ids of shapes entirely WITHIN the box
    (ShapeField.QueryRelation.WITHIN): candidates are the intersecting
    docs (bbox-pruned), confirmed when every ring vertex lies inside
    the closed box — sufficient and necessary because the box is
    convex."""
    cand = shapes_intersecting_box(index_dir, minx, maxx, miny, maxy)
    if len(cand) == 0:
        return cand
    rings = pq.read_table(os.path.join(index_dir, "rings"),
                          filters=[("doc_id", "in", cand.tolist())])
    out = []
    for i in range(rings.num_rows):
        ring = rings.column("vertices")[i].as_py()
        if all(minx <= x <= maxx and miny <= y <= maxy
               for x, y in ring):
            out.append(rings.column("doc_id")[i].as_py())
    return np.array(sorted(out), dtype=np.int64)


def shapes_disjoint_box(index_dir: str, minx: float, maxx: float,
                        miny: float, maxy: float) -> np.ndarray:
    """doc_ids of shapes DISJOINT from the box: the complement of
    INTERSECTS over the indexed doc set (the reference's DISJOINT
    relation also visits every cell that could match)."""
    inter = shapes_intersecting_box(index_dir, minx, maxx, miny, maxy)
    all_ids = pq.read_table(os.path.join(index_dir, "rings"),
                            columns=["doc_id"])["doc_id"].to_numpy()
    return np.setdiff1d(np.unique(all_ids), inter).astype(np.int64)


def _segment_hits_open_box(x1, y1, x2, y2, minx, maxx, miny,
                           maxy) -> bool:
    """True when the segment has a point STRICTLY inside the box
    (Liang-Barsky clip; a clipped midpoint on the boundary does not
    count)."""
    t0, t1 = 0.0, 1.0
    dx, dy = x2 - x1, y2 - y1
    for p, q in ((-dx, x1 - minx), (dx, maxx - x1),
                 (-dy, y1 - miny), (dy, maxy - y1)):
        if p == 0:
            if q < 0:
                return False
            continue
        r = q / p
        if p < 0:
            if r > t1:
                return False
            if r > t0:
                t0 = r
        else:
            if r < t0:
                return False
            if r < t1:
                t1 = r
    if t1 <= t0:
        return False
    tm = (t0 + t1) / 2
    mx, my = x1 + tm * dx, y1 + tm * dy
    return minx < mx < maxx and miny < my < maxy


def shapes_containing_box(index_dir: str, minx: float, maxx: float,
                          miny: float, maxy: float) -> np.ndarray:
    """doc_ids of shapes that CONTAIN the whole box: candidates are
    docs containing one corner; a candidate qualifies when all four
    corners are inside its ring AND no ring edge passes through the
    open box (the polygon boundary never enters the box interior)."""
    cand = shapes_containing_point(index_dir, minx, miny)
    if len(cand) == 0:
        return cand
    rings = pq.read_table(os.path.join(index_dir, "rings"),
                          filters=[("doc_id", "in", cand.tolist())])
    corners = ((minx, miny), (minx, maxy), (maxx, miny), (maxx, maxy))
    out = []
    for i in range(rings.num_rows):
        ring = rings.column("vertices")[i].as_py()
        if not all(point_in_polygon(px, py, ring) for px, py in corners):
            continue
        n = len(ring)
        if any(_segment_hits_open_box(*ring[j], *ring[(j + 1) % n],
                                      minx, maxx, miny, maxy)
               for j in range(n)):
            continue
        out.append(rings.column("doc_id")[i].as_py())
    return np.array(sorted(out), dtype=np.int64)


def shapes_intersecting_box(index_dir: str, minx: float, maxx: float,
                            miny: float, maxy: float) -> np.ndarray:
    """doc_ids of shapes intersecting the box: bbox prune, then exact
    triangle-box intersection (corner-in-tri, tri-vertex-in-box, or
    edge crossing)."""
    t = pq.read_table(
        os.path.join(index_dir, "tris"),
        filters=[("minx", "<=", maxx), ("maxx", ">=", minx),
                 ("miny", "<=", maxy), ("maxy", ">=", miny)])
    if t.num_rows == 0:
        return np.empty(0, np.int64)
    cols = {c: t.column(c).to_numpy() for c in
            ("ax", "ay", "bx", "by", "cx", "cy", "doc_id")}
    n = t.num_rows
    hit = np.zeros(n, dtype=bool)
    # triangle vertex inside box
    for xk, yk in (("ax", "ay"), ("bx", "by"), ("cx", "cy")):
        hit |= ((cols[xk] >= minx) & (cols[xk] <= maxx)
                & (cols[yk] >= miny) & (cols[yk] <= maxy))
    # box corner inside triangle
    for px, py in ((minx, miny), (minx, maxy), (maxx, miny),
                   (maxx, maxy)):
        hit |= _points_in_tris(px, py, t)
    # edge-edge crossings for the remainder (scalar loop on survivors)
    rem = np.nonzero(~hit)[0]
    if len(rem):
        box_edges = [((minx, miny), (maxx, miny)),
                     ((maxx, miny), (maxx, maxy)),
                     ((maxx, maxy), (minx, maxy)),
                     ((minx, maxy), (minx, miny))]

        def seg_int(p1, p2, p3, p4):
            d1 = _cross(*p3, *p4, *p1)
            d2 = _cross(*p3, *p4, *p2)
            d3 = _cross(*p1, *p2, *p3)
            d4 = _cross(*p1, *p2, *p4)
            return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))

        for i in rem:
            tri = [(cols["ax"][i], cols["ay"][i]),
                   (cols["bx"][i], cols["by"][i]),
                   (cols["cx"][i], cols["cy"][i])]
            tri_edges = [(tri[0], tri[1]), (tri[1], tri[2]),
                         (tri[2], tri[0])]
            if any(seg_int(a, b, c, d)
                   for a, b in tri_edges for c, d in box_edges):
                hit[i] = True
    return np.unique(cols["doc_id"][hit]).astype(np.int64)


def _point_tri_dist2(px: float, py: float, t: pa.Table) -> np.ndarray:
    """Squared euclidean distance from (px, py) to each triangle row
    (0 when the point is inside) — vectorized over candidates."""
    inside = _points_in_tris(px, py, t)
    ax = t.column("ax").to_numpy()
    ay = t.column("ay").to_numpy()
    bx = t.column("bx").to_numpy()
    by = t.column("by").to_numpy()
    cx = t.column("cx").to_numpy()
    cy = t.column("cy").to_numpy()
    best = np.full(len(ax), np.inf)
    for (x0, y0, x1, y1) in ((ax, ay, bx, by), (bx, by, cx, cy),
                             (cx, cy, ax, ay)):
        dx = x1 - x0
        dy = y1 - y0
        ll = dx * dx + dy * dy
        tt = np.zeros_like(ll)
        nz = ll > 0
        tt[nz] = ((px - x0[nz]) * dx[nz] + (py - y0[nz]) * dy[nz]) / ll[nz]
        tt = np.clip(tt, 0.0, 1.0)
        qx = x0 + tt * dx
        qy = y0 + tt * dy
        d2 = (px - qx) ** 2 + (py - qy) ** 2
        best = np.minimum(best, d2)
    best[inside] = 0.0
    return best


def shapes_within_distance(index_dir: str, px: float, py: float,
                           radius: float) -> np.ndarray:
    """LatLonShape.newDistanceQuery role (planar analog, consistent
    with this index's coordinate plane): doc_ids of shapes whose
    minimum distance to (px, py) is <= radius. Candidates via the
    circle's bounding box pushed into the Parquet scan (row-group
    min/max stats = the BKD inner nodes), then an exact vectorized
    point-triangle distance; per-shape min over its triangles."""
    t = pq.read_table(
        os.path.join(index_dir, "tris"),
        filters=[("minx", "<=", px + radius), ("maxx", ">=", px - radius),
                 ("miny", "<=", py + radius), ("maxy", ">=", py - radius)])
    if t.num_rows == 0:
        return np.empty(0, np.int64)
    d2 = _point_tri_dist2(px, py, t)
    ids = t.column("doc_id").to_numpy()
    hit = d2 <= radius * radius
    return np.unique(ids[hit])
