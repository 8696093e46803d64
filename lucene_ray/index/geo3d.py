"""spatial3d role — Geo3DPoint + distance/box queries on the unit
sphere (``lucene/spatial3d/src/java/org/apache/lucene/spatial3d/
Geo3DPoint.java:44``: lat/lon indexed as a 3-dimension x,y,z point;
``newDistanceQuery`` matches points within an arc distance).

Ray-Data-native layout (the 3D-BKD analog): each point becomes a unit
vector (x, y, z); the point table is range-sorted on x and written in
1024-row Parquet row groups, so row-group min/max column statistics are
the BKD inner nodes. A distance query prunes with the CHORD bound —
points within arc radius r of center c satisfy |p - c| <= 2 sin(r/2),
hence every coordinate lies within that chord of the center's — pushed
into the Parquet scan as row-group filters, then applies the exact arc
predicate vectorized.

Planet model: the SPHERE PlanetModel (``spatial3d/geom/PlanetModel
.java`` SPHERE constant). The reference defaults Geo3DPoint to WGS84
(ellipsoid scaling of z); the scaling slot is `z_scaling` below —
chord pruning stays valid for z_scaling <= 1 because scaling only
shrinks coordinate deltas — but the shipped exact predicate (arc
distance) is the spherical one, so the query functions refuse an index
built with any other z_scaling.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from ..util import stage_pool

# WGS84 polar flattening (PlanetModel.WGS84: zScaling = b/a)
WGS84_Z_SCALING = 0.996647189328169


def latlon_to_xyz(lat_deg, lon_deg, z_scaling: float = 1.0):
    """Unit-sphere vectors from degrees (GeoPoint(planetModel, lat,
    lon) role). Vectorized; returns (x, y, z) float64 arrays."""
    lat = np.deg2rad(np.asarray(lat_deg, np.float64))
    lon = np.deg2rad(np.asarray(lon_deg, np.float64))
    clat = np.cos(lat)
    return (clat * np.cos(lon), clat * np.sin(lon),
            np.sin(lat) * z_scaling)


def arc_distance(x, y, z, cx: float, cy: float, cz: float) -> np.ndarray:
    """Exact arc distance (radians) between unit vectors via the chord
    (numerically stable haversine form: 2 asin(|p-c|/2))."""
    dx = np.asarray(x) - cx
    dy = np.asarray(y) - cy
    dz = np.asarray(z) - cz
    chord = np.sqrt(dx * dx + dy * dy + dz * dz)
    return 2.0 * np.arcsin(np.minimum(chord * 0.5, 1.0))


class _ToXYZ:
    def __init__(self, z_scaling: float):
        self.z_scaling = z_scaling

    def __call__(self, batch: pa.Table) -> pa.Table:
        x, y, z = latlon_to_xyz(batch.column("lat").to_numpy(),
                                batch.column("lon").to_numpy(),
                                self.z_scaling)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "x": pa.array(x, pa.float64()),
            "y": pa.array(y, pa.float64()),
            "z": pa.array(z, pa.float64()),
        })


def build_point3d_index(source, out_dir: str, *, batch_size: int = 8192,
                        z_scaling: float = 1.0) -> dict:
    """``source``: parquet path or Dataset with (doc_id:int64,
    lat:float64, lon:float64). Writes ``pts`` sorted by x in 1024-row
    groups (row-group stats = BKD inner nodes) + ``meta.json``."""
    ds = source if isinstance(source, ray.data.Dataset) \
        else ray.data.read_parquet(source)
    os.makedirs(out_dir, exist_ok=True)
    pts = (ds.map_batches(_ToXYZ, fn_constructor_args=(z_scaling,),
                          batch_format="pyarrow", batch_size=batch_size,
                          concurrency=stage_pool())
           .sort(["x", "doc_id"]))
    n = pts.count()
    pts.write_parquet(os.path.join(out_dir, "pts"), row_group_size=1024)
    with open(os.path.join(out_dir, "meta.json"), "w") as f:
        json.dump({"n_points": int(n), "z_scaling": z_scaling}, f)
    return {"n_points": int(n)}


def _require_sphere(index_dir: str) -> None:
    """Raise ValueError unless the index was built with z_scaling 1.0:
    the query predicates are spherical and would silently answer wrong
    on an ellipsoid index."""
    with open(os.path.join(index_dir, "meta.json")) as f:
        z = json.load(f)["z_scaling"]
    if z != 1.0:
        raise ValueError(
            f"geo3d index {index_dir!r} was built with z_scaling={z}; "
            "distance and box queries support only z_scaling=1.0")


def _pruned_read(index_dir: str, cx: float, cy: float,
                 cz: float, chord: float) -> pa.Table:
    return pq.read_table(
        os.path.join(index_dir, "pts"),
        filters=[("x", ">=", cx - chord), ("x", "<=", cx + chord),
                 ("y", ">=", cy - chord), ("y", "<=", cy + chord),
                 ("z", ">=", cz - chord), ("z", "<=", cz + chord)])


def points_within_distance(index_dir: str, lat: float, lon: float,
                           radius_rad: float) -> np.ndarray:
    """Geo3DPoint.newDistanceQuery role: doc_ids with arc distance to
    (lat, lon) <= radius (radians), ascending. Candidates come from the
    chord-bound row-group pruning; the exact arc predicate decides."""
    _require_sphere(index_dir)
    cx, cy, cz = (float(v) for v in latlon_to_xyz(lat, lon))
    chord = 2.0 * math.sin(min(radius_rad, math.pi) / 2.0)
    t = _pruned_read(index_dir, cx, cy, cz, chord)
    if t.num_rows == 0:
        return np.empty(0, np.int64)
    arc = arc_distance(t.column("x").to_numpy(), t.column("y").to_numpy(),
                       t.column("z").to_numpy(), cx, cy, cz)
    ids = t.column("doc_id").to_numpy()
    return np.unique(ids[arc <= radius_rad])


def points_in_latlon_box(index_dir: str, min_lat: float, max_lat: float,
                         min_lon: float, max_lon: float) -> np.ndarray:
    """Geo3DPoint.newBoxQuery role (GeoBBox shape): doc_ids whose
    lat/lon (recovered exactly from the unit vector) fall inside the
    closed box. z row-group stats prune the latitude band."""
    _require_sphere(index_dir)
    zlo = math.sin(math.radians(min_lat))
    zhi = math.sin(math.radians(max_lat))
    t = pq.read_table(
        os.path.join(index_dir, "pts"),
        filters=[("z", ">=", zlo), ("z", "<=", zhi)])
    if t.num_rows == 0:
        return np.empty(0, np.int64)
    x = t.column("x").to_numpy()
    y = t.column("y").to_numpy()
    z = t.column("z").to_numpy()
    lat = np.rad2deg(np.arcsin(np.clip(z, -1.0, 1.0)))
    lon = np.rad2deg(np.arctan2(y, x))
    ok = ((lat >= min_lat) & (lat <= max_lat)
          & (lon >= min_lon) & (lon <= max_lon))
    return np.unique(t.column("doc_id").to_numpy()[ok])
