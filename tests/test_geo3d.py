"""spatial3d Geo3DPoint role: unit-sphere xyz point index, distance +
box queries (reference: lucene/spatial3d/.../Geo3DPoint.java:44).
Brute-force equivalence + chord-bound pruning assertions."""

import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index.geo3d import (WGS84_Z_SCALING, arc_distance,
                                    build_point3d_index, latlon_to_xyz,
                                    points_in_latlon_box,
                                    points_within_distance, _pruned_read)


@pytest.fixture(scope="module")
def idx(ray_session, tmp_path_factory):
    rng = np.random.default_rng(11)
    n = 4000
    lat = rng.uniform(-89, 89, n)
    lon = rng.uniform(-180, 180, n)
    src = str(tmp_path_factory.mktemp("g3dsrc") / "pts.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "lat": pa.array(lat, pa.float64()),
        "lon": pa.array(lon, pa.float64())}), src)
    out = str(tmp_path_factory.mktemp("g3didx"))
    meta = build_point3d_index(src, out, batch_size=512)
    assert meta["n_points"] == n
    return out, lat, lon


def _brute(lat, lon, clat, clon, radius):
    x, y, z = latlon_to_xyz(lat, lon)
    cx, cy, cz = (float(v) for v in latlon_to_xyz(clat, clon))
    return np.flatnonzero(arc_distance(x, y, z, cx, cy, cz) <= radius)


def test_distance_matches_brute(idx):
    out, lat, lon = idx
    for clat, clon, r in [(42.0, 12.0, 0.3), (-60.0, 150.0, 0.7),
                          (0.0, 0.0, 0.05), (89.0, 0.0, 0.5)]:
        got = points_within_distance(out, clat, clon, r)
        want = _brute(lat, lon, clat, clon, r)
        assert np.array_equal(got, want), (clat, clon, r)


def test_distance_prunes_row_groups(idx):
    out, lat, lon = idx
    # a small circle's chord filter must cut the scan well below the
    # full table (1024-row groups pruned by x/y/z column stats)
    cx, cy, cz = (float(v) for v in latlon_to_xyz(10.0, 20.0))
    chord = 2 * math.sin(0.05 / 2)
    t = _pruned_read(out, cx, cy, cz, chord)
    assert t.num_rows < len(lat) / 2


def test_box_matches_brute(idx):
    out, lat, lon = idx
    for box in [(10.0, 45.0, -20.0, 60.0), (-89.0, -30.0, 100.0, 179.0)]:
        got = points_in_latlon_box(out, *box)
        want = np.flatnonzero((lat >= box[0]) & (lat <= box[1])
                              & (lon >= box[2]) & (lon <= box[3]))
        assert np.array_equal(got, want), box


def test_full_sphere_radius(idx):
    out, lat, lon = idx
    assert len(points_within_distance(out, 0.0, 0.0, math.pi)) == len(lat)


def test_wgs84_scaling_slot(ray_session, tmp_path_factory):
    # the ellipsoid scaling slot shrinks z; chord pruning stays valid
    src = str(tmp_path_factory.mktemp("g3dw") / "pts.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "lat": pa.array([90.0, 0.0], pa.float64()),
        "lon": pa.array([0.0, 0.0], pa.float64())}), src)
    out = str(tmp_path_factory.mktemp("g3dwi"))
    build_point3d_index(src, out, z_scaling=WGS84_Z_SCALING)
    t = pq.read_table(os.path.join(out, "pts")).sort_by("doc_id")
    assert abs(t.column("z").to_numpy()[0] - WGS84_Z_SCALING) < 1e-15
    assert t.column("z").to_numpy()[1] == 0.0


def test_queries_reject_ellipsoid_index(ray_session, tmp_path_factory):
    # the exact predicates are spherical: an index built with another
    # z_scaling must be refused, not answered on the wrong planet model
    src = str(tmp_path_factory.mktemp("g3de") / "pts.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "lat": pa.array([45.0, 0.0], pa.float64()),
        "lon": pa.array([0.0, 0.0], pa.float64())}), src)
    out = str(tmp_path_factory.mktemp("g3dei"))
    build_point3d_index(src, out, z_scaling=WGS84_Z_SCALING)
    with pytest.raises(ValueError, match="z_scaling"):
        points_within_distance(out, 45.0, 0.0, 0.1)
    with pytest.raises(ValueError, match="z_scaling"):
        points_in_latlon_box(out, 0.0, 50.0, -10.0, 10.0)
