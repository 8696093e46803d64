"""Every term-sorted part (a built or merged segment's postings part, a
generation's global stats part) is written by ``write_term_part`` with
per-column encodings: ``term`` front-coded (``DELTA_BYTE_ARRAY``), a
dictionary only on ``df``, ``ttf`` and the two block-length leaves, and
``docs``, ``freqs`` and ``positions`` plain. Readers get back the table
that was written, as they would from the same table written plain.

The parts are made in-process by the functions the build and merge run
as Ray tasks (``SegmentIndexer``, ``_merge_part``, ``_sum_stats_part``),
so each table handed to the writer can be kept and compared."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index import builder
from lucene_ray.index.builder import SegmentIndexer, _sum_stats_part
from lucene_ray.index.manifest import POSTINGS_BUCKETS, part_path
from lucene_ray.index.merge import _merge_part
from lucene_ray.search.reader import _TermDict

# 24 words that share their first 8 bytes, so every part holds some
# terms whose dictionary keys tie and are told apart by their bytes
SHARED = [f"interstellar{a}{b}" for a in "abcd" for b in "xyz"] + \
         [f"interstel{a}" for a in "abcdefghijkl"]
VOCAB = SHARED + [f"w{i:02d}" for i in range(40)]
ABSENT = ["interstellar", "interstel", "interste", "interstellarax",
          "interstellarx", "w", "w0", "w400", "zzz", "a"]
N_SEGMENTS, SEG_DOCS = 3, 200

DICTIONARY = {"df", "ttf", "docs_bb.list.element", "freqs_bb.list.element"}
PLAIN = {"docs", "freqs", "positions"}

CONFIGS = {"for128": {}, "positions": {"index_positions": True},
           "vint": {"postings_format": "vint"}}


def _batch(i: int) -> pa.Table:
    rng = np.random.default_rng(i)
    p = 1.0 / np.arange(1, len(VOCAB) + 1) ** 0.7
    texts = [" ".join(rng.choice(VOCAB, int(rng.integers(3, 15)),
                                 p=p / p.sum()))
             for _ in range(SEG_DOCS)]
    start = i * SEG_DOCS
    return pa.table({"doc_id": pa.array(range(start, start + SEG_DOCS),
                                        pa.int64()),
                     "text": pa.array(texts)})


@pytest.fixture(scope="module", params=list(CONFIGS))
def parts(request, tmp_path_factory):
    """{kind: [(path, the table handed to the writer)]} for the built,
    merged and global-stats parts of one small index."""
    out = str(tmp_path_factory.mktemp(f"parts_{request.param}"))
    written = {}
    write = builder.write_term_part

    def keep(path, table, row_group_size):
        written[path] = table
        write(path, table, row_group_size)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(builder, "write_term_part", keep)
        seg_ids = [SegmentIndexer(out, "text", "doc_id", (), frozenset(),
                                  **CONFIGS[request.param])(_batch(i))
                   ["seg_id"][0].as_py() for i in range(N_SEGMENTS)]
        merged = os.path.join(out, "segments", "merged", "postings.parquet")
        os.makedirs(merged)
        for b in range(POSTINGS_BUCKETS):
            _merge_part._function(out, seg_ids, [-1] * N_SEGMENTS, b, merged)
        built = [os.path.join(out, "segments", s, "postings.parquet")
                 for s in seg_ids]
        stats = os.path.join(out, "stats")
        os.makedirs(stats)
        for b in range(POSTINGS_BUCKETS):
            _sum_stats_part._function([part_path(d, b) for d in built],
                                      part_path(stats, b))
    kinds = {"built": [part_path(d, b) for d in built
                       for b in range(POSTINGS_BUCKETS)],
             "merged": [part_path(merged, b) for b in range(POSTINGS_BUCKETS)],
             "stats": [part_path(stats, b) for b in range(POSTINGS_BUCKETS)]}
    assert sorted(p for ps in kinds.values() for p in ps) == sorted(written)
    return {k: [(p, written[p]) for p in ps] for k, ps in kinds.items()}


@pytest.mark.parametrize("kind", ["built", "merged", "stats"])
def test_footer_encodings(parts, kind):
    row_groups = 0
    for path, table in parts[kind]:
        md = pq.read_metadata(path)
        row_groups += md.num_row_groups
        for r in range(md.num_row_groups):
            enc = {md.row_group(r).column(i).path_in_schema:
                   set(md.row_group(r).column(i).encodings)
                   for i in range(md.num_columns)}
            assert "DELTA_BYTE_ARRAY" in enc["term"], (path, enc["term"])
            for col in DICTIONARY & set(enc):
                assert "RLE_DICTIONARY" in enc[col], (path, col)
            for col in PLAIN & set(enc):
                assert "RLE_DICTIONARY" not in enc[col], (path, col)
            assert set(enc) >= ({"term", "df", "ttf"} if kind == "stats"
                                else DICTIONARY | PLAIN | {"term"})
    assert row_groups > 0


@pytest.mark.parametrize("kind", ["built", "merged", "stats"])
def test_parts_read_back_as_written_plain(parts, kind, tmp_path):
    rows_per_group = 4096 if kind == "stats" else builder.POSTINGS_ROW_GROUP
    for i, (path, table) in enumerate(parts[kind]):
        twin = str(tmp_path / f"plain-{i}.parquet")
        pq.write_table(table, twin, row_group_size=rows_per_group,
                       write_statistics=False)
        got = pq.read_table(path)
        assert got.equals(table) and got.equals(pq.read_table(twin)), path
        md = pq.read_metadata(path)
        assert [md.row_group(r).num_rows for r in range(md.num_row_groups)] \
            == [min(rows_per_group, len(table) - s)
                for s in range(0, len(table), rows_per_group)]


@pytest.mark.parametrize("kind", ["built", "merged", "stats"])
def test_term_dict_rows_match_a_plain_column(parts, kind, tmp_path):
    tied = 0
    for i, (path, table) in enumerate(parts[kind]):
        twin = str(tmp_path / f"plain-{i}.parquet")
        pq.write_table(table.select(["term"]), twin, use_dictionary=False)
        front = _TermDict(pq.read_table(path, columns=["term"])
                          .column("term"))
        plain = _TermDict(pq.read_table(twin).column("term"))
        terms = table.column("term").to_pylist()
        asked = terms + ABSENT + [t + "a" for t in terms] + \
            [t[:-1] for t in terms]
        want = [terms.index(t) if t in terms else -1 for t in asked]
        assert front.rows(asked) == plain.rows(asked) == want, path
        tied += int(np.sum(np.diff(front.keys) == 0))
    assert tied > 0, "no part holds terms sharing their first 8 bytes"
