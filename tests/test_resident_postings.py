"""Resident packed postings: opening a postings part keeps its rows'
``docs`` and ``freqs`` streams packed (``codecs.postings.PackedRows``),
and any rows decode straight from them. Every row of every part must
decode there exactly as the part's whole Parquet table decodes through
``unpack_postings_many``: the same dtypes and values, for rows asked in
any order and batch, built and merged segments, every block format,
with and without positions. ``SegmentReader.resident_bytes`` counts
the arrays the open parts keep."""

import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.codecs.postings import (
    BLOCK_SIZE,
    pack_postings_many,
    packed_rows,
    unpack_postings_many,
    unpack_rows,
)
from lucene_ray.index import build_index
from lucene_ray.index.manifest import POSTINGS_BUCKETS
from lucene_ray.index.merge import merge_segments
from lucene_ray.search import IndexReader

KINDS = [(fmt, pos) for fmt in ("for128", "vint", "pfor")
         for pos in (False, True)]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """600 docs, each a Zipf draw of 8-30 words from 400 plus one word
    of its own (a df = 1 term): head words span several blocks, most
    terms end in a partial tail block."""
    rng = np.random.default_rng(29)
    vocab = [f"r{i:03d}" for i in range(400)]
    w = 1.0 / np.arange(1, len(vocab) + 1)
    texts = [" ".join(list(rng.choice(vocab, int(rng.integers(8, 31)),
                                      p=w / w.sum())) + [f"own{i:04d}"])
             for i in range(600)]
    d = tmp_path_factory.mktemp("resident")
    path = str(d / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
        "text": pa.array(texts, pa.string())}), path)
    return d, path


@pytest.fixture(scope="module")
def indexes(ray_session, corpus):
    """(format, positions, stage) -> index dir, built on first use: two
    built segments of 300 docs, or those merged into one."""
    d, path = corpus
    got = {}

    def index(fmt, pos, stage):
        key = (fmt, pos, stage)
        if key not in got:
            built = str(d / f"{fmt}-{pos}-built")
            if (fmt, pos, "built") not in got:
                build_index(path, built, batch_size=300,
                            postings_format=fmt, index_positions=pos)
                got[(fmt, pos, "built")] = built
            if stage == "merged":
                out = str(d / f"{fmt}-{pos}-merged")
                shutil.copytree(built, out, symlinks=True)
                merge_segments(out)
                got[key] = out
        return got[key]
    return index


def _assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for a, b in zip(g, w, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)
            assert not a.flags.writeable


def _batches(n, rng):
    """Row batches of a part of ``n`` rows: every row alone, all rows in
    one shuffled batch, a repeated row, and shuffled batches of random
    sizes."""
    out = [[r] for r in range(n)] + [rng.permutation(n).tolist()]
    out.append([n - 1, 0, n - 1])
    perm, at = rng.permutation(n).tolist(), 0
    while at < n:
        size = int(rng.integers(2, 40))
        out.append(perm[at:at + size])
        at += size
    return out


@pytest.mark.parametrize("stage", ["built", "merged"])
@pytest.mark.parametrize("fmt,pos", KINDS)
def test_resident_decode_equals_table_decode(indexes, fmt, pos, stage):
    reader = IndexReader(indexes(fmt, pos, stage))
    segs = list(reader.segments())
    assert len(segs) == (2 if stage == "built" else 1)
    rng = np.random.default_rng(3)
    seen = {"df1": 0, "tail": 0, "multi": 0, "tagged": 0}
    for sr in segs:
        for b in range(POSTINGS_BUCKETS):
            part = sr._part(b)
            full = pq.read_table(part.path)
            want = unpack_postings_many(full)
            df = full.column("df").to_numpy()
            assert np.array_equal(part.packed.df, df)
            for rows in _batches(len(full), rng):
                expect = [want[r] for r in rows]
                _assert_same(unpack_rows(part.packed, rows), expect)
                _assert_same(part.postings(rows), expect)
            seen["df1"] += int((df == 1).sum())
            seen["multi"] += int((df > BLOCK_SIZE).sum())
            seen["tail"] += int(((df > BLOCK_SIZE)
                                 & (df % BLOCK_SIZE != 0)).sum())
            seen["tagged"] += int((part.packed.docs.widths < 0).sum())
    assert seen["df1"] >= 300 and seen["multi"] and seen["tail"]
    # vint/pfor blocks stay tagged in a built segment; a merge re-packs
    # every row as for128 blocks
    assert bool(seen["tagged"]) == (fmt != "for128" and stage == "built")


def test_resident_bytes_count_the_open_parts_arrays(indexes):
    """``resident_bytes`` is 0 before any part opens, then the nbytes
    of every array the open parts keep (row-group starts, dictionary,
    singletons, packed streams), held in compact dtypes; each stream
    buffer is the column's bytes plus 8 zero bytes."""
    sr = next(IndexReader(indexes("for128", True, "built")).segments())
    assert sr.resident_bytes() == 0
    for b in (3, 0, 5):
        sr._part(b)
    want = 0
    for part in sr._parts.values():
        p = part.packed
        arrays = [part.rg_starts, part.dict.off, part.dict.keys,
                  part.single_doc, part.single_freq, p.df, p.first_block,
                  *p.docs, *p.freqs]
        want += sum(a.nbytes for a in arrays) + len(part.dict.data)
        assert [a.dtype for a in (part.single_doc, part.single_freq, p.df,
                                  p.first_block, p.docs.offs,
                                  p.docs.widths)] == \
            [np.int32] * 4 + [np.uint32, np.int8]
        for s in ("docs", "freqs"):
            col = pq.read_table(part.path, columns=[s]).column(s)
            stream = getattr(p, s).buf
            assert stream.nbytes == sum(map(len, col.to_pylist())) + 8
            assert not stream[-8:].any()
    assert sr.resident_bytes() == want > 0


def test_block_lengths_must_cover_each_row():
    """Two rows whose block lengths are swapped: the totals agree, but
    neither row's lengths cover its own cell, so the layout is refused
    rather than decoded from the wrong bytes."""
    t = pack_postings_many(np.array([5, 7, 900]), np.array([1, 1, 1]),
                           np.array([0, 2, 3]))
    bb = t.column("docs_bb").to_pylist()
    assert bb[0] != bb[1]
    i = t.schema.get_field_index("docs_bb")
    swapped = t.set_column(i, t.schema.field(i),
                           pa.array([bb[1], bb[0]], t.schema.field(i).type))
    with pytest.raises(ValueError, match="block lengths"):
        packed_rows(swapped)
