"""The Arrow-kernel tokenize/invert fast path must produce an index
identical to the Python-analyzer path (same postings, stats, results)."""

import numpy as np
import pyarrow as pa
import pytest

from lucene_ray.analysis import ENGLISH_STOP_WORDS, StandardAnalyzer
from lucene_ray.index import build_index
from lucene_ray.index.builder import _tokenize_batch_arrow
from lucene_ray.search import IndexReader, Searcher, TermQuery, or_query


def _token_multiset(flat, idx):
    from collections import Counter
    return Counter(zip(idx.tolist(), flat.to_pylist()))


@pytest.mark.parametrize("stops", [frozenset(), ENGLISH_STOP_WORDS])
def test_arrow_tokenize_equals_python(stops):
    analyzer = StandardAnalyzer(stop_words=stops)
    texts = [
        "the quick brown fox JUMPED over 1234 lazy dogs",
        "O'Reilly's 21.35 216.239.63.104 A:B_A::B",
        "mixed ascii und 中文字 sowie ein emoji 💩 text",
        "",
        "trailing. .leading mid..dle 1,2 1,,2",
        "x" * 300 + " normal",
        "punct;semi colon:pair 'quoted'",
        "многоязычный текст with latin",
    ]
    col = pa.array(texts, pa.string())
    flat, idx = _tokenize_batch_arrow(col, analyzer)
    got = _token_multiset(flat, idx)

    from collections import Counter
    want = Counter()
    for d, text in enumerate(texts):
        for t in analyzer(text):
            want[(d, t)] += 1
    assert got == want


def test_indexes_identical_between_paths(ray_session, small_pages, tmp_path_factory):
    _, paths = small_pages
    import pyarrow.parquet as pq
    outs = {}
    for arrow in (True, False):
        out = str(tmp_path_factory.mktemp(f"arrowpath_{arrow}"))
        build_index(paths, out, batch_size=500,
                    concurrency=2) if arrow else None
        # the Python-path index is built below, segment by segment
        outs[arrow] = out
    # build the python-path index through a StandardAnalyzer subclass
    from lucene_ray.index.builder import SegmentIndexer
    import lucene_ray.index.builder as B
    out_py = outs[False]
    import ray, ray.data
    cols = ["doc_id", "text"]
    files = B._parquet_files(paths)
    total = sum(pq.read_metadata(f).num_rows for f in files)
    ds = ray.data.read_parquet(files, columns=cols,
                               override_num_blocks=max(1, total // 500))

    class PythonPathAnalyzer(StandardAnalyzer):
        """StandardAnalyzer itself; only that exact class takes the
        Arrow kernels, so a subclass builds on the Python path."""

    meta = ds.map_batches(
        SegmentIndexer,
        fn_constructor_kwargs=dict(out_dir=out_py, text_col="text",
                                   id_col="doc_id", stored_cols=(),
                                   stop_words=frozenset(),
                                   analyzer=PythonPathAnalyzer()),
        batch_format="pyarrow", batch_size=None, concurrency=2)
    rows = meta.take_all()

    # compare every segment's postings between the two builds
    import os
    segs_a = sorted(os.listdir(os.path.join(outs[True], "segments")))
    segs_b = sorted(os.listdir(os.path.join(out_py, "segments")))
    assert segs_a == segs_b  # deterministic ids -> same doc ranges
    from lucene_ray.index.manifest import POSTINGS_BUCKETS, part_path
    for s in segs_a:
        for b in range(POSTINGS_BUCKETS):
            ta, tb = (pq.read_table(part_path(os.path.join(
                d, "segments", s, "postings.parquet"), b))
                for d in (outs[True], out_py))
            assert ta.equals(tb), (s, b)
