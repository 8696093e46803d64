"""Payloads: DelimitedPayloadTokenFilter semantics + payload sidecar
index + PayloadScoreQuery functions vs brute force."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.analysis.payloads import (
    DelimitedPayloadTokenFilter,
    delimited_payloads,
)


def test_delimited_payloads_basic():
    terms, pays = delimited_payloads(["the|0.5", "quick|2", "fox"])
    assert terms == ["the", "quick", "fox"]
    assert pays == [0.5, 2.0, None]


def test_delimited_payloads_last_delimiter_wins():
    # PayloadHelper: the payload is everything after the FINAL delimiter
    terms, pays = delimited_payloads(["a|b|3.5"], encoder="identity")
    assert terms == ["a|b"]
    assert pays == ["3.5"]


def test_delimited_payloads_encoders():
    terms, pays = delimited_payloads(["x|7"], encoder="int")
    assert pays == [7] and isinstance(pays[0], int)
    with pytest.raises(ValueError):
        delimited_payloads(["x|1"], encoder="nope")
    f = DelimitedPayloadTokenFilter()
    assert f(["a|1.5", "b"]) == ["a", "b"]
    assert f.last_payloads == [1.5, None]


@pytest.fixture(scope="module")
def payload_index(ray_session, tmp_path_factory):
    from lucene_ray.index.payload_index import build_payload_index
    rng = np.random.default_rng(53)
    vocab = ["data", "merge", "spark", "key", "row"]
    texts, truth = [], {}  # truth[(term, doc)] = [payloads in order]
    for i in range(200):
        n = int(rng.integers(3, 20))
        toks = []
        for j in range(n):
            w = str(rng.choice(vocab))
            p = float(rng.integers(1, 10))
            toks.append(f"{w}|{p:g}")
            truth.setdefault((w, i), []).append(p)
        texts.append(" ".join(toks))
    t = pa.table({"doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
                  "text": pa.array(texts, pa.string())})
    d = tmp_path_factory.mktemp("payload")
    src = str(d / "docs.parquet")
    pq.write_table(t, src)
    out = str(d / "pidx")
    build_payload_index(src, out, batch_size=32)
    return out, truth


def test_payload_postings_roundtrip(payload_index):
    from lucene_ray.index.payload_index import payload_postings
    out, truth = payload_index
    for term in ("data", "spark"):
        docs, pays = payload_postings(out, term)
        want = sorted((d, v) for (w, d), v in truth.items() if w == term)
        assert docs.tolist() == [d for d, _ in want]
        assert [list(map(float, p)) for p in pays] == [v for _, v in want]
    docs, pays = payload_postings(out, "absent")
    assert len(docs) == 0 and pays == []


@pytest.mark.parametrize("func,agg", [
    ("min", min), ("max", max), ("sum", sum),
    ("avg", lambda v: sum(v) / len(v)),
])
def test_payload_score_functions(payload_index, func, agg):
    from lucene_ray.search.payloads import payload_score
    out, truth = payload_index
    docs, scores = payload_score(out, "merge", func)
    want = sorted((d, agg(v)) for (w, d), v in truth.items()
                  if w == "merge")
    assert docs.tolist() == [d for d, _ in want]
    np.testing.assert_allclose(scores, [s for _, s in want], rtol=1e-6)


def test_payload_score_unknown_function(payload_index):
    from lucene_ray.search.payloads import payload_score
    with pytest.raises(ValueError):
        payload_score(payload_index[0], "data", "median")


def test_payload_check(payload_index):
    from lucene_ray.search.payloads import payload_check
    out, truth = payload_index
    docs = payload_check(out, "data", 5.0)
    want = sorted(d for (w, d), v in truth.items()
                  if w == "data" and 5.0 in v)
    assert docs.tolist() == want
    assert len(payload_check(out, "data", 99.0)) == 0


def test_payload_postings_long_term_row_group(tmp_path):
    """A row group ending with a term over 4,096 bytes has no usable
    max statistic (pyarrow reports ''): it must be read, not pruned."""
    from lucene_ray.index.payload_index import payload_postings
    terms = ["a", "b" + "x" * 4999, "c", "d"]
    pq.write_table(pa.table({
        "term": pa.array(terms, pa.string()),
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "payloads": pa.array([[1.0], [2.0], [3.0], [4.0]],
                             pa.list_(pa.float32()))}),
        str(tmp_path / "part-0.parquet"), row_group_size=2)
    for i, term in enumerate(terms):
        docs, pays = payload_postings(str(tmp_path), term)
        assert docs.tolist() == [i + 1]
        assert [list(p) for p in pays] == [[float(i + 1)]]
    assert payload_postings(str(tmp_path), "e")[0].tolist() == []
