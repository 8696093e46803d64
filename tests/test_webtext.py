"""Web-text curation ops: Gopher quality rules, hash sampling,
benchmark-contamination screening (pipelines/webtext.py).

Kernel-level checks run the callables directly on pyarrow tables (no
Ray dependency); the end-to-end checks drive the Dataset pipelines on
the session Ray fixture.
"""

import hashlib

import numpy as np
import pyarrow as pa
import pytest

from lucene_ray.pipelines import webtext

DOCS = "/root/testdata/sf0.001/documents.parquet"


def _tbl(texts, ids=None, langs=None):
    n = len(texts)
    cols = {"doc_id": pa.array(ids or list(range(n)), pa.int64()),
            "text": pa.array(texts, pa.string())}
    if langs:
        cols["lang"] = pa.array(langs, pa.string())
    return pa.table(cols)


class TestGopherKernel:
    def test_basic_counts(self):
        t = _tbl(["the cat sat on the mat", "", "aaa bbb"])
        out = webtext.GopherQuality()(t).to_pydict()
        assert out["n_words"] == [6, 0, 2]
        assert out["word_chars"] == [3 + 3 + 3 + 2 + 3 + 3, 0, 6]
        assert out["n_stop_words"] == [3, 0, 0]  # the, on, the
        assert out["n_alpha_words"] == [6, 0, 2]

    def test_top2gram_and_dup(self):
        # "a b" occurs 3x -> top2gram_count=3, chars=3*(1+1+1)=9
        t = _tbl(["a b a b a b"])
        out = webtext.GopherQuality()(t).to_pydict()
        assert out["top2gram_count"] == [3]
        assert out["top2gram_chars"] == [9]
        # dup 2-grams: "a b" 3x (9 chars) + "b a" 2x (6) = 15
        assert out["dup2gram_chars"] == [15]

    def test_top2gram_tie_takes_max_chars(self):
        # "xx yy" and "a b" both occur twice; tie resolves to the
        # larger char mass 2*(2+2+1)=10, not the lexicographic one
        t = _tbl(["a b xx yy a b xx yy x"])
        out = webtext.GopherQuality()(t).to_pydict()
        assert out["top2gram_count"] == [2]
        assert out["top2gram_chars"] == [10]

    def test_dup5gram(self):
        text = "p q r s t " * 2 + "z"
        t = _tbl([text.strip()])
        out = webtext.GopherQuality()(t).to_pydict()
        # 5-gram "p q r s t" occurs twice: chars = 2 * (5*1 + 4) = 18
        assert out["dup5gram_chars"][0] >= 18

    def test_repetitive_doc_fails(self):
        good = " ".join(
            "the quick brown fox jumps over a lazy dog near the river "
            "bank and then runs far away while birds sing in trees "
            "over green hills under a bright warm sun as children play "
            "games outside".split())
        bad = "spam ham " * 40  # top-2-gram dominates
        t = _tbl([good, bad.strip()])
        out = webtext.GopherQuality()(t).to_pydict()
        assert out["gopher_pass"] == [1, 0]

    def test_multispace_matches_filtered_split(self):
        a = webtext.GopherQuality()(_tbl(["x  y   z"])).to_pydict()
        b = webtext.GopherQuality()(_tbl(["x y z"])).to_pydict()
        assert a["n_words"] == b["n_words"] == [3]
        assert a["top2gram_count"] == b["top2gram_count"]


class TestSampling:
    def test_md5_bucket_matches_reference(self):
        ids = np.array([0, 1, 42, 999999], dtype=np.int64)
        got = webtext._md5_bucket(ids, "s")
        want = [int(hashlib.md5(f"s:{v}".encode()).hexdigest()[:8], 16) % 100
                for v in ids]
        assert got.tolist() == want

    def test_sample_rate_and_determinism(self, ray_session):
        a = webtext.sample_hash(DOCS, 10, "s").to_pandas()
        b = webtext.sample_hash(DOCS, 10, "s").to_pandas()
        assert sorted(a.doc_id) == sorted(b.doc_id)
        assert 0.03 < len(a) / 500 < 0.22  # 10% +- binomial noise

    def test_sample_nested(self, ray_session):
        # a 50% sample contains the 10% sample (same salt): keep rule
        # is a threshold on one hash, so samples nest
        s10 = set(webtext.sample_hash(DOCS, 10, "s").to_pandas().doc_id)
        s50 = set(webtext.sample_hash(DOCS, 50, "s").to_pandas().doc_id)
        assert s10 <= s50

    def test_stratified_rates(self, ray_session):
        out = webtext.sample_stratified(
            DOCS, {"en": 0}, default_pct=100, salt="s").to_pandas()
        assert (out.lang != "en").all()
        import pyarrow.parquet as pq
        total = pq.read_table(DOCS, columns=["lang"])
        n_non_en = sum(1 for v in total["lang"].to_pylist() if v != "en")
        assert len(out) == n_non_en


class TestContamination:
    def test_planted_overlap(self):
        bench = "alpha beta gamma delta epsilon zeta eta theta"
        clean = "one two three four five six seven eight nine ten"
        dirty = "xx " + bench + " yy"
        grams, _ = webtext._doc_ngrams(pa.array([bench]), 8)
        screen = webtext.ContaminationScreen(grams, 8)
        out = screen(_tbl([clean, dirty, "short doc"])).to_pydict()
        assert out["contaminated"] == [0, 1, 0]
        assert out["n_contaminated"] == [0, 1, 0]
        assert out["n_grams"] == [3, 3, 0]

    def test_gram_construction_no_cross_doc(self):
        # grams never span documents
        grams, gdoc = webtext._doc_ngrams(
            pa.array(["a b c d e f g h", "i j k l m n o p"]), 8)
        assert grams.to_pylist() == ["a b c d e f g h", "i j k l m n o p"]
        assert gdoc.tolist() == [0, 1]

    def test_end_to_end(self, ray_session):
        out = webtext.contamination(DOCS, 8, 97).to_pandas()
        assert len(out) == 500
        # benchmark docs self-match by construction
        bench = out[out.doc_id % 97 == 0]
        assert (bench[bench.n_grams > 0].contaminated == 1).all()


class TestGopherPipeline:
    def test_end_to_end_distribution(self, ray_session):
        df = webtext.gopher_quality(DOCS).to_pandas()
        assert len(df) == 500
        # the flag must split the corpus (not constant)
        assert 0.1 < df.gopher_pass.mean() < 0.95


class TestFingerprintClusters:
    def test_bag_of_words_identity(self, ray_session, tmp_path_factory):
        import pyarrow.parquet as pq
        texts = ["b a a b", "a b", "b a", "c d", "totally different"]
        d = tmp_path_factory.mktemp("fpc")
        path = str(d / "docs.parquet")
        pq.write_table(_tbl(texts), path)
        out = webtext.fingerprint_clusters(path).to_pandas()
        by = {r.fp: (r.n_docs, r.min_doc) for r in out.itertuples()}
        # word order and repetition collapse: docs 0,1,2 share "a b"
        assert by["a b"] == (3, 0)
        assert by["c d"] == (1, 3)


class TestSurprisal:
    def test_rare_word_docs_rank_first(self, ray_session, tmp_path_factory):
        import pyarrow.parquet as pq
        texts = (["common words here"] * 8
                 + ["common words zzyzx"])   # one rare token
        d = tmp_path_factory.mktemp("surp")
        path = str(d / "docs.parquet")
        pq.write_table(_tbl(texts), path)
        out = webtext.surprisal_topk(path, k=3).to_pylist()
        assert out[0]["doc_id"] == 8  # the rare-word doc is most atypical
        assert [r["rank"] for r in out] == [1, 2, 3]
