"""Training-data pipeline operators: dedup family (with planted dups),
similarity search, text analysis, multimodal plumbing, distributed search."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def dup_corpus(ray_session, tmp_path_factory):
    """Corpus with planted exact + near duplicates."""
    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(500)]
    texts = []
    for i in range(200):
        n = int(rng.integers(30, 80))
        texts.append(" ".join(rng.choice(vocab, n)))
    # exact dups: 201..205 copy 0..4
    for i in range(5):
        texts.append(texts[i])
    # near dups: copies of 10..14 with one word changed
    for i in range(5):
        words = texts[10 + i].split()
        words[3] = "zzchanged"
        texts.append(" ".join(words))
    t = pa.table({
        "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts), pa.string()),
        "source": pa.array([f"s{i % 3}" for i in range(len(texts))], pa.string()),
    })
    d = tmp_path_factory.mktemp("dups")
    path = str(d / "documents.parquet")
    pq.write_table(t, path)
    return path, texts


def test_exact_dedup(dup_corpus):
    from lucene_ray.pipelines.dedup import exact_dedup
    path, texts = dup_corpus
    keep = sorted(r["doc_id"] for r in exact_dedup(path).take_all())
    assert len(keep) == 205  # 210 docs, 5 exact dups removed
    for i in range(5):
        assert i in keep and (200 + i) not in keep


def test_minhash_lsh_finds_neardups(dup_corpus):
    from lucene_ray.pipelines.dedup import jaccard_verify, minhash_lsh_candidates
    path, texts = dup_corpus
    cand = {(r["doc_a"], r["doc_b"])
            for r in minhash_lsh_candidates(path).take_all()}
    # exact dups must all be candidates; near-dups (1 word of ~50 changed)
    for i in range(5):
        assert (i, 200 + i) in cand, f"exact dup pair {i} missed"
    near_found = sum((10 + i, 205 + i) in cand for i in range(5))
    assert near_found >= 4
    # verify step: exact dups -> jaccard 1.0
    ver = jaccard_verify(path, [(i, 200 + i) for i in range(5)])
    for r in ver.take_all():
        assert r["jaccard"] == 1.0


def test_simhash_finds_dups(dup_corpus):
    from lucene_ray.pipelines.dedup import simhash_candidates
    path, _ = dup_corpus
    pairs = {(r["doc_a"], r["doc_b"]): r["hamming"]
             for r in simhash_candidates(path, max_hamming=6).take_all()}
    for i in range(5):
        assert pairs.get((i, 200 + i)) == 0  # exact dup -> identical simhash


def test_embedding_neardup_and_knn(ray_session, tmp_path_factory):
    from lucene_ray.pipelines.dedup import embedding_neardup
    from lucene_ray.pipelines.similarity import knn_brute, knn_lsh, lsh_recall_vs_brute
    rng = np.random.default_rng(9)
    base = rng.standard_normal((100, 32)).astype(np.float32)
    base[50] = base[0] + rng.standard_normal(32).astype(np.float32) * 0.01
    t = pa.table({
        "vec_id": pa.array(np.arange(100, dtype=np.int64)),
        "embedding": pa.array([v.tolist() for v in base],
                              pa.list_(pa.float32())),
    })
    d = tmp_path_factory.mktemp("emb")
    path = str(d / "embeddings.parquet")
    pq.write_table(t, path)

    near = {(r["vec_a"], r["vec_b"]) for r in
            embedding_neardup(path, threshold=0.99).take_all()}
    assert (0, 50) in near

    topk = knn_brute(path, [0], 5).to_pylist()
    assert topk[0]["vec_id"] == 50  # planted near-dup is rank 1
    # brute-force oracle: numpy direct
    m = base.astype(np.float64)
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    sims = m @ m[0]
    sims[0] = -np.inf
    order = np.lexsort((np.arange(100), -sims))[:5]
    assert [r["vec_id"] for r in topk] == order.tolist()

    # LSH: the planted near-identical vector must land in query 0's probe
    # set and rank first; aggregate recall on *random* vectors is
    # inherently weak (no cluster structure), just sanity-check it
    approx = knn_lsh(path, [0], 5).to_pylist()
    assert approx and approx[0]["vec_id"] == 50
    rec = lsh_recall_vs_brute(path, range(5), k=10)
    assert rec > 0.05


def test_lang_id(ray_session, tmp_path_factory):
    from lucene_ray.pipelines.text_analysis import lang_id
    t = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([
            "the cat and the dog in the house is that it",
            "der hund und die katze ist nicht ein haus für",
            "el perro y la casa es no una para con",
            "我是中国人我是中国人我是中国人",
        ], pa.string()),
    })
    d = tmp_path_factory.mktemp("langs")
    path = str(d / "documents.parquet")
    pq.write_table(t, path)
    got = {r["doc_id"]: r["lang_pred"] for r in lang_id(path).take_all()}
    assert got[0] == "en" and got[1] == "de" and got[2] == "es" and got[3] == "zh"


def test_multimodal_plumbing(ray_session, tmp_path_factory):
    import ray.data
    from lucene_ray.pipelines.multimodal import (
        ImageFeatureExtractor, image_features, synth_image_table)
    t = synth_image_table(40, real=False)  # random blobs, fake decoder
    d = tmp_path_factory.mktemp("imgs")
    path = str(d / "images.parquet")
    pq.write_table(t, path)
    feats = image_features(path, batch_size=8, decoder="fake").take_all()
    assert len(feats) == 40
    assert len(feats[0]["feature"]) == 64
    # deterministic: same blob -> same features
    fx = ImageFeatureExtractor(decoder="fake")
    blob = t.column("image")[0].as_py()
    np.testing.assert_array_equal(fx._fake_features(blob), fx._fake_features(blob))
    # PIL-backed general decoding stays import-gated in this container
    with pytest.raises(NotImplementedError):
        ImageFeatureExtractor(decoder="pil")


def test_audio_plumbing(ray_session, tmp_path_factory):
    from lucene_ray.pipelines.multimodal import audio_frames
    rng = np.random.default_rng(4)
    t = pa.table({
        "doc_id": pa.array(np.arange(10, dtype=np.int64)),
        "audio": pa.array([rng.integers(0, 256, 2048, dtype=np.uint8).tobytes()
                           for _ in range(10)], pa.binary()),
    })
    d = tmp_path_factory.mktemp("audio")
    path = str(d / "audio.parquet")
    pq.write_table(t, path)
    rows = audio_frames(path, decoder="fake").take_all()
    assert len(rows) == 40  # 10 docs x 4 frames


def test_distributed_searcher_matches_local(ray_session, small_pages,
                                            tmp_path_factory):
    from lucene_ray.index import build_index
    from lucene_ray.search import IndexReader, Searcher, TermQuery, or_query
    from lucene_ray.search.distributed import RaySearcher
    _, paths = small_pages
    out = str(tmp_path_factory.mktemp("dist_idx"))
    build_index(paths, out, batch_size=250)
    local = Searcher(IndexReader(out))
    dist = RaySearcher(out, num_workers=3)
    sr = local.reader.segment(local.reader.segment_infos[0].seg_id)
    terms = list(sr.terms())[:10]
    for q in [TermQuery(terms[0]), or_query(terms[:3])]:
        a = local.search(q, k=25)
        b = dist.search(q, k=25)
        assert a.doc_ids.tolist() == b.doc_ids.tolist()
        assert a.scores.tolist() == b.scores.tolist()
    assert local.count(TermQuery(terms[0])) == dist.count(TermQuery(terms[0]))


def test_distributed_pruned_term_path_matches_local(ray_session,
                                                    tmp_path_factory):
    """Head terms with more than 1,024 postings in every segment, so a
    single-term query walks a long score order and stops early in it,
    and 2 segments per worker, so each worker carries a threshold from
    one segment to the next: RaySearcher.search, search_batch and a
    local Searcher give the same ids and float32 score bits for term,
    AND and OR queries. A local search fed the true k-th score through
    ``threshold_cb`` (and observed through ``publish_cb``) gives the
    same result too. A ``k`` that is not an int >= 1 is refused before
    any worker runs."""
    from lucene_ray.index import build_index
    from lucene_ray.search import (IndexReader, Searcher, TermQuery,
                                   and_query, or_query)
    from lucene_ray.search.distributed import RaySearcher
    from lucene_ray.sources import write_pages
    d = tmp_path_factory.mktemp("dist_pruned")
    paths = write_pages(str(d / "pages"), n_rows=6000, n_parts=4, seed=42,
                        n_terms=2000)
    out = str(d / "idx")
    build_index(paths, out, batch_size=1500)
    reader = IndexReader(out)
    assert len(reader.segment_infos) == 4
    by_df = sorted(reader.all_term_stats().items(), key=lambda kv: -kv[1][0])
    head = [t for t, _ in by_df[:6]]
    for sr in reader.segments():
        for t in head:
            assert sr.df(t) > 1024
    local = Searcher(reader)
    dist = RaySearcher(out, num_workers=2)
    assert len(dist.workers) == 2
    queries = ([TermQuery(t) for t in head]
               + [and_query(head[i:i + 2]) for i in range(0, 6, 2)]
               + [or_query(head[i:i + 3]) for i in range(0, 6, 3)])

    def bits(td):
        return td.doc_ids.tolist(), \
            np.asarray(td.scores, np.float32).view(np.uint32).tolist()

    for k in (10, 100):
        batch = dist.search_batch(queries, k)
        for q, b in zip(queries, batch):
            td = local.search(q, k)
            want = bits(td)
            assert len(want[0]) == k
            assert bits(dist.search(q, k)) == want
            assert bits(b) == want
            kth = float(td.scores[-1])
            assert bits(local.search(q, k, threshold_cb=lambda: kth)) == want
            published = []
            assert bits(local.search(q, k,
                                     publish_cb=published.append)) == want
            assert published and published == sorted(set(published))
            assert published[-1] <= kth
    for bad in (0, -1, 2.5):
        with pytest.raises(ValueError, match="k must be an int >= 1"):
            dist.search_batch(queries, bad)
        with pytest.raises(ValueError, match="k must be an int >= 1"):
            dist.search(queries[-1], bad)


def test_knn_merge_is_block_count_independent(ray_session, tmp_path_factory):
    """The top-k reduce is a groupby(qid): the driver-materialized result
    is exactly nq*k rows whether the corpus is 1 block or 40, and the
    ranked ids are identical (r2 finding: partial take_all grew with
    block count)."""
    import pyarrow.parquet as pq
    from lucene_ray.pipelines.similarity import knn_brute
    rng = np.random.default_rng(21)
    base = rng.standard_normal((400, 16)).astype(np.float32)
    t = pa.table({
        "vec_id": pa.array(np.arange(400, dtype=np.int64)),
        "embedding": pa.array([v.tolist() for v in base],
                              pa.list_(pa.float32())),
    })
    d = tmp_path_factory.mktemp("emb_blocks")
    one = str(d / "one.parquet")
    many = str(d / "many")
    pq.write_table(t, one)
    import os
    os.makedirs(many)
    for i in range(40):  # 40 row-groups/files -> 40+ blocks
        pq.write_table(t.slice(i * 10, 10), f"{many}/part-{i:03d}.parquet")
    qids = [3, 77, 200]
    a = knn_brute(one, qids, k=7)
    b = knn_brute(many, qids, k=7)
    assert len(a) == len(qids) * 7 == len(b)
    assert a.to_pylist() == b.to_pylist()


def test_pattern_counts_planted(ray_session, tmp_path_factory):
    """Planted emails/urls are counted (the PII-screening op; zero on
    the synthetic corpus, so the non-trivial check lives here)."""
    import pyarrow.parquet as pq
    from lucene_ray.pipelines.text_analysis import pattern_counts
    texts = ["contact me at bob@example.com or alice@test.org now",
             "see https://a.example/x and http://b.example/y plus text",
             "no patterns here at all"]
    t = pa.table({"doc_id": pa.array(np.arange(3, dtype=np.int64)),
                  "text": pa.array(texts, pa.string())})
    d = tmp_path_factory.mktemp("pii")
    path = str(d / "docs.parquet")
    pq.write_table(t, path)
    rows = {r["doc_id"]: r for r in pattern_counts(path).take_all()}
    assert rows[0]["n_emails"] == 2 and rows[0]["n_urls"] == 0
    assert rows[1]["n_urls"] == 2 and rows[1]["n_emails"] == 0
    assert rows[2]["n_emails"] == 0 and rows[2]["n_urls"] == 0


def test_langid_vectorized_equals_scalar():
    """The batch-vectorized LangId path must reproduce the scalar
    detect() exactly (incl. ties, thresholds, CJK, empty/None)."""
    import pyarrow as pa
    from lucene_ray.pipelines.text_analysis import LangId
    li = LangId()
    texts = [
        "the cat and the dog is in that house with it for sure",
        "der hund und die katze ist nicht ein tier mit",
        "le chat et la maison est pas une pour dans les",
        "el perro y la casa es no una para con los",
        "随机的中文文本在这里继续出现很多汉字直到超过百分之二十",
        "", None, "zz qq xx vv", "word " * 300,
        "the the the", "mixed der the und and ist is",
        "la la la",  # fr/es marker tie -> first in dict order wins
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    vec = li(t).column("lang_pred").to_pylist()
    assert vec == [li.detect(x or "") for x in texts]


def test_pages_html_extraction_byte_identical(ray_session, tmp_path):
    """North-star per-row invariant: text extracted from the html
    binary column is BYTE-IDENTICAL to the reference text per url."""
    from lucene_ray.sources.synth import write_pages
    from lucene_ray.pipelines.webtext import (extract_pages_text,
                                              verify_extraction)
    d = str(tmp_path / "pages")
    write_pages(d, n_rows=600, n_parts=3, seed=7)
    got = verify_extraction(d)
    assert got == {"n_rows": 600, "n_mismatch": 0}
    # the extraction dataset itself: url-keyed, text matches source
    import pyarrow.parquet as pq
    ext = extract_pages_text(d).to_pandas().set_index("url")
    src = pq.read_table(d, columns=["url", "text"]).to_pandas() \
        .set_index("url")
    assert len(ext) == 600
    joined = ext.join(src)
    assert (joined["extracted_text"] == joined["text"]).all()


def test_knn_metric_variants_vs_brute(ray_session, tmp_path):
    """VectorSimilarityFunction dot/euclidean + filtered kNN vs local
    brute force."""
    from lucene_ray.pipelines.similarity import knn_metric
    rng = np.random.default_rng(83)
    n, d = 400, 16
    mat = rng.normal(size=(n, d))
    labels = rng.integers(0, 5, n)
    t = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([list(map(float, r)) for r in mat],
                              pa.list_(pa.float32())),
        "label": pa.array(labels.astype(np.int32)),
    })
    p = str(tmp_path / "emb.parquet")
    pq.write_table(t, p)
    mat32 = np.stack(pq.read_table(p)["embedding"].to_pylist()) \
        .astype(np.float64)
    qids = [0, 3, 7]
    for metric, keymat in (("dot", None), ("euclidean", None)):
        got = knn_metric(p, qids, 5, metric=metric).to_pandas()
        for q in qids:
            if metric == "dot":
                s = mat32 @ mat32[q]
            else:
                s = -np.linalg.norm(mat32 - mat32[q], axis=1)
            s[q] = -np.inf  # exclude self
            order = np.lexsort((np.arange(n), -s))[:5]
            want = order.tolist()
            rows = got[got.qid == q].sort_values("rank")
            assert rows["vec_id"].tolist() == want, (metric, q)
    # filtered
    got = knn_metric(p, qids, 5, metric="cosine", label_mod=2).to_pandas()
    nm = mat32 / np.linalg.norm(mat32, axis=1, keepdims=True)
    for q in qids:
        s = nm @ nm[q]
        s[q] = -np.inf
        s[labels % 2 != 0] = -np.inf
        order = np.lexsort((np.arange(n), -s))[:5]
        rows = got[got.qid == q].sort_values("rank")
        assert rows["vec_id"].tolist() == order.tolist()
    with pytest.raises(ValueError):
        knn_metric(p, qids, 5, metric="manhattan")
