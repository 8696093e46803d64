"""SweetSpotSimilarity unit conformance (misc module role), and phrase,
span and multi-phrase scoring under a custom Similarity."""
import pytest


def test_sweetspot_length_norm_plateau():
    """Inside [ln_min, ln_max] the norm is exactly 1; outside it decays
    symmetrically (SweetSpotSimilarity.computeLengthNorm)."""
    import numpy as np
    import pytest
    from lucene_ray.search.similarities import SweetSpotSimilarity
    s = SweetSpotSimilarity(ln_min=10, ln_max=20, ln_steep=0.5,
                            tf_base=1.0)
    freqs = np.array([1, 1, 1, 1, 1])
    dl = np.array([10, 15, 20, 5, 25])
    got = s.term_score(freqs, dl, df=3, ttf=10, boost=1.0,
                       doc_count=100, sum_ttf=1000)
    idf = np.log(101 / 4.0) + 1.0
    tf = np.sqrt(2.0)
    assert got[0] == got[1] == got[2] == idf * tf  # plateau
    assert got[3] == got[4] < got[0]  # symmetric decay
    want_out = idf * tf / np.sqrt(0.5 * (5 + 5) + 1.0)
    assert got[3] == pytest.approx(want_out, rel=1e-12)
    # zero freq scores zero; freq <= tf_min takes tf_base
    s2 = SweetSpotSimilarity(tf_base=2.0, tf_min=3.0)
    got2 = s2.term_score(np.array([0, 2, 9]), np.array([1, 1, 1]),
                         3, 10, 1.0, 100, 1000)
    assert got2[0] == 0.0
    assert got2[1] / got2[2] == pytest.approx(
        2.0 / np.sqrt(9 + 4 - 3), rel=1e-12)


TEXTS = ["red fox red fox jumps", "red fox", "the red dog saw a fox",
         "fox red fox red fox", "red cat red fox runs far away today",
         "red dog red fox"]


@pytest.fixture(scope="module")
def phrase_index(ray_session, tmp_path_factory):
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    from lucene_ray.index import build_index
    d = tmp_path_factory.mktemp("sim_phrase")
    path = str(d / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(len(TEXTS), dtype=np.int64)),
        "text": pa.array(TEXTS, pa.string())}), path)
    out = str(d / "idx")
    build_index(path, out, batch_size=3, index_positions=True)
    return out


def _phrase_freq(words, slots):
    """Exact-phrase occurrences of ``slots`` (alternatives per slot)."""
    return sum(all(words[i + j] in alts for j, alts in enumerate(slots))
               for i in range(len(words) - len(slots) + 1))


def _search_phrases():
    from lucene_ray.search import MultiPhraseQuery, PhraseQuery, SpanNearQuery
    return {
        "phrase": (PhraseQuery(("red", "fox"), 2.0), (("red",), ("fox",))),
        "span": (SpanNearQuery(("red", "fox"), 0, True, 2.0),
                 (("red",), ("fox",))),
        "multi_phrase": (MultiPhraseQuery((("red",), ("fox", "dog")), 2.0),
                         (("red",), ("fox", "dog"))),
    }


@pytest.mark.parametrize("name", ["phrase", "span", "multi_phrase"])
def test_boolean_similarity_scores_phrase_matches_the_boost(phrase_index,
                                                             name):
    """Phrase, span and multi-phrase queries run on the Searcher's
    Similarity, as term queries do: under BooleanSimilarity every match
    scores the query boost (BM25 scores came back before)."""
    import numpy as np
    from lucene_ray.search import IndexReader, Searcher
    from lucene_ray.search.similarities import BooleanSimilarity
    q, slots = _search_phrases()[name]
    s = Searcher(IndexReader(phrase_index), similarity=BooleanSimilarity())
    docs, scores = s.eval_complete(q)
    want = [i for i, t in enumerate(TEXTS) if _phrase_freq(t.split(), slots)]
    assert docs.tolist() == want
    assert np.all(scores == 2.0)


@pytest.mark.parametrize("name", ["phrase", "span", "multi_phrase"])
def test_classic_similarity_scores_phrases_by_summed_idf(phrase_index, name):
    """Under ClassicSimilarity a phrase scores boost * Σ idf_t * √pf /
    √dl over its terms (every alternative of a multi-phrase slot), with
    idf_t = ln((N + 1) / (df_t + 1)) + 1: TF-IDF's summed idf, computed
    here by brute force from the texts."""
    import math
    from lucene_ray.search import IndexReader, Searcher
    from lucene_ray.search.similarities import ClassicSimilarity
    q, slots = _search_phrases()[name]
    s = Searcher(IndexReader(phrase_index), similarity=ClassicSimilarity())
    docs, scores = s.eval_complete(q)
    n = len(TEXTS)
    terms = [t for alts in slots for t in alts]
    df = {t: sum(t in x.split() for x in TEXTS) for t in terms}
    want = {}
    for i, text in enumerate(TEXTS):
        words = text.split()
        pf = _phrase_freq(words, slots)
        if pf:
            idf = sum(math.log((n + 1) / (df[t] + 1)) + 1 for t in terms)
            want[i] = 2.0 * idf * math.sqrt(pf) / math.sqrt(len(words))
    assert docs.tolist() == sorted(want)
    assert scores.tolist() == pytest.approx(
        [want[d] for d in docs.tolist()], rel=1e-12)
