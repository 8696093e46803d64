"""Sloppy phrase (slop > 0) — SloppyPhraseMatcher analog, conformance
modeled on ``TestSloppyPhraseQuery.java`` / ``TestSloppyPhraseQuery2``:
transposition needs slop 2, matching == exists occurrence tuple whose
adjusted positions span <= slop, freq sums 1/(1+span) per pq state."""

from itertools import product

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index import build_index
from lucene_ray.search import IndexReader, PhraseQuery, Searcher


def _index(tmp_path_factory, texts, name):
    t = pa.table({"doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
                  "text": pa.array(texts, pa.string())})
    d = tmp_path_factory.mktemp(name)
    path = str(d / "docs.parquet")
    pq.write_table(t, path)
    out = str(d / "idx")
    build_index(path, out, batch_size=200, index_positions=True)
    return Searcher(IndexReader(out))


def _brute_match(texts, terms, slop):
    """Independent oracle: enumerate every occurrence tuple."""
    out = set()
    for d, text in enumerate(texts):
        words = text.split()
        occ = [[p - i for p, w in enumerate(words) if w == t]
               for i, t in enumerate(terms)]
        if any(not o for o in occ):
            continue
        for tup in product(*occ):
            if len(set(terms)) < len(terms):
                src = [tup[i] + i for i in range(len(terms))]
                if len(set(src)) < len(src):
                    continue
            if max(tup) - min(tup) <= slop:
                out.add(d)
                break
    return out


# TestSloppyPhraseQuery-style fixed cases
CASES = [
    # (doc, phrase, slop, matches)
    ("one two three", ("one", "two"), 0, True),
    ("one two three", ("one", "three"), 0, False),
    ("one two three", ("one", "three"), 1, True),   # one gap
    ("one two three", ("two", "one"), 1, False),    # transposed: needs 2
    ("one two three", ("two", "one"), 2, True),
    ("foo x x bar", ("foo", "bar"), 1, False),
    ("foo x x bar", ("foo", "bar"), 2, True),
    ("a b c d e", ("a", "c", "e"), 2, True),        # spans via gaps
    ("a b c d e", ("e", "a"), 10, True),
]


@pytest.mark.parametrize("text,terms,slop,want", CASES)
def test_fixed_cases(ray_session, tmp_path_factory, text, terms, slop, want):
    s = _index(tmp_path_factory, [text, "unrelated words here"],
               "slop_fixed")
    got = s.count(PhraseQuery(terms, slop=slop))
    assert (got == 1) == want, (text, terms, slop)


def test_slop_zero_equals_exact(ray_session, tmp_path_factory):
    rng = np.random.default_rng(21)
    vocab = ["aa", "bb", "cc", "dd"]
    texts = [" ".join(rng.choice(vocab, 12)) for _ in range(150)]
    s = _index(tmp_path_factory, texts, "slop_zero")
    for terms in [("aa", "bb"), ("bb", "cc", "dd")]:
        exact = s.match_docs(PhraseQuery(terms, slop=0))
        brute = {d for d, t in enumerate(texts)
                 if f" {' '.join(terms)} " in f" {t} "}
        assert set(exact.tolist()) == brute


def test_randomized_vs_brute(ray_session, tmp_path_factory):
    rng = np.random.default_rng(33)
    vocab = ["p", "q", "r", "s", "t"]
    texts = [" ".join(rng.choice(vocab, int(rng.integers(3, 20))))
             for _ in range(120)]
    s = _index(tmp_path_factory, texts, "slop_rand")
    for _ in range(20):
        nt = int(rng.integers(2, 4))
        terms = tuple(rng.choice(vocab, nt))
        slop = int(rng.integers(0, 6))
        if slop == 0:
            continue
        got = set(s.match_docs(PhraseQuery(terms, slop=slop)).tolist())
        want = _brute_match(texts, terms, slop)
        assert got == want, (terms, slop)


def test_sloppy_freq_values(ray_session, tmp_path_factory):
    texts = ["a b", "b a", "a x b a b"]
    s = _index(tmp_path_factory, texts, "slop_freq")
    sr = s.reader.segment(s.reader.segment_infos[0].seg_id)
    slots = (("a",), ("b",))
    docs, freqs = s._slot_freqs(*s._gather(sr, slots), slots, 2, "phrase")
    got = dict(zip(docs.tolist(), freqs.tolist()))
    assert got[0] == 1.0            # adjacent: span 0 -> 1/(1+0)
    assert got[1] == pytest.approx(1 / 3)  # transposed: span 2 -> 1/3
    # doc 2 "a x b a b": pq walk accumulates several windows
    assert got[2] > 1.0


def test_sloppy_scored_topk_order(ray_session, tmp_path_factory):
    texts = ["a b zzz", "a x b zzz", "a x x b zzz", "no match here"]
    s = _index(tmp_path_factory, texts, "slop_score")
    td = s.search(PhraseQuery(("a", "b"), slop=2), k=10)
    # tighter phrase -> higher sloppy freq -> higher score
    assert td.doc_ids.tolist() == [0, 1, 2]
    assert td.scores[0] > td.scores[1] > td.scores[2]


# --- exact repeat-term freq (SloppyPhraseMatcher.java:180-260 pq walk
# with advanceRpts; TestSloppyPhraseQuery2.java repeat cases) ----------

def _freq(terms, text, slop):
    import numpy as np
    from lucene_ray.search.searcher import Searcher
    toks = text.split()
    slots = []
    for i, t in enumerate(terms):
        pos = [p for p, w in enumerate(toks) if w == t]
        if not pos:
            return 0.0
        slots.append(np.array([p - i for p in pos]))
    grp = Searcher._repeat_groups(tuple(terms))
    return Searcher._sloppy_freq_doc(slots, grp, slop,
                                     len(set(terms)) < len(terms))


def test_repeat_freq_exact_values():
    # each value derived by hand from the reference pq walk: collisions
    # advance the lesser slot; every emitted minimal window adds
    # 1/(1+span)
    assert _freq(("a", "a"), "a b a", 2) == 0.5
    assert _freq(("a", "a"), "a a a", 2) == 2.0
    assert _freq(("a", "a"), "a b a", 0) == 0.0
    assert _freq(("a", "b", "a"), "a b a", 0) == 1.0
    assert _freq(("a", "b", "a"), "a b a x a b a", 0) == 2.0
    assert _freq(("a", "b"), "a b a b", 0) == 2.0
    assert abs(_freq(("b", "a"), "a b", 2) - 1.0 / 3) < 1e-12


def _best_distinct_span(slots, terms, slop):
    """Min adjusted span over occurrence tuples with pairwise-distinct
    source positions for repeated terms; None if no tuple fits in
    ``slop``. Pruned DFS — branching is bounded by the slop window."""
    n = len(slots)
    order = sorted(range(n), key=lambda i: len(slots[i]))
    best = None

    def dfs(k, used, mn, mx):
        nonlocal best
        if mx - mn > slop:
            return
        if k == n:
            if best is None or mx - mn < best:
                best = mx - mn
            return
        i = order[k]
        for v in slots[i]:
            v = int(v)
            src = v + i
            if src in used:
                continue
            nmn = v if v < mn else mn
            nmx = v if v > mx else mx
            if nmx - nmn > slop:
                continue
            used.add(src)
            dfs(k + 1, used, nmn, nmx)
            used.remove(src)
            if best == 0:
                return

    dfs(0, set(), 10**15, -10**15)
    return best


def test_repeat_match_decision_matches_distinct_tuple_oracle():
    rng = np.random.default_rng(11)
    vocab = list("abc")
    checked = 0
    for _ in range(2000):
        text = " ".join(rng.choice(vocab, rng.integers(2, 10)))
        terms = tuple(rng.choice(vocab, rng.integers(2, 5)))
        slop = int(rng.integers(0, 4))
        toks = text.split()
        slots, ok = [], True
        for i, t in enumerate(terms):
            pos = [p - i for p, w in enumerate(toks) if w == t]
            if not pos:
                ok = False
                break
            slots.append(np.array(pos))
        if not ok:
            continue
        checked += 1
        f = _freq(terms, text, slop)
        best = _best_distinct_span(slots, terms, slop)
        assert (best is not None) == (f > 0), (terms, text, slop, f, best)
    assert checked > 500
