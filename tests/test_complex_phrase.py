"""ComplexPhraseQueryParser analog (queryparser/complexPhrase/
ComplexPhraseQueryParser.java; tests TestComplexPhraseQuery.java):
embedded wildcards / fuzzy / groups inside quoted phrases, lowered at
rewrite time against the term dictionary."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index import build_index
from lucene_ray.search import (
    ComplexPhraseQuery,
    IndexReader,
    PhraseQuery,
    PrefixQuery,
    Searcher,
    TermQuery,
)
from lucene_ray.search.queryparser import (
    ComplexPhraseQueryParser,
    ParseException,
    parse_complex_phrase_query,
)

TEXTS = [
    "john smith lives here",        # 0: (john jonathon) smith
    "jonathon smith arrives",       # 1: (john jonathon) smith
    "john smythe departs",          # 2: smyth~ after john
    "smith john reversed",          # 3: order wrong
    "data merge complete",          # 4: "data mer*"
    "data window open",             # 5: not mer*
    "data x merge sloppy",          # 6: "data mer*"~2 only
    "plain text here",              # 7
]


@pytest.fixture(scope="module")
def idx(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("cpq")
    path = str(d / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(TEXTS)), pa.int64()),
        "text": pa.array(TEXTS)}), path)
    out = str(d / "idx")
    build_index(path, out, batch_size=3, index_positions=True)
    return out


class TestParser:
    def test_prefix_in_phrase(self):
        q = parse_complex_phrase_query('"data mer*"')
        assert isinstance(q, ComplexPhraseQuery)
        assert q.positions[0] == ("data",)
        assert isinstance(q.positions[1][0], PrefixQuery)

    def test_group_alternatives(self):
        q = parse_complex_phrase_query('"(john jonathon) smith"')
        assert q.positions[0][0] == "john"
        assert q.positions[1] == ("smith",)

    def test_plain_phrase_stays_plain(self):
        q = parse_complex_phrase_query('"data merge"')
        assert isinstance(q, PhraseQuery)

    def test_slop_carried(self):
        q = parse_complex_phrase_query('"data mer*"~2')
        assert q.slop == 2

    def test_single_slot_collapses(self):
        q = parse_complex_phrase_query('"mer*"')
        assert isinstance(q, PrefixQuery)

    def test_star_in_phrase_rejected(self):
        with pytest.raises(ParseException):
            parse_complex_phrase_query('"data *"')

    def test_outside_syntax_unchanged(self):
        q = parse_complex_phrase_query('alpha AND "data mer*"')
        assert isinstance(q.must[0], TermQuery)


class TestSearch:
    def _ids(self, idx, q, k=20):
        s = Searcher(IndexReader(idx))
        return sorted(s.search(s.rewrite(q), k=k).doc_ids.tolist())

    def test_group_phrase(self, idx):
        q = parse_complex_phrase_query('"(john jonathon) smith"')
        assert self._ids(idx, q) == [0, 1]

    def test_prefix_phrase(self, idx):
        q = parse_complex_phrase_query('"data mer*"')
        assert self._ids(idx, q) == [4]

    def test_fuzzy_phrase(self, idx):
        q = parse_complex_phrase_query('"john smyth~1"')
        # smyth~1 expands to smith (y->i) and smythe (+e)
        assert self._ids(idx, q) == [0, 2]

    def test_sloppy_with_alternatives(self, idx):
        q = parse_complex_phrase_query('"data mer*"~2')
        assert self._ids(idx, q) == [4, 6]

    def test_no_expansion_matches_nothing(self, idx):
        q = parse_complex_phrase_query('"data zzz*"')
        assert self._ids(idx, q) == []

    def test_equals_expanded_multiphrase(self, idx):
        from lucene_ray.search import MultiPhraseQuery
        s = Searcher(IndexReader(idx))
        a = s.search(s.rewrite(parse_complex_phrase_query(
            '"(john jonathon) smith"')), k=20)
        b = s.search(s.rewrite(MultiPhraseQuery(
            (("john", "jonathon"), ("smith",)))), k=20)
        assert a.doc_ids.tolist() == b.doc_ids.tolist()

    def test_too_many_variants_raises(self, idx):
        s = Searcher(IndexReader(idx))
        big = tuple(tuple(f"t{i}{j}" for j in range(40)) for i in range(3))
        with pytest.raises(ValueError):
            s.rewrite(ComplexPhraseQuery(big, slop=1))


def test_sloppy_lowering_does_not_depend_on_the_vocabulary():
    """With slop > 0 a complex phrase lowers to ORDERED span variants
    however many terms its slots expand to, so a doc matches over a
    reader that holds it alone as over one that also holds a slot's
    prefix expansion ("beta" for "be*")."""
    from lucene_ray.search.memory import MemoryReader

    def reader(*texts):
        occ = [(w, d, p) for d, text in enumerate(texts)
               for p, w in enumerate(text.split())]
        terms, docs, pos = zip(*occ)
        return MemoryReader(list(terms), docs, pos, len(texts))

    q = ComplexPhraseQuery((("alpha",), ("w3", PrefixQuery("be"))), slop=2)
    for text, want in (("x w3 alpha y", []), ("x alpha y w3", [0])):
        alone = Searcher(reader(text)).match_docs(q).tolist()
        beside = Searcher(reader(text, "beta")).match_docs(q).tolist()
        assert alone == beside == want, text
