"""Stempel (egothor) + morfologik roles: faithful Diff patch-language
port, reversed-key lifted trie, trained Polish table, dictionary
lemmatization filter."""

import random

from lucene_ray.analysis.stempel import (MorfologikFilter, StempelFilter,
                                         StempelStemmer, StempelTrie,
                                         diff_apply, diff_exec,
                                         polish_stemmer)


def test_diff_javadoc_golden():
    # Diff.java:60 javadoc: teacher -> teach is the patch "Db"
    assert diff_exec("teacher", "teach") == "Db"
    assert diff_apply("teacher", "Db") == "teach"


def test_diff_command_kinds():
    # replace / insert / skip commands round-trip
    assert diff_apply("abc", diff_exec("abc", "abd")) == "abd"
    assert diff_apply("abc", diff_exec("abc", "abcd")) == "abcd"
    assert diff_apply("abcdef", diff_exec("abcdef", "abXdef")) == "abXdef"
    assert diff_apply("x", diff_exec("x", "y")) == "y"


def test_diff_insert_out_of_range_stops_patch():
    # Diff.apply: StringBuilder.insert throws past the end or before the
    # start, and the patch stops with the edits made so far. '-_' moves
    # the cursor forward (param below 'a'), '-c' moves it before index 0
    assert diff_apply("ab", "-_Ix") == "ab"
    assert diff_apply("ab", "-cIx") == "ab"
    assert diff_apply("ab", "Rz-cIx") == "az"


def test_diff_delete_out_of_range_stops_patch():
    # StringBuilder.delete throws when start > length or start > end;
    # the following skip + replace must not run
    assert diff_apply("abc", "D_-cRz") == "abc"


def test_diff_roundtrip_randomized():
    rng = random.Random(3)
    for _ in range(500):
        a = "".join(rng.choice("abcde") for _ in range(rng.randint(1, 10)))
        b = "".join(rng.choice("abcde") for _ in range(rng.randint(1, 10)))
        assert diff_apply(a, diff_exec(a, b)) == b, (a, b)


def test_trie_last_on_path():
    t = StempelTrie()
    t.add("teachers", "p1")
    t.add("xs", "p2")
    # exact key: deepest node
    assert t.get_last_on_path("teachers") == "p1"
    # unseen word sharing the reversed-key prefix (suffix "s"): lifted
    # most-frequent patch along the walked path
    assert t.get_last_on_path("dogs") in ("p1", "p2")
    assert t.get_last_on_path("zzz") is None


def test_polish_trained_forms():
    s = polish_stemmer()
    for form, lemma in [("domami", "dom"), ("domach", "dom"),
                        ("kobietami", "kobieta"), ("studentem", "student"),
                        ("czytała", "czytać"), ("dobrego", "dobry"),
                        ("profesorowi", "profesor"), ("pracę", "praca")]:
        assert s.stem(form) == lemma, form


def test_polish_unseen_generalization():
    # forms NOT in the training pairs reach the deepest suffix command
    s = polish_stemmer()
    assert s.stem("doktorem") == "doktor"
    assert s.stem("doktorami") == "doktor"
    assert s.stem("mieszkałem") == "mieszkać"


def test_stempel_filter_chain():
    f = StempelFilter()
    assert f(["domami", "ok", "studentem"]) == ["domami" and "dom", "ok",
                                                "student"]
    # short terms pass through untouched (min_length=3 default)
    assert f(["ab"]) == ["ab"]


def test_morfologik_tsv_loader(tmp_path):
    p = tmp_path / "polimorf.tsv"
    p.write_text("# comment\n"
                 "domami\tdom\tsubst:pl:inst\n"
                 "zamku\tzamek\tsubst:sg:gen\n"
                 "zamku\tzamkowy\tadj\n", encoding="utf-8")
    f = MorfologikFilter.from_tsv(str(p))
    # all distinct readings emitted; unknown passes through
    assert f(["domami", "zamku", "nieznane"]) == \
        ["dom", "zamek", "zamkowy", "nieznane"]
