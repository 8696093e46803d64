"""Stempel (egothor) stemming role — `lucene/analysis/stempel/src/java/
org/egothor/stemmer/{Diff,Trie,Lift,Compile}.java` and
`org/apache/lucene/analysis/stempel/StempelStemmer.java:79`.

The egothor stemmer is TABLE-DRIVEN and language-neutral: a training
pass diffs each inflected form against its lemma into a compact PATCH
string (commands applied from the word's END: `-n` skip, `Dn` delete,
`Rc` replace, `Ic` insert), stores patches in a trie keyed by the
REVERSED word, and generalizes by lifting the most frequent patch into
inner nodes (the Lift/Gener optimization) so unseen inflections reach
the deepest matching suffix's command. Stemming = one trie walk + one
patch application (`StempelStemmer.stem`).

Both the patch LANGUAGE (exec/apply below are faithful ports of
Diff.java's DP and command interpreter) and the reversed-key
last-on-path lookup match the reference; the trained table here is
built in-repo from a small Polish inflection lexicon (the reference
ships a pre-trained binary table for Polish; `train()` accepts any
(form, lemma) pairs, so a full lexicon drops in unchanged).
"""

from __future__ import annotations

_BASE = ord("a") - 1


def diff_apply(word: str, patch: str) -> str:
    """Port of ``Diff.apply`` (Diff.java:103): execute the patch
    commands from the END of the word. A command whose position is out
    of range stops the patch and keeps the edits made so far, as the
    reference does when ``StringBuilder`` throws and it swallows the
    index error."""
    if not patch:
        return word
    buf = list(word)
    pos = len(buf) - 1
    if pos < 0:
        return word
    try:
        for i in range(len(patch) // 2):
            cmd = patch[2 * i]
            param = patch[2 * i + 1]
            par_num = ord(param) - _BASE
            if cmd == "-":
                pos = pos - par_num + 1
            elif cmd == "R":
                if pos < 0:
                    raise IndexError
                buf[pos] = param
            elif cmd == "D":
                o = pos
                pos -= par_num - 1
                if pos < 0 or pos > len(buf) or pos > o + 1:
                    raise IndexError
                del buf[pos:o + 1]
            elif cmd == "I":
                pos += 1
                if pos < 0 or pos > len(buf):
                    raise IndexError
                buf.insert(pos, param)
            pos -= 1
    except IndexError:
        pass
    return "".join(buf)


def diff_exec(a: str, b: str) -> str:
    """Port of ``Diff.exec`` (Diff.java:160): Levenshtein DP with the
    reference's costs (diagonal-noop 0, ins/del/rep 1, mismatch-noop
    100) and its exact patch-string emission order."""
    X, Y, R, D = 1, 2, 3, 0
    maxx, maxy = len(a) + 1, len(b) + 1
    net = [[0] * maxy for _ in range(maxx)]
    way = [[0] * maxy for _ in range(maxx)]
    for x in range(1, maxx):
        net[x][0] = x
        way[x][0] = X
    for y in range(1, maxy):
        net[0][y] = y
        way[0][y] = Y
    for x in range(1, maxx):
        ax = a[x - 1]
        for y in range(1, maxy):
            go = [net[x - 1][y - 1] + (0 if ax == b[y - 1] else 100),
                  net[x - 1][y] + 1,
                  net[x][y - 1] + 1,
                  net[x - 1][y - 1] + 1]
            m = D
            if go[m] >= go[X]:
                m = X
            if go[m] > go[Y]:
                m = Y
            if go[m] > go[R]:
                m = R
            way[x][y] = m
            net[x][y] = go[m]
    out = []
    deletes = equals = 0
    x, y = maxx - 1, maxy - 1
    while x + y != 0:
        w = way[x][y]
        if w == X:
            if equals:
                out.append("-" + chr(_BASE + equals))
                equals = 0
            deletes += 1
            x -= 1
        elif w == Y:
            if deletes:
                out.append("D" + chr(_BASE + deletes))
                deletes = 0
            if equals:
                out.append("-" + chr(_BASE + equals))
                equals = 0
            y -= 1
            out.append("I" + b[y])
        elif w == R:
            if deletes:
                out.append("D" + chr(_BASE + deletes))
                deletes = 0
            if equals:
                out.append("-" + chr(_BASE + equals))
                equals = 0
            y -= 1
            out.append("R" + b[y])
            x -= 1
        else:  # D: no change
            if deletes:
                out.append("D" + chr(_BASE + deletes))
                deletes = 0
            equals += 1
            x -= 1
            y -= 1
    if deletes:
        out.append("D" + chr(_BASE + deletes))
    return "".join(out)


class _Node:
    __slots__ = ("children", "counts")

    def __init__(self):
        self.children: dict[str, _Node] = {}
        self.counts: dict[str, int] = {}


class StempelTrie:
    """Reversed-key patch trie with Lift-style generalization
    (Trie.java:71 backward mode + Lift.java): every node lifts the most
    frequent patch of the training words passing through it, so
    ``get_last_on_path`` returns the DEEPEST matching suffix's command
    for unseen words."""

    def __init__(self):
        self._root = _Node()

    def add(self, word: str, patch: str) -> None:
        node = self._root
        for ch in reversed(word):
            node = node.children.setdefault(ch, _Node())
            node.counts[patch] = node.counts.get(patch, 0) + 1

    def get_last_on_path(self, word: str) -> str | None:
        node = self._root
        last = None
        for ch in reversed(word):
            node = node.children.get(ch)
            if node is None:
                break
            if node.counts:
                # most frequent patch, patch-string tie-break (Lift)
                last = min(node.counts,
                           key=lambda p: (-node.counts[p], p))
        return last


class StempelStemmer:
    """``StempelStemmer.java:79`` semantics: trie lookup -> patch
    apply; None when no command matches or the stem comes out empty."""

    def __init__(self, trie: StempelTrie):
        self.trie = trie

    @classmethod
    def train(cls, pairs) -> "StempelStemmer":
        """Build a table from (inflected_form, lemma) pairs — the
        Compile.java role (diff each pair, insert reversed-key patch,
        lift frequencies)."""
        t = StempelTrie()
        for form, lemma in pairs:
            t.add(form, diff_exec(form, lemma))
        return cls(t)

    def stem(self, word: str) -> str | None:
        cmd = self.trie.get_last_on_path(word)
        if cmd is None:
            return None
        out = diff_apply(word, cmd)
        return out if out else None


# small self-authored Polish inflection lexicon (form, lemma) — common
# noun declensions + adjective/verb forms; a full morphological lexicon
# (e.g. the public PoliMorf TSV) plugs into StempelStemmer.train as-is
POLISH_TRAIN_PAIRS = [
    # -ek diminutives: kotek/domek...
    ("kotek", "kotek"), ("kotka", "kotek"), ("kotki", "kotek"),
    ("kotkiem", "kotek"),
    # dom (house)
    ("dom", "dom"), ("domu", "dom"), ("domowi", "dom"), ("domem", "dom"),
    ("domy", "dom"), ("domach", "dom"), ("domami", "dom"),
    # kobieta (woman)
    ("kobieta", "kobieta"), ("kobiety", "kobieta"), ("kobiecie", "kobieta"),
    ("kobietami", "kobieta"), ("kobietach", "kobieta"),
    # miasto (city)
    ("miasto", "miasto"), ("miasta", "miasto"), ("miastem", "miasto"),
    ("miastach", "miasto"), ("miastami", "miasto"),
    # student
    ("student", "student"), ("studenta", "student"),
    ("studentowi", "student"), ("studentem", "student"),
    ("studentach", "student"), ("studentami", "student"),
    # adjective dobry (good)
    ("dobry", "dobry"), ("dobra", "dobry"), ("dobre", "dobry"),
    ("dobrego", "dobry"), ("dobremu", "dobry"), ("dobrych", "dobry"),
    ("dobrymi", "dobry"),
    # verb czytać (to read)
    ("czytać", "czytać"), ("czytam", "czytać"), ("czytasz", "czytać"),
    ("czyta", "czytać"), ("czytamy", "czytać"), ("czytacie", "czytać"),
    ("czytają", "czytać"), ("czytał", "czytać"), ("czytała", "czytać"),
    # verb pisać (to write)
    ("pisać", "pisać"), ("piszę", "pisać"), ("pisze", "pisać"),
    ("pisał", "pisać"), ("pisała", "pisać"), ("pisali", "pisać"),
    # praca (work)
    ("praca", "praca"), ("pracy", "praca"), ("pracę", "praca"),
    ("pracami", "praca"), ("pracach", "praca"),
    # dative plurals (-om)
    ("domom", "dom"), ("kobietom", "kobieta"), ("miastom", "miasto"),
    ("studentom", "student"), ("pracom", "praca"),
    # profesor (consonant stem, full declension)
    ("profesor", "profesor"), ("profesora", "profesor"),
    ("profesorowi", "profesor"), ("profesorem", "profesor"),
    ("profesorami", "profesor"), ("profesorach", "profesor"),
    ("profesorom", "profesor"),
    # past-tense 1sg (-łem/-łam)
    ("czytałem", "czytać"), ("czytałam", "czytać"),
    ("pisałem", "pisać"), ("pisałam", "pisać"),
]


def polish_stemmer() -> StempelStemmer:
    return StempelStemmer.train(POLISH_TRAIN_PAIRS)


class StempelFilter:
    """Chain-pluggable token filter (``stempel/StempelFilter.java``):
    stem each term through the table; terms shorter than ``min_length``
    or with no command pass through unchanged."""

    def __init__(self, stemmer: StempelStemmer | None = None,
                 min_length: int = 3):
        self.stemmer = stemmer or polish_stemmer()
        self.min_length = min_length

    def __call__(self, terms):
        out = []
        for t in terms:
            if len(t) < self.min_length:
                out.append(t)
                continue
            s = self.stemmer.stem(t)
            out.append(s if s else t)
        return out


# --- morfologik role ---------------------------------------------------------


class MorfologikFilter:
    """Dictionary lemmatization role (``lucene/analysis/morfologik/.../
    MorfologikFilter.java``): exact surface-form -> lemma(s) lookup in a
    morphological dictionary; unknown terms pass through (the filter's
    keepOriginal-on-miss behavior). The reference reads a binary FSA;
    here the loader takes the PUBLIC text shape those FSAs are compiled
    from (tab-separated ``form<TAB>lemma[<TAB>tags]`` lines, the
    PoliMorf/morfologik source format)."""

    def __init__(self, mapping: dict[str, list[str]]):
        self.mapping = mapping

    @classmethod
    def from_tsv(cls, path: str, encoding: str = "utf-8"):
        m: dict[str, list[str]] = {}
        with open(path, encoding=encoding) as f:
            for line in f:
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t")
                if len(parts) < 2:
                    continue
                m.setdefault(parts[0], []).append(parts[1])
        return cls(m)

    def __call__(self, terms):
        out = []
        for t in terms:
            lemmas = self.mapping.get(t)
            if lemmas:
                seen = set()
                for lm in lemmas:  # all readings, first occurrence wins
                    if lm not in seen:
                        seen.add(lm)
                        out.append(lm)
            else:
                out.append(t)
        return out
