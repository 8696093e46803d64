"""TermAutomatonQuery role (``lucene/sandbox/src/java/org/apache/
lucene/search/TermAutomatonQuery.java``, tests
``TestTermAutomatonQuery.java``): a token automaton matched against
consecutive token positions — the generalization of phrase /
multi-phrase ("a (b|c) d", holes via ANY transitions, optional slots
via parallel paths).

States are ints (0 = start). Each transition consumes exactly one
token position: ``add_transition(s, t, term)`` requires that token to
be ``term``; ``add_any_transition(s, t)`` accepts any token
(TermAutomatonQuery.ANY). A document matches when some run of
consecutive positions drives the automaton from the start state to an
accept state.

Evaluation per segment: candidate docs come from the posting lists of
the automaton's terms (ANY never widens the candidate set on its own —
as in the reference, an automaton of only-ANY transitions is
rejected); per candidate doc a BFS over (state, position) runs on the
term→position sets, cut per doc by ``Searcher._per_doc`` from one
positions read per (segment, term), as the phrase walks are.
"""

from __future__ import annotations

import numpy as np

ANY = "*ANY*"


class TermAutomatonQuery:
    """Build with add_transition / add_any_transition / set_accept,
    then ``finish()``. State 0 is the start state."""

    def __init__(self):
        self.transitions: list[tuple[int, int, str]] = []
        self.accept: set[int] = set()
        self._finished = False

    def add_transition(self, from_state: int, to_state: int,
                       term: str) -> None:
        self.transitions.append((int(from_state), int(to_state), term))

    def add_any_transition(self, from_state: int, to_state: int) -> None:
        self.transitions.append((int(from_state), int(to_state), ANY))

    def set_accept(self, state: int, accept: bool = True) -> None:
        if accept:
            self.accept.add(int(state))
        else:
            self.accept.discard(int(state))

    def finish(self) -> "TermAutomatonQuery":
        if not self.accept:
            raise ValueError("automaton has no accept state")
        self.terms = sorted({t for _, _, t in self.transitions
                             if t != ANY})
        if not self.terms:
            raise ValueError(
                "automaton must contain at least one real term")
        self._finished = True
        return self


def _doc_matches(q: TermAutomatonQuery, pos_by_term: dict, dl: int) -> bool:
    """BFS over (state, next_position). Starts anchor at every
    position where some start-state TERM transition can fire (plus all
    positions for start-state ANY transitions — only reachable when
    other terms made this doc a candidate)."""
    out_by_state: dict[int, list[tuple[int, str]]] = {}
    for s, t, term in q.transitions:
        out_by_state.setdefault(s, []).append((t, term))

    starts: set[int] = set()
    for t, term in out_by_state.get(0, []):
        if term == ANY:
            starts.update(range(dl))
        else:
            starts.update(int(p) for p in pos_by_term.get(term, ()))
    if not starts:
        return False
    # frontier of (state, pos): 'pos' = next position to consume
    stack = [(0, p) for p in starts]
    seen = set(stack)
    while stack:
        state, p = stack.pop()
        for nxt, term in out_by_state.get(state, []):
            if p >= dl:
                continue
            if term == ANY:
                ok = True
            else:
                arr = pos_by_term.get(term)
                ok = arr is not None and p in arr
            if not ok:
                continue
            if nxt in q.accept:
                return True
            key = (nxt, p + 1)
            if key not in seen:
                seen.add(key)
                stack.append(key)
    return False


def term_automaton_docs(searcher, q: TermAutomatonQuery) -> np.ndarray:
    """All matching global docIDs, sorted (match-only — the reference
    scores automaton matches like a phrase; callers here wrap results
    in constant-score contexts)."""
    if not q._finished:
        q.finish()
    out = []
    for sr in searcher.reader.segments():
        sr.ensure_positions(q.terms)
        per_term = {t: got for t in q.terms
                    if (got := sr.get_positions(t)) is not None}
        if not per_term:
            continue
        cand, = searcher._live(sr, np.unique(np.concatenate(
            [docs for docs, _f, _p in per_term.values()])))
        if len(cand) == 0:
            continue
        for d, dl, slices in zip(cand.tolist(),
                                 sr.doc_lens_for(cand).tolist(),
                                 searcher._per_doc(cand,
                                                   list(per_term.values()))):
            if _doc_matches(q, {t: set(p.tolist())
                                for t, p in zip(per_term, slices)}, dl):
                out.append(d)
    return np.array(sorted(out), dtype=np.int64)
