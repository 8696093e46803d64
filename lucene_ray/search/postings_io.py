"""Query-time postings access over a term's decoded arrays.

A segment reader decodes each term once, on the first touch, into
ascending docIDs and their freqs (``codecs.postings.unpack_postings_many``,
every loaded row in one pass); scorers then slice those arrays instead
of bit-unpacking FOR blocks per query. Block ``b`` of a term is its
postings ``[128·b, min(128·(b+1), df))``, so its bounds follow from
``BLOCK_SIZE`` alone. ``select_blocks`` is the skip-list /
``ImpactsDISI.advanceTarget`` role (only the blocks a pruning decision
kept), and the searcher takes each block's score bound from the same
arrays (``Searcher._block_ubs``). ``lookup`` is the conjunction
leapfrog / exclusion probe.
"""

from __future__ import annotations

import numpy as np

from ..codecs.postings import BLOCK_SIZE, DecodedPostings


def select_blocks(dec: DecodedPostings,
                  sel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(docs, freqs) of the selected blocks (indices ascending)."""
    lo = np.asarray(sel, dtype=np.int64) * BLOCK_SIZE
    lens = np.minimum(lo + BLOCK_SIZE, len(dec.docs)) - lo
    out_starts = np.cumsum(lens) - lens
    idx = np.arange(int(lens.sum())) + np.repeat(lo - out_starts, lens)
    return dec.docs[idx], dec.freqs[idx]


def lookup(dec: DecodedPostings, targets: np.ndarray) -> np.ndarray:
    """freq per target docID; 0 where the doc is absent."""
    docs = dec.docs
    pos = np.minimum(np.searchsorted(docs, targets), len(docs) - 1)
    hit = docs[pos] == targets
    return np.where(hit, dec.freqs[pos], np.int32(0))
