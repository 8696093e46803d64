"""Query-time postings access over a term's decoded arrays.

A segment reader decodes each term once, on the first touch, into
ascending docIDs, their freqs and the flat offset of every 128-doc block
(``codecs.postings.unpack_postings_many``, every loaded row in one
pass); scorers then slice those arrays instead of bit-unpacking FOR
blocks per query. ``decode`` is the same for one packed posting.
``select_blocks`` is the skip-list / ``ImpactsDISI.advanceTarget`` role
(only the blocks a pruning decision kept): the block offsets replace
stored skip data, and the searcher takes each block's score bound from
the same arrays (``Searcher._block_ubs``). ``lookup`` is the
conjunction leapfrog / exclusion probe.
"""

from __future__ import annotations

import numpy as np

from ..codecs.postings import (
    DecodedPostings,
    PackedPostings,
    _block_sizes,
    _offsets,
    unpack_postings,
)


def decode(p: PackedPostings) -> DecodedPostings:
    """Decode every block of ``p`` once; the arrays come back read-only
    so a cached copy cannot be changed by a caller."""
    docs, freqs = unpack_postings(p)
    starts = _offsets(_block_sizes(p.df))
    for a in (docs, freqs, starts):
        a.flags.writeable = False
    return DecodedPostings(docs, freqs, starts)


def select_blocks(dec: DecodedPostings,
                  sel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(docs, freqs) of the selected blocks (indices ascending)."""
    sel = np.asarray(sel, dtype=np.int64)
    lo = dec.block_starts[sel]
    lens = dec.block_starts[sel + 1] - lo
    out_starts = np.cumsum(lens) - lens
    idx = np.arange(int(lens.sum())) + np.repeat(lo - out_starts, lens)
    return dec.docs[idx], dec.freqs[idx]


def lookup(dec: DecodedPostings, targets: np.ndarray) -> np.ndarray:
    """freq per target docID; 0 where the doc is absent."""
    docs = dec.docs
    pos = np.minimum(np.searchsorted(docs, targets), len(docs) - 1)
    hit = docs[pos] == targets
    return np.where(hit, dec.freqs[pos], np.int32(0))
