"""Posting-list codecs: delta+FOR bit-packed 128-doc blocks of docIDs and
freqs (no score bounds are stored), packed and decoded many terms at a
time."""

from .postings import (
    BLOCK_SIZE,
    pack_positions_many,
    pack_postings_many,
    unpack_positions,
    unpack_postings_many,
)

__all__ = [
    "BLOCK_SIZE",
    "pack_postings_many",
    "unpack_postings_many",
    "pack_positions_many",
    "unpack_positions",
]
