"""Posting-list codecs: delta+FOR bit-packed 128-doc blocks of docIDs and
freqs (block score bounds are derived at read time, not stored)."""

from .postings import (
    BLOCK_SIZE,
    PackedPostings,
    pack_postings,
    pack_positions_many,
    unpack_positions,
    unpack_postings,
)

__all__ = [
    "BLOCK_SIZE",
    "PackedPostings",
    "pack_postings",
    "unpack_postings",
    "pack_positions_many",
    "unpack_positions",
]
