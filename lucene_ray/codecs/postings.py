"""Delta + FOR (frame-of-reference) packed posting blocks.

Mirrors the reference postings layout semantics — 128-doc blocks of
delta-encoded docIDs bit-packed at the block's max bit width, freqs
packed per block — without replicating its on-disk file format:

- block size 128: ``codecs/lucene90/ForUtil.java:32``
- strictly-increasing docIDs enforced: ``Lucene90PostingsWriter.java:231-236``

A term is one row of a postings table (``POSTINGS_SCHEMA``): ``df``
docIDs, delta-encoded (the first delta is the absolute first docID)
and blocked as full 128s plus one tail, so block ``b`` holds postings
``[128·b, min(128·(b+1), df))``; ``freqs`` in the same blocks; the
pack-time byte length of every block of both streams (``docs_bb``,
``freqs_bb``: a reader finds each block with one cumsum instead of a
header scan, the role of ``Lucene90SkipWriter``'s file pointers); and,
for an index built with positions, ``positions``, the term's ``ttf``
position deltas as one run of 128-value blocks.

``pack_postings_many`` packs many terms into such rows, each stream in
one vectorized pass over every block. ``packed_rows`` keeps rows'
``docs`` and ``freqs`` streams packed and resident (each in one padded
buffer, with every block's offset and width), and ``decode_rows``
decodes any of those rows into docIDs and freqs (``DecodedPostings``)
with one ``_unpack_values`` per stream, the one decode kernel; a reader
keeps its parts that way, and ``unpack_postings_many`` decodes a
table. A row stores no skip data or impacts (the reference's
``Lucene90SkipWriter`` and ``CompetitiveImpactAccumulator``): a reader
decodes a term whole, once, and a single-term top-k walks the decoded
postings in score order, sorted from the freqs and the segment's norms
(``Searcher._term_top``).

All kernels are vectorized numpy; no per-element Python loops on the
pack/unpack hot path.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pyarrow as pa

BLOCK_SIZE = 128


class DecodedPostings(NamedTuple):
    """One term's postings in one segment, decoded and read-only."""

    docs: np.ndarray  # int64, ascending
    freqs: np.ndarray  # int32, aligned with docs


# --- bit packing -----------------------------------------------------------

def _pack_block(vals: np.ndarray, fmt: str = "for128") -> bytes:
    """Encode one block. Default ``for128``: [width u8][bit-packed].
    Registered formats: [tag u8][len u16][payload] (self-describing —
    see codecs/registry.py, the PerFieldPostingsFormat analog)."""
    if fmt != "for128":
        from .registry import get_format, wrap_block
        tag, encode, _ = get_format(fmt)
        return wrap_block(tag, encode(vals.astype(np.uint32)))
    n = len(vals)
    width = int(vals.max()).bit_length() if n else 0
    if width == 0:
        return bytes([0])
    bits = np.unpackbits(vals.astype(">u4").view(np.uint8).reshape(n, 4), axis=1)
    packed = np.packbits(bits[:, 32 - width:])
    return bytes([width]) + packed.tobytes()


def _block_sizes(n: int) -> np.ndarray:
    """Block sizes of one run of ``n`` values: full 128s and a tail."""
    n = int(n)
    return np.minimum(BLOCK_SIZE, n - BLOCK_SIZE * np.arange(
        -(-n // BLOCK_SIZE), dtype=np.int64))


def _scan_block_offsets(buf: bytes, sizes) -> tuple[np.ndarray, np.ndarray]:
    """(byte_offset_of_block, width_of_block) via header-only scan — for
    the positions stream, which stores no pack-time block lengths."""
    n = len(sizes)
    offs = np.empty(n + 1, dtype=np.int64)
    widths = np.empty(n, dtype=np.int64)
    mv = memoryview(buf)
    pos = 0
    for i, m in enumerate(sizes):
        offs[i] = pos
        w = mv[pos]
        if w > 32:  # registered-format block: [tag][len u16][payload]
            widths[i] = -1  # excluded from the width-grouped fast path
            pos += 3 + (mv[pos + 1] | (mv[pos + 2] << 8))
        else:
            widths[i] = w
            pos += 1 + (m * w + 7) // 8
    offs[n] = pos
    return offs, widths


def _bb_layout(buf, bb, nblocks: int,
               stream: str) -> tuple[np.ndarray, np.ndarray]:
    """Block layout of a packed stream from its pack-time block byte
    lengths: one cumsum and one header gather. Raises if the lengths do
    not cover every block."""
    if len(bb) != nblocks:
        raise ValueError(f"{stream} stream has {len(bb)} block lengths "
                         f"for {nblocks} blocks")
    offs = _offsets(np.asarray(bb, dtype=np.int64))
    hdr = np.frombuffer(buf, dtype=np.uint8)[offs[:-1]].astype(np.int64)
    return offs, np.where(hdr > 32, -1, hdr)


def _undelta(deltas: np.ndarray, counts) -> np.ndarray:
    """Absolute int64 values of consecutive delta runs (``counts[j]``
    values each) whose first delta is absolute: one cumsum, rebased per
    run. Terms' docIDs and per-posting position runs are such runs."""
    counts = np.asarray(counts, dtype=np.int64)
    cs = np.cumsum(deltas, dtype=np.int64)
    base = np.zeros(len(counts), dtype=np.int64)
    base[1:] = cs[np.cumsum(counts)[:-1] - 1]
    return cs - np.repeat(base, counts)


def _padded(buf) -> np.ndarray:
    """``buf``'s bytes and 8 zero bytes, as ``_unpack_values`` reads."""
    return np.concatenate([np.frombuffer(buf, np.uint8), np.zeros(8, np.uint8)])


def _unpack_values(buf: np.ndarray, sizes,
                   layout: tuple[np.ndarray, np.ndarray] | None = None
                   ) -> np.ndarray:
    """Decode blocks of a ``_padded`` stream, concatenated: those of
    ``layout`` (each block's byte offset and width, -1 if tagged; any
    blocks, in any order), or else every block, its headers scanned.
    ``for128`` blocks, full and tail alike, decode in one vectorized
    pass: value ``i`` of a width-``w`` block at byte ``o`` starts at bit
    ``(o + 1) * 8 + i * w``, so one unaligned big-endian 8-byte window
    per value, shifted left past the bits before it and right to its
    width, is the value. Registered-format (tagged) blocks decode per
    block."""
    sizes = np.asarray(sizes, dtype=np.int64)
    offs, widths = layout if layout is not None \
        else _scan_block_offsets(buf, sizes)
    offs = offs[:len(sizes)].astype(np.int64)
    w = np.maximum(widths, 0)  # tagged blocks decode as zeros first
    wv = np.repeat(w, sizes)
    first = _offsets(sizes)
    bit = np.repeat((offs + 1) * 8 - first[:-1] * w, sizes) \
        + np.arange(first[-1]) * wv
    window = np.ndarray((len(buf) - 7,), dtype=">u8", buffer=buf,
                        strides=(1,))
    # a shift by 64 gives 0 in numpy, so width-0 values come out 0
    out = ((window[bit >> 3] << (bit & 7).astype(np.uint64))
           >> (np.uint64(64) - wv.astype(np.uint64))).astype(np.uint32)
    tagged = np.nonzero(widths < 0)[0]
    if len(tagged):
        from .registry import get_decoder
        for b in tagged.tolist():
            o = int(offs[b])
            n = int(buf[o + 1]) | (int(buf[o + 2]) << 8)
            out[first[b]:first[b + 1]] = get_decoder(int(buf[o]))(
                buf[o + 3:o + 3 + n].tobytes(), int(sizes[b]))
    return out


# --- flat pack: every block of a stream in one vectorized pass -------------

# minimal width w with max value <= 2^w - 1: searchsorted over thresholds
_WIDTH_THRESHOLDS = (np.left_shift(np.int64(1), np.arange(33, dtype=np.int64))
                     - 1).astype(np.int64)


def _widths_of(maxv: np.ndarray) -> np.ndarray:
    return np.searchsorted(_WIDTH_THRESHOLDS, maxv.astype(np.int64),
                           side="left").astype(np.uint8)


def _offsets(lens) -> np.ndarray:
    """Exclusive prefix sum with the total appended: int64[len+1]."""
    out = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=out[1:])
    return out


def _blocks_of(bounds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """128-value block layout of the ranges ``bounds[j]:bounds[j+1]``,
    each blocked on its own (full blocks + its tail): (block starts,
    block sizes, first block of each range int64[nranges+1])."""
    bounds = np.asarray(bounds, dtype=np.int64)
    nblocks = (np.diff(bounds) + BLOCK_SIZE - 1) // BLOCK_SIZE
    first = _offsets(nblocks)
    rng = np.repeat(np.arange(len(nblocks)), nblocks)
    bstart = bounds[rng] + BLOCK_SIZE * (np.arange(first[-1]) - first[rng])
    bsize = np.minimum(bstart + BLOCK_SIZE, bounds[rng + 1]) - bstart
    return bstart, bsize, first


def _pack_stream(vals: np.ndarray, bstart: np.ndarray, bsize: np.ndarray,
                 fmt: str = "for128") -> tuple[np.ndarray, np.ndarray]:
    """Pack every block of one stream into one buffer, byte-identical to
    ``_pack_block`` per block. Returns (uint8 bytes, int64 byte offset
    of each block [nblocks+1]). ``for128`` runs without a Python loop
    over blocks: each value's low ``w`` bits are gathered MSB first from
    one ``unpackbits`` matrix, scattered to just after their block's
    width byte, and packed once."""
    if fmt != "for128":
        # registered formats encode per block (self-describing tags)
        blocks = [_pack_block(vals[s:s + n], fmt)
                  for s, n in zip(bstart.tolist(), bsize.tolist())]
        return (np.frombuffer(b"".join(blocks), dtype=np.uint8),
                _offsets(np.fromiter(map(len, blocks), np.int64, len(blocks))))
    if len(bstart) == 0:
        return np.empty(0, np.uint8), np.zeros(1, np.int64)
    widths = _widths_of(np.maximum.reduceat(vals, bstart))
    nbits = bsize * widths
    offs = _offsets(1 + (nbits + 7) // 8)
    top = int(widths.max())
    bits = np.unpackbits(vals.astype(">u4").view(np.uint8)) \
        .reshape(len(vals), 32)[:, 32 - top:]
    low = np.arange(top) >= (top - np.repeat(widths, bsize))[:, None]
    # payload bits of block b: [(offs[b] + 1) * 8, + nbits[b])
    first = (offs[:-1] + 1) * 8
    edge = np.zeros(offs[-1] * 8 + 1, dtype=np.int8)
    edge[first] += 1
    edge[first + nbits] -= 1
    out = np.zeros(offs[-1] * 8, dtype=np.uint8)
    out[np.cumsum(edge[:-1], dtype=np.int8).view(bool)] = bits[low]
    packed = np.packbits(out)
    packed[offs[:-1]] = widths
    return packed, offs


# --- public pack/unpack ----------------------------------------------------

class _Flat(NamedTuple):
    """Many terms packed into flat per-block buffers."""

    first_block: np.ndarray  # int64[n_terms+1], first block of each term
    docs: np.ndarray  # uint8, every docs block of every term
    docs_offs: np.ndarray  # int64[nblocks+1], byte offset of each block
    freqs: np.ndarray
    freqs_offs: np.ndarray


def _pack_flat(D: np.ndarray, F: np.ndarray, tb: np.ndarray,
               postings_format: str) -> _Flat:
    counts = np.diff(tb)
    if (counts <= 0).any():
        raise ValueError("empty posting")
    # each term's first delta is its absolute docID, packed as a uint32
    # value: a negative docID would wrap to another doc. DocIDs are int32
    # throughout the engine, so one >= 2^31 fails here, at write time
    if len(D) and (D[tb[1:] - 1].max() >= 2**31 or D[tb[:-1]].min() < 0):
        raise ValueError("docID out of int32 range")
    # freqs read back as int32 (unpack_postings_many): 2^31 and up would
    # pack at width 32 and come back negative
    if len(F) and F.max() >= 2**31:
        raise ValueError(f"term frequency {int(F.max())} out of int32 range")
    delta = D.copy()
    delta[1:] -= D[:-1]
    starts = tb[:-1]
    delta[starts] = D[starts]  # first delta of each term is absolute
    ok = delta > 0
    ok[starts] = delta[starts] >= 0
    if not ok.all():
        raise ValueError("docs out of order")  # Lucene90PostingsWriter.java:231
    bstart, bsize, first = _blocks_of(tb)
    docs, docs_offs = _pack_stream(delta.astype(np.uint32), bstart, bsize,
                                   postings_format)
    freqs, freqs_offs = _pack_stream(F.astype(np.uint32), bstart, bsize,
                                     postings_format)
    return _Flat(first, docs, docs_offs, freqs, freqs_offs)


def _flat_list(col) -> tuple[np.ndarray, np.ndarray]:
    """(offsets int64[n+1] from 0, flat values) of a large_list column."""
    a = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    off = a.offsets.to_numpy()
    return off - off[0], a.flatten().to_numpy()


def _binary_bytes(col) -> tuple[np.ndarray, np.ndarray]:
    """(bytes, cell offsets int64[n+1] from 0) of a large_binary
    column: Arrow keeps its cells back to back in one buffer."""
    a = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    _, off, data = a.buffers()
    offs = np.frombuffer(off, np.int64)[a.offset:a.offset + len(a) + 1]
    buf = (np.empty(0, np.uint8) if data is None else
           np.frombuffer(data, np.uint8)[offs[0]:offs[-1]])
    return buf, offs - offs[0]


class _Stream(NamedTuple):
    """Many rows' blocks of one stream: their ``_padded`` bytes, and
    per block its byte offset (uint32; int64 past 4 GiB) and width."""

    buf: np.ndarray
    offs: np.ndarray
    widths: np.ndarray


class PackedRows(NamedTuple):
    """Postings rows kept packed to decode any of them: per row its df
    and first block (int32), and the ``docs`` and ``freqs`` streams."""

    df: np.ndarray
    first_block: np.ndarray  # [nrows + 1]
    docs: _Stream
    freqs: _Stream

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.df, self.first_block,
                                      *self.docs, *self.freqs))


def packed_rows(t: pa.Table) -> PackedRows:
    """The rows of ``t`` (``df``, ``docs``, ``freqs``, ``docs_bb``,
    ``freqs_bb``) as :class:`PackedRows`; raises where a row's block
    lengths do not match its df and its cell."""
    df = t.column("df").to_numpy()
    first = _offsets(-(-df // BLOCK_SIZE))
    streams = []
    for s in ("docs", "freqs"):
        off, bb = _flat_list(t.column(f"{s}_bb"))
        buf, cells = _binary_bytes(t.column(s))
        offs, widths = _bb_layout(buf, bb, first[-1], s)
        if not (np.array_equal(off, first)
                and np.array_equal(offs[first], cells)):
            raise ValueError(f"{s} stream: block lengths do not match rows")
        streams.append(_Stream(
            _padded(buf), offs[:-1].astype(
                np.uint32 if offs[-1] < 2**32 else np.int64),
            widths.astype(np.int8)))
    return PackedRows(df.astype(np.int32), first.astype(np.int32), *streams)


def decode_rows(p: PackedRows, rows) -> tuple[np.ndarray, np.ndarray]:
    """DocIDs (int64) and freqs (int32) of ``rows`` of ``p``, in any
    order, concatenated: one ``_unpack_values`` per stream."""
    rows = np.asarray(rows, dtype=np.int64)
    counts = p.df[rows].astype(np.int64)
    _, bsize, first = _blocks_of(_offsets(counts))
    blk = np.repeat(p.first_block[rows] - first[:-1], np.diff(first)) \
        + np.arange(first[-1])
    docs, freqs = (_unpack_values(s.buf, bsize, layout=(s.offs[blk],
                                                         s.widths[blk]))
                   for s in (p.docs, p.freqs))
    return _undelta(docs, counts), freqs.astype(np.int32)


def unpack_rows(p: PackedRows, rows) -> list[DecodedPostings]:
    """:func:`decode_rows` split per row into read-only views; a row
    decodes the same in any batch (one row alone included)."""
    if len(rows) == 0:
        return []
    docs, freqs = decode_rows(p, rows)
    for a in (docs, freqs):
        a.flags.writeable = False
    bounds = _offsets(p.df[np.asarray(rows, dtype=np.int64)]).tolist()
    return [DecodedPostings(docs[lo:hi], freqs[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def unpack_postings_many(t: pa.Table) -> list[DecodedPostings]:
    """Every row of ``t`` decoded: the inverse of ``pack_postings_many``."""
    return unpack_rows(packed_rows(t), np.arange(len(t)))


# --- batch pack (vectorized across terms) ----------------------------------

POSTINGS_SCHEMA = pa.schema([
    ("term", pa.large_string()),
    ("df", pa.int64()),
    ("ttf", pa.int64()),
    ("docs", pa.large_binary()),
    ("freqs", pa.large_binary()),
    ("docs_bb", pa.large_list(pa.int32())),   # per-block byte lengths
    ("freqs_bb", pa.large_list(pa.int32())),  # (skip-pointer analog)
    ("positions", pa.large_binary()),          # empty unless index_positions
])


def _binary(data: np.ndarray, offsets: np.ndarray) -> pa.Array:
    """large_binary array over one buffer: row i = data[offsets[i]:offsets[i+1]]."""
    return pa.Array.from_buffers(
        pa.large_binary(), len(offsets) - 1,
        [None, pa.py_buffer(np.ascontiguousarray(offsets, dtype=np.int64)),
         pa.py_buffer(np.ascontiguousarray(data))])


def pack_postings_many(doc_ids: np.ndarray, freqs: np.ndarray,
                       term_bounds: np.ndarray,
                       postings_format: str = "for128", terms=None,
                       positions: np.ndarray | None = None) -> pa.Table:
    """Pack MANY terms' postings in one vectorized pass -> a postings
    table (``POSTINGS_SCHEMA``, one row per term).

    ``doc_ids``/``freqs`` are the per-term posting arrays concatenated
    (term j occupies ``term_bounds[j]:term_bounds[j+1]``, docs strictly
    increasing within each term). Each stream is packed in one pass
    over all blocks (full and tail), and every column is built from the
    flat buffers and offsets. ``terms`` fills the term column
    (null when omitted); ``positions`` (absolute positions, ``freqs[i]``
    of them per posting in doc order, all terms concatenated) fills
    ``positions``. A term's row does not depend on the other terms of
    the batch: it is byte-identical to ``_pack_block`` per block (tested).
    """
    D = np.ascontiguousarray(doc_ids, dtype=np.int64)
    F = np.ascontiguousarray(freqs, dtype=np.int64)
    tb = np.ascontiguousarray(term_bounds, dtype=np.int64)
    f = _pack_flat(D, F, tb, postings_format)
    n = len(tb) - 1
    fb = f.first_block
    occ = _offsets(F)  # positions: occurrence bounds
    cols = {
        "term": (pa.nulls(n, pa.large_string()) if terms is None
                 else pa.array(terms, pa.large_string())),
        "df": pa.array(np.diff(tb)),
        "ttf": pa.array(np.diff(occ[tb])),
        "docs": _binary(f.docs, f.docs_offs[fb]),
        "freqs": _binary(f.freqs, f.freqs_offs[fb]),
        "positions": (_binary(np.empty(0, np.uint8), np.zeros(n + 1))
                      if positions is None else
                      pack_positions_many(positions, occ[tb], occ[:-1])),
    }
    for name, offs in (("docs_bb", f.docs_offs), ("freqs_bb", f.freqs_offs)):
        cols[name] = pa.LargeListArray.from_arrays(  # one length per block
            pa.array(fb, pa.int64()), pa.array(np.diff(offs).astype(np.int32)))
    return pa.Table.from_arrays([cols[k] for k in POSTINGS_SCHEMA.names],
                                schema=POSTINGS_SCHEMA)


# --- positional postings (PhraseQuery support) -----------------------------
# Layout per term: all occurrences ordered by (doc, position), positions
# delta-encoded with a reset (absolute value) at each posting/doc
# boundary, FOR-packed as one run of 128-value blocks (ttf values) per
# term. Mirrors the
# role of the reference's .pos stream (Lucene90PostingsFormat.java:
# 155-246) without its file format.


def pack_positions_many(pos_flat: np.ndarray, occ_bounds: np.ndarray,
                        group_starts: np.ndarray) -> pa.Array:
    """Pack many terms' position streams -> large_binary, one per term.

    ``pos_flat``: all occurrences' positions (grouped by term, then doc,
    ascending within doc). ``occ_bounds``: per-term occurrence ranges
    (n_terms+1). ``group_starts``: indices where a new (term, doc)
    posting begins (delta resets there).
    """
    P = np.ascontiguousarray(pos_flat, dtype=np.int64)
    delta = P.copy()
    delta[1:] -= P[:-1]
    delta[group_starts] = P[group_starts]
    if (delta < 0).any():
        raise ValueError("positions out of order")
    bstart, bsize, first = _blocks_of(occ_bounds)
    data, offs = _pack_stream(delta.astype(np.uint32), bstart, bsize)
    return _binary(data, offs[first])


def unpack_positions(buf: bytes, freqs: np.ndarray) -> np.ndarray:
    """Decode one term's position stream.

    ``freqs``: the term's per-posting freqs (posting boundaries = delta
    resets); the stream holds ``freqs.sum()`` (the term's ttf) values in
    one run of blocks. Returns absolute positions, flat (slice by
    cumsum(freqs)).
    """
    return _undelta(_unpack_values(_padded(buf), _block_sizes(np.sum(freqs))),
                    freqs)
