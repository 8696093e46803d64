"""Delta + FOR (frame-of-reference) packed posting blocks with per-block
block-max impact metadata.

Mirrors the reference postings layout semantics — 128-doc blocks of
delta-encoded docIDs bit-packed at the block's max bit width, freqs
packed per block, per-block competitive (freq, norm) impact pairs —
without replicating its on-disk file format:

- block size 128: ``codecs/lucene90/ForUtil.java:32``
- impacts / competitive pairs: ``codecs/CompetitiveImpactAccumulator.java``
- strictly-increasing docIDs enforced: ``Lucene90PostingsWriter.java:231-236``

All kernels are vectorized numpy; no per-element Python loops on the
pack/unpack hot path.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pyarrow as pa

BLOCK_SIZE = 128
MAX_IMPACTS_PER_BLOCK = 8


class PackedPostings(NamedTuple):
    """One term's packed postings (possibly multiple concatenated chunks).

    A *chunk* is an independently delta-packed run of docIDs (its first
    delta is the absolute first docID), so chunks from disjoint doc
    ranges can be concatenated without repacking — the segment-merge
    fast path and the hot-term salting path both rely on this.

    ``positions``/``chunk_occ_counts`` are empty unless the index was
    built with positions (the .pos stream for PhraseQuery).
    """

    doc_count: int  # total docs across chunks (== df in this posting)
    ttf: int  # total term frequency
    docs: bytes  # packed doc deltas: per block [u8 width][packed bits]
    freqs: bytes  # packed freqs, same block structure
    block_last_docs: np.ndarray  # int32[nblocks], last docID per block
    imp_freqs: np.ndarray  # int32, flattened impact pairs
    imp_norms: np.ndarray  # uint8
    imp_offsets: np.ndarray  # int32[nblocks+1] prefix offsets into imp_*
    chunk_doc_counts: np.ndarray  # int32[nchunks], docs per chunk
    positions: bytes = b""  # packed position deltas (reset per posting)
    chunk_occ_counts: np.ndarray = np.empty(0, np.int64)  # occurrences/chunk
    # pack-time per-block byte lengths (incl. the header byte) of the
    # docs/freqs streams — lets readers compute every block's byte
    # offset with one cumsum instead of a per-block header scan
    # (Lucene90SkipWriter stores the analogous file pointers at write
    # time). Empty = unknown (legacy data) -> header-scan fallback.
    docs_bb: np.ndarray = np.empty(0, np.int32)
    freqs_bb: np.ndarray = np.empty(0, np.int32)


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


def _unpack_block(buf: memoryview, pos: int, n: int) -> tuple[np.ndarray, int]:
    width = buf[pos]
    pos += 1
    if width > 32:  # registered-format tag: [len u16][payload]
        from .registry import get_decoder
        nbytes = buf[pos] | (buf[pos + 1] << 8)
        pos += 2
        vals = get_decoder(width)(bytes(buf[pos:pos + nbytes]), n)
        return vals, pos + nbytes
    if width == 0:
        return np.zeros(n, dtype=np.uint32), pos
    nbytes = (n * width + 7) // 8
    bits = np.unpackbits(np.frombuffer(buf[pos:pos + nbytes], dtype=np.uint8),
                         count=n * width).reshape(n, width)
    full = np.zeros((n, 32), dtype=np.uint8)
    full[:, 32 - width:] = bits
    vals = np.packbits(full, axis=1).view(">u4").reshape(n).astype(np.uint32)
    return vals, pos + nbytes


def _block_sizes(chunk_doc_counts) -> list[int]:
    """Block layout of a (possibly multi-chunk) posting: each chunk is
    blocked independently (full 128s + its own tail)."""
    sizes = []
    for c in np.asarray(chunk_doc_counts, dtype=np.int64).tolist():
        sizes.extend([BLOCK_SIZE] * (c // BLOCK_SIZE))
        if c % BLOCK_SIZE:
            sizes.append(c % BLOCK_SIZE)
    return sizes


def _scan_block_offsets(buf: bytes, sizes) -> tuple[np.ndarray, np.ndarray]:
    """(byte_offset_of_block, width_of_block) via header-only scan."""
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


def stream_layout(p: "PackedPostings",
                  stream: str) -> tuple[np.ndarray, np.ndarray]:
    """(byte_offsets int64[n+1], widths int64[n]) of the ``docs`` or
    ``freqs`` stream. O(blocks) vectorized when pack-time byte lengths
    are present (one cumsum + one header gather); header-scan fallback
    for legacy packings."""
    buf = p.docs if stream == "docs" else p.freqs
    bb = p.docs_bb if stream == "docs" else p.freqs_bb
    sizes = np.asarray(_block_sizes(p.chunk_doc_counts), dtype=np.int64)
    n = len(sizes)
    if len(bb) == n and n > 0:
        offs = np.empty(n + 1, dtype=np.int64)
        offs[0] = 0
        np.cumsum(np.asarray(bb, dtype=np.int64), out=offs[1:])
        hdr = np.frombuffer(buf, dtype=np.uint8)[offs[:-1]].astype(np.int64)
        widths = np.where(hdr > 32, -1, hdr)
        return offs, widths
    return _scan_block_offsets(buf, sizes)


def _unpack_values(buf: bytes, sizes: list[int],
                   sel: np.ndarray | None = None,
                   layout: tuple[np.ndarray, np.ndarray] | None = None
                   ) -> np.ndarray:
    """Decode blocks (all, or the selected subset in index order),
    concatenated. Full 128-value blocks are decoded per-width in single
    unpackbits/packbits calls — ~20x less Python overhead than a
    per-block loop."""
    sizes_arr = np.asarray(sizes, dtype=np.int64)
    offs, widths = layout if layout is not None \
        else _scan_block_offsets(buf, sizes_arr)
    if sel is None:
        sel = np.arange(len(sizes_arr))
    else:
        sel = np.asarray(sel, dtype=np.int64)
    sel_sizes = sizes_arr[sel]
    out_offs = np.concatenate([[0], np.cumsum(sel_sizes)])
    out = np.empty(int(sel_sizes.sum()), dtype=np.uint32)
    raw = np.frombuffer(buf, dtype=np.uint8)
    sel_widths = widths[sel]
    # registered-format blocks (width tag -1) decode via the per-block
    # path; the vectorized gather below is FOR-width-specific
    full_mask = (sel_sizes == BLOCK_SIZE) & (sel_widths >= 0)
    for w in np.unique(sel_widths):
        grp = np.nonzero((sel_widths == w) & full_mask)[0]
        if len(grp) == 0:
            continue
        if w == 0:
            for gi in grp:
                out[out_offs[gi]:out_offs[gi + 1]] = 0
            continue
        nbytes = (BLOCK_SIZE * int(w) + 7) // 8
        starts = offs[sel[grp]] + 1
        gather = raw[starts[:, None] + np.arange(nbytes)[None, :]]
        bits = np.unpackbits(gather, axis=1)[:, :BLOCK_SIZE * int(w)]
        bits = bits.reshape(len(grp), BLOCK_SIZE, int(w))
        full = np.zeros((len(grp), BLOCK_SIZE, 32), dtype=np.uint8)
        full[:, :, 32 - int(w):] = bits
        vals = np.packbits(full.reshape(len(grp), -1), axis=1) \
            .view(">u4").astype(np.uint32).reshape(len(grp), BLOCK_SIZE)
        # vectorized scatter into the (non-contiguous) output slots
        out[out_offs[grp][:, None] + np.arange(BLOCK_SIZE)[None, :]] = vals
    # tails (and any non-full selected blocks): scalar path
    mv = memoryview(buf)
    for gi in np.nonzero(~full_mask)[0]:
        b = sel[gi]
        vals, _ = _unpack_block(mv, int(offs[b]), int(sizes_arr[b]))
        out[out_offs[gi]:out_offs[gi + 1]] = vals
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


# --- impacts ---------------------------------------------------------------

def _skyline(freqs: np.ndarray, norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Competitive (freq, norm) pairs: no pair with freq>= and norm<=.

    Returns (freqs asc, norms asc) — competitive pairs sorted by norm with
    strictly increasing freq (CompetitiveImpactAccumulator semantics).
    """
    # max freq per distinct norm
    order = np.lexsort((-freqs, norms))
    n_sorted = norms[order]
    f_sorted = freqs[order]
    first = np.ones(len(n_sorted), dtype=bool)
    first[1:] = n_sorted[1:] != n_sorted[:-1]
    nu = n_sorted[first]
    fu = f_sorted[first]  # max freq per norm (first after sort by -freq)
    # keep pairs whose freq exceeds every smaller-norm pair's freq
    cummax = np.maximum.accumulate(fu)
    keep = np.ones(len(fu), dtype=bool)
    keep[1:] = fu[1:] > cummax[:-1]
    fu, nu = fu[keep], nu[keep]
    if len(fu) > MAX_IMPACTS_PER_BLOCK:
        # conservative downsample: per chunk keep (max freq, min norm),
        # which dominates every pair in the chunk (upper bound stays safe)
        idx = np.array_split(np.arange(len(fu)), MAX_IMPACTS_PER_BLOCK)
        fu = np.array([fu[i].max() for i in idx], dtype=fu.dtype)
        nu = np.array([nu[i].min() for i in idx], dtype=nu.dtype)
        # re-skyline after merge (norm mins may now collide/dominate)
        order2 = np.argsort(nu, kind="stable")
        fu, nu = fu[order2], nu[order2]
        cummax = np.maximum.accumulate(fu)
        keep = np.ones(len(fu), dtype=bool)
        keep[1:] = fu[1:] > cummax[:-1]
        fu, nu = fu[keep], nu[keep]
    return fu.astype(np.int32), nu.astype(np.uint8)


def _impacts(F: np.ndarray, Nrm: np.ndarray, bstart: np.ndarray,
             bsize: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Skylines of every block at once: one global lexsort and a
    block-partitioned strict cummax. Only the blocks left with more
    than MAX_IMPACTS_PER_BLOCK pairs are rebuilt, with the capped
    :func:`_skyline`. Returns (freqs, norms, offsets int64[nblocks+1])."""
    block_of_el = np.repeat(np.arange(len(bstart)), bsize)
    order = np.lexsort((-F, Nrm, block_of_el))
    bo, no, fo = block_of_el[order], Nrm[order], F[order]
    first = np.ones(len(bo), dtype=bool)
    first[1:] = (bo[1:] != bo[:-1]) | (no[1:] != no[:-1])
    bo, no, fo = bo[first], no[first], fo[first]
    key = (bo.astype(np.int64) << 32) | fo  # block-partitioned cummax
    cm = np.maximum.accumulate(key)
    keep = np.ones(len(key), dtype=bool)
    keep[1:] = key[1:] > cm[:-1]
    bo, no, fo = bo[keep], no[keep], fo[keep]
    sizes = np.bincount(bo, minlength=len(bstart))
    big = np.nonzero(sizes > MAX_IMPACTS_PER_BLOCK)[0]
    if len(big) == 0:
        return fo, no, _offsets(sizes)
    capped = [_skyline(F[s:s + n], Nrm[s:s + n])
              for s, n in zip(bstart[big].tolist(), bsize[big].tolist())]
    new_sizes = sizes.copy()
    new_sizes[big] = [len(f) for f, _ in capped]
    new_off = _offsets(new_sizes)
    small = np.repeat(sizes <= MAX_IMPACTS_PER_BLOCK, sizes)
    dst = (np.arange(len(fo))
           + np.repeat(new_off[:-1] - _offsets(sizes)[:-1], sizes))[small]
    f_out = np.empty(new_off[-1], dtype=fo.dtype)
    n_out = np.empty(new_off[-1], dtype=no.dtype)
    f_out[dst], n_out[dst] = fo[small], no[small]
    for b, (f, n) in zip(big.tolist(), capped):
        f_out[new_off[b]:new_off[b + 1]] = f
        n_out[new_off[b]:new_off[b + 1]] = n
    return f_out, n_out, new_off


def compute_impacts(freqs: np.ndarray, norms: np.ndarray):
    """Per-128-block impact skylines over aligned (freq, norm) arrays.

    Returns (imp_freqs, imp_norms, imp_offsets) flattened per block.
    """
    F = np.asarray(freqs, dtype=np.int64)
    bstart, bsize, _ = _blocks_of([0, len(F)])
    f, n, off = _impacts(F, np.asarray(norms, dtype=np.uint8), bstart, bsize)
    return f.astype(np.int32), n, off.astype(np.int32)


# --- public pack/unpack ----------------------------------------------------

class _Flat(NamedTuple):
    """Many terms packed into flat per-block buffers."""

    first_block: np.ndarray  # int64[n_terms+1], first block of each term
    docs: np.ndarray  # uint8, every docs block of every term
    docs_offs: np.ndarray  # int64[nblocks+1], byte offset of each block
    freqs: np.ndarray
    freqs_offs: np.ndarray
    block_last: np.ndarray  # int32[nblocks]
    imp_f: np.ndarray
    imp_n: np.ndarray  # uint8
    imp_off: np.ndarray  # int64[nblocks+1]


def _pack_flat(D: np.ndarray, F: np.ndarray, norms, tb: np.ndarray,
               postings_format: str) -> _Flat:
    counts = np.diff(tb)
    if (counts <= 0).any():
        raise ValueError("empty posting")
    # block_last_docs is int32 and each chunk's first delta is stored as
    # uint32; a docID >= 2^31 would silently wrap and corrupt skip data
    if len(D) and (D[tb[1:] - 1].max() >= 2**31 or D[tb[:-1]].min() < 0):
        raise ValueError("docID out of int32 range")
    # freqs read back as int32 (unpack_postings, imp_freqs): 2^31 and up
    # would pack at width 32 and come back negative
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
    imp_f, imp_n, imp_off = _impacts(
        F, np.ascontiguousarray(norms, dtype=np.uint8), bstart, bsize)
    return _Flat(first, docs, docs_offs, freqs, freqs_offs,
                 D[bstart + bsize - 1].astype(np.int32), imp_f, imp_n, imp_off)


def pack_postings(doc_ids: np.ndarray, freqs: np.ndarray,
                  norms: np.ndarray, postings_format: str = "for128",
                  positions: np.ndarray | None = None) -> PackedPostings:
    """Pack one term's postings (one chunk): the kernel of
    :func:`pack_postings_many` over a single term.

    ``doc_ids`` must be strictly increasing int32/int64; ``freqs`` >= 1;
    ``norms`` are the posting docs' norm bytes (for impacts).
    ``positions``: optional absolute positions, ``freqs[i]`` of them per
    posting, in doc order.
    """
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    freqs = np.asarray(freqs, dtype=np.int64)
    f = _pack_flat(doc_ids, freqs, norms, np.array([0, len(doc_ids)]),
                   postings_format)
    p = PackedPostings(
        doc_count=len(doc_ids),
        ttf=int(freqs.sum()),
        docs=f.docs.tobytes(),
        freqs=f.freqs.tobytes(),
        docs_bb=np.diff(f.docs_offs).astype(np.int32),
        freqs_bb=np.diff(f.freqs_offs).astype(np.int32),
        block_last_docs=f.block_last,
        imp_freqs=f.imp_f.astype(np.int32),
        imp_norms=f.imp_n,
        imp_offsets=f.imp_off.astype(np.int32),
        chunk_doc_counts=np.array([len(doc_ids)], dtype=np.int32),
    )
    if positions is None:
        return p
    n_pos = len(positions)
    bufs = pack_positions_many(positions, np.array([0, n_pos]),
                               _offsets(freqs)[:-1])
    return p._replace(positions=bufs[0].as_py(),
                      chunk_occ_counts=np.array([n_pos], np.int64))


def unpack_postings(p: PackedPostings) -> tuple[np.ndarray, np.ndarray]:
    """Decode a (possibly multi-chunk) posting -> (doc_ids int64, freqs int32)."""
    sizes = _block_sizes(p.chunk_doc_counts)
    deltas = _unpack_values(p.docs, sizes,
                            layout=stream_layout(p, "docs")).astype(np.int64)
    freqs = _unpack_values(p.freqs, sizes,
                           layout=stream_layout(p, "freqs")).astype(np.int32)
    # per-chunk cumsum: each chunk's first delta is absolute
    counts = np.asarray(p.chunk_doc_counts, dtype=np.int64)
    docs = np.cumsum(deltas)
    if len(counts) > 1:
        # Each chunk's deltas sum to its last absolute docID, so the global
        # cumsum over-counts chunk j by sum(last_doc of chunks < j).
        blocks_per_chunk = (counts + BLOCK_SIZE - 1) // BLOCK_SIZE
        last_block_idx = np.cumsum(blocks_per_chunk) - 1
        chunk_last = np.asarray(p.block_last_docs, dtype=np.int64)[last_block_idx]
        corr = np.concatenate([[0], np.cumsum(chunk_last[:-1])])
        docs = docs - np.repeat(corr, counts)
    return docs, freqs


def concat_postings(chunks: list[PackedPostings]) -> PackedPostings:
    """Concatenate postings of the SAME term over disjoint, increasing doc
    ranges (segment merge fast path — no unpack/repack).

    Callers must pass chunks ordered by doc range; validated via
    block_last_docs monotonicity.
    """
    if len(chunks) == 1:
        return chunks[0]
    last = -1
    for c in chunks:
        first_block_last = int(c.block_last_docs[0])
        if first_block_last <= last:
            raise ValueError("merge chunks out of doc order / overlapping")
        last = int(c.block_last_docs[-1])
    off_parts = [np.asarray(chunks[0].imp_offsets, dtype=np.int64)]
    base = int(chunks[0].imp_offsets[-1])
    for c in chunks[1:]:
        off_parts.append(np.asarray(c.imp_offsets[1:], dtype=np.int64) + base)
        base += int(c.imp_offsets[-1])
    has_pos = any(len(c.positions) for c in chunks)
    return PackedPostings(
        positions=b"".join(c.positions for c in chunks) if has_pos else b"",
        chunk_occ_counts=(np.concatenate(
            [np.atleast_1d(np.asarray(c.chunk_occ_counts, dtype=np.int64))
             if len(np.atleast_1d(c.chunk_occ_counts)) else
             np.array([c.ttf], dtype=np.int64) for c in chunks])
            if has_pos else np.empty(0, np.int64)),
        doc_count=sum(c.doc_count for c in chunks),
        ttf=sum(c.ttf for c in chunks),
        docs=b"".join(c.docs for c in chunks),
        freqs=b"".join(c.freqs for c in chunks),
        block_last_docs=np.concatenate([c.block_last_docs for c in chunks]),
        imp_freqs=np.concatenate([c.imp_freqs for c in chunks]),
        imp_norms=np.concatenate([c.imp_norms for c in chunks]),
        imp_offsets=np.concatenate(off_parts).astype(np.int32),
        chunk_doc_counts=np.concatenate([c.chunk_doc_counts for c in chunks]),
        # block byte lengths concatenate directly (they are per-block,
        # not cumulative); drop to the scan fallback if any chunk lacks
        # them (legacy data)
        docs_bb=(np.concatenate([c.docs_bb for c in chunks])
                 if all(len(c.docs_bb) for c in chunks)
                 else np.empty(0, np.int32)),
        freqs_bb=(np.concatenate([c.freqs_bb for c in chunks])
                  if all(len(c.freqs_bb) for c in chunks)
                  else np.empty(0, np.int32)),
    )


def repack_postings(p: PackedPostings, norms_lookup) -> PackedPostings:
    """Optimize path: re-block a multi-chunk posting into full 128-doc
    blocks (recomputing impacts from per-doc norms).

    ``norms_lookup(doc_ids) -> uint8 norms`` supplies the norm bytes
    (TieredMergePolicy 'forceMerge' analog).
    """
    docs, freqs = unpack_postings(p)
    return pack_postings(docs, freqs, norms_lookup(docs), positions=(
        unpack_positions(p.positions, p.chunk_occ_counts, freqs)
        if len(p.positions) else None))


# --- batch pack (vectorized across terms) ----------------------------------

POSTINGS_SCHEMA = pa.schema([
    ("term", pa.large_string()),
    ("df", pa.int64()),
    ("ttf", pa.int64()),
    ("doc_count", pa.int64()),
    ("docs", pa.large_binary()),
    ("freqs", pa.large_binary()),
    ("block_last_docs", pa.large_list(pa.int32())),
    ("docs_bb", pa.large_list(pa.int32())),   # per-block byte lengths
    ("freqs_bb", pa.large_list(pa.int32())),  # (skip-pointer analog)
    ("imp_freqs", pa.large_list(pa.int32())),
    ("imp_norms", pa.large_list(pa.int32())),
    ("imp_offsets", pa.large_list(pa.int32())),
    ("chunk_doc_counts", pa.large_list(pa.int32())),
    ("positions", pa.large_binary()),          # empty unless index_positions
    ("chunk_occ_counts", pa.large_list(pa.int64())),
])


def _binary(data: np.ndarray, offsets: np.ndarray) -> pa.Array:
    """large_binary array over one buffer: row i = data[offsets[i]:offsets[i+1]]."""
    return pa.Array.from_buffers(
        pa.large_binary(), len(offsets) - 1,
        [None, pa.py_buffer(np.ascontiguousarray(offsets, dtype=np.int64)),
         pa.py_buffer(np.ascontiguousarray(data))])


def pack_postings_many(doc_ids: np.ndarray, freqs: np.ndarray,
                       norms: np.ndarray, term_bounds: np.ndarray,
                       postings_format: str = "for128", terms=None,
                       positions: np.ndarray | None = None) -> pa.Table:
    """Pack MANY terms' postings in one vectorized pass -> a postings
    table (``POSTINGS_SCHEMA``, one row per term).

    ``doc_ids``/``freqs``/``norms`` are the per-term posting arrays
    concatenated (term j occupies ``term_bounds[j]:term_bounds[j+1]``,
    docs strictly increasing within each term). Each stream is packed
    in one pass over all blocks (full and tail), impact skylines with
    one global lexsort + segmented cummax, and every column is built
    from the flat buffers and offsets. ``terms`` fills the term column
    (null when omitted); ``positions`` (as in :func:`pack_postings`, all
    terms concatenated) fills ``positions``/``chunk_occ_counts``.
    Rows are byte-identical to :func:`pack_postings` per term (tested).
    """
    D = np.ascontiguousarray(doc_ids, dtype=np.int64)
    F = np.ascontiguousarray(freqs, dtype=np.int64)
    tb = np.ascontiguousarray(term_bounds, dtype=np.int64)
    f = _pack_flat(D, F, norms, tb, postings_format)
    n = len(tb) - 1
    fb = f.first_block
    reps = np.diff(fb) + 1  # imp_offsets has nblocks+1 entries per term
    at = np.arange(fb[-1] + n) - np.repeat(np.arange(n), reps)
    occ = _offsets(F)  # positions: occurrence bounds
    lists = {  # name -> (offsets, values)
        "block_last_docs": (fb, f.block_last),
        "docs_bb": (fb, np.diff(f.docs_offs)),
        "freqs_bb": (fb, np.diff(f.freqs_offs)),
        "imp_freqs": (f.imp_off[fb], f.imp_f),
        "imp_norms": (f.imp_off[fb], f.imp_n),
        "imp_offsets": (fb + np.arange(n + 1),
                        f.imp_off[at] - np.repeat(f.imp_off[fb[:-1]], reps)),
        "chunk_doc_counts": (np.arange(n + 1), np.diff(tb)),
        "chunk_occ_counts": ((np.zeros(n + 1, np.int64), np.empty(0))
                             if positions is None else
                             (np.arange(n + 1), np.diff(occ[tb]))),
    }
    counts = pa.array(np.diff(tb))
    cols = {
        "term": (pa.nulls(n, pa.large_string()) if terms is None
                 else pa.array(terms, pa.large_string())),
        "df": counts,
        "ttf": pa.array(np.diff(occ[tb])),
        "doc_count": counts,
        "docs": _binary(f.docs, f.docs_offs[fb]),
        "freqs": _binary(f.freqs, f.freqs_offs[fb]),
        "positions": (_binary(np.empty(0, np.uint8), np.zeros(n + 1))
                      if positions is None else
                      pack_positions_many(positions, occ[tb], occ[:-1])),
    }
    for name, (offs, vals) in lists.items():
        typ = POSTINGS_SCHEMA.field(name).type.value_type
        cols[name] = pa.LargeListArray.from_arrays(
            pa.array(offs, pa.int64()),
            pa.array(np.asarray(vals).astype(f"i{typ.byte_width}"), typ))
    return pa.Table.from_arrays([cols[k] for k in POSTINGS_SCHEMA.names],
                                schema=POSTINGS_SCHEMA)


# --- positional postings (PhraseQuery support) -----------------------------
# Layout per term: all occurrences ordered by (doc, position), positions
# delta-encoded with a reset (absolute value) at each posting/doc
# boundary, FOR-packed in 128-value blocks per term chunk. Mirrors the
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


def unpack_positions(buf: bytes, chunk_occ_counts: np.ndarray,
                     freqs: np.ndarray) -> np.ndarray:
    """Decode one term's position stream.

    ``chunk_occ_counts``: occurrences per chunk (blocking layout);
    ``freqs``: the term's per-posting freqs (posting boundaries = delta
    resets). Returns absolute positions, flat (slice by cumsum(freqs)).
    """
    sizes = _block_sizes(chunk_occ_counts)
    delta = _unpack_values(buf, sizes).astype(np.int64)
    freqs = np.asarray(freqs, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(freqs)[:-1]])
    group_last = np.add.reduceat(delta, starts)
    corr = np.concatenate([[0], np.cumsum(group_last[:-1])])
    return np.cumsum(delta) - np.repeat(corr, freqs)


def concat_position_chunks(bufs: list[bytes],
                           occ_counts: list[int]) -> tuple[bytes, np.ndarray]:
    """Merge path: concatenate per-chunk packed position streams."""
    return b"".join(bufs), np.asarray(occ_counts, dtype=np.int64)
