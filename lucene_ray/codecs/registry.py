"""Pluggable postings-encoder registry — the PerFieldPostingsFormat /
PostingsFormat SPI analog (``codecs/perfield/PerFieldPostingsFormat.java
:65,228``, ``codecs/PostingsFormat.java`` NamedSPILoader registration).

Every postings block is SELF-DESCRIBING: its first byte is either a
FOR bit-width (0..32 — the default ``for128`` delta+FOR codec, the
Lucene90 ForUtil role) or a registered format tag (>= 64), followed by
a u16 payload length (so header-only scans can skip blocks without
decoding) and the format's payload. Because the tag travels with the
data, readers need no side-channel: segments built with different
per-field formats decode transparently — exactly the property
PerFieldPostingsFormat's per-field file suffixes buy the reference. A
merge decodes every source block, whatever its format, and writes the
merged postings as ``for128``.

Register a custom format with :func:`register_postings_format`; select
it per build/field via ``build_index(postings_format=...)`` /
``build_multi_field_index(fields_formats=...)``.
"""

from __future__ import annotations

import struct

import numpy as np

# name -> (tag, encode(vals: uint32[]) -> payload bytes,
#          decode(payload: bytes, n: int) -> uint32[])
_FORMATS: dict[str, tuple] = {}
_DECODERS: dict[int, tuple] = {}

FOR128 = "for128"  # built-in bit-width codec; tags 0..32 are widths


def register_postings_format(name: str, tag: int, encode, decode) -> None:
    """Register an alternative block codec. ``tag`` must be >= 64 and
    unique (0..32 are FOR widths; 33..63 reserved)."""
    if tag < 64 or tag > 255:
        raise ValueError(f"format tag must be in [64, 255], got {tag}")
    if name in _FORMATS or tag in _DECODERS:
        prev = _FORMATS.get(name)
        if prev is not None and prev[0] == tag:
            return  # idempotent re-register
        raise ValueError(f"postings format {name!r}/tag {tag} taken")
    _FORMATS[name] = (tag, encode, decode)
    _DECODERS[tag] = (name, decode)


def get_format(name: str):
    if name == FOR128:
        return None
    if name not in _FORMATS:
        raise KeyError(
            f"unknown postings format {name!r}; registered: "
            f"{[FOR128, *_FORMATS]}")
    return _FORMATS[name]


def get_decoder(tag: int):
    if tag not in _DECODERS:
        raise ValueError(f"block with unregistered format tag {tag}")
    return _DECODERS[tag][1]


def wrap_block(tag: int, payload: bytes) -> bytes:
    return bytes([tag]) + struct.pack("<H", len(payload)) + payload


# --- built-in alternative: LEB128 varint (vectorized) ---------------------

def _vint_encode(vals: np.ndarray) -> bytes:
    v = vals.astype(np.uint64)
    nb = np.ones(len(v), dtype=np.int64)
    for k in range(1, 5):
        nb += (v >= (np.uint64(1) << np.uint64(7 * k)))
    out = np.zeros(int(nb.sum()), dtype=np.uint8)
    pos = np.concatenate([[0], np.cumsum(nb)[:-1]])
    for k in range(5):
        m = nb > k
        if not m.any():
            break
        idx = pos[m] + k
        byte = ((v[m] >> np.uint64(7 * k)) & np.uint64(0x7F)) \
            .astype(np.uint8)
        cont = ((nb[m] > k + 1).astype(np.uint8)) << 7
        out[idx] = byte | cont
    return out.tobytes()


def _vint_decode(payload, n: int) -> np.ndarray:
    b = np.frombuffer(payload, dtype=np.uint8)
    ends = np.nonzero((b & 0x80) == 0)[0][:n]
    starts = np.concatenate([[0], ends[:-1] + 1]) if n else \
        np.empty(0, np.int64)
    vals = np.zeros(n, dtype=np.uint64)
    for k in range(5):
        idx = starts + k
        m = idx <= ends
        if not m.any():
            break
        vals[m] |= (b[idx[m]] & np.uint8(0x7F)).astype(np.uint64) \
            << np.uint64(7 * k)
    return vals.astype(np.uint32)


register_postings_format("vint", 65, _vint_encode, _vint_decode)


# --- built-in alternative: PFOR (patched FOR, PForUtil role) ---------------
# Lucene's actual Lucene90 postings block codec (``codecs/lucene90/
# PForUtil.java:29``): values are bit-packed at the width of the
# (n - up to 7 exceptions)-th largest value; the few largest values
# ("exceptions") store their overflow bits patched back at decode.
# Payload: [base_width u8][n_exc u8][packed base bits]
#          [n_exc x (pos u8, hi u32le)]

_MAX_EXCEPTIONS = 7


def _pfor_encode(vals: np.ndarray) -> bytes:
    v = vals.astype(np.uint32)
    n = len(v)
    if n == 0:
        return b"\x00\x00"
    # choose the exception count that minimizes payload bytes
    order = np.argsort(v, kind="stable")
    best = None
    for ne in range(min(_MAX_EXCEPTIONS, n - 1) + 1):
        base_max = int(v[order[n - 1 - ne]])
        w = base_max.bit_length()
        size = 2 + (n * w + 7) // 8 + ne * 5
        if best is None or size < best[0]:
            best = (size, ne, w)
    _, ne, w = best
    exc_idx = np.sort(order[n - ne:]) if ne else np.empty(0, np.int64)
    base = v.copy()
    hi = np.zeros(ne, dtype=np.uint32)
    if ne:
        mask = np.uint32((1 << w) - 1) if w else np.uint32(0)
        hi = v[exc_idx] >> np.uint32(w)
        base[exc_idx] = v[exc_idx] & mask
    if w:
        bits = np.unpackbits(base.astype(">u4").view(np.uint8)
                             .reshape(n, 4), axis=1)
        packed = np.packbits(bits[:, 32 - w:]).tobytes()
    else:
        packed = b""
    exc = b"".join(bytes([int(p)]) + struct.pack("<I", int(h))
                   for p, h in zip(exc_idx, hi))
    return bytes([w, ne]) + packed + exc


def _pfor_decode(payload: bytes, n: int) -> np.ndarray:
    if n == 0:
        return np.empty(0, np.uint32)
    w = payload[0]
    ne = payload[1]
    if w:
        nbytes = (n * w + 7) // 8
        bits = np.unpackbits(np.frombuffer(payload, np.uint8,
                                           count=nbytes, offset=2),
                             count=n * w).reshape(n, w)
        full = np.zeros((n, 32), dtype=np.uint8)
        full[:, 32 - w:] = bits
        vals = np.packbits(full, axis=1).view(">u4").reshape(n) \
            .astype(np.uint32)
    else:
        nbytes = 0
        vals = np.zeros(n, dtype=np.uint32)
    off = 2 + nbytes
    for i in range(ne):
        p = payload[off + i * 5]
        hi = struct.unpack_from("<I", payload, off + i * 5 + 1)[0]
        vals[p] |= np.uint32(hi) << np.uint32(w)
    return vals


register_postings_format("pfor", 67, _pfor_encode, _pfor_decode)
