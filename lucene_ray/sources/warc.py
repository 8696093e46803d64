"""WARC (Web ARChive, ISO 28500) ingestion — the Common Crawl
container format, the on-disk shape of the input_hint's
``(url, warc_ts, html)`` table.

Implemented from the published WARC/1.0+1.1 specification and the
Common Crawl layout: each record is headers (``WARC/1.0`` version
line, ``Name: value`` fields, blank line) + ``Content-Length`` body
bytes + CRLF CRLF; ``response`` records carry an embedded HTTP
response (``Content-Type: application/http``) whose body after the
header block is the page's HTML. Crawl files are per-record-gzipped
member streams (each record its own gzip member, so readers can seek
between members) — handled via stdlib zlib multi-member inflate.

Scale shape: ``read_warc`` maps whole WARC files (Common Crawl ships
~1 GB gzip members) through an actor-pool ``map_batches`` extraction —
one input file = one task; partitioned crawl listings parallelize
across the cluster, and the extracted (url, warc_ts, html) batches
stream into downstream stages with backpressure (the reference-role
benchmark content sources read documents the same one-file-per-task
way).
"""

from __future__ import annotations

import gzip
import io
import zlib
from datetime import datetime, timezone

import numpy as np
import pyarrow as pa

from ..util import stage_pool

_CRLF = b"\r\n"


# --- writer (synthetic fixtures + round-trip tests) --------------------------


def warc_record_bytes(url: str, ts: str, html: bytes,
                      compress: bool = True) -> bytes:
    """One WARC/1.0 ``response`` record wrapping an HTTP response,
    optionally as its own gzip member (the Common Crawl layout)."""
    http = (b"HTTP/1.1 200 OK" + _CRLF
            + b"Content-Type: text/html; charset=UTF-8" + _CRLF
            + b"Content-Length: " + str(len(html)).encode() + _CRLF
            + _CRLF + html)
    hdr = (b"WARC/1.0" + _CRLF
           + b"WARC-Type: response" + _CRLF
           + b"WARC-Target-URI: " + url.encode() + _CRLF
           + b"WARC-Date: " + ts.encode() + _CRLF
           + b"Content-Type: application/http; msgtype=response" + _CRLF
           + b"Content-Length: " + str(len(http)).encode() + _CRLF
           + _CRLF)
    rec = hdr + http + _CRLF + _CRLF
    if not compress:
        return rec
    buf = io.BytesIO()
    # mtime=0 keeps fixture bytes deterministic
    with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as gz:
        gz.write(rec)
    return buf.getvalue()


def write_warc(path: str, records: list[tuple[str, str, bytes]],
               compress: bool = True) -> None:
    """records = [(url, iso_ts, html bytes)] -> one WARC file."""
    with open(path, "wb") as f:
        for url, ts, html in records:
            f.write(warc_record_bytes(url, ts, html, compress=compress))


# --- parser -------------------------------------------------------------------


def _inflate_members(blob: bytes) -> bytes:
    """Concatenated gzip members -> concatenated plaintext (stdlib
    zlib loop over ``unused_data``); plain input passes through."""
    if blob[:2] != b"\x1f\x8b":
        return blob
    out = []
    data = blob
    while data[:2] == b"\x1f\x8b":
        d = zlib.decompressobj(wbits=31)
        out.append(d.decompress(data))
        out.append(d.flush())
        data = d.unused_data
    return b"".join(out)


def parse_warc(blob: bytes) -> list[dict]:
    """WARC file bytes (gzip-membered or plain) -> list of
    ``{url, warc_ts, warc_type, html}`` for response records (other
    record types — warcinfo, request, metadata — are skipped, as a
    text pipeline would)."""
    raw = _inflate_members(blob)
    out = []
    pos = 0
    n = len(raw)
    while pos < n:
        # skip inter-record CRLFs
        while pos < n and raw[pos:pos + 2] == _CRLF:
            pos += 2
        if pos >= n:
            break
        if not raw.startswith(b"WARC/", pos):
            raise ValueError(f"bad WARC record at offset {pos}")
        hdr_end = raw.index(_CRLF + _CRLF, pos)
        headers = {}
        for line in raw[pos:hdr_end].split(_CRLF)[1:]:
            k, _, v = line.partition(b":")
            headers[k.strip().lower()] = v.strip()
        clen = int(headers[b"content-length"])
        body = raw[hdr_end + 4:hdr_end + 4 + clen]
        pos = hdr_end + 4 + clen
        wtype = headers.get(b"warc-type", b"").decode()
        if wtype != "response":
            continue
        ctype = headers.get(b"content-type", b"")
        if ctype.startswith(b"application/http"):
            # embedded HTTP response: html is the body after the
            # HTTP header block
            sep = body.find(_CRLF + _CRLF)
            html = body[sep + 4:] if sep >= 0 else body
        else:
            html = body
        out.append({
            "url": headers.get(b"warc-target-uri", b"").decode(),
            "warc_ts": headers.get(b"warc-date", b"").decode(),
            "warc_type": wtype,
            "html": html,
        })
    return out


def _ts_to_timestamp(ts: str):
    try:
        return datetime.fromisoformat(ts.replace("Z", "+00:00")) \
            .astimezone(timezone.utc).replace(tzinfo=None)
    except ValueError:
        return None


class _WarcExtract:
    """Actor-pool stage: one (path, file bytes) row per input WARC
    file -> (url, warc_ts, html) rows. Stateless but actor-pooled so
    big files decompress off the driver with bounded concurrency."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls, tss, htmls = [], [], []
        for blob in batch.column("bytes").to_pylist():
            for rec in parse_warc(blob):
                urls.append(rec["url"])
                tss.append(_ts_to_timestamp(rec["warc_ts"]))
                htmls.append(rec["html"])
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(tss, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
        })


def read_warc(paths, *, concurrency=None):
    """WARC file paths -> streaming ``ray.data.Dataset`` of
    (url:string, warc_ts:timestamp, html:binary) — the input_hint
    table shape, ready for ``webtext.extract_pages_text`` /
    ``build_index``."""
    import ray.data

    ds = ray.data.read_binary_files(paths)
    return ds.map_batches(_WarcExtract, batch_format="pyarrow",
                          batch_size=1, concurrency=stage_pool(concurrency))
