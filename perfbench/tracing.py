"""Layer spans and counters, recorded from outside the program.

Nothing in ``lucene_ray`` knows about this module. Each wrapper replaces
a function at the name its caller looks it up under (a module global,
or a class attribute) and records a span or a counter around the
original call:

* the benchmark process (``ProcessTrace``): the local query path (search,
  reader, codecs) and, through ``wrap``, the term-stats leg of the build;
* Ray worker processes (``install_worker``, run as Ray's
  ``worker_process_setup_hook``): the per-segment build leg inside
  ``SegmentIndexer`` and the per-worker leg of ``RaySearcher``. Workers
  append one JSON line per segment / per worker query to a file in
  ``$PERFBENCH_TRACE_DIR``; the benchmark process reads them after
  the run.

Timestamps are ``time.monotonic()``, which on Linux is one clock for
every process on the host, so worker spans line up with the benchmark
process's spans.
"""

from __future__ import annotations

import json
import os
import threading
import time

import numpy as np

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


def _patch(owner, name: str, make):
    """Replace ``owner.name`` by ``make(original)``; return an undo."""
    orig = getattr(owner, name)
    setattr(owner, name, make(orig))
    return lambda: setattr(owner, name, orig)


class ProcessTrace:
    """In-memory spans and counters for the benchmark's own process.

    Spans are ``(name, t0, t1)``; the query-path wrappers also bump
    exact counters. ``install`` patches, ``uninstall`` restores the
    original functions, so an untraced phase runs the unwrapped code.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float]] = []
        self.counts: dict[str, int] = {}
        # per query: id(stream buffer) -> (buffer, mask of decoded blocks)
        self._streams: dict[int, tuple] = {}
        self._lock = threading.Lock()
        self._undo: list = []

    # -- recording ----------------------------------------------------------
    def add(self, name: str, t0: float, t1: float) -> None:
        self.spans.append((name, t0, t1))  # list.append is atomic

    def bump(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def end_query(self) -> None:
        """Fold the query's block masks into the skip-fraction counts:
        blocks of the streams the decoder touched, and how many of them
        it decoded at least once."""
        masks = [m for _, m in self._streams.values()]
        self.bump("codecs.blocks_available", sum(len(m) for m in masks))
        self.bump("codecs.blocks_touched", sum(int(m.sum()) for m in masks))
        self._streams.clear()

    # -- patching -----------------------------------------------------------
    def wrap(self, owner, name: str, span: str) -> None:
        """Record a span named ``span`` around every ``owner.name`` call."""
        def make(orig):
            def wrapper(*a, **kw):
                t0 = time.monotonic()
                try:
                    return orig(*a, **kw)
                finally:
                    self.add(span, t0, time.monotonic())
            return wrapper
        self._undo.append(_patch(owner, name, make))

    def install(self) -> None:
        """Wrap the local query path: search, reader, block decode."""
        if self._undo:
            return
        from lucene_ray.codecs import postings as codecs_postings
        from lucene_ray.search import reader as reader_mod
        from lucene_ray.search import searcher as searcher_mod

        tr = self

        def ensure_terms(orig):
            def wrapper(sr, terms):
                # (segment, term) pairs this call must look up on disk:
                # neither resident in the postings LRU nor known absent
                need = [t for t in dict.fromkeys(terms)
                        if t not in sr._cache and t not in sr._absent]
                t0 = time.monotonic()
                try:
                    return orig(sr, terms)
                finally:
                    tr.add("reader.ensure_terms", t0, time.monotonic())
                    if need:
                        tr.bump("reader.pairs_missed", len(need))
                        tr.bump("reader.rows_useful",
                                sum(1 for t in need if t in sr._cache))
            return wrapper

        def unpack_values(orig):
            def wrapper(buf, sizes, *a, **kw):
                sel = kw.get("sel", a[0] if a else None)
                t0 = time.monotonic()
                try:
                    return orig(buf, sizes, *a, **kw)
                finally:
                    tr.add("codecs.decode", t0, time.monotonic())
                    # the buffer is kept until end_query, so its id
                    # cannot be reused by another stream meanwhile
                    got = tr._streams.get(id(buf))
                    if got is None:
                        got = tr._streams[id(buf)] = (
                            buf, np.zeros(len(sizes), bool))
                    got[1][slice(None) if sel is None else sel] = True
                    tr.bump("codecs.blocks_decoded",
                            len(sizes) if sel is None else len(sel))
            return wrapper

        self.wrap(searcher_mod.Searcher, "search", "search.search")
        self.wrap(reader_mod.IndexReader, "term_stats", "reader.term_stats")
        self._undo += [
            _patch(reader_mod.SegmentReader, "ensure_terms", ensure_terms),
            _patch(codecs_postings, "_unpack_values", unpack_values),
        ]

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo = []


# -- worker side ------------------------------------------------------------

class _ParquetProxy:
    """Stands in for ``pyarrow.parquet`` inside ``index.builder`` so the
    segment's Parquet writes are timed; everything else passes through."""

    def __init__(self, module, acc: dict):
        self._module = module
        self._acc = acc

    def __getattr__(self, name):
        return getattr(self._module, name)

    def write_table(self, *a, **kw):
        t0 = time.monotonic()
        try:
            return self._module.write_table(*a, **kw)
        finally:
            self._acc["write_s"] += time.monotonic() - t0


def _emit(record: dict) -> None:
    d = os.environ.get(TRACE_DIR_ENV)
    if not d:
        return
    with open(os.path.join(d, f"w-{os.getpid()}.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")


def install_worker() -> None:
    """``worker_process_setup_hook``: wrap the build and serving legs
    that run inside Ray workers. Runs once per worker process."""
    if not os.environ.get(TRACE_DIR_ENV):
        return
    from lucene_ray.codecs import postings as codecs_postings
    from lucene_ray.index import builder
    from lucene_ray.search import searcher as searcher_mod

    acc = {"tokenize_s": 0.0, "pack_s": 0.0, "write_s": 0.0,
           "pack_block_calls": 0}

    def adding(key):
        def make(orig):
            def wrapper(*a, **kw):
                t0 = time.monotonic()
                try:
                    return orig(*a, **kw)
                finally:
                    acc[key] += time.monotonic() - t0
            return wrapper
        return make

    def counting(orig):
        def wrapper(*a, **kw):
            acc["pack_block_calls"] += 1
            return orig(*a, **kw)
        return wrapper

    def segment_call(orig):
        def wrapper(self, batch):
            for k in acc:
                acc[k] = 0
            t0 = time.monotonic()
            out = orig(self, batch)
            t1 = time.monotonic()
            _emit({"kind": "segment", "t0": t0, "t1": t1,
                   "pid": os.getpid(), "n_docs": len(batch), **acc})
            return out
        return wrapper

    def worker_search(orig):
        def wrapper(self, q, k=10, *, threshold_cb=None, publish_cb=None):
            calls = {"thr": 0, "pub": 0}
            if threshold_cb is not None:
                inner_thr = threshold_cb

                def threshold_cb():
                    calls["thr"] += 1
                    return inner_thr()
            if publish_cb is not None:
                inner_pub = publish_cb

                def publish_cb(v):
                    calls["pub"] += 1
                    return inner_pub(v)
            t0 = time.monotonic()
            out = orig(self, q, k, threshold_cb=threshold_cb,
                       publish_cb=publish_cb)
            _emit({"kind": "worker_search", "t0": t0, "t1": time.monotonic(),
                   "pid": os.getpid(), "floor_gets": calls["thr"],
                   "floor_puts": calls["pub"]})
            return out
        return wrapper

    _patch(builder, "_tokenize_batch_arrow", adding("tokenize_s"))
    _patch(builder, "pack_postings_many", adding("pack_s"))
    builder.pq = _ParquetProxy(builder.pq, acc)
    _patch(codecs_postings, "_pack_block", counting)
    _patch(builder.SegmentIndexer, "__call__", segment_call)
    _patch(searcher_mod.Searcher, "search", worker_search)


def read_worker_records(trace_dir: str) -> list[dict]:
    out = []
    if not os.path.isdir(trace_dir):
        return out
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("w-") and name.endswith(".jsonl"):
            with open(os.path.join(trace_dir, name)) as f:
                out.extend(json.loads(line) for line in f if line.strip())
    return out


def union_length(intervals) -> float:
    """Total length covered by a set of (t0, t1) intervals."""
    total = 0.0
    end = float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def clip(intervals, lo: float, hi: float):
    return [(max(a, lo), min(b, hi)) for a, b in intervals
            if b > lo and a < hi]
