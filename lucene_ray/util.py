"""Shared Ray helpers."""

from __future__ import annotations

import ray


_PROCESS_CACHE: dict = {}


def cached_callable(cls, **kwargs):
    """Wrap a callable class for TASK-based ``map_batches``: the instance
    is built lazily once per worker process and reused across tasks —
    the same state-amortization as an actor pool, without a pool's
    CPU reservation (pools deadlock when several stages each demand a
    full-cluster pool, e.g. a union of branches sharing one stage)."""
    key_kwargs = tuple(sorted(kwargs.items(), key=lambda kv: kv[0]))

    def fn(batch):
        key = (cls.__module__, cls.__qualname__, key_kwargs)
        inst = _PROCESS_CACHE.get(key)
        if inst is None:
            inst = _PROCESS_CACHE[key] = cls(**kwargs)
        return inst(batch)

    fn.__name__ = f"cached_{cls.__name__}"
    return fn


def default_concurrency() -> int:
    """Fixed actor-pool size ~80% of cluster CPUs for the stages that
    keep per-actor state (multi-field and resumable builds, multimodal
    and monitor pipelines): the remaining slots feed the upstream
    read/split stage (a pool equal to num_cpus deadlocks the streaming
    executor; leaving just one slot serializes reads and caps scaling).
    Fixed pools also ramp ~2x faster than autoscaling (1, n) pools on
    short jobs. ``build_index`` does not use it: its segment stage runs
    as tasks, sized by Ray Data unless the caller passes
    ``concurrency``; ``stage_pool`` uses it as the cap of the other
    stateful stages' autoscaling pools. ``LUCENE_RAY_POOL`` overrides
    the size."""
    import os
    override = os.environ.get("LUCENE_RAY_POOL")
    if override:
        return max(1, int(override))
    cpus = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    return max(1, min(cpus - 1, int(cpus * 0.8)))


def stage_pool(concurrency=None):
    """``concurrency=`` for a stateful (actor-pool) ``map_batches`` stage:
    the caller's override when given, else a pool that autoscales from
    1 to ``default_concurrency()`` actors, so it grows with the cluster
    while stages that run side by side each reserve only one CPU."""
    return (1, default_concurrency()) if concurrency is None else concurrency


def term_hash64(terms) -> "np.ndarray":
    """Stable 64-bit hashes for term-membership fingerprints (the
    term-dictionary bloom/FST-presence role). blake2b-8 per term."""
    import hashlib

    import numpy as np
    out = np.empty(len(terms), dtype=np.uint64)
    for i, t in enumerate(terms):
        out[i] = int.from_bytes(
            hashlib.blake2b(t.encode(), digest_size=8).digest(), "little")
    return out


_CRC32_TABLE = None


def _crc32_table():
    global _CRC32_TABLE
    if _CRC32_TABLE is None:
        import numpy as np
        t = np.empty(256, dtype=np.uint32)
        for i in range(256):
            c = i
            for _ in range(8):
                c = (c >> 1) ^ 0xEDB88320 if (c & 1) else c >> 1
            t[i] = c
        _CRC32_TABLE = t
    return _CRC32_TABLE


def crc32_batch(arr) -> "np.ndarray":
    """Vectorized ``zlib.crc32`` over a batch of strings -> uint32 array.

    Bit-identical to ``zlib.crc32(s.encode())`` per element, but instead
    of one Python call per row it runs the table-driven CRC across ALL
    strings simultaneously: iteration j advances the CRC of every string
    that still has a j-th byte (strings sorted by length so the active
    set is a suffix — numpy slicing, no masks). Cost is
    O(max_len) numpy passes instead of O(n_rows) Python calls; this is
    the shuffle-key kernel for the term-partitioned merge and hash
    routing (the FST-hash role, blocktree term routing analog).
    """
    import numpy as np
    import pyarrow as pa

    if not isinstance(arr, (pa.Array, pa.ChunkedArray)):
        arr = pa.array(list(arr), pa.large_string())
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_string(arr.type):
        arr = arr.cast(pa.large_string())
    n = len(arr)
    if n == 0:
        return np.empty(0, dtype=np.uint32)
    bufs = arr.buffers()
    offsets = np.frombuffer(bufs[1], dtype=np.int64)[
        arr.offset:arr.offset + n + 1]
    data = np.frombuffer(bufs[2], dtype=np.uint8)
    starts = offsets[:-1].astype(np.int64)
    lens = (offsets[1:] - offsets[:-1]).astype(np.int64)
    order = np.argsort(lens, kind="stable")
    s = starts[order]
    ln = lens[order]
    crc = np.full(n, 0xFFFFFFFF, dtype=np.uint32)
    tab = _crc32_table()
    max_len = int(ln[-1]) if n else 0
    for j in range(max_len):
        k = int(np.searchsorted(ln, j, side="right"))
        b = data[s[k:] + j]
        c = crc[k:]
        crc[k:] = (c >> 8) ^ tab[(c ^ b) & 0xFF]
    out = np.empty(n, dtype=np.uint32)
    out[order] = crc ^ np.uint32(0xFFFFFFFF)
    return out
