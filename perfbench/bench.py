"""One benchmark run: set up, measure one workload, check, report.

``python3 -m perfbench.bench --workload W --seed N --seconds S --trace T
--work-dir D`` (normally started by ``perfbench/run.py``, which bounds
its wall time). Prints a JSON info line, then the result line.

Workloads share one seeded corpus (``write_pages``) and one set-up:
Ray at ``num_cpus=4``, corpus generation, and ``build_index`` +
``merge_segments``. The load is closed-loop with one client thread and
no think time. See DESIGN.md for the reasons and predictions.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import sys
import time

import numpy as np

from perfbench import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

NUM_CPUS = 4
K = 10
SEGS_PER_TIER = 8
QUERY_TIMEOUT_S = 5.0   # a query slower than this counts as failed
# The client thread moves to the next CPU of its affinity set this often
# during the timed loop. On a shared host, other tenants slow each CPU
# separately (their per-second speeds correlate only weakly), and a
# thread left to the scheduler stays on one CPU for seconds at a time,
# so a run would measure whichever CPU it landed on. Visiting every CPU
# in turn averages them: in 8 s hot loops on a shared 4-CPU host,
# IQR/median over seven runs fell from about 0.3 to 0.08.
CPU_TURN_S = 0.05

SCALES = {
    # 10 segments -> 2 merged segments (8 + 2) at segs_per_tier=8
    "full": dict(n_terms=100_000, segment_docs=512, segments=10, head=256,
                 min_queries=200, warm_queries=100, dist_queries=200,
                 check_sample=30, exact_prefix=100),
    "tiny": dict(n_terms=100_000, segment_docs=48, segments=10, head=64,
                 min_queries=20, warm_queries=20, dist_queries=20,
                 check_sample=8, exact_prefix=10),
}

WORKLOADS = ("query_hot", "query_miss")


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def host_probe_gbps() -> float:
    """Fresh-allocation copy bandwidth in GB/s: a per-run stamp of the
    host's condition. Diagnostic only, never used to scale a metric."""
    a = np.ones(8_000_000)
    t0 = time.perf_counter()
    for _ in range(3):
        a.copy()
    return round(3 * a.nbytes / 1e9 / (time.perf_counter() - t0), 2)


def host_probe_cpu_ms() -> float:
    """Median of 5 timings of a fixed pure-Python loop, in ms: a stamp of
    the host's single-core speed at that moment. Diagnostic only."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        s = 0
        for i in range(200_000):
            s += i * i % 7
        times.append(time.perf_counter() - t0)
    return round(1e3 * statistics.median(times), 2)


# -- Ray --------------------------------------------------------------------

# Ray's session files live in the run's work dir under the checkout,
# which run.py removes. Ray puts its Unix sockets about 64 bytes below
# its temp dir and refuses paths over 107 bytes, so the temp dir is named
# through /proc/self/cwd: short whatever the checkout's path, and it
# resolves to the checkout in every Ray process, because they all inherit
# the benchmark's working directory (``start_ray`` sets it to ROOT). Each
# run has its own temp dir, so its Ray processes are told apart from those
# of any other run in the same checkout.
def ray_temp_dir(work: str) -> str:
    rel = os.path.relpath(os.path.realpath(work), os.path.realpath(ROOT))
    if rel.startswith(".."):
        raise ValueError(f"work dir {work} is not inside {ROOT}")
    return f"/proc/self/cwd/{rel}/ray"


# Ray sizes its object store from the host's free memory unless told;
# this run moves a few MB through it.
OBJECT_STORE_BYTES = 512 * 1024 * 1024


def start_ray(trace_dir: str | None, work: str):
    # Ray sends no usage report, and its memory monitor, which reads the
    # whole host's memory, kills no worker for what other tenants of a
    # shared host use
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.environ.setdefault("RAY_memory_monitor_refresh_ms", "0")
    import ray
    os.chdir(ROOT)
    env = {"PYTHONPATH": ROOT}
    runtime_env: dict = {"env_vars": env}
    if trace_dir is not None:
        env[tracing.TRACE_DIR_ENV] = trace_dir
        runtime_env["worker_process_setup_hook"] = \
            "perfbench.tracing.install_worker"
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             log_to_driver=False, logging_level="ERROR",
             object_store_memory=OBJECT_STORE_BYTES,
             runtime_env=runtime_env, _temp_dir=ray_temp_dir(work))
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    import logging
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    # start and import into NUM_CPUS workers while the corpus is being
    # generated; a worker that cannot import lucene_ray fails here
    # instead of restarting forever inside the actor pool
    prewarm = ray.remote(num_cpus=1)(_prewarm)
    return [prewarm.remote() for _ in range(NUM_CPUS)]


def wait_first_worker(prewarm) -> None:
    """Fail fast: one worker must import lucene_ray within 120 s. The
    other prewarm tasks finish while the build starts."""
    import ray
    ready, _ = ray.wait(prewarm, num_returns=1, timeout=120)
    if not ready:
        raise RuntimeError("no Ray worker imported lucene_ray in 120 s")
    ray.get(ready)


def _prewarm() -> int:
    import lucene_ray.index.builder  # noqa: F401
    import lucene_ray.index.merge  # noqa: F401
    import lucene_ray.search.distributed  # noqa: F401
    return os.getpid()


def stop_ray(work: str) -> None:
    import ray
    ray.shutdown()
    wait_ray_gone(work, 20.0)


def ray_pids(work: str) -> list[int]:
    """Processes of the Ray session of the run in ``work``: they name its
    temp dir on their command line and run in ROOT."""
    tag = ray_temp_dir(work).encode()
    out = []
    me = os.getpid()
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == me:
            continue
        try:
            with open(f"/proc/{name}/cmdline", "rb") as f:
                mine = tag in f.read()
            if mine and os.readlink(f"/proc/{name}/cwd") == \
                    os.path.realpath(ROOT):
                out.append(int(name))
        except OSError:
            pass
    return out


def wait_ray_gone(work: str, timeout: float) -> None:
    """Wait for the Ray session's processes to exit; kill leftovers."""
    deadline = time.monotonic() + timeout
    while ray_pids(work) and time.monotonic() < deadline:
        time.sleep(0.2)
    for pid in ray_pids(work):
        try:
            os.kill(pid, 9)
        except OSError:
            pass
    while ray_pids(work) and time.monotonic() < deadline + 5:
        time.sleep(0.1)


# -- corpus and queries -------------------------------------------------------

def make_corpus(work: str, seed: int, cfg: dict) -> tuple[list[str], int]:
    from lucene_ray.sources import write_pages
    n_docs = cfg["segment_docs"] * cfg["segments"]
    paths = write_pages(os.path.join(work, "corpus"), n_docs, seed=seed,
                        n_terms=cfg["n_terms"])
    return paths, n_docs


def rank_terms(paths: list[str]) -> list[str]:
    """Vocabulary words ranked by corpus frequency (desc, then term):
    the benchmark's own count over the generated text, independent of
    the index under test."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    text = pq.read_table(paths, columns=["text"]).column("text")
    toks = pc.list_flatten(pc.utf8_split_whitespace(text))
    vc = pc.value_counts(toks)
    values = vc.field("values")
    counts = vc.field("counts").to_numpy()
    words = pc.match_substring_regex(values, r"^[a-z]+$").to_numpy(
        zero_copy_only=False)
    values = np.asarray(values.to_pylist(), dtype=object)[words]
    counts = counts[words]
    order = np.lexsort((values, -counts))
    return values[order].tolist()


def make_queries(pool: list[str], n: int, rng: np.random.Generator) -> list:
    """Term / AND / OR mix in equal shares; AND and OR take 2-4 terms."""
    from lucene_ray.search import TermQuery, and_query, or_query
    out = []
    for _ in range(n):
        kind = int(rng.integers(3))
        if kind == 0:
            out.append(TermQuery(pool[int(rng.integers(len(pool)))]))
            continue
        nt = int(rng.integers(2, 5))
        terms = [pool[i] for i in rng.choice(len(pool), nt, replace=False)]
        out.append(and_query(terms) if kind == 1 else or_query(terms))
    return out


def query_terms(q) -> list[str]:
    if hasattr(q, "term"):
        return [q.term]
    return [c.term for c in (*q.must, *q.should)]


# -- correctness --------------------------------------------------------------

def oracle_topk(searcher, q, k: int = K):
    """Top-k of the exhaustive scorer, ordered by float32 score desc,
    then doc id asc (the TopDocs order)."""
    docs, scores = searcher.eval_complete(q)
    s32 = np.asarray(scores).astype(np.float32)
    order = np.lexsort((docs, -s32.astype(np.float64)))[:k]
    return np.asarray(docs)[order].astype(np.int64), s32[order]


def same_topk(got, want) -> bool:
    gd, gs = got
    wd, ws = want
    return (np.array_equal(np.asarray(gd, np.int64), wd)
            and np.array_equal(np.asarray(gs).astype(np.float32), ws))


def index_bytes(index_dir: str, manifest) -> int:
    """Bytes of every file the manifest generation references: its
    segments, its global term stats and the manifest itself."""
    roots = [os.path.join(index_dir, "segments", s.seg_id)
             for s in manifest.segments]
    roots.append(os.path.join(index_dir, "global",
                              f"term_stats_gen{manifest.generation}"))
    total = os.path.getsize(os.path.join(
        index_dir, f"manifest_{manifest.generation}.json"))
    for r in roots:
        total += tree_bytes(r)
    return total


def tree_bytes(path: str) -> int:
    path = os.path.realpath(path)
    if os.path.isfile(path):
        return os.path.getsize(path)
    total = 0
    for d, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(d, f)) for f in files)
    return total


# -- the shared ingest --------------------------------------------------------

def ingest(paths, n_docs: int, segment_docs: int, index_dir: str,
           probes) -> dict:
    """build_index then merge_segments, timed separately. Between them
    (untimed) the probe queries run on the unmerged index; after the
    merge they must return the same top-k."""
    from lucene_ray.index import build_index
    from lucene_ray.index.merge import merge_segments
    from lucene_ray.search import IndexReader, Searcher
    t0 = time.monotonic()
    built = build_index(paths, index_dir, batch_size=segment_docs)
    t1 = time.monotonic()
    before = [Searcher(IndexReader(index_dir)).search(q, K) for q in probes]
    t2 = time.monotonic()
    merged = merge_segments(index_dir, segs_per_tier=SEGS_PER_TIER)
    t3 = time.monotonic()
    after_s = Searcher(IndexReader(index_dir))
    failures = []
    if merged.num_docs != n_docs or built.num_docs != n_docs:
        failures.append(f"manifest num_docs {built.num_docs}/"
                        f"{merged.num_docs} != corpus rows {n_docs}")
    for q, b in zip(probes, before):
        if not same_topk(after_s.search(q, K), b):
            failures.append(f"probe {q} changed across the merge")
    merged_ids = {s.seg_id for s in merged.segments} - \
        {s.seg_id for s in built.segments}
    return {"build_s": t1 - t0, "merge_s": t3 - t2,
            "docs_per_s": n_docs / ((t1 - t0) + (t3 - t2)),
            "windows": [(t0, t1), (t2, t3)],
            "bytes": index_bytes(index_dir, merged),
            "segments_built": len(built.segments),
            "segments_merged": len(merged_ids),
            "merge_in_bytes": sum(
                tree_bytes(os.path.join(index_dir, "segments", s.seg_id))
                for s in built.segments
                if s.seg_id not in {x.seg_id for x in merged.segments}),
            "merge_out_bytes": sum(
                tree_bytes(os.path.join(index_dir, "segments", sid))
                for sid in merged_ids),
            "merged_segments": [s.seg_id for s in merged.segments],
            "distinct_terms_per_segment": int(statistics.median(
                s.num_terms for s in built.segments)),
            "failures": failures}


# -- metrics ------------------------------------------------------------------

E2E_UNITS = {"setup_s": "s", "index_docs_per_s": "docs/s",
             "index_bytes_per_doc": "B/doc", "query_p50_ms": "ms",
             "query_p95_ms": "ms", "query_qps": "1/s", "query_rss_mb": "MB"}

LAYER_METRICS = {
    "index.build_s": "s", "index.segment_ms_p50": "ms",
    "index.pool_busy_frac": "frac", "analysis.tokenize_s": "s",
    "codecs.pack_s": "s", "codecs.pack_block_calls_per_segment": "count",
    "index.write_s": "s", "index.term_stats_s": "s", "index.merge_s": "s",
    "index.merge_rewrite_ratio": "ratio", "index.segments_built": "count",
    "index.segments_merged": "count", "search.self_ms_p50": "ms",
    "codecs.decode_ms_per_query": "ms", "codecs.blocks_decoded_per_query":
    "count", "codecs.block_skip_frac": "frac", "reader.ms_per_query": "ms",
    "reader.rg_reads_per_query": "count",
    "reader.rows_loaded_per_query": "count", "reader.rows_useful_frac":
    "frac", "reader.postings_hit_frac": "frac",
    "distributed.worker_ms_p50": "ms", "distributed.rpc_ms_p50": "ms",
    "distributed.floor_rpcs_per_query": "count",
    "trace.overhead_frac": "frac", "trace.uncovered_frac": "frac",
}


# counts that must repeat bit for bit across traced runs of one seed
EXACT_LAYER_METRICS = (
    "codecs.pack_block_calls_per_segment", "index.segments_built",
    "index.segments_merged", "index.merge_rewrite_ratio",
    "codecs.blocks_decoded_per_query", "codecs.block_skip_frac",
    "reader.rg_reads_per_query", "reader.rows_loaded_per_query",
    "reader.rows_useful_frac", "reader.postings_hit_frac")


def build_layers(trace, records, ing: dict, pool: int):
    """Build-side layer metrics of one ingest, and the intervals its
    layer spans cover."""
    (b0, b1), (m0, m1) = ing["windows"]
    segs = [r for r in records
            if r["kind"] == "segment" and r["t0"] >= b0 and r["t1"] <= b1]
    stats = [(a, b) for n, a, b in trace.spans if n == "index.term_stats"
             and a >= b0 and b <= b1]
    busy = sum(r["t1"] - r["t0"] for r in segs)
    covered = [(r["t0"], r["t1"]) for r in segs] + stats
    return {
        "index.build_s": b1 - b0,
        "index.segment_ms_p50": 1e3 * statistics.median(
            r["t1"] - r["t0"] for r in segs) if segs else 0.0,
        "index.pool_busy_frac": busy / ((b1 - b0) * pool),
        "analysis.tokenize_s": sum(r["tokenize_s"] for r in segs),
        "codecs.pack_s": sum(r["pack_s"] for r in segs),
        "codecs.pack_block_calls_per_segment":
            sum(r["pack_block_calls"] for r in segs) / max(1, len(segs)),
        "index.write_s": sum(r["write_s"] for r in segs),
        "index.term_stats_s": sum(b - a for a, b in stats),
        "index.merge_s": m1 - m0,
        "index.merge_rewrite_ratio":
            ing["merge_out_bytes"] / max(1, ing["merge_in_bytes"]),
        "index.segments_built": ing["segments_built"],
        "index.segments_merged": ing["segments_merged"],
    }, covered


def query_layers(trace, windows, exact: dict) -> dict:
    """Per-query self time and reader/codecs shares from the spans that
    fall inside each query's window; exact counters come from the fixed
    query prefix in ``exact``."""
    reader = sorted((a, b) for n, a, b in trace.spans
                    if n in ("reader.term_stats", "reader.ensure_terms"))
    decode = sorted((a, b) for n, a, b in trace.spans if n == "codecs.decode")
    r_starts = [a for a, _ in reader]
    d_starts = [a for a, _ in decode]
    self_ms, reader_ms, decode_ms = [], [], []
    for a, b in windows:
        # child spans start inside the query that caused them
        rs = reader[bisect.bisect_left(r_starts, a):
                    bisect.bisect_left(r_starts, b)]
        ds = decode[bisect.bisect_left(d_starts, a):
                    bisect.bisect_left(d_starts, b)]
        rs, ds = tracing.clip(rs, a, b), tracing.clip(ds, a, b)
        reader_ms.append(1e3 * tracing.union_length(rs))
        decode_ms.append(1e3 * sum(y - x for x, y in ds))
        self_ms.append(1e3 * ((b - a) - tracing.union_length(rs + ds)))
    n = max(1, len(windows))
    p = max(1, exact["queries"])
    return {
        "search.self_ms_p50": statistics.median(self_ms) if self_ms else 0.0,
        "codecs.decode_ms_per_query": sum(decode_ms) / n,
        "codecs.blocks_decoded_per_query":
            exact.get("codecs.blocks_decoded", 0) / p,
        "codecs.block_skip_frac":
            1.0 - exact.get("codecs.blocks_touched", 0)
            / max(1, exact.get("codecs.blocks_available", 0)),
        "reader.ms_per_query": sum(reader_ms) / n,
        "reader.rg_reads_per_query": exact["rg_reads"] / p,
        "reader.rows_loaded_per_query": exact["rows_loaded"] / p,
        "reader.rows_useful_frac":
            exact.get("reader.rows_useful", 0) / exact["rows_loaded"]
            if exact["rows_loaded"] else 0.0,
        "reader.postings_hit_frac":
            1.0 - exact.get("reader.pairs_missed", 0)
            / max(1, exact["pairs_needed"]),
    }


# -- workloads ----------------------------------------------------------------

class Run:
    def __init__(self, args, cfg: dict):
        self.args = args
        self.cfg = cfg
        # write_pages and numpy's generators take non-negative seeds
        self.seed = args.seed % (1 << 63)
        self.work = args.work_dir
        self.trace_dir = os.path.join(self.work, "trace") if args.trace \
            else None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.info: dict = {"workload": args.workload, "seed": args.seed,
                           "num_cpus": NUM_CPUS, "n_terms": cfg["n_terms"],
                           "trace": args.trace}

    def phase(self, name: str, seconds: float) -> None:
        self.info.setdefault("phases_s", {})[name] = round(seconds, 3)

    def fail(self, msg: str) -> None:
        self.failed += 1
        self.failures.append(msg)
        log("FAILED: " + msg)

    def setup(self) -> None:
        """Ray, corpus, the benchmark's term ranking and query lists."""
        from concurrent.futures import ThreadPoolExecutor
        t0 = time.monotonic()
        # the corpus is generated while Ray starts (Ray mostly waits on
        # its own processes during init)
        with ThreadPoolExecutor(max_workers=1) as ex:
            corpus = ex.submit(make_corpus, self.work, self.seed, self.cfg)
            prewarm = start_ray(self.trace_dir, self.work)
            t1 = time.monotonic()
            self.paths, self.n_docs = corpus.result()
        t2 = time.monotonic()
        self.ranked = rank_terms(self.paths)
        wait_first_worker(prewarm)
        self.phase("ray_init", t1 - t0)
        self.phase("corpus_after_init", t2 - t1)
        self.phase("rank_and_prewarm", time.monotonic() - t2)
        rng = np.random.default_rng([self.seed, 1])
        head = self.ranked[:self.cfg["head"]]
        tail = self.ranked[self.cfg["head"]:]
        self.head = head
        self.hot = make_queries(head, 8000, rng)
        self.hot_warm = make_queries(head, self.cfg["warm_queries"], rng)
        self.miss = make_queries(tail, 4000, rng)
        self.miss_warm = make_queries(tail, 20, rng)
        self.probes = self.hot[:4] + self.miss[:4]
        self.info.update(docs=self.n_docs,
                         segment_docs=self.cfg["segment_docs"],
                         corpus_terms=len(self.ranked))

    def ingest(self, index_dir: str) -> dict:
        ing = ingest(self.paths, self.n_docs, self.cfg["segment_docs"],
                     index_dir, self.probes)
        self.attempted += 1
        for f in ing["failures"]:
            self.fail(f)
        self.merged_segments = ing["merged_segments"]
        self.phase("build", ing["build_s"])
        self.phase("merge", ing["merge_s"])
        self.info.update(
            segments_built=ing["segments_built"],
            segments_after_merge=len(ing["merged_segments"]),
            distinct_terms_per_segment=ing["distinct_terms_per_segment"])
        return ing

    # -- query loop (local Searcher) ------------------------------------------
    def query_loop(self, searcher, queries, seconds: float, trace=None,
                   readers=None):
        """Closed loop, one client: the next query is sent when the
        previous one returns. Runs ``seconds`` and at least
        ``min_queries``.

        With a trace, even-numbered queries run with the wrappers
        installed and odd ones without, so the tracing overhead is
        measured under the same host conditions. Exact counters cover
        the first ``exact_prefix`` traced queries.

        The client thread visits the CPUs in turn (``CPU_TURN_S``); the
        move happens between queries, outside the timed window."""
        lat, windows, results, traced = [], [], [], []
        exact = {"queries": 0, "rows_loaded": 0, "rg_reads": 0,
                 "pairs_needed": 0}
        prefix = self.cfg["exact_prefix"]
        cpus = sorted(os.sched_getaffinity(0))
        self.info["client_cpus"] = len(cpus)
        next_turn, turn = 0.0, 0
        t_start = time.monotonic()
        i = 0
        while True:
            if time.monotonic() >= next_turn:
                os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
                turn += 1
                next_turn = time.monotonic() + CPU_TURN_S
            q = queries[i % len(queries)]
            on = trace is not None and i % 2 == 0
            if trace is not None:
                trace.install() if on else trace.uninstall()
                before = _reader_counters(readers)
            t0 = time.monotonic()
            try:
                td = searcher.search(q, K)
            except Exception as e:  # a failed query is counted, not fatal
                td = None
                self.fail(f"query {q}: {type(e).__name__}: {e}")
            t1 = time.monotonic()
            if td is not None and t1 - t0 > QUERY_TIMEOUT_S:
                self.fail(f"query {q} took {t1 - t0:.1f}s")
            lat.append(t1 - t0)
            windows.append((t0, t1))
            results.append((i, td))
            traced.append(on)
            if on:
                trace.end_query()
                if exact["queries"] < prefix:
                    rows, rgs = _reader_counters(readers)
                    exact["rows_loaded"] += rows - before[0]
                    exact["rg_reads"] += rgs - before[1]
                    exact["pairs_needed"] += \
                        len(set(query_terms(q))) * len(readers)
                    exact["queries"] += 1
                    if exact["queries"] == prefix:
                        exact.update(trace.counts)
            i += 1
            elapsed = time.monotonic() - t_start
            if (elapsed >= seconds and i >= self.cfg["min_queries"]) \
                    or elapsed > 4 * seconds + 60:
                break
        os.sched_setaffinity(0, cpus)
        if trace is not None:
            trace.uninstall()
            if exact["queries"] < prefix:
                exact.update(trace.counts)
        return {"lat": lat, "windows": windows, "results": results,
                "traced": traced, "wall": time.monotonic() - t_start,
                "exact": exact, "trace": trace}

    def check_local(self, index_dir: str, queries, results) -> None:
        from lucene_ray.search import IndexReader, Searcher
        oracle = Searcher(IndexReader(index_dir))
        rng = np.random.default_rng([self.seed, 2])
        ok = [(i, td) for i, td in results if td is not None]
        pick = rng.choice(len(ok), min(self.cfg["check_sample"], len(ok)),
                          replace=False)
        for j in sorted(pick):
            i, td = ok[j]
            q = queries[i % len(queries)]
            if not same_topk((td.doc_ids, td.scores), oracle_topk(oracle, q)):
                self.fail(f"top-{K} of {q} differs from eval_complete")
        self.info["checked_queries"] = len(pick)

    def run_query(self, hot: bool) -> dict:
        """Set-up: Ray, corpus, ingest (build + merge, timed on its own
        for ``index_docs_per_s``), warm-up. Timed: the closed loop on a
        local Searcher, with Ray already stopped."""
        from lucene_ray.index import builder
        from lucene_ray.search import IndexReader, Searcher, or_query
        from lucene_ray.util import default_concurrency
        index_dir = os.path.join(self.work, "index")
        t0 = time.monotonic()
        self.setup()
        queries, warm = (self.hot, self.hot_warm) if hot else \
            (self.miss, self.miss_warm)
        trace = None
        if self.args.trace:
            trace = tracing.ProcessTrace()
            trace.wrap(builder, "compute_global_term_stats",
                       "index.term_stats")
        ing = self.ingest(index_dir)
        pool = default_concurrency()
        dist = None
        if trace is not None:
            trace.uninstall()
            if hot:  # the distributed leg is traced, not timed end to end
                dist = self.dist_pass(index_dir)
        t_ray = time.monotonic()
        stop_ray(self.work)  # nothing below uses Ray
        ray_stop_s = time.monotonic() - t_ray
        reader = IndexReader(index_dir)
        searcher = Searcher(reader)
        if hot:  # every head term's postings and stats, one batched read
            searcher.search(or_query(self.head), K)
        for q in warm:
            searcher.search(q, K)
        setup_s = time.monotonic() - t0 - ray_stop_s
        self.phase("ray_stop", ray_stop_s)
        self.phase("warm", time.monotonic() - t_ray - ray_stop_s)
        reset_peak_rss()
        loop = self.query_loop(searcher, queries, self.args.seconds,
                               tracing.ProcessTrace() if trace else None,
                               list(reader.segments()))
        rss_mb = peak_rss_mb()
        self.attempted += len(loop["lat"])
        self.check_local(index_dir, queries, loop["results"])
        self.info.update(queries=len(loop["lat"]), index_bytes=ing["bytes"],
                         pool=pool)
        if trace is None:
            lat_ms = sorted(1e3 * x for x in loop["lat"])
            return {
                "setup_s": setup_s,
                "index_docs_per_s": ing["docs_per_s"],
                "index_bytes_per_doc": ing["bytes"] / self.n_docs,
                "query_p50_ms": statistics.median(lat_ms),
                "query_p95_ms": percentile(lat_ms, 95),
                "query_qps": len(lat_ms) / loop["wall"],
                "query_rss_mb": rss_mb,
            }
        records = tracing.read_worker_records(self.trace_dir)
        metrics = dict.fromkeys(LAYER_METRICS, 0.0)
        layers, covered = build_layers(trace, records, ing, pool)
        metrics.update(layers)
        on = [w for w, t in zip(loop["windows"], loop["traced"]) if t]
        qtrace = loop["trace"]
        metrics.update(query_layers(qtrace, on, loop["exact"]))
        if dist is not None:
            metrics.update(dist_layers(records, dist))
        lat_off = [x for x, t in zip(loop["lat"], loop["traced"]) if not t]
        metrics["trace.overhead_frac"] = statistics.mean(
            b - a for a, b in on) / statistics.mean(lat_off) - 1.0
        # Searcher.search's own span is not counted: on the query side
        # only the reader and codecs spans under it cover time, and the
        # rest is search.self_ms_p50. The merge is a single call with no
        # spans inside it, so its window is left out of the share.
        covered += [(a, b) for n, a, b in qtrace.spans
                    if n in ("reader.term_stats", "reader.ensure_terms",
                             "codecs.decode")]
        timed = [ing["windows"][0], *on]
        inside = sum(tracing.union_length(tracing.clip(covered, a, b))
                     for a, b in timed)
        metrics["trace.uncovered_frac"] = \
            1.0 - inside / sum(b - a for a, b in timed)
        return metrics

    def dist_pass(self, index_dir: str) -> list:
        """RaySearcher, one QueryWorker per merged segment (at most 3),
        head terms warmed, then ``dist_queries`` hot-mix queries one at
        a time. Returns the caller-side window of each query. Its top-k
        must equal the local Searcher's and the exhaustive scorer's."""
        from lucene_ray.search import IndexReader, Searcher, TermQuery
        from lucene_ray.search.distributed import RaySearcher
        rs = RaySearcher(index_dir,
                         num_workers=min(3, len(self.merged_segments)))
        rs.search_batch([TermQuery(t) for t in self.head], K)
        windows, results = [], []
        for q in self.hot[:self.cfg["dist_queries"]]:
            a = time.monotonic()
            try:
                results.append(rs.search(q, K))
            except Exception as e:  # counted, not fatal
                results.append(None)
                self.fail(f"distributed query {q}: {type(e).__name__}: {e}")
            windows.append((a, time.monotonic()))
        self.attempted += len(windows)
        self.info["query_workers"] = len(rs.workers)
        local = Searcher(IndexReader(index_dir))
        oracle = Searcher(IndexReader(index_dir))
        for q, td in zip(self.hot, results):
            if td is None:
                continue
            got = (td.doc_ids, td.scores)
            loc = local.search(q, K)
            if not same_topk(got, (loc.doc_ids, loc.scores)):
                self.fail(f"distributed top-{K} of {q} differs from local")
            elif not same_topk(got, oracle_topk(oracle, q)):
                self.fail(f"distributed top-{K} of {q} differs from "
                          "eval_complete")
        return windows


def dist_layers(records, windows) -> dict:
    """Worker spans that start inside each caller-side query window:
    the worker's own time, the rest of the caller's wall (RPC and the
    top-k merge), and the floor-exchange calls."""
    ws = sorted((r["t0"], r["t1"], r["floor_gets"] + r["floor_puts"])
                for r in records if r["kind"] == "worker_search")
    worker_ms, rpc_ms, floor = [], [], []
    j = 0
    for a, b in windows:
        while j < len(ws) and ws[j][0] < a:
            j += 1
        mine = []
        while j < len(ws) and ws[j][0] < b:
            mine.append(ws[j])
            j += 1
        worker_ms.extend(1e3 * (y - x) for x, y, _ in mine)
        slowest = max((y - x for x, y, _ in mine), default=0.0)
        rpc_ms.append(1e3 * ((b - a) - slowest))
        floor.append(1 + sum(c for _, _, c in mine))  # + the caller's begin
    return {
        "distributed.worker_ms_p50":
            statistics.median(worker_ms) if worker_ms else 0.0,
        "distributed.rpc_ms_p50": statistics.median(rpc_ms) if rpc_ms else 0.0,
        "distributed.floor_rpcs_per_query":
            sum(floor) / max(1, len(windows)),
    }


def _reader_counters(readers) -> tuple[int, int]:
    return (sum(r.rows_loaded for r in readers),
            sum(r.rg_reads for r in readers))


def percentile(sorted_vals, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    i = max(0, int(np.ceil(p / 100 * len(sorted_vals))) - 1)
    return sorted_vals[i]


def reset_peak_rss() -> None:
    """Start the peak-RSS high-water mark from the current RSS (Linux
    ``clear_refs`` 5), so the peak covers the timed loop only."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--scale", choices=tuple(SCALES), default="full")
    args = ap.parse_args(argv)
    os.makedirs(args.work_dir, exist_ok=True)
    run = Run(args, SCALES[args.scale])
    if run.trace_dir:
        os.makedirs(run.trace_dir, exist_ok=True)
    run.info["probe_gbps_start"] = host_probe_gbps()
    run.info["probe_cpu_ms_start"] = host_probe_cpu_ms()
    try:
        metrics = run.run_query(hot=args.workload == "query_hot")
    finally:
        import ray
        if ray.is_initialized():
            stop_ray(args.work_dir)
    run.info["probe_gbps_end"] = host_probe_gbps()
    run.info["probe_cpu_ms_end"] = host_probe_cpu_ms()
    units = LAYER_METRICS if args.trace else E2E_UNITS
    run.info["failures"] = run.failures[:20]
    print(json.dumps(run.info), flush=True)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }), flush=True)
    return 0



if __name__ == "__main__":
    sys.exit(main())
