"""Alternated A/B of the local query path on perfbench's layout.

    python tools/ab_reader.py --a TREE_A --b TREE_B \
        [--pairs 3] [--seconds 8] [--work DIR]

``TREE_A``/``TREE_B`` are two source trees of this repository (for
example a ``git archive`` of the parent commit and the working tree).
The tool

1. writes perfbench's corpus once (``perfbench.bench.make_corpus`` at the
   ``full`` scale: 5,120 docs, 100,000-word vocabulary);
2. builds one index per tree from that corpus with the tree's own
   ``build_index`` + ``merge_segments`` (``perfbench.bench.ingest``: 10
   segments of 512 docs merged at 8 per tier), since each tree reads
   only the index format it writes, and reports its bytes per doc, the
   same bytes by kind of file and by Parquet column (``column_bytes``),
   and, in a fresh process, what opening every postings part of it
   costs (``open_parts``): the ms (median of ``OPEN_REPS`` readers),
   the bytes of the arrays the parts keep, and the VmRSS they add;
3. runs ``--pairs`` pairs of closed loops per workload, ``query_hot``
   and ``query_miss`` with perfbench's query lists and warm-up, each
   run in a fresh process with ``PYTHONPATH=<tree>``; the side that
   runs first flips every pair. ``--pairs 0`` stops after the builds.

Each run prints one JSON line: p50/p95 ms, qps, VmHWM MB over the timed
loop, ``host_probe_cpu_ms`` before and after it, and ``ranking_sha256``,
a sha256 over the top-10 ids and float32 score bits of every query of
the workload's list, in list order (the loop's first pass; queries the
loop did not reach are answered after it, untimed). The last line is
the summary: per side and workload, the median, quartiles and min-max
over pairs; per workload and metric the number of pairs side B wins
(lower ms and RSS, higher qps); and per workload ``same_ranking``,
true when every run of both sides gave one ``ranking_sha256``, so the
two trees ranked every query identically.
Every run also checks a sample of top-10 ids and float32 score bits
against ``Searcher.eval_complete``; a mismatch is reported as a failure.
perfbench's modules are only imported, never changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

SEED = 7
K = 10
CHECK_SAMPLE = 30
OPEN_REPS = 5
# metric -> True when a higher value is better
METRICS = {"query_p50_ms": False, "query_p95_ms": False, "query_qps": True,
           "query_rss_mb": False}


def _cfg():
    from perfbench.bench import SCALES
    return SCALES["full"]


def _child(args) -> dict:
    """One step, run inside a process whose PYTHONPATH is one tree."""
    import numpy as np

    from perfbench import bench
    cfg = _cfg()
    corpus = os.path.join(args.work, "corpus")
    if args.child == "corpus":
        paths, n_docs = bench.make_corpus(args.work, SEED, cfg)
        return {"paths": paths, "n_docs": n_docs}
    if args.child == "open":
        return {"open_parts": _open_parts(args.index)}
    paths = sorted(os.path.join(corpus, f) for f in os.listdir(corpus)
                   if f.endswith(".parquet"))
    ranked = bench.rank_terms(paths)
    rng = np.random.default_rng([SEED, 1])
    head, tail = ranked[:cfg["head"]], ranked[cfg["head"]:]
    queries = {"query_hot": bench.make_queries(head, 8000, rng)}
    warm = {"query_hot": bench.make_queries(head, cfg["warm_queries"], rng)}
    queries["query_miss"] = bench.make_queries(tail, 4000, rng)
    warm["query_miss"] = bench.make_queries(tail, 20, rng)
    if args.child == "build":
        import ray
        # a build appends to an index already there, and the overlap
        # check refuses it: each run starts from an empty index dir
        shutil.rmtree(args.index, ignore_errors=True)
        ray.init(address="local", num_cpus=2, include_dashboard=False,
                 log_to_driver=False, logging_level="ERROR",
                 object_store_memory=bench.OBJECT_STORE_BYTES,
                 runtime_env={"env_vars": {
                     "PYTHONPATH": os.environ["PYTHONPATH"]}})
        try:
            probes = queries["query_hot"][:4] + queries["query_miss"][:4]
            ing = bench.ingest(paths, cfg["segment_docs"] * cfg["segments"],
                               cfg["segment_docs"], args.index, probes)
        finally:
            ray.shutdown()
        return {"build_s": round(ing["build_s"], 3),
                "column_bytes": _column_bytes(bench, args.index),
                "merge_s": round(ing["merge_s"], 3),
                "index_bytes_per_doc": round(
                    ing["bytes"] / (cfg["segment_docs"] * cfg["segments"]), 1),
                "failures": ing["failures"]}
    return _loop(args, bench, head, queries[args.workload],
                 warm[args.workload])


def _vmrss_mb() -> float:
    with open("/proc/self/status") as f:
        kb = next(line.split()[1] for line in f
                  if line.startswith("VmRSS:"))
    return int(kb) / 1024


def _resident_bytes(sr) -> int:
    """``SegmentReader.resident_bytes``; for a tree without it, the
    bytes of every array (and ``bytes``) held by its open parts and
    their term dictionaries."""
    import numpy as np
    if hasattr(sr, "resident_bytes"):
        return sr.resident_bytes()
    objs = [o for p in sr._parts.values() for o in (p, p.dict)]
    return sum(v.nbytes if hasattr(v, "nbytes") else len(v)
               for o in objs for v in vars(o).values()
               if isinstance(v, (np.ndarray, bytes)))


def _open_parts(index: str) -> dict:
    """Opening every postings part of ``index``, in this fresh process:
    the resident array bytes of the first reader's parts and the VmRSS
    (MB) that opening them added, then the ms to open them in a fresh
    reader (median and min over ``OPEN_REPS`` readers) and the part
    count."""
    from lucene_ray.index.manifest import POSTINGS_BUCKETS
    from lucene_ray.search import IndexReader
    times, out = [], {}
    for _ in range(OPEN_REPS):
        segs = list(IndexReader(index).segments())
        rss0 = _vmrss_mb()
        t0 = time.monotonic()
        for sr in segs:
            for b in range(POSTINGS_BUCKETS):
                sr._part(b)
        times.append(1e3 * (time.monotonic() - t0))
        if not out:
            out = {"resident_bytes": sum(map(_resident_bytes, segs)),
                   "rss_growth_mb": round(_vmrss_mb() - rss0, 2)}
    return {"ms": {"median": round(statistics.median(times), 2),
                   "min": round(min(times), 2)},
            **out, "parts": len(segs) * POSTINGS_BUCKETS}


def _column_bytes(bench, index: str) -> dict:
    """The bytes perfbench's ``index_bytes`` counts for ``index``, by
    kind of file (``postings`` parts, global ``stats`` parts, and each
    other Parquet file by name, such as ``docs``) and by Parquet column
    (column-chunk bytes, summed over row groups and files).
    ``(footer+overhead)`` is the rest of those files: footers, magic
    and page indexes. ``other`` is every file that is not Parquet (the
    manifest). ``total`` equals ``index_bytes``."""
    from collections import Counter, defaultdict

    import pyarrow.parquet as pq

    from lucene_ray.index.manifest import read_manifest
    m = read_manifest(index)
    out: dict = defaultdict(Counter)
    other = os.path.getsize(os.path.join(index,
                                         f"manifest_{m.generation}.json"))
    stats = os.path.join(index, "global", f"term_stats_gen{m.generation}")
    for root in [os.path.join(index, "segments", s.seg_id)
                 for s in m.segments] + [stats]:
        for d, _, files in os.walk(os.path.realpath(root)):
            for f in files:
                path = os.path.join(d, f)
                if not f.endswith(".parquet"):
                    other += os.path.getsize(path)
                    continue
                cols = out["postings" if d.endswith("postings.parquet")
                           else "stats" if root == stats
                           else f[:-len(".parquet")]]
                md = pq.read_metadata(path)
                chunks = [md.row_group(r).column(i)
                          for r in range(md.num_row_groups)
                          for i in range(md.num_columns)]
                for c in chunks:
                    cols[c.path_in_schema] += c.total_compressed_size
                cols["(footer+overhead)"] += os.path.getsize(path) - sum(
                    c.total_compressed_size for c in chunks)
    total = other + sum(sum(c.values()) for c in out.values())
    assert total == bench.index_bytes(index, m), (total, out)
    return {**out, "other": other, "total": total}


def _spread(xs) -> dict:
    """Median, quartiles (inclusive method) and min-max of ``xs``."""
    q1, med, q3 = (statistics.quantiles(xs, n=4, method="inclusive")
                   if len(xs) > 1 else (xs[0],) * 3)
    return {"median": med, "q1": q1, "q3": q3,
            "min": min(xs), "max": max(xs)}


def _loop(args, bench, head, queries, warm) -> dict:
    """perfbench's warm-up, then a closed loop of ``search(q, 10)``."""
    import numpy as np

    from lucene_ray.search import IndexReader, Searcher, or_query
    probe0 = bench.host_probe_cpu_ms()
    searcher = Searcher(IndexReader(args.index))
    if args.workload == "query_hot":
        searcher.search(or_query(head), K)
    for q in warm:
        searcher.search(q, K)
    bench.reset_peak_rss()
    lat, results = [], []
    t_start = time.monotonic()
    i = 0
    while (time.monotonic() - t_start < args.seconds
           or i < _cfg()["min_queries"]):
        q = queries[i % len(queries)]
        t0 = time.monotonic()
        td = searcher.search(q, K)
        lat.append(time.monotonic() - t0)
        results.append((q, td))
        i += 1
    wall = time.monotonic() - t_start
    rss = bench.peak_rss_mb()
    ranking = hashlib.sha256()
    for j, q in enumerate(queries):
        td = results[j][1] if j < len(results) else searcher.search(q, K)
        ranking.update(np.asarray(td.doc_ids, np.int64).tobytes())
        ranking.update(np.asarray(td.scores).astype(np.float32)
                       .view(np.uint32).tobytes())
    oracle = Searcher(IndexReader(args.index))
    pick = np.random.default_rng([SEED, 2]).choice(
        len(results), min(CHECK_SAMPLE, len(results)), replace=False)
    bad = sum(not bench.same_topk((results[j][1].doc_ids,
                                   results[j][1].scores),
                                  bench.oracle_topk(oracle, results[j][0]))
              for j in pick.tolist())
    ms = sorted(1e3 * x for x in lat)
    return {"query_p50_ms": round(statistics.median(ms), 4),
            "query_p95_ms": round(bench.percentile(ms, 95), 4),
            "query_qps": round(len(ms) / wall, 1),
            "query_rss_mb": round(rss, 1), "queries": len(ms),
            "check_failures": int(bad),
            "ranking_sha256": ranking.hexdigest(),
            "probe_cpu_ms_before": probe0,
            "probe_cpu_ms_after": bench.host_probe_cpu_ms()}


def _run(tree: str, step: str, work: str, **kw) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(tree))
    env.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    cmd = [sys.executable, os.path.abspath(__file__), "--child", step,
           "--work", work]
    for k, v in kw.items():
        cmd += [f"--{k}", str(v)]
    out = subprocess.run(cmd, env=env, cwd=os.path.abspath(tree),
                         stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--a", help="source tree of side A")
    ap.add_argument("--b", help="source tree of side B")
    ap.add_argument("--pairs", type=int, default=3,
                    help="alternated loop pairs (0: builds only)")
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--work", default=None,
                    help="scratch dir (default: a new temp dir)")
    ap.add_argument("--child", choices=("corpus", "build", "open", "loop"))
    ap.add_argument("--index")
    ap.add_argument("--workload")
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(_child(args)), flush=True)
        return 0
    if not (args.a and args.b):
        ap.error("--a and --b are required")
    work = os.path.abspath(args.work or tempfile.mkdtemp(prefix="ab_reader"))
    sides = {"A": args.a, "B": args.b}
    _run(args.a, "corpus", work)
    for side, tree in sides.items():
        index = os.path.join(work, f"idx{side}")
        got = _run(tree, "build", work, index=index)
        got.update(_run(tree, "open", work, index=index))
        print(json.dumps({"side": side, "step": "build", **got}), flush=True)
    runs: dict = {}
    for pair in range(args.pairs):
        order = ["A", "B"] if pair % 2 == 0 else ["B", "A"]
        for workload in ("query_hot", "query_miss"):
            for side in order:
                got = _run(sides[side], "loop", work,
                           index=os.path.join(work, f"idx{side}"),
                           workload=workload, seconds=args.seconds)
                print(json.dumps({"side": side, "pair": pair,
                                  "workload": workload, **got}), flush=True)
                runs.setdefault((side, workload), []).append(got)
    if not runs:
        return 0
    summary = {}
    for (side, workload), rs in sorted(runs.items()):
        summary[f"{side}.{workload}"] = {
            m: _spread([r[m] for r in rs]) for m in METRICS}
        summary[f"{side}.{workload}"]["check_failures"] = sum(
            r["check_failures"] for r in rs)
    for workload in ("query_hot", "query_miss"):
        pairs = list(zip(runs[("A", workload)], runs[("B", workload)]))
        wins = {m: sum((b[m] > a[m]) if up else (b[m] < a[m])
                       for a, b in pairs) for m, up in METRICS.items()}
        summary[f"B_wins.{workload}"] = {
            m: f"{w}/{len(pairs)}" for m, w in wins.items()}
        summary[f"same_ranking.{workload}"] = len(
            {r["ranking_sha256"] for side in sides
             for r in runs[(side, workload)]}) == 1
    print(json.dumps({"summary": summary}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
