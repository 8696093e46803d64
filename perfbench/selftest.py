"""Tiny-size self-test of the benchmark (about four minutes on 4 CPUs).

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, at ``--scale tiny``: each run
   must be correct and print exactly the metrics BENCHMARK.json names
   for its mode, each with its unit.
2. The exact counters of two traced runs with the same seed must match
   bit for bit.
3. The top-k check must accept a real result and reject the same
   result with two hits swapped.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import bench  # noqa: E402

SEED = 7


def run(workload: str, trace: int) -> tuple[dict, dict]:
    p = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "2",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{p.returncode}:\n{p.stderr[-3000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_metrics(workload: str, trace: int, result: dict) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, (workload, trace, got, want)
    assert result["correct"] and result["failed"] == 0, (workload, result)
    assert result["attempted"] >= 1
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values()), \
            (workload, result["metrics"])


def check_swapped_pair() -> None:
    """The check accepts the real top-k and rejects two swapped hits."""
    import numpy as np
    work = os.path.join(ROOT, ".pbw", str(os.getpid()))
    os.makedirs(work)
    try:
        cfg = bench.SCALES["tiny"]
        bench.wait_first_worker(bench.start_ray(None, work))
        paths, n_docs = bench.make_corpus(work, SEED, cfg)
        head = bench.rank_terms(paths)[:2]
        from lucene_ray.index import build_index
        from lucene_ray.search import IndexReader, Searcher, or_query
        index_dir = os.path.join(work, "index")
        build_index(paths, index_dir, batch_size=cfg["segment_docs"])
        bench.stop_ray(work)
        s = Searcher(IndexReader(index_dir))
        q = or_query(head)
        td = s.search(q, bench.K)
        assert len(td.doc_ids) >= 2
        want = bench.oracle_topk(s, q)
        assert bench.same_topk((td.doc_ids, td.scores), want)
        docs, scores = np.array(td.doc_ids), np.array(td.scores)
        docs[[0, 1]] = docs[[1, 0]]
        scores[[0, 1]] = scores[[1, 0]]
        assert not bench.same_topk((docs, scores), want), \
            "swapped hits passed the top-k check"
    finally:
        import ray
        if ray.is_initialized():
            bench.stop_ray(work)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


def main() -> int:
    traced = {}
    for workload in bench.WORKLOADS:
        for trace in (0, 1):
            info, result = run(workload, trace)
            check_metrics(workload, trace, result)
            if trace:
                traced[workload] = (info, result)
            print(f"ok {workload} trace={trace}", flush=True)
    for workload in bench.WORKLOADS:
        info, result = run(workload, 1)
        info0, result0 = traced[workload]
        assert info["index_bytes"] == info0["index_bytes"]
        for name in bench.EXACT_LAYER_METRICS:
            a = result["metrics"][name]["value"]
            b = result0["metrics"][name]["value"]
            assert a == b, (workload, name, a, b)
        print(f"ok {workload} exact counters repeat", flush=True)
    check_swapped_pair()
    print("ok swapped hits are rejected", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
