"""Distributed query execution: an actor pool of per-slice searchers.

Mirrors the reference's leaf-slice executor (``IndexSearcher.java:
107-109,330`` — slices of <=250k docs searched concurrently, results
merged by ``TopDocs.merge``): each ``QueryWorker`` actor owns a doc-range
slice of segments (reader + postings resident after warmup), the driver
broadcasts the query and merges per-slice top-k with the global
(score desc, docID asc) order. Global term stats ride with the query so
scoring is identical to a single-node search. Workers share no state
while a query runs: each prunes against the threshold its own segments
raise, so a query costs one RPC per worker.
"""

from __future__ import annotations

import numpy as np

import ray

from .query import Query
from .reader import IndexReader
from .searcher import Searcher, TopDocs, _check_k, merge_top_docs


@ray.remote
class QueryWorker:
    def __init__(self, index_dir: str, seg_ids: list[str], similarity: str,
                 generation: int | None = None):
        reader = IndexReader(index_dir, generation=generation,
                             segment_ids=seg_ids)
        self.searcher = Searcher(reader, similarity=similarity)

    def warm(self) -> int:
        n = 0
        for sr in self.searcher.reader.segments():
            n += len(sr)
        self.searcher.reader.term_stats([])
        return n

    def search(self, q: Query, k: int):
        td = self.searcher.search(q, k)
        return td.doc_ids, td.scores

    def count(self, q: Query) -> int:
        return self.searcher.count(q)


class RaySearcher:
    """Driver-side facade over the worker pool."""

    def __init__(self, index_dir: str, num_workers: int | None = None,
                 similarity: str = "lucene", generation: int | None = None):
        from ..index.manifest import read_manifest
        m = read_manifest(index_dir, generation)
        segs = sorted(m.segments, key=lambda s: s.min_doc)
        if num_workers is None:
            cpus = int(ray.cluster_resources().get("CPU", 4))
            num_workers = max(1, min(len(segs), cpus - 1))
        num_workers = max(1, min(num_workers, len(segs)))
        # contiguous doc-range slices balanced by doc count
        total = sum(s.num_docs for s in segs)
        per = total / num_workers
        slices: list[list[str]] = [[] for _ in range(num_workers)]
        acc, wi = 0, 0
        for s in segs:
            if acc >= per * (wi + 1) and wi < num_workers - 1:
                wi += 1
            slices[wi].append(s.seg_id)
            acc += s.num_docs
        self.workers = [
            QueryWorker.remote(index_dir, sl, similarity, m.generation)
            for sl in slices if sl]
        ray.get([w.warm.remote() for w in self.workers])

    def search(self, q: Query, k: int = 10) -> TopDocs:
        return self.search_batch([q], k)[0]

    def count(self, q: Query) -> int:
        return sum(ray.get([w.count.remote(q) for w in self.workers]))

    def search_batch(self, queries: list[Query], k: int = 10) -> list[TopDocs]:
        k = _check_k(k)
        futs = [[w.search.remote(q, k) for w in self.workers]
                for q in queries]
        out = []
        for row in futs:
            tds = [TopDocs(np.asarray(d, dtype=np.int64), np.asarray(s))
                   for d, s in ray.get(row) if len(d)]
            out.append(merge_top_docs(tds, k))
        return out
