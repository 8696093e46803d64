"""HNSW graph ANN index: per-segment navigable small-world graphs,
Parquet-persisted, beam-searched per segment + TopDocs-style merge.

Reference semantics: Lucene's per-segment HNSW
(``lucene/core/src/java/org/apache/lucene/util/hnsw/HnswGraphBuilder.java:617``,
``HnswGraphSearcher.java``; queried via
``search/TestKnnFloatVectorQuery.java``). Algorithm from the published
Malkov & Yashunin paper (arXiv:1603.09320): geometric level assignment,
greedy descent through upper layers, ef-bounded beam at the target
layer, diversity-pruned neighbor selection.

Ray-native design — exactly Lucene's shape:
- BUILD is a streaming ``map_batches(HnswSegmentBuilder, batch_size=S)``:
  each batch becomes an INDEPENDENT segment graph (Lucene builds one
  HNSW per segment too), built in-actor and written straight to its own
  ``seg-*/`` directory (vectors + adjacency Parquet + meta). No global
  mutable state, no driver materialization; segments are resumable
  units (a re-run skips directories that already exist).
- SEARCH fans segments out as a Dataset (one task per segment), each
  task beam-searches its local graph for ALL queries (query matrix is
  ray.put once), emits (qid, vec_id, sim) partials; the final top-k is
  the same distributed ``groupby(qid)`` reduce the other knn paths use
  (TopDocs.merge analog) — driver sees O(nq*k) rows.
- ``ef >= segment size`` degenerates to an exact within-segment scan,
  so exhaustive-beam search is bit-identical to brute force (the
  oracle gate for ``knn_hnsw_top10``).

Determinism: node levels come from a splitmix hash of vec_id (not a
shared RNG), so the graph is identical however batches are scheduled.

Build path: the default is the WAVE-BATCHED construction (``build()``)
— index-ordered waves whose greedy descent + beam searches run as
matrix ops across the whole wave (einsum gathers + argpartition
merges, no per-node heaps), the vectorized analog of Lucene's
HnswConcurrentMergeBuilder. Measured ~2.3x the sequential insert loop
on an 8k x 32d segment at recall 1.0 (the remaining cost is einsum
gather bandwidth, which the build shares with any HNSW construction);
``build(batched=False)`` keeps the paper-exact sequential insertion.
"""

from __future__ import annotations

import heapq
import json
import os

import numpy as np
import pyarrow as pa

import ray
import ray.data

from ..util import stage_pool

DEFAULT_M = 16
DEFAULT_EF_CONSTRUCTION = 100
DEFAULT_EF_SEARCH = 100


def _normalize64(mat: np.ndarray) -> np.ndarray:
    mat = mat.astype(np.float64)
    return mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)


def _levels_for(vec_ids: np.ndarray, m: int) -> np.ndarray:
    """Deterministic geometric levels: floor(-ln(u) / ln(M)) with u a
    splitmix64-derived uniform of the vec_id (HnswGraphBuilder's
    ml = 1/ln(M) assignment, but content-addressed so build order and
    batch boundaries don't change the graph)."""
    x = vec_ids.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> np.uint64(31))
    u = (x >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    u = np.clip(u, 1e-18, 1.0 - 1e-18)
    ml = 1.0 / np.log(m)
    return np.floor(-np.log(u) * ml).astype(np.int32)


class _HnswGraph:
    """In-memory HNSW over a normalized float64 matrix. Local node ids
    0..n-1; cosine similarity (vectors pre-normalized, so dot)."""

    def __init__(self, mat: np.ndarray, levels: np.ndarray,
                 m: int = DEFAULT_M,
                 ef_construction: int = DEFAULT_EF_CONSTRUCTION):
        self.mat = mat
        self.levels = levels
        self.m = m
        self.m0 = 2 * m
        self.efc = ef_construction
        n = len(mat)
        self.max_level = int(levels.max()) if n else 0
        # adjacency: per level, (n, cap) int32 padded with -1
        self.nbrs = [np.full((n, self.m0 if lv == 0 else m), -1,
                             dtype=np.int32)
                     for lv in range(self.max_level + 1)]
        self.ncnt = [np.zeros(n, dtype=np.int32)
                     for _ in range(self.max_level + 1)]
        self.entry = -1
        self.entry_level = -1
        # epoch-stamped visited marks: one persistent array instead of a
        # fresh O(n) zeros per _search_layer call (which made the build
        # O(n^2) in allocation/zeroing alone)
        self._vis = np.zeros(n, dtype=np.int64)
        self._vis_epoch = 0

    # --- primitives -----------------------------------------------------
    def _m32(self) -> np.ndarray:
        # similarity comparisons in float32: half the gather/einsum
        # traffic; selection is threshold-free (relative comparisons),
        # still fully deterministic
        if not hasattr(self, "_mat32"):
            self._mat32 = self.mat.astype(np.float32)
        return self._mat32

    def _sims(self, q: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        return self.mat[nodes] @ q

    def _search_layer(self, q: np.ndarray, eps: list[int], ef: int,
                      level: int) -> list[tuple[float, int]]:
        """ef-bounded beam at one layer -> [(sim, node)] best-first
        (HnswGraphSearcher.searchLevel)."""
        self._vis_epoch += 1
        epoch = self._vis_epoch
        visited = self._vis
        eps = list(dict.fromkeys(eps))
        sims = self._sims(q, np.array(eps, dtype=np.int64))
        cand: list[tuple[float, int]] = []   # max-heap via -sim
        best: list[tuple[float, int]] = []   # min-heap of sims (size<=ef)
        for s, e in zip(sims, eps):
            visited[e] = epoch
            heapq.heappush(cand, (-s, e))
            heapq.heappush(best, (s, e))
        while len(best) > ef:
            heapq.heappop(best)
        nbr = self.nbrs[level]
        cnt = self.ncnt[level]
        while cand:
            cs, c = heapq.heappop(cand)
            cs = -cs
            if best and cs < best[0][0] and len(best) >= ef:
                break
            ns = nbr[c, :cnt[c]]
            ns = ns[visited[ns] != epoch]
            if len(ns) == 0:
                continue
            visited[ns] = epoch
            nsims = self._sims(q, ns)
            lb = best[0][0] if len(best) >= ef else -np.inf
            if len(best) >= ef:
                # candidates at or below the current floor can never
                # enter the beam (the floor only rises) — drop them
                # before the Python loop
                keep = nsims > lb
                if not keep.all():
                    nsims = nsims[keep]
                    ns = ns[keep]
            for s, e in zip(nsims.tolist(), ns.tolist()):
                if s > lb or len(best) < ef:
                    heapq.heappush(cand, (-s, e))
                    heapq.heappush(best, (s, e))
                    if len(best) > ef:
                        heapq.heappop(best)
                    lb = best[0][0] if len(best) >= ef else -np.inf
        return sorted(best, key=lambda t: (-t[0], t[1]))

    def _select_diverse(self, cands: list[tuple[float, int]],
                        max_conn: int) -> list[int]:
        """Lucene's diversity heuristic (HnswGraphBuilder.findDiverse):
        keep candidate c unless it is closer to an already-selected
        neighbor than to the query."""
        if not cands:
            return []
        ids = np.fromiter((c for _, c in cands), dtype=np.int64,
                          count=len(cands))
        sims_q = np.fromiter((s for s, _ in cands), dtype=np.float64,
                             count=len(cands))
        return self._select_diverse_np(ids, sims_q, max_conn).tolist()

    def _select_diverse_np(self, ids: np.ndarray, sims_q: np.ndarray,
                           max_conn: int) -> np.ndarray:
        """numpy core of the diversity heuristic; ``ids``/``sims_q``
        must already be (-sim, id)-sorted. One cross-similarity matmul,
        then an incremental dominated mask: selecting j rules out every
        candidate closer to j than to the query."""
        cross = self.mat[ids] @ self.mat[ids].T
        dominated = np.zeros(len(ids), dtype=bool)
        sel_idx: list[int] = []
        for j in range(len(ids)):
            if len(sel_idx) >= max_conn:
                break
            if dominated[j]:
                continue
            sel_idx.append(j)
            dominated |= cross[:, j] > sims_q
        return ids[np.asarray(sel_idx, dtype=np.int64)] if sel_idx \
            else ids[:0]

    def _link(self, a: int, b: int, level: int) -> None:
        """Add b to a's neighbor list; prune diversely when over cap."""
        cap = self.m0 if level == 0 else self.m
        cnt = self.ncnt[level][a]
        if cnt < cap:
            self.nbrs[level][a, cnt] = b
            self.ncnt[level][a] = cnt + 1
            return
        cur = self.nbrs[level][a, :cnt]
        allc = np.concatenate([cur, [b]]).astype(np.int64)
        sims = self.mat[allc] @ self.mat[a]
        order = np.lexsort((allc, -sims))
        sel = self._select_diverse_np(allc[order], sims[order], cap)
        self.nbrs[level][a, :len(sel)] = sel
        self.nbrs[level][a, len(sel):cap] = -1
        self.ncnt[level][a] = len(sel)

    # --- build ----------------------------------------------------------
    def build(self, batched: bool = True) -> None:
        """Construct the graph. ``batched=True`` (default) inserts in
        deterministic index-ordered WAVES whose layer searches run as
        matrix ops across the whole wave (the HnswConcurrentMergeBuilder
        role, vectorized instead of threaded) — ~an order of magnitude
        less per-node Python than the sequential path. Nodes within a
        wave search the graph as frozen at the wave start (they still
        see each other through an explicit in-wave candidate pass), so
        the graph differs from the sequential build's but is itself
        deterministic: waves are fixed by node order, levels are
        content-addressed. ``batched=False`` keeps the paper-exact
        sequential insertion."""
        n = len(self.mat)
        if not batched or n <= 64:
            for i in range(n):
                self._insert(int(i))
            return
        # bootstrap a small exact core, then geometrically growing waves
        i = 0
        boot = min(n, 32)
        while i < boot:
            self._insert(i)
            i += 1
        wave = 32
        while i < n:
            w = min(wave, n - i)
            self._insert_wave(np.arange(i, i + w))
            i += w
            wave = min(2 * wave, 512)

    def _batch_search_layer(self, Q: np.ndarray, eps_sims: np.ndarray,
                            eps_ids: np.ndarray, ef: int,
                            level: int) -> tuple[np.ndarray, np.ndarray]:
        """ef-bounded beam at one layer for a WAVE of queries at once.

        ``Q``: (W, d) float32 query block. ``eps_ids``/``eps_sims``:
        (W, E) entry candidates per query (-1 padded). Returns
        (sims, ids) of shape (W, ef), sim-desc, -1 padded. All
        per-iteration work is one batched gather + one einsum + one
        argpartition over the wave — no per-node heaps."""
        W = len(Q)
        mat32 = self._m32()
        nbr = self.nbrs[level]
        cnt = self.ncnt[level]
        cap = nbr.shape[1]
        E = eps_ids.shape[1]
        B = 8  # expansions per row per iteration (amortizes the merges)
        # fixed ef-wide UNSORTED beam; padding slots sim=-inf/expanded
        beam_ids = np.full((W, ef), -1, dtype=np.int64)
        beam_sims = np.full((W, ef), -np.inf, dtype=np.float32)
        take = min(E, ef)
        beam_ids[:, :take] = eps_ids[:, :take]
        beam_sims[:, :take] = np.where(eps_ids[:, :take] >= 0,
                                       eps_sims[:, :take], -np.inf)
        beam_ids[beam_sims == -np.inf] = -1
        expanded = beam_ids < 0  # padding is never pickable
        # per-wave visited stamps (W x n bool; W<=256, n<=~64k per seg)
        visited = np.zeros((W, len(self.mat)), dtype=bool)
        rows = np.arange(W)
        valid0 = beam_ids >= 0
        visited[np.nonzero(valid0)[0], beam_ids[valid0]] = True
        nb = min(B, ef)
        while True:
            masked = np.where(expanded, -np.inf, beam_sims)
            # top-B unexpanded per row (unsorted beam -> argpartition)
            pick = np.argpartition(-masked, nb - 1, axis=1)[:, :nb]
            pick_sim = np.take_along_axis(masked, pick, axis=1)
            # floor: beam holds exactly the current top-ef (padded with
            # -inf until full), so the min IS the ef-th best
            floor = beam_sims.min(axis=1)
            best_unexp = pick_sim.max(axis=1)
            active = (best_unexp > -np.inf) & \
                ((best_unexp >= floor) | np.isinf(floor))
            if not active.any():
                break
            a_rows = rows[active]
            apick = pick[active]
            apsim = pick_sim[active]
            expanded[a_rows[:, None], apick] = True
            exp_nodes = beam_ids[a_rows[:, None], apick]    # (A, B)
            exp_ok = apsim > -np.inf
            exp_l = np.where(exp_ok, exp_nodes, 0)
            ns = nbr[exp_l].reshape(len(a_rows), -1)        # (A, B*cap)
            ns_valid = ((np.arange(cap)[None, None, :]
                         < cnt[exp_l][:, :, None])
                        & exp_ok[:, :, None]).reshape(len(a_rows), -1)
            ns_valid &= ns >= 0
            ns_l = np.where(ns_valid, ns, 0)
            seen = visited[a_rows[:, None], ns_l]
            fresh = ns_valid & ~seen
            # two expansion nodes of one row may share a neighbor in
            # the SAME iteration — keep one copy or the beam fills
            # with duplicates (recall collapse)
            order = np.argsort(ns_l, axis=1, kind="stable")
            sn = np.take_along_axis(ns_l, order, axis=1)
            sf = np.take_along_axis(fresh, order, axis=1)
            dup = np.zeros_like(sf)
            dup[:, 1:] = (sn[:, 1:] == sn[:, :-1]) & sf[:, 1:] & sf[:, :-1]
            np.put_along_axis(fresh, order, sf & ~dup, axis=1)
            visited[a_rows[:, None], ns_l] |= ns_valid
            nsims = np.einsum("acd,ad->ac", mat32[ns_l],
                              Q[active])                    # (A, B*cap)
            nsims = np.where(fresh, nsims, -np.inf)
            # merge: top-ef of (beam ++ fresh) per touched row; the
            # expanded flag of a kept slot derives from its source
            # (old-beam slot keeps its flag; fresh slots are unexpanded)
            m_sims = np.concatenate([beam_sims[a_rows], nsims], axis=1)
            m_ids = np.concatenate(
                [beam_ids[a_rows], np.where(fresh, ns_l, -1)], axis=1)
            keep = np.argpartition(-m_sims, ef - 1, axis=1)[:, :ef]
            beam_sims[a_rows] = np.take_along_axis(m_sims, keep, axis=1)
            beam_ids[a_rows] = np.take_along_axis(m_ids, keep, axis=1)
            from_old = keep < ef
            old_exp = np.take_along_axis(
                expanded[a_rows], np.minimum(keep, ef - 1), axis=1)
            # fresh slots are unexpanded; invalid fresh slots carry
            # sim=-inf so the picker can never select them anyway
            expanded[a_rows] = from_old & old_exp
        order = np.argsort(-beam_sims, axis=1, kind="stable")
        return (np.take_along_axis(beam_sims, order, axis=1),
                np.take_along_axis(beam_ids, order, axis=1))

    def _batch_descent(self, Q32: np.ndarray, from_level: int,
                       stop_at: np.ndarray | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Greedy descent from the entry node through upper levels for
        a whole query block. ``stop_at[i]``: the level at which query i
        stops descending (its own insertion level; None = descend to 1
        for all — the search path)."""
        W = len(Q32)
        mat32 = self._m32()
        cur = np.full(W, self.entry, dtype=np.int64)
        cur_sim = np.einsum("wd,wd->w", mat32[cur], Q32)
        for lc in range(from_level, 0, -1):
            active = np.ones(W, dtype=bool) if stop_at is None \
                else stop_at < lc
            if not active.any():
                continue
            nbr, cnt = self.nbrs[lc], self.ncnt[lc]
            cap = nbr.shape[1]
            while True:
                a = np.nonzero(active)[0]
                if len(a) == 0:
                    break
                ns = nbr[cur[a]]
                ns_valid = (np.arange(cap)[None, :]
                            < cnt[cur[a]][:, None]) & (ns >= 0)
                ns_l = np.where(ns_valid, ns, 0)
                nsims = np.einsum("acd,ad->ac", mat32[ns_l], Q32[a])
                nsims = np.where(ns_valid, nsims, -np.inf)
                best = np.argmax(nsims, axis=1)
                bsim = nsims[np.arange(len(a)), best]
                improve = bsim > cur_sim[a]
                if not improve.any():
                    break
                upd = a[improve]
                cur[upd] = ns_l[improve, best[improve]]
                cur_sim[upd] = bsim[improve]
                active[a[~improve]] = False
        return cur, cur_sim

    def search_batch(self, Q: np.ndarray, k: int,
                     ef: int) -> list[list[tuple[float, int]]]:
        """Batched query search: all queries' beams advance together
        as matrix ops (the wave machinery applied at query time).
        Returned sims are float64 rescores of the final candidates, so
        results order exactly like the scalar ``search`` path."""
        n = len(self.mat)
        nq = len(Q)
        if n == 0 or nq == 0:
            return [[] for _ in range(nq)]
        Q = _normalize64(np.asarray(Q, dtype=np.float64))
        if ef >= n:
            sims = Q @ self.mat.T                    # (nq, n) exact
            out = []
            for i in range(nq):
                order = np.lexsort((np.arange(n), -sims[i]))[:max(k, 1)]
                out.append([(float(sims[i, j]), int(j)) for j in order])
            return out
        Q32 = Q.astype(np.float32)
        cur, cur_sim = self._batch_descent(Q32, self.entry_level)
        sims32, bids = self._batch_search_layer(
            Q32, cur_sim[:, None], cur[:, None], max(ef, k), 0)
        out = []
        for i in range(nq):
            ids = bids[i][bids[i] >= 0]
            if not len(ids):
                out.append([])
                continue
            s64 = self.mat[ids] @ Q[i]               # exact rescore
            order = np.lexsort((ids, -s64))[:k]
            out.append([(float(s64[j]), int(ids[j])) for j in order])
        return out

    def _insert_wave(self, ids: np.ndarray) -> None:
        """Insert a wave: batched greedy descent + batched beams against
        the frozen pre-wave graph, then deterministic in-order link
        application (+ one in-wave candidate pass so wave-mates can
        still become neighbors)."""
        W = len(ids)
        lvls = self.levels[ids].astype(np.int64)
        Q = self.mat[ids]
        Q32 = self._m32()[ids]
        # snapshot: every search in this wave runs against the graph as
        # frozen at wave start (a wave-mate may raise entry_level later)
        entry_level0 = self.entry_level
        # greedy descent from the global entry through levels > lvl_i
        cur, cur_sim = self._batch_descent(Q32, entry_level0, stop_at=lvls)
        # beam per level from each node's own top level down to 0
        ep_ids = cur[:, None]
        ep_sims = cur_sim[:, None]
        cand_per_level: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for lc in range(min(int(lvls.max()), entry_level0), -1, -1):
            sims, bids = self._batch_search_layer(
                Q32, ep_sims, ep_ids, self.efc, lc)
            cand_per_level[lc] = (sims, bids)
            ep_ids, ep_sims = bids, sims
        # in-wave candidates: wave-mates are invisible to the frozen-
        # graph searches; one (W, W) matmul supplies them as extra
        # candidates at each shared level
        cross = Q @ Q.T
        # deterministic in-order link application
        for w in range(W):
            i = int(ids[w])
            lvl = int(lvls[w])
            for lc in range(min(lvl, entry_level0), -1, -1):
                sims, bids = cand_per_level[lc]
                row = bids[w]
                rs = sims[w]
                ok = row >= 0
                # wave-mates already inserted at this level are extra
                # candidates (invisible to the frozen-graph search)
                mates = np.nonzero(lvls[:w] >= lc)[0]
                cid = np.concatenate([row[ok], ids[mates]])
                csim = np.concatenate([rs[ok], cross[w, mates]])
                order = np.lexsort((cid, -csim))
                # select from at most efc candidates (Lucene's builder
                # selects from the beam, which is efc wide; the mates
                # appendix must not blow up the O(c^2) diversity pass)
                order = order[:self.efc]
                cap = self.m0 if lc == 0 else self.m
                sel = self._select_diverse_np(cid[order], csim[order], cap)
                k = len(sel)
                self.nbrs[lc][i, :k] = sel
                self.ncnt[lc][i] = k
                for j in sel:
                    self._link(int(j), i, lc)
            if lvl > self.entry_level:
                self.entry, self.entry_level = i, lvl

    def _insert(self, i: int) -> None:
        lvl = int(self.levels[i])
        if self.entry < 0:
            self.entry, self.entry_level = i, lvl
            return
        q = self.mat[i]
        ep = [self.entry]
        for lc in range(self.entry_level, lvl, -1):
            ep = [self._search_layer(q, ep, 1, lc)[0][1]]
        for lc in range(min(lvl, self.entry_level), -1, -1):
            cands = self._search_layer(q, ep, self.efc, lc)
            cap = self.m0 if lc == 0 else self.m
            sel = self._select_diverse(cands, cap)
            k = len(sel)
            self.nbrs[lc][i, :k] = sel
            self.ncnt[lc][i] = k
            for j in sel:
                self._link(j, i, lc)
            ep = [c for _, c in cands]
        if lvl > self.entry_level:
            self.entry, self.entry_level = i, lvl

    # --- search ---------------------------------------------------------
    def search(self, q: np.ndarray, k: int, ef: int) -> list[tuple[float, int]]:
        n = len(self.mat)
        if n == 0:
            return []
        if ef >= n:
            # exhaustive beam degenerates to an exact scan — guarantees
            # recall 1.0 (the oracle gate), graph connectivity aside
            sims = self.mat @ q
            order = np.lexsort((np.arange(n), -sims))[:max(k, 1)]
            return [(float(sims[i]), int(i)) for i in order]
        ep = [self.entry]
        for lc in range(self.entry_level, 0, -1):
            ep = [self._search_layer(q, ep, 1, lc)[0][1]]
        best = self._search_layer(q, ep, max(ef, k), 0)
        return best[:k]


# --- persistence ---------------------------------------------------------

def _write_segment(seg_dir: str, vec_ids: np.ndarray, mat32: np.ndarray,
                   g: _HnswGraph) -> None:
    import pyarrow.parquet as pq
    os.makedirs(seg_dir, exist_ok=True)
    dim = mat32.shape[1]
    vec = pa.FixedSizeListArray.from_arrays(
        pa.array(mat32.astype(np.float32).reshape(-1)), dim)
    pq.write_table(pa.table({"vec_id": pa.array(vec_ids, pa.int64()),
                             "vec": vec}),
                   os.path.join(seg_dir, "vectors.parquet"))
    lv_col, node_col, nb_col = [], [], []
    for lv in range(g.max_level + 1):
        nodes = np.nonzero(g.ncnt[lv] > 0)[0]
        for nd in nodes:
            lv_col.append(lv)
            node_col.append(int(nd))
            nb_col.append(g.nbrs[lv][nd, :g.ncnt[lv][nd]].tolist())
    pq.write_table(pa.table({
        "level": pa.array(lv_col, pa.int32()),
        "node": pa.array(node_col, pa.int32()),
        "neighbors": pa.array(nb_col, pa.list_(pa.int32()))}),
        os.path.join(seg_dir, "graph.parquet"))
    # meta.json is the resume marker: written LAST and atomically, so a
    # crash mid-segment leaves no marker and the retry rebuilds cleanly
    meta_path = os.path.join(seg_dir, "meta.json")
    tmp = meta_path + f".tmp-{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump({"entry": int(g.entry), "entry_level": int(g.entry_level),
                   "m": g.m, "n": len(vec_ids), "dim": int(dim)}, f)
    os.replace(tmp, meta_path)


def _load_segment(seg_dir: str):
    import pyarrow.parquet as pq
    with open(os.path.join(seg_dir, "meta.json")) as f:
        meta = json.load(f)
    vt = pq.read_table(os.path.join(seg_dir, "vectors.parquet"))
    vec_ids = vt.column("vec_id").to_numpy()
    flat = vt.column("vec").combine_chunks().flatten().to_numpy()
    # vectors persist raw float32; normalize in float64 at load so sims
    # match knn_brute's arithmetic exactly (float64 normalize-then-dot)
    mat = _normalize64(flat.reshape(len(vec_ids), meta["dim"]))
    gt = pq.read_table(os.path.join(seg_dir, "graph.parquet"))
    g = _HnswGraph(mat, np.zeros(len(vec_ids), np.int32), m=meta["m"])
    levels = gt.column("level").to_numpy()
    # a lone node at a top layer has no edges and thus no graph rows;
    # size adjacency to the entry's level so greedy descent can start
    g.max_level = max(int(levels.max()) if len(levels) else 0,
                      int(meta["entry_level"]))
    g.nbrs = [np.full((len(vec_ids), g.m0 if lv == 0 else g.m), -1,
                      np.int32) for lv in range(g.max_level + 1)]
    g.ncnt = [np.zeros(len(vec_ids), np.int32)
              for _ in range(g.max_level + 1)]
    nodes = gt.column("node").to_numpy()
    nb = gt.column("neighbors").to_pylist()
    for lv, nd, ns in zip(levels, nodes, nb):
        g.nbrs[lv][nd, :len(ns)] = ns
        g.ncnt[lv][nd] = len(ns)
    g.entry, g.entry_level = meta["entry"], meta["entry_level"]
    return vec_ids, g


class HnswSegmentBuilder:
    """Actor-pool stage: one input batch -> one independent segment
    graph written to ``out_dir/seg-<min_vecid>-<n>/``. Emits a one-row
    meta table per segment (the manifest leg)."""

    def __init__(self, out_dir: str, m: int = DEFAULT_M,
                 ef_construction: int = DEFAULT_EF_CONSTRUCTION):
        self.out_dir = out_dir
        self.m = m
        self.efc = ef_construction

    def __call__(self, batch: pa.Table) -> pa.Table:
        vec_ids = batch["vec_id"].to_numpy().astype(np.int64)
        mat32 = np.stack(batch["embedding"].to_pylist()).astype(np.float32)
        mat = _normalize64(mat32)
        seg = f"seg-{int(vec_ids.min()):012d}-{len(vec_ids)}"
        seg_dir = os.path.join(self.out_dir, seg)
        if not os.path.exists(os.path.join(seg_dir, "meta.json")):
            g = _HnswGraph(mat, _levels_for(vec_ids, self.m), m=self.m,
                           ef_construction=self.efc)
            g.build()
            _write_segment(seg_dir, vec_ids, mat32, g)
        return pa.table({"segment": pa.array([seg], pa.string()),
                         "n": pa.array([len(vec_ids)], pa.int64())})


def build_hnsw_index(path: str, out_dir: str, *, m: int = DEFAULT_M,
                     ef_construction: int = DEFAULT_EF_CONSTRUCTION,
                     segment_size: int = 8192) -> dict:
    """Streaming build: read (vec_id, embedding), one segment graph per
    ``segment_size`` batch, manifest JSON at the end."""
    os.makedirs(out_dir, exist_ok=True)
    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    metas = ds.map_batches(
        HnswSegmentBuilder, batch_format="pyarrow",
        batch_size=segment_size, concurrency=stage_pool(),
        fn_constructor_kwargs={"out_dir": out_dir, "m": m,
                               "ef_construction": ef_construction}
    ).take_all()
    manifest = {"segments": sorted({r["segment"] for r in metas}),
                "m": m, "ef_construction": ef_construction,
                "n_vectors": int(sum(r["n"] for r in metas))}
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f)
    return manifest


def hnsw_search(out_dir: str, qids: np.ndarray, qmat: np.ndarray,
                k: int = 10, ef: int = DEFAULT_EF_SEARCH,
                exclude_self: bool = True) -> pa.Table:
    """Beam-search every segment for every query (one Ray task per
    segment; query matrix broadcast once), then the shared groupby(qid)
    top-k reduce. ``ef >= max segment size`` -> exact."""
    from .similarity import _merge_topk_partials
    with open(os.path.join(out_dir, "manifest.json")) as f:
        manifest = json.load(f)
    qmat = _normalize64(qmat)
    qref = ray.put((qids.astype(np.int64), qmat))

    def per_segment(batch: pa.Table) -> pa.Table:
        q_ids, q_mat = ray.get(qref)
        outs = []
        for seg in batch["segment"].to_pylist():
            vec_ids, g = _load_segment(os.path.join(out_dir, seg))
            # batched beams: all queries advance together as matrix ops
            res = g.search_batch(q_mat, k + 1, ef)
            for qi, hits in enumerate(res):
                if not hits:
                    continue
                outs.append(pa.table({
                    "qid": pa.array([int(q_ids[qi])] * len(hits), pa.int64()),
                    "vec_id": pa.array([int(vec_ids[n]) for _, n in hits],
                                       pa.int64()),
                    "sim": pa.array([s for s, _ in hits], pa.float64())}))
        if not outs:
            return pa.table({"qid": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        return pa.concat_tables(outs)

    segs = ray.data.from_items(
        [{"segment": s} for s in manifest["segments"]])
    parts = segs.map_batches(per_segment, batch_format="pyarrow",
                             batch_size=1)
    return _merge_topk_partials(parts, k, exclude_self)


def knn_hnsw(path: str, query_ids, k: int = 10,
             ef: int = DEFAULT_EF_SEARCH, index_dir: str | None = None,
             segment_size: int = 8192) -> pa.Table:
    """Build-or-reuse the HNSW index for ``path``, answer cosine top-k.
    Same output schema as knn_brute: (qid, vec_id, rank)."""
    import hashlib

    from .similarity import _load_queries

    if index_dir is None:
        key = hashlib.md5(f"{path}|{segment_size}".encode()).hexdigest()[:12]
        index_dir = os.path.join("/tmp/lucene_ray_cache", f"hnsw-{key}")
    if not os.path.exists(os.path.join(index_dir, "manifest.json")):
        build_hnsw_index(path, index_dir, segment_size=segment_size)
    qids, qmat = _load_queries(path, list(query_ids))
    return hnsw_search(index_dir, qids, qmat, k=k, ef=ef)


def hnsw_recall_vs_brute(path: str, query_ids, k: int = 10,
                         ef: int = DEFAULT_EF_SEARCH,
                         segment_size: int = 8192) -> float:
    from .similarity import knn_brute
    brute = knn_brute(path, query_ids, k)
    approx = knn_hnsw(path, query_ids, k, ef=ef, segment_size=segment_size)
    b: dict[int, set] = {}
    for r in brute.to_pylist():
        b.setdefault(r["qid"], set()).add(r["vec_id"])
    a: dict[int, set] = {}
    for r in approx.to_pylist():
        a.setdefault(r["qid"], set()).add(r["vec_id"])
    recs = [len(b[q] & a.get(q, set())) / max(len(b[q]), 1) for q in b]
    return float(np.mean(recs)) if recs else 0.0
