"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

All are streaming Ray Data pipelines. Shuffle keys are *hashes*, never
raw text: the exact-dedup groupby moves (md5, doc_id) pairs only; the
LSH groupbys move (band_key, doc_id). At 100 TB this keeps exchange
volume ~1% of corpus size.

Skew safety: candidate emission is NEVER O(B^2) in a bucket's size B.
Buckets up to ``BUCKET_CAP`` emit exact all-pairs; larger buckets (the
"every 404 page" boilerplate case) emit a *star* to the bucket's min
doc — which preserves connected components exactly (any two members
stay linked through the hub), so downstream keeper selection is
unchanged while pair volume drops from O(B^2) to O(B).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Count, Max, Min

from ..analysis import StandardAnalyzer
from ..util import cached_callable, stage_pool
from .text_analysis import read_documents

# deterministic 61-bit Mersenne prime universe for minhash permutations
_MERSENNE = (1 << 61) - 1

# all-pairs emission above this bucket size would be quadratic; switch
# to star pairs (minhash) / sorted-window probing (simhash, embeddings)
BUCKET_CAP = 64

_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcount64(x: np.ndarray) -> np.ndarray:
    b = np.ascontiguousarray(x, dtype=np.uint64).view(np.uint8)
    return _POP8[b].reshape(len(x), 8).sum(axis=1).astype(np.int64)


def _text_hash_batch(batch: pa.Table) -> pa.Table:
    return pa.table({
        "doc_id": batch["doc_id"],
        "h": pa.array([hashlib.md5((t or "").encode()).hexdigest()
                       for t in batch["text"].to_pylist()], pa.string()),
    })


def exact_dedup(path: str) -> ray.data.Dataset:
    """Keeper doc per distinct text: min doc_id (delete-by-term analog,
    IndexWriter.java:1828 updateDocument). Returns (doc_id) rows."""
    ds = read_documents(path).map_batches(_text_hash_batch, batch_format="pyarrow")
    return (ds.groupby("h").aggregate(Min("doc_id", alias_name="doc_id"))
            .select_columns(["doc_id"]))


def first_per_group(path: str, keys=("lang", "source")) -> ray.data.Dataset:
    """Min doc_id per group key — generic first-per-key dedup."""
    ds = read_documents(path, columns=["doc_id", *keys])
    return ds.groupby(list(keys)).aggregate(Min("doc_id", alias_name="doc_id"))


# --- MinHash + LSH ---------------------------------------------------------

# position-weight coefficients for rolling shingle hashes (odd -> each
# term hash contributes an invertible mixing mod 2^64)
_SHINGLE_COEF = np.random.default_rng(0x5EED).integers(
    1, 2**63, size=64, dtype=np.uint64) | np.uint64(1)


def _window_hashes(th: np.ndarray, k: int) -> np.ndarray:
    """k-window rolling hash over a doc's token-hash array: shingle i is
    sum_j th[i+j] * COEF[j] (mod 2^64). Vectorized — one strided
    multiply-add per window position instead of a Python join+crc per
    shingle. Docs shorter than k fold all their tokens into one value
    (the old whole-doc-join fallback)."""
    n = len(th)
    if n == 0:
        return np.empty(0, np.uint64)
    if n < k:
        return np.array([(th * _SHINGLE_COEF[:n]).sum(dtype=np.uint64)],
                        np.uint64)
    w = np.zeros(n - k + 1, np.uint64)
    for j in range(k):
        w += th[j:n - k + 1 + j] * _SHINGLE_COEF[j]
    return w


def _shingles(terms: list[str], k: int) -> np.ndarray:
    from ..util import crc32_batch
    th = crc32_batch(terms).astype(np.uint64)
    return np.unique(_window_hashes(th, k))


class MinHashSigs:
    """Per-doc minhash signature over word k-shingles; emits one row per
    LSH band: (band, key, doc_id).

    Batch-vectorized: tokens come from the Arrow kernel
    (``index/builder._tokenize_batch_arrow``), the (a*x+b) mod p minhash
    runs over the batch's FLAT shingle array with one segmented
    ``minimum.reduceat`` per permutation chunk, and band keys are a
    vectorized polynomial fold of the signature rows (equal band
    signatures -> equal keys; no per-band md5 calls).
    """

    def __init__(self, num_perm=64, bands=16, shingle_k=3, seed=7):
        assert num_perm % bands == 0
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.num_perm, self.bands, self.k = num_perm, bands, shingle_k
        self.rows_per_band = num_perm // bands
        self.analyzer = StandardAnalyzer()
        # polynomial fold weights for band keys (odd -> invertible mod 2^64)
        self.fold = rng.integers(1, 2**63, size=self.rows_per_band,
                                 dtype=np.uint64) | np.uint64(1)

    def signature(self, text: str) -> np.ndarray | None:
        sh = _shingles(self.analyzer(text or ""), self.k)
        if len(sh) == 0:
            return None
        vals = (self.a[:, None] * sh[None, :] + self.b[:, None]) % _MERSENNE
        return vals.min(axis=1)

    def _batch_shingles(self, batch: pa.Table):
        """(flat shingle values, doc_starts, doc_ids_with_shingles).

        Fully vectorized: token hashes via the batch crc32 kernel, then
        one strided rolling-window combine over the FLAT token-hash
        array (windows crossing doc boundaries masked out), then a
        segmented unique (lexsort + consecutive-dup drop). No per-doc or
        per-shingle Python loop — the r2 hot-loop finding."""
        from ..index.builder import _tokenize_batch_arrow
        from ..util import crc32_batch
        flat, didx = _tokenize_batch_arrow(batch["text"], self.analyzer)
        th = crc32_batch(flat).astype(np.uint64)
        n = len(batch)
        didx = np.asarray(didx, np.int64)
        if len(didx) and not np.all(didx[:-1] <= didx[1:]):
            # kernel appends refined dirty/non-ASCII tokens out of doc
            # order; stable sort restores per-doc grouping (identical
            # texts still yield identical shingle sets)
            order = np.argsort(didx, kind="stable")
            didx = didx[order]
            th = th[order]
        k = self.k
        N = len(th)
        if N >= k:
            w = np.zeros(N - k + 1, np.uint64)
            for j in range(k):
                w += th[j:N - k + 1 + j] * _SHINGLE_COEF[j]
            valid = didx[:N - k + 1] == didx[k - 1:]
            wdoc = didx[:N - k + 1][valid]
            w = w[valid]
        else:
            w = np.empty(0, np.uint64)
            wdoc = np.empty(0, np.int64)
        counts = np.bincount(didx, minlength=n) if N else \
            np.zeros(n, np.int64)
        short = np.nonzero((counts > 0) & (counts < k))[0]
        if len(short):
            bounds = np.searchsorted(didx, np.arange(n + 1))
            extra = np.array(
                [(th[bounds[d]:bounds[d + 1]] *
                  _SHINGLE_COEF[:counts[d]]).sum(dtype=np.uint64)
                 for d in short], np.uint64)
            w = np.concatenate([w, extra])
            wdoc = np.concatenate([wdoc, short.astype(np.int64)])
        if len(w) == 0:
            return None, None, None
        order = np.lexsort((w, wdoc))
        wd, wv = wdoc[order], w[order]
        keep = np.ones(len(wv), bool)
        keep[1:] = (wd[1:] != wd[:-1]) | (wv[1:] != wv[:-1])
        wd, wv = wd[keep], wv[keep]
        docs_kept, starts = np.unique(wd, return_index=True)
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return wv, starts.astype(np.int64), \
            doc_ids[docs_kept].astype(np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        sh, starts, doc_ids = self._batch_shingles(batch)
        if sh is None:
            return pa.table({"band": pa.array([], pa.int32()),
                             "key": pa.array([], pa.int64()),
                             "doc_id": pa.array([], pa.int64())})
        nd = len(starts)
        sigs = np.empty((self.num_perm, nd), dtype=np.uint64)
        # chunk permutations to bound the (chunk x n_shingles) temp
        chunk = max(1, int(8e6 // max(len(sh), 1)))
        for i in range(0, self.num_perm, chunk):
            a = self.a[i:i + chunk]
            vals = (a[:, None] * sh[None, :] + self.b[i:i + chunk, None]) \
                % _MERSENNE
            sigs[i:i + chunk] = np.minimum.reduceat(vals, starts, axis=1)
        # band keys: polynomial fold of each band's rows -> int64
        rpb = self.rows_per_band
        keys = np.empty((self.bands, nd), dtype=np.uint64)
        for b in range(self.bands):
            block = sigs[b * rpb:(b + 1) * rpb]  # (rpb, nd)
            keys[b] = (block * self.fold[:, None]).sum(axis=0, dtype=np.uint64)
        band_col = np.repeat(np.arange(self.bands, dtype=np.int32), nd)
        return pa.table({
            "band": pa.array(band_col, pa.int32()),
            "key": pa.array(keys.reshape(-1).view(np.int64), pa.int64()),
            "doc_id": pa.array(np.tile(doc_ids, self.bands), pa.int64()),
        })


def _bucket_pairs(group: pa.Table) -> pa.Table:
    """Candidate pairs for one LSH bucket — capped, never O(B^2):
    all-pairs up to BUCKET_CAP, star-to-min above (components preserved)."""
    docs = np.unique(group["doc_id"].to_numpy())
    m = len(docs)
    if m < 2:
        return pa.table({"doc_a": pa.array([], pa.int64()),
                         "doc_b": pa.array([], pa.int64())})
    if m <= BUCKET_CAP:
        ii, jj = np.triu_indices(m, k=1)
        return pa.table({"doc_a": pa.array(docs[ii], pa.int64()),
                         "doc_b": pa.array(docs[jj], pa.int64())})
    return pa.table({"doc_a": pa.array(np.full(m - 1, docs[0]), pa.int64()),
                     "doc_b": pa.array(docs[1:], pa.int64())})


def minhash_lsh_candidates(path: str, num_perm=64, bands=16,
                           shingle_k=3) -> ray.data.Dataset:
    """Candidate near-duplicate pairs: docs sharing >=1 LSH band bucket.
    Returns distinct (doc_a, doc_b) with doc_a < doc_b."""
    sig = read_documents(path).map_batches(
        cached_callable(MinHashSigs, num_perm=num_perm, bands=bands,
                        shingle_k=shingle_k),
        batch_format="pyarrow")
    pairs = sig.groupby(["band", "key"]).map_groups(
        _bucket_pairs, batch_format="pyarrow")
    return pairs.groupby(["doc_a", "doc_b"]).aggregate(Count(alias_name="n_bands")) \
        .select_columns(["doc_a", "doc_b"])


def minhash_dedup_keepers(path: str, num_perm=64, bands=16, shingle_k=3,
                          iters: int = 3) -> ray.data.Dataset:
    """Near-dup KEEPER selection without materializing pairs at all:
    bipartite min-label propagation between docs and their LSH buckets.

    Each round: bucket label = min member label; doc label = min over
    its buckets. ``iters`` rounds resolve components whose doc-bucket
    graph diameter is <= 2*iters (LSH dup clusters are hub-shaped, so
    2-3 rounds reach fixpoint in practice). Returns (doc_id, keeper) —
    keeper == component min doc_id; keeper == doc_id for survivors.
    Shuffles only (band, key, doc_id, label) rows per round.
    """
    sig = read_documents(path).map_batches(
        cached_callable(MinHashSigs, num_perm=num_perm, bands=bands,
                        shingle_k=shingle_k),
        batch_format="pyarrow").materialize()

    def attach(labels: ray.data.Dataset | None, small: bool):
        if labels is None:
            return sig.map_batches(
                lambda t: t.append_column("label", t.column("doc_id")),
                batch_format="pyarrow")
        if small:
            # broadcast-join: one small (doc_id -> label) map via ray.put
            lab = {r["doc_id"]: r["label"] for r in labels.take_all()}
            ref = ray.put(lab)

            def add(t: pa.Table) -> pa.Table:
                m = ray.get(ref)
                ds_ = t.column("doc_id").to_numpy()
                return t.append_column(
                    "label", pa.array([m[int(d)] for d in ds_], pa.int64()))
            return sig.map_batches(add, batch_format="pyarrow")
        # big-corpus path: shuffle-join by doc_id (label rows ride with
        # band=-1 and are stripped after the group co-locates them)
        both = sig.map_batches(
            lambda t: t.append_column(
                "label", pa.array([-1] * len(t), pa.int64())),
            batch_format="pyarrow").union(labels.map_batches(
                lambda t: pa.table({
                    "band": pa.array(np.full(len(t), -1, np.int32)),
                    "key": t.column("doc_id").cast(pa.int64()),
                    "doc_id": t.column("doc_id"),
                    "label": t.column("label")}),
                batch_format="pyarrow"))

        def spread(g: pa.Table) -> pa.Table:
            lab_rows = g.filter(pc.equal(g.column("band"), -1))
            lv = int(lab_rows.column("label")[0].as_py()) if len(lab_rows) \
                else int(g.column("doc_id")[0].as_py())
            g2 = g.filter(pc.not_equal(g.column("band"), -1))
            return pa.table({
                "band": g2.column("band"), "key": g2.column("key"),
                "doc_id": g2.column("doc_id"),
                "label": pa.array([lv] * len(g2), pa.int64())})
        return both.groupby("doc_id").map_groups(spread,
                                                 batch_format="pyarrow")

    def bucket_min(g: pa.Table) -> pa.Table:
        lv = int(pc.min(g.column("label")).as_py())
        return pa.table({
            "doc_id": g.column("doc_id"),
            "blabel": pa.array(np.full(len(g), lv, np.int64))})

    small = sig.count() <= 5_000_000
    labels = None
    for _ in range(iters):
        rows = attach(labels, small)
        # bucket min -> doc min  (one groupby pair per round)
        bmin = rows.groupby(["band", "key"]).map_groups(
            bucket_min, batch_format="pyarrow")
        labels = bmin.groupby("doc_id").aggregate(
            Min("blabel", alias_name="label")).materialize()
    return labels.map_batches(
        lambda t: pa.table({"doc_id": t.column("doc_id"),
                            "keeper": t.column("label")}),
        batch_format="pyarrow")


class _Winnow:
    """Per-doc winnowing fingerprints (Schleimer, Wilkerson & Aiken,
    SIGMOD 2003 — the MOSS local fingerprinting algorithm): hash every
    word k-gram, slide a w-window over the hash sequence, keep each
    window's MINIMUM. The selected-value SET is what both engines
    compare (robust winnowing's rightmost-tie positional rule selects
    the same value set). md5-prefix hashes keep the oracle bit-exact
    (same trick as the sampling rule)."""

    def __init__(self, k: int, w: int):
        self.k, self.w = k, w

    def __call__(self, batch: pa.Table) -> pa.Table:
        # Fully vectorized: Arrow split -> flat word array, gram strings
        # via binary_join_element_wise over k shifted takes, md5 once per
        # UNIQUE gram (dictionary_encode), ONE global sliding-window min
        # with cross-doc windows masked out. Hash values are bit-exact
        # with int(md5(gram).hexdigest()[:8], 16) — the big-endian first
        # 4 digest bytes.
        k, w = self.k, self.w
        n = len(batch)
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "fp": pa.array([], pa.int64())})
        if n == 0:
            return empty
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        la = pc.split_pattern(
            pc.coalesce(batch["text"], ""), " ").combine_chunks()
        offs = la.offsets.to_numpy()
        flat = la.values
        doc_of = np.repeat(np.arange(n), np.diff(offs))
        nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        flat = flat.filter(pa.array(nonempty))
        doc_of = doc_of[nonempty]
        wc = np.bincount(doc_of, minlength=n)
        wstarts = np.concatenate(([0], np.cumsum(wc)))[:-1]
        ng = np.maximum(wc - k + 1, 0)          # grams per doc
        total = int(ng.sum())
        if total == 0:
            return empty
        gstarts = np.concatenate(([0], np.cumsum(ng)))[:-1]
        gdoc = np.repeat(np.arange(n), ng)
        gpos = (np.arange(total) - np.repeat(gstarts, ng)) + wstarts[gdoc]
        cols = [flat.take(pa.array(gpos + j)) for j in range(k)]
        enc = pc.dictionary_encode(pc.binary_join_element_wise(*cols, " "))
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        dig = np.frombuffer(
            b"".join(hashlib.md5(u.encode()).digest()[:4]
                     for u in enc.dictionary.to_pylist()),
            dtype=">u4").astype(np.int64)
        h = dig[codes]
        # global sliding-window minima; a window is valid iff it lies
        # entirely within one doc's gram run
        if len(h) >= w:
            wmin = np.lib.stride_tricks.sliding_window_view(h, w).min(axis=1)
            valid = gdoc[:len(wmin)] == gdoc[w - 1:]
            vd, vm = gdoc[:len(wmin)][valid], wmin[valid]
        else:
            vd = np.array([], np.int64)
            vm = np.array([], np.int64)
        # docs with 0 < n_grams < w contribute their single overall min
        has = ng > 0
        small = has & (ng < w)
        if small.any():
            doc_min = np.minimum.reduceat(h, gstarts[has])
            sd = np.flatnonzero(small)
            sm = doc_min[np.searchsorted(np.flatnonzero(has), sd)]
            vd = np.concatenate((vd, sd))
            vm = np.concatenate((vm, sm))
        if len(vd) == 0:
            return empty
        order = np.lexsort((vm, vd))
        vd, vm = vd[order], vm[order]
        keep = np.ones(len(vd), bool)
        keep[1:] = (vd[1:] != vd[:-1]) | (vm[1:] != vm[:-1])
        return pa.table({"doc_id": pa.array(ids[vd[keep]], pa.int64()),
                         "fp": pa.array(vm[keep], pa.int64())})


def winnowing_fingerprints(path: str, k: int = 5,
                           w: int = 4) -> ray.data.Dataset:
    """(doc_id, fp) distinct winnowing fingerprints per document —
    the substring-level near-dup signal (two docs sharing a >=k+w-1
    word run share a fingerprint, the winnowing guarantee)."""
    return (read_documents(path)
            .map_batches(_Winnow, fn_constructor_args=(k, w),
                         batch_format="pyarrow", concurrency=stage_pool()))


def jaccard_verify(path: str, pairs: list[tuple[int, int]],
                   shingle_k=3) -> ray.data.Dataset:
    """Exact n-gram Jaccard for candidate pairs. The involved docs are
    read with a doc_id predicate pushed into the Parquet scan (row-group
    pruning) — never a full-corpus pass."""
    involved = sorted({int(d) for p in pairs for d in p})
    analyzer = StandardAnalyzer()
    import pyarrow.compute as pc
    sub = ray.data.read_parquet(
        path, columns=["doc_id", "text"],
        filter=pc.field("doc_id").isin(involved))
    sh_map = {}
    for r in sub.take_all():  # small by construction: only the pair docs
        sh_map[r["doc_id"]] = _shingles(analyzer(r["text"] or ""), shingle_k)
    ref = ray.put(sh_map)

    def score(batch: pa.Table) -> pa.Table:
        m = ray.get(ref)
        jac = []
        for a, b in zip(batch["doc_a"].to_pylist(), batch["doc_b"].to_pylist()):
            sa, sb = m.get(a), m.get(b)
            if sa is None or sb is None or (len(sa) == 0 and len(sb) == 0):
                jac.append(0.0)
                continue
            inter = len(np.intersect1d(sa, sb, assume_unique=True))
            jac.append(inter / (len(sa) + len(sb) - inter))
        return batch.append_column("jaccard", pa.array(jac, pa.float64()))

    pair_ds = ray.data.from_items(
        [{"doc_a": a, "doc_b": b} for a, b in pairs])
    return pair_ds.map_batches(score, batch_format="pyarrow")


# --- SimHash ---------------------------------------------------------------

class SimHash:
    """64-bit simhash over term frequencies; emits (doc_id, simhash,
    band0..band3) — 16-bit bands for hamming<=3 blocking.

    Batch-vectorized: Arrow tokenize -> dictionary-encode; md5 runs once
    per UNIQUE term in the batch, contributions accumulate with one
    ``np.add.at`` over (doc, occurrence) pairs."""

    def __init__(self):
        self.analyzer = StandardAnalyzer()

    def simhash(self, text: str) -> int:
        acc = np.zeros(64, dtype=np.int64)
        terms = self.analyzer(text or "")
        if not terms:
            return 0
        from collections import Counter
        for t, c in Counter(terms).items():
            h = int.from_bytes(hashlib.md5(t.encode()).digest()[:8], "little")
            bits = np.unpackbits(np.frombuffer(h.to_bytes(8, "little"),
                                               dtype=np.uint8))
            acc += c * (2 * bits.astype(np.int64) - 1)
        out = 0
        for i, v in enumerate(acc):
            if v > 0:
                out |= (1 << i)
        return out

    def _batch_simhash(self, batch: pa.Table) -> np.ndarray:
        import pyarrow.compute as pc
        from ..index.builder import _tokenize_batch_arrow
        n = len(batch)
        flat, didx = _tokenize_batch_arrow(batch["text"], self.analyzer)
        if len(flat) == 0:
            return np.zeros(n, dtype=np.uint64)
        enc = pc.dictionary_encode(flat)
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uniq = enc.dictionary.to_pylist()
        # md5 once per unique term; bit matrix matches np.unpackbits on
        # the little-endian 8-byte digest prefix (same as simhash())
        digests = np.frombuffer(
            b"".join(hashlib.md5(u.encode()).digest()[:8] for u in uniq),
            dtype=np.uint8).reshape(len(uniq), 8)
        signs = (2 * np.unpackbits(digests, axis=1).astype(np.int64) - 1)
        acc = np.zeros((n, 64), dtype=np.int64)
        np.add.at(acc, didx, signs[codes])
        bits = (acc > 0).astype(np.uint64)
        weights = (np.uint64(1) << np.arange(64, dtype=np.uint64))
        return (bits * weights).sum(axis=1, dtype=np.uint64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        hs = self._batch_simhash(batch)
        masked = (hs & np.uint64(0x7FFFFFFFFFFFFFFF)).view(np.int64)
        return pa.table({
            "doc_id": batch["doc_id"],
            "simhash": pa.array(masked, pa.int64()),
            **{f"band{i}": pa.array(
                ((hs >> np.uint64(16 * i)) & np.uint64(0xFFFF)).astype(np.int32),
                pa.int32()) for i in range(4)},
        })


def simhash_table(path: str) -> ray.data.Dataset:
    return read_documents(path).map_batches(
        cached_callable(SimHash), batch_format="pyarrow")


def _explode_simhash_bands(t: pa.Table) -> pa.Table:
    """wide (doc_id, simhash, band0..3) -> long (band, key, doc_id, simhash).

    One chained map stage — a union of four branches sharing the
    simhash stage would make the executor instantiate that stage per
    branch and deadlock a small cluster on pool reservations."""
    parts = []
    for i in range(4):
        parts.append(pa.table({
            "band": pa.array([i] * len(t), pa.int32()),
            "key": t.column(f"band{i}"),
            "doc_id": t.column("doc_id"),
            "simhash": t.column("simhash"),
        }))
    return pa.concat_tables(parts)


def simhash_candidates(path: str, max_hamming=3) -> ray.data.Dataset:
    """Near-dup pairs by simhash: docs sharing any 16-bit band (pigeonhole
    for hamming<=3 over 64 bits in 4 bands), verified by true hamming.

    Buckets over BUCKET_CAP switch from all-pairs to a sorted-window
    probe (each doc vs its W neighbors in simhash order — exact dups and
    low-bit variants sort adjacent; the other 3 bands re-probe the rest),
    so a degenerate boilerplate bucket costs O(B log B), not O(B^2)."""
    allb = simhash_table(path).map_batches(_explode_simhash_bands,
                                           batch_format="pyarrow")

    def pairs_verified(group: pa.Table) -> pa.Table:
        docs = group["doc_id"].to_numpy()
        hashes = group["simhash"].to_numpy().view(np.uint64)
        order = np.lexsort((docs, hashes))
        docs, hashes = docs[order], hashes[order]
        m = len(docs)
        empty = pa.table({"doc_a": pa.array([], pa.int64()),
                          "doc_b": pa.array([], pa.int64()),
                          "hamming": pa.array([], pa.int32())})
        if m < 2:
            return empty
        if m <= BUCKET_CAP:
            ii, jj = np.triu_indices(m, k=1)
        else:
            W = 8  # sorted-window probe for oversized buckets
            ii = np.concatenate([np.arange(0, m - w) for w in range(1, W + 1)])
            jj = np.concatenate([np.arange(w, m) for w in range(1, W + 1)])
        ham = _popcount64(hashes[ii] ^ hashes[jj])
        keep = ham <= max_hamming
        ii, jj, ham = ii[keep], jj[keep], ham[keep]
        a = np.minimum(docs[ii], docs[jj])
        b = np.maximum(docs[ii], docs[jj])
        ok = a != b
        return pa.table({"doc_a": pa.array(a[ok], pa.int64()),
                         "doc_b": pa.array(b[ok], pa.int64()),
                         "hamming": pa.array(ham[ok].astype(np.int32),
                                             pa.int32())})

    cand = allb.groupby(["band", "key"]).map_groups(pairs_verified,
                                                    batch_format="pyarrow")
    return cand.groupby(["doc_a", "doc_b"]).aggregate(
        Min("hamming", alias_name="hamming"))


# --- embedding near-dup ----------------------------------------------------

def embedding_neardup(path: str, threshold=0.95, n_bits=8, n_tables=8,
                      bucket_cap=512, seed=29) -> ray.data.Dataset:
    """Pairs with cosine >= threshold via hyperplane-LSH bucketing — the
    streaming scale path: vectors shuffle to (table, bucket) groups and
    all matmuls stay bucket-local (no driver materialization, no global
    matrix). Data amplification is n_tables x (each vector lands in one
    bucket per table); recall for cos >= 0.95 with 8x8-bit tables is
    ~0.97+. Oversized buckets compare each vector against the bucket's
    first ``bucket_cap`` members (bounded work under degenerate skew).

    For exact all-pairs on small corpora use
    :func:`embedding_neardup_exact`."""
    def bucketize(batch: pa.Table) -> pa.Table:
        mat = np.stack(batch["embedding"].to_pylist()).astype(np.float32)
        mat /= np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
        d = mat.shape[1]
        r = np.random.default_rng(seed)  # same planes in every task
        planes = r.standard_normal((n_tables, n_bits, d)).astype(np.float32)
        weights = (1 << np.arange(n_bits, dtype=np.int64))
        vids = batch["vec_id"].to_numpy()
        vec_col = pa.FixedSizeListArray.from_arrays(
            pa.array(mat.reshape(-1)), d)
        parts = []
        for t in range(n_tables):
            b = ((mat @ planes[t].T) > 0) @ weights
            parts.append(pa.table({
                "tbl": pa.array(np.full(len(vids), t, dtype=np.int32)),
                "bucket": pa.array(b, pa.int64()),
                "vec_id": pa.array(vids, pa.int64()),
                "vec": vec_col,
            }))
        return pa.concat_tables(parts)

    def bucket_pairs(group: pa.Table) -> pa.Table:
        vids = group["vec_id"].to_numpy()
        order = np.argsort(vids)
        vids = vids[order]
        m = len(vids)
        empty = pa.table({"vec_a": pa.array([], pa.int64()),
                          "vec_b": pa.array([], pa.int64()),
                          "cosine": pa.array([], pa.float64())})
        if m < 2:
            return empty
        mat = np.stack(group["vec"].to_pylist()).astype(np.float32)[order]
        base = mat[:min(m, bucket_cap)]
        sims = (mat @ base.T).astype(np.float64)
        ii, jj = np.nonzero(sims >= threshold)
        keep = vids[ii] < vids[jj]
        return pa.table({
            "vec_a": pa.array(vids[ii][keep], pa.int64()),
            "vec_b": pa.array(vids[jj][keep], pa.int64()),
            "cosine": pa.array(sims[ii, jj][keep], pa.float64()),
        })

    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    buckets = ds.map_batches(bucketize, batch_format="pyarrow")
    pairs = buckets.groupby(["tbl", "bucket"]).map_groups(
        bucket_pairs, batch_format="pyarrow")
    return pairs.groupby(["vec_a", "vec_b"]).aggregate(
        Max("cosine", alias_name="cosine"))


def embedding_neardup_exact(path: str, threshold=0.95) -> ray.data.Dataset:
    """Exact all-pairs cosine >= threshold. The (n x dim) matrix is
    broadcast once via ray.put; each batch matmuls against it. O(N^2)
    compare and whole-table broadcast: SMALL CORPORA ONLY (< ~500k
    vectors); the LSH variant above is the scale path."""
    import pyarrow.parquet as pq

    t = pq.read_table(path, columns=["vec_id", "embedding"])
    ids = t.column("vec_id").to_numpy()
    mat = np.stack(t.column("embedding").to_pylist()).astype(np.float64)
    mat /= np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    ref = ray.put((ids, mat))

    def find(batch: pa.Table) -> pa.Table:
        all_ids, all_mat = ray.get(ref)
        bids = batch["vec_id"].to_numpy()
        bmat = np.stack(batch["embedding"].to_pylist()).astype(np.float64)
        bmat /= np.maximum(np.linalg.norm(bmat, axis=1, keepdims=True), 1e-12)
        sims = bmat @ all_mat.T
        ii, jj = np.nonzero(sims >= threshold)
        keep = bids[ii] < all_ids[jj]  # dedupe (a<b) and self-pairs
        return pa.table({
            "vec_a": pa.array(bids[ii][keep], pa.int64()),
            "vec_b": pa.array(all_ids[jj][keep], pa.int64()),
            "cosine": pa.array(sims[ii, jj][keep], pa.float64()),
        })

    return ray.data.read_parquet(path, columns=["vec_id", "embedding"]) \
        .map_batches(find, batch_format="pyarrow")
