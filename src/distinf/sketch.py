"""All-distances sketches combined across instances, and bottom-k threshold sketches.

Ranks order node-instance pairs.  The default model is a structured
permutation: each block of n consecutive rank values is an independent
permutation of the nodes, and each node's blocks map to a uniform
without-replacement selection of its instances.  An alternative model draws
independent uniform ranks from a huge integer domain; the inverse-probability
estimators are exactly unbiased under it, while the permutation model trades
a small finite-domain bias for lower variance.  Normalized ranks divide by
the model's domain size (n*ell for permutations).

Combined sketches keep, per node, the rank-distance pairs whose rank is below
the k-th smallest among strictly closer pairs; distance ties are broken by
(node, instance) index.  A threshold sketch of a node is the k smallest
ranks among its per-instance all-distances sketch entries within T.
"""

from __future__ import annotations

import heapq
import math
import struct
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .decay import DecayFunction
from .graph import MultiInstanceGraph

INF = math.inf

# A sketch entry: (rank, distance, node, instance).  Entries are ordered by
# the key (distance, node, instance), which totally orders pairs even under
# distance ties.
Entry = tuple[int, float, int, int]

UNIFORM_DOMAIN = 1 << 53


def _entry_key(e: Entry) -> tuple[float, int, int]:
    return (e[1], e[2], e[3])


@dataclass(frozen=True)
class RankAssignment:
    """Ranks over node-instance pairs.

    `rank[v, i]` is the integer rank of pair (v, i), or 0 if the pair is
    unranked (only possible for permutation ranks with fewer blocks than
    instances).  `norm` is the rank-domain size; normalized ranks are
    rank / norm in (0, 1].
    """

    n: int
    ell: int
    blocks: int
    seed: int
    model: str  # "permutation" | "uniform"
    rank: np.ndarray
    norm: int

    def sources(self) -> list[tuple[int, int, int]]:
        """Ranked (rank, node, instance) triples in increasing rank order."""
        v_idx, i_idx = np.nonzero(self.rank)
        r = self.rank[v_idx, i_idx]
        order = np.argsort(r)
        return list(zip(r[order].tolist(), v_idx[order].tolist(), i_idx[order].tolist()))

    def pair_of_rank(self) -> dict[int, tuple[int, int]]:
        return {r: (v, i) for r, v, i in self.sources()}

    def normalized_matrix(self) -> np.ndarray:
        """(ell, n) matrix of normalized ranks; requires every pair ranked."""
        if not (self.rank > 0).all():
            raise ValueError("normalized_matrix needs a fully ranked assignment")
        return self.rank.T.astype(np.float64) / self.norm


def structured_ranks(n: int, ell: int, blocks: int, seed: int) -> RankAssignment:
    """Structured permutation of [1, n*blocks] with the given block count."""
    if min(n, ell, blocks) < 1 or blocks > ell:
        raise ValueError("need n, ell >= 1 and 1 <= blocks <= ell")
    rng = np.random.Generator(np.random.Philox(key=seed))
    rank = np.zeros((n, ell), dtype=np.int64)
    # Per-node uniform selection (without replacement) of one instance per block.
    choice = np.argsort(rng.random((n, ell)), axis=1)[:, :blocks]
    nodes = np.arange(n)
    for b in range(blocks):
        perm = rng.permutation(n)  # perm[j] is the node at block position j
        pos = np.empty(n, dtype=np.int64)
        pos[perm] = nodes
        rank[nodes, choice[:, b]] = b * n + pos + 1
    return RankAssignment(n, ell, blocks, seed, "permutation", rank, n * ell)


def uniform_ranks(n: int, ell: int, seed: int) -> RankAssignment:
    """Independent uniform integer ranks from a domain large enough that
    collision and discretization effects are negligible."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    while True:
        rank = rng.integers(1, UNIFORM_DOMAIN, size=(n, ell), dtype=np.int64)
        if np.unique(rank).size == n * ell:
            return RankAssignment(n, ell, ell, seed, "uniform", rank, UNIFORM_DOMAIN)


def assign_ranks(n: int, ell: int, k: int, seed: int) -> RankAssignment:
    """Permutation ranks for sketch building: min(ell, k) blocks."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return structured_ranks(n, ell, min(ell, k), seed)


def _make_ranks(n: int, ell: int, k: int, seed: int, model: str) -> RankAssignment:
    if model == "permutation":
        return assign_ranks(n, ell, k, seed)
    if model == "uniform":
        return uniform_ranks(n, ell, seed)
    raise ValueError(f"unknown rank model {model!r}")


def build_ads_instance(
    g: MultiInstanceGraph, instance: int, ranks: RankAssignment, k: int, limit: float = INF
) -> list[list[Entry]]:
    """Single-instance all-distances sketches for every node, cut at limit.

    Reverse Dijkstras run from the instance's ranked pairs in increasing rank
    order and push no node beyond `limit`; a search is pruned at nodes that
    already hold k entries strictly closer (by the tie-broken key) than the
    current settle distance.  So the entries of a node within any distance
    x <= limit include the k smallest ranks within x.
    """
    radj = g.instances[instance].radj
    col = ranks.rank[:, instance]
    ranked = np.flatnonzero(col)
    ranked = ranked[np.argsort(col[ranked])]
    entries: list[list[Entry]] = [[] for _ in range(g.n)]
    keys: list[list[tuple[float, int]]] = [[] for _ in range(g.n)]
    push, pop = heapq.heappush, heapq.heappop
    for r, src in zip(col[ranked].tolist(), ranked.tolist()):
        dist: dict[int, float] = {}
        heap = [(0.0, src)]
        while heap:
            d, v = pop(heap)
            if v in dist:
                continue
            dist[v] = d
            key = (d, src)  # the instance is fixed, so (d, src) orders like the entry key
            kv = keys[v]
            pos = bisect_left(kv, key)
            if pos >= k:
                continue  # k smaller ranks already strictly closer: prune
            insort(kv, key)
            entries[v].append((r, d, src, instance))
            for u, w in radj[v]:
                if u not in dist:
                    du = d + w
                    if du <= limit:
                        push(heap, (du, u))
    for lst in entries:
        lst.sort(key=_entry_key)
    return entries


@dataclass
class CADS:
    """Combined all-distances sketch of one node: entries sorted by the
    tie-broken distance key, at most min(ell, k) of them at distance 0."""

    entries: list[Entry]
    k: int
    n: int
    ell: int
    norm: int = 0

    def __post_init__(self):
        if self.norm == 0:
            self.norm = self.n * self.ell

    def __len__(self) -> int:
        return len(self.entries)


def merge_cads(
    lists: Sequence, k: int, n: int | None = None, ell: int | None = None, norm: int | None = None
) -> CADS:
    """Merge sorted rank-distance lists into one combined sketch.

    Inputs are per-instance sketches of one node, or combined sketches when
    forming the union over a seed set; the result is independent of merge
    order.  Distance-0 entries keep the k smallest ranks outright; duplicate
    ranks (the same pair seen from several inputs) keep their closest
    occurrence only.
    """
    seqs = []
    for item in lists:
        if isinstance(item, CADS):
            if n is None:
                n, ell, norm = item.n, item.ell, item.norm
            seqs.append(item.entries)
        else:
            seqs.append(item)
    if n is None or ell is None:
        raise ValueError("merge_cads needs n and ell for raw entry lists")
    for seq in seqs:
        for a, b in zip(seq, seq[1:]):
            if _entry_key(a) > _entry_key(b):
                raise ValueError("merge input not sorted by distance key")
    out: list[Entry] = []
    kept: list[int] = []  # max-heap (negated) of the k smallest kept ranks
    seen: set[int] = set()
    zero = sorted((e for seq in seqs for e in seq if e[1] == 0.0), key=lambda e: e[0])[:k]
    zero.sort(key=_entry_key)
    for e in zero:
        seen.add(e[0])
        out.append(e)
        heapq.heappush(kept, -e[0])
    # positive-distance entries pass when their rank is under the k-th
    # smallest among the strictly closer kept pairs
    for e in heapq.merge(*seqs, key=_entry_key):
        r = e[0]
        if e[1] == 0.0 or r in seen:
            continue
        if len(kept) < k:
            seen.add(r)
            out.append(e)
            heapq.heappush(kept, -r)
        elif r < -kept[0]:
            seen.add(r)
            out.append(e)
            heapq.heapreplace(kept, -r)
    return CADS(out, k, n, ell, norm if norm is not None else n * ell)


def build_cads(
    g: MultiInstanceGraph, k: int, seed: int, rank_model: str = "permutation"
) -> tuple[list[CADS], RankAssignment]:
    """Full preprocessing: ranks, per-instance sketches, combined per node."""
    ranks = _make_ranks(g.n, g.ell, k, seed, rank_model)
    per_instance = [build_ads_instance(g, i, ranks, k) for i in range(g.ell)]
    combined = [
        merge_cads(
            [per_instance[i][v] for i in range(g.ell)], k, n=g.n, ell=g.ell, norm=ranks.norm
        )
        for v in range(g.n)
    ]
    return combined, ranks


def estimate_influence(
    sketches: Mapping[int, CADS] | Sequence[CADS],
    seeds: Sequence[int],
    alpha: DecayFunction,
) -> float:
    """Influence estimate for a seed set from the seeds' combined sketches.

    Merges the seed sketches into the union sketch and applies the
    inverse-probability estimator: the seeds contribute |S|*alpha(0) exactly;
    each positive-distance union entry contributes alpha(d) divided by its
    inclusion probability, the k-th smallest normalized rank among the
    entries ahead of it.
    """
    if not seeds:
        return 0.0
    if len(set(seeds)) != len(seeds):
        raise ValueError("duplicate seeds")
    seed_sketches = []
    for s in seeds:
        try:
            sk = sketches[s]
        except (KeyError, IndexError):
            raise ValueError(f"missing sketch for seed {s}") from None
        seed_sketches.append(sk)
    first = seed_sketches[0]
    k, norm = first.k, first.norm
    union = merge_cads(seed_sketches, k)
    total = 0.0
    kept: list[int] = []  # max-heap (negated) of the k smallest preceding ranks
    fn = alpha.fn
    for r, d, _, _ in union.entries:
        if d > 0:
            tau = (-kept[0] / norm) if len(kept) == k else 1.0
            total += fn(d) / tau
        if len(kept) < k:
            heapq.heappush(kept, -r)
        elif r < -kept[0]:
            heapq.heapreplace(kept, -r)
    return len(seeds) * alpha.alpha0 + total / first.ell


@dataclass
class ThresholdSketch:
    """Bottom-k ranks over the node-instance pairs within distance T."""

    ranks: list[int]
    k: int
    n: int
    ell: int
    T: float
    norm: int = 0

    def __post_init__(self):
        if self.norm == 0:
            self.norm = self.n * self.ell


def build_threshold_sketches(
    g: MultiInstanceGraph, ranks: RankAssignment, k: int, T: float
) -> list[ThresholdSketch]:
    """Bottom-k sketches of the within-T reachable pairs, for every node.

    Each instance's all-distances sketches cut at T hold the k smallest ranks
    within T of every node; they are folded into each node's running k
    smallest ranks one instance at a time, so only one instance's entries
    are held at once.
    """
    if not T > 0:
        raise ValueError("T must be positive")
    bottom: list[list[int]] = [[] for _ in range(g.n)]
    for instance in range(g.ell):
        for v, entries in enumerate(build_ads_instance(g, instance, ranks, k, limit=T)):
            bottom[v] = sorted(bottom[v] + [e[0] for e in entries])[:k]
    return [ThresholdSketch(b, k, g.n, g.ell, T, ranks.norm) for b in bottom]


def threshold_influence_estimate(sketches: Sequence[ThresholdSketch], ell: int) -> float:
    """Influence (pair count averaged over instances) from threshold sketches.

    The pair count is the bottom-k cardinality estimate (k-1)/tau_k on the
    union of the seeds' rank sets, or the exact count when the union holds
    fewer than k distinct ranks.
    """
    if not sketches:
        return 0.0
    k, norm = sketches[0].k, sketches[0].norm
    union: set[int] = set()
    for sk in sketches:
        if sk.k != k:
            raise ValueError("sketches built with mismatched k")
        union.update(sk.ranks)
    if len(union) < k:
        return len(union) / ell
    tau_k = heapq.nsmallest(k, union)[-1] / norm
    return (k - 1) / tau_k / ell


_MAGIC = b"DSK1"
_KIND_CADS = 1
_KIND_THRESHOLD = 2
_MODEL_CODE = {"permutation": 0, "uniform": 1}
_MODEL_NAME = {v: k for k, v in _MODEL_CODE.items()}
_HEADER = struct.Struct("<4sBBIIIQd")


def save_sketches(
    path: str,
    sketches: Sequence[CADS] | Sequence[ThresholdSketch],
    seed: int,
    rank_model: str = "permutation",
) -> None:
    """Write sketches as little-endian length-prefixed (rank, distance) records."""
    first = sketches[0]
    kind = _KIND_CADS if isinstance(first, CADS) else _KIND_THRESHOLD
    T = getattr(first, "T", float("nan"))
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(_MAGIC, kind, _MODEL_CODE[rank_model], first.n, first.ell, first.k, seed, T)
        )
        if kind == _KIND_CADS:
            rec = struct.Struct("<Qd")
            for sk in sketches:
                fh.write(struct.pack("<I", len(sk.entries)))
                for r, d, _, _ in sk.entries:
                    fh.write(rec.pack(r, d))
        else:
            rec = struct.Struct("<Q")
            for sk in sketches:
                fh.write(struct.pack("<I", len(sk.ranks)))
                for r in sk.ranks:
                    fh.write(rec.pack(r))


def load_sketches(path: str):
    """Read a sketch file back; returns (sketches, ranks, seed).

    A truncated or otherwise malformed file raises ValueError.
    """
    with open(path, "rb") as fh:
        try:
            return _read_sketches(fh, path)
        except struct.error:  # a read came back short
            raise ValueError(f"{path}: truncated sketch file") from None


def _read_sketches(fh, path: str):
    magic, kind, model_code, n, ell, k, seed, T = _HEADER.unpack(fh.read(_HEADER.size))
    if magic != _MAGIC:
        raise ValueError(f"{path}: not a sketch file")
    if k < 1:
        raise ValueError(f"{path}: sketch size k must be at least 1, got {k}")
    if kind not in (_KIND_CADS, _KIND_THRESHOLD) or model_code not in _MODEL_NAME:
        raise ValueError(f"{path}: unknown sketch kind or rank model")
    model = _MODEL_NAME[model_code]
    if model == "uniform":
        ranks = uniform_ranks(n, ell, seed)
    elif kind == _KIND_CADS:
        ranks = assign_ranks(n, ell, k, seed)
    else:
        ranks = structured_ranks(n, ell, ell, seed)
    if kind == _KIND_CADS:
        pair_of = ranks.pair_of_rank()
        rec = struct.Struct("<Qd")
        sketches: list = []
        for _ in range(n):
            (count,) = struct.unpack("<I", fh.read(4))
            entries: list[Entry] = []
            for _ in range(count):
                r, d = rec.unpack(fh.read(rec.size))
                try:
                    v, i = pair_of[r]
                except KeyError:
                    raise ValueError(f"{path}: rank {r} belongs to no node-instance pair") from None
                entries.append((r, d, v, i))
            sketches.append(CADS(entries, k, n, ell, ranks.norm))
        return sketches, ranks, seed
    rec = struct.Struct("<Q")
    tsketches: list = []
    for _ in range(n):
        (count,) = struct.unpack("<I", fh.read(4))
        rs = [rec.unpack(fh.read(rec.size))[0] for _ in range(count)]
        tsketches.append(ThresholdSketch(rs, k, n, ell, T, ranks.norm))
    return tsketches, ranks, seed
