"""All-distances sketches combined across instances, and bottom-k threshold sketches.

Ranks order node-instance pairs.  The default model is a structured
permutation: each block of n consecutive rank values is an independent
permutation of the nodes, and each node's blocks map to a uniform
without-replacement selection of its instances.  An alternative model draws
independent uniform ranks from a huge integer domain; the inverse-probability
estimators are exactly unbiased under it, while the permutation model trades
a small finite-domain bias for lower variance.  Normalized ranks divide by
the model's domain size (n*ell for permutations).

Combined sketches keep, per node, the k smallest ranks at distance 0 and the
rank-distance pairs whose rank is below the k-th smallest among strictly
closer pairs; distance ties are broken by (node, instance) index.  Every sketch, per-instance or combined, is a `CADS`:
parallel arrays (rank, distance, node, instance) sorted by that key.  One
vectorized union filter, `merge_cads`, forms both a node's combined sketch
from its per-instance sketches and the union sketch of a query's seed set.  A
threshold sketch of a node is the k smallest ranks among its per-instance
all-distances sketch entries within T.
"""

from __future__ import annotations

import heapq
import math
import struct
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .decay import DecayFunction
from .graph import MultiInstanceGraph

INF = math.inf

# A sketch entry: (rank, distance, node, instance).  Entries are ordered by
# the key (distance, node, instance), which totally orders pairs even under
# distance ties.
Entry = tuple[int, float, int, int]

UNIFORM_DOMAIN = 1 << 53

# Positive-distance entries that the union filter cuts against one threshold
# before checking the survivors one by one.
_CHUNK = 128


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
    rank: np.ndarray
    norm: int

    def ranked_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arrays (rank, node, instance) of the ranked pairs in increasing rank order."""
        flat = self.rank.ravel()
        pair = np.flatnonzero(flat)
        pair = pair[np.argsort(flat[pair])]
        return flat[pair], pair // self.ell, pair % self.ell


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
    return RankAssignment(n, ell, rank, n * ell)


def uniform_ranks(n: int, ell: int, seed: int) -> RankAssignment:
    """Independent uniform integer ranks from a domain large enough that
    collision and discretization effects are negligible."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    while True:
        rank = rng.integers(1, UNIFORM_DOMAIN, size=(n, ell), dtype=np.int64)
        if np.unique(rank).size == n * ell:
            return RankAssignment(n, ell, rank, UNIFORM_DOMAIN)


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
) -> list[CADS]:
    """Single-instance all-distances sketches for every node, cut at limit.

    Reverse Dijkstras run from the instance's ranked pairs in increasing rank
    order and push no node beyond `limit`; a search is pruned at nodes that
    already hold k entries strictly closer (by the tie-broken key) than the
    current settle distance.  So the entries of a node within any distance
    x <= limit include the k smallest ranks within x.  The entries of all
    nodes are recorded in typed buffers and sorted once by (node, key); each
    node's sketch is a `CADS` whose columns are views of those arrays.
    """
    if not 0 <= instance < g.ell:
        raise ValueError(f"instance {instance} out of range [0, {g.ell})")
    # this instance's reverse (tail, length) lists, dropped on return; inf lengths are never pushed
    in_edges: list[list[tuple[int, float]]] = [[] for _ in range(g.n)]
    for t, h, w in zip(g.tails.tolist(), g.heads.tolist(), g.weights[instance].tolist()):
        in_edges[h].append((t, w))
    col = ranks.rank[:, instance]
    ranked = np.flatnonzero(col)
    ranked = ranked[np.argsort(col[ranked])]
    # entry columns (owner, rank, distance, node), appended as found
    cols = (array("q"), array("q"), array("d"), array("q"))
    add_owner, add_rank, add_dist, add_node = (c.append for c in cols)
    # per node, a max-heap of its k smallest keys (d, src), stored negated;
    # the instance is fixed, so (d, src) orders like the entry key
    keys: list[list[tuple[float, int]]] = [[] for _ in range(g.n)]
    # the distance of a node's k-th smallest key once it holds k: a later
    # source reaching it from farther away would be pruned, so is not pushed
    cap = [INF] * g.n
    push, pop, replace = heapq.heappush, heapq.heappop, heapq.heapreplace
    for r, src in zip(col[ranked].tolist(), ranked.tolist()):
        dist = {src: 0.0}  # tentative distances; a node is pushed only when its distance falls
        heap = [(0.0, src)]
        while heap:
            d, v = pop(heap)
            if d > dist[v]:
                continue
            kv = keys[v]
            key = (-d, -src)
            if len(kv) < k:
                push(kv, key)
            elif key > kv[0]:
                replace(kv, key)
            else:
                continue  # k smaller ranks already strictly closer: prune
            if len(kv) == k:
                cap[v] = -kv[0][0]
            add_owner(v)
            add_rank(r)
            add_dist(d)
            add_node(src)
            for u, w in in_edges[v]:
                du = d + w
                if du <= cap[u] and du < dist.get(u, INF) and du <= limit:
                    dist[u] = du
                    push(heap, (du, u))
    owner, rank, dist, node = (np.frombuffer(c, c.typecode) for c in cols)
    order = np.lexsort((node, dist, owner))
    rank, dist, node = rank[order], dist[order], node[order]
    inst = np.full(len(order), instance, dtype=np.int64)
    bounds = np.searchsorted(owner[order], np.arange(g.n + 1)).tolist()
    return [
        CADS(rank[a:b], dist[a:b], node[a:b], inst[a:b], k, g.n, g.ell, ranks.norm)
        for a, b in zip(bounds[:-1], bounds[1:])
    ]


@dataclass(eq=False)
class CADS:
    """All-distances sketch of one node: parallel arrays (rank, distance,
    node, instance) sorted by the tie-broken distance key.  It covers one
    instance (from `build_ads_instance`) or all of them (combined, from
    `merge_cads`, with at most min(ell, k) entries at distance 0)."""

    rank: np.ndarray
    dist: np.ndarray
    node: np.ndarray
    instance: np.ndarray
    k: int
    n: int
    ell: int
    norm: int

    @property
    def entries(self) -> list[Entry]:
        """The entries as (rank, distance, node, instance) tuples in key order."""
        return list(
            zip(self.rank.tolist(), self.dist.tolist(), self.node.tolist(), self.instance.tolist())
        )

    def __len__(self) -> int:
        return len(self.rank)


def merge_cads(parts: Sequence[CADS], k: int) -> CADS:
    """Union filter: one combined sketch from the entries of all parts.

    Parts are a node's per-instance sketches at build time, or the seeds'
    combined sketches when forming a query's union; the result does not
    depend on part order.  A repeated rank (one pair seen from several
    parts) keeps its closest occurrence only; distance-0 entries keep the k
    smallest ranks outright; a positive-distance entry is kept when its rank
    is below the k-th smallest kept rank ahead of it in key order.
    """
    n, ell, norm = parts[0].n, parts[0].ell, parts[0].norm
    rank, dist, node, inst = (
        np.concatenate(c) for c in zip(*((p.rank, p.dist, p.node, p.instance) for p in parts))
    )

    # The threshold never rises above the k-th smallest distance-0 rank, so
    # every larger rank is cut first.
    zero_ranks = rank[dist == 0.0]
    if len(zero_ranks) > k:
        zero_ranks = np.sort(zero_ranks)
        zero_ranks = zero_ranks[np.diff(zero_ranks, prepend=0) != 0]  # distinct; ranks are >= 1
    if len(zero_ranks) > k:
        cut = rank <= zero_ranks[k - 1]
        rank, dist, node, inst = rank[cut], dist[cut], node[cut], inst[cut]
    # a repeated rank (one pair) keeps its closest occurrence
    order = np.lexsort((dist, rank))
    r = rank[order]
    first = np.ones(len(r), dtype=bool)
    first[1:] = r[1:] != r[:-1]
    order = order[first]
    order = order[np.lexsort((inst[order], node[order], dist[order]))]
    r = rank[order]
    # the distance-0 entries lead the key order, and after the cut all are kept
    nz = int(np.count_nonzero(dist[order] == 0.0))
    picked = list(range(nz))  # positions in key order
    kept = [-x for x in r[:nz].tolist()]  # max-heap (negated) of the k smallest kept ranks
    heapq.heapify(kept)
    for start in range(nz, len(r), _CHUNK):
        seg = r[start : start + _CHUNK]
        # the threshold only falls, so ranks not below it now are all rejected
        pos = np.arange(len(seg)) if len(kept) < k else np.flatnonzero(seg < -kept[0])
        for j, x in zip(pos.tolist(), seg[pos].tolist()):
            if len(kept) < k:
                heapq.heappush(kept, -x)
            elif x < -kept[0]:
                heapq.heapreplace(kept, -x)
            else:
                continue
            picked.append(start + j)
    sel = order[picked]
    return CADS(rank[sel], dist[sel], node[sel], inst[sel], k, n, ell, norm)


def build_cads(
    g: MultiInstanceGraph, k: int, seed: int, rank_model: str = "permutation"
) -> tuple[list[CADS], RankAssignment]:
    """Full preprocessing: ranks, per-instance sketches, combined per node."""
    ranks = _make_ranks(g.n, g.ell, k, seed, rank_model)
    per_instance = [build_ads_instance(g, i, ranks, k) for i in range(g.ell)]
    combined = [merge_cads([sk[v] for sk in per_instance], k) for v in range(g.n)]
    return combined, ranks


def estimate_influence(
    sketches: Sequence[CADS],
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
    for s in seeds:
        if not 0 <= s < len(sketches):
            raise ValueError(f"seed {s} out of range [0, {len(sketches)})")
    seed_sketches = [sketches[s] for s in seeds]
    first = seed_sketches[0]
    k, norm = first.k, first.norm
    union = merge_cads(seed_sketches, k)
    total = 0.0
    kept: list[int] = []  # max-heap (negated) of the k smallest preceding ranks
    fn = alpha.fn
    for r, d in zip(union.rank.tolist(), union.dist.tolist()):
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
    within T of every node; their rank columns are folded into each node's
    running k smallest ranks (the first `size[v]` of row v of `bottom`) one
    instance at a time, so only one instance's entries are held at once.
    """
    if not T > 0:
        raise ValueError("T must be positive")
    bottom = np.zeros((g.n, k), dtype=np.int64)
    size = [0] * g.n
    for instance in range(g.ell):
        for v, sk in enumerate(build_ads_instance(g, instance, ranks, k, limit=T)):
            b = np.sort(np.concatenate((bottom[v, : size[v]], sk.rank)))[:k]
            bottom[v, : len(b)] = b
            size[v] = len(b)
        sk = None  # the last sketch's views would keep this instance's arrays alive
    return [ThresholdSketch(b[:s].tolist(), k, g.n, g.ell, T, ranks.norm) for b, s in zip(bottom, size)]


def threshold_influence_estimate(sketches: Sequence[ThresholdSketch]) -> float:
    """Influence (pair count averaged over instances) from threshold sketches.

    The pair count is the bottom-k cardinality estimate (k-1)/tau_k on the
    union of the seeds' rank sets, or the exact count when the union holds
    fewer than k distinct ranks.
    """
    if not sketches:
        return 0.0
    k, ell, norm = sketches[0].k, sketches[0].ell, sketches[0].norm
    union: set[int] = set()
    for sk in sketches:
        if (sk.k, sk.ell) != (k, ell):
            raise ValueError("sketches built with mismatched k or ell")
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
_CADS_RECORD = np.dtype([("rank", "<u8"), ("dist", "<f8")])
_THRESHOLD_RECORD = np.dtype("<u8")


def save_sketches(path: str, sketches: Sequence[CADS] | Sequence[ThresholdSketch], seed: int) -> None:
    """Write sketches as little-endian length-prefixed (rank, distance) records.

    The header names the rank model the sketches carry: uniform when their
    rank domain is `UNIFORM_DOMAIN`, otherwise permutation.
    """
    first = sketches[0]
    kind = _KIND_CADS if isinstance(first, CADS) else _KIND_THRESHOLD
    model = _MODEL_CODE["uniform" if first.norm == UNIFORM_DOMAIN else "permutation"]
    T = getattr(first, "T", float("nan"))
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, kind, model, first.n, first.ell, first.k, seed, T))
        for sk in sketches:
            if kind == _KIND_CADS:
                rec = np.empty(len(sk), _CADS_RECORD)
                rec["rank"], rec["dist"] = sk.rank, sk.dist
            else:
                rec = np.asarray(sk.ranks, dtype=_THRESHOLD_RECORD)
            fh.write(struct.pack("<I", len(rec)))
            fh.write(rec.tobytes())


def load_sketches(path: str):
    """Read a sketch file back; returns (sketches, ranks, seed).

    A truncated or otherwise malformed file raises ValueError, and so does a
    combined sketch record with a NaN, infinite or negative distance, an
    unknown rank, a rank repeated within its sketch, or one out of key order,
    and a threshold sketch record with an unknown rank, ranks that are not
    strictly increasing, or more than k ranks.
    """
    with open(path, "rb") as fh:
        try:
            header = _HEADER.unpack(fh.read(_HEADER.size))
        except struct.error:  # the read came back short
            raise ValueError(f"{path}: truncated sketch file") from None
        return _read_sketches(fh.read(), header, path)


def _read_records(data: bytes, n: int, dtype: np.dtype, path: str) -> list[np.ndarray]:
    """The n length-prefixed record arrays that follow the header."""
    out, pos = [], 0
    for _ in range(n):
        end = pos + 4
        if end > len(data):
            raise ValueError(f"{path}: truncated sketch file")
        count = int.from_bytes(data[pos:end], "little")
        pos = end + count * dtype.itemsize
        if pos > len(data):
            raise ValueError(f"{path}: truncated sketch file")
        out.append(np.frombuffer(data, dtype, count, end))
    return out


def _rank_positions(table: np.ndarray, rank: np.ndarray, raw: np.ndarray, v: int, path: str) -> np.ndarray:
    """Positions of node v's ranks in the rank table; an unknown rank
    (reported as stored, raw) raises ValueError."""
    pos = np.minimum(np.searchsorted(table, rank), len(table) - 1)
    bad = np.flatnonzero(table[pos] != rank)
    if len(bad):
        raise ValueError(
            f"{path}: sketch of node {v} holds rank {raw[bad[0]]}, which belongs to no node-instance pair"
        )
    return pos


def _read_sketches(data: bytes, header: tuple, path: str):
    magic, kind, model_code, n, ell, k, seed, T = header
    if magic != _MAGIC:
        raise ValueError(f"{path}: not a sketch file")
    if k < 1:
        raise ValueError(f"{path}: sketch size k must be at least 1, got {k}")
    if n < 1 or ell < 1:
        raise ValueError(f"{path}: sketch file needs n, ell >= 1, got n={n} ell={ell}")
    if kind not in (_KIND_CADS, _KIND_THRESHOLD) or model_code not in _MODEL_NAME:
        raise ValueError(f"{path}: unknown sketch kind or rank model")
    model = _MODEL_NAME[model_code]
    if model == "uniform":
        ranks = uniform_ranks(n, ell, seed)
    elif kind == _KIND_CADS:
        ranks = assign_ranks(n, ell, k, seed)
    else:
        ranks = structured_ranks(n, ell, ell, seed)
    table, table_node, table_inst = ranks.ranked_pairs()
    if kind == _KIND_THRESHOLD:
        sketches = []
        for v, rec in enumerate(_read_records(data, n, _THRESHOLD_RECORD, path)):
            rank = rec.astype(np.int64)
            _rank_positions(table, rank, rec, v, path)
            if not (rank[1:] > rank[:-1]).all():
                raise ValueError(f"{path}: sketch of node {v} has ranks that are not strictly increasing")
            if len(rank) > k:
                raise ValueError(f"{path}: sketch of node {v} holds {len(rank)} ranks, more than k={k}")
            sketches.append(ThresholdSketch(rank.tolist(), k, n, ell, T, ranks.norm))
        return sketches, ranks, seed
    sketches = []
    for v, rec in enumerate(_read_records(data, n, _CADS_RECORD, path)):
        rank, dist = rec["rank"].astype(np.int64), rec["dist"].copy()
        bad = np.flatnonzero(~(np.isfinite(dist) & (dist >= 0)))
        if len(bad):
            raise ValueError(f"{path}: sketch of node {v} has distance {float(dist[bad[0]])!r}")
        pos = _rank_positions(table, rank, rec["rank"], v, path)
        node, inst = table_node[pos], table_inst[pos]
        sr = np.sort(rank)
        bad = np.flatnonzero(sr[1:] == sr[:-1])
        if len(bad):
            raise ValueError(f"{path}: sketch of node {v} repeats rank {sr[bad[0]]}")
        d0, d1, v0, v1, i0, i1 = dist[:-1], dist[1:], node[:-1], node[1:], inst[:-1], inst[1:]
        if not ((d0 < d1) | ((d0 == d1) & ((v0 < v1) | ((v0 == v1) & (i0 < i1))))).all():
            raise ValueError(f"{path}: sketch of node {v} has records out of key order")
        sketches.append(CADS(rank, dist, node, inst, k, n, ell, ranks.norm))
    return sketches, ranks, seed
