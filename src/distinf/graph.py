"""Multi-instance weighted directed graphs and shortest-path engines.

A multi-instance graph is a fixed node set shared by one or more edge-weighted
directed instances.  Instances either come straight from an edge list or are
sampled from a probabilistic edge-length model over a common topology.  All
graph values are immutable once built and safe to share across threads; the
pausable `DijkstraCursor` is the only mutable search state and is single-owner.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

INF = math.inf


class GraphFormatError(ValueError):
    """Malformed edge-list input."""


@dataclass(frozen=True)
class EdgeLengthModel:
    """Random edge-length assignment used when sampling instances.

    kind is one of "exponential", "weibull", "unit", "file".  Exponential
    lengths are -mean*ln(x) with x uniform on (0, 1].  Weibull draws a
    per-edge scale and shape uniformly from (0, high] once, then samples one
    length per (edge, instance).  "unit" forces every length to 1; "file"
    keeps the base lengths.  Sampling is a pure function of (base, model,
    seed): lengths come from a counter-based generator keyed on the seed, so
    the draw for an (edge, instance) slot does not depend on evaluation order.
    """

    kind: str
    mean: float = 1.0
    high: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("exponential", "weibull", "unit", "file"):
            raise ValueError(f"unknown edge-length model kind: {self.kind!r}")
        if self.kind == "exponential" and not self.mean > 0:
            raise ValueError("exponential mean must be positive")
        if self.kind == "weibull" and not self.high > 0:
            raise ValueError("weibull parameter range must be positive")

    @classmethod
    def exponential(cls, mean: float = 1.0, seed: int = 0) -> "EdgeLengthModel":
        return cls("exponential", mean=mean, seed=seed)

    @classmethod
    def weibull(cls, high: float = 10.0, seed: int = 0) -> "EdgeLengthModel":
        return cls("weibull", high=high, seed=seed)

    @classmethod
    def unit(cls) -> "EdgeLengthModel":
        return cls("unit")

    @classmethod
    def file_given(cls) -> "EdgeLengthModel":
        return cls("file")

    def sample(self, base_weights: np.ndarray, ell: int) -> np.ndarray:
        """Draw an (ell, m) length matrix for a topology with m edges."""
        m = base_weights.shape[0]
        if self.kind == "unit":
            return np.ones((ell, m))
        if self.kind == "file":
            return np.tile(base_weights, (ell, 1))
        rng = np.random.Generator(np.random.Philox(key=self.seed))
        if self.kind == "exponential":
            u = 1.0 - rng.random((ell, m))  # uniform on (0, 1]
            return -self.mean * np.log(u)
        # weibull: per-edge scale/shape in (0, high], then per-slot draws
        lam = self.high * (1.0 - rng.random(m))
        beta = self.high * (1.0 - rng.random(m))
        u = 1.0 - rng.random((ell, m))
        return lam * (-np.log(u)) ** (1.0 / beta)


class Instance:
    """One weighted directed instance over nodes [0, n)."""

    __slots__ = ("n", "tails", "heads", "weights", "_adj", "_radj")

    def __init__(self, n: int, tails: np.ndarray, heads: np.ndarray, weights: np.ndarray):
        if not len(tails) == len(heads) == len(weights):
            raise ValueError("tails, heads and lengths must have one entry per edge")
        if len(tails) and (min(tails.min(), heads.min()) < 0 or max(tails.max(), heads.max()) >= n):
            raise ValueError(f"edge endpoints must be node ids in [0, {n})")
        if not (weights > 0).all():
            raise ValueError("edge lengths must be positive (NaN is rejected)")
        self.n = n
        self.tails = tails
        self.heads = heads
        self.weights = weights
        self._adj = None
        self._radj = None

    @property
    def adj(self) -> list[list[tuple[int, float]]]:
        """Forward adjacency lists of (head, length), built on first use."""
        if self._adj is None:
            self._adj = _adjacency(self.n, self.tails, self.heads, self.weights)
        return self._adj

    @property
    def radj(self) -> list[list[tuple[int, float]]]:
        """Transpose adjacency, built on first use."""
        if self._radj is None:
            self._radj = _adjacency(self.n, self.heads, self.tails, self.weights)
        return self._radj


def _adjacency(n: int, src: np.ndarray, dst: np.ndarray, weights: np.ndarray) -> list[list[tuple[int, float]]]:
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for s, d, w in zip(src.tolist(), dst.tolist(), weights.tolist()):
        adj[s].append((d, w))
    return adj


class MultiInstanceGraph:
    """Shared node set with ell directed weighted edge sets."""

    def __init__(self, n: int, instances: Sequence[Instance], labels: Sequence[str] | None = None):
        if not instances:
            raise ValueError("need at least one instance")
        self.n = n
        self.instances = list(instances)
        self.labels = list(labels) if labels is not None else [str(i) for i in range(n)]
        self._label_index = {lab: i for i, lab in enumerate(self.labels)}
        self._csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def ell(self) -> int:
        return len(self.instances)

    def forward_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, heads, weights) of every instance's out-edges, keyed by
        instance * n + tail; built on first use and kept, as graphs are immutable.

        Instances that share their tail array (all sampled instances do) share
        one sort of it.
        """
        if self._csr is None:
            counts, heads, weights = [], [], []
            tails = order = count = None
            for inst in self.instances:
                if inst.tails is not tails:
                    tails = inst.tails
                    order = np.argsort(tails, kind="stable")
                    count = np.bincount(tails, minlength=self.n)
                counts.append(count)
                heads.append(inst.heads[order].astype(np.int32))
                weights.append(inst.weights[order])
            indptr = np.zeros(self.ell * self.n + 1, dtype=np.int64)
            np.cumsum(np.concatenate(counts), out=indptr[1:])
            self._csr = (indptr, np.concatenate(heads), np.concatenate(weights))
        return self._csr

    def node_of_label(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise ValueError(f"unknown node label: {label!r}") from None

    @classmethod
    def from_arrays(
        cls,
        n: int,
        tails: Sequence[int],
        heads: Sequence[int],
        weights: np.ndarray | Sequence[Sequence[float]] | None = None,
        labels: Sequence[str] | None = None,
    ) -> "MultiInstanceGraph":
        """Build from parallel edge arrays; weights is (ell, m) or None for unit."""
        tails = np.asarray(tails, dtype=np.int64)
        heads = np.asarray(heads, dtype=np.int64)
        if weights is None:
            weights = np.ones((1, len(tails)))
        weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
        instances = [Instance(n, tails, heads, w) for w in weights]
        return cls(n, instances, labels)


def load_edge_list(path: str, weighted: bool = False) -> MultiInstanceGraph:
    """Read a whitespace-separated "tail head [length]" file into a one-instance graph.

    Node ids are remapped to dense [0, n) in order of first appearance; the
    original tokens are kept as labels.  Self-loops are dropped and parallel
    edges are collapsed to the minimum length (convention; absent edges mean
    infinite distance either way).  Unweighted edges get length 1.
    """
    labels: list[str] = []
    index: dict[str, int] = {}

    def node(tok: str) -> int:
        if tok not in index:
            index[tok] = len(labels)
            labels.append(tok)
        return index[tok]

    best: dict[tuple[int, int], float] = {}
    order: list[tuple[int, int]] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            want = 3 if weighted else 2
            if len(parts) != want:
                raise GraphFormatError(f"{path}:{lineno}: expected {want} fields, got {len(parts)}")
            t, h = node(parts[0]), node(parts[1])
            if weighted:
                try:
                    w = float(parts[2])
                except ValueError:
                    raise GraphFormatError(f"{path}:{lineno}: bad length {parts[2]!r}") from None
            else:
                w = 1.0
            if not w > 0:
                raise ValueError(f"{path}:{lineno}: edge length must be positive, got {w}")
            if t == h:
                continue
            key = (t, h)
            if key not in best:
                best[key] = w
                order.append(key)
            elif w < best[key]:
                best[key] = w
    tails = [t for t, _ in order]
    heads = [h for _, h in order]
    weights = np.array([[best[k] for k in order]], dtype=np.float64)
    return MultiInstanceGraph.from_arrays(len(labels), tails, heads, weights, labels)


def sample_instances(base: MultiInstanceGraph, model: EdgeLengthModel, ell: int) -> MultiInstanceGraph:
    """Sample ell instances with the base topology and model-drawn lengths."""
    if base.ell != 1:
        raise ValueError("instance sampling starts from a single-instance graph")
    if ell < 1:
        raise ValueError("ell must be at least 1")
    inst = base.instances[0]
    weights = model.sample(inst.weights, ell)
    return MultiInstanceGraph.from_arrays(base.n, inst.tails, inst.heads, weights, base.labels)


def save_npz(g: MultiInstanceGraph, path: str) -> None:
    """Binary cache of a graph; round-trips losslessly."""
    inst = g.instances[0]
    weights = np.stack([i.weights for i in g.instances]) if len(inst.weights) else np.zeros((g.ell, 0))
    np.savez(
        path,
        n=np.int64(g.n),
        tails=inst.tails,
        heads=inst.heads,
        weights=weights,
        labels=np.array(g.labels, dtype="U"),
    )


def load_npz(path: str) -> MultiInstanceGraph:
    data = np.load(path)
    return MultiInstanceGraph.from_arrays(
        int(data["n"]), data["tails"], data["heads"], data["weights"], [str(x) for x in data["labels"]]
    )


class DijkstraCursor:
    """Pausable reverse Dijkstra from one node-instance pair.

    Runs on the transpose of the pair's instance, so settled distances are
    distances *to* the source in the original graph.  `mu` is the smallest
    unsettled tentative distance (0 initially, inf once exhausted); resuming
    continues exactly where the previous resume paused.  With a finite
    `limit` the search never pushes a node beyond it, so it settles exactly
    the nodes within limit and is exhausted after them.
    """

    __slots__ = ("source", "_radj", "_dist", "_heap", "_limit")

    def __init__(self, g: MultiInstanceGraph, instance: int, source: int, limit: float = INF):
        if not (0 <= source < g.n):
            raise ValueError(f"source {source} out of range")
        self.source = (source, instance)
        self._radj = g.instances[instance].radj
        self._dist: dict[int, float] = {}
        self._heap: list[tuple[float, int]] = [(0.0, source)]
        self._limit = limit

    def peek(self) -> float | None:
        """Next settle distance, or None when the search is exhausted."""
        heap, dist = self._heap, self._dist
        while heap and heap[0][1] in dist:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    @property
    def mu(self) -> float:
        d = self.peek()
        return INF if d is None else d

    @property
    def exhausted(self) -> bool:
        return self.peek() is None

    def settle_next(self) -> tuple[int, float]:
        """Settle and return the next node; relaxes its transpose out-edges."""
        d = self.peek()
        if d is None:
            raise RuntimeError("cursor exhausted")
        _, u = heapq.heappop(self._heap)
        dist = self._dist
        dist[u] = d
        push, heap, limit = heapq.heappush, self._heap, self._limit
        for v, w in self._radj[u]:
            if v not in dist:
                dv = d + w
                if dv <= limit:
                    push(heap, (dv, v))
        return u, d

    def resume(self, stop: Callable[[float], bool] | None = None) -> Iterator[tuple[int, float]]:
        """Stream settles until stop(next distance) holds or the search ends."""
        if self.exhausted:
            raise RuntimeError("cannot resume a terminated cursor")
        return self._resume_iter(stop)

    def _resume_iter(self, stop):
        while True:
            d = self.peek()
            if d is None or (stop is not None and stop(d)):
                return
            yield self.settle_next()


# Memory bounds of the batched distance kernel: a block of rows holds at most
# _BLOCK_CELLS distances (int32 flat indices stay valid), and one relaxation
# chunk scans at most _CHUNK_RELAX edges, a few dozen bytes of transient
# arrays each.
_BLOCK_CELLS = 1 << 20
_CHUNK_RELAX = 1 << 12


def source_blocks(n: int, count: int | None = None) -> Iterator[range]:
    """Consecutive ranges over count rows (default n) of n distances each,
    every range small enough for one kernel block."""
    count = n if count is None else count
    step = max(1, _BLOCK_CELLS // max(n, 1))
    for lo in range(0, count, step):
        yield range(lo, min(lo + step, count))


def distance_rows(
    g: MultiInstanceGraph,
    instances: int | Sequence[int],
    sources: int | Sequence[int],
    limit: float = INF,
    start: np.ndarray | None = None,
) -> np.ndarray:
    """(rows, n) distances of (instance, source) pairs; entries beyond limit are inf.

    Row r holds the distances from sources[r] in instances[r]; a scalar
    instance or source applies to every row.  A (rows, n) `start` gives each
    cell a starting distance, and the search relaxes only from cells it
    improves.  When start[r] is itself a row of distances from a seed set
    within limit (a residual), row r comes back as min(start[r], distances
    from the source): the residual after adding the source as a seed.

    All rows advance together by label-correcting rounds over the graph's
    cached forward CSR: each round relaxes the out-edges of the (row, node)
    pairs that improved in the previous round.  Lengths are positive, so
    float addition is monotone and the fixpoint is the minimum left-folded
    path sum, bit for bit what a Dijkstra search (pruned where it does not
    improve `start`) computes.  Transient memory is O(rows * n +
    _CHUNK_RELAX); `source_blocks` sizes the blocks.
    """
    n = g.n
    src, inst = np.broadcast_arrays(np.asarray(sources, dtype=np.int64), np.asarray(instances, dtype=np.int64))
    if src.ndim != 1:
        raise ValueError("instances and sources must be scalars or one entry per row")
    if src.size and (src.min() < 0 or src.max() >= n):
        raise ValueError("source out of range")
    if inst.size and (inst.min() < 0 or inst.max() >= g.ell):
        raise ValueError("instance out of range")
    rows = src.size
    cells = rows * n
    if cells > np.iinfo(np.int32).max:
        raise ValueError("too many rows for one block; split them with source_blocks")
    # Unreached cells start just above limit, so "cand < dist" also enforces
    # cand <= limit; they are reset to inf at the end.
    ceiling = np.nextafter(limit, INF)
    if start is None:
        dist = np.full(cells, ceiling)
    else:
        start = np.asarray(start, dtype=np.float64)
        if start.shape != (rows, n):
            raise ValueError(f"start must have shape ({rows}, {n})")
        dist = np.minimum(start.reshape(cells), ceiling)
    if not cells:
        return dist.reshape(rows, n)
    indptr, heads, weights = g.forward_csr()
    improved = np.zeros(cells, dtype=bool)
    # flat index of pair (row r, node v) is r * n + v; its out-edges are CSR
    # entry inst[r] * n + v
    front = np.arange(0, cells, n, dtype=np.int32) + src.astype(np.int32)
    front = front[dist[front] > 0.0]
    dist[front] = 0.0
    key_base = inst * n
    while front.size:
        row = front // n
        row_base = row * n
        key = front - row_base + key_base[row]
        first = indptr[key]
        deg = indptr[key + 1] - first
        ends = np.cumsum(deg)
        starts = ends - deg
        shift = first - starts  # relaxation j of pair p scans edge j + shift[p]
        base = dist[front]
        total = int(ends[-1])
        for lo in range(0, total, _CHUNK_RELAX):
            hi = min(lo + _CHUNK_RELAX, total)
            p0 = np.searchsorted(ends, lo, side="right")
            p1 = np.searchsorted(ends, hi - 1, side="right") + 1
            p = np.repeat(np.arange(p0, p1), np.minimum(ends[p0:p1], hi) - np.maximum(starts[p0:p1], lo))
            edge = shift[p]
            edge += np.arange(lo, hi)
            cand = base[p]
            cand += weights[edge]
            tgt = heads[edge]
            tgt += row_base[p]
            keep = cand < dist[tgt]
            tgt, cand = tgt[keep], cand[keep]
            np.minimum.at(dist, tgt, cand)
            improved[tgt] = True
        front = np.flatnonzero(improved).astype(np.int32)
        improved[front] = False
    dist[dist > limit] = INF
    return dist.reshape(rows, n)


def residual_update(
    g: MultiInstanceGraph, delta: np.ndarray, x: int, limit: float = INF
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The cells of an (ell, n) residual that adding seed x improves.

    Returns parallel arrays (instance, node, old, new) with new < old, sorted
    by (instance, new, node): the order in which a per-instance Dijkstra from
    x, pruned where it does not beat delta and bounded by limit, settles
    them.  delta is not modified; callers write `delta[instance, node] = new`
    once they have used the old values.
    """
    parts = []
    for blk in source_blocks(g.n, g.ell):
        old = delta[blk.start:blk.stop]
        new = distance_rows(g, blk, x, limit, start=old)
        row, node = np.nonzero(new < old)
        parts.append((row + blk.start, node, old[row, node], new[row, node]))
    inst, node, old, new = (np.concatenate(col) for col in zip(*parts))
    order = np.lexsort((node, new, inst))
    return inst[order], node[order], old[order], new[order]
