"""Multi-instance weighted directed graphs and shortest-path engines.

A multi-instance graph is a fixed node set and one directed edge list shared
by one or more instances, each giving every edge a length.  The lengths either
come straight from an edge list or are sampled from a probabilistic
edge-length model; an instance without an edge gives it infinite length.
Besides its edge list and (ell, m) length matrix, a graph keeps what it
computes on first use: a forward CSR over all instances for the batched
distance kernel, a reverse one for the batched reverse balls, and the
median of its finite lengths, which sets the kernel's bucket width.  All
graph values are immutable once built and safe to share across threads;
a search keeps its state in arrays local to one call or lent by its caller.
"""

from __future__ import annotations

import functools
import math
import sys
import zipfile
from dataclasses import dataclass
from typing import Iterator, Sequence

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


def _check_labels(labels: Sequence[str], n: int, where: str = "") -> None:
    """Raise ValueError (prefixed by `where`) unless labels are n distinct names a seeds-file line can hold."""
    if len(labels) != n or len(set(labels)) != n:
        raise ValueError(f"{where}need {n} distinct node labels, got {len(set(labels))} distinct of {len(labels)}")
    bad = next((x for x in labels if x.split() != [x]), None)
    if bad is not None:
        raise ValueError(f"{where}node label {bad!r} is empty or holds whitespace, so no seeds file can name it")


class MultiInstanceGraph:
    """ell instances over nodes [0, n) that share one directed edge list.

    Edge e runs from tails[e] to heads[e], and weights[i, e] is its length in
    instance i.  An instance that lacks an edge gives it infinite length.
    """

    def __init__(
        self,
        n: int,
        tails: Sequence[int],
        heads: Sequence[int],
        weights: np.ndarray | Sequence[Sequence[float]] | None = None,
        labels: Sequence[str] | None = None,
    ):
        tails, heads = np.asarray(tails), np.asarray(heads)
        if any(a.size and a.dtype.kind not in "iu" for a in (tails, heads)):
            raise ValueError("edge endpoints must be integer node ids")
        tails, heads = tails.astype(np.int64), heads.astype(np.int64)
        weights = np.ones((1, len(tails))) if weights is None else np.asarray(weights, dtype=np.float64)
        if tails.ndim != 1 or heads.shape != tails.shape or weights.ndim != 2 or weights.shape[1] != len(tails):
            raise ValueError("need one tail and head per edge and an (ell, m) matrix with one length per edge")
        if not len(weights):
            raise ValueError("need at least one instance")
        if n < 1:
            raise ValueError(f"a graph needs at least one node, got n={n}")
        if len(tails) and (min(tails.min(), heads.min()) < 0 or max(tails.max(), heads.max()) >= n):
            raise ValueError(f"edge endpoints must be node ids in [0, {n})")
        if not (weights > 0).all():
            raise ValueError("edge lengths must be positive (NaN is rejected)")
        if labels is not None:
            _check_labels(labels, n)
        self.n = n
        self.tails = tails
        self.heads = heads
        self.weights = weights
        self.labels = list(labels) if labels is not None else [str(i) for i in range(n)]
        self._csr: dict[bool, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    @classmethod
    def from_arrays(cls, *args, **kwargs) -> "MultiInstanceGraph":
        """The constructor under the name existing callers use."""
        return cls(*args, **kwargs)

    @property
    def ell(self) -> int:
        return len(self.weights)

    @functools.cached_property
    def median_length(self) -> float:
        """Median (the upper one of an even count) of the finite edge lengths,
        read from at most _MEDIAN_SAMPLE evenly spaced entries of the length
        matrix; inf if none is finite."""
        lengths = self.weights.ravel()
        lengths = lengths[:: max(1, -(-lengths.size // _MEDIAN_SAMPLE))]  # ceil(size / sample)
        lengths = lengths[np.isfinite(lengths)]
        if not lengths.size:
            return INF
        # np.partition, not np.median, which imports numpy.ma (about 1 MB)
        return float(np.partition(lengths, lengths.size // 2)[lengths.size // 2])

    def forward_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, heads, weights) of every instance's out-edges, keyed by instance * n + tail."""
        return self._cached_csr(False)

    def reverse_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, tails, weights) of every instance's in-edges, keyed by instance * n + head."""
        return self._cached_csr(True)

    def _cached_csr(self, reverse: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # built on first use and kept, as graphs are immutable; a node's edges keep
        # edge-list order, and edges an instance lacks stay in at infinite length
        if reverse not in self._csr:
            keys, ends = (self.heads, self.tails) if reverse else (self.tails, self.heads)
            order = np.argsort(keys, kind="stable")
            indptr = np.zeros(self.ell * self.n + 1, dtype=np.int64)
            np.cumsum(np.tile(np.bincount(keys, minlength=self.n), self.ell), out=indptr[1:])
            ends = np.tile(ends[order].astype(np.int32), self.ell)
            self._csr[reverse] = (indptr, ends, self.weights[:, order].ravel())
        return self._csr[reverse]


def load_edge_list(path: str, weighted: bool = False) -> MultiInstanceGraph:
    """Read a whitespace-separated "tail head [length]" file into a one-instance graph.

    Node ids are remapped to dense [0, n) in order of first appearance; the
    original tokens are kept as labels.  Self-loops are dropped and parallel
    edges are collapsed to the minimum length (convention; absent edges mean
    infinite distance either way).  Unweighted edges get length 1.  A file
    without edge lines is rejected, as a graph needs a node.
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
    if not labels:
        raise GraphFormatError(f"{path}: no edges")
    tails = [t for t, _ in order]
    heads = [h for _, h in order]
    weights = np.array([[best[k] for k in order]], dtype=np.float64)
    return MultiInstanceGraph(len(labels), tails, heads, weights, labels)


def sample_instances(base: MultiInstanceGraph, model: EdgeLengthModel, ell: int) -> MultiInstanceGraph:
    """Sample ell instances with the base topology and model-drawn lengths."""
    if base.ell != 1:
        raise ValueError("instance sampling starts from a single-instance graph")
    if ell < 1:
        raise ValueError("ell must be at least 1")
    return MultiInstanceGraph(base.n, base.tails, base.heads, model.sample(base.weights[0], ell), base.labels)


def _write_npz(path: str, **arrays) -> None:
    """Write arrays as one uncompressed npz to exactly `path`; given a name
    rather than an open file, np.savez would append ".npz" to it."""
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _read_npz(path: str, what: str, spec: dict[str, tuple[str, int]]) -> dict[str, np.ndarray]:
    """Every array of an npz file, which must pass `_check_arrays` with spec.

    A file that is not an npz archive (cut short, a bare .npy, any other
    file), an array that cannot be read (pickled, damaged) and a missing or
    misshapen one all raise a one-line ValueError.
    """
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):  # a bare .npy
            raise ValueError
    except (ValueError, EOFError, zipfile.BadZipFile):
        raise ValueError(f"{path}: truncated or not an npz file") from None
    with data:
        try:
            arrays = {name: data[name] for name in data.files}
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise ValueError(f"{path}: unreadable array: {exc}") from None
    _check_arrays(path, what, arrays, spec)
    return arrays


def _check_arrays(path: str, what: str, arrays: dict[str, np.ndarray], spec: dict[str, tuple[str, int]]) -> None:
    """Raise a one-line ValueError unless arrays holds each array spec names, of its dtype kinds and ndim."""
    missing = sorted(set(spec) - set(arrays))
    if missing:
        raise ValueError(f"{path}: not a {what}: lacks array(s) {', '.join(missing)}")
    for name, (kinds, ndim) in spec.items():
        a = arrays[name]
        if a.dtype.kind not in kinds or a.ndim != ndim:
            raise ValueError(f"{path}: {what} array {name} is {a.ndim}-d {a.dtype}, not {ndim}-d of kind {kinds!r}")


_GRAPH_SPEC = {"n": ("iu", 0), "tails": ("iu", 1), "heads": ("iu", 1), "weights": ("f", 2), "labels": ("U", 1)}


def save_npz(g: MultiInstanceGraph, path: str) -> None:
    """Binary cache of a graph; round-trips losslessly."""
    labels = np.array(g.labels, dtype="U")
    _write_npz(path, n=np.int64(g.n), tails=g.tails, heads=g.heads, weights=g.weights, labels=labels)


def load_npz(path: str) -> MultiInstanceGraph:
    a = _read_npz(path, "graph cache", _GRAPH_SPEC)
    return MultiInstanceGraph(int(a["n"]), a["tails"], a["heads"], a["weights"], a["labels"].tolist())


# Memory bounds of the batched distance kernel: a block of rows holds at most
# _BLOCK_CELLS distances (its int32 stamps stay valid), and one relaxation
# chunk scans at most _CHUNK_RELAX edges plus one cell's out-edges, a few
# dozen bytes of transient arrays each.
_BLOCK_CELLS = 1 << 20
_CHUNK_RELAX = 1 << 12
# Bucket width of the distance kernel, in median finite edge lengths.  Over
# six exact-greedy draws (zipf n=200, ell=8, exponential lengths, harmonic:10,
# 20 seeds) 2 medians relaxed 1.11x the Dijkstra minimum in 5,050 rounds;
# 1.5 made 1.07x in 5,615 rounds and 3 made 1.21x in 4,451, and kernel time
# was the same at 2 and 2.5.  Bellman-Ford order made 2.05x in 3,199 rounds.
# The median, not the mean: on random_graph(1000, 4) with Weibull lengths a
# few heavy-tailed lengths set the mean to 5e33, which turns the kernel back
# into Bellman-Ford (2.51x), where 2 medians make 1.06x.
_BUCKET_SPAN = 2.0
# Most lengths read for the median: a strided sample keeps its transient
# copies small next to the length matrix.
_MEDIAN_SAMPLE = 1 << 16


def block_rows(n: int) -> int:
    """Rows of n cells each that fit in one kernel block."""
    return max(1, _BLOCK_CELLS // max(n, 1))


def source_blocks(n: int, count: int | None = None) -> Iterator[range]:
    """Consecutive ranges over count rows (default n) of n distances each,
    every range small enough for one kernel block."""
    count = n if count is None else count
    step = block_rows(n)
    for lo in range(0, count, step):
        yield range(lo, min(lo + step, count))


def distance_rows(
    g: MultiInstanceGraph, instances: int | Sequence[int], sources: int | Sequence[int] | Sequence[Sequence[int]],
    limit: float = INF,
) -> np.ndarray:
    """(rows, n) distances of (instance, source) pairs; entries beyond limit are inf.

    Row r holds the distances from sources[r] in instances[r]; a scalar
    instance or source applies to every row.  An (rows, s) array of sources
    starts each row from a set of s nodes.

    All rows advance together by Delta-stepping (Meyer and Sanders, 2003)
    over the graph's cached forward CSR.  The pending cells, those improved
    but not yet relaxed, are one index array.  Each round takes the pending
    cells within one bucket width (_BUCKET_SPAN times the graph's median
    finite length; inf when no length is finite) of the least pending
    distance, relaxes their out-edges, and adds the cells it improves to
    the pending set, each once.  So a cell is relaxed about once, when its
    distance is final or nearly so, and a round costs what its pending
    cells cost, not the block.  Lengths are positive, so float addition is
    monotone and the fixpoint is the minimum left-folded path sum, bit for
    bit what a Dijkstra search computes, in whatever order the cells are
    relaxed.  Transient memory is 12 bytes per cell (distances and int32
    stamps), plus the cells the search improves; `source_blocks` sizes the
    blocks.  Raises ValueError for a NaN or negative limit.
    """
    dist, _ = _improve_rows(g, instances, sources, limit)
    dist[dist > limit] = INF
    return dist


def _improve_rows(
    g: MultiInstanceGraph, instances, sources, limit: float, start: np.ndarray | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """`distance_rows`' search from an optional (rows, n) start per cell,
    relaxing only from cells it improves: the (rows, n) distances, not reset
    to inf beyond limit, and its rounds' fronts of flat cells (row * n + node),
    whose union is the cells it lowered, each to within limit.  A row started
    from a residual ends as the residual after adding its source."""
    _check_limit(limit)
    n = g.n
    src, inst = _pair_rows(g, instances, sources)
    rows = inst.size
    cells = rows * n
    if cells > np.iinfo(np.int32).max:
        raise ValueError("too many rows for one block; split them with source_blocks")
    # Unreached cells start just above limit, so "cand < dist" also enforces cand <= limit.
    ceiling = np.nextafter(limit, INF)
    if start is None:
        dist = np.full(cells, ceiling)
    else:
        start = np.asarray(start, dtype=np.float64)
        if start.shape != (rows, n):
            raise ValueError(f"start must have shape ({rows}, {n})")
        dist = np.minimum(start.reshape(cells), ceiling)
    fronts = [np.zeros(0, np.int64)]  # a cell the search lowers is relaxed in some round
    if not cells:
        return dist.reshape(rows, n), fronts
    indptr, heads, weights = g.forward_csr()
    width = _BUCKET_SPAN * g.median_length
    slot = np.empty(cells, dtype=np.int32)  # scratch for _distinct
    # flat index of pair (row r, node v) is r * n + v; its out-edges are CSR
    # entry inst[r] * n + v
    row_base = np.arange(0, cells, n)
    pending = (row_base[:, None] + src.reshape(rows, -1)).ravel()
    # a source the start already holds at 0 (a seed of the residual) is not relaxed again
    pending = _distinct(pending[dist[pending] > 0.0], slot)
    dist[pending] = 0.0
    lift = inst * n - row_base  # CSR key minus cell, per row
    while pending.size:
        level = dist[pending]
        near = level <= level.min() + width
        front, base, pending = pending[near], level[near], pending[~near]
        fronts.append(front)
        row = front // n
        key = front + lift[row]
        first = indptr[key]
        deg = indptr[key + 1] - first
        ends = np.cumsum(deg)
        starts = ends - deg
        first -= starts  # relaxation j of front cell p scans edge j + first[p]
        base_cell = row * n
        found = [pending]  # the next pending set: cells left over and cells improved
        # chunks of whole front cells, each ending past a multiple of _CHUNK_RELAX
        cuts = np.searchsorted(ends, np.arange(_CHUNK_RELAX, ends[-1], _CHUNK_RELAX), side="right").tolist()
        for a, b in zip([0, *cuts], [*cuts, front.size]):
            if a == b:
                continue
            count = deg[a:b]
            edge = np.repeat(first[a:b], count)
            edge += np.arange(starts[a], ends[b - 1])
            cand = np.repeat(base[a:b], count)
            cand += weights[edge]
            tgt = heads[edge] + np.repeat(base_cell[a:b], count)
            found.append(tgt[cand < dist[tgt]])
            np.minimum.at(dist, tgt, cand)
        pending = _distinct(np.concatenate(found), slot)
    return dist.reshape(rows, n), fronts


def _distinct(cells: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """The distinct entries of cells, each once; slot has one scratch entry per cell."""
    order = np.arange(cells.size, dtype=np.int32)
    slot[cells] = order
    return cells[slot[cells] == order]


def _lowered(fronts: list[np.ndarray]) -> np.ndarray:
    """The distinct cells of a search's fronts, in increasing order."""
    cells = np.concatenate(fronts)
    cells.sort()  # in place, where np.unique would copy the cells once more
    return cells[np.diff(cells, prepend=-1) > 0]


def _check_limit(limit: float | np.ndarray) -> None:
    if not np.all(np.asarray(limit) >= 0):
        raise ValueError(f"limit must be a non-negative number, got {float(np.min(limit))!r}")


def _pair_rows(
    g: MultiInstanceGraph, instances: int | Sequence[int], sources: int | Sequence[int] | Sequence[Sequence[int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Validated int64 (source, instance) arrays with one instance per row,
    and one source per row or, from an (rows, s) array, s sources per row."""
    src, inst = np.asarray(sources, dtype=np.int64), np.asarray(instances, dtype=np.int64)
    src, inst = np.broadcast_arrays(src, inst[..., None] if src.ndim == 2 else inst)
    if src.ndim not in (1, 2):
        raise ValueError("instances and sources must be scalars or one entry per row")
    if src.size and (src.min() < 0 or src.max() >= g.n):
        raise ValueError("source out of range")
    if inst.size and (inst.min() < 0 or inst.max() >= g.ell):
        raise ValueError("instance out of range")
    return src, inst[:, 0] if src.ndim == 2 else inst


def reverse_balls(
    g: MultiInstanceGraph, instances: int | Sequence[int], sources: int | Sequence[int], limit: float | np.ndarray,
    table: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parallel arrays (row, node, dist) of every node within limit of each
    (instance, source) row, sorted by (row, dist, node).

    Row r is the reverse ball of sources[r] in instances[r]: the nodes whose
    distance *to* the source is at most limit, read from the reverse CSR.
    The limit is one float, a (rows,) array of per-row bounds, or an (ell, n)
    array of per-node bounds, read at each row's instance: no search enters
    a node beyond its own bound (a source holds itself at 0), so a distance
    is the shortest over paths that stay within every bound.  Rows do not
    interact, so a row's ball is the same whichever rows share the call.
    The search keeps its distances in one dense float64 table over a block
    of rows: at most block_rows(n) rows of n cells, one _BLOCK_CELLS, which
    bounds its memory besides the balls it returns.  The rows of a larger
    call run block after block, and a block resets only the cells it
    reached.  A caller may lend its own all-inf float64 `table`,
    block_rows(n) * n cells or more, and gets it back all-inf, also when the
    call raises.  Each label-correcting round expands the cells that improved
    in the last round over the reverse CSR, drops the candidates that do not
    beat their cell, and writes the least candidate per cell, found with one
    sort, to the table.  A block's reached cells leave in (row, dist, node)
    order, sorted by one int64 key.  As in `distance_rows`, lengths are
    positive, so distances are bit for bit a reverse Dijkstra search's, and
    (dist, node) is the order in which one that breaks ties by node settles
    them, unless a length is absorbed (d + w == d) and the absorbed node has
    the smaller id: Dijkstra reaches it only after the node it is absorbed
    from.  A round expands at most about _BLOCK_CELLS edges at a time.
    """
    _check_limit(limit)
    n = g.n
    src, inst = _pair_rows(g, instances, sources)
    if src.ndim != 1:
        raise ValueError("reverse balls take one source per row")
    limit = np.minimum(limit, sys.float_info.max)  # never reach a node at infinite distance
    if limit.shape not in ((), (src.size,), (g.ell, n)):
        raise ValueError(f"need one limit or one per row or per (instance, node), got shape {limit.shape}")
    per_row, per_node = limit.ndim == 1, limit.ndim == 2
    if per_node:
        limit = limit.ravel()  # the bound of (instance, node) is limit[instance * n + node]
    indptr, tails, weights = g.reverse_csr()
    step = block_rows(n)
    if table is None:
        table = np.full(min(src.size, step) * n, INF)  # cell (row - lo) * n + node of the block at lo
    parts = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))]  # per block, its sorted balls

    def relax(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        # expand front cells a:b of the round's arrays (deg, shift, base, ... below), write the
        # cells they improve to the table and return those and the first reached of them; the
        # edge-sized temporaries die here
        p = np.arange(a, b).repeat(deg[a:b])
        edge = shift[p] + np.arange(starts[a], starts[a] + p.size)
        cand = base[p] + weights[edge]
        tail = tails[edge]
        tgt = row_cell[p] + tail
        keep = cand <= (limit[base_csr[p] + tail] if per_node else row_limit[p] if per_row else limit)
        del p, edge, tail  # about 1 MB less peak RSS on the benchmark's oracle build
        keep &= cand < table[tgt]
        tgt, cand = tgt[keep], cand[keep]
        order = tgt.argsort()
        tgt, cand = tgt[order], cand[order]
        run = np.ones(tgt.size, bool)  # the first of each run of one cell
        np.not_equal(tgt[1:], tgt[:-1], out=run[1:])
        head = run.nonzero()[0]
        tgt, cand = tgt[head], np.minimum.reduceat(cand, head)
        fresh = tgt[table[tgt] == INF]  # limits are finite, so inf marks a cell not yet reached
        table[tgt] = cand
        return tgt, fresh

    try:
        for lo in range(0, src.size, step):
            rows = min(step, src.size - lo)
            front = np.arange(rows) * n + src[lo : lo + rows]
            table[front] = 0.0
            reached = [front]
            first_csr = inst[lo : lo + rows] * n  # the first reverse CSR row of each row's instance
            while front.size:
                row, node = np.divmod(front, n)
                row_cell = front - node  # the table cell of each front cell's row at node 0
                base_csr = first_csr[row]
                row_limit = limit[row + lo] if per_row else None
                csr = base_csr + node
                first = indptr[csr]
                deg = indptr[csr + 1] - first
                ends = deg.cumsum()
                starts = ends - deg
                shift = first - starts  # expansion j of cell p scans edge j + shift[p]
                base = table[front]
                if ends[-1] <= _BLOCK_CELLS:
                    front, found = relax(0, front.size)
                else:  # chunks of whole front cells, each ending past a multiple of _BLOCK_CELLS edges
                    cuts = np.searchsorted(ends, np.arange(_BLOCK_CELLS, ends[-1], _BLOCK_CELLS), side="right").tolist()
                    changed, found = zip(*(relax(a, b) for a, b in zip([0, *cuts], [*cuts, front.size])))
                    front, found = np.unique(np.concatenate(changed)), np.concatenate(found)
                reached.append(found)
            reached = np.concatenate(reached)
            level, rank = np.unique(table[reached], return_inverse=True)
            table[reached] = INF  # the next block starts from an empty table
            # one int64 key per reached cell, in (row, dist, node) order, below (rows * n) ** 2
            key, node = np.divmod(np.sort((reached // n * level.size + rank) * n + reached % n), n)
            row, rank = np.divmod(key, level.size)
            parts.append((row + lo, node, level[rank]))
    except BaseException:
        table.fill(INF)  # leave a caller's table fit for its next call
        raise
    return tuple(np.concatenate(c) for c in zip(*parts))


def past_balls(
    g: MultiInstanceGraph, instances: np.ndarray, row: np.ndarray, node: np.ndarray, dist: np.ndarray
) -> np.ndarray:
    """Per row of a `reverse_balls` result over (rows,) instances, the least
    dist + w over the in-edges that enter its ball from outside, inf if none:
    the distance at which a Dijkstra search that has settled just the ball
    settles its next node."""
    indptr, tails, weights = g.reverse_csr()
    csr = instances[row] * g.n + node
    first = indptr[csr]
    deg = indptr[csr + 1] - first
    p = np.arange(row.size).repeat(deg)
    edge = (first - deg.cumsum() + deg)[p] + np.arange(p.size)  # expansion j of entry p scans edge j + shift[p]
    out = ~np.isin(row[p] * g.n + tails[edge], row * g.n + node)  # the in-edges from outside the ball
    least = np.full(len(instances), INF)
    np.minimum.at(least, row[p[out]], dist[p[out]] + weights[edge[out]])
    return least


def residual_update(
    g: MultiInstanceGraph, delta: np.ndarray, x: int, limit: float = INF
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The cells of an (ell, n) residual that adding seed x improves.

    Returns parallel arrays (instance, node, old, new) with new < old, sorted
    by (instance, new, node): the order in which a per-instance Dijkstra from
    x, pruned where it does not beat delta and bounded by limit, settles
    them.  delta is not modified; callers write `delta[instance, node] = new`
    once they have used the old values.  No step scans all ell * n cells.
    """
    parts = []
    for blk in source_blocks(g.n, g.ell):
        old = delta[blk.start:blk.stop]
        new, fronts = _improve_rows(g, blk, x, limit, old)
        row, node = np.divmod(_lowered(fronts), g.n)
        parts.append((row + blk.start, node, old[row, node], new[row, node]))
    inst, node, old, new = (np.concatenate(col) for col in zip(*parts))
    order = np.lexsort((node, new, inst))
    return inst[order], node[order], old[order], new[order]
