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
closer pairs; distance ties are broken by (node, instance) index.  Every
sketch is a `CADS`: parallel arrays (rank, distance, node, instance) sorted
by that key.  Both kinds come from one pruned reverse search, which finds a
superset of each instance's all-distances sketch entries (the candidates).
It runs over groups of instances, as many as the kernel block holds
k-th-distance tables for, and makes one `reverse_balls` call per rank block
of a group; an instance's candidates do not depend on the grouping.  The
union filter keeps the k smallest distance-0 ranks and every entry with
fewer than k smaller ranks ahead of it in key order.  `build_cads` runs it
over every node's candidates at once, vectorized over owner slices
(`_union_filter`).  A query's union sketch over its seed set comes from
`merge_cads`, a heap loop that also gives each kept entry its threshold for
the estimator; one query is too small for the vectorized pass to pay off.
A threshold sketch of a node is the k smallest ranks among its candidates
within T.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import graph
from .decay import DecayFunction
from .graph import MultiInstanceGraph, _check_arrays, _check_labels, _read_npz, _write_npz, reverse_balls, source_blocks

INF = math.inf

# A sketch entry: (rank, distance, node, instance).  Entries are ordered by
# the key (distance, node, instance), which totally orders pairs even under
# distance ties.
Entry = tuple[int, float, int, int]

UNIFORM_DOMAIN = 1 << 53

# Positive-distance entries that the union filter cuts against one threshold
# before checking the survivors one by one.
_CHUNK = 128

# The sketch search runs k // 2 sources, then blocks this many times the last.  At 1.25, 1.5, 2
# and 3 (2-core VM), build_cads on random_graph(1000, 4, 1, ell=8), k=16 took 1.6-2.0 s and peaked
# (tracemalloc) at 27.7, 29.3, 32.3 and 37.0 MB; the threshold build on random_graph(4000, 4, 2,
# ell=8), k=64, T=1 took 2.4, 2.3, 1.7 and 1.6 s and peaked at 19.7, 19.7, 20.9 and 21.5 MB.
_BLOCK_GROWTH = 1.5


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


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """np.argsort(keys, kind="stable") of keys in [0, bound).  Keys below 2**16 sort as uint16,
    by radix sort: 0.6 ms against 3.5 ms as int64 for 40,000 keys below 300 (2-core VM)."""
    return np.argsort(keys.astype(np.uint16) if bound <= 1 << 16 else keys, kind="stable")


def _fold_k_smallest(table: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """Fold values[j] into row rows[j] of an ascending (n, k) table of k smallest values, in
    place, reading and writing only those rows; padding (inf for distances, the int64 maximum
    for ranks) sorts last.

    Only the new values are sorted, by (row, value).  Each touched row's old slots and its
    smallest new values, padded to as many as any row needs (at most k), fill one array, and
    one in-place row-wise sort of it puts the row's k smallest first.  The touched rows are
    merged in slices whose arrays hold at most one kernel block of cells.
    """
    k = table.shape[1]
    order = values.argsort()
    order = order[_stable_order(rows[order], len(table))]  # by (row, value)
    rows, values = rows[order], values[order]
    head = np.flatnonzero(np.diff(rows, prepend=-1))  # where each touched row's values start
    count = np.diff(head, append=rows.size)
    group = np.repeat(np.arange(head.size), count)
    slot = np.arange(rows.size) - head[group]  # position among the row's new values
    width = min(k, int(count.max(initial=0)))  # the new values a row can keep
    fit = slot < width
    group, slot, values = group[fit], slot[fit], values[fit]  # still sorted by group
    pad = np.inf if table.dtype.kind == "f" else np.iinfo(table.dtype).max
    touched = rows[head]
    for blk in source_blocks(k + width, head.size):
        at = touched[blk.start : blk.stop]
        a, b = np.searchsorted(group, (blk.start, blk.stop))
        merged = np.full((at.size, k + width), pad, dtype=table.dtype)
        merged[:, :k] = table[at]
        merged[group[a:b] - blk.start, k + slot[a:b]] = values[a:b]
        merged.sort(axis=1, kind="stable")  # a stable sort merges the two ascending runs
        table[at] = merged[:, :k]


def _instance_groups(g: MultiInstanceGraph, k: int) -> Iterator[range]:
    """Consecutive instance ranges whose k-th-distance tables (n * k floats per instance) fit
    in one kernel block, so one sketch search covers each range."""
    return source_blocks(g.n * k, g.ell)


def _search_blocks(
    g: MultiInstanceGraph, instances: range, ranks: RankAssignment, k: int, limit: float
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Per rank block, parallel arrays (instance, owner, source, dist) sorted
    by instance: the block's candidates in every instance of the range.

    The pruned reverse search of Cohen et al. runs each instance's ranked
    sources in rank order, in blocks of k // 2 and then 1.5 times the last.
    Block b of every instance of the range is one `reverse_balls` call, bounded
    at each (instance, node) by min(limit, its k-th smallest distance from the
    instance's earlier blocks).  Earlier candidates have smaller ranks and
    searched distances no shorter than the true ones, so the search drops only
    pairs outside the sketch and finds each entry at its exact distance.
    Sources of one block do not prune each other (about 15% more candidates on
    random graphs); the union filter keeps exactly the entries.  An instance's
    candidates do not depend on which instances share its range.
    """
    n, m = g.n, len(instances)
    ranked = []  # per instance, its ranked sources in rank order
    for i in instances:
        col = ranks.rank[:, i]
        ranked.append(np.argsort(col)[np.count_nonzero(col == 0) :])  # unranked pairs (rank 0) sort first
    kth = np.full((m * n, k), INF)  # row j * n + v: node v's k smallest candidate distances so far in instances[j]
    bound = np.full((g.ell, n), float(limit))  # rows outside the range are not read
    start, size = 0, max(1, k // 2)
    while start < max(r.size for r in ranked):
        blocks = [r[start : start + size] for r in ranked]
        local = np.repeat(np.arange(m), [b.size for b in blocks])
        src = np.concatenate(blocks)
        bound[instances.start : instances.stop] = np.minimum(limit, kth[:, -1].reshape(m, n))
        row, owner, dist = reverse_balls(g, local + instances.start, src, bound)
        j = local[row]
        _fold_k_smallest(kth, j * n + owner, dist)
        yield j + instances.start, owner, src[row], dist
        del row, owner, dist, j  # the caller has taken what it needs from this block
        start += size
        size = math.ceil(size * _BLOCK_GROWTH)


@dataclass(eq=False)
class CADS:
    """All-distances sketch of one node: parallel arrays (rank, distance,
    node, instance) sorted by the tie-broken distance key.  A combined
    sketch, from the union filter, has at most min(ell, k) entries at distance 0."""

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

    Parts are the seeds' combined sketches when forming a query's union, or
    any sketches or search candidates of one node with exact distances
    (`build_cads` filters every node's candidates at once with
    `_union_filter`, which keeps the same entries); the result does not
    depend on part order.
    A repeated rank (one pair seen from several parts) keeps its closest
    occurrence only; distance-0 entries keep the k smallest ranks outright; a
    positive-distance entry is kept when its rank is below the k-th smallest
    kept rank ahead of it in key order.
    """
    return _union(parts, k)[0]


def _union(parts: Sequence[CADS], k: int) -> tuple[CADS, list[int]]:
    """`merge_cads`, and per kept entry the k-th smallest rank ahead of it (norm while fewer are)."""
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
    tau = [norm] * nz  # at most k distance-0 ranks are left, so fewer than k are ahead of each
    kept = [-x for x in r[:nz].tolist()]  # max-heap (negated) of the k smallest kept ranks
    heapq.heapify(kept)
    for start in range(nz, len(r), _CHUNK):
        seg = r[start : start + _CHUNK]
        # the threshold only falls, so ranks not below it now are all rejected
        pos = np.arange(len(seg)) if len(kept) < k else np.flatnonzero(seg < -kept[0])
        for j, x in zip(pos.tolist(), seg[pos].tolist()):
            if len(kept) < k:
                tau.append(norm)
                heapq.heappush(kept, -x)
            elif x < -kept[0]:
                tau.append(-kept[0])
                heapq.heapreplace(kept, -x)
            else:
                continue
            picked.append(start + j)
    sel = order[picked]
    return CADS(rank[sel], dist[sel], node[sel], inst[sel], k, n, ell, norm), tau


def build_cads(
    g: MultiInstanceGraph, k: int, seed: int, rank_model: str = "permutation"
) -> tuple[list[CADS], RankAssignment]:
    """Full preprocessing: ranks, then each node's combined sketch, the union
    filter over its search candidates from every instance, run for all nodes
    at once by `_union_filter`."""
    if rank_model not in ("permutation", "uniform"):
        raise ValueError(f"unknown rank model {rank_model!r}")
    ranks = assign_ranks(g.n, g.ell, k, seed) if rank_model == "permutation" else uniform_ranks(g.n, g.ell, seed)
    blocks, count = [], np.zeros(g.n, np.int64)  # every rank block's candidates; candidates per owner
    for group in _instance_groups(g, k):
        for inst, owner, src, dist in _search_blocks(g, group, ranks, k, INF):
            blocks.append((owner, src.astype(np.int32), dist, inst.astype(np.int32)))
            count += np.bincount(owner, minlength=g.n)
    at = np.concatenate(([0], count.cumsum()))  # node v's candidates go to at[v]:at[v + 1]
    # flat columns, nodes and instances as int32 as sketch files store them; each block goes after
    # the earlier blocks' candidates of each owner and is then dropped, so the blocks and the
    # columns are never both held in full
    node, dist, inst = np.empty(at[-1], np.int32), np.empty(at[-1]), np.empty(at[-1], np.int32)
    fill = at[:-1].copy()
    while blocks:
        owner, *cols = blocks.pop(0)
        order = _stable_order(owner, g.n)
        owner = owner[order]
        pos = fill[owner] + np.arange(owner.size) - np.searchsorted(owner, owner)
        for out, col in zip((node, dist, inst), cols):
            out[pos] = col[order]
        fill += np.bincount(owner, minlength=g.n)
    rank = ranks.rank[node, inst]
    sel, kept = _union_filter(at, rank, dist, node, inst, k)
    rank, dist, node, inst = rank[sel], dist[sel], node[sel], inst[sel]
    at = np.concatenate(([0], kept.cumsum())).tolist()
    combined = [CADS(rank[a:b], dist[a:b], node[a:b], inst[a:b], k, g.n, g.ell, ranks.norm)
                for a, b in zip(at[:-1], at[1:])]
    return combined, ranks


def _union_filter(
    at: np.ndarray, rank: np.ndarray, dist: np.ndarray, node: np.ndarray, inst: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """`merge_cads` of every node's candidates at once.

    The columns hold each owner's candidates, owner v's at at[v]:at[v + 1], and an owner's ranks
    are distinct.  Returns the positions of the kept entries, owner by owner in key order, and
    each owner's count of them.  The owners run in slices of about `_BLOCK_CELLS >> 5`
    candidates (an owner with more is a slice of its own), which bounds the temporaries.
    """
    bound = max(1, graph._BLOCK_CELLS >> 5)
    sel, lo, n = [], 0, len(at) - 1
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(at, at[lo] + bound, side="right")) - 1)
        a, b = at[lo], at[hi]
        cols = (rank[a:b], dist[a:b], node[a:b], inst[a:b])
        sel.append(a + _filter_slice(np.diff(at[lo : hi + 1]), *cols, k, bound << 3))
        lo = hi
    sel = np.concatenate(sel)
    return sel, np.bincount(np.searchsorted(at, sel, side="right") - 1, minlength=n)


def _filter_slice(count: np.ndarray, rank, dist, node, inst, k: int, cap: int) -> np.ndarray:
    """The union filter over a slice of owners, owner g's count[g] candidates after those of
    the owners before it: the positions of the kept entries, owner by owner in key order.

    Key order comes from one int64 argsort.  The sort key holds the owner in its high bits and
    the leading bits of the distance below: the int64 bits of a double that is +0.0 or positive,
    as every searched distance is, sort in its order.  Only runs of equal sort key are
    reordered, by (distance, node, instance).

    Per owner, the k smallest distance-0 ranks are kept and the other distance-0 entries are
    dropped.  Then an entry is kept exactly when fewer than k entries ahead of it have a
    smaller rank; this restates the heap rule of `merge_cads`.  The entries run in position
    windows, all owners at once, the first k wide and each next one 1.5 times as wide as the
    last.  An (owners, k) table holds each owner's k smallest kept ranks ahead of the window,
    which are the k smallest of all ranks ahead: an entry that was not kept has k smaller ones
    ahead of it.  The k-th smallest only falls, so only the entries below it join a window.
    Each compares its rank with the table's and with those of the window's entries ahead of
    it, in one (owners, width, k + width) array; a window whose array would exceed `cap` cells
    is halved.
    """
    owners = count.size
    owner = np.repeat(np.arange(owners), count)
    shift = 63 - owners.bit_length()
    key = (owner << shift) | (dist.view(np.int64) >> (63 - shift))
    order = key.argsort()
    key = key[order]
    same = key[1:] == key[:-1]
    tied = np.zeros(order.size, bool)  # in a run of equal keys
    tied[:-1] = same
    tied[1:] |= same
    if tied.any():
        at = np.flatnonzero(tied)
        run = order[at]
        order[at] = run[np.lexsort((inst[run], node[run], dist[run], key[at]))]
    r = rank[order]
    zero = np.flatnonzero(dist[order] == 0.0)  # each owner's distance-0 entries lead its candidates
    if (np.bincount(owner[zero], minlength=owners) > k).any():
        zero = zero[np.lexsort((r[zero], owner[zero]))]  # by (owner, rank)
        grouped = owner[zero]
        alive = np.ones(order.size, bool)
        alive[zero[np.arange(zero.size) - np.searchsorted(grouped, grouped) >= k]] = False
        order, r, owner = order[alive], r[alive], owner[alive]
        count = np.bincount(owner, minlength=owners)
    head = count.cumsum() - count  # where each owner's entries start
    top = np.iinfo(np.int64).max
    table = np.full((owners, k), top)  # per owner, the k smallest ranks kept so far
    keep, start, width, end = [np.zeros(0, np.int64)], 0, k, int(count.max(initial=0))
    while start < end:
        while True:
            span = np.maximum(np.minimum(count, start + width) - start, 0)  # per owner, its entries in the window
            win = np.arange(span.sum()) + np.repeat(head + start - (span.cumsum() - span), span)
            win = win[r[win] < table[owner[win], -1]]
            ow = owner[win]
            col = np.arange(win.size) - np.searchsorted(ow, ow)  # window entries ahead, same owner
            size = int(col.max(initial=-1)) + 1
            if owners * size * (size + k) <= cap or width == 1:
                break
            width //= 2
        ranks = np.full((owners, size), top)  # per owner, its window entries' ranks in key order
        ranks[ow, col] = r[win]
        ahead = np.concatenate((table, ranks), axis=1)[:, None, :] < ranks[:, :, None]
        ahead[:, :, k:] &= np.tri(size, size, -1, bool)  # of the window, only those ahead count
        smaller = ahead.sum(axis=2)
        keep.append(win[smaller[ow, col] < k])
        table = np.sort(np.concatenate((table, np.where(smaller < k, ranks, top)), axis=1), axis=1)[:, :k]
        start, width = start + width, width + (width + 1) // 2
    return order[np.sort(np.concatenate(keep))]


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
    first = sketches[seeds[0]]
    union, tau = _union([sketches[s] for s in seeds], first.k)
    far = union.dist > 0
    total = (alpha.eval_array(union.dist[far]) / (np.asarray(tau)[far] / first.norm)).sum()
    return len(seeds) * alpha.alpha0 + float(total) / first.ell


@dataclass
class ThresholdSketch:
    """Bottom-k ranks over the node-instance pairs within distance T."""

    ranks: list[int]
    k: int
    n: int
    ell: int
    T: float
    norm: int


def build_threshold_sketches(
    g: MultiInstanceGraph, ranks: RankAssignment, k: int, T: float
) -> list[ThresholdSketch]:
    """Bottom-k sketches of the within-T reachable pairs, for every node.

    An instance's search candidates cut at T hold its k smallest ranks
    within T of every node, and all of them lie within T.  Per rank block of
    the search, the candidate ranks below a node's k-th smallest rank so far
    are folded into its row of `bottom` at once, so only one block's
    candidates are held.
    """
    if not T > 0:
        raise ValueError("T must be positive")
    if k < 2:  # the estimator (k-1)/tau_k answers 0 at k=1
        raise ValueError(f"threshold sketch size k must be at least 2, got {k}")
    unset = np.iinfo(np.int64).max  # above every rank
    bottom = np.full((g.n, k), unset)  # per node, its k smallest ranks so far, ascending
    for group in _instance_groups(g, k):
        for inst, owner, src, _ in _search_blocks(g, group, ranks, k, T):
            rank = ranks.rank[src, inst]
            keep = rank < bottom[owner, -1]
            _fold_k_smallest(bottom, owner[keep], rank[keep])
    return [ThresholdSketch(b[b < unset].tolist(), k, g.n, g.ell, T, ranks.norm) for b in bottom]


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


# The columns of a sketch file: node v, named labels[v], holds entries offsets[v]:offsets[v+1]
# of the entry columns, which are rank and, for combined sketches, those of _CADS_SPEC.
_SKETCH_SPEC = {"offsets": ("i", 1), "rank": ("i", 1), "labels": ("U", 1), "k": ("i", 0), "n": ("i", 0),
                "ell": ("i", 0), "seed": ("i", 0), "model": ("U", 0), "T": ("f", 0)}
_CADS_SPEC = {"dist": ("f", 1), "node": ("iu", 1), "instance": ("iu", 1)}


def save_sketches(path: str, sketches: Sequence[CADS] | Sequence[ThresholdSketch], seed: int,
                  labels: Sequence[str] | None = None) -> None:
    """Write sketches as one npz of flat columns (see `_SKETCH_SPEC`).

    `labels` names the nodes; by default node v is named str(v), as in a
    graph built without labels.  The file names the rank model the sketches
    carry: uniform when their rank domain is `UNIFORM_DOMAIN`, otherwise
    permutation.  T is NaN for combined sketches.
    """
    first = sketches[0]
    combined = isinstance(first, CADS)
    parts = [np.asarray(sk.rank if combined else sk.ranks, dtype=np.int64) for sk in sketches]
    # node and instance are written as int32, which fits every graph the kernels index
    extra = {name: np.concatenate([getattr(sk, name) for sk in sketches]).astype(np.int32 if kinds == "iu" else float)
             for name, (kinds, _) in _CADS_SPEC.items()} if combined else {}
    _write_npz(
        path,
        offsets=np.cumsum([0] + [len(p) for p in parts]),
        rank=np.concatenate(parts),
        labels=np.array([str(v) for v in range(first.n)] if labels is None else labels, dtype="U"),
        k=np.int64(first.k), n=np.int64(first.n), ell=np.int64(first.ell), seed=np.int64(seed),
        model=np.str_("uniform" if first.norm == UNIFORM_DOMAIN else "permutation"),
        T=np.float64(getattr(first, "T", math.nan)),
        **extra,
    )


def load_sketches(path: str):
    """Read a sketch file back; returns (sketches, labels, seed).

    The rank domain is `UNIFORM_DOMAIN` for uniform ranks, n*ell for
    permutations (n*ell < 2**63 in any file).  A file that is not a sketch
    file, is cut short or fails a check raises a one-line ValueError, which
    names the first bad node for these: ranks in [1, norm]; for combined
    sketches, distances in [0, inf), pairs in [0, n) x [0, ell), one pair per
    rank and one rank per pair across the file, no rank twice in a sketch, and
    key order; for threshold sketches, at most k strictly increasing ranks.
    """
    cols = _read_npz(path, "sketch file", _SKETCH_SPEC)
    combined = "dist" in cols
    if combined:
        _check_arrays(path, "sketch file", cols, _CADS_SPEC)
    k, n, ell, seed = (int(cols[name]) for name in ("k", "n", "ell", "seed"))
    model, T, labels = str(cols["model"]), float(cols["T"]), cols["labels"].tolist()
    offsets, rank = cols["offsets"].astype(np.int64), cols["rank"].astype(np.int64)
    if k < (1 if combined else 2):
        raise ValueError(f"{path}: sketch size k must be at least 1 (2 for threshold sketches), got {k}")
    if n < 1 or ell < 1 or seed < 0:
        raise ValueError(f"{path}: sketch file needs n, ell >= 1 and seed >= 0, got n={n} ell={ell} seed={seed}")
    if model not in ("permutation", "uniform"):
        raise ValueError(f"{path}: unknown rank model {model!r}")
    if n * ell >= 2**63:
        raise ValueError(f"{path}: sketch file has n*ell={n * ell} pairs, more than int64 ranks can number")
    norm = UNIFORM_DOMAIN if model == "uniform" else n * ell
    lengths = {len(cols[name]) for name in ("rank", *(_CADS_SPEC if combined else ()))}  # of the entry columns
    if len(offsets) != n + 1 or offsets[0] != 0 or {offsets[-1]} != lengths or (np.diff(offsets) < 0).any():
        raise ValueError(f"{path}: offsets must rise from 0 to the length of each entry column in n+1={n + 1} steps")
    _check_labels(labels, n, f"{path}: ")

    owner = np.repeat(np.arange(n), np.diff(offsets))
    same = owner[1:] == owner[:-1]  # adjacent entries of one sketch

    def reject(bad: np.ndarray, nodes: np.ndarray, what) -> None:
        # the first flagged entry j names its node; what(j) describes it
        j = np.flatnonzero(bad)
        if len(j):
            raise ValueError(f"{path}: sketch of node {nodes[j[0]]} {what(j[0])}")

    reject((rank < 1) | (rank > norm), owner, lambda j: f"holds rank {rank[j]} outside [1, {norm}]")
    spans = list(zip(offsets[:-1].tolist(), offsets[1:].tolist()))
    if not combined:
        reject(same & (rank[1:] <= rank[:-1]), owner, lambda j: "has ranks that are not strictly increasing")
        size = np.diff(offsets)
        reject(size > k, np.arange(n), lambda v: f"holds {size[v]} ranks, more than k={k}")
        sketches = [ThresholdSketch(rank[a:b].tolist(), k, n, ell, T, norm) for a, b in spans]
        return sketches, labels, seed
    dist = cols["dist"].astype(np.float64)
    node, inst = cols["node"].astype(np.int64), cols["instance"].astype(np.int64)
    reject(~(np.isfinite(dist) & (dist >= 0)), owner, lambda j: f"has distance {float(dist[j])!r}")
    reject((node < 0) | (node >= n) | (inst < 0) | (inst >= ell), owner,
           lambda j: f"names pair ({node[j]}, {inst[j]}) outside [0, {n}) x [0, {ell})")
    # across the file a rank names one pair and a pair has one rank, so neighbours in rank order
    # and in pair order share both or neither; stable sorts keep each group in owner order
    by_rank = np.argsort(rank, kind="stable")
    for order in (by_rank, np.lexsort((inst, node))):
        lo, hi = order[:-1], order[1:]
        same_rank, same_pair = rank[lo] == rank[hi], (node[lo] == node[hi]) & (inst[lo] == inst[hi])
        reject(same_rank != same_pair, owner[lo],
               lambda j: f"gives rank {rank[lo[j]]} to pair ({node[lo[j]]}, {inst[lo[j]]}); node {owner[hi[j]]}'s "
               f"sketch gives rank {rank[hi[j]]} to pair ({node[hi[j]]}, {inst[hi[j]]})")
    lo, hi = by_rank[:-1], by_rank[1:]
    reject((rank[lo] == rank[hi]) & (owner[lo] == owner[hi]), owner[lo], lambda j: f"repeats rank {rank[lo[j]]}")
    d0, d1, v0, v1, i0, i1 = dist[:-1], dist[1:], node[:-1], node[1:], inst[:-1], inst[1:]
    in_order = (d0 < d1) | ((d0 == d1) & ((v0 < v1) | ((v0 == v1) & (i0 < i1))))
    reject(same & ~in_order, owner, lambda j: "has records out of key order")
    sketches = [CADS(rank[a:b], dist[a:b], node[a:b], inst[a:b], k, n, ell, norm) for a, b in spans]
    return sketches, labels, seed
