"""Independent brute-force oracles used to verify the library.

Everything here avoids the library's search engines: distances come from
Bellman-Ford relaxation sweeps over raw edge lists, and estimators are
evaluated straight from their definitions.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

INF = math.inf


def instance_edges(g, i):
    return list(zip(g.tails.tolist(), g.heads.tolist(), g.weights[i].tolist()))


def bf_distances(edges, n, sources, bound=None):
    """Bellman-Ford multi-source distances; with a per-node bound, a node is
    never entered beyond its own bound, so no path passes through it."""
    dist = [INF] * n
    for s in sources:
        dist[s] = 0.0
    for _ in range(n):
        changed = False
        for t, h, w in edges:
            nd = dist[t] + w
            if nd < dist[h] and (bound is None or nd <= bound[h]):
                dist[h] = nd
                changed = True
        if not changed:
            break
    return dist


def bf_all_pairs(g):
    """Per instance, an (n, n) matrix of exact distances."""
    out = []
    for i in range(g.ell):
        edges = instance_edges(g, i)
        mat = np.array([bf_distances(edges, g.n, [s]) for s in range(g.n)])
        out.append(mat)
    return out


def influence_bf(g, seeds, alpha):
    """Influence by definition: decayed multi-source distances, averaged."""
    if not seeds:
        return 0.0
    total = 0.0
    for i in range(g.ell):
        dist = bf_distances(instance_edges(g, i), g.n, seeds)
        total += sum(alpha(d) for d in dist)
    return total / g.ell


def residual_delta_bf(g, seeds, alpha):
    """Residual distances from a seed set, inf beyond the decay support."""
    delta = np.full((g.ell, g.n), INF)
    if not seeds:
        return delta
    for i in range(g.ell):
        dist = bf_distances(instance_edges(g, i), g.n, seeds)
        for v, d in enumerate(dist):
            if d <= alpha.support_bound:
                delta[i, v] = d
    return delta


def marg_gain_bf(g, delta, u, alpha):
    """Marginal influence of u by the contribution sum definition."""
    total = 0.0
    for i in range(g.ell):
        dist = bf_distances(instance_edges(g, i), g.n, [u])
        for v, d in enumerate(dist):
            total += max(0.0, alpha(d) - alpha(delta[i, v]))
    return total / g.ell


def greedy_bf(g, alpha, s_max):
    """Plain (non-lazy) greedy by definition: every round scans all nodes,
    takes the largest marginal gain over Bellman-Ford distances, and breaks
    ties to the lowest node index.  Returns (seeds, marginals)."""
    dists = bf_all_pairs(g)
    best = [[INF] * g.n for _ in range(g.ell)]
    seeds, marginals = [], []
    for _ in range(s_max):
        gains = [
            sum(
                alpha(min(b, d)) - alpha(b)
                for i in range(g.ell)
                for b, d in zip(best[i], dists[i][u])
            ) / g.ell
            for u in range(g.n)
        ]
        u = max((u for u in range(g.n) if u not in seeds), key=lambda u: (gains[u], -u))
        seeds.append(u)
        marginals.append(gains[u])
        best = [[min(b, d) for b, d in zip(best[i], dists[i][u])] for i in range(g.ell)]
    return seeds, marginals


def reverse_ball_bf(g, i, v, T):
    """(node, distance) of the nodes within T of v in instance i, by
    Bellman-Ford on the reversed edges, in the order a Dijkstra search that
    breaks distance ties by node settles them: (distance, node), unless a
    length is absorbed (d + w == d)."""
    dist = bf_distances([(h, t, w) for t, h, w in instance_edges(g, i)], g.n, [v])
    return [(u, d) for d, u in sorted((d, u) for u, d in enumerate(dist) if d <= T and d < INF)]


def tskim_bf(g, ranks, T, k, s_max):
    """T-SKIM by its definition: ([(seed, exact, estimated)], pairs_covered,
    balls), where balls lists the ball size of every pair that started.

    Pairs in increasing rank order scan their reverse balls within T in
    (distance, node) order, unless covered; each scan counts one hit for the
    scanned node, and the first node to reach k hits is the next seed, with
    estimate (k - 1) / (rank / norm) / ell.  Covering a seed drops every
    newly covered pair's hits, and a paused pair resumes only if still
    uncovered.  Once the ranks run out, the node with the most hits (lowest
    index on ties) is the seed, estimated at its hits / ell.
    """
    n, ell = g.n, g.ell
    order = sorted((int(ranks.rank[v, i]), v, i) for v in range(n) for i in range(ell) if ranks.rank[v, i])
    covered: set = set()
    counts = [0] * n
    hits: dict = {}
    balls: list = []
    trace: list = []

    def scans():
        for r, v, i in order:
            if (v, i) in covered:
                continue
            ball = reverse_ball_bf(g, i, v, T)
            balls.append(len(ball))
            for u, _ in ball:
                if (v, i) in covered:
                    break
                yield r, v, i, u

    def cover(x, est):
        seeds = [s for s, _, _ in trace] + [x]
        fresh = []
        for i in range(ell):
            dist = bf_distances(instance_edges(g, i), n, seeds)
            fresh += [(v, i) for v in range(n) if dist[v] <= T and (v, i) not in covered]
        for pair in fresh:
            covered.add(pair)
            for u in hits.pop(pair, []):
                counts[u] -= 1
        trace.append((x, len(fresh) / ell, est))
        return len(trace) == s_max or len(covered) == n * ell

    if s_max == 0:
        return trace, 0, balls
    for r, v, i, u in scans():
        counts[u] += 1
        hits.setdefault((v, i), []).append(u)
        if counts[u] == k and cover(u, (k - 1) / (r / ranks.norm) / ell):
            return trace, len(covered), balls
    while True:
        u = max(range(n), key=lambda u: (counts[u], -u))
        if counts[u] == 0 or cover(u, counts[u] / ell):
            return trace, len(covered), balls


def absorbing_graph(seed, ell=2):
    """A random graph plus edges x -> y of length 0.5 and z -> x of length
    1e-17 with z < x, in every instance: 0.5 + 1e-17 == 0.5, so in y's
    reverse ball z and x tie at 0.5, and z is reached only through x."""
    from distinf import MultiInstanceGraph

    g = random_graph(16, 2, seed, ell)
    extra = [(0, 5, 9), (1, 6, 9), (2, 7, 12), (3, 8, 12), (0, 10, 15), (4, 11, 15)]
    tails = g.tails.tolist() + [t for z, x, y in extra for t in (x, z)]
    heads = g.heads.tolist() + [h for z, x, y in extra for h in (y, x)]
    lengths = np.tile([0.5, 1e-17] * len(extra), (ell, 1))
    return MultiInstanceGraph(g.n, tails, heads, np.hstack([g.weights, lengths]))


def cads_bf(g, ranks, k, v, dists=None):
    """Combined sketch of v straight from its defining inclusion rule.

    The distance-0 pairs (v's own, one per ranked instance) keep the k
    smallest ranks.  Any other ranked pair is kept when its rank is below the
    k-th smallest rank over all strictly closer ranked pairs, where closeness
    is the tie-broken key (distance, node, instance).
    """
    if dists is None:
        dists = bf_all_pairs(g)
    pairs = []
    for i in range(g.ell):
        for u in range(g.n):
            r = int(ranks.rank[u, i])
            if r == 0:
                continue
            d = dists[i][v, u]
            if d < INF:
                pairs.append((r, d, u, i))
    pairs.sort(key=lambda e: (e[1], e[2], e[3]))
    zero = sorted(e[0] for e in pairs if e[1] == 0.0)[:k]
    kept = set()
    closer_ranks: list[int] = []
    for r, d, u, i in pairs:
        if (r in zero) if d == 0.0 else (len(closer_ranks) < k or r < sorted(closer_ranks)[k - 1]):
            kept.add((r, d, u, i))
        closer_ranks.append(r)
    return kept


def union_bf(g, ranks, k, seeds, dists):
    """Union sketch of a seed set straight from its defining rule, in key order.

    A ranked pair sits at its minimum distance over the seeds.  Distance-0
    pairs keep the k smallest ranks; a positive-distance pair is kept when its
    rank is below the k-th smallest rank over all strictly closer pairs.
    """
    pairs = []
    for i in range(g.ell):
        for u in range(g.n):
            r = int(ranks.rank[u, i])
            d = min(dists[i][s, u] for s in seeds)
            if r and d < INF:
                pairs.append((r, d, u, i))
    pairs.sort(key=lambda e: (e[1], e[2], e[3]))
    zero = sorted(e[0] for e in pairs if e[1] == 0.0)[:k]
    kept = []
    for j, (r, d, u, i) in enumerate(pairs):
        if d == 0.0:
            if r in zero:
                kept.append((r, d, u, i))
            continue
        closer = sorted(e[0] for e in pairs[:j])
        if len(closer) < k or r < closer[k - 1]:
            kept.append((r, d, u, i))
    return kept


def pps_estimate_bf(contribs, rank_of, tau):
    """Inverse-probability estimate from explicit contributions.

    contribs maps pair -> positive contribution; rank_of maps pair -> rank in
    (0, 1].  Pairs at or above tau count fully; sampled sub-tau pairs count
    tau each.
    """
    total = 0.0
    for pair, c in contribs.items():
        if c >= tau:
            total += c
        elif c / rank_of[pair] >= tau:
            total += tau
    return total


def random_graph(n, avg_deg, seed, ell=1, model=None):
    """Random directed multigraph-free topology with sampled edge lengths."""
    from distinf import EdgeLengthModel, MultiInstanceGraph, sample_instances

    rng = np.random.default_rng(seed)
    m = int(avg_deg * n)
    seen = set()
    tails, heads = [], []
    while len(tails) < m:
        t = int(rng.integers(n))
        h = int(rng.integers(n))
        if t != h and (t, h) not in seen:
            seen.add((t, h))
            tails.append(t)
            heads.append(h)
    base = MultiInstanceGraph.from_arrays(n, tails, heads)
    if model is None:
        model = EdgeLengthModel.exponential(1.0, seed=seed + 1)
    return sample_instances(base, model, ell)


def skewed_graph(n, avg_deg, seed, ell):
    """Random digraph whose out-degrees follow a Zipf-like profile, giving a
    few strong influencer hubs, with exponential mean-1 edge lengths."""
    from distinf import EdgeLengthModel, MultiInstanceGraph, sample_instances

    rng = np.random.default_rng(seed)
    m = int(avg_deg * n)
    w = 1.0 / np.arange(1, n + 1) ** 0.9
    w /= w.sum()
    tails_pool = rng.choice(n, size=3 * m, p=w)
    heads_pool = rng.integers(0, n, size=3 * m)
    seen, tails, heads = set(), [], []
    for t, h in zip(tails_pool.tolist(), heads_pool.tolist()):
        if t != h and (t, h) not in seen:
            seen.add((t, h))
            tails.append(t)
            heads.append(h)
            if len(tails) == m:
                break
    base = MultiInstanceGraph.from_arrays(n, tails, heads)
    return sample_instances(base, EdgeLengthModel.exponential(1.0, seed=seed + 1), ell)


def gapped_and_tied(g, seed):
    """Two variants of g: one with about 20% of its lengths set to inf (edges
    an instance lacks), one with its lengths rounded up to quarters (many
    distance ties)."""
    from distinf import MultiInstanceGraph

    rng = np.random.default_rng(seed)
    gaps = np.where(rng.random(g.weights.shape) < 0.2, INF, g.weights)
    ties = np.ceil(g.weights * 4) / 4
    return [MultiInstanceGraph(g.n, g.tails, g.heads, w) for w in (gaps, ties)]


@st.composite
def small_graphs(draw, max_n=10, loops=False, missing=False):
    """Graphs on at most max_n nodes with sinks, unit (tied) or random
    lengths, and at most 3 instances; with loops, also self-loops and
    parallel edges, and at least n edges; with missing, some instances may
    lack some edges (infinite length)."""
    from distinf import MultiInstanceGraph

    n = draw(st.integers(1, max_n))
    pairs = [(t, h) for t in range(n) for h in range(n) if loops or t != h]
    min_size = n if loops else 0
    edges = draw(st.lists(st.sampled_from(pairs), unique=not loops, min_size=min_size, max_size=3 * n)) if pairs else []
    ell = draw(st.integers(1, 3))
    if draw(st.booleans()):
        weights = np.ones((ell, len(edges)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        weights = rng.exponential(1.0, (ell, len(edges))) + 1e-3
    if missing and draw(st.booleans()):
        lacks = draw(st.lists(st.booleans(), min_size=weights.size, max_size=weights.size))
        weights[np.array(lacks, dtype=bool).reshape(weights.shape)] = INF
    return MultiInstanceGraph.from_arrays(n, [t for t, _ in edges], [h for _, h in edges], weights)


def pps_index(state, pid):
    """Index entries (node, distance, alpha(distance)) of a sampling state's
    pair pid, in scan order."""
    seg = slice(state.start[pid], state.start[pid] + state.length[pid])
    return list(zip(state.node[seg].tolist(), state.dist[seg].tolist(), state.value[seg].tolist()))


def rescan_pps_state(state):
    """Recompute H/M/L classes, boundary positions, and estimate sums of a
    sampling state from its index segments against the current tau, residual
    distances, and ranks."""
    est_h = np.zeros(state.g.n)
    est_m = np.zeros(state.g.n, dtype=np.int64)
    pairs = state.g.n * state.g.ell
    hm, ml = [0] * pairs, [0] * pairs
    for pid in range(pairs):
        ad = state.alpha_delta[pid]
        r = state.rank_norm[pid]
        n_h = n_m = 0
        prev = INF
        for u, d, a_d in pps_index(state, pid):
            c = a_d - ad
            assert c > 0, "trimmed tail must stay trimmed"
            assert a_d <= prev + 1e-15, "scan order must be non-increasing in value"
            prev = a_d
            if c >= state.tau:
                n_h += 1
                est_h[u] += c
            elif c >= r * state.tau:
                n_m += 1
                est_m[u] += 1
        hm[pid] = n_h
        ml[pid] = n_h + n_m
    return est_h, est_m, hm, ml


def check_pps_state(state):
    """Full-rescan consistency: incremental state must match a from-scratch
    reclassification; index segments must be disjoint and inside the written
    part of the entry columns; every pair's reclassification tau must be
    exactly the tau at which its first M or L entry changes class, so that a
    tau step visits it and visits no pair with nothing to promote; and the
    stored priority of every live pair (never started, or paused at its
    stored next scan distance) must stay an upper bound."""
    est_h, est_m, hm, ml = rescan_pps_state(state)
    assert hm == state.hm.tolist()
    assert ml == state.ml.tolist()
    assert np.array_equal(est_m, state.est_m)
    np.testing.assert_allclose(est_h, state.est_h, rtol=1e-9, atol=1e-12)
    held = np.flatnonzero(state.length)
    held = held[np.argsort(state.start[held])]
    ends = state.start[held] + state.length[held]
    assert np.all(ends[:-1] <= state.start[held][1:]) and np.all(ends <= state.used)
    for pid, p in enumerate(state.pair_prio.tolist()):
        lst = pps_index(state, pid)
        ad, r = state.alpha_delta[pid], state.rank_norm[pid]
        t = lst[hm[pid]][2] - ad if hm[pid] < ml[pid] else -INF
        if ml[pid] < len(lst):
            t = max(t, (lst[ml[pid]][2] - ad) / r)
        assert state.reclass[pid] == t
        if p == -INF:
            continue
        mu = state.next_scan(*divmod(pid, state.g.ell))
        true_p = (state.alpha(mu) - ad) / r
        assert p >= true_p - 1e-12
