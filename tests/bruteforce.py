"""Independent brute-force oracles used to verify the library.

Everything here avoids the library's search engines: distances come from
Bellman-Ford relaxation sweeps over raw edge lists, and estimators are
evaluated straight from their definitions.
"""

from __future__ import annotations

import math

import numpy as np

INF = math.inf


def instance_edges(g, i):
    inst = g.instances[i]
    return list(zip(inst.tails.tolist(), inst.heads.tolist(), inst.weights.tolist()))


def bf_distances(edges, n, sources):
    """Bellman-Ford multi-source distances."""
    dist = [INF] * n
    for s in sources:
        dist[s] = 0.0
    for _ in range(n):
        changed = False
        for t, h, w in edges:
            nd = dist[t] + w
            if nd < dist[h]:
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


def cads_bf(g, ranks, k, v, dists=None):
    """Combined sketch of v straight from its defining inclusion rule.

    A ranked pair is kept when its rank is below the k-th smallest rank over
    all strictly closer ranked pairs, where closeness is the tie-broken key
    (distance, node, instance).
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
    kept = set()
    closer_ranks: list[int] = []
    for r, d, u, i in pairs:
        if len(closer_ranks) < k or r < sorted(closer_ranks)[k - 1]:
            kept.add((r, d, u, i))
        closer_ranks.append(r)
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


def rescan_pps_state(state):
    """Recompute H/M/L classes, boundary positions, and estimate sums of a
    sampling state from its index lists against the current tau, residual
    distances, and ranks."""
    est_h = np.zeros(state.g.n)
    est_m = np.zeros(state.g.n, dtype=np.int64)
    hm, ml = {}, {}
    for (v, i), lst in state.index.items():
        ad = state.alpha_delta[i, v]
        r = state.rank_norm[i, v]
        n_h = n_m = 0
        prev = INF
        for u, d, a_d in lst:
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
        hm[(v, i)] = n_h
        ml[(v, i)] = n_h + n_m
    return est_h, est_m, hm, ml


def check_pps_state(state):
    """Full-rescan consistency: incremental state must match a from-scratch
    reclassification, and stored pair priorities must stay upper bounds."""
    est_h, est_m, hm, ml = rescan_pps_state(state)
    assert hm == state.hm
    assert ml == state.ml
    assert np.array_equal(est_m, state.est_m)
    np.testing.assert_allclose(est_h, state.est_h, rtol=1e-9, atol=1e-12)
    for (v, i), cursor in state.cursors.items():
        mu = cursor.mu
        true_p = (state.alpha.fn(mu) - state.alpha_delta[i, v]) / state.rank_norm[i, v]
        assert state.pair_prio[i, v] >= true_p - 1e-12
