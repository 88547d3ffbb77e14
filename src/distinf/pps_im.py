"""Influence maximization for arbitrary decay functions.

The algorithm maintains, for every candidate node, a probability-proportional-
to-size sample of its marginal-influence set under a global threshold tau:
pair (v, i) with contribution c enters node u's sample when c / r >= tau,
where r is the pair's shared normalized rank.  Samples are materialized as an
inverted index: per pair, the prefix of its reverse-Dijkstra scan order, split
into H entries (c >= tau, sampled with probability 1), M entries
(r*tau <= c < tau), and L entries (0 < c < r*tau, kept because a lower tau may
promote them).  Running sums EstH[u] and counts EstM[u] give the influence
estimate (EstH + tau * EstM) / ell at all times.

tau decreases geometrically until the best estimate clears the k * tau
confidence gate; committing a seed runs one batched forward search whose
improved residual distances demote or trim index entries and lower pair
priorities.
Reverse searches pause when the next contribution falls under r * tau and
resume when tau has dropped enough; a pair whose next contribution cannot be
positive is terminated for good.  A paused pair keeps only its next scan
distance.  `resume_sampling` searches every due pair from its source with
one `graph.reverse_balls` call, bounded where its pause rule must stop at the
fixed tau, and each pair replays its ball past the nodes it has scanned.

The loops touch one cell at a time, so the per-cell state (estimates, pair
priorities, cached alpha(delta), ranks, seed flags) is kept in Python lists:
a Python float read or write costs a fraction of a numpy scalar access, and
heap keys compare as Python floats.  The residual `delta` stays an (ell, n)
array because `residual_update` and the exact check read it whole.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right

import numpy as np

from .decay import DecayFunction
from .exact import GreedyTrace, _gain_sums
from .graph import MultiInstanceGraph, past_balls, residual_update, reverse_balls
from .sketch import structured_ranks

INF = math.inf

Pair = tuple[int, int]  # (node, instance)

_SLACK, _TINY = 2.0**-40, 2.0**-1000  # relative and absolute slack of the scan limits


def _scan_limits(alpha: DecayFunction, ad: np.ndarray, r: np.ndarray, tau: float) -> np.ndarray:
    """Per pair, a distance at least every d its pause rule admits at tau,
    alpha(d) - ad > 0 and (alpha(d) - ad) / r >= tau: the largest float64,
    inf included, at which `alpha.eval_array` raised by the slack clears the
    rule.  The slack covers the ulp by which scalar `fn` may differ and the
    rule's two roundings; it only costs ball entries.  Bisects bit patterns,
    which order non-negative floats as int64s do; 0 counts as admitted."""
    floor = ad + r * tau
    lo, hi = np.zeros(floor.size, np.int64), np.full(floor.size, INF).view(np.int64) + 1  # hi: past inf
    while np.any(hi - lo > 1):
        mid = lo + ((hi - lo) >> 1)  # lo + hi overflows int64 near inf's bit pattern
        with np.errstate(over="ignore"):  # rate * d may overflow near the float maximum; the decay is 0 there
            value = alpha.eval_array(mid.view(np.float64)) * (1.0 + _SLACK) + _TINY
        ok = (value >= floor) & (value > ad)
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return lo.view(np.float64)


class PPSState:
    """Sampling threshold, residual distances, inverted sample index, and the
    three lazy priority queues.

    Index lists hold (node, distance, alpha(distance)) in reverse-Dijkstra
    scan order; `hm[pair]` is the count of H entries and `ml[pair]` the count
    of H plus M entries, so positions < hm are H, positions in [hm, ml) are M,
    and positions >= ml are L.  Entries with non-positive contribution are
    trimmed and never return.  A pair has an index list once it has scanned
    its own node, and `next_dist` holds the distance of a live pair's next
    scan.  Per-cell state is indexed [instance][node].
    """

    def __init__(
        self,
        g: MultiInstanceGraph,
        alpha: DecayFunction,
        k: int,
        *,
        lam: float = 0.5,
        tau0: float | None = None,
        seed: int = 0,
        eps: float | None = None,
    ):
        if k < 1:
            raise ValueError("k must be at least 1")
        if not 0 < lam < 1:
            raise ValueError("lambda must be in (0, 1)")
        if eps is not None and not 0 < eps < 1:
            raise ValueError(f"adaptive accuracy eps must be in (0, 1), got {eps}")
        self.g = g
        self.alpha = alpha
        self.k = k
        self.lam = lam
        self.eps = eps  # adaptive accuracy; None for fixed-k selection
        n, ell = g.n, g.ell
        ranks = structured_ranks(n, ell, ell, seed)  # ell blocks: every pair is ranked
        rank_norm = ranks.rank.T / ranks.norm  # (ell, n)
        self.rank_norm = rank_norm.tolist()
        self.delta = np.full((ell, n), INF)
        self.alpha_delta = [[0.0] * n for _ in range(ell)]  # alpha(delta), cached
        self.est_h = [0.0] * n
        self.est_m = [0] * n
        self.next_dist = [[0.0] * n for _ in range(ell)]
        self.index: dict[Pair, list[tuple[int, float, float]]] = {}
        self.hm: dict[Pair, int] = {}
        self.ml: dict[Pair, int] = {}
        a0 = alpha.alpha0
        self.tau = tau0 if tau0 is not None else a0 * n * ell / (2 * k)
        if not self.tau > 0:
            raise ValueError("tau0 must be positive")
        # Pair priorities: the sampling threshold at which the pair's reverse
        # Dijkstra would admit its next scanned node.  They only decrease.
        self.pair_prio = (a0 / rank_norm).tolist()
        self.q_pairs: list[tuple[float, int, int]] = [
            (-p, v, i) for i, row in enumerate(self.pair_prio) for v, p in enumerate(row)
        ]
        heapq.heapify(self.q_pairs)
        self.q_cands: list[tuple[float, int]] = []
        self.queued = [-INF] * n  # per node, its last key pushed to q_cands; -inf once popped
        self.q_hml: list[tuple[float, int, int]] = []
        self.reclass: dict[Pair, float] = {}
        self.is_seed = [False] * n
        self.seeds: list[int] = []
        self.coverage = 0.0
        self.er = 0.0
        self.trace = GreedyTrace()
        # run metrics
        self.tau_schedule: list[float] = [self.tau]
        self.delta_update_count = 0
        self.cursor_scans = 0  # nodes scanned, under the name perfbench reads
        self.pairs_searched = 0
        self.ball_entries = 0

    # ------------------------------------------------------------------ #
    # estimates and candidate queue

    def node_estimate(self, u: int) -> float:
        """Current sample estimate of u's marginal influence, unnormalized."""
        return self.est_h[u] + self.tau * self.est_m[u]

    def _touch_candidate(self, u: int) -> None:
        # prompt priority refresh: required whenever the estimate may increase;
        # unless it rises above `queued[u]`, an entry at least as high is queued
        est = self.node_estimate(u)
        if est > self.queued[u]:
            heapq.heappush(self.q_cands, (-est, u))
            self.queued[u] = est

    # ------------------------------------------------------------------ #
    # reclassification queue

    def _update_reclass(self, pair: Pair) -> None:
        """Recompute the tau at which the pair's first reclassification occurs
        (from the entries at the HM and ML boundaries) and requeue it."""
        lst = self.index[pair]
        hm, ml = self.hm[pair], self.ml[pair]
        v, i = pair
        ad = self.alpha_delta[i][v]
        t = -INF
        if hm < ml:
            t = lst[hm][2] - ad  # first M entry turns H at tau <= c
        if ml < len(lst):
            r = self.rank_norm[i][v]
            t = max(t, (lst[ml][2] - ad) / r)  # first L entry turns M at tau <= c / r
        self.reclass[pair] = t
        if t > 0:
            heapq.heappush(self.q_hml, (-t, pair[0], pair[1]))

    def _move_up(self) -> None:
        """Promote entries after a tau decrease: L to M or H, M to H."""
        tau = self.tau
        est_h, est_m = self.est_h, self.est_m
        while self.q_hml:
            negt, v, i = self.q_hml[0]
            t = -negt
            pair = (v, i)
            if self.reclass.get(pair, -INF) != t:
                heapq.heappop(self.q_hml)  # stale; current value was re-pushed
                continue
            if t < tau:
                break
            heapq.heappop(self.q_hml)
            lst = self.index[pair]
            ad = self.alpha_delta[i][v]
            r = self.rank_norm[i][v]
            old_hm, old_ml = self.hm[pair], self.ml[pair]
            # first entry whose contribution alpha(d) - ad falls below tau; the key
            # ad - alpha(d) is its exact negation, so the boundary matches per-entry checks
            new_hm = bisect_right(lst, -tau, lo=old_hm, key=lambda e: ad - e[2])
            for p in range(old_hm, new_hm):
                u = lst[p][0]
                if p < old_ml:
                    est_m[u] -= 1
                est_h[u] += lst[p][2] - ad
                self._touch_candidate(u)
            lo = max(old_ml, new_hm)
            new_ml = bisect_right(lst, -(r * tau), lo=lo, key=lambda e: ad - e[2])
            for p in range(lo, new_ml):
                u = lst[p][0]
                est_m[u] += 1
                self._touch_candidate(u)
            self.hm[pair] = new_hm
            self.ml[pair] = max(new_ml, new_hm)
            self._update_reclass(pair)

    # ------------------------------------------------------------------ #
    # sampling

    def next_scan(self, v: int, i: int) -> float:
        """Distance at which live pair (v, i) scans its next node: 0 before it
        scans its own node; inf when nothing is left to scan."""
        return self.next_dist[i][v]

    def resume_sampling(self) -> None:
        """Resume every paused reverse search whose priority has reached tau.

        The due pairs leave the queue first, in its order and each once:
        resuming one pair changes no other pair's priority.  One
        `reverse_balls` call then searches all of them from their sources,
        each within its `_scan_limits` bound.  In the same order, each pair
        scans its ball past the entries already in its index until the pause
        rule holds again, at a ball entry or at the distance past the ball."""
        tau, fn, prio = self.tau, self.alpha.fn, self.pair_prio
        est_h, est_m, hm, ml = self.est_h, self.est_m, self.hm, self.ml
        due: list[Pair] = []
        while self.q_pairs and -self.q_pairs[0][0] >= tau:  # stored priorities are upper bounds
            negp, v, i = heapq.heappop(self.q_pairs)
            cur = prio[i][v]
            if cur == -negp:
                prio[i][v] = -INF  # taken: another entry of the pair is now stale; the replay sets it
                due.append((v, i))
            elif cur > 0:  # stale entry
                heapq.heappush(self.q_pairs, (-cur, v, i))
        if not due:
            return
        src, inst = (np.array(c) for c in zip(*due))
        ad, r = (np.array([cells[i][v] for v, i in due]) for cells in (self.alpha_delta, self.rank_norm))
        row, node, dist = reverse_balls(self.g, inst, src, _scan_limits(self.alpha, ad, r, tau))
        past = past_balls(self.g, inst, row, node, dist).tolist()
        start = np.searchsorted(row, np.arange(len(due) + 1)).tolist()
        self.pairs_searched += len(due)
        self.ball_entries += node.size
        node, dist = node.tolist(), dist.tolist()
        for j, pair in enumerate(due):
            v, i = pair
            ad, r, lst = self.alpha_delta[i][v], self.rank_norm[i][v], self.index.get(pair)
            a, b = start[j] + len(lst or ()), start[j + 1]
            for u, d in zip([*node[a:b], None], [*dist[a:b], past[j]]):
                a_d = fn(d)
                c = a_d - ad
                if c <= 0:
                    prio[i][v] = -INF  # terminated for good; alpha(inf) = 0 covers an exhausted search
                    break
                p = c / r
                if p < tau:
                    prio[i][v] = p  # pause
                    self.next_dist[i][v] = d
                    heapq.heappush(self.q_pairs, (-p, v, i))
                    break
                if u is None:
                    raise RuntimeError(f"the scan limit of pair {pair} cut off a distance its pause rule admits")
                if lst is None:  # the pair's own node, at distance 0
                    lst = self.index[pair] = []
                    hm[pair] = ml[pair] = 0
                self.cursor_scans += 1
                lst.append((u, d, a_d))
                if c >= tau:
                    est_h[u] += c
                    hm[pair] += 1
                    ml[pair] += 1
                else:
                    est_m[u] += 1
                    first_m = ml[pair] == hm[pair] == len(lst) - 1
                    ml[pair] += 1
                    if first_m:
                        self._update_reclass(pair)
                self._touch_candidate(u)

    def lower_tau(self) -> None:
        """One threshold step: scale tau down, promote entries, extend samples."""
        self.tau *= self.lam
        self.tau_schedule.append(self.tau)
        self._move_up()
        self.resume_sampling()

    # ------------------------------------------------------------------ #
    # seed selection

    def next_seed(self) -> tuple[int, float] | None:
        """Best candidate by estimated marginal influence, or None if no
        estimate clears the k * tau gate (the caller then lowers tau).

        In adaptive mode the candidate's exact marginal is computed and the
        candidate is rejected (requeued at its exact value) when it falls
        below (1 - eps) of the estimate.
        """
        gate = self.k * self.tau
        while self.q_cands:
            stored_neg, u = self.q_cands[0]
            live = self.node_estimate(u)
            valid = not self.is_seed[u] and -stored_neg == live
            if valid and live < gate:
                return None
            heapq.heappop(self.q_cands)
            self.queued[u] = -INF  # that was u's highest entry; its next rise queues again
            if not valid:
                if not self.is_seed[u] and live > 0:
                    self._touch_candidate(u)  # requeued at live, as nothing of u is queued
                continue
            if self.eps is not None:
                # unnormalized, like the estimate: x / ell * ell is not always x
                exact = float(_gain_sums(self.g, self.delta, [u], self.alpha)[0])
                if exact < (1.0 - self.eps) * live:
                    heapq.heappush(self.q_cands, (-exact, u))
                    self.queued[u] = exact
                    return None
            return u, live
        return None

    # ------------------------------------------------------------------ #
    # committing a seed

    def _move_down(self, pair: Pair, lst: list, new_ad: float) -> None:
        """Demote the index entries of one pair after its residual distance drops.

        Every entry's contribution shrinks by the same amount, so the H/M/L
        boundaries only move left, the tail with non-positive contribution is
        cut, and kept H entries adjust their sums in place.
        """
        v, i = pair
        old_ad = self.alpha_delta[i][v]
        shift = old_ad - new_ad  # <= 0
        tau = self.tau
        r = self.rank_norm[i][v]
        est_h, est_m = self.est_h, self.est_m
        old_hm, old_ml = self.hm[pair], self.ml[pair]
        cut = bisect_left(lst, -new_ad, key=lambda e: -e[2])  # first entry with alpha(d) <= new_ad
        new_hm = min(bisect_right(lst, -tau, key=lambda e: new_ad - e[2]), cut)
        new_ml = min(bisect_right(lst, -(r * tau), lo=new_hm, key=lambda e: new_ad - e[2]), cut)
        for p in range(new_hm):
            est_h[lst[p][0]] += shift
        for p in range(new_hm, old_hm):
            u, _, a_d = lst[p]
            est_h[u] -= a_d - old_ad
            if p < new_ml:
                est_m[u] += 1
        for p in range(max(old_hm, new_ml), old_ml):
            est_m[lst[p][0]] -= 1
        del lst[cut:]
        self.hm[pair] = new_hm
        self.ml[pair] = new_ml
        self._update_reclass(pair)

    def commit_seed(self, x: int, estimate: float | None = None) -> float:
        """Make x a seed: every residual distance it improves demotes samples,
        lowers the pair's priority, and adds to the exact marginal, pair by
        pair in per-instance Dijkstra order.  Cells of terminated pairs with
        no index entries only add to the marginal."""
        if self.is_seed[x]:
            raise ValueError(f"node {x} is already a seed")
        g, fn = self.g, self.alpha.fn
        alpha_delta, prio, index = self.alpha_delta, self.pair_prio, self.index
        inst, node, _, new = residual_update(g, self.delta, x, self.alpha.support_bound)
        gain_total = 0.0
        for i, v, d in zip(inst.tolist(), node.tolist(), new.tolist()):
            a_d = fn(d)
            ad_row = alpha_delta[i]
            gain_total += a_d - ad_row[v]
            if prio[i][v] > -INF:
                new_p = (fn(self.next_scan(v, i)) - a_d) / self.rank_norm[i][v]
                if new_p <= 0:
                    prio[i][v] = -INF  # terminated for good
                else:
                    prio[i][v] = new_p  # lazy: heap fixed up on pop
            lst = index.get((v, i))
            if lst:
                self._move_down((v, i), lst, a_d)
            ad_row[v] = a_d
        self.delta[inst, node] = new
        self.delta_update_count += len(inst)
        self.is_seed[x] = True
        self.seeds.append(x)
        self.coverage += gain_total
        if estimate is not None:
            eps = self.eps if self.eps is not None else 1.0 / math.sqrt(self.k)
            self.er += max(0.0, (1.0 - eps) * estimate - gain_total)
        self.trace.append(x, gain_total / g.ell, None if estimate is None else estimate / g.ell)
        return gain_total


def run_pps_im(
    g: MultiInstanceGraph,
    alpha: DecayFunction,
    k: int,
    s_max: int | None = None,
    *,
    eps: float | None = None,
    lam: float = 0.5,
    tau0: float | None = None,
    seed: int = 0,
) -> GreedyTrace:
    """Approximate greedy sequence for an arbitrary decay function.

    Alternates sample extension (tau decreases) with seed selection until
    s_max seeds are chosen or coverage is full (n * alpha(0) per instance).
    `eps` switches on adaptive selection.
    """
    if s_max is not None and s_max < 0:
        raise ValueError(f"seed count must be non-negative, got {s_max}")
    state = PPSState(g, alpha, k, lam=lam, tau0=tau0, seed=seed, eps=eps)
    full = g.n * g.ell * alpha.alpha0
    limit = min(s_max, g.n) if s_max is not None else g.n
    while len(state.seeds) < limit and state.coverage < full - 1e-9:
        while (pick := state.next_seed()) is None:
            state.lower_tau()
        x, est = pick
        state.commit_seed(x, est)
    trace = state.trace
    trace.metadata.update(
        tau_schedule=state.tau_schedule,
        delta_updates_total=state.delta_update_count,
        delta_updates_per_pair=state.delta_update_count / (g.n * g.ell),
        cursor_scans=state.cursor_scans,
        pairs_searched=state.pairs_searched,
        ball_entries=state.ball_entries,
        er=state.er / g.ell,
    )
    return trace
