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
Reverse Dijkstras pause when the next contribution falls under r * tau and
resume when tau has dropped enough; a pair whose next contribution cannot be
positive is terminated for good.
"""

from __future__ import annotations

import heapq
import math
import time

import numpy as np

from .decay import DecayFunction
from .exact import GreedyTrace, _marg_gain_delta
from .graph import DijkstraCursor, MultiInstanceGraph, residual_update
from .sketch import structured_ranks

INF = math.inf

Pair = tuple[int, int]  # (node, instance)


def _first_contribution_below(entries: list, ad: float, threshold: float, lo: int = 0) -> int:
    """First index whose contribution alpha(d) - ad falls below the threshold.

    The predicate is evaluated exactly as the classification does, so the
    boundary agrees with per-entry checks even at float rounding limits.
    """
    hi = len(entries)
    while lo < hi:
        mid = (lo + hi) // 2
        if entries[mid][2] - ad < threshold:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _first_at_most(entries: list, val: float, lo: int = 0) -> int:
    """First index whose alpha(d) is <= val."""
    hi = len(entries)
    while lo < hi:
        mid = (lo + hi) // 2
        if entries[mid][2] <= val:
            hi = mid
        else:
            lo = mid + 1
    return lo


class PPSState:
    """Sampling threshold, residual distances, inverted sample index, and the
    three lazy priority queues.

    Index lists hold (node, distance, alpha(distance)) in reverse-Dijkstra
    scan order; `hm[pair]` is the count of H entries and `ml[pair]` the count
    of H plus M entries, so positions < hm are H, positions in [hm, ml) are M,
    and positions >= ml are L.  Entries with non-positive contribution are
    trimmed and never return.
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
        self.g = g
        self.alpha = alpha
        self.k = k
        self.lam = lam
        self.eps = eps  # adaptive accuracy; None for fixed-k selection
        n, ell = g.n, g.ell
        self.rank_norm = structured_ranks(n, ell, ell, seed).normalized_matrix()  # (ell, n)
        self.delta = np.full((ell, n), INF)
        self.alpha_delta = np.zeros((ell, n))  # alpha(delta), cached
        self.est_h = np.zeros(n)
        self.est_m = np.zeros(n, dtype=np.int64)
        self.index: dict[Pair, list[tuple[int, float, float]]] = {}
        self.hm: dict[Pair, int] = {}
        self.ml: dict[Pair, int] = {}
        self.cursors: dict[Pair, DijkstraCursor] = {}
        a0 = alpha.alpha0
        self.tau = tau0 if tau0 is not None else a0 * n * ell / (2 * k)
        if not self.tau > 0:
            raise ValueError("tau0 must be positive")
        # Pair priorities: the sampling threshold at which the pair's reverse
        # Dijkstra would admit its next scanned node.  They only decrease.
        self.pair_prio = a0 / self.rank_norm
        self.q_pairs: list[tuple[float, int, int]] = [
            (-self.pair_prio[i, v], v, i) for i in range(ell) for v in range(n)
        ]
        heapq.heapify(self.q_pairs)
        self.q_cands: list[tuple[float, int]] = []
        self.q_hml: list[tuple[float, int, int]] = []
        self.reclass: dict[Pair, float] = {}
        self.is_seed = np.zeros(n, dtype=bool)
        self.seeds: list[int] = []
        self.coverage = 0.0
        self.er = 0.0
        self.trace = GreedyTrace()
        # run metrics
        self.tau_schedule: list[float] = [self.tau]
        self.delta_update_count = 0
        self.cursor_scans = 0

    # ------------------------------------------------------------------ #
    # estimates and candidate queue

    def node_estimate(self, u: int) -> float:
        """Current sample estimate of u's marginal influence, unnormalized."""
        return self.est_h[u] + self.tau * self.est_m[u]

    def _touch_candidate(self, u: int) -> None:
        # prompt priority refresh: required whenever the estimate may increase
        heapq.heappush(self.q_cands, (-self.node_estimate(u), u))

    # ------------------------------------------------------------------ #
    # reclassification queue

    def _update_reclass(self, pair: Pair) -> None:
        """Recompute the tau at which the pair's first reclassification occurs
        (from the entries at the HM and ML boundaries) and requeue it."""
        lst = self.index[pair]
        hm, ml = self.hm[pair], self.ml[pair]
        v, i = pair
        ad = self.alpha_delta[i, v]
        t = -INF
        if hm < ml:
            t = lst[hm][2] - ad  # first M entry turns H at tau <= c
        if ml < len(lst):
            r = self.rank_norm[i, v]
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
            ad = self.alpha_delta[i, v]
            r = self.rank_norm[i, v]
            old_hm, old_ml = self.hm[pair], self.ml[pair]
            new_hm = _first_contribution_below(lst, ad, tau, old_hm)
            for p in range(old_hm, new_hm):
                u = lst[p][0]
                if p < old_ml:
                    est_m[u] -= 1
                est_h[u] += lst[p][2] - ad
                self._touch_candidate(u)
            lo = max(old_ml, new_hm)
            new_ml = _first_contribution_below(lst, ad, r * tau, lo)
            for p in range(lo, new_ml):
                u = lst[p][0]
                est_m[u] += 1
                self._touch_candidate(u)
            self.hm[pair] = new_hm
            self.ml[pair] = max(new_ml, new_hm)
            self._update_reclass(pair)

    # ------------------------------------------------------------------ #
    # sampling

    def _resume_pair(self, v: int, i: int) -> None:
        """Run the pair's reverse Dijkstra until the pause rule holds again."""
        pair = (v, i)
        tau = self.tau
        fn = self.alpha.fn
        r = self.rank_norm[i, v]
        ad = self.alpha_delta[i, v]
        cursor = self.cursors.get(pair)
        if cursor is None:
            cursor = self.cursors[pair] = DijkstraCursor(self.g, i, v)
        lst = self.index.get(pair)
        if lst is None:
            lst = self.index[pair] = []
            self.hm[pair] = 0
            self.ml[pair] = 0
        est_h, est_m = self.est_h, self.est_m
        while True:
            mu = cursor.peek()
            if mu is None:
                self.pair_prio[i, v] = -INF  # nothing left to scan
                self.cursors.pop(pair, None)
                return
            c = fn(mu) - ad
            if c <= 0:
                self.pair_prio[i, v] = -INF  # permanently terminated
                self.cursors.pop(pair, None)
                return
            p = c / r
            if p < tau:
                self.pair_prio[i, v] = p  # pause
                heapq.heappush(self.q_pairs, (-p, v, i))
                return
            u, d = cursor.settle_next()
            self.cursor_scans += 1
            a_d = fn(d)
            lst.append((u, d, a_d))
            if c >= tau:
                est_h[u] += c
                self.hm[pair] += 1
                self.ml[pair] += 1
            else:
                est_m[u] += 1
                first_m = self.ml[pair] == self.hm[pair] == len(lst) - 1
                self.ml[pair] += 1
                if first_m:
                    self._update_reclass(pair)
            self._touch_candidate(u)

    def resume_sampling(self) -> None:
        """Resume every paused reverse Dijkstra whose priority has reached tau."""
        tau = self.tau
        prio = self.pair_prio
        while self.q_pairs:
            negp, v, i = self.q_pairs[0]
            p = -negp
            cur = prio[i, v]
            if p != cur:
                heapq.heappop(self.q_pairs)  # stale entry
                if cur > 0:
                    heapq.heappush(self.q_pairs, (-cur, v, i))
                continue
            if p < tau:
                break
            heapq.heappop(self.q_pairs)
            self._resume_pair(v, i)

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
            stored = -stored_neg
            if self.is_seed[u]:
                heapq.heappop(self.q_cands)
                continue
            live = self.node_estimate(u)
            if stored != live:
                heapq.heappop(self.q_cands)
                if live > 0:
                    heapq.heappush(self.q_cands, (-live, u))
                continue
            if live < gate:
                return None
            heapq.heappop(self.q_cands)
            if self.eps is not None:
                exact = _marg_gain_delta(self.g, self.delta, u, self.alpha)
                if exact < (1.0 - self.eps) * live:
                    heapq.heappush(self.q_cands, (-exact, u))
                    return None
            return u, live
        return None

    # ------------------------------------------------------------------ #
    # committing a seed

    def _move_down(self, pair: Pair, new_ad: float) -> None:
        """Demote index entries of one pair after its residual distance drops.

        Every entry's contribution shrinks by the same amount, so the H/M/L
        boundaries only move left, the tail with non-positive contribution is
        cut, and kept H entries adjust their sums in place.
        """
        lst = self.index.get(pair)
        if lst is None or not lst:
            return
        v, i = pair
        old_ad = self.alpha_delta[i, v]
        shift = old_ad - new_ad  # <= 0
        tau = self.tau
        r = self.rank_norm[i, v]
        est_h, est_m = self.est_h, self.est_m
        old_hm, old_ml = self.hm[pair], self.ml[pair]
        cut = _first_at_most(lst, new_ad)
        new_hm = min(_first_contribution_below(lst, new_ad, tau), cut)
        new_ml = min(_first_contribution_below(lst, new_ad, r * tau, new_hm), cut)
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
        pair in per-instance Dijkstra order."""
        if self.is_seed[x]:
            raise ValueError(f"node {x} is already a seed")
        g, fn = self.g, self.alpha.fn
        alpha_delta, prio = self.alpha_delta, self.pair_prio
        inst, node, _, new = residual_update(g, self.delta, x, self.alpha.support_bound)
        gain_total = 0.0
        for i, v, d in zip(inst.tolist(), node.tolist(), new.tolist()):
            a_d = fn(d)
            gain_total += a_d - alpha_delta[i, v]
            if prio[i, v] > -INF:
                cursor = self.cursors.get((v, i))
                mu = cursor.mu if cursor is not None else 0.0
                new_p = (fn(mu) - a_d) / self.rank_norm[i, v]
                if new_p <= 0:
                    prio[i, v] = -INF  # terminated for good
                    self.cursors.pop((v, i), None)
                else:
                    prio[i, v] = new_p  # lazy: heap fixed up on pop
            self._move_down((v, i), a_d)
            alpha_delta[i, v] = a_d
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
    coverage_target: float | None = None,
    eps: float | None = None,
    lam: float = 0.5,
    tau0: float | None = None,
    seed: int = 0,
) -> GreedyTrace:
    """Approximate greedy sequence for an arbitrary decay function.

    Alternates sample extension (tau decreases) with seed selection until
    s_max seeds are chosen or coverage reaches the target (full coverage,
    n * alpha(0), by default).  `eps` switches on adaptive selection.
    """
    state = PPSState(g, alpha, k, lam=lam, tau0=tau0, seed=seed, eps=eps)
    full = g.n * g.ell * alpha.alpha0
    target = full if coverage_target is None else coverage_target * full
    limit = min(s_max, g.n) if s_max is not None else g.n
    timings = []
    while len(state.seeds) < limit and state.coverage < target - 1e-9:
        t0 = time.perf_counter()
        while (pick := state.next_seed()) is None:
            state.lower_tau()
        x, est = pick
        state.commit_seed(x, est)
        timings.append(time.perf_counter() - t0)
    trace = state.trace
    trace.metadata.update(
        tau_schedule=state.tau_schedule,
        delta_updates_total=state.delta_update_count,
        delta_updates_per_pair=state.delta_update_count / (g.n * g.ell),
        cursor_scans=state.cursor_scans,
        er=state.er / g.ell,
        per_seed_sec=timings,
    )
    return trace
