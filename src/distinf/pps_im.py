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
heap keys compare as Python floats.  Pair (v, i) is the one integer
pid = v * ell + i, which orders pairs as (v, i) does; the per-pair lists are
flat and indexed by pid.  The residual `delta` stays an (ell, n) array
because `residual_update` and the exact check read it whole.
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

    Per-pair state sits in flat lists of length n * ell indexed by
    pid = v * ell + i.  Index lists hold (node, distance, alpha(distance)) in
    reverse-Dijkstra scan order; `hm[pid]` is the count of H entries and
    `ml[pid]` the count of H plus M entries, so positions < hm are H,
    positions in [hm, ml) are M, and positions >= ml are L.  Entries with
    non-positive contribution are trimmed and never return.  `index[pid]` is
    None until the pair has scanned its own node, and `next_dist` holds the
    distance of a live pair's next scan.

    Pairs never searched wait in `stream`, their pids sorted by
    (-initial priority, pid), of which the first `stream_at` have been taken;
    `q_pairs` holds (-priority, pid) entries of paused pairs and of stream
    pairs whose priority a commit lowered.  Together they pop as one heap of
    every pair would, ties included.
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
        n, ell, cells = g.n, g.ell, g.n * g.ell
        ranks = structured_ranks(n, ell, ell, seed)  # ell blocks: every pair is ranked
        rank_norm = (ranks.rank / ranks.norm).ravel()  # by pid
        self.rank_norm = rank_norm.tolist()
        self.delta = np.full((ell, n), INF)
        self.alpha_delta = [0.0] * cells  # alpha(delta), cached
        self.est_h = [0.0] * n
        self.est_m = [0] * n
        self.next_dist = [0.0] * cells
        self.index: list[list[tuple[int, float, float]] | None] = [None] * cells
        self.hm = [0] * cells
        self.ml = [0] * cells
        a0 = alpha.alpha0
        self.tau = tau0 if tau0 is not None else a0 * n * ell / (2 * k)
        if not self.tau > 0:
            raise ValueError("tau0 must be positive")
        # Pair priorities: the sampling threshold at which the pair's reverse
        # Dijkstra would admit its next scanned node.  They only decrease.
        prio = a0 / rank_norm
        self.pair_prio = prio.tolist()
        self.stream = np.argsort(-prio, kind="stable")
        self.stream_at = 0
        self.q_pairs: list[tuple[float, int]] = []
        self.q_cands: list[tuple[float, int]] = []
        self.queued = [-INF] * n  # per node, its last key pushed to q_cands; -inf once popped
        self.q_hml: list[tuple[float, int]] = []
        self.reclass = [-INF] * cells
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

    def _update_reclass(self, pid: int) -> None:
        """Recompute the tau at which the pair's first reclassification occurs
        (from the entries at the HM and ML boundaries) and requeue it."""
        lst = self.index[pid]
        hm, ml = self.hm[pid], self.ml[pid]
        ad = self.alpha_delta[pid]
        t = -INF
        if hm < ml:
            t = lst[hm][2] - ad  # first M entry turns H at tau <= c
        if ml < len(lst):
            t = max(t, (lst[ml][2] - ad) / self.rank_norm[pid])  # first L entry turns M at tau <= c / r
        self.reclass[pid] = t
        if t > 0:
            heapq.heappush(self.q_hml, (-t, pid))

    def _move_up(self) -> None:
        """Promote entries after a tau decrease: L to M or H, M to H."""
        tau = self.tau
        est_h, est_m = self.est_h, self.est_m
        while self.q_hml:
            negt, pid = self.q_hml[0]
            t = -negt
            if self.reclass[pid] != t:
                heapq.heappop(self.q_hml)  # stale; current value was re-pushed
                continue
            if t < tau:
                break
            heapq.heappop(self.q_hml)
            lst = self.index[pid]
            ad = self.alpha_delta[pid]
            r = self.rank_norm[pid]
            old_hm, old_ml = self.hm[pid], self.ml[pid]
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
            self.hm[pid] = new_hm
            self.ml[pid] = max(new_ml, new_hm)
            self._update_reclass(pid)

    # ------------------------------------------------------------------ #
    # sampling

    def next_scan(self, v: int, i: int) -> float:
        """Distance at which live pair (v, i) scans its next node: 0 before it
        scans its own node; inf when nothing is left to scan."""
        return self.next_dist[v * self.g.ell + i]

    def resume_sampling(self) -> None:
        """Resume every paused reverse search whose priority has reached tau.

        The due pairs leave the stream (its due prefix by one bisection) and
        `q_pairs` first, each once and in (-priority, pid) order: resuming
        one pair changes no other pair's priority.  One `reverse_balls` call
        then searches all of them from their sources, each within its
        `_scan_limits` bound.  In the same order, each pair scans its ball
        past the entries already in its index until the pause rule holds
        again, at a ball entry or at the distance past the ball."""
        tau, fn, prio, ell = self.tau, self.alpha.fn, self.pair_prio, self.g.ell
        est_h, est_m, hm, ml, index = self.est_h, self.est_m, self.hm, self.ml, self.index
        alpha_delta, rank_norm, q = self.alpha_delta, self.rank_norm, self.q_pairs
        a0, at = self.alpha.alpha0, self.stream_at
        end = self.stream_at = bisect_right(self.stream, -tau, lo=at, key=lambda pid: -a0 / rank_norm[pid])
        fresh = []  # stream entries still at their initial priority
        for pid in self.stream[at:end].tolist():
            p0, cur = a0 / rank_norm[pid], prio[pid]
            if cur == p0:
                fresh.append((-p0, pid))
            elif cur > 0:
                heapq.heappush(q, (-cur, pid))  # lowered by a commit
        taken = []
        while q and -q[0][0] >= tau:  # stored priorities are upper bounds
            negp, pid = q[0]
            cur = prio[pid]
            if cur == -negp:
                prio[pid] = -INF  # taken: another entry of the pair is now stale; the replay sets it
                taken.append(heapq.heappop(q))
            elif cur > 0:
                heapq.heapreplace(q, (-cur, pid))  # stale entry
            else:
                heapq.heappop(q)
        due = [pid for _, pid in sorted(fresh + taken)]
        if not due:
            return
        src, inst = np.divmod(np.array(due), ell)
        ad, r = (np.array([cells[pid] for pid in due]) for cells in (alpha_delta, rank_norm))
        row, node, dist = reverse_balls(self.g, inst, src, _scan_limits(self.alpha, ad, r, tau))
        past = past_balls(self.g, inst, row, node, dist).tolist()
        start = np.searchsorted(row, np.arange(len(due) + 1)).tolist()
        self.pairs_searched += len(due)
        self.ball_entries += node.size
        node, dist = node.tolist(), dist.tolist()
        for j, pid in enumerate(due):
            ad, r, lst = alpha_delta[pid], rank_norm[pid], index[pid]
            a, b = start[j] + len(lst or ()), start[j + 1]
            for u, d in zip([*node[a:b], None], [*dist[a:b], past[j]]):
                a_d = fn(d)
                c = a_d - ad
                if c <= 0:
                    prio[pid] = -INF  # terminated for good; alpha(inf) = 0 covers an exhausted search
                    break
                p = c / r
                if p < tau:
                    prio[pid] = p  # pause
                    self.next_dist[pid] = d
                    heapq.heappush(q, (-p, pid))
                    break
                if u is None:
                    v, i = divmod(pid, ell)
                    raise RuntimeError(f"the scan limit of pair {(v, i)} cut off a distance its pause rule admits")
                if lst is None:  # the pair's own node, at distance 0
                    lst = index[pid] = []
                self.cursor_scans += 1
                lst.append((u, d, a_d))
                if c >= tau:
                    est_h[u] += c
                    hm[pid] += 1
                    ml[pid] += 1
                else:
                    est_m[u] += 1
                    first_m = ml[pid] == hm[pid] == len(lst) - 1
                    ml[pid] += 1
                    if first_m:
                        self._update_reclass(pid)
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

    def _move_down(self, pid: int, lst: list, new_ad: float) -> None:
        """Demote the index entries of one pair after its residual distance drops.

        Every entry's contribution shrinks by the same amount, so the H/M/L
        boundaries only move left, the tail with non-positive contribution is
        cut, and kept H entries adjust their sums in place.
        """
        old_ad = self.alpha_delta[pid]
        shift = old_ad - new_ad  # <= 0
        tau = self.tau
        r = self.rank_norm[pid]
        est_h, est_m = self.est_h, self.est_m
        old_hm, old_ml = self.hm[pid], self.ml[pid]
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
        self.hm[pid] = new_hm
        self.ml[pid] = new_ml
        self._update_reclass(pid)

    def commit_seed(self, x: int, estimate: float | None = None) -> float:
        """Make x a seed: every residual distance it improves demotes samples,
        lowers the pair's priority, and adds to the exact marginal, pair by
        pair in per-instance Dijkstra order.  Cells of terminated pairs with
        no index entries only add to the marginal."""
        if self.is_seed[x]:
            raise ValueError(f"node {x} is already a seed")
        g, fn = self.g, self.alpha.fn
        alpha_delta, prio, index, next_dist = self.alpha_delta, self.pair_prio, self.index, self.next_dist
        inst, node, _, new = residual_update(g, self.delta, x, self.alpha.support_bound)
        gain_total = 0.0
        for pid, d in zip((node * g.ell + inst).tolist(), new.tolist()):
            a_d = fn(d)
            gain_total += a_d - alpha_delta[pid]
            if prio[pid] > -INF:
                new_p = (fn(next_dist[pid]) - a_d) / self.rank_norm[pid]
                prio[pid] = -INF if new_p <= 0 else new_p  # terminated for good, or lowered lazily: fixed up on pop
            lst = index[pid]
            if lst:
                self._move_down(pid, lst, a_d)
            alpha_delta[pid] = a_d
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
    if s_max is not None and not 0 <= s_max <= g.n:
        raise ValueError(f"seed count must be in [0, {g.n}], got {s_max}")
    state = PPSState(g, alpha, k, lam=lam, tau0=tau0, seed=seed, eps=eps)
    full = g.n * g.ell * alpha.alpha0
    limit = s_max if s_max is not None else g.n
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
