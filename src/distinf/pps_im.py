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
distance, and a commit evaluates the decay there again.  `resume_sampling`
searches every due pair from its source with one `graph.reverse_balls` call,
bounded where its pause rule must stop at the fixed tau, and each pair
replays its ball past the nodes it has scanned.

Pair (v, i) is the one integer pid = v * ell + i, which orders pairs as
(v, i) does.  Every per-pair quantity is a numpy array indexed by pid, and
the index is three flat entry columns (node, distance, alpha(distance)) in
which each pair owns one segment.  A tau step, a resume and a seed commit
each update all the pairs they concern with a few array operations: the due
pairs and the pairs to promote are masks of the priority and
reclassification arrays, visited in the order their queues would pop them,
(-priority, pid) and (-tau, pid), so that every sum is formed in the order
a pair-at-a-time loop would form it.  Decays are evaluated in bulk, by
`alpha.eval_array` over all of a step's distances.  Only the candidate
queue is a heap, pushed once per touched node per step.
"""

from __future__ import annotations

import heapq
import math

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
    rule.  The slack covers the two roundings by which this test differs
    from `resume_sampling`'s; it only costs ball entries.  Bisects bit
    patterns, which order non-negative floats as int64s do; 0 counts as
    admitted."""
    floor = ad + r * tau
    lo, hi = np.zeros(floor.size, np.int64), np.full(floor.size, INF).view(np.int64) + 1  # hi: past inf
    while np.any(hi - lo > 1):
        mid = lo + ((hi - lo) >> 1)  # lo + hi overflows int64 near inf's bit pattern
        with np.errstate(over="ignore"):  # rate * d may overflow near the float maximum; the decay is 0 there
            value = alpha.eval_array(mid.view(np.float64)) * (1.0 + _SLACK) + _TINY
        ok = (value >= floor) & (value > ad)
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return lo.view(np.float64)


def _spans(length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For segments of the given lengths laid end to end, each element's
    segment j and its position k within the segment."""
    j = np.repeat(np.arange(length.size), length)
    return j, np.arange(j.size) - (np.cumsum(length) - length)[j]


class PPSState:
    """Sampling threshold, residual distances, inverted sample index, and
    the candidate queue.

    Per-pair state sits in numpy arrays of length n * ell indexed by
    pid = v * ell + i.  Pair pid's index entries are positions
    start[pid] + [0, length[pid]) of the entry columns `node`, `dist` and
    `value` = alpha(dist), in reverse-Dijkstra scan order; `hm[pid]` is the
    count of H entries and `ml[pid]` the count of H plus M entries, so
    positions < hm are H, positions in [hm, ml) are M, and positions >= ml are
    L.  Entries with non-positive contribution are trimmed and never return.
    A live pair (`pair_prio` > -inf) scans its next node at `next_dist`;
    `reclass` holds the tau at which the pair's first M or L entry changes
    class.
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
        self.rank_norm = (ranks.rank / ranks.norm).ravel()  # by pid
        self.delta = np.full((ell, n), INF)
        self.alpha_delta = np.zeros(cells)  # alpha(delta), cached
        self.est_h = np.zeros(n)
        self.est_m = np.zeros(n, np.int64)
        self.next_dist = np.zeros(cells)
        self.start = np.zeros(cells, np.int64)
        self.length, self.hm, self.ml = (np.zeros(cells, np.int32) for _ in range(3))
        self.reclass = np.full(cells, -INF)
        self.node, self.dist, self.value = np.zeros(0, np.int32), np.zeros(0), np.zeros(0)
        self.used = 0  # entry-column cells written; segments left behind by a move sit among them
        a0 = alpha.alpha0
        self.tau = tau0 if tau0 is not None else a0 * n * ell / (2 * k)
        if not self.tau > 0:
            raise ValueError("tau0 must be positive")
        # Pair priorities: the sampling threshold at which the pair's reverse
        # Dijkstra would admit its next scanned node.  They only decrease.
        self.pair_prio = a0 / self.rank_norm
        self.q_cands: list[tuple[float, int]] = []
        self.queued = np.full(n, -INF)  # per node, its last key pushed to q_cands; -inf once popped
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
        return float(self.est_h[u] + self.tau * self.est_m[u])

    def _touch(self, nodes: np.ndarray) -> None:
        """Prompt priority refresh after a step that may raise the estimates of
        `nodes`: a node is queued, once, at its estimate after the step if that
        rose above `queued[u]`; otherwise an entry at least as high is queued."""
        u = np.unique(nodes)
        est = self.est_h[u] + self.tau * self.est_m[u]
        rose = est > self.queued[u]
        self.queued[u[rose]] = est[rose]
        for entry in zip((-est[rose]).tolist(), u[rose].tolist()):
            heapq.heappush(self.q_cands, entry)

    # ------------------------------------------------------------------ #
    # index segments and reclassification

    def _segments(self, pids: np.ndarray, length: np.ndarray) -> None:
        """Move `pids` to fresh segments of `length` entries after the used part
        of the entry columns, their old entries first.  When the columns are
        full, the live segments are first packed into columns with room for
        twice them and the new ones."""
        need = int(length.sum())
        if self.used + need > self.node.size:
            j, k = _spans(self.length)
            pos = self.start[j] + k
            self.start = np.cumsum(self.length, dtype=np.int64) - self.length
            self.used, size = pos.size, 2 * (pos.size + need)
            self.node, self.dist, self.value = (
                np.concatenate([col[pos], np.zeros(size - pos.size, col.dtype)])
                for col in (self.node, self.dist, self.value))
        fresh = self.used + np.cumsum(length) - length
        self.used += need
        j, k = _spans(self.length[pids])
        for col in (self.node, self.dist, self.value):
            col[fresh[j] + k] = col[self.start[pids][j] + k]
        self.start[pids], self.length[pids] = fresh, length

    def _reclass(self, pids: np.ndarray, ad: np.ndarray) -> None:
        """Recompute, at residual values ad, the tau at which each pair's first
        reclassification occurs: its first M entry turns H at tau <= c, its
        first L entry turns M at tau <= c / r."""
        hm, ml, s, top = self.hm[pids], self.ml[pids], self.start[pids], self.value.size - 1
        t = np.where(hm < ml, self.value[np.minimum(s + hm, top)] - ad, -INF)
        first_l = (self.value[np.minimum(s + ml, top)] - ad) / self.rank_norm[pids]
        self.reclass[pids] = np.where(ml < self.length[pids], np.maximum(t, first_l), t)

    def _move_up(self) -> None:
        """Promote entries after a tau decrease: L to M or H, M to H.  The
        pairs whose reclassification tau is reached are visited in
        (-reclass, pid) order; their H boundary moves to the first entry whose
        contribution falls below tau, their M boundary to the first below r * tau."""
        tau = self.tau
        up = np.flatnonzero(self.reclass >= tau)
        if not up.size:
            return
        up = up[np.lexsort((up, -self.reclass[up]))]
        ad, r, hm, ml = self.alpha_delta[up], self.rank_norm[up], self.hm[up], self.ml[up]
        j, k = _spans(self.length[up] - hm)  # the M and L entries
        k += hm[j]
        pos = self.start[up][j] + k
        u, c = self.node[pos], self.value[pos] - ad[j]
        new_hm = hm + np.bincount(j[c >= tau], minlength=up.size)
        lo = np.maximum(ml, new_hm)
        new_ml = lo + np.bincount(j[(k >= lo[j]) & (c >= r[j] * tau)], minlength=up.size)
        to_h, to_m = k < new_hm[j], (k >= lo[j]) & (k < new_ml[j])
        np.add.at(self.est_h, u[to_h], c[to_h])
        np.add.at(self.est_m, u, to_m.astype(np.int64) - (to_h & (k < ml[j])))
        self.hm[up], self.ml[up] = new_hm, new_ml
        self._reclass(up, ad)
        self._touch(u[to_h | to_m])

    # ------------------------------------------------------------------ #
    # sampling

    def next_scan(self, v: int, i: int) -> float:
        """Distance at which live pair (v, i) scans its next node: 0 before it
        scans its own node; inf when nothing is left to scan."""
        return float(self.next_dist[v * self.g.ell + i])

    def resume_sampling(self) -> None:
        """Resume every paused reverse search whose priority has reached tau.

        The due pairs are the live pairs with priority >= tau, in
        (-priority, pid) order: resuming one pair changes no other pair's
        priority.  One `reverse_balls` call searches all of them from their
        sources, each within its `_scan_limits` bound.  Each pair scans its
        ball past the entries already in its index until the pause rule holds
        again, at a ball entry or at the distance past the ball; the scanned
        entries add to the estimates in that order."""
        tau, prio, ell = self.tau, self.pair_prio, self.g.ell
        due = np.flatnonzero(prio >= tau)
        if not due.size:
            return
        due = due[np.lexsort((due, -prio[due]))]
        ad, r, have = self.alpha_delta[due], self.rank_norm[due], self.length[due]
        src, inst = np.divmod(due, ell)
        row, node, dist = reverse_balls(self.g, inst, src, _scan_limits(self.alpha, ad, r, tau))
        past = past_balls(self.g, inst, row, node, dist)
        start = np.searchsorted(row, np.arange(due.size + 1))
        self.pairs_searched += due.size
        self.ball_entries += node.size
        # per pair, its ball entries past its index, then the distance past its ball
        ext = start[1:] - start[:-1] - have
        j, k = _spans(ext + 1)
        pos = np.minimum(start[:-1][j] + have[j] + k, node.size - 1)
        d = np.where(k == ext[j], past[j], dist[pos])
        a_d = self.alpha.eval_array(d)
        c = a_d - ad[j]
        p = c / r[j]
        hit = np.flatnonzero((c <= 0) | (p < tau))
        offs = np.flatnonzero(k == 0)
        first = np.append(hit, d.size)[np.searchsorted(hit, offs)]  # each pair's stop
        if np.any(short := first >= np.append(offs[1:], d.size)):
            v, i = divmod(int(due[np.argmax(short)]), ell)
            raise RuntimeError(f"the scan limit of pair {(v, i)} cut off a distance its pause rule admits")
        paused = c[first] > 0  # the others are terminated for good; alpha(inf) = 0 covers an exhausted search
        prio[due] = np.where(paused, p[first], -INF)
        self.next_dist[due[paused]] = d[first[paused]]
        scans = first - offs
        s = k < scans[j]
        j, k, u, c, d, a_d = j[s], k[s], node[pos[s]], c[s], d[s], a_d[s]
        h = c >= tau
        np.add.at(self.est_h, u[h], c[h])
        np.add.at(self.est_m, u[~h], 1)
        self.cursor_scans += j.size
        h_scans = np.bincount(j[h], minlength=due.size)
        first_m = due[(self.ml[due] == have) & (self.hm[due] == have) & (scans > h_scans)]
        self.hm[due] += h_scans
        self.ml[due] += scans
        grew = due[scans > 0]
        self._segments(grew, self.length[grew] + scans[scans > 0])
        at = self.start[due][j] + have[j] + k
        self.node[at], self.dist[at], self.value[at] = u, d, a_d
        self._reclass(first_m, self.alpha_delta[first_m])  # later M entries do not move a pair's first one
        self._touch(u)

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
                if not self.is_seed[u] and live > 0:  # requeued at live, as nothing of u is queued
                    heapq.heappush(self.q_cands, (-live, u))
                    self.queued[u] = live
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

    def commit_seed(self, x: int, estimate: float | None = None) -> float:
        """Make x a seed: every residual distance it improves lowers its pair's
        priority and demotes the pair's index entries.  Each entry's
        contribution shrinks by the same amount, so the H/M/L boundaries only
        move left, the tail with non-positive contribution is cut, and kept H
        entries adjust their sums in place.  Pairs are visited, and the
        exact marginal is summed, in per-instance Dijkstra order."""
        if self.is_seed[x]:
            raise ValueError(f"node {x} is already a seed")
        g, tau, prio = self.g, self.tau, self.pair_prio
        inst, node, _, new = residual_update(g, self.delta, x, self.alpha.support_bound)
        cells = node * g.ell + inst
        a_d = self.alpha.eval_array(new)
        old = self.alpha_delta[cells]
        gains = np.cumsum(a_d - old)  # in sequence, as one running sum
        gain_total = float(gains[-1]) if gains.size else 0.0
        live = prio[cells] > -INF
        new_p = (self.alpha.eval_array(self.next_dist[cells[live]]) - a_d[live]) / self.rank_norm[cells[live]]
        prio[cells[live]] = np.where(new_p <= 0, -INF, new_p)  # terminated for good, or lowered
        has = self.length[cells] > 0
        pids, new_ad, old_ad = cells[has], a_d[has], old[has]
        hm, ml, r = self.hm[pids], self.ml[pids], self.rank_norm[pids]
        j, k = _spans(self.length[pids])
        pos = self.start[pids][j] + k
        u, value = self.node[pos], self.value[pos]
        c = value - new_ad[j]
        cut = np.bincount(j[value > new_ad[j]], minlength=pids.size)  # the entries still contributing
        new_hm = np.minimum(np.bincount(j[c >= tau], minlength=pids.size), cut)
        new_ml = np.minimum(np.maximum(np.bincount(j[c >= r[j] * tau], minlength=pids.size), new_hm), cut)
        kh = k < hm[j]
        np.add.at(self.est_h, u[kh], np.where(k < new_hm[j], (old_ad - new_ad)[j], old_ad[j] - value)[kh])
        demoted = (k >= new_hm[j]) & kh & (k < new_ml[j])
        np.add.at(self.est_m, u, demoted.astype(np.int64) - ((k >= np.maximum(hm, new_ml)[j]) & (k < ml[j])))
        self.length[pids], self.hm[pids], self.ml[pids] = cut, new_hm, new_ml
        self._reclass(pids, new_ad)
        self.alpha_delta[cells] = a_d
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
