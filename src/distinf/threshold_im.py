"""Threshold-influence maximization with lazily built bottom-k sketches.

Node-instance pairs are processed in increasing permutation-rank order; each
uncovered pair scans its reverse ball within distance T in (distance, node)
order, incrementing the sketch count of every node it scans.  Building
pauses the moment some node collects k hits: that node is the next seed.
Covering it updates the residual distances and removes the covered pairs'
contributions from every count, after which building resumes where it
paused.

A pair's search is never pruned by the residual, so the balls of the next
uncovered pairs in rank order are computed ahead, one kernel block of them
at a time, by `graph.reverse_balls`; replaying them is vectorized.
"""

from __future__ import annotations

import math

import numpy as np

from .exact import GreedyTrace
from .graph import MultiInstanceGraph, block_rows, residual_update, reverse_balls
from .sketch import RankAssignment, _stable_order, structured_ranks

INF = math.inf


class ThresholdState:
    """Residual coverage, partial sketch counts, and the rank cursor.

    The current batch holds the reverse balls of consecutive uncovered pairs
    in rank order: per row its rank and pair (instance * n + node, its
    index into the flat residual), and per ball entry its row and node, with
    the entries of row r at [start[r], start[r + 1]).  `pos` is the first
    entry not yet replayed.
    """

    def __init__(self, g: MultiInstanceGraph, T: float, k: int, seed: int = 0):
        if not T > 0:
            raise ValueError("T must be positive")
        if k < 3:
            raise ValueError("k must be at least 3")
        self.g = g
        self.T = T
        self.k = k
        self.ranks: RankAssignment = structured_ranks(g.n, g.ell, g.ell, seed)
        order = np.argsort(self.ranks.rank, axis=None)  # ell blocks: every pair is ranked
        self.pairs = (self.ranks.rank.ravel()[order], order // g.ell, order % g.ell)  # (rank, node, instance)
        self.covered = np.full((g.ell, g.n), INF)
        self.counts = np.zeros(g.n, dtype=np.int64)
        # pair of each uncovered pair that has scanned -> the nodes it
        # scanned, a prefix of its ball
        self.contributions: dict[int, np.ndarray] = {}
        self.next_idx = 0
        empty = np.zeros(0, dtype=np.int64)
        self._rank = self._pair = self._start = self._row = self._ball = empty
        self._pos = 0
        self._table = None  # reverse_balls' dense table, allocated once and shared by every batch
        self.pairs_searched = 0
        self.delta_updates = 0
        self.ball_entries = 0
        self.n_covered = 0
        self.seeds: list[int] = []

    def _next_batch(self) -> bool:
        """Load the reverse balls of the next uncovered pairs in rank order,
        at most one kernel block of them; False once the ranks run out."""
        g, T = self.g, self.T
        rank, node, inst = self.pairs
        total = len(rank)
        want = size = block_rows(g.n)
        take = [np.zeros(0, dtype=np.int64)]
        while want and self.next_idx < total:
            lo = self.next_idx
            hi = min(lo + size, total)
            live = lo + np.flatnonzero(self.covered[inst[lo:hi], node[lo:hi]] > T)[:want]
            self.next_idx = int(live[-1]) + 1 if live.size == want else hi
            take.append(live)
            want -= live.size
        sel = np.concatenate(take)
        if not sel.size:
            return False
        self._rank, self._pair = rank[sel], inst[sel] * g.n + node[sel]
        if self._table is None:
            self._table = np.full(block_rows(g.n) * g.n, INF)
        self._row, self._ball, _ = reverse_balls(g, inst[sel], node[sel], T, self._table)
        self._start = np.searchsorted(self._row, np.arange(sel.size + 1))
        self._pos = 0
        self.pairs_searched += sel.size
        self.ball_entries += self._ball.size
        return True

    def _select(self) -> tuple[int, float] | None:
        """Advance sketch building until a node reaches k hits; returns the
        selected node and its estimated influence, or falls back to the
        maximum count once the ranks run out."""
        g, k, n = self.g, self.k, self.g.n
        counts = self.counts
        while True:
            if self._pos == self._ball.size and not self._next_batch():
                u = int(counts.argmax())
                if counts[u] == 0:
                    return None  # everything in range is covered
                # ranks exhausted: counts enumerate all uncovered in-range
                # pairs, so the count itself is the exact estimate
                return u, counts[u] / g.ell
            # remaining entries of the pairs still uncovered, in scan order
            live = self.covered.ravel()[self._pair] > self.T
            idx = self._pos + np.flatnonzero(live[self._row[self._pos:]])
            scan = self._ball[idx]
            # count of each entry's node after its increment: its count now
            # plus its occurrences in the scan so far
            order = _stable_order(scan, n)
            _, head, size = np.unique(scan[order], return_index=True, return_counts=True)
            occ = np.empty_like(scan)
            occ[order] = np.arange(1, scan.size + 1) - np.repeat(head, size)
            hit = np.flatnonzero(counts[scan] + occ >= k)
            stop = int(hit[0]) + 1 if hit.size else scan.size
            counts += np.bincount(scan[:stop], minlength=n)
            rows = self._row[idx[:stop]]
            last = np.flatnonzero(np.diff(rows, append=-1))  # each row's last scanned entry
            r = rows[last]
            for pair, a, b in zip(self._pair[r].tolist(), self._start[r].tolist(), (idx[last] + 1).tolist()):
                self.contributions[pair] = self._ball[a:b]
            if not hit.size:
                self._pos = self._ball.size
                continue
            self._pos = int(idx[stop - 1]) + 1
            r_hat = int(self._rank[rows[-1]]) / self.ranks.norm
            return int(scan[stop - 1]), (k - 1) / r_hat / g.ell

    def _cover(self, x: int) -> float:
        """Add x as a seed: update residual distances, count newly covered
        pairs, and delete their sketch contributions.  A batch row whose pair
        gets covered is skipped by `_select`."""
        inst, node, old, new = residual_update(self.g, self.covered, x, self.T)
        self.covered[inst, node] = new
        self.delta_updates += inst.size
        fresh = old == INF
        contributions = self.contributions
        gone = [contributions.pop(p) for p in (inst[fresh] * self.g.n + node[fresh]).tolist() if p in contributions]
        if gone:
            self.counts -= np.bincount(np.concatenate(gone), minlength=self.g.n)
        gained = int(fresh.sum())
        self.n_covered += gained
        self.seeds.append(x)
        return gained / self.g.ell


def run_threshold_im(
    g: MultiInstanceGraph, T: float, k: int, s_max: int, seed: int = 0
) -> GreedyTrace:
    """Approximate greedy sequence for threshold influence.

    Returns a trace of (seed, exact marginal, estimated marginal); stops at
    s_max seeds or full coverage, whichever comes first.  Its metadata
    counts the reverse balls computed (`pairs_searched`) and their total
    size (`ball_entries`), including those of pairs covered before their
    turn, and the residual cells the seeds updated (`delta_updates_total`).
    """
    if not 0 <= s_max <= g.n:
        raise ValueError(f"seed count must be in [0, {g.n}], got {s_max}")
    state = ThresholdState(g, T, k, seed)
    trace = GreedyTrace()
    total_pairs = g.n * g.ell
    while len(trace) < s_max and state.n_covered < total_pairs:
        pick = state._select()
        if pick is None:
            break
        x, est = pick
        exact = state._cover(x)
        trace.append(x, exact, est)
    trace.metadata["pairs_covered"] = state.n_covered
    trace.metadata["pairs_searched"] = state.pairs_searched
    trace.metadata["ball_entries"] = state.ball_entries
    trace.metadata["delta_updates_total"] = state.delta_updates
    return trace
