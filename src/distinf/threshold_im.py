"""Threshold-influence maximization with lazily built bottom-k sketches.

Node-instance pairs are processed in increasing permutation-rank order; each
uncovered pair runs a reverse Dijkstra pruned at distance T, incrementing the
sketch counts of the nodes it scans.  Building pauses the moment some node
collects k hits: that node is the next seed.  Covering it updates the
residual distances and removes the covered pairs' contributions from every
count, after which building resumes where it paused.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .exact import GreedyTrace
from .graph import DijkstraCursor, MultiInstanceGraph, residual_update
from .sketch import RankAssignment, structured_ranks

INF = math.inf


class ThresholdState:
    """Residual coverage, partial sketch counts, and the rank cursor."""

    def __init__(self, g: MultiInstanceGraph, T: float, k: int, seed: int = 0):
        if not T > 0:
            raise ValueError("T must be positive")
        if k < 3:
            raise ValueError("k must be at least 3")
        self.g = g
        self.T = T
        self.k = k
        self.ranks: RankAssignment = structured_ranks(g.n, g.ell, g.ell, seed)
        self.pairs = self.ranks.ranked_pairs()  # (rank, node, instance) columns
        self.covered = np.full((g.ell, g.n), INF)
        self.counts = np.zeros(g.n, dtype=np.int64)
        self.contributors: dict[tuple[int, int], list[int]] = {}
        self.next_idx = 0
        self.active: tuple[tuple[int, int], DijkstraCursor] | None = None
        self._active_rank = 0
        self.n_covered = 0
        self.seeds: list[int] = []

    def _select(self) -> tuple[int, float] | None:
        """Advance sketch building until a node reaches k hits; returns the
        selected node and its estimated influence, or falls back to the
        maximum count once the ranks run out."""
        g, T, k = self.g, self.T, self.k
        counts = self.counts
        norm = self.ranks.norm
        while True:
            if self.active is None:
                if self.next_idx >= len(self.pairs[0]):
                    u = int(counts.argmax())
                    if counts[u] == 0:
                        return None  # everything in range is covered
                    # ranks exhausted: counts enumerate all uncovered in-range
                    # pairs, so the count itself is the exact estimate
                    return u, counts[u] / g.ell
                r, v, i = (int(col[self.next_idx]) for col in self.pairs)
                self.next_idx += 1
                if self.covered[i, v] <= T:
                    continue  # covered pairs contribute to no sketch
                self.active = ((v, i), DijkstraCursor(g, i, v, T))
                self._active_rank = r
            (v, i), cursor = self.active
            if self.covered[i, v] <= T:
                self.active = None  # covered while paused; contributions already removed
                continue
            contrib = self.contributors.setdefault((v, i), [])
            while True:
                d = cursor.peek()
                if d is None:
                    self.active = None
                    break
                u, _ = cursor.settle_next()
                counts[u] += 1
                contrib.append(u)
                if counts[u] == k:
                    r_hat = self._active_rank / norm
                    return u, (k - 1) / r_hat / g.ell

    def _cover(self, x: int) -> float:
        """Add x as a seed: update residual distances, count newly covered
        pairs, and delete their sketch contributions.  A paused cursor whose
        pair gets covered is dropped by `_select`."""
        inst, node, old, new = residual_update(self.g, self.covered, x, self.T)
        self.covered[inst, node] = new
        fresh = old == INF
        counts = self.counts
        for i, v in zip(inst[fresh].tolist(), node[fresh].tolist()):
            for u in self.contributors.pop((v, i), ()):
                counts[u] -= 1
        gained = int(fresh.sum())
        self.n_covered += gained
        self.seeds.append(x)
        return gained / self.g.ell


def run_threshold_im(
    g: MultiInstanceGraph, T: float, k: int, s_max: int, seed: int = 0
) -> GreedyTrace:
    """Approximate greedy sequence for threshold influence.

    Returns a trace of (seed, exact marginal, estimated marginal); stops at
    s_max seeds or full coverage, whichever comes first.
    """
    if s_max > g.n:
        raise ValueError("s_max exceeds node count")
    state = ThresholdState(g, T, k, seed)
    trace = GreedyTrace()
    timings = []
    total_pairs = g.n * g.ell
    while len(trace) < s_max and state.n_covered < total_pairs:
        t0 = time.perf_counter()
        pick = state._select()
        if pick is None:
            break
        x, est = pick
        exact = state._cover(x)
        trace.append(x, exact, est)
        timings.append(time.perf_counter() - t0)
    trace.metadata["per_seed_sec"] = timings
    trace.metadata["pairs_covered"] = state.n_covered
    return trace
