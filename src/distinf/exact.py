"""Exact influence evaluation, the residual problem, and the exact greedy baseline.

Influence of a seed set is the per-instance sum of decayed distances from the
set, averaged over instances.  The residual problem keeps, per node-instance
pair, the best distance delta from the current seed set; influence in the
residual problem equals marginal influence in the original one, which is what
the greedy selection needs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .decay import DecayFunction
from .graph import MultiInstanceGraph, distance_rows, residual_update, source_blocks

INF = math.inf


@dataclass
class TraceEntry:
    seed: int
    exact_marginal: float
    estimated_marginal: float | None = None


class GreedyTrace:
    """Seed sequence with exact (and optionally estimated) marginal influences."""

    def __init__(self):
        self.entries: list[TraceEntry] = []
        self.metadata: dict = {}

    def append(self, seed: int, exact: float, estimated: float | None = None) -> None:
        self.entries.append(
            TraceEntry(int(seed), float(exact), None if estimated is None else float(estimated))
        )

    def seeds(self) -> list[int]:
        return [e.seed for e in self.entries]

    def marginals(self) -> list[float]:
        return [e.exact_marginal for e in self.entries]

    def prefix_influences(self) -> list[float]:
        out, tot = [], 0.0
        for e in self.entries:
            tot += e.exact_marginal
            out.append(tot)
        return out

    def total(self) -> float:
        return sum(e.exact_marginal for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def to_csv(self, path: str, labels: list[str] | None = None) -> None:
        with open(path, "w") as fh:
            self.write_csv(fh, labels)

    def write_csv(self, fh: TextIO, labels: list[str] | None = None) -> None:
        """Write the trace as CSV rows to an open text file."""
        fh.write("rank,seed,exact_marginal,estimated_marginal\n")
        for rank, e in enumerate(self.entries, start=1):
            seed = labels[e.seed] if labels is not None else e.seed
            est = "" if e.estimated_marginal is None else repr(e.estimated_marginal)
            fh.write(f"{rank},{seed},{e.exact_marginal!r},{est}\n")


class ResidualState:
    """Best distance from the seed set per (instance, node); inf if unreached
    or beyond the decay support bound."""

    def __init__(self, g: MultiInstanceGraph):
        self.g = g
        self.delta = np.full((g.ell, g.n), INF)
        self.seeds: list[int] = []


def _check_seed_set(g: MultiInstanceGraph, seeds) -> list[int]:
    seeds = list(seeds)
    if len(set(seeds)) != len(seeds):
        raise ValueError("duplicate seeds")
    for s in seeds:
        if not (0 <= s < g.n):
            raise ValueError(f"seed {s} out of range")
    return seeds


def influence_exact(g: MultiInstanceGraph, seeds, alpha: DecayFunction) -> float:
    """Average over instances of the summed decayed distance from the seed set:
    the last prefix influence of `evaluate_prefixes`."""
    prefixes = evaluate_prefixes(g, seeds, alpha)
    return prefixes[-1] if prefixes else 0.0


def _marg_gain_delta(g: MultiInstanceGraph, delta: np.ndarray, u: int, alpha: DecayFunction) -> float:
    """Summed positive contributions of u against the delta distances (not normalized).

    The one forward heap search left in Python, kept off the batched kernel on
    purpose: a CELF re-evaluation improves only a few cells, so the kernel's
    fixed numpy cost per round outweighs the search.  On `residual_update`,
    the exact-greedy benchmark's solve time (n=200, ell=8, 20 seeds, 2-core
    Xeon VM) rose from 0.233 to 0.278 s.
    """
    support = alpha.support_bound
    fn = alpha.fn
    total = 0.0
    for i, inst in enumerate(g.instances):
        adj = inst.adj
        drow = delta[i]
        dist: dict[int, float] = {}
        heap = [(0.0, u)]
        push, pop = heapq.heappush, heapq.heappop
        while heap:
            d, v = pop(heap)
            if v in dist:
                continue
            if d > support:
                break
            dist[v] = d
            dv = drow[v]
            if d < dv:
                total += fn(d) - (fn(dv) if dv < INF else 0.0)
                for w_node, w in adj[v]:
                    if w_node not in dist:
                        push(heap, (d + w, w_node))
            # d >= delta: settled but not relaxed; contribution is 0
    return total


def marg_gain(g: MultiInstanceGraph, residual: ResidualState, u: int, alpha: DecayFunction) -> float:
    """Marginal influence of u given the residual distances."""
    return _marg_gain_delta(g, residual.delta, u, alpha) / g.ell


def add_seed(g: MultiInstanceGraph, residual: ResidualState, u: int, alpha: DecayFunction) -> float:
    """Add u to the seed set, updating delta; returns the realized marginal gain.

    Distances beyond the decay support are left at inf, which is equivalent
    for every influence quantity.
    """
    if u in residual.seeds:
        raise ValueError(f"node {u} is already a seed")
    inst, node, old, new = residual_update(g, residual.delta, u, alpha.support_bound)
    residual.delta[inst, node] = new
    residual.seeds.append(u)
    return float((alpha.eval_array(new) - alpha.eval_array(old)).sum()) / g.ell


def _singleton_gains(g: MultiInstanceGraph, alpha: DecayFunction) -> np.ndarray:
    """Influence of every single node, from batched distance rows block by block."""
    gains = np.zeros(g.n)
    for i in range(g.ell):
        for blk in source_blocks(g.n):
            rows = distance_rows(g, i, blk, alpha.support_bound)
            gains[blk.start:blk.stop] += alpha.eval_array(rows).sum(axis=1)
    return gains / g.ell


def lazy_greedy(g: MultiInstanceGraph, alpha: DecayFunction, s_max: int) -> GreedyTrace:
    """Exact greedy sequence with lazy marginal re-evaluation.

    The first-round singleton influences come from one batched distance pass.
    A stale top-of-queue candidate is re-evaluated and accepted only if its
    fresh marginal is at least the current queue maximum.  Ties break to the
    lowest node index.
    """
    if s_max > g.n:
        raise ValueError("s_max exceeds node count")
    residual = ResidualState(g)
    trace = GreedyTrace()
    heap = [(-gain, u, 0) for u, gain in enumerate(_singleton_gains(g, alpha).tolist())]
    heapq.heapify(heap)
    while len(trace) < s_max and heap:
        neg, u, fresh = heapq.heappop(heap)
        if fresh != len(residual.seeds):
            gain = marg_gain(g, residual, u, alpha)
            # accept only at the queue maximum; equal-value ties go to the
            # lowest node index via the heap order
            if heap and (-gain, u) > heap[0][:2]:
                heapq.heappush(heap, (-gain, u, len(residual.seeds)))
                continue
        exact = add_seed(g, residual, u, alpha)
        trace.append(u, exact)
    return trace


def evaluate_prefixes(g: MultiInstanceGraph, seeds, alpha: DecayFunction) -> list[float]:
    """Exact influence of every prefix of a seed list, one `add_seed` per seed."""
    seeds = _check_seed_set(g, seeds)
    residual = ResidualState(g)
    out, tot = [], 0.0
    for s in seeds:
        tot += add_seed(g, residual, s, alpha)
        out.append(tot)
    return out
