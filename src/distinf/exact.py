"""Exact influence evaluation, the residual problem, and the exact greedy baseline.

Influence of a seed set is the per-instance sum of decayed distances from the
set, averaged over instances.  The residual problem keeps, per node-instance
pair, the best distance delta from the current seed set; influence in the
residual problem equals marginal influence in the original one, which is what
the greedy selection needs.

Every distance here comes from the batched kernel of `graph.distance_rows`:
the singleton pass, `influence_exact` (rows started from the whole seed
set), each seed commit (`add_seed`, via `residual_update`) and the lazy
greedy's re-evaluations, which score a batch of stale candidates in one
pass over (instance, candidate) rows started from the residual.
"""

from __future__ import annotations

import csv
import heapq
import math
import time
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .decay import DecayFunction
from .graph import MultiInstanceGraph, _improve_rows, _lowered, distance_rows, residual_update, source_blocks

INF = math.inf

# Stale candidates that one lazy-greedy step re-evaluates in one kernel pass.
# A pass pays a fixed numpy cost per round, shared by the batch, and a cost
# per cell, ell * n per candidate, also for candidates a smaller batch would
# never have scored.  Timing the CELF loop after the singleton pass (20
# seeds, medians, 2-core Xeon VM, Delta-stepping kernel): zipf n=200, ell=8,
# harmonic:10 took 0.044 s at 8 against 0.134 s at 1, 0.061 s at 4 and
# 0.040 s at 16; skewed n=2000, ell=16, exp:10 took 0.18 s at 8 against
# 0.15 s at 1, 0.27 s at 16 and 0.32 s at 32.  8 is within 16% of the best
# batch on both; the Bellman-Ford-order kernel gave the same picture.
_BATCH = 8


@dataclass
class TraceEntry:
    seed: int
    exact_marginal: float
    estimated_marginal: float | None = None


class GreedyTrace:
    """Seed sequence with exact (and optionally estimated) marginal influences.

    `metadata["per_seed_sec"]` holds, per entry, the seconds since the
    previous append, or since the trace was created for the first entry.
    """

    def __init__(self):
        self.entries: list[TraceEntry] = []
        self.metadata: dict = {"per_seed_sec": []}
        self._clock = time.perf_counter()

    def append(self, seed: int, exact: float, estimated: float | None = None) -> None:
        self.entries.append(
            TraceEntry(int(seed), float(exact), None if estimated is None else float(estimated))
        )
        now = time.perf_counter()
        self.metadata["per_seed_sec"].append(now - self._clock)
        self._clock = now

    def seeds(self) -> list[int]:
        return [e.seed for e in self.entries]

    def marginals(self) -> list[float]:
        return [e.exact_marginal for e in self.entries]

    def total(self) -> float:
        return sum(e.exact_marginal for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def to_csv(self, path: str, labels: list[str] | None = None) -> None:
        with open(path, "w") as fh:
            self.write_csv(fh, labels)

    def write_csv(self, fh: TextIO, labels: list[str] | None = None) -> None:
        """Write the trace as CSV rows to an open text file, quoting labels that need it."""
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["rank", "seed", "exact_marginal", "estimated_marginal"])
        for rank, e in enumerate(self.entries, start=1):
            seed = labels[e.seed] if labels is not None else e.seed
            est = "" if e.estimated_marginal is None else repr(e.estimated_marginal)
            out.writerow([rank, seed, repr(e.exact_marginal), est])


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
    """Average over instances of the summed decayed distance from the seed set.

    One kernel call per instance block, each row started from the whole set.
    """
    seeds = _check_seed_set(g, seeds)
    if not seeds:
        return 0.0
    total = 0.0
    for blk in source_blocks(g.n, g.ell):
        # [seeds] is one (1, s) row of sources, shared by every instance row
        total += float(alpha.eval_array(distance_rows(g, blk, [seeds], alpha.support_bound)).sum())
    return total / g.ell


def _gain_sums(g: MultiInstanceGraph, delta: np.ndarray, candidates, alpha: DecayFunction) -> np.ndarray:
    """Per candidate, the summed positive contributions against the (ell, n)
    residual distances delta, not normalized.

    One kernel pass per row block over the rows (instance, candidate), each
    started from the instance's residual row and bounded by the decay
    support: a row comes back as the residual after adding the candidate,
    and its gain sums alpha(new) - alpha(old) over the cells it improves.
    """
    cands = np.asarray(candidates, dtype=np.int64)
    ell = g.ell
    inst = np.tile(np.arange(ell), cands.size)
    src = np.repeat(cands, ell)
    gains = np.zeros(cands.size)
    for blk in source_blocks(g.n, src.size):
        old = delta[inst[blk.start:blk.stop]]
        new, fronts = _improve_rows(g, inst[blk.start:blk.stop], src[blk.start:blk.stop], alpha.support_bound, old)
        row, node = np.divmod(_lowered(fronts), g.n)  # row-major: the sums add in a fixed order
        terms = alpha.eval_array(new[row, node]) - alpha.eval_array(old[row, node])
        gains += np.bincount((row + blk.start) // ell, weights=terms, minlength=cands.size)
    return gains


def marg_gain(g: MultiInstanceGraph, residual: ResidualState, candidates, alpha: DecayFunction) -> list[float]:
    """Marginal influence of each candidate given the residual distances,
    from one batched kernel pass."""
    return (_gain_sums(g, residual.delta, candidates, alpha) / g.ell).tolist()


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
    """Exact greedy sequence with lazy (CELF) marginal re-evaluation.

    The first-round singleton influences come from one batched distance pass.
    Queue entries carry the seed count at which their gain was computed.
    While the top entry is stale, up to `_BATCH` stale entries are popped,
    re-evaluated in one `marg_gain` call and pushed back fresh; a fresh top
    entry is accepted.  Stale gains only overestimate (submodularity), so
    the accepted node has the largest marginal; ties break to the lowest
    node index through the queue order.  The trace's metadata holds the
    seconds spent on each seed (`per_seed_sec`; the first includes the
    singleton pass) and the number of stale candidates re-evaluated
    (`candidates_scored`).
    """
    if not 0 <= s_max <= g.n:
        raise ValueError(f"seed count must be in [0, {g.n}], got {s_max}")
    residual = ResidualState(g)
    trace = GreedyTrace()
    scored = 0
    heap = [(-gain, u, 0) for u, gain in enumerate(_singleton_gains(g, alpha).tolist())]
    heapq.heapify(heap)
    while len(trace) < s_max and heap:
        fresh = len(residual.seeds)
        if heap[0][2] == fresh:
            u = heapq.heappop(heap)[1]
            trace.append(u, add_seed(g, residual, u, alpha))
            continue
        stale = []
        while heap and heap[0][2] != fresh and len(stale) < _BATCH:
            stale.append(heapq.heappop(heap)[1])
        scored += len(stale)
        for u, gain in zip(stale, marg_gain(g, residual, stale, alpha)):
            heapq.heappush(heap, (-gain, u, fresh))
    trace.metadata["candidates_scored"] = scored
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
