"""Seeded input generators for the benchmark.

Every input of a run is a pure function of the workload seed and the draw
number.  The generators build topologies only; edge lengths come from the
program's own exponential mean-1 model when instances are sampled, because
that sampling is part of the set-up being measured.
"""

from __future__ import annotations

import numpy as np


def draw_seeds(seed: int, draw: int) -> dict[str, int]:
    """Independent integer seeds for the named random streams of one draw."""
    names = ("topology", "lengths", "ranks", "queries")
    state = np.random.SeedSequence([seed, draw]).generate_state(len(names))
    # the CLI adds 1 to its seed for held-out instances; stay far below 2**31
    return {name: int(s) >> 2 for name, s in zip(names, state)}


def relabel_by_first_appearance(tails: np.ndarray, heads: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Renumber nodes in order of first appearance in the edge sequence.

    `load_edge_list` numbers nodes the same way, so after this relabeling the
    labels written to an edge list equal the dense indices the program uses,
    and checks hold whether the program reports labels or indices.
    """
    seq = np.column_stack([tails, heads]).ravel()
    nodes, first = np.unique(seq, return_index=True)
    order = nodes[np.argsort(first)]
    index = np.empty(int(seq.max()) + 1, dtype=np.int64)
    index[order] = np.arange(len(order))
    return len(order), index[tails], index[heads]


def uniform_digraph(n: int, avg_deg: float, rng: np.random.Generator) -> tuple[int, np.ndarray, np.ndarray]:
    """Uniform sparse random digraph: avg_deg * n distinct edges, no self-loops."""
    m = int(avg_deg * n)
    tails = np.empty(0, dtype=np.int64)
    heads = np.empty(0, dtype=np.int64)
    while len(tails) < m:
        t = np.concatenate([tails, rng.integers(0, n, 2 * m)])
        h = np.concatenate([heads, rng.integers(0, n, 2 * m)])
        keep = t != h
        t, h = t[keep], h[keep]
        _, first = np.unique(t * n + h, return_index=True)
        first.sort()
        tails, heads = t[first], h[first]
    return relabel_by_first_appearance(tails[:m], heads[:m])


def zipf_digraph(
    n: int, avg_deg: float, rng: np.random.Generator, exponent: float = 0.9
) -> tuple[int, np.ndarray, np.ndarray]:
    """Digraph with a Zipf out-degree profile: a few hubs of very high out-degree.

    The profile (degree proportional to 1 / rank**exponent, scaled to about
    avg_deg * n edges) is fixed, so every seed yields the same degree
    sequence; the seed chooses which node holds which degree, the heads and
    the edge order.  This keeps the run time of one draw close to that of
    another while the graphs themselves differ.
    """
    weight = 1.0 / np.arange(1, n + 1) ** exponent
    degree = np.minimum(np.rint(weight / weight.sum() * avg_deg * n).astype(np.int64), n - 1)
    degree = degree[rng.permutation(n)]
    tails, heads = [], []
    for u in np.flatnonzero(degree).tolist():
        h = rng.choice(n - 1, int(degree[u]), replace=False)
        h[h >= u] += 1  # skip the self-loop
        tails.append(np.full(len(h), u, dtype=np.int64))
        heads.append(h)
    t, h = np.concatenate(tails), np.concatenate(heads)
    order = rng.permutation(len(t))
    return relabel_by_first_appearance(t[order], h[order])


def write_edge_list(path: str, tails: np.ndarray, heads: np.ndarray) -> None:
    """Unweighted "tail head" lines, one edge per line."""
    with open(path, "w") as fh:
        fh.writelines(f"{t} {h}\n" for t, h in zip(tails.tolist(), heads.tolist()))
