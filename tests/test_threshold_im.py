import math

import numpy as np
import pytest

from distinf import (
    MultiInstanceGraph,
    graph,
    influence_exact,
    lazy_greedy,
    make_threshold,
    run_threshold_im,
)
from distinf.sketch import structured_ranks
from distinf.threshold_im import ThresholdState

from bruteforce import (
    absorbing_graph,
    gapped_and_tied,
    random_graph,
    residual_delta_bf,
    reverse_ball_bf,
    skewed_graph,
    tskim_bf,
)

INF = math.inf


def line_graph():
    return MultiInstanceGraph.from_arrays(3, [0, 1], [1, 2])


def test_line_graph_first_seed_via_endgame():
    # k larger than any count: the rank pool runs out, max count (tie a vs b)
    # breaks to the lower index; a covers itself and b
    trace = run_threshold_im(line_graph(), T=1.5, k=100, s_max=3, seed=0)
    assert trace.seeds()[0] == 0
    assert trace.marginals()[0] == pytest.approx(2.0)


def test_line_graph_residual_after_first_seed():
    trace = run_threshold_im(line_graph(), T=1.5, k=100, s_max=3, seed=0)
    # only the pair (c) remains; the second seed covers it exactly
    assert trace.marginals()[1] == pytest.approx(1.0)
    assert trace.total() == pytest.approx(3.0)


def test_full_coverage_sums_to_n():
    for seed in range(3):
        g = random_graph(30, 3, seed=seed, ell=2)
        trace = run_threshold_im(g, T=0.8, k=4, s_max=30, seed=seed)
        assert trace.total() == pytest.approx(30.0)


def test_validation():
    g = line_graph()
    with pytest.raises(ValueError):
        run_threshold_im(g, T=0.0, k=8, s_max=1)
    with pytest.raises(ValueError):
        run_threshold_im(g, T=1.0, k=2, s_max=1)
    with pytest.raises(ValueError):
        run_threshold_im(g, T=1.0, k=8, s_max=4)


def test_marginals_match_exact_prefix_influence():
    # per-seed exact marginals telescope to the exact influence of the prefix,
    # also when instances lack edges or distances tie
    for seed in range(4):
        base = random_graph(40, 3, seed=seed, ell=4)
        for g in [base, *gapped_and_tied(base, seed)]:
            trace = run_threshold_im(g, T=0.7, k=8, s_max=10, seed=seed)
            alpha = make_threshold(0.7)
            for s in (1, 5, len(trace)):
                assert sum(trace.marginals()[:s]) == pytest.approx(
                    influence_exact(g, trace.seeds()[:s], alpha), abs=1e-9
                )


def test_covered_distances_match_bruteforce():
    for seed in range(4):
        base = random_graph(40, 3, seed=seed, ell=2)
        for g in [base, *gapped_and_tied(base, seed)]:
            state = ThresholdState(g, T=0.9, k=6, seed=seed)
            alpha = make_threshold(0.9)
            seeds = []
            for _ in range(6):
                pick = state._select()
                if pick is None:
                    break
                x, _ = pick
                state._cover(x)
                seeds.append(x)
                want = residual_delta_bf(g, seeds, alpha)
                assert np.allclose(state.covered, want)


def trace_tuples(trace):
    return [(e.seed, e.exact_marginal, e.estimated_marginal) for e in trace.entries]


def tskim_cases():
    """Small graphs with sampled, gapped (infinite) and tied lengths, and
    graphs where a length is absorbed (d + w == d)."""
    for seed in range(3):
        for base in (random_graph(30, 3, seed=seed, ell=3), skewed_graph(30, 3, seed, 3)):
            yield seed, base
            for g in gapped_and_tied(base, seed):
                yield seed, g
        yield seed, absorbing_graph(seed, ell=1)
        yield seed, absorbing_graph(seed, ell=2)


@pytest.mark.parametrize("rows", [1, 7, None])
def test_traces_equal_bruteforce_tskim(monkeypatch, rows):
    # rows: pairs per batch of reverse balls (None: the module's block size)
    for seed, g in tskim_cases():
        if rows is not None:
            monkeypatch.setattr(graph, "_BLOCK_CELLS", rows * g.n)
        ranks = structured_ranks(g.n, g.ell, g.ell, seed)
        for T in (0.5, 1.0, 3.0):
            for k in (3, 5):
                want, covered, balls = tskim_bf(g, ranks, T, k, 12)
                trace = run_threshold_im(g, T, k, 12, seed=seed)
                assert trace_tuples(trace) == want
                assert trace.metadata["pairs_covered"] == covered
                if rows == 1:  # one pair per batch: exactly the pairs that start
                    assert trace.metadata["pairs_searched"] == len(balls)
                    assert trace.metadata["ball_entries"] == sum(balls)


def test_delta_updates_count_the_residual_cells_each_seed_lowers():
    for seed, g in list(tskim_cases())[:8]:
        for T in (0.5, 3.0):
            trace = run_threshold_im(g, T, 3, 8, seed=seed)
            seeds = trace.seeds()
            steps = [residual_delta_bf(g, seeds[:s], make_threshold(T)) for s in range(len(seeds) + 1)]
            lowered = sum(int((before != after).sum()) for before, after in zip(steps, steps[1:]))
            assert trace.metadata["delta_updates_total"] == lowered > 0


def test_search_counts_on_line_graph():
    # one batch holds all three pairs: a's ball is {a}, b's {b, a} and c's
    # {c, b}, as a is 2 > T away from c
    trace = run_threshold_im(line_graph(), T=1.5, k=100, s_max=3, seed=0)
    assert trace.metadata["pairs_searched"] == 3
    assert trace.metadata["ball_entries"] == 5


def test_search_counts_bound_wasted_balls(monkeypatch):
    # a batch searches uncovered pairs ahead of their turn; the pairs it
    # searches are never fewer than the pairs that start, and its balls
    # never hold more than one block of entries
    g = random_graph(40, 3, seed=5, ell=4)
    ranks = structured_ranks(g.n, g.ell, g.ell, 5)
    _, _, balls = tskim_bf(g, ranks, 1.0, 6, 20)
    monkeypatch.setattr(graph, "_BLOCK_CELLS", 7 * g.n)
    state = ThresholdState(g, T=100.0, k=6, seed=5)
    state._next_batch()
    assert state._ball.size <= 7 * g.n and state.pairs_searched == 7
    trace = run_threshold_im(g, T=1.0, k=6, s_max=20, seed=5)
    assert trace.metadata["pairs_searched"] >= len(balls)
    assert trace.metadata["ball_entries"] >= sum(balls)


def test_sketch_counts_reflect_uncovered_pairs_only():
    # after every step, the counts are the hits of the uncovered pairs that
    # scanned, and each such pair's hits are a prefix of its reverse ball
    for seed in range(3):
        g = random_graph(25, 3, seed=7 + seed, ell=2)
        state = ThresholdState(g, T=0.8, k=5, seed=seed)
        for _ in range(6):
            pick = state._select()
            if pick is None:
                break
            for pair, hits in state.contributions.items():
                i, v = divmod(pair, g.n)
                assert state.covered[i, v] > state.T
                assert hits.tolist() == [u for u, _ in reverse_ball_bf(g, i, v, state.T)][: hits.size]
            hits = np.concatenate([np.zeros(0, dtype=np.int64), *state.contributions.values()])
            assert np.array_equal(state.counts, np.bincount(hits, minlength=g.n))
            state._cover(pick[0])


def test_estimated_influence_close_to_exact_at_large_k():
    g = random_graph(150, 4, seed=3, ell=4)
    trace = run_threshold_im(g, T=0.8, k=64, s_max=5, seed=2)
    for e in trace.entries:
        assert e.estimated_marginal == pytest.approx(e.exact_marginal, rel=0.5)


def test_quality_close_to_exact_greedy_smoke():
    g = random_graph(100, 4, seed=9, ell=4)
    T = 0.8
    approx = run_threshold_im(g, T, k=64, s_max=10, seed=4)
    exact = lazy_greedy(g, make_threshold(T), 10)
    got = np.cumsum(approx.marginals()[:10])
    want = np.cumsum(exact.marginals()[:10])
    assert (got >= 0.9 * want).all()
