import math

import numpy as np
import pytest

from distinf import (
    MultiInstanceGraph,
    influence_exact,
    lazy_greedy,
    make_threshold,
    run_threshold_im,
)

from bruteforce import gapped_and_tied, random_graph, residual_delta_bf

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
    from distinf.threshold_im import ThresholdState

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


def test_sketch_counts_reflect_uncovered_pairs_only():
    from distinf.threshold_im import ThresholdState

    g = random_graph(25, 3, seed=7, ell=2)
    state = ThresholdState(g, T=0.8, k=5, seed=1)
    for _ in range(3):
        pick = state._select()
        if pick is None:
            break
        state._cover(pick[0])
    # recompute counts from scratch: processed uncovered pairs whose reverse
    # ball reaches u within T
    for (v, i), contrib in state.contributors.items():
        assert state.covered[i, v] > state.T or not contrib


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
