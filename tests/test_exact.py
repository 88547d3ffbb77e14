import math

import numpy as np
import pytest

from distinf import (
    MultiInstanceGraph,
    ResidualState,
    add_seed,
    evaluate_prefixes,
    greedy_dense,
    influence_exact,
    lazy_greedy,
    make_exponential,
    make_harmonic,
    make_threshold,
    marg_gain,
)
from distinf.exact import _marg_gain_delta, _singleton_gains

from bruteforce import influence_bf, marg_gain_bf, random_graph, residual_delta_bf, skewed_graph

INF = math.inf


def line_graph():
    return MultiInstanceGraph.from_arrays(3, [0, 1], [1, 2])


# influence_exact ------------------------------------------------------------


def test_influence_line_harmonic():
    assert influence_exact(line_graph(), [0], make_harmonic(1)) == pytest.approx(11 / 6)


def test_influence_line_threshold():
    assert influence_exact(line_graph(), [0], make_threshold(1.5)) == pytest.approx(2.0)


def test_influence_averages_over_instances():
    # second instance effectively edgeless: infinite length never reaches b
    g = MultiInstanceGraph.from_arrays(2, [0], [1], weights=[[1.0], [math.inf]])
    assert influence_exact(g, [0], make_harmonic(1)) == pytest.approx(1.25)


def test_influence_empty_seed_set_is_zero():
    assert influence_exact(line_graph(), [], make_harmonic(1)) == 0.0


def test_influence_rejects_duplicates():
    with pytest.raises(ValueError):
        influence_exact(line_graph(), [0, 0], make_harmonic(1))


# marg_gain / add_seed -------------------------------------------------------


def test_marg_gain_after_first_seed():
    g = line_graph()
    h = make_harmonic(1)
    res = ResidualState(g)
    add_seed(g, res, 0, h)
    assert marg_gain(g, res, 1, h) == pytest.approx(2 / 3)
    assert marg_gain(g, res, 2, h) == pytest.approx(2 / 3)
    assert marg_gain(g, res, 0, h) == 0.0


def test_add_seed_returns_realized_gain():
    g = line_graph()
    h = make_harmonic(1)
    res = ResidualState(g)
    assert add_seed(g, res, 0, h) == pytest.approx(11 / 6)
    assert list(res.delta[0]) == [0.0, 1.0, 2.0]
    assert add_seed(g, res, 1, h) == pytest.approx(2 / 3)
    assert list(res.delta[0]) == [0.0, 0.0, 1.0]


def test_add_seed_isolated_node_counts_itself():
    g = MultiInstanceGraph.from_arrays(3, [0], [1], weights=[[1.0], [1.0]])
    res = ResidualState(g)
    assert add_seed(g, res, 2, make_harmonic(1)) == pytest.approx(1.0)


def test_add_seed_rejects_duplicate():
    g = line_graph()
    res = ResidualState(g)
    add_seed(g, res, 0, make_harmonic(1))
    with pytest.raises(ValueError):
        add_seed(g, res, 0, make_harmonic(1))


def test_marg_gain_equals_influence_difference():
    rng = np.random.default_rng(3)
    for seed in range(10):
        g = random_graph(25, 3, seed=seed, ell=2)
        alpha = [make_harmonic(1), make_threshold(0.8), make_harmonic(5)][seed % 3]
        seeds = list(rng.choice(25, size=rng.integers(1, 4), replace=False))
        res = ResidualState(g)
        for s in seeds:
            add_seed(g, res, s, alpha)
        u = int(rng.integers(25))
        while u in seeds:
            u = int(rng.integers(25))
        want = influence_bf(g, seeds + [u], alpha) - influence_bf(g, seeds, alpha)
        assert marg_gain(g, res, u, alpha) == pytest.approx(want, abs=1e-9)


def test_residual_matches_bruteforce_distances():
    for seed in range(5):
        g = random_graph(30, 3, seed=seed, ell=2)
        alpha = make_threshold(1.0)
        res = ResidualState(g)
        for s in (1, 5, 9):
            add_seed(g, res, s, alpha)
        want = residual_delta_bf(g, [1, 5, 9], alpha)
        assert np.allclose(res.delta, want, equal_nan=False)


# lazy greedy ----------------------------------------------------------------


def test_lazy_greedy_line_harmonic():
    trace = lazy_greedy(line_graph(), make_harmonic(1), 3)
    assert trace.seeds() == [0, 1, 2]
    assert trace.marginals() == pytest.approx([11 / 6, 2 / 3, 1 / 2])


def test_lazy_greedy_threshold_tie_breaks_low_index():
    trace = lazy_greedy(line_graph(), make_threshold(1.5), 1)
    assert trace.seeds() == [0]
    assert trace.marginals() == pytest.approx([2.0])


def test_full_greedy_covers_everything():
    g = random_graph(15, 2, seed=4, ell=2)
    trace = lazy_greedy(g, make_threshold(0.5), 15)
    assert trace.total() == pytest.approx(15.0)


def test_greedy_telescopes_and_is_submodular():
    for seed in range(4):
        g = random_graph(30, 3, seed=seed, ell=2)
        alpha = make_harmonic(2)
        trace = lazy_greedy(g, alpha, 8)
        marg = trace.marginals()
        assert all(a >= b - 1e-12 for a, b in zip(marg, marg[1:]))
        for s in (1, 4, 8):
            assert sum(marg[:s]) == pytest.approx(
                influence_exact(g, trace.seeds()[:s], alpha), abs=1e-9
            )


def test_greedy_dense_matches_lazy_greedy():
    for seed in range(5):
        g = random_graph(40, 3, seed=seed, ell=3)
        for alpha in (make_harmonic(3), make_threshold(1.0)):
            a = lazy_greedy(g, alpha, 10)
            b = greedy_dense(g, alpha, 10)
            assert a.seeds() == b.seeds()
            assert a.marginals() == pytest.approx(b.marginals(), abs=1e-9)


def test_singleton_gains_match_per_node_search():
    for seed in range(3):
        for g in (random_graph(40, 3, seed=seed, ell=3), skewed_graph(40, 3, seed, 3)):
            delta = np.full((g.ell, g.n), INF)
            for alpha in (make_harmonic(3), make_threshold(1.0), make_exponential(2)):
                want = [_marg_gain_delta(g, delta, u, alpha) / g.ell for u in range(g.n)]
                np.testing.assert_allclose(_singleton_gains(g, alpha), want, rtol=1e-12, atol=0)


def test_greedy_first_marginal_is_best_singleton():
    g = random_graph(30, 3, seed=9, ell=2)
    alpha = make_harmonic(1)
    trace = lazy_greedy(g, alpha, 1)
    best = max(influence_bf(g, [u], alpha) for u in range(30))
    assert trace.marginals()[0] == pytest.approx(best, abs=1e-9)


def test_evaluate_prefixes_matches_exact():
    g = random_graph(25, 3, seed=6, ell=2)
    alpha = make_harmonic(1)
    seeds = [3, 17, 8]
    got = evaluate_prefixes(g, seeds, alpha)
    want = [influence_exact(g, seeds[: s + 1], alpha) for s in range(3)]
    assert got == pytest.approx(want, abs=1e-9)


def test_trace_csv_roundtrip(tmp_path):
    trace = lazy_greedy(line_graph(), make_harmonic(1), 2)
    path = tmp_path / "trace.csv"
    trace.to_csv(str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "rank,seed,exact_marginal,estimated_marginal"
    assert lines[1].startswith("1,0,")
    assert len(lines) == 3
