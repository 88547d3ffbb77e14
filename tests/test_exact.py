import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distinf import (
    EdgeLengthModel,
    MultiInstanceGraph,
    ResidualState,
    add_seed,
    evaluate_prefixes,
    influence_exact,
    lazy_greedy,
    make_exponential,
    make_harmonic,
    make_threshold,
    marg_gain,
    sample_instances,
    truncate,
)
from distinf import graph
from distinf.exact import _marg_gain_delta, _singleton_gains

from bruteforce import greedy_bf, influence_bf, marg_gain_bf, random_graph, residual_delta_bf, skewed_graph

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


def test_lazy_greedy_matches_plain_greedy():
    for seed in range(5):
        g = random_graph(40, 3, seed=seed, ell=3)
        for alpha in (make_harmonic(3), make_threshold(1.0)):
            trace = lazy_greedy(g, alpha, 10)
            seeds, marginals = greedy_bf(g, alpha, 10)
            assert trace.seeds() == seeds
            assert trace.marginals() == pytest.approx(marginals, abs=1e-9)


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


DECAYS = {
    "threshold": make_threshold(1.0),
    "exp": make_exponential(1.5),
    "harmonic": make_harmonic(2.0),
    "truncated": truncate(make_exponential(1.0), 0.2),
}


@st.composite
def prefix_cases(draw, max_n=10):
    """Small graphs with sinks, unit (tied) or random lengths, and a seed list."""
    n = draw(st.integers(1, max_n))
    pairs = [(t, h) for t in range(n) for h in range(n) if t != h]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n)) if pairs else []
    ell = draw(st.integers(1, 3))
    if draw(st.booleans()):
        weights = np.ones((ell, len(edges)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        weights = rng.exponential(1.0, (ell, len(edges))) + 1e-3
    g = MultiInstanceGraph.from_arrays(n, [t for t, _ in edges], [h for _, h in edges], weights)
    seeds = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    return g, seeds, draw(st.sampled_from(sorted(DECAYS)))


@settings(max_examples=150, deadline=None)
@given(prefix_cases())
def test_evaluate_prefixes_matches_bruteforce(case):
    g, seeds, name = case
    alpha = DECAYS[name]
    got = evaluate_prefixes(g, seeds, alpha)
    assert len(got) == len(seeds)
    for s, value in enumerate(got, start=1):
        assert value == pytest.approx(influence_bf(g, seeds[:s], alpha), rel=1e-9, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(prefix_cases(max_n=12))
def test_residual_update_matches_bruteforce(case):
    g, seeds, name = case
    alpha = DECAYS[name]
    delta = np.full((g.ell, g.n), INF)
    for s in range(1, len(seeds) + 1):
        before = delta.copy()
        inst, node, old, new = graph.residual_update(g, delta, seeds[s - 1], alpha.support_bound)
        assert np.array_equal(delta, before)  # reported, not applied
        assert (new < old).all() and np.array_equal(old, before[inst, node])
        keys = list(zip(inst.tolist(), new.tolist(), node.tolist()))
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        delta[inst, node] = new
        want = residual_delta_bf(g, seeds[:s], alpha)
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(delta), finite)
        assert np.array_equal(delta[finite], want[finite])
        assert np.count_nonzero(delta != before) == len(inst)


def _kernel_residual(g, seeds, alpha):
    delta = np.full((g.ell, g.n), INF)
    for s in seeds:
        delta = graph.distance_rows(g, range(g.ell), s, alpha.support_bound, start=delta)
    return delta


def test_kernel_residual_equals_add_seed_delta():
    for seed in range(4):
        for g in (random_graph(40, 2, seed=seed, ell=3), skewed_graph(40, 3, seed, 2),
                  random_graph(30, 1.5, seed=seed, ell=2, model=EdgeLengthModel.unit())):
            seeds = np.random.default_rng(seed).permutation(g.n)[:12].tolist()
            for alpha in (make_threshold(1.0), make_harmonic(2), truncate(make_exponential(1), 0.3)):
                residual = ResidualState(g)
                for s in seeds:
                    add_seed(g, residual, s, alpha)
                assert np.array_equal(_kernel_residual(g, seeds, alpha), residual.delta)


def test_evaluate_prefixes_split_into_instance_blocks(monkeypatch):
    g = random_graph(30, 3, seed=4, ell=7)
    seeds = [5, 11, 2, 29, 17]
    whole = {name: evaluate_prefixes(g, seeds, alpha) for name, alpha in DECAYS.items()}
    monkeypatch.setattr(graph, "_BLOCK_CELLS", 2 * g.n)
    assert len(list(graph.source_blocks(g.n, g.ell))) == 4
    for name, alpha in DECAYS.items():
        split = evaluate_prefixes(g, seeds, alpha)
        if name == "threshold":
            assert split == whole[name]
        else:
            assert split == pytest.approx(whole[name], rel=1e-12)


def test_evaluate_prefixes_returns_python_floats():
    g = random_graph(20, 3, seed=1, ell=2)
    for alpha in DECAYS.values():
        assert all(type(x) is float for x in evaluate_prefixes(g, [0, 3, 7], alpha))


def test_evaluate_prefixes_builds_no_adjacency_lists():
    base = random_graph(30, 3, seed=2, ell=1)
    g = sample_instances(base, EdgeLengthModel.exponential(1.0, seed=3), 4)
    evaluate_prefixes(g, [1, 2, 3], make_harmonic(1))
    assert all(inst._adj is None and inst._radj is None for inst in g.instances)


def test_trace_csv_roundtrip(tmp_path):
    trace = lazy_greedy(line_graph(), make_harmonic(1), 2)
    path = tmp_path / "trace.csv"
    trace.to_csv(str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "rank,seed,exact_marginal,estimated_marginal"
    assert lines[1].startswith("1,0,")
    assert len(lines) == 3
