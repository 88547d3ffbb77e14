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
)
from distinf import exact, graph
from distinf.exact import _singleton_gains

from bruteforce import (
    absorbing_graph,
    greedy_bf,
    influence_bf,
    marg_gain_bf,
    random_graph,
    residual_delta_bf,
    skewed_graph,
    small_graphs,
)

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
    assert marg_gain(g, res, [1], h)[0] == pytest.approx(2 / 3)
    assert marg_gain(g, res, [2], h)[0] == pytest.approx(2 / 3)
    assert marg_gain(g, res, [0], h)[0] == 0.0


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
        assert marg_gain(g, res, [u], alpha)[0] == pytest.approx(want, abs=1e-9)


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
    decays = (make_harmonic(3), make_threshold(1.0), make_exponential(2))
    for seed in range(5):
        for g in (random_graph(40, 3, seed=seed, ell=3), skewed_graph(40, 3, seed, 3)):
            for alpha in decays:
                trace = lazy_greedy(g, alpha, 10)
                seeds, marginals = greedy_bf(g, alpha, 10)
                assert trace.seeds() == seeds
                assert trace.marginals() == pytest.approx(marginals, abs=1e-9)


@pytest.mark.parametrize("batch", [1, 3, 50])  # 50 = n: every stale entry in one pass
def test_lazy_greedy_independent_of_batch_size(monkeypatch, batch):
    cases = [
        (g, alpha)
        for seed in range(3)
        for g in (random_graph(50, 3, seed=seed, ell=3), skewed_graph(50, 3, seed, 4))
        for alpha in (make_harmonic(3), make_threshold(1.0))
    ]
    want = [lazy_greedy(g, alpha, 15) for g, alpha in cases]
    monkeypatch.setattr(exact, "_BATCH", batch)
    for (g, alpha), w in zip(cases, want):
        got = lazy_greedy(g, alpha, 15)
        assert got.seeds() == w.seeds()
        assert got.marginals() == w.marginals()


def test_lazy_greedy_reports_candidates_scored_and_seed_times():
    # line graph, harmonic: node 0 (11/6) is taken fresh; nodes 1 and 2 are
    # then both stale and re-scored in one batch, 1 is taken, and 2 is
    # re-scored once more before it is taken: 3 candidates scored
    trace = lazy_greedy(line_graph(), make_harmonic(1), 3)
    assert trace.metadata["candidates_scored"] == 3
    g = random_graph(30, 3, seed=9, ell=2)
    trace = lazy_greedy(g, make_harmonic(1), 6)
    assert trace.metadata["candidates_scored"] == 64
    times = trace.metadata["per_seed_sec"]
    assert len(times) == 6 and all(t > 0 for t in times)


def test_singleton_gains_match_per_node_search():
    for seed in range(3):
        for g in (random_graph(40, 3, seed=seed, ell=3), skewed_graph(40, 3, seed, 3)):
            delta = np.full((g.ell, g.n), INF)
            for alpha in (make_harmonic(3), make_threshold(1.0), make_exponential(2)):
                want = [marg_gain_bf(g, delta, u, alpha) for u in range(g.n)]
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
}


@st.composite
def prefix_cases(draw, max_n=10):
    """A small graph, a seed list and a decay."""
    g = draw(small_graphs(max_n))
    seeds = draw(st.permutations(range(g.n)))[: draw(st.integers(0, g.n))]
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


@settings(max_examples=150, deadline=None)
@given(prefix_cases())
def test_batched_marg_gain_matches_bruteforce(case):
    g, seeds, name = case
    alpha = DECAYS[name]
    residual = ResidualState(g)
    for s in seeds:
        add_seed(g, residual, s, alpha)
    candidates = [u for u in range(g.n) if u not in seeds]
    got = marg_gain(g, residual, candidates, alpha)
    delta = residual_delta_bf(g, seeds, alpha)
    want = [marg_gain_bf(g, delta, u, alpha) for u in candidates]
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(prefix_cases())
def test_influence_exact_matches_prefixes_and_bruteforce(case):
    # one kernel call from the whole seed set against one residual update per seed
    g, seeds, name = case
    alpha = DECAYS[name]
    got = influence_exact(g, seeds, alpha)
    prefixes = evaluate_prefixes(g, seeds, alpha)
    assert got == pytest.approx(prefixes[-1] if seeds else 0.0, rel=1e-12, abs=0)
    assert got == pytest.approx(influence_bf(g, seeds, alpha), rel=1e-9, abs=1e-12)


def test_influence_exact_split_into_instance_blocks(monkeypatch):
    g = random_graph(30, 3, seed=4, ell=7)
    seeds = [5, 11, 2, 29, 17]
    whole = {name: influence_exact(g, seeds, alpha) for name, alpha in DECAYS.items()}
    monkeypatch.setattr(graph, "_BLOCK_CELLS", 2 * g.n)
    for name, alpha in DECAYS.items():
        assert influence_exact(g, seeds, alpha) == pytest.approx(whole[name], rel=1e-12)
        assert whole[name] == pytest.approx(evaluate_prefixes(g, seeds, alpha)[-1], rel=1e-12)


def dense_rows(g, instances, sources, limit, start):
    """The residual kernel's whole rows, reset to inf beyond limit."""
    rows, _ = graph._improve_rows(g, instances, sources, limit, start)
    rows[rows > limit] = INF
    return rows


def _kernel_residual(g, seeds, alpha):
    delta = np.full((g.ell, g.n), INF)
    for s in seeds:
        delta = dense_rows(g, range(g.ell), s, alpha.support_bound, delta)
    return delta


def test_kernel_residual_equals_add_seed_delta():
    for seed in range(4):
        for g in (random_graph(40, 2, seed=seed, ell=3), skewed_graph(40, 3, seed, 2),
                  random_graph(30, 1.5, seed=seed, ell=2, model=EdgeLengthModel.unit())):
            seeds = np.random.default_rng(seed).permutation(g.n)[:12].tolist()
            for alpha in (make_threshold(1.0), make_harmonic(2)):
                residual = ResidualState(g)
                for s in seeds:
                    add_seed(g, residual, s, alpha)
                assert np.array_equal(_kernel_residual(g, seeds, alpha), residual.delta)


def dense_residual_update(g, delta, x, limit):
    """residual_update from a scan of every cell for those the seed improves."""
    new = dense_rows(g, range(g.ell), x, limit, delta)
    inst, node = np.nonzero(new < delta)
    order = np.lexsort((node, new[inst, node], inst))
    inst, node = inst[order], node[order]
    return inst, node, delta[inst, node], new[inst, node]


def dense_gain_sums(g, delta, candidates, alpha):
    """exact._gain_sums from a scan of every cell of each block for those a row improves."""
    cands = np.asarray(candidates, dtype=np.int64)
    inst, src = np.tile(np.arange(g.ell), cands.size), np.repeat(cands, g.ell)
    gains = np.zeros(cands.size)
    for blk in graph.source_blocks(g.n, src.size):
        old = delta[inst[blk.start:blk.stop]]
        new = dense_rows(g, inst[blk.start:blk.stop], src[blk.start:blk.stop], alpha.support_bound, old)
        row, node = np.nonzero(new < old)
        terms = alpha.eval_array(new[row, node]) - alpha.eval_array(old[row, node])
        gains += np.bincount((row + blk.start) // g.ell, weights=terms, minlength=cands.size)
    return gains


@pytest.mark.parametrize("small", [False, True], ids=["one-block", "blocks-of-4-rows"])
def test_residual_cells_equal_a_scan_of_every_cell(monkeypatch, small):
    # the cells the search reports it improved are those a scan for new < old
    # finds, and the gains summed over them are bit for bit the scan's: with
    # finite and infinite limits, from residuals that hold finite distances
    # above the limit, for a seed committed twice and where nothing improves
    if small:
        monkeypatch.setattr(graph, "_BLOCK_CELLS", 4 * 30)
    rng = np.random.default_rng(23)
    for g in (random_graph(30, 2, seed=1, ell=3), skewed_graph(30, 3, 2, 3), absorbing_graph(3, ell=3)):
        wide = residual_delta_bf(g, rng.permutation(g.n)[:2].tolist(), make_harmonic(2.0))  # no support bound
        assert np.isfinite(wide).sum() > 2 * g.ell and (wide[np.isfinite(wide)] > 1.0).any()
        for alpha in (make_harmonic(2.0), make_exponential(1.5), make_threshold(1.0), make_threshold(0.5)):
            limit = alpha.support_bound
            seeds = rng.permutation(g.n)[:4].tolist()
            for delta in (np.full((g.ell, g.n), INF), wide.copy(), np.zeros((g.ell, g.n))):
                for x in [*seeds, seeds[-1]]:
                    got = graph.residual_update(g, delta, x, limit)
                    want = dense_residual_update(g, delta, x, limit)
                    assert all(np.array_equal(a, b) for a, b in zip(got, want))
                    assert np.array_equal(exact._gain_sums(g, delta, range(g.n), alpha),
                                          dense_gain_sums(g, delta, range(g.n), alpha))
                    delta[got[0], got[1]] = got[3]
                assert not graph.residual_update(g, delta, seeds[-1], limit)[0].size  # nothing left to lower


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


def test_marg_gain_split_into_row_blocks(monkeypatch):
    g = random_graph(30, 3, seed=4, ell=3)
    residual = ResidualState(g)
    for s in (5, 11):
        add_seed(g, residual, s, make_harmonic(2.0))
    candidates = [0, 7, 29, 12, 3]
    whole = marg_gain(g, residual, candidates, make_harmonic(2.0))
    monkeypatch.setattr(graph, "_BLOCK_CELLS", 2 * g.n)  # 15 rows in 8 blocks, one candidate's rows split
    assert marg_gain(g, residual, candidates, make_harmonic(2.0)) == pytest.approx(whole, rel=1e-12)


def test_evaluate_prefixes_returns_python_floats():
    g = random_graph(20, 3, seed=1, ell=2)
    for alpha in DECAYS.values():
        assert all(type(x) is float for x in evaluate_prefixes(g, [0, 3, 7], alpha))


def test_trace_csv_roundtrip(tmp_path):
    trace = lazy_greedy(line_graph(), make_harmonic(1), 2)
    path = tmp_path / "trace.csv"
    trace.to_csv(str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "rank,seed,exact_marginal,estimated_marginal"
    assert lines[1].startswith("1,0,")
    assert len(lines) == 3
