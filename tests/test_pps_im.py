import math

import numpy as np
import pytest

from distinf import (
    MultiInstanceGraph,
    influence_exact,
    make_exponential,
    make_harmonic,
    make_threshold,
    run_pps_im,
    run_threshold_im,
)
from distinf.pps_im import PPSState

from bruteforce import bf_all_pairs, check_pps_state, pps_estimate_bf, random_graph

INF = math.inf


def line_graph():
    return MultiInstanceGraph.from_arrays(3, [0, 1], [1, 2])


# ------------------------------------------------------------- sampling rule


def test_node_estimate_formula():
    g = MultiInstanceGraph.from_arrays(2, [0], [1], weights=[[1.0], [1.0]])
    state = PPSState(g, make_harmonic(1), k=4)
    state.est_h[0] = 2.0
    state.est_m[0] = 3
    state.tau = 0.1
    assert state.node_estimate(0) / g.ell == pytest.approx(1.15)
    state.est_h[1] = 0.0
    assert state.node_estimate(1) == 0.0


# ------------------------------------------------------------- full rescan


def test_rescan_matches_random_operations():
    rng = np.random.default_rng(5)
    for trial in range(6):
        g = random_graph(25, 3, seed=trial, ell=2)
        alpha = [make_harmonic(1), make_exponential(2), make_threshold(0.8)][trial % 3]
        state = PPSState(g, alpha, k=8, seed=trial)
        for step in range(40):
            op = rng.random()
            if op < 0.6:
                state.lower_tau()
            elif op < 0.8:
                state.resume_sampling()  # no-op unless tau moved
            else:
                candidates = [u for u in range(g.n) if not state.is_seed[u]]
                if candidates:
                    state.commit_seed(int(rng.choice(candidates)))
            check_pps_state(state)


def test_resume_without_tau_change_is_noop():
    g = random_graph(20, 3, seed=2, ell=2)
    state = PPSState(g, make_harmonic(1), k=4, seed=0)
    for _ in range(4):
        state.lower_tau()
    snap = {k: list(v) for k, v in state.index.items()}
    est = state.est_h.copy()
    state.resume_sampling()
    assert est == pytest.approx(state.est_h)
    assert snap == {k: list(v) for k, v in state.index.items()}


def test_tau_to_zero_recovers_exact_influence():
    g = line_graph()
    alpha = make_harmonic(1)
    state = PPSState(g, alpha, k=4, seed=1)
    for _ in range(60):
        state.lower_tau()
    assert not state.cursors  # every reverse search ran to exhaustion
    assert state.est_m.sum() == 0 or state.tau < 1e-12
    got = [state.node_estimate(u) / g.ell for u in range(3)]
    want = [influence_exact(g, [u], alpha) for u in range(3)]
    assert got == pytest.approx(want, abs=1e-9)


def test_sample_complete_at_every_pause():
    # after sampling settles, every pair-node combination passing the
    # inclusion rule must sit in the index as H or M
    for trial in range(3):
        g = random_graph(20, 3, seed=trial, ell=2)
        alpha = make_harmonic(1)
        state = PPSState(g, alpha, k=6, seed=trial)
        dists = bf_all_pairs(g)
        for _ in range(12):
            state.lower_tau()
            for i in range(g.ell):
                for v in range(g.n):
                    ad = state.alpha_delta[i, v]
                    r = state.rank_norm[i, v]
                    for u in range(g.n):
                        d = dists[i][u, v]
                        if d == INF:
                            continue
                        delta_c = alpha.fn(d) - ad
                        if delta_c > 0 and delta_c / r >= state.tau:
                            lst = state.index.get((v, i), [])
                            pos = next(
                                (p for p, e in enumerate(lst) if e[0] == u), None
                            )
                            assert pos is not None, (v, i, u)
                            assert pos < state.ml[(v, i)]


def test_pair_terminated_when_contribution_nonpositive():
    g = line_graph()
    state = PPSState(g, make_harmonic(1), k=2, seed=0)
    state.commit_seed(0)
    # pair (a, 0) now has delta 0: nothing can contribute through it
    for _ in range(30):
        state.lower_tau()
    assert state.pair_prio[0, 0] == -INF


def test_commit_seed_line_graph():
    g = line_graph()
    state = PPSState(g, make_harmonic(1), k=4, seed=0)
    gain = state.commit_seed(0)
    assert gain == pytest.approx(11 / 6)
    assert list(state.delta[0]) == [0.0, 1.0, 2.0]
    with pytest.raises(ValueError):
        state.commit_seed(0)


def test_estimator_concentration_fixed_residual():
    # direct check of the sampling estimate: CV over rank redraws <= 1.3/sqrt(k)
    g = random_graph(80, 4, seed=6, ell=2)
    alpha = make_harmonic(1)
    dists = bf_all_pairs(g)
    u = 17
    contribs = {}
    for i in range(g.ell):
        for v in range(g.n):
            d = dists[i][u, v]
            if d < INF and alpha.fn(d) > 0:
                contribs[(v, i)] = alpha.fn(d)
    total = sum(contribs.values())
    k = 64
    tau = total / (2 * k)  # estimate sits at 2 * k * tau: concentration regime
    rng = np.random.default_rng(0)
    ests = []
    for _ in range(300):
        rank_of = {p: rng.uniform(0, 1) for p in contribs}
        ests.append(pps_estimate_bf(contribs, rank_of, tau))
    arr = np.array(ests)
    assert arr.std(ddof=1) / arr.mean() <= 1.3 / math.sqrt(k)
    assert abs(arr.mean() - total) <= 3 * arr.std(ddof=1) / math.sqrt(300)


# ------------------------------------------------------------- full runs


def test_run_line_graph_matches_exact_greedy():
    trace = run_pps_im(line_graph(), make_harmonic(1), k=16, s_max=3)
    assert trace.seeds() == [0, 1, 2]
    assert trace.marginals() == pytest.approx([11 / 6, 2 / 3, 1 / 2])


def test_run_to_exhaustion_covers_everything():
    g = random_graph(20, 3, seed=8, ell=2)
    trace = run_pps_im(g, make_threshold(0.8), k=8, s_max=None)
    assert trace.total() == pytest.approx(20.0)


def test_run_marginals_telescope_to_exact_influence():
    for trial in range(3):
        g = random_graph(40, 3, seed=trial, ell=3)
        alpha = make_exponential(3)
        trace = run_pps_im(g, alpha, k=16, s_max=8, seed=trial)
        for s in (1, 4, 8):
            assert sum(trace.marginals()[:s]) == pytest.approx(
                influence_exact(g, trace.seeds()[:s], alpha), abs=1e-9
            )


def test_adaptive_mode_rejects_overestimates():
    g = random_graph(50, 3, seed=4, ell=2)
    alpha = make_harmonic(1)
    trace = run_pps_im(g, alpha, k=4, s_max=6, eps=0.05, seed=1)
    for e in trace.entries:
        # accepted seeds satisfy exact >= (1 - eps) * estimate
        assert e.exact_marginal >= (1 - 0.05) * e.estimated_marginal - 1e-9
    assert trace.metadata["er"] == 0.0


def test_threshold_mode_consistent_with_threshold_im():
    g = random_graph(60, 4, seed=11, ell=4)
    T = 0.8
    a = run_pps_im(g, make_threshold(T), k=32, s_max=8, seed=3)
    b = run_threshold_im(g, T, k=32, s_max=8, seed=3)
    assert a.total() == pytest.approx(b.total(), rel=0.1)


def test_metrics_present():
    g = random_graph(20, 3, seed=1, ell=2)
    trace = run_pps_im(g, make_harmonic(1), k=8, s_max=4)
    md = trace.metadata
    assert md["tau_schedule"][0] > md["tau_schedule"][-1]
    assert md["delta_updates_total"] >= 0
    assert md["cursor_scans"] > 0
    assert len(md["per_seed_sec"]) == len(trace)


def test_next_seed_gate():
    g = random_graph(20, 3, seed=2, ell=2)
    state = PPSState(g, make_harmonic(1), k=8, seed=0)
    # initial tau is far above any estimate: no candidate qualifies
    assert state.next_seed() is None


def test_next_seed_gate_arithmetic():
    import heapq

    g = line_graph()
    state = PPSState(g, make_harmonic(1), k=64, seed=0)
    state.tau = 0.1
    state.est_h[1] = 5.0  # estimate 5.0 < 64 * 0.1
    heapq.heappush(state.q_cands, (-state.node_estimate(1), 1))
    assert state.next_seed() is None
    state.est_h[1] = 10.0  # estimate 10.0 >= 6.4
    heapq.heappush(state.q_cands, (-state.node_estimate(1), 1))
    assert state.next_seed() == (1, 10.0)


def test_next_seed_adaptive_rejects_inflated_estimate():
    import heapq

    g = line_graph()
    state = PPSState(g, make_harmonic(1), k=4, seed=0, eps=0.1)
    state.tau = 0.1
    # node b's exact marginal influence is 1.5; estimate inflated to 10
    state.est_h[1] = 10.0
    heapq.heappush(state.q_cands, (-state.node_estimate(1), 1))
    assert state.next_seed() is None  # 1.5 < (1 - 0.1) * 10
    # the candidate was requeued at its exact marginal
    assert (-1.5, 1) in state.q_cands


def test_run_builds_no_forward_adjacency():
    g = random_graph(60, 3, seed=5, ell=3)
    run_pps_im(g, make_exponential(2), k=8, s_max=10, seed=1)
    assert all(inst._adj is None for inst in g.instances)
