import heapq
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distinf import (
    MultiInstanceGraph,
    influence_exact,
    make_exponential,
    make_harmonic,
    make_threshold,
    run_pps_im,
    run_threshold_im,
)
from distinf import pps_im
from distinf.pps_im import PPSState, _scan_limits

from bruteforce import (
    bf_all_pairs, check_pps_state, pps_estimate_bf, pps_index, random_graph, skewed_graph, small_graphs,
)

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
    pairs = range(g.n * g.ell)
    snap = [pps_index(state, pid) for pid in pairs]
    est = state.est_h.copy()
    state.resume_sampling()
    assert est == pytest.approx(state.est_h)
    assert snap == [pps_index(state, pid) for pid in pairs]


def test_tau_to_zero_recovers_exact_influence():
    g = line_graph()
    alpha = make_harmonic(1)
    state = PPSState(g, alpha, k=4, seed=1)
    for _ in range(60):
        state.lower_tau()
    assert all(p == -INF for p in state.pair_prio)  # every reverse search ran to exhaustion
    assert sum(state.est_m) == 0 or state.tau < 1e-12
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
                    pid = v * g.ell + i
                    ad = state.alpha_delta[pid]
                    r = state.rank_norm[pid]
                    for u in range(g.n):
                        d = dists[i][u, v]
                        if d == INF:
                            continue
                        delta_c = alpha.fn(d) - ad
                        if delta_c > 0 and delta_c / r >= state.tau:
                            lst = pps_index(state, pid)
                            pos = next(
                                (p for p, e in enumerate(lst) if e[0] == u), None
                            )
                            assert pos is not None, (v, i, u)
                            assert pos < state.ml[pid]


@pytest.mark.parametrize("alpha", [make_threshold(2.0), make_exponential(2), make_harmonic(1)], ids=lambda a: a.name)
def test_scan_limits_bound_the_pause_rule(alpha):
    # the limit is at least every distance the rule admits, and for all but
    # vanishing tau its decay value is within a relative 1e-9 of the rule's
    # floor; bisecting with lo + hi would overflow int64 for any limit past
    # the least normal float
    ad, r = np.array([0.0, 0.0, 0.3, 0.6, 0.0]), np.array([0.5, 1e-3, 0.2, 1.0, 1.0])
    for tau in (1.0, 0.1, 1e-6, 1e-300, 0.0):
        for a, rr, limit in zip(ad, r, _scan_limits(alpha, ad, r, tau).tolist()):
            def admits(d):
                c = alpha.fn(d) - a
                return c > 0 and c / rr >= tau
            assert not any(admits(d) for d in (np.nextafter(limit, INF), 1e300, INF) if d > limit)
            if tau >= 1e-6 and 0 < limit:
                assert limit < INF and alpha.fn(limit) >= (a + rr * tau) * (1 - 1e-9)
            if tau >= 1e-6 and alpha.name.startswith("threshold"):
                assert limit == (2.0 if admits(2.0) else 0.0)


def test_pair_queued_twice_resumes_once(monkeypatch):
    # a pair due twice at one tau (a second resume_sampling call) is searched
    # and scanned once, and no search call holds a pair twice
    rows = []
    real = pps_im.reverse_balls
    monkeypatch.setattr(pps_im, "reverse_balls",
                        lambda g, inst, src, limit: rows.append(list(zip(src.tolist(), inst.tolist())))
                        or real(g, inst, src, limit))
    g = random_graph(20, 3, seed=3, ell=2)
    states = [PPSState(g, make_harmonic(1), k=4, seed=0) for _ in range(2)]
    for _ in range(8):
        for state in states:
            state.lower_tau()
        states[1].resume_sampling()
    assert rows and all(len(set(call)) == len(call) for call in rows)
    a, b = states
    pairs = range(g.n * g.ell)
    assert [pps_index(a, pid) for pid in pairs] == [pps_index(b, pid) for pid in pairs]
    assert np.array_equal(a.est_h, b.est_h) and np.array_equal(a.pair_prio, b.pair_prio)
    assert (a.cursor_scans, a.pairs_searched, a.ball_entries) == (b.cursor_scans, b.pairs_searched, b.ball_entries)


def test_resume_searches_due_pairs_in_priority_order(monkeypatch):
    # each resume_sampling call searches exactly the live pairs whose priority
    # is at least tau, by (-priority, v, i), whether they have not scanned
    # their own node yet (perhaps lowered by a commit) or paused later
    searched = []
    real = pps_im.reverse_balls
    monkeypatch.setattr(pps_im, "reverse_balls",
                        lambda g, inst, src, limit: searched.append(list(zip(src.tolist(), inst.tolist())))
                        or real(g, inst, src, limit))
    seen = {"lowered": 0, "terminated": 0, "paused ahead of unscanned": 0}
    rng = np.random.default_rng(3)
    for trial in range(6):
        g = random_graph(30, 3, seed=trial, ell=3)
        alpha = [make_harmonic(1), make_exponential(2), make_threshold(0.8)][trial % 3]
        state = PPSState(g, alpha, k=4, seed=trial)
        real_resume = state.resume_sampling

        def resume():
            ell = g.ell
            waiting = set(np.flatnonzero((state.length == 0) & (state.next_dist == 0)).tolist())
            prio = state.pair_prio.tolist()
            want = sorted((-p, pid) for pid, p in enumerate(prio) if p > -INF and p >= state.tau)
            seen["lowered"] += sum(pid in waiting and -negp < alpha.alpha0 / state.rank_norm[pid] for negp, pid in want)
            seen["terminated"] += sum(pid in waiting and p == -INF for pid, p in enumerate(prio))
            paused = [pid not in waiting for _, pid in want]
            seen["paused ahead of unscanned"] += any(q and not later for q, later in zip(paused, paused[1:]))
            searched.clear()
            real_resume()
            assert searched == ([[divmod(pid, ell) for _, pid in want]] if want else [])

        state.resume_sampling = resume
        for step in range(30):
            op = rng.random()
            if op < 0.5:
                state.lower_tau()
            elif op < 0.7:
                state.resume_sampling()
            else:
                free = [u for u in range(g.n) if not state.is_seed[u]]
                state.commit_seed(int(rng.choice(free)))
    assert all(seen.values()), seen


def test_pair_terminated_when_contribution_nonpositive():
    g = line_graph()
    state = PPSState(g, make_harmonic(1), k=2, seed=0)
    state.commit_seed(0)
    # pair (a, 0) now has delta 0: nothing can contribute through it
    for _ in range(30):
        state.lower_tau()
    assert state.pair_prio[0] == -INF  # pair (a, 0)


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


def test_state_at_init_under_120_bytes_per_pair():
    # numpy arrays by pid hold about 78 B per pair (tracemalloc, CPython 3.11,
    # 64-bit); Python lists or a heap of tuples per pair held 130 to 213
    g = random_graph(1000, 4, seed=5, ell=16)
    alpha = make_exponential(10)
    PPSState(line_graph(), alpha, k=4)  # imports outside the measurement
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        state = PPSState(g, alpha, k=64)  # alive through the measurement
        per_pair = (tracemalloc.get_traced_memory()[0] - before) / (g.n * g.ell)
    finally:
        tracemalloc.stop()
    assert per_pair < 120, per_pair


@st.composite
def pps_cases(draw):
    g = draw(small_graphs(max_n=8, loops=True, missing=True))
    alpha = draw(st.sampled_from([
        make_harmonic(1), make_exponential(2), make_threshold(0.8),
    ]))
    k = draw(st.sampled_from([1, 2, 4, 8]))
    lam = draw(st.sampled_from([0.25, 0.5]))
    tau0 = draw(st.sampled_from([None, 0.02, 0.2, 1.0]))
    seed = draw(st.integers(0, 3))
    op = st.sampled_from(["lower", "lower", "resume", "commit"])
    ops = draw(st.lists(st.tuples(op, st.integers(0, 7)), min_size=10, max_size=40))
    return g, alpha, k, lam, tau0, seed, ops


def _check_scans(state, dists):
    """Every pair's index list is a prefix of its reverse-distance order, by
    (distance, node).  A live pair has trimmed nothing, so its next scan is at
    the distance of the next node in that order."""
    for i in range(state.g.ell):
        for v in range(state.g.n):
            order = sorted((d, u) for u, d in enumerate(dists[i][:, v]) if d < INF)
            lst = pps_index(state, v * state.g.ell + i)
            assert [u for u, _, _ in lst] == [u for _, u in order[: len(lst)]], (v, i)
            assert [d for _, d, _ in lst] == pytest.approx([d for d, _ in order[: len(lst)]], rel=1e-12)
            if state.pair_prio[v * state.g.ell + i] > -INF:
                assert state.next_scan(v, i) == pytest.approx(order[len(lst)][0], rel=1e-12), (v, i)


@settings(max_examples=300, deadline=None)
@given(pps_cases())
def test_on_demand_searches_keep_state_sound(case):
    # self-loops, parallel edges and nodes without in-edges: a resumed pair
    # replays its ball past what it has scanned, and pauses at the next distance
    g, alpha, k, lam, tau0, seed, ops = case
    state = PPSState(g, alpha, k=k, lam=lam, tau0=tau0, seed=seed)
    dists = bf_all_pairs(g)
    for op, x in ops:
        if op == "lower":
            state.lower_tau()
        elif op == "resume":
            state.resume_sampling()
        elif not state.is_seed[x % g.n]:
            state.commit_seed(x % g.n)
        check_pps_state(state)
        _check_scans(state, dists)


@pytest.mark.parametrize("eps", [-0.5, 0.0, 1.0, 1.5, math.nan])
def test_adaptive_eps_outside_unit_interval_rejected(eps):
    # a negative eps rejected every candidate, so tau halved forever; NaN
    # switched the exact check off
    with pytest.raises(ValueError, match="eps"):
        PPSState(line_graph(), make_harmonic(1), k=4, eps=eps)


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


# Seeds, marginals and work counters of two small deterministic runs, to
# 12 digits and exactly: a change to the state's layout must do the same work.
_PINNED = {
    None: (
        [0, 2, 1, 13, 3, 5, 23, 32, 59, 52],
        [5.29182876914665, 2.6661296984377607, 2.9124713696894977, 2.0182444812584657, 1.927454702551447,
         1.5343727092950217, 1.5086741444578764, 1.5228625201259398, 1.3448290056652752, 1.262529069885357],
        [5.453125, 3.7934830272564746, 2.9564479320254113, 2.0489730398307007, 1.914840914162654,
         1.6410161310056137, 1.5028024693696593, 1.4692534305394673, 1.344574838970179, 1.3008197299348572],
        {"cursor_scans": 451, "pairs_searched": 357, "ball_entries": 661, "delta_updates_total": 564},
        0.17898257200459522,
    ),
    0.1: (
        [0, 1, 3, 13, 5, 23, 32, 59, 52, 7],
        [5.29182876914665, 3.130425607740273, 3.0839254980304895, 2.0215080614255543, 1.6394436690172371,
         1.5512335831951933, 1.522870086252696, 1.3448290056652752, 1.2958819719946197, 1.148897510652963],
        [5.453125, 3.230127616138879, 2.9214816647528647, 2.0507699637659274, 1.7605030481998925,
         1.561411054203949, 1.4692534305394676, 1.344574838970179, 1.3008582435661848, 1.2358196786798135],
        {"cursor_scans": 460, "pairs_searched": 364, "ball_entries": 685, "delta_updates_total": 556},
        0.0,
    ),
}


@pytest.mark.parametrize("eps", [None, 0.1], ids=["fixed", "adaptive-0.1"])
def test_small_runs_pin_outputs_and_work_counters(eps):
    seeds, exact, estimated, counters, er = _PINNED[eps]
    trace = run_pps_im(skewed_graph(60, 4, 1, 4), make_exponential(10), k=16, s_max=10, eps=eps, seed=0)
    md = trace.metadata
    assert trace.seeds() == seeds
    assert trace.marginals() == pytest.approx(exact, rel=1e-12)
    assert [e.estimated_marginal for e in trace.entries] == pytest.approx(estimated, rel=1e-12)
    assert md["tau_schedule"] == [7.5 / 2**j for j in range(6)]
    assert {key: md[key] for key in counters} == counters
    assert md["er"] == pytest.approx(er, rel=1e-12)


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
    assert md["ball_entries"] >= md["cursor_scans"] and md["pairs_searched"] > 0
    assert len(md["per_seed_sec"]) == len(trace)


def test_next_seed_gate():
    g = random_graph(20, 3, seed=2, ell=2)
    state = PPSState(g, make_harmonic(1), k=8, seed=0)
    # initial tau is far above any estimate: no candidate qualifies
    assert state.next_seed() is None


def test_next_seed_gate_arithmetic():
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
    g = line_graph()
    state = PPSState(g, make_harmonic(1), k=4, seed=0, eps=0.1)
    state.tau = 0.1
    # node b's exact marginal influence is 1.5; estimate inflated to 10
    state.est_h[1] = 10.0
    heapq.heappush(state.q_cands, (-state.node_estimate(1), 1))
    assert state.next_seed() is None  # 1.5 < (1 - 0.1) * 10
    # the candidate was requeued at its exact marginal
    assert (-1.5, 1) in state.q_cands
