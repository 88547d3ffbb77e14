"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria with stated runtime caps assert them; statistical criteria run at
their stated tolerances with fixed seeds.
"""

import math
import time

import numpy as np
import pytest

from distinf import (
    ResidualState,
    add_seed,
    build_cads,
    build_threshold_sketches,
    estimate_influence,
    estimate_union_size,
    influence_exact,
    lazy_greedy,
    make_exponential,
    make_harmonic,
    make_threshold,
    marg_gain,
    run_pps_im,
    run_threshold_im,
    uniform_ranks,
)
from distinf.pps_im import PPSState

from bruteforce import (
    check_pps_state,
    influence_bf,
    marg_gain_bf,
    random_graph,
    residual_delta_bf,
    skewed_graph,
)

INF = math.inf


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def test_c1_exact_oracle_equivalence():
    """influence_exact / marg_gain / add_seed agree with brute force to 1e-9."""
    t0 = time.time()
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(5, 31))
        ell = int(rng.integers(1, 5))
        g = random_graph(n, 2.5, seed=trial, ell=ell)
        alpha = [make_harmonic(1), make_threshold(1.0), make_exponential(2)][trial % 3]
        seeds = list(rng.choice(n, size=int(rng.integers(1, 4)), replace=False))
        got = influence_exact(g, seeds, alpha)
        want = influence_bf(g, seeds, alpha)
        worst = max(worst, abs(got - want))

        res = ResidualState(g)
        gain_sum = 0.0
        for s in seeds:
            gain_sum += add_seed(g, res, s, alpha)
        worst = max(worst, abs(gain_sum - want))
        delta_bf = residual_delta_bf(g, seeds, alpha)
        finite = np.isfinite(res.delta)
        assert (finite == np.isfinite(delta_bf)).all()
        if finite.any():
            worst = max(worst, float(np.abs(res.delta[finite] - delta_bf[finite]).max()))

        for u in rng.choice(n, size=3, replace=False):
            got_m = marg_gain(g, res, int(u), alpha)
            want_m = marg_gain_bf(g, delta_bf, int(u), alpha)
            worst = max(worst, abs(got_m - want_m))
    elapsed = time.time() - t0
    report("1 exact-oracle-equivalence", worst <= 1e-9 and elapsed < 10,
           f"max_abs_err={worst:.2e} elapsed={elapsed:.1f}s")


def test_c2_greedy_quality_threshold():
    """Threshold greedy with k=64 reaches >= 0.95x the exact prefix influence
    for every s <= 20 in at least 9 of 10 trials; under 2 minutes."""
    t0 = time.time()
    T, k, s_max = 1.0, 64, 20
    passes, worst = 0, 1.0
    for trial in range(10):
        g = skewed_graph(200, 4, seed=trial * 31, ell=16)
        exact = lazy_greedy(g, make_threshold(T), s_max)
        approx = run_threshold_im(g, T, k, s_max, seed=trial)
        got = np.cumsum(approx.marginals()[:s_max])
        want = np.cumsum(exact.marginals()[:s_max])
        m = min(len(got), len(want))
        ratio = float((got[:m] / want[:m]).min())
        worst = min(worst, ratio)
        passes += ratio >= 0.95
    elapsed = time.time() - t0
    report("2 greedy-quality-threshold", passes >= 9 and elapsed < 120,
           f"passes={passes}/10 worst_ratio={worst:.4f} elapsed={elapsed:.1f}s")


@pytest.mark.slow
def test_c3_greedy_quality_smooth_decay():
    """General-decay greedy with k=64 reaches >= 0.97x the exact prefix
    influence for s <= 20 in at least 9 of 10 trials per decay; under 5 min."""
    t0 = time.time()
    k, s_max = 64, 20
    results = {}
    for name, alpha in (("exp", make_exponential(10)), ("harmonic", make_harmonic(10))):
        passes, worst = 0, 1.0
        for trial in range(10):
            g = skewed_graph(200, 4, seed=trial * 31, ell=16)
            exact = lazy_greedy(g, alpha, s_max)
            approx = run_pps_im(g, alpha, k, s_max, seed=trial)
            got = np.cumsum(approx.marginals()[:s_max])
            want = np.cumsum(exact.marginals()[:s_max])
            ratio = float((got / want).min())
            worst = min(worst, ratio)
            passes += ratio >= 0.97
        results[name] = (passes, worst)
    elapsed = time.time() - t0
    ok = all(p >= 9 for p, _ in results.values()) and elapsed < 300
    report("3 greedy-quality-smooth", ok,
           " ".join(f"{n}:{p}/10(worst={w:.4f})" for n, (p, w) in results.items())
           + f" elapsed={elapsed:.1f}s")


@pytest.mark.slow
def test_c4_oracle_estimator_concentration():
    """Single-seed sketch estimate: CV <= 0.12 and mean within 3 standard
    errors over 500 rank draws; threshold union estimator CV <= 1.3/sqrt(k-2)."""
    k, draws = 64, 500
    g = random_graph(120, 4, seed=12, ell=2)
    alpha = make_harmonic(1)
    exact = influence_bf(g, [7], alpha)
    ests = []
    for rep in range(draws):
        sketches, _ = build_cads(g, k, seed=5000 + rep, rank_model="uniform")
        ests.append(estimate_influence(sketches, [7], alpha))
    arr = np.array(ests)
    cv = arr.std(ddof=1) / arr.mean()
    bias_se = abs(arr.mean() - exact) / (arr.std(ddof=1) / math.sqrt(draws))

    T, seeds5 = 0.7, [0, 3, 11, 25, 40]
    exact_pairs = influence_bf(g, seeds5, make_threshold(T)) * g.ell
    uests = []
    for rep in range(draws):
        ra = uniform_ranks(g.n, g.ell, seed=9000 + rep)
        tsk = build_threshold_sketches(g, ra, k, T)
        uests.append(estimate_union_size([tsk[s] for s in seeds5], k, ra.norm))
    uarr = np.array(uests)
    ucv = uarr.std(ddof=1) / uarr.mean()
    ubias_se = abs(uarr.mean() - exact_pairs) / (uarr.std(ddof=1) / math.sqrt(draws))

    ok = cv <= 0.12 and bias_se <= 3 and ucv <= 1.3 / math.sqrt(k - 2) and ubias_se <= 3
    report("4 oracle-concentration", ok,
           f"cads cv={cv:.4f} bias={bias_se:.2f}se | union cv={ucv:.4f} "
           f"(bound {1.3 / math.sqrt(k - 2):.4f}) bias={ubias_se:.2f}se")


@pytest.mark.slow
def test_c5_sketch_size_bound():
    """Mean combined-sketch size within 1.2x of k*ln(n*min(k, ell))."""
    n, ell, k = 1000, 8, 16
    g = random_graph(n, 4, seed=3, ell=ell)
    sketches, _ = build_cads(g, k, seed=7)
    mean_size = float(np.mean([len(s) for s in sketches]))
    bound = 1.2 * k * math.log(n * min(k, ell))
    report("5 sketch-size-bound", mean_size <= bound,
           f"mean={mean_size:.1f} bound={bound:.1f}")


def test_c6_state_machine_soundness():
    """1000-step randomized operation sequences pass the full-rescan oracle."""
    rng = np.random.default_rng(99)
    steps_done = 0
    for trial in range(4):
        g = random_graph(30, 3, seed=trial + 70, ell=2)
        alpha = [make_harmonic(1), make_exponential(2), make_threshold(0.8),
                 make_harmonic(10)][trial]
        state = PPSState(g, alpha, k=8, seed=trial)
        for _ in range(250):
            op = rng.random()
            if op < 0.55:
                state.lower_tau()
            elif op < 0.75:
                state.resume_sampling()
            else:
                free = np.flatnonzero(~state.is_seed)
                if free.size:
                    state.commit_seed(int(rng.choice(free)))
            check_pps_state(state)
            steps_done += 1
    report("6 state-machine-soundness", steps_done == 1000, f"steps={steps_done}")


def test_c7_delta_update_bound():
    """Mean residual-distance updates per pair within 10/eps * ln(n)^2."""
    eps = 0.25
    k = round(eps ** -2)  # 16
    n = 500
    g = random_graph(n, 3, seed=5, ell=2)
    trace = run_pps_im(g, make_harmonic(10), k, s_max=None, seed=1)
    per_pair = trace.metadata["delta_updates_per_pair"]
    bound = 10 / eps * math.log(n) ** 2
    report("7 delta-update-bound", per_pair <= bound,
           f"updates/pair={per_pair:.2f} bound={bound:.0f} seeds={len(trace)}")


def test_c8_cross_algorithm_consistency():
    """Threshold decay, matched parameters: the two greedy algorithms land
    within 5 percent of each other in total influence."""
    T, k, s_max = 0.8, 64, 10
    worst = 1.0
    for trial in range(3):
        g = skewed_graph(100, 4, seed=trial + 7, ell=4)
        alpha = make_threshold(T)
        a = run_pps_im(g, alpha, k, s_max, seed=trial)
        b = run_threshold_im(g, T, k, s_max, seed=trial)
        inf_a = influence_exact(g, a.seeds(), alpha)
        inf_b = influence_exact(g, b.seeds(), alpha)
        worst = min(worst, min(inf_a, inf_b) / max(inf_a, inf_b))
    report("8 cross-algorithm-consistency", worst >= 0.95, f"worst_ratio={worst:.4f}")


def test_c9_near_linear_scaling():
    """Doubling n at fixed density grows the threshold-greedy runtime by
    less than 2.6x."""
    def run_once(n, seed):
        g = random_graph(n, 4, seed=seed, ell=8)
        t0 = time.perf_counter()
        run_threshold_im(g, 1.0, 64, 50, seed=seed)
        return time.perf_counter() - t0

    run_once(500, 1)  # warmup
    t_small = min(run_once(2000, 11) for _ in range(2))
    t_big = min(run_once(4000, 12) for _ in range(2))
    ratio = t_big / t_small
    report("9 near-linear-scaling", ratio < 2.6,
           f"t(n=2000)={t_small:.2f}s t(n=4000)={t_big:.2f}s ratio={ratio:.2f}")
