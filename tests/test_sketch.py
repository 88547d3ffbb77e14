import math

import numpy as np
import pytest

from distinf import (
    CADS,
    MultiInstanceGraph,
    assign_ranks,
    build_ads_instance,
    build_cads,
    build_threshold_sketches,
    estimate_influence,
    estimate_union_size,
    hip_threshold,
    influence_exact,
    load_sketches,
    make_harmonic,
    make_threshold,
    merge_cads,
    save_sketches,
    structured_ranks,
    threshold_influence_estimate,
)

from bruteforce import bf_all_pairs, cads_bf, influence_bf, random_graph

INF = math.inf


def line_graph():
    return MultiInstanceGraph.from_arrays(3, [0, 1], [1, 2])


def forced_ranks(n, ell, rank_of_pair):
    """RankAssignment with explicit integer ranks, for hand-built examples."""
    from distinf.sketch import RankAssignment

    rank = np.zeros((n, ell), dtype=np.int64)
    for (v, i), r in rank_of_pair.items():
        rank[v, i] = r
    blocks = max(rank_of_pair.values()) // n
    return RankAssignment(n, ell, blocks, seed=-1, model="permutation", rank=rank, norm=n * ell)


# ------------------------------------------------------------- rank structure


def test_assign_ranks_single_block_is_permutation():
    ra = assign_ranks(3, 1, 2, seed=0)
    assert sorted(ra.rank[:, 0]) == [1, 2, 3]


def test_assign_ranks_block_structure():
    ra = assign_ranks(2, 3, 2, seed=1)
    # two blocks of size n=2: ranks 1..4, each block a permutation of the nodes
    ranked = ra.rank[ra.rank > 0]
    assert sorted(ranked) == [1, 2, 3, 4]
    pair_of = ra.pair_of_rank()
    for b in range(2):
        block = [pair_of[r][0] for r in (b * 2 + 1, b * 2 + 2)]
        assert sorted(block) == [0, 1]
    # per node: 2 distinct instances selected out of 3
    for v in range(2):
        insts = [i for i in range(3) if ra.rank[v, i] > 0]
        assert len(insts) == 2


def test_assign_ranks_deterministic():
    a = assign_ranks(20, 4, 3, seed=9)
    b = assign_ranks(20, 4, 3, seed=9)
    assert np.array_equal(a.rank, b.rank)


def test_assign_ranks_instance_selection_roughly_uniform():
    ra = assign_ranks(2000, 4, 1, seed=3)
    counts = np.array([(ra.rank[:, i] > 0).sum() for i in range(4)])
    assert counts.sum() == 2000
    assert (counts > 2000 / 4 * 0.7).all() and (counts < 2000 / 4 * 1.3).all()


# ------------------------------------------------------------- ADS build


def test_ads_hand_example():
    # ranks (normalized by n*ell = 3): a=0.6 -> 2, b=0.2 -> 1, c=0.9 -> 3
    g = line_graph()
    ra = forced_ranks(3, 1, {(0, 0): 2, (1, 0): 1, (2, 0): 3})
    ads = build_ads_instance(g, 0, ra, k=2)
    # ADS(a): own entry at 0 plus b at distance 1; c is excluded because its
    # rank is not below the 2nd-smallest closer rank
    assert [(r, d) for r, d, _, _ in ads[0]] == [(2, 0.0), (1, 1.0)]


def test_ads_k_equals_n_keeps_all_reachable():
    g = random_graph(12, 2, seed=2, ell=1)
    ra = assign_ranks(12, 1, 12, seed=5)
    ads = build_ads_instance(g, 0, ra, k=12)
    dists = bf_all_pairs(g)[0]
    for v in range(12):
        assert len(ads[v]) == int((dists[v] < INF).sum())


def test_ads_isolated_tail_contributes_only_self():
    g = MultiInstanceGraph.from_arrays(3, [0], [1])  # node 2 isolated
    ra = assign_ranks(3, 1, 3, seed=0)
    ads = build_ads_instance(g, 0, ra, k=3)
    assert len(ads[2]) == 1 and ads[2][0][2] == 2


def entry_ids(entries):
    return sorted((r, u, i) for r, _, u, i in entries)


def test_ads_entries_satisfy_inclusion_rule_exhaustively():
    for seed in range(6):
        g = random_graph(25, 3, seed=seed, ell=2)
        k = 3
        ra = assign_ranks(25, 2, k, seed=seed + 50)
        per_inst = [build_ads_instance(g, i, ra, k) for i in range(2)]
        dists = bf_all_pairs(g)
        for v in range(25):
            merged = merge_cads([per_inst[i][v] for i in range(2)], k, n=25, ell=2)
            want = cads_bf(g, ra, k, v, dists)
            assert entry_ids(merged.entries) == entry_ids(want)
            want_d = {(r, u, i): d for r, d, u, i in want}
            for r, d, u, i in merged.entries:
                assert d == pytest.approx(want_d[(r, u, i)], abs=1e-9)


# ------------------------------------------------------------- merging


def test_merge_single_list_is_identity():
    g = line_graph()
    ra = assign_ranks(3, 1, 2, seed=4)
    ads = build_ads_instance(g, 0, ra, k=2)
    merged = merge_cads([ads[0]], 2, n=3, ell=1)
    assert merged.entries == ads[0]


def test_merge_keeps_smaller_rank_at_distance_zero():
    a = [(5, 0.0, 0, 0)]
    b = [(2, 0.0, 0, 1)]
    merged = merge_cads([a, b], 1, n=1, ell=2)
    # k = 1: only the smaller rank survives at distance 0
    assert merged.entries == [(2, 0.0, 0, 1)]


def test_merge_order_independent():
    rng = np.random.default_rng(7)
    for trial in range(10):
        g = random_graph(20, 3, seed=trial, ell=3)
        ra = assign_ranks(20, 3, 4, seed=trial)
        per_inst = [build_ads_instance(g, i, ra, 4) for i in range(3)]
        v = int(rng.integers(20))
        lists = [per_inst[i][v] for i in range(3)]
        a = merge_cads(lists, 4, n=20, ell=3)
        b = merge_cads([lists[2], lists[0], lists[1]], 4, n=20, ell=3)
        # pairwise association must agree too
        c = merge_cads([merge_cads([lists[1], lists[2]], 4, n=20, ell=3), lists[0]], 4)
        assert a.entries == b.entries == c.entries


def test_merge_rejects_unsorted_input():
    bad = [(1, 2.0, 0, 0), (2, 1.0, 1, 0)]
    with pytest.raises(ValueError):
        merge_cads([bad], 2, n=2, ell=1)


def test_cads_at_most_k_entries_share_distance_zero():
    g = random_graph(30, 3, seed=8, ell=6)
    sketches, _ = build_cads(g, 4, seed=1)
    for sk in sketches:
        zero = [e for e in sk.entries if e[1] == 0.0]
        assert len(zero) == min(6, 4)


def test_cads_supports_exact_thresholds_under_ties():
    # unit lengths force heavy distance ties; the sketch must still hold the
    # k smallest ranks below every distance, so rank thresholds computed from
    # it equal thresholds computed from all pairs
    from distinf import EdgeLengthModel

    g = random_graph(40, 3, seed=2, ell=3, model=EdgeLengthModel.unit())
    k = 5
    sketches, ra = build_cads(g, k, seed=4)
    dists = bf_all_pairs(g)
    for v in range(0, 40, 7):
        for x in (0.5, 1.0, 2.5, 4.0):
            ranks_below = sorted(
                int(ra.rank[u, i])
                for i in range(3)
                for u in range(40)
                if ra.rank[u, i] > 0 and dists[i][v, u] < x
            )
            want = ranks_below[k - 1] / ra.norm if len(ranks_below) >= k else 1.0
            assert hip_threshold(sketches[v], x) == pytest.approx(want)


# ------------------------------------------------------------- HIP queries


def hand_cads():
    # entries (rank, distance): (0.6, 0), (0.2, 1) with norm 10*1
    return CADS([(6, 0.0, 0, 0), (2, 1.0, 1, 0)], k=2, n=10, ell=1)


def test_hip_threshold_fewer_than_k_is_domain_max():
    assert hip_threshold(hand_cads(), 1.0) == 1.0


def test_hip_threshold_selects_kth_smallest():
    assert hip_threshold(hand_cads(), 2.0) == pytest.approx(0.6)


def test_hip_threshold_k1():
    assert hip_threshold(hand_cads(), 1.0, k=1) == pytest.approx(0.6)


def test_hip_threshold_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        hip_threshold(hand_cads(), 0.0)


# ------------------------------------------------------------- estimation


def test_estimate_single_seed_hand_example():
    sk = {0: CADS([(6, 0.0, 0, 0), (2, 1.0, 1, 0)], k=2, n=10, ell=1)}
    got = estimate_influence(sk, [0], make_harmonic(1))
    assert got == pytest.approx(1.0 + 0.5 / 1.0)


def test_estimate_full_seed_set_is_exact():
    g = random_graph(15, 2, seed=3, ell=2)
    sketches, _ = build_cads(g, k=15, seed=2)
    got = estimate_influence(sketches, list(range(15)), make_threshold(0.5))
    assert got == pytest.approx(15.0)


def test_estimate_missing_sketch_errors():
    with pytest.raises(ValueError):
        estimate_influence({0: hand_cads()}, [0, 1], make_harmonic(1))


def test_estimate_unbiased_over_rank_draws():
    # independent uniform ranks: the inverse-probability estimate is unbiased
    g = random_graph(60, 3, seed=12, ell=2)
    alpha = make_harmonic(1)
    rng = np.random.default_rng(0)
    seed_sets = {
        1: [7],
        5: list(rng.choice(60, size=5, replace=False)),
        25: list(rng.choice(60, size=25, replace=False)),
    }
    draws = 500
    ests = {s: [] for s in seed_sets}
    for rep in range(draws):
        sketches, _ = build_cads(g, k=16, seed=1000 + rep, rank_model="uniform")
        for s, seeds in seed_sets.items():
            ests[s].append(estimate_influence(sketches, seeds, alpha))
    for s, seeds in seed_sets.items():
        exact = influence_bf(g, seeds, alpha)
        arr = np.array(ests[s])
        se = arr.std(ddof=1) / math.sqrt(draws)
        assert abs(arr.mean() - exact) <= 3 * se + 1e-12, (s, arr.mean(), exact, se)


# ------------------------------------------------------------- threshold sketches


def test_threshold_sketch_line_graph():
    g = line_graph()
    ra = structured_ranks(3, 1, 1, seed=0)
    sk = build_threshold_sketches(g, ra, k=3, T=1.5)
    # sketch(a) holds the ranks of pairs within 1.5: a itself and b; c is at 2
    want = {int(ra.rank[0, 0]), int(ra.rank[1, 0])}
    assert set(sk[0].ranks) == want


def test_threshold_sketch_tiny_T_only_self():
    g = random_graph(20, 3, seed=1, ell=2, model=None)
    ra = structured_ranks(20, 2, 2, seed=3)
    min_w = min(inst.weights.min() for inst in g.instances)
    sk = build_threshold_sketches(g, ra, k=5, T=min_w / 2)
    for v in range(20):
        assert set(sk[v].ranks) == {int(ra.rank[v, i]) for i in range(2)}


def test_threshold_sketch_bottom_one():
    g = line_graph()
    ra = structured_ranks(3, 1, 1, seed=5)
    sk = build_threshold_sketches(g, ra, k=1, T=10.0)
    ranks_all = {v: int(ra.rank[v, 0]) for v in range(3)}
    # everything reaches c's rank pool: node a reaches {a, b, c}
    assert sk[0].ranks == [min(ranks_all.values())]


def test_threshold_sketch_is_exact_bottom_k():
    for seed in range(6):
        g = random_graph(25, 3, seed=seed, ell=2)
        ra = structured_ranks(25, 2, 2, seed=seed + 9)
        k, T = 4, 0.8
        sk = build_threshold_sketches(g, ra, k, T)
        dists = bf_all_pairs(g)
        for u in range(25):
            in_range = sorted(
                int(ra.rank[v, i])
                for i in range(2)
                for v in range(25)
                if dists[i][u, v] <= T
            )
            assert sk[u].ranks == in_range[:k]


# ------------------------------------------------------------- union size


def test_union_size_formula():
    from distinf import ThresholdSketch

    norm = 100
    sk = ThresholdSketch([10, 20, 25], k=3, n=50, ell=2, T=1.0)
    assert estimate_union_size([sk], 3, norm) == pytest.approx((3 - 1) / 0.25)


def test_union_size_exact_below_k():
    from distinf import ThresholdSketch

    sk = ThresholdSketch([10, 20], k=64, n=50, ell=2, T=1.0)
    assert estimate_union_size([sk], 64, 100) == 2.0


def test_union_size_k_mismatch():
    from distinf import ThresholdSketch

    a = ThresholdSketch([1], k=3, n=5, ell=1, T=1.0)
    b = ThresholdSketch([2], k=4, n=5, ell=1, T=1.0)
    with pytest.raises(ValueError):
        estimate_union_size([a, b], 3, 5)


def test_threshold_influence_estimate_full_information():
    g = random_graph(20, 3, seed=4, ell=2)
    ra = structured_ranks(20, 2, 2, seed=1)
    T = 0.7
    sk = build_threshold_sketches(g, ra, k=40, T=T)  # k = n*ell: nothing truncated
    seeds = [0, 3]
    got = threshold_influence_estimate([sk[s] for s in seeds], g.ell)
    assert got == pytest.approx(influence_bf(g, seeds, make_threshold(T)), abs=1e-9)


# ------------------------------------------------------------- size bound


def test_mean_cads_size_within_bound():
    g = random_graph(200, 3, seed=6, ell=4)
    k = 8
    sketches, _ = build_cads(g, k, seed=2)
    mean_size = np.mean([len(s) for s in sketches])
    assert mean_size <= 1.2 * k * math.log(200 * min(k, 4))


# ------------------------------------------------------------- persistence


def test_cads_file_roundtrip(tmp_path):
    g = random_graph(30, 3, seed=5, ell=3)
    sketches, ranks = build_cads(g, 5, seed=11)
    path = str(tmp_path / "sk.bin")
    save_sketches(path, sketches, seed=11)
    loaded, ranks2, seed = load_sketches(path)
    assert seed == 11
    assert np.array_equal(ranks.rank, ranks2.rank)
    for a, b in zip(sketches, loaded):
        assert a.entries == b.entries
        assert (a.k, a.n, a.ell) == (b.k, b.n, b.ell)


def test_threshold_file_roundtrip(tmp_path):
    g = random_graph(30, 3, seed=5, ell=2)
    ra = structured_ranks(30, 2, 2, seed=7)
    sketches = build_threshold_sketches(g, ra, k=6, T=0.9)
    path = str(tmp_path / "tsk.bin")
    save_sketches(path, sketches, seed=7)
    loaded, ranks2, _ = load_sketches(path)
    assert np.array_equal(ra.rank, ranks2.rank)
    for a, b in zip(sketches, loaded):
        assert a.ranks == b.ranks and a.T == b.T


@pytest.mark.parametrize("size", [20, 60])
def test_truncated_sketch_file_is_value_error(tmp_path, size):
    g = random_graph(30, 3, seed=5, ell=3)
    sketches, _ = build_cads(g, 5, seed=11)
    path = tmp_path / "sk.bin"
    save_sketches(str(path), sketches, seed=11)
    cut = tmp_path / "cut.bin"
    cut.write_bytes(path.read_bytes()[:size])
    with pytest.raises(ValueError, match="truncated"):
        load_sketches(str(cut))
