import heapq
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distinf import (
    CADS,
    MultiInstanceGraph,
    assign_ranks,
    build_cads,
    build_threshold_sketches,
    estimate_influence,
    graph,
    influence_exact,
    load_sketches,
    make_exponential,
    make_harmonic,
    make_threshold,
    merge_cads,
    save_sketches,
    threshold_influence_estimate,
)

from distinf import sketch
from distinf.sketch import (
    UNIFORM_DOMAIN,
    RankAssignment,
    _filter_slice,
    _fold_k_smallest,
    _instance_groups,
    _search_blocks,
    _union,
    structured_ranks,
    uniform_ranks,
)

from bruteforce import (
    absorbing_graph,
    bf_all_pairs,
    cads_bf,
    gapped_and_tied,
    influence_bf,
    random_graph,
    skewed_graph,
    small_graphs,
    union_bf,
)

INF = math.inf


def line_graph():
    return MultiInstanceGraph.from_arrays(3, [0, 1], [1, 2])


def forced_ranks(n, ell, rank_of_pair):
    """RankAssignment with explicit integer ranks, for hand-built examples."""
    rank = np.zeros((n, ell), dtype=np.int64)
    for (v, i), r in rank_of_pair.items():
        rank[v, i] = r
    return RankAssignment(n, ell, rank=rank, norm=n * ell)


def search_columns(g, instances, ranks, k, limit=INF):
    """Per instance of the range, its candidates (owner, source, dist) from `_search_blocks`, block by block."""
    cols = {i: [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))] for i in instances}
    for inst, owner, src, dist in _search_blocks(g, instances, ranks, k, limit):
        for i in instances:
            mine = inst == i
            cols[i].append((owner[mine], src[mine], dist[mine]))
    return [[np.concatenate(c) for c in zip(*cols[i])] for i in instances]


def build_ads_instance(g, instance, ranks, k, limit=INF):
    """Per node, the instance's all-distances sketch within limit: the union filter over its candidates."""
    [(owner, node, dist)] = search_columns(g, range(instance, instance + 1), ranks, k, limit)
    order = np.argsort(owner, kind="stable")
    owner, node, dist = owner[order], node[order], dist[order]
    at = np.searchsorted(owner, np.arange(g.n + 1))
    return [merge_cads([CADS(ranks.rank[node[a:b], instance], dist[a:b], node[a:b], np.full(b - a, instance), k,
                             g.n, g.ell, ranks.norm)], k) for a, b in zip(at[:-1], at[1:])]


def cads_of(entries, k, n, ell):
    """A sketch holding the given (rank, distance, node, instance) entries as listed."""
    r, d, u, i = zip(*entries)
    return CADS(np.array(r), np.array(d, dtype=float), np.array(u), np.array(i), k, n, ell, n * ell)


# ------------------------------------------------------------- rank structure


def test_assign_ranks_single_block_is_permutation():
    ra = assign_ranks(3, 1, 2, seed=0)
    assert sorted(ra.rank[:, 0]) == [1, 2, 3]


def test_assign_ranks_block_structure():
    ra = assign_ranks(2, 3, 2, seed=1)
    # two blocks of size n=2: ranks 1..4, each block a permutation of the nodes
    ranked = ra.rank[ra.rank > 0]
    assert sorted(ranked) == [1, 2, 3, 4]
    for b in range(2):
        block = [int(np.argwhere(ra.rank == r)[0, 0]) for r in (b * 2 + 1, b * 2 + 2)]
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
    # ADS(a), in key order: its own entry at 0 plus b at distance 1; c is
    # excluded because its rank is not below the 2nd-smallest closer rank
    assert [(r, d) for r, d, _, _ in ads[0].entries] == [(2, 0.0), (1, 1.0)]


def test_ads_distance_tie_is_broken_by_node():
    # node 0 reaches nodes 1 and 2 at distance 1; node 2's pair has the
    # smallest rank and is searched first, but node 1's pair is closer by the
    # tie-broken key (1, 1) < (1, 2), so it is not pruned even with k = 1
    g = MultiInstanceGraph.from_arrays(3, [0, 0], [1, 2])
    ra = forced_ranks(3, 1, {(0, 0): 3, (1, 0): 2, (2, 0): 1})
    ads = build_ads_instance(g, 0, ra, k=1)
    assert sorted((r, d, u) for r, d, u, _ in ads[0].entries) == [(1, 1.0, 2), (2, 1.0, 1), (3, 0.0, 0)]


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
    assert len(ads[2]) == 1 and ads[2].entries[0][2] == 2


@settings(max_examples=150, deadline=None)
@given(
    small_graphs(loops=True, missing=True),
    st.integers(1, 4),
    st.sampled_from(["permutation", "uniform"]),
    st.integers(0, 2**16),
)
def test_ads_entries_satisfy_inclusion_rule_exhaustively(g, k, model, seed):
    # every node's combined sketch holds exactly the pairs of the inclusion
    # rule, in key order
    sketches, ra = build_cads(g, k, seed, rank_model=model)
    dists = bf_all_pairs(g)
    for v in range(g.n):
        want = sorted(cads_bf(g, ra, k, v, dists), key=lambda e: (e[1], e[2], e[3]))
        got = sketches[v].entries
        assert [(r, u, i) for r, _, u, i in got] == [(r, u, i) for r, _, u, i in want]
        assert [d for _, d, _, _ in got] == pytest.approx([d for _, d, _, _ in want], abs=1e-9)


def test_cads_match_inclusion_rule_on_absorbing_gapped_and_tied_graphs():
    # absorbed lengths (d + w == d), edges an instance lacks and distance ties
    # all meet the block search's pruning and the union filter's tie-break
    for seed in range(3):
        for g in (absorbing_graph(seed, ell=3), *gapped_and_tied(skewed_graph(30, 3, seed, 3), seed)):
            dists = bf_all_pairs(g)
            for k, model in ((1, "permutation"), (3, "uniform"), (8, "permutation")):
                sketches, ra = build_cads(g, k, seed, rank_model=model)
                for v in range(g.n):
                    # the reference sums lengths from v's end of a path, the search from the other end
                    want = sorted(cads_bf(g, ra, k, v, dists), key=lambda e: (e[1], e[2], e[3]))
                    got = sketches[v].entries
                    assert [(r, u, i) for r, _, u, i in got] == [(r, u, i) for r, _, u, i in want]
                    assert [d for _, d, _, _ in got] == pytest.approx([d for _, d, _, _ in want], abs=1e-9)


def test_fold_k_smallest_matches_a_full_sort(monkeypatch):
    # rows that get more than k values, repeated rows and values, and no values at all; with a
    # kernel block of 1 or 12 cells, one fold merges its touched rows in slices of 1 or more rows
    rng = np.random.default_rng(0)
    top = np.iinfo(np.int64).max
    for cells in (graph._BLOCK_CELLS, 1, 12):
        monkeypatch.setattr(graph, "_BLOCK_CELLS", cells)
        for k in (1, 3, 5):
            for count in (0, 1, 4, 40):
                for pad, draw in ((INF, lambda size: rng.exponential(1.0, size).round(1)),
                                  (top, lambda size: rng.integers(1, 30, size))):
                    table = draw((7, k))
                    table[rng.random(table.shape) < 0.4] = pad  # partly filled rows
                    table.sort(axis=1)
                    rows, values = rng.integers(0, 7, count), draw(count)
                    want = table.copy()
                    for r in range(7):
                        want[r] = np.sort(np.concatenate((table[r], values[rows == r])))[:k]
                    _fold_k_smallest(table, rows, values)
                    assert table.dtype == want.dtype and np.array_equal(table, want)


def test_sketch_search_is_the_same_in_any_instance_grouping(monkeypatch, tmp_path):
    # one search per instance group: the budget splits 4 instances into 1, 2 or 4 groups
    k, T = 4, 1.0
    for g in (random_graph(30, 3, seed=4, ell=4), absorbing_graph(3, ell=4)):
        ranks = assign_ranks(g.n, g.ell, k, 2)
        runs = []
        for per_group, groups in ((4, 1), (2, 2), (1, 4)):
            monkeypatch.setattr(graph, "_BLOCK_CELLS", per_group * g.n * k)
            assert len(list(_instance_groups(g, k))) == groups
            cols = [col for grp in _instance_groups(g, k) for col in search_columns(g, grp, ranks, k)]
            assert len(cols) == g.ell
            path = tmp_path / f"{per_group}.bin"
            save_sketches(str(path), build_cads(g, k, 2)[0], 2)
            runs.append((cols, path.read_bytes(), [sk.ranks for sk in build_threshold_sketches(g, ranks, k, T)]))
        for cols, file, threshold in runs[1:]:
            assert all(np.array_equal(a, b) for col, want in zip(cols, runs[0][0]) for a, b in zip(col, want))
            assert file == runs[0][1] and threshold == runs[0][2]


def per_node_merge(g, ranks, k):
    """Each node's combined sketch as `merge_cads` over its candidates from every instance."""
    parts = [[] for _ in range(g.n)]
    for i, (owner, node, dist) in enumerate(search_columns(g, range(g.ell), ranks, k)):
        for v in range(g.n):
            mine = owner == v
            parts[v].append(CADS(ranks.rank[node[mine], i], dist[mine], node[mine], np.full(mine.sum(), i), k,
                                 g.n, g.ell, ranks.norm))
    return [merge_cads(p, k) for p in parts]


@pytest.mark.parametrize("block_cells", [graph._BLOCK_CELLS, 1 << 5, 12 << 5], ids=["default", "one-owner", "12-cands"])
def test_build_cads_filters_like_merge_cads_per_node(monkeypatch, block_cells):
    # build_cads filters every node's candidates at once.  Uniform ranks with k < ell cut
    # distance-0 entries, and every graph has runs of equal distance (each node's distance-0
    # entries; many more on the tied graph).  The filter takes owner slices of
    # _BLOCK_CELLS >> 5 candidates: a block of 32 cells gives one owner per slice, one of
    # 12 << 5 cells about 12 candidates, and the cap of 8 times that many cells per window
    # halves windows, down to one entry.
    owners = []  # per slice of the patched builds
    for seed in range(2 if block_cells == graph._BLOCK_CELLS else 1):
        rand = random_graph(40, 3, seed, ell=4)
        for g in (rand, skewed_graph(40, 4, seed, 4), absorbing_graph(seed, ell=4), *gapped_and_tied(rand, seed)):
            for k, model in itertools.product((1, 2, 4, 16), ("permutation", "uniform")):
                monkeypatch.setattr(graph, "_BLOCK_CELLS", block_cells)
                monkeypatch.setattr(sketch, "_filter_slice", lambda count, *a: owners.append(count.size) or
                                    _filter_slice(count, *a))
                built, ranks = build_cads(g, k, seed, rank_model=model)
                monkeypatch.undo()
                want = per_node_merge(g, ranks, k)
                assert [sk.entries for sk in built] == [sk.entries for sk in want]
    if block_cells == 1 << 5:
        assert set(owners) == {1}
    elif block_cells == 12 << 5:
        assert len(owners) > 20 * 40 and max(owners) > 1  # over 20 slices per build, some with several owners


# ------------------------------------------------------------- merging


def test_merge_single_list_is_identity():
    g = line_graph()
    ra = assign_ranks(3, 1, 2, seed=4)
    ads = build_ads_instance(g, 0, ra, k=2)
    merged = merge_cads([ads[0]], 2)
    assert merged.entries == ads[0].entries


def test_merge_keeps_smaller_rank_at_distance_zero():
    a = cads_of([(5, 0.0, 0, 0)], 1, n=1, ell=2)
    b = cads_of([(2, 0.0, 0, 1)], 1, n=1, ell=2)
    merged = merge_cads([a, b], 1)
    # k = 1: only the smaller rank survives at distance 0
    assert merged.entries == [(2, 0.0, 0, 1)]


def test_merge_order_independent():
    rng = np.random.default_rng(7)
    for trial in range(10):
        g = random_graph(20, 3, seed=trial, ell=3)
        ra = assign_ranks(20, 3, 4, seed=trial)
        per_inst = [build_ads_instance(g, i, ra, 4) for i in range(3)]
        v = int(rng.integers(20))
        parts = [per_inst[i][v] for i in range(3)]
        a = merge_cads(parts, 4)
        b = merge_cads([parts[2], parts[0], parts[1]], 4)
        # pairwise association must agree too
        c = merge_cads([merge_cads([parts[1], parts[2]], 4), parts[0]], 4)
        assert a.entries == b.entries == c.entries


def test_union_tau_is_the_kth_smallest_rank_ahead():
    # reference: walk the union in key order with a heap of the k smallest ranks seen
    g = random_graph(60, 3, seed=8, ell=4)
    for k in (1, 3, 8):
        sketches, _ = build_cads(g, k, seed=k)
        for seeds in ([0], [1, 2, 3], list(range(0, 60, 7))):
            union, tau = _union([sketches[s] for s in seeds], k)
            kept, want = [], []
            for r in union.rank.tolist():
                want.append(-kept[0] if len(kept) == k else union.norm)
                heapq.heappush(kept, -r)
                if len(kept) > k:
                    heapq.heappop(kept)
            assert tau == want


@st.composite
def union_cases(draw):
    """Combined sketches of a small graph under either rank model, and a seed set."""
    g = draw(small_graphs())
    k = draw(st.integers(1, 4))
    model = draw(st.sampled_from(["permutation", "uniform"]))
    sketches, ra = build_cads(g, k, draw(st.integers(0, 2**16)), rank_model=model)
    seeds = draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=min(g.n, 4), unique=True))
    return g, ra, k, sketches, seeds


def hip_bf(union, k, norm, ell, n_seeds, alpha):
    """The HIP estimate from a key-ordered union sketch, by its definition."""
    total = 0.0
    for j, (_, d, _, _) in enumerate(union):
        if d > 0:
            ahead = sorted(e[0] for e in union[:j])
            tau = ahead[k - 1] / norm if len(ahead) >= k else 1.0
            total += alpha(d) / tau
    return n_seeds * alpha.alpha0 + total / ell


@settings(max_examples=150, deadline=None)
@given(union_cases())
def test_union_sketch_matches_bruteforce_in_every_order(case):
    g, ra, k, sketches, seeds = case
    want = union_bf(g, ra, k, seeds, bf_all_pairs(g))
    for order in itertools.permutations(seeds):
        got = merge_cads([sketches[s] for s in order], k).entries
        assert [(r, u, i) for r, _, u, i in got] == [(r, u, i) for r, _, u, i in want]
        assert [d for _, d, _, _ in got] == pytest.approx([d for _, d, _, _ in want], abs=1e-9)
    for alpha in (make_harmonic(1), make_exponential(1), make_threshold(1)):
        ref = hip_bf(want, k, ra.norm, g.ell, len(seeds), alpha)
        assert estimate_influence(sketches, seeds, alpha) == pytest.approx(ref, rel=1e-12, abs=0)


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
            in_sketch = sorted(r for r, d, _, _ in sketches[v].entries if d < x)
            want = ranks_below[k - 1] / ra.norm if len(ranks_below) >= k else 1.0
            got = in_sketch[k - 1] / ra.norm if len(in_sketch) >= k else 1.0
            assert got == want


# ------------------------------------------------------------- estimation


def hand_cads():
    # entries (rank, distance): (0.6, 0), (0.2, 1) with norm 10*1
    return merge_cads([cads_of([(6, 0.0, 0, 0), (2, 1.0, 1, 0)], 2, n=10, ell=1)], 2)


def test_estimate_single_seed_hand_example():
    sk = [hand_cads()]
    assert sk[0].entries == [(6, 0.0, 0, 0), (2, 1.0, 1, 0)]
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
    for seed in (-1, 1):  # -1 must not index the last sketch
        with pytest.raises(ValueError, match="out of range"):
            estimate_influence([hand_cads()], [seed], make_harmonic(1))


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
    min_w = g.weights.min()
    sk = build_threshold_sketches(g, ra, k=5, T=min_w / 2)
    for v in range(20):
        assert set(sk[v].ranks) == {int(ra.rank[v, i]) for i in range(2)}


def test_threshold_sketch_bottom_two():
    g = line_graph()
    ra = structured_ranks(3, 1, 1, seed=5)
    sk = build_threshold_sketches(g, ra, k=2, T=10.0)
    ranks_all = {v: int(ra.rank[v, 0]) for v in range(3)}
    # node a reaches {a, b, c}; c reaches only itself
    assert sk[0].ranks == sorted(ranks_all.values())[:2]
    assert sk[2].ranks == [ranks_all[2]]


@pytest.mark.parametrize("k", [0, 1])
def test_threshold_sketch_needs_k_two(k):
    # at k=1 the estimator (k-1)/tau_k answers 0 for every seed set
    with pytest.raises(ValueError, match="must be at least 2"):
        build_threshold_sketches(line_graph(), structured_ranks(3, 1, 1, seed=5), k, T=10.0)


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


@st.composite
def sketch_cases(draw):
    """A small graph, k, T (integers tie with unit lengths) and permutation or uniform ranks."""
    g = draw(small_graphs(missing=True))
    k = draw(st.integers(1, 4))
    T = draw(st.one_of(st.sampled_from([1.0, 2.0]), st.floats(0.01, 4.0)))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        ra = structured_ranks(g.n, g.ell, draw(st.integers(1, g.ell)), seed)
    else:
        ra = uniform_ranks(g.n, g.ell, seed)
    return g, ra, k, T


@settings(max_examples=150, deadline=None)
@given(sketch_cases())
def test_threshold_sketches_are_ads_cut_at_T(case):
    g, ra, k, T = case
    dists = bf_all_pairs(g)
    kt = max(k, 2)  # threshold sketches need k >= 2; the ADS below also run at k = 1
    sketches = build_threshold_sketches(g, ra, kt, T)
    for v in range(g.n):
        within = sorted(
            int(ra.rank[u, i]) for i in range(g.ell) for u in range(g.n) if ra.rank[u, i] and dists[i][v, u] <= T
        )
        assert sketches[v].ranks == within[:kt]
    for i in range(g.ell):
        cut, full = build_ads_instance(g, i, ra, k, limit=T), build_ads_instance(g, i, ra, k)
        for v in range(g.n):
            assert cut[v].entries == [e for e in full[v].entries if e[1] <= T]


# ------------------------------------------------------------- union size


def test_union_size_formula():
    from distinf import ThresholdSketch

    sk = ThresholdSketch([10, 20, 25], k=3, n=50, ell=2, T=1.0, norm=50 * 2)
    # bottom-k pair count (k - 1) / tau_k, averaged over the 2 instances
    assert threshold_influence_estimate([sk]) == pytest.approx((3 - 1) / 0.25 / 2)


def test_union_size_exact_below_k():
    from distinf import ThresholdSketch

    sk = ThresholdSketch([10, 20], k=64, n=50, ell=2, T=1.0, norm=50 * 2)
    assert threshold_influence_estimate([sk]) == 1.0  # 2 pairs over 2 instances


def test_union_size_k_mismatch():
    from distinf import ThresholdSketch

    a = ThresholdSketch([1], k=3, n=5, ell=1, T=1.0, norm=5 * 1)
    b = ThresholdSketch([2], k=4, n=5, ell=1, T=1.0, norm=5 * 1)
    c = ThresholdSketch([2], k=3, n=5, ell=2, T=1.0, norm=5 * 2)
    for other in (b, c):
        with pytest.raises(ValueError, match="mismatched"):
            threshold_influence_estimate([a, other])


def test_threshold_influence_estimate_full_information():
    g = random_graph(20, 3, seed=4, ell=2)
    ra = structured_ranks(20, 2, 2, seed=1)
    T = 0.7
    sk = build_threshold_sketches(g, ra, k=40, T=T)  # k = n*ell: nothing truncated
    seeds = [0, 3]
    got = threshold_influence_estimate([sk[s] for s in seeds])
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
    sketches, _ = build_cads(g, 5, seed=11)
    path = str(tmp_path / "sk.bin")
    save_sketches(path, sketches, seed=11)
    loaded, labels, seed = load_sketches(path)
    assert seed == 11
    assert labels == [str(v) for v in range(30)]  # the default names
    for a, b in zip(sketches, loaded):
        assert a.entries == b.entries
        assert (a.k, a.n, a.ell, a.norm) == (b.k, b.n, b.ell, b.norm)


def test_threshold_file_roundtrip(tmp_path):
    g = random_graph(30, 3, seed=5, ell=2)
    ra = structured_ranks(30, 2, 2, seed=7)
    sketches = build_threshold_sketches(g, ra, k=6, T=0.9)
    path = str(tmp_path / "tsk.bin")
    names = [f"v{29 - v}" for v in range(30)]
    save_sketches(path, sketches, seed=7, labels=names)
    loaded, labels, seed = load_sketches(path)
    assert (labels, seed) == (names, 7)
    for a, b in zip(sketches, loaded):
        assert a.ranks == b.ranks and (a.T, a.norm) == (b.T, b.norm)


def test_uniform_rank_files_roundtrip(tmp_path):
    # the file records the rank model the sketches carry, so files saved with
    # default arguments load back with the uniform rank domain
    g = random_graph(30, 3, seed=5, ell=3)
    sketches, _ = build_cads(g, 5, seed=11, rank_model="uniform")
    save_sketches(str(tmp_path / "sk.bin"), sketches, seed=11)
    loaded, _, _ = load_sketches(str(tmp_path / "sk.bin"))
    assert [a.entries for a in sketches] == [b.entries for b in loaded]
    assert {b.norm for b in loaded} == {UNIFORM_DOMAIN}
    ra = uniform_ranks(30, 3, seed=7)
    tsk = build_threshold_sketches(g, ra, k=6, T=0.9)
    save_sketches(str(tmp_path / "tsk.bin"), tsk, seed=7)
    loaded, _, _ = load_sketches(str(tmp_path / "tsk.bin"))
    assert [a.ranks for a in tsk] == [b.ranks for b in loaded]
    assert {b.norm for b in loaded} == {UNIFORM_DOMAIN}


@pytest.mark.parametrize("size", [20, 60])
def test_truncated_sketch_file_is_value_error(tmp_path, size):
    g = random_graph(30, 3, seed=5, ell=3)
    sketches, _ = build_cads(g, 5, seed=11)
    path = tmp_path / "sk.bin"
    save_sketches(str(path), sketches, seed=11)
    cut = tmp_path / "cut.bin"
    cut.write_bytes(path.read_bytes()[:size])
    with pytest.raises(ValueError) as err:
        load_sketches(str(cut))
    # tmp_path is named after the test, so the message is matched without the path
    assert "truncated" in str(err.value).replace(str(cut), "")
