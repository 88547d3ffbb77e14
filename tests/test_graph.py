import math
import re

import numpy as np
import pytest

from distinf import (
    EdgeLengthModel,
    GraphFormatError,
    MultiInstanceGraph,
    build_cads,
    evaluate_prefixes,
    graph,
    load_edge_list,
    load_npz,
    make_harmonic,
    run_pps_im,
    run_threshold_im,
    sample_instances,
    save_npz,
)

from bruteforce import (
    absorbing_graph,
    bf_all_pairs,
    bf_distances,
    gapped_and_tied,
    instance_edges,
    random_graph,
    reverse_ball_bf,
    skewed_graph,
)

INF = math.inf


def out_edges(g, v, instance=0):
    """(head, length) pairs of v's out-edges in one instance, read from the forward CSR."""
    indptr, heads, weights = g.forward_csr()
    lo, hi = indptr[instance * g.n + v], indptr[instance * g.n + v + 1]
    return list(zip(heads[lo:hi].tolist(), weights[lo:hi].tolist()))


def line_graph():
    # a -> b -> c, unit lengths
    return MultiInstanceGraph.from_arrays(3, [0, 1], [1, 2])


# ---------------------------------------------------------------- edge lists


def test_load_unweighted_defaults_to_unit(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n1 2\n")
    g = load_edge_list(str(p))
    assert g.n == 3 and g.ell == 1
    assert out_edges(g, 0) == [(1, 1.0)]
    assert out_edges(g, 1) == [(2, 1.0)]


def test_load_weighted_reads_length(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1 0.5\n")
    g = load_edge_list(str(p), weighted=True)
    assert out_edges(g, 0) == [(1, 0.5)]


def test_load_rejects_nonpositive_length(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1 -1\n")
    with pytest.raises(ValueError):
        load_edge_list(str(p), weighted=True)


def test_load_reports_line_number(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1 1\n0 2\n")
    with pytest.raises(GraphFormatError, match=":2"):
        load_edge_list(str(p), weighted=True)


def test_load_drops_self_loops_and_keeps_min_parallel(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 0 1\n0 1 3\n0 1 2\n")
    g = load_edge_list(str(p), weighted=True)
    assert out_edges(g, 0) == [(1, 2.0)]


def test_npz_roundtrip(tmp_path):
    g = random_graph(20, 3, seed=5, ell=3)
    path = str(tmp_path / "g.npz")
    save_npz(g, path)
    h = load_npz(path)
    assert h.n == g.n and h.ell == g.ell
    for name in ("tails", "heads", "weights"):
        assert np.array_equal(getattr(g, name), getattr(h, name))


def test_empty_edge_list_npz_roundtrip(tmp_path):
    path = str(tmp_path / "g.npz")
    save_npz(MultiInstanceGraph.from_arrays(2, [], []), path)
    h = load_npz(path)
    assert h.n == 2 and h.ell == 1 and h.tails.size == 0 and h.weights.shape == (1, 0)


@pytest.mark.parametrize(
    "tails, heads, weights",
    [
        ([0, 1], [1, -1], [[1.0, 1.0]]),
        ([0, 1], [1, 5], [[1.0, 1.0]]),
        ([0, 1], [1, 2], [[1.0, math.nan]]),
        ([0, 1], [1, 2], [[1.0, 1.0, 1.0]]),
        ([0, 1], [1, 2], np.ones((0, 2))),
        ([0, 1], [1, 2], np.ones((1, 1, 2))),
    ],
    ids=["negative-head", "head-past-n", "nan-length", "row-too-long", "zero-rows", "3d-weights"],
)
def test_instance_rejects_bad_edges(tails, heads, weights):
    with pytest.raises(ValueError):
        MultiInstanceGraph.from_arrays(3, tails, heads, weights)


def test_instance_rejects_repeated_labels():
    # two nodes under one label would print as one seed name
    with pytest.raises(ValueError, match="need 3 distinct node labels, got 2 distinct of 3"):
        MultiInstanceGraph(3, [0, 1], [1, 2], labels=["a", "a", "c"])
    # a seeds file is read line by line, stripped, so it cannot name these
    for bad in (" a", "a\n", ""):
        with pytest.raises(ValueError, match=f"node label {re.escape(repr(bad))} is empty or holds whitespace"):
            MultiInstanceGraph(3, [0, 1], [1, 2], labels=[bad, "b", "c"])
    assert MultiInstanceGraph(3, [0, 1], [1, 2], labels=["a", "b", "c"]).labels == ["a", "b", "c"]


# ------------------------------------------------------------- sampling


def test_unit_model_copies_base():
    base = line_graph()
    g = sample_instances(base, EdgeLengthModel.unit(), 3)
    assert g.ell == 3
    for i in range(g.ell):
        assert [out_edges(g, v, i) for v in range(3)] == [out_edges(base, v) for v in range(3)]


def test_sampling_is_deterministic():
    base = line_graph()
    model = EdgeLengthModel.exponential(1.0, seed=7)
    a = sample_instances(base, model, 4)
    b = sample_instances(base, model, 4)
    assert np.array_equal(a.weights, b.weights)


def test_sampling_leaves_base_untouched():
    base = line_graph()
    before = base.weights.copy()
    sample_instances(base, EdgeLengthModel.exponential(1.0, seed=3), 5)
    assert np.array_equal(base.weights, before)


def test_exponential_mean_close_to_one():
    # law of large numbers over >= 1e5 draws
    g = random_graph(500, 4, seed=11, ell=64)
    assert g.weights.size >= 100_000
    assert 0.95 <= g.weights.mean() <= 1.05


def test_weibull_positive_and_deterministic():
    base = line_graph()
    model = EdgeLengthModel.weibull(seed=2)
    a = sample_instances(base, model, 8)
    b = sample_instances(base, model, 8)
    assert np.array_equal(a.weights, b.weights)
    assert (a.weights > 0).all()


def test_model_validation():
    with pytest.raises(ValueError):
        EdgeLengthModel.exponential(0.0)
    with pytest.raises(ValueError):
        EdgeLengthModel("nonsense")
    with pytest.raises(ValueError):
        sample_instances(line_graph(), EdgeLengthModel.unit(), 0)


# ------------------------------------------------------------- dijkstra


def test_distance_rows_line_graph():
    assert graph.distance_rows(line_graph(), 0, [0]).tolist() == [[0.0, 1.0, 2.0]]


def test_distance_rows_sink_reaches_only_itself():
    assert graph.distance_rows(line_graph(), 0, [2]).tolist() == [[INF, INF, 0.0]]


def test_distance_rows_start_prunes_relaxation():
    # started from a residual, node 1 does not improve its distance, so its
    # out-edge is not relaxed and only the new seed's own cell changes
    inst, node, old, new = graph.residual_update(line_graph(), np.array([[INF, 1.0, INF]]), 0)
    assert [a.tolist() for a in (inst, node, old, new)] == [[0], [0], [INF], [0.0]]


def _graphs_with_sinks():
    for seed in range(4):
        yield random_graph(30, 1.5, seed=seed, ell=2)
        yield random_graph(30, 1.5, seed=seed, model=EdgeLengthModel.unit())  # distances equal to limit
        yield skewed_graph(30, 2, seed, 2)


@pytest.mark.parametrize("limit", [INF, 1.0, 2.0])
def test_distance_rows_match_bellman_ford(limit):
    sinks = 0
    for g in _graphs_with_sinks():
        sinks += int((np.bincount(g.tails, minlength=g.n) == 0).sum())
        for i, ref in enumerate(bf_all_pairs(g)):
            got = graph.distance_rows(g, i, range(g.n), limit)
            assert np.array_equal(got, np.where(ref <= limit, ref, INF))
    assert sinks > 0


def test_distance_rows_blocks_and_chunks(monkeypatch):
    g = skewed_graph(40, 3, 7, 2)
    ref = bf_all_pairs(g)
    monkeypatch.setattr(graph, "_BLOCK_CELLS", 3 * g.n)
    monkeypatch.setattr(graph, "_CHUNK_RELAX", 5)
    blocks = list(graph.source_blocks(g.n))
    assert len(blocks) == 14
    for i, want in enumerate(ref):
        got = np.concatenate([graph.distance_rows(g, i, blk) for blk in blocks])
        assert np.array_equal(got, want)
    rows = graph.distance_rows(g, 1, [39, 0, 39])
    assert np.array_equal(rows, ref[1][[39, 0, 39]])


def test_distance_rows_rejects_bad_source():
    with pytest.raises(ValueError):
        graph.distance_rows(line_graph(), 0, [3])
    with pytest.raises(ValueError):
        graph.distance_rows(line_graph(), 1, [0])
    with pytest.raises(ValueError, match="start must have shape"):
        graph.residual_update(line_graph(), np.zeros((1, 4)), 0)


def test_distance_rows_mixed_instance_rows():
    g = skewed_graph(30, 2, 3, 3)
    ref = bf_all_pairs(g)
    rng = np.random.default_rng(0)
    inst, src = rng.integers(0, g.ell, 50), rng.integers(0, g.n, 50)
    rows = graph.distance_rows(g, inst, src)
    assert np.array_equal(rows, np.array([ref[i][s] for i, s in zip(inst, src)]))


def bf_rows(g, sources, limit=INF):
    """Per instance, Bellman-Ford distances from a node set, inf beyond limit."""
    ref = np.array([bf_distances(instance_edges(g, i), g.n, sources) for i in range(g.ell)])
    return np.where(ref <= limit, ref, INF)


def hard_length_graphs():
    """Graphs whose lengths test the kernel's relaxation order: absorbed
    lengths (d + w == d), 20% missing edges and quarter-rounded ties, an
    instance that lacks every edge, and a graph with no finite length."""
    for seed in range(3):
        yield absorbing_graph(seed)
        yield from gapped_and_tied(skewed_graph(30, 2, seed, 2), seed)
    g = random_graph(30, 2, seed=5, ell=2)
    yield MultiInstanceGraph(g.n, g.tails, g.heads, np.vstack([g.weights[:1], np.full(g.weights.shape[1], INF)]))
    yield MultiInstanceGraph(g.n, g.tails, g.heads, np.full(g.weights.shape, INF))


@pytest.mark.parametrize("tiny", [False, True], ids=["default", "tiny-chunks-and-blocks"])
def test_distance_rows_equal_bellman_ford_on_hard_lengths(monkeypatch, tiny):
    if tiny:  # chunks of 5 relaxations (plus one cell's out-edges), blocks of 3 rows of 30
        monkeypatch.setattr(graph, "_CHUNK_RELAX", 5)
        monkeypatch.setattr(graph, "_BLOCK_CELLS", 90)
    for g in hard_length_graphs():
        for i, ref in enumerate(bf_all_pairs(g)):
            for limit in (INF, 1.0, 0.5):
                got = np.concatenate([graph.distance_rows(g, i, blk, limit) for blk in graph.source_blocks(g.n)])
                assert np.array_equal(got, np.where(ref <= limit, ref, INF))


def test_residual_rows_equal_bellman_ford_on_hard_lengths():
    # a row started from the residual of a seed set comes back as the
    # residual of the set plus the row's source
    rng = np.random.default_rng(0)
    for g in hard_length_graphs():
        for limit in (INF, 1.0):
            seeds = rng.permutation(g.n)[:5].tolist()
            for k, x in enumerate(seeds):
                delta = bf_rows(g, seeds[:k], limit)
                inst, node, _, new = graph.residual_update(g, delta, x, limit)
                delta[inst, node] = new
                assert np.array_equal(delta, bf_rows(g, seeds[: k + 1], limit))


def test_distance_rows_from_seed_sets():
    # each row of an (rows, s) array of sources starts from all s nodes
    for g in (random_graph(30, 2, seed=1, ell=3), absorbing_graph(1), *gapped_and_tied(skewed_graph(30, 2, 2, 2), 2)):
        for seeds in ([0], [3, 7], [9, 2, 2], [1, 2, 4, 8, 15]):
            for limit in (INF, 1.0):
                assert np.array_equal(graph.distance_rows(g, range(g.ell), [seeds], limit), bf_rows(g, seeds, limit))
        rows = graph.distance_rows(g, [1, 0], [[0, 5], [2, 9]])
        assert np.array_equal(rows, [bf_rows(g, [0, 5])[1], bf_rows(g, [2, 9])[0]])
    with pytest.raises(ValueError, match="one source per row"):
        graph.reverse_balls(g, 0, [[0, 1]], 1.0)


class CountedLengths(np.ndarray):
    """Edge lengths that count the entries read through index arrays; the
    distance kernel reads one per relaxation."""

    def __getitem__(self, index):
        if isinstance(index, np.ndarray):
            self.reads += index.size
        return np.asarray(super().__getitem__(index))


def test_distance_rows_relax_only_improved_cells(monkeypatch):
    # a unit-length line 0 -> 1 -> ... -> 20 with a shortcut 0 -> 5 of
    # length 1000: every cell relaxes its out-edges once, when it holds its
    # final distance.  In Bellman-Ford order, node 5 would also relax at
    # 1000 and pass that on down the line before node 4 improves it.
    n = 21
    g = MultiInstanceGraph(n, [*range(n - 1), 0], [*range(1, n), 5], [[1.0] * (n - 1) + [1000.0]])
    indptr, heads, weights = g.forward_csr()
    degree = np.diff(indptr)
    lengths = weights.view(CountedLengths)
    lengths.reads = 0
    monkeypatch.setattr(g, "forward_csr", lambda: (indptr, heads, lengths))
    rows = graph.distance_rows(g, 0, range(n))
    assert lengths.reads == degree[np.nonzero(rows < INF)[1]].sum() == 210 + 1
    # started from a residual, a row relaxes only the cells it improves, and
    # not the seeds the residual already holds
    lengths.reads = 0
    _, node, _, _ = graph.residual_update(g, rows[[0]], 10)
    assert lengths.reads == degree[node].sum() == 10


@pytest.mark.parametrize("limit", [math.nan, -1.0])
def test_distance_rows_rejects_nan_or_negative_limit(limit):
    # a NaN limit used to give a row of NaN, the source's own distance included
    with pytest.raises(ValueError, match="limit"):
        graph.distance_rows(line_graph(), 0, [0], limit)


@pytest.mark.parametrize("limit", [math.nan, -1.0])
def test_reverse_balls_reject_nan_or_negative_limit(limit):
    # a NaN limit used to give a ball of the source alone
    with pytest.raises(ValueError, match="limit"):
        graph.reverse_balls(line_graph(), 0, [2], limit)


def own_topologies_graph():
    """Instances 0 and 2 have b's edges and instance 1 has a's, on one union
    edge list where each instance gives the edges it lacks infinite length;
    also returns each instance's own (tail, head, length) list."""
    a, b = random_graph(25, 2, seed=1), random_graph(25, 3, seed=2, ell=2)
    own = [instance_edges(b, 0), instance_edges(a, 0), instance_edges(b, 1)]
    edges = sorted({(t, h) for inst in own for t, h, _ in inst})
    weights = np.full((3, len(edges)), INF)
    for i, inst in enumerate(own):
        for t, h, w in inst:
            weights[i, edges.index((t, h))] = w
    return MultiInstanceGraph.from_arrays(25, [t for t, _ in edges], [h for _, h in edges], weights), own


def test_distance_rows_instances_with_own_topologies():
    g, own = own_topologies_graph()
    for i, edges in enumerate(own):
        ref = np.array([bf_distances(edges, g.n, [s]) for s in range(g.n)])
        for limit in (INF, 1.0):
            assert np.array_equal(graph.distance_rows(g, i, range(g.n), limit), np.where(ref <= limit, ref, INF))


def test_cursor_skips_edges_an_instance_lacks():
    # a node reachable only through edges the instance lacks is in no
    # reverse ball, whatever the limit, and nothing lies past a whole ball
    g, own = own_topologies_graph()
    for i, edges in enumerate(own):
        reverse = [(h, t, w) for t, h, w in edges]
        refs = [bf_distances(reverse, g.n, [src]) for src in range(g.n)]
        for limit in (INF, 1.0):
            row, node, dist = graph.reverse_balls(g, i, range(g.n), limit)
            got = sorted(zip(row.tolist(), node.tolist(), dist.tolist()))
            assert got == [(s, v, d) for s, ref in enumerate(refs) for v, d in enumerate(ref) if d <= limit and d < INF]
            past = graph.past_balls(g, np.full(g.n, i), row, node, dist)
            assert past.tolist() == [min((d for d in ref if limit < d < INF), default=INF) for ref in refs]


def test_algorithms_leave_only_arrays_on_the_graph():
    # the exact, T-SKIM, alpha-SKIM and sketch paths all search the graph;
    # afterwards it holds no per-edge Python list, only numpy arrays: the
    # edge list, the length matrix and the forward and reverse CSRs
    g = random_graph(30, 3, seed=2, ell=4)
    evaluate_prefixes(g, [1, 2, 3], make_harmonic(1))
    run_threshold_im(g, T=0.8, k=4, s_max=3)
    run_pps_im(g, make_harmonic(1), k=4, s_max=3)
    build_cads(g, 4, seed=0)

    def leaves(x):
        if isinstance(x, dict):
            x = list(x.values())
        return [y for z in x for y in leaves(z)] if isinstance(x, (list, tuple)) else [x]

    scalars = ("n", "labels", "median_length")  # node count, per-node labels, one float
    arrays = leaves([v for name, v in vars(g).items() if name not in scalars])
    assert all(isinstance(a, np.ndarray) for a in arrays)
    assert len(arrays) == 3 + 2 * 3


def ball_rows(g, instances, sources, limit):
    """reverse_balls as one list of (node, dist) pairs per row."""
    row, node, dist = graph.reverse_balls(g, instances, sources, limit)
    assert np.all(np.diff(row) >= 0)
    return [list(zip(node[row == r].tolist(), dist[row == r].tolist())) for r in range(len(sources))]


def test_reverse_balls_are_cursor_settles_within_limit():
    # without absorbed lengths, a ball is a Dijkstra search's settle
    # sequence cut at the limit, in the same order, also among tied distances
    for seed in range(4):
        for g in (random_graph(40, 3, seed=seed, ell=2), skewed_graph(40, 3, seed, 2),
                  random_graph(40, 2, seed=seed, model=EdgeLengthModel.unit())):
            sources = list(range(0, g.n, 3))
            instances = [s % g.ell for s in sources]
            for limit in (0.5, 1.0, 2.0, INF):
                for i, s, ball in zip(instances, sources, ball_rows(g, instances, sources, limit)):
                    assert ball == reverse_ball_bf(g, i, s, limit)


def test_reverse_balls_order_absorbed_lengths_by_node():
    # where d + w == d, a ball keeps (distance, node) order, although a
    # Dijkstra search reaches the absorbed node z only after the node x it
    # is absorbed from: z lists first, at x's distance
    g = absorbing_graph(0)
    absorbed = 0
    for i in range(g.ell):
        edges = instance_edges(g, i)
        for s, ball in enumerate(ball_rows(g, i, range(g.n), 1.0)):
            assert ball == reverse_ball_bf(g, i, s, 1.0)
            dist = dict(ball)
            absorbed += sum(z < x and x in dist and dist.get(z) == dist[x] == dist[x] + w for z, x, w in edges)
    assert absorbed > 0


def test_reverse_balls_with_per_row_limits():
    # two rows of one (instance, source) with different limits, limits of 0
    # and inf, absorbed lengths, missing edges and tied distances
    rng = np.random.default_rng(11)
    for g in (random_graph(30, 3, seed=3, ell=2), absorbing_graph(3), *gapped_and_tied(skewed_graph(30, 3, 5, 2), 5)):
        instances, sources = rng.integers(0, g.ell, 40), rng.integers(0, g.n, 40)
        instances[1], sources[1] = instances[0], sources[0]
        limit = rng.exponential(1.0, 40)
        limit[:4] = (0.5, 2.0, 0.0, INF)
        want = [reverse_ball_bf(g, i, s, x) for i, s, x in zip(instances, sources, limit)]
        assert ball_rows(g, instances, sources, limit) == want
        assert want[0] != want[1] and want[2] == [(sources[2], 0.0)]
    with pytest.raises(ValueError, match="one limit or one per"):
        graph.reverse_balls(g, 0, [2, 3], np.ones(3))  # neither one per row nor per (instance, node)


def past_bf(g, i, s, limit):
    """The least distance to s in instance i beyond limit, inf if none."""
    return min((d for _, d in reverse_ball_bf(g, i, s, INF) if d > limit), default=INF)


def test_past_balls_is_the_next_distance():
    # self-loops, parallel edges, nodes without in-edges, and in-edges from
    # inside the ball: 0 -> 2 of length 5 enters node 2 from node 0, which
    # is in 2's ball within 2.5, so past it lies only node 3, at 12
    hand = MultiInstanceGraph(5, [0, 1, 0, 3, 1, 2, 2], [1, 2, 2, 0, 1, 2, 2], [[1.0, 1.0, 5.0, 10.0, 0.5, 0.5, 3.0]])
    row, node, dist = graph.reverse_balls(hand, 0, [2], 2.5)
    assert graph.past_balls(hand, np.zeros(1, np.int64), row, node, dist).tolist() == [12.0]
    rng = np.random.default_rng(12)
    for g in (hand, random_graph(30, 3, seed=4, ell=2), absorbing_graph(4), *gapped_and_tied(skewed_graph(30, 3, 6, 2), 6)):
        instances, sources = rng.integers(0, g.ell, 40), rng.integers(0, g.n, 40)
        limit = rng.exponential(1.0, 40)
        limit[:3] = (0.0, INF, 2.5)
        for bound in (limit, 1.0):
            row, node, dist = graph.reverse_balls(g, instances, sources, bound)
            past = graph.past_balls(g, instances, row, node, dist)
            assert past.tolist() == [past_bf(g, i, s, x) for i, s, x in zip(instances, sources, np.broadcast_to(bound, 40))]


def test_reverse_balls_with_per_node_limits():
    # b lies beyond its bound, so a is not reached through it, whatever a's own bound
    row, node, dist = graph.reverse_balls(line_graph(), 0, [2, 1], np.array([[INF, 0.5, 0.0]]))
    assert list(zip(row.tolist(), node.tolist(), dist.tolist())) == [(0, 2, 0.0), (1, 1, 0.0), (1, 0, 1.0)]
    rng = np.random.default_rng(3)
    for g in (random_graph(30, 3, seed=1, ell=2), absorbing_graph(2), *gapped_and_tied(skewed_graph(30, 3, 4, 2), 4)):
        for scale in (0.5, 2.0):
            bound = rng.exponential(scale, (g.ell, g.n))
            bound[rng.random(bound.shape) < 0.2] = rng.choice([0.0, INF])
            for i in range(g.ell):
                reverse = [(h, t, w) for t, h, w in instance_edges(g, i)]
                row, node, dist = graph.reverse_balls(g, i, range(g.n), bound)
                want = [(s, v, d) for s in range(g.n) for d, v in
                        sorted((d, v) for v, d in enumerate(bf_distances(reverse, g.n, [s], bound[i])) if d < INF)]
                assert list(zip(row.tolist(), node.tolist(), dist.tolist())) == want
    with pytest.raises(ValueError, match="one limit or one per"):
        graph.reverse_balls(line_graph(), 0, [2], np.ones(3))  # one bound per node, not per (instance, node)
    with pytest.raises(ValueError, match="limit"):
        graph.reverse_balls(line_graph(), 0, [2], np.array([[1.0, math.nan, 1.0]]))


def test_reverse_balls_read_each_rows_instance_limit():
    # rows of every instance in one call each get the ball of a call for their instance alone
    rng = np.random.default_rng(5)
    for g in (random_graph(30, 3, seed=2, ell=3), absorbing_graph(1, ell=3), *gapped_and_tied(skewed_graph(30, 3, 6, 3), 6)):
        bound = rng.exponential(1.0, (g.ell, g.n))
        bound[rng.random(bound.shape) < 0.2] = INF
        instances, sources = rng.integers(0, g.ell, 40).tolist(), rng.integers(0, g.n, 40).tolist()
        got = ball_rows(g, instances, sources, bound)
        for i in range(g.ell):
            mine = [r for r, j in enumerate(instances) if j == i]
            assert [got[r] for r in mine] == ball_rows(g, i, [sources[r] for r in mine], bound)


def test_reverse_balls_blocks_and_validation(monkeypatch):
    g = skewed_graph(40, 3, 7, 2)
    sources, instances = list(range(g.n)) * 2, [0] * g.n + [1] * g.n
    limits = (2.0, INF, np.random.default_rng(7).exponential(2.0, (g.ell, g.n)))
    want = [graph.reverse_balls(g, instances, sources, limit) for limit in limits]
    # 5 cells: a round expands 5 edges at a time; 1, 2 or 3 rows of n cells: a table of that many
    # rows, so the call's 80 rows run in 80, 40 or 27 row blocks
    for cells in (5, g.n, 2 * g.n, 3 * g.n):
        monkeypatch.setattr(graph, "_BLOCK_CELLS", cells)
        for limit, balls in zip(limits, want):
            got = graph.reverse_balls(g, instances, sources, limit)
            assert all(np.array_equal(a, b) for a, b in zip(got, balls))
    assert [a.size for a in graph.reverse_balls(g, 0, [], 1.0)] == [0, 0, 0]
    for inst, src in ((0, [g.n]), (2, [0]), (-1, [0])):
        with pytest.raises(ValueError, match="out of range"):
            graph.reverse_balls(g, inst, src, 1.0)


class FailingLengths(np.ndarray):
    """Edge lengths that raise on the read through an index array after `reads` of them."""

    def __getitem__(self, index):
        if isinstance(index, np.ndarray):
            self.reads -= 1
            if self.reads < 0:
                raise RuntimeError("search stopped")
        return np.asarray(super().__getitem__(index))


@pytest.mark.parametrize("cells", [None, 3 * 30], ids=["one-block", "blocks-of-3-rows"])
def test_reverse_balls_reuse_a_callers_table(monkeypatch, cells):
    # consecutive calls that share one table give the balls of calls with
    # fresh tables and leave it all-inf, also after a call that raises
    # mid-search, for one limit, per-row limits and per-node limits
    if cells:
        monkeypatch.setattr(graph, "_BLOCK_CELLS", cells)
    rng = np.random.default_rng(9)
    for g in (random_graph(30, 3, seed=3, ell=2), absorbing_graph(3), skewed_graph(30, 3, 5, 2)):
        table = np.full(graph.block_rows(g.n) * g.n, INF)
        for _ in range(2):
            instances, sources = rng.integers(0, g.ell, 20), rng.integers(0, g.n, 20)
            for limit in (1.0, INF, rng.exponential(1.0, 20), rng.exponential(1.0, (g.ell, g.n))):
                want = graph.reverse_balls(g, instances, sources, limit)
                got = graph.reverse_balls(g, instances, sources, limit, table)
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
                assert (table == INF).all()
        indptr, tails, weights = g.reverse_csr()
        for reads in (0, 1, 3):
            lengths = weights.view(FailingLengths)
            lengths.reads = reads
            with monkeypatch.context() as m:
                m.setattr(g, "reverse_csr", lambda: (indptr, tails, lengths))
                with pytest.raises(RuntimeError, match="search stopped"):
                    graph.reverse_balls(g, instances, sources, INF, table)
            assert (table == INF).all()
        assert all(np.array_equal(a, b) for a, b in zip(graph.reverse_balls(g, instances, sources, 1.0, table),
                                                         graph.reverse_balls(g, instances, sources, 1.0)))
