import math

import numpy as np
import pytest

from distinf import (
    DijkstraCursor,
    EdgeLengthModel,
    GraphFormatError,
    MultiInstanceGraph,
    graph,
    load_edge_list,
    load_npz,
    sample_instances,
    save_npz,
)

from bruteforce import bf_all_pairs, random_graph, skewed_graph

INF = math.inf


def line_graph():
    # a -> b -> c, unit lengths
    return MultiInstanceGraph.from_arrays(3, [0, 1], [1, 2])


# ---------------------------------------------------------------- edge lists


def test_load_unweighted_defaults_to_unit(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n1 2\n")
    g = load_edge_list(str(p))
    assert g.n == 3 and g.ell == 1
    assert g.instances[0].adj[0] == [(1, 1.0)]
    assert g.instances[0].adj[1] == [(2, 1.0)]


def test_load_weighted_reads_length(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1 0.5\n")
    g = load_edge_list(str(p), weighted=True)
    assert g.instances[0].adj[0] == [(1, 0.5)]


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
    assert g.instances[0].adj[0] == [(1, 2.0)]


def test_npz_roundtrip(tmp_path):
    g = random_graph(20, 3, seed=5, ell=3)
    path = str(tmp_path / "g.npz")
    save_npz(g, path)
    h = load_npz(path)
    assert h.n == g.n and h.ell == g.ell
    for a, b in zip(g.instances, h.instances):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.tails, b.tails)


@pytest.mark.parametrize(
    "tails, heads, lengths",
    [([0, 1], [1, -1], [1.0, 1.0]), ([0, 1], [1, 5], [1.0, 1.0]), ([0, 1], [1, 2], [1.0, math.nan])],
    ids=["negative-head", "head-past-n", "nan-length"],
)
def test_instance_rejects_bad_edges(tails, heads, lengths):
    with pytest.raises(ValueError):
        MultiInstanceGraph.from_arrays(3, tails, heads, [lengths])


# ------------------------------------------------------------- sampling


def test_unit_model_copies_base():
    base = line_graph()
    g = sample_instances(base, EdgeLengthModel.unit(), 3)
    assert g.ell == 3
    for inst in g.instances:
        assert inst.adj == base.instances[0].adj


def test_sampling_is_deterministic():
    base = line_graph()
    model = EdgeLengthModel.exponential(1.0, seed=7)
    a = sample_instances(base, model, 4)
    b = sample_instances(base, model, 4)
    for ia, ib in zip(a.instances, b.instances):
        assert np.array_equal(ia.weights, ib.weights)


def test_sampling_leaves_base_untouched():
    base = line_graph()
    before = [list(inst.weights) for inst in base.instances]
    sample_instances(base, EdgeLengthModel.exponential(1.0, seed=3), 5)
    assert [list(inst.weights) for inst in base.instances] == before


def test_exponential_mean_close_to_one():
    # law of large numbers over >= 1e5 draws
    g = random_graph(500, 4, seed=11, ell=64)
    draws = np.concatenate([inst.weights for inst in g.instances])
    assert draws.size >= 100_000
    assert 0.95 <= draws.mean() <= 1.05


def test_weibull_positive_and_deterministic():
    base = line_graph()
    model = EdgeLengthModel.weibull(seed=2)
    a = sample_instances(base, model, 8)
    b = sample_instances(base, model, 8)
    for ia, ib in zip(a.instances, b.instances):
        assert np.array_equal(ia.weights, ib.weights)
        assert (ia.weights > 0).all()


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
    # node 1 does not improve its start distance, so its out-edge is not relaxed
    got = graph.distance_rows(line_graph(), 0, [0], start=np.array([[INF, 1.0, INF]]))
    assert got.tolist() == [[0.0, 1.0, INF]]


def _graphs_with_sinks():
    for seed in range(4):
        yield random_graph(30, 1.5, seed=seed, ell=2)
        yield random_graph(30, 1.5, seed=seed, model=EdgeLengthModel.unit())  # distances equal to limit
        yield skewed_graph(30, 2, seed, 2)


@pytest.mark.parametrize("limit", [INF, 1.0, 2.0])
def test_distance_rows_match_bellman_ford(limit):
    sinks = 0
    for g in _graphs_with_sinks():
        sinks += sum(int((np.bincount(inst.tails, minlength=g.n) == 0).sum()) for inst in g.instances)
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
    with pytest.raises(ValueError):
        graph.distance_rows(line_graph(), 0, [0], start=np.zeros((2, 3)))


def test_distance_rows_mixed_instance_rows():
    g = skewed_graph(30, 2, 3, 3)
    ref = bf_all_pairs(g)
    rng = np.random.default_rng(0)
    inst, src = rng.integers(0, g.ell, 50), rng.integers(0, g.n, 50)
    rows = graph.distance_rows(g, inst, src)
    assert np.array_equal(rows, np.array([ref[i][s] for i, s in zip(inst, src)]))


def test_distance_rows_instances_with_own_topologies():
    a, b = random_graph(25, 2, seed=1), random_graph(25, 3, seed=2, ell=2)
    g = MultiInstanceGraph(25, [b.instances[0], a.instances[0], b.instances[1]])
    ref = bf_all_pairs(g)
    for i in range(g.ell):
        assert np.array_equal(graph.distance_rows(g, i, range(g.n)), ref[i])


def test_bounded_cursor_settles_nodes_within_limit():
    for seed in range(4):
        for g in (random_graph(40, 3, seed=seed, ell=2), skewed_graph(40, 3, seed, 2),
                  random_graph(40, 2, seed=seed, model=EdgeLengthModel.unit())):
            for src in range(0, g.n, 9):
                for limit in (0.5, 1.0, 2.0):
                    whole = list(DijkstraCursor(g, 0, src).resume())
                    bounded = DijkstraCursor(g, 0, src, limit)
                    assert list(bounded.resume()) == [(u, d) for u, d in whole if d <= limit]
                    assert bounded.exhausted and bounded.mu == INF


# ------------------------------------------------------------- cursor


def test_reverse_cursor_full_run():
    g = line_graph()
    cur = DijkstraCursor(g, 0, 2)
    assert cur.mu == 0.0
    assert list(cur.resume()) == [(2, 0.0), (1, 1.0), (0, 2.0)]
    assert cur.exhausted


def test_reverse_cursor_pause_and_resume():
    g = line_graph()
    cur = DijkstraCursor(g, 0, 2)
    first = list(cur.resume(stop=lambda d: d >= 1))
    assert first == [(2, 0.0)]
    assert cur.mu == 1.0
    rest = list(cur.resume())
    assert rest == [(1, 1.0), (0, 2.0)]


def test_reverse_cursor_isolated_source():
    g = line_graph()
    cur = DijkstraCursor(g, 0, 0)  # nothing reaches a
    assert list(cur.resume()) == [(0, 0.0)]
    assert cur.exhausted


def test_resuming_terminated_cursor_raises():
    g = line_graph()
    cur = DijkstraCursor(g, 0, 0)
    list(cur.resume())
    with pytest.raises(RuntimeError):
        cur.resume()


def test_pause_resume_equals_single_run():
    rng = np.random.default_rng(0)
    for seed in range(8):
        g = random_graph(30, 3, seed=seed, ell=1)
        src = int(rng.integers(30))
        whole = list(DijkstraCursor(g, 0, src).resume())
        cur = DijkstraCursor(g, 0, src)
        cuts = sorted(rng.uniform(0, 4, size=3))
        pieces = []
        for c in cuts:
            if cur.exhausted:
                break
            pieces.extend(cur.resume(stop=lambda d, c=c: d >= c))
        if not cur.exhausted:
            pieces.extend(cur.resume())
        assert pieces == whole
