import argparse
import contextlib
import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from distinf import (
    estimate_influence,
    load_edge_list,
    load_sketches,
    parse_decay,
    threshold_influence_estimate,
)
from distinf.cli import _held_out_graph, main
from distinf.graph import load_npz


@pytest.fixture
def edges_file(tmp_path):
    p = tmp_path / "edges.txt"
    lines = []
    for a in range(12):
        lines.append(f"{a} {(a + 1) % 12}")
        lines.append(f"{a} {(a + 5) % 12}")
    p.write_text("\n".join(lines) + "\n")
    return str(p)


@pytest.fixture
def line_edges(tmp_path):
    p = tmp_path / "line.txt"
    p.write_text("0 1\n1 2\n")
    return str(p)


def test_gen_writes_cache(edges_file, tmp_path, capsys):
    out = str(tmp_path / "g.npz")
    assert main(["gen", "--edges", edges_file, "--model", "exp:1", "--ell", "4",
                 "--seed", "3", "--out", out]) == 0
    assert "n=12 ell=4" in capsys.readouterr().out


def test_gen_writes_the_path_it_is_given(edges_file, tmp_path):
    cache = str(tmp_path / "g.cache")
    assert main(["gen", "--edges", edges_file, "--ell", "2", "--out", cache]) == 0
    assert main(["greedy", "exact", "--graph", cache, "--decay", "exp:1", "--seeds", "2"]) == 0


def test_greedy_exact_outputs_csv(edges_file, tmp_path):
    out = str(tmp_path / "trace.csv")
    rc = main(["greedy", "exact", "--edges", edges_file, "--model", "unit", "--ell", "1",
               "--decay", "harmonic:1", "--seeds", "3", "--out", out])
    assert rc == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0] == "rank,seed,exact_marginal,estimated_marginal"
    assert len(lines) == 4


def test_im_threshold_deterministic(edges_file, tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = str(tmp_path / name)
        rc = main(["im", "threshold", "--edges", edges_file, "--model", "exp:1",
                   "--ell", "4", "--seed", "7", "--T", "1.0", "--k", "8",
                   "--seeds", "5", "--out", out])
        assert rc == 0
        outs.append(open(out).read())
    assert outs[0] == outs[1]


def test_im_alpha_writes_metrics(edges_file, tmp_path):
    out = str(tmp_path / "trace.csv")
    metrics = str(tmp_path / "metrics.json")
    rc = main(["im", "alpha", "--edges", edges_file, "--model", "exp:1", "--ell", "4",
               "--seed", "1", "--decay", "exp:10", "--k", "8", "--seeds", "4",
               "--out", out, "--metrics", metrics])
    assert rc == 0
    md = json.loads(open(metrics).read())
    assert md["tau_schedule"]
    assert "delta_updates_total" in md


def test_im_threshold_held_out_eval(edges_file, tmp_path):
    out = str(tmp_path / "trace.csv")
    eval_out = str(tmp_path / "eval.csv")
    rc = main(["im", "threshold", "--edges", edges_file, "--model", "exp:1",
               "--ell", "4", "--seed", "7", "--T", "1.0", "--k", "8", "--seeds", "4",
               "--eval-instances", "16", "--eval-out", eval_out, "--out", out])
    assert rc == 0
    lines = open(eval_out).read().strip().split("\n")
    assert lines[0] == "prefix,influence,influence_pct"
    assert len(lines) == 5


def test_held_out_instances_are_no_seeds_training_instances(edges_file, tmp_path):
    # im --seed 0 on a cache made by gen --seed 1 evaluates on new instances
    cache = str(tmp_path / "g.npz")
    assert main(["gen", "--edges", edges_file, "--ell", "8", "--seed", "1", "--out", cache]) == 0
    args = argparse.Namespace(edges=edges_file, weighted=False, model="exp:1", seed=0)
    held = _held_out_graph(args, 8)
    assert not np.any(held.weights == load_npz(cache).weights)


def test_im_alpha_adaptive_mode(edges_file, tmp_path):
    out = str(tmp_path / "trace.csv")
    rc = main(["im", "alpha", "--edges", edges_file, "--model", "exp:1", "--ell", "2",
               "--seed", "1", "--decay", "harmonic:1", "--k", "8", "--seeds", "3",
               "--mode", "adaptive:0.1", "--out", out])
    assert rc == 0
    assert len(open(out).read().strip().split("\n")) == 4


def test_oracle_roundtrip(edges_file, tmp_path, capsys):
    sk = str(tmp_path / "sk.bin")
    rc = main(["oracle", "build", "--edges", edges_file, "--model", "exp:1",
               "--ell", "4", "--seed", "2", "--k", "8", "--out", sk])
    assert rc == 0
    capsys.readouterr()
    seeds_file = tmp_path / "seeds.txt"
    seeds_file.write_text("0\n5\n")
    rc = main(["oracle", "query", "--sketches", sk, "--seeds-file", str(seeds_file),
               "--decay", "harmonic:1"])
    assert rc == 0
    est = float(capsys.readouterr().out.strip())
    assert est >= 2.0  # at least the two seeds' own contribution


def test_oracle_threshold_requires_matching_decay(edges_file, tmp_path, capsys):
    sk = str(tmp_path / "tsk.bin")
    seeds_file = tmp_path / "seeds.txt"
    seeds_file.write_text("0\n")
    for built, wrong, right in (("0.5", "threshold:0.9", "threshold:0.5"),
                                ("0.1234567", "threshold:0.1234568", "threshold:0.1234567")):
        assert main(["oracle", "build", "--edges", edges_file, "--model", "exp:1",
                     "--ell", "2", "--seed", "2", "--k", "8", "--threshold", built,
                     "--out", sk]) == 0
        for decay, rc in ((wrong, 2), ("exp:1", 2), (right, 0)):
            assert main(["oracle", "query", "--sketches", sk, "--seeds-file", str(seeds_file),
                         "--decay", decay]) == rc


@pytest.mark.parametrize("threshold", [False, True])
def test_oracle_query_rejects_out_of_range_seed(edges_file, tmp_path, capsys, threshold):
    # seeds are node labels; "-1" and "12" name no node of the 12-node graph
    sk = str(tmp_path / "sk.bin")
    kind = ["--threshold", "0.5"] if threshold else []
    assert main(["oracle", "build", "--edges", edges_file, "--model", "exp:1",
                 "--ell", "2", "--seed", "2", "--k", "8", *kind, "--out", sk]) == 0
    decay = "threshold:0.5" if threshold else "exp:1"
    for bad in ("-1", "12"):
        seeds_file = tmp_path / "seeds.txt"
        seeds_file.write_text(f"0\n{bad}\n")
        capsys.readouterr()
        assert main(["oracle", "query", "--sketches", sk, "--seeds-file", str(seeds_file),
                     "--decay", decay]) == 2
        assert f"unknown node label: {bad!r}" in capsys.readouterr().err


def _query(capsys, sk, decay="exp:1", seeds="0\n"):
    """Exit code and stderr of `oracle query` on the sketch file sk."""
    seeds_file = sk.parent / "seeds.txt"
    seeds_file.write_text(seeds)
    capsys.readouterr()
    rc = main(["oracle", "query", "--sketches", str(sk), "--seeds-file", str(seeds_file), "--decay", decay])
    return rc, capsys.readouterr().err


def test_truncated_sketch_file_exits_2(edges_file, tmp_path, capsys):
    sk = tmp_path / "sk.bin"
    assert main(["oracle", "build", "--edges", edges_file, "--model", "exp:1",
                 "--ell", "2", "--seed", "2", "--k", "8", "--out", str(sk)]) == 0
    cut = tmp_path / "cut.bin"
    cut.write_bytes(sk.read_bytes()[:60])
    rc, err = _query(capsys, cut)
    # tmp_path is named after the test, so the message is matched without the path
    assert rc == 2 and "truncated" in err.replace(str(cut), "") and err.count("\n") == 1


def _write_columns(path, cols):
    with open(path, "wb") as fh:  # np.savez would add .npz to a bare name
        np.savez(fh, **cols)


def _rewrite(sk, change):
    """A copy of the sketch file sk whose columns change(cols) has edited."""
    with np.load(sk) as data:
        cols = dict(data)
    change(cols)
    bad = sk.parent / "bad.bin"
    _write_columns(bad, cols)
    return bad


def _node_0(corrupt):
    """Apply corrupt(rank, dist, node, instance) to the entries of node 0 in place."""
    def change(cols):
        a, b = cols["offsets"][:2]
        corrupt(*(cols[name][a:b] for name in ("rank", "dist", "node", "instance")))
        cols["ell"] = np.int64(3)  # ranks 25..36 of the 12 * 3 pairs name no pair in the file
    return change


def _set_last_distance(value):
    def corrupt(rank, dist, node, inst):
        dist[-1] = value
    return corrupt


def _swap_last_two(*cols):
    for c in cols:
        c[-2:] = c[-2:][::-1].copy()


def _repeat_entry(rank, dist, node, inst):
    rank[-1], node[-1], inst[-1] = rank[-2], node[-2], inst[-2]


def _rank_of_two_pairs(rank, *cols):
    rank[-1] = rank[-2]


def _pair_of_two_ranks(rank, *cols):
    rank[-1] = 25


def _unknown_rank(rank, *cols):
    rank[-1] = 2**62


def _unknown_node(rank, dist, node, inst):
    node[-1] = 12


def _negative_instance(rank, dist, node, inst):
    inst[-1] = -1


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_set_last_distance(math.nan), "distance nan"),
        (_set_last_distance(math.inf), "distance inf"),
        (_set_last_distance(-1.0), "distance -1.0"),
        (_swap_last_two, "out of key order"),
        (_repeat_entry, "repeats rank"),
        (_unknown_rank, f"holds rank {2**62} outside [1, 36]"),
        (_rank_of_two_pairs, "'s sketch gives rank"),
        (_pair_of_two_ranks, "rank 25 to pair"),
        (_unknown_node, "names pair (12, "),
        (_negative_instance, ", -1) outside [0, 12) x [0, 3)"),
    ],
    ids=["nan", "inf", "negative", "out-of-order", "repeated-rank", "unknown-rank", "rank-of-two-pairs",
         "pair-of-two-ranks", "unknown-node", "negative-instance"],
)
def test_malformed_sketch_record_exits_2(edges_file, tmp_path, capsys, corrupt, message):
    sk = tmp_path / "sk.bin"
    assert main(["oracle", "build", "--edges", edges_file, "--model", "exp:1",
                 "--ell", "2", "--seed", "2", "--k", "8", "--out", str(sk)]) == 0
    rc, err = _query(capsys, _rewrite(sk, _node_0(corrupt)))
    assert rc == 2 and message in err and "node 0" in err and err.count("\n") == 1


def _set_node_0_ranks(ranks):
    """Replace node 0's ranks in a threshold sketch file's columns."""
    def change(cols):
        b = cols["offsets"][1]
        cols["rank"] = np.concatenate([np.array(ranks, dtype=np.int64), cols["rank"][b:]])
        cols["offsets"][1:] += len(ranks) - b
    return change


@pytest.mark.parametrize(
    "ranks, message",
    [
        ([1, 10**12], f"holds rank {10**12} outside [1, 24]"),
        ([2, 1], "not strictly increasing"),
        ([1, 1], "not strictly increasing"),
        ([1, 2, 3, 4, 5], "holds 5 ranks, more than k=4"),
    ],
    ids=["unknown-rank", "out-of-order", "repeated-rank", "over-k"],
)
def test_malformed_threshold_record_exits_2(edges_file, tmp_path, capsys, ranks, message):
    # 12 nodes x 2 instances: the permutation ranks are 1..24
    sk = tmp_path / "tsk.bin"
    assert main(["oracle", "build", "--edges", edges_file, "--model", "exp:1", "--ell", "2",
                 "--seed", "2", "--k", "4", "--threshold", "0.5", "--out", str(sk)]) == 0
    rc, err = _query(capsys, _rewrite(sk, _set_node_0_ranks(ranks)), decay="threshold:0.5")
    assert rc == 2 and message in err and "node 0" in err and err.count("\n") == 1


def _set(**values):
    def change(cols):
        cols.update(values)
    return change


def _drop(*names):
    def change(cols):
        for name in names:
            del cols[name]
    return change


def _drop_last(name):
    def change(cols):
        cols[name] = cols[name][:-1]
    return change


@pytest.mark.parametrize(
    "change, message",
    [
        (_set(n=np.int64(13)), "offsets must rise from 0"),
        (_drop_last("rank"), "offsets must rise from 0"),
        (_drop_last("dist"), "offsets must rise from 0 to the length of each entry column"),
        (_drop_last("instance"), "offsets must rise from 0 to the length of each entry column"),
        # fails on the offsets, before any per-node array of 2**40 entries is made
        (_set(n=np.int64(2**40), offsets=np.array([0, 1, 2])), "offsets must rise from 0"),
        (_set(model=np.str_("zipf")), "unknown rank model 'zipf'"),
        (_set(k=np.array([8, 8])), "array k is 1-d"),
        (_set(seed=np.int64(-3)), "needs n, ell >= 1 and seed >= 0, got n=12 ell=2 seed=-3"),
        # n*ell = 3 * 2**64 would overflow the int64 rank thresholds of a query
        (_set(ell=np.int64(2**62)), "more than int64 ranks can number"),
        (_set(labels=np.array(["0", "0", *map(str, range(2, 12))])), "need 12 distinct node labels"),
        (_set(labels=np.array(["0"])), "need 12 distinct node labels"),
        (_set(labels=np.array([" 0", *map(str, range(1, 12))])), "node label ' 0' is empty or holds whitespace"),
        (_drop("node", "instance", "labels"), "not a sketch file: lacks array(s) labels"),
        (_drop("node", "instance"), "not a sketch file: lacks array(s) instance, node"),
    ],
    ids=["offsets-vs-n", "offsets-vs-ranks", "short-dist", "short-instance", "huge-n", "unknown-model",
         "k-not-scalar", "negative-seed", "ell-overflows-ranks", "repeated-label", "fewer-labels", "blank-label",
         "pre-label-file", "no-pair-columns"],
)
def test_malformed_sketch_columns_exit_2(edges_file, tmp_path, capsys, change, message):
    sk = tmp_path / "sk.bin"
    assert main(["oracle", "build", "--edges", edges_file, "--model", "exp:1",
                 "--ell", "2", "--seed", "2", "--k", "8", "--out", str(sk)]) == 0
    rc, err = _query(capsys, _rewrite(sk, change))
    assert rc == 2 and message in err and err.count("\n") == 1


def test_sketch_file_claiming_huge_ell_loads_in_bounded_memory(edges_file, tmp_path, capsys):
    # no (n, ell) table is made, so memory is bounded by the file, not by its ell
    sk = tmp_path / "sk.bin"
    assert main(["oracle", "build", "--edges", edges_file, "--model", "exp:1",
                 "--ell", "2", "--seed", "2", "--k", "8", "--out", str(sk)]) == 0
    huge = _rewrite(sk, _set(ell=np.int64(2**40)))
    rc, err = _query(capsys, huge)
    assert rc == 0 or (rc == 2 and err.count("\n") == 1)

    def load_peak(path):
        tracemalloc.start()
        try:
            load_sketches(str(path))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert load_peak(huge) <= 2 * load_peak(sk)


def test_sketch_file_with_k_zero_exits_2(tmp_path, capsys):
    # threshold sketch file of a 2-node, 2-instance graph with k=0
    sk = tmp_path / "k0.bin"
    _write_columns(sk, {"offsets": np.zeros(3, np.int64), "rank": np.zeros(0, np.int64),
                        "labels": np.array(["a", "b"]), "k": np.int64(0), "n": np.int64(2), "ell": np.int64(2), "seed": np.int64(1),
                        "model": np.str_("permutation"), "T": np.float64(1.0)})
    rc, err = _query(capsys, sk, decay="threshold:1")
    assert rc == 2 and "k must be at least 1" in err and "Traceback" not in err


def test_sketch_file_with_no_nodes_exits_2(tmp_path, capsys):
    # combined sketch file with the uniform rank model and n=0
    sk = tmp_path / "n0.bin"
    _write_columns(sk, {"offsets": np.zeros(1, np.int64), "rank": np.zeros(0, np.int64),
                        "dist": np.zeros(0), "node": np.zeros(0, np.int32), "instance": np.zeros(0, np.int32),
                        "labels": np.array([], dtype="U1"), "k": np.int64(4), "n": np.int64(0), "ell": np.int64(2),
                        "seed": np.int64(1), "model": np.str_("uniform"), "T": np.float64(math.nan)})
    rc, err = _query(capsys, sk)
    assert rc == 2 and "n, ell >= 1" in err and "Traceback" not in err


def test_wrong_kind_of_file_exits_2(edges_file, tmp_path, capsys):
    # an old-format sketch file, a graph cache given as sketches, and a sketch
    # file given as a graph each fail with one line
    old = tmp_path / "old.bin"
    old.write_bytes(b"DSK1" + bytes(36))
    rc, err = _query(capsys, old)
    assert rc == 2 and "not an npz file" in err and err.count("\n") == 1
    g, sk = tmp_path / "g.npz", tmp_path / "sk.bin"
    assert main(["gen", "--edges", edges_file, "--ell", "2", "--out", str(g)]) == 0
    rc, err = _query(capsys, g)
    assert rc == 2 and "not a sketch file" in err and err.count("\n") == 1
    assert main(["oracle", "build", "--graph", str(g), "--k", "4", "--out", str(sk)]) == 0
    capsys.readouterr()
    assert main(["greedy", "exact", "--graph", str(sk), "--decay", "exp:1", "--seeds", "1"]) == 2
    err = capsys.readouterr().err
    assert "not a graph cache" in err and err.count("\n") == 1


def test_trace_stdout_matches_out_file(edges_file, tmp_path, capsys):
    argv = ["im", "threshold", "--edges", edges_file, "--model", "exp:1", "--ell", "4",
            "--seed", "7", "--T", "1.0", "--k", "8", "--seeds", "5"]
    out = tmp_path / "trace.csv"
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_eval_unit_model_line_graph(line_edges, tmp_path):
    seeds_file = tmp_path / "seeds.txt"
    seeds_file.write_text("0\n")
    out = str(tmp_path / "eval.csv")
    rc = main(["eval", "--edges", line_edges, "--model", "unit", "--m", "4",
               "--seeds-file", str(seeds_file), "--decay", "threshold:1.5",
               "--out", out])
    assert rc == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0] == "prefix,influence,influence_pct"
    prefix, influence, pct = lines[1].split(",")
    assert float(influence) == 2.0
    assert pct == "66.67"


def test_eval_empty_seed_list(line_edges, tmp_path):
    seeds_file = tmp_path / "seeds.txt"
    seeds_file.write_text("")
    out = str(tmp_path / "eval.csv")
    assert main(["eval", "--edges", line_edges, "--model", "unit", "--m", "2",
                 "--seeds-file", str(seeds_file), "--decay", "threshold:1.5",
                 "--out", out]) == 0
    assert open(out).read().strip() == "prefix,influence,influence_pct"


def test_eval_full_prefix_reaches_100_pct(line_edges, tmp_path):
    seeds_file = tmp_path / "seeds.txt"
    seeds_file.write_text("0\n1\n2\n")
    out = str(tmp_path / "eval.csv")
    main(["eval", "--edges", line_edges, "--model", "unit", "--m", "2",
          "--seeds-file", str(seeds_file), "--decay", "threshold:1.5", "--out", out])
    assert open(out).read().strip().split("\n")[-1].endswith("100.00")


def test_eval_unknown_seed_is_validation_error(line_edges, tmp_path):
    seeds_file = tmp_path / "seeds.txt"
    seeds_file.write_text("99\n")
    rc = main(["eval", "--edges", line_edges, "--model", "unit", "--m", "2",
               "--seeds-file", str(seeds_file), "--decay", "threshold:1.5"])
    assert rc == 2


def _metrics(tmp_path, argv):
    """The --metrics report of a traced command, and its trace's row count."""
    out, metrics = str(tmp_path / "trace.csv"), str(tmp_path / "metrics.json")
    assert main([*argv, "--out", out, "--metrics", metrics]) == 0
    with open(out) as fh:
        rows = len(fh.read().strip().split("\n")) - 1
    with open(metrics) as fh:
        return json.load(fh), rows


def test_bench_tskim_json(edges_file, tmp_path):
    rep, rows = _metrics(tmp_path, ["im", "threshold", "--edges", edges_file, "--model", "exp:1", "--ell", "4",
                                    "--T", "1.0", "--k", "8", "--seeds", "6"])
    assert rep["run_sec"] > 0 and len(rep["per_seed_sec"]) == rows
    series = rep["per_seed_sec"]
    cumulative = [sum(series[: i + 1]) for i in range(len(series))]
    assert all(a <= b + 1e-12 for a, b in zip(cumulative, cumulative[1:]))
    assert sum(series) <= rep["run_sec"]
    assert rep["pairs_searched"] > 0 and rep["ball_entries"] >= rep["pairs_searched"]


def test_bench_askim_has_tau_schedule(edges_file, tmp_path):
    rep, _ = _metrics(tmp_path, ["im", "alpha", "--edges", edges_file, "--model", "exp:1", "--ell", "2",
                                 "--decay", "exp:10", "--k", "8", "--seeds", "3"])
    assert rep["tau_schedule"]


def test_bench_greedy_reports_seed_times_and_candidates(edges_file, tmp_path):
    rep, rows = _metrics(tmp_path, ["greedy", "exact", "--edges", edges_file, "--model", "exp:1", "--ell", "2",
                                    "--decay", "exp:1", "--seeds", "4"])
    assert rows == 4 and len(rep["per_seed_sec"]) == 4
    assert all(t > 0 for t in rep["per_seed_sec"])
    assert rep["candidates_scored"] >= 3  # every seed after the first follows at least one re-score


def test_bench_oracle_build(edges_file, tmp_path, capsys):
    sk = str(tmp_path / "sk.bin")
    for threshold in ([], ["--threshold", "1.0"]):
        rc = main(["oracle", "build", "--edges", edges_file, "--model", "exp:1", "--ell", "2",
                   "--k", "4", "--out", sk, *threshold])
        assert rc == 0
        fields = dict(tok.split("=") for tok in capsys.readouterr().out.split() if "=" in tok)
        sketches, _, _ = load_sketches(sk)
        entries = sum(len(s.ranks) if threshold else len(s) for s in sketches)
        assert int(fields["entries"]) == entries > 0
        assert float(fields["build_ms"]) > 0


@pytest.mark.parametrize(
    "argv, counters",
    [(["im", "threshold", "--T", "1.0", "--k", "8"],
      ["pairs_searched", "ball_entries", "pairs_covered", "delta_updates_total"]),
     (["im", "alpha", "--decay", "exp:10", "--k", "8"],
      ["tau_schedule", "cursor_scans", "delta_updates_total", "pairs_searched", "ball_entries"]),
     (["greedy", "exact", "--decay", "exp:1"], ["candidates_scored"])],
    ids=["tskim", "askim", "greedy"],
)
def test_metrics_report_one_schema(edges_file, tmp_path, argv, counters):
    rep, rows = _metrics(tmp_path, [*argv, "--edges", edges_file, "--ell", "3", "--seeds", "4"])
    assert rep["n"] == 12 and rep["ell"] == 3
    assert rep["load_sec"] > 0 and rep["run_sec"] > 0
    assert rows == 4 and len(rep["per_seed_sec"]) == rows
    assert all(name in rep for name in counters)


_SEQUENCE_COMMANDS = [["im", "alpha", "--decay", "exp:10", "--k", "8"], ["im", "threshold", "--T", "1.0", "--k", "8"],
                      ["greedy", "exact", "--decay", "exp:1"]]


@pytest.mark.parametrize("argv", _SEQUENCE_COMMANDS, ids=["askim", "tskim", "greedy"])
def test_negative_seed_count_exits_2(edges_file, capsys, argv):
    # each used to print the CSV header alone and exit 0
    rc = main([*argv, "--edges", edges_file, "--ell", "2", "--seeds", "-2"])
    captured = capsys.readouterr()
    assert rc == 2 and "seed count" in captured.err and captured.err.count("\n") == 1 and not captured.out


@pytest.mark.parametrize("argv", _SEQUENCE_COMMANDS, ids=["askim", "tskim", "greedy"])
def test_seed_count_above_n_exits_2(tmp_path, capsys, argv):
    # alpha-SKIM capped the count at n and exited 0
    edges = tmp_path / "cycle.txt"
    edges.write_text("0 1\n1 2\n2 3\n3 0\n")
    rc = main([*argv, "--edges", str(edges), "--ell", "2", "--seeds", "5"])
    captured = capsys.readouterr()
    assert rc == 2 and "seed count must be in [0, 4]" in captured.err and captured.err.count("\n") == 1
    assert not captured.out


_GRAPH_COMMANDS = {
    "oracle-build": ["oracle", "build", "--k", "4", "--out", "sk.bin"],
    "oracle-build-threshold": ["oracle", "build", "--k", "4", "--threshold", "1.5", "--out", "tsk.bin"],
    "im-threshold": ["im", "threshold", "--T", "1.0", "--k", "4", "--seeds", "0"],
    "im-alpha": ["im", "alpha", "--decay", "exp:10", "--k", "4", "--seeds", "0"],
    "greedy-exact": ["greedy", "exact", "--decay", "exp:1", "--seeds", "0"],
}


@pytest.mark.parametrize("argv", [
    pytest.param(["gen", "--edges", "empty.txt", "--out", "g.npz"], id="gen-edges"),
    pytest.param(["eval", "--edges", "empty.txt", "--m", "2", "--decay", "exp:1", "--seeds-file", "seeds.txt"],
                 id="eval-edges"),
    *(pytest.param([*cmd, "--edges", "empty.txt", "--ell", "2"], id=f"{name}-edges")
      for name, cmd in _GRAPH_COMMANDS.items()),
    *(pytest.param([*cmd, "--graph", "empty.npz"], id=f"{name}-cache") for name, cmd in _GRAPH_COMMANDS.items()),
])
def test_graph_without_nodes_exits_2(tmp_path, monkeypatch, capsys, argv):
    # an edge list with no edge lines made an n=0 cache, which failed later with
    # a message about ranks or seed counts
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.txt").write_text("# no edges\n\n")
    (tmp_path / "seeds.txt").write_text("")
    np.savez(tmp_path / "empty.npz", n=np.int64(0), tails=np.zeros(0, np.int64), heads=np.zeros(0, np.int64),
             weights=np.ones((1, 0)), labels=np.array([], dtype="U1"))
    rc = main(argv)
    captured = capsys.readouterr()
    message = "at least one node, got n=0" if "empty.npz" in argv else "empty.txt: no edges"
    assert rc == 2 and message in captured.err and captured.err.count("\n") == 1 and not captured.out


def test_bench_subcommand_is_gone(edges_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--edges", edges_file, "--algo", "tskim"])
    assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["0", "1"])
def test_threshold_oracle_build_needs_k_two(tmp_path, capsys, k):
    edges = tmp_path / "cycle.txt"
    edges.write_text("0 1\n1 2\n2 3\n3 0\n")
    rc = main(["oracle", "build", "--edges", str(edges), "--ell", "4", "--seed", "1",
               "--threshold", "1.5", "--k", k, "--out", str(tmp_path / "tsk.bin")])
    err = capsys.readouterr().err
    assert rc == 2 and "at least 2" in err and err.count("\n") == 1 and "Traceback" not in err


def test_threshold_sketch_file_with_k_one_exits_2(tmp_path, capsys):
    sk = tmp_path / "k1.bin"
    _write_columns(sk, {"offsets": np.arange(3, dtype=np.int64), "rank": np.array([1, 2], np.int64),
                        "labels": np.array(["a", "b"]), "k": np.int64(1), "n": np.int64(2), "ell": np.int64(1),
                        "seed": np.int64(1), "model": np.str_("permutation"), "T": np.float64(1.0)})
    rc, err = _query(capsys, sk, decay="threshold:1", seeds="a\n")
    assert rc == 2 and "2 for threshold sketches" in err and err.count("\n") == 1


def test_graph_cache_with_repeated_labels_exits_2(tmp_path, capsys):
    # repeated labels, and labels a stripped seeds-file line cannot name
    for labels, message in ((["a", "a", "c"], "distinct node labels"), ([" a", "b", "c"], "node label ' a'"),
                            (["a\n", "b", "c"], "node label 'a\\n'"), (["", "b", "c"], "node label ''")):
        p = str(tmp_path / "g.npz")
        np.savez(p, n=np.int64(3), tails=np.array([0, 1]), heads=np.array([1, 2]), weights=np.ones((1, 2)),
                 labels=np.array(labels))
        rc = main(["greedy", "exact", "--graph", p, "--decay", "exp:1", "--seeds", "3"])
        err = capsys.readouterr().err
        assert rc == 2 and message in err and err.count("\n") == 1


def test_trace_csv_quotes_a_label_with_a_comma(tmp_path):
    # load_edge_list takes "x,y" as one label; unquoted, it split the trace row
    edges = tmp_path / "edges.txt"
    edges.write_text("x,y b\nb c\n")
    out = tmp_path / "trace.csv"
    assert main(["greedy", "exact", "--edges", str(edges), "--model", "unit", "--ell", "1",
                 "--decay", "harmonic:1", "--seeds", "1", "--out", str(out)]) == 0
    (row,) = csv.DictReader(out.open())
    assert (row["rank"], row["seed"], row["estimated_marginal"]) == ("1", "x,y", "")
    assert float(row["exact_marginal"]) == pytest.approx(1 + 1 / 2 + 1 / 3)


def test_validation_error_exit_code(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 1 -2\n")
    rc = main(["greedy", "exact", "--edges", str(p), "--weighted", "--model", "unit",
               "--ell", "1", "--decay", "harmonic:1", "--seeds", "1"])
    assert rc == 2


def _cut_to_300_bytes(p):
    with open(p, "rb") as fh:
        data = fh.read()
    assert len(data) > 300
    with open(p, "wb") as fh:
        fh.write(data[:300])


def _bare_npy(p):
    with open(p, "wb") as fh:
        np.save(fh, np.arange(3))


@pytest.mark.parametrize(
    "change, damage",
    [({"heads": np.array([1, -1])}, None), ({"labels": np.array(["a"])}, None), ({"weights": None}, None),
     ({"tails": np.array([0.5, 1.0])}, None), ({"labels": np.array(["a", "b", "c"], dtype=object)}, None),
     ({}, _cut_to_300_bytes), ({}, _bare_npy)],
    ids=["negative-head", "fewer-labels", "missing-array", "float-tails", "pickled-labels", "cut-to-300-bytes",
         "bare-npy"],
)
def test_bad_npz_is_validation_error(tmp_path, capsys, change, damage):
    arrays = {"n": np.int64(3), "tails": np.array([0, 1]), "heads": np.array([1, 2]),
              "weights": np.ones((1, 2)), "labels": np.array(["a", "b", "c"]), **change}
    p = str(tmp_path / "g.npz")
    np.savez(p, **{name: a for name, a in arrays.items() if a is not None})
    if damage:
        damage(p)
    rc = main(["greedy", "exact", "--graph", p, "--decay", "harmonic:1", "--seeds", "3"])
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1 and "Traceback" not in err


@pytest.fixture
def labelled_edges(tmp_path):
    # labels differ from the dense indices: "10" is node 3, the best seed
    p = tmp_path / "labelled.txt"
    p.write_text("1 2\n2 3\n3 1\n10 1\n")
    return str(p)


def test_trace_prints_node_labels(labelled_edges, capsys):
    assert main(["greedy", "exact", "--edges", labelled_edges, "--model", "unit", "--ell", "1",
                 "--decay", "exp:1", "--seeds", "2"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert rows[0].split(",")[1] == "10"


def test_eval_reads_seed_labels(labelled_edges, tmp_path, capsys):
    seeds_file = tmp_path / "seeds.txt"
    seeds_file.write_text("10\n")
    assert main(["eval", "--edges", labelled_edges, "--model", "unit", "--m", "2",
                 "--seeds-file", str(seeds_file), "--decay", "threshold:3"]) == 0
    assert capsys.readouterr().out.strip().split("\n")[1] == "1,4.0,100.00"


@pytest.mark.parametrize("threshold", [False, True])
def test_oracle_query_reads_the_labels_im_threshold_prints(labelled_edges, tmp_path, capsys, threshold):
    graph = ["--edges", labelled_edges, "--model", "exp:1", "--ell", "4", "--seed", "3"]
    assert main(["im", "threshold", *graph, "--T", "1.5", "--k", "4", "--seeds", "2"]) == 0
    names = [row.split(",")[1] for row in capsys.readouterr().out.strip().split("\n")[1:]]
    seeds_file = tmp_path / "seeds.txt"
    seeds_file.write_text("\n".join(names) + "\n")
    sk = str(tmp_path / "sk.bin")
    kind, decay = (["--threshold", "1.5"], "threshold:1.5") if threshold else ([], "harmonic:1")
    assert main(["oracle", "build", *graph, "--k", "4", *kind, "--out", sk]) == 0
    capsys.readouterr()
    assert main(["oracle", "query", "--sketches", sk, "--seeds-file", str(seeds_file), "--decay", decay]) == 0
    got = float(capsys.readouterr().out)

    labels = load_edge_list(labelled_edges).labels
    sketches, stored, _ = load_sketches(sk)
    assert stored == labels
    nodes = [labels.index(name) for name in names]
    assert all(name != str(v) for name, v in zip(names, nodes))  # labels differ from indices
    if threshold:
        assert got == threshold_influence_estimate([sketches[v] for v in nodes])
    else:
        assert got == estimate_influence(sketches, nodes, parse_decay(decay))
    seeds_file.write_text("0\n")  # a node index, not a label
    assert main(["oracle", "query", "--sketches", sk, "--seeds-file", str(seeds_file), "--decay", decay]) == 2
    assert "unknown node label: '0'" in capsys.readouterr().err


def test_repeated_seed_label_exits_2_with_one_line(tmp_path, capsys):
    # threshold sketches used to answer a seeds file that names a node twice
    edges, seeds = tmp_path / "cycle.txt", tmp_path / "seeds.txt"
    edges.write_text("a b\nb c\nc a\n")
    seeds.write_text("a\na\n")
    graph = ["--edges", str(edges), "--ell", "4", "--seed", "1", "--k", "4"]
    sk, tsk = str(tmp_path / "sk.bin"), str(tmp_path / "tsk.bin")
    assert main(["oracle", "build", *graph, "--out", sk]) == 0
    assert main(["oracle", "build", *graph, "--threshold", "1.5", "--out", tsk]) == 0
    capsys.readouterr()
    for argv in (["oracle", "query", "--sketches", sk, "--decay", "harmonic:1"],
                 ["oracle", "query", "--sketches", tsk, "--decay", "threshold:1.5"],
                 ["eval", "--edges", str(edges), "--m", "4", "--decay", "harmonic:1"]):
        assert main([*argv, "--seeds-file", str(seeds)]) == 2
        assert capsys.readouterr().err == "error: repeated seed label: 'a'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--edges", "e.txt", "--out", "g.npz", "--seed", "-1"],
        ["oracle", "build", "--edges", "e.txt", "--out", "sk.bin", "--seed", "-3"],
        ["eval", "--edges", "e.txt", "--seeds-file", "s.txt", "--decay", "exp:1", "--seed", "one"],
        ["im", "threshold", "--edges", "e.txt", "--T", "1", "--seed", str(2**63)],
    ],
    ids=["gen", "oracle-build", "eval", "im-threshold"],
)
def test_seed_option_must_be_a_non_negative_int64(argv, capsys):
    # rejected while parsing, before any file is read
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --seed: must be an integer in [0, 2**63)" in capsys.readouterr().err


@pytest.fixture(scope="module")
def sketch_files(tmp_path_factory):
    """A combined and a threshold sketch file of a small letter-labelled graph, its edge list
    (also with lengths, as weighted.txt), and a seeds file."""
    d = tmp_path_factory.mktemp("sketch_files")
    edges = d / "edges.txt"
    edges.write_text("a b\nb c\nc d\nd a\na c\n")
    (d / "weighted.txt").write_text("a b 0.5\nb c 1\nc d 2e0\nd a 1.5\na c 3\n")
    graph = ["--edges", str(edges), "--model", "exp:1", "--ell", "3", "--seed", "1", "--k", "3"]
    assert main(["oracle", "build", *graph, "--out", str(d / "sk.bin")]) == 0
    assert main(["oracle", "build", *graph, "--threshold", "1.5", "--out", str(d / "tsk.bin")]) == 0
    (d / "seeds.txt").write_text("d\na\n")
    return d


_COLUMN = st.integers(0, 63)  # taken modulo the file's column count
_DAMAGE = st.one_of(
    st.tuples(st.just("drop"), _COLUMN),
    st.tuples(st.just("dtype"), _COLUMN, st.sampled_from(["f8", "f4", "i4", "i1", "u8", "U3", "?"])),
    st.tuples(st.just("ndim"), _COLUMN, st.booleans()),
    st.tuples(st.just("set"), _COLUMN, st.integers(0, 10**6),
              st.one_of(st.integers(-2**63, 2**63 - 1), st.sampled_from([math.nan, math.inf, -math.inf, 2**62]))),
    st.tuples(st.just("cut"), st.integers(0, 10**6)),
)


def _damage(cols, op, name, *args):
    """cols with the array `name` dropped, cast, reshaped or with one entry set."""
    a = cols[name]
    if op == "drop":
        del cols[name]
    elif op == "dtype":
        cols[name] = a.astype(args[0])
    elif op == "ndim":  # one more dimension, or one fewer
        cols[name] = a[None] if args[0] or a.ndim != 1 or not a.size else a[0]
    else:
        index, value = args
        assume(a.size)
        if a.dtype.kind == "U":
            a = a.astype(object)
            a.flat[index % a.size] = str(value)
            cols[name] = a.astype("U")
        else:
            a = a.astype(np.result_type(a.dtype, np.asarray(value).dtype))
            a.flat[index % a.size] = value
            cols[name] = a


# damage to a text file: cut short, one byte set, or a few bytes inserted
_TEXT_DAMAGE = st.one_of(
    st.tuples(st.just("cut"), st.integers(0, 10**6)),
    st.tuples(st.just("byte"), st.integers(0, 10**6), st.integers(0, 255)),
    st.tuples(st.just("insert"), st.integers(0, 10**6),
              st.sampled_from([b" ", b"\t", b"\n", b"\r", b"#", b"a", b"-1", b"0", b"nan", b"inf", b"1e400",
                               b"1e-400", b"\x00", b"\xff", b"\xc3\xa9", b"\xe2\x80\xa8", b"\x0b", b"a\n"])),
)


def _write_damaged(path, bad, damage):
    """Write to bad the file at path, cut short, with one byte set or bytes inserted, or (for
    an npz file) with one array damaged by `_damage`."""
    op, *args = damage
    if op in ("cut", "byte", "insert"):
        data = path.read_bytes()
        at = args[0] % len(data)
        if op == "cut":
            data = data[:at]
        elif op == "byte":
            data = data[:at] + bytes([args[1]]) + data[at + 1 :]
        else:
            data = data[:at] + args[1] + data[at:]
        bad.write_bytes(data)
        return
    with np.load(path) as data:
        cols = dict(data)
    try:
        with np.errstate(all="ignore"):
            _damage(cols, op, sorted(cols)[args[0] % len(cols)], *args[1:])
    except (ValueError, OverflowError):  # e.g. a label that is not a number
        assume(False)
    _write_columns(bad, cols)


def _run_captured(argv):
    """main(argv)'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(["sk.bin", "tsk.bin"]), damage=_DAMAGE)
def test_damaged_sketch_file_exits_0_or_2_with_one_line(sketch_files, kind, damage):
    bad = sketch_files / "bad.bin"
    _write_damaged(sketch_files / kind, bad, damage)
    decay = "threshold:1.5" if kind == "tsk.bin" else "harmonic:1"
    rc, out, err = _run_captured(["oracle", "query", "--sketches", str(bad), "--seeds-file",
                                  str(sketch_files / "seeds.txt"), "--decay", decay])
    assert rc in (0, 2)
    if rc == 2:
        assert err.count("\n") == 1
    else:
        assert math.isfinite(float(out))


@pytest.fixture(scope="module")
def graph_cache(tmp_path_factory):
    """The graph cache of a small letter-labelled graph with two instances."""
    d = tmp_path_factory.mktemp("graph_cache")
    edges = d / "edges.txt"
    edges.write_text("a b\nb c\nc d\nd a\na c\n")
    assert main(["gen", "--edges", str(edges), "--model", "exp:1", "--ell", "2", "--seed", "1",
                 "--out", str(d / "g.npz")]) == 0
    return d


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(damage=_DAMAGE)
def test_damaged_graph_cache_exits_0_or_2_with_one_line(graph_cache, damage):
    bad = graph_cache / "bad.npz"
    _write_damaged(graph_cache / "g.npz", bad, damage)
    rc, out, err = _run_captured(["greedy", "exact", "--graph", str(bad), "--decay", "harmonic:1", "--seeds", "2"])
    assert rc in (0, 2)
    if rc == 2:
        assert err.count("\n") == 1
    else:
        assert out.startswith("rank,")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(weighted=st.booleans(), damage=_TEXT_DAMAGE)
def test_damaged_edge_list_exits_0_or_2_with_one_line(sketch_files, weighted, damage):
    bad = sketch_files / "bad.txt"
    _write_damaged(sketch_files / ("weighted.txt" if weighted else "edges.txt"), bad, damage)
    rc, out, err = _run_captured(["greedy", "exact", "--edges", str(bad), *(["--weighted"] if weighted else []),
                                  "--model", "exp:1", "--ell", "2", "--seed", "1", "--decay", "harmonic:1",
                                  "--seeds", "2"])
    assert rc in (0, 2)
    if rc == 2:
        assert err.count("\n") == 1
    else:
        assert out.startswith("rank,")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["sk.bin", "tsk.bin", "eval"]), damage=_TEXT_DAMAGE)
def test_damaged_seeds_file_exits_0_or_2_with_one_line(sketch_files, command, damage):
    bad = sketch_files / "bad-seeds.txt"
    _write_damaged(sketch_files / "seeds.txt", bad, damage)
    if command == "eval":
        argv = ["eval", "--edges", str(sketch_files / "edges.txt"), "--m", "2", "--decay", "harmonic:1"]
    else:
        decay = "threshold:1.5" if command == "tsk.bin" else "harmonic:1"
        argv = ["oracle", "query", "--sketches", str(sketch_files / command), "--decay", decay]
    rc, out, err = _run_captured([*argv, "--seeds-file", str(bad)])
    assert rc in (0, 2)
    if rc == 2:
        assert err.count("\n") == 1
    elif command == "eval":
        assert out.startswith("prefix,")
    else:
        assert math.isfinite(float(out))
