import json
import math

import numpy as np
import pytest

from distinf.cli import main


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
               "--ell", "4", "--seed", "2", "--k", "8", "--decay-agnostic",
               "--out", sk])
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
    assert main(["oracle", "build", "--edges", edges_file, "--model", "exp:1",
                 "--ell", "2", "--seed", "2", "--k", "8", "--threshold", "0.5",
                 "--out", sk]) == 0
    capsys.readouterr()
    seeds_file = tmp_path / "seeds.txt"
    seeds_file.write_text("0\n")
    assert main(["oracle", "query", "--sketches", sk, "--seeds-file", str(seeds_file),
                 "--decay", "threshold:0.9"]) == 2
    assert main(["oracle", "query", "--sketches", sk, "--seeds-file", str(seeds_file),
                 "--decay", "threshold:0.5"]) == 0


@pytest.mark.parametrize("threshold", [False, True])
def test_oracle_query_rejects_out_of_range_seed(edges_file, tmp_path, capsys, threshold):
    sk = str(tmp_path / "sk.bin")
    kind = ["--threshold", "0.5"] if threshold else ["--decay-agnostic"]
    assert main(["oracle", "build", "--edges", edges_file, "--model", "exp:1",
                 "--ell", "2", "--seed", "2", "--k", "8", *kind, "--out", sk]) == 0
    decay = "threshold:0.5" if threshold else "exp:1"
    for bad in ("-1", "12"):
        seeds_file = tmp_path / "seeds.txt"
        seeds_file.write_text(f"0\n{bad}\n")
        capsys.readouterr()
        assert main(["oracle", "query", "--sketches", sk, "--seeds-file", str(seeds_file),
                     "--decay", decay]) == 2
        assert "out of range" in capsys.readouterr().err


def test_truncated_sketch_file_exits_2(edges_file, tmp_path, capsys):
    sk = tmp_path / "sk.bin"
    assert main(["oracle", "build", "--edges", edges_file, "--model", "exp:1",
                 "--ell", "2", "--seed", "2", "--k", "8", "--out", str(sk)]) == 0
    cut = tmp_path / "cut.bin"
    cut.write_bytes(sk.read_bytes()[:60])
    seeds_file = tmp_path / "seeds.txt"
    seeds_file.write_text("0\n")
    capsys.readouterr()
    assert main(["oracle", "query", "--sketches", str(cut), "--seeds-file", str(seeds_file),
                 "--decay", "exp:1"]) == 2
    assert "truncated" in capsys.readouterr().err


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


def test_bench_tskim_json(edges_file, tmp_path):
    out = str(tmp_path / "bench.json")
    rc = main(["bench", "--edges", edges_file, "--model", "exp:1", "--ell", "4",
               "--algo", "tskim", "--T", "1.0", "--k", "8", "--seeds", "6",
               "--out", out])
    assert rc == 0
    rep = json.loads(open(out).read())
    assert rep["run_ms"] > 0
    series = rep["per_seed_ms"]
    cumulative = [sum(series[: i + 1]) for i in range(len(series))]
    assert all(a <= b + 1e-12 for a, b in zip(cumulative, cumulative[1:]))


def test_bench_askim_has_tau_schedule(edges_file, tmp_path):
    out = str(tmp_path / "bench.json")
    rc = main(["bench", "--edges", edges_file, "--model", "exp:1", "--ell", "2",
               "--algo", "askim", "--decay", "exp:10", "--k", "8", "--seeds", "3",
               "--out", out])
    assert rc == 0
    rep = json.loads(open(out).read())
    assert rep["tau_schedule"]


def test_bench_oracle_build(edges_file, tmp_path):
    out = str(tmp_path / "bench.json")
    rc = main(["bench", "--edges", edges_file, "--model", "exp:1", "--ell", "2",
               "--algo", "oracle-build", "--k", "4", "--out", out])
    assert rc == 0
    rep = json.loads(open(out).read())
    assert rep["sketch_entries"] > 0
    assert rep["build_ms"] > 0


def test_validation_error_exit_code(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 1 -2\n")
    rc = main(["greedy", "exact", "--edges", str(p), "--weighted", "--model", "unit",
               "--ell", "1", "--decay", "harmonic:1", "--seeds", "1"])
    assert rc == 2


def test_bad_npz_is_validation_error(tmp_path):
    p = str(tmp_path / "bad.npz")
    np.savez(p, n=np.int64(3), tails=np.array([0, 1]), heads=np.array([1, -1]),
             weights=np.ones((1, 2)), labels=np.array(["a", "b", "c"]))
    rc = main(["greedy", "exact", "--graph", p, "--decay", "harmonic:1", "--seeds", "1"])
    assert rc == 2


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
