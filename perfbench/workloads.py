"""The benchmark's workloads: set-up, the timed user action, and output checks.

Each workload is a `Workload` of four steps.  `setup` builds one draw's
inputs from its seeds (timed as setup_s).  `run` is the user action (timed
as run_s) and returns its outputs together with solve_s, the part of the
action until the workload's product is ready.  `check` inspects the outputs
without being timed and returns the number of operations it attempted and a
message per failed one.  `quality` gives the deterministic result metrics
(seed influence, estimate error) that the traced run reports.

Library calls go through module attributes (`sketch.build_cads`, not a name
imported at load time), so the tracer sees the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from distinf import cli, decay, exact, graph, pps_im, sketch, threshold_im

import inputs

clock = time.perf_counter


@dataclass
class Outcome:
    solve_s: float
    outputs: dict
    latencies: list[float] = field(default_factory=list)  # per-query seconds (oracle)


@dataclass
class Workload:
    name: str
    setup: Callable[[str, dict], dict]
    run: Callable[[dict], Outcome]
    check: Callable[[dict, Outcome], tuple[int, list[str]]]
    quality: Callable[[dict, Outcome], dict[str, float]]


def _rel_close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def _sample(n: int, tails, heads, ell: int, lengths_seed: int) -> graph.MultiInstanceGraph:
    base = graph.MultiInstanceGraph.from_arrays(n, tails, heads)
    return graph.sample_instances(base, graph.EdgeLengthModel.exponential(1.0, seed=lengths_seed), ell)


class _CallTimer:
    """Times calls of one module function while installed; a single wrapper
    around one call per action, so it adds no measurable cost."""

    def __init__(self, module, attr: str):
        self.module, self.attr = module, attr
        self.seconds = 0.0

    def __enter__(self):
        self.original = fn = getattr(self.module, self.attr)

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += clock() - t0

        setattr(self.module, self.attr, timed)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self.original)


# ---------------------------------------------------------------------- #
# oracle: build, persist and query the decay-agnostic sketch oracle

ORACLE_N, ORACLE_ELL, ORACLE_K = 300, 8, 16
ORACLE_QUERIES = 300  # per draw; the draws of a run are pooled
ORACLE_SET_SIZES = (1, 5, 20, 50)
ORACLE_DECAYS = ("threshold:1", "exp:1", "harmonic:1")
ORACLE_CHECK_EVERY = 5  # every 5th query is re-answered from the built sketches
ORACLE_REL_ERR_QUERIES = 200


def oracle_setup(work: str, seeds: dict) -> dict:
    n, t, h = inputs.uniform_digraph(ORACLE_N, 4, np.random.default_rng(seeds["topology"]))
    g = _sample(n, t, h, ORACLE_ELL, seeds["lengths"])
    rng = np.random.default_rng(seeds["queries"])
    sizes = rng.choice(ORACLE_SET_SIZES, ORACLE_QUERIES)
    kinds = rng.integers(0, len(ORACLE_DECAYS), ORACLE_QUERIES)
    queries = [
        (rng.choice(n, int(size), replace=False).tolist(), ORACLE_DECAYS[kind])
        for size, kind in zip(sizes.tolist(), kinds.tolist())
    ]
    return {"g": g, "queries": queries, "rank_seed": seeds["ranks"], "path": os.path.join(work, "sk.bin")}


def oracle_run(st: dict) -> Outcome:
    t0 = clock()
    built, _ = sketch.build_cads(st["g"], ORACLE_K, st["rank_seed"])
    sketch.save_sketches(st["path"], built, st["rank_seed"])
    solve_s = clock() - t0
    loaded, _, _ = sketch.load_sketches(st["path"])
    alphas = {spec: decay.parse_decay(spec) for spec in ORACLE_DECAYS}
    estimates, latencies = [], []
    for seeds, spec in st["queries"]:
        q0 = clock()
        estimates.append(sketch.estimate_influence(loaded, seeds, alphas[spec]))
        latencies.append(clock() - q0)
    return Outcome(solve_s, {"built": built, "loaded": loaded, "estimates": estimates, "alphas": alphas}, latencies)


def oracle_check(st: dict, out: Outcome) -> tuple[int, list[str]]:
    g, o = st["g"], out.outputs
    built, loaded, alphas = o["built"], o["loaded"], o["alphas"]
    failed = []
    if len(built) != len(loaded) or any(a.entries != b.entries for a, b in zip(built, loaded)):
        failed.append("loaded sketches differ from the built ones")
    checked = range(0, len(st["queries"]), ORACLE_CHECK_EVERY)
    for j in checked:
        seeds, spec = st["queries"][j]
        if sketch.estimate_influence(built, seeds, alphas[spec]) != o["estimates"][j]:
            failed.append(f"query {j}: estimate from loaded sketches differs from built")
    mean_size = sum(len(sk) for sk in built) / len(built)
    bound = 1.2 * ORACLE_K * math.log(g.n * min(ORACLE_K, g.ell))
    if not mean_size <= bound:
        failed.append(f"mean sketch size {mean_size:.1f} exceeds {bound:.1f}")
    everyone = list(range(g.n))
    for spec, alpha in alphas.items():
        if sketch.estimate_influence(loaded, everyone, alpha) != g.n * alpha.alpha0:
            failed.append(f"all-nodes estimate for {spec} is not n * alpha(0)")
    # operations: every timed query, the load, the size bound and the all-nodes queries
    return len(st["queries"]) + 2 + len(alphas), failed


def oracle_quality(st: dict, out: Outcome) -> dict[str, float]:
    errs = []
    for (seeds, spec), est in list(zip(st["queries"], out.outputs["estimates"]))[:ORACLE_REL_ERR_QUERIES]:
        ex = exact.influence_exact(st["g"], seeds, out.outputs["alphas"][spec])
        errs.append(abs(est - ex) / ex)
    return {"result.query_rel_err": statistics.median(errs)}


# ---------------------------------------------------------------------- #
# im-threshold: the command-line user path, T-SKIM plus held-out evaluation

IMT_N, IMT_ELL, IMT_T, IMT_K, IMT_SEEDS, IMT_EVAL = 3000, 8, 1.0, 64, 50, 32


def imt_setup(work: str, seeds: dict) -> dict:
    n, t, h = inputs.uniform_digraph(IMT_N, 4, np.random.default_rng(seeds["topology"]))
    edges, npz = os.path.join(work, "graph.txt"), os.path.join(work, "g.npz")
    inputs.write_edge_list(edges, t, h)
    seed = str(seeds["lengths"])
    argv = ["gen", "--edges", edges, "--model", "exp:1", "--ell", str(IMT_ELL), "--seed", seed, "--out", npz]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"distinf gen exited with {code}")
    return {"edges": edges, "npz": npz, "seed": seed, "work": work}


def imt_run(st: dict) -> Outcome:
    trace_csv, eval_csv = os.path.join(st["work"], "trace.csv"), os.path.join(st["work"], "eval.csv")
    argv = [
        "im", "threshold", "--graph", st["npz"], "--edges", st["edges"], "--model", "exp:1",
        "--T", repr(IMT_T), "--k", str(IMT_K), "--seeds", str(IMT_SEEDS), "--seed", st["seed"],
        "--eval-instances", str(IMT_EVAL), "--out", trace_csv, "--eval-out", eval_csv,
    ]
    with _CallTimer(threshold_im, "run_threshold_im") as timer, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return Outcome(timer.seconds, {"code": code, "trace_csv": trace_csv, "eval_csv": eval_csv})


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def imt_check(st: dict, out: Outcome) -> tuple[int, list[str]]:
    o = out.outputs
    if o["code"] != 0:
        return 1, [f"distinf im threshold exited with {o['code']}"]
    failed = []
    rows = _read_csv(o["trace_csv"])
    seeds = [int(r["seed"]) for r in rows]  # labels equal indices by construction
    total = sum(float(r["exact_marginal"]) for r in rows)
    if len(rows) != IMT_SEEDS:
        failed.append(f"trace has {len(rows)} seeds, expected {IMT_SEEDS}")
    g = graph.load_npz(st["npz"])
    ex = exact.influence_exact(g, seeds, decay.make_threshold(IMT_T))
    if not _rel_close(total, ex):
        failed.append(f"trace total {total!r} differs from influence_exact {ex!r}")
    prefixes = [float(r["influence"]) for r in _read_csv(o["eval_csv"])]
    if len(prefixes) != len(rows) or any(b < a for a, b in zip(prefixes, prefixes[1:])):
        failed.append("held-out prefix influences are missing or decrease")
    return 3, failed


def imt_quality(st: dict, out: Outcome) -> dict[str, float]:
    rows = _read_csv(out.outputs["trace_csv"])
    return {"result.seed_influence": sum(float(r["exact_marginal"]) for r in rows)}


# ---------------------------------------------------------------------- #
# im-alpha: alpha-SKIM (PPS sampling) on a graph with hub nodes

IMA_N, IMA_ELL, IMA_DECAY, IMA_K, IMA_SEEDS = 1000, 16, "exp:10", 64, 50


def _sequence_setup(n_nodes: int, ell: int):
    def setup(work: str, seeds: dict) -> dict:
        n, t, h = inputs.zipf_digraph(n_nodes, 4, np.random.default_rng(seeds["topology"]))
        return {
            "n": n, "tails": t, "heads": h, "lengths_seed": seeds["lengths"],
            "g": _sample(n, t, h, ell, seeds["lengths"]), "rank_seed": seeds["ranks"],
            "csv": os.path.join(work, "trace.csv"),
        }

    return setup


def ima_run(st: dict) -> Outcome:
    alpha = decay.parse_decay(IMA_DECAY)
    t0 = clock()
    trace = pps_im.run_pps_im(st["g"], alpha, IMA_K, IMA_SEEDS, seed=st["rank_seed"])
    solve_s = clock() - t0
    trace.to_csv(st["csv"])
    return Outcome(solve_s, {"trace": trace, "alpha": alpha})


def _trace_check(st: dict, out: Outcome, want: int) -> list[str]:
    trace, alpha = out.outputs["trace"], out.outputs["alpha"]
    failed = []
    if len(trace) != want:
        failed.append(f"trace has {len(trace)} seeds, expected {want}")
    ex = exact.influence_exact(st["g"], trace.seeds(), alpha)
    if not _rel_close(trace.total(), ex):
        failed.append(f"trace total {trace.total()!r} differs from influence_exact {ex!r}")
    return failed


def ima_check(st: dict, out: Outcome) -> tuple[int, list[str]]:
    return 2, _trace_check(st, out, IMA_SEEDS)


# ---------------------------------------------------------------------- #
# exact-greedy: the exact lazy greedy baseline, then held-out evaluation

EXG_N, EXG_ELL, EXG_DECAY, EXG_SEEDS, EXG_EVAL = 200, 8, "harmonic:10", 20, 32


def exg_run(st: dict) -> Outcome:
    alpha = decay.parse_decay(EXG_DECAY)
    t0 = clock()
    trace = exact.lazy_greedy(st["g"], alpha, EXG_SEEDS)
    solve_s = clock() - t0
    trace.to_csv(st["csv"])
    held_out = _sample(st["n"], st["tails"], st["heads"], EXG_EVAL, st["lengths_seed"] + 1)
    prefixes = exact.evaluate_prefixes(held_out, trace.seeds(), alpha)
    return Outcome(solve_s, {"trace": trace, "alpha": alpha, "held_out": prefixes})


def exg_check(st: dict, out: Outcome) -> tuple[int, list[str]]:
    trace, alpha = out.outputs["trace"], out.outputs["alpha"]
    failed = _trace_check(st, out, EXG_SEEDS)
    marg = trace.marginals()
    if any(b > a * (1 + 1e-9) for a, b in zip(marg, marg[1:])):
        failed.append("exact greedy marginals increase")
    train = exact.evaluate_prefixes(st["g"], trace.seeds(), alpha)
    if not _rel_close(train[-1], trace.total()):
        failed.append(f"evaluate_prefixes {train[-1]!r} differs from trace total {trace.total()!r}")
    held = out.outputs["held_out"]
    if len(held) != EXG_SEEDS or any(b < a for a, b in zip(held, held[1:])):
        failed.append("held-out prefix influences are missing or decrease")
    return 5, failed


def _trace_quality(st: dict, out: Outcome) -> dict[str, float]:
    return {"result.seed_influence": out.outputs["trace"].total()}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("oracle", oracle_setup, oracle_run, oracle_check, oracle_quality),
        Workload("im-threshold", imt_setup, imt_run, imt_check, imt_quality),
        Workload("im-alpha", _sequence_setup(IMA_N, IMA_ELL), ima_run, ima_check, _trace_quality),
        Workload("exact-greedy", _sequence_setup(EXG_N, EXG_ELL), exg_run, exg_check, _trace_quality),
    )
}
