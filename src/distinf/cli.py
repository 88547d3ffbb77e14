"""Command-line surface: instance generation, oracles, influence maximization,
the exact-greedy baseline, and held-out evaluation."""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import exact, pps_im, sketch, threshold_im
from .decay import make_threshold, parse_decay
from .graph import (
    EdgeLengthModel,
    MultiInstanceGraph,
    load_edge_list,
    load_npz,
    sample_instances,
    save_npz,
)


def parse_model(spec: str, seed: int) -> EdgeLengthModel:
    kind, _, arg = spec.partition(":")
    if kind == "exp":
        return EdgeLengthModel.exponential(float(arg) if arg else 1.0, seed=seed)
    if kind == "weibull":
        return EdgeLengthModel.weibull(float(arg) if arg else 10.0, seed=seed)
    if kind == "unit":
        return EdgeLengthModel.unit()
    if kind == "file":
        return EdgeLengthModel.file_given()
    raise ValueError(f"unknown edge-length model {spec!r}")


def _load_graph(args) -> MultiInstanceGraph:
    if getattr(args, "graph", None):
        return load_npz(args.graph)
    if not getattr(args, "edges", None):
        raise ValueError("need --graph or --edges")
    base = load_edge_list(args.edges, weighted=args.weighted)
    model = parse_model(args.model, args.seed)
    return sample_instances(base, model, args.ell)


def _seed(text: str) -> int:
    """The --seed argument: an integer in [0, 2**63), as sketch files store it."""
    if not text.isdecimal() or int(text) >= 2**63:
        raise argparse.ArgumentTypeError(f"must be an integer in [0, 2**63), got {text!r}")
    return int(text)


def _read_seeds(path: str, labels: list[str]) -> list[int]:
    """Node indices of the seed labels in a file, one label per line, each label at most once."""
    index = {label: v for v, label in enumerate(labels)}
    seeds: dict[str, int] = {}  # in file order
    with open(path) as fh:
        for tok in (line.strip() for line in fh):
            if not tok:
                continue
            if tok not in index:
                raise ValueError(f"unknown node label: {tok!r}")
            if tok in seeds:
                raise ValueError(f"repeated seed label: {tok!r}")
            seeds[tok] = index[tok]
    return list(seeds.values())


def _run_traced(args, run) -> int:
    """Load the graph, run `run(g)` for its trace, and write the trace, the
    --metrics run report and any held-out evaluation.

    The report is the trace's metadata plus `n`, `ell`, `load_sec` (graph
    load or instance sampling) and `run_sec` (the `run` call alone).
    """
    t0 = time.perf_counter()
    g = _load_graph(args)
    t1 = time.perf_counter()
    trace = run(g)
    t2 = time.perf_counter()
    if args.out:
        trace.to_csv(args.out, g.labels)
    else:
        trace.write_csv(sys.stdout, g.labels)
    if args.metrics:
        report = {"n": g.n, "ell": g.ell, "load_sec": t1 - t0, "run_sec": t2 - t1, **trace.metadata}
        with open(args.metrics, "w") as fh:
            json.dump(report, fh, indent=2)
    if getattr(args, "eval_instances", 0):
        _held_out_eval(args, trace.seeds())
    return 0


def cmd_gen(args) -> int:
    g = _load_graph(args)
    save_npz(g, args.out)
    print(f"wrote {args.out}: n={g.n} ell={g.ell} m={len(g.tails)}")
    return 0


def cmd_oracle_build(args) -> int:
    g = _load_graph(args)
    t0 = time.perf_counter()
    if args.threshold is not None:
        ranks = sketch.structured_ranks(g.n, g.ell, g.ell, args.seed)
        sketches = sketch.build_threshold_sketches(g, ranks, args.k, args.threshold)
        entries = sum(len(s.ranks) for s in sketches)
    else:
        sketches, _ = sketch.build_cads(g, args.k, args.seed)
        entries = sum(len(s) for s in sketches)
    sketch.save_sketches(args.out, sketches, args.seed, labels=g.labels)
    build_ms = 1000 * (time.perf_counter() - t0)
    print(f"wrote {args.out}: n={g.n} ell={g.ell} k={args.k} entries={entries} build_ms={build_ms:.1f}")
    return 0


def cmd_oracle_query(args) -> int:
    sketches, labels, _ = sketch.load_sketches(args.sketches)
    first = sketches[0]
    seeds = _read_seeds(args.seeds_file, labels)
    alpha = parse_decay(args.decay)
    if isinstance(first, sketch.ThresholdSketch):
        if not alpha.name.startswith("threshold:") or alpha.support_bound != first.T:
            raise ValueError(f"sketches were built for threshold:{first.T!r}, not {args.decay}")
        est = sketch.threshold_influence_estimate([sketches[s] for s in seeds])
    else:
        est = sketch.estimate_influence(sketches, seeds, alpha)
    print(repr(est))
    return 0


def cmd_im_threshold(args) -> int:
    return _run_traced(args, lambda g: threshold_im.run_threshold_im(g, args.T, args.k, args.seeds, seed=args.seed))


def cmd_im_alpha(args) -> int:
    alpha = parse_decay(args.decay)
    eps = None
    mode = args.mode
    if mode.startswith("adaptive"):
        _, _, arg = mode.partition(":")
        if not arg:
            raise ValueError("adaptive mode needs an accuracy, e.g. adaptive:0.1")
        eps = float(arg)
    elif mode != "fixed":
        raise ValueError(f"unknown mode {mode!r}")
    options = dict(eps=eps, lam=args.lam, tau0=args.tau0, seed=args.seed)
    return _run_traced(args, lambda g: pps_im.run_pps_im(g, alpha, args.k, args.seeds, **options))


def cmd_greedy_exact(args) -> int:
    alpha = parse_decay(args.decay)
    return _run_traced(args, lambda g: exact.lazy_greedy(g, alpha, args.seeds))


def _held_out_graph(args, m: int) -> MultiInstanceGraph:
    """m held-out instances of the edge list.  Their lengths are keyed at seed + 2**63, past
    every --seed, so no run's held-out instances are any run's training instances."""
    if not getattr(args, "edges", None):
        raise ValueError("held-out evaluation needs --edges and --model")
    base = load_edge_list(args.edges, weighted=args.weighted)
    return sample_instances(base, parse_model(args.model, args.seed + 2**63), m)


def _held_out_eval(args, seeds: list[int]) -> None:
    g_eval = _held_out_graph(args, args.eval_instances)
    alpha = parse_decay(args.decay) if getattr(args, "decay", None) else make_threshold(args.T)
    rows = _eval_rows(g_eval, seeds, alpha)
    _write_eval(rows, args.eval_out)


def _eval_rows(g_eval, seeds, alpha):
    influences = exact.evaluate_prefixes(g_eval, seeds, alpha)
    full = g_eval.n * alpha.alpha0
    return [
        (prefix, float(inf), 100.0 * inf / full)
        for prefix, inf in enumerate(influences, start=1)
    ]


def _write_eval(rows, out_path) -> None:
    fh = open(out_path, "w") if out_path else sys.stdout
    try:
        fh.write("prefix,influence,influence_pct\n")
        for prefix, inf, pct in rows:
            fh.write(f"{prefix},{inf!r},{pct:.2f}\n")
    finally:
        if out_path:
            fh.close()


def cmd_eval(args) -> int:
    g_eval = _held_out_graph(args, args.m)
    seeds = _read_seeds(args.seeds_file, g_eval.labels)
    alpha = parse_decay(args.decay)
    _write_eval(_eval_rows(g_eval, seeds, alpha), args.out)
    return 0


def _add_graph_args(p, need_model=True):
    p.add_argument("--graph", help="binary graph cache (.npz)")
    p.add_argument("--edges", help="edge-list text file")
    p.add_argument("--weighted", action="store_true", help="edge list has lengths")
    if need_model:
        p.add_argument("--model", default="exp:1", help="edge-length model (exp:MEAN, weibull[:HIGH], unit, file)")
        p.add_argument("--ell", type=int, default=64, help="instances to sample")
    p.add_argument("--seed", type=_seed, default=0, help="rng seed")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="distinf", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="sample instances into a graph cache")
    p.add_argument("--edges", required=True)
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--model", default="exp:1")
    p.add_argument("--ell", type=int, default=64)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    oracle = sub.add_parser("oracle", help="influence oracles").add_subparsers(
        dest="oracle_cmd", required=True
    )
    p = oracle.add_parser("build", help="precompute sketches")
    _add_graph_args(p)
    p.add_argument("--k", type=int, default=64)
    p.add_argument("--threshold", type=float, help="bottom-k sketches for a fixed threshold "
                   "(default: combined all-distances sketches for any decay)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_oracle_build)
    p = oracle.add_parser("query", help="estimate influence of a seed set")
    p.add_argument("--sketches", required=True)
    p.add_argument("--seeds-file", required=True)
    p.add_argument("--decay", required=True)
    p.set_defaults(func=cmd_oracle_query)

    im = sub.add_parser("im", help="influence maximization").add_subparsers(
        dest="im_cmd", required=True
    )
    p = im.add_parser("threshold", help="threshold-influence greedy sequence")
    _add_graph_args(p)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--k", type=int, default=64)
    p.add_argument("--seeds", type=int, default=50)
    p.add_argument("--eval-instances", type=int, default=0)
    p.add_argument("--eval-out")
    p.add_argument("--out")
    p.add_argument("--metrics")
    p.set_defaults(func=cmd_im_threshold)
    p = im.add_parser("alpha", help="general-decay greedy sequence")
    _add_graph_args(p)
    p.add_argument("--decay", required=True)
    p.add_argument("--k", type=int, default=64)
    p.add_argument("--seeds", type=int, default=50)
    p.add_argument("--mode", default="fixed", help="fixed or adaptive:EPS")
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--tau0", type=float)
    p.add_argument("--eval-instances", type=int, default=0)
    p.add_argument("--eval-out")
    p.add_argument("--out")
    p.add_argument("--metrics")
    p.set_defaults(func=cmd_im_alpha)

    greedy = sub.add_parser("greedy", help="exact baselines").add_subparsers(
        dest="greedy_cmd", required=True
    )
    p = greedy.add_parser("exact", help="exact lazy-greedy sequence")
    _add_graph_args(p)
    p.add_argument("--decay", required=True)
    p.add_argument("--seeds", type=int, default=50)
    p.add_argument("--out")
    p.add_argument("--metrics")
    p.set_defaults(func=cmd_greedy_exact)

    p = sub.add_parser("eval", help="held-out influence of seed prefixes")
    p.add_argument("--edges", required=True)
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--model", default="exp:1")
    p.add_argument("--m", type=int, default=512, help="held-out instance count")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--seeds-file", required=True)
    p.add_argument("--decay", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
