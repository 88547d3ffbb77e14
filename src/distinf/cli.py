"""Command-line surface: instance generation, oracles, influence maximization,
the exact-greedy baseline, held-out evaluation, and benchmark timing."""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import exact, pps_im, sketch, threshold_im
from .decay import parse_decay
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


def _read_seeds(path: str, g: MultiInstanceGraph) -> list[int]:
    """Node indices of the seed labels in a file, one label per line."""
    with open(path) as fh:
        return [g.node_of_label(tok) for tok in (line.strip() for line in fh) if tok]


def _write_trace(trace: exact.GreedyTrace, args, g: MultiInstanceGraph) -> None:
    if args.out:
        trace.to_csv(args.out, g.labels)
    else:
        trace.write_csv(sys.stdout, g.labels)
    if getattr(args, "metrics", None):
        with open(args.metrics, "w") as fh:
            json.dump(trace.metadata, fh, indent=2)


def cmd_gen(args) -> int:
    base = load_edge_list(args.edges, weighted=args.weighted)
    model = parse_model(args.model, args.seed)
    g = sample_instances(base, model, args.ell)
    save_npz(g, args.out)
    print(f"wrote {args.out}: n={g.n} ell={g.ell} m={len(g.instances[0].weights)}")
    return 0


def cmd_oracle_build(args) -> int:
    g = _load_graph(args)
    t0 = time.perf_counter()
    if args.threshold is not None:
        ranks = sketch.structured_ranks(g.n, g.ell, g.ell, args.seed)
        sketches = sketch.build_threshold_sketches(g, ranks, args.k, args.threshold)
    else:
        sketches, _ = sketch.build_cads(g, args.k, args.seed)
    sketch.save_sketches(args.out, sketches, args.seed)
    build_ms = 1000 * (time.perf_counter() - t0)
    print(f"wrote {args.out}: n={g.n} ell={g.ell} k={args.k} build_ms={build_ms:.1f}")
    return 0


def cmd_oracle_query(args) -> int:
    sketches, _, _ = sketch.load_sketches(args.sketches)
    first = sketches[0]
    seeds = []
    with open(args.seeds_file) as fh:
        for line in fh:
            tok = line.strip()
            if tok:
                seeds.append(int(tok))
    for s in seeds:
        if not (0 <= s < first.n):
            raise ValueError(f"seed {s} out of range [0, {first.n})")
    alpha = parse_decay(args.decay)
    if isinstance(first, sketch.ThresholdSketch):
        if alpha.name != f"threshold:{first.T:g}":
            raise ValueError(
                f"sketches were built for threshold:{first.T:g}, not {args.decay}"
            )
        est = sketch.threshold_influence_estimate([sketches[s] for s in seeds], first.ell)
    else:
        est = sketch.estimate_influence(sketches, seeds, alpha)
    print(repr(est))
    return 0


def cmd_im_threshold(args) -> int:
    g = _load_graph(args)
    trace = threshold_im.run_threshold_im(g, args.T, args.k, args.seeds, seed=args.seed)
    _write_trace(trace, args, g)
    if args.eval_instances:
        _held_out_eval(args, trace.seeds())
    return 0


def cmd_im_alpha(args) -> int:
    g = _load_graph(args)
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
    trace = pps_im.run_pps_im(
        g, alpha, args.k, args.seeds, eps=eps, lam=args.lam, tau0=args.tau0, seed=args.seed
    )
    _write_trace(trace, args, g)
    if args.eval_instances:
        _held_out_eval(args, trace.seeds())
    return 0


def cmd_greedy_exact(args) -> int:
    g = _load_graph(args)
    alpha = parse_decay(args.decay)
    trace = exact.lazy_greedy(g, alpha, args.seeds)
    _write_trace(trace, args, g)
    return 0


def _held_out_eval(args, seeds: list[int]) -> None:
    if not getattr(args, "edges", None):
        raise ValueError("held-out evaluation needs --edges and --model")
    base = load_edge_list(args.edges, weighted=args.weighted)
    # disjoint rng stream from training instances
    model = parse_model(args.model, args.seed + 1)
    g_eval = sample_instances(base, model, args.eval_instances)
    alpha = parse_decay(args.decay) if getattr(args, "decay", None) else None
    if alpha is None:
        from .decay import make_threshold

        alpha = make_threshold(args.T)
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
    base = load_edge_list(args.edges, weighted=args.weighted)
    model = parse_model(args.model, args.seed + 1)
    g_eval = sample_instances(base, model, args.m)
    seeds = _read_seeds(args.seeds_file, g_eval)
    alpha = parse_decay(args.decay)
    _write_eval(_eval_rows(g_eval, seeds, alpha), args.out)
    return 0


def cmd_bench(args) -> int:
    report: dict = {"algo": args.algo}
    t0 = time.perf_counter()
    g = _load_graph(args)
    report["load_ms"] = 1000 * (time.perf_counter() - t0)
    report["n"] = g.n
    report["ell"] = g.ell
    t0 = time.perf_counter()
    if args.algo == "oracle-build":
        sketches, _ = sketch.build_cads(g, args.k, args.seed)
        report["sketch_entries"] = sum(len(s) for s in sketches)
        report["build_ms"] = 1000 * (time.perf_counter() - t0)
    elif args.algo == "tskim":
        trace = threshold_im.run_threshold_im(g, args.T, args.k, args.seeds, seed=args.seed)
        report["per_seed_ms"] = [1000 * t for t in trace.metadata["per_seed_sec"]]
        report["seeds"] = len(trace)
    elif args.algo == "askim":
        alpha = parse_decay(args.decay)
        trace = pps_im.run_pps_im(g, alpha, args.k, args.seeds, seed=args.seed)
        report["per_seed_ms"] = [1000 * t for t in trace.metadata["per_seed_sec"]]
        report["tau_schedule"] = trace.metadata["tau_schedule"]
        report["seeds"] = len(trace)
    elif args.algo == "greedy":
        alpha = parse_decay(args.decay)
        trace = exact.lazy_greedy(g, alpha, args.seeds)
        report["seeds"] = len(trace)
    else:
        raise ValueError(f"unknown bench algo {args.algo!r}")
    report["run_ms"] = 1000 * (time.perf_counter() - t0)
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _add_graph_args(p, need_model=True):
    p.add_argument("--graph", help="binary graph cache (.npz)")
    p.add_argument("--edges", help="edge-list text file")
    p.add_argument("--weighted", action="store_true", help="edge list has lengths")
    if need_model:
        p.add_argument("--model", default="exp:1", help="edge-length model (exp:MEAN, weibull[:HIGH], unit, file)")
        p.add_argument("--ell", type=int, default=64, help="instances to sample")
    p.add_argument("--seed", type=int, default=0, help="rng seed")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="distinf", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="sample instances into a graph cache")
    p.add_argument("--edges", required=True)
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--model", default="exp:1")
    p.add_argument("--ell", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    oracle = sub.add_parser("oracle", help="influence oracles").add_subparsers(
        dest="oracle_cmd", required=True
    )
    p = oracle.add_parser("build", help="precompute sketches")
    _add_graph_args(p)
    p.add_argument("--k", type=int, default=64)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--decay-agnostic", action="store_true", help="combined all-distances sketches")
    group.add_argument("--threshold", type=float, help="bottom-k sketches for a fixed threshold")
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds-file", required=True)
    p.add_argument("--decay", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="phase timings as JSON")
    _add_graph_args(p)
    p.add_argument("--algo", required=True, choices=["oracle-build", "tskim", "askim", "greedy"])
    p.add_argument("--k", type=int, default=64)
    p.add_argument("--T", type=float, default=0.1)
    p.add_argument("--decay", default="exp:10")
    p.add_argument("--seeds", type=int, default=50)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

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
