"""Run one benchmark workload of distinf and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is a fresh single-threaded interpreter.  It measures draws (one
set-up plus one user action on inputs made from --seed and the draw number)
until the next draw would end after --seconds, checks every draw's outputs,
scales each draw's times by the machine speed that reference.py measures
around it, and prints as its last line one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json.  With --trace 1 the same untraced draws
are measured, then draw 0 is replayed with every layer traced, and the
metrics are the per-layer ones.  Spans and run details are written to
.perfbench_work/ in the checkout.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from typing import NoReturn

import reference

# Pin native thread pools before numpy is first imported (by import_program):
# every workload is timed on one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

MIN_DRAWS = 2
OVERHEAD_PAIRS = 3
WORK_DIR = ".perfbench_work"


def fail(msg: str) -> NoReturn:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program(root: str) -> None:
    """Import distinf from the checkout's src/ and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "distinf", "__init__.py")):
        fail(f"no distinf sources under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    import distinf

    if not os.path.abspath(distinf.__file__).startswith(os.path.abspath(src) + os.sep):
        fail(f"imported distinf from {distinf.__file__}, not from {src}")


def machine_info() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class Run:
    """Draw loop of one workload: timings, check results and failures."""

    def __init__(self, workload, seed: int, work: str):
        self.wl, self.seed, self.work = workload, seed, work
        self.setup_s: list[float] = []
        self.run_s: list[float] = []
        self.solve_s: list[float] = []
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.quality: dict[str, float] = {}  # of draw 0, when asked for
        self.speed: list[float] = []  # per measured draw: nominal / reference time

    def draw(self, index: int, quality: bool = False) -> float:
        """Set up, run and check one draw; returns its measured seconds."""
        import inputs

        clock = time.perf_counter
        try:
            t0 = clock()
            state = self.wl.setup(self.work, inputs.draw_seeds(self.seed, index))
            t1 = clock()
            out = self.wl.run(state)
            t2 = clock()
        except Exception:  # the program failed; count it and report
            traceback.print_exc(file=sys.stderr)
            self.attempted += 1
            self.failures.append(f"draw {index}: raised")
            return 0.0
        self.setup_s.append(t1 - t0)
        self.run_s.append(t2 - t1)
        self.solve_s.append(out.solve_s)
        self.latencies.extend(out.latencies)
        try:
            attempted, failed = self.wl.check(state, out)
            if quality and not failed:
                self.quality = self.wl.quality(state, out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            attempted, failed = 1, ["check raised"]
        self.attempted += attempted
        self.failures.extend(f"draw {index}: {f}" for f in failed)
        return t2 - t0

    def measure(self, seconds: float, quality: bool) -> None:
        """Draw until the next draw would end after `seconds` of measured time.

        The reference loop runs before the first draw and after every draw;
        the two runs around a draw give its speed factor.
        """
        spent, last, index = 0.0, 0.0, 0
        before = reference.reference_seconds()
        while index < MIN_DRAWS or spent + last <= seconds:
            last = self.draw(index, quality=quality and index == 0)
            spent += last
            index += 1
            gc.collect()
            after = reference.reference_seconds()
            if not last:  # a failed draw: stop instead of repeating the failure
                break
            self.speed.append(reference.REFERENCE_NOMINAL_S / ((before + after) / 2))
            before = after

    def end_to_end(self, scaled: bool = True) -> dict:
        """Medians over the draws; times in reference-scaled seconds, or in
        wall seconds with scaled=False."""

        def med(xs: list[float]) -> float:
            if scaled:
                xs = [x * f for x, f in zip(xs, self.speed)]
            return statistics.median(xs) if xs else 0.0

        return {
            "setup_s": med(self.setup_s),
            "run_s": med(self.run_s),
            "solve_s": med(self.solve_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


def traced_replay(run: Run, args, root: str) -> tuple[dict, set]:
    """Replay draw 0 with every layer traced; returns the per-layer metrics
    and the names of those whose hook in the program no longer exists."""
    import tracemalloc

    import tracing

    # Alternate untraced and traced replays of draw 0; the spans and counts
    # come from the first traced replay, the overhead is the median ratio of
    # adjacent pairs, which damps the machine's slow speed changes.
    tracer, ratios = None, []
    for _ in range(OVERHEAD_PAIRS):
        plain, traced = Run(run.wl, args.seed, run.work), Run(run.wl, args.seed, run.work)
        plain.draw(0)
        pair_tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}")
        pair_tracer.install()
        try:
            traced.draw(0)
        finally:
            pair_tracer.uninstall()
        tracer = tracer or pair_tracer
        for r in (plain, traced):
            run.attempted += r.attempted
            run.failures.extend(f"replay {f}" for f in r.failures)
        if plain.run_s and traced.run_s:
            ratios.append(traced.run_s[0] / plain.run_s[0])

    m = tracer.layer_metrics()
    if ratios:
        m["trace.overhead"] = statistics.median(ratios)

    # instance memory: the largest sampling call again, alone under tracemalloc
    if tracer.largest_sample is not None:
        from distinf import graph

        _, s_args, s_kwargs = tracer.largest_sample
        tracemalloc.start()
        sampled = graph.sample_instances(*s_args, **s_kwargs)
        m["graph.instances_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        del sampled

    # query latency of the untraced draws, pooled
    lat = run.latencies
    if lat:
        m["sketch.query_p50_ms"] = 1000 * statistics.median(lat)
        m["sketch.queries_per_s"] = len(lat) / sum(lat)
    if len(lat) >= 1000:  # p99 needs at least ten samples beyond it
        m["sketch.query_p99_ms"] = 1000 * statistics.quantiles(lat, n=100)[98]
    m.update(run.quality)

    tracer.write(
        os.path.join(root, WORK_DIR, f"trace-{args.workload}-seed{args.seed}.json"),
        {"workload": args.workload, "seed": args.seed, "machine": machine_info(), "latency_samples": len(lat), "metrics": m},
    )
    return m, set(tracer.absent_metrics)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    import_program(root)
    import workloads  # this script's directory is on sys.path

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")

    work = os.path.join(root, WORK_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        run = Run(workloads.WORKLOADS[args.workload], args.seed, work)
        run.measure(args.seconds, quality=bool(args.trace))
        if args.trace:
            values, absent = traced_replay(run, args, root)
        else:
            values, absent = run.end_to_end(), set()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Every metric of BENCHMARK.json is printed, with its unit and direction;
    # one the run could not measure (a renamed hook, or a quantity this
    # workload does not produce) reads 0 and is listed as absent in the report.
    metrics = {}
    for entry in spec["per_layer" if args.trace else "end_to_end"]:
        name = entry["name"]
        if name not in values:
            absent.add(name)
        metrics[name] = {"value": values.get(name, 0.0), "unit": entry["unit"]}
        print(f"# {name} = {metrics[name]['value']:.6g} {entry['unit']} ({entry['better']} is better)")

    failed = len(run.failures)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "draws": len(run.run_s),
        "wall": run.end_to_end(scaled=False),
        "reference_s": reference.REFERENCE_NOMINAL_S / statistics.median(run.speed) if run.speed else None,
        "failed_ops": failed / max(run.attempted, 1),
        "failures": run.failures,
        "absent": sorted(absent),
        "machine": machine_info(),
    }
    with open(os.path.join(root, WORK_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(
            {
                **report,
                "metrics": metrics,
                "setup_s_all": run.setup_s,
                "run_s_all": run.run_s,
                "solve_s_all": run.solve_s,
                "speed_all": run.speed,
            },
            fh,
            indent=1,
        )
    print("# " + json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": max(run.attempted, 1), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
