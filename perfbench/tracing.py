"""Span tracing of the program's layers from outside the program.

`Tracer.install` replaces functions and methods of the `distinf` modules by
wrappers that record spans (name, start, end, parent, run id) in memory and
bump counters; `Tracer.uninstall` puts the originals back.  A function that
is imported by name into other modules is replaced there too, so calls that
go through such a binding are seen.  A hook whose target no longer exists is
recorded as absent instead of failing the run.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import sys
import time
from collections import Counter
from typing import Callable

# (module, attribute, span name, result hook or None, metrics that need it).
# Attributes with a dot are methods or properties of a class in that module.
_GREEDY = ["exact.initial_pass_s", "exact.reevals", "exact.reeval_s", "exact.add_seed_s", "exact.lazy_accept_ratio"]
SPANS = [
    ("graph", "load_edge_list", "graph.load_edge_list", None, ["graph.load_edge_list_s"]),
    ("graph", "save_npz", "graph.save_npz", None, ["graph.save_npz_s"]),
    ("graph", "load_npz", "graph.load_npz", None, ["graph.load_npz_s"]),
    ("graph", "sample_instances", "graph.sample_instances", "sample_instances",
     ["graph.sample_instances_s", "graph.instances_mb"]),
    ("exact", "lazy_greedy", "exact.lazy_greedy", None, _GREEDY),
    ("exact", "marg_gain", "exact.marg_gain", None, _GREEDY),
    ("exact", "_marg_gain_delta", "exact.marg_gain_delta", None, []),
    ("exact", "add_seed", "exact.add_seed", None, _GREEDY),
    ("exact", "evaluate_prefixes", "exact.evaluate_prefixes", None, ["exact.evaluate_prefixes_s"]),
    ("sketch", "structured_ranks", "sketch.ranks", None, ["sketch.ranks_s"]),
    ("sketch", "uniform_ranks", "sketch.ranks", None, ["sketch.ranks_s"]),
    ("sketch", "build_cads", "sketch.build_cads", "build_cads", ["sketch.entries", "sketch.merge_build_s"]),
    ("sketch", "build_ads_instance", "sketch.ads_instance", None, ["sketch.ads_instance_s"]),
    ("sketch", "merge_cads", "sketch.merge_cads", "merge_cads",
     ["sketch.merge_build_s", "sketch.merge_query_s", "sketch.union_entries"]),
    ("sketch", "save_sketches", "sketch.save", "save_sketches", ["sketch.save_s", "sketch.file_bytes"]),
    ("sketch", "load_sketches", "sketch.load", None, ["sketch.load_s"]),
    ("sketch", "estimate_influence", "sketch.estimate_influence", None,
     ["sketch.merge_query_s", "sketch.union_entries"]),
    ("threshold_im", "run_threshold_im", "threshold_im.run", "im_metadata", ["threshold_im.pairs_covered"]),
    ("threshold_im", "ThresholdState._select", "threshold_im.select", None,
     ["threshold_im.select_s", "threshold_im.select_calls"]),
    ("threshold_im", "ThresholdState._cover", "threshold_im.cover", None, ["threshold_im.cover_s"]),
    ("pps_im", "run_pps_im", "pps_im.run", "im_metadata", ["pps_im.cursor_scans", "pps_im.delta_updates"]),
    ("pps_im", "PPSState.next_seed", "pps_im.next_seed", None, ["pps_im.next_seed_s"]),
    ("pps_im", "PPSState.lower_tau", "pps_im.lower_tau", None, ["pps_im.lower_tau_s", "pps_im.tau_steps"]),
    ("pps_im", "PPSState._move_up", "pps_im.move_up", None, ["pps_im.move_up_s"]),
    ("pps_im", "PPSState.resume_sampling", "pps_im.resume_sampling", None, ["pps_im.resume_sampling_s"]),
    ("pps_im", "PPSState.commit_seed", "pps_im.commit_seed", None, ["pps_im.commit_seed_s"]),
    ("cli", "main", "cli.main", None, ["cli.main_s", "cli.self_s"]),
]

# Counted per call, without a span: these run hundreds of thousands of times.
COUNTS = [
    ("graph", "DijkstraCursor.__init__", "graph.cursors"),
    ("graph", "DijkstraCursor.settle_next", "graph.cursor_settles"),
]

DECAY_FACTORIES = ("make_threshold", "make_exponential", "make_harmonic")

# Layers whose self time is reported as <layer>.self_s.  decay is counted,
# not timed, and cli reports its self time as cli.self_s.
SPAN_LAYERS = ("graph", "exact", "sketch", "threshold_im", "pps_im")


class Tracer:
    """In-memory span recorder for one traced run of a workload."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []  # hooks whose target is missing
        self.absent_metrics: set[str] = set()
        self.largest_sample: tuple | None = None  # (ell, args, kwargs) of the biggest sample_instances call
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # wrappers

    def _span(self, name: str, fn: Callable, hook: Callable | None, metrics: list[str]) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(result, args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    # the result or arguments changed shape; report, do not crash
                    self.absent_metrics.update(metrics)
            return result

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_decay(self, factory: Callable) -> Callable:
        counts = self.counts

        def make(*args, **kwargs):
            alpha = factory(*args, **kwargs)
            base = alpha.fn

            def fn(d):
                counts["decay.evals"] += 1
                return base(d)

            return dataclasses.replace(alpha, fn=fn)

        return make

    def _radj_property(self, prop: property) -> property:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        getter = prop.fget

        def fget(inst):
            if getattr(inst, "_radj", None) is not None:
                return getter(inst)
            rec = ["graph.radj_build", clock(), 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            try:
                return getter(inst)
            finally:
                rec[2] = clock()

        return property(fget, doc=prop.__doc__)

    # result hooks ------------------------------------------------------ #

    def _hook_sample_instances(self, result, args, kwargs):
        ell = args[2] if len(args) > 2 else kwargs["ell"]  # one topology per workload
        if self.largest_sample is None or ell > self.largest_sample[0]:
            self.largest_sample = (ell, args, kwargs)

    def _hook_build_cads(self, result, args, kwargs):
        self.counts["sketch.entries"] += sum(len(sk) for sk in result[0])

    def _hook_merge_cads(self, result, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        if parent >= 0 and self.spans[parent][0] == "sketch.estimate_influence":
            self.counts["sketch.union_entries"] += len(result.entries)

    def _hook_save_sketches(self, result, args, kwargs):
        path = args[0] if args else kwargs["path"]
        self.counts["sketch.file_bytes"] += os.path.getsize(path)

    def _hook_im_metadata(self, result, args, kwargs):
        meta = result.metadata
        for key, name in (
            ("pairs_covered", "threshold_im.pairs_covered"),
            ("cursor_scans", "pps_im.cursor_scans"),
            ("delta_updates_total", "pps_im.delta_updates"),
        ):
            if key in meta:
                self.counts[name] += int(meta[key])

    # ------------------------------------------------------------------ #
    # installing

    def _replace(self, modname: str, attr: str, make: Callable[[object], object], metrics: list[str]) -> None:
        try:
            module = importlib.import_module(f"distinf.{modname}")
        except ImportError:
            module = None
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(member) if owner is not None else None
        if original is None:
            self.absent.append(f"distinf.{modname}.{attr}")
            self.absent_metrics.update(metrics)
            return
        replacement = make(original)
        if owner_name:
            self._set(owner, member, replacement)
            return
        # module-level function: rebind it wherever the package bound it by name
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name == "distinf" or name.startswith("distinf."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, replacement)

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def install(self) -> None:
        for mod, attr, name, hook, metrics in SPANS:
            hook_fn = getattr(self, f"_hook_{hook}") if hook else None
            self._replace(mod, attr, lambda fn, n=name, h=hook_fn, m=metrics: self._span(n, fn, h, m), metrics)
        for mod, attr, name in COUNTS:
            self._replace(mod, attr, lambda fn, n=name: self._count(n, fn), [name])
        for factory in DECAY_FACTORIES:
            self._replace("decay", factory, self._counted_decay, ["decay.evals"])
        self._replace("graph", "Instance.radj", self._radj_property, ["graph.radj_build_s"])

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # ------------------------------------------------------------------ #
    # reporting

    def write(self, path: str, extra: dict) -> None:
        """Write the spans and counters of the run as JSON."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "run": self.run_id,
                    **extra,
                    "absent_hooks": self.absent,
                    "absent_metrics": sorted(self.absent_metrics),
                    "counts": dict(self.counts),
                    "spans": [
                        {"name": n, "start": s, "end": e, "parent": p, "run": self.run_id}
                        for n, s, e, p in self.spans
                    ],
                },
                fh,
            )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals, counts and self times from the recorded spans."""
        spans = self.spans
        dur = [e - s for _, s, e, _ in spans]
        child_time = [0.0] * len(spans)
        children: dict[int, list[int]] = {}
        for idx, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += dur[idx]
                children.setdefault(parent, []).append(idx)

        total: Counter = Counter()
        calls: Counter = Counter()
        self_time: Counter = Counter()
        for idx, (name, _, _, _) in enumerate(spans):
            total[name] += dur[idx]
            calls[name] += 1
            self_time[name.split(".", 1)[0]] += dur[idx] - child_time[idx]

        def under(name: str, parent_name: str) -> list[int]:
            return [
                i for i, (n, _, _, p) in enumerate(spans) if n == name and p >= 0 and spans[p][0] == parent_name
            ]

        # exact-greedy phases, all relative to lazy_greedy calls
        initial = 0.0
        for g in (i for i, sp in enumerate(spans) if sp[0] == "exact.lazy_greedy"):
            kids = [c for c in children.get(g, []) if spans[c][0] in ("exact.marg_gain", "exact.add_seed")]
            first = min((spans[c][1] for c in kids), default=spans[g][2])
            initial += first - spans[g][1]
        reevals = under("exact.marg_gain", "exact.lazy_greedy")
        greedy_adds = under("exact.add_seed", "exact.lazy_greedy")

        c = self.counts
        m = {
            "graph.load_edge_list_s": total["graph.load_edge_list"],
            "graph.save_npz_s": total["graph.save_npz"],
            "graph.load_npz_s": total["graph.load_npz"],
            "graph.sample_instances_s": total["graph.sample_instances"],
            "graph.radj_build_s": total["graph.radj_build"],
            "graph.cursors": c["graph.cursors"],
            "graph.cursor_settles": c["graph.cursor_settles"],
            "decay.evals": c["decay.evals"],
            "exact.initial_pass_s": initial,
            "exact.reevals": len(reevals),
            "exact.reeval_s": sum(dur[i] for i in reevals),
            "exact.add_seed_s": sum(dur[i] for i in greedy_adds),
            "exact.lazy_accept_ratio": len(greedy_adds) / max(len(reevals), 1),
            "exact.evaluate_prefixes_s": total["exact.evaluate_prefixes"],
            "sketch.ranks_s": total["sketch.ranks"],
            "sketch.ads_instance_s": total["sketch.ads_instance"],
            "sketch.merge_build_s": sum(dur[i] for i in under("sketch.merge_cads", "sketch.build_cads")),
            "sketch.entries": c["sketch.entries"],
            "sketch.save_s": total["sketch.save"],
            "sketch.load_s": total["sketch.load"],
            "sketch.file_bytes": c["sketch.file_bytes"],
            "sketch.merge_query_s": sum(
                dur[i] for i in under("sketch.merge_cads", "sketch.estimate_influence")
            ),
            "sketch.union_entries": c["sketch.union_entries"],
            "threshold_im.select_s": total["threshold_im.select"],
            "threshold_im.select_calls": calls["threshold_im.select"],
            "threshold_im.cover_s": total["threshold_im.cover"],
            "threshold_im.pairs_covered": c["threshold_im.pairs_covered"],
            "pps_im.next_seed_s": total["pps_im.next_seed"],
            "pps_im.lower_tau_s": total["pps_im.lower_tau"],
            "pps_im.move_up_s": total["pps_im.move_up"],
            "pps_im.resume_sampling_s": total["pps_im.resume_sampling"],
            "pps_im.commit_seed_s": total["pps_im.commit_seed"],
            "pps_im.tau_steps": calls["pps_im.lower_tau"],
            "pps_im.cursor_scans": c["pps_im.cursor_scans"],
            "pps_im.delta_updates": c["pps_im.delta_updates"],
            "cli.main_s": total["cli.main"],
            "cli.self_s": self_time["cli"],
        }
        for layer in SPAN_LAYERS:
            m[f"{layer}.self_s"] = self_time[layer]
        return m
