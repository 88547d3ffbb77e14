"""Distance-based influence computation and maximization on multi-instance
weighted directed graphs."""

from .decay import DecayFunction, make_exponential, make_harmonic, make_threshold, parse_decay
from .exact import (
    GreedyTrace,
    ResidualState,
    add_seed,
    evaluate_prefixes,
    influence_exact,
    lazy_greedy,
    marg_gain,
)
from .graph import (
    EdgeLengthModel,
    GraphFormatError,
    MultiInstanceGraph,
    load_edge_list,
    load_npz,
    sample_instances,
    save_npz,
)
from .pps_im import PPSState, run_pps_im
from .sketch import (
    CADS,
    ThresholdSketch,
    assign_ranks,
    build_cads,
    build_threshold_sketches,
    estimate_influence,
    load_sketches,
    merge_cads,
    save_sketches,
    threshold_influence_estimate,
)
from .threshold_im import ThresholdState, run_threshold_im

__version__ = "0.1.0"

__all__ = [
    "CADS",
    "DecayFunction",
    "EdgeLengthModel",
    "GraphFormatError",
    "GreedyTrace",
    "MultiInstanceGraph",
    "PPSState",
    "ResidualState",
    "ThresholdSketch",
    "ThresholdState",
    "add_seed",
    "assign_ranks",
    "build_cads",
    "build_threshold_sketches",
    "estimate_influence",
    "evaluate_prefixes",
    "influence_exact",
    "lazy_greedy",
    "load_edge_list",
    "load_npz",
    "load_sketches",
    "make_exponential",
    "make_harmonic",
    "make_threshold",
    "marg_gain",
    "merge_cads",
    "parse_decay",
    "run_pps_im",
    "run_threshold_im",
    "sample_instances",
    "save_npz",
    "save_sketches",
    "threshold_influence_estimate",
]
