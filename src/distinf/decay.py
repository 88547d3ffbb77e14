"""Non-increasing decay functions mapping distance to utility.

Every decay function satisfies eval(inf) == 0 and carries a support bound
sup{x : eval(x) > 0} used to prune shortest-path searches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

INF = math.inf


@dataclass(frozen=True)
class DecayFunction:
    """A non-increasing map from distance in [0, inf] to utility in [0, alpha0]."""

    name: str
    fn: Callable[[float], float]
    array_fn: Callable[[np.ndarray], np.ndarray]
    support_bound: float
    alpha0: float

    def __call__(self, d: float) -> float:
        return self.fn(d)

    def eval_array(self, d: np.ndarray) -> np.ndarray:
        return self.array_fn(d)


def make_threshold(T: float) -> DecayFunction:
    """1 within distance T inclusive, 0 beyond."""
    if not T > 0:
        raise ValueError("threshold must be positive")
    return DecayFunction(
        name=f"threshold:{T:g}",
        fn=lambda d: 1.0 if d <= T else 0.0,
        array_fn=lambda d: np.where(np.asarray(d) <= T, 1.0, 0.0),
        support_bound=T,
        alpha0=1.0,
    )


def make_exponential(rate: float) -> DecayFunction:
    """exp(-rate * d)."""
    if not rate > 0:
        raise ValueError("rate must be positive")
    return DecayFunction(
        name=f"exp:{rate:g}",
        fn=lambda d: math.exp(-rate * d) if d != INF else 0.0,
        array_fn=lambda d: np.exp(-rate * np.asarray(d, dtype=np.float64)),
        support_bound=INF,
        alpha0=1.0,
    )


def make_harmonic(scale: float) -> DecayFunction:
    """1 / (scale * d + 1)."""
    if not scale > 0:
        raise ValueError("scale must be positive")
    return DecayFunction(
        name=f"harmonic:{scale:g}",
        fn=lambda d: 1.0 / (scale * d + 1.0),
        array_fn=lambda d: 1.0 / (scale * np.asarray(d, dtype=np.float64) + 1.0),
        support_bound=INF,
        alpha0=1.0,
    )


def parse_decay(spec: str) -> DecayFunction:
    """Parse CLI decay specs: threshold:T, exp:RATE, harmonic:SCALE."""
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise ValueError(f"decay spec needs a parameter, e.g. 'threshold:0.1': {spec!r}")
    try:
        value = float(arg)
    except ValueError:
        raise ValueError(f"bad decay parameter {arg!r} in {spec!r}") from None
    if kind == "threshold":
        return make_threshold(value)
    if kind == "exp":
        return make_exponential(value)
    if kind == "harmonic":
        return make_harmonic(value)
    raise ValueError(f"unknown decay kind {kind!r} in {spec!r}")
