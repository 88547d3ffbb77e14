"""Non-increasing decay functions mapping distance to utility.

Every decay function is one numpy expression `fn` of the distance, which
evaluates a float or a float64 array alike, so a scalar call and an array
call of the same distance give the same float.  It satisfies fn(inf) == 0
and carries a support bound sup{x : fn(x) > 0} used to prune shortest-path
searches.
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
    fn: Callable[[np.ndarray], np.ndarray]
    support_bound: float

    def __call__(self, d: float) -> float:
        return float(self.fn(d))

    def eval_array(self, d: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(d, dtype=np.float64))

    @property
    def alpha0(self) -> float:
        return self(0.0)


def make_threshold(T: float) -> DecayFunction:
    """1 within distance T inclusive, 0 beyond."""
    if not T > 0:
        raise ValueError("threshold must be positive")
    return DecayFunction(f"threshold:{T:g}", lambda d: np.where(d <= T, 1.0, 0.0), T)


def make_exponential(rate: float) -> DecayFunction:
    """exp(-rate * d)."""
    if not rate > 0:
        raise ValueError("rate must be positive")
    return DecayFunction(f"exp:{rate:g}", lambda d: np.exp(-rate * d), INF)


def make_harmonic(scale: float) -> DecayFunction:
    """1 / (scale * d + 1)."""
    if not scale > 0:
        raise ValueError("scale must be positive")
    return DecayFunction(f"harmonic:{scale:g}", lambda d: 1.0 / (scale * d + 1.0), INF)


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
