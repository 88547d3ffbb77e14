import math

import numpy as np
import pytest

from distinf import make_exponential, make_harmonic, make_threshold, parse_decay

INF = math.inf


def test_threshold_values():
    t = make_threshold(1.5)
    assert t(1) == 1.0
    assert t(2) == 0.0
    assert t(1.5) == 1.0  # boundary is inclusive
    assert t(INF) == 0.0
    assert t.support_bound == 1.5


def test_threshold_validation():
    with pytest.raises(ValueError):
        make_threshold(0.0)


def test_exponential_values():
    e = make_exponential(10)
    assert e(0) == 1.0
    assert e(0.1) == pytest.approx(math.exp(-1), abs=1e-12)
    assert e(INF) == 0.0
    assert e.support_bound == INF
    with pytest.raises(ValueError):
        make_exponential(-1)


def test_harmonic_values():
    h = make_harmonic(10)
    assert h(0) == 1.0
    assert h(0.1) == pytest.approx(0.5)
    assert make_harmonic(1)(1) == pytest.approx(0.5)
    assert h(INF) == 0.0
    with pytest.raises(ValueError):
        make_harmonic(0)


def test_monotone_nonincreasing_fuzz():
    rng = np.random.default_rng(1)
    fns = [make_threshold(0.7), make_exponential(3), make_harmonic(2)]
    for fn in fns:
        d = np.sort(rng.uniform(0, 5, size=200))
        vals = [fn(x) for x in d]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert fn(INF) == 0.0


def test_array_eval_matches_scalar():
    # one rule serves both entry points, so they agree to the bit, at 0, inf
    # and either side of the threshold too
    T = 1.0
    edge = [0.0, np.nextafter(T, 0), T, np.nextafter(T, INF), 1e300, INF]
    d = np.concatenate([edge, np.random.default_rng(2).uniform(0, 3, size=50)])
    for fn in [make_threshold(T), make_exponential(2), make_harmonic(5)]:
        assert fn.eval_array(d).tolist() == [fn(x) for x in d.tolist()]
        assert fn.alpha0 == fn(0)


def test_parse_decay_specs():
    assert parse_decay("threshold:1.5")(1.5) == 1.0
    assert parse_decay("exp:10")(0.1) == pytest.approx(math.exp(-1))
    assert parse_decay("harmonic:10")(0.1) == pytest.approx(0.5)
    for bad in ["gauss:1", "exp", "exp:x"]:
        with pytest.raises(ValueError):
            parse_decay(bad)
