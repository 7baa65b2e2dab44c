"""The search's scalar Nelder-Mead against scipy's, bit for bit.

``actions._nelder_mead`` claims to be scipy's ``_minimize_neldermead``
(no bounds, ``adaptive=False``) step for step.  Each case runs both on
the same objective and compares the sequence of evaluated points, the
returned point and the returned value by their bytes.  A scipy release
that changes the algorithm fails here instead of moving an artifact.

Which steps a run took is read back from its values alone (the branch
tests of Nelder-Mead compare values only), so the cases can assert that
they exercise the expansion, both contractions and the shrink.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from hornlab.actions import _nelder_mead


def _record(fn):
    log = []

    def F(x):
        assert isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype == np.float64
        log.append(x.copy())
        return fn(x)

    return F, log


def _nan_last(v):
    return (math.isnan(v), 0.0 if math.isnan(v) else v)


def _steps(values, n):
    """Replay the branch decisions of a run from its evaluated values:
    counts of each step kind."""
    vals = iter(values)
    fsim = sorted((next(vals) for _ in range(n + 1)), key=_nan_last)
    kinds = dict.fromkeys(("reflect", "expand", "outside", "inside", "shrink"), 0)
    for fxr in vals:
        if fxr < fsim[0]:
            fxe = next(vals)
            fsim[-1] = fxe if fxe < fxr else fxr
            kinds["expand"] += 1
        elif fxr < fsim[-2]:
            fsim[-1] = fxr
            kinds["reflect"] += 1
        else:
            outside = fxr < fsim[-1]
            fx = next(vals)
            kinds["outside" if outside else "inside"] += 1
            if (fx <= fxr) if outside else (fx < fsim[-1]):
                fsim[-1] = fx
            else:
                fsim[1:] = [next(vals) for _ in range(n)]
                kinds["shrink"] += 1
        fsim.sort(key=_nan_last)
    return kinds


def _compare(fn, x0, maxiter, xatol, fatol):
    """Run both; assert bitwise agreement; return (scipy result, step counts)."""
    F1, log1 = _record(fn)
    F2, log2 = _record(fn)
    res = minimize(F1, np.array(x0, dtype=float), method="Nelder-Mead",
                   options={"maxiter": maxiter, "xatol": xatol, "fatol": fatol})
    x, fun = _nelder_mead(F2, np.array(x0, dtype=float), maxiter, xatol, fatol)
    assert len(log1) == len(log2)
    for k, (a, b) in enumerate(zip(log1, log2)):
        assert a.tobytes() == b.tobytes(), (k, a, b)
    assert x.tobytes() == res.x.tobytes(), (x, res.x)
    assert np.float64(fun).tobytes() == np.float64(res.fun).tobytes(), (fun, res.fun)
    return res, _steps([fn(p) for p in log1], len(x0))


def rosenbrock(x):
    return float(sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def test_one_dimension():
    res, kinds = _compare(lambda x: float((x[0] - 1.3) ** 2), [4.0], 200, 1e-9, 1e-13)
    assert res.status == 0
    assert kinds["expand"] and kinds["inside"]


def test_two_dimensions_every_step():
    res, kinds = _compare(rosenbrock, [-1.2, 1.0], 400, 1e-10, 1e-12)
    assert res.status == 0
    assert kinds["expand"] and kinds["outside"] and kinds["inside"] and kinds["reflect"]


def test_three_dimensions_from_a_zero_coordinate():
    res, kinds = _compare(rosenbrock, [0.0, 1.5, -0.5], 480, 1e-9, 1e-13)
    assert kinds["expand"] and kinds["outside"] and kinds["inside"]


def test_shrink():
    # a rippled bowl: contractions into a ripple fail and the simplex shrinks
    def rippled(x):
        return float(x[0] ** 2 + x[1] ** 2 + 0.5 * math.sin(20.0 * x[0]))

    _, kinds = _compare(rippled, [0.7, 0.2], 300, 1e-9, 1e-13)
    assert kinds["shrink"] and kinds["expand"] and kinds["outside"] and kinds["inside"]


@pytest.mark.parametrize("x0", [[1.1, -0.7], [1.1, -0.7, 0.4], [-1.66, -1.05, 1.2, 0.33]])
def test_plateau_with_tied_values(x0):
    # values quantized to 0.5: vertex values tie all along the run, so the
    # order of tied vertices decides the iterates.  That order is numpy's
    # argsort, which is not stable on SIMD builds: on an AVX-512 machine a
    # stable sort leaves the 4-D run's path
    def steps(x):
        return float(np.floor(2.0 * float(np.sum(x**2))) / 2.0)

    _, kinds = _compare(steps, x0, 100 * len(x0), 1e-6, 1e-10)
    assert kinds["shrink"]


def test_nan_region():
    # NaN beyond x0 = 1.5: NaN values sort last and the run goes on
    holes = []

    def holed(x):
        if x[0] > 1.5:
            holes.append(x)
            return math.nan
        return float((x[0] - 2.0) ** 2 + x[1] ** 2)

    res, _ = _compare(holed, [1.0, 0.5], 200, 1e-9, 1e-13)
    assert holes and not math.isnan(res.fun) and res.x[0] <= 1.5


def test_nan_at_the_end_gives_nan():
    # every vertex but the start is NaN: the least value is NaN, as np.min says
    def only_start(x):
        return 1.0 if x[0] == 1.0 else math.nan

    res, _ = _compare(only_start, [1.0], 5, 1e-9, 1e-13)
    assert math.isnan(res.fun)


def test_stops_at_maxiter():
    res, _ = _compare(rosenbrock, [-1.2, 1.0], 20, 1e-12, 1e-14)
    assert res.status == 2 and res.nit == 20
