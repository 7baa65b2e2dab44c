import math

import pytest

import hornlab.geometry.connect as connect_mod
from hornlab.errors import ConnectError, DistanceIntervalError
from hornlab.geometry import (
    Euclidean,
    Horn,
    HyperbolicPlane,
    SpaceSpec,
    distance,
    lower_bound_distance,
    make_point,
    shooting_connect,
    upper_bound_distance,
)

HORN = SpaceSpec((Horn(),))


def test_shooting_budget_exhaustion_carries_certificate():
    hyp = SpaceSpec((HyperbolicPlane(),))
    p = make_point(hyp, [(-0.5, 1.0)])
    q = make_point(hyp, [(1.0, 2.0)])
    with pytest.raises(ConnectError) as exc:
        shooting_connect(hyp, p, q, n_guesses=1, newton_iters=0)
    err = exc.value
    assert err.upper is not None
    assert err.upper >= distance(hyp, p, q) - 1e-12  # a genuine upper bound
    assert err.best_path is not None


def test_distance_interval_on_solver_failure(monkeypatch):
    p = make_point(HORN, [(0.0, 0.4)])
    q = make_point(HORN, [(1.0, 0.6)])

    def broken(prof, a, b):
        raise ConnectError("forced failure")

    monkeypatch.setattr(connect_mod, "_warp_distance", broken)
    with pytest.raises(DistanceIntervalError) as exc:
        connect_mod.distance(HORN, p, q)
    err = exc.value
    assert err.lower == pytest.approx(abs(2 * 0.6 - 2 * 0.4))
    assert err.upper == pytest.approx(2 * 0.4 + 2 * 0.6)
    assert err.lower <= err.upper


def test_bounds_bracket_distance():
    import numpy as np

    rng = np.random.default_rng(31)
    space = SpaceSpec((Horn(), HyperbolicPlane()))
    for _ in range(20):
        p = make_point(space, [
            (rng.uniform(-1, 1), rng.uniform(0.1, 1.5)),
            (rng.uniform(-1, 1), rng.uniform(0.3, 3.0)),
        ])
        q = make_point(space, [
            (rng.uniform(-1, 1), rng.uniform(0.1, 1.5)),
            (rng.uniform(-1, 1), rng.uniform(0.3, 3.0)),
        ])
        d = distance(space, p, q)
        assert lower_bound_distance(space, p, q) <= d + 1e-12
        assert d <= upper_bound_distance(space, p, q) + 1e-12


def test_shooting_accepts_exact_chord_without_newton_steps():
    # the Euclidean chord is the geodesic, so the first shoot already hits q
    e2 = SpaceSpec((Euclidean(2),))
    p = make_point(e2, [(0.0, 0.0)])
    q = make_point(e2, [(1.0, 2.0)])
    v, length = shooting_connect(e2, p, q, newton_iters=0)
    assert length == pytest.approx(math.sqrt(5.0), rel=1e-15)


def test_shooting_accepts_convergence_on_last_newton_step():
    # from the chord, Newton needs 5 steps on this H^2 pair: with 4 allowed
    # it fails, with exactly 5 the last step's residual is accepted
    hyp = SpaceSpec((HyperbolicPlane(),))
    p = make_point(hyp, [(-0.5, 1.0)])
    q = make_point(hyp, [(1.0, 2.0)])
    with pytest.raises(ConnectError):
        shooting_connect(hyp, p, q, n_guesses=1, newton_iters=4)
    v, length = shooting_connect(hyp, p, q, n_guesses=1, newton_iters=5)
    assert length == pytest.approx(distance(hyp, p, q), rel=1e-8)
    assert length == shooting_connect(hyp, p, q)[1]
