"""Geodesic initial value solver.

Integrates the geodesic equation of the chart metric with an embedded
Dormand-Prince 5(4) pair.  Near horn factors the step is additionally
capped at ``xi / 4`` because the curvature ``-3/(2 xi^2)`` blows up as a
block approaches its collapsed axis.  When a horn coordinate falls below
the snap threshold the run terminates on the stratum and the endpoint is
canonicalized to the boundary marker.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import IntegrationError
from .spaces import (
    XI_SNAP,
    CompletionPoint,
    SpaceSpec,
    TangentVector,
    chart_vector,
    make_point,
    point_from_chart,
    tangent_chart_vector,
)
from .tensors import metric_at_chart, metric_batch, metric_grad_batch

# Dormand-Prince 5(4) tableau
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_ERR = _B5 - _B4


def acceleration_fn(space: SpaceSpec):
    """Return ``accel(x, v)`` for the geodesic equation of the chart metric.

    Uncoupled charts sum the exact accelerations of the factors' warp
    profiles.  A coupled chart solves ``g a = -w`` with
    ``w_l = d_i g_jl v^i v^j - 1/2 d_l g_ij v^i v^j`` from the exact metric
    gradient, which is ``a = -Gamma(v, v)``.
    """
    if space.coupled:

        def accel_coupled(x, v):
            T = metric_grad_batch(space, x) @ v  # T[l, i] = d_l g_ij v^j
            return -np.linalg.solve(metric_batch(space, x), v @ T - 0.5 * (T @ v))

        return accel_coupled

    pieces = [(sl.start, f.profile) for f, sl in zip(space.factors, space.chart_slices())
              if f.profile is not None]

    def accel(x, v):
        a = np.zeros_like(x)
        for k, prof in pieces:
            a[k], a[k + 1] = prof.accel(x[k + 1], v[k], v[k + 1])
        return a

    return accel


def speed_at(space: SpaceSpec, x: np.ndarray, v: np.ndarray) -> float:
    g = metric_at_chart(space, x)
    return float(np.sqrt(v @ g @ v))


@dataclass
class GeodesicSegment:
    """A sampled geodesic with constant-speed parameterization on [0, 1].

    ``chart`` and ``chart_velocity`` hold the raw integrator states when
    the segment was produced by shooting (rows aligned with ``params``);
    boundary value segments fill ``points`` from exact factor paths and
    may attach an exact evaluator instead.
    """

    space: SpaceSpec
    start: CompletionPoint
    velocity: TangentVector | None
    length: float
    params: np.ndarray
    points: list[CompletionPoint]
    speeds: np.ndarray | None = None
    hit_stratum: bool = False
    chart: np.ndarray | None = None
    chart_velocity: np.ndarray | None = None
    _eval: object = field(default=None, repr=False, compare=False)

    @property
    def end(self) -> CompletionPoint:
        return self.points[-1]

    @property
    def samples(self) -> list[tuple[float, CompletionPoint]]:
        return list(zip(self.params.tolist(), self.points))

    def point_at(self, x: float) -> CompletionPoint:
        """Point at parameter ``x`` in [0, 1] (exact for BVP segments)."""
        x = float(min(max(x, 0.0), 1.0))
        if self._eval is not None:
            return self._eval(x)
        i = int(np.searchsorted(self.params, x))
        i = min(max(i, 1), len(self.points) - 1)
        lo, hi = self.params[i - 1], self.params[i]
        w = 0.0 if hi == lo else (x - lo) / (hi - lo)
        a, b = self.points[i - 1], self.points[i]
        if a.stratum() or b.stratum():
            return a if w < 0.5 else b
        va = chart_vector(self.space, a)
        vb = chart_vector(self.space, b)
        return point_from_chart(self.space, (1 - w) * va + w * vb)


def geodesic_shoot(
    space: SpaceSpec,
    point: CompletionPoint,
    velocity: TangentVector,
    arclength: float,
    *,
    atol: float = 1e-10,
    h_max: float = 0.25,
    min_step: float = 1e-14,
) -> GeodesicSegment:
    """Shoot a unit-speed geodesic from an interior point.

    The velocity is normalized, so ``arclength`` is the metric length of
    the requested segment.  If a horn block reaches the snap threshold the
    run stops there, the endpoint collapses to the boundary marker and
    ``hit_stratum`` is set.
    """
    if point.stratum():
        raise ValueError("cannot shoot from a stratum point")
    if arclength <= 0:
        raise ValueError("arclength must be positive")
    x = chart_vector(space, point)
    v = tangent_chart_vector(space, velocity)
    sp0 = speed_at(space, x, v)
    if sp0 == 0 or not np.isfinite(sp0):
        raise ValueError("velocity must be nonzero with finite norm")
    v = v / sp0

    accel = acceleration_fn(space)
    xi_pos = space.xi_offsets
    n = space.dim

    def rhs(y):
        out = np.empty_like(y)
        out[:n] = y[n:]
        out[n:] = accel(y[:n], y[n:])
        return out

    def step_once(y, h):
        k = np.empty((7, 2 * n))
        k[0] = rhs(y)
        for i in range(1, 7):
            yi = y + h * sum(a * k[j] for j, a in enumerate(_A[i]))
            k[i] = rhs(yi)
        y5 = y + h * (_B5 @ k)
        err = h * (_ERR @ k)
        scale = atol * (1.0 + np.abs(y5))
        enorm = float(np.sqrt(np.mean((err / scale) ** 2)))
        return y5, enorm

    def cap(yv):
        lim = h_max
        for j in xi_pos:
            lim = min(lim, max(yv[j], XI_SNAP) / 4.0)
        return lim

    y = np.concatenate([x, v])
    s = 0.0
    s_nodes = [0.0]
    states = [y.copy()]
    hit = False
    h = min(cap(y), arclength)

    while s < arclength * (1.0 - 1e-15):
        h = min(h, arclength - s, cap(y))
        if h < min_step:
            raise IntegrationError(
                "step size underflow during geodesic integration",
                last_state=(s, y.copy()),
            )
        y_new, enorm = step_once(y, h)
        if enorm > 1.0:
            h *= max(0.2, 0.9 * enorm ** (-0.2))
            continue
        if any(y_new[j] < XI_SNAP for j in xi_pos):
            # bisect the step so the run lands on the snap threshold
            lo_h, hi_h = 0.0, h
            for _ in range(60):
                mid = 0.5 * (lo_h + hi_h)
                y_mid, _ = step_once(y, mid)
                if any(y_mid[j] < XI_SNAP for j in xi_pos):
                    hi_h = mid
                else:
                    lo_h = mid
                if hi_h - lo_h <= 1e-16 * max(h, 1.0):
                    break
            if lo_h > 0:
                y, _ = step_once(y, lo_h)
                s += lo_h
                s_nodes.append(s)
                states.append(y.copy())
            hit = True
            break
        s += h
        y = y_new
        s_nodes.append(s)
        states.append(y.copy())
        h = h * min(5.0, max(0.2, 0.9 * (enorm + 1e-16) ** (-0.2)))

    s_arr = np.array(s_nodes)
    states = np.array(states)
    chart = states[:, :n]
    chart_v = states[:, n:]
    speeds = np.array([speed_at(space, c, w) for c, w in zip(chart, chart_v)])
    pts = [point_from_chart(space, c) for c in chart[:-1]]
    pts.append(_final_point(space, chart[-1], snapped=hit))
    total = float(s_arr[-1])
    params = s_arr / total if total > 0 else s_arr
    return GeodesicSegment(
        space=space,
        start=point,
        velocity=velocity,
        length=total,
        params=params,
        points=pts,
        speeds=speeds,
        hit_stratum=hit,
        chart=chart,
        chart_velocity=chart_v,
    )


def _final_point(space: SpaceSpec, x: np.ndarray, snapped: bool) -> CompletionPoint:
    blocks = [tuple(x[sl]) for sl in space.chart_slices()]
    if snapped:
        for i in space.horn_indices:
            if blocks[i][1] <= XI_SNAP * (1.0 + 1e-9):
                blocks[i] = None
    return make_point(space, blocks)


def clairaut_series(space: SpaceSpec, segment: GeodesicSegment) -> np.ndarray:
    """Angular momenta ``f(xi) theta'`` of each horn factor along a shoot.

    Shape (n_horn, n_samples); conserved along geodesics of rotationally
    symmetric blocks, providing an integrator diagnostic.
    """
    if segment.chart is None or segment.chart_velocity is None:
        raise ValueError("clairaut series needs raw integrator states")
    slices = space.chart_slices()
    rows = []
    for idx in space.horn_indices:
        prof = space.factors[idx].profile
        k = slices[idx].start
        xi = segment.chart[:, k + 1]
        vth = segment.chart_velocity[:, k]
        rows.append(prof.f(xi) * vth)
    return np.array(rows)
