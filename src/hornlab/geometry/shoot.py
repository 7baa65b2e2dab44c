"""Geodesic initial value solver.

Integrates the geodesic equation of the chart metric with an embedded
Dormand-Prince 5(4) pair over a stack of states ``(x, v)``, one per row.
Row 0, the base row, alone sets the step size, error norm, step cap,
snap test and step underflow, so it follows the trajectory a one-row
shoot integrates; the other rows ride its step sequence, and shooting
differences their endpoints for its Jacobian (internal numerical
differentiation, Bock 1981).  Near horn factors the step is capped at
``xi / 4`` because the curvature ``-3/(2 xi^2)`` blows up as a block
approaches its collapsed axis.  When a horn coordinate of the base row
falls below the snap threshold the run terminates on the stratum and the
endpoint is canonicalized to the boundary marker; a partner row that
snaps or goes non-finite drops all partners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

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

# Dormand-Prince 5(4) tableau: stage i combines stages 0..i-1 with _A[i].
# The last row is the fifth-order solution, where stage 6 is evaluated, so
# an accepted step's stage 6 is the next step's stage 0.
_A = [np.array(row) for row in (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)]
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_ERR = np.append(_A[6], 0.0) - _B4


def acceleration_fn(space: SpaceSpec):
    """Return ``accel(x, v)`` for the geodesic equation of the chart metric.

    ``x`` and ``v`` are one chart state (1-D) or rows of states (2-D).
    Uncoupled charts sum the exact accelerations of the factors' warp
    profiles.  A coupled chart solves ``g a = -w`` with
    ``w_l = d_i g_jl v^i v^j - 1/2 d_l g_ij v^i v^j`` from the exact metric
    gradient, which is ``a = -Gamma(v, v)``.
    """
    if space.coupled:

        def accel_coupled(x, v):
            if x.ndim == 1:
                T = metric_grad_batch(space, x) @ v  # T[l, i] = d_l g_ij v^j
                return -np.linalg.solve(metric_batch(space, x), v @ T - 0.5 * (T @ v))
            T = (metric_grad_batch(space, x) @ v[:, None, :, None])[..., 0]
            w = v[:, None, :] @ (T - 0.5 * T.transpose(0, 2, 1))  # (m, 1, d)
            return -np.linalg.solve(metric_batch(space, x), w.transpose(0, 2, 1))[..., 0]

        return accel_coupled

    pieces = [(sl.start, f.profile) for f, sl in zip(space.factors, space.chart_slices())
              if f.profile is not None]

    def accel(x, v):
        a = np.zeros_like(x)
        for k, prof in pieces:
            a[..., k], a[..., k + 1] = prof.accel(x[..., k + 1], v[..., k], v[..., k + 1])
        return a

    return accel


def speed_at(space: SpaceSpec, x: np.ndarray, v: np.ndarray) -> float:
    g = metric_at_chart(space, x)
    return float(np.sqrt(v @ g @ v))


class RowShoot(NamedTuple):
    """Result of :func:`shoot_rows`."""

    s: np.ndarray     # arclength at the accepted steps, from 0
    base: np.ndarray  # the base row's state ``(x, v)`` there, one per row
    end: np.ndarray   # final states of all rows, or of the base row alone
    hit: bool         # the base row stopped on the snap threshold


def shoot_rows(space: SpaceSpec, x: np.ndarray, V: np.ndarray, arclength: float, *,
               atol: float = 1e-10, h_max: float = 0.25,
               min_step: float = 1e-14) -> RowShoot:
    """Integrate geodesics from chart point x with chart velocities V.

    Each row of V starts one geodesic; all of them run for ``arclength``
    on the step sequence that row 0 chooses (see the module docstring).
    Raises IntegrationError when the base row's step underflows
    ``min_step``.  ``end`` keeps one row when a partner row snapped or
    went non-finite, or when the base row snapped.
    """
    accel = acceleration_fn(space)
    n = space.dim
    w = 2 * n  # one state; the stack is flat, the base row first
    xi_idx = np.array(space.xi_offsets, dtype=int)
    y = np.concatenate([np.broadcast_to(x, V.shape), V], axis=1).ravel()
    k = np.empty((7, y.size))  # stage derivatives, one flat stack per stage

    def rhs(y, out):
        if len(y) == w:  # one state costs less in the scalar arithmetic of 1-D input
            out[:n] = y[n:]
            out[n:] = accel(y[:n], y[n:])
            return
        Y, O = y.reshape(-1, w), out.reshape(-1, w)
        O[:, :n] = Y[:, n:]
        O[:, n:] = accel(Y[:, :n], Y[:, n:])

    def step_once(y, h):
        """Trial step from y, whose derivative is k[0]: the fifth-order
        state (stage 6 evaluated there) and row 0's error norm."""
        for i in range(1, 7):
            yi = y + h * (_A[i] @ k[:i])
            rhs(yi, k[i])
        r = h * (_ERR @ k[:, :w]) / (atol * (1.0 + np.abs(yi[:w])))
        return yi, math.sqrt(float(r @ r) / w)

    def level(y):
        """Lowest horn level over the flat states y, inf without horns."""
        return float(y.reshape(-1, w)[:, xi_idx].min()) if xi_idx.size else math.inf

    def cap(y):
        return min(h_max, max(level(y[:w]), XI_SNAP) / 4.0)

    rhs(y, k[0])
    s = 0.0
    s_nodes = [0.0]
    states = [y[:w].copy()]
    hit = False
    h = min(cap(y), arclength)

    while s < arclength * (1.0 - 1e-15):
        h = min(h, arclength - s, cap(y))
        if h < min_step:
            raise IntegrationError(
                "step size underflow during geodesic integration",
                last_state=(s, y[:w].copy()),
            )
        y_new, enorm = step_once(y, h)
        if enorm > 1.0:
            h *= max(0.2, 0.9 * enorm ** (-0.2))
            continue
        if level(y_new[:w]) < XI_SNAP:
            # bisect the step so the base row lands on the snap threshold
            y, k = y[:w], np.ascontiguousarray(k[:, :w])
            lo_h, hi_h = 0.0, h
            for _ in range(60):
                mid = 0.5 * (lo_h + hi_h)
                if level(step_once(y, mid)[0]) < XI_SNAP:
                    hi_h = mid
                else:
                    lo_h = mid
                if hi_h - lo_h <= 1e-16 * max(h, 1.0):
                    break
            if lo_h > 0:
                y = step_once(y, lo_h)[0]
                s += lo_h
                s_nodes.append(s)
                states.append(y.copy())
            hit = True
            break
        s += h
        y = y_new
        k[0] = k[6]
        if len(y) > w and (level(y[w:]) < XI_SNAP or not np.isfinite(y[w:]).all()):
            y, k = y[:w], np.ascontiguousarray(k[:, :w])
        s_nodes.append(s)
        states.append(y[:w].copy())
        h = h * min(5.0, max(0.2, 0.9 * (enorm + 1e-16) ** (-0.2)))

    return RowShoot(np.array(s_nodes), np.array(states), y.reshape(-1, w), hit)


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
    run = shoot_rows(space, x, (v / sp0)[None, :], arclength,
                     atol=atol, h_max=h_max, min_step=min_step)

    n = space.dim
    chart, chart_v = run.base[:, :n], run.base[:, n:]
    G = metric_batch(space, chart)
    speeds = np.sqrt(np.einsum("ki,kij,kj->k", chart_v, G, chart_v))
    pts = [point_from_chart(space, c) for c in chart[:-1]]
    pts.append(_final_point(space, chart[-1], snapped=run.hit))
    total = float(run.s[-1])
    params = run.s / total if total > 0 else run.s
    return GeodesicSegment(
        space=space,
        start=point,
        velocity=velocity,
        length=total,
        params=params,
        points=pts,
        speeds=speeds,
        hit_stratum=run.hit,
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
