"""Geodesic initial value solver.

Integrates the geodesic equation of the chart metric with the embedded
Dormand-Prince 8(5,3) pair (Hairer, Norsett and Wanner, *Solving ODEs I*,
II.10) over a stack of states ``(x, v)``, one per row.  The error norm
mixes the fifth- and third-order estimators as ``|e5|^2 / sqrt(|e5|^2 +
0.01 |e3|^2)`` and steps scale with its -1/8 power.  Row 0, the base row,
alone sets the step size, error norm, step cap, snap test and step
underflow, so it follows the trajectory a one-row shoot integrates; the
other rows ride its step sequence, and shooting differences their
endpoints for its Jacobian (internal numerical differentiation, Bock
1981).  Near horn factors the step is capped at ``xi / 4`` because the
curvature ``-3/(2 xi^2)`` blows up as a block approaches its collapsed
axis.  When a horn coordinate of the base row falls below the snap
threshold the run terminates on the stratum and the endpoint is
canonicalized to the boundary marker; a partner row that snaps or goes
non-finite drops all partners.
"""

from __future__ import annotations

import functools
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

@functools.cache
def _tableau():
    """Rows of ``A`` (stage i combines stages 0..i-1), ``B``, ``E5`` and
    ``E3`` of the 12-stage pair, imported on the first shoot: loading
    ``scipy.integrate`` at module level would slow ``import hornlab``."""
    from scipy.integrate._ivp import dop853_coefficients as c

    return [c.A[i, :i] for i in range(c.N_STAGES)], c.B, c.E5, c.E3


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
    on the eighth-order steps that row 0 chooses (see the module
    docstring), and ``s`` and ``base`` hold one sample per accepted step.
    Raises IntegrationError when the base row's step underflows
    ``min_step``.  ``end`` keeps one row when a partner row snapped or
    went non-finite, or when the base row snapped.
    """
    A, B, E5, E3 = _tableau()
    m = len(B)  # stage m is evaluated at the new state
    accel = acceleration_fn(space)
    n = space.dim
    w = 2 * n  # one state; the stack is flat, the base row first
    xi_idx = np.array(space.xi_offsets, dtype=int)
    y = np.concatenate([np.broadcast_to(x, V.shape), V], axis=1).ravel()
    k = np.empty((m + 1, y.size))  # stage derivatives, one flat stack per stage

    def rhs(y, out):
        if len(y) == w:  # one state costs less in the scalar arithmetic of 1-D input
            out[:n] = y[n:]
            out[n:] = accel(y[:n], y[n:])
            return
        Y, O = y.reshape(-1, w), out.reshape(-1, w)
        O[:, :n] = Y[:, n:]
        O[:, n:] = accel(Y[:, :n], Y[:, n:])

    def step_once(y, h):
        """Trial step from y, whose derivative is k[0]: the eighth-order
        state (stage m evaluated there) and row 0's error norm.  Partner
        rows may overflow in trial stages near a chart's edge, and are
        dropped after the step, so only a lone base row warns."""
        with np.errstate(**({} if len(y) == w else {"over": "ignore", "invalid": "ignore"})):
            for i in range(1, m):
                rhs(y + h * (A[i] @ k[:i]), k[i])
            y_new = y + h * (B @ k[:m])
            rhs(y_new, k[m])
        scale = atol * (1.0 + np.abs(y_new[:w]))
        e5, e3 = (float(np.sum((E @ k[:, :w] / scale) ** 2)) for E in (E5, E3))
        return y_new, h * e5 / math.sqrt((e5 + 0.01 * e3) * w) if e5 else 0.0

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
        if not enorm <= 1.0:  # a non-finite base row is rejected too
            h *= max(0.2, 0.9 * enorm ** (-0.125))
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
        k[0] = k[m]
        if len(y) > w and (level(y[w:]) < XI_SNAP or not np.isfinite(y[w:]).all()):
            y, k = y[:w], np.ascontiguousarray(k[:, :w])
        s_nodes.append(s)
        states.append(y[:w].copy())
        h = h * min(5.0, max(0.2, 0.9 * (enorm + 1e-16) ** (-0.125)))

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
        """Point at parameter ``x`` in [0, 1]: exact for BVP segments, cubic
        Hermite in arclength on a shot's chart states and unit velocities
        between accepted steps, the nearer sample next to a stratum."""
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
        ds = (hi - lo) * self.length
        (xa, xb), (va, vb) = self.chart[i - 1:i + 1], self.chart_velocity[i - 1:i + 1]
        u = 1.0 - w
        chart = ((u * u * (1 + 2 * w)) * xa + (w * w * (3 - 2 * w)) * xb
                 + (ds * w * u) * (u * va - w * vb))
        return point_from_chart(self.space, chart)


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
    if not (math.isfinite(arclength) and arclength > 0):
        raise ValueError(f"arclength must be positive and finite, got {arclength}")
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
    return GeodesicSegment(space=space, start=point, velocity=velocity, length=total,
                           params=params, points=pts, speeds=speeds, hit_stratum=run.hit,
                           chart=chart, chart_velocity=chart_v)


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
    return np.array([space.factors[i].profile.f(segment.chart[:, slices[i].start + 1])
                     * segment.chart_velocity[:, slices[i].start] for i in space.horn_indices])
