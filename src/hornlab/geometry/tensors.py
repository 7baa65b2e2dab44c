"""Metric tensors, connection coefficients and factor curvatures.

The metric is block diagonal across factors except for the optional
``b3 xi^3`` coupling of a perturbed horn's radial direction to the first
Euclidean coordinate.  Every coefficient is a closed form in the chart
coordinates, and so is its coordinate gradient: :func:`metric_batch` and
:func:`metric_grad_batch` evaluate both over rows of chart points, and
the connection coefficients are built from that exact gradient for every
factor kind, coupled charts included.
"""

from __future__ import annotations

import functools

import numpy as np

from ..errors import CurvatureUndefinedError, MetricSingularError
from .spaces import (
    CompletionPoint,
    Euclidean,
    Horn,
    HornPoint,
    HyperbolicPlane,
    PerturbedHorn,
    SpaceSpec,
    chart_vector,
    is_horn_like,
)


def _require_interior(point: CompletionPoint) -> None:
    if point.stratum():
        raise MetricSingularError("metric singular at stratum")


# ---------------------------------------------------------------------------
# warp profiles: g = f(xi) dtheta^2 + h(xi) dxi^2 for horn-type factors


class WarpProfile:
    """Coefficient functions of a rotationally symmetric horn-type block."""

    def __init__(self, B=1.0, a4=0.0, c6=0.0):
        self.B = float(B)
        self.a4 = float(a4)
        self.c6 = float(c6)

    def f(self, xi):
        if self.c6 == 0.0:
            return self.B * xi**6
        return self.B * xi**6 * (1.0 + self.c6 * xi**6)

    def fp(self, xi):
        return self.B * (6.0 * xi**5 + 12.0 * self.c6 * xi**11)

    def fpp(self, xi):
        return self.B * (30.0 * xi**4 + 132.0 * self.c6 * xi**10)

    def h(self, xi):
        if self.a4 == 0.0:
            return 4.0 * self.B  # scalar broadcasts over node arrays
        return 4.0 * self.B * (1.0 + self.a4 * xi**4)

    def hp(self, xi):
        return 16.0 * self.B * self.a4 * xi**3

    def f_minus(self, xi, xi0, dx=None):
        """``f(xi) - f(xi0)`` factored to survive cancellation at xi ~ xi0.

        ``dx`` is the exactly known difference ``xi - xi0`` when the caller
        has it (quadrature substitution nodes).
        """
        if dx is None:
            dx = xi - xi0
        p6 = xi**5 + xi**4 * xi0 + xi**3 * xi0**2 + xi**2 * xi0**3 + xi * xi0**4 + xi0**5
        base = dx * p6
        return self.B * base * (1.0 + self.c6 * (xi**6 + xi0**6))

    def f_inv(self, value):
        """Inverse of f on xi >= 0 (monotone)."""
        if value <= 0.0:
            return 0.0
        xi = (value / self.B) ** (1.0 / 6.0)
        if self.c6:
            for _ in range(60):  # Newton; f is smooth and convex here
                r = self.f(xi) - value
                if abs(r) <= 1e-16 * value:
                    break
                xi -= r / self.fp(xi)
        return xi

    def curvature(self, xi):
        f, fp, fpp = self.f(xi), self.fp(xi), self.fpp(xi)
        h, hp = self.h(xi), self.hp(xi)
        return -fpp / (2.0 * f * h) + fp * (fp * h + f * hp) / (4.0 * f**2 * h**2)


HORN_PROFILE = WarpProfile()


def warp_profile(factor) -> WarpProfile:
    if isinstance(factor, Horn):
        return HORN_PROFILE
    if isinstance(factor, PerturbedHorn):
        return WarpProfile(B=factor.B, a4=factor.a4, c6=factor.c6)
    raise TypeError(f"not a horn-type factor: {factor!r}")


# ---------------------------------------------------------------------------
# metric


def metric_tensor(space: SpaceSpec, point: CompletionPoint) -> np.ndarray:
    """Symmetric positive definite chart metric at an interior point."""
    _require_interior(point)
    x = chart_vector(space, point)
    return metric_at_chart(space, x)


def metric_at_chart(space: SpaceSpec, x: np.ndarray) -> np.ndarray:
    """Chart metric at one chart point; shape (d, d)."""
    return metric_batch(space, np.asarray(x, dtype=float))


@functools.lru_cache(maxsize=64)
def _layout(space: SpaceSpec):
    """``(dim, first Euclidean offset, ((factor, chart offset, warp profile
    or None), ...))``, built once per space for the metric evaluators."""
    blocks = tuple((f, sl.start, warp_profile(f) if is_horn_like(f) else None)
                   for f, sl in zip(space.factors, space.chart_slices()))
    return space.dim, space.first_euclidean_offset(), blocks


def metric_batch(space: SpaceSpec, X: np.ndarray) -> np.ndarray:
    """Chart metric at the chart points X, one per row; shape (n, d, d).

    A single chart point (1-D ``X``) gives one (d, d) matrix, evaluated in
    scalar arithmetic.
    """
    d, eu_off, blocks = _layout(space)
    G = np.zeros(X.shape[:-1] + (d, d))
    for factor, k, prof in blocks:
        if isinstance(factor, Euclidean):
            for j in range(k, k + factor.dim):
                G[..., j, j] = 1.0
        elif isinstance(factor, HyperbolicPlane):
            inv = 1.0 / X.T[k + 1] ** 2
            G[..., k, k] = inv
            G[..., k + 1, k + 1] = inv
        else:
            xi = X.T[k + 1]
            G[..., k, k] = prof.f(xi)
            G[..., k + 1, k + 1] = prof.h(xi)
            if isinstance(factor, PerturbedHorn) and factor.b3 > 0:
                cross = factor.b3 * xi**3
                G[..., k + 1, eu_off] = cross
                G[..., eu_off, k + 1] = cross
    return G


def metric_grad_batch(space: SpaceSpec, X: np.ndarray) -> np.ndarray:
    """Coordinate gradient of the chart metric at the chart points X.

    Shape (n, d, d, d), or (d, d, d) for one point: entry [..., l, i, j]
    is the derivative of g_ij along chart coordinate l.
    """
    d, eu_off, blocks = _layout(space)
    dG = np.zeros(X.shape[:-1] + (d, d, d))
    for factor, k, prof in blocks:
        if isinstance(factor, Euclidean):
            continue
        if isinstance(factor, HyperbolicPlane):
            dv = -2.0 / X.T[k + 1] ** 3
            dG[..., k + 1, k, k] = dv
            dG[..., k + 1, k + 1, k + 1] = dv
        else:
            xi = X.T[k + 1]
            dG[..., k + 1, k, k] = prof.fp(xi)
            dG[..., k + 1, k + 1, k + 1] = prof.hp(xi)
            if isinstance(factor, PerturbedHorn) and factor.b3 > 0:
                cross = 3.0 * factor.b3 * xi**2
                dG[..., k + 1, k + 1, eu_off] = cross
                dG[..., k + 1, eu_off, k + 1] = cross
    return dG


# ---------------------------------------------------------------------------
# connection coefficients


def christoffel(space: SpaceSpec, point: CompletionPoint) -> np.ndarray:
    """Levi-Civita coefficients ``Gamma[k, i, j]`` in chart coordinates.

    ``Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)`` from the
    exact metric gradient, with the index raised by a linear solve.
    """
    _require_interior(point)
    x = chart_vector(space, point)
    g = metric_batch(space, x)
    dg = metric_grad_batch(space, x)  # dg[l, i, j] = d_l g_ij
    n = space.dim
    first = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)  # [i, j, l]
    return 0.5 * np.linalg.solve(g, first.reshape(n * n, n).T).reshape(n, n, n)


# ---------------------------------------------------------------------------
# curvature


def curvature(space: SpaceSpec, point: CompletionPoint, factor: int | None = None):
    """Sectional curvature of 2-dimensional factors at an interior point.

    With ``factor`` given returns that factor's value; otherwise a list,
    one entry per factor.  Euclidean factors of dim != 2 are rejected.
    """
    _require_interior(point)
    if factor is not None:
        return _factor_curvature(space.factors[factor], point.blocks[factor])
    return [
        _factor_curvature(f, b) for f, b in zip(space.factors, point.blocks)
    ]


def _factor_curvature(factor, block):
    if isinstance(factor, Euclidean):
        if factor.dim != 2:
            raise CurvatureUndefinedError("curvature undefined for this factor")
        return 0.0
    if isinstance(factor, HyperbolicPlane):
        return -1.0
    assert isinstance(block, HornPoint)
    if isinstance(factor, Horn):
        return -1.5 / block.xi**2
    return warp_profile(factor).curvature(block.xi)
