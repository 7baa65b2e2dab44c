"""Metric tensors, connection coefficients and factor curvatures.

The metric is block diagonal across factors except for the optional
``b3 xi^3`` coupling of a perturbed horn's radial direction to the first
Euclidean coordinate.  Each 2-D block is ``f(s) dt^2 + h(s) ds^2`` with
the warp profile its factor carries (horns and the hyperbolic plane
alike); flat blocks have no profile and an identity block.  Every
coefficient is a closed form in the chart coordinates, and so is its
coordinate gradient: :func:`metric_batch` and :func:`metric_grad_batch`
evaluate both over rows of chart points from a per-space layout of
profiles, and the connection coefficients are built from that exact
gradient for every factor kind, coupled charts included.  Curvatures
come from the factors themselves.
"""

from __future__ import annotations

import functools

import numpy as np

from ..errors import MetricSingularError
from .spaces import CompletionPoint, SpaceSpec, chart_vector


def _require_interior(point: CompletionPoint) -> None:
    if point.stratum():
        raise MetricSingularError("metric singular at stratum")


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
    """``(dim, first Euclidean offset, ((chart offset, dim, warp profile or
    None, b3 or 0), ...))``, built once per space for the metric evaluators."""
    coupled = space.coupled_ids
    blocks = tuple((sl.start, f.dim, f.profile, f.b3 if i in coupled else 0.0)
                   for i, (f, sl) in enumerate(zip(space.factors, space.chart_slices())))
    return space.dim, space.first_euclidean_offset(), blocks


def metric_batch(space: SpaceSpec, X: np.ndarray) -> np.ndarray:
    """Chart metric at the chart points X, one per row; shape (n, d, d).

    A single chart point (1-D ``X``) gives one (d, d) matrix, evaluated in
    scalar arithmetic.
    """
    d, eu_off, blocks = _layout(space)
    G = np.zeros(X.shape[:-1] + (d, d))
    for k, n, prof, b3 in blocks:
        if prof is None:
            for j in range(k, k + n):
                G[..., j, j] = 1.0
            continue
        s = X.T[k + 1]
        G[..., k, k] = prof.f(s)
        G[..., k + 1, k + 1] = prof.h(s)
        if b3:
            cross = b3 * s**3
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
    for k, _, prof, b3 in blocks:
        if prof is None:
            continue
        s = X.T[k + 1]
        dG[..., k + 1, k, k] = prof.fp(s)
        dG[..., k + 1, k + 1, k + 1] = prof.hp(s)
        if b3:
            cross = 3.0 * b3 * s**2
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
        return space.factors[factor].curvature(point.blocks[factor])
    return [f.curvature(b) for f, b in zip(space.factors, point.blocks)]
