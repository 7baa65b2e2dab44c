"""Geodesic boundary value problems: connect, distance, midpoint.

The product structure does the heavy lifting: a curve in a metric product
is a geodesic exactly when every factor projection is one, run at its own
constant speed, so the solver works factor by factor and combines lengths
in quadrature.  One table, ``_SOLVERS``, keyed by the factor's wire kind,
holds a factor's exact solver (its path, its distance and its radial
bound term); ``PathBundle``, ``factor_distances`` (and through it
``distance``) and the distance bounds all go through it.  Factor solvers:

* Euclidean: straight lines.
* Hyperbolic plane: vertical lines and circular arcs, with arclength
  ``tau = ln tan(alpha/2)`` along an arc.
* Horn-type blocks: radial lines when the angles agree or an endpoint is
  the collapsed axis; otherwise the rotational first integral
  ``c = f(xi) theta'`` fixes a (possibly virtual) turning level, and the
  geodesic is one monotone leg or two legs meeting there; points invert
  a leg's arclength.  Every root find of these solves (dip depth, leg
  arclength, radial arclength) is one safeguarded Newton iteration on
  closed-form slopes, :func:`_newton_root`.  A branch integral,
  over the levels ``off`` to ``off + span`` above the turning level,
  takes one of three routes (:func:`_branch_integral`): incomplete beta
  functions for pure-power profiles (``Horn``, and ``PerturbedHorn``
  with ``a4 = c6 = 0``, but not its reduced profile) with ``off <=
  span``; one smooth Gauss-Legendre panel for every profile with ``off >
  span``; and Gauss-Legendre panels shrinking geometrically toward the
  turning level for the other profiles with ``off <= span``.  Both
  quadratures run under the square-root substitution ``dx = off + span
  tau^2``.
* One b3-coupled horn: ``y = x + b3 xi^4 / 4`` on the first Euclidean
  coordinate (:func:`_split`) makes the chart a product of the horn's *reduced* profile, radial
  coefficient ``h - b3^2 xi^6`` (``PerturbedHorn.reduced``), and a flat
  block in ``(y, ...)``.  So it takes the uncoupled route above, factor
  by factor on the split chart: the reduced horn the first-integral
  solver, never its closed forms, and the ``y`` block a line.
  ``sqrt(h - b3^2 xi^6)`` vanishes like ``sqrt(edge - xi)`` at the edge,
  the level where the chart stops being positive definite, so levels
  more than half way up to it take one more Gauss-Legendre panel in
  ``sqrt(edge - xi)`` (:func:`_edge_nodes`).
* Two or more b3-coupled horns, which ``y`` does not split from each
  other: damped-Newton shooting on the initial velocity with a
  curve-shortening fallback on dyadically refined polylines, one banded
  LU solve per descent step (:class:`_GroupPath`).  Each shoot
  integrates the base velocity together with d partner rows ``v +
  delta e_k`` on the base row's step sequence, so the shoot that accepts
  a Newton step also yields the finite-difference Jacobian of the next
  one.  ``shooting_connect`` and ``curve_shortening_connect`` also serve
  as reference solvers on any chart.

Every factor solver is symmetric in its endpoints by construction, so
distances come out exactly symmetric.  Lengths from the first-integral
route agree with reference integrations of the geodesic equation to
about 1e-12; see the test suite.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import beta, betainc

from ..errors import ConnectError, DistanceIntervalError, IntegrationError
from .spaces import (
    BOUNDARY,
    XI_SNAP,
    BoundaryPoint,
    CompletionPoint,
    HornPoint,
    SpaceSpec,
    TangentVector,
    WarpProfile,
    chart_vector,
    make_point,
    point_from_chart,
    point_key,
    points_equal,
)
from .shoot import GeodesicSegment, shoot_rows
from .tensors import metric_at_chart, metric_batch, metric_grad_batch

# ---------------------------------------------------------------------------
# quadrature: Gauss-Legendre panels on [0, 1] under xi = a + (b - a) tau^2

SMOOTH_NODES = 24  # the one panel of a branch off its turning level
PANEL_NODES = 48  # each geometric panel of a branch from near its turning level

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl(n: int):
    if n not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GL_CACHE[n] = (0.5 * (x + 1.0), 0.5 * w)
    return _GL_CACHE[n]


def _level_length(h, a: float, b: float) -> float:
    """Integral of ``sqrt(h)`` between levels a and b (64-node Gauss-Legendre)."""
    base, ws = _gl(64)
    t = a + (b - a) * base
    return abs(b - a) * float(np.sum(ws * np.sqrt(np.maximum(h(t), 0.0))))


def _edge_nodes(top: float, a: float, b: float, n: int):
    """Points and weights of an n-node Gauss-Legendre rule over [a, b],
    ``a < b <= top``, taken in ``w = sqrt(top - t)``.

    A reduced profile's ``sqrt(h)`` vanishes like ``sqrt(edge - xi)``:
    rough in xi, however near b the edge sits, but smooth in w.
    """
    base, ws = _gl(n)
    w_lo, w_hi = math.sqrt(max(top - b, 0.0)), math.sqrt(top - a)
    w = w_lo + (w_hi - w_lo) * base
    return top - w * w, (w_hi - w_lo) * ws * 2.0 * w


def _panel_count(width: float, span: float) -> int:
    """Geometric panels in tau for the substitution dx = off + span tau^2.

    The integrand's mass sits within dx of order ``width`` of the turning
    level, so when span dwarfs width the first panels shrink geometrically
    (each a quarter of the next) down to tau ~ sqrt(width / span).
    """
    tau_w = math.sqrt(min(max(width, 1e-300) / span, 1.0))
    lo = max(min(tau_w * 0.25, 1.0 / 32.0), 1e-150)
    panels, edge = 1, 1.0
    while edge > lo:
        edge *= 0.25
        panels += 1
    return panels


@lru_cache(maxsize=None)
def _tau_nodes(n: int, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """``tau^2`` and the weights ``w tau`` of n-node Gauss-Legendre panels
    on [0, 1] with edges 0, 4^-(panels - 1), ..., 1/4, 1 (read-only)."""
    base, ws = _gl(n)
    edges = np.array([0.0] + [0.25**k for k in range(panels - 1, -1, -1)])
    widths = edges[1:] - edges[:-1]
    tau = (edges[:-1, None] + widths[:, None] * base[None, :]).ravel()
    wts = (widths[:, None] * ws[None, :]).ravel()
    tau2, w_tau = tau * tau, wts * tau
    for arr in (tau2, w_tau):
        arr.setflags(write=False)
    return tau2, w_tau


# ---------------------------------------------------------------------------
# closed form for the pure-power profile f = B xi^6, h = 4B (a4 = c6 = 0).
# With u = (xi*/xi)^6 the branch integrals from the turning level are
# incomplete beta functions (DLMF 8.17):
#   theta = B(5/6, 1/2) I_{1-u}(1/2, 5/6) / (3 xi*^2)
#   len   = sqrt(B) (2 xi sqrt(1-u) - (2 xi*/3) B(5/6, 1/2) I_{1-u}(1/2, 5/6))

_BETA = float(beta(5.0 / 6.0, 0.5))


def _u_pair(xi_star: float, dx: float) -> tuple[float, float]:
    """``(u, 1 - u)`` at level ``xi_star + dx``, each to full relative
    accuracy: ``1 - u`` keeps shallow dips, ``u`` keeps far levels."""
    xi = xi_star + dx
    r = dx / xi
    if r >= 1.0:  # xi_star is 0 or below the float resolution of xi
        return (xi_star / xi) ** 6, 1.0
    return (xi_star / xi) ** 6, -math.expm1(6.0 * math.log1p(-r))


def _pure_theta(xi_star: float, off: float, span: float) -> float:
    """Swept angle over ``dx`` in ``[off, off + span]``, ``off <= span``.

    Near the turning level the angle is ``I_{1-u}(1/2, 5/6)``; far out it
    saturates and the difference is taken on the tail ``I_u(5/6, 1/2)``,
    which would otherwise cancel to nothing.
    """
    u_b, v_b = _u_pair(xi_star, off + span)
    if u_b >= 0.5:
        frac = betainc(0.5, 5.0 / 6.0, v_b)
        if off > 0.0:
            frac -= betainc(0.5, 5.0 / 6.0, _u_pair(xi_star, off)[1])
    else:
        tail_a = 1.0
        if off > 0.0:
            u_a, v_a = _u_pair(xi_star, off)
            tail_a = (betainc(5.0 / 6.0, 0.5, u_a) if u_a < 0.5
                      else 1.0 - betainc(0.5, 5.0 / 6.0, v_a))
        frac = tail_a - betainc(5.0 / 6.0, 0.5, u_b)
    return max(_BETA * float(frac) / (3.0 * xi_star * xi_star), 0.0)


def _pure_len(B: float, xi_star: float, off: float, span: float) -> float:
    """Arclength over ``dx`` in ``[off, off + span]``, ``off <= span``."""

    def primitive(dx):
        v = _u_pair(xi_star, dx)[1]
        return (2.0 * (xi_star + dx) * math.sqrt(v)
                - (2.0 * xi_star / 3.0) * _BETA * float(betainc(0.5, 5.0 / 6.0, v)))

    total = primitive(off + span)
    if off > 0.0:
        total -= primitive(off)
    return max(math.sqrt(B) * total, 0.0)


def _branch_integral(prof: WarpProfile, xi_star: float, off: float, span: float,
                     kind: str) -> float:
    """Theta or length integral along the branch with angular momentum
    ``c = sqrt(f(xi_star))`` over ``xi = xi_star + dx``,
    ``dx = off + span tau^2`` with tau in (0, 1).

    ``off`` and ``span`` carry the distance to the turning level exactly,
    which keeps shallow dips accurate when that distance sits far below
    the float resolution of xi_star itself.  Three routes:

    * closed form: pure-power profiles (``prof.pure``: ``Horn``, and
      ``PerturbedHorn`` with only ``B`` set; never a reduced profile)
      with ``off <= span`` take the incomplete-beta formulas;
    * one smooth panel: every profile with ``off > span`` takes one
      ``SMOOTH_NODES``-node Gauss-Legendre panel.  The integrand is
      analytic in tau on [0, 1] there: its branch point dx = 0 sits at
      ``tau = +-i sqrt(off / span)``, at distance at least 1, while the
      closed-form difference would cancel;
    * geometric panels: the other profiles (``a4``, ``c6`` or ``b3`` >
      0) with ``off <= span`` take ``PANEL_NODES``-node panels shrinking
      toward the turning level (:func:`_panel_count`), where the
      square-root substitution absorbs the integrable singularity at
      dx = 0.

    A reduced profile's levels in the upper half from ``xi_star`` to its
    edge take one more panel, in ``sqrt(edge - xi)`` (:func:`_edge_nodes`),
    and the routes above the levels below that half.  The quadrature
    routes evaluate the profile only through its ``f``, ``h`` and
    ``f_minus`` methods.
    """
    if span <= 0.0:
        return 0.0
    c = math.sqrt(prof.f(xi_star))
    if kind == "theta" and c == 0.0:
        return 0.0
    edge_part = 0.0
    half = 0.5 * (prof.edge - xi_star)  # inf unless b3 > 0
    if off + span > half:
        edge_part = _edge_branch(prof, xi_star, max(off, half), off + span, c, kind)
        if off >= half:
            return edge_part
        span = half - off
    if off > span:
        tau2, w_tau = _tau_nodes(SMOOTH_NODES, 1)
    elif prof.pure:
        if kind == "theta":
            return _pure_theta(xi_star, off, span)
        return _pure_len(prof.B, xi_star, off, span)
    else:
        tau2, w_tau = _tau_nodes(PANEL_NODES, _panel_count(xi_star + off, span))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dx = off + span * tau2
        xi = xi_star + dx
        f, h = prof.f(xi), prof.h(xi)
        root = np.sqrt(prof.f_minus(xi, xi_star, dx))
        if kind == "theta":
            # h / f, not f * f_minus, which underflows near the stratum
            dens, scale = np.sqrt(h / f) / root, 2.0 * span * c
        else:
            dens, scale = np.sqrt(h * f) / root, 2.0 * span
        total = float(w_tau @ dens)
        if not math.isfinite(total):
            # dx underflowing to exactly 0 at subnormal spans contributes
            # nothing; sum the finite terms
            keep = np.isfinite(dens)
            total = float(w_tau[keep] @ dens[keep])
    return scale * total + edge_part


def _edge_branch(prof: WarpProfile, xi_star: float, lo: float, hi: float, c: float,
                 kind: str) -> float:
    """Branch integral of :func:`_branch_integral` over the level offsets
    [lo, hi] above ``xi_star``, with ``lo`` at least half way to the edge:
    one ``SMOOTH_NODES``-node panel in ``w = sqrt(edge - xi)``.  The
    turning level, at ``w >= sqrt(2) w(lo)``, stays off the panel."""
    dx, wts = _edge_nodes(prof.edge - xi_star, lo, hi, SMOOTH_NODES)
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = xi_star + dx
        f, h = prof.f(xi), np.maximum(prof.h(xi), 0.0)
        root = np.sqrt(prof.f_minus(xi, xi_star, dx))
        if kind == "theta":
            return c * float(wts @ (np.sqrt(h / f) / root))
        return float(wts @ (np.sqrt(h * f) / root))


def _pure_theta_slope(xi_star: float, off: float, span: float, theta: float) -> float:
    """``d theta / d xi*`` of a pure-power branch at fixed end levels.

    With ``theta = F(xi / xi*) / xi*^2``, each end level ``xi`` moves the
    angle by ``-2 u^(5/6) / (sqrt(1 - u) xi*^3)`` (the lower end only
    when it is not the turning level itself), and the prefactor by
    ``-2 theta / xi*``.  Infinite where ``1 - u`` underflows.
    """

    def end(dx):
        u, v = _u_pair(xi_star, dx)
        return u ** (5.0 / 6.0) / math.sqrt(v) if v > 0.0 else math.inf

    ends = end(off + span) - (end(off) if off > 0.0 else 0.0)
    return -2.0 * ends / xi_star**3 - 2.0 * theta / xi_star


# ---------------------------------------------------------------------------
# one safeguarded Newton iteration for every root find of the horn solver

ROOT_RTOL = 4.0 * float(np.finfo(float).eps)  # step size that ends a root find, relative
ROOT_MAX_ITER = 200  # evaluations; bisection alone needs about 60 on a bracket


def _newton_root(fn, x: float, a: float, fa: float, b: float, fb: float,
                 atol: float = 0.0) -> float:
    """Root of ``fn`` in the bracket ``[a, b]``, started from x in it.

    ``fa`` and ``fb`` are the residuals at the bracket ends, of opposite
    signs and possibly infinite; they are taken as given and never
    evaluated again.  ``fn(x)`` returns the residual and its slope.  Each
    evaluation shrinks the bracket; a Newton step that would leave it, or
    that is not at most half the step before last, gives way to
    bisection.  A step below ``ROOT_RTOL |x| + atol`` ends the search and
    is taken without another evaluation.  Raises ConnectError when the
    ends do not bracket a root or ``ROOT_MAX_ITER`` evaluations do not
    settle it.
    """
    if (fa < 0.0) == (fb < 0.0):
        raise ConnectError("root find: the bracket ends have the same sign")
    step = step_old = b - a
    for _ in range(ROOT_MAX_ITER):
        fx, slope = fn(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (fa < 0.0):
            a = x
        else:
            b = x
        newton = -fx / slope if 0.0 < abs(slope) < math.inf else math.inf
        tol = ROOT_RTOL * abs(x) + atol
        if abs(newton) <= tol:  # may sit below the float resolution of x
            return min(max(x + newton, a), b)
        if not (a < x + newton < b and abs(newton) <= 0.5 * abs(step_old)):
            newton = 0.5 * (a + b) - x
        step_old, step = step, newton
        if abs(step) <= tol:
            return x + step
        x += step
    raise ConnectError("root find did not converge")


def _radial_primitive(prof: WarpProfile):
    """H(xi) = integral of sqrt(h) from 0, plus its inverse
    ``H_inv(length, top)`` on the levels [0, top], for ``length`` up to
    ``H(top)``.  A reduced profile's levels past half its edge take one
    more panel, in ``sqrt(edge - xi)`` (:func:`_edge_nodes`)."""
    if prof.flat_h:
        s = 2.0 * math.sqrt(prof.B)
        return (lambda xi: s * xi), (lambda length, top=math.inf: length / s)

    half = 0.5 * prof.edge  # inf unless b3 > 0

    def H(xi):
        if xi == 0.0:  # a collapsed endpoint needs no quadrature
            return 0.0
        if xi <= half:
            return _level_length(prof.h, 0.0, xi)
        t, wts = _edge_nodes(prof.edge, half, xi, 64)
        return _level_length(prof.h, 0.0, half) + float(wts @ np.sqrt(np.maximum(prof.h(t), 0.0)))

    def H_inv(length, top=math.inf):
        """Newton on ``H(x) - length`` with slope ``sqrt(h)``, from the
        chord of the bracket [0, hi].  Where ``h >= 4B``, ``H >= 2 sqrt(B)
        xi`` puts the root below the first ``hi``; a reduced profile's
        ``h`` falls below 4B and turns negative past its edge, so ``hi``
        doubles from there up to ``top`` and no further."""
        if length <= 0.0:
            return 0.0
        hi = min(length / (2.0 * math.sqrt(prof.B)), top)
        while (H_hi := H(hi)) < length and hi < top:
            hi = min(2.0 * hi, top)
        if H_hi <= length:  # the top level itself, up to rounding
            return hi
        return _newton_root(lambda x: (H(x) - length, math.sqrt(prof.h(x))),
                            hi * (length / H_hi), 0.0, -length, hi, H_hi - length)

    return H, H_inv


# ---------------------------------------------------------------------------
# factor paths (unit-speed, s in [0, length])


class _FactorPath:
    """Unit-speed geodesic of one factor; one unit of a ``PathBundle``."""

    def blocks_at(self, s):
        return [self.point(s)]

    def velocity_blocks_at(self, s):
        return [self.velocity(s)]


class _ConstPath(_FactorPath):
    def __init__(self, block):
        self.block = block
        self.length = 0.0

    def point(self, s):
        return self.block

    def velocity(self, s):
        if isinstance(self.block, BoundaryPoint):
            return None
        return (0.0,) * len(self.block)


#: a length below this has a subnormal or zero sum of squares
_SQUARES_UNDERFLOW = math.sqrt(sys.float_info.min)


def _quadrature(parts) -> float:
    """Square root of the sum of squares of ``parts`` (a list); ``hypot``,
    which scales first, where the squares underflow, so every longer
    result keeps its bits."""
    total = math.sqrt(sum(d * d for d in parts))
    return total if total >= _SQUARES_UNDERFLOW else math.hypot(*parts)


class _LinePath(_FactorPath):
    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        step = self.b - self.a
        self.length = float(np.linalg.norm(step))
        if self.length < _SQUARES_UNDERFLOW:  # the squares underflowed: hypot scales first
            self.length = math.hypot(*step)
        self._dir = step / self.length

    def point(self, s):
        return tuple(self.a + s * self._dir)

    def velocity(self, s):
        return tuple(self._dir)


class _HypPath(_FactorPath):
    """Unit-speed geodesic of the upper half plane.

    z1 is normalized to i, the target to zeta; the rotation about i
    sending the vertical ray onto the connecting geodesic satisfies
    ``tan(2h) = 2u / (1 - |zeta|^2)``, so the evaluation
    ``K_h(i e^{sigma s})`` involves only O(1) quantities.  The naive
    circle-center chart degrades catastrophically for nearly vertical
    arcs (center and radius diverge while their difference stays finite);
    this form is uniformly stable.
    """

    def __init__(self, z1, z2):
        (x1, y1), (x2, y2) = z1, z2
        self.x1, self.y1 = x1, y1
        u = (x2 - x1) / y1
        v = y2 / y1
        h = 0.5 * math.atan2(2.0 * u, 1.0 - u * u - v * v)
        self.ch, self.sh = math.cos(h), math.sin(h)
        zeta = complex(u, v)
        k = (self.ch * zeta - self.sh) / (self.sh * zeta + self.ch)
        self.sgn = 1.0 if k.imag > 1.0 else -1.0
        self.length = _hyp_distance(z1, z2)

    def point(self, s):
        g = complex(0.0, math.exp(self.sgn * s))
        w = (self.ch * g + self.sh) / (-self.sh * g + self.ch)
        return (self.x1 + self.y1 * w.real, self.y1 * w.imag)

    def velocity(self, s):
        e = math.exp(self.sgn * s)
        den = complex(self.ch, -self.sh * e)
        dw = complex(0.0, self.sgn * e) / (den * den)
        return (self.y1 * dw.real, self.y1 * dw.imag)


class _RadialPath(_FactorPath):
    """Constant-angle path of a horn-type block; endpoints may collapse."""

    def __init__(self, prof: WarpProfile, theta: float, xi_from: float, xi_to: float):
        self.prof = prof
        self.theta = theta
        self.H, self.H_inv = _radial_primitive(prof)
        self._h0 = self.H(xi_from)
        self.length = abs(self.H(xi_to) - self._h0)
        self._sgn = 1.0 if xi_to >= xi_from else -1.0
        self._top = max(xi_from, xi_to)

    def _xi(self, s):
        return self.H_inv(self._h0 + self._sgn * s, self._top)

    def point(self, s):
        xi = self._xi(s)
        if xi < XI_SNAP:
            return BOUNDARY
        return HornPoint(self.theta, xi)

    def velocity(self, s):
        xi = self._xi(s)
        if xi < XI_SNAP:
            return None
        return (0.0, self._sgn / math.sqrt(self.prof.h(xi)))


#: ``lam = log delta`` of the smallest positive dip depth: the bottom of
#: every dip-depth bracket, where the swept angle is the tangent angle
LOG_TINY = math.log(math.ulp(0.0))


def _log_ratio(a: float, b: float) -> float:
    """``log(a / b)`` for b > 0, negative whenever a < b; -inf where
    ``a / b`` underflows."""
    q = a / b
    return math.log(q) if q > 0.0 else -math.inf


def _dip_residual(prof: WarpProfile, lo: float, dth: float, branches, cap: float):
    """Log residual ``log(theta / dth)`` of a dip-depth solve and its slope,
    both in ``lam = log delta``, with ``delta = min(exp(lam), cap)``.

    ``theta`` sums the angles swept on ``branches``, each
    ``(rise, weight, from_lo)``: the levels from ``lo`` (when ``from_lo``)
    or from the turning level ``xi* = lo - delta`` up to ``lo + rise``,
    counted ``weight`` times.  Level offsets above ``xi*`` are carried
    exactly as ``rise + delta``.  Where every branch takes the closed form
    of :func:`_branch_integral`, so does the slope
    (:func:`_pure_theta_slope`); on the panel route it is the secant
    through the last evaluation, or that closed form on the first call.
    """
    pure = prof.pure
    last = []

    def g(lam):
        delta = min(math.exp(lam), cap)
        xs = lo - delta
        theta = d_theta = 0.0  # d_theta: d theta / d delta
        closed = pure
        for rise, weight, from_lo in branches:
            off, span = (delta, rise) if from_lo else (0.0, rise + delta)
            th = _branch_integral(prof, xs, off, span, "theta")
            theta += weight * th
            d_theta -= weight * _pure_theta_slope(xs, off, span, th)
            closed = closed and off <= span
        res = _log_ratio(theta, dth)
        slope = delta * d_theta / theta if theta > 0.0 else math.inf
        if last and not closed:
            slope = (res - last[1]) / (lam - last[0])
        last[:] = (lam, res)
        return res, slope

    return g


def _shallow_dip(lo: float, excess: float, rise: float = math.inf) -> float | None:
    """Shallow-dip asymptotic of the dip depth; None past ``lo / 6``.

    Near ``lo`` a branch from the turning level up to ``delta + r`` above
    it sweeps ``sqrt(delta + r) / c``, ``c = sqrt(6) lo^(5/2) / 4``.  The
    branch leaving ``lo`` and one rising ``rise`` above it then sweep
    ``excess`` beyond their tangent angles at ``sqrt(delta) =
    E (E + 2 sqrt(r)) / (2 (E + sqrt(r)))``, ``E = c excess``: the
    ``delta = lo v / 6``, ``sqrt(v) = 3 lo^2 excess / (2k)`` of k = 2
    equal branches at r = 0 and of k = 1 (a monotone leg's lower end) as
    r grows.  Past ``lo / 6``, v = 6 delta / lo would reach 1, and
    ``v = 1 - (xi*/lo)^6`` cannot.
    """
    e = math.sqrt(6.0) * lo**2.5 * excess / 4.0
    root_r = math.sqrt(rise)
    root_delta = e if root_r == math.inf or e == 0.0 else (
        e * (e + 2.0 * root_r) / (2.0 * (e + root_r)))
    delta = root_delta * root_delta
    return delta if delta < lo / 6.0 else None


class _Leg(NamedTuple):
    """Monotone piece of a horn geodesic: the levels ``xi* + off + dx`` for
    dx in ``[0, span]``, traversed downward when ``down``, of arclength
    ``length``, with angle ``theta_low`` at ``dx = 0`` (None on a turning
    path: the turning angle, computed on first use).

    Arclength is inverted in ``u`` on [0, 1] by :func:`_newton_root`, with
    the length integrand times ``dx/du`` as slope.  From a turning level
    (``off = 0``) arclength grows like sqrt(dx), so ``dx = span u^2``
    makes it smooth in u, the kernel's own substitution; above one
    (``off > 0``) it is smooth in dx already and ``dx = span u``.
    """

    off: float
    span: float
    down: bool
    length: float
    theta_low: float | None


class _WarpedPath(_FactorPath):
    """Interior non-radial geodesic of a horn-type block.

    The first integral fixes the (possibly virtual) turning level
    ``xi* = lo - delta`` below the lower endpoint.  An angle gap no larger
    than the one swept by the path tangent at ``lo`` gives one monotone
    leg (``off = delta``); a larger one gives two legs that meet at ``xi*``.
    Both dip-depth solves are :func:`_newton_root` in ``lam = log delta``
    on the bracket [LOG_TINY, log lo], where the swept angle is monotone,
    started from the dip-depth asymptotics (:func:`_shallow_dip` and the
    deep-dip limits); shallow dips keep full relative accuracy even when
    delta is far below one ulp of the endpoint levels.
    """

    def __init__(self, prof: WarpProfile, p1: HornPoint, p2: HornPoint):
        self.prof = prof
        self.p1 = p1
        self.sgn_th = 1.0 if p2.theta >= p1.theta else -1.0
        dth = abs(p2.theta - p1.theta)
        lo, hi = min(p1.xi, p2.xi), max(p1.xi, p2.xi)
        tan_dth = _branch_integral(prof, lo, 0.0, hi - lo, "theta") if p1.xi != p2.xi else 0.0
        if dth <= tan_dth:
            delta = self._solve_mono(prof, lo, hi, dth, tan_dth)
            self.xi_star = xs = lo - delta
            down = p2.xi < p1.xi
            length = _branch_integral(prof, xs, delta, hi - lo, "len")
            self.legs = (_Leg(delta, hi - lo, down, length, p2.theta if down else p1.theta),)
        else:
            delta = self._solve_turning(prof, lo, p1.xi, p2.xi, dth, tan_dth)
            self.xi_star = xs = lo - delta
            span1, span2 = (p1.xi - lo) + delta, (p2.xi - lo) + delta
            L1 = _branch_integral(prof, xs, 0.0, span1, "len")
            L2 = L1 if span2 == span1 else _branch_integral(prof, xs, 0.0, span2, "len")
            self.legs = (_Leg(0.0, span1, True, L1, None), _Leg(0.0, span2, False, L2, None))
        self.length = sum(leg.length for leg in self.legs)

    @staticmethod
    def _solve_mono(prof, lo, hi, dth, tan):
        """Dip depth of a monotone leg: the swept angle falls from the
        tangent angle ``tan`` at delta = 0 to nothing at delta = lo (xi* = 0).
        The start is the shallow dip while it stays below half the leg's
        span, else the thin-leg model, else a deep dip under a thick leg,
        which sweeps ``(2/5) xi*^3 (lo^-5 - hi^-5)``.  Its factor
        ``1 - (lo/hi)^5`` is taken through ``log1p(-span/hi)`` while
        ``span/hi`` stays below 1, and through ``log(lo/hi)`` once it
        rounds to 1 (levels some 1e16 apart)."""
        if dth == tan:
            return 0.0  # tangent-degenerate: xi* sits at the lower level
        span = hi - lo
        delta = _shallow_dip(lo, tan - dth)
        if delta is None or delta > 0.5 * span:
            # a leg thin against its dip sweeps span times the angle density
            # at lo, 2 sqrt(u / (1 - u)) / lo^3 with u = (xi*/lo)^6
            r = dth * lo**3 / (2.0 * span)
            u = 1.0 / (1.0 + (1.0 / r) ** 2) if r > 1.0 else r * r / (1.0 + r * r)
            xs = lo * u ** (1.0 / 6.0)
            if lo - xs < span:  # a thick leg over a deep dip
                r = span / hi
                log_ratio = math.log1p(-r) if r < 1.0 else _log_ratio(lo, hi)
                xs = (2.5 * dth * lo**5 / -math.expm1(5.0 * log_ratio)) ** (1.0 / 3.0)
            delta = lo - min(xs, 0.5 * lo)
        g = _dip_residual(prof, lo, dth, [(span, 1.0, True)], lo)
        lam = _newton_root(g, math.log(max(delta, math.ulp(0.0))),
                           LOG_TINY, _log_ratio(tan, dth), math.log(lo), -math.inf,
                           atol=ROOT_RTOL)
        return min(math.exp(lam), lo)

    @staticmethod
    def _solve_turning(prof, lo, x1, x2, dth, tan):
        """Dip depth of a turning path: the swept angle grows from the
        tangent angle ``tan`` at delta = 0 without bound as xi* falls to 0.
        The start is the shallow dip, else a deep one, where each of the k
        branches leaving ``lo`` sweeps ``B(5/6, 1/2) / (3 xi*^2)``.

        :func:`_newton_root` reads only the sign of the residual at the
        top of the bracket, ``xi* = lo - cap``.  For a pure-power profile a
        closed-form bound certifies it: a branch from xi* up to a level at
        or above ``lo`` sweeps ``B(5/6, 1/2) I_{1-u}(1/2, 5/6) / (3 xi*^2)``
        with ``u <= (xi*/lo)^6``, and ``I_{1-u}(1/2, 5/6) >= I_{1/2}(1/2, 5/6)
        = 0.653 > 1/2`` once ``u < 1/2``.  Where that bound does not exceed
        ``dth``, and on the panel route, the residual is evaluated."""
        cap = lo * (1.0 - 1e-16)
        if x1 == x2:
            k, branches = 2, [(x1 - lo, 2.0, False)]
        else:
            k, branches = 1, [(x1 - lo, 1.0, False), (x2 - lo, 1.0, False)]
        lam_hi = math.log(lo)
        xs_hi = lo - min(math.exp(lam_hi), cap)  # as the residual takes it
        weight = sum(w for _, w, _ in branches)
        if (prof.pure and prof.f(xs_hi) > 0.0
                and (xs_hi / lo) ** 6 < 0.5
                and 0.5 * _BETA * weight / (3.0 * xs_hi * xs_hi) > dth):
            g_hi = math.inf
        else:
            # a residual of its own, so the solve's first secant does not reach back here
            g_hi = _dip_residual(prof, lo, dth, branches, cap)(lam_hi)[0]
        if not g_hi > 0.0:
            raise ConnectError("turning-level bracket failed")
        excess = dth - tan
        delta = _shallow_dip(lo, excess, max(x1, x2) - lo)
        if delta is None:
            delta = lo - min(math.sqrt(k * _BETA / (3.0 * excess)), 0.5 * lo)
        lam = _newton_root(_dip_residual(prof, lo, dth, branches, cap),
                           math.log(max(delta, math.ulp(0.0))),
                           LOG_TINY, _log_ratio(tan, dth), lam_hi, g_hi, atol=ROOT_RTOL)
        return min(math.exp(lam), cap)

    @cached_property
    def _turn_theta(self) -> float:
        """Angle at the turning level; lazy, as a distance never samples."""
        sweep = _branch_integral(self.prof, self.xi_star, 0.0, self.legs[0].span, "theta")
        return self.p1.theta + self.sgn_th * sweep

    def _locate(self, s: float) -> tuple[_Leg, float]:
        """The leg at parameter s and the level offset dx on it."""
        s = min(max(s, 0.0), self.length)
        leg = self.legs[0]
        if s > leg.length:
            s -= leg.length
            leg = self.legs[1]
        t = leg.length - s if leg.down else s  # arclength from the low end
        if t <= 0.0:
            return leg, 0.0
        if t >= leg.length:
            return leg, leg.span
        prof, xs, off, span = self.prof, self.xi_star, leg.off, leg.span
        power = 2 if off == 0.0 else 1

        def g(u):
            dx = span * u**power
            xi = xs + (off + dx)
            f_minus = prof.f_minus(xi, xs, off + dx)
            dens = math.sqrt(prof.h(xi) * prof.f(xi) / f_minus) if f_minus > 0.0 else math.inf
            return (_branch_integral(prof, xs, off, dx, "len") - t,
                    dens * power * span * u ** (power - 1))

        u = _newton_root(g, t / leg.length, 0.0, -t, 1.0, leg.length - t)
        return leg, span * u**power

    def point(self, s):
        leg, dx = self._locate(s)
        swept = _branch_integral(self.prof, self.xi_star, leg.off, dx, "theta")
        low = self._turn_theta if leg.theta_low is None else leg.theta_low
        theta = low - self.sgn_th * swept if leg.down else low + self.sgn_th * swept
        return HornPoint(theta, self.xi_star + (leg.off + dx))

    def velocity(self, s):
        prof, xs = self.prof, self.xi_star
        leg, dx = self._locate(s)
        dx += leg.off
        xi = xs + dx
        f = prof.f(xi)
        vth = self.sgn_th * math.sqrt(prof.f(xs)) / f
        vxi = math.sqrt(max(prof.f_minus(xi, xs, dx), 0.0) / (f * prof.h(xi)))
        return (vth, -vxi if leg.down else vxi)


def _warp_connect(prof: WarpProfile, a, b):
    a_b = isinstance(a, BoundaryPoint)
    b_b = isinstance(b, BoundaryPoint)
    if a_b and b_b:
        return _ConstPath(BOUNDARY)
    if a_b:
        return _RadialPath(prof, b.theta, 0.0, b.xi)
    if b_b:
        return _RadialPath(prof, a.theta, a.xi, 0.0)
    if a.theta == b.theta:
        if a.xi == b.xi:
            return _ConstPath(a)
        return _RadialPath(prof, a.theta, a.xi, b.xi)
    return _WarpedPath(prof, a, b)


# ---------------------------------------------------------------------------
# b3-coupled charts: the split chart


def _split(space: SpaceSpec, blocks, sign: float = 1.0) -> list:
    """Blocks in the split chart (sign +1) or back from it (sign -1): ``y =
    x + sum_k b3_k xi_k^4 / 4`` over the coupled horns replaces the first
    coordinate x of the first Euclidean block.  The metric becomes ``dy^2 +
    sum_k (f_k dtheta_k^2 + h_k dxi_k^2) - (sum_k b3_k xi_k^3 dxi_k)^2``
    plus the other factors: with one coupled horn, the product of its
    reduced profile (``PerturbedHorn.reduced``) and the flat ``(y, ...)``.
    """
    coupled = space.coupled_ids
    out = list(blocks)
    if coupled:
        x = blocks[space.euclid_index]
        out[space.euclid_index] = (x[0] + sign * sum(
            space.factors[k].b3 * _level(blocks[k]) ** 4 for k in coupled) / 4.0,) + x[1:]
    return out


def _split_blocks(space: SpaceSpec, p: CompletionPoint, q: CompletionPoint):
    """p's and q's blocks as the factor solvers take them: split on one
    b3-coupled horn, else as they are.  A horn geodesic stays below its
    higher endpoint level, and the reduced coefficient is positive below
    every level where it is, so the split holds below the reduced
    profile's edge; a horn block at or past it raises ConnectError.
    """
    if len(space.coupled_ids) != 1:
        return p.blocks, q.blocks
    (k,) = space.coupled_ids
    edge = space.factors[k].reduced.edge
    for blk in (p.blocks[k], q.blocks[k]):
        if isinstance(blk, HornPoint) and not blk.xi < edge:
            raise ConnectError("b3-coupled block at or beyond the positive-definite "
                               f"edge xi = {edge!r}: xi = {blk.xi!r}")
    return _split(space, p.blocks), _split(space, q.blocks)


# ---------------------------------------------------------------------------
# coupled charts: two-stage generic solver

SHOOT_TOL = 1e-10     # shooting residual, relative to 1 + |target chart point|
CS_MAX_LEVEL = 12     # curve shortening refines up to 2^12 + 1 nodes
CS_LENGTH_TOL = 1e-9  # relative length change that ends the refinement
CS_GRAD_TOL = 1e-13   # energy gradient, relative to max(1, energy), at rest
CS_INNER_ITERS = 120  # descent steps per refinement level


def _shoot_with_jacobian(space: SpaceSpec, x0: np.ndarray, v: np.ndarray):
    """``exp_x0(v)`` and its Jacobian in v from one eighth-order
    integration, at ``atol = 1e-12``, of the rows ``v, v + delta e_k``, all
    scaled by the base speed L so that every row ends at s = L; ``(None,
    None)`` if the base row snaps, and J is None if a partner row snaps or
    goes non-finite."""
    speed = math.sqrt(v @ metric_at_chart(space, x0) @ v)
    if speed == 0.0:
        return None, None
    delta = 1e-7 * max(1.0, float(np.linalg.norm(v)))
    rows = np.vstack([v, v + delta * np.eye(len(v))]) / speed
    run = shoot_rows(space, x0, rows, speed, atol=1e-12)
    if run.hit:
        return None, None
    end = run.end[:, :len(v)]
    J = (end[1:] - end[0]).T / delta if len(end) > 1 else None
    return end[0], J


def shooting_connect(space: SpaceSpec, p: CompletionPoint, q: CompletionPoint,
                     *, n_guesses: int = 8, newton_iters: int = 30):
    """Damped-Newton shooting on the initial velocity over the full chart.

    Returns ``(initial velocity, length)`` once the endpoint residual is
    within ``SHOOT_TOL``, checked before each of the ``newton_iters``
    steps and after the last; raises ConnectError when the guess budget
    is exhausted.  Initial guesses are the chart chord and its rotations
    by +-30 degrees in successive coordinate planes.  Each shoot carries
    d partner rows on the base row's step sequence for the finite-difference
    Jacobian, so the shoot that accepts a line-search candidate also yields
    the next step's Jacobian.  A partner row that snaps or goes non-finite
    ends Newton for the guess; the base row's IntegrationError propagates.
    A guess can leave the chart's positive-definite region: on
    ``PerturbedHorn(B=1, b3=0.3)`` x E^1 the tests' underflow pair's chord
    runs into its edge ``xi^6 = 4B (1 + a4 xi^4) / b3^2`` (xi = 1.88207),
    where the metric's least eigenvalue is ~2e-8 and the step underflows.
    Skipping that guess took 4x as long and still gave an interval; taking
    every underflow as a failed candidate certified the pair in 9x the time.

    ``distance`` shoots only on charts with two or more coupled horns
    (:class:`_GroupPath`); one coupled horn splits off exactly, and there
    this solver is the tests' independent reference.
    """
    x0 = chart_vector(space, p)
    x1 = chart_vector(space, q)
    chord = x1 - x0
    d = space.dim
    guesses = [chord]
    ang = math.radians(30.0)
    for i in range(d):
        for j in range(i + 1, d):
            for sgn in (1.0, -1.0):
                if len(guesses) >= n_guesses:
                    break
                r = chord.copy()
                r[i] = math.cos(ang) * chord[i] - sgn * math.sin(ang) * chord[j]
                r[j] = sgn * math.sin(ang) * chord[i] + math.cos(ang) * chord[j]
                guesses.append(r)
    tol = SHOOT_TOL * (1.0 + float(np.linalg.norm(x1)))
    for v0 in guesses:
        v = v0.astype(float)
        end, J = _shoot_with_jacobian(space, x0, v)
        if end is None:
            continue
        res = float(np.linalg.norm(end - x1))
        for _ in range(newton_iters):
            if res <= tol or J is None:
                break
            try:
                step = np.linalg.solve(J, x1 - end)
            except np.linalg.LinAlgError:
                break
            improved = False
            lam = 1.0
            for _ in range(20):
                cand = v + lam * step
                end_c, J_c = _shoot_with_jacobian(space, x0, cand)
                if end_c is not None:
                    res_c = float(np.linalg.norm(end_c - x1))
                    if res_c < res:
                        v, end, J, res = cand, end_c, J_c, res_c
                        improved = True
                        break
                lam *= 0.5
            if not improved:
                break
        if res <= tol:
            return v, math.sqrt(v @ metric_at_chart(space, x0) @ v)
    chord_nodes = np.linspace(0.0, 1.0, 65)[:, None] * (x1 - x0)[None, :] + x0[None, :]
    chord_len = float(np.sum(np.sqrt(_segment_sq_lengths(space, chord_nodes))))
    raise ConnectError(
        "shooting did not converge within the guess budget",
        best_path=chord_nodes, upper=chord_len,
    )


class _ChartPolyline:
    """Piecewise-linear chart path from the curve-shortening fallback."""

    def __init__(self, sub_space: SpaceSpec, nodes: np.ndarray, length: float):
        self.sub_space = sub_space
        self.nodes = nodes
        lens = np.sqrt(_segment_sq_lengths(sub_space, nodes))
        self.cum = np.concatenate([[0.0], np.cumsum(lens)])
        self.length = length

    def chart_at_fraction(self, frac: float) -> np.ndarray:
        t = min(max(frac, 0.0), 1.0) * self.cum[-1]
        i = int(np.searchsorted(self.cum, t))
        i = min(max(i, 1), len(self.cum) - 1)
        w = (t - self.cum[i - 1]) / (self.cum[i] - self.cum[i - 1])
        return (1 - w) * self.nodes[i - 1] + w * self.nodes[i]


def _block_tridiagonal_solve(A, B, C, R):
    """Solve block rows ``A_i x_{i-1} + B_i x_i + C_i x_{i+1} = R_i``.

    The ``m`` rows of ``d x d`` blocks form one banded matrix with lower
    and upper bandwidth ``2d - 1``; strided slices write each block
    entry into LAPACK band storage and a single banded LU with partial
    pivoting (``gbsv``) solves it.  ``A_0`` and ``C_{m-1}`` are ignored.
    """
    m, d = R.shape
    w = 2 * d - 1
    ab = np.zeros((2 * w + 1, m * d))  # ab[w + r - c, c] = M[r, c]
    for i in range(d):
        for j in range(d):
            ab[w + i - j, j::d] = B[:, i, j]
            ab[w + d + i - j, j:(m - 1) * d:d] = A[1:, i, j]
            ab[w - d + i - j, d + j::d] = C[:-1, i, j]
    return solve_banded((w, w), ab, R.ravel(), check_finite=False).reshape(m, d)


def _segment_sq_lengths(space: SpaceSpec, nodes: np.ndarray) -> np.ndarray:
    """Squared metric length of each polyline segment, metric at its midpoint."""
    seg = nodes[1:] - nodes[:-1]
    G = metric_batch(space, 0.5 * (nodes[1:] + nodes[:-1]))
    return np.einsum("ni,nij,nj->n", seg, G, seg)


def _polyline_energy(space: SpaceSpec, nodes: np.ndarray) -> float:
    return float(np.sum(_segment_sq_lengths(space, nodes)))


def _energy_gradient(space: SpaceSpec, nodes: np.ndarray) -> np.ndarray:
    """Gradient of the discrete energy over the interior nodes.

    E = sum dx_k^T G(mid_k) dx_k; each interior node enters two segment
    terms and both midpoint arguments (with weight 1/2), so the gradient
    carries the metric-derivative force that makes the stationary points
    true discrete geodesics.
    """
    seg = nodes[1:] - nodes[:-1]
    mids = 0.5 * (nodes[1:] + nodes[:-1])
    G = metric_batch(space, mids)
    dG = metric_grad_batch(space, mids)
    flux = 2.0 * np.einsum("nij,nj->ni", G, seg)
    force = 0.5 * np.einsum("nlij,ni,nj->nl", dG, seg, seg)
    return flux[:-1] - flux[1:] + force[:-1] + force[1:]


def curve_shortening_connect(space: SpaceSpec, p: CompletionPoint, q: CompletionPoint):
    """Curve-shortening fallback on 2^m + 1 chart nodes, m up to ``CS_MAX_LEVEL``.

    Damped Newton-type descent on the discrete energy: steps solve the
    frozen-metric block-tridiagonal system (the dominant part of the
    Hessian) against the exact gradient, which includes the metric
    derivative force, so stationary points are true discrete geodesics.
    Each step is one banded LU solve over all interior nodes (bandwidth
    ``2d - 1``, see :func:`_block_tridiagonal_solve`).  Refinement doubles
    the nodes until the length settles, with one Richardson step at the
    end.
    """
    x0 = chart_vector(space, p)
    x1 = chart_vector(space, q)
    xi_pos = list(space.xi_offsets)
    levels = list(space.level_offsets)
    d = space.dim
    nodes = np.linspace(0.0, 1.0, 17)[:, None] * (x1 - x0)[None, :] + x0[None, :]
    prev_len = None
    length = None

    for m in range(4, CS_MAX_LEVEL + 1):
        energy = _polyline_energy(space, nodes)
        scale = max(1.0, float(np.max(np.abs(nodes))))
        for _ in range(CS_INNER_ITERS):
            grad = _energy_gradient(space, nodes)
            if float(np.max(np.abs(grad))) < CS_GRAD_TOL * max(1.0, energy):
                break
            G = metric_batch(space, 0.5 * (nodes[1:] + nodes[:-1]))
            A = np.concatenate([np.zeros((1, d, d)), -2.0 * G[1:-1]])
            C = np.concatenate([-2.0 * G[1:-1], np.zeros((1, d, d))])
            B = 2.0 * (G[:-1] + G[1:])
            step = _block_tridiagonal_solve(A, B, C, -grad)
            lam = 1.0
            moved = False
            for _ in range(25):
                cand = nodes.copy()
                cand[1:-1] = nodes[1:-1] + lam * step
                cand[:, xi_pos] = np.maximum(cand[:, xi_pos], XI_SNAP)
                if not np.any(cand[:, levels] <= 0):
                    e_new = _polyline_energy(space, cand)
                    if e_new <= energy + 1e-15 * abs(energy):
                        nodes, energy = cand, e_new
                        moved = True
                        break
                lam *= 0.5
            if not moved or float(np.max(np.abs(lam * step))) < 1e-14 * scale:
                break
        length = float(np.sum(np.sqrt(_segment_sq_lengths(space, nodes))))
        if prev_len is not None and abs(length - prev_len) < CS_LENGTH_TOL * max(1.0, length):
            length = length + (length - prev_len) / 3.0
            break
        prev_len = length
        fine = np.empty((2 * len(nodes) - 1, nodes.shape[1]))
        fine[0::2] = nodes
        fine[1::2] = 0.5 * (nodes[1:] + nodes[:-1])
        nodes = fine
    return _ChartPolyline(space, nodes, length)


class _GroupPath:
    """Joint geodesic of the sub-chart of two or more b3-coupled horns and
    the first Euclidean factor, by shooting with a curve-shortening
    fallback."""

    def __init__(self, sub_space: SpaceSpec, factor_ids: tuple[int, ...],
                 p_blocks, q_blocks):
        self.sub_space = sub_space
        self.factor_ids = factor_ids
        p_blocks, add_p = self._pull_off_boundary(sub_space, p_blocks, q_blocks)
        q_blocks, add_q = self._pull_off_boundary(sub_space, q_blocks, p_blocks)
        extra = add_p + add_q
        p = make_point(sub_space, p_blocks)
        q = make_point(sub_space, q_blocks)
        if point_key(q) < point_key(p):
            p, q = q, p
            self._flip = True
        else:
            self._flip = False
        self._start = p
        try:
            self._v, self._shot_length = shooting_connect(sub_space, p, q)
            self._poly = None
            self.length = self._shot_length + extra
        except ConnectError:
            self._v = None
            self._poly = curve_shortening_connect(sub_space, p, q)
            self.length = self._poly.length + extra

    @staticmethod
    def _pull_off_boundary(sub_space, blocks, other_blocks):
        """Swap boundary blocks for snap-level approach points; the exact
        radial tail below the snap level contributes H(xi_snap)."""
        out = list(blocks)
        extra = 0.0
        for i, (factor, blk) in enumerate(zip(sub_space.factors, blocks)):
            if isinstance(blk, BoundaryPoint):
                H, _ = _radial_primitive(factor.profile)
                ob = other_blocks[i]
                theta = ob.theta if isinstance(ob, HornPoint) else 0.0
                out[i] = HornPoint(theta, XI_SNAP)
                extra += H(XI_SNAP)
        return out, extra

    def _state_at(self, s):
        """Chart state ``(x, v)`` at parameter s, v the unit velocity in the
        direction of travel: a shot geodesic is shot again, from its start at
        its unit initial velocity, for the arclength asked for.  On the
        curve-shortening polyline v is None."""
        frac = 0.0 if self.length == 0 else min(max(s / self.length, 0.0), 1.0)
        if self._flip:
            frac = 1.0 - frac
        if self._v is None:
            return self._poly.chart_at_fraction(frac), None
        x0 = chart_vector(self.sub_space, self._start)
        run = shoot_rows(self.sub_space, x0, (self._v / self._shot_length)[None, :],
                         frac * self._shot_length, atol=1e-12)
        n = self.sub_space.dim
        x, v = run.end[0, :n], run.end[0, n:]
        return x, -v if self._flip else v

    def blocks_at(self, s):
        return list(point_from_chart(self.sub_space, self._state_at(s)[0]).blocks)

    def velocity_blocks_at(self, s):
        v = self._state_at(s)[1]
        if v is None:
            return [None for _ in self.sub_space.factors]
        return [tuple(v[sl]) for sl in self.sub_space.chart_slices()]


# ---------------------------------------------------------------------------
# product assembly


class PathBundle:
    """Per-factor geodesics assembled into the product geodesic.

    Each unit is one factor's exact path.  A chart with one b3-coupled
    horn is a product in its split chart (:func:`_split`), so there the
    units are the reduced horn's path and a line in ``(y, ...)``, and
    points and velocities map back.  Two or more coupled horns form a
    :class:`_GroupPath` with the first Euclidean factor, solved by
    shooting.  Raises ConnectError where a unit cannot be certified.
    """

    def __init__(self, space: SpaceSpec, p: CompletionPoint, q: CompletionPoint):
        self.space = space
        self.p, self.q = p, q
        self.units: list[tuple[tuple[int, ...], object]] = []  # (factor ids, path)
        coupled = space.coupled_ids
        self.split = len(coupled) == 1
        grouped: tuple[int, ...] = ()
        if len(coupled) > 1:
            grouped = tuple(sorted(coupled + (space.euclid_index,)))
            sub_space = SpaceSpec(tuple(space.factors[i] for i in grouped))
            gp = _GroupPath(
                sub_space, grouped,
                [p.blocks[i] for i in grouped],
                [q.blocks[i] for i in grouped],
            )
            self.units.append((grouped, gp))
        blocks = zip(space.factors, space.split_profiles, *_split_blocks(space, p, q))
        for i, (factor, prof, a, b) in enumerate(blocks):
            if i not in grouped:
                path = _ConstPath(a) if a == b else _SOLVERS[factor.kind].path(prof, a, b)
                self.units.append(((i,), path))
        self.length = _quadrature([path.length for _, path in self.units])

    def point_at(self, frac: float) -> CompletionPoint:
        if frac <= 0.0:
            return self.p
        if frac >= 1.0:
            return self.q
        blocks: list = [None] * len(self.space.factors)
        for ids, path in self.units:
            for fid, blk in zip(ids, path.blocks_at(frac * path.length)):
                blocks[fid] = blk
        if self.split:
            blocks = _split(self.space, blocks, -1.0)
        return make_point(self.space, blocks)

    def initial_velocity(self) -> TangentVector | None:
        """Unit initial velocity; None entries on boundary-start blocks."""
        if self.length == 0.0:
            return None
        blocks: list = [None] * len(self.space.factors)
        for ids, path in self.units:
            scale = path.length / self.length
            for fid, v in zip(ids, path.velocity_blocks_at(0.0)):
                blocks[fid] = None if v is None else tuple(scale * c for c in v)
        if self.split:  # dx = dy - b3 xi^3 dxi; dx = dy on a boundary horn block
            (k,), e = self.space.coupled_ids, self.space.euclid_index
            if blocks[k] is not None:
                (dy, *rest), b3 = blocks[e], self.space.factors[k].b3
                blocks[e] = (dy - b3 * self.p.blocks[k].xi ** 3 * blocks[k][1], *rest)
        return TangentVector(tuple(blocks))


# ---------------------------------------------------------------------------
# public operations


def geodesic_connect(space: SpaceSpec, p: CompletionPoint, q: CompletionPoint,
                     *, samples: int = 33) -> GeodesicSegment:
    """The geodesic segment from p to q, constant-speed on [0, 1].

    Endpoints are reproduced exactly; boundary blocks are allowed on
    either endpoint.  ``samples`` counts both endpoints, so it is at least 2.
    """
    if samples < 2:
        raise ValueError(f"geodesic_connect needs samples >= 2, got {samples}")
    if points_equal(p, q):
        raise ValueError("geodesic_connect requires distinct endpoints")
    bundle = PathBundle(space, p, q)
    params = np.linspace(0.0, 1.0, samples)
    pts = [bundle.point_at(x) for x in params]
    return GeodesicSegment(
        space=space,
        start=p,
        velocity=bundle.initial_velocity(),
        length=bundle.length,
        params=params,
        points=pts,
        speeds=np.full(samples, bundle.length),
        _eval=bundle.point_at,
    )


def distance(space: SpaceSpec, p: CompletionPoint, q: CompletionPoint) -> float:
    """Geodesic distance on the completed product space.

    Symmetric by construction; zero exactly when the canonicalized
    points coincide.  The exact :func:`factor_distances` sum in
    quadrature, on the split chart of one b3-coupled horn too; two or more
    coupled horns shoot (:class:`_GroupPath`).  If a factor solve fails to
    certify, a coupled horn block lies where ``h - b3^2 xi^6 <= 0``, or a
    shoot fails to integrate, the error is converted to an interval
    [lower, upper] (the upper bound routes radially through the collapsed
    axis; see :func:`lower_bound_distance` for what the lower bound
    assumes on coupled charts).  A shoot that leaves a coupled chart's
    positive-definite region underflows its step, so such a pair stays an
    interval (see :func:`shooting_connect`).
    """
    if p.blocks == q.blocks:  # make_point canonicalizes: points_equal at tol 0
        return 0.0
    try:
        if len(space.coupled_ids) > 1:
            return PathBundle(space, p, q).length
        return _quadrature(factor_distances(space, p, q))
    except (ConnectError, IntegrationError):
        raise DistanceIntervalError(
            lower_bound_distance(space, p, q),
            upper_bound_distance(space, p, q),
        ) from None


def _hyp_distance(a, b) -> float:
    (x1, y1), (x2, y2) = a, b
    u = ((x2 - x1) ** 2 + (y2 - y1) ** 2) / (2.0 * y1 * y2)
    # arccosh(1 + u), stable for small u
    return math.log1p(u + math.sqrt(u * (u + 2.0)))


def _warp_distance(prof: WarpProfile, a, b) -> float:
    """Distance between two blocks of a horn kind: their geodesic's length."""
    return _warp_connect(prof, a, b).length


def _warp_bound(prof: WarpProfile, a, b, upper: bool, c: float | None) -> float:
    """Radial bound term of a horn block: ``H(xi_a) + H(xi_b)`` (upper:
    through the axis) or ``|H(xi_a) - H(xi_b)|`` (lower: radial
    projection); a coupled horn's lower term integrates
    ``sqrt(max(h - c xi^6, 0))`` between the levels instead."""
    la, lb = _level(a), _level(b)
    if not upper and c is not None:
        top = 1.0  # h - c xi^6 <= 0 from top up, as h / xi^6 falls: read it there
        while prof.h(top) > c * top**6:
            top *= 2.0
        return _level_length(lambda t: prof.h(np.minimum(t, top)) - c * np.minimum(t, top)**6,
                             la, lb)
    H, _ = _radial_primitive(prof)
    return H(la) + H(lb) if upper else abs(H(la) - H(lb))


class _Solver(NamedTuple):
    path: Callable      # (profile, a, b) -> unit-speed factor path
    distance: Callable  # (profile, a, b) -> its length
    bound: Callable     # (profile, a, b, upper, c) -> radial bound term


_LINE = _Solver(lambda _, a, b: _LinePath(a, b), lambda _, a, b: math.dist(a, b),
                lambda _, a, b, upper, c: math.dist(a, b))
_HYP = _Solver(lambda _, a, b: _HypPath(a, b), lambda _, a, b: _hyp_distance(a, b),
               lambda _, a, b, upper, c: _hyp_distance(a, b))
# the distance late-bound, so that a replaced _warp_distance takes effect
_WARP = _Solver(_warp_connect, lambda prof, a, b: _warp_distance(prof, a, b), _warp_bound)


#: factor wire kind -> the exact solver of its blocks, called with the
#: factor's profile: lines on a Euclidean block, the closed forms of the
#: hyperbolic plane, and the first-integral solver on the warp profile of
#: a horn kind.  Exact solvers are their own radial bounds.
_SOLVERS = {"euclidean": _LINE, "hyperbolic": _HYP, "horn": _WARP, "perturbed_horn": _WARP}


def midpoint(space: SpaceSpec, p: CompletionPoint, q: CompletionPoint) -> CompletionPoint:
    """The unique point m with d(p, m) = d(m, q) = d(p, q) / 2."""
    return point_along(space, p, q, 0.5)


def point_along(space: SpaceSpec, p: CompletionPoint, q: CompletionPoint,
                frac: float) -> CompletionPoint:
    """Point at the given length fraction along the geodesic from p to q."""
    if points_equal(p, q):
        return p
    return PathBundle(space, p, q).point_at(frac)


def factor_distances(space: SpaceSpec, p: CompletionPoint, q: CompletionPoint
                     ) -> list[float] | None:
    """Per-factor distances, on the split chart (:func:`_split`) of one
    b3-coupled horn: its reduced horn's and the ``(y, ...)`` block's.
    None on two or more coupled horns, which do not split apart."""
    if len(space.coupled_ids) > 1:
        return None
    return [0.0 if a == b else _SOLVERS[f.kind].distance(prof, a, b)
            for f, prof, a, b in zip(space.factors, space.split_profiles,
                                     *_split_blocks(space, p, q))]


def upper_bound_distance(space: SpaceSpec, p: CompletionPoint, q: CompletionPoint) -> float:
    """Rigorous upper bound: horn blocks route through the collapsed axis,
    all other factors use their exact distances (see :func:`_radial_bound`
    for coupled charts)."""
    return _radial_bound(space, p, q, upper=True)


def lower_bound_distance(space: SpaceSpec, p: CompletionPoint, q: CompletionPoint) -> float:
    """Cheap lower bound from per-factor radial projections.

    Rigorous on uncoupled charts and on one b3-coupled horn (the split
    chart's, :func:`_split`).  On more it assumes ``h_k - n_c b3_k^2 xi^6
    > 0`` on the levels between the endpoints (see
    :func:`_radial_bound`).  The chart metric itself is positive
    definite exactly where ``sum_k b3_k^2 xi_k^6 / h_k(xi_k) < 1`` over the
    coupled horns (``spaces.coupling_sum``; ``point_from_json`` rejects
    points beyond it); with one coupled horn the two conditions agree.
    """
    return _radial_bound(space, p, q, upper=False)


def _radial_bound(space: SpaceSpec, p: CompletionPoint, q: CompletionPoint,
                  upper: bool) -> float:
    """Product of per-factor terms on the split chart (:func:`_split`):
    exact Euclidean and hyperbolic distances, and for a horn block
    ``H(xi_p) + H(xi_q)`` (upper: through the axis) or ``|H(xi_p) -
    H(xi_q)|`` (lower: radial projection).

    On a b3-coupled chart the split metric is ``dy^2 + sum_k (f_k
    dtheta_k^2 + h_k dxi_k^2) - (sum_k b3_k xi_k^3 dxi_k)^2`` plus the
    other factors.  Dropping the squared term only lengthens curves, which
    keeps the upper bound.  By Cauchy-Schwarz over the ``n_c`` coupled
    horns that term is at most ``n_c sum_k b3_k^2 xi_k^6 dxi_k^2``, so the
    lower bound's radial terms integrate ``sqrt(h_k - n_c b3_k^2 xi^6)``
    between levels.
    """
    coupled = space.coupled_ids
    terms = [_SOLVERS[factor.kind].bound(factor.profile, a, b, upper,
                                         len(coupled) * factor.b3**2 if i in coupled else None)
             for i, (factor, a, b) in enumerate(zip(space.factors, _split(space, p.blocks),
                                                    _split(space, q.blocks)))]
    return math.hypot(*terms)


def _level(blk) -> float:
    return 0.0 if isinstance(blk, BoundaryPoint) else blk.xi
