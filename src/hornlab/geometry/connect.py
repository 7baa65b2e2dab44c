"""Geodesic boundary value problems: connect, distance, midpoint.

The product structure does the heavy lifting: a curve in a metric product
is a geodesic exactly when every factor projection is one, run at its own
constant speed, so the solver works factor by factor and combines lengths
in quadrature.  Factor solvers:

* Euclidean: straight lines.
* Hyperbolic plane: vertical lines and circular arcs, with arclength
  ``tau = ln tan(alpha/2)`` along an arc.
* Horn-type blocks: radial lines when the angles agree or an endpoint is
  the collapsed axis; otherwise the rotational first integral
  ``c = f(xi) theta'`` reduces the solve to a one-parameter root find
  over the (possibly virtual) turning level.  The branch integrals are
  incomplete beta functions for pure-power profiles (``Horn``, and
  ``PerturbedHorn`` with ``a4 = c6 = 0``); profiles with ``a4`` or
  ``c6`` > 0, and branches starting farther from the turning level than
  they extend, use Gauss-Legendre panels under a square-root
  substitution.
* b3-coupled charts: damped-Newton shooting on the initial velocity with
  a curve-shortening fallback on dyadically refined polylines.

Every factor solver is symmetric in its endpoints by construction, so
distances come out exactly symmetric.  Lengths from the first-integral
route agree with reference integrations of the geodesic equation to
about 1e-12; see the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import beta, betainc

from ..errors import ConnectError, DistanceIntervalError, IntegrationError
from .spaces import (
    BOUNDARY,
    XI_SNAP,
    BoundaryPoint,
    CompletionPoint,
    Euclidean,
    HornPoint,
    HyperbolicPlane,
    PerturbedHorn,
    SpaceSpec,
    TangentVector,
    chart_vector,
    is_horn_like,
    make_point,
    point_key,
    points_equal,
    tangent_from_chart,
)
from .shoot import GeodesicSegment, geodesic_shoot
from .tensors import WarpProfile, metric_at_chart, warp_profile

# ---------------------------------------------------------------------------
# quadrature: Gauss-Legendre panels on [0, 1] under xi = a + (b - a) tau^2

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl(n: int):
    if n not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GL_CACHE[n] = (0.5 * (x + 1.0), 0.5 * w)
    return _GL_CACHE[n]


def _tau_panels(width: float, span: float) -> list[float]:
    """Panel edges in tau for the substitution dx = off + span tau^2.

    The integrand's mass sits within dx of order ``width`` of the turning
    level, so when span dwarfs width the first panels shrink geometrically
    down to tau ~ sqrt(width / span).
    """
    tau_w = math.sqrt(min(max(width, 1e-300) / span, 1.0))
    edges = [1.0]
    lo = max(min(tau_w * 0.25, 1.0 / 32.0), 1e-150)
    while edges[-1] > lo:
        edges.append(edges[-1] * 0.25)
    edges.append(0.0)
    return edges[::-1]


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
                     kind: str, n: int = 48) -> float:
    """Theta or length integral along the branch with angular momentum
    ``c = sqrt(f(xi_star))`` over ``xi = xi_star + dx``,
    ``dx = off + span tau^2`` with tau in (0, 1).

    ``off`` and ``span`` carry the distance to the turning level exactly,
    which keeps shallow dips accurate when that distance sits far below
    the float resolution of xi_star itself.

    Pure-power profiles (``a4 = c6 = 0``: ``Horn``, and ``PerturbedHorn``
    with only ``B`` set) use the incomplete-beta closed form whenever
    ``off <= span``.  Otherwise, and for every profile with ``a4`` or
    ``c6`` > 0, the integral runs on ``n``-node Gauss-Legendre panels;
    the square-root substitution absorbs the integrable singularity at
    dx = 0, and for ``off > span`` the integrand is smooth while the
    closed-form difference would cancel.
    """
    if span <= 0.0:
        return 0.0
    c = math.sqrt(prof.f(xi_star))
    if kind == "theta" and c == 0.0:
        return 0.0
    if prof.a4 == 0.0 and prof.c6 == 0.0 and off <= span:
        if kind == "theta":
            return _pure_theta(xi_star, off, span)
        return _pure_len(prof.B, xi_star, off, span)
    base, ws = _gl(n)
    panels = np.asarray(_tau_panels(xi_star + off, span))
    widths = panels[1:] - panels[:-1]
    tau = (panels[:-1, None] + widths[:, None] * base[None, :]).ravel()
    wts = (widths[:, None] * ws[None, :]).ravel()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dx = off + span * tau**2
        xi = xi_star + dx
        jac = 2.0 * span * tau
        root = np.sqrt(prof.f_minus(xi, xi_star, dx))
        if kind == "theta":
            dens = c * np.sqrt(prof.h(xi)) / (np.sqrt(prof.f(xi)) * root)
        else:
            dens = np.sqrt(prof.h(xi) * prof.f(xi)) / root
        term = wts * dens * jac
        # dx underflowing to exactly 0 at subnormal spans contributes
        # nothing; drop the resulting non-finite entries
        return float(np.sum(np.nan_to_num(term, nan=0.0, posinf=0.0)))


def _radial_primitive(prof: WarpProfile):
    """H(xi) = integral of sqrt(h) from 0, plus its inverse."""
    if prof.a4 == 0.0:
        s = 2.0 * math.sqrt(prof.B)
        return (lambda xi: s * xi), (lambda length: length / s)

    def H(xi):
        base, ws = _gl(64)
        t = xi * base
        return float(xi * np.sum(ws * np.sqrt(prof.h(t))))

    def H_inv(length):
        if length <= 0.0:
            return 0.0
        hi = length / (2.0 * math.sqrt(prof.B))
        while H(hi) < length:
            hi *= 2.0
        return brentq(lambda x: H(x) - length, 0.0, hi, rtol=8.9e-16, xtol=1e-300)

    return H, H_inv


# ---------------------------------------------------------------------------
# factor paths (unit-speed, s in [0, length])


class _ConstPath:
    def __init__(self, block):
        self.block = block
        self.length = 0.0

    def point(self, s):
        return self.block

    def velocity(self, s):
        if isinstance(self.block, BoundaryPoint):
            return None
        dim = 2 if isinstance(self.block, HornPoint) else len(self.block)
        return (0.0,) * dim


class _LinePath:
    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.length = float(np.linalg.norm(self.b - self.a))
        self._dir = (self.b - self.a) / self.length

    def point(self, s):
        return tuple(self.a + s * self._dir)

    def velocity(self, s):
        return tuple(self._dir)


class _HypPath:
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
        du = ((x2 - x1) ** 2 + (y2 - y1) ** 2) / (2.0 * y1 * y2)
        self.length = math.log1p(du + math.sqrt(du * (du + 2.0)))

    def point(self, s):
        g = complex(0.0, math.exp(self.sgn * s))
        w = (self.ch * g + self.sh) / (-self.sh * g + self.ch)
        return (self.x1 + self.y1 * w.real, self.y1 * w.imag)

    def velocity(self, s):
        e = math.exp(self.sgn * s)
        den = complex(self.ch, -self.sh * e)
        dw = complex(0.0, self.sgn * e) / (den * den)
        return (self.y1 * dw.real, self.y1 * dw.imag)


class _RadialPath:
    """Constant-angle path of a horn-type block; endpoints may collapse."""

    def __init__(self, prof: WarpProfile, theta: float, xi_from: float, xi_to: float):
        self.prof = prof
        self.theta = theta
        self.xi_from = xi_from
        self.xi_to = xi_to
        self.H, self.H_inv = _radial_primitive(prof)
        self._h0 = self.H(xi_from)
        self.length = abs(self.H(xi_to) - self._h0)
        self._sgn = 1.0 if xi_to >= xi_from else -1.0

    def _xi(self, s):
        return self.H_inv(self._h0 + self._sgn * s)

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


def _solve_branch_dx(prof: WarpProfile, xi_star: float, span: float,
                     target: float) -> float:
    """dx with arclength(turning level -> xi_star + dx) = target.

    Solved in log(dx) so shallow branches resolve far below the float
    resolution of xi_star.
    """
    if target <= 0.0:
        return 0.0
    total = _branch_integral(prof, xi_star, 0.0, span, "len")
    if target >= total:
        return span
    g = lambda lam: _branch_integral(prof, xi_star, 0.0, math.exp(lam), "len") - target
    lam_hi = math.log(span)
    lam = lam_hi - 2.0
    for _ in range(400):
        if g(lam) < 0.0:
            break
        lam_hi = lam
        lam -= 2.0
    else:
        return 0.0
    lam_root = brentq(g, lam, lam_hi, rtol=8.9e-16, xtol=1e-300, maxiter=300)
    return math.exp(lam_root)


class _WarpedPath:
    """Interior non-radial geodesic of a horn-type block.

    The solve runs over the dip depth ``delta = lo - xi*`` of the
    (possibly virtual) turning level below the lower endpoint, in log
    scale: the swept angle is monotone in delta on each branch, and
    shallow dips keep full relative accuracy even when delta is far
    below one ulp of the endpoint levels.
    """

    def __init__(self, prof: WarpProfile, p1: HornPoint, p2: HornPoint):
        self.prof = prof
        self.p1, self.p2 = p1, p2
        self.sgn_th = 1.0 if p2.theta >= p1.theta else -1.0
        dth = abs(p2.theta - p1.theta)
        lo = min(p1.xi, p2.xi)
        hi = max(p1.xi, p2.xi)
        self.lo, self.hi = lo, hi
        tan_dth = _branch_integral(prof, lo, 0.0, hi - lo, "theta") if p1.xi != p2.xi else 0.0
        if dth <= tan_dth:
            self.turning = False
            self.delta = self._solve_mono(prof, lo, hi, dth)
        else:
            self.turning = True
            self.delta = self._solve_turning(prof, lo, p1.xi, p2.xi, dth)
        self.xi_star = lo - self.delta
        xs = self.xi_star
        if self.turning:
            self.span1 = (p1.xi - lo) + self.delta
            self.span2 = (p2.xi - lo) + self.delta
            self.L1 = _branch_integral(prof, xs, 0.0, self.span1, "len")
            self.L2 = (
                self.L1 if self.span2 == self.span1
                else _branch_integral(prof, xs, 0.0, self.span2, "len")
            )
            self.length = self.L1 + self.L2
        else:
            self.length = _branch_integral(prof, xs, self.delta, hi - lo, "len")

    @staticmethod
    def _solve_mono(prof, lo, hi, dth):
        span = hi - lo

        def g(lam):
            delta = min(math.exp(lam), lo)  # exp/log round trips may overshoot
            return _branch_integral(prof, lo - delta, delta, span, "theta") - dth

        lam_hi = math.log(lo)  # delta = lo: xi* = 0, radial, no swept angle
        lam = lam_hi - 2.0
        for _ in range(400):
            if g(lam) >= 0.0:
                break
            lam_hi = lam
            lam -= 2.0
        else:
            return 0.0  # tangent-degenerate: xi* sits at the lower level
        lam_root = brentq(g, lam, lam_hi, rtol=8.9e-16, xtol=1e-300, maxiter=300)
        return min(math.exp(lam_root), lo)

    @staticmethod
    def _solve_turning(prof, lo, x1, x2, dth):
        s1_base = x1 - lo
        s2_base = x2 - lo
        symmetric = s1_base == s2_base

        def g(lam):
            delta = min(math.exp(lam), lo * (1.0 - 1e-16))
            xs = lo - delta
            if symmetric:
                return 2.0 * _branch_integral(prof, xs, 0.0, s1_base + delta, "theta") - dth
            return (
                _branch_integral(prof, xs, 0.0, s1_base + delta, "theta")
                + _branch_integral(prof, xs, 0.0, s2_base + delta, "theta")
                - dth
            )

        lam_hi = math.log(lo)
        if g(lam_hi) <= 0.0:
            raise ConnectError("turning-level bracket failed")
        lam = lam_hi - 4.0
        for _ in range(800):
            if g(lam) < 0.0:
                break
            lam_hi = lam
            lam -= 4.0
        else:
            raise ConnectError("turning-level bracket failed")
        lam_root = brentq(g, lam, lam_hi, rtol=8.9e-16, xtol=1e-300, maxiter=300)
        return min(math.exp(lam_root), lo * (1.0 - 1e-16))

    def _theta_to_dx(self, dx: float) -> float:
        return _branch_integral(self.prof, self.xi_star, 0.0, dx, "theta")

    def point(self, s):
        s = min(max(s, 0.0), self.length)
        prof, xs = self.prof, self.xi_star
        if self.turning:
            if s <= self.L1:
                dx = _solve_branch_dx(prof, xs, self.span1, self.L1 - s)
                theta = self.p1.theta + self.sgn_th * (
                    self._theta_to_dx(self.span1) - self._theta_to_dx(dx)
                )
            else:
                dx = _solve_branch_dx(prof, xs, self.span2, s - self.L1)
                theta = self.p1.theta + self.sgn_th * (
                    self._theta_to_dx(self.span1) + self._theta_to_dx(dx)
                )
            return HornPoint(theta, xs + dx)
        up = self.p1.xi <= self.p2.xi
        s_from_lo = s if up else self.length - s
        dxu = self._mono_dx(s_from_lo)
        dth_from_lo = _branch_integral(prof, xs, self.delta, dxu, "theta")
        if up:
            theta = self.p1.theta + self.sgn_th * dth_from_lo
        else:
            total = _branch_integral(prof, xs, self.delta, self.hi - self.lo, "theta")
            theta = self.p1.theta + self.sgn_th * (total - dth_from_lo)
        return HornPoint(theta, self.lo + dxu)

    def _mono_dx(self, s_from_lo: float) -> float:
        """Level offset above lo with arclength(lo -> lo + dxu) = s_from_lo."""
        span = self.hi - self.lo
        if s_from_lo <= 0.0:
            return 0.0
        if s_from_lo >= self.length:
            return span
        fn = lambda dxu: _branch_integral(
            self.prof, self.xi_star, self.delta, dxu, "len") - s_from_lo
        return brentq(fn, 0.0, span, rtol=8.9e-16, xtol=1e-300, maxiter=300)

    def velocity(self, s):
        prof, xs = self.prof, self.xi_star
        # recover the exact level offset dx at parameter s
        if self.turning:
            if s <= self.L1:
                dx = _solve_branch_dx(prof, xs, self.span1, self.L1 - s)
            else:
                dx = _solve_branch_dx(prof, xs, self.span2, s - self.L1)
        else:
            up = self.p1.xi <= self.p2.xi
            s_from_lo = s if up else self.length - s
            dx = self.delta + self._mono_dx(s_from_lo)
        xi = xs + dx
        c = math.sqrt(prof.f(xs))
        f = prof.f(xi)
        vth = self.sgn_th * c / f
        vxi = math.sqrt(max(prof.f_minus(xi, xs, dx), 0.0) / (f * prof.h(xi)))
        if self.turning:
            if s < self.L1:
                vxi = -vxi
        elif self.p2.xi < self.p1.xi:
            vxi = -vxi
        return (vth, vxi)


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
# coupled charts: two-stage generic solver


def _chart_point(space: SpaceSpec, x: np.ndarray) -> CompletionPoint:
    return make_point(space, [tuple(x[sl]) for sl in space.chart_slices()])


def _shoot_endpoint(space: SpaceSpec, x0: np.ndarray, v: np.ndarray):
    p0 = _chart_point(space, x0)
    speed = math.sqrt(v @ metric_at_chart(space, x0) @ v)
    if speed == 0.0:
        return None
    seg = geodesic_shoot(space, p0, tangent_from_chart(space, v), speed, atol=1e-12)
    if seg.hit_stratum:
        return None
    return chart_vector(space, seg.end)


def shooting_connect(space: SpaceSpec, p: CompletionPoint, q: CompletionPoint,
                     *, n_guesses: int = 8, newton_iters: int = 30,
                     tol: float = 1e-10):
    """Damped-Newton shooting on the initial velocity over the full chart.

    Returns ``(initial velocity, length)``; raises ConnectError when the
    guess budget is exhausted.  Initial guesses are the chart chord and
    its rotations by +-30 degrees in successive coordinate planes.
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
    scale = 1.0 + float(np.linalg.norm(x1))
    for v0 in guesses:
        v = v0.astype(float)
        end = _shoot_endpoint(space, x0, v)
        if end is None:
            continue
        res = float(np.linalg.norm(end - x1))
        for _ in range(newton_iters):
            if res <= tol * scale:
                length = math.sqrt(v @ metric_at_chart(space, x0) @ v)
                return v, length
            delta = 1e-7 * max(1.0, float(np.linalg.norm(v)))
            J = np.empty((d, d))
            usable = True
            for k in range(d):
                vv = v.copy()
                vv[k] += delta
                end_k = _shoot_endpoint(space, x0, vv)
                if end_k is None:
                    usable = False
                    break
                J[:, k] = (end_k - end) / delta
            if not usable:
                break
            try:
                step = np.linalg.solve(J, x1 - end)
            except np.linalg.LinAlgError:
                break
            improved = False
            lam = 1.0
            for _ in range(20):
                cand = v + lam * step
                end_c = _shoot_endpoint(space, x0, cand)
                if end_c is not None:
                    res_c = float(np.linalg.norm(end_c - x1))
                    if res_c < res:
                        v, end, res = cand, end_c, res_c
                        improved = True
                        break
                lam *= 0.5
            if not improved:
                break
        else:
            continue
        if res <= tol * scale:
            length = math.sqrt(v @ metric_at_chart(space, x0) @ v)
            return v, length
    chord_nodes = np.linspace(0.0, 1.0, 65)[:, None] * (x1 - x0)[None, :] + x0[None, :]
    seg = chord_nodes[1:] - chord_nodes[:-1]
    G = metric_batch(space, 0.5 * (chord_nodes[1:] + chord_nodes[:-1]))
    chord_len = float(np.sum(np.sqrt(np.einsum("ni,nij,nj->n", seg, G, seg))))
    raise ConnectError(
        "shooting did not converge within the guess budget",
        best_path=chord_nodes, upper=chord_len,
    )


class _ChartPolyline:
    """Piecewise-linear chart path from the curve-shortening fallback."""

    def __init__(self, sub_space: SpaceSpec, nodes: np.ndarray, length: float):
        self.sub_space = sub_space
        self.nodes = nodes
        seg = nodes[1:] - nodes[:-1]
        mids = 0.5 * (nodes[1:] + nodes[:-1])
        lens = np.array(
            [math.sqrt(dd @ metric_at_chart(sub_space, m) @ dd) for dd, m in zip(seg, mids)]
        )
        self.cum = np.concatenate([[0.0], np.cumsum(lens)])
        self.length = length

    def chart_at_fraction(self, frac: float) -> np.ndarray:
        t = min(max(frac, 0.0), 1.0) * self.cum[-1]
        i = int(np.searchsorted(self.cum, t))
        i = min(max(i, 1), len(self.cum) - 1)
        w = (t - self.cum[i - 1]) / (self.cum[i] - self.cum[i - 1])
        return (1 - w) * self.nodes[i - 1] + w * self.nodes[i]


def metric_batch(space: SpaceSpec, X: np.ndarray) -> np.ndarray:
    """Chart metric evaluated over rows of X; shape (n, d, d)."""
    n = X.shape[0]
    d = space.dim
    G = np.zeros((n, d, d))
    eu_off = space.first_euclidean_offset()
    for factor, sl in zip(space.factors, space.chart_slices()):
        k = sl.start
        if isinstance(factor, Euclidean):
            for j in range(factor.dim):
                G[:, k + j, k + j] = 1.0
        elif isinstance(factor, HyperbolicPlane):
            inv = 1.0 / X[:, k + 1] ** 2
            G[:, k, k] = inv
            G[:, k + 1, k + 1] = inv
        else:
            prof = warp_profile(factor)
            xi = X[:, k + 1]
            G[:, k, k] = prof.f(xi)
            G[:, k + 1, k + 1] = prof.h(xi)
            if isinstance(factor, PerturbedHorn) and factor.b3 > 0:
                cross = factor.b3 * xi**3
                G[:, k + 1, eu_off] = cross
                G[:, eu_off, k + 1] = cross
    return G


def metric_grad_batch(space: SpaceSpec, X: np.ndarray) -> np.ndarray:
    """Coordinate gradient of the chart metric over rows of X.

    Shape (n, d, d, d): entry [., l, i, j] is the derivative of g_ij
    along chart coordinate l.
    """
    n = X.shape[0]
    d = space.dim
    dG = np.zeros((n, d, d, d))
    eu_off = space.first_euclidean_offset()
    for factor, sl in zip(space.factors, space.chart_slices()):
        k = sl.start
        if isinstance(factor, Euclidean):
            continue
        if isinstance(factor, HyperbolicPlane):
            dv = -2.0 / X[:, k + 1] ** 3
            dG[:, k + 1, k, k] = dv
            dG[:, k + 1, k + 1, k + 1] = dv
        else:
            prof = warp_profile(factor)
            xi = X[:, k + 1]
            dG[:, k + 1, k, k] = prof.fp(xi)
            dG[:, k + 1, k + 1, k + 1] = prof.hp(xi)
            if isinstance(factor, PerturbedHorn) and factor.b3 > 0:
                cross = 3.0 * factor.b3 * xi**2
                dG[:, k + 1, k + 1, eu_off] = cross
                dG[:, k + 1, eu_off, k + 1] = cross
    return dG


def _block_tridiagonal_solve(A, B, C, R):
    """Thomas elimination for block rows A_i x_{i-1} + B_i x_i + C_i x_{i+1} = R_i."""
    n = len(B)
    Bp = B.copy()
    Rp = R.copy()
    for i in range(1, n):
        W = A[i] @ np.linalg.inv(Bp[i - 1])
        Bp[i] = Bp[i] - W @ C[i - 1]
        Rp[i] = Rp[i] - W @ Rp[i - 1]
    X = np.empty_like(R)
    X[-1] = np.linalg.solve(Bp[-1], Rp[-1])
    for i in range(n - 2, -1, -1):
        X[i] = np.linalg.solve(Bp[i], Rp[i] - C[i] @ X[i + 1])
    return X


def _polyline_energy(space: SpaceSpec, nodes: np.ndarray) -> float:
    seg = nodes[1:] - nodes[:-1]
    G = metric_batch(space, 0.5 * (nodes[1:] + nodes[:-1]))
    return float(np.sum(np.einsum("ni,nij,nj->n", seg, G, seg)))


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


def curve_shortening_connect(space: SpaceSpec, p: CompletionPoint, q: CompletionPoint,
                             *, m_max: int = 12, length_tol: float = 1e-9,
                             grad_tol: float = 1e-13, inner_iters: int = 120):
    """Curve-shortening fallback on 2^m + 1 chart nodes, m up to 12.

    Damped Newton-type descent on the discrete energy: steps solve the
    frozen-metric block-tridiagonal system (the dominant part of the
    Hessian) against the exact gradient, which includes the metric
    derivative force, so stationary points are true discrete geodesics.
    Refinement doubles the nodes until the length settles, with one
    Richardson step at the end.
    """
    x0 = chart_vector(space, p)
    x1 = chart_vector(space, q)
    xi_floor = _xi_floor(space)
    d = space.dim
    nodes = np.linspace(0.0, 1.0, 17)[:, None] * (x1 - x0)[None, :] + x0[None, :]
    prev_len = None
    length = None

    def admissible(cand):
        for factor, sl in zip(space.factors, space.chart_slices()):
            if isinstance(factor, HyperbolicPlane) and np.any(cand[:, sl.start + 1] <= 0):
                return False
        return True

    for m in range(4, m_max + 1):
        energy = _polyline_energy(space, nodes)
        scale = max(1.0, float(np.max(np.abs(nodes))))
        for _ in range(inner_iters):
            grad = _energy_gradient(space, nodes)
            if float(np.max(np.abs(grad))) < grad_tol * max(1.0, energy):
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
                if xi_floor is not None:
                    cand = np.maximum(cand, xi_floor)
                if admissible(cand):
                    e_new = _polyline_energy(space, cand)
                    if e_new <= energy + 1e-15 * abs(energy):
                        nodes, energy = cand, e_new
                        moved = True
                        break
                lam *= 0.5
            if not moved or float(np.max(np.abs(lam * step))) < 1e-14 * scale:
                break
        seg = nodes[1:] - nodes[:-1]
        G = metric_batch(space, 0.5 * (nodes[1:] + nodes[:-1]))
        length = float(np.sum(np.sqrt(np.einsum("ni,nij,nj->n", seg, G, seg))))
        if prev_len is not None and abs(length - prev_len) < length_tol * max(1.0, length):
            length = length + (length - prev_len) / 3.0
            break
        prev_len = length
        fine = np.empty((2 * len(nodes) - 1, nodes.shape[1]))
        fine[0::2] = nodes
        fine[1::2] = 0.5 * (nodes[1:] + nodes[:-1])
        nodes = fine
    return _ChartPolyline(space, nodes, length)


def _xi_floor(space: SpaceSpec):
    if not space.horn_indices:
        return None
    floor = np.full(space.dim, -np.inf)
    for idx in space.horn_indices:
        floor[space.chart_slices()[idx].start + 1] = XI_SNAP
    return floor


class _GroupPath:
    """Joint geodesic of a b3-coupled sub-chart."""

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
        try:
            v, length = shooting_connect(sub_space, p, q)
            self._seg = geodesic_shoot(
                sub_space, p, tangent_from_chart(sub_space, v), length, atol=1e-12
            )
            self._poly = None
            self.length = length + extra
        except ConnectError:
            self._seg = None
            self._poly = curve_shortening_connect(sub_space, p, q)
            self.length = self._poly.length + extra

    @staticmethod
    def _pull_off_boundary(sub_space, blocks, other_blocks):
        """Swap boundary blocks for snap-level approach points; the exact
        radial tail below the snap level contributes H(xi_snap)."""
        out = list(blocks)
        extra = 0.0
        for i, (factor, blk) in enumerate(zip(sub_space.factors, blocks)):
            if is_horn_like(factor) and isinstance(blk, BoundaryPoint):
                prof = warp_profile(factor)
                H, _ = _radial_primitive(prof)
                ob = other_blocks[i]
                theta = ob.theta if isinstance(ob, HornPoint) else 0.0
                out[i] = HornPoint(theta, XI_SNAP)
                extra += H(XI_SNAP)
        return out, extra

    def blocks_at(self, s):
        frac = 0.0 if self.length == 0 else min(max(s / self.length, 0.0), 1.0)
        if self._flip:
            frac = 1.0 - frac
        if self._seg is not None:
            return list(self._seg.point_at(frac).blocks)
        x = self._poly.chart_at_fraction(frac)
        return list(_chart_point(self.sub_space, x).blocks)

    def velocity_blocks_at(self, s):
        if self._seg is None or self._seg.chart_velocity is None:
            return [None for _ in self.sub_space.factors]
        frac = 0.0 if self.length == 0 else min(max(s / self.length, 0.0), 1.0)
        if self._flip:
            frac = 1.0 - frac
        i = int(np.searchsorted(self._seg.params, frac))
        i = min(max(i, 0), len(self._seg.params) - 1)
        v = self._seg.chart_velocity[i]
        if self._flip:
            v = -v
        return [tuple(v[sl]) for sl in self.sub_space.chart_slices()]


# ---------------------------------------------------------------------------
# product assembly


@dataclass
class _Unit:
    factor_ids: tuple[int, ...]
    path: object
    is_group: bool


class PathBundle:
    """Per-factor geodesics assembled into the product geodesic."""

    def __init__(self, space: SpaceSpec, p: CompletionPoint, q: CompletionPoint):
        self.space = space
        self.p, self.q = p, q
        self.units: list[_Unit] = []
        grouped: set[int] = set()
        if space.coupled:
            ids = [i for i, f in enumerate(space.factors)
                   if isinstance(f, PerturbedHorn) and f.b3 > 0]
            eu = next(i for i, f in enumerate(space.factors) if isinstance(f, Euclidean))
            ids = tuple(sorted(ids + [eu]))
            grouped = set(ids)
            sub_space = SpaceSpec(tuple(space.factors[i] for i in ids))
            gp = _GroupPath(
                sub_space, ids,
                [p.blocks[i] for i in ids],
                [q.blocks[i] for i in ids],
            )
            self.units.append(_Unit(ids, gp, True))
        for i, factor in enumerate(space.factors):
            if i in grouped:
                continue
            a, b = p.blocks[i], q.blocks[i]
            if a == b:
                path = _ConstPath(a)
            elif isinstance(factor, Euclidean):
                path = _LinePath(a, b)
            elif isinstance(factor, HyperbolicPlane):
                path = _HypPath(a, b)
            else:
                path = _warp_connect(warp_profile(factor), a, b)
            self.units.append(_Unit((i,), path, False))
        self.length = math.sqrt(sum(u.path.length**2 for u in self.units))

    def point_at(self, frac: float) -> CompletionPoint:
        if frac <= 0.0:
            return self.p
        if frac >= 1.0:
            return self.q
        blocks: list = [None] * len(self.space.factors)
        for unit in self.units:
            s = frac * unit.path.length
            if unit.is_group:
                for fid, blk in zip(unit.factor_ids, unit.path.blocks_at(s)):
                    blocks[fid] = blk
            else:
                blocks[unit.factor_ids[0]] = unit.path.point(s)
        return make_point(self.space, [self._raw(b) for b in blocks])

    @staticmethod
    def _raw(block):
        if isinstance(block, BoundaryPoint):
            return None
        if isinstance(block, HornPoint):
            return (block.theta, block.xi)
        return block

    def initial_velocity(self) -> TangentVector | None:
        """Unit initial velocity; None entries on boundary-start blocks."""
        if self.length == 0.0:
            return None
        blocks: list = [None] * len(self.space.factors)
        for unit in self.units:
            scale = unit.path.length / self.length
            if unit.is_group:
                for fid, v in zip(unit.factor_ids, unit.path.velocity_blocks_at(0.0)):
                    blocks[fid] = None if v is None else tuple(scale * c for c in v)
            else:
                v = unit.path.velocity(0.0)
                blocks[unit.factor_ids[0]] = (
                    None if v is None else tuple(scale * c for c in v)
                )
        return TangentVector(tuple(blocks))


# ---------------------------------------------------------------------------
# public operations


def geodesic_connect(space: SpaceSpec, p: CompletionPoint, q: CompletionPoint,
                     *, samples: int = 33) -> GeodesicSegment:
    """The geodesic segment from p to q, constant-speed on [0, 1].

    Endpoints are reproduced exactly; boundary blocks are allowed on
    either endpoint.
    """
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
    points coincide.  If a factor solve fails to certify, or a shoot of
    the coupled solver fails to integrate, the error is converted to a
    rigorous interval [lower, upper] (the upper bound routes radially
    through the collapsed axis).
    """
    if points_equal(p, q):
        return 0.0
    try:
        if space.coupled:
            return PathBundle(space, p, q).length
        total = 0.0
        for i, factor in enumerate(space.factors):
            a, b = p.blocks[i], q.blocks[i]
            if a == b:
                continue
            if isinstance(factor, Euclidean):
                d = math.dist(a, b)
            elif isinstance(factor, HyperbolicPlane):
                d = _hyp_distance(a, b)
            else:
                d = _warp_distance(warp_profile(factor), a, b)
            total += d * d
        return math.sqrt(total)
    except (ConnectError, IntegrationError):
        raise DistanceIntervalError(
            lower_bound_distance(space, p, q),
            upper_bound_distance(space, p, q),
        ) from None


def upper_bound_distance(space: SpaceSpec, p: CompletionPoint, q: CompletionPoint) -> float:
    """Rigorous upper bound: horn blocks may route through the collapsed
    axis, all other factors use their exact distances."""
    total = 0.0
    for i, factor in enumerate(space.factors):
        a, b = p.blocks[i], q.blocks[i]
        if isinstance(factor, Euclidean):
            total += math.dist(a, b) ** 2
        elif isinstance(factor, HyperbolicPlane):
            total += _hyp_distance(a, b) ** 2
        else:
            prof = warp_profile(factor)
            H, _ = _radial_primitive(prof)
            ha = 0.0 if isinstance(a, BoundaryPoint) else H(a.xi)
            hb = 0.0 if isinstance(b, BoundaryPoint) else H(b.xi)
            total += (ha + hb) ** 2
    return math.sqrt(total)


def _hyp_distance(a, b) -> float:
    (x1, y1), (x2, y2) = a, b
    u = ((x2 - x1) ** 2 + (y2 - y1) ** 2) / (2.0 * y1 * y2)
    # arccosh(1 + u), stable for small u
    return math.log1p(u + math.sqrt(u * (u + 2.0)))


def _warp_distance(prof: WarpProfile, a, b) -> float:
    a_b = isinstance(a, BoundaryPoint)
    b_b = isinstance(b, BoundaryPoint)
    if a_b and b_b:
        return 0.0
    H, _ = _radial_primitive(prof)
    if a_b:
        return H(b.xi)
    if b_b:
        return H(a.xi)
    if a.theta == b.theta:
        return abs(H(a.xi) - H(b.xi))
    return _WarpedPath(prof, a, b).length


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
    """Per-factor distances; None when the chart is b3-coupled."""
    if space.coupled:
        return None
    out = []
    for i, factor in enumerate(space.factors):
        a, b = p.blocks[i], q.blocks[i]
        if a == b:
            out.append(0.0)
        elif isinstance(factor, Euclidean):
            out.append(math.dist(a, b))
        elif isinstance(factor, HyperbolicPlane):
            out.append(_hyp_distance(a, b))
        else:
            out.append(_warp_distance(warp_profile(factor), a, b))
    return out


def lower_bound_distance(space: SpaceSpec, p: CompletionPoint, q: CompletionPoint) -> float:
    """Cheap rigorous lower bound from per-factor radial projections."""
    total = 0.0
    for i, factor in enumerate(space.factors):
        a, b = p.blocks[i], q.blocks[i]
        if isinstance(factor, Euclidean):
            total += math.dist(a, b) ** 2
        elif isinstance(factor, HyperbolicPlane):
            total += _hyp_distance(a, b) ** 2
        else:
            prof = warp_profile(factor)
            H, _ = _radial_primitive(prof)
            ha = 0.0 if isinstance(a, BoundaryPoint) else H(a.xi)
            hb = 0.0 if isinstance(b, BoundaryPoint) else H(b.xi)
            total += (ha - hb) ** 2
    return math.sqrt(total)
