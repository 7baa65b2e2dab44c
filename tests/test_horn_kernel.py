"""The horn branch-integral kernel against an independent mpmath oracle.

The kernel takes one of three routes (see ``connect._branch_integral``):

* closed form: for the pure-power profile ``f = B xi^6``, ``h = 4B`` and
  branches with ``off <= span`` the integrals are incomplete beta
  functions;
* one smooth panel: every profile with ``off > span``, where the
  integrand is analytic on the whole panel, takes one Gauss-Legendre
  panel;
* geometric panels: profiles with ``a4`` or ``c6`` > 0 and
  ``off <= span`` take Gauss-Legendre panels shrinking toward the turning
  level.

All three are checked here against a 40-digit tanh-sinh quadrature of the
defining integrals, with ``f(xi) - f(xi*)`` factored as ``dx p6`` so that
shallow dips do not cancel.
"""

import math

import mpmath as mp
import pytest

from hornlab.geometry import XI_SNAP, WarpProfile
from hornlab.geometry.connect import _branch_integral

REL = 1e-13


def oracle(B, xi_star, off, span, kind, a4=0.0, c6=0.0):
    """Branch integral at 40 digits over dx = off + span tau^2."""
    with mp.workdps(40):
        B, xs, off, span, a4, c6 = (mp.mpf(v) for v in (B, xi_star, off, span, a4, c6))

        def f(xi):
            return B * xi**6 * (1 + c6 * xi**6)

        def dens(tau):
            dx = off + span * tau**2
            xi = xs + dx
            p6 = sum(xi ** (5 - k) * xs**k for k in range(6))
            f_minus = B * dx * p6 * (1 + c6 * (xi**6 + xs**6))
            h = 4 * B * (1 + a4 * xi**4)
            if kind == "theta":
                d = mp.sqrt(f(xs)) * mp.sqrt(h) / (mp.sqrt(f(xi)) * mp.sqrt(f_minus))
            else:
                d = mp.sqrt(h * f(xi)) / mp.sqrt(f_minus)
            return d * 2 * span * tau

        # break the tau range where the dx ~ off near-singularity sits
        s = mp.sqrt(off / span) if off > 0 else mp.mpf(0)
        cuts = sorted({t for t in (s / 4, s, 4 * s, mp.mpf(1) / 32) if 0 < t < 1})
        return float(mp.quad(dens, [0, *cuts, 1]))


def rel_err(got, want):
    return abs(got - want) / abs(want)


XI_STARS = [XI_SNAP, 1e-3, 0.3128, math.exp(0.7)]
RATIOS = [1e-12, 1e-5, 1.0, math.exp(2.0)]
OFFSETS = {"turning": 0.0, "near": 1e-7, "far": 3.0}  # off / span


@pytest.mark.parametrize("B", [1.0, 2.0])
@pytest.mark.parametrize("where", list(OFFSETS))
@pytest.mark.parametrize("xi_star", XI_STARS)
def test_pure_power_kernel_matches_mpmath(B, where, xi_star):
    prof = WarpProfile(B=B)
    for ratio in RATIOS:
        span = ratio * xi_star
        off = OFFSETS[where] * span
        for kind in ("theta", "len"):
            got = _branch_integral(prof, xi_star, off, span, kind)
            want = oracle(B, xi_star, off, span, kind)
            assert rel_err(got, want) <= REL, (kind, xi_star, off, span)


@pytest.mark.parametrize("xi_star, off, span", [
    (0.3128, 2.8e-19, 9.1e-11),  # 0 < off << span: panels were off by 2.3e-8
    (0.01, 0.29, 1.2),  # far levels: the swept angle is a saturated tail
    (1e-3, 0.5, 1.0),
    (XI_SNAP, 0.3, 1.0),
    (1e-5, 1e-6, 2.0),
])
def test_pure_power_kernel_hard_cases(xi_star, off, span):
    for B in (1.0, 2.0):
        prof = WarpProfile(B=B)
        for kind in ("theta", "len"):
            got = _branch_integral(prof, xi_star, off, span, kind)
            want = oracle(B, xi_star, off, span, kind)
            assert rel_err(got, want) <= REL, (kind, B)


@pytest.mark.parametrize("a4, c6", [(0.4, 0.0), (0.0, 0.05), (0.1, 0.2)])
def test_quadrature_kernel_matches_mpmath(a4, c6):
    prof = WarpProfile(B=1.5, a4=a4, c6=c6)
    for xi_star, off, span in [(0.3, 0.0, 0.5), (0.8, 0.0, 1e-9), (0.5, 0.4, 0.2)]:
        for kind in ("theta", "len"):
            got = _branch_integral(prof, xi_star, off, span, kind)
            want = oracle(1.5, xi_star, off, span, kind, a4=a4, c6=c6)
            assert rel_err(got, want) <= 1e-12, (kind, xi_star, off, span)


PROFILES = {"pure": (2.0, 0.0, 0.0), "a4": (2.0, 0.1, 0.0), "c6": (2.0, 0.0, 0.05),
            "a4+c6": (1.5, 0.4, 0.2)}
#: (turning level, top level) pairs, from near the stratum up to about 10
LEVEL_PAIRS = [(XI_SNAP, 1e-3), (1e-3, 1e-3 * (1.0 + 1e-6)), (1e-3, 0.5), (0.3128, 0.32),
               (0.3128, 3.0), (1.0, 10.0), (2.0, 2.5), (5.0, 10.0)]


@pytest.mark.parametrize("ratio", [1.0 + 1e-7, 1.5, 3.0, 10.0, 1e3])  # off / span
@pytest.mark.parametrize("name", list(PROFILES))
def test_smooth_panel_matches_mpmath(name, ratio):
    B, a4, c6 = PROFILES[name]
    prof = WarpProfile(B=B, a4=a4, c6=c6)
    rel = REL if name == "pure" else 1e-12
    for xi_star, top in LEVEL_PAIRS:
        span = (top - xi_star) / (1.0 + ratio)
        off = ratio * span
        assert off > span
        for kind in ("theta", "len"):
            got = _branch_integral(prof, xi_star, off, span, kind)
            want = oracle(B, xi_star, off, span, kind, a4=a4, c6=c6)
            assert rel_err(got, want) <= rel, (kind, xi_star, off, span)


@pytest.mark.parametrize("span", [5e-324, 1e-310, 1e-300])
@pytest.mark.parametrize("off", [0.0, 1e-320, 1e-300])
def test_subnormal_spans_stay_finite(span, off):
    for prof in (WarpProfile(), WarpProfile(B=2.0), WarpProfile(a4=0.1)):
        for xi_star in (XI_SNAP, 0.5, 3.0):
            for kind in ("theta", "len"):
                val = _branch_integral(prof, xi_star, off, span, kind)
                assert math.isfinite(val) and val >= 0.0
