"""The horn solver's root finds against 40-digit mpmath roots.

Dip depths come from one safeguarded Newton iteration in ``log delta``;
here each is checked against an mpmath root of the closed-form swept
angle of the pure-power profile,
``theta(xi*, x) = B(5/6, 1/2) I_v(1/2, 5/6) / (3 xi*^2)`` with
``v = 1 - (xi*/x)^6`` taken through ``expm1``/``log1p`` so that shallow
dips do not cancel.  The radial arclength inverter of profiles with
``a4 > 0`` is checked the same way.
"""

import math

import mpmath as mp
import pytest

import hornlab.geometry.connect as connect_mod
from hornlab.geometry import XI_SNAP, Horn, HornPoint, PerturbedHorn, WarpProfile
from hornlab.geometry.connect import _branch_integral, _radial_primitive, _WarpedPath

REL = 1e-12
HORN = Horn().profile
B2 = PerturbedHorn(B=2.0).profile
TANGENT = _branch_integral(HORN, 0.5, 0.0, 1.0, "theta")  # at 0.5, up to 1.5

# name: (profile, p, q); monotone legs carry delta as their offset,
# turning paths, whose lower point comes first, as the span of the first leg
CASES = {
    "turning-symmetric": (HORN, (-0.4, 0.9), (0.4, 0.9)),
    "turning-asymmetric": (HORN, (-2.0, 0.6), (2.0, 1.3)),
    "monotone-up": (HORN, (0.0, 0.5), (0.5 * TANGENT, 1.5)),
    "monotone-down": (HORN, (0.3, 1.5), (0.3 - 0.5 * TANGENT, 0.5)),
    # symmetric: an asymmetric dip this shallow is set by dth - TANGENT,
    # which cancels to the kernel's rounding (about 1e-7 relative here)
    "dip-below-one-ulp": (HORN, (0.0, 0.5), (1e-9, 0.5)),
    "deep-dip": (HORN, (-80.0, 10.0), (80.0, 10.0)),
    "collapse-ray": (HORN, (0.0, XI_SNAP), (1.0, XI_SNAP)),
    "B2-turning": (B2, (-1.0, 0.7), (1.5, 1.1)),
    "B2-monotone": (B2, (0.0, 0.7), (0.02, 1.1)),
}


def mp_theta(xs, rise):
    """Angle swept from the turning level xs up to the level xs + rise."""
    v = -mp.expm1(6 * mp.log1p(-rise / (xs + rise)))
    return mp.beta(mp.mpf(5) / 6, 0.5) * mp.betainc(0.5, mp.mpf(5) / 6, 0, v,
                                                    regularized=True) / (3 * xs**2)


def mp_delta(p, q, delta0, mono):
    """40-digit dip depth, by the secant method from the solver's answer."""
    with mp.workdps(40):
        lo, hi = sorted((mp.mpf(p[1]), mp.mpf(q[1])))
        dth = abs(mp.mpf(q[0]) - mp.mpf(p[0]))

        def residual(lam):
            delta = mp.exp(lam)
            xs = lo - delta
            if mono:
                return mp_theta(xs, hi - lo + delta) - mp_theta(xs, delta) - dth
            return mp_theta(xs, delta) + mp_theta(xs, hi - lo + delta) - dth

        lam0 = mp.log(mp.mpf(delta0))
        return mp.exp(mp.findroot(residual, (lam0, lam0 - mp.mpf("1e-6"))))


@pytest.mark.parametrize("name", CASES)
def test_dip_depth_matches_mpmath(name):
    prof, p, q = CASES[name]
    path = _WarpedPath(prof, HornPoint(*p), HornPoint(*q))
    mono = len(path.legs) == 1
    delta = path.legs[0].off if mono else path.legs[0].span
    want = mp_delta(p, q, delta, mono)
    assert abs(delta - want) <= REL * want, (delta, float(want))
    if name == "dip-below-one-ulp":
        assert delta < 0.5 * math.ulp(p[1])
    if name == "deep-dip":
        assert path.xi_star < p[1] / 100


def test_collapse_ray_dip_takes_few_kernel_calls(monkeypatch):
    calls = []
    pure_theta = connect_mod._pure_theta

    def counted(*args):
        calls.append(args)
        return pure_theta(*args)

    monkeypatch.setattr(connect_mod, "_pure_theta", counted)
    _WarpedPath(HORN, HornPoint(0.0, XI_SNAP), HornPoint(1.0, XI_SNAP))
    assert 0 < len(calls) <= 4


@pytest.mark.parametrize("frac", [0.25, 0.5, 0.75])
def test_radial_inverse_matches_mpmath(frac):
    prof = WarpProfile(B=1.5, a4=0.1, c6=0.05)
    H, H_inv = _radial_primitive(prof)
    target = frac * H(1.25)
    got = H_inv(target)
    with mp.workdps(40):
        def H_mp(x):
            return mp.quad(lambda t: mp.sqrt(4 * mp.mpf(1.5) * (1 + mp.mpf(0.1) * t**4)), [0, x])

        want = mp.findroot(lambda x: H_mp(x) - mp.mpf(target), mp.mpf(got))
    assert abs(got - want) <= 2 * math.ulp(float(want))


FAR_LO, FAR_HI = 1e-6, 1e12  # levels 1e18 apart: span / hi rounds to 1


def mp_far_leg(lo, hi, dth):
    """60-digit turning level and length of the monotone leg from lo to hi
    sweeping dth, with the angle taken on the tails ``I_u(5/6, 1/2)``,
    which a turning level far below lo leaves near 0."""
    with mp.workdps(60):
        a, b = mp.mpf(5) / 6, mp.mpf(1) / 2
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        beta = mp.beta(a, b)

        def theta(xs):
            tail = (mp.betainc(a, b, 0, (xs / lo) ** 6, regularized=True)
                    - mp.betainc(a, b, 0, (xs / hi) ** 6, regularized=True))
            return mp.re(beta * tail / (3 * xs**2))

        xs = mp.findroot(lambda x: theta(x) - dth, (2.5 * dth * lo**5) ** (mp.mpf(1) / 3))

        def primitive(x):  # arclength from the turning level
            u = (xs / x) ** 6
            return mp.re(2 * x * mp.sqrt(1 - u)
                         - 2 * xs / 3 * beta * mp.betainc(b, a, 0, 1 - u, regularized=True))

        return xs, primitive(hi) - primitive(lo)


@pytest.mark.parametrize("flip", [False, True])
def test_far_apart_levels_match_mpmath(flip):
    """The thick-leg start once took log1p(-span/hi) = log1p(-1) here and
    raised 'math domain error'."""
    from hornlab.geometry import SpaceSpec, distance, make_point

    p, q = (0.0, FAR_LO), (1.0, FAR_HI)
    if flip:
        p, q = q, p
    space = SpaceSpec((Horn(),))
    got = distance(space, make_point(space, [p]), make_point(space, [q]))
    xs, want = mp_far_leg(FAR_LO, FAR_HI, 1.0)
    assert abs(got - want) <= REL * want, (got, float(want))
    path = _WarpedPath(HORN, HornPoint(*p), HornPoint(*q))
    # xi* = lo - delta carries delta's error, relative to delta, times
    # lo / xi* (about 7e3 here)
    assert abs(path.xi_star - xs) <= 1e-9 * xs, (path.xi_star, float(xs))
