import cmath
import math

import numpy as np
import pytest

import hornlab.asymptotics as asymptotics_mod
from hornlab.asymptotics import (
    AnnulusSpec,
    DifferentialModel,
    annulus_density,
    cometric_pairing,
    cusp_density,
    grafted_ratio,
    graft_band_sup,
    metric_from_pairings,
    pairing_self_consistency,
    scaling_fit,
    substitution_check,
)

N = DifferentialModel.NORMAL
T = DifferentialModel.TANGENTIAL
TD = DifferentialModel.TANGENTIAL_DEFORMED
R = DifferentialModel.REGULAR


# closed-form pairing oracles (radial antiderivatives, outer radius 1)


def pairing_nn(t):
    return 2.0 * math.pi / 3.0 * t * t * (-math.log(t)) ** 3


def pairing_nt(t):
    return 2.0 * math.pi * t * (2.0 - t * (math.log(t) ** 2 - 2.0 * math.log(t) + 2.0))


def pairing_nr(t):
    prim = lambda r: r * r / 2.0 * (math.log(r) ** 2 - math.log(r) + 0.5)
    return 2.0 * math.pi * t * (prim(1.0) - prim(t))  # = 2 pi t * integral r log^2 r


def test_annulus_density_core_circle():
    t = 1e-4
    z = complex(1e-2, 0.0)
    want = (math.pi**2 / 4.0) / (1e-2 * math.log(1e-2)) ** 2
    assert annulus_density(z, t) == pytest.approx(want, rel=1e-13)


def test_annulus_density_outer_edge_limit():
    t = 1e-4
    for r in (0.999, 0.9999, 0.99999):
        z = complex(r, 0.0)
        ratio = annulus_density(z, t) / cusp_density(z)
        assert ratio == pytest.approx(1.0, abs=1e-6)


def test_annulus_density_inversion_symmetry():
    # the metric rho |dz|^2 is invariant under z -> t / z
    t = 1e-4
    for r in (0.3, 0.05, 0.011):
        z = complex(r, 0.0)
        w = abs(t) / r
        lhs = annulus_density(z, t)
        rhs = annulus_density(complex(w, 0.0), t) * (abs(t) / r**2) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-11)


def test_annulus_density_domain():
    with pytest.raises(ValueError):
        annulus_density(complex(1e-5, 0.0), 1e-4)


def test_grafted_ratio_band():
    t = 1e-6
    assert grafted_ratio(complex(1.0, 0.0), t) == 1.0
    r = grafted_ratio(complex(0.5, 0.0), t)
    theta = math.pi * math.log(0.5) / math.log(t)
    assert abs(r - 1.0) <= theta**2  # O(Theta^2) with constant about 1/3
    with pytest.raises(ValueError):
        grafted_ratio(complex(0.2, 0.0), t)


def test_graft_constant_stability():
    consts = []
    for t in (1e-4, 1e-6, 1e-8, 1e-10):
        _, c = graft_band_sup(t)
        consts.append(c)
    assert max(consts) <= 2.0 * min(consts)  # stable within a factor of two


def test_pairing_closed_forms():
    for t in (1e-3, 1e-5, 1e-7):
        assert cometric_pairing(N, N, t) == pytest.approx(pairing_nn(t), rel=1e-9)
        assert cometric_pairing(N, T, t) == pytest.approx(pairing_nt(t), rel=1e-9)
        assert cometric_pairing(N, R, t) == pytest.approx(pairing_nr(t), rel=1e-9)
        # 1/|z|^2 against rho0 is the normal x regular integrand over |t|
        assert cometric_pairing(T, T, t) == pytest.approx(pairing_nr(t) / t, rel=1e-9)
    # frozen sample values
    assert cometric_pairing(N, N, 1e-3) == pytest.approx(6.9033e-4, rel=1e-3)
    assert cometric_pairing(N, T, 1e-3) == pytest.approx(1.2167e-2, rel=1e-3)


def _log_polar_pairing(i, j, spec, n_r):
    """The log-polar grid for every pair: composite Simpson in u = log r
    times the trapezoid rule over ``spec.n_phi`` angles."""
    t = spec.t
    u0, u1 = math.log(abs(t)), math.log(spec.c)
    if n_r % 2 == 1:
        n_r += 1
    phi = 2.0 * math.pi * np.arange(spec.n_phi) / spec.n_phi
    edges = asymptotics_mod._radial_panels(u0, u1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        u = np.linspace(a, b, n_r + 1)
        z = np.exp(u[:, None] + 1j * phi[None, :])
        vals = i.envelope(z, t) * j.envelope(z, t)
        integrand = vals.mean(axis=1) * np.exp(4.0 * u) * u * u
        hstep = (b - a) / n_r
        simpson = integrand[0] + integrand[-1] + 4.0 * integrand[1:-1:2].sum() \
            + 2.0 * integrand[2:-1:2].sum()
        total += float(simpson * hstep / 3.0)
    return 2.0 * math.pi * total


def test_pairing_matches_log_polar_grid(monkeypatch):
    # radial pairs average no angle: they match the 2-D grid to rounding;
    # tangential_deformed pairs still run on that grid, bit for bit
    ts = (1e-3, 1e-3 * cmath.exp(0.7j), 1e-8)
    models = (N, T, TD, R)
    fast = {(t, i, j): cometric_pairing(i, j, t) for t in ts for i in models for j in models}
    monkeypatch.setattr(asymptotics_mod, "_pairing_on_grid", _log_polar_pairing)
    for (t, i, j), value in fast.items():
        want = cometric_pairing(i, j, t)
        if TD in (i, j):
            assert value == want
        else:
            assert abs(value - want) <= 1e-14 * abs(want)


def test_pairing_regular_nearly_constant():
    v1 = cometric_pairing(R, R, 1e-3)
    v2 = cometric_pairing(R, R, 1e-6)
    assert v1 == pytest.approx(v2, rel=1e-4)
    assert v1 == pytest.approx(math.pi / 16.0, rel=1e-6)


def test_pairing_retries_evaluate_each_grid_once(monkeypatch):
    # a coarse start settles only after three doublings; each retry's
    # coarse sum is the previous fine one, so every grid is summed once,
    # and the result is the one the four grids give
    grids = []
    on_grid = asymptotics_mod._pairing_on_grid

    def spy(i, j, spec, n_r):
        grids.append(n_r)
        return on_grid(i, j, spec, n_r)

    monkeypatch.setattr(asymptotics_mod, "_pairing_on_grid", spy)
    value = cometric_pairing(R, R, 1e-2, AnnulusSpec(t=1e-2, n_r=16, n_phi=16))
    assert grids == [16, 32, 64, 128]
    assert value == pytest.approx(0.19634916959274373, rel=1e-14)
    assert value == pytest.approx(math.pi / 16.0, rel=1e-5)


def test_pairing_hermitian_and_positive():
    for t in (1e-3, 1e-3 * cmath.exp(0.7j)):
        for i in (N, T, TD, R):
            assert cometric_pairing(i, i, t) > 0.0
            for j in (N, T, TD, R):
                a = cometric_pairing(i, j, t)
                b = cometric_pairing(j, i, t)
                assert abs(a - np.conj(b)) <= 1e-12 * max(abs(a), 1.0)


def test_pairing_monotone_in_t():
    ts = np.geomspace(math.exp(-3.5), 1e-8, 9)
    vals = [cometric_pairing(N, N, float(t)) for t in ts]
    assert all(b < a for a, b in zip(vals[:-1], vals[1:]))


def test_quadrature_doubling():
    for t in (1e-2, 1e-5, 1e-8):
        spec = AnnulusSpec(t=t)
        assert pairing_self_consistency(N, N, spec) <= 1e-6
        assert pairing_self_consistency(N, R, spec) <= 1e-6
        assert pairing_self_consistency(TD, T, spec) <= 1e-6


def test_annulus_spec_validation():
    with pytest.raises(ValueError):
        AnnulusSpec(t=0.0)
    with pytest.raises(ValueError):
        AnnulusSpec(t=0.5, c=0.4)
    with pytest.raises(ValueError):
        AnnulusSpec(t=1e-3, n_r=8)


def test_scaling_fit_pure_power():
    ts = np.geomspace(1e-2, 1e-8, 9)
    rep = scaling_fit(ts, [float(t) for t in ts])
    assert rep.alpha == pytest.approx(1.0, abs=1e-10)
    assert rep.beta == pytest.approx(0.0, abs=1e-8)


def test_scaling_fit_validation():
    with pytest.raises(ValueError):
        scaling_fit([1e-2, 1e-3], [1.0, 2.0])
    ts = np.geomspace(1e-2, 1e-4, 8)
    with pytest.raises(ValueError):
        scaling_fit(ts, [float(t) for t in ts])  # only 2 decades


def test_scaling_fit_recovers_model():
    ts = list(np.geomspace(1e-2, 1e-8, 13))
    rep = scaling_fit(ts, [pairing_nn(t) for t in ts])
    assert rep.alpha == pytest.approx(2.0, abs=1e-10)
    assert rep.beta == pytest.approx(3.0, abs=1e-8)
    assert rep.amplitude == pytest.approx(2.0 * math.pi / 3.0, rel=1e-10)


def test_metric_from_pairings_scalings():
    ts = list(np.geomspace(1e-6, 1e-14, 9))
    table = metric_from_pairings(ts)
    # inverse pairing matrix: G_nn ~ (1/P_nn)(1 + O(1/log^3))
    for t, p_nn, g_nn in zip(table.t_grid, table.P_nn, table.G_nn):
        corr = abs(g_nn * p_nn - 1.0)
        assert corr <= 60.0 / (-math.log(t)) ** 3
    rep = scaling_fit(ts, table.G_nn)
    assert rep.alpha == pytest.approx(-2.0, abs=0.03)
    assert rep.beta == pytest.approx(-3.0, abs=0.3)


def test_substitution_exact_model_input():
    # symbolic case: G = |t|^-2 s^-3 pulls back to exactly 4 dxi^2 + xi^6 dtheta^2
    ts = [math.exp(-s) for s in (9.0, 16.0, 25.0)]
    G = [t ** (-2.0) * (-math.log(t)) ** (-3.0) for t in ts]
    rep = substitution_check(ts, G_values=G, C=1.0)
    for r in rep.ratio_xixi:
        assert r == pytest.approx(1.0, abs=1e-9)
    for r in rep.ratio_thth:
        assert r == pytest.approx(1.0, abs=1e-12)
    assert rep.xi[2] == pytest.approx(0.2, abs=1e-12)


def test_substitution_example_value():
    rep = substitution_check([1e-3], G_values=[1.0], C=1.0)
    assert rep.xi[0] == pytest.approx(math.log(1000.0) ** -0.5, abs=1e-12)


def test_substitution_quadrature_chain():
    ts = [math.exp(-s) for s in (25.0, 36.0, 52.0, 64.0)]
    rep = substitution_check(ts)
    assert all(abs(r - 1.0) <= 0.01 for r in rep.ratio_xixi)
    assert all(abs(r - 1.0) <= 0.01 for r in rep.ratio_thth)
    # the cofactor correction decays like xi^6
    assert rep.rate_xixi == pytest.approx(6.0, abs=0.5)


def test_substitution_exact_jacobian():
    # ds/dxi = -2 xi^-3 in closed form: the model input pulls back to 4C
    # to rounding, where a difference quotient left about 1e-10
    s_values = (25.0, 30.0, 36.0, 43.0, 52.0, 64.0)
    ts = [math.exp(-s) for s in s_values]
    G = [t ** (-2.0) * s ** (-3.0) for t, s in zip(ts, s_values)]
    rep = substitution_check(ts, G_values=G, C=1.0)
    assert max(abs(r - 1.0) for r in rep.ratio_xixi) <= 1e-13
