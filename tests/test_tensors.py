import numpy as np
import pytest
import sympy

from hornlab.errors import CurvatureUndefinedError, MetricSingularError
from hornlab.geometry import (
    Euclidean,
    Horn,
    HyperbolicPlane,
    PerturbedHorn,
    SpaceSpec,
    christoffel,
    curvature,
    make_point,
    metric_tensor,
)

HORN = SpaceSpec((Horn(),))


def symbolic_christoffel(g_exprs, coords):
    """Independent oracle: Levi-Civita coefficients by symbolic differentiation."""
    g = sympy.Matrix(g_exprs)
    ginv = g.inv()
    n = len(coords)
    gamma = [[[0] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                expr = 0
                for l in range(n):
                    expr += ginv[k, l] * (
                        sympy.diff(g[j, l], coords[i])
                        + sympy.diff(g[i, l], coords[j])
                        - sympy.diff(g[i, j], coords[l])
                    )
                gamma[k][i][j] = sympy.simplify(expr / 2)
    return gamma


def test_metric_examples():
    p = make_point(HORN, [(0.0, 1.0)])
    assert np.allclose(metric_tensor(HORN, p), np.diag([1.0, 4.0]))
    p2 = make_point(HORN, [(2.0, 0.5)])
    assert np.allclose(metric_tensor(HORN, p2), np.diag([0.015625, 4.0]))
    eu = SpaceSpec((Euclidean(2),))
    assert np.allclose(metric_tensor(eu, make_point(eu, [(7.0, -1.0)])), np.eye(2))
    hyp = SpaceSpec((HyperbolicPlane(),))
    g = metric_tensor(hyp, make_point(hyp, [(0.3, 2.0)]))
    assert np.allclose(g, np.diag([0.25, 0.25]))


def test_metric_block_structure_and_coupling():
    space = SpaceSpec((PerturbedHorn(B=2.0, a4=0.3, b3=0.25, c6=0.1), Euclidean(2)))
    xi = 0.6
    p = make_point(space, [(0.1, xi), (1.0, 2.0)])
    g = metric_tensor(space, p)
    assert g.shape == (4, 4)
    assert np.allclose(g, g.T)
    assert g[0, 0] == pytest.approx(2.0 * xi**6 * (1 + 0.1 * xi**6))
    assert g[1, 1] == pytest.approx(8.0 * (1 + 0.3 * xi**4))
    # the b3 amplitude couples d xi to the first Euclidean coordinate only
    assert g[1, 2] == pytest.approx(0.25 * xi**3)
    assert g[1, 3] == 0.0 and g[0, 2] == 0.0
    assert np.all(np.linalg.eigvalsh(g) > 0)


def test_metric_singular_at_stratum():
    p = make_point(HORN, [None])
    with pytest.raises(MetricSingularError):
        metric_tensor(HORN, p)
    with pytest.raises(MetricSingularError):
        christoffel(HORN, p)


def test_horn_christoffel_against_symbolic_oracle():
    th, xi = sympy.symbols("theta xi", positive=True)
    gamma = symbolic_christoffel([[xi**6, 0], [0, 4]], (th, xi))
    # spec examples first
    assert float(gamma[0][0][1].subs(xi, 0.5)) == pytest.approx(6.0)
    assert float(gamma[1][0][0].subs(xi, 1.0)) == pytest.approx(-0.75)
    for xiv in (0.3, 0.9, 1.7):
        got = christoffel(HORN, make_point(HORN, [(0.2, xiv)]))
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    want = float(gamma[k][i][j].subs(xi, xiv))
                    assert got[k, i, j] == pytest.approx(want, abs=1e-12)


def test_hyperbolic_christoffel_against_symbolic_oracle():
    x, y = sympy.symbols("x y", positive=True)
    gamma = symbolic_christoffel([[1 / y**2, 0], [0, 1 / y**2]], (x, y))
    hyp = SpaceSpec((HyperbolicPlane(),))
    got = christoffel(hyp, make_point(hyp, [(0.4, 1.7)]))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                want = float(gamma[k][i][j].subs(y, 1.7))
                assert got[k, i, j] == pytest.approx(want, abs=1e-12)


def test_euclidean_christoffel_zero():
    eu = SpaceSpec((Euclidean(3),))
    got = christoffel(eu, make_point(eu, [(1.0, 2.0, 3.0)]))
    assert np.allclose(got, 0.0)


def test_perturbed_christoffel_finite_differences_vs_symbolic():
    B, a4, c6 = 1.5, 0.2, 0.1
    space = SpaceSpec((PerturbedHorn(B=B, a4=a4, c6=c6),))
    th, xi = sympy.symbols("theta xi", positive=True)
    f = B * xi**6 * (1 + c6 * xi**6)
    h = 4 * B * (1 + a4 * xi**4)
    gamma = symbolic_christoffel([[f, 0], [0, h]], (th, xi))
    xiv = 0.7
    got = christoffel(space, make_point(space, [(0.0, xiv)]))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                want = float(gamma[k][i][j].subs(xi, xiv))
                assert got[k, i, j] == pytest.approx(want, abs=1e-8)


def test_curvature_examples():
    # K = -f''/f for ds^2 = du^2 + f(u)^2 dtheta^2 with u = 2 xi, f = u^3/8
    u = sympy.symbols("u", positive=True)
    warp = u**3 / 8
    K = sympy.simplify(-sympy.diff(warp, u, 2) / warp)
    assert float(K.subs(u, 2.0)) == pytest.approx(-1.5)
    assert float(K.subs(u, 0.2)) == pytest.approx(-150.0)
    assert curvature(HORN, make_point(HORN, [(0.0, 1.0)]), 0) == pytest.approx(-1.5)
    assert curvature(HORN, make_point(HORN, [(0.7, 0.1)]), 0) == pytest.approx(-150.0)
    hyp = SpaceSpec((HyperbolicPlane(),))
    assert curvature(hyp, make_point(hyp, [(5.0, 0.3)]), 0) == -1.0
    eu2 = SpaceSpec((Euclidean(2),))
    assert curvature(eu2, make_point(eu2, [(0.0, 0.0)]), 0) == 0.0


def test_curvature_undefined_for_non_surface_factor():
    eu3 = SpaceSpec((Euclidean(3),))
    with pytest.raises(CurvatureUndefinedError):
        curvature(eu3, make_point(eu3, [(0.0, 0.0, 0.0)]), 0)


def test_curvature_sign_on_random_interior_points():
    rng = np.random.default_rng(7)
    space = SpaceSpec((Horn(), HyperbolicPlane()))
    for _ in range(50):
        p = make_point(space, [
            (rng.uniform(-2, 2), rng.uniform(0.05, 3.0)),
            (rng.uniform(-2, 2), rng.uniform(0.1, 5.0)),
        ])
        ks = curvature(space, p)
        assert all(k < 0 for k in ks)


def test_perturbed_curvature_matches_symbolic():
    B, a4, c6 = 2.0, 0.15, 0.05
    space = SpaceSpec((PerturbedHorn(B=B, a4=a4, c6=c6),))
    xi = sympy.symbols("xi", positive=True)
    f = B * xi**6 * (1 + c6 * xi**6)
    h = 4 * B * (1 + a4 * xi**4)
    # K = -(1 / (2 sqrt(f h))) d/dxi (f' / sqrt(f h))
    K = sympy.simplify(
        -sympy.diff(sympy.diff(f, xi) / sympy.sqrt(f * h), xi) / (2 * sympy.sqrt(f * h))
    )
    for xiv in (0.4, 0.9):
        got = curvature(space, make_point(space, [(0.0, xiv)]), 0)
        assert got == pytest.approx(float(K.subs(xi, xiv)), rel=1e-10)


def test_coupled_christoffel_against_symbolic_oracle():
    B, a4, b3, c6 = 1.5, 0.2, 0.3, 0.1
    space = SpaceSpec((PerturbedHorn(B=B, a4=a4, b3=b3, c6=c6), Euclidean(1)))
    th, xi, x = sympy.symbols("theta xi x", positive=True)
    f = B * xi**6 * (1 + c6 * xi**6)
    h = 4 * B * (1 + a4 * xi**4)
    gamma = symbolic_christoffel([[f, 0, 0], [0, h, b3 * xi**3], [0, b3 * xi**3, 1]],
                                 (th, xi, x))
    for xiv in (0.4, 0.9):
        got = christoffel(space, make_point(space, [(0.3, xiv), (-0.2,)]))
        for k in range(3):
            for i in range(3):
                for j in range(3):
                    want = float(gamma[k][i][j].subs(xi, xiv))
                    assert got[k, i, j] == pytest.approx(want, abs=1e-12)
