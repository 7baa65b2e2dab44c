"""Degenerating-annulus asymptotics verified by quadrature.

The model geometry lives on the annulus |t| <= |z| <= c cut out by the
plumbing equation z w = t.  Its complete hyperbolic density differs from
the cusp density ``rho0 = (|z| log|z|)^-2`` by the factor
``(Theta / sin Theta)^2`` with ``Theta = pi log|z| / log|t|``; a grafted
density blends the two across a collar band.  Quadratic differentials
near the node are represented by envelope models saturating the standard
pole bounds (t/z^2 normal to the stratum, 1/z tangential, 1/z + t/z^3
for the deformed tangential family, 1 regular), and their pairings
against the cusp density integrate in u = log|z| to sharp closed forms.
The normal, tangential and regular envelopes depend on |z| alone, so a
pairing among them is one radial quadrature; only a pairing with the
deformed tangential family averages over angle on a log-polar grid:

    <normal, normal>     = (2 pi / 3) |t|^2 (-log|t|)^3 + ...
    <normal, tangential> = O(|t|)

The scaling harness fits exponents on |t| and -log|t| and drives the
coordinate substitution ``xi = (-log|t|)^(-1/2)`` that turns the inverse
pairing matrix into the horn coefficients (4C, C xi^6).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError

COLLAR = (0.5, 1.0)     # radii of the gluing band of the grafted density
BAND_SAMPLES = 400      # radii sampled across the band by graft_band_sup
PAIRING_REL_TOL = 1e-6  # relative change under grid doubling that settles a pairing


@dataclass(frozen=True)
class AnnulusSpec:
    """Quadrature domain |t| <= |z| <= c with log-radial resolution."""

    t: complex
    c: float = 1.0
    n_r: int = 256
    n_phi: int = 64

    def __post_init__(self):
        if not (0.0 < abs(self.t) < 1.0):
            raise ValueError("need 0 < |t| < 1")
        if not (abs(self.t) < self.c <= 1.0):
            raise ValueError("need |t| < c <= 1")
        if self.n_r < 16 or self.n_phi < 16:
            raise ValueError("need n_r, n_phi >= 16")


class DifferentialModel(enum.Enum):
    """Envelope representatives of quadratic differentials near a node."""

    NORMAL = "normal"                          # t / z^2
    TANGENTIAL = "tangential"                  # 1 / z
    TANGENTIAL_DEFORMED = "tangential_deformed"  # 1/z + t/z^3
    REGULAR = "regular"                        # 1

    def envelope(self, z: np.ndarray, t: complex) -> np.ndarray:
        """|phi(z, t)| on an array of complex points.  Every model but
        ``TANGENTIAL_DEFORMED`` depends on |z| alone and takes radii too."""
        if self is DifferentialModel.NORMAL:
            return abs(t) / np.abs(z) ** 2
        if self is DifferentialModel.TANGENTIAL:
            return 1.0 / np.abs(z)
        if self is DifferentialModel.TANGENTIAL_DEFORMED:
            return np.abs(z * z + t) / np.abs(z) ** 3
        return np.ones_like(np.abs(z))


def _theta_factor_sq(theta: float) -> float:
    """(Theta / sin Theta)^2, series-stabilized near Theta = 0."""
    k = round(theta / math.pi)
    delta = theta - k * math.pi
    if abs(delta) < 1e-8:
        if k == 0:
            # theta/sin(theta) = 1 + theta^2/6 + 7 theta^4/360 + ...
            corr = 1.0 + delta * delta / 6.0
            return corr * corr
        if delta == 0.0:
            return math.inf
        return (theta / (((-1.0) ** k) * delta)) ** 2  # sin ~ (-1)^k delta
    return (theta / math.sin(theta)) ** 2


def annulus_density(z: complex, t: complex) -> float:
    """Hyperbolic density of the plumbing annulus at z.

    ``rho = (|z| log|z|)^-2 (Theta / sin Theta)^2`` with
    ``Theta = pi log|z| / log|t|``; the factor tends to 1 at the outer
    edge where the annulus metric approaches the cusp model.
    """
    r = abs(z)
    at = abs(t)
    if not (at <= r <= 1.0):
        raise ValueError("need |t| <= |z| <= 1")
    theta = math.pi * math.log(r) / math.log(at)
    rho0 = 1.0 / (r * math.log(r)) ** 2
    return rho0 * _theta_factor_sq(theta)


def cusp_density(z: complex) -> float:
    r = abs(z)
    return 1.0 / (r * math.log(r)) ** 2


def _blend(u: float) -> float:
    """C^2 quintic step: 0 at 0, 1 at 1, vanishing first two derivatives."""
    u = min(max(u, 0.0), 1.0)
    return u * u * u * (10.0 - 15.0 * u + 6.0 * u * u)


def grafted_ratio(z: complex, t: complex) -> float:
    """rho0 / rho_graft on the gluing band ``COLLAR``.

    The grafted density interpolates from the annulus density at the
    inner collar radius to the cusp density at the outer edge through a
    C^2 quintic blend; outside the band the ratio is undefined.
    """
    lo, hi = COLLAR
    r = abs(z)
    if not (lo <= r <= hi):
        raise ValueError("point outside the gluing band")
    chi = _blend((r - lo) / (hi - lo))
    # rho_ann / rho0 = (Theta / sin Theta)^2, finite on the whole band,
    # so the ratio stays well defined where both densities blow up
    factor = _theta_factor_sq(math.pi * math.log(r) / math.log(abs(t)))
    return 1.0 / ((1.0 - chi) * factor + chi)


def graft_band_sup(t: complex) -> tuple[float, float]:
    """sup |ratio - 1| over the band and the same sup normalized by
    Theta^2 at the inner collar radius (the band's largest Theta)."""
    lo, hi = COLLAR
    rs = np.linspace(lo, hi, BAND_SAMPLES)
    sup = 0.0
    for r in rs:
        sup = max(sup, abs(grafted_ratio(complex(r, 0.0), t) - 1.0))
    theta_lo = math.pi * math.log(lo) / math.log(abs(t))
    return sup, sup / theta_lo**2


# ---------------------------------------------------------------------------
# pairings by log-polar quadrature


def _radial_panels(u0: float, u1: float) -> list[float]:
    """Panel edges in u = log r, geometric toward the outer edge.

    Densities like e^{2u} u^2 concentrate their mass in the last few
    log-units below u1, so wide annuli get doubling panels instead of one
    uniform grid.
    """
    edges = [u1]
    w = max(1.0, (u1 - u0) / 256.0)
    while u1 - w > u0:
        edges.append(u1 - w)
        w *= 2.0
    edges.append(u0)
    return edges[::-1]


def _pairing_on_grid(i: DifferentialModel, j: DifferentialModel, spec: AnnulusSpec,
                     n_r: int) -> float:
    """Composite Simpson in u = log r of the angle average of
    ``|phi_i| |phi_j| / rho0`` over the annulus.

    Without a ``tangential_deformed`` model the product depends on |z|
    alone and is evaluated once per radius; a ``tangential_deformed``
    pairing averages it by the trapezoid rule over ``spec.n_phi`` angles."""
    t = spec.t
    u0, u1 = math.log(abs(t)), math.log(spec.c)
    if n_r % 2 == 1:
        n_r += 1
    radial = DifferentialModel.TANGENTIAL_DEFORMED not in (i, j)
    phi = 2.0 * math.pi * np.arange(spec.n_phi) / spec.n_phi
    total = 0.0
    for a, b in zip(*(lambda e: (e[:-1], e[1:]))(_radial_panels(u0, u1))):
        u = np.linspace(a, b, n_r + 1)
        if radial:
            r = np.exp(u)
            vals = i.envelope(r, t) * j.envelope(r, t)
        else:
            z = np.exp(u[:, None] + 1j * phi[None, :])
            vals = (i.envelope(z, t) * j.envelope(z, t)).mean(axis=1)
        # 1/rho0 * area element = e^{4u} u^2 du dphi
        integrand = vals * np.exp(4.0 * u) * u * u
        hstep = (b - a) / n_r
        simpson = integrand[0] + integrand[-1] + 4.0 * integrand[1:-1:2].sum() \
            + 2.0 * integrand[2:-1:2].sum()
        total += float(simpson * hstep / 3.0)
    return 2.0 * math.pi * total


def cometric_pairing(i: DifferentialModel, j: DifferentialModel, t: complex,
                     spec: AnnulusSpec | None = None) -> float:
    """Envelope pairing of two differential models over the annulus.

    Richardson-extrapolated Simpson rule; raises QuadratureError when
    grid doubling still moves the value by more than ``PAIRING_REL_TOL``.
    """
    if spec is None:
        spec = AnnulusSpec(t=t)
    elif spec.t != t:
        spec = AnnulusSpec(t=t, c=spec.c, n_r=spec.n_r, n_phi=spec.n_phi)
    n_r = spec.n_r
    fine = _pairing_on_grid(i, j, spec, n_r)
    for _ in range(3):
        coarse, fine = fine, _pairing_on_grid(i, j, spec, 2 * n_r)
        rich = fine + (fine - coarse) / 15.0
        if abs(fine - coarse) <= PAIRING_REL_TOL * max(abs(rich), 1e-300):
            return rich
        n_r *= 2
    raise QuadratureError("pairing quadrature did not settle", coarse=coarse, fine=fine)


def pairing_self_consistency(i: DifferentialModel, j: DifferentialModel,
                             spec: AnnulusSpec) -> float:
    """Relative change of the pairing under one grid doubling."""
    coarse = _pairing_on_grid(i, j, spec, spec.n_r)
    fine = _pairing_on_grid(i, j, spec, 2 * spec.n_r)
    return abs(fine - coarse) / max(abs(fine), 1e-300)


# ---------------------------------------------------------------------------
# scaling fits


@dataclass
class ScalingReport:
    alpha: float        # exponent on |t|
    beta: float         # exponent on -log|t|
    const: float        # additive constant of the log-log fit
    amplitude: float    # exp(const)
    residual_rms: float
    t_grid: list[float]

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "const": self.const,
            "amplitude": self.amplitude,
            "residual_rms": self.residual_rms,
            "t_grid": self.t_grid,
        }


def scaling_fit(t_values, values) -> ScalingReport:
    """Least squares of ``log v = alpha log|t| + beta log(-log|t|) + const``.

    Needs at least 6 samples spanning at least 5 decades of |t|.
    """
    t_arr = np.array([abs(t) for t in t_values], dtype=float)
    v_arr = np.asarray(values, dtype=float)
    if len(t_arr) < 6:
        raise ValueError("need at least 6 samples")
    if t_arr.max() / t_arr.min() < 1e5:
        raise ValueError("samples must span at least 5 decades of |t|")
    if np.any(v_arr <= 0):
        raise ValueError("values must be positive for a log-log fit")
    A = np.vstack([np.log(t_arr), np.log(-np.log(t_arr)), np.ones_like(t_arr)]).T
    if np.linalg.matrix_rank(A) < 3:
        raise ValueError("degenerate design matrix")
    coef, *_ = np.linalg.lstsq(A, np.log(v_arr), rcond=None)
    resid = A @ coef - np.log(v_arr)
    return ScalingReport(
        alpha=float(coef[0]),
        beta=float(coef[1]),
        const=float(coef[2]),
        amplitude=float(math.exp(coef[2])),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        t_grid=[float(x) for x in t_arr],
    )


# ---------------------------------------------------------------------------
# metric coefficients and the horn substitution


@dataclass
class PairingMetricTable:
    t_grid: list[float]
    P_nn: list[float]
    P_nt: list[float]
    P_tt: list[float]
    G_nn: list[float]
    G_nt: list[float]
    G_tt: list[float]


def metric_from_pairings(t_grid, *, n_r: int = 256) -> PairingMetricTable:
    """Invert the 2x2 (normal, tangential) pairing matrix per t.

    Cofactor rule; the diagonal dominance of the pairing matrix as t -> 0
    makes ``G_nn ~ 1 / P_nn`` up to a (-log|t|)^-3 correction.
    """
    rows = {k: [] for k in ("P_nn", "P_nt", "P_tt", "G_nn", "G_nt", "G_tt")}
    for t in t_grid:
        spec = AnnulusSpec(t=t, n_r=n_r)
        p_nn = cometric_pairing(DifferentialModel.NORMAL, DifferentialModel.NORMAL, t, spec)
        p_nt = cometric_pairing(DifferentialModel.NORMAL, DifferentialModel.TANGENTIAL, t, spec)
        p_tt = cometric_pairing(DifferentialModel.TANGENTIAL, DifferentialModel.TANGENTIAL, t, spec)
        det = p_nn * p_tt - p_nt * p_nt
        if det <= 0:
            raise ValueError(f"singular pairing matrix at t={t}")
        rows["P_nn"].append(p_nn)
        rows["P_nt"].append(p_nt)
        rows["P_tt"].append(p_tt)
        rows["G_nn"].append(p_tt / det)
        rows["G_nt"].append(-p_nt / det)
        rows["G_tt"].append(p_nn / det)
    return PairingMetricTable(t_grid=[float(abs(t)) for t in t_grid], **rows)


@dataclass
class SubstitutionReport:
    t_grid: list[float]
    xi: list[float]
    coeff_xixi: list[float]
    coeff_thth_over_xi6: list[float]
    target_xixi: float
    target_thth: float
    ratio_xixi: list[float]
    ratio_thth: list[float]
    rate_xixi: float | None
    rate_thth: float | None

    def csv_table(self) -> tuple[list[str], list[tuple]]:
        """Header and rows of ``expansion.csv``, one row per t."""
        return (["t", "xi", "coeff_xixi", "ratio_xixi", "coeff_thth_over_xi6", "ratio_thth"],
                list(zip(self.t_grid, self.xi, self.coeff_xixi, self.ratio_xixi,
                         self.coeff_thth_over_xi6, self.ratio_thth)))


def substitution_check(t_grid, G_values=None, C: float | None = None,
                       *, n_r: int = 256) -> SubstitutionReport:
    """Pull the radial metric G(t) |dt|^2 back through xi = (-log|t|)^(-1/2).

    With s = -log|t| = xi^-2 the flat factor |dt|^2 = e^{-2s} (ds^2 +
    dtheta^2) and the Jacobian ds/dxi = -2 xi^-3 turn the coefficient into
    ``G e^{-2s} (ds/dxi)^2 dxi^2 + G e^{-2s} dtheta^2``; for the model
    scaling ``G = C |t|^-2 s^-3`` this is exactly ``4C dxi^2 + C xi^6
    dtheta^2``.  Ratios against those targets and their convergence rates
    in xi are reported.
    """
    t_abs = [float(abs(t)) for t in t_grid]
    if G_values is None:
        table = metric_from_pairings(t_grid, n_r=n_r)
        G_values = table.G_nn
    if C is None:
        C = 3.0 / (2.0 * math.pi)  # reciprocal of the (2 pi / 3) pairing amplitude
    xi_list, cxx, ctt, rxx, rtt = [], [], [], [], []
    for t, G in zip(t_abs, G_values):
        s = -math.log(t)
        xi = s ** (-0.5)
        ds_dxi = -2.0 * xi ** (-3.0)
        e2s = t * t  # e^{-2s} exactly
        coeff_xx = G * e2s * ds_dxi * ds_dxi
        coeff_tt = G * e2s
        xi_list.append(xi)
        cxx.append(coeff_xx)
        ctt.append(coeff_tt / xi**6)
        rxx.append(coeff_xx / (4.0 * C))
        rtt.append(coeff_tt / (C * xi**6))

    def rate(ratios):
        xs, ys = [], []
        for xi, rr in zip(xi_list, ratios):
            err = abs(rr - 1.0)
            if err > 1e-13:
                xs.append(math.log(xi))
                ys.append(math.log(err))
        if len(xs) < 2:
            return None
        A = np.vstack([xs, np.ones(len(xs))]).T
        coef, *_ = np.linalg.lstsq(A, np.array(ys), rcond=None)
        return float(coef[0])

    return SubstitutionReport(
        t_grid=t_abs,
        xi=xi_list,
        coeff_xixi=cxx,
        coeff_thth_over_xi6=ctt,
        target_xixi=4.0 * C,
        target_thth=C,
        ratio_xixi=rxx,
        ratio_thth=rtt,
        rate_xixi=rate(rxx),
        rate_thth=rate(rtt),
    )
