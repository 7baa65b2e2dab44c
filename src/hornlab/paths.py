"""Discrete paths: length and energy functionals, midpoint heat flow.

A path is a list of N+1 completion points on the uniform grid x_i = i/N.
An optional shift isometry gamma makes it equivariant: node N is glued to
gamma applied to node 0, and the flow wraps through that gluing.

The flow itself is Jacobi midpoint smoothing: every updatable node is
replaced by the geodesic midpoint of its two neighbors, all reads coming
from the previous iterate.  Fixed points are discrete geodesics, energy
never increases, and sweeps are order-independent so node updates can be
evaluated in any order or in parallel.  This plain flow is the reference
(``relax``); ``refine_flow``, and so ``actions.axis``, runs the same sweep
loop once, with an energy-safeguarded Anderson extrapolation of the sweep
map, at the seed's node count: a converged equivariant chain is already
the axis, so no refinement follows.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from .geometry import (
    XI_SNAP,
    CompletionPoint,
    HornPoint,
    SpaceSpec,
    distance,
    make_point,
    midpoint,
    point_along,
    points_equal,
)
from .geometry.spaces import _definite, _wire_parser, point_from_search, search_vector

COMPETITOR_TOL = 1e-7     # slack the midpoint competitor inequality may lose
ANDERSON_DEPTH = 6        # refine_flow: sweeps the extrapolation looks back on


@dataclass(frozen=True)
class DiscretePath:
    """N+1 nodes on the uniform unit grid, optionally gamma-periodic."""

    space: SpaceSpec
    nodes: tuple[CompletionPoint, ...]
    periodic_shift: object | None = None  # Isometry, avoids a module cycle

    def __post_init__(self):
        if len(self.nodes) < 3:
            raise ValueError("a discrete path needs at least N = 2 segments")
        if self.periodic_shift is not None:
            glued = self.periodic_shift.apply(self.nodes[0])
            if distance(self.space, self.nodes[-1], glued) > 1e-9:
                raise ValueError("equivariant gluing violated: d(node_N, g node_0) > 1e-9")

    @property
    def n_segments(self) -> int:
        return len(self.nodes) - 1

    def segment_endpoints(self) -> list[tuple[CompletionPoint, CompletionPoint]]:
        """The N consecutive node pairs, wrapping through gamma if set."""
        pairs = list(zip(self.nodes[:-2], self.nodes[1:-1]))
        if self.periodic_shift is not None:
            pairs.append((self.nodes[-2], self.periodic_shift.apply(self.nodes[0])))
        else:
            pairs.append((self.nodes[-2], self.nodes[-1]))
        return pairs


@dataclass
class FlowReport:
    iterations: int
    final_length: float
    final_energy: float
    energy_series: list[float]
    converged: bool
    escaped: bool
    max_displacement: float
    accelerated: int  # sweeps that took the extrapolated iterate
    fallbacks: int    # extrapolations refused by the energy safeguard

    def to_json(self) -> dict:
        return asdict(self)


def _segments(space: SpaceSpec, pairs) -> tuple[list[float], float]:
    """Distances of the segments ``pairs``, one solve each, and the energy."""
    seg = [distance(space, a, b) for a, b in pairs]
    return seg, len(seg) * sum(d ** 2 for d in seg)


def _level_resolution(space: SpaceSpec, nodes) -> float:
    """Longest metric move of one ulp in a horn level over the nodes: a
    sweep cannot show a node moving by less; 0 without horn blocks."""
    levels = [(space.factors[i].profile, pt.blocks[i].xi) for i in space.horn_indices
              for pt in nodes if isinstance(pt.blocks[i], HornPoint)]
    return max((math.sqrt(prof.h(xi)) * math.ulp(xi) for prof, xi in levels), default=0.0)


def path_length(path: DiscretePath) -> float:
    """Sum of segment distances over one period."""
    return sum(_segments(path.space, path.segment_endpoints())[0])


def path_energy(path: DiscretePath) -> float:
    """Riemann sum N * sum d(node_i, node_{i+1})^2 of the squared speed."""
    return _segments(path.space, path.segment_endpoints())[1]


def _sweep(space: SpaceSpec, gamma, nodes: list) -> list:
    """One Jacobi midpoint sweep, damped on equivariant paths."""
    n = len(nodes) - 1
    if gamma is None:
        return [nodes[0], *(midpoint(space, nodes[i - 1], nodes[i + 1]) for i in range(1, n)),
                nodes[n]]
    ginv = gamma.inverse()
    new_nodes = []
    for i in range(n):
        left = nodes[i - 1] if i > 0 else ginv.apply(nodes[n - 1])
        new_nodes.append(midpoint(space, nodes[i], midpoint(space, left, nodes[i + 1])))
    new_nodes.append(gamma.apply(new_nodes[0]))
    return new_nodes


class _Anderson:
    """Anderson mixing of the sweep map G in the search chart (type II;
    Walker and Ni, SIAM J. Numer. Anal. 49, 2011).  With the differences
    dG, dF of G(x) and f = G(x) - x over the last ``ANDERSON_DEPTH``
    sweeps, the candidate is G(x) - dG c, c minimizing |f - dF c|.
    Levels enter through log, so an extrapolated level stays positive."""

    def __init__(self, space: SpaceSpec, gamma, n: int):
        self.space, self.gamma = space, gamma
        self.upd = slice(0, n) if gamma is not None else slice(1, n)
        self.hist: deque = deque(maxlen=ANDERSON_DEPTH + 1)  # (G(x), f) per sweep

    def candidate(self, nodes: list, swept: list) -> list | None:
        """Extrapolated nodes from the sweep ``nodes -> swept``, or None
        while there is no history or a node sits at a stratum."""
        if any(pt.stratum() for pt in (*nodes[self.upd], *swept[self.upd])):
            self.hist.clear()
            return None
        x, g = (np.concatenate([search_vector(self.space, p) for p in pts[self.upd]])
                for pts in (nodes, swept))
        self.hist.append((g, g - x))
        if len(self.hist) < 2:
            return None
        dg, df = (np.diff(np.array(c), axis=0).T for c in zip(*self.hist))
        u = g - dg @ np.linalg.lstsq(df, g - x, rcond=None)[0]
        if not np.isfinite(u).all():
            return None
        dim, out = self.space.dim, list(swept)
        out[self.upd] = [point_from_search(self.space, u[k:k + dim])
                         for k in range(0, len(u), dim)]
        if self.gamma is not None:
            out[-1] = self.gamma.apply(out[0])
        return out


def heat_flow(path: DiscretePath, max_iter: int = 10**6, tol: float = 1e-10,
              on_iterate=None, *, accelerate: bool = False
              ) -> tuple[DiscretePath, FlowReport]:
    """Jacobi midpoint smoothing until a sweep moves no node by more than
    ``tol`` times the mean segment length, or the iteration budget runs out.

    Fixed-endpoint paths update interior nodes only; equivariant paths
    update every node with neighbors read through the gluing.  The
    equivariant sweep is damped: a node moves to the midpoint of itself
    and its neighbors' midpoint, because the undamped update leaves the
    alternating mode of a periodic chain spinning with eigenvalue -1.
    The damping is itself a midpoint call, and the fixed points (discrete
    geodesics) are the same.  The stopping test is relative because
    segments near a horn stratum are about xi^3 long, where an absolute
    test calls a slow escape converged.

    With ``accelerate`` each sweep also proposes an :class:`_Anderson`
    extrapolation, taken only if its energy is at most the plain sweep's;
    the report counts the taken (``accelerated``) and refused
    (``fallbacks``) ones, and the stopping test still reads the plain
    sweep's displacement.

    Escape is flagged when a node the flow moves (fixed endpoints are
    not read) crosses the snap threshold toward a stratum, or when the
    flow fails to converge while the smallest horn coordinate of those
    nodes drifts down: over the second half of the run it ends at
    its lowest, below where that half began (the compactness hypothesis
    of long-time existence has no analogue then).  The run also ends,
    unconverged, once one ulp of a horn level is a longer move than the
    stopping test allows (:func:`_level_resolution`): segments next to a
    stratum shrink like xi^3, the sweeps then stall at rounding level and
    could only stop on a float fixed point.  ``on_iterate`` is called
    with the node list after every sweep.  ``max_iter`` is at least 1,
    and ``tol`` finite and positive.
    """
    if max_iter < 1:
        raise ValueError(f"heat_flow needs max_iter >= 1, got {max_iter}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"heat_flow needs a finite tol > 0, got {tol}")
    space = path.space
    gamma = path.periodic_shift
    nodes = list(path.nodes)
    n = len(nodes) - 1
    seg, energy = _segments(space, path.segment_endpoints())
    energies = [energy]
    anderson = _Anderson(space, gamma, n) if accelerate else None
    accelerated = fallbacks = 0
    escaped = converged = False
    max_disp = math.inf
    min_xi_series: list[float] = []
    boundary_declared = bool(nodes[0].stratum() or nodes[-1].stratum())
    it = 0
    for it in range(1, max_iter + 1):
        swept = _sweep(space, gamma, nodes)
        max_disp = max(distance(space, a, b) for a, b in zip(nodes, swept))
        seg, energy = _segments(space, zip(swept, swept[1:]))  # node N is glued
        cand = None if anderson is None else anderson.candidate(nodes, swept)
        nodes = swept
        if cand is not None:
            cand_seg, cand_energy = _segments(space, zip(cand, cand[1:]))
            if cand_energy <= energy:
                nodes, seg, energy = cand, cand_seg, cand_energy
                accelerated += 1
            else:
                fallbacks += 1
        energies.append(energy)
        if on_iterate is not None:
            on_iterate(nodes)
        updatable = nodes[1:-1] if gamma is None else nodes
        if not boundary_declared and any(pt.stratum() for pt in updatable):
            escaped = True
            break
        mx = min((b.xi for pt in updatable for b in pt.blocks if isinstance(b, HornPoint)),
                 default=None)
        if mx is not None:
            min_xi_series.append(mx)
            if mx <= XI_SNAP * (1.0 + 1e-9) and not boundary_declared:
                escaped = True
                break
        step_tol = tol * sum(seg) / n
        if step_tol < _level_resolution(space, nodes):
            break  # a stall, not convergence; the drift test below reads it
        if max_disp <= step_tol:
            converged = True
            break
    if not converged and not escaped and len(min_xi_series) >= 10:
        tail = min_xi_series[len(min_xi_series) // 2:]
        escaped = min(tail) == tail[-1] < tail[0]
    report = FlowReport(iterations=it, final_length=sum(seg), final_energy=energies[-1],
                        energy_series=energies, converged=converged, escaped=escaped,
                        max_displacement=max_disp, accelerated=accelerated,
                        fallbacks=fallbacks)
    return DiscretePath(space, tuple(nodes), periodic_shift=gamma), report


@dataclass
class CompetitorReport:
    energy_u: float
    energy_w: float
    energy_mid: float
    quadratic_term: float
    slack: float
    holds: bool


def midpoint_competitor_test(u: DiscretePath, w: DiscretePath) -> CompetitorReport:
    """Check the quadrilateral comparison satisfied by pointwise midpoints.

    With m_i = midpoint(u_i, w_i) the NPC inequality reads
    ``2 E(m) <= E(u) + E(w) - (1/2) sum N (d(u_i, w_i) - d(u_{i+1}, w_{i+1}))^2``;
    the report carries the slack (RHS - LHS), held down to -COMPETITOR_TOL.
    """
    if u.space is not w.space and u.space != w.space:
        raise ValueError("paths live in different spaces")
    if u.n_segments != w.n_segments:
        raise ValueError("mismatched grids")
    if (u.periodic_shift is None) != (w.periodic_shift is None):
        raise ValueError("mismatched equivariance")
    space = u.space
    n = u.n_segments
    mid_nodes = tuple(
        midpoint(space, a, b) for a, b in zip(u.nodes, w.nodes)
    )
    m = DiscretePath(space, mid_nodes, periodic_shift=u.periodic_shift)
    eu, ew, em = path_energy(u), path_energy(w), path_energy(m)
    du = [distance(space, a, b) for a, b in zip(u.nodes, w.nodes)]
    quad = 0.5 * n * sum((du[i] - du[i + 1]) ** 2 for i in range(n))
    rhs = eu + ew - quad
    slack = rhs - 2.0 * em
    return CompetitorReport(
        energy_u=eu,
        energy_w=ew,
        energy_mid=em,
        quadratic_term=quad,
        slack=slack,
        holds=slack >= -COMPETITOR_TOL,
    )


def geodesic_nodes(space: SpaceSpec, p: CompletionPoint, q: CompletionPoint,
                   n: int) -> DiscretePath:
    """Discretize the geodesic from p to q on n segments."""
    return DiscretePath(space, _chord(space, p, q, n))


def _chord(space: SpaceSpec, p: CompletionPoint, q: CompletionPoint, n: int) -> tuple:
    return (p, *(point_along(space, p, q, i / n) for i in range(1, n)), q)


def equivariant_seed(space: SpaceSpec, iso, base: CompletionPoint, n: int) -> DiscretePath:
    """Chord seed: the geodesic from a base point to its image, discretized."""
    image = iso.apply(base)
    if points_equal(base, image):
        raise ValueError("base point is fixed by the isometry")
    return DiscretePath(space, _chord(space, base, image, n), periodic_shift=iso)


def refine_flow(path: DiscretePath, *, tol: float = 1e-10, max_iter: int = 10**6
                ) -> tuple[DiscretePath, FlowReport]:
    """The flow ``axis`` runs: one Anderson-accelerated :func:`heat_flow`.

    Its limit may sit elsewhere along the axis than the plain flow's
    (every slide is a fixed point).  No node refinement follows: at a
    fixed point of the damped sweep every node is the midpoint of its
    neighbours, so the chain is a local geodesic, hence (the space being
    CAT(0)) the gamma-invariant geodesic line itself, and its period is
    the translation length at every N.
    """
    return heat_flow(path, max_iter=max_iter, tol=tol, accelerate=True)


# ---------------------------------------------------------------------------
# CSV wire format: x column, then each factor's columns (horn blocks carry a
# boundary indicator, and the undefined coordinates of their boundary rows
# stay empty)


def _csv_header(space: SpaceSpec) -> list[str]:
    return ["x"] + [c for i, f in enumerate(space.factors) for c in f.csv_columns(i)]


def point_cells(space: SpaceSpec, point: CompletionPoint) -> list[str]:
    """The CSV cells of a point, factor by factor."""
    return [c for f, blk in zip(space.factors, point.blocks) for c in f.csv_cells(blk)]


def csv_text(header: list[str], rows) -> str:
    """CSV text of one header row, then one line per row; floats are
    written by ``repr``.  Every CSV artifact is written by this function."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def samples_to_csv(space: SpaceSpec, samples) -> str:
    """CSV text of ``(x, point)`` samples: one header row, then one row each."""
    return csv_text(_csv_header(space),
                    ([repr(float(x))] + point_cells(space, pt) for x, pt in samples))


def path_to_csv(path: DiscretePath) -> str:
    n = path.n_segments
    return samples_to_csv(path.space, [(i / n, pt) for i, pt in enumerate(path.nodes)])


@_wire_parser
def path_from_csv(space: SpaceSpec, text: str, periodic_shift=None) -> DiscretePath:
    header = _csv_header(space)
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise ValueError("CSV header does not match the space layout")
    widths = [len(f.csv_columns(i)) for i, f in enumerate(space.factors)]
    nodes = []
    for row in rows[1:]:
        k = 1
        blocks = []
        for factor, n in zip(space.factors, widths):
            blocks.append(factor.csv_block(row[k:k + n]))
            k += n
        nodes.append(_definite(space, make_point(space, blocks)))
    return DiscretePath(space, tuple(nodes), periodic_shift=periodic_shift)


def flow_report_json(report: FlowReport) -> str:
    return json.dumps(report.to_json(), sort_keys=True)
