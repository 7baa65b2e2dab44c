"""Isometries of model spaces and their translation-length geometry.

Per-factor actions (angle translations and reflections on horn-type
blocks, real Moebius maps on hyperbolic planes, rigid motions on
Euclidean blocks) combine with a permutation of mutually isomorphic
factors.  Each factor action preserves its factor's metric by
construction, so an :class:`Isometry` is checked by one exact rule on the
b3 cross term alone (see there), not by sampling.  On top of the group
structure this module provides the displacement functional, a certified
translation-length search, the four-cell classifier, equivariant axes
through the midpoint flow, and the divergence / properness probes.

Classification is by the sign of the translation length estimate and
whether the infimum is attained: an interior certified minimizer gives
the semisimple column, an escaping minimizing sequence the other.  Rays
find escapes by one rule: the displacement never rises while the distance
on the factors a ray drives closes up (every horn for a collapse ray, the
owner of its coordinate for a ray to infinity).  A search that can do
neither reports inconclusive rather than guessing a cell; every result
records the phase that decided and the evaluations each phase spent.

The search minimizes one objective per isometry on the search chart:
each chart point goes to its validated blocks (``search_blocks``) and
their images (:meth:`Isometry.apply_blocks`), the helpers behind
``point_from_search`` and :meth:`Isometry.apply`, and
``connect.distance`` measures the pair, with no ``make_point`` round
trip.  The displacement is convex on a CAT(0) space (Bridson-Haefliger
II.6.2), so every local minimum is global and one descent from the base
point (:func:`_descent`) finds the candidate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .errors import BasinError, FlowBudgetError
from .geometry import (
    BoundaryPoint,
    CompletionPoint,
    HornPoint,
    PathBundle,
    SpaceSpec,
    distance,
    factor_distances,
    make_point,
    metric_tensor,
    points_equal,
)
from .geometry.spaces import (
    XI_ATTAIN,
    Block,
    _wire_int,
    _wire_parser,
    point_from_search,
    search_blocks,
    search_vector,
)
from .paths import DiscretePath, refine_flow

#: Translation lengths below this count as zero for classification.
L_TOL = 1e-6


# ---------------------------------------------------------------------------
# factor actions


@dataclass(frozen=True)
class HornAction:
    """theta -> a + theta, or a - theta when reflecting; xi is preserved."""

    a: float = 0.0
    reflect: bool = False

    dim = 2

    @classmethod
    def identity(cls, dim: int) -> "HornAction":
        return cls()

    def apply_block(self, block):
        theta = -block.theta if self.reflect else block.theta
        return (self.a + theta, block.xi)

    def compose(self, other: "HornAction") -> "HornAction":
        s = -1.0 if self.reflect else 1.0
        return HornAction(a=self.a + s * other.a, reflect=self.reflect ^ other.reflect)

    def inverse(self) -> "HornAction":
        s = -1.0 if self.reflect else 1.0
        return HornAction(a=-s * self.a, reflect=self.reflect)


@dataclass(frozen=True)
class MobiusAction:
    """Real 2x2 matrix of determinant one acting on the upper half plane."""

    m: tuple[tuple[float, float], tuple[float, float]]

    dim = 2

    def __init__(self, m):
        m = np.asarray(m, dtype=float)
        if m.shape != (2, 2) or not np.all(np.isfinite(m)):
            raise ValueError("Moebius action needs a finite 2x2 matrix")
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if not 0 < det < math.inf:
            raise ValueError("Moebius matrix needs a finite positive determinant")
        m = m / math.sqrt(det)
        object.__setattr__(self, "m", ((m[0, 0], m[0, 1]), (m[1, 0], m[1, 1])))

    @classmethod
    def identity(cls, dim: int) -> "MobiusAction":
        return cls(((1.0, 0.0), (0.0, 1.0)))

    @property
    def trace(self) -> float:
        return self.m[0][0] + self.m[1][1]

    def _w(self, z: complex) -> complex:
        (a, b), (c, d) = self.m
        return (a * z + b) / (c * z + d)

    def apply_block(self, block):
        z = complex(block[0], block[1])
        w = self._w(z)
        return (w.real, w.imag)

    def compose(self, other: "MobiusAction") -> "MobiusAction":
        return MobiusAction(np.array(self.m) @ np.array(other.m))

    def inverse(self) -> "MobiusAction":
        (a, b), (c, d) = self.m
        return MobiusAction(((d, -b), (-c, a)))


@dataclass(frozen=True)
class EuclideanAction:
    """x -> Q x + t with orthogonal Q."""

    Q: tuple
    t: tuple

    def __init__(self, Q, t):
        Q = np.asarray(Q, dtype=float)
        t = np.asarray(t, dtype=float)
        if Q.shape[0] != Q.shape[1] or Q.shape[0] != t.shape[0]:
            raise ValueError("shape mismatch in Euclidean action")
        if not np.allclose(Q.T @ Q, np.eye(len(t)), atol=1e-12):
            raise ValueError("Q must be orthogonal")
        object.__setattr__(self, "Q", tuple(map(tuple, Q)))
        object.__setattr__(self, "t", tuple(t))

    @property
    def dim(self) -> int:
        return len(self.t)

    @classmethod
    def identity(cls, dim: int) -> "EuclideanAction":
        return cls(np.eye(dim), np.zeros(dim))

    def apply_block(self, block):
        Q = np.array(self.Q)
        return tuple(Q @ np.asarray(block) + np.asarray(self.t))

    def compose(self, other: "EuclideanAction") -> "EuclideanAction":
        Q1, t1 = np.array(self.Q), np.array(self.t)
        Q2, t2 = np.array(other.Q), np.array(other.t)
        return EuclideanAction(Q1 @ Q2, Q1 @ t2 + t1)

    def inverse(self) -> "EuclideanAction":
        Q, t = np.array(self.Q), np.array(self.t)
        return EuclideanAction(Q.T, -Q.T @ t)


#: factor wire kind -> the type of its factor actions
_ACTION_TYPES = {"horn": HornAction, "perturbed_horn": HornAction,
                 "hyperbolic": MobiusAction, "euclidean": EuclideanAction}


def _action_matches(factor, action) -> bool:
    return isinstance(action, _ACTION_TYPES[factor.kind]) and action.dim == factor.dim


@dataclass(frozen=True)
class Isometry:
    """Product isometry: per-factor action followed by a slot permutation.

    ``permutation[i]`` is the target slot of source factor ``i``; permuted
    slots must carry equal factor specifications.  Every factor action
    preserves its own factor's metric, so the one metric term left to
    check is the ``b3 xi^3 dxi dx_e`` cross term of a b3-coupled chart:
    there the first Euclidean factor (``space.euclid_index``) must stay in
    its slot, and its ``Q`` must have first row and first column exactly
    e1, or the constructor raises ValueError.
    """

    space: SpaceSpec
    actions: tuple
    permutation: tuple[int, ...] = None

    def __init__(self, space, actions, permutation=None):
        actions = tuple(actions)
        if permutation is None:
            permutation = tuple(range(len(space.factors)))
        permutation = tuple(int(i) for i in permutation)
        if len(actions) != len(space.factors):
            raise ValueError("one action per factor required")
        if sorted(permutation) != list(range(len(space.factors))):
            raise ValueError("invalid permutation")
        for i, tgt in enumerate(permutation):
            if space.factors[i] != space.factors[tgt]:
                raise ValueError("permutation mixes non-isomorphic factors")
            if not _action_matches(space.factors[i], actions[i]):
                raise ValueError(f"action {i} does not match its factor")
        if space.coupled:
            e = space.euclid_index
            Q = np.array(actions[e].Q)
            e1 = np.eye(len(Q))[0]
            if permutation[e] != e or not (np.array_equal(Q[0], e1)
                                           and np.array_equal(Q[:, 0], e1)):
                raise ValueError("factor action does not preserve the metric: the b3 "
                                 "cross term needs the first Euclidean coordinate fixed")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "permutation", permutation)

    @functools.cached_property
    def _slots(self) -> tuple:
        """Per source factor: its action's ``apply_block``, the target
        slot's ``block`` validator and the target slot."""
        factors = self.space.factors
        return tuple((act.apply_block, factors[tgt].block, tgt)
                     for act, tgt in zip(self.actions, self.permutation))

    def apply_blocks(self, blocks) -> tuple[Block, ...]:
        """Canonical blocks of ``gamma p`` from the canonical blocks of ``p``:
        each factor action, then the target slot's validation and snap."""
        out = [None] * len(blocks)
        for blk, (apply_block, block, tgt) in zip(blocks, self._slots, strict=True):
            out[tgt] = block(None if isinstance(blk, BoundaryPoint) else apply_block(blk))
        return tuple(out)

    def apply(self, point: CompletionPoint) -> CompletionPoint:
        return CompletionPoint(self.apply_blocks(point.blocks))

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other."""
        if self.space != other.space:
            raise ValueError("isometries live on different spaces")
        perm = tuple(self.permutation[other.permutation[i]]
                     for i in range(len(self.permutation)))
        actions = tuple(
            self.actions[other.permutation[i]].compose(other.actions[i])
            for i in range(len(self.actions))
        )
        return Isometry(self.space, actions, perm)

    def inverse(self) -> "Isometry":
        inv_perm = [0] * len(self.permutation)
        for i, tgt in enumerate(self.permutation):
            inv_perm[tgt] = i
        actions = tuple(
            self.actions[inv_perm[j]].inverse() for j in range(len(self.actions))
        )
        return Isometry(self.space, actions, tuple(inv_perm))

    def power(self, k: int) -> "Isometry":
        if k == 0:
            return identity(self.space)
        base = self if k > 0 else self.inverse()
        out = base
        for _ in range(abs(k) - 1):
            out = out.compose(base)
        return out


def identity(space: SpaceSpec) -> Isometry:
    actions = tuple(_ACTION_TYPES[f.kind].identity(f.dim) for f in space.factors)
    return Isometry(space, actions)


# ---------------------------------------------------------------------------
# JSON wire format


def isometry_to_json(iso: Isometry) -> dict:
    acts = []
    for a in iso.actions:
        if isinstance(a, HornAction):
            kind = "horn_reflect" if a.reflect else "horn_translate"
            acts.append({"kind": kind, "a": a.a})
        elif isinstance(a, MobiusAction):
            acts.append({"kind": "mobius", "m": [list(r) for r in a.m]})
        else:
            acts.append({"kind": "euclid", "Q": [list(r) for r in a.Q], "t": list(a.t)})
    return {"factor_actions": acts, "permutation": list(iso.permutation)}


@_wire_parser
def isometry_from_json(space: SpaceSpec, doc) -> Isometry:
    import json as _json

    if isinstance(doc, str):
        doc = _json.loads(doc)
    actions = []
    for entry in doc["factor_actions"]:
        kind = entry["kind"]
        if kind == "horn_translate":
            actions.append(HornAction(a=float(entry.get("a", 0.0))))
        elif kind == "horn_reflect":
            actions.append(HornAction(a=float(entry.get("a", 0.0)), reflect=True))
        elif kind == "mobius":
            actions.append(MobiusAction(entry["m"]))
        elif kind == "euclid":
            actions.append(EuclideanAction(entry["Q"], entry["t"]))
        else:
            raise ValueError(f"unknown action kind {kind!r}")
    perm = doc.get("permutation")
    if perm:
        perm = tuple(_wire_int(i, "permutation entry") for i in perm)
    return Isometry(space, tuple(actions), perm or None)


# ---------------------------------------------------------------------------
# displacement and the translation-length search


def displacement(iso: Isometry, point: CompletionPoint) -> float:
    """d(p, gamma p)."""
    return distance(iso.space, point, iso.apply(point))


def random_point(space: SpaceSpec, rng: np.random.Generator) -> CompletionPoint:
    """Random interior point: flat and angle coordinates uniform on [-2, 2],
    levels log-uniform over the factor's ``draw`` range."""
    blocks = []
    for f in space.factors:
        if f.profile is None:
            blocks.append(tuple(rng.uniform(-2.0, 2.0, f.dim)))
        else:
            blocks.append((rng.uniform(-2.0, 2.0), math.exp(rng.uniform(*f.draw))))
    return make_point(space, blocks)


def base_point(space: SpaceSpec) -> CompletionPoint:
    """The origin of the search chart: flat and angle coordinates 0, levels 1."""
    return point_from_search(space, np.zeros(space.dim))


# sizes and tolerances of the translation-length search
DESCENT_GTOL = 1e-9  # the descent stops at this sup norm of the gradient of log F
PROBE_RADIUS = 1e-4  # certificate probe radius (the probes repeat at a tenth)
IMPROVE_TOL = 1e-8   # least displacement drop that counts as an improvement
RAY_HALVINGS = 44    # collapse-ray steps, each lowering every horn log-level by 2
GROWTH_STEPS = 24    # infinity-ray steps, step k moving a coordinate by 2^(k/2)


@dataclass(frozen=True)
class SearchBudget:
    """Seed of the fixed-point search's random starts and of the
    certificate probe's random directions.

    ``seed`` is the only field: every caller runs the search with the same
    sizes and tolerances, so those are the module constants above.
    """

    seed: int = 0


@dataclass
class EscapeWitness:
    """Minimizing sequence summary for a non-attained infimum."""

    points: list[CompletionPoint]
    displacements: list[float]
    collapsing_horns: tuple[int, ...]
    unbounded: bool

    def describe(self) -> str:
        if self.collapsing_horns:
            return f"xi -> 0 escape on horn factors {list(self.collapsing_horns)}"
        return "coordinates -> infinity escape"


#: phases of the search that evaluate the objective, in order
PHASES = ("descent", "collapse", "infinity", "certificate")
#: what can decide a search: an exact fixed point, a collapse ray, a
#: candidate at a search clamp, a ray to infinity, or the certificate
#: probe (which decides "inconclusive" when it finds an improvement)
DECIDERS = ("fixed-point", "collapse-ray", "clamp", "infinity-ray", "certificate")


@dataclass
class TranslationLengthResult:
    """``evaluations`` is the objective's evaluation count, the sum of
    ``phase_evaluations`` (keyed by :data:`PHASES`); ``decided_by`` is one
    of :data:`DECIDERS`.
    """

    L_estimate: float
    attained: bool
    witness: CompletionPoint | EscapeWitness | None
    status: str  # "ok" or "inconclusive"
    evaluations: int = 0
    decided_by: str = ""
    phase_evaluations: dict = field(default_factory=dict)


class _Objective:
    """The displacement ``u -> d(p, gamma p)`` on the search chart, for
    one isometry, counting its evaluations by search phase.

    ``p`` is :func:`search_blocks` of ``u`` and ``gamma p``
    :meth:`Isometry.apply_blocks` of those blocks: what
    ``displacement(iso, point_from_search(space, u))`` computes, read on
    Python floats.  ``connect.distance`` evaluates the pair, and its
    DistanceIntervalError propagates.
    """

    def __init__(self, iso: Isometry):
        self.iso = iso
        self.space = iso.space
        self.phase = PHASES[0]
        self.evals = dict.fromkeys(PHASES, 0)

    def pair(self, u: np.ndarray) -> tuple[CompletionPoint, CompletionPoint]:
        """``(p, gamma p)`` at search-chart coordinates ``u``."""
        blocks = search_blocks(self.space, u.tolist())
        return CompletionPoint(blocks), CompletionPoint(self.iso.apply_blocks(blocks))

    def __call__(self, u: np.ndarray) -> float:
        self.evals[self.phase] += 1
        return distance(self.space, *self.pair(u))

    def part(self, u: np.ndarray, ids) -> float:
        """Largest distance over the factors ``ids`` of the pair at ``u``, not
        an evaluation; on one b3-coupled horn, over the factors of the split
        chart (``connect.factor_distances``); the whole displacement on two
        or more."""
        p, q = self.pair(u)
        parts = factor_distances(self.space, p, q)
        return distance(self.space, p, q) if parts is None else max(parts[i] for i in ids)


def _is_interior_candidate(space: SpaceSpec, u: np.ndarray) -> bool:
    """True when every block of the point passes its factor's
    ``search_inside``; the search chart has no boundary blocks."""
    p = point_from_search(space, u)
    return all(f.search_inside(blk) for f, blk in zip(space.factors, p.blocks))


def _fixed_point_search(iso: Isometry, rng: np.random.Generator):
    """Gauss-Newton on the transformed-chart displacement residual.

    Finds exact interior fixed points (the periodic cell) when they
    exist; returns (displacement, point) or None.
    """
    space = iso.space
    d = space.dim

    def residual(u):
        p = point_from_search(space, u)
        q = iso.apply(p)
        if q.stratum():
            return None
        return search_vector(space, q) - u

    starts = [np.zeros(d)]
    for _ in range(4):
        starts.append(rng.uniform(-2.0, 2.0, d))
    for u0 in starts:
        u = u0.copy()
        for _ in range(25):
            r = residual(u)
            if r is None:
                break
            if float(np.max(np.abs(r))) < 1e-11:
                if _is_interior_candidate(space, u):
                    p = point_from_search(space, u)
                    f = displacement(iso, p)
                    if f < 1e-12:
                        return f, p
                break
            delta = 1e-7
            J = np.empty((d, d))
            ok = True
            for k in range(d):
                uu = u.copy()
                uu[k] += delta
                rk = residual(uu)
                if rk is None:
                    ok = False
                    break
                J[:, k] = (rk - r) / delta
            if not ok:
                break
            step, *_ = np.linalg.lstsq(J, -r, rcond=None)
            if float(np.max(np.abs(step))) < 1e-14:
                break
            u = u + step
    return None


def _descent(F, u0: np.ndarray) -> tuple[np.ndarray, float]:
    """BFGS from ``u0`` on ``log F`` (central-difference gradients), to a
    gradient sup norm of ``DESCENT_GTOL``: ``(point, value)`` of the least
    value ``F`` took.

    ``log`` is increasing, so ``log F`` has the minimizers of the convex
    ``F``, but it is scale free: along an escape ``F`` shrinks
    geometrically (like ``xi^3`` on a collapsing horn), so its differences
    vanish while those of ``log F`` stay of order one, and the descent
    runs on to the search clamps.  A zero value reads as the least
    positive float.
    """
    best = [math.inf, u0]

    def log_f(u):
        v = F(u)
        if v < best[0]:
            best[:] = v, u.copy()
        return math.log(max(v, math.ulp(0.0)))

    minimize(log_f, u0, method="BFGS", jac="3-point", options={"gtol": DESCENT_GTOL})
    return best[1], best[0]


def _ray(F, space: SpaceSpec, u: np.ndarray, slots, steps, val: float, ref: float, ids):
    """Escape hit of the ray from ``u`` whose step k adds ``steps[k]`` to
    ``u[slots]``: ``(points of the last four steps, every step's
    displacement)``, or None.  A hit needs ``F`` never to rise by more than
    ``1e-12 (1 + |ref|)`` over the previous value (``val`` first), and the
    largest distance over the factors ``ids`` the ray drives to fall from a
    positive start to at most 1e-3 of it: the total alone can sit flat.
    """
    start = F.part(u, ids)
    if start <= 0.0:
        return None
    tol_up = 1e-12 * (1.0 + abs(ref))
    us, vals = [], []
    for dx in steps:
        u = u.copy()
        u[slots] += dx
        v = F(u)
        if v > val + tol_up:
            return None
        val = v
        us.append(u)
        vals.append(v)
    if F.part(u, ids) > 1e-3 * start:
        return None
    return [point_from_search(space, w) for w in us[-4:]], vals


def _escape_witness(hits, horns) -> EscapeWitness | None:
    """Last four entries of the first lowest-ending ``(points, displacements)``
    hit (misses are None), or None; no ``horns`` means an escape to infinity."""
    hits = [h for h in hits if h is not None]
    if not hits:
        return None
    pts, vals = min(hits, key=lambda h: h[1][-1])
    return EscapeWitness(points=pts[-4:], displacements=vals[-4:],
                         collapsing_horns=tuple(horns), unbounded=not horns)


def _certificate_probe(F, u: np.ndarray, val: float, rng: np.random.Generator):
    """First trust-region probe around ``u`` that beats ``val`` by more
    than ``IMPROVE_TOL``, or None: both signs of every chart coordinate,
    then 8 random directions, at ``PROBE_RADIUS`` and then a tenth of it."""
    d = len(u)
    for r in (PROBE_RADIUS, PROBE_RADIUS / 10.0):
        for slot in range(d):
            for sgn in (1.0, -1.0):
                w = u.copy()
                w[slot] += sgn * r
                if F(w) < val - IMPROVE_TOL:
                    return w
        for _ in range(8):
            w = u + rng.standard_normal(d) * r
            if F(w) < val - IMPROVE_TOL:
                return w
    return None


def translation_length(iso: Isometry, budget: SearchBudget = SearchBudget()
                       ) -> TranslationLengthResult:
    """Infimum of the displacement over interior points.

    A Gauss-Newton fixed-point search settles the periodic cell exactly.
    Otherwise one descent from :func:`base_point` (:func:`_descent`; the
    displacement is convex, so a local minimum is global) produces the
    candidate; a collapse ray (every horn level down, watching the largest
    horn-factor distance) and rays to infinity (one chart coordinate out,
    watching the factor that owns it) look for escaping minimizing
    sequences by one rule, :func:`_ray`, and a trust-region no-improvement
    certificate backs any attainment claim; an improving certificate probe
    runs the descent again from the better point.  Every phase evaluates
    one objective, :class:`_Objective`, made once for the isometry.
    Returns status "inconclusive" when neither a certificate nor escape
    evidence materializes in budget.  The result records the phase that
    decided and the evaluations each phase spent.
    """
    F = _Objective(iso)
    L, witness, decided_by = _search(iso, F, np.random.default_rng(budget.seed))
    return TranslationLengthResult(
        L_estimate=L, attained=isinstance(witness, CompletionPoint), witness=witness,
        status="ok" if witness is not None else "inconclusive",
        evaluations=sum(F.evals.values()), decided_by=decided_by,
        phase_evaluations=dict(F.evals),
    )


def _search(iso: Isometry, F: _Objective, rng: np.random.Generator):
    """The phases of :func:`translation_length` in order until one decides:
    ``(L estimate, witness, decider)``, the witness a minimizer when
    attained, an :class:`EscapeWitness` when escaping and None when
    inconclusive, the decider one of :data:`DECIDERS`.  ``F.phase`` names
    the phase that spends each evaluation."""
    space = iso.space
    fixed = _fixed_point_search(iso, rng)
    if fixed is not None:
        return (*fixed, "fixed-point")

    d = space.dim
    F.phase = "descent"
    u_min, val = _descent(F, np.zeros(d))
    horn_log_slots = list(space.xi_offsets)  # the opt chart keeps the chart layout

    # a collapse ray, then rays to infinity, each judged by _ray's one rule
    bound = val + 1e-12 * (1.0 + abs(val))  # an escape must end at or below this
    F.phase = "collapse"
    if horn_log_slots:
        u = search_vector(space, point_from_search(space, u_min))  # canonical through clamps
        hit = _ray(F, space, u, horn_log_slots, [-2.0] * RAY_HALVINGS, F(u), val,
                   space.horn_indices)
        escape = _escape_witness([hit], space.horn_indices)
        if escape is not None and escape.displacements[-1] <= bound:
            return min(val, escape.displacements[-1]), escape, "collapse-ray"

    if not _is_interior_candidate(space, u_min):
        # the descent ended at a search clamp
        point = point_from_search(space, u_min)
        at_floor = any(isinstance(b, HornPoint) and b.xi < XI_ATTAIN for b in point.blocks)
        return val, _escape_witness([([point], [val])],
                                    space.horn_indices if at_floor else ()), "clamp"

    # rays to infinity: every direction except driving a horn level down,
    # which the collapse ray owns; each watches the factor owning its slot
    F.phase = "infinity"
    owner = [i for i, f in enumerate(space.factors) for _ in range(f.dim)]
    hits = []
    for slot in range(d):
        for sgn in (1.0,) if slot in horn_log_slots else (1.0, -1.0):
            steps = [sgn * 2.0 ** (k / 2.0) for k in range(1, GROWTH_STEPS + 1)]
            hits.append(_ray(F, space, u_min, slot, steps, val, val, (owner[slot],)))
    escape = _escape_witness(hits, ())
    if escape is not None and escape.displacements[-1] <= bound:
        return min(val, escape.displacements[-1]), escape, "infinity-ray"

    F.phase = "certificate"
    improved = _certificate_probe(F, u_min, val, rng)
    if improved is not None:
        _, better = _descent(F, improved)
        if better < val - IMPROVE_TOL:
            return better, None, "certificate"
    return val, point_from_search(space, u_min), "certificate"


# ---------------------------------------------------------------------------
# classification


PERIODIC = "periodic-analog"
STRICTLY_PSEUDOPERIODIC = "strictly-pseudoperiodic-analog"
PSEUDO_ANOSOV = "pseudoAnosov-analog"
REDUCIBLE = "reducible-not-pseudoperiodic-analog"
INCONCLUSIVE = "inconclusive"

CLASS_LABELS = (PERIODIC, STRICTLY_PSEUDOPERIODIC, PSEUDO_ANOSOV, REDUCIBLE)


@dataclass
class ClassificationResult:
    """``evidence`` is the search's decision record: the phase that decided
    (``decided_by``) and the objective evaluations per phase."""

    label: str
    L_estimate: float
    attained: bool
    witness: CompletionPoint | EscapeWitness | None
    status: str
    evidence: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        if isinstance(self.witness, EscapeWitness):
            witness = {"kind": "escape", "note": self.witness.describe(),
                       "displacements": self.witness.displacements}
        elif isinstance(self.witness, CompletionPoint):
            from .geometry import point_to_json

            witness = {"kind": "minimizer", "point": point_to_json(self.witness)}
        else:
            witness = None
        return {
            "class": self.label,
            "L_estimate": self.L_estimate,
            "attained": self.attained,
            "status": self.status,
            "witness": witness,
            "evidence": self.evidence,
        }


def classify(iso: Isometry, budget: SearchBudget = SearchBudget()) -> ClassificationResult:
    """Place an isometry in one of the four translation-length cells."""
    res = translation_length(iso, budget)
    evidence = {"decided_by": res.decided_by, "evaluations": res.phase_evaluations}
    if res.status != "ok":
        return ClassificationResult(INCONCLUSIVE, res.L_estimate, res.attained,
                                    res.witness, "inconclusive", evidence)
    zero = res.L_estimate < L_TOL
    if zero and res.attained:
        label = PERIODIC
    elif zero:
        label = STRICTLY_PSEUDOPERIODIC
    elif res.attained:
        label = PSEUDO_ANOSOV
    else:
        label = REDUCIBLE
    return ClassificationResult(label, res.L_estimate, res.attained, res.witness, "ok",
                                evidence)


# ---------------------------------------------------------------------------
# axes


@dataclass
class Axis:
    """Converged equivariant discrete geodesic with its shift isometry."""

    path: DiscretePath
    shift: Isometry
    period_length: float
    _powers: dict = field(default_factory=dict, repr=False)
    _cum: np.ndarray | None = field(default=None, repr=False)
    _pairs: list | None = field(default=None, repr=False)
    _along: dict = field(default_factory=dict, repr=False)

    def _shift_power(self, k: int) -> Isometry:
        if k not in self._powers:
            self._powers[k] = self.shift.power(k)
        return self._powers[k]

    def _segments(self):
        if self._cum is None:
            space = self.path.space
            self._pairs = self.path.segment_endpoints()
            lens = [distance(space, a, b) for a, b in self._pairs]
            self._cum = np.concatenate([[0.0], np.cumsum(lens)])
        return self._cum, self._pairs

    def _segment_along(self, i: int):
        """Fraction -> point on segment i, solved once (constant if degenerate)."""
        if i not in self._along:
            a, b = self._pairs[i]
            self._along[i] = ((lambda w: a) if points_equal(a, b)
                              else PathBundle(self.path.space, a, b).point_at)
        return self._along[i]

    def point_at(self, t: float) -> CompletionPoint:
        """Point at arclength t along the axis (t in R, wraps by the shift)."""
        cum, _ = self._segments()
        total = cum[-1]
        k = math.floor(t / total)
        r = t - k * total
        i = int(np.searchsorted(cum, r))
        i = min(max(i, 1), len(cum) - 1)
        seg_len = cum[i] - cum[i - 1]
        w = 0.0 if seg_len == 0 else (r - cum[i - 1]) / seg_len
        base = self._segment_along(i - 1)(w)
        if k == 0:
            return base
        return self._shift_power(k).apply(base)


def axis(iso: Isometry, seed_path: DiscretePath, tol: float = 1e-10,
         *, max_iter: int = 200_000) -> Axis:
    """Flow an equivariant seed to the axis of a positive-translation
    isometry.

    The flow is ``refine_flow``'s Anderson-accelerated one, the only flow
    ``axis`` runs, at the seed's node count; ``tol`` bounds a sweep's node
    displacement relative to the mean segment length.  A converged chain
    is the axis: each node is the midpoint of its neighbours, and its
    period is the translation length.  Raises BasinError when the flow
    escapes toward a stratum (seed too far out for the contraction to
    hold), FlowBudgetError when it spends ``max_iter`` sweeps without
    converging or escaping, and ValueError when it converges to a period
    below ``L_TOL``, the classifier's zero: the chain has collapsed onto a
    fixed point, which is no axis.
    """
    flowed, report = refine_flow(seed_path, tol=tol, max_iter=max_iter)
    if report.escaped:
        raise BasinError("flow escaped toward a stratum: seed outside the basin")
    if not report.converged:
        raise FlowBudgetError(
            f"flow neither converged nor escaped in {report.iterations} sweeps", report)
    if report.final_length < L_TOL:
        raise ValueError(f"flow converged to a fixed point (period {report.final_length:.3g}"
                         f" < {L_TOL:g}): the isometry has no axis")
    return Axis(path=flowed, shift=iso, period_length=report.final_length)


# ---------------------------------------------------------------------------
# displacement growth off an axis


@dataclass
class GrowthReport:
    D_grid: list[float]
    values: list[float]
    eps: float
    t0: float
    convex_ok: bool
    increasing_ok: bool


def _perpendicular_direction(space: SpaceSpec, p: CompletionPoint, tangent: np.ndarray
                             ) -> np.ndarray:
    """Unit vector metric-orthogonal to the tangent at p."""
    g = metric_tensor(space, p)
    t_norm = math.sqrt(tangent @ g @ tangent)
    t_unit = tangent / t_norm
    best, best_res = None, -1.0
    for k in range(space.dim):
        e = np.zeros(space.dim)
        e[k] = 1.0
        w = e - (e @ g @ t_unit) * t_unit
        res = math.sqrt(max(w @ g @ w, 0.0))
        if res > best_res:
            best, best_res = w, res
    return best / best_res


def displacement_growth(iso: Isometry, ax: Axis, D_grid) -> GrowthReport:
    """Displacement at points a prescribed distance off the axis.

    Sampled along the perpendicular geodesic through an axis node;
    reports the least-squares slope eps and the shift t0 making
    ``f(D) >= eps (D - t0)`` hold on the whole grid.
    """
    from .geometry import (
        geodesic_connect,
        geodesic_shoot,
        tangent_chart_vector,
        tangent_from_chart,
    )

    space = iso.space
    p0 = ax.path.nodes[0]
    seg = geodesic_connect(space, p0, ax.path.nodes[1])
    tangent = tangent_chart_vector(space, seg.velocity)
    perp = _perpendicular_direction(space, p0, tangent)
    values = []
    for D in D_grid:
        if D == 0:
            values.append(displacement(iso, p0))
            continue
        off = geodesic_shoot(space, p0, tangent_from_chart(space, perp), float(D))
        values.append(displacement(iso, off.end))
    D_arr = np.asarray(list(D_grid), dtype=float)
    v_arr = np.asarray(values)
    A = np.vstack([D_arr, np.ones_like(D_arr)]).T
    (eps, intercept), *_ = np.linalg.lstsq(A, v_arr, rcond=None)
    t0 = float(np.max(D_arr - v_arr / eps)) if eps > 0 else math.inf
    # convexity via divided differences (the grid need not be uniform)
    slopes = np.diff(v_arr) / np.diff(D_arr)
    convex_ok = bool(np.all(np.diff(slopes) >= -1e-6)) if len(slopes) > 1 else True
    increasing_ok = bool(np.all(np.diff(v_arr) > 0))
    return GrowthReport(
        D_grid=list(map(float, D_grid)),
        values=list(map(float, values)),
        eps=float(eps),
        t0=t0,
        convex_ok=convex_ok,
        increasing_ok=increasing_ok,
    )


# ---------------------------------------------------------------------------
# axis divergence


@dataclass
class DivergenceReport:
    R_grid: list[float]
    m_values: list[float]
    strictly_increasing_from: float | None
    center_distance: float
    #: gap evaluations of the centre search (nested line searches) and of the m(R) line searches
    evaluations: dict = field(default_factory=dict)

    def csv_table(self) -> tuple[list[str], list[tuple]]:
        """Header and rows of the divergence CSV, one row per R."""
        return ["R", "m"], list(zip(self.R_grid, self.m_values))


def divergence_profile(axis1: Axis, axis2: Axis, R_grid,
                       *, grid_points: int | None = None) -> DivergenceReport:
    """m(R) = min of d(A1(t), A2(s)) over |t| + |s| = R.

    In a CAT(0) space the gap (t, s) -> d(A1(t), A2(s)) is jointly convex
    (Bridson-Haefliger II.2.2).  Both parameterizations are recentered at
    the mutual closest approach, found by two nested Brent searches on the
    whole line for the squared gap (smooth where the axes cross): over s
    for each t, then over t of that least value, which is convex too.  On
    each sign quadrant of the diamond the gap is convex in one variable,
    so m(R) is the least of the four corners and of one bounded line
    search per quadrant.  The properness proxy is m(R) strictly increasing
    beyond some R0.  ``grid_points`` is accepted and ignored.
    """
    if not all(math.isfinite(R) and R >= 0 for R in R_grid):
        raise ValueError(f"R_grid needs finite R >= 0, got {list(R_grid)}")
    space = axis1.path.space
    n_gaps = [0]

    def gap(t, s):
        n_gaps[0] += 1
        return distance(space, axis1.point_at(t), axis2.point_at(s))

    def convex_min(f, step):  # (x, f(x)); scipy takes the least of a flat bracket
        r = minimize_scalar(f, bracket=(0.0, step), method="brent", options={"xtol": 1e-10})
        return float(r.x), float(r.fun)

    nearest = {}  # t -> (s of A2 nearest A1(t), squared gap there)

    def closest_sq(t):
        nearest[t] = convex_min(lambda s: gap(t, s) ** 2, axis2.period_length)
        return nearest[t][1]

    t_c, _ = convex_min(closest_sq, axis1.period_length)
    s_c, center_sq = nearest[t_c]
    center_evals = n_gaps[0]

    m_values = []
    for R in R_grid:
        vals = [gap(t_c + R, s_c), gap(t_c - R, s_c), gap(t_c, s_c + R), gap(t_c, s_c - R)]
        # one line search per sign quadrant; at R = 0 the corners are the whole diamond
        for sgn_t, sgn_s in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)) if R > 0 else ():
            r = minimize_scalar(
                lambda a: gap(t_c + sgn_t * (R - a), s_c + sgn_s * a),
                bounds=(0.0, R), method="bounded", options={"xatol": 1e-9},
            )
            vals.append(float(r.fun))
        m_values.append(min(vals))
    inc_from = None
    for i in range(len(m_values) - 1):
        if all(b > a for a, b in zip(m_values[i:-1], m_values[i + 1:])):
            inc_from = float(list(R_grid)[i])
            break
    return DivergenceReport(
        R_grid=list(map(float, R_grid)),
        m_values=m_values,
        strictly_increasing_from=inc_from,
        center_distance=math.sqrt(center_sq),
        evaluations={"centre_search": center_evals,
                     "line_searches": n_gaps[0] - center_evals},
    )


# ---------------------------------------------------------------------------
# properness of a generating set


@dataclass
class SublevelEstimate:
    M: float
    admissible_found: bool
    radius: float
    unbounded_evidence: bool
    samples: int


@dataclass
class PropernessReport:
    entries: list[SublevelEstimate]

    def csv_table(self) -> tuple[list[str], list[tuple]]:
        """Header and rows of ``properness.csv``, one row per level M."""
        return (["M", "radius", "unbounded", "samples"],
                [(e.M, e.radius, int(e.unbounded_evidence), e.samples) for e in self.entries])


#: A sublevel reaching this far from the base point counts as unbounded.
ESCAPE_RADIUS = 64.0


def properness_probe(generators: list[Isometry], M_grid, sample_budget: int = 3000,
                     *, seed: int = 0) -> PropernessReport:
    """Estimate sup d(p0, p) over the sublevel {max_i d(p, g_i p) <= M}.

    Randomized box sampling (boundary-biased via the log chart) plus hill
    climbing away from the base point p0 (:func:`base_point`); a sublevel
    reaching past ``ESCAPE_RADIUS`` counts as unbounded evidence.  Each
    level M takes at most ``sample_budget`` samples.
    """
    if not generators:
        raise ValueError("at least one generator required")
    if sample_budget < 1:
        raise ValueError(f"sample_budget must be >= 1, got {sample_budget}")
    if not all(math.isfinite(M) for M in M_grid):
        raise ValueError(f"M_grid needs finite levels, got {list(M_grid)}")
    space = generators[0].space
    for g in generators[1:]:
        if g.space != space:
            raise ValueError("generators live on different spaces")
    p0 = base_point(space)
    rng = np.random.default_rng(seed)
    d = space.dim

    def delta(point: CompletionPoint) -> float:
        return max(displacement(g, point) for g in generators)

    entries = []
    for M in M_grid:
        used = 0
        radius = 0.0
        found = False
        unbounded = False
        frontier: list[np.ndarray] = []
        levels = list(range(9))
        per_level = max(sample_budget // (2 * len(levels)), 1)
        for j in levels:
            for _ in range(min(per_level, sample_budget - used)):
                u = rng.uniform(-(2.0**j), 2.0**j, d)
                used += 1
                p = point_from_search(space, u)
                if delta(p) <= M:
                    found = True
                    r = distance(space, p0, p)
                    radius = max(radius, r)
                    frontier.append(u)
                    if r > ESCAPE_RADIUS:
                        unbounded = True
                        break
            if unbounded:
                break
        # hill climb from the farthest admissible points
        if found and not unbounded:
            frontier.sort(key=lambda u: -distance(space, p0, point_from_search(space, u)))
            for u in frontier[:4]:
                cur = u.copy()
                cur_r = distance(space, p0, point_from_search(space, cur))
                step = 0.5
                stalls = 0
                while used < sample_budget and stalls < 24 and not unbounded:
                    cand = cur + rng.standard_normal(d) * step
                    used += 1
                    p = point_from_search(space, cand)
                    if delta(p) <= M:
                        r = distance(space, p0, p)
                        if r > cur_r:
                            cur, cur_r = cand, r
                            step = min(step * 1.6, 16.0)
                            stalls = 0
                            radius = max(radius, r)
                            if r > ESCAPE_RADIUS:
                                unbounded = True
                            continue
                    step = max(step * 0.6, 1e-3)
                    stalls += 1
        entries.append(SublevelEstimate(
            M=float(M), admissible_found=found, radius=float(radius),
            unbounded_evidence=bool(unbounded), samples=used,
        ))
    return PropernessReport(entries=entries)
