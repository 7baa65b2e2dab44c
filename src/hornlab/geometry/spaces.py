"""Model spaces: the factor protocol, completion points, tangent vectors.

A model space is a finite ordered product of factors:

* ``Horn`` -- the half plane ``{(theta, xi): xi > 0}`` with the singular
  metric ``4 dxi^2 + xi^6 dtheta^2``.  Its metric completion adds a single
  point standing for the whole collapsed axis ``xi = 0``.
* ``HyperbolicPlane`` -- upper half plane chart ``(x, y)``, ``y > 0``.
* ``Euclidean`` -- flat ``R^dim``.
* ``PerturbedHorn`` -- horn with coefficients
  ``diag(B xi^6 (1 + c6 xi^6), 4 B (1 + a4 xi^4))`` and an optional
  ``b3 xi^3`` cross term against the first Euclidean coordinate of the
  space.

The factor protocol.  Every factor class answers for its own block what
other modules would otherwise decide by testing the factor's kind.  Two
per-kind choices stay outside this module, each one table keyed by the
factor's ``kind``: ``connect`` picks a factor's exact solver and
``actions`` its action type.

* ``dim``, and ``profile``: the warp coefficients of a 2-D block
  ``f(s) dt^2 + h(s) ds^2`` (a :class:`WarpProfile` for the horn kinds,
  :class:`HyperbolicProfile` for the hyperbolic plane), or ``None`` for a
  flat block.  Each profile is built once per factor.
* ``block(raw)``: validate and canonicalize one raw block (snap, finite
  coordinates, length, ``y > 0``); :func:`make_point` is one loop over it.
* ``kind``, ``to_json()`` and ``from_json(entry)``: the JSON wire format,
  served by one registry of kinds.
* ``csv_columns(i)``, ``csv_cells(block)`` and ``csv_block(cells)``: the
  CSV wire format of ``paths``.
* ``curvature(block)``: the sectional curvature of a 2-D factor.
* ``search_coords(block)`` and ``search_block(coords)``: the search chart
  (of ``actions`` and the accelerated flow), with 2-D levels in log,
  clamped on the way back to keep every power in double range.
* ``draw``: the range of the log level of a 2-D block in random points,
  and ``search_inside(block)``: whether a block of the search chart sits
  inside its clamps by the margin an interior certificate needs.

``SpaceSpec`` adds the facts about the product that several modules use:
the horn and coupled-horn indices, the first Euclidean factor, the
factor profiles of the split chart and the chart offsets of the horn and
hyperbolic level coordinates.

A completion point carries one block per factor.  Every interior block is
a coordinate tuple: a horn-type one is a :class:`HornPoint`, the named
pair ``(theta, xi)``.  The other block of a horn type is the boundary
marker.  The stratum label of a point is the set of horn-type factor
indices whose block sits at the boundary.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import CurvatureUndefinedError

#: Below this xi a horn block is canonicalized to the boundary point: the
#: angular coefficient xi^6 is then < 1e-42 and the completion identifies
#: the whole axis with a single point.  Snapping moves a block by its
#: radial distance to the axis, below ``2 sqrt(B) XI_SNAP``, so by the
#: triangle inequality a computed distance is within ``2 sqrt(B) XI_SNAP``
#: of the unsnapped one for each snapped block of either endpoint (for
#: ``a4 > 0`` the bound carries a factor ``sqrt(1 + a4 XI_SNAP^4)``).
XI_SNAP = 1e-7

#: Interior certificates additionally require all horn levels to sit at
#: least this far from the snap threshold (see ``search_inside``).
XI_ATTAIN = 10.0 * XI_SNAP


# ---------------------------------------------------------------------------
# warp profiles: g = f(s) dt^2 + h(s) ds^2 on 2-D factors


class WarpProfile:
    """Coefficient functions of a rotationally symmetric horn-type block.

    ``b3 > 0`` makes the *reduced* profile of a b3-coupled perturbed horn,
    whose radial coefficient ``h - b3^2 xi^6`` is the horn factor left
    once ``y = x + b3 xi^4 / 4`` splits the coupled Euclidean coordinate
    off the chart (see ``PerturbedHorn.reduced``).  Positive at a level
    xi, that coefficient is positive on all of ``[0, xi]``.
    """

    def __init__(self, B=1.0, a4=0.0, c6=0.0, b3=0.0):
        self.B = float(B)
        self.a4 = float(a4)
        self.c6 = float(c6)
        self.b3 = float(b3)
        #: ``h = 4B``: the radial arclength is linear in xi
        self.flat_h = self.a4 == 0.0 and self.b3 == 0.0
        #: ``f = B xi^6, h = 4B``: the branch integrals have closed forms
        self.pure = self.flat_h and self.c6 == 0.0
        #: least level where ``h <= 0`` (inf when b3 = 0), where the
        #: coupled chart stops being positive definite
        self.edge = math.inf if self.b3 == 0.0 else self._edge()

    def _edge(self) -> float:
        """Bisection to the float resolution: ``h / xi^6`` falls strictly
        in xi, so ``h`` changes sign once.  A level whose ``h`` overflows
        counts as past the edge."""
        lo, hi = 0.0, 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            while self.h(np.float64(hi)) > 0.0:
                lo, hi = hi, 2.0 * hi
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                if self.h(np.float64(mid)) > 0.0:
                    lo = mid
                else:
                    hi = mid
        return hi

    def f(self, xi):
        x6 = xi**6
        if self.c6 == 0.0:
            return self.B * x6
        return self.B * x6 * (1.0 + self.c6 * x6)

    def fp(self, xi):
        if self.c6 == 0.0:
            return self.B * (6.0 * xi**5)
        return self.B * (6.0 * xi**5 + 12.0 * self.c6 * xi**11)

    def fpp(self, xi):
        return self.B * (30.0 * xi**4 + 132.0 * self.c6 * xi**10)

    def h(self, xi):
        if self.flat_h:
            return 4.0 * self.B  # scalar broadcasts over node arrays
        h = 4.0 * self.B if self.a4 == 0.0 else 4.0 * self.B * (1.0 + self.a4 * xi**4)
        return h if self.b3 == 0.0 else h - self.b3**2 * xi**6

    def hp(self, xi):
        """``d h / d xi`` of a chart profile (``b3 = 0``); the metric
        derivatives never read a reduced profile."""
        if self.a4 == 0.0:
            return 0.0
        return 16.0 * self.B * self.a4 * xi**3

    def f_minus(self, xi, xi0, dx=None):
        """``f(xi) - f(xi0)`` factored to survive cancellation at xi ~ xi0.

        ``dx`` is the exactly known difference ``xi - xi0`` when the caller
        has it (quadrature substitution nodes).
        """
        if dx is None:
            dx = xi - xi0
        x2 = xi0 * xi0
        # xi^5 + xi^4 xi0 + ... + xi0^5 in Horner form
        p6 = ((((xi + xi0) * xi + x2) * xi + x2 * xi0) * xi + x2 * x2) * xi + x2 * x2 * xi0
        base = self.B * (dx * p6)
        if self.c6 == 0.0:
            return base
        return base * (1.0 + self.c6 * (xi**6 + xi0**6))

    def curvature(self, xi):
        f, fp, fpp = self.f(xi), self.fp(xi), self.fpp(xi)
        h, hp = self.h(xi), self.hp(xi)
        return -fpp / (2.0 * f * h) + fp * (fp * h + f * hp) / (4.0 * f**2 * h**2)

    def accel(self, s, vt, vs):
        """Geodesic acceleration ``(a_t, a_s)`` at level s, velocity (vt, vs)."""
        f, fp = self.f(s), self.fp(s)
        h, hp = self.h(s), self.hp(s)
        return -(fp / f) * vt * vs, (fp / (2.0 * h)) * vt**2 - (hp / (2.0 * h)) * vs**2


class HyperbolicProfile:
    """``f = h = 1/y^2``: the upper half plane in the chart ``(x, y)``."""

    def f(self, y):
        return 1.0 / y**2

    def fp(self, y):
        return -2.0 / y**3

    h, hp = f, fp

    def accel(self, y, vx, vy):
        """Geodesic acceleration ``(a_x, a_y)``, the warp formula simplified."""
        return 2.0 * vx * vy / y, (vy**2 - vx**2) / y


# ---------------------------------------------------------------------------
# factor specifications


def _wire_int(value, what: str) -> int:
    """An integer field of a wire document; 2.0 passes, 2.7 and inf do not."""
    if isinstance(value, int):
        return value
    x = float(value)
    if not x.is_integer():
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(x)


class _Factor:
    """JSON wire format of the factor classes without parameters, and the
    search chart of the flat ones, which has no clamps."""

    def to_json(self) -> dict:
        return {"kind": self.kind}

    @classmethod
    def from_json(cls, entry):
        return cls()

    def search_coords(self, block) -> tuple:
        return block

    def search_block(self, coords):
        return tuple(coords)

    def search_inside(self, block) -> bool:
        return True


class _HornKind(_Factor):
    """Block protocol of the horn kinds: interior ``(theta, xi)`` pairs,
    snapped to the boundary marker below ``XI_SNAP``."""

    dim = 2
    draw = (-2.5, 0.7)
    #: upper clamp of ``log xi`` in the search chart
    log_cap = 30.0

    def block(self, raw):
        if raw is None or isinstance(raw, BoundaryPoint):
            return BOUNDARY
        theta, xi = raw
        if not (math.isfinite(theta) and math.isfinite(xi)):
            raise ValueError("horn coordinates must be finite")
        if xi < XI_SNAP:
            return BOUNDARY
        return HornPoint(float(theta), float(xi))

    def csv_columns(self, i: int) -> list[str]:
        return [f"f{i}_theta", f"f{i}_xi", f"f{i}_boundary"]

    def csv_cells(self, block) -> list[str]:
        if isinstance(block, BoundaryPoint):
            return ["", "", "1"]
        return [repr(block.theta), repr(block.xi), "0"]

    def csv_block(self, cells):
        theta, xi, boundary = cells
        return None if boundary == "1" else (float(theta), float(xi))

    def curvature(self, block) -> float:
        return self.profile.curvature(block.xi)

    def search_coords(self, block) -> tuple:
        return (block.theta, math.log(block.xi))

    def search_block(self, coords):
        return (coords[0], max(math.exp(min(coords[1], self.log_cap)), XI_SNAP))

    def search_inside(self, block) -> bool:
        """``XI_ATTAIN <= xi < e^(log_cap - 0.5)``: a factor 10 above the
        lower clamp ``XI_SNAP``, half a unit of ``log xi`` below the upper
        one at ``log_cap``."""
        return XI_ATTAIN <= block.xi < math.exp(self.log_cap - 0.5)


class _CoordKind(_Factor):
    """Block protocol of the factors whose blocks are coordinate tuples."""

    def block(self, raw):
        coords = tuple(float(c) for c in raw)
        if len(coords) != self.dim:
            raise ValueError(f"block has {len(coords)} coords, factor dim {self.dim}")
        if not all(math.isfinite(c) for c in coords):
            raise ValueError("coordinates must be finite")
        return coords

    def csv_columns(self, i: int) -> list[str]:
        return [f"f{i}_c{j}" for j in range(self.dim)]

    def csv_cells(self, block) -> list[str]:
        return [repr(c) for c in block]

    def csv_block(self, cells):
        return tuple(float(c) for c in cells)


@dataclass(frozen=True)
class Horn(_HornKind):
    """Half plane with metric ``diag(xi^6, 4)`` in ``(theta, xi)`` order."""

    kind = "horn"
    profile = WarpProfile()


@dataclass(frozen=True)
class HyperbolicPlane(_CoordKind):
    """Upper half plane, chart ``(x, y)`` with metric ``diag(1/y^2, 1/y^2)``."""

    kind = "hyperbolic"
    dim = 2
    draw = (-1.5, 1.5)
    profile = HyperbolicProfile()

    def block(self, raw):
        coords = _CoordKind.block(self, raw)
        if coords[1] <= 0:
            raise ValueError("hyperbolic chart needs y > 0")
        return coords

    def curvature(self, block) -> float:
        return -1.0

    def search_coords(self, block) -> tuple:
        return (block[0], math.log(block[1]))

    def search_block(self, coords):
        return (coords[0], math.exp(min(max(coords[1], -80.0), 80.0)))

    def search_inside(self, block) -> bool:
        """``|log y| < 59``: a margin of 21 units of ``log y`` inside the
        clamps at +-80."""
        return abs(math.log(block[1])) < 59.0


@dataclass(frozen=True)
class Euclidean(_CoordKind):
    dim_: int = 1

    kind = "euclidean"
    profile = None

    def __post_init__(self):
        if self.dim_ < 1:
            raise ValueError("Euclidean factor needs dim >= 1")

    @property
    def dim(self) -> int:
        return self.dim_

    def curvature(self, block) -> float:
        if self.dim != 2:
            raise CurvatureUndefinedError("curvature undefined for this factor")
        return 0.0

    def to_json(self) -> dict:
        return {"kind": self.kind, "dim": self.dim}

    @classmethod
    def from_json(cls, entry):
        return cls(_wire_int(entry["dim"], "Euclidean dim"))


@dataclass(frozen=True)
class PerturbedHorn(_HornKind):
    """Horn with user-configured perturbation amplitudes.

    Block metric ``diag(B xi^6 (1 + c6 xi^6), 4 B (1 + a4 xi^4))``; when
    ``b3 > 0`` the term ``b3 xi^3 dxi dx1`` couples the radial direction
    to the first Euclidean coordinate of the space.  ``profile`` is the
    block metric the chart uses; ``reduced`` is the warp profile with
    radial coefficient ``4 B (1 + a4 xi^4) - b3^2 xi^6`` that the block
    keeps once ``y = x1 + b3 xi^4 / 4`` splits the coupled coordinate off
    (the same object as ``profile`` when ``b3 = 0``).  The search chart
    clamps ``log xi`` 1e-3 below ``log reduced.edge``, where the chart
    metric stops being positive definite, if that is below 30.
    """

    B: float = 1.0
    a4: float = 0.0
    b3: float = 0.0
    c6: float = 0.0

    kind = "perturbed_horn"

    def __post_init__(self):
        if not (self.B > 0 and math.isfinite(self.B)):
            raise ValueError("PerturbedHorn needs B > 0")
        for name in ("a4", "b3", "c6"):
            v = getattr(self, name)
            if v < 0 or not math.isfinite(v):
                raise ValueError(f"PerturbedHorn amplitude {name} must be finite and >= 0")
        profile = WarpProfile(B=self.B, a4=self.a4, c6=self.c6)
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "reduced", WarpProfile(B=self.B, a4=self.a4, c6=self.c6,
                                                        b3=self.b3) if self.b3 else profile)
        object.__setattr__(self, "log_cap", min(self.log_cap, math.log(self.reduced.edge) - 1e-3))

    def to_json(self) -> dict:
        return {"kind": self.kind, "B": self.B, "a4": self.a4, "b3": self.b3, "c6": self.c6}

    @classmethod
    def from_json(cls, entry):
        return cls(
            B=float(entry["B"]),
            a4=float(entry.get("a4", 0.0)),
            b3=float(entry.get("b3", 0.0)),
            c6=float(entry.get("c6", 0.0)),
        )


FactorSpec = Horn | HyperbolicPlane | Euclidean | PerturbedHorn

#: JSON kind -> factor class
_FACTOR_CLASSES = {cls.kind: cls for cls in (Horn, HyperbolicPlane, Euclidean, PerturbedHorn)}


def is_horn_like(factor: FactorSpec) -> bool:
    return isinstance(factor, _HornKind)


@dataclass(frozen=True)
class SpaceSpec:
    """Ordered product of model factors."""

    factors: tuple[FactorSpec, ...]

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("a space needs at least one factor")
        object.__setattr__(self, "factors", factors)
        if self.coupled_ids and self.euclid_index is None:
            raise ValueError("b3 coupling needs a Euclidean factor in the space")

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        """The dataclass hash, computed once: spaces key the metric layout
        cache, which integrators consult at every step."""
        return hash((self.factors,))

    @property
    def dim(self) -> int:
        return sum(f.dim for f in self.factors)

    @functools.cached_property
    def horn_indices(self) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.factors) if is_horn_like(f))

    @functools.cached_property
    def coupled_ids(self) -> tuple[int, ...]:
        """Indices of the horns whose b3 amplitude ties them to a Euclidean block."""
        return tuple(i for i, f in enumerate(self.factors)
                     if isinstance(f, PerturbedHorn) and f.b3 > 0)

    @functools.cached_property
    def split_profiles(self) -> tuple:
        """Each factor's ``profile``, but a b3-coupled horn's ``reduced``
        one: the factors of the chart in ``y = x1 + sum_k b3_k xi_k^4 /
        4``, which is their product when one horn is coupled."""
        return tuple(f.reduced if i in self.coupled_ids else f.profile
                     for i, f in enumerate(self.factors))

    @property
    def coupled(self) -> bool:
        """True when some b3 amplitude ties a horn block to a Euclidean one."""
        return bool(self.coupled_ids)

    @functools.cached_property
    def euclid_index(self) -> int | None:
        """Index of the first Euclidean factor, if any."""
        return next((i for i, f in enumerate(self.factors) if isinstance(f, Euclidean)), None)

    def chart_slices(self) -> list[slice]:
        out, k = [], 0
        for f in self.factors:
            out.append(slice(k, k + f.dim))
            k += f.dim
        return out

    @functools.cached_property
    def factor_slices(self) -> tuple[tuple[FactorSpec, slice], ...]:
        """``(factor, chart slice)`` pairs, built once."""
        return tuple(zip(self.factors, self.chart_slices()))

    def first_euclidean_offset(self) -> int | None:
        """Chart offset of the first Euclidean coordinate, if any."""
        i = self.euclid_index
        return None if i is None else self.chart_slices()[i].start

    @functools.cached_property
    def xi_offsets(self) -> tuple[int, ...]:
        """Chart offsets of the horn xi coordinates."""
        slices = self.chart_slices()
        return tuple(slices[i].start + 1 for i in self.horn_indices)

    @functools.cached_property
    def level_offsets(self) -> tuple[int, ...]:
        """Chart offsets of the level coordinates (horn xi, hyperbolic y),
        which stay positive on the chart."""
        return tuple(sl.start + 1 for f, sl in zip(self.factors, self.chart_slices())
                     if f.profile is not None)


# ---------------------------------------------------------------------------
# points


class HornPoint(NamedTuple):
    """Interior point of a horn-type factor: the coordinate pair
    ``(theta, xi)``, with its coordinates also by name."""

    theta: float
    xi: float


@dataclass(frozen=True)
class BoundaryPoint:
    """The single completion point of a collapsed horn axis."""


BOUNDARY = BoundaryPoint()

Block = BoundaryPoint | tuple


@dataclass(frozen=True)
class CompletionPoint:
    blocks: tuple[Block, ...]

    def stratum(self) -> frozenset[int]:
        """Indices of collapsed horn factors; size k labels the k-stratum."""
        return frozenset(
            i for i, b in enumerate(self.blocks) if isinstance(b, BoundaryPoint)
        )

    def is_interior(self) -> bool:
        return not self.stratum()


@dataclass(frozen=True)
class TangentVector:
    """Per-factor velocity components; ``None`` on boundary blocks."""

    blocks: tuple[tuple[float, ...] | None, ...]


# ---------------------------------------------------------------------------
# construction and chart conversion


def make_point(space: SpaceSpec, blocks) -> CompletionPoint:
    """Validate and canonicalize raw blocks into a completion point.

    Horn blocks with ``xi < XI_SNAP`` snap to the boundary marker; a pair
    ``(theta, xi)`` (a ``HornPoint`` is one), a ``BoundaryPoint`` or
    ``None`` may be given for horn blocks, plain tuples elsewhere.  Each snap changes
    distances from the point by less than ``2 sqrt(B) XI_SNAP`` (see
    ``XI_SNAP``).
    """
    if len(blocks) != len(space.factors):
        raise ValueError(f"expected {len(space.factors)} blocks, got {len(blocks)}")
    return CompletionPoint(tuple([f.block(raw) for f, raw in zip(space.factors, blocks)]))


def chart_vector(space: SpaceSpec, point: CompletionPoint) -> np.ndarray:
    """Concatenated chart coordinates of an interior point."""
    coords: list[float] = []
    for block in point.blocks:
        if isinstance(block, BoundaryPoint):
            raise ValueError("chart coordinates undefined at a stratum")
        coords.extend(block)
    return np.array(coords, dtype=float)


def point_from_chart(space: SpaceSpec, vec) -> CompletionPoint:
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (space.dim,):
        raise ValueError(f"chart vector must have length {space.dim}")
    return make_point(space, [tuple(vec[sl]) for sl in space.chart_slices()])


def search_vector(space: SpaceSpec, point: CompletionPoint) -> np.ndarray:
    """Search-chart coordinates of an interior point, factor by factor."""
    u = []
    for f, b in zip(space.factors, point.blocks):
        u += f.search_coords(b)
    return np.array(u)


def search_blocks(space: SpaceSpec, u) -> tuple[Block, ...]:
    """Canonical blocks of the point at search-chart coordinates ``u``,
    levels clamped (a sequence of floats, one per chart coordinate)."""
    return tuple([f.block(f.search_block(u[sl])) for f, sl in space.factor_slices])


def point_from_search(space: SpaceSpec, u) -> CompletionPoint:
    """The point at search-chart coordinates ``u``, levels clamped."""
    return CompletionPoint(search_blocks(space, u))


def tangent_from_chart(space: SpaceSpec, vec) -> TangentVector:
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (space.dim,):
        raise ValueError(f"chart velocity must have length {space.dim}")
    blocks = [tuple(vec[sl]) for sl in space.chart_slices()]
    return TangentVector(tuple(blocks))


def tangent_chart_vector(space: SpaceSpec, v: TangentVector) -> np.ndarray:
    coords: list[float] = []
    for block in v.blocks:
        if block is None:
            raise ValueError("tangent undefined on a boundary block")
        coords.extend(block)
    return np.array(coords, dtype=float)


def point_key(point: CompletionPoint):
    """Total order used to canonicalize unordered point pairs."""
    key = []
    for b in point.blocks:
        if isinstance(b, BoundaryPoint):
            key.append((0,))
        else:
            key.append((1,) + tuple(b))
    return tuple(key)


def points_equal(a: CompletionPoint, b: CompletionPoint, tol: float = 0.0) -> bool:
    if len(a.blocks) != len(b.blocks):
        return False
    for x, y in zip(a.blocks, b.blocks):
        bx, by = isinstance(x, BoundaryPoint), isinstance(y, BoundaryPoint)
        if bx or by:
            if not (bx and by):
                return False
            continue
        if len(x) != len(y):
            return False
        if any(abs(u - v) > tol for u, v in zip(x, y)):
            return False
    return True


def coupling_sum(space: SpaceSpec, point: CompletionPoint) -> float:
    """``sum_k b3_k^2 xi_k^6 / h_k(xi_k)`` over the coupled horns of a point.

    This is one minus the Schur complement of the horn radial block on the
    first Euclidean coordinate, so the chart metric of a b3-coupled point
    is positive definite exactly when the sum is below 1.  Boundary blocks
    contribute 0; an overflowing level gives inf.
    """
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in space.coupled_ids:
            blk = point.blocks[i]
            if isinstance(blk, HornPoint):
                factor, xi = space.factors[i], np.float64(blk.xi)
                total += float(factor.b3**2 * xi**6 / factor.profile.h(xi))
    return total


# ---------------------------------------------------------------------------
# JSON wire formats


def space_to_json(space: SpaceSpec) -> dict:
    return {"factors": [f.to_json() for f in space.factors]}


def _wire_parser(parse):
    """Report a missing or ill-typed field of a wire document as ValueError."""

    @functools.wraps(parse)
    def checked(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except (KeyError, IndexError, TypeError, AttributeError) as exc:
            raise ValueError(
                f"{parse.__name__}: missing or ill-typed field ({type(exc).__name__}: {exc})"
            ) from None

    return checked


@_wire_parser
def space_from_json(doc) -> SpaceSpec:
    if isinstance(doc, str):
        doc = json.loads(doc)
    factors: list[FactorSpec] = []
    for entry in doc["factors"]:
        cls = _FACTOR_CLASSES.get(entry["kind"])
        if cls is None:
            raise ValueError(f"unknown factor kind {entry['kind']!r}")
        factors.append(cls.from_json(entry))
    return SpaceSpec(tuple(factors))


def point_to_json(point: CompletionPoint) -> dict:
    blocks = []
    for b in point.blocks:
        if isinstance(b, BoundaryPoint):
            blocks.append({"kind": "boundary"})
        elif isinstance(b, HornPoint):
            blocks.append({"kind": "interior", "theta": b.theta, "xi": b.xi})
        else:
            blocks.append({"coords": list(b)})
    return {"blocks": blocks}


def _definite(space: SpaceSpec, point: CompletionPoint) -> CompletionPoint:
    """Reject a parsed b3-coupled point whose chart metric is indefinite.

    The wire parsers check this and :func:`make_point` does not: solver
    states pass through ``make_point``, and an error raised there would
    escape ``distance`` instead of becoming a distance interval.
    """
    if space.coupled_ids:
        total = coupling_sum(space, point)
        if not total < 1.0:
            raise ValueError("chart metric is not positive definite at this b3-coupled "
                             f"point: sum b3^2 xi^6 / h(xi) = {total!r} >= 1")
    return point


@_wire_parser
def point_from_json(space: SpaceSpec, doc) -> CompletionPoint:
    if isinstance(doc, str):
        doc = json.loads(doc)
    blocks = []
    for entry in doc["blocks"]:
        if "coords" in entry:
            blocks.append(tuple(float(c) for c in entry["coords"]))
        elif entry.get("kind") == "boundary":
            blocks.append(BOUNDARY)
        else:
            blocks.append((float(entry["theta"]), float(entry["xi"])))
    return _definite(space, make_point(space, blocks))
