"""Model spaces: factor specifications, completion points, tangent vectors.

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

A completion point carries one block per factor.  Horn-type blocks are
either interior ``(theta, xi)`` pairs or the boundary marker; all other
blocks are plain coordinate tuples.  The stratum label of a point is the
set of horn-type factor indices whose block sits at the boundary.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

#: Below this xi a horn block is canonicalized to the boundary point: the
#: angular coefficient xi^6 is then < 1e-42 and the completion identifies
#: the whole axis with a single point.  Snapping moves a block by its
#: radial distance to the axis, below ``2 sqrt(B) XI_SNAP``, so by the
#: triangle inequality a computed distance is within ``2 sqrt(B) XI_SNAP``
#: of the unsnapped one for each snapped block of either endpoint (for
#: ``a4 > 0`` the bound carries a factor ``sqrt(1 + a4 XI_SNAP^4)``).
XI_SNAP = 1e-7


# ---------------------------------------------------------------------------
# factor specifications


@dataclass(frozen=True)
class Horn:
    """Half plane with metric ``diag(xi^6, 4)`` in ``(theta, xi)`` order."""

    @property
    def dim(self) -> int:
        return 2


@dataclass(frozen=True)
class HyperbolicPlane:
    """Upper half plane, chart ``(x, y)`` with metric ``diag(1/y^2, 1/y^2)``."""

    @property
    def dim(self) -> int:
        return 2


@dataclass(frozen=True)
class Euclidean:
    dim_: int = 1

    def __post_init__(self):
        if self.dim_ < 1:
            raise ValueError("Euclidean factor needs dim >= 1")

    @property
    def dim(self) -> int:
        return self.dim_


@dataclass(frozen=True)
class PerturbedHorn:
    """Horn with user-configured perturbation amplitudes.

    Block metric ``diag(B xi^6 (1 + c6 xi^6), 4 B (1 + a4 xi^4))``; when
    ``b3 > 0`` the term ``b3 xi^3 dxi dx1`` couples the radial direction
    to the first Euclidean coordinate of the space.
    """

    B: float = 1.0
    a4: float = 0.0
    b3: float = 0.0
    c6: float = 0.0

    def __post_init__(self):
        if not (self.B > 0 and math.isfinite(self.B)):
            raise ValueError("PerturbedHorn needs B > 0")
        for name in ("a4", "b3", "c6"):
            v = getattr(self, name)
            if v < 0 or not math.isfinite(v):
                raise ValueError(f"PerturbedHorn amplitude {name} must be finite and >= 0")

    @property
    def dim(self) -> int:
        return 2


FactorSpec = Horn | HyperbolicPlane | Euclidean | PerturbedHorn


def is_horn_like(factor: FactorSpec) -> bool:
    return isinstance(factor, (Horn, PerturbedHorn))


@dataclass(frozen=True)
class SpaceSpec:
    """Ordered product of model factors."""

    factors: tuple[FactorSpec, ...]

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("a space needs at least one factor")
        has_euclid = any(isinstance(f, Euclidean) for f in factors)
        for f in factors:
            if isinstance(f, PerturbedHorn) and f.b3 > 0 and not has_euclid:
                raise ValueError("b3 coupling needs a Euclidean factor in the space")
        object.__setattr__(self, "factors", factors)

    @property
    def dim(self) -> int:
        return sum(f.dim for f in self.factors)

    @property
    def horn_indices(self) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.factors) if is_horn_like(f))

    @property
    def coupled(self) -> bool:
        """True when some b3 amplitude ties a horn block to a Euclidean one."""
        return any(isinstance(f, PerturbedHorn) and f.b3 > 0 for f in self.factors)

    def chart_slices(self) -> list[slice]:
        out, k = [], 0
        for f in self.factors:
            out.append(slice(k, k + f.dim))
            k += f.dim
        return out

    def first_euclidean_offset(self) -> int | None:
        """Chart offset of the first Euclidean coordinate, if any."""
        k = 0
        for f in self.factors:
            if isinstance(f, Euclidean):
                return k
            k += f.dim
        return None


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True)
class HornPoint:
    """Interior point of a horn-type factor."""

    theta: float
    xi: float


@dataclass(frozen=True)
class BoundaryPoint:
    """The single completion point of a collapsed horn axis."""


BOUNDARY = BoundaryPoint()

Block = HornPoint | BoundaryPoint | tuple


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
    ``(theta, xi)`` may be given for horn blocks, plain tuples elsewhere.
    Each snap changes distances from the point by less than
    ``2 sqrt(B) XI_SNAP`` (see ``XI_SNAP``).
    """
    if len(blocks) != len(space.factors):
        raise ValueError(f"expected {len(space.factors)} blocks, got {len(blocks)}")
    out: list[Block] = []
    for factor, raw in zip(space.factors, blocks):
        if is_horn_like(factor):
            if isinstance(raw, BoundaryPoint) or raw is None:
                out.append(BOUNDARY)
                continue
            if isinstance(raw, HornPoint):
                theta, xi = raw.theta, raw.xi
            else:
                theta, xi = raw
            if not (math.isfinite(theta) and math.isfinite(xi)):
                raise ValueError("horn coordinates must be finite")
            if xi < XI_SNAP:
                out.append(BOUNDARY)
            else:
                out.append(HornPoint(float(theta), float(xi)))
        else:
            coords = tuple(float(c) for c in raw)
            if len(coords) != factor.dim:
                raise ValueError(f"block has {len(coords)} coords, factor dim {factor.dim}")
            if not all(math.isfinite(c) for c in coords):
                raise ValueError("coordinates must be finite")
            if isinstance(factor, HyperbolicPlane) and coords[1] <= 0:
                raise ValueError("hyperbolic chart needs y > 0")
            out.append(coords)
    return CompletionPoint(tuple(out))


def chart_vector(space: SpaceSpec, point: CompletionPoint) -> np.ndarray:
    """Concatenated chart coordinates of an interior point."""
    coords: list[float] = []
    for factor, block in zip(space.factors, point.blocks):
        if isinstance(block, BoundaryPoint):
            raise ValueError("chart coordinates undefined at a stratum")
        if isinstance(block, HornPoint):
            coords.extend((block.theta, block.xi))
        else:
            coords.extend(block)
    return np.array(coords, dtype=float)


def point_from_chart(space: SpaceSpec, vec) -> CompletionPoint:
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (space.dim,):
        raise ValueError(f"chart vector must have length {space.dim}")
    blocks = []
    for factor, sl in zip(space.factors, space.chart_slices()):
        part = vec[sl]
        blocks.append(tuple(part))
    return make_point(space, blocks)


def tangent_from_chart(space: SpaceSpec, vec) -> TangentVector:
    vec = np.asarray(vec, dtype=float)
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
        elif isinstance(b, HornPoint):
            key.append((1, b.theta, b.xi))
        else:
            key.append((2,) + tuple(b))
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
        cx = (x.theta, x.xi) if isinstance(x, HornPoint) else x
        cy = (y.theta, y.xi) if isinstance(y, HornPoint) else y
        if len(cx) != len(cy):
            return False
        if any(abs(u - v) > tol for u, v in zip(cx, cy)):
            return False
    return True


# ---------------------------------------------------------------------------
# JSON wire formats


_FACTOR_KINDS = {
    Horn: "horn",
    HyperbolicPlane: "hyperbolic",
    Euclidean: "euclidean",
    PerturbedHorn: "perturbed_horn",
}


def space_to_json(space: SpaceSpec) -> dict:
    factors = []
    for f in space.factors:
        kind = _FACTOR_KINDS[type(f)]
        if isinstance(f, Euclidean):
            factors.append({"kind": kind, "dim": f.dim})
        elif isinstance(f, PerturbedHorn):
            factors.append({"kind": kind, "B": f.B, "a4": f.a4, "b3": f.b3, "c6": f.c6})
        else:
            factors.append({"kind": kind})
    return {"factors": factors}


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
        kind = entry["kind"]
        if kind == "horn":
            factors.append(Horn())
        elif kind == "hyperbolic":
            factors.append(HyperbolicPlane())
        elif kind == "euclidean":
            factors.append(Euclidean(int(entry["dim"])))
        elif kind == "perturbed_horn":
            factors.append(
                PerturbedHorn(
                    B=float(entry["B"]),
                    a4=float(entry.get("a4", 0.0)),
                    b3=float(entry.get("b3", 0.0)),
                    c6=float(entry.get("c6", 0.0)),
                )
            )
        else:
            raise ValueError(f"unknown factor kind {kind!r}")
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
    return make_point(space, blocks)
