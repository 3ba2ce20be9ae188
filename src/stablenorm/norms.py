"""Strictly convex norms on the plane and integral homology classes.

Three norm families are supported: ellipse norms sqrt(v'Qv), p-norms
with 1 < p < inf, and arc-polygon gauges whose unit-level curve is a
centrally symmetric lattice polygon with edges bulged outward into
circular arcs of a common radius.  All evaluation is closed form.

Integral homology classes of the 2-torus are pairs (a, b) identified
up to sign; enumeration by norm value uses a provable search radius
derived from a per-variant lower bound on the norm over the Euclidean
unit circle, so the returned prefix of the length spectrum is complete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from stablenorm.errors import ConstructionError, ValidationError
from stablenorm.tolerances import (
    BOX_TIE_MARGIN,
    CONVEXITY_GAP,
    IDENTITY_RTOL,
    JUNCTION_SLACK,
    LENGTH_TIE_RTOL,
    PARALLEL_CUTOFF,
)

Vec = tuple[float, float]

#: Directions, uniform in angle, that `strict_convexity_check` samples.
_CONVEXITY_SAMPLES = 64
#: Bulge-radius doublings `make_arc_polygon` tries before giving up.
_MAX_BULGE_DOUBLINGS = 32


def _coords(v) -> Vec:
    if isinstance(v, IntegralClass):
        return (float(v.a), float(v.b))
    x, y = v
    return (float(x), float(y))


def _cross(ax: float, ay: float, bx: float, by: float) -> float:
    return ax * by - ay * bx


@dataclass(frozen=True)
class IntegralClass:
    """Integral homology class of T^2 in the standard basis."""

    a: int
    b: int

    def canonical(self) -> "IntegralClass":
        """Representative of {h, -h} with a > 0, or a = 0 and b >= 0."""
        if self.a < 0 or (self.a == 0 and self.b < 0):
            return IntegralClass(-self.a, -self.b)
        return self

    @property
    def is_trivial(self) -> bool:
        return self.a == 0 and self.b == 0

    @property
    def is_primitive(self) -> bool:
        return math.gcd(abs(self.a), abs(self.b)) == 1

    def primitive_core(self) -> tuple["IntegralClass", int]:
        """Split as n*p with p primitive and n >= 0.

        The trivial class returns (IntegralClass(1, 0), 0); any primitive
        p would do there since n = 0.
        """
        n = math.gcd(abs(self.a), abs(self.b))
        if n == 0:
            return IntegralClass(1, 0), 0
        return IntegralClass(self.a // n, self.b // n), n

    def det(self, other: "IntegralClass") -> int:
        return self.a * other.b - self.b * other.a

    def tie_key(self) -> tuple[int, int, int]:
        """Order among equal-norm canonical reps: ascending a, then |b|,
        nonnegative b before negative."""
        return (self.a, abs(self.b), 0 if self.b >= 0 else 1)

    def as_tuple(self) -> tuple[int, int]:
        """The pair (a, b), for comparing classes with plain tuples."""
        return (self.a, self.b)

    def __neg__(self) -> "IntegralClass":
        return IntegralClass(-self.a, -self.b)

    def __add__(self, other: "IntegralClass") -> "IntegralClass":
        return IntegralClass(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "IntegralClass") -> "IntegralClass":
        return IntegralClass(self.a - other.a, self.b - other.b)

    def scaled(self, n: int) -> "IntegralClass":
        return IntegralClass(n * self.a, n * self.b)

    def __str__(self) -> str:
        return f"({self.a},{self.b})"


def integral_class(h) -> IntegralClass:
    """h as an IntegralClass: an IntegralClass or a pair (a, b) of ints.

    Floats, bools and strings are refused, not truncated to a nearby
    class.
    """
    pair = (h.a, h.b) if isinstance(h, IntegralClass) else h
    if not (
        isinstance(pair, (tuple, list))
        and len(pair) == 2
        and all(isinstance(c, int) and not isinstance(c, bool) for c in pair)
    ):
        raise ValidationError(f"class must be a pair of integers, got {h!r}")
    return h if isinstance(h, IntegralClass) else IntegralClass(*pair)


@dataclass(frozen=True)
class Ellipse:
    """Norm sqrt(v'Qv) for Q = [[q11, q12], [q12, q22]] positive definite."""

    q11: float
    q12: float
    q22: float

    def min_eigenvalue(self) -> float:
        tr = self.q11 + self.q22
        det = self.q11 * self.q22 - self.q12 * self.q12
        return 0.5 * (tr - math.sqrt(max(tr * tr - 4.0 * det, 0.0)))


@dataclass(frozen=True)
class PNorm:
    """The l_p norm, strictly convex for 1 < p < inf."""

    p: float


@dataclass(frozen=True)
class ArcPolygon:
    """Gauge of a bulged lattice polygon.

    `vertices` lists lattice points in counterclockwise order, centrally
    symmetric about the origin and in strictly convex position.  Each
    edge is replaced by the circular arc of radius `radius` through its
    endpoints, bulging away from the origin, and the resulting curve is
    declared to be the level set {norm = level}.  `radius = math.inf`
    is the straight-edge sentinel: the gauge of the polygon itself,
    which is not strictly convex and exists as a negative example.
    """

    vertices: tuple[tuple[int, int], ...]
    radius: float
    level: float

    def max_sagitta(self) -> float:
        """Largest distance any arc bulges beyond its chord."""
        if math.isinf(self.radius):
            return 0.0
        worst = 0.0
        n = len(self.vertices)
        for i in range(n):
            (x1, y1), (x2, y2) = self.vertices[i], self.vertices[(i + 1) % n]
            half = 0.5 * math.hypot(x2 - x1, y2 - y1)
            worst = max(worst, self.radius - math.sqrt(self.radius**2 - half**2))
        return worst


Variant = Union[Ellipse, PNorm, ArcPolygon]


@dataclass(frozen=True)
class NormSpec:
    """A validated norm: one of the three variants times a positive scale."""

    variant: Variant
    scale: float = 1.0

    def __post_init__(self):
        _validate(self)


def euclidean(scale: float = 1.0) -> NormSpec:
    """The Euclidean norm times `scale`, as the ellipse Q = identity."""
    return NormSpec(Ellipse(1.0, 0.0, 1.0), scale)


def hexagonal(scale: float = 1.0) -> NormSpec:
    """Ellipse norm with a regular-hexagonal unit-shell of lattice classes.

    Q = [[1, 1/2], [1/2, 1]] gives three primitive classes of norm 1 and
    three of norm sqrt(3), at equal 30 degree spacing after the linear
    change of variables that maps the ellipse to a circle.
    """
    return NormSpec(Ellipse(1.0, 0.5, 1.0), scale)


def _number(value, what: str):
    """`value` if it is an int or a float; bools, strings and every other
    type raise ValidationError rather than pass as a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    return value


def _validate(norm: NormSpec) -> None:
    if not (_number(norm.scale, "scale") > 0 and math.isfinite(norm.scale)):
        raise ValidationError(f"scale must be a positive finite real, got {norm.scale!r}")
    var = norm.variant
    if isinstance(var, Ellipse):
        if not all(math.isfinite(_number(q, "ellipse entry")) for q in (var.q11, var.q12, var.q22)):
            raise ValidationError(
                f"ellipse entries must be finite, got q11={var.q11!r}, q12={var.q12!r}, q22={var.q22!r}"
            )
        det = var.q11 * var.q22 - var.q12 * var.q12
        if not (var.q11 > 0 and det > 0):
            raise ValidationError(
                f"ellipse matrix [[{var.q11},{var.q12}],[{var.q12},{var.q22}]] is not positive definite"
            )
    elif isinstance(var, PNorm):
        if not (1.0 < _number(var.p, "p-norm exponent") < math.inf):
            raise ValidationError(f"p-norm exponent must satisfy 1 < p < inf, got {var.p!r}")
    elif isinstance(var, ArcPolygon):
        _validate_arc_polygon(var)
    else:
        raise ValidationError(f"unknown norm variant {var!r}")


def _validate_arc_polygon(var: ArcPolygon) -> None:
    verts = var.vertices
    n = len(verts)
    if n < 4 or n % 2 != 0:
        raise ValidationError("arc polygon needs an even vertex count >= 4")
    if _number(var.level, "arc polygon level") <= 0 or not math.isfinite(var.level):
        raise ValidationError(f"arc polygon level must be positive, got {var.level!r}")
    for v in verts:
        # `type(c) is int` refuses bools, which `isinstance` passes
        if not (len(v) == 2 and type(v[0]) is int and type(v[1]) is int):
            raise ValidationError(f"arc polygon vertex {v!r} is not a lattice point")
    if len(set(verts)) != n:
        raise ValidationError("arc polygon vertices must be distinct")
    for i in range(n):
        x, y = verts[i]
        if verts[(i + n // 2) % n] != (-x, -y):
            raise ValidationError("arc polygon vertices must be centrally symmetric in cyclic order")
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        x3, y3 = verts[(i + 2) % n]
        if (x2 - x1) * (y3 - y2) - (y2 - y1) * (x3 - x2) <= 0:
            raise ValidationError("arc polygon vertices must be in strictly convex counterclockwise position")
        # origin strictly left of every directed edge <=> strictly inside
        if x1 * y2 - y1 * x2 <= 0:
            raise ValidationError("origin must lie strictly inside the arc polygon")
    if math.isinf(_number(var.radius, "arc radius")):
        return
    if not (var.radius > 0 and math.isfinite(var.radius)):
        raise ValidationError(f"arc radius must be positive or math.inf, got {var.radius!r}")
    centers = _arc_centers(verts, var.radius)
    for i in range(n):
        vx, vy = float(verts[i][0]), float(verts[i][1])
        ox, oy = centers[i]
        if math.hypot(ox, oy) >= var.radius:
            raise ValidationError("origin must lie strictly inside every arc circle")
        # convex junction at vertex i+1: incoming tangent not past outgoing
        px, py = centers[(i + 1) % n]
        wx, wy = float(verts[(i + 1) % n][0]), float(verts[(i + 1) % n][1])
        if _cross(wx - ox, wy - oy, wx - px, wy - py) < -JUNCTION_SLACK:
            raise ValidationError(
                f"arc radius {var.radius} makes the boundary reflex at vertex {verts[(i + 1) % n]}"
            )


def _arc_centers(verts: tuple[tuple[int, int], ...], radius: float) -> tuple[Vec, ...]:
    """Center of the outward-bulging arc over each directed edge i -> i+1."""
    n = len(verts)
    centers: list[Vec] = []
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        ex, ey = float(x2 - x1), float(y2 - y1)
        length = math.hypot(ex, ey)
        if radius <= 0.5 * length:
            raise ValidationError(
                f"arc radius {radius} is below the half chord {0.5 * length} of edge {i}"
            )
        d = math.sqrt(radius * radius - 0.25 * length * length)
        # outward normal of a counterclockwise edge points right of e
        nx, ny = ey / length, -ex / length
        centers.append((0.5 * (x1 + x2) - d * nx, 0.5 * (y1 + y2) - d * ny))
    return tuple(centers)


def norm_evaluator(norm: NormSpec) -> Callable[[float, float], float]:
    """The norm as a function of two floats (x, y), its constants bound
    once: the one definition of each variant's formula, which
    `eval_norm` and every loop that evaluates a norm many times call."""
    var = norm.variant
    scale = norm.scale
    if isinstance(var, Ellipse):
        q11, q12_twice, q22 = var.q11, 2.0 * var.q12, var.q22
        sqrt = math.sqrt

        def ellipse(x: float, y: float) -> float:
            q = q11 * x * x + q12_twice * x * y + q22 * y * y
            # max(q, 0.0): a NaN or -0.0 sum passes through unchanged
            return scale * sqrt(0.0 if q < 0.0 else q)

        return ellipse
    if isinstance(var, PNorm):
        p = var.p
        inv_p = 1.0 / p

        def pnorm(x: float, y: float) -> float:
            ax, ay = abs(x), abs(y)
            m = ay if ay > ax else ax
            if m == 0.0:
                return 0.0
            return scale * m * ((ax / m) ** p + (ay / m) ** p) ** inv_p

        return pnorm
    return _arc_evaluator(var, scale)


def _arc_evaluator(var: ArcPolygon, scale: float) -> Callable[[float, float], float]:
    """The arc-polygon gauge: level * |v| / t(u), with t(u) the distance
    from the origin to the bulged boundary along the unit ray u = v/|v|.

    The curve is star shaped about the origin, so the hit lies in the
    first angular sector, spanned by vertices v1 and v2, with
    cross(v1, u) >= 0 and cross(u, v2) >= 0.  Within it, the arc-circle
    intersection has the closed form t = <u,O> + sqrt(<u,O>^2 + R^2 - |O|^2)
    for the arc centre O (`_arc_centers`), and a straight edge e = v2 - v1
    (radius inf) gives t = cross(v1, e) / cross(u, e).  Each sector's
    constants are read from one table built here.
    """
    hypot = math.hypot
    sqrt = math.sqrt
    gauge_level = scale * var.level
    verts = var.vertices
    n = len(verts)
    pairs = [(*verts[i], *verts[(i + 1) % n]) for i in range(n)]

    def unmatched(ux: float, uy: float) -> ValidationError:
        return ValidationError(f"direction ({ux},{uy}) matched no sector of the arc polygon")

    if math.isinf(var.radius):
        # per sector: v1, v2, the edge e and the exact integer cross(v1, e)
        chords = [
            (v1x, v1y, v2x, v2y, v2x - v1x, v2y - v1y, v1x * (v2y - v1y) - v1y * (v2x - v1x))
            for v1x, v1y, v2x, v2y in pairs
        ]

        def chord(x: float, y: float) -> float:
            r = hypot(x, y)
            if r == 0.0:
                return 0.0
            ux, uy = x / r, y / r
            for v1x, v1y, v2x, v2y, ex, ey, reach in chords:
                if v1x * uy - v1y * ux >= 0.0 and ux * v2y - uy * v2x >= 0.0:
                    return gauge_level * r / (reach / (ux * ey - uy * ex))
            raise unmatched(ux, uy)

        return chord

    rr = var.radius * var.radius
    # per sector: v1, v2, the arc centre O and |O|^2
    arcs = [
        (v1x, v1y, v2x, v2y, ox, oy, ox * ox + oy * oy)
        for (v1x, v1y, v2x, v2y), (ox, oy) in zip(pairs, _arc_centers(verts, var.radius))
    ]

    def arc(x: float, y: float) -> float:
        r = hypot(x, y)
        if r == 0.0:
            return 0.0
        ux, uy = x / r, y / r
        for v1x, v1y, v2x, v2y, ox, oy, oo in arcs:
            if v1x * uy - v1y * ux >= 0.0 and ux * v2y - uy * v2x >= 0.0:
                beta = ux * ox + uy * oy
                return gauge_level * r / (beta + sqrt(beta * beta + rr - oo))
        raise unmatched(ux, uy)

    return arc


def eval_norm(norm: NormSpec, v) -> float:
    """Evaluate the norm at v (an IntegralClass or a real 2-vector)."""
    return norm_evaluator(norm)(*_coords(v))


@dataclass(frozen=True)
class ConvexityReport:
    ok: bool
    witness: Optional[tuple[Vec, Vec]]
    min_gap: float


def strict_convexity_check(norm: NormSpec) -> ConvexityReport:
    """Sample the unit sphere of the norm and test strict midpoint convexity.

    For unit-norm samples u, v in distinct directions the triangle
    inequality must be strict: ||u + v|| <= 2 - `CONVEXITY_GAP`.  A
    straight edge on the boundary makes same-edge pairs achieve
    equality, and the first such pair is returned as the witness.

    Returns:
        ConvexityReport with the smallest observed gap 2 - ||u + v||.
    """
    norm_at = norm_evaluator(norm)
    pts: list[Vec] = []
    for j in range(_CONVEXITY_SAMPLES):
        th = 2.0 * math.pi * j / _CONVEXITY_SAMPLES
        dx, dy = math.cos(th), math.sin(th)
        r = norm_at(dx, dy)
        pts.append((dx / r, dy / r))
    worst: Optional[tuple[Vec, Vec]] = None
    min_gap = math.inf
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            ux, uy = pts[i]
            vx, vy = pts[j]
            if abs(_cross(ux, uy, vx, vy)) <= PARALLEL_CUTOFF:
                continue
            gap = 2.0 - norm_at(ux + vx, uy + vy)
            if gap < min_gap:
                min_gap = gap
                worst = (pts[i], pts[j])
    ok = min_gap >= CONVEXITY_GAP
    return ConvexityReport(ok=ok, witness=None if ok else worst, min_gap=min_gap)


def unit_circle_lower_bound(norm: NormSpec) -> float:
    """A positive c with ||v|| >= c * |v|_2 for all v, used as a provable
    search radius when enumerating lattice classes by norm."""
    var = norm.variant
    if isinstance(var, Ellipse):
        return norm.scale * math.sqrt(var.min_eigenvalue())
    if isinstance(var, PNorm):
        if var.p >= 2.0:
            return norm.scale * 2.0 ** (1.0 / var.p - 0.5)
        return norm.scale
    reach = max(math.hypot(x, y) for (x, y) in var.vertices) + var.max_sagitta()
    return norm.scale * var.level / reach


@dataclass(frozen=True)
class EnumeratedClasses:
    """Prefix of the class spectrum: (canonical class, norm value) pairs,
    nondecreasing in value, trivial class first.  `segment_tie_warning`
    is set when two tied classes achieve triangle equality, the signature
    of a straight segment on the unit sphere."""

    entries: tuple[tuple[IntegralClass, float], ...]
    segment_tie_warning: bool


def tie_groups(
    entries: Sequence[tuple[IntegralClass, float]], rtol: float, floor: float = 1.0
) -> list[list[tuple[IntegralClass, float]]]:
    """Consecutive (class, value) entries, sorted by value, split into
    tie groups: an entry joins the open group while its value exceeds
    the group's first value v by at most rtol * max(v, floor)."""
    groups: list[list[tuple[IntegralClass, float]]] = []
    for cls, value in entries:
        if groups and value - groups[-1][0][1] <= rtol * max(groups[-1][0][1], floor):
            groups[-1].append((cls, value))
        else:
            groups.append([(cls, value)])
    return groups


def _sorted_box_classes(
    norm: NormSpec, box: int, keep: Callable[[IntegralClass], bool]
) -> list[tuple[IntegralClass, float]]:
    norm_at = norm_evaluator(norm)
    out: list[tuple[IntegralClass, float]] = []
    for a in range(0, box + 1):
        b_lo = 0 if a == 0 else -box
        for b in range(b_lo, box + 1):
            h = IntegralClass(a, b)
            if keep(h):
                out.append((h, norm_at(float(a), float(b))))
    out.sort(key=lambda e: (e[1], e[0].tie_key()))
    # equal lengths up to float noise must be grouped before tie keys
    # apply; every member takes the group's smallest value, so the
    # values stay nondecreasing across the tie-key reordering
    ranked: list[tuple[IntegralClass, float]] = []
    for grp in tie_groups(out, LENGTH_TIE_RTOL):
        v0 = grp[0][1]
        ranked.extend((h, v0) for h, _v in sorted(grp, key=lambda e: e[0].tie_key()))
    return ranked


def _complete_prefix(
    norm: NormSpec, count: int, keep: Callable[[IntegralClass], bool]
) -> list[tuple[IntegralClass, float]]:
    """First `count` kept classes by (norm, tie key), with one extra tie
    group so boundary ties are visible.  The box is grown until it
    provably covers the count-th value plus tie slack."""
    c = unit_circle_lower_bound(norm)
    box = 2
    while True:
        ranked = _sorted_box_classes(norm, box, keep)
        if len(ranked) >= count:
            vcut = ranked[count - 1][1]
            needed = int(math.ceil(vcut * (1.0 + BOX_TIE_MARGIN) / c)) + 1
            if box >= needed:
                return ranked
            box = needed
        else:
            box *= 2
        if box > 10**6:
            raise ValidationError("class enumeration radius exploded; norm is degenerate")


def enumerate_classes(norm: NormSpec, count: int) -> EnumeratedClasses:
    """First `count` unoriented integral classes ordered by norm value.

    The trivial class (0,0) opens the list with value 0.  Ties within
    relative tolerance `LENGTH_TIE_RTOL` are ordered by the canonical
    tie key and all carry the smallest value of their group, so the
    values are nondecreasing.
    """
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ValidationError(f"count must be an integer of at least 1, got {count!r}")
    ranked = _complete_prefix(norm, count, keep=lambda h: True)
    entries = tuple(ranked[:count])
    warning = False
    for i in range(1, len(entries)):
        hi, vi = entries[i]
        for j in range(i + 1, len(entries)):
            hj, vj = entries[j]
            if vj - vi > LENGTH_TIE_RTOL * max(1.0, vi):
                break
            if hi.det(hj) == 0:
                continue
            s = vi + vj
            for cand in (hi + hj, hi - hj):
                if abs(eval_norm(norm, cand) - s) <= LENGTH_TIE_RTOL * max(1.0, s):
                    warning = True
        if warning:
            break
    return EnumeratedClasses(entries=entries, segment_tie_warning=warning)


def leading_primitive_classes(norm: NormSpec, k: int) -> list[tuple[IntegralClass, float]]:
    """First k primitive canonical classes by (norm value, tie key);
    near ties share one value as in `enumerate_classes`."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValidationError(f"k must be an integer of at least 1, got {k!r}")
    ranked = _complete_prefix(norm, k, keep=lambda h: h.is_primitive)
    return ranked[:k]


def lipschitz_bound(v1: float, v2: float) -> float:
    """Shared Lipschitz constant sqrt(v1^2 + v2^2) of every norm taking
    values v1 at (1,0) and v2 at (0,1), valid against Euclidean distance."""
    if not (v1 > 0 and v2 > 0 and math.isfinite(v1) and math.isfinite(v2)):
        raise ValidationError(f"norm values at the basis classes must be positive, got ({v1}, {v2})")
    return math.hypot(v1, v2)


def _ccw_sorted(vertices: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(((x, y) for x, y in vertices), key=lambda v: math.atan2(v[1], v[0])))


def contained_lattice_points(var: ArcPolygon) -> set[tuple[int, int]]:
    """Lattice points with gauge at most 1 + `IDENTITY_RTOL` for the
    bulged curve."""
    reach = max(math.hypot(x, y) for (x, y) in var.vertices) + var.max_sagitta()
    box = int(math.ceil(reach)) + 1
    norm_at = norm_evaluator(NormSpec(var, 1.0))
    found: set[tuple[int, int]] = set()
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            if (x, y) == (0, 0):
                found.add((x, y))
            elif norm_at(float(x), float(y)) <= var.level * (1.0 + IDENTITY_RTOL):
                found.add((x, y))
    return found


def polygon_lattice_points(vertices: Sequence[tuple[int, int]]) -> set[tuple[int, int]]:
    """Lattice points inside or on a convex lattice polygon, by exact
    integer half-plane tests."""
    verts = list(vertices)
    n = len(verts)
    box = max(max(abs(x), abs(y)) for (x, y) in verts)
    out: set[tuple[int, int]] = set()
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            inside = True
            for i in range(n):
                x1, y1 = verts[i]
                x2, y2 = verts[(i + 1) % n]
                if (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) < 0:
                    inside = False
                    break
            if inside:
                out.add((x, y))
    return out


def make_arc_polygon(vertices: Sequence[tuple[int, int]], level: float) -> NormSpec:
    """Build a strictly convex norm whose level set passes through the
    given lattice vertices and through no other lattice point.

    The bulge radius starts at the circumradius and doubles until the
    bulged boundary is convex at every junction and an exhaustive scan
    confirms the bulged region contains exactly the polygon's lattice
    points.  Raises ConstructionError if no radius within
    `_MAX_BULGE_DOUBLINGS` doublings works.
    """
    verts = _ccw_sorted(vertices)
    NormSpec(ArcPolygon(vertices=verts, radius=math.inf, level=level))  # vertex-set validation up front
    base = polygon_lattice_points(verts)
    radius = max(math.hypot(x, y) for (x, y) in verts)
    for _ in range(_MAX_BULGE_DOUBLINGS):
        try:
            var = ArcPolygon(vertices=verts, radius=radius, level=level)
            spec = NormSpec(var, 1.0)
        except ValidationError:
            radius *= 2.0
            continue
        if contained_lattice_points(var) == base:
            return spec
        radius *= 2.0
    raise ConstructionError(
        f"no admissible bulge radius for vertices {verts} within {_MAX_BULGE_DOUBLINGS} doublings"
    )


def norm_to_jsonable(norm: NormSpec) -> dict:
    """JSON-ready dict; inverse of norm_from_jsonable."""
    var = norm.variant
    if isinstance(var, Ellipse):
        return {
            "variant": "ellipse",
            "q": [[var.q11, var.q12], [var.q12, var.q22]],
            "scale": norm.scale,
        }
    if isinstance(var, PNorm):
        return {"variant": "pnorm", "p": var.p, "scale": norm.scale}
    return {
        "variant": "arcpolygon",
        "vertices": [[x, y] for (x, y) in var.vertices],
        "radius": None if math.isinf(var.radius) else var.radius,
        "level": var.level,
        "scale": norm.scale,
    }


def _json_number(value, what: str) -> float:
    """A JSON number as a float; bools and strings are refused, not
    coerced."""
    return float(_number(value, f"norm JSON {what}"))


def norm_from_jsonable(obj: dict) -> NormSpec:
    """Parse the JSON form of a norm; raises ValidationError on bad shape."""
    if not isinstance(obj, dict):
        raise ValidationError(f"norm JSON must be an object, got {type(obj).__name__}")
    kind = obj.get("variant")
    try:
        scale = _json_number(obj.get("scale", 1.0), "scale")
        if kind == "ellipse":
            (q11, q12), (q21, q22) = obj["q"]
            if q12 != q21:
                raise ValidationError(f"ellipse matrix must be symmetric, got q12={q12}, q21={q21}")
            return NormSpec(Ellipse(*(_json_number(q, "ellipse entry") for q in (q11, q12, q22))), scale)
        if kind == "pnorm":
            return NormSpec(PNorm(_json_number(obj["p"], "p")), scale)
        if kind == "arcpolygon":
            # validation refuses a float or bool coordinate, not truncating it
            verts = tuple(tuple(v) for v in obj["vertices"])
            raw = obj.get("radius")
            radius = math.inf if raw is None else _json_number(raw, "radius")
            return NormSpec(ArcPolygon(verts, radius, _json_number(obj["level"], "level")), scale)
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed norm JSON: {exc}") from exc
    raise ValidationError(f"unknown norm variant {kind!r}")
