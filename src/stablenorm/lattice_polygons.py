"""Convex lattice polygon combinatorics, in exact arithmetic.

Pick's identity, minimal areas of convex integer k-gons, their interior
counts, and the centrally symmetric minimum interior count over 2m-gons
together with the halved count f(m).

Enumeration principle: a convex polygon is the same thing as a set of
distinct primitive edge directions with positive multiplicities whose
weighted sum vanishes; reading the directions in angle order traces the
boundary.  Cutting the cyclic order at the 0-degree ray turns every
polygon into a strictly increasing subsequence of the angle-sorted
direction list, so one monotone sweep over that list enumerates each
polygon exactly once; starting chains only on the directions (1, 0)
through (1, 1), it enumerates at least one image of each polygon under
the 8 lattice symmetries (below).  That list is
generated in angle order, with no sort: the Farey sequence's next-term
rule gives the first quarter turn, and three rotations by 90 degrees
(one for a half-plane) give the rest (`_primitive_directions`).  The
running shoelace sum relative to the start vertex is twice the swept
area; it never decreases along chains that can still close convexly
(each increment is twice a fan triangle of the final polygon as seen
from the start vertex), which makes both the cost cap and the
minimum-merge on repeated (edges used, partial sum) states sound.  A
closing edge always runs straight back to the start, so closures happen
exactly at the anti-parallel steps.

Each direction layer visits only chains that can still close:

- Dead chains.  Once cross(w, d) < 0 for the partial sum w and the
  current direction d, the chain can never extend or close again, and
  at cross(w, d) == 0 it has had its only chance to close.  Proof: an
  extension adds m*d with d less than a half turn ahead of w, so the
  new sum lies between w and d and the polar angle of w never passes
  its last edge; the directions still to come with cross(w, d) >= 0
  therefore form one interval that starts at the current one.
- Closability bound.  A chain with r edges left, the closing edge
  included, is kept only if -w lies within r times the farthest one
  edge on a later direction, at its multiplicity cap, moves in +x, -x,
  +y and -y.  Proof: -w is the sum of those at most r edges, and each
  coordinate of a sum is at most the count times its largest term (the
  support-function bound).  It implies the old reach test
  |w| <= coord_bound * r, so only chains that cannot close are dropped.

Dropping a state never changes the cost or the store position of a
kept one: a chain that can close has only parents that can close, and a
dropped key is never offered again.  Closures, witness pools and
witnesses therefore come out exactly as from the sweep that keeps them.

Lattice symmetry.  The 8 lattice symmetries, the signed permutations
of the coordinates, have determinant +-1 and keep max(|x|, |y|), gcds
and the lattice.  With a reflection's image traversed backwards, to
restore counterclockwise order, they keep doubled areas, interior and
corner counts, primitivity, multiplicity caps and the coordinate bound.
They commute with negation, so they keep central symmetry, and they map
a lattice point to a lattice point.

- Edge angles.  The quarter turn R(x, y) = (-y, x) maps an edge angle t
  to t + pi/2 and each quarter of the direction list onto the next
  (`_primitive_directions`).  A reflection, say (x, y) -> (y, x), maps t
  to pi/2 - t, and traversing the image backwards negates every edge,
  adding pi.  So the rotations map t to t - c, and the reflections
  followed by the reversal map t to c - t, where c takes each of the
  values 0, pi/2, pi and 3pi/2 (mod 2pi) in both families.
- Polygons.  Every edge angle t of a convex lattice polygon lies within
  pi/4 of some multiple c of pi/2.  If t - c is in [0, pi/4], the
  rotation t -> t - c gives an image whose least edge angle in
  [0, 2pi) is the angle from c counterclockwise to the nearest edge, at
  most t - c.  Otherwise c - t is in (0, pi/4], and the reflection
  t -> c - t gives an image whose least edge angle is the angle to c
  from the nearest edge clockwise of it, at most c - t.  Either way the
  image's first edge in angle order is one of the directions (1, 0)
  through (1, 1), and the image is a polygon of the same class within
  the same bound.  The interval must be closed: a diagonal diamond, with
  edges on (1, 1), (-1, 1), (-1, -1) and (1, -1), has least edge angle
  pi/4 in each of its images.
- Half-chains.  A centrally symmetric polygon's half-chain holds its
  edges with angle in [0, pi).  The image above is centrally symmetric
  too, so its half-chain starts on its least edge, one of (1, 0)
  through (1, 1).  It has the same cost and all-primitive flag, and its
  sum, twice the vector from its start vertex to the centre, is even
  exactly when the original's is: the centre is a lattice point in
  both or in neither.

Those directions are the first |F_B| = 1 + phi(1) + ... + phi(B) of the
list, one per fraction of the Farey sequence F_B (`_root_layer_counts`).
So every minimum, `certified` flag, interior count, f(m) and
all-primitive preference is attained by a chain whose first edge is
one of them, and the root, store 0, is cleared once the layer index
reaches |F_B|, in the whole list and in the upper half alike.  A cut
one layer earlier drops (1, 1) and with it the diagonal diamonds:
`min_interior_symmetric(4, coord_bound=1)` then finds no polygon.  The
cut drops live chains, so a kept key can lose the cheaper or earlier
chain that started later and its pool holds other chains than an uncut
sweep's; witnesses are canonical over the 8 lattice symmetries, and the
tests check them against the uncut sweep.

Layered stores.  A sweep keeps one store per edge count j, with values
and chain links in two dicts, and a layer visits the stores from the
longest chains down.  A link is the immutable triple (parent link,
direction, mult), captured when an offer wins, so climbing links
rebuilds the path of the stored value however the parent is later
improved.  Keeping the least value per key is sound: every continuation
adds a cost that depends only on the partial sum, the edge count and
the layer.

- Area stores.  The key is the partial sum (x, y) alone, and the value
  one integer rank, 2 * cost + (0 if every step so far has multiplicity
  1 else 1).  A step of multiplicity 1 adds 2 * cr; a longer run first
  sets the low bit, then adds 2 * cr per step.  The cost cap reads
  rank >> 1, and a closure is all primitive when its rank is even and
  its closing step has multiplicity 1.  The least rank is the least
  cost and, among equal costs, an all-primitive chain: merging the
  primitive and the other chains at one sum is the same min-merge.
  Take an all-primitive polygon of least area.  Each of its prefixes
  has the least cost at its key, or the cheaper chain there, completed
  the same way, would beat it; each prefix is all primitive, so its
  even rank wins the tie, and the polygon still closes as an
  all-primitive closure.  So the all-primitive minimum a sweep reports
  for k edges is exact whenever it equals the overall one, the only
  case in which a witness is drawn from its pool
  (`_pick_area_witness`); otherwise it may be larger, or missing.
- Symmetric stores.  The key is (x, y, all primitive) and the value the
  cost, so one sum can be held twice.  `min_interior_symmetric` without
  `prefer_primitive` picks the most compact of every tying half-chain,
  primitive or not, and a rank would drop the non-primitive ties at a
  sum where a primitive chain ties: the `polygon-symm --two-m 8`
  witness changes at bounds 2..6 that way.

Store j offers only into store j + 1, which this layer has already
walked, so every chain extends from its value before the layer and no
walk meets a key offered in it.  An offer that wins writes its value
and reads its parent's link; one that loses builds nothing.  Dead keys
are collected during a walk and deleted after it.  That is the same as
collecting the layer's offers and merging them after the deletions: a
key that dies at d (cross(w, d) <= 0) is never offered at d, since an
offer w = w' + m*d has cross(w, d) = cross(w', d), so its parent died
too, or its parent is the root and (1, m*d) is new at d.  Every kept
key keeps its value and its place in its store, and a store's insertion
order is the order of its keys in one dict over all edge counts, so
merges, ties, witness pools and witnesses are those of such a dict.
Transitions are counted once per multiplicity run, in closed form:
mult_cap, or where the cost cap breaks the run, the steps within the
cap and the one that breaks it.

Seeded cost caps.  Each search first sweeps a small coordinate bound.
Every polygon that seed sweep finds is also a polygon of the full
bound, with the same cost, so the full minimum is at most the seed's.
Unless the seed bound is the full bound (then the seed sweep is the
result), the full sweep drops every chain whose cost exceeds a cap:

- Area sweeps.  The swept area never decreases along a chain that can
  still close, and a closure adds nothing, so a chain above the cap
  closes only into a polygon above it.  `min_area_table` caps at one
  below the largest seeded area over its rows and merges each row's
  seed slot back in; `min_area_convex_kgon` is its one-row table.
- Symmetric sweep.  A half-chain's first step, from the root, adds
  -mult; every later step adds mult*(cr - 1) >= 0, because cr >= 1 in
  the half-plane.  So a half-chain above the cap can never finish at or
  below it.  The cap, the least even-sum cost the seed finished, is at
  least 0 (the origin is interior), so no step from the root is cut.

A capped sweep keeps every chain that can still win or tie, with the
cost the full sweep gives it (an area row whose seed sits above the cap
gets its ties from the merged seed slot), so minima and `certified`
flags are the full sweep's.  A dropped chain can change where a kept
key first enters its store, and so which of two equal-cost chains that
key keeps; the tests check that the witnesses still match the full
sweep's.

No floating point anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Optional, Sequence

from stablenorm.errors import ConstructionError, InvariantError, SearchMeter, ValidationError

IntVec = tuple[int, int]

#: 8*pi^2 = 78.9568352...; any smaller positive rational gives a sound
#: stand-in L with 1/L >= 1/(8*pi^2), so `ratio > 1/L` certifies
#: `ratio > 1/(8*pi^2)` exactly.
EIGHT_PI_SQUARED_FLOOR = Fraction(789568, 10000)

#: Certified rational upper bound for 1/(8*pi^2).
MIN_AREA_CUBIC_FLOOR = 1 / EIGHT_PI_SQUARED_FLOOR

DEFAULT_SEARCH_BUDGET = 200_000_000

def _cross(a: IntVec, b: IntVec) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _wraps(edges: Sequence[IntVec]) -> int:
    """How often a cycle of strictly left-turning edges passes angle 0,
    its winding number.

    Each turn is less than a half turn, so the angle passes 0 exactly at
    a step from an edge in the lower half-plane, angle in [pi, 2pi), to
    one in the upper half-plane; the steps where the polar angle in
    [0, 2pi) decreases are these.
    """
    lower = [y < 0 or (y == 0 and x < 0) for x, y in edges]
    return sum(1 for i in range(len(lower)) if lower[i - 1] and not lower[i])


@dataclass(frozen=True)
class LatticePolygon:
    """Strictly convex lattice polygon with counterclockwise vertices.

    Every vertex must be a genuine corner: consecutive edges turn
    strictly left, and the edge directions wind around the circle
    exactly once (which rules out self-overlapping traversals).
    """

    vertices: tuple[IntVec, ...]

    def __post_init__(self):
        v = self.vertices
        n = len(v)
        if n < 3:
            raise ValidationError(f"a polygon needs at least 3 vertices, got {n}")
        for p in v:
            # `type(c) is int` refuses bools, which `isinstance` passes
            if not (isinstance(p, tuple) and len(p) == 2 and type(p[0]) is int and type(p[1]) is int):
                raise ValidationError(f"vertex {p!r} is not a lattice point")
        if len(set(v)) != n:
            raise ValidationError("vertices repeat")
        edges = self.edge_vectors
        for i in range(n):
            if _cross(edges[i], edges[(i + 1) % n]) <= 0:
                raise ValidationError(
                    f"not strictly convex counterclockwise at vertex {(i + 1) % n}"
                )
        if _wraps(edges) != 1:
            raise ValidationError("edge directions wind around more than once")

    @property
    def edge_vectors(self) -> tuple[IntVec, ...]:
        v = self.vertices
        n = len(v)
        return tuple(
            (v[(i + 1) % n][0] - v[i][0], v[(i + 1) % n][1] - v[i][1]) for i in range(n)
        )

    def is_centrally_symmetric(self) -> bool:
        """Vertex multiset closed under negation (symmetry about the origin)."""
        return sorted(self.vertices) == sorted((-x, -y) for (x, y) in self.vertices)


@dataclass(frozen=True)
class PickCounts:
    area: Fraction
    interior: int
    boundary: int


def pick_counts(p: LatticePolygon, self_check: bool = False) -> PickCounts:
    """Exact (area, interior points, boundary points) of a lattice polygon.

    Area by the shoelace sum, boundary count as the sum of edge gcds,
    interior count from Pick's identity A = i + b/2 - 1.  `self_check`
    re-derives both counts by classifying every lattice point of the
    bounding box against the edge half-planes and insists they agree.
    """
    v = p.vertices
    n = len(v)
    twice_area = sum(_cross(v[i], v[(i + 1) % n]) for i in range(n))
    if twice_area <= 0:
        raise ValidationError("polygon is not positively oriented")
    boundary = sum(gcd(ex, ey) for (ex, ey) in p.edge_vectors)
    # Pick's identity doubled, in ints: 2i = 2A - b + 2
    twice_interior = twice_area - boundary + 2
    if twice_interior % 2 or twice_interior < 0:
        raise ValidationError(
            f"interior count came out as {Fraction(twice_interior, 2)}, not a count"
        )
    interior = twice_interior // 2
    if self_check:
        got_i, got_b = _scan_counts(v)
        if (got_i, got_b) != (interior, boundary):
            raise InvariantError(
                "point scan disagrees with Pick: "
                f"formula ({interior}, {boundary}), scan ({got_i}, {got_b})"
            )
    return PickCounts(area=Fraction(twice_area, 2), interior=interior, boundary=boundary)


def _scan_counts(v: Sequence[IntVec]) -> tuple[int, int]:
    n = len(v)
    xs = [q[0] for q in v]
    ys = [q[1] for q in v]
    interior = boundary = 0
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            strict = True
            on_edge = False
            for i in range(n):
                a = v[i]
                b = v[(i + 1) % n]
                s = _cross((b[0] - a[0], b[1] - a[1]), (x - a[0], y - a[1]))
                if s < 0:
                    strict = False
                    on_edge = False
                    break
                if s == 0:
                    strict = False
                    on_edge = True
            if strict:
                interior += 1
            elif on_edge:
                boundary += 1
    return interior, boundary


def canonical_form(
    vertices: Sequence[IntVec], translate: bool = True
) -> tuple[IntVec, ...]:
    """Lexicographically minimal presentation over the 8 lattice symmetries.

    Reflections get their orientation restored to counterclockwise, the
    cyclic order is rotated to start at the smallest vertex, and with
    `translate` the bounding box corner moves to the origin.  Symmetric
    witnesses pass translate=False so the center stays at the origin.
    Fewer than 3 vertices make no polygon and raise ValidationError.
    """
    n = len(vertices)
    if n < 3:
        raise ValidationError(f"a polygon needs at least 3 vertices, got {n}")
    twice = sum(_cross(vertices[i], vertices[(i + 1) % n]) for i in range(n))
    best: Optional[tuple[IntVec, ...]] = None
    for sx in (1, -1):
        for sy in (1, -1):
            for swap in (False, True):
                pts = [
                    (sx * (y if swap else x), sy * (x if swap else y))
                    for (x, y) in vertices
                ]
                # the image's doubled area is `twice` times its
                # determinant, sx * sy, negated by the swap
                if (-twice if swap else twice) * sx * sy < 0:
                    pts.reverse()
                if translate:
                    mx = min(q[0] for q in pts)
                    my = min(q[1] for q in pts)
                    pts = [(x - mx, y - my) for (x, y) in pts]
                start = pts.index(min(pts))
                rotated = tuple(pts[(start + i) % n] for i in range(n))
                if best is None or rotated < best:
                    best = rotated
    if best is None:
        raise InvariantError("canonical form found no symmetry image")
    return best


def _totient(n: int) -> int:
    """Euler's phi by trial division."""
    out, p = n, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            out -= out // p
        p += 1
    if n > 1:
        out -= out // n
    return out


def _root_layer_counts(bound: int) -> Iterator[int]:
    """|F_n| = 1 + phi(1) + ... + phi(n) for n = 1..bound: the directions
    (1, 0) through (1, 1) with largest coordinate at most n, one per
    fraction of the Farey sequence F_n.  The last is the number of first
    layers of a sweep at `bound` on which its root starts chains
    (lattice symmetry, module docstring)."""
    count = 1
    for n in range(1, bound + 1):
        count += _totient(n)
        yield count


def _reserve_root_steps(
    meter: SearchMeter, bound: int, upper_half_only: bool = False, rootless: int = 0
) -> int:
    """Reserve the transitions a sweep over `_primitive_directions(bound,
    upper_half_only)` must make before the list is built, and return the
    number of its first layers on which the root starts chains.  The root
    expands at least once on each of those layers but those among the
    list's last `rootless`.  With r root layers the list holds 8 (4 in
    the upper half) times r - 1 directions.  The count is reserved as it
    grows, so a huge bound raises at once; a partial count forces no
    more than the full one.
    """
    per_fraction = 4 if upper_half_only else 8
    for root_layers in _root_layer_counts(bound):
        meter.reserve(
            min(root_layers, per_fraction * (root_layers - 1) - rootless),
            lambda: f"the primitive directions within coordinate bound {bound} force that many",
        )
    return root_layers


def _primitive_directions(bound: int, upper_half_only: bool = False) -> list[IntVec]:
    """Primitive vectors with coordinates within `bound` in angle order,
    only those with angle in [0, pi) if `upper_half_only`.

    The first quarter turn, angles in [0, pi/2), comes from the Farey
    sequence F_bound, the reduced fractions a/b in [0, 1] with
    b <= bound in ascending order, which the next-term rule generates
    without sorting (Hardy & Wright, ch. III): (b, a) for each a/b gives
    the angles up to pi/4, and (a, b) for the a/b strictly between 0 and
    1, in descending order, the rest.  The other quarter turns are that
    list rotated by pi/2.
    """
    farey = [(0, 1)]
    a, b, c, d = 0, 1, 1, bound
    while c <= bound:
        t = (bound + b) // d
        a, b, c, d = c, d, t * c - a, t * d - b
        farey.append((a, b))
    quarter = [(b, a) for a, b in farey] + [(a, b) for a, b in reversed(farey) if 0 < a < b]
    out = list(quarter)
    for _ in range(1 if upper_half_only else 3):
        quarter = [(-y, x) for x, y in quarter]
        out += quarter
    return out


def _rooted_stores(count: int, root: tuple) -> tuple[list[dict], list[dict]]:
    """Cost and link stores for edge counts 0..count - 1, the root (no
    edges, at the origin, all primitive) alone in store 0 under the key
    `root` with value 0: (0, 0) for the area sweep, whose value is a
    rank, and (0, 0, True) for the symmetric sweep, whose key carries
    the flag (module docstring, "Layered stores")."""
    costs: list[dict[tuple, int]] = [{} for _ in range(count)]
    links: list[dict[tuple, Optional[tuple]]] = [{} for _ in range(count)]
    costs[0][root] = 0
    links[0][root] = None
    return costs, links


#: How many tying optimal chains to keep per slot for witness selection.
_WITNESS_POOL = 64


def _chain_corners(link) -> list[IntVec]:
    """The partial sums of a chain's steps from the origin, its end
    included.  A step is a run on one direction and the next step turns
    strictly left, so these are the corners the chain passes."""
    steps = []
    while link is not None:
        link, d, m = link
        steps.append((d, m))
    x = y = 0
    corners = [(0, 0)]
    for (dx, dy), m in reversed(steps):
        x += m * dx
        y += m * dy
        corners.append((x, y))
    return corners


@dataclass(frozen=True)
class MinAreaResult:
    """Minimal-area search outcome for convex lattice k-gons.

    `certified` marks values that meet the unconditional Pick floor
    k/2 - 1, where no polygon outside the coordinate bound can do
    better; otherwise the minimum is exact only over polygons whose
    edge vectors fit the bound.  `states_explored` counts the
    transitions of every sweep the search ran, its seed sweep included;
    each sweep starts chains only on the directions (1, 0) through
    (1, 1), which finds every minimum up to the 8 lattice symmetries
    (module docstring).
    """

    k: int
    area: Fraction
    witness: LatticePolygon
    certified: bool
    coord_bound: int
    states_explored: int


AreaSlot = dict[bool, tuple[int, list]]


def _record_closure(slot: AreaSlot, prim: bool, c2: int, link: tuple) -> None:
    for flag in (True, False) if prim else (False,):
        cur = slot.get(flag)
        if cur is None or c2 < cur[0]:
            slot[flag] = (c2, [link])
        elif c2 == cur[0] and len(cur[1]) < _WITNESS_POOL:
            cur[1].append(link)


def _later_reach(dirs: Sequence[IntVec], caps: Sequence[int]) -> list[tuple[int, int, int, int]]:
    """`reach[i]` is how far one edge on a direction from `dirs[i:]`, at
    its multiplicity cap, can move in +x, -x, +y and -y; the entry past
    the end is all zero."""
    reach = [(0, 0, 0, 0)] * (len(dirs) + 1)
    px = mx = py = my = 0
    for i in range(len(dirs) - 1, -1, -1):
        (dx, dy), cap = dirs[i], caps[i]
        px, mx = max(px, cap * dx), max(mx, -cap * dx)
        py, my = max(py, cap * dy), max(my, -cap * dy)
        reach[i] = (px, mx, py, my)
    return reach


def _sweep_areas(
    k_max: int, coord_bound: int, cap: Optional[int], meter: SearchMeter
) -> dict[int, AreaSlot]:
    """Run the sweep, spending its transitions on `meter`; return per
    edge-count closures in ascending k.

    `found[k][False]` holds the least doubled area over k-gons plus a
    capped pool of chain links attaining it, and `found[k][True]` the
    same over the all-primitive closures, so callers can prefer
    witnesses whose boundary points are exactly the corners.  Each store
    keeps one rank per partial sum, so `found[k][True]` is exact
    whenever it equals `found[k][False]`, and otherwise may be larger or
    missing (module docstring, "Layered stores").  `cap` is the largest
    doubled area a chain may sweep (module docstring); None keeps the
    enumeration complete up to the 8 lattice symmetries: the root starts
    chains only on the directions (1, 0) through (1, 1), angles in
    [0, pi/4].  Each layer keeps only the chains that can still close,
    in their insertion order.  A layer's transitions are counted locally
    and spent once, so the sweep overshoots its budget by one layer at
    most.
    """
    found: dict[int, AreaSlot] = {}
    # the root starts chains on directions (1, 0) through (1, 1) only
    # (module docstring) and expands at least once on each
    root_layers = _reserve_root_steps(meter, coord_bound)
    dirs = _primitive_directions(coord_bound)
    caps = [coord_bound // max(abs(dx), abs(dy)) for dx, dy in dirs]
    reach = _later_reach(dirs, caps)

    def best_so_far() -> str:
        return "best non-certified bound so far: " + str(
            {k: Fraction(slot[False][0], 2) for k, slot in sorted(found.items())}
        )

    # store k_max stays empty: an offer into it would have to land on
    # the origin, which only a closure reaches; a store maps a partial
    # sum to its rank (module docstring, "Layered stores")
    ranks, links = _rooted_stores(k_max + 1, (0, 0))
    for i, d in enumerate(dirs):
        if i == root_layers:
            ranks[0].clear()
            links[0].clear()
        dx, dy = d
        mult_cap = caps[i]
        px, mx, py, my = reach[i + 1]
        ops = 0
        for j in range(k_max - 1, -1, -1):
            here, here_links = ranks[j], links[j]
            ahead, ahead_links = ranks[j + 1], links[j + 1]
            get = ahead.get
            # the box a new partial sum must lie in to close with r more
            # edges, all on directions after d
            r = k_max - j - 1
            xl, xh, yl, yh = -r * px, r * mx, -r * py, r * my
            dead = []
            for key, rank in here.items():
                wx, wy = key
                cr = wx * dy - wy * dx
                # the root (j == 0), while kept, starts a chain on every
                # direction
                if cr <= 0 and j:
                    if cr == 0:
                        # the closing edge runs straight back to the
                        # start; this was the chain's last chance
                        ops += 1
                        if dx != 0:
                            m, rem = divmod(-wx, dx)
                        else:
                            m, rem = divmod(-wy, dy)
                        closes = rem == 0 and 1 <= m <= mult_cap and (wx + m * dx, wy + m * dy) == (0, 0)
                        if closes and j + 1 >= 3:
                            link = (here_links[key], d, m)
                            prim = not rank & 1 and m == 1
                            _record_closure(found.setdefault(j + 1, {}), prim, rank >> 1, link)
                    # at cr < 0 for good: no later direction turns back
                    dead.append(key)
                    continue
                # steps 1..top stay within the cap; a run the cap breaks
                # also counts the step that breaks it (every kept chain
                # is within the cap, so then 0 <= top < mult_cap)
                top = mult_cap
                if cap is not None and (rank >> 1) + mult_cap * cr > cap:
                    top = (cap - (rank >> 1)) // cr
                    ops += 1
                    if not top:
                        continue
                ops += top
                # step 1 keeps the rank's low bit, and is the whole run
                # on the directions with mult_cap == 1; step 2 sets it
                step = 2 * cr
                nr, nwx, nwy = rank + step, wx + dx, wy + dy
                if xl <= nwx <= xh and yl <= nwy <= yh:
                    nkey = (nwx, nwy)
                    old = get(nkey)
                    if old is None or nr < old:
                        ahead[nkey] = nr
                        ahead_links[nkey] = (here_links[key], d, 1)
                if top > 1:
                    nr |= 1
                    for m in range(2, top + 1):
                        nr += step
                        nwx += dx
                        nwy += dy
                        if xl <= nwx <= xh and yl <= nwy <= yh:
                            nkey = (nwx, nwy)
                            old = get(nkey)
                            if old is None or nr < old:
                                ahead[nkey] = nr
                                ahead_links[nkey] = (here_links[key], d, m)
            for key in dead:
                del here[key], here_links[key]
        meter.spend(ops, best_so_far)

    return {k: found[k] for k in sorted(found)}


def _most_compact(
    corner_sets: Iterable[Sequence[IntVec]], translate: bool
) -> Optional[tuple[int, LatticePolygon]]:
    """The position of the candidate with the least score, (spread,
    canonical vertices), and that candidate as a polygon in canonical
    form; None if there is no candidate.

    With `translate` a candidate is its polygon's corners.  Without, it
    is the first half of the corners of a polygon symmetric about the
    origin, and the rest are their negations.  The spread, the largest
    coordinate size of the canonical form, does not change under the 8
    lattice symmetries, so it is read off the raw corners: the larger
    side of their bounding box with `translate`, the largest |coordinate|
    of the half without (negation keeps it).  Only the candidates of
    least spread are completed and canonicalized; the first of least
    canonical vertices among them is the pick of scoring every candidate.
    """
    candidates = list(corner_sets)
    spreads = []
    for corners in candidates:
        if translate:
            xs = [x for x, _ in corners]
            ys = [y for _, y in corners]
            spreads.append(max(max(xs) - min(xs), max(ys) - min(ys)))
        else:
            spreads.append(max(max(abs(x), abs(y)) for x, y in corners))
    least = min(spreads, default=None)
    best: Optional[tuple[int, LatticePolygon]] = None
    for i, corners in enumerate(candidates):
        if spreads[i] != least:
            continue
        if not translate:
            corners = [*corners, *((-x, -y) for x, y in corners)]
        poly = LatticePolygon(canonical_form(corners, translate))
        if best is None or poly.vertices < best[1].vertices:
            best = (i, poly)
    return best


def _pick_area_witness(slot: AreaSlot) -> tuple[int, LatticePolygon]:
    """Most compact canonical witness among the pooled optimal chains,
    drawn from the all-primitive pool when it ties the optimum, the one
    case in which that pool is exact (`_sweep_areas`)."""
    c2, links = slot[False]
    if True in slot and slot[True][0] == c2:
        links = slot[True][1]
    # a closed chain ends where it starts
    best = _most_compact((_chain_corners(link)[:-1] for link in links), translate=True)
    if best is None:
        raise InvariantError(f"optimal area {Fraction(c2, 2)} has no witness chain")
    return c2, best[1]


def _merge_slots(a: Optional[AreaSlot], b: Optional[AreaSlot]) -> Optional[AreaSlot]:
    if a is None or b is None:
        return a if b is None else b
    out: AreaSlot = {}
    for flag in (False, True):
        pools = [s[flag] for s in (a, b) if flag in s]
        if not pools:
            continue
        best_c2 = min(c2 for c2, _links in pools)
        links: list = []
        for c2, pool in pools:
            if c2 == best_c2:
                links.extend(pool)
        out[flag] = (best_c2, links[:_WITNESS_POOL])
    return out


def _coord_bound(k: int, coord_bound: Optional[int]) -> int:
    """Edge-coordinate bound of a minimal-area search up to k corners:
    the given one, which must be an integer of at least 2, else 6 for
    k <= 8 and 10 beyond."""
    if coord_bound is None:
        return 6 if k <= 8 else 10
    if isinstance(coord_bound, bool) or not isinstance(coord_bound, int) or coord_bound < 2:
        raise ValidationError(
            f"coordinate bound must be an integer of at least 2, got {coord_bound!r}"
        )
    return coord_bound


def _min_area_result(
    k: int, slot: Optional[AreaSlot], coord_bound: int, states: int
) -> MinAreaResult:
    """The minimal k-gon of a search slot, its area checked by Pick."""
    if slot is None:
        raise ConstructionError(
            f"no convex {k}-gon exists with edge coordinates within {coord_bound}"
        )
    c2, witness = _pick_area_witness(slot)
    area = Fraction(c2, 2)
    check = pick_counts(witness)
    if check.area != area:
        raise InvariantError(
            f"witness area {check.area} disagrees with search result {area}"
        )
    return MinAreaResult(
        k=k,
        area=area,
        witness=witness,
        certified=area == Fraction(k, 2) - 1,
        coord_bound=coord_bound,
        states_explored=states,
    )


def _seed_bound(k: int, coord_bound: int, pruned: bool) -> int:
    """Coordinate bound of the seed sweep: small when `pruned`, else the
    full one, which makes the seed sweep the whole search."""
    return min(coord_bound, 2 if k <= 8 else 3) if pruned else coord_bound


def min_area_convex_kgon(
    k: int,
    coord_bound: Optional[int] = None,
    pruned: bool = True,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> MinAreaResult:
    """Minimal area of a strictly convex lattice k-gon, with witness.

    Polygons are enumerated as zero-sum multisets of primitive edge
    directions whose edge vectors have coordinates within `coord_bound`
    (default 6 for k <= 8, else 10).  With `pruned`, a quick small-bound
    sweep seeds a cost cap, and chains that already sweep the seeded
    area are cut; with `pruned=False` the sweep has no cost cap and
    enumerates every polygon that can close within the bound up to the
    8 lattice symmetries, dropping only chains that cannot close and
    chains that start after direction (1, 1) (module docstring).  The
    witness comes back in canonical position, preferring one whose edges
    are all primitive when that ties the minimum.  This is the one row of
    `min_area_table(k, k, ...)`.
    """
    if not isinstance(k, int) or not 3 <= k <= 12:
        raise ValidationError(f"k must be an integer in 3..12, got {k!r}")
    return min_area_table(k, k, coord_bound, pruned, budget)[0]


def min_area_table(
    k_min: int = 3,
    k_max: int = 8,
    coord_bound: Optional[int] = None,
    pruned: bool = True,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> list[MinAreaResult]:
    """Minimal areas for every k in [k_min, k_max] from one sweep.

    With `pruned`, a small-bound seed sweep caps the full one at one
    below the largest seeded area of the range, and each row's seed
    slot is merged back in, so each row's minimum is the full sweep's
    (module docstring); a row the seed misses leaves the full sweep
    uncapped.  Every row shares one `states_explored`, the transitions
    of both sweeps.
    """
    if not (isinstance(k_min, int) and isinstance(k_max, int) and 3 <= k_min <= k_max <= 12):
        raise ValidationError(f"need 3 <= k_min <= k_max <= 12, got {k_min!r}..{k_max!r}")
    coord_bound = _coord_bound(k_max, coord_bound)
    meter = SearchMeter(budget, "polygon search", "transitions")

    rows = range(k_min, k_max + 1)
    seed_bound = _seed_bound(k_max, coord_bound, pruned)
    found = _sweep_areas(k_max, seed_bound, None, meter)
    slots = [found.get(k) for k in rows]
    if seed_bound < coord_bound:
        cap = None if None in slots else max(slot[False][0] for slot in slots) - 1
        found = _sweep_areas(k_max, coord_bound, cap, meter)
        slots = [_merge_slots(found.get(k), slot) for k, slot in zip(rows, slots)]
    return [_min_area_result(k, slot, coord_bound, meter.spent) for k, slot in zip(rows, slots)]


def i_of_k(k: int) -> int:
    """Interior lattice points of the minimal-area convex k-gon.

    Computed as A(k) + (2 - k)/2, which presumes the minimizer's
    boundary points are exactly its k corners; the witness's own Pick
    counts are required to confirm that, so a failure here would flag
    a minimal polygon with a non-primitive edge.
    """
    res = min_area_convex_kgon(k)
    value = res.area + Fraction(2 - k, 2)
    if value.denominator != 1 or value < 0:
        raise InvariantError(f"interior count for k={k} came out as {value}")
    counts = pick_counts(res.witness, self_check=True)
    if counts.boundary != k or counts.interior != int(value):
        raise InvariantError(
            f"minimal {k}-gon witness has counts {counts}, "
            f"inconsistent with interior {value}"
        )
    return int(value)


@dataclass(frozen=True)
class SymmetricInteriorResult:
    """Minimum interior count over centrally symmetric convex 2m-gons.

    `witness` is None only in the degenerate two_m=2 case, where the
    optimum is the segment spanned by a primitive vector and its
    negation, with the origin as its single interior point.
    `states_explored` counts the transitions of both the seed sweep and
    the full sweep.
    """

    two_m: int
    interior: int
    witness: Optional[LatticePolygon]
    witness_vertices: tuple[IntVec, ...]
    all_primitive: bool
    certified: bool
    coord_bound: int
    states_explored: int

    @property
    def f(self) -> int:
        """f(m) = (interior + 1) / 2, integral because the minimum count
        is odd, which this checks."""
        if self.interior % 2 != 1:
            raise InvariantError(f"symmetric minimum interior count {self.interior} is even")
        return (self.interior + 1) // 2


def _sweep_symmetric(
    m_target: int, coord_bound: int, cap: Optional[int], meter: SearchMeter
) -> dict[tuple[int, int, int, bool], tuple[int, tuple]]:
    """Run the half-chain sweep, spending its transitions on `meter`;
    return the finished half-chains (those with `m_target` edges), keyed
    (m_target, x, y, all primitive) with their (cost, link) in insertion
    order.

    A finished half-chain is set aside in store `m_target`, which no
    layer walks, as soon as it is made, and a half-chain that cannot
    reach `m_target` edges on the directions left is dropped, so each
    layer visits only half-chains that can still finish.  The root
    starts half-chains only on the directions (1, 0) through (1, 1),
    angles in [0, pi/4], and every centrally symmetric polygon has an
    image under the 8 lattice symmetries whose half-chain starts there
    (module docstring).  `cap` is the largest cost a half-chain may
    carry; None keeps every half-chain that starts there.  It spends as
    `_sweep_areas` does, but its stores key the all-primitive flag
    beside the sum instead of ranking it, so each sum keeps its least
    non-primitive chain for the witness pick (module docstring,
    "Layered stores").
    """
    # the root starts half-chains on directions (1, 0) through (1, 1)
    # only (module docstring), and not in the last m_target - 1 layers
    root_layers = _reserve_root_steps(
        meter, coord_bound, upper_half_only=True, rootless=m_target - 1
    )
    dirs = _primitive_directions(coord_bound, upper_half_only=True)
    costs, links = _rooted_stores(m_target + 1, (0, 0, True))
    for i, d in enumerate(dirs):
        if i == root_layers:
            costs[0].clear()
            links[0].clear()
        dx, dy = d
        mult_cap = coord_bound // max(abs(dx), abs(dy))
        # a half-chain takes at most one edge per direction still to come
        for j in range(m_target - (len(dirs) - i)):
            costs[j].clear()
            links[j].clear()
        ops = 0
        for j in range(m_target - 1, -1, -1):
            here, here_links = costs[j], links[j]
            ahead, ahead_links = costs[j + 1], links[j + 1]
            get = ahead.get
            for key, cost in here.items():
                wx, wy, prim = key
                cr = wx * dy - wy * dx
                # directions confined to a half-plane sweep strictly left
                if cr <= 0 and j:
                    raise InvariantError("half-plane chain lost convexity")
                # each step adds cr - 1: -1 from the root, >= 0 after it;
                # runs are counted as in `_sweep_areas`
                step = cr - 1
                top = mult_cap
                if cap is not None and cost + mult_cap * step > cap:
                    top = (cap - cost) // step
                    ops += 1
                    if not top:
                        continue
                ops += top
                # step 1 keeps the primitive flag, and a longer run clears it
                nc, nwx, nwy = cost + step, wx + dx, wy + dy
                nkey = (nwx, nwy, prim)
                old = get(nkey)
                if old is None or nc < old:
                    ahead[nkey] = nc
                    ahead_links[nkey] = (here_links[key], d, 1)
                if top > 1:
                    for mult in range(2, top + 1):
                        nc += step
                        nwx += dx
                        nwy += dy
                        nkey = (nwx, nwy, False)
                        old = get(nkey)
                        if old is None or nc < old:
                            ahead[nkey] = nc
                            ahead_links[nkey] = (here_links[key], d, mult)
        meter.spend(ops, lambda: "no symmetric polygon completed yet")
    finished_links = links[m_target]
    return {
        (m_target, wx, wy, prim): (cost, finished_links[wx, wy, prim])
        for (wx, wy, prim), cost in costs[m_target].items()
    }


def _even_finals(finished: dict) -> list[tuple[int, bool, tuple]]:
    """(cost, all primitive, link) of the finished half-chains whose sum
    is even, the ones that close into a polygon centered on a lattice
    point."""
    return [
        (cost, prim, link)
        for (_j, wx, wy, prim), (cost, link) in finished.items()
        if wx % 2 == 0 and wy % 2 == 0
    ]


def _centred_half(link: tuple) -> list[IntVec]:
    """The first half of the corners of the polygon a finished half-chain
    closes into, centred on the origin: the chain's corners less half its
    sum S, which is even, S/2 itself left out as the negation of -S/2."""
    corners = _chain_corners(link)
    sx, sy = corners.pop()
    return [(x - sx // 2, y - sy // 2) for x, y in corners]


def min_interior_symmetric(
    two_m: int,
    coord_bound: int = 6,
    prefer_primitive: bool = False,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> SymmetricInteriorResult:
    """Least interior lattice point count of a symmetric convex 2m-gon.

    A polygon symmetric about the origin is determined by one edge
    direction per antipodal pair; taking the representatives with angle
    in [0, 180) and sweeping them in order gives a half-chain whose
    doubled-area sum equals the full area (the offset to the true start
    vertex -S/2 cancels against the closing half).  Lattice symmetry of
    the center forces the half-chain sum S to be even.  Interior count
    is A - (sum of multiplicities) + 1 by Pick, and the origin is always
    interior, so 1 certifies itself as the global floor.

    A seed sweep at coordinate bound 2 caps the costs of the full sweep
    (module docstring).  With `prefer_primitive`, a witness whose edges
    are all primitive is returned whenever one attains the minimum.
    """
    if not isinstance(two_m, int) or two_m < 2 or two_m % 2 != 0 or two_m > 16:
        raise ValidationError(f"two_m must be an even integer in 2..16, got {two_m!r}")
    if isinstance(coord_bound, bool) or not isinstance(coord_bound, int) or coord_bound < 1:
        raise ValidationError(
            f"coordinate bound must be an integer of at least 1, got {coord_bound!r}"
        )
    meter = SearchMeter(budget, "polygon search", "transitions")
    if two_m == 2:
        return SymmetricInteriorResult(
            two_m=2,
            interior=1,
            witness=None,
            witness_vertices=((1, 0), (-1, 0)),
            all_primitive=True,
            certified=True,
            coord_bound=coord_bound,
            states_explored=0,
        )
    m_target = two_m // 2
    seed_bound = min(coord_bound, 2)
    finals = _even_finals(_sweep_symmetric(m_target, seed_bound, None, meter))
    if seed_bound < coord_bound:
        cap = min((cost for cost, _prim, _link in finals), default=None)
        finals = _even_finals(_sweep_symmetric(m_target, coord_bound, cap, meter))
    if not finals:
        raise ConstructionError(
            f"no symmetric {two_m}-gon with even half-sum exists within bound {coord_bound}"
        )
    min_cost = min(cost for cost, _prim, _link in finals)
    prim_ties = any(prim for cost, prim, _link in finals if cost == min_cost)
    interior = min_cost + 1
    if interior < 1:
        raise InvariantError(f"interior count {interior} below the origin floor")
    want_prim = prefer_primitive and prim_ties

    candidates = [
        (prim, link)
        for cost, prim, link in finals
        if cost == min_cost and (prim or not want_prim)
    ]
    best = _most_compact((_centred_half(link) for _prim, link in candidates), translate=False)
    if best is None:
        raise InvariantError(f"minimal symmetric {two_m}-gon has no witness chain")
    prim = candidates[best[0]][0]
    witness = best[1]
    counts = pick_counts(witness)
    if counts.interior != interior:
        raise InvariantError(
            f"witness interior {counts.interior} disagrees with search cost {interior}"
        )
    if not witness.is_centrally_symmetric():
        raise InvariantError("witness lost its central symmetry")
    return SymmetricInteriorResult(
        two_m=two_m,
        interior=interior,
        witness=witness,
        witness_vertices=witness.vertices,
        all_primitive=prim,
        certified=interior == 1,
        coord_bound=coord_bound,
        states_explored=meter.spent,
    )


def f_of_m(m: int) -> int:
    """Half of (minimum symmetric interior count + 1), from
    `SymmetricInteriorResult.f`."""
    if isinstance(m, bool) or not isinstance(m, int) or not 1 <= m <= 8:
        raise ValidationError(f"m must be an integer in 1..8, got {m!r}")
    return min_interior_symmetric(2 * m).f


def cubic_ratio_exceeds_floor(k: int, area: Fraction) -> bool:
    """Strict exact check that area/k^3 clears 1/(8*pi^2).

    Compares against MIN_AREA_CUBIC_FLOOR, a rational that is provably
    at least 1/(8*pi^2), so a True answer is a certificate.  k must be
    an integer of at least 3, the fewest corners of a polygon, and area
    a nonnegative int or Fraction.
    """
    if isinstance(k, bool) or not isinstance(k, int) or k < 3:
        raise ValidationError(f"k must be an integer of at least 3, got {k!r}")
    if isinstance(area, bool) or not isinstance(area, (int, Fraction)) or area < 0:
        raise ValidationError(f"area must be a nonnegative int or Fraction, got {area!r}")
    return Fraction(area) / k**3 > MIN_AREA_CUBIC_FLOOR
