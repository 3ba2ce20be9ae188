"""Geodesic graphs of closed flat-torus geodesics, with exact geometry.

For pairwise non-proportional primitive classes h_1..h_k, the closed
geodesics through a common base point are the lines t*(a_i, b_i) on
R^2/Z^2.  Two such geodesics meet in exactly |det(h_i, h_j)| points,
and on gamma_i those points sit at parameters r/|det| with exact
rational values.  The whole graph (vertices, segment fractions q_ij,
lift displacements) is computed exactly, as integer numerators over one
common denominator D, so the stated identities (sum of q over a class
is 1, displacements sum to h_i) hold exactly, not approximately.  The
graph keeps D as `denom`; its integer tables (vertex numerators, scaled
displacements, deck shifts, crossings) are all over D.

Cycle machinery: shortest representatives of integral classes via
the certified A* search of `stablenorm.cover` in the Z^2-cover, and a
depth-first enumeration of cyclically reduced cycles up to an edge
bound that yields the minimal excess length over the prescribed norm
along with the tube constants zeta, epsilon, theta used by the
corridor metric construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from numbers import Real
from typing import Optional, Sequence

from stablenorm.cover import SearchIndex, build_search_index, edge_block, shortest_cover_cycle
from stablenorm.errors import InvariantError, SearchMeter, ValidationError
from stablenorm.norms import IntegralClass, NormSpec, integral_class, norm_evaluator
from stablenorm.tolerances import FLOOR_SLACK, SEARCH_RTOL

FracVec = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class GraphEdge:
    """One geodesic segment between consecutive intersection points.

    The segment covers the parameter interval of width `q` on its
    geodesic, so its length is q * ell_i and its lift displacement is
    q * h_i, stored exactly.
    """

    tail: int
    head: int
    cls: int
    q: Fraction
    disp: FracVec
    length: float


@dataclass(frozen=True)
class ToralGeodesicGraph:
    """Vertices in [0,1)^2 with exact rational coordinates, segment edges,
    the class table (h_i, ell_i), and `denom`, the common denominator D
    of `build_graph`: every coordinate, q and displacement is an int
    over D, and `scaled` is the one way from those Fractions to ints."""

    vertices: tuple[FracVec, ...]
    edges: tuple[GraphEdge, ...]
    classes: tuple[tuple[IntegralClass, float], ...]
    denom: int

    def scaled(self, f: Fraction) -> int:
        """f * denom as an int; InvariantError when f is off the 1/denom grid."""
        scale, rest = divmod(self.denom, f.denominator)
        if rest:
            raise InvariantError(f"{f} * {self.denom} = {f * self.denom} is not integral")
        return f.numerator * scale

    @cached_property
    def oriented(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Per vertex: outgoing oriented steps (edge index, sign, to)."""
        adj: list[list[tuple[int, int, int]]] = [[] for _ in self.vertices]
        for i, e in enumerate(self.edges):
            adj[e.tail].append((i, +1, e.head))
            adj[e.head].append((i, -1, e.tail))
        return tuple(tuple(a) for a in adj)

    @cached_property
    def points(self) -> tuple[tuple[int, int], ...]:
        """Each vertex's coordinates times `denom`, as exact ints."""
        return tuple((self.scaled(x), self.scaled(y)) for x, y in self.vertices)

    @cached_property
    def shifts(self) -> tuple[tuple[int, int], ...]:
        """Each edge's integer deck transformation: its displacement
        minus the jump between its end points, which `denom` divides."""
        d, points = self.denom, self.points
        table = []
        for e, (dx, dy) in zip(self.edges, self.scaled_disps):
            sx = dx - points[e.head][0] + points[e.tail][0]
            sy = dy - points[e.head][1] + points[e.tail][1]
            if sx % d or sy % d:
                raise InvariantError(f"non-integral deck shift ({Fraction(sx, d)},{Fraction(sy, d)})")
            table.append((sx // d, sy // d))
        return tuple(table)

    @cached_property
    def scaled_disps(self) -> tuple[tuple[int, int], ...]:
        """Each edge's displacement times `denom`, as exact ints."""
        return tuple((self.scaled(x), self.scaled(y)) for x, y in (e.disp for e in self.edges))

    @cached_property
    def crossings(self) -> tuple[tuple[int, int], ...]:
        """Each edge's signed crossing numbers with the reference circles
        {x = x0} and {y = y0}, traversed from its tail.

        The levels x0, y0 sit mid-way across the widest gaps of the
        vertex coordinates, so no step starts or ends on a circle, and a
        step from p along d crosses floor(p + d - x0) - floor(p - x0)
        times.  That count does not change when p moves by an integer,
        so it is a property of the edge; reversing the step negates it.
        The segment is taken from the class geometry, q_e * h_i, not
        from the stored displacement, which keeps the count independent
        of `disp`.

        All of it is integer arithmetic: every coordinate, segment and
        level is an int over 2D, D = `denom` (the factor 2 keeps a gap's
        midpoint whole), and each floor is a floor division by 2D.
        """
        period = 2 * self.denom
        points = [(2 * x, 2 * y) for x, y in self.points]
        x0 = _widest_gap_midpoint(sorted({x for x, _y in points}), period)
        y0 = _widest_gap_midpoint(sorted({y for _x, y in points}), period)
        table = []
        for e in self.edges:
            h, _ell = self.classes[e.cls]
            seg = 2 * self.scaled(e.q)
            px, py = points[e.tail]
            table.append((
                (px + seg * h.a - x0) // period - (px - x0) // period,
                (py + seg * h.b - y0) // period - (py - y0) // period,
            ))
        return tuple(table)

    @cached_property
    def search_index(self) -> SearchIndex:
        """Cover-search data, made on the first `minimal_cycle` call,
        its steps when a search first expands a node: vertex coordinates
        as positions, deck shifts as step shifts, and (edge index,
        orientation) as step labels, all in one block.  Int true
        division x / D rounds a position as the float of its Fraction."""
        d = self.denom
        xs = tuple(x / d for x, _y in self.points)
        ys = tuple(y / d for _x, y in self.points)
        return build_search_index(xs, ys, [edge_block(xs, ys, partial(_index_rows, self.edges, self.shifts))])

    def to_jsonable(self) -> dict:
        return {
            "vertices": [[str(x), str(y)] for (x, y) in self.vertices],
            "edges": [
                {
                    "tail": e.tail,
                    "head": e.head,
                    "class_index": e.cls,
                    "q": str(e.q),
                    "displacement": [str(e.disp[0]), str(e.disp[1])],
                    "length": e.length,
                }
                for e in self.edges
            ],
            "classes": [
                {"class": [h.a, h.b], "length": ell} for (h, ell) in self.classes
            ],
        }


def _index_rows(edges: Sequence[GraphEdge], shifts: Sequence[tuple[int, int]]):
    """The search-index rows of a toral graph's edges and deck shifts."""
    for i, (e, (sx, sy)) in enumerate(zip(edges, shifts)):
        yield e.tail, e.head, e.length, sx, sy, (i, 1), (i, -1)


def build_graph(classes: Sequence[tuple[IntegralClass, float]]) -> ToralGeodesicGraph:
    """Build the geodesic graph of the given primitive classes.

    Geodesic i is cut at the parameters r/|det(h_i, h_j)| for every
    other class j.  With D the lcm of the pairwise |det|, every cut
    parameter, every segment fraction q and every torus point
    (t*a_i mod 1, t*b_i mod 1) is an int numerator over D, so the
    cuts, the vertex identification and the vertex order are integer
    work.  The Fractions of the vertices, of q and of the displacements
    q*h_i are made at the end, one object per distinct numerator, and
    the graph keeps D as `denom`.

    D is also the lcm of the vertex denominators and the lcm of the
    displacement denominators, so no table built over it is coarser or
    finer than the graph: the vertex at parameter 1/|det(h_i, h_j)| on a
    primitive h_i = (a, b) sits at (a, b)/|det| mod 1, whose coordinate
    denominators have lcm |det|; and the prefix sums of geodesic i's q
    hit every cut r/|det|, while q*h_i has the denominator of q.

    Args:
        classes: pairs (h_i, ell_i); the h_i must be pairwise
            non-proportional primitive `IntegralClass`es and the
            lengths positive finite reals, not bools.

    Returns:
        ToralGeodesicGraph with deterministic lexicographic vertex order
        (the base point (0,0) is always vertex 0) and edges grouped by
        class in parameter order.
    """
    if not classes:
        raise ValidationError("at least one class is required")
    for h, ell in classes:
        if not isinstance(h, IntegralClass):
            raise ValidationError(f"class must be an IntegralClass, got {h!r}")
        if not h.is_primitive:
            raise ValidationError(f"class {h} is not primitive")
        if isinstance(ell, bool) or not isinstance(ell, Real):
            raise ValidationError(f"class {h} length must be a real number, got {ell!r}")
        if not (ell > 0 and math.isfinite(ell)):
            raise ValidationError(f"class {h} has nonpositive length {ell!r}")
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            if classes[i][0].det(classes[j][0]) == 0:
                raise ValidationError(
                    f"classes {classes[i][0]} and {classes[j][0]} are proportional"
                )

    denom = math.lcm(*(abs(g.det(h)) for n, (g, _) in enumerate(classes) for h, _ in classes[:n]))
    # (tail point, head point, class, q), numerators over denom
    raw_edges: list[tuple[tuple[int, int], tuple[int, int], int, int]] = []
    for i, (h, _ell) in enumerate(classes):
        params = {0}
        for j, (g, _) in enumerate(classes):
            if j != i:
                params.update(range(0, denom, denom // abs(h.det(g))))
        cuts = sorted(params) + [denom]
        tail = (0, 0)
        for t0, t1 in zip(cuts, cuts[1:]):
            head = (t1 * h.a % denom, t1 * h.b % denom)
            raw_edges.append((tail, head, i, t1 - t0))
            tail = head

    points = sorted({p for t, hd, _c, _q in raw_edges for p in (t, hd)})
    index = {p: n for n, p in enumerate(points)}
    fracs: dict[int, Fraction] = {}

    def frac(numerator: int) -> Fraction:
        f = fracs.get(numerator)
        if f is None:
            f = fracs[numerator] = Fraction(numerator, denom)
        return f

    edges = []
    for t, hd, c, q in raw_edges:
        h, ell = classes[c]
        edges.append(GraphEdge(
            tail=index[t],
            head=index[hd],
            cls=c,
            q=frac(q),
            disp=(frac(q * h.a), frac(q * h.b)),
            length=float(frac(q)) * ell,
        ))
    coords = tuple((frac(x), frac(y)) for x, y in points)
    return ToralGeodesicGraph(vertices=coords, edges=tuple(edges), classes=tuple(classes), denom=denom)


@dataclass(frozen=True)
class Cycle:
    """Closed edge path as (edge index, orientation) steps."""

    steps: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.steps)

    def homology(self, graph: ToralGeodesicGraph) -> IntegralClass:
        """Sum of oriented lift displacements, exact: the graph's
        per-edge displacements scaled to ints (`scaled_disps`) are
        summed, and the graph's `denom` must divide the total."""
        d = graph.denom
        dx = dy = 0
        for e, s in self.steps:
            sx, sy = graph.scaled_disps[e]
            dx += s * sx
            dy += s * sy
        if dx % d or dy % d:
            raise InvariantError(f"cycle displacement ({Fraction(dx, d)},{Fraction(dy, d)}) is not integral")
        return IntegralClass(dx // d, dy // d)


def _widest_gap_midpoint(levels: list[int], period: int) -> int:
    """Midpoint of the first widest circular gap among the sorted even
    ints `levels` in [0, period), reduced mod period: period / 2 when
    there are none."""
    best_gap, best_mid = 0, period // 2
    for i, v in enumerate(levels):
        nxt = levels[i + 1] if i + 1 < len(levels) else levels[0] + period
        if nxt - v > best_gap:
            best_gap, best_mid = nxt - v, (v + nxt) // 2 % period
    return best_mid


def minimal_cycle(
    graph: ToralGeodesicGraph, h: IntegralClass | tuple[int, int]
) -> Optional[tuple[Cycle, float]]:
    """Shortest cycle in the graph with homology class h, an
    IntegralClass or a pair of ints.

    Runs the A* search of `stablenorm.cover` in the Z^2-cover, from the
    endpoints of period-crossing edges, with lengths bounded by the cost
    of one explicit cycle of class h.  That bound leaves finitely many
    cover states and the search completes every walk under it, so the
    returned minimum is certified global.

    The explicit cycle: with two or more classes, take the first two,
    (h_1, ell_1) and (h_2, ell_2), which are not proportional, so
    d = det(h_1, h_2) != 0 and h = s*h_1 + t*h_2 with s = det(h, h_2)/d
    and t = det(h_1, h)/d.  In the cover, walk from 0 along the lift of
    gamma_1 to s*h_1 = h - t*h_2, then along the lift of gamma_2 to h.
    The turning point lies on lifts of both geodesics, so it lifts a
    vertex, and the walk follows whole edges for a length of
    |s|*ell_1 + |t|*ell_2.  Every class is thus a cycle class.  With one
    class the graph is the loop gamma_1, whose cycles are the n*h_1 of
    length |n|*ell_1.

    Returns:
        (cycle, length), or None when the graph has one class and h is
        not a multiple of it.
    """
    h = integral_class(h)
    if h.is_trivial:
        return Cycle(()), 0.0
    (h1, l1), *rest = graph.classes
    if rest:
        h2, l2 = rest[0]
        upper = (abs(h.det(h2)) * l1 + abs(h1.det(h)) * l2) / abs(h1.det(h2))
    elif h.det(h1) == 0:
        # h = n*h_1 with h_1 primitive, so |n| = gcd(a, b)
        upper = math.gcd(h.a, h.b) * l1
    else:
        return None
    found = shortest_cover_cycle(graph.search_index, h.a, h.b, upper * (1 + SEARCH_RTOL))
    if found is None:
        raise InvariantError(f"no representative of {h} within its two-geodesic bound {upper}")
    length, _states, steps = found
    return Cycle(tuple(steps)), length


@dataclass(frozen=True)
class TubeConstants:
    """Outputs of the corridor-width computation.

    epsilon > 0 always: `compute_zeta_epsilon_theta` rejects a norm
    whose gap is not positive.  epsilon is +inf when no competitor
    cycle exists under the edge bound; theta then falls back to the
    configured cap.
    """

    zeta: float
    edge_bound: int
    epsilon: float
    theta: float
    witness: Optional[Cycle]
    witness_class: Optional[IntegralClass]
    cycles_checked: int
    nodes_expanded: int


def _check_homology_tables(graph: ToralGeodesicGraph) -> None:
    """Certify that the graph's two homology readings, `Cycle.homology`
    and the sum of a walk's oriented `crossings` entries (its algebraic
    intersection numbers with the reference circles), agree on every
    closed walk of the graph, or raise InvariantError naming the first
    edge, in edge order, whose displacement is off the 1/D grid, or else
    the first that disagrees with the potential below.

    Both are sums over a walk's oriented steps, of `scaled_disps` over
    D = `denom` and of `crossings`.  They agree on every closed walk,
    with an integral displacement, exactly when delta(e) =
    scaled_disps[e] - D * crossings[e] sums to zero around every closed
    walk, that is, when delta is a coboundary: delta(e) = phi(head) -
    phi(tail) for an integer vertex potential phi.  A spanning forest
    fixes phi, zero at each root; every edge is then compared with it.
    The non-tree edges close the fundamental cycles, which span all
    cycles, so one O(V + E) pass covers every cycle the search could
    enumerate, and the ones it prunes.
    """
    d = graph.denom
    for i, e in enumerate(graph.edges):
        if d % e.disp[0].denominator or d % e.disp[1].denominator:
            raise InvariantError(
                f"homology cross-check fails at edge {i} ({e.tail} -> {e.head}): displacement "
                f"({e.disp[0]},{e.disp[1]}) is off the 1/{d} grid"
            )
    delta = [
        (dx - d * cx, dy - d * cy)
        for (dx, dy), (cx, cy) in zip(graph.scaled_disps, graph.crossings)
    ]
    phi: list[Optional[tuple[int, int]]] = [None] * len(graph.vertices)
    for root in range(len(phi)):
        if phi[root] is not None:
            continue
        phi[root] = (0, 0)
        stack = [root]
        while stack:
            v = stack.pop()
            px, py = phi[v]
            for e, sg, w in graph.oriented[v]:
                if phi[w] is None:
                    phi[w] = (px + sg * delta[e][0], py + sg * delta[e][1])
                    stack.append(w)
    for i, e in enumerate(graph.edges):
        (hx, hy), (tx, ty) = phi[e.head], phi[e.tail]
        if delta[i] != (hx - tx, hy - ty):
            ca, cb = graph.crossings[i]
            raise InvariantError(
                f"homology cross-check fails at edge {i} ({e.tail} -> {e.head}): displacement "
                f"({e.disp[0]},{e.disp[1]}) and crossings ({ca},{cb}) differ by no vertex potential"
            )


def _min_gap_search(
    graph: ToralGeodesicGraph,
    norm: NormSpec,
    edge_bound: int,
    meter: SearchMeter,
) -> tuple[float, Optional[Cycle], int]:
    """Minimum of L(c) - ||h_c|| over cyclically reduced cycles with at
    most `edge_bound` edges that mix classes or orientations, with its
    witness and the number of such cycles closed; the nodes expanded are
    spent on `meter`.

    Soundness of the pruning: with prescribed class lengths the norm of
    an edge displacement equals the edge length, so the slack
    L(path) - ||delta(path)|| never decreases along a path and equals
    the final gap at closure.  A partial path whose slack already
    reaches the best known gap cannot produce anything smaller.  That
    prune, the edge bound and the node budget are the search's only
    cuts.  No path state outlives its path: besides the pending stack
    and the current path, the search keeps only the norm of each
    distinct displacement it has met.

    One loop runs a depth-first search from each start vertex s0 over
    paths on vertices >= s0, with an explicit stack of pending states
    (move into it, depth, the parent's length and scaled displacement,
    whether the path mixes classes).  A move is one entry of the
    per-vertex table built once per call: (to, step, its reversal,
    scaled dx, scaled dy, edge length, class), with each oriented step
    one (edge, sign) tuple, so a push allocates only the state tuple
    and the no-backtrack test is an identity test of the reversal
    against the last step.  Children are pushed in reverse edge order,
    so they pop in edge order; a pop adds its move's length and
    displacement to the parent's, cuts `steps` back to the parent's
    path and appends its own step.  A popped state back at s0
    closes a cycle when the path is mixed and its last step does not
    undo its first; the cycle is recorded then, before the slack prune,
    with that state's slack as its gap.  Each pop counts one node in a
    local count, spent on the meter at the end or once it passes the
    budget, and only `edge_bound` limits the depth.

    Displacements are carried as ints scaled by the graph's `denom` D,
    so they are exact; the norm of a displacement is evaluated once per
    call at (dx / D, dy / D), which rounds exactly like the float of
    the rational it stands for.  It is evaluated by the one
    `norm_evaluator` compiled for the call, the formula `eval_norm`
    also runs.
    """
    best_gap = math.inf
    best_cycle: Optional[Cycle] = None
    cycles = 0
    nodes = 0
    node_budget = meter.budget
    scale = graph.denom
    norm_of = norm_evaluator(norm)
    norm_at: dict[tuple[int, int], float] = {}
    disps = graph.scaled_disps
    cls_of = [e.cls for e in graph.edges]
    # each edge's two steps, forward then backward: [::sg] puts a step
    # before its reversal
    step_pairs = [((e, 1), (e, -1)) for e in range(len(graph.edges))]
    # per vertex, in reverse edge order, the moves: (to, step, its
    # reversal, scaled dx, scaled dy, edge length, class)
    out = [
        [
            (w, *step_pairs[e][::sg], sg * disps[e][0], sg * disps[e][1], graph.edges[e].length, cls_of[e])
            for e, sg, w in reversed(adj)
        ]
        for adj in graph.oriented
    ]

    for s0 in range(len(graph.vertices)):
        # closure legality under cyclic reduction reads the path's first
        # step, and the no-backtrack test its last
        steps: list[tuple[int, int]] = []
        stack: list[tuple] = [((s0, None, None, 0, 0, 0.0, None), 0, 0.0, 0, 0, False)]
        push = stack.append
        while stack:
            move, depth, length, dx, dy, mixed = stack.pop()
            v, last, _back, sdx, sdy, edge_length, _c = move
            length += edge_length
            dx += sdx
            dy += sdy
            first = None
            if last is not None:
                del steps[depth - 1 :]
                steps.append(last)
                first = steps[0]
            disp_norm = norm_at.get((dx, dy))
            if disp_norm is None:
                disp_norm = norm_at[dx, dy] = norm_of(dx / scale, dy / scale)
            slack = length - disp_norm
            if v == s0 and mixed and last != (first[0], -first[1]):
                cycles += 1
                if slack < best_gap:
                    best_gap, best_cycle = slack, Cycle(tuple(steps))
            nodes += 1
            if nodes > node_budget:
                meter.spend(nodes)
            if slack >= best_gap or depth == edge_bound:
                continue
            first_cls = None if first is None else cls_of[first[0]]
            depth += 1
            for move in out[v]:
                if move[0] < s0 or move[2] is last:
                    continue
                push((move, depth, length, dx, dy, mixed or (first_cls is not None and move[6] != first_cls)))
    meter.spend(nodes)
    return best_gap, best_cycle, cycles


def compute_zeta_epsilon_theta(
    graph: ToralGeodesicGraph,
    norm: NormSpec,
    ell_k: float,
    node_budget: int = 10_000_000,
    theta_cap: float = 0.25,
    cross_check: bool = False,
) -> TubeConstants:
    """Corridor constants of the graph under its prescribing norm.

    zeta is half the shortest segment; the edge bound is
    floor(ell_k / zeta); epsilon is the minimal excess L(c) - ||h_c||
    over edge-bounded mixed cycles (single-class uniform iterates carry
    zero excess by construction and are excluded); theta = epsilon
    divided by twice the edge bound, capped at `theta_cap` when no
    competitor exists.  An `ell_k` below the shortest segment gives an
    edge bound under 2, which no mixed cycle fits, and is rejected.  So
    is a gap of zero or less, which a norm that is not strictly convex
    gives (a straight-edged gauge): no positive theta exists for it.

    With `cross_check`, the graph's two homology computations, lift
    displacements and crossing counts with the reference circles, are
    first certified to agree on every cycle of the graph
    (`_check_homology_tables`); a disagreement raises InvariantError.
    The check runs once per call and does not change the result.
    """
    if isinstance(ell_k, bool) or not (ell_k > 0 and math.isfinite(ell_k)):
        raise ValidationError(f"ell_k must be a positive finite real, got {ell_k!r}")
    if isinstance(theta_cap, bool) or not (theta_cap > 0 and math.isfinite(theta_cap)):
        raise ValidationError(f"theta cap must be a positive finite real, got {theta_cap!r}")
    meter = SearchMeter(node_budget, "cycle enumeration", "nodes")
    zeta = 0.5 * min(e.length for e in graph.edges)
    edge_bound = int(math.floor(ell_k / zeta + FLOOR_SLACK))
    if edge_bound < 2:
        raise ValidationError(f"ell_k {ell_k!r} is below the shortest segment {2 * zeta!r}: no mixed cycle fits")
    if cross_check:
        _check_homology_tables(graph)
    gap, witness, cycles = _min_gap_search(graph, norm, edge_bound, meter)
    witness_class = None if witness is None else witness.homology(graph)
    if gap <= 0:
        raise ValidationError(
            f"epsilon {gap!r} is not positive at witness class {witness_class}: "
            f"the norm is not strictly convex there"
        )
    # no competitor leaves gap = inf and no witness: theta is then the cap
    return TubeConstants(
        zeta=zeta,
        edge_bound=edge_bound,
        epsilon=gap,
        theta=min(gap / (2.0 * edge_bound), theta_cap),
        witness=witness,
        witness_class=witness_class,
        cycles_checked=cycles,
        nodes_expanded=meter.spent,
    )

