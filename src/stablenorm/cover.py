"""Shortest closed walks of a given class in the Z^2-cover of a graph.

One search answers the question both graph families ask: the shortest
loop in a homology class.  On the toral geodesic graph it checks that
nothing beats the prescribed lengths; on the canyon graph it measures
the marked lengths the corridors realise.

A graph is compiled into a `SearchIndex` by one function,
`build_search_index`, from blocks of edges: each `IndexBlock` holds a
maker of its edge rows and, read from them or worked out, its distinct
rate points and crossing-edge ends.  Made at once: the node positions,
the start nodes and the lower bounds that guide the search.  Built on
first expansion: both orientations of every edge as labelled steps with
their integer period shifts, from the blocks' makers.
`shortest_cover_cycle` runs A* from each endpoint of a period-crossing
edge, which every cycle of a nonzero class must visit, under one bar:
the caller's cost cutoff, lowered by each walk found; a query whose
root bound already meets the bar ends before the steps are built.

The lower bounds come from one rate hull, the origin-symmetric hull of
the steps' displacement-per-cost points, whose gauge is the graph's
stable norm (Burago).  Its facet normals (`gauge_normals`) give the A*
heuristic, zero when the hull is flat; its support on the axes gives
the per-axis rates that size the `spectrum` box; and the convergence
experiment samples the canyon's prescribed hull through the same
helper.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Callable, Hashable, Iterable, Optional, Sequence

from stablenorm.errors import SearchMeter
from stablenorm.tolerances import DEGENERATE_FACET, HEUR_DEFLATE, PRUNE_RTOL, RATE_POINT_DIGITS, ZERO_ADVANCE

Point = tuple[float, float]

#: Most states one cover search may push, over all its starts: at under
#: 300 B a state, its heap, distances and links stay under 300 MB.
_MAX_COVER_PUSHES = 1_000_000

#: The normals `gauge_normals` returns for a flat hull: the zero gauge.
FLAT_GAUGE: tuple[Point, ...] = ((0.0, 0.0),)


#: A search-index row (u, v, weight, dx, dy, forward, backward), and a
#: step out of a node (neighbor, weight, dx, dy, label).
Row = tuple[int, int, float, int, int, Hashable, Hashable]
Step = tuple[int, float, int, int, Hashable]


@dataclass(frozen=True)
class IndexBlock:
    """A run of edges as `build_search_index` takes it.

    `rows()` makes the run's rows (u, v, weight, dx, dy, forward,
    backward): from u to v the edge's lift crosses (dx, dy) periods, and
    the steps u -> v and v -> u carry the labels `forward` and
    `backward`.  The index keeps `rows`, so it must pickle: no lambda or
    local function.  `points` are the rows' distinct rate points, lifted
    displacement per unit weight, in edge order; `x_ends` and `y_ends`
    the ends of the rows crossing the x and the y period.
    """

    rows: Callable[[], Iterable[Row]]
    points: Sequence[Point]
    x_ends: Iterable[int]
    y_ends: Iterable[int]


def edge_block(xs: Sequence[float], ys: Sequence[float], rows: Callable[[], Iterable[Row]]) -> IndexBlock:
    """The block of the rows `rows()` makes over nodes at (`xs[i]`,
    `ys[i]`), its rate points and crossing ends read by calling `rows`
    once."""
    points: dict[Point, None] = {}
    x_ends: set[int] = set()
    y_ends: set[int] = set()
    for u, v, w, dx, dy, _forward, _backward in rows():
        points[((xs[v] + dx - xs[u]) / w, (ys[v] + dy - ys[u]) / w)] = None
        # every cycle with nonzero x-displacement uses an edge whose
        # shift has a nonzero x component, so it passes through one of
        # these endpoints; starting only there loses nothing
        if dx != 0:
            x_ends.update((u, v))
        if dy != 0:
            y_ends.update((u, v))
    return IndexBlock(rows, tuple(points), x_ends, y_ends)


@dataclass(frozen=True, eq=False)
class SearchIndex:
    """What every cover search on one graph reads; `build_search_index`
    makes it.

    `normals` are the `gauge_normals` of the edges' rate points; `rates`
    are the least cost per unit of x and of y advance on that hull, inf
    on an axis no edge advances along.  `x_starts` and `y_starts` are
    the endpoints of edges crossing the x and y period, in search order.
    These, with the node positions `xs` and `ys`, are made with the
    index.

    `adj[i]` lists the steps out of node i as (neighbor, weight, dx, dy,
    label), in edge order, both orientations of every edge; (dx, dy)
    counts the periods the step's lift crosses.  It is built on first
    read, by calling each block's maker in `rows`, and kept: a query
    whose root bound meets its bar never reads it.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    rates: tuple[float, float]
    normals: tuple[Point, ...]
    x_starts: tuple[int, ...]
    y_starts: tuple[int, ...]
    rows: tuple[Callable[[], Iterable[Row]], ...] = field(repr=False)

    @cached_property
    def adj(self) -> tuple[tuple[Step, ...], ...]:
        # steps out of each node, grown as tuples, so a node without
        # steps shares the empty tuple
        adj: list[tuple[Step, ...]] = [()] * len(self.xs)
        for rows in self.rows:
            for u, v, w, dx, dy, forward, backward in rows():
                adj[u] += ((v, w, dx, dy, forward),)
                adj[v] += ((u, w, -dx, -dy, backward),)
        return tuple(adj)


def build_search_index(
    xs: tuple[float, ...],
    ys: tuple[float, ...],
    blocks: Sequence[IndexBlock],
    start_key: Optional[Callable[[int], object]] = None,
) -> SearchIndex:
    """Compile a periodic graph for `shortest_cover_cycle`: node i at
    (`xs[i]`, `ys[i]`) in the unit square, its edges given block by
    block.  Start lists are sorted by `start_key` on node numbers, by
    number when it is None."""
    # distinct rate points, in edge order; a background grid makes up
    # most edges but only a handful of rate points
    points = dict.fromkeys(chain.from_iterable(block.points for block in blocks))
    # a cycle of class (a, b) moves its lift by exactly a in x, and each
    # step advances at most max|p_x| per unit weight, so the cycle costs
    # at least |a| / max|p_x|; same in y
    reach_x = max((abs(px) for px, _py in points), default=0.0)
    reach_y = max((abs(py) for _px, py in points), default=0.0)
    return SearchIndex(
        xs=xs,
        ys=ys,
        rates=(
            1 / reach_x if reach_x > ZERO_ADVANCE else math.inf,
            1 / reach_y if reach_y > ZERO_ADVANCE else math.inf,
        ),
        normals=gauge_normals(points),
        x_starts=tuple(sorted(set().union(*(block.x_ends for block in blocks)), key=start_key)),
        y_starts=tuple(sorted(set().union(*(block.y_ends for block in blocks)), key=start_key)),
        rows=tuple(block.rows for block in blocks),
    )


def gauge_normals(points: Iterable[Point]) -> tuple[Point, ...]:
    """Facet normals of the origin-symmetric hull of `points`.

    The hull is that of the points and their negatives; its gauge at u
    is max(a . u) over the returned normals a.  Fed the steps' rate
    points it lower-bounds the cost of any path closing a remaining
    displacement: each step's rate point lies in the hull, so its
    weight is at least the gauge of its displacement, and the gauge is
    subadditive.  A flat hull, as when every point is collinear, gives
    FLAT_GAUGE, which is zero everywhere.
    """
    reps: dict[Point, Point] = {}
    for dx, dy in points:
        if abs(dx) + abs(dy) <= ZERO_ADVANCE:
            continue
        for px, py in ((dx, dy), (-dx, -dy)):
            reps.setdefault((round(px, RATE_POINT_DIGITS), round(py, RATE_POINT_DIGITS)), (px, py))
    hull = convex_hull(reps.values())
    if len(hull) < 3:
        return FLAT_GAUGE
    normals = []
    for i, (px, py) in enumerate(hull):
        qx, qy = hull[(i + 1) % len(hull)]
        t = qx * py - qy * px
        if abs(t) < DEGENERATE_FACET:
            return FLAT_GAUGE
        # a . p = a . q = 1, so a . r is the gauge on this facet's cone
        normals.append(((py - qy) / t, (qx - px) / t))
    return tuple(normals)


def convex_hull(points: Iterable[Point]) -> list[Point]:
    """Vertices of the convex hull, counterclockwise from the lowest-x
    point (Andrew's monotone chain); collinear points are dropped, and
    fewer than three distinct points come back sorted."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def half(seq):
        out: list[Point] = []
        for p in seq:
            while len(out) >= 2:
                (ox, oy), (px, py) = out[-2], out[-1]
                if (px - ox) * (p[1] - oy) - (py - oy) * (p[0] - ox) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def shortest_cover_cycle(
    ix: SearchIndex,
    a: int,
    b: int,
    bar: float,
) -> Optional[tuple[float, tuple[tuple[int, int, int], ...], list[Hashable]]]:
    """Shortest closed walk whose lift crosses (a, b) != (0, 0) periods.

    Equals the minimum over start nodes of the cover distance from the
    node's origin lift to its (a, b)-translate.  Walks costing `bar` or
    more are never completed, and each walk found lowers the bar to its
    cost less PRUNE_RTOL, so a later one must beat it by more than that
    tie margin.  Weights are positive and the heuristic admissible, so
    finitely many states lie under a finite bar, so it bounds the
    search; one that pushes more than `_MAX_COVER_PUSHES` states raises
    `SearchBudgetError` instead.

    Returns (length, states, labels) for the best walk found, or None
    when nothing costs less than `bar`: `states` are its (node, shift
    x, shift y) lifts from the start, `labels` its steps' labels.
    """
    xs = ix.xs
    ys = ix.ys
    normals = ix.normals
    found = None

    if a != 0 and (b == 0 or len(ix.x_starts) <= len(ix.y_starts)):
        starts = ix.x_starts
    else:
        starts = ix.y_starts
    deflate = 1 - HEUR_DEFLATE
    inf = math.inf
    # the heuristic is the `gauge_normals` gauge of the remaining
    # displacement (rx, ry), deflated; on every push it is inlined as a
    # loop with builtin `max` semantics (the first normal's value, raised
    # only by a strictly greater one), so both forms give the same float
    ax0, ay0 = normals[0]
    more = normals[1:]
    # the pushes of every start, and each heap's tie-break
    tick = 0
    push_cap = _MAX_COVER_PUSHES
    for start in starts:
        goal_x = xs[start] + a
        goal_y = ys[start] + b
        rx = goal_x - xs[start]
        ry = goal_y - ys[start]
        h = max(ax * rx + ay * ry for ax, ay in normals)
        # a dead start: its root bound is already at the bar.  Every
        # start's root bound is the gauge of (a, b), up to a rounding
        # far below HEUR_DEFLATE, and the bar only falls, so no later
        # start can complete a walk under it either
        if h * deflate >= bar:
            break
        # read only here: a query that ends at its root never builds it
        adj = ix.adj

        dist: dict[tuple[int, int, int], float] = {}
        pred: dict[tuple[int, int, int], tuple] = {}
        state0 = (start, 0, 0)
        target = (start, a, b)
        dist[state0] = 0.0
        heap = [(h * deflate, tick, 0.0, state0)]
        while heap:
            f, _t, g, state = heapq.heappop(heap)
            if f >= bar:
                break
            if g > dist.get(state, inf):
                continue
            if state == target:
                bar = g * (1 - PRUNE_RTOL)
                path = []
                cur = state
                while cur != state0:
                    prev, label = pred[cur]
                    path.append((cur, label))
                    cur = prev
                path.reverse()
                states = (state0,) + tuple(st for (st, _l) in path)
                found = (g, states, [label for (_st, label) in path])
                break
            node, sx, sy = state
            for (nbr, w, dx, dy, label) in adj[node]:
                ng = g + w
                nsx = sx + dx
                nsy = sy + dy
                nstate = (nbr, nsx, nsy)
                if ng < dist.get(nstate, inf):
                    rx = goal_x - (xs[nbr] + nsx)
                    ry = goal_y - (ys[nbr] + nsy)
                    h = ax0 * rx + ay0 * ry
                    for ax, ay in more:
                        v = ax * rx + ay * ry
                        if v > h:
                            h = v
                    nf = ng + h * deflate
                    if nf >= bar:
                        continue
                    dist[nstate] = ng
                    pred[nstate] = (state, label)
                    tick += 1
                    if tick > push_cap:
                        SearchMeter(push_cap, f"cover search of class ({a}, {b})", "states pushed").spend(tick)
                    heapq.heappush(heap, (nf, tick, ng, nstate))
    return found
