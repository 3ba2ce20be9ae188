"""Periodic weighted graphs modeling a corridor-plus-background metric.

The construction mirrors a two-regime picture: a corridor network that
realizes the prescribed class lengths exactly, and an expensive
background grid glued on through connector edges, so that any cycle
leaving the corridors pays a full background crossing.  Corridor
intersections are shared nodes; switching corridors there is free,
which keeps the switch cost within any nonnegative hub budget.
`CanyonStage` is the one recipe from a norm to its stage-k canyon.

Marked lengths come from shortest cycles with prescribed displacement
in the Z^2 cover.  Every query bounds its search by the cost of the
cheaper of two constructive cycles: grid row and column loops, and on a
canyon the corridor walk s h_i + t h_j over adjacent vertices of the
prescribed polygon P_k = conv{+-h_i / l_i}.  The per-start searches are
guided by an admissible displacement-rate heuristic, the rate-hull
gauge; on a canyon whose rate hull is P_k the corridor walk costs that
gauge, so the search proves it optimal at its root.

Corridor edges carry their exact rational share of the class length;
witness lengths are recomputed from those shares, so a pure corridor
loop reports the prescribed length bit for bit.

Every graph has this one shape: explicit edges, then one background
torus grid, then more explicit edges; the uniform grid is the shape
with no explicit edges.  The grid is kept as arithmetic, not as edge
objects: its resolution, its one weight and the number of its first
node, with one formula for its node numbers and one for its edges
(`TorusGrid.node`, `TorusGrid.ends`).  It is nearly every edge of a
canyon, yet the search index needs at once only its few rate points
(Burago, "Periodic metrics"), so `pg.edges` makes a grid edge only
when one is read, the index's steps read the grid's edges as rows
only when a search first needs them, and validation and the witness
recompute read the grid straight from that arithmetic.  Its node
positions and its loop cost follow from the same arithmetic, so the
graph stores neither: `positions` places only the nodes outside the
grid, and each query's bound is the cost of its grid-loop or corridor
seed.

A query does only the work its answer needs.  The first query makes the
search index's positions, starts and bounds; its steps wait for the
first search that gets past its root, and a grid-loop walk is made only
when it is the answer.  On a canyon whose rate hull is P_k, every
query ends at its root on its corridor seed.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import chain, repeat
from numbers import Real
from operator import add
from typing import Iterable, Mapping, Optional

from stablenorm.cover import (
    IndexBlock,
    SearchIndex,
    build_search_index,
    convex_hull,
    edge_block,
    shortest_cover_cycle,
)
from stablenorm.errors import ConstructionError, InvariantError, SearchMeter, ValidationError
from stablenorm.norms import IntegralClass, NormSpec, integral_class, leading_primitive_classes, tie_groups
from stablenorm.tolerances import (
    FLOOR_SLACK,
    GAUGE_SKIP_RTOL,
    GROUP_RTOL,
    IDENTITY_RTOL,
    PRUNE_RTOL,
    SEARCH_RTOL,
    TINY_LENGTH,
)
from stablenorm.toral_graph import ToralGeodesicGraph, build_graph, compute_zeta_epsilon_theta

NodeId = tuple
IntVec = tuple[int, int]

#: Most candidate classes `spectrum` measures, one cover search each.
_MAX_SPECTRUM_CLASSES = 10_000
#: Most steps a seed walk may take: at about 370 B a step, its states
#: and labels stay under 400 MB.
_MAX_SEED_STEPS = 1_000_000

_MIN_GRID_RESOLUTION = 64


@dataclass(frozen=True, slots=True)
class PeriodicEdge:
    """Undirected edge of the quotient graph.

    `disp` counts the Z^2 period crossings when traversed from u to v;
    the reverse traversal negates it.  Corridor edges remember their
    class index and exact length share for exact recomputation.
    """

    u: NodeId
    v: NodeId
    weight: float
    disp: IntVec
    kind: str
    corridor: Optional[tuple[int, Fraction]] = None


def _check_resolution(n, least: int) -> None:
    if not isinstance(n, int) or n < least:
        raise ValidationError(f"grid resolution must be an integer >= {least}, got {n!r}")


@dataclass(frozen=True, slots=True)
class TorusGrid:
    """The N x N torus grid of a periodic graph, kept as arithmetic.

    Grid node (i, j) is node `first + i n + j` of the graph (`node`),
    and it sits at (`coords[i]`, `coords[j]`) = (i/n, j/n).  Counted
    from the first grid edge, grid edge 2 (i n + j) joins it to (i + 1,
    j) and the next one joins it to (i, j + 1), each of weight `weight`
    and crossing the period where it wraps (`ends`).  Every other view
    of the grid, its `PeriodicEdge`s, its search-index rows and its
    loops, reads those two.  `label` below is the graph's edge number
    of the first grid edge.
    """

    first: int
    n: int
    weight: float

    def __post_init__(self):
        _check_resolution(self.n, 2)
        if isinstance(self.first, bool) or not isinstance(self.first, int) or self.first < 0:
            raise ValidationError(f"first grid node must be a nonnegative integer, got {self.first!r}")

    def node(self, i: int, j: int) -> int:
        """The graph's number of grid node (i mod n, j mod n)."""
        n = self.n
        return self.first + i % n * n + j % n

    def ends(self, k: int) -> tuple[int, int, int, int]:
        """Grid edge k as (u, v, dx, dy): the numbers of its ends and the
        periods it crosses from u to v."""
        n = self.n
        i, j = divmod(k // 2, n)
        di, dj = (0, 1) if k % 2 else (1, 0)
        return self.node(i, j), self.node(i + di, j + dj), (i + di) // n, (j + dj) // n

    @property
    def coords(self) -> list[float]:
        """The coordinate j / n of grid row or column j, j = 0 .. n - 1."""
        n = self.n
        return [j / n for j in range(n)]

    def node_coords(self) -> tuple[list[float], list[float]]:
        """The x and the y coordinates of the grid's nodes, in node order."""
        coords, n = self.coords, self.n
        return list(chain.from_iterable(map(repeat, coords, repeat(n)))), coords * n

    def edge(self, nodes: Sequence[NodeId], k: int) -> PeriodicEdge:
        """Grid edge k, its ends taken from the graph's node list `nodes`."""
        u, v, dx, dy = self.ends(k)
        return PeriodicEdge(nodes[u], nodes[v], self.weight, (dx, dy), "grid")

    def rows(self, label: int):
        """Every grid edge, in edge order, as a search-index row (u, v,
        weight, dx, dy, label + k, label + k), as an `IndexBlock`'s
        `rows` makes them."""
        w = self.weight
        for k, (u, v, dx, dy) in enumerate(map(self.ends, range(2 * self.n * self.n)), label):
            yield u, v, w, dx, dy, k, k

    def index_block(self, label: int) -> IndexBlock:
        """The grid's search-index block: a maker of its rows (`rows`),
        then its distinct rate points and the ends of its edges crossing
        the x and the y period, all from arithmetic, as `edge_block`
        would read them from the rows.  Every right edge of a row has
        one rate point, and so has every up edge of a column, first seen
        in the order row 0, columns 0 .. n - 1, rows 1 .. n - 1.
        """
        n, w = self.n, self.weight
        last = n - 1
        # rate points as `edge_block` computes them from `coords`: the
        # advance out of row or column j, and 0.0 across it
        c = self.coords
        advance = [(c[(j + 1) % n] + int(j == last) - c[j]) / w for j in range(n)]
        return IndexBlock(
            partial(self.rows, label),
            [(advance[0], 0.0), *((0.0, p) for p in advance), *((p, 0.0) for p in advance[1:])],
            [self.node(i, j) for i in (last, 0) for j in range(n)],
            [self.node(i, j) for j in (last, 0) for i in range(n)],
        )

    def loops(self, label: int):
        """(start, row, up, down): the number of grid node (0, 0) and the
        search-index steps (neighbor, weight, dx, dy, edge index) of one
        loop from it in +x along its row and in +y and -y along its
        column."""
        n, w = self.n, self.weight

        def step(k, back=False):
            u, v, dx, dy = self.ends(k)
            return (u, w, -dx, -dy, label + k) if back else (v, w, dx, dy, label + k)

        return (
            self.node(0, 0),
            tuple(map(step, range(0, 2 * n * n, 2 * n))),
            tuple(map(step, range(1, 2 * n, 2))),
            tuple(step(k, True) for k in range(2 * n - 1, 0, -2)),
        )


class _Edges(Sequence):
    """`PeriodicWeightedGraph.edges`: the head edges, the 2 n^2 grid
    edges, then the tail edges, read as one tuple of `PeriodicEdge`s
    that makes a grid edge only when it is read."""

    __slots__ = ("_graph",)

    def __init__(self, graph: PeriodicWeightedGraph):
        self._graph = graph

    def __len__(self) -> int:
        g = self._graph
        return len(g.head) + 2 * g.grid.n * g.grid.n + len(g.tail)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        g = self._graph
        # k counts from the first grid edge; a negative k indexes the
        # head from its end
        k = range(len(self))[i] - len(g.head)
        cells = 2 * g.grid.n * g.grid.n
        if k < 0:
            return g.head[k]
        return g.grid.edge(g.nodes, k) if k < cells else g.tail[k - cells]

    def __iter__(self):
        g = self._graph
        yield from g.head
        yield from map(g.grid.edge, repeat(g.nodes), range(2 * g.grid.n * g.grid.n))
        yield from g.tail


@dataclass(frozen=True)
class PeriodicWeightedGraph:
    """Quotient graph of a periodic metric on the torus.

    Every graph has one shape: explicit `head` edges, one arithmetic
    torus `grid` over nodes of `nodes`, then explicit `tail` edges.  On
    a canyon the head edges are the corridors and the tail edges the
    connectors; `uniform_grid` has neither.  `edges` reads all of them
    in that order, and each edge's place in it is its search-index
    label.  `positions` places every node outside the grid and no grid
    node, since the grid places its own (`TorusGrid.coords`).  The grid
    is connected by construction, so validation checks its one weight
    and runs the union-find over the explicit edges only, and checks
    that each corridor edge's class index picks a class length.
    """

    nodes: tuple[NodeId, ...]
    positions: Mapping[NodeId, tuple[float, float]]
    head: tuple[PeriodicEdge, ...]
    grid: TorusGrid
    tail: tuple[PeriodicEdge, ...]
    class_lengths: Optional[tuple[tuple[IntegralClass, float], ...]] = None

    def __post_init__(self):
        index = self.node_index
        if len(index) != len(self.nodes):
            raise ValidationError("node list repeats")
        grid = self.grid
        first, cells = grid.first, grid.n * grid.n
        if first + cells > len(index):
            raise ValidationError(f"a {grid.n} x {grid.n} grid from node {first} does not fit the node list")
        # keys that are all nodes outside the grid, and as many as those
        # nodes, are every one of them
        positions, get = self.positions, index.get
        for node in positions:
            i = get(node)
            if i is None or first <= i < first + cells:
                raise ValidationError(f"position given for {node!r}, which is not a node outside the grid")
        if len(positions) != len(index) - cells:
            outside = chain(self.nodes[:first], self.nodes[first + cells:])
            missing = next(node for node in outside if node not in positions)
            raise ValidationError(f"node {missing!r} has no position")
        # union-find with path halving; each merge of two roots joins
        # two components, so the count left decides connectivity.  The
        # grid's nodes start as one component, and its first edge stands
        # for all of them in the weight and endpoint checks, as they
        # share one weight
        parent = list(range(len(index)))
        parent[first:first + cells] = [first] * cells
        components = len(parent) - cells + 1
        # a corridor edge's class index picks its class length
        classes = range(len(self.class_lengths or ()))
        for e in chain(self.head, (grid.edge(self.nodes, 0),), self.tail):
            if e.weight <= 0 or not math.isfinite(e.weight):
                raise ValidationError(f"edge {e.u}-{e.v} has weight {e.weight}")
            if e.corridor is not None and e.corridor[0] not in classes:
                raise ValidationError(
                    f"corridor edge {e.u}-{e.v} has class index {e.corridor[0]!r}, "
                    f"but the graph has {len(classes)} class lengths"
                )
            i = get(e.u)
            j = get(e.v)
            if i is None or j is None:
                raise ValidationError(f"edge {e.u}-{e.v} references a missing node")
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            while parent[j] != j:
                parent[j] = j = parent[parent[j]]
            if i != j:
                parent[i] = j
                components -= 1
        if components > 1:
            raise ValidationError("quotient graph is not connected")

    @property
    def edges(self) -> Sequence[PeriodicEdge]:
        """Every edge in label order: head, grid, then tail edges."""
        return _Edges(self)

    @cached_property
    def node_index(self) -> Mapping[NodeId, int]:
        """Node numbers of the search index: places in `nodes`."""
        return {node: i for i, node in enumerate(self.nodes)}

    @cached_property
    def search_index(self) -> SearchIndex:
        """Per-graph data of the cover search, made on the first query
        and kept for the life of the graph, from the blocks of the head
        edges, the grid and the tail edges.  Its positions, starts and
        bounds are made at once, the grid's from arithmetic; its steps
        (`adj`) only when a search first gets past its root.  Each
        step's label is its edge index; corridor nodes come first in the
        start lists, since they bound the optimum early and let the
        heuristic close off the background almost immediately."""
        index = self.node_index
        nodes = self.nodes
        grid = self.grid
        first, end = grid.first, grid.first + grid.n * grid.n
        label = len(self.head)
        place = self.positions.__getitem__
        before = [*map(place, nodes[:first])]
        after = [*map(place, nodes[end:])]
        grid_xs, grid_ys = grid.node_coords()
        xs = (*(x for x, _y in before), *grid_xs, *(x for x, _y in after))
        ys = (*(y for _x, y in before), *grid_ys, *(y for _x, y in after))
        blocks = (
            edge_block(xs, ys, partial(_edge_rows, self.head, index, 0)),
            grid.index_block(label),
            edge_block(xs, ys, partial(_edge_rows, self.tail, index, label + 2 * grid.n * grid.n)),
        )
        return build_search_index(xs, ys, blocks, start_key=lambda i: (nodes[i][0] == "g", nodes[i]))

    @cached_property
    def _grid_loops(self):
        """The background loops `_grid_loop_seed` replays, made on the
        first query whose answer is their walk and kept for the life of
        the graph."""
        return self.grid.loops(len(self.head))

    @cached_property
    def _corridors(self):
        """The corridor loops `_corridor_seed` replays, made on the
        first query that needs them and kept for the life of the graph.

        Returns (vertices, loops): the vertices of P_k = conv{+-h_i /
        l_i} counterclockwise as (class index, sign), and per vertex
        the search-index steps of its class's corridor loop, walked
        against the class when the sign is -1, with the place on it
        where the loop leaves each hub.  The loop is read from `head`:
        every node on corridor i has one piece of class i out of it.  A
        class with no corridor edge, possible in a caller-built graph,
        has an empty loop that leaves no hub.
        """
        index = self.node_index
        rates = {}
        for i, (h, ell) in enumerate(self.class_lengths):
            rates[h.a / ell, h.b / ell] = (i, 1)
            rates[-h.a / ell, -h.b / ell] = (i, -1)
        vertices = [rates[p] for p in convex_hull(rates)]
        out = {(e.corridor[0], e.u): k for k, e in enumerate(self.head) if e.corridor is not None}
        # a class without corridor edges keeps a loop with no hub
        loops = dict.fromkeys(vertices, ((), {}))
        for i in {i for i, _sign in vertices} & {c for c, _u in out}:
            start = node = next(u for (c, u) in out if c == i)
            forward, backward, at = [], [], {}
            for _piece in range(len(self.head)):
                k = out.get((i, node))
                if k is None:
                    raise InvariantError(f"corridor {i} breaks off at {node!r}")
                e = self.head[k]
                if node[0] == "v":
                    at[index[node]] = len(forward)
                forward.append((index[e.v], e.weight, e.disp[0], e.disp[1], k))
                backward.append((index[e.u], e.weight, -e.disp[0], -e.disp[1], k))
                node = e.v
                if node == start:
                    break
            else:
                raise InvariantError(f"corridor {i} does not close")
            n = len(forward)
            loops[i, 1] = (tuple(forward), at)
            loops[i, -1] = (tuple(reversed(backward)), {hub: (n - j) % n for hub, j in at.items()})
        return vertices, loops


def _edge_rows(edges: Sequence[PeriodicEdge], index: Mapping[NodeId, int], label: int):
    """The search-index rows of explicit `edges` over node numbers
    `index`, labelled by edge index from `label` on."""
    for i, e in enumerate(edges, label):
        yield index[e.u], index[e.v], e.weight, e.disp[0], e.disp[1], i, i


def _add_torus_grid(n: int, weight: float, nodes: list[NodeId]) -> TorusGrid:
    """Append the nodes ("g", i, j) of the N x N torus grid row by row
    and return that grid with edge weight `weight`."""
    grid = TorusGrid(len(nodes), n, weight)
    nodes.extend(("g", i, j) for i in range(n) for j in range(n))
    return grid


def uniform_grid(resolution: int) -> PeriodicWeightedGraph:
    """4-neighbor N x N torus grid with edge weight 1/N.

    Its marked lengths are the L^1 norm of the class, a convenient
    exactly-known baseline.
    """
    n = resolution
    _check_resolution(n, 2)
    w = 1.0 / n
    nodes: list[NodeId] = []
    grid = _add_torus_grid(n, w, nodes)
    return PeriodicWeightedGraph(nodes=tuple(nodes), positions={}, head=(), grid=grid, tail=())


def _check_hub_separation(points, d: int, n: int) -> None:
    """Raise `ValidationError` at the first hub pair (i, j), i < j in
    lexicographic order, whose torus gap is at most 2/n, the gap being
    the larger of the two per-axis distances around the circle.

    The hubs come as integer coordinates `points` over one common
    denominator d, a toral graph's `points` over its `denom`, and go
    into m = n // 2 cells per axis, of side 1/m >= 2/n.  Hubs that
    close lie in the same or in cyclically adjacent cells, so each hub
    is compared only with the hubs of those nine cells.
    """
    m = n // 2
    cells: dict[tuple[int, int], list[int]] = {}
    for i, (x, y) in enumerate(points):
        cells.setdefault((x * m // d, y * m // d), []).append(i)
    for i, (x, y) in enumerate(points):
        cx, cy = x * m // d, y * m // d
        near = None
        for gx in {(cx - 1) % m, cx, (cx + 1) % m}:
            for gy in {(cy - 1) % m, cy, (cy + 1) % m}:
                for j in cells.get((gx, gy), ()):
                    if j <= i or (near is not None and j >= near[0]):
                        continue
                    dx = abs(x - points[j][0])
                    dy = abs(y - points[j][1])
                    gap = max(min(dx, d - dx), min(dy, d - dy))
                    if n * gap <= 2 * d:
                        near = (j, gap)
        if near is not None:
            raise ValidationError(
                f"resolution {n} cannot separate hubs {i} and {near[0]}: "
                f"torus gap {Fraction(near[1], d)} needs more than {Fraction(2, n)}"
            )


def build_canyon_graph(
    graph: ToralGeodesicGraph,
    theta: float,
    background_systole: float,
    grid_resolution: int,
) -> PeriodicWeightedGraph:
    """Corridor network embedded in an expensive background grid.

    Corridor edges reproduce the toral graph segments with their exact
    lengths, subdivided for spatial fidelity; corridor intersections are
    shared nodes, so switching corridors is free, within any positive
    finite hub budget `theta`, which is checked and kept nowhere.
    Background edges cost `background_systole` per unit so a grid loop
    around either period costs exactly that much, and corridor-to-grid
    connectors cost half of it apiece: leaving and re-entering the
    corridors always pays a full crossing.
    """
    ell = [length for _cls, length in graph.classes]
    ell_k = max(ell)
    if isinstance(theta, bool) or not isinstance(theta, Real):
        raise ValidationError(f"hub budget must be a number, got {theta!r}")
    if not theta > 0:
        raise ValidationError(f"hub budget must be positive, got {theta}")
    if not math.isfinite(theta):
        raise ValidationError(f"hub budget must be finite, got {theta}")
    if isinstance(background_systole, bool) or not isinstance(background_systole, Real):
        raise ValidationError(f"background systole must be a number, got {background_systole!r}")
    if background_systole < ell_k:
        raise ValidationError(
            f"background systole {background_systole} is below the largest "
            f"prescribed length {ell_k}"
        )
    n = grid_resolution
    _check_resolution(n, _MIN_GRID_RESOLUTION)
    d, points = graph.denom, graph.points
    _check_hub_separation(points, d, n)

    b = float(background_systole)
    nodes: list[NodeId] = []
    positions: dict[NodeId, tuple[float, float]] = {}
    corridors: list[PeriodicEdge] = []

    for idx, (x, y) in enumerate(points):
        node = ("v", idx)
        nodes.append(node)
        positions[node] = (x / d, y / d)

    # corridor segments, subdivided roughly every four grid cells, each
    # walked exactly in int numerators over d * pieces
    corridor_nodes: list[NodeId] = [("v", i) for i in range(len(points))]
    for edge_idx, ge in enumerate(graph.edges):
        cls_index = ge.cls
        cls, length_i = graph.classes[cls_index]
        q = graph.scaled(ge.q)
        pieces = max(1, math.ceil(q / d * math.hypot(cls.a, cls.b) * n / 4))
        scale = d * pieces
        share = ge.q / pieces
        weight = float(share) * length_i
        lx, ly = points[ge.tail][0] * pieces, points[ge.tail][1] * pieces
        floor_x, floor_y = lx // scale, ly // scale
        prev_node: NodeId = ("v", ge.tail)
        for piece in range(1, pieces + 1):
            lx += q * cls.a
            ly += q * cls.b
            fx, rx = divmod(lx, scale)
            fy, ry = divmod(ly, scale)
            if piece == pieces:
                node: NodeId = ("v", ge.head)
                hx, hy = points[ge.head]
                if (rx, ry) != (hx * pieces, hy * pieces):
                    raise ConstructionError(
                        f"corridor endpoint drifted: segment {edge_idx} ends at "
                        f"({rx}/{scale}, {ry}/{scale}), not at vertex {ge.head}"
                    )
            else:
                node = ("c", edge_idx, piece)
                nodes.append(node)
                positions[node] = (rx / scale, ry / scale)
                corridor_nodes.append(node)
            corridors.append(PeriodicEdge(
                prev_node, node, weight, (fx - floor_x, fy - floor_y), "corridor", corridor=(cls_index, share)
            ))
            floor_x, floor_y, prev_node = fx, fy, node

    grid = _add_torus_grid(n, b / n, nodes)

    connectors: list[PeriodicEdge] = []
    for cnode in corridor_nodes:
        x, y = positions[cnode]
        gi = math.floor(x * n + 0.5)
        gj = math.floor(y * n + 0.5)
        target = nodes[grid.node(gi, gj)]
        connectors.append(
            PeriodicEdge(cnode, target, b / 2, (gi // n, gj // n), "connector")
        )

    return PeriodicWeightedGraph(
        nodes=tuple(nodes),
        positions=positions,
        head=tuple(corridors),
        grid=grid,
        tail=tuple(connectors),
        class_lengths=graph.classes,
    )


@dataclass(frozen=True)
class CanyonStage:
    """Stage k of `norm`: its k leading primitive classes on a canyon.

    Each part is made on its first read: `classes`, their toral `graph`
    and largest length `ell_k`, the `hub_budget` (`theta`, else the
    theta of a tube search of at most `node_budget` nodes), the
    `background_systole` (`background`, else ell_k) and the `canyon`.
    A given `theta` spares the tube search.  Each input is checked by the
    step that reads it, so `canyon` raises what that chain raises.
    """

    norm: NormSpec
    k: int
    grid_resolution: int = 64
    background: Optional[float] = None
    theta: Optional[float] = None
    node_budget: int = 10_000_000

    @cached_property
    def classes(self) -> list[tuple[IntegralClass, float]]:
        return leading_primitive_classes(self.norm, self.k)

    @cached_property
    def graph(self) -> ToralGeodesicGraph:
        return build_graph(self.classes)

    @cached_property
    def ell_k(self) -> float:
        return max(length for _cls, length in self.classes)

    @cached_property
    def hub_budget(self) -> float:
        if self.theta is not None:
            return self.theta
        return compute_zeta_epsilon_theta(self.graph, self.norm, self.ell_k, node_budget=self.node_budget).theta

    @cached_property
    def background_systole(self) -> float:
        return self.ell_k if self.background is None else self.background

    @cached_property
    def canyon(self) -> PeriodicWeightedGraph:
        return build_canyon_graph(self.graph, self.hub_budget, self.background_systole, self.grid_resolution)


@dataclass(frozen=True)
class SpectrumEntry:
    """One marked length: canonical class, length, and a witness path
    in the cover as (node, shift_x, shift_y) triples."""

    cls: IntegralClass
    length: float
    witness: tuple[tuple[NodeId, int, int], ...]

    def to_jsonable(self) -> dict:
        return {"class": [self.cls.a, self.cls.b], "length": self.length}


def _replay(h: IntegralClass, name: str, start: int, loops):
    """Walk `loops`, pairs (search-index steps of one loop, times), from
    node number `start`, adding weights in walking order.

    Returns (cost, witness states, path edge indices).  The steps are
    counted first: past `_MAX_SEED_STEPS` it raises `SearchBudgetError`
    before it allocates anything, and a walk whose shift is not h
    raises `InvariantError`.
    """
    steps = sum(len(loop) * times for loop, times in loops)
    if steps > _MAX_SEED_STEPS:
        seed = f"the {name} seed of class {h}, {steps} steps long,"
        SearchMeter(_MAX_SEED_STEPS, seed, "steps").reserve(steps)
    states = [(start, 0, 0)]
    path_edges: list[int] = []
    cost = 0.0
    sx = sy = 0
    for loop, times in loops:
        for _loop in range(times):
            for (nbr, w, dx, dy, idx) in loop:
                sx += dx
                sy += dy
                cost += w
                states.append((nbr, sx, sy))
                path_edges.append(idx)
    if (sx, sy) != (h.a, h.b):
        raise InvariantError(f"{name} seed for class {h} shifted by {(sx, sy)}")
    return cost, tuple(states), path_edges


def _grid_loop_cost(pg: PeriodicWeightedGraph, h: IntegralClass) -> float:
    """The cost of `_grid_loop_seed(pg, h)`, bit for bit, without its
    walk: the one grid weight added once per step, in walking order, as
    `_replay` adds it.  An oversized seed raises as it does there."""
    steps = (abs(h.a) + abs(h.b)) * pg.grid.n
    if steps > _MAX_SEED_STEPS:
        seed = f"the grid loop seed of class {h}, {steps} steps long,"
        SearchMeter(_MAX_SEED_STEPS, seed, "steps").reserve(steps)
    return reduce(add, repeat(pg.grid.weight, steps), 0.0)


def _grid_loop_seed(pg: PeriodicWeightedGraph, h: IntegralClass):
    """Concrete cycle of class h from grid row and column loops.

    Returns (cost, witness states, path edge indices); states use node
    numbers of the search index.  The loops are made once per graph, on
    the first query whose answer is this walk (`_grid_loops`), and
    replayed here, |a| row loops then |b| column loops, (|a| + |b|) n
    steps in all.  Every graph has this seed, and its cost
    (`_grid_loop_cost`) bounds the search wherever the corridor seed
    does not beat it; the walk is made only when nothing beats that.
    """
    start, row, up, down = pg._grid_loops
    return _replay(h, "grid loop", start, ((row, abs(h.a)), (down if h.b < 0 else up, abs(h.b))))


def _corridor_seed(pg: PeriodicWeightedGraph, h: IntegralClass):
    """Concrete cycle of class h along two corridors, or None.

    Takes the adjacent vertices g_i = +-h_i / l_i and g_j of P_k whose
    cone holds h, and writes h = s (+-h_i) + t (+-h_j) with s =
    det(h, +-h_j) / D and t = det(+-h_i, h) / D, D = det(+-h_i, +-h_j).
    When both are integers, the walk is s loops of corridor i, then t
    of corridor j, from the lowest-numbered hub both pass through, or,
    when s or t is 0 and they share none, from the lowest hub of the one
    corridor walked; a loop runs against its class where the vertex is
    -h_i / l_i.  It costs s l_i + t l_j, the gauge of P_k at h, so on a
    stage whose rate hull is P_k the search ends at its root.  Returns
    None for a fractional s or t, for a walk with no hub to start from,
    as a caller-built graph may have, and on a graph without class
    lengths, such as `uniform_grid`; else what `_grid_loop_seed`
    returns.
    """
    if pg.class_lengths is None:
        return None
    vertices, loops = pg._corridors
    classes = pg.class_lengths
    for (i, si), (j, sj) in zip(vertices, vertices[1:] + vertices[:1]):
        ix, iy = si * classes[i][0].a, si * classes[i][0].b
        jx, jy = sj * classes[j][0].a, sj * classes[j][0].b
        det = ix * jy - iy * jx
        if det <= 0:
            # a single class: P_k is a segment, with no cone
            continue
        s, s_rest = divmod(h.a * jy - h.b * jx, det)
        t, t_rest = divmod(ix * h.b - iy * h.a, det)
        if s < 0 or t < 0:
            continue
        if s_rest or t_rest:
            return None
        at_i, at_j = loops[i, si][1], loops[j, sj][1]
        # a hub on both corridors, else, for a walk of one, a hub on it
        hubs = at_i.keys() & at_j.keys() or (at_j.keys() if s == 0 else at_i.keys() if t == 0 else ())
        if not hubs:
            return None
        hub = min(hubs)
        # only the loops walked are rotated: one walked no times need not
        # pass through the hub
        return _replay(h, "corridor", hub, [
            (steps[at[hub]:] + steps[:at[hub]], times)
            for (steps, at), times in ((loops[i, si], s), (loops[j, sj], t))
            if times
        ])
    return None


def _exact_length(pg: PeriodicWeightedGraph, path_edges: Iterable[int]) -> float:
    """Recompute a witness length from exact corridor shares.

    The path's edges are counted in ints.  Corridor pieces are then
    summed per class as one Fraction per distinct share, count times
    share, and the sum multiplies the class length once, so full
    corridor loops reproduce the prescribed lengths exactly; other
    edges group by weight before summing.
    """
    head, tail, grid = pg.head, pg.tail, pg.grid
    grid_end = len(head) + 2 * grid.n * grid.n
    # times each share, as (class index, numerator, denominator), is
    # walked; times each weight is walked
    pieces: dict[tuple[int, int, int], int] = {}
    counts: dict[float, int] = {}
    for edge_idx, times in Counter(path_edges).items():
        if edge_idx < len(head):
            e = head[edge_idx]
        elif edge_idx >= grid_end:
            e = tail[edge_idx - grid_end]
        else:
            counts[grid.weight] = counts.get(grid.weight, 0) + times
            continue
        if e.corridor is not None:
            idx, share = e.corridor
            key = (idx, share.numerator, share.denominator)
            pieces[key] = pieces.get(key, 0) + times
        else:
            counts[e.weight] = counts.get(e.weight, 0) + times
    shares: dict[int, Fraction] = {}
    for (idx, num, den), times in pieces.items():
        shares[idx] = shares.get(idx, 0) + Fraction(times * num, den)
    total = 0.0
    for idx in sorted(shares):
        total += float(shares[idx]) * pg.class_lengths[idx][1]
    for w in sorted(counts):
        total += counts[w] * w
    return total


def marked_min_length(pg: PeriodicWeightedGraph, h: IntegralClass | tuple[int, int]) -> SpectrumEntry:
    """Shortest cycle length among loops with total displacement h.

    Equals the minimum over all quotient nodes of the cover distance
    from the node's origin lift to its h-translate.  The search runs
    only from endpoints of period-crossing edges, which every such
    cycle must visit, is guided by the admissible rate-hull gauge
    heuristic, and is bounded by a seed, a cycle of class h that it
    must beat: the corridor seed where it beats the grid-loop seed by
    more than the search's tie margin, else the grid-loop seed, whose
    cost is worked out without its walk.  When nothing beats the seed,
    the seed's walk is the witness.  Per graph, the search index's
    starts and bounds are made on the first query, its steps on the
    first query whose search gets past the root, and each seed's loops
    on the first query that walks them; all are reused by every later
    query.
    """
    h = integral_class(h).canonical()
    if h.is_trivial:
        return SpectrumEntry(cls=h, length=0.0, witness=((pg.nodes[0], 0, 0),))

    # a corridor seed within the tie margin of the grid seed leaves the
    # grid seed's bound, and so its answer, in place; one that costs
    # the gauge ends the search at its root.  The grid seed's walk is
    # made only when it is the answer
    cost = _grid_loop_cost(pg, h)
    seed = _corridor_seed(pg, h)
    if seed is not None and seed[0] < cost * (1 - PRUNE_RTOL):
        cost = seed[0]
    else:
        seed = None
    found = shortest_cover_cycle(pg.search_index, h.a, h.b, cost * (1 - PRUNE_RTOL))
    best, best_states, best_edges = found or seed or _grid_loop_seed(pg, h)
    exact = _exact_length(pg, best_edges)
    if abs(exact - best) > IDENTITY_RTOL * max(1.0, best):
        raise InvariantError(
            f"exact recompute drifted for class {h}: search found {best!r}, "
            f"corridor shares give {exact!r}"
        )
    witness = tuple((pg.nodes[node], sx, sy) for (node, sx, sy) in best_states)
    return SpectrumEntry(cls=h, length=exact, witness=witness)


@dataclass(frozen=True)
class StableNormEstimate:
    """Ratios f(n h)/n for n = 1..n_max and their minimum.

    `stable` is set when n = 1 already attains the minimum; combined
    with subadditivity this certifies f(n h) = n f(h) for every n
    computed, the discrete stability criterion.
    """

    cls: IntegralClass
    ratios: tuple[float, ...]
    estimate: float
    stable: bool
    stable_at: Optional[int]


def stable_norm_estimate(
    pg: PeriodicWeightedGraph,
    h: IntegralClass | tuple[int, int],
    n_max: int,
) -> StableNormEstimate:
    """Upper estimate of the stable norm of the canonical class of h.

    Returns the minimum of f(n h)/n over n = 1..n_max, f the marked
    minimal length of `pg`.  The stable norm is the infimum of these
    ratios, since f is subadditive, so the estimate is an upper bound on
    it.  `stable` certifies that n = 1 attains that minimum to relative
    tolerance `IDENTITY_RTOL`, so f(n h) = n f(h) for every n computed.
    """
    if isinstance(n_max, bool) or not isinstance(n_max, int) or n_max < 1:
        raise ValidationError(f"n_max must be a positive integer, got {n_max!r}")
    h = integral_class(h).canonical()
    if h.is_trivial:
        raise ValidationError("stable norm of the trivial class is 0; nothing to estimate")
    ratios = []
    for n in range(1, n_max + 1):
        entry = marked_min_length(pg, IntegralClass(n * h.a, n * h.b))
        ratios.append(entry.length / n)
    estimate = min(ratios)
    stable = ratios[0] <= estimate * (1 + IDENTITY_RTOL)
    return StableNormEstimate(
        cls=h,
        ratios=tuple(ratios),
        estimate=estimate,
        stable=stable,
        stable_at=1 if stable else None,
    )


@dataclass(frozen=True)
class MultiplicityGroup:
    """Classes tied at one length: m is the tie count and n the number
    of strictly shorter entries."""

    length: float
    classes: tuple[IntegralClass, ...]
    multiplicity: int
    shorter_count: int


@dataclass(frozen=True)
class SpectrumResult:
    entries: tuple[SpectrumEntry, ...]
    groups: tuple[MultiplicityGroup, ...]
    norm_bound: float
    group_rtol: float

    def to_jsonable(self) -> dict:
        return {
            "norm_bound": self.norm_bound,
            "group_rtol": self.group_rtol,
            "entries": [e.to_jsonable() for e in self.entries],
            "groups": [
                {
                    "length": g.length,
                    "classes": [[c.a, c.b] for c in g.classes],
                    "multiplicity": g.multiplicity,
                    "shorter_count": g.shorter_count,
                }
                for g in self.groups
            ],
        }


def spectrum(pg: PeriodicWeightedGraph, norm_bound: float) -> SpectrumResult:
    """Marked lengths of every class that could fit under norm_bound.

    Candidate classes come from the rate hull's per-axis lower bound
    (`SearchIndex.rates`), so the enumeration box provably contains
    every class whose marked length can be at or below the bound.  A
    class's length is at least its rate-hull gauge, so a candidate
    whose gauge tops the bound beyond `GAUGE_SKIP_RTOL` is not
    measured.  The rest are measured one by one on the graph's shared
    search index and sorted deterministically by
    (length, class); ties group under the relative tolerance `GROUP_RTOL`.
    The bound must be a finite positive number, not a bool, and a box of
    more than `_MAX_SPECTRUM_CLASSES` candidates raises
    `SearchBudgetError` before it is built.
    """
    if isinstance(norm_bound, bool) or not isinstance(norm_bound, Real):
        raise ValidationError(f"norm bound must be a number, got {norm_bound!r}")
    if not (norm_bound > 0 and math.isfinite(norm_bound)):
        raise ValidationError(f"norm bound must be finite and positive, got {norm_bound}")
    rate_x, rate_y = pg.search_index.rates
    amax = math.floor(norm_bound / rate_x + FLOOR_SLACK) if math.isfinite(rate_x) else 0
    bmax = math.floor(norm_bound / rate_y + FLOOR_SLACK) if math.isfinite(rate_y) else 0
    count = amax * (2 * bmax + 1) + bmax
    SearchMeter(_MAX_SPECTRUM_CLASSES, "spectrum", "candidate classes").reserve(
        count, lambda: f"norm bound {norm_bound} spans {count}"
    )
    candidates = [IntegralClass(0, b) for b in range(1, bmax + 1)]
    candidates.extend(
        IntegralClass(a, b)
        for a in range(1, amax + 1)
        for b in range(-bmax, bmax + 1)
    )

    normals = pg.search_index.normals
    limit = norm_bound * (1 + SEARCH_RTOL)
    measured = [
        marked_min_length(pg, c)
        for c in candidates
        if max(ax * c.a + ay * c.b for ax, ay in normals) * (1 - GAUGE_SKIP_RTOL) <= limit
    ]

    entries = [marked_min_length(pg, IntegralClass(0, 0))]
    entries.extend(e for e in measured if e.length <= limit)
    entries.sort(key=lambda e: (e.length, e.cls.tie_key()))

    groups: list[MultiplicityGroup] = []
    shorter = 0
    for grp in tie_groups([(e.cls, e.length) for e in entries], GROUP_RTOL, TINY_LENGTH):
        groups.append(
            MultiplicityGroup(
                length=grp[0][1],
                classes=tuple(cls for cls, _length in grp),
                multiplicity=len(grp),
                shorter_count=shorter,
            )
        )
        shorter += len(grp)
    return SpectrumResult(
        entries=tuple(entries),
        groups=tuple(groups),
        norm_bound=float(norm_bound),
        group_rtol=GROUP_RTOL,
    )


def spectrum_csv_rows(result: SpectrumResult) -> list[tuple[int, int, float, int]]:
    """Rows (a, b, length, multiplicity_group_id) for CSV export."""
    group_of: dict[tuple[int, int], int] = {}
    for gid, g in enumerate(result.groups):
        for c in g.classes:
            group_of[(c.a, c.b)] = gid
    return [
        (e.cls.a, e.cls.b, e.length, group_of[(e.cls.a, e.cls.b)])
        for e in result.entries
    ]
