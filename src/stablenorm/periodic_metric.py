"""Periodic weighted graphs modeling a corridor-plus-background metric.

The construction mirrors a two-regime picture: a corridor network that
realizes the prescribed class lengths exactly, and an expensive
background grid glued on through connector edges, so that any cycle
leaving the corridors pays a full background crossing.  Corridor
intersections are shared nodes; switching corridors there is free,
which keeps the switch cost within any nonnegative hub budget.

Marked lengths come from shortest cycles with prescribed displacement
in the Z^2 cover.  Every query bounds its search by the cost of a
constructive cycle (grid row/column loops), and the per-start searches
are guided by an admissible displacement-rate heuristic, so background
regions far from the optimum are barely touched.

Corridor edges carry their exact rational share of the class length;
witness lengths are recomputed from those shares, so a pure corridor
loop reports the prescribed length bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional

from stablenorm.cover import (
    SEARCH_RTOL,
    SearchIndex,
    build_search_index,
    shortest_cover_cycle,
)
from stablenorm.errors import ConstructionError, InvariantError, SearchBudgetError, ValidationError
from stablenorm.norms import IntegralClass, integral_class, tie_groups
from stablenorm.toral_graph import ToralGeodesicGraph

NodeId = tuple
IntVec = tuple[int, int]

#: Relative tolerance when grouping spectrum lengths.
GROUP_RTOL = 1e-6
#: Search and exact recompute sum the same edges in other orders.
_RECOMPUTE_RTOL = 1e-9
#: f(n h) / n and f(h) may differ by rounding alone and still be stable.
_STABLE_RTOL = 1e-9
#: Keeps a bound that is an exact multiple of a rate from flooring low.
_BOX_SLACK = 1e-9
#: Floor of the grouping scale, so a zero length groups only with zeros.
_TINY_LENGTH = 1e-300
#: Most candidate classes `spectrum` measures, one cover search each.
_MAX_SPECTRUM_CLASSES = 10_000

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


@dataclass(frozen=True)
class PeriodicWeightedGraph:
    nodes: tuple[NodeId, ...]
    positions: Mapping[NodeId, tuple[float, float]]
    edges: tuple[PeriodicEdge, ...]
    class_lengths: Optional[tuple[tuple[IntegralClass, float], ...]] = None
    hub_budget: Optional[float] = None
    grid_resolution: Optional[int] = None
    #: Cost of one background loop around either period.
    loop_cost: Optional[float] = None

    def __post_init__(self):
        index = self.node_index
        if len(index) != len(self.nodes):
            raise ValidationError("node list repeats")
        # union-find with path halving; each merge of two roots joins
        # two components, so the count left decides connectivity
        parent = list(range(len(index)))
        components = len(parent)
        get = index.get
        for e in self.edges:
            if e.weight <= 0 or not math.isfinite(e.weight):
                raise ValidationError(f"edge {e.u}-{e.v} has weight {e.weight}")
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

    @cached_property
    def node_index(self) -> Mapping[NodeId, int]:
        """Node numbers of the search index: places in `nodes`."""
        return {node: i for i, node in enumerate(self.nodes)}

    @cached_property
    def search_index(self) -> SearchIndex:
        """Per-graph data of the cover search, built on the first query
        and kept for the life of the graph.  Each step's label is its
        edge index; corridor nodes come first in the start lists, since
        they bound the optimum early and let the heuristic close off
        the background almost immediately."""
        index = self.node_index
        nodes = self.nodes
        return build_search_index(
            [self.positions[n] for n in nodes],
            (
                (index[e.u], index[e.v], e.weight, e.disp[0], e.disp[1], i, i)
                for i, e in enumerate(self.edges)
            ),
            start_key=lambda i: (nodes[i][0] == "g", nodes[i]),
        )

    @cached_property
    def _grid_loops(self):
        """The background loops `_grid_loop_seed` replays, walked once
        on the first query and kept for the life of the graph.

        None without a background grid; else (start, row, up, down):
        the number of grid node (0, 0) and the search-index steps
        (neighbor, weight, dx, dy, edge index) of one loop from it in +x
        along its row and in +y and -y along its column, each None
        where a step is missing.
        """
        n = self.grid_resolution
        index = self.node_index
        start = index.get(("g", 0, 0))
        if n is None or start is None:
            return None
        adj = self.search_index.adj

        def walk(hops):
            cur = start
            steps = []
            for nxt, disp in hops:
                target = index.get(nxt)
                for step in adj[cur]:
                    if step[0] == target and step[2:4] == disp:
                        steps.append(step)
                        cur = target
                        break
                else:
                    return None
            return tuple(steps)

        return (
            start,
            walk((("g", (i + 1) % n, 0), (1 if i == n - 1 else 0, 0)) for i in range(n)),
            walk((("g", 0, (j + 1) % n), (0, 1 if j == n - 1 else 0)) for j in range(n)),
            walk((("g", 0, (n - j - 1) % n), (0, -1 if j == 0 else 0)) for j in range(n)),
        )


def _add_torus_grid(
    n: int,
    weight: float,
    nodes: list[NodeId],
    positions: dict[NodeId, tuple[float, float]],
    edges: list[PeriodicEdge],
) -> None:
    """Append the 4-neighbor N x N torus grid: nodes ("g", i, j) row by
    row, then a right and an up edge of the given weight per node.
    Each node tuple is built once and the edges share three shifts."""
    grid = [[("g", i, j) for j in range(n)] for i in range(n)]
    for i, row in enumerate(grid):
        for j, node in enumerate(row):
            nodes.append(node)
            positions[node] = (i / n, j / n)
    stay, wrap_x, wrap_y = (0, 0), (1, 0), (0, 1)
    for i, row in enumerate(grid):
        right_row = grid[(i + 1) % n]
        right_disp = wrap_x if i == n - 1 else stay
        for j, node in enumerate(row):
            edges.append(PeriodicEdge(node, right_row[j], weight, right_disp, "grid"))
            edges.append(PeriodicEdge(node, row[(j + 1) % n], weight, wrap_y if j == n - 1 else stay, "grid"))


def uniform_grid(resolution: int) -> PeriodicWeightedGraph:
    """4-neighbor N x N torus grid with edge weight 1/N.

    Its marked lengths are the L^1 norm of the class, a convenient
    exactly-known baseline.
    """
    n = resolution
    if not isinstance(n, int) or n < 2:
        raise ValidationError(f"grid resolution must be an integer >= 2, got {n!r}")
    w = 1.0 / n
    nodes: list[NodeId] = []
    positions: dict[NodeId, tuple[float, float]] = {}
    edges: list[PeriodicEdge] = []
    _add_torus_grid(n, w, nodes, positions, edges)
    return PeriodicWeightedGraph(
        nodes=tuple(nodes),
        positions=positions,
        edges=tuple(edges),
        grid_resolution=n,
        loop_cost=n * w,
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
    hub budget `theta`.  Background edges cost `background_systole`
    per unit so a grid loop around either period costs exactly that
    much, and corridor-to-grid connectors cost half of it apiece:
    leaving and re-entering the corridors always pays a full crossing.
    """
    ell = [length for _cls, length in graph.classes]
    ell_k = max(ell)
    if not theta > 0:
        raise ValidationError(f"hub budget must be positive, got {theta}")
    if background_systole < ell_k:
        raise ValidationError(
            f"background systole {background_systole} is below the largest "
            f"prescribed length {ell_k}"
        )
    n = grid_resolution
    if not isinstance(n, int) or n < _MIN_GRID_RESOLUTION:
        raise ValidationError(
            f"grid resolution must be an integer >= {_MIN_GRID_RESOLUTION}, got {n!r}"
        )
    verts = graph.vertices
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            gap = Fraction(0)
            for c in range(2):
                delta = abs(verts[i][c] - verts[j][c])
                gap = max(gap, min(delta, 1 - delta))
            if gap <= Fraction(2, n):
                raise ValidationError(
                    f"resolution {n} cannot separate hubs {i} and {j}: "
                    f"torus gap {gap} needs more than {Fraction(2, n)}"
                )

    b = float(background_systole)
    nodes: list[NodeId] = []
    positions: dict[NodeId, tuple[float, float]] = {}
    edges: list[PeriodicEdge] = []

    for idx in range(len(verts)):
        node = ("v", idx)
        nodes.append(node)
        positions[node] = (float(verts[idx][0]), float(verts[idx][1]))

    # corridor segments, subdivided roughly every four grid cells
    corridor_nodes: list[NodeId] = [("v", i) for i in range(len(verts))]
    for edge_idx, ge in enumerate(graph.edges):
        cls_index = ge.cls
        cls, length_i = graph.classes[cls_index]
        h = (Fraction(cls.a), Fraction(cls.b))
        start = graph.vertices[ge.tail]
        speed = math.hypot(cls.a, cls.b)
        pieces = max(1, math.ceil(float(ge.q) * speed * n / 4))
        lift_prev = start
        prev_node: NodeId = ("v", ge.tail)
        for piece in range(1, pieces + 1):
            t = ge.q * piece / pieces
            lift = (start[0] + t * h[0], start[1] + t * h[1])
            if piece == pieces:
                node: NodeId = ("v", ge.head)
                expected = (lift[0] % 1, lift[1] % 1)
                if expected != tuple(graph.vertices[ge.head]):
                    raise ConstructionError(
                        f"corridor endpoint drifted: segment {edge_idx} ends at "
                        f"{expected}, not at vertex {ge.head}"
                    )
            else:
                node = ("c", edge_idx, piece)
                nodes.append(node)
                positions[node] = (float(lift[0] % 1), float(lift[1] % 1))
                corridor_nodes.append(node)
            share = ge.q / pieces
            disp = (
                math.floor(lift[0]) - math.floor(lift_prev[0]),
                math.floor(lift[1]) - math.floor(lift_prev[1]),
            )
            edges.append(
                PeriodicEdge(
                    prev_node,
                    node,
                    float(share) * length_i,
                    disp,
                    "corridor",
                    corridor=(cls_index, share),
                )
            )
            lift_prev = lift
            prev_node = node

    _add_torus_grid(n, b / n, nodes, positions, edges)

    for cnode in corridor_nodes:
        x, y = positions[cnode]
        gi = math.floor(x * n + 0.5)
        gj = math.floor(y * n + 0.5)
        target = ("g", gi % n, gj % n)
        edges.append(
            PeriodicEdge(cnode, target, b / 2, (gi // n, gj // n), "connector")
        )

    return PeriodicWeightedGraph(
        nodes=tuple(nodes),
        positions=positions,
        edges=tuple(edges),
        class_lengths=graph.classes,
        hub_budget=float(theta),
        grid_resolution=n,
        loop_cost=b,
    )


@dataclass(frozen=True)
class SpectrumEntry:
    """One marked length: canonical class, length, and a witness path
    in the cover as (node, shift_x, shift_y) triples."""

    cls: IntegralClass
    length: float
    witness: tuple[tuple[NodeId, int, int], ...]

    def to_jsonable(self) -> dict:
        return {"class": [self.cls.a, self.cls.b], "length": self.length}


def _grid_loop_seed(pg: PeriodicWeightedGraph, h: IntegralClass):
    """Concrete cycle of class h from grid row and column loops.

    Returns (cost, witness states, path edge indices) or None when the
    graph has no background grid; states use node numbers of the search
    index.  The loops are walked once per graph (`_grid_loops`) and
    replayed here, |a| row loops then |b| column loops, adding weights
    in walking order.  Seeding the search with it means classes whose
    optimum ties the background bound finish without exploring the tie
    plateau at all.
    """
    loops = pg._grid_loops
    if loops is None:
        return None
    start, row, up, down = loops
    column = down if h.b < 0 else up
    if (h.a != 0 and row is None) or (h.b != 0 and column is None):
        return None
    states = [(start, 0, 0)]
    path_edges: list[int] = []
    cost = 0.0
    sx = sy = 0
    for loop, times in ((row, abs(h.a)), (column, abs(h.b))):
        for _loop in range(times):
            for (nbr, w, dx, dy, idx) in loop:
                sx += dx
                sy += dy
                cost += w
                states.append((nbr, sx, sy))
                path_edges.append(idx)
    if (sx, sy) != (h.a, h.b):
        raise InvariantError(f"grid loop seed for class {h} shifted by {(sx, sy)}")
    return cost, tuple(states), path_edges


def _exact_length(pg: PeriodicWeightedGraph, path_edges: Iterable[int]) -> float:
    """Recompute a witness length from exact corridor shares.

    Corridor shares accumulate as Fractions per class and multiply the
    class length once, so full corridor loops reproduce the prescribed
    lengths exactly; other edges group by weight before summing.
    """
    shares: dict[int, Fraction] = {}
    counts: dict[float, int] = {}
    for edge_idx in path_edges:
        e = pg.edges[edge_idx]
        if e.corridor is not None:
            idx, share = e.corridor
            shares[idx] = shares.get(idx, Fraction(0)) + share
        else:
            counts[e.weight] = counts.get(e.weight, 0) + 1
    if shares and pg.class_lengths is None:
        raise ValidationError("corridor edges need the graph's class lengths; none are set")
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
    heuristic, and is bounded by the cost of the background loops of
    class h.  The graph's search index is built on the first query and
    reused by every later one.
    """
    h = integral_class(h).canonical()
    if h.is_trivial:
        return SpectrumEntry(cls=h, length=0.0, witness=((pg.nodes[0], 0, 0),))

    if pg.loop_cost is None:
        raise ValidationError(
            "graph carries no background loop costs to bound the search; "
            "build it with build_canyon_graph or uniform_grid"
        )
    # |a| row loops and |b| column loops close a cycle of class h
    upper = abs(h.a) * pg.loop_cost + abs(h.b) * pg.loop_cost
    seed = _grid_loop_seed(pg, h)
    incumbent = math.inf if seed is None else seed[0]
    found = shortest_cover_cycle(pg.search_index, h.a, h.b, upper, incumbent) or seed
    if found is None:
        raise ValidationError(
            f"no cycle of class {h} found within the background loop bound; "
            "the graph may not wrap in that direction"
        )
    best, best_states, best_edges = found
    exact = _exact_length(pg, best_edges)
    if abs(exact - best) > _RECOMPUTE_RTOL * max(1.0, best):
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
    tolerance `_STABLE_RTOL`, so f(n h) = n f(h) for every n computed.
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
    stable = ratios[0] <= estimate * (1 + _STABLE_RTOL)
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
    (`SearchIndex.rates`), so the enumeration box provably contains every class whose marked length
    can be at or below the bound.  Classes are measured one by one on
    the graph's shared search index and sorted deterministically by
    (length, class); ties group under the relative tolerance `GROUP_RTOL`.
    The bound must be finite, and a box of more than
    `_MAX_SPECTRUM_CLASSES` candidates raises `SearchBudgetError`
    before it is built.
    """
    if not (norm_bound > 0 and math.isfinite(norm_bound)):
        raise ValidationError(f"norm bound must be finite and positive, got {norm_bound}")
    rate_x, rate_y = pg.search_index.rates
    amax = math.floor(norm_bound / rate_x + _BOX_SLACK) if math.isfinite(rate_x) else 0
    bmax = math.floor(norm_bound / rate_y + _BOX_SLACK) if math.isfinite(rate_y) else 0
    count = amax * (2 * bmax + 1) + bmax
    if count > _MAX_SPECTRUM_CLASSES:
        raise SearchBudgetError(
            f"norm bound {norm_bound} spans {count} candidate classes, "
            f"past the cap of {_MAX_SPECTRUM_CLASSES}",
            nodes_expanded=0,
            budget=_MAX_SPECTRUM_CLASSES,
        )
    candidates = [IntegralClass(0, b) for b in range(1, bmax + 1)]
    candidates.extend(
        IntegralClass(a, b)
        for a in range(1, amax + 1)
        for b in range(-bmax, bmax + 1)
    )

    measured = [marked_min_length(pg, c) for c in candidates]

    entries = [marked_min_length(pg, IntegralClass(0, 0))]
    entries.extend(e for e in measured if e.length <= norm_bound * (1 + SEARCH_RTOL))
    entries.sort(key=lambda e: (e.length, e.cls.tie_key()))

    groups: list[MultiplicityGroup] = []
    shorter = 0
    for grp in tie_groups([(e.cls, e.length) for e in entries], GROUP_RTOL, _TINY_LENGTH):
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
