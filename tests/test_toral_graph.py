"""Geodesic graph geometry, minimal cycles, and tube constants."""

import dataclasses
import functools
import hashlib
import json
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stablenorm.errors import InvariantError, SearchBudgetError, SearchMeter, ValidationError
from stablenorm import cover
from stablenorm.norms import (
    ArcPolygon,
    Ellipse,
    IntegralClass,
    NormSpec,
    PNorm,
    euclidean,
    eval_norm,
    hexagonal,
    leading_primitive_classes,
    make_arc_polygon,
)
from stablenorm.tolerances import SEARCH_RTOL
from stablenorm.toral_graph import (
    Cycle,
    GraphEdge,
    ToralGeodesicGraph,
    _min_gap_search,
    build_graph,
    compute_zeta_epsilon_theta,
    minimal_cycle,
)

E = euclidean()


def euclid_classes(*pairs):
    return [(IntegralClass(a, b), eval_norm(E, IntegralClass(a, b))) for a, b in pairs]


SQUARE = build_graph(euclid_classes((1, 0), (0, 1)))
THREE = build_graph(euclid_classes((1, 0), (0, 1), (1, 1)))
SKEW = build_graph(euclid_classes((1, 2), (2, 1)))
TOP5 = build_graph(leading_primitive_classes(E, 5))


def class_edges(graph, cls):
    return [i for i, e in enumerate(graph.edges) if e.cls == cls]


def is_closed(cycle, graph):
    """Each step ends where the next (cyclically) begins."""
    ends = [
        (graph.edges[e].tail, graph.edges[e].head)
        if s > 0
        else (graph.edges[e].head, graph.edges[e].tail)
        for e, s in cycle.steps
    ]
    return all(ends[i][1] == ends[(i + 1) % len(ends)][0] for i in range(len(ends)))


def gap_midpoint(values):
    """Midpoint of the widest circular gap among fractions in [0,1)."""
    best_gap, best_mid = Fraction(0), Fraction(1, 2)
    for i, v in enumerate(values):
        nxt = values[i + 1] if i + 1 < len(values) else values[0] + 1
        if nxt - v > best_gap:
            best_gap, best_mid = nxt - v, (v + nxt) / 2 % 1
    return best_mid


def reference_build_graph(classes):
    """Reference: the geodesic graph built in Fraction arithmetic, each
    cut parameter r/|det| and torus point as its own Fraction, the
    vertices registered in first-seen order and then sorted; its
    denominator is the lcm of every Fraction it holds."""
    vertex_ix = {}

    def vertex_of(p):
        return vertex_ix.setdefault(p, len(vertex_ix))

    raw_edges = []
    for i, (h, _ell) in enumerate(classes):
        params = {Fraction(0)}
        for j, (g, _) in enumerate(classes):
            if j != i:
                d = abs(h.det(g))
                params.update(Fraction(r, d) for r in range(d))
        cuts = sorted(params)
        for r, t0 in enumerate(cuts):
            t1 = cuts[r + 1] if r + 1 < len(cuts) else Fraction(1)
            q = t1 - t0
            tail = vertex_of(((t0 * h.a) % 1, (t0 * h.b) % 1))
            head = vertex_of(((t1 * h.a) % 1, (t1 * h.b) % 1))
            raw_edges.append((tail, head, i, q, (q * h.a, q * h.b)))
    insertion = list(vertex_ix)
    order = sorted(range(len(insertion)), key=lambda ix: insertion[ix])
    remap = {old: new for new, old in enumerate(order)}
    edges = tuple(
        GraphEdge(remap[t], remap[hd], c, q, d, float(q) * classes[c][1]) for (t, hd, c, q, d) in raw_edges
    )
    vertices = tuple(sorted(vertex_ix))
    denom = math.lcm(
        *(c.denominator for v in vertices for c in v),
        *(c.denominator for e in edges for c in (e.q, *e.disp)),
    )
    return ToralGeodesicGraph(vertices, edges, tuple(classes), denom)


def reference_shifts(graph):
    """Reference: each edge's deck shift in Fraction arithmetic, its
    displacement minus the jump of its end coordinates."""
    table = []
    for e in graph.edges:
        sx = e.disp[0] - (graph.vertices[e.head][0] - graph.vertices[e.tail][0])
        sy = e.disp[1] - (graph.vertices[e.head][1] - graph.vertices[e.tail][1])
        assert sx.denominator == 1 and sy.denominator == 1
        table.append((int(sx), int(sy)))
    return tuple(table)


def assert_integer_frame(graph):
    """`denom` is the lcm of the vertex denominators and of the
    displacement denominators, the integer tables are the Fractions
    over it, and the deck shifts match the Fraction reference."""
    d = graph.denom
    assert d == math.lcm(*(c.denominator for v in graph.vertices for c in v))
    assert d == math.lcm(*(c.denominator for e in graph.edges for c in e.disp))
    assert graph.points == tuple((x * d, y * d) for x, y in graph.vertices)
    assert graph.scaled_disps == tuple((x * d, y * d) for x, y in (e.disp for e in graph.edges))
    assert graph.shifts == reference_shifts(graph)


def class_by_crossings(cycle, graph):
    """Homology via algebraic intersection numbers with the reference
    circles {x = x0} and {y = y0}: the sum of the oriented steps'
    entries in the graph's crossing table, which reads the vertex
    coordinates and the class geometry, not the displacements."""
    a = b = 0
    for e, s in cycle.steps:
        ca, cb = graph.crossings[e]
        a += s * ca
        b += s * cb
    return IntegralClass(a, b)


def reference_crossings(graph):
    """Reference: each edge's crossing numbers with {x = x0}, {y = y0}
    by Fraction floors, the levels mid-way across the widest gaps."""
    x0 = gap_midpoint(sorted({v[0] for v in graph.vertices}))
    y0 = gap_midpoint(sorted({v[1] for v in graph.vertices}))
    table = []
    for e in graph.edges:
        h, _ell = graph.classes[e.cls]
        px, py = graph.vertices[e.tail]
        table.append((
            math.floor(px + e.q * h.a - x0) - math.floor(px - x0),
            math.floor(py + e.q * h.b - y0) - math.floor(py - y0),
        ))
    return tuple(table)


#: Pairwise non-proportional primitive classes with positive lengths:
#: distinct canonical primitives are never proportional.
class_sets = st.lists(
    st.tuples(st.integers(-7, 7), st.integers(-7, 7))
    .filter(lambda ab: math.gcd(*ab) == 1)
    .map(lambda ab: IntegralClass(*ab)),
    min_size=1,
    max_size=6,
    unique_by=lambda h: h.canonical(),
).flatmap(lambda hs: st.tuples(*(st.floats(0.1, 10.0).map(lambda ell, h=h: (h, ell)) for h in hs)).map(list))


def crossings_by_position_walk(cycle, graph):
    """Reference: intersection numbers with {x = x0}, {y = y0} from an
    exact Fraction walk of the lifted positions along the cycle."""
    x0 = gap_midpoint(sorted({v[0] for v in graph.vertices}))
    y0 = gap_midpoint(sorted({v[1] for v in graph.vertices}))
    e0, s0 = cycle.steps[0]
    px, py = graph.vertices[graph.edges[e0].tail if s0 > 0 else graph.edges[e0].head]
    a = b = 0
    for e, s in cycle.steps:
        dx, dy = s * graph.edges[e].disp[0], s * graph.edges[e].disp[1]
        a += math.floor(px + dx - x0) - math.floor(px - x0)
        b += math.floor(py + dy - y0) - math.floor(py - y0)
        px, py = px + dx, py + dy
    return IntegralClass(a, b)


def length_exact(cycle, graph):
    """Length via per-class exact fraction totals: summing the rationals
    first makes a whole-geodesic traversal come out bitwise equal to
    ell_i."""
    totals = {}
    for e, _ in cycle.steps:
        edge = graph.edges[e]
        totals[edge.cls] = totals.get(edge.cls, Fraction(0)) + edge.q
    return sum(float(q) * graph.classes[c][1] for c, q in sorted(totals.items()))


def geodesic_walk(graph, cls, start, amount):
    """Steps along geodesic `cls` from parameter `start` by `amount`,
    backwards when negative; both must land on edge ends."""
    edges = class_edges(graph, cls)
    starts = [Fraction(0)]
    for e in edges[:-1]:
        starts.append(starts[-1] + graph.edges[e].q)
    i = starts.index(start % 1)
    steps = []
    while amount > 0:
        e = edges[i % len(edges)]
        steps.append((e, 1))
        amount -= graph.edges[e].q
        i += 1
    while amount < 0:
        i -= 1
        e = edges[i % len(edges)]
        steps.append((e, -1))
        amount += graph.edges[e].q
    assert amount == 0
    return steps


def two_geodesic_bound(graph, h):
    """|s| ell_1 + |t| ell_2 for h = s h_1 + t h_2, the first two classes."""
    (h1, l1), (h2, l2) = graph.classes[:2]
    return (abs(h.det(h2)) * l1 + abs(h1.det(h)) * l2) / abs(h1.det(h2))


def two_geodesic_walk(graph, h):
    """The cycle of class h that runs gamma_1 from the base point to
    s h_1 = h - t h_2, a vertex at parameter -t on gamma_2, then gamma_2
    by t."""
    (h1, _), (h2, _) = graph.classes[:2]
    d = h1.det(h2)
    s, t = Fraction(h.det(h2), d), Fraction(h1.det(h), d)
    return Cycle(tuple(geodesic_walk(graph, 0, Fraction(0), s) + geodesic_walk(graph, 1, -t, t)))


def homology_by_fraction_sum(cycle, graph):
    """Reference: the displacement sum in Fraction arithmetic."""
    dx = sum((s * graph.edges[e].disp[0] for e, s in cycle.steps), Fraction(0))
    dy = sum((s * graph.edges[e].disp[1] for e, s in cycle.steps), Fraction(0))
    assert dx.denominator == 1 and dy.denominator == 1
    return IntegralClass(int(dx), int(dy))


def all_closed_walks(graph, max_edges):
    """Oracle: every closed walk up to max_edges edges, by undecorated
    exhaustive search (no reduction, no pruning, no memoization).
    Yields (class tuple, length, steps)."""
    out = []

    def walk(s0, v, steps, length, dx, dy):
        for e, sg, w in graph.oriented[v]:
            edge = graph.edges[e]
            nsteps = steps + [(e, sg)]
            nl = length + edge.length
            ndx, ndy = dx + sg * edge.disp[0], dy + sg * edge.disp[1]
            if w == s0:
                out.append(((int(ndx), int(ndy)), nl, tuple(nsteps)))
            if len(nsteps) < max_edges:
                walk(s0, w, nsteps, nl, ndx, ndy)

    for s0 in range(len(graph.vertices)):
        walk(s0, s0, [], 0.0, Fraction(0), Fraction(0))
    return out


def oracle_min_lengths(graph, max_edges):
    """Oracle: shortest closed walk of each class up to max_edges edges."""
    best = {}
    for cls, length, _ in all_closed_walks(graph, max_edges):
        best[cls] = min(best.get(cls, math.inf), length)
    return best


def oracle_min_gap(graph, norm, max_edges):
    """Oracle for the tube-constant search: minimum length excess over
    the norm among cyclically reduced multi-class closed walks."""
    best = math.inf
    for cls, length, steps in all_closed_walks(graph, max_edges):
        n = len(steps)
        reduced = all(
            steps[i][0] != steps[(i + 1) % n][0] or steps[i][1] == steps[(i + 1) % n][1]
            for i in range(n)
        )
        if not reduced:
            continue
        if len({graph.edges[e].cls for e, _ in steps}) < 2:
            continue
        best = min(best, length - eval_norm(norm, cls))
    return best


class TestBuildGraph:
    def test_two_generators_single_vertex(self):
        assert len(SQUARE.vertices) == 1
        assert SQUARE.vertices[0] == (Fraction(0), Fraction(0))
        assert len(SQUARE.edges) == 2
        for e in SQUARE.edges:
            assert e.tail == e.head == 0
            assert e.q == 1
        assert {e.disp for e in SQUARE.edges} == {
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)),
        }

    def test_three_unimodular_classes_single_vertex(self):
        assert len(THREE.vertices) == 1
        assert len(THREE.edges) == 3
        assert all(e.q == 1 for e in THREE.edges)

    def test_skew_pair_three_vertices(self):
        assert len(SKEW.vertices) == 3
        assert [tuple(map(str, v)) for v in SKEW.vertices] == [
            ("0", "0"),
            ("1/3", "2/3"),
            ("2/3", "1/3"),
        ]
        for cls in (0, 1):
            qs = [e.q for e in SKEW.edges if e.cls == cls]
            assert qs == [Fraction(1, 3)] * 3

    def test_skew_intersections_match_direct_enumeration(self):
        # oracle: solve t*(1,2) = s*(2,1) + (m,n) over a window of integer
        # translates and collect distinct torus points
        pts = set()
        for m in range(-6, 7):
            for n in range(-6, 7):
                det = 1 * 1 - 2 * 2
                t = Fraction(m * 1 - n * 2, det)
                s = Fraction(-(2 * n - m * 2), det)  # from the second row
                if 1 * t - 2 * s == m and 2 * t - 1 * s == n:
                    pts.add(((t * 1) % 1, (t * 2) % 1))
        assert pts == set(SKEW.vertices)

    @given(
        st.lists(
            st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (3, 1)]),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    @settings(deadline=None, max_examples=60)
    def test_exact_invariants(self, pairs):
        classes = euclid_classes(*pairs)
        dets = [
            classes[i][0].det(classes[j][0]) == 0
            for i in range(len(classes))
            for j in range(i + 1, len(classes))
        ]
        if any(dets):
            return
        g = build_graph(classes)
        for i, (h, _) in enumerate(classes):
            qs = [e.q for e in g.edges if e.cls == i]
            assert sum(qs) == Fraction(1)
            assert all(q > 0 for q in qs)
            dx = sum((e.disp[0] for e in g.edges if e.cls == i), Fraction(0))
            dy = sum((e.disp[1] for e in g.edges if e.cls == i), Fraction(0))
            assert (dx, dy) == (Fraction(h.a), Fraction(h.b))
        assert g.vertices[0] == (Fraction(0), Fraction(0))
        assert list(g.vertices) == sorted(g.vertices)
        assert_integer_frame(g)

    @given(class_sets)
    @settings(deadline=None, max_examples=80)
    def test_matches_the_fraction_reference(self, classes):
        graph = build_graph(classes)
        reference = reference_build_graph(classes)
        assert graph == reference
        assert graph.to_jsonable() == reference.to_jsonable()
        assert_integer_frame(graph)
        assert [type(c) for v in graph.vertices for c in v] == [Fraction] * 2 * len(graph.vertices)

    @given(class_sets)
    @settings(deadline=None, max_examples=80)
    def test_crossings_match_the_fraction_reference(self, classes):
        graph = build_graph(classes)
        assert graph.crossings == reference_crossings(graph)

    def test_references_agree_on_the_digest_panel(self):
        for norm in digest_panel_norms():
            for k in range(1, 8):
                classes = leading_primitive_classes(norm, k)
                graph = build_graph(classes)
                assert graph == reference_build_graph(classes)
                assert graph.crossings == reference_crossings(graph)

    @pytest.mark.parametrize(
        "classes,pattern",
        [
            ([(IntegralClass(2, 4), 1.0)], "not primitive"),
            (euclid_classes((1, 2)) + [(IntegralClass(-1, -2), math.sqrt(5.0))], "proportional"),
            ([(IntegralClass(1, 0), -1.0)], "nonpositive"),
            ([((1, 0), 1.0), ((0, 1), 1.0)], r"must be an IntegralClass, got \(1, 0\)"),
            ([(IntegralClass(1, 0), "1.0")], "length must be a real number, got '1.0'"),
            ([(IntegralClass(1, 0), True)], "length must be a real number, got True"),
        ],
    )
    def test_rejects_bad_classes(self, classes, pattern):
        with pytest.raises(ValidationError, match=pattern):
            build_graph(classes)

    def test_jsonable_uses_rational_strings(self):
        dump = SKEW.to_jsonable()
        assert dump["vertices"][1] == ["1/3", "2/3"]
        assert dump["edges"][0]["q"] == "1/3"
        assert dump["classes"][0] == {"class": [1, 2], "length": math.sqrt(5.0)}


class TestMinimalCycle:
    def test_diagonal_through_base_point(self):
        cycle, length = minimal_cycle(SQUARE, IntegralClass(1, 1))
        assert length == pytest.approx(2.0, abs=1e-12)
        assert cycle.homology(SQUARE) == IntegralClass(1, 1)

    def test_two_one(self):
        _, length = minimal_cycle(SQUARE, IntegralClass(2, 1))
        assert length == pytest.approx(3.0, abs=1e-12)

    def test_unreachable_off_axis(self):
        g = build_graph(euclid_classes((1, 0)))
        assert minimal_cycle(g, IntegralClass(0, 1)) is None
        got = minimal_cycle(g, IntegralClass(3, 0))
        assert got is not None and got[1] == pytest.approx(3.0, abs=1e-12)

    def test_trivial_class(self):
        cycle, length = minimal_cycle(SQUARE, IntegralClass(0, 0))
        assert length == 0.0 and len(cycle) == 0

    def test_pair_of_ints_accepted(self):
        assert minimal_cycle(THREE, (2, -1)) == minimal_cycle(THREE, IntegralClass(2, -1))

    def test_cover_search_capped_in_pushes(self, monkeypatch):
        # (2, 1) on the Euclidean k = 2 graph pushes 5 states; a cap of 5
        # lets it finish, a cap of 4 stops it at the fifth push
        graph = build_graph(leading_primitive_classes(euclidean(), 2))
        h = IntegralClass(2, 1)
        expected = minimal_cycle(graph, h)
        monkeypatch.setattr(cover, "_MAX_COVER_PUSHES", 5)
        assert minimal_cycle(graph, h) == expected
        monkeypatch.setattr(cover, "_MAX_COVER_PUSHES", 4)
        with pytest.raises(SearchBudgetError, match="cover search") as err:
            minimal_cycle(graph, h)
        assert (err.value.nodes_expanded, err.value.budget) == (5, 4)

    @pytest.mark.parametrize("h", [IntegralClass(1.5, 0), (1.5, 0), (1, True), "10"])
    def test_non_integer_class_rejected(self, h):
        with pytest.raises(ValidationError, match="pair of integers"):
            minimal_cycle(SQUARE, h)

    def test_matches_exhaustive_enumeration(self):
        for graph, bound in ((SQUARE, 5), (THREE, 4), (SKEW, 6), (TOP5, 5)):
            oracle = oracle_min_lengths(graph, bound)
            # a cycle of more than `bound` edges is longer than this
            certified = bound * min(e.length for e in graph.edges)
            for a in range(-2, 3):
                for b in range(-2, 3):
                    h = IntegralClass(a, b)
                    expected = oracle.get((a, b), math.inf)
                    got = minimal_cycle(graph, h)
                    if got is None:
                        assert math.isinf(expected)
                    elif not h.is_trivial and got[1] <= certified:
                        assert got[1] == pytest.approx(expected, abs=1e-12), (graph, h)
                    else:
                        # the oracle is edge-bounded so it can only overestimate
                        assert got[1] <= expected + 1e-12

    def test_prescribed_classes_exact(self):
        for graph in (SQUARE, THREE, SKEW, TOP5):
            for h, ell in graph.classes:
                cycle, length = minimal_cycle(graph, h)
                assert length_exact(cycle, graph) == ell
                assert length == pytest.approx(ell, rel=4 * SEARCH_RTOL)

    def test_two_geodesic_walk_attains_the_bound(self):
        # the search bound is the length of an explicit cycle of class h
        for graph in (SQUARE, THREE, SKEW, TOP5):
            for a in range(-3, 4):
                for b in range(-3, 4):
                    h = IntegralClass(a, b)
                    if h.is_trivial:
                        continue
                    walk = two_geodesic_walk(graph, h)
                    assert is_closed(walk, graph)
                    assert walk.homology(graph) == h
                    assert class_by_crossings(walk, graph) == h
                    bound = two_geodesic_bound(graph, h)
                    assert length_exact(walk, graph) == pytest.approx(bound, rel=4 * SEARCH_RTOL)

    @given(
        q11=st.floats(0.5, 3.0),
        q22=st.floats(0.5, 3.0),
        r=st.floats(-0.7, 0.7),
        k=st.integers(2, 6),
        a=st.integers(-4, 4),
        b=st.integers(-4, 4),
    )
    @settings(deadline=None, max_examples=60)
    def test_every_class_within_the_two_geodesic_bound(self, q11, q22, r, k, a, b):
        h = IntegralClass(a, b)
        if h.is_trivial:
            return
        norm = NormSpec(Ellipse(q11, r * math.sqrt(q11 * q22), q22))
        graph = build_graph(leading_primitive_classes(norm, k))
        got = minimal_cycle(graph, h)
        assert got is not None
        assert got[1] <= two_geodesic_bound(graph, h) * (1 + SEARCH_RTOL)

    def test_square_exact_against_oracle(self):
        oracle = oracle_min_lengths(SQUARE, 6)
        for a in range(-2, 3):
            for b in range(-2, 3):
                if (a, b) == (0, 0):
                    continue
                got = minimal_cycle(SQUARE, IntegralClass(a, b))
                assert got[1] == pytest.approx(oracle[(a, b)], abs=1e-12)

    def test_subadditive_on_reachable_classes(self):
        for graph in (SQUARE, THREE, SKEW):
            pairs = [((1, 0), (0, 1)), ((1, 1), (1, 0)), ((1, 2), (2, 1)), ((1, 1), (1, -1))]
            for (a1, b1), (a2, b2) in pairs:
                r1 = minimal_cycle(graph, IntegralClass(a1, b1))
                r2 = minimal_cycle(graph, IntegralClass(a2, b2))
                r3 = minimal_cycle(graph, IntegralClass(a1 + a2, b1 + b2))
                if r1 and r2 and r3:
                    assert r3[1] <= r1[1] + r2[1] + 1e-12

    def test_homogeneous_on_graph_classes(self):
        for graph in (SQUARE, THREE, SKEW):
            for h, ell in graph.classes:
                for n in (1, 2, 3):
                    got = minimal_cycle(graph, h.scaled(n))
                    assert got[1] == pytest.approx(n * ell, rel=1e-12)

    def test_homology_crosscheck_on_minimizers(self):
        for graph in (SQUARE, THREE, SKEW):
            for a in range(-2, 3):
                for b in range(-2, 3):
                    got = minimal_cycle(graph, IntegralClass(a, b))
                    if got is None:
                        continue
                    cycle = got[0]
                    assert is_closed(cycle, graph)
                    assert cycle.homology(graph) == IntegralClass(a, b)
                    assert class_by_crossings(cycle, graph) == IntegralClass(a, b)


class TestSearchIndex:
    def test_built_on_first_minimal_cycle_and_kept(self):
        # build_graph and the tube constants never query the cover
        graph = build_graph(euclid_classes((1, 0), (0, 1), (1, 1)))
        compute_zeta_epsilon_theta(graph, E, math.sqrt(2.0))
        assert "search_index" not in vars(graph)
        minimal_cycle(graph, IntegralClass(2, 1))
        index = graph.search_index
        minimal_cycle(graph, IntegralClass(1, -1))
        assert graph.search_index is index

    def test_steps_mirror_oriented_edges(self):
        for graph in (SQUARE, THREE, SKEW, TOP5):
            index = graph.search_index
            for v, steps in enumerate(index.adj):
                assert [(label, nbr) for nbr, _w, _dx, _dy, label in steps] == [
                    ((e, s), w) for e, s, w in graph.oriented[v]
                ]
                for nbr, w, dx, dy, (e, s) in steps:
                    sx, sy = graph.shifts[e]
                    assert (w, dx, dy) == (graph.edges[e].length, s * sx, s * sy)

    def test_single_class_graph_has_the_zero_gauge(self):
        # one corridor: every rate point lies on the y axis, the hull is
        # flat, and the search runs unguided to the same cycles
        graph = build_graph(leading_primitive_classes(E, 1))
        assert graph.classes == ((IntegralClass(0, 1), 1.0),)
        assert graph.search_index.normals == cover.FLAT_GAUGE
        assert graph.search_index.rates == (math.inf, 1.0)
        for b, steps in [(1, ((0, 1),)), (2, ((0, 1),) * 2), (-3, ((0, -1),) * 3)]:
            assert minimal_cycle(graph, IntegralClass(0, b)) == (Cycle(steps), float(abs(b)))
        assert minimal_cycle(graph, IntegralClass(1, 0)) is None
        assert minimal_cycle(graph, IntegralClass(1, 1)) is None


class TestTubeConstants:
    def test_square_frozen_values(self):
        tc = compute_zeta_epsilon_theta(SQUARE, E, 1.0)
        assert tc.zeta == pytest.approx(0.5, abs=0)
        assert tc.edge_bound == 2
        assert tc.epsilon == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-12)
        assert tc.theta == pytest.approx((2.0 - math.sqrt(2.0)) / 4.0, abs=1e-12)
        assert tc.witness_class == IntegralClass(1, 1)

    def test_square_matches_oracle(self):
        tc = compute_zeta_epsilon_theta(SQUARE, E, 1.0)
        assert tc.epsilon == pytest.approx(oracle_min_gap(SQUARE, E, 2), abs=1e-12)

    def test_three_class_graph(self):
        tc = compute_zeta_epsilon_theta(THREE, E, math.sqrt(2.0), cross_check=True)
        assert tc.edge_bound == 2
        # closest competitor: one unit loop plus the diagonal, class (2,1)
        assert tc.epsilon == pytest.approx(1.0 + math.sqrt(2.0) - math.sqrt(5.0), abs=1e-12)
        assert tc.epsilon == pytest.approx(oracle_min_gap(THREE, E, 2), abs=1e-12)
        assert tc.epsilon > 0

    def test_skew_graph_positive_epsilon(self):
        ell_k = math.sqrt(5.0)
        tc = compute_zeta_epsilon_theta(SKEW, E, ell_k, cross_check=True)
        assert tc.edge_bound == 6
        assert 0 < tc.epsilon < math.inf
        assert tc.epsilon == pytest.approx(oracle_min_gap(SKEW, E, 6), abs=1e-12)
        assert tc.theta <= tc.epsilon / (2 * tc.edge_bound) + 1e-15
        assert tc.cycles_checked > 0

    def test_edge_bound_past_the_recursion_limit(self):
        # 1200 edges per path: the search depth is bounded by the edge
        # bound alone, not by the interpreter's call stack
        tc = compute_zeta_epsilon_theta(SQUARE, E, 600.0, cross_check=True)
        assert tc.edge_bound == 1200 > sys.getrecursionlimit()
        assert tc.epsilon == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-12)
        assert tc.theta == tc.epsilon / 2400.0
        assert tc.witness_class == IntegralClass(1, 1)
        assert tc.cycles_checked > 0

    def test_single_class_vacuous(self):
        g = build_graph(euclid_classes((1, 0)))
        tc = compute_zeta_epsilon_theta(g, E, 1.0, theta_cap=0.125)
        assert math.isinf(tc.epsilon)
        assert tc.theta == 0.125
        assert tc.witness is None
        assert tc.cycles_checked == 0

    @pytest.mark.parametrize("cap", [0.0, -1.0, math.inf, math.nan, True])
    def test_theta_cap_must_be_positive_and_finite(self, cap):
        # the cap is theta itself when no competitor exists (k = 1), and
        # the canyon construction rejects theta <= 0; a bool cap came
        # back as theta=True
        for graph in (build_graph(euclid_classes((1, 0))), SQUARE):
            with pytest.raises(ValidationError, match="theta cap"):
                compute_zeta_epsilon_theta(graph, E, 1.0, theta_cap=cap)

    @pytest.mark.parametrize("ell_k", [0, 0.0, -1.0, math.nan, math.inf, -math.inf, True, 0.5, 1e-3])
    def test_ell_k_must_be_positive_and_finite(self, ell_k):
        # unchecked, NaN and inf escape as ValueError and OverflowError,
        # a negative value makes an edge bound of -1 that never stops the
        # search, and 0 returns the cap as if no competitor existed; so
        # do 0.5 and 1e-3, below SKEW's shortest segment, with edge
        # bounds 1 and 0 that admit no mixed cycle
        with pytest.raises(ValidationError, match="ell_k"):
            compute_zeta_epsilon_theta(SKEW, E, ell_k, node_budget=1000)

    @pytest.mark.parametrize("budget", [0, -5, True, 2.5])
    def test_budget_below_one_is_a_validation_error(self, budget):
        with pytest.raises(ValidationError, match="budget"):
            compute_zeta_epsilon_theta(SKEW, E, math.sqrt(5.0), node_budget=budget)

    def test_budget_error_names_budget(self):
        with pytest.raises(SearchBudgetError) as err:
            compute_zeta_epsilon_theta(SKEW, E, math.sqrt(5.0), node_budget=50)
        assert "50" in str(err.value)
        assert err.value.budget == 50

    def test_deep_search_memory_ceiling(self):
        # peaks at about 13.2 MiB, so the ceiling leaves a 14% margin: a
        # pending state is one tuple over its parent's numbers and a
        # prebuilt move; with each child's length, displacement and step
        # allocated at push, the pending siblings under an edge bound of
        # 2,590 took about 19.5 MiB
        classes = leading_primitive_classes(E, 40)
        graph = build_graph(classes)
        ell_k = max(ell for _h, ell in classes)
        tracemalloc.start()
        try:
            with pytest.raises(SearchBudgetError):
                compute_zeta_epsilon_theta(graph, E, ell_k, node_budget=20_000)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 15 * 2**20

    def test_complete_search_memory_ceiling(self):
        # the complete Euclidean k = 12 search (edge bound 140, 54,233
        # nodes) peaks at about 4.9 MiB: the move table, the pending
        # stack, the current path and one norm per displacement met; a
        # per-state dominance memo over the same search takes 7.6 MiB
        classes = leading_primitive_classes(E, 12)
        graph = build_graph(classes)
        ell_k = max(ell for _h, ell in classes)
        tracemalloc.start()
        try:
            tc = compute_zeta_epsilon_theta(graph, E, ell_k)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tc.edge_bound == 140 and tc.witness_class == IntegralClass(2, 5)
        assert peak < 6 * 2**20

    @given(seed=st.integers(0, 2**32 - 1), pick=st.integers(0, 19), k=st.integers(1, 5), b=st.integers(1, 4))
    @settings(deadline=None, max_examples=40)
    def test_search_matches_the_unpruned_oracle(self, seed, pick, k, b):
        # the slack prune is sound where each edge's length is the norm
        # of its displacement, as prescribed classes make it; arbitrary
        # class lengths (class_sets) would break that, so the graphs come
        # from leading_primitive_classes of seeded ellipses and p-norms
        norm = tube_panel_norms(seed)[pick]
        graph = build_graph(leading_primitive_classes(norm, k))
        got = _min_gap_search(graph, norm, b, SearchMeter(10**6, "cycle enumeration", "nodes"))[0]
        expected = oracle_min_gap(graph, norm, b)
        assert got == expected or abs(got - expected) <= 1e-12

    def test_non_positive_gap_is_rejected_with_its_witness(self):
        # a straight edge of the gauge from (1, 0) to (0, 1) lets a
        # mixed cycle run along it at zero excess, up to rounding
        diamond = NormSpec(ArcPolygon(((1, 0), (0, 1), (-1, 0), (0, -1)), radius=math.inf, level=1.0))
        classes = leading_primitive_classes(diamond, 3)
        with pytest.raises(
            ValidationError,
            match=r"epsilon -8\.88\d*e-16 is not positive at witness class \(1,3\): "
            r"the norm is not strictly convex there",
        ):
            compute_zeta_epsilon_theta(build_graph(classes), diamond, max(ell for _h, ell in classes))

    def test_straight_edged_gauges_give_no_positive_gap(self):
        # at k = 2..7 only the square's first stage, (1, 0) and (0, 1)
        # against (1, 1) at norm 1, keeps a positive gap; every other
        # stage is rejected rather than handing the canyon theta <= 0
        gauges = {
            "diamond": ((1, 0), (0, 1), (-1, 0), (0, -1)),
            "square": ((1, 1), (-1, 1), (-1, -1), (1, -1)),
            "hexagon": ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)),
        }
        accepted = {}
        for name, vertices in gauges.items():
            norm = NormSpec(ArcPolygon(vertices, radius=math.inf, level=1.0))
            for k in range(2, 8):
                classes = leading_primitive_classes(norm, k)
                try:
                    tc = compute_zeta_epsilon_theta(build_graph(classes), norm, max(ell for _h, ell in classes))
                except ValidationError as err:
                    assert "not strictly convex" in str(err)
                else:
                    accepted[name, k] = (tc.epsilon, tc.theta)
        assert accepted == {("square", 2): (1.0, 0.25)}

    def test_witness_is_reduced_and_mixed(self):
        tc = compute_zeta_epsilon_theta(THREE, E, math.sqrt(2.0))
        steps = tc.witness.steps
        # no step is immediately undone, also across the wrap-around
        assert all(steps[i - 1] != (e, -s) for i, (e, s) in enumerate(steps))
        assert len({THREE.edges[e].cls for e, _ in steps}) >= 2


def digest_panel_norms():
    """Euclidean, hexagonal, p = 1.5, 3, 4, three seeded random
    ellipses and one arc polygon."""
    rng = random.Random(7)
    norms = [E, hexagonal(), NormSpec(PNorm(1.5)), NormSpec(PNorm(3.0)), NormSpec(PNorm(4.0))]
    for _ in range(3):
        angle = rng.uniform(0.0, math.pi)
        l1, l2 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        c, s = math.cos(angle), math.sin(angle)
        norms.append(NormSpec(Ellipse(l1 * c * c + l2 * s * s, (l1 - l2) * c * s, l1 * s * s + l2 * c * c)))
    norms.append(make_arc_polygon(((2, 1), (-1, 1), (-2, -1), (1, -1)), level=3.0))
    return norms


@functools.cache
def digest_panel_rows():
    """For the digest panel at k = 1..7: each case's graph fields and
    tube results (floats as hex), and apart from them its work counts
    (cycles_checked, nodes_expanded)."""
    results, counts = [], []
    for norm in digest_panel_norms():
        for k in range(1, 8):
            classes = leading_primitive_classes(norm, k)
            graph = build_graph(classes)
            tc = compute_zeta_epsilon_theta(graph, norm, max(ell for _h, ell in classes), cross_check=True)
            results.append((
                json.dumps(graph.to_jsonable(), sort_keys=True), graph.crossings, graph.scaled_disps,
                tc.zeta.hex(), tc.edge_bound, tc.epsilon.hex(), tc.theta.hex(),
                None if tc.witness is None else tc.witness.steps,
                None if tc.witness_class is None else tc.witness_class.as_tuple(),
            ))
            counts.append((tc.cycles_checked, tc.nodes_expanded))
    return results, counts


def test_tube_constants_digest():
    # sha256 over every graph field and tube result of the digest panel:
    # pins the graph build, its tables, zeta, the edge bound, epsilon,
    # theta and the witness bit for bit, whatever work the search does
    results, _counts = digest_panel_rows()
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == "0f5be948b3a01436d3904fea9b6042a5f380f31888a8d8ceca1e47c6b9ce6e4c"


#: (cycles_checked, nodes_expanded) of the digest panel, one row per
#: norm in `digest_panel_norms` order, k = 1..7.
DIGEST_PANEL_COUNTS = [
    [(0, 5), (8, 17), (24, 37), (104, 194), (350, 1419), (561, 2859), (769, 6165)],
    [(0, 5), (8, 17), (24, 37), (129, 275), (278, 1020), (364, 1393), (566, 5580)],
    [(0, 5), (8, 17), (48, 67), (86, 176), (370, 1449), (659, 3156), (837, 6487)],
    [(0, 5), (8, 17), (24, 37), (104, 194), (320, 1368), (574, 2861), (736, 5806)],
    [(0, 5), (8, 17), (24, 37), (104, 194), (358, 1458), (546, 2753), (678, 5385)],
    [(0, 5), (8, 17), (24, 37), (125, 247), (309, 1125), (425, 1713), (642, 5691)],
    [(0, 5), (8, 17), (24, 37), (104, 194), (345, 1368), (554, 2841), (737, 6071)],
    [(0, 5), (8, 17), (48, 67), (95, 185), (339, 1224), (598, 3356), (840, 6992)],
    [(0, 5), (8, 17), (24, 37), (89, 179), (253, 958), (750, 4135), (766, 5693)],
]


def test_tube_search_work_counts():
    # the search's work, not its results: a change to its cuts moves
    # these and leaves the digest above alone
    _results, counts = digest_panel_rows()
    assert [counts[i : i + 7] for i in range(0, len(counts), 7)] == DIGEST_PANEL_COUNTS


def cycle_space_rank(walks, graph):
    """Rank over Q of the walks' net edge-count vectors."""
    rows = {}
    for _cls, _length, steps in walks:
        v = [Fraction(0)] * len(graph.edges)
        for e, s in steps:
            v[e] += s
        for p, row in rows.items():
            if v[p]:
                f = v[p] / row[p]
                v = [a - f * b for a, b in zip(v, row)]
        pivot = next((i for i, a in enumerate(v) if a), None)
        if pivot is not None:
            rows[pivot] = v
    return len(rows)


def tube_panel_norms(seed):
    """The seeded benchmark panel: 12 random ellipses, then two p-norms
    with random scales for each p in {1.5, 2, 3, 4}."""
    rng = random.Random(seed)
    norms = []
    for _ in range(12):
        angle = rng.uniform(0.0, math.pi)
        l1, l2 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        c, s = math.cos(angle), math.sin(angle)
        norms.append(NormSpec(Ellipse(l1 * c * c + l2 * s * s, (l1 - l2) * c * s, l1 * s * s + l2 * c * c), 1.0))
    for p in (1.5, 2.0, 3.0, 4.0):
        norms.extend(NormSpec(PNorm(p), rng.uniform(0.7, 1.5)) for _ in range(2))
    return norms


#: One geodesic, one vertex, one loop edge: the tube search closes no
#: cycle here, so only the per-graph certificate can see a bad table.
ONE_CLASS = build_graph(euclid_classes((1, 2)))


def with_crossings(graph, e, axis, delta):
    """A copy of graph whose crossing table is off by delta at one entry."""
    table = [list(c) for c in graph.crossings]
    table[e][axis] += delta
    broken = ToralGeodesicGraph(graph.vertices, graph.edges, graph.classes, graph.denom)
    vars(broken)["crossings"] = tuple(map(tuple, table))
    return broken


def with_disp(graph, e, axis, offset):
    """A copy of graph whose stored displacement is off by offset at one edge."""
    edges = list(graph.edges)
    disp = list(edges[e].disp)
    disp[axis] += offset
    edges[e] = dataclasses.replace(edges[e], disp=tuple(disp))
    return ToralGeodesicGraph(graph.vertices, tuple(edges), graph.classes, graph.denom)


class TestCrossCheckTables:
    @pytest.mark.parametrize(
        "norm", [E, hexagonal(), NormSpec(PNorm(3.0))], ids=["euclidean", "hexagonal", "pnorm3"]
    )
    def test_tables_match_fraction_walks_on_every_closed_cycle(self, norm):
        # every closed walk of up to 4 edges; these span each graph's
        # cycle space, so by additivity the tables agree with the walks
        # on every cycle
        for k in range(2, 7):
            graph = build_graph(leading_primitive_classes(norm, k))
            walks = all_closed_walks(graph, 4)
            assert len(walks) > 0
            assert cycle_space_rank(walks, graph) == len(graph.edges) - len(graph.vertices) + 1
            for cls, _length, steps in walks:
                cycle = Cycle(steps)
                assert class_by_crossings(cycle, graph) == crossings_by_position_walk(cycle, graph), steps
                assert cycle.homology(graph) == homology_by_fraction_sum(cycle, graph) == IntegralClass(*cls)

    def test_tables_built_once_per_graph(self):
        graph = build_graph(euclid_classes((1, 2), (2, 1)))
        compute_zeta_epsilon_theta(graph, E, math.sqrt(5.0), cross_check=True)
        tables = (graph.crossings, graph.scaled_disps)
        compute_zeta_epsilon_theta(graph, E, math.sqrt(5.0), cross_check=True)
        assert graph.crossings is tables[0] and graph.scaled_disps is tables[1]
        assert graph.denom == 3

    @pytest.mark.parametrize("offset", [Fraction(1), Fraction(1, 2)], ids=["integer", "half"])
    def test_corrupted_displacement_is_caught(self, offset):
        # the crossing table reads the class geometry, not `disp`, so
        # even a whole-period error in one stored displacement shows
        with pytest.raises(InvariantError):
            compute_zeta_epsilon_theta(with_disp(SQUARE, 0, 0, offset), E, 1.0, cross_check=True)

    @pytest.mark.parametrize("graph", [SKEW, ONE_CLASS], ids=["skew", "one-class"])
    @pytest.mark.parametrize("offset", [Fraction(1), Fraction(1, 2)], ids=["integer", "half"])
    def test_every_corrupted_displacement_is_caught(self, graph, offset):
        ell_k = max(ell for _h, ell in graph.classes)
        for e in range(len(graph.edges)):
            for axis in (0, 1):
                with pytest.raises(InvariantError, match="homology cross-check fails at edge"):
                    compute_zeta_epsilon_theta(with_disp(graph, e, axis, offset), E, ell_k, cross_check=True)
                try:
                    compute_zeta_epsilon_theta(with_disp(graph, e, axis, offset), E, ell_k)
                except InvariantError as err:
                    # unchecked, a half offset is off the 1/D grid of the
                    # scaled displacements; a whole one goes unseen
                    assert offset.denominator == 2 and "not integral" in str(err)
                except ValidationError as err:
                    # ...by the tables, but a whole period more on one
                    # edge can make a mixed cycle shorter than its
                    # class's norm, a gap that is not positive
                    assert offset.denominator == 1 and "is not positive" in str(err)

    @pytest.mark.parametrize("graph", [SKEW, ONE_CLASS], ids=["skew", "one-class"])
    @pytest.mark.parametrize("delta", [1, -1])
    def test_every_corrupted_crossing_is_caught(self, graph, delta):
        ell_k = max(ell for _h, ell in graph.classes)
        expected = compute_zeta_epsilon_theta(graph, E, ell_k)
        for e in range(len(graph.edges)):
            for axis in (0, 1):
                with pytest.raises(InvariantError, match="homology cross-check fails at edge"):
                    compute_zeta_epsilon_theta(with_crossings(graph, e, axis, delta), E, ell_k, cross_check=True)
                assert compute_zeta_epsilon_theta(with_crossings(graph, e, axis, delta), E, ell_k) == expected

    def test_check_cost_does_not_grow_with_the_cycles_closed(self, monkeypatch):
        calls = []
        homology = Cycle.homology

        def counted(cycle, graph):
            calls.append(cycle)
            return homology(cycle, graph)

        monkeypatch.setattr(Cycle, "homology", counted)
        seen = {}
        for graph, ell_k in ((SQUARE, 1.0), (SQUARE, 600.0), (SKEW, math.sqrt(5.0)), (TOP5, math.sqrt(5.0))):
            calls.clear()
            tc = compute_zeta_epsilon_theta(graph, E, ell_k, cross_check=True)
            seen[tc.cycles_checked] = len(calls)
        # cycles_checked runs from 8 to 9,592; the one call is the
        # witness's class
        assert len(seen) == 4
        assert set(seen.values()) == {1}

    def test_results_equal_with_and_without_the_check(self):
        for norm in tube_panel_norms(1):
            for k in range(1, 7):
                classes = leading_primitive_classes(norm, k)
                graph = build_graph(classes)
                ell_k = max(ell for _h, ell in classes)
                checked = compute_zeta_epsilon_theta(graph, norm, ell_k, cross_check=True)
                unchecked = compute_zeta_epsilon_theta(build_graph(classes), norm, ell_k)
                assert checked == unchecked


class TestCycle:
    def test_length_exact_reconstructs_class_lengths(self):
        for graph in (SQUARE, THREE, SKEW):
            for i, (h, ell) in enumerate(graph.classes):
                steps = tuple((e, 1) for e in class_edges(graph, i))
                # class edges are emitted in parameter order, so the full
                # loop is a valid cycle
                loop = Cycle(steps)
                assert is_closed(loop, graph)
                assert length_exact(loop, graph) == ell

    def test_crossing_class_on_full_loops(self):
        for graph in (SQUARE, THREE, SKEW):
            for i, (h, _) in enumerate(graph.classes):
                loop = Cycle(tuple((e, 1) for e in class_edges(graph, i)))
                assert class_by_crossings(loop, graph) == h
                assert loop.homology(graph) == h

    def test_reversed_loop_negates_class(self):
        loop = Cycle(tuple((e, -1) for e in reversed(class_edges(SKEW, 0))))
        assert is_closed(loop, SKEW)
        assert loop.homology(SKEW) == IntegralClass(-1, -2)
        assert class_by_crossings(loop, SKEW) == IntegralClass(-1, -2)
