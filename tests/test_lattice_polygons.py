"""Lattice polygon counts and minimal-area searches.

Expected values are frozen from the exhaustive bounded enumeration and
double-checked structurally: every witness must reproduce its reported
counts through Pick's identity and through the brute-force point scan.
"""

import dataclasses
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablenorm import lattice_polygons
from stablenorm.errors import (
    ConstructionError,
    InvariantError,
    SearchBudgetError,
    SearchMeter,
    ValidationError,
)
from stablenorm.lattice_polygons import (
    EIGHT_PI_SQUARED_FLOOR,
    MIN_AREA_CUBIC_FLOOR,
    LatticePolygon,
    canonical_form,
    cubic_ratio_exceeds_floor,
    f_of_m,
    i_of_k,
    min_area_convex_kgon,
    min_area_table,
    min_interior_symmetric,
    pick_counts,
)

UNIT_SQUARE = LatticePolygon(((0, 0), (1, 0), (1, 1), (0, 1)))

EXPECTED_MIN_AREA = {
    3: Fraction(1, 2),
    4: Fraction(1),
    5: Fraction(5, 2),
    6: Fraction(3),
    7: Fraction(13, 2),
    8: Fraction(7),
}
EXPECTED_INTERIOR = {3: 0, 4: 0, 5: 1, 6: 1, 7: 4, 8: 4}
EXPECTED_SYMMETRIC_INTERIOR = {2: 1, 4: 1, 6: 1, 8: 7, 10: 13, 12: 19, 14: 35, 16: 57}
EXPECTED_F = {1: 1, 2: 1, 3: 1, 4: 4, 5: 7, 6: 10, 7: 18, 8: 29}

UNBOUNDED = 10**12


def unbounded_meter():
    return SearchMeter(UNBOUNDED, "polygon search", "transitions")


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def angle_key(v):
    """Exact total order on nonzero integer vectors by angle in [0, 2pi),
    the reference order of the direction sweeps and the winding check.

    Quadrants [0,90), [90,180), [180,270), [270,360) come first in the
    key; within each quadrant a monotone rational slope substitutes for
    the angle, so no trigonometry is involved.
    """
    x, y = v
    if x == 0 and y == 0:
        raise ValidationError("zero vector has no direction")
    if x > 0 and y >= 0:
        return (0, Fraction(y, x))
    if x <= 0 and y > 0:
        return (1, Fraction(-x, y))
    if x < 0 and y <= 0:
        return (2, Fraction(y, x))
    return (3, Fraction(-x, y))


def strict_hull(points):
    """Monotone-chain hull keeping only genuine corners; None if the
    input cannot support a 2-dimensional polygon."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return None

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(
                (out[-1][0] - out[-2][0], out[-1][1] - out[-2][1]),
                (p[0] - out[-1][0], p[1] - out[-1][1]),
            ) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        return None
    return tuple(hull)


points_strategy = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=3, max_size=24
)
nonzero_vectors = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda v: v != (0, 0))


def reference_wraps(edges):
    """How often the `angle_key` order of a cyclic edge list decreases,
    the winding check `LatticePolygon` made before it counted in ints."""
    keys = [angle_key(e) for e in edges]
    return sum(1 for i in range(len(keys)) if keys[(i + 1) % len(keys)] < keys[i])


class TestPickCounts:
    def test_unit_square(self):
        c = pick_counts(UNIT_SQUARE, self_check=True)
        assert (c.area, c.interior, c.boundary) == (Fraction(1), 0, 4)

    def test_doubled_triangle(self):
        tri = LatticePolygon(((0, 0), (2, 0), (0, 2)))
        c = pick_counts(tri, self_check=True)
        assert (c.area, c.interior, c.boundary) == (Fraction(2), 0, 6)

    def test_symmetric_hexagon(self):
        hexagon = LatticePolygon(((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)))
        c = pick_counts(hexagon, self_check=True)
        assert (c.area, c.interior, c.boundary) == (Fraction(3), 1, 6)
        assert hexagon.is_centrally_symmetric()

    def test_random_hulls_bulk(self):
        # a deterministic bulk run; the self-check re-counts every point
        import random

        rng = random.Random(20260817)
        checked = 0
        for _ in range(1000):
            pts = [(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(rng.randint(3, 12))]
            hull = strict_hull(pts)
            if hull is None:
                continue
            poly = LatticePolygon(hull)
            c = pick_counts(poly, self_check=True)
            assert c.area == c.interior + Fraction(c.boundary, 2) - 1
            checked += 1
        assert checked > 700

    @given(points_strategy)
    def test_pick_identity_on_hulls(self, pts):
        hull = strict_hull(pts)
        if hull is None:
            return
        c = pick_counts(LatticePolygon(hull), self_check=True)
        assert c.area == c.interior + Fraction(c.boundary, 2) - 1
        assert c.boundary >= len(hull)


class TestLatticePolygonValidation:
    def test_clockwise_rejected(self):
        with pytest.raises(ValidationError):
            LatticePolygon(((0, 0), (0, 1), (1, 0)))

    def test_collinear_run_rejected(self):
        with pytest.raises(ValidationError):
            LatticePolygon(((0, 0), (1, 0), (2, 0), (1, 1)))

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValidationError):
            LatticePolygon(((0, 0), (1, 0), (1, 1), (1, 0)))

    def test_too_few_vertices(self):
        with pytest.raises(ValidationError):
            LatticePolygon(((0, 0), (1, 0)))

    def test_non_integer_vertex(self):
        with pytest.raises(ValidationError):
            LatticePolygon(((0, 0), (1, 0), (0.5, 1.0)))

    @pytest.mark.parametrize(
        "verts",
        [
            ((0,), (1, 0), (0, 1)),  # was a raw IndexError
            ((True, 0), (1, 1), (0, 1)),  # was accepted as (1, 0)
            ((0, 0, 0), (1, 0), (0, 1)),
            ([0, 0], (1, 0), (0, 1)),
        ],
    )
    def test_vertex_not_an_integer_pair(self, verts):
        with pytest.raises(ValidationError, match="not a lattice point"):
            LatticePolygon(verts)

    @pytest.mark.parametrize(
        "p", [((0, 0), (1, 0), (0, 1)), [(0, 0), (1, 0), (0, 1)], None, "square"]
    )
    def test_pick_counts_takes_only_a_polygon(self, p):
        # a bare vertex tuple raised AttributeError
        with pytest.raises(ValidationError, match="takes a LatticePolygon"):
            pick_counts(p)

    def test_double_wound_loop_rejected(self):
        # every turn is a left turn and all vertices are distinct, but
        # the edge directions sweep two full revolutions
        verts = ((0, 0), (3, 0), (3, 3), (-1, 3), (-1, 1), (1, 1), (1, 2), (0, 2))
        with pytest.raises(ValidationError, match="wind"):
            LatticePolygon(verts)
        edges = [(bx - ax, by - ay) for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1])]
        assert lattice_polygons._wraps(edges) == reference_wraps(edges) == 2

    @given(
        st.lists(st.lists(nonzero_vectors, min_size=3, max_size=10), min_size=1, max_size=3),
        st.integers(0, 23),
    )
    @settings(max_examples=300)
    def test_wrap_count_matches_angle_order(self, windings, offset):
        # every strictly turning edge cycle, cut just after it passes
        # angle 0, is a run of angle-sorted edges, one per direction, for
        # each winding
        edges = [e for run in windings for _key, e in sorted({angle_key(e): e for e in run}.items())]
        offset %= len(edges)
        edges = edges[offset:] + edges[:offset]
        if any(_cross(edges[i - 1], edges[i]) <= 0 for i in range(len(edges))):
            return
        assert lattice_polygons._wraps(edges) == reference_wraps(edges)

    def test_pick_rejects_nonsense_k(self):
        for bad in (2, 13, "5", 4.0):
            with pytest.raises(ValidationError):
                min_area_convex_kgon(bad)


class TestAngleKey:
    def test_counterclockwise_order(self):
        ring = [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 2), (-1, 1),
                (-2, 1), (-1, 0), (-2, -1), (-1, -1), (-1, -2), (0, -1),
                (1, -2), (1, -1), (2, -1)]
        assert sorted(ring, key=angle_key) == ring

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError):
            angle_key((0, 0))


class TestMinArea:
    def test_triangle_is_fundamental(self):
        res = min_area_convex_kgon(3)
        assert res.area == Fraction(1, 2)
        assert res.certified
        assert res.witness.vertices == ((0, 0), (1, 0), (0, 1))

    def test_quadrilateral(self):
        res = min_area_convex_kgon(4)
        assert res.area == Fraction(1)
        assert res.certified
        assert pick_counts(res.witness).area == Fraction(1)

    def test_frozen_minimal_areas(self):
        for k, expected in EXPECTED_MIN_AREA.items():
            assert min_area_convex_kgon(k).area == expected, k

    def test_pentagon_pruned_matches_oracle(self):
        pruned = min_area_convex_kgon(5, pruned=True)
        oracle = min_area_convex_kgon(5, pruned=False)
        assert pruned.area == oracle.area == Fraction(5, 2)
        assert pruned.states_explored < oracle.states_explored

    def test_table_matches_per_k_runs(self):
        table = min_area_table(3, 8)
        assert [r.area for r in table] == [EXPECTED_MIN_AREA[k] for k in range(3, 9)]
        for r in table:
            counts = pick_counts(r.witness, self_check=True)
            assert counts.area == r.area
            assert len(r.witness.vertices) == r.k

    @pytest.mark.parametrize(
        "k_max,bound,pruned",
        [(8, None, True), (8, 2, True), (8, 3, True), (8, 4, True), (8, 6, True),
         (10, 4, True), (8, 3, False)],
    )
    def test_single_k_search_is_a_one_row_table(self, k_max, bound, pruned):
        # every row of a wider table, whose cap comes from its largest
        # seeded area, matches the one-row search but for the shared ops
        table = min_area_table(3, k_max, bound, pruned)
        for row in table:
            single = min_area_convex_kgon(row.k, bound, pruned)
            assert min_area_table(row.k, row.k, bound, pruned)[0] == single
            assert dataclasses.replace(row, states_explored=single.states_explored) == single

    @pytest.mark.parametrize("k_max", [8, 9, 10])
    def test_row_witness_independent_of_k_max(self, k_max):
        # past k_max = 8 the default bound is 10; a table of that bound
        # whose sweeps started chains on every direction gave rows 5 and
        # 7 a less compact witness than the single-k searches
        for row in min_area_table(3, k_max)[: 8 - 3 + 1]:
            single = min_area_convex_kgon(row.k)
            assert (row.area, row.witness) == (single.area, single.witness), row.k

    def test_areas_nondecreasing(self):
        areas = [min_area_convex_kgon(k).area for k in range(3, 9)]
        assert areas == sorted(areas)

    def test_certification_flags(self):
        # only the Pick floor k/2 - 1 certifies unboundedly
        assert min_area_convex_kgon(3).certified
        assert min_area_convex_kgon(4).certified
        assert not min_area_convex_kgon(5).certified

    def test_witness_in_canonical_position(self):
        for k in range(3, 9):
            w = min_area_convex_kgon(k).witness
            assert canonical_form(w.vertices) == w.vertices
            assert min(x for x, _ in w.vertices) == 0
            assert min(y for _, y in w.vertices) == 0

    def test_budget_exhaustion(self):
        with pytest.raises(SearchBudgetError) as exc:
            min_area_convex_kgon(8, pruned=False, budget=500)
        assert exc.value.budget == 500
        assert exc.value.nodes_expanded > 500

    @pytest.mark.parametrize(
        "search",
        [
            lambda: min_area_table(3, 8, budget=500),
            lambda: min_area_table(3, 8, budget=5000),
            lambda: min_interior_symmetric(16, budget=500),
            lambda: min_area_convex_kgon(8, budget=5000),
        ],
        ids=["table-seed", "table-full", "symmetric", "kgon"],
    )
    def test_seeded_search_shares_one_budget(self, search):
        # the seed sweep and the capped sweep draw on the caller's budget,
        # and the error reports it and the transitions of both
        with pytest.raises(SearchBudgetError) as exc:
            search()
        assert exc.value.budget in (500, 5000)
        assert exc.value.nodes_expanded > exc.value.budget

    @pytest.mark.parametrize(
        "search,seed",
        [
            (lambda b: min_interior_symmetric(6, coord_bound=b, budget=2), None),
            (lambda b: min_area_convex_kgon(4, coord_bound=b, budget=2), None),
            (lambda b: min_area_table(3, 5, coord_bound=b, budget=2000), lambda r: r[0]),
            (lambda b: min_interior_symmetric(6, coord_bound=b, budget=1000), lambda r: r),
        ],
        ids=["symmetric-seed", "kgon-seed", "table-full", "symmetric-full"],
    )
    def test_direction_count_checked_against_budget(self, search, seed):
        # about 3e9 of the primitive directions within the bound are root
        # directions, (1, 0) through (1, 1): |F_B| = 1 + phi(1) + ... +
        # phi(B), and each forces a transition.  So the search stops while
        # still counting them: in the seed sweep's set-up, whose
        # |F_2| = 3 forced transitions at bound 2 top the budget of 2, or
        # in the full sweep's once the seed sweep (the whole search at
        # bound 2) has run
        spent = 0 if seed is None else seed(search(2)).states_explored
        with pytest.raises(SearchBudgetError, match="directions") as exc:
            search(100_000)
        assert exc.value.nodes_expanded == spent

    @pytest.mark.parametrize(
        "search,enough",
        [
            (lambda b: min_area_convex_kgon(4, coord_bound=3, pruned=False, budget=b), 5),
            (lambda b: min_interior_symmetric(6, coord_bound=2, budget=b), 3),
        ],
        ids=["kgon", "symmetric"],
    )
    def test_direction_count_is_exact(self, search, enough):
        # the root expands on the |F_3| = 1 + (1 + 1 + 2) = 5 directions
        # (1, 0), (3, 1), (2, 1), (3, 2), (1, 1) at bound 3, and on the
        # |F_2| = 1 + (1 + 1) = 3 directions (1, 0), (2, 1), (1, 1) at
        # bound 2.  There the upper half holds 4 * (1 + 1) = 8 directions,
        # and the last m_target - 1 = 2 layers, which do not expand the
        # root, all lie past the root's 3
        with pytest.raises(SearchBudgetError, match="directions"):
            search(enough - 1)
        with pytest.raises(SearchBudgetError) as exc:
            search(enough)
        assert "directions" not in str(exc.value)

    def test_root_free_layers_inside_the_first_quarter(self):
        # at bound 1 the upper half holds the 4 directions (1, 0), (1, 1),
        # (0, 1), (-1, 1), and the root expands on the first |F_1| = 2.
        # For 2m = 8 the last 3 layers do not expand the root, one of them
        # (1, 1), so 1 transition is forced; for 2m = 6 the last 2 do not,
        # neither of them a root layer, so 2 are
        with pytest.raises(SearchBudgetError) as exc:
            min_interior_symmetric(8, coord_bound=1, budget=1)
        assert "directions" not in str(exc.value)
        with pytest.raises(SearchBudgetError, match="directions"):
            min_interior_symmetric(6, coord_bound=1, budget=1)

    def test_directions_counted_by_totients(self):
        for bound in range(1, 31):
            phi_sum = sum(lattice_polygons._totient(n) for n in range(1, bound + 1))
            assert len(lattice_polygons._primitive_directions(bound)) == 8 * phi_sum
            half = lattice_polygons._primitive_directions(bound, upper_half_only=True)
            assert len(half) == 4 * phi_sum

    def test_direction_budget_decided_before_the_list(self):
        # a list of the million directions the budget allows would take
        # about 100 MiB
        tracemalloc.start()
        try:
            with pytest.raises(SearchBudgetError, match="directions"):
                min_interior_symmetric(6, coord_bound=100_000, budget=1_000_000)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_unpruned_sweep_memory_ceiling(self):
        # about 1.2 MiB with one store per edge count; a per-layer
        # snapshot of every state, or a (cost, link) pair per state,
        # takes the peak to about 1.9 MiB
        tracemalloc.start()
        try:
            res = min_area_convex_kgon(8, coord_bound=6, pruned=False)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.area == EXPECTED_MIN_AREA[8]
        assert peak < 1.5 * 2**20

    def test_coord_bound_validation(self):
        with pytest.raises(ValidationError):
            min_area_convex_kgon(4, coord_bound=1)

    @pytest.mark.parametrize("bound", [2.5, 4.0, True])
    def test_non_int_coord_bound_rejected(self, bound):
        # a float bound would reach range() and raise TypeError
        with pytest.raises(ValidationError, match="coordinate bound"):
            min_area_convex_kgon(4, coord_bound=bound)
        with pytest.raises(ValidationError, match="coordinate bound"):
            min_interior_symmetric(6, coord_bound=bound)

    @pytest.mark.parametrize("k_min,k_max", [(3, 8.0), (3.0, 5), (2, 5), (6, 5), (3, 13)])
    def test_table_range_validation(self, k_min, k_max):
        with pytest.raises(ValidationError, match="k_min"):
            min_area_table(k_min, k_max)

    def test_table_coord_bound_validation(self):
        # the table and the single-k search share one bound check
        with pytest.raises(ValidationError, match="coordinate bound"):
            min_area_table(3, 4, coord_bound=1)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_is_a_validation_error(self, budget):
        # a malformed budget is bad input, not an exhausted search
        for search in (
            lambda: min_area_convex_kgon(4, budget=budget),
            lambda: min_area_convex_kgon(4, pruned=False, budget=budget),
            lambda: min_area_table(3, 4, budget=budget),
            lambda: min_interior_symmetric(6, budget=budget),
            lambda: min_interior_symmetric(2, budget=budget),
        ):
            with pytest.raises(ValidationError, match="budget"):
                search()

    @pytest.mark.parametrize("budget", [True, 1e9, 2.5])
    def test_non_int_budget_is_a_validation_error(self, budget):
        for search in (
            lambda: min_area_convex_kgon(4, budget=budget),
            lambda: min_area_table(3, 4, budget=budget),
            lambda: min_interior_symmetric(6, budget=budget),
        ):
            with pytest.raises(ValidationError, match="budget"):
                search()

    def test_witness_area_checked_by_search_and_table(self, monkeypatch):
        pick = lattice_polygons._pick_area_witness

        def off_by_half(slot):
            c2, witness = pick(slot)
            return c2 + 1, witness

        monkeypatch.setattr(lattice_polygons, "_pick_area_witness", off_by_half)
        with pytest.raises(InvariantError, match="witness area"):
            min_area_convex_kgon(4)
        with pytest.raises(InvariantError, match="witness area"):
            min_area_table(3, 4)


class TestWorkCounts:
    """Transitions of the searches at coordinate bound 6, pinned so that
    a change to the sweep kernels cannot change the work they do without
    notice.

    At bound 6 the list holds 8 * (1 + 1 + 2 + 2 + 4 + 2) = 96
    directions, 48 in the upper half, and the root starts chains on the
    first |F_6| = 1 + 12 = 13 of both, (1, 0) through (1, 1) (module
    docstring, "Lattice symmetry").  The counts are those of sweeps cut
    there: the transitions of every chain that starts on one of the 13
    and can still close, or still finish, on the later directions.  The
    area sweeps hold one chain per partial sum, the symmetric sweep one
    per partial sum and all-primitive flag (module docstring, "Layered
    stores").  The seeded searches cap each store by the seed's cost less
    the least cost still to come (module docstring, "Seeded cost caps").
    """

    @pytest.mark.parametrize(
        "k,unpruned,pruned",
        [
            (4, 23_883, 385),
            (5, 45_469, 6_857),
            (6, 83_459, 7_288),
            (7, 129_755, 29_887),
            (8, 198_282, 30_552),
        ],
    )
    def test_area_search_transitions(self, k, unpruned, pruned):
        assert min_area_convex_kgon(k, coord_bound=6, pruned=False).states_explored == unpruned
        assert min_area_convex_kgon(k, coord_bound=6).states_explored == pruned

    @pytest.mark.parametrize(
        "two_m,transitions", [(4, 1_320), (6, 4_643), (8, 14_737), (10, 29_153)]
    )
    def test_symmetric_search_transitions(self, two_m, transitions):
        assert min_interior_symmetric(two_m).states_explored == transitions


class TestInteriorCounts:
    def test_frozen_interior_counts(self):
        for k, expected in EXPECTED_INTERIOR.items():
            assert i_of_k(k) == expected, k

    def test_interior_nondecreasing(self):
        values = [i_of_k(k) for k in range(3, 9)]
        assert values == sorted(values)

    def test_cubic_ratio_strictly_above_floor(self):
        for k, area in EXPECTED_MIN_AREA.items():
            assert cubic_ratio_exceeds_floor(k, area)
            assert Fraction(area) / k**3 > MIN_AREA_CUBIC_FLOOR

    @pytest.mark.parametrize("k", [0, 2, -3, True, 3.0, "5", None])
    def test_cubic_ratio_rejects_a_non_polygon_k(self, k):
        # k = 0 would divide by zero, and True would read as k = 1
        with pytest.raises(ValidationError, match="k must be an integer of at least 3"):
            cubic_ratio_exceeds_floor(k, Fraction(1, 2))

    @pytest.mark.parametrize("area", [True, False, "1/2", 0.5, None, -1, Fraction(-1, 2)])
    def test_cubic_ratio_rejects_a_non_area(self, area):
        # True would read as area 1 and "1/2" would be parsed; a negative
        # area would answer False as if it were a real polygon's
        with pytest.raises(ValidationError, match="area must be a nonnegative int or Fraction"):
            cubic_ratio_exceeds_floor(3, area)

    def test_cubic_ratio_takes_an_int_area(self):
        assert cubic_ratio_exceeds_floor(4, 1) == cubic_ratio_exceeds_floor(4, Fraction(1))
        assert cubic_ratio_exceeds_floor(3, 0) is False

    def test_floor_constant_is_sane(self):
        # 8*pi^2 is a little above 78.9568, so the reciprocal floor sits
        # just above the true asymptotic constant
        assert Fraction(78) < EIGHT_PI_SQUARED_FLOOR < Fraction(79)
        assert Fraction(1, 80) < MIN_AREA_CUBIC_FLOOR < Fraction(1, 78)


class TestSymmetricMinimum:
    def test_degenerate_pair(self):
        res = min_interior_symmetric(2)
        assert res.interior == 1
        assert res.witness is None
        assert res.witness_vertices == ((1, 0), (-1, 0))
        assert res.certified

    def test_frozen_symmetric_minima(self):
        for two_m, expected in EXPECTED_SYMMETRIC_INTERIOR.items():
            res = min_interior_symmetric(two_m)
            assert res.interior == expected, two_m
            assert res.interior % 2 == 1, two_m

    def test_witnesses_are_symmetric_and_consistent(self):
        for two_m in range(4, 17, 2):
            res = min_interior_symmetric(two_m, prefer_primitive=True)
            w = res.witness
            assert w is not None
            assert w.is_centrally_symmetric()
            assert len(w.vertices) == two_m
            counts = pick_counts(w, self_check=True)
            assert counts.interior == res.interior
            if res.all_primitive:
                assert counts.boundary == two_m

    def test_quadrilateral_minimum_matches_square(self):
        square = LatticePolygon(((1, 0), (0, 1), (-1, 0), (0, -1)))
        assert pick_counts(square).interior == 1
        assert min_interior_symmetric(4).interior == 1

    def test_hexagon_witness_matches_example(self):
        hexagon = LatticePolygon(((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)))
        assert pick_counts(hexagon).interior == 1
        assert min_interior_symmetric(6).interior == 1

    def test_minimum_dominates_unrestricted(self):
        for two_m in (4, 6, 8):
            assert min_interior_symmetric(two_m).interior >= i_of_k(two_m)

    def test_nondecreasing_in_m(self):
        values = [min_interior_symmetric(t).interior for t in range(2, 17, 2)]
        assert values == sorted(values)

    def test_validation(self):
        for bad in (3, 0, -2, 18, "4"):
            with pytest.raises(ValidationError):
                min_interior_symmetric(bad)

    def test_coord_bound_below_one_rejected(self):
        # also for the 2-gon, which needs no search
        for two_m in (2, 4, 8):
            for bound in (0, -3):
                with pytest.raises(ValidationError, match="coordinate bound"):
                    min_interior_symmetric(two_m, coord_bound=bound)
        assert min_interior_symmetric(4, coord_bound=1).coord_bound == 1


class TestHalvedCount:
    def test_frozen_values(self):
        for m, expected in EXPECTED_F.items():
            assert f_of_m(m) == expected, m

    def test_small_cases_are_one(self):
        assert [f_of_m(m) for m in (1, 2, 3)] == [1, 1, 1]

    def test_even_count_rejected(self):
        res = min_interior_symmetric(8)
        assert res.f == EXPECTED_F[4]
        with pytest.raises(InvariantError, match="even"):
            dataclasses.replace(res, interior=8).f

    def test_validation(self):
        for bad in (0, 9, "1", True, 2.0):
            with pytest.raises(ValidationError):
                f_of_m(bad)


class TestCanonicalForm:
    def test_idempotent_on_square(self):
        assert canonical_form(UNIT_SQUARE.vertices) == UNIT_SQUARE.vertices

    @pytest.mark.parametrize("vertices", [[], [(0, 0)], [(0, 0), (1, 0)]], ids=["none", "one", "two"])
    @pytest.mark.parametrize("translate", [True, False])
    def test_fewer_than_three_vertices_rejected(self, vertices, translate):
        # the empty list leaked a raw ValueError from min(), and two
        # points came back as a "polygon"
        with pytest.raises(ValidationError, match="at least 3 vertices"):
            canonical_form(vertices, translate=translate)

    @given(points_strategy, st.integers(0, 7))
    @settings(max_examples=60)
    def test_symmetry_invariant(self, pts, sym):
        hull = strict_hull(pts)
        if hull is None:
            return
        sx = 1 if sym & 1 else -1
        sy = 1 if sym & 2 else -1
        swap = bool(sym & 4)
        moved = [(sx * (y if swap else x), sy * (x if swap else y)) for (x, y) in hull]
        if sum(_cross(moved[i], moved[(i + 1) % len(moved)]) for i in range(len(moved))) < 0:
            moved.reverse()
        assert canonical_form(moved) == canonical_form(hull)

    @given(points_strategy, st.integers(-9, 9), st.integers(-9, 9))
    @settings(max_examples=60)
    def test_translation_invariant(self, pts, dx, dy):
        hull = strict_hull(pts)
        if hull is None:
            return
        shifted = [(x + dx, y + dy) for (x, y) in hull]
        assert canonical_form(shifted) == canonical_form(hull)

    @given(points_strategy, st.integers(-9, 9), st.integers(-9, 9))
    @settings(max_examples=60)
    def test_spread_read_off_the_raw_corners(self, pts, dx, dy):
        # the witness pick scores the canonical form by its largest
        # coordinate size, and reads it off the corners it starts from
        hull = strict_hull([(x + dx, y + dy) for (x, y) in pts])
        if hull is None:
            return
        xs, ys = [x for x, _ in hull], [y for _, y in hull]
        spread = max(max(abs(x), abs(y)) for x, y in canonical_form(hull))
        assert spread == max(max(xs) - min(xs), max(ys) - min(ys))

    @given(points_strategy, st.integers(-6, 6), st.integers(-6, 6))
    @settings(max_examples=60)
    def test_spread_about_the_center_read_off_the_raw_corners(self, pts, dx, dy):
        shifted = [(x + dx, y + dy) for (x, y) in pts]
        hull = strict_hull(shifted + [(-x, -y) for (x, y) in shifted])
        if hull is None:
            return
        assert LatticePolygon(hull).is_centrally_symmetric()
        spread = max(max(abs(x), abs(y)) for x, y in canonical_form(hull, translate=False))
        assert spread == max(max(abs(x), abs(y)) for x, y in hull)


# -- reference sweeps -------------------------------------------------------
#
# The sweeps as they were before each layer dropped the chains that can
# no longer finish: every state stays in the dict for the rest of the
# sweep, and the only reach test is coord_bound * (edges left).


def _reference_offer(states, key, cost, link):
    old = states.get(key)
    if old is None or cost < old[0]:
        states[key] = (cost, link)


#: The reference sweeps' one state dict starts at the root: no edges, at
#: the origin, all primitive.
REFERENCE_ROOT = (0, 0, 0, True)


def reference_sweep_areas(k_max, coord_bound, incumbent_doubled, meter):
    states = {REFERENCE_ROOT: (0, None)}
    found = {}
    for d in lattice_polygons._primitive_directions(coord_bound):
        dx, dy = d
        mult_cap = coord_bound // max(abs(dx), abs(dy))
        additions = []
        ops = 0
        for key, (c, link) in states.items():
            j, wx, wy, prim = key
            if j >= k_max:
                continue
            if (wx, wy) == (0, 0):
                ops += mult_cap
                for m in range(1, mult_cap + 1):
                    additions.append(((1, m * dx, m * dy, m == 1), 0, (link, d, m)))
                continue
            cr = wx * dy - wy * dx
            if cr < 0:
                continue
            if cr == 0:
                ops += 1
                if dx != 0:
                    m, r = divmod(-wx, dx)
                else:
                    m, r = divmod(-wy, dy)
                if r == 0 and 1 <= m <= mult_cap and (wx + m * dx, wy + m * dy) == (0, 0):
                    if j + 1 >= 3:
                        lattice_polygons._record_closure(
                            found.setdefault(j + 1, {}), prim and m == 1, c, (link, d, m)
                        )
                continue
            reach = coord_bound * (k_max - j - 1)
            for m in range(1, mult_cap + 1):
                ops += 1
                nc = c + m * cr
                if incumbent_doubled is not None and nc >= incumbent_doubled:
                    break
                nwx = wx + m * dx
                nwy = wy + m * dy
                if max(abs(nwx), abs(nwy)) > reach:
                    continue
                additions.append(((j + 1, nwx, nwy, prim and m == 1), nc, (link, d, m)))
        for key, cost, link in additions:
            _reference_offer(states, key, cost, link)
        meter.spend(ops, lambda: str({k: Fraction(slot[False][0], 2) for k, slot in sorted(found.items())}))
    return found


def reference_sweep_symmetric(m_target, coord_bound, meter):
    states = {REFERENCE_ROOT: (0, None)}
    for d in lattice_polygons._primitive_directions(coord_bound, upper_half_only=True):
        dx, dy = d
        mult_cap = coord_bound // max(abs(dx), abs(dy))
        additions = []
        ops = 0
        for key, (cost, link) in states.items():
            j, wx, wy, prim = key
            if j >= m_target:
                continue
            if (wx, wy) == (0, 0):
                cr = 0
            else:
                cr = wx * dy - wy * dx
                if cr <= 0:
                    raise InvariantError("half-plane chain lost convexity")
            for mult in range(1, mult_cap + 1):
                ops += 1
                additions.append(
                    (
                        (j + 1, wx + mult * dx, wy + mult * dy, prim and mult == 1),
                        cost + mult * (cr - 1),
                        (link, d, mult),
                    )
                )
        for key, cost, link in additions:
            _reference_offer(states, key, cost, link)
        meter.spend(ops, lambda: "no symmetric polygon completed yet")
    finished = {key: v for key, v in states.items() if key[0] == m_target}
    return finished


def reference_primitive_directions(bound, upper_half_only=False):
    """The primitive vectors within `bound` sorted by `angle_key`, as the
    sweeps ordered them before the Farey rule generated them in order."""
    out = [
        (x, y)
        for x in range(-bound, bound + 1)
        for y in range(0 if upper_half_only else -bound, bound + 1)
        if gcd(x, y) == 1 and not (upper_half_only and y == 0 and x < 0)
    ]
    out.sort(key=angle_key)
    return out


def reference_most_compact(corner_sets, translate):
    """`_most_compact` as it was before it read the spread off the raw
    corners: every candidate is completed (a centred one comes as the
    first half of its corners), canonicalized and scored."""
    best = None
    for i, corners in enumerate(corner_sets):
        if not translate:
            corners = list(corners) + [(-x, -y) for x, y in corners]
        poly = LatticePolygon(canonical_form(corners, translate))
        spread = max(max(abs(x), abs(y)) for (x, y) in poly.vertices)
        score = (spread, poly.vertices)
        if best is None or score < best[0]:
            best = (score, i, poly)
    return None if best is None else best[1:]


def reference_areas_capped(k_max, coord_bound, cap, meter):
    """`reference_sweep_areas` with one cap, or with `_sweep_areas`'s
    row caps read as one cap, their largest, as `min_area_table` capped
    before its caps were kept per row and per store: an incumbent prunes
    costs that reach it, a cap only those above it."""
    if isinstance(cap, dict):
        cap = max(cap.values())
    return reference_sweep_areas(k_max, coord_bound, None if cap is None else cap + 1, meter)


def flat_row_caps(k_max, cap):
    """One cap as `_sweep_areas`'s row caps: the same cap on every row
    3..k_max."""
    return None if cap is None else dict.fromkeys(range(3, k_max + 1), cap)


#: The module's own area sweep, bound before any test patches it.
SWEEP_AREAS = lattice_polygons._sweep_areas


def areas_at_one_cap(k_max, coord_bound, cap, meter):
    """`_sweep_areas` at one cap, or at the row caps that `min_area_table`
    passes it."""
    if not isinstance(cap, dict):
        cap = flat_row_caps(k_max, cap)
    return SWEEP_AREAS(k_max, coord_bound, cap, meter)


def reference_symmetric_uncapped(m_target, coord_bound, cap, meter):
    """`reference_sweep_symmetric` with `_sweep_symmetric`'s arguments;
    it ignores the cap, so a search run on it sees every finished
    half-chain."""
    return reference_sweep_symmetric(m_target, coord_bound, meter)


def reference_steps(link):
    """The (direction, multiplicity) steps of a chain, from its first."""
    steps = []
    while link is not None:
        link, d, m = link
        steps.append((d, m))
    return steps[::-1]


def reference_corner_walk(edges, start):
    """Walk an edge cycle from `start`, dropping the division points that
    multiplicities put along straight runs: the corners as the witness
    picks found them before they summed a chain's steps."""
    verts = [start]
    for e in edges[:-1]:
        verts.append((verts[-1][0] + e[0], verts[-1][1] + e[1]))
    n = len(verts)
    return tuple(
        verts[i]
        for i in range(n)
        if _cross(
            (verts[i][0] - verts[i - 1][0], verts[i][1] - verts[i - 1][1]),
            (verts[(i + 1) % n][0] - verts[i][0], verts[(i + 1) % n][1] - verts[i][1]),
        )
        != 0
    )


def reference_edges(link):
    return [d for d, m in reference_steps(link) for _ in range(m)]


def reference_symmetric_corners(link):
    """Corners of the centred polygon an even-sum half-chain closes into."""
    half = reference_edges(link)
    sx, sy = sum(x for x, _ in half), sum(y for _, y in half)
    return reference_corner_walk(half + [(-x, -y) for x, y in half], (-sx // 2, -sy // 2))


def _minima(found):
    """Each slot's least doubled area, over all chains and over the
    all-primitive ones."""
    return {k: {prim: c2 for prim, (c2, _pool) in slot.items()} for k, slot in found.items()}


def _even_minima(finished):
    """The least cost of a finished half-chain with an even sum, over all
    of them and over the all-primitive ones."""
    even = [
        (cost, prim)
        for (_j, wx, wy, prim), (cost, _link) in finished.items()
        if wx % 2 == wy % 2 == 0
    ]
    return min((c for c, _p in even), default=None), min((c for c, p in even if p), default=None)


def _check_area_chain(link, k, c2, prim):
    """A pooled chain closes into a k-gon of doubled area c2, all of
    whose edges are primitive if `prim`, and starts in [0, pi/2)."""
    steps = reference_steps(link)
    edges = reference_edges(link)
    assert (sum(x for x, _ in edges), sum(y for _, y in edges)) == (0, 0)
    poly = LatticePolygon(reference_corner_walk(edges, (0, 0)))
    assert len(poly.vertices) == k
    assert 2 * pick_counts(poly).area == c2
    assert angle_key(steps[0][0])[0] == 0
    assert not prim or all(m == 1 for _d, m in steps)


def _check_half_chain(key, cost, link):
    """A finished half-chain has its key's edge count, sum and primitive
    flag, starts in [0, pi/2) and, with an even sum, closes into a
    centred 2m-gon with cost + 1 interior points."""
    m, wx, wy, prim = key
    steps = reference_steps(link)
    assert len(steps) == m and angle_key(steps[0][0])[0] == 0
    assert (sum(mu * x for (x, _), mu in steps), sum(mu * y for (_, y), mu in steps)) == (wx, wy)
    assert prim == all(mu == 1 for _d, mu in steps)
    if wx % 2 == wy % 2 == 0:
        poly = LatticePolygon(reference_symmetric_corners(link))
        assert len(poly.vertices) == 2 * m and poly.is_centrally_symmetric()
        assert pick_counts(poly).interior == cost + 1


def _memo(sweep):
    """Run each sweep once per (size, bound, cap), on a meter of its own;
    every call in these tests has a budget it cannot reach, so the budget
    is left out of the key.  `run(size, bound, cap)` gives the sweep's
    result and ops, and `run(size, bound, cap, meter)`, the sweep's own
    signature, spends the ops on `meter` and gives the result."""
    cache = {}

    def run(size, bound, cap, meter=None):
        # row caps, a dict, are keyed by their items
        key = size, bound, tuple(cap.items()) if isinstance(cap, dict) else cap
        if key not in cache:
            own = unbounded_meter()
            cache[key] = sweep(size, bound, cap, own), own.spent
        found, ops = cache[key]
        if meter is None:
            return found, ops
        meter.spend(ops)
        return found

    return run


def _area_results(call):
    try:
        res = call()
    except ConstructionError as exc:
        return str(exc)
    rows = res if isinstance(res, list) else [res]
    return [(r.k, r.area, r.witness.vertices, r.certified) for r in rows]


def _symmetric_results(call):
    try:
        r = call()
    except ConstructionError as exc:
        return str(exc)
    return (r.interior, r.witness_vertices, r.all_primitive, r.certified, r.f)


def _costs(finished, cap=None):
    return {key: cost for key, (cost, _link) in finished.items() if cap is None or cost <= cap}


SWEEP_CASES = [(k, b) for k in range(3, 9) for b in range(2, 7)] + [(9, 4), (10, 3)]


class TestSweepAgainstReference:
    @pytest.mark.parametrize("k_max,bound", SWEEP_CASES)
    def test_area_sweep_matches_reference(self, k_max, bound, monkeypatch):
        ref = _memo(reference_areas_capped)
        new = _memo(areas_at_one_cap)
        seeded, _ops = ref(k_max, min(bound, 2 if k_max <= 8 else 3), None)
        best = seeded[k_max][False][0]
        # uncapped, capped far below the seed (where runs in every store
        # break at their first step), just below it (single k) and at
        # it (table)
        for cap in (None, 0, best // 2, best - 1, best):
            ref_found, ref_ops = ref(k_max, bound, cap)
            new_found, new_ops = new(k_max, bound, cap)
            # the sweep starts chains only in the first quarter turn, so
            # its pools hold other chains than the uncut reference's; the
            # minima are the reference's
            assert _minima(new_found) == _minima(ref_found), cap
            for k, slot in new_found.items():
                for prim, (c2, pool) in slot.items():
                    for link in pool:
                        _check_area_chain(link, k, c2, prim)
            if cap is None:
                assert new_ops < ref_ops

        calls = (
            lambda: min_area_table(3, k_max, coord_bound=bound),
            lambda: min_area_table(3, k_max, coord_bound=bound, pruned=False),
            lambda: min_area_convex_kgon(k_max, coord_bound=bound),
            lambda: min_area_convex_kgon(k_max, coord_bound=bound, pruned=False),
        )
        results = {}
        for name, sweep in (("ref", ref), ("new", new)):
            monkeypatch.setattr(lattice_polygons, "_sweep_areas", sweep)
            results[name] = [_area_results(call) for call in calls]
        assert results["new"] == results["ref"]
        # the capped table is the full one, for fewer ops at bound 6
        assert results["new"][0] == results["new"][1]
        if bound == 6 and k_max >= 5:
            capped, full = (call()[0].states_explored for call in calls[:2])
            assert capped < full

    @pytest.mark.parametrize("two_m", range(2, 17, 2))
    def test_symmetric_sweep_matches_reference(self, two_m, monkeypatch):
        ref = _memo(reference_symmetric_uncapped)
        new = _memo(lattice_polygons._sweep_symmetric)
        m = two_m // 2
        if m >= 2:
            ref_finished, ref_ops = ref(m, 6, None)
            new_finished, new_ops = new(m, 6, None)
            # half-chains start only in the first quarter turn; the least
            # even-sum costs are the uncut reference's
            assert _even_minima(new_finished) == _even_minima(ref_finished)
            for key, (cost, link) in new_finished.items():
                _check_half_chain(key, cost, link)
            assert new_ops < ref_ops

            # capped at the seed's least even-sum cost, the sweep keeps
            # exactly the finished half-chains that can still win or tie
            seeded, _ops = new(m, 2, None)
            cap = _even_minima(seeded)[0]
            capped, _ops = new(m, 6, cap)
            assert _costs(capped) == _costs(new_finished, cap)
            if two_m >= 6:
                assert min_interior_symmetric(two_m).states_explored < new_ops

        results = {}
        for name, sweep in (("new", new), ("ref", ref)):
            monkeypatch.setattr(lattice_polygons, "_sweep_symmetric", sweep)
            results[name] = [
                _symmetric_results(
                    lambda: min_interior_symmetric(
                        two_m, coord_bound=bound, prefer_primitive=prefer
                    )
                )
                for bound in range(1, 7)
                for prefer in (False, True)
            ]
        assert results["new"] == results["ref"]


def _prefix_costs(link):
    """The cost after each step of a chain, from its first: the doubled
    area its partial sums sweep, seen from the start, or, for a
    half-chain, that less its multiplicities."""
    costs, (wx, wy), cost = [], (0, 0), 0
    for (dx, dy), m in reference_steps(link):
        cost += m * _cross((wx, wy), (dx, dy))
        wx, wy = wx + m * dx, wy + m * dy
        costs.append(cost)
    return costs


#: Uncapped sweeps, each run once for the store-cap tests.
UNCAPPED_AREAS = _memo(areas_at_one_cap)
UNCAPPED_HALVES = _memo(lattice_polygons._sweep_symmetric)


class TestStoreCaps:
    """The lower bounds behind each store's cost cap (module docstring,
    "Seeded cost caps"), on the chains the sweeps make, and the caps'
    edge cases: the root's zero cross products, negative caps and caps
    that fall with the edge count."""

    @pytest.mark.parametrize("k_max,bound", [(k, b) for k in range(3, 9) for b in range(2, 5)])
    def test_rest_of_a_closure_sweeps_its_pick_floor(self, k_max, bound):
        # a chain with s edges that closes as a k-gon still sweeps a
        # convex lattice polygon with k - s + 1 corners
        found, _ops = UNCAPPED_AREAS(k_max, bound, None)
        assert found
        for k, slot in found.items():
            for c2, pool in slot.values():
                for link in pool:
                    costs = _prefix_costs(link)
                    assert len(costs) == k and costs[-1] == c2
                    for s, cost in enumerate(costs, 1):
                        assert cost + (k - s - 1) <= c2 or s == k

    @pytest.mark.parametrize("m,bound", [(m, b) for m in range(2, 7) for b in range(1, 5)])
    def test_half_chain_steps_cross_at_least_their_edge_count(self, m, bound):
        finished, _ops = UNCAPPED_HALVES(m, bound, None)
        assert finished or bound == 1
        for _key, (_cost, link) in finished.items():
            w = (0, 0)
            for before, (d, mu) in enumerate(reference_steps(link)):
                assert _cross(w, d) >= before
                w = (w[0] + mu * d[0], w[1] + mu * d[1])

    def test_area_store_caps(self):
        caps = lattice_polygons._area_store_caps
        # one row: its cap less the Pick floor of the rest polygon
        assert caps({8: 13}, 8) == [6, 7, 8, 9, 10, 11, 12, 13, -1]
        # a row with a larger cap and fewer edges lifts the small stores,
        # so the caps fall from store 2 to store 3
        assert caps({3: 20, 8: 14}, 8) == [18, 19, 20, 10, 11, 12, 13, 14, -1]

    @pytest.mark.parametrize("bound", range(2, 5))
    def test_area_root_kept_iff_store_one_cap_is_not_negative(self, bound):
        # root steps have cross product 0: a store-1 cap of 0 keeps them
        # all, one of -1 none, without a division by that 0
        root_layers = len(lattice_polygons._primitive_directions(bound)) // 8 + 1
        meter = unbounded_meter()
        assert lattice_polygons._sweep_areas(3, bound, {3: 0}, meter) == {}
        assert meter.spent == root_layers
        full, _ops = UNCAPPED_AREAS(3, bound, None)
        kept, _ops = UNCAPPED_AREAS(3, bound, {3: 1})
        assert _minima(kept) == _minima(full) == {3: {False: 1, True: 1}}

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_row_caps_keep_every_row_minimum_within_its_cap(self, data):
        # store caps that rise, fall or go negative with s keep every
        # closure a named row needs, and the pooled chains close
        k_max = data.draw(st.integers(3, 8))
        bound = data.draw(st.integers(2, 4))
        rows = data.draw(st.sets(st.integers(3, k_max), min_size=1))
        row_caps = {k: data.draw(st.integers(-1, 24)) for k in sorted(rows)}
        full, full_ops = UNCAPPED_AREAS(k_max, bound, None)
        capped, ops = UNCAPPED_AREAS(k_max, bound, row_caps)
        assert ops <= full_ops
        for k, cap in row_caps.items():
            least = full.get(k, {}).get(False, (cap + 1,))[0]
            if least <= cap:
                assert _minima(capped)[k] == _minima(full)[k]
        for k, slot in capped.items():
            for prim, (c2, pool) in slot.items():
                for link in pool:
                    _check_area_chain(link, k, c2, prim)

    @pytest.mark.parametrize("bound", range(1, 7))
    @pytest.mark.parametrize("m", range(2, 7))
    def test_half_chain_caps_keep_exactly_the_chains_within_them(self, m, bound):
        # store 1 takes cap - (m - 1)(m - 2)/2, negative for m >= 3 at
        # small caps: the root then keeps only its runs of mult >= -cap
        full, full_ops = UNCAPPED_HALVES(m, bound, None)
        best = min((cost for cost, _link in full.values()), default=0)
        for cap in sorted({-m, -1, 0, best // 2, best - 1, best, best + 3}):
            capped, ops = UNCAPPED_HALVES(m, bound, cap)
            assert _costs(capped) == _costs(full, cap), cap
            assert ops <= full_ops


class TestSelectionAgainstReference:
    @pytest.mark.parametrize("upper_half_only", [False, True])
    def test_directions_match_reference(self, upper_half_only):
        for bound in range(1, 17):
            assert lattice_polygons._primitive_directions(
                bound, upper_half_only
            ) == reference_primitive_directions(bound, upper_half_only), bound

    @pytest.mark.parametrize("bound", range(2, 7))
    @pytest.mark.parametrize("pruned", [True, False])
    def test_area_witnesses_match_reference(self, bound, pruned, monkeypatch):
        call = lambda: min_area_table(3, 8, coord_bound=bound, pruned=pruned)
        new = _area_results(call)
        monkeypatch.setattr(lattice_polygons, "_most_compact", reference_most_compact)
        assert new == _area_results(call)

    @pytest.mark.parametrize("two_m", range(4, 17, 2))
    def test_symmetric_witnesses_match_reference(self, two_m, monkeypatch):
        calls = [
            lambda prefer=prefer: min_interior_symmetric(two_m, prefer_primitive=prefer)
            for prefer in (False, True)
        ]
        new = [_symmetric_results(call) for call in calls]
        monkeypatch.setattr(lattice_polygons, "_most_compact", reference_most_compact)
        assert new == [_symmetric_results(call) for call in calls]

    @pytest.mark.parametrize("k_max,bound", [(8, 4), (6, 6)])
    def test_chain_corners_match_edge_walk(self, k_max, bound):
        # the witness picks sum a chain's steps into its corners; the walk
        # over its unit edges they replaced gives the same corners
        found = lattice_polygons._sweep_areas(k_max, bound, None, unbounded_meter())
        links = [link for slot in found.values() for _c2, pool in slot.values() for link in pool]
        assert links
        for link in links:
            corners = lattice_polygons._chain_corners(link)
            assert tuple(corners[:-1]) == reference_corner_walk(reference_edges(link), (0, 0))
        finished = lattice_polygons._sweep_symmetric(k_max // 2, bound, None, unbounded_meter())
        even = [link for (_j, wx, wy, _p), (_c, link) in finished.items() if wx % 2 == wy % 2 == 0]
        assert even
        for link in even:
            half = lattice_polygons._centred_half(link)
            assert tuple(half + [(-x, -y) for x, y in half]) == reference_symmetric_corners(link)


def _quarter_turn(v, q):
    """R^q v for the quarter turn R(x, y) = (-y, x)."""
    x, y = v
    for _ in range(q % 4):
        x, y = -y, x
    return x, y


def _lattice_symmetry_images(vertices):
    """The images of a counterclockwise vertex cycle under the 8 lattice
    symmetries (x, y) -> (sx * x, sy * y), with or without the swap of
    x and y; a reflection's image is traversed backwards, so that every
    image is counterclockwise again."""
    images = []
    for sx in (1, -1):
        for sy in (1, -1):
            for swap in (False, True):
                pts = [(sx * (y if swap else x), sy * (x if swap else y)) for x, y in vertices]
                if sx * sy * (-1 if swap else 1) < 0:
                    pts.reverse()
                images.append(LatticePolygon(tuple(pts)))
    return images


#: The angle order position of direction (1, 1), the last on which the
#: sweeps' root starts chains.
ONE_ONE = angle_key((1, 1))


class TestLatticeSymmetry:
    """The lemma behind starting chains only on the directions (1, 0)
    through (1, 1) (module docstring, "Lattice symmetry"), and the place
    of that cut."""

    @given(points_strategy)
    @settings(max_examples=200)
    def test_a_lattice_symmetry_starts_a_polygon_by_one_one(self, pts):
        hull = strict_hull(pts)
        if hull is None:
            return
        poly = LatticePolygon(hull)
        bound = max(max(abs(x), abs(y)) for x, y in poly.edge_vectors)
        counts = pick_counts(poly)
        starts = 0
        for image in _lattice_symmetry_images(hull):
            edges = image.edge_vectors
            assert max(max(abs(x), abs(y)) for x, y in edges) == bound
            assert pick_counts(image) == counts
            if angle_key(min(edges, key=angle_key)) <= ONE_ONE:
                starts += 1
        assert starts

    @given(points_strategy, st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=200)
    def test_a_lattice_symmetry_starts_a_half_chain_by_one_one(self, pts, cx, cy):
        # symmetric about (cx, cy) / 2, so the half-chain's sum is odd
        # when cx or cy is
        hull = strict_hull(pts + [(cx - x, cy - y) for x, y in pts])
        if hull is None:
            return
        poly = LatticePolygon(hull)
        bound = max(max(abs(x), abs(y)) for x, y in poly.edge_vectors)
        counts = pick_counts(poly)
        starts = 0
        for image in _lattice_symmetry_images(hull):
            assert image.is_centrally_symmetric() == poly.is_centrally_symmetric()
            edges = image.edge_vectors
            half = [e for e in edges if angle_key(e)[0] < 2]
            assert len(half) * 2 == len(edges)
            assert max(max(abs(x), abs(y)) for x, y in half) == bound
            assert pick_counts(image) == counts
            sx, sy = sum(x for x, _ in half), sum(y for _, y in half)
            assert (sx % 2 == sy % 2 == 0) == (cx % 2 == cy % 2 == 0)
            if angle_key(min(half, key=angle_key)) <= ONE_ONE:
                starts += 1
        assert starts

    def test_diamonds_start_on_one_one(self):
        # the closed end of [0, pi/4]: every image of a diagonal diamond
        # has its least edge on (1, 1)
        for a, b in [(1, 1), (1, 2), (3, 1)]:
            diamond = ((a, -a), (a + b, b - a), (b, b), (0, 0))
            for image in _lattice_symmetry_images(diamond):
                assert angle_key(min(image.edge_vectors, key=angle_key)) == ONE_ONE

    @pytest.mark.parametrize("upper_half_only", [False, True])
    def test_root_layers_end_on_one_one(self, upper_half_only):
        for bound in range(1, 17):
            dirs = lattice_polygons._primitive_directions(bound, upper_half_only)
            root_layers = lattice_polygons._reserve_root_steps(
                unbounded_meter(), bound, upper_half_only
            )
            assert dirs[root_layers - 1] == (1, 1), bound
            assert all(angle_key(d) > ONE_ONE for d in dirs[root_layers:]), bound

    def test_cut_keeps_one_one(self, monkeypatch):
        # within bound 1 the only symmetric 4-gon with an even half-sum is
        # the diamond on (1, 1) and (-1, 1), whose every image starts on
        # (1, 1); a cut one layer earlier finds no polygon
        res = min_interior_symmetric(4, coord_bound=1)
        assert res.witness_vertices == ((-1, 0), (0, -1), (1, 0), (0, 1))
        counts = lattice_polygons._root_layer_counts
        monkeypatch.setattr(
            lattice_polygons, "_root_layer_counts", lambda bound: (c - 1 for c in counts(bound))
        )
        with pytest.raises(ConstructionError):
            min_interior_symmetric(4, coord_bound=1)

    @pytest.mark.parametrize("upper_half_only", [False, True])
    def test_direction_quarters_are_quarter_turns(self, upper_half_only):
        for bound in range(1, 17):
            dirs = lattice_polygons._primitive_directions(bound, upper_half_only)
            quarters = 2 if upper_half_only else 4
            n = len(dirs) // quarters
            assert n * quarters == len(dirs)
            first = dirs[:n]
            assert all(angle_key(d)[0] == 0 for d in first)
            for q in range(quarters):
                assert dirs[q * n : (q + 1) * n] == [_quarter_turn(d, q) for d in first], (bound, q)
