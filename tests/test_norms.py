"""Norm evaluation, strict convexity, and class enumeration."""

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from stablenorm.errors import ValidationError
from stablenorm.multiplicity import construct_sharp_norm
from stablenorm.norms import (
    ArcPolygon,
    Ellipse,
    EnumeratedClasses,
    IntegralClass,
    NormSpec,
    PNorm,
    _arc_centers,
    enumerate_classes,
    euclidean,
    eval_norm,
    hexagonal,
    leading_primitive_classes,
    lipschitz_bound,
    make_arc_polygon,
    norm_evaluator,
    norm_from_jsonable,
    norm_to_jsonable,
    strict_convexity_check,
    unit_circle_lower_bound,
)

DIAMOND = ((1, 0), (0, 1), (-1, 0), (0, -1))


def brute_force_classes(norm, value_cap, box):
    """Independent oracle: every canonical class with norm <= value_cap,
    found by scanning the integer box directly."""
    out = []
    for a in range(0, box + 1):
        for b in range(-box if a > 0 else 0, box + 1):
            v = eval_norm(norm, IntegralClass(a, b))
            if v <= value_cap:
                out.append((a, b))
    return sorted(out)


@st.composite
def norm_specs(draw):
    kind = draw(st.sampled_from(["ellipse", "pnorm"]))
    scale = draw(st.sampled_from([1.0, 0.5, 2.0, 1.25]))
    if kind == "ellipse":
        q11 = draw(st.floats(0.5, 3.0))
        q22 = draw(st.floats(0.5, 3.0))
        r = draw(st.floats(-0.7, 0.7))
        return NormSpec(Ellipse(q11, r * math.sqrt(q11 * q22), q22), scale)
    return NormSpec(PNorm(draw(st.floats(1.3, 6.0))), scale)


vectors = st.tuples(st.floats(-9.0, 9.0), st.floats(-9.0, 9.0))


class TestEvalNorm:
    def test_euclidean_pythagorean(self):
        assert eval_norm(euclidean(), (3.0, 4.0)) == pytest.approx(5.0, abs=0)

    def test_pnorm_diagonal(self):
        assert eval_norm(NormSpec(PNorm(4.0)), (1.0, 1.0)) == pytest.approx(2.0 ** 0.25, rel=1e-15)

    def test_arc_polygon_vertex_on_level(self):
        spec = make_arc_polygon(DIAMOND, level=1.0)
        assert eval_norm(spec, (1.0, 0.0)) == pytest.approx(1.0, rel=1e-12)
        assert eval_norm(spec, IntegralClass(0, -1)) == pytest.approx(1.0, rel=1e-12)

    def test_zero_vector(self):
        spec = make_arc_polygon(DIAMOND, level=1.0)
        for norm in (euclidean(), NormSpec(PNorm(2.5)), spec):
            assert eval_norm(norm, (0.0, 0.0)) == 0.0

    def test_ellipse_off_diagonal(self):
        # v'Qv = 1 + 2*0.5 + 1 = 3 for v = (1,1), Q = [[1,.5],[.5,1]]
        assert eval_norm(hexagonal(), IntegralClass(1, 1)) == pytest.approx(math.sqrt(3.0), rel=1e-15)

    @given(norm_specs(), vectors, st.integers(1, 12), st.integers(1, 12))
    @settings(deadline=None)
    def test_rational_homogeneity(self, norm, v, num, den):
        r = Fraction(num, den)
        scaled = (float(r) * v[0], float(r) * v[1])
        assert eval_norm(norm, scaled) == pytest.approx(float(r) * eval_norm(norm, v), rel=1e-12, abs=1e-15)

    @given(norm_specs(), vectors)
    @settings(deadline=None)
    def test_symmetry(self, norm, v):
        assert eval_norm(norm, (-v[0], -v[1])) == pytest.approx(eval_norm(norm, v), rel=1e-12, abs=0)

    @given(norm_specs(), vectors, vectors)
    @settings(deadline=None)
    def test_triangle_inequality(self, norm, u, v):
        lhs = eval_norm(norm, (u[0] + v[0], u[1] + v[1]))
        rhs = eval_norm(norm, u) + eval_norm(norm, v)
        assert lhs <= rhs + 1e-12 * max(1.0, rhs)

    @given(st.integers(-20, 20), st.integers(-20, 20))
    def test_positive_on_lattice(self, a, b):
        if (a, b) == (0, 0):
            return
        for norm in (euclidean(), hexagonal(), NormSpec(PNorm(1.5))):
            assert eval_norm(norm, IntegralClass(a, b)) > 0.4


class TestArcPolygonGauge:
    def test_symmetric_gauge_is_exactly_even(self):
        spec = make_arc_polygon(((2, 1), (-1, 1), (-2, -1), (1, -1)), level=3.0)
        for v in [(0.3, 1.7), (2.0, 0.01), (-1.2, 0.7), (5.0, 3.0)]:
            assert eval_norm(spec, v) == eval_norm(spec, (-v[0], -v[1]))

    def test_bulge_excludes_foreign_lattice_points(self):
        spec = make_arc_polygon(DIAMOND, level=1.0)
        for pt in [(1, 1), (2, 0), (1, -1)]:
            assert eval_norm(spec, pt) > 1.0 + 1e-9

    def test_interior_points_stay_interior(self):
        spec = make_arc_polygon(((2, 1), (-1, 1), (-2, -1), (1, -1)), level=1.0)
        assert eval_norm(spec, (1, 0)) < 1.0
        assert eval_norm(spec, (1, 1)) < 1.0

    def test_reflex_radius_rejected(self):
        # radius barely above the half chord bulges each edge into a near
        # half disk, so junctions turn reflex
        chord = math.sqrt(2.0)
        with pytest.raises(ValidationError):
            NormSpec(ArcPolygon(DIAMOND, radius=chord / 2 + 1e-6, level=1.0))

    def test_vertex_validation(self):
        with pytest.raises(ValidationError):
            NormSpec(ArcPolygon(((1, 0), (0, 1), (-1, 0)), radius=5.0, level=1.0))
        with pytest.raises(ValidationError):
            NormSpec(ArcPolygon(((1, 0), (0, 1), (-1, 0), (0, -2)), radius=5.0, level=1.0))
        with pytest.raises(ValidationError):
            # three collinear vertices: not strictly convex
            NormSpec(
                ArcPolygon(
                    ((1, -1), (1, 0), (1, 1), (-1, 1), (-1, 0), (-1, -1)),
                    radius=9.0,
                    level=1.0,
                )
            )


def reference_arc_evaluator(norm):
    """The arc-polygon gauge as `norm_evaluator` computed it before it
    read one sector table: each call walks the vertex pairs, and the
    matched sector's ray length comes from its arc centre, or from its
    chord at radius inf, in the same float operations."""
    var = norm.variant
    verts = var.vertices
    n = len(verts)
    centers = None if math.isinf(var.radius) else _arc_centers(verts, var.radius)
    gauge_level = norm.scale * var.level

    def ray_length(ux, uy):
        for i in range(n):
            v1x, v1y = verts[i]
            v2x, v2y = verts[(i + 1) % n]
            if v1x * uy - v1y * ux >= 0.0 and ux * v2y - uy * v2x >= 0.0:
                if centers is None:
                    ex, ey = v2x - v1x, v2y - v1y
                    return (v1x * ey - v1y * ex) / (ux * ey - uy * ex)
                ox, oy = centers[i]
                beta = ux * ox + uy * oy
                disc = beta * beta + var.radius * var.radius - (ox * ox + oy * oy)
                return beta + math.sqrt(disc)
        raise ValidationError(f"direction ({ux},{uy}) matched no sector of the arc polygon")

    def arc(x, y):
        r = math.hypot(x, y)
        if r == 0.0:
            return 0.0
        return gauge_level * r / ray_length(x / r, y / r)

    return arc


@functools.cache
def arc_norm(name):
    """The sharp norms m = 2..6, and straight-edge (radius inf) gauges."""
    if name.startswith("sharp"):
        return construct_sharp_norm(int(name[5:]), level=1.7)
    if name == "inf diamond":
        return NormSpec(ArcPolygon(DIAMOND, math.inf, 1.0))
    return NormSpec(ArcPolygon(((2, 1), (-1, 1), (-2, -1), (1, -1)), math.inf, 3.0), 2.5)


class TestArcEvaluatorTable:
    @pytest.mark.parametrize(
        "name", ["sharp2", "sharp3", "sharp4", "sharp5", "sharp6", "inf diamond", "inf rhombus"]
    )
    @given(st.floats(0.0, 2.0 * math.pi), st.floats(1e-3, 1e3))
    @example(0.0, 1.0)
    @example(math.pi / 4, math.sqrt(2.0))
    @example(math.pi, 1.0)
    @example(3 * math.pi / 2, 7.0)
    @settings(deadline=None)
    def test_bit_identical_to_reference(self, name, angle, radius):
        norm = arc_norm(name)
        new, ref = norm_evaluator(norm), reference_arc_evaluator(norm)
        x, y = radius * math.cos(angle), radius * math.sin(angle)
        assert new(x, y).hex() == ref(x, y).hex()
        # vertex directions, exact, sit on two sectors' shared boundary
        for vx, vy in norm.variant.vertices:
            assert new(float(vx), float(vy)).hex() == ref(float(vx), float(vy)).hex()
        assert new(0.0, 0.0) == ref(0.0, 0.0) == 0.0


class TestStrictConvexity:
    def test_euclidean_passes(self):
        assert strict_convexity_check(euclidean()).ok

    def test_pnorm_passes(self):
        assert strict_convexity_check(NormSpec(PNorm(4.0))).ok

    def test_straight_polygon_fails_with_same_edge_witness(self):
        flat = NormSpec(ArcPolygon(DIAMOND, radius=math.inf, level=1.0))
        report = strict_convexity_check(flat)
        assert not report.ok
        (u, v) = report.witness
        # both witnesses sit on one straight edge x + y = 1 (up to sign)
        su = (abs(u[0]) + abs(u[1]), math.copysign(1, u[0]), math.copysign(1, u[1]))
        sv = (abs(v[0]) + abs(v[1]), math.copysign(1, v[0]), math.copysign(1, v[1]))
        assert su[0] == pytest.approx(1.0, rel=1e-12)
        assert sv[0] == pytest.approx(1.0, rel=1e-12)

    def test_bulged_polygon_passes(self):
        spec = make_arc_polygon(DIAMOND, level=1.0)
        assert strict_convexity_check(spec).ok


class TestEnumerateClasses:
    def test_euclidean_first_four(self):
        got = enumerate_classes(euclidean(), 4)
        assert [(h.as_tuple(), pytest.approx(v, abs=1e-12)) for h, v in got.entries] == [
            ((0, 0), 0.0),
            ((0, 1), 1.0),
            ((1, 0), 1.0),
            ((1, 1), math.sqrt(2.0)),
        ]
        assert not got.segment_tie_warning

    def test_trivial_only(self):
        got = enumerate_classes(euclidean(), 1)
        assert got.entries == ((IntegralClass(0, 0), 0.0),)

    def test_pnorm_ordering(self):
        # count 5 ends inside the 2^(1/4) tie group {(1,1),(1,-1)}; (0,2)
        # only enters at count 7, after which the precedence is visible
        got5 = [h.as_tuple() for h, _ in enumerate_classes(NormSpec(PNorm(4.0)), 5).entries]
        assert got5 == [(0, 0), (0, 1), (1, 0), (1, 1), (1, -1)]
        got = enumerate_classes(NormSpec(PNorm(4.0)), 7)
        ranked = [h.as_tuple() for h, _ in got.entries]
        assert ranked.index((1, 1)) < ranked.index((0, 2))
        values = dict(((h.as_tuple(), v) for h, v in got.entries))
        assert values[(1, 1)] == pytest.approx(2.0 ** 0.25, rel=1e-15)
        assert values[(0, 2)] == pytest.approx(2.0, rel=1e-15)

    def test_straight_polygon_sets_segment_warning(self):
        flat = NormSpec(ArcPolygon(DIAMOND, radius=math.inf, level=1.0))
        got = enumerate_classes(flat, 4)
        assert got.segment_tie_warning

    def test_strictly_convex_norms_do_not_warn(self):
        for norm in (euclidean(), hexagonal(), NormSpec(PNorm(4.0))):
            assert not enumerate_classes(norm, 9).segment_tie_warning

    @given(norm_specs(), st.integers(2, 16))
    @settings(deadline=None, max_examples=40)
    @example(NormSpec(Ellipse(1, 1e-12, 1)), 5)
    def test_lengths_nondecreasing(self, norm, count):
        entries = enumerate_classes(norm, count).entries
        values = [v for _, v in entries]
        assert all(values[i] <= values[i + 1] + 1e-12 for i in range(len(values) - 1))
        assert entries[0] == (IntegralClass(0, 0), 0.0)

    @given(norm_specs(), st.integers(2, 14))
    @settings(deadline=None, max_examples=30)
    def test_completeness_against_lattice_scan(self, norm, count):
        entries = enumerate_classes(norm, count).entries
        last = entries[-1][1]
        cap = last * (1.0 - 1e-9)
        box = int(math.ceil(last / unit_circle_lower_bound(norm))) + 2
        expected = brute_force_classes(norm, cap, box)
        reported = sorted(h.as_tuple() for h, v in entries if v <= cap)
        assert reported == expected

    def test_hexagonal_unit_shell(self):
        entries = enumerate_classes(hexagonal(), 7).entries
        unit = sorted(h.as_tuple() for h, v in entries if abs(v - 1.0) < 1e-12)
        assert unit == [(0, 1), (1, -1), (1, 0)]
        # q(a,b) = a^2 + ab + b^2: the value-3 shell is (1,1), (1,-2), (2,-1)
        next_shell = sorted(h.as_tuple() for h, v in entries if abs(v - math.sqrt(3.0)) < 1e-12)
        assert next_shell == [(1, -2), (1, 1), (2, -1)]

    def test_count_validated(self):
        with pytest.raises(ValidationError):
            enumerate_classes(euclidean(), 0)

    @pytest.mark.parametrize("count", [2.5, 2.0, True])
    def test_non_int_count_rejected(self, count):
        # a float count would reach list indexing and raise TypeError
        with pytest.raises(ValidationError, match="count"):
            enumerate_classes(euclidean(), count)


class TestLeadingPrimitives:
    def test_hexagonal_progression(self):
        got = [h.as_tuple() for h, _ in leading_primitive_classes(hexagonal(), 6)]
        assert got == [(0, 1), (1, 0), (1, -1), (1, 1), (1, -2), (2, -1)]

    def test_skips_imprimitive(self):
        got = leading_primitive_classes(euclidean(), 8)
        assert all(h.is_primitive for h, _ in got)
        assert (0, 2) not in [h.as_tuple() for h, _ in got][:5]

    @pytest.mark.parametrize("k", [0, 2.5, 2.0, True])
    def test_k_validated(self, k):
        with pytest.raises(ValidationError, match="k must"):
            leading_primitive_classes(euclidean(), k)


class TestLipschitz:
    def test_paper_constant_euclidean(self):
        assert lipschitz_bound(1.0, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_pythagorean(self):
        assert lipschitz_bound(3.0, 4.0) == pytest.approx(5.0, abs=0)

    def test_scaling(self):
        assert lipschitz_bound(2.0, 2.0) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            lipschitz_bound(0.0, 1.0)
        with pytest.raises(ValidationError):
            lipschitz_bound(1.0, -2.0)

    @given(norm_specs(), vectors, vectors)
    @settings(deadline=None)
    def test_difference_bounded_on_random_pairs(self, norm, x, y):
        b = lipschitz_bound(eval_norm(norm, (1.0, 0.0)), eval_norm(norm, (0.0, 1.0)))
        lhs = abs(eval_norm(norm, x) - eval_norm(norm, y))
        assert lhs <= b * math.hypot(x[0] - y[0], x[1] - y[1]) + 1e-9


class TestIntegralClass:
    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_canonical_identifies_signs(self, a, b):
        h = IntegralClass(a, b)
        assert h.canonical() == (-h).canonical()
        c = h.canonical()
        assert c.a > 0 or (c.a == 0 and c.b >= 0)

    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_primitive_core_reconstructs(self, a, b):
        h = IntegralClass(a, b)
        p, n = h.primitive_core()
        assert p.is_primitive
        assert n >= 0
        assert p.scaled(n) == h or h.is_trivial

    def test_trivial_not_primitive(self):
        assert not IntegralClass(0, 0).is_primitive
        assert IntegralClass(0, 1).is_primitive
        assert not IntegralClass(2, 4).is_primitive


class TestSerialization:
    def test_roundtrip_all_variants(self):
        specs = [
            euclidean(2.0),
            hexagonal(),
            NormSpec(PNorm(3.5), 0.5),
            make_arc_polygon(DIAMOND, level=1.0),
            NormSpec(ArcPolygon(DIAMOND, radius=math.inf, level=2.0)),
        ]
        for spec in specs:
            assert norm_from_jsonable(norm_to_jsonable(spec)) == spec

    def test_infinite_radius_is_null(self):
        flat = NormSpec(ArcPolygon(DIAMOND, radius=math.inf, level=1.0))
        assert norm_to_jsonable(flat)["radius"] is None

    def test_malformed_rejected(self):
        with pytest.raises(ValidationError):
            norm_from_jsonable({"variant": "triangle"})
        with pytest.raises(ValidationError):
            norm_from_jsonable({"variant": "pnorm"})
        with pytest.raises(ValidationError):
            norm_from_jsonable({"variant": "ellipse", "q": [[1.0, 0.2], [0.3, 1.0]], "scale": 1.0})

    @pytest.mark.parametrize(
        "obj",
        [
            # a float vertex was truncated to the diamond (1, 0)
            {"variant": "arcpolygon", "vertices": [[1.9, 0], [0, 1], [-1.9, 0], [0, -1]], "radius": 5, "level": 1},
            {"variant": "arcpolygon", "vertices": [[True, 0], [0, 1], [-1, 0], [0, -1]], "radius": 5, "level": 1},
            {"variant": "arcpolygon", "vertices": [[1, 0], [0, 1], [-1, 0], [0, -1]], "radius": "5", "level": 1},
            {"variant": "arcpolygon", "vertices": [[1, 0], [0, 1], [-1, 0], [0, -1]], "radius": 5, "level": True},
            {"variant": "pnorm", "p": "3"},
            {"variant": "pnorm", "p": 3, "scale": True},
            {"variant": "pnorm", "p": 3, "scale": "2"},
            {"variant": "ellipse", "q": [["1", 0], [0, 1]]},
            {"variant": "ellipse", "q": [[True, 0], [0, 1]]},
        ],
    )
    def test_non_numbers_refused_not_coerced(self, obj):
        with pytest.raises(ValidationError):
            norm_from_jsonable(obj)

    def test_make_arc_polygon_refuses_float_vertices(self):
        # it truncated (1.9, 0) to the diamond's (1, 0)
        with pytest.raises(ValidationError, match="not a lattice point"):
            make_arc_polygon(((1.9, 0), (0, 1), (-1.9, 0), (0, -1)), level=1.0)

    def test_integer_json_numbers_accepted(self):
        spec = norm_from_jsonable({"variant": "ellipse", "q": [[2, 0], [0, 1]], "scale": 3})
        assert spec == NormSpec(Ellipse(2.0, 0.0, 1.0), 3.0)


class TestValidation:
    def test_non_spd_ellipse(self):
        with pytest.raises(ValidationError):
            NormSpec(Ellipse(1.0, 1.1, 1.0))
        with pytest.raises(ValidationError):
            NormSpec(Ellipse(-1.0, 0.0, 1.0))

    @pytest.mark.parametrize(
        "q", [(math.inf, 0.0, 1.0), (1.0, 0.0, math.inf), (1.0, math.inf, 1.0), (1.0, math.nan, 1.0)]
    )
    def test_non_finite_ellipse(self, q):
        # an infinite diagonal entry keeps the determinant positive
        with pytest.raises(ValidationError, match="finite"):
            NormSpec(Ellipse(*q))
        with pytest.raises(ValidationError):
            norm_from_jsonable({"variant": "ellipse", "q": [[q[0], q[1]], [q[1], q[2]]]})

    def test_bad_exponent(self):
        for p in (1.0, 0.5, math.inf):
            with pytest.raises(ValidationError):
                NormSpec(PNorm(p))

    def test_bad_scale(self):
        with pytest.raises(ValidationError):
            NormSpec(PNorm(2.0), scale=0.0)

    @pytest.mark.parametrize(
        "build",
        [
            # a bool passed as 1.0, and a string raised TypeError
            lambda: NormSpec(Ellipse(1.0, 0.0, 1.0), True),
            lambda: NormSpec(Ellipse(1.0, 0.0, 1.0), "2"),
            lambda: NormSpec(Ellipse(True, 0.0, 1.0)),
            lambda: NormSpec(Ellipse(1.0, False, 1.0)),
            lambda: NormSpec(Ellipse("1", 0.0, 1.0)),
            lambda: NormSpec(Ellipse(1.0, 0.0, None)),
            lambda: NormSpec(PNorm(True)),
            lambda: NormSpec(PNorm("3")),
            lambda: make_arc_polygon(DIAMOND, level=True),
            lambda: make_arc_polygon(DIAMOND, level="1"),
            lambda: NormSpec(ArcPolygon(DIAMOND, True, 1.0)),
            lambda: NormSpec(ArcPolygon(DIAMOND, "inf", 1.0)),
        ],
    )
    def test_non_numbers_refused(self, build):
        with pytest.raises(ValidationError, match="must be a number"):
            build()

    def test_int_entries_accepted(self):
        assert eval_norm(NormSpec(Ellipse(1, 0, 1), 2), (3.0, 4.0)) == 10.0
