"""Tie-group profiles and the sharpness construction.

The bound n >= f(m) holds for strictly convex norms and is expected to
FAIL for polyhedral gauges and L^1 grid spectra; both directions are
tested, since the failure report is part of the contract.
"""

import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablenorm import lattice_polygons
from stablenorm.errors import ConstructionError, ValidationError
from stablenorm.lattice_polygons import f_of_m
from stablenorm.multiplicity import (
    construct_sharp_norm,
    multiplicity_profile,
    profile_csv_rows,
    verify_sharpness,
)
from stablenorm.norms import (
    ArcPolygon,
    Ellipse,
    IntegralClass,
    NormSpec,
    PNorm,
    enumerate_classes,
    euclidean,
    eval_norm,
    hexagonal,
    strict_convexity_check,
)
from stablenorm.periodic_metric import (
    CanyonStage,
    SpectrumEntry,
    SpectrumResult,
    spectrum,
    uniform_grid,
)
from stablenorm.tolerances import LEVEL_MATCH_RTOL


class TestProfileGrouping:
    def test_euclidean_budget_five(self):
        profile = multiplicity_profile(euclidean(), class_budget=5)
        zero, one, diag = profile.groups
        assert (zero.length, zero.multiplicity, zero.shorter_count) == (0.0, 1, 0)
        assert one.length == 1.0
        assert {c.as_tuple() for c in one.classes} == {(0, 1), (1, 0)}
        assert (one.multiplicity, one.shorter_count) == (2, 1)
        assert diag.multiplicity == 2 and diag.shorter_count == 3

    def test_hexagonal_first_group_is_sharp(self):
        profile = multiplicity_profile(hexagonal(), class_budget=7)
        first = profile.groups[1]
        assert first.multiplicity == 3
        assert first.shorter_count == 1
        assert first.f_bound == f_of_m(3) == 1
        assert first.theorem_ok

    def test_trivial_budget(self):
        profile = multiplicity_profile(euclidean(), class_budget=1)
        assert len(profile.groups) == 1
        only = profile.groups[0]
        assert (only.length, only.multiplicity, only.shorter_count) == (0.0, 1, 0)
        assert only.f_bound is None

    def test_group_sizes_sum_to_budget(self):
        profile = multiplicity_profile(euclidean(), class_budget=23)
        assert sum(g.multiplicity for g in profile.groups) == 23

    def test_shorter_counts_accumulate(self):
        profile = multiplicity_profile(hexagonal(), class_budget=19)
        seen = 0
        for g in profile.groups:
            assert g.shorter_count == seen
            seen += g.multiplicity

    @pytest.mark.parametrize(
        "norm",
        [euclidean(), hexagonal(), NormSpec(PNorm(3.0)), NormSpec(Ellipse(2.0, 0.3, 1.0))],
    )
    def test_strictly_convex_norms_respect_bound(self, norm):
        profile = multiplicity_profile(norm, class_budget=25)
        assert profile.violations == ()

    def test_scaling_preserves_profile_shape(self):
        base = multiplicity_profile(hexagonal(), class_budget=13)
        scaled = multiplicity_profile(hexagonal(scale=3.7), class_budget=13)
        assert [(g.multiplicity, g.shorter_count) for g in base.groups] == [
            (g.multiplicity, g.shorter_count) for g in scaled.groups
        ]
        for g_base, g_scaled in zip(base.groups, scaled.groups):
            assert g_scaled.length == pytest.approx(3.7 * g_base.length)

    @given(scale=st.floats(0.1, 10.0))
    @settings(max_examples=15, deadline=None)
    def test_scaling_invariance_property(self, scale):
        base = multiplicity_profile(NormSpec(PNorm(2.5)), class_budget=9)
        scaled = multiplicity_profile(NormSpec(PNorm(2.5), scale=scale), class_budget=9)
        assert [g.multiplicity for g in base.groups] == [g.multiplicity for g in scaled.groups]

    def test_budget_required_for_norms(self):
        with pytest.raises(ValidationError, match="budget"):
            multiplicity_profile(euclidean())

    def test_unknown_source_rejected(self):
        with pytest.raises(ValidationError, match="source"):
            multiplicity_profile([(0.0, 1)], class_budget=3)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValidationError, match="tolerance"):
            multiplicity_profile(euclidean(), class_budget=3, tie_tolerance=-1e-9)

    def test_nan_tolerance_rejected(self):
        # a NaN tolerance compares false both ways and would split the
        # Euclidean m = 2 tie of (1,0) and (0,1) into two m = 1 groups
        with pytest.raises(ValidationError, match="tolerance"):
            multiplicity_profile(euclidean(), class_budget=5, tie_tolerance=math.nan)

    @pytest.mark.parametrize("tol", [math.inf, -math.inf])
    def test_infinite_tolerance_rejected(self, tol):
        # inf would merge all five Euclidean classes, the zero class
        # included, into one group that reads theorem_ok True
        with pytest.raises(ValidationError, match="tie tolerance must be finite"):
            multiplicity_profile(euclidean(), class_budget=5, tie_tolerance=tol)

    def test_infinite_tolerance_rejected_for_a_spectrum(self):
        res = spectrum(uniform_grid(4), norm_bound=2.0)
        with pytest.raises(ValidationError, match="tie tolerance must be finite"):
            multiplicity_profile(res, tie_tolerance=math.inf)

    @pytest.mark.parametrize("tol", [True, False, "1e-3", b"0", [1e-3]])
    def test_non_number_tolerance_rejected(self, tol):
        # True would run at tolerance 1.0, and a string would be parsed
        with pytest.raises(ValidationError, match="tie tolerance must be a number"):
            multiplicity_profile(euclidean(), class_budget=5, tie_tolerance=tol)


class TestSpectrumInput:
    def test_grid_spectrum_violates_bound(self):
        res = spectrum(uniform_grid(16), 2.1)
        profile = multiplicity_profile(res, tie_tolerance=1e-6)
        lengths = [g.length for g in profile.groups]
        assert lengths == [0.0, 1.0, 2.0]
        last = profile.groups[2]
        # the L^1 spectrum is not strictly convex: 4 ties after only 3
        # shorter classes, below f(4) = 4
        assert (last.multiplicity, last.shorter_count, last.f_bound) == (4, 3, 4)
        assert profile.violations == (2,)

    def test_explicit_tolerance_required(self):
        res = spectrum(uniform_grid(16), 1.1)
        with pytest.raises(ValidationError, match="tolerance"):
            multiplicity_profile(res)

    def test_budget_truncates_entries(self):
        res = spectrum(uniform_grid(16), 2.1)
        profile = multiplicity_profile(res, class_budget=3, tie_tolerance=1e-6)
        assert sum(g.multiplicity for g in profile.groups) == 3

    @pytest.mark.parametrize("budget", [-1, 0, 2.5, 3.0, True])
    def test_bad_budget_rejected(self, budget):
        # a negative budget would slice entries from the end and drop the
        # last spectrum entries without a word
        res = spectrum(uniform_grid(16), 2.1)
        with pytest.raises(ValidationError, match="class budget"):
            multiplicity_profile(res, class_budget=budget, tie_tolerance=1e-6)
        with pytest.raises(ValidationError, match="class budget"):
            multiplicity_profile(euclidean(), class_budget=budget)

    def test_straight_edge_gauge_violates_bound(self):
        diamond = NormSpec(ArcPolygon(((1, 0), (0, 1), (-1, 0), (0, -1)), math.inf, 1.0))
        profile = multiplicity_profile(diamond, class_budget=7)
        assert profile.violations != ()


class TestCoarseToleranceWarning:
    def test_coarse_tolerance_warns(self):
        with pytest.warns(UserWarning, match="coarse"):
            multiplicity_profile(euclidean(), class_budget=12, tie_tolerance=0.5)

    def test_rounding_gap_is_a_tie(self):
        # 0.9999999999999992 and 0.9999999999999999 are 7 ulps apart:
        # rounding of one length, not two lengths the tolerance merges
        lengths = [((0, 0), 0.0)] + [(c, 0.9999999999999992) for c in ((1, 0), (0, 1), (1, 1))]
        lengths.append(((1, -1), 0.9999999999999999))
        entries = tuple(SpectrumEntry(IntegralClass(*c), v, ()) for c, v in lengths)
        res = SpectrumResult(entries=entries, groups=(), norm_bound=1.0, group_rtol=1e-6)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            profile = multiplicity_profile(res, tie_tolerance=1e-9)
        assert [g.multiplicity for g in profile.groups] == [1, 4]

    def test_default_tolerance_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            multiplicity_profile(euclidean(), class_budget=12)


class TestOutputs:
    def test_jsonable_shape(self):
        profile = multiplicity_profile(hexagonal(), class_budget=7)
        blob = profile.to_jsonable()
        assert blob["source"] == "norm"
        assert [g["m"] for g in blob["groups"]] == [1, 3, 3]
        assert all(isinstance(g["classes"], list) for g in blob["groups"])

    def test_csv_rows_cover_every_class(self):
        profile = multiplicity_profile(euclidean(), class_budget=9)
        rows = profile_csv_rows(profile)
        assert len(rows) == 9
        assert [r[0] for r in rows] == list(range(9))
        assert rows[0][1:4] == (0, 0, 0.0)


class TestSharpConstruction:
    def test_m1_is_anisotropic_ellipse(self):
        norm = construct_sharp_norm(1)
        assert isinstance(norm.variant, Ellipse)
        assert eval_norm(norm, (1, 0)) == pytest.approx(1.0)
        assert eval_norm(norm, (0, 1)) > 1.0

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_bulged_gauge_is_strictly_convex(self, m):
        norm = construct_sharp_norm(m)
        assert isinstance(norm.variant, ArcPolygon)
        assert len(norm.variant.vertices) == 2 * m
        assert strict_convexity_check(norm).ok

    def test_level_scales_vertices(self):
        norm = construct_sharp_norm(2, level=2.5)
        for v in norm.variant.vertices:
            assert eval_norm(norm, v) == pytest.approx(2.5)

    def test_boundary_meets_lattice_only_at_vertices(self):
        norm = construct_sharp_norm(3)
        verts = set(norm.variant.vertices)
        reach = 4
        on_level = {
            (x, y)
            for x in range(-reach, reach + 1)
            for y in range(-reach, reach + 1)
            if (x, y) != (0, 0)
            and abs(eval_norm(norm, (x, y)) - 1.0) <= 1e-9
        }
        assert on_level == verts

    @pytest.mark.parametrize("bad", [0, 7, -1, "3", 2.0, True])
    def test_m_validation(self, bad):
        with pytest.raises(ValidationError):
            construct_sharp_norm(bad)

    @pytest.mark.parametrize("level", [0.0, -1.0])
    def test_level_validation(self, level):
        with pytest.raises(ValidationError):
            construct_sharp_norm(2, level=level)

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("level", [True, False, math.inf, -math.inf, math.nan, "1.0", 0, -2.0])
    def test_level_refused_with_one_message(self, m, level):
        # checked up front: a bool would run as 1.0, and infinity would
        # fail later, in the arc gauge (m = 3) or the scale check (m = 1)
        for build in (construct_sharp_norm, verify_sharpness):
            with pytest.raises(ValidationError, match="level must be a positive finite number"):
                build(m, level=level)

    @pytest.mark.parametrize("m", [1, 3])
    def test_integer_and_fraction_levels_accepted(self, m):
        for level in (2, Fraction(5, 2)):
            report = verify_sharpness(m, level=level)
            assert report.passed and report.level == float(level)


class TestSharpnessVerification:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_bound_attained(self, m, monkeypatch):
        sweeps = []
        sweep = lattice_polygons._sweep_symmetric

        def counting_sweep(*args):
            sweeps.append(args)
            return sweep(*args)

        monkeypatch.setattr(lattice_polygons, "_sweep_symmetric", counting_sweep)
        report = verify_sharpness(m)
        # f(m) comes from the one search that built the norm, a seed
        # sweep and the capped full sweep; m = 1 needs none
        assert len(sweeps) == (2 if m >= 2 else 0)
        assert report.passed
        assert report.achieved_multiplicity == m
        assert report.achieved_shorter == report.f_m == f_of_m(m)
        assert len(report.classes_below) == report.f_m
        assert len(report.tie_classes) == m

    def test_report_jsonable(self):
        blob = verify_sharpness(2).to_jsonable()
        assert blob["passed"] is True
        assert blob["m"] == 2
        assert len(blob["tie_classes"]) == 2

    def test_nonunit_level(self):
        report = verify_sharpness(3, level=2.0)
        assert report.passed
        assert report.level == 2.0


#: The level-1 group (m, n) of each sharp norm's least canyon stage.  The
#: paper's corollary gives (m, f(m)); m = 2 gives (3, 1) instead, the open
#: defect of ROADMAP item 1: at the default background b = l_k = 1.0 a
#: grid row realises (1, 0) at length 1, though its norm is 1.3246.
_SHARP_STAGE_GROUPS = {2: (3, 1), 3: (3, 1), 4: (4, 4), 5: (5, 7), 6: (6, 10)}


def _least_sharp_stage(m, background=None):
    """The canyon stage on grid 64 of the sharp norm for m whose
    prescribed classes are exactly the primitive classes at or below
    level 1, with theta from the tube search and background l_k unless
    given; returns the stage and its k."""
    norm = construct_sharp_norm(m)
    entries = enumerate_classes(norm, f_of_m(m) + m + 3).entries
    k = sum(1 for c, v in entries if c.is_primitive and v <= 1 + LEVEL_MATCH_RTOL)
    return CanyonStage(norm, k, background=background).canyon, k


def _level_one_group(stage):
    """(m, n) of the tie group at length 1 of the stage's spectrum; the
    profile must not warn that its tolerance is too coarse."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        profile = multiplicity_profile(spectrum(stage, 1.0), tie_tolerance=1e-9)
    (group,) = [g for g in profile.groups if abs(g.length - 1.0) <= LEVEL_MATCH_RTOL]
    return group.multiplicity, group.shorter_count


class TestSharpCanyonStage:
    """The multiplicity corollary on a torus metric: the least canyon
    stage of the sharp norm for m shows its level-1 tie group in
    `spectrum`, with f(m) classes strictly below it."""

    @pytest.mark.parametrize("m", sorted(_SHARP_STAGE_GROUPS))
    def test_level_one_group(self, m):
        stage, k = _least_sharp_stage(m)
        assert k == {2: 2, 3: 3, 4: 6, 5: 8, 6: 12}[m]
        got = _level_one_group(stage)
        assert got == _SHARP_STAGE_GROUPS[m]
        if m == 2:
            # pinned defect, not the corollary: (1, 0) joins the group
            assert got != (m, f_of_m(m))
        else:
            assert got == (m, f_of_m(m))

    def test_m2_background_at_the_axis_gauge(self):
        # with b = 2 = gauge_P(e_1) the stage's stable ball is P_k and the
        # group is the corollary's (2, f(2))
        stage, _k = _least_sharp_stage(2, background=2.0)
        assert _level_one_group(stage) == (2, f_of_m(2)) == (2, 1)
