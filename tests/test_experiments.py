"""Convergence pipeline: hull gauge correctness and stage monotonicity."""

import math

import pytest

from stablenorm import experiments
from stablenorm.cover import FLAT_GAUGE, gauge_normals
from stablenorm.errors import InvariantError, ValidationError
from stablenorm.experiments import PinnedDeviation, run_convergence
from stablenorm.norms import (
    Ellipse,
    IntegralClass,
    NormSpec,
    euclidean,
    eval_norm,
    hexagonal,
    leading_primitive_classes,
)
from stablenorm.periodic_metric import build_canyon_graph, stable_norm_estimate
from stablenorm.tolerances import CONVERGENCE_SLACK
from stablenorm.toral_graph import build_graph, compute_zeta_epsilon_theta


def gauge(normals, u):
    return max(ax * u[0] + ay * u[1] for ax, ay in normals)


DIAMOND = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]


class TestHullGauge:
    def test_diamond_is_l1(self):
        normals = gauge_normals(DIAMOND)
        assert len(normals) == 4
        for u, want in [((1.0, 0.0), 1.0), ((0.5, 0.5), 1.0), ((2.0, -1.0), 3.0)]:
            assert gauge(normals, u) == pytest.approx(want, abs=1e-12)

    def test_vertices_sit_on_the_unit_level(self):
        pts = [(1.0, 0.0), (0.7, 0.7), (0.0, 1.0)]
        normals = gauge_normals(pts)
        for p in pts:
            assert gauge(normals, p) == pytest.approx(1.0, abs=1e-12)

    def test_interior_points_dropped(self):
        assert gauge_normals(DIAMOND + [(0.1, 0.1)]) == gauge_normals(DIAMOND)

    def test_zero_vector(self):
        assert gauge(gauge_normals(DIAMOND), (0.0, 0.0)) == 0.0

    def test_gauge_dominates_euclidean_norm_on_inscribed_hull(self):
        # hull points on the Euclidean circle: gauge >= the norm everywhere
        pts = [
            (math.cos(a), math.sin(a))
            for a in [k * math.pi / 6 for k in range(12)]
        ]
        normals = gauge_normals(pts)
        for j in range(40):
            u = (math.cos(j * 0.157 + 0.05), math.sin(j * 0.157 + 0.05))
            assert gauge(normals, u) >= eval_norm(euclidean(), u) - 1e-12


class TestValidation:
    def test_stages_must_increase(self):
        with pytest.raises(ValidationError):
            run_convergence(ks=(3, 2))
        with pytest.raises(ValidationError):
            run_convergence(ks=(2, 2, 3))
        with pytest.raises(ValidationError):
            run_convergence(ks=())

    def test_stage_floor(self):
        with pytest.raises(ValidationError):
            run_convergence(ks=(1, 2))

    def test_direction_floor(self):
        # a float or a string escaped from range() as a raw TypeError
        for directions in (4, 8.5, 16.0, True, "16"):
            with pytest.raises(ValidationError, match="directions"):
                run_convergence(ks=(2,), directions=directions)

    def test_flat_stage_hull_is_an_invariant_error(self, monkeypatch):
        # k >= 2 classes always span the plane, so a flat hull is a bug
        monkeypatch.setattr(experiments, "gauge_normals", lambda points: FLAT_GAUGE)
        with pytest.raises(InvariantError, match="flat hull"):
            run_convergence(ks=(2,), directions=8, n_max=1)


@pytest.fixture(scope="module")
def report():
    return run_convergence(ks=(2, 3), directions=16, n_max=1)


class TestSmallRun:
    def test_monotone_and_ordered(self, report):
        assert report.monotone
        sups = [s.sup_pinned_deviation for s in report.stages]
        assert sups[1] <= sups[0]
        assert report.final_deviation == sups[-1]

    def test_corridor_classes_have_zero_deviation(self, report):
        # prescribed classes are measured back at their exact lengths
        for stage in report.stages:
            prescribed = {(c.a, c.b) for c, _l in stage.classes}
            for p in stage.pinned:
                if (p.cls.a, p.cls.b) in prescribed:
                    assert p.estimate == p.target
                    assert p.deviation == 0.0

    def test_estimates_never_undershoot(self, report):
        for stage in report.stages:
            for p in stage.pinned:
                assert p.estimate >= p.target - 1e-12

    def test_lipschitz_within_tolerance(self, report):
        assert report.lipschitz_ok
        for stage in report.stages:
            assert stage.lipschitz_excess <= CONVERGENCE_SLACK

    def test_hull_deviation_nonnegative(self, report):
        for stage in report.stages:
            assert stage.hull_sup_deviation >= 0.0

    def test_hexagonal_k2_overshoots_on_the_unit_diagonal(self, report):
        # with only two corridors, (1,-1) has hexagonal norm 1 but must
        # be assembled from both axes at cost 2
        stage = report.stages[0]
        by_cls = {(p.cls.a, p.cls.b): p for p in stage.pinned}
        assert by_cls[(1, -1)].estimate == pytest.approx(2.0, abs=1e-9)
        assert by_cls[(1, -1)].target == pytest.approx(1.0, abs=1e-12)

    def test_jsonable_shape(self, report):
        data = report.to_jsonable()
        assert {"stages", "pinned", "directions", "lipschitz_bound", "monotone"} <= set(data)
        assert data["directions"] == 16
        assert [s["k"] for s in data["stages"]] == [2, 3]
        assert all("sup_pinned_deviation" in s for s in data["stages"])

    def test_default_norm_is_hexagonal(self, report):
        want = [eval_norm(hexagonal(), (a, b)) for (a, b) in [(1, 0), (0, 1)]]
        got = [p.target for p in report.stages[0].pinned[:2]]
        assert got[0] in want and got[1] in want


def test_deviation_negative_where_the_background_undercuts_an_axis_class():
    # stage k = 2 of run_convergence for this ellipse: (1, 0) is not
    # prescribed and the ell_2 = 1.0 background undercuts its norm, so
    # the pinned deviations at (1, 0) and (1, -1) are negative; pinned
    # as the code stands
    norm = NormSpec(Ellipse(1.2, -0.95, 1.0))
    classes = leading_primitive_classes(norm, 2)
    assert [(c.a, c.b) for c, _l in classes] == [(1, 1), (0, 1)]
    graph = build_graph(classes)
    ell_k = max(length for _c, length in classes)
    theta = compute_zeta_epsilon_theta(graph, norm, ell_k).theta
    canyon = build_canyon_graph(graph, theta=theta, background_systole=ell_k, grid_resolution=64)
    devs = {
        (a, b): PinnedDeviation(
            cls=IntegralClass(a, b),
            estimate=stable_norm_estimate(canyon, (a, b), 2).estimate,
            target=eval_norm(norm, (a, b)),
        ).deviation
        for a, b in [(1, 0), (1, -1)]
    }
    assert devs[(1, 0)] == pytest.approx(-0.0871290708247231, rel=1e-12)
    assert devs[(1, -1)] == pytest.approx(-0.012270403350410297, rel=1e-12)
