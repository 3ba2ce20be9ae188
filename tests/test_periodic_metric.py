"""Periodic graph construction and marked-length searches.

The uniform grid realizes the L^1 norm exactly, which pins most
expected values without any tolerance.  Canyon assertions distinguish
bitwise-exact corridor lengths from grid-level bracket checks.
"""

import dataclasses
import hashlib
import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablenorm import cover, periodic_metric
from stablenorm.errors import InvariantError, SearchBudgetError, ValidationError
from stablenorm.norms import (
    Ellipse,
    IntegralClass,
    NormSpec,
    PNorm,
    eval_norm,
    euclidean,
    hexagonal,
    leading_primitive_classes,
    tie_groups,
    unit_circle_lower_bound,
)
from stablenorm.periodic_metric import (
    CanyonStage,
    PeriodicEdge,
    PeriodicWeightedGraph,
    TorusGrid,
    build_canyon_graph,
    marked_min_length,
    spectrum,
    spectrum_csv_rows,
    stable_norm_estimate,
    uniform_grid,
)
from stablenorm.tolerances import GROUP_RTOL, LENGTH_TIE_RTOL, PRUNE_RTOL, SEARCH_RTOL
from stablenorm.toral_graph import build_graph, compute_zeta_epsilon_theta

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def grid16():
    return uniform_grid(16)


@pytest.fixture(scope="module")
def square_canyon():
    return CanyonStage(euclidean(), 2, theta=0.14).canyon


@pytest.fixture(scope="module")
def euclid3():
    """The stage of the three shortest Euclidean primitives."""
    return CanyonStage(euclidean(), 3)


@pytest.fixture(scope="module")
def hex4():
    """The canyon of the four shortest hexagonal primitives."""
    return CanyonStage(hexagonal(), 4).canyon


def _witness_steps(pg):
    """Per node, the (neighbor, shift) steps out of it, both ways along
    every edge."""
    steps = {}
    for e in pg.edges:
        steps.setdefault(e.u, set()).add((e.v, e.disp))
        steps.setdefault(e.v, set()).add((e.u, (-e.disp[0], -e.disp[1])))
    return steps


def _assert_valid_witness(pg, entry, steps=None):
    """The witness must be a closed walk in the cover realizing the
    class; `steps` is `_witness_steps(pg)`, made here when not given."""
    states = entry.witness
    assert states[0][1:] == (0, 0)
    assert states[-1][0] == states[0][0]
    assert states[-1][1:] == (entry.cls.a, entry.cls.b)
    steps = steps or _witness_steps(pg)
    for (n1, sx1, sy1), (n2, sx2, sy2) in zip(states, states[1:]):
        assert (n2, (sx2 - sx1, sy2 - sy1)) in steps[n1]


A, B, C, D, E = ((c,) for c in "abcde")


def _edge(u, v, weight=1.0, disp=(0, 0), kind="corridor", corridor=None):
    return PeriodicEdge(u, v, weight, disp, kind, corridor)


def _over_grid(names, head=(), tail=(), n=2, weight=0.5):
    """Nodes `names` along y = 1/2, then an n x n grid of edge weight
    `weight`; the explicit edges `head` come before the grid's and
    `tail` after them."""
    nodes = list(names)
    positions = {node: (i / len(nodes), 0.5) for i, node in enumerate(nodes)}
    grid = periodic_metric._add_torus_grid(n, weight, nodes)
    return PeriodicWeightedGraph(tuple(nodes), positions, tuple(head), grid, tuple(tail))


class TestGraphValidation:
    def _two_nodes(self, weight):
        return _over_grid((A, B), head=(_edge(A, B, weight),), tail=(_edge(B, ("g", 1, 0)),))

    @pytest.mark.parametrize("weight", [0.0, -1.0, math.inf, math.nan])
    def test_bad_weight(self, weight):
        with pytest.raises(ValidationError, match="weight"):
            self._two_nodes(weight)

    def test_positive_weight_accepted(self):
        assert [e.weight for e in self._two_nodes(0.25).head] == [0.25]

    def test_disconnected(self):
        # two components: the grid, and a
        with pytest.raises(ValidationError, match="connected"):
            _over_grid((A,))

    def test_three_components_rejected(self):
        with pytest.raises(ValidationError, match="connected"):
            _over_grid((A, B, C, D, E), head=(_edge(A, B), _edge(C, D)), tail=(_edge(E, ("g", 0, 1)),))

    def test_joined_by_last_edge_accepted(self):
        pg = _over_grid(
            (A, B, C, D),
            head=(_edge(A, B), _edge(C, D), _edge(D, ("g", 0, 0), disp=(1, 0))),
            tail=(_edge(B, ("g", 1, 1)),),
        )
        assert len(pg.edges) == 4 + 2 * 2 * 2

    def test_self_loops_and_parallel_edges_do_not_merge(self):
        # five edges over three nodes and the grid, but only two real
        # merges: c stays apart
        with pytest.raises(ValidationError, match="connected"):
            _over_grid(
                (A, B, C),
                head=(_edge(A, B), _edge(B, A, disp=(1, 0)), _edge(A, A, disp=(0, 1))),
                tail=(_edge(C, C, disp=(1, 0)), _edge(A, ("g", 0, 0))),
            )

    def test_missing_endpoint(self):
        with pytest.raises(ValidationError, match="missing node"):
            _over_grid((A,), head=(_edge(A, B),), tail=(_edge(A, ("g", 0, 0)),))

    def test_repeated_node(self):
        with pytest.raises(ValidationError, match="repeats"):
            _over_grid((A, A), tail=(_edge(A, ("g", 0, 0)),))

    @pytest.mark.parametrize("resolution", [0, 1, -4, "8", 8.0])
    def test_uniform_grid_bad_resolution(self, resolution):
        with pytest.raises(ValidationError):
            uniform_grid(resolution)


class TestPeriodicEdge:
    """Edges are slotted frozen values: equal, hashed, copied and
    pickled by their fields alone."""

    EDGE = PeriodicEdge(("c", 0, 1), ("v", 2), 0.25, (1, -1), "corridor", corridor=(0, Fraction(1, 4)))

    def test_slotted(self):
        assert not hasattr(self.EDGE, "__dict__")

    def test_pickle_round_trip(self):
        again = pickle.loads(pickle.dumps(self.EDGE))
        assert again == self.EDGE
        assert again.corridor == (0, Fraction(1, 4))

    def test_replace(self):
        moved = dataclasses.replace(self.EDGE, weight=0.5)
        assert moved.weight == 0.5
        assert dataclasses.replace(moved, weight=0.25) == self.EDGE

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.EDGE.weight = 1.0

    def test_hashes_like_its_fields(self):
        e = self.EDGE
        assert hash(e) == hash((e.u, e.v, e.weight, e.disp, e.kind, e.corridor))


class TestUniformGridMarked:
    """Expected values are the L^1 norm, known in closed form."""

    @pytest.mark.parametrize(
        "cls,expected",
        [((1, 0), 1.0), ((0, 1), 1.0), ((1, 1), 2.0), ((2, 1), 3.0), ((2, 2), 4.0)],
    )
    def test_frozen_lengths(self, grid16, cls, expected):
        entry = marked_min_length(grid16, cls)
        assert entry.length == expected
        _assert_valid_witness(grid16, entry)

    def test_trivial_class(self, grid16):
        entry = marked_min_length(grid16, (0, 0))
        assert entry.length == 0.0
        assert entry.cls.is_trivial

    @pytest.mark.parametrize("h", [(1.5, 0), (1, 0.0), (True, 0), "10", (1, 0, 0), IntegralClass(1.5, 0)])
    def test_non_integer_class_rejected(self, grid16, h):
        # (1.5, 0) used to be measured as (1, 0)
        with pytest.raises(ValidationError, match="pair of integers"):
            marked_min_length(grid16, h)

    def test_length_zero_only_for_trivial(self, grid16):
        for ab in [(1, 0), (0, 1), (1, -1), (3, 2)]:
            assert marked_min_length(grid16, ab).length > 0

    def test_symmetry_exact(self, grid16):
        for ab in [(1, 0), (1, 1), (2, -1), (0, 3)]:
            plus = marked_min_length(grid16, ab)
            minus = marked_min_length(grid16, (-ab[0], -ab[1]))
            assert plus.length == minus.length
            assert plus.cls == minus.cls

    @given(a=st.integers(-3, 3), b=st.integers(-3, 3))
    @settings(max_examples=30, deadline=None)
    def test_matches_l1_norm(self, grid16, a, b):
        entry = marked_min_length(grid16, (a, b))
        assert entry.length == float(abs(a) + abs(b))

    @given(
        a1=st.integers(-2, 2), b1=st.integers(-2, 2),
        a2=st.integers(-2, 2), b2=st.integers(-2, 2),
    )
    @settings(max_examples=25, deadline=None)
    def test_subadditive(self, grid16, a1, b1, a2, b2):
        f1 = marked_min_length(grid16, (a1, b1)).length
        f2 = marked_min_length(grid16, (a2, b2)).length
        fsum = marked_min_length(grid16, (a1 + a2, b1 + b2)).length
        assert fsum <= f1 + f2 + 1e-12


class TestWindowCertification:
    """The background loop cost alone bounds every query."""

    def test_edges_crossing_many_periods(self):
        # one edge crosses 2000 periods, so the triangle of length 3.0
        # lifts 2000 periods out before it closes at shift (50, 0); a
        # search that caps deck shifts by the loop bound over the
        # cheapest edge (500) misses it and returns fifty x loops, 500.0
        pg = _over_grid(
            (A, B, C),
            head=(_edge(A, B, disp=(2000, 0)), _edge(B, C, disp=(-975, 0)), _edge(C, A, disp=(-975, 0))),
            tail=(_edge(A, ("g", 0, 0), kind="connector"),),
            weight=5.0,
        )
        assert pg.grid.n * pg.grid.weight == 10.0
        entry = marked_min_length(pg, (50, 0))
        assert entry.length == 3.0
        assert entry.witness[0][1:] == (0, 0)
        assert entry.witness[-1] == (entry.witness[0][0], 50, 0)
        assert len(entry.witness) == 4


class TestCanyonBuild:
    def test_node_inventory(self, square_canyon):
        kinds = {node[0] for node in square_canyon.nodes}
        assert kinds == {"g", "c", "v"}
        grid_nodes = sum(1 for n in square_canyon.nodes if n[0] == "g")
        assert grid_nodes == 64 * 64

    def test_corridor_shares_sum_to_one(self, square_canyon):
        by_class = {}
        for e in square_canyon.edges:
            if e.corridor is not None:
                idx, share = e.corridor
                by_class[idx] = by_class.get(idx, 0) + share
        assert set(by_class) == {0, 1}
        assert all(total == 1 for total in by_class.values())

    def test_edge_cost_regimes(self, square_canyon):
        b = 1.0  # the fixture's background
        n = square_canyon.grid.n
        for e in square_canyon.edges:
            if e.kind == "grid":
                assert e.weight == b / n
            elif e.kind == "connector":
                assert e.weight >= b / 2

    def test_corridors_share_hub_node(self, square_canyon):
        classes_at_origin = set()
        for e in square_canyon.edges:
            if e.corridor is not None and ("v", 0) in (e.u, e.v):
                classes_at_origin.add(e.corridor[0])
        assert classes_at_origin == {0, 1}

    @pytest.mark.parametrize(
        "kwargs,pattern",
        [
            (dict(theta=0.0, background_systole=1.0, grid_resolution=64), "hub budget"),
            (dict(theta=-1.0, background_systole=1.0, grid_resolution=64), "hub budget"),
            (dict(theta=0.1, background_systole=0.5, grid_resolution=64), "systole"),
            (dict(theta=0.1, background_systole=1.0, grid_resolution=32), "resolution"),
            (dict(theta=0.1, background_systole=1.0, grid_resolution=64.0), "resolution"),
            (dict(theta=True, background_systole=1.0, grid_resolution=64), "hub budget must be a number, got True"),
            (dict(theta="0.1", background_systole=1.0, grid_resolution=64), "hub budget must be a number"),
            (dict(theta=math.inf, background_systole=1.0, grid_resolution=64), "hub budget must be finite, got inf"),
            (dict(theta=math.nan, background_systole=1.0, grid_resolution=64), "hub budget must be positive, got nan"),
            (dict(theta=-math.inf, background_systole=1.0, grid_resolution=64), "positive, got -inf"),
            (dict(theta=0.1, background_systole=True, grid_resolution=64), "systole must be a number, got True"),
            (dict(theta=0.1, background_systole="1", grid_resolution=64), "systole must be a number"),
            # theta is checked before the background
            (dict(theta=0.0, background_systole=0.5, grid_resolution=64), "hub budget must be positive"),
        ],
    )
    def test_build_validation(self, kwargs, pattern):
        graph = build_graph([(IntegralClass(1, 0), 1.0), (IntegralClass(0, 1), 1.0)])
        with pytest.raises(ValidationError, match=pattern):
            build_canyon_graph(graph, **kwargs)

    def test_hub_separation(self):
        # (0,1) and (40,1) intersect 40 times along the y-axis, 1/40 apart:
        # below the two-cell margin at N=64, above it at N=128
        ell = 41 * math.hypot(40, 1)
        graph = build_graph(
            [
                (IntegralClass(1, 0), 41.0),
                (IntegralClass(0, 1), 41.0),
                (IntegralClass(40, 1), ell),
            ]
        )
        with pytest.raises(ValidationError, match="separate hubs"):
            build_canyon_graph(graph, theta=0.1, background_systole=ell, grid_resolution=64)
        finer = build_canyon_graph(graph, theta=0.1, background_systole=ell, grid_resolution=128)
        assert sum(1 for n in finer.nodes if n[0] == "g") == 128 * 128


class TestCanyonStage:
    """The stage is the chain from a norm to its canyon, made once."""

    @pytest.mark.parametrize("n,background,theta", [(64, None, None), (128, 2.0, 0.1)])
    def test_canyon_is_the_chain(self, n, background, theta):
        stage = CanyonStage(hexagonal(), 4, n, background, theta)
        classes = leading_primitive_classes(hexagonal(), 4)
        graph, ell_k = build_graph(classes), max(length for _cls, length in classes)
        tube = compute_zeta_epsilon_theta(graph, hexagonal(), ell_k)
        assert (stage.classes, stage.graph, stage.ell_k) == (classes, graph, ell_k)
        assert (stage.hub_budget, stage.background_systole) == (theta or tube.theta, background or ell_k)
        chain = build_canyon_graph(graph, stage.hub_budget, stage.background_systole, n)
        assert (stage.canyon.nodes, list(stage.canyon.edges)) == (chain.nodes, list(chain.edges))
        assert [marked_min_length(stage.canyon, h) for h in _PANEL] == [marked_min_length(chain, h) for h in _PANEL]

    def test_given_theta_runs_no_tube_search(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("the tube search ran")

        monkeypatch.setattr(periodic_metric, "compute_zeta_epsilon_theta", refuse)
        stage = CanyonStage(euclidean(), 3, theta=0.1)
        assert stage.canyon == build_canyon_graph(stage.graph, 0.1, stage.ell_k, 64)
        assert stage.hub_budget == 0.1

    @pytest.mark.parametrize("part", ["hub_budget", "canyon"])
    def test_tube_budget_stops_theta_not_the_graph(self, part):
        stage = CanyonStage(euclidean(), 3, node_budget=10)
        assert stage.graph.classes == tuple(stage.classes)
        with pytest.raises(SearchBudgetError):
            getattr(stage, part)


class TestCanyonMarked:
    def test_corridor_class_exact(self, square_canyon):
        entry = marked_min_length(square_canyon, (1, 0))
        assert entry.length == 1.0
        _assert_valid_witness(square_canyon, entry)

    def test_diagonal_bracket(self, square_canyon):
        entry = marked_min_length(square_canyon, (1, 1))
        assert SQRT2 <= entry.length <= 2.0

    def test_background_only_pays_systole(self):
        background = uniform_grid(64)
        assert marked_min_length(background, (1, 0)).length >= 1.0

    def test_prescribed_lengths_bitwise(self, euclid3):
        classes, canyon = euclid3.classes, euclid3.canyon
        for cls, ell in classes:
            entry = marked_min_length(canyon, cls)
            assert entry.length == ell
            _assert_valid_witness(canyon, entry)

    def test_corridor_witness_stays_in_corridor(self, euclid3):
        # background costs sqrt(2) > 1, so the (1,0) optimum is forced
        # through its corridor and the witness must never leave it
        canyon = euclid3.canyon
        entry = marked_min_length(canyon, (1, 0))
        edge_kinds = set()
        lookup = {}
        for e in canyon.edges:
            lookup.setdefault((e.u, e.v), e.kind)
            lookup.setdefault((e.v, e.u), e.kind)
        for s1, s2 in zip(entry.witness, entry.witness[1:]):
            edge_kinds.add(lookup[(s1[0], s2[0])])
        assert edge_kinds == {"corridor"}

    def test_other_classes_above_slack_floor(self, euclid3):
        consts = compute_zeta_epsilon_theta(euclid3.graph, euclidean(), euclid3.ell_k)
        canyon = euclid3.canyon
        # the canyon's background is ell_k
        floor = euclid3.ell_k - consts.theta * consts.edge_bound
        for ab in [(1, -1), (2, 1), (0, 2), (2, 0), (1, 2)]:
            assert marked_min_length(canyon, ab).length >= floor

    def test_hub_slack_within_budget(self, euclid3):
        consts = compute_zeta_epsilon_theta(euclid3.graph, euclidean(), euclid3.ell_k)
        assert consts.theta * consts.edge_bound <= consts.epsilon / 2 + 1e-12

    def test_symmetry_exact(self, euclid3):
        canyon = euclid3.canyon
        for ab in [(1, 1), (1, -1), (2, 1)]:
            plus = marked_min_length(canyon, ab)
            minus = marked_min_length(canyon, (-ab[0], -ab[1]))
            assert plus.length == minus.length


class TestStableNormEstimate:
    def test_uniform_grid_stable_at_one(self, grid16):
        est = stable_norm_estimate(grid16, (1, 0), 4)
        assert est.ratios == (1.0, 1.0, 1.0, 1.0)
        assert est.estimate == 1.0
        assert est.stable and est.stable_at == 1

    def test_canyon_corridor_constant(self, square_canyon):
        est = stable_norm_estimate(square_canyon, (1, 0), 3)
        assert est.ratios == (1.0, 1.0, 1.0)
        assert est.stable

    def test_canyon_diagonal_monotone(self, square_canyon):
        est = stable_norm_estimate(square_canyon, (1, 1), 3)
        for r1, r2 in zip(est.ratios, est.ratios[1:]):
            assert r2 <= r1 + 1e-12
        # the combinatorial stable norm of (1,1) here is 2; no multiple
        # may report a shorter normalized length
        assert all(r >= 2.0 - 1e-9 for r in est.ratios)
        assert est.estimate == min(est.ratios)

    def test_estimate_is_sequence_min(self, euclid3):
        canyon = euclid3.canyon
        est = stable_norm_estimate(canyon, (1, 1), 3)
        assert est.estimate == min(est.ratios)
        assert min(est.ratios) == est.ratios[-1] or est.stable

    @pytest.mark.parametrize("bad", [0, -1, "3", 2.0, True])
    def test_n_max_validation(self, grid16, bad):
        with pytest.raises(ValidationError):
            stable_norm_estimate(grid16, (1, 0), bad)

    def test_trivial_class_rejected(self, grid16):
        with pytest.raises(ValidationError, match="trivial"):
            stable_norm_estimate(grid16, (0, 0), 2)

    @pytest.mark.parametrize("h", [(2.7, 0), (2, False), IntegralClass(2.7, 0)])
    def test_non_integer_class_rejected(self, grid16, h):
        # (2.7, 0) used to be estimated as (2, 0)
        with pytest.raises(ValidationError, match="pair of integers"):
            stable_norm_estimate(grid16, h, 2)


class TestSpectrum:
    def test_uniform_grid_group_structure(self, grid16):
        res = spectrum(grid16, 2.1)
        assert [e.length for e in res.entries[:3]] == [0.0, 1.0, 1.0]
        assert [e.cls.as_tuple() for e in res.entries[:3]] == [(0, 0), (0, 1), (1, 0)]
        lengths = [g.length for g in res.groups]
        assert lengths == [0.0, 1.0, 2.0]
        two = res.groups[2]
        assert two.multiplicity == 4
        assert two.shorter_count == 3
        assert {c.as_tuple() for c in two.classes} == {(0, 2), (1, 1), (1, -1), (2, 0)}

    def test_entries_sorted(self, grid16):
        res = spectrum(grid16, 3.1)
        keys = [(e.length, e.cls.tie_key()) for e in res.entries]
        assert keys == sorted(keys)

    def test_shorter_counts_accumulate(self, grid16):
        res = spectrum(grid16, 3.1)
        seen = 0
        for g in res.groups:
            assert g.shorter_count == seen
            seen += g.multiplicity

    def test_below_systole_only_trivial(self, grid16):
        res = spectrum(grid16, 0.5)
        assert len(res.entries) == 1
        assert res.entries[0].cls.is_trivial

    def test_canyon_end_to_end(self, euclid3):
        classes, canyon = euclid3.classes, euclid3.canyon
        res = spectrum(canyon, norm_bound=euclid3.ell_k * 1.05)
        by_class = {e.cls.as_tuple(): e.length for e in res.entries}
        for cls, ell in classes:
            got = by_class[cls.canonical().as_tuple()]
            assert abs(got - ell) <= 0.05 * ell
        for ab, length in by_class.items():
            if IntegralClass(*ab).is_trivial:
                continue
            if ab not in {c.canonical().as_tuple() for c, _l in classes}:
                assert length >= 0.95 * ell_k

    def test_bad_bound(self, grid16):
        with pytest.raises(ValidationError):
            spectrum(grid16, 0.0)
        with pytest.raises(ValidationError):
            spectrum(grid16, -2.0)

    @pytest.mark.parametrize("bound", [True, False, "3", None, [1.0]])
    def test_non_number_bound(self, grid16, bound):
        # True would run as bound 1.0
        with pytest.raises(ValidationError, match="norm bound must be a number"):
            spectrum(grid16, bound)

    @pytest.mark.parametrize("bound", [math.inf, math.nan])
    def test_non_finite_bound(self, grid16, bound):
        with pytest.raises(ValidationError, match="finite"):
            spectrum(grid16, bound)

    def test_huge_bound_capped_before_the_box(self, grid16):
        # a bound of 1e6 spans 2e12 candidate classes on this grid
        tracemalloc.start()
        try:
            with pytest.raises(SearchBudgetError, match="candidate classes") as err:
                spectrum(grid16, 1e6)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert err.value.budget == periodic_metric._MAX_SPECTRUM_CLASSES

    @pytest.mark.parametrize(
        "name,bound", [("grid16", 3.5), ("square_canyon", 2.5), ("euclid3", 1.5), ("hex4", 2.5)]
    )
    def test_gauge_skip_changes_nothing(self, request, monkeypatch, name, bound):
        # a candidate whose rate-hull gauge tops the bound is never
        # measured; a margin of 1 scales every gauge to 0, so the
        # reference measures the whole box
        pg = _graph(request, name)
        measure = periodic_metric.marked_min_length
        calls = []
        monkeypatch.setattr(periodic_metric, "marked_min_length", lambda pg, h: calls.append(h) or measure(pg, h))
        skipped = spectrum(pg, bound)
        measured = len(calls)
        monkeypatch.setattr(periodic_metric, "GAUGE_SKIP_RTOL", 1.0)
        calls.clear()
        reference = spectrum(pg, bound)
        assert skipped.entries == reference.entries
        assert skipped.groups == reference.groups
        assert measured < len(calls)

    def test_csv_rows(self, grid16):
        res = spectrum(grid16, 2.1)
        rows = spectrum_csv_rows(res)
        assert rows[0] == (0, 0, 0.0, 0)
        assert len(rows) == len(res.entries)
        group_ids = [r[3] for r in rows]
        assert group_ids == sorted(group_ids)

    def test_jsonable_round_shape(self, grid16):
        res = spectrum(grid16, 1.1)
        blob = res.to_jsonable()
        assert blob["norm_bound"] == 1.1
        assert blob["group_rtol"] == GROUP_RTOL
        assert all(set(e) == {"class", "length"} for e in blob["entries"])



class TestSearchIndex:
    """The per-graph search index is built lazily, once, and changes no
    result: cold, warm and differently warmed graphs answer alike."""

    def test_built_on_first_query_and_kept(self):
        canyon = CanyonStage(euclidean(), 2, theta=0.14).canyon
        assert "search_index" not in vars(canyon)
        marked_min_length(canyon, (1, 0))
        index = canyon.search_index
        marked_min_length(canyon, (1, 1))
        spectrum(canyon, 1.5)
        assert canyon.search_index is index

    def test_repeat_query_identical(self, euclid3):
        canyon = euclid3.canyon
        cold = dataclasses.replace(canyon)
        assert "search_index" not in vars(cold)
        for ab in [(2, 1), (1, 0), (1, -2)]:
            first = marked_min_length(cold, ab)
            again = marked_min_length(cold, ab)
            warm = marked_min_length(canyon, ab)
            for other in (again, warm):
                assert other.length.hex() == first.length.hex()
                assert other.witness == first.witness

    def test_spectrum_independent_of_warm_up(self, euclid3):
        canyon, bound = euclid3.canyon, 1.05 * euclid3.ell_k
        fresh = spectrum(dataclasses.replace(canyon), bound)
        warmed = dataclasses.replace(canyon)
        probes = [(a, b) for a in range(3) for b in range(-2, 3)]
        random.Random(20261018).shuffle(probes)
        for ab in probes:
            marked_min_length(warmed, ab)
        assert spectrum(warmed, bound) == fresh
        assert spectrum(warmed, bound) == fresh

    def test_distinct_lifts_give_same_bounds(self, euclid3):
        # the index keeps each rate point once; the hull normals must
        # equal those over every edge, and the rates the cheapest cost
        # per unit of advance over every edge
        canyon = euclid3.canyon
        every_edge = []
        cheapest_x = cheapest_y = math.inf
        for e in canyon.edges:
            ux, uy = _position(canyon, e.u)
            vx, vy = _position(canyon, e.v)
            lx, ly = vx + e.disp[0] - ux, vy + e.disp[1] - uy
            every_edge.append((lx / e.weight, ly / e.weight))
            if lx != 0:
                cheapest_x = min(cheapest_x, e.weight / abs(lx))
            if ly != 0:
                cheapest_y = min(cheapest_y, e.weight / abs(ly))
        index = canyon.search_index
        assert cover.gauge_normals(every_edge) == index.normals
        assert index.rates == pytest.approx((cheapest_x, cheapest_y), rel=1e-15, abs=0)

    def test_grid_loops_built_on_first_query(self):
        pg = uniform_grid(8)
        assert "_grid_loops" not in vars(pg)
        marked_min_length(pg, (0, 0))
        assert "_grid_loops" not in vars(pg)
        marked_min_length(pg, (1, -1))
        loops = vars(pg)["_grid_loops"]
        marked_min_length(pg, (2, 3))
        assert pg._grid_loops is loops

    @staticmethod
    def _panel(grid16, euclid3, hex4):
        """(graph, entry) for every class with |a|, |b| <= 3 on three graphs."""
        return [
            (pg, marked_min_length(pg, (a, b)))
            for pg in (grid16, euclid3.canyon, hex4)
            for a in range(-3, 4)
            for b in range(-3, 4)
        ]

    def test_marked_lengths_only_digest(self, grid16, euclid3, hex4):
        # sha256 over (class, length.hex()) on the panel: pins every
        # length bit for bit against any change to the search, its seeds
        # or the graph build
        rows = [(e.cls.as_tuple(), e.length.hex()) for _pg, e in self._panel(grid16, euclid3, hex4)]
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == "5ceba33b7ec77807cb94e564dd93410dc875eb0a7e94e3faf80bdc2ae21cf2f0"

    def test_marked_lengths_digest(self, grid16, euclid3, hex4):
        # sha256 over (class, length.hex(), witness) on the panel: pins
        # the witnesses too, each a valid closed walk of its class.  On
        # a tie with its seed the witness is the seed's walk
        panel = self._panel(grid16, euclid3, hex4)
        steps = {id(pg): _witness_steps(pg) for pg in (grid16, euclid3.canyon, hex4)}
        for pg, e in panel:
            _assert_valid_witness(pg, e, steps[id(pg)])
        rows = [(e.cls.as_tuple(), e.length.hex(), e.witness) for _pg, e in panel]
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == "ec721fff8be6751ac016af64da126e6b3031352039d0433ab94d8f51d8abc22e"

    def test_exact_lengths_match_a_per_piece_sum(self, grid16, euclid3, hex4):
        # every witness of the digest panel, read back as edge indices,
        # sums bit for bit as it does one Fraction per corridor piece
        for pg, e in self._panel(grid16, euclid3, hex4):
            edges = _witness_edges(pg, e.witness)
            got = periodic_metric._exact_length(pg, edges)
            assert got.hex() == _per_piece_length(pg, edges).hex() == e.length.hex()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_exact_length_of_any_head_run(self, euclid3, hex4, data):
        # runs that start and stop inside corridor segments, walked one
        # or more times, with grid and connector edges mixed in
        pg = data.draw(st.sampled_from([euclid3.canyon, hex4]))
        first = data.draw(st.integers(0, len(pg.head) - 1))
        run = list(range(first, data.draw(st.integers(first + 1, len(pg.head)))))
        path = run * data.draw(st.integers(1, 4))
        path += data.draw(st.lists(st.integers(len(pg.head), len(pg.edges) - 1), max_size=5))
        path = data.draw(st.permutations(path))
        assert periodic_metric._exact_length(pg, path).hex() == _per_piece_length(pg, path).hex()

    def test_equal_graphs_stay_equal(self):
        queried = uniform_grid(8)
        untouched = uniform_grid(8)
        marked_min_length(queried, (1, 1))
        assert queried == untouched
        assert untouched == queried


def _witness_edges(pg, witness):
    """The edge indices of a witness walk, read from its states; each
    (node, neighbor, shift) step names one edge on the panel graphs."""
    edge_of = {}
    for k, e in enumerate(pg.edges):
        for key in ((e.u, e.v, e.disp), (e.v, e.u, (-e.disp[0], -e.disp[1]))):
            assert edge_of.setdefault(key, k) == k
    return [
        edge_of[n1, n2, (sx2 - sx1, sy2 - sy1)]
        for (n1, sx1, sy1), (n2, sx2, sy2) in zip(witness, witness[1:])
    ]


def _per_piece_length(pg, path_edges):
    """A witness length summed as one Fraction per corridor piece, per
    class, and the other edges grouped by weight: the reference of
    `_exact_length`."""
    shares, counts = {}, {}
    for k in path_edges:
        e = pg.edges[k]
        if e.corridor is not None:
            idx, share = e.corridor
            shares[idx] = shares.get(idx, Fraction(0)) + share
        else:
            counts[e.weight] = counts.get(e.weight, 0) + 1
    total = 0.0
    for idx in sorted(shares):
        total += float(shares[idx]) * pg.class_lengths[idx][1]
    for w in sorted(counts):
        total += counts[w] * w
    return total


def _graph(request, name):
    """The periodic graph of the module fixture `name`."""
    pg = request.getfixturevalue(name)
    return pg.canyon if name == "euclid3" else pg


#: Every nonzero class with |a|, |b| <= 3, canonical.
_PANEL = [
    h
    for h in dict.fromkeys(IntegralClass(a, b).canonical() for a in range(-3, 4) for b in range(-3, 4))
    if not h.is_trivial
]


class TestSeeds:
    """Canyon queries end at the root on their corridor seed, while the
    cover search keeps its own coverage from the grid-loop seed alone."""

    # on a canyon the search beats every grid seed; on the uniform grid
    # the grid seed is the L^1 optimum, so the search only confirms it
    @pytest.mark.parametrize("name,beaten", [("euclid3", len(_PANEL)), ("hex4", len(_PANEL)), ("grid16", 0)])
    def test_grid_seed_alone_gives_the_same_lengths(self, request, name, beaten):
        # the search as it runs without a corridor seed, on a copy whose
        # steps are not built yet
        pg = dataclasses.replace(_graph(request, name))
        searched = 0
        for h in _PANEL:
            cost, _states, edges = periodic_metric._grid_loop_seed(pg, h)
            assert periodic_metric._grid_loop_cost(pg, h).hex() == cost.hex()
            found = cover.shortest_cover_cycle(pg.search_index, h.a, h.b, cost * (1 - PRUNE_RTOL))
            if found is not None:
                searched += 1
                edges = found[2]
            assert periodic_metric._exact_length(pg, edges).hex() == marked_min_length(pg, h).length.hex()
        assert searched == beaten
        # a search that gets past its root builds the steps; on the
        # uniform grid the grid seed is the gauge, so every one ends there
        assert ("adj" in vars(pg.search_index)) == (beaten > 0)

    @pytest.mark.parametrize("name", ["euclid3", "hex4"])
    def test_corridor_seed_answered_at_the_root(self, request, name):
        pg = _graph(request, name)
        for h in _PANEL:
            cost, _states, edges = periodic_metric._corridor_seed(pg, h)
            assert cover.shortest_cover_cycle(pg.search_index, h.a, h.b, cost * (1 - PRUNE_RTOL)) is None
            assert periodic_metric._exact_length(pg, edges).hex() == marked_min_length(pg, h).length.hex()

    def test_no_class_lengths_no_corridor_seed(self, grid16):
        assert all(periodic_metric._corridor_seed(grid16, h) is None for h in _PANEL)
        assert "_corridors" not in vars(grid16)

    def test_fractional_cone_falls_back_to_the_search(self):
        # P_k = conv{+-(1, 0), +-(1, 2)/2}: (1, 1) and (0, 1) are halves
        # of its adjacent vertices' classes, so no corridor walk gives
        # them; the search finds the gauge 1.5 by switching at a hub
        graph = build_graph([(IntegralClass(1, 0), 1.0), (IntegralClass(1, 2), 2.0)])
        pg = build_canyon_graph(graph, theta=0.1, background_systole=3.0, grid_resolution=64)
        for h in [(1, 1), (0, 1)]:
            assert periodic_metric._corridor_seed(pg, IntegralClass(*h)) is None
            entry = marked_min_length(pg, h)
            assert entry.length == pytest.approx(1.5, rel=1e-12)
            _assert_valid_witness(pg, entry)
        assert periodic_metric._corridor_seed(pg, IntegralClass(2, 2)) is not None
        assert marked_min_length(pg, (2, 2)).length == 3.0

    def test_corridors_built_on_first_query(self, euclid3):
        pg = dataclasses.replace(euclid3.canyon)
        assert "_corridors" not in vars(pg)
        marked_min_length(pg, (2, 1))
        corridors = vars(pg)["_corridors"]
        marked_min_length(pg, (1, -2))
        assert pg._corridors is corridors

    @pytest.mark.parametrize("name", ["euclid3", "hex4", "grid16"])
    def test_root_answers_build_no_steps(self, request, name):
        # every panel query ends at its root: on a canyon on the corridor
        # seed, on the uniform grid on the grid seed, which is the gauge
        # there.  Neither the index's steps nor, on a canyon, the grid
        # walk's loops are made
        pg = dataclasses.replace(_graph(request, name))
        lengths = [marked_min_length(pg, h).length for h in _PANEL]
        assert "adj" not in vars(pg.search_index)
        assert ("_grid_loops" in vars(pg)) == (name == "grid16")
        assert lengths == [marked_min_length(_graph(request, name), h).length for h in _PANEL]

    def test_oversized_grid_seed_refused_before_any_walk(self, euclid3, monkeypatch):
        # (15626, 0) takes 15626 * 64 grid steps, past the cap, while its
        # corridor seed, 15626 loops of corridor (1, 0), fits under it;
        # the grid seed's count still refuses the class, and no walk of
        # either seed is begun
        pg = dataclasses.replace(euclid3.canyon)
        cap = periodic_metric._MAX_SEED_STEPS
        h = IntegralClass(15626, 0)
        assert (abs(h.a) + abs(h.b)) * pg.grid.n > cap
        _vertices, loops = pg._corridors
        i = [cls for cls, _ell in pg.class_lengths].index(IntegralClass(1, 0))
        assert h.a * len(loops[i, 1][0]) <= cap

        def no_walk(*args):
            raise AssertionError("a seed walk was begun")

        monkeypatch.setattr(periodic_metric, "_replay", no_walk)
        tracemalloc.start()
        try:
            with pytest.raises(SearchBudgetError, match="grid loop seed of class") as info:
                marked_min_length(pg, h)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (info.value.nodes_expanded, info.value.budget) == (0, cap)
        assert peak < 1 << 20

    def test_oversized_seed_refused_before_its_walk(self, grid16, euclid3):
        # (|a| + |b|) n grid steps and s |loop_i| + t |loop_j| corridor
        # steps are counted before either walk is made
        cap = periodic_metric._MAX_SEED_STEPS
        huge = IntegralClass(10**6, 0)
        tracemalloc.start()
        try:
            for seed, pg in ((periodic_metric._grid_loop_seed, grid16), (periodic_metric._corridor_seed, euclid3.canyon)):
                with pytest.raises(SearchBudgetError, match="seed of class") as info:
                    seed(pg, huge)
                assert (info.value.nodes_expanded, info.value.budget) == (0, cap)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _hubs_on_their_own_corridors(head_classes):
    """A caller-built graph: hubs ("v", 0) and ("v", 1) over a 4 x 4
    grid of weight 0.5, each joined to grid node (0, 0) by a connector
    of weight 1.0, with `class_lengths` (1, 0) and (0, 1) at 1.0.  For
    each class index in `head_classes` a one-piece corridor loop of
    that class runs from hub ("v", index), so no hub is on two."""
    classes = ((IntegralClass(1, 0), 1.0), (IntegralClass(0, 1), 1.0))
    nodes = [("v", 0), ("v", 1)]
    positions = {("v", 0): (0.1, 0.1), ("v", 1): (0.6, 0.6)}
    grid = periodic_metric._add_torus_grid(4, 0.5, nodes)
    head = tuple(
        _edge(("v", i), ("v", i), 1.0, (classes[i][0].a, classes[i][0].b), corridor=(i, Fraction(1)))
        for i in head_classes
    )
    tail = tuple(_edge(hub, ("g", 0, 0), 1.0, kind="connector") for hub in nodes[:2])
    return PeriodicWeightedGraph(tuple(nodes), positions, head, grid, tail, class_lengths=classes)


class TestCallerBuiltCorridors:
    """A corridor walk of two corridors needs a hub on both, and a walk
    of one a hub on it; where a caller-built graph has none, the query
    falls back to the grid seed and the search."""

    def test_corridors_without_a_shared_hub(self):
        # each class is a vertex of P_k, walked along its own corridor
        # from that corridor's hub
        pg = _hubs_on_their_own_corridors((0, 1))
        for h in [(1, 0), (0, 1)]:
            assert periodic_metric._corridor_seed(pg, IntegralClass(*h))[0] == 1.0
            entry = marked_min_length(pg, h)
            assert entry.length == 1.0
            _assert_valid_witness(pg, entry)

    def test_class_without_a_corridor(self):
        # (0, 1) is listed in `class_lengths` but has no corridor edge
        pg = _hubs_on_their_own_corridors((0,))
        assert periodic_metric._corridor_seed(pg, IntegralClass(1, 0))[0] == 1.0
        assert periodic_metric._corridor_seed(pg, IntegralClass(0, 1)) is None
        assert marked_min_length(pg, (1, 0)).length == 1.0
        assert marked_min_length(pg, (0, 1)).length == 2.0


def _reference_grid_edges(n, weight):
    """The N x N torus grid as one `PeriodicEdge` per grid step: a right
    and an up edge per node, row by row."""
    edges = []
    for i in range(n):
        for j in range(n):
            edges.append(PeriodicEdge(("g", i, j), ("g", (i + 1) % n, j), weight, (int(i == n - 1), 0), "grid"))
            edges.append(PeriodicEdge(("g", i, j), ("g", i, (j + 1) % n), weight, (0, int(j == n - 1)), "grid"))
    return edges


def _reference_canyon_edges(graph, background, n):
    """Every edge of a canyon as an explicit `PeriodicEdge`, in edge
    order: the corridor pieces segment by segment, the grid, then one
    connector per corridor node to its nearest grid node."""
    corridors = []
    corridor_nodes = [("v", i) for i in range(len(graph.vertices))]
    positions = {("v", i): (float(x), float(y)) for i, (x, y) in enumerate(graph.vertices)}
    for edge_idx, ge in enumerate(graph.edges):
        cls, length = graph.classes[ge.cls]
        start = graph.vertices[ge.tail]
        pieces = max(1, math.ceil(float(ge.q) * math.hypot(cls.a, cls.b) * n / 4))
        prev, prev_node = start, ("v", ge.tail)
        for piece in range(1, pieces + 1):
            t = ge.q * piece / pieces
            lift = (start[0] + t * cls.a, start[1] + t * cls.b)
            if piece == pieces:
                node = ("v", ge.head)
            else:
                node = ("c", edge_idx, piece)
                positions[node] = (float(lift[0] % 1), float(lift[1] % 1))
                corridor_nodes.append(node)
            share = ge.q / pieces
            disp = (math.floor(lift[0]) - math.floor(prev[0]), math.floor(lift[1]) - math.floor(prev[1]))
            corridors.append(
                PeriodicEdge(prev_node, node, float(share) * length, disp, "corridor", corridor=(ge.cls, share))
            )
            prev, prev_node = lift, node
    connectors = []
    for node in corridor_nodes:
        x, y = positions[node]
        gi, gj = math.floor(x * n + 0.5), math.floor(y * n + 0.5)
        connectors.append(
            PeriodicEdge(node, ("g", gi % n, gj % n), background / 2, (gi // n, gj // n), "connector")
        )
    return corridors + _reference_grid_edges(n, background / n) + connectors


def _canyon_case(norm, k, n):
    stage = CanyonStage(norm, k, n)
    return stage.canyon, _reference_canyon_edges(stage.graph, stage.ell_k, n)


def _grid_case(n):
    return uniform_grid(n), _reference_grid_edges(n, 1.0 / n)


def _position(pg, node):
    """Where `node` sits: grid node ("g", i, j) at (i/n, j/n), any other
    node where `pg.positions` places it."""
    if node[0] == "g":
        n = pg.grid.n
        return (node[1] / n, node[2] / n)
    return pg.positions[node]


def _assert_index_of(pg, reference):
    """`pg.search_index` equals the index built from `reference`: every
    field made with the index, then `adj`, which reading builds."""
    index = pg.node_index
    nodes = pg.nodes
    xs, ys = (tuple(c) for c in zip(*(_position(pg, n) for n in nodes)))
    rows = [(index[e.u], index[e.v], e.weight, e.disp[0], e.disp[1], i, i) for i, e in enumerate(reference)]
    want = cover.build_search_index(
        xs,
        ys,
        [cover.edge_block(xs, ys, rows.__iter__)],
        start_key=lambda i: (nodes[i][0] == "g", nodes[i]),
    )
    got = pg.search_index
    for field in dataclasses.fields(cover.SearchIndex):
        if field.name != "rows":
            assert getattr(got, field.name) == getattr(want, field.name), field.name
    assert got.adj == want.adj


@st.composite
def _explicit_edges_over_a_grid(draw):
    """A graph of up to three nodes, an n x n grid, then up to three
    more nodes, with random explicit edges before and after the grid's
    and one edge from each non-grid node to the grid; and its edges as
    one explicit list."""
    n = draw(st.integers(2, 9))
    coord = st.floats(0.0, 1.0, exclude_max=True)
    weight = st.floats(0.01, 10.0)
    nodes, positions = [], {}

    def extra(name):
        for i in range(draw(st.integers(0, 3))):
            nodes.append((name, i))
            positions[(name, i)] = (draw(coord), draw(coord))

    extra("x")
    grid = periodic_metric._add_torus_grid(n, draw(weight), nodes)
    extra("y")
    disp = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    edge = st.builds(_edge, st.sampled_from(nodes), st.sampled_from(nodes), weight, disp)
    head = draw(st.lists(edge, max_size=6))
    tail = draw(st.lists(edge, max_size=6))
    for node in nodes:
        if node[0] != "g":
            joined = _edge(node, ("g", draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))), draw(weight))
            side = head if draw(st.booleans()) else tail
            side.insert(draw(st.integers(0, len(side))), joined)
    pg = PeriodicWeightedGraph(tuple(nodes), positions, tuple(head), grid, tuple(tail))
    return pg, head + _reference_grid_edges(n, grid.weight) + tail


class TestArithmeticGrid:
    """The background grid is kept as arithmetic, yet `pg.edges` and the
    search index read exactly as they would from one explicit edge per
    grid step."""

    CASES = {
        "uniform-5": lambda: _grid_case(5),
        "uniform-16": lambda: _grid_case(16),
        "euclid-3-64": lambda: _canyon_case(euclidean(), 3, 64),
        "hex-4-64": lambda: _canyon_case(hexagonal(), 4, 64),
        "euclid-5-128": lambda: _canyon_case(euclidean(), 5, 128),
    }

    @pytest.fixture(scope="class", params=sorted(CASES))
    def case(self, request):
        return self.CASES[request.param]()

    def test_edges_read_as_the_explicit_list(self, case):
        pg, reference = case
        assert len(pg.edges) == len(reference)
        assert list(pg.edges) == reference
        assert pg.edges[5] == reference[5]
        assert pg.edges[-1] == reference[-1]
        assert pg.edges[len(reference) // 2] == reference[len(reference) // 2]
        assert list(pg.edges[3:40:7]) == reference[3:40:7]
        with pytest.raises(IndexError):
            pg.edges[len(reference)]

    def test_search_index_equals_the_explicit_build(self, case):
        pg, reference = case
        _assert_index_of(dataclasses.replace(pg), reference)

    @settings(max_examples=150, deadline=None)
    @given(case=_explicit_edges_over_a_grid())
    def test_any_explicit_edges_read_as_the_explicit_list(self, case):
        # head and tail edges are arbitrary caller input, not only canyon
        # layouts, so every label offset around the grid is checked
        pg, reference = case
        assert len(pg.edges) == len(reference)
        assert list(pg.edges) == reference
        _assert_index_of(pg, reference)

    def test_canyon_edge_counts(self):
        counts = {
            name: len(self.CASES[name]()[0].edges)
            for name in ("euclid-5-128", "euclid-3-64", "hex-4-64")
        }
        assert counts == {"euclid-5-128": 33_220, "euclid-3-64": 8_300, "hex-4-64": 8_348}

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_small_grids(self, n):
        pg, reference = _grid_case(n)
        assert list(pg.edges) == reference
        assert [pg.edges[i] for i in range(len(reference))] == reference
        for a, b in [(1, 0), (0, 1), (1, -1), (2, 3)]:
            assert marked_min_length(pg, (a, b)).length == pytest.approx((abs(a) + abs(b)), rel=1e-12)

    def test_copies_stay_equal(self, euclid3):
        canyon = euclid3.canyon
        for copy in (pickle.loads(pickle.dumps(canyon)), dataclasses.replace(canyon)):
            assert copy == canyon
            assert marked_min_length(copy, (2, 1)) == marked_min_length(canyon, (2, 1))

    def test_copies_pickle_with_steps_built_or_not(self):
        # a canyon of its own, so no earlier query has warmed it: pickled
        # before any query, after a query answered at its root (steps
        # not built) and after a searched one (steps built).  (1, 1)
        # lies in a fractional cone of P_k, so only a search answers it
        graph = build_graph([(IntegralClass(1, 0), 1.0), (IntegralClass(1, 2), 2.0)])
        pg = build_canyon_graph(graph, theta=0.1, background_systole=3.0, grid_resolution=64)
        classes = [(1, 0), (2, 2), (1, 1), (0, 1), (3, -1)]
        want = [marked_min_length(dataclasses.replace(pg), h) for h in classes]
        for query, built in [(None, None), ((1, 0), False), ((1, 1), True)]:
            if query is not None:
                marked_min_length(pg, query)
                assert ("adj" in vars(pg.search_index)) is built
            copy = pickle.loads(pickle.dumps(pg))
            assert copy == pg
            if query is not None:
                assert ("adj" in vars(copy.search_index)) is built
            assert [marked_min_length(copy, h) for h in classes] == want

    def test_bad_grid_weight_names_the_first_grid_edge(self):
        # an infinite background passes the systole check; the grid is
        # the first place its weight shows, as with explicit edges
        graph = build_graph([(IntegralClass(1, 0), 1.0), (IntegralClass(0, 1), 1.0)])
        with pytest.raises(ValidationError, match=r"edge \('g', 0, 0\)-\('g', 1, 0\) has weight inf"):
            build_canyon_graph(graph, theta=0.1, background_systole=math.inf, grid_resolution=64)

    def test_detached_explicit_edges_are_not_connected(self):
        grid = uniform_grid(4)
        nodes = grid.nodes + (A, B)
        positions = {A: (0.5, 0.5), B: (0.5, 0.5)}
        detached = _edge(A, B)
        with pytest.raises(ValidationError, match="not connected"):
            PeriodicWeightedGraph(nodes, positions, (detached,), grid.grid, ())
        joined = _edge(B, ("g", 1, 2), kind="connector")
        pg = PeriodicWeightedGraph(nodes, positions, (detached,), grid.grid, (joined,))
        assert len(pg.edges) == 34

    def test_grid_must_fit_the_node_list(self):
        grid = uniform_grid(4)
        with pytest.raises(ValidationError, match="does not fit"):
            dataclasses.replace(grid, nodes=grid.nodes[:-1])
        with pytest.raises(ValidationError, match="does not fit"):
            dataclasses.replace(grid, grid=TorusGrid(1, 4, 0.25))
        for n in (1, 0, -4, True, 4.0, 4.5, "4"):
            with pytest.raises(ValidationError, match="resolution"):
                TorusGrid(0, n, 0.25)
        for first in (-1, 0.0, True, "0"):
            with pytest.raises(ValidationError, match="first grid node"):
                TorusGrid(first, 4, 0.25)

    def test_position_of_a_grid_node_rejected(self):
        # the grid places its own nodes; a position for one would be a
        # second, unchecked copy of it
        pg = uniform_grid(4)
        with pytest.raises(ValidationError, match=r"position given for \('g', 1, 2\)"):
            dataclasses.replace(pg, positions={("g", 1, 2): (0.25, 0.5)})
        with pytest.raises(ValidationError, match=r"position given for 'z'"):
            dataclasses.replace(pg, positions={"z": (0.25, 0.5)})

    def test_missing_position_rejected(self, square_canyon):
        # without this check the first query fails on a raw KeyError
        positions = dict(square_canyon.positions)
        del positions[("c", 0, 1)]
        with pytest.raises(ValidationError, match=r"node \('c', 0, 1\) has no position"):
            dataclasses.replace(square_canyon, positions=positions)

    def test_build_memory_ceiling(self):
        # a grid-512 canyon has 524,288 grid steps; making one edge object
        # per step peaked at 136 MiB under tracemalloc (Python 3.11), the
        # arithmetic grid at 76 MiB
        stage = CanyonStage(euclidean(), 3)
        graph, ell_k = stage.graph, stage.ell_k
        tracemalloc.start()
        try:
            pg = build_canyon_graph(graph, theta=0.1, background_systole=ell_k, grid_resolution=512)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pg.edges) == 2 * 512 * 512 + len(pg.head) + len(pg.tail)
        assert peak < 100 * 2**20


def _assert_loops_in_index(pg):
    """Each step of the grid's row, up and down loops is a step of
    `pg.search_index.adj` out of the node it leaves, label included,
    and each loop closes with its shift."""
    start, *loops = pg.grid.loops(len(pg.head))
    adj = pg.search_index.adj
    for loop, shift in zip(loops, [(1, 0), (0, 1), (0, -1)]):
        node, sx, sy = start, 0, 0
        for step in loop:
            assert step in adj[node], (node, step)
            node, sx, sy = step[0], sx + step[2], sy + step[3]
        assert (node, sx, sy) == (start, *shift)


class TestGridLoops:
    """The grid seed's loops walk the search index's own steps."""

    @pytest.fixture(scope="class", params=sorted(TestArithmeticGrid.CASES))
    def case(self, request):
        return TestArithmeticGrid.CASES[request.param]()

    def test_loops_step_along_the_index(self, case):
        _assert_loops_in_index(dataclasses.replace(case[0]))

    @settings(max_examples=150, deadline=None)
    @given(case=_explicit_edges_over_a_grid())
    def test_loops_step_along_any_index(self, case):
        _assert_loops_in_index(case[0])


def _pairwise_hub_check(verts, n):
    """The O(V^2) hub-separation loop, kept as the reference of the
    bucketed check: the message of its first failing pair, or None."""
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            gap = Fraction(0)
            for c in range(2):
                delta = abs(verts[i][c] - verts[j][c])
                gap = max(gap, min(delta, 1 - delta))
            if gap <= Fraction(2, n):
                return (
                    f"resolution {n} cannot separate hubs {i} and {j}: "
                    f"torus gap {gap} needs more than {Fraction(2, n)}"
                )
    return None


def _torus_points(denominators):
    return st.tuples(
        *(st.integers(0, d - 1).map(lambda a, d=d: Fraction(a, d)) for d in denominators)
    )


_HUBS = st.lists(
    st.tuples(st.integers(1, 70), st.integers(1, 70)).flatmap(_torus_points),
    max_size=14,
)


def _assert_hub_check_matches(verts, points, d, n):
    """The bucketed check on `points` over d raises what the pairwise
    loop on the Fraction hubs `verts` says, or nothing."""
    want = _pairwise_hub_check(verts, n)
    if want is None:
        periodic_metric._check_hub_separation(points, d, n)
    else:
        with pytest.raises(ValidationError) as caught:
            periodic_metric._check_hub_separation(points, d, n)
        assert str(caught.value) == want


class TestHubSeparation:
    @settings(max_examples=300, deadline=None)
    @given(verts=_HUBS, n=st.integers(2, 160), multiple=st.integers(1, 4))
    def test_matches_the_pairwise_loop(self, verts, n, multiple):
        # any common denominator will do, not only the least
        d = multiple * math.lcm(*(c.denominator for v in verts for c in v))
        points = [(int(x * d), int(y * d)) for x, y in verts]
        _assert_hub_check_matches(verts, points, d, n)

    @pytest.mark.parametrize("norm,k", [(euclidean(), 12), (euclidean(), 16), (hexagonal(), 16)])
    @pytest.mark.parametrize("n", [64, 128])
    def test_canyon_hubs_match_the_pairwise_loop(self, norm, k, n):
        graph = CanyonStage(norm, k).graph
        _assert_hub_check_matches(graph.vertices, graph.points, graph.denom, n)


class TestInvariantErrors:
    def test_exact_recompute_drift_raises(self, grid16, monkeypatch):
        exact = periodic_metric._exact_length
        monkeypatch.setattr(
            periodic_metric, "_exact_length", lambda pg, path: exact(pg, path) + 1e-3
        )
        with pytest.raises(InvariantError, match="drifted"):
            marked_min_length(grid16, (1, 0))

    def test_corridor_edges_need_class_lengths(self):
        half = (0, Fraction(1, 2))
        with pytest.raises(ValidationError, match="class lengths"):
            _over_grid(
                (A, B),
                head=(_edge(A, B, 0.5, corridor=half), _edge(B, A, 0.5, (1, 0), corridor=half)),
                tail=(_edge(A, ("g", 0, 0), kind="connector"),),
                weight=5.0,
            )

    def test_corridor_class_index_out_of_range(self):
        # with this edge built, the first query's exact recompute raised
        # a raw IndexError
        classes = ((IntegralClass(1, 0), 1.0), (IntegralClass(0, 1), 1.0))
        nodes = [("v", 0)]
        grid = periodic_metric._add_torus_grid(4, 0.5, nodes)
        head = (_edge(("v", 0), ("v", 0), 1.0, (1, 0), corridor=(5, Fraction(1))),)
        tail = (_edge(("v", 0), ("g", 0, 0), 1.0, kind="connector"),)
        with pytest.raises(ValidationError, match="class index 5, but the graph has 2 class lengths"):
            PeriodicWeightedGraph(tuple(nodes), {("v", 0): (0.1, 0.1)}, head, grid, tail, class_lengths=classes)


#: How far below l_k the agreement spectrum stops, so that no class of
#: norm l_k, prescribed or not, sits on its bound.
_BELOW_ELL_K = 1e-6

_AGREEMENT_NORMS = {
    "euclidean": euclidean(),
    "hexagonal": hexagonal(),
    "pnorm-3": NormSpec(PNorm(3.0)),
    "pnorm-1.5": NormSpec(PNorm(1.5)),
    "ellipse": NormSpec(Ellipse(1.2, -0.95, 1.0)),
}


class TestAgreementTheorem:
    """The paper's agreement theorem on certified stages: below l_k the
    canyon's marked lengths are the prescribed norm, class for class,
    with the same tie groups."""

    @pytest.mark.parametrize("k", [4, 6, 8])
    @pytest.mark.parametrize("name", sorted(_AGREEMENT_NORMS))
    def test_spectrum_below_ell_k_is_the_norm(self, name, k):
        norm = _AGREEMENT_NORMS[name]
        stage = CanyonStage(norm, k, theta=0.1)
        classes, ell_k = stage.classes, stage.ell_k
        # the stage's stable ball is P_k = conv{+-h_i / l_i} when the
        # background l_k is at least P_k's gauge on both axes
        normals = cover.gauge_normals((h.a / ell, h.b / ell) for h, ell in classes)
        axis_gauge = max(max(ax for ax, _ay in normals), max(ay for _ax, ay in normals))
        if ell_k < axis_gauge:
            pytest.skip(f"background {ell_k} is below P_k's axis gauge {axis_gauge}")
        bound = ell_k * (1 - _BELOW_ELL_K)
        got = spectrum(stage.canyon, bound).entries

        box = math.ceil(bound / unit_circle_lower_bound(norm))
        want = sorted(
            (
                (h, eval_norm(norm, h))
                for h in {IntegralClass(a, b).canonical() for a in range(box + 1) for b in range(-box, box + 1)}
                if eval_norm(norm, h) <= bound
            ),
            key=lambda e: (e[1], e[0].tie_key()),
        )
        assert {e.cls for e in got} == {h for h, _value in want}
        value = dict(want)
        for e in got:
            assert abs(e.length - value[e.cls]) <= 4 * SEARCH_RTOL * value[e.cls], e.cls
        spectrum_groups = tie_groups([(e.cls, e.length) for e in got], LENGTH_TIE_RTOL)
        norm_groups = tie_groups(want, LENGTH_TIE_RTOL)
        assert [{h for h, _v in g} for g in spectrum_groups] == [{h for h, _v in g} for g in norm_groups]
