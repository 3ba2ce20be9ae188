"""Acceptance gate: one test per numbered criterion, with wall-clock budgets.

Every test prints a single ``CRITERION-<n> PASS`` line with its elapsed
time and asserts the pinned runtime budget.  Numbers, tolerances, and
random seeds are frozen here on purpose; a change in any of them is a
contract change, not a tweak.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from stablenorm.lattice_polygons import (
    EIGHT_PI_SQUARED_FLOOR,
    LatticePolygon,
    f_of_m,
    min_area_convex_kgon,
    min_interior_symmetric,
    pick_counts,
)
from stablenorm.multiplicity import verify_sharpness
from stablenorm.norms import (
    Ellipse,
    IntegralClass,
    NormSpec,
    PNorm,
    euclidean,
    hexagonal,
    leading_primitive_classes,
)
from stablenorm.periodic_metric import (
    build_canyon_graph,
    marked_min_length,
    spectrum,
    uniform_grid,
)
from stablenorm.experiments import run_convergence
from stablenorm.tolerances import SEARCH_RTOL
from stablenorm.toral_graph import (
    build_graph,
    compute_zeta_epsilon_theta,
    minimal_cycle,
)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _strict_hull(points):
    """Monotone-chain hull with collinear points dropped; None if flat."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return None
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        return None
    return tuple(hull)


def _length_exact(cycle, graph) -> float:
    """Cycle length via per-class exact fraction totals, one float
    rounding per class."""
    totals: dict[int, Fraction] = {}
    for e, _ in cycle.steps:
        edge = graph.edges[e]
        totals[edge.cls] = totals.get(edge.cls, Fraction(0)) + edge.q
    return sum(float(q) * graph.classes[c][1] for c, q in sorted(totals.items()))


def _done(n: int, t0: float, budget: float, detail: str = "") -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {n} took {elapsed:.1f}s, budget {budget}s"
    suffix = f"  [{detail}]" if detail else ""
    print(f"CRITERION-{n} PASS  ({elapsed:.2f}s < {budget:.0f}s){suffix}")


@pytest.fixture(scope="module")
def area_table():
    """Pruned minimal areas for k = 3..8, shared by criteria 2 and 9.

    Returns (results, build_seconds) so criterion 2 can charge the
    shared construction time against its own budget.
    """
    t0 = time.perf_counter()
    results = {k: min_area_convex_kgon(k, coord_bound=6) for k in range(3, 9)}
    return results, time.perf_counter() - t0


def test_criterion_1_pick_identity():
    """Shoelace area equals interior + boundary/2 - 1 on 1000 random hulls."""
    t0 = time.perf_counter()
    rng = random.Random(20260817)
    made = 0
    while made < 1000:
        count = rng.randint(3, 9)
        pts = [(rng.randint(-8, 8), rng.randint(-8, 8)) for _ in range(count)]
        hull = _strict_hull(pts)
        if hull is None:
            continue
        c = pick_counts(LatticePolygon(hull), self_check=True)
        assert c.area == Fraction(c.interior) + Fraction(c.boundary, 2) - 1
        made += 1
    _done(1, t0, 5.0, "1000 polygons, exact rational identity")


def test_criterion_2_minimal_area_table(area_table):
    """Pruned search equals the unpruned oracle for k = 4..8 at bound 6,
    A(3) = 1/2, and every interior count A(k) + (2-k)/2 is an integer
    matching a direct count on the witness."""
    results, build_seconds = area_table
    t0 = time.perf_counter()
    assert results[3].area == Fraction(1, 2)
    for k in range(4, 9):
        oracle = min_area_convex_kgon(k, coord_bound=6, pruned=False)
        assert results[k].area == oracle.area, f"pruned/oracle split at k={k}"
    for k in range(3, 9):
        interior = results[k].area + Fraction(2 - k, 2)
        assert interior.denominator == 1, f"i({k}) not integral"
        assert int(interior) == pick_counts(results[k].witness).interior
    elapsed = (time.perf_counter() - t0) + build_seconds
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s, budget 60s"
    table = ", ".join(f"A({k})={results[k].area}" for k in range(3, 9))
    print(f"CRITERION-2 PASS  ({elapsed:.2f}s < 60s)  [{table}]")


def test_criterion_3_symmetric_minima():
    """Symmetric interior minima are odd for m = 1..4, the first three
    half-sum values equal 1, and every witness is checked for central
    symmetry and strict convexity by direct inspection."""
    t0 = time.perf_counter()
    for m in (1, 2, 3, 4):
        res = min_interior_symmetric(2 * m)
        assert res.interior % 2 == 1, f"interior count even at 2m={2 * m}"
        if res.witness is None:
            # Degenerate digon: the witness is a primitive segment pair.
            assert 2 * m == 2
            v, w = res.witness_vertices
            assert w == (-v[0], -v[1]) and v != (0, 0)
            assert math.gcd(abs(v[0]), abs(v[1])) == 1
        else:
            rebuilt = LatticePolygon(res.witness_vertices)  # convexity check
            assert rebuilt.is_centrally_symmetric()
            negated = {(-x, -y) for (x, y) in res.witness_vertices}
            assert negated == set(res.witness_vertices)
    for m in (1, 2, 3):
        assert f_of_m(m) == 1, f"half-sum value at m={m}"
    _done(3, t0, 120.0, "minima odd, f(1..3)=1, witnesses verified")


def _random_ellipse(rng: random.Random) -> NormSpec:
    angle = rng.uniform(0.0, math.pi)
    l1 = rng.uniform(0.5, 2.0)
    l2 = rng.uniform(0.5, 2.0)
    c, s = math.cos(angle), math.sin(angle)
    return NormSpec(
        Ellipse(
            q11=l1 * c * c + l2 * s * s,
            q12=(l1 - l2) * c * s,
            q22=l1 * s * s + l2 * c * c,
        ),
        1.0,
    )


def test_criterion_4_strict_gap_random_norms():
    """Every competitor cycle clears the prescribed lengths with a strict
    positive gap, across 20 randomized strictly convex norms and k <= 6,
    with the homology cross-check (displacement vs crossing counts)
    certified on every cycle of the graph."""
    t0 = time.perf_counter()
    rng = random.Random(52060817)
    norms: list[NormSpec] = [_random_ellipse(rng) for _ in range(12)]
    for p in (1.5, 2.0, 3.0, 4.0):
        for _ in range(2):
            norms.append(NormSpec(PNorm(p=p), rng.uniform(0.7, 1.5)))
    assert len(norms) == 20
    combos = 0
    for norm in norms:
        for k in range(1, 7):
            classes = leading_primitive_classes(norm, k)
            graph = build_graph(classes)
            ell_k = max(length for _cls, length in classes)
            consts = compute_zeta_epsilon_theta(
                graph, norm, ell_k, cross_check=True
            )
            assert consts.epsilon > 0, f"gap closed for {norm} at k={k}"
            combos += 1
    _done(4, t0, 120.0, f"{combos} norm/k combinations, all gaps positive")


def test_criterion_5_canyon_marked_spectrum():
    """Canyon metric for the Euclidean top-5 classes at N=128.

    Corridor classes must come back at their prescribed lengths to the
    last bit; every other primitive class must clear 0.95 of the largest
    prescribed length.  Corridor multiples are pinned to exact integer
    multiples instead, since only primitive classes carry the floor.
    The zero-width graph is held to the sharper bound: exact equality on
    corridor classes and at least ell_k - epsilon/2 elsewhere.
    """
    t0 = time.perf_counter()
    norm = euclidean()
    classes = leading_primitive_classes(norm, 5)
    graph = build_graph(classes)
    lengths = {cls: length for cls, length in classes}
    ell_k = max(lengths.values())
    consts = compute_zeta_epsilon_theta(graph, norm, ell_k)
    canyon = build_canyon_graph(
        graph,
        theta=consts.theta,
        background_systole=ell_k,
        grid_resolution=128,
    )

    result = spectrum(canyon, ell_k * 1.05)
    seen = {entry.cls: entry.length for entry in result.entries}
    for cls, length in lengths.items():
        assert seen[cls] == length, f"corridor class {cls} off: {seen[cls]}"
    floor = 0.95 * ell_k
    for entry in result.entries:
        if entry.cls.is_trivial or entry.cls in lengths:
            continue
        core, n = entry.cls.primitive_core()
        if n > 1 and core.canonical() in lengths:
            target = n * lengths[core.canonical()]
            assert abs(entry.length - target) <= 4.0 * SEARCH_RTOL * target
        else:
            assert entry.length >= floor, f"{entry.cls} at {entry.length}"
    for ab in ((2, 1), (2, -1), (1, -2)):
        probe = marked_min_length(canyon, IntegralClass(*ab))
        assert probe.length >= floor, f"{ab} at {probe.length}"

    graph_floor = ell_k - consts.epsilon / 2
    for cls, length in lengths.items():
        found = minimal_cycle(graph, cls)
        assert found is not None
        # Exact equality convention: per-class rational share totals,
        # one float rounding each.  The raw search accumulation may
        # sit an ulp away and is only sanity-checked.
        assert _length_exact(found[0], graph) == length
        assert abs(found[1] - length) <= 4.0 * SEARCH_RTOL * length
    for a in range(0, 4):
        for b in range(-3, 4):
            h = IntegralClass(a, b)
            if h.is_trivial or not h.is_primitive or h.canonical() != h:
                continue
            if h in lengths:
                continue
            found = minimal_cycle(graph, h)
            assert found is not None
            assert found[1] >= graph_floor, f"graph class {h} at {found[1]}"
    _done(5, t0, 120.0, f"ell_k={ell_k:.6f}, graph floor {graph_floor:.4f}")


def test_criterion_6_stable_norm_convergence():
    """Stable-norm estimates of the canyon family approach the fixed
    ellipse norm (hexagonal Gram): sup deviation at the pinned classes
    is nonincreasing in k and below 0.05 at k=6, and all sampled values
    respect the shared Lipschitz bound within 1e-9."""
    t0 = time.perf_counter()
    report = run_convergence()
    assert report.stages[0].k == 2 and report.stages[-1].k == 6
    sups = [stage.sup_pinned_deviation for stage in report.stages]
    for earlier, later in zip(sups, sups[1:]):
        assert later <= earlier + 1e-9, f"deviation rose: {sups}"
    assert report.monotone
    assert report.final_deviation < 0.05, f"final {report.final_deviation}"
    assert report.lipschitz_ok
    for stage in report.stages:
        assert stage.lipschitz_excess <= 1e-9
    _done(6, t0, 300.0, f"final sup deviation {report.final_deviation:.4f}")


def test_criterion_7_multiplicity_sharpness():
    """Sharpness certificates for m = 2, 3 (with exactly one shorter
    class) and m = 4 with the bound taken from the enumeration itself."""
    t0 = time.perf_counter()
    for m in (2, 3):
        rep = verify_sharpness(m)
        assert rep.passed, f"sharpness failed at m={m}"
        assert rep.f_m == 1 and rep.achieved_shorter == 1
    f4 = f_of_m(4)  # computed from the polygon search, not assumed
    assert f4 == (min_interior_symmetric(8).interior + 1) // 2
    rep = verify_sharpness(4)
    assert rep.passed and rep.f_m == f4 and rep.achieved_shorter == f4
    _done(7, t0, 120.0, f"m=2,3 with n=1; m=4 with n={f4}")


def _canyon_for(norm: NormSpec, k: int, resolution: int):
    classes = leading_primitive_classes(norm, k)
    graph = build_graph(classes)
    ell_k = max(length for _cls, length in classes)
    consts = compute_zeta_epsilon_theta(graph, norm, ell_k)
    pg = build_canyon_graph(graph, consts.theta, ell_k, resolution)
    corridor = [cls for cls, _length in classes]
    return pg, corridor


def test_criterion_8_subadditivity_homogeneity():
    """Shortest-loop lengths behave like a seminorm on classes.

    Subadditivity is checked over all pairs from a base box on a uniform
    grid (exact, dyadic weights) and two canyon graphs; homogeneity
    f(n*h) = n*f(h) holds bitwise for n <= 4 on corridor classes and on
    every base class of the grid.  Canyon sums tolerate 4*SEARCH_RTOL
    relative slack: both sides of an exact tie accumulate the same real
    value through different float addition orders, and the search only
    promises minima within that factor.
    """
    t0 = time.perf_counter()
    grid = uniform_grid(16)
    euclid_canyon, euclid_corridor = _canyon_for(euclidean(), 3, 64)
    hex_canyon, hex_corridor = _canyon_for(hexagonal(), 4, 64)

    base = [
        IntegralClass(a, b)
        for a in range(0, 3)
        for b in range(-2, 3)
        if not IntegralClass(a, b).is_trivial
        and IntegralClass(a, b).canonical() == IntegralClass(a, b)
    ]

    def run(pg, corridor, slack: float, label: str) -> int:
        memo: dict[tuple[int, int], float] = {}

        def f(h: IntegralClass) -> float:
            key = h.canonical().as_tuple()
            if key not in memo:
                memo[key] = marked_min_length(pg, h).length
            return memo[key]

        checked = 0
        for h1, h2 in combinations_with_replacement(base, 2):
            total = IntegralClass(h1.a + h2.a, h1.b + h2.b)
            if total.is_trivial:
                continue
            rhs = f(h1) + f(h2)
            assert f(total) <= rhs + slack * max(1.0, rhs), (
                f"{label}: f({total.as_tuple()}) > f{h1.as_tuple()} + f{h2.as_tuple()}"
            )
            checked += 1
        for h in corridor:
            unit = f(h)
            for n in range(2, 5):
                scaled = IntegralClass(n * h.a, n * h.b)
                assert f(scaled) == n * unit, f"{label}: scaling broke at {n}*{h}"
        return checked

    pairs = run(grid, base, 0.0, "grid")
    pairs += run(euclid_canyon, euclid_corridor, 4.0 * SEARCH_RTOL, "euclid3")
    pairs += run(hex_canyon, hex_corridor, 4.0 * SEARCH_RTOL, "hex4")
    _done(8, t0, 60.0, f"{pairs} pair checks across 3 graphs")


def test_criterion_9_cubic_area_floor(area_table):
    """A(k)/k^3 stays strictly above 1/(8 pi^2) for k = 3..8.

    The comparison uses the exact rational A(k)/k^3 against the rational
    upper approximation 1/EIGHT_PI_SQUARED_FLOOR >= 1/(8 pi^2), so a
    strict pass here implies the real-number inequality outright.
    """
    results, _build_seconds = area_table
    t0 = time.perf_counter()
    assert float(EIGHT_PI_SQUARED_FLOOR) <= 8 * math.pi**2
    bound = Fraction(1) / EIGHT_PI_SQUARED_FLOOR
    for k in range(3, 9):
        ratio = results[k].area / k**3
        assert bound < ratio, f"cubic floor fails at k={k}: {ratio} vs {bound}"
    _done(9, t0, 1.0, "strict rational inequality, k=3..8")
