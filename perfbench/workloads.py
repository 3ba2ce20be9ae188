"""The four workloads: their seeded inputs, one pass of package calls,
and the checks of every output against perfbench.checks.

A pass calls public functions of the package through Runner.call; each
such call is one operation.  Set-up builds the inputs a pass consumes,
afresh before every pass, so that every pass starts from the same cold
state a user's first call would see.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

from stablenorm import (
    Ellipse,
    IntegralClass,
    LatticePolygon,
    NormSpec,
    PNorm,
    build_canyon_graph,
    build_graph,
    compute_zeta_epsilon_theta,
    enumerate_classes,
    euclidean,
    hexagonal,
    leading_primitive_classes,
    marked_min_length,
    min_area_convex_kgon,
    min_area_table,
    min_interior_symmetric,
    minimal_cycle,
    multiplicity_profile,
    pick_counts,
    run_convergence,
    spectrum,
    stable_norm_estimate,
    uniform_grid,
    verify_sharpness,
)
from stablenorm.cli import main as cli_main

import checks as C

ROOT = Path(__file__).resolve().parent.parent

#: The one operation expected to fail: enumeration returns a near tie
#: out of nondecreasing order (see README).
KNOWN_FAULT = "norms.enumerate_classes near tie"

CLI_EXAMPLES = (
    ("norm-enumerate", ("norm-enumerate", "--norm", "hexagonal", "--count", "6")),
    ("graph-build", ("graph-build", "--norm", "euclidean", "--k", "3")),
    ("graph-epsilon", ("graph-epsilon", "--norm", "euclidean", "--k", "2")),
    ("canyon-spectrum", ("canyon-spectrum", "--norm", "euclidean", "--k", "5", "--grid-n", "128")),
    ("stable-norm", ("stable-norm", "--norm", "euclidean", "--k", "3", "--class", "2,1", "--n-max", "3")),
    ("polygon-min-area", ("polygon-min-area", "--k", "3")),
    ("polygon-min-area-table", ("polygon-min-area", "--k", "3", "--k-max", "8", "--format", "csv")),
    ("polygon-symm", ("polygon-symm", "--two-m", "8")),
    ("multiplicity", ("multiplicity", "--norm", "hexagonal", "--budget", "10")),
    ("sharpness", ("sharpness", "--m", "4")),
    ("convergence", ("convergence", "--ks", "2,3,4,5,6", "--grid-n", "64")),
)

#: Per-layer time metrics: the spans whose self time each one sums.
LAYER_SPANS = {
    "norms.enumerate_s": ("norms.leading_primitive_classes", "norms.enumerate_classes"),
    "toral_graph.build_s": ("toral_graph.build_graph",),
    "toral_graph.tube_s": ("toral_graph.compute_zeta_epsilon_theta",),
    "toral_graph.minimal_cycle_s": ("toral_graph.minimal_cycle",),
    "periodic_metric.build_s": ("periodic_metric.build_canyon_graph", "periodic_metric.uniform_grid"),
    "periodic_metric.query_s": (
        "periodic_metric.marked_min_length",
        "periodic_metric.first_query",
        "periodic_metric.repeat_query",
    ),
    "periodic_metric.spectrum_s": ("periodic_metric.spectrum",),
    "periodic_metric.stable_norm_s": ("periodic_metric.stable_norm_estimate",),
    "lattice_polygons.pick_s": ("lattice_polygons.pick_counts",),
    "lattice_polygons.min_area_s": ("lattice_polygons.min_area_table", "lattice_polygons.min_area_convex_kgon"),
    "lattice_polygons.oracle_s": ("lattice_polygons.min_area_oracle",),
    "lattice_polygons.symmetric_s": ("lattice_polygons.min_interior_symmetric",),
    "multiplicity.profile_s": ("multiplicity.multiplicity_profile",),
    "multiplicity.sharpness_s": ("multiplicity.verify_sharpness",),
    "experiments.convergence_s": ("experiments.run_convergence",),
    **{f"cli.{label}_s": (f"cli.{label}",) for label, _argv in CLI_EXAMPLES},
}

#: Per-layer work counts, summed from the package's return values.
COUNT_METRICS = (
    "toral_graph.tube_nodes",
    "toral_graph.tube_cycles",
    "periodic_metric.graph_edges",
    "lattice_polygons.min_area_states",
    "lattice_polygons.oracle_states",
    "lattice_polygons.symmetric_states",
)

#: Per-layer metrics that single workloads derive from their spans.
DERIVED_METRICS = {
    "toral_graph.cross_check_s": "s",
    "periodic_metric.first_query_ms": "ms",
    "periodic_metric.repeat_query_ms": "ms",
}

PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_SPANS},
    **{name: "count" for name in COUNT_METRICS},
    **DERIVED_METRICS,
    "trace.overhead_s": "s",
}


class Failed:
    """Result of a package call that raised."""

    def __init__(self, exc: BaseException):
        self.error = f"{type(exc).__name__}: {exc}"


class Runner:
    """Times each call into the package and spans it when tracing.  With
    a HostClock, each operation also notes the calibration before it."""

    def __init__(self, tracer=None, clock=None):
        self.tracer = tracer
        self.clock = clock
        self.ops: list[tuple[str, float, int | None]] = []
        self.errors: list[str] = []
        self.counts: dict[str, int] = {name: 0 for name in COUNT_METRICS}

    def call(self, name: str, fn, *args, op: bool = True, counts=None, **kwargs):
        """`fn(*args, **kwargs)` under a span called `name`; one timed
        operation when `op`, set-up work otherwise.  `counts` maps the
        result to work counts added to the per-layer totals."""
        cal = self.clock.tick() if op and self.clock else None
        with self.tracer.span(name) if self.tracer else nullcontext():
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:  # a failing operation is counted, not fatal
                out = Failed(exc)
                if len(self.errors) < 3:
                    traceback.print_exc(file=sys.stderr)
            dt = time.perf_counter() - t0
        if op:
            self.ops.append((name, dt, cal))
        if isinstance(out, Failed):
            self.errors.append(f"{name}: {out.error}")
        elif counts is not None:
            for key, value in counts(out).items():
                self.counts[key] += value
        return out


class Checker:
    """Runs checks keyed by operation, skipping outputs of failed calls."""

    def __init__(self):
        self.problems: list[tuple[str, str]] = []

    def __call__(self, key: str, fn, *outputs) -> None:
        if any(isinstance(o, Failed) for o in outputs):
            return
        try:
            fn(*outputs)
        except Exception as exc:  # a malformed output is a failed check
            self.problems.append((key, f"{type(exc).__name__}: {exc}"))


def random_ellipse(rng: random.Random) -> NormSpec:
    angle = rng.uniform(0.0, math.pi)
    l1 = rng.uniform(0.5, 2.0)
    l2 = rng.uniform(0.5, 2.0)
    c, s = math.cos(angle), math.sin(angle)
    return NormSpec(Ellipse(l1 * c * c + l2 * s * s, (l1 - l2) * c * s, l1 * s * s + l2 * c * c), 1.0)


def _tube_counts(tc) -> dict:
    return {"toral_graph.tube_nodes": tc.nodes_expanded, "toral_graph.tube_cycles": tc.cycles_checked}


def _prescribed(spec, classes):
    return {c: C.exact_ellipse_length(spec, *c) for c, _ell in classes}


class TubePanel:
    """Tube constants with the homology cross-check on a seeded panel:
    12 random ellipses and 2 p-norms for each p in {1.5, 2, 3, 4},
    for k = 1..6."""

    name = "tube-panel"
    KS = range(1, 7)

    def setup(self, seed: int, r: Runner):
        rng = random.Random(seed)
        norms = [random_ellipse(rng) for _ in range(12)]
        for p in (1.5, 2.0, 3.0, 4.0):
            norms.extend(NormSpec(PNorm(p), rng.uniform(0.7, 1.5)) for _ in range(2))
        return norms

    def run_pass(self, norms, r: Runner, cross_check: bool = True, tube_span: str = "toral_graph.compute_zeta_epsilon_theta"):
        cases = []
        for i, norm in enumerate(norms):
            for k in self.KS:
                classes = r.call("norms.leading_primitive_classes", leading_primitive_classes, norm, k)
                graph = r.call("toral_graph.build_graph", build_graph, classes)
                ell_k = max(ell for _h, ell in classes) if not isinstance(classes, Failed) else 1.0
                tc = r.call(
                    tube_span,
                    compute_zeta_epsilon_theta,
                    graph,
                    norm,
                    ell_k,
                    cross_check=cross_check,
                    counts=_tube_counts,
                )
                cases.append((i, k, classes, graph, tc))
        return cases

    def trace_extra(self, norms, r: Runner, ck: Checker) -> None:
        """The same panel with the cross-check off, for its cost; its calls
        are spanned but not counted as operations."""
        extra = Runner(r.tracer)
        self.run_pass(norms, extra, cross_check=False, tube_span="toral_graph.tube_unchecked")
        r.errors.extend(extra.errors)

    def derived(self, times: dict) -> dict:
        return {
            "toral_graph.cross_check_s": times.get("toral_graph.compute_zeta_epsilon_theta", 0.0)
            - times.get("toral_graph.tube_unchecked", 0.0)
        }

    def check(self, norms, cases, refs: dict, ck: Checker) -> None:
        for i, k, classes, graph, tc in cases:
            what = f"norm {i} k={k}"
            norm = norms[i]
            ck(what, lambda cl: C.check_ranking(C.class_entries(cl), norm, k, True, what), classes)
            ck(what, lambda cl, g: C.check_graph(*C.program_graph_data(g)[:2], C.class_entries(cl), what), classes, graph)
            ck(what, lambda g, t: C.check_tube(t, g, norm, what, refs.setdefault("brute", {})), graph, tc)


class CanyonQueries:
    """Certified marked-length queries on a few prebuilt graphs."""

    name = "canyon-queries"
    PINNED = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1))
    PROBES = ((2, 1), (2, -1), (1, -2))

    def _canyon(self, r: Runner, norm, k: int, n: int):
        classes = r.call("norms.leading_primitive_classes", leading_primitive_classes, norm, k, op=False)
        graph = r.call("toral_graph.build_graph", build_graph, classes, op=False)
        ell_k = max(ell for _h, ell in classes)
        tc = r.call(
            "toral_graph.compute_zeta_epsilon_theta", compute_zeta_epsilon_theta, graph, norm, ell_k,
            op=False, counts=_tube_counts,
        )
        pg = r.call(
            "periodic_metric.build_canyon_graph",
            build_canyon_graph,
            graph,
            tc.theta,
            ell_k,
            n,
            op=False,
            counts=lambda g: {"periodic_metric.graph_edges": len(g.edges)},
        )
        return {"norm": norm, "classes": classes, "graph": graph, "tc": tc, "pg": pg, "ell_k": ell_k}

    @staticmethod
    def _base():
        return [(a, b) for a in range(3) for b in range(-2, 3) if (a, b) != (0, 0) and C.canonical(a, b) == (a, b)]

    def _sweep_classes(self, corridor, rng):
        base = self._base()
        need = set(base)
        for h1, h2 in combinations_with_replacement(base, 2):
            s = (h1[0] + h2[0], h1[1] + h2[1])
            if s != (0, 0):
                need.add(C.canonical(*s))
        for a, b in corridor:
            need.update((n * a, n * b) for n in range(2, 5))
        out = sorted(need)
        rng.shuffle(out)
        return out

    def setup(self, seed: int, r: Runner):
        rng = random.Random(seed)
        top5 = self._canyon(r, euclidean(), 5, 128)
        e3 = self._canyon(r, euclidean(), 3, 64)
        h4 = self._canyon(r, hexagonal(), 4, 64)
        grid = r.call(
            "periodic_metric.uniform_grid",
            uniform_grid,
            16,
            op=False,
            counts=lambda g: {"periodic_metric.graph_edges": len(g.edges)},
        )
        corridor5 = [(h.a, h.b) for h, _ell in top5["classes"]]
        sweeps = {
            "grid": (grid, self._sweep_classes(self._base(), rng)),
            "e3": (e3["pg"], self._sweep_classes([(h.a, h.b) for h, _ in e3["classes"]], rng)),
            "h4": (h4["pg"], self._sweep_classes([(h.a, h.b) for h, _ in h4["classes"]], rng)),
        }
        probes = list(self.PROBES)
        rng.shuffle(probes)
        pinned = list(self.PINNED)
        rng.shuffle(pinned)
        cycles = [
            (a, b)
            for a in range(4)
            for b in range(-3, 4)
            if math.gcd(a, b) == 1 and C.canonical(a, b) == (a, b)
        ]
        rng.shuffle(cycles)
        return {
            "top5": top5,
            "e3": e3,
            "h4": h4,
            "repeat": rng.choice(corridor5),
            "probes": probes,
            "sweeps": sweeps,
            "pinned": pinned,
            "cycles": cycles,
        }

    def run_pass(self, inp, r: Runner):
        pg = inp["top5"]["pg"]
        out = {
            "first": r.call("periodic_metric.first_query", marked_min_length, pg, inp["repeat"]),
            "repeat": r.call("periodic_metric.repeat_query", marked_min_length, pg, inp["repeat"]),
            "probes": [r.call("periodic_metric.marked_min_length", marked_min_length, pg, ab) for ab in inp["probes"]],
            "spectrum": r.call("periodic_metric.spectrum", spectrum, pg, 1.05 * inp["top5"]["ell_k"]),
            "sweeps": {},
            "stable": [],
            "cycles": [],
        }
        for key, (graph, classes) in inp["sweeps"].items():
            out["sweeps"][key] = {
                c: r.call("periodic_metric.marked_min_length", marked_min_length, graph, c) for c in classes
            }
        for key in ("e3", "h4"):
            for c in inp["pinned"]:
                est = r.call("periodic_metric.stable_norm_estimate", stable_norm_estimate, inp[key]["pg"], c, 4)
                out["stable"].append((key, c, est))
        graph = inp["top5"]["graph"]
        for c in inp["cycles"]:
            out["cycles"].append((c, r.call("toral_graph.minimal_cycle", minimal_cycle, graph, IntegralClass(*c))))
        return out

    def trace_extra(self, inp, r: Runner, ck: Checker) -> None:
        pass

    def derived(self, times: dict) -> dict:
        return {
            "periodic_metric.first_query_ms": 1e3 * times.get("periodic_metric.first_query", 0.0),
            "periodic_metric.repeat_query_ms": 1e3 * times.get("periodic_metric.repeat_query", 0.0),
        }

    def check(self, inp, out, refs: dict, ck: Checker) -> None:
        for key in ("top5", "e3", "h4"):
            g = inp[key]
            k = len(g["classes"])
            ck(f"{key} classes", lambda cl: C.check_ranking(C.class_entries(cl), g["norm"], k, True, key), g["classes"])
            ck(f"{key} tube", lambda: C.check_tube(g["tc"], g["graph"], g["norm"], key))
        top5 = inp["top5"]
        prescribed = _prescribed(top5["norm"], C.class_entries(top5["classes"]))
        ell_k = top5["ell_k"]
        floor = 0.95 * ell_k
        norm = top5["norm"]

        def corridor_or_floor(entry, what):
            h = (entry.cls.a, entry.cls.b)
            C.require(
                entry.length >= C.norm_value(norm, *h) * (1 - 4 * C.SEARCH_RTOL),
                f"{what}: {h} at {entry.length!r} beats the norm",
            )
            if h in prescribed:
                C.require(entry.length == prescribed[h], f"{what}: corridor {h} at {entry.length!r}, prescribed {prescribed[h]!r}")
                return
            g = math.gcd(*h)
            core = (h[0] // g, h[1] // g) if g else h
            if g > 1 and core in prescribed:
                C.require(C.close(entry.length, g * prescribed[core], 4 * C.SEARCH_RTOL), f"{what}: multiple {h} at {entry.length!r}")
            else:
                C.require(entry.length >= floor, f"{what}: {h} at {entry.length!r} below 0.95 ell_k = {floor!r}")

        def check_repeat(first, repeat):
            corridor_or_floor(first, "first query")
            C.require(repeat.length == first.length, "repeated query changed its answer")

        ck("first/repeat", check_repeat, out["first"], out["repeat"])
        for e in out["probes"]:
            ck("probe", lambda e: corridor_or_floor(e, "probe"), e)

        def check_spectrum(res):
            seen = {(e.cls.a, e.cls.b): e for e in res.entries}
            for h in prescribed:
                C.require(h in seen, f"spectrum misses corridor class {h}")
            lengths = [e.length for e in res.entries]
            C.require(lengths == sorted(lengths), "spectrum entries out of order")
            for e in res.entries:
                if (e.cls.a, e.cls.b) != (0, 0):
                    corridor_or_floor(e, "spectrum")
                    C.require(e.length <= 1.05 * ell_k * (1 + C.SEARCH_RTOL), f"spectrum entry {e.cls} above the bound")

        ck("spectrum", check_spectrum, out["spectrum"])

        def check_witnesses(pg, entries, what):
            lookup = C.edge_lookup(pg, C.witness_nodes(entries))
            for e in entries:
                C.check_witness(e, lookup, what)

        top_entries = [out["first"], out["repeat"], *out["probes"]]
        if not isinstance(out["spectrum"], Failed):
            top_entries.extend(out["spectrum"].entries)
        ck("top5 witnesses", lambda *es: check_witnesses(top5["pg"], es, "top5"), *top_entries)

        for key, results in out["sweeps"].items():
            pg = inp["sweeps"][key][0]
            ck(f"{key} witnesses", lambda *es: check_witnesses(pg, es, key), *results.values())
            ck(f"{key} seminorm", lambda *_: self._check_seminorm(key, inp, results), *results.values())

        for key, c, est in out["stable"]:
            ck("stable_norm_estimate", lambda est: self._check_stable(key, inp[key], c, est), est)

        graph = top5["graph"]
        points, edges, classes = C.program_graph_data(graph)
        graph_floor = ell_k - top5["tc"].epsilon / 2

        def check_cycle(h, found):
            C.require(found is not None, f"minimal_cycle found no cycle of {h}")
            cyc, length = found
            own, got, shares = C.walk_cycle(edges, classes, cyc.steps, f"minimal cycle of {h}")
            C.require(got == h, f"minimal cycle of {h} has class {got}")
            C.require(C.close(own, length, 4 * C.SEARCH_RTOL), f"minimal cycle of {h}: length {length!r}, walk {own!r}")
            C.require(length >= C.norm_value(norm, *h) * (1 - 4 * C.SEARCH_RTOL), f"minimal cycle of {h} beats the norm")
            if h in prescribed:
                exact = C.exact_share_length(shares, classes)
                C.require(exact == prescribed[h], f"minimal cycle of corridor {h}: {exact!r}, prescribed {prescribed[h]!r}")
            else:
                C.require(length >= graph_floor, f"minimal cycle of {h} at {length!r} below ell_k - eps/2")

        for h, found in out["cycles"]:
            ck("minimal_cycle", lambda f: check_cycle(h, f), found)

    def _check_seminorm(self, key, inp, results):
        """Closed form on the grid; corridor lengths, subadditivity and
        homogeneity f(n h) = n f(h) on every graph."""
        f = {c: e.length for c, e in results.items()}
        base = self._base()
        if key == "grid":
            for (a, b), length in f.items():
                C.require(length == float(abs(a) + abs(b)), f"grid: ({a},{b}) at {length!r}, closed form {abs(a) + abs(b)}")
            slack, corridor = 0.0, base
        else:
            g = inp[key]
            corridor = [(h.a, h.b) for h, _ in g["classes"]]
            for c, length in _prescribed(g["norm"], C.class_entries(g["classes"])).items():
                C.require(f[c] == length, f"{key}: corridor {c} at {f[c]!r}, prescribed {length!r}")
            for c, length in f.items():
                C.require(length >= C.norm_value(g["norm"], *c) * (1 - 4 * C.SEARCH_RTOL), f"{key}: {c} beats the norm")
            slack = 4 * C.SEARCH_RTOL
        for h1, h2 in combinations_with_replacement(base, 2):
            s = (h1[0] + h2[0], h1[1] + h2[1])
            if s == (0, 0):
                continue
            rhs = f[h1] + f[h2]
            C.require(f[C.canonical(*s)] <= rhs + slack * max(1.0, rhs), f"{key}: f{s} > f{h1} + f{h2}")
        for a, b in corridor:
            for n in range(2, 5):
                C.require(f[(n * a, n * b)] == n * f[(a, b)], f"{key}: f({n}*{(a, b)}) != {n} f{(a, b)}")

    @staticmethod
    def _check_stable(key, g, c, est):
        what = f"{key} stable norm of {c}"
        C.require(len(est.ratios) == 4, f"{what}: {len(est.ratios)} ratios")
        C.require(est.estimate == min(est.ratios), f"{what}: estimate is not the least ratio")
        C.require(est.stable == (est.ratios[0] <= est.estimate * (1 + 1e-9)), f"{what}: stable flag")
        target = C.norm_value(g["norm"], *c)
        for r in est.ratios:
            C.require(r >= target * (1 - 4 * C.SEARCH_RTOL), f"{what}: ratio {r!r} beats the norm {target!r}")
        prescribed = _prescribed(g["norm"], C.class_entries(g["classes"]))
        if c in prescribed:
            for r in est.ratios:
                C.require(C.close(r, prescribed[c], 4 * C.SEARCH_RTOL), f"{what}: corridor ratio {r!r}")
            C.require(est.stable, f"{what}: corridor class not stable")


def strict_hull(points):
    pts = sorted(set(points))
    if len(pts) < 3:
        return None

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1]) - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0]) <= 0:
                out.pop()
            out.append(p)
        return out

    hull = half(pts)[:-1] + half(reversed(pts))[:-1]
    return tuple(hull) if len(hull) >= 3 else None


class PolygonTables:
    """Exact lattice-polygon sweeps and multiplicity profiles."""

    name = "polygon-tables"
    HULLS = 1000
    BUDGETS = (10, 30)
    NEAR_TIE = NormSpec(Ellipse(1.0, 1e-12, 1.0))

    def setup(self, seed: int, r: Runner):
        rng = random.Random(seed)
        hulls = []
        while len(hulls) < self.HULLS:
            count = rng.randint(3, 9)
            hull = strict_hull([(rng.randint(-8, 8), rng.randint(-8, 8)) for _ in range(count)])
            if hull is not None:
                hulls.append(LatticePolygon(hull))
        panel = [euclidean(), hexagonal(), random_ellipse(rng), random_ellipse(rng)]
        panel.extend(NormSpec(PNorm(rng.uniform(1.5, 4.0))) for _ in range(2))
        return {"hulls": hulls, "panel": panel}

    def run_pass(self, inp, r: Runner):
        states = lambda key: (lambda res: {key: res.states_explored})
        out = {"picks": [r.call("lattice_polygons.pick_counts", pick_counts, p) for p in inp["hulls"]]}
        out["table"] = r.call(
            "lattice_polygons.min_area_table", min_area_table, 3, 8,
            counts=lambda rows: {"lattice_polygons.min_area_states": rows[0].states_explored},
        )
        out["pruned"] = {
            k: r.call("lattice_polygons.min_area_convex_kgon", min_area_convex_kgon, k, coord_bound=6,
                      counts=states("lattice_polygons.min_area_states"))
            for k in range(4, 9)
        }
        out["oracle"] = {
            k: r.call("lattice_polygons.min_area_oracle", min_area_convex_kgon, k, coord_bound=6, pruned=False,
                      counts=states("lattice_polygons.oracle_states"))
            for k in range(4, 9)
        }
        out["symmetric"] = {
            two_m: r.call("lattice_polygons.min_interior_symmetric", min_interior_symmetric, two_m,
                          counts=states("lattice_polygons.symmetric_states"))
            for two_m in range(2, 11, 2)
        }
        out["sharpness"] = {m: r.call("multiplicity.verify_sharpness", verify_sharpness, m) for m in (2, 3, 4)}
        out["profiles"] = [
            (i, b, r.call("multiplicity.multiplicity_profile", multiplicity_profile, norm, class_budget=b))
            for i, norm in enumerate(inp["panel"])
            for b in self.BUDGETS
        ]
        out["near_tie"] = r.call("norms.enumerate_classes", enumerate_classes, self.NEAR_TIE, 5)
        return out

    def trace_extra(self, inp, r: Runner, ck: Checker) -> None:
        pass

    def derived(self, times: dict) -> dict:
        return {}

    def check(self, inp, out, refs: dict, ck: Checker) -> None:
        scans = refs.setdefault("scans", {})

        def check_pick(poly, res):
            v = poly.vertices
            if v not in scans:
                scans[v] = (Fraction(C.twice_area(v), 2), *C.lattice_counts(v))
            C.require((res.area, res.interior, res.boundary) == scans[v], f"pick_counts{v}: {res}, scan {scans[v]}")

        for poly, res in zip(inp["hulls"], out["picks"]):
            ck("pick_counts", lambda res: check_pick(poly, res), res)

        def check_area(res, k, what):
            C.require(res.k == k and res.area == C.PUBLISHED_MIN_AREA[k], f"{what}: A({k}) = {res.area}")
            C.require(res.certified == (res.area == Fraction(k, 2) - 1), f"{what}: certified flag at k={k}")
            C.check_polygon_witness(res.witness.vertices, k, res.area, f"{what} witness k={k}")

        def check_table(rows):
            C.require([row.k for row in rows] == list(range(3, 9)), "min_area_table rows")
            for row in rows:
                check_area(row, row.k, "min_area_table")

        ck("min_area_table", check_table, out["table"])
        for k in range(4, 9):
            ck("min_area_convex_kgon", lambda res: check_area(res, k, "pruned"), out["pruned"][k])
            ck("min_area_convex_kgon oracle", lambda res: check_area(res, k, "unpruned"), out["oracle"][k])

        f_table = {}
        for two_m, res in out["symmetric"].items():
            def check_sym(res):
                C.require(res.two_m == two_m, "min_interior_symmetric size")
                C.check_symmetric(two_m, res.interior, res.witness_vertices, f"symmetric 2m={two_m}")
                C.require(res.certified == (res.interior == 1), f"symmetric 2m={two_m}: certified flag")
                f_table[two_m // 2] = (res.interior + 1) // 2

            ck("min_interior_symmetric", check_sym, res)

        def check_small_f():
            for m in (1, 2, 3):
                C.require(f_table.get(m, 1) == 1, f"f({m}) = {f_table.get(m)}, the paper has 1")

        ck("min_interior_symmetric", check_small_f)
        for m, rep in out["sharpness"].items():
            def check_sharp(rep):
                C.check_sharpness(rep, f"sharpness m={m}")
                C.require(rep.f_m == f_table.get(m, rep.f_m), f"sharpness m={m}: f = {rep.f_m}")

            ck("verify_sharpness", check_sharp, rep)
        for i, budget, prof in out["profiles"]:
            norm = inp["panel"][i]

            def check_prof(prof):
                groups = [(g.length, [(c.a, c.b) for c in g.classes], g.multiplicity, g.shorter_count, g.f_bound, g.theorem_ok) for g in prof.groups]
                C.check_profile(groups, norm, budget, f_table, f"profile of norm {i} at budget {budget}")
                C.require(prof.violations == (), f"profile of norm {i}: violations {prof.violations}")

            ck("multiplicity_profile", check_prof, prof)

        def check_near_tie(res):
            got = C.class_entries(res.entries)
            C.check_ranking(got, self.NEAR_TIE, 5, False, "enumerate_classes near tie")
            C.check_nondecreasing(got, "enumerate_classes near tie")

        ck(KNOWN_FAULT, check_near_tie, out["near_tie"])


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


class CliExamples:
    """The README CLI examples, in process, stdout captured."""

    name = "cli-examples"
    KS = (2, 3, 4, 5, 6)

    def setup(self, seed: int, r: Runner):
        order = list(CLI_EXAMPLES)
        random.Random(seed).shuffle(order)
        return order

    def run_pass(self, order, r: Runner):
        return {label: r.call(f"cli.{label}", _run_cli, argv) for label, argv in order}

    def trace_extra(self, order, r: Runner, ck: Checker) -> None:
        """The convergence experiment called directly, for the
        experiments layer's own time."""
        rep = r.call("experiments.run_convergence", run_convergence, ks=self.KS, grid_resolution=64, op=False)
        ck("experiments.run_convergence", lambda rep: C.check_convergence(rep.to_jsonable(), hexagonal(), self.KS, "run_convergence"), rep)

    def derived(self, times: dict) -> dict:
        return {}

    def check(self, order, out, refs: dict, ck: Checker) -> None:
        if "schemas" not in refs:
            refs["schemas"] = C.SchemaValidator(ROOT / "schemas")
        schemas = refs["schemas"]
        previous = refs.setdefault("bytes", {})
        for label, argv in CLI_EXAMPLES:
            def check_one(result):
                code, text, err = result
                C.require(code == 0 and err == "", f"exit {code}, stderr {err[:200]!r}")
                C.require(previous.setdefault(label, text) == text, "output bytes differ between two calls")
                if "csv" in argv:
                    self._check_table_csv(text)
                    return
                payload = json.loads(text)
                schemas.validate(argv[0], payload)
                getattr(self, "_check_" + label.replace("-", "_"))(payload)

            ck(f"cli.{label}", check_one, out[label])

    # -- semantic checks, one per example --------------------------------

    @staticmethod
    def _check_norm_enumerate(p):
        spec = C.spec_from_json(p["norm"])
        C.check_ranking([(tuple(e["class"]), e["value"]) for e in p["entries"]], spec, 6, False, "norm-enumerate")
        C.require(p["segment_tie_warning"] is False, "norm-enumerate: segment warning on a strictly convex norm")

    @staticmethod
    def _graph_json(p):
        frac = lambda s: Fraction(s)
        points = [(frac(x), frac(y)) for x, y in p["vertices"]]
        edges = [
            (e["tail"], e["head"], e["class_index"], frac(e["q"]), (frac(e["displacement"][0]), frac(e["displacement"][1])), e["length"])
            for e in p["edges"]
        ]
        classes = [(tuple(c["class"]), c["length"]) for c in p["classes"]]
        return points, edges, classes

    def _check_graph_build(self, p):
        spec = C.spec_from_json(p["norm"])
        points, edges, classes = self._graph_json(p["graph"])
        C.check_ranking(classes, spec, p["k"], True, "graph-build classes")
        C.check_graph(points, edges, classes, "graph-build")
        C.require(p["ell_k"] == max(ell for _c, ell in classes), "graph-build: ell_k")

    @staticmethod
    def _check_graph_epsilon(p):
        spec = C.spec_from_json(p["norm"])
        classes = C.ranked_classes(spec, p["k"], True)
        points, edges = C.reference_graph(classes)
        ell_k = max(ell for _c, ell in classes)
        zeta = 0.5 * min(float(q) * classes[c][1] for _t, _h, c, q in edges)
        bound = int(math.floor(ell_k / zeta + 1e-9))
        C.require(C.close(p["zeta"], zeta, 1e-15) and p["edge_bound"] == bound, "graph-epsilon: zeta or edge bound")
        C.require(bound <= C.BRUTE_EDGE_BOUND, "graph-epsilon: example outgrew the unpruned enumeration")
        eps = C.brute_min_gap(points, edges, classes, spec, bound)
        C.require(C.close(p["epsilon"], eps, C.SUM_RTOL), f"graph-epsilon: epsilon {p['epsilon']!r}, unpruned {eps!r}")
        C.require(C.close(p["theta"], min(eps / (2 * bound), 0.25), 1e-12), "graph-epsilon: theta")
        C.require(p["cycles_checked"] > 0, "graph-epsilon: no cycles checked")

    @staticmethod
    def _check_canyon_spectrum(p):
        spec = C.spec_from_json(p["norm"])
        classes = C.ranked_classes(spec, p["k"], True)
        prescribed = {c: C.exact_ellipse_length(spec, *c) for c, _v in classes}
        ell_k = max(prescribed.values())
        C.require(p["bound"] == ell_k * 1.05, "canyon-spectrum: bound")
        entries = {tuple(e["class"]): e["length"] for e in p["spectrum"]["entries"]}
        lengths = [e["length"] for e in p["spectrum"]["entries"]]
        C.require(lengths == sorted(lengths), "canyon-spectrum: entries out of order")
        for h, ell in prescribed.items():
            C.require(entries.get(h) == ell, f"canyon-spectrum: corridor {h} at {entries.get(h)!r}, prescribed {ell!r}")
        for h, length in entries.items():
            if h == (0, 0) or h in prescribed:
                continue
            C.require(length >= C.norm_value(spec, *h) * (1 - 4 * C.SEARCH_RTOL), f"canyon-spectrum: {h} beats the norm")
            g = math.gcd(*h)
            core = (h[0] // g, h[1] // g)
            if g > 1 and core in prescribed:
                C.require(C.close(length, g * prescribed[core], 4 * C.SEARCH_RTOL), f"canyon-spectrum: multiple {h}")
            else:
                C.require(length >= 0.95 * ell_k, f"canyon-spectrum: {h} at {length!r} below 0.95 ell_k")

    @staticmethod
    def _check_stable_norm(p):
        spec = C.spec_from_json(p["graph"]["norm"])
        target = C.norm_value(spec, *p["class"])
        ratios = p["ratios"]
        C.require(len(ratios) == 3 and p["estimate"] == min(ratios), "stable-norm: ratios")
        C.require(all(r >= target * (1 - 4 * C.SEARCH_RTOL) for r in ratios), "stable-norm: a ratio beats the norm")
        C.require(p["stable"] == (ratios[0] <= p["estimate"] * (1 + 1e-9)), "stable-norm: stable flag")

    @staticmethod
    def _check_polygon_min_area(p):
        area = Fraction(p["area"])
        C.require(area == C.PUBLISHED_MIN_AREA[p["k"]], f"polygon-min-area: A({p['k']}) = {area}")
        C.check_polygon_witness(p["witness"], p["k"], area, "polygon-min-area witness")
        C.require(p["certified"] == (area == Fraction(p["k"], 2) - 1), "polygon-min-area: certified flag")

    @staticmethod
    def _check_table_csv(text):
        rows = list(csv.reader(io.StringIO(text)))
        C.require(rows[0] == ["k", "A_num", "A_den", "i", "certified"], f"table header {rows[0]}")
        C.require([int(row[0]) for row in rows[1:]] == list(range(3, 9)), "table rows")
        for k, num, den, i, cert in rows[1:]:
            k, area = int(k), Fraction(int(num), int(den))
            C.require(area == C.PUBLISHED_MIN_AREA[k], f"table: A({k}) = {area}")
            C.require(Fraction(int(i)) == area + Fraction(2 - k, 2), f"table: i({k}) = {i}")
            C.require(cert == str(area == Fraction(k, 2) - 1), f"table: certified flag at k={k}")

    @staticmethod
    def _check_polygon_symm(p):
        C.check_symmetric(p["two_m"], p["interior"], p["witness"], "polygon-symm")
        C.require(p["f_of_m"] == (p["interior"] + 1) // 2, "polygon-symm: f_of_m")
        C.require(p["certified"] == (p["interior"] == 1), "polygon-symm: certified flag")

    @staticmethod
    def _check_multiplicity(p):
        spec = C.spec_from_json(p["norm"])
        groups = [(g["length"], [tuple(c) for c in g["classes"]], g["m"], g["n"], g["f_bound"], g["theorem_ok"]) for g in p["groups"]]
        C.check_profile(groups, spec, sum(g[2] for g in groups), {1: 1, 2: 1, 3: 1}, "multiplicity")
        C.require(p["violations"] == [], "multiplicity: violations on a strictly convex norm")

    @staticmethod
    def _check_sharpness(p):
        from types import SimpleNamespace

        cls = lambda xs: [SimpleNamespace(a=a, b=b) for a, b in xs]
        rep = SimpleNamespace(
            passed=p["passed"], norm=C.spec_from_json(p["norm"]), m=p["m"], f_m=p["f_m"], level=p["level"],
            tie_classes=cls(p["tie_classes"]), classes_below=cls(p["classes_below"]),
        )
        C.check_sharpness(rep, "sharpness")

    def _check_convergence(self, p):
        C.check_convergence(p, hexagonal(), self.KS, "convergence")


WORKLOADS = {w.name: w for w in (TubePanel, CanyonQueries, PolygonTables, CliExamples)}
