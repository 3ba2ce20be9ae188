"""Independent reference computations behind the benchmark's output checks.

Nothing here calls into the package's algorithms or imports a private
helper.  Norms are evaluated from the public fields of the norm
dataclasses, geodesic graphs are rebuilt from their classes, lattice
points are counted by a direct scan, tube constants are re-derived by an
unpruned cycle enumeration, and class rankings come from a brute-force
box scan.  Every check raises CheckError naming what disagreed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

#: The cover search promises minimal lengths within this relative
#: tolerance; witness sums and seminorm identities get four times it.
SEARCH_RTOL = 1e-12

#: Relative tolerance within which class enumeration groups near ties
#: and orders them by tie key (the documented contract).
TIE_RTOL = 1e-9

#: Slack for comparing independently summed float lengths of at most a
#: few dozen terms of size about 1.
SUM_RTOL = 1e-10

#: Largest edge bound on which the tube constant is re-derived by
#: unpruned enumeration.
BRUTE_EDGE_BOUND = 6

#: Published minimal areas of convex lattice k-gons (OEIS A063984 lists
#: twice these values).
PUBLISHED_MIN_AREA = {
    3: Fraction(1, 2),
    4: Fraction(1),
    5: Fraction(5, 2),
    6: Fraction(3),
    7: Fraction(13, 2),
    8: Fraction(7),
}


class CheckError(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def close(x: float, y: float, rtol: float, floor: float = 1.0) -> bool:
    return abs(x - y) <= rtol * max(abs(x), abs(y), floor)


# -- norms ------------------------------------------------------------------


def norm_value(spec, x: float, y: float) -> float:
    """Value of a NormSpec at (x, y), from the variant's public fields."""
    var = spec.variant
    kind = _kind(var)
    if kind == "ellipse":
        return spec.scale * math.sqrt(var.q11 * x * x + 2.0 * var.q12 * x * y + var.q22 * y * y)
    if kind == "pnorm":
        return spec.scale * (abs(x) ** var.p + abs(y) ** var.p) ** (1.0 / var.p)
    return spec.scale * _arc_gauge(var.vertices, var.radius, var.level, x, y)


def _kind(var) -> str:
    """Norm family from the variant's fields, so that norms read back
    from CLI JSON (see spec_from_json) evaluate the same way."""
    for kind, field in (("ellipse", "q11"), ("pnorm", "p"), ("arcpolygon", "vertices")):
        if hasattr(var, field):
            return kind
    raise CheckError(f"no reference evaluation for norm variant {var!r}")


def spec_from_json(obj: dict):
    """Norm from its CLI JSON form, as plain fields."""
    from types import SimpleNamespace

    kind = obj["variant"]
    if kind == "ellipse":
        (q11, q12), (_q21, q22) = obj["q"]
        var = SimpleNamespace(q11=q11, q12=q12, q22=q22)
    elif kind == "pnorm":
        var = SimpleNamespace(p=obj["p"])
    else:
        radius = math.inf if obj["radius"] is None else obj["radius"]
        var = SimpleNamespace(vertices=[tuple(v) for v in obj["vertices"]], radius=radius, level=obj["level"])
    return SimpleNamespace(variant=var, scale=obj["scale"])


def _arc_gauge(vertices, radius: float, level: float, x: float, y: float) -> float:
    """Gauge whose level-`level` curve is the polygon with every edge
    bulged outward into a circular arc of the given radius."""
    r = math.hypot(x, y)
    if r == 0.0:
        return 0.0
    ux, uy = x / r, y / r
    n = len(vertices)
    for i in range(n):
        (x1, y1), (x2, y2) = vertices[i], vertices[(i + 1) % n]
        if x1 * uy - y1 * ux >= 0.0 and ux * y2 - uy * x2 >= 0.0:
            ex, ey = x2 - x1, y2 - y1
            if math.isinf(radius):
                t = (x1 * ey - y1 * ex) / (ux * ey - uy * ex)
            else:
                chord = math.hypot(ex, ey)
                d = math.sqrt(radius * radius - 0.25 * chord * chord)
                cx = 0.5 * (x1 + x2) - d * ey / chord
                cy = 0.5 * (y1 + y2) + d * ex / chord
                beta = ux * cx + uy * cy
                t = beta + math.sqrt(beta * beta + radius * radius - cx * cx - cy * cy)
            return level * r / t
    raise CheckError(f"direction ({x}, {y}) falls in no sector of the arc polygon")


def exact_ellipse_length(spec, a: int, b: int) -> float:
    """Correctly rounded ellipse norm of an integer class whose quadratic
    form is an exact integer, as for the Euclidean and hexagonal norms."""
    var = spec.variant
    q = Fraction(var.q11) * a * a + 2 * Fraction(var.q12) * a * b + Fraction(var.q22) * b * b
    require(q.denominator == 1 and 0 <= q < 2**53, f"quadratic form at ({a},{b}) is {q}, not a small integer")
    return spec.scale * math.sqrt(int(q))


def _lower_rate(spec) -> float:
    """A positive c with norm(v) >= c * |v| for every v."""
    var = spec.variant
    kind = _kind(var)
    if kind == "ellipse":
        tr = var.q11 + var.q22
        det = var.q11 * var.q22 - var.q12 * var.q12
        lam = 0.5 * (tr - math.sqrt(max(tr * tr - 4.0 * det, 0.0)))
        return spec.scale * math.sqrt(lam) * (1 - 1e-9)
    if kind == "pnorm":
        return spec.scale * min(1.0, 2.0 ** (1.0 / var.p - 0.5)) * (1 - 1e-9)
    reach = 0.0
    n = len(var.vertices)
    for i in range(n):
        (x1, y1), (x2, y2) = var.vertices[i], var.vertices[(i + 1) % n]
        half = 0.5 * math.hypot(x2 - x1, y2 - y1)
        sag = 0.0 if math.isinf(var.radius) else var.radius - math.sqrt(var.radius**2 - half**2)
        reach = max(reach, math.hypot(x1, y1) + sag)
    return spec.scale * var.level / reach * (1 - 1e-9)


def tie_key(c: tuple[int, int]) -> tuple[int, int, int]:
    a, b = c
    return (a, abs(b), 0 if b >= 0 else 1)


def canonical(a: int, b: int) -> tuple[int, int]:
    return (-a, -b) if a < 0 or (a == 0 and b < 0) else (a, b)


def ranked_classes(spec, count: int, primitive: bool) -> list[tuple[tuple[int, int], float]]:
    """First `count` canonical classes by value, near ties (TIE_RTOL)
    ordered by tie key, from a box scan grown until it provably holds
    every class up to the count-th value."""
    c = _lower_rate(spec)
    box = 2
    while True:
        out = []
        for a in range(box + 1):
            for b in range(0 if a == 0 else -box, box + 1):
                if primitive and math.gcd(a, b) != 1:
                    continue
                out.append(((a, b), norm_value(spec, a, b)))
        out.sort(key=lambda e: (e[1], tie_key(e[0])))
        i = 0
        while i < len(out):
            j = i + 1
            while j < len(out) and out[j][1] - out[i][1] <= TIE_RTOL * max(1.0, out[i][1]):
                j += 1
            out[i:j] = sorted(out[i:j], key=lambda e: tie_key(e[0]))
            i = j
        if len(out) >= count:
            need = int(out[count - 1][1] * (1 + 1e-6) / c) + 1
            if box >= need:
                return out[:count]
            box = need
        else:
            box *= 2


def class_entries(entries) -> list[tuple[tuple[int, int], float]]:
    return [((h.a, h.b), v) for h, v in entries]


def check_ranking(got, spec, count: int, primitive: bool, what: str) -> None:
    """Program entries [((a, b), value)] against the box ranking."""
    ref = ranked_classes(spec, count, primitive)
    require(len(got) == count, f"{what}: {len(got)} entries, expected {count}")
    for (gc, gv), (rc, rv) in zip(got, ref):
        require(gc == rc, f"{what}: class {gc} where the box ranking has {rc}")
        require(close(gv, rv, 1e-12), f"{what}: value {gv!r} of {gc}, reference {rv!r}")


def check_nondecreasing(got, what: str) -> None:
    values = [v for _c, v in got]
    for i in range(1, len(values)):
        require(
            values[i] >= values[i - 1],
            f"{what}: value {values[i]!r} at position {i} below {values[i - 1]!r}",
        )


# -- geodesic graphs and tube constants --------------------------------------


def reference_graph(classes):
    """Own geodesic graph of primitive classes [((a, b), ell)]: vertex
    points, and edges (tail, head, class index, q) by vertex index."""
    ix: dict[tuple[Fraction, Fraction], int] = {(Fraction(0), Fraction(0)): 0}
    edges = []
    for i, ((a, b), _ell) in enumerate(classes):
        params = {Fraction(0)}
        for j, ((c, d), _l) in enumerate(classes):
            if j != i:
                det = abs(a * d - b * c)
                params.update(Fraction(r, det) for r in range(det))
        cuts = sorted(params) + [Fraction(1)]
        for t0, t1 in zip(cuts, cuts[1:]):
            ends = []
            for t in (t0, t1):
                p = ((t * a) % 1, (t * b) % 1)
                ends.append(ix.setdefault(p, len(ix)))
            edges.append((ends[0], ends[1], i, t1 - t0))
    points = [None] * len(ix)
    for p, k in ix.items():
        points[k] = p
    return points, edges


def check_graph(points, edges, classes, what: str) -> None:
    """Program graph given as vertex points and edges (tail, head, class,
    q, disp, length) against the reference construction."""
    ref_points, ref_edges = reference_graph(classes)
    require(
        sorted(points) == sorted(ref_points),
        f"{what}: {len(points)} vertices, reference has {len(ref_points)}",
    )
    got = sorted((points[t], points[h], c, q) for t, h, c, q, _d, _l in edges)
    want = sorted((ref_points[t], ref_points[h], c, q) for t, h, c, q in ref_edges)
    require(got == want, f"{what}: edge set differs from the reference construction")
    for t, h, c, q, disp, length in edges:
        (a, b), ell = classes[c]
        require(disp == (q * a, q * b), f"{what}: edge {t}->{h} displacement {disp}")
        end = (points[t][0] + disp[0] - points[h][0], points[t][1] + disp[1] - points[h][1])
        require(end[0].denominator == 1 and end[1].denominator == 1, f"{what}: edge {t}->{h} does not land on its head")
        require(close(length, float(q) * ell, 1e-15), f"{what}: edge {t}->{h} length {length!r}")


def brute_min_gap(points, edges, classes, spec, edge_bound: int) -> float:
    """Minimum of length - norm(class) over every cyclically reduced closed
    walk of at most `edge_bound` edges using two or more classes, by
    unpruned enumeration.  Each walk is enumerated from its smallest
    vertex, which every rotation of it visits."""
    den = 1
    for _t, _h, _c, q in edges:
        den = den * q.denominator // math.gcd(den, q.denominator)
    out: dict[int, list] = {v: [] for v in range(len(points))}
    for i, (t, h, c, q) in enumerate(edges):
        (a, b), ell = classes[c]
        n = int(q * den)
        length = float(q) * ell
        out[t].append((i, 1, h, n * a, n * b, c, length))
        out[h].append((i, -1, t, -n * a, -n * b, c, length))
    best = math.inf

    def walk(s0, v, dx, dy, length, first, last, depth, used):
        nonlocal best
        for i, sg, w, ex, ey, c, el in out[v]:
            if w < s0 or (last is not None and i == last[0] and sg == -last[1]):
                continue
            f = first if first is not None else (i, sg)
            nl, nx, ny, nu = length + el, dx + ex, dy + ey, used | {c}
            if w == s0 and len(nu) > 1 and not (i == f[0] and sg == -f[1]):
                best = min(best, nl - norm_value(spec, nx / den, ny / den))
            if depth + 1 < edge_bound:
                walk(s0, w, nx, ny, nl, f, (i, sg), depth + 1, nu)

    for s0 in range(len(points)):
        walk(s0, s0, 0, 0, 0.0, None, None, 0, frozenset())
    return best


def program_graph_data(graph):
    edges = [(e.tail, e.head, e.cls, e.q, e.disp, e.length) for e in graph.edges]
    classes = [((h.a, h.b), ell) for h, ell in graph.classes]
    return list(graph.vertices), edges, classes


def walk_cycle(edges, classes, steps, what: str):
    """Own length, exact class and class set of a cycle given as
    (edge index, sign) steps over edges (tail, head, class, q, ...)."""
    require(len(steps) > 0, f"{what}: empty cycle")
    ends = []
    length = 0.0
    shares: dict[int, Fraction] = {}
    hx = hy = Fraction(0)
    for e, s in steps:
        require(0 <= e < len(edges) and s in (1, -1), f"{what}: bad step ({e}, {s})")
        t, h, c, q = edges[e][:4]
        ends.append((t, h) if s > 0 else (h, t))
        (a, b), ell = classes[c]
        length += float(q) * ell
        shares[c] = shares.get(c, Fraction(0)) + q
        hx += s * q * a
        hy += s * q * b
    n = len(ends)
    for i in range(n):
        require(ends[i][1] == ends[(i + 1) % n][0], f"{what}: step {i} does not continue at step {(i + 1) % n}")
    require(hx.denominator == 1 and hy.denominator == 1, f"{what}: class ({hx},{hy}) not integral")
    return length, (int(hx), int(hy)), shares


def exact_share_length(shares, classes) -> float:
    """Length summed as one float rounding per class share, the
    convention under which whole corridor loops are exact."""
    return sum(float(q) * classes[c][1] for c, q in sorted(shares.items()))


def check_tube(tc, graph, spec, what: str, brute_cache: dict | None = None) -> None:
    """Tube constants re-derived from the graph, the witness and, for
    small edge bounds, an unpruned enumeration."""
    points, edges, classes = program_graph_data(graph)
    ell_k = max(ell for _h, ell in classes)
    zeta = 0.5 * min(float(q) * classes[c][1] for _t, _h, c, q, _d, _l in edges)
    require(close(tc.zeta, zeta, 1e-15), f"{what}: zeta {tc.zeta!r}, reference {zeta!r}")
    bound = int(math.floor(ell_k / zeta + 1e-9))
    require(tc.edge_bound == bound, f"{what}: edge bound {tc.edge_bound}, reference {bound}")
    if brute_cache is not None and bound <= BRUTE_EDGE_BOUND:
        key = (what, bound)
        if key not in brute_cache:
            brute_cache[key] = brute_min_gap(points, [e[:4] for e in edges], classes, spec, bound)
        ref = brute_cache[key]
        require(
            (math.isinf(ref) and math.isinf(tc.epsilon)) or close(tc.epsilon, ref, SUM_RTOL),
            f"{what}: epsilon {tc.epsilon!r}, unpruned enumeration {ref!r}",
        )
    require(tc.epsilon > 0, f"{what}: competitor gap {tc.epsilon!r} is not positive")
    if math.isinf(tc.epsilon):
        require(len(classes) == 1 or tc.witness is None, f"{what}: infinite gap with a witness")
        return
    length, h, shares = walk_cycle(edges, classes, tc.witness.steps, f"{what} witness")
    n = len(tc.witness.steps)
    require(n <= bound, f"{what}: witness has {n} edges, bound {bound}")
    for i in range(n):
        e0, s0 = tc.witness.steps[i]
        e1, s1 = tc.witness.steps[(i + 1) % n]
        require(not (n > 1 and e0 == e1 and s0 == -s1), f"{what}: witness backtracks at step {i}")
    require(len(shares) > 1, f"{what}: witness uses a single class")
    require(
        (tc.witness_class.a, tc.witness_class.b) == h,
        f"{what}: witness class {tc.witness_class}, walk gives {h}",
    )
    gap = length - norm_value(spec, *h)
    require(close(tc.epsilon, gap, SUM_RTOL), f"{what}: epsilon {tc.epsilon!r}, witness gives {gap!r}")
    theta = min(tc.epsilon / (2.0 * bound), 0.25)
    require(close(tc.theta, theta, 1e-15), f"{what}: theta {tc.theta!r}, reference {theta!r}")


# -- periodic graphs ----------------------------------------------------------


def edge_lookup(pg, nodes) -> dict:
    """(from, to, dx, dy) -> cheapest weight over edges touching `nodes`."""
    out: dict = {}
    for e in pg.edges:
        if e.u in nodes or e.v in nodes:
            for key in ((e.u, e.v, e.disp[0], e.disp[1]), (e.v, e.u, -e.disp[0], -e.disp[1])):
                if key not in out or e.weight < out[key]:
                    out[key] = e.weight
    return out


def check_witness(entry, lookup, what: str) -> None:
    """A marked-length witness walks real quotient edges in the cover,
    ends at its start shifted by the class, and sums to the length."""
    states = entry.witness
    h = (entry.cls.a, entry.cls.b)
    if h == (0, 0):
        require(entry.length == 0.0, f"{what}: trivial class at {entry.length!r}")
        return
    require(len(states) >= 2, f"{what}: witness of {h} has {len(states)} states")
    (n0, x0, y0), (n1, x1, y1) = states[0], states[-1]
    require((x0, y0) == (0, 0) and n1 == n0 and (x1, y1) == h, f"{what}: witness of {h} ends at {states[-1]}")
    total = 0.0
    for (u, ux, uy), (v, vx, vy) in zip(states, states[1:]):
        w = lookup.get((u, v, vx - ux, vy - uy))
        require(w is not None, f"{what}: witness of {h} uses a missing edge {u}->{v}")
        total += w
    require(
        close(total, entry.length, 4 * SEARCH_RTOL),
        f"{what}: witness of {h} sums to {total!r}, reported {entry.length!r}",
    )


def witness_nodes(entries) -> set:
    return {node for e in entries for node, _x, _y in e.witness}


# -- lattice polygons ---------------------------------------------------------


def twice_area(vertices) -> int:
    n = len(vertices)
    return sum(
        vertices[i][0] * vertices[(i + 1) % n][1] - vertices[i][1] * vertices[(i + 1) % n][0]
        for i in range(n)
    )


def lattice_counts(vertices) -> tuple[int, int]:
    """(interior, boundary) lattice points of a counterclockwise convex
    polygon, by testing every point of its bounding box."""
    xs = [p[0] for p in vertices]
    ys = [p[1] for p in vertices]
    n = len(vertices)
    edges = [
        (vertices[i], (vertices[(i + 1) % n][0] - vertices[i][0], vertices[(i + 1) % n][1] - vertices[i][1]))
        for i in range(n)
    ]
    interior = boundary = 0
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            zero = False
            for (px, py), (ex, ey) in edges:
                s = ex * (y - py) - ey * (x - px)
                if s < 0:
                    break
                zero = zero or s == 0
            else:
                if zero:
                    boundary += 1
                else:
                    interior += 1
    return interior, boundary


def check_convex(vertices, corners: int, what: str) -> None:
    """Strictly convex, counterclockwise, winding once, `corners` vertices."""
    n = len(vertices)
    require(n == corners, f"{what}: {n} vertices, expected {corners}")
    turn = 0.0
    for i in range(n):
        p, q, r = vertices[i], vertices[(i + 1) % n], vertices[(i + 2) % n]
        e1 = (q[0] - p[0], q[1] - p[1])
        e2 = (r[0] - q[0], r[1] - q[1])
        cross = e1[0] * e2[1] - e1[1] * e2[0]
        require(cross > 0, f"{what}: no strict left turn at vertex {(i + 1) % n}")
        turn += math.atan2(cross, e1[0] * e2[0] + e1[1] * e2[1])
    require(abs(turn - 2 * math.pi) < 1e-6, f"{what}: boundary winds {turn / (2 * math.pi):.3f} times")


def check_polygon_witness(vertices, corners: int, area: Fraction, what: str) -> tuple[int, int]:
    """Convex witness whose lattice-point counts give the reported area."""
    verts = [tuple(v) for v in vertices]
    check_convex(verts, corners, what)
    interior, boundary = lattice_counts(verts)
    require(Fraction(twice_area(verts), 2) == area, f"{what}: shoelace area differs from {area}")
    require(
        Fraction(2 * interior + boundary - 2, 2) == area,
        f"{what}: scan counts ({interior}, {boundary}) do not give area {area}",
    )
    return interior, boundary


def check_symmetric(two_m: int, interior: int, vertices, what: str) -> None:
    require(interior % 2 == 1, f"{what}: interior count {interior} is even")
    verts = [tuple(v) for v in vertices]
    require(set(verts) == {(-x, -y) for x, y in verts}, f"{what}: witness not centrally symmetric")
    if two_m == 2:
        (a, b), _ = verts
        require(math.gcd(a, b) == 1 and interior == 1, f"{what}: digon witness {verts}")
        return
    check_convex(verts, two_m, what)
    got, _b = lattice_counts(verts)
    require(got == interior, f"{what}: witness has {got} interior points, reported {interior}")


# -- multiplicity -------------------------------------------------------------


def reference_groups(spec, budget: int, tol: float):
    """Tie groups of the first `budget` classes: (first value, classes)."""
    groups: list[tuple[float, list]] = []
    for c, v in ranked_classes(spec, budget, primitive=False):
        if groups and v - groups[-1][0] <= tol * max(groups[-1][0], 1.0):
            groups[-1][1].append(c)
        else:
            groups.append((v, [c]))
    return groups


def check_profile(groups, spec, budget: int, f_table: dict, what: str, tol: float = TIE_RTOL) -> None:
    """Profile groups [(length, classes, m, n, f_bound, ok)] against a
    brute-force ranking, and the bound n >= f(m) of the paper."""
    ref = reference_groups(spec, budget, tol)
    require(len(groups) == len(ref), f"{what}: {len(groups)} groups, reference {len(ref)}")
    shorter = 0
    for (length, classes, m, n, f_bound, ok), (v, cls) in zip(groups, ref):
        require(set(classes) == set(cls), f"{what}: group at {v!r} holds {sorted(classes)}, reference {sorted(cls)}")
        require(m == len(cls) and n == shorter, f"{what}: group at {v!r} has (m, n) = ({m}, {n})")
        require(close(length, v, 1e-12), f"{what}: group length {length!r}, reference {v!r}")
        if v == 0.0:
            require(f_bound is None, f"{what}: trivial group carries a bound")
        elif m in f_table:
            require(f_bound == f_table[m], f"{what}: f({m}) = {f_bound}, reference {f_table[m]}")
            require(ok is True and n >= f_bound, f"{what}: n = {n} < f({m}) = {f_bound} for a strictly convex norm")
        shorter += m


def check_sharpness(rep, what: str) -> None:
    """The constructed norm's tie group at the level, by brute-force
    ranking of classes under an own evaluation of the norm."""
    require(rep.passed, f"{what}: report did not pass")
    spec = rep.norm
    count = rep.f_m + rep.m + 3
    groups = reference_groups(spec, count, TIE_RTOL)
    below: list = []
    tie = None
    for v, cls in groups:
        if abs(v - rep.level) <= 1e-6 * max(rep.level, 1.0):
            tie = cls
            break
        below.extend(cls)
    require(tie is not None, f"{what}: no classes at level {rep.level}")
    require(len(tie) == rep.m, f"{what}: {len(tie)} classes at the level, expected m = {rep.m}")
    require(len(below) == rep.f_m, f"{what}: {len(below)} classes below, expected f(m) = {rep.f_m}")
    require(set(tie) == {(c.a, c.b) for c in rep.tie_classes}, f"{what}: tie classes differ")
    require(set(below) == {(c.a, c.b) for c in rep.classes_below}, f"{what}: classes below differ")


# -- convergence report -------------------------------------------------------


def check_convergence(report: dict, spec, ks, what: str) -> None:
    """Convergence report (JSON form) against own norm values and the
    paper's claims: deviations nonnegative, nonincreasing and below 0.05
    at the last stage, and one shared Lipschitz bound."""
    stages = report["stages"]
    require([s["k"] for s in stages] == list(ks), f"{what}: stages {[s['k'] for s in stages]}")
    sups = []
    for s in stages:
        devs = []
        for p in s["pinned"]:
            target = norm_value(spec, *p["class"])
            require(close(p["target"], target, 1e-12), f"{what}: target of {p['class']} is {p['target']!r}")
            require(
                p["estimate"] >= target * (1 - 4 * SEARCH_RTOL),
                f"{what}: estimate {p['estimate']!r} of {p['class']} beats the norm {target!r}",
            )
            dev = p["estimate"] / target - 1.0
            require(close(p["deviation"], dev, 1e-9, 1e-12), f"{what}: deviation of {p['class']}")
            devs.append(dev)
        require(close(s["sup_pinned_deviation"], max(devs), 1e-9, 1e-12), f"{what}: sup deviation at k={s['k']}")
        require(s["hull_sup_deviation"] >= -1e-12, f"{what}: hull gauge below the norm at k={s['k']}")
        require(s["lipschitz_excess"] <= 1e-9, f"{what}: Lipschitz excess {s['lipschitz_excess']!r}")
        sups.append(max(devs))
    for a, b in zip(sups, sups[1:]):
        require(b <= a + 1e-9, f"{what}: sup deviation rose from {a!r} to {b!r}")
    require(sups[-1] < 0.05, f"{what}: final deviation {sups[-1]!r} not below 0.05")
    require(report["monotone"] is True and report["lipschitz_ok"] is True, f"{what}: report flags")
    bound = math.hypot(norm_value(spec, 1, 0), norm_value(spec, 0, 1))
    require(close(report["lipschitz_bound"], bound, 1e-12), f"{what}: Lipschitz bound {report['lipschitz_bound']!r}")


# -- CLI schemas --------------------------------------------------------------


class SchemaValidator:
    """Validates CLI JSON against the repository's schemas/ directory."""

    def __init__(self, schema_dir: Path):
        import jsonschema
        from referencing import Registry, Resource

        self._jsonschema = jsonschema
        self._schemas = {}
        resources = []
        for path in sorted(schema_dir.glob("*.schema.json")):
            contents = json.loads(path.read_text(encoding="utf-8"))
            self._schemas[path.name[: -len(".schema.json")]] = contents
            resources.append((contents["$id"], Resource.from_contents(contents)))
        require(len(self._schemas) > 0, f"no schemas under {schema_dir}")
        self._registry = Registry().with_resources(resources)

    def validate(self, name: str, payload) -> None:
        require(name in self._schemas, f"no schema named {name}")
        validator = self._jsonschema.Draft7Validator(self._schemas[name], registry=self._registry)
        errors = list(validator.iter_errors(payload))
        require(not errors, f"{name} output breaks its schema: {errors[0].message if errors else ''}")
