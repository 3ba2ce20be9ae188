"""Command-line front end over the library modules.

Every subcommand prints one JSON document to stdout (or CSV with
--format=csv where a flat table exists) and is deterministic: the same
scenario produces the same bytes.  Exact rationals are serialized as
"p/q" strings.  Validation failures exit 2, exhausted search budgets
exit 3 and failed internal consistency checks exit 4, each with a
structured JSON error on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from stablenorm.errors import (
    ConstructionError,
    InvariantError,
    SearchBudgetError,
    ValidationError,
)
from stablenorm.experiments import run_convergence
from stablenorm.lattice_polygons import (
    DEFAULT_SEARCH_BUDGET,
    min_area_convex_kgon,
    min_area_table,
    min_interior_symmetric,
)
from stablenorm.multiplicity import (
    multiplicity_profile,
    profile_csv_rows,
    verify_sharpness,
)
from stablenorm.norms import (
    IntegralClass,
    NormSpec,
    enumerate_classes,
    euclidean,
    hexagonal,
    leading_primitive_classes,
    norm_from_jsonable,
    norm_to_jsonable,
)
from stablenorm.periodic_metric import (
    build_canyon_graph,
    spectrum,
    spectrum_csv_rows,
    stable_norm_estimate,
    uniform_grid,
)
from stablenorm.toral_graph import build_graph, compute_zeta_epsilon_theta

_NAMED_NORMS = {"euclidean": euclidean, "hexagonal": hexagonal}


def parse_norm(text, scale: Optional[float] = None) -> NormSpec:
    """Parse a norm argument.

    Accepts a name (euclidean, hexagonal), pnorm:P, ellipse:q11,q12,q22,
    or an inline JSON object in the norm_from_jsonable shape.
    """
    if isinstance(text, dict):
        spec = norm_from_jsonable(text)
    elif not isinstance(text, str):
        raise ValidationError(f"norm must be a string or object, got {text!r}")
    elif text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"norm JSON does not parse: {exc}") from exc
        spec = norm_from_jsonable(obj)
    elif text in _NAMED_NORMS:
        spec = _NAMED_NORMS[text]()
    elif text.startswith("pnorm:"):
        spec = norm_from_jsonable({"variant": "pnorm", "p": _float(text[6:], "p")})
    elif text.startswith("ellipse:"):
        parts = text[8:].split(",")
        if len(parts) != 3:
            raise ValidationError(f"ellipse norm needs q11,q12,q22, got {text!r}")
        q11, q12, q22 = (_float(p, "ellipse entry") for p in parts)
        spec = norm_from_jsonable({"variant": "ellipse", "q": [[q11, q12], [q12, q22]]})
    else:
        raise ValidationError(
            f"unknown norm {text!r}; use euclidean, hexagonal, pnorm:P, "
            "ellipse:q11,q12,q22, or inline JSON"
        )
    if scale is not None:
        spec = NormSpec(spec.variant, float(scale))
    return spec


def _float(text, what: str) -> float:
    try:
        return float(text)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be a number, got {text!r}") from exc


def _int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def parse_class(text) -> IntegralClass:
    if isinstance(text, (list, tuple)) and len(text) == 2:
        a, b = text
    elif isinstance(text, str):
        parts = text.split(",")
        if len(parts) != 2:
            raise ValidationError(f"class must be 'a,b', got {text!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValidationError(f"class must be two integers, got {text!r}") from exc
    else:
        raise ValidationError(f"class must be 'a,b' or [a, b], got {text!r}")
    return IntegralClass(_int(a, "class entry"), _int(b, "class entry"))


def jsonify(obj):
    """Recursively convert to JSON-ready values.

    Fractions become 'p/q' strings; non-finite floats become 'inf' or
    '-inf' strings, since bare JSON has no spelling for them.
    """
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, IntegralClass):
        return [obj.a, obj.b]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    return obj


def _emit(ns, payload, csv_header=None, csv_rows=None) -> None:
    if ns.format == "csv":
        if csv_header is None:
            raise ValidationError(
                f"subcommand {ns.subcommand!r} has no CSV form; use --format json"
            )
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        for row in csv_rows:
            writer.writerow([jsonify(v) if isinstance(v, Fraction) else v for v in row])
        text = buf.getvalue()
    else:
        text = json.dumps(jsonify(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"
    if ns.out:
        Path(ns.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


class _Args:
    """Flag values merged over scenario values merged over defaults."""

    def __init__(self, ns: argparse.Namespace, scenario: dict, defaults: dict):
        scenario = {("cls" if k == "class" else k): v for k, v in scenario.items()}
        self._ns = ns
        self._scenario = scenario
        self._defaults = defaults
        self.subcommand = ns.subcommand
        self.format = ns.format
        self.out = ns.out
        unknown = set(scenario) - set(defaults)
        if unknown:
            raise ValidationError(
                f"scenario keys {sorted(unknown)} are not accepted by "
                f"{ns.subcommand!r}; allowed: {sorted(defaults)}"
            )

    def __getattr__(self, key):
        v = getattr(self._ns, key, None)
        if v is not None:
            return v
        if key in self._scenario:
            return self._scenario[key]
        return self._defaults[key]


def _norm_of(args) -> NormSpec:
    return parse_norm(args.norm, args.scale)


def _graph_for(args, norm: NormSpec):
    k = _int(args.k, "k")
    classes = leading_primitive_classes(norm, k)
    graph = build_graph(classes)
    ell_k = max(length for _c, length in classes)
    return k, classes, graph, ell_k


def _canyon_for(args, norm: NormSpec):
    k, classes, graph, ell_k = _graph_for(args, norm)
    theta = args.theta
    if theta is None:
        consts = compute_zeta_epsilon_theta(
            graph, norm, ell_k, node_budget=_int(args.budget, "budget")
        )
        theta = consts.theta
    background = args.background if args.background is not None else ell_k
    canyon = build_canyon_graph(
        graph,
        theta=float(theta),
        background_systole=float(background),
        grid_resolution=_int(args.grid_n, "grid N"),
    )
    return k, classes, canyon, ell_k


def _cmd_norm_enumerate(args) -> None:
    norm = _norm_of(args)
    count = _int(args.count, "count")
    res = enumerate_classes(norm, count)
    payload = {
        "norm": norm_to_jsonable(norm),
        "count": count,
        "entries": [{"class": [c.a, c.b], "value": v} for c, v in res.entries],
        "segment_tie_warning": res.segment_tie_warning,
    }
    _emit(args, payload, ("a", "b", "value"), [(c.a, c.b, v) for c, v in res.entries])


def _cmd_graph_build(args) -> None:
    norm = _norm_of(args)
    k, _classes, graph, ell_k = _graph_for(args, norm)
    payload = {
        "norm": norm_to_jsonable(norm),
        "k": k,
        "ell_k": ell_k,
        "graph": graph.to_jsonable(),
    }
    _emit(args, payload)


def _cmd_graph_epsilon(args) -> None:
    norm = _norm_of(args)
    k, _classes, graph, ell_k = _graph_for(args, norm)
    consts = compute_zeta_epsilon_theta(
        graph,
        norm,
        ell_k,
        node_budget=_int(args.budget, "budget"),
        theta_cap=float(args.theta_cap),
    )
    payload = {
        "norm": norm_to_jsonable(norm),
        "k": k,
        "ell_k": ell_k,
        "zeta": consts.zeta,
        "edge_bound": consts.edge_bound,
        "epsilon": consts.epsilon,
        "theta": consts.theta,
        "witness_class": None
        if consts.witness_class is None
        else [consts.witness_class.a, consts.witness_class.b],
        "cycles_checked": consts.cycles_checked,
    }
    _emit(
        args,
        payload,
        ("zeta", "edge_bound", "epsilon", "theta"),
        [(consts.zeta, consts.edge_bound, consts.epsilon, consts.theta)],
    )


def _cmd_canyon_spectrum(args) -> None:
    norm = _norm_of(args)
    k, _classes, canyon, ell_k = _canyon_for(args, norm)
    bound = args.bound if args.bound is not None else ell_k * 1.05
    res = spectrum(canyon, norm_bound=float(bound))
    payload = {
        "norm": norm_to_jsonable(norm),
        "k": k,
        "grid_n": canyon.grid_resolution,
        "theta": canyon.hub_budget,
        "background": canyon.background_systole,
        "bound": float(bound),
        "spectrum": res.to_jsonable(),
    }
    _emit(
        args,
        payload,
        ("a", "b", "length", "multiplicity_group_id"),
        spectrum_csv_rows(res),
    )


def _cmd_stable_norm(args) -> None:
    norm = _norm_of(args)
    h = parse_class(args.cls)
    n_max = _int(args.n_max, "n-max")
    if args.graph == "uniform":
        pg = uniform_grid(_int(args.grid_n, "grid N"))
        graph_desc = {"kind": "uniform", "grid_n": pg.grid_resolution}
    elif args.graph == "canyon":
        _k, _classes, pg, _ell_k = _canyon_for(args, norm)
        graph_desc = {
            "kind": "canyon",
            "k": _k,
            "grid_n": pg.grid_resolution,
            "theta": pg.hub_budget,
            "background": pg.background_systole,
            "norm": norm_to_jsonable(norm),
        }
    else:
        raise ValidationError(f"graph must be canyon or uniform, got {args.graph!r}")
    est = stable_norm_estimate(pg, h, n_max)
    payload = {
        "graph": graph_desc,
        "class": [h.a, h.b],
        "ratios": list(est.ratios),
        "estimate": est.estimate,
        "stable": est.stable,
        "stable_at": est.stable_at,
    }
    _emit(
        args,
        payload,
        ("n", "ratio"),
        [(n + 1, r) for n, r in enumerate(est.ratios)],
    )


def _cmd_polygon_min_area(args) -> None:
    k = _int(args.k, "k")
    budget = _int(args.budget, "budget")
    if args.k_max is not None:
        rows = min_area_table(
            k, _int(args.k_max, "k-max"), coord_bound=args.coord_bound, budget=budget
        )
        payload = {
            "table": [
                {
                    "k": r.k,
                    "area": r.area,
                    "interior": int(r.area + Fraction(2 - r.k, 2)),
                    "witness": [list(v) for v in r.witness.vertices],
                    "certified": r.certified,
                }
                for r in rows
            ]
        }
        _emit(
            args,
            payload,
            ("k", "A_num", "A_den", "i", "certified"),
            [
                (
                    r.k,
                    r.area.numerator,
                    r.area.denominator,
                    int(r.area + Fraction(2 - r.k, 2)),
                    r.certified,
                )
                for r in rows
            ],
        )
        return
    res = min_area_convex_kgon(
        k, coord_bound=args.coord_bound, pruned=not args.no_prune, budget=budget
    )
    payload = {
        "k": res.k,
        "area": res.area,
        "witness": [list(v) for v in res.witness.vertices],
        "certified": res.certified,
    }
    _emit(
        args,
        payload,
        ("k", "A_num", "A_den", "i", "certified"),
        [
            (
                res.k,
                res.area.numerator,
                res.area.denominator,
                int(res.area + Fraction(2 - res.k, 2)),
                res.certified,
            )
        ],
    )


def _cmd_polygon_symm(args) -> None:
    two_m = _int(args.two_m, "two-m")
    res = min_interior_symmetric(
        two_m,
        coord_bound=_int(args.coord_bound, "coord-bound"),
        prefer_primitive=args.prefer_primitive,
        budget=_int(args.budget, "budget"),
    )
    payload = {
        "two_m": res.two_m,
        "interior": res.interior,
        "f_of_m": (res.interior + 1) // 2,
        "witness": [list(v) for v in res.witness_vertices],
        "all_primitive": res.all_primitive,
        "certified": res.certified,
    }
    _emit(
        args,
        payload,
        ("two_m", "interior", "f_of_m", "all_primitive", "certified"),
        [(res.two_m, res.interior, (res.interior + 1) // 2, res.all_primitive, res.certified)],
    )


def _cmd_multiplicity(args) -> None:
    norm = _norm_of(args)
    profile = multiplicity_profile(
        norm,
        class_budget=_int(args.budget, "budget"),
        tie_tolerance=args.tie_tolerance,
    )
    payload = {"norm": norm_to_jsonable(norm), **profile.to_jsonable()}
    _emit(
        args,
        payload,
        ("position", "a", "b", "length", "m", "n"),
        profile_csv_rows(profile),
    )


def _cmd_sharpness(args) -> None:
    rep = verify_sharpness(_int(args.m, "m"), level=float(args.level))
    _emit(args, {**rep.to_jsonable(), "norm": norm_to_jsonable(rep.norm)})


def _cmd_convergence(args) -> None:
    ks = args.ks
    if isinstance(ks, str):
        try:
            ks = tuple(int(p) for p in ks.split(","))
        except ValueError as exc:
            raise ValidationError(f"ks must be comma-separated integers, got {args.ks!r}") from exc
    norm = parse_norm(args.norm, args.scale) if args.norm is not None else None
    rep = run_convergence(
        norm=norm,
        ks=tuple(ks),
        grid_resolution=_int(args.grid_n, "grid N"),
        directions=_int(args.directions, "directions"),
        n_max=_int(args.n_max, "n-max"),
    )
    _emit(
        args,
        rep.to_jsonable(),
        ("k", "sup_pinned_deviation", "hull_sup_deviation", "lipschitz_excess"),
        [
            (s.k, s.sup_pinned_deviation, s.hull_sup_deviation, s.lipschitz_excess)
            for s in rep.stages
        ],
    )


_HANDLERS = {
    "norm-enumerate": (
        _cmd_norm_enumerate,
        {"norm": "euclidean", "scale": None, "count": 10},
    ),
    "graph-build": (_cmd_graph_build, {"norm": "euclidean", "scale": None, "k": 3}),
    "graph-epsilon": (
        _cmd_graph_epsilon,
        {"norm": "euclidean", "scale": None, "k": 3, "budget": 10_000_000, "theta_cap": 0.25},
    ),
    "canyon-spectrum": (
        _cmd_canyon_spectrum,
        {
            "norm": "euclidean",
            "scale": None,
            "k": 3,
            "grid_n": 64,
            "theta": None,
            "background": None,
            "bound": None,
            "budget": 10_000_000,
        },
    ),
    "stable-norm": (
        _cmd_stable_norm,
        {
            "norm": "euclidean",
            "scale": None,
            "k": 3,
            "grid_n": 64,
            "theta": None,
            "background": None,
            "budget": 10_000_000,
            "cls": "1,1",
            "n_max": 3,
            "graph": "canyon",
        },
    ),
    "polygon-min-area": (
        _cmd_polygon_min_area,
        {
            "k": 3,
            "k_max": None,
            "coord_bound": None,
            "no_prune": False,
            "budget": DEFAULT_SEARCH_BUDGET,
        },
    ),
    "polygon-symm": (
        _cmd_polygon_symm,
        {
            "two_m": 6,
            "coord_bound": 6,
            "prefer_primitive": False,
            "budget": DEFAULT_SEARCH_BUDGET,
        },
    ),
    "multiplicity": (
        _cmd_multiplicity,
        {"norm": "euclidean", "scale": None, "budget": 10, "tie_tolerance": None},
    ),
    "sharpness": (_cmd_sharpness, {"m": 3, "level": 1.0}),
    "convergence": (
        _cmd_convergence,
        {
            "norm": None,
            "scale": None,
            "ks": "2,3,4,5,6",
            "grid_n": 64,
            "directions": 64,
            "n_max": 2,
        },
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablenorm",
        description="Marked length spectra of periodic graphs and the "
        "lattice-polygon bounds on their multiplicities.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, help_text, *flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write output to this file")
        p.add_argument("--scenario", default=None, help="JSON file with parameter values")
        for args, kwargs in flags:
            p.add_argument(*args, **kwargs)
        return p

    norm_flags = [
        (("--norm",), {"default": None, "help": "euclidean | hexagonal | pnorm:P | ellipse:q11,q12,q22 | inline JSON"}),
        (("--scale",), {"type": float, "default": None}),
    ]
    add("norm-enumerate", "rank integral classes by norm value", *norm_flags,
        (("--count",), {"type": int, "default": None}))
    add("graph-build", "toral geodesic graph of the leading k primitive classes", *norm_flags,
        (("--k",), {"type": int, "default": None}))
    add("graph-epsilon", "corridor constants zeta, epsilon, theta", *norm_flags,
        (("--k",), {"type": int, "default": None}),
        (("--budget",), {"type": int, "default": None}),
        (("--theta-cap",), {"type": float, "default": None, "dest": "theta_cap"}))
    add("canyon-spectrum", "marked spectrum of the canyon discretization", *norm_flags,
        (("--k",), {"type": int, "default": None}),
        (("--grid-n",), {"type": int, "default": None, "dest": "grid_n"}),
        (("--theta",), {"type": float, "default": None}),
        (("--background",), {"type": float, "default": None}),
        (("--bound",), {"type": float, "default": None}),
        (("--budget",), {"type": int, "default": None}))
    add("stable-norm", "stable norm estimate of one class", *norm_flags,
        (("--k",), {"type": int, "default": None}),
        (("--grid-n",), {"type": int, "default": None, "dest": "grid_n"}),
        (("--theta",), {"type": float, "default": None}),
        (("--background",), {"type": float, "default": None}),
        (("--budget",), {"type": int, "default": None}),
        (("--class",), {"default": None, "dest": "cls", "help": "homology class a,b"}),
        (("--n-max",), {"type": int, "default": None, "dest": "n_max"}),
        (("--graph",), {"choices": ("canyon", "uniform"), "default": None}))
    add("polygon-min-area", "minimal area of a convex lattice k-gon",
        (("--k",), {"type": int, "default": None}),
        (("--k-max",), {"type": int, "default": None, "dest": "k_max"}),
        (("--coord-bound",), {"type": int, "default": None, "dest": "coord_bound"}),
        (("--no-prune",), {"action": "store_const", "const": True, "default": None, "dest": "no_prune"}),
        (("--budget",), {"type": int, "default": None}))
    add("polygon-symm", "minimal interior count of a symmetric convex 2m-gon",
        (("--two-m",), {"type": int, "default": None, "dest": "two_m"}),
        (("--coord-bound",), {"type": int, "default": None, "dest": "coord_bound"}),
        (("--prefer-primitive",), {"action": "store_const", "const": True, "default": None, "dest": "prefer_primitive"}),
        (("--budget",), {"type": int, "default": None}))
    add("multiplicity", "length spectrum grouped by ties, with lower bounds", *norm_flags,
        (("--budget",), {"type": int, "default": None}),
        (("--tie-tolerance",), {"type": float, "default": None, "dest": "tie_tolerance"}))
    add("sharpness", "certify a norm attaining the multiplicity bound",
        (("--m",), {"type": int, "default": None}),
        (("--level",), {"type": float, "default": None}))
    add("convergence", "canyon stable norms approaching their norm", *norm_flags,
        (("--ks",), {"default": None, "help": "comma-separated stage sizes"}),
        (("--grid-n",), {"type": int, "default": None, "dest": "grid_n"}),
        (("--directions",), {"type": int, "default": None}),
        (("--n-max",), {"type": int, "default": None, "dest": "n_max"}))
    return parser


def _load_scenario(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read scenario file {path!r}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"scenario file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"scenario must be a JSON object, got {type(obj).__name__}")
    return obj


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    handler, defaults = _HANDLERS[ns.subcommand]
    try:
        scenario = _load_scenario(ns.scenario)
        handler(_Args(ns, scenario, defaults))
    except (ValidationError, ConstructionError) as exc:
        _fail({"type": "validation", "message": str(exc)})
        return 2
    except SearchBudgetError as exc:
        _fail(
            {
                "type": "search-budget",
                "message": str(exc),
                "nodes_expanded": exc.nodes_expanded,
                "budget": exc.budget,
            }
        )
        return 3
    except InvariantError as exc:
        _fail({"type": "invariant", "message": str(exc)})
        return 4
    return 0


def _fail(error: dict) -> None:
    sys.stderr.write(json.dumps({"error": error}, sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(main())
