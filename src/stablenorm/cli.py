"""Command-line front end over the library modules.

Every subcommand prints one JSON document to stdout (or CSV with
--format=csv where a flat table exists) and is deterministic: the same
scenario produces the same bytes.  Exact rationals are serialized as
"p/q" strings.  Validation failures exit 2, exhausted search budgets
exit 3 and failed internal consistency checks exit 4, each with a
structured JSON error on stderr.

Parameters can also come from a JSON scenario file (--scenario); flags
win over it.  Its keys are the flag names with underscores (grid_n,
n_max, class) and its values are checked like the flags, so an unknown
key or a bad value exits 2 as well.

A call builds the argument parser of its own subcommand only.  A call
that names none (no arguments, --help, an unknown name) builds all of
them, since the top-level help and its errors list every subcommand.
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
    if isinstance(text, bool):
        raise ValidationError(f"{what} must be a number, got {text!r}")
    try:
        value = float(text)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise ValidationError(f"{what} must be finite, got {text!r}")
    return value


def _int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def _bool(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"{what} must be true or false, got {value!r}")
    return value


def _ks(value, what: str) -> tuple[int, ...]:
    if isinstance(value, str):
        try:
            return tuple(int(p) for p in value.split(","))
        except ValueError as exc:
            raise ValidationError(
                f"{what} must be comma-separated integers, got {value!r}"
            ) from exc
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be 'a,b,...' or a list of integers, got {value!r}")
    return tuple(_int(v, f"{what} entry") for v in value)


_GRAPHS = ("canyon", "uniform")


def _graph(value, what: str) -> str:
    if value not in _GRAPHS:
        raise ValidationError(f"{what} must be canyon or uniform, got {value!r}")
    return value


def _norm_text(value, what: str):
    # parse_norm checks the value once the scale is known
    return value


def _class(value, what: str) -> IntegralClass:
    return parse_class(value)


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

    Fractions become 'p/q' strings; infinite floats become 'inf' or
    '-inf' strings, since bare JSON has no spelling for them.  A NaN
    has no meaning in any output and raises InvariantError.
    """
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, IntegralClass):
        return [obj.a, obj.b]
    if isinstance(obj, float) and not math.isfinite(obj):
        if math.isnan(obj):
            raise InvariantError("a computed value is NaN")
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
        try:
            Path(ns.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ValidationError(f"cannot write output file {ns.out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _norm_of(args) -> NormSpec:
    return parse_norm(args.norm, args.scale)


def _graph_for(k: int, norm: NormSpec):
    classes = leading_primitive_classes(norm, k)
    return build_graph(classes), max(length for _c, length in classes)


def _canyon_for(args, norm: NormSpec):
    graph, ell_k = _graph_for(args.k, norm)
    theta = args.theta
    if theta is None:
        theta = compute_zeta_epsilon_theta(graph, norm, ell_k, node_budget=args.budget).theta
    background = ell_k if args.background is None else args.background
    canyon = build_canyon_graph(graph, theta=theta, background_systole=background, grid_resolution=args.grid_n)
    return canyon, ell_k, background


def _cmd_norm_enumerate(args) -> None:
    norm = _norm_of(args)
    res = enumerate_classes(norm, args.count)
    payload = {
        "norm": norm_to_jsonable(norm),
        "count": args.count,
        "entries": [{"class": c, "value": v} for c, v in res.entries],
        "segment_tie_warning": res.segment_tie_warning,
    }
    _emit(args, payload, ("a", "b", "value"), [(c.a, c.b, v) for c, v in res.entries])


def _cmd_graph_build(args) -> None:
    norm = _norm_of(args)
    graph, ell_k = _graph_for(args.k, norm)
    payload = {
        "norm": norm_to_jsonable(norm),
        "k": args.k,
        "ell_k": ell_k,
        "graph": graph.to_jsonable(),
    }
    _emit(args, payload)


def _cmd_graph_epsilon(args) -> None:
    norm = _norm_of(args)
    k_max = args.k if args.k_max is None else args.k_max
    if k_max < args.k:
        raise ValidationError(f"k_max must be at least k, got {args.k}..{k_max}")
    rows = []
    for k in range(args.k, k_max + 1):
        graph, ell_k = _graph_for(k, norm)
        consts = compute_zeta_epsilon_theta(
            graph, norm, ell_k, node_budget=args.budget, theta_cap=args.theta_cap
        )
        rows.append({
            "norm": norm_to_jsonable(norm),
            "k": k,
            "ell_k": ell_k,
            "zeta": consts.zeta,
            "edge_bound": consts.edge_bound,
            "epsilon": consts.epsilon,
            "theta": consts.theta,
            "witness_class": consts.witness_class,
            "cycles_checked": consts.cycles_checked,
        })
    header = ("k", "zeta", "edge_bound", "epsilon", "theta")
    csv_rows = [tuple(r[key] for key in header) for r in rows]
    if args.k_max is None:
        # the single-k document and its CSV carry no k column
        payload, header, csv_rows = rows[0], header[1:], [row[1:] for row in csv_rows]
    else:
        payload = {"table": rows}
    _emit(args, payload, header, csv_rows)


def _cmd_canyon_spectrum(args) -> None:
    norm = _norm_of(args)
    canyon, ell_k, background = _canyon_for(args, norm)
    bound = ell_k * 1.05 if args.bound is None else args.bound
    res = spectrum(canyon, norm_bound=bound)
    payload = {
        "norm": norm_to_jsonable(norm),
        "k": args.k,
        "grid_n": canyon.grid.n,
        "theta": canyon.hub_budget,
        "background": background,
        "bound": bound,
        "spectrum": res.to_jsonable(),
    }
    _emit(args, payload, ("a", "b", "length", "multiplicity_group_id"), spectrum_csv_rows(res))


def _cmd_stable_norm(args) -> None:
    norm = _norm_of(args)
    h = getattr(args, "class")
    if args.graph == "uniform":
        pg = uniform_grid(args.grid_n)
        graph_desc = {"kind": "uniform", "grid_n": pg.grid.n}
    else:
        pg, _ell_k, background = _canyon_for(args, norm)
        graph_desc = {
            "kind": "canyon",
            "k": args.k,
            "grid_n": pg.grid.n,
            "theta": pg.hub_budget,
            "background": background,
            "norm": norm_to_jsonable(norm),
        }
    est = stable_norm_estimate(pg, h, args.n_max)
    payload = {
        "graph": graph_desc,
        "class": h,
        "ratios": est.ratios,
        "estimate": est.estimate,
        "stable": est.stable,
        "stable_at": est.stable_at,
    }
    _emit(args, payload, ("n", "ratio"), [(n + 1, r) for n, r in enumerate(est.ratios)])


def _cmd_polygon_min_area(args) -> None:
    if args.k_max is None:
        results = [
            min_area_convex_kgon(
                args.k, coord_bound=args.coord_bound, pruned=not args.no_prune, budget=args.budget
            )
        ]
    else:
        results = min_area_table(
            args.k,
            args.k_max,
            coord_bound=args.coord_bound,
            pruned=not args.no_prune,
            budget=args.budget,
        )
    rows = [
        {
            "k": r.k,
            "area": r.area,
            "interior": int(r.area + Fraction(2 - r.k, 2)),
            "witness": r.witness.vertices,
            "certified": r.certified,
        }
        for r in results
    ]
    csv_rows = [
        (r["k"], r["area"].numerator, r["area"].denominator, r["interior"], r["certified"])
        for r in rows
    ]
    if args.k_max is None:
        del rows[0]["interior"]  # the single-k document has no interior count
        payload = rows[0]
    else:
        payload = {"table": rows}
    _emit(args, payload, ("k", "A_num", "A_den", "i", "certified"), csv_rows)


def _cmd_polygon_symm(args) -> None:
    res = min_interior_symmetric(
        args.two_m,
        coord_bound=args.coord_bound,
        prefer_primitive=args.prefer_primitive,
        budget=args.budget,
    )
    f_of_m = res.f
    payload = {
        "two_m": res.two_m,
        "interior": res.interior,
        "f_of_m": f_of_m,
        "witness": res.witness_vertices,
        "all_primitive": res.all_primitive,
        "certified": res.certified,
    }
    _emit(
        args,
        payload,
        ("two_m", "interior", "f_of_m", "all_primitive", "certified"),
        [(res.two_m, res.interior, f_of_m, res.all_primitive, res.certified)],
    )


def _cmd_multiplicity(args) -> None:
    norm = _norm_of(args)
    profile = multiplicity_profile(norm, class_budget=args.budget, tie_tolerance=args.tie_tolerance)
    payload = {"norm": norm_to_jsonable(norm), **profile.to_jsonable()}
    _emit(args, payload, ("position", "a", "b", "length", "m", "n"), profile_csv_rows(profile))


def _cmd_sharpness(args) -> None:
    rep = verify_sharpness(args.m, level=args.level)
    _emit(args, {**rep.to_jsonable(), "norm": norm_to_jsonable(rep.norm)})


def _cmd_convergence(args) -> None:
    rep = run_convergence(
        norm=None if args.norm is None else _norm_of(args),
        ks=args.ks,
        grid_resolution=args.grid_n,
        directions=args.directions,
        n_max=args.n_max,
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


# Each subcommand: (handler, help line, parameters).  A parameter is
# (scenario key, converter, default); its flag is the key with dashes.
_NORM = (("norm", _norm_text, "euclidean"), ("scale", _float, None))
_GRAPH = (*_NORM, ("k", _int, 3))
_TUBE_BUDGET = ("budget", _int, 10_000_000)
_CANYON = (*_GRAPH, ("grid_n", _int, 64), ("theta", _float, None),
           ("background", _float, None), _TUBE_BUDGET)
_COMMANDS = {
    "norm-enumerate": (
        _cmd_norm_enumerate,
        "rank integral classes by norm value",
        (*_NORM, ("count", _int, 10)),
    ),
    "graph-build": (
        _cmd_graph_build,
        "toral geodesic graph of the leading k primitive classes",
        _GRAPH,
    ),
    "graph-epsilon": (
        _cmd_graph_epsilon,
        "corridor constants zeta, epsilon, theta",
        (*_GRAPH, _TUBE_BUDGET, ("theta_cap", _float, 0.25), ("k_max", _int, None)),
    ),
    "canyon-spectrum": (
        _cmd_canyon_spectrum,
        "marked spectrum of the canyon discretization",
        (*_CANYON, ("bound", _float, None)),
    ),
    "stable-norm": (
        _cmd_stable_norm,
        "stable norm estimate of one class",
        (*_CANYON, ("class", _class, "1,1"), ("n_max", _int, 3), ("graph", _graph, "canyon")),
    ),
    "polygon-min-area": (
        _cmd_polygon_min_area,
        "minimal area of a convex lattice k-gon",
        (("k", _int, 3), ("k_max", _int, None), ("coord_bound", _int, None),
         ("no_prune", _bool, False), ("budget", _int, DEFAULT_SEARCH_BUDGET)),
    ),
    "polygon-symm": (
        _cmd_polygon_symm,
        "minimal interior count of a symmetric convex 2m-gon",
        (("two_m", _int, 6), ("coord_bound", _int, 6), ("prefer_primitive", _bool, False),
         ("budget", _int, DEFAULT_SEARCH_BUDGET)),
    ),
    "multiplicity": (
        _cmd_multiplicity,
        "length spectrum grouped by ties, with lower bounds",
        (*_NORM, ("budget", _int, 10), ("tie_tolerance", _float, None)),
    ),
    "sharpness": (
        _cmd_sharpness,
        "certify a norm attaining the multiplicity bound",
        (("m", _int, 3), ("level", _float, 1.0)),
    ),
    "convergence": (
        _cmd_convergence,
        "canyon stable norms approaching their norm",
        (("norm", _norm_text, None), ("scale", _float, None), ("ks", _ks, "2,3,4,5,6"),
         ("grid_n", _int, 64), ("directions", _int, 64), ("n_max", _int, 2)),
    ),
}

# argparse settings of a flag, by the converter of its parameter
_FLAG_KWARGS = {
    _int: {"type": int},
    _float: {"type": float},
    _bool: {"action": "store_const", "const": True},
    _graph: {"choices": _GRAPHS},
    _norm_text: {"help": "euclidean | hexagonal | pnorm:P | ellipse:q11,q12,q22 | inline JSON"},
    _class: {"help": "homology class a,b"},
    _ks: {"help": "comma-separated stage sizes"},
}


def _build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser for `argv`: only its subcommand's parser when `argv`
    starts with a subcommand name, else every subcommand's parser, which
    the top-level help and the missing or unknown subcommand errors read."""
    parser = argparse.ArgumentParser(
        prog="stablenorm",
        description="Marked length spectra of periodic graphs and the "
        "lattice-polygon bounds on their multiplicities.",
    )
    if argv and argv[0] in _COMMANDS:
        # the usage line still names every subcommand, as argparse's
        # default metavar does when all of them are added
        names, metavar = (argv[0],), "{" + ",".join(_COMMANDS) + "}"
    else:
        names, metavar = tuple(_COMMANDS), None
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar=metavar)
    for name in names:
        _handler, help_text, params = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write output to this file")
        p.add_argument("--scenario", default=None, help="JSON file with parameter values")
        for key, convert, _default in params:
            p.add_argument("--" + key.replace("_", "-"), dest=key, **_FLAG_KWARGS[convert])
    return parser


def _resolve(ns: argparse.Namespace, scenario: dict, params) -> None:
    """Set each parameter on `ns` to its flag, else its scenario value,
    else its default, through its converter; a None default may stay None."""
    keys = sorted(key for key, _convert, _default in params)
    unknown = set(scenario) - set(keys)
    if unknown:
        raise ValidationError(
            f"scenario keys {sorted(unknown)} are not accepted by "
            f"{ns.subcommand!r}; allowed: {keys}"
        )
    for key, convert, default in params:
        value = getattr(ns, key)
        if value is None:
            value = scenario.get(key, default)
        if value is not None or default is not None:
            value = convert(value, key)
        setattr(ns, key, value)


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
    if argv is None:
        argv = sys.argv[1:]
    ns = _build_parser(argv).parse_args(argv)
    handler, _help, params = _COMMANDS[ns.subcommand]
    try:
        _resolve(ns, _load_scenario(ns.scenario), params)
        handler(ns)
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
