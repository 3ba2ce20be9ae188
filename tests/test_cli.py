"""CLI surface: spec'd examples, schemas, determinism, and exit codes."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from referencing import Registry, Resource

from stablenorm import cli, cover
from stablenorm.cli import jsonify, main, parse_class, parse_norm
from stablenorm.errors import InvariantError, ValidationError
from stablenorm.norms import Ellipse, PNorm

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"


def run_cli(capsys, *args: str) -> tuple[int, str, str]:
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def registry() -> Registry:
    resources = []
    for path in SCHEMA_DIR.glob("*.schema.json"):
        contents = json.loads(path.read_text(encoding="utf-8"))
        jsonschema.Draft7Validator.check_schema(contents)
        resources.append((contents["$id"], Resource.from_contents(contents)))
    reg = Registry().with_resources(resources)
    assert len(resources) == 11
    return reg


def validate_against(registry: Registry, name: str, payload) -> None:
    schema = json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text(encoding="utf-8"))
    jsonschema.Draft7Validator(schema, registry=registry).validate(payload)


class TestSpecdExamples:
    def test_polygon_min_area_k3(self, capsys):
        code, out, err = run_cli(capsys, "polygon-min-area", "--k", "3")
        assert code == 0 and err == ""
        assert json.loads(out) == {
            "k": 3,
            "area": "1/2",
            "witness": [[0, 0], [1, 0], [0, 1]],
            "certified": True,
        }

    def test_graph_epsilon_two_classes(self, capsys):
        # the two-axis Euclidean graph: competitor (1,1) at combined
        # length 2 against norm sqrt(2)
        code, out, _ = run_cli(capsys, "graph-epsilon", "--norm", "euclidean", "--k", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["zeta"] == 0.5
        assert payload["edge_bound"] == 2
        assert payload["epsilon"] == pytest.approx(2 - math.sqrt(2), abs=1e-12)
        assert payload["theta"] == pytest.approx((2 - math.sqrt(2)) / 4, abs=1e-12)
        assert payload["witness_class"] == [1, 1]

    def test_unprescribed_axis_class_undershoots_its_norm(self, capsys):
        # the k = 2 classes of this ellipse are (1, 1) and (0, 1) and the
        # background is ell_2 = 1.0, so a grid row loop realises (1, 0)
        # at 1.0, below its norm sqrt(1.2); pinned as the code stands
        code, out, _ = run_cli(
            capsys, "stable-norm", "--norm", "ellipse:1.2,-0.95,1", "--k", "2", "--class", "1,0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["graph"]["background"] == 1.0
        assert payload["estimate"] == 1.0
        assert payload["estimate"] < math.sqrt(1.2) == pytest.approx(1.0954451150103321, abs=1e-15)

    def test_graph_epsilon_three_classes(self, capsys):
        # adding the diagonal tightens the gap: (2,1) via (1,0)+(1,1)
        # costs 1+sqrt(2) against norm sqrt(5)
        code, out, _ = run_cli(capsys, "graph-epsilon", "--norm", "euclidean", "--k", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["epsilon"] == pytest.approx(1 + math.sqrt(2) - math.sqrt(5), abs=1e-12)
        assert payload["witness_class"] in ([2, 1], [1, 2])

    def test_multiplicity_hexagonal_budget_10(self, capsys):
        code, out, _ = run_cli(capsys, "multiplicity", "--norm", "hexagonal", "--budget", "10")
        assert code == 0
        groups = json.loads(out)["groups"]
        assert groups[0]["length"] == 0.0
        assert groups[1]["m"] == 3
        assert groups[1]["n"] == 1


class TestDeterminism:
    def test_spectrum_bytes_stable(self, capsys):
        args = ("canyon-spectrum", "--norm", "euclidean", "--k", "2", "--grid-n", "64")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        assert json.loads(first)["spectrum"]["entries"][1]["length"] == 1.0

    def test_enumerate_bytes_stable(self, capsys):
        _, first, _ = run_cli(capsys, "norm-enumerate", "--norm", "pnorm:3", "--count", "12")
        _, second, _ = run_cli(capsys, "norm-enumerate", "--norm", "pnorm:3", "--count", "12")
        assert first == second

    def test_table_no_prune_prints_the_same_bytes(self, capsys, monkeypatch):
        args = ("polygon-min-area", "--k", "3", "--k-max", "8")
        _, capped, _ = run_cli(capsys, *args)
        seen = []
        table = cli.min_area_table

        def spy(*a, **kw):
            seen.append(kw["pruned"])
            return table(*a, **kw)

        monkeypatch.setattr(cli, "min_area_table", spy)
        code, full, err = run_cli(capsys, *args, "--no-prune")
        assert (code, err, seen) == (0, "", [False])
        assert full == capped


SCHEMA_RUNS = [
    ("norm-enumerate", ("--norm", "hexagonal", "--count", "6")),
    ("graph-build", ("--k", "2")),
    ("graph-epsilon", ("--k", "2")),
    ("graph-epsilon", ("--k", "1", "--k-max", "3")),
    ("canyon-spectrum", ("--k", "2", "--grid-n", "64")),
    ("stable-norm", ("--k", "2", "--class", "1,1", "--n-max", "2")),
    ("stable-norm", ("--graph", "uniform", "--grid-n", "8", "--class", "2,1")),
    ("polygon-min-area", ("--k", "4",)),
    ("polygon-min-area", ("--k", "3", "--k-max", "5")),
    ("polygon-symm", ("--two-m", "6", "--prefer-primitive")),
    ("multiplicity", ("--norm", "euclidean", "--budget", "6")),
    ("sharpness", ("--m", "2")),
    ("convergence", ("--ks", "2,3", "--directions", "16", "--n-max", "1")),
]


class TestSchemas:
    @pytest.mark.parametrize("name,flags", SCHEMA_RUNS, ids=lambda v: v if isinstance(v, str) else " ".join(v))
    def test_output_validates(self, registry, capsys, name, flags):
        code, out, err = run_cli(capsys, name, *flags)
        assert code == 0, err
        validate_against(registry, name, json.loads(out))

    def test_norm_payload_validates_alone(self, registry, capsys):
        _, out, _ = run_cli(capsys, "norm-enumerate", "--norm", "ellipse:2,0.5,1")
        validate_against(registry, "norm", json.loads(out)["norm"])


class TestFormats:
    def test_spectrum_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "canyon-spectrum", "--k", "2", "--format", "csv"
        )
        assert code == 0
        lines = out.split("\n")
        assert lines[0] == "a,b,length,multiplicity_group_id"
        assert "\r" not in out
        assert lines[1].startswith("0,0,0.0,")
        assert out.endswith("\n")

    def test_multiplicity_csv_header(self, capsys):
        _, out, _ = run_cli(capsys, "multiplicity", "--budget", "4", "--format", "csv")
        assert out.split("\n")[0] == "position,a,b,length,m,n"

    def test_min_area_table_csv(self, capsys):
        _, out, _ = run_cli(
            capsys, "polygon-min-area", "--k", "3", "--k-max", "4", "--format", "csv"
        )
        rows = [line.split(",") for line in out.strip().split("\n")]
        assert rows[0] == ["k", "A_num", "A_den", "i", "certified"]
        assert rows[1] == ["3", "1", "2", "0", "True"]
        assert rows[2] == ["4", "1", "1", "0", "True"]

    def test_epsilon_table_csv(self, capsys):
        _, out, _ = run_cli(
            capsys, "graph-epsilon", "--k", "1", "--k-max", "3", "--format", "csv"
        )
        rows = [line.split(",") for line in out.strip().split("\n")]
        assert rows[0] == ["k", "zeta", "edge_bound", "epsilon", "theta"]
        assert [r[0] for r in rows[1:]] == ["1", "2", "3"]
        assert rows[1][3] == "inf"
        _, single, _ = run_cli(capsys, "graph-epsilon", "--k", "2", "--format", "csv")
        assert single.split("\n")[1].split(",") == rows[2][1:]

    def test_csv_unavailable_for_graph_build(self, capsys):
        code, out, err = run_cli(capsys, "graph-build", "--k", "2", "--format", "csv")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "validation"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys, "polygon-min-area", "--k", "3", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text(encoding="utf-8"))["area"] == "1/2"

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, where):
        target = tmp_path / "absent" / "x.json" if where == "missing_dir" else tmp_path
        code, out, err = run_cli(capsys, "polygon-min-area", "--k", "3", "--out", str(target))
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "validation" and str(target) in error["message"]


class TestEpsilonTable:
    def test_rows_are_the_single_k_documents(self, capsys):
        _, out, _ = run_cli(capsys, "graph-epsilon", "--norm", "pnorm:3", "--k", "1", "--k-max", "4")
        table = json.loads(out)["table"]
        assert [row["k"] for row in table] == [1, 2, 3, 4]
        for row in table:
            _, single, _ = run_cli(capsys, "graph-epsilon", "--norm", "pnorm:3", "--k", str(row["k"]))
            assert json.loads(single) == row

    def test_k_max_below_k_rejected(self, capsys):
        code, out, err = run_cli(capsys, "graph-epsilon", "--k", "3", "--k-max", "2")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "validation"


class TestScenario:
    def test_scenario_supplies_values(self, capsys, tmp_path):
        f = tmp_path / "s.json"
        f.write_text(json.dumps({"norm": "euclidean", "k": 2}), encoding="utf-8")
        _, from_scenario, _ = run_cli(capsys, "graph-epsilon", "--scenario", str(f))
        _, from_flags, _ = run_cli(capsys, "graph-epsilon", "--norm", "euclidean", "--k", "2")
        assert from_scenario == from_flags

    def test_flags_override_scenario(self, capsys, tmp_path):
        f = tmp_path / "s.json"
        f.write_text(json.dumps({"k": 2}), encoding="utf-8")
        _, out, _ = run_cli(capsys, "graph-build", "--scenario", str(f), "--k", "4")
        assert json.loads(out)["k"] == 4

    def test_scenario_norm_object(self, capsys, tmp_path):
        f = tmp_path / "s.json"
        f.write_text(
            json.dumps({"norm": {"variant": "pnorm", "p": 3.0}, "count": 4}),
            encoding="utf-8",
        )
        _, out, _ = run_cli(capsys, "norm-enumerate", "--scenario", str(f))
        payload = json.loads(out)
        assert payload["norm"]["variant"] == "pnorm"
        assert payload["count"] == 4

    def test_unknown_scenario_key_rejected(self, capsys, tmp_path):
        f = tmp_path / "s.json"
        for name, key in (("graph-build", "grid"), ("graph-build", "seed"), ("stable-norm", "cls")):
            f.write_text(json.dumps({key: 64}), encoding="utf-8")
            code, _, err = run_cli(capsys, name, "--scenario", str(f))
            assert code == 2
            assert f"[{key!r}]" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize(
        "name,scenario",
        [
            ("multiplicity", {"tie_tolerance": "abc"}),
            ("graph-epsilon", {"theta_cap": "x"}),
            ("polygon-min-area", {"coord_bound": "6"}),
            ("sharpness", {"level": "hi"}),
            ("norm-enumerate", {"scale": "big"}),
            ("norm-enumerate", {"scale": True, "count": 3}),
            ("canyon-spectrum", {"bound": "x"}),
            ("canyon-spectrum", {"theta": "x"}),
            ("stable-norm", {"background": "x"}),
            ("convergence", {"ks": 5}),
            ("polygon-symm", {"prefer_primitive": "no"}),
            ("polygon-min-area", {"no_prune": 0}),
            # json writes these as the NaN literal, which json.loads reads back
            ("graph-epsilon", {"theta_cap": math.nan}),
            ("multiplicity", {"tie_tolerance": math.nan}),
        ],
        ids=lambda v: v if isinstance(v, str) else json.dumps(v),
    )
    def test_malformed_value_rejected(self, capsys, tmp_path, name, scenario):
        f = tmp_path / "s.json"
        f.write_text(json.dumps(scenario), encoding="utf-8")
        code, out, err = run_cli(capsys, name, "--scenario", str(f))
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "validation"
        assert next(iter(scenario)) in error["message"]

    def test_class_key_matches_class_flag(self, capsys, tmp_path):
        f = tmp_path / "s.json"
        f.write_text(json.dumps({"class": [2, 1], "k": 3, "n_max": 3}), encoding="utf-8")
        _, from_scenario, _ = run_cli(capsys, "stable-norm", "--scenario", str(f))
        _, from_flags, _ = run_cli(
            capsys, "stable-norm", "--class", "2,1", "--k", "3", "--n-max", "3"
        )
        assert from_scenario == from_flags
        assert json.loads(from_flags)["class"] == [2, 1]

    def test_missing_scenario_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "graph-build", "--scenario", str(tmp_path / "absent.json"))
        assert code == 2
        assert json.loads(err)["error"]["type"] == "validation"

    def test_scenario_must_be_object(self, capsys, tmp_path):
        f = tmp_path / "s.json"
        f.write_text("[1, 2]", encoding="utf-8")
        code, _, err = run_cli(capsys, "norm-enumerate", "--scenario", str(f))
        assert code == 2


class TestExitCodes:
    def test_deep_tube_search_exits_0(self, capsys):
        # edge bound 1200, past the interpreter's recursion limit
        code, out, err = run_cli(capsys, "graph-epsilon", "--norm", "euclidean", "--k", "23")
        assert code == 0 and err == ""
        assert json.loads(out)["edge_bound"] == 1200

    @pytest.mark.parametrize(
        "argv", [("graph-epsilon",), ("stable-norm", "--class", "1,1")], ids=["graph-epsilon", "stable-norm"]
    )
    def test_straight_edged_gauge_exits_2(self, capsys, argv):
        # the diamond's edges are straight, so the tube search finds a
        # gap of -8.9e-16 at (1, 3): no positive theta exists, and both
        # commands name that cause rather than printing theta < 0 or
        # failing on the canyon's hub budget
        diamond = '{"variant":"arcpolygon","vertices":[[1,0],[0,1],[-1,0],[0,-1]],"radius":null,"level":1}'
        code, out, err = run_cli(capsys, argv[0], "--norm", diamond, "--k", "3", *argv[1:])
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "validation"
        assert re.fullmatch(
            r"epsilon -8\.88\d*e-16 is not positive at witness class \(1,3\): "
            r"the norm is not strictly convex there",
            error["message"],
        )

    def test_validation_error_is_structured(self, capsys):
        code, out, err = run_cli(capsys, "norm-enumerate", "--norm", "taxicab")
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "validation"
        assert "taxicab" in error["message"]

    def test_out_of_range_k(self, capsys):
        code, _, err = run_cli(capsys, "polygon-min-area", "--k", "13")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "validation"

    def test_budget_exhaustion_exits_3(self, capsys):
        code, out, err = run_cli(
            capsys, "polygon-min-area", "--k", "8", "--no-prune", "--budget", "1000"
        )
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "search-budget"
        assert error["budget"] == 1000
        assert error["nodes_expanded"] > 1000

    def test_huge_spectrum_bound_exits_3(self, capsys):
        # the candidate box is counted before it is built
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "canyon-spectrum", "--norm", "euclidean", "--k", "3", "--bound", "1e6")
        assert time.perf_counter() - start < 5.0
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "search-budget"
        assert "candidate classes" in error["message"]

    def test_invariant_failure_exits_4(self, capsys, monkeypatch):
        def broken(args):
            raise InvariantError("exact recompute drifted")

        _handler, help_text, params = cli._COMMANDS["norm-enumerate"]
        monkeypatch.setitem(cli._COMMANDS, "norm-enumerate", (broken, help_text, params))
        code, out, err = run_cli(capsys, "norm-enumerate")
        assert code == 4 and out == ""
        assert json.loads(err) == {
            "error": {"type": "invariant", "message": "exact recompute drifted"}
        }

    def test_even_symmetric_count_exits_4(self, capsys, monkeypatch):
        search = cli.min_interior_symmetric

        def even_count(*args, **kwargs):
            return dataclasses.replace(search(*args, **kwargs), interior=8)

        monkeypatch.setattr(cli, "min_interior_symmetric", even_count)
        code, out, err = run_cli(capsys, "polygon-symm", "--two-m", "8")
        assert code == 4 and out == ""
        assert json.loads(err)["error"]["type"] == "invariant"

    def test_nan_in_output_exits_4(self, capsys, monkeypatch):
        def emits_nan(args):
            cli._emit(args, {"value": math.nan})

        _handler, help_text, params = cli._COMMANDS["sharpness"]
        monkeypatch.setitem(cli._COMMANDS, "sharpness", (emits_nan, help_text, params))
        code, out, err = run_cli(capsys, "sharpness")
        assert code == 4 and out == ""
        assert json.loads(err)["error"]["type"] == "invariant"

    @pytest.mark.parametrize(
        "argv",
        [
            ("graph-epsilon", "--theta-cap", "nan"),
            ("multiplicity", "--tie-tolerance", "nan"),
            ("canyon-spectrum", "--bound", "inf"),
            ("norm-enumerate", "--norm", "ellipse:1,0,inf"),
            ("norm-enumerate", "--norm", '{"variant":"ellipse","q":[[1,0],[0,Infinity]]}'),
        ],
        ids=" ".join,
    )
    def test_non_finite_flag_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "validation"
        assert "finite" in error["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("graph-epsilon", "--norm", "euclidean", "--k", "2", "--theta-cap", "-1"),
            ("graph-epsilon", "--norm", "euclidean", "--k", "1", "--theta-cap", "-1"),
            ("graph-epsilon", "--k", "1", "--k-max", "2", "--theta-cap", "0"),
            ("graph-epsilon", "--budget", "-5"),
            ("canyon-spectrum", "--k", "2", "--budget", "0"),
            ("polygon-min-area", "--k", "4", "--budget", "-1"),
            ("polygon-min-area", "--k", "3", "--k-max", "4", "--budget", "0"),
            ("polygon-symm", "--two-m", "6", "--budget", "0"),
        ],
        ids=" ".join,
    )
    def test_malformed_search_setting_exits_2(self, capsys, argv):
        # bad input, not an exhausted search (exit 3) or a printed result
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "validation"

    @pytest.mark.parametrize(
        "argv",
        [
            "polygon-symm --two-m 6 --coord-bound 100000 --budget 10",
            "polygon-min-area --k 4 --coord-bound 100000 --budget 10",
            "polygon-symm --two-m 6 --coord-bound 100000 --budget 1000",
            "polygon-min-area --k 4 --k-max 5 --coord-bound 100000 --budget 2000",
        ],
    )
    def test_huge_coord_bound_exhausts_budget_at_once(self, capsys, argv):
        # the directions within the bound are counted against the budget
        # as they are made, not after all 6e10 of them
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv.split())
        assert time.perf_counter() - start < 2.0
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["type"] == "search-budget"

    def test_huge_class_exits_3_before_its_seed_walk(self, capsys):
        # the seed walk's steps are counted before it is built
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "stable-norm", "--norm", "euclidean", "--k", "3", "--class", "1000000,0", "--n-max", "1"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "search-budget"
        assert "seed of class" in error["message"]

    def test_cover_search_cap_exits_3(self, capsys, monkeypatch):
        # (2, 1) on this stage crawls for about 755,000 pushes under the
        # real cap; a cap of 1,000 stops it at once
        monkeypatch.setattr(cover, "_MAX_COVER_PUSHES", 1_000)
        code, out, err = run_cli(
            capsys, "stable-norm", "--norm", "ellipse:1.2,-0.95,1", "--k", "2", "--class", "2,1", "--n-max", "1"
        )
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "search-budget" and "cover search" in error["message"]
        assert (error["nodes_expanded"], error["budget"]) == (1_001, 1_000)

    def test_table_coord_bound_checked(self, capsys):
        for argv in (("--k", "4"), ("--k", "3", "--k-max", "4")):
            code, out, err = run_cli(capsys, "polygon-min-area", *argv, "--coord-bound", "1")
            assert code == 2 and out == ""
            assert json.loads(err)["error"]["type"] == "validation"

    def test_bad_class_flag(self, capsys):
        code, _, err = run_cli(capsys, "stable-norm", "--class", "one,two")
        assert code == 2

    def test_negative_scale(self, capsys):
        code, _, err = run_cli(capsys, "norm-enumerate", "--scale", "-2")
        assert code == 2


class TestParsing:
    def test_named_and_prefixed_norms(self):
        assert isinstance(parse_norm("euclidean").variant, Ellipse)
        assert isinstance(parse_norm("pnorm:2.5").variant, PNorm)
        e = parse_norm("ellipse:2,0.5,1").variant
        assert (e.q11, e.q12, e.q22) == (2.0, 0.5, 1.0)

    def test_inline_json_norm(self):
        spec = parse_norm('{"variant": "pnorm", "p": 4}')
        assert spec.variant.p == 4.0

    def test_scale_override(self):
        assert parse_norm("euclidean", scale=3.0).scale == 3.0

    @pytest.mark.parametrize("bad", ["ellipse:1,2", "pnorm:x", "l1", "{not json"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValidationError):
            parse_norm(bad)

    def test_parse_class_forms(self):
        assert parse_class("2,-1").as_tuple() == (2, -1)
        assert parse_class([0, 3]).as_tuple() == (0, 3)
        for bad in ("2", "a,b", (1, 2, 3), 5):
            with pytest.raises(ValidationError):
                parse_class(bad)

    def test_jsonify_rationals_and_inf(self):
        out = jsonify({"q": Fraction(3, 4), "e": math.inf, "c": (1, 2)})
        assert out == {"q": "3/4", "e": "inf", "c": [1, 2]}
        assert jsonify(-math.inf) == "-inf"

    def test_jsonify_rejects_nan(self):
        with pytest.raises(InvariantError, match="NaN"):
            jsonify({"groups": [{"length": math.nan}]})


def readme_examples() -> list[str]:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
    return [
        line for block in blocks for line in block.splitlines() if line.startswith("stablenorm ")
    ]


def test_readme_examples_parse_and_cover_every_subcommand():
    parser = cli._build_parser()
    used = {parser.parse_args(shlex.split(line)[1:]).subcommand for line in readme_examples()}
    assert used == set(cli._COMMANDS)


#: Exit code and SHA-256 of stdout of every README example.  A changed
#: digest means changed output bytes: update it only with a change that
#: means to change that output, and say so in CHANGES.md.
README_OUTPUT_DIGESTS = {
    "stablenorm norm-enumerate --norm hexagonal --count 6":
        (0, "af22cff6854d1367b5cd3d6df084ebeac2b8dc84d04278a8c47b41a26fffa239"),
    "stablenorm graph-build --norm euclidean --k 3":
        (0, "915a62a55b7c3f846bd9599515cffe296a8c4b62370b97ddef32eea788efea90"),
    "stablenorm graph-epsilon --norm euclidean --k 2":
        (0, "17537d8f831a2c55e68a2e5ec01949a541be123e0837ad81f8adb05ca949f752"),
    "stablenorm canyon-spectrum --norm euclidean --k 5 --grid-n 128":
        (0, "cf6ac58aee1cdc3ffd046a97eb6d2f57edb53f574412d1165458fd46e6b70a5d"),
    "stablenorm stable-norm --norm euclidean --k 3 --class 2,1 --n-max 3":
        (0, "9fe91aa7fb93a62e11f8b17bf0b6df98eed9e7918b2c9ad4f0473d17ac33ec24"),
    "stablenorm polygon-min-area --k 3":
        (0, "fa953035a5375d86ac61849b90b9c4dcf7bdc09a91fda62ab2f950d8cd4b29e4"),
    "stablenorm polygon-min-area --k 3 --k-max 8 --format csv":
        (0, "3affdcb1698669d56e57d148a9a746e8faa46dd1859dd5e33a1a983a95db4738"),
    "stablenorm polygon-symm --two-m 8":
        (0, "c637f53bba18e0c8eac13984914a7551cb4b139f8551300c8819864d2e1e3e6b"),
    "stablenorm multiplicity --norm hexagonal --budget 10":
        (0, "f7eb71e49e577fb5b8f02e7c4f0f93a8ac2ab570e34a8821d7489f154020ec24"),
    "stablenorm sharpness --m 4":
        (0, "7cc469271110f5f694981eb961b391ee7e30504d27f7e7a2937f6e323a110f89"),
    "stablenorm convergence --ks 2,3,4,5,6 --grid-n 64":
        (0, "8257b7f2384c6df3e6521d5c07e7870ea133f89a1791fe7b5ed7ffa716a5c4ec"),
}


def test_readme_examples_have_their_pinned_output_bytes(capsys):
    assert readme_examples() == list(README_OUTPUT_DIGESTS)
    for line, want in README_OUTPUT_DIGESTS.items():
        code, out, err = run_cli(capsys, *shlex.split(line)[1:])
        assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == want, line
        assert err == "", line


#: Exit code and SHA-256 of stdout of the widest minimal-area tables:
#: every row the CLI takes, 3..12 at the default bound 10, and the
#: uncapped (`--no-prune`) oracle over 3..8 at bound 6.  Neither is a
#: README example, so they are kept apart from `README_OUTPUT_DIGESTS`;
#: the same rule holds for them.
WIDEST_TABLE_DIGESTS = {
    "stablenorm polygon-min-area --k 3 --k-max 12":
        (0, "fea60a9c976ebea9ce87da6c0295848c3981408f265cbc3dbf29c376513835c1"),
    "stablenorm polygon-min-area --k 3 --k-max 8 --no-prune":
        (0, "a42eca047401da34290da4a01a59fdb74d04da60cd7a09916223a8498c5a5834"),
}


@pytest.mark.parametrize("line", list(WIDEST_TABLE_DIGESTS))
def test_widest_area_tables_have_their_pinned_output_bytes(capsys, line):
    code, out, err = run_cli(capsys, *shlex.split(line)[1:])
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == WIDEST_TABLE_DIGESTS[line]
    assert err == ""


_EMPTY = hashlib.sha256(b"").hexdigest()

#: Exit code and SHA-256 of stdout and stderr of the argparse layer:
#: the top-level help, each subcommand's help and the usage errors.
#: Help wraps to the terminal width, so these are taken at COLUMNS=80.
#: They are kept apart from `README_OUTPUT_DIGESTS`; the same rule holds
#: for them.
ARGPARSE_OUTPUT_DIGESTS = {
    "stablenorm --help":
        (0, "e0e585b28a293967d959bd2772461ae70e629484a22531fb784145bee45bfa63", _EMPTY),
    "stablenorm":
        (2, _EMPTY, "5ccbe0ea0d6e747c967a43256335a3ca7b8ce9912ee53a9e5b8800aff1c3e057"),
    "stablenorm bogus":
        (2, _EMPTY, "3f17d023d61a4ed2984eff949c77cf7fed8ad64e5057a5a4ece366fac254a01f"),
    "stablenorm -- graph-build":
        (2, _EMPTY, "59a1230ee2b43cdc08a79f877d5b80d04bc9333f8a53e710196f2f5d5c057e26"),
    "stablenorm graph-build --bogus":
        (2, _EMPTY, "81453941348ab08ee421a3582fe63166e51fcd379860eda6bd3e2a75a7c17e1b"),
    "stablenorm graph-build --k x":
        (2, _EMPTY, "2a7d0c5c3c18e94af209ac28daba733e0a1bdef1e7fa8c14b67ca2571b46165a"),
    "stablenorm graph-build extra":
        (2, _EMPTY, "be1916be69a32db54f142ce6fea985be21864b09a341f7e6739198f28d8ea381"),
    "stablenorm polygon-symm --two-m 8 --no-such":
        (2, _EMPTY, "f33172981de898507cc7b2b4d2de3f5633638eb6a8f69fbd664a737bfa22c3aa"),
    "stablenorm norm-enumerate --help":
        (0, "44ec85e421cbcde029a2a0cb9fb6c2ad6ec632098927f20f543d173954e279f7", _EMPTY),
    "stablenorm graph-build --help":
        (0, "8eb2b8a482a01db0acca25442e039d1fa576c2b9266cfb2e89ee05998b6bfcfa", _EMPTY),
    "stablenorm graph-epsilon --help":
        (0, "c01b21417a75777add79bae77c996d3abea98e8ba0415db3a1c4601e606509c2", _EMPTY),
    "stablenorm canyon-spectrum --help":
        (0, "c93e2c4fa6acfe792d6c6f12b45d56ca079f4dd9668d86a3c2e281ec5829188b", _EMPTY),
    "stablenorm stable-norm --help":
        (0, "426197e86e2e1e253d12ea838d71ea13d74cceeb6d65d67cd56788cd00f21782", _EMPTY),
    "stablenorm polygon-min-area --help":
        (0, "3bbf66a9972f3208bcc60262342d13de68d32f2f6a6de9241049e97419150534", _EMPTY),
    "stablenorm polygon-symm --help":
        (0, "dd5529d4f4c9871d448318706bd9cb8886f10939feef1b5792bfea242d4a2052", _EMPTY),
    "stablenorm multiplicity --help":
        (0, "ea41f31191ba833841769d416f8c5fe5a6770613040a3c8f5fbddee56ae3d79e", _EMPTY),
    "stablenorm sharpness --help":
        (0, "acdff708157905aebe93f8f2cf1f3706bcf247b7e93466a98e21151e6409936d", _EMPTY),
    "stablenorm convergence --help":
        (0, "b138546fd484f95d0e0f944361a77933e6f06d33975176accc0aac4eed23453c", _EMPTY),
}


@pytest.mark.parametrize("line", list(ARGPARSE_OUTPUT_DIGESTS))
def test_argparse_output_has_its_pinned_bytes(capsys, monkeypatch, line):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(shlex.split(line)[1:])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    digests = tuple(hashlib.sha256(s.encode("utf-8")).hexdigest() for s in (captured.out, captured.err))
    assert (code, *digests) == ARGPARSE_OUTPUT_DIGESTS[line]


def test_argparse_pins_cover_every_subcommand_help():
    assert {f"stablenorm {name} --help" for name in cli._COMMANDS} <= set(ARGPARSE_OUTPUT_DIGESTS)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "stablenorm", "polygon-min-area", "--k", "3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["area"] == "1/2"
