#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each must reject a wrong value.

    python3 perfbench/selftest.py

Runs one pass of every workload (seed 1, about 40 s in all), confirms
that the real outputs pass every check, then plants one wrong value at
a time (a corridor length one ulp off, an area off by 1/2, epsilon
scaled by 1.01, a witness with one edge dropped, ...) and confirms that
the workload's checks report it.  Also confirms that BENCHMARK.json
names exactly the metrics the benchmark reports.  Exits 1 on any miss.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

E2E = ("wall_s", "setup_s", "peak_rss_mib", "op_p50_ms", "slowest_op_s")


def _ulp_up(x: float) -> float:
    return math.nextafter(x, math.inf)


# Each mutation plants one wrong value in a pass's outputs and returns
# a callable that puts the right value back.


def _swap(container, key, value):
    old = container[key]
    container[key] = value
    return lambda: container.__setitem__(key, old)


def _tube_case(out, small: bool) -> int:
    for i, (_n, _k, _cl, _g, tc) in enumerate(out):
        if math.isfinite(tc.epsilon) and (tc.edge_bound <= 6) == small:
            return i
    raise LookupError("no such case")


def tube_epsilon(small: bool):
    def plant(inp, out):
        i = _tube_case(out, small)
        n, k, cl, g, tc = out[i]
        return _swap(out, i, (n, k, cl, g, replace(tc, epsilon=tc.epsilon * 1.01)))

    return plant


def tube_witness_drop(inp, out):
    i = _tube_case(out, small=False)
    n, k, cl, g, tc = out[i]
    short = type(tc.witness)(tc.witness.steps[:-1])
    return _swap(out, i, (n, k, cl, g, replace(tc, witness=short)))


def tube_class_swap(inp, out):
    i = next(j for j, case in enumerate(out) if case[1] == 4)
    n, k, cl, g, tc = out[i]
    return _swap(out, i, (n, k, [cl[0], cl[1], cl[3], cl[2]], g, tc))


def canyon_corridor_ulp(inp, out):
    sweep = out["sweeps"]["e3"]
    return _swap(sweep, (1, 0), replace(sweep[(1, 0)], length=_ulp_up(sweep[(1, 0)].length)))


def canyon_spectrum_ulp(inp, out):
    res = out["spectrum"]
    entries = list(res.entries)
    i = next(j for j, e in enumerate(entries) if (e.cls.a, e.cls.b) == (1, 0))
    entries[i] = replace(entries[i], length=_ulp_up(entries[i].length))
    return _swap(out, "spectrum", replace(res, entries=tuple(entries)))


def canyon_witness_drop(inp, out):
    e = out["probes"][0]
    return _swap(out["probes"], 0, replace(e, witness=e.witness[:1] + e.witness[2:]))


def canyon_grid_off(inp, out):
    sweep = out["sweeps"]["grid"]
    return _swap(sweep, (1, 1), replace(sweep[(1, 1)], length=sweep[(1, 1)].length + 1 / 16))


def canyon_subadditivity(inp, out):
    sweep = out["sweeps"]["h4"]
    return _swap(sweep, (2, 3), replace(sweep[(2, 3)], length=2 * sweep[(2, 3)].length))


def canyon_cycle_drop(inp, out):
    i = next(j for j, (h, _f) in enumerate(out["cycles"]) if h == (1, 1))
    h, (cyc, length) = out["cycles"][i]
    return _swap(out["cycles"], i, (h, (type(cyc)(cyc.steps[1:]), length)))


def poly_area_half(inp, out):
    rows = out["table"]
    return _swap(rows, 2, replace(rows[2], area=rows[2].area + Fraction(1, 2)))


def poly_oracle_half(inp, out):
    return _swap(out["oracle"], 6, replace(out["oracle"][6], area=out["oracle"][6].area - Fraction(1, 2)))


def poly_pick_off(inp, out):
    return _swap(out["picks"], 0, replace(out["picks"][0], interior=out["picks"][0].interior + 1))


def poly_symmetric_off(inp, out):
    res = out["symmetric"][8]
    return _swap(out["symmetric"], 8, replace(res, interior=res.interior + 2))


def poly_profile_shift(inp, out):
    i, b, prof = out["profiles"][0]
    groups = list(prof.groups)
    groups[1] = replace(groups[1], shorter_count=groups[1].shorter_count + 1)
    return _swap(out["profiles"], 0, (i, b, replace(prof, groups=tuple(groups))))


def poly_sharpness_drop(inp, out):
    rep = out["sharpness"][3]
    return _swap(out["sharpness"], 3, replace(rep, tie_classes=rep.tie_classes[:-1]))


def _cli_json(label, edit):
    def plant(inp, out):
        code, text, err = out[label]
        payload = json.loads(text)
        edit(payload)
        return _swap(out, label, (code, json.dumps(payload, sort_keys=True, indent=2) + "\n", err))

    return plant


def _bump_corridor(p):
    entry = next(e for e in p["spectrum"]["entries"] if e["class"] == [1, 0])
    entry["length"] = _ulp_up(entry["length"])


def cli_table_half(inp, out):
    code, text, err = out["polygon-min-area-table"]
    return _swap(out, "polygon-min-area-table", (code, text.replace("\n5,5,2,", "\n5,3,1,"), err))


# (label, planted fault, a phrase the check that should catch it reports)
MUTATIONS = {
    "tube-panel": [
        ("epsilon x1.01, edge bound <= 6", tube_epsilon(True), "unpruned enumeration"),
        ("epsilon x1.01, edge bound > 6", tube_epsilon(False), "witness gives"),
        ("tube witness with one edge dropped", tube_witness_drop, "does not continue"),
        ("leading classes out of order", tube_class_swap, "box ranking"),
    ],
    "canyon-queries": [
        ("corridor length one ulp off", canyon_corridor_ulp, "e3: corridor (1, 0) at"),
        ("spectrum corridor length one ulp off", canyon_spectrum_ulp, "spectrum: corridor (1, 0) at"),
        ("cover witness with one edge dropped", canyon_witness_drop, "missing edge"),
        ("grid length off the closed form", canyon_grid_off, "closed form"),
        ("subadditivity broken", canyon_subadditivity, "h4: f(2, 3) > f"),
        ("minimal cycle with one edge dropped", canyon_cycle_drop, "does not continue"),
    ],
    "polygon-tables": [
        ("table area off by 1/2", poly_area_half, "min_area_table: A(5) = 3"),
        ("oracle area off by 1/2", poly_oracle_half, "unpruned: A(6) = 5/2"),
        ("pick interior count off by one", poly_pick_off, "scan (Fraction"),
        ("symmetric interior off by two", poly_symmetric_off, "interior points, reported 9"),
        ("profile shorter count off by one", poly_profile_shift, "has (m, n)"),
        ("sharpness tie class dropped", poly_sharpness_drop, "tie classes differ"),
    ],
    "cli-examples": [
        ("CLI output changed between calls", _cli_json("multiplicity", lambda p: p.__setitem__("source", "x")), "bytes differ"),
        ("CLI corridor length one ulp off", _cli_json("canyon-spectrum", _bump_corridor), "canyon-spectrum: corridor (1, 0)"),
        ("CLI output missing a required key", _cli_json("polygon-symm", lambda p: p.pop("certified")), "breaks its schema"),
        ("CLI epsilon x1.01", _cli_json("graph-epsilon", lambda p: p.__setitem__("epsilon", 1.01 * p["epsilon"])), "unpruned"),
        ("CLI table area off", cli_table_half, "table: A(5)"),
    ],
}


def _problems(wl, inp, out, refs) -> list[tuple[str, str]]:
    ck = W.Checker()
    wl.check(inp, out, refs, ck)
    return [(k, m) for k, m in ck.problems if k != W.KNOWN_FAULT]


def check_manifest() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    misses = []
    if tuple(m["name"] for m in spec["end_to_end"]) != E2E:
        misses.append("BENCHMARK.json end_to_end names differ from the reported metrics")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != W.PER_LAYER_UNITS:
        misses.append("BENCHMARK.json per_layer names or units differ from the reported metrics")
    if [w["name"] for w in spec["workloads"]] != list(W.WORKLOADS):
        misses.append("BENCHMARK.json workloads differ from the benchmark's")
    return misses


def main() -> int:
    misses = check_manifest()
    for name, cls in W.WORKLOADS.items():
        wl = cls()
        r = W.Runner()
        inp = wl.setup(1, r)
        out = wl.run_pass(inp, r)
        refs: dict = {}
        base = _problems(wl, inp, out, refs) + [("error", e) for e in r.errors]
        if base:
            misses.append(f"{name}: real outputs rejected: {base[:3]}")
            continue
        if name == "cli-examples":  # the second call of each example
            _problems(wl, inp, out, refs)
        for label, plant, phrase in MUTATIONS[name]:
            trial = refs
            if name == "cli-examples" and phrase != "bytes differ":
                # forget the first call's bytes, so the semantic check must catch it
                trial = {**refs, "bytes": {}}
            restore = plant(inp, out)
            found = [m for _k, m in _problems(wl, inp, out, trial) if phrase in m]
            restore()
            status = "rejected" if found else "MISSED"
            print(f"{name:15s} {label:38s} {status}  {found[0][:100] if found else ''}")
            if not found:
                misses.append(f"{name}: {label} not reported as '{phrase}'")
    for m in misses:
        print("FAIL:", m)
    print("self-test", "failed" if misses else "passed")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
