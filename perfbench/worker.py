"""One workload in one process: set-up and timed passes, checks, metrics.

run.py starts this file with the workload, seed, run length and trace
flag, and reads the JSON object it prints as its last stdout line.

Untraced, every pass is timed without spans.  Traced, passes alternate
between traced and untraced, so the per-layer figures and the tracing
overhead (traced minus untraced wall time) come from one process.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

_t = time.perf_counter()
import stablenorm  # noqa: E402,F401
import stablenorm.cli  # noqa: E402,F401

IMPORT_S = time.perf_counter() - _t

sys.path.insert(0, str(HERE))
import workloads as W  # noqa: E402
from hostspeed import HostClock  # noqa: E402
from spans import Tracer  # noqa: E402

#: Every run makes at least this many passes, so that the CLI bytes are
#: compared across two calls and a traced run has an untraced partner.
MIN_PASSES = 2


def _span(tracer, name):
    return tracer.span(name) if tracer else nullcontext()


def _layer_metrics(wl, tracer, counts, scale: float) -> dict:
    times: dict[str, float] = {}
    for span_id, own in tracer.self_times().items():
        name = tracer.spans[span_id]["name"]
        times[name] = times.get(name, 0.0) + own * scale
    out = {m: sum(times.get(n, 0.0) for n in names) for m, names in W.LAYER_SPANS.items()}
    out.update(counts)
    out.update({name: 0.0 for name in W.DERIVED_METRICS})
    out.update(wl.derived(times))
    return out


def _timings(passes: list[list[float]]) -> dict:
    """wall_s and slowest_op_s from each operation's median over passes
    (the same operations run in the same order in every pass), and the
    median latency pooled over passes."""
    per_op = [statistics.median(lat) for lat in zip(*passes)]
    return {
        "wall_s": sum(per_op),
        "op_p50_ms": 1e3 * statistics.median([dt for p in passes for dt in p]),
        "slowest_op_s": max(per_op),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args()

    wl = W.WORKLOADS[args.workload]()
    refs: dict = {}
    problems: list[str] = []
    errors: list[str] = []
    attempted = failed = 0
    passes: list[dict] = []
    spans: list = []
    rss_kib = None
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 0
        tracer = Tracer() if traced else None
        clock = HostClock()
        r = W.Runner(tracer, clock)
        with _span(tracer, "setup"):
            t0 = time.perf_counter()
            inputs = wl.setup(args.seed, r)
            setup_s = time.perf_counter() - t0
        with _span(tracer, "pass"):
            t0 = time.perf_counter()
            outputs = wl.run_pass(inputs, r)
            wall = time.perf_counter() - t0 - clock.spent
        clock.tick(force=True)
        if rss_kib is None:
            # high-water mark of import, set-up and one pass, before any check
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        counts = dict(r.counts)
        ck = W.Checker()
        if traced:
            with _span(tracer, "trace-extra"):
                wl.trace_extra(inputs, r, ck)
        wl.check(inputs, outputs, refs, ck)
        attempted += len(r.ops)
        failed += len(r.errors)
        errors.extend(r.errors)
        for key, msg in ck.problems:
            if key == W.KNOWN_FAULT:
                failed += 1
            else:
                problems.append(f"{key}: {msg}")
        scale = clock.pass_factor()
        record = {
            "traced": traced,
            "wall": wall * scale,
            "setup": setup_s,
            "ops": [dt * clock.factor(cal) for _n, dt, cal in r.ops],
            "raw_ops": [dt for _n, dt, _cal in r.ops],
            "scale": scale,
        }
        if traced:
            record["layer"] = _layer_metrics(wl, tracer, counts, scale)
            spans.append(tracer.spans)
        passes.append(record)
        del inputs, outputs
        # stop before a pass that would run past the measuring time
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    med = statistics.median
    if args.trace:
        layer = {
            name: med([p["layer"][name] for p in traced_passes]) for name in traced_passes[0]["layer"]
        }
        layer["trace.overhead_s"] = med([p["wall"] for p in traced_passes]) - med([p["wall"] for p in plain])
        metrics = {name: {"value": v, "unit": W.PER_LAYER_UNITS[name]} for name, v in sorted(layer.items())}
        if args.trace_file:
            Path(args.trace_file).parent.mkdir(parents=True, exist_ok=True)
            Path(args.trace_file).write_text(json.dumps(spans), encoding="utf-8")
    else:
        timings = {key: _timings([p[key] for p in plain]) for key in ("ops", "raw_ops")}
        metrics = {
            "wall_s": {"value": timings["ops"]["wall_s"], "unit": "s"},
            "peak_rss_mib": {"value": rss_kib / 1024.0, "unit": "MiB"},
            "op_p50_ms": {"value": timings["ops"]["op_p50_ms"], "unit": "ms"},
            "slowest_op_s": {"value": timings["ops"]["slowest_op_s"], "unit": "s"},
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "import_s": IMPORT_S,
        "unscaled": timings["raw_ops"] if not args.trace else None,
        "host_scale": [p["scale"] for p in passes],
        "setup_gen_s": med([p["setup"] for p in plain]),
        "samples": {
            "passes": len(plain),
            "traced_passes": len(traced_passes),
            "ops_pooled": sum(len(p["ops"]) for p in plain),
            "ops_per_pass": len(plain[0]["ops"]),
        },
        "problems": problems[:20],
        "errors": errors[:20],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
