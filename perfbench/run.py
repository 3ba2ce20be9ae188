#!/usr/bin/env python3
"""stablenorm benchmark: run workloads, each in its own process, and
print their metrics.

    python3 perfbench/run.py --workload tube-panel --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1            # all four workloads in turn

Run from the repository root.  The package is imported from ./src; it
need not be installed.  With one workload the last stdout line is
{"correct", "attempted", "failed", "metrics"}; the line before it
carries the sample counts and the run environment.  --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer metrics.  Exits 2
without a result when the package or the workload process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tube-panel", "canyon-queries", "polygon-tables", "cli-examples")

#: Fresh interpreters timed on the package import; their median, with
#: the workload process's own import, is the import part of setup_s.
IMPORT_PROBES = 4

#: A run must end within this many seconds.
RUN_LIMIT_S = 175.0

_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import stablenorm, stablenorm.cli; print(time.perf_counter() - t)"
)


class RunFailed(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.pop("SNL_THREADS", None)  # spectrum runs at its default pool size
    return env


def _commit() -> str | None:
    """HEAD of the checkout's git metadata, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def _source_digest() -> str:
    """sha256 over the package sources, which names the code measured
    where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stablenorm").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def _import_probes(deadline: float) -> list[float]:
    out = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE], cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise RunFailed(f"package import failed:\n{proc.stderr}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> tuple[dict, dict]:
    """(result, detail) of one workload, run in its own process."""
    if not (ROOT / "src" / "stablenorm" / "__init__.py").is_file():
        raise RunFailed(f"no package at {ROOT / 'src' / 'stablenorm'}")
    probes = _import_probes(deadline)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if trace:
        cmd += ["--trace-file", str(HERE / "out" / f"spans-{name}-{seed}.json")]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{name} ran past the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{name} exited with {proc.returncode}")
    out = json.loads(lines[-1])
    metrics = out["metrics"]
    if not trace:
        setup_s = statistics.median(probes + [out["import_s"]]) + out["setup_gen_s"]
        metrics = {"wall_s": metrics.pop("wall_s"), "setup_s": {"value": setup_s, "unit": "s"}, **metrics}
    result = {"correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"], "metrics": metrics}
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "samples": {**out["samples"], "setup": out["samples"]["passes"], "import_probes": len(probes) + 1},
        "import_s": probes + [out["import_s"]],
        "unscaled": out["unscaled"],
        "host_scale": out["host_scale"],
        "environment": environment(),
        "problems": out["problems"],
        "errors": out["errors"],
    }
    return result, detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, default=None, help="one workload (default: all, in turn)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    names = [args.workload] if args.workload else list(WORKLOADS)
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    results = {}
    try:
        for name in names:
            result, detail = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            results[name] = result
            print(json.dumps(detail))
            if args.workload is None:
                print(json.dumps({"workload": name, **result}))
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    if args.workload:
        print(json.dumps(results[args.workload]))
        return 0
    print(_table(results), file=sys.stderr)
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


def _table(results: dict) -> str:
    rows = []
    for name, r in results.items():
        cells = "  ".join(f"{k}={m['value']:.6g}{m['unit']}" for k, m in r["metrics"].items())
        rows.append(f"{name:15s} correct={r['correct']} attempted={r['attempted']} failed={r['failed']}  {cells}")
    return "\n".join(rows)


if __name__ == "__main__":
    sys.exit(main())
