"""polybohr benchmark: one workload per run, result as one JSON line.

From the root of a checkout::

    python3 bench/run.py --workload corpus_verify --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``corpus_verify``, ``cli_verify``,
``sharpness``.  With ``--trace 0`` the result carries the end-to-end metrics
listed in BENCHMARK.json; with ``--trace 1`` the per-layer metrics of a
separate traced run.  The last stdout line is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": v, "unit": u}}}

Earlier lines give an informational record (src/ LOC, versions, CPUs,
thread settings), a summary (ops attempted and failed, inconclusive rows)
and, for traced runs, which hooks were found.  The exit code is 0 for a
correct run, 1 when an output was wrong, and 2 when the benchmark could not
run (for example, when the checkout has no ``src/polybohr``); runs that
could not finish print no result line.

The benchmark imports polybohr from ``src/`` of the checkout it lives in.
Each run starts the workload in a fresh interpreter with
OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=1.  ``setup_s`` is the median, over
several fresh interpreters, of importing polybohr and making one tiny call.
All reported times are scaled for the machine's speed (``calibration.py``);
the summary line also gives them raw.  A negative ``--seed`` is used as its
absolute value.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("corpus_verify", "cli_verify", "sharpness")
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}

SETUP_REPEATS = 11
SETUP_SNIPPET = """\
import sys, time
start = time.perf_counter()
import polybohr as pb
spec = pb.FunctionalSpec.improved_squared()
pb.eval_functional(pb.extremal_slice(spec, 0.5), spec, 0.5)
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[1])
import calibration
calibration.warm_up()
units = sorted(calibration.unit() for _ in range(15))
print(elapsed, elapsed * calibration.REFERENCE_NS / units[7])
"""
SETUP_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 150


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def setup_seconds(env: dict[str, str]) -> tuple[float, float]:
    """Median set-up time over fresh interpreters: (scaled, raw); see calibration.py."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(BENCH_DIR)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        took, took_scaled = map(float, proc.stdout.split())
        raw.append(took)
        scaled.append(took_scaled)
    return statistics.median(scaled), statistics.median(raw)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "polybohr" / "__init__.py").is_file():
        print(f"error: no polybohr sources at {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = child_env(src)

    try:
        extra, raw_setup = {}, {}
        if not args.trace:
            extra["setup_s"], raw_setup["setup_s"] = setup_seconds(env)
        proc = subprocess.run(
            [
                sys.executable, str(BENCH_DIR / "workloads.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--src", str(src),
            ],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.CalledProcessError as exc:
        print(f"error: set-up probe failed:\n{exc.stderr}", file=sys.stderr)
        return 2
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: workload exited with {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return 2
    result = json.loads(lines[-1])
    values = {**result["metrics"], **extra}

    print(json.dumps({"info": result["info"]}))
    if "hooks" in result:
        print(json.dumps({"hooks": result["hooks"]}))
    summary = {"workload": args.workload, "seed": args.seed, **result["summary"]}
    if raw_setup:
        summary.setdefault("raw", {}).update(raw_setup)
    print(json.dumps({"summary": summary}))
    violations = result["violations"]
    for line in violations[:20]:
        print(f"violation: {line}", file=sys.stderr)
    absent = [m["name"] for m in wanted if m["name"] not in values]
    if absent:
        print(f"absent metrics (hook missing): {', '.join(absent)}", file=sys.stderr)
    bad = [name for name, v in values.items() if not math.isfinite(v)]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        return 2

    correct = not violations
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in values
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
