"""The benchmark's workloads, their correctness checks, and the worker process.

``bench/run.py`` starts this file as a fresh subprocess for each run::

    python3 bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1

and reads the JSON object on its last stdout line.  One Python process, no
worker threads; the parent sets OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=1.

A workload is a stream of passes; a pass is a fixed list of ops, and an op is
one call into the library's public API, timed from outside.  Each op's
output goes through the checks in ``inspect_*``: a violated check makes the
op failed and the run incorrect.  An op that raises counts as failed too;
only ``WitnessSearchError`` from ``find_witness``, the search's documented
"no witness on this grid" outcome, leaves the run correct.

* ``corpus_verify`` -- per-slice evaluation.  Pass = 1000 equimodular slices
  (slice seeds ``seed*1000 + i``) evaluated for five functionals at their
  radii, plus 1000 scalar series for the classical sum.  One op is one
  ``eval_functional`` call; synthesis runs between ops, so it counts in
  ``ops_per_s`` but not in op latency.
* ``cli_verify`` -- ``polybohr verify --seeds 1000`` for three theorems,
  in-process.  One op is one request.  The CLI has no seed offset, so this
  workload always covers CLI seeds 0..999 and ignores the benchmark seed.
* ``sharpness`` -- witness searches, composed radius solves and the
  unequal-modulus counterexamples; no synthesis, no random input.

Untraced runs measure whole passes for at least ``--seconds`` of workload
time after a warm-up, with machine-speed calibration running (see
``calibration.py``); quality figures (enclosure width, inconclusive rows)
come from the first pass.  Traced runs time a fixed number of passes with
span hooks installed (see ``layers.py``), between two untraced timings of
the same passes, also on the calibrated clock.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import sys
import tempfile
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

import polybohr as pb
import polybohr.cli as pb_cli

import calibration
import oracle
from calibration import Calibrator
from layers import HOOKS, INCONCLUSIVE_TOL, kind_label, layer_metrics
from spans import Recorder, install

WORKLOADS = ("corpus_verify", "cli_verify", "sharpness")

CORPUS_SIZE = 1000

#: Corpus and CLI sizes for warm-up (and for tests).
TINY_SIZE = 4

#: Passes timed in a traced run; a sharpness pass takes about 0.3 s.
TRACE_PASSES = {"corpus_verify": 1, "cli_verify": 1, "sharpness": 10}

#: FunctionalValue itself rejects lower > upper + 1e-15 as rounding-level
#: noise; the enclosure check uses the same allowance.  Strict inversions
#: below it are counted in the traced run (functionals.inverted_enclosures).
ENCLOSURE_SLACK = 1e-15

#: Largest accepted |residual| of a composed radius solve.
RESIDUAL_TOL = 1e-10

CLASSICAL = pb.FunctionalSpec.classical()

EXPECTED_RADII = {
    "improved_squared": math.sqrt(11.0 / 27.0),
    "refined_p1": 1.0 / 5.0,
    "refined_p2": 1.0 / 3.0,
    "classical": 1.0 / 3.0,
}

CORPUS_SPECS = (
    ("improved_squared", pb.FunctionalSpec.improved_squared()),
    ("refined_p1", pb.FunctionalSpec.refined(1)),
    ("refined_p2", pb.FunctionalSpec.refined(2)),
    ("composed_k1", pb.FunctionalSpec.composed(1)),
    ("composed_k3", pb.FunctionalSpec.composed(3)),
)

#: Kinds whose bound a multi-component slice may genuinely break at the
#: radius (components dominating different coefficient orders).
MAY_EXCEED_ONE = {"improved_squared", "refined_p2"}

CLI_REQUESTS = (
    ("refined_p2", ("--theorem", "refined_p", "--p", "2")),
    ("composed_k2", ("--theorem", "composed_k", "--k", "2")),
    ("classical", ("--theorem", "classical")),
)

WITNESS_SPECS = (
    pb.FunctionalSpec.improved_squared(),
    pb.FunctionalSpec.refined(1),
    pb.FunctionalSpec.refined(2),
    *(pb.FunctionalSpec.composed(k) for k in range(1, 5)),
)
WITNESS_DELTAS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-9)
WITNESS_COMPONENTS = (1, 3)
SOLVE_ORDERS = range(1, 65)

#: The demos/05 cases: (spec, a1, r), each at every a2 below.
COUNTEREXAMPLES = (
    (pb.FunctionalSpec.improved_squared(), 0.6, 0.7),
    (pb.FunctionalSpec.refined(1), 0.75, 0.5),
    (pb.FunctionalSpec.composed(1), 0.5, 0.5),
)
COUNTEREXAMPLE_A2 = (0.9, 0.99, 1.0 - 1e-4)
#: At this a2 every counterexample must succeed (lower value above 1).
DECISIVE_A2 = 1.0 - 1e-4

Problems = list[str]
Rows = list[tuple[float, float]]


@dataclass(frozen=True)
class Op:
    """One timed call and the check of its output.

    ``inspect`` returns the violated checks and the (lower, upper) enclosures
    the output carries.
    """

    call: Callable[[], Any]
    inspect: Callable[[Any], tuple[Problems, Rows]]
    expected_errors: tuple[type[BaseException], ...] = ()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    latencies_ns: list[int] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    rows: int = 0
    width_sum: float = 0.0
    inconclusive: int = 0
    genuine: int = 0

    def add_rows(self, rows: Rows) -> None:
        for lower, upper in rows:
            self.rows += 1
            self.width_sum += upper - lower
            self.inconclusive += lower <= 1.0 < upper - INCONCLUSIVE_TOL
            self.genuine += lower > 1.0


def run_op(op: Op, tally: Tally, count_rows: bool, clock: Callable[[], int] = time.perf_counter_ns) -> None:
    tally.attempted += 1
    start = clock()
    try:
        out = op.call()
    except op.expected_errors:
        tally.latencies_ns.append(clock() - start)
        tally.failed += 1
        return
    except Exception as exc:  # an op that raises unexpectedly produced no valid output
        tally.latencies_ns.append(clock() - start)
        tally.failed += 1
        tally.violations.append(f"raised {type(exc).__name__}: {exc}")
        return
    tally.latencies_ns.append(clock() - start)
    problems, rows = op.inspect(out)
    if problems:
        tally.failed += 1
        tally.violations.extend(problems)
    if count_rows:
        tally.add_rows(rows)


def run_pass(make_pass: Callable[[], Iterator[Op]], tally: Tally, count_rows: bool = True) -> None:
    for op in make_pass():
        run_op(op, tally, count_rows)


@dataclass
class Timeline:
    """Op start and end times on the workload clock (wall time less calibration)."""

    starts_ns: list[int] = field(default_factory=list)
    ends_ns: list[int] = field(default_factory=list)
    end_ns: int = 0

    def segments_ns(self) -> np.ndarray:
        """Workload time from each op's start to the next op's start (or the end)."""
        return np.diff(np.asarray([*self.starts_ns, self.end_ns], dtype=np.int64))


def measure(make_pass: Callable[[], Iterator[Op]], seconds: float) -> tuple[Tally, Timeline, Calibrator]:
    """Run whole passes for ``seconds`` of workload time, with calibration running.

    Whole passes keep the op mix the same in every run, which keeps the
    latency percentiles steady; rows are counted in the first pass only.
    """
    tally, timeline = Tally(), Timeline()
    with Calibrator() as cal:
        start = cal.clock()
        first = True
        while first or cal.clock() - start < seconds * 1e9:
            for op in make_pass():
                timeline.starts_ns.append(cal.clock())
                run_op(op, tally, first, cal.clock)
                timeline.ends_ns.append(cal.clock())
            first = False
        timeline.end_ns = cal.clock()
    return tally, timeline, cal


# ---------------------------------------------------------------- checks


def enclosure_problems(label: str, lower: float, upper: float) -> Problems:
    if not (math.isfinite(lower) and math.isfinite(upper)):
        return [f"{label}: non-finite enclosure [{lower!r}, {upper!r}]"]
    if lower > upper + ENCLOSURE_SLACK:
        return [f"{label}: lower {lower!r} > upper {upper!r}"]
    return []


def radius_problems(label: str, radius: float) -> Problems:
    expected = EXPECTED_RADII.get(label)
    if expected is not None and radius != expected:
        return [f"{label}: closed-form radius {radius!r} != {expected!r}"]
    return []


def inspect_value(label: str, may_exceed_one: bool, known: Problems, value) -> tuple[Problems, Rows]:
    problems = known + enclosure_problems(label, value.lower, value.upper)
    if not may_exceed_one and value.lower > 1.0:
        problems.append(f"{label}: lower {value.lower!r} > 1 at the radius, where the bound holds")
    return problems, [(value.lower, value.upper)]


def inspect_cli(label: str, seeds: int, result: tuple[int, Path]) -> tuple[Problems, Rows]:
    code, path = result
    if code not in (0, 1):
        return [f"cli {label}: exit code {code}"], []
    report = json.loads(path.read_text(encoding="utf-8"))
    path.unlink()
    results = report["results"]
    problems = [] if len(results) == seeds else [f"cli {label}: {len(results)} rows, expected {seeds}"]
    rows = []
    for row in results:
        lower, upper = row["value_lower"], row["value_upper"]
        problems += enclosure_problems(f"cli {label} seed {row['lambda_or_seed']}", lower, upper)
        if label not in MAY_EXCEED_ONE and lower > 1.0:
            problems.append(f"cli {label} seed {row['lambda_or_seed']}: lower {lower!r} > 1 at the radius")
        rows.append((lower, upper))
    return problems, rows


def inspect_witness(label: str, radius: float, known: Problems, witness) -> tuple[Problems, Rows]:
    problems = list(known)
    if not (math.isfinite(witness.value_lower) and witness.value_lower > 1.0):
        problems.append(f"witness {label}: value_lower {witness.value_lower!r} is not > 1")
    if not witness.r > radius:
        problems.append(f"witness {label}: r {witness.r!r} is not past the radius {radius!r}")
    return problems, []


def inspect_solve(k: int, result) -> tuple[Problems, Rows]:
    if not (math.isfinite(result.residual) and abs(result.residual) <= RESIDUAL_TOL):
        return [f"solve_radius({k}): residual {result.residual!r} > {RESIDUAL_TOL}"], []
    return [], []


def inspect_counterexample(label: str, a2: float, report) -> tuple[Problems, Rows]:
    problems = enclosure_problems(f"counterexample {label} a2={a2}", report.value_lower, report.value_upper)
    if a2 == DECISIVE_A2 and not report.succeeded:
        problems.append(f"counterexample {label} a2={a2}: did not exceed 1")
    return problems, [(report.value_lower, report.value_upper)]


# ---------------------------------------------------------------- passes


def corpus_pass(seed: int, size: int = CORPUS_SIZE) -> Iterator[Op]:
    radii, known = {}, {}
    for label, spec in (*CORPUS_SPECS, ("classical", CLASSICAL)):
        radii[label] = pb.closed_form_radius(spec)
        known[label] = radius_problems(label, radii[label])
    for i in range(size):
        slice_seed = seed * CORPUS_SIZE + i
        sl = pb.random_equimodular_slice(slice_seed)
        for label, spec in CORPUS_SPECS:
            may_exceed = label in MAY_EXCEED_ONE and sl.m > 1
            yield Op(
                partial(pb.eval_functional, sl, spec, radii[label]),
                partial(inspect_value, label, may_exceed, known[label]),
            )
        scalar = pb.PolydiscSlice.from_components([pb.random_schur_series(slice_seed)])
        yield Op(
            partial(pb.eval_functional, scalar, CLASSICAL, radii["classical"]),
            partial(inspect_value, "classical", False, known["classical"]),
        )


def run_cli(argv: list[str], out: Path) -> tuple[int, Path]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = pb_cli.main(argv)
    return code, out


def cli_pass(workdir: Path, seeds: int = CORPUS_SIZE) -> Iterator[Op]:
    for label, args in CLI_REQUESTS:
        out = workdir / f"{label}.json"
        argv = ["verify", *args, "--seeds", str(seeds), "--format", "json", "--out", str(out)]
        yield Op(partial(run_cli, argv, out), partial(inspect_cli, label, seeds))


def sharpness_pass() -> Iterator[Op]:
    for spec in WITNESS_SPECS:
        label = kind_label(spec)
        radius = pb.closed_form_radius(spec)
        known = radius_problems(label, radius)
        for delta in WITNESS_DELTAS:
            for m in WITNESS_COMPONENTS:
                yield Op(
                    partial(pb.find_witness, spec, radius + delta, m=m),
                    partial(inspect_witness, label, radius, known),
                    (pb.WitnessSearchError,),
                )
    for k in SOLVE_ORDERS:
        yield Op(partial(pb.solve_radius, k), partial(inspect_solve, k))
    for spec, a1, r in COUNTEREXAMPLES:
        for a2 in COUNTEREXAMPLE_A2:
            yield Op(
                partial(pb.reproduce_counterexample, spec, a1, a2, r),
                partial(inspect_counterexample, kind_label(spec), a2),
            )


def pass_factory(name: str, seed: int, workdir: Path, size: int = CORPUS_SIZE) -> Callable[[], Iterator[Op]]:
    """The workload's pass generator; ``size`` shrinks the corpus and the CLI seed count."""
    if name == "corpus_verify":
        return partial(corpus_pass, seed, size)
    if name == "cli_verify":
        return partial(cli_pass, workdir, size)
    if name == "sharpness":
        return sharpness_pass
    raise ValueError(f"unknown workload {name!r}")


def oracle_seed(name: str, seed: int) -> int:
    """Whose corpus the coefficient-accuracy sample is drawn from."""
    return 0 if name == "cli_verify" else seed


# ---------------------------------------------------------------- runs


def summary(tally: Tally) -> dict[str, Any]:
    return {
        "ops_attempted": tally.attempted,
        "ops_failed": tally.failed,
        "rows": tally.rows,
        "inconclusive_rows": tally.inconclusive,
        "genuine_rows": tally.genuine,
    }


def untraced_run(name: str, seed: int, seconds: float, workdir: Path) -> dict[str, Any]:
    warm = Tally()
    run_pass(pass_factory(name, seed, workdir, TINY_SIZE), warm)
    calibration.warm_up()
    tally, timeline, cal = measure(pass_factory(name, seed, workdir), seconds)
    scales = cal.local_scales(np.asarray(timeline.starts_ns), np.asarray(timeline.ends_ns))
    raw_ms = np.asarray(tally.latencies_ns, dtype=np.float64) / 1e6
    segments_s = timeline.segments_ns() / 1e9
    completed = tally.attempted - tally.failed
    p50, p90 = np.percentile(raw_ms * scales, [50, 90])
    raw_p50, raw_p90 = np.percentile(raw_ms, [50, 90])
    metrics = {
        "ops_per_s": completed / float(np.sum(segments_s * scales)),
        "op_p50_ms": float(p50),
        "op_p90_ms": float(p90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "enclosure_width": tally.width_sum / tally.rows,
    }
    return {
        "violations": warm.violations + tally.violations,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "summary": {
            **summary(tally),
            "latency_samples": len(raw_ms),
            "workload_s": float(np.sum(segments_s)),
            "raw": {
                "ops_per_s": completed / float(np.sum(segments_s)),
                "op_p50_ms": float(raw_p50),
                "op_p90_ms": float(raw_p90),
            },
            "calibration_units": len(cal.durations),
            "calibration_mean_ms": float(np.mean(cal.durations)) / 1e6,
        },
    }


def traced_run(name: str, seed: int, workdir: Path) -> dict[str, Any]:
    passes = TRACE_PASSES[name]
    make_pass = pass_factory(name, seed, workdir)
    warm, plain, traced = Tally(), Tally(), Tally()
    run_pass(pass_factory(name, seed, workdir, TINY_SIZE), warm)
    calibration.warm_up()

    with Calibrator() as cal:

        def timed(tally: Tally) -> tuple[int, int]:
            lo = cal.clock()
            for _ in range(passes):
                run_pass(make_pass, tally)
            return lo, cal.clock()

        # Untraced passes on both sides of the traced one: the machine's speed drifts.
        before = timed(plain)
        recorder = Recorder(cal.clock)
        inst = install(recorder, HOOKS, "polybohr")
        try:
            lo, hi = timed(traced)
        finally:
            inst.restore()
        after = timed(plain)

    def scale(window: tuple[int, int]) -> float:
        return float(cal.local_scales([window[0]], [window[1]])[0])

    def scaled_s(window: tuple[int, int]) -> float:
        return (window[1] - window[0]) * scale(window) / 1e9

    metrics = layer_metrics(recorder.spans, lo, hi, inst.found, scale((lo, hi)))
    metrics["trace.overhead_s"] = scaled_s((lo, hi)) - (scaled_s(before) + scaled_s(after)) / 2
    if "series.schur_series_from_params" in inst.found:
        metrics["series.max_coeff_err"] = oracle.max_coefficient_error(
            pb.schur_series_from_params, oracle_seed(name, seed)
        )
    return {
        "violations": warm.violations + plain.violations + traced.violations,
        "attempted": traced.attempted,
        "failed": traced.failed,
        "metrics": metrics,
        "summary": {**summary(traced), "passes": passes, "spans": len(recorder.spans)},
        "hooks": {"found": inst.found, "missing": inst.missing, "bindings": inst.bindings},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="polybohr benchmark worker (started by bench/run.py)")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--src", type=Path, required=True, help="the polybohr sources this run must import")
    args = ap.parse_args(argv)

    if not Path(pb.__file__).resolve().is_relative_to(args.src.resolve()):
        print(f"error: imported polybohr from {pb.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    seed = abs(args.seed)  # numpy generators take non-negative seeds only
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=args.src.parent) as tmp:
        if args.trace:
            result = traced_run(args.workload, seed, Path(tmp))
        else:
            result = untraced_run(args.workload, seed, args.seconds, Path(tmp))
    result["info"] = {
        "src_loc": sum(len(p.read_bytes().splitlines()) for p in args.src.rglob("*.py")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
