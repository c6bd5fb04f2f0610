"""Command-line front end: radius solving, verification sweeps, witnesses.

Five subcommands (``radius``, ``verify``, ``witness``, ``sweep``,
``counterexample``) over the library, with human-readable output by default
and ``--format csv|json`` for machine consumption.  Exit codes: 0 when all
assertions pass or a witness is found, 1 when an assertion fails or no
witness exists, 2 for usage, domain or I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from .errors import DomainError, PolybohrError, PreconditionError, SolverError, WitnessSearchError
from .functionals import VERIFY_TOL, FunctionalSpec, eval_functional, verify_theorem
from .radii import closed_form_radius, solve_radius
from .series import SYNTH_CHUNK, random_schur_series_many
from .sharpness import extremal_slice, find_witness, reproduce_counterexample
from .slices import PolydiscSlice, random_equimodular_slices

#: CSV column order for sweep reports.
SWEEP_COLUMNS = ("theorem", "p", "k", "lambda_or_seed", "r", "value_lower", "value_upper", "tail", "bound_ok")

#: The flags every subcommand takes, declared once.  Each is also a config-file
#: key: the long flag without dashes (``rmin``, ``lambda``, ``format``, ...).
_FLAGS: tuple[tuple[str, dict[str, Any]], ...] = (
    ("--theorem", dict(choices=["improved_squared", "refined_p", "composed_k", "classical"])),
    ("--p", dict(type=int, choices=[1, 2], help="exponent for refined_p")),
    ("--k", dict(type=int, help="composition order for composed_k")),
    ("--r", dict(type=float, help="evaluation radius in [0, 1)")),
    ("--r-min", dict(dest="rmin", type=float, help="sweep grid start")),
    ("--r-max", dict(dest="rmax", type=float, help="sweep grid end")),
    ("--r-steps", dict(dest="rsteps", type=int, help="sweep grid size")),
    ("--lambda", dict(dest="lam", type=float, help="extremal-family parameter")),
    ("--seeds", dict(type=int, help="verify: corpus size; sweep: the RNG seed")),
    ("--m", dict(type=int, choices=[1, 2, 3], help="component count (default: mixed 1..3)")),
    ("--truncation", dict(type=int, help="series truncation order (default 64)")),
    ("--phases", dict(type=int, help="circle-sampling phase count (default 64)")),
    ("--a1", dict(type=float, help="counterexample: smaller initial value")),
    ("--a2", dict(type=float, help="counterexample: larger initial value")),
    ("--format", dict(dest="fmt", choices=["csv", "json"], help="structured output")),
    ("--out", dict(type=str, help="write the report to this path instead of stdout")),
)

#: Config-file key -> the flag it stands for.
_CONFIG_KEYS = {flag.replace("-", ""): flag for flag, _ in _FLAGS}


def _fmt(x: Any) -> str:
    """Floats with 12 significant digits; everything else via str()."""
    if isinstance(x, bool) or x is None:
        return "" if x is None else str(x).lower()
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


@dataclass
class RunConfig:
    """Validated options for one CLI invocation."""

    command: str
    spec: FunctionalSpec
    r: float | None = None
    r_grid: list[float] = field(default_factory=list)
    lam: float | None = None
    seeds: int | None = None
    m: int | None = None
    truncation: int = 64
    phases: int = 64
    a1: float | None = None
    a2: float | None = None
    output_format: str | None = None
    output_path: str | None = None

    def echo(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "command": self.command,
            "theorem": self.spec.kind,
            "p": self.spec.p,
            "k": self.spec.k,
            "r": self.r,
            "r_grid": self.r_grid or None,
            "lambda": self.lam,
            "seeds": self.seeds,
            "m": self.m,
            "truncation": self.truncation,
            "phases": self.phases,
            "a1": self.a1,
            "a2": self.a2,
            "format": self.output_format,
            "out": self.output_path,
        }
        return {k: v for k, v in d.items() if v is not None}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polybohr",
        description="Sharp majorant-functional radii for polydisc-valued maps: solve, verify, witness.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("radius", "print the sharp radius of a functional"),
        ("verify", "check the functional on random certified slices at or below the radius"),
        ("witness", "search the extremal family for a value above 1 past the radius"),
        ("sweep", "evaluate the functional over a radius grid for a named slice"),
        ("counterexample", "evaluate on a two-component unequal-modulus slice"),
    ):
        p = sub.add_parser(name, help=help_)
        for flag, options in _FLAGS:
            p.add_argument(flag, **options)
        p.add_argument("--config", type=str, help="key = value file; flags win over file entries")
    return ap


def _config_argv(path: str) -> list[str]:
    """The file's ``key = value`` lines as ``--flag=value`` arguments, in file order."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text ({exc})") from None
    argv = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
        argv.append(f"{_CONFIG_KEYS[key]}={value.strip()}")
    return argv


def _build_spec(args: argparse.Namespace) -> FunctionalSpec:
    if args.theorem is None:
        raise DomainError("--theorem is required (or set 'theorem' in the config file)")
    p = args.p if args.theorem == "refined_p" else None
    k = args.k if args.theorem == "composed_k" else None
    if args.theorem == "refined_p" and p is None:
        raise DomainError("--p is required for refined_p")
    if args.theorem == "composed_k" and k is None:
        raise DomainError("--k is required for composed_k")
    return FunctionalSpec(kind=args.theorem, p=p, k=k)


def _check_radius_value(r: float | None, name: str = "--r") -> None:
    if r is not None and not 0.0 <= r < 1.0:
        raise DomainError(f"{name} must lie in [0, 1), got {r}")


def _build_runconfig(args: argparse.Namespace) -> RunConfig:
    spec = _build_spec(args)
    truncation = args.truncation if args.truncation is not None else 64
    phases = args.phases if args.phases is not None else 64
    if truncation < 8:
        raise DomainError(f"--truncation must be >= 8, got {truncation}")
    if args.seeds is not None and args.command == "verify" and args.seeds < 1:
        raise DomainError(f"--seeds must be >= 1, got {args.seeds}")
    if args.seeds is not None and args.seeds < 0:
        raise DomainError(f"--seeds must be >= 0, got {args.seeds}")
    if phases < 1:
        raise DomainError(f"--phases must be >= 1, got {phases}")
    _check_radius_value(args.r)
    r_grid: list[float] = []
    if args.command == "sweep":
        rmin = args.rmin if args.rmin is not None else 0.0
        rmax = args.rmax if args.rmax is not None else 0.95
        rsteps = args.rsteps if args.rsteps is not None else 20
        _check_radius_value(rmin, "--r-min")
        _check_radius_value(rmax, "--r-max")
        if rsteps < 1:
            raise DomainError(f"--r-steps must be >= 1, got {rsteps}")
        if rmax < rmin:
            raise DomainError("--r-max must not be below --r-min")
        step = (rmax - rmin) / (rsteps - 1) if rsteps > 1 else 0.0
        r_grid = [rmin + j * step for j in range(rsteps)]
    return RunConfig(
        command=args.command,
        spec=spec,
        r=args.r,
        r_grid=r_grid,
        lam=args.lam,
        seeds=args.seeds,
        m=args.m,
        truncation=truncation,
        phases=phases,
        a1=args.a1,
        a2=args.a2,
        output_format=args.fmt,
        output_path=args.out,
    )


def _spec_cells(cfg: RunConfig) -> dict[str, Any]:
    return {"theorem": cfg.spec.kind, "p": cfg.spec.p, "k": cfg.spec.k}


def _run_radius(cfg: RunConfig) -> tuple[int, list[dict[str, Any]], list[str]]:
    radius = closed_form_radius(cfg.spec)
    row = {**_spec_cells(cfg), "radius": radius}
    lines = [f"sharp radius ({cfg.spec.kind}): {_fmt(radius)}"]
    code = 0
    if cfg.spec.kind == "composed_k":
        assert cfg.spec.k is not None
        result = solve_radius(k=cfg.spec.k)
        row.update(
            bracket_lo=result.bracket_lo,
            bracket_hi=result.bracket_hi,
            residual=result.residual,
            iterations=result.iterations,
        )
        lines.append(
            f"bracket [{_fmt(result.bracket_lo)}, {_fmt(result.bracket_hi)}], "
            f"residual {_fmt(result.residual)}, iterations {result.iterations}"
        )
        if abs(result.residual) > 1e-10:
            code = 1
    return code, [row], lines


def _slices_for_seeds(cfg: RunConfig, seeds: Sequence[int]) -> list[PolydiscSlice]:
    if cfg.spec.kind == "classical":
        return [PolydiscSlice.from_components([s]) for s in random_schur_series_many(seeds, cfg.truncation)]
    return random_equimodular_slices(seeds, m=cfg.m, n_terms=cfg.truncation)


def _run_verify(cfg: RunConfig) -> tuple[int, list[dict[str, Any]], list[str]]:
    radius = closed_form_radius(cfg.spec)
    r = cfg.r if cfg.r is not None else radius
    count = cfg.seeds if cfg.seeds is not None else 100
    rows = []
    failures = genuine = 0
    max_upper = 0.0
    # Synthesize one chunk of seeds at a time and evaluate it before the
    # next, so the resident corpus stays bounded.
    for start in range(0, count, SYNTH_CHUNK):
        seeds = range(start, min(start + SYNTH_CHUNK, count))
        for seed, sl in zip(seeds, _slices_for_seeds(cfg, seeds)):
            ok, value = verify_theorem(sl, cfg.spec, r, phases=cfg.phases)
            failures += (not ok)
            genuine += (not ok) and value.lower > 1.0
            max_upper = max(max_upper, value.upper)
            rows.append(
                {
                    **_spec_cells(cfg),
                    "lambda_or_seed": seed,
                    "r": r,
                    "value_lower": value.lower,
                    "value_upper": value.upper,
                    "tail": value.tail,
                    "bound_ok": ok,
                }
            )
    passed = count - failures
    lines = [
        f"verify {cfg.spec.kind} at r = {_fmt(r)}: {passed}/{count} pass, "
        f"max upper value {_fmt(max_upper)}"
    ]
    if failures:
        lines.append(
            f"{failures} slice(s) exceed 1 + {_fmt(VERIFY_TOL)}: {genuine} genuine (lower > 1), "
            f"{failures - genuine} inconclusive (lower <= 1 < upper)"
        )
    return (0 if failures == 0 else 1), rows, lines


def _run_witness(cfg: RunConfig) -> tuple[int, list[dict[str, Any]], list[str]]:
    if cfg.r is None:
        raise DomainError("witness search requires --r above the sharp radius")
    witness = find_witness(cfg.spec, cfg.r, n_terms=cfg.truncation, phases=cfg.phases)
    row = {
        **_spec_cells(cfg),
        "lambda_or_seed": witness.lam,
        "r": witness.r,
        "value_lower": witness.value_lower,
        "margin": witness.margin,
    }
    lines = [
        f"witness for {cfg.spec.kind} at r = {_fmt(cfg.r)}: lambda = {_fmt(witness.lam)}, "
        f"value {_fmt(witness.value_lower)} > 1 (margin {_fmt(witness.margin)})"
    ]
    return 0, [row], lines


def _run_sweep(cfg: RunConfig) -> tuple[int, list[dict[str, Any]], list[str]]:
    radius = closed_form_radius(cfg.spec)
    if cfg.lam is not None:
        sl = extremal_slice(cfg.spec, cfg.lam, m=cfg.m or 1, n_terms=cfg.truncation)
        label: Any = cfg.lam
    else:
        seed = cfg.seeds if cfg.seeds is not None else 0
        sl = _slices_for_seeds(cfg, [seed])[0]
        label = seed
    rows = []
    all_pass = True
    for r in cfg.r_grid:
        value = eval_functional(sl, cfg.spec, r, phases=cfg.phases)
        ok = value.upper <= 1.0 + VERIFY_TOL
        if r <= radius + 1e-12 and not ok:
            all_pass = False
        rows.append(
            {
                **_spec_cells(cfg),
                "lambda_or_seed": label,
                "r": r,
                "value_lower": value.lower,
                "value_upper": value.upper,
                "tail": value.tail,
                "bound_ok": ok,
            }
        )
    lines = [
        f"sweep {cfg.spec.kind} over {len(rows)} radii (slice: "
        f"{'lambda = ' + _fmt(cfg.lam) if cfg.lam is not None else 'seed ' + str(label)}); "
        f"bound holds on {sum(1 for w in rows if w['bound_ok'])}/{len(rows)} points"
    ]
    return (0 if all_pass else 1), rows, lines


def _run_counterexample(cfg: RunConfig) -> tuple[int, list[dict[str, Any]], list[str]]:
    if cfg.a1 is None or cfg.a2 is None or cfg.r is None:
        raise DomainError("counterexample requires --a1, --a2 and --r")
    report = reproduce_counterexample(cfg.spec, cfg.a1, cfg.a2, cfg.r, n_terms=cfg.truncation, phases=cfg.phases)
    row = {
        **_spec_cells(cfg),
        "a1": report.a1,
        "a2": report.a2,
        "r": report.r,
        "value_lower": report.value_lower,
        "value_upper": report.value_upper,
        "analytic_bound": report.analytic_bound,
        "succeeded": report.succeeded,
    }
    lines = [
        f"counterexample {cfg.spec.kind} (a1 = {_fmt(cfg.a1)}, a2 = {_fmt(cfg.a2)}, r = {_fmt(cfg.r)}): "
        f"value {_fmt(report.value_lower)} {'>' if report.succeeded else '<='} 1 "
        f"(closed-form bound {_fmt(report.analytic_bound)})"
    ]
    return (0 if report.succeeded else 1), [row], lines


_RUNNERS = {
    "radius": _run_radius,
    "verify": _run_verify,
    "witness": _run_witness,
    "sweep": _run_sweep,
    "counterexample": _run_counterexample,
}


def _emit_csv(rows: list[dict[str, Any]], stream: io.TextIOBase, command: str) -> None:
    if command == "sweep":
        columns: Sequence[str] = SWEEP_COLUMNS
    else:
        columns = list(rows[0].keys()) if rows else []
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(c)) for c in columns])


def _emit(cfg: RunConfig, code: int, rows: list[dict[str, Any]], lines: list[str]) -> None:
    if cfg.output_format == "csv":
        buf = io.StringIO()
        _emit_csv(rows, buf, cfg.command)
        payload = buf.getvalue()
    elif cfg.output_format == "json":
        payload = json.dumps(
            {
                "command": cfg.command,
                "config": cfg.echo(),
                "results": rows,
                "all_pass": code == 0,
            },
            indent=2,
            sort_keys=False,
        ) + "\n"
    else:
        payload = "".join(line + "\n" for line in lines)
    if cfg.output_path:
        Path(cfg.output_path).write_text(payload, encoding="utf-8", newline="")
        print(f"wrote {cfg.output_path}")
    else:
        sys.stdout.write(payload)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # Parse again with the file's entries between the subcommand and
            # the explicit flags: argparse checks each entry like a flag, and
            # a repeated flag keeps its last value, so explicit flags win.
            args = parser.parse_args([argv[0], *_config_argv(args.config), *argv[1:]])
        cfg = _build_runconfig(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except (DomainError, PreconditionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        code, rows, lines = _RUNNERS[cfg.command](cfg)
    except (DomainError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (WitnessSearchError, SolverError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1
    except PolybohrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(cfg, code, rows, lines)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
