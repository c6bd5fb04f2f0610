"""Command-line front end: radius solving, verification sweeps, witnesses.

Five subcommands (``radius``, ``verify``, ``witness``, ``sweep``,
``counterexample``) over the library, with human-readable output by default
and ``--format csv|json`` for machine consumption.  Exit codes: 0 when all
assertions pass or a witness is found, 1 when an assertion fails or no
witness exists, 2 for usage, domain or I/O errors, among them an option
(flag or config-file key) that the subcommand does not take.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys
from pathlib import Path
from typing import Any, Collection, Sequence

from .errors import DomainError, PolybohrError, WitnessSearchError
from .functionals import _KINDS, FunctionalSpec, FunctionalValue, eval_functional, verify_batch
from .radii import _check_unit, closed_form_radius, solve_radius
from .series import DEFAULT_ORDER, SYNTH_CHUNK
from .sharpness import extremal_slice, find_witness, reproduce_counterexample
from .slices import SliceBatch, random_slice_batch

#: Each subcommand with its help line.
_COMMANDS = {
    "radius": "print the sharp radius of a functional",
    "verify": "check the functional on random certified slices at or below the radius",
    "witness": "search the extremal family for a value above 1 past the radius",
    "sweep": "evaluate the functional over a radius grid for a named slice",
    "counterexample": "evaluate on a two-component unequal-modulus slice",
}

#: Each flag with the subcommands that read it, declared once: a subcommand
#: registers only its own flags, so any other exits 2.  Each flag is also a
#: config-file key (the long flag without dashes: ``rmin``, ``lambda``, ...)
#: and, unless unset, a key of the JSON ``config`` echo.
_FLAGS: tuple[tuple[str, Collection[str], dict[str, Any]], ...] = (
    ("--theorem", _COMMANDS, dict(choices=_KINDS)),
    ("--p", _COMMANDS, dict(type=int, choices=[1, 2], help="exponent for refined_p")),
    ("--k", _COMMANDS, dict(type=int, help="composition order for composed_k")),
    ("--r", ("verify", "witness", "counterexample"), dict(type=float, help="evaluation radius in [0, 1)")),
    ("--r-min", ("sweep",), dict(dest="rmin", type=float, default=0.0, help="grid start (default 0)")),
    ("--r-max", ("sweep",), dict(dest="rmax", type=float, default=0.95, help="grid end (default 0.95)")),
    ("--r-steps", ("sweep",), dict(dest="rsteps", type=int, default=20, help="grid size (default 20)")),
    ("--lambda", ("sweep",), dict(dest="lam", type=float, help="extremal-family parameter of the slice")),
    ("--seeds", ("verify", "sweep"), dict(type=int, help="verify: corpus size; sweep: the slice's RNG seed")),
    ("--m", ("verify", "sweep"), dict(type=int, choices=[1, 2, 3], help="component count (default: mixed 1..3, "
                                      "1 with --lambda); the classical kind rejects it")),
    ("--truncation", ("verify", "witness", "sweep", "counterexample"), dict(
        type=int, default=DEFAULT_ORDER, help="series truncation order (default 64); seeded synthesis fails "
        "certification (exit 2) at some orders from about 86 up")),
    ("--a1", ("counterexample",), dict(type=float, help="smaller initial value")),
    ("--a2", ("counterexample",), dict(type=float, help="larger initial value")),
    ("--format", _COMMANDS, dict(dest="fmt", choices=["csv", "json"], help="structured output")),
    ("--out", _COMMANDS, dict(type=str, help="write the report to this path instead of stdout")),
)

#: Config-file key -> (flag, argparse dest), in table order.
_KEYS = {flag.replace("-", ""): (flag, options.get("dest", flag[2:])) for flag, _, options in _FLAGS}


def _fmt(x: Any) -> str:
    """Floats with 12 significant digits; everything else via str()."""
    if isinstance(x, bool) or x is None:
        return "" if x is None else str(x).lower()
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polybohr",
        description="Sharp majorant-functional radii for polydisc-valued maps: solve, verify, witness.",
        allow_abbrev=False,
    )
    # A flag a subcommand does not take reads as None.
    ap.set_defaults(**{dest: None for _, dest in _KEYS.values()})
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_ in _COMMANDS.items():
        p = sub.add_parser(name, help=help_, allow_abbrev=False)
        for flag, commands, options in _FLAGS:
            if name in commands:
                p.add_argument(flag, **options)
        p.add_argument("--config", type=str, help="key = value file; flags win over file entries")
    return ap


#: The parser :func:`main` reuses: parsing leaves a parser unchanged, and building one costs about 1 ms a request.
_shared_parser = functools.cache(build_parser)


def _config_argv(path: str) -> list[str]:
    """The file's ``key = value`` lines as ``--flag=value`` arguments, in file order.

    A ``#`` starts a comment at the start of a line or after whitespace; any
    other ``#`` belongs to the value (``out = res#1.json``).
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text ({exc})") from None
    argv = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _KEYS:
            raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
        argv.append(f"{_KEYS[key][0]}={value.strip()}")
    return argv


def _check(args: argparse.Namespace) -> None:
    """Validate the parsed options; set the functional ``spec``, the sweep grid ``r_grid`` and the
    component count of ``sweep --lambda`` (1 unless given; the classical sum has no count) on them."""
    if args.theorem is None:
        raise DomainError("--theorem is required (or set 'theorem' in the config file)")
    args.spec = FunctionalSpec(kind=args.theorem, p=args.p, k=args.k)
    if args.truncation is not None and args.truncation < 8:
        raise DomainError(f"--truncation must be >= 8, got {args.truncation}")
    least = 1 if args.command == "verify" else 0
    if args.seeds is not None and args.seeds < least:
        raise DomainError(f"--seeds must be >= {least}, got {args.seeds}")
    for name, value in (("--r", args.r), ("--r-min", args.rmin), ("--r-max", args.rmax)):
        if value is not None:
            _check_unit(value, name)
    if args.m is not None and args.spec.kind == "classical":
        raise DomainError("--m does not apply to the classical sum, which takes one scalar series")
    if args.lam is not None and args.seeds is not None:
        raise DomainError("sweep takes --lambda or --seeds, not both")
    if args.lam is not None and args.m is None and args.spec.kind != "classical":
        args.m = 1
    args.r_grid = None
    if args.command == "sweep":
        if args.rsteps < 1:
            raise DomainError(f"--r-steps must be >= 1, got {args.rsteps}")
        if args.rmax < args.rmin:
            raise DomainError("--r-max must not be below --r-min")
        step = (args.rmax - args.rmin) / (args.rsteps - 1) if args.rsteps > 1 else 0.0
        args.r_grid = [args.rmin + j * step for j in range(args.rsteps)]
    # Fail before the computation, not after it, when the report cannot be written.
    if args.out == "":
        raise DomainError("--out must name a file, got an empty path")
    if args.out and not Path(args.out).parent.is_dir():
        raise DomainError(f"--out: directory {str(Path(args.out).parent)!r} does not exist")
    if args.out and Path(args.out).is_dir():
        raise DomainError(f"--out: {args.out!r} is a directory")


def _echo(args: argparse.Namespace) -> dict[str, Any]:
    """The JSON report's ``config``: the options in effect in table order, unset ones left out,
    and the sweep grid as ``r_grid`` in place of its three flags."""
    values = {key: getattr(args, dest) for key, (_, dest) in _KEYS.items()}
    values.update(rmin=args.r_grid, rmax=None, rsteps=None)
    echo = {"command": args.command}
    echo.update({"r_grid" if key == "rmin" else key: v for key, v in values.items() if v is not None})
    return echo


def _spec_cells(args: argparse.Namespace) -> dict[str, Any]:
    return {"theorem": args.spec.kind, "p": args.spec.p, "k": args.spec.k}


def _record_cells(record: Any) -> dict[str, Any]:
    """A result record's fields in field order, its ``spec`` left out: the spec cells precede them."""
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record) if f.name != "spec"}


def _value_columns(
    args: argparse.Namespace, label: Any, r: Any, values: Sequence[FunctionalValue], oks: list[bool]
) -> dict[str, Any]:
    """The ``verify`` or ``sweep`` result columns; ``label`` and ``r`` are one value for every row, or a list."""
    return {
        **_spec_cells(args),
        "lambda_or_seed": label,
        "r": r,
        "value_lower": [value.lower for value in values],
        "value_upper": [value.upper for value in values],
        "tail": [value.tail for value in values],
        "bound_ok": oks,
    }


def _run_radius(args: argparse.Namespace) -> tuple[int, dict[str, Any], list[str]]:
    result = solve_radius(k=args.spec.k) if args.spec.kind == "composed_k" else None
    cells = {"radius": closed_form_radius(args.spec)} if result is None else _record_cells(result)
    lines = [f"sharp radius ({args.spec.kind}): {_fmt(cells['radius'])}"]
    if result is not None:
        lines.append(
            f"bracket [{_fmt(result.bracket_lo)}, {_fmt(result.bracket_hi)}], "
            f"residual {_fmt(result.residual)}, iterations {result.iterations}"
        )
    return 0, {**_spec_cells(args), **cells}, lines


def _batch_for_seeds(args: argparse.Namespace, seeds: Sequence[int]) -> SliceBatch:
    """The seeds' slices: scalar series for the classical sum, equimodular slices otherwise."""
    return random_slice_batch(seeds, m=args.m, n_terms=args.truncation, scalar=args.spec.kind == "classical")


def _run_verify(args: argparse.Namespace) -> tuple[int, dict[str, Any], list[str]]:
    radius = closed_form_radius(args.spec)
    r = args.r if args.r is not None else radius
    count = args.seeds if args.seeds is not None else 100
    oks, values = [], []
    # Synthesize, validate and evaluate one chunk of seeds at a time as one
    # batch, so the resident corpus stays bounded.
    for start in range(0, count, SYNTH_CHUNK):
        results = verify_batch(_batch_for_seeds(args, range(start, min(start + SYNTH_CHUNK, count))), args.spec, r)
        oks += [ok for ok, _ in results]
        values += [value for _, value in results]
    columns = _value_columns(args, list(range(count)), r, values, oks)
    failures = oks.count(False)
    genuine = sum(not ok and value.lower > 1.0 for ok, value in zip(oks, values))
    max_upper = max(0.0, *columns["value_upper"])
    passed = count - failures
    lines = [
        f"verify {args.spec.kind} at r = {_fmt(r)}: {passed}/{count} pass, "
        f"max upper value {_fmt(max_upper)}"
    ]
    if failures:
        lines.append(
            f"{failures} slice(s) exceed 1: {genuine} genuine (lower > 1), "
            f"{failures - genuine} inconclusive (lower <= 1 < upper)"
        )
    return (0 if failures == 0 else 1), columns, lines


def _run_witness(args: argparse.Namespace) -> tuple[int, dict[str, Any], list[str]]:
    if args.r is None:
        raise DomainError("witness search requires --r above the sharp radius")
    witness = find_witness(args.spec, args.r, n_terms=args.truncation)
    row = {
        **_spec_cells(args),
        "lambda_or_seed": witness.lam,
        "r": witness.r,
        "value_lower": witness.value_lower,
        "margin": witness.margin,
    }
    lines = [
        f"witness for {args.spec.kind} at r = {_fmt(args.r)}: lambda = {_fmt(witness.lam)}, "
        f"value {_fmt(witness.value_lower)} > 1 (margin {_fmt(witness.margin)})"
    ]
    return 0, row, lines


def _run_sweep(args: argparse.Namespace) -> tuple[int, dict[str, Any], list[str]]:
    radius = closed_form_radius(args.spec)
    if args.lam is not None:
        # The family's args.m components are equal, so one gives every value; the report still echoes args.m.
        sl = extremal_slice(args.spec, args.lam, n_terms=args.truncation)
        label: Any = args.lam
    else:
        seed = args.seeds if args.seeds is not None else 0
        sl = _batch_for_seeds(args, [seed]).slices()[0]
        label = seed
    values = [eval_functional(sl, args.spec, r) for r in args.r_grid]
    oks = [value.upper <= 1.0 for value in values]
    all_pass = all(ok or r > radius for r, ok in zip(args.r_grid, oks))
    lines = [
        f"sweep {args.spec.kind} over {len(values)} radii (slice: "
        f"{'lambda = ' + _fmt(args.lam) if args.lam is not None else 'seed ' + str(label)}); "
        f"bound holds on {oks.count(True)}/{len(values)} points"
    ]
    return (0 if all_pass else 1), _value_columns(args, label, args.r_grid, values, oks), lines


def _run_counterexample(args: argparse.Namespace) -> tuple[int, dict[str, Any], list[str]]:
    if args.a1 is None or args.a2 is None or args.r is None:
        raise DomainError("counterexample requires --a1, --a2 and --r")
    report = reproduce_counterexample(args.spec, args.a1, args.a2, args.r, n_terms=args.truncation)
    row = {**_spec_cells(args), **_record_cells(report)}
    lines = [
        f"counterexample {args.spec.kind} (a1 = {_fmt(args.a1)}, a2 = {_fmt(args.a2)}, r = {_fmt(args.r)}): "
        f"value {_fmt(report.value_lower)} {'>' if report.succeeded else '<='} 1 "
        f"(closed-form bound {_fmt(report.analytic_bound)})"
    ]
    return (0 if report.succeeded else 1), row, lines


_RUNNERS = {
    "radius": _run_radius,
    "verify": _run_verify,
    "witness": _run_witness,
    "sweep": _run_sweep,
    "counterexample": _run_counterexample,
}


#: Writes a JSON column in one call, cells split by NUL (escaped in every JSON string), each as ``json.dumps`` would.
_JSON_COLUMN = json.JSONEncoder(separators=("\x00", ": "))


def _csv_cell(value: Any) -> str:
    """``_fmt(value)``, quoted as ``csv.writer`` quotes a cell that holds a comma, a quote or a line break."""
    text = _fmt(value)
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def _cells(column: list[Any], fmt: str) -> list[str]:
    """Every cell of a report column of scalars as ``fmt`` writes it: JSON by one encoder call, CSV cell by cell."""
    if fmt == "json":
        return _JSON_COLUMN.encode(column)[1:-1].split("\x00") if column else []
    return list(map(_csv_cell, column))


def _rows(columns: dict[str, Any], fmt: str) -> list[str]:
    """Each result row as ``fmt`` writes it: a JSON object at the ``indent=2`` layout of the report's rows, or a
    CSV line.  ``columns`` maps each key to a list of one cell per row, or to one value for every row (all of them
    are single values for a one-row result).  Each column is formatted once, a single value into the row template
    itself."""
    parts, varying = [], []
    for key, column in columns.items():
        text = f"      {json.dumps(key)}: " if fmt == "json" else ""
        if isinstance(column, list):
            parts.append(text.replace("{", "{{").replace("}", "}}") + f"{{{len(varying)}}}")
            varying.append(_cells(column, fmt))
        else:
            parts.append((text + _cells([column], fmt)[0]).replace("{", "{{").replace("}", "}}"))
    template = "    {{\n" + ",\n".join(parts) + "\n    }}" if fmt == "json" else ",".join(parts) + "\n"
    return list(map(template.format, *varying)) if varying else [template.format()]


def _json_report(args: argparse.Namespace, code: int, columns: dict[str, Any]) -> str:
    """The JSON report, byte for byte ``json.dumps(report, indent=2) + "\\n"``: the rows of :func:`_rows` go
    into the ``indent=2`` shell of the rest."""
    shell = json.dumps(
        {"command": args.command, "config": _echo(args), "results": [], "all_pass": code == 0}, indent=2
    )
    rows = _rows(columns, "json")
    if not rows:
        return shell + "\n"
    head, _, tail = shell.rpartition('"results": []')
    return "".join((head, '"results": [\n', ",\n".join(rows), "\n  ]", tail, "\n"))


def _emit(args: argparse.Namespace, code: int, columns: dict[str, Any], lines: list[str]) -> None:
    if args.fmt == "csv":
        payload = "".join([",".join(map(_csv_cell, columns)) + "\n", *_rows(columns, "csv")])
    elif args.fmt == "json":
        payload = _json_report(args, code, columns)
    else:
        payload = "".join(line + "\n" for line in lines)
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8", newline="")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(payload)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # Parse again with the file's entries between the subcommand and
            # the explicit flags: argparse checks each entry like a flag, and
            # a repeated flag keeps its last value, so explicit flags win.
            args = parser.parse_args([argv[0], *_config_argv(args.config), *argv[1:]])
        _check(args)
        code, columns, lines = _RUNNERS[args.command](args)
        _emit(args, code, columns, lines)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except WitnessSearchError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1
    except (PolybohrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
