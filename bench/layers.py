"""The polybohr layers the traced run hooks, and the per-layer metrics.

Each hooked public function becomes a span named ``<module>.<function>``.
Self times of all spans plus the benchmark's own unspanned time add up to
the traced wall time (``trace.wall_s``).  A metric whose hook is missing is
left out of the result rather than reported as zero, so a renamed layer
function shows up as an absent metric.
"""

from __future__ import annotations

import numpy as np

from spans import Hook, Span, self_times, unspanned_ns

#: lower <= 1 < upper - INCONCLUSIVE_TOL marks an inconclusive enclosure
#: (the library's VERIFY_TOL).
INCONCLUSIVE_TOL = 1e-10

#: Labels for functionals.inconclusive.<label> and functionals.genuine.<label>.
KIND_LABELS = ("improved_squared", "refined_p1", "refined_p2", "composed_k", "classical")


def kind_label(spec) -> str:
    return f"refined_p{spec.p}" if spec.kind == "refined_p" else spec.kind


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _eval_cmacs(args, kwargs, result) -> int:
    """Points x coefficients of one eval_series_many call."""
    return int(np.size(_arg(args, kwargs, 1, "ts"))) * int(_arg(args, kwargs, 0, "s").coeffs.size)


def _classify(args, kwargs, value) -> tuple[str, bool, bool, bool]:
    """(kind label, inconclusive, genuine, lower strictly above upper)."""
    label = kind_label(_arg(args, kwargs, 1, "spec"))
    lower, upper = value.lower, value.upper
    return label, lower <= 1.0 < upper - INCONCLUSIVE_TOL, lower > 1.0, lower > upper


def _iterations(args, kwargs, result) -> int:
    return int(result.iterations)


def _returned(args, kwargs, result) -> bool:
    """Marks a search that returned a witness; a raising search keeps attrs None."""
    return True


HOOKS = (
    Hook("series", "schur_series_from_params"),
    Hook("series", "random_schur_series"),
    Hook("series", "eval_series_many", _eval_cmacs),
    Hook("slices", "sup_modulus"),
    Hook("slices", "coefficient_norms"),
    Hook("slices", "slice_tail_bound"),
    Hook("slices", "schwarz_compose"),
    Hook("slices", "random_equimodular_slice"),
    Hook("functionals", "eval_functional", _classify),
    Hook("radii", "solve_radius", _iterations),
    Hook("sharpness", "find_witness", _returned),
    Hook("sharpness", "reproduce_counterexample"),
    Hook("cli", "main"),
)

#: Span name -> metric reporting the span's summed self time in seconds.
SELF_TIME_METRICS = {
    "series.schur_series_from_params": "series.synth_s",
    "series.random_schur_series": "series.random_s",
    "series.eval_series_many": "series.eval_s",
    "slices.sup_modulus": "slices.sup_s",
    "slices.coefficient_norms": "slices.norms_s",
    "slices.slice_tail_bound": "slices.tail_s",
    "slices.schwarz_compose": "slices.compose_s",
    "slices.random_equimodular_slice": "slices.random_s",
    "functionals.eval_functional": "functionals.eval_self_s",
    "radii.solve_radius": "radii.solve_s",
    "sharpness.find_witness": "sharpness.witness_s",
    "sharpness.reproduce_counterexample": "sharpness.counterexample_s",
    "cli.main": "cli.self_s",
}

#: Span name -> metric reporting the number of calls.
CALL_METRICS = {
    "series.schur_series_from_params": "series.synth_calls",
    "series.eval_series_many": "series.eval_calls",
    "functionals.eval_functional": "functionals.eval_calls",
    "radii.solve_radius": "radii.solve_calls",
    "sharpness.find_witness": "sharpness.witness_searches",
}


def layer_metrics(
    spans: list[Span], wall_lo: int, wall_hi: int, found: list[str], scale: float = 1.0
) -> dict[str, float]:
    """Per-layer metrics of one traced pass over ``[wall_lo, wall_hi]`` (ns).

    Times are multiplied by ``scale`` (the machine-speed scale of the pass).
    """
    sec = scale / 1e9
    found_set = set(found)
    selfs = self_times(spans)
    self_ns = {name: 0 for name in found_set}
    calls = {name: 0 for name in found_set}
    for span, own in zip(spans, selfs):
        self_ns[span.name] += own
        calls[span.name] += 1

    out: dict[str, float] = {}
    for name, metric in SELF_TIME_METRICS.items():
        if name in found_set:
            out[metric] = self_ns[name] * sec
    for name, metric in CALL_METRICS.items():
        if name in found_set:
            out[metric] = calls[name]

    if "series.eval_series_many" in found_set:
        out["series.eval_cmacs"] = sum(s.attrs for s in spans if s.name == "series.eval_series_many")

    if "functionals.eval_functional" in found_set:
        evals = [s for s in spans if s.name == "functionals.eval_functional" and s.attrs is not None]
        out["functionals.eval_s"] = sum(s.end - s.start for s in spans if s.name == "functionals.eval_functional") * sec
        out["functionals.inverted_enclosures"] = sum(1 for s in evals if s.attrs[3])
        for label in KIND_LABELS:
            out[f"functionals.inconclusive.{label}"] = sum(1 for s in evals if s.attrs[0] == label and s.attrs[1])
            out[f"functionals.genuine.{label}"] = sum(1 for s in evals if s.attrs[0] == label and s.attrs[2])

    if "radii.solve_radius" in found_set:
        out["radii.bisect_iterations"] = sum(s.attrs for s in spans if s.name == "radii.solve_radius" and s.attrs is not None)

    if {"sharpness.find_witness", "functionals.eval_functional"} <= found_set:
        searches = {i for i, s in enumerate(spans) if s.name == "sharpness.find_witness"}
        found_witnesses = sum(1 for i in searches if spans[i].attrs is not None)
        tried = sum(1 for s in spans if s.name == "functionals.eval_functional" and s.parent in searches)
        out["sharpness.witnesses_found"] = found_witnesses
        # Attempts (eval_functional calls inside searches) per useful outcome.
        out["sharpness.evals_per_witness"] = tried / max(found_witnesses, 1)

    out["trace.wall_s"] = (wall_hi - wall_lo) * sec
    out["trace.unspanned_s"] = unspanned_ns(spans, wall_lo, wall_hi) * sec
    return out
