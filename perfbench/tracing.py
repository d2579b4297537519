"""Spans around calls into the program's layers, recorded from outside it.

The traced run replaces each function in ``TRACED`` by a timing wrapper in
every ``polyspectra`` module namespace that refers to it, so both calls from
the CLI and calls between library modules are recorded; ``uninstall``
restores the originals.  A function not on the list counts toward the span
that calls it.  Spans are kept in memory and written when the run ends.

A span's self time is its duration minus the part of it that its child
spans cover; a layer's self time is the sum over its spans.  Counters are
taken from the arguments and returned objects of the traced calls.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

LAYERS = ("matpoly", "svdcore", "pseudospectrum", "contours", "faultlines", "perturbations", "cli")

TRACED = {
    "matpoly": ("evaluate_many", "eigenvalues", "geometric_multiplicity", "max_norm"),
    "svdcore": ("singular_values_many",),
    "pseudospectrum": (
        "compute_field",
        "components",
        "label_sublevel",
        "default_window",
        "find_boundary_seed",
        "trace_boundary",
    ),
    "contours": ("marching_squares",),
    "faultlines": ("default_probes", "build_surface_map", "fault_scan"),
    "perturbations": ("distance_to_multiple", "find_saddle", "certify_multiple"),
    "cli": ("parse_problem",),
}

TERMINATIONS = ("closed", "left_window", "gradient_invalid", "step_limit")

# Per-function inclusive times reported as metrics.
REPORTED_TIMES = (
    "matpoly.evaluate_many",
    "matpoly.eigenvalues",
    "svdcore.singular_values_many",
    "pseudospectrum.compute_field",
    "pseudospectrum.label_sublevel",
    "pseudospectrum.find_boundary_seed",
    "pseudospectrum.trace_boundary",
    "contours.marching_squares",
    "faultlines.build_surface_map",
    "faultlines.fault_scan",
    "perturbations.distance_to_multiple",
    "perturbations.find_saddle",
    "perturbations.certify_multiple",
)

COMMANDS = ("eigs", "field", "components", "trace", "faults", "distance", "perturb")


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root


def _horner(counts, args, result):
    P, lams = args[0], args[1]
    counts["matpoly.horner_bytes"] = max(
        counts["matpoly.horner_bytes"], np.size(lams) * P.n * P.n * 16
    )


def _svd(counts, args, result):
    counts["svdcore.singular_values_many_calls"] += 1
    counts["svdcore.grid_points"] += np.size(args[1])


def _label(counts, args, result):
    counts["pseudospectrum.label_sublevel_calls"] += 1


def _curve(counts, args, curve):
    pts = curve.points
    counts["pseudospectrum.trace_curves"] += 1
    counts["pseudospectrum.trace_steps"] += max(len(pts) - 1, 0)
    counts["pseudospectrum.trace_points"] += len(pts)
    counts["pseudospectrum.trace_distinct_points"] += len(np.unique(pts))
    counts[f"pseudospectrum.term.{curve.termination.value}"] += 1


def _contours(counts, args, polylines):
    counts["contours.segments"] += sum(max(len(p) - 1, 0) for p in polylines)


def _faults(counts, args, report):
    counts["faultlines.candidate_cells"] += len(report.cells)
    counts["faultlines.kept_points"] += len(report.refined_points)


def _saddle(counts, args, saddle):
    counts["perturbations.saddle_iterations"] += saddle.iterations
    counts["perturbations.saddle_on_fault"] += int(saddle.on_fault)


HOOKS = {
    "matpoly.evaluate_many": _horner,
    "svdcore.singular_values_many": _svd,
    "pseudospectrum.label_sublevel": _label,
    "pseudospectrum.trace_boundary": _curve,
    "contours.marching_squares": _contours,
    "faultlines.fault_scan": _faults,
    "perturbations.find_saddle": _saddle,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts = defaultdict(float)
        self._stack: list = []
        self._patched: list = []

    def wrap(self, name: str, fn):
        """``fn`` timed as a span called ``name``."""
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = HOOKS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent)
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "polyspectra"]
        for layer, names in TRACED.items():
            home = sys.modules.get(f"polyspectra.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def metrics(self) -> dict:
        return layer_metrics(self.spans, self.counts)


def _covered(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list) -> list:
    """Each span's duration minus the part its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(children[i], s.start, s.end) for i, s in enumerate(spans)
    ]


def command_split(spans: list) -> dict:
    """Self time per layer inside each command: {command: {layer: s}}."""
    root = []
    split = defaultdict(lambda: defaultdict(float))
    for i, (s, own) in enumerate(zip(spans, self_times(spans))):
        root.append(i if s.parent < 0 else root[s.parent])
        command = spans[root[i]].name.split(".", 1)[1]
        split[command][s.name.split(".", 1)[0]] += own
    return split


def layer_metrics(spans: list, counts: dict) -> dict:
    """Per-layer metrics from the spans and counters of one traced pass.

    The CLI's own work in a command (argument handling, formatting and
    writing outputs) is ``cli.output_s``: the self time of the root span of
    each command, that is the command's time minus its library spans.
    """
    selfs = self_times(spans)
    inclusive = defaultdict(float)
    layer_self = defaultdict(float)
    for s, own in zip(spans, selfs):
        inclusive[s.name] += s.end - s.start
        layer_self[s.name.split(".", 1)[0]] += own
    out = {f"{name}_s": inclusive[name] for name in REPORTED_TIMES}
    out.update({f"{layer}.self_s": layer_self[layer] for layer in LAYERS})
    out.update({f"cli.{cmd}_s": inclusive[f"cli.{cmd}"] for cmd in COMMANDS})
    out["cli.parse_s"] = inclusive["cli.parse_problem"]
    out["cli.output_s"] = sum(
        own for s, own in zip(spans, selfs) if s.parent < 0 and s.name.startswith("cli.")
    )
    for key in (
        "matpoly.horner_bytes",
        "svdcore.grid_points",
        "svdcore.singular_values_many_calls",
        "pseudospectrum.label_sublevel_calls",
        "pseudospectrum.trace_curves",
        "pseudospectrum.trace_steps",
        "contours.segments",
        "faultlines.candidate_cells",
        "faultlines.kept_points",
        "perturbations.saddle_iterations",
        "perturbations.saddle_on_fault",
    ):
        out[key] = counts.get(key, 0)
    for term in TERMINATIONS:
        out[f"pseudospectrum.term.{term}"] = counts.get(f"pseudospectrum.term.{term}", 0)
    svd_s = out["svdcore.singular_values_many_s"]
    out["svdcore.points_per_s"] = out["svdcore.grid_points"] / svd_s if svd_s > 0 else 0.0
    steps = out["pseudospectrum.trace_steps"]
    out["pseudospectrum.step_us"] = 1e6 * out["pseudospectrum.trace_boundary_s"] / steps if steps else 0.0
    points = counts.get("pseudospectrum.trace_points", 0)
    out["pseudospectrum.trace_distinct_frac"] = (
        counts.get("pseudospectrum.trace_distinct_points", 0) / points if points else 0.0
    )
    cells = out["faultlines.candidate_cells"]
    out["faultlines.kept_frac"] = out["faultlines.kept_points"] / cells if cells else 0.0
    return out
