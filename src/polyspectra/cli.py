"""Command-line front end.

Reads a JSON problem specification, runs the library, and writes
machine-readable reports:

    polyspectra COMMAND --input FILE [FLAGS], where each COMMAND reads:

    eigs        [--json PATH]
    field       [--eps EPS ...] [--grid NX NY] [--window W] [--json/--csv/--svg PATH]
    components  [--eps EPS ...] [--grid NX NY] [--window W] [--json PATH]
    trace       [--eps EPS ...] [--window W] [--seed RE IM]... [--json/--csv/--svg PATH]
    faults      [--eps EPS ...] [--grid NX NY] [--window W] [--json/--svg PATH]
    distance    [--eps-max LIMIT] [--grid NX NY] [--window W] [--json PATH]
    perturb     --mu RE IM [--json PATH]

W is XMIN XMAX YMIN YMAX.  A command rejects any other flag.

Exit codes: 0 success, 2 parse error, 3 numerical failure, 4 precondition
violation.  File outputs are deterministic for identical inputs and flags
(SVG identical up to a version comment) and are written atomically.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import tempfile
import time
import warnings
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .contours import (
    Termination,
    boundary_curves,
    marching_squares,
    nearest_curve,
    on_curve_tolerance,
)
from .errors import (
    InputError,
    NumericalError,
    PolyspectraError,
    PreconditionError,
    SeedNotFoundError,
)
from .faultlines import build_surface_map, default_probes, fault_scan
from .matpoly import (
    EigenReport,
    MatrixPolynomial,
    WeightPolynomial,
    eigenvalues,
    geometric_multiplicity,
    max_norm,
)
from .perturbations import certify_multiple, distance_to_multiple
from .pseudospectrum import (
    DEFAULT_GRID,
    GridSpec,
    Levels,
    components,
    compute_field,
    default_window,
)
from .svdcore import F_eps, singular_values_many


@dataclass(frozen=True)
class ProblemSpec:
    """Parsed problem: polynomial, weight, optional window and level list."""

    polynomial: MatrixPolynomial
    weight: WeightPolynomial
    window: GridSpec | None
    epsilons: tuple


@dataclass
class RunReport:
    command: str
    input_digest: str
    outputs: list
    wall_time: float
    warnings: list
    stats: str = ""  # a command's work summary for the stderr line


# ---------------------------------------------------------------------------
# parsing


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InputError(msg)


def _number(value, where: str) -> float:
    """A JSON number, an int or a float but never a bool, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer literal beyond the float range
        raise InputError(f"{where}: {exc}") from exc


def _real_matrix(rows, n: int, where: str) -> np.ndarray:
    _require(
        isinstance(rows, list)
        and len(rows) == n
        and all(isinstance(row, list) and len(row) == n for row in rows),
        f"{where}: expected {n} rows of {n} numbers",
    )
    return np.array([[_number(x, where) for x in row] for row in rows])


def _parse_matrix(entry, n: int, where: str) -> np.ndarray:
    _require(isinstance(entry, dict), f"{where}: expected an object with 're'/'im'")
    re = entry.get("re")
    im = entry.get("im")
    _require(re is not None, f"{where}.re: missing")
    re_arr = _real_matrix(re, n, f"{where}.re")
    im_arr = np.zeros((n, n)) if im is None else _real_matrix(im, n, f"{where}.im")
    _require(
        np.isfinite(re_arr).all() and np.isfinite(im_arr).all(),
        f"{where}: entries must be finite",
    )
    return re_arr + 1j * im_arr


def _build_weight(doc, P: MatrixPolynomial) -> WeightPolynomial:
    _require(isinstance(doc, dict), "weight: expected an object")
    mode = doc.get("mode")
    _require(
        mode in ("constant", "unit", "coefficient_norms", "custom"),
        f"weight.mode: expected one of constant|unit|coefficient_norms|custom, got {mode!r}",
    )
    if mode == "unit":
        return WeightPolynomial([1.0])
    if mode == "constant":
        value = _number(doc.get("value", 1.0), "weight.value")
        _require(value > 0, "weight.value: must be positive")
        return WeightPolynomial([value])
    if mode == "coefficient_norms":
        norms = P.coefficient_norms
        _require(norms[0] > 0, "weight.mode coefficient_norms: ||P_0|| is zero, w_0 would vanish")
        return WeightPolynomial(norms)
    vals = doc.get("values")
    _require(isinstance(vals, list) and vals, "weight.values: expected a nonempty list")
    _require(
        len(vals) <= P.m + 1,
        f"weight.values: {len(vals)} entries exceed m+1 = {P.m + 1}",
    )
    return WeightPolynomial([_number(v, f"weight.values[{k}]") for k, v in enumerate(vals)])


def _parse_window(doc) -> GridSpec:
    _require(isinstance(doc, dict), "window: expected an object")
    sizes = {key: doc.get(key, DEFAULT_GRID) for key in ("nx", "ny")}
    for key, size in sizes.items():  # a JSON integer: not a float, string or bool
        _require(type(size) is int, f"window.{key}: expected an integer, got {size!r}")
    bounds = {}
    for key in ("x_min", "x_max", "y_min", "y_max"):
        _require(key in doc, f"window.{key}: missing")
        bounds[key] = _number(doc[key], f"window.{key}")
    try:
        return GridSpec(**bounds, **sizes)
    except PreconditionError as exc:
        raise InputError(f"window: {exc}") from exc


_POSITIVE = (lambda v: 0.0 < v < np.inf, "finite and positive")

# Numeric flags: the test every value must pass, and its description.
_FLAG_CHECKS = {
    "eps": _POSITIVE,
    "eps_max": _POSITIVE,
    "mu": (np.isfinite, "finite"),
    "seed": (np.isfinite, "finite"),
}


def _check_values(values, name: str, where: str) -> None:
    ok, what = _FLAG_CHECKS[name]
    _require(all(ok(v) for v in np.ravel(values)), f"{where}: entries must be {what}")


def _check_flags(args) -> None:
    """Reject a numeric flag value that the command cannot use."""
    for name in _FLAG_CHECKS:
        values = getattr(args, name, None)
        if values is not None:
            _check_values(values, name, "--" + name.replace("_", "-"))


def parse_problem(text: str) -> ProblemSpec:
    """Parse a problem-specification JSON document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "top level: expected an object")
    n = doc.get("n")
    m = doc.get("m")
    _require(type(n) is int and n >= 1, "n: expected a positive integer")
    _require(type(m) is int and m >= 0, "m: expected a nonnegative integer")
    coeffs_doc = doc.get("coefficients")
    _require(isinstance(coeffs_doc, list), "coefficients: expected a list")
    _require(
        len(coeffs_doc) == m + 1,
        f"coefficients: expected m+1 = {m + 1} matrices, got {len(coeffs_doc)}",
    )
    coeffs = [
        _parse_matrix(entry, n, f"coefficients[{j}]") for j, entry in enumerate(coeffs_doc)
    ]
    P = MatrixPolynomial(coeffs)
    weight = _build_weight(doc.get("weight", {"mode": "unit"}), P)
    window = _parse_window(doc["window"]) if "window" in doc else None
    eps_doc = doc.get("epsilons", [])
    _require(isinstance(eps_doc, list), "epsilons: expected a list")
    epsilons = tuple(_number(e, f"epsilons[{k}]") for k, e in enumerate(eps_doc))
    _check_values(epsilons, "eps", "epsilons")
    return ProblemSpec(polynomial=P, weight=weight, window=window, epsilons=epsilons)


# ---------------------------------------------------------------------------
# output helpers


def _emit(report: RunReport, path: str, text) -> None:
    """Write one output file atomically and record it for the final
    missing-or-empty check.  ``text`` is a string or an iterable of strings,
    written one at a time."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".polyspectra-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    report.outputs.append(path)


def _matrix_doc(M: np.ndarray) -> dict:
    return {
        "im": [[float(x) for x in row] for row in M.imag],
        "re": [[float(x) for x in row] for row in M.real],
    }


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv_lines(header: str, rows):
    """The ``header`` line and the strings ``rows``, each one or more lines,
    as the pieces of one file's text, so that a writer holds one row string
    at a time."""
    yield header + "\n"
    for row in rows:
        yield row + "\n"


def _field_rows(window: GridSpec, values: np.ndarray):
    """``x,y,value`` rows of a sampled field, x-major, one string per grid
    row: a ``%`` template built once from the y strings takes the row's x
    and then its values (``%.17g`` formats as ``f"{v:.17g}"`` does)."""
    xs = [f"{x:.17g}," for x in window.xs().tolist()]
    template = "\n".join(f"\0{y:.17g},%.17g" for y in window.ys().tolist())
    return (template.replace("\0", x) % tuple(row.tolist()) for x, row in zip(xs, values))


def _complex_doc(z: complex) -> dict:
    return {"im": float(z.imag), "re": float(z.real)}


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


def _svg_document(window: GridSpec, layers, markers, extra_points=()) -> str:
    """Minimal deterministic SVG: contour polylines per level, '+' markers
    at eigenvalues, dots for extra points."""
    width, height = 720.0, 720.0 * (window.y_max - window.y_min) / (
        window.x_max - window.x_min
    )
    sx = width / (window.x_max - window.x_min)
    sy = height / (window.y_max - window.y_min)

    def tx(x: float) -> float:
        return (x - window.x_min) * sx

    def ty(y: float) -> float:
        return height - (y - window.y_min) * sy

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<!-- polyspectra {__version__} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    for idx, (level, polylines) in enumerate(layers):
        color = _PALETTE[idx % len(_PALETTE)]
        out.append(f'<g stroke="{color}" fill="none" stroke-width="1.2" '
                   f'data-level="{level:.17g}">')
        for poly in polylines:
            pts = " ".join(f"{tx(x):.2f},{ty(y):.2f}" for x, y in poly)
            out.append(f'<polyline points="{pts}"/>')
        out.append("</g>")
    arm = 5.0
    out.append('<g stroke="black" stroke-width="1.5">')
    for z in markers:
        cx, cy = tx(z.real), ty(z.imag)
        out.append(f'<line x1="{cx - arm:.2f}" y1="{cy:.2f}" x2="{cx + arm:.2f}" y2="{cy:.2f}"/>')
        out.append(f'<line x1="{cx:.2f}" y1="{cy - arm:.2f}" x2="{cx:.2f}" y2="{cy + arm:.2f}"/>')
    out.append("</g>")
    if len(extra_points):
        out.append('<g fill="#444444">')
        for z in extra_points:
            out.append(f'<circle cx="{tx(z.real):.2f}" cy="{ty(z.imag):.2f}" r="1.6"/>')
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _resolve_window(
    spec: ProblemSpec,
    args,
    eigen: EigenReport | None = None,
    eps_for_margin: float = 0.0,
) -> GridSpec | None:
    """The window of ``--window`` or of the document, sized by ``--grid``
    (``--window`` alone takes DEFAULT_GRID points per axis); else the
    default window around ``eigen``, or None without ``eigen``."""
    grid = getattr(args, "grid", None)
    nx, ny = (int(grid[0]), int(grid[1])) if grid is not None else (DEFAULT_GRID, DEFAULT_GRID)
    if args.window is not None:
        xmin, xmax, ymin, ymax = (float(v) for v in args.window)
        return GridSpec(x_min=xmin, x_max=xmax, y_min=ymin, y_max=ymax, nx=nx, ny=ny)
    if spec.window is not None:
        return spec.window if grid is None else replace(spec.window, nx=nx, ny=ny)
    if eigen is None:
        return None
    return default_window(
        spec.polynomial, spec.weight, eps_max=eps_for_margin, nx=nx, ny=ny, eigen=eigen
    )


def _contour_layers(window: GridSpec, field, eps_list) -> list:
    """(level, polylines) for each level, as ``_svg_document`` draws them."""
    return [(eps, marching_squares(window, field.values, eps)) for eps in eps_list]


def _resolve_epsilons(spec: ProblemSpec, args) -> tuple:
    if args.eps is not None:
        return tuple(float(e) for e in args.eps)
    if spec.epsilons:
        return spec.epsilons
    # logarithmic sweep scaled by the polynomial's max norm
    scale = max_norm(spec.polynomial)
    return tuple(float(e) * scale for e in np.geomspace(1e-4, 1e-1, 7))


# ---------------------------------------------------------------------------
# commands


def _cmd_eigs(spec: ProblemSpec, args, report: RunReport) -> None:
    P = spec.polynomial
    eigen = eigenvalues(P)
    rows = [
        {
            "algebraic": int(mult),
            "geometric": geometric_multiplicity(P, lam),
            "im": float(lam.imag),
            "re": float(lam.real),
        }
        for lam, mult in zip(eigen.eigenvalues, eigen.multiplicities)
    ]
    print(f"{'eigenvalue':>28}  {'algebraic':>9}  {'geometric':>9}")
    for r in rows:
        print(f"{r['re']:>14.6g} {r['im']:>+12.6g}i  {r['algebraic']:>9}  {r['geometric']:>9}")
    if args.json:
        doc = {
            "cluster_radius": eigen.cluster_radius,
            "eigenvalues": rows,
            "total_multiplicity": eigen.total_multiplicity,
        }
        _emit(report, args.json, _json_text(doc))


def _cmd_field(spec: ProblemSpec, args, report: RunReport) -> None:
    P, w = spec.polynomial, spec.weight
    eps_list = _resolve_epsilons(spec, args)
    eigen = eigenvalues(P)
    window = _resolve_window(spec, args, eigen, eps_for_margin=max(eps_list))
    field = compute_field(P, w, window)
    if args.csv:
        _emit(report, args.csv, _csv_lines("x,y,value", _field_rows(window, field.values)))
    if args.svg:
        layers = _contour_layers(window, field, eps_list)
        _emit(report, args.svg, _svg_document(window, layers, eigen.eigenvalues))
    if args.json:
        doc = {
            "epsilons": list(eps_list),
            "grid": {"nx": window.nx, "ny": window.ny},
            "value_max": float(field.values.max()),
            "value_min": float(field.values.min()),
            "window": {
                "x_max": window.x_max,
                "x_min": window.x_min,
                "y_max": window.y_max,
                "y_min": window.y_min,
            },
        }
        _emit(report, args.json, _json_text(doc))


def _cmd_components(spec: ProblemSpec, args, report: RunReport) -> None:
    P, w = spec.polynomial, spec.weight
    eps_list = _resolve_epsilons(spec, args)
    eigen = eigenvalues(P)
    window = _resolve_window(spec, args, eigen, eps_for_margin=max(eps_list))
    # the counts depend only on the nodes' sides of each level
    levels = Levels(spans=tuple((eps, eps) for eps in eps_list), exact=tuple(eigen.eigenvalues))
    field = compute_field(P, w, window, levels)
    report.stats = f"points={field.decomposed}/{field.values.size}"
    docs = []
    for eps in eps_list:
        rep = components(field, eps, eigen)
        if not all(rep.bounded.values()):
            report.warnings.append(
                f"eps={eps:.6g}: some components touch the window edge "
                "(unbounded within the window)"
            )
        docs.append(
            {
                "components": [
                    {
                        "bounded": rep.bounded[lab],
                        "eigenvalues": [
                            {"im": z.imag, "multiplicity": mult, "re": z.real}
                            for z, mult in rep.eigen_assignment[lab]
                        ],
                        "label": lab,
                    }
                    for lab in sorted(rep.eigen_assignment)
                ],
                "count": rep.count,
                "epsilon": eps,
            }
        )
        print(f"eps={eps:.6g}: {rep.count} component(s)")
    if args.json:
        _emit(report, args.json, _json_text({"reports": docs}))


def _cmd_trace(spec: ProblemSpec, args, report: RunReport) -> None:
    P, w = spec.polynomial, spec.weight
    eps_list = _resolve_epsilons(spec, args)
    eigen = eigenvalues(P)
    window = _resolve_window(spec, args, eigen, eps_for_margin=max(eps_list))

    seeds = [complex(re, im) for re, im in args.seed or ()]
    tol = on_curve_tolerance(P)
    for eps in eps_list:
        for seed in seeds:
            f = float(F_eps(P, w, eps, seed))
            if abs(f) > tol:
                raise PreconditionError(
                    f"seed {seed:.6g} is not on the eps={eps:.6g} curve: |F_eps| = {abs(f):.3e}"
                )
    traced = boundary_curves(P, w, compute_field(P, w, window), eps_list)
    curves = []
    for eps, level in zip(eps_list, traced.curves):
        if not level:
            report.warnings.append(f"eps={eps:.6g}: no boundary curve in the window")
        if not seeds:
            curves += [(eps, c) for c in level]
        for seed in seeds:
            k, gap = nearest_curve(level, seed)
            if gap > window.cell_diagonal:
                raise PreconditionError(
                    f"seed {seed:.6g} is on the eps={eps:.6g} curve, but no traced piece"
                    f" passes within a cell of it (nearest {gap:.3e}); a finer grid or"
                    " a window around the seed may reach it"
                )
            curves.append((eps, level[k]))
    if not curves:
        raise SeedNotFoundError("no boundary curve in the window for any requested level")
    if args.csv:
        rows = (
            "\n".join([f"{cid},%.17g,%.17g"] * len(curve.points))
            % tuple(np.column_stack((curve.points.real, curve.points.imag)).ravel().tolist())
            for cid, (_, curve) in enumerate(curves)
        )
        _emit(report, args.csv, _csv_lines("curve_id,x,y", rows))
    if args.svg:
        layers = [
            (eps, [np.column_stack([c.points.real, c.points.imag]) for e, c in curves if e == eps])
            for eps in eps_list
        ]
        _emit(report, args.svg, _svg_document(window, layers, eigen.eigenvalues))
    if args.json:
        doc = {
            "curves": [
                {
                    "closed": c.closed,
                    "epsilon": eps,
                    "points": len(c.points),
                    "termination": c.termination.value,
                }
                for eps, c in curves
            ]
        }
        _emit(report, args.json, _json_text(doc))
    for eps, c in curves:
        print(f"eps={eps:.6g}: {len(c.points)} points, termination={c.termination.value}")
    ends = Counter(c.termination for _, c in curves)
    report.stats = (
        "curves " + " ".join(f"{t.value}={ends[t]}" for t in Termination if ends[t])
        + f" rounds={traced.rounds} points={traced.points} frozen={traced.frozen}"
    )


def _cmd_faults(spec: ProblemSpec, args, report: RunReport) -> None:
    P = spec.polynomial
    eigen = eigenvalues(P)
    window = _resolve_window(spec, args, eigen)
    smap = build_surface_map(P, default_probes(window))
    # one grid SVD gives both the collapsed gap and the contour levels
    contoured = bool(args.svg) and args.eps is not None
    svals = singular_values_many(P, window.points()) if contoured else None
    rep = fault_scan(P, window, smap, svals=svals)
    print(f"fault scan: {len(rep.refined_points)} refined point(s), empty={rep.empty}")
    report.stats = (
        f"cells={len(rep.cells)} steps={rep.steps} dropped={rep.dropped}"
        f" left_window={rep.left_window}"
    )
    if args.json:
        doc = {
            "c1": smap.c1,
            "c2": smap.c2,
            "cells": len(rep.cells),
            "empty": rep.empty,
            "refined_points": [
                {"gap": float(g), "im": z.imag, "re": z.real}
                for z, g in zip(rep.refined_points, rep.refined_gaps)
            ],
        }
        _emit(report, args.json, _json_text(doc))
    if args.svg:
        layers = []
        if contoured:
            field = compute_field(P, spec.weight, window, svals=svals)
            layers = _contour_layers(window, field, args.eps)
        svg = _svg_document(window, layers, eigen.eigenvalues, rep.refined_points)
        _emit(report, args.svg, svg)


def _perturbation_doc(pset) -> list:
    return [_matrix_doc(np.asarray(D)) for D in pset.deltas]


def _certificate_doc(cert) -> dict:
    q_hat_poly = cert.q_hat.polynomial()
    q_tilde_poly = cert.q_tilde.polynomial()
    return {
        "constant_weight_substituted": cert.constant_weight_substituted,
        "criterion": None if cert.criterion is None else _complex_doc(cert.criterion),
        "defective": cert.defective,
        "delta": cert.delta,
        "delta_norms": [float(x) for x in cert.q_hat.norms()],
        "geometric_multiplicity": cert.geometric_mult,
        "mu": _complex_doc(cert.mu),
        "q_hat_coefficients": [_matrix_doc(C) for C in q_hat_poly.coeffs],
        "q_hat_deltas": _perturbation_doc(cert.q_hat),
        "q_tilde_coefficients": [_matrix_doc(C) for C in q_tilde_poly.coeffs],
        "q_tilde_deltas": _perturbation_doc(cert.q_tilde),
        "residual": cert.residual,
        "residual_tilde": cert.residual_tilde,
    }


def _cmd_distance(spec: ProblemSpec, args, report: RunReport) -> None:
    P, w = spec.polynomial, spec.weight
    eps_max = args.eps_max if args.eps_max is not None else 0.1 * max_norm(P)
    grid = {} if args.grid is None else {"nx": args.grid[0], "ny": args.grid[1]}
    window = _resolve_window(spec, args)
    result = distance_to_multiple(P, w, eps_max, window=window, **grid)
    cert = result.certificate
    print(
        f"r = {result.r:.6g} at mu = {cert.mu.real:.6g}{cert.mu.imag:+.6g}i "
        f"(geometric multiplicity {cert.geometric_mult}, defective={cert.defective})"
    )
    report.stats = "points={}/{}".format(*result.points)
    if cert.constant_weight_substituted:
        report.warnings.append("constant weight substituted at mu = 0")
    if args.json:
        doc = {
            "bracket": [result.bracket[0], result.bracket[1]],
            "certificate": _certificate_doc(cert),
            "origin_case": result.origin_case,
            "r": result.r,
            "saddle_on_fault": result.saddle.on_fault,
        }
        _emit(report, args.json, _json_text(doc))


def _cmd_perturb(spec: ProblemSpec, args, report: RunReport) -> None:
    P, w = spec.polynomial, spec.weight
    if args.mu is None:
        raise PreconditionError("perturb requires --mu RE IM")
    mu = complex(args.mu[0], args.mu[1])
    cert = certify_multiple(P, w, mu)
    print(
        f"mu = {mu.real:.6g}{mu.imag:+.6g}i: delta = {cert.delta:.6g}, "
        f"geometric multiplicity {cert.geometric_mult}, defective={cert.defective}"
    )
    if cert.constant_weight_substituted:
        report.warnings.append("constant weight substituted at mu = 0")
    if args.json:
        _emit(report, args.json, _json_text({"certificate": _certificate_doc(cert)}))


# Each command and the flags it reads besides --input; it rejects any other.
_COMMANDS = {
    "eigs": (_cmd_eigs, "json"),
    "field": (_cmd_field, "eps grid window json csv svg"),
    "components": (_cmd_components, "eps grid window json"),
    "trace": (_cmd_trace, "eps window seed json csv svg"),
    "faults": (_cmd_faults, "eps grid window json svg"),
    "distance": (_cmd_distance, "eps-max grid window json"),
    "perturb": (_cmd_perturb, "mu json"),
}

_FLAGS = {
    "eps": dict(type=float, nargs="+", help="level value(s)"),
    "grid": dict(type=int, nargs=2, metavar=("NX", "NY")),
    "window": dict(type=float, nargs=4, metavar=("XMIN", "XMAX", "YMIN", "YMAX")),
    "seed": dict(
        type=float, nargs=2, action="append", metavar=("RE", "IM"),
        help="on-curve point (repeatable) selecting the nearest curve of each level",
    ),
    "eps-max": dict(type=float),
    "mu": dict(type=float, nargs=2, metavar=("RE", "IM")),
    "json": dict(help="write a JSON report here"),
    "csv": dict(help="write CSV data here"),
    "svg": dict(help="write an SVG figure here"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyspectra",
        description="Weighted pseudospectra of matrix polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("eigs", "eigenvalues with algebraic and geometric multiplicities"),
        ("field", "sample the s_min/w landscape; CSV / contour SVG"),
        ("components", "sublevel component counts and eigenvalue assignment"),
        ("trace", "boundary curves: field contours polished onto the level curve"),
        ("faults", "surface-crossing (fault) point scan"),
        ("distance", "distance to the nearest polynomial with a multiple eigenvalue"),
        ("perturb", "explicit boundary perturbations at a chosen point"),
    ):
        # no abbreviations: ``distance --eps`` would otherwise mean --eps-max
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        # argparse takes "-1e-05" for an option: its negative-number pattern
        # has no exponent.  No option name starts with a digit or a point.
        p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
        p.add_argument("--input", required=True, help="problem JSON file")
        for flag in _COMMANDS[name][1].split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    report = RunReport(
        command=args.command, input_digest="", outputs=[], wall_time=0.0, warnings=[]
    )
    try:
        with open(args.input, "rb") as fh:
            raw = fh.read()
        report.input_digest = hashlib.sha256(raw).hexdigest()[:16]
        spec = parse_problem(raw.decode("utf-8"))
        _check_flags(args)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _COMMANDS[args.command][0](spec, args, report)
        report.warnings.extend(str(w.message) for w in caught)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 4
    except (NumericalError, PolyspectraError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    report.wall_time = time.perf_counter() - t0
    for path in report.outputs:
        if not (os.path.exists(path) and os.path.getsize(path) > 0):
            print(f"error: output {path} missing or empty", file=sys.stderr)
            return 3
    summary = (
        f"[polyspectra] {report.command} input={report.input_digest} "
        f"wall={report.wall_time:.2f}s outputs={report.outputs or '[]'}"
    )
    if report.stats:
        summary += f" {report.stats}"
    if report.warnings:
        summary += f" warnings={report.warnings}"
    print(summary, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
