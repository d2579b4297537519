"""Command-line front end.

Reads a JSON problem specification, runs the library, and writes
machine-readable reports:

    polyspectra COMMAND --input FILE [FLAGS], where each COMMAND reads:

    eigs        [--json PATH]
    field       [--eps EPS ...] [--grid NX NY] [--window W] [--json/--csv/--svg PATH]
    components  [--eps EPS ...] [--grid NX NY] [--window W] [--json PATH]
    trace       [--eps EPS ...] [--window W] [--seed RE IM]... [--step-size H]
                [--max-steps N] [--json/--csv/--svg PATH]
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
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .contours import marching_squares
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
    GridSpec,
    components,
    compute_field,
    default_window,
    find_boundary_seed,
    trace_boundary,
)
from .svdcore import singular_values_many

_DEFAULT_GRID = 301


@dataclass(frozen=True)
class ProblemSpec:
    """Parsed problem: polynomial, weight choice, optional window and
    level list."""

    polynomial: MatrixPolynomial
    weight: WeightPolynomial
    weight_mode: str
    weight_value: float | None
    custom_weights: tuple | None
    window: GridSpec | None
    epsilons: tuple


@dataclass
class RunReport:
    command: str
    input_digest: str
    outputs: list
    wall_time: float
    warnings: list


# ---------------------------------------------------------------------------
# parsing / serialization


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InputError(msg)


def _parse_matrix(entry, n: int, where: str) -> np.ndarray:
    _require(isinstance(entry, dict), f"{where}: expected an object with 're'/'im'")
    re = entry.get("re")
    im = entry.get("im")
    _require(re is not None, f"{where}.re: missing")
    try:
        re_arr = np.array(re, dtype=float)
        im_arr = np.zeros((n, n)) if im is None else np.array(im, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: non-numeric matrix entry ({exc})") from exc
    _require(re_arr.shape == (n, n), f"{where}.re: expected shape {(n, n)}, got {re_arr.shape}")
    _require(im_arr.shape == (n, n), f"{where}.im: expected shape {(n, n)}, got {im_arr.shape}")
    _require(
        np.isfinite(re_arr).all() and np.isfinite(im_arr).all(),
        f"{where}: entries must be finite",
    )
    return re_arr + 1j * im_arr


def _build_weight(doc, P: MatrixPolynomial):
    _require(isinstance(doc, dict), "weight: expected an object")
    mode = doc.get("mode")
    _require(
        mode in ("constant", "unit", "coefficient_norms", "custom"),
        f"weight.mode: expected one of constant|unit|coefficient_norms|custom, got {mode!r}",
    )
    value = None
    custom = None
    if mode == "unit":
        weight = WeightPolynomial([1.0])
    elif mode == "constant":
        value = doc.get("value", 1.0)
        _require(isinstance(value, (int, float)), "weight.value: expected a number")
        value = float(value)
        _require(value > 0, "weight.value: must be positive")
        weight = WeightPolynomial([value])
    elif mode == "coefficient_norms":
        norms = [float(np.linalg.norm(C, 2)) for C in P.coeffs]
        _require(norms[0] > 0, "weight.mode coefficient_norms: ||P_0|| is zero, w_0 would vanish")
        weight = WeightPolynomial(norms)
    else:
        vals = doc.get("values")
        _require(isinstance(vals, list) and vals, "weight.values: expected a nonempty list")
        _require(
            len(vals) <= P.m + 1,
            f"weight.values: {len(vals)} entries exceed m+1 = {P.m + 1}",
        )
        try:
            custom = tuple(float(v) for v in vals)
        except (TypeError, ValueError) as exc:
            raise InputError(f"weight.values: non-numeric entry ({exc})") from exc
        weight = WeightPolynomial(custom)
    return weight, mode, value, custom


def _parse_window(doc) -> GridSpec:
    _require(isinstance(doc, dict), "window: expected an object")
    try:
        return GridSpec(
            x_min=float(doc["x_min"]),
            x_max=float(doc["x_max"]),
            y_min=float(doc["y_min"]),
            y_max=float(doc["y_max"]),
            nx=int(doc.get("nx", _DEFAULT_GRID)),
            ny=int(doc.get("ny", _DEFAULT_GRID)),
        )
    except KeyError as exc:
        raise InputError(f"window.{exc.args[0]}: missing") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"window: non-numeric field ({exc})") from exc
    except PreconditionError as exc:
        raise InputError(f"window: {exc}") from exc


_POSITIVE = (lambda v: 0.0 < v < np.inf, "finite and positive")

# Numeric flags: the test every value must pass, and its description.
_FLAG_CHECKS = {
    "eps": _POSITIVE,
    "step_size": _POSITIVE,
    "eps_max": _POSITIVE,
    "max_steps": (lambda v: v >= 1, "at least 1"),
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
    _require(isinstance(n, int) and n >= 1, "n: expected a positive integer")
    _require(isinstance(m, int) and m >= 0, "m: expected a nonnegative integer")
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
    weight, mode, value, custom = _build_weight(doc.get("weight", {"mode": "unit"}), P)
    window = _parse_window(doc["window"]) if "window" in doc else None
    eps_doc = doc.get("epsilons", [])
    _require(isinstance(eps_doc, list), "epsilons: expected a list")
    try:
        epsilons = tuple(float(e) for e in eps_doc)
    except (TypeError, ValueError) as exc:
        raise InputError(f"epsilons: non-numeric entry ({exc})") from exc
    _check_values(epsilons, "eps", "epsilons")
    return ProblemSpec(
        polynomial=P,
        weight=weight,
        weight_mode=mode,
        weight_value=value,
        custom_weights=custom,
        window=window,
        epsilons=epsilons,
    )


def _matrix_doc(M: np.ndarray) -> dict:
    return {
        "im": [[float(x) for x in row] for row in M.imag],
        "re": [[float(x) for x in row] for row in M.real],
    }


def serialize_problem(spec: ProblemSpec) -> str:
    """Canonical JSON for a problem; parse -> serialize round-trips
    byte-identically on canonical inputs."""
    doc = {
        "n": spec.polynomial.n,
        "m": spec.polynomial.m,
        "coefficients": [_matrix_doc(C) for C in spec.polynomial.coeffs],
        "weight": {"mode": spec.weight_mode},
    }
    if spec.weight_mode == "constant":
        doc["weight"]["value"] = spec.weight_value
    if spec.weight_mode == "custom":
        doc["weight"]["values"] = list(spec.custom_weights)
    if spec.window is not None:
        doc["window"] = {
            "x_min": spec.window.x_min,
            "x_max": spec.window.x_max,
            "y_min": spec.window.y_min,
            "y_max": spec.window.y_max,
            "nx": spec.window.nx,
            "ny": spec.window.ny,
        }
    if spec.epsilons:
        doc["epsilons"] = list(spec.epsilons)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# output helpers


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".polyspectra-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, doc) -> None:
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_csv(path: str, header: str, rows) -> None:
    """Write the ``header`` line and the row strings ``rows`` as one file."""
    _atomic_write(path, "\n".join([header, *rows]) + "\n")


def _field_rows(window: GridSpec, values: np.ndarray):
    """``x,y,value`` rows of a sampled field, x-major, each x and y
    formatted once; values are converted one row of the grid at a time."""
    xs = [f"{x:.17g}," for x in window.xs().tolist()]
    ys = [f"{y:.17g}," for y in window.ys().tolist()]
    return (f"{x}{y}{v:.17g}" for x, row in zip(xs, values) for y, v in zip(ys, row.tolist()))


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
    spec: ProblemSpec, args, eigen: EigenReport | None = None, eps_for_margin: float = 0.0
) -> GridSpec | None:
    """The window of ``--window`` or of the document, sized by ``--grid``;
    else the default window around ``eigen``, or None without ``eigen``."""
    grid = getattr(args, "grid", None)
    nx, ny = (int(grid[0]), int(grid[1])) if grid is not None else (_DEFAULT_GRID,) * 2
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
        _write_json(args.json, doc)
        report.outputs.append(args.json)


def _cmd_field(spec: ProblemSpec, args, report: RunReport) -> None:
    P, w = spec.polynomial, spec.weight
    eps_list = _resolve_epsilons(spec, args)
    eigen = eigenvalues(P)
    window = _resolve_window(spec, args, eigen, eps_for_margin=max(eps_list))
    field = compute_field(P, w, window)
    if args.csv:
        _write_csv(args.csv, "x,y,value", _field_rows(window, field.values))
        report.outputs.append(args.csv)
    if args.svg:
        layers = _contour_layers(window, field, eps_list)
        _atomic_write(args.svg, _svg_document(window, layers, eigen.eigenvalues))
        report.outputs.append(args.svg)
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
        _write_json(args.json, doc)
        report.outputs.append(args.json)


def _cmd_components(spec: ProblemSpec, args, report: RunReport) -> None:
    P, w = spec.polynomial, spec.weight
    eps_list = _resolve_epsilons(spec, args)
    eigen = eigenvalues(P)
    window = _resolve_window(spec, args, eigen, eps_for_margin=max(eps_list))
    field = compute_field(P, w, window)
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
        _write_json(args.json, {"reports": docs})
        report.outputs.append(args.json)


def _cmd_trace(spec: ProblemSpec, args, report: RunReport) -> None:
    P, w = spec.polynomial, spec.weight
    eps_list = _resolve_epsilons(spec, args)
    eigen = eigenvalues(P)
    window = _resolve_window(spec, args, eigen, eps_for_margin=max(eps_list))

    steps = {} if args.max_steps is None else {"max_steps": args.max_steps}

    def trace(eps: float, seed: complex):
        return trace_boundary(P, w, eps, seed, window, step_size=args.step_size, **steps)

    curves = []
    for eps in eps_list:
        if args.seed is not None:
            curves += [(eps, trace(eps, complex(re, im))) for re, im in args.seed]
            continue
        for lam in eigen.eigenvalues:
            # try the four axis rays; skip combinations with no traceable
            # seed (curve leaves the window, or the seed lands on a corner)
            curve = None
            for direction in (1.0, -1.0, 1j, -1j):
                try:
                    curve = trace(eps, find_boundary_seed(P, w, eps, lam, direction, window))
                    break
                except (SeedNotFoundError, PreconditionError):
                    continue
            if curve is None:
                report.warnings.append(
                    f"eps={eps:.6g}: no traceable seed from eigenvalue {lam:.6g}"
                )
            else:
                curves.append((eps, curve))
    if not curves:
        raise SeedNotFoundError("no traceable boundary seed for any requested level")
    if args.csv:
        rows = (
            f"{cid},{z.real:.17g},{z.imag:.17g}"
            for cid, (_, curve) in enumerate(curves)
            for z in curve.points.tolist()
        )
        _write_csv(args.csv, "curve_id,x,y", rows)
        report.outputs.append(args.csv)
    if args.svg:
        layers = [
            (eps, [np.column_stack([c.points.real, c.points.imag]) for e, c in curves if e == eps])
            for eps in eps_list
        ]
        _atomic_write(args.svg, _svg_document(window, layers, eigen.eigenvalues))
        report.outputs.append(args.svg)
    if args.json:
        doc = {
            "curves": [
                {
                    "closed": c.closed,
                    "epsilon": eps,
                    "interior_curve": c.interior_curve,
                    "points": len(c.points),
                    "termination": c.termination.value,
                }
                for eps, c in curves
            ]
        }
        _write_json(args.json, doc)
        report.outputs.append(args.json)
    for eps, c in curves:
        print(f"eps={eps:.6g}: {len(c.points)} points, termination={c.termination.value}")


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
        _write_json(args.json, doc)
        report.outputs.append(args.json)
    if args.svg:
        layers = []
        if contoured:
            field = compute_field(P, spec.weight, window, svals)
            layers = _contour_layers(window, field, args.eps)
        _atomic_write(
            args.svg,
            _svg_document(window, layers, eigen.eigenvalues, rep.refined_points),
        )
        report.outputs.append(args.svg)


def _perturbation_doc(pset) -> list:
    return [_matrix_doc(np.asarray(D)) for D in pset.deltas]


def _certificate_doc(cert) -> dict:
    q_hat_poly = cert.q_hat.polynomial()
    q_tilde_poly = cert.q_tilde.polynomial()
    return {
        "constant_weight_substituted": cert.constant_weight_substituted,
        "criterion": _complex_doc(cert.criterion),
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
    if result.origin_case:
        report.warnings.append("merge at origin: certificate uses the constant weight")
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
        _write_json(args.json, doc)
        report.outputs.append(args.json)


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
        _write_json(args.json, {"certificate": _certificate_doc(cert)})
        report.outputs.append(args.json)


# Each command and the flags it reads besides --input; it rejects any other.
_COMMANDS = {
    "eigs": (_cmd_eigs, "json"),
    "field": (_cmd_field, "eps grid window json csv svg"),
    "components": (_cmd_components, "eps grid window json"),
    "trace": (_cmd_trace, "eps window seed step-size max-steps json csv svg"),
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
        help="explicit on-curve seed (repeatable); default seeds from eigenvalues",
    ),
    "step-size": dict(type=float),
    "max-steps": dict(type=int),
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
        ("trace", "predictor-corrector boundary curves"),
        ("faults", "surface-crossing (fault) point scan"),
        ("distance", "distance to the nearest polynomial with a multiple eigenvalue"),
        ("perturb", "explicit boundary perturbations at a chosen point"),
    ):
        # no abbreviations: ``distance --eps`` would otherwise mean --eps-max
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
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
    if report.warnings:
        summary += f" warnings={report.warnings}"
    print(summary, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
