"""Correctness checks on the CLI's output files.

Every check compares against a property or an independent computation
(direct SVDs of sum_j P_j lambda**j by explicit powers, a QZ solve of the
companion pencil, the workload references), never against output bytes or
tracer termination reasons, so a change that fixes the program is not
flagged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

import gen
from workloads import LANDSCAPE_REFS, Op

# Tolerances, relative to 1 + s_1 at the point unless noted.
FIELD_RTOL = 1e-10
FAULT_GAP_RTOL = 1e-8
# The program's RESIDUAL_RTOL; relative to 1 + ||Q(mu)||.
RESIDUAL_RTOL = 1e-8
# The program's on-curve tolerance, relative to 1 + max_j ||P_j||.
ON_CURVE_RTOL = 1e-9
R_RTOL = 1e-6
DELTA_RTOL = 1e-9
EIG_RTOL = 1e-6
FIELD_SAMPLES = 24
TRACE_SAMPLES = 16


@dataclass(frozen=True)
class Problem:
    """A generated problem as the benchmark knows it."""

    doc: dict
    coeffs: list
    weights: list

    @classmethod
    def from_doc(cls, doc: dict) -> "Problem":
        coeffs = gen.coefficients(doc)
        return cls(doc=doc, coeffs=coeffs, weights=gen.weight_values(doc, coeffs))

    def svals(self, lam: complex) -> np.ndarray:
        return np.linalg.svd(gen.evaluate(self.coeffs, lam), compute_uv=False)

    def weight(self, lam: complex) -> float:
        return gen.weight_at(self.weights, abs(lam))

    def grid(self, op: Op) -> tuple:
        if op.grid is not None:
            return op.grid
        return self.doc["window"]["nx"], self.doc["window"]["ny"]


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path: str, columns: int) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2:
        return np.zeros((0, columns))
    return np.array(",".join(lines[1:]).split(","), dtype=float).reshape(-1, columns)


def _complex(d: dict) -> complex:
    return complex(d["re"], d["im"])


class Checker:
    """Runs the check for each operation.  Field values parsed from a
    ``field`` op are kept for the ``components`` op on the same problem."""

    def __init__(self, problems: dict, seed: int):
        self.problems = problems
        self.seed = seed
        self.fields: dict = {}

    def check(self, index: int, op: Op, outputs: dict) -> list:
        """Error messages for one op's outputs; empty when they are right."""
        rng = np.random.default_rng([self.seed, index])
        return getattr(self, "_" + op.command)(op, outputs, self.problems[op.problem], rng)

    def _field(self, op, outputs, prob, rng) -> list:
        nx, ny = prob.grid(op)
        rows = _read_csv(outputs["csv"], 3)
        if rows.shape[0] != nx * ny:
            return [f"field CSV has {rows.shape[0]} rows, expected {nx * ny}"]
        errors = []
        for k in rng.choice(rows.shape[0], FIELD_SAMPLES, replace=False):
            x, y, value = rows[k]
            lam = complex(x, y)
            s = prob.svals(lam)
            if abs(value * prob.weight(lam) - s[-1]) > FIELD_RTOL * (1.0 + s[0]):
                errors.append(f"field value {value!r} at {lam} != s_min/w = {s[-1] / prob.weight(lam)!r}")
        values = rows[:, 2].reshape(nx, ny)
        self.fields[op.problem] = values
        if "json" in outputs:
            doc = _read_json(outputs["json"])
            if (doc["value_min"], doc["value_max"]) != (values.min(), values.max()):
                errors.append("field JSON value_min/value_max disagree with the CSV")
        return errors

    def _components(self, op, outputs, prob, rng) -> list:
        reports = _read_json(outputs["json"])["reports"]
        levels = [r["epsilon"] for r in reports]
        if levels != prob.doc["epsilons"]:
            return [f"components levels {levels} != input levels {prob.doc['epsilons']}"]
        counts = tuple(r["count"] for r in reports)
        if op.problem in LANDSCAPE_REFS:
            expected = LANDSCAPE_REFS[op.problem].counts
        else:
            # 8-connected labeling of the field checked earlier in the pass
            values = self.fields[op.problem]
            structure = np.ones((3, 3), dtype=int)
            expected = tuple(ndimage.label(values <= e, structure=structure)[1] for e in levels)
        if counts != expected:
            return [f"component counts {counts} != expected {expected}"]
        return []

    def _certificate(self, cert: dict, prob: Problem, mu: complex) -> list:
        errors = []
        n = prob.doc["n"]
        sh, st = (
            np.linalg.svd(
                gen.evaluate(gen.coefficients({"n": n, "coefficients": cert[key]}), mu),
                compute_uv=False,
            )
            for key in ("q_hat_coefficients", "q_tilde_coefficients")
        )
        bound = RESIDUAL_RTOL * (1.0 + sh[0])
        if max(sh[-1], st[-1]) > bound:
            errors.append(f"certificate residuals {sh[-1]:.3e}, {st[-1]:.3e} exceed {bound:.3e}")
        s = prob.svals(mu)
        delta = s[-1] / prob.weight(mu)
        if abs(cert["delta"] - delta) > DELTA_RTOL * delta:
            errors.append(f"certificate delta {cert['delta']!r} != s_min/w = {delta!r}")
        return errors

    def _distance(self, op, outputs, prob, rng) -> list:
        doc = _read_json(outputs["json"])
        ref = LANDSCAPE_REFS[op.problem]
        errors = []
        if abs(doc["r"] - ref.r) > R_RTOL * ref.r:
            errors.append(f"distance r = {doc['r']!r}, reference {ref.r!r}")
        cert = doc["certificate"]
        return errors + self._certificate(cert, prob, _complex(cert["mu"]))

    def _perturb(self, op, outputs, prob, rng) -> list:
        cert = _read_json(outputs["json"])["certificate"]
        mu = LANDSCAPE_REFS[op.problem].mu
        if _complex(cert["mu"]) != mu:
            return [f"certificate at {_complex(cert['mu'])}, requested {mu}"]
        return self._certificate(cert, prob, mu)

    def _trace(self, op, outputs, prob, rng) -> list:
        curves = _read_json(outputs["json"])["curves"]
        rows = _read_csv(outputs["csv"], 3)
        tol = ON_CURVE_RTOL * (1.0 + max(np.linalg.norm(C, 2) for C in prob.coeffs))
        errors = []
        for cid, curve in enumerate(curves):
            pts = rows[rows[:, 0] == cid]
            if len(pts) != curve["points"]:
                errors.append(f"curve {cid}: {len(pts)} CSV points, JSON says {curve['points']}")
                continue
            eps = curve["epsilon"]
            for k in rng.choice(len(pts), min(TRACE_SAMPLES, len(pts)), replace=False):
                lam = complex(pts[k, 1], pts[k, 2])
                F = prob.svals(lam)[-1] - eps * prob.weight(lam)
                if abs(F) > tol:
                    errors.append(f"curve {cid}: |F_eps({lam})| = {abs(F):.3e} > {tol:.3e}")
        return errors

    def _faults(self, op, outputs, prob, rng) -> list:
        doc = _read_json(outputs["json"])
        c1, c2 = doc["c1"], doc["c2"]
        errors = []
        if len(doc["refined_points"]) > doc["cells"]:
            errors.append(f"{len(doc['refined_points'])} fault points from {doc['cells']} cells")
        for p in doc["refined_points"]:
            lam = _complex(p)
            s = prob.svals(lam)
            gap = s[c2 - 1] - s[c1 - 1]
            if gap > FAULT_GAP_RTOL * (1.0 + s[0]):
                errors.append(f"fault point {lam}: direct gap {gap:.3e}")
        return errors

    def _eigs(self, op, outputs, prob, rng) -> list:
        doc = _read_json(outputs["json"])
        n, m = prob.doc["n"], prob.doc["m"]
        if doc["total_multiplicity"] != n * m:
            return [f"total multiplicity {doc['total_multiplicity']} != n*m = {n * m}"]
        reported = np.array([_complex(e) for e in doc["eigenvalues"]])
        mults = [e["algebraic"] for e in doc["eigenvalues"]]
        qz = gen.eigenvalues(prob.coeffs)
        nearest = [int(np.argmin(np.abs(reported - z))) for z in qz]
        errors = []
        for k, z in enumerate(reported):
            if nearest.count(k) != mults[k]:
                errors.append(f"eigenvalue {z}: multiplicity {mults[k]}, QZ finds {nearest.count(k)}")
        for z, k in zip(qz, nearest):
            if abs(z - reported[k]) > EIG_RTOL * (1.0 + abs(z)):
                errors.append(f"QZ eigenvalue {z} has no reported eigenvalue within tolerance")
        return errors
