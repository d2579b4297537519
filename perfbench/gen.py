"""Seeded benchmark inputs.

Every base fixture is replaced by a unitarily equivalent copy: each
coefficient P_j becomes U P_j V for one Haar-random unitary pair (U, V)
per fixture, drawn from the workload seed.  Singular values of P(lambda)
are unchanged, so eigenvalues, fields, component counts, fault points,
traced curves and the distance r are the same up to rounding, and the
references in ``workloads.py`` hold on every seed, while the bytes the
program parses differ from seed to seed.

The ``wide`` problem is a dense quadratic with n = 16 drawn from a fixed
base seed, so every run does the same work; the workload seed transforms
it like a fixture.  Its window and levels are chosen here, from this
module's own eigenvalues and direct SVDs, so that every command exits 0.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import scipy.linalg

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

WIDE_N = 16
WIDE_M = 2
WIDE_GRID = 201
_WIDE_BASE_SEED = 16
# Levels as multiples of the largest field value at the grid nodes around
# any eigenvalue; above 1 every eigenvalue's nearest node is in the set.
_WIDE_LEVEL_FACTORS = (1.5, 3.0, 6.0)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed n x n unitary (QR of a complex Gaussian with the
    phases of R's diagonal divided out)."""
    Z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def coefficients(doc: dict) -> list:
    """Coefficient matrices P_0 ... P_m of a problem document."""
    n = doc["n"]
    out = []
    for entry in doc["coefficients"]:
        re = np.array(entry["re"], dtype=float)
        im = np.array(entry.get("im", np.zeros((n, n))), dtype=float)
        out.append(re + 1j * im)
    return out


def with_coefficients(doc: dict, coeffs) -> dict:
    new = dict(doc)
    new["coefficients"] = [
        {"im": C.imag.tolist(), "re": C.real.tolist()} for C in coeffs
    ]
    return new


def load_fixture(name: str) -> dict:
    return json.loads((FIXTURES / f"{name}.json").read_text())


def fixture_names() -> list:
    return sorted(p.stem for p in FIXTURES.glob("*.json"))


def transformed(doc: dict, rng: np.random.Generator) -> dict:
    """The document with every P_j replaced by U P_j V."""
    n = doc["n"]
    U = haar_unitary(rng, n)
    V = haar_unitary(rng, n)
    return with_coefficients(doc, [U @ C @ V for C in coefficients(doc)])


def evaluate(coeffs, lam: complex) -> np.ndarray:
    """sum_j P_j lam**j by explicit powers (not the program's Horner)."""
    return sum(C * lam**j for j, C in enumerate(coeffs))


def weight_values(doc: dict, coeffs) -> list:
    """Weight coefficients w_j the program derives from the document
    (the unit, coefficient_norms and custom modes the inputs use)."""
    mode = doc.get("weight", {"mode": "unit"})["mode"]
    if mode == "unit":
        return [1.0]
    if mode == "coefficient_norms":
        return [float(np.linalg.norm(C, 2)) for C in coeffs]
    return [float(v) for v in doc["weight"]["values"]]


def weight_at(ws, r: float) -> float:
    return float(sum(c * r**j for j, c in enumerate(ws)))


def eigenvalues(coeffs) -> np.ndarray:
    """All nm eigenvalues from the generalized companion pencil A - lam B,
    solved by QZ without inverting the leading coefficient."""
    n, m = coeffs[0].shape[0], len(coeffs) - 1
    A = np.zeros((n * m, n * m), dtype=complex)
    B = np.eye(n * m, dtype=complex)
    for k in range(m - 1):
        A[k * n : (k + 1) * n, (k + 1) * n : (k + 2) * n] = np.eye(n)
    for j in range(m):
        A[(m - 1) * n :, j * n : (j + 1) * n] = -coeffs[j]
    B[(m - 1) * n :, (m - 1) * n :] = coeffs[m]
    return scipy.linalg.eigvals(A, B)


def wide_base() -> dict:
    """The untransformed ``wide`` problem with its window and levels."""
    rng = np.random.default_rng(_WIDE_BASE_SEED)
    n = WIDE_N
    coeffs = [
        (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
        for _ in range(WIDE_M + 1)
    ]
    coeffs[-1] = coeffs[-1] + 2.0 * np.eye(n)
    doc = with_coefficients(
        {"n": n, "m": WIDE_M, "weight": {"mode": "coefficient_norms"}}, coeffs
    )
    eig = eigenvalues(coeffs)
    span = max(np.ptp(eig.real), np.ptp(eig.imag), 1.0)
    pad = 0.25 * span
    window = {
        "x_min": float(eig.real.min() - pad),
        "x_max": float(eig.real.max() + pad),
        "y_min": float(eig.imag.min() - pad),
        "y_max": float(eig.imag.max() + pad),
        "nx": WIDE_GRID,
        "ny": WIDE_GRID,
    }
    doc["window"] = window
    ws = weight_values(doc, coeffs)
    xs = np.linspace(window["x_min"], window["x_max"], WIDE_GRID)
    ys = np.linspace(window["y_min"], window["y_max"], WIDE_GRID)
    floor = 0.0
    for lam in eig:
        i = min(int(np.searchsorted(xs, lam.real)), WIDE_GRID - 1)
        j = min(int(np.searchsorted(ys, lam.imag)), WIDE_GRID - 1)
        for a in (max(i - 1, 0), i):
            for b in (max(j - 1, 0), j):
                node = complex(xs[a], ys[b])
                s = np.linalg.svd(evaluate(coeffs, node), compute_uv=False)
                floor = max(floor, float(s[-1]) / weight_at(ws, abs(node)))
    doc["epsilons"] = [f * floor for f in _WIDE_LEVEL_FACTORS]
    return doc


def generate(seed: int) -> dict:
    """Problem documents by name: every base fixture plus ``wide``, each
    transformed by its own unitary pair drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    docs = {name: transformed(load_fixture(name), rng) for name in fixture_names()}
    docs["wide"] = transformed(wide_base(), rng)
    return docs
