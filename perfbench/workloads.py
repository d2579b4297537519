"""The three workloads: which CLI calls one pass makes, and the references
their outputs are checked against.

- ``landscape``: the user's picture, count and distance loop at small n on a
  401 x 401 grid.  Marching squares and output formatting outweigh the SVD.
- ``wide``: one dense n = 16 quadratic on a 201 x 201 grid, where Horner
  evaluation and the batched SVD dominate and contours and CSV are light.
- ``pointwise``: thousands of single-point SVDs along walkers (tracer,
  fault refinement, certificate) and no batched grid SVD in ``trace``.
"""

from __future__ import annotations

from dataclasses import dataclass

import gen


@dataclass(frozen=True)
class Reference:
    """Values every unitarily equivalent copy of a fixture must reproduce.

    ``counts`` are the component counts at the fixture's own levels on the
    401 x 401 grid, ``r`` the distance to a multiple eigenvalue and ``mu``
    a merge point attaining it (the reference saddle).
    """

    eps_max: float
    counts: tuple
    r: float
    mu: complex


LANDSCAPE_REFS = {
    "uptri_quadratic_2x2": Reference(
        0.05, (2, 2, 1, 1), 0.009105495185310057, complex(1.4147304787787185, 0.0)
    ),
    "damped_system_3x3": Reference(
        0.1, (6, 2, 1), 0.02088757869415033, complex(-0.3412963429240235, 1.2694236157717083)
    ),
    "conic_pencil_3x3": Reference(
        0.2, (2, 1, 1), 0.054329452497587506, complex(0.9952496114392373, 0.0)
    ),
    "isolated_fault_pencil_3x3": Reference(
        0.5, (3, 1, 1), 0.3241391681107876, complex(0.40701257422673, -0.40156721587399824)
    ),
    # the merge happens on a surface crossing: exercises the on-fault
    # fallback of the saddle search
    "diag_movable_eigenvalue_2x2": Reference(1.0, (3, 2, 2), 0.64, complex(0.4, 0.0)),
}

LANDSCAPE_GRID = 401

FAULT_FIXTURES = (
    "normal_pencil_3x3",
    "diag_quadratic_pair_2x2",
    "diag_movable_eigenvalue_2x2",
    "damped_system_3x3",
    "isolated_fault_pencil_3x3",
)

# At eps = 1 the tracer on diag_quadratic_pair_2x2 falls into a limit cycle
# and runs to the step limit.  The critical level is traced from this one
# explicit seed (1 + sqrt 2 on the real axis) at the CLI's default
# --max-steps, and left out of the fixture's own level list, which would
# repeat the cycle once per eigenvalue.
LIMIT_CYCLE_FIXTURE = "diag_quadratic_pair_2x2"
LIMIT_CYCLE_EPS = 1.0
LIMIT_CYCLE_SEED = (2.414213562373095, 0.0)


@dataclass(frozen=True)
class Op:
    """One CLI call: ``command --input <problem> *args`` plus the output
    files named in ``outputs`` (a subset of csv, svg, json)."""

    command: str
    problem: str
    args: tuple = ()
    outputs: tuple = ("json",)
    grid: tuple | None = None


def _landscape() -> list:
    grid = ("--grid", str(LANDSCAPE_GRID), str(LANDSCAPE_GRID))
    g = (LANDSCAPE_GRID, LANDSCAPE_GRID)
    ops = []
    for name, ref in LANDSCAPE_REFS.items():
        ops.append(Op("field", name, grid, ("csv", "svg", "json"), g))
        ops.append(Op("components", name, grid, ("json",), g))
        ops.append(Op("distance", name, grid + ("--eps-max", repr(ref.eps_max)), ("json",), g))
    return ops


def _wide() -> list:
    return [
        Op("field", "wide", (), ("csv", "svg")),
        Op("components", "wide", (), ("json",)),
    ]


def _pointwise() -> list:
    ops = []
    for name in gen.fixture_names():
        args = ()
        if name == LIMIT_CYCLE_FIXTURE:
            levels = gen.load_fixture(name)["epsilons"]
            args = ("--eps",) + tuple(repr(e) for e in levels if e != LIMIT_CYCLE_EPS)
        ops.append(Op("trace", name, args, ("csv", "json")))
    ops.append(
        Op(
            "trace",
            LIMIT_CYCLE_FIXTURE,
            ("--eps", repr(LIMIT_CYCLE_EPS), "--seed") + tuple(map(repr, LIMIT_CYCLE_SEED)),
            ("csv", "json"),
        )
    )
    ops += [Op("faults", name, (), ("json", "svg")) for name in FAULT_FIXTURES]
    ops += [Op("eigs", name) for name in gen.fixture_names()]
    ops += [
        Op("perturb", name, ("--mu", repr(ref.mu.real), repr(ref.mu.imag)))
        for name, ref in LANDSCAPE_REFS.items()
    ]
    return ops


WORKLOADS = {"landscape": _landscape, "wide": _wide, "pointwise": _pointwise}


def ops_for(workload: str) -> list:
    return WORKLOADS[workload]()
