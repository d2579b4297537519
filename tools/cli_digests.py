"""Print the sha256 of every CLI output on every fixture.

Runs each of ``eigs field components trace faults distance perturb`` on each
problem in ``fixtures/`` through ``polyspectra.cli.main`` and prints one line
per output file and per captured stdout::

    <command> <fixture> <stream> <sha256>

``distance`` and ``perturb`` run only on the fixtures that have a reference
distance, with the ``--eps-max`` and ``--mu`` values of the benchmark.
``faults`` runs twice: as is, and as ``faults+eps`` with the fixture's own
``epsilons`` passed as ``--eps``, which adds the level curves to its SVG.
``field``, ``components``, ``trace``, ``faults`` and ``distance`` also run as
``<command>+nowindow`` on the ``NO_WINDOW`` fixtures with ``window`` removed
from the document, so they take the default window and grid.
``trace+seed`` traces the ``SEEDED`` fixture at one level from an explicit
``--seed``, the benchmark's explicit-seed operation, so the explicit-seed
path of ``trace`` is digested too.  ``faults+grid401`` runs
``faults --grid 401 401`` on the ``GRID401`` fixtures, whose fault sets are
curves, so that every candidate cell of the largest refinement batches
(hundreds per fixture) is digested.  ``components`` and ``distance`` also
run as ``<command>+grid31`` and ``<command>+grid101`` at ``--grid 31 31``
and ``--grid 101 101``: coarse grids, where some of them exit 3, so their
error messages are digested too.  ``trace``, which has no ``--grid``, runs
as ``trace+grid31`` and ``trace+grid101`` on a copy of the document whose
``window`` has ``nx`` and ``ny`` set to that size.  Every run digests its
stderr without the ``[polyspectra]`` summary line, which holds the wall
time.

``tools/cli_digests.txt`` holds the lines of the current program, made with
``OPENBLAS_NUM_THREADS=2``; ``tests/test_cli_digests.py`` compares them with
a fresh run and names every moved line.  A change that moves an output
regenerates the file in the same commit:

    OPENBLAS_NUM_THREADS=2 python tools/cli_digests.py > tools/cli_digests.txt
    python tools/cli_digests.py --keep out/    # also keep the output files

The package is imported from the ``src/`` next to this script, so each
checkout digests its own code.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from polyspectra.cli import main  # noqa: E402

FIXTURES = ROOT / "fixtures"

# (eps_max, mu) per fixture, as used by the benchmark's landscape and
# pointwise workloads.
REFERENCES = {
    "uptri_quadratic_2x2": (0.05, (1.4147304787787185, 0.0)),
    "damped_system_3x3": (0.1, (-0.3412963429240235, 1.2694236157717083)),
    "conic_pencil_3x3": (0.2, (0.9952496114392373, 0.0)),
    "isolated_fault_pencil_3x3": (0.5, (0.40701257422673, -0.40156721587399824)),
    "diag_movable_eigenvalue_2x2": (1.0, (0.4, 0.0)),
}

# Fixtures also run without their window; the first has a reference distance.
NO_WINDOW = ("uptri_quadratic_2x2", "diag_movable_eigenvalue_2x2")

# (fixture, eps, seed) of the explicit-seed trace, as in the pointwise workload.
SEEDED = ("diag_quadratic_pair_2x2", 1.0, (2.414213562373095, 0.0))

# Fixtures whose faults also run at 401 x 401: the most candidate cells.
GRID401 = ("diag_quadratic_pair_2x2", "normal_pencil_3x3")

# Output files each run writes; a run is a command, or a command and a
# variant of its arguments after a "+".
OUTPUTS = {
    "eigs": ("json",),
    "field": ("csv", "svg", "json"),
    "components": ("json",),
    "trace": ("csv", "svg", "json"),
    "faults": ("json", "svg"),
    "faults+eps": ("json", "svg"),
    "distance": ("json",),
    "perturb": ("json",),
    "field+nowindow": ("csv", "svg", "json"),
    "components+nowindow": ("json",),
    "trace+nowindow": ("csv", "svg", "json"),
    "faults+nowindow": ("json", "svg"),
    "distance+nowindow": ("json",),
    "trace+seed": ("csv", "svg", "json"),
    "faults+grid401": ("json", "svg"),
    "components+grid31": ("json",),
    "components+grid101": ("json",),
    "distance+grid31": ("json",),
    "distance+grid101": ("json",),
    "trace+grid31": ("csv", "svg", "json"),
    "trace+grid101": ("csv", "svg", "json"),
}


def _extra_args(run: str, path: Path) -> list | None:
    name = path.stem
    command, _, variant = run.partition("+")
    if variant == "nowindow" and name not in NO_WINDOW:
        return None
    if variant == "seed":
        fixture, eps, seed = SEEDED
        return ["--eps", repr(eps), "--seed", *map(repr, seed)] if name == fixture else None
    if variant.startswith("grid"):
        if command == "faults" and name not in GRID401:
            return None
        if command == "trace":
            return []  # the grid is set in the document (``_source``)
        size = variant[len("grid"):]
        grid = ["--grid", size, size]
        if command == "distance":
            return None if name not in REFERENCES else grid + ["--eps-max", repr(REFERENCES[name][0])]
        return grid
    if variant == "eps":
        return ["--eps", *(repr(e) for e in json.loads(path.read_text())["epsilons"])]
    if command in ("distance", "perturb"):
        if name not in REFERENCES:
            return None
        eps_max, mu = REFERENCES[name]
        if command == "distance":
            return ["--eps-max", repr(eps_max)]
        return ["--mu", repr(mu[0]), repr(mu[1])]
    return []


def _source(run: str, path: Path, work: Path) -> Path:
    """The document ``run`` reads: the fixture itself, or a copy without
    its window (``+nowindow``) or with its grid size set (``trace+grid``)."""
    command, _, variant = run.partition("+")
    if variant == "nowindow":
        doc = json.loads(path.read_text())
        del doc["window"]
    elif command == "trace" and variant.startswith("grid"):
        doc = json.loads(path.read_text())
        size = int(variant[len("grid"):])
        doc["window"].update(nx=size, ny=size)
    else:
        return path
    source = work / f"{path.stem}.{variant}.json"
    source.write_text(json.dumps(doc))
    return source


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(keep: Path | None) -> None:
    work = Path(tempfile.mkdtemp(prefix="cli_digests_"))
    try:
        for command, kinds in OUTPUTS.items():
            for path in sorted(FIXTURES.glob("*.json")):
                name = path.stem
                extra = _extra_args(command, path)
                if extra is None:
                    continue
                files = {kind: work / f"{command}.{name}.{kind}" for kind in kinds}
                source = _source(command, path, work)
                argv = [command.split("+")[0], "--input", str(source), *extra]
                for kind, out in files.items():
                    argv += [f"--{kind}", str(out)]
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(argv)
                errors = "".join(
                    line for line in stderr.getvalue().splitlines(keepends=True)
                    if not line.startswith("[polyspectra]")
                )
                print(f"{command} {name} exit {code}", flush=True)
                print(f"{command} {name} stdout {_sha(stdout.getvalue().encode())}", flush=True)
                print(f"{command} {name} stderr {_sha(errors.encode())}", flush=True)
                for kind, out in files.items():
                    digest = _sha(out.read_bytes()) if out.exists() else "missing"
                    print(f"{command} {name} {kind} {digest}", flush=True)
                    if keep is not None and out.exists():
                        keep.mkdir(parents=True, exist_ok=True)
                        shutil.copy(out, keep / out.name)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", type=Path, help="copy every output file into this directory")
    run(parser.parse_args().keep)
