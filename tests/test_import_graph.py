"""The package runs every CLI command without importing scipy.

scipy's ``ndimage`` and ``csgraph`` pull in its array-API layer, which more
than doubles the start of a fresh ``polyspectra`` process, and every CLI
command is a fresh process.  A change that brings scipy back into the
import graph (say, QZ eigenvalues through ``scipy.linalg.eigvals``) edits
this test and records the benchmark's ``setup_s`` cost of the import in
CHANGES.md.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Each command on a small-grid copy of the damped fixture; every one exits 0.
RUN = """
import json, sys
from polyspectra.cli import main
for argv in json.loads(sys.argv[1]):
    rc = main([argv[0], "--input", "damped.json", *argv[1:], "--json", f"{argv[0]}.json"])
    assert rc == 0, (argv, rc)
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")))
"""

COMMANDS = [
    ["eigs"],
    ["field", "--csv", "field.csv", "--svg", "field.svg"],
    ["components"],
    ["trace", "--csv", "trace.csv", "--svg", "trace.svg"],
    ["faults", "--svg", "faults.svg"],
    ["distance", "--eps-max", "0.1", "--grid", "81", "81"],
    ["perturb", "--mu", "-0.3412963429240235", "1.2694236157717083"],
]


def test_no_command_imports_scipy(tmp_path):
    doc = json.loads((ROOT / "fixtures" / "damped_system_3x3.json").read_text())
    doc["window"].update(nx=41, ny=41)
    (tmp_path / "damped.json").write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", RUN, json.dumps(COMMANDS)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == []
