"""Every CLI output on every fixture matches its committed digest.

``tools/cli_digests.py`` prints one ``<command> <fixture> <stream> <sha256>``
line per output file, stdout and exit code; ``tools/cli_digests.txt`` holds
the lines of the current program.  A change that moves an output updates
that file in the same commit, so the diff of the file shows what moved.
The tool runs in a subprocess with two OpenBLAS threads, as the committed
file was made.
"""

import os
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _digests(lines) -> dict:
    """``{"<command> <fixture> <stream>": digest}`` of the tool's lines."""
    return dict(line.rsplit(" ", 1) for line in lines if line.strip())


def test_cli_outputs_match_the_committed_digests():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    run = subprocess.run(
        [sys.executable, str(TOOLS / "cli_digests.py")],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    got = _digests(run.stdout.splitlines())
    want = _digests((TOOLS / "cli_digests.txt").read_text().splitlines())
    moved = [key for key in want if got.get(key) != want[key]]
    added = [key for key in got if key not in want]
    assert not moved + added, (
        f"moved: {', '.join(moved) or 'none'}; not in cli_digests.txt: {', '.join(added) or 'none'}"
    )
