"""The ``trace`` command's batched polish: what its summary line counts and
how a failing round ends the command.

``trace`` polishes every contour vertex of every level together, one
``point_stack`` per Newton round, on a field that decomposes only the
nodes its contours read.
"""

import json
from pathlib import Path

import numpy as np

from polyspectra import contours
from polyspectra.cli import main

CONIC = Path(__file__).resolve().parent.parent / "fixtures" / "conic_pencil_3x3.json"


def run_trace(path, tmp_path, capsys) -> tuple:
    """Exit code, stdout lines, stderr, CSV and JSON of ``trace`` on the
    document ``path``."""
    csv, js = tmp_path / "t.csv", tmp_path / "t.json"
    capsys.readouterr()
    code = main(["trace", "--input", str(path), "--csv", str(csv), "--json", str(js)])
    out, err = capsys.readouterr()
    return code, out.splitlines(), err, csv.read_text(), js.read_text()


class TestPolish:
    def test_summary_line_counts_the_work(self, tmp_path, capsys):
        code, out, err, _, js = run_trace(CONIC, tmp_path, capsys)
        assert code == 0
        ends = [c["termination"] for c in json.loads(js)["curves"]]
        line = next(s for s in err.splitlines() if s.startswith("[polyspectra] trace"))
        assert f"curves closed={ends.count('closed')} " in line
        rounds = int(line.split(" rounds=")[1].split()[0])
        points = int(line.split(" points=")[1].split()[0])
        frozen = int(line.split(" frozen=")[1].split()[0])
        decomposed, size = map(int, line.split(" nodes=")[1].split()[0].split("/"))
        # the first round evaluates every vertex once, and a closed curve
        # repeats its first point
        vertices = sum(c["points"] for c in json.loads(js)["curves"]) - ends.count("closed")
        assert 0 < rounds <= contours._MAX_CORRECTOR_ITERS
        assert vertices + frozen <= points <= rounds * (vertices + frozen)
        # the field decomposes the nodes its contours read, not the grid
        assert 0 < decomposed < size == 241 * 241

    def test_error_in_a_polish_round_fails_the_command(self, tmp_path, capsys, monkeypatch):
        def planted(P, w, lams):
            raise np.linalg.LinAlgError("planted")

        monkeypatch.setattr(contours, "point_stack", planted)
        capsys.readouterr()
        assert main(["trace", "--input", str(CONIC)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: planted" in err
        assert "Traceback" not in err
