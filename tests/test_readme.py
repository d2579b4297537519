"""The README's library tour runs as written.

Every ```` ```python ```` block of README.md is executed in order, in one
namespace, so a renamed or removed API fails here instead of leaving the
tour stale.  A line ``expr  # -> want`` also checks its value: ``expr``
equals ``want`` rounded to as many decimals as ``want`` shows.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks() -> list:
    """Each python block, behind as many blank lines as precede it in the
    README, so a traceback names the README's own line."""
    text = README.read_text()
    return [
        "\n" * text.count("\n", 0, m.start(1)) + m[1]
        for m in re.finditer(r"^```python\n(.*?)^```", text, flags=re.S | re.M)
    ]


def test_the_tour_runs_and_its_results_hold():
    namespace = {"_seen": []}
    for block in _blocks():
        lines = []
        for line in block.splitlines():
            code, arrow, want = line.partition("# ->")
            if arrow:
                lines.append(f"_seen.append(({code.strip()}, {want.strip()!r}))")
            else:
                lines.append(line)
        exec(compile("\n".join(lines), str(README), "exec"), namespace)
    seen = namespace["_seen"]
    assert seen, "the tour states no result"
    for value, want in seen:
        decimals = len(want.partition(".")[2])
        assert round(float(value), decimals) == float(want), (value, want)
