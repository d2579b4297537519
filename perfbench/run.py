"""Benchmark of the polyspectra CLI.

    python3 perfbench/run.py --workload {landscape,wide,pointwise,all}
        --seed N --seconds S --trace {0,1}

Runs the real CLI (``polyspectra.cli.main``, in this process) over the
workload's seeded inputs, checks every output, prints a table of metrics
and, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are end to end:
``wall_s`` (median time of one pass of the workload), ``setup_s`` (fresh
interpreter to ``import polyspectra`` plus parsing of the inputs, median of
several) and ``peak_rss_mb``.  With ``--trace 1`` one untraced and one
traced pass give the per-layer metrics and the tracing overhead.

The program is imported from ``src/`` next to this directory; outputs go to
``.bench_work/`` there.  BLAS runs single-threaded.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import Checker, Problem  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import polyspectra\n"
    "from polyspectra.cli import parse_problem\n"
    "for path in sys.argv[2:]:\n"
    "    with open(path, encoding='utf-8') as fh:\n"
    "        parse_problem(fh.read())\n"
)


def machine_stamp() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    llc = "unknown"
    caches = sorted(pathlib.Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    with contextlib.suppress(OSError, ValueError):
        best = max(caches, key=lambda d: int((d / "level").read_text()))
        llc = f"L{(best / 'level').read_text().strip()} {(best / 'size').read_text().strip()}"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "llc": llc,
    }


def high_percentile(samples: list):
    """(p, value) for the highest whole percentile with at least ten samples
    above it, or None with fewer than eleven samples."""
    n = len(samples)
    if n <= 10:
        return None
    p = math.floor(100 * (n - 10) / n)
    ordered = sorted(samples)
    return p, ordered[max(math.ceil(p * n / 100) - 1, 0)]


def measure_setup(inputs: list) -> list:
    """Seconds from starting a fresh interpreter to having imported the
    package and parsed every input, after one untimed warm-up start."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, inputs)]
    times = []
    for k in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        if k:
            times.append(time.perf_counter() - start)
    return times


class Runner:
    """One workload: its inputs, its ops and their output paths."""

    def __init__(self, workload: str, seed: int):
        import polyspectra.cli

        self.main = polyspectra.cli.main
        self.workload = workload
        self.ops = workloads.ops_for(workload)
        self.dir = WORK / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "inputs").mkdir(parents=True)
        docs = gen.generate(seed)
        names = sorted({op.problem for op in self.ops})
        self.inputs = {}
        for name in names:
            path = self.dir / "inputs" / f"{name}.json"
            path.write_text(json.dumps(docs[name], indent=1) + "\n", encoding="utf-8")
            self.inputs[name] = path
        self.checker = Checker({name: Problem.from_doc(docs[name]) for name in names}, seed)
        self.outputs = [
            {ext: str(self.dir / f"{k:02d}-{op.command}-{op.problem}.{ext}") for ext in op.outputs}
            for k, op in enumerate(self.ops)
        ]

    def argv(self, k: int) -> list:
        op = self.ops[k]
        out = ["--input", str(self.inputs[op.problem]), *op.args]
        for ext, path in self.outputs[k].items():
            out += [f"--{ext}", path]
        return [op.command, *out]

    def call(self, main, argv: list):
        """Exit code (or the exception raised), seconds and the captured
        output of one CLI call."""
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                rc = main(argv)
            except (Exception, SystemExit) as exc:  # the op fails; the run goes on
                rc = repr(exc)
            seconds = time.perf_counter() - start
        return rc, seconds, sink.getvalue()

    def warm_up(self) -> None:
        for path in self.inputs.values():
            self.call(self.main, ["eigs", "--input", str(path)])

    def run_pass(self, tracer=None):
        """Seconds per op and the errors found in each op's outputs."""
        times, errors = [], []
        for k, op in enumerate(self.ops):
            main = self.main if tracer is None else tracer.wrap(f"cli.{op.command}", self.main)
            rc, seconds, text = self.call(main, self.argv(k))
            if rc != 0:
                found = [f"exit {rc}: {text.strip()[-300:]}"]
            else:
                try:
                    found = self.checker.check(k, op, self.outputs[k])
                except Exception as exc:  # a malformed output fails the op
                    found = [f"check raised {exc!r}"]
            times.append(seconds)
            errors.append(found)
        return times, errors

    def output_bytes(self) -> int:
        return sum(os.path.getsize(p) for out in self.outputs for p in out.values() if os.path.exists(p))


def _summary(values: list, unit: str) -> str:
    hp = high_percentile(values)
    tail = f"p{hp[0]}={hp[1]:.6g}" if hp else "p-high n/a (<11 samples)"
    return f"{statistics.median(values):>12.6g} {unit:<6} n={len(values):<4} {tail}"


def measure(runner: Runner, seconds: float) -> tuple:
    """Untraced passes until ``seconds`` have elapsed (at least one)."""
    runner.warm_up()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(runner.run_pass())
    inputs = list(runner.inputs.values())
    setup = measure_setup(inputs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines = []
    walls = [sum(t) for t, _ in passes]
    lines.append(f"wall_s       {_summary(walls, 's')}  (one pass)")
    for cmd in tracing.COMMANDS:
        idx = [k for k, op in enumerate(runner.ops) if op.command == cmd]
        if not idx:
            continue
        per_pass = [sum(t[k] for k in idx) for t, _ in passes]
        per_op = [t[k] for t, _ in passes for k in idx]
        lines.append(f"{cmd + '_s':<12} {_summary(per_pass, 's')}  (per pass)")
        lines.append(f"{'  per call':<12} {_summary(per_op, 's')}")
    lines.append(f"setup_s      {_summary(setup, 's')}")
    lines.append(f"peak_rss_mb  {rss_mb:>12.6g} MB")
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    return metrics, [e for _, errs in passes for e in errs], lines


def _unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def traced(runner: Runner) -> tuple:
    """One untraced and one traced pass: per-layer metrics and overhead."""
    runner.warm_up()
    plain, plain_errors = runner.run_pass()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        times, errors = runner.run_pass(tracer)
    finally:
        tracer.uninstall()
    values = tracer.metrics()
    values["cli.output_bytes"] = runner.output_bytes()
    values["trace.overhead_s"] = sum(times) - sum(plain)
    values["trace.spans"] = len(tracer.spans)
    with open(runner.dir / "spans.jsonl", "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps([s.name, s.start, s.end, s.parent]) + "\n")
    metrics = {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}
    lines = [f"{k:<40} {m['value']:>14.6g} {m['unit']}" for k, m in sorted(metrics.items())]
    lines.append(f"{'traced wall (untraced)':<40} {sum(times):>14.6g} s ({sum(plain):.6g} s)")
    for command, layers in tracing.command_split(tracer.spans).items():
        ranked = sorted(layers.items(), key=lambda kv: -kv[1])
        lines.append(f"self time in {command}: " + ", ".join(f"{k} {v:.3g} s" for k, v in ranked))
    return metrics, plain_errors + errors, lines


def run_all(args) -> int:
    worst = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "polyspectra" / "cli.py").is_file():
        print(f"error: no polyspectra sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    runner = Runner(args.workload, args.seed)
    stamp = machine_stamp()
    print(f"polyspectra benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    if args.trace:
        metrics, errors, lines = traced(runner)
        horner = metrics["matpoly.horner_bytes"]["value"]
        lines.append(f"matpoly.horner_bytes {horner:.6g} B (computed) vs last-level cache {stamp['llc']}")
    else:
        metrics, errors, lines = measure(runner, args.seconds)
    failed = sum(1 for e in errors if e)
    lines.append(f"fail_frac    {failed}/{len(errors)} = {failed / len(errors):.6g} ratio")
    print("\n".join(lines))
    for k, errs in enumerate(errors):
        for e in errs[:3]:
            print(f"FAILED op {k % len(runner.ops)} {runner.ops[k % len(runner.ops)]}: {e}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(errors), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
