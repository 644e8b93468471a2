"""Benchmark of focalcurves: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload rank-grid --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run repeats whole rounds of the workload
until ``--seconds`` of operation time have passed (and at least 100
operations), then reports the end-to-end metrics.  With ``--trace 1`` it runs
a fixed number of rounds with spans around every call into the package's
public functions, so counts repeat exactly for a seed, and reports the
per-layer metrics.  Either way every output is checked against a reference
computed apart from the program, and the last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import checks  # noqa: E402  (needs the path above; not focalcurves)

MIN_OPS = 100
#: fresh interpreters timed for setup_s
SETUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 3

_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
import focalcurves, focalcurves.cli
from perfbench.workloads import WORKLOADS, execute
execute(WORKLOADS[sys.argv[1]].warm_up)
print(repr(time.perf_counter() - t0))
"""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def _child(args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=120, check=True)


def measure_setup(workload):
    """Median seconds for a fresh interpreter to import focalcurves and its CLI
    and make one warm-up call."""
    return statistics.median(float(_child(["-c", _SETUP_CHILD, workload]).stdout)
                             for _ in range(SETUP_SAMPLES))


def _importtime(stderr):
    cumulative = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
    return cumulative["focalcurves"], cumulative["focalcurves.focal"]


def measure_imports():
    """Median cumulative import seconds of focalcurves and focalcurves.focal."""
    args = ["-X", "importtime", "-c", "import focalcurves"]
    samples = [_importtime(_child(args).stderr) for _ in range(IMPORTTIME_SAMPLES)]
    return (statistics.median(s[0] for s in samples),
            statistics.median(s[1] for s in samples))


def run_rounds(workload, seed, seconds, tracer):
    """Run whole rounds; return the verdicts, the outputs still to judge and
    the per-operation seconds.

    An output is judged as soon as its operation has been timed, except where
    the reference needs sympy: those wait, as (operation, output) pairs in
    ``pending``, until the timed phase has ended.
    """
    from perfbench.workloads import execute, summarize  # imports focalcurves

    verdicts, pending, latencies = [], [], []
    index = 0
    while (index < workload.traced_rounds if tracer
           else sum(latencies) < seconds or len(latencies) < MIN_OPS):
        for op in workload.make_round(seed, index):
            start = time.perf_counter()
            if tracer is None:
                raw = execute(op)
            else:
                name = "perfbench.row" if op.kind == "row" else "cli.main"
                raw = tracer.span(name, execute, op)
            latencies.append(time.perf_counter() - start)
            out = summarize(op, raw)
            if op.kind in checks.NEEDS_SYMPY:
                pending.append((op, out))
            else:
                verdicts.append(judge(op, out))
        index += 1
    return verdicts, pending, latencies


def judge(op, out):
    verdict = checks.judge(op, out)
    if verdict == checks.WRONG:
        print(f"wrong output: {op.kind} {str(op.args)[:200]} -> {str(out)[:300]}",
              file=sys.stderr)
    return verdict


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20240809)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "focalcurves" / "__init__.py").is_file():
        print(f"error: no focalcurves sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS, execute

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from perfbench.spans import Tracer
        import_s, focal_import_s = measure_imports()
        tracer = Tracer()
    else:
        setup_s = measure_setup(workload.name)
    execute(workload.warm_up)

    if tracer:
        tracer.install()
    try:
        verdicts, pending, latencies = run_rounds(workload, args.seed, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    busy = sum(latencies)
    print(f"{workload.name} seed {args.seed}: {len(latencies)} operations in {busy:.3f} s "
          f"({len(latencies) / busy:.2f} ops/s{', traced' if tracer else ''})", file=sys.stderr)
    verdicts += [judge(op, out) for op, out in pending]

    if tracer:
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"spans-{workload.name}-{args.seed}.jsonl")
        found = tracer.layer_metrics()
        found["focalcurves.import_s"] = (import_s, "s")
        found["focal.import_s"] = (focal_import_s, "s")
    else:
        found = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(latencies) / busy, "ops/s"),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "op_p90_ms": (statistics.quantiles(latencies, n=10)[-1] * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps({
        "correct": checks.WRONG not in verdicts,
        "attempted": len(verdicts),
        "failed": verdicts.count(checks.FAILED),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in found.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
