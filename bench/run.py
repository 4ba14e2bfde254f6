"""thermobounds benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload {sweep,verify,scatter} --seed N
                         --seconds S --trace {0,1}

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  ``--seconds`` sets the length of a fixed operation
list (``ops_per_second * S / PROCESSES`` operations, at least 100, in
whole tens), never a clock deadline, so a run with given arguments always
attempts the same operations.  The inputs and their exact references are
made once per run, before any worker starts, so a worker's checks are
float comparisons and most of a run is timed work.

``--trace 0`` runs the list in ``PROCESSES`` fresh worker processes, one
after another, so that each operation runs once in each.  Speed on the
2-vCPU VM of bench/README.md switches between a fast and a slow state (1.7
times slower on scatter), in spells from a fraction of a second to
minutes, and stalls some operations.  ``rows_per_s`` and ``op_p50_ms`` are
therefore taken from the slowest process, which reads the slow state
whenever a process spent most of its time in it, and from the middle of
its operation times, which leaves stalls out:

* ``rows_per_s``: rows per operation over the highest, among processes, of
  the interquartile mean operation time;
* ``op_p50_ms``: the highest of the processes' median operation times;
* ``op_p90_ms``: the 90th percentile over operations of each operation's
  median time in the processes;
* ``setup_s`` and ``peak_rss_mb``: medians over the processes.

``--trace 1`` reports the per-layer metrics instead: import times from
``python -X importtime``, and span metrics from a traced worker over the
first half of the list, with the tracing overhead measured against an
untraced worker over the same operations.

Results go to ``bench/out/`` as well as to stdout; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 100
PROCESSES = 5
IMPORTTIME_PROBES = 3
WORKER_TIMEOUT_S = 60

# Fixed for every workload process: hash order, single-threaded BLAS, and the
# checkout's own source ahead of anything installed.
ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONNOUSERSITE": "1",
    "PYTHONPATH": str(ROOT / "src"),
}


def _python(args: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, **ENV}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S, check=False)


def prepare(workload: str, seed: int, ops: int, workdir: str) -> str:
    """Make the inputs of operations 0..ops and their references; return the cases file."""
    wl = workloads.WORKLOADS[workload]
    cases = [(inp, wl.reference(inp)) for inp in wl.inputs(seed, ops, workdir)]
    path = os.path.join(workdir, "cases.pickle")
    with open(path, "wb") as fh:
        pickle.dump(cases, fh)
    return path


def worker(workload: str, cases: str, *extra: str) -> dict:
    proc = _python([str(HERE / "worker.py"), "--workload", workload, "--cases", cases, *extra])
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_times_ms() -> tuple[float, float]:
    """Cumulative import time of thermobounds and of the scipy it pulls in.

    ``-X importtime`` prints children before their parent, indented one step
    deeper.  scipy's share is the sum over the outermost scipy entries.
    """
    proc = _python(["-X", "importtime", "-c", "import thermobounds"])
    if proc.returncode != 0:
        raise RuntimeError(f"import failed:\n{proc.stderr[-2000:]}")
    total_us = scipy_us = 0
    pending = []  # (depth, name, cumulative) of entries whose parent is still to come
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        cumulative, depth, name = int(m[2]), len(m[3]) // 2, m[4]
        children = [p for p in pending if p[0] > depth]
        pending = [p for p in pending if p[0] <= depth]
        if not name.startswith("scipy"):
            scipy_us += sum(c for d, n, c in children if n.startswith("scipy"))
        pending.append((depth, name, cumulative))
        if name == "thermobounds":
            total_us = cumulative
    return total_us / 1e3, scipy_us / 1e3


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _interquartile_mean(values: list) -> float:
    values = sorted(values)
    quarter = len(values) // 4
    return statistics.fmean(values[quarter:len(values) - quarter])


def end_to_end(workload: str, seed: int, ops: int, workdir: str) -> tuple[dict, dict]:
    cases = prepare(workload, seed, ops, workdir)
    runs = [worker(workload, cases) for _ in range(PROCESSES)]
    (OUT / f"ops-{workload}-seed{seed}.json").write_text(
        json.dumps([run["op_ns"] for run in runs]))
    rows_per_op = workloads.WORKLOADS[workload].rows_per_op
    per_op_ms = [statistics.median(times) / 1e6 for times in zip(*(r["op_ns"] for r in runs))]
    metrics = {
        "rows_per_s": _metric(
            rows_per_op * 1e9 / max(_interquartile_mean(r["op_ns"]) for r in runs), "1/s"),
        "op_p50_ms": _metric(max(statistics.median(r["op_ns"]) for r in runs) / 1e6, "ms"),
        "op_p90_ms": _metric(statistics.quantiles(per_op_ms, n=10)[-1], "ms"),
        "setup_s": _metric(statistics.median(run["setup_s"] for run in runs), "s"),
        "peak_rss_mb": _metric(
            statistics.median(run["maxrss_kb"] for run in runs) / 1024.0, "MB"),
    }
    merged = {key: [x for run in runs for x in run[key]]
              for key in ("op_ns", "failed", "unexpected_passes", "errors")}
    return metrics, merged


def per_layer(workload: str, seed: int, ops: int, workdir: str) -> tuple[dict, dict]:
    wl = workloads.WORKLOADS[workload]
    ops = max(MIN_OPS, ops // 20 * 10)
    cases = prepare(workload, seed, ops, workdir)
    imports = [import_times_ms() for _ in range(IMPORTTIME_PROBES)]
    plain = worker(workload, cases)
    traced = worker(workload, cases, "--trace-out", str(OUT / f"trace-{workload}.csv.gz"))
    traced["errors"] += plain["errors"]
    metrics = {
        "import.total_ms": _metric(statistics.median(t for t, _ in imports), "ms"),
        "import.scipy_ms": _metric(statistics.median(s for _, s in imports), "ms"),
    }
    for name, (value, unit) in tracer.layer_metrics(
            traced["trace"], ops, ops * wl.rows_per_op).items():
        metrics[name] = _metric(value, unit)
    overhead = sum(traced["op_ns"]) / sum(plain["op_ns"]) - 1.0
    metrics["trace.overhead_pct"] = _metric(100.0 * overhead, "%")
    return metrics, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "thermobounds" / "__init__.py").is_file():
        print(f"error: no thermobounds source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]
    ops = max(MIN_OPS, wl.ops_per_second * args.seconds // PROCESSES)
    ops -= ops % 10  # whole rounds of the near-gate cycle

    # compile the package's bytecode once, so no measured process pays for it
    _python(["-c", "import thermobounds.cli"]).check_returncode()

    measure = per_layer if args.trace else end_to_end
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        metrics, run = measure(args.workload, args.seed, ops, workdir)
    failed = len(run["failed"])
    result = {
        "correct": not run["errors"],
        "attempted": len(run["op_ns"]),
        "failed": failed,
        "metrics": metrics,
    }
    for line in run["errors"][:20]:
        print(f"check failed: {line}", file=sys.stderr)
    if run["unexpected_passes"]:
        print(f"known-fault operations passed: {run['unexpected_passes'][:20]}", file=sys.stderr)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
