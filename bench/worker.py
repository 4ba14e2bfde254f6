"""One workload process: set-up, a closed loop over a fixed operation list, checks.

Run by ``run.py`` in a fresh interpreter, one thread, one client: each
operation starts when the previous one has returned and been checked.

    python3 bench/worker.py --workload W --cases PATH [--trace-out PATH]

``PATH`` is the pickled list of ``(input, reference)`` pairs that ``run.py``
makes once per run; case 0 is the warm-up operation.  Prints one JSON object
on its last stdout line.  ``setup_s`` runs from just before
``import thermobounds`` to the end of the warm-up operation; the cases are
loaded before it starts.  Each timed operation is timed alone and its output
is checked against its reference after the clock stops.
"""

from __future__ import annotations

import argparse
import json
import pickle
import resource
import sys
import time

import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--cases", required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    with open(args.cases, "rb") as fh:
        cases = pickle.load(fh)
    n = len(cases) - 1

    t0 = time.perf_counter()
    import thermobounds.cli

    # operations look names up on the package at call time, so they see
    # the wrappers a tracer installs
    tb = thermobounds
    warm = wl.run(tb, cases[0][0])
    setup_s = time.perf_counter() - t0
    errors = [f"warm-up: {e}" for e in wl.check(*cases[0], warm)]
    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    op_ns, failed = [], []
    expected = wl.expected_failures(n)
    for i in range(1, n + 1):
        inp, ref = cases[i]
        if tracer:
            tracer.begin_op(i)
        start = time.perf_counter_ns()
        try:
            out = wl.run(tb, inp)
            problems = None
        except Exception as exc:  # a failed operation is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        op_ns.append(time.perf_counter_ns() - start)
        if tracer:
            tracer.end_op()
        if problems is None:
            problems = wl.check(inp, ref, out)
        if problems:
            failed.append(i)
            if i not in expected:
                errors.extend(f"op {i}: {p}" for p in problems[:3])
    result = {
        "setup_s": setup_s,
        "op_ns": op_ns,
        "failed": failed,
        "unexpected_passes": sorted(expected - set(failed)),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "errors": errors,
    }
    if tracer:
        tracer.write(args.trace_out)
        result["trace"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
