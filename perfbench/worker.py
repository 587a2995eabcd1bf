"""One benchmark pass, run by ``run.py`` in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--index I] [--trace] [--cpu K]

The worker builds the workload's inputs, prints ``ready`` (the end of
set-up), runs every operation once with a timer around each, and then
checks the outputs.  Its last line of output is a JSON object with the pass
wall time, the operation times, the peak resident set size and, when traced,
the per-layer metrics.  An operation skipped at a feasibility cap counts as
failed; one that raises any other error, or an output that fails the
correctness gate, makes the worker exit 1.  It exits 2 when the package
cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(HERE), "src", "pathideal")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0, help="pass index within the run")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpu", type=int, help="pin this process to one CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    try:
        import pathideal
    except ImportError as exc:
        print(f"worker: cannot import pathideal: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.abspath(pathideal.__file__)) != SOURCE:
        print(f"worker: pathideal imported from {pathideal.__file__}, not {SOURCE}", file=sys.stderr)
        return 2
    from pathideal.caps import CapExceeded
    from tracer import Tracer
    from workloads import WORKLOADS, GateFailure, build

    references = {}
    for part in WORKLOADS[args.workload]:
        path = os.path.join(HERE, "reference", f"{part}.json")
        if os.path.exists(path):
            with open(path) as fh:
                references[part] = json.load(fh)["digests"]
    work = build(args.workload, args.seed, args.index, references)
    print("ready", flush=True)

    tracer = Tracer()
    if args.trace:
        tracer.install()
    outputs, op_ms, skipped, errors = {}, {}, [], []
    clock = time.perf_counter
    started = clock()
    for op in work.ops:
        op_start = clock()
        try:
            output = op.run()
        except CapExceeded as exc:
            skipped.append(f"{op.key}: {exc}")
            continue
        except Exception:  # reported below; a raising operation fails the run
            errors.append(f"{op.key}: {traceback.format_exc(limit=3)}")
            continue
        op_ms[op.key] = (clock() - op_start) * 1000
        outputs[op.key] = output
    wall_s = clock() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracer.uninstall()

    for message in skipped:
        print(f"worker: skipped at a cap: {message}", file=sys.stderr)
    for message in errors:
        print(f"worker: operation raised: {message}", file=sys.stderr)
    try:
        checks = work.check(outputs)
    except GateFailure as exc:
        print(f"worker: correctness gate failed: {exc}", file=sys.stderr)
        return 1
    if errors:
        print(f"worker: correctness gate failed: {len(errors)} operations raised", file=sys.stderr)
        return 1

    result = {
        "wall_s": wall_s,
        "op_ms": op_ms,
        "attempted": len(work.ops),
        "failed": len(skipped),
        "checks": checks,
        "peak_rss_mb": peak_rss_mb,
        "numpy": getattr(sys.modules.get("numpy"), "__version__", "not imported"),
    }
    if args.trace:
        result["layers"], result["absent"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
