"""Benchmark of the pathideal engine: end-to-end metrics, or per-layer ones.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs fresh-interpreter passes of one workload (see ``worker.py``), each
pinned to one CPU with one BLAS thread, until the next pass would end after
``--seconds``.  With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of traced passes, interleaved with
untraced ones to give the tracing overhead.  Every pass checks its outputs;
a failed check, or a traced count that differs between two traced passes,
ends the run with exit code 1 and no result.  The last line of output is the
result as one JSON object.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import PER_LAYER  # noqa: E402

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
RUN_LIMIT_S = 100  # no new pass starts after this, whatever --seconds says
PASS_TIMEOUT_S = 60


class RunError(Exception):
    pass


def run_pass(workload: str, seed: int, index: int, traced: bool, cpu: int) -> dict:
    """One pass in a fresh interpreter; set-up is timed from process start."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--index", str(index), "--cpu", str(cpu)] + (["--trace"] if traced else [])
    started = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        try:
            rest, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RunError(f"a {workload} pass ran over {PASS_TIMEOUT_S} s")
    if proc.returncode != 0 or ready.strip() != "ready":
        raise RunError(f"a {workload} pass exited with code {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1])
    result.update(setup_s=setup_s, elapsed_s=time.perf_counter() - started, traced=traced)
    return result


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    cpu = max(os.sched_getaffinity(0))
    start = time.perf_counter()
    passes: list[dict] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        # traced runs repeat one input set, so that traced counts must repeat
        # exactly and the overhead compares like with like
        index = 0 if trace else len(passes)
        passes.append(run_pass(workload, seed, index, traced, cpu))
        now = time.perf_counter() - start
        typical = statistics.median(p["elapsed_s"] for p in passes)
        enough = len(passes) >= (2 * MIN_TRACED_PASSES if trace else MIN_PASSES)
        if (enough and now + typical > seconds) or now > RUN_LIMIT_S:
            return passes


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation percentile of an ascending list, q in [0, 1]."""
    pos = q * (len(sorted_values) - 1)
    low = int(pos)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (pos - low)


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    # An operation repeated in every pass is one point, at its median over
    # the passes.  Pooling the repeats instead would put the median of an
    # even number of operations exactly between two of them, where it jumps
    # from one to the other with the host's speed.
    repeats: dict[str, list[float]] = {}
    for p in passes:
        for key, ms in p["op_ms"].items():
            repeats.setdefault(key, []).append(ms)
    op_ms = sorted(statistics.median(times) for times in repeats.values())
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "op_p50_ms": (percentile(op_ms, 0.5), "ms"),
        "op_p90_ms": (percentile(op_ms, 0.9), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "ok_share": ((attempted - failed) / attempted, "ratio"),
    }
    p90 = metrics["op_p90_ms"][0]
    samples = {
        "passes": len(passes),
        "checks": sum(p["checks"] for p in passes),
        "operations": len(repeats),
        "op_samples": sum(len(times) for times in repeats.values()),
        "op_samples_beyond_p90": sum(len(t) for t in repeats.values() if statistics.median(t) > p90),
    }
    return metrics, samples


def per_layer(passes: list[dict]) -> tuple[dict, dict]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    for name, unit, _, _ in PER_LAYER:
        values = [p["layers"][name] for p in traced]
        if unit == "s":
            metrics[name] = (statistics.median(values), unit)
        elif len(set(values)) != 1:
            raise RunError(f"count {name} differs between traced passes: {values}")
        else:
            metrics[name] = (values[0], unit)
    overhead = (statistics.median(p["wall_s"] for p in traced)
                / statistics.median(p["wall_s"] for p in plain) - 1)
    metrics["trace.overhead_share"] = (overhead, "ratio")
    times = [name for name, unit, _, _ in PER_LAYER if unit == "s"]
    samples = {"traced_passes": len(traced), "untraced_passes": len(plain),
               "largest_time": max(times, key=lambda name: metrics[name][0]),
               "absent": sorted(set().union(*(p["absent"] for p in traced)))}
    return metrics, samples


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head_path):
        return "unknown (not a git checkout)"
    with open(head_path) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.exists(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("path-family", "exact-tables"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pathideal", "__init__.py")):
        print(f"run: no pathideal source under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
        metrics, samples = (per_layer if args.trace else end_to_end)(passes)
    except RunError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 1

    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "commit": git_commit(), "python": platform.python_version(),
        "numpy": passes[0]["numpy"], "nproc": os.cpu_count(), "cpu": cpu_model(),
    }
    print("provenance: " + json.dumps(provenance))
    print("samples: " + json.dumps(samples))
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>16.6f} {unit}")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
