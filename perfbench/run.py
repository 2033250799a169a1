"""Benchmark of the ppscontext paradox-to-proof pipeline.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports the library from its
``src/`` directory.  One client drives the public API in a closed loop
(each op starts when the previous one returned), in one process, with
BLAS pinned to one thread.  Every op's answer is checked against its
known answer.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
prints the per-layer metrics of a traced run.  ``--workload all`` runs
every workload in turn.  The last line of output is one JSON object.
"""

import os

# BLAS reads these when numpy loads, so they are set before any import of it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("corpus", "closure", "ks", "cli")
#: Metrics of the untraced run that BENCHMARK.json gates.
END_TO_END = ("ops_per_s", "op_p50_ms", "op_tail_ms", "ok_ratio", "setup_s", "peak_rss_mb")
#: Set-up is timed this many times per run; set-up time is the median.
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import numpy, ppscontext; "
    "print(time.perf_counter() - t)"
)


def _import_library():
    """Import the checkout's own ppscontext; return numpy, or None if absent."""
    if not (SRC / "ppscontext" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import numpy
    import ppscontext

    if Path(ppscontext.__file__).resolve().parent != SRC / "ppscontext":
        return None
    return numpy


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(numpy) -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "commit": _git_commit(),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))
        ),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:>16.6g} {unit}")


def _print_failures(ops, records) -> None:
    counts: dict[tuple[str, str, bool], int] = {}
    for r in records:
        if r.failure is not None:
            key = (ops[r.op].name, r.failure, r.known)
            counts[key] = counts.get(key, 0) + 1
    for (name, failure, known), n in sorted(counts.items()):
        tag = "known defect" if known else "FAILED"
        print(f"  {tag}: {name} x{n}: {failure}")


def import_seconds() -> float:
    """Time to import numpy and ppscontext in a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(probe.stdout)


def run_untraced(name: str, seed: int, seconds: float, workdir: Path):
    from hostspeed import HostSpeed
    from measure import closed_loop, end_to_end
    from workloads import BY_NAME

    speed = HostSpeed()
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        scale = speed.scale()
        imported = import_seconds()
        start = time.perf_counter()
        ops = BY_NAME[name](seed, workdir, ROOT)
        raw.append(imported + time.perf_counter() - start)
        scaled.append(raw[-1] * scale)
    loop = closed_loop(ops, seconds, speed)
    metrics = end_to_end(loop)
    metrics["setup_s"] = (statistics.median(scaled), "s")
    metrics["raw_setup_s"] = (statistics.median(raw), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    metrics["passes"] = (loop.passes, "count")
    return ops, [loop], metrics


def run_traced(name: str, seed: int, seconds: float, workdir: Path):
    from hostspeed import HostSpeed
    from layers import LAYERS, TARGETS, generate_self_times, layer_self_times, per_layer
    from measure import closed_loop
    from spans import SpanRecorder, Tracer
    from workloads import BY_NAME

    recorder = SpanRecorder()
    tracer = Tracer(recorder, TARGETS)
    with tracer.active():
        with recorder.span("bench.setup"):
            ops = BY_NAME[name](seed, workdir, ROOT)
    speed = HostSpeed()
    untraced = closed_loop(ops, seconds / 2, speed)
    with tracer.active():
        traced = closed_loop(ops, 0.0, speed, recorder, passes=untraced.passes)
    leftovers = tracer.leftovers()
    if leftovers:
        raise RuntimeError(f"span wrappers left installed: {leftovers}")

    spans = recorder.frozen()
    OUT_DIR.mkdir(exist_ok=True)
    spans.save(OUT_DIR / f"spans-{name}.npz")
    overhead = traced.median_pass_s() / untraced.median_pass_s()
    metrics = per_layer(spans, len(traced.records), overhead)

    self_times = spans.self_times()
    _print_metrics(generate_self_times(spans, self_times))
    layer_s = layer_self_times(spans, self_times, spans.op >= 0)
    top = sorted((s, layer) for layer, s in layer_s.items() if layer != "bench")[::-1][:3]
    print("  top layers by self time: " + ", ".join(
        f"{layer} {s / max(sum(layer_s.values()), 1e-12):.1%}" for s, layer in top))
    print("  wait_s per layer: " + ", ".join(f"{layer}=0" for layer in LAYERS)
          + " (single thread, nothing waits)")
    return ops, [untraced, traced], metrics


def run_workload(name: str, args):
    workdir = WORK_DIR / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    print(f"== {name}  seed={args.seed} seconds={args.seconds} trace={args.trace} ==")
    try:
        if args.trace:
            ops, loops, metrics = run_traced(name, args.seed, args.seconds, workdir)
        else:
            ops, loops, metrics = run_untraced(name, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    records = [r for loop in loops for r in loop.records]
    _print_failures(ops, records)
    _print_metrics(metrics)
    result = {
        "correct": all(r.failure is None or r.known for r in records),
        "attempted": len(records),
        "failed": sum(r.failure is not None for r in records),
    }
    gated = metrics if args.trace else {k: metrics[k] for k in END_TO_END}
    return result, gated


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    numpy = _import_library()
    if numpy is None:
        print(f"error: no ppscontext sources under {SRC}", file=sys.stderr)
        return 2
    import inputs  # needs the library on the path

    print("env " + json.dumps(environment(numpy), sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result, metrics = run_workload(name, args)
        except inputs.SetupError as exc:
            print(f"error: set-up of {name} failed: {exc}", file=sys.stderr)
            return 2
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for key, (value, unit) in metrics.items():
            total["metrics"][prefix + key] = {"value": value, "unit": unit}
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
