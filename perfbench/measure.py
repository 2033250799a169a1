"""Closed-loop op runner and the end-to-end statistics.

One client runs the ops of a workload in order, each op starting when
the previous one returned, and repeats the whole list until the time is
up.  Only whole passes are run, so every run has the same op mix and
ratios such as the failure share do not depend on where the clock
stopped.  Latency covers the library calls of the op; the known-answer
check that follows is client work and is not timed.

Throughput is the op count of a pass over the median time a pass keeps
the library busy.  The host is shared, and a median over passes shrugs
off the bursts of stolen time that a plain sum would absorb.

Each latency is also scaled by the host-speed factor (see ``hostspeed``),
averaged over its readings just before and just after the op.  The gated
metrics use scaled times; the raw ones are reported next to them.
"""

from __future__ import annotations

import contextlib
import statistics
from dataclasses import dataclass
from time import perf_counter

from hostspeed import HostSpeed
from spans import SpanRecorder

#: Samples that must lie beyond the tail percentile.
TAIL_BEYOND = 10
#: Percentiles the tail is chosen from, in hundredths of a percent.
TAIL_LADDER = (5000, 7500, 9000, 9500, 9900, 9950, 9990, 9995, 9999)
#: Fewest ops in a run: enough for the lowest ladder percentile.
MIN_OPS = 2 * TAIL_BEYOND


@dataclass(frozen=True)
class OpRecord:
    op: int
    latency_s: float
    scale: float
    failure: str | None
    known: bool

    @property
    def scaled_s(self) -> float:
        return self.latency_s * self.scale


@dataclass(frozen=True)
class LoopResult:
    records: tuple[OpRecord, ...]
    ops_per_pass: int

    @property
    def passes(self) -> int:
        return len(self.records) // self.ops_per_pass

    def latencies(self, scaled: bool = True) -> list[float]:
        return [r.scaled_s if scaled else r.latency_s for r in self.records]

    def median_pass_s(self, scaled: bool = True) -> float:
        """Median over passes of the summed op latency of a pass."""
        k = self.ops_per_pass
        latencies = self.latencies(scaled)
        return statistics.median(
            sum(latencies[i : i + k]) for i in range(0, len(latencies), k)
        )


@dataclass(frozen=True)
class Tail:
    percentile: float
    value: float
    samples: int
    beyond: int


def tail(values) -> Tail:
    """Value at the highest ladder percentile with at least TAIL_BEYOND
    samples above it (nearest-rank: the ceil(p n / 100)-th smallest)."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for q in TAIL_LADDER:
        rank = -(-q * n // 10000)
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            best = Tail(q / 100, ordered[rank - 1], samples=n, beyond=n - rank)
    if best is None:
        raise ValueError(f"no percentile has {TAIL_BEYOND} of {n} samples beyond it")
    return best


def run_op(op, index: int, seq: int, recorder: SpanRecorder | None,
           speed: HostSpeed | None = None) -> OpRecord:
    """Run ``op`` (position ``index`` in its pass, ``seq``-th of the run).

    The host-speed factor is read before and after the op and averaged,
    so an op longer than the gauge interval follows a drift during it.
    """
    before = speed.scale() if speed is not None else 1.0
    span = contextlib.nullcontext()
    if recorder is not None:
        recorder.current_op = seq
        span = recorder.span("bench.op")
    start = perf_counter()
    try:
        with span:
            result = op.run()
    # The loop must survive any failing op and count it.
    except Exception as exc:  # noqa: BLE001
        latency = perf_counter() - start
        failure = f"raised {type(exc).__name__}: {exc}"
    else:
        latency = perf_counter() - start
        pause = recorder.pause() if recorder is not None else contextlib.nullcontext()
        with pause:
            failure = op.check(result)
    after = speed.scale() if speed is not None else 1.0
    known = failure is not None and failure == op.known_defect
    return OpRecord(index, latency, (before + after) / 2, failure, known)


def closed_loop(ops, seconds: float, speed: HostSpeed,
                recorder: SpanRecorder | None = None,
                passes: int | None = None) -> LoopResult:
    """Run whole passes over ``ops`` for ``seconds`` (and until the tail
    percentile is defined), or exactly ``passes`` passes when given."""
    records: list[OpRecord] = []
    start = perf_counter()
    while True:
        for i, op in enumerate(ops):
            records.append(run_op(op, i, len(records), recorder, speed))
        if all(r.failure is not None for r in records[-len(ops):]):
            break  # nothing left to measure; do not spin on instant failures
        if passes is not None:
            if len(records) >= passes * len(ops):
                break
        elif perf_counter() - start >= seconds and len(records) >= MIN_OPS:
            break
    return LoopResult(tuple(records), len(ops))


def end_to_end(loop: LoopResult) -> dict:
    """The untraced metrics of one loop (set-up and memory are added by the caller)."""
    failed = sum(r.failure is not None for r in loop.records)
    attempted = len(loop.records)
    metrics = {}
    for prefix, scaled in (("", True), ("raw_", False)):
        latencies = loop.latencies(scaled)
        metrics[f"{prefix}ops_per_s"] = (loop.ops_per_pass / loop.median_pass_s(scaled), "1/s")
        metrics[f"{prefix}op_p50_ms"] = (1e3 * statistics.median(latencies), "ms")
        metrics[f"{prefix}op_tail_ms"] = (1e3 * tail(latencies).value, "ms")
    # Percentile, sample count and samples beyond are the same for both.
    t = tail(loop.latencies())
    metrics.update({
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "fail_ratio": (failed / attempted, "ratio"),
        "tail_percentile": (t.percentile, "%"),
        "tail_samples": (t.samples, "count"),
        "tail_beyond": (t.beyond, "count"),
        "host_slowdown": (statistics.median(1 / r.scale for r in loop.records), "ratio"),
    })
    return metrics
