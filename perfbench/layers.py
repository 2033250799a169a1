"""What the traced run wraps, and the per-layer metrics computed from its spans.

A layer is a module of ``ppscontext``; ``bench`` is the benchmark's own
client code (the op span minus every library call inside it).  Counts
and self times are given per op, so runs that fit a different number of
passes into their time still compare.  ``generate`` runs only while
inputs are built, so its self time is per set-up, in seconds; the
per-function split is printed but not gated, because most workloads
leave most generators unused.
"""

from __future__ import annotations

import os

import numpy as np

import ppscontext as pc
from spans import SETUP_OP, Spans, Target

LAYERS = ("linalg", "measurement", "paradox", "contextuality", "scenarios", "cli", "bench")


def _truth(args, kwargs, result) -> tuple:
    return (bool(result),)


def _hit(args, kwargs, result) -> tuple:
    return (result is not None,)


def _entries(args, kwargs, result) -> tuple:
    return (len(result.entries),)


def _simulated(args, kwargs, result) -> tuple:
    samples = args[2] if len(args) > 2 else kwargs["samples"]
    return (samples, sum(count for _, count in result.values()))


def _closure(args, kwargs, result) -> tuple:
    completed = isinstance(result, pc.LogicalAssignment)
    return (len(args[0]), len(result) if completed else 0, completed)


def _assembled(args, kwargs, result) -> tuple:
    n = len(result.nodes)
    return (n, n * (n - 1) // 2, len(result.exclusions))


def _solved(args, kwargs, result) -> tuple:
    return (result.search_nodes, len(result.trace), result.status == "UNSAT")


def _file_bytes(args, kwargs, result) -> tuple:
    return (os.path.getsize(args[0]),)


TARGETS = (
    Target("linalg:Projector.__init__"),
    Target("linalg:projector_from_vectors"),
    Target("linalg:is_orthogonal", _truth),
    Target("linalg:commutes", _truth),
    Target("linalg:meet"),
    Target("linalg:range_projector"),
    Target("measurement:Pvm.__init__"),
    Target("measurement:abl_table", _entries),
    Target("measurement:abl_probability"),
    Target("measurement:simulate_frequencies", _simulated),
    Target("paradox:ProjectorIndex.find", _hit),
    Target("paradox:logical_assignment"),
    Target("paradox:closure_extend", _closure),
    Target("paradox:detect_paradox"),
    Target("paradox:recheck_violation"),
    Target("contextuality:split_complement"),
    Target("contextuality:assemble_system", _assembled),
    Target("contextuality:build_constraint_system"),
    Target("contextuality:solve", _solved),
    Target("contextuality:check_assignment"),
    Target("contextuality:export_orthogonality_graph"),
    Target("scenarios:load_scenario_file", _file_bytes),
    Target("scenarios:document_to_scenario"),
    Target("scenarios:save_scenario"),
    Target("scenarios:load_builtin"),
    Target("cli:main"),
    Target("generate:rng_for"),
    Target("generate:random_unitary"),
    Target("generate:random_state"),
    Target("generate:random_scenario"),
    Target("generate:planted_paradox"),
    Target("generate:paradox_corpus"),
)

GENERATE_SPANS = tuple(t.span_name for t in TARGETS if t.span_name.startswith("generate."))


def _ratio(num: float, den: float) -> float:
    return float(num / den) if den else 0.0


class _View:
    """Sums over the spans of one name, restricted to a scope mask."""

    def __init__(self, spans: Spans, self_times: np.ndarray, scope: np.ndarray):
        self.spans = spans
        self.self_times = self_times
        self.scope = scope
        self.ids = {name: i for i, name in enumerate(spans.names)}

    def mask(self, name: str) -> np.ndarray:
        return (self.spans.name == self.ids.get(name, -1)) & self.scope

    def calls(self, name: str) -> int:
        return int(np.count_nonzero(self.mask(name)))

    def self_s(self, name: str) -> float:
        return float(self.self_times[self.mask(name)].sum())

    def value(self, name: str, k: int, mask: np.ndarray | None = None) -> float:
        mask = self.mask(name) if mask is None else mask
        return float(self.spans.values[k][mask].sum())


def layer_self_times(spans: Spans, self_times: np.ndarray, scope: np.ndarray) -> dict:
    """Total self time per layer (first component of the span name)."""
    layer_of_name = np.array(
        [LAYERS.index(n.split(".")[0]) if n.split(".")[0] in LAYERS else -1
         for n in spans.names] or [-1]
    )
    layer = layer_of_name[spans.name] if len(spans.name) else np.zeros(0, dtype=int)
    keep = scope & (layer >= 0)
    totals = np.bincount(layer[keep], weights=self_times[keep], minlength=len(LAYERS))
    return dict(zip(LAYERS, (float(t) for t in totals)))


def generate_self_times(spans: Spans, self_times: np.ndarray) -> dict:
    """Set-up self time of each generate function, in seconds."""
    setup = _View(spans, self_times, spans.op == SETUP_OP)
    return {f"{name}.self_s": (setup.self_s(name), "s") for name in GENERATE_SPANS}


def per_layer(spans: Spans, n_ops: int, overhead_ratio: float) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    self_times = spans.self_times()
    ops = _View(spans, self_times, spans.op >= 0)
    metrics: dict[str, tuple[float, str]] = {}

    def per_op(value: float) -> float:
        return value / n_ops

    for layer, total in layer_self_times(spans, self_times, ops.scope).items():
        metrics[f"{layer}.self_s"] = (per_op(total), "s/op")

    for name in ("linalg.Projector", "linalg.is_orthogonal", "linalg.commutes",
                 "paradox.ProjectorIndex.find"):
        metrics[f"{name}.calls"] = (per_op(ops.calls(name)), "1/op")
    for name in ("linalg.Projector", "measurement.abl_table",
                 "measurement.simulate_frequencies", "paradox.logical_assignment",
                 "paradox.closure_extend", "paradox.ProjectorIndex.find",
                 "contextuality.split_complement", "contextuality.build_constraint_system",
                 "contextuality.assemble_system", "contextuality.solve",
                 "scenarios.load_scenario_file", "cli.main"):
        metrics[f"{name}.self_s"] = (per_op(ops.self_s(name)), "s/op")

    metrics["measurement.abl_table.entries"] = (
        per_op(ops.value("measurement.abl_table", 0)), "1/op")

    sim = "measurement.simulate_frequencies"
    sim_mask = ops.mask(sim)
    samples = ops.value(sim, 0)
    sim_time = float((spans.end - spans.start)[sim_mask].sum())
    metrics[f"{sim}.samples_per_s"] = (_ratio(samples, sim_time), "1/s")
    metrics[f"{sim}.accepted_ratio"] = (_ratio(ops.value(sim, 1), samples), "ratio")

    closure = "paradox.closure_extend"
    closure_mask = ops.mask(closure)
    completed = closure_mask & (spans.values[2] == 1.0)
    # commutes() calls made directly by closure_extend, and their outcome.
    commutes = ops.mask("linalg.commutes")
    parent = np.where(spans.parent >= 0, spans.parent, 0)
    by_closure = commutes & (spans.parent >= 0) & closure_mask[parent]
    commuting = by_closure & (spans.values[0] == 1.0)
    commuting_in_completed = commuting & completed[parent]
    gained = ops.value(closure, 1, completed) - ops.value(closure, 0, completed)
    metrics[f"{closure}.stored_in"] = (per_op(ops.value(closure, 0)), "1/op")
    metrics[f"{closure}.stored_out"] = (per_op(ops.value(closure, 1)), "1/op")
    metrics[f"{closure}.commuting_pairs"] = (per_op(int(commuting.sum())), "1/op")
    metrics[f"{closure}.useful_ratio"] = (
        _ratio(gained, int(commuting_in_completed.sum())), "ratio")

    find = "paradox.ProjectorIndex.find"
    metrics[f"{find}.hit_ratio"] = (_ratio(ops.value(find, 0), ops.calls(find)), "ratio")

    assemble = "contextuality.assemble_system"
    pairs = ops.value(assemble, 1)
    metrics[f"{assemble}.nodes"] = (per_op(ops.value(assemble, 0)), "1/op")
    metrics[f"{assemble}.pairs_tested"] = (per_op(pairs), "1/op")
    metrics[f"{assemble}.exclusion_ratio"] = (_ratio(ops.value(assemble, 2), pairs), "ratio")

    solve = "contextuality.solve"
    metrics[f"{solve}.branches"] = (per_op(ops.value(solve, 0)), "1/op")
    metrics[f"{solve}.trace_len"] = (per_op(ops.value(solve, 1)), "1/op")
    metrics[f"{solve}.unsat_ratio"] = (_ratio(ops.value(solve, 2), ops.calls(solve)), "ratio")

    metrics["scenarios.load_scenario_file.bytes"] = (
        per_op(ops.value("scenarios.load_scenario_file", 0)), "B/op")

    metrics["generate.self_s"] = (
        sum(v for v, _ in generate_self_times(spans, self_times).values()), "s")

    metrics["trace.spans"] = (per_op(int(np.count_nonzero(ops.scope))), "1/op")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return metrics
