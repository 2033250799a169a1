"""Tests of the benchmark itself: python -m pytest perfbench/test_perfbench.py"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import ppscontext as pc  # noqa: E402
from ppscontext import cli, contextuality, linalg, paradox  # noqa: E402

import inputs  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import SETUP_OP, SpanRecorder, Spans, Tracer  # noqa: E402


def make_spans(rows, names=("bench.op", "paradox.closure_extend", "linalg.commutes")):
    """rows: (name index, parent, start, end)."""
    name, parent, start, end = (np.array(c) for c in zip(*rows))
    return Spans(
        names=names,
        name=name.astype(np.int32),
        op=np.zeros(len(rows), dtype=np.int32),
        parent=parent.astype(np.int32),
        start=start.astype(float),
        end=end.astype(float),
        values=np.zeros((3, len(rows))),
    )


# --- self time ---------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = make_spans([
        (0, -1, 0.0, 10.0),  # op
        (1, 0, 1.0, 4.0),    # closure inside op
        (2, 1, 2.0, 3.0),    # commutes inside closure
        (2, 0, 5.0, 9.0),    # commutes directly inside op
    ])
    assert spans.self_times().tolist() == [3.0, 2.0, 1.0, 4.0]


def test_layer_self_times_sum_to_root_duration():
    spans = make_spans([
        (0, -1, 0.0, 10.0),
        (1, 0, 1.0, 4.0),
        (2, 1, 2.0, 3.0),
        (2, 0, 5.0, 9.0),
    ])
    totals = layers.layer_self_times(spans, spans.self_times(), np.ones(4, dtype=bool))
    assert totals["bench"] == 3.0
    assert totals["paradox"] == 2.0
    assert totals["linalg"] == 5.0
    assert sum(totals.values()) == 10.0


def test_recorder_nests_spans_and_tags_ops():
    recorder = SpanRecorder()
    recorder.current_op = 7
    with recorder.span("bench.op"):
        with recorder.span("linalg.meet"):
            pass
    spans = recorder.frozen()
    assert spans.parent.tolist() == [-1, 0]
    assert spans.op.tolist() == [7, 7]
    assert (spans.self_times() >= 0).all()


# --- tail percentile -----------------------------------------------------------


def test_tail_is_highest_ladder_percentile_with_ten_beyond():
    t = measure.tail(range(1, 101))
    assert (t.percentile, t.value, t.beyond, t.samples) == (90.0, 90, 10, 100)
    t = measure.tail(range(1, 3001))
    assert (t.percentile, t.value, t.beyond) == (99.5, 2985, 15)
    t = measure.tail(range(1, 21))
    assert (t.percentile, t.value, t.beyond) == (50.0, 10, 10)


def test_tail_needs_ten_samples_beyond_the_median():
    with pytest.raises(ValueError):
        measure.tail(range(19))


# --- known answers -------------------------------------------------------------


def test_corpus_answers():
    assert workloads.check_proof(workloads.prove_scenario(pc.three_box())) is None
    pigeonhole = workloads.prove_scenario(inputs.pigeonhole(3))
    assert workloads.check_proof(pigeonhole) == workloads.SAT_NOT_UNSAT
    assert set(workloads.KNOWN_DEFECTS) == {
        f"corpus/pigeonhole-{n}" for n in workloads.PIGEONHOLE_QUBITS
    }
    verdict, system, cert = workloads.prove_scenario(pc.three_box())
    not_paradox = paradox.ParadoxVerdict(
        is_logical=True, is_paradox=False, violations=(),
        assignment=verdict.assignment, pre_post_overlap=1.0,
    )
    assert workloads.check_proof((not_paradox, system, cert)) == "no paradox detected"


def test_pigeonhole_failure_counts_as_failed_but_known():
    op = next(
        o for o in workloads.corpus(0, None, None) if o.name == "corpus/pigeonhole-3"
    )
    record = measure.run_op(op, 0, 0, None)
    assert record.failure == workloads.SAT_NOT_UNSAT
    assert record.known


class FakeSpeed:
    def __init__(self, *factors):
        self.factors = list(factors)

    def scale(self):
        return self.factors.pop(0)


def test_scaled_latency_averages_the_host_speed_before_and_after():
    op = workloads.Op("x", lambda: None, lambda result: None)
    record = measure.run_op(op, 0, 0, None, FakeSpeed(0.25, 0.75))
    assert record.scale == 0.5
    assert record.scaled_s == record.latency_s * 0.5
    loop = measure.LoopResult((record,) * 4, ops_per_pass=2)
    assert loop.median_pass_s() == 2 * record.scaled_s
    assert loop.median_pass_s(scaled=False) == 2 * record.latency_s


@pytest.mark.parametrize("name", sorted(inputs.KS_SETS))
def test_ks_sets_match_literature(name):
    rays = inputs.build_ray_set(name)
    order = tuple(range(len(rays.nodes)))
    assert workloads.check_ray_set(rays, order, workloads.solve_ray_set(rays, order)) is None


def test_ks_gate_rejects_wrong_status():
    rays = inputs.build_ray_set("yu-oh-13")
    order = tuple(range(len(rays.nodes)))
    system, cert, pins = workloads.solve_ray_set(rays, order)
    unsat = contextuality.Certificate("UNSAT", None, (), ("fixed", 0), 1)
    assert workloads.check_ray_set(rays, order, (system, unsat, pins)) == (
        "UNSAT where SAT is known"
    )
    assert workloads.check_ray_set(rays, order, (system, cert, [unsat] + pins[1:])) == (
        "pin 0: UNSAT where SAT is known"
    )


def test_closure_family_is_logical_without_paradox():
    scenario = inputs.closure_scenario(6, np.random.default_rng(0))
    assert workloads.check_no_paradox(workloads.detect(scenario, 1)) is None


def test_cli_gate(tmp_path):
    checker = workloads.CliChecker()
    argv = ("graph", "--builtin", "three-box", "--out", str(tmp_path / "g.dot"))
    golden = (HERE.parent / workloads.GOLDEN_DOT).read_bytes()
    result = workloads.run_cli(argv)
    assert checker.check(argv, 0, tmp_path / "g.dot", golden, result) is None
    assert checker.check(argv, 2, tmp_path / "g.dot", golden, result).startswith("exit 0")
    assert checker.check(argv, 0, tmp_path / "g.dot", b"x", result) == (
        "graph output differs from the golden file"
    )
    argv = ("abl", "--builtin", "three-box")
    code, out, err = workloads.run_cli(argv)
    assert checker.check(argv, 0, None, None, (code, out, err)) is None
    assert checker.check(argv, 0, None, None, (code, out + " ", err)) == (
        "output differs from first run"
    )


def test_setup_self_check_aborts():
    with pytest.raises(inputs.SetupError):
        inputs.closure_scenario(7, np.random.default_rng(0))


# --- tracing -------------------------------------------------------------------


def test_wrappers_are_restored_after_traced_run():
    originals = {
        "paradox.commutes": paradox.commutes,
        "linalg.commutes": linalg.commutes,
        "cli.solve": cli.solve,
        "pc.solve": pc.solve,
        "Projector.__init__": linalg.Projector.__dict__["__init__"],
        "ProjectorIndex.find": paradox.ProjectorIndex.__dict__["find"],
    }
    recorder = SpanRecorder()
    tracer = Tracer(recorder, layers.TARGETS)
    with tracer.active():
        assert paradox.commutes is not originals["paradox.commutes"]
        assert tracer.leftovers()
        workloads.prove_scenario(pc.three_box())
    assert tracer.leftovers() == []
    assert paradox.commutes is originals["paradox.commutes"]
    assert linalg.commutes is originals["linalg.commutes"]
    assert cli.solve is originals["cli.solve"]
    assert pc.solve is originals["pc.solve"]
    assert linalg.Projector.__dict__["__init__"] is originals["Projector.__init__"]
    assert paradox.ProjectorIndex.__dict__["find"] is originals["ProjectorIndex.find"]
    names = {recorder.names[i] for i in recorder.frozen().name}
    # Calls made inside the library, through names it imported, are seen.
    assert {"paradox.detect_paradox", "linalg.commutes", "linalg.Projector",
            "paradox.ProjectorIndex.find", "contextuality.solve"} <= names
    assert all(op == SETUP_OP for op in recorder.frozen().op)


def test_wrappers_are_restored_when_the_run_raises():
    tracer = Tracer(SpanRecorder(), layers.TARGETS)
    with pytest.raises(pc.NotAParadox):
        with tracer.active():
            scenario = inputs.closure_scenario(4, np.random.default_rng(0))
            pc.build_constraint_system(scenario, pc.detect_paradox(scenario))
    assert tracer.leftovers() == []


# --- the command ---------------------------------------------------------------


def _benchmark_json():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_traced_run_reports_every_per_layer_metric(capsys):
    assert run.main(["--workload", "ks", "--seconds", "0.01", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["contextuality.solve.branches"]["value"] > 0


def test_untraced_run_reports_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "corpus", "--seconds", "0.01", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    expected = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_refuses_without_library_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "ks", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
