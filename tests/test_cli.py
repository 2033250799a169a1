"""Command-line interface: exit codes, reports, determinism."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from ppscontext.cli import build_parser, main
from ppscontext.scenarios import save_scenario, three_box

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "three_box.dot"
SRC_DIR = pathlib.Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_prove_three_box_exits_zero(capsys):
    code, out, _ = run(capsys, "prove", "--builtin", "three-box")
    assert code == 0
    assert "status: UNSAT" in out
    assert 'contradiction: exclusion "(1, 0, 0)" -- "(0, 1, 0)"' in out
    assert "status=UNSAT" in out


def test_prove_clifton_rays(capsys):
    code, out, _ = run(capsys, "prove", "--builtin", "clifton-rays")
    assert code == 0
    assert "nodes=8" in out


GOLDEN_REPORTS = [
    (("prove", "--builtin", "three-box"), 0, "three_box_prove.txt"),
    (("prove", "--builtin", "clifton-rays"), 0, "clifton_rays_prove.txt"),
    (("abl", "--builtin", "three-box"), 0, "three_box_abl.txt"),
    (("detect", "--builtin", "three-box"), 0, "three_box_detect.txt"),
    (("detect", "--builtin", "three-box", "--depth", "0"), 2,
     "three_box_detect_depth0.txt"),
    # pre |0>, post |+>, Y basis: both outcomes 1/2, so not logical
    (("detect", "--file", str(GOLDEN_DIR / "y_basis.json")), 2, "y_basis_detect.txt"),
    (("simulate", "--builtin", "three-box", "--pvm", "E1", "--samples", "1000000",
      "--seed", "42"), 0, "three_box_simulate.txt"),
]


@pytest.mark.parametrize(
    "argv, code, golden",
    [
        pytest.param(argv, code, golden, id=f"{pathlib.Path(argv[2]).name}-{golden}")
        for argv, code, golden in GOLDEN_REPORTS
    ],
)
def test_prove_report_matches_golden(capsys, argv, code, golden):
    # node order and labels follow ProjectorIndex slots, so the whole
    # report is pinned, not just its verdict lines
    got, out, err = run(capsys, *argv)
    assert got == code
    assert err == ""
    assert out.encode() == (GOLDEN_DIR / golden).read_bytes()


@pytest.mark.parametrize("hash_seed", ["0", "1"])
@pytest.mark.parametrize(
    "argv, code, golden",
    [
        pytest.param(argv, code, golden, id=f"{pathlib.Path(argv[2]).name}-{golden}")
        for argv, code, golden in GOLDEN_REPORTS
    ],
)
def test_golden_report_out_of_process(argv, code, golden, hash_seed):
    # A fresh interpreter through `python -m`, under two string-hash seeds.
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR), "PYTHONHASHSEED": hash_seed}
    done = subprocess.run(
        [sys.executable, "-m", "ppscontext.cli", *argv], capture_output=True, env=env
    )
    assert done.returncode == code
    assert done.stdout == (GOLDEN_DIR / golden).read_bytes()


def test_detect_three_box_exits_zero(capsys):
    code, out, _ = run(capsys, "detect", "--builtin", "three-box")
    assert code == 0
    assert "paradox=true" in out


def test_detect_non_paradox_exits_two(tmp_path, capsys):
    doc = {
        "dimension": 2,
        "pre": {"vector": [[1, 0], [0, 0]]},
        "post": {"vector": [[1, 0], [0, 0]]},
        "measurements": [
            {
                "name": "Z",
                "outcomes": [
                    {"vector": [[1, 0], [0, 0]]},
                    {"vector": [[0, 0], [1, 0]]},
                ],
            }
        ],
    }
    path = tmp_path / "plain.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "detect", "--file", str(path))
    assert code == 2
    assert "paradox=false" in out


def test_non_finite_number_in_file_is_parse_error(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(
        '{"dimension": 2, "pre": {"vector": [[NaN, 0], [0, 0]]},'
        ' "post": {"vector": [[1, 0], [1, 0]]},'
        ' "measurements": [{"name": "Z", "outcomes":'
        ' [{"vector": [[1, 0], [0, 0]]}, {"vector": [[0, 0], [1, 0]]}]}]}'
    )
    code, out, err = run(capsys, "abl", "--file", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error ParseError")
    assert "Traceback" not in err


def test_abl_file_with_huge_finite_vectors(tmp_path, capsys):
    # Huge vectors span the same rays as their scaled-down copies, with no
    # overflow warning on stderr.
    def scenario(pre, post):
        return (
            f'{{"dimension": 2, "pre": {{"vector": {pre}}}, "post": {{"vector": {post}}},'
            ' "measurements": [{"name": "Z", "outcomes":'
            ' [{"vector": [[1, 0], [0, 0]]}, {"vector": [[0, 0], [1, 0]]}]}]}'
        )

    huge, plain = tmp_path / "huge.json", tmp_path / "plain.json"
    huge.write_text(scenario("[[1.7e308, 0], [1.7e308, 0]]", "[[1e200, 1e200], [1e200, 0]]"))
    plain.write_text(scenario("[[1, 0], [1, 0]]", "[[1, 1], [1, 0]]"))
    code, out, err = run(capsys, "abl", "--file", str(huge))
    assert (code, err) == (0, "")
    assert out == run(capsys, "abl", "--file", str(plain))[1]


def test_non_utf8_file_is_parse_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"dimension": 2}'.encode("utf-16-le"))
    code, out, err = run(capsys, "abl", "--file", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error ParseError: cannot read")
    assert "Traceback" not in err


def test_deeply_nested_file_is_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000 + "]" * 5000)
    code, out, err = run(capsys, "abl", "--file", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error ParseError: cannot parse {path}")
    assert "Traceback" not in err


def test_pvm_name_cannot_forge_report_lines(tmp_path, capsys):
    # Printed as is, this name would add a "paradox=false" line to the
    # machine block of a paradox report.
    path = tmp_path / "forged.json"
    save_scenario(three_box(), path)
    doc = json.loads(path.read_text())
    doc["measurements"][1]["name"] = "E2=0\nparadox=false\nX"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "detect", "--file", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error ParseError: measurements[1]: PVM name")
    assert "Traceback" not in err


def test_graph_out_into_missing_directory_is_tool_error(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "x.dot"
    code, out, err = run(capsys, "graph", "--builtin", "three-box", "--out", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("error ToolError: cannot write")
    assert "Traceback" not in err
    assert not target.parent.exists()


def test_abl_three_box(capsys):
    code, out, _ = run(capsys, "abl", "--builtin", "three-box")
    assert code == 0
    assert "abl.E1.0=1.000000000000" in out
    assert "abl.E2.1=0.000000000000" in out


def test_abl_report_probabilities_have_12_decimals(capsys):
    _, out, _ = run(capsys, "abl", "--builtin", "three-box")
    assert "p(E1[0]) = 1.000000000000" in out


def test_simulate_three_box(capsys):
    code, out, _ = run(
        capsys, "simulate", "--builtin", "three-box",
        "--pvm", "E1", "--samples", "20000", "--seed", "42",
    )
    assert code == 0
    assert "freq.E1.0=1.000000000000" in out


def test_simulate_reports_are_deterministic(capsys):
    args = ("simulate", "--builtin", "three-box", "--pvm", "E1",
            "--samples", "20000", "--seed", "9")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_simulate_requires_pvm(capsys):
    code, _, err = run(capsys, "simulate", "--builtin", "three-box")
    assert code == 1
    assert "error ToolError" in err


def test_graph_matches_golden_file(tmp_path, capsys):
    out_path = tmp_path / "graph.dot"
    code, _, _ = run(capsys, "graph", "--builtin", "three-box",
                     "--out", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == GOLDEN.read_bytes()


def test_graph_stdout_matches_golden(capsys):
    code, out, _ = run(capsys, "graph", "--builtin", "three-box")
    assert code == 0
    assert out == GOLDEN.read_text()


def test_graph_on_fixture(capsys):
    code, out, _ = run(capsys, "graph", "--builtin", "clifton-rays")
    assert code == 0
    assert out.startswith("graph {")
    assert out.count(" -- ") == 11


def test_unknown_builtin_exits_one(capsys):
    code, _, err = run(capsys, "abl", "--builtin", "four-box")
    assert code == 1
    assert "error UnknownBuiltin" in err


def test_fixture_rejected_by_scenario_commands(capsys):
    code, _, err = run(capsys, "abl", "--builtin", "clifton-rays")
    assert code == 1
    assert "error NotAScenario" in err


def test_missing_file_exits_one(capsys):
    code, _, err = run(capsys, "abl", "--file", "/nonexistent/scenario.json")
    assert code == 1
    assert "error ParseError" in err


def test_usage_error_exits_one(capsys):
    code, _, err = run(capsys, "abl")
    assert code == 1
    assert "UsageError" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--builtin", "three-box", "--pvm", "E1", "--samples", "0"),
        ("simulate", "--builtin", "three-box", "--pvm", "E1", "--seed", "-1"),
        ("detect", "--builtin", "three-box", "--depth", "-1"),
    ],
    ids=["samples-0", "seed-negative", "depth-negative"],
)
def test_out_of_range_count_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "error UsageError: argument " + argv[-2] in err


def test_samples_above_max_is_usage_error(capsys):
    # 2**63 is one more than the largest count numpy's binomial draw takes.
    code, out, err = run(capsys, "simulate", "--builtin", "three-box",
                         "--pvm", "E1", "--samples", str(2**63))
    assert code == 1
    assert out == ""
    assert "error UsageError: argument --samples: must be <= 9223372036854775807" in err
    assert "Traceback" not in err


def test_usage_error_leaves_the_next_call_unaffected(capsys):
    # main parses with one parser per process, so a failed parse must leave
    # nothing behind: not a value, a default or a used exclusive option.
    assert build_parser() is build_parser()
    valid = ("simulate", "--builtin", "three-box", "--pvm", "E1", "--samples", "50")
    first = run(capsys, *valid)
    assert first[0] == 0
    for bad in (
        ("simulate", "--builtin", "three-box", "--file", "x.json", "--pvm", "E1"),
        ("simulate", "--builtin", "three-box", "--pvm", "E2", "--samples", "0"),
        ("simulate", "--builtin", "three-box", "--pvm", "E2", "--seed", "9", "--depth", "1"),
    ):
        code, out, err = run(capsys, *bad)
        assert (code, out) == (1, "")
        assert "error UsageError" in err
        assert run(capsys, *valid) == first


READS = {
    "abl": (),
    "detect": ("--depth",),
    "prove": ("--depth",),
    "simulate": ("--pvm", "--samples", "--seed"),
    "graph": ("--depth", "--out"),
}
VALUES = {"--pvm": "E1", "--samples": "10", "--seed": "1", "--depth": "2",
          "--out": "g.dot"}


@pytest.mark.parametrize(
    "command, option",
    [(command, option) for command in READS for option in VALUES],
)
def test_subcommand_takes_only_the_options_it_reads(capsys, command, option):
    argv = [command, "--builtin", "three-box", option, VALUES[option]]
    if option in READS[command]:
        args = build_parser().parse_args(argv)
        assert str(getattr(args, option[2:])) == VALUES[option]
    else:
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"error UsageError: unrecognized arguments: {option}" in err


def test_prove_on_non_paradox_errors(tmp_path, capsys):
    scenario = three_box()
    from ppscontext.measurement import Scenario

    single = Scenario(3, scenario.pre, scenario.post, (scenario.measurements[0],))
    path = tmp_path / "single.json"
    save_scenario(single, path)
    code, _, err = run(capsys, "prove", "--file", str(path))
    assert code == 1
    assert "error NotAParadox" in err


def test_prove_on_near_certain_paradox_errors(tmp_path, capsys):
    # detect reads a paradox within EPS_LOGIC; prove refuses its build.
    from ppscontext.linalg import projector_from_vectors
    from ppscontext.measurement import Scenario

    box = three_box()
    pre = projector_from_vectors([[1, 1, 1 + 1e-5]])
    path = tmp_path / "near.json"
    save_scenario(Scenario(3, pre, box.post, box.measurements), path)
    assert run(capsys, "detect", "--file", str(path))[0] == 0
    code, out, err = run(capsys, "prove", "--file", str(path))
    assert code == 1
    assert out == ""
    assert err == (
        "error PreconditionViolated: post (I-p) pre has max entry 1.11e-06; "
        "the outcome is not certain under the selections\n"
    )


def test_detect_computes_the_abl_table_once(monkeypatch, capsys):
    from ppscontext import cli, paradox
    from ppscontext.measurement import abl_table

    calls = []

    def counted(scenario):
        calls.append(scenario)
        return abl_table(scenario)

    monkeypatch.setattr(cli, "abl_table", counted)
    monkeypatch.setattr(paradox, "abl_table", counted)
    code, out, _ = run(capsys, "detect", "--builtin", "three-box")
    assert code == 0
    assert out.encode() == (GOLDEN_DIR / "three_box_detect.txt").read_bytes()
    assert len(calls) == 1


def test_simulate_unknown_pvm_error_line_is_unquoted(capsys):
    code, out, err = run(capsys, "simulate", "--builtin", "three-box", "--pvm", "NOPE")
    assert (code, out) == (1, "")
    assert err == "error ToolError: no PVM named 'NOPE' in scenario\n"


def test_prove_sat_report_prints_the_witness(tmp_path, capsys):
    # Pigeonhole on three qubits is a closure paradox whose system is SAT.
    from ppscontext.contextuality import build_constraint_system, solve
    from ppscontext.paradox import detect_paradox
    from test_closure_parity import pigeonhole

    scenario = pigeonhole(3)
    path = tmp_path / "pigeonhole3.json"
    save_scenario(scenario, path)
    code, out, _ = run(capsys, "prove", "--file", str(path))
    assert code == 2
    system = build_constraint_system(scenario, detect_paradox(scenario))
    witness = solve(system).witness
    assert len(witness) == 11
    lines = out.splitlines()
    assert "status: SAT" in lines
    assert "witness: " + " ".join(
        f'"{label}"={v}' for label, v in zip(system.labels, witness)
    ) in lines
    assert 'witness: "(1, 1, 1, 1, 1, 1, 1, 1)"=1 ' in out
    machine = lines[lines.index("= machine =") + 1:]
    assert [line for line in machine if line.startswith("witness.")] == [
        f"witness.{i}={v}" for i, v in enumerate(witness)
    ]
    assert "trace:" not in out


def test_unsat_trace_prints_decision_steps():
    # CEGA-18 needs branching: its last failed branch holds 10 decisions.
    from ppscontext.cli import _certificate_part
    from ppscontext.contextuality import solve
    from test_solve_parity import CEGA_18, ray_system

    system = ray_system(CEGA_18, 4)
    cert = solve(system)
    _, lines, pairs = _certificate_part(system, cert)
    decisions = [(node, value) for node, value, reason in cert.trace if reason[0] == "decision"]
    assert cert.status == "UNSAT" and len(decisions) == 10
    assert [line for line in lines if "[decision on " in line] == [
        f'  "{system.labels[node]}" := {value}   [decision on "{system.labels[node]}"]'
        for node, value in decisions
    ]
    assert lines[4] == '  "(0, 0, 0, 1)" := 0   [decision on "(0, 0, 0, 1)"]'
    assert not any(key.startswith("witness.") for key, _ in pairs)


def test_abl_report_marks_an_impossible_post_selection(tmp_path, capsys):
    # pre |0>, post |1>: the Z measurement can never be post-selected.
    from ppscontext.linalg import projector_from_vectors
    from ppscontext.measurement import Pvm, Scenario

    zero, one = (projector_from_vectors([v]) for v in ([1, 0], [0, 1]))
    plus, minus = (projector_from_vectors([v]) for v in ([1, 1], [1, -1]))
    scenario = Scenario(2, zero, one, (Pvm("Z", (zero, one)), Pvm("X", (plus, minus))))
    path = tmp_path / "blocked.json"
    save_scenario(scenario, path)
    code, out, _ = run(capsys, "abl", "--file", str(path))
    assert code == 0
    assert "Z: weight 0.000000000000\n  post-selection impossible; no entries\nX: weight" in out
    assert out.count("post-selection impossible") == 1
    assert "abl.Z." not in out
