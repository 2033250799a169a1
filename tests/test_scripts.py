"""Smoke tests for the example scripts under scripts/."""

import importlib.util
import pathlib

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_paradox_hunt_finds_no_counterexample(capsys):
    assert load_script("paradox_hunt").run(12, 2026) == 0
    assert "UNSAT: 12, SAT: 0" in capsys.readouterr().out


def test_three_box_demo_runs(capsys):
    load_script("three_box_demo").run()
    out = capsys.readouterr().out
    assert "status: UNSAT" in out
    assert "# sampler, E2" in out


def test_closure_scaling_checks_stored_counts(capsys):
    script = load_script("closure_scaling")
    assert script.run(((6, 3, 62),)) == 0
    assert "d=6 depth=3: 62 stored (want 62), no paradox" in capsys.readouterr().out
    assert script.run(((6, 3, 61),)) == 1
    assert "FAILED" in capsys.readouterr().out
