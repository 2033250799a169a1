"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import dataclasses
import pathlib
import time
from contextlib import contextmanager
from itertools import product

import numpy as np
import pytest

from ppscontext.cli import main
from ppscontext.contextuality import (
    build_constraint_system,
    export_orthogonality_graph,
    solve,
    split_complement,
    verify_forced_value,
)
from ppscontext.generate import (
    conjugate_scenario,
    paradox_corpus,
    random_scenario,
    random_unitary,
    rng_for,
    swap_selections,
)
from ppscontext.linalg import max_abs, projector_from_vectors
from ppscontext.measurement import (
    EPS_PROB,
    Scenario,
    abl_probability,
    abl_table,
    simulate_frequencies,
)
from ppscontext.paradox import detect_paradox
from ppscontext.scenarios import eight_ray_system, three_box

GOLDEN = pathlib.Path(__file__).parent / "golden" / "three_box.dot"
CORPUS_SEED = 20260811
CORPUS_SIZE = 60


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


@pytest.fixture(scope="module")
def corpus():
    return paradox_corpus(seed=CORPUS_SEED, count=CORPUS_SIZE)


def test_criterion_1_three_box_certainties():
    with criterion(1, "three-box certainties are 0/1 within 1e-9, < 1 ms"):
        scenario = three_box()
        e1, e2 = scenario.measurements
        abl_probability(scenario, e1, 0)  # warm-up
        start = time.perf_counter()
        values = (
            abl_probability(scenario, e1, 0),
            abl_probability(scenario, e1, 1),
            abl_probability(scenario, e2, 0),
            abl_probability(scenario, e2, 1),
        )
        elapsed = time.perf_counter() - start
        assert abs(values[0] - 1.0) <= 1e-9
        assert abs(values[1]) <= 1e-9
        assert abs(values[2] - 1.0) <= 1e-9
        assert abs(values[3]) <= 1e-9
        assert elapsed < 1e-3


def test_criterion_2_golden_decomposition():
    with criterion(2, "certain-outcome decomposition hits the golden rays, < 10 ms"):
        scenario = three_box()
        split_complement(scenario, scenario.measurements[0].elements[0])  # warm-up
        start = time.perf_counter()
        dec1 = split_complement(scenario, scenario.measurements[0].elements[0])
        dec2 = split_complement(scenario, scenario.measurements[1].elements[0])
        elapsed = time.perf_counter() - start
        plus23 = projector_from_vectors([[0, 1, 1]])
        minus23 = projector_from_vectors([[0, 1, -1]])
        plus13 = projector_from_vectors([[1, 0, 1]])
        minus13 = projector_from_vectors([[1, 0, -1]])
        assert dec1.q.rank == 1 and dec1.r.rank == 1
        assert max_abs(dec1.q.matrix @ plus23.matrix - dec1.q.matrix) <= 1e-9
        assert max_abs(dec1.r.matrix @ minus23.matrix - dec1.r.matrix) <= 1e-9
        assert dec2.q.rank == 1 and dec2.r.rank == 1
        assert max_abs(dec2.q.matrix @ plus13.matrix - dec2.q.matrix) <= 1e-9
        assert max_abs(dec2.r.matrix @ minus13.matrix - dec2.r.matrix) <= 1e-9
        assert elapsed < 10e-3


def test_criterion_3_mechanized_eight_ray_proof(capsys):
    with criterion(3, "three-box proof: UNSAT over 8 rays, box-1/box-2 conflict, < 100 ms"):
        scenario = three_box()
        detect_paradox(scenario)  # warm-up
        start = time.perf_counter()
        verdict = detect_paradox(scenario)
        system = build_constraint_system(scenario, verdict)
        cert = solve(system)
        elapsed = time.perf_counter() - start
        assert len(system.nodes) == 8
        assert all(p.rank == 1 for p in system.nodes)
        assert cert.status == "UNSAT"
        assert cert.search_nodes <= 2**8
        kind, a, b = cert.conflict
        assert kind == "exclusion"
        assert {system.labels[a], system.labels[b]} == {"(1, 0, 0)", "(0, 1, 0)"}
        assert elapsed < 100e-3
        exit_code = main(["prove", "--builtin", "three-box"])
        capsys.readouterr()
        assert exit_code == 0


def test_criterion_4_eight_ray_fixture_flips_with_post_fixing():
    with criterion(4, "eight-ray fixture: UNSAT; dropping the post fix gives SAT, < 100 ms"):
        system = eight_ray_system()
        relaxed = dataclasses.replace(system, fixed=(system.fixed[0],))
        solve(system)  # warm-up
        start = time.perf_counter()
        full = solve(system)
        partial = solve(relaxed)
        elapsed = time.perf_counter() - start
        assert full.status == "UNSAT"
        assert partial.status == "SAT"
        assert elapsed < 100e-3

        def exhaustive(sys_):
            fixed = dict(sys_.fixed)
            for values in product((0, 1), repeat=len(sys_.nodes)):
                if any(values[n] != v for n, v in fixed.items()):
                    continue
                if any(values[x] + values[y] > 1 for x, y in sys_.exclusions):
                    continue
                if any(sum(values[m] for m in r) != 1 for r in sys_.resolutions):
                    continue
                return "SAT"
            return "UNSAT"

        assert exhaustive(system) == "UNSAT"
        assert exhaustive(relaxed) == "SAT"


def test_criterion_5_monte_carlo_oracle():
    with criterion(5, "sampler agrees with the conditional probabilities, < 60 s"):
        start = time.perf_counter()
        scenario = three_box()
        e1 = scenario.measurements[0]
        result = simulate_frequencies(scenario, e1, 1_000_000, seed=42)
        accepted = sum(count for _, count in result.values())
        assert accepted > 0
        assert abs(result[0][0] - 1.0) < 0.005

        for case in range(20):
            rng = rng_for(7_000 + case)
            dim = [2, 3, 4][case % 3]
            rand = random_scenario(dim, rng, n_pvms=1)
            pvm = rand.measurements[0]
            freqs = simulate_frequencies(rand, pvm, 200_000, seed=9_000 + case)
            n_accepted = sum(count for _, count in freqs.values())
            assert n_accepted > 0
            for k in range(len(pvm.elements)):
                p = abl_probability(rand, pvm, k)
                bound = 5 * np.sqrt(p * (1 - p) / n_accepted)
                assert abs(freqs[k][0] - p) <= bound + 1e-12
        assert time.perf_counter() - start < 60


def test_criterion_6_generated_paradoxes_all_prove_unsat(corpus):
    with criterion(6, f"{CORPUS_SIZE} planted paradoxes all detected and proven UNSAT, < 120 s"):
        start = time.perf_counter()
        assert len(corpus) >= 50
        for scenario in corpus:
            assert scenario.pre_post_overlap() > EPS_PROB
            verdict = detect_paradox(scenario)
            assert verdict.is_logical and verdict.is_paradox
            system = build_constraint_system(scenario, verdict)
            cert = solve(system)
            assert cert.status == "UNSAT"
        assert time.perf_counter() - start < 120


def test_criterion_7_forced_values_everywhere(corpus):
    with criterion(7, "every extremal conditional probability is forced, < 60 s"):
        start = time.perf_counter()
        checked = 0
        for scenario in [three_box(), *corpus]:
            table = abl_table(scenario)
            for pvm in scenario.measurements:
                for k in range(len(pvm.elements)):
                    if (pvm.name, k) not in table.certain:
                        continue
                    assert verify_forced_value(scenario, pvm, k)
                    checked += 1
        assert checked >= 4 * (len(corpus) + 1) // 2
        assert time.perf_counter() - start < 60


def test_criterion_8_invariance_suite():
    with criterion(8, "normalization, rescaling, rotation and swap invariances, < 30 s"):
        start = time.perf_counter()

        for case in range(100):  # normalization
            rng = rng_for(100 + case)
            scenario = random_scenario([2, 3, 4][case % 3], rng, n_pvms=1)
            table = abl_table(scenario)
            for pvm in scenario.measurements:
                total = sum(
                    table.entries[(pvm.name, k)] for k in range(len(pvm.elements))
                )
                assert abs(total - 1.0) <= 1e-9

        for case in range(100):  # rescaling of the pre-selection vector
            rng = rng_for(300 + case)
            dim = [2, 3, 4][case % 3]
            phi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            scale = 0.5 + 2 * rng.random() + 1j * rng.random()
            pvm = random_scenario(dim, rng, n_pvms=1).measurements[0]
            a = Scenario(dim, projector_from_vectors([phi]),
                         projector_from_vectors([psi]), (pvm,))
            b = Scenario(dim, projector_from_vectors([scale * phi]),
                         projector_from_vectors([psi]), (pvm,))
            ta, tb = abl_table(a), abl_table(b)
            for key, value in ta.entries.items():
                assert abs(tb.entries[key] - value) <= 1e-9

        paradox_flags = 0
        for case in range(100):  # unitary covariance of tables and verdicts
            rng = rng_for(500 + case)
            if case % 2 == 0:
                scenario = random_scenario([2, 3, 4][case % 3], rng, n_pvms=2)
            else:
                scenario = conjugate_scenario(three_box(), random_unitary(3, rng))
            unitary = random_unitary(scenario.dim, rng)
            rotated = conjugate_scenario(scenario, unitary)
            ta, tb = abl_table(scenario), abl_table(rotated)
            for key, value in ta.entries.items():
                assert abs(tb.entries[key] - value) <= 1e-9
            va, vb = detect_paradox(scenario), detect_paradox(rotated)
            assert va.is_paradox == vb.is_paradox
            assert va.is_logical == vb.is_logical
            paradox_flags += va.is_paradox
        assert paradox_flags >= 50  # the rotated three-box cases

        for case in range(100):  # pre/post swap symmetry
            rng = rng_for(700 + case)
            scenario = random_scenario([2, 3, 4][case % 3], rng, n_pvms=2)
            ta, tb = abl_table(scenario), abl_table(swap_selections(scenario))
            for key, value in ta.entries.items():
                assert abs(tb.entries[key] - value) <= 1e-9

        assert time.perf_counter() - start < 30


def test_criterion_9_graph_golden(tmp_path, capsys):
    with criterion(9, "orthogonality graph matches the golden eight-ray diagram, < 10 ms"):
        scenario = three_box()
        verdict = detect_paradox(scenario)
        system = build_constraint_system(scenario, verdict)
        export_orthogonality_graph(system)  # warm-up
        start = time.perf_counter()
        text = export_orthogonality_graph(system)
        elapsed = time.perf_counter() - start
        assert elapsed < 10e-3
        assert text == GOLDEN.read_text()

        out_path = tmp_path / "three_box.dot"
        exit_code = main(["graph", "--builtin", "three-box", "--out", str(out_path)])
        capsys.readouterr()
        assert exit_code == 0
        assert out_path.read_bytes() == GOLDEN.read_bytes()

        edges = {
            tuple(sorted((system.labels[a], system.labels[b])))
            for a, b in system.exclusions
        }
        expected = {
            tuple(sorted(pair))
            for pair in [
                ("(1, 1, 1)", "(0, 1, -1)"),
                ("(1, 1, 1)", "(1, 0, -1)"),
                ("(1, 1, -1)", "(0, 1, 1)"),
                ("(1, 1, -1)", "(1, 0, 1)"),
                ("(1, 0, 0)", "(0, 1, 0)"),
                ("(1, 0, 0)", "(0, 1, 1)"),
                ("(1, 0, 0)", "(0, 1, -1)"),
                ("(0, 1, 0)", "(1, 0, 1)"),
                ("(0, 1, 0)", "(1, 0, -1)"),
                ("(0, 1, 1)", "(0, 1, -1)"),
                ("(1, 0, 1)", "(1, 0, -1)"),
            ]
        }
        assert len(system.nodes) == 8
        assert edges == expected
