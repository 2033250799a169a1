"""ABL probabilities, state updates, and the sampling oracle."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppscontext import linalg, measurement
from ppscontext.errors import (
    DimensionMismatch,
    ImpossiblePostselection,
    NoAcceptedRuns,
    ZeroProbabilityOutcome,
)
from ppscontext.generate import conjugate_scenario, random_scenario, random_unitary, rng_for, swap_selections
from ppscontext.linalg import EPS_PROJ, Operator, max_abs, projector_from_vectors, zero_projector
from ppscontext.measurement import (
    EPS_PROB,
    MAX_SAMPLES,
    Pvm,
    Scenario,
    abl_probability,
    abl_table,
    luders_update,
    simulate_frequencies,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def basis_proj(dim, i):
    v = np.zeros(dim)
    v[i] = 1.0
    return projector_from_vectors([v])


def basis_pvm(name, dim):
    return Pvm(name, tuple(basis_proj(dim, i) for i in range(dim)))


def test_pvm_validation():
    with pytest.raises(ValueError):
        Pvm("bad", (basis_proj(2, 0),))  # too few elements
    with pytest.raises(ValueError):
        Pvm("bad", (basis_proj(3, 0), basis_proj(3, 1)))  # no identity sum
    p = projector_from_vectors([[1, 1]])
    with pytest.raises(ValueError):
        Pvm("bad", (p, basis_proj(2, 0)))  # not orthogonal


@pytest.mark.parametrize("name", ["E2=0", "E2\nparadox=false", "tab\there", "nul\0"])
def test_pvm_name_must_be_printable_without_equals(name):
    with pytest.raises(ValueError, match="must be printable and contain no '='"):
        Pvm(name, (basis_proj(2, 0), basis_proj(2, 1)))


def test_pvm_name_may_hold_spaces_and_unicode():
    assert Pvm("box 1 ⟨ψ|", (basis_proj(2, 0), basis_proj(2, 1))).name == "box 1 ⟨ψ|"


def test_pvm_names_first_nonorthogonal_pair_in_row_order():
    # Pairs (0, 3) and (1, 2) fail; (0, 3) comes first row by row.
    e = np.eye(4)
    spans = ([e[0]], [e[1]], [e[1] + e[2]], [e[0] + e[3]])
    elements = tuple(projector_from_vectors(s) for s in spans)
    with pytest.raises(ValueError, match=r"'P': elements 0 and 3 are not orthogonal"):
        Pvm("P", elements)


def test_pvm_makes_no_pairwise_orthogonality_calls(monkeypatch):
    calls = []

    def counted(p, q):
        calls.append((p, q))
        return is_orthogonal(p, q)

    is_orthogonal = linalg.is_orthogonal
    for module in (linalg, measurement):
        monkeypatch.setattr(module, "is_orthogonal", counted, raising=False)
    assert len(basis_pvm("B", 4)) == 4
    assert calls == []
    # The counter does count.
    linalg.is_orthogonal(basis_proj(4, 0), basis_proj(4, 1))
    assert len(calls) == 1


def test_scenario_validation():
    e1 = Pvm("E", (basis_proj(2, 0), basis_proj(2, 1)))
    with pytest.raises(ValueError):
        Scenario(2, basis_proj(2, 0), basis_proj(2, 1), (e1, e1))  # dup names
    with pytest.raises(DimensionMismatch):
        Scenario(3, basis_proj(2, 0), basis_proj(2, 1), (e1,))


def test_scenario_needs_a_measurement(box3):
    # With no PVM there is nothing to condition on, although Tr(post pre) > 0.
    assert box3.pre_post_overlap() > 0
    with pytest.raises(ValueError, match="at least one measurement"):
        Scenario(3, box3.pre, box3.post, ())


def test_three_box_certainties(box3):
    e1, e2 = box3.measurements
    assert abl_probability(box3, e1, 0) == pytest.approx(1.0, abs=1e-9)
    assert abl_probability(box3, e1, 1) == pytest.approx(0.0, abs=1e-9)
    assert abl_probability(box3, e2, 0) == pytest.approx(1.0, abs=1e-9)
    assert abl_probability(box3, e2, 1) == pytest.approx(0.0, abs=1e-9)


def test_repeated_rank1_measurement_is_certain():
    pre = basis_proj(2, 0)
    pvm = Pvm("Z", (basis_proj(2, 0), basis_proj(2, 1)))
    scenario = Scenario(2, pre, pre, (pvm,))
    assert abl_probability(scenario, pvm, 0) == pytest.approx(1.0, abs=1e-9)


def test_three_box_which_box_measurement_is_uniform(box3):
    # amplitudes <psi|j><j|phi> are 1, 1, -1, so each outcome has
    # conditional probability 1/3
    pvm = basis_pvm("B", 3)
    for k in range(3):
        assert abl_probability(box3, pvm, k) == pytest.approx(1 / 3, abs=1e-9)


def test_abl_probability_errors(box3):
    e1 = box3.measurements[0]
    with pytest.raises(IndexError):
        abl_probability(box3, e1, 5)
    with pytest.raises(DimensionMismatch):
        abl_probability(box3, Pvm("Z", (basis_proj(2, 0), basis_proj(2, 1))), 0)
    blocked = Scenario(2, basis_proj(2, 0), basis_proj(2, 1),
                       (Pvm("Z", (basis_proj(2, 0), basis_proj(2, 1))),))
    with pytest.raises(ImpossiblePostselection):
        abl_probability(blocked, blocked.measurements[0], 0)


def test_abl_table_three_box(box3):
    table = abl_table(box3)
    assert table.entries[("E1", 0)] == pytest.approx(1.0, abs=1e-9)
    assert table.entries[("E1", 1)] == pytest.approx(0.0, abs=1e-9)
    assert table.entries[("E2", 0)] == pytest.approx(1.0, abs=1e-9)
    assert table.entries[("E2", 1)] == pytest.approx(0.0, abs=1e-9)
    assert table.postselection_weights["E1"] > EPS_PROB
    assert table.postselection_weights["E2"] > EPS_PROB


def test_abl_table_records_impossible_pvm_with_weight_zero():
    # pre = |1>, post = |2>: measuring in the same basis can never be
    # post-selected, while the rotated measurement can.
    plus = projector_from_vectors([[1, 1]])
    minus = projector_from_vectors([[1, -1]])
    scenario = Scenario(
        2,
        basis_proj(2, 0),
        basis_proj(2, 1),
        (
            Pvm("Z", (basis_proj(2, 0), basis_proj(2, 1))),
            Pvm("X", (plus, minus)),
        ),
    )
    table = abl_table(scenario)
    assert table.postselection_weights["Z"] == 0.0
    assert ("Z", 0) not in table.entries and ("Z", 1) not in table.entries
    assert table.entries[("X", 0)] == pytest.approx(0.5, abs=1e-9)
    assert table.entries[("X", 1)] == pytest.approx(0.5, abs=1e-9)


@given(seeds)
def test_abl_table_matches_per_element_calls(seed):
    scenario = random_scenario(4, rng_for(seed), n_pvms=2)
    table = abl_table(scenario)
    for pvm in scenario.measurements:
        for k in range(len(pvm.elements)):
            assert table.entries[(pvm.name, k)] == pytest.approx(
                abl_probability(scenario, pvm, k), abs=1e-12
            )


@given(seeds, st.sampled_from([2, 3, 4]))
def test_abl_probabilities_normalize(seed, dim):
    scenario = random_scenario(dim, rng_for(seed), n_pvms=2)
    table = abl_table(scenario)
    for pvm in scenario.measurements:
        total = sum(table.entries[(pvm.name, k)] for k in range(len(pvm.elements)))
        assert total == pytest.approx(1.0, abs=EPS_PROB)


@given(seeds)
def test_abl_swap_symmetry(seed):
    scenario = random_scenario(3, rng_for(seed), n_pvms=2)
    swapped = swap_selections(scenario)
    t1, t2 = abl_table(scenario), abl_table(swapped)
    for key, value in t1.entries.items():
        assert t2.entries[key] == pytest.approx(value, abs=EPS_PROB)


def test_luders_projects_maximally_mixed_state(box3):
    rho = Operator(np.eye(3) / 3)
    p1 = box3.measurements[0].elements[0]
    out = luders_update(rho, p1)
    assert max_abs(out.matrix - p1.matrix) <= EPS_PROJ


def test_luders_update_of_preselected_state(box3):
    phi = np.array([1.0, 1.0, 1.0])
    rho = Operator(np.outer(phi, phi) / 3)
    p1c = box3.measurements[0].elements[1]
    out = luders_update(rho, p1c)
    expected = projector_from_vectors([[0, 1, 1]])
    assert max_abs(out.matrix - expected.matrix) <= EPS_PROJ


def test_luders_fixed_point():
    p = projector_from_vectors([[0, 1, 0], [0, 0, 1]])
    rho = Operator(np.diag([0.0, 0.25, 0.75]))
    out = luders_update(rho, p)
    assert max_abs(out.matrix - rho.matrix) <= EPS_PROJ


def test_luders_zero_probability_outcome():
    rho = Operator(np.diag([1.0, 0.0]))
    with pytest.raises(ZeroProbabilityOutcome):
        luders_update(rho, basis_proj(2, 1))


def test_luders_rejects_invalid_states():
    with pytest.raises(ValueError):
        luders_update(Operator(np.diag([2.0, 0.0])), basis_proj(2, 0))
    with pytest.raises(ValueError):
        luders_update(Operator(np.diag([1.5, -0.5])), basis_proj(2, 0))


@given(seeds)
def test_luders_output_is_a_state(seed):
    rng = rng_for(seed)
    scenario = random_scenario(3, rng, n_pvms=1)
    rho = Operator(np.eye(3) / 3)
    out = luders_update(rho, scenario.pre)
    m = out.matrix
    assert abs(np.trace(m).real - 1.0) <= EPS_PROJ
    assert max_abs(m - m.conj().T) <= EPS_PROJ
    assert np.linalg.eigvalsh(m).min() >= -EPS_PROJ


def test_simulate_repeated_measurement_is_deterministic():
    pre = basis_proj(2, 0)
    pvm = Pvm("Z", (basis_proj(2, 0), basis_proj(2, 1)))
    scenario = Scenario(2, pre, pre, (pvm,))
    result = simulate_frequencies(scenario, pvm, 5000, seed=3)
    assert result[0] == (1.0, result[0][1])
    assert result[1] == (0.0, 0)


def test_simulate_three_box_certainty(box3):
    e1 = box3.measurements[0]
    result = simulate_frequencies(box3, e1, 200_000, seed=42)
    assert abs(result[0][0] - 1.0) < 0.005
    assert result[0][1] > 0


def test_simulate_seed_determinism(box3):
    e1 = box3.measurements[0]
    a = simulate_frequencies(box3, e1, 50_000, seed=11)
    b = simulate_frequencies(box3, e1, 50_000, seed=11)
    c = simulate_frequencies(box3, e1, 50_000, seed=12)
    assert a == b
    assert a != c


def test_simulate_sample_count_limits(box3):
    e1 = box3.measurements[0]
    with pytest.raises(TypeError):
        simulate_frequencies(box3, e1, 1000.0, seed=0)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        simulate_frequencies(box3, e1, 0, seed=0)
    with pytest.raises(ValueError, match=f"MAX_SAMPLES = {2**63 - 1}"):
        simulate_frequencies(box3, e1, MAX_SAMPLES + 1, seed=0)
    result = simulate_frequencies(box3, e1, MAX_SAMPLES, seed=0)
    assert result[0][1] == pytest.approx(MAX_SAMPLES / 27, rel=1e-6)
    assert result[1] == (0.0, 0)


def test_simulate_memory_does_not_grow_with_samples(box3):
    # The per-run sampler this replaced peaked at about 190 MB in this test,
    # three float64 arrays of up to 10**7 uniforms.
    e1 = box3.measurements[0]
    simulate_frequencies(box3, e1, 1000, seed=0)
    tracemalloc.start()
    try:
        simulate_frequencies(box3, e1, 10**7, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_simulate_time_does_not_grow_with_samples(box3):
    # Three-box, E1: a run passes pre-selection with chance 1/3, finds
    # box 1 with chance 1/3 and then passes post-selection with chance
    # 1/3; box 2 or 3 never passes it.
    e1 = box3.measurements[0]
    n, q = 10**15, 1 / 27
    start = time.perf_counter()
    result = simulate_frequencies(box3, e1, n, seed=2)
    assert time.perf_counter() - start < 1.0
    assert abs(result[0][1] - n * q) <= 6 * np.sqrt(n * q * (1 - q))
    assert result[1] == (0.0, 0)


def test_simulate_full_rank_preselection_always_passes():
    # This span of three vectors has a trace two ulps above 3, so
    # Tr(pre)/d > 1, which numpy's binomial draw would reject.
    pre = projector_from_vectors(list(rng_for(0).normal(size=(3, 3))))
    assert np.trace(pre.matrix).real > 3
    pvm = basis_pvm("Z", 3)
    result = simulate_frequencies(Scenario(3, pre, pre, (pvm,)), pvm, 1000, seed=0)
    assert sum(count for _, count in result.values()) == 1000


def test_simulate_no_accepted_runs():
    scenario = Scenario(
        2,
        basis_proj(2, 0),
        basis_proj(2, 1),
        (Pvm("Z", (basis_proj(2, 0), basis_proj(2, 1))),),
    )
    with pytest.raises(NoAcceptedRuns):
        simulate_frequencies(scenario, scenario.measurements[0], 1000, seed=0)



def test_simulate_no_survivor_of_preselection(box3):
    # Philox is deterministic: seed 0 fails the single run at the rank-1
    # pre-selection, which passes a third of the runs from I/3.
    with pytest.raises(NoAcceptedRuns, match="^pre-selection never succeeded$"):
        simulate_frequencies(box3, box3.measurements[0], 1, seed=0)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda box: Pvm("", box.measurements[0].elements), ValueError,
         "^a PVM needs a nonempty name$"),
        (lambda box: Pvm("M", (basis_proj(3, 0), basis_proj(2, 1))), DimensionMismatch,
         "^PVM 'M' mixes dimensions 3 and 2$"),
        (lambda box: Scenario(3, zero_projector(3), box.post, box.measurements), ValueError,
         "^pre-selection projector must have rank >= 1$"),
        (lambda box: Scenario(3, box.pre, zero_projector(3), box.measurements), ValueError,
         "^post-selection projector must have rank >= 1$"),
        (lambda box: Scenario(3, box.pre, box.post, (basis_pvm("Z", 2),)), DimensionMismatch,
         "^PVM 'Z' has dim 2, scenario has 3$"),
        (lambda box: luders_update(Operator(np.eye(3) / 3), basis_proj(2, 0)),
         DimensionMismatch, "^state and projector dimensions differ$"),
        (lambda box: simulate_frequencies(box, basis_pvm("Z", 2), 10, seed=0),
         DimensionMismatch, "^PVM dimension does not match scenario$"),
    ],
    ids=["empty-name", "mixed-dimensions", "rank-0-pre", "rank-0-post",
         "pvm-of-another-dimension", "luders-dimensions", "simulate-dimensions"],
)
def test_model_checks_name_the_broken_invariant(box3, build, error, message):
    with pytest.raises(error, match=message):
        build(box3)

@settings(max_examples=5)
@given(seeds)
def test_simulate_matches_abl_within_binomial_error(seed):
    scenario = random_scenario(3, rng_for(seed), n_pvms=1)
    pvm = scenario.measurements[0]
    result = simulate_frequencies(scenario, pvm, 100_000, seed=seed)
    accepted = sum(count for _, count in result.values())
    for k in range(len(pvm.elements)):
        p = abl_probability(scenario, pvm, k)
        bound = 5 * np.sqrt(p * (1 - p) / accepted)
        assert abs(result[k][0] - p) <= bound + 1e-12


@given(seeds)
def test_rescaling_preselection_vector_changes_nothing(seed):
    rng = rng_for(seed)
    phi = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    scale = 0.5 + 2 * rng.random() + 1j * rng.random()
    pvm = basis_pvm("B", 3)
    build = lambda v: Scenario(
        3,
        projector_from_vectors([v]),
        projector_from_vectors([psi]),
        (pvm,),
    )
    t1, t2 = abl_table(build(phi)), abl_table(build(scale * phi))
    for key, value in t1.entries.items():
        assert t2.entries[key] == pytest.approx(value, abs=EPS_PROB)


@given(seeds)
def test_abl_table_unitary_covariance(seed):
    rng = rng_for(seed)
    scenario = random_scenario(3, rng, n_pvms=2)
    rotated = conjugate_scenario(scenario, random_unitary(3, rng))
    t1, t2 = abl_table(scenario), abl_table(rotated)
    for key, value in t1.entries.items():
        assert t2.entries[key] == pytest.approx(value, abs=EPS_PROB)


def _rank2_selection_scenario(seed):
    rng = rng_for(seed)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    basis, _ = np.linalg.qr(z)
    pre = projector_from_vectors([basis[:, 0], basis[:, 1]])
    post = projector_from_vectors([basis[:, 0], basis[:, 2] + basis[:, 3]])
    pvm = random_scenario(4, rng, n_pvms=1).measurements[0]
    return Scenario(4, pre, post, (pvm,))


@given(seeds)
def test_general_rank_selections_normalize(seed):
    scenario = _rank2_selection_scenario(seed)
    table = abl_table(scenario)
    pvm = scenario.measurements[0]
    total = sum(table.entries[(pvm.name, k)] for k in range(len(pvm.elements)))
    assert total == pytest.approx(1.0, abs=EPS_PROB)


@settings(max_examples=5)
@given(seeds)
def test_general_rank_selections_match_sampler(seed):
    scenario = _rank2_selection_scenario(seed)
    pvm = scenario.measurements[0]
    freqs = simulate_frequencies(scenario, pvm, 100_000, seed=seed)
    accepted = sum(count for _, count in freqs.values())
    for k in range(len(pvm.elements)):
        p = abl_probability(scenario, pvm, k)
        bound = 5 * np.sqrt(p * (1 - p) / accepted)
        assert abs(freqs[k][0] - p) <= bound + 1e-12


def test_pvm_keeps_its_element_stack_read_only(box3):
    for pvm in box3.measurements:
        assert np.array_equal(pvm.stack, [e.matrix for e in pvm.elements])
        assert not pvm.stack.flags.writeable


def test_simulate_checks_the_preselected_state_once(monkeypatch, box3):
    # Both outcomes of E1 have positive Born weight, so both are updated;
    # the state they update is checked, with one eigvalsh, only once.
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(m):
        calls.append(m.shape)
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    freqs = simulate_frequencies(box3, box3.pvm("E1"), 1000, 0)
    assert len(freqs) == 2
    assert calls == [(3, 3)]
