"""Decomposition, constraint systems, the exhaustive solver, and export."""

import dataclasses
import re
from itertools import product

import numpy as np
import pytest

from ppscontext.contextuality import (
    ConstraintSystem,
    assemble_system,
    build_constraint_system,
    check_assignment,
    export_orthogonality_graph,
    ray_label,
    solve,
    split_complement,
    verify_forced_value,
)
from ppscontext.errors import (
    DimensionMismatch,
    NonorthogonalityRequired,
    NotAParadox,
    PreconditionViolated,
)
from ppscontext.generate import paradox_corpus, rng_for
from ppscontext.linalg import (
    EPS_ORTH,
    EPS_PROJ,
    max_abs,
    projector_from_vectors,
    projectors_close,
)
from ppscontext.measurement import Pvm, Scenario, abl_probability
from ppscontext.paradox import EPS_LOGIC, detect_paradox
from ppscontext.scenarios import eight_ray_system, three_box

CORPUS = paradox_corpus(seed=515, count=8)


def brute_force_status(system: ConstraintSystem) -> str:
    """Independent oracle: enumerate every 0/1 assignment directly."""
    n = len(system.nodes)
    fixed = dict(system.fixed)
    for values in product((0, 1), repeat=n):
        if any(values[node] != v for node, v in fixed.items()):
            continue
        if any(values[a] + values[b] > 1 for a, b in system.exclusions):
            continue
        if any(sum(values[m] for m in members) != 1 for members in system.resolutions):
            continue
        return "SAT"
    return "UNSAT"


def replay_trace(system: ConstraintSystem, cert) -> bool:
    """The trace's terminal constraint must be violated by the forced values."""
    values = {step.node: step.value for step in cert.trace}
    kind = cert.conflict[0]
    if kind == "exclusion":
        _, a, b = cert.conflict
        return values.get(a) == 1 and values.get(b) == 1
    if kind == "resolution":
        members = system.resolutions[cert.conflict[1]]
        known = [values[m] for m in members if m in values]
        return sum(known) > 1 or (len(known) == len(members) and sum(known) != 1)
    return False


def test_split_complement_three_box_p1(box3):
    dec = split_complement(box3, box3.measurements[0].elements[0])
    assert dec.q.rank == 1 and dec.r.rank == 1
    assert projectors_close(dec.q, projector_from_vectors([[0, 1, 1]]))
    assert projectors_close(dec.r, projector_from_vectors([[0, 1, -1]]))


def test_split_complement_three_box_p2(box3):
    dec = split_complement(box3, box3.measurements[1].elements[0])
    assert projectors_close(dec.q, projector_from_vectors([[1, 0, 1]]))
    assert projectors_close(dec.r, projector_from_vectors([[1, 0, -1]]))


def test_split_complement_of_identity(box3):
    from ppscontext.linalg import identity_projector

    dec = split_complement(box3, identity_projector(3))
    assert dec.q.rank == 0 and dec.r.rank == 0


def test_split_complement_requires_certainty(box3):
    with pytest.raises(PreconditionViolated):
        split_complement(box3, projector_from_vectors([[0, 0, 1]]))


def test_split_complement_postconditions_on_corpus():
    for scenario in CORPUS:
        verdict = detect_paradox(scenario)
        identity = np.eye(scenario.dim)
        for pvm in scenario.measurements:
            for element in pvm.elements:
                if verdict.assignment.value_of(element) != 1:
                    continue
                dec = split_complement(scenario, element)
                assert max_abs(dec.q.matrix + dec.r.matrix
                               - (identity - element.matrix)) <= EPS_PROJ
                assert max_abs(dec.q.matrix @ dec.r.matrix) <= EPS_ORTH
                assert max_abs(scenario.pre.matrix @ dec.r.matrix) <= EPS_ORTH
                assert max_abs(scenario.post.matrix @ dec.q.matrix) <= EPS_ORTH


def test_build_three_box_system(box3):
    verdict = detect_paradox(box3)
    system = build_constraint_system(box3, verdict)
    assert len(system.nodes) == 8
    assert all(p.rank == 1 for p in system.nodes)
    labels = set(system.labels)
    assert labels == {
        "(1, 1, 1)", "(1, 1, -1)", "(1, 0, 0)", "(0, 1, 0)",
        "(0, 1, 1)", "(0, 1, -1)", "(1, 0, 1)", "(1, 0, -1)",
    }
    resolved = {
        frozenset(system.labels[m] for m in members)
        for members in system.resolutions
    }
    assert frozenset({"(1, 0, 0)", "(0, 1, 1)", "(0, 1, -1)"}) in resolved
    assert frozenset({"(0, 1, 0)", "(1, 0, 1)", "(1, 0, -1)"}) in resolved


def test_build_requires_paradox():
    pre = projector_from_vectors([[1, 0]])
    pvm = Pvm("Z", (pre, pre.complement()))
    scenario = Scenario(2, pre, pre, (pvm,))
    verdict = detect_paradox(scenario)
    with pytest.raises(NotAParadox):
        build_constraint_system(scenario, verdict)


def test_build_requires_nonorthogonal_selections(box3):
    verdict = detect_paradox(box3)
    orthogonal = Scenario(
        3,
        projector_from_vectors([[1, 0, 0]]),
        projector_from_vectors([[0, 1, 0]]),
        box3.measurements,
    )
    with pytest.raises(NonorthogonalityRequired):
        build_constraint_system(orthogonal, verdict)


def test_solve_three_box_trace_ends_at_box_exclusion(box3):
    system = build_constraint_system(box3, detect_paradox(box3))
    cert = solve(system)
    assert cert.status == "UNSAT"
    assert cert.search_nodes <= 2**8
    kind, a, b = cert.conflict
    assert kind == "exclusion"
    assert {system.labels[a], system.labels[b]} == {"(1, 0, 0)", "(0, 1, 0)"}
    assert replay_trace(system, cert)
    forced = {system.labels[s.node]: s.value for s in cert.trace}
    assert forced["(1, 0, 0)"] == 1 and forced["(0, 1, 0)"] == 1


def test_solve_trivial_resolution_is_sat():
    p = projector_from_vectors([[1, 0]])
    system = assemble_system(
        [p, p.complement()], fixed=((0, 1),), resolutions=((0, 1),)
    )
    cert = solve(system)
    assert cert.status == "SAT"
    assert cert.witness == (1, 0)
    assert check_assignment(system, cert.witness)


def test_eight_ray_fixture_unsat_and_relaxation_sat():
    system = eight_ray_system()
    cert = solve(system)
    assert cert.status == "UNSAT"
    assert brute_force_status(system) == "UNSAT"
    relaxed = dataclasses.replace(system, fixed=((0, 1),))
    cert2 = solve(relaxed)
    assert cert2.status == "SAT"
    assert brute_force_status(relaxed) == "SAT"
    assert check_assignment(relaxed, cert2.witness)


def test_solver_agrees_with_brute_force_on_corpus():
    for scenario in CORPUS[:4]:
        system = build_constraint_system(scenario, detect_paradox(scenario))
        assert solve(system).status == brute_force_status(system)


def test_solve_is_node_order_independent():
    system = eight_ray_system()
    n = len(system.nodes)
    rng = rng_for(99)
    for _ in range(5):
        perm = list(rng.permutation(n))
        inverse = [perm.index(i) for i in range(n)]
        permuted = ConstraintSystem(
            nodes=tuple(system.nodes[perm[i]] for i in range(n)),
            labels=tuple(system.labels[perm[i]] for i in range(n)),
            fixed=tuple((inverse[node], v) for node, v in system.fixed),
            exclusions=tuple(
                tuple(sorted((inverse[a], inverse[b])))
                for a, b in system.exclusions
            ),
            resolutions=tuple(
                tuple(inverse[m] for m in members) for members in system.resolutions
            ),
        )
        assert solve(permuted).status == "UNSAT"


def test_sat_witness_satisfies_every_constraint_independently():
    system = dataclasses.replace(eight_ray_system(), fixed=((0, 1),))
    cert = solve(system)
    values = cert.witness
    for node, v in system.fixed:
        assert values[node] == v
    for a, b in system.exclusions:
        assert values[a] + values[b] <= 1
    for members in system.resolutions:
        assert sum(values[m] for m in members) == 1


def test_verify_forced_value_three_box(box3):
    for pvm in box3.measurements:
        for k in range(len(pvm.elements)):
            assert verify_forced_value(box3, pvm, k)


def test_verify_forced_value_on_corpus_both_targets(box3):
    counts = {0: 0, 1: 0}
    for scenario in [box3, *CORPUS]:
        for pvm in scenario.measurements:
            for k in range(len(pvm.elements)):
                p = abl_probability(scenario, pvm, k)
                if abs(p - 1) > EPS_LOGIC and abs(p) > EPS_LOGIC:
                    continue
                counts[round(p)] += 1
                assert verify_forced_value(scenario, pvm, k)
    assert counts[0] > 0 and counts[1] > 0


def test_verify_forced_value_trivial_repeat():
    p = projector_from_vectors([[1, 0]])
    pvm = Pvm("Z", (p, p.complement()))
    scenario = Scenario(2, p, p, (pvm,))
    assert verify_forced_value(scenario, pvm, 0)
    assert verify_forced_value(scenario, pvm, 1)


def test_verify_forced_value_requires_extremal_probability(box3):
    uniform = Pvm(
        "B", tuple(projector_from_vectors([np.eye(3)[i]]) for i in range(3))
    )
    scenario = Scenario(3, box3.pre, box3.post, (uniform,))
    with pytest.raises(PreconditionViolated):
        verify_forced_value(scenario, uniform, 0)


def test_ray_label_canonical_scaling():
    p = projector_from_vectors([[0, 2, -2]])
    assert ray_label(p) == "(0, 1, -1)"
    q = projector_from_vectors([[0, 1j, 1]])
    assert ray_label(q) == "(0, 1, 0-1i)"
    assert ray_label(projector_from_vectors([[1, 0], [0, 1]])) is None


def test_assemble_system_retired_fourth_argument():
    p = projector_from_vectors([[1, 0]])
    system = assemble_system([p, p.complement()], ((0, 1),), ((0, 1),), ())
    assert system.resolutions == ((0, 1),)
    with pytest.raises(ValueError):
        assemble_system([p, p.complement()], (), ((0, 1),), [(p, (0,))])


def test_assemble_system_rejects_duplicate_nodes():
    def tilted(angle):
        return projector_from_vectors([[np.cos(angle), np.sin(angle), 0.0]])

    with pytest.raises(ValueError, match="node list contains duplicates"):
        assemble_system([tilted(0.0), tilted(EPS_PROJ / 10)], (), ())
    system = assemble_system([tilted(0.0), tilted(1e-6)], (), ())
    assert len(system.nodes) == 2
    assert system.labels == ("(1, 0, 0)", "(1, 1e-06, 0)")


def test_assemble_system_rejects_mixed_dimensions():
    q3 = projector_from_vectors([[1, 0, 0]])
    q2 = projector_from_vectors([[0, 1]])
    with pytest.raises(DimensionMismatch):
        assemble_system([q3, q3.complement(), q2], (), ((0, 1, 2),))


@pytest.mark.parametrize(
    "fixed, resolutions, entry",
    [
        (((5, 1),), (), "(5, 1)"),
        (((0, 2),), (), "(0, 2)"),
        (((-1, 1),), (), "(-1, 1)"),
        ((), ((-2, -1),), "(-2, -1)"),
    ],
    ids=["node-past-end", "value-two", "negative-node", "negative-resolution"],
)
def test_assemble_system_rejects_bad_indices_and_values(fixed, resolutions, entry):
    p = projector_from_vectors([[1, 0]])
    with pytest.raises(ValueError, match=re.escape(entry)):
        assemble_system([p, p.complement()], fixed, resolutions)


def test_assemble_system_accepts_in_range_entries():
    p = projector_from_vectors([[1, 0]])
    system = assemble_system([p, p.complement()], ((1, 0), (0, 1)), ((1, 0),))
    assert system.fixed == ((1, 0), (0, 1))
    assert system.resolutions == ((1, 0),)
    assert system.exclusions == ((0, 1),)
    assert solve(system).status == "SAT"


def test_export_golden_three_box(box3):
    import pathlib

    system = build_constraint_system(box3, detect_paradox(box3))
    golden = pathlib.Path(__file__).parent / "golden" / "three_box.dot"
    assert export_orthogonality_graph(system) == golden.read_text()


def test_export_two_node_graph():
    p = projector_from_vectors([[1, 0]])
    system = assemble_system(
        [p, p.complement()], fixed=(), resolutions=((0, 1),)
    )
    text = export_orthogonality_graph(system)
    assert text.count(" -- ") == 1
    assert text.startswith("graph {")


def test_export_is_isomorphic_after_rotation(box3):
    import networkx as nx

    from ppscontext.generate import conjugate_scenario, random_unitary

    def graph_of(scenario):
        system = build_constraint_system(scenario, detect_paradox(scenario))
        g = nx.Graph()
        g.add_nodes_from(range(len(system.nodes)))
        g.add_edges_from(system.exclusions)
        return g

    rotated = conjugate_scenario(box3, random_unitary(3, rng_for(5)))
    assert nx.is_isomorphic(graph_of(box3), graph_of(rotated))


def test_non_rank_one_nodes_are_annotated():
    plane = projector_from_vectors([[1, 0, 0], [0, 1, 0]])
    ray = projector_from_vectors([[0, 0, 1]])
    system = assemble_system(
        [plane, ray], fixed=(), resolutions=((0, 1),)
    )
    text = export_orthogonality_graph(system)
    assert "rank-too-high" in text
    assert "rank=2" in text


def test_every_corpus_paradox_proves_unsat():
    for scenario in CORPUS:
        verdict = detect_paradox(scenario)
        assert verdict.is_paradox
        assert scenario.pre_post_overlap() > 0
        system = build_constraint_system(scenario, verdict)
        assert solve(system).status == "UNSAT"
