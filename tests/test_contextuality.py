"""Decomposition, constraint systems, the exhaustive solver, and export."""

import dataclasses
import re
from itertools import product

import numpy as np
import pytest

from ppscontext import contextuality, scenarios
from ppscontext.contextuality import (
    ConstraintSystem,
    _search_plan,
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
    NotAProjector,
    PreconditionViolated,
)
from ppscontext.generate import paradox_corpus, rng_for
from ppscontext.linalg import (
    EPS_ORTH,
    EPS_PROJ,
    Projector,
    identity_projector,
    max_abs,
    projector_from_vectors,
    projectors_close,
    zero_projector,
)
from ppscontext.measurement import Pvm, Scenario, abl_probability, abl_table
from ppscontext.paradox import detect_paradox
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
    values = {node: value for node, value, _ in cert.trace}
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


def test_split_complement_refuses_another_dimension(box3):
    with pytest.raises(DimensionMismatch, match="^projector dimension does not match scenario$"):
        split_complement(box3, projector_from_vectors([[1, 0]]))


def _one_pvm_scenario(pre, post, outcome):
    p = outcome.complement()
    return Scenario(outcome.dim, pre, post, (Pvm("E", (p, outcome)),)), p


def test_split_complement_refuses_a_near_degenerate_meet():
    # I - p = |w><w| lies 1e-5 from I - pre, inside the meet's eigenvalue
    # window, so r is a tilted ray and q = (I - p) - r is no projector.
    delta = 1e-5
    scenario, p = _one_pvm_scenario(
        projector_from_vectors([[1, 0, 0]]),
        projector_from_vectors([[1, -delta, 0]]),
        projector_from_vectors([[delta, 1, 0]]),
    )
    with pytest.raises(NotAProjector, match="^matrix is not idempotent within 1e-09$"):
        split_complement(scenario, p)


def test_split_complement_refuses_q_not_orthogonal_to_post():
    # I - p = |u><u| leans 1e-3 towards pre = |e0>, too far for the meet, so
    # r = 0 and q = |u><u|.  With post along w + c u, w orthogonal to u,
    # post (I - p) pre ~ 1e-3 c passes the certainty check within EPS_ORTH
    # while post q ~ c does not.
    u, w, c = np.array([1e-3, 1, 0]), np.array([1, -1e-3, 0]), 1e-7
    scenario, p = _one_pvm_scenario(
        projector_from_vectors([[1, 0, 0]]),
        projector_from_vectors([w + c * u]),
        projector_from_vectors([u]),
    )
    with pytest.raises(PreconditionViolated, match="^decomposition failed: post q != 0$"):
        split_complement(scenario, p)


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
    forced = {system.labels[node]: value for node, value, _ in cert.trace}
    assert forced["(1, 0, 0)"] == 1 and forced["(0, 1, 0)"] == 1


def test_unsat_trace_is_the_plain_trail(box3):
    # Each entry is the search's own (node, value, reason) tuple.
    cert = solve(build_constraint_system(box3, detect_paradox(box3)))
    assert cert.status == "UNSAT" and cert.trace
    for entry in cert.trace:
        assert type(entry) is tuple and len(entry) == 3
        node, value, reason = entry
        assert type(node) is int and value in (0, 1) and type(reason) is tuple


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


def test_solve_deep_search_has_no_recursion_limit():
    # solve reads only the node count, so one shared node stands for all.
    n = 1500
    system = ConstraintSystem(
        nodes=(identity_projector(1),) * n,
        labels=tuple(f"[{i}]" for i in range(n)),
        fixed=(),
        exclusions=(),
        resolutions=(),
    )
    cert = solve(system)
    assert cert.status == "SAT"
    assert cert.witness == (1,) * n
    assert cert.search_nodes == n + 1
    assert check_assignment(system, cert.witness)


def _leaves(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def test_search_plan_keys_on_constraints_and_holds_no_projector():
    system = eight_ray_system()
    n = len(system.nodes)
    plan = _search_plan(n, system.exclusions, system.resolutions, system.labels)
    fewer = system.exclusions[1:]
    other = _search_plan(n, fewer, system.resolutions, system.labels)
    assert other != plan
    a, b = system.exclusions[0]
    assert (b, ("exclusion", a, b)) in plan[0][a]
    assert all(b != other_b for other_b, _ in other[0][a])
    # Only node indices and reason tags: no projector or matrix is kept.
    assert all(isinstance(x, (int, str)) for x in _leaves(plan))
    assert solve(system).status == "UNSAT"
    assert solve(dataclasses.replace(system, exclusions=fewer)).status == "SAT"


def test_verify_forced_value_three_box(box3):
    for pvm in box3.measurements:
        for k in range(len(pvm.elements)):
            assert verify_forced_value(box3, pvm, k)


def test_verify_forced_value_on_corpus_both_targets(box3):
    counts = {0: 0, 1: 0}
    for scenario in [box3, *CORPUS]:
        certain = abl_table(scenario).certain
        for pvm in scenario.measurements:
            for k in range(len(pvm.elements)):
                if (pvm.name, k) not in certain:
                    continue
                counts[certain[(pvm.name, k)]] += 1
                assert verify_forced_value(scenario, pvm, k)
    assert counts[0] > 0 and counts[1] > 0


def test_verify_forced_value_trivial_repeat():
    p = projector_from_vectors([[1, 0]])
    pvm = Pvm("Z", (p, p.complement()))
    scenario = Scenario(2, p, p, (pvm,))
    assert verify_forced_value(scenario, pvm, 0)
    assert verify_forced_value(scenario, pvm, 1)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("zero_first", [True, False])
def test_verify_forced_value_on_trivial_elements(dim, zero_first):
    # The solver refutes both: the zero element is orthogonal to the fixed
    # pre-selection, and the resolution (I,) forbids I = 0.
    eye = np.eye(dim)
    pre = projector_from_vectors([eye[0]])
    post = projector_from_vectors([eye.sum(axis=0)])
    zero, one = zero_projector(dim), identity_projector(dim)
    pvm = Pvm("T", (zero, one) if zero_first else (one, zero))
    scenario = Scenario(dim, pre, post, (pvm,))
    assert scenario.pre_post_overlap() > 0
    for k in range(2):
        assert abl_probability(scenario, pvm, k) == (pvm.elements[k].rank == dim)
        assert verify_forced_value(scenario, pvm, k) is True


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



def test_proof_build_refuses_dimensions_at_the_bound(box3, monkeypatch):
    # The exclusion trace window and ray_label's lead threshold hold only
    # below MAX_DIMENSION, which once guarded scenario files alone.
    assert scenarios.MAX_DIMENSION is contextuality.MAX_DIMENSION
    verdict = detect_paradox(box3)
    nodes = [projector_from_vectors([row]) for row in np.eye(3)]
    monkeypatch.setattr(contextuality, "MAX_DIMENSION", 4)
    assert len(assemble_system(nodes, (), ((0, 1, 2),)).nodes) == 3
    assert len(build_constraint_system(box3, verdict).nodes) == 8
    monkeypatch.setattr(contextuality, "MAX_DIMENSION", 3)
    with pytest.raises(PreconditionViolated, match="dimension 3 is not below the limit 3"):
        assemble_system(nodes, (), ((0, 1, 2),))
    with pytest.raises(PreconditionViolated, match="dimension 3 is not below the limit 3"):
        build_constraint_system(box3, verdict)
    with pytest.raises(PreconditionViolated, match="dimension 3 is not below the limit 3"):
        verify_forced_value(box3, box3.measurements[0], 0)


@pytest.mark.parametrize(
    "fixed, resolutions, entry",
    [
        (((5, 1),), (), "(5, 1)"),
        (((0, 2),), (), "(0, 2)"),
        (((-1, 1),), (), "(-1, 1)"),
        ((), ((-2, -1),), "(-2, -1)"),
        ((), ((0, 1), ()), "resolution () has no members"),
        (((1,),), (), "fixed entry (1,) is not a (node, value) pair"),
        (((1, 1, 1),), (), "fixed entry (1, 1, 1) is not a (node, value) pair"),
        (((True, 0),), (), "fixed entry (True, 0) has a node that is not an integer"),
        (((1.5, 1),), (), "fixed entry (1.5, 1) has a node that is not an integer"),
        ((), ((0.0, 1),), "resolution (0.0, 1) has a node that is not an integer"),
        ((), ((False, 1),), "resolution (False, 1) has a node that is not an integer"),
        (((0, True),), (), "fixed entry (0, True) needs a node in [0, 2) and a value 0 or 1"),
        (((0, 1.0),), (), "fixed entry (0, 1.0) needs a node in [0, 2) and a value 0 or 1"),
    ],
    ids=["node-past-end", "value-two", "negative-node", "negative-resolution",
         "empty-resolution", "fixed-single", "fixed-triple", "fixed-bool-node",
         "fixed-float-node", "resolution-float-node", "resolution-bool-node",
         "fixed-bool-value", "fixed-float-value"],
)
def test_assemble_system_rejects_bad_indices_and_values(fixed, resolutions, entry):
    p = projector_from_vectors([[1, 0]])
    with pytest.raises(ValueError, match=re.escape(entry)):
        assemble_system([p, p.complement()], fixed, resolutions)


def sat_eight_rays():
    """The eight-ray system with only node 0 fixed: satisfiable."""
    system = dataclasses.replace(eight_ray_system(), fixed=((0, 1),))
    assert solve(system).status == "SAT"
    return system


@pytest.mark.parametrize(
    "fixed, resolutions, entry",
    [
        (((3, 2),), (), "(3, 2)"),
        (((-1, 1),), (), "(-1, 1)"),
        (((-8, 1),), (), "(-8, 1)"),
        (((99, 1),), (), "(99, 1)"),
        ((), ((0, 99),), "(0, 99)"),
        ((), ((),), "resolution () has no members"),
        (((1,),), (), "fixed entry (1,) is not a (node, value) pair"),
        (((1, 1, 1),), (), "fixed entry (1, 1, 1) is not a (node, value) pair"),
        (((True, 0),), (), "fixed entry (True, 0) has a node that is not an integer"),
        (((1.5, 1),), (), "fixed entry (1.5, 1) has a node that is not an integer"),
        ((), ((0.0, 1, 2),), "resolution (0.0, 1, 2) has a node that is not an integer"),
        (((1, True),), (), "fixed entry (1, True) needs a node in [0, 8) and a value 0 or 1"),
        (((1, 1.0),), (), "fixed entry (1, 1.0) needs a node in [0, 8) and a value 0 or 1"),
    ],
    ids=["value-two", "wraps-to-last", "wraps-to-first", "node-past-end", "resolution",
         "empty-resolution", "fixed-single", "fixed-triple", "fixed-bool-node",
         "fixed-float-node", "resolution-float-node", "fixed-bool-value",
         "fixed-float-value"],
)
def test_replaced_system_entries_are_checked(fixed, resolutions, entry):
    # A system checks its entries when it is made, so no solve or
    # check_assignment ever sees one assemble_system would reject.
    base = sat_eight_rays()
    with pytest.raises(ValueError, match=re.escape(entry)):
        dataclasses.replace(
            base, fixed=base.fixed + fixed, resolutions=base.resolutions + resolutions
        )


@pytest.mark.parametrize("count", [3, 9], ids=["too-few", "too-many"])
def test_replaced_system_label_count_is_checked(count):
    # The search plan ranks the nodes by label, so each node needs one.
    base = sat_eight_rays()
    labels = (base.labels + ("x",))[:count]
    with pytest.raises(ValueError, match=rf"^labels has {count} entries for 8 nodes$"):
        dataclasses.replace(base, labels=labels)


@pytest.mark.parametrize(
    "planned, exclusion, message",
    [
        (None, (2, 8), "exclusion (2, 8) has a node outside"),
        (None, (1, 2, 3), "exclusion (1, 2, 3) is not a pair"),
        (None, (1,), "exclusion (1,) is not a pair"),
        (None, (1.5, 2), "exclusion (1.5, 2) has a node that is not an integer"),
        (None, (True, 2), "exclusion (True, 2) has a node that is not an integer"),
        ((1, 2), (True, 2), "exclusion (True, 2) has a node that is not an integer"),
        ((1, 2), (1.0, 2), "exclusion (1.0, 2) has a node that is not an integer"),
    ],
    ids=["node-past-end", "triple", "single", "float-node", "bool-node",
         "bool-node-after-int-plan", "float-node-after-int-plan"],
)
def test_replaced_system_exclusion_members_are_checked(planned, exclusion, message):
    # The search plan is cached on the exclusions, which compare equal when
    # True or 1.0 stands for 1, so an equal int plan must not let one pass.
    base = sat_eight_rays()
    if planned is not None:
        dataclasses.replace(base, exclusions=base.exclusions + (planned,))
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(base, exclusions=base.exclusions + (exclusion,))


def test_replaced_system_refuses_a_mutable_member():
    # The plan is memoised on the ids of the tuples, which would not see a
    # list member change, so a system is hashable all the way down.
    base = sat_eight_rays()
    with pytest.raises(TypeError, match="unhashable"):
        dataclasses.replace(base, exclusions=base.exclusions + ([2, 3],))


def _count_planning(monkeypatch) -> list:
    """Arguments of every `_search_plan` and `_readers` call from now on."""
    calls = []
    for name in ("_search_plan", "_readers"):
        real = getattr(contextuality, name)
        monkeypatch.setattr(contextuality, name, lambda *a, real=real: calls.append(a) or real(*a))
    return calls


def test_pinned_copies_share_one_plan(monkeypatch):
    hashed = []

    class Counted(tuple):
        def __hash__(self):
            hashed.append(len(self))
            return tuple.__hash__(self)

    base = eight_ray_system()
    system = dataclasses.replace(
        base, labels=Counted(base.labels), exclusions=Counted(base.exclusions),
        resolutions=Counted(base.resolutions),
    )
    made = len(hashed)
    assert made > 0  # the system's own plan hashed them once
    calls = _count_planning(monkeypatch)
    for node in range(10):
        pinned = dataclasses.replace(system, fixed=((node % len(system.nodes), node % 2),))
        assert pinned._plan is system._plan
        assert pinned._readers is system._readers
        solve(pinned)
    assert calls == []
    assert len(hashed) == made


def test_plan_memo_keeps_eight_systems_and_replans_an_evicted_one(monkeypatch):
    first = eight_ray_system()
    certificate = solve(first)
    for k in range(1, 10):
        dataclasses.replace(first, exclusions=first.exclusions[k:])
    assert len(contextuality._PLANS) <= 8
    calls = _count_planning(monkeypatch)
    pinned = dataclasses.replace(first, fixed=first.fixed)
    assert len(calls) == 2
    assert pinned._plan == first._plan and pinned._plan is not first._plan
    assert solve(pinned) == certificate


def test_assemble_system_accepts_in_range_entries():
    p = projector_from_vectors([[1, 0]])
    system = assemble_system([p, p.complement()], ((1, 0), (0, 1)), ((1, 0),))
    assert system.fixed == ((1, 0), (0, 1))
    assert system.resolutions == ((1, 0),)
    assert system.exclusions == ((0, 1),)
    assert solve(system).status == "SAT"
    # numpy integers are node indices too; only bools and floats are not.
    index = np.int64(1)
    assert solve(assemble_system([p, p.complement()], ((index, 0),), ((index, 0),))).status == "SAT"


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


def _two_check_nodes():
    p = projector_from_vectors([[1, 0, 0]])
    twin = projector_from_vectors([[1, EPS_PROJ / 10, 0]])
    q2 = projector_from_vectors([[0, 1]])
    return p, twin, q2


@pytest.mark.parametrize(
    "case, error, message",
    [
        ("duplicates+resolution-member", ValueError, "node list contains duplicates"),
        ("duplicates+resolution-sum", ValueError, "node list contains duplicates"),
        ("dimensions+duplicates", DimensionMismatch, "nodes have different dimensions"),
        ("dimensions+resolution-member", DimensionMismatch, "nodes have different dimensions"),
        ("fixed+duplicates", ValueError, "fixed entry (0, 2) needs a node in [0, 3)"),
        ("fixed+dimensions", ValueError, "fixed entry (7, 1) needs a node in [0, 3)"),
        ("resolution-sum+member", ValueError, "resolution (0, 5) has a node outside [0, 2)"),
        ("retired+fixed", ValueError, "sum constraints are not supported"),
    ],
)
def test_assemble_system_input_breaking_two_checks_raises_the_first(case, error, message):
    # Checks run in a fixed order: the retired argument, fixed entries,
    # dimensions, duplicates, resolution members, then resolution sums.
    p, twin, q2 = _two_check_nodes()
    comp = p.complement()
    args = {
        "duplicates+resolution-member": ([p, comp, twin], (), ((0, 9),)),
        "duplicates+resolution-sum": ([p, comp, twin], (), ((0, 2),)),
        "dimensions+duplicates": ([p, twin, q2], (), ()),
        "dimensions+resolution-member": ([p, comp, q2], (), ((0, 9),)),
        "fixed+duplicates": ([p, comp, twin], ((0, 2),), ()),
        "fixed+dimensions": ([p, comp, q2], ((7, 1),), ()),
        "resolution-sum+member": ([p, comp], (), ((0, 0), (0, 5))),
        "retired+fixed": ([p, comp], ((7, 1),), (), [(p, (0,))]),
    }[case]
    with pytest.raises(error) as info:
        assemble_system(*args)
    assert type(info.value) is error
    assert str(info.value).startswith(message)


def _checked_system():
    """Nodes e0, e1, e2 and span(e1, e2): node 2 fixed to 0, resolution
    {e0, span(e1, e2)}, exclusions (0, 1), (0, 2), (0, 3), (1, 2)."""
    rays = [projector_from_vectors([v]) for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]
    plane = projector_from_vectors([[0, 1, 0], [0, 0, 1]])
    system = assemble_system([*rays, plane], ((2, 0),), ((0, 3),))
    assert system.exclusions == ((0, 1), (0, 2), (0, 3), (1, 2))
    return system


@pytest.mark.parametrize(
    "values, drop_exclusions",
    [
        ((1, 0, 0), False),
        ((1, 0, 0, 0, 0), False),
        ((1, 0, 0, 2), False),
        ((1, -1, 0, 0), False),
        ((0, 0, 1, 1), False),
        ((1, 1, 0, 0), False),
        ((0, 1, 0, 0), False),
        ((1, 0, 0, 1), True),
    ],
    ids=["short", "long", "value-two", "value-negative", "fixed", "exclusion",
         "resolution-none", "resolution-two"],
)
def test_check_assignment_rejects_each_broken_constraint(values, drop_exclusions):
    # Each assignment breaks one constraint and keeps the others; two
    # resolution members at 1 also break their exclusion unless it is dropped.
    system = _checked_system()
    if drop_exclusions:
        system = dataclasses.replace(system, exclusions=())
    assert check_assignment(system, (1, 0, 0, 0))
    assert check_assignment(system, values) is False


def test_labels_of_distinct_nodes_with_one_display_form_get_index_suffixes():
    # 2e-7 apart, beyond EPS_PROJ, yet both print as (1, 1, 0) at 6 digits.
    nodes = [projector_from_vectors([[1, 1 + d, 0]]) for d in (1e-7, 3e-7)]
    assert [ray_label(p) for p in nodes] == ["(1, 1, 0)", "(1, 1, 0)"]
    system = assemble_system(nodes, (), ())
    assert system.labels == ("(1, 1, 0)", "(1, 1, 0) #1")


def conflict_verdict(monkeypatch, e3_elements):
    """Three-box plus a PVM E3 of the given elements, with a patched table
    that gives P1 value 1 in E1 and 0 in E3: rounding stores a conflict,
    not an assignment."""
    from ppscontext import paradox
    from ppscontext.measurement import AblTable

    box = three_box()
    scenario = Scenario(3, box.pre, box.post, (*box.measurements, Pvm("E3", e3_elements)))
    entries = {("E1", 0): 1.0, ("E1", 1): 0.0, ("E2", 0): 1.0, ("E2", 1): 0.0,
               ("E3", 0): 0.0, ("E3", 1): 1.0}
    weights = dict.fromkeys(["E1", "E2", "E3"], 1.0)
    certain = {key: int(p) for key, p in entries.items()}
    table = AblTable(entries=entries, postselection_weights=weights, certain=certain)
    monkeypatch.setattr(paradox, "abl_table", lambda _: table)
    verdict = detect_paradox(scenario)
    assert verdict.is_paradox and verdict.table is table
    return scenario, verdict


def test_rounding_conflict_is_a_paradox_whose_build_is_refused(monkeypatch):
    # E3 repeats E1's elements.
    from ppscontext.paradox import recheck_violation

    scenario, verdict = conflict_verdict(monkeypatch, three_box().measurements[0].elements)
    (violation,) = verdict.violations
    assert violation.conditions == ("assignment-conflict",)
    assert recheck_violation(violation)
    assert len(verdict.assignment) == 0
    # The build reads E3's certain outcome, I - P1, from the table, and
    # I - P1 is not certain under the real selections.
    with pytest.raises(PreconditionViolated, match=r"^post \(I-p\) pre has max entry 0\.111; "):
        build_constraint_system(scenario, verdict)


def test_assignment_conflict_cites_the_stored_and_the_incoming_element(monkeypatch):
    # E3's elements are E1's, rotated by EPS_PROJ / 20 in the (e0, e2)
    # plane: other objects and matrices, but within EPS_PROJ of E1's, so
    # they fall in E1's slots.
    from ppscontext.paradox import recheck_violation

    c, s = np.cos(EPS_PROJ / 20), np.sin(EPS_PROJ / 20)
    tilt = np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
    e1 = three_box().measurements[0].elements
    e3 = tuple(Projector(tilt @ e.matrix @ tilt.T) for e in e1)
    assert max(max_abs(a.matrix - b.matrix) for a, b in zip(e1, e3)) <= EPS_PROJ / 10
    assert all(max_abs(a.matrix - b.matrix) > 0 for a, b in zip(e1, e3))
    scenario, verdict = conflict_verdict(monkeypatch, e3)
    (violation,) = verdict.violations
    assert violation.conditions == ("assignment-conflict",)
    stored, incoming = violation.projectors
    assert stored is scenario.measurements[0].elements[0]
    assert incoming is scenario.measurements[2].elements[0]
    assert violation.values == (1.0, 0.0)
    assert recheck_violation(violation)


def tilted_three_box(tilt):
    """Three-box with the pre-selection on (1, 1, 1 + tilt)."""
    return dataclasses.replace(three_box(), pre=projector_from_vectors([[1, 1, 1 + tilt]]))


@pytest.mark.parametrize("tilt, entry", [(1e-4, "1.11e-05"), (1e-5, "1.11e-06"),
                                         (1e-6, "1.11e-07")])
def test_near_certain_outcome_is_not_logical_and_its_split_is_refused(tilt, entry):
    # The ABL entries lie within 1e-7 of 0 or 1, but post (I - p) pre
    # exceeds EPS_ORTH, so detect reads no certain outcome and prove has
    # nothing to build; the split's own check still names the reason.
    scenario = tilted_three_box(tilt)
    verdict = detect_paradox(scenario)
    assert not verdict.is_logical and not verdict.is_paradox
    assert all(min(p, 1 - p) < 1e-7 for _, _, p in verdict.non_extremal)
    with pytest.raises(NotAParadox):
        build_constraint_system(scenario, verdict)
    with pytest.raises(PreconditionViolated, match=re.escape(
        f"post (I-p) pre has max entry {entry}; the outcome is not certain under the selections"
    )):
        split_complement(scenario, scenario.measurements[0].elements[0])


TILTS = [1e-10, 3e-9, 1e-8, 1e-6, 1e-5, 1e-4, 3e-4, 1e-3]


@pytest.mark.parametrize("family", ["tilted", "corpus-601", "pigeonhole"])
def test_no_paradox_verdict_has_a_refused_build(family):
    # One certainty rule: every outcome detect reads as certain passes the
    # split's check, so a paradox's build never raises PreconditionViolated.
    from test_closure_parity import pigeonhole

    scenarios = {
        "tilted": lambda: [tilted_three_box(t) for t in TILTS],
        "corpus-601": lambda: paradox_corpus(601, 60),
        "pigeonhole": lambda: [pigeonhole(n) for n in (3, 4, 5)],
    }[family]()
    statuses = []
    for scenario in scenarios:
        verdict = detect_paradox(scenario)
        statuses.append(
            solve(build_constraint_system(scenario, verdict)).status
            if verdict.is_paradox else "logical" if verdict.is_logical else "not logical"
        )
    expected = {
        "tilted": ["UNSAT"] * 2 + ["not logical"] * 6,
        "corpus-601": ["UNSAT"] * 60,
        "pigeonhole": ["SAT"] * 3,
    }[family]
    assert statuses == expected
