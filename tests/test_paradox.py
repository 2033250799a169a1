"""Logical assignment, closure, and paradox detection."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ppscontext import paradox
from ppscontext.errors import DimensionMismatch, ImpossiblePostselection
from ppscontext.generate import conjugate_scenario, random_unitary, rng_for
from ppscontext.linalg import (
    EPS_PROJ,
    Projector,
    identity_projector,
    max_abs,
    projector_from_vectors,
    projectors_close,
)
from ppscontext.measurement import Pvm, Scenario, abl_table
from ppscontext.paradox import (
    PROV_ABL,
    PROV_CLOSURE,
    LogicalAssignment,
    NotLogical,
    ProjectorIndex,
    Violation,
    closure_extend,
    detect_paradox,
    logical_assignment,
    recheck_violation,
)
from ppscontext.scenarios import three_box

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def basis_proj(dim, i):
    v = np.zeros(dim)
    v[i] = 1.0
    return projector_from_vectors([v])


def test_fingerprint_identifies_nearby_projectors():
    p = projector_from_vectors([[1, 1, 0]])
    wiggled = Projector.from_matrix(p.matrix + 7.5e-15)
    index = ProjectorIndex()
    assert index.add(p) == index.add(wiggled)


def test_projector_index_tolerance_fallback():
    # a perturbation below EPS_PROJ but straddling the rounding grid must
    # still collide
    p = projector_from_vectors([[1, 2, 3]])
    perturbed = Projector.from_matrix(p.matrix + 4.9e-13)
    index = ProjectorIndex()
    assert index.add(p) == index.add(perturbed)


def tilted_ray(angle):
    # rank-1 projector whose off-diagonal entries sit about ``angle`` away
    # from those of basis_proj(3, 0)
    v = np.array([np.cos(angle), np.sin(angle), 0.0])
    return Projector.from_matrix(np.outer(v, v))


def test_projector_index_separates_projectors_beyond_tolerance():
    p, shifted = tilted_ray(0.0), tilted_ray(3 * EPS_PROJ)
    index = ProjectorIndex()
    assert index.add(p) == 0
    assert index.add(shifted) == 1
    assert index.find(shifted) == 1
    assert len(index) == 2


def test_projector_index_find_returns_first_match():
    # p and far are 1.6 EPS_PROJ apart; mid lies within EPS_PROJ of both
    p, mid, far = (tilted_ray(t * EPS_PROJ) for t in (0.0, 0.8, 1.6))
    index = ProjectorIndex()
    assert index.add(p) == 0
    assert index.add(far) == 1
    assert index.find(mid) == 0
    assert index.add(mid) == 0
    assert index.projector(0) is p


def first_close(index, matrix, lo, hi):
    """The scalar first-match rule over slots [lo, hi)."""
    for slot in range(lo, hi):
        if max_abs(index.projector(slot).matrix - matrix) <= EPS_PROJ:
            return slot
    return -1


def test_find_many_matches_the_scalar_first_match_rule():
    # p and far are 1.6 EPS_PROJ apart; mid lies within EPS_PROJ of both
    p, mid, far = (tilted_ray(t * EPS_PROJ) for t in (0.0, 0.8, 1.6))
    index = ProjectorIndex()
    stored = [basis_proj(3, 1), p, basis_proj(3, 2), far, p.complement()]
    for q in stored:
        index.append(q)
    queries = np.stack([q.matrix for q in (mid, far, basis_proj(3, 2), p.complement())]
                       + [tilted_ray(0.3).matrix, projector_from_vectors([[0, 1, 1]]).matrix])
    for lo, hi in [(0, 5), (2, 5), (4, 5), (0, 1), (3, 3), (5, 2)]:
        expected = [first_close(index, m, lo, hi) for m in queries]
        assert list(index.find_many(queries, lo, hi)) == expected
    assert list(index.find_many(queries, 0, 5)) == [1, 3, 2, 4, -1, -1]
    assert list(index.find_many(queries, 2, 5)) == [3, 3, 2, 4, -1, -1]
    assert index.find_many(queries[:0], 0, 5).shape == (0,)
    with pytest.raises(DimensionMismatch):
        index.find_many(np.zeros((1, 2, 2)), 0, 5)


def test_find_many_separates_equal_diagonals(monkeypatch):
    # every ray below has diagonal (1/2, 1/2, 0), so all share one key;
    # one-row chunks exercise the chunked comparison
    monkeypatch.setattr(paradox, "_CHUNK_ENTRIES", 1)
    rays = [projector_from_vectors([v]) for v in ([1, 1, 0], [1, -1, 0], [1, 1j, 0], [1, -1j, 0])]
    index = ProjectorIndex()
    for ray in rays[:3]:
        index.append(ray)
    index.append(rays[0])
    queries = np.stack([ray.matrix for ray in rays])
    for lo, hi in [(0, 4), (1, 4), (3, 4)]:
        expected = [first_close(index, m, lo, hi) for m in queries]
        assert list(index.find_many(queries, lo, hi)) == expected
    assert list(index.find_many(queries, 1, 4)) == [3, 1, 2, -1]


def test_logical_assignment_looks_each_element_up_once(box3, monkeypatch):
    calls = []
    find = ProjectorIndex.find

    def counted(self, p):
        calls.append(p)
        return find(self, p)

    monkeypatch.setattr(ProjectorIndex, "find", counted)
    table = abl_table(box3)
    assignment = logical_assignment(table, box3)
    assert isinstance(assignment, LogicalAssignment)
    assert len(calls) == len(table.entries)


def test_projector_index_rejects_mixed_dimensions():
    index = ProjectorIndex()
    index.add(basis_proj(3, 0))
    with pytest.raises(DimensionMismatch):
        index.find(basis_proj(2, 0))
    with pytest.raises(DimensionMismatch):
        index.add(basis_proj(2, 0))
    assert len(index) == 1


def test_assignment_constants():
    a = LogicalAssignment(3)
    from ppscontext.linalg import identity_projector, zero_projector

    assert a.value_of(identity_projector(3)) == 1
    assert a.value_of(zero_projector(3)) == 0
    assert a.value_of(basis_proj(3, 0)) is None


def test_logical_assignment_three_box(box3):
    table = abl_table(box3)
    assignment = logical_assignment(table, box3)
    assert isinstance(assignment, LogicalAssignment)
    e1, e2 = box3.measurements
    assert assignment.value_of(e1.elements[0]) == 1
    assert assignment.value_of(e1.elements[1]) == 0
    assert assignment.value_of(e2.elements[0]) == 1
    assert assignment.value_of(e2.elements[1]) == 0
    assert all(tag == PROV_ABL for _, _, tag in assignment.entries())


def test_logical_assignment_rejects_uniform_entries(box3):
    pvm = Pvm("B", tuple(basis_proj(3, i) for i in range(3)))
    scenario = Scenario(3, box3.pre, box3.post, box3.measurements + (pvm,))
    result = logical_assignment(abl_table(scenario), scenario)
    assert isinstance(result, NotLogical)
    offending_names = {name for name, _, _ in result.offending}
    assert offending_names == {"B"}
    assert all(abs(v - 1 / 3) < 1e-9 for _, _, v in result.offending)


def test_logical_assignment_single_context():
    pre = basis_proj(3, 0)
    e1 = Pvm("E1", (basis_proj(3, 0), projector_from_vectors([[0, 1, 0], [0, 0, 1]])))
    scenario = Scenario(3, pre, pre, (e1,))
    assignment = logical_assignment(abl_table(scenario), scenario)
    assert assignment.value_of(e1.elements[0]) == 1
    assert assignment.value_of(e1.elements[1]) == 0


def test_closure_derives_three_box_violation():
    # two certain boxes: v(P1 + P2 - P1 P2) = 1 + 1 - 0 = 2
    a = LogicalAssignment(3)
    a.setdefault(basis_proj(3, 0), 1, PROV_ABL)
    a.setdefault(basis_proj(3, 1), 1, PROV_ABL)
    result = closure_extend(a)
    assert isinstance(result, Violation)
    assert result.conditions == ("ac0", "ac4")
    assert result.derived == 2.0
    cited = result.projectors
    assert any(projectors_close(p, basis_proj(3, 0)) for p in cited)
    assert any(projectors_close(p, basis_proj(3, 1)) for p in cited)
    assert recheck_violation(result)


def closure_violation(*entries):
    """The violation closure finds on d = 3 diagonal projectors given as
    (diagonal, value) pairs, checked to recheck as genuine."""
    a = LogicalAssignment(3)
    for diagonal, value in entries:
        a.setdefault(Projector.from_matrix(np.diag(diagonal)), value, PROV_ABL)
    violation = closure_extend(a)
    assert isinstance(violation, Violation)
    assert recheck_violation(violation)
    return violation


def test_recheck_violation_rejects_altered_violations(box3):
    ac04 = detect_paradox(box3).violations[0]
    # a stored complement that contradicts ac1
    ac1 = closure_violation(([1.0, 0, 0], 1), ([0, 1.0, 1.0], 1))
    # a stored join that contradicts ac4: 1 + 0 - 0 != 0
    ac4 = closure_violation(([1.0, 0, 0], 1), ([0, 1.0, 0], 0), ([1.0, 1.0, 0], 0))
    assert (ac04.conditions, ac1.conditions, ac4.conditions) == (
        ("ac0", "ac4"), ("ac1",), ("ac4",)
    )
    p = ac1.projectors[0]
    altered = [
        *(dataclasses.replace(v, derived=v.derived + 1) for v in (ac04, ac1, ac4)),
        *(dataclasses.replace(v, projectors=(*v.projectors[:2], *v.projectors[:1:-1]))
          for v in (ac04, ac4)),
        dataclasses.replace(ac1, projectors=(p, p)),
        dataclasses.replace(ac1, values=(ac1.values[0], ac1.derived)),
        dataclasses.replace(ac4, values=(*ac4.values[:3], ac4.derived)),
        dataclasses.replace(ac4, conditions=("ac3",)),
        dataclasses.replace(ac04, conditions=("ac4", "ac0")),
        Violation(("assignment-conflict",), (p, p), (1.0, 1.0), 1.0, "no conflict"),
    ]
    assert [recheck_violation(v) for v in altered] == [False] * len(altered)
    assert recheck_violation(
        Violation(("assignment-conflict",), (p, p), (0.0, 1.0), 1.0, "conflict")
    )


def test_closure_adds_complement():
    a = LogicalAssignment(3)
    p = projector_from_vectors([[1, 1, 0]])
    a.setdefault(p, 1, PROV_ABL)
    extended = closure_extend(a)
    assert isinstance(extended, LogicalAssignment)
    assert extended.value_of(p.complement()) == 0
    tags = {tag for proj, _, tag in extended.entries() if projectors_close(proj, p.complement())}
    assert tags == {PROV_CLOSURE}


def test_closure_consistent_for_nested_projectors():
    # Q <= P commuting: v(PQ) = v(Q) = 1 is consistent with both rules
    a = LogicalAssignment(3)
    p = Projector.from_matrix(np.diag([1.0, 1.0, 0.0]))
    q = Projector.from_matrix(np.diag([1.0, 0.0, 0.0]))
    a.setdefault(p, 1, PROV_ABL)
    a.setdefault(q, 1, PROV_ABL)
    extended = closure_extend(a)
    assert isinstance(extended, LogicalAssignment)
    assert extended.value_of(Projector.from_matrix(p.matrix @ q.matrix)) == 1


def test_closure_is_monotone():
    a = LogicalAssignment(3)
    p = projector_from_vectors([[1, 0, 0]])
    q = projector_from_vectors([[0, 1, 1]])
    a.setdefault(p, 1, PROV_ABL)
    a.setdefault(q, 0, PROV_ABL)
    extended = closure_extend(a)
    assert isinstance(extended, LogicalAssignment)
    for proj, value, _ in a.entries():
        assert extended.value_of(proj) == value
    assert len(extended.entries()) >= len(a.entries())


def test_detect_paradox_three_box(box3):
    verdict = detect_paradox(box3)
    assert verdict.is_logical and verdict.is_paradox
    assert verdict.violations
    assert verdict.pre_post_overlap > 0
    violation = verdict.violations[0]
    assert recheck_violation(violation)
    e1, e2 = box3.measurements
    assert any(projectors_close(p, e1.elements[0]) for p in violation.projectors)
    assert any(projectors_close(p, e2.elements[0]) for p in violation.projectors)


def test_detect_single_context_is_not_a_paradox():
    pre = basis_proj(2, 0)
    pvm = Pvm("Z", (basis_proj(2, 0), basis_proj(2, 1)))
    verdict = detect_paradox(Scenario(2, pre, pre, (pvm,)))
    assert verdict.is_logical and not verdict.is_paradox
    assert verdict.violations == ()


def test_detect_three_box_with_one_measurement_only(box3):
    scenario = Scenario(3, box3.pre, box3.post, (box3.measurements[0],))
    verdict = detect_paradox(scenario)
    assert verdict.is_logical and not verdict.is_paradox


def test_detect_not_logical_records_offenders(box3):
    pvm = Pvm("B", tuple(basis_proj(3, i) for i in range(3)))
    scenario = Scenario(3, box3.pre, box3.post, box3.measurements + (pvm,))
    verdict = detect_paradox(scenario)
    assert not verdict.is_logical and not verdict.is_paradox
    assert verdict.non_extremal


def test_detect_raises_when_every_pvm_is_blocked():
    scenario = Scenario(
        2,
        basis_proj(2, 0),
        basis_proj(2, 1),
        (Pvm("Z", (basis_proj(2, 0), basis_proj(2, 1))),),
    )
    with pytest.raises(ImpossiblePostselection):
        detect_paradox(scenario)


def test_closure_depth_is_a_knob(box3):
    # zero rounds of closure derive nothing, so no violation surfaces
    verdict = detect_paradox(box3, depth=0)
    assert verdict.is_logical and not verdict.is_paradox
    assert detect_paradox(box3, depth=1).is_paradox


def test_closure_rejects_negative_depth(box3):
    # a negative depth ran zero rounds and reported "no paradox"
    rounded = logical_assignment(abl_table(box3), box3)
    with pytest.raises(ValueError, match="depth"):
        closure_extend(rounded, depth=-1)
    with pytest.raises(ValueError, match="depth"):
        detect_paradox(box3, depth=-1)


@given(seeds)
def test_detect_is_unitary_invariant(seed):
    rotated = conjugate_scenario(three_box(), random_unitary(3, rng_for(seed)))
    verdict = detect_paradox(rotated)
    assert verdict.is_logical and verdict.is_paradox


def test_logical_assignment_rejects_other_dimensions():
    a = LogicalAssignment(3)
    qubit = projector_from_vectors([[1, 0]])
    with pytest.raises(DimensionMismatch):
        a.setdefault(qubit, 1, PROV_ABL)
    assert len(a) == 0
    with pytest.raises(DimensionMismatch):
        a.value_of(identity_projector(2))
    assert a.value_of(identity_projector(3)) == 1
