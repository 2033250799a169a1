"""Logical assignment, closure, and paradox detection."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ppscontext import generate, linalg, paradox
from ppscontext.errors import DimensionMismatch, ImpossiblePostselection
from ppscontext.generate import (
    conjugate_scenario,
    planted_paradox,
    random_scenario,
    random_unitary,
    rng_for,
)
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


def store(index, p):
    """Slot of the first stored match of ``p``, storing ``p`` on a miss."""
    slot = index.find(p)
    return index.append(p) if slot is None else slot


def test_fingerprint_identifies_nearby_projectors():
    p = projector_from_vectors([[1, 1, 0]])
    wiggled = Projector(p.matrix + 7.5e-15)
    index = ProjectorIndex(3)
    assert store(index, p) == store(index, wiggled)


def test_projector_index_tolerance_fallback():
    # a perturbation below EPS_PROJ but straddling the rounding grid must
    # still collide
    p = projector_from_vectors([[1, 2, 3]])
    perturbed = Projector(p.matrix + 4.9e-13)
    index = ProjectorIndex(3)
    assert store(index, p) == store(index, perturbed)


def tilted_ray(angle):
    # rank-1 projector whose off-diagonal entries sit about ``angle`` away
    # from those of basis_proj(3, 0)
    v = np.array([np.cos(angle), np.sin(angle), 0.0])
    return Projector(np.outer(v, v))


def test_projector_index_separates_projectors_beyond_tolerance():
    p, shifted = tilted_ray(0.0), tilted_ray(3 * EPS_PROJ)
    index = ProjectorIndex(3)
    assert store(index, p) == 0
    assert store(index, shifted) == 1
    assert index.find(shifted) == 1
    assert len(index) == 2


def test_projector_index_find_returns_first_match():
    # p and far are 1.6 EPS_PROJ apart; mid lies within EPS_PROJ of both
    p, mid, far = (tilted_ray(t * EPS_PROJ) for t in (0.0, 0.8, 1.6))
    index = ProjectorIndex(3)
    assert store(index, p) == 0
    assert store(index, far) == 1
    assert index.find(mid) == 0
    assert store(index, mid) == 0
    assert index.projector(0) is p


def first_close(index, matrix):
    """The scalar first-match rule over the stored slots."""
    for slot in range(len(index)):
        if max_abs(index.projector(slot).matrix - matrix) <= EPS_PROJ:
            return slot
    return -1


def index_of(dim, projectors):
    index = ProjectorIndex(dim)
    for p in projectors:
        index.append(p)
    return index


def test_find_many_matches_the_scalar_first_match_rule():
    # p and far are 1.6 EPS_PROJ apart; mid lies within EPS_PROJ of both
    p, mid, far = (tilted_ray(t * EPS_PROJ) for t in (0.0, 0.8, 1.6))
    stored = (basis_proj(3, 1), p, basis_proj(3, 2), far, p.complement())
    queries = np.stack([q.matrix for q in (mid, far, basis_proj(3, 2), p.complement())]
                       + [tilted_ray(0.3).matrix, projector_from_vectors([[0, 1, 1]]).matrix])
    # Each prefix of the store, as an index of its own, answers by the same rule.
    for size in (5, 4, 3, 1, 0):
        prefix = index_of(3, stored[:size])
        expected = [first_close(prefix, m) for m in queries]
        assert list(prefix.find_many(queries)) == expected
    index = index_of(3, stored)
    assert list(index.find_many(queries)) == [1, 3, 2, 4, -1, -1]
    assert list(index_of(3, stored[:3]).find_many(queries)) == [1, -1, 2, -1, -1, -1]
    # The kernel numbers a window of stored matrices from its start.
    window = index.matrices(range(2, 5))
    assert list(paradox._first_close(window, queries)) == [1, 1, 0, 2, -1, -1]
    assert index.find_many(queries[:0]).shape == (0,)
    # Slots 5-7 are allocated but hold no projector: a zero matrix finds none.
    assert list(index.find_many(np.zeros((1, 3, 3)))) == [-1]
    with pytest.raises(DimensionMismatch):
        index.find_many(np.zeros((1, 2, 2)))


def test_find_from_a_slot_returns_the_first_match_there():
    p, mid, far = (tilted_ray(t * EPS_PROJ) for t in (0.0, 0.8, 1.6))
    index = index_of(3, (p, basis_proj(3, 2), far))
    assert [index.find(mid, lo) for lo in range(5)] == [0, 2, 2, None, None]
    with pytest.raises(DimensionMismatch):
        index.find(basis_proj(2, 0), 1)


def test_lookups_read_only_stored_slots():
    # A capacity row holding a matching matrix models stale memory: no
    # lookup may return it, as it is not a stored slot.
    index = ProjectorIndex(3)
    index.append(basis_proj(3, 0))
    index._stack[1] = basis_proj(3, 1).matrix
    assert index.find(basis_proj(3, 1)) is None
    assert index.find(basis_proj(3, 1), 1) is None
    assert list(index.find_many(basis_proj(3, 1).matrix[None])) == [-1]
    assert index.find(basis_proj(3, 0)) == 0
    assert list(index.find_many(basis_proj(3, 0).matrix[None])) == [0]


def test_matrices_reads_only_stored_slots():
    # As above: the stale capacity row 1 is not a stored slot.
    index = ProjectorIndex(3)
    index.append(basis_proj(3, 0))
    index._stack[1] = basis_proj(3, 1).matrix
    assert np.array_equal(index.matrices([0]), basis_proj(3, 0).matrix[None])
    with pytest.raises(IndexError):
        index.matrices([1])


def test_find_many_separates_equal_diagonals(monkeypatch):
    # every ray below has diagonal (1/2, 1/2, 0), so all share one key;
    # one-row chunks exercise the chunked comparison
    monkeypatch.setattr(linalg, "_CHUNK_ENTRIES", 1)
    rays = [projector_from_vectors([v]) for v in ([1, 1, 0], [1, -1, 0], [1, 1j, 0], [1, -1j, 0])]
    stored = (*rays[:3], rays[0])
    queries = np.stack([ray.matrix for ray in rays])
    for size in (4, 3, 1):
        prefix = index_of(3, stored[:size])
        expected = [first_close(prefix, m) for m in queries]
        assert list(prefix.find_many(queries)) == expected
    index = index_of(3, stored)
    assert list(index.find_many(queries)) == [0, 1, 2, -1]
    window = index.matrices(range(1, 4))
    assert list(paradox._first_close(window, queries)) == [2, 0, 1, -1]


def brute_first_close(stored, mats):
    """First index into ``stored`` within EPS_PROJ of each matrix, or -1,
    from the full table of entrywise distances."""
    close = np.abs(stored[None] - mats[:, None]).max(axis=(2, 3)) <= EPS_PROJ
    # A last column that always matches stands for "no stored match".
    first = np.column_stack([close, np.ones(len(mats), dtype=bool)]).argmax(axis=1)
    return np.where(first < len(stored), first, -1).tolist()


@given(
    seeds,
    st.sampled_from([1, 5, linalg._CHUNK_ENTRIES]),
    st.integers(0, 200),
    st.integers(0, 150),
)
def test_first_close_matches_a_brute_force_first_match(seed, chunk, n_stored, n_queries):
    # A pool of thirteen 3 x 3 matrices: the rays (1, ±1, 0) and (1, ±i, 0),
    # which share one diagonal and so one key, a random basis with its
    # complements, e_0, I and, for queries alone, e_2, which nothing stored
    # lies near.  Half of all picks take a shared-key ray, so a query has
    # up to about 100 candidates; a pick moves its pool matrix along a
    # random direction to s EPS_PROJ away in max norm, s in
    # {0, 0.4, 0.9, 1.1, 3}, so matches fall on both sides of the
    # tolerance.  Chunk 1 compares one candidate at a time.
    rng = rng_for(seed)
    u = random_unitary(3, rng)
    pool = [projector_from_vectors([v]).matrix for v in
            ([1, 1, 0], [1, -1, 0], [1, 1j, 0], [1, -1j, 0])]
    pool += [np.outer(u[:, k], u[:, k].conj()) for k in range(3)]
    pool += [np.eye(3) - m for m in pool[4:7]] + [basis_proj(3, 0).matrix, np.eye(3)]
    pool += [basis_proj(3, 2).matrix]

    def stack(count, kinds):
        shared = rng.random(count) < 0.5
        picks = np.where(shared, rng.integers(0, 4, count), rng.integers(0, kinds, count))
        scales = rng.choice([0.0, 0.0, 0.4, 0.9, 1.1, 3.0], count)
        steps = rng.normal(size=(count, 3, 3)) + 1j * rng.normal(size=(count, 3, 3))
        steps /= np.abs(steps).max(axis=(1, 2), keepdims=True)
        return np.array(pool)[picks] + scales[:, None, None] * EPS_PROJ * steps

    stored, queries = stack(n_stored, len(pool) - 1), stack(n_queries, len(pool))
    with mock.patch.object(linalg, "_CHUNK_ENTRIES", chunk):
        got = paradox._first_close(stored, queries)
    assert got.tolist() == brute_first_close(stored, queries)


@pytest.mark.parametrize("chunk", [1, linalg._CHUNK_ENTRIES])
def test_first_close_with_one_candidate_a_query_matches_brute_force(chunk):
    # Stored matrices with pairwise distinct keys give each query at most
    # one candidate, the lookup that needs no first-match reduction.  Each
    # query moves a stored matrix s EPS_PROJ away, s in {0, 0.4, 0.9, 1.1,
    # 3}, so a candidate may fail the entrywise test; e_2 has none.
    rng = rng_for(11)
    u = random_unitary(3, rng)
    stored = np.array([np.outer(u[:, k], u[:, k].conj()) for k in range(2)]
                      + [basis_proj(3, 0).matrix, np.eye(3)])
    picks = rng.integers(0, len(stored), 40)
    scales = np.tile([0.0, 0.4, 0.9, 1.1, 3.0], 8)
    steps = rng.normal(size=(40, 3, 3)) + 1j * rng.normal(size=(40, 3, 3))
    steps /= np.abs(steps).max(axis=(1, 2), keepdims=True)
    queries = np.concatenate(
        [stored[picks] + scales[:, None, None] * EPS_PROJ * steps, basis_proj(3, 2).matrix[None]]
    )
    with mock.patch.object(linalg, "_CHUNK_ENTRIES", chunk):
        got = paradox._first_close(stored, queries)
    expected = brute_first_close(stored, queries)
    assert got.tolist() == expected
    assert {-1, 0, 1, 2, 3} <= set(expected)


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
    index = ProjectorIndex(3)
    assert index.append(basis_proj(3, 0)) == 0
    with pytest.raises(DimensionMismatch):
        index.find(basis_proj(2, 0))
    with pytest.raises(DimensionMismatch):
        index.append(basis_proj(2, 0))
    assert len(index) == 1


def assert_index_holds(index, stored):
    assert len(index) == len(stored)
    assert index.matrices(range(len(stored))).shape == (len(stored), 3, 3)
    for slot, p in enumerate(stored):
        assert index.projector(slot) is p
        assert np.array_equal(index.matrices([slot])[0], p.matrix)
        assert index.find(p) == slot


@pytest.mark.parametrize("count", [3, 8])
def test_projector_index_store_of_another_dimension_leaves_it_unchanged(count):
    # 8 slots fill the first allocation, so the next store must grow it.
    stored = [projector_from_vectors([[1, k, k * k]]) for k in range(count)]
    index = ProjectorIndex(3)
    assert [index.append(p) for p in stored] == list(range(count))
    with pytest.raises(DimensionMismatch):
        index.append(basis_proj(2, 0))
    assert_index_holds(index, stored)
    extra = [projector_from_vectors([[k, 1, 0]]) for k in range(count)]
    assert [index.append(p) for p in extra] == list(range(count, 2 * count))
    assert_index_holds(index, stored + extra)


def test_empty_projector_index_checks_its_constructed_dimension():
    # The dimension comes from construction, not from the first store.
    index = ProjectorIndex(3)
    assert index.dim == 3
    with pytest.raises(DimensionMismatch):
        index.find(basis_proj(2, 0))
    with pytest.raises(DimensionMismatch):
        index.append(basis_proj(2, 0))
    assert len(index) == 0
    assert index.find(basis_proj(3, 1)) is None
    assert index.append(basis_proj(3, 1)) == 0
    assert index.find(basis_proj(3, 1)) == 0


def test_assignment_slots_always_hold_a_value():
    # A bare ProjectorIndex store once left a slot without a value, and
    # value_of then raised IndexError.
    a = LogicalAssignment(3)
    p, q = basis_proj(3, 0), basis_proj(3, 1)
    with pytest.raises(TypeError):
        a.append(p)
    with pytest.raises(ValueError, match="0 or 1"):
        a.append(p, 2, PROV_ABL)
    assert len(a) == len(a.entries()) == 0
    assert a.value_of(p) is None
    assert a.append(p, 1, PROV_ABL) == 0
    assert a.setdefault(q, 0, PROV_CLOSURE) == 0
    assert a.setdefault(p, 0, PROV_ABL) == 1
    assert len(a) == len(a.entries()) == 2
    assert a.entries() == [(p, 1, PROV_ABL), (q, 0, PROV_CLOSURE)]
    assert len(a.copy()) == len(a.copy().entries()) == 2


def test_assignment_constants(monkeypatch):
    # ac2 decides I and 0 before any lookup.
    calls = []
    find = ProjectorIndex.find

    def counted(self, p, lo=0):
        calls.append(p)
        return find(self, p, lo)

    monkeypatch.setattr(ProjectorIndex, "find", counted)
    a = LogicalAssignment(3)
    from ppscontext.linalg import identity_projector, zero_projector

    assert a.value_of(identity_projector(3)) == 1
    assert a.value_of(zero_projector(3)) == 0
    assert calls == []
    assert a.value_of(basis_proj(3, 0)) is None
    assert len(calls) == 1


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
    # All three: post (I - P_k) pre vanishes for k = 0, 1 (the amplitudes
    # are 1/3, 1/3, -1/3), but no outcome is the only one that overlaps.
    assert [(name, k) for name, k, _ in result.offending] == [("B", 0), ("B", 1), ("B", 2)]
    assert all(abs(v - 1 / 3) < 1e-9 for _, _, v in result.offending)


def test_logical_assignment_single_context():
    pre = basis_proj(3, 0)
    e1 = Pvm("E1", (basis_proj(3, 0), projector_from_vectors([[0, 1, 0], [0, 0, 1]])))
    scenario = Scenario(3, pre, pre, (e1,))
    assignment = logical_assignment(abl_table(scenario), scenario)
    assert assignment.value_of(e1.elements[0]) == 1
    assert assignment.value_of(e1.elements[1]) == 0


def test_rounding_skips_a_pvm_with_zero_postselection_weight():
    # A's denominator is eps^2 / 3, below EPS_PROB, so its weight is 0 and
    # it has no entries; B's is eps^2, above it, with entries 1 and 0.
    eps = np.sqrt(2e-9)
    pre = basis_proj(4, 0)
    post = projector_from_vectors([[eps, np.sqrt(1 - eps**2), 0, 0]])
    omega = np.exp(2j * np.pi / 3)
    fourier = [[omega ** (j * m) for m in range(3)] for j in range(3)]
    a = Pvm("A", (*(projector_from_vectors([[f[0], 0, f[1], f[2]]]) for f in fourier),
                  basis_proj(4, 1)))
    b = Pvm("B", (pre, pre.complement()))
    scenario = Scenario(4, pre, post, (a, b))
    verdict = detect_paradox(scenario)
    assert verdict.is_logical and not verdict.is_paradox
    assert verdict.table.postselection_weights["A"] == 0.0
    assert verdict.table.entries == {("B", 0): 1.0, ("B", 1): 0.0}
    assert all(verdict.assignment.value_of(e) is None for e in a.elements)
    assert len(verdict.assignment) == 2


def test_a_pvm_with_a_tiny_overlap_is_gated_not_read_as_certain():
    # post (I - P) pre is below EPS_ORTH for all three outcomes, as every
    # amplitude carries the 1e-10 overlap; the denominator, about 1e-20, is
    # gated, so no outcome is read and detect has no PVM to read at all.
    pre = basis_proj(3, 0)
    post = projector_from_vectors([[1e-10, 0, 1]])
    pvm = Pvm("T", (projector_from_vectors([[1, 1, 0]]), projector_from_vectors([[1, -1, 0]]),
                    basis_proj(3, 2)))
    scenario = Scenario(3, pre, post, (pvm,))
    table = abl_table(scenario)
    assert table.entries == {} and table.certain == {}
    assert table.postselection_weights == {"T": 0.0}
    with pytest.raises(ImpossiblePostselection):
        detect_paradox(scenario)


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
        a.setdefault(Projector(np.diag(diagonal)), value, PROV_ABL)
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
        # two values, but on two different projectors: no conflict either
        Violation(("assignment-conflict",), (basis_proj(2, 0), basis_proj(2, 1)),
                  (0.0, 1.0), 1.0, ""),
    ]
    assert [recheck_violation(v) for v in altered] == [False] * len(altered)
    assert recheck_violation(
        Violation(("assignment-conflict",), (p, p), (0.0, 1.0), 1.0, "conflict")
    )


MALFORMED = {
    "ac1-operands-short": lambda ac04, ac1, ac4: dataclasses.replace(
        ac1, projectors=ac1.projectors[:1]),
    "ac4-values-short": lambda ac04, ac1, ac4: dataclasses.replace(
        ac4, values=ac4.values[:3]),
    "ac0-ac4-values-long": lambda ac04, ac1, ac4: dataclasses.replace(
        ac04, values=(*ac04.values, 0.0)),
    "conflict-one-value": lambda ac04, ac1, ac4: Violation(
        ("assignment-conflict",), ac1.projectors, (1.0,), 1.0, "one value"),
    "ac1-dims-2-and-3": lambda ac04, ac1, ac4: dataclasses.replace(
        ac1, projectors=(basis_proj(2, 0), ac1.projectors[1])),
    "ac4-dims-2-and-3": lambda ac04, ac1, ac4: dataclasses.replace(
        ac4, projectors=(basis_proj(2, 0), *ac4.projectors[1:])),
}


@pytest.mark.parametrize("malform", MALFORMED.values(), ids=MALFORMED.keys())
def test_recheck_violation_rejects_malformed_violations(box3, malform):
    ac04 = detect_paradox(box3).violations[0]
    ac1 = closure_violation(([1.0, 0, 0], 1), ([0, 1.0, 1.0], 1))
    ac4 = closure_violation(([1.0, 0, 0], 1), ([0, 1.0, 0], 0), ([1.0, 1.0, 0], 0))
    assert recheck_violation(malform(ac04, ac1, ac4)) is False


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
    p = Projector(np.diag([1.0, 1.0, 0.0]))
    q = Projector(np.diag([1.0, 0.0, 0.0]))
    a.setdefault(p, 1, PROV_ABL)
    a.setdefault(q, 1, PROV_ABL)
    extended = closure_extend(a)
    assert isinstance(extended, LogicalAssignment)
    assert extended.value_of(Projector(p.matrix @ q.matrix)) == 1


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


def test_paradox_verdict_needs_logical_entries_a_violation_and_a_table(box3):
    verdict = detect_paradox(box3)
    assert verdict.table is not None
    for missing in (
        {"is_logical": False},
        {"violations": ()},
        {"table": None},
    ):
        with pytest.raises(ValueError, match="a paradox verdict needs"):
            dataclasses.replace(verdict, **missing)
    # a verdict that is no paradox needs none of them
    assert not dataclasses.replace(
        verdict, is_logical=False, is_paradox=False, violations=(), table=None
    ).is_paradox


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



@pytest.mark.parametrize("logical", [False, True])
def test_detect_rejects_negative_depth_whatever_the_table(logical):
    # Only the closure checked the depth, so a table that was not logical
    # returned a verdict for depth -1.
    scenario = three_box() if logical else random_scenario(3, rng_for(0), n_pvms=2)
    assert detect_paradox(scenario).is_logical is logical
    with pytest.raises(ValueError, match=r"depth must be >= 0, got -1"):
        detect_paradox(scenario, depth=-1)

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


@pytest.mark.parametrize("value", [2, 0.5, -1, 1.5])
def test_setdefault_rejects_values_other_than_0_and_1(value):
    # A stored 2 made the closure report "join value 2 + 1 - 0 = 3 falls
    # outside [0, 1]", a paradox that recheck_violation accepted.
    a = LogicalAssignment(3)
    with pytest.raises(ValueError, match="0 or 1"):
        a.setdefault(basis_proj(3, 0), value, PROV_ABL)
    assert len(a) == 0
    assert a.setdefault(basis_proj(3, 0), True, PROV_ABL) == 1
    with pytest.raises(ValueError, match="0 or 1"):
        a.setdefault(basis_proj(3, 0), value, PROV_ABL)


@pytest.mark.parametrize("dim, ranks, message", [
    (4, (0, 1), "ranks must be at least 1"),
    (4, (-1, 2), "ranks must be at least 1"),
    (3, (1, 2), "ranks must leave room for the complement"),
])
def test_planted_paradox_rejects_bad_ranks(monkeypatch, dim, ranks, message):
    # A block of rank below 1 never overlaps the pre-selection, so the
    # draw loop would run forever; the checks come before the first draw.
    def no_draw(*args):
        raise AssertionError("planted_paradox drew a basis")

    monkeypatch.setattr(generate, "random_unitary", no_draw)
    with pytest.raises(ValueError, match=message):
        planted_paradox(dim, rng_for(0), ranks=ranks)


@pytest.mark.parametrize("dim", [0, -2, 5])
def test_diagonal_family_rejects_odd_and_empty_dimensions(dim):
    with pytest.raises(ValueError, match=f"even dim >= 2, got {dim}"):
        generate.diagonal_family(dim)


def test_diagonal_family_is_logical_and_classical():
    verdict = detect_paradox(generate.diagonal_family(4), 2)
    assert verdict.is_logical and not verdict.is_paradox
    zero = basis_proj(4, 0).matrix
    for p, value, _ in verdict.assignment.entries():
        assert value == int(abs(np.trace(p.matrix @ zero) - 1) < 1e-9)
