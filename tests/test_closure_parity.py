"""Parity of the semi-naive, batched closure with the pairwise closure.

``pairwise_closure`` is the earlier ``closure_extend`` kept as a test
oracle: every round takes the complement of every entry and then tests
every pair of entries, with one lookup per derived projector.  The two
must agree exactly: same result type, same entries in the same order
(value, provenance, rank, matrix within EPS_PROJ) and the same violation.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ppscontext import linalg, paradox
from ppscontext.errors import NotAProjector, PreconditionViolated
from ppscontext.generate import (
    diagonal_family,
    paradox_corpus,
    random_scenario,
    random_unitary,
    rng_for,
)
from ppscontext.linalg import (
    EPS_ORTH,
    Projector,
    commutes,
    projector_from_vectors,
    projectors_close,
)
from ppscontext.measurement import Pvm, Scenario, abl_table
from ppscontext.paradox import (
    PROV_ABL,
    PROV_CLOSURE,
    LogicalAssignment,
    NotLogical,
    Violation,
    closure_extend,
    detect_paradox,
    logical_assignment,
    recheck_violation,
)
from ppscontext.scenarios import three_box


def pairwise_closure(assignment, depth=3):
    work = assignment.copy()
    identity = np.eye(work.dim)
    for _ in range(depth):
        added = False
        for p, vp, _tag in work.entries():
            comp = Projector(identity - p.matrix)
            derived = 1 - vp
            existing = work.value_of(comp)
            if existing is None:
                work.setdefault(comp, derived, PROV_CLOSURE)
                added = True
            elif existing != derived:
                return Violation(
                    conditions=("ac1",),
                    projectors=(p, comp),
                    values=(float(vp), float(existing)),
                    derived=float(derived),
                    description=(
                        f"complement forced to {derived} but already holds {existing}"
                    ),
                )
        snapshot = work.entries()
        for i in range(len(snapshot)):
            p, vp, _ = snapshot[i]
            for j in range(i + 1, len(snapshot)):
                q, vq, _ = snapshot[j]
                if not commutes(p, q):
                    continue
                product = Projector(p.matrix @ q.matrix)
                vpq = work.value_of(product)
                if vpq is None:
                    vpq = vp * vq
                    work.setdefault(product, vpq, PROV_CLOSURE)
                    added = True
                join = Projector(p.matrix + q.matrix - product.matrix)
                derived = vp + vq - vpq
                if derived not in (0, 1):
                    return Violation(
                        conditions=("ac0", "ac4"),
                        projectors=(p, q, product, join),
                        values=(float(vp), float(vq), float(vpq)),
                        derived=float(derived),
                        description=(
                            f"join value {vp} + {vq} - {vpq} = {derived} "
                            "falls outside [0, 1]"
                        ),
                    )
                existing = work.value_of(join)
                if existing is None:
                    work.setdefault(join, derived, PROV_CLOSURE)
                    added = True
                elif existing != derived:
                    return Violation(
                        conditions=("ac4",),
                        projectors=(p, q, product, join),
                        values=(float(vp), float(vq), float(vpq), float(existing)),
                        derived=float(derived),
                        description=(
                            f"join forced to {derived} but already holds {existing}"
                        ),
                    )
        if not added:
            break
    return work


def close(p, q):
    return p.rank == q.rank and projectors_close(p, q)


def assert_parity(got, want):
    assert type(got) is type(want)
    if isinstance(want, Violation):
        assert got.conditions == want.conditions
        assert got.values == want.values
        assert got.derived == want.derived
        assert got.description == want.description
        assert len(got.projectors) == len(want.projectors)
        assert all(close(p, q) for p, q in zip(got.projectors, want.projectors))
        assert recheck_violation(got)
        return
    got_entries, want_entries = got.entries(), want.entries()
    assert len(got_entries) == len(want_entries)
    for (p, v, tag), (q, w, want_tag) in zip(got_entries, want_entries):
        assert (v, tag) == (w, want_tag)
        assert close(p, q)


def basis_projector(dim, indices):
    return Projector(np.diag([1.0 if i in indices else 0.0 for i in range(dim)]))


def pigeonhole(n):
    """n qubits, pre |+>^n, post |+i>^n, one {same, differ} PVM per qubit pair."""
    dim = 2**n
    pre, post = np.ones(1), np.ones(1)
    for _ in range(n):
        pre = np.kron(pre, np.ones(2) / math.sqrt(2))
        post = np.kron(post, np.array([1, 1j]) / math.sqrt(2))

    def bit(x, q):
        return (x >> (n - 1 - q)) & 1

    pvms = []
    for i, j in itertools.combinations(range(n), 2):
        same = {x for x in range(dim) if bit(x, i) == bit(x, j)}
        diff = set(range(dim)) - same
        pvms.append(Pvm(f"Q{i}{j}", (basis_projector(dim, same), basis_projector(dim, diff))))
    return Scenario(
        dim,
        projector_from_vectors([pre]),
        projector_from_vectors([post]),
        tuple(pvms),
    )


def assignment_for(scenario):
    """The rounded assignment of a logical scenario; otherwise value 1 on
    the first element of every PVM and 0 on the others."""
    rounded = logical_assignment(abl_table(scenario), scenario)
    if not isinstance(rounded, NotLogical):
        return rounded
    assignment = LogicalAssignment(scenario.dim)
    for pvm in scenario.measurements:
        for k, element in enumerate(pvm.elements):
            assignment.setdefault(element, int(k == 0), PROV_ABL)
    return assignment


CASES = (
    [(f"corpus-{i}", s) for i, s in enumerate(paradox_corpus(2026, 24))]
    + [("three-box", three_box()), ("pigeonhole-3", pigeonhole(3)), ("family-6", diagonal_family(6))]
    + [
        (f"random-{seed}", random_scenario(3 + seed % 3, rng_for(seed), n_pvms=2))
        for seed in range(50)
    ]
)


@pytest.mark.parametrize("name,scenario", CASES, ids=[name for name, _ in CASES])
def test_closure_matches_pairwise_oracle(name, scenario):
    assignment = assignment_for(scenario)
    assert isinstance(assignment, LogicalAssignment)
    for depth in range(4):
        assert_parity(closure_extend(assignment, depth), pairwise_closure(assignment, depth))


@pytest.mark.parametrize("bound", [1, 200])
@pytest.mark.parametrize("name", ["family-6", "three-box", "random-2"])
def test_closure_matches_pairwise_oracle_at_small_chunk_bounds(monkeypatch, name, bound):
    # At bound 1 each closure row and each lookup candidate is its own
    # chunk; at 200 a chunk holds a few rows and a few candidates.  The
    # two random bases of random-2 commute only within a PVM, so a cut
    # falls inside rows whose commuting candidates are a part of a chunk,
    # and some chunks keep none.
    scenario = dict(CASES)[name]
    assignment = assignment_for(scenario)
    monkeypatch.setattr(linalg, "_CHUNK_ENTRIES", bound)
    assert_parity(closure_extend(assignment, 3), pairwise_closure(assignment, 3))


@pytest.mark.parametrize(
    "paired, n, most", [(0, 0, 4), (0, 1, 4), (0, 7, 4), (0, 12, 1), (3, 9, 100), (5, 6, 3)]
)
def test_pair_chunks_visit_each_pair_once_in_doubling_chunks(paired, n, most):
    chunks = [(rows.tolist(), cols.tolist()) for rows, cols in paradox._pair_chunks(paired, n, most)]
    pairs = [(i, j) for i in range(n) for j in range(max(i + 1, paired), n)]
    assert [pair for rows, cols in chunks for pair in zip(rows, cols)] == pairs
    # The first chunk is the first row's pairs; each later one doubles, up to most.
    first = max(1, n - max(1, paired))
    sizes = [len(rows) for rows, _ in chunks]
    assert sizes[:-1] == [min(most, first << k) for k in range(len(sizes) - 1)]
    assert all(size <= most for size in sizes)


def recorded_chunks(monkeypatch):
    """Record the rows and columns of every chunk of pairs the closure
    passes to ``_products_and_joins``, with the store before and after."""
    chunks = []
    products_and_joins = paradox._products_and_joins

    def recording(work, rows, cols):
        start = len(work)
        result = products_and_joins(work, rows, cols)
        chunks.append((rows.tolist(), cols.tolist(), work, start, len(work)))
        return result

    monkeypatch.setattr(paradox, "_products_and_joins", recording)
    return chunks


@pytest.mark.parametrize("per_chunk", [3, 7])
@pytest.mark.parametrize("name", ["family-6", "random-2", "random-4"])
def test_closure_matches_pairwise_oracle_when_chunks_cut_rows(monkeypatch, name, per_chunk):
    # A bound of per_chunk pairs cuts the blocks of 2, 4, ... rows in the
    # middle of a row, so one row's pairs span two chunks and one chunk
    # holds the end of one row and the start of the next.
    scenario = dict(CASES)[name]
    assignment = assignment_for(scenario)
    monkeypatch.setattr(linalg, "_CHUNK_ENTRIES", per_chunk * 2 * scenario.dim**2)
    chunks = recorded_chunks(monkeypatch)
    assert_parity(closure_extend(assignment, 3), pairwise_closure(assignment, 3))
    assert all(len(rows) <= per_chunk for rows, *_ in chunks)
    assert any(prev[0][-1] == rows[0] for prev, (rows, *_) in zip(chunks, chunks[1:]))
    assert any(rows[0] != rows[-1] for rows, *_ in chunks)


def test_a_later_row_meets_a_slot_an_earlier_row_of_its_chunk_stored(monkeypatch):
    # In the closure family most products and joins recur, so a chunk of
    # several rows derives a new matrix in one row, stores it, and meets it
    # again in a later row; that lookup must find the new slot, as the
    # pairwise oracle does.
    scenario = diagonal_family(6)
    assignment = assignment_for(scenario)
    chunks = recorded_chunks(monkeypatch)
    assert_parity(closure_extend(assignment, 3), pairwise_closure(assignment, 3))
    meets = 0
    for rows, cols, work, start, stop in chunks:
        stack = work.matrices(range(stop))
        ps, qs = stack[rows], stack[cols]
        derived = np.stack([ps @ qs, ps + qs - ps @ qs], axis=1)
        for slot in range(start, stop):
            makers = np.flatnonzero(linalg._close(derived, stack[slot]).any(axis=1))
            meets += rows[makers[0]] < rows[makers[-1]]
    assert meets > 0


def test_closure_and_copy_leave_the_input_alone():
    # A paradox verdict holds the rounded store itself, so the closure
    # must extend a copy, and a copy must not share the store's stack.
    for scenario in (three_box(), diagonal_family(6)):
        rounded = logical_assignment(abl_table(scenario), scenario)
        before = rounded.entries()
        stack = rounded.matrices(range(len(rounded)))
        closure_extend(rounded, 3)
        assert rounded.entries() == before
        assert np.array_equal(rounded.matrices(range(len(rounded))), stack)
    verdict = detect_paradox(three_box())
    assert verdict.is_paradox
    n = len(verdict.assignment)
    copy = verdict.assignment.copy()
    a, b = projector_from_vectors([[1, 2, 3]]), projector_from_vectors([[3, 1, 2]])
    copy.setdefault(a, 1, PROV_CLOSURE)
    verdict.assignment.setdefault(b, 0, PROV_CLOSURE)
    assert (copy.find(a), copy.find(b), copy.value_of(a)) == (n, None, 1)
    assert (verdict.assignment.find(b), verdict.assignment.find(a)) == (n, None)
    assert len(copy) == len(verdict.assignment) == n + 1


def test_oracle_cases_cover_every_outcome():
    results = [closure_extend(assignment_for(s), 3) for _, s in CASES]
    assert any(isinstance(r, LogicalAssignment) for r in results)
    violated = {r.conditions for r in results if isinstance(r, Violation)}
    assert {("ac0", "ac4"), ("ac4",)} <= violated


@st.composite
def logical_scenarios(draw):
    """Commuting PVMs grouped from one random basis, pre = post = a basis ray."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    dim = draw(st.integers(min_value=3, max_value=5))
    rng = rng_for(seed)
    basis = random_unitary(dim, rng)
    pvms = []
    for i in range(draw(st.integers(min_value=1, max_value=3))):
        owners = rng.integers(0, 2, size=dim)
        owners[:2] = (0, 1)
        pvms.append(
            Pvm(
                f"M{i}",
                tuple(
                    projector_from_vectors([basis[:, a] for a in np.flatnonzero(owners == g)])
                    for g in (0, 1)
                ),
            )
        )
    ray = projector_from_vectors([basis[:, int(rng.integers(dim))]])
    return Scenario(dim, ray, ray, tuple(pvms))


@given(logical_scenarios(), st.integers(min_value=0, max_value=3))
def test_closure_parity_on_random_logical_scenarios(scenario, depth):
    assignment = logical_assignment(abl_table(scenario), scenario)
    assert isinstance(assignment, LogicalAssignment)
    assert_parity(closure_extend(assignment, depth), pairwise_closure(assignment, depth))


def recorded_commutes(monkeypatch):
    """Record every pair the closure passes to ``commutes`` by matrix bytes."""
    tested = []

    def recording(p, q):
        tested.append(frozenset((p.matrix.tobytes(), q.matrix.tobytes())))
        return commutes(p, q)

    monkeypatch.setattr(paradox, "commutes", recording)
    return tested


def test_a_closure_that_returns_a_store_calls_no_commutes(monkeypatch):
    # Each row tests its candidates as one stack; ``commutes`` only
    # confirms the pair a violation cites, and this family has none.
    scenario = diagonal_family(6)
    assignment = logical_assignment(abl_table(scenario), scenario)
    tested = recorded_commutes(monkeypatch)
    result = closure_extend(assignment, 3)
    assert isinstance(result, LogicalAssignment)
    assert tested == []
    assert_parity(result, pairwise_closure(assignment, 3))


def test_three_box_tests_commutation_no_more_often(monkeypatch):
    # The pairwise-tested closure made 3 calls here; a tracer that wraps
    # ``paradox.commutes`` still sees the closure test commutation.
    tested = recorded_commutes(monkeypatch)
    verdict = detect_paradox(three_box())
    assert verdict.is_paradox
    assert 1 <= len(tested) <= 3


@st.composite
def mixed_ancestry(draw):
    """PVMs grouped from two random bases that share some basis vectors, so
    some generator pairs commute and others clash; each PVM gives value 1
    to one element and 0 to the others."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    dim = draw(st.integers(min_value=3, max_value=5))
    rng = rng_for(seed)
    first = random_unitary(dim, rng)
    mixed = rng.permutation(dim)[: draw(st.integers(min_value=2, max_value=dim))]
    second = first.copy()
    second[:, mixed] = first[:, mixed] @ random_unitary(len(mixed), rng)
    assignment = LogicalAssignment(dim)
    for basis in (first, first, second, second)[: draw(st.integers(min_value=2, max_value=4))]:
        owners = rng.integers(0, 2, size=dim)
        owners[:2] = (0, 1)
        one = int(rng.integers(2))
        for g in (0, 1):
            element = projector_from_vectors([basis[:, a] for a in np.flatnonzero(owners == g)])
            assignment.setdefault(element, int(g == one), PROV_ABL)
    return assignment


@given(mixed_ancestry(), st.integers(min_value=0, max_value=3))
def test_closure_parity_on_mixed_ancestry(assignment, depth):
    assert_parity(closure_extend(assignment, depth), pairwise_closure(assignment, depth))


def near_commuting(values):
    """Diagonal PVMs A1, A2 and ray PVMs U, V on d = 4 whose rays are tilted
    out of ran A1 so that [A1, U] and [A1, V] have entries of 0.5 EPS_ORTH;
    U and V clash with A2.  PVM k gives its first element the value values[k]."""
    theta = 0.5 * EPS_ORTH * math.sqrt(2)
    e = np.eye(4)
    u = math.cos(theta) * (e[0] + e[1]) / math.sqrt(2) + math.sin(theta) * e[2]
    v = math.cos(theta) * (e[0] - e[1]) / math.sqrt(2) + math.sin(theta) * e[3]
    rays = [projector_from_vectors([u]), projector_from_vectors([v])]
    pvms = [
        (basis_projector(4, {0, 1}), basis_projector(4, {2, 3})),
        (basis_projector(4, {0, 2}), basis_projector(4, {1, 3})),
        *((ray, ray.complement()) for ray in rays),
    ]
    assignment = LogicalAssignment(4)
    for elements, value in zip(pvms, values):
        assignment.setdefault(elements[0], value, PROV_ABL)
        assignment.setdefault(elements[1], 1 - value, PROV_ABL)
    return assignment


@pytest.mark.parametrize("values", [(1, 1, 1, 1), (1, 1, 0, 0), (1, 1, 1, 0), (0, 0, 0, 0)])
def test_near_commuting_generators_keep_parity_or_raise(values):
    assignment = near_commuting(values)
    entries = [p.matrix for p, _, _ in assignment.entries()]
    commutators = {linalg.max_abs(p @ q - q @ p) for p in entries for q in entries}
    assert any(0.4 * EPS_ORTH < c < 0.6 * EPS_ORTH for c in commutators)
    for depth in range(4):
        try:
            got = closure_extend(assignment, depth)
        except PreconditionViolated:
            continue
        assert_parity(got, pairwise_closure(assignment, depth))
        if isinstance(got, Violation):
            assert recheck_violation(got)


def test_violation_pair_is_confirmed_with_commutes(monkeypatch):
    # B <= A with v(A) = 0, v(B) = 1: the first violation pairs A with
    # I - B.  A commutes() that always fails models a pair whose stacked
    # commutator passes EPS_ORTH while its own test does not.
    a, b = basis_projector(3, {0, 1}), basis_projector(3, {0})
    assignment = LogicalAssignment(3)
    assignment.setdefault(a, 0, PROV_ABL)
    assignment.setdefault(b, 1, PROV_ABL)
    found = closure_extend(assignment, 1)
    assert found.conditions == ("ac4",)
    assert close(found.projectors[1], b.complement())
    tested = []

    def never(p, q):
        tested.append((p, q))
        return False

    monkeypatch.setattr(paradox, "commutes", never)
    with pytest.raises(PreconditionViolated, match="EPS_ORTH"):
        closure_extend(assignment, 1)
    assert len(tested) == 1
    assert close(tested[0][0], a) and close(tested[0][1], b.complement())


@pytest.mark.parametrize("flagged", [(1, 1, 0, 0), (1, 0, 1, 0)])
def test_invalid_derived_matrix_raises_only_when_reached(monkeypatch, flagged):
    # Entry 0 (value 1) pairs first with entry 1 (value 1): its join
    # diag(1, 1, 0, 0) gets the value 2, an ac0 violation.  Its next pair,
    # with entry 2, gives the join diag(1, 0, 1, 0).  A matrix made to
    # fail validation raises exactly when the pairwise loop builds it:
    # the first join before the ac0 test, the second never.
    assignment = LogicalAssignment(4)
    for slot, value in ((0, 1), (1, 1), (2, 0)):
        assignment.setdefault(basis_projector(4, {slot}), value, PROV_ABL)
    validate = linalg.check_projectors

    def check(stack):
        ranks, errors = validate(stack)
        for k, matrix in enumerate(stack):
            if np.array_equal(matrix, np.diag(flagged)):
                errors[k] = "flagged"
        return ranks, errors

    monkeypatch.setattr(linalg, "check_projectors", check)
    monkeypatch.setattr(paradox, "check_projectors", check)
    outcomes = []
    for closure in (closure_extend, pairwise_closure):
        try:
            outcomes.append(closure(assignment, 1))
        except NotAProjector as exc:
            outcomes.append(str(exc))
    if flagged == (1, 1, 0, 0):
        assert outcomes == ["flagged", "flagged"]
    else:
        assert_parity(*outcomes)
        assert outcomes[0].conditions == ("ac0", "ac4")


def test_invalid_derived_matrix_that_hits_a_stored_slot_takes_its_value(monkeypatch):
    # Entries diag(1, 0, 0, 0) and diag(1, 1, 0, 0) both hold 1; their
    # product is diag(1, 0, 0, 0) again, a hit on slot 0.  Made to fail
    # validation after the store is built, that matrix is only looked up
    # by the closure, which takes the slot's value, while the pairwise
    # oracle builds a Projector from it and raises.
    assignment = LogicalAssignment(4)
    for indices in ({0}, {0, 1}):
        assignment.setdefault(basis_projector(4, indices), 1, PROV_ABL)
    want = closure_extend(assignment, 1)
    flagged = np.diag([1.0, 0.0, 0.0, 0.0])
    validate, seen = linalg.check_projectors, []

    def check(stack):
        ranks, errors = validate(stack)
        for k, matrix in enumerate(stack):
            if np.array_equal(matrix, flagged):
                seen.append(k)
                errors[k] = "flagged"
        return ranks, errors

    monkeypatch.setattr(linalg, "check_projectors", check)
    monkeypatch.setattr(paradox, "check_projectors", check)
    got = closure_extend(assignment, 1)
    assert isinstance(got, LogicalAssignment)
    assert_parity(got, want)
    assert seen == []
    with pytest.raises(NotAProjector, match="flagged"):
        pairwise_closure(assignment, 1)


def test_closure_validates_only_the_lookup_misses(monkeypatch):
    # diagonal_family(6) is the benchmark's closure family at d = 6 without
    # its seeded relabelling of the basis, which changes no lookup.
    scenario = diagonal_family(6)
    assignment = logical_assignment(abl_table(scenario), scenario)
    rows, misses, validated = [], [], []
    find_many, validate = paradox.ProjectorIndex.find_many, paradox.check_projectors

    def counted_find_many(self, mats):
        slots = find_many(self, mats)
        rows.append(len(mats))
        misses.append(int((slots < 0).sum()))
        return slots

    def counted_check(stack):
        validated.append(len(stack))
        return validate(stack)

    monkeypatch.setattr(paradox.ProjectorIndex, "find_many", counted_find_many)
    monkeypatch.setattr(paradox, "check_projectors", counted_check)
    result = closure_extend(assignment, 3)
    assert isinstance(result, LogicalAssignment)
    assert sum(validated) == sum(misses) < sum(rows)
    assert 0 not in validated
