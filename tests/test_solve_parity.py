"""Parity of ``solve`` with the earlier two-part search.

``reference_solve`` is the earlier ``solve`` kept as a test oracle, with
the search state it used: a root pass that forces the fixed values and
propagates, then a separate depth-first search over decisions that
records the last failed branch.  The two must agree exactly on status,
witness, trace, conflict and branch count.
"""

import dataclasses
import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppscontext.contextuality import (
    ConstraintSystem,
    assemble_system,
    build_constraint_system,
    solve,
)
from ppscontext.generate import paradox_corpus
from ppscontext.linalg import identity_projector, projector_from_vectors
from ppscontext.paradox import detect_paradox
from ppscontext.scenarios import eight_ray_system, three_box


class _ReferenceSearch:
    def __init__(self, system):
        self.system = system
        n = len(system.nodes)
        self.n = n
        self.excl_of = [[] for _ in range(n)]
        for a, b in system.exclusions:
            self.excl_of[a].append((a, b))
            self.excl_of[b].append((a, b))
        self.res_of = [[] for _ in range(n)]
        for ri, members in enumerate(system.resolutions):
            for m in members:
                self.res_of[m].append(ri)
        degree = [len(self.excl_of[i]) for i in range(n)]
        fixed_nodes = list(dict.fromkeys(node for node, _ in system.fixed))
        rest = sorted(
            (i for i in range(n) if i not in set(fixed_nodes)),
            key=lambda i: (-degree[i], system.labels[i], i),
        )
        self.order = fixed_nodes + rest

    def force(self, node, value, reason, values, queue, log):
        current = values[node]
        if current is None:
            values[node] = value
            log.append((node, value, reason))
            queue.append(node)
            return None
        return None if current == value else reason

    def propagate(self, values, queue, log):
        while queue:
            node = queue.popleft()
            if values[node] == 1:
                for a, b in self.excl_of[node]:
                    other = b if node == a else a
                    conflict = self.force(
                        other, 0, ("exclusion", a, b), values, queue, log
                    )
                    if conflict is not None:
                        return conflict
            for ri in self.res_of[node]:
                conflict = self.apply_resolution(ri, values, queue, log)
                if conflict is not None:
                    return conflict
        return None

    def apply_resolution(self, ri, values, queue, log):
        members = self.system.resolutions[ri]
        reason = ("resolution", ri)
        ones = [m for m in members if values[m] == 1]
        unknown = [m for m in members if values[m] is None]
        if len(ones) > 1:
            return reason
        if len(ones) == 1:
            for m in unknown:
                conflict = self.force(m, 0, reason, values, queue, log)
                if conflict is not None:
                    return conflict
            return None
        if not unknown:
            return reason
        if len(unknown) == 1:
            return self.force(unknown[0], 1, reason, values, queue, log)
        return None


def reference_solve(system):
    search = _ReferenceSearch(system)
    counter = {"branches": 1}
    last = {}

    values = [None] * search.n
    log = []
    queue = deque()
    conflict = None
    for node, value in system.fixed:
        conflict = search.force(node, value, ("fixed", node), values, queue, log)
        if conflict is not None:
            break
    if conflict is None:
        conflict = search.propagate(values, queue, log)
    if conflict is not None:
        return ("UNSAT", None, tuple(log), conflict, counter["branches"])

    witness = {}

    def dfs(values, log):
        node = next((i for i in search.order if values[i] is None), None)
        if node is None:
            witness["assignment"] = tuple(values)
            return True
        for value in (1, 0):
            counter["branches"] += 1
            child_values = list(values)
            child_log = list(log)
            child_queue = deque()
            conflict = search.force(
                node, value, ("decision", node), child_values, child_queue, child_log
            )
            if conflict is None:
                conflict = search.propagate(child_values, child_queue, child_log)
            if conflict is not None:
                last["log"], last["conflict"] = child_log, conflict
                continue
            if dfs(child_values, child_log):
                return True
        return False

    if dfs(values, log):
        return ("SAT", witness["assignment"], (), None, counter["branches"])
    return ("UNSAT", None, tuple(last["log"]), last["conflict"], counter["branches"])


def ray_system(rays, dim):
    """Every ray a node, every orthogonal dim-subset a resolution."""
    vectors = np.array(rays)
    orthogonal = vectors @ vectors.T == 0
    bases = [
        basis
        for basis in itertools.combinations(range(len(rays)), dim)
        if all(orthogonal[a, b] for a, b in itertools.combinations(basis, 2))
    ]
    nodes = [projector_from_vectors([r]) for r in rays]
    return assemble_system(nodes, (), bases)


#: Cabello, Estebaranz & Garcia-Alcaine (Phys. Lett. A 212, 183 (1996)):
#: 18 rays in d = 4, each in two of the nine bases; no 0/1 colouring.
CEGA_18 = [
    (0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0), (1, -1, 0, 0),
    (0, 1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0), (1, -1, 1, -1),
    (1, -1, -1, 1), (0, 0, 1, 1), (1, 1, 1, 1), (0, 1, 0, -1),
    (1, 0, 0, 1), (1, 0, 0, -1), (0, 1, -1, 0), (1, 1, -1, 1),
    (1, 1, 1, -1), (-1, 1, 1, 1),
]

#: Yu & Oh (PRL 108, 030402 (2012)): 13 rays in d = 3 with four bases;
#: 0/1-colourable, but only after decisions.
YU_OH_13 = [
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (0, 1, -1), (0, 1, 1), (1, 0, -1), (1, 0, 1), (1, -1, 0), (1, 1, 0),
    (1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1),
]


def variants(system):
    """The system, the system keeping only its first fixed entry, and the
    system with each (node, value) pin put after and before its fixed
    entries (a pin before them can conflict with a later one)."""
    yield system
    yield dataclasses.replace(system, fixed=system.fixed[:1])
    for pin in itertools.product(range(len(system.nodes)), (0, 1)):
        yield dataclasses.replace(system, fixed=system.fixed + (pin,))
        yield dataclasses.replace(system, fixed=(pin,) + system.fixed)


def _cases():
    scenarios = [("three-box", three_box())] + [
        (f"corpus-{i}", s) for i, s in enumerate(paradox_corpus(seed=515, count=8))
    ]
    cases = [
        (name, build_constraint_system(s, detect_paradox(s))) for name, s in scenarios
    ]
    cases.append(("eight-ray", eight_ray_system()))
    cases.append(("cega-18", ray_system(CEGA_18, 4)))
    cases.append(("yu-oh-13", ray_system(YU_OH_13, 3)))
    return cases


CASES = _cases()


def as_tuple(cert):
    return (cert.status, cert.witness, cert.trace, cert.conflict, cert.search_nodes)


@pytest.mark.parametrize("name, system", CASES, ids=[name for name, _ in CASES])
def test_solve_matches_reference(name, system):
    for variant in variants(system):
        assert as_tuple(solve(variant)) == reference_solve(variant)


def test_reference_cases_branch_for_both_outcomes():
    branching = {"SAT": 0, "UNSAT": 0}
    for _, system in CASES:
        for variant in variants(system):
            status, *_, branches = reference_solve(variant)
            if branches > 1:
                branching[status] += 1
    assert branching["SAT"] > 0 and branching["UNSAT"] > 0


def test_ray_sets_need_decisions():
    systems = dict(CASES)
    assert len(systems["cega-18"].resolutions) == 9
    assert len(systems["yu-oh-13"].resolutions) == 4
    assert reference_solve(systems["cega-18"])[::4] == ("UNSAT", 41)
    assert reference_solve(systems["yu-oh-13"])[::4] == ("SAT", 5)


@st.composite
def small_systems(draw):
    """Random systems of 2 to 9 nodes: exclusions in either orientation,
    resolutions with members in random order that may repeat a member,
    pins that may conflict, and labels drawn from three letters so that
    ties reach the index."""
    n = draw(st.integers(2, 9))
    node = st.integers(0, n - 1)
    pair = st.lists(node, min_size=2, max_size=2, unique=True).map(tuple)
    members = st.lists(node, min_size=1, max_size=n).map(tuple)
    pin = st.tuples(node, st.integers(0, 1))
    # solve reads only the node count, so one shared node stands for all.
    system = ConstraintSystem(
        nodes=(identity_projector(1),) * n,
        labels=tuple(draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))),
        fixed=tuple(draw(st.lists(pin, max_size=4))),
        exclusions=tuple(draw(st.lists(pair, max_size=12))),
        resolutions=tuple(draw(st.lists(members, max_size=5))),
    )
    return system, draw(pin)


@settings(max_examples=300)
@given(small_systems())
def test_solve_matches_reference_on_random_systems(case):
    system, pin = case
    expected = reference_solve(system)
    assert as_tuple(solve(system)) == expected
    assert as_tuple(solve(system)) == expected
    pinned = dataclasses.replace(system, fixed=system.fixed + (pin,))
    assert as_tuple(solve(pinned)) == reference_solve(pinned)
