"""Parity of the stacked proof-system build with the per-outcome build.

``reference_system`` is the earlier construction kept as a test oracle:
one ``reference_split`` per certain outcome (I - P validated again, one
``eigh`` for the meet, q validated, two ``is_orthogonal`` checks), then
one ``reference_add`` per node in the order pre, post, the pins, then
each P, q, r: a ``ProjectorIndex.find``, and a store on a miss.  Exclusions come from one ``is_orthogonal`` call per
node pair and labels from ``reference_label``, which formats numpy
scalars.  The stacked build must give the same nodes (within EPS_PROJ,
same ranks), labels, fixed entries, exclusions and resolutions, and raise
the same first error.
"""

import functools

import numpy as np
import pytest

from ppscontext import contextuality
from ppscontext.contextuality import (
    _selection_system,
    build_constraint_system,
    verify_forced_value,
)
from ppscontext.errors import DimensionMismatch, PreconditionViolated
from ppscontext.generate import paradox_corpus
from ppscontext.linalg import (
    EPS_MEET,
    EPS_ORTH,
    EPS_PROJ,
    Projector,
    is_orthogonal,
    max_abs,
    projector_from_vectors,
    projectors_close,
)
from ppscontext.paradox import ProjectorIndex, detect_paradox
from ppscontext.scenarios import three_box
from test_assembly_parity import reference_exclusions
from test_closure_parity import pigeonhole


def reference_split(scenario, p):
    if p.dim != scenario.dim:
        raise DimensionMismatch("projector dimension does not match scenario")
    eye = np.eye(scenario.dim)
    comp = Projector(eye - p.matrix)
    residual = max_abs(scenario.post.matrix @ comp.matrix @ scenario.pre.matrix)
    if residual > EPS_ORTH:
        raise PreconditionViolated(
            f"post (I-p) pre has max entry {residual:.3g}; "
            "the outcome is not certain under the selections"
        )
    w, v = np.linalg.eigh(comp.matrix + eye - scenario.pre.matrix)
    cols = v[:, w >= 2.0 - EPS_MEET]
    r = Projector(cols @ cols.conj().T)
    q = Projector(comp.matrix - r.matrix)
    if not is_orthogonal(scenario.pre, r):
        raise PreconditionViolated("decomposition failed: pre r != 0")
    if not is_orthogonal(scenario.post, q):
        raise PreconditionViolated("decomposition failed: post q != 0")
    return q, r


def reference_add(index, p):
    """Slot of the first stored match of ``p``, storing ``p`` on a miss."""
    slot = index.find(p)
    return index.append(p) if slot is None else slot


def reference_system(scenario, certain, pins=()):
    index = ProjectorIndex(scenario.dim)
    add = functools.partial(reference_add, index)
    fixed = [(add(scenario.pre), 1), (add(scenario.post), 1)]
    fixed += [(add(p), value) for p, value in pins]
    resolutions = []
    for p in certain:
        q, r = reference_split(scenario, p)
        p_i = add(p)
        resolutions.append((p_i, *(add(x) for x in (q, r) if x.rank > 0)))
    nodes = [index.projector(i) for i in range(len(index))]
    return nodes, tuple(dict.fromkeys(fixed)), tuple(dict.fromkeys(resolutions))


def reference_label(p):
    if p.rank != 1:
        return None
    vec = p.matrix[:, int(np.argmax(p.matrix.diagonal().real))]
    peak = float(np.max(np.abs(vec)))
    lead = next(i for i, c in enumerate(vec) if abs(c) > 1e-6 * peak)
    parts = []
    for c in vec / vec[lead]:
        re = 0.0 if abs(c.real) < 1e-9 else float(c.real)
        im = 0.0 if abs(c.imag) < 1e-9 else float(c.imag)
        if im == 0.0:
            parts.append(f"{re:.6g}")
        else:
            sign = "+" if im > 0 else "-"
            parts.append(f"{re:.6g}{sign}{abs(im):.6g}i")
    return "(" + ", ".join(parts) + ")"


def reference_labels(nodes):
    labels, seen = [], set()
    for i, p in enumerate(nodes):
        label = reference_label(p) or f"[{i}] rank={p.rank}"
        if label in seen:
            label = f"{label} #{i}"
        seen.add(label)
        labels.append(label)
    return tuple(labels)


def assert_same_build(system, scenario, certain, pins=()):
    nodes, fixed, resolutions = reference_system(scenario, certain, pins)
    assert len(system.nodes) == len(nodes)
    for got, want in zip(system.nodes, nodes):
        assert got.rank == want.rank
        assert projectors_close(got, want)
    assert system.labels == reference_labels(nodes)
    assert system.fixed == fixed
    assert system.exclusions == reference_exclusions(nodes)
    assert system.resolutions == resolutions


def _paradoxes():
    scenarios = [(f"corpus-{i}", s) for i, s in enumerate(paradox_corpus(2026, 60))]
    scenarios += [("three-box", three_box())]
    scenarios += [(f"pigeonhole-{n}", pigeonhole(n)) for n in (3, 4, 5)]
    verdicts = [(name, s, detect_paradox(s)) for name, s in scenarios]
    return [(name, s, v) for name, s, v in verdicts if v.is_paradox]


PARADOXES = _paradoxes()
IDS = [name for name, _, _ in PARADOXES]


def test_every_listed_scenario_is_a_paradox():
    assert len(PARADOXES) == 64


@pytest.mark.parametrize("name, scenario, verdict", PARADOXES, ids=IDS)
def test_build_matches_per_outcome_reference(name, scenario, verdict):
    value_of = verdict.assignment.value_of
    ones = ([e for e in pvm.elements if value_of(e) == 1] for pvm in scenario.measurements)
    certain = [found[0] for found in ones if found]
    assert_same_build(build_constraint_system(scenario, verdict), scenario, certain)


@pytest.mark.parametrize("name", ["three-box", "pigeonhole-3"])
def test_build_reads_certain_outcomes_without_index_lookups(name, monkeypatch):
    # The certain outcomes come from the verdict's rounded table, so the
    # build asks the closure's store nothing.
    scenario, verdict = next((s, v) for n, s, v in PARADOXES if n == name)
    calls = []
    find = ProjectorIndex.find

    def counted(self, p):
        calls.append(p)
        return find(self, p)

    monkeypatch.setattr(ProjectorIndex, "find", counted)
    build_constraint_system(scenario, verdict)
    assert calls == []


def test_each_system_is_stacked_once_without_public_assembly(monkeypatch):
    # The build's dedup decides node identity: one `_first_close` per
    # system, and no second duplicate check through `assemble_system`.
    calls = {"_first_close": 0, "assemble_system": 0}

    def counted(name):
        fn = getattr(contextuality, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(contextuality, name, counted(name))
    corpus = next(name for name in IDS if name.startswith("corpus-"))
    for name in ("three-box", "pigeonhole-3", corpus):
        scenario, verdict = next((s, v) for n, s, v in PARADOXES if n == name)
        build_constraint_system(scenario, verdict)
    box = three_box()
    assert verify_forced_value(box, box.measurements[0], 0)
    assert calls == {"_first_close": 4, "assemble_system": 0}


def projector_complement(p):
    return Projector(np.eye(p.dim) - p.matrix)


@pytest.mark.parametrize("name, scenario, verdict", PARADOXES, ids=IDS)
def test_forced_value_systems_match_per_outcome_reference(name, scenario, verdict):
    # The systems `verify_forced_value` solves, one per extremal entry.
    built = 0
    for pvm in scenario.measurements:
        for k, element in enumerate(pvm.elements):
            target = verdict.table.certain.get((pvm.name, k))
            if target is None:
                continue
            certain = element if target == 1 else projector_complement(element)
            pins = ((element, 1 - target),)
            system = _selection_system(scenario, (certain,), pins)
            assert_same_build(system, scenario, (certain,), pins)
            built += 1
    assert built > 0


def tilted_ray(t):
    """Ray along cos(t) e_0 + sin(t) e_1: two of them lie about |t - t'| apart."""
    return projector_from_vectors([[np.cos(t), np.sin(t), 0.0]])


def test_dedup_follows_the_sequential_rule_when_closeness_is_not_transitive():
    # Steps of 0.8 EPS_PROJ: neighbours match, rays two steps apart do not.
    # The last pin's first match is the second, itself no node, so its
    # node is the third pin, found by scanning the nodes.
    box = three_box()
    pins = tuple(
        (tilted_ray(t * EPS_PROJ), value)
        for t, value in [(0.0, 1), (0.8, 1), (2.4, 0), (1.6, 0)]
    )
    system = _selection_system(box, (), pins)
    assert len(system.nodes) == 4
    assert system.fixed == ((0, 1), (1, 1), (2, 1), (3, 0))
    assert_same_build(system, box, (), pins)


def raised(build):
    with pytest.raises(Exception) as info:
        build()
    return type(info.value), str(info.value)


def test_first_failure_raises_as_per_outcome_reference():
    box = three_box()
    certain = [box.measurements[0].elements[0], projector_from_vectors([[0, 0, 1]])]
    got = raised(lambda: _selection_system(box, certain))
    assert got == raised(lambda: reference_system(box, certain))
    assert got[0] is PreconditionViolated
    assert got[1].startswith("post (I-p) pre has max entry")
