"""Parity of the stacked ``assemble_system`` with the pairwise assembly.

``reference_exclusions`` and ``reference_has_duplicates`` are the earlier
assembly rule kept as a test oracle: one ``is_orthogonal`` call per node
pair i < j, in (i, j) order, and one ``ProjectorIndex.add`` per node, a
duplicate being a node that finds an earlier stored match.  The stacked
pass must give the same exclusions and the same duplicate verdict.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ppscontext import contextuality, linalg
from ppscontext.contextuality import assemble_system, build_constraint_system
from ppscontext.generate import paradox_corpus, random_unitary, rng_for
from ppscontext.linalg import EPS_ORTH, EPS_PROJ, Projector, is_orthogonal
from ppscontext.paradox import ProjectorIndex, detect_paradox
from ppscontext.scenarios import eight_ray_system, three_box
from test_solve_parity import CEGA_18, YU_OH_13


def reference_exclusions(nodes):
    n = len(nodes)
    return tuple(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if is_orthogonal(nodes[i], nodes[j])
    )


def reference_has_duplicates(nodes):
    index = ProjectorIndex()
    for p in nodes:
        index.add(p)
    return len(index) != len(nodes)


def assert_same_assembly(nodes):
    nodes = tuple(nodes)
    if reference_has_duplicates(nodes):
        with pytest.raises(ValueError, match="node list contains duplicates"):
            assemble_system(nodes, (), ())
        return
    assert assemble_system(nodes, (), ()).exclusions == reference_exclusions(nodes)


def ray_nodes(rays):
    return [linalg.projector_from_vectors([r]) for r in rays]


def _node_lists():
    scenarios = [("three-box", three_box())] + [
        (f"corpus-{i}", s) for i, s in enumerate(paradox_corpus(seed=515, count=8))
    ]
    lists = [
        (name, build_constraint_system(s, detect_paradox(s)).nodes)
        for name, s in scenarios
    ]
    lists.append(("eight-ray", eight_ray_system().nodes))
    lists.append(("cega-18", ray_nodes(CEGA_18)))
    lists.append(("yu-oh-13", ray_nodes(YU_OH_13)))
    return lists


NODE_LISTS = _node_lists()


@pytest.mark.parametrize("name, nodes", NODE_LISTS, ids=[n for n, _ in NODE_LISTS])
def test_assembly_matches_reference(name, nodes):
    assert_same_assembly(nodes)
    # Repeating a node must be caught as a duplicate, wherever it lands.
    assert_same_assembly([*nodes, nodes[len(nodes) // 2]])
    assert_same_assembly([nodes[-1], *nodes])


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=3, max_value=5),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.sets(st.integers(min_value=0, max_value=2), min_size=1, max_size=2),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_assembly_matches_reference_on_mixed_ranks(seed, dim, picks):
    # Rank-1 and rank-2 projectors spanned by columns of three random
    # bases: same-basis pairs are orthogonal or equal, so both exclusions
    # and duplicates occur.
    rng = rng_for(seed)
    bases = [random_unitary(dim, rng) for _ in range(3)]
    nodes = []
    for b, columns in picks:
        cols = bases[b][:, sorted(columns)]
        nodes.append(Projector.from_matrix(cols @ cols.conj().T))
    assert_same_assembly(nodes)
    unique = ProjectorIndex()
    for p in nodes:
        unique.add(p)
    assert_same_assembly([unique.projector(i) for i in range(len(unique))])


def _tilted(angle):
    return linalg.projector_from_vectors([[np.cos(angle), np.sin(angle), 0.0]])


@pytest.mark.parametrize("scale, duplicate", [(0.5, True), (1.5, False)])
def test_duplicate_threshold_matches_reference(scale, duplicate):
    # The two projectors differ by sin(t) cos(t) ~ t off the diagonal.
    nodes = [_tilted(0.0), _tilted(scale * EPS_PROJ)]
    assert reference_has_duplicates(nodes) is duplicate
    assert_same_assembly(nodes)


@pytest.mark.parametrize("scale, orthogonal", [(0.5, True), (1.5, False)])
def test_orthogonality_threshold_matches_reference(scale, orthogonal):
    # |PQ| peaks at |q_0 q_1| ~ s for P = e_0 and Q along (s, 1, 0).
    nodes = ray_nodes([[1, 0, 0], [scale * EPS_ORTH, 1, 0], [0, 0, 1]])
    assert (linalg.max_abs(nodes[0].matrix @ nodes[1].matrix) <= EPS_ORTH) is orthogonal
    assert reference_exclusions(nodes)[:1] == (((0, 1),) if orthogonal else ((0, 2),))
    assert_same_assembly(nodes)


def test_assembly_makes_no_pairwise_calls(monkeypatch):
    calls = {"is_orthogonal": 0, "find": 0, "add": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (linalg, contextuality):
        monkeypatch.setattr(module, "is_orthogonal", counted("is_orthogonal", is_orthogonal))
    for name in ("find", "add"):
        monkeypatch.setattr(ProjectorIndex, name, counted(name, getattr(ProjectorIndex, name)))
    for _, nodes in NODE_LISTS:
        system = assemble_system(nodes, (), ())
        assert system.exclusions
    assert calls == {"is_orthogonal": 0, "find": 0, "add": 0}
    # The counters do count: one call of each, the add looking up once.
    linalg.is_orthogonal(nodes[0], nodes[1])
    ProjectorIndex().add(nodes[0])
    assert calls == {"is_orthogonal": 1, "find": 1, "add": 1}
