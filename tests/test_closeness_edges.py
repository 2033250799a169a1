"""The EPS_PROJ entrywise rule at each caller the public API reaches.

Every pair below differs by 0.5 or 1.5 EPS_PROJ in its largest entry, so
each test pins the side of the tolerance that every caller decides on.
"""

import numpy as np
import pytest

from ppscontext.contextuality import assemble_system
from ppscontext.errors import NotAProjector
from ppscontext.linalg import (
    EPS_PROJ,
    Operator,
    Projector,
    check_projectors,
    identity_projector,
    projector_from_vectors,
    projectors_close,
)
from ppscontext.measurement import Pvm, luders_update
from ppscontext.paradox import ProjectorIndex, Violation, recheck_violation

SCALES = [(0.5, True), (1.5, False)]


def tilted(dim, ones, i, j, scale):
    """Projector onto the basis vectors ``ones`` with e_i tilted towards
    e_j by an angle whose largest entry change is ``scale`` EPS_PROJ."""
    eye = np.eye(dim)
    t = scale * EPS_PROJ
    vectors = [eye[k] for k in ones if k != i] + [np.cos(t) * eye[i] + np.sin(t) * eye[j]]
    return projector_from_vectors(vectors)


def basis(dim, ones):
    return projector_from_vectors([np.eye(dim)[k] for k in ones])


@pytest.mark.parametrize("scale, ok", SCALES)
def test_projector_hermitian_check(scale, ok):
    m = np.diag([1.0, 0.0]).astype(complex)
    m[0, 1] = scale * EPS_PROJ
    if ok:
        assert Projector(m).rank == 1
    else:
        with pytest.raises(NotAProjector, match="not hermitian"):
            Projector(m)


@pytest.mark.parametrize("scale, ok", SCALES)
def test_projector_idempotent_check(scale, ok):
    # (1 + e)^2 - (1 + e) = e (1 + e): idempotent within EPS_PROJ iff e is.
    m = np.diag([1.0 + scale * EPS_PROJ, 0.0])
    if ok:
        assert Projector(m).rank == 1
    else:
        with pytest.raises(NotAProjector, match="not idempotent"):
            Projector(m)


def test_nan_stack_reads_not_hermitian():
    _, errors = check_projectors(np.full((1, 2, 2), np.nan))
    assert errors == [f"matrix is not hermitian within {EPS_PROJ:g}"]


@pytest.mark.parametrize("scale, ok", SCALES)
def test_projectors_close(scale, ok):
    got = projectors_close(basis(3, [0]), tilted(3, [0], 0, 1, scale))
    assert got is ok


@pytest.mark.parametrize("scale, ok", SCALES)
def test_index_find_and_find_many(scale, ok):
    index = ProjectorIndex()
    index.append(basis(3, [1]))
    index.append(basis(3, [0, 2]))
    query = tilted(3, [0, 2], 2, 1, scale)
    assert index.find(query) == (1 if ok else None)
    assert index.find_many(query.matrix[None], 0, 2).tolist() == [1 if ok else -1]


def near_identity_pair(scale):
    """Two projectors, each within EPS_PROJ of valid and orthogonal within
    EPS_ORTH, whose sum misses the identity by ``scale`` EPS_PROJ."""
    a = scale * EPS_PROJ / 2
    return Projector(np.diag([1.0 + a, 0.0])), Projector(np.diag([a, 1.0]))


@pytest.mark.parametrize("scale, ok", SCALES)
def test_pvm_identity_sum(scale, ok):
    elements = near_identity_pair(scale)
    if ok:
        assert len(Pvm("Z", elements)) == 2
    else:
        with pytest.raises(ValueError, match="do not sum to identity"):
            Pvm("Z", elements)


@pytest.mark.parametrize("scale, ok", SCALES)
def test_assemble_system_identity_sum(scale, ok):
    nodes = near_identity_pair(scale)
    if ok:
        assert assemble_system(nodes, (), ((0, 1),)).resolutions == ((0, 1),)
    else:
        with pytest.raises(ValueError, match="do not sum to the identity"):
            assemble_system(nodes, (), ((0, 1),))


@pytest.mark.parametrize("scale, ok", SCALES)
def test_luders_update_hermitian_check(scale, ok):
    rho = Operator(np.array([[0.5, scale * EPS_PROJ], [0.0, 0.5]]))
    if ok:
        assert luders_update(rho, identity_projector(2)).dim == 2
    else:
        with pytest.raises(ValueError, match="not hermitian"):
            luders_update(rho, identity_projector(2))


@pytest.mark.parametrize("scale, ok", SCALES)
def test_recheck_ac1_complement(scale, ok):
    p, comp = basis(2, [0]), tilted(2, [1], 1, 0, scale)
    v = Violation(("ac1",), (p, comp), (1, 1), 0, "")
    assert recheck_violation(v) is ok


def ac4_operands():
    """p, q commuting in d = 4, with their product and join."""
    return basis(4, [0, 1]), basis(4, [1, 2]), basis(4, [1]), basis(4, [0, 1, 2])


@pytest.mark.parametrize("scale, ok", SCALES)
@pytest.mark.parametrize("cited", ["product", "join"])
def test_recheck_ac4_product_and_join(cited, scale, ok):
    p, q, pq, join = ac4_operands()
    if cited == "product":
        pq = tilted(4, [1], 1, 3, scale)
    else:
        join = tilted(4, [0, 1, 2], 2, 3, scale)
    v = Violation(("ac4",), (p, q, pq, join), (1, 1, 1, 0), 1, "")
    assert recheck_violation(v) is ok
