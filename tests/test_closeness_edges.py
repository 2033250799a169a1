"""The EPS_PROJ and EPS_ORTH entrywise rules at each caller the public
API reaches.

Every EPS_PROJ pair below differs by 0.5 or 1.5 EPS_PROJ in its largest
entry, and every EPS_ORTH pair has a product whose largest entry is 0.5,
0.99 or 1.01 EPS_ORTH, so each test pins the side of the tolerance that
every caller decides on.
"""

import numpy as np
import pytest

from ppscontext.contextuality import assemble_system
from ppscontext.errors import NotAProjector
from ppscontext.linalg import (
    EPS_ORTH,
    EPS_PROJ,
    Operator,
    Projector,
    check_projectors,
    identity_projector,
    is_orthogonal,
    max_abs,
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
    index = ProjectorIndex(3)
    index.append(basis(3, [1]))
    index.append(basis(3, [0, 2]))
    query = tilted(3, [0, 2], 2, 1, scale)
    assert index.find(query) == (1 if ok else None)
    assert index.find_many(query.matrix[None]).tolist() == [1 if ok else -1]


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


def skewed_first_ray(dim):
    """e_0 e_0* plus 0.99 EPS_PROJ in the lower-left corner: idempotent,
    hermitian only within EPS_PROJ, and orthogonal to e_{d-1} e_{d-1}* in
    one order of the product only within EPS_ORTH."""
    m = np.zeros((dim, dim), dtype=complex)
    m[0, 0] = 1.0
    m[dim - 1, 0] = 0.99 * EPS_PROJ
    return Projector(m)


@pytest.mark.parametrize("dim", [3, 8, 32])
@pytest.mark.parametrize("scale, orthogonal", [(0.5, True), (0.99, True), (1.01, False)])
@pytest.mark.parametrize("skewed", [False, True], ids=["hermitian", "skewed"])
def test_assemble_system_exclusions_at_the_orthogonality_threshold(
    dim, scale, orthogonal, skewed
):
    eye = np.eye(dim)
    first = skewed_first_ray(dim) if skewed else basis(dim, [0])
    # The ray along s e_0 + e_1 meets e_0 in an entry s / (1 + s^2) ~ s.
    tilted_ray = projector_from_vectors([scale * EPS_ORTH * eye[0] + eye[1]])
    for p, q in [(first, tilted_ray), (tilted_ray, first)]:
        assert (max_abs(p.matrix @ q.matrix) / EPS_ORTH) == pytest.approx(scale, rel=1e-3)
        assert is_orthogonal(p, q) is orthogonal
    rest = [basis(dim, [k]) for k in range(2, dim)] + [basis(dim, [1, dim - 1])]
    for nodes in ([tilted_ray, first, *rest], [*rest[::-1], first, tilted_ray]):
        expected = tuple(
            (i, j)
            for i in range(len(nodes))
            for j in range(i + 1, len(nodes))
            if is_orthogonal(nodes[i], nodes[j])
        )
        assert assemble_system(nodes, (), ()).exclusions == expected
        pair = tuple(sorted((nodes.index(first), nodes.index(tilted_ray))))
        assert (pair in expected) is orthogonal
